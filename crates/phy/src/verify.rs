//! Golden-reference verification (§IV-D of the paper).
//!
//! "We validate the parallelized uplink benchmark by comparing the results
//! to those of the serial implementation. The serial version processes a
//! predetermined sequence of subframes, recording and storing the results
//! from each subframe."
//!
//! [`GoldenRecord`] is that record, held in memory: the serial receiver's
//! per-user results for a subframe sequence. Any parallel execution
//! replays the same sequence and checks its results bit-for-bit.

use std::fmt;

use lte_dsp::fft::FftPlanner;

use crate::grid::UserInput;
use crate::params::{CellConfig, TurboMode};
use crate::receiver::{process_user_pooled, UserResult};

/// Serial reference results for a predetermined subframe sequence.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GoldenRecord {
    /// `results[subframe][user]`.
    results: Vec<Vec<UserResult>>,
}

/// A divergence between a parallel run and the golden record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// Different number of subframes.
    SubframeCount {
        /// Subframes in the golden record.
        expected: usize,
        /// Subframes produced by the run under test.
        actual: usize,
    },
    /// Different number of users within a subframe.
    UserCount {
        /// Subframe index.
        subframe: usize,
        /// Users in the golden record.
        expected: usize,
        /// Users produced by the run under test.
        actual: usize,
    },
    /// A user's decoded output differs.
    ResultMismatch {
        /// Subframe index.
        subframe: usize,
        /// User index within the subframe.
        user: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::SubframeCount { expected, actual } => {
                write!(
                    f,
                    "subframe count mismatch: expected {expected}, got {actual}"
                )
            }
            VerifyError::UserCount {
                subframe,
                expected,
                actual,
            } => write!(
                f,
                "user count mismatch in subframe {subframe}: expected {expected}, got {actual}"
            ),
            VerifyError::ResultMismatch { subframe, user } => {
                write!(f, "result mismatch at subframe {subframe}, user {user}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl GoldenRecord {
    /// Builds the golden record by processing every subframe serially.
    pub fn build(cell: &CellConfig, subframes: &[Vec<UserInput>], mode: TurboMode) -> Self {
        let planner = FftPlanner::new();
        let results = subframes
            .iter()
            .map(|users| {
                users
                    .iter()
                    .map(|u| process_user_pooled(cell, u, mode, &planner))
                    .collect()
            })
            .collect();
        GoldenRecord { results }
    }

    /// Number of recorded subframes.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// `true` when no subframes are recorded.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// The recorded results of one subframe.
    pub fn subframe(&self, idx: usize) -> &[UserResult] {
        &self.results[idx]
    }

    /// Checks a parallel run's results against the record.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] encountered.
    pub fn verify(&self, actual: &[Vec<UserResult>]) -> Result<(), VerifyError> {
        if actual.len() != self.results.len() {
            return Err(VerifyError::SubframeCount {
                expected: self.results.len(),
                actual: actual.len(),
            });
        }
        for (sf, (exp, act)) in self.results.iter().zip(actual).enumerate() {
            if exp.len() != act.len() {
                return Err(VerifyError::UserCount {
                    subframe: sf,
                    expected: exp.len(),
                    actual: act.len(),
                });
            }
            for (u, (e, a)) in exp.iter().zip(act).enumerate() {
                if e != a {
                    return Err(VerifyError::ResultMismatch {
                        subframe: sf,
                        user: u,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::UserConfig;
    use crate::tx::synthesize_user;
    use lte_dsp::{Modulation, Xoshiro256};

    fn sample_subframes(n: usize) -> (CellConfig, Vec<Vec<UserInput>>) {
        let cell = CellConfig::with_antennas(2);
        let mut rng = Xoshiro256::seed_from_u64(42);
        let subframes = (0..n)
            .map(|i| {
                (0..=(i % 2))
                    .map(|j| {
                        let user = UserConfig::new(2 + 2 * j, 1 + j, Modulation::Qpsk);
                        synthesize_user(&cell, &user, 30.0, &mut rng)
                    })
                    .collect()
            })
            .collect();
        (cell, subframes)
    }

    #[test]
    fn verifies_identical_run() {
        let (cell, subframes) = sample_subframes(3);
        let golden = GoldenRecord::build(&cell, &subframes, TurboMode::Passthrough);
        assert_eq!(golden.len(), 3);
        // Re-run (simulating the "parallel" execution) and verify.
        let rerun: Vec<Vec<UserResult>> = subframes
            .iter()
            .map(|users| {
                users
                    .iter()
                    .map(|u| crate::receiver::process_user(&cell, u, TurboMode::Passthrough))
                    .collect()
            })
            .collect();
        golden.verify(&rerun).expect("identical run must verify");
    }

    #[test]
    fn detects_missing_subframe() {
        let (cell, subframes) = sample_subframes(2);
        let golden = GoldenRecord::build(&cell, &subframes, TurboMode::Passthrough);
        let err = golden.verify(&[]).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::SubframeCount {
                expected: 2,
                actual: 0
            }
        ));
    }

    #[test]
    fn detects_user_count_mismatch() {
        let (cell, subframes) = sample_subframes(1);
        let golden = GoldenRecord::build(&cell, &subframes, TurboMode::Passthrough);
        let err = golden.verify(&[vec![]]).unwrap_err();
        assert!(matches!(err, VerifyError::UserCount { subframe: 0, .. }));
    }

    #[test]
    fn detects_result_mismatch() {
        let (cell, subframes) = sample_subframes(1);
        let golden = GoldenRecord::build(&cell, &subframes, TurboMode::Passthrough);
        let mut tampered = vec![golden.subframe(0).to_vec()];
        tampered[0][0].crc_ok = !tampered[0][0].crc_ok;
        let err = golden.verify(&tampered).unwrap_err();
        assert_eq!(
            err,
            VerifyError::ResultMismatch {
                subframe: 0,
                user: 0
            }
        );
        assert!(err.to_string().contains("subframe 0"));
    }
}
