//! Golden-reference verification (§IV-D of the paper).
//!
//! "We validate the parallelized uplink benchmark by comparing the results
//! to those of the serial implementation. The serial version processes a
//! predetermined sequence of subframes, recording and storing the results
//! from each subframe."
//!
//! [`GoldenRecord`] is that store: the serial receiver's per-user results
//! for a subframe sequence. Any parallel execution replays the same
//! sequence and checks its results bit-for-bit.

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
    /// Serialises the record to a compact text format: one line per
    /// subframe, users separated by `;`, each user as `crc:hexbits` —
    /// the paper's "recording and storing the results from each
    /// subframe" so a later run (possibly on another architecture) can
    /// verify against it.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for sf in &self.results {
            let line: Vec<String> = sf
                .iter()
                .map(|r| {
                    let mut bits = String::with_capacity(r.payload.len().div_ceil(4));
                    for chunk in r.payload.chunks(4) {
                        let mut nibble = 0u8;
                        for (i, &b) in chunk.iter().enumerate() {
                            nibble |= b << (3 - i);
                        }
                        bits.push(char::from_digit(nibble as u32, 16).expect("nibble"));
                    }
                    format!("{}:{}:{}", u8::from(r.crc_ok), r.payload.len(), bits)
                })
                .collect();
            out.push_str(&line.join(";"));
            out.push('\n');
        }
        out
    }

    /// Parses a record written by [`GoldenRecord::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a descriptive string on malformed input.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut results = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let mut subframe = Vec::new();
            if !line.is_empty() {
                for field in line.split(';') {
                    let mut parts = field.splitn(3, ':');
                    let crc = parts
                        .next()
                        .ok_or_else(|| format!("line {lineno}: missing crc"))?;
                    let len: usize = parts
                        .next()
                        .ok_or_else(|| format!("line {lineno}: missing length"))?
                        .parse()
                        .map_err(|e| format!("line {lineno}: bad length: {e}"))?;
                    let hex = parts
                        .next()
                        .ok_or_else(|| format!("line {lineno}: missing payload"))?;
                    let mut payload = Vec::with_capacity(len);
                    for c in hex.chars() {
                        let nibble = c
                            .to_digit(16)
                            .ok_or_else(|| format!("line {lineno}: bad hex digit {c}"))?
                            as u8;
                        for i in (0..4).rev() {
                            if payload.len() < len {
                                payload.push((nibble >> i) & 1);
                            }
                        }
                    }
                    if payload.len() != len {
                        return Err(format!("line {lineno}: payload shorter than declared"));
                    }
                    subframe.push(UserResult {
                        payload,
                        crc_ok: crc == "1",
                    });
                }
            }
            results.push(subframe);
        }
        Ok(GoldenRecord { results })
    }

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

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use crate::params::{CellConfig, TurboMode, UserConfig};
    use crate::tx::synthesize_user;
    use lte_dsp::{Modulation, Xoshiro256};

    #[test]
    fn text_round_trip_preserves_the_record() {
        let cell = CellConfig::with_antennas(2);
        let mut rng = Xoshiro256::seed_from_u64(3);
        let subframes: Vec<Vec<crate::grid::UserInput>> = (0..3)
            .map(|i| {
                (0..=(i % 2))
                    .map(|j| {
                        let user = UserConfig::new(2 + 2 * j, 1, Modulation::Qpsk);
                        synthesize_user(&cell, &user, 30.0, &mut rng)
                    })
                    .collect()
            })
            .collect();
        let golden = GoldenRecord::build(&cell, &subframes, TurboMode::Passthrough);
        let text = golden.to_text();
        let restored = GoldenRecord::from_text(&text).expect("parse");
        assert_eq!(golden, restored);
    }

    #[test]
    fn empty_subframes_round_trip() {
        let golden = GoldenRecord::build(
            &CellConfig::default(),
            &[vec![], vec![]],
            TurboMode::Passthrough,
        );
        let restored = GoldenRecord::from_text(&golden.to_text()).expect("parse");
        assert_eq!(golden, restored);
        assert_eq!(restored.len(), 2);
    }

    #[test]
    fn malformed_text_is_rejected() {
        assert!(GoldenRecord::from_text("1:banana:ff").is_err());
        assert!(GoldenRecord::from_text("1:8:zz").is_err());
        assert!(GoldenRecord::from_text("1:800:ff").is_err());
    }
}
