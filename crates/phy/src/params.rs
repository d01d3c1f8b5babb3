//! LTE uplink configuration types.
//!
//! These mirror the paper's subframe input parameters (§IV): per user the
//! number of physical resource blocks, the number of layers, and the
//! modulation; per cell the antenna configuration and frame structure
//! constants.

use lte_dsp::Modulation;

/// Subcarriers per physical resource block.
pub const SC_PER_PRB: usize = 12;
/// SC-FDMA symbols per slot (normal cyclic prefix).
pub const SYMBOLS_PER_SLOT: usize = 7;
/// Data symbols per slot (one of the seven is the reference symbol).
pub const DATA_SYMBOLS_PER_SLOT: usize = 6;
/// Index of the reference symbol within a slot (three data symbols are
/// buffered before it arrives — §II-C of the paper).
pub const REFERENCE_SYMBOL_INDEX: usize = 3;
/// Slots per subframe.
pub const SLOTS_PER_SUBFRAME: usize = 2;
/// Maximum PRBs schedulable in one subframe in the benchmark's parameter
/// model (`MAX_PRB` in Fig. 6).
pub const MAX_PRB: usize = 200;
/// Maximum users schedulable in one subframe (`MAX_USERS` in Fig. 6).
pub const MAX_USERS: usize = 10;
/// Minimum PRBs a scheduled user can hold (§V-A: "a user has to have at
/// least two PRBs to be scheduled").
pub const MIN_USER_PRB: usize = 2;
/// Maximum uplink layers (LTE-Advanced uplink MIMO — §II-B).
pub const MAX_LAYERS: usize = 4;

/// Per-user subframe input parameters (the paper's §IV list).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct UserConfig {
    /// Physical resource blocks allocated to this user (≥ 2).
    pub prbs: usize,
    /// Spatial layers in use (1..=4).
    pub layers: usize,
    /// Modulation scheme.
    pub modulation: Modulation,
}

impl UserConfig {
    /// Creates a user configuration.
    ///
    /// # Panics
    ///
    /// Panics if `prbs < MIN_USER_PRB`, `prbs > MAX_PRB`, or
    /// `layers` is not in `1..=MAX_LAYERS`.
    pub fn new(prbs: usize, layers: usize, modulation: Modulation) -> Self {
        assert!(
            (MIN_USER_PRB..=MAX_PRB).contains(&prbs),
            "prbs must be in {MIN_USER_PRB}..={MAX_PRB}, got {prbs}"
        );
        assert!(
            (1..=MAX_LAYERS).contains(&layers),
            "layers must be in 1..={MAX_LAYERS}, got {layers}"
        );
        UserConfig {
            prbs,
            layers,
            modulation,
        }
    }

    /// Allocated subcarriers (`12 × prbs`).
    pub fn subcarriers(&self) -> usize {
        self.prbs * SC_PER_PRB
    }

    /// Payload+parity bits carried by this user in one subframe:
    /// `2 slots × 6 symbols × layers × subcarriers × bits/symbol`.
    pub fn bits_per_subframe(&self) -> usize {
        SLOTS_PER_SUBFRAME
            * DATA_SYMBOLS_PER_SLOT
            * self.layers
            * self.subcarriers()
            * self.modulation.bits_per_symbol()
    }

    /// Number of channel-estimation tasks this user spawns
    /// (`rx antennas × layers` — §III of the paper).
    pub fn estimation_tasks(&self, n_rx: usize) -> usize {
        n_rx * self.layers
    }

    /// Number of demodulation tasks this user spawns
    /// (`12 data symbols × layers` — §III of the paper).
    pub fn demodulation_tasks(&self) -> usize {
        SLOTS_PER_SUBFRAME * DATA_SYMBOLS_PER_SLOT * self.layers
    }
}

/// Number of physical-cell identities (TS 36.211 §6.11: 0..=503).
pub const N_CELL_IDENTITIES: usize = 504;

/// Zadoff–Chu roots assigned round-robin to cell identities by
/// [`CellConfig::with_identity`]: small primes, so every pair of
/// distinct roots is coprime to every practical sequence length and
/// neighbouring cells' reference sequences stay near-orthogonal.
const ZC_ROOT_TABLE: [usize; 8] = [7, 11, 13, 17, 19, 23, 29, 31];

/// Cell-wide (base-station) configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CellConfig {
    /// Receive antennas at the base station.
    pub n_rx: usize,
    /// Zadoff–Chu root used for the cell's reference sequences.
    pub zc_root: usize,
    /// Physical-cell identity (0..=503) — seeds the cell-specific part
    /// of the PUSCH scrambling sequence, so co-scheduled users in
    /// different cells descramble differently.
    pub cell_id: usize,
}

/// The historical single-cell identity: every pre-multi-cell run
/// scrambled with cell id 101, so [`CellConfig::with_antennas`] keeps it
/// to preserve golden records and fingerprints bit-for-bit.
pub const LEGACY_CELL_ID: usize = 101;

impl CellConfig {
    /// A cell with `n_rx` receive antennas and the legacy single-cell
    /// identity ([`LEGACY_CELL_ID`]).
    ///
    /// # Panics
    ///
    /// Panics if `n_rx == 0` or `n_rx > 8`.
    pub fn with_antennas(n_rx: usize) -> Self {
        assert!((1..=8).contains(&n_rx), "n_rx must be in 1..=8");
        CellConfig {
            n_rx,
            zc_root: 7,
            cell_id: LEGACY_CELL_ID,
        }
    }

    /// A cell with an explicit physical-cell identity: the Zadoff–Chu
    /// root is derived from the identity (distinct prime roots cycle
    /// with the identity), so neighbouring deployment cells get distinct
    /// reference sequences and distinct scrambling without extra
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n_rx` is out of `1..=8` or
    /// `cell_id >= N_CELL_IDENTITIES`.
    pub fn with_identity(n_rx: usize, cell_id: usize) -> Self {
        assert!((1..=8).contains(&n_rx), "n_rx must be in 1..=8");
        assert!(
            cell_id < N_CELL_IDENTITIES,
            "cell_id must be in 0..{N_CELL_IDENTITIES}, got {cell_id}"
        );
        CellConfig {
            n_rx,
            zc_root: ZC_ROOT_TABLE[cell_id % ZC_ROOT_TABLE.len()],
            cell_id,
        }
    }
}

impl Default for CellConfig {
    /// The paper's evaluation configuration: a four-antenna receiver.
    fn default() -> Self {
        CellConfig::with_antennas(4)
    }
}

/// Whether the turbo stage decodes or passes data through.
///
/// The paper omits real turbo decoding ("commonly executed on dedicated
/// hardware, and thus we omit it from our benchmark. The call to perform
/// turbo decoding simply passes the data through") but designed the
/// pipeline for module replacement; both modes are first-class here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TurboMode {
    /// Hard-decide LLRs and pass them straight to the CRC — the paper's
    /// default.
    #[default]
    Passthrough,
    /// Run the real max-log-MAP turbo decoder, at most this many
    /// iterations per code block.
    Decode {
        /// The cap on full decoder iterations (two SISO passes each). A
        /// code block stops at the first SISO pass whose hard decisions
        /// pass its CRC; one that never passes runs all of them.
        iterations: usize,
    },
}

/// The input parameters of one subframe: the scheduled users.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SubframeConfig {
    /// Scheduled users (at most [`MAX_USERS`]).
    pub users: Vec<UserConfig>,
}

impl SubframeConfig {
    /// Creates a subframe configuration.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_USERS`] users are scheduled.
    pub fn new(users: Vec<UserConfig>) -> Self {
        assert!(
            users.len() <= MAX_USERS,
            "at most {MAX_USERS} users per subframe"
        );
        SubframeConfig { users }
    }

    /// Total PRBs allocated across users.
    pub fn total_prbs(&self) -> usize {
        self.users.iter().map(|u| u.prbs).sum()
    }

    /// Number of scheduled users.
    pub fn n_users(&self) -> usize {
        self.users.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_config_accessors() {
        let u = UserConfig::new(10, 2, Modulation::Qam64);
        assert_eq!(u.subcarriers(), 120);
        assert_eq!(u.bits_per_subframe(), 2 * 6 * 2 * 120 * 6);
        assert_eq!(u.estimation_tasks(4), 8);
        assert_eq!(u.demodulation_tasks(), 24);
    }

    #[test]
    fn paper_parallelism_figures() {
        // §III: "four antennas × four layers" → 16 estimation tasks;
        // "six symbols × four layers" → 24 demodulation tasks per subframe
        // (two slots).
        let u = UserConfig::new(2, 4, Modulation::Qpsk);
        assert_eq!(u.estimation_tasks(4), 16);
        assert_eq!(u.demodulation_tasks(), 48);
        assert_eq!(u.demodulation_tasks() / SLOTS_PER_SUBFRAME, 24);
    }

    #[test]
    #[should_panic(expected = "prbs")]
    fn single_prb_rejected() {
        UserConfig::new(1, 1, Modulation::Qpsk);
    }

    #[test]
    #[should_panic(expected = "layers")]
    fn five_layers_rejected() {
        UserConfig::new(4, 5, Modulation::Qpsk);
    }

    #[test]
    fn cell_defaults() {
        let cell = CellConfig::default();
        assert_eq!(cell.n_rx, 4);
        assert_eq!(cell.cell_id, LEGACY_CELL_ID);
        assert_eq!(cell.zc_root, 7);
    }

    #[test]
    fn cell_identities_get_distinct_roots_and_ids() {
        let a = CellConfig::with_identity(2, 0);
        let b = CellConfig::with_identity(2, 1);
        assert_ne!(a.zc_root, b.zc_root);
        assert_ne!(a.cell_id, b.cell_id);
        // Identity wraps through the root table but cell_id stays exact.
        let c = CellConfig::with_identity(2, 8);
        assert_eq!(c.zc_root, a.zc_root);
        assert_ne!(c.cell_id, a.cell_id);
    }

    #[test]
    #[should_panic(expected = "cell_id")]
    fn out_of_range_identity_rejected() {
        CellConfig::with_identity(2, N_CELL_IDENTITIES);
    }

    #[test]
    #[should_panic(expected = "n_rx")]
    fn zero_antennas_rejected() {
        CellConfig::with_antennas(0);
    }

    #[test]
    fn subframe_totals() {
        let sf = SubframeConfig::new(vec![
            UserConfig::new(10, 1, Modulation::Qpsk),
            UserConfig::new(20, 2, Modulation::Qam16),
        ]);
        assert_eq!(sf.total_prbs(), 30);
        assert_eq!(sf.n_users(), 2);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_users_rejected() {
        SubframeConfig::new(vec![UserConfig::new(2, 1, Modulation::Qpsk); 11]);
    }

    #[test]
    fn turbo_mode_default_is_passthrough() {
        assert_eq!(TurboMode::default(), TurboMode::Passthrough);
    }
}
