//! The steady-state reference subframe.
//!
//! Performance is measured by one harness, `examples/lte_bench` (see
//! `BENCHMARK.json`); this module only names the load it, the
//! conformance vectors and the soak decode cache all replay, so "the
//! steady-state subframe" means one thing.

use lte_dsp::Modulation;
use lte_phy::params::{SubframeConfig, UserConfig};

/// The steady-state subframe: four users spanning every modulation and
/// 1–4 layers, 100 PRBs total — the sustained-load shape of the paper's
/// Fig. 8 trace near the cell budget.
pub fn steady_state_subframe() -> SubframeConfig {
    SubframeConfig::new(vec![
        UserConfig::new(25, 2, Modulation::Qam16),
        UserConfig::new(10, 1, Modulation::Qpsk),
        UserConfig::new(50, 2, Modulation::Qam64),
        UserConfig::new(15, 4, Modulation::Qam16),
    ])
}
