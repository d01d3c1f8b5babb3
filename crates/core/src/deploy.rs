//! Multi-cell deployment engine: N cells, mMTC-scale UE populations,
//! one shared pool, deterministic inter-cell interference.
//!
//! The batch benchmark, the soak and the serve loop all assume a single
//! cell. This module lifts that assumption: a deployment provisions
//! `cells` cells — each a first-class [`CellConfig`] with its own
//! physical-cell identity, Zadoff-Chu root and scrambling sequence — and
//! splits a UE population of `ues` across them. Every subframe tick,
//! each cell's traffic model offers load proportional to its population,
//! the per-cell scheduler grants at most [`MAX_USERS`] allocations
//! within the cell's PRB budget, and the rest of the offered load is
//! counted as deferred (DTX at the measurement box). One receiver runs
//! per cell; all of them share the *same* work-stealing pool: each tick
//! of every cell is one dispatcher row in `(cell, user)` order, and the
//! row's open count proves every `(cell, user)` drained.
//!
//! # Determinism
//!
//! The run is byte-deterministic under a fixed seed, independent of the
//! worker count:
//!
//! * every cell draws from its own RNG stream seeded by
//!   [`cell_seed`]`(seed, cell_id)` — a function of the cell's
//!   *identity*, not its index, so cell `i` of an N-cell deployment and
//!   a 1-cell deployment with `first_cell = i` synthesize identical
//!   subframes;
//! * each scheduled user is synthesized by its own pool task from its
//!   exact offset in the cell's stream: the coordinator walks the cell's
//!   generator user by user, handing each task a clone and skipping
//!   [`synthesis_draws`] outputs past it — the count synthesis takes —
//!   so the task draws what a serial loop over the cell's users would
//!   have drawn for it. Each task hands back its final generator, and
//!   the coordinator asserts that it equals the state the walk reached;
//! * the interference fields are built one task per cell, and injection
//!   runs one task per cell after every field exists; each task writes
//!   only its own cell's inputs and sums neighbours in cell order, the
//!   serial order of every sample's sum;
//! * each `(cell, user)` decode writes its own result slot, and the row
//!   is split back by cell after the pool drains, so counters and
//!   fingerprints never see a worker interleaving;
//! * the report deliberately excludes the worker count, and the Eq. 3/5
//!   power estimate uses the paper's 62-core controller rather than the
//!   host's — `DEPLOY.json` from a 1-worker and a 64-worker run must be
//!   `cmp`-identical.
//!
//! # Inter-cell interference
//!
//! All cells share the same spectrum: each cell lays its grants out
//! first-fit from subcarrier 0, so allocations in different cells
//! overlap. With a nonzero coupling, each cell's radiated
//! frequency-domain field is summed over the deployment band, on every
//! one of the cell's antennas, and `coupling × Σ_{d≠c} field_d` is added
//! into every one of cell `c`'s received symbols before dispatch. The
//! injection is plain f32 arithmetic in a fixed order — deterministic —
//! and is *skipped entirely* at zero coupling, so an isolated deployment
//! is bit-identical to independent single-cell runs (the equivalence the
//! zero-coupling test proves).

use std::sync::Arc;

use lte_dsp::{Complex32, Xoshiro256};
use lte_obs::{f64_json, EblerBank, EblerSurface, OpenMetrics};
use lte_phy::grid::UserInput;
use lte_phy::params::{
    CellConfig, SubframeConfig, TurboMode, UserConfig, DATA_SYMBOLS_PER_SLOT, MAX_PRB, MAX_USERS,
    N_CELL_IDENTITIES, SLOTS_PER_SUBFRAME,
};
use lte_phy::receiver::UserResult;
use lte_phy::tx::{synthesis_draws, synthesize_user_with_mode};
use lte_power::{CoreController, WorkloadEstimator};

use crate::dispatch::{Dispatcher, Finished};
use crate::fingerprint::Fnv1a;
use crate::serve::TrafficModel;

/// Version tag of the `DEPLOY.json` artifact.
pub const DEPLOY_SCHEMA: &str = "lte-sim-deploy-v1";

/// Synthesis SNR for deployment traffic (clean decodes at zero
/// coupling, matching the batch benchmark's default).
const DEPLOY_SNR_DB: f64 = 30.0;

/// UE-population unit behind one arrival-generator draw: a cell with
/// `POP_UNIT` UEs offers the traffic model's nominal arrivals; larger
/// populations offer proportionally more contenders for the same grant
/// budget, and the surplus is deferred.
const POP_UNIT: usize = 1000;

/// Parameters of one deployment campaign: every cell is the paper's
/// wideband 2-antenna cell with the full [`MAX_PRB`] budget.
#[derive(Clone, Debug)]
pub struct DeployConfig {
    /// Number of cells to provision.
    pub cells: usize,
    /// Total UE population, split round-robin across cells.
    pub ues: usize,
    /// Subframe ticks to run.
    pub ticks: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Worker threads of the shared pool. Affects wall time only —
    /// never the report bytes.
    pub workers: usize,
    /// Per-cell traffic generator.
    pub traffic: TrafficModel,
    /// Inter-cell coupling amplitude in thousandths (0 = isolated).
    pub coupling_milli: u32,
    /// Physical-cell identity of cell 0; cell `i` gets
    /// `first_cell + i`. A 1-cell deployment with `first_cell = i`
    /// reproduces cell `i` of an N-cell deployment at zero coupling.
    pub first_cell: usize,
}

impl DeployConfig {
    /// A small macro-cell deployment with every knob at its default.
    pub fn new(cells: usize, ues: usize, ticks: u64, seed: u64) -> Self {
        DeployConfig {
            cells,
            ues,
            ticks,
            seed,
            workers: 2,
            traffic: TrafficModel::FullBuffer,
            coupling_milli: 0,
            first_cell: 0,
        }
    }
}

/// SplitMix64 avalanche of `(seed, cell_id)`. Keyed by the cell's
/// *identity*, not its deployment index — see the module docs.
fn cell_seed(seed: u64, cell_id: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x6465_706c_6f79_3121) // "deploy1!"
        .wrapping_add(cell_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One cell's grant decision for one tick.
struct TickSchedule {
    /// The scheduled subframe (possibly empty).
    subframe: SubframeConfig,
    /// Grants the population offered this tick.
    offered: u64,
    /// Offered grants that did not fit the budget (DTX).
    deferred: u64,
}

/// The per-tick scheduler: the traffic model's arrival palette, scaled
/// by population, granted first-come within the cell's PRB and user
/// budgets. A pure function of its arguments.
fn schedule_tick(traffic: TrafficModel, population: usize, seed: u64, tick: u64) -> TickSchedule {
    let palette: Vec<UserConfig> = traffic
        .arrivals(seed, tick)
        .iter()
        .flat_map(|sf| sf.users.iter().copied())
        .collect();
    if palette.is_empty() || population == 0 {
        return TickSchedule {
            subframe: SubframeConfig::new(Vec::new()),
            offered: 0,
            deferred: 0,
        };
    }
    let factor = population.div_ceil(POP_UNIT).max(1) as u64;
    let offered = palette.len() as u64 * factor;
    let mut users = Vec::new();
    let mut prbs = 0usize;
    for i in 0..offered {
        if users.len() == MAX_USERS {
            break;
        }
        let u = palette[(i as usize) % palette.len()];
        if prbs + u.prbs > MAX_PRB {
            break;
        }
        prbs += u.prbs;
        users.push(u);
    }
    let deferred = offered - users.len() as u64;
    TickSchedule {
        subframe: SubframeConfig::new(users),
        offered,
        deferred,
    }
}

/// One cell's radiated frequency-domain field for one tick:
/// `sym[slot][0]` is the reference symbol, `sym[slot][1 + s]` data
/// symbol `s`, each `[rx][band_subcarrier]` over the deployment band.
struct CellField {
    sym: Vec<Vec<Vec<Vec<Complex32>>>>,
}

impl CellField {
    /// Accumulates `inputs` (laid out at `offsets`) over `band`
    /// subcarriers.
    fn radiated(inputs: &[UserInput], offsets: &[usize], n_rx: usize, band: usize) -> Self {
        let mut sym = vec![
            vec![vec![vec![Complex32::ZERO; band]; n_rx]; 1 + DATA_SYMBOLS_PER_SLOT];
            SLOTS_PER_SUBFRAME
        ];
        for (input, &offset) in inputs.iter().zip(offsets) {
            for (slot_idx, slot) in input.slots.iter().enumerate() {
                for (rx, dst) in sym[slot_idx][0].iter_mut().enumerate().take(n_rx) {
                    for (sc, &v) in slot.reference.antenna(rx).iter().enumerate() {
                        dst[offset + sc] += v;
                    }
                }
                for (s, data) in slot.data.iter().enumerate() {
                    for (rx, dst) in sym[slot_idx][1 + s].iter_mut().enumerate().take(n_rx) {
                        for (sc, &v) in data.antenna(rx).iter().enumerate() {
                            dst[offset + sc] += v;
                        }
                    }
                }
            }
        }
        CellField { sym }
    }
}

/// Adds `coupling ×` the neighbour fields into one received input.
fn inject_interference(
    input: &mut UserInput,
    offset: usize,
    neighbours: &[&CellField],
    coupling: f32,
) {
    let n_rx = input.slots[0].reference.n_rx();
    let n_sc = input.config.subcarriers();
    for (slot_idx, slot) in input.slots.iter_mut().enumerate() {
        for rx in 0..n_rx {
            let dst = slot.reference.antenna_mut(rx);
            for field in neighbours {
                let src = &field.sym[slot_idx][0][rx];
                for (sc, d) in dst.iter_mut().enumerate().take(n_sc) {
                    *d += src[offset + sc] * coupling;
                }
            }
        }
        for (s, data) in slot.data.iter_mut().enumerate() {
            for rx in 0..n_rx {
                let dst = data.antenna_mut(rx);
                for field in neighbours {
                    let src = &field.sym[slot_idx][1 + s][rx];
                    for (sc, d) in dst.iter_mut().enumerate().take(n_sc) {
                        *d += src[offset + sc] * coupling;
                    }
                }
            }
        }
    }
}

/// One cell's slice of the deployment report.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Physical-cell identity.
    pub cell_id: usize,
    /// UEs homed on this cell.
    pub population: usize,
    /// Grants offered by the population across the campaign.
    pub offered: u64,
    /// Grants scheduled (decode attempts).
    pub scheduled: u64,
    /// Offered grants deferred past the budget (DTX).
    pub deferred: u64,
    /// FNV-1a 64 over the cell's decode results in tick/user order.
    pub fingerprint: u64,
    /// The cell's R&S-shaped measurement surface.
    pub ebler: EblerSurface,
}

/// The campaign-level deployment report behind `DEPLOY.json`.
#[derive(Clone, Debug)]
pub struct DeployReport {
    /// The configuration that produced it (worker count excluded from
    /// serialization by design).
    pub config: DeployConfig,
    /// Per-cell results, in cell order.
    pub per_cell: Vec<CellReport>,
    /// The deployment-wide measurement surface.
    pub aggregate: EblerSurface,
    /// FNV-1a 64 over the per-cell fingerprints, in cell order.
    pub fingerprint: u64,
    /// Mean per-tick estimated activity summed over cells (Eq. 3/4).
    pub mean_activity: f64,
    /// Mean per-tick active-core target (Eq. 5 on the paper's 62-core
    /// controller, from the aggregate multi-cell PRB/MCS mix).
    pub mean_target_cores: f64,
    /// Largest per-tick active-core target seen.
    pub max_target_cores: usize,
}

impl DeployReport {
    /// Canonical JSON artifact. Byte-deterministic under a fixed seed —
    /// the worker count does not appear.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{DEPLOY_SCHEMA}\",\n"));
        out.push_str(&format!("  \"seed\": {},\n", self.config.seed));
        out.push_str(&format!("  \"cells\": {},\n", self.config.cells));
        out.push_str(&format!("  \"ues\": {},\n", self.config.ues));
        out.push_str(&format!("  \"ticks\": {},\n", self.config.ticks));
        out.push_str(&format!(
            "  \"traffic\": \"{}\",\n",
            self.config.traffic.name()
        ));
        out.push_str(&format!(
            "  \"coupling_milli\": {},\n",
            self.config.coupling_milli
        ));
        out.push_str(&format!("  \"first_cell\": {},\n", self.config.first_cell));
        out.push_str(&format!(
            "  \"fingerprint\": \"{:016x}\",\n",
            self.fingerprint
        ));
        out.push_str(&format!(
            "  \"power\": {{\"mean_activity\": {}, \"mean_target_cores\": {}, \"max_target_cores\": {}}},\n",
            f64_json(self.mean_activity),
            f64_json(self.mean_target_cores),
            self.max_target_cores
        ));
        out.push_str(&format!("  \"aggregate\": {},\n", self.aggregate.to_json()));
        out.push_str("  \"per_cell\": [\n");
        for (i, c) in self.per_cell.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"cell_id\": {}, \"population\": {}, \"offered\": {}, \"scheduled\": {}, \"deferred\": {}, \"fingerprint\": \"{:016x}\", \"ebler\": {}}}{}\n",
                c.cell_id,
                c.population,
                c.offered,
                c.scheduled,
                c.deferred,
                c.fingerprint,
                c.ebler.to_json(),
                if i + 1 < self.per_cell.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// OpenMetrics exposition: the aggregate surface plus one labelled
    /// block per cell.
    pub fn openmetrics(&self) -> String {
        let mut om = OpenMetrics::new();
        om.ebler("deploy", &self.aggregate);
        for c in &self.per_cell {
            om.ebler(&format!("deploy_cell{}", c.cell_id), &c.ebler);
        }
        om.render()
    }
}

/// Per-cell state carried across ticks.
struct CellState {
    config: CellConfig,
    population: usize,
    rng: Xoshiro256,
    hash: Fnv1a,
    offered: u64,
    scheduled: u64,
    deferred: u64,
}

/// Runs one deployment campaign to completion.
///
/// # Errors
///
/// Returns a description when the configuration is out of range, the
/// pool cannot be spawned, or a decode is lost.
pub fn run_deploy(cfg: &DeployConfig) -> Result<DeployReport, String> {
    if cfg.cells == 0 {
        return Err("a deployment needs at least one cell".into());
    }
    let end = cfg.first_cell.checked_add(cfg.cells);
    if end.is_none_or(|end| end > N_CELL_IDENTITIES) {
        return Err(format!(
            "cell identities from {} for {} cells exceed the {} physical-cell identities",
            cfg.first_cell, cfg.cells, N_CELL_IDENTITIES
        ));
    }
    if cfg.workers == 0 {
        return Err("a deployment needs at least one worker".into());
    }
    let turbo = TurboMode::Passthrough;
    let coupling = cfg.coupling_milli as f32 / 1000.0;

    let palette = cfg.traffic.palette();
    let mut cells: Vec<CellState> = (0..cfg.cells)
        .map(|i| {
            let cell_id = cfg.first_cell + i;
            let config = CellConfig::with_identity(2, cell_id);
            CellState {
                config,
                population: cfg.ues / cfg.cells + usize::from(i < cfg.ues % cfg.cells),
                rng: Xoshiro256::seed_from_u64(cell_seed(cfg.seed, cell_id as u64)),
                hash: Fnv1a::new(),
                offered: 0,
                scheduled: 0,
                deferred: 0,
            }
        })
        .collect();

    let configs: Vec<CellConfig> = cells.iter().map(|c| c.config).collect();
    let warm: Vec<(CellConfig, &[UserConfig])> =
        configs.iter().map(|&c| (c, &palette[..])).collect();
    let mut d = Dispatcher::new(cfg.workers, turbo, &warm)
        .map_err(|e| format!("failed to start the worker pool: {e}"))?;

    let bank = EblerBank::new(cells.len(), 1);
    // The Eq. 5 controller stays on the paper's 62-core machine so the
    // estimate — and hence the report — is independent of the host's
    // worker count.
    let estimator = WorkloadEstimator::library_calibration();
    let controller = CoreController::paper();
    let mut activity_sum = 0.0f64;
    let mut target_sum = 0u64;
    let mut target_max = 0usize;

    for tick in 0..cfg.ticks {
        let tick_sched: Vec<TickSchedule> = cells
            .iter()
            .map(|cell| {
                let seed = cell_seed(cfg.seed, cell.config.cell_id as u64);
                schedule_tick(cfg.traffic, cell.population, seed, tick)
            })
            .collect();

        // ---- Synthesis: one pool task per scheduled user. -----------
        let mut tick_inputs = synthesize_tick(&d, &mut cells, &tick_sched, turbo)
            .map_err(|e| format!("tick {tick}: {e}"))?;

        // ---- Inter-cell interference (skipped when isolated). -------
        if coupling > 0.0 && cfg.cells > 1 {
            tick_inputs = interfere(&d, &configs, tick_inputs, coupling)
                .map_err(|e| format!("tick {tick}: {e}"))?;
        }

        // ---- Eq. 3/5 on the aggregate multi-cell mix. ---------------
        let total_activity: f64 = tick_sched
            .iter()
            .map(|s| estimator.subframe_activity(&s.subframe))
            .sum();
        let target = controller.active_cores(total_activity / cfg.cells as f64);
        activity_sum += total_activity;
        target_sum += target as u64;
        target_max = target_max.max(target);

        // ---- Dispatch onto the shared pool. -------------------------
        let inputs: Vec<Vec<Arc<UserInput>>> = tick_inputs
            .into_iter()
            .map(|inputs| inputs.into_iter().map(Arc::new).collect())
            .collect();
        let row = dispatch_tick(&mut d, &configs, &inputs);
        let tick_results =
            harvest_tick(&inputs, row).ok_or_else(|| format!("tick {tick}: a decode was lost"))?;

        // ---- Deterministic harvest, (cell, user) order. -------------
        for (ci, (cell, results)) in cells.iter_mut().zip(&tick_results).enumerate() {
            let sched = &tick_sched[ci];
            cell.offered += sched.offered;
            cell.deferred += sched.deferred;
            cell.scheduled += sched.subframe.users.len() as u64;
            for (ui, result) in results.iter().enumerate() {
                bank.record_decode(ci, 0, result.crc_ok, result.payload.len() as u64);
                cell.hash.write_u64(tick);
                cell.hash.write_u64(ui as u64);
                cell.hash.write(&[u8::from(result.crc_ok)]);
                cell.hash.write_u64(result.payload.len() as u64);
                cell.hash.write(&result.payload);
            }
            for _ in 0..sched.deferred {
                bank.record_dtx(ci, 0);
            }
        }
    }

    let per_cell: Vec<CellReport> = cells
        .iter()
        .enumerate()
        .map(|(ci, c)| CellReport {
            cell_id: c.config.cell_id,
            population: c.population,
            offered: c.offered,
            scheduled: c.scheduled,
            deferred: c.deferred,
            fingerprint: c.hash.finish(),
            ebler: bank.cell_snapshot(ci),
        })
        .collect();
    let mut agg = Fnv1a::new();
    for c in &per_cell {
        agg.write_u64(c.fingerprint);
    }
    let ticks = cfg.ticks.max(1) as f64;
    Ok(DeployReport {
        config: cfg.clone(),
        per_cell,
        aggregate: bank.aggregate_snapshot(),
        fingerprint: agg.finish(),
        mean_activity: activity_sum / ticks,
        mean_target_cores: target_sum as f64 / ticks,
        max_target_cores: target_max,
    })
}

/// Synthesizes one tick of every cell, one pool task per scheduled user,
/// and returns each cell's inputs in user order.
///
/// A cell draws from one generator. The coordinator walks it user by
/// user: the user's task starts from a clone, and the generator skips
/// [`synthesis_draws`] ahead — exactly the outputs that user's one
/// transmission takes — so every input is bit-identical to drawing the
/// cell's users one after another from the one stream. Each task hands
/// its generator back, and the walk is asserted to have landed where the
/// task did.
fn synthesize_tick(
    d: &Dispatcher,
    cells: &mut [CellState],
    schedules: &[TickSchedule],
    turbo: TurboMode,
) -> Result<Vec<Vec<UserInput>>, String> {
    let mut users = schedules
        .iter()
        .enumerate()
        .flat_map(|(ci, s)| s.subframe.users.iter().map(move |&user| (ci, user)));
    let mut walked = Vec::new();
    // Lazy, so each user's task is on the pool while the walk goes on.
    let tasks = std::iter::from_fn(|| {
        let (ci, user) = users.next()?;
        let cell = &mut cells[ci];
        let config = cell.config;
        let mut rng = cell.rng.clone();
        cell.rng.discard(synthesis_draws(&config, &user, turbo, 1));
        walked.push((ci, cell.rng.clone()));
        Some(move || {
            let input = synthesize_user_with_mode(&config, &user, turbo, DEPLOY_SNR_DB, &mut rng);
            (input, rng)
        })
    });
    let done = d.run_tasks(tasks);
    let mut out: Vec<Vec<UserInput>> = schedules
        .iter()
        .map(|s| Vec::with_capacity(s.subframe.users.len()))
        .collect();
    for ((ci, walked), done) in walked.into_iter().zip(done) {
        let (input, rng) = done.ok_or("a synthesis task was lost")?;
        assert_eq!(rng, walked, "a user's synthesis left its stream offset");
        out[ci].push(input);
    }
    Ok(out)
}

/// Adds `coupling ×` the other cells' radiated fields into every cell's
/// inputs. Each cell lays its inputs out first-fit from subcarrier 0; one
/// pool task per cell builds its [`CellField`] over the widest cell's
/// band, then, once every field exists, one task per cell injects its
/// neighbours' fields — in cell order, so each sample's sum runs in the
/// same order whichever worker runs it.
fn interfere(
    d: &Dispatcher,
    configs: &[CellConfig],
    tick_inputs: Vec<Vec<UserInput>>,
    coupling: f32,
) -> Result<Vec<Vec<UserInput>>, String> {
    let band = tick_inputs
        .iter()
        .map(|inputs| inputs.iter().map(|i| i.config.subcarriers()).sum::<usize>())
        .max()
        .unwrap_or(0);
    if band == 0 {
        return Ok(tick_inputs);
    }
    let radiate = tick_inputs.into_iter().zip(configs).map(|(inputs, cell)| {
        let n_rx = cell.n_rx;
        move || {
            let mut cursor = 0usize;
            let offsets: Vec<usize> = inputs
                .iter()
                .map(|input| {
                    let at = cursor;
                    cursor += input.config.subcarriers();
                    at
                })
                .collect();
            let field = CellField::radiated(&inputs, &offsets, n_rx, band);
            (inputs, offsets, field)
        }
    });
    let mut fields = Vec::with_capacity(configs.len());
    let mut cells = Vec::with_capacity(configs.len());
    for done in d.run_tasks(radiate) {
        let (inputs, offsets, field) = done.ok_or("a field task was lost")?;
        fields.push(field);
        cells.push((inputs, offsets));
    }
    let fields = Arc::new(fields);
    let inject = cells
        .into_iter()
        .enumerate()
        .map(|(ci, (mut inputs, offsets))| {
            let fields = Arc::clone(&fields);
            move || {
                let neighbours: Vec<&CellField> = fields
                    .iter()
                    .enumerate()
                    .filter(|(di, _)| *di != ci)
                    .map(|(_, f)| f)
                    .collect();
                for (input, &offset) in inputs.iter_mut().zip(&offsets) {
                    inject_interference(input, offset, &neighbours, coupling);
                }
                inputs
            }
        });
    d.run_tasks(inject)
        .into_iter()
        .map(|done| done.ok_or_else(|| "an interference task was lost".to_string()))
        .collect()
}

/// Hands one tick of every cell to the pool as one dispatcher row, in
/// `(cell, user)` order, and waits for it.
fn dispatch_tick(
    d: &mut Dispatcher,
    configs: &[CellConfig],
    inputs: &[Vec<Arc<UserInput>>],
) -> Finished {
    d.dispatch(
        configs
            .iter()
            .zip(inputs)
            .flat_map(|(config, inputs)| inputs.iter().map(move |input| (config, input))),
    );
    d.finish().pop().expect("one row per tick")
}

/// A tick's row split back by cell, whatever order the workers finished
/// in. `None` when a decode was lost.
fn harvest_tick(inputs: &[Vec<Arc<UserInput>>], row: Finished) -> Option<Vec<Vec<UserResult>>> {
    let mut results = row.results.into_iter();
    inputs
        .iter()
        .map(|cell| results.by_ref().take(cell.len()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lte_dsp::Modulation;

    #[test]
    fn scheduler_defers_past_the_budget() {
        // A million-UE cell offers factor-1000 load; the grant budget
        // caps the subframe and the rest is deferred.
        let s = schedule_tick(TrafficModel::FullBuffer, 1_000_000, 7, 0);
        assert!(s.subframe.users.len() <= MAX_USERS);
        assert!(s.subframe.total_prbs() <= MAX_PRB);
        assert_eq!(
            s.offered,
            s.deferred + s.subframe.users.len() as u64,
            "every offered grant is scheduled or deferred"
        );
        assert!(s.deferred > 0);
        // The schedule is a pure function of its arguments.
        let again = schedule_tick(TrafficModel::FullBuffer, 1_000_000, 7, 0);
        assert_eq!(s.subframe, again.subframe);
    }

    #[test]
    fn cell_seed_is_identity_keyed() {
        assert_ne!(cell_seed(7, 0), cell_seed(7, 1));
        assert_ne!(cell_seed(7, 0), cell_seed(8, 0));
        assert_eq!(cell_seed(7, 3), cell_seed(7, 3));
    }

    /// A deployment cell's starting state, as `run_deploy` builds it.
    fn cell_state(config: CellConfig, population: usize, seed: u64) -> CellState {
        CellState {
            config,
            population,
            rng: Xoshiro256::seed_from_u64(cell_seed(seed, config.cell_id as u64)),
            hash: Fnv1a::new(),
            offered: 0,
            scheduled: 0,
            deferred: 0,
        }
    }

    #[test]
    fn users_synthesized_on_the_pool_draw_one_stream_in_order() {
        // Every pooled input equals the one drawn by synthesizing the
        // cell's users one after another from the cell's one generator,
        // and the walk ends where that serial draw does.
        let turbo = TurboMode::Passthrough;
        let d = Dispatcher::new(2, turbo, &[]).unwrap();
        let mut cells: Vec<CellState> = (0..2)
            .map(|id| cell_state(CellConfig::with_identity(2, id), 3000, 5))
            .collect();
        let mut streams: Vec<Xoshiro256> = cells.iter().map(|c| c.rng.clone()).collect();
        for tick in 0..2 {
            let schedules: Vec<TickSchedule> = cells
                .iter()
                .map(|c| schedule_tick(TrafficModel::FullBuffer, c.population, 5, tick))
                .collect();
            let pooled = synthesize_tick(&d, &mut cells, &schedules, turbo).unwrap();
            for ((cell, sched), (inputs, rng)) in cells
                .iter()
                .zip(&schedules)
                .zip(pooled.iter().zip(&mut streams))
            {
                let drawn: Vec<UserInput> = sched
                    .subframe
                    .users
                    .iter()
                    .map(|user| synthesize_user_with_mode(&cell.config, user, turbo, 30.0, rng))
                    .collect();
                assert!(!drawn.is_empty());
                assert!(*inputs == drawn, "tick {tick}");
                assert_eq!(cell.rng, *rng, "tick {tick}");
            }
        }
    }

    #[test]
    fn interference_reaches_every_antenna_of_a_four_antenna_cell() {
        // Two 4-antenna cells: every sample of every antenna gains
        // coupling × the other cell's sample at the same band position,
        // and zero past the other cell's last user.
        let configs = [0, 1].map(|id| CellConfig::with_identity(4, id));
        let mut rng = Xoshiro256::seed_from_u64(9);
        let clean: Vec<Vec<UserInput>> = configs
            .iter()
            .zip([[3, 2], [2, 2]])
            .map(|(cell, widths)| {
                widths
                    .iter()
                    .map(|&prbs| {
                        let user = UserConfig::new(prbs, 1, Modulation::Qpsk);
                        let turbo = TurboMode::Passthrough;
                        synthesize_user_with_mode(cell, &user, turbo, 30.0, &mut rng)
                    })
                    .collect()
            })
            .collect();
        let d = Dispatcher::new(2, TurboMode::Passthrough, &[]).unwrap();
        let coupling = 0.25;
        let mixed = interfere(&d, &configs, clean.clone(), coupling).unwrap();
        // Symbol `sym` of a slot: 0 is the reference, 1.. the data.
        let samples = |input: &UserInput, slot: usize, sym: usize, rx: usize| {
            let slot = &input.slots[slot];
            let symbol = if sym == 0 {
                &slot.reference
            } else {
                &slot.data[sym - 1]
            };
            symbol.antenna(rx).to_vec()
        };
        let radiated = |cell: &[UserInput], slot, sym, rx, at: usize| {
            let mut start = 0;
            for input in cell {
                let n_sc = input.config.subcarriers();
                if at < start + n_sc {
                    return samples(input, slot, sym, rx)[at - start];
                }
                start += n_sc;
            }
            Complex32::ZERO
        };
        for c in 0..2 {
            let mut offset = 0;
            for (before, after) in clean[c].iter().zip(&mixed[c]) {
                for slot in 0..SLOTS_PER_SUBFRAME {
                    for sym in 0..=DATA_SYMBOLS_PER_SLOT {
                        for rx in 0..4 {
                            let (x, y) = (
                                samples(before, slot, sym, rx),
                                samples(after, slot, sym, rx),
                            );
                            for (k, (&x, &y)) in x.iter().zip(&y).enumerate() {
                                let other = radiated(&clean[1 - c], slot, sym, rx, offset + k);
                                assert_eq!(
                                    y,
                                    x + other * coupling,
                                    "cell {c} ({slot}, {sym}, {rx}, {k})"
                                );
                            }
                        }
                    }
                }
                offset += before.config.subcarriers();
            }
        }
        let last_antenna = |cells: &[Vec<UserInput>]| samples(&cells[0][0], 1, 3, 3);
        assert_ne!(last_antenna(&clean), last_antenna(&mixed));
    }

    #[test]
    fn ticks_spawn_in_cell_order_and_harvest_by_cell() {
        // Three cells with 2, 0 and 3 users, each user's payload its own:
        // a result matches only the input it was decoded from.
        let configs = [0, 1, 2].map(|id| CellConfig::with_identity(2, id));
        let user = UserConfig::new(2, 1, Modulation::Qpsk);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let inputs: Vec<Vec<Arc<UserInput>>> = configs
            .iter()
            .zip([2, 0, 3])
            .map(|(cell, n)| {
                (0..n)
                    .map(|_| {
                        let turbo = TurboMode::Passthrough;
                        Arc::new(synthesize_user_with_mode(
                            cell, &user, turbo, 30.0, &mut rng,
                        ))
                    })
                    .collect()
            })
            .collect();
        let mut d = Dispatcher::new(2, TurboMode::Passthrough, &[]).unwrap();
        let row = dispatch_tick(&mut d, &configs, &inputs);
        // Slot k of the row is the k-th user spawned: cell by cell, each
        // cell's users in order.
        let spawned = [(0, 0), (0, 1), (2, 0), (2, 1), (2, 2)];
        assert_eq!(row.results.len(), spawned.len());
        for (&(c, u), result) in spawned.iter().zip(&row.results) {
            let result = result.as_ref().expect("nothing lost");
            assert!(
                result.matches(&inputs[c][u].ground_truth),
                "slot of ({c}, {u})"
            );
        }
        let cells = harvest_tick(&inputs, row).expect("nothing lost");
        for (c, (results, inputs)) in cells.iter().zip(&inputs).enumerate() {
            assert_eq!(results.len(), inputs.len());
            for (u, (result, input)) in results.iter().zip(inputs).enumerate() {
                assert!(result.matches(&input.ground_truth), "harvest of ({c}, {u})");
            }
        }
    }
}
