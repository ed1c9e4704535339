//! The evaluation sweep subsystem: run a `(benchmark × device × router ×
//! decomposer × calibration)` grid through the parallel batch compiler
//! and the §2.6 analytic success model, producing the paper's
//! baseline-vs-trios success-probability comparison (Figures 6, 8, 9,
//! and 11) — and its router × decomposer extension — as one
//! machine-checkable [`SweepReport`].
//!
//! A [`SweepSpec`] names the grid; [`run_sweep`] expands it into jobs,
//! executes them over [`Compiler::compile_batch`]
//! with one [`CompilationCache`] across every cell when a job recurs,
//! estimates each compiled program's success probability from its
//! compile's gate counts and Δ (optionally with a crosstalk model),
//! optionally cross-validates the analytic model with a Monte Carlo
//! trajectory simulation on small cells, and collects everything —
//! per-cell [`SweepCell`] breakdowns, trios/baseline ratio rows, and
//! per-router geometric means (the paper's headline ~2× geomean claim) —
//! into a [`SweepReport`].
//!
//! Results are deterministic: cells are keyed and sorted by their grid
//! coordinates, compilation is seeded, and Monte Carlo seeds derive from
//! the sorted cell index, so a sweep's (timing-normalized) report is
//! byte-identical regardless of the worker count.
//!
//! With the `serde` feature the report serializes to the documented JSON
//! schema ([`SweepReport::to_json`]) and parses back
//! ([`SweepReport::from_json`]):
//!
//! ```json
//! {
//!   "benchmarks": ["..."], "devices": ["..."], "routers": ["..."],
//!   "decomposers": ["..."], "calibrations": ["..."], "crosstalk": "ignore",
//!   "seed": 0, "shots": null,
//!   "cells": [ { "benchmark": "...", "device": "...", "router": "...",
//!                "decomposer": "standard",
//!                "calibration": "...", "probability": 0.5, "p_gates": 0.6,
//!                "p_readout": 0.9, "p_coherence": 0.9, "duration_us": 1.0,
//!                "two_qubit_gates": 0, "one_qubit_gates": 0,
//!                "measurements": 0, "swap_count": 0, "depth": 0,
//!                "gates_in": 0, "two_qubit_in": 0, "two_qubit_delta": 0,
//!                "depth_delta": 0, "mean_gather_distance": null,
//!                "compile_time_s": 0.0,
//!                "monte_carlo": { "shots": 100, "mean_fidelity": 1.0,
//!                                 "std_error": 0.0,
//!                                 "error_free_fraction": 1.0,
//!                                 "analytic_error_free": 1.0,
//!                                 "bound_ok": true } } ],
//!   "ratios": [ { "benchmark": "...", "device": "...",
//!                 "calibration": "...", "router": "...",
//!                 "decomposer": "standard",
//!                 "baseline_probability": 0.25, "probability": 0.5,
//!                 "ratio": 2.0 } ],
//!   "geomeans": [ { "router": "trios", "decomposer": "standard",
//!                   "geomean": 2.0, "cells": 8 } ],
//!   "cache_hits": 0, "cache_misses": 0, "wall_time_s": 0.0
//! }
//! ```

use crate::cache::{self, CompilationCache};
use crate::{Compiler, Diagnostic, SchedulePass};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::time::Instant;
use trios_ir::Circuit;
use trios_noise::{
    analytic_error_free_probability, estimate_from_counts, estimate_success_with_crosstalk,
    monte_carlo_fidelity, Calibration, CrosstalkPolicy, MonteCarloOptions,
};
use trios_passes::DecomposerRegistry;
use trios_route::{InitialMapping, StrategyRegistry};
use trios_topology::Topology;

/// Widest compiled circuit the Monte Carlo cross-check simulates; cells on
/// larger devices record no [`SweepMonteCarlo`] (dense trajectory
/// simulation of every shot would dominate the sweep).
pub const MONTE_CARLO_MAX_QUBITS: usize = 8;

/// One benchmark of a sweep: a named circuit, optionally pinned to an
/// explicit initial placement (the single-Toffoli experiments of Figures
/// 6–8 fix their triplet "to force routing to occur").
#[derive(Debug, Clone, PartialEq)]
pub struct SweepBenchmark {
    /// Display name (also the JSON key; must be unique within a spec).
    pub name: String,
    /// The circuit to compile.
    pub circuit: Circuit,
    /// Per-benchmark initial-mapping override; `None` uses the compiler's
    /// default (trivial) placement.
    pub mapping: Option<InitialMapping>,
}

impl SweepBenchmark {
    /// A benchmark compiled exactly as given.
    pub fn new(name: impl Into<String>, circuit: Circuit) -> Self {
        SweepBenchmark {
            name: name.into(),
            circuit,
            mapping: None,
        }
    }

    /// A benchmark with every qubit measured (the paper's benchmark
    /// studies measure all data qubits before estimating success).
    pub fn measured(name: impl Into<String>, circuit: Circuit) -> Self {
        let measured =
            crate::with_measurements(&circuit, &(0..circuit.num_qubits()).collect::<Vec<_>>());
        SweepBenchmark::new(name, measured)
    }

    /// A benchmark pinned to the explicit placement `mapping[l] = p` (the
    /// Figure 6/8 single-Toffoli protocol).
    pub fn pinned(name: impl Into<String>, circuit: Circuit, mapping: Vec<usize>) -> Self {
        SweepBenchmark {
            name: name.into(),
            circuit,
            mapping: Some(InitialMapping::Fixed(mapping)),
        }
    }
}

/// The grid a sweep runs: every benchmark × device × router ×
/// calibration combination becomes one [`SweepCell`].
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// The circuits to compile.
    pub benchmarks: Vec<SweepBenchmark>,
    /// Named devices to compile onto.
    pub devices: Vec<(String, Topology)>,
    /// Routing strategies by registry name (`"baseline"`, `"trios"`, …).
    /// Ratio rows are emitted relative to `"baseline"` when present.
    pub routers: Vec<String>,
    /// Toffoli/CCZ decomposers by registry name (`"standard"`, `"six"`,
    /// `"tdepth"`, …). Cost-model-only strategies (`"qutrit"`) compile
    /// with the standard lowering and re-price each routed trio with
    /// their [`LoweringCost`](trios_passes::LoweringCost).
    pub decomposers: Vec<String>,
    /// Named calibrations to estimate under (calibration does not affect
    /// compilation, so cells differing only here share one compile).
    pub calibrations: Vec<(String, Calibration)>,
    /// How crosstalk enters the success estimates.
    pub crosstalk: CrosstalkPolicy,
    /// Seed for stochastic routing (and the base of Monte Carlo seeds).
    pub seed: u64,
    /// Worker threads for batch compilation; `0` = one per available core.
    /// Results are independent of this knob.
    pub jobs: usize,
    /// Compilation-cache capacity in entries (`0` disables; the cache is
    /// shared across every cell of the sweep, and kept only when a job
    /// recurs; see [`run_sweep`]).
    pub cache_size: usize,
    /// `Some(shots)` runs the Monte Carlo cross-check with that many
    /// trajectories on every cell whose compiled circuit has at most
    /// [`MONTE_CARLO_MAX_QUBITS`] qubits. Must be nonzero.
    pub monte_carlo_shots: Option<usize>,
}

impl SweepSpec {
    /// An empty spec with the default knobs (crosstalk ignored, seed 0,
    /// auto worker count, cache capacity 256, no Monte Carlo).
    pub fn new() -> Self {
        SweepSpec {
            benchmarks: Vec::new(),
            devices: Vec::new(),
            routers: Vec::new(),
            decomposers: vec!["standard".into()],
            calibrations: Vec::new(),
            crosstalk: CrosstalkPolicy::Ignore,
            seed: 0,
            jobs: 0,
            cache_size: 256,
            monte_carlo_shots: None,
        }
    }
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec::new()
    }
}

/// Why a sweep could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// A grid dimension is empty.
    EmptyDimension {
        /// Which dimension (`"benchmarks"`, `"devices"`, …).
        dimension: &'static str,
    },
    /// Two entries of one dimension share a name.
    DuplicateName {
        /// Which dimension.
        dimension: &'static str,
        /// The offending name.
        name: String,
    },
    /// A router name is not in the standard registry.
    UnknownRouter {
        /// The unknown name.
        router: String,
        /// The registered names, comma-separated.
        registered: String,
    },
    /// A decomposer name is not in the standard registry.
    UnknownDecomposer {
        /// The unknown name.
        decomposer: String,
        /// The registered names, comma-separated.
        registered: String,
    },
    /// `monte_carlo_shots == Some(0)`.
    ZeroShots,
    /// A cell failed to compile.
    Compile {
        /// The failing benchmark.
        benchmark: String,
        /// The device it was compiled for.
        device: String,
        /// The router in use.
        router: String,
        /// The underlying diagnostic (boxed: diagnostics are large and
        /// the happy path should not pay for them).
        diagnostic: Box<Diagnostic>,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::EmptyDimension { dimension } => {
                write!(f, "sweep needs at least one entry in '{dimension}'")
            }
            SweepError::DuplicateName { dimension, name } => {
                write!(f, "duplicate {dimension} name '{name}' in sweep spec")
            }
            SweepError::UnknownRouter { router, registered } => {
                write!(f, "unknown router '{router}' (registered: {registered})")
            }
            SweepError::UnknownDecomposer {
                decomposer,
                registered,
            } => {
                write!(
                    f,
                    "unknown decomposer '{decomposer}' (registered: {registered})"
                )
            }
            SweepError::ZeroShots => {
                write!(f, "monte_carlo_shots must be nonzero when set")
            }
            SweepError::Compile {
                benchmark,
                device,
                router,
                diagnostic,
            } => write!(
                f,
                "compiling '{benchmark}' for '{device}' with router '{router}' failed: {diagnostic}"
            ),
        }
    }
}

impl Error for SweepError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SweepError::Compile { diagnostic, .. } => Some(diagnostic.as_ref()),
            _ => None,
        }
    }
}

/// The Monte Carlo cross-check of one cell: trajectory statistics next to
/// the analytic error-free product they validate.
///
/// The validated quantity is [`analytic_error_free_probability`] — the
/// exact probability that a trajectory injects no error, under the same
/// per-gate and **per-qubit** decoherence channels the sampler uses.
/// Error-free trajectories replay the ideal circuit (fidelity 1), so mean
/// fidelity upper-bounds this product up to binomial sampling error; that
/// is the invariant [`SweepMonteCarlo::bound_ok`] records. The §2.6
/// whole-program product `p_gates · p_coherence` sits on the cell itself
/// and is looser in the gate-error-dominated regime but, charging
/// decoherence once rather than per qubit, can exceed the measured
/// fidelity on wide idle-heavy cells — which is exactly the model
/// approximation the cross-check makes visible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepMonteCarlo {
    /// Trajectories sampled.
    pub shots: usize,
    /// Mean fidelity with the noiseless output.
    pub mean_fidelity: f64,
    /// Standard error of the mean fidelity.
    pub std_error: f64,
    /// Fraction of trajectories with no injected error — an unbiased
    /// estimator of [`SweepMonteCarlo::analytic_error_free`], and an exact
    /// lower bound on [`SweepMonteCarlo::mean_fidelity`].
    pub error_free_fraction: f64,
    /// The exact per-channel no-error probability of one trajectory.
    pub analytic_error_free: f64,
    /// `mean_fidelity + 4·σ_binomial ≥ analytic_error_free` with
    /// `σ_binomial = sqrt(p(1−p)/shots)` — the cross-check the sweep
    /// asserts.
    pub bound_ok: bool,
}

/// One cell of the sweep grid: a benchmark compiled for a device with a
/// router, estimated under a calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Benchmark name.
    pub benchmark: String,
    /// Device name.
    pub device: String,
    /// Router registry name.
    pub router: String,
    /// Decomposer registry name. Cost-model-only strategies carry
    /// re-priced gate counts and `p_gates` (see [`SweepSpec::decomposers`]).
    pub decomposer: String,
    /// Calibration name.
    pub calibration: String,
    /// Overall success probability (the §2.6 product, with the spec's
    /// crosstalk policy applied).
    pub probability: f64,
    /// Probability that no gate error occurs.
    pub p_gates: f64,
    /// Probability that no readout error occurs.
    pub p_readout: f64,
    /// Probability that no decoherence occurs.
    pub p_coherence: f64,
    /// Scheduled program duration Δ (µs).
    pub duration_us: f64,
    /// Two-qubit gates in the compiled circuit (the paper's primary
    /// static metric).
    pub two_qubit_gates: usize,
    /// One-qubit gates in the compiled circuit.
    pub one_qubit_gates: usize,
    /// Measurements in the compiled circuit.
    pub measurements: usize,
    /// SWAPs the router inserted.
    pub swap_count: usize,
    /// Compiled circuit depth.
    pub depth: usize,
    /// Total instructions entering compilation.
    pub gates_in: usize,
    /// Two-qubit gates entering compilation.
    pub two_qubit_in: usize,
    /// Two-qubit delta across compilation (output − input).
    pub two_qubit_delta: isize,
    /// Depth delta across compilation (output − input).
    pub depth_delta: isize,
    /// Mean gather distance over routed trios (`None` when the router
    /// recorded no trio events).
    pub mean_gather_distance: Option<f64>,
    /// Wall-clock compile time of this cell's (possibly cached)
    /// compilation. Zeroed by [`SweepReport::normalized`].
    pub compile_time_s: f64,
    /// The Monte Carlo cross-check, when requested and the cell is small
    /// enough to simulate.
    pub monte_carlo: Option<SweepMonteCarlo>,
}

/// One row of the success-ratio table: a non-baseline router's probability
/// relative to `"baseline"` on the same benchmark × device × calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Device name.
    pub device: String,
    /// Calibration name.
    pub calibration: String,
    /// The non-baseline router.
    pub router: String,
    /// The decomposer both cells of the ratio share.
    pub decomposer: String,
    /// The baseline cell's success probability.
    pub baseline_probability: f64,
    /// This router's success probability.
    pub probability: f64,
    /// `probability / baseline_probability` — the paper's normalized
    /// success metric (Figures 8 and 11).
    pub ratio: f64,
}

/// The geometric-mean success ratio of one router × decomposer grid cell
/// over its ratio rows.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterGeomean {
    /// The router.
    pub router: String,
    /// The decomposer.
    pub decomposer: String,
    /// Geometric mean of its trios/baseline ratios.
    pub geomean: f64,
    /// How many ratio rows contributed.
    pub cells: usize,
}

/// Everything a sweep produced. See the module docs for the JSON schema.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Benchmark names, in spec order.
    pub benchmarks: Vec<String>,
    /// Device names, in spec order.
    pub devices: Vec<String>,
    /// Router names, in spec order.
    pub routers: Vec<String>,
    /// Decomposer names, in spec order.
    pub decomposers: Vec<String>,
    /// Calibration names, in spec order.
    pub calibrations: Vec<String>,
    /// The crosstalk policy, rendered (`"ignore"`, `"charge:<p>"`,
    /// `"avoid"`).
    pub crosstalk: String,
    /// The routing seed.
    pub seed: u64,
    /// Monte Carlo shots per eligible cell, when requested.
    pub shots: Option<usize>,
    /// Every grid cell, sorted by (benchmark, device, router,
    /// calibration) spec order.
    pub cells: Vec<SweepCell>,
    /// Success ratios of every non-baseline router against `"baseline"`
    /// (empty when the spec has no baseline router).
    pub ratios: Vec<RatioRow>,
    /// Per-router geometric means over [`SweepReport::ratios`].
    pub geomeans: Vec<RouterGeomean>,
    /// Compilations answered by the shared cache.
    pub cache_hits: u64,
    /// Compilations performed from scratch.
    pub cache_misses: u64,
    /// End-to-end sweep wall time. Zeroed by [`SweepReport::normalized`].
    pub wall_time_s: f64,
}

impl SweepReport {
    /// The first geometric-mean success ratio recorded for `router`
    /// (its first decomposer in spec order), if any.
    pub fn geomean_for(&self, router: &str) -> Option<f64> {
        self.geomeans
            .iter()
            .find(|g| g.router == router)
            .map(|g| g.geomean)
    }

    /// The geometric-mean success ratio of one router × decomposer grid
    /// cell, if any.
    pub fn geomean_for_grid(&self, router: &str, decomposer: &str) -> Option<f64> {
        self.geomeans
            .iter()
            .find(|g| g.router == router && g.decomposer == decomposer)
            .map(|g| g.geomean)
    }

    /// The cell at the given grid coordinates, if present.
    pub fn cell(
        &self,
        benchmark: &str,
        device: &str,
        router: &str,
        decomposer: &str,
        calibration: &str,
    ) -> Option<&SweepCell> {
        self.cells.iter().find(|c| {
            c.benchmark == benchmark
                && c.device == device
                && c.router == router
                && c.decomposer == decomposer
                && c.calibration == calibration
        })
    }

    /// A copy with every timing zeroed (`wall_time_s` and each cell's
    /// `compile_time_s`). Everything else a sweep reports is
    /// deterministic, so two normalized reports of the same spec are
    /// equal — and serialize to byte-identical JSON — regardless of the
    /// worker count.
    pub fn normalized(&self) -> SweepReport {
        let mut report = self.clone();
        report.wall_time_s = 0.0;
        for cell in &mut report.cells {
            cell.compile_time_s = 0.0;
        }
        report
    }

    /// The human-readable summary: the per-cell table, the ratio table,
    /// and the per-router geomeans.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sweep: {} benchmarks x {} devices x {} routers x {} decomposers x {} calibrations = {} cells",
            self.benchmarks.len(),
            self.devices.len(),
            self.routers.len(),
            self.decomposers.len(),
            self.calibrations.len(),
            self.cells.len(),
        );
        let _ = writeln!(
            out,
            "cache: {} hits / {} misses | seed {} | crosstalk {} | wall {:.2}s",
            self.cache_hits, self.cache_misses, self.seed, self.crosstalk, self.wall_time_s
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<28} {:<14} {:<16} {:<14} {:<8} {:>10} {:>6} {:>6} {:>6} {:>9} {:>7}",
            "benchmark",
            "device",
            "router",
            "decomposer",
            "cal",
            "P",
            "2q",
            "swaps",
            "depth",
            "Δµs",
            "gather"
        );
        for cell in &self.cells {
            let gather = match cell.mean_gather_distance {
                Some(g) => format!("{g:.2}"),
                None => "-".into(),
            };
            let _ = writeln!(
                out,
                "{:<28} {:<14} {:<16} {:<14} {:<8} {:>10.3e} {:>6} {:>6} {:>6} {:>9.2} {:>7}",
                cell.benchmark,
                cell.device,
                cell.router,
                cell.decomposer,
                cell.calibration,
                cell.probability,
                cell.two_qubit_gates,
                cell.swap_count,
                cell.depth,
                cell.duration_us,
                gather,
            );
            if let Some(mc) = &cell.monte_carlo {
                let _ = writeln!(
                    out,
                    "{:<28} monte carlo: fidelity {:.4} ± {:.4} (error-free {:.4}, analytic {:.4}, bound {})",
                    "",
                    mc.mean_fidelity,
                    mc.std_error,
                    mc.error_free_fraction,
                    mc.analytic_error_free,
                    if mc.bound_ok { "ok" } else { "VIOLATED" },
                );
            }
        }
        if !self.ratios.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "success-probability ratios vs baseline:");
            let _ = writeln!(
                out,
                "{:<28} {:<14} {:<8} {:<16} {:<14} {:>8}",
                "benchmark", "device", "cal", "router", "decomposer", "ratio"
            );
            for row in &self.ratios {
                let _ = writeln!(
                    out,
                    "{:<28} {:<14} {:<8} {:<16} {:<14} {:>7.2}x",
                    row.benchmark,
                    row.device,
                    row.calibration,
                    row.router,
                    row.decomposer,
                    row.ratio
                );
            }
        }
        for g in &self.geomeans {
            let _ = writeln!(
                out,
                "geomean({} x {} / baseline) = {:.2}x over {} cells",
                g.router, g.decomposer, g.geomean, g.cells
            );
        }
        out
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary_table())
    }
}

/// Renders a [`CrosstalkPolicy`] as the stable string the report carries.
fn crosstalk_label(policy: CrosstalkPolicy) -> String {
    match policy {
        CrosstalkPolicy::Ignore => "ignore".into(),
        CrosstalkPolicy::Charge { error_per_conflict } => format!("charge:{error_per_conflict}"),
        CrosstalkPolicy::Avoid => "avoid".into(),
    }
}

fn validate(spec: &SweepSpec) -> Result<(), SweepError> {
    for (dimension, names) in [
        (
            "benchmarks",
            spec.benchmarks
                .iter()
                .map(|b| b.name.clone())
                .collect::<Vec<_>>(),
        ),
        (
            "devices",
            spec.devices.iter().map(|(n, _)| n.clone()).collect(),
        ),
        ("routers", spec.routers.clone()),
        ("decomposers", spec.decomposers.clone()),
        (
            "calibrations",
            spec.calibrations.iter().map(|(n, _)| n.clone()).collect(),
        ),
    ] {
        if names.is_empty() {
            return Err(SweepError::EmptyDimension { dimension });
        }
        for (i, name) in names.iter().enumerate() {
            if names[..i].contains(name) {
                return Err(SweepError::DuplicateName {
                    dimension,
                    name: name.clone(),
                });
            }
        }
    }
    let registry = StrategyRegistry::standard();
    for router in &spec.routers {
        if !registry.contains(router) {
            return Err(SweepError::UnknownRouter {
                router: router.clone(),
                registered: registry.names().collect::<Vec<_>>().join(", "),
            });
        }
    }
    let decomposers = DecomposerRegistry::standard();
    for decomposer in &spec.decomposers {
        if !decomposers.contains(decomposer) {
            return Err(SweepError::UnknownDecomposer {
                decomposer: decomposer.clone(),
                registered: decomposers.names().collect::<Vec<_>>().join(", "),
            });
        }
    }
    if spec.monte_carlo_shots == Some(0) {
        return Err(SweepError::ZeroShots);
    }
    Ok(())
}

/// Re-prices a cost-model-only cell: each of its `trios` routed trios
/// swaps the standard lowering's [`LoweringCost`] for the strategy's own
/// (first-order, per Gokhale et al.'s qutrit analysis — the gathered trio
/// executes as native multi-valued gates instead of a CNOT network).
/// Gate counts shift by the per-trio delta, and `p_gates` — a product of
/// per-gate success factors, so log-linear in the gate count — is
/// rescaled by the same cost-weighted exponent (one-qubit gates weighted
/// 1/10 of a two-qubit gate, the usual error-rate ratio).
fn reprice_cell(
    cell: &mut SweepCell,
    trios: usize,
    cost: trios_passes::LoweringCost,
    standard_cost: trios_passes::LoweringCost,
) {
    let trios = trios as f64;
    let two_adj = (cell.two_qubit_gates as f64 + trios * (cost.two_qubit - standard_cost.two_qubit))
        .round()
        .max(0.0) as usize;
    let one_adj = (cell.one_qubit_gates as f64 + trios * (cost.one_qubit - standard_cost.one_qubit))
        .round()
        .max(0.0) as usize;
    let weight = |two: usize, one: usize| two as f64 + one as f64 / 10.0;
    let before = weight(cell.two_qubit_gates, cell.one_qubit_gates);
    let after = weight(two_adj, one_adj);
    if before > 0.0 && cell.p_gates > 0.0 {
        let p_gates_adj = cell.p_gates.powf(after / before);
        // probability may carry readout/coherence/crosstalk factors;
        // scale only its gate component.
        cell.probability *= p_gates_adj / cell.p_gates;
        cell.p_gates = p_gates_adj;
    }
    cell.two_qubit_gates = two_adj;
    cell.one_qubit_gates = one_adj;
    cell.two_qubit_delta = two_adj as isize - cell.two_qubit_in as isize;
}

/// One batch call of a sweep, made on every device: the benchmarks of one
/// mapping group, compiled with one router and one decomposer.
struct Batch {
    /// Index into [`SweepSpec::routers`].
    router: usize,
    /// Index into [`SweepSpec::decomposers`].
    decomposer: usize,
    /// Index into the sweep's mapping groups.
    group: usize,
    /// `false` for a cost-model-only decomposer, whose cells compile with
    /// the standard lowering and are re-priced afterwards.
    executable: bool,
    /// The decomposer's per-trio cost.
    cost: trios_passes::LoweringCost,
    compiler: Compiler,
}

/// `true` if some job of the sweep has the cache key of an earlier one,
/// so that a [`CompilationCache`] could answer it. A key hashes the
/// circuit, the topology and the compiler's options, the router among
/// them; each circuit and each batch's options are hashed once, and the
/// hashes combine as [`CompilationCache::key`] combines them.
fn some_job_recurs(spec: &SweepSpec, batches: &[Batch], groups: &[Vec<usize>]) -> bool {
    let circuits: Vec<u64> = spec
        .benchmarks
        .iter()
        .map(|bench| bench.circuit.structural_hash())
        .collect();
    let options: Vec<u64> = batches
        .iter()
        .map(|batch| cache::options_hash(batch.compiler.options()))
        .collect();
    let mut seen = HashSet::new();
    for (_, topology) in &spec.devices {
        let device = topology.structural_hash();
        for (batch, &options) in batches.iter().zip(&options) {
            for &bi in &groups[batch.group] {
                if !seen.insert(cache::combine_key(circuits[bi], device, options)) {
                    return true;
                }
            }
        }
    }
    false
}

/// The benchmark indices of each mapping group — benchmarks sharing a
/// mapping override share one compiler, and therefore one batch call —
/// and the batches of one device, in run order.
fn plan_batches(spec: &SweepSpec, registry: &DecomposerRegistry) -> (Vec<Vec<usize>>, Vec<Batch>) {
    let mut mappings: Vec<Option<InitialMapping>> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (bi, bench) in spec.benchmarks.iter().enumerate() {
        match mappings.iter().position(|m| *m == bench.mapping) {
            Some(gi) => groups[gi].push(bi),
            None => {
                mappings.push(bench.mapping.clone());
                groups.push(vec![bi]);
            }
        }
    }
    let mut batches = Vec::new();
    for (ri, router) in spec.routers.iter().enumerate() {
        for (xi, decomposer_name) in spec.decomposers.iter().enumerate() {
            let strategy = registry
                .get(decomposer_name)
                .expect("decomposer names are validated");
            let executable = strategy.executable();
            // Cost-model-only strategies (qutrit) compile with the
            // standard lowering — routing, swaps, and scheduling stay
            // realistic — and re-price the trios afterwards.
            let compiled_decomposer = if executable {
                decomposer_name.as_str()
            } else {
                "standard"
            };
            for (gi, mapping) in mappings.iter().enumerate() {
                let mut builder = Compiler::builder()
                    .router(router.clone())
                    .decomposer(compiled_decomposer)
                    .seed(spec.seed);
                if let Some(mapping) = mapping {
                    builder = builder.mapping(mapping.clone());
                }
                batches.push(Batch {
                    router: ri,
                    decomposer: xi,
                    group: gi,
                    executable,
                    cost: strategy.trio_cost(),
                    compiler: builder.build(),
                });
            }
        }
    }
    (groups, batches)
}

/// Runs the sweep described by `spec`.
///
/// The benchmarks sharing a mapping override are compiled as one batch
/// over the parallel batch compiler, once per device, router and
/// decomposer. When some job recurs — a cost-model-only decomposer's
/// cell, which compiles with the standard lowering, one circuit under two
/// benchmark names, or one topology under two device names — one
/// [`CompilationCache`] of capacity [`SweepSpec::cache_size`] is shared
/// across the cells of this call, so that job compiles once, and the
/// report's hit and miss counts are the same at every [`SweepSpec::jobs`]
/// (a repeat inside one batch waits until the first has inserted; see
/// [`Compiler::compile_batch`]). A sweep in
/// which no job recurs, such as the paper's grid, keeps no cache and so
/// no copy of its compiled programs. The cache is dropped when the call
/// returns: running the same spec again compiles everything again.
///
/// Calibration never affects compilation, so each compiled program is
/// estimated under every calibration without recompiling. Under
/// [`CrosstalkPolicy::Ignore`] with the gate durations the schedule pass
/// uses ([`SchedulePass::DURATIONS`]), it is also estimated without
/// rescanning: its gate counts come from its compile's last pass record
/// and its Δ is [`CompileStats::duration_us`](crate::CompileStats::duration_us).
/// Any other calibration or policy estimates the compiled circuit.
///
/// # Errors
///
/// Returns a [`SweepError`] for malformed specs (empty dimensions,
/// duplicate or unknown names, zero Monte Carlo shots) or for the first
/// cell whose compilation fails.
pub fn run_sweep(spec: &SweepSpec) -> Result<SweepReport, SweepError> {
    validate(spec)?;
    let started = Instant::now();
    let jobs = if spec.jobs > 0 {
        spec.jobs
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    let (mut cache_hits, mut cache_misses) = (0u64, 0u64);

    // Collect (sort key, cell, compiled circuit, calibration) so the
    // Monte Carlo pass can run over the canonically ordered cells. The
    // circuit is cloned into a cell only when that pass will actually
    // simulate it.
    type Keyed = (
        (usize, usize, usize, usize, usize),
        SweepCell,
        Option<Circuit>,
        Calibration,
    );
    let mut keyed: Vec<Keyed> = Vec::new();

    let decomposer_registry = DecomposerRegistry::standard();
    let standard_cost = decomposer_registry
        .get("standard")
        .expect("standard decomposer is registered")
        .trio_cost();

    let (groups, batches) = plan_batches(spec, &decomposer_registry);
    let group_circuits: Vec<Vec<Circuit>> = groups
        .iter()
        .map(|indices| {
            indices
                .iter()
                .map(|&bi| spec.benchmarks[bi].circuit.clone())
                .collect()
        })
        .collect();
    let cache = (spec.cache_size > 0 && some_job_recurs(spec, &batches, &groups))
        .then(|| CompilationCache::new(spec.cache_size));

    for (di, (device_name, topology)) in spec.devices.iter().enumerate() {
        for batch in &batches {
            let router = &spec.routers[batch.router];
            let indices = &groups[batch.group];
            let outcome = batch
                .compiler
                .compile_batch(&group_circuits[batch.group], topology, jobs, cache.as_ref())
                .map_err(|e| SweepError::Compile {
                    benchmark: spec.benchmarks[indices[e.index]].name.clone(),
                    device: device_name.clone(),
                    router: router.clone(),
                    diagnostic: Box::new(e.diagnostic),
                })?;
            cache_hits += outcome.report.cache_hits;
            cache_misses += outcome.report.cache_misses;
            for (&bi, (program, report)) in indices.iter().zip(&outcome.results) {
                let bench = &spec.benchmarks[bi];
                let (gates_in, two_qubit_in, three_qubit_in, depth_in) = report
                    .passes
                    .first()
                    .map(|p| {
                        (
                            p.gates_before.total,
                            p.gates_before.two_qubit,
                            p.gates_before.three_qubit,
                            p.depth_before,
                        )
                    })
                    .unwrap_or_default();
                // The last pass record counted the compiled circuit.
                let counts = report
                    .passes
                    .last()
                    .map_or_else(|| program.circuit.counts(), |p| p.gates_after);
                for (ci, (cal_name, calibration)) in spec.calibrations.iter().enumerate() {
                    // Every compile is scheduled under
                    // `SchedulePass::DURATIONS`, so `duration_us` is the
                    // program's ASAP Δ under that table.
                    let estimate = if spec.crosstalk == CrosstalkPolicy::Ignore
                        && calibration.durations == SchedulePass::DURATIONS
                    {
                        estimate_from_counts(&counts, program.stats.duration_us, calibration)
                    } else {
                        estimate_success_with_crosstalk(
                            &program.circuit,
                            calibration,
                            topology,
                            spec.crosstalk,
                        )
                    };
                    let mut cell = SweepCell {
                        benchmark: bench.name.clone(),
                        device: device_name.clone(),
                        router: router.clone(),
                        decomposer: spec.decomposers[batch.decomposer].clone(),
                        calibration: cal_name.clone(),
                        probability: estimate.probability(),
                        p_gates: estimate.p_gates,
                        p_readout: estimate.p_readout,
                        p_coherence: estimate.p_coherence,
                        duration_us: estimate.duration_us,
                        two_qubit_gates: program.stats.two_qubit_gates,
                        one_qubit_gates: program.stats.one_qubit_gates,
                        measurements: program.stats.measurements,
                        swap_count: program.stats.swap_count,
                        depth: program.stats.depth,
                        gates_in,
                        two_qubit_in,
                        two_qubit_delta: program.stats.two_qubit_gates as isize
                            - two_qubit_in as isize,
                        depth_delta: program.stats.depth as isize - depth_in as isize,
                        mean_gather_distance: program.stats.mean_gather_distance,
                        compile_time_s: report.total_time.as_secs_f64(),
                        monte_carlo: None,
                    };
                    if !batch.executable {
                        reprice_cell(&mut cell, three_qubit_in, batch.cost, standard_cost);
                    }
                    // Cost-model cells carry re-priced numbers the
                    // compiled circuit does not match, so they are
                    // never cross-checked by simulation.
                    let simulable = batch.executable
                        && spec.monte_carlo_shots.is_some()
                        && program.circuit.num_qubits() <= MONTE_CARLO_MAX_QUBITS;
                    keyed.push((
                        (bi, di, batch.router, batch.decomposer, ci),
                        cell,
                        simulable.then(|| program.circuit.clone()),
                        *calibration,
                    ));
                }
            }
        }
    }

    keyed.sort_by_key(|k| k.0);

    // Monte Carlo cross-check, seeded from the canonical cell index so
    // results do not depend on worker scheduling.
    if let Some(shots) = spec.monte_carlo_shots {
        for (index, (_, cell, circuit, calibration)) in keyed.iter_mut().enumerate() {
            let Some(circuit) = circuit else {
                continue;
            };
            let options = MonteCarloOptions {
                shots,
                seed: spec.seed.wrapping_add(index as u64),
                gate_errors: true,
                decoherence: true,
            };
            let mc = monte_carlo_fidelity(circuit, calibration, options)
                .expect("cell fits the dense simulator and shots > 0");
            let analytic_error_free =
                analytic_error_free_probability(circuit, calibration, options);
            // Error-free shots have fidelity 1, so mean fidelity bounds
            // the error-free probability up to its binomial sampling
            // error.
            let sigma = (analytic_error_free * (1.0 - analytic_error_free) / shots as f64).sqrt();
            cell.monte_carlo = Some(SweepMonteCarlo {
                shots,
                mean_fidelity: mc.mean_fidelity,
                std_error: mc.std_error,
                error_free_fraction: mc.error_free_fraction(),
                analytic_error_free,
                bound_ok: mc.mean_fidelity + 4.0 * sigma + 1e-9 >= analytic_error_free,
            });
        }
    }

    let cells: Vec<SweepCell> = keyed.into_iter().map(|(_, cell, _, _)| cell).collect();

    // Ratio rows: every non-baseline router against "baseline" under the
    // same decomposer, per (benchmark, device, calibration).
    let mut ratios = Vec::new();
    if spec.routers.iter().any(|r| r == "baseline") {
        for cell in &cells {
            if cell.router == "baseline" {
                continue;
            }
            let base = cells.iter().find(|c| {
                c.router == "baseline"
                    && c.decomposer == cell.decomposer
                    && c.benchmark == cell.benchmark
                    && c.device == cell.device
                    && c.calibration == cell.calibration
            });
            if let Some(base) = base {
                if base.probability > 0.0 {
                    ratios.push(RatioRow {
                        benchmark: cell.benchmark.clone(),
                        device: cell.device.clone(),
                        calibration: cell.calibration.clone(),
                        router: cell.router.clone(),
                        decomposer: cell.decomposer.clone(),
                        baseline_probability: base.probability,
                        probability: cell.probability,
                        ratio: cell.probability / base.probability,
                    });
                }
            }
        }
    }

    // One geomean per (router × decomposer) grid cell — the sweep's
    // router-cooperation headline.
    let mut geomeans = Vec::new();
    for router in &spec.routers {
        if router == "baseline" {
            continue;
        }
        for decomposer in &spec.decomposers {
            let values: Vec<f64> = ratios
                .iter()
                .filter(|r| &r.router == router && &r.decomposer == decomposer && r.ratio > 0.0)
                .map(|r| r.ratio)
                .collect();
            if !values.is_empty() {
                let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
                geomeans.push(RouterGeomean {
                    router: router.clone(),
                    decomposer: decomposer.clone(),
                    geomean: (log_sum / values.len() as f64).exp(),
                    cells: values.len(),
                });
            }
        }
    }

    Ok(SweepReport {
        benchmarks: spec.benchmarks.iter().map(|b| b.name.clone()).collect(),
        devices: spec.devices.iter().map(|(n, _)| n.clone()).collect(),
        routers: spec.routers.clone(),
        decomposers: spec.decomposers.clone(),
        calibrations: spec.calibrations.iter().map(|(n, _)| n.clone()).collect(),
        crosstalk: crosstalk_label(spec.crosstalk),
        seed: spec.seed,
        shots: spec.monte_carlo_shots,
        cells,
        ratios,
        geomeans,
        cache_hits,
        cache_misses,
        wall_time_s: started.elapsed().as_secs_f64(),
    })
}

#[cfg(feature = "serde")]
mod serde_impls {
    use super::{RatioRow, RouterGeomean, SweepCell, SweepMonteCarlo, SweepReport};
    use serde::{Serialize, SerializeStruct, Serializer};

    impl Serialize for SweepMonteCarlo {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            let mut s = serializer.serialize_struct("SweepMonteCarlo", 6)?;
            s.serialize_field("shots", &self.shots)?;
            s.serialize_field("mean_fidelity", &self.mean_fidelity)?;
            s.serialize_field("std_error", &self.std_error)?;
            s.serialize_field("error_free_fraction", &self.error_free_fraction)?;
            s.serialize_field("analytic_error_free", &self.analytic_error_free)?;
            s.serialize_field("bound_ok", &self.bound_ok)?;
            s.end()
        }
    }

    impl Serialize for SweepCell {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            let mut s = serializer.serialize_struct("SweepCell", 22)?;
            s.serialize_field("benchmark", &self.benchmark)?;
            s.serialize_field("device", &self.device)?;
            s.serialize_field("router", &self.router)?;
            s.serialize_field("decomposer", &self.decomposer)?;
            s.serialize_field("calibration", &self.calibration)?;
            s.serialize_field("probability", &self.probability)?;
            s.serialize_field("p_gates", &self.p_gates)?;
            s.serialize_field("p_readout", &self.p_readout)?;
            s.serialize_field("p_coherence", &self.p_coherence)?;
            s.serialize_field("duration_us", &self.duration_us)?;
            s.serialize_field("two_qubit_gates", &self.two_qubit_gates)?;
            s.serialize_field("one_qubit_gates", &self.one_qubit_gates)?;
            s.serialize_field("measurements", &self.measurements)?;
            s.serialize_field("swap_count", &self.swap_count)?;
            s.serialize_field("depth", &self.depth)?;
            s.serialize_field("gates_in", &self.gates_in)?;
            s.serialize_field("two_qubit_in", &self.two_qubit_in)?;
            s.serialize_field("two_qubit_delta", &(self.two_qubit_delta as i64))?;
            s.serialize_field("depth_delta", &(self.depth_delta as i64))?;
            s.serialize_field("mean_gather_distance", &self.mean_gather_distance)?;
            s.serialize_field("compile_time_s", &self.compile_time_s)?;
            s.serialize_field("monte_carlo", &self.monte_carlo)?;
            s.end()
        }
    }

    impl Serialize for RatioRow {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            let mut s = serializer.serialize_struct("RatioRow", 8)?;
            s.serialize_field("benchmark", &self.benchmark)?;
            s.serialize_field("device", &self.device)?;
            s.serialize_field("calibration", &self.calibration)?;
            s.serialize_field("router", &self.router)?;
            s.serialize_field("decomposer", &self.decomposer)?;
            s.serialize_field("baseline_probability", &self.baseline_probability)?;
            s.serialize_field("probability", &self.probability)?;
            s.serialize_field("ratio", &self.ratio)?;
            s.end()
        }
    }

    impl Serialize for RouterGeomean {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            let mut s = serializer.serialize_struct("RouterGeomean", 4)?;
            s.serialize_field("router", &self.router)?;
            s.serialize_field("decomposer", &self.decomposer)?;
            s.serialize_field("geomean", &self.geomean)?;
            s.serialize_field("cells", &self.cells)?;
            s.end()
        }
    }

    impl Serialize for SweepReport {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            let mut s = serializer.serialize_struct("SweepReport", 14)?;
            s.serialize_field("benchmarks", &self.benchmarks)?;
            s.serialize_field("devices", &self.devices)?;
            s.serialize_field("routers", &self.routers)?;
            s.serialize_field("decomposers", &self.decomposers)?;
            s.serialize_field("calibrations", &self.calibrations)?;
            s.serialize_field("crosstalk", &self.crosstalk)?;
            s.serialize_field("seed", &self.seed)?;
            s.serialize_field("shots", &self.shots)?;
            s.serialize_field("cells", &self.cells)?;
            s.serialize_field("ratios", &self.ratios)?;
            s.serialize_field("geomeans", &self.geomeans)?;
            s.serialize_field("cache_hits", &self.cache_hits)?;
            s.serialize_field("cache_misses", &self.cache_misses)?;
            s.serialize_field("wall_time_s", &self.wall_time_s)?;
            s.end()
        }
    }
}

#[cfg(feature = "serde")]
mod json_io {
    use super::{RatioRow, RouterGeomean, SweepCell, SweepMonteCarlo, SweepReport};
    use serde_json::Value;

    impl SweepReport {
        /// Serializes the report to compact JSON (see the module docs for
        /// the schema).
        pub fn to_json(&self) -> String {
            serde_json::to_string(self).expect("sweep reports contain only finite numbers")
        }

        /// Serializes the report to indented JSON.
        pub fn to_json_pretty(&self) -> String {
            serde_json::to_string_pretty(self).expect("sweep reports contain only finite numbers")
        }

        /// Parses a report back from its JSON form.
        ///
        /// # Errors
        ///
        /// Returns a description of the first syntax or schema problem.
        pub fn from_json(text: &str) -> Result<SweepReport, String> {
            let value = serde_json::from_str(text).map_err(|e| e.to_string())?;
            report_from_value(&value)
        }
    }

    fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
        value
            .get(key)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    fn string_field(value: &Value, key: &str) -> Result<String, String> {
        field(value, key)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("field '{key}' must be a string"))
    }

    fn f64_field(value: &Value, key: &str) -> Result<f64, String> {
        field(value, key)?
            .as_f64()
            .ok_or_else(|| format!("field '{key}' must be a number"))
    }

    fn usize_field(value: &Value, key: &str) -> Result<usize, String> {
        field(value, key)?
            .as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| format!("field '{key}' must be a non-negative integer"))
    }

    fn isize_field(value: &Value, key: &str) -> Result<isize, String> {
        field(value, key)?
            .as_i64()
            .map(|n| n as isize)
            .ok_or_else(|| format!("field '{key}' must be an integer"))
    }

    fn bool_field(value: &Value, key: &str) -> Result<bool, String> {
        field(value, key)?
            .as_bool()
            .ok_or_else(|| format!("field '{key}' must be a boolean"))
    }

    fn string_array(value: &Value, key: &str) -> Result<Vec<String>, String> {
        field(value, key)?
            .as_array()
            .ok_or_else(|| format!("field '{key}' must be an array"))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("field '{key}' must contain strings"))
            })
            .collect()
    }

    fn monte_carlo_from_value(value: &Value) -> Result<SweepMonteCarlo, String> {
        Ok(SweepMonteCarlo {
            shots: usize_field(value, "shots")?,
            mean_fidelity: f64_field(value, "mean_fidelity")?,
            std_error: f64_field(value, "std_error")?,
            error_free_fraction: f64_field(value, "error_free_fraction")?,
            analytic_error_free: f64_field(value, "analytic_error_free")?,
            bound_ok: bool_field(value, "bound_ok")?,
        })
    }

    fn cell_from_value(value: &Value) -> Result<SweepCell, String> {
        let gather = field(value, "mean_gather_distance")?;
        let mean_gather_distance = if gather.is_null() {
            None
        } else {
            Some(
                gather
                    .as_f64()
                    .ok_or("field 'mean_gather_distance' must be a number or null")?,
            )
        };
        let mc = field(value, "monte_carlo")?;
        let monte_carlo = if mc.is_null() {
            None
        } else {
            Some(monte_carlo_from_value(mc)?)
        };
        Ok(SweepCell {
            benchmark: string_field(value, "benchmark")?,
            device: string_field(value, "device")?,
            router: string_field(value, "router")?,
            decomposer: string_field(value, "decomposer")?,
            calibration: string_field(value, "calibration")?,
            probability: f64_field(value, "probability")?,
            p_gates: f64_field(value, "p_gates")?,
            p_readout: f64_field(value, "p_readout")?,
            p_coherence: f64_field(value, "p_coherence")?,
            duration_us: f64_field(value, "duration_us")?,
            two_qubit_gates: usize_field(value, "two_qubit_gates")?,
            one_qubit_gates: usize_field(value, "one_qubit_gates")?,
            measurements: usize_field(value, "measurements")?,
            swap_count: usize_field(value, "swap_count")?,
            depth: usize_field(value, "depth")?,
            gates_in: usize_field(value, "gates_in")?,
            two_qubit_in: usize_field(value, "two_qubit_in")?,
            two_qubit_delta: isize_field(value, "two_qubit_delta")?,
            depth_delta: isize_field(value, "depth_delta")?,
            mean_gather_distance,
            compile_time_s: f64_field(value, "compile_time_s")?,
            monte_carlo,
        })
    }

    fn ratio_from_value(value: &Value) -> Result<RatioRow, String> {
        Ok(RatioRow {
            benchmark: string_field(value, "benchmark")?,
            device: string_field(value, "device")?,
            calibration: string_field(value, "calibration")?,
            router: string_field(value, "router")?,
            decomposer: string_field(value, "decomposer")?,
            baseline_probability: f64_field(value, "baseline_probability")?,
            probability: f64_field(value, "probability")?,
            ratio: f64_field(value, "ratio")?,
        })
    }

    fn geomean_from_value(value: &Value) -> Result<RouterGeomean, String> {
        Ok(RouterGeomean {
            router: string_field(value, "router")?,
            decomposer: string_field(value, "decomposer")?,
            geomean: f64_field(value, "geomean")?,
            cells: usize_field(value, "cells")?,
        })
    }

    fn report_from_value(value: &Value) -> Result<SweepReport, String> {
        let shots_value = field(value, "shots")?;
        let shots = if shots_value.is_null() {
            None
        } else {
            Some(
                shots_value
                    .as_u64()
                    .ok_or("field 'shots' must be an integer or null")? as usize,
            )
        };
        let cells = field(value, "cells")?
            .as_array()
            .ok_or("field 'cells' must be an array")?
            .iter()
            .map(cell_from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let ratios = field(value, "ratios")?
            .as_array()
            .ok_or("field 'ratios' must be an array")?
            .iter()
            .map(ratio_from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let geomeans = field(value, "geomeans")?
            .as_array()
            .ok_or("field 'geomeans' must be an array")?
            .iter()
            .map(geomean_from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SweepReport {
            benchmarks: string_array(value, "benchmarks")?,
            devices: string_array(value, "devices")?,
            routers: string_array(value, "routers")?,
            decomposers: string_array(value, "decomposers")?,
            calibrations: string_array(value, "calibrations")?,
            crosstalk: string_field(value, "crosstalk")?,
            seed: field(value, "seed")?
                .as_u64()
                .ok_or("field 'seed' must be an integer")?,
            shots,
            cells,
            ratios,
            geomeans,
            cache_hits: field(value, "cache_hits")?
                .as_u64()
                .ok_or("field 'cache_hits' must be an integer")?,
            cache_misses: field(value, "cache_misses")?
                .as_u64()
                .ok_or("field 'cache_misses' must be an integer")?,
            wall_time_s: f64_field(value, "wall_time_s")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trios_topology::line;

    fn toffoli_bench(name: &str, width: usize) -> SweepBenchmark {
        let mut c = Circuit::new(width);
        c.h(0).ccx(0, 1, 2);
        if width > 3 {
            c.cx(width - 1, 0);
        }
        SweepBenchmark::measured(name, c)
    }

    fn small_spec() -> SweepSpec {
        SweepSpec {
            benchmarks: vec![toffoli_bench("toff-4", 4), toffoli_bench("toff-5", 5)],
            devices: vec![("line-6".into(), line(6))],
            routers: vec!["baseline".into(), "trios".into()],
            calibrations: vec![
                ("now".into(), Calibration::johannesburg_2020_08_19()),
                ("future".into(), Calibration::near_future()),
            ],
            ..SweepSpec::new()
        }
    }

    #[test]
    fn sweep_covers_the_full_grid_in_canonical_order() {
        let report = run_sweep(&small_spec()).unwrap();
        // 2 benchmarks × 1 device × 2 routers × 2 calibrations.
        assert_eq!(report.cells.len(), 8);
        // Sorted benchmark-major, then device, router, calibration — all
        // in spec order.
        let first = &report.cells[0];
        assert_eq!(
            (
                first.benchmark.as_str(),
                first.router.as_str(),
                first.calibration.as_str()
            ),
            ("toff-4", "baseline", "now")
        );
        let second = &report.cells[1];
        assert_eq!(
            (second.router.as_str(), second.calibration.as_str()),
            ("baseline", "future")
        );
        assert_eq!(report.cells[2].router, "trios");
        assert_eq!(report.cells[4].benchmark, "toff-5");
        // Every probability is a real probability.
        for cell in &report.cells {
            assert!(
                cell.probability > 0.0 && cell.probability <= 1.0,
                "{cell:?}"
            );
            assert!(cell.measurements > 0, "measured benchmarks");
        }
        // Same compile serves both calibrations: 2 benchmarks × 2 routers
        // compile fresh, the rest of the grid re-uses them.
        assert_eq!(report.cache_misses, 4);
    }

    #[test]
    fn sweep_emits_ratio_rows_and_geomeans_against_baseline() {
        let report = run_sweep(&small_spec()).unwrap();
        // One ratio row per trios cell.
        assert_eq!(report.ratios.len(), 4);
        for row in &report.ratios {
            assert_eq!(row.router, "trios");
            assert!((row.ratio - row.probability / row.baseline_probability).abs() < 1e-12);
        }
        let geomean = report.geomean_for("trios").unwrap();
        assert!(geomean > 0.0);
        assert_eq!(report.geomeans[0].cells, 4);
        // Trios routes the Toffoli as a unit on a line: it must not lose
        // to the baseline on this Toffoli-bearing grid.
        assert!(geomean >= 1.0, "geomean {geomean}");
    }

    #[test]
    fn sweep_is_deterministic_and_independent_of_jobs() {
        let mut spec = small_spec();
        spec.jobs = 1;
        let one = run_sweep(&spec).unwrap().normalized();
        spec.jobs = 4;
        let four = run_sweep(&spec).unwrap().normalized();
        assert_eq!(one, four);
    }

    #[test]
    fn monte_carlo_cross_check_runs_on_small_cells_and_upper_bounds_the_model() {
        let mut spec = small_spec();
        spec.calibrations = vec![("now".into(), Calibration::johannesburg_2020_08_19())];
        spec.monte_carlo_shots = Some(120);
        let report = run_sweep(&spec).unwrap();
        for cell in &report.cells {
            let mc = cell.monte_carlo.expect("line-6 cells are simulable");
            assert_eq!(mc.shots, 120);
            assert!(
                mc.bound_ok,
                "analytic model must lower-bound fidelity: {mc:?}"
            );
            assert!(mc.mean_fidelity <= 1.0 + 1e-12);
            assert!(mc.error_free_fraction <= mc.mean_fidelity + 1e-12);
        }
    }

    #[test]
    fn monte_carlo_skips_cells_too_wide_to_simulate() {
        let mut spec = small_spec();
        spec.devices = vec![("line-12".into(), line(12))];
        spec.monte_carlo_shots = Some(10);
        let report = run_sweep(&spec).unwrap();
        assert!(report.cells.iter().all(|c| c.monte_carlo.is_none()));
        assert_eq!(report.shots, Some(10));
    }

    #[test]
    fn pinned_benchmarks_fix_their_placement() {
        let mut toffoli = Circuit::new(3);
        toffoli.ccx(0, 1, 2);
        let spec = SweepSpec {
            benchmarks: vec![
                SweepBenchmark::pinned("far", toffoli.clone(), vec![0, 3, 5]),
                SweepBenchmark::pinned("near", toffoli, vec![0, 1, 2]),
            ],
            devices: vec![("line-6".into(), line(6))],
            routers: vec!["trios".into()],
            calibrations: vec![("now".into(), Calibration::johannesburg_2020_08_19())],
            ..SweepSpec::new()
        };
        let report = run_sweep(&spec).unwrap();
        let far = report
            .cell("far", "line-6", "trios", "standard", "now")
            .unwrap();
        let near = report
            .cell("near", "line-6", "trios", "standard", "now")
            .unwrap();
        assert!(far.swap_count > near.swap_count);
        assert!(far.mean_gather_distance.unwrap() > near.mean_gather_distance.unwrap());
        assert_eq!(near.mean_gather_distance, Some(0.0));
    }

    #[test]
    fn spec_validation_catches_malformed_grids() {
        let mut empty = small_spec();
        empty.routers.clear();
        assert_eq!(
            run_sweep(&empty).unwrap_err(),
            SweepError::EmptyDimension {
                dimension: "routers"
            }
        );

        let mut duplicate = small_spec();
        duplicate.benchmarks.push(toffoli_bench("toff-4", 4));
        assert!(matches!(
            run_sweep(&duplicate).unwrap_err(),
            SweepError::DuplicateName {
                dimension: "benchmarks",
                ..
            }
        ));

        let mut unknown = small_spec();
        unknown.routers = vec!["sabre".into()];
        let err = run_sweep(&unknown).unwrap_err();
        assert!(matches!(err, SweepError::UnknownRouter { .. }));
        assert!(err.to_string().contains("sabre"));

        let mut unknown_decomposer = small_spec();
        unknown_decomposer.decomposers = vec!["margolus".into()];
        let err = run_sweep(&unknown_decomposer).unwrap_err();
        assert!(matches!(err, SweepError::UnknownDecomposer { .. }));
        assert!(err.to_string().contains("margolus"), "{err}");
        assert!(err.to_string().contains("relative-phase"), "{err}");

        let mut zero = small_spec();
        zero.monte_carlo_shots = Some(0);
        assert_eq!(run_sweep(&zero).unwrap_err(), SweepError::ZeroShots);
    }

    #[test]
    fn decomposer_grid_expands_cells_and_geomeans() {
        let mut spec = small_spec();
        spec.calibrations = vec![("now".into(), Calibration::johannesburg_2020_08_19())];
        spec.decomposers = vec!["standard".into(), "eight".into(), "tdepth".into()];
        let report = run_sweep(&spec).unwrap();
        // 2 benchmarks × 1 device × 2 routers × 3 decomposers × 1 cal.
        assert_eq!(report.cells.len(), 12);
        assert_eq!(report.decomposers, ["standard", "eight", "tdepth"]);
        // Decomposer-major inside each router, in spec order.
        let toff4: Vec<(&str, &str)> = report
            .cells
            .iter()
            .filter(|c| c.benchmark == "toff-4")
            .map(|c| (c.router.as_str(), c.decomposer.as_str()))
            .collect();
        assert_eq!(
            toff4,
            [
                ("baseline", "standard"),
                ("baseline", "eight"),
                ("baseline", "tdepth"),
                ("trios", "standard"),
                ("trios", "eight"),
                ("trios", "tdepth"),
            ]
        );
        // One geomean per non-baseline (router × decomposer) grid cell,
        // each ratio comparing like against like.
        assert_eq!(report.geomeans.len(), 3);
        for decomposer in ["standard", "eight", "tdepth"] {
            let g = report.geomean_for_grid("trios", decomposer).unwrap();
            assert!(g > 0.0, "{decomposer}: {g}");
        }
        for row in &report.ratios {
            assert_eq!(row.router, "trios");
        }
        // The forced-eight lowering is a genuinely different compilation
        // from the connectivity-aware standard (on a line it needs no
        // triangle, so its totals differ).
        let totals = |decomposer: &str| -> Vec<usize> {
            report
                .cells
                .iter()
                .filter(|c| c.decomposer == decomposer)
                .map(|c| c.two_qubit_gates)
                .collect()
        };
        assert_ne!(totals("standard"), totals("eight"));
    }

    #[test]
    fn qutrit_cells_are_cost_model_repriced() {
        let mut spec = small_spec();
        spec.calibrations = vec![("now".into(), Calibration::johannesburg_2020_08_19())];
        spec.decomposers = vec!["standard".into(), "qutrit".into()];
        spec.monte_carlo_shots = Some(20);
        let report = run_sweep(&spec).unwrap();
        for decomposer in ["standard", "qutrit"] {
            assert!(
                report.geomean_for_grid("trios", decomposer).is_some(),
                "{decomposer}"
            );
        }
        for cell in report.cells.iter().filter(|c| c.decomposer == "qutrit") {
            let twin = report
                .cell(
                    &cell.benchmark,
                    &cell.device,
                    &cell.router,
                    "standard",
                    &cell.calibration,
                )
                .unwrap();
            // One trio re-priced from 6 to 3 two-qubit gates: fewer 2q
            // gates, and strictly better gate-success odds.
            assert!(cell.two_qubit_gates < twin.two_qubit_gates, "{cell:?}");
            assert!(cell.p_gates > twin.p_gates, "{cell:?}");
            assert!(cell.probability > twin.probability, "{cell:?}");
            // Re-priced numbers never claim a simulation cross-check.
            assert!(cell.monte_carlo.is_none(), "{cell:?}");
            // Routing itself (swaps, depth source) came from the standard
            // compile.
            assert_eq!(cell.swap_count, twin.swap_count);
        }
        // The standard cells still run the cross-check.
        assert!(report
            .cells
            .iter()
            .filter(|c| c.decomposer == "standard")
            .all(|c| c.monte_carlo.is_some()));
    }

    #[test]
    fn a_sweep_keeps_a_cache_only_when_a_job_recurs() {
        let recurs = |spec: &SweepSpec| {
            let (groups, batches) = plan_batches(spec, &DecomposerRegistry::standard());
            some_job_recurs(spec, &batches, &groups)
        };
        // Distinct benchmarks, devices and routers: no job recurs.
        let mut spec = small_spec();
        spec.devices
            .push(("ring-6".into(), trios_topology::ring(6)));
        assert!(!recurs(&spec));
        // A qutrit cell compiles as its standard twin.
        spec.decomposers = vec!["standard".into(), "qutrit".into()];
        assert!(recurs(&spec));
        // One topology under two device names.
        let mut spec = small_spec();
        spec.devices.push(("line-6-again".into(), line(6)));
        assert!(recurs(&spec));
    }

    #[test]
    fn compile_failures_name_the_cell() {
        let mut wide = Circuit::new(10);
        wide.cx(0, 9);
        let spec = SweepSpec {
            benchmarks: vec![SweepBenchmark::new("too-wide", wide)],
            devices: vec![("line-4".into(), line(4))],
            routers: vec!["trios".into()],
            calibrations: vec![("now".into(), Calibration::default())],
            ..SweepSpec::new()
        };
        let err = run_sweep(&spec).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("too-wide"), "{text}");
        assert!(text.contains("line-4"), "{text}");
        assert!(text.contains("trios"), "{text}");
    }

    #[test]
    fn summary_table_reads_like_a_report() {
        let report = run_sweep(&small_spec()).unwrap();
        let text = report.summary_table();
        assert!(
            text.contains("2 benchmarks x 1 devices x 2 routers x 1 decomposers x 2 calibrations")
        );
        assert!(text.contains("toff-4"));
        assert!(text.contains("baseline"));
        assert!(text.contains("geomean(trios x standard / baseline)"));
        assert_eq!(text, report.to_string());
    }

    #[cfg(feature = "serde")]
    #[test]
    fn report_round_trips_through_json() {
        let mut spec = small_spec();
        spec.monte_carlo_shots = Some(40);
        let report = run_sweep(&spec).unwrap();
        let json = report.to_json();
        let parsed = SweepReport::from_json(&json).unwrap();
        assert_eq!(parsed, report);
        let pretty = SweepReport::from_json(&report.to_json_pretty()).unwrap();
        assert_eq!(pretty, report);
        assert!(SweepReport::from_json("{\"benchmarks\": 1}").is_err());
    }
}
