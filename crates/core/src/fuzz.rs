//! The differential fuzz harness: compile seeded generated circuits
//! through every registered routing strategy × a set of devices, check
//! each result against the simulator and the hardware-legality and
//! metric invariants, and greedily shrink any failure to a minimal
//! reproducer.
//!
//! The paper's evaluation (and this repo's test suite until now) runs on
//! a fixed benchmark list; [`run_fuzz`] instead draws unbounded
//! structured workloads from [`trios_gen`]'s families and
//! cross-checks every cell of the `(case × device × router)` grid:
//!
//! * **semantics** — a [`trios_sim::Simulator`] backend replays random
//!   states through the initial/final layouts: stabilizer tableau for
//!   Clifford circuits at any width, dense statevector on devices up to
//!   [`FuzzSpec::max_sim_qubits`] wide, and the sparse term-list backend
//!   for non-Clifford circuits on anything wider (full Johannesburg,
//!   127-qubit-class heavy-hex grids) while the amplitude count stays
//!   under [`FuzzSpec::max_terms`]. A cell whose equivalence cannot run
//!   is recorded in [`FuzzReport::skips`] with its reason — never
//!   silently dropped,
//! * **legality** — [`trios_route::verify_legal`]: every gate in the
//!   hardware set, every two-qubit gate on a coupling edge, no surviving
//!   three-qubit gate,
//! * **metric invariants** — the reported [`CompileStats`] agree with
//!   the circuit they describe (recomputed two-qubit count and depth),
//!   `mean_gather_distance` is finite and non-negative, the scheduled
//!   duration is finite and non-negative.
//!
//! Compilation goes through the parallel batch compiler, one compile per
//! cell (generated cases rarely repeat, so a cache would only hold
//! copies); results are **byte-identical across worker counts** (the
//! report carries no timings and cells are visited in deterministic grid
//! order).
//!
//! When [`FuzzSpec::shrink`] is set, each failing case is minimized by
//! greedy gate removal and qubit compaction — every candidate is
//! recompiled and must reproduce the *same kind* of failure — and the
//! minimal circuit is emitted as an OpenQASM reproducer in the report.
//!
//! # Examples
//!
//! ```
//! use trios_core::fuzz::{run_fuzz, FuzzSpec};
//!
//! let spec = FuzzSpec {
//!     cases: 4,
//!     seed: 1,
//!     routers: vec!["trios".into()],
//!     ..FuzzSpec::new()
//! };
//! let report = run_fuzz(&spec)?;
//! assert!(report.passed(), "{report}");
//! # Ok::<(), trios_core::fuzz::FuzzError>(())
//! ```

use crate::{BatchDiagnostic, CompileStats, CompiledProgram, Compiler, Diagnostic};
use std::error::Error;
use std::fmt;
use trios_gen::{generate_suite, Family, GeneratedCircuit};
use trios_ir::Circuit;
use trios_passes::DecomposerRegistry;
use trios_route::{verify_legal, StrategyRegistry};
use trios_sim::{
    auto_backend, first_non_clifford, strip_t_gates, Backend, DenseSimulator, SimError, Simulator,
    SparseSimulator, StabilizerSimulator, DEFAULT_MAX_TERMS, MAX_QUBITS, SPARSE_MAX_QUBITS,
};
use trios_topology::{grid, line, Topology};

/// What one fuzz run covers: the case stream, the differential grid, and
/// the harness knobs.
#[derive(Debug, Clone)]
pub struct FuzzSpec {
    /// Families the case stream cycles through.
    pub families: Vec<Family>,
    /// Number of generated cases (seeds `seed, seed+1, …`).
    pub cases: usize,
    /// Base generation seed (also the compilation and simulation seed).
    pub seed: u64,
    /// Routing strategies by registry name; every case × device is
    /// compiled through each.
    pub routers: Vec<String>,
    /// Toffoli/CCZ decomposer by registry name, applied to every cell.
    /// Must be executable — cost-model-only strategies (`"qutrit"`) have
    /// no circuits to differentially verify.
    pub decomposer: String,
    /// Named devices to compile onto.
    pub devices: Vec<(String, Topology)>,
    /// Worker threads for batch compilation (`0` = one per core). The
    /// report is identical regardless of this knob.
    pub jobs: usize,
    /// Minimize failing cases to a QASM reproducer.
    pub shrink: bool,
    /// Widest device that gets the *dense* statevector-equivalence
    /// check; wider cells fall back to the stabilizer backend for
    /// Clifford circuits and the sparse backend otherwise (under
    /// [`Backend::Auto`]), and always keep the legality and invariant
    /// checks.
    pub max_sim_qubits: usize,
    /// Random-state trials per equivalence check.
    pub trials: usize,
    /// Equivalence backend policy: [`Backend::Auto`] picks per cell,
    /// `Dense`/`Stabilizer`/`Sparse` force one backend. Cells a forced
    /// backend cannot simulate skip equivalence with a recorded
    /// [`SkipReason`], never fail — but a forced backend that skipped
    /// *every* cell makes [`FuzzReport::forced_backend_futile`] true.
    pub backend: Backend,
    /// Nonzero-amplitude budget for the sparse backend; past it a cell's
    /// equivalence is skipped with [`SkipReason::BudgetExceeded`].
    pub max_terms: usize,
}

impl FuzzSpec {
    /// The default grid: every family, all four standard routers, an
    /// 8-qubit line and a 4×2 grid (both fully simulable), 25 cases,
    /// shrinking off.
    pub fn new() -> Self {
        FuzzSpec {
            families: Family::ALL.to_vec(),
            cases: 25,
            seed: 0,
            routers: StrategyRegistry::standard()
                .names()
                .map(str::to_string)
                .collect(),
            decomposer: "standard".to_string(),
            devices: vec![
                ("line:8".to_string(), line(8)),
                ("grid:4x2".to_string(), grid(4, 2)),
            ],
            jobs: 0,
            shrink: false,
            max_sim_qubits: 8,
            trials: 2,
            backend: Backend::Auto,
            max_terms: DEFAULT_MAX_TERMS,
        }
    }
}

impl Default for FuzzSpec {
    fn default() -> Self {
        FuzzSpec::new()
    }
}

/// A malformed [`FuzzSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuzzError {
    /// The spec cannot be run as given.
    InvalidSpec {
        /// What is wrong with it.
        reason: String,
    },
}

impl fmt::Display for FuzzError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuzzError::InvalidSpec { reason } => write!(f, "invalid fuzz spec: {reason}"),
        }
    }
}

impl Error for FuzzError {}

/// Which check a failing cell tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzFailureKind {
    /// The compiler returned a diagnostic instead of a circuit.
    Compile,
    /// The compiled circuit violates hardware legality.
    Legality,
    /// The compiled circuit does not implement the generated program.
    Equivalence,
    /// A reported metric disagrees with the circuit it describes.
    Invariant,
}

impl fmt::Display for FuzzFailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FuzzFailureKind::Compile => "compile",
            FuzzFailureKind::Legality => "legality",
            FuzzFailureKind::Equivalence => "equivalence",
            FuzzFailureKind::Invariant => "invariant",
        })
    }
}

/// A minimized failing input, ready to paste into a bug report.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReproducer {
    /// Gate count of the minimized circuit.
    pub gates: usize,
    /// Width of the minimized circuit.
    pub qubits: usize,
    /// The minimized circuit as OpenQASM 2.0.
    pub qasm: String,
}

/// One failing cell of the fuzz grid.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzFailure {
    /// Generated case name (`family-n…-s<seed>`); regenerates the input.
    pub case: String,
    /// Family registry name.
    pub family: String,
    /// Generation seed of the case.
    pub seed: u64,
    /// Device spec the cell compiled onto.
    pub device: String,
    /// Routing strategy the cell compiled through.
    pub router: String,
    /// The check that failed.
    pub kind: FuzzFailureKind,
    /// Human-readable failure detail.
    pub message: String,
    /// The shrunk reproducer, when shrinking ran.
    pub reproducer: Option<FuzzReproducer>,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FAIL [{}] case {} (seed {}) on {} via {}",
            self.kind, self.case, self.seed, self.device, self.router
        )?;
        writeln!(f, "  {}", self.message)?;
        if let Some(repro) = &self.reproducer {
            writeln!(
                f,
                "  reproducer ({} gates, {} qubits):",
                repro.gates, repro.qubits
            )?;
            for qasm_line in repro.qasm.lines() {
                writeln!(f, "    {qasm_line}")?;
            }
        }
        Ok(())
    }
}

/// Why a compiled cell's equivalence stage did not run. Skips are never
/// failures, but they are never silent either: each one is recorded in
/// [`FuzzReport::skips`] with the cell that hit it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkipReason {
    /// The forced (or auto-selected) backend cannot simulate this cell's
    /// circuits at all — e.g. `--backend dense` on a device wider than
    /// the dense cap, or `--backend stabilizer` on a non-Clifford case.
    BackendUnsupported {
        /// Backend that declined the cell.
        backend: &'static str,
        /// The first obstacle it reported.
        detail: String,
    },
    /// The sparse backend started the check but the state grew past the
    /// `max_terms` budget mid-circuit.
    BudgetExceeded {
        /// The budget error as reported.
        detail: String,
    },
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::BackendUnsupported { backend, detail } => {
                write!(f, "backend '{backend}' cannot simulate this cell: {detail}")
            }
            SkipReason::BudgetExceeded { detail } => {
                write!(f, "sparse budget exceeded: {detail}")
            }
        }
    }
}

/// One compiled cell whose equivalence stage was skipped, with the
/// reason. Legality and metric-invariant checks still ran on the cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzSkip {
    /// Generated case name.
    pub case: String,
    /// Device spec the cell compiled onto.
    pub device: String,
    /// Routing strategy the cell compiled through.
    pub router: String,
    /// Why equivalence did not run.
    pub reason: SkipReason,
}

/// The outcome of one fuzz run. [`fmt::Display`] renders the full
/// report; the text contains no timings, so it is byte-identical for
/// identical specs regardless of worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReport {
    /// Family names fuzzed, in spec order.
    pub families: Vec<String>,
    /// Router names fuzzed, in spec order.
    pub routers: Vec<String>,
    /// The decomposer every cell compiled with.
    pub decomposer: String,
    /// Device names fuzzed, in spec order.
    pub devices: Vec<String>,
    /// Number of generated cases.
    pub cases: usize,
    /// Base seed of the run.
    pub seed: u64,
    /// `(case × device × router)` cells compiled and checked.
    pub cells: usize,
    /// Cells that additionally ran an equivalence check (any backend).
    pub equivalence_checked: usize,
    /// Equivalence checks that ran on the dense statevector backend.
    pub equivalence_dense: usize,
    /// Equivalence checks that ran on the stabilizer tableau backend.
    pub equivalence_stabilizer: usize,
    /// Equivalence checks that ran on the sparse term-list backend.
    pub equivalence_sparse: usize,
    /// Cells skipped because the case was wider than the device (never
    /// compiled; not in [`FuzzReport::cells`]).
    pub skipped: usize,
    /// The backend policy the run used.
    pub backend: Backend,
    /// Every compiled cell whose equivalence stage was skipped, with the
    /// reason, in deterministic grid order.
    pub skips: Vec<FuzzSkip>,
    /// Every failing cell, in deterministic grid order.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// `true` when no cell failed any check.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// `true` when a forced (non-auto) backend was asked to verify cells
    /// but skipped equivalence on every single one — a run that checked
    /// nothing the user asked it to check, which callers should surface
    /// as an error rather than a de-facto PASS.
    pub fn forced_backend_futile(&self) -> bool {
        self.backend != Backend::Auto
            && self.cells > 0
            && self.equivalence_checked == 0
            && !self.skips.is_empty()
    }

    /// Skip totals grouped by reason text, in first-seen (grid) order.
    pub fn skip_totals(&self) -> Vec<(String, usize)> {
        let mut totals: Vec<(String, usize)> = Vec::new();
        for skip in &self.skips {
            let text = skip.reason.to_string();
            match totals.iter_mut().find(|(t, _)| *t == text) {
                Some((_, n)) => *n += 1,
                None => totals.push((text, 1)),
            }
        }
        totals
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fuzz: {} cases x {} devices x {} routers, seed {}",
            self.cases,
            self.devices.len(),
            self.routers.len(),
            self.seed
        )?;
        writeln!(f, "families: {}", self.families.join(", "))?;
        writeln!(f, "routers:  {}", self.routers.join(", "))?;
        writeln!(f, "decomposer: {}", self.decomposer)?;
        writeln!(f, "devices:  {}", self.devices.join(", "))?;
        if self.backend != Backend::Auto {
            writeln!(f, "backend:  {} (forced)", self.backend)?;
        }
        writeln!(
            f,
            "cells:    {} checked ({} equivalence-checked: {} dense + {} stabilizer + {} sparse; {} equivalence-skipped; {} not compiled: wider than device)",
            self.cells,
            self.equivalence_checked,
            self.equivalence_dense,
            self.equivalence_stabilizer,
            self.equivalence_sparse,
            self.skips.len(),
            self.skipped
        )?;
        for (reason, count) in self.skip_totals() {
            writeln!(f, "skipped:  {count} cells: {reason}")?;
        }
        if self.failures.is_empty() {
            write!(f, "result:   PASS (0 failures)")
        } else {
            writeln!(f, "result:   FAIL ({} failures)", self.failures.len())?;
            for failure in &self.failures {
                writeln!(f)?;
                write!(f, "{failure}")?;
            }
            Ok(())
        }
    }
}

/// Runs the fuzz grid with the standard [`StrategyRegistry`].
///
/// # Errors
///
/// Returns [`FuzzError::InvalidSpec`] for an empty or inconsistent spec.
/// Failing *cells* are not errors — they are collected in the report.
pub fn run_fuzz(spec: &FuzzSpec) -> Result<FuzzReport, FuzzError> {
    run_fuzz_with_registry(spec, &StrategyRegistry::standard())
}

/// [`run_fuzz`] over a caller-supplied registry — how the test suite
/// injects deliberately broken strategies to prove the harness catches
/// and shrinks real bugs.
///
/// # Errors
///
/// Returns [`FuzzError::InvalidSpec`] for an empty spec or a router name
/// missing from `registry`.
pub fn run_fuzz_with_registry(
    spec: &FuzzSpec,
    registry: &StrategyRegistry,
) -> Result<FuzzReport, FuzzError> {
    let invalid = |reason: &str| FuzzError::InvalidSpec {
        reason: reason.to_string(),
    };
    if spec.families.is_empty() {
        return Err(invalid("no families selected"));
    }
    if spec.cases == 0 {
        return Err(invalid("cases must be positive"));
    }
    if spec.routers.is_empty() {
        return Err(invalid("no routers selected"));
    }
    if spec.devices.is_empty() {
        return Err(invalid("no devices selected"));
    }
    if spec.trials == 0 {
        return Err(invalid("trials must be positive"));
    }
    for router in &spec.routers {
        if !registry.contains(router) {
            return Err(FuzzError::InvalidSpec {
                reason: format!(
                    "unknown router '{router}' (registered: {})",
                    registry.names().collect::<Vec<_>>().join(", ")
                ),
            });
        }
    }
    let decomposers = DecomposerRegistry::standard();
    match decomposers.get(&spec.decomposer) {
        None => {
            return Err(FuzzError::InvalidSpec {
                reason: format!(
                    "unknown decomposer '{}' (registered: {})",
                    spec.decomposer,
                    decomposers.names().collect::<Vec<_>>().join(", ")
                ),
            });
        }
        Some(strategy) if !strategy.executable() => {
            return Err(FuzzError::InvalidSpec {
                reason: format!(
                    "decomposer '{}' is cost-model-only: it emits no circuits to verify",
                    spec.decomposer
                ),
            });
        }
        Some(_) => {}
    }

    let suite = generate_suite(&spec.families, spec.cases, spec.seed);
    let jobs = if spec.jobs > 0 {
        spec.jobs
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };

    let mut cells = 0usize;
    let mut equivalence_checked = 0usize;
    let mut equivalence_dense = 0usize;
    let mut equivalence_stabilizer = 0usize;
    let mut equivalence_sparse = 0usize;
    let mut skipped = 0usize;
    let mut skips: Vec<FuzzSkip> = Vec::new();
    let mut failures = Vec::new();

    for (device_name, topology) in &spec.devices {
        let mut fitting: Vec<GeneratedCircuit> = suite
            .iter()
            .filter(|case| case.circuit.num_qubits() <= topology.num_qubits())
            .cloned()
            .collect();
        skipped += (suite.len() - fitting.len()) * spec.routers.len();
        // Derive Clifford shadows by stripping T/T† gates where they are
        // the only path to wide-device equivalence: under a forced
        // stabilizer policy, or under auto on devices past even the
        // sparse backend's direct reach. (Within sparse reach the case
        // itself is checked at full width, so no shadow is needed.)
        let wide = topology.num_qubits() > spec.max_sim_qubits;
        let needs_shadows = wide
            && match spec.backend {
                Backend::Stabilizer => true,
                Backend::Auto => topology.num_qubits() > SPARSE_MAX_QUBITS,
                Backend::Dense | Backend::Sparse => false,
            };
        if needs_shadows {
            let shadows: Vec<GeneratedCircuit> = fitting
                .iter()
                .filter(|case| first_non_clifford(&case.circuit).is_some())
                .filter_map(|case| {
                    let stripped = strip_t_gates(&case.circuit);
                    if stripped.len() == case.circuit.len()
                        || first_non_clifford(&stripped).is_some()
                    {
                        return None;
                    }
                    let mut shadow = case.clone();
                    shadow.name = format!("{}-stript", case.name);
                    shadow.circuit = stripped;
                    shadow.circuit.set_name(shadow.name.clone());
                    Some(shadow)
                })
                .collect();
            fitting.extend(shadows);
        }
        // One owned copy of the device's slab, shared by every router's
        // batch call (the batch API takes a slice).
        let circuits: Vec<Circuit> = fitting.iter().map(|case| case.circuit.clone()).collect();

        for router in &spec.routers {
            let compiler = Compiler::builder()
                .router(router.clone())
                .decomposer(spec.decomposer.clone())
                .seed(spec.seed)
                .strategies(registry.clone())
                .build();

            // Compile the whole device×router slab through the parallel
            // batch compiler. The batch stops at its first failure, so on
            // an error the slab falls back to one per-circuit compile
            // each — a failing slab means more failures are likely, and
            // the fallback keeps total work linear in the slab size.
            let mut compiled: Vec<(&GeneratedCircuit, CompiledProgram)> = Vec::new();
            let mut record_compile_failure = |case, diagnostic: Diagnostic| {
                failures.push(build_failure(
                    spec,
                    &compiler,
                    case,
                    device_name,
                    topology,
                    router,
                    FuzzFailureKind::Compile,
                    diagnostic.to_string(),
                ));
            };
            match compiler.compile_batch(&circuits, topology, jobs, None) {
                Ok(outcome) => {
                    for (case, (program, _)) in fitting.iter().zip(outcome.results) {
                        compiled.push((case, program));
                    }
                }
                Err(BatchDiagnostic { index, diagnostic }) => {
                    for (position, case) in fitting.iter().enumerate() {
                        if position == index {
                            cells += 1;
                            record_compile_failure(case, diagnostic.clone());
                            continue;
                        }
                        match compiler.compile(&case.circuit, topology) {
                            Ok(program) => compiled.push((case, program)),
                            Err(diagnostic) => {
                                cells += 1;
                                record_compile_failure(case, diagnostic);
                            }
                        }
                    }
                }
            }

            for (case, program) in compiled {
                cells += 1;
                let outcome = check_cell(&case.circuit, &program, topology, spec);
                match outcome.backend {
                    Some("stabilizer") => {
                        equivalence_checked += 1;
                        equivalence_stabilizer += 1;
                    }
                    Some("sparse") => {
                        equivalence_checked += 1;
                        equivalence_sparse += 1;
                    }
                    Some(_) => {
                        equivalence_checked += 1;
                        equivalence_dense += 1;
                    }
                    None => {}
                }
                if let Some(reason) = outcome.skip {
                    skips.push(FuzzSkip {
                        case: case.name.clone(),
                        device: device_name.clone(),
                        router: router.clone(),
                        reason,
                    });
                }
                if let Some((kind, message)) = outcome.failure {
                    failures.push(build_failure(
                        spec,
                        &compiler,
                        case,
                        device_name,
                        topology,
                        router,
                        kind,
                        message,
                    ));
                }
            }
        }
    }

    Ok(FuzzReport {
        families: spec.families.iter().map(|f| f.name().to_string()).collect(),
        routers: spec.routers.clone(),
        decomposer: spec.decomposer.clone(),
        devices: spec.devices.iter().map(|(n, _)| n.clone()).collect(),
        cases: spec.cases,
        seed: spec.seed,
        cells,
        equivalence_checked,
        equivalence_dense,
        equivalence_stabilizer,
        equivalence_sparse,
        skipped,
        backend: spec.backend,
        skips,
        failures,
    })
}

/// Picks the equivalence backend for one cell under the spec's policy,
/// or the [`SkipReason`] when no backend can simulate the pair
/// (equivalence is then skipped and recorded, never failed).
fn select_backend(
    spec: &FuzzSpec,
    width: usize,
    original: &Circuit,
    compiled: &Circuit,
) -> Result<Box<dyn Simulator>, SkipReason> {
    let first_obstacle = |sim: &dyn Simulator| -> String {
        sim.supports_circuit(original)
            .and_then(|()| sim.supports_circuit(compiled))
            .err()
            .map_or_else(|| "unsupported".to_string(), |e| e.to_string())
    };
    match spec.backend {
        Backend::Auto => auto_backend(
            width,
            &[original, compiled],
            spec.max_sim_qubits,
            spec.max_terms,
        )
        .ok_or(SkipReason::BackendUnsupported {
            backend: "auto",
            detail: format!(
                "non-Clifford circuits on a {width}-qubit register, beyond both the \
                         dense cap and the sparse backend's reach"
            ),
        }),
        Backend::Dense => {
            let cap = spec.max_sim_qubits.min(MAX_QUBITS);
            if width <= cap {
                Ok(Box::new(DenseSimulator::default()))
            } else {
                Err(SkipReason::BackendUnsupported {
                    backend: "dense",
                    detail: format!("device width {width} exceeds the dense cap of {cap} qubits"),
                })
            }
        }
        Backend::Stabilizer => {
            let stab = StabilizerSimulator::new();
            if stab.supports_circuit(original).is_ok() && stab.supports_circuit(compiled).is_ok() {
                Ok(Box::new(stab))
            } else {
                Err(SkipReason::BackendUnsupported {
                    backend: "stabilizer",
                    detail: first_obstacle(&stab),
                })
            }
        }
        Backend::Sparse => {
            let sparse = SparseSimulator::with_max_terms(spec.max_terms);
            if sparse.supports_circuit(original).is_ok()
                && sparse.supports_circuit(compiled).is_ok()
            {
                Ok(Box::new(sparse))
            } else {
                Err(SkipReason::BackendUnsupported {
                    backend: "sparse",
                    detail: first_obstacle(&sparse),
                })
            }
        }
    }
}

/// Runs every check on one compiled cell.
fn check_cell(
    original: &Circuit,
    program: &CompiledProgram,
    topology: &Topology,
    spec: &FuzzSpec,
) -> CellOutcome {
    let fail = |kind, message: String| CellOutcome {
        failure: Some((kind, message)),
        backend: None,
        skip: None,
    };
    if let Err(violation) = verify_legal(&program.circuit, topology) {
        return fail(FuzzFailureKind::Legality, violation.to_string());
    }
    if let Some(message) = stats_violation(&program.stats, &program.circuit) {
        return fail(FuzzFailureKind::Invariant, message);
    }
    let mut failure = None;
    let mut backend = None;
    let mut skip = None;
    match select_backend(spec, topology.num_qubits(), original, &program.circuit) {
        Err(reason) => skip = Some(reason),
        Ok(sim) => {
            backend = Some(sim.capability().name);
            match sim.compiled_equivalent(
                original,
                &program.circuit,
                &program.initial_layout.to_mapping(),
                &program.final_layout.to_mapping(),
                spec.trials,
                spec.seed,
            ) {
                Ok(true) => {}
                Ok(false) => {
                    failure = Some((
                        FuzzFailureKind::Equivalence,
                        "compiled circuit does not implement the generated program".to_string(),
                    ))
                }
                // A sparse budget blow-up mid-check is a recorded skip —
                // the verdict is unknown, never wrong.
                Err(e @ SimError::StateTooDense { .. }) => {
                    backend = None;
                    skip = Some(SkipReason::BudgetExceeded {
                        detail: e.to_string(),
                    });
                }
                Err(e) => {
                    failure = Some((
                        FuzzFailureKind::Invariant,
                        format!("equivalence check could not run: {e}"),
                    ))
                }
            }
        }
    }
    CellOutcome {
        failure,
        backend,
        skip,
    }
}

/// What [`check_cell`] found: the first failure (if any), the name of
/// the backend whose equivalence stage actually completed (`None` when
/// an earlier failure short-circuited it or no backend fits the cell),
/// and the skip reason when equivalence could not run.
struct CellOutcome {
    failure: Option<(FuzzFailureKind, String)>,
    backend: Option<&'static str>,
    skip: Option<SkipReason>,
}

/// The metric invariants: reported stats must describe the circuit they
/// accompany.
fn stats_violation(stats: &CompileStats, circuit: &Circuit) -> Option<String> {
    let counts = circuit.counts();
    if stats.two_qubit_gates != counts.two_qubit {
        return Some(format!(
            "stats claim {} two-qubit gates, circuit has {}",
            stats.two_qubit_gates, counts.two_qubit
        ));
    }
    let depth = circuit.depth();
    if stats.depth != depth {
        return Some(format!(
            "stats claim depth {}, circuit has {depth}",
            stats.depth
        ));
    }
    if let Some(gather) = stats.mean_gather_distance {
        if !gather.is_finite() || gather < 0.0 {
            return Some(format!("mean_gather_distance is {gather}"));
        }
    }
    if !stats.duration_us.is_finite() || stats.duration_us < 0.0 {
        return Some(format!("scheduled duration is {} µs", stats.duration_us));
    }
    None
}

/// Assembles a [`FuzzFailure`], shrinking the case first when the spec
/// asks for it.
#[allow(clippy::too_many_arguments)]
fn build_failure(
    spec: &FuzzSpec,
    compiler: &Compiler,
    case: &GeneratedCircuit,
    device: &str,
    topology: &Topology,
    router: &str,
    kind: FuzzFailureKind,
    message: String,
) -> FuzzFailure {
    let reproducer = spec.shrink.then(|| {
        let fails = |candidate: &Circuit| -> bool {
            match compiler.compile(candidate, topology) {
                Err(_) => kind == FuzzFailureKind::Compile,
                Ok(program) => check_cell(candidate, &program, topology, spec)
                    .failure
                    .is_some_and(|(k, _)| k == kind),
            }
        };
        let minimized = shrink_circuit(&case.circuit, &fails);
        FuzzReproducer {
            gates: minimized.len(),
            qubits: minimized.num_qubits(),
            qasm: trios_qasm::emit(&minimized),
        }
    });
    FuzzFailure {
        case: case.name.clone(),
        family: case.family.name().to_string(),
        seed: case.seed,
        device: device.to_string(),
        router: router.to_string(),
        kind,
        message,
        reproducer,
    }
}

/// Greedily minimizes `circuit` while `fails` holds: gate removal to a
/// fixed point (each surviving gate is individually necessary), then
/// compaction of untouched qubit lines, repeated until neither makes
/// progress. The result still reproduces the failure; on a predicate no
/// removal satisfies, the input comes back unchanged.
pub fn shrink_circuit(circuit: &Circuit, fails: &dyn Fn(&Circuit) -> bool) -> Circuit {
    let mut best = circuit.clone();
    loop {
        let mut progress = false;
        // Gate removal: try deleting each instruction; on success stay at
        // the same index (the next instruction slid into it).
        let mut i = 0;
        while i < best.len() {
            let mut instructions = best.instructions().to_vec();
            instructions.remove(i);
            let mut candidate = Circuit::from_instructions(best.num_qubits(), instructions)
                .expect("removing an instruction keeps the circuit valid");
            candidate.set_name(best.name().to_string());
            if fails(&candidate) {
                best = candidate;
                progress = true;
            } else {
                i += 1;
            }
        }
        // Qubit compaction: relabel the active qubits onto 0..k and drop
        // the idle lines.
        let active = best.active_qubits();
        if !active.is_empty() && active.len() < best.num_qubits() {
            let mut map = vec![0usize; best.num_qubits()];
            for (new, &old) in active.iter().enumerate() {
                map[old] = new;
            }
            if let Ok(candidate) = best.remapped(active.len(), &map) {
                if fails(&candidate) {
                    best = candidate;
                    progress = true;
                }
            }
        }
        if !progress {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_specs_are_rejected() {
        let assert_invalid = |spec: FuzzSpec, needle: &str| {
            let err = run_fuzz(&spec).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        };
        assert_invalid(
            FuzzSpec {
                families: Vec::new(),
                ..FuzzSpec::new()
            },
            "families",
        );
        assert_invalid(
            FuzzSpec {
                cases: 0,
                ..FuzzSpec::new()
            },
            "cases",
        );
        assert_invalid(
            FuzzSpec {
                routers: Vec::new(),
                ..FuzzSpec::new()
            },
            "routers",
        );
        assert_invalid(
            FuzzSpec {
                devices: Vec::new(),
                ..FuzzSpec::new()
            },
            "devices",
        );
        assert_invalid(
            FuzzSpec {
                routers: vec!["sabre".into()],
                ..FuzzSpec::new()
            },
            "sabre",
        );
        assert_invalid(
            FuzzSpec {
                decomposer: "margolus".into(),
                ..FuzzSpec::new()
            },
            "unknown decomposer 'margolus'",
        );
        assert_invalid(
            FuzzSpec {
                decomposer: "qutrit".into(),
                ..FuzzSpec::new()
            },
            "cost-model-only",
        );
    }

    #[test]
    fn every_executable_decomposer_passes_a_small_fixed_seed_run() {
        for decomposer in ["standard", "six", "eight", "tdepth", "relative-phase"] {
            let spec = FuzzSpec {
                cases: 2,
                seed: 5,
                families: vec![Family::ToffoliRipple],
                routers: vec!["trios".into()],
                decomposer: decomposer.into(),
                devices: vec![("line:8".into(), line(8))],
                jobs: 1,
                ..FuzzSpec::new()
            };
            let report = run_fuzz(&spec).unwrap();
            assert!(report.passed(), "{decomposer}: {report}");
            assert_eq!(report.equivalence_checked, 2, "{decomposer}");
            assert!(report.to_string().contains(decomposer), "{report}");
        }
    }

    /// The full acceptance run: every executable lowering differentially
    /// verified on the default grid — all generator families, all four
    /// routers, both simulable devices.
    #[test]
    fn every_executable_decomposer_survives_every_family() {
        for decomposer in ["standard", "six", "eight", "tdepth", "relative-phase"] {
            let spec = FuzzSpec {
                cases: 24,
                seed: 11,
                decomposer: decomposer.into(),
                ..FuzzSpec::new()
            };
            let report = run_fuzz(&spec).unwrap();
            assert!(report.passed(), "{decomposer}: {report}");
            assert!(report.equivalence_checked > 0, "{decomposer}");
            let text = report.to_string();
            for family in Family::ALL {
                assert!(text.contains(family.name()), "{decomposer}: {text}");
            }
        }
    }

    #[test]
    fn small_fixed_seed_run_passes_and_counts_cells() {
        let spec = FuzzSpec {
            cases: 4,
            seed: 3,
            families: vec![Family::Layered, Family::ToffoliRipple],
            routers: vec!["baseline".into(), "trios".into()],
            devices: vec![("line:8".into(), line(8))],
            jobs: 1,
            ..FuzzSpec::new()
        };
        let report = run_fuzz(&spec).unwrap();
        assert!(report.passed(), "{report}");
        assert_eq!(report.cells, 8, "4 cases x 1 device x 2 routers");
        assert_eq!(report.equivalence_checked, 8);
        assert_eq!(report.equivalence_dense, 8, "line:8 is within dense reach");
        assert_eq!(report.equivalence_stabilizer, 0);
        assert_eq!(report.equivalence_sparse, 0);
        assert_eq!(report.skipped, 0);
        assert!(report.skips.is_empty(), "{report}");
        let text = report.to_string();
        assert!(text.contains("PASS"), "{text}");
        assert!(text.contains("layered, toffoli-ripple"), "{text}");
    }

    #[test]
    fn too_wide_cases_are_skipped_not_failed() {
        let spec = FuzzSpec {
            cases: 6,
            seed: 0,
            families: vec![Family::Qft], // widths 3..=8
            routers: vec!["trios".into()],
            devices: vec![("line:4".into(), line(4))],
            jobs: 1,
            ..FuzzSpec::new()
        };
        let report = run_fuzz(&spec).unwrap();
        assert!(report.passed(), "{report}");
        assert_eq!(report.cells + report.skipped, 6);
        assert!(report.skipped > 0, "some QFT widths exceed line:4");
    }

    #[test]
    fn wide_clifford_cells_use_the_stabilizer_backend() {
        // 20-qubit Johannesburg is far beyond the dense cap; pure-Clifford
        // cases must still get routed-vs-input equivalence via the tableau.
        let spec = FuzzSpec {
            cases: 2,
            seed: 42,
            families: vec![Family::Clifford],
            routers: vec!["trios".into()],
            devices: vec![("johannesburg".into(), trios_topology::johannesburg())],
            jobs: 1,
            ..FuzzSpec::new()
        };
        let report = run_fuzz(&spec).unwrap();
        assert!(report.passed(), "{report}");
        assert_eq!(report.cells, 2);
        assert_eq!(report.equivalence_checked, 2);
        assert_eq!(report.equivalence_stabilizer, 2, "{report}");
        assert_eq!(report.equivalence_dense, 0);
        assert_eq!(report.skipped, 0);
        assert!(report.skips.is_empty());
    }

    #[test]
    fn clifford_cells_prefer_the_stabilizer_even_under_the_dense_cap() {
        // All-Clifford pairs go to the exact tableau regardless of width:
        // with the dense cap raised to cover the whole 20-qubit line, the
        // clifford family's counters must still land on the stabilizer —
        // a 2^20-amplitude dense replay would be pure waste.
        let spec = FuzzSpec {
            cases: 4,
            seed: 2,
            families: vec![Family::Clifford],
            routers: vec!["trios".into()],
            devices: vec![("line:20".into(), line(20))],
            jobs: 1,
            max_sim_qubits: 24,
            ..FuzzSpec::new()
        };
        let report = run_fuzz(&spec).unwrap();
        assert!(report.passed(), "{report}");
        assert_eq!(report.cells, 4);
        assert_eq!(report.equivalence_stabilizer, 4, "{report}");
        assert_eq!(report.equivalence_dense, 0);
        assert_eq!(report.equivalence_sparse, 0);
    }

    #[test]
    fn wide_non_clifford_cells_use_the_sparse_backend() {
        // A clifford-t case carries T gates, so the case itself cannot be
        // tableau-checked — but on 20-qubit Johannesburg the sparse
        // backend now verifies it at full device width, with no `-stript`
        // shadow needed.
        let spec = FuzzSpec {
            cases: 1,
            seed: 7,
            families: vec![Family::CliffordT],
            routers: vec!["trios".into()],
            devices: vec![("johannesburg".into(), trios_topology::johannesburg())],
            jobs: 1,
            ..FuzzSpec::new()
        };
        let report = run_fuzz(&spec).unwrap();
        assert!(report.passed(), "{report}");
        assert_eq!(report.cells, 1, "no shadow within sparse reach");
        assert_eq!(report.equivalence_dense, 0);
        assert_eq!(report.equivalence_sparse, 1, "{report}");
        assert!(report.skips.is_empty(), "{report}");

        // Forcing the stabilizer still derives the shadow: the original
        // cell skips with a recorded reason, the shadow is tableau-checked.
        let stab_only = FuzzSpec {
            backend: Backend::Stabilizer,
            ..spec.clone()
        };
        let report = run_fuzz(&stab_only).unwrap();
        assert!(report.passed(), "{report}");
        assert_eq!(report.cells, 2, "original + -stript shadow");
        assert_eq!(report.equivalence_stabilizer, 1, "{report}");
        assert_eq!(report.skips.len(), 1);
        assert!(
            matches!(
                &report.skips[0].reason,
                SkipReason::BackendUnsupported {
                    backend: "stabilizer",
                    ..
                }
            ),
            "{report}"
        );
        assert!(!report.forced_backend_futile(), "the shadow was checked");

        // A dense-only policy derives no shadows and skips equivalence
        // entirely on a device this wide — recorded, and flagged futile.
        let dense_only = FuzzSpec {
            backend: Backend::Dense,
            ..spec
        };
        let report = run_fuzz(&dense_only).unwrap();
        assert!(report.passed(), "{report}");
        assert_eq!(report.cells, 1);
        assert_eq!(report.equivalence_checked, 0);
        assert_eq!(report.skips.len(), 1);
        assert!(report.forced_backend_futile(), "{report}");
        let text = report.to_string();
        assert!(text.contains("exceeds the dense cap"), "{text}");
    }

    #[test]
    fn sparse_budget_blowup_is_a_recorded_skip_not_a_verdict() {
        // An absurdly small budget: every sparse check aborts mid-circuit
        // with StateTooDense, which must surface as a skip (unknown
        // verdict), not a pass or an invariant failure.
        let spec = FuzzSpec {
            cases: 2,
            seed: 7,
            families: vec![Family::CliffordT],
            routers: vec!["trios".into()],
            devices: vec![("johannesburg".into(), trios_topology::johannesburg())],
            jobs: 1,
            backend: Backend::Sparse,
            max_terms: 2,
            ..FuzzSpec::new()
        };
        let report = run_fuzz(&spec).unwrap();
        assert!(report.passed(), "{report}");
        assert_eq!(report.equivalence_checked, 0);
        assert_eq!(report.skips.len(), report.cells);
        assert!(
            report
                .skips
                .iter()
                .all(|s| matches!(s.reason, SkipReason::BudgetExceeded { .. })),
            "{report}"
        );
        assert!(report.forced_backend_futile());
        assert!(report.to_string().contains("sparse budget exceeded"));
    }

    #[test]
    fn forced_dense_on_a_100_qubit_device_skips_every_cell_with_reasons() {
        // The regression the skip-reason machinery exists for: forcing
        // dense on a 100-qubit device used to read as a green PASS while
        // checking nothing.
        let spec = FuzzSpec {
            cases: 2,
            seed: 4,
            families: vec![Family::ToffoliRipple],
            routers: vec!["trios".into()],
            devices: vec![("grid:10x10".into(), grid(10, 10))],
            jobs: 1,
            backend: Backend::Dense,
            ..FuzzSpec::new()
        };
        let report = run_fuzz(&spec).unwrap();
        assert!(report.passed(), "failures and skips are distinct");
        assert!(report.cells > 0);
        assert_eq!(report.equivalence_checked, 0);
        assert_eq!(report.skips.len(), report.cells);
        assert!(report.forced_backend_futile(), "{report}");

        // The same grid under auto verifies every cell via sparse.
        let auto = FuzzSpec {
            backend: Backend::Auto,
            ..spec
        };
        let report = run_fuzz(&auto).unwrap();
        assert!(report.passed(), "{report}");
        assert_eq!(report.equivalence_checked, report.cells);
        assert_eq!(report.equivalence_sparse, report.cells, "{report}");
        assert!(!report.forced_backend_futile());
    }

    #[test]
    fn shrink_finds_a_minimal_gate_set() {
        // Predicate: fails while a CCX on qubits (0,1,2) is present.
        let mut c = Circuit::new(5);
        c.h(0).cx(0, 3).ccx(0, 1, 2).t(4).cx(3, 4);
        let fails = |candidate: &Circuit| candidate.iter().any(|i| i.gate() == trios_ir::Gate::Ccx);
        let minimal = shrink_circuit(&c, &fails);
        assert_eq!(minimal.len(), 1, "{minimal}");
        assert_eq!(minimal.num_qubits(), 3, "idle qubits compacted away");
        assert!(fails(&minimal));
    }

    #[test]
    fn shrink_returns_input_when_nothing_can_be_removed() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let minimal = shrink_circuit(&c, &|candidate: &Circuit| !candidate.is_empty());
        assert_eq!(minimal.len(), 1);
        assert_eq!(minimal.num_qubits(), 2);
    }
}
