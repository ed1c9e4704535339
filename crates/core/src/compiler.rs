//! [`Compiler`]: the builder-configured entrypoint over the pass-pipeline
//! API, including batch compilation with shared precomputation, and the
//! [`CompiledProgram`] it produces.

use crate::batch::{BatchOutcome, BatchReport};
use crate::cache::{CompilationCache, CompileJob};
use crate::context::{CompileContext, ProgramSchedule, RouterTrace};
use crate::manager::PassManager;
use crate::report::{CompileReport, CompileStats};
use crate::{CompileOptions, Diagnostic, PaperConfig};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use trios_ir::Circuit;
use trios_noise::{estimate_success, Calibration, SuccessEstimate};
use trios_passes::{DecomposerRegistry, OptimizeOptions};
use trios_route::{
    DirectionPolicy, InitialMapping, Layout, LookaheadConfig, PathMetric, StrategyRegistry,
};
use trios_topology::Topology;

/// A fully compiled program: hardware gate set, coupling-legal, scheduled.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// The executable circuit over physical qubits (1q gates, CX, and
    /// measurements only; every CX on a coupling edge).
    pub circuit: Circuit,
    /// Where each logical qubit started.
    pub initial_layout: Layout,
    /// Where each logical qubit ended.
    pub final_layout: Layout,
    /// Static metrics.
    pub stats: CompileStats,
}

impl CompiledProgram {
    /// Success probability under the paper's §2.6 model.
    pub fn estimate_success(&self, calibration: &Calibration) -> SuccessEstimate {
        estimate_success(&self.circuit, calibration)
    }
}

/// Appends measurements of the listed logical qubits to a copy of
/// `circuit` — the form the success-rate experiments compile (the paper
/// measures the three qubits of interest in the Toffoli experiments, and
/// all data qubits in the benchmark studies).
pub fn with_measurements(circuit: &Circuit, qubits: &[usize]) -> Circuit {
    let mut out = circuit.clone();
    for &q in qubits {
        out.measure(q);
    }
    out
}

/// The compiler, configured once and reusable across circuits and
/// topologies.
///
/// Construct with [`Compiler::builder`] (or [`Compiler::new`] from
/// existing [`CompileOptions`]); compile with [`Compiler::compile`],
/// [`Compiler::compile_with_report`] (adds per-pass instrumentation), or
/// [`Compiler::compile_batch`] (many circuits, one device, on worker
/// threads, optionally through a [`CompilationCache`]).
///
/// # Examples
///
/// ```
/// use trios_core::{Compiler, PaperConfig};
/// use trios_ir::Circuit;
/// use trios_topology::johannesburg;
///
/// let mut program = Circuit::new(3);
/// program.ccx(0, 1, 2);
///
/// let compiler = Compiler::builder().config(PaperConfig::Trios).seed(7).build();
/// let (compiled, report) = compiler.compile_with_report(&program, &johannesburg())?;
/// assert!(compiled.circuit.is_hardware_lowered());
/// assert!(report.pass("route-trios").is_some());
/// # Ok::<(), trios_core::Diagnostic>(())
/// ```
#[derive(Debug, Clone)]
pub struct Compiler {
    options: CompileOptions,
    registry: StrategyRegistry,
    decomposers: DecomposerRegistry,
}

impl PartialEq for Compiler {
    fn eq(&self, other: &Self) -> bool {
        // Registries hold constructors, which cannot be compared; two
        // compilers are equal when they run the same options over
        // registries exposing the same strategy names.
        self.options == other.options
            && self.registry.names().eq(other.registry.names())
            && self.decomposers.names().eq(other.decomposers.names())
    }
}

impl Compiler {
    /// Starts building a compiler from the default (full-Trios) options.
    pub fn builder() -> CompilerBuilder {
        CompilerBuilder::default()
    }

    /// A compiler running exactly `options` over the standard
    /// [`StrategyRegistry`] and [`DecomposerRegistry`].
    pub fn new(options: CompileOptions) -> Self {
        Compiler::with_registries(
            options,
            StrategyRegistry::standard(),
            DecomposerRegistry::standard(),
        )
    }

    /// A compiler resolving [`CompileOptions::router_name`] and
    /// [`CompileOptions::decomposer_name`] in caller-supplied registries —
    /// the injection point for custom
    /// [`RoutingStrategy`](trios_route::RoutingStrategy) and
    /// [`DecompositionStrategy`](trios_passes::DecompositionStrategy)
    /// implementations into every compile path, including the parallel
    /// batch compiler and [`fuzz`](crate::fuzz). The builder's
    /// [`CompilerBuilder::strategies`] and
    /// [`CompilerBuilder::decomposer_strategies`] replace one registry at a
    /// time.
    pub fn with_registries(
        options: CompileOptions,
        registry: StrategyRegistry,
        decomposers: DecomposerRegistry,
    ) -> Self {
        Compiler {
            options,
            registry,
            decomposers,
        }
    }

    /// The configuration this compiler runs.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// The strategy registry this compiler resolves routers in.
    pub fn strategies(&self) -> &StrategyRegistry {
        &self.registry
    }

    /// The registry this compiler resolves Toffoli/CCZ decomposers in.
    pub fn decomposer_strategies(&self) -> &DecomposerRegistry {
        &self.decomposers
    }

    fn pass_manager(&self) -> PassManager {
        PassManager::for_options_with_registries(&self.options, &self.registry, &self.decomposers)
    }

    /// Compiles one circuit for one device.
    ///
    /// # Errors
    ///
    /// Returns the first failing pass's [`Diagnostic`].
    pub fn compile(
        &self,
        circuit: &Circuit,
        topology: &Topology,
    ) -> Result<CompiledProgram, Diagnostic> {
        self.compile_with_report(circuit, topology)
            .map(|(compiled, _)| compiled)
    }

    /// Compiles one circuit and additionally returns the per-pass
    /// [`CompileReport`] (wall times, gate-count deltas).
    ///
    /// # Errors
    ///
    /// Returns the first failing pass's [`Diagnostic`].
    pub fn compile_with_report(
        &self,
        circuit: &Circuit,
        topology: &Topology,
    ) -> Result<(CompiledProgram, CompileReport), Diagnostic> {
        let mut manager = self.pass_manager();
        self.run_pipeline(&mut manager, circuit, topology)
    }

    /// Compiles many circuits over one device on up to `jobs` workers,
    /// returning each circuit's program and [`CompileReport`] in **input
    /// order** plus an aggregate [`BatchReport`], and optionally consulting
    /// (and filling) a shared [`CompilationCache`].
    ///
    /// The calling thread is one of the workers: the batch spawns `jobs −
    /// 1` scoped threads ([`std::thread::scope`]) and runs the last worker
    /// itself, so `jobs = 1` (or a batch of one circuit) compiles inline
    /// and spawns nothing. `jobs = 0` counts as 1, and `jobs` is capped at
    /// the number of circuits. Each worker claims the next circuit index
    /// and reuses one pass pipeline for all its circuits, so the pipeline
    /// — its passes and the strategy registries they resolve names in —
    /// is built once per worker instead of once per circuit.
    ///
    /// Output is byte-identical to calling [`Compiler::compile`] on each
    /// circuit: compilation is deterministic per job — stochastic choices
    /// are seeded from [`CompileOptions::seed`], routing tie-breaks are by
    /// lowest qubit index — and each result lands in the slot of its input
    /// index, so worker scheduling cannot reorder or perturb anything.
    ///
    /// A cache hit replays the stored program and report without running
    /// any pass; because compilation is deterministic, hits are
    /// indistinguishable from recompiling apart from the recorded
    /// wall times. Keep one cache across repeated batches (workload
    /// sweeps, ablations) to skip every previously-seen job.
    ///
    /// With a cache, a circuit whose cache key equals an earlier circuit's
    /// in the same batch never compiles alongside it: it waits for a
    /// second round, which starts once every first occurrence has
    /// finished and inserted. So it counts as a hit, in the
    /// [`BatchReport`] and in the cache's own counters, at every `jobs`
    /// (unless the cache evicted the entry in between or has capacity 0).
    ///
    /// # Errors
    ///
    /// Returns the lowest-index failing circuit's [`BatchDiagnostic`], at
    /// every worker count. Workers stop picking up new circuits once any
    /// failure is observed; circuits before the failing index are still
    /// compiled (they were claimed earlier), so the reported failure is
    /// the first in input order.
    pub fn compile_batch(
        &self,
        circuits: &[Circuit],
        topology: &Topology,
        jobs: usize,
        cache: Option<&CompilationCache>,
    ) -> Result<BatchOutcome, BatchDiagnostic> {
        type Slot = Option<Result<(CompiledProgram, CompileReport, bool), Diagnostic>>;
        let started = Instant::now();
        let jobs = jobs.max(1).min(circuits.len().max(1));
        let slots: Vec<Mutex<Slot>> = circuits.iter().map(|_| Mutex::new(None)).collect();
        let keys: Vec<Option<u64>> = circuits
            .iter()
            .map(|circuit| cache.map(|_| CompilationCache::key(circuit, topology, &self.options)))
            .collect();
        // The first occurrence of each key compiles in the first round;
        // its repeats are looked up in the second, once it has inserted.
        let mut seen = HashSet::new();
        let (mut first, mut repeats) = (Vec::with_capacity(circuits.len()), Vec::new());
        for (index, key) in keys.iter().enumerate() {
            match key {
                Some(key) if !seen.insert(*key) => repeats.push(index),
                _ => first.push(index),
            }
        }
        let failed = AtomicBool::new(false);
        for round in [first, repeats] {
            if round.is_empty() || failed.load(Ordering::Relaxed) {
                continue;
            }
            let next = AtomicUsize::new(0);
            let worker = || {
                // One pipeline per worker, reused across its circuits, so
                // the passes and their registries are built once per
                // worker, not once per circuit.
                let mut manager = self.pass_manager();
                loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let Some(&index) = round.get(next.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
                    let cached = cache.zip(keys[index]);
                    let outcome =
                        self.compile_one_cached(&mut manager, &circuits[index], topology, cached);
                    if outcome.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    *slots[index].lock().expect("batch slot lock poisoned") = Some(outcome);
                }
            };
            // The calling thread is the last of the round's workers, so
            // `jobs = 1` compiles inline and spawns nothing.
            std::thread::scope(|scope| {
                for _ in 1..jobs.min(round.len()) {
                    scope.spawn(worker);
                }
                worker();
            });
        }
        let slots = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("batch slot lock poisoned"));
        // A round claims its circuits in index order and every claimed
        // circuit completes, so the first error in index order is the
        // lowest-index failure: a repeat fails only if the earlier circuit
        // with its key does, and after a failure no second round runs.
        if failed.into_inner() {
            let (index, diagnostic) = slots
                .enumerate()
                .find_map(|(index, slot)| match slot {
                    Some(Err(diagnostic)) => Some((index, diagnostic)),
                    _ => None,
                })
                .expect("a recorded failure fills its slot");
            return Err(BatchDiagnostic { index, diagnostic });
        }
        let mut results = Vec::with_capacity(circuits.len());
        let mut fresh = Vec::with_capacity(circuits.len());
        for (index, slot) in slots.enumerate() {
            match slot {
                Some(Ok((program, report, was_hit))) => {
                    results.push((program, report));
                    fresh.push(!was_hit);
                }
                _ => {
                    unreachable!("batch slot {index} unfilled or failed without a recorded failure")
                }
            }
        }
        let report = BatchReport::aggregate(&results, &fresh, jobs, started.elapsed());
        Ok(BatchOutcome { results, report })
    }

    fn compile_one_cached(
        &self,
        manager: &mut PassManager,
        circuit: &Circuit,
        topology: &Topology,
        cached: Option<(&CompilationCache, u64)>,
    ) -> Result<(CompiledProgram, CompileReport, bool), Diagnostic> {
        // The caller owns its results, so a hit decodes the program and
        // report out of the shared entry, and a miss stores them packed.
        if let Some((cache, key)) = cached {
            if let Some(entry) = cache.lookup(key, circuit, topology, &self.options) {
                return Ok((entry.program(), entry.report(), true));
            }
        }
        let (program, report) = self.run_pipeline(manager, circuit, topology)?;
        if let Some((cache, key)) = cached {
            let job = CompileJob::new(circuit, topology, self.options.clone());
            cache.store(key, job, &program, &report.passes);
        }
        Ok((program, report, false))
    }

    fn run_pipeline(
        &self,
        manager: &mut PassManager,
        circuit: &Circuit,
        topology: &Topology,
    ) -> Result<(CompiledProgram, CompileReport), Diagnostic> {
        let mut cx = CompileContext::new(circuit.clone(), topology, &self.options);
        let records = manager.run(&mut cx)?;
        let duration_us = cx
            .artifacts
            .get::<ProgramSchedule>()
            .map(|s| s.0.total_duration_us())
            .unwrap_or_default();
        // The last pass record already carries the final circuit's counts
        // and depth; rescan only when the pipeline ran no passes.
        let (counts, depth) = match records.last() {
            Some(last) => (last.gates_after, last.depth_after),
            None => cx.circuit.counts_and_depth(),
        };
        let mut stats = CompileStats::new(cx.swap_count, counts, depth, duration_us);
        stats.mean_gather_distance = cx
            .artifacts
            .get::<RouterTrace>()
            .and_then(|trace| trace.0.mean_gather_distance());
        let initial_layout = cx.initial_layout.take().ok_or_else(|| {
            Diagnostic::validation("compile", "pipeline produced no initial layout")
        })?;
        let final_layout = cx.final_layout.take().ok_or_else(|| {
            Diagnostic::validation("compile", "pipeline produced no final layout")
        })?;
        let report = CompileReport::new(records, stats);
        let compiled = CompiledProgram {
            circuit: cx.circuit,
            initial_layout,
            final_layout,
            stats,
        };
        Ok((compiled, report))
    }
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler::new(CompileOptions::default())
    }
}

/// A failure while compiling one circuit of a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchDiagnostic {
    /// Index of the failing circuit in the input slice.
    pub index: usize,
    /// The failure itself.
    pub diagnostic: Diagnostic,
}

impl fmt::Display for BatchDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "circuit {} failed: {}", self.index, self.diagnostic)
    }
}

impl Error for BatchDiagnostic {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.diagnostic)
    }
}

/// Fluent configuration for a [`Compiler`].
///
/// Starts from [`CompileOptions::default`] (the paper's full Trios);
/// every setter overrides one knob. [`CompilerBuilder::config`] applies a
/// named [`PaperConfig`] wholesale.
#[derive(Debug, Clone, Default)]
pub struct CompilerBuilder {
    options: CompileOptions,
    registry: Option<StrategyRegistry>,
    decomposers: Option<DecomposerRegistry>,
}

impl PartialEq for CompilerBuilder {
    fn eq(&self, other: &Self) -> bool {
        let names = |r: &Option<StrategyRegistry>| -> Option<Vec<String>> {
            r.as_ref().map(|r| r.names().map(str::to_string).collect())
        };
        let dnames = |r: &Option<DecomposerRegistry>| -> Option<Vec<String>> {
            r.as_ref().map(|r| r.names().map(str::to_string).collect())
        };
        self.options == other.options
            && names(&self.registry) == names(&other.registry)
            && dnames(&self.decomposers) == dnames(&other.decomposers)
    }
}

impl CompilerBuilder {
    /// Applies a named paper configuration — its router, Toffoli
    /// decomposition, and (stochastic) direction policy — leaving every
    /// other knob set on this builder untouched.
    pub fn config(mut self, config: PaperConfig) -> Self {
        let named = config.to_options(self.options.seed);
        self.options.router = named.router;
        self.options.decomposer = named.decomposer;
        self.options.direction = named.direction;
        self
    }

    /// Replaces all options at once.
    pub fn options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// Routing strategy by registry name (`"baseline"`, `"trios"`,
    /// `"trios-lookahead"`, `"trios-noise"`), overriding the default
    /// `"trios"`. The router also picks the pass structure of the paper's
    /// Figure 2 (see [`CompileOptions::router`]).
    pub fn router(mut self, router: impl Into<String>) -> Self {
        self.options.router = Some(router.into());
        self
    }

    /// Toffoli/CCZ decomposition strategy by registry name (`"standard"`,
    /// `"six"`, `"eight"`, `"tdepth"`, `"relative-phase"`, `"qutrit"`),
    /// overriding the connectivity-aware default.
    pub fn decomposer(mut self, name: impl Into<String>) -> Self {
        self.options.decomposer = Some(name.into());
        self
    }

    /// Initial placement strategy.
    pub fn mapping(mut self, mapping: InitialMapping) -> Self {
        self.options.mapping = mapping;
        self
    }

    /// Which endpoint moves when routing distant pairs.
    pub fn direction(mut self, direction: DirectionPolicy) -> Self {
        self.options.direction = direction;
        self
    }

    /// Path metric (hops or noise-aware edge weights).
    pub fn metric(mut self, metric: PathMetric) -> Self {
        self.options.metric = metric;
        self
    }

    /// Seed for stochastic choices.
    pub fn seed(mut self, seed: u64) -> Self {
        self.options.seed = seed;
        self
    }

    /// Post-routing gate-level optimizations.
    pub fn optimize(mut self, optimize: OptimizeOptions) -> Self {
        self.options.optimize = optimize;
        self
    }

    /// Windowed-lookahead pair routing (`None` = committed shortest-path
    /// walks, as in the paper's experiments).
    pub fn lookahead(mut self, lookahead: Option<LookaheadConfig>) -> Self {
        self.options.lookahead = lookahead;
        self
    }

    /// Implement distance-2 CNOTs as 4-CNOT bridges instead of
    /// SWAP-then-CNOT.
    pub fn bridge(mut self, bridge: bool) -> Self {
        self.options.bridge = bridge;
        self
    }

    /// Whether to run the `validate` pass (hardware gate set + coupling
    /// legality as real, recoverable errors). On by default.
    pub fn validate(mut self, validate: bool) -> Self {
        self.options.validate = validate;
        self
    }

    /// Resolves routers in `registry` instead of the standard one, so
    /// custom [`RoutingStrategy`](trios_route::RoutingStrategy)
    /// registrations are selectable by name through every compile path.
    pub fn strategies(mut self, registry: StrategyRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Resolves decomposers in `registry` instead of the standard one, so
    /// custom [`DecompositionStrategy`](trios_passes::DecompositionStrategy)
    /// registrations are selectable by name through every compile path.
    pub fn decomposer_strategies(mut self, registry: DecomposerRegistry) -> Self {
        self.decomposers = Some(registry);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Compiler {
        Compiler::with_registries(
            self.options,
            self.registry.unwrap_or_else(StrategyRegistry::standard),
            self.decomposers
                .unwrap_or_else(DecomposerRegistry::standard),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trios_route::{check_legal, ToffoliPolicy};
    use trios_sim::{DenseSimulator, Simulator};
    use trios_topology::{johannesburg, line, PaperDevice};

    fn verify(original: &Circuit, compiled: &CompiledProgram) -> bool {
        DenseSimulator::new(1e-8)
            .compiled_equivalent(
                original,
                &compiled.circuit,
                &compiled.initial_layout.to_mapping(),
                &compiled.final_layout.to_mapping(),
                2,
                11,
            )
            .unwrap()
    }

    #[test]
    fn builder_defaults_to_full_trios() {
        let compiler = Compiler::builder().build();
        assert_eq!(compiler.options().router_name(), "trios");
        assert_eq!(compiler.options().decomposer_name(), "standard");
        assert!(compiler.options().validate);
    }

    #[test]
    fn builder_setters_override_knobs() {
        let compiler = Compiler::builder()
            .router("baseline")
            .decomposer("eight")
            .direction(DirectionPolicy::MoveFirst)
            .seed(9)
            .bridge(true)
            .validate(false)
            .build();
        let o = compiler.options();
        assert_eq!(o.router_name(), "baseline");
        assert_eq!(o.decomposer_name(), "eight");
        assert_eq!(o.direction, DirectionPolicy::MoveFirst);
        assert_eq!(o.seed, 9);
        assert!(o.bridge);
        assert!(!o.validate);
    }

    #[test]
    fn config_preserves_seed() {
        let compiler = Compiler::builder()
            .seed(42)
            .config(PaperConfig::QiskitEight)
            .build();
        assert_eq!(compiler.options().seed, 42);
        assert_eq!(compiler.options().router_name(), "baseline");
        assert_eq!(compiler.options().decomposer_name(), "eight");
    }

    #[test]
    fn config_preserves_other_knobs_regardless_of_order() {
        let compiler = Compiler::builder()
            .validate(false)
            .bridge(true)
            .mapping(InitialMapping::Fixed(vec![0, 1, 2]))
            .config(PaperConfig::Trios)
            .build();
        let o = compiler.options();
        assert!(!o.validate, ".config must not reset validate");
        assert!(o.bridge, ".config must not reset bridge");
        assert_eq!(o.mapping, InitialMapping::Fixed(vec![0, 1, 2]));
        assert_eq!(o.router_name(), "trios");
    }

    #[test]
    fn named_routers_compile_and_match_pipeline_defaults() {
        let mut program = Circuit::new(4);
        program.h(0).ccx(0, 1, 2).cx(2, 3);
        let topo = johannesburg();
        // Naming "trios" is byte-identical to leaving the router unset.
        let trios_default = Compiler::builder().seed(3).build();
        let trios_named = Compiler::builder().seed(3).router("trios").build();
        assert_eq!(
            trios_default.compile(&program, &topo).unwrap(),
            trios_named.compile(&program, &topo).unwrap()
        );
        // The new strategies compile end to end and report their own pass
        // names.
        for (router, pass) in [
            ("trios-lookahead", "route-trios-lookahead"),
            ("trios-noise", "route-trios-noise"),
        ] {
            let compiler = Compiler::builder().seed(3).router(router).build();
            let (compiled, report) = compiler.compile_with_report(&program, &topo).unwrap();
            assert!(compiled.circuit.is_hardware_lowered(), "{router}");
            assert!(report.pass(pass).is_some(), "{router}");
        }
    }

    #[test]
    fn unknown_router_is_a_clean_diagnostic() {
        let mut program = Circuit::new(3);
        program.ccx(0, 1, 2);
        let compiler = Compiler::builder().router("sabre").build();
        let err = compiler.compile(&program, &johannesburg()).unwrap_err();
        assert!(matches!(err, Diagnostic::Validation { .. }));
        let text = err.to_string();
        assert!(text.contains("sabre"), "{text}");
        assert!(text.contains("trios-lookahead"), "{text}");
    }

    #[test]
    fn report_covers_every_stage_with_timings() {
        let mut program = Circuit::new(3);
        program.ccx(0, 1, 2);
        let compiler = Compiler::builder().seed(1).build();
        let (compiled, report) = compiler
            .compile_with_report(&program, &johannesburg())
            .unwrap();
        assert_eq!(
            report.pass_names().collect::<Vec<_>>(),
            [
                "initial-mapping",
                "route-trios",
                "lower",
                "optimize",
                "validate",
                "schedule"
            ]
        );
        // Routing grows the circuit; optimize never grows it.
        assert!(report.pass("route-trios").unwrap().total_delta() > 0);
        assert!(report.pass("optimize").unwrap().total_delta() <= 0);
        assert_eq!(report.stats, compiled.stats);
        assert!(report.total_time >= report.passes.iter().map(|p| p.wall_time).max().unwrap());
    }

    #[test]
    fn stats_carry_mean_gather_distance_for_trio_routing_only() {
        let mut program = Circuit::new(5);
        program.ccx(0, 2, 4);
        let topo = johannesburg();
        // Trio routing records gather events; the (6-17-3)-style distant
        // trivial placement guarantees a positive gather distance.
        let trios = Compiler::builder().seed(1).build();
        let compiled = trios.compile(&program, &topo).unwrap();
        let gather = compiled.stats.mean_gather_distance.unwrap();
        assert!(gather > 0.0, "distant trio must report a gather distance");
        // The decompose-first baseline records no trio events.
        let baseline = Compiler::builder().seed(1).router("baseline").build();
        let compiled = baseline.compile(&program, &topo).unwrap();
        assert_eq!(compiled.stats.mean_gather_distance, None);
        // A Toffoli-free program reports None even under trio routing.
        let mut pairs_only = Circuit::new(3);
        pairs_only.h(0).cx(0, 2);
        let compiled = trios.compile(&pairs_only, &topo).unwrap();
        assert_eq!(compiled.stats.mean_gather_distance, None);
    }

    #[test]
    fn parallel_batch_matches_sequential_batch() {
        let mut circuits = Vec::new();
        for width in [3, 4, 5, 6] {
            let mut c = Circuit::new(width);
            c.h(0).ccx(0, 1, 2).cx(width - 1, 0);
            circuits.push(c);
        }
        let topo = johannesburg();
        let compiler = Compiler::builder().seed(11).build();
        let sequential: Vec<CompiledProgram> = circuits
            .iter()
            .map(|c| compiler.compile(c, &topo).unwrap())
            .collect();
        for jobs in [1, 2, 4, 16] {
            let outcome = compiler
                .compile_batch(&circuits, &topo, jobs, None)
                .unwrap();
            let parallel: Vec<CompiledProgram> =
                outcome.results.into_iter().map(|(p, _)| p).collect();
            assert_eq!(parallel, sequential, "jobs = {jobs}");
        }
    }

    #[test]
    fn parallel_batch_reports_and_caches() {
        let mut circuits = Vec::new();
        for _ in 0..3 {
            let mut c = Circuit::new(3);
            c.ccx(0, 1, 2);
            circuits.push(c); // 3 identical jobs: 1 miss + 2 hits
        }
        let topo = johannesburg();
        let compiler = Compiler::builder().seed(2).build();
        let cache = CompilationCache::new(16);
        let outcome = compiler
            .compile_batch(&circuits, &topo, 1, Some(&cache))
            .unwrap();
        assert_eq!(outcome.results.len(), 3);
        assert_eq!(outcome.report.circuits, 3);
        assert_eq!(outcome.report.cache_hits, 2);
        assert_eq!(outcome.report.cache_misses, 1);
        assert_eq!(outcome.report.pass("route-trios").unwrap().runs, 1);
        // Hits replay the exact same result.
        assert_eq!(outcome.results[0], outcome.results[1]);
        assert_eq!(outcome.results[0], outcome.results[2]);
        // A second, warm batch over the same jobs is all hits.
        let warm = compiler
            .compile_batch(&circuits, &topo, 2, Some(&cache))
            .unwrap();
        assert_eq!(warm.report.cache_hits, 3);
        assert_eq!(warm.report.cache_misses, 0);
        assert_eq!(warm.results, outcome.results);
    }

    #[test]
    fn parallel_batch_error_is_lowest_failing_index() {
        let ok = Circuit::new(3);
        let too_wide = Circuit::new(25);
        let batch = vec![ok.clone(), too_wide.clone(), ok, too_wide];
        let compiler = Compiler::default();
        for jobs in [1, 2, 4] {
            let err = compiler
                .compile_batch(&batch, &johannesburg(), jobs, None)
                .unwrap_err();
            assert_eq!(err.index, 1, "jobs = {jobs}");
            // With a cache the repeats wait for a second round, which a
            // failure in the first one skips.
            let cache = CompilationCache::new(16);
            let err = compiler
                .compile_batch(&batch, &johannesburg(), jobs, Some(&cache))
                .unwrap_err();
            assert_eq!(err.index, 1, "jobs = {jobs}, cached");
        }
    }

    /// A router that holds each routing run until `needed` runs have
    /// entered it, so that many workers are provably in flight together,
    /// then routes like `trios`.
    struct GatedRouter {
        needed: usize,
        entered: std::sync::Arc<(Mutex<usize>, std::sync::Condvar)>,
    }

    impl trios_route::RoutingStrategy for GatedRouter {
        fn name(&self) -> &str {
            "gated"
        }

        fn route(
            &self,
            circuit: &Circuit,
            topology: &Topology,
            layout: Layout,
            options: &trios_route::RouterOptions,
        ) -> Result<trios_route::RoutedCircuit, trios_route::RouteError> {
            let (count, arrived) = &*self.entered;
            let mut count = count.lock().unwrap();
            *count += 1;
            arrived.notify_all();
            let (count, wait) = arrived
                .wait_timeout_while(count, std::time::Duration::from_secs(60), |n| {
                    *n < self.needed
                })
                .unwrap();
            assert!(
                !wait.timed_out(),
                "only {} of {} routing runs arrived",
                *count,
                self.needed
            );
            drop(count);
            trios_route::RoutingEngine::new(topology, layout, options, circuit)?.run(circuit, true)
        }
    }

    #[test]
    fn a_repeated_key_in_one_batch_hits_at_every_worker_count() {
        // Indices 0 and 1 share a key. With two or more workers, the
        // first two routing runs are held until both have started: had
        // the two copies compiled side by side, both would have missed.
        let mut a = Circuit::new(4);
        a.h(0).ccx(0, 1, 3).cx(3, 2);
        let mut b = Circuit::new(4);
        b.ccx(3, 1, 0);
        let circuits = [a.clone(), a, b];
        let topo = line(5);
        for jobs in [1, 2, 3] {
            let entered = std::sync::Arc::new((Mutex::new(0), std::sync::Condvar::new()));
            let mut registry = StrategyRegistry::standard();
            let gate = std::sync::Arc::clone(&entered);
            registry.register("gated", move || {
                Box::new(GatedRouter {
                    needed: jobs.min(2),
                    entered: std::sync::Arc::clone(&gate),
                })
            });
            let compiler = Compiler::builder()
                .router("gated")
                .strategies(registry)
                .seed(3)
                .build();
            let cache = CompilationCache::new(16);
            let outcome = compiler
                .compile_batch(&circuits, &topo, jobs, Some(&cache))
                .unwrap();
            let report = &outcome.report;
            assert_eq!(
                (report.cache_hits, report.cache_misses),
                (1, 2),
                "jobs = {jobs}"
            );
            assert_eq!((cache.hits(), cache.misses()), (1, 2), "jobs = {jobs}");
            assert_eq!(*entered.0.lock().unwrap(), 2, "jobs = {jobs}");
            assert_eq!(outcome.results[0], outcome.results[1]);
            let direct = compiler.compile(&circuits[1], &topo).unwrap();
            assert_eq!(outcome.results[1].0, direct);
        }
    }

    #[test]
    fn parallel_batch_handles_empty_and_zero_jobs() {
        let compiler = Compiler::default();
        let topo = johannesburg();
        assert!(compiler
            .compile_batch(&[], &topo, 4, None)
            .unwrap()
            .results
            .is_empty());
        // jobs = 0 is clamped to one worker rather than hanging.
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        let out = compiler
            .compile_batch(std::slice::from_ref(&c), &topo, 0, None)
            .unwrap();
        assert_eq!(out.results[0].0, compiler.compile(&c, &topo).unwrap());
    }

    #[test]
    fn batch_error_reports_failing_index() {
        let ok = Circuit::new(3);
        let too_wide = Circuit::new(25);
        let compiler = Compiler::default();
        let err = compiler
            .compile_batch(&[ok, too_wide], &johannesburg(), 1, None)
            .unwrap_err();
        assert_eq!(err.index, 1);
        assert!(matches!(err.diagnostic, Diagnostic::Routing { .. }));
        assert!(err.to_string().contains("circuit 1"));
    }

    #[test]
    fn compiles_single_toffoli_all_paper_configs() {
        let mut program = Circuit::new(3);
        program.ccx(0, 1, 2);
        let topo = johannesburg();
        for config in PaperConfig::FIG6 {
            let compiled = Compiler::new(config.to_options(0))
                .compile(&program, &topo)
                .unwrap();
            assert!(compiled.circuit.is_hardware_lowered(), "{config:?}");
            assert!(
                check_legal(&compiled.circuit, &topo, ToffoliPolicy::Forbid).is_ok(),
                "{config:?}"
            );
            assert!(verify(&program, &compiled), "{config:?}");
        }
    }

    /// Compiles `program` under a paper configuration with the three
    /// logical qubits pinned to `place`.
    fn compile_pinned(
        program: &Circuit,
        topo: &Topology,
        config: PaperConfig,
        place: &[usize],
    ) -> CompiledProgram {
        Compiler::builder()
            .config(config)
            .mapping(InitialMapping::Fixed(place.to_vec()))
            .build()
            .compile(program, topo)
            .unwrap()
    }

    #[test]
    fn trios_beats_baseline_on_distant_toffoli() {
        let mut program = Circuit::new(3);
        program.ccx(0, 1, 2);
        let topo = johannesburg();
        let base = compile_pinned(&program, &topo, PaperConfig::QiskitBaseline, &[6, 17, 3]);
        let trios = compile_pinned(&program, &topo, PaperConfig::Trios, &[6, 17, 3]);
        assert!(
            trios.stats.two_qubit_gates < base.stats.two_qubit_gates,
            "trios {} vs baseline {}",
            trios.stats.two_qubit_gates,
            base.stats.two_qubit_gates
        );
        assert!(verify(&program, &trios));
        assert!(verify(&program, &base));
    }

    #[test]
    fn success_estimate_orders_with_gate_count() {
        let mut program = Circuit::new(3);
        program.ccx(0, 1, 2);
        let program = with_measurements(&program, &[0, 1, 2]);
        let topo = johannesburg();
        let cal = Calibration::johannesburg_2020_08_19();
        let ps: Vec<f64> = [PaperConfig::QiskitBaseline, PaperConfig::TriosEight]
            .into_iter()
            .map(|config| {
                compile_pinned(&program, &topo, config, &[0, 12, 15])
                    .estimate_success(&cal)
                    .probability()
            })
            .collect();
        assert!(
            ps[1] > ps[0],
            "Trios-8 ({}) should beat baseline ({})",
            ps[1],
            ps[0]
        );
    }

    #[test]
    fn stats_are_consistent() {
        let mut program = Circuit::new(4);
        program.h(0).ccx(0, 1, 2).cx(2, 3);
        let topo = line(6);
        let compiled = Compiler::builder()
            .seed(4)
            .build()
            .compile(&program, &topo)
            .unwrap();
        let counts = compiled.circuit.counts();
        assert_eq!(compiled.stats.two_qubit_gates, counts.two_qubit);
        assert_eq!(compiled.stats.one_qubit_gates, counts.one_qubit);
        assert_eq!(compiled.stats.depth, compiled.circuit.depth());
        assert!(compiled.stats.duration_us > 0.0);
    }

    #[test]
    fn toffoli_free_circuits_identical_across_pipelines() {
        // The paper's control claim: Trios has no effect without Toffolis.
        let mut program = Circuit::new(5);
        program.h(0).cx(0, 4).cx(1, 3).cx(2, 4).h(2);
        let topo = line(5);
        let compile = |router: &str| {
            Compiler::builder()
                .router(router)
                .direction(DirectionPolicy::MoveFirst)
                .build()
                .compile(&program, &topo)
                .unwrap()
        };
        let base = compile("baseline");
        let trios = compile("trios");
        assert_eq!(base.circuit, trios.circuit);
        assert_eq!(base.stats, trios.stats);
    }

    #[test]
    fn all_paper_devices_compile_a_toffoli_program() {
        let mut program = Circuit::new(6);
        program.h(0).ccx(0, 2, 4).ccx(1, 3, 5).cx(0, 5);
        let compiler = Compiler::builder().seed(2).build();
        for device in PaperDevice::ALL {
            let topo = device.build();
            let compiled = compiler.compile(&program, &topo).unwrap();
            assert!(
                check_legal(&compiled.circuit, &topo, ToffoliPolicy::Forbid).is_ok(),
                "{device:?}"
            );
            assert!(verify(&program, &compiled), "{device:?}");
        }
    }

    #[test]
    fn extended_three_qubit_gates_compile_on_both_pipelines() {
        // The §4 extension: ccz and cswap ride the same trio machinery.
        let mut program = Circuit::new(6);
        program.h(0).ccz(0, 2, 4).cswap(1, 3, 5).ccx(0, 1, 5);
        let topo = johannesburg();
        for router in ["baseline", "trios"] {
            let compiled = Compiler::builder()
                .router(router)
                .seed(3)
                .build()
                .compile(&program, &topo)
                .unwrap();
            assert!(compiled.circuit.is_hardware_lowered(), "{router}");
            assert!(
                check_legal(&compiled.circuit, &topo, ToffoliPolicy::Forbid).is_ok(),
                "{router}"
            );
            assert!(verify(&program, &compiled), "{router}");
        }
    }

    #[test]
    fn trios_beats_baseline_on_distant_ccz() {
        // CCZ profits from the same gather + symmetric decomposition.
        let mut program = Circuit::new(3);
        program.ccz(0, 1, 2);
        let topo = johannesburg();
        let base = compile_pinned(&program, &topo, PaperConfig::QiskitBaseline, &[6, 17, 3]);
        let trios = compile_pinned(&program, &topo, PaperConfig::Trios, &[6, 17, 3]);
        assert!(
            trios.stats.two_qubit_gates < base.stats.two_qubit_gates,
            "trios {} vs baseline {}",
            trios.stats.two_qubit_gates,
            base.stats.two_qubit_gates
        );
        assert!(verify(&program, &trios));
        assert!(verify(&program, &base));
    }
}
