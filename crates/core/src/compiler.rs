//! [`Compiler`]: the builder-configured entrypoint over the pass-pipeline
//! API, including batch compilation with shared precomputation.

use crate::batch::{BatchOutcome, BatchReport};
use crate::cache::CompilationCache;
use crate::context::{CompileContext, ProgramSchedule, RouterTrace};
use crate::manager::PassManager;
use crate::report::{CompileReport, CompileStats};
use crate::{CompileOptions, CompiledProgram, Diagnostic, PaperConfig, Pipeline};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use trios_ir::Circuit;
use trios_passes::{DecomposerRegistry, OptimizeOptions};
use trios_route::{DirectionPolicy, InitialMapping, LookaheadConfig, PathMetric, StrategyRegistry};
use trios_topology::Topology;

/// The compiler, configured once and reusable across circuits and
/// topologies.
///
/// Construct with [`Compiler::builder`] (or [`Compiler::new`] from
/// existing [`CompileOptions`]); compile with [`Compiler::compile`],
/// [`Compiler::compile_with_report`] (adds per-pass instrumentation), or
/// [`Compiler::compile_batch`] (many circuits, one device, shared
/// precomputation).
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
    /// [`StrategyRegistry`].
    pub fn new(options: CompileOptions) -> Self {
        Compiler::with_strategies(options, StrategyRegistry::standard())
    }

    /// A compiler resolving [`CompileOptions::router_name`] in a
    /// caller-supplied registry — the injection point for custom
    /// [`RoutingStrategy`](trios_route::RoutingStrategy) implementations
    /// into every compile path, including the parallel batch compiler
    /// and [`fuzz`](crate::fuzz).
    pub fn with_strategies(options: CompileOptions, registry: StrategyRegistry) -> Self {
        Compiler::with_registries(options, registry, DecomposerRegistry::standard())
    }

    /// A compiler resolving both [`CompileOptions::router_name`] and
    /// [`CompileOptions::decomposer_name`] in caller-supplied registries —
    /// the full injection point when custom
    /// [`DecompositionStrategy`](trios_passes::DecompositionStrategy)
    /// implementations are in play as well.
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

    /// Compiles many circuits over one device with one reused pass
    /// pipeline, so per-pipeline setup — in particular the schedule
    /// pass's gate-duration table, cached inside [`SchedulePass`] after
    /// its first run — happens once per batch instead of once per
    /// circuit. (The topology fills each distance row on first use and
    /// keeps it, so rows are shared by every compilation, batched or not.)
    ///
    /// Output is identical to calling [`Compiler::compile`] on each
    /// circuit in order (each compilation seeds its own RNG from
    /// [`CompileOptions::seed`]), so batching is a pure throughput
    /// optimization — the first step toward serving concurrent traffic.
    ///
    /// # Errors
    ///
    /// Stops at the first circuit that fails, returning its index and
    /// diagnostic.
    pub fn compile_batch(
        &self,
        circuits: &[Circuit],
        topology: &Topology,
    ) -> Result<Vec<CompiledProgram>, BatchDiagnostic> {
        self.compile_batch_with_reports(circuits, topology)
            .map(|v| v.into_iter().map(|(program, _)| program).collect())
    }

    /// Like [`Compiler::compile_batch`] but also returns each circuit's
    /// [`CompileReport`].
    ///
    /// # Errors
    ///
    /// Stops at the first circuit that fails, returning its index and
    /// diagnostic.
    pub fn compile_batch_with_reports(
        &self,
        circuits: &[Circuit],
        topology: &Topology,
    ) -> Result<Vec<(CompiledProgram, CompileReport)>, BatchDiagnostic> {
        let mut manager = self.pass_manager();
        circuits
            .iter()
            .enumerate()
            .map(|(index, circuit)| {
                self.run_pipeline(&mut manager, circuit, topology)
                    .map_err(|diagnostic| BatchDiagnostic { index, diagnostic })
            })
            .collect()
    }

    /// Compiles many circuits concurrently on up to `jobs` workers,
    /// returning results in **input order**.
    ///
    /// The calling thread is one of the workers: the batch spawns `jobs −
    /// 1` scoped threads ([`std::thread::scope`]) and runs the last worker
    /// itself, so `jobs = 1` (or a batch of one circuit) compiles inline
    /// and spawns nothing. `jobs = 0` counts as 1, and `jobs` is capped at
    /// the number of circuits.
    ///
    /// Output is byte-identical to [`Compiler::compile_batch`] (and thus
    /// to per-circuit [`Compiler::compile`]): compilation is deterministic
    /// per job — stochastic choices are seeded from
    /// [`CompileOptions::seed`], routing tie-breaks are by lowest qubit
    /// index — and each result lands in the slot of its input index, so
    /// worker scheduling cannot reorder or perturb anything.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index failing circuit's [`BatchDiagnostic`],
    /// exactly as the sequential batch would.
    pub fn compile_batch_parallel(
        &self,
        circuits: &[Circuit],
        topology: &Topology,
        jobs: usize,
    ) -> Result<Vec<CompiledProgram>, BatchDiagnostic> {
        self.compile_batch_parallel_with_cache(circuits, topology, jobs, None)
            .map(|outcome| {
                outcome
                    .results
                    .into_iter()
                    .map(|(program, _)| program)
                    .collect()
            })
    }

    /// Like [`Compiler::compile_batch_parallel`], but returns per-circuit
    /// [`CompileReport`]s plus an aggregate [`BatchReport`], and optionally
    /// consults (and fills) a shared [`CompilationCache`].
    ///
    /// Workers are as in [`Compiler::compile_batch_parallel`]: the caller
    /// plus `jobs − 1` scoped threads, each claiming the next circuit
    /// index and reusing one pass pipeline for all its circuits.
    ///
    /// A cache hit replays the stored program and report without running
    /// any pass; because compilation is deterministic, hits are
    /// indistinguishable from recompiling apart from the recorded
    /// wall times. Keep one cache across repeated batches (workload
    /// sweeps, ablations) to skip every previously-seen job.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index failing circuit's [`BatchDiagnostic`].
    /// Workers stop picking up new circuits once any failure is observed;
    /// circuits before the failing index are still compiled (they were
    /// claimed earlier), so the reported failure matches sequential order.
    pub fn compile_batch_parallel_with_cache(
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
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let worker = || {
            // One pipeline per worker, reused across its circuits, so
            // per-pipeline setup (the schedule pass's duration table)
            // happens once per worker, not once per circuit.
            let mut manager = self.pass_manager();
            loop {
                if failed.load(Ordering::Relaxed) {
                    break;
                }
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= circuits.len() {
                    break;
                }
                let outcome =
                    self.compile_one_cached(&mut manager, &circuits[index], topology, cache);
                if outcome.is_err() {
                    failed.store(true, Ordering::Relaxed);
                }
                *slots[index].lock().expect("batch slot lock poisoned") = Some(outcome);
            }
        };
        // The calling thread is the last of the `jobs` workers, so
        // `jobs = 1` compiles inline and spawns nothing.
        std::thread::scope(|scope| {
            for _ in 1..jobs {
                scope.spawn(worker);
            }
            worker();
        });
        // Indices are claimed in order and every claimed circuit completes,
        // so the filled slots form a prefix and the first error found in
        // index order is the same failure sequential compilation reports.
        let mut results = Vec::with_capacity(circuits.len());
        let mut fresh = Vec::with_capacity(circuits.len());
        for (index, slot) in slots.into_iter().enumerate() {
            match slot.into_inner().expect("batch slot lock poisoned") {
                Some(Ok((program, report, was_hit))) => {
                    results.push((program, report));
                    fresh.push(!was_hit);
                }
                Some(Err(diagnostic)) => return Err(BatchDiagnostic { index, diagnostic }),
                None => {
                    unreachable!("unfilled batch slot {index} without a recorded failure")
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
        cache: Option<&CompilationCache>,
    ) -> Result<(CompiledProgram, CompileReport, bool), Diagnostic> {
        let key = cache.map(|_| CompilationCache::key(circuit, topology, &self.options));
        if let (Some(cache), Some(key)) = (cache, key) {
            if let Some((program, report)) = cache.get(key) {
                return Ok((program, report, true));
            }
        }
        let (program, report) = self.run_pipeline(manager, circuit, topology)?;
        if let (Some(cache), Some(key)) = (cache, key) {
            cache.insert(key, (program.clone(), report.clone()));
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
            None => (cx.circuit.counts(), cx.circuit.depth()),
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
    /// Applies a named paper configuration — its pipeline, Toffoli
    /// decomposition, and (stochastic) direction policy — leaving every
    /// other knob set on this builder untouched.
    pub fn config(mut self, config: PaperConfig) -> Self {
        let named = config.to_options(self.options.seed);
        self.options.pipeline = named.pipeline;
        self.options.decomposer = named.decomposer;
        self.options.direction = named.direction;
        self
    }

    /// Replaces all options at once.
    pub fn options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// Which pass structure to use (paper Fig. 2).
    pub fn pipeline(mut self, pipeline: Pipeline) -> Self {
        self.options.pipeline = pipeline;
        self
    }

    /// Routing strategy by registry name (`"baseline"`, `"trios"`,
    /// `"trios-lookahead"`, `"trios-noise"`), overriding the pipeline's
    /// default choice.
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
    use trios_topology::johannesburg;

    #[test]
    fn builder_defaults_to_full_trios() {
        let compiler = Compiler::builder().build();
        assert_eq!(compiler.options().pipeline, Pipeline::Trios);
        assert_eq!(compiler.options().decomposer_name(), "standard");
        assert!(compiler.options().validate);
    }

    #[test]
    fn builder_setters_override_knobs() {
        let compiler = Compiler::builder()
            .pipeline(Pipeline::Baseline)
            .decomposer("eight")
            .direction(DirectionPolicy::MoveFirst)
            .seed(9)
            .bridge(true)
            .validate(false)
            .build();
        let o = compiler.options();
        assert_eq!(o.pipeline, Pipeline::Baseline);
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
        assert_eq!(compiler.options().pipeline, Pipeline::Baseline);
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
        assert_eq!(o.pipeline, Pipeline::Trios);
    }

    #[test]
    fn named_routers_compile_and_match_pipeline_defaults() {
        let mut program = Circuit::new(4);
        program.h(0).ccx(0, 1, 2).cx(2, 3);
        let topo = johannesburg();
        // Named "trios"/"baseline" are byte-identical to the pipeline
        // defaults they alias.
        let trios_default = Compiler::builder().seed(3).build();
        let trios_named = Compiler::builder().seed(3).router("trios").build();
        assert_eq!(
            trios_default.compile(&program, &topo).unwrap(),
            trios_named.compile(&program, &topo).unwrap()
        );
        let base_default = Compiler::builder()
            .seed(3)
            .pipeline(Pipeline::Baseline)
            .build();
        let base_named = Compiler::builder().seed(3).router("baseline").build();
        assert_eq!(
            base_default.compile(&program, &topo).unwrap(),
            base_named.compile(&program, &topo).unwrap()
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
        let baseline = Compiler::builder()
            .seed(1)
            .pipeline(Pipeline::Baseline)
            .build();
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
        let sequential = compiler.compile_batch(&circuits, &topo).unwrap();
        for jobs in [1, 2, 4, 16] {
            let parallel = compiler
                .compile_batch_parallel(&circuits, &topo, jobs)
                .unwrap();
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
            .compile_batch_parallel_with_cache(&circuits, &topo, 1, Some(&cache))
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
            .compile_batch_parallel_with_cache(&circuits, &topo, 2, Some(&cache))
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
                .compile_batch_parallel(&batch, &johannesburg(), jobs)
                .unwrap_err();
            assert_eq!(err.index, 1, "jobs = {jobs}");
        }
    }

    #[test]
    fn parallel_batch_handles_empty_and_zero_jobs() {
        let compiler = Compiler::default();
        let topo = johannesburg();
        assert!(compiler
            .compile_batch_parallel(&[], &topo, 4)
            .unwrap()
            .is_empty());
        // jobs = 0 is clamped to one worker rather than hanging.
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        let out = compiler
            .compile_batch_parallel(std::slice::from_ref(&c), &topo, 0)
            .unwrap();
        assert_eq!(out[0], compiler.compile(&c, &topo).unwrap());
    }

    #[test]
    fn batch_error_reports_failing_index() {
        let ok = Circuit::new(3);
        let too_wide = Circuit::new(25);
        let compiler = Compiler::default();
        let err = compiler
            .compile_batch(&[ok, too_wide], &johannesburg())
            .unwrap_err();
        assert_eq!(err.index, 1);
        assert!(matches!(err.diagnostic, Diagnostic::Routing { .. }));
        assert!(err.to_string().contains("circuit 1"));
    }
}
