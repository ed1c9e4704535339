//! The [`Pass`] trait and the named passes wrapping each compilation
//! stage of the paper's Figure 2, so pipelines can be assembled, reordered
//! and ablated instead of hardcoded.

use crate::context::{CompileContext, ProgramSchedule, RouterTrace, SwapTrace};
use crate::Diagnostic;
use trios_passes::{
    decompose_toffolis, lower_to_hardware_gates, optimize, DecomposerHandle, DecomposerRegistry,
    DecompositionStrategy,
};
use trios_route::{check_legal, initial_layout, RouterOptions, StrategyRegistry, ToffoliPolicy};
use trios_schedule::{schedule_asap, GateDurations};

/// One compilation stage: a named transformation of a [`CompileContext`].
///
/// Passes are `Send + Sync` so a [`PassManager`](crate::PassManager) —
/// and any pipeline assembled from custom passes — can be moved into, or
/// shared with, the worker threads of
/// [`Compiler::compile_batch`](crate::Compiler::compile_batch).
/// Pass state must therefore be self-contained (all the built-in passes
/// are plain data plus lazily-built tables).
pub trait Pass: Send + Sync {
    /// Stable, human-readable pass name (used in reports and diagnostics).
    fn name(&self) -> &'static str;

    /// Transforms the context.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] describing the failure; the pass manager
    /// stops at the first failing pass.
    fn run(&mut self, cx: &mut CompileContext<'_>) -> Result<(), Diagnostic>;

    /// Whether [`Pass::run`] may change `cx.circuit`. Every pass may,
    /// unless it returns `false` here.
    ///
    /// [`PassManager::run`](crate::PassManager::run) scans the circuit for
    /// its counts and depth after each pass that may change it. After one
    /// that does not, it records the counts and depth it already holds
    /// from the previous pass boundary; debug builds scan anyway and
    /// panic if they differ. Return `false` only from a pass that never
    /// assigns or mutates `cx.circuit`.
    fn writes_circuit(&self) -> bool {
        true
    }
}

/// Chooses the initial logical→physical placement (the paper fixes it for
/// the single-Toffoli experiments, and maps greedily otherwise).
#[derive(Debug, Default, Clone, Copy)]
pub struct InitialMappingPass;

impl Pass for InitialMappingPass {
    fn name(&self) -> &'static str {
        "initial-mapping"
    }

    fn writes_circuit(&self) -> bool {
        false
    }

    fn run(&mut self, cx: &mut CompileContext<'_>) -> Result<(), Diagnostic> {
        let layout = initial_layout(&cx.circuit, cx.topology, &cx.options.mapping)
            .map_err(|e| Diagnostic::routing(self.name(), e))?;
        cx.layout = Some(layout);
        Ok(())
    }
}

/// Decomposes every Toffoli up-front with canonical qubit roles — the
/// first stage under the `baseline` router (paper Fig. 2a). Trio routers
/// omit this pass; they decompose placement-aware instead.
///
/// Both this pre-route pass and the router's second pass resolve the same
/// [`DecompositionStrategy`] by name, so there is exactly one lowering
/// seam no matter which router runs.
#[derive(Debug, Clone)]
pub struct DecomposeToffolisPass {
    decomposer: String,
    registry: DecomposerRegistry,
}

impl Default for DecomposeToffolisPass {
    fn default() -> Self {
        DecomposeToffolisPass::named("standard")
    }
}

impl DecomposeToffolisPass {
    /// A pre-route decomposition pass using the strategy registered under
    /// `decomposer` in the standard registry. Unknown names surface as a
    /// validation [`Diagnostic`] when the pass runs.
    pub fn named(decomposer: impl Into<String>) -> Self {
        DecomposeToffolisPass::with_registry(decomposer, DecomposerRegistry::standard())
    }

    /// A pre-route decomposition pass resolving `decomposer` in a
    /// caller-supplied `registry`.
    pub fn with_registry(decomposer: impl Into<String>, registry: DecomposerRegistry) -> Self {
        DecomposeToffolisPass {
            decomposer: decomposer.into(),
            registry,
        }
    }
}

/// Resolves `name` in `registry`, rejecting unknown names and (unless
/// `allow_cost_model`) strategies that cannot emit gates.
fn resolve_decomposer(
    pass: &'static str,
    name: &str,
    registry: &DecomposerRegistry,
) -> Result<Box<dyn DecompositionStrategy>, Diagnostic> {
    let strategy = registry.get(name).ok_or_else(|| {
        Diagnostic::validation(
            pass,
            format!(
                "unknown decomposer '{}' (registered: {})",
                name,
                registry.names().collect::<Vec<_>>().join(", ")
            ),
        )
    })?;
    if !strategy.executable() {
        return Err(Diagnostic::validation(
            pass,
            format!(
                "decomposer '{}' is cost-model-only and cannot compile circuits \
                 (use it with estimates and sweeps)",
                name
            ),
        ));
    }
    Ok(strategy)
}

impl Pass for DecomposeToffolisPass {
    fn name(&self) -> &'static str {
        "decompose-toffolis"
    }

    fn run(&mut self, cx: &mut CompileContext<'_>) -> Result<(), Diagnostic> {
        let strategy = resolve_decomposer(self.name(), &self.decomposer, &self.registry)?;
        cx.circuit = decompose_toffolis(&cx.circuit, &*strategy);
        Ok(())
    }
}

/// Routes the circuit through a named [`RoutingStrategy`] from a
/// [`StrategyRegistry`] (the standard one unless
/// [`RoutePass::with_registry`] supplies another): the conventional
/// per-pair strategy (`"baseline"`, paper Fig. 2a), the paper's trio
/// gathering with inline mapping-aware decomposition (`"trios"`, Fig. 2b),
/// or any other registered strategy (`"trios-lookahead"`,
/// `"trios-noise"`, custom registrations).
///
/// The routed circuit moves into [`CompileContext::circuit`]. The pass
/// publishes the run's record once, as the [`RouterTrace`] artifact, with
/// the name of the strategy that ran filled in. It also publishes a
/// [`SwapTrace`], a copy of that record's trio events: the repository
/// benchmark's per-layer replay (`perfbench`) reads it, so it stays until
/// a per-compile span tree carries the record.
///
/// [`RoutingStrategy`]: trios_route::RoutingStrategy
#[derive(Debug, Clone)]
pub struct RoutePass {
    router: String,
    registry: StrategyRegistry,
    decomposers: DecomposerRegistry,
}

impl RoutePass {
    /// A routing pass using the strategy registered under `router` in the
    /// standard registry. Unknown names surface as a validation
    /// [`Diagnostic`] when the pass runs.
    pub fn named(router: impl Into<String>) -> Self {
        RoutePass::with_registry(router, StrategyRegistry::standard())
    }

    /// A routing pass resolving `router` in a caller-supplied `registry` —
    /// the injection point for custom [`RoutingStrategy`] implementations:
    /// register the constructor, then assemble a pipeline around this pass
    /// with [`PassManager::push`](crate::PassManager::push).
    ///
    /// Note on reporting: [`Pass::name`] returns `&'static str`, so only
    /// the built-in registry names get strategy-specific pass names
    /// (`route-trios-noise`, …); any other strategy reports under the
    /// generic pass name `"route"`. The strategy that actually ran is
    /// always recorded in the published [`RouterTrace`] artifact.
    ///
    /// [`RoutingStrategy`]: trios_route::RoutingStrategy
    pub fn with_registry(router: impl Into<String>, registry: StrategyRegistry) -> Self {
        RoutePass::with_registries(router, registry, DecomposerRegistry::standard())
    }

    /// A routing pass resolving `router` in `registry` and the decomposer
    /// in `decomposers`.
    pub(crate) fn with_registries(
        router: impl Into<String>,
        registry: StrategyRegistry,
        decomposers: DecomposerRegistry,
    ) -> Self {
        RoutePass {
            router: router.into(),
            registry,
            decomposers,
        }
    }

    /// Replaces the decomposer registry the router's second decomposition
    /// pass resolves [`CompileOptions::decomposer`] in — the injection
    /// point for custom [`DecompositionStrategy`] implementations.
    ///
    /// [`CompileOptions::decomposer`]: crate::CompileOptions::decomposer
    pub fn with_decomposers(mut self, decomposers: DecomposerRegistry) -> Self {
        self.decomposers = decomposers;
        self
    }

    /// The registry name this pass routes with.
    pub fn router(&self) -> &str {
        &self.router
    }
}

impl Pass for RoutePass {
    fn name(&self) -> &'static str {
        match self.router.as_str() {
            "baseline" => "route-pairs",
            "trios" => "route-trios",
            "trios-lookahead" => "route-trios-lookahead",
            "trios-noise" => "route-trios-noise",
            _ => "route",
        }
    }

    fn run(&mut self, cx: &mut CompileContext<'_>) -> Result<(), Diagnostic> {
        let strategy = self.registry.get(&self.router).ok_or_else(|| {
            Diagnostic::validation(
                self.name(),
                format!(
                    "unknown router '{}' (registered: {})",
                    self.router,
                    self.registry.names().collect::<Vec<_>>().join(", ")
                ),
            )
        })?;
        let layout = cx.layout.take().ok_or_else(|| {
            Diagnostic::validation(self.name(), "no initial layout: run initial-mapping first")
        })?;
        let options = cx.options;
        // Resolve the decomposer here (in the caller-supplied registry)
        // rather than letting the engine look the name up in the standard
        // registry — custom registrations must reach the router.
        let decomposer =
            resolve_decomposer(self.name(), options.decomposer_name(), &self.decomposers)?;
        let router_options = RouterOptions {
            decomposer: DecomposerHandle::Custom(decomposer.into()),
            direction: options.direction,
            metric: options.metric.clone(),
            seed: options.seed,
            lower_toffoli: true,
            lookahead: options.lookahead,
            bridge: options.bridge,
        };
        let mut routed = strategy
            .route(&cx.circuit, cx.topology, layout, &router_options)
            .map_err(|e| Diagnostic::routing(self.name(), e))?;
        routed.trace.strategy = Some(strategy.name().to_string());
        cx.circuit = routed.circuit;
        cx.initial_layout = Some(routed.initial_layout);
        cx.final_layout = Some(routed.final_layout);
        cx.swap_count = routed.trace.swaps;
        cx.artifacts
            .insert(SwapTrace(routed.trace.trio_events.clone()));
        cx.artifacts.insert(RouterTrace(routed.trace));
        Ok(())
    }
}

/// Lowers SWAPs, CZ/CP/controlled roots, and any remaining Toffolis into
/// the hardware set `{1q, cx, measure}`.
#[derive(Debug, Default, Clone, Copy)]
pub struct LowerPass;

impl Pass for LowerPass {
    fn name(&self) -> &'static str {
        "lower"
    }

    fn run(&mut self, cx: &mut CompileContext<'_>) -> Result<(), Diagnostic> {
        // Any remaining three-qubit gate is a leftover the earlier passes
        // should have eliminated; lower it with the configured strategy
        // when that strategy is a standard executable one, else with
        // `standard` (custom registrations live in the route pass — this
        // safety net must not reject them).
        let registry = DecomposerRegistry::standard();
        let strategy = registry
            .get(cx.options.decomposer_name())
            .filter(|s| s.executable())
            .unwrap_or_else(|| {
                registry
                    .get("standard")
                    .expect("standard registry always has 'standard'")
            });
        cx.circuit = lower_to_hardware_gates(&cx.circuit, &*strategy);
        Ok(())
    }
}

/// Gate-level cleanup: inverse-pair cancellation and single-qubit-run
/// merging, mirroring the light optimization of the paper's baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct OptimizePass;

impl Pass for OptimizePass {
    fn name(&self) -> &'static str {
        "optimize"
    }

    fn run(&mut self, cx: &mut CompileContext<'_>) -> Result<(), Diagnostic> {
        cx.circuit = optimize(&cx.circuit, cx.options.optimize);
        Ok(())
    }
}

/// Checks the routed-by-construction invariants for real: every gate in
/// the hardware set, every multi-qubit gate on a coupling edge.
///
/// The legacy pipeline only `debug_assert!`ed these, so release builds
/// silently trusted them; as a pass, a violation is a recoverable
/// [`Diagnostic`] in every build profile.
#[derive(Debug, Default, Clone, Copy)]
pub struct ValidatePass;

impl Pass for ValidatePass {
    fn name(&self) -> &'static str {
        "validate"
    }

    fn writes_circuit(&self) -> bool {
        false
    }

    fn run(&mut self, cx: &mut CompileContext<'_>) -> Result<(), Diagnostic> {
        if let Some(offender) = cx
            .circuit
            .iter()
            .enumerate()
            .find(|(_, i)| !i.gate().is_hardware_supported())
        {
            return Err(Diagnostic::lowering(
                self.name(),
                offender.0,
                offender.1.gate(),
            ));
        }
        check_legal(&cx.circuit, cx.topology, ToffoliPolicy::Forbid)
            .map_err(|v| Diagnostic::legality(self.name(), v))?;
        Ok(())
    }
}

/// ASAP-schedules the final circuit under Johannesburg gate times
/// ([`SchedulePass::DURATIONS`]) and publishes the [`ProgramSchedule`]
/// artifact (the paper's duration metric Δ).
#[derive(Debug, Default, Clone, Copy)]
pub struct SchedulePass;

impl SchedulePass {
    /// The gate durations every compile is scheduled under, so every
    /// [`CompileStats::duration_us`](crate::CompileStats::duration_us) is
    /// the ASAP Δ under this table.
    pub const DURATIONS: GateDurations = GateDurations::johannesburg();

    /// Schedules with the paper's Johannesburg gate times.
    pub fn new() -> Self {
        SchedulePass
    }
}

impl Pass for SchedulePass {
    fn name(&self) -> &'static str {
        "schedule"
    }

    fn writes_circuit(&self) -> bool {
        false
    }

    fn run(&mut self, cx: &mut CompileContext<'_>) -> Result<(), Diagnostic> {
        let schedule = schedule_asap(&cx.circuit, &Self::DURATIONS);
        if schedule.total_duration_us() < 0.0 {
            return Err(Diagnostic::validation(
                self.name(),
                format!("negative total duration {}", schedule.total_duration_us()),
            ));
        }
        cx.artifacts.insert(ProgramSchedule(schedule));
        Ok(())
    }
}
