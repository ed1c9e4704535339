//! [`PassManager`]: an ordered, instrumented sequence of passes.

use crate::context::CompileContext;
use crate::pass::{
    DecomposeToffolisPass, InitialMappingPass, LowerPass, OptimizePass, Pass, RoutePass,
    SchedulePass, ValidatePass,
};
use crate::report::PassRecord;
use crate::{CompileOptions, Diagnostic};
use std::fmt;
use std::time::Instant;
use trios_passes::DecomposerRegistry;
use trios_route::StrategyRegistry;

/// An ordered pipeline of [`Pass`]es with per-pass instrumentation.
///
/// The standard pipelines of the paper's Figure 2 come from
/// [`PassManager::for_options`]; custom pipelines (ablations, new stage
/// orders) are assembled with [`PassManager::push`].
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// An empty pipeline.
    pub fn new() -> Self {
        PassManager::default()
    }

    /// The standard pipeline for `options` (paper Fig. 2):
    ///
    /// * `baseline` router: initial-mapping → decompose-toffolis →
    ///   route-pairs → lower → optimize → \[validate\] → schedule
    /// * `trios` router: initial-mapping → route-trios (with inline
    ///   mapping-aware decomposition) → lower → optimize → \[validate\] →
    ///   schedule
    ///
    /// The routing stage is the strategy [`CompileOptions::router_name`]
    /// resolves to in the standard [`StrategyRegistry`]; the up-front
    /// `decompose-toffolis` pass is inserted exactly when that strategy
    /// cannot route three-qubit gates itself (only `"baseline"` among the
    /// built-ins). The `validate` pass is included iff
    /// [`CompileOptions::validate`] is set (it is by default).
    pub fn for_options(options: &CompileOptions) -> Self {
        PassManager::for_options_with_registries(
            options,
            &StrategyRegistry::standard(),
            &DecomposerRegistry::standard(),
        )
    }

    /// [`PassManager::for_options`] resolving the router and the
    /// decomposer in caller-supplied registries — how custom
    /// [`RoutingStrategy`] and [`DecompositionStrategy`] implementations
    /// enter the full pipeline (and, through
    /// [`CompilerBuilder::strategies`](crate::CompilerBuilder::strategies),
    /// the batch compiler and the fuzz harness).
    ///
    /// [`RoutingStrategy`]: trios_route::RoutingStrategy
    /// [`DecompositionStrategy`]: trios_passes::DecompositionStrategy
    pub fn for_options_with_registries(
        options: &CompileOptions,
        registry: &StrategyRegistry,
        decomposers: &DecomposerRegistry,
    ) -> Self {
        let router = options.router_name();
        // An unknown name adds no up-front decomposition here; the route
        // pass reports it as a proper diagnostic.
        let decompose_first = registry
            .get(router)
            .is_some_and(|strategy| !strategy.handles_three_qubit_gates());
        let mut manager = PassManager::new();
        manager.push(InitialMappingPass);
        if decompose_first {
            manager.push(DecomposeToffolisPass::with_registry(
                options.decomposer_name(),
                decomposers.clone(),
            ));
        }
        manager.push(
            RoutePass::with_registry(router, registry.clone())
                .with_decomposers(decomposers.clone()),
        );
        manager.push(LowerPass);
        manager.push(OptimizePass);
        if options.validate {
            manager.push(ValidatePass);
        }
        manager.push(SchedulePass::new());
        manager
    }

    /// Appends a pass.
    pub fn push(&mut self, pass: impl Pass + 'static) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Number of passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// `true` when the pipeline has no passes.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// The pass names, in execution order.
    pub fn names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass over `cx` in order, recording wall time and
    /// gate-count deltas for each.
    ///
    /// The circuit is scanned before the first pass and after each pass
    /// that [may write it](Pass::writes_circuit); a pass that does not
    /// gets the counts and depth of the boundary before it.
    ///
    /// # Errors
    ///
    /// Stops at, and returns, the first failing pass's [`Diagnostic`].
    pub fn run(&mut self, cx: &mut CompileContext<'_>) -> Result<Vec<PassRecord>, Diagnostic> {
        let mut records = Vec::with_capacity(self.passes.len());
        // Each pass's exit counts are the next pass's entry counts, and
        // one scan yields both counts and depth, so every pass boundary
        // is scanned at most once.
        let (mut gates, mut depth) = cx.circuit.counts_and_depth();
        for pass in &mut self.passes {
            let (gates_before, depth_before) = (gates, depth);
            let start = Instant::now();
            pass.run(cx)?;
            let wall_time = start.elapsed();
            if pass.writes_circuit() {
                (gates, depth) = cx.circuit.counts_and_depth();
            } else {
                debug_assert!(
                    cx.circuit.counts_and_depth() == (gates, depth),
                    "pass '{}' says it never writes the circuit, but changed it",
                    pass.name()
                );
            }
            records.push(PassRecord {
                pass: pass.name(),
                wall_time,
                gates_before,
                gates_after: gates,
                depth_before,
                depth_after: depth,
            });
        }
        Ok(records)
    }
}

impl fmt::Debug for PassManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassManager")
            .field("passes", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_trios_pipeline_has_expected_stages() {
        let manager = PassManager::for_options(&CompileOptions::default());
        assert_eq!(
            manager.names(),
            [
                "initial-mapping",
                "route-trios",
                "lower",
                "optimize",
                "validate",
                "schedule"
            ]
        );
    }

    #[test]
    fn baseline_pipeline_decomposes_up_front() {
        let options = CompileOptions {
            router: Some("baseline".into()),
            ..CompileOptions::default()
        };
        let names = PassManager::for_options(&options).names();
        assert_eq!(names[1], "decompose-toffolis");
        assert_eq!(names[2], "route-pairs");
    }

    #[test]
    fn named_routers_select_their_stage() {
        // A trios-family router keeps Toffolis for the router.
        let options = CompileOptions {
            router: Some("trios-lookahead".into()),
            ..CompileOptions::default()
        };
        let names = PassManager::for_options(&options).names();
        assert!(!names.contains(&"decompose-toffolis"), "{names:?}");
        assert_eq!(names[1], "route-trios-lookahead");

        let options = CompileOptions {
            router: Some("trios-noise".into()),
            ..CompileOptions::default()
        };
        assert_eq!(
            PassManager::for_options(&options).names()[1],
            "route-trios-noise"
        );
    }

    #[test]
    fn validate_pass_is_optional() {
        let options = CompileOptions {
            validate: false,
            ..CompileOptions::default()
        };
        let names = PassManager::for_options(&options).names();
        assert!(!names.contains(&"validate"));
    }

    #[test]
    fn pass_manager_crosses_thread_boundaries() {
        // `Pass: Send + Sync` must make whole pipelines shareable with the
        // batch worker threads; this is a compile-time guarantee.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PassManager>();
        assert_send_sync::<Box<dyn Pass>>();

        // And it must hold dynamically: run a pipeline on another thread.
        let options = CompileOptions::default();
        let manager = PassManager::for_options(&options);
        let names = std::thread::spawn(move || manager.names()).join().unwrap();
        assert_eq!(names.first(), Some(&"initial-mapping"));
    }

    #[test]
    fn custom_strategy_routes_through_a_custom_registry() {
        use crate::CompileContext;
        use trios_route::{
            Layout, RouteError, RoutedCircuit, RouterOptions, RoutingEngine, RoutingStrategy,
        };
        use trios_topology::{johannesburg, Topology};

        // A custom strategy, registered under its own name and selected
        // through RoutePass::with_registry — the documented injection
        // point for strategies outside the standard registry.
        struct ReverseTrios;
        impl RoutingStrategy for ReverseTrios {
            fn name(&self) -> &str {
                "reverse-trios"
            }
            fn route(
                &self,
                circuit: &trios_ir::Circuit,
                topology: &Topology,
                layout: Layout,
                options: &RouterOptions,
            ) -> Result<RoutedCircuit, RouteError> {
                // Drive the shared engine directly, as the README's
                // custom-strategy example does.
                RoutingEngine::new(topology, layout, options, circuit)?.run(circuit, true)
            }
        }

        let mut registry = StrategyRegistry::standard();
        registry.register("reverse-trios", || Box::new(ReverseTrios));

        let mut manager = PassManager::new();
        manager
            .push(InitialMappingPass)
            .push(RoutePass::with_registry("reverse-trios", registry))
            .push(LowerPass)
            .push(ValidatePass);

        let mut circuit = trios_ir::Circuit::new(3);
        circuit.ccx(0, 1, 2);
        let topo = johannesburg();
        let options = CompileOptions::default();
        let mut cx = CompileContext::new(circuit, &topo, &options);
        let records = manager.run(&mut cx).unwrap();
        assert_eq!(records[1].pass, "route");
        assert!(cx.circuit.is_hardware_lowered());
        let trace = cx.artifacts.get::<crate::RouterTrace>().unwrap();
        assert_eq!(trace.0.strategy.as_deref(), Some("reverse-trios"));
    }

    #[test]
    fn records_equal_a_rescan_after_every_pass() {
        use crate::{with_measurements, CompileContext, PaperConfig};
        use trios_benchmarks::Benchmark;

        // The manager skips the scan after a pass that says it never
        // writes the circuit; its records must still read as if every
        // boundary had been scanned, by both separate scans.
        let configs = [
            PaperConfig::QiskitBaseline,
            PaperConfig::QiskitEight,
            PaperConfig::TriosSix,
            PaperConfig::TriosEight,
            PaperConfig::Trios,
        ];
        let circuits = [
            Benchmark::CnxInplace4.build(),
            with_measurements(&Benchmark::IncrementerBorrowedbit5.build(), &[0, 2, 4]),
            Benchmark::Grovers9.build(),
            Benchmark::CnxDirty11.build(),
        ];
        for topology in [trios_topology::johannesburg(), trios_topology::line(12)] {
            for config in configs {
                for router in ["baseline", "trios", "trios-lookahead", "trios-noise"] {
                    let options = CompileOptions {
                        router: Some(router.into()),
                        ..config.to_options(7)
                    };
                    for circuit in &circuits {
                        let mut cx = CompileContext::new(circuit.clone(), &topology, &options);
                        let records = PassManager::for_options(&options).run(&mut cx).unwrap();

                        let mut cx = CompileContext::new(circuit.clone(), &topology, &options);
                        let mut rescanned = Vec::new();
                        let mut before = (cx.circuit.counts(), cx.circuit.depth());
                        for pass in &mut PassManager::for_options(&options).passes {
                            pass.run(&mut cx).unwrap();
                            let after = (cx.circuit.counts(), cx.circuit.depth());
                            rescanned.push((pass.name(), before, after));
                            before = after;
                        }
                        let recorded: Vec<_> = records
                            .iter()
                            .map(|r| {
                                let before = (r.gates_before, r.depth_before);
                                (r.pass, before, (r.gates_after, r.depth_after))
                            })
                            .collect();
                        assert_eq!(
                            recorded,
                            rescanned,
                            "{config:?} {router} {}",
                            circuit.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn custom_pipelines_compose() {
        let mut manager = PassManager::new();
        assert!(manager.is_empty());
        manager.push(InitialMappingPass).push(LowerPass);
        assert_eq!(manager.len(), 2);
        assert_eq!(manager.names(), ["initial-mapping", "lower"]);
        assert!(format!("{manager:?}").contains("initial-mapping"));
    }
}
