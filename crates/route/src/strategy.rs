//! The pluggable routing seam: [`RoutingStrategy`], the built-in
//! strategies, and the [`StrategyRegistry`] that names them.
//!
//! The paper's central comparison — decompose-then-route vs. orchestrated
//! trio routing — is a comparison of *routing policies*. Each policy is a
//! [`RoutingStrategy`] over the shared [`RoutingEngine`]; the registry
//! maps stable names to constructors so every layer (core pass pipeline,
//! CLI, benches) selects routers the same way:
//!
//! | name              | strategy                                         |
//! |-------------------|--------------------------------------------------|
//! | `baseline`        | [`DecomposeFirst`] — the paper's Fig. 2a baseline |
//! | `trios`           | [`OrchestratedTrios`] — the paper's contribution  |
//! | `trios-lookahead` | [`LookaheadTrios`] — windowed-lookahead pairs     |
//! | `trios-noise`     | [`NoiseAwareTrios`] — calibration-weighted paths  |

use crate::engine::RoutingEngine;
use crate::{Layout, LookaheadConfig, PathMetric, RouteError, RoutedCircuit, RouterOptions};
use std::fmt;
use std::sync::Arc;
use trios_ir::Circuit;
use trios_noise::Calibration;
use trios_topology::Topology;

/// One routing policy: turns a logical circuit plus an initial placement
/// into a hardware-legal [`RoutedCircuit`], whose
/// [`RoutingTrace`](crate::RoutingTrace) records what it did.
///
/// Strategies are `Send + Sync` so the batch compiler's worker threads
/// can share them; implementations should keep all per-run state local to
/// `route` (the built-ins carry only configuration).
pub trait RoutingStrategy: Send + Sync {
    /// The stable registry name (what `--router` accepts).
    fn name(&self) -> &str;

    /// One-line human description for listings.
    fn description(&self) -> &str {
        ""
    }

    /// Whether this strategy routes three-qubit gates itself. When
    /// `false`, the pipeline must decompose Toffolis before routing (the
    /// paper's Fig. 2a ordering).
    fn handles_three_qubit_gates(&self) -> bool {
        true
    }

    /// Routes `circuit` for `topology` starting from `layout`.
    ///
    /// # Errors
    ///
    /// Returns a [`RouteError`] when the circuit does not fit the device,
    /// contains gates the strategy cannot route, or interacting qubits
    /// are disconnected.
    fn route(
        &self,
        circuit: &Circuit,
        topology: &Topology,
        layout: Layout,
        options: &RouterOptions,
    ) -> Result<RoutedCircuit, RouteError>;
}

/// The conventional decompose-first pair router: requires a fully
/// decomposed circuit (1- and 2-qubit gates only) and routes each distant
/// pair individually. This is the paper's Qiskit-style baseline (Fig. 2a).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecomposeFirst;

impl RoutingStrategy for DecomposeFirst {
    fn name(&self) -> &str {
        "baseline"
    }

    fn description(&self) -> &str {
        "decompose-first pair router (the paper's Qiskit-style baseline, Fig. 2a)"
    }

    fn handles_three_qubit_gates(&self) -> bool {
        false
    }

    fn route(
        &self,
        circuit: &Circuit,
        topology: &Topology,
        layout: Layout,
        options: &RouterOptions,
    ) -> Result<RoutedCircuit, RouteError> {
        RoutingEngine::new(topology, layout, options, circuit)?.run(circuit, false)
    }
}

/// The paper's contribution: Toffolis survive to the router, which
/// gathers each operand trio to a connected neighborhood as a unit, then
/// applies the placement-appropriate decomposition (Fig. 2b, §4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrchestratedTrios;

impl RoutingStrategy for OrchestratedTrios {
    fn name(&self) -> &str {
        "trios"
    }

    fn description(&self) -> &str {
        "orchestrated trio router: gather Toffoli operands, decompose placement-aware (Fig. 2b)"
    }

    fn route(
        &self,
        circuit: &Circuit,
        topology: &Topology,
        layout: Layout,
        options: &RouterOptions,
    ) -> Result<RoutedCircuit, RouteError> {
        RoutingEngine::new(topology, layout, options, circuit)?.run(circuit, true)
    }
}

/// Trio routing with windowed-lookahead pair scoring always on: instead
/// of committing to a whole shortest path per 2-qubit gate, SWAPs are
/// chosen one at a time to also minimize a decayed sum of upcoming gate
/// distances (the SABRE-style look-ahead schemes of paper §3).
///
/// The strategy's own [`LookaheadConfig`] applies only when
/// [`RouterOptions::lookahead`] is unset, so explicit per-run
/// configuration still wins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookaheadTrios {
    /// Lookahead window, weight, and decay used when the options don't
    /// specify their own.
    pub config: LookaheadConfig,
}

impl LookaheadTrios {
    /// Lookahead trio routing with `config` as the fallback window.
    pub fn new(config: LookaheadConfig) -> Self {
        LookaheadTrios { config }
    }
}

impl Default for LookaheadTrios {
    fn default() -> Self {
        LookaheadTrios::new(LookaheadConfig::default())
    }
}

impl RoutingStrategy for LookaheadTrios {
    fn name(&self) -> &str {
        "trios-lookahead"
    }

    fn description(&self) -> &str {
        "trio router with windowed-lookahead pair scoring (SABRE-style, paper §3)"
    }

    fn route(
        &self,
        circuit: &Circuit,
        topology: &Topology,
        layout: Layout,
        options: &RouterOptions,
    ) -> Result<RoutedCircuit, RouteError> {
        let options = RouterOptions {
            lookahead: Some(options.lookahead.unwrap_or(self.config)),
            ..options.clone()
        };
        RoutingEngine::new(topology, layout, &options, circuit)?.run(circuit, true)
    }
}

/// Default log-uniform spread of [`NoiseAwareTrios`]' sampled per-edge
/// errors around the calibration mean (each edge lands in
/// `[mean/3, mean·3]`), matching the scatter real backends report.
pub const NOISE_AWARE_DEFAULT_SPREAD: f64 = 3.0;

/// Trio routing over a noise-aware path metric: every shortest-path walk
/// weighs edges by `−log(1 − e)` via [`PathMetric::from_edge_errors`], so
/// routed data detours around unreliable couplers (paper §4's noise-aware
/// extension).
///
/// Edge errors come from, in order of preference:
///
/// 1. an explicit [`PathMetric::EdgeWeights`] already present in the
///    [`RouterOptions`] (used as-is),
/// 2. per-edge error rates fixed at construction
///    ([`NoiseAwareTrios::with_edge_errors`]),
/// 3. otherwise, a seeded sample around the paper's Johannesburg
///    calibration mean ([`Calibration::sampled_edge_errors`] with spread
///    [`NOISE_AWARE_DEFAULT_SPREAD`], seeded from
///    [`RouterOptions::seed`]) — the `trios-noise` registry entry uses
///    this, which is how the noise crate feeds routing out of the box.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NoiseAwareTrios {
    edge_errors: Option<Vec<f64>>,
}

impl NoiseAwareTrios {
    /// Noise-aware trio routing that samples per-edge errors around the
    /// Johannesburg calibration at route time (deterministic per seed).
    pub fn from_calibration() -> Self {
        NoiseAwareTrios { edge_errors: None }
    }

    /// Noise-aware trio routing over explicit per-edge two-qubit error
    /// rates, aligned with `Topology::edges()`. Routing checks them: a
    /// wrong count, or a rate outside `[0, 1)`, is
    /// [`RouteError::InvalidOptions`].
    pub fn with_edge_errors(edge_errors: Vec<f64>) -> Self {
        NoiseAwareTrios {
            edge_errors: Some(edge_errors),
        }
    }
}

impl RoutingStrategy for NoiseAwareTrios {
    fn name(&self) -> &str {
        "trios-noise"
    }

    fn description(&self) -> &str {
        "trio router over -log(1-e) edge weights from device calibration (paper §4)"
    }

    fn route(
        &self,
        circuit: &Circuit,
        topology: &Topology,
        layout: Layout,
        options: &RouterOptions,
    ) -> Result<RoutedCircuit, RouteError> {
        let metric = match &options.metric {
            PathMetric::EdgeWeights(_) => options.metric.clone(),
            PathMetric::Hops => {
                let num_edges = topology.num_edges();
                let errors = match &self.edge_errors {
                    Some(errors) => {
                        if errors.len() != num_edges {
                            return Err(RouteError::InvalidOptions {
                                reason: format!(
                                    "{} edge errors supplied for a topology with {} edges",
                                    errors.len(),
                                    num_edges
                                ),
                            });
                        }
                        if let Some((edge, rate)) = topology
                            .edges()
                            .iter()
                            .zip(errors)
                            .find(|(_, e)| !(0.0..1.0).contains(*e))
                        {
                            return Err(RouteError::InvalidOptions {
                                reason: format!(
                                    "edge {}-{} has error rate {rate}; rates must lie in [0, 1)",
                                    edge.0, edge.1
                                ),
                            });
                        }
                        errors.clone()
                    }
                    None => Calibration::johannesburg_2020_08_19().sampled_edge_errors(
                        num_edges,
                        NOISE_AWARE_DEFAULT_SPREAD,
                        options.seed,
                    ),
                };
                PathMetric::from_edge_errors(&errors)
            }
        };
        let options = RouterOptions {
            metric,
            ..options.clone()
        };
        RoutingEngine::new(topology, layout, &options, circuit)?.run(circuit, true)
    }
}

/// Constructor stored per registry entry.
pub type StrategyConstructor = Arc<dyn Fn() -> Box<dyn RoutingStrategy> + Send + Sync>;

/// An ordered name → constructor map of routing strategies.
///
/// [`StrategyRegistry::standard`] registers the four built-ins under
/// their stable names; [`StrategyRegistry::register`] adds (or replaces)
/// entries, so downstream crates can plug in custom strategies and still
/// select them by name through the same CLI/bench/core seam.
///
/// # Examples
///
/// ```
/// use trios_ir::Circuit;
/// use trios_route::{Layout, RouterOptions, StrategyRegistry};
/// use trios_topology::line;
///
/// let mut program = Circuit::new(3);
/// program.ccx(0, 1, 2);
///
/// let registry = StrategyRegistry::standard();
/// let trios = registry.get("trios").expect("built-in");
/// assert_eq!(trios.name(), "trios");
/// let routed = trios.route(
///     &program,
///     &line(3),
///     Layout::trivial(3, 3),
///     &RouterOptions::deterministic(),
/// )?;
/// assert_eq!(routed.trace.trio_events.len(), 1);
/// # Ok::<(), trios_route::RouteError>(())
/// ```
#[derive(Clone, Default)]
pub struct StrategyRegistry {
    entries: Vec<(String, StrategyConstructor)>,
}

impl StrategyRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        StrategyRegistry::default()
    }

    /// The registry of built-in strategies: `baseline`, `trios`,
    /// `trios-lookahead`, `trios-noise`, in that listing order.
    pub fn standard() -> Self {
        let mut registry = StrategyRegistry::empty();
        registry.register("baseline", || Box::new(DecomposeFirst));
        registry.register("trios", || Box::new(OrchestratedTrios));
        registry.register("trios-lookahead", || Box::new(LookaheadTrios::default()));
        registry.register("trios-noise", || {
            Box::new(NoiseAwareTrios::from_calibration())
        });
        registry
    }

    /// Registers `constructor` under `name`, replacing any existing entry
    /// with that name (listing order is preserved on replacement).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        constructor: impl Fn() -> Box<dyn RoutingStrategy> + Send + Sync + 'static,
    ) -> &mut Self {
        let name = name.into();
        let constructor: StrategyConstructor = Arc::new(constructor);
        match self.entries.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 = constructor,
            None => self.entries.push((name, constructor)),
        }
        self
    }

    /// Builds the strategy registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<Box<dyn RoutingStrategy>> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, ctor)| ctor())
    }

    /// `true` when a strategy is registered under `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|(n, _)| n == name)
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    /// Number of registered strategies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Debug for StrategyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StrategyRegistry")
            .field("names", &self.names().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trios_passes::lower_swaps;
    use trios_sim::{DenseSimulator, Simulator};
    use trios_topology::{grid, johannesburg, line};

    fn verify(original: &Circuit, routed: &RoutedCircuit) -> bool {
        let lowered = lower_swaps(&routed.circuit);
        DenseSimulator::new(1e-9)
            .compiled_equivalent(
                original,
                &lowered,
                &routed.initial_layout.to_mapping(),
                &routed.final_layout.to_mapping(),
                3,
                7,
            )
            .unwrap()
    }

    fn toffoli_program() -> Circuit {
        let mut c = Circuit::new(7);
        c.h(0).ccx(0, 3, 6).cx(0, 5).ccz(1, 4, 6);
        c
    }

    #[test]
    fn standard_registry_lists_the_four_builtins() {
        let registry = StrategyRegistry::standard();
        assert_eq!(
            registry.names().collect::<Vec<_>>(),
            ["baseline", "trios", "trios-lookahead", "trios-noise"]
        );
        assert_eq!(registry.len(), 4);
        assert!(!registry.is_empty());
        assert!(registry.contains("trios"));
        assert!(!registry.contains("sabre"));
        assert!(registry.get("sabre").is_none());
        for name in registry.names() {
            let strategy = registry.get(name).unwrap();
            assert_eq!(strategy.name(), name);
            assert!(!strategy.description().is_empty(), "{name}");
        }
    }

    #[test]
    fn only_baseline_requires_decomposed_input() {
        let registry = StrategyRegistry::standard();
        for name in registry.names() {
            let strategy = registry.get(name).unwrap();
            assert_eq!(
                strategy.handles_three_qubit_gates(),
                name != "baseline",
                "{name}"
            );
        }
    }

    #[test]
    fn baseline_strategy_rejects_toffolis() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        let err = DecomposeFirst
            .route(
                &c,
                &line(3),
                Layout::trivial(3, 3),
                &RouterOptions::deterministic(),
            )
            .unwrap_err();
        assert!(matches!(err, RouteError::UnsupportedGate { .. }));
    }

    #[test]
    fn lookahead_strategy_forces_lookahead_and_preserves_semantics() {
        let program = toffoli_program();
        let topo = grid(4, 2);
        let opts = RouterOptions::deterministic();
        assert!(opts.lookahead.is_none());
        let layout = Layout::trivial(7, 8);
        let routed = LookaheadTrios::default()
            .route(&program, &topo, layout.clone(), &opts)
            .unwrap();
        // Lookahead ran: the output is plain trio routing's under an
        // explicit default window, and on this program that differs from
        // plain trio routing without one.
        let explicit = RouterOptions {
            lookahead: Some(LookaheadConfig::default()),
            ..opts.clone()
        };
        let trios = |options: &RouterOptions| {
            OrchestratedTrios
                .route(&program, &topo, layout.clone(), options)
                .unwrap()
        };
        assert_eq!(routed, trios(&explicit));
        assert_ne!(routed, trios(&opts));
        assert!(verify(&program, &routed));
    }

    #[test]
    fn lookahead_strategy_respects_explicit_config() {
        // With options.lookahead set, the strategy must not override it:
        // output equals plain trios routing under the same config.
        let program = toffoli_program();
        let topo = line(7);
        let opts = RouterOptions {
            lookahead: Some(LookaheadConfig {
                window: 5,
                weight: 0.3,
                decay: 0.5,
            }),
            ..RouterOptions::deterministic()
        };
        let via_strategy = LookaheadTrios::default()
            .route(&program, &topo, Layout::trivial(7, 7), &opts)
            .unwrap();
        let via_trios = OrchestratedTrios
            .route(&program, &topo, Layout::trivial(7, 7), &opts)
            .unwrap();
        assert_eq!(via_strategy, via_trios);
    }

    #[test]
    fn noise_aware_strategy_detours_around_bad_edges() {
        let topo = grid(3, 2); // 0-1-2 / 3-4-5
        let mut c = Circuit::new(6);
        c.cx(0, 2);
        let errors: Vec<f64> = topo
            .edges()
            .iter()
            .map(|&e| if e == (1, 2) { 0.9 } else { 0.001 })
            .collect();
        let routed = NoiseAwareTrios::with_edge_errors(errors)
            .route(
                &c,
                &topo,
                Layout::trivial(6, 6),
                &RouterOptions::deterministic(),
            )
            .unwrap();
        // Detour through the back row: no SWAP may touch the bad edge.
        assert!(routed.circuit.iter().all(|i| {
            i.gate() != trios_ir::Gate::Swap || {
                let (a, b) = (i.qubit(0).index(), i.qubit(1).index());
                (a.min(b), a.max(b)) != (1, 2)
            }
        }));
        assert!(verify(&c, &routed));
    }

    #[test]
    fn noise_aware_bridge_middle_is_a_common_neighbor() {
        // Regression: with a weighted metric the shortest *weighted* path
        // between a distance-2 pair can be a detour whose second node is
        // not adjacent to both endpoints; the bridge middle must come from
        // the hop path, or the emitted CNOTs land on non-edges.
        use crate::check_legal;
        use crate::legality::ToffoliPolicy;
        let topo = grid(3, 2); // 0-1-2 / 3-4-5
        let mut c = Circuit::new(6);
        c.cx(0, 2);
        let errors: Vec<f64> = topo
            .edges()
            .iter()
            .map(|&e| {
                if e == (0, 1) || e == (1, 2) {
                    0.9 // weighted path detours 0-3-4-5-2
                } else {
                    0.001
                }
            })
            .collect();
        let opts = RouterOptions {
            bridge: true,
            ..RouterOptions::deterministic()
        };
        let routed = NoiseAwareTrios::with_edge_errors(errors)
            .route(&c, &topo, Layout::trivial(6, 6), &opts)
            .unwrap();
        assert!(check_legal(&routed.circuit, &topo, ToffoliPolicy::Forbid).is_ok());
        assert!(verify(&c, &routed));
    }

    #[test]
    fn noise_aware_strategy_validates_edge_count() {
        let route = |errors: Vec<f64>| {
            NoiseAwareTrios::with_edge_errors(errors).route(
                &Circuit::new(3),
                &line(5),
                Layout::trivial(3, 5),
                &RouterOptions::deterministic(),
            )
        };
        let err = route(vec![0.01; 2]).unwrap_err();
        assert!(matches!(err, RouteError::InvalidOptions { .. }));
        assert!(err.to_string().contains("edge errors"));
        // A rate outside [0, 1) has no -log(1 - e) weight: refused, and
        // named, instead of a panic.
        for (bad, says) in [
            (f64::NAN, "edge 2-3 has error rate NaN"),
            (1.0, "edge 2-3 has error rate 1;"),
            (1.5, "edge 2-3 has error rate 1.5"),
            (-0.1, "edge 2-3 has error rate -0.1"),
        ] {
            let mut errors = vec![0.01; 4];
            errors[2] = bad;
            match route(errors) {
                Err(RouteError::InvalidOptions { reason }) => {
                    assert!(reason.contains(says), "{reason}")
                }
                other => panic!("rate {bad}: {other:?}"),
            }
        }
        assert!(route(vec![0.0, 0.01, 0.5, 0.999]).is_ok());
    }

    #[test]
    fn noise_aware_default_is_seed_deterministic_and_correct() {
        let program = toffoli_program();
        let topo = johannesburg();
        let strategy = NoiseAwareTrios::from_calibration();
        let opts = RouterOptions::deterministic();
        let a = strategy
            .route(&program, &topo, Layout::trivial(7, 20), &opts)
            .unwrap();
        let b = strategy
            .route(&program, &topo, Layout::trivial(7, 20), &opts)
            .unwrap();
        assert_eq!(a, b, "same seed must sample the same edge errors");
        let other_seed = strategy
            .route(
                &program,
                &topo,
                Layout::trivial(7, 20),
                &RouterOptions {
                    seed: 99,
                    ..RouterOptions::deterministic()
                },
            )
            .unwrap();
        // Different seed, different sampled error landscape (the routed
        // circuit may coincide, but determinism per seed is the contract).
        let _ = other_seed;
        assert!(verify(&program, &a));
    }

    #[test]
    fn noise_aware_respects_explicit_metric_in_options() {
        // An explicit EdgeWeights metric wins over the strategy's errors.
        let topo = line(4);
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let weights = vec![1.0; topo.edges().len()];
        let opts = RouterOptions {
            metric: PathMetric::EdgeWeights(weights),
            ..RouterOptions::deterministic()
        };
        let via_strategy = NoiseAwareTrios::from_calibration()
            .route(&c, &topo, Layout::trivial(4, 4), &opts)
            .unwrap();
        let via_trios = OrchestratedTrios
            .route(&c, &topo, Layout::trivial(4, 4), &opts)
            .unwrap();
        assert_eq!(via_strategy, via_trios);
    }

    #[test]
    fn custom_strategies_can_be_registered_and_replaced() {
        struct Reversed;
        impl RoutingStrategy for Reversed {
            fn name(&self) -> &str {
                "custom"
            }
            fn route(
                &self,
                circuit: &Circuit,
                topology: &Topology,
                layout: Layout,
                options: &RouterOptions,
            ) -> Result<RoutedCircuit, RouteError> {
                OrchestratedTrios.route(circuit, topology, layout, options)
            }
        }
        let mut registry = StrategyRegistry::standard();
        registry.register("custom", || Box::new(Reversed));
        assert_eq!(registry.len(), 5);
        assert!(registry.contains("custom"));
        // Replacement keeps order and count.
        registry.register("custom", || Box::new(Reversed));
        assert_eq!(registry.len(), 5);
        assert_eq!(registry.names().last(), Some("custom"));
        let debug = format!("{registry:?}");
        assert!(debug.contains("custom"), "{debug}");
    }
}
