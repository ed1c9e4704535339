//! Compilation options and the paper's named compiler configurations.

use trios_passes::OptimizeOptions;
use trios_route::{DirectionPolicy, InitialMapping, LookaheadConfig, PathMetric};

/// Everything a [`Compiler`](crate::Compiler) needs to know.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileOptions {
    /// Routing strategy, by registry name (`"baseline"`, `"trios"`,
    /// `"trios-lookahead"`, `"trios-noise"`, or a custom registration).
    /// The strategy also picks the pass structure of the paper's Figure 2:
    /// a router that cannot route three-qubit gates (`"baseline"`) gets
    /// every Toffoli decomposed before routing (Fig. 2a); the others route
    /// trios and decompose them afterwards (Fig. 2b). `None` means
    /// `"trios"`.
    pub router: Option<String>,
    /// Decomposition strategy, by registry name (`"standard"`, `"six"`,
    /// `"eight"`, `"tdepth"`, `"relative-phase"`, `"qutrit"`, or a custom
    /// registration). Under the `"baseline"` router it is applied up-front
    /// with canonical qubit roles; under trio routing it is the
    /// placement-aware second pass. `None` means `"standard"` — the
    /// paper's connectivity-aware 6/8-CNOT split.
    pub decomposer: Option<String>,
    /// Initial placement strategy.
    pub mapping: InitialMapping,
    /// Which endpoint moves when routing distant pairs.
    pub direction: DirectionPolicy,
    /// Path metric (hops or noise-aware edge weights).
    pub metric: PathMetric,
    /// Seed for stochastic choices.
    pub seed: u64,
    /// Post-routing gate-level optimizations.
    pub optimize: OptimizeOptions,
    /// Windowed-lookahead pair routing (paper §3's comparator); `None`
    /// uses committed shortest-path walks as in the paper's experiments.
    pub lookahead: Option<LookaheadConfig>,
    /// Implement distance-2 CNOTs as 4-CNOT bridges (layout unchanged)
    /// instead of SWAP-then-CNOT. Off in the paper's experiments.
    pub bridge: bool,
    /// Run the `validate` pass: check the hardware gate set and coupling
    /// legality of the output as real, recoverable errors (the original
    /// implementation only `debug_assert!`ed these, so release builds
    /// silently trusted routed-by-construction). On by default.
    pub validate: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            router: None,
            decomposer: None,
            mapping: InitialMapping::Trivial,
            direction: DirectionPolicy::Stochastic,
            metric: PathMetric::Hops,
            seed: 0,
            optimize: OptimizeOptions::default(),
            lookahead: None,
            bridge: false,
            validate: true,
        }
    }
}

impl CompileOptions {
    /// Default options with a specific seed.
    pub fn with_seed(seed: u64) -> Self {
        CompileOptions {
            seed,
            ..CompileOptions::default()
        }
    }

    /// The decomposition-strategy registry name this compilation uses:
    /// the explicit [`CompileOptions::decomposer`] when set, otherwise
    /// `"standard"`.
    pub fn decomposer_name(&self) -> &str {
        self.decomposer.as_deref().unwrap_or("standard")
    }

    /// The routing-strategy registry name this compilation uses: the
    /// explicit [`CompileOptions::router`] when set, otherwise `"trios"`.
    pub fn router_name(&self) -> &str {
        self.router.as_deref().unwrap_or("trios")
    }
}

/// The four compiler configurations of the paper's Toffoli experiments
/// (Figures 6 and 7), plus the full Trios used in the benchmark studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperConfig {
    /// "Qiskit (baseline)": the `baseline` router (decompose first) with
    /// the 6-CNOT Toffoli.
    QiskitBaseline,
    /// "Qiskit (8-CNOT Toffoli)": the `baseline` router with the 8-CNOT
    /// form.
    QiskitEight,
    /// "Trios (6-CNOT Toffoli)": the `trios` router, forced 6-CNOT second
    /// pass.
    TriosSix,
    /// "Trios (8-CNOT Toffoli)": the `trios` router, forced 8-CNOT second
    /// pass.
    TriosEight,
    /// Full Trios: the `trios` router with connectivity-aware
    /// decomposition (what the benchmark figures call simply "Trios").
    Trios,
}

impl PaperConfig {
    /// The four Figure 6/7 series, in the paper's legend order.
    pub const FIG6: [PaperConfig; 4] = [
        PaperConfig::QiskitBaseline,
        PaperConfig::QiskitEight,
        PaperConfig::TriosSix,
        PaperConfig::TriosEight,
    ];

    /// The legend label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PaperConfig::QiskitBaseline => "Qiskit (baseline)",
            PaperConfig::QiskitEight => "Qiskit (8-CNOT Toffoli)",
            PaperConfig::TriosSix => "Trios (6-CNOT Toffoli)",
            PaperConfig::TriosEight => "Trios (8-CNOT Toffoli)",
            PaperConfig::Trios => "Trios",
        }
    }

    /// Expands to full [`CompileOptions`]: router and decomposer names
    /// plus the direction policy. That policy is stochastic — the paper's
    /// Qiskit baseline uses a stochastic routing policy (§5.2), and §3's
    /// "even chance" of separating just-gathered qubits is central to its
    /// motivation — but seeded, so every figure is exactly reproducible.
    pub fn to_options(self, seed: u64) -> CompileOptions {
        let (router, decomposer) = match self {
            PaperConfig::QiskitBaseline => ("baseline", Some("six")),
            PaperConfig::QiskitEight => ("baseline", Some("eight")),
            PaperConfig::TriosSix => ("trios", Some("six")),
            PaperConfig::TriosEight => ("trios", Some("eight")),
            PaperConfig::Trios => ("trios", None),
        };
        CompileOptions {
            router: Some(router.into()),
            decomposer: decomposer.map(String::from),
            direction: DirectionPolicy::Stochastic,
            seed,
            ..CompileOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_trios() {
        let o = CompileOptions::default();
        assert_eq!(o.router, None);
        assert_eq!(o.router_name(), "trios");
        assert_eq!(o.decomposer, None);
        assert_eq!(o.decomposer_name(), "standard");
    }

    #[test]
    fn paper_configs_expand_correctly() {
        let o = PaperConfig::QiskitBaseline.to_options(1);
        assert_eq!(o.router_name(), "baseline");
        assert_eq!(o.decomposer_name(), "six");
        let o = PaperConfig::TriosEight.to_options(1);
        assert_eq!(o.router_name(), "trios");
        assert_eq!(o.decomposer_name(), "eight");
        assert_eq!(
            PaperConfig::Trios.to_options(1).decomposer_name(),
            "standard"
        );
        assert_eq!(PaperConfig::FIG6.len(), 4);
    }

    #[test]
    fn router_name_follows_pipeline_unless_overridden() {
        // Unset, the router is the default pipeline's: `trios`.
        let mut o = CompileOptions::default();
        assert_eq!(o.router_name(), "trios");
        o.router = Some("trios-noise".into());
        assert_eq!(o.router_name(), "trios-noise", "explicit name wins");
        // The paper configurations name their router outright.
        let routers: Vec<_> = PaperConfig::FIG6
            .into_iter()
            .map(|config| config.to_options(0).router)
            .collect();
        assert_eq!(
            routers,
            ["baseline", "baseline", "trios", "trios"].map(|r| Some(r.to_string()))
        );
        assert_eq!(
            PaperConfig::Trios.to_options(0).router.as_deref(),
            Some("trios")
        );
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(PaperConfig::QiskitBaseline.label(), "Qiskit (baseline)");
        assert_eq!(PaperConfig::TriosEight.label(), "Trios (8-CNOT Toffoli)");
    }
}
