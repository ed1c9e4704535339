//! The pluggable decomposition seam: [`DecompositionStrategy`], the
//! built-in Toffoli/CCZ lowerings, and the [`DecomposerRegistry`] that
//! names them — the symmetric counterpart to routing's
//! `RoutingStrategy`/`StrategyRegistry`.
//!
//! The paper's thesis is "route the trio first, *then* decompose"; this
//! module makes the second half pluggable so the router × decomposer grid
//! can be swept. Each strategy maps one three-qubit instruction plus its
//! routed placement to a gate sequence:
//!
//! | name             | lowering                                                  |
//! |------------------|-----------------------------------------------------------|
//! | `standard`       | connectivity-aware 6/8-CNOT split (the paper's Trios, §4) |
//! | `six`            | always the 6-CNOT form (paper Fig. 3)                     |
//! | `eight`          | always the 8-CNOT linear form (paper Fig. 4)              |
//! | `tdepth`         | T-depth-4 CCZ phase network (6 CNOTs, 7 T gates)          |
//! | `relative-phase` | Margolus 3-CNOT CCX on provably-safe compute/uncompute    |
//! |                  | pairs, `standard` everywhere else                         |
//! | `qutrit`         | cost-model-only qutrit lowering (Gokhale et al.); not     |
//! |                  | executable — contributes estimate/sweep numbers only      |

use crate::{
    ccz_6cnot, ccz_8cnot_linear, ccz_tdepth4, cswap_via_ccx, toffoli_6cnot, toffoli_8cnot_linear,
    toffoli_margolus, toffoli_tdepth4,
};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, OnceLock};
use trios_ir::{Circuit, Gate, Instruction, Qubit};

/// Where the router put a gathered trio when a lowering is requested.
///
/// `Line`'s `middle` is an **operand index** (0, 1, or 2) into the
/// instruction being lowered, not a physical qubit: strategies are
/// expressed over logical operands and stay ignorant of the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrioPlacement {
    /// No placement information — the pre-route decomposition path
    /// (paper Fig. 2a), or a caller that simply does not know.
    #[default]
    Unknown,
    /// All three pairs are coupled; the 6-CNOT form runs natively.
    Triangle,
    /// The trio sits on a path with operand `middle` in the middle; the
    /// 8-CNOT form runs natively with that operand in the middle role.
    Line {
        /// Operand index (0..=2) of the qubit in the middle of the path.
        middle: usize,
    },
}

/// Per-circuit decomposition decisions, computed once by
/// [`DecompositionStrategy::plan`] before lowering starts and consumed
/// (mutably) by each [`DecompositionStrategy::lower`] call.
///
/// Today this carries the `relative-phase` strategy's Margolus safety
/// analysis: one decision per `ccx` instruction, keyed by its ordered
/// operand triple and consumed in program order (routing and the
/// pre-route pass both lower three-qubit gates in program order). The
/// `synthetic` note marks the inner `ccx` of a `cswap` expansion — that
/// gate was not in the analyzed circuit, so it must never consume (or be
/// granted) a Margolus decision.
#[derive(Debug, Clone, Default)]
pub struct DecompositionPlan {
    /// Margolus-approved decisions per ordered `ccx` operand triple, in
    /// program order.
    margolus: HashMap<[usize; 3], VecDeque<bool>>,
    /// Operand triple of a pending synthetic inner `ccx` (from a `cswap`
    /// expansion); it is the next `ccx` to reach `lower`.
    synthetic: Option<[usize; 3]>,
}

impl DecompositionPlan {
    /// An empty plan (every lowering falls back to its default form).
    pub fn new() -> Self {
        DecompositionPlan::default()
    }

    /// Number of Margolus-approved `ccx` instructions in the plan.
    pub fn margolus_count(&self) -> usize {
        self.margolus
            .values()
            .map(|q| q.iter().filter(|&&m| m).count())
            .sum()
    }

    fn mark_synthetic(&mut self, key: [usize; 3]) {
        self.synthetic = Some(key);
    }

    /// Pops the next decision for a `ccx` over `key`. Synthetic inner
    /// gates (and gates the analysis never saw) get `false`.
    fn take_margolus(&mut self, key: [usize; 3]) -> bool {
        if self.synthetic == Some(key) {
            self.synthetic = None;
            return false;
        }
        self.margolus
            .get_mut(&key)
            .and_then(|q| q.pop_front())
            .unwrap_or(false)
    }
}

/// Abstract per-trio gate cost of a lowering, for the estimate/sweep cost
/// models (notably the non-executable `qutrit` strategy, whose entire
/// contribution is this number).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoweringCost {
    /// Entangling (two-qubit-equivalent) gates per lowered Toffoli.
    pub two_qubit: f64,
    /// Single-qubit gates per lowered Toffoli.
    pub one_qubit: f64,
}

/// One Toffoli/CCZ/CSWAP lowering policy: maps a three-qubit instruction
/// plus its routed placement to an equivalent gate sequence over the same
/// logical operands.
///
/// Strategies are `Send + Sync` so the batch compiler's worker threads
/// can share them; per-circuit state lives in the [`DecompositionPlan`]
/// the caller threads through, never in the strategy itself.
pub trait DecompositionStrategy: Send + Sync {
    /// The stable registry name (what `--decomposer` accepts).
    fn name(&self) -> &str;

    /// One-line human description for listings.
    fn description(&self) -> &str {
        ""
    }

    /// Whether this strategy emits executable gates. Cost-model-only
    /// strategies (`qutrit`) return `false`; compiling with them is
    /// rejected up-front, while estimates and sweeps use
    /// [`DecompositionStrategy::trio_cost`] instead.
    fn executable(&self) -> bool {
        true
    }

    /// Analyzes `circuit` (the *logical* circuit, before routing) and
    /// returns the decisions [`DecompositionStrategy::lower`] will
    /// consume. The default is an empty plan.
    fn plan(&self, circuit: &Circuit) -> DecompositionPlan {
        let _ = circuit;
        DecompositionPlan::new()
    }

    /// Lowers one three-qubit instruction for `placement`.
    ///
    /// The returned sequence is over the instruction's logical operands;
    /// it may contain a `ccx` (the `cswap` expansions do), which the
    /// caller lowers recursively (pre-route) or re-gathers (the router).
    ///
    /// # Panics
    ///
    /// Implementations may panic when handed a non-three-qubit gate.
    fn lower(
        &self,
        instr: &Instruction,
        placement: TrioPlacement,
        plan: &mut DecompositionPlan,
    ) -> Vec<Instruction>;

    /// Abstract per-Toffoli gate cost, for estimate/sweep cost models.
    /// The default is the 6-CNOT form's 6 two-qubit + 9 one-qubit gates.
    fn trio_cost(&self) -> LoweringCost {
        LoweringCost {
            two_qubit: 6.0,
            one_qubit: 9.0,
        }
    }
}

/// Operand index of the middle qubit for an 8-CNOT lowering: the routed
/// middle when the placement is a line, otherwise the canonical choice —
/// the second operand, matching the pre-route `toffoli_8cnot` role
/// assignment.
fn middle_operand(placement: TrioPlacement) -> usize {
    match placement {
        TrioPlacement::Line { middle } => middle,
        _ => 1,
    }
}

/// The operands other than the `middle` one, in operand order.
fn ends(instr: &Instruction, middle: usize) -> (Qubit, Qubit) {
    let (first, second) = match middle {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    };
    (instr.qubit(first), instr.qubit(second))
}

/// The 8-CNOT Toffoli with the placement-appropriate middle operand.
fn lower_ccx_eight(instr: &Instruction, placement: TrioPlacement) -> Vec<Instruction> {
    let middle = middle_operand(placement);
    let (end1, end2) = ends(instr, middle);
    toffoli_8cnot_linear(end1, instr.qubit(middle), end2, instr.qubit(2))
}

/// The 8-CNOT CCZ with the placement-appropriate middle operand.
fn lower_ccz_eight(instr: &Instruction, placement: TrioPlacement) -> Vec<Instruction> {
    let middle = middle_operand(placement);
    let (end1, end2) = ends(instr, middle);
    ccz_8cnot_linear(end1, instr.qubit(middle), end2)
}

/// The connectivity-aware lowering shared by `standard` and
/// `relative-phase`'s fallback: 6-CNOT on a triangle (or pre-route, where
/// connectivity awareness does not exist yet — precisely the paper's
/// point), 8-CNOT with the routed middle on a line.
fn lower_standard(instr: &Instruction, placement: TrioPlacement) -> Vec<Instruction> {
    let (q0, q1, q2) = (instr.qubit(0), instr.qubit(1), instr.qubit(2));
    match instr.gate() {
        Gate::Ccx => match placement {
            TrioPlacement::Line { .. } => lower_ccx_eight(instr, placement),
            _ => toffoli_6cnot(q0, q1, q2),
        },
        Gate::Ccz => match placement {
            TrioPlacement::Line { .. } => lower_ccz_eight(instr, placement),
            _ => ccz_6cnot(q0, q1, q2),
        },
        Gate::Cswap => cswap_via_ccx(q0, q1, q2),
        g => unreachable!("lowering a non-three-qubit gate {g:?}"),
    }
}

fn expect_three_qubit(instr: &Instruction) {
    assert!(
        instr.gate().is_three_qubit(),
        "decomposition strategies expect a three-qubit gate, got {:?}",
        instr.gate()
    );
}

/// `standard`: the paper's mapping-aware split — 6-CNOT on triangles,
/// 8-CNOT (with the routed middle) on lines, 6-CNOT before routing.
/// Byte-identical to the compiler's historical default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StandardDecomposition;

impl DecompositionStrategy for StandardDecomposition {
    fn name(&self) -> &str {
        "standard"
    }

    fn description(&self) -> &str {
        "connectivity-aware 6/8-CNOT split after routing (the paper's Trios, §4)"
    }

    fn lower(
        &self,
        instr: &Instruction,
        placement: TrioPlacement,
        _plan: &mut DecompositionPlan,
    ) -> Vec<Instruction> {
        expect_three_qubit(instr);
        lower_standard(instr, placement)
    }
}

/// `six`: always the 6-CNOT form (paper Fig. 3) — on triangle-free
/// placements the router pays extra SWAPs for the third CNOT pair, which
/// is exactly the Fig. 6/7 ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SixCnotDecomposition;

impl DecompositionStrategy for SixCnotDecomposition {
    fn name(&self) -> &str {
        "six"
    }

    fn description(&self) -> &str {
        "always the 6-CNOT Toffoli (paper Fig. 3; forces SWAPs off-triangle)"
    }

    fn lower(
        &self,
        instr: &Instruction,
        _placement: TrioPlacement,
        _plan: &mut DecompositionPlan,
    ) -> Vec<Instruction> {
        expect_three_qubit(instr);
        let (q0, q1, q2) = (instr.qubit(0), instr.qubit(1), instr.qubit(2));
        match instr.gate() {
            Gate::Ccx => toffoli_6cnot(q0, q1, q2),
            Gate::Ccz => ccz_6cnot(q0, q1, q2),
            Gate::Cswap => cswap_via_ccx(q0, q1, q2),
            g => unreachable!("lowering a non-three-qubit gate {g:?}"),
        }
    }
}

/// `eight`: always the 8-CNOT linear form (paper Fig. 4), with the routed
/// middle on lines and the canonical second-operand middle otherwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EightCnotDecomposition;

impl DecompositionStrategy for EightCnotDecomposition {
    fn name(&self) -> &str {
        "eight"
    }

    fn description(&self) -> &str {
        "always the 8-CNOT linear Toffoli (paper Fig. 4; runs natively on a path)"
    }

    fn lower(
        &self,
        instr: &Instruction,
        placement: TrioPlacement,
        _plan: &mut DecompositionPlan,
    ) -> Vec<Instruction> {
        expect_three_qubit(instr);
        match instr.gate() {
            Gate::Ccx => lower_ccx_eight(instr, placement),
            Gate::Ccz => lower_ccz_eight(instr, placement),
            Gate::Cswap => cswap_via_ccx(instr.qubit(0), instr.qubit(1), instr.qubit(2)),
            g => unreachable!("lowering a non-three-qubit gate {g:?}"),
        }
    }
}

/// `tdepth`: the T-depth-4 CCZ phase network (6 CNOTs, 7 T gates, all
/// three qubit pairs) — fewer sequential T layers than the Fig. 3 form,
/// the knob that matters on hardware whose magic-state factories
/// serialize T gates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TDepthDecomposition;

impl DecompositionStrategy for TDepthDecomposition {
    fn name(&self) -> &str {
        "tdepth"
    }

    fn description(&self) -> &str {
        "T-depth-4 phase-network Toffoli (6 CNOTs, 7 T gates over all three pairs)"
    }

    fn lower(
        &self,
        instr: &Instruction,
        _placement: TrioPlacement,
        _plan: &mut DecompositionPlan,
    ) -> Vec<Instruction> {
        expect_three_qubit(instr);
        let (q0, q1, q2) = (instr.qubit(0), instr.qubit(1), instr.qubit(2));
        match instr.gate() {
            Gate::Ccx => toffoli_tdepth4(q0, q1, q2),
            Gate::Ccz => ccz_tdepth4(q0, q1, q2),
            Gate::Cswap => cswap_via_ccx(q0, q1, q2),
            g => unreachable!("lowering a non-three-qubit gate {g:?}"),
        }
    }
}

/// `relative-phase`: the Margolus 3-CNOT CCX wherever a conservative
/// compute/uncompute analysis proves the relative phase unobservable,
/// `standard` everywhere else.
///
/// The Margolus form equals CCX times a diagonal `−1` on one basis state
/// (`|101⟩` in operand order), so a *pair* of Margolus lowerings with
/// identical ordered operands cancels the phase exactly:
/// `M·G·M = CCX·D·G·D·CCX = CCX·G·CCX` whenever `G` is diagonal on the
/// trio wires (`D` commutes with `CCX` and squares to identity). The
/// [`DecompositionStrategy::plan`] pass pairs each `ccx` with the next
/// `ccx` over the same ordered operands when every intervening gate
/// touching the trio is computational-basis-diagonal on it; both members
/// of the pair lower to the 3-CNOT form, everything else falls back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelativePhaseDecomposition;

/// `true` when `instr`'s action is diagonal in the computational basis on
/// every qubit of `trio` it touches (phases commute through it). Gates
/// not touching the trio are irrelevant; callers pre-filter.
fn diagonal_on_trio(instr: &Instruction, trio: &[usize; 3]) -> bool {
    let in_trio = |q: Qubit| trio.contains(&q.index());
    match instr.gate() {
        // Diagonal single-qubit gates.
        Gate::I
        | Gate::Z
        | Gate::S
        | Gate::Sdg
        | Gate::T
        | Gate::Tdg
        | Gate::Rz(_)
        | Gate::U1(_) => true,
        // Diagonal multi-qubit gates.
        Gate::Cz | Gate::Cp(_) | Gate::Ccz => true,
        // Controlled-X forms are diagonal on their *controls* only.
        Gate::Cx | Gate::Cxpow(_) => !in_trio(instr.qubit(1)),
        Gate::Ccx => !in_trio(instr.qubit(2)),
        Gate::Cswap => !in_trio(instr.qubit(1)) && !in_trio(instr.qubit(2)),
        // Everything else (Hadamards, X/Y rotations, SWAPs, measurement —
        // conservatively) moves population between basis states.
        _ => false,
    }
}

impl DecompositionStrategy for RelativePhaseDecomposition {
    fn name(&self) -> &str {
        "relative-phase"
    }

    fn description(&self) -> &str {
        "Margolus 3-CNOT CCX on provably-safe compute/uncompute pairs, standard elsewhere"
    }

    fn plan(&self, circuit: &Circuit) -> DecompositionPlan {
        let instrs: Vec<&Instruction> = circuit.iter().collect();
        let mut margolus = vec![false; instrs.len()];
        let mut paired = vec![false; instrs.len()];
        for i in 0..instrs.len() {
            if instrs[i].gate() != Gate::Ccx || paired[i] {
                continue;
            }
            let trio = [
                instrs[i].qubit(0).index(),
                instrs[i].qubit(1).index(),
                instrs[i].qubit(2).index(),
            ];
            for j in (i + 1)..instrs.len() {
                let candidate = instrs[j];
                if candidate.gate() == Gate::Ccx
                    && !paired[j]
                    && candidate.qubit(0).index() == trio[0]
                    && candidate.qubit(1).index() == trio[1]
                    && candidate.qubit(2).index() == trio[2]
                {
                    // Compute/uncompute pair found with only diagonal
                    // traffic in between: both lower to Margolus.
                    paired[i] = true;
                    paired[j] = true;
                    margolus[i] = true;
                    margolus[j] = true;
                    break;
                }
                let touches = candidate.qubits().iter().any(|q| trio.contains(&q.index()));
                if touches && !diagonal_on_trio(candidate, &trio) {
                    break; // phase would be observable — leave i unpaired
                }
            }
        }
        let mut plan = DecompositionPlan::new();
        for (index, instr) in instrs.iter().enumerate() {
            if instr.gate() == Gate::Ccx {
                let key = [
                    instr.qubit(0).index(),
                    instr.qubit(1).index(),
                    instr.qubit(2).index(),
                ];
                plan.margolus
                    .entry(key)
                    .or_default()
                    .push_back(margolus[index]);
            }
        }
        plan
    }

    fn lower(
        &self,
        instr: &Instruction,
        placement: TrioPlacement,
        plan: &mut DecompositionPlan,
    ) -> Vec<Instruction> {
        expect_three_qubit(instr);
        let (q0, q1, q2) = (instr.qubit(0), instr.qubit(1), instr.qubit(2));
        match instr.gate() {
            Gate::Ccx => {
                let key = [q0.index(), q1.index(), q2.index()];
                if plan.take_margolus(key) {
                    toffoli_margolus(q0, q1, q2)
                } else {
                    lower_standard(instr, placement)
                }
            }
            Gate::Cswap => {
                // The expansion's inner ccx was not in the analyzed
                // circuit; note it so it can never consume a decision.
                plan.mark_synthetic([q0.index(), q1.index(), q2.index()]);
                cswap_via_ccx(q0, q1, q2)
            }
            _ => lower_standard(instr, placement),
        }
    }

    fn trio_cost(&self) -> LoweringCost {
        // Between the 3-CNOT Margolus and the 6-CNOT fallback; the
        // executable paths report exact counts, this is only the abstract
        // estimate-model number.
        LoweringCost {
            two_qubit: 4.5,
            one_qubit: 7.0,
        }
    }
}

/// `qutrit`: the qutrit-assisted Toffoli of Gokhale et al. (storing the
/// intermediate in a third level of one control), modeled as a **cost
/// alternative only** — roughly three two-qutrit gates and no T gates per
/// Toffoli. Not executable on this two-level IR: compiling with it is
/// rejected, while estimates and sweeps apply
/// [`DecompositionStrategy::trio_cost`] to the `standard`-compiled
/// routing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QutritCostModel;

impl DecompositionStrategy for QutritCostModel {
    fn name(&self) -> &str {
        "qutrit"
    }

    fn description(&self) -> &str {
        "cost-model-only qutrit Toffoli (Gokhale et al.): ~3 two-qutrit gates, no T"
    }

    fn executable(&self) -> bool {
        false
    }

    fn lower(
        &self,
        instr: &Instruction,
        placement: TrioPlacement,
        _plan: &mut DecompositionPlan,
    ) -> Vec<Instruction> {
        // Defensive fallback: pipelines reject non-executable strategies
        // before lowering, but a direct caller still gets correct gates.
        expect_three_qubit(instr);
        lower_standard(instr, placement)
    }

    fn trio_cost(&self) -> LoweringCost {
        LoweringCost {
            two_qubit: 3.0,
            one_qubit: 0.0,
        }
    }
}

/// Constructor stored per registry entry.
pub type DecomposerConstructor = Arc<dyn Fn() -> Box<dyn DecompositionStrategy> + Send + Sync>;

/// An ordered name → constructor map of decomposition strategies,
/// mirroring routing's `StrategyRegistry`.
///
/// [`DecomposerRegistry::standard`] registers the built-ins under their
/// stable names; [`DecomposerRegistry::register`] adds (or replaces)
/// entries, so downstream crates can plug in custom lowerings and still
/// select them by name through the same CLI/server/core seam.
#[derive(Clone, Default)]
pub struct DecomposerRegistry {
    /// Shared between clones; [`DecomposerRegistry::register`] copies on write.
    entries: Arc<Vec<(String, DecomposerConstructor)>>,
}

impl DecomposerRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        DecomposerRegistry::default()
    }

    /// The registry of built-in strategies: `standard`, `six`, `eight`,
    /// `tdepth`, `relative-phase`, `qutrit`, in that listing order.
    ///
    /// Built once per process; each call clones it, which shares its
    /// entries.
    pub fn standard() -> Self {
        static STANDARD: OnceLock<DecomposerRegistry> = OnceLock::new();
        STANDARD
            .get_or_init(|| {
                let mut registry = DecomposerRegistry::empty();
                registry.register("standard", || Box::new(StandardDecomposition));
                registry.register("six", || Box::new(SixCnotDecomposition));
                registry.register("eight", || Box::new(EightCnotDecomposition));
                registry.register("tdepth", || Box::new(TDepthDecomposition));
                registry.register("relative-phase", || Box::new(RelativePhaseDecomposition));
                registry.register("qutrit", || Box::new(QutritCostModel));
                registry
            })
            .clone()
    }

    /// Registers `constructor` under `name`, replacing any existing entry
    /// with that name (listing order is preserved on replacement).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        constructor: impl Fn() -> Box<dyn DecompositionStrategy> + Send + Sync + 'static,
    ) -> &mut Self {
        let name = name.into();
        let constructor: DecomposerConstructor = Arc::new(constructor);
        let entries = Arc::make_mut(&mut self.entries);
        match entries.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 = constructor,
            None => entries.push((name, constructor)),
        }
        self
    }

    /// Builds the strategy registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<Box<dyn DecompositionStrategy>> {
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

impl fmt::Debug for DecomposerRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecomposerRegistry")
            .field("names", &self.names().collect::<Vec<_>>())
            .finish()
    }
}

/// How a caller names a decomposition strategy to the router: by registry
/// name (resolved in [`DecomposerRegistry::standard`] at engine
/// construction) or as an already-built strategy (how the core pipeline
/// injects strategies resolved in a caller-supplied registry).
#[derive(Clone)]
pub enum DecomposerHandle {
    /// Resolve this name in the standard registry.
    Named(String),
    /// Use this strategy directly.
    Custom(Arc<dyn DecompositionStrategy>),
}

impl DecomposerHandle {
    /// A handle naming `name` in the standard registry.
    pub fn named(name: impl Into<String>) -> Self {
        DecomposerHandle::Named(name.into())
    }

    /// The strategy name this handle refers to.
    pub fn name(&self) -> &str {
        match self {
            DecomposerHandle::Named(name) => name,
            DecomposerHandle::Custom(strategy) => strategy.name(),
        }
    }

    /// Resolves to a concrete strategy (named handles look up the
    /// standard registry).
    ///
    /// # Errors
    ///
    /// Returns the unknown name.
    pub fn resolve(&self) -> Result<Arc<dyn DecompositionStrategy>, String> {
        match self {
            DecomposerHandle::Named(name) => DecomposerRegistry::standard()
                .get(name)
                .map(Arc::from)
                .ok_or_else(|| name.clone()),
            DecomposerHandle::Custom(strategy) => Ok(Arc::clone(strategy)),
        }
    }
}

impl Default for DecomposerHandle {
    fn default() -> Self {
        DecomposerHandle::Named("standard".into())
    }
}

impl PartialEq for DecomposerHandle {
    fn eq(&self, other: &Self) -> bool {
        // Handles are configuration: two handles naming the same strategy
        // configure the router identically.
        self.name() == other.name()
    }
}

impl fmt::Debug for DecomposerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DecomposerHandle({:?})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trios_sim::circuits_equivalent;

    const EPS: f64 = 1e-9;

    fn lower_flat(strategy: &dyn DecompositionStrategy, circuit: &Circuit) -> Circuit {
        crate::decompose_three_qubit_gates(circuit, strategy)
    }

    fn three_gate_program() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0).ccx(0, 1, 2).ccz(1, 2, 3).cswap(0, 2, 3).t(1);
        c
    }

    #[test]
    fn standard_registry_lists_the_six_builtins() {
        let registry = DecomposerRegistry::standard();
        assert_eq!(
            registry.names().collect::<Vec<_>>(),
            [
                "standard",
                "six",
                "eight",
                "tdepth",
                "relative-phase",
                "qutrit"
            ]
        );
        assert_eq!(registry.len(), 6);
        assert!(!registry.is_empty());
        assert!(registry.contains("tdepth"));
        assert!(!registry.contains("margolus"));
        for name in registry.names() {
            let strategy = registry.get(name).unwrap();
            assert_eq!(strategy.name(), name);
            assert!(!strategy.description().is_empty(), "{name}");
        }
    }

    #[test]
    fn only_qutrit_is_not_executable() {
        let registry = DecomposerRegistry::standard();
        for name in registry.names() {
            let strategy = registry.get(name).unwrap();
            assert_eq!(strategy.executable(), name != "qutrit", "{name}");
        }
    }

    #[test]
    fn every_executable_strategy_preserves_semantics_pre_route() {
        let program = three_gate_program();
        let registry = DecomposerRegistry::standard();
        for name in registry.names() {
            let strategy = registry.get(name).unwrap();
            if !strategy.executable() {
                continue;
            }
            let lowered = lower_flat(&*strategy, &program);
            assert_eq!(lowered.counts().three_qubit, 0, "{name}");
            assert!(
                circuits_equivalent(&program, &lowered, EPS).unwrap(),
                "{name} must preserve semantics"
            );
        }
    }

    #[test]
    fn placements_steer_the_standard_strategy() {
        let ccx = Instruction::new(Gate::Ccx, &[Qubit::new(0), Qubit::new(1), Qubit::new(2)]);
        let mut plan = DecompositionPlan::new();
        let six = StandardDecomposition.lower(&ccx, TrioPlacement::Triangle, &mut plan);
        assert_eq!(cx_count(&six), 6);
        let unknown = StandardDecomposition.lower(&ccx, TrioPlacement::Unknown, &mut plan);
        assert_eq!(cx_count(&unknown), 6, "pre-route falls back to 6-CNOT");
        for middle in 0..3 {
            let eight =
                StandardDecomposition.lower(&ccx, TrioPlacement::Line { middle }, &mut plan);
            assert_eq!(cx_count(&eight), 8, "middle {middle}");
            // Every CNOT touches the middle qubit: the two chain pairs.
            for instr in &eight {
                if instr.gate() == Gate::Cx {
                    assert!(
                        instr.qubits().iter().any(|q| q.index() == middle),
                        "middle {middle}: CX off the chain"
                    );
                }
            }
            let as_circuit = Circuit::from_instructions(3, eight).unwrap();
            let mut reference = Circuit::new(3);
            reference.ccx(0, 1, 2);
            assert!(
                circuits_equivalent(&reference, &as_circuit, EPS).unwrap(),
                "middle {middle}"
            );
        }
    }

    #[test]
    fn eight_strategy_respects_line_middle_for_ccz() {
        let ccz = Instruction::new(Gate::Ccz, &[Qubit::new(0), Qubit::new(1), Qubit::new(2)]);
        let mut plan = DecompositionPlan::new();
        for middle in 0..3 {
            let lowered =
                EightCnotDecomposition.lower(&ccz, TrioPlacement::Line { middle }, &mut plan);
            for instr in &lowered {
                if instr.gate() == Gate::Cx {
                    assert!(instr.qubits().iter().any(|q| q.index() == middle));
                }
            }
        }
    }

    #[test]
    fn margolus_plan_pairs_compute_uncompute() {
        // ccx, diagonal traffic, same ccx again: both approved.
        let mut c = Circuit::new(4);
        c.ccx(0, 1, 2).t(2).cz(2, 3).ccx(0, 1, 2);
        let plan = RelativePhaseDecomposition.plan(&c);
        assert_eq!(plan.margolus_count(), 2);
        let lowered = lower_flat(&RelativePhaseDecomposition, &c);
        assert_eq!(cx_count_circuit(&lowered), 3 + 3, "both pairs use 3 CNOTs");
        assert!(circuits_equivalent(&c, &lowered, EPS).unwrap());
    }

    #[test]
    fn margolus_plan_blocks_on_non_diagonal_traffic() {
        // An H on a trio qubit between the pair makes the phase
        // observable: both fall back to the 6-CNOT form.
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2).h(2).ccx(0, 1, 2);
        let plan = RelativePhaseDecomposition.plan(&c);
        assert_eq!(plan.margolus_count(), 0);
        let lowered = lower_flat(&RelativePhaseDecomposition, &c);
        assert_eq!(cx_count_circuit(&lowered), 12);
        assert!(circuits_equivalent(&c, &lowered, EPS).unwrap());
    }

    #[test]
    fn margolus_plan_blocks_on_measurement() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2).measure(2).ccx(0, 1, 2);
        let plan = RelativePhaseDecomposition.plan(&c);
        assert_eq!(plan.margolus_count(), 0, "measurement is conservative");
    }

    #[test]
    fn margolus_plan_requires_identical_operand_order() {
        // Same unitary, permuted controls: the −1 lands on a different
        // basis state, so the phases would NOT cancel. Must not pair.
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2).ccx(1, 0, 2);
        let plan = RelativePhaseDecomposition.plan(&c);
        assert_eq!(plan.margolus_count(), 0);
        let lowered = lower_flat(&RelativePhaseDecomposition, &c);
        assert!(circuits_equivalent(&c, &lowered, EPS).unwrap());
    }

    #[test]
    fn margolus_allows_control_side_cx_traffic() {
        // CX *from* a trio qubit to an outside qubit is diagonal on the
        // trio (classical control) and must not block the pairing.
        let mut c = Circuit::new(4);
        c.ccx(0, 1, 2).cx(2, 3).ccx(0, 1, 2);
        let plan = RelativePhaseDecomposition.plan(&c);
        assert_eq!(plan.margolus_count(), 2);
        let lowered = lower_flat(&RelativePhaseDecomposition, &c);
        assert!(circuits_equivalent(&c, &lowered, EPS).unwrap());
    }

    #[test]
    fn margolus_blocks_cx_into_the_trio() {
        let mut c = Circuit::new(4);
        c.ccx(0, 1, 2).cx(3, 2).ccx(0, 1, 2);
        let plan = RelativePhaseDecomposition.plan(&c);
        assert_eq!(plan.margolus_count(), 0);
    }

    #[test]
    fn cswap_inner_ccx_never_consumes_a_margolus_decision() {
        // The cswap expands through a synthetic ccx over (0, 1, 2) — the
        // same triple as a planned Margolus pair. The synthetic gate must
        // not steal a decision (which would desync the pairing and break
        // phase cancellation).
        let mut c = Circuit::new(3);
        c.cswap(0, 1, 2).ccx(0, 1, 2).ccx(0, 1, 2);
        let plan = RelativePhaseDecomposition.plan(&c);
        assert_eq!(plan.margolus_count(), 2);
        let lowered = lower_flat(&RelativePhaseDecomposition, &c);
        assert!(circuits_equivalent(&c, &lowered, EPS).unwrap());
        // cswap: 2 conjugating CX + 6-CNOT inner ccx; pair: 3 + 3.
        assert_eq!(cx_count_circuit(&lowered), 2 + 6 + 3 + 3);
    }

    #[test]
    fn unpaired_ccx_falls_back_to_standard() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2); // no uncompute anywhere
        let plan = RelativePhaseDecomposition.plan(&c);
        assert_eq!(plan.margolus_count(), 0);
        let lowered = lower_flat(&RelativePhaseDecomposition, &c);
        assert_eq!(cx_count_circuit(&lowered), 6);
    }

    #[test]
    fn interleaved_pairs_resolve_greedily() {
        // a, b, a, b over disjoint trios: both pairs approved.
        let mut c = Circuit::new(6);
        c.ccx(0, 1, 2).ccx(3, 4, 5).ccx(0, 1, 2).ccx(3, 4, 5);
        let plan = RelativePhaseDecomposition.plan(&c);
        assert_eq!(plan.margolus_count(), 4);
        let lowered = lower_flat(&RelativePhaseDecomposition, &c);
        assert!(circuits_equivalent(&c, &lowered, EPS).unwrap());
    }

    #[test]
    fn qutrit_cost_model_is_cheaper_in_two_qubit_gates() {
        let qutrit = QutritCostModel.trio_cost();
        let standard = StandardDecomposition.trio_cost();
        assert!(qutrit.two_qubit < standard.two_qubit);
        assert_eq!(qutrit.one_qubit, 0.0, "no T gates in the qutrit model");
    }

    #[test]
    fn handles_compare_and_resolve_by_name() {
        let named = DecomposerHandle::named("six");
        let custom = DecomposerHandle::Custom(Arc::new(SixCnotDecomposition));
        assert_eq!(named, custom);
        assert_eq!(named.name(), "six");
        assert!(named.resolve().is_ok());
        match DecomposerHandle::named("nope").resolve() {
            Err(name) => assert_eq!(name, "nope"),
            Ok(_) => panic!("unknown name must not resolve"),
        }
        assert_eq!(DecomposerHandle::default().name(), "standard");
        assert!(format!("{named:?}").contains("six"));
    }

    #[test]
    fn custom_strategies_can_be_registered_and_replaced() {
        let mut registry = DecomposerRegistry::standard();
        registry.register("custom", || Box::new(SixCnotDecomposition));
        assert_eq!(registry.len(), 7);
        assert!(registry.contains("custom"));
        registry.register("custom", || Box::new(EightCnotDecomposition));
        assert_eq!(registry.len(), 7, "replacement keeps order and count");
        let debug = format!("{registry:?}");
        assert!(debug.contains("custom"), "{debug}");
        // Registering on a copy leaves the registry it was cloned from,
        // and the process-wide standard one, as they were.
        let mut copy = registry.clone();
        copy.register("standard", || Box::new(SixCnotDecomposition));
        assert_eq!(copy.get("standard").unwrap().name(), "six");
        assert_eq!(registry.get("standard").unwrap().name(), "standard");
        assert_eq!(registry.len(), 7);
        assert_eq!(DecomposerRegistry::standard().len(), 6);
    }

    fn cx_count(instrs: &[Instruction]) -> usize {
        instrs.iter().filter(|i| i.gate() == Gate::Cx).count()
    }

    fn cx_count_circuit(c: &Circuit) -> usize {
        c.iter().filter(|i| i.gate() == Gate::Cx).count()
    }
}
