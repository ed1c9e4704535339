//! The [`Simulator`] trait: backend-agnostic circuit verification.
//!
//! Three implementations ship:
//!
//! | backend | engine | width | gate set |
//! |---|---|---|---|
//! | [`DenseSimulator`] | statevector ([`State`]) | ≤ [`MAX_QUBITS`] | any unitary |
//! | [`StabilizerSimulator`] | CHP tableau ([`Tableau`]) | hundreds of qubits | Clifford |
//! | [`SparseSimulator`] | term list ([`SparseState`]) | ≤ [`SPARSE_MAX_QUBITS`] (more via compaction) | any unitary, ≤ `max_terms` amplitudes |
//!
//! The fuzz harness asks [`auto_backend`] to pick per cell: stabilizer
//! whenever the pair is all-Clifford (exact, one run per side at any
//! width), dense while the device fits under the dense cap (any gate,
//! sampled inputs), and sparse for non-Clifford circuits on wide devices —
//! which is exactly the situation for routed Toffoli networks on the
//! 20-qubit Johannesburg device or 127-qubit-class heavy-hex grids. Only
//! a sparse budget blow-up leaves a cell unverified.
//!
//! [`SparseState`]: crate::SparseState
//! [`SPARSE_MAX_QUBITS`]: crate::SPARSE_MAX_QUBITS

use crate::equivalence::check_layout;
use crate::sparse::SparseSimulator;
use crate::tableau::first_non_clifford;
use crate::{SimError, State, Tableau, C64, MAX_QUBITS};
use trios_ir::Circuit;

/// How a backend identifies itself in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capability {
    /// Backend name used in reports and error messages.
    pub name: &'static str,
    /// `true` if a verdict covers every input; `false` if it covers only
    /// the `trials` seeded inputs it ran.
    pub exact: bool,
}

/// Which simulation backend to use for equivalence checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Pick per circuit: stabilizer for all-Clifford pairs, dense when
    /// the register fits, sparse for non-Clifford circuits on wide
    /// registers, skip only on a sparse budget blow-up.
    #[default]
    Auto,
    /// Dense statevector only.
    Dense,
    /// Stabilizer tableau only.
    Stabilizer,
    /// Sparse term-list statevector only.
    Sparse,
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Backend::Auto),
            "dense" => Ok(Backend::Dense),
            "stabilizer" => Ok(Backend::Stabilizer),
            "sparse" => Ok(Backend::Sparse),
            other => Err(format!(
                "unknown backend '{other}' (expected auto, dense, stabilizer, or sparse)"
            )),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Auto => "auto",
            Backend::Dense => "dense",
            Backend::Stabilizer => "stabilizer",
            Backend::Sparse => "sparse",
        })
    }
}

/// A verification backend: reports its capability and checks compiled
/// circuits against originals, up to one global phase.
///
/// The stabilizer's check is exact ([`Capability::exact`]): one run
/// covers every input, and it ignores `trials` and `seed`. The dense and
/// sparse checks are sampled: each trial prepares a seeded random input
/// and runs it through both sides. Trial `t` uses seed `seed + t`, and
/// they run at least one trial, so `trials = 0` still checks one input:
/// a checker never passes a pair it did not run. For small circuits of
/// any gate set, the free function
/// [`circuits_equivalent`](crate::circuits_equivalent) compares whole
/// unitaries on the dense engine.
pub trait Simulator {
    /// The name this backend reports under.
    fn capability(&self) -> Capability;

    /// `Ok` if this backend can simulate `circuit` (width and gate set).
    ///
    /// # Errors
    ///
    /// [`SimError::TooManyQubits`] or [`SimError::UnsupportedGate`]
    /// explaining the first obstacle.
    fn supports_circuit(&self, circuit: &Circuit) -> Result<(), SimError>;

    /// Verifies a routed physical-register circuit against the original
    /// logical circuit through its initial/final layouts: on every input
    /// if the backend is exact, else on `trials` random logical inputs.
    ///
    /// `initial_layout[l]` is the physical home of logical qubit `l`
    /// before the compiled circuit runs, and `final_layout[l]` its home
    /// afterwards (routing SWAPs move data). Unused physical qubits start
    /// in `|0⟩` on both sides.
    ///
    /// # Errors
    ///
    /// [`SimError::WidthMismatch`] if a layout's length differs from the
    /// logical width or maps outside the physical register,
    /// [`SimError::DuplicateLayoutEntry`] if a layout names one physical
    /// qubit twice, plus anything [`Simulator::supports_circuit`] reports.
    fn compiled_equivalent(
        &self,
        original: &Circuit,
        compiled: &Circuit,
        initial_layout: &[usize],
        final_layout: &[usize],
        trials: usize,
        seed: u64,
    ) -> Result<bool, SimError>;

    /// Unitary-equivalence check of two same-width circuits (global phase
    /// ignored): by default [`Simulator::compiled_equivalent`] through
    /// identity layouts.
    ///
    /// [`SparseSimulator`] overrides it to compact a pair wider than
    /// [`SPARSE_MAX_QUBITS`] onto the qubits either circuit touches,
    /// which an identity layout of that width cannot reach.
    ///
    /// [`SPARSE_MAX_QUBITS`]: crate::SPARSE_MAX_QUBITS
    ///
    /// # Errors
    ///
    /// [`SimError::WidthMismatch`] if widths differ, plus anything
    /// [`Simulator::compiled_equivalent`] reports.
    fn circuits_equivalent(
        &self,
        a: &Circuit,
        b: &Circuit,
        trials: usize,
        seed: u64,
    ) -> Result<bool, SimError> {
        if a.num_qubits() != b.num_qubits() {
            return Err(SimError::WidthMismatch {
                expected: a.num_qubits(),
                actual: b.num_qubits(),
            });
        }
        let identity: Vec<usize> = (0..a.num_qubits()).collect();
        self.compiled_equivalent(a, b, &identity, &identity, trials, seed)
    }
}

/// Dense statevector backend (any unitary gate, ≤ [`MAX_QUBITS`]).
#[derive(Debug, Clone, Copy)]
pub struct DenseSimulator {
    /// Amplitude tolerance for equivalence comparisons.
    pub eps: f64,
}

impl Default for DenseSimulator {
    fn default() -> Self {
        DenseSimulator { eps: 1e-7 }
    }
}

impl DenseSimulator {
    /// A dense backend with the given amplitude tolerance.
    pub fn new(eps: f64) -> Self {
        DenseSimulator { eps }
    }
}

impl Simulator for DenseSimulator {
    fn capability(&self) -> Capability {
        Capability {
            name: "dense",
            exact: false,
        }
    }

    fn supports_circuit(&self, circuit: &Circuit) -> Result<(), SimError> {
        if circuit.num_qubits() > MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: circuit.num_qubits(),
                max: MAX_QUBITS,
            });
        }
        Ok(())
    }

    fn compiled_equivalent(
        &self,
        original: &Circuit,
        compiled: &Circuit,
        initial_layout: &[usize],
        final_layout: &[usize],
        trials: usize,
        seed: u64,
    ) -> Result<bool, SimError> {
        let n_log = original.num_qubits();
        let n_phys = compiled.num_qubits();
        for layout in [initial_layout, final_layout] {
            check_layout(layout, n_log, n_phys)?;
        }

        for t in 0..trials.max(1) {
            let logical_in = State::random(n_log, seed.wrapping_add(t as u64))?;

            // Embed through the initial layout and run the compiled circuit.
            let mut phys = embed(&logical_in, n_phys, initial_layout)?;
            phys.apply_circuit_fused(compiled)?;

            // Reference: run the original, embed through the final layout.
            let mut logical_out = logical_in;
            logical_out.apply_circuit_fused(original)?;
            let expected = embed(&logical_out, n_phys, final_layout)?;

            if !phys.approx_eq_up_to_phase(&expected, self.eps) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Places a logical state into a wider physical register according to
/// `layout` (logical qubit `l` → physical qubit `layout[l]`); every other
/// physical qubit is `|0⟩`.
///
/// # Errors
///
/// Returns [`SimError::TooManyQubits`] if the physical register is too wide
/// to simulate.
fn embed(logical: &State, n_phys: usize, layout: &[usize]) -> Result<State, SimError> {
    let n_log = logical.num_qubits();
    debug_assert_eq!(layout.len(), n_log);
    if n_phys > MAX_QUBITS {
        return Err(SimError::TooManyQubits {
            requested: n_phys,
            max: MAX_QUBITS,
        });
    }
    let mut amps = vec![C64::ZERO; 1 << n_phys];
    for k in 0..(1usize << n_log) {
        let mut p = 0usize;
        for (l, &home) in layout.iter().enumerate() {
            if (k >> l) & 1 == 1 {
                p |= 1 << home;
            }
        }
        amps[p] = logical.amplitudes()[k];
    }
    State::from_amplitudes(amps)
}

/// Stabilizer tableau backend (Clifford gates, hundreds of qubits).
///
/// Its check is exact and takes one run per side, so it ignores `trials`
/// and `seed`. Each logical qubit `l` gets a reference qubit, Bell-paired
/// with its physical home before the circuits run: with
/// `initial_layout[l]` on the compiled side, with `final_layout[l]` on
/// the reference side. The two stabilizer states (the circuits' Choi
/// states) are equal exactly when the circuits agree on every input up
/// to one global phase, and the tableau compares them with no floating
/// point. The physical and reference qubits together must fit in
/// [`trios_ir::MAX_QUBITS`], or the check is [`SimError::TooManyQubits`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StabilizerSimulator;

impl StabilizerSimulator {
    /// The stabilizer backend.
    pub fn new() -> Self {
        StabilizerSimulator
    }
}

/// An `n_phys + layout.len()`-qubit tableau in which reference qubit
/// `n_phys + l` is Bell-paired with physical qubit `layout[l]`; every
/// other physical qubit is `|0⟩`.
fn bell_paired(n_phys: usize, layout: &[usize]) -> Result<Tableau, SimError> {
    let mut bell = Circuit::new(n_phys + layout.len());
    for (l, &home) in layout.iter().enumerate() {
        bell.h(n_phys + l).cx(n_phys + l, home);
    }
    let mut tableau = Tableau::new(bell.num_qubits());
    tableau.apply_circuit(&bell)?;
    Ok(tableau)
}

impl Simulator for StabilizerSimulator {
    fn capability(&self) -> Capability {
        Capability {
            name: "stabilizer",
            exact: true,
        }
    }

    fn supports_circuit(&self, circuit: &Circuit) -> Result<(), SimError> {
        match first_non_clifford(circuit) {
            None => Ok(()),
            Some(gate) => Err(SimError::UnsupportedGate {
                gate: gate.to_string(),
                backend: "stabilizer",
            }),
        }
    }

    fn compiled_equivalent(
        &self,
        original: &Circuit,
        compiled: &Circuit,
        initial_layout: &[usize],
        final_layout: &[usize],
        _trials: usize,
        _seed: u64,
    ) -> Result<bool, SimError> {
        let n_log = original.num_qubits();
        let n_phys = compiled.num_qubits();
        for layout in [initial_layout, final_layout] {
            check_layout(layout, n_log, n_phys)?;
        }
        if n_phys + n_log > trios_ir::MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: n_phys + n_log,
                max: trios_ir::MAX_QUBITS,
            });
        }
        self.supports_circuit(original)?;
        self.supports_circuit(compiled)?;

        let mut got = bell_paired(n_phys, initial_layout)?;
        got.apply_circuit(compiled)?;
        let mut expected = bell_paired(n_phys, final_layout)?;
        expected.apply_circuit_mapped(original, final_layout)?;
        Ok(got.state_eq(&expected))
    }
}

/// Picks a backend for verifying `circuits` on a `width`-qubit register:
/// stabilizer when every circuit is Clifford (an exact check at any
/// width), else dense while `width ≤ max_dense_qubits`, else
/// sparse with the given `max_terms` budget, else `None` (equivalence
/// must be skipped). A sparse pick can still abort mid-check with
/// [`SimError::StateTooDense`] if the circuits entangle past the budget.
pub fn auto_backend(
    width: usize,
    circuits: &[&Circuit],
    max_dense_qubits: usize,
    max_terms: usize,
) -> Option<Box<dyn Simulator>> {
    let stab = StabilizerSimulator::new();
    if circuits.iter().all(|c| stab.supports_circuit(c).is_ok()) {
        return Some(Box::new(stab));
    }
    if width <= max_dense_qubits.min(MAX_QUBITS) {
        return Some(Box::new(DenseSimulator::default()));
    }
    let sparse = SparseSimulator::with_max_terms(max_terms);
    if circuits.iter().all(|c| sparse.supports_circuit(c).is_ok()) {
        return Some(Box::new(sparse));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses_and_displays() {
        for (s, b) in [
            ("auto", Backend::Auto),
            ("dense", Backend::Dense),
            ("stabilizer", Backend::Stabilizer),
            ("sparse", Backend::Sparse),
        ] {
            assert_eq!(s.parse::<Backend>().unwrap(), b);
            assert_eq!(b.to_string(), s);
        }
        assert!("statevector".parse::<Backend>().is_err());
    }

    #[test]
    fn support_checks_report_the_obstacle() {
        let mut t_circ = Circuit::new(2);
        t_circ.h(0).t(0).cx(0, 1);
        assert!(DenseSimulator::default().supports_circuit(&t_circ).is_ok());
        assert!(matches!(
            StabilizerSimulator::new().supports_circuit(&t_circ),
            Err(SimError::UnsupportedGate { .. })
        ));
        let wide = Circuit::new(MAX_QUBITS + 4);
        assert!(matches!(
            DenseSimulator::default().supports_circuit(&wide),
            Err(SimError::TooManyQubits { .. })
        ));
        assert!(StabilizerSimulator::new().supports_circuit(&wide).is_ok());
    }

    /// One of each backend, for tests that must get one answer from all.
    fn every_backend() -> [Box<dyn Simulator>; 3] {
        [
            Box::new(DenseSimulator::default()),
            Box::new(StabilizerSimulator::new()),
            Box::new(SparseSimulator::default()),
        ]
    }

    #[test]
    fn every_backend_gives_the_same_verdicts() {
        // CZ = H(t)·CX·H(t); CZ differs from CX, and from the identity
        // only in a relative phase, which a basis-state input cannot see.
        let mut cz = Circuit::new(2);
        cz.cz(0, 1);
        let mut hch = Circuit::new(2);
        hch.h(1).cx(0, 1).h(1);
        let mut cx = Circuit::new(2);
        cx.cx(0, 1);
        let mut x = Circuit::new(2);
        x.x(1);
        let nothing = Circuit::new(2);
        // CX(0,1) routed on three physical qubits: a SWAP moves logical 1
        // from phys 2 to phys 1 before the CX.
        let mut routed = Circuit::new(3);
        routed.swap(2, 1).cx(0, 1);
        for sim in every_backend() {
            let name = sim.capability().name;
            let rows = [
                (
                    "CZ = H·CX·H",
                    sim.circuits_equivalent(&cz, &hch, 4, 11),
                    true,
                ),
                ("CZ vs CX", sim.circuits_equivalent(&cz, &cx, 4, 11), false),
                (
                    "CZ vs I",
                    sim.circuits_equivalent(&cz, &nothing, 4, 11),
                    false,
                ),
                (
                    "routing SWAP, moved final layout",
                    sim.compiled_equivalent(&cx, &routed, &[0, 2], &[0, 1], 4, 5),
                    true,
                ),
                (
                    "routing SWAP, unmoved final layout",
                    sim.compiled_equivalent(&cx, &routed, &[0, 2], &[0, 2], 4, 5),
                    false,
                ),
                // Zero trials still runs one: CX vs X must not pass unrun.
                (
                    "CX vs X, zero trials",
                    sim.circuits_equivalent(&cx, &x, 0, 5),
                    false,
                ),
            ];
            for (row, got, want) in rows {
                assert_eq!(got, Ok(want), "{name} backend, {row}");
            }
        }
    }

    #[test]
    fn embed_places_qubits() {
        let mut c = Circuit::new(2);
        c.x(0); // logical |01⟩ → amplitude at logical index 1
        let logical = State::run(&c).unwrap();
        let phys = embed(&logical, 4, &[2, 0]).unwrap();
        // Logical qubit 0 (set) lives at physical 2.
        assert!((phys.probability(0b0100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stabilizer_detects_a_dropped_gate_at_scale() {
        // 60-qubit line-routed GHZ-ish circuit with one CX removed: the
        // tableau check must notice, far beyond dense reach.
        let n = 60;
        let mut full = Circuit::new(n);
        full.h(0);
        for q in 1..n {
            full.cx(q - 1, q);
        }
        let missing_instrs: Vec<_> = full.iter().take(n - 1).cloned().collect();
        let missing = Circuit::from_instructions(n, missing_instrs).unwrap();
        let identity: Vec<usize> = (0..n).collect();
        let sim = StabilizerSimulator::new();
        assert!(sim
            .compiled_equivalent(&full, &full, &identity, &identity, 2, 3)
            .unwrap());
        assert!(!sim
            .compiled_equivalent(&full, &missing, &identity, &identity, 4, 3)
            .unwrap());
    }

    #[test]
    fn stabilizer_refuses_a_choi_register_past_the_qubit_ceiling() {
        // 40,000 physical plus 30,000 reference qubits: each side fits a
        // `Qubit`, their Choi register does not.
        let (n_phys, n_log) = (40_000, 30_000);
        let identity: Vec<usize> = (0..n_log).collect();
        let result = StabilizerSimulator::new().compiled_equivalent(
            &Circuit::new(n_log),
            &Circuit::new(n_phys),
            &identity,
            &identity,
            1,
            0,
        );
        assert_eq!(
            result,
            Err(SimError::TooManyQubits {
                requested: 70_000,
                max: trios_ir::MAX_QUBITS
            })
        );
    }

    #[test]
    fn auto_backend_picks_by_gate_set_then_width() {
        let mut cliff = Circuit::new(20);
        cliff.h(0).cx(0, 1);
        let mut t_circ = Circuit::new(20);
        t_circ.h(0).t(0);
        let mut small_t = Circuit::new(4);
        small_t.t(0);
        let budget = crate::DEFAULT_MAX_TERMS;

        // All-Clifford pairs go to the stabilizer at *any* width — even
        // ones a dense simulation could also handle.
        let stab = auto_backend(20, &[&cliff], 8, budget).unwrap();
        assert_eq!(stab.capability().name, "stabilizer");
        let stab_small = auto_backend(4, &[&Circuit::new(4)], 8, budget).unwrap();
        assert_eq!(stab_small.capability().name, "stabilizer");

        // Non-Clifford under the dense cap: dense.
        let dense = auto_backend(4, &[&small_t], 8, budget).unwrap();
        assert_eq!(dense.capability().name, "dense");

        // Non-Clifford past the dense cap: sparse, not a skip.
        let sparse = auto_backend(20, &[&cliff, &t_circ], 8, budget).unwrap();
        assert_eq!(sparse.capability().name, "sparse");
    }

    #[test]
    fn degenerate_layouts_and_empty_pairs_get_typed_answers_from_every_backend() {
        // CX(0,1) on three physical qubits; a layout of the wrong length,
        // one reaching off the register and one naming a physical qubit
        // twice are errors, a zero-qubit program is trivially
        // implemented by an empty physical circuit, and a compiled
        // `cx q1, q1` (which `map_qubits` can build) is an error.
        let mut original = Circuit::new(2);
        original.cx(0, 1);
        let mut compiled = Circuit::new(3);
        compiled.cx(0, 1);
        let mut doubled = Circuit::new(3);
        doubled.push(compiled.instructions()[0].map_qubits(|_| trios_ir::Qubit::new(1)));
        let (empty, empty_compiled) = (Circuit::new(0), Circuit::new(3));
        for sim in every_backend() {
            let name = sim.capability().name;
            let run = |original, compiled, initial: &[usize], fin: &[usize]| {
                sim.compiled_equivalent(original, compiled, initial, fin, 2, 7)
            };
            assert_eq!(
                run(&original, &compiled, &[0], &[0, 1]),
                Err(SimError::WidthMismatch {
                    expected: 2,
                    actual: 1
                }),
                "{name} backend, short initial layout"
            );
            assert_eq!(
                run(&original, &compiled, &[0, 9], &[0, 1]),
                Err(SimError::WidthMismatch {
                    expected: 3,
                    actual: 10
                }),
                "{name} backend, initial layout off the register"
            );
            assert_eq!(
                run(&original, &compiled, &[1, 1], &[0, 1]),
                Err(SimError::DuplicateLayoutEntry { qubit: 1 }),
                "{name} backend, duplicate initial entry"
            );
            assert_eq!(
                run(&original, &compiled, &[0, 1], &[2, 2]),
                Err(SimError::DuplicateLayoutEntry { qubit: 2 }),
                "{name} backend, duplicate final entry"
            );
            assert_eq!(
                run(&empty, &empty_compiled, &[], &[]),
                Ok(true),
                "{name} backend, empty pair"
            );
            assert_eq!(
                run(&original, &doubled, &[0, 1], &[0, 1]),
                Err(SimError::RepeatedOperand {
                    gate: "cx".into(),
                    qubit: 1
                }),
                "{name} backend, repeated operand"
            );
        }
    }
}
