//! Decompositions for the non-Toffoli three-qubit gates the extended Trios
//! router gathers as units: CCZ and the Fredkin (controlled-SWAP) gate.
//!
//! The paper (§4) observes that Trios "can naturally be extended to any
//! multi-qubit operation"; these decompositions make that concrete for the
//! other two common three-qubit gates. Both reuse the Figure 3/4 Toffoli
//! structure:
//!
//! * the 6- and 8-CNOT Toffolis are `H(target) · CCZ · H(target)`, so
//!   deleting the two `H` gates yields a CCZ with the same connectivity
//!   requirements (triangle / line) and two fewer gates;
//! * the Fredkin is a Toffoli conjugated by CNOTs on the swapped pair.

use crate::{toffoli_6cnot, toffoli_8cnot_linear, DecompositionStrategy};
use crate::{DecompositionPlan, TrioPlacement};
use trios_ir::{Circuit, Gate, Instruction, Qubit};

/// The 6-CNOT CCZ: the Figure 3 Toffoli with its two `H` gates removed.
///
/// Like the 6-CNOT Toffoli it needs CNOTs between **all three** qubit
/// pairs, so it wants a connectivity triangle. CCZ is fully symmetric; the
/// operand order only changes which wires carry which corrections.
pub fn ccz_6cnot(a: Qubit, b: Qubit, c: Qubit) -> Vec<Instruction> {
    drop_hadamards(toffoli_6cnot(a, b, c))
}

/// The 8-CNOT linearly-connected CCZ: the Figure 4 Toffoli with its two
/// `H` gates removed.
///
/// CNOTs touch only the pairs `(end1, middle)` and `(middle, end2)`, so the
/// decomposition runs natively on a path `end1 – middle – end2`. Because
/// CCZ is symmetric, there is no target-placement constraint at all — any
/// operand may sit in the middle.
///
/// # Panics
///
/// Panics if the qubits are not distinct.
pub fn ccz_8cnot_linear(end1: Qubit, middle: Qubit, end2: Qubit) -> Vec<Instruction> {
    drop_hadamards(toffoli_8cnot_linear(end1, middle, end2, end1))
}

fn drop_hadamards(instructions: Vec<Instruction>) -> Vec<Instruction> {
    instructions
        .into_iter()
        .filter(|i| i.gate() != Gate::H)
        .collect()
}

/// The Fredkin gate as a CNOT-conjugated Toffoli:
/// `CSWAP(c; a, b) = CX(b, a) · CCX(c, a, b) · CX(b, a)`.
///
/// The returned sequence still contains a `ccx` instruction so the caller
/// (the Trios router's second pass, or [`decompose_three_qubit_gates`])
/// can choose the placement-appropriate Toffoli decomposition for it.
pub fn cswap_via_ccx(c: Qubit, a: Qubit, b: Qubit) -> Vec<Instruction> {
    vec![
        Instruction::new(Gate::Cx, &[b, a]),
        Instruction::new(Gate::Ccx, &[c, a, b]),
        Instruction::new(Gate::Cx, &[b, a]),
    ]
}

/// Replaces every three-qubit gate (`ccx`, `ccz`, `cswap`) in `circuit`
/// with the chosen decomposition, leaving all other gates untouched.
/// Placement-unaware — this is the baseline's
/// *first-pass-decomposes-everything* behaviour (paper Fig. 2a) extended to
/// the full three-qubit gate set.
///
/// The strategy sees [`TrioPlacement::Unknown`] for every gate: connectivity
/// awareness only exists *after* routing, which is precisely the paper's
/// point. The strategy's [`plan`](DecompositionStrategy::plan) is computed
/// once over the whole circuit, so analyses like the `relative-phase`
/// compute/uncompute pairing work on this pre-route path too.
///
/// The output is reserved once, with room for the 15 instructions of a
/// 6-CNOT Toffoli per three-qubit gate, and every gate is lowered straight
/// into it.
pub fn decompose_three_qubit_gates(
    circuit: &Circuit,
    strategy: &dyn DecompositionStrategy,
) -> Circuit {
    let mut plan = strategy.plan(circuit);
    let reserved = circuit
        .iter()
        .map(|i| {
            if i.gate().is_three_qubit() {
                RESERVED_PER_TRIO
            } else {
                1
            }
        })
        .sum();
    let mut out = Vec::with_capacity(reserved);
    for instr in circuit.iter() {
        if instr.gate().is_three_qubit() {
            lower_recursive(instr, strategy, &mut plan, &mut out);
        } else {
            out.push(*instr);
        }
    }
    let mut out = Circuit::from_instructions(circuit.num_qubits(), out)
        .expect("decomposition keeps every instruction on the circuit's qubits");
    out.set_name(circuit.name());
    out
}

/// The room reserved for one three-qubit gate's lowering: the 15
/// instructions of the 6-CNOT Toffoli, which `standard` lowers every
/// `ccx` to before routing. Other lowerings fit or grow the buffer.
const RESERVED_PER_TRIO: usize = 15;

/// Lowers one three-qubit instruction into `out`, re-lowering any
/// three-qubit gates in its expansion (the `cswap` expansions contain a
/// `ccx`).
fn lower_recursive(
    instr: &Instruction,
    strategy: &dyn DecompositionStrategy,
    plan: &mut DecompositionPlan,
    out: &mut Vec<Instruction>,
) {
    for li in strategy.lower(instr, TrioPlacement::Unknown, plan) {
        if li.gate().is_three_qubit() {
            lower_recursive(&li, strategy, plan, out);
        } else {
            out.push(li);
        }
    }
}

/// Lowers a single three-qubit instruction with canonical operand roles and
/// no placement information, using a fresh (empty) plan — per-circuit
/// analyses do not apply through this single-instruction entry point.
///
/// # Panics
///
/// Panics if the instruction is not a three-qubit gate.
pub fn decompose_one(
    instr: &Instruction,
    strategy: &dyn DecompositionStrategy,
) -> Vec<Instruction> {
    assert!(
        instr.gate().is_three_qubit(),
        "decompose_one expects a three-qubit gate, got {:?}",
        instr.gate()
    );
    let mut plan = DecompositionPlan::new();
    let mut out = Vec::new();
    lower_recursive(instr, strategy, &mut plan, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use trios_sim::circuits_equivalent;

    const EPS: f64 = 1e-9;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    fn circuit_of(instrs: Vec<Instruction>) -> Circuit {
        Circuit::from_instructions(3, instrs).unwrap()
    }

    fn reference_ccz() -> Circuit {
        let mut c = Circuit::new(3);
        c.ccz(0, 1, 2);
        c
    }

    #[test]
    fn ccz_6cnot_matches_ccz() {
        let dec = circuit_of(ccz_6cnot(q(0), q(1), q(2)));
        assert_eq!(dec.counts().cx, 6);
        assert_eq!(dec.counts().one_qubit, 7, "only T/T† remain");
        assert!(circuits_equivalent(&reference_ccz(), &dec, EPS).unwrap());
    }

    #[test]
    fn ccz_6cnot_is_operand_order_invariant() {
        for (a, b, c) in [(1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1)] {
            let dec = circuit_of(ccz_6cnot(q(a), q(b), q(c)));
            assert!(
                circuits_equivalent(&reference_ccz(), &dec, EPS).unwrap(),
                "order ({a},{b},{c})"
            );
        }
    }

    #[test]
    fn ccz_8cnot_matches_ccz() {
        let dec = circuit_of(ccz_8cnot_linear(q(0), q(1), q(2)));
        assert_eq!(dec.counts().cx, 8);
        assert!(circuits_equivalent(&reference_ccz(), &dec, EPS).unwrap());
    }

    #[test]
    fn ccz_8cnot_any_middle_works() {
        // CCZ symmetry: the physical middle can be any operand.
        for (e1, m, e2) in [(0, 1, 2), (1, 0, 2), (0, 2, 1)] {
            let dec = circuit_of(ccz_8cnot_linear(q(e1), q(m), q(e2)));
            assert!(
                circuits_equivalent(&reference_ccz(), &dec, EPS).unwrap(),
                "middle {m}"
            );
        }
    }

    #[test]
    fn ccz_8cnot_only_uses_chain_pairs() {
        let dec = ccz_8cnot_linear(q(0), q(1), q(2));
        for instr in &dec {
            if instr.gate() == Gate::Cx {
                let pair = (instr.qubit(0).index(), instr.qubit(1).index());
                assert!(
                    matches!(pair, (0, 1) | (1, 0) | (1, 2) | (2, 1)),
                    "CX on non-chain pair {pair:?}"
                );
            }
        }
    }

    #[test]
    fn cswap_via_ccx_matches_fredkin() {
        let mut reference = Circuit::new(3);
        reference.cswap(0, 1, 2);
        let dec = circuit_of(cswap_via_ccx(q(0), q(1), q(2)));
        assert!(circuits_equivalent(&reference, &dec, EPS).unwrap());
    }

    #[test]
    fn cswap_swapped_pair_is_symmetric() {
        // CSWAP(c; a, b) = CSWAP(c; b, a).
        let dec_ab = circuit_of(cswap_via_ccx(q(0), q(1), q(2)));
        let dec_ba = circuit_of(cswap_via_ccx(q(0), q(2), q(1)));
        assert!(circuits_equivalent(&dec_ab, &dec_ba, EPS).unwrap());
    }

    #[test]
    fn decompose_three_qubit_gates_handles_all_gates() {
        use crate::DecomposerRegistry;
        let mut c = Circuit::new(4);
        c.h(0).ccx(0, 1, 2).ccz(1, 2, 3).cswap(0, 2, 3).t(1);
        for name in ["six", "eight", "standard", "tdepth", "relative-phase"] {
            let strategy = DecomposerRegistry::standard().get(name).unwrap();
            let lowered = decompose_three_qubit_gates(&c, &*strategy);
            assert_eq!(lowered.counts().three_qubit, 0, "{name}");
            assert!(circuits_equivalent(&c, &lowered, EPS).unwrap(), "{name}");
        }
    }

    #[test]
    fn decompose_one_counts() {
        use crate::SixCnotDecomposition;
        let ccz = Instruction::new(Gate::Ccz, &[q(0), q(1), q(2)]);
        assert_eq!(
            Circuit::from_instructions(3, decompose_one(&ccz, &SixCnotDecomposition))
                .unwrap()
                .counts()
                .cx,
            6
        );
        let cswap = Instruction::new(Gate::Cswap, &[q(0), q(1), q(2)]);
        assert_eq!(
            Circuit::from_instructions(3, decompose_one(&cswap, &SixCnotDecomposition))
                .unwrap()
                .counts()
                .cx,
            8
        );
    }

    #[test]
    #[should_panic(expected = "expects a three-qubit gate")]
    fn decompose_one_rejects_two_qubit_gates() {
        use crate::SixCnotDecomposition;
        let cx = Instruction::new(Gate::Cx, &[q(0), q(1)]);
        decompose_one(&cx, &SixCnotDecomposition);
    }
}
