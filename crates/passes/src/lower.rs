//! Lowering passes: SWAP → 3 CX, controlled-phase/Z/roots → CX + 1q, and
//! the final translation into the hardware gate set.

use crate::DecompositionStrategy;
use std::f64::consts::{FRAC_PI_2, PI};
use trios_ir::{Circuit, Gate, Instruction, Qubit};

/// The number of instructions a SWAP lowers to.
const SWAP_LEN: usize = 3;

/// Expands a SWAP into its standard 3-CNOT implementation (paper §2.2:
/// "each of these SWAPs is usually decomposed as a series of 3 CNOT gates").
pub fn swap_to_cnots(a: Qubit, b: Qubit) -> [Instruction; SWAP_LEN] {
    [
        Instruction::new(Gate::Cx, &[a, b]),
        Instruction::new(Gate::Cx, &[b, a]),
        Instruction::new(Gate::Cx, &[a, b]),
    ]
}

/// Replaces every SWAP in `circuit` with 3 CNOTs.
pub fn lower_swaps(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::with_name(circuit.num_qubits(), circuit.name().to_string());
    for instr in circuit.iter() {
        if instr.gate() == Gate::Swap {
            for cx in swap_to_cnots(instr.qubit(0), instr.qubit(1)) {
                out.push(cx);
            }
        } else {
            out.push(*instr);
        }
    }
    out
}

/// The number of instructions a controlled-`X^t` lowers to.
const CXPOW_LEN: usize = 7;

/// Decomposes a controlled-`X^t` into 2 CNOTs and single-qubit gates
/// (standard ABC construction; the control picks up the `u1(πt/2)` phase
/// that accounts for `det(X^t) ≠ 1`).
pub fn cxpow_to_cx(t: f64, control: Qubit, target: Qubit) -> [Instruction; CXPOW_LEN] {
    let i = |g: Gate, qs: &[Qubit]| Instruction::new(g, qs);
    let theta = PI * t;
    [
        i(Gate::U1(theta / 2.0), &[control]),
        i(Gate::Rz(FRAC_PI_2), &[target]),
        i(Gate::Cx, &[control, target]),
        i(Gate::Ry(-theta / 2.0), &[target]),
        i(Gate::Cx, &[control, target]),
        i(Gate::Ry(theta / 2.0), &[target]),
        i(Gate::Rz(-FRAC_PI_2), &[target]),
    ]
}

/// The number of instructions a controlled-phase lowers to.
const CP_LEN: usize = 5;

/// Decomposes a controlled-phase `cp(λ)` into 2 CNOTs and three `u1`s.
pub fn cp_to_cx(lambda: f64, a: Qubit, b: Qubit) -> [Instruction; CP_LEN] {
    let i = |g: Gate, qs: &[Qubit]| Instruction::new(g, qs);
    [
        i(Gate::U1(lambda / 2.0), &[a]),
        i(Gate::Cx, &[a, b]),
        i(Gate::U1(-lambda / 2.0), &[b]),
        i(Gate::Cx, &[a, b]),
        i(Gate::U1(lambda / 2.0), &[b]),
    ]
}

/// The number of instructions a CZ lowers to.
const CZ_LEN: usize = 3;

/// Decomposes a CZ into `H(t) · CX · H(t)`.
pub fn cz_to_cx(a: Qubit, b: Qubit) -> [Instruction; CZ_LEN] {
    [
        Instruction::new(Gate::H, &[b]),
        Instruction::new(Gate::Cx, &[a, b]),
        Instruction::new(Gate::H, &[b]),
    ]
}

/// Translates a circuit into the hardware gate set: single-qubit gates, CX,
/// and measurement (paper §1: IBM's `{u1, u2, u3, cx}` plus named 1q gates,
/// which [`merge_single_qubit_runs`] can consolidate into `u3`s).
///
/// Any remaining Toffoli is expanded with `strategy` — pipelines normally
/// eliminate Toffolis earlier (baseline before routing, Trios during), so
/// this is a safety net that keeps the pass total.
///
/// The output is reserved once, for the expansions this function makes
/// itself; a leftover Toffoli grows it.
///
/// [`merge_single_qubit_runs`]: crate::merge_single_qubit_runs
pub fn lower_to_hardware_gates(circuit: &Circuit, strategy: &dyn DecompositionStrategy) -> Circuit {
    let mut out = Vec::with_capacity(circuit.iter().map(|i| lowered_len(i.gate())).sum());
    for instr in circuit.iter() {
        match instr.gate() {
            Gate::Swap => out.extend(swap_to_cnots(instr.qubit(0), instr.qubit(1))),
            Gate::Cz => out.extend(cz_to_cx(instr.qubit(0), instr.qubit(1))),
            Gate::Cp(l) => out.extend(cp_to_cx(l, instr.qubit(0), instr.qubit(1))),
            Gate::Cxpow(t) => out.extend(cxpow_to_cx(t, instr.qubit(0), instr.qubit(1))),
            Gate::Ccx | Gate::Ccz | Gate::Cswap => {
                out.extend(crate::decompose_one(instr, strategy));
            }
            _ => out.push(*instr),
        }
    }
    let mut out = Circuit::from_instructions(circuit.num_qubits(), out)
        .expect("lowering keeps every instruction on the circuit's qubits");
    out.set_name(circuit.name());
    debug_assert!(out.is_hardware_lowered());
    out
}

/// How many instructions [`lower_to_hardware_gates`] emits for `gate`,
/// counting a leftover three-qubit gate as one.
fn lowered_len(gate: Gate) -> usize {
    match gate {
        Gate::Swap => SWAP_LEN,
        Gate::Cz => CZ_LEN,
        Gate::Cp(_) => CP_LEN,
        Gate::Cxpow(_) => CXPOW_LEN,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trios_sim::circuits_equivalent;

    const EPS: f64 = 1e-9;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    #[test]
    fn swap_lowering_is_equivalent() {
        let mut c = Circuit::new(3);
        c.h(0).t(2).swap(0, 2).cx(0, 1);
        let lowered = lower_swaps(&c);
        assert_eq!(lowered.counts().swap, 0);
        assert_eq!(lowered.counts().cx, 3 + 1);
        assert!(circuits_equivalent(&c, &lowered, EPS).unwrap());
    }

    #[test]
    fn cxpow_lowering_is_equivalent() {
        for t in [0.5, 0.25, -0.5, 0.3, 1.0] {
            let mut c = Circuit::new(2);
            c.h(0).h(1).cxpow(t, 0, 1);
            let lowered = Circuit::from_instructions(
                2,
                c.instructions()[..2]
                    .iter()
                    .copied()
                    .chain(cxpow_to_cx(t, q(0), q(1))),
            )
            .unwrap();
            assert!(
                circuits_equivalent(&c, &lowered, EPS).unwrap(),
                "cxpow({t})"
            );
        }
    }

    #[test]
    fn cp_lowering_is_equivalent() {
        for l in [PI / 2.0, PI / 4.0, -1.3, 2.7] {
            let mut c = Circuit::new(2);
            c.h(0).h(1).cp(l, 0, 1);
            let mut lowered = Circuit::new(2);
            lowered.h(0).h(1);
            for x in cp_to_cx(l, q(0), q(1)) {
                lowered.push(x);
            }
            assert!(circuits_equivalent(&c, &lowered, EPS).unwrap(), "cp({l})");
        }
    }

    #[test]
    fn cz_lowering_is_equivalent() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cz(0, 1);
        let mut lowered = Circuit::new(2);
        lowered.h(0).h(1);
        for x in cz_to_cx(q(0), q(1)) {
            lowered.push(x);
        }
        assert!(circuits_equivalent(&c, &lowered, EPS).unwrap());
    }

    #[test]
    fn hardware_lowering_handles_everything() {
        let mut c = Circuit::new(4);
        c.h(0)
            .swap(0, 1)
            .cz(1, 2)
            .cp(0.8, 2, 3)
            .cxpow(0.5, 0, 3)
            .ccx(0, 1, 2)
            .measure(2);
        let lowered = lower_to_hardware_gates(&c, &crate::SixCnotDecomposition);
        assert!(lowered.is_hardware_lowered());
    }

    #[test]
    fn hardware_lowering_preserves_semantics() {
        let mut c = Circuit::new(4);
        c.h(0)
            .swap(0, 1)
            .cz(1, 2)
            .cp(0.8, 2, 3)
            .cxpow(0.5, 0, 3)
            .ccx(0, 1, 2);
        for name in ["six", "eight", "tdepth"] {
            let strategy = crate::DecomposerRegistry::standard().get(name).unwrap();
            let lowered = lower_to_hardware_gates(&c, &*strategy);
            assert!(circuits_equivalent(&c, &lowered, EPS).unwrap(), "{name}");
        }
    }
}
