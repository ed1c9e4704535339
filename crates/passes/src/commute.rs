//! Commutation-aware optimizations ("commutativity-aware gate
//! cancellation", paper §2.4), in the style of Nam et al.
//!
//! The pairwise commutation test classifies how each gate acts on each of
//! its wires:
//!
//! * **Z-type** — the gate is diagonal in the computational basis on that
//!   wire (a CX control, any phase gate, either CZ operand, …);
//! * **X-type** — diagonal in the X basis on that wire (a CX target, `x`,
//!   `sx`, `rx`, …);
//! * **Opaque** — neither (Hadamards, SWAPs, measurements, …).
//!
//! Two instructions commute when every wire they share is Z-type for both
//! or X-type for both: each gate then factors as a sum of projectors on the
//! shared wires in the same basis, and such sums commute. This check is
//! conservative (it never claims commutation falsely) and cheap.

use crate::optimize::rebuild;
use std::f64::consts::PI;
use trios_ir::{Circuit, Gate, Instruction};

/// How a gate acts on one of its wires, for commutation analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireType {
    /// Diagonal in the computational basis on this wire.
    Z,
    /// Diagonal in the X basis on this wire.
    X,
    /// Neither — nothing commutes through on this wire.
    Opaque,
}

/// Classifies `gate`'s action on the wire at operand position `pos`.
fn wire_type(gate: Gate, pos: usize) -> WireType {
    match gate {
        // Pure phase gates: Z-diagonal everywhere they act.
        Gate::I
        | Gate::Z
        | Gate::S
        | Gate::Sdg
        | Gate::T
        | Gate::Tdg
        | Gate::Rz(_)
        | Gate::U1(_)
        | Gate::Cz
        | Gate::Cp(_)
        | Gate::Ccz => WireType::Z,
        // X-axis gates: X-diagonal.
        Gate::X | Gate::Sx | Gate::Sxdg | Gate::Rx(_) | Gate::Xpow(_) => WireType::X,
        // Controlled gates: Z on the control, the base gate's type on the
        // target.
        Gate::Cx | Gate::Ccx => {
            if pos + 1 == gate.arity() {
                WireType::X
            } else {
                WireType::Z
            }
        }
        Gate::Cxpow(_) => {
            if pos == 0 {
                WireType::Z
            } else {
                WireType::X
            }
        }
        Gate::Cswap => {
            if pos == 0 {
                WireType::Z
            } else {
                WireType::Opaque
            }
        }
        Gate::H
        | Gate::Y
        | Gate::Ry(_)
        | Gate::U2(..)
        | Gate::U3(..)
        | Gate::Swap
        | Gate::Measure => WireType::Opaque,
    }
}

/// Conservative pairwise commutation check: `true` only when the two
/// instructions provably commute.
///
/// # Examples
///
/// ```
/// use trios_ir::{Gate, Instruction, Qubit};
/// use trios_passes::commutes;
///
/// let q = Qubit::new;
/// let cx01 = Instruction::new(Gate::Cx, &[q(0), q(1)]);
/// let cx02 = Instruction::new(Gate::Cx, &[q(0), q(2)]);
/// let t0 = Instruction::new(Gate::T, &[q(0)]);
/// let h1 = Instruction::new(Gate::H, &[q(1)]);
/// assert!(commutes(&cx01, &cx02)); // shared control
/// assert!(commutes(&cx01, &t0)); // phase on the control
/// assert!(!commutes(&cx01, &h1)); // H on the target blocks
/// ```
pub fn commutes(a: &Instruction, b: &Instruction) -> bool {
    for (i, qa) in a.qubits().iter().enumerate() {
        for (j, qb) in b.qubits().iter().enumerate() {
            if qa != qb {
                continue;
            }
            let (ta, tb) = (wire_type(a.gate(), i), wire_type(b.gate(), j));
            let compatible = matches!(
                (ta, tb),
                (WireType::Z, WireType::Z) | (WireType::X, WireType::X)
            );
            if !compatible {
                return false;
            }
        }
    }
    true
}

/// How far back the commuting-window passes scan. Windows beyond this add
/// compile time without measurable gate-count benefit on the paper suite.
const SCAN_WINDOW: usize = 64;

/// Cancels inverse pairs that are separated by *commuting* gates — a
/// strict generalization of
/// [`cancel_adjacent_inverses`](crate::cancel_adjacent_inverses).
///
/// For each instruction the pass scans backward past provably-commuting
/// instructions; on finding its inverse (same operands up to the gate's
/// symmetries) both are removed. Runs to a fixpoint.
pub fn cancel_commuting_inverses(circuit: &Circuit) -> Circuit {
    rebuild(circuit, cancel_commuting(circuit.instructions().to_vec()))
}

/// The kernel of [`cancel_commuting_inverses`], shared with
/// [`optimize`](crate::optimize).
pub(crate) fn cancel_commuting(instrs: Vec<Instruction>) -> Vec<Instruction> {
    let mut instrs: Vec<Option<Instruction>> = instrs.into_iter().map(Some).collect();
    loop {
        let mut changed = false;
        for i in 0..instrs.len() {
            let Some(cur) = instrs[i] else { continue };
            if cur.gate().is_measurement() {
                continue;
            }
            let mut scanned = 0usize;
            for j in (0..i).rev() {
                let Some(prev) = instrs[j] else { continue };
                if crate::operands_cancel(&prev, &cur) {
                    instrs[i] = None;
                    instrs[j] = None;
                    changed = true;
                    break;
                }
                if !commutes(&prev, &cur) {
                    break;
                }
                scanned += 1;
                if scanned >= SCAN_WINDOW {
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
    instrs.into_iter().flatten().collect()
}

/// The Z-rotation angle a gate applies, when it is a pure single-qubit
/// phase gate (up to global phase): `z → π`, `s → π/2`, `t → π/4`,
/// `rz(θ)/u1(θ) → θ`, and their inverses.
fn z_angle(gate: Gate) -> Option<f64> {
    match gate {
        Gate::Z => Some(PI),
        Gate::S => Some(PI / 2.0),
        Gate::Sdg => Some(-PI / 2.0),
        Gate::T => Some(PI / 4.0),
        Gate::Tdg => Some(-PI / 4.0),
        Gate::Rz(a) | Gate::U1(a) => Some(a),
        _ => None,
    }
}

/// Normalizes an angle to `(−π, π]`.
fn normalize_angle(a: f64) -> f64 {
    let mut a = a % (2.0 * PI);
    if a <= -PI {
        a += 2.0 * PI;
    } else if a > PI {
        a -= 2.0 * PI;
    }
    a
}

/// Merges single-qubit Z-rotations (`z`, `s`, `t`, `rz`, `u1`, inverses)
/// separated by commuting gates into one `u1`, dropping rotations that sum
/// to the identity. Equality is up to global phase (`rz` vs `u1`).
///
/// This is the "rotation merging" piece of Nam et al.'s optimization: after
/// routing, the T/T† ladders of consecutive Toffoli decompositions often
/// meet across CX controls and annihilate.
pub fn merge_commuting_rotations(circuit: &Circuit) -> Circuit {
    rebuild(circuit, merge_rotations(circuit.instructions().to_vec()))
}

/// The kernel of [`merge_commuting_rotations`], shared with
/// [`optimize`](crate::optimize).
pub(crate) fn merge_rotations(instrs: Vec<Instruction>) -> Vec<Instruction> {
    let mut instrs: Vec<Option<Instruction>> = instrs.into_iter().map(Some).collect();
    for i in 0..instrs.len() {
        let Some(cur) = instrs[i] else { continue };
        let Some(angle) = z_angle(cur.gate()) else {
            continue;
        };
        let qubit = cur.qubit(0);
        let mut scanned = 0usize;
        for j in (0..i).rev() {
            let Some(prev) = instrs[j] else { continue };
            if prev.qubits() == [qubit] {
                if let Some(prev_angle) = z_angle(prev.gate()) {
                    let merged = normalize_angle(prev_angle + angle);
                    instrs[i] = None;
                    instrs[j] = if merged.abs() < 1e-12 {
                        None
                    } else {
                        Some(Instruction::new(Gate::U1(merged), &[qubit]))
                    };
                    break;
                }
            }
            if !commutes(&prev, &cur) {
                break;
            }
            scanned += 1;
            if scanned >= SCAN_WINDOW {
                break;
            }
        }
    }
    instrs.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trios_ir::Qubit;
    use trios_sim::circuits_equivalent;

    const EPS: f64 = 1e-9;

    fn q(i: usize) -> Qubit {
        Qubit::new(i)
    }

    fn i(g: Gate, qs: &[usize]) -> Instruction {
        let qubits: Vec<Qubit> = qs.iter().map(|&x| q(x)).collect();
        Instruction::new(g, &qubits)
    }

    #[test]
    fn disjoint_instructions_commute() {
        assert!(commutes(&i(Gate::H, &[0]), &i(Gate::Cx, &[1, 2])));
    }

    #[test]
    fn shared_control_cxs_commute() {
        assert!(commutes(&i(Gate::Cx, &[0, 1]), &i(Gate::Cx, &[0, 2])));
    }

    #[test]
    fn shared_target_cxs_commute() {
        assert!(commutes(&i(Gate::Cx, &[0, 2]), &i(Gate::Cx, &[1, 2])));
    }

    #[test]
    fn crossed_cxs_do_not_commute() {
        assert!(!commutes(&i(Gate::Cx, &[0, 1]), &i(Gate::Cx, &[1, 2])));
        assert!(!commutes(&i(Gate::Cx, &[0, 1]), &i(Gate::Cx, &[2, 0])));
    }

    #[test]
    fn phase_commutes_with_control_x_with_target() {
        assert!(commutes(&i(Gate::T, &[0]), &i(Gate::Cx, &[0, 1])));
        assert!(commutes(&i(Gate::X, &[1]), &i(Gate::Cx, &[0, 1])));
        assert!(!commutes(&i(Gate::T, &[1]), &i(Gate::Cx, &[0, 1])));
        assert!(!commutes(&i(Gate::X, &[0]), &i(Gate::Cx, &[0, 1])));
    }

    #[test]
    fn diagonal_gates_always_commute() {
        assert!(commutes(&i(Gate::Cz, &[0, 1]), &i(Gate::Ccz, &[0, 1, 2])));
        assert!(commutes(
            &i(Gate::Rz(0.3), &[0]),
            &i(Gate::Cp(0.5), &[0, 1])
        ));
    }

    #[test]
    fn measurement_is_opaque() {
        assert!(!commutes(&i(Gate::Measure, &[0]), &i(Gate::T, &[0])));
        assert!(commutes(&i(Gate::Measure, &[0]), &i(Gate::T, &[1])));
    }

    #[test]
    fn toffoli_wire_types() {
        // Controls are Z-type, target is X-type.
        assert!(commutes(&i(Gate::Ccx, &[0, 1, 2]), &i(Gate::T, &[0])));
        assert!(commutes(&i(Gate::Ccx, &[0, 1, 2]), &i(Gate::X, &[2])));
        assert!(!commutes(&i(Gate::Ccx, &[0, 1, 2]), &i(Gate::X, &[1])));
    }

    #[test]
    fn commutation_claims_verified_by_simulation() {
        // Every pair the checker claims commutes must commute as matrices.
        let candidates = [
            i(Gate::Cx, &[0, 1]),
            i(Gate::Cx, &[0, 2]),
            i(Gate::Cx, &[1, 2]),
            i(Gate::Cx, &[2, 0]),
            i(Gate::T, &[0]),
            i(Gate::X, &[1]),
            i(Gate::H, &[2]),
            i(Gate::Cz, &[0, 1]),
            i(Gate::Ccx, &[0, 1, 2]),
            i(Gate::Ccz, &[0, 1, 2]),
            i(Gate::Sx, &[2]),
            i(Gate::Rz(0.37), &[1]),
            i(Gate::Swap, &[0, 1]),
        ];
        for a in &candidates {
            for b in &candidates {
                if !commutes(a, b) {
                    continue; // conservative "no" is always allowed
                }
                let mut ab = Circuit::new(3);
                ab.push(*a).push(*b);
                let mut ba = Circuit::new(3);
                ba.push(*b).push(*a);
                assert!(
                    circuits_equivalent(&ab, &ba, EPS).unwrap(),
                    "claimed commutation is false: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn cancels_cx_pair_across_commuting_gates() {
        // CX(0,1) · T(0) · X(1) · CX(0,1): the middle gates commute with
        // CX, so the pair cancels; adjacent-only cancellation misses it.
        let mut c = Circuit::new(2);
        c.cx(0, 1).t(0).x(1).cx(0, 1);
        let opt = cancel_commuting_inverses(&c);
        assert_eq!(opt.len(), 2);
        assert!(circuits_equivalent(&c, &opt, EPS).unwrap());
        assert_eq!(crate::cancel_adjacent_inverses(&c).len(), 4);
    }

    #[test]
    fn does_not_cancel_across_blockers() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).h(1).cx(0, 1);
        assert_eq!(cancel_commuting_inverses(&c).len(), 3);
    }

    #[test]
    fn fixpoint_unnests_pairs() {
        // Inner pair cancels first, exposing the outer pair.
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(0, 2).t(0).cx(0, 2).cx(0, 1);
        let opt = cancel_commuting_inverses(&c);
        assert_eq!(opt.len(), 1);
        assert_eq!(opt.instructions()[0].gate(), Gate::T);
        assert!(circuits_equivalent(&c, &opt, EPS).unwrap());
    }

    #[test]
    fn merges_rotations_across_cx_controls() {
        // T · (CX ladder using 0 as control) · T† — the pair annihilates.
        let mut c = Circuit::new(3);
        c.t(0).cx(0, 1).cx(0, 2).tdg(0);
        let opt = merge_commuting_rotations(&c);
        assert_eq!(opt.len(), 2);
        assert!(circuits_equivalent(&c, &opt, EPS).unwrap());
    }

    #[test]
    fn merges_s_and_t_into_u1() {
        let mut c = Circuit::new(1);
        c.s(0).t(0);
        let opt = merge_commuting_rotations(&c);
        assert_eq!(opt.len(), 1);
        let g = opt.instructions()[0].gate();
        assert!(matches!(g, Gate::U1(a) if (a - 3.0 * PI / 4.0).abs() < 1e-12));
        assert!(circuits_equivalent(&c, &opt, EPS).unwrap());
    }

    #[test]
    fn rotation_merge_respects_blockers() {
        let mut c = Circuit::new(1);
        c.t(0).h(0).tdg(0);
        assert_eq!(merge_commuting_rotations(&c).len(), 3);
    }

    #[test]
    fn rotation_merge_wraps_angles() {
        let mut c = Circuit::new(1);
        c.rz(PI, 0).rz(PI, 0); // 2π ≡ identity (up to global phase)
        assert_eq!(merge_commuting_rotations(&c).len(), 0);
    }

    #[test]
    fn back_to_back_toffoli_decompositions_shrink() {
        // Two 6-CNOT Toffolis in a row. Pairwise passes cannot collapse
        // CCX·CCX to the identity (that needs algebraic rewriting), but the
        // commutation-aware passes must strictly beat adjacent-only
        // cancellation at the decomposition junction.
        use crate::{cancel_adjacent_inverses, toffoli_6cnot, SixCnotDecomposition};
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2).ccx(0, 1, 2);
        let lowered = crate::decompose_three_qubit_gates(&c, &SixCnotDecomposition);
        assert_eq!(lowered.len(), 2 * toffoli_6cnot(q(0), q(1), q(2)).len());
        let adjacent = cancel_adjacent_inverses(&lowered);
        let opt = merge_commuting_rotations(&cancel_commuting_inverses(&lowered));
        let opt = cancel_commuting_inverses(&opt);
        assert!(
            opt.len() < adjacent.len() && adjacent.len() < lowered.len(),
            "{} < {} < {} expected",
            opt.len(),
            adjacent.len(),
            lowered.len()
        );
        assert!(circuits_equivalent(&lowered, &opt, EPS).unwrap());
    }

    #[test]
    fn optimize_full_preserves_semantics_on_lowered_benchmark() {
        // A routed-and-lowered program shaped like the paper's workloads:
        // consecutive Toffoli decompositions with interleaved CX traffic.
        use crate::{optimize, OptimizeOptions, SixCnotDecomposition};
        let mut c = Circuit::new(5);
        c.h(0)
            .ccx(0, 1, 2)
            .cx(2, 3)
            .ccx(1, 2, 3)
            .cx(3, 4)
            .ccx(2, 3, 4)
            .t(2)
            .ccx(0, 1, 2);
        let lowered = crate::decompose_three_qubit_gates(&c, &SixCnotDecomposition);
        let light = optimize(&lowered, OptimizeOptions::default());
        let full = optimize(&lowered, OptimizeOptions::full());
        assert!(full.len() <= light.len());
        assert!(circuits_equivalent(&lowered, &full, EPS).unwrap());
    }
}
