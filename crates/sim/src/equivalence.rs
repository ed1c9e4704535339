//! Circuit-equivalence checks used to verify compiler passes.
//!
//! Two flavours:
//!
//! * [`circuits_equivalent`] — exact unitary comparison (all basis states),
//!   for small widths; used to validate gate decompositions.
//! * [`compiled_equivalent`] — checks a *routed* circuit (over physical
//!   qubits, with SWAPs that permute the layout) against the original
//!   logical circuit, given the initial and final layouts. Random-state
//!   based, so it scales to the paper's 20-qubit benchmarks.

use crate::{SimError, State, C64};
use trios_ir::Circuit;

/// Exact equivalence check: applies both circuits to every computational
/// basis state and compares columns up to one shared global phase.
///
/// Intended for decomposition tests (≤ ~10 qubits: cost is `4^n`).
///
/// # Errors
///
/// Returns [`SimError::WidthMismatch`] if widths differ, or
/// [`SimError::TooManyQubits`] for oversized circuits.
pub fn circuits_equivalent(a: &Circuit, b: &Circuit, eps: f64) -> Result<bool, SimError> {
    if a.num_qubits() != b.num_qubits() {
        return Err(SimError::WidthMismatch {
            expected: a.num_qubits(),
            actual: b.num_qubits(),
        });
    }
    let n = a.num_qubits();
    let dim = 1usize << n;
    // The same global phase must work for every column.
    let mut phase: Option<C64> = None;
    for k in 0..dim {
        let mut sa = State::basis(n, k)?;
        sa.apply_circuit_fused(a)?;
        let mut sb = State::basis(n, k)?;
        sb.apply_circuit_fused(b)?;
        for (x, y) in sa.amplitudes().iter().zip(sb.amplitudes()) {
            match phase {
                None => {
                    if x.abs() > eps || y.abs() > eps {
                        if (x.abs() - y.abs()).abs() > eps {
                            return Ok(false);
                        }
                        if y.abs() > eps {
                            phase = Some(*x / *y);
                        }
                    }
                }
                Some(p) => {
                    if !x.approx_eq(*y * p, eps) {
                        return Ok(false);
                    }
                }
            }
        }
    }
    Ok(true)
}

/// Randomized equivalence check on `trials` seeded random states.
///
/// Far cheaper than [`circuits_equivalent`] for wide circuits; a single
/// random state already distinguishes inequivalent unitaries with high
/// probability.
///
/// # Errors
///
/// Same conditions as [`circuits_equivalent`].
pub fn circuits_equivalent_sampled(
    a: &Circuit,
    b: &Circuit,
    trials: usize,
    seed: u64,
    eps: f64,
) -> Result<bool, SimError> {
    if a.num_qubits() != b.num_qubits() {
        return Err(SimError::WidthMismatch {
            expected: a.num_qubits(),
            actual: b.num_qubits(),
        });
    }
    for t in 0..trials {
        let base = State::random(a.num_qubits(), seed.wrapping_add(t as u64))?;
        let mut sa = base.clone();
        sa.apply_circuit_fused(a)?;
        let mut sb = base;
        sb.apply_circuit_fused(b)?;
        if !sa.approx_eq_up_to_phase(&sb, eps) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Verifies that a compiled (routed, physical-qubit) circuit implements the
/// original logical circuit.
///
/// * `initial_layout[l]` — physical home of logical qubit `l` before the
///   compiled circuit runs.
/// * `final_layout[l]` — physical home of logical qubit `l` afterwards
///   (routing SWAPs permute data).
///
/// The check embeds random logical states into the physical register
/// (unused physical qubits start in `|0⟩`), runs the compiled circuit, and
/// compares against the original circuit's output re-embedded through the
/// final layout. Equality must hold up to one global phase.
///
/// # Errors
///
/// Returns [`SimError::WidthMismatch`] if a layout's length differs from
/// the logical width or maps outside the physical register,
/// [`SimError::DuplicateLayoutEntry`] if a layout names one physical
/// qubit twice, and [`SimError::TooManyQubits`] for oversized registers.
pub fn compiled_equivalent(
    original: &Circuit,
    compiled: &Circuit,
    initial_layout: &[usize],
    final_layout: &[usize],
    trials: usize,
    seed: u64,
    eps: f64,
) -> Result<bool, SimError> {
    let n_log = original.num_qubits();
    let n_phys = compiled.num_qubits();
    for layout in [initial_layout, final_layout] {
        check_layout(layout, n_log, n_phys)?;
    }

    for t in 0..trials {
        let logical_in = State::random(n_log, seed.wrapping_add(t as u64))?;

        // Embed through the initial layout and run the compiled circuit.
        let mut phys = embed(&logical_in, n_phys, initial_layout)?;
        phys.apply_circuit_fused(compiled)?;

        // Reference: run the original, embed through the final layout.
        let mut logical_out = logical_in;
        logical_out.apply_circuit_fused(original)?;
        let expected = embed(&logical_out, n_phys, final_layout)?;

        if !phys.approx_eq_up_to_phase(&expected, eps) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Checks that `layout` places `n_log` logical qubits on distinct
/// physical qubits of an `n_phys`-qubit register, as every backend's
/// layout replay requires.
///
/// # Errors
///
/// [`SimError::WidthMismatch`] for a wrong length or an out-of-range
/// entry, [`SimError::DuplicateLayoutEntry`] for a repeated one.
pub(crate) fn check_layout(layout: &[usize], n_log: usize, n_phys: usize) -> Result<(), SimError> {
    if layout.len() != n_log {
        return Err(SimError::WidthMismatch {
            expected: n_log,
            actual: layout.len(),
        });
    }
    if let Some(&p) = layout.iter().max().filter(|&&p| p >= n_phys) {
        return Err(SimError::WidthMismatch {
            expected: n_phys,
            actual: p + 1,
        });
    }
    let mut used = vec![false; n_phys];
    for &p in layout {
        if std::mem::replace(&mut used[p], true) {
            return Err(SimError::DuplicateLayoutEntry { qubit: p });
        }
    }
    Ok(())
}

/// Places a logical state into a wider physical register according to
/// `layout` (logical qubit `l` → physical qubit `layout[l]`); every other
/// physical qubit is `|0⟩`.
///
/// # Errors
///
/// Returns [`SimError::TooManyQubits`] if the physical register is too wide
/// to simulate.
pub fn embed(logical: &State, n_phys: usize, layout: &[usize]) -> Result<State, SimError> {
    let n_log = logical.num_qubits();
    debug_assert_eq!(layout.len(), n_log);
    if n_phys > crate::MAX_QUBITS {
        return Err(SimError::TooManyQubits {
            requested: n_phys,
            max: crate::MAX_QUBITS,
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

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn identical_circuits_are_equivalent() {
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1).t(1);
        assert!(circuits_equivalent(&a, &a.clone(), EPS).unwrap());
    }

    #[test]
    fn different_circuits_are_not_equivalent() {
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1);
        let mut b = Circuit::new(2);
        b.h(0).cx(0, 1).t(1);
        assert!(!circuits_equivalent(&a, &b, EPS).unwrap());
        assert!(!circuits_equivalent_sampled(&a, &b, 2, 1, EPS).unwrap());
    }

    #[test]
    fn global_phase_is_ignored() {
        // rz(θ) = e^{-iθ/2} u1(θ): same gate up to global phase.
        let mut a = Circuit::new(1);
        a.rz(0.9, 0);
        let mut b = Circuit::new(1);
        b.u1(0.9, 0);
        assert!(circuits_equivalent(&a, &b, EPS).unwrap());
    }

    #[test]
    fn width_mismatch_is_an_error() {
        let a = Circuit::new(2);
        let b = Circuit::new(3);
        assert!(circuits_equivalent(&a, &b, EPS).is_err());
    }

    #[test]
    fn sampled_matches_exact_on_equivalent_pair() {
        // SWAP = 3 alternating CNOTs.
        let mut a = Circuit::new(2);
        a.swap(0, 1);
        let mut b = Circuit::new(2);
        b.cx(0, 1).cx(1, 0).cx(0, 1);
        assert!(circuits_equivalent(&a, &b, EPS).unwrap());
        assert!(circuits_equivalent_sampled(&a, &b, 4, 99, EPS).unwrap());
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
    fn compiled_equivalent_accepts_swapped_implementation() {
        // Original: CX(0,1) on 2 logical qubits.
        let mut original = Circuit::new(2);
        original.cx(0, 1);
        // Compiled on 3 physical qubits: logical 0 at phys 0, logical 1 at
        // phys 2. Route: swap(2,1), cx(0,1); final layout: l0→0, l1→1.
        let mut compiled = Circuit::new(3);
        compiled.swap(2, 1).cx(0, 1);
        assert!(compiled_equivalent(&original, &compiled, &[0, 2], &[0, 1], 3, 5, EPS).unwrap());
    }

    #[test]
    fn compiled_equivalent_rejects_wrong_final_layout() {
        let mut original = Circuit::new(2);
        original.cx(0, 1);
        let mut compiled = Circuit::new(3);
        compiled.swap(2, 1).cx(0, 1);
        // Claiming data did NOT move must fail.
        assert!(!compiled_equivalent(&original, &compiled, &[0, 2], &[0, 2], 3, 5, EPS).unwrap());
    }

    #[test]
    fn compiled_equivalent_validates_layout_lengths() {
        let original = Circuit::new(2);
        let compiled = Circuit::new(3);
        assert!(compiled_equivalent(&original, &compiled, &[0], &[0, 1], 1, 1, EPS).is_err());
        assert!(compiled_equivalent(&original, &compiled, &[0, 9], &[0, 1], 1, 1, EPS).is_err());
    }
}
