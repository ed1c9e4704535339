//! The exact whole-unitary check, and the layout check every backend's
//! replay shares.
//!
//! [`circuits_equivalent`] compares two circuits' whole unitaries: it
//! runs every computational basis state through both and requires one
//! global phase to match every column. That costs `4^n` amplitude
//! updates, so it suits decomposition tests of a few qubits, on the
//! dense engine.
//!
//! Routed and wide circuits are checked instead by the
//! [`Simulator`](crate::Simulator) methods, through the initial and
//! final layouts. The stabilizer's check is exact for Clifford circuits
//! at any width; dense and sparse compare the two sides on a few seeded
//! random inputs, and a sampled trial can miss an inequivalence that an
//! exact check cannot.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DenseSimulator, Simulator};

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
        assert!(!DenseSimulator::new(EPS)
            .circuits_equivalent(&a, &b, 2, 1)
            .unwrap());
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
        assert!(DenseSimulator::new(EPS)
            .circuits_equivalent(&a, &b, 4, 99)
            .unwrap());
    }
}
