//! The hash-map kernel that [`SparseState`](super::SparseState) replaced,
//! kept as a test oracle: every output amplitude of the term-list kernel
//! must be bit-equal to this one's, and every budget error and
//! equivalence verdict the same.

use super::{
    key_bit, key_flip, random_sparse_prep, FxBuildHasher, Key, SparseSimulator, PRUNE_NORM_SQR,
    ZERO_KEY,
};
use crate::{single_qubit_matrix, xpow_matrix, Mat2, SimError, C64};
use std::collections::HashMap;
use trios_ir::{Circuit, Gate, Instruction, Qubit};

type TermMap = HashMap<Key, C64, FxBuildHasher>;

fn term_map(capacity: usize) -> TermMap {
    TermMap::with_capacity_and_hasher(capacity, FxBuildHasher::default())
}

/// A statevector stored as a map from basis index to nonzero amplitude;
/// every gate that moves or mixes terms rebuilds the map.
#[derive(Debug, Clone)]
pub(super) struct MapState {
    num_qubits: usize,
    terms: TermMap,
    max_terms: usize,
}

impl MapState {
    pub(super) fn zero(num_qubits: usize, max_terms: usize) -> Self {
        let mut terms = term_map(1);
        terms.insert(ZERO_KEY, C64::ONE);
        MapState {
            num_qubits,
            terms,
            max_terms: max_terms.max(1),
        }
    }

    /// Every stored term, in no particular order.
    pub(super) fn terms(&self) -> impl Iterator<Item = (Key, C64)> + '_ {
        self.terms.iter().map(|(&key, &amp)| (key, amp))
    }

    pub(super) fn apply_circuit(&mut self, circuit: &Circuit) -> Result<(), SimError> {
        for instr in circuit.iter() {
            if instr.gate().is_measurement() {
                continue;
            }
            self.try_apply(instr)?;
        }
        Ok(())
    }

    pub(super) fn apply_circuit_mapped(
        &mut self,
        circuit: &Circuit,
        map: &[usize],
    ) -> Result<(), SimError> {
        for instr in circuit.iter() {
            if instr.gate().is_measurement() {
                continue;
            }
            let mapped: Vec<Qubit> = instr
                .qubits()
                .iter()
                .map(|q| Qubit::new(map[q.index()]))
                .collect();
            self.try_apply(&Instruction::new(instr.gate(), &mapped))?;
        }
        Ok(())
    }

    fn try_apply(&mut self, instr: &Instruction) -> Result<(), SimError> {
        let qs = instr.qubits();
        let q = |i: usize| qs[i].index();
        match instr.gate() {
            Gate::Measure => Err(SimError::UnsupportedGate {
                gate: instr.gate().to_string(),
                backend: "sparse",
            }),
            Gate::I => Ok(()),
            Gate::X => {
                self.permute(|key| key_flip(key, q(0)));
                Ok(())
            }
            Gate::Cx => {
                let (c, t) = (q(0), q(1));
                self.permute(|key| {
                    if key_bit(&key, c) {
                        key_flip(key, t)
                    } else {
                        key
                    }
                });
                Ok(())
            }
            Gate::Ccx => {
                let (c1, c2, t) = (q(0), q(1), q(2));
                self.permute(|key| {
                    if key_bit(&key, c1) && key_bit(&key, c2) {
                        key_flip(key, t)
                    } else {
                        key
                    }
                });
                Ok(())
            }
            Gate::Swap => {
                let (a, b) = (q(0), q(1));
                self.permute(|key| {
                    if key_bit(&key, a) != key_bit(&key, b) {
                        key_flip(key_flip(key, a), b)
                    } else {
                        key
                    }
                });
                Ok(())
            }
            Gate::Cswap => {
                let (c, a, b) = (q(0), q(1), q(2));
                self.permute(|key| {
                    if key_bit(&key, c) && key_bit(&key, a) != key_bit(&key, b) {
                        key_flip(key_flip(key, a), b)
                    } else {
                        key
                    }
                });
                Ok(())
            }
            Gate::Z => {
                self.phase_where(&[q(0)], -C64::ONE);
                Ok(())
            }
            Gate::S => {
                self.phase_where(&[q(0)], C64::I);
                Ok(())
            }
            Gate::Sdg => {
                self.phase_where(&[q(0)], -C64::I);
                Ok(())
            }
            Gate::T => {
                self.phase_where(&[q(0)], C64::cis(std::f64::consts::FRAC_PI_4));
                Ok(())
            }
            Gate::Tdg => {
                self.phase_where(&[q(0)], C64::cis(-std::f64::consts::FRAC_PI_4));
                Ok(())
            }
            Gate::U1(l) => {
                self.phase_where(&[q(0)], C64::cis(l));
                Ok(())
            }
            Gate::Cz => {
                self.phase_where(&[q(0), q(1)], -C64::ONE);
                Ok(())
            }
            Gate::Cp(l) => {
                self.phase_where(&[q(0), q(1)], C64::cis(l));
                Ok(())
            }
            Gate::Ccz => {
                self.phase_where(&[q(0), q(1), q(2)], -C64::ONE);
                Ok(())
            }
            Gate::Cxpow(t) => {
                let m = xpow_matrix(t);
                self.apply_controlled_1q(q(0), q(1), &m)
            }
            g => match single_qubit_matrix(g) {
                Some(m) => self.apply_1q(q(0), &m),
                None => Err(SimError::UnsupportedGate {
                    gate: g.to_string(),
                    backend: "sparse",
                }),
            },
        }
    }

    fn permute(&mut self, f: impl Fn(Key) -> Key) {
        let mut out = term_map(self.terms.len());
        for (key, amp) in self.terms.drain() {
            out.insert(f(key), amp);
        }
        self.terms = out;
    }

    fn phase_where(&mut self, qubits: &[usize], phase: C64) {
        for (key, amp) in self.terms.iter_mut() {
            if qubits.iter().all(|&q| key_bit(key, q)) {
                *amp *= phase;
            }
        }
    }

    fn apply_1q(&mut self, q: usize, m: &Mat2) -> Result<(), SimError> {
        if m[0][1].norm_sqr() < PRUNE_NORM_SQR && m[1][0].norm_sqr() < PRUNE_NORM_SQR {
            let (m00, m11) = (m[0][0], m[1][1]);
            for (key, amp) in self.terms.iter_mut() {
                *amp *= if key_bit(key, q) { m11 } else { m00 };
            }
            return Ok(());
        }
        let mut out = term_map(self.terms.len().saturating_mul(2));
        for (&key, &amp) in &self.terms {
            let set = key_bit(&key, q);
            let lo = if set { key_flip(key, q) } else { key };
            if set && self.terms.contains_key(&lo) {
                continue;
            }
            let hi = key_flip(lo, q);
            let (a0, a1) = if set {
                (C64::ZERO, amp)
            } else {
                (amp, self.terms.get(&hi).copied().unwrap_or(C64::ZERO))
            };
            let n0 = m[0][0] * a0 + m[0][1] * a1;
            let n1 = m[1][0] * a0 + m[1][1] * a1;
            if n0.norm_sqr() >= PRUNE_NORM_SQR {
                out.insert(lo, n0);
            }
            if n1.norm_sqr() >= PRUNE_NORM_SQR {
                out.insert(hi, n1);
            }
        }
        self.terms = out;
        self.check_budget()
    }

    fn apply_controlled_1q(&mut self, c: usize, t: usize, m: &Mat2) -> Result<(), SimError> {
        let mut out = term_map(self.terms.len().saturating_mul(2));
        for (&key, &amp) in &self.terms {
            if !key_bit(&key, c) {
                out.insert(key, amp);
                continue;
            }
            let set = key_bit(&key, t);
            let lo = if set { key_flip(key, t) } else { key };
            if set && self.terms.contains_key(&lo) {
                continue;
            }
            let hi = key_flip(lo, t);
            let (a0, a1) = if set {
                (C64::ZERO, amp)
            } else {
                (amp, self.terms.get(&hi).copied().unwrap_or(C64::ZERO))
            };
            let n0 = m[0][0] * a0 + m[0][1] * a1;
            let n1 = m[1][0] * a0 + m[1][1] * a1;
            if n0.norm_sqr() >= PRUNE_NORM_SQR {
                out.insert(lo, n0);
            }
            if n1.norm_sqr() >= PRUNE_NORM_SQR {
                out.insert(hi, n1);
            }
        }
        self.terms = out;
        self.check_budget()
    }

    fn check_budget(&self) -> Result<(), SimError> {
        if self.terms.len() > self.max_terms {
            Err(SimError::StateTooDense {
                terms: self.terms.len(),
                max_terms: self.max_terms,
            })
        } else {
            Ok(())
        }
    }

    fn approx_eq_up_to_phase(&self, other: &MapState, eps: f64) -> bool {
        if self.num_qubits != other.num_qubits {
            return false;
        }
        let mut reference: Option<(&Key, C64)> = None;
        for (key, &amp) in &other.terms {
            reference = match reference {
                None => Some((key, amp)),
                Some((bk, ba)) => {
                    let d = amp.norm_sqr() - ba.norm_sqr();
                    if d > 0.0 || (d == 0.0 && key < bk) {
                        Some((key, amp))
                    } else {
                        Some((bk, ba))
                    }
                }
            };
        }
        let Some((rk, ra)) = reference else {
            return self.terms.values().all(|a| a.abs() < eps);
        };
        let ours = self.terms.get(rk).copied().unwrap_or(C64::ZERO);
        let phase = ours / ra;
        if (phase.abs() - 1.0).abs() > eps {
            return false;
        }
        for (key, &amp) in &self.terms {
            let theirs = other.terms.get(key).copied().unwrap_or(C64::ZERO);
            if !(amp - theirs * phase).abs().is_finite() || (amp - theirs * phase).abs() > eps {
                return false;
            }
        }
        for (key, &amp) in &other.terms {
            if !self.terms.contains_key(key) && amp.abs() > eps {
                return false;
            }
        }
        true
    }
}

/// The map kernel's `SparseSimulator::compiled_equivalent` on a register
/// the sparse state holds directly (no compaction, valid layouts).
pub(super) fn compiled_equivalent(
    sim: &SparseSimulator,
    original: &Circuit,
    compiled: &Circuit,
    initial_layout: &[usize],
    final_layout: &[usize],
    trials: usize,
    seed: u64,
) -> Result<bool, SimError> {
    let n_phys = compiled.num_qubits();
    for t in 0..trials.max(1) {
        let prep = random_sparse_prep(original.num_qubits(), seed.wrapping_add(t as u64));
        let mut got = MapState::zero(n_phys, sim.max_terms);
        got.apply_circuit_mapped(&prep, initial_layout)?;
        got.apply_circuit(compiled)?;
        let mut expected = MapState::zero(n_phys, sim.max_terms);
        expected.apply_circuit_mapped(&prep, final_layout)?;
        expected.apply_circuit_mapped(original, final_layout)?;
        if !got.approx_eq_up_to_phase(&expected, sim.eps) {
            return Ok(false);
        }
    }
    Ok(true)
}
