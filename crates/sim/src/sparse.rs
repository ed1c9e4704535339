//! Sparse statevector simulation: a list of nonzero amplitudes.
//!
//! The dense backend caps out at [`MAX_QUBITS`](crate::MAX_QUBITS) because
//! it materializes all 2^n amplitudes; the stabilizer backend scales to
//! hundreds of qubits but only speaks Clifford. The paper's workloads —
//! ripple-carry adders, Toffoli networks, CnX ladders — are non-Clifford
//! yet *low-entanglement*: pushed through from a basis-ish input they keep
//! a tiny number of nonzero amplitudes at any register width. This module
//! exploits that: [`SparseState`] stores only the nonzero terms, each with
//! its basis index, and [`SparseSimulator`] verifies compiled circuits on
//! seeded inputs at full device width (Johannesburg's 20 qubits, 127-qubit
//! heavy-hex) as long as the term count stays under a [`max_terms`]
//! budget. When a circuit *does* entangle past the budget the simulator
//! reports [`SimError::StateTooDense`] instead of thrashing — never a
//! wrong verdict.
//!
//! The terms are a list of distinct basis indices, so most gates work in
//! place: a permutation (X, CX, CCX, SWAP, CSWAP) rewrites indices — a
//! bijection cannot make two of them collide — and a phase or diagonal
//! gate scales amplitudes. Only superposing gates (H, `u2`/`u3`,
//! rotations, controlled powers) build new terms, pairing each index with
//! its partner across the target qubit through an index the state keeps
//! and reuses from gate to gate.
//!
//! Keys are 256-bit basis indices (`[u64; 4]`), hashed with a vendored
//! Fx-style multiply hasher so behaviour is fully deterministic for a
//! given seed; registers wider than [`SPARSE_MAX_QUBITS`] are handled by
//! compacting onto the qubits a cell actually touches (routed circuits on
//! kiloqubit devices use a small fraction of the register).
//!
//! [`max_terms`]: SparseState::max_terms

use crate::equivalence::check_layout;
use crate::state::SplitMix64;
use crate::{single_qubit_matrix, xpow_matrix, Capability, Mat2, SimError, Simulator, C64};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use trios_ir::{Circuit, Gate, Instruction, Qubit};

#[cfg(test)]
mod reference;

/// Widest register a [`SparseState`] can hold directly (the basis-index
/// key is 4×64 bits). [`SparseSimulator`] stretches past this for routed
/// circuits by compacting onto the touched qubits.
pub const SPARSE_MAX_QUBITS: usize = KEY_WORDS * 64;

/// Default nonzero-amplitude budget (~one million terms, comparable in
/// memory to a 20-qubit dense state).
pub const DEFAULT_MAX_TERMS: usize = 1 << 20;

const KEY_WORDS: usize = 4;

/// A 256-bit basis index, little-endian in both words and bits.
type Key = [u64; KEY_WORDS];

const ZERO_KEY: Key = [0; KEY_WORDS];

/// Amplitudes with squared magnitude below this are dropped after each
/// non-permutation gate; interference residue (e.g. the re-merged branches
/// of a decomposed Toffoli's H…H sandwich) sits at ~1e-16, far below any
/// comparison tolerance.
const PRUNE_NORM_SQR: f64 = 1e-28;

#[inline]
fn key_bit(key: &Key, q: usize) -> bool {
    key[q / 64] >> (q % 64) & 1 == 1
}

#[inline]
fn key_flip(mut key: Key, q: usize) -> Key {
    key[q / 64] ^= 1 << (q % 64);
    key
}

/// FxHash-style multiply hasher (vendored: the crate is dependency-free).
/// Unlike `RandomState` it is *deterministic*, so sparse-state behaviour
/// is byte-identical across runs for a given seed.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

type FxBuildHasher = BuildHasherDefault<FxHasher>;
type KeyIndex<V> = HashMap<Key, V, FxBuildHasher>;

/// A statevector stored as a list of distinct basis indices with their
/// nonzero amplitudes, in no particular order.
#[derive(Debug, Clone)]
pub struct SparseState {
    num_qubits: usize,
    terms: Vec<(Key, C64)>,
    max_terms: usize,
    /// Scratch of the superposing gates, kept so its capacity is reused:
    /// the pair list holds each touched |…0…⟩ index with the amplitudes
    /// of it and its |…1…⟩ partner, and the pair index maps a |…0…⟩
    /// index to its slot in the list.
    pairs: Vec<(Key, C64, C64)>,
    pair_index: KeyIndex<usize>,
}

impl SparseState {
    /// The all-zeros computational basis state |0…0⟩ on `num_qubits`
    /// qubits, with the default term budget.
    ///
    /// # Errors
    ///
    /// [`SimError::TooManyQubits`] past [`SPARSE_MAX_QUBITS`].
    pub fn zero(num_qubits: usize) -> Result<Self, SimError> {
        if num_qubits > SPARSE_MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: num_qubits,
                max: SPARSE_MAX_QUBITS,
            });
        }
        Ok(SparseState {
            num_qubits,
            terms: vec![(ZERO_KEY, C64::ONE)],
            max_terms: DEFAULT_MAX_TERMS,
            pairs: Vec::new(),
            pair_index: KeyIndex::default(),
        })
    }

    /// Replaces the nonzero-amplitude budget.
    #[must_use]
    pub fn with_max_terms(mut self, max_terms: usize) -> Self {
        self.max_terms = max_terms.max(1);
        self
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Current number of stored nonzero amplitudes.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The nonzero-amplitude budget.
    pub fn max_terms(&self) -> usize {
        self.max_terms
    }

    /// The amplitude of basis state `index` (zero when absent). Only the
    /// low 64 bits of the basis index are addressable through this
    /// convenience form; it exists for tests and benches on ≤64 qubits.
    pub fn amplitude(&self, index: u64) -> C64 {
        let mut key = ZERO_KEY;
        key[0] = index;
        self.terms
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(C64::ZERO, |&(_, amp)| amp)
    }

    /// The ℓ² norm (1 for any valid quantum state, up to pruning residue).
    pub fn norm(&self) -> f64 {
        self.terms
            .iter()
            .map(|(_, a)| a.norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// The dense amplitude vector, for cross-checking against [`State`]
    /// in tests and benches.
    ///
    /// [`State`]: crate::State
    ///
    /// # Errors
    ///
    /// [`SimError::TooManyQubits`] when 2^n does not fit in memory
    /// (width over [`MAX_QUBITS`](crate::MAX_QUBITS)).
    pub fn dense_amplitudes(&self) -> Result<Vec<C64>, SimError> {
        if self.num_qubits > crate::MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: self.num_qubits,
                max: crate::MAX_QUBITS,
            });
        }
        let mut amps = vec![C64::ZERO; 1usize << self.num_qubits];
        for &(key, amp) in &self.terms {
            amps[key[0] as usize] = amp;
        }
        Ok(amps)
    }

    /// Applies all unitary instructions of `circuit`, skipping
    /// measurements (mirroring [`State::apply_circuit`]).
    ///
    /// [`State::apply_circuit`]: crate::State::apply_circuit
    ///
    /// # Errors
    ///
    /// [`SimError::WidthMismatch`] if the circuit is wider than the state,
    /// [`SimError::StateTooDense`] when a gate pushes the nonzero-term
    /// count past the budget, [`SimError::UnsupportedGate`] for gates
    /// without a unitary action.
    pub fn apply_circuit(&mut self, circuit: &Circuit) -> Result<(), SimError> {
        if circuit.num_qubits() > self.num_qubits {
            return Err(SimError::WidthMismatch {
                expected: self.num_qubits,
                actual: circuit.num_qubits(),
            });
        }
        for instr in circuit.iter() {
            if instr.gate().is_measurement() {
                continue;
            }
            self.try_apply(instr)?;
        }
        Ok(())
    }

    /// Applies `circuit` with logical qubit `q` acting on physical qubit
    /// `map[q]`, skipping measurements. Mirrors
    /// [`Tableau::apply_circuit_mapped`](crate::Tableau::apply_circuit_mapped).
    ///
    /// # Errors
    ///
    /// [`SimError::WidthMismatch`] unless `map` has one in-range entry per
    /// circuit qubit, [`SimError::DuplicateLayoutEntry`] if two entries
    /// name one qubit, plus anything [`SparseState::try_apply`] reports.
    pub fn apply_circuit_mapped(
        &mut self,
        circuit: &Circuit,
        map: &[usize],
    ) -> Result<(), SimError> {
        check_layout(map, circuit.num_qubits(), self.num_qubits)?;
        for instr in circuit.iter() {
            if instr.gate().is_measurement() {
                continue;
            }
            self.try_apply(&instr.map_qubits(|q| Qubit::new(map[q.index()])))?;
        }
        Ok(())
    }

    /// Applies one unitary instruction.
    ///
    /// Diagonal and permutation gates (the bulk of routed Toffoli
    /// networks) work in place and never grow the term count; superposing
    /// gates (H, Y, √X, rotations, controlled powers) at most double it
    /// and are followed by a budget check.
    ///
    /// # Errors
    ///
    /// [`SimError::WidthMismatch`] for out-of-range qubits,
    /// [`SimError::RepeatedOperand`] for a qubit named twice (the in-place
    /// kernels would merge basis indices),
    /// [`SimError::UnsupportedGate`] for measurements or gates without a
    /// matrix, [`SimError::StateTooDense`] past the term budget.
    pub fn try_apply(&mut self, instr: &Instruction) -> Result<(), SimError> {
        let qs = instr.qubits();
        for (i, q) in qs.iter().enumerate() {
            if q.index() >= self.num_qubits {
                return Err(SimError::WidthMismatch {
                    expected: self.num_qubits,
                    actual: q.index() + 1,
                });
            }
            if qs[..i].contains(q) {
                return Err(SimError::RepeatedOperand {
                    gate: instr.gate().to_string(),
                    qubit: q.index(),
                });
            }
        }
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
                self.apply_paired(Some(q(0)), q(1), &m)
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

    /// Rewrites every basis index in place through the bijection `f`
    /// (X/CX/CCX/SWAP/CSWAP on distinct qubits): distinct indices stay
    /// distinct, and the term count is preserved exactly.
    fn permute(&mut self, f: impl Fn(Key) -> Key) {
        for (key, _) in &mut self.terms {
            *key = f(*key);
        }
    }

    /// Multiplies the amplitude of every basis state with all of `qubits`
    /// set by `phase` (Z/S/T/U1/CZ/CP/CCZ). Term count is preserved.
    fn phase_where(&mut self, qubits: &[usize], phase: C64) {
        for (key, amp) in &mut self.terms {
            if qubits.iter().all(|&q| key_bit(key, q)) {
                *amp *= phase;
            }
        }
    }

    /// General single-qubit gate. A diagonal matrix scales in place;
    /// anything else goes through [`SparseState::apply_paired`].
    fn apply_1q(&mut self, q: usize, m: &Mat2) -> Result<(), SimError> {
        if m[0][1].norm_sqr() < PRUNE_NORM_SQR && m[1][0].norm_sqr() < PRUNE_NORM_SQR {
            let (m00, m11) = (m[0][0], m[1][1]);
            for (key, amp) in &mut self.terms {
                *amp *= if key_bit(key, q) { m11 } else { m00 };
            }
            return Ok(());
        }
        self.apply_paired(None, q, m)
    }

    /// Applies `m` to target `t` on the subspace where `control` (if any)
    /// is set. Terms with the control clear stay where they are; every
    /// other term joins its |…0…⟩/|…1…⟩ pair across `t`, an absent member
    /// counting as amplitude zero, and each pair is replaced by its
    /// image, dropping amplitudes below the pruning threshold.
    fn apply_paired(&mut self, control: Option<usize>, t: usize, m: &Mat2) -> Result<(), SimError> {
        self.pairs.clear();
        self.pair_index.clear();
        let mut kept = 0;
        for i in 0..self.terms.len() {
            let (key, amp) = self.terms[i];
            if control.is_some_and(|c| !key_bit(&key, c)) {
                self.terms[kept] = (key, amp);
                kept += 1;
                continue;
            }
            let set = key_bit(&key, t);
            let lo = if set { key_flip(key, t) } else { key };
            let pairs = &mut self.pairs;
            let slot = *self.pair_index.entry(lo).or_insert_with(|| {
                pairs.push((lo, C64::ZERO, C64::ZERO));
                pairs.len() - 1
            });
            if set {
                pairs[slot].2 = amp;
            } else {
                pairs[slot].1 = amp;
            }
        }
        self.terms.truncate(kept);
        for &(lo, a0, a1) in &self.pairs {
            let n0 = m[0][0] * a0 + m[0][1] * a1;
            let n1 = m[1][0] * a0 + m[1][1] * a1;
            if n0.norm_sqr() >= PRUNE_NORM_SQR {
                self.terms.push((lo, n0));
            }
            if n1.norm_sqr() >= PRUNE_NORM_SQR {
                self.terms.push((key_flip(lo, t), n1));
            }
        }
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

    /// `true` when the two states are equal up to a global phase, with
    /// per-amplitude tolerance `eps`. The reference phase comes from
    /// `other`'s largest amplitude (ties broken by smallest basis index),
    /// so the verdict does not depend on the order terms are stored in.
    pub fn approx_eq_up_to_phase(&self, other: &SparseState, eps: f64) -> bool {
        if self.num_qubits != other.num_qubits {
            return false;
        }
        let mut reference: Option<(&Key, C64)> = None;
        for (key, amp) in &other.terms {
            reference = match reference {
                None => Some((key, *amp)),
                Some((bk, ba)) => {
                    let d = amp.norm_sqr() - ba.norm_sqr();
                    if d > 0.0 || (d == 0.0 && key < bk) {
                        Some((key, *amp))
                    } else {
                        Some((bk, ba))
                    }
                }
            };
        }
        let Some((rk, ra)) = reference else {
            // `other` is (numerically) the zero vector: equal only if we
            // are too.
            return self.terms.iter().all(|(_, a)| a.abs() < eps);
        };
        let ours = self
            .terms
            .iter()
            .find(|(k, _)| k == rk)
            .map_or(C64::ZERO, |&(_, amp)| amp);
        let phase = ours / ra;
        if (phase.abs() - 1.0).abs() > eps {
            return false;
        }
        // `other`'s terms by basis index, each flagged once `self` is
        // found to hold the same index.
        let mut theirs: KeyIndex<(C64, bool)> =
            KeyIndex::with_capacity_and_hasher(other.terms.len(), FxBuildHasher::default());
        for &(key, amp) in &other.terms {
            theirs.insert(key, (amp, false));
        }
        for (key, amp) in &self.terms {
            let theirs = match theirs.get_mut(key) {
                Some((amp, seen)) => {
                    *seen = true;
                    *amp
                }
                None => C64::ZERO,
            };
            let diff = (*amp - theirs * phase).abs();
            if !diff.is_finite() || diff > eps {
                return false;
            }
        }
        !theirs.values().any(|&(amp, seen)| !seen && amp.abs() > eps)
    }
}

/// Sparse-statevector backend: any unitary gate, any width up to
/// [`SPARSE_MAX_QUBITS`] (and wider routed registers via compaction onto
/// the touched qubits), as long as the nonzero-amplitude count stays
/// under [`SparseSimulator::max_terms`].
///
/// Equivalence trials prepare a seeded low-entanglement input — random
/// bit flips, H on a handful of qubits, then a random word of
/// term-preserving S/T/CX mixing — so superpositions and relative phases
/// are both exercised while the input itself stays at ≤ 256 terms.
#[derive(Debug, Clone, Copy)]
pub struct SparseSimulator {
    /// Amplitude tolerance for equivalence comparisons.
    pub eps: f64,
    /// Nonzero-amplitude budget per simulated state.
    pub max_terms: usize,
}

impl Default for SparseSimulator {
    fn default() -> Self {
        SparseSimulator {
            eps: 1e-9,
            max_terms: DEFAULT_MAX_TERMS,
        }
    }
}

impl SparseSimulator {
    /// A sparse backend with the given tolerance and term budget.
    pub fn new(eps: f64, max_terms: usize) -> Self {
        SparseSimulator { eps, max_terms }
    }

    /// A sparse backend with the default tolerance and the given budget.
    pub fn with_max_terms(max_terms: usize) -> Self {
        SparseSimulator {
            max_terms,
            ..SparseSimulator::default()
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the Simulator::compiled_equivalent shape
    fn run_layout_trials(
        &self,
        original: &Circuit,
        compiled: &Circuit,
        initial_layout: &[usize],
        final_layout: &[usize],
        n_phys: usize,
        trials: usize,
        seed: u64,
    ) -> Result<bool, SimError> {
        let n_log = original.num_qubits();
        for t in 0..trials.max(1) {
            let prep = random_sparse_prep(n_log, seed.wrapping_add(t as u64));

            // Compiled side: prep embedded through the initial layout,
            // then the physical circuit verbatim.
            let mut got = SparseState::zero(n_phys)?.with_max_terms(self.max_terms);
            got.apply_circuit_mapped(&prep, initial_layout)?;
            got.apply_circuit(compiled)?;

            // Reference side: prep and original both embedded through the
            // final layout (embedding commutes with circuit application;
            // unmapped physical qubits stay |0⟩ on both sides).
            let mut expected = SparseState::zero(n_phys)?.with_max_terms(self.max_terms);
            expected.apply_circuit_mapped(&prep, final_layout)?;
            expected.apply_circuit_mapped(original, final_layout)?;

            if !got.approx_eq_up_to_phase(&expected, self.eps) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

impl Simulator for SparseSimulator {
    fn capability(&self) -> Capability {
        Capability {
            name: "sparse",
            exact: false,
        }
    }

    fn supports_circuit(&self, circuit: &Circuit) -> Result<(), SimError> {
        if circuit.num_qubits() <= SPARSE_MAX_QUBITS {
            return Ok(());
        }
        // Wider registers are fine as long as the circuit touches few
        // enough qubits to compact onto a direct sparse register.
        let active = circuit.active_qubits().len();
        if active <= SPARSE_MAX_QUBITS {
            Ok(())
        } else {
            Err(SimError::TooManyQubits {
                requested: active,
                max: SPARSE_MAX_QUBITS,
            })
        }
    }

    /// Overrides the provided method so that a pair wider than
    /// [`SPARSE_MAX_QUBITS`] compacts onto the qubits either circuit
    /// touches; identity layouts of that width would be refused.
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
        let n = a.num_qubits();
        if n <= SPARSE_MAX_QUBITS {
            let identity: Vec<usize> = (0..n).collect();
            return self.run_layout_trials(a, b, &identity, &identity, n, trials, seed);
        }
        // Compact onto the union of touched qubits; both circuits act as
        // the identity on the rest.
        let mut used = vec![false; n];
        for circuit in [a, b] {
            for q in circuit.active_qubits() {
                used[q] = true;
            }
        }
        let (active, compact) = compaction(&used);
        if active.len() > SPARSE_MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: active.len(),
                max: SPARSE_MAX_QUBITS,
            });
        }
        let a_c = remap_for_compaction(a, active.len(), &compact)?;
        let b_c = remap_for_compaction(b, active.len(), &compact)?;
        let identity: Vec<usize> = (0..active.len()).collect();
        self.run_layout_trials(&a_c, &b_c, &identity, &identity, active.len(), trials, seed)
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
        if n_log > SPARSE_MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: n_log,
                max: SPARSE_MAX_QUBITS,
            });
        }
        if n_phys <= SPARSE_MAX_QUBITS {
            return self.run_layout_trials(
                original,
                compiled,
                initial_layout,
                final_layout,
                n_phys,
                trials,
                seed,
            );
        }
        // Kiloqubit devices: compact the physical register onto the
        // qubits the cell actually touches (routed gates plus both layout
        // images); untouched physical qubits stay |0⟩ on both sides and
        // cannot distinguish the states.
        let mut used = vec![false; n_phys];
        for q in compiled.active_qubits() {
            used[q] = true;
        }
        for layout in [initial_layout, final_layout] {
            for &p in layout {
                used[p] = true;
            }
        }
        let (active, compact) = compaction(&used);
        if active.len() > SPARSE_MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: active.len(),
                max: SPARSE_MAX_QUBITS,
            });
        }
        let compiled_c = remap_for_compaction(compiled, active.len(), &compact)?;
        let init_c: Vec<usize> = initial_layout.iter().map(|&p| compact[p]).collect();
        let fin_c: Vec<usize> = final_layout.iter().map(|&p| compact[p]).collect();
        self.run_layout_trials(
            original,
            &compiled_c,
            &init_c,
            &fin_c,
            active.len(),
            trials,
            seed,
        )
    }
}

/// Sorted active qubit list and the old→new index map for compaction.
fn compaction(used: &[bool]) -> (Vec<usize>, Vec<usize>) {
    let active: Vec<usize> = used
        .iter()
        .enumerate()
        .filter_map(|(i, &u)| u.then_some(i))
        .collect();
    let mut compact = vec![0usize; used.len()];
    for (new, &old) in active.iter().enumerate() {
        compact[old] = new;
    }
    (active, compact)
}

fn remap_for_compaction(
    circuit: &Circuit,
    new_width: usize,
    map: &[usize],
) -> Result<Circuit, SimError> {
    circuit.remapped(new_width, map).map_err(|_| {
        // Unreachable for maps built by `compaction`, but surfaced as a
        // width problem rather than a panic if the IR ever rejects one.
        SimError::WidthMismatch {
            expected: new_width,
            actual: circuit.num_qubits(),
        }
    })
}

/// Most superposed qubits in a trial input: the prep contributes at most
/// 2^8 = 256 nonzero terms, leaving the whole budget for the circuits
/// under test.
const MAX_PREP_SUPERPOSED: usize = 8;

/// A seeded low-entanglement trial input on `n` qubits: random X flips,
/// H on the first `min(n, 8)` qubits, then a random word of S/T/CX — all
/// term-count-preserving, so the result has ≤ 256 terms but rich relative
/// phases (a basis state alone cannot distinguish e.g. CZ from identity).
/// Empty when `n` is zero.
fn random_sparse_prep(n: usize, seed: u64) -> Circuit {
    let mut rng = SplitMix64::new(seed);
    let mut c = Circuit::new(n);
    if n == 0 {
        return c;
    }
    for q in 0..n {
        if rng.next_u64() & 1 == 1 {
            c.x(q);
        }
    }
    for q in 0..n.min(MAX_PREP_SUPERPOSED) {
        c.h(q);
    }
    let words = 3 * n + 2;
    for _ in 0..words {
        let q = (rng.next_u64() % n as u64) as usize;
        match rng.next_u64() % 8 {
            0 | 1 => {
                c.s(q);
            }
            2 | 3 => {
                c.t(q);
            }
            4 => {
                c.z(q);
            }
            _ if n >= 2 => {
                let mut t = (rng.next_u64() % (n as u64 - 1)) as usize;
                if t >= q {
                    t += 1;
                }
                c.cx(q, t);
            }
            _ => {
                c.t(q);
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::reference::{self, MapState};
    use super::*;
    use crate::State;
    use proptest::prelude::*;

    fn assert_matches_dense(circuit: &Circuit, eps: f64) {
        let mut sparse = SparseState::zero(circuit.num_qubits()).unwrap();
        sparse.apply_circuit(circuit).unwrap();
        let mut dense = State::zero(circuit.num_qubits()).unwrap();
        dense.apply_circuit(circuit).unwrap();
        let amps = sparse.dense_amplitudes().unwrap();
        for (i, (s, d)) in amps.iter().zip(dense.amplitudes()).enumerate() {
            assert!(
                s.approx_eq(*d, eps),
                "amplitude {i}: sparse {s} vs dense {d} for\n{circuit}"
            );
        }
    }

    #[test]
    fn matches_dense_on_every_gate_kind() {
        let mut c = Circuit::new(4);
        c.h(0)
            .x(1)
            .y(2)
            .z(3)
            .s(0)
            .sdg(1)
            .t(2)
            .tdg(3)
            .sx(0)
            .rx(0.3, 1)
            .ry(1.1, 2)
            .rz(-0.7, 3)
            .u1(0.25, 0)
            .u2(0.1, 0.2, 1)
            .u3(0.4, 0.5, 0.6, 2)
            .cx(0, 1)
            .cz(1, 2)
            .cp(0.9, 2, 3)
            .swap(0, 3)
            .ccx(0, 1, 2)
            .ccz(1, 2, 3)
            .cswap(0, 1, 3)
            .cxpow(0.5, 2, 0)
            .h(3);
        assert_matches_dense(&c, 1e-12);
    }

    #[test]
    fn repeated_operands_are_refused_and_leave_the_state_alone() {
        // `map_qubits` skips the distinctness check of `Instruction::new`.
        let cx = Instruction::new(Gate::Cx, &[Qubit::new(0), Qubit::new(1)]);
        let doubled = cx.map_qubits(|_| Qubit::new(1));
        let mut state = SparseState::zero(3).unwrap();
        state
            .try_apply(&Instruction::new(Gate::H, &[Qubit::new(1)]))
            .unwrap();
        state
            .try_apply(&Instruction::new(Gate::H, &[Qubit::new(2)]))
            .unwrap();
        assert_eq!(state.num_terms(), 4);
        let before = state.dense_amplitudes().unwrap();
        assert_eq!(
            state.try_apply(&doubled),
            Err(SimError::RepeatedOperand {
                gate: "cx".into(),
                qubit: 1
            })
        );
        assert_eq!(state.num_terms(), 4);
        assert_eq!(state.dense_amplitudes().unwrap(), before);
    }

    #[test]
    fn ghz_has_two_terms() {
        let mut c = Circuit::new(12);
        c.h(0);
        for q in 1..12 {
            c.cx(q - 1, q);
        }
        let mut s = SparseState::zero(12).unwrap();
        s.apply_circuit(&c).unwrap();
        assert_eq!(s.num_terms(), 2);
        assert!(s
            .amplitude(0)
            .approx_eq(C64::real(1.0 / 2f64.sqrt()), 1e-12));
        assert!(s
            .amplitude((1 << 12) - 1)
            .approx_eq(C64::real(1.0 / 2f64.sqrt()), 1e-12));
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn toffoli_network_stays_sparse_at_width_100() {
        // A 100-qubit ripple of CCX/CX/X on a 4-term input: far beyond
        // dense reach, term count pinned.
        let n = 100;
        let mut c = Circuit::new(n);
        c.h(0).h(1);
        for q in 0..n - 2 {
            c.ccx(q, q + 1, q + 2);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        let mut s = SparseState::zero(n).unwrap();
        s.apply_circuit(&c).unwrap();
        assert!(s.num_terms() <= 4, "{} terms", s.num_terms());
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interference_prunes_cancelled_terms() {
        // H·H = I: the doubled terms must recombine to a single one.
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2).h(0).h(1).h(2);
        let mut s = SparseState::zero(3).unwrap();
        s.apply_circuit(&c).unwrap();
        assert_eq!(s.num_terms(), 1);
        assert!(s.amplitude(0).approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn budget_blowup_reports_state_too_dense() {
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.h(q);
        }
        let mut s = SparseState::zero(6).unwrap().with_max_terms(16);
        let err = s.apply_circuit(&c).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::StateTooDense {
                    terms: 32,
                    max_terms: 16
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn measurement_is_unsupported_but_skipped_in_circuits() {
        let mut c = Circuit::new(2);
        c.h(0).measure(0).cx(0, 1);
        let mut s = SparseState::zero(2).unwrap();
        s.apply_circuit(&c).unwrap();
        assert_eq!(s.num_terms(), 2);
        let measure = *c.iter().find(|i| i.gate().is_measurement()).unwrap();
        assert!(matches!(
            s.try_apply(&measure),
            Err(SimError::UnsupportedGate {
                backend: "sparse",
                ..
            })
        ));
    }

    #[test]
    fn detects_a_phase_only_difference_at_width_60() {
        // Identical permutation action, one stray T: only relative phase
        // distinguishes them, far beyond dense reach.
        let n = 60;
        let mut a = Circuit::new(n);
        let mut b = Circuit::new(n);
        for q in 0..n - 1 {
            a.cx(q, q + 1);
            b.cx(q, q + 1);
        }
        b.t(30);
        let sim = SparseSimulator::default();
        assert!(sim.circuits_equivalent(&a, &a, 2, 9).unwrap());
        assert!(!sim.circuits_equivalent(&a, &b, 4, 9).unwrap());
    }

    #[test]
    fn pairs_past_the_sparse_cap_compact_onto_touched_qubits() {
        // Two 300-qubit circuits touching 21 qubits: identity layouts of
        // that width are refused, so only the compacting override of
        // `circuits_equivalent` can answer.
        let n = 300;
        let touched: Vec<usize> = (0..21).map(|k| 14 * k).collect();
        let mut a = Circuit::new(n);
        a.h(touched[0]).h(touched[7]);
        for w in touched.windows(3) {
            a.ccx(w[0], w[1], w[2]);
        }
        for w in touched.windows(2) {
            a.cx(w[0], w[1]);
        }
        let mut b = a.clone();
        b.t(touched[10]);
        let sim = SparseSimulator::default();
        assert!(n > SPARSE_MAX_QUBITS);
        assert_eq!(sim.circuits_equivalent(&a, &a, 2, 9), Ok(true));
        assert_eq!(sim.circuits_equivalent(&a, &b, 4, 9), Ok(false));
        let identity: Vec<usize> = (0..n).collect();
        assert_eq!(
            sim.compiled_equivalent(&a, &a, &identity, &identity, 2, 9),
            Err(SimError::TooManyQubits {
                requested: n,
                max: SPARSE_MAX_QUBITS
            })
        );
    }

    #[test]
    fn kiloqubit_registers_compact_onto_touched_qubits() {
        // A 1121-qubit register whose circuit only touches a 40-qubit
        // stretch: compaction keeps the state at 40 qubits.
        let n = 1121;
        let mut original = Circuit::new(8);
        original.h(0);
        for q in 0..7 {
            original.ccx(q, (q + 1) % 8, (q + 2) % 8);
        }
        let base = 500;
        let layout: Vec<usize> = (0..8).map(|q| base + 2 * q).collect();
        let mut compiled = Circuit::new(n);
        compiled.h(base);
        for q in 0..7 {
            compiled.ccx(
                base + 2 * q,
                base + 2 * ((q + 1) % 8),
                base + 2 * ((q + 2) % 8),
            );
        }
        let sim = SparseSimulator::default();
        assert!(sim.supports_circuit(&compiled).is_ok());
        assert!(sim
            .compiled_equivalent(&original, &compiled, &layout, &layout, 2, 3)
            .unwrap());
        // Drop one CCX: must be detected even through compaction.
        let missing: Vec<_> = compiled.iter().take(compiled.len() - 1).cloned().collect();
        let missing = Circuit::from_instructions(n, missing).unwrap();
        assert!(!sim
            .compiled_equivalent(&original, &missing, &layout, &layout, 4, 3)
            .unwrap());
    }

    #[test]
    fn prep_is_deterministic_and_low_entanglement() {
        let a = random_sparse_prep(20, 7);
        let b = random_sparse_prep(20, 7);
        let c = random_sparse_prep(20, 8);
        assert_eq!(a.instructions(), b.instructions());
        assert_ne!(a.instructions(), c.instructions());
        let mut s = SparseState::zero(20).unwrap();
        s.apply_circuit(&a).unwrap();
        assert!(s.num_terms() <= 1 << MAX_PREP_SUPERPOSED);
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trials_are_byte_deterministic() {
        // Same seed → identical dense projections, run to run.
        let prep = random_sparse_prep(10, 21);
        let run = || {
            let mut s = SparseState::zero(10).unwrap();
            s.apply_circuit(&prep).unwrap();
            s.dense_amplitudes().unwrap()
        };
        let (a, b) = (run(), run());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn width_guards_report_errors() {
        assert!(matches!(
            SparseState::zero(SPARSE_MAX_QUBITS + 1),
            Err(SimError::TooManyQubits { .. })
        ));
        let mut narrow = SparseState::zero(2).unwrap();
        let wide = {
            let mut c = Circuit::new(3);
            c.h(2);
            c
        };
        assert!(matches!(
            narrow.apply_circuit(&wide),
            Err(SimError::WidthMismatch { .. })
        ));
    }

    /// Gate kind `kind` (every unitary gate and the measurement) with
    /// angles drawn from `angles`; `pick` below 4 snaps the first angle to
    /// 0, π/2, π or −π/4, whose matrices are diagonal or exact.
    fn gate_of(kind: u8, pick: usize, angles: (f64, f64, f64)) -> Gate {
        use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};
        let x = [0.0, FRAC_PI_2, PI, -FRAC_PI_4]
            .get(pick)
            .copied()
            .unwrap_or(angles.0);
        let (y, z) = (angles.1, angles.2);
        match kind {
            0 => Gate::I,
            1 => Gate::H,
            2 => Gate::X,
            3 => Gate::Y,
            4 => Gate::Z,
            5 => Gate::S,
            6 => Gate::Sdg,
            7 => Gate::T,
            8 => Gate::Tdg,
            9 => Gate::Sx,
            10 => Gate::Sxdg,
            11 => Gate::Rx(x),
            12 => Gate::Ry(x),
            13 => Gate::Rz(x),
            14 => Gate::U1(x),
            15 => Gate::U2(x, y),
            16 => Gate::U3(x, y, z),
            17 => Gate::Xpow(x),
            18 => Gate::Cxpow(x),
            19 => Gate::Cx,
            20 => Gate::Cz,
            21 => Gate::Cp(x),
            22 => Gate::Swap,
            23 => Gate::Ccx,
            24 => Gate::Ccz,
            25 => Gate::Cswap,
            _ => Gate::Measure,
        }
    }

    type RawGate = (u8, (usize, usize, usize), (usize, (f64, f64, f64)));

    /// Folds raw draws onto `n` qubits with distinct operands; a
    /// three-qubit gate on two qubits is dropped.
    fn build(n: usize, raw: &[RawGate]) -> Circuit {
        let mut c = Circuit::new(n);
        for &(kind, (r0, r1, r2), (pick, angles)) in raw {
            let gate = gate_of(kind, pick, angles);
            let a = r0 % n;
            let b = (a + 1 + r1 % (n - 1)) % n;
            let third = (0..n).map(|k| (r2 + k) % n).find(|&q| q != a && q != b);
            let Some(qs) = [Some(a), Some(b), third]
                .into_iter()
                .take(gate.arity())
                .collect::<Option<Vec<usize>>>()
            else {
                continue;
            };
            c.apply(gate, &qs);
        }
        c
    }

    /// The first `n` entries of a seeded shuffle of `0..n_phys`.
    fn injective_map(n: usize, n_phys: usize, seed: u64) -> Vec<usize> {
        let mut rng = SplitMix64::new(seed);
        let mut all: Vec<usize> = (0..n_phys).collect();
        for i in (1..n_phys).rev() {
            all.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        all.truncate(n);
        all
    }

    /// Every term as (basis index, re bits, im bits), sorted by index.
    fn bits(terms: impl Iterator<Item = (Key, C64)>) -> Vec<(Key, u64, u64)> {
        let mut out: Vec<_> = terms
            .map(|(key, amp)| (key, amp.re.to_bits(), amp.im.to_bits()))
            .collect();
        out.sort_unstable_by_key(|&(key, _, _)| key);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The term-list kernel against the map kernel it replaced, on
        /// random circuits over every gate kind: bit-equal amplitudes per
        /// basis index, the same budget errors, applied directly and
        /// through a layout, and the same compiled-equivalence verdicts
        /// through routing SWAPs, with and without a stray phase.
        #[test]
        fn term_list_kernel_is_bit_equal_to_the_map_kernel(
            n in 2usize..13,
            raw in proptest::collection::vec(
                (0u8..27, (0usize..12, 0usize..12, 0usize..12), (0usize..8, (-3.2f64..3.2, -3.2f64..3.2, -3.2f64..3.2))),
                0..40,
            ),
            budget in (0u32..13, 0usize..4096),
            extra in 0usize..4,
            layout_seed in any::<u64>(),
            tamper in 0u8..3,
        ) {
            let circuit = build(n, &raw);
            let budget = (1usize << budget.0) + budget.1 % (1usize << budget.0);

            let mut new = SparseState::zero(n).unwrap().with_max_terms(budget);
            let mut old = MapState::zero(n, budget);
            prop_assert_eq!(new.apply_circuit(&circuit), old.apply_circuit(&circuit));
            prop_assert_eq!(bits(new.terms.iter().copied()), bits(old.terms()));

            let n_phys = n + extra;
            let map = injective_map(n, n_phys, layout_seed);
            let mut new = SparseState::zero(n_phys).unwrap().with_max_terms(budget);
            let mut old = MapState::zero(n_phys, budget);
            prop_assert_eq!(
                new.apply_circuit_mapped(&circuit, &map),
                old.apply_circuit_mapped(&circuit, &map)
            );
            prop_assert_eq!(bits(new.terms.iter().copied()), bits(old.terms()));

            // A routed stand-in: SWAPs move the logical qubits, then the
            // circuit runs through the layout they leave.
            let mut compiled = Circuit::new(n_phys);
            let mut layout = map.clone();
            let mut rng = SplitMix64::new(layout_seed ^ 0x5eed);
            for _ in 0..3 {
                let (a, b) = (layout[0], (rng.next_u64() % n_phys as u64) as usize);
                if a != b {
                    compiled.swap(a, b);
                    for p in &mut layout {
                        if *p == a {
                            *p = b;
                        } else if *p == b {
                            *p = a;
                        }
                    }
                }
            }
            compiled.append(&circuit.remapped(n_phys, &layout).unwrap());
            match tamper {
                0 => {
                    compiled.t(layout[n - 1]);
                }
                1 => {
                    compiled.cx(layout[0], layout[1]);
                }
                _ => {}
            }
            let sim = SparseSimulator::with_max_terms(budget);
            let seed = layout_seed % 1000;
            prop_assert_eq!(
                sim.compiled_equivalent(&circuit, &compiled, &map, &layout, 2, seed),
                reference::compiled_equivalent(&sim, &circuit, &compiled, &map, &layout, 2, seed)
            );
        }
    }
}
