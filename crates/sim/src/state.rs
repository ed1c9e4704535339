//! Dense statevector simulation.

use crate::{single_qubit_matrix, SimError, C64};
use std::ops::Range;
use trios_ir::{Circuit, Gate, Instruction};

/// Hard cap on dense-simulation width (2²⁴ amplitudes ≈ 268 MB).
pub const MAX_QUBITS: usize = 24;

/// Amplitude count above which the auto thread policy goes parallel.
///
/// Below this the per-gate work is far smaller than the cost of spawning
/// scoped worker threads, so the kernels stay single-threaded.
const PARALLEL_THRESHOLD: usize = 1 << 17;

/// A dense statevector over `n` qubits.
///
/// Qubit `q` corresponds to bit `q` of the basis index, so basis state
/// `|b_{n-1} … b_1 b_0⟩` lives at index `Σ b_q · 2^q`.
///
/// The simulator exists to *verify* the compiler: every decomposition and
/// every routed circuit in this workspace is checked against the original
/// program's statevector. It is not meant to compete with production
/// simulators, but it comfortably handles the paper's 20-qubit benchmarks.
///
/// # Kernels
///
/// Gate application walks the affected amplitude tuples directly with
/// bit-stride ("insert zero bit") index construction — a 1-qubit gate
/// visits exactly `2^(n-1)` pairs, a CX exactly `2^(n-2)`, a Toffoli
/// exactly `2^(n-3)` — instead of scanning all `2^n` indices and
/// branching away the non-participants. Above [`PARALLEL_THRESHOLD`]
/// amplitudes the tuple range is split across scoped worker threads
/// ([`State::set_threads`] pins the count); every tuple is computed by
/// the same floating-point expression regardless of the split, so
/// results are **byte-identical across thread counts**.
///
/// # Examples
///
/// ```
/// use trios_ir::Circuit;
/// use trios_sim::State;
///
/// // A Toffoli flips the target only when both controls are set.
/// let mut c = Circuit::new(3);
/// c.x(0).x(1).ccx(0, 1, 2);
/// let state = State::run(&c).unwrap();
/// assert!((state.probability(0b111) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct State {
    num_qubits: usize,
    amps: Vec<C64>,
    /// Worker threads for the kernels: `0` = automatic (parallel only
    /// above [`PARALLEL_THRESHOLD`]). Not part of the state's value —
    /// `PartialEq` ignores it.
    threads: usize,
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.num_qubits == other.num_qubits && self.amps == other.amps
    }
}

impl State {
    /// The all-zeros computational basis state `|0…0⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] above [`MAX_QUBITS`].
    pub fn zero(num_qubits: usize) -> Result<Self, SimError> {
        Self::basis(num_qubits, 0)
    }

    /// The computational basis state with the given index.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] above [`MAX_QUBITS`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^num_qubits`.
    pub fn basis(num_qubits: usize, index: usize) -> Result<Self, SimError> {
        if num_qubits > MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: num_qubits,
                max: MAX_QUBITS,
            });
        }
        let dim = 1usize << num_qubits;
        assert!(
            index < dim,
            "basis index {index} out of range for {num_qubits} qubits"
        );
        let mut amps = vec![C64::ZERO; dim];
        amps[index] = C64::ONE;
        Ok(State {
            num_qubits,
            amps,
            threads: 0,
        })
    }

    /// A deterministic pseudo-random state (uniform amplitudes, normalized),
    /// seeded so tests are reproducible.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] above [`MAX_QUBITS`].
    pub fn random(num_qubits: usize, seed: u64) -> Result<Self, SimError> {
        if num_qubits > MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: num_qubits,
                max: MAX_QUBITS,
            });
        }
        let dim = 1usize << num_qubits;
        let mut rng = SplitMix64::new(seed);
        let mut amps = Vec::with_capacity(dim);
        for _ in 0..dim {
            amps.push(C64::new(rng.next_unit() - 0.5, rng.next_unit() - 0.5));
        }
        let mut state = State {
            num_qubits,
            amps,
            threads: 0,
        };
        state.normalize();
        Ok(state)
    }

    /// Builds a state from raw amplitudes (length must be a power of two).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WidthMismatch`] if the length is not a power of
    /// two, or [`SimError::TooManyQubits`] if it is too large.
    pub fn from_amplitudes(amps: Vec<C64>) -> Result<Self, SimError> {
        if !amps.len().is_power_of_two() {
            return Err(SimError::WidthMismatch {
                expected: amps.len().next_power_of_two(),
                actual: amps.len(),
            });
        }
        let num_qubits = amps.len().trailing_zeros() as usize;
        if num_qubits > MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: num_qubits,
                max: MAX_QUBITS,
            });
        }
        Ok(State {
            num_qubits,
            amps,
            threads: 0,
        })
    }

    /// Runs `circuit` on `|0…0⟩`. Measurements are skipped (the success
    /// model accounts for readout separately).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] for circuits above [`MAX_QUBITS`].
    pub fn run(circuit: &Circuit) -> Result<Self, SimError> {
        let mut state = State::zero(circuit.num_qubits())?;
        state.apply_circuit(circuit)?;
        Ok(state)
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Pins the kernel worker-thread count: `0` restores the automatic
    /// policy (single-threaded below [`PARALLEL_THRESHOLD`] amplitudes,
    /// one worker per available core above it). Results are byte-identical
    /// for every setting; this knob exists for benchmarks and tests.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// The raw amplitudes (little-endian qubit order).
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// The ℓ² norm (1 for any valid quantum state).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Rescales to unit norm.
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            for a in &mut self.amps {
                *a = a.scale(1.0 / n);
            }
        }
    }

    /// Applies all unitary instructions of `circuit`, skipping measurements.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WidthMismatch`] if the circuit is wider than the
    /// state.
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

    /// [`State::apply_circuit`] with single-qubit gate fusion: each maximal
    /// run of *consecutive* single-qubit gates on one qubit is multiplied
    /// into a single 2×2 matrix and applied with one kernel sweep.
    ///
    /// The result is the same unitary, so amplitudes agree with the unfused
    /// path to floating-point re-association error (≪ 1e-12) — the
    /// equivalence checkers use this path; callers that need the exact
    /// legacy gate-by-gate arithmetic use [`State::apply_circuit`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WidthMismatch`] if the circuit is wider than the
    /// state.
    pub fn apply_circuit_fused(&mut self, circuit: &Circuit) -> Result<(), SimError> {
        if circuit.num_qubits() > self.num_qubits {
            return Err(SimError::WidthMismatch {
                expected: self.num_qubits,
                actual: circuit.num_qubits(),
            });
        }
        let instrs = circuit.instructions();
        let mut i = 0;
        while i < instrs.len() {
            let instr = &instrs[i];
            let gate = instr.gate();
            if gate.is_measurement() {
                i += 1;
                continue;
            }
            if gate.is_single_qubit() {
                if let Some(mut m) = single_qubit_matrix(gate) {
                    let q = instr.qubit(0).index();
                    self.check_operands(instr);
                    let mut j = i + 1;
                    while j < instrs.len() {
                        let next = instrs[j].gate();
                        if !next.is_single_qubit()
                            || next.is_measurement()
                            || instrs[j].qubit(0).index() != q
                        {
                            break;
                        }
                        match single_qubit_matrix(next) {
                            Some(n) => m = crate::mat2_mul(&n, &m),
                            None => break,
                        }
                        j += 1;
                    }
                    self.apply_1q(q, &m);
                    i = j;
                    continue;
                }
            }
            self.try_apply(instr)?;
            i += 1;
        }
        Ok(())
    }

    /// Applies one unitary instruction.
    ///
    /// # Errors
    ///
    /// [`SimError::UnsupportedGate`] for measurements and any gate
    /// without a unitary action on this backend.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range qubits. The bounds check is unconditional
    /// (not a `debug_assert`): in a release build a qubit index ≥ 64
    /// would otherwise wrap through the shift (`1usize << q` masks `q` on
    /// x86/ARM) and silently corrupt the amplitudes of a *different*
    /// qubit.
    pub fn try_apply(&mut self, instr: &Instruction) -> Result<(), SimError> {
        self.check_operands(instr);
        let qs = instr.qubits();
        match instr.gate() {
            Gate::Measure => {
                return Err(SimError::UnsupportedGate {
                    gate: instr.gate().to_string(),
                    backend: "dense",
                })
            }
            Gate::I => {}
            Gate::X => self.apply_x(qs[0].index()),
            Gate::Z => self.apply_phase_1q(qs[0].index(), -C64::ONE),
            Gate::S => self.apply_phase_1q(qs[0].index(), C64::I),
            Gate::Sdg => self.apply_phase_1q(qs[0].index(), -C64::I),
            Gate::T => self.apply_phase_1q(qs[0].index(), C64::cis(std::f64::consts::FRAC_PI_4)),
            Gate::Tdg => self.apply_phase_1q(qs[0].index(), C64::cis(-std::f64::consts::FRAC_PI_4)),
            Gate::U1(l) => self.apply_phase_1q(qs[0].index(), C64::cis(l)),
            Gate::Cx => self.apply_cx(qs[0].index(), qs[1].index()),
            Gate::Cz => self.apply_cphase(qs[0].index(), qs[1].index(), -C64::ONE),
            Gate::Cp(l) => self.apply_cphase(qs[0].index(), qs[1].index(), C64::cis(l)),
            Gate::Swap => self.apply_swap(qs[0].index(), qs[1].index()),
            Gate::Ccx => self.apply_ccx(qs[0].index(), qs[1].index(), qs[2].index()),
            Gate::Ccz => self.apply_ccz(qs[0].index(), qs[1].index(), qs[2].index()),
            Gate::Cswap => self.apply_cswap(qs[0].index(), qs[1].index(), qs[2].index()),
            Gate::Cxpow(t) => {
                let m = crate::xpow_matrix(t);
                self.apply_controlled_1q(qs[0].index(), qs[1].index(), &m);
            }
            g => match single_qubit_matrix(g) {
                Some(m) => self.apply_1q(qs[0].index(), &m),
                None => {
                    return Err(SimError::UnsupportedGate {
                        gate: g.to_string(),
                        backend: "dense",
                    })
                }
            },
        }
        Ok(())
    }

    /// The uniform operand guard every kernel entry point runs.
    fn check_operands(&self, instr: &Instruction) {
        for q in instr.qubits() {
            let idx = q.index();
            assert!(
                idx < self.num_qubits,
                "qubit {idx} out of range for a {}-qubit state (gate {})",
                self.num_qubits,
                instr.gate()
            );
        }
    }

    /// Worker count for a kernel visiting `count` amplitude tuples.
    fn kernel_threads(&self, count: usize) -> usize {
        if count < 2 {
            return 1;
        }
        let threads = if self.threads != 0 {
            self.threads
        } else if self.amps.len() >= PARALLEL_THRESHOLD {
            available_threads()
        } else {
            1
        };
        threads.clamp(1, count)
    }

    fn apply_1q(&mut self, q: usize, m: &crate::Mat2) {
        let mask = 1usize << q;
        let count = self.amps.len() / 2;
        let threads = self.kernel_threads(count);
        let ptr = AmpPtr(self.amps.as_mut_ptr());
        let m = *m;
        let kernel = move |range: Range<usize>| {
            let p = ptr.get();
            for k in range {
                let i = insert_zero(k, mask);
                let j = i | mask;
                // SAFETY: `insert_zero` maps distinct `k < 2^(n-1)` to
                // disjoint in-range pairs `(i, j)`, and ranges never
                // overlap, so no two iterations alias.
                unsafe {
                    let a0 = *p.add(i);
                    let a1 = *p.add(j);
                    *p.add(i) = m[0][0] * a0 + m[0][1] * a1;
                    *p.add(j) = m[1][0] * a0 + m[1][1] * a1;
                }
            }
        };
        run_ranges(count, threads, &kernel);
    }

    fn apply_x(&mut self, q: usize) {
        let mask = 1usize << q;
        let count = self.amps.len() / 2;
        let threads = self.kernel_threads(count);
        let ptr = AmpPtr(self.amps.as_mut_ptr());
        let kernel = move |range: Range<usize>| {
            let p = ptr.get();
            for k in range {
                let i = insert_zero(k, mask);
                // SAFETY: disjoint in-range pairs, as in `apply_1q`.
                unsafe { std::ptr::swap(p.add(i), p.add(i | mask)) };
            }
        };
        run_ranges(count, threads, &kernel);
    }

    fn apply_phase_1q(&mut self, q: usize, phase: C64) {
        let mask = 1usize << q;
        let count = self.amps.len() / 2;
        let threads = self.kernel_threads(count);
        let ptr = AmpPtr(self.amps.as_mut_ptr());
        let kernel = move |range: Range<usize>| {
            let p = ptr.get();
            for k in range {
                let i = insert_zero(k, mask) | mask;
                // SAFETY: distinct `k` give distinct in-range `i`.
                unsafe { *p.add(i) *= phase };
            }
        };
        run_ranges(count, threads, &kernel);
    }

    fn apply_cx(&mut self, c: usize, t: usize) {
        let (cm, tm) = (1usize << c, 1usize << t);
        let (lo, hi) = (cm.min(tm), cm.max(tm));
        let count = self.amps.len() / 4;
        let threads = self.kernel_threads(count);
        let ptr = AmpPtr(self.amps.as_mut_ptr());
        let kernel = move |range: Range<usize>| {
            let p = ptr.get();
            for k in range {
                let base = insert_zero(insert_zero(k, lo), hi) | cm;
                // SAFETY: disjoint in-range pairs (control set, target
                // clear vs. set).
                unsafe { std::ptr::swap(p.add(base), p.add(base | tm)) };
            }
        };
        run_ranges(count, threads, &kernel);
    }

    fn apply_cphase(&mut self, a: usize, b: usize, phase: C64) {
        let (am, bm) = (1usize << a, 1usize << b);
        let (lo, hi) = (am.min(bm), am.max(bm));
        let count = self.amps.len() / 4;
        let threads = self.kernel_threads(count);
        let ptr = AmpPtr(self.amps.as_mut_ptr());
        let kernel = move |range: Range<usize>| {
            let p = ptr.get();
            for k in range {
                let i = insert_zero(insert_zero(k, lo), hi) | am | bm;
                // SAFETY: distinct `k` give distinct in-range `i`.
                unsafe { *p.add(i) *= phase };
            }
        };
        run_ranges(count, threads, &kernel);
    }

    fn apply_swap(&mut self, a: usize, b: usize) {
        let (am, bm) = (1usize << a, 1usize << b);
        let (lo, hi) = (am.min(bm), am.max(bm));
        let count = self.amps.len() / 4;
        let threads = self.kernel_threads(count);
        let ptr = AmpPtr(self.amps.as_mut_ptr());
        let kernel = move |range: Range<usize>| {
            let p = ptr.get();
            for k in range {
                let i0 = insert_zero(insert_zero(k, lo), hi);
                // SAFETY: disjoint in-range pairs (`|01⟩` vs. `|10⟩` on
                // the swapped bits).
                unsafe { std::ptr::swap(p.add(i0 | am), p.add(i0 | bm)) };
            }
        };
        run_ranges(count, threads, &kernel);
    }

    fn apply_ccx(&mut self, c1: usize, c2: usize, t: usize) {
        let (c1m, c2m, tm) = (1usize << c1, 1usize << c2, 1usize << t);
        let [m0, m1, m2] = sorted3(c1m, c2m, tm);
        let count = self.amps.len() / 8;
        let threads = self.kernel_threads(count);
        let ptr = AmpPtr(self.amps.as_mut_ptr());
        let kernel = move |range: Range<usize>| {
            let p = ptr.get();
            for k in range {
                let base = insert_zero(insert_zero(insert_zero(k, m0), m1), m2) | c1m | c2m;
                // SAFETY: disjoint in-range pairs (controls set, target
                // clear vs. set).
                unsafe { std::ptr::swap(p.add(base), p.add(base | tm)) };
            }
        };
        run_ranges(count, threads, &kernel);
    }

    fn apply_ccz(&mut self, a: usize, b: usize, c: usize) {
        let (am, bm, cm) = (1usize << a, 1usize << b, 1usize << c);
        let [m0, m1, m2] = sorted3(am, bm, cm);
        let count = self.amps.len() / 8;
        let threads = self.kernel_threads(count);
        let ptr = AmpPtr(self.amps.as_mut_ptr());
        let kernel = move |range: Range<usize>| {
            let p = ptr.get();
            for k in range {
                let i = insert_zero(insert_zero(insert_zero(k, m0), m1), m2) | am | bm | cm;
                // SAFETY: distinct `k` give distinct in-range `i`.
                unsafe { *p.add(i) = -*p.add(i) };
            }
        };
        run_ranges(count, threads, &kernel);
    }

    fn apply_cswap(&mut self, c: usize, a: usize, b: usize) {
        let (cm, am, bm) = (1usize << c, 1usize << a, 1usize << b);
        let [m0, m1, m2] = sorted3(cm, am, bm);
        let count = self.amps.len() / 8;
        let threads = self.kernel_threads(count);
        let ptr = AmpPtr(self.amps.as_mut_ptr());
        let kernel = move |range: Range<usize>| {
            let p = ptr.get();
            for k in range {
                let i0 = insert_zero(insert_zero(insert_zero(k, m0), m1), m2) | cm;
                // SAFETY: disjoint in-range pairs, as in `apply_swap`.
                unsafe { std::ptr::swap(p.add(i0 | am), p.add(i0 | bm)) };
            }
        };
        run_ranges(count, threads, &kernel);
    }

    fn apply_controlled_1q(&mut self, c: usize, t: usize, m: &crate::Mat2) {
        let (cm, tm) = (1usize << c, 1usize << t);
        let (lo, hi) = (cm.min(tm), cm.max(tm));
        let count = self.amps.len() / 4;
        let threads = self.kernel_threads(count);
        let ptr = AmpPtr(self.amps.as_mut_ptr());
        let m = *m;
        let kernel = move |range: Range<usize>| {
            let p = ptr.get();
            for k in range {
                let i = insert_zero(insert_zero(k, lo), hi) | cm;
                let j = i | tm;
                // SAFETY: disjoint in-range pairs, as in `apply_cx`.
                unsafe {
                    let a0 = *p.add(i);
                    let a1 = *p.add(j);
                    *p.add(i) = m[0][0] * a0 + m[0][1] * a1;
                    *p.add(j) = m[1][0] * a0 + m[1][1] * a1;
                }
            }
        };
        run_ranges(count, threads, &kernel);
    }

    /// Probability of measuring the full register in basis state `outcome`.
    pub fn probability(&self, outcome: usize) -> f64 {
        self.amps[outcome].norm_sqr()
    }

    /// Probability of observing `value` on the listed `qubits` (bit `k` of
    /// `value` is the outcome of `qubits[k]`), marginalizing the rest.
    pub fn marginal_probability(&self, qubits: &[usize], value: usize) -> f64 {
        let mut total = 0.0;
        'outer: for (i, amp) in self.amps.iter().enumerate() {
            for (k, &q) in qubits.iter().enumerate() {
                if (i >> q) & 1 != (value >> k) & 1 {
                    continue 'outer;
                }
            }
            total += amp.norm_sqr();
        }
        total
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn inner(&self, other: &State) -> C64 {
        assert_eq!(self.num_qubits, other.num_qubits, "state widths differ");
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &State) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Samples `shots` full-register measurement outcomes, returning
    /// outcome → count. Deterministic per seed (SplitMix64 inversion
    /// sampling over the cumulative distribution), so tests and examples
    /// are reproducible — the statevector is *not* collapsed.
    ///
    /// This is the simulator-side analogue of the paper's experimental
    /// procedure ("each experiment is performed with 8192 trials", §5.1).
    pub fn sample_counts(
        &self,
        shots: usize,
        seed: u64,
    ) -> std::collections::HashMap<usize, usize> {
        let mut rng = SplitMix64::new(seed);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..shots {
            let mut r = rng.next_unit() * self.norm().powi(2);
            let mut outcome = self.amps.len() - 1;
            for (i, amp) in self.amps.iter().enumerate() {
                r -= amp.norm_sqr();
                if r <= 0.0 {
                    outcome = i;
                    break;
                }
            }
            *counts.entry(outcome).or_insert(0) += 1;
        }
        counts
    }

    /// Total variation distance between this state's outcome distribution
    /// and an empirical `counts` histogram over `shots` samples — how far
    /// sampled results sit from the ideal distribution, in `[0, 1]`.
    pub fn total_variation_distance(
        &self,
        counts: &std::collections::HashMap<usize, usize>,
        shots: usize,
    ) -> f64 {
        let mut tvd = 0.0;
        for (i, amp) in self.amps.iter().enumerate() {
            let empirical = counts.get(&i).copied().unwrap_or(0) as f64 / shots as f64;
            tvd += (amp.norm_sqr() - empirical).abs();
        }
        tvd / 2.0
    }

    /// `true` if the states are equal up to a global phase: every amplitude
    /// pair satisfies `|a_i − e^{iα} b_i| < eps` for one shared α.
    pub fn approx_eq_up_to_phase(&self, other: &State, eps: f64) -> bool {
        if self.num_qubits != other.num_qubits {
            return false;
        }
        // Fix the phase from the largest amplitude of `other`.
        let (mut k, mut best) = (0usize, 0.0f64);
        for (i, a) in other.amps.iter().enumerate() {
            let m = a.norm_sqr();
            if m > best {
                best = m;
                k = i;
            }
        }
        if best == 0.0 {
            return self.amps.iter().all(|a| a.abs() < eps);
        }
        let phase = self.amps[k] / other.amps[k];
        if (phase.abs() - 1.0).abs() > eps {
            return false;
        }
        self.amps
            .iter()
            .zip(&other.amps)
            .all(|(a, b)| a.approx_eq(*b * phase, eps))
    }
}

/// Inserts a zero bit at the position marked by `mask` (a single set bit):
/// the bits of `k` below the position stay put, the rest shift up one.
/// Applying it for each of a gate's qubit masks in ascending order
/// enumerates exactly the basis indices with zeros on those qubits.
#[inline(always)]
fn insert_zero(k: usize, mask: usize) -> usize {
    let low = k & (mask - 1);
    ((k ^ low) << 1) | low
}

/// Three single-bit masks in ascending order.
#[inline(always)]
fn sorted3(a: usize, b: usize, c: usize) -> [usize; 3] {
    let mut m = [a, b, c];
    m.sort_unstable();
    m
}

/// Raw amplitude pointer that scoped kernel workers share. Safe because
/// every kernel partitions the tuple index range disjointly and each tuple
/// touches amplitudes no other tuple does.
#[derive(Clone, Copy)]
struct AmpPtr(*mut C64);

unsafe impl Send for AmpPtr {}
unsafe impl Sync for AmpPtr {}

impl AmpPtr {
    /// Accessor (rather than direct field use) so `move` closures capture
    /// the `Sync` wrapper, not the raw pointer field.
    fn get(self) -> *mut C64 {
        self.0
    }
}

/// Splits `0..count` into `threads` contiguous ranges and runs `kernel`
/// on each, on scoped worker threads when `threads > 1`.
fn run_ranges(count: usize, threads: usize, kernel: &(dyn Fn(Range<usize>) + Sync)) {
    if threads <= 1 || count == 0 {
        kernel(0..count);
        return;
    }
    let chunk = count.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut start = 0usize;
        while start < count {
            let end = (start + chunk).min(count);
            scope.spawn(move || kernel(start..end));
            start = end;
        }
    });
}

/// One worker per available core (cached; 1 if the count is unknown).
fn available_threads() -> usize {
    use std::sync::OnceLock;
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// SplitMix64: tiny deterministic PRNG for reproducible random states
/// without an external dependency.
#[derive(Debug)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_state_is_basis_zero() {
        let s = State::zero(3).unwrap();
        assert!((s.probability(0) - 1.0).abs() < 1e-15);
        assert!((s.norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn measurement_bearing_circuits_error_structurally_not_by_panic() {
        use crate::{DenseSimulator, Simulator};
        let mut c = Circuit::new(2);
        c.h(0).measure(0).cx(0, 1);
        // The dense backend replays only the unitary part; the embedded
        // measurement must not abort the check.
        let sim = DenseSimulator::default();
        assert!(sim.circuits_equivalent(&c, &c, 2, 1).unwrap());
        // Feeding the measurement directly is a structured error, not a
        // panic.
        let measure = c.iter().find(|i| i.gate().is_measurement()).unwrap();
        let mut state = State::zero(2).unwrap();
        assert!(matches!(
            state.try_apply(measure),
            Err(SimError::UnsupportedGate {
                backend: "dense",
                ..
            })
        ));
    }

    #[test]
    fn too_many_qubits_is_an_error() {
        assert!(matches!(
            State::zero(MAX_QUBITS + 1),
            Err(SimError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn x_flips_basis() {
        let mut c = Circuit::new(2);
        c.x(1);
        let s = State::run(&c).unwrap();
        assert!((s.probability(0b10) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn h_creates_uniform_superposition() {
        let mut c = Circuit::new(1);
        c.h(0);
        let s = State::run(&c).unwrap();
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
        assert!((s.probability(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bell_state() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let s = State::run(&c).unwrap();
        assert!((s.probability(0b00) - 0.5).abs() < 1e-12);
        assert!((s.probability(0b11) - 0.5).abs() < 1e-12);
        assert!(s.probability(0b01) < 1e-12);
    }

    #[test]
    fn toffoli_truth_table() {
        for input in 0..8usize {
            let mut c = Circuit::new(3);
            for q in 0..3 {
                if (input >> q) & 1 == 1 {
                    c.x(q);
                }
            }
            c.ccx(0, 1, 2);
            let s = State::run(&c).unwrap();
            let expected = if input & 0b11 == 0b11 {
                input ^ 0b100
            } else {
                input
            };
            assert!(
                (s.probability(expected) - 1.0).abs() < 1e-12,
                "input {input:03b} should map to {expected:03b}"
            );
        }
    }

    #[test]
    fn swap_exchanges_amplitudes() {
        let mut c = Circuit::new(2);
        c.x(0).swap(0, 1);
        let s = State::run(&c).unwrap();
        assert!((s.probability(0b10) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn swap_equals_three_cx() {
        let mut a = Circuit::new(2);
        a.h(0).t(1).swap(0, 1);
        let mut b = Circuit::new(2);
        b.h(0).t(1).cx(0, 1).cx(1, 0).cx(0, 1);
        let sa = State::run(&a).unwrap();
        let sb = State::run(&b).unwrap();
        assert!(sa.approx_eq_up_to_phase(&sb, 1e-10));
    }

    #[test]
    fn cz_is_symmetric() {
        for (a, b) in [(0usize, 1usize), (1, 0)] {
            let mut c = Circuit::new(2);
            c.h(0).h(1);
            c.cz(a, b);
            let s = State::run(&c).unwrap();
            // |11⟩ amplitude should be negated: ⟨ψ| = (1,1,1,-1)/2.
            assert!(s.amplitudes()[3].approx_eq(C64::real(-0.5), 1e-12));
        }
    }

    #[test]
    fn cp_applies_phase_only_on_11() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cp(std::f64::consts::FRAC_PI_2, 0, 1);
        let s = State::run(&c).unwrap();
        assert!(s.amplitudes()[3].approx_eq(C64::new(0.0, 0.5), 1e-12));
        assert!(s.amplitudes()[1].approx_eq(C64::real(0.5), 1e-12));
    }

    #[test]
    fn cxpow_half_twice_equals_cx() {
        let mut a = Circuit::new(2);
        a.h(0).h(1).cxpow(0.5, 0, 1).cxpow(0.5, 0, 1);
        let mut b = Circuit::new(2);
        b.h(0).h(1).cx(0, 1);
        assert!(State::run(&a)
            .unwrap()
            .approx_eq_up_to_phase(&State::run(&b).unwrap(), 1e-10));
    }

    #[test]
    fn measurement_is_skipped_by_run() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0);
        assert!(State::run(&c).is_ok());
    }

    #[test]
    fn marginal_probability_sums_partial_outcomes() {
        let mut c = Circuit::new(3);
        c.h(0).x(2);
        let s = State::run(&c).unwrap();
        // Qubit 2 is |1⟩ regardless of qubit 0.
        assert!((s.marginal_probability(&[2], 1) - 1.0).abs() < 1e-12);
        assert!((s.marginal_probability(&[0], 1) - 0.5).abs() < 1e-12);
        assert!((s.marginal_probability(&[0, 2], 0b11) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn random_state_is_normalized_and_deterministic() {
        let a = State::random(5, 42).unwrap();
        let b = State::random(5, 42).unwrap();
        let c = State::random(5, 43).unwrap();
        assert!((a.norm() - 1.0).abs() < 1e-12);
        assert_eq!(a, b);
        assert!(a.fidelity(&c) < 0.99);
    }

    #[test]
    fn global_phase_comparison() {
        let a = State::random(4, 7).unwrap();
        let mut b = a.clone();
        for amp in &mut b.amps {
            *amp *= C64::cis(1.234);
        }
        assert!(a.approx_eq_up_to_phase(&b, 1e-10));
        assert_ne!(a, b);
    }

    #[test]
    fn rz_vs_u1_differ_by_global_phase_only() {
        let mut a = Circuit::new(1);
        a.h(0).rz(0.7, 0);
        let mut b = Circuit::new(1);
        b.h(0).u1(0.7, 0);
        assert!(State::run(&a)
            .unwrap()
            .approx_eq_up_to_phase(&State::run(&b).unwrap(), 1e-10));
    }

    #[test]
    fn from_amplitudes_validates_length() {
        assert!(State::from_amplitudes(vec![C64::ONE; 3]).is_err());
        assert!(State::from_amplitudes(vec![C64::ONE, C64::ZERO]).is_ok());
    }

    #[test]
    fn sampling_matches_distribution() {
        // |+⟩|0⟩: outcomes 0b00 and 0b01 each with probability 1/2.
        let mut c = Circuit::new(2);
        c.h(0);
        let state = State::run(&c).unwrap();
        let shots = 10_000;
        let counts = state.sample_counts(shots, 7);
        let zero = *counts.get(&0b00).unwrap_or(&0) as f64 / shots as f64;
        let one = *counts.get(&0b01).unwrap_or(&0) as f64 / shots as f64;
        assert!((zero - 0.5).abs() < 0.02, "P(00) = {zero}");
        assert!((one - 0.5).abs() < 0.02, "P(01) = {one}");
        assert_eq!(counts.values().sum::<usize>(), shots);
        assert!(state.total_variation_distance(&counts, shots) < 0.02);
    }

    #[test]
    fn sampling_is_seeded() {
        let state = State::random(3, 4).unwrap();
        assert_eq!(state.sample_counts(100, 1), state.sample_counts(100, 1));
        assert_ne!(state.sample_counts(100, 1), state.sample_counts(100, 2));
    }

    #[test]
    fn sampling_basis_state_is_deterministic() {
        let state = State::basis(3, 0b101).unwrap();
        let counts = state.sample_counts(50, 9);
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[&0b101], 50);
        assert_eq!(state.total_variation_distance(&counts, 50), 0.0);
    }

    #[test]
    fn tvd_detects_wrong_histogram() {
        let state = State::basis(2, 0).unwrap();
        let mut wrong = std::collections::HashMap::new();
        wrong.insert(0b11usize, 100usize);
        assert!((state.total_variation_distance(&wrong, 100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ccz_flips_phase_only_on_all_ones() {
        // CCZ = diag(1,…,1,−1): the |111⟩ amplitude negates, all others
        // (and all probabilities) are untouched.
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2).ccz(0, 1, 2);
        let state = State::run(&c).unwrap();
        let uniform = (1.0f64 / 8.0).sqrt();
        for k in 0..8 {
            let expected = if k == 0b111 { -uniform } else { uniform };
            assert!(
                (state.amplitudes()[k].re - expected).abs() < 1e-12,
                "basis {k}"
            );
            assert!(state.amplitudes()[k].im.abs() < 1e-12);
        }
    }

    #[test]
    fn ccz_matches_h_conjugated_ccx() {
        let mut a = Circuit::new(3);
        a.h(0).h(1).h(2).ccz(0, 1, 2);
        let mut b = Circuit::new(3);
        b.h(0).h(1).h(2).h(2).ccx(0, 1, 2).h(2);
        assert!(State::run(&a)
            .unwrap()
            .approx_eq_up_to_phase(&State::run(&b).unwrap(), 1e-10));
    }

    #[test]
    fn cswap_exchanges_targets_when_control_set() {
        // |1⟩|1⟩|0⟩ → |1⟩|0⟩|1⟩ (control q0, swapped pair q1/q2).
        let mut c = Circuit::new(3);
        c.x(0).x(1).cswap(0, 1, 2);
        let state = State::run(&c).unwrap();
        assert!((state.probability(0b101) - 1.0).abs() < 1e-12);
        // Control clear: nothing moves.
        let mut c = Circuit::new(3);
        c.x(1).cswap(0, 1, 2);
        let state = State::run(&c).unwrap();
        assert!((state.probability(0b010) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cswap_matches_three_toffolis() {
        // CSWAP(c;a,b) = CCX(c,a,b)·CCX(c,b,a)·CCX(c,a,b).
        let mut a = Circuit::new(3);
        a.h(0).h(1).t(2).cswap(0, 1, 2);
        let mut b = Circuit::new(3);
        b.h(0).h(1).t(2).ccx(0, 1, 2).ccx(0, 2, 1).ccx(0, 1, 2);
        assert!(State::run(&a)
            .unwrap()
            .approx_eq_up_to_phase(&State::run(&b).unwrap(), 1e-10));
    }

    #[test]
    fn insert_zero_enumerates_cleared_bit_indices() {
        // For a 4-bit space and mask 0b0100, k = 0..8 must enumerate, in
        // order, exactly the indices with bit 2 clear.
        let expect: Vec<usize> = (0..16).filter(|i| i & 0b100 == 0).collect();
        let got: Vec<usize> = (0..8).map(|k| insert_zero(k, 0b100)).collect();
        assert_eq!(got, expect);
    }

    /// The seed-era kernels: full-index scans that branch away the
    /// non-participating amplitudes. The new stride kernels must match
    /// them **bitwise** — same expressions per amplitude tuple, just
    /// without the scan — which this module pins for every gate kind.
    mod naive {
        use super::super::*;

        pub fn apply_1q(amps: &mut [C64], q: usize, m: &crate::Mat2) {
            let mask = 1usize << q;
            for i in 0..amps.len() {
                if i & mask == 0 {
                    let j = i | mask;
                    let (a0, a1) = (amps[i], amps[j]);
                    amps[i] = m[0][0] * a0 + m[0][1] * a1;
                    amps[j] = m[1][0] * a0 + m[1][1] * a1;
                }
            }
        }

        pub fn apply_x(amps: &mut [C64], q: usize) {
            let mask = 1usize << q;
            for i in 0..amps.len() {
                if i & mask == 0 {
                    amps.swap(i, i | mask);
                }
            }
        }

        pub fn apply_phase_1q(amps: &mut [C64], q: usize, phase: C64) {
            let mask = 1usize << q;
            for (i, a) in amps.iter_mut().enumerate() {
                if i & mask != 0 {
                    *a *= phase;
                }
            }
        }

        pub fn apply_cx(amps: &mut [C64], c: usize, t: usize) {
            let (cm, tm) = (1usize << c, 1usize << t);
            for i in 0..amps.len() {
                if i & cm != 0 && i & tm == 0 {
                    amps.swap(i, i | tm);
                }
            }
        }

        pub fn apply_cphase(amps: &mut [C64], a: usize, b: usize, phase: C64) {
            let mask = (1usize << a) | (1usize << b);
            for (i, amp) in amps.iter_mut().enumerate() {
                if i & mask == mask {
                    *amp *= phase;
                }
            }
        }

        pub fn apply_swap(amps: &mut [C64], a: usize, b: usize) {
            let (am, bm) = (1usize << a, 1usize << b);
            for i in 0..amps.len() {
                if i & am != 0 && i & bm == 0 {
                    amps.swap(i, i ^ am ^ bm);
                }
            }
        }

        pub fn apply_ccx(amps: &mut [C64], c1: usize, c2: usize, t: usize) {
            let (c1m, c2m, tm) = (1usize << c1, 1usize << c2, 1usize << t);
            let cm = c1m | c2m;
            for i in 0..amps.len() {
                if i & cm == cm && i & tm == 0 {
                    amps.swap(i, i | tm);
                }
            }
        }

        pub fn apply_ccz(amps: &mut [C64], a: usize, b: usize, c: usize) {
            let mask = (1usize << a) | (1usize << b) | (1usize << c);
            for (i, amp) in amps.iter_mut().enumerate() {
                if i & mask == mask {
                    *amp = -*amp;
                }
            }
        }

        pub fn apply_cswap(amps: &mut [C64], c: usize, a: usize, b: usize) {
            let (cm, am, bm) = (1usize << c, 1usize << a, 1usize << b);
            for i in 0..amps.len() {
                if i & cm != 0 && i & am != 0 && i & bm == 0 {
                    amps.swap(i, i ^ am ^ bm);
                }
            }
        }

        pub fn apply_controlled_1q(amps: &mut [C64], c: usize, t: usize, m: &crate::Mat2) {
            let (cm, tm) = (1usize << c, 1usize << t);
            for i in 0..amps.len() {
                if i & cm != 0 && i & tm == 0 {
                    let j = i | tm;
                    let (a0, a1) = (amps[i], amps[j]);
                    amps[i] = m[0][0] * a0 + m[0][1] * a1;
                    amps[j] = m[1][0] * a0 + m[1][1] * a1;
                }
            }
        }
    }

    /// One instruction of every gate kind the dense simulator applies,
    /// on deliberately shuffled operands (high/low, adjacent, spread).
    fn all_kind_instructions() -> Vec<Instruction> {
        use trios_ir::Qubit;
        let q = Qubit::new;
        let i = Instruction::new;
        vec![
            i(Gate::H, &[q(3)]),
            i(Gate::X, &[q(5)]),
            i(Gate::Y, &[q(0)]),
            i(Gate::Z, &[q(4)]),
            i(Gate::S, &[q(1)]),
            i(Gate::Sdg, &[q(2)]),
            i(Gate::T, &[q(5)]),
            i(Gate::Tdg, &[q(0)]),
            i(Gate::Sx, &[q(3)]),
            i(Gate::Rx(0.3), &[q(2)]),
            i(Gate::Ry(0.7), &[q(4)]),
            i(Gate::Rz(1.1), &[q(1)]),
            i(Gate::U1(0.9), &[q(0)]),
            i(Gate::U2(0.2, 0.4), &[q(5)]),
            i(Gate::U3(0.3, 0.5, 0.7), &[q(2)]),
            i(Gate::Xpow(0.25), &[q(3)]),
            i(Gate::Cx, &[q(4), q(1)]),
            i(Gate::Cx, &[q(0), q(5)]),
            i(Gate::Cz, &[q(2), q(4)]),
            i(Gate::Cp(0.6), &[q(5), q(0)]),
            i(Gate::Swap, &[q(1), q(4)]),
            i(Gate::Cxpow(0.5), &[q(3), q(0)]),
            i(Gate::Ccx, &[q(5), q(0), q(3)]),
            i(Gate::Ccz, &[q(1), q(4), q(2)]),
            i(Gate::Cswap, &[q(2), q(5), q(1)]),
        ]
    }

    /// Applies `instr` to raw amplitudes with the seed-era scan kernels.
    fn naive_apply(amps: &mut [C64], instr: &Instruction) {
        let qs = instr.qubits();
        match instr.gate() {
            Gate::X => naive::apply_x(amps, qs[0].index()),
            Gate::Z => naive::apply_phase_1q(amps, qs[0].index(), -C64::ONE),
            Gate::S => naive::apply_phase_1q(amps, qs[0].index(), C64::I),
            Gate::Sdg => naive::apply_phase_1q(amps, qs[0].index(), -C64::I),
            Gate::T => {
                naive::apply_phase_1q(amps, qs[0].index(), C64::cis(std::f64::consts::FRAC_PI_4))
            }
            Gate::Tdg => {
                naive::apply_phase_1q(amps, qs[0].index(), C64::cis(-std::f64::consts::FRAC_PI_4))
            }
            Gate::U1(l) => naive::apply_phase_1q(amps, qs[0].index(), C64::cis(l)),
            Gate::Cx => naive::apply_cx(amps, qs[0].index(), qs[1].index()),
            Gate::Cz => naive::apply_cphase(amps, qs[0].index(), qs[1].index(), -C64::ONE),
            Gate::Cp(l) => naive::apply_cphase(amps, qs[0].index(), qs[1].index(), C64::cis(l)),
            Gate::Swap => naive::apply_swap(amps, qs[0].index(), qs[1].index()),
            Gate::Ccx => naive::apply_ccx(amps, qs[0].index(), qs[1].index(), qs[2].index()),
            Gate::Ccz => naive::apply_ccz(amps, qs[0].index(), qs[1].index(), qs[2].index()),
            Gate::Cswap => naive::apply_cswap(amps, qs[0].index(), qs[1].index(), qs[2].index()),
            Gate::Cxpow(t) => {
                let m = crate::xpow_matrix(t);
                naive::apply_controlled_1q(amps, qs[0].index(), qs[1].index(), &m);
            }
            g => {
                let m = single_qubit_matrix(g).expect("1q matrix");
                naive::apply_1q(amps, qs[0].index(), &m);
            }
        }
    }

    #[test]
    fn stride_kernels_match_naive_kernels_bitwise_for_every_gate_kind() {
        let mut state = State::random(6, 99).unwrap();
        let mut reference: Vec<C64> = state.amplitudes().to_vec();
        for instr in all_kind_instructions() {
            state.try_apply(&instr).unwrap();
            naive_apply(&mut reference, &instr);
            // Bitwise equality, not approximate: the stride kernels must
            // compute the identical floating-point expressions.
            assert_eq!(
                state.amplitudes(),
                &reference[..],
                "kernel diverged on {instr:?}"
            );
        }
    }

    #[test]
    fn kernels_are_byte_identical_across_thread_counts() {
        for threads in [2usize, 3, 5] {
            let mut serial = State::random(7, 1234).unwrap();
            serial.set_threads(1);
            let mut parallel = serial.clone();
            parallel.set_threads(threads);
            for instr in all_kind_instructions() {
                serial.try_apply(&instr).unwrap();
                parallel.try_apply(&instr).unwrap();
            }
            assert_eq!(
                serial.amplitudes(),
                parallel.amplitudes(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn fused_application_matches_unfused() {
        let mut c = Circuit::new(4);
        c.h(0).t(0).s(0).h(1).x(0).cx(0, 1).h(2).sdg(2).tdg(2);
        c.rz(0.4, 3)
            .rx(0.2, 3)
            .ccx(0, 1, 2)
            .h(3)
            .u3(0.1, 0.2, 0.3, 3);
        let mut unfused = State::random(4, 5).unwrap();
        let mut fused = unfused.clone();
        unfused.apply_circuit(&c).unwrap();
        fused.apply_circuit_fused(&c).unwrap();
        assert!(fused.approx_eq_up_to_phase(&unfused, 1e-12));
    }

    #[test]
    fn fused_application_skips_measurements() {
        let mut c = Circuit::new(2);
        c.h(0).measure(0).t(0).measure(1);
        let mut a = State::zero(2).unwrap();
        a.apply_circuit_fused(&c).unwrap();
        let mut b = State::zero(2).unwrap();
        b.apply_circuit(&c).unwrap();
        assert!(a.approx_eq_up_to_phase(&b, 1e-12));
    }

    #[test]
    fn out_of_range_qubit_panics_with_clear_message_in_every_build() {
        use trios_ir::Qubit;
        // q = 70 ≥ 64: without the explicit check the shift would wrap
        // and corrupt qubit 6 instead of panicking.
        let instr = Instruction::new(Gate::X, &[Qubit::new(70)]);
        let mut state = State::zero(3).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            state.try_apply(&instr).unwrap();
        }))
        .unwrap_err();
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            message.contains("qubit 70 out of range"),
            "panic message: {message}"
        );
    }

    #[test]
    fn out_of_range_qubit_panics_for_multi_qubit_kernels() {
        use trios_ir::Qubit;
        let mut state = State::zero(3).unwrap();
        for instr in [
            Instruction::new(Gate::Cx, &[Qubit::new(0), Qubit::new(3)]),
            Instruction::new(Gate::Ccx, &[Qubit::new(0), Qubit::new(1), Qubit::new(64)]),
            Instruction::new(Gate::Swap, &[Qubit::new(9), Qubit::new(1)]),
        ] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                state.try_apply(&instr).unwrap();
            }));
            assert!(result.is_err(), "{instr:?} must panic");
        }
    }
}
