//! CHP-style stabilizer tableau simulation (Aaronson–Gottesman).
//!
//! Dense statevectors stop at [`crate::MAX_QUBITS`]; a stabilizer tableau
//! simulates Clifford(+measurement) circuits in `O(n²)` memory and
//! `O(n)` per gate, so routed-vs-input equivalence of Clifford circuits is
//! checkable at full device size — the 20-qubit Johannesburg device of the
//! paper, or 127-qubit-class grids — instead of the 8-qubit wall.
//!
//! The tableau stores `2n` Pauli rows: rows `0..n` are destabilizers,
//! rows `n..2n` are stabilizers. Row `i` holds bitvectors `x`, `z` and a
//! sign bit `r`; qubit `q`'s tensor factor is `X` for `(x,z) = (1,0)`,
//! `Z` for `(0,1)`, `Y` for `(1,1)`, and the row's Pauli carries sign
//! `(-1)^r`.
//!
//! Single-qubit gates are *recognized*, not enumerated: any 1q unitary
//! whose conjugation maps `{X, Y, Z}` to `±{X, Y, Z}` is applied through
//! its Pauli images. This is what lets the backend digest optimizer
//! output, where runs of named Clifford gates have been merged into
//! single `u3` matrices.

use crate::equivalence::check_layout;
use crate::error::distinct_operands;
use crate::{mat2_adjoint, mat2_mul, single_qubit_matrix, Mat2, SimError, C64};
use trios_ir::{Circuit, Gate, Instruction};

/// How a single-qubit Clifford transforms one Pauli: the image is the
/// Pauli with the given `x`/`z` bits, negated when `neg` is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PauliImage {
    x: bool,
    z: bool,
    neg: bool,
}

/// The conjugation action of a 1q Clifford: images of `X`, `Z`, and `Y`
/// (in that order).
type CliffordAction = [PauliImage; 3];

const NEG_ONE: C64 = C64 { re: -1.0, im: 0.0 };
const NEG_I: C64 = C64 { re: 0.0, im: -1.0 };
const PAULI_X: Mat2 = [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]];
const PAULI_Z: Mat2 = [[C64::ONE, C64::ZERO], [C64::ZERO, NEG_ONE]];
const PAULI_Y: Mat2 = [[C64::ZERO, NEG_I], [C64::I, C64::ZERO]];

/// Matches `m` against `±X`, `±Y`, `±Z` (entrywise, within `eps`).
fn match_pauli(m: &Mat2, eps: f64) -> Option<PauliImage> {
    let candidates: [(Mat2, bool, bool); 3] = [
        (PAULI_X, true, false),
        (PAULI_Z, false, true),
        (PAULI_Y, true, true),
    ];
    for (p, x, z) in candidates {
        if crate::mat2_approx_eq(m, &p, eps) {
            return Some(PauliImage { x, z, neg: false });
        }
        let negated = [[-p[0][0], -p[0][1]], [-p[1][0], -p[1][1]]];
        if crate::mat2_approx_eq(m, &negated, eps) {
            return Some(PauliImage { x, z, neg: true });
        }
    }
    None
}

/// The Pauli images of `U·P·U†` for `P ∈ {X, Z, Y}`, or `None` if `U` is
/// not a Clifford (some image falls outside `±{X, Y, Z}`).
///
/// Global phase cancels in `U·P·U†`, so this recognizes Cliffords in any
/// phase convention — `rz(π/2)` and `s` act identically here.
fn clifford_action(u: &Mat2) -> Option<CliffordAction> {
    const EPS: f64 = 1e-8;
    let udg = mat2_adjoint(u);
    let image = |p: &Mat2| match_pauli(&mat2_mul(&mat2_mul(u, p), &udg), EPS);
    Some([image(&PAULI_X)?, image(&PAULI_Z)?, image(&PAULI_Y)?])
}

/// One Pauli row of the tableau: word-packed `x`/`z` bitvectors plus the
/// sign bit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Row {
    x: Vec<u64>,
    z: Vec<u64>,
    r: bool,
}

impl Row {
    fn zero(words: usize) -> Self {
        Row {
            x: vec![0; words],
            z: vec![0; words],
            r: false,
        }
    }

    #[inline]
    fn x_bit(&self, q: usize) -> bool {
        self.x[q / 64] >> (q % 64) & 1 == 1
    }

    #[inline]
    fn z_bit(&self, q: usize) -> bool {
        self.z[q / 64] >> (q % 64) & 1 == 1
    }

    #[inline]
    fn set_x(&mut self, q: usize, v: bool) {
        let (w, b) = (q / 64, q % 64);
        self.x[w] = (self.x[w] & !(1u64 << b)) | (u64::from(v) << b);
    }

    #[inline]
    fn set_z(&mut self, q: usize, v: bool) {
        let (w, b) = (q / 64, q % 64);
        self.z[w] = (self.z[w] & !(1u64 << b)) | (u64::from(v) << b);
    }

    #[cfg(test)]
    fn is_identity(&self) -> bool {
        self.x.iter().all(|&w| w == 0) && self.z.iter().all(|&w| w == 0)
    }
}

/// The Aaronson–Gottesman phase function for multiplying single-qubit
/// Pauli factors: the exponent of `i` contributed by `P₂ · P₁` where
/// `P₁ = (x1, z1)` and `P₂ = (x2, z2)`. Returns a value in `{-1, 0, 1}`.
#[inline]
fn g(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
    match (x1, z1) {
        (false, false) => 0,
        (true, true) => i32::from(z2) - i32::from(x2),
        (true, false) => i32::from(z2) * (2 * i32::from(x2) - 1),
        (false, true) => i32::from(x2) * (1 - 2 * i32::from(z2)),
    }
}

/// Left-multiplies Pauli row `dst` by row `src` (`dst ← src · dst`),
/// tracking the sign. Defined only when the product has a real sign
/// (always true for commuting rows, the only case the algorithms below
/// create).
fn row_mul(dst: &mut Row, src: &Row) {
    let mut phase = 2 * i32::from(dst.r) + 2 * i32::from(src.r);
    for w in 0..dst.x.len() {
        for b in 0..64 {
            let q = 1u64 << b;
            phase += g(
                src.x[w] & q != 0,
                src.z[w] & q != 0,
                dst.x[w] & q != 0,
                dst.z[w] & q != 0,
            );
        }
    }
    debug_assert!(phase.rem_euclid(4) % 2 == 0, "imaginary Pauli product");
    dst.r = phase.rem_euclid(4) == 2;
    for w in 0..dst.x.len() {
        dst.x[w] ^= src.x[w];
        dst.z[w] ^= src.z[w];
    }
}

/// A stabilizer state over `n` qubits, initialized to `|0…0⟩`.
///
/// Scales to hundreds of qubits: memory is `O(n²)` bits and every gate is
/// `O(n)` word operations.
///
/// # Examples
///
/// ```
/// use trios_ir::Circuit;
/// use trios_sim::Tableau;
///
/// // A 100-qubit GHZ state, far beyond dense simulation.
/// let mut c = Circuit::new(100);
/// c.h(0);
/// for q in 1..100 {
///     c.cx(q - 1, q);
/// }
/// let mut t = Tableau::new(100);
/// t.apply_circuit(&c).unwrap();
///
/// // All qubits measure equal: Z₀Z₉₉ stabilizes the state.
/// let mut other = Tableau::new(100);
/// other.apply_circuit(&c).unwrap();
/// assert!(t.state_eq(&other));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tableau {
    n: usize,
    /// Rows `0..n` destabilizers, `n..2n` stabilizers.
    rows: Vec<Row>,
}

impl Tableau {
    /// The `|0…0⟩` stabilizer state: destabilizer `i` is `Xᵢ`,
    /// stabilizer `i` is `Zᵢ`.
    pub fn new(num_qubits: usize) -> Self {
        let words = num_qubits.div_ceil(64).max(1);
        let mut rows = vec![Row::zero(words); 2 * num_qubits];
        for q in 0..num_qubits {
            rows[q].set_x(q, true);
            rows[num_qubits + q].set_z(q, true);
        }
        Tableau {
            n: num_qubits,
            rows,
        }
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Applies one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RepeatedOperand`] for a qubit named twice (as
    /// [`Instruction::map_qubits`] can build), and
    /// [`SimError::UnsupportedGate`] for non-Clifford gates (including
    /// measurement — use [`Tableau::measure`] for that).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range qubit operands, mirroring the dense backend.
    pub fn apply(&mut self, instr: &Instruction) -> Result<(), SimError> {
        let qs = instr.qubits();
        for q in qs {
            let idx = q.index();
            assert!(
                idx < self.n,
                "qubit {idx} out of range for a {}-qubit tableau (gate {})",
                self.n,
                instr.gate()
            );
        }
        distinct_operands(instr)?;
        match instr.gate() {
            Gate::I => {}
            Gate::Cx => self.cx(qs[0].index(), qs[1].index()),
            Gate::Cz => {
                let (a, b) = (qs[0].index(), qs[1].index());
                self.h(b);
                self.cx(a, b);
                self.h(b);
            }
            Gate::Swap => self.swap(qs[0].index(), qs[1].index()),
            gate => {
                let action = single_qubit_matrix(gate)
                    .and_then(|m| clifford_action(&m))
                    .ok_or_else(|| SimError::UnsupportedGate {
                        gate: gate.to_string(),
                        backend: "stabilizer",
                    })?;
                self.apply_1q(qs[0].index(), &action);
            }
        }
        Ok(())
    }

    /// Applies every unitary instruction of `circuit`, skipping
    /// measurements (matching [`crate::State::apply_circuit`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WidthMismatch`] if the circuit is wider than
    /// the tableau, or [`SimError::UnsupportedGate`] on the first
    /// non-Clifford gate.
    pub fn apply_circuit(&mut self, circuit: &Circuit) -> Result<(), SimError> {
        if circuit.num_qubits() > self.n {
            return Err(SimError::WidthMismatch {
                expected: self.n,
                actual: circuit.num_qubits(),
            });
        }
        for instr in circuit.iter() {
            if instr.gate().is_measurement() {
                continue;
            }
            self.apply(instr)?;
        }
        Ok(())
    }

    /// Applies `circuit` with its logical qubit `l` mapped to physical
    /// qubit `map[l]` — how an original circuit is replayed on a routed
    /// register through a layout.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WidthMismatch`] unless the map has one
    /// in-range entry per circuit qubit, [`SimError::DuplicateLayoutEntry`]
    /// if two entries name one qubit, and propagates
    /// [`SimError::UnsupportedGate`].
    pub fn apply_circuit_mapped(
        &mut self,
        circuit: &Circuit,
        map: &[usize],
    ) -> Result<(), SimError> {
        check_layout(map, circuit.num_qubits(), self.n)?;
        for instr in circuit.iter() {
            if instr.gate().is_measurement() {
                continue;
            }
            self.apply(&instr.map_qubits(|q| trios_ir::Qubit::new(map[q.index()])))?;
        }
        Ok(())
    }

    fn apply_1q(&mut self, q: usize, action: &CliffordAction) {
        let [img_x, img_z, img_y] = *action;
        for row in &mut self.rows {
            let img = match (row.x_bit(q), row.z_bit(q)) {
                (false, false) => continue,
                (true, false) => img_x,
                (false, true) => img_z,
                (true, true) => img_y,
            };
            row.set_x(q, img.x);
            row.set_z(q, img.z);
            row.r ^= img.neg;
        }
    }

    fn h(&mut self, q: usize) {
        for row in &mut self.rows {
            let (x, z) = (row.x_bit(q), row.z_bit(q));
            row.r ^= x & z;
            row.set_x(q, z);
            row.set_z(q, x);
        }
    }

    fn cx(&mut self, c: usize, t: usize) {
        for row in &mut self.rows {
            let (xc, zc) = (row.x_bit(c), row.z_bit(c));
            let (xt, zt) = (row.x_bit(t), row.z_bit(t));
            row.r ^= xc & zt & !(xt ^ zc);
            row.set_x(t, xt ^ xc);
            row.set_z(c, zc ^ zt);
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        for row in &mut self.rows {
            let (xa, za) = (row.x_bit(a), row.z_bit(a));
            let (xb, zb) = (row.x_bit(b), row.z_bit(b));
            row.set_x(a, xb);
            row.set_z(a, zb);
            row.set_x(b, xa);
            row.set_z(b, za);
        }
    }

    /// Measures qubit `q` in the computational basis, collapsing the
    /// state. `random_bit` supplies the outcome when it is genuinely
    /// random (it is not called for deterministic outcomes).
    pub fn measure(&mut self, q: usize, random_bit: &mut dyn FnMut() -> bool) -> bool {
        assert!(q < self.n, "qubit {q} out of range for measurement");
        let n = self.n;
        // A stabilizer anticommuting with Z_q ⇒ the outcome is random.
        if let Some(p) = (n..2 * n).find(|&i| self.rows[i].x_bit(q)) {
            let pivot = self.rows[p].clone();
            for i in 0..2 * n {
                if i != p && self.rows[i].x_bit(q) {
                    row_mul(&mut self.rows[i], &pivot);
                }
            }
            self.rows[p - n] = pivot;
            let outcome = random_bit();
            let words = self.rows[p].x.len();
            self.rows[p] = Row::zero(words);
            self.rows[p].set_z(q, true);
            self.rows[p].r = outcome;
            outcome
        } else {
            // Deterministic: accumulate the stabilizer expressing Z_q.
            let mut scratch = Row::zero(self.rows[0].x.len());
            for i in 0..n {
                if self.rows[i].x_bit(q) {
                    let stab = self.rows[i + n].clone();
                    row_mul(&mut scratch, &stab);
                }
            }
            scratch.r
        }
    }

    /// The stabilizer rows in canonical (symplectic reduced row-echelon)
    /// form: pivot on `x` bits column by column, then on `z` bits among
    /// the pure-Z rows. Two tableaus describe the same state iff their
    /// canonical rows — including signs — are equal.
    fn canonical_stabilizers(&self) -> Vec<Row> {
        let n = self.n;
        let mut rows: Vec<Row> = self.rows[n..].to_vec();
        let mut pivot = 0usize;
        for j in 0..n {
            if let Some(k) = (pivot..n).find(|&k| rows[k].x_bit(j)) {
                rows.swap(pivot, k);
                let lead = rows[pivot].clone();
                for (m, row) in rows.iter_mut().enumerate() {
                    if m != pivot && row.x_bit(j) {
                        row_mul(row, &lead);
                    }
                }
                pivot += 1;
            }
        }
        for j in 0..n {
            if let Some(k) = (pivot..n).find(|&k| rows[k].z_bit(j)) {
                rows.swap(pivot, k);
                let lead = rows[pivot].clone();
                // The lead row is pure Z, so this only rewrites z-parts:
                // x-pivot rows must be reduced too, or two generating
                // sets of the same group canonicalize differently.
                for (m, row) in rows.iter_mut().enumerate() {
                    if m != pivot && row.z_bit(j) {
                        row_mul(row, &lead);
                    }
                }
                pivot += 1;
            }
        }
        rows
    }

    /// `true` if the two tableaus describe the same quantum state
    /// (stabilizer groups equal, signs included — global phase is not
    /// observable and does not enter).
    pub fn state_eq(&self, other: &Tableau) -> bool {
        self.n == other.n && self.canonical_stabilizers() == other.canonical_stabilizers()
    }

    /// `true` if `Z_q` (possibly negated) is in the stabilizer group —
    /// i.e. measuring `q` gives a deterministic outcome. Returns the
    /// outcome, or `None` when the measurement would be random.
    pub fn deterministic_outcome(&self, q: usize) -> Option<bool> {
        assert!(q < self.n, "qubit {q} out of range");
        let n = self.n;
        if (n..2 * n).any(|i| self.rows[i].x_bit(q)) {
            return None;
        }
        let mut scratch = Row::zero(self.rows[0].x.len());
        for i in 0..n {
            if self.rows[i].x_bit(q) {
                let stab = self.rows[i + n].clone();
                row_mul(&mut scratch, &stab);
            }
        }
        Some(scratch.r)
    }
}

/// The first gate of `circuit` the stabilizer backend cannot apply, or
/// `None` if the whole circuit is Clifford (measurements are allowed).
pub fn first_non_clifford(circuit: &Circuit) -> Option<Gate> {
    circuit.iter().map(Instruction::gate).find(|&gate| {
        if gate.is_measurement() {
            return false;
        }
        match gate {
            Gate::Cx | Gate::Cz | Gate::Swap | Gate::I => false,
            g => single_qubit_matrix(g)
                .and_then(|m| clifford_action(&m))
                .is_none(),
        }
    })
}

/// Removes every `T`/`Tdg` gate — the non-Clifford residue of the
/// `clifford-t` circuit family — leaving a stabilizer-checkable skeleton.
/// The result is *not* equivalent to the input; it is a derived test
/// vector whose routing must still commute with the original's.
pub fn strip_t_gates(circuit: &Circuit) -> Circuit {
    let instrs: Vec<Instruction> = circuit
        .iter()
        .filter(|i| !matches!(i.gate(), Gate::T | Gate::Tdg))
        .cloned()
        .collect();
    Circuit::from_instructions(circuit.num_qubits(), instrs)
        .expect("removing instructions keeps a circuit valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::State;

    fn bit_source(seed: u64) -> impl FnMut() -> bool {
        let mut s = seed;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 63 == 1
        }
    }

    /// Dense-vs-tableau cross-check: run the circuit both ways and verify
    /// each deterministic Z outcome matches the dense marginal.
    fn cross_check(c: &Circuit) {
        let dense = State::run(c).unwrap();
        let mut tab = Tableau::new(c.num_qubits());
        tab.apply_circuit(c).unwrap();
        for q in 0..c.num_qubits() {
            let p1 = dense.marginal_probability(&[q], 1);
            match tab.deterministic_outcome(q) {
                Some(true) => assert!((p1 - 1.0).abs() < 1e-9, "q{q}: P(1) = {p1}"),
                Some(false) => assert!(p1 < 1e-9, "q{q}: P(1) = {p1}"),
                None => assert!((p1 - 0.5).abs() < 1e-9, "q{q}: P(1) = {p1}"),
            }
        }
    }

    #[test]
    fn zero_state_measures_zero_everywhere() {
        let mut t = Tableau::new(5);
        for q in 0..5 {
            assert_eq!(t.deterministic_outcome(q), Some(false));
            assert!(!t.measure(q, &mut bit_source(1)));
        }
    }

    #[test]
    fn x_flips_deterministic_outcome() {
        let mut c = Circuit::new(3);
        c.x(1);
        let mut t = Tableau::new(3);
        t.apply_circuit(&c).unwrap();
        assert_eq!(t.deterministic_outcome(0), Some(false));
        assert_eq!(t.deterministic_outcome(1), Some(true));
        cross_check(&c);
    }

    #[test]
    fn hadamard_makes_outcome_random_and_collapses() {
        let mut t = Tableau::new(2);
        let mut c = Circuit::new(2);
        c.h(0);
        t.apply_circuit(&c).unwrap();
        assert_eq!(t.deterministic_outcome(0), None);
        let outcome = t.measure(0, &mut bit_source(7));
        // After collapse the outcome is pinned.
        assert_eq!(t.deterministic_outcome(0), Some(outcome));
    }

    #[test]
    fn bell_pair_correlates_measurements() {
        for seed in 0..8u64 {
            let mut t = Tableau::new(2);
            let mut c = Circuit::new(2);
            c.h(0).cx(0, 1);
            t.apply_circuit(&c).unwrap();
            let a = t.measure(0, &mut bit_source(seed));
            let b = t.measure(1, &mut bit_source(seed + 100));
            assert_eq!(a, b, "Bell outcomes must agree (seed {seed})");
        }
    }

    #[test]
    fn named_clifford_gates_cross_check_against_dense() {
        let mut c = Circuit::new(4);
        c.h(0)
            .s(1)
            .cx(0, 1)
            .z(2)
            .x(3)
            .cz(1, 2)
            .sdg(0)
            .swap(2, 3)
            .y(1)
            .cx(3, 0);
        cross_check(&c);
    }

    #[test]
    fn merged_u3_cliffords_are_recognized() {
        // rz(π/2) ≡ S and u3 forms of H are Cliffords in disguise — the
        // optimizer's merge pass produces exactly these.
        use std::f64::consts::{FRAC_PI_2, PI};
        let mut c = Circuit::new(2);
        c.rz(FRAC_PI_2, 0); // = S up to phase
        c.u3(FRAC_PI_2, 0.0, PI, 1); // = H up to phase
        c.cx(0, 1);
        cross_check(&c);
    }

    #[test]
    fn non_clifford_gates_are_rejected_with_context() {
        let mut c = Circuit::new(1);
        c.t(0);
        let mut tab = Tableau::new(1);
        let err = tab.apply_circuit(&c).unwrap_err();
        match err {
            SimError::UnsupportedGate { gate, backend } => {
                assert_eq!(backend, "stabilizer");
                assert!(gate.contains('t'), "gate string: {gate}");
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert_eq!(first_non_clifford(&c), Some(Gate::T));
        let mut cliff = Circuit::new(2);
        cliff.h(0).cx(0, 1).measure_all();
        assert_eq!(first_non_clifford(&cliff), None);
    }

    #[test]
    fn rotation_cliffords_only_at_special_angles() {
        assert!(clifford_action(&single_qubit_matrix(Gate::Rx(0.3)).unwrap()).is_none());
        assert!(clifford_action(
            &single_qubit_matrix(Gate::Rx(std::f64::consts::FRAC_PI_2)).unwrap()
        )
        .is_some());
        assert!(clifford_action(&single_qubit_matrix(Gate::T).unwrap()).is_none());
        assert!(clifford_action(&single_qubit_matrix(Gate::Sx).unwrap()).is_some());
    }

    #[test]
    fn state_eq_distinguishes_and_identifies() {
        let mut ghz = Circuit::new(3);
        ghz.h(0).cx(0, 1).cx(1, 2);
        // GHZ built in a different gate order: same state.
        let mut ghz2 = Circuit::new(3);
        ghz2.h(0).cx(0, 1).cx(0, 2);
        let mut a = Tableau::new(3);
        a.apply_circuit(&ghz).unwrap();
        let mut b = Tableau::new(3);
        b.apply_circuit(&ghz2).unwrap();
        assert!(a.state_eq(&b));
        // Sign matters: X on one leg flips a stabilizer phase.
        let mut c = Tableau::new(3);
        c.apply_circuit(&ghz).unwrap();
        let mut flip = Circuit::new(3);
        flip.z(0);
        c.apply_circuit(&flip).unwrap();
        assert!(!a.state_eq(&c));
    }

    #[test]
    fn swap_is_exact_relabeling() {
        let mut direct = Circuit::new(3);
        direct.h(0).s(0).cx(0, 2);
        let mut swapped = Circuit::new(3);
        swapped.h(1).s(1).swap(1, 0).cx(0, 2);
        let mut a = Tableau::new(3);
        a.apply_circuit(&direct).unwrap();
        let mut b = Tableau::new(3);
        b.apply_circuit(&swapped).unwrap();
        assert!(a.state_eq(&b));
    }

    #[test]
    fn mapped_application_embeds_through_layout() {
        // X on logical 0 mapped to physical 2.
        let mut c = Circuit::new(1);
        c.x(0);
        let mut t = Tableau::new(4);
        t.apply_circuit_mapped(&c, &[2]).unwrap();
        assert_eq!(t.deterministic_outcome(2), Some(true));
        assert_eq!(t.deterministic_outcome(0), Some(false));
        // Bad maps error.
        assert!(t.apply_circuit_mapped(&c, &[]).is_err());
        assert!(t.apply_circuit_mapped(&c, &[9]).is_err());
    }

    #[test]
    fn scales_to_hundreds_of_qubits() {
        let n = 300;
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n {
            c.cx(q - 1, q);
        }
        let mut t = Tableau::new(n);
        t.apply_circuit(&c).unwrap();
        // GHZ: every single-qubit measurement is random...
        assert_eq!(t.deterministic_outcome(0), None);
        assert_eq!(t.deterministic_outcome(n - 1), None);
        // ...but once one collapses, all agree.
        let first = t.measure(0, &mut bit_source(3));
        assert_eq!(t.deterministic_outcome(n - 1), Some(first));
    }

    #[test]
    fn strip_t_removes_only_t_family() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).cx(0, 1).tdg(1).s(1).measure(1);
        let stripped = strip_t_gates(&c);
        assert_eq!(stripped.instructions().len(), 4);
        assert_eq!(first_non_clifford(&stripped), None);
        assert_eq!(stripped.num_qubits(), 2);
    }

    #[test]
    fn canonical_form_is_stable_under_row_order() {
        // Build the same state twice through wildly different Clifford
        // words; the canonical stabilizers must coincide exactly.
        let mut a_c = Circuit::new(4);
        a_c.h(0).cx(0, 1).s(1).cx(1, 2).h(3).cz(2, 3);
        let mut b_c = Circuit::new(4);
        b_c.h(0).cx(0, 1).s(1).cx(1, 2).h(3).h(3).h(3).cz(2, 3);
        let mut a = Tableau::new(4);
        a.apply_circuit(&a_c).unwrap();
        let mut b = Tableau::new(4);
        b.apply_circuit(&b_c).unwrap();
        assert!(a.state_eq(&b));
        assert_eq!(a.canonical_stabilizers(), b.canonical_stabilizers());
    }

    #[test]
    fn canonical_form_reduces_mixed_xz_rows_by_pure_z_pivots() {
        // |00⟩ − |11⟩ built two ways: raw generators ⟨Y⊗Y, Z⊗Z⟩ vs
        // ⟨−X⊗X, Z⊗Z⟩ — equal groups that only canonicalize identically
        // if pure-Z pivots also reduce rows carrying x bits.
        let mut a_c = Circuit::new(2);
        a_c.h(0).s(0).cx(0, 1).s(1);
        let mut b_c = Circuit::new(2);
        b_c.h(0).cx(0, 1).z(0);
        let mut a = Tableau::new(2);
        a.apply_circuit(&a_c).unwrap();
        let mut b = Tableau::new(2);
        b.apply_circuit(&b_c).unwrap();
        assert!(a.state_eq(&b));
        assert_eq!(a.canonical_stabilizers(), b.canonical_stabilizers());
    }

    #[test]
    fn row_is_identity_helper() {
        let words = 2;
        let mut r = Row::zero(words);
        assert!(r.is_identity());
        r.set_x(70, true);
        assert!(!r.is_identity());
        assert!(r.x_bit(70));
        r.set_x(70, false);
        assert!(r.is_identity());
    }
}
