//! [`Circuit`]: an ordered list of instructions over a fixed set of qubits.

use crate::{hash as fnv, CircuitError, Gate, GateCounts, Instruction, Qubit};
use std::fmt;

/// A quantum circuit: `num_qubits` qubit lines and an ordered instruction
/// list.
///
/// `Circuit` is the common currency of every compiler pass in this
/// workspace. Builder methods ([`h`](Circuit::h), [`cx`](Circuit::cx),
/// [`ccx`](Circuit::ccx), …) append gates and return `&mut Self` so circuits
/// can be written fluently:
///
/// ```
/// use trios_ir::Circuit;
///
/// let mut c = Circuit::new(3);
/// c.h(0).cx(0, 1).ccx(0, 1, 2);
/// assert_eq!(c.len(), 3);
/// assert_eq!(c.counts().ccx, 1);
/// ```
///
/// Whether qubit indices denote logical or physical qubits depends on which
/// pass produced the circuit; routed circuits are physical.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    name: String,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            name: String::new(),
            instructions: Vec::new(),
        }
    }

    /// Creates an empty named circuit (names show up in reports and errors).
    pub fn with_name(num_qubits: usize, name: impl Into<String>) -> Self {
        Circuit {
            num_qubits,
            name: name.into(),
            instructions: Vec::new(),
        }
    }

    /// Builds a circuit from parts, validating each instruction.
    ///
    /// # Errors
    ///
    /// Returns an error if any instruction references a qubit `>=
    /// num_qubits`.
    pub fn from_instructions(
        num_qubits: usize,
        instructions: impl IntoIterator<Item = Instruction>,
    ) -> Result<Self, CircuitError> {
        let instructions: Vec<Instruction> = instructions.into_iter().collect();
        for (i, instr) in instructions.iter().enumerate() {
            if let Some(q) = instr.qubits().iter().find(|q| q.index() >= num_qubits) {
                return Err(CircuitError::QubitOutOfRange {
                    instruction: i,
                    qubit: q.index(),
                    num_qubits,
                });
            }
        }
        Ok(Circuit {
            num_qubits,
            name: String::new(),
            instructions,
        })
    }

    /// The circuit name (may be empty).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the circuit name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of qubit lines.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// `true` if the circuit has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instruction list.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Iterator over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Appends an instruction.
    ///
    /// # Panics
    ///
    /// Panics if the instruction references a qubit outside the circuit.
    /// Use [`try_push`](Circuit::try_push) for a fallible variant.
    pub fn push(&mut self, instruction: Instruction) -> &mut Self {
        self.try_push(instruction)
            .unwrap_or_else(|e| panic!("invalid instruction: {e}"));
        self
    }

    /// Appends an instruction, validating qubit bounds.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfRange`] if an operand index is
    /// `>= self.num_qubits()`.
    pub fn try_push(&mut self, instruction: Instruction) -> Result<(), CircuitError> {
        if let Some(q) = instruction
            .qubits()
            .iter()
            .find(|q| q.index() >= self.num_qubits)
        {
            return Err(CircuitError::QubitOutOfRange {
                instruction: self.instructions.len(),
                qubit: q.index(),
                num_qubits: self.num_qubits,
            });
        }
        self.instructions.push(instruction);
        Ok(())
    }

    /// Appends `gate` applied to `qubits` (given as plain indices).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch, duplicate operands, or out-of-range qubits.
    pub fn apply(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        let qs: Vec<Qubit> = qubits.iter().copied().map(Qubit::new).collect();
        self.push(Instruction::new(gate, &qs))
    }

    /// Appends all instructions of `other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is wider than `self`.
    pub fn append(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.num_qubits <= self.num_qubits,
            "cannot append a {}-qubit circuit to a {}-qubit circuit",
            other.num_qubits,
            self.num_qubits
        );
        for instr in other.iter() {
            self.push(*instr);
        }
        self
    }

    /// Appends `other` with its qubit `i` relabelled to `map[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WidthMismatch`] if `map` is shorter than
    /// `other`'s width, or [`CircuitError::QubitOutOfRange`] if a mapped
    /// index falls outside `self`.
    pub fn append_mapped(&mut self, other: &Circuit, map: &[usize]) -> Result<(), CircuitError> {
        if map.len() < other.num_qubits {
            return Err(CircuitError::WidthMismatch {
                expected: other.num_qubits,
                actual: map.len(),
            });
        }
        for instr in other.iter() {
            self.try_push(instr.map_qubits(|q| Qubit::new(map[q.index()])))?;
        }
        Ok(())
    }

    /// Returns a copy with every qubit `i` relabelled to `map[i]`, over
    /// `new_width` qubits.
    ///
    /// # Errors
    ///
    /// Same conditions as [`append_mapped`](Circuit::append_mapped).
    pub fn remapped(&self, new_width: usize, map: &[usize]) -> Result<Circuit, CircuitError> {
        let mut out = Circuit::with_name(new_width, self.name.clone());
        out.append_mapped(self, map)?;
        Ok(out)
    }

    /// The inverse circuit: reversed instruction order, each gate inverted.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NotUnitary`] if the circuit contains a
    /// measurement.
    pub fn inverse(&self) -> Result<Circuit, CircuitError> {
        let mut out = Circuit::with_name(self.num_qubits, self.name.clone());
        for (i, instr) in self.instructions.iter().enumerate().rev() {
            let inv = instr
                .inverse()
                .ok_or(CircuitError::NotUnitary { instruction: i })?;
            out.instructions.push(inv);
        }
        Ok(out)
    }

    /// Removes all instructions, keeping the width and name.
    pub fn clear(&mut self) {
        self.instructions.clear();
    }

    // ------------------------------------------------------------------
    // Gate builder methods
    // ------------------------------------------------------------------

    /// Appends a Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::H, &[q])
    }

    /// Appends a Pauli X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::X, &[q])
    }

    /// Appends a Pauli Y on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Y, &[q])
    }

    /// Appends a Pauli Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Z, &[q])
    }

    /// Appends an S gate on `q`.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::S, &[q])
    }

    /// Appends an S† gate on `q`.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Sdg, &[q])
    }

    /// Appends a T gate on `q`.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::T, &[q])
    }

    /// Appends a T† gate on `q`.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Tdg, &[q])
    }

    /// Appends a √X gate on `q`.
    pub fn sx(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Sx, &[q])
    }

    /// Appends an Rx rotation on `q`.
    pub fn rx(&mut self, angle: f64, q: usize) -> &mut Self {
        self.apply(Gate::Rx(angle), &[q])
    }

    /// Appends an Ry rotation on `q`.
    pub fn ry(&mut self, angle: f64, q: usize) -> &mut Self {
        self.apply(Gate::Ry(angle), &[q])
    }

    /// Appends an Rz rotation on `q`.
    pub fn rz(&mut self, angle: f64, q: usize) -> &mut Self {
        self.apply(Gate::Rz(angle), &[q])
    }

    /// Appends a `u1(λ)` phase gate on `q`.
    pub fn u1(&mut self, lambda: f64, q: usize) -> &mut Self {
        self.apply(Gate::U1(lambda), &[q])
    }

    /// Appends a `u2(φ, λ)` gate on `q`.
    pub fn u2(&mut self, phi: f64, lambda: f64, q: usize) -> &mut Self {
        self.apply(Gate::U2(phi, lambda), &[q])
    }

    /// Appends a `u3(θ, φ, λ)` gate on `q`.
    pub fn u3(&mut self, theta: f64, phi: f64, lambda: f64, q: usize) -> &mut Self {
        self.apply(Gate::U3(theta, phi, lambda), &[q])
    }

    /// Appends an `X^t` fractional-X gate on `q`.
    pub fn xpow(&mut self, t: f64, q: usize) -> &mut Self {
        self.apply(Gate::Xpow(t), &[q])
    }

    /// Appends a controlled `X^t` with control `c` and target `t_q`.
    pub fn cxpow(&mut self, t: f64, c: usize, t_q: usize) -> &mut Self {
        self.apply(Gate::Cxpow(t), &[c, t_q])
    }

    /// Appends a CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: usize, t: usize) -> &mut Self {
        self.apply(Gate::Cx, &[c, t])
    }

    /// Appends a CZ between `a` and `b`.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.apply(Gate::Cz, &[a, b])
    }

    /// Appends a controlled-phase `cp(λ)` between `a` and `b`.
    pub fn cp(&mut self, lambda: f64, a: usize, b: usize) -> &mut Self {
        self.apply(Gate::Cp(lambda), &[a, b])
    }

    /// Appends a SWAP between `a` and `b`.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.apply(Gate::Swap, &[a, b])
    }

    /// Appends a Toffoli with controls `c1`, `c2` and target `t`.
    pub fn ccx(&mut self, c1: usize, c2: usize, t: usize) -> &mut Self {
        self.apply(Gate::Ccx, &[c1, c2, t])
    }

    /// Appends a doubly-controlled Z on `a`, `b`, `c` (symmetric).
    pub fn ccz(&mut self, a: usize, b: usize, c: usize) -> &mut Self {
        self.apply(Gate::Ccz, &[a, b, c])
    }

    /// Appends a Fredkin gate: control `c`, swapped pair `a`, `b`.
    pub fn cswap(&mut self, c: usize, a: usize, b: usize) -> &mut Self {
        self.apply(Gate::Cswap, &[c, a, b])
    }

    /// Appends a measurement of `q`.
    pub fn measure(&mut self, q: usize) -> &mut Self {
        self.apply(Gate::Measure, &[q])
    }

    /// Appends measurements of every qubit.
    pub fn measure_all(&mut self) -> &mut Self {
        for q in 0..self.num_qubits {
            self.measure(q);
        }
        self
    }

    // ------------------------------------------------------------------
    // Analysis
    // ------------------------------------------------------------------

    /// Gate-count summary.
    pub fn counts(&self) -> GateCounts {
        let mut counts = GateCounts::default();
        for instr in self.iter() {
            counts.record(instr.gate());
        }
        counts
    }

    /// Number of two-qubit gates (the paper's primary static metric).
    pub fn two_qubit_gate_count(&self) -> usize {
        self.counts().two_qubit
    }

    /// Circuit depth in gate layers: the longest chain of instructions that
    /// share qubits. Measurements count as a layer.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        let mut depth = 0;
        for instr in self.iter() {
            let start = instr
                .qubits()
                .iter()
                .map(|q| level[q.index()])
                .max()
                .unwrap_or(0);
            for q in instr.qubits() {
                level[q.index()] = start + 1;
            }
            depth = depth.max(start + 1);
        }
        depth
    }

    /// `true` if every gate is in the hardware-supported set (1q gates, CX,
    /// measurement): the postcondition of a complete compilation pipeline.
    pub fn is_hardware_lowered(&self) -> bool {
        self.iter().all(|i| i.gate().is_hardware_supported())
    }

    /// The set of qubits that are actually touched by at least one
    /// instruction, in ascending order.
    pub fn active_qubits(&self) -> Vec<usize> {
        let mut used = vec![false; self.num_qubits];
        for instr in self.iter() {
            for q in instr.qubits() {
                used[q.index()] = true;
            }
        }
        used.iter()
            .enumerate()
            .filter_map(|(i, u)| u.then_some(i))
            .collect()
    }

    /// A 64-bit FNV-1a hash of the circuit's structure: its width and the
    /// exact instruction sequence (gate mnemonic, exact parameter bits,
    /// operand order).
    ///
    /// The circuit *name* is deliberately excluded — two identically-built
    /// circuits hash equal however they are labelled — and the hash is a
    /// pure function of the structure (no pointer or random state), so it
    /// is stable across runs, processes, and platforms. This makes it
    /// usable as a compilation-cache key: equal hashes mean "same program
    /// to every compiler pass" (up to the negligible 64-bit collision
    /// probability).
    pub fn structural_hash(&self) -> u64 {
        let mut h = fnv::OFFSET;
        h = fnv::write_u64(h, self.num_qubits as u64);
        h = fnv::write_u64(h, self.instructions.len() as u64);
        for instr in &self.instructions {
            h = fnv::write_bytes(h, instr.gate().name().as_bytes());
            for p in instr.gate().params() {
                h = fnv::write_u64(h, p.to_bits());
            }
            for q in instr.qubits() {
                h = fnv::write_u64(h, q.index() as u64);
            }
        }
        h
    }

    /// Validates every instruction against the circuit width.
    ///
    /// Circuits built through the public API are valid by construction; this
    /// re-check is useful after deserialization or manual surgery.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), CircuitError> {
        for (i, instr) in self.iter().enumerate() {
            if !instr.operands().are_distinct() {
                return Err(CircuitError::DuplicateOperand { instruction: i });
            }
            if let Some(q) = instr.qubits().iter().find(|q| q.index() >= self.num_qubits) {
                return Err(CircuitError::QubitOutOfRange {
                    instruction: i,
                    qubit: q.index(),
                    num_qubits: self.num_qubits,
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.name.is_empty() {
            writeln!(f, "circuit on {} qubits:", self.num_qubits)?;
        } else {
            writeln!(f, "{} ({} qubits):", self.name, self.num_qubits)?;
        }
        for instr in self.iter() {
            writeln!(f, "  {instr}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain_appends_in_order() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ccx(0, 1, 2).measure(2);
        assert_eq!(c.len(), 4);
        assert_eq!(c.instructions()[0].gate(), Gate::H);
        assert_eq!(c.instructions()[3].gate(), Gate::Measure);
    }

    #[test]
    #[should_panic(expected = "invalid instruction")]
    fn push_rejects_out_of_range() {
        Circuit::new(2).ccx(0, 1, 2);
    }

    #[test]
    fn try_push_returns_error() {
        let mut c = Circuit::new(1);
        let err = c
            .try_push(Instruction::new(Gate::Cx, &[Qubit::new(0), Qubit::new(1)]))
            .unwrap_err();
        assert!(matches!(
            err,
            CircuitError::QubitOutOfRange { qubit: 1, .. }
        ));
    }

    #[test]
    fn counts_and_two_qubit_metric() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).swap(2, 3).ccx(0, 1, 2);
        let counts = c.counts();
        assert_eq!(counts.two_qubit, 3);
        assert_eq!(counts.cx, 2);
        assert_eq!(counts.swap, 1);
        assert_eq!(counts.ccx, 1);
        assert_eq!(c.two_qubit_gate_count(), 3);
    }

    #[test]
    fn depth_tracks_qubit_conflicts() {
        let mut c = Circuit::new(4);
        // Layer 1: h(0), h(2); Layer 2: cx(0,1), cx(2,3); Layer 3: cx(1,2).
        c.h(0).h(2).cx(0, 1).cx(2, 3).cx(1, 2);
        assert_eq!(c.depth(), 3);
        assert_eq!(Circuit::new(5).depth(), 0);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.h(0).t(1).cx(0, 1);
        let inv = c.inverse().unwrap();
        assert_eq!(inv.instructions()[0].gate(), Gate::Cx);
        assert_eq!(inv.instructions()[1].gate(), Gate::Tdg);
        assert_eq!(inv.instructions()[2].gate(), Gate::H);
    }

    #[test]
    fn inverse_fails_on_measurement() {
        let mut c = Circuit::new(1);
        c.measure(0);
        assert!(matches!(
            c.inverse().unwrap_err(),
            CircuitError::NotUnitary { instruction: 0 }
        ));
    }

    #[test]
    fn append_mapped_relabels() {
        let mut inner = Circuit::new(2);
        inner.cx(0, 1);
        let mut outer = Circuit::new(5);
        outer.append_mapped(&inner, &[3, 4]).unwrap();
        assert_eq!(
            outer.instructions()[0].qubits(),
            &[Qubit::new(3), Qubit::new(4)]
        );
    }

    #[test]
    fn append_mapped_rejects_short_map() {
        let mut inner = Circuit::new(3);
        inner.ccx(0, 1, 2);
        let mut outer = Circuit::new(5);
        assert!(matches!(
            outer.append_mapped(&inner, &[0, 1]).unwrap_err(),
            CircuitError::WidthMismatch { .. }
        ));
    }

    #[test]
    fn hardware_lowered_predicate() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).measure(0);
        assert!(c.is_hardware_lowered());
        c.ccx(0, 1, 2);
        assert!(!c.is_hardware_lowered());
    }

    #[test]
    fn active_qubits_skips_untouched() {
        let mut c = Circuit::new(5);
        c.cx(1, 3);
        assert_eq!(c.active_qubits(), vec![1, 3]);
    }

    #[test]
    fn measure_all_touches_everything() {
        let mut c = Circuit::new(3);
        c.measure_all();
        assert_eq!(c.counts().measure, 3);
        assert_eq!(c.active_qubits(), vec![0, 1, 2]);
    }

    #[test]
    fn validate_passes_for_builder_circuits() {
        let mut c = Circuit::new(3);
        c.h(0).ccx(0, 1, 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn display_lists_instructions() {
        let mut c = Circuit::with_name(2, "demo");
        c.cx(0, 1);
        let text = c.to_string();
        assert!(text.contains("demo"));
        assert!(text.contains("cx q0, q1"));
    }

    #[test]
    fn from_instructions_validates() {
        let instrs = vec![Instruction::new(Gate::H, &[Qubit::new(4)])];
        assert!(Circuit::from_instructions(3, instrs.clone()).is_err());
        assert!(Circuit::from_instructions(5, instrs).is_ok());
    }

    #[test]
    fn structural_hash_ignores_name_but_not_structure() {
        let mut a = Circuit::with_name(3, "alpha");
        a.h(0).cx(0, 1).ccx(0, 1, 2);
        let mut b = Circuit::with_name(3, "beta");
        b.h(0).cx(0, 1).ccx(0, 1, 2);
        assert_eq!(a.structural_hash(), b.structural_hash());

        // Operand order matters.
        let mut c = Circuit::new(3);
        c.h(0).cx(1, 0).ccx(0, 1, 2);
        assert_ne!(a.structural_hash(), c.structural_hash());

        // Width matters even with identical instructions.
        let mut d = Circuit::new(4);
        d.h(0).cx(0, 1).ccx(0, 1, 2);
        assert_ne!(a.structural_hash(), d.structural_hash());
    }

    #[test]
    fn structural_hash_covers_parameter_bits() {
        let mut a = Circuit::new(1);
        a.rz(0.25, 0);
        let mut b = Circuit::new(1);
        b.rz(0.25 + f64::EPSILON, 0);
        assert_ne!(a.structural_hash(), b.structural_hash());
        // Same angle on a different rotation axis differs too.
        let mut c = Circuit::new(1);
        c.rx(0.25, 0);
        assert_ne!(a.structural_hash(), c.structural_hash());
    }

    #[test]
    fn structural_hash_distinguishes_prefixes() {
        // An empty circuit and a one-gate circuit must not collide by
        // accident of length omission.
        let empty = Circuit::new(2);
        let mut one = Circuit::new(2);
        one.h(0);
        assert_ne!(empty.structural_hash(), one.structural_hash());
        assert_eq!(empty.structural_hash(), Circuit::new(2).structural_hash());
    }

    #[test]
    fn remapped_round_trip() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let r = c.remapped(4, &[2, 0]).unwrap();
        assert_eq!(r.num_qubits(), 4);
        assert_eq!(
            r.instructions()[0].qubits(),
            &[Qubit::new(2), Qubit::new(0)]
        );
    }
}
