//! [`PackedCircuit`]: a circuit in the form a cache keeps it.
//!
//! A compiled program repeats a tiny gate alphabet: CNOTs plus the few
//! one-qubit angles of its Toffoli decompositions. A packed circuit lists
//! each distinct gate once, in first-use order, and stores the program as
//! a stream of `u16`s: per instruction, the gate's index in that table,
//! then its operands. Over the serve workload's compiled programs that is
//! under 6 bytes an instruction, against the 40 of an [`Instruction`].

use crate::circuit::same_gate;
use crate::{Circuit, Gate, GateCounts, Instruction, Operands, Qubit};
use std::collections::HashMap;
use std::mem::{discriminant, size_of_val, Discriminant};

/// A [`Circuit`] stored compactly: its distinct gates once each, and a
/// `u16` code stream of table indices and operands.
///
/// It keeps the name and width, and [`unpack`](Self::unpack) returns a
/// circuit equal to the one packed, parameters by their bits. Gates are
/// told apart by kind and parameter bits, so `-0.0` and `0.0` stay
/// distinct and a NaN keeps its payload. A table index takes one `u16`,
/// or two for a circuit of more than 65,536 distinct gates; operands take
/// one each, as every [`Qubit`] is below [`MAX_QUBITS`](crate::MAX_QUBITS).
///
/// # Examples
///
/// ```
/// use trios_ir::{Circuit, PackedCircuit};
///
/// let mut c = Circuit::with_name(3, "ripple");
/// c.h(0).cx(0, 1).rz(0.25, 2).cx(1, 2).rz(0.25, 0);
/// let packed = PackedCircuit::new(&c);
/// assert_eq!(packed.len(), 5);
/// assert_eq!(packed.counts(), c.counts());
/// assert!(packed.same_structure(&c));
/// assert_eq!(packed.unpack(), c);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedCircuit {
    num_qubits: usize,
    name: Box<str>,
    /// Every distinct gate, in first-use order.
    gates: Box<[Gate]>,
    /// Per instruction: its gate's index in `gates` (two `u16`s, low half
    /// first, when `wide`), then one `u16` per operand.
    code: Box<[u16]>,
    wide: bool,
    /// Counted while packing; `counts.total` is the instruction count.
    counts: GateCounts,
}

// The fields are private and `new` is the only constructor, so every
// packed circuit was read from a valid `Circuit`: decoding trusts the
// stream's arities, operands and widths instead of checking them again.

impl PackedCircuit {
    /// Packs `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        // One u16 per index until the table outgrows it; such a circuit
        // is packed again with two.
        Packer::pack(circuit, false)
            .or_else(|| Packer::pack(circuit, true))
            .expect("two u16s index more distinct gates than a circuit can hold")
    }

    /// The circuit as it was packed, name included.
    pub fn unpack(&self) -> Circuit {
        let mut instructions = Vec::with_capacity(self.len());
        instructions.extend(self.walk().map(|(gate, operands)| {
            let q = |i: usize| Qubit::from(operands[i]);
            let operands = match operands.len() {
                1 => Operands::one(q(0)),
                2 => Operands::two(q(0), q(1)),
                _ => Operands::three(q(0), q(1), q(2)),
            };
            Instruction::from_checked_parts(gate, operands)
        }));
        Circuit::from_checked_parts(self.num_qubits, self.name.to_string(), instructions)
    }

    /// `true` when `circuit` has what [`Circuit::structural_hash`] reads:
    /// the same width and, instruction by instruction, the same gate,
    /// parameter bits and operands. Names are ignored. It reads both in
    /// lockstep and allocates nothing, so a cache runs it on every hit.
    pub fn same_structure(&self, circuit: &Circuit) -> bool {
        self.num_qubits == circuit.num_qubits()
            && self.len() == circuit.len()
            && self
                .walk()
                .zip(circuit.iter())
                .all(|((gate, operands), instr)| {
                    let qubits = instr.qubits();
                    same_gate(gate, instr.gate())
                        && operands.len() == qubits.len()
                        && operands
                            .iter()
                            .zip(qubits)
                            .all(|(&a, b)| a as usize == b.index())
                })
    }

    /// The circuit name (may be empty).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of qubit lines.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.counts.total
    }

    /// `true` if the circuit has no instructions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`Circuit::counts`] of the packed circuit, taken while packing.
    pub fn counts(&self) -> GateCounts {
        self.counts
    }

    /// The heap bytes held: the name, the gate table and the code stream.
    pub fn heap_bytes(&self) -> usize {
        self.name.len() + size_of_val(&*self.gates) + size_of_val(&*self.code)
    }

    /// Each instruction's gate and operands, in order.
    fn walk(&self) -> impl Iterator<Item = (Gate, &[u16])> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let code = &self.code;
            let low = *code.get(at)? as usize;
            let (index, start) = if self.wide {
                (low | (code[at + 1] as usize) << 16, at + 2)
            } else {
                (low, at + 1)
            };
            let gate = self.gates[index];
            at = start + gate.arity();
            Some((gate, &code[start..at]))
        })
    }
}

/// The parameterized gates a packer compares by scanning before it
/// hashes: programs compiled from the paper's decompositions use at most
/// a few dozen.
const SCAN: usize = 32;

/// The gate table being built, and how a gate finds its slot in it.
struct Packer {
    /// Each slot's gate and the instructions that use it.
    table: Vec<(Gate, usize)>,
    /// The slot of each parameterless kind seen so far.
    plain: Vec<(Discriminant<Gate>, u32)>,
    /// The first [`SCAN`] parameterized gates, by kind and parameter bits.
    scanned: Vec<(Discriminant<Gate>, [u64; 3], u32)>,
    /// The parameterized gates after those. Parameters reach it from
    /// client QASM, so it keeps std's randomly seeded hasher.
    hashed: HashMap<(Discriminant<Gate>, [u64; 3]), u32>,
    /// Slots an index can address.
    limit: usize,
}

impl Packer {
    /// `circuit` packed with indices of two `u16`s if `wide`, else one;
    /// `None` if its distinct gates outnumber what the indices address.
    fn pack(circuit: &Circuit, wide: bool) -> Option<PackedCircuit> {
        let index_words = if wide { 2 } else { 1 };
        // Each instruction is written whole, three operand slots and all,
        // and the cursor then steps past its real operands.
        let mut code = vec![0u16; circuit.len() * (index_words + 3)];
        let mut at = 0;
        let mut packer = Packer {
            table: Vec::new(),
            plain: Vec::new(),
            scanned: Vec::new(),
            hashed: HashMap::new(),
            limit: if wide { usize::MAX } else { 1 << 16 },
        };
        for instr in circuit {
            let slot = packer.slot(instr.gate())?;
            packer.table[slot as usize].1 += 1;
            let operands = instr.operands();
            let [a, b, c] = operands.padded_indices();
            if wide {
                code[at..at + 5].copy_from_slice(&[slot as u16, (slot >> 16) as u16, a, b, c]);
            } else {
                code[at..at + 4].copy_from_slice(&[slot as u16, a, b, c]);
            }
            at += index_words + operands.len();
        }
        code.truncate(at);
        let mut counts = GateCounts::default();
        for &(gate, n) in &packer.table {
            counts.add(gate, n);
        }
        Some(PackedCircuit {
            num_qubits: circuit.num_qubits(),
            name: circuit.name().into(),
            gates: packer.table.iter().map(|&(gate, _)| gate).collect(),
            code: code.into_boxed_slice(),
            wide,
            counts,
        })
    }

    /// The slot of `gate`, added if new; `None` past the index limit. A
    /// parameterless gate is found by its kind, a parameterized one by a
    /// scan of the first [`SCAN`] before the map.
    #[inline]
    fn slot(&mut self, gate: Gate) -> Option<u32> {
        let kind = discriminant(&gate);
        let (params, n) = gate.param_array();
        if n == 0 {
            if let Some(&(_, slot)) = self.plain.iter().find(|(k, _)| *k == kind) {
                return Some(slot);
            }
            let slot = self.push(gate)?;
            self.plain.push((kind, slot));
            return Some(slot);
        }
        let bits = params.map(f64::to_bits);
        if let Some(&(_, _, slot)) = self
            .scanned
            .iter()
            .find(|(k, b, _)| *k == kind && *b == bits)
        {
            return Some(slot);
        }
        if self.scanned.len() < SCAN {
            let slot = self.push(gate)?;
            self.scanned.push((kind, bits, slot));
            return Some(slot);
        }
        if let Some(&slot) = self.hashed.get(&(kind, bits)) {
            return Some(slot);
        }
        let slot = self.push(gate)?;
        self.hashed.insert((kind, bits), slot);
        Some(slot)
    }

    /// Appends `gate` to the table; `None` if its slot is past the limit.
    fn push(&mut self, gate: Gate) -> Option<u32> {
        if self.table.len() == self.limit {
            return None;
        }
        let slot = u32::try_from(self.table.len()).ok()?;
        self.table.push((gate, 0));
        Some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::EVERY_KIND;

    /// Every gate kind, on operands that reach the top qubit index.
    fn every_kind(num_qubits: usize) -> Circuit {
        let top = num_qubits - 1;
        let mut c = Circuit::with_name(num_qubits, "every kind");
        for gate in EVERY_KIND {
            let qubits: Vec<usize> = (0..gate.arity()).map(|i| top - i).collect();
            c.apply(gate, &qubits);
            c.apply(gate, &[1, 0, 2][..gate.arity()]);
        }
        c
    }

    #[test]
    fn every_kind_round_trips_at_the_widest_index() {
        for width in [3, crate::MAX_QUBITS] {
            let c = every_kind(width);
            let packed = PackedCircuit::new(&c);
            assert_eq!(packed.unpack(), c);
            assert_eq!(packed.name(), "every kind");
            assert_eq!(packed.num_qubits(), width);
            assert_eq!(packed.counts(), c.counts());
            assert!(packed.same_structure(&c));
            assert_eq!(packed.gates.len(), EVERY_KIND.len(), "one slot per gate");
        }
    }

    #[test]
    fn parameters_are_told_apart_by_their_bits() {
        let nan = |payload: u64| f64::from_bits(f64::NAN.to_bits() | payload);
        let mut c = Circuit::new(1);
        for angle in [0.0, -0.0, nan(1), nan(2), nan(1), 0.0, f64::INFINITY] {
            c.rz(angle, 0);
        }
        c.u3(-0.0, 0.0, nan(3), 0).u3(0.0, -0.0, nan(3), 0);
        let packed = PackedCircuit::new(&c);
        assert_eq!(packed.gates.len(), 7, "0, -0, two NaNs, inf, two u3s");
        let back = packed.unpack();
        let bits = |c: &Circuit| -> Vec<u64> {
            c.iter()
                .flat_map(|i| i.gate().params())
                .map(f64::to_bits)
                .collect()
        };
        assert_eq!(bits(&back), bits(&c));
        assert_eq!(back.structural_hash(), c.structural_hash());
        assert!(packed.same_structure(&c));
    }

    #[test]
    fn seventy_thousand_angles_take_two_words_an_index() {
        let n = 70_000;
        let mut c = Circuit::with_name(2, "angles");
        for i in 0..n {
            c.rz(i as f64, i % 2).cx(0, 1);
        }
        let packed = PackedCircuit::new(&c);
        assert!(packed.wide);
        assert_eq!(packed.gates.len(), n + 1);
        // Two words of index per instruction, then its operands.
        assert_eq!(packed.code.len(), n * (2 + 1) + n * (2 + 2));
        assert_eq!(packed.unpack(), c);
        assert!(packed.same_structure(&c));
        assert_eq!(packed.counts(), c.counts());
    }

    #[test]
    fn same_structure_reads_what_the_hash_reads() {
        let mut a = Circuit::with_name(3, "alpha");
        a.h(0)
            .rz(0.25, 1)
            .cx(0, 1)
            .ccx(0, 1, 2)
            .u3(0.1, 0.2, 0.3, 2);
        let packed = PackedCircuit::new(&a);
        let mut renamed = a.clone();
        renamed.set_name("beta");
        assert!(packed.same_structure(&renamed), "names are ignored");
        let mut b = Circuit::new(3);
        b.h(0).rz(0.25, 1).cx(0, 1).ccx(0, 1, 2);
        assert!(!packed.same_structure(&b), "a prefix differs");
        b.u3(0.1, 0.2, f64::from_bits(0.3f64.to_bits() ^ 1), 2);
        assert!(!packed.same_structure(&b), "one parameter bit differs");
        let wider = Circuit::from_instructions(4, a.iter().copied()).unwrap();
        assert!(!packed.same_structure(&wider));
    }

    #[test]
    fn an_empty_circuit_packs_to_nothing() {
        let c = Circuit::with_name(5, "");
        let packed = PackedCircuit::new(&c);
        assert!(packed.is_empty());
        assert_eq!(packed.heap_bytes(), 0);
        assert_eq!(packed.unpack(), c);
        assert!(packed.same_structure(&c));
        assert!(!packed.same_structure(&Circuit::new(4)));
    }

    #[test]
    fn heap_bytes_counts_name_table_and_code() {
        let mut c = Circuit::with_name(2, "bell");
        c.h(0).cx(0, 1).cx(0, 1);
        let packed = PackedCircuit::new(&c);
        let gate = std::mem::size_of::<Gate>();
        assert_eq!(packed.heap_bytes(), 4 + 2 * gate + 2 * (2 + 3 + 3));
    }
}
