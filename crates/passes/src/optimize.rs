//! Circuit-level optimizations mirroring Qiskit's "light optimization"
//! (paper §5.2): inverse-pair cancellation and single-qubit-run
//! consolidation into `u3` gates.

use std::collections::HashMap;
use trios_ir::{Circuit, Gate, Instruction, Qubit};
use trios_sim::{
    mat2_eq_up_to_phase, mat2_mul, single_qubit_matrix, zyz_decompose, Mat2, MAT2_IDENTITY,
};

/// Which optimizations [`optimize`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizeOptions {
    /// Cancel adjacent inverse pairs (`CX·CX`, `T·T†`, `SWAP·SWAP`, …).
    pub cancel_inverses: bool,
    /// Merge runs of single-qubit gates into one `u3` via ZYZ resynthesis.
    pub merge_single_qubit: bool,
    /// Drop identity gates and zero-angle rotations.
    pub remove_trivial: bool,
    /// Cancel inverse pairs separated by provably-commuting gates
    /// ([`cancel_commuting_inverses`](crate::cancel_commuting_inverses)).
    /// Off by default: the paper's configurations model Qiskit's *light*
    /// optimization (§5.2).
    pub cancel_commuting: bool,
    /// Merge Z-rotations across commuting gates
    /// ([`merge_commuting_rotations`](crate::merge_commuting_rotations)).
    /// Off by default, as above.
    pub merge_rotations: bool,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            cancel_inverses: true,
            merge_single_qubit: true,
            remove_trivial: true,
            cancel_commuting: false,
            merge_rotations: false,
        }
    }
}

impl OptimizeOptions {
    /// No optimization at all (for ablations).
    pub fn none() -> Self {
        OptimizeOptions {
            cancel_inverses: false,
            merge_single_qubit: false,
            remove_trivial: false,
            cancel_commuting: false,
            merge_rotations: false,
        }
    }

    /// Everything on, including the commutation-aware passes — heavier than
    /// the paper's light-optimization setting, for the optimization-level
    /// ablation.
    pub fn full() -> Self {
        OptimizeOptions {
            cancel_commuting: true,
            merge_rotations: true,
            ..OptimizeOptions::default()
        }
    }
}

/// Runs the selected optimizations, in this order:
///
/// 1. drop trivial gates ([`remove_trivial_gates`]);
/// 2. cancel adjacent inverse pairs, round after round until a round
///    removes nothing ([`cancel_adjacent_inverses`]);
/// 3. when enabled, the commutation-aware passes:
///    [`cancel_commuting_inverses`](crate::cancel_commuting_inverses), then
///    [`merge_commuting_rotations`](crate::merge_commuting_rotations)
///    followed by another commuting cancellation;
/// 4. merge single-qubit runs into `u3` gates
///    ([`merge_single_qubit_runs`]), dropping a trivial `u3` as it is
///    emitted when step 1 is on.
///
/// Each step is a kernel over one instruction list: step 1 is fused into
/// the read of the input, the cancellation rounds reuse two buffers, a
/// run of up to 16 parameterless gates or of one parameterized gate is
/// resynthesized once per distinct run and call, and only the result is
/// wrapped in a [`Circuit`]. The public single-step passes are thin
/// wrappers over the same kernels, so the result is bit-identical to
/// running them one after another.
///
/// Semantics-preserving by construction; the test suite additionally
/// verifies this with the statevector simulator.
pub fn optimize(circuit: &Circuit, options: OptimizeOptions) -> Circuit {
    let n = circuit.num_qubits();
    let input = circuit
        .iter()
        .copied()
        .filter(|instr| !(options.remove_trivial && is_trivial(instr.gate())));
    let mut instrs = if options.cancel_inverses {
        cancel_to_fixpoint(n, input)
    } else {
        input.collect()
    };
    if options.cancel_commuting {
        instrs = crate::commute::cancel_commuting(instrs);
    }
    if options.merge_rotations {
        instrs = crate::commute::merge_rotations(instrs);
        if options.cancel_commuting {
            // Merged rotations can expose new commuting inverse pairs.
            instrs = crate::commute::cancel_commuting(instrs);
        }
    }
    if options.merge_single_qubit {
        instrs = merge_runs(n, &instrs, options.remove_trivial);
    }
    rebuild(circuit, instrs)
}

/// Wraps a pass's output in a circuit with the width and name of
/// `source`.
pub(crate) fn rebuild(source: &Circuit, instrs: Vec<Instruction>) -> Circuit {
    let mut out = Circuit::from_instructions(source.num_qubits(), instrs)
        .expect("optimization keeps every instruction on the circuit's qubits");
    out.set_name(source.name());
    out
}

/// `true` for identity gates and (near-)zero-angle rotations.
fn is_trivial(gate: Gate) -> bool {
    const EPS: f64 = 1e-12;
    match gate {
        Gate::I => true,
        Gate::Rx(a) | Gate::Ry(a) | Gate::Rz(a) | Gate::U1(a) | Gate::Cp(a) => a.abs() < EPS,
        Gate::Xpow(t) | Gate::Cxpow(t) => t.abs() < EPS,
        Gate::U3(t, p, l) => t.abs() < EPS && (p + l).abs() < EPS,
        _ => false,
    }
}

/// Removes identity gates and (near-)zero-angle rotations.
pub fn remove_trivial_gates(circuit: &Circuit) -> Circuit {
    let kept = circuit
        .iter()
        .copied()
        .filter(|instr| !is_trivial(instr.gate()))
        .collect();
    rebuild(circuit, kept)
}

/// Cancels adjacent inverse pairs, iterating to a fixpoint so that
/// cancellations exposed by earlier ones (e.g. `H · CX · CX · H`) are also
/// removed.
///
/// Two instructions cancel when no other gate touches their qubits in
/// between, their gates are mutual inverses, and their operand orders are
/// compatible (exact match, except that the symmetric gates CZ/CP/SWAP may
/// have their operands flipped, and Toffoli controls may commute).
pub fn cancel_adjacent_inverses(circuit: &Circuit) -> Circuit {
    rebuild(
        circuit,
        cancel_to_fixpoint(circuit.num_qubits(), circuit.iter().copied()),
    )
}

/// Marks a qubit no kept instruction has touched in the current round, or
/// whose last toucher was just cancelled.
const UNTOUCHED: usize = usize::MAX;

/// Runs cancellation rounds until one removes nothing. The first round
/// reads `input` directly; later rounds alternate between two buffers.
fn cancel_to_fixpoint(
    num_qubits: usize,
    input: impl Iterator<Item = Instruction>,
) -> Vec<Instruction> {
    let mut round = CancelRound {
        last_touch: vec![UNTOUCHED; num_qubits],
        dead: Vec::new(),
    };
    let mut current = Vec::with_capacity(input.size_hint().1.unwrap_or(0));
    let mut changed = round.run(input, &mut current);
    let mut next = Vec::with_capacity(current.len());
    while changed {
        changed = round.run(current.iter().copied(), &mut next);
        std::mem::swap(&mut current, &mut next);
    }
    current
}

/// Working state of one cancellation round, reused across rounds.
struct CancelRound {
    /// Per qubit, the index in the round's output of the last kept
    /// instruction touching it, or [`UNTOUCHED`].
    last_touch: Vec<usize>,
    /// Per output index, whether a later instruction cancelled it.
    dead: Vec<bool>,
}

impl CancelRound {
    /// Copies `input` into `out` minus the pairs that cancel, returning
    /// whether any did.
    ///
    /// The candidate for an instruction is the last kept instruction to
    /// touch *all* of its qubits, and it must touch exactly those qubits.
    /// A cancellation resets the candidate on those qubits, which are all
    /// of the cancelled instruction's qubits, so no qubit is left pointing
    /// at it. Within one round a later gate therefore never reaches past a
    /// cancelled pair to an older instruction; the next round does.
    fn run(
        &mut self,
        input: impl Iterator<Item = Instruction>,
        out: &mut Vec<Instruction>,
    ) -> bool {
        out.clear();
        self.dead.clear();
        self.last_touch.fill(UNTOUCHED);
        let mut changed = false;
        for instr in input {
            let qubits = instr.qubits();
            let first = self.last_touch[qubits[0].index()];
            let cancels = first != UNTOUCHED
                && qubits[1..]
                    .iter()
                    .all(|q| self.last_touch[q.index()] == first)
                && out[first].qubits().len() == qubits.len()
                && operands_cancel(&out[first], &instr);
            if cancels {
                self.dead[first] = true;
                for q in qubits {
                    self.last_touch[q.index()] = UNTOUCHED;
                }
                changed = true;
            } else {
                for q in qubits {
                    self.last_touch[q.index()] = out.len();
                }
                out.push(instr);
                self.dead.push(false);
            }
        }
        if changed {
            let mut index = 0;
            out.retain(|_| {
                index += 1;
                !self.dead[index - 1]
            });
        }
        changed
    }
}

pub(crate) fn operands_cancel(prev: &Instruction, next: &Instruction) -> bool {
    if !prev.gate().cancels_with(next.gate()) {
        return false;
    }
    let (p, n) = (prev.qubits(), next.qubits());
    match next.gate() {
        // Symmetric two-qubit gates: operand order is irrelevant.
        Gate::Cz | Gate::Cp(_) | Gate::Swap => {
            (p[0] == n[0] && p[1] == n[1]) || (p[0] == n[1] && p[1] == n[0])
        }
        // Toffoli: controls commute, target must match.
        Gate::Ccx => {
            p[2] == n[2] && ((p[0] == n[0] && p[1] == n[1]) || (p[0] == n[1] && p[1] == n[0]))
        }
        // CCZ: fully symmetric — same qubit set in any order.
        Gate::Ccz => {
            let mut ps = [p[0].index(), p[1].index(), p[2].index()];
            let mut ns = [n[0].index(), n[1].index(), n[2].index()];
            ps.sort_unstable();
            ns.sort_unstable();
            ps == ns
        }
        // Fredkin: control must match, swapped pair is unordered.
        Gate::Cswap => {
            p[0] == n[0] && ((p[1] == n[1] && p[2] == n[2]) || (p[1] == n[2] && p[2] == n[1]))
        }
        // Everything else: exact operand match.
        _ => p == n,
    }
}

/// Merges each maximal run of single-qubit gates into one `u3` gate (or
/// nothing, when the run multiplies to the identity), using ZYZ
/// resynthesis. This is the pass Qiskit calls "single qubit gate
/// consolidation" (paper §5.2).
pub fn merge_single_qubit_runs(circuit: &Circuit) -> Circuit {
    rebuild(
        circuit,
        merge_runs(circuit.num_qubits(), circuit.instructions(), false),
    )
}

/// The single-qubit run pending on one qubit.
#[derive(Debug, Clone, Copy)]
enum Run {
    Empty,
    /// A run of at most [`WORD_GATES`] parameterless gates, one nibble
    /// each (see [`nibble`]), whose matrix is not formed unless another
    /// kind of gate joins it or it outgrows the word.
    Word {
        word: u64,
        len: u32,
    },
    /// A run of one parameterized gate, whose matrix is not formed unless
    /// another gate joins it.
    One(Gate),
    /// The product of any other run so far.
    Product(Mat2),
}

/// Merges single-qubit runs over `instrs`, dropping an emitted `u3` that
/// [`is_trivial`] when `drop_trivial` is set.
fn merge_runs(num_qubits: usize, instrs: &[Instruction], drop_trivial: bool) -> Vec<Instruction> {
    let mut emitter = RunEmitter {
        drop_trivial,
        memo: RunMemo::new(),
    };
    let mut pending = vec![Run::Empty; num_qubits];
    let mut out = Vec::with_capacity(instrs.len());
    for instr in instrs {
        let gate = instr.gate();
        if gate.is_single_qubit() && !gate.is_measurement() {
            let q = instr.qubit(0).index();
            pending[q] = match (pending[q], parameterless_slot(gate)) {
                (Run::Empty, Some(slot)) => Run::Word {
                    word: nibble(slot),
                    len: 1,
                },
                (Run::Empty, None) => Run::One(gate),
                (Run::Word { word, len }, Some(slot)) if len < WORD_GATES => Run::Word {
                    word: word | nibble(slot) << (4 * len),
                    len: len + 1,
                },
                (Run::Word { word, .. }, _) => {
                    Run::Product(mat2_mul(&gate_matrix(gate), &word_product(word)))
                }
                (Run::One(first), _) => {
                    Run::Product(mat2_mul(&gate_matrix(gate), &run_start(first)))
                }
                (Run::Product(acc), _) => Run::Product(mat2_mul(&gate_matrix(gate), &acc)),
            };
            continue;
        }
        for &q in instr.qubits() {
            let run = std::mem::replace(&mut pending[q.index()], Run::Empty);
            emitter.flush(&mut out, run, q);
        }
        out.push(*instr);
    }
    for (q, run) in pending.into_iter().enumerate() {
        emitter.flush(&mut out, run, Qubit::new(q));
    }
    out
}

/// The parameterless single-qubit gates, indexed by
/// [`parameterless_slot`].
const PARAMETERLESS: [Gate; 11] = [
    Gate::I,
    Gate::H,
    Gate::X,
    Gate::Y,
    Gate::Z,
    Gate::S,
    Gate::Sdg,
    Gate::T,
    Gate::Tdg,
    Gate::Sx,
    Gate::Sxdg,
];

/// How many gates one [`Run::Word`] holds: a nibble each in a `u64`.
const WORD_GATES: u32 = 16;

/// The index of `gate` in [`PARAMETERLESS`], or `None` for a gate with
/// parameters.
fn parameterless_slot(gate: Gate) -> Option<usize> {
    Some(match gate {
        Gate::I => 0,
        Gate::H => 1,
        Gate::X => 2,
        Gate::Y => 3,
        Gate::Z => 4,
        Gate::S => 5,
        Gate::Sdg => 6,
        Gate::T => 7,
        Gate::Tdg => 8,
        Gate::Sx => 9,
        Gate::Sxdg => 10,
        _ => return None,
    })
}

/// The nibble of the gate in `slot`: never zero, so a word's first zero
/// nibble ends its run.
fn nibble(slot: usize) -> u64 {
    slot as u64 + 1
}

fn gate_matrix(gate: Gate) -> Mat2 {
    single_qubit_matrix(gate).expect("every unitary single-qubit gate has a matrix")
}

/// The product of a run holding only `gate`. It is formed as `gate ·
/// identity`, the product every run starts from, because that product
/// can differ from the bare matrix in the sign of a zero entry, and the
/// sign reaches the resynthesized angles through `arg`.
fn run_start(gate: Gate) -> Mat2 {
    mat2_mul(&gate_matrix(gate), &MAT2_IDENTITY)
}

/// The product `g_k · … · (g_1 · identity)` of a packed run, formed in
/// the order the run's gates arrived, as an unpacked run would be.
fn word_product(mut word: u64) -> Mat2 {
    let mut acc = MAT2_IDENTITY;
    while word != 0 {
        let gate = PARAMETERLESS[(word & 0xf) as usize - 1];
        acc = mat2_mul(&gate_matrix(gate), &acc);
        word >>= 4;
    }
    acc
}

/// The key of a run of one parameterized gate: its kind and the exact
/// bits of its parameters. Bits, not `==`, so that each entry is what
/// that very gate resynthesizes to, whatever the arithmetic makes of a
/// signed zero or a NaN.
fn lone_key(gate: Gate) -> [u64; 4] {
    let bits = f64::to_bits;
    match gate {
        Gate::Rx(a) => [0, bits(a), 0, 0],
        Gate::Ry(a) => [1, bits(a), 0, 0],
        Gate::Rz(a) => [2, bits(a), 0, 0],
        Gate::U1(a) => [3, bits(a), 0, 0],
        Gate::U2(a, b) => [4, bits(a), bits(b), 0],
        Gate::U3(a, b, c) => [5, bits(a), bits(b), bits(c)],
        Gate::Xpow(a) => [6, bits(a), 0, 0],
        _ => unreachable!("{} is not a parameterized single-qubit gate", gate.name()),
    }
}

/// Packed runs below this word hold one or two gates, and index
/// [`RunMemo::short`] directly.
const SHORT_WORDS: u64 = 1 << 8;

/// The resynthesized `u3` of every distinct packed or one-gate run that
/// one [`merge_runs`] call has flushed. A lowered circuit has thousands
/// of runs but only a few dozen distinct ones; most hold one or two
/// gates, whose words index a table, so only the rest pay for hashing.
///
/// The keys come from the circuit, which may come from outside the
/// program, so the maps keep std's randomly keyed hasher.
struct RunMemo {
    /// Indexed by the word of a run of one or two gates.
    short: Vec<Option<Option<Gate>>>,
    /// Longer packed runs.
    words: HashMap<u64, Option<Gate>>,
    /// One-gate runs of a parameterized gate, by [`lone_key`].
    lone: HashMap<[u64; 4], Option<Gate>>,
}

impl RunMemo {
    fn new() -> Self {
        RunMemo {
            short: vec![None; SHORT_WORDS as usize],
            words: HashMap::new(),
            lone: HashMap::new(),
        }
    }
}

/// Turns finished runs into `u3` gates.
struct RunEmitter {
    drop_trivial: bool,
    memo: RunMemo,
}

impl RunEmitter {
    /// Appends the `u3` for `run` on `qubit` to `out`, unless the run is
    /// empty, the identity up to phase, or (when dropping) trivial.
    fn flush(&mut self, out: &mut Vec<Instruction>, run: Run, qubit: Qubit) {
        let drop_trivial = self.drop_trivial;
        let gate = match run {
            Run::Empty => return,
            Run::Word { word, .. } if word < SHORT_WORDS => *self.memo.short[word as usize]
                .get_or_insert_with(|| resynthesize(&word_product(word), drop_trivial)),
            Run::Word { word, .. } => *self
                .memo
                .words
                .entry(word)
                .or_insert_with(|| resynthesize(&word_product(word), drop_trivial)),
            Run::One(gate) => *self
                .memo
                .lone
                .entry(lone_key(gate))
                .or_insert_with(|| resynthesize(&run_start(gate), drop_trivial)),
            Run::Product(m) => resynthesize(&m, drop_trivial),
        };
        if let Some(gate) = gate {
            out.push(Instruction::new(gate, &[qubit]));
        }
    }
}

/// The `u3` equal to `m` up to phase, or `None` when `m` is the identity
/// up to phase (or the `u3` is trivial and `drop_trivial` is set).
fn resynthesize(m: &Mat2, drop_trivial: bool) -> Option<Gate> {
    if mat2_eq_up_to_phase(m, &MAT2_IDENTITY, 1e-10) {
        return None;
    }
    let z = zyz_decompose(m);
    let u3 = Gate::U3(z.theta, z.phi, z.lambda);
    (!(drop_trivial && is_trivial(u3))).then_some(u3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert, prop_assert_eq};
    use trios_sim::circuits_equivalent;

    const EPS: f64 = 1e-9;

    #[test]
    fn cancels_simple_pairs() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(0, 1).t(0).tdg(0).h(1);
        let opt = cancel_adjacent_inverses(&c);
        assert_eq!(opt.len(), 1);
        assert_eq!(opt.instructions()[0].gate(), Gate::H);
    }

    #[test]
    fn does_not_cancel_through_interleaving_gates() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).h(1).cx(0, 1);
        let opt = cancel_adjacent_inverses(&c);
        assert_eq!(opt.len(), 3);
    }

    #[test]
    fn does_not_cancel_reversed_cx() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(1, 0);
        assert_eq!(cancel_adjacent_inverses(&c).len(), 2);
    }

    #[test]
    fn cancels_symmetric_gates_in_either_order() {
        let mut c = Circuit::new(2);
        c.cz(0, 1).cz(1, 0).swap(0, 1).swap(1, 0);
        assert_eq!(cancel_adjacent_inverses(&c).len(), 0);
    }

    #[test]
    fn cancels_toffoli_with_commuted_controls() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2).ccx(1, 0, 2);
        assert_eq!(cancel_adjacent_inverses(&c).len(), 0);
        let mut d = Circuit::new(3);
        d.ccx(0, 1, 2).ccx(0, 2, 1); // different target: keep
        assert_eq!(cancel_adjacent_inverses(&d).len(), 2);
    }

    #[test]
    fn fixpoint_cancellation_unwraps_nested_pairs() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).cx(0, 1).h(0);
        assert_eq!(cancel_adjacent_inverses(&c).len(), 0);
    }

    #[test]
    fn rotation_pairs_cancel() {
        let mut c = Circuit::new(1);
        c.rz(0.7, 0).rz(-0.7, 0).rx(1.1, 0).rx(-1.1, 0);
        assert_eq!(cancel_adjacent_inverses(&c).len(), 0);
    }

    #[test]
    fn merge_collapses_runs_to_u3() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).h(0).s(0).cx(0, 1).h(1);
        let merged = merge_single_qubit_runs(&c);
        // One u3 for qubit 0's run, the CX, one u3 for the trailing H.
        assert_eq!(merged.len(), 3);
        assert!(circuits_equivalent(&c, &merged, EPS).unwrap());
    }

    #[test]
    fn merge_drops_identity_runs() {
        let mut c = Circuit::new(1);
        c.h(0).h(0).x(0).x(0);
        assert_eq!(merge_single_qubit_runs(&c).len(), 0);
    }

    #[test]
    fn merge_flushes_before_measure() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0);
        let merged = merge_single_qubit_runs(&c);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.instructions()[1].gate(), Gate::Measure);
    }

    #[test]
    fn remove_trivial_drops_zero_rotations() {
        let mut c = Circuit::new(2);
        c.rz(0.0, 0).u1(0.0, 1).cp(0.0, 0, 1).h(0);
        let cleaned = remove_trivial_gates(&c);
        assert_eq!(cleaned.len(), 1);
    }

    #[test]
    fn optimize_preserves_semantics_on_mixed_circuit() {
        let mut c = Circuit::new(4);
        c.h(0)
            .t(0)
            .tdg(0)
            .cx(0, 1)
            .cx(0, 1)
            .h(2)
            .s(2)
            .ccx(0, 1, 3)
            .swap(2, 3)
            .swap(2, 3)
            .rz(0.4, 1)
            .h(1)
            .cz(1, 2);
        let opt = optimize(&c, OptimizeOptions::default());
        assert!(opt.len() < c.len());
        assert!(circuits_equivalent(&c, &opt, EPS).unwrap());
    }

    #[test]
    fn optimize_none_is_identity() {
        let mut c = Circuit::new(2);
        c.h(0).h(0);
        let opt = optimize(&c, OptimizeOptions::none());
        assert_eq!(opt.len(), 2);
    }

    #[test]
    fn measure_never_cancels() {
        let mut c = Circuit::new(1);
        c.measure(0).measure(0);
        assert_eq!(cancel_adjacent_inverses(&c).len(), 2);
    }

    #[test]
    fn cancellation_candidate_resets_after_a_cancelled_pair() {
        // Round one cancels the CZ pair, which leaves qubits 0 and 1
        // without a candidate: the second CX is kept and cancels with the
        // last one instead of the first. A stack-based single pass would
        // cancel the middle CXs and leave `cx(2,3) · cx(0,1)`.
        let mut c = Circuit::new(4);
        c.cx(0, 1).cz(0, 1).cz(0, 1).cx(0, 1).cx(2, 3).cx(0, 1);
        let mut expected = Circuit::new(4);
        expected.cx(0, 1).cx(2, 3);
        assert_eq!(
            cancel_adjacent_inverses(&c).structural_hash(),
            expected.structural_hash()
        );
        for opt in [
            optimize(&c, OptimizeOptions::default()),
            reference::optimize(&c, OptimizeOptions::default()),
        ] {
            assert_eq!(opt.structural_hash(), expected.structural_hash());
        }
    }

    #[test]
    fn emitted_trivial_u3_is_dropped_only_when_removing_trivial_gates() {
        // Off the identity by more than the merge tolerance, yet its
        // resynthesis is u3(0, 0, 0); products of real gates never land
        // here, so the drop is checked on the kernel directly.
        let off = [
            [trios_sim::C64::ONE, trios_sim::C64::ZERO],
            [trios_sim::C64::ZERO, trios_sim::C64::real(1.0 + 1e-9)],
        ];
        assert_eq!(resynthesize(&off, false), Some(Gate::U3(0.0, 0.0, 0.0)));
        assert_eq!(resynthesize(&off, true), None);
    }

    #[test]
    fn one_gate_runs_are_memoized_by_parameter_bits() {
        // Resynthesis starts from `g · identity`, whose sums turn a signed
        // zero into +0.0, so no output shows whether `0.0` and `-0.0`
        // shared an entry. The memo still keys by bits: only then is each
        // entry what resynthesizing its own run gives, without relying on
        // that normalization.
        let mut emitter = RunEmitter {
            drop_trivial: false,
            memo: RunMemo::new(),
        };
        let mut out = Vec::new();
        for gate in [
            Gate::U3(0.7, 0.0, 0.7),
            Gate::U3(0.7, -0.0, 0.7),
            Gate::U3(0.7, 0.0, 0.7),
            Gate::Rz(0.0),
            Gate::Rz(-0.0),
            Gate::U2(-0.0, 0.7),
        ] {
            emitter.flush(&mut out, Run::One(gate), Qubit::new(0));
        }
        assert_eq!(emitter.memo.lone.len(), 5);
        assert_eq!(out.len(), 4, "the two rz(±0) runs are the identity");
    }

    /// One instruction's mnemonic, exact parameter bits and operands.
    type InstructionBits = (&'static str, Vec<u64>, Vec<usize>);

    /// The width, name and every instruction's bits of `c`.
    fn instruction_bits(c: &Circuit) -> (usize, String, Vec<InstructionBits>) {
        let instrs = c
            .iter()
            .map(|i| {
                let params = i.gate().params().iter().map(|p| p.to_bits()).collect();
                let qubits = i.qubits().iter().map(|q| q.index()).collect();
                (i.gate().name(), params, qubits)
            })
            .collect();
        (c.num_qubits(), c.name().to_string(), instrs)
    }

    /// The options whose five flags are the low bits of `bits`.
    fn options_from_bits(bits: u8) -> OptimizeOptions {
        OptimizeOptions {
            cancel_inverses: bits & 1 != 0,
            merge_single_qubit: bits & 2 != 0,
            remove_trivial: bits & 4 != 0,
            cancel_commuting: bits & 8 != 0,
            merge_rotations: bits & 16 != 0,
        }
    }

    const ANGLES: [f64; 8] = [
        0.0,
        -0.0,
        1e-13,
        0.7,
        -0.7,
        std::f64::consts::FRAC_PI_2,
        -std::f64::consts::FRAC_PI_2,
        std::f64::consts::PI,
    ];

    /// Gate kind `kind` (one per [`Gate`] variant) with angles drawn from
    /// [`ANGLES`] starting at `angle`.
    fn gate_of_kind(kind: usize, angle: usize) -> Gate {
        let a = |k: usize| ANGLES[(angle + k) % ANGLES.len()];
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
            11 => Gate::Rx(a(0)),
            12 => Gate::Ry(a(0)),
            13 => Gate::Rz(a(0)),
            14 => Gate::U1(a(0)),
            15 => Gate::U2(a(0), a(3)),
            16 => Gate::U3(a(0), a(2), a(5)),
            17 => Gate::Xpow(a(0)),
            18 => Gate::Cxpow(a(0)),
            19 => Gate::Cx,
            20 => Gate::Cz,
            21 => Gate::Cp(a(0)),
            22 => Gate::Swap,
            23 => Gate::Ccx,
            24 => Gate::Ccz,
            25 => Gate::Cswap,
            _ => Gate::Measure,
        }
    }

    const GATE_KINDS: usize = 27;

    /// Builds a circuit over `width` (≥ 3) qubits from drawn ops. Each op
    /// is `(kind, qubit picks, angle, mode)`: mode 1 follows the gate with
    /// its inverse on permuted operands (flipped CZ/CP/SWAP/CX, swapped
    /// Toffoli controls, rotated CCZ, swapped Fredkin pair), mode 2 with
    /// its inverse on the same operands, mode 3 with a zero rotation and
    /// then the inverse. Mode 4 follows it with a run of 15 to 22
    /// parameterless gates on its first operand, around the 16 one packed
    /// run holds; mode 5 with a short run on that qubit that mixes
    /// parameterized gates (angles from [`ANGLES`], signed zeros
    /// included) into parameterless ones. `mirror` appends the inverse of
    /// the whole circuit, which nests pairs that take several rounds to
    /// cancel.
    fn random_circuit(
        width: usize,
        ops: &[(usize, usize, usize, usize, usize, u8)],
        mirror: bool,
    ) -> Circuit {
        let mut c = Circuit::with_name(width, "random");
        for &(kind, p0, p1, p2, angle, mode) in ops {
            let gate = gate_of_kind(kind, angle);
            let a = p0 % width;
            let b = (a + 1 + p1 % (width - 1)) % width;
            let c_q = (0..width)
                .filter(|&q| q != a && q != b)
                .nth(p2 % (width - 2))
                .expect("width is at least 3");
            let qubits = [a, b, c_q];
            let operands = &qubits[..gate.arity()];
            c.apply(gate, operands);
            let permuted: Vec<usize> = match gate {
                Gate::Cx | Gate::Cz | Gate::Cp(_) | Gate::Swap => vec![b, a],
                Gate::Ccx => vec![b, a, c_q],
                Gate::Ccz => vec![c_q, a, b],
                Gate::Cswap => vec![a, c_q, b],
                _ => operands.to_vec(),
            };
            let inverse = gate.inverse().unwrap_or(Gate::Measure);
            match mode {
                1 => {
                    c.apply(inverse, &permuted);
                }
                2 => {
                    c.apply(inverse, operands);
                }
                3 => {
                    c.rz(0.0, a).apply(inverse, operands);
                }
                4 => {
                    for k in 0..15 + (p1 + 2 * p2 + angle) % 8 {
                        c.apply(gate_of_kind((kind + 3 * k) % 11, 0), &[a]);
                    }
                }
                5 => {
                    let param = |k: usize| gate_of_kind(11 + (kind + k) % 7, angle + k);
                    c.apply(gate_of_kind(kind % 11, 0), &[a])
                        .apply(param(0), &[a])
                        .apply(gate_of_kind((kind + 7) % 11, 0), &[a])
                        .apply(param(1), &[a]);
                }
                _ => {}
            }
        }
        if mirror {
            let forward: Vec<Instruction> = c.instructions().to_vec();
            for instr in forward.iter().rev() {
                if let Some(inverse) = instr.inverse() {
                    c.push(inverse);
                }
            }
        }
        c
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(192))]

        /// The one-kernel optimizer and its single-step wrappers return
        /// exactly what the step-by-step reference returns, for every
        /// combination of options: same structural hash, same parameter
        /// bits, same name.
        #[test]
        fn optimize_is_bit_identical_to_the_step_by_step_reference(
            width in 3usize..6,
            ops in proptest::collection::vec(
                (0usize..GATE_KINDS, 0usize..5, 0usize..4, 0usize..3, 0usize..ANGLES.len(), 0u8..6),
                0..40,
            ),
            mirror in proptest::any::<bool>(),
        ) {
            let circuit = random_circuit(width, &ops, mirror);
            for bits in 0..32u8 {
                let options = options_from_bits(bits);
                let fast = optimize(&circuit, options);
                let slow = reference::optimize(&circuit, options);
                prop_assert!(
                    fast.structural_hash() == slow.structural_hash(),
                    "structural hash differs under {options:?}"
                );
                prop_assert_eq!(instruction_bits(&fast), instruction_bits(&slow));
            }
            prop_assert_eq!(
                instruction_bits(&remove_trivial_gates(&circuit)),
                instruction_bits(&reference::remove_trivial_gates(&circuit))
            );
            prop_assert_eq!(
                instruction_bits(&cancel_adjacent_inverses(&circuit)),
                instruction_bits(&reference::cancel_adjacent_inverses(&circuit))
            );
            prop_assert_eq!(
                instruction_bits(&merge_single_qubit_runs(&circuit)),
                instruction_bits(&reference::merge_single_qubit_runs(&circuit))
            );
        }
    }

    /// The optimizer as it was written step by step: every step builds a
    /// new circuit, cancellation rounds collect into `Option` slots. Kept
    /// as the oracle the kernels are checked against.
    mod reference {
        use crate::operands_cancel;
        use trios_ir::{Circuit, Gate, Instruction, Qubit};
        use trios_sim::{
            mat2_eq_up_to_phase, mat2_mul, single_qubit_matrix, zyz_decompose, Mat2, MAT2_IDENTITY,
        };

        use super::OptimizeOptions;

        pub(super) fn optimize(circuit: &Circuit, options: OptimizeOptions) -> Circuit {
            let mut current = circuit.clone();
            if options.remove_trivial {
                current = remove_trivial_gates(&current);
            }
            if options.cancel_inverses {
                current = cancel_adjacent_inverses(&current);
            }
            if options.cancel_commuting {
                current = crate::cancel_commuting_inverses(&current);
            }
            if options.merge_rotations {
                current = crate::merge_commuting_rotations(&current);
                if options.cancel_commuting {
                    current = crate::cancel_commuting_inverses(&current);
                }
            }
            if options.merge_single_qubit {
                current = merge_single_qubit_runs(&current);
                if options.remove_trivial {
                    current = remove_trivial_gates(&current);
                }
            }
            current
        }

        pub(super) fn remove_trivial_gates(circuit: &Circuit) -> Circuit {
            const EPS: f64 = 1e-12;
            let mut out = Circuit::with_name(circuit.num_qubits(), circuit.name().to_string());
            for instr in circuit.iter() {
                let trivial = match instr.gate() {
                    Gate::I => true,
                    Gate::Rx(a) | Gate::Ry(a) | Gate::Rz(a) | Gate::U1(a) | Gate::Cp(a) => {
                        a.abs() < EPS
                    }
                    Gate::Xpow(t) | Gate::Cxpow(t) => t.abs() < EPS,
                    Gate::U3(t, p, l) => t.abs() < EPS && (p + l).abs() < EPS,
                    _ => false,
                };
                if !trivial {
                    out.push(*instr);
                }
            }
            out
        }

        pub(super) fn cancel_adjacent_inverses(circuit: &Circuit) -> Circuit {
            let mut instrs: Vec<Instruction> = circuit.instructions().to_vec();
            loop {
                let (next, changed) = cancel_pass(circuit.num_qubits(), &instrs);
                instrs = next;
                if !changed {
                    break;
                }
            }
            let mut out = Circuit::from_instructions(circuit.num_qubits(), instrs)
                .expect("cancellation preserves validity");
            out.set_name(circuit.name());
            out
        }

        fn cancel_pass(num_qubits: usize, instrs: &[Instruction]) -> (Vec<Instruction>, bool) {
            let mut out: Vec<Option<Instruction>> = Vec::with_capacity(instrs.len());
            let mut last_touch: Vec<Option<usize>> = vec![None; num_qubits];
            let mut changed = false;
            for instr in instrs {
                let qubits = instr.qubits();
                let candidate = {
                    let first = last_touch[qubits[0].index()];
                    if qubits.iter().all(|q| last_touch[q.index()] == first) {
                        first
                    } else {
                        None
                    }
                };
                let cancelled =
                    candidate
                        .and_then(|i| out[i].map(|prev| (i, prev)))
                        .filter(|(_, prev)| {
                            prev.qubits().len() == qubits.len() && operands_cancel(prev, instr)
                        });
                match cancelled {
                    Some((i, _)) => {
                        out[i] = None;
                        for q in qubits {
                            last_touch[q.index()] = None;
                        }
                        changed = true;
                    }
                    None => {
                        out.push(Some(*instr));
                        let idx = out.len() - 1;
                        for q in qubits {
                            last_touch[q.index()] = Some(idx);
                        }
                    }
                }
            }
            (out.into_iter().flatten().collect(), changed)
        }

        pub(super) fn merge_single_qubit_runs(circuit: &Circuit) -> Circuit {
            let n = circuit.num_qubits();
            let mut out = Circuit::with_name(n, circuit.name().to_string());
            let mut pending: Vec<Option<Mat2>> = vec![None; n];
            let flush = |out: &mut Circuit, pending: &mut Vec<Option<Mat2>>, q: usize| {
                if let Some(m) = pending[q].take() {
                    if !mat2_eq_up_to_phase(&m, &MAT2_IDENTITY, 1e-10) {
                        let z = zyz_decompose(&m);
                        out.push(Instruction::new(
                            Gate::U3(z.theta, z.phi, z.lambda),
                            &[Qubit::new(q)],
                        ));
                    }
                }
            };
            for instr in circuit.iter() {
                let gate = instr.gate();
                if gate.is_single_qubit() && !gate.is_measurement() {
                    if let Some(m) = single_qubit_matrix(gate) {
                        let q = instr.qubit(0).index();
                        let acc = pending[q].unwrap_or(MAT2_IDENTITY);
                        pending[q] = Some(mat2_mul(&m, &acc));
                        continue;
                    }
                }
                for q in instr.qubits() {
                    flush(&mut out, &mut pending, q.index());
                }
                out.push(*instr);
            }
            for q in 0..n {
                flush(&mut out, &mut pending, q);
            }
            out
        }
    }
}
