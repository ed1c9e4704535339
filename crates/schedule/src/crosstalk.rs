//! Crosstalk analysis and crosstalk-aware scheduling.
//!
//! Superconducting devices pay an error penalty when two-qubit gates run
//! *simultaneously on coupled edges* (paper §2.3: parallel gates impose
//! "additional crosstalk error"; §2.4 cites Murali et al.'s software
//! mitigation). This module provides both sides of the trade:
//!
//! * [`crosstalk_conflicts`] counts the simultaneous adjacent-edge pairs
//!   in an existing schedule, and
//! * [`schedule_crosstalk_aware`] produces a schedule with **zero** such
//!   pairs by delaying a conflicting two-qubit gate until the neighboring
//!   gate finishes — buying error rate with duration, the same trade
//!   Murali et al. navigate.

use crate::{GateDurations, Schedule, ScheduledOp};
use trios_ir::{Circuit, Qubit};
use trios_topology::Topology;

/// The time tolerance of every overlap test (µs).
const EPS: f64 = 1e-12;

/// The two-qubit gates placed so far, listed per qubit as indices into the
/// schedule's ops, in placement order.
///
/// Gates that share a qubit run one after the other, so each list is
/// sorted by start and by end alike (for the non-negative durations of
/// every [`GateDurations`] preset), and the gates of one list that overlap
/// a time window form one run of it, found by binary search. Two gates
/// conflict exactly when one sits on a neighbor of the other's qubits, the
/// pair shares no qubit, and their times overlap: only the lists of those
/// neighbors need reading.
struct PlacedTwoQubit {
    on: Vec<Vec<usize>>,
}

impl PlacedTwoQubit {
    fn new(num_qubits: usize) -> Self {
        PlacedTwoQubit {
            on: vec![Vec::new(); num_qubits],
        }
    }

    /// Lists `ops[index]`, a two-qubit gate, on its qubits.
    fn place(&mut self, ops: &[ScheduledOp], index: usize) {
        for q in ops[index].instruction.qubits() {
            self.on[q.index()].push(index);
        }
    }

    /// Hands `visit` every placed gate on a qubit adjacent to one of
    /// `qubits` whose time overlaps `start..end`, where `start` is no
    /// earlier than the end of every placed gate on `qubits`. A gate
    /// adjacent through several couplings is handed over once per
    /// coupling. A gate sharing a qubit with `qubits` ended by `start`, so
    /// it overlaps nothing and is never handed over.
    fn coupled_overlapping(
        &self,
        ops: &[ScheduledOp],
        topology: &Topology,
        qubits: &[Qubit],
        (start, end): (f64, f64),
        mut visit: impl FnMut(usize, &ScheduledOp),
    ) {
        for q in qubits {
            if q.index() >= topology.num_qubits() {
                continue; // off the device: coupled to nothing
            }
            for n in topology.neighbors(q.index()) {
                if qubits.iter().any(|x| x.index() == n) {
                    continue; // every gate there ended by `start`
                }
                let placed = &self.on[n];
                let first = placed.partition_point(|&i| ops[i].end_us() - EPS <= start);
                for &i in &placed[first..] {
                    let op = &ops[i];
                    if op.start_us >= end - EPS {
                        break;
                    }
                    visit(i, op);
                }
            }
        }
    }
}

fn is_two_qubit_op(op: &ScheduledOp) -> bool {
    op.instruction.gate().arity() == 2
}

/// Counts the pairs of simultaneous two-qubit gates on coupled edges in
/// `schedule`. Each conflicting pair is counted once.
///
/// Two scheduled two-qubit gates conflict when their time intervals
/// overlap and some coupling edge connects one gate's qubits to the
/// other's (sharing a qubit is *not* crosstalk — those gates cannot
/// overlap at all). Each gate is tested only against the earlier gates on
/// its qubits' neighbors that overlap it, so the count costs about the
/// gate count times the device degree, not the square of the gate count.
///
/// The circuit must be routed (gates act on physical qubits of
/// `topology`).
pub fn crosstalk_conflicts(schedule: &Schedule, topology: &Topology) -> usize {
    let ops = schedule.ops();
    let width = ops
        .iter()
        .flat_map(|op| op.instruction.qubits())
        .map(|q| q.index() + 1)
        .fold(topology.num_qubits(), usize::max);
    let mut placed = PlacedTwoQubit::new(width);
    // The later gate of the pair that last counted each gate, so a gate
    // coupled to another through several edges counts once.
    let mut counted_by = vec![usize::MAX; ops.len()];
    let mut conflicts = 0usize;
    for (index, op) in ops.iter().enumerate() {
        if !is_two_qubit_op(op) {
            continue;
        }
        let window = (op.start_us, op.end_us());
        let qubits = op.instruction.qubits();
        placed.coupled_overlapping(ops, topology, qubits, window, |earlier, _| {
            if counted_by[earlier] != index {
                counted_by[earlier] = index;
                conflicts += 1;
            }
        });
        placed.place(ops, index);
    }
    conflicts
}

/// ASAP scheduling with crosstalk avoidance: a two-qubit gate additionally
/// waits until no *running* two-qubit gate sits on a coupled edge.
///
/// The result is conflict-free by construction
/// ([`crosstalk_conflicts`] `== 0`) at the cost of a longer total
/// duration; single-qubit gates and measurements are never delayed. A
/// two-qubit gate reads only the gates placed on its qubits' neighbors,
/// as [`crosstalk_conflicts`] does.
pub fn schedule_crosstalk_aware(
    circuit: &Circuit,
    durations: &GateDurations,
    topology: &Topology,
) -> Schedule {
    let mut qubit_free = vec![0.0f64; circuit.num_qubits()];
    let mut placed = PlacedTwoQubit::new(circuit.num_qubits().max(topology.num_qubits()));
    let mut ops: Vec<ScheduledOp> = Vec::with_capacity(circuit.len());
    let mut total = 0.0f64;
    for instr in circuit.iter() {
        let qubits = instr.qubits();
        let mut start = qubits
            .iter()
            .map(|q| qubit_free[q.index()])
            .fold(0.0f64, f64::max);
        let duration = durations.of(instr.gate());
        if instr.gate().arity() == 2 {
            // Push the start past every coupled two-qubit gate that would
            // still be running.
            loop {
                let mut conflict = None::<f64>;
                let window = (start, start + duration);
                placed.coupled_overlapping(&ops, topology, qubits, window, |_, op| {
                    let end = op.end_us();
                    conflict = Some(conflict.map_or(end, |c| c.max(end)));
                });
                match conflict {
                    Some(next_free) => start = next_free,
                    None => break,
                }
            }
        }
        let end = start + duration;
        for q in qubits {
            qubit_free[q.index()] = end;
        }
        total = total.max(end);
        ops.push(ScheduledOp {
            instruction: *instr,
            start_us: start,
            duration_us: duration,
        });
        if instr.gate().arity() == 2 {
            placed.place(&ops, ops.len() - 1);
        }
    }
    Schedule::from_parts(ops, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule_asap;
    use proptest::prop_assert_eq;
    use trios_ir::Circuit;
    use trios_topology::{grid, line};

    fn durations() -> GateDurations {
        GateDurations::johannesburg()
    }

    #[test]
    fn coupled_parallel_gates_are_detected() {
        // Line 0-1-2-3: CX(0,1) and CX(2,3) run in parallel under ASAP and
        // the edge (1,2) couples them.
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3);
        let topo = line(4);
        let asap = schedule_asap(&c, &durations());
        assert_eq!(crosstalk_conflicts(&asap, &topo), 1);
    }

    #[test]
    fn distant_parallel_gates_do_not_conflict() {
        // Line 0..6: CX(0,1) and CX(4,5) are separated by two idle qubits.
        let mut c = Circuit::new(6);
        c.cx(0, 1).cx(4, 5);
        let topo = line(6);
        let asap = schedule_asap(&c, &durations());
        assert_eq!(crosstalk_conflicts(&asap, &topo), 0);
    }

    #[test]
    fn sequential_gates_never_conflict() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(1, 2).cx(2, 3);
        let topo = line(4);
        let asap = schedule_asap(&c, &durations());
        assert_eq!(crosstalk_conflicts(&asap, &topo), 0);
    }

    #[test]
    fn aware_schedule_is_conflict_free_and_longer() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3);
        let topo = line(4);
        let asap = schedule_asap(&c, &durations());
        let aware = schedule_crosstalk_aware(&c, &durations(), &topo);
        assert_eq!(crosstalk_conflicts(&aware, &topo), 0);
        assert!(aware.total_duration_us() > asap.total_duration_us());
        // Serialization doubles the two-gate duration.
        assert!((aware.total_duration_us() - 2.0 * 0.559).abs() < 1e-12);
    }

    #[test]
    fn aware_schedule_keeps_uncoupled_parallelism() {
        let mut c = Circuit::new(6);
        c.cx(0, 1).cx(4, 5);
        let topo = line(6);
        let aware = schedule_crosstalk_aware(&c, &durations(), &topo);
        let asap = schedule_asap(&c, &durations());
        assert!(
            (aware.total_duration_us() - asap.total_duration_us()).abs() < 1e-12,
            "uncoupled gates must still run in parallel"
        );
    }

    #[test]
    fn aware_schedule_respects_dependencies() {
        let mut c = Circuit::new(5);
        c.cx(0, 1).cx(2, 3).cx(1, 2).h(4);
        let topo = grid(5, 1);
        let aware = schedule_crosstalk_aware(&c, &durations(), &topo);
        let ops = aware.ops();
        // cx(1,2) depends on both earlier gates.
        assert!(ops[2].start_us >= ops[0].end_us() - 1e-12);
        assert!(ops[2].start_us >= ops[1].end_us() - 1e-12);
        // The 1q gate is never delayed.
        assert_eq!(ops[3].start_us, 0.0);
    }

    #[test]
    fn a_pair_coupled_by_two_edges_counts_once() {
        // Grid 2×2 (0-1 over 2-3): CX(0,1) and CX(2,3) are coupled by the
        // edges 0-2 and 1-3.
        let topo = grid(2, 2);
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3);
        let asap = schedule_asap(&c, &durations());
        assert_eq!(crosstalk_conflicts(&asap, &topo), 1);
    }

    #[test]
    fn conflict_count_scales_with_packing() {
        // Three stacked rows of a 2×3 grid: the middle CX couples to both
        // others when all run simultaneously.
        let topo = grid(2, 3); // 0-1 / 2-3 / 4-5 with verticals
        let mut c = Circuit::new(6);
        c.cx(0, 1).cx(2, 3).cx(4, 5);
        let asap = schedule_asap(&c, &durations());
        assert_eq!(crosstalk_conflicts(&asap, &topo), 2);
        let aware = schedule_crosstalk_aware(&c, &durations(), &topo);
        assert_eq!(crosstalk_conflicts(&aware, &topo), 0);
        // Rows 0-1 and 4-5 are uncoupled and may still overlap.
        assert!((aware.total_duration_us() - 2.0 * 0.559).abs() < 1e-12);
    }

    /// The conflict count as first written: every pair of two-qubit ops.
    fn reference_conflicts(schedule: &Schedule, topology: &Topology) -> usize {
        let two_qubit: Vec<&ScheduledOp> = schedule
            .ops()
            .iter()
            .filter(|op| is_two_qubit_op(op))
            .collect();
        let mut conflicts = 0usize;
        for (i, a) in two_qubit.iter().enumerate() {
            for b in &two_qubit[i + 1..] {
                let overlap = a.start_us < b.end_us() - 1e-12 && b.start_us < a.end_us() - 1e-12;
                if !overlap {
                    continue;
                }
                let qa: Vec<usize> = a.instruction.qubits().iter().map(|q| q.index()).collect();
                let qb: Vec<usize> = b.instruction.qubits().iter().map(|q| q.index()).collect();
                if qa.iter().any(|q| qb.contains(q)) {
                    continue;
                }
                if reference_coupled(topology, &qa, &qb) {
                    conflicts += 1;
                }
            }
        }
        conflicts
    }

    fn reference_coupled(topology: &Topology, a: &[usize], b: &[usize]) -> bool {
        a.iter()
            .any(|&qa| b.iter().any(|&qb| topology.are_adjacent(qa, qb)))
    }

    /// The crosstalk-aware schedule as first written: each two-qubit gate
    /// scans every two-qubit gate placed before it.
    fn reference_aware(
        circuit: &Circuit,
        durations: &GateDurations,
        topology: &Topology,
    ) -> Schedule {
        let mut qubit_free = vec![0.0f64; circuit.num_qubits()];
        let mut placed_2q: Vec<(f64, f64, Vec<usize>)> = Vec::new();
        let mut ops = Vec::with_capacity(circuit.len());
        let mut total = 0.0f64;
        for instr in circuit.iter() {
            let qubits: Vec<usize> = instr.qubits().iter().map(|q| q.index()).collect();
            let mut start = qubits.iter().map(|&q| qubit_free[q]).fold(0.0f64, f64::max);
            let duration = durations.of(instr.gate());
            if instr.gate().arity() == 2 {
                loop {
                    let conflict = placed_2q
                        .iter()
                        .filter(|(s, e, qs)| {
                            start < *e - 1e-12
                                && *s < start + duration - 1e-12
                                && !qs.iter().any(|q| qubits.contains(q))
                                && reference_coupled(topology, qs, &qubits)
                        })
                        .map(|(_, e, _)| *e)
                        .fold(None::<f64>, |acc, e| Some(acc.map_or(e, |a: f64| a.max(e))));
                    match conflict {
                        Some(next_free) => start = next_free,
                        None => break,
                    }
                }
                placed_2q.push((start, start + duration, qubits.clone()));
            }
            let end = start + duration;
            for &q in &qubits {
                qubit_free[q] = end;
            }
            total = total.max(end);
            ops.push(ScheduledOp {
                instruction: *instr,
                start_us: start,
                duration_us: duration,
            });
        }
        Schedule::from_parts(ops, total)
    }

    /// One op's gate, operands, and exact start and duration bits.
    type OpBits = (String, Vec<usize>, u64, u64);

    /// Every op's bits, then the total's bits.
    fn schedule_bits(s: &Schedule) -> (Vec<OpBits>, u64) {
        let ops = s
            .ops()
            .iter()
            .map(|op| {
                (
                    op.instruction.gate().to_string(),
                    op.instruction.qubits().iter().map(|q| q.index()).collect(),
                    op.start_us.to_bits(),
                    op.duration_us.to_bits(),
                )
            })
            .collect();
        (ops, s.total_duration_us().to_bits())
    }

    /// Device `kind`: a line, a ring, a grid, a heavy-hex patch, a
    /// complete graph, or two disjoint lines.
    fn device(kind: usize) -> Topology {
        match kind {
            0 => line(7),
            1 => trios_topology::ring(8),
            2 => grid(3, 3),
            3 => trios_topology::heavy_hex_falcon27(),
            4 => Topology::complete("k6", 6),
            _ => Topology::from_edges("split", 6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap(),
        }
    }

    /// Durations `kind`: the paper's, whole numbers that make many
    /// intervals meet exactly, durations at the scale of the overlap
    /// tolerance, and zero-length one-qubit gates.
    fn durations_of(kind: usize) -> GateDurations {
        match kind {
            0 => GateDurations::johannesburg(),
            1 => GateDurations {
                one_qubit_us: 1.0,
                two_qubit_us: 2.0,
                measure_us: 3.0,
            },
            2 => GateDurations {
                one_qubit_us: 0.5 * EPS,
                two_qubit_us: EPS,
                measure_us: 2.0 * EPS,
            },
            _ => GateDurations {
                one_qubit_us: 0.0,
                two_qubit_us: 0.3,
                measure_us: 0.1,
            },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The per-qubit lists count exactly the conflicts the all-pairs
        /// scan counts, on ASAP and crosstalk-aware schedules, and the
        /// crosstalk-aware schedule is the all-pairs one bit for bit.
        #[test]
        fn neighbor_lists_match_the_all_pairs_scans(
            device_kind in 0usize..6,
            durations_kind in 0usize..4,
            ops in proptest::collection::vec((0usize..8, 0usize..64, 0usize..64, 0usize..64), 0..80),
        ) {
            let topo = device(device_kind);
            let n = topo.num_qubits();
            let mut c = Circuit::new(n);
            for (kind, a, b, d) in ops {
                let a = a % n;
                let b = (a + 1 + b % (n - 1)) % n;
                let d = (0..n).filter(|&q| q != a && q != b).nth(d % (n - 2)).unwrap();
                // Two-qubit gates mostly on couplings, as routed programs
                // have them, and sometimes anywhere.
                let b = match topo.neighbors(a).nth(kind) {
                    Some(neighbor) if kind < 4 => neighbor,
                    _ => b,
                };
                let d = if d == b { a } else { d };
                match kind {
                    0 | 1 => c.cx(a, b),
                    2 => c.swap(a, b),
                    3 => c.cz(b, a),
                    4 => c.h(a),
                    5 => c.measure(a),
                    6 if d != a => c.ccx(a, b, d),
                    _ => c.cx(a, b),
                };
            }
            let durations = durations_of(durations_kind);
            let asap = schedule_asap(&c, &durations);
            prop_assert_eq!(crosstalk_conflicts(&asap, &topo), reference_conflicts(&asap, &topo));
            let aware = schedule_crosstalk_aware(&c, &durations, &topo);
            let expected = reference_aware(&c, &durations, &topo);
            prop_assert_eq!(schedule_bits(&aware), schedule_bits(&expected));
            prop_assert_eq!(crosstalk_conflicts(&aware, &topo), 0);
            prop_assert_eq!(reference_conflicts(&aware, &topo), 0);
        }
    }
}
