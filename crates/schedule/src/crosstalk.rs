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
use trios_ir::Circuit;
use trios_topology::Topology;

/// Two scheduled two-qubit gates conflict when their time intervals
/// overlap and some coupling edge connects one gate's qubits to the
/// other's (sharing a qubit is *not* crosstalk — those gates cannot
/// overlap at all).
fn edges_coupled(topology: &Topology, a: &[usize], b: &[usize]) -> bool {
    a.iter()
        .any(|&qa| b.iter().any(|&qb| topology.are_adjacent(qa, qb)))
}

fn is_two_qubit_op(op: &ScheduledOp) -> bool {
    op.instruction.gate().arity() == 2
}

/// Counts the pairs of simultaneous two-qubit gates on coupled edges in
/// `schedule`. Each conflicting pair is counted once.
///
/// The circuit must be routed (gates act on physical qubits of
/// `topology`).
pub fn crosstalk_conflicts(schedule: &Schedule, topology: &Topology) -> usize {
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
                continue; // shared qubit: dependency, not crosstalk
            }
            if edges_coupled(topology, &qa, &qb) {
                conflicts += 1;
            }
        }
    }
    conflicts
}

/// ASAP scheduling with crosstalk avoidance: a two-qubit gate additionally
/// waits until no *running* two-qubit gate sits on a coupled edge.
///
/// The result is conflict-free by construction
/// ([`crosstalk_conflicts`] `== 0`) at the cost of a longer total
/// duration; single-qubit gates and measurements are never delayed.
pub fn schedule_crosstalk_aware(
    circuit: &Circuit,
    durations: &GateDurations,
    topology: &Topology,
) -> Schedule {
    let mut qubit_free = vec![0.0f64; circuit.num_qubits()];
    // Running two-qubit ops as (end_us, qubits).
    let mut placed_2q: Vec<(f64, f64, Vec<usize>)> = Vec::new();
    let mut ops = Vec::with_capacity(circuit.len());
    let mut total = 0.0f64;
    for instr in circuit.iter() {
        let qubits: Vec<usize> = instr.qubits().iter().map(|q| q.index()).collect();
        let mut start = qubits.iter().map(|&q| qubit_free[q]).fold(0.0f64, f64::max);
        let duration = durations.of(instr.gate());
        if instr.gate().arity() == 2 {
            // Push the start past every coupled two-qubit gate that would
            // still be running.
            loop {
                let conflict = placed_2q
                    .iter()
                    .filter(|(s, e, qs)| {
                        start < *e - 1e-12
                            && *s < start + duration - 1e-12
                            && !qs.iter().any(|q| qubits.contains(q))
                            && edges_coupled(topology, qs, &qubits)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule_asap;
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
}
