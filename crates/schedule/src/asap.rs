//! ASAP (as-soon-as-possible) scheduling.

use crate::GateDurations;
use trios_ir::{Circuit, Instruction};

/// One scheduled instruction with its start time and duration (µs).
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledOp {
    /// The instruction.
    pub instruction: Instruction,
    /// Start time in µs from circuit start.
    pub start_us: f64,
    /// Duration in µs.
    pub duration_us: f64,
}

impl ScheduledOp {
    /// End time in µs.
    pub fn end_us(&self) -> f64 {
        self.start_us + self.duration_us
    }
}

/// The result of scheduling: per-op start times and the total duration Δ
/// that feeds the decoherence term of the success model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    ops: Vec<ScheduledOp>,
    total_duration_us: f64,
}

impl Schedule {
    /// Assembles a schedule from already-computed parts (used by the ALAP
    /// scheduler).
    pub(crate) fn from_parts(ops: Vec<ScheduledOp>, total_duration_us: f64) -> Self {
        Schedule {
            ops,
            total_duration_us,
        }
    }

    /// The scheduled operations, in circuit order.
    pub fn ops(&self) -> &[ScheduledOp] {
        &self.ops
    }

    /// Total program duration Δ (µs): the paper's §2.6 coherence input.
    pub fn total_duration_us(&self) -> f64 {
        self.total_duration_us
    }
}

/// Schedules `circuit` as-soon-as-possible: each instruction starts when
/// the last instruction touching any of its qubits finishes. Gates on
/// disjoint qubits run in parallel (paper §2.3: "gates can often run in
/// parallel").
pub fn schedule_asap(circuit: &Circuit, durations: &GateDurations) -> Schedule {
    let mut ops = Vec::with_capacity(circuit.len());
    let total = walk_asap(circuit, durations, |instr, start, duration| {
        ops.push(ScheduledOp {
            instruction: *instr,
            start_us: start,
            duration_us: duration,
        })
    });
    Schedule {
        ops,
        total_duration_us: total,
    }
}

/// The total duration Δ of [`schedule_asap`] without building the
/// [`Schedule`]: one clock per qubit, nothing per instruction. Both run
/// the same walk, so the totals are equal bit for bit.
pub fn asap_total_us(circuit: &Circuit, durations: &GateDurations) -> f64 {
    walk_asap(circuit, durations, |_, _, _| {})
}

/// Starts each instruction when its last operand is free, hands
/// `(instruction, start, duration)` to `visit`, and returns the total.
fn walk_asap(
    circuit: &Circuit,
    durations: &GateDurations,
    mut visit: impl FnMut(&Instruction, f64, f64),
) -> f64 {
    let mut qubit_free = vec![0.0f64; circuit.num_qubits()];
    let mut total = 0.0f64;
    for instr in circuit.iter() {
        let start = instr
            .qubits()
            .iter()
            .map(|q| qubit_free[q.index()])
            .fold(0.0, f64::max);
        let duration = durations.of(instr.gate());
        let end = start + duration;
        for q in instr.qubits() {
            qubit_free[q.index()] = end;
        }
        total = total.max(end);
        visit(instr, start, duration);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    const D1: f64 = 0.07;
    const D2: f64 = 0.559;

    fn durations() -> GateDurations {
        GateDurations::johannesburg()
    }

    #[test]
    fn empty_circuit_has_zero_duration() {
        let s = schedule_asap(&Circuit::new(3), &durations());
        assert_eq!(s.total_duration_us(), 0.0);
        assert!(s.ops().is_empty());
    }

    #[test]
    fn serial_chain_sums_durations() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).h(1);
        let s = schedule_asap(&c, &durations());
        assert!((s.total_duration_us() - (D1 + D2 + D1)).abs() < 1e-12);
        assert_eq!(s.ops()[1].start_us, D1);
        assert!((s.ops()[2].start_us - (D1 + D2)).abs() < 1e-12);
    }

    #[test]
    fn disjoint_gates_run_in_parallel() {
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3);
        let s = schedule_asap(&c, &durations());
        assert_eq!(s.ops()[0].start_us, 0.0);
        assert_eq!(s.ops()[1].start_us, 0.0);
        assert!((s.total_duration_us() - D2).abs() < 1e-12);
    }

    #[test]
    fn gate_waits_for_latest_operand() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).h(2).cx(1, 2);
        let s = schedule_asap(&c, &durations());
        // cx(1,2) must wait for cx(0,1) (ends at D2), not just h(2) (D1).
        assert!((s.ops()[2].start_us - D2).abs() < 1e-12);
    }

    #[test]
    fn swap_counts_as_three_cx_durations() {
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        let s = schedule_asap(&c, &durations());
        assert!((s.total_duration_us() - 3.0 * D2).abs() < 1e-12);
    }

    #[test]
    fn measurement_extends_duration() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0);
        let s = schedule_asap(&c, &durations());
        assert!((s.total_duration_us() - (D1 + 3.5)).abs() < 1e-12);
    }

    #[test]
    fn total_alone_matches_the_schedule() {
        let mut c = Circuit::new(4);
        c.h(0)
            .cx(0, 1)
            .swap(1, 2)
            .ccx(0, 2, 3)
            .h(3)
            .measure(1)
            .measure(3);
        assert_eq!(
            asap_total_us(&c, &durations()).to_bits(),
            schedule_asap(&c, &durations())
                .total_duration_us()
                .to_bits()
        );
        assert_eq!(asap_total_us(&Circuit::new(3), &durations()), 0.0);
    }
}
