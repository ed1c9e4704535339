//! Per-compilation instrumentation: [`CompileStats`] (static metrics of
//! the output) and [`CompileReport`] (per-pass wall times and gate-count
//! deltas).

use std::fmt;
use std::time::Duration;
use trios_ir::GateCounts;

/// Static metrics of a compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub struct CompileStats {
    /// SWAPs inserted by routing (before lowering to CNOTs).
    pub swap_count: usize,
    /// Two-qubit gates in the final circuit — the paper's primary metric.
    pub two_qubit_gates: usize,
    /// Single-qubit gates in the final circuit.
    pub one_qubit_gates: usize,
    /// Measurements in the final circuit.
    pub measurements: usize,
    /// Gate-layer depth of the final circuit.
    pub depth: usize,
    /// ASAP-scheduled duration Δ (µs) under Johannesburg gate times
    /// ([`SchedulePass::DURATIONS`](crate::SchedulePass::DURATIONS)).
    pub duration_us: f64,
    /// Mean gather distance over the trios the router gathered — the
    /// paper's per-Toffoli communication metric, averaged. `None` when the
    /// routing strategy recorded no trio events (no three-qubit gates, or
    /// a decompose-first router).
    pub mean_gather_distance: Option<f64>,
}

impl CompileStats {
    /// Assembles stats from their components (the struct is
    /// `#[non_exhaustive]`, so downstream crates construct it here).
    /// `mean_gather_distance` starts as `None`; the pipeline fills it from
    /// the router trace.
    pub fn new(swap_count: usize, counts: GateCounts, depth: usize, duration_us: f64) -> Self {
        CompileStats {
            swap_count,
            two_qubit_gates: counts.two_qubit,
            one_qubit_gates: counts.one_qubit,
            measurements: counts.measure,
            depth,
            duration_us,
            mean_gather_distance: None,
        }
    }
}

impl fmt::Display for CompileStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} two-qubit, {} one-qubit, {} measurements, {} SWAPs, depth {}, {:.3} µs",
            self.two_qubit_gates,
            self.one_qubit_gates,
            self.measurements,
            self.swap_count,
            self.depth,
            self.duration_us
        )
    }
}

/// Instrumentation of one pass execution.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct PassRecord {
    /// The pass name, as reported by [`Pass::name`](crate::Pass::name).
    pub pass: &'static str,
    /// Wall-clock time the pass took.
    pub wall_time: Duration,
    /// Gate counts entering the pass.
    pub gates_before: GateCounts,
    /// Gate counts leaving the pass.
    pub gates_after: GateCounts,
    /// Circuit depth entering the pass.
    pub depth_before: usize,
    /// Circuit depth leaving the pass.
    pub depth_after: usize,
}

impl PassRecord {
    /// Change in total instruction count (positive = the pass grew the
    /// circuit).
    pub fn total_delta(&self) -> isize {
        self.gates_after.total as isize - self.gates_before.total as isize
    }

    /// Change in two-qubit gate count.
    pub fn two_qubit_delta(&self) -> isize {
        self.gates_after.two_qubit as isize - self.gates_before.two_qubit as isize
    }

    /// Change in circuit depth.
    pub fn depth_delta(&self) -> isize {
        self.depth_after as isize - self.depth_before as isize
    }
}

impl fmt::Display for PassRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<20} {:>9.1?}  gates {:>5} -> {:<5} ({:+})  2q {:>5} -> {:<5} ({:+})  depth {:>4} -> {:<4} ({:+})",
            self.pass,
            self.wall_time,
            self.gates_before.total,
            self.gates_after.total,
            self.total_delta(),
            self.gates_before.two_qubit,
            self.gates_after.two_qubit,
            self.two_qubit_delta(),
            self.depth_before,
            self.depth_after,
            self.depth_delta(),
        )
    }
}

/// Everything a compilation run reports beyond its output circuit: one
/// [`PassRecord`] per executed pass plus the final [`CompileStats`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct CompileReport {
    /// One record per executed pass, in execution order.
    pub passes: Vec<PassRecord>,
    /// Static metrics of the final circuit.
    pub stats: CompileStats,
    /// Total wall-clock time across all passes.
    pub total_time: Duration,
}

impl CompileReport {
    /// Assembles a report from pass records and final stats.
    pub fn new(passes: Vec<PassRecord>, stats: CompileStats) -> Self {
        let total_time = passes.iter().map(|p| p.wall_time).sum();
        CompileReport {
            passes,
            stats,
            total_time,
        }
    }

    /// The record of the named pass, if it ran.
    pub fn pass(&self, name: &str) -> Option<&PassRecord> {
        self.passes.iter().find(|p| p.pass == name)
    }

    /// Names of the executed passes, in order.
    pub fn pass_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.passes.iter().map(|p| p.pass)
    }
}

impl fmt::Display for CompileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pass                  wall time  gate/2q/depth deltas")?;
        for record in &self.passes {
            writeln!(f, "{record}")?;
        }
        writeln!(f, "total: {:.1?}", self.total_time)?;
        write!(f, "final: {}", self.stats)
    }
}

#[cfg(feature = "serde")]
mod serde_impls {
    use super::{CompileReport, CompileStats, PassRecord};
    use serde::{Serialize, SerializeStruct, Serializer};

    impl Serialize for CompileStats {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            let mut s = serializer.serialize_struct("CompileStats", 7)?;
            s.serialize_field("swap_count", &self.swap_count)?;
            s.serialize_field("two_qubit_gates", &self.two_qubit_gates)?;
            s.serialize_field("one_qubit_gates", &self.one_qubit_gates)?;
            s.serialize_field("measurements", &self.measurements)?;
            s.serialize_field("depth", &self.depth)?;
            s.serialize_field("duration_us", &self.duration_us)?;
            s.serialize_field("mean_gather_distance", &self.mean_gather_distance)?;
            s.end()
        }
    }

    impl Serialize for PassRecord {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            let mut s = serializer.serialize_struct("PassRecord", 8)?;
            s.serialize_field("pass", self.pass)?;
            s.serialize_field("wall_time_s", &self.wall_time.as_secs_f64())?;
            s.serialize_field("gates_before", &self.gates_before.total)?;
            s.serialize_field("gates_after", &self.gates_after.total)?;
            s.serialize_field("two_qubit_before", &self.gates_before.two_qubit)?;
            s.serialize_field("two_qubit_after", &self.gates_after.two_qubit)?;
            s.serialize_field("depth_before", &self.depth_before)?;
            s.serialize_field("depth_after", &self.depth_after)?;
            s.end()
        }
    }

    impl Serialize for CompileReport {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            let mut s = serializer.serialize_struct("CompileReport", 3)?;
            s.serialize_field("passes", &self.passes)?;
            s.serialize_field("stats", &self.stats)?;
            s.serialize_field("total_time_s", &self.total_time.as_secs_f64())?;
            s.end()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(pass: &'static str, before: usize, after: usize) -> PassRecord {
        let gates_before = GateCounts {
            total: before,
            two_qubit: before / 2,
            ..GateCounts::default()
        };
        let gates_after = GateCounts {
            total: after,
            two_qubit: after / 2,
            ..GateCounts::default()
        };
        PassRecord {
            pass,
            wall_time: Duration::from_micros(120),
            gates_before,
            gates_after,
            depth_before: before,
            depth_after: after,
        }
    }

    #[test]
    fn deltas_are_signed() {
        let r = record("optimize", 30, 24);
        assert_eq!(r.total_delta(), -6);
        assert_eq!(r.two_qubit_delta(), -3);
        assert_eq!(r.depth_delta(), -6);
    }

    #[test]
    fn report_finds_passes_by_name() {
        let report = CompileReport::new(
            vec![record("route-trios", 10, 18), record("optimize", 18, 14)],
            CompileStats::default(),
        );
        assert_eq!(report.pass("optimize").unwrap().total_delta(), -4);
        assert!(report.pass("nonexistent").is_none());
        assert_eq!(
            report.pass_names().collect::<Vec<_>>(),
            ["route-trios", "optimize"]
        );
        assert_eq!(report.total_time, Duration::from_micros(240));
    }

    #[test]
    fn display_lists_every_pass() {
        let report = CompileReport::new(vec![record("lower", 5, 9)], CompileStats::default());
        let text = report.to_string();
        assert!(text.contains("lower"));
        assert!(text.contains("total:"));
        assert!(text.contains("final:"));
    }

    #[cfg(feature = "serde")]
    #[test]
    fn report_serializes_to_json() {
        let report = CompileReport::new(vec![record("route-trios", 4, 7)], CompileStats::default());
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"passes\":["));
        assert!(json.contains("\"pass\":\"route-trios\""));
        assert!(json.contains("\"stats\":{"));
        assert!(json.contains("\"two_qubit_gates\":0"));
    }
}
