//! Aggregated instrumentation for batch compilation: [`BatchReport`]
//! (per-pass wall times and gate-count deltas summed across a batch, plus
//! cache traffic) and [`BatchOutcome`] (the per-circuit results together
//! with that report).

use crate::report::CompileReport;
use crate::CompiledProgram;
use std::fmt;
use std::time::Duration;

/// Everything [`Compiler::compile_batch`](crate::Compiler::compile_batch)
/// returns: the per-circuit results in **input order**, plus the aggregate
/// [`BatchReport`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct BatchOutcome {
    /// One `(program, report)` per input circuit, index-aligned with the
    /// input slice regardless of which worker compiled what.
    pub results: Vec<(CompiledProgram, CompileReport)>,
    /// Aggregate statistics over the whole batch.
    pub report: BatchReport,
}

/// Per-pass statistics aggregated over every *freshly compiled* circuit of
/// a batch (cache hits replay stored reports and do not run passes, so
/// they are excluded here and counted in [`BatchReport::cache_hits`]).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct BatchPassStat {
    /// Pass name, as in [`PassRecord::pass`](crate::PassRecord).
    pub pass: &'static str,
    /// How many circuits actually ran this pass.
    pub runs: usize,
    /// Summed wall time across those runs.
    pub total_wall_time: Duration,
    /// The single slowest run.
    pub max_wall_time: Duration,
    /// Summed instruction-count delta (positive = the pass grew circuits).
    pub total_delta: isize,
    /// Summed two-qubit-gate delta.
    pub two_qubit_delta: isize,
}

/// Aggregate statistics of one batch compilation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct BatchReport {
    /// Number of circuits in the batch.
    pub circuits: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// End-to-end wall time of the batch call.
    pub wall_time: Duration,
    /// Summed per-pass compile time across all workers (≥ `wall_time`
    /// payload when parallelism is effective; excludes cache hits).
    pub compile_time: Duration,
    /// Per-pass aggregates in pipeline order, over fresh compiles only.
    pub passes: Vec<BatchPassStat>,
    /// Batch jobs answered from the cache.
    pub cache_hits: u64,
    /// Batch jobs compiled from scratch (when a cache was attached, these
    /// were inserted afterwards; without a cache every job counts here).
    pub cache_misses: u64,
    /// Total instructions entering compilation, summed over the batch.
    pub gates_in: usize,
    /// Total instructions in the compiled output, summed over the batch.
    pub gates_out: usize,
    /// Total two-qubit gates entering compilation.
    pub two_qubit_in: usize,
    /// Total two-qubit gates in the compiled output (the paper's primary
    /// metric, summed).
    pub two_qubit_out: usize,
}

impl BatchReport {
    /// Builds the aggregate from per-circuit reports. `fresh[i]` says
    /// whether `reports[i]` came from an actual compile (`true`) or a
    /// cache hit (`false`); pass aggregation covers fresh reports only,
    /// gate totals cover everything.
    pub(crate) fn aggregate(
        reports: &[(CompiledProgram, CompileReport)],
        fresh: &[bool],
        jobs: usize,
        wall_time: Duration,
    ) -> Self {
        debug_assert_eq!(reports.len(), fresh.len());
        let mut passes: Vec<BatchPassStat> = Vec::new();
        let mut compile_time = Duration::ZERO;
        let (mut gates_in, mut gates_out) = (0usize, 0usize);
        let (mut two_qubit_in, mut two_qubit_out) = (0usize, 0usize);
        for ((_, report), &is_fresh) in reports.iter().zip(fresh) {
            if let (Some(first), Some(last)) = (report.passes.first(), report.passes.last()) {
                gates_in += first.gates_before.total;
                gates_out += last.gates_after.total;
                two_qubit_in += first.gates_before.two_qubit;
                two_qubit_out += last.gates_after.two_qubit;
            }
            if !is_fresh {
                continue;
            }
            compile_time += report.total_time;
            for record in &report.passes {
                let stat = match passes.iter_mut().find(|s| s.pass == record.pass) {
                    Some(stat) => stat,
                    None => {
                        passes.push(BatchPassStat {
                            pass: record.pass,
                            runs: 0,
                            total_wall_time: Duration::ZERO,
                            max_wall_time: Duration::ZERO,
                            total_delta: 0,
                            two_qubit_delta: 0,
                        });
                        passes.last_mut().expect("just pushed")
                    }
                };
                stat.runs += 1;
                stat.total_wall_time += record.wall_time;
                stat.max_wall_time = stat.max_wall_time.max(record.wall_time);
                stat.total_delta += record.total_delta();
                stat.two_qubit_delta += record.two_qubit_delta();
            }
        }
        let cache_hits = fresh.iter().filter(|f| !**f).count() as u64;
        BatchReport {
            circuits: reports.len(),
            jobs,
            wall_time,
            compile_time,
            passes,
            cache_hits,
            cache_misses: reports.len() as u64 - cache_hits,
            gates_in,
            gates_out,
            two_qubit_in,
            two_qubit_out,
        }
    }

    /// The aggregate for the named pass, if any circuit ran it.
    pub fn pass(&self, name: &str) -> Option<&BatchPassStat> {
        self.passes.iter().find(|s| s.pass == name)
    }

    /// Fraction of batch jobs answered from the cache, or `None` for an
    /// empty batch.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }

    /// Throughput in circuits per second over the batch wall time, or
    /// `None` when the wall time is zero.
    pub fn circuits_per_second(&self) -> Option<f64> {
        let secs = self.wall_time.as_secs_f64();
        (secs > 0.0).then(|| self.circuits as f64 / secs)
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "batch: {} circuits on {} jobs in {:.1?} ({:.1?} compile time across workers)",
            self.circuits, self.jobs, self.wall_time, self.compile_time
        )?;
        writeln!(
            f,
            "cache: {} hits / {} misses{}",
            self.cache_hits,
            self.cache_misses,
            match self.cache_hit_rate() {
                Some(rate) => format!(" ({:.1}% hit rate)", rate * 100.0),
                None => String::new(),
            }
        )?;
        writeln!(
            f,
            "gates: {} -> {} ({:+}), two-qubit {} -> {} ({:+})",
            self.gates_in,
            self.gates_out,
            self.gates_out as isize - self.gates_in as isize,
            self.two_qubit_in,
            self.two_qubit_out,
            self.two_qubit_out as isize - self.two_qubit_in as isize,
        )?;
        if self.passes.is_empty() {
            let why = if self.circuits == 0 {
                "the batch was empty"
            } else {
                "all jobs served from cache"
            };
            return write!(f, "passes: none run ({why})");
        }
        writeln!(
            f,
            "{:<20} {:>5} {:>12} {:>12} {:>8} {:>8}",
            "pass", "runs", "total", "max", "Δgates", "Δ2q"
        )?;
        for stat in &self.passes {
            writeln!(
                f,
                "{:<20} {:>5} {:>12.1?} {:>12.1?} {:>8} {:>8}",
                stat.pass,
                stat.runs,
                stat.total_wall_time,
                stat.max_wall_time,
                format!("{:+}", stat.total_delta),
                format!("{:+}", stat.two_qubit_delta),
            )?;
        }
        write!(
            f,
            "throughput: {}",
            match self.circuits_per_second() {
                Some(rate) => format!("{rate:.1} circuits/s"),
                None => "n/a".into(),
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{CompileStats, PassRecord};
    use trios_ir::GateCounts;
    use trios_route::Layout;

    fn record(pass: &'static str, before: usize, after: usize, micros: u64) -> PassRecord {
        PassRecord {
            pass,
            wall_time: Duration::from_micros(micros),
            gates_before: GateCounts {
                total: before,
                two_qubit: before / 2,
                ..GateCounts::default()
            },
            gates_after: GateCounts {
                total: after,
                two_qubit: after / 2,
                ..GateCounts::default()
            },
            depth_before: before,
            depth_after: after,
        }
    }

    fn result(passes: Vec<PassRecord>) -> (CompiledProgram, CompileReport) {
        let program = CompiledProgram {
            circuit: trios_ir::Circuit::new(2),
            initial_layout: Layout::trivial(2, 2),
            final_layout: Layout::trivial(2, 2),
            stats: CompileStats::default(),
        };
        (program, CompileReport::new(passes, CompileStats::default()))
    }

    #[test]
    fn aggregate_sums_per_pass_and_totals() {
        let results = vec![
            result(vec![
                record("route", 10, 16, 100),
                record("optimize", 16, 12, 50),
            ]),
            result(vec![
                record("route", 20, 30, 300),
                record("optimize", 30, 28, 70),
            ]),
        ];
        let report = BatchReport::aggregate(&results, &[true, true], 2, Duration::from_micros(400));
        assert_eq!(report.circuits, 2);
        assert_eq!(report.cache_misses, 2);
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.gates_in, 30);
        assert_eq!(report.gates_out, 40);
        let route = report.pass("route").unwrap();
        assert_eq!(route.runs, 2);
        assert_eq!(route.total_wall_time, Duration::from_micros(400));
        assert_eq!(route.max_wall_time, Duration::from_micros(300));
        assert_eq!(route.total_delta, 16);
        let optimize = report.pass("optimize").unwrap();
        assert_eq!(optimize.total_delta, -6);
        assert_eq!(report.compile_time, Duration::from_micros(520));
        assert!(report.pass("nonexistent").is_none());
    }

    #[test]
    fn cache_hits_are_excluded_from_pass_stats_but_counted() {
        let results = vec![
            result(vec![record("route", 10, 16, 100)]),
            result(vec![record("route", 10, 16, 100)]),
        ];
        let report =
            BatchReport::aggregate(&results, &[true, false], 1, Duration::from_micros(150));
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.cache_misses, 1);
        assert_eq!(report.cache_hit_rate(), Some(0.5));
        assert_eq!(report.pass("route").unwrap().runs, 1);
        // Gate totals still cover both circuits.
        assert_eq!(report.gates_in, 20);
    }

    #[test]
    fn empty_batch_is_well_defined() {
        let report = BatchReport::aggregate(&[], &[], 1, Duration::ZERO);
        assert_eq!(report.circuits, 0);
        assert_eq!(report.cache_hit_rate(), None);
        assert_eq!(report.circuits_per_second(), None);
        assert!(report.to_string().contains("0 circuits"));
    }

    #[test]
    fn display_says_why_no_pass_ran() {
        let empty = BatchReport::aggregate(&[], &[], 1, Duration::ZERO);
        assert!(
            empty
                .to_string()
                .ends_with("passes: none run (the batch was empty)"),
            "{empty}"
        );
        let results = vec![result(vec![record("route", 10, 16, 100)])];
        let all_hits = BatchReport::aggregate(&results, &[false], 1, Duration::from_micros(5));
        assert!(
            all_hits
                .to_string()
                .ends_with("passes: none run (all jobs served from cache)"),
            "{all_hits}"
        );
    }

    #[test]
    fn display_covers_cache_and_passes() {
        let results = vec![result(vec![record("route", 10, 16, 100)])];
        let report = BatchReport::aggregate(&results, &[true], 4, Duration::from_millis(1));
        let text = report.to_string();
        assert!(text.contains("1 circuits on 4 jobs"));
        assert!(text.contains("cache: 0 hits / 1 misses"));
        assert!(text.contains("route"));
        assert!(text.contains("throughput:"));
    }
}
