//! Figure 11 — gemm_ncubed over different degrees of parallelism.
//!
//! More parallel accelerator tasks improve throughput until the shared
//! memory bandwidth saturates; the CapChecker's relative overhead shrinks
//! as the interconnect, not the checker, becomes the bottleneck.

use crate::render::{pct, speedup, table};
use crate::runner;
use capchecker::SystemVariant;
use hetsim::Cycles;
use machsuite::Benchmark;

/// The sweep of parallel task counts.
pub const PARALLELISM: [usize; 5] = [1, 2, 4, 8, 16];

/// One sweep point.
#[derive(Clone, Copy, Debug)]
pub struct ParallelismRow {
    /// Concurrent gemm_ncubed tasks.
    pub tasks: usize,
    /// Makespan without the checker.
    pub base_cycles: Cycles,
    /// Makespan with it.
    pub checked_cycles: Cycles,
    /// Relative checker overhead.
    pub overhead: f64,
    /// Throughput speedup over one CHERI-CPU task (work/time).
    pub throughput_speedup: f64,
    /// Interconnect utilization with the checker.
    pub bus_utilization: f64,
}

/// Measures one sweep point.
#[must_use]
pub fn row(tasks: usize) -> ParallelismRow {
    let bench = Benchmark::GemmNcubed;
    let base = runner::run_benchmark(bench, SystemVariant::CheriCpuAccel, tasks, 0x11);
    let checked = runner::run_benchmark(bench, SystemVariant::CheriCpuCheriAccel, tasks, 0x11);
    let cpu_single = runner::cycles(bench, SystemVariant::CheriCpu);
    ParallelismRow {
        tasks,
        base_cycles: base.cycles,
        checked_cycles: checked.cycles,
        overhead: (checked.cycles as f64 - base.cycles as f64) / base.cycles as f64,
        throughput_speedup: (tasks as f64 * cpu_single as f64) / checked.cycles as f64,
        bus_utilization: checked.bus_utilization,
    }
}

/// The full sweep, computed on `threads` workers; any thread count
/// produces the same rows in the same order.
#[must_use]
pub fn rows(threads: usize) -> Vec<ParallelismRow> {
    crate::fan_out(threads, PARALLELISM.len(), |i| row(PARALLELISM[i]))
}

/// Renders Figure 11, its sweep points computed on `threads` workers —
/// byte-identical output for any thread count.
#[must_use]
pub fn report(threads: usize) -> String {
    let table_rows: Vec<Vec<String>> = rows(threads)
        .into_iter()
        .map(|r| {
            vec![
                r.tasks.to_string(),
                r.base_cycles.to_string(),
                r.checked_cycles.to_string(),
                pct(r.overhead),
                speedup(r.throughput_speedup),
                pct(r.bus_utilization),
            ]
        })
        .collect();
    format!(
        "Figure 11: gemm_ncubed across degrees of parallelism\n\n{}",
        table(
            &[
                "Tasks",
                "ccpu+accel",
                "ccpu+caccel",
                "Overhead",
                "Throughput speedup",
                "Bus util"
            ],
            &table_rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_grows_with_parallelism() {
        let one = row(1);
        let four = row(4);
        assert!(four.throughput_speedup > one.throughput_speedup * 1.5);
    }

    #[test]
    fn bus_saturates_and_overhead_stays_small() {
        let sixteen = row(16);
        assert!(
            sixteen.bus_utilization > 0.8,
            "bus should saturate: {}",
            sixteen.bus_utilization
        );
        assert!(
            sixteen.overhead < 0.05,
            "overhead {} should be tiny at saturation",
            sixteen.overhead
        );
        assert!(
            sixteen.overhead <= row(1).overhead + 0.02,
            "overhead should not grow"
        );
    }
}
