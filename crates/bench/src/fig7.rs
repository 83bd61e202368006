//! Figure 7 — accelerator speedup on the proposed system.
//!
//! Speedup of the protected accelerator (`ccpu+caccel`) over the CHERI
//! CPU (`ccpu`) per benchmark. The paper's shape: backprop and viterbi
//! above 2000×, most benchmarks comfortably above 1×, and the
//! memory-bound four (md_knn, stencil2d, bfs_bulk, bfs_queue) below 1×.

use crate::render;
use crate::runner;
use capchecker::SystemVariant;
use hetsim::Cycles;
use machsuite::Benchmark;

/// One bar of Figure 7.
#[derive(Clone, Copy, Debug)]
pub struct SpeedupRow {
    /// Benchmark.
    pub bench: Benchmark,
    /// `ccpu` cycles.
    pub cpu_cycles: Cycles,
    /// `ccpu+caccel` cycles.
    pub accel_cycles: Cycles,
    /// The speedup factor.
    pub speedup: f64,
}

/// Computes one row.
#[must_use]
pub fn row(bench: Benchmark) -> SpeedupRow {
    let cpu_cycles = runner::cycles(bench, SystemVariant::CheriCpu);
    let accel_cycles = runner::cycles(bench, SystemVariant::CheriCpuCheriAccel);
    SpeedupRow {
        bench,
        cpu_cycles,
        accel_cycles,
        speedup: cpu_cycles as f64 / accel_cycles as f64,
    }
}

/// All 19 rows, computed on `threads` workers; any thread count produces
/// the same rows in the same order.
#[must_use]
pub fn rows(threads: usize) -> Vec<SpeedupRow> {
    crate::fan_out(threads, Benchmark::ALL.len(), |i| row(Benchmark::ALL[i]))
}

/// Renders Figure 7 as a table, its benchmark cells computed on
/// `threads` workers — byte-identical output for any thread count.
#[must_use]
pub fn report(threads: usize) -> String {
    let table_rows: Vec<Vec<String>> = rows(threads)
        .into_iter()
        .map(|r| {
            vec![
                r.bench.name().to_owned(),
                r.cpu_cycles.to_string(),
                r.accel_cycles.to_string(),
                render::speedup(r.speedup),
            ]
        })
        .collect();
    format!(
        "Figure 7: accelerator speedup (ccpu vs ccpu+caccel, one task)\n\n{}",
        render::table(
            &["Benchmark", "ccpu cycles", "accel cycles", "Speedup"],
            &table_rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_bound_benchmarks_lose() {
        for b in [
            Benchmark::MdKnn,
            Benchmark::Stencil2d,
            Benchmark::BfsBulk,
            Benchmark::BfsQueue,
        ] {
            let r = row(b);
            assert!(
                r.speedup < 1.2,
                "{b} should be near or below 1x, got {:.2}",
                r.speedup
            );
        }
    }

    #[test]
    fn flagships_exceed_two_thousand() {
        for b in [Benchmark::Backprop, Benchmark::Viterbi] {
            let r = row(b);
            assert!(r.speedup > 2000.0, "{b} got only {:.0}x", r.speedup);
        }
    }
}
