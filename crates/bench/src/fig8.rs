//! Figure 8 — overhead of adding the CapChecker: performance, power,
//! and circuit area, per benchmark.

use crate::render::{pct, table};
use crate::runner;
use crate::{geomean, runner::CHECKER_PIPELINE_LATENCY};
use capchecker::SystemVariant;
use fpgamodel::SystemArea;
use machsuite::{Benchmark, INSTANCES};

/// Overheads of one benchmark's system.
#[derive(Clone, Copy, Debug)]
pub struct OverheadRow {
    /// Benchmark.
    pub bench: Benchmark,
    /// `ccpu+accel` cycles.
    pub base_cycles: u64,
    /// `ccpu+caccel` cycles.
    pub checked_cycles: u64,
    /// Relative performance overhead.
    pub perf_overhead: f64,
    /// Relative LUT overhead of the 256-entry CapChecker.
    pub area_overhead: f64,
    /// Relative power overhead.
    pub power_overhead: f64,
}

/// The FPGA area breakdown of one benchmark's full system (CHERI CPU +
/// 8 accelerator instances + interconnect + CapChecker).
#[must_use]
pub fn system_area(bench: Benchmark, with_checker: bool) -> SystemArea {
    let p = bench.profile();
    SystemArea::assemble(
        true,
        INSTANCES,
        p.lanes,
        p.compute_per_cycle,
        with_checker.then_some(256),
    )
}

/// Computes one row.
#[must_use]
pub fn row(bench: Benchmark) -> OverheadRow {
    let base = runner::run_benchmark(bench, SystemVariant::CheriCpuAccel, 1, 0xC0DE);
    let checked = runner::run_benchmark(bench, SystemVariant::CheriCpuCheriAccel, 1, 0xC0DE);
    let perf_overhead = (checked.cycles as f64 - base.cycles as f64) / base.cycles as f64;

    let with = system_area(bench, true);
    let area_overhead = with.checker_overhead();

    // Power: accelerator activity tracks the bus; the CPU idles while
    // offloaded. Only the checker's matched table bank and decoder toggle
    // per request (the CAM banks are clock-gated), so its switching
    // activity is a small fraction of the bus utilization.
    let util = checked.bus_utilization.clamp(0.05, 1.0);
    let base_power = system_area(bench, false).power(0.2, util, 0.0).total_mw();
    let checked_power = with.power(0.2, util, util * 0.08).total_mw();
    let power_overhead = (checked_power - base_power) / base_power;

    OverheadRow {
        bench,
        base_cycles: base.cycles,
        checked_cycles: checked.cycles,
        perf_overhead,
        area_overhead,
        power_overhead,
    }
}

/// All rows, computed on `threads` workers; any thread count produces
/// the same rows in the same order ([`geomeans`] summarizes them).
#[must_use]
pub fn rows(threads: usize) -> Vec<OverheadRow> {
    crate::fan_out(threads, Benchmark::ALL.len(), |i| row(Benchmark::ALL[i]))
}

/// Geometric-mean overheads `(perf, area, power)` across benchmarks.
#[must_use]
pub fn geomeans(rows: &[OverheadRow]) -> (f64, f64, f64) {
    let g = |f: fn(&OverheadRow) -> f64| {
        geomean(&rows.iter().map(|r| f(r).max(1e-6)).collect::<Vec<_>>())
    };
    (
        g(|r| r.perf_overhead),
        g(|r| r.area_overhead),
        g(|r| r.power_overhead),
    )
}

/// Renders Figure 8, its benchmark cells computed on `threads` workers —
/// byte-identical output for any thread count.
#[must_use]
pub fn report(threads: usize) -> String {
    let rows = rows(threads);
    let mut table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.bench.name().to_owned(),
                r.base_cycles.to_string(),
                r.checked_cycles.to_string(),
                pct(r.perf_overhead),
                pct(r.area_overhead),
                pct(r.power_overhead),
            ]
        })
        .collect();
    let (gp, ga, gw) = geomeans(&rows);
    table_rows.push(vec![
        "geomean".into(),
        "-".into(),
        "-".into(),
        pct(gp),
        pct(ga),
        pct(gw),
    ]);
    format!(
        "Figure 8: CapChecker overhead per benchmark\n\
         (checker pipeline latency {CHECKER_PIPELINE_LATENCY} cycles, 256 entries)\n\n{}",
        table(
            &[
                "Benchmark",
                "ccpu+accel",
                "ccpu+caccel",
                "Perf ovh",
                "Area ovh",
                "Power ovh"
            ],
            &table_rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn performance_overhead_is_small_for_long_benchmarks() {
        for b in [Benchmark::Aes, Benchmark::GemmNcubed, Benchmark::Viterbi] {
            let r = row(b);
            assert!(
                r.perf_overhead < 0.05,
                "{b} overhead {} should be under 5%",
                pct(r.perf_overhead)
            );
            assert!(r.perf_overhead >= 0.0, "{b} checker cannot speed things up");
        }
    }

    #[test]
    fn md_knn_is_the_percentage_outlier() {
        let knn = row(Benchmark::MdKnn);
        assert!(
            knn.perf_overhead > 0.10,
            "md_knn's fixed install cost should dominate its small latency, got {}",
            pct(knn.perf_overhead)
        );
        // Its absolute latency stays in the few-thousand-cycle range.
        assert!(knn.checked_cycles < 20_000, "got {}", knn.checked_cycles);
    }

    #[test]
    fn area_overhead_is_constant_entries_not_datapath() {
        let a = system_area(Benchmark::Aes, true);
        let b = system_area(Benchmark::Backprop, true);
        assert_eq!(a.checker, b.checker);
    }
}
