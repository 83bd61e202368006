//! Reproduction-shape calibration: the figure-level claims of the paper,
//! asserted against the simulator. These are the tests that pin the
//! *shape* of the evaluation (who wins, by roughly what factor, where the
//! crossovers fall) — see EXPERIMENTS.md.

use capcheri_bench::{fig10, fig11, fig12, fig7, fig8};
use machsuite::Benchmark;

/// Figure 7: the speedup bands.
#[test]
fn figure7_speedup_bands() {
    let memory_bound = [
        Benchmark::MdKnn,
        Benchmark::Stencil2d,
        Benchmark::BfsBulk,
        Benchmark::BfsQueue,
    ];
    for row in fig7::rows(1) {
        let s = row.speedup;
        if memory_bound.contains(&row.bench) {
            assert!(s < 1.0, "{}: expected below 1x, got {s:.2}x", row.bench);
        } else if matches!(row.bench, Benchmark::Backprop | Benchmark::Viterbi) {
            assert!(s > 2000.0, "{}: expected >2000x, got {s:.0}x", row.bench);
        } else {
            assert!(s > 1.0, "{}: expected above 1x, got {s:.2}x", row.bench);
        }
    }
}

/// Figure 8: overhead within 5% for most benchmarks; md_knn is the
/// percentage outlier because its absolute latency is tiny; the average
/// stays in the low single digits (the paper reports 1.4%).
#[test]
fn figure8_overhead_bands() {
    let rows = fig8::rows(1);
    let within_5 = rows.iter().filter(|r| r.perf_overhead < 0.05).count();
    assert!(
        within_5 >= rows.len() - 2,
        "only {within_5}/{} under 5%",
        rows.len()
    );

    let knn = rows
        .iter()
        .find(|r| r.bench == Benchmark::MdKnn)
        .expect("md_knn present");
    let max = rows.iter().map(|r| r.perf_overhead).fold(0.0f64, f64::max);
    assert!(
        (knn.perf_overhead - max).abs() < 1e-9,
        "md_knn must be the largest overhead ({} vs max {})",
        knn.perf_overhead,
        max
    );
    assert!(knn.checked_cycles < 20_000, "md_knn stays small-latency");

    let (perf, area, _) = fig8::geomeans(&rows);
    assert!(
        perf < 0.04,
        "mean perf overhead {perf} should be low single digits"
    );
    assert!(
        (0.08..0.25).contains(&area),
        "area overhead ~15%, got {area}"
    );
}

/// Figure 10: the CapChecker costs less than CPU-side CHERI for most
/// benchmarks, and gemm_blocked flips sign on the CHERI CPU.
#[test]
fn figure10_config_relationships() {
    use capchecker::SystemVariant;
    let sample = [
        Benchmark::Aes,
        Benchmark::GemmBlocked,
        Benchmark::Kmp,
        Benchmark::SortMerge,
        Benchmark::Viterbi,
        Benchmark::FftStrided,
        Benchmark::Stencil3d,
    ];
    let mut checker_cheaper = 0;
    for bench in sample {
        let row = fig10::row(bench);
        // Offloading never loses determinism: all five variants ran.
        assert!(row.cycles.iter().all(|c| *c > 0), "{bench}");
        if row.checker_overhead() <= row.cheri_cpu_overhead() {
            checker_cheaper += 1;
        }
        if bench == Benchmark::GemmBlocked {
            assert!(
                row.of(SystemVariant::CheriCpu) < row.of(SystemVariant::Cpu),
                "gemm_blocked: the capability-copy instruction should win"
            );
        }
    }
    assert!(
        checker_cheaper * 2 > sample.len(),
        "CapChecker should cost less than CPU CHERI for most: {checker_cheaper}/{}",
        sample.len()
    );
}

/// Figure 11: throughput grows with parallelism until the bus saturates;
/// the checker overhead does not grow with parallelism.
#[test]
fn figure11_parallelism_trends() {
    let sweep = fig11::rows(1);
    assert!(sweep[2].throughput_speedup > sweep[0].throughput_speedup * 1.4);
    let last = sweep.last().expect("sweep nonempty");
    assert!(
        last.bus_utilization > 0.8,
        "bus should saturate, got {}",
        last.bus_utilization
    );
    assert!(last.overhead <= sweep[0].overhead + 0.02);
    assert!(last.overhead < 0.05);
}

/// Figure 12: IOMMU entries scale with bytes, CapChecker entries with
/// buffer count; the data-heavy benchmarks show multi-x gaps.
#[test]
fn figure12_entry_scaling() {
    let mut any_large_gap = false;
    for row in fig12::rows(1) {
        assert!(row.capchecker_entries <= row.iommu_entries, "{}", row.bench);
        if row.iommu_entries as f64 / row.capchecker_entries as f64 > 3.0 {
            any_large_gap = true;
        }
    }
    assert!(
        any_large_gap,
        "some benchmark must show the multi-x IOMMU blowup"
    );
}
