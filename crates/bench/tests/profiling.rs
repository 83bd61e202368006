//! Acceptance tests for the profiling observatory: the
//! `capcheri.profile.v1` report is byte-identical at any worker count,
//! the span tree attributes (nearly) every simulated cycle, and
//! attaching the profiler never changes what the simulation computes.

use capchecker::SystemVariant;
use capcheri_bench::profile::{reports_to_json, ProfileReport};
use capcheri_bench::runner;
use machsuite::Benchmark;

const TASKS: usize = 2;
const SEED: u64 = 0xC0DE;

fn collect_all(threads: usize) -> Vec<ProfileReport> {
    perf::parallel_map(threads, Benchmark::ALL.len(), |i| {
        ProfileReport::collect(
            Benchmark::ALL[i],
            SystemVariant::CheriCpuCheriAccel,
            TASKS,
            SEED,
        )
        .expect("every benchmark profiles")
    })
    .unwrap_or_else(|p| p.resume())
}

#[test]
fn profile_report_bytes_are_identical_for_any_thread_count() {
    let baseline = reports_to_json(&collect_all(1));
    obs::json::validate(&baseline).unwrap();
    for threads in [2, 4, 8] {
        let got = reports_to_json(&collect_all(threads));
        assert_eq!(
            got, baseline,
            "profile JSON diverged between --threads 1 and --threads {threads}"
        );
    }
}

#[test]
fn span_tree_attributes_at_least_95_percent_across_machsuite() {
    for bench in Benchmark::ALL {
        for variant in [
            SystemVariant::CheriCpu,
            SystemVariant::CpuAccel,
            SystemVariant::CheriCpuAccel,
            SystemVariant::CheriCpuCheriAccel,
        ] {
            let r = ProfileReport::collect(bench, variant, TASKS, SEED).unwrap();
            let cov = r.coverage();
            assert!(
                cov <= 1.0 + 1e-12,
                "{bench} {variant}: over-attributed ({cov})"
            );
            assert!(
                cov >= 0.95,
                "{bench} {variant}: span tree attributes only {:.1}% of {} cycles",
                cov * 100.0,
                r.result.cycles
            );
        }
    }
}

#[test]
fn profiled_run_is_cycle_identical_to_the_null_profiler_path() {
    for bench in [Benchmark::Aes, Benchmark::SpmvCrs, Benchmark::GemmNcubed] {
        for variant in [SystemVariant::CheriCpu, SystemVariant::CheriCpuCheriAccel] {
            let plain = runner::run_benchmark(bench, variant, TASKS, SEED);
            let profiled = ProfileReport::collect(bench, variant, TASKS, SEED).unwrap();
            assert_eq!(
                plain.cycles, profiled.result.cycles,
                "{bench} {variant}: attaching the profiler changed the simulation"
            );
            assert_eq!(plain.setup_cycles, profiled.result.setup_cycles);
        }
    }
}
