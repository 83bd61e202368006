//! Golden snapshot tests for every figure and table the paper pipeline
//! renders.
//!
//! Each artifact is pinned as a small JSON document
//! (`capcheri.golden.v1`) under `tests/golden/`, asserted
//! *byte-identical* — any drift in a simulated cycle count, a rendered
//! speedup, or even table whitespace fails loudly. After an intentional
//! change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p capcheri-bench --test golden
//! ```
//!
//! and commit the rewritten files — the diff *is* the review artifact.

use capchecker::{run_adaptive_campaign, run_campaign, AdaptConfig, CampaignConfig, SystemVariant};
use capcheri_bench::adapt::{reports_to_json, AdaptBenchReport};
use capcheri_bench::profile::{self, ProfileReport};
use capcheri_bench::{
    fan_out, fig10, fig11, fig12, fig7, fig8, fig9, flowreport, runner, staticreport, table1,
    table2, table3,
};
use machsuite::Benchmark;
use obs::json::JsonWriter;
use obs::report::BenchReport;
use std::fs;
use std::path::PathBuf;

/// `simulate conformance --seed 11 --ops 10000 --json`: a stream long
/// enough to corrupt the cache and degrade the checker.
fn conformance_report() -> String {
    conformance::run_conformance(11, 10_000).to_json()
}

/// `simulate verify --depth 6 --tasks 2 --objects 3 --json`.
fn modelcheck_report(threads: usize) -> String {
    let cfg = capcheri_mc::ExploreConfig {
        threads,
        ..capcheri_mc::ExploreConfig::new(6)
    };
    capcheri_mc::to_json(&cfg, &capcheri_mc::explore(cfg))
}

/// The campaign config `simulate faults` and `simulate adapt campaign`
/// build from `--spec`, `--tasks` and `--seed`.
fn campaign_config(spec: &str, tasks: u32, seed: u64) -> CampaignConfig {
    CampaignConfig {
        tasks,
        seed,
        spec: spec.parse().expect("valid fault spec"),
        ..CampaignConfig::default()
    }
}

/// `simulate faults --spec all:0.8 --tasks 64 --seed 51966 --json`: every
/// fault kind, so every resolution the static driver can reach.
fn fault_campaign_report() -> String {
    run_campaign(&campaign_config("all:0.8", 64, 0xCAFE))
        .expect("the campaign runs")
        .to_json()
}

/// `simulate faults --spec cache-corrupt:0.5 --tasks 24 --seed 7 --json`:
/// the inline degradation path, with a `"degraded":true` record.
fn fault_campaign_degrade_report() -> String {
    run_campaign(&campaign_config("cache-corrupt:0.5", 24, 7))
        .expect("the campaign runs")
        .to_json()
}

/// `simulate adapt campaign --seed 3 --spec cache-corrupt:0.3 --json`:
/// stall-up, cache-degrade, cache-repromote and stall-down, so every
/// checker rebuild path runs.
fn adapt_campaign_report() -> String {
    run_adaptive_campaign(
        &campaign_config("cache-corrupt:0.3", 32, 3),
        &AdaptConfig::default(),
    )
    .expect("the campaign runs")
    .to_json()
}

/// `simulate adapt campaign --spec engine-hang:0.4 --tasks 32 --json`:
/// quarantines under a controller that can still parole, so records end
/// in `quarantined-probation`.
fn adapt_campaign_hang_report() -> String {
    run_adaptive_campaign(
        &campaign_config("engine-hang:0.4", 32, 0xC0DE),
        &AdaptConfig::default(),
    )
    .expect("the campaign runs")
    .to_json()
}

/// `simulate adapt spmv_crs --epochs 6 --seed 3 --json`: a mode switch
/// with elided epochs on both sides, and hit, miss and elided counters.
fn adapt_spmv_report() -> String {
    reports_to_json(&[AdaptBenchReport::collect(
        Benchmark::SpmvCrs,
        6,
        1,
        3,
        AdaptConfig::default(),
    )
    .expect("spmv_crs adapts")])
}

/// The observed run `simulate` makes of one benchmark at its default seed.
fn observed(bench: Benchmark, variant: SystemVariant, tasks: usize) -> runner::RunOutcome {
    runner::run(&runner::RunSpec {
        observe: true,
        ..runner::RunSpec::new(bench, variant, tasks, 0xC0DE)
    })
    .expect("every benchmark runs")
}

/// `simulate all [--variant V] --tasks N --json`: every benchmark's
/// observed run as one `capcheri.bench_report.v1` document.
fn bench_report(variant: SystemVariant, tasks: usize, threads: usize) -> String {
    let reports = fan_out(threads, Benchmark::ALL.len(), |i| {
        let bench = Benchmark::ALL[i];
        let run = observed(bench, variant, tasks);
        BenchReport {
            bench: bench.name().to_owned(),
            variant: run.result.variant.label().to_owned(),
            tasks: run.result.tasks,
            seed: 0xC0DE,
            metrics: run.metrics.expect("observed runs freeze their metrics"),
        }
    });
    obs::report::reports_to_json(&reports)
}

/// `simulate profile all [--variant V] --json`.
fn profile_report(variant: SystemVariant, threads: usize) -> String {
    let reports = fan_out(threads, Benchmark::ALL.len(), |i| {
        ProfileReport::collect(Benchmark::ALL[i], variant, 1, 0xC0DE)
            .expect("every benchmark profiles")
    });
    profile::reports_to_json(&reports)
}

/// The `--trace-out` file of `simulate aes --tasks 2`.
fn chrome_aes() -> String {
    let events = observed(Benchmark::Aes, SystemVariant::CheriCpuCheriAccel, 2)
        .events
        .expect("observed runs record events");
    obs::chrome::chrome_trace_json(&events.sorted_by_cycle())
}

/// Every pinned artifact: `(name, kind, report at `threads`)`. Tables
/// have no parallel path and ignore the thread count.
fn artifacts(threads: usize) -> Vec<(&'static str, &'static str, String)> {
    vec![
        ("fig7", "figure", fig7::report(threads)),
        ("fig8", "figure", fig8::report(threads)),
        ("fig9", "figure", fig9::report(threads)),
        ("fig10", "figure", fig10::report(threads)),
        ("fig11", "figure", fig11::report(threads)),
        ("fig12", "figure", fig12::report(threads)),
        (
            "staticreport",
            "report",
            staticreport::report(threads).expect("every stock benchmark runs"),
        ),
        ("flowreport", "report", flowreport::report(threads)),
        ("table1", "table", table1::report()),
        ("table2", "table", table2::report()),
        ("table3", "table", table3::report()),
        ("conformance", "report", conformance_report()),
        ("modelcheck", "report", modelcheck_report(threads)),
        ("fault_campaign", "report", fault_campaign_report()),
        (
            "fault_campaign_degrade",
            "report",
            fault_campaign_degrade_report(),
        ),
        ("adapt_campaign", "report", adapt_campaign_report()),
        (
            "adapt_campaign_hang",
            "report",
            adapt_campaign_hang_report(),
        ),
        ("adapt_spmv", "report", adapt_spmv_report()),
        (
            "bench_report",
            "report",
            bench_report(SystemVariant::CheriCpuCheriAccel, 2, threads),
        ),
        (
            "bench_report_ccpu",
            "report",
            bench_report(SystemVariant::CheriCpu, 1, threads),
        ),
        (
            "profile",
            "report",
            profile_report(SystemVariant::CheriCpuCheriAccel, threads),
        ),
        (
            "profile_ccpu",
            "report",
            profile_report(SystemVariant::CheriCpu, threads),
        ),
        ("chrome_aes", "trace", chrome_aes()),
    ]
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

fn golden_doc(name: &str, kind: &str, report: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("capcheri.golden.v1");
    w.key("name");
    w.string(name);
    w.key("kind");
    w.string(kind);
    w.key("report");
    w.string(report);
    w.end_object();
    let mut doc = w.finish();
    doc.push('\n');
    doc
}

/// One pass per thread count: the single-thread rendering must match the
/// committed snapshot byte-for-byte, and the eight-thread rendering must
/// match the single-thread one (the fan-out merges cells in benchmark
/// order, so parallelism may not change a single byte).
#[test]
fn reports_match_golden_snapshots_at_one_and_eight_threads() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1");
    let sequential = artifacts(1);
    let parallel = artifacts(8);
    let mut drifted = Vec::new();
    for ((name, kind, report), (_, _, report8)) in sequential.into_iter().zip(parallel) {
        assert_eq!(
            report8, report,
            "{name}: eight-thread rendering differs from single-thread"
        );
        let doc = golden_doc(name, kind, &report);
        obs::json::validate(&doc).expect("golden docs are valid JSON");
        let path = golden_path(name);
        if update {
            fs::write(&path, &doc).expect("golden dir is writable");
            continue;
        }
        let pinned = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        if pinned != doc {
            drifted.push(name);
        }
    }
    assert!(
        drifted.is_empty(),
        "artifacts drifted from their golden snapshots: {drifted:?}\n\
         if the change is intentional, regenerate with\n\
         UPDATE_GOLDEN=1 cargo test -p capcheri-bench --test golden\n\
         and commit the rewritten files"
    );
}
