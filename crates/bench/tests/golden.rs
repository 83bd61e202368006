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

use capchecker::{run_adaptive_campaign, AdaptConfig, CampaignConfig};
use capcheri_bench::adapt::{reports_to_json, AdaptBenchReport};
use capcheri_bench::{
    fig10, fig11, fig12, fig7, fig8, fig9, flowreport, staticreport, table1, table2, table3,
};
use machsuite::Benchmark;
use obs::json::JsonWriter;
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

/// `simulate adapt campaign --epochs 8 --seed 3 --spec cache-corrupt:0.3
/// --json`: stall-up, cache-degrade, cache-repromote and stall-down, so
/// every checker rebuild path runs.
fn adapt_campaign_report() -> String {
    let config = CampaignConfig {
        seed: 3,
        spec: "cache-corrupt:0.3".parse().expect("valid fault spec"),
        ..CampaignConfig::default()
    };
    run_adaptive_campaign(&config, &AdaptConfig::default())
        .expect("the campaign runs")
        .to_json()
}

/// `simulate adapt spmv_crs --epochs 6 --seed 3 --json`: a mode switch
/// plus segment re-install, with hit, miss and elided counters.
fn adapt_spmv_report() -> String {
    reports_to_json(&[AdaptBenchReport::collect(
        Benchmark::SpmvCrs,
        6,
        1,
        3,
        AdaptConfig::default(),
    )])
}

/// Every pinned artifact: `(name, kind, report at `threads`)`. Tables
/// have no parallel path and ignore the thread count.
fn artifacts(threads: usize) -> Vec<(&'static str, &'static str, String)> {
    vec![
        ("fig7", "figure", fig7::report_threads(threads)),
        ("fig8", "figure", fig8::report_threads(threads)),
        ("fig9", "figure", fig9::report_threads(threads)),
        ("fig10", "figure", fig10::report_threads(threads)),
        ("fig11", "figure", fig11::report_threads(threads)),
        ("fig12", "figure", fig12::report_threads(threads)),
        (
            "staticreport",
            "report",
            staticreport::report_threads(threads),
        ),
        ("flowreport", "report", flowreport::report_threads(threads)),
        ("table1", "table", table1::report()),
        ("table2", "table", table2::report()),
        ("table3", "table", table3::report()),
        ("conformance", "report", conformance_report()),
        ("modelcheck", "report", modelcheck_report(threads)),
        ("adapt_campaign", "report", adapt_campaign_report()),
        ("adapt_spmv", "report", adapt_spmv_report()),
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
