//! Acceptance tests for the adaptive policy controller's reports: the
//! `capcheri.adapt.v1` bytes are identical at any worker count, and the
//! adaptive fault campaign's trace is byte-reproducible for a fixed
//! seed — the paper-level determinism claim for the closed loop.

use capchecker::{run_adaptive_campaign, AdaptConfig, CampaignConfig};
use capcheri_bench::adapt::{reports_to_json, AdaptBenchReport};
use hetsim::FaultSpec;
use machsuite::Benchmark;

const EPOCHS: u32 = 3;
const TASKS: usize = 2;
const SEED: u64 = 0xC0DE;

fn collect_all(threads: usize) -> Vec<AdaptBenchReport> {
    perf::parallel_map(threads, Benchmark::ALL.len(), |i| {
        AdaptBenchReport::collect(
            Benchmark::ALL[i],
            EPOCHS,
            TASKS,
            SEED,
            AdaptConfig::default(),
        )
        .expect("every benchmark adapts")
    })
    .unwrap_or_else(|p| p.resume())
}

#[test]
fn adapt_report_bytes_are_identical_for_any_thread_count() {
    let baseline = reports_to_json(&collect_all(1));
    obs::json::validate(&baseline).unwrap();
    assert!(baseline.contains("\"schema\":\"capcheri.adapt.v1\""));
    for threads in [2, 4, 8] {
        let got = reports_to_json(&collect_all(threads));
        assert_eq!(
            got, baseline,
            "adapt JSON diverged between --threads 1 and --threads {threads}"
        );
    }
}

#[test]
fn adaptive_campaign_trace_is_byte_reproducible() {
    let config = CampaignConfig {
        tasks: 24,
        seed: SEED,
        spec: "engine-hang:0.4,cache-corrupt:0.2"
            .parse::<FaultSpec>()
            .unwrap(),
        ..CampaignConfig::default()
    };
    let a = run_adaptive_campaign(&config, &AdaptConfig::default()).unwrap();
    let b = run_adaptive_campaign(&config, &AdaptConfig::default()).unwrap();
    let json = a.to_json();
    obs::json::validate(&json).unwrap();
    assert_eq!(json, b.to_json());
    assert!(
        !a.decisions.is_empty(),
        "a faulting campaign must produce decisions"
    );
    // Every decision in the serialized trace explains itself: epoch,
    // rule, raw inputs, hysteresis state.
    for needle in [
        "\"epoch\":",
        "\"rule\":",
        "\"stall_share_pct\":",
        "\"dwell\":",
    ] {
        assert!(json.contains(needle), "missing {needle}");
    }
}
