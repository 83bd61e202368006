//! Regression tests for the provenance flow audit and the incremental
//! engine's equivalence guarantee.
//!
//! The cross-tenant test plants a single hostile grant into a realistic
//! kernel driver stream, asserts the audit catches it, and then runs the
//! conformance ddmin shrinker over the whole stream — the reproducer
//! must reduce to exactly the planted op, proving the finding is not an
//! artifact of the surrounding stream.

use capcheri_analyze::{analyze_flow, churn_grants, IncrementalAnalyzer};
use capcheri_bench::flowreport::kernel_stream;
use conformance::stream::slot_base;
use conformance::{generate, regression_test, shrink, Op};
use machsuite::Benchmark;

fn trips_cross_tenant(ops: &[Op]) -> bool {
    analyze_flow(ops, 1)
        .flows
        .iter()
        .any(|f| f.category == "cross-tenant-flow")
}

#[test]
fn planted_cross_tenant_grant_shrinks_to_the_single_culprit() {
    // A stock kernel driver stream is flow-clean...
    let mut ops = kernel_stream(Benchmark::Aes);
    assert!(!trips_cross_tenant(&ops), "stock stream must be clean");
    // ...until tenant 1 is granted a window into tenant 0's home
    // compartment, planted mid-stream among the legitimate ops.
    let planted = Op::Grant {
        task: 1,
        object: 0,
        base: slot_base(0, 0),
        len: 64,
        perms: 0x3,
        seal: false,
        untagged: false,
    };
    let at = ops.len() / 2;
    ops.insert(at, planted);
    assert!(trips_cross_tenant(&ops), "planted grant was not caught");
    // ddmin reduces the whole driver stream to the one hostile grant.
    let minimal = shrink(&ops, &trips_cross_tenant);
    assert_eq!(minimal, vec![planted]);
    // And the shrunk stream renders as a paste-ready regression test.
    let text = regression_test(&minimal);
    assert!(text.contains("Op::Grant"));
}

#[test]
fn incremental_matches_scratch_on_adversarial_seeds() {
    // Seeded adversarial streams with grant churn: the incremental
    // engine's verdict maps must be identical — not merely equivalent —
    // to a from-scratch analysis of the churned stream.
    for seed in [2u64, 7, 13, 29, 71, 113] {
        let base = generate(seed, 250);
        let churned = churn_grants(&base);
        let mut engine = IncrementalAnalyzer::with_threads(1);
        let _ = engine.analyze(&base);
        let inc = engine.analyze(&churned);
        let scratch = analyze_flow(&churned, 1);
        assert!(inc.same_results(&scratch), "seed {seed}: results diverged");
        assert_eq!(
            inc.segment_maps(),
            scratch.segment_maps(),
            "seed {seed}: verdict maps differ"
        );
        assert!(
            inc.reused > 0,
            "seed {seed}: churn left nothing to reuse — the fixture is degenerate"
        );
    }
}
