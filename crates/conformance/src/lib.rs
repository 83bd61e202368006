//! # conformance — differential testing against a golden CHERI oracle
//!
//! The repo carries three paths through the same protection semantics —
//! the [`capchecker::CapChecker`] over its fixed table, the same checker
//! over its cache store, and the recovery degradation path from one to
//! the other — plus a compressed capability codec.
//! Following the reference-model methodology of VeriCHERI and the
//! CHERIoT-Ibex observational-correctness work, none of them is trusted to
//! check itself: this crate cross-checks all of them against a
//! [`golden oracle`](Oracle) that is deliberately simple enough to be
//! correct by inspection (see DESIGN.md §3e for the trust argument).
//!
//! ## Quick start
//!
//! ```
//! let report = conformance::run_conformance(1, 500);
//! assert!(report.is_clean(), "{}", report.summary());
//! ```
//!
//! Or from the command line:
//! `simulate conformance --seed 1 --ops 10000 [--json]`.
//!
//! ## Pieces
//!
//! * [`Oracle`] — flat, uncompressed, unoptimized interpreter of
//!   capability semantics with its own tiny tag memory;
//! * [`generate`] — deterministic seeded op streams (grants, DMA
//!   reads/writes, revocations, spills, sweeps, cache-pressure bursts,
//!   fault overlays from [`hetsim::FaultPlan`]);
//! * [`run_ops`]/[`run_stream`] — the differential harness, diffing every
//!   verdict, exception code, and the final tag state;
//! * [`shrink()`]/[`regression_test`] — delta-debugs a failing stream to a
//!   minimal reproducer printed as a ready-to-paste test;
//! * [`codec_check`] — round-trip/idempotence pinning of
//!   `cheri::compressed` against the exact representation;
//! * [`ConformanceReport`] — the `capcheri.conformance.v1` JSON artifact.

#![warn(missing_docs)]

pub mod codec;
pub mod harness;
pub mod oracle;
pub mod report;
pub mod shrink;
pub mod stream;

pub use codec::{check as codec_check, CodecReport};
pub use harness::{
    build_access, build_grant_cap, default_subjects, run_ops, run_ops_elided,
    run_ops_elided_segments, run_stream, Checked, CheckerSubject, Divergence, OpCounts, RunOutcome,
    Subject,
};
pub use oracle::{Oracle, OracleCap, Verdict};
pub use report::{ConformanceReport, SCHEMA};
pub use shrink::{regression_test, shrink};
pub use stream::{generate, Op};

/// Runs the full conformance pipeline: generate a stream from `seed`,
/// replay it differentially, sweep the codec, and — if anything
/// diverged — shrink the stream to a minimal reproducer.
#[must_use]
pub fn run_conformance(seed: u64, ops: u64) -> ConformanceReport {
    let stream = generate(seed, ops as usize);
    let outcome = run_ops(&stream);
    let codec = codec_check(seed, ops / 4 + 256);
    let reproducer = if outcome.divergences.is_empty() {
        None
    } else {
        let minimal = shrink(&stream, &|candidate| !run_ops(candidate).is_clean());
        Some(regression_test(&minimal))
    };
    ConformanceReport::assemble(seed, ops, outcome, codec, reproducer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_runs_are_clean_and_deterministic() {
        let a = run_conformance(3, 400);
        let b = run_conformance(3, 400);
        assert!(a.is_clean(), "{}", a.summary());
        assert_eq!(a.to_json(), b.to_json());
        obs::json::validate(&a.to_json()).unwrap();
    }
}
