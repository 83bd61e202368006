//! # capcheri-analyze — static capability-flow analysis
//!
//! The adaptive half of the paper's compartmentalization story: before a
//! single simulated cycle runs, an abstract interpreter walks the static
//! inputs — per-benchmark grant tables, object→port maps, and
//! conformance op streams — and computes, per compartment, the
//! *least-privilege capability set* it actually needs (bounds envelope
//! plus the permissions it exercises). Every potential access is
//! classified:
//!
//! * **statically safe** — provably inside a live, correctly-permissioned
//!   capability on all paths; the runtime check is redundant;
//! * **statically unsafe** — a provable violation (over-privileged or
//!   stale grant, port aliasing, revocation race), reported as a
//!   [`Finding`];
//! * **dynamic** — nothing provable either way; the runtime checker
//!   stays in the loop.
//!
//! Safe classifications feed back into the simulator as a
//! [`capchecker::StaticVerdictMap`]: the `CapChecker` elides the
//! per-beat check for proved pairs, and the conformance harness replays
//! elided runs against the golden oracle so an unsound verdict is caught
//! as an ordinary divergence, never silently trusted.
//!
//! The crate also carries a source-level lint pass ([`lint`]) that walks
//! the repository for nondeterminism hazards (unordered map iteration
//! feeding reports, wall-clock reads in timing code) and audits `unsafe`
//! blocks for `// SAFETY:` comments — run it via `cargo run -p
//! capcheri-analyze --bin lint` or `simulate analyze --lint`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bench;
pub mod flow;
pub mod lint;
pub mod provenance;
pub mod stream;

pub use bench::{
    analyze_benchmark, audit_grants, declared_perms, default_grants, mode_perms, BenchAnalysis,
    PortReport, StaticGrant,
};
pub use flow::{
    analyze_flow, churn_grants, reanalysis_work, Barrier, FlowAnalysis, IncrementalAnalyzer,
    SegmentPair, SegmentReport, WorkRatio,
};
pub use lint::{lint_paths, lint_source, LintFinding, HOT_PATH_FILES};
pub use provenance::{GrantNode, InstalledGrant, ProvenanceLattice};
pub use stream::{analyze_stream, PairSummary, StreamAnalysis};

use std::fmt;

/// One provable problem the analyzer found in a static input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable category slug: `over-privilege`, `port-aliasing`,
    /// `stale-grant`, `no-entry`, `bad-provenance`, `permission`,
    /// `bounds`, `out-of-bounds`, `undeclared-access`, `tag`, `seal`,
    /// `authority-widening`, `cross-tenant-flow`.
    pub category: &'static str,
    /// What the finding is about (a `(task, object)` pair, a port name).
    pub subject: String,
    /// Human-readable explanation.
    pub detail: String,
    /// First op index that proves it, for stream findings.
    pub op: Option<u64>,
    /// How many accesses/grants exhibit it.
    pub count: u64,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.category, self.subject, self.detail)?;
        if let Some(op) = self.op {
            write!(f, " (first at op {op})")?;
        }
        if self.count > 1 {
            write!(f, " ×{}", self.count)?;
        }
        Ok(())
    }
}
