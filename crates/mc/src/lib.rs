//! # capcheri-mc — explicit-state bounded model checking
//!
//! The conformance harness (PR 4) samples the behaviour space: seeded
//! random streams, millions of ops, probabilistic coverage. This crate
//! *exhausts* a scaled-down corner of it: 2–3 tasks, at most 4 objects,
//! a tiny tagged memory, a 4-entry verdict cache — and breadth-first
//! search over **every** legal operation interleaving up to a depth
//! bound, checking every state against the same golden
//! [`conformance::Oracle`] that anchors the differential tests.
//!
//! ## What is checked
//!
//! Per transition (refinement): every subject — a
//! [`capchecker::CapChecker`] over the fixed table, one over the cache
//! store, the post-degradation path, and the verdict-elided variants —
//! returns exactly the verdict its spec
//! demands (the oracle's verdict, or `Granted` on pairs a live
//! `StaticVerdictMap` waves). Per state (invariants): no access succeeds
//! without a live grant, derivation never widens authority, revocation
//! sweeps leave no tag with authority over the swept region, verdict
//! bitmaps stay coherent with their maps, and latched exception flags
//! match the model's prediction.
//!
//! ## How the state space stays small
//!
//! Every op is slot-relative, so the transition relation commutes with
//! task/object renaming; [`canon::canonicalize`] quotients each state by
//! the full permutation group (≤ `4!×4!` relabelings, brute-forced) and
//! BFS deduplicates on the *entire* canonical encoding — no hashing in
//! the soundness path. See DESIGN.md §3j for the argument and what a
//! depth-`d` certificate buys.
//!
//! ## Quick start
//!
//! ```
//! let cfg = capcheri_mc::ExploreConfig { depth: 3, ..capcheri_mc::ExploreConfig::new(3) };
//! let result = capcheri_mc::explore(cfg);
//! assert!(result.violation.is_none(), "{:?}", result.violation);
//! ```
//!
//! Or from the command line:
//! `simulate verify --depth 10 --tasks 2 --objects 3 [--json]`.
//!
//! Counterexamples replay through [`conformance::shrink()`] and render as
//! paste-ready regression tests ([`report::regression_test`]).

#![warn(missing_docs)]

pub mod canon;
pub mod explore;
pub mod ops;
pub mod report;
pub mod state;

pub use canon::{canonicalize, fnv_hash, Canonical};
pub use explore::{explore, ExploreConfig, ExploreResult, FoundViolation};
pub use ops::{alphabet, McOp};
pub use report::{regression_test, summary, to_json, SCHEMA};
pub use state::{GrantKind, McConfig, McState, PlantedBug, SavedState, Violation, SUBJECTS};
