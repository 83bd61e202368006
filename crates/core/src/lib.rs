//! # capchecker — adaptive CHERI compartmentalization for accelerators
//!
//! The paper's primary contribution: the **CAPability Checker**
//! ([`CapChecker`]), a hardware block that imports CHERI capabilities from
//! the CPU and guards every memory access a CHERI-unaware accelerator
//! makes, as if the accelerator used capabilities natively — plus the
//! trusted software driver and the assembled heterogeneous system
//! ([`HeteroSystem`]).
//!
//! ## Architecture (Figure 5)
//!
//! * one checker front end ([`CapChecker`]) over a capability store keyed
//!   by `(task, object)`: the paper's 256-entry associative
//!   [capability table](CapabilityTable) ([`CapChecker::new`]), or
//!   §5.2.3's small LRU cache over a memory-resident table
//!   ([`CapChecker::cached`]) — the protection model is the same for
//!   both;
//! * capabilities imported over an MMIO capability interconnect
//!   ([`checker::regs`]) that only accepts *valid* capabilities;
//! * a capability decoder (the 128-bit compressed format from the `cheri`
//!   crate);
//! * two provenance modes ([`CheckerMode`]): **Fine** — the accelerator's
//!   memory interface identifies the object per request, giving
//!   pointer-level protection; **Coarse** — object IDs ride in the top 8
//!   address bits, giving task-level protection in the worst case;
//! * exception reporting: a global flag for the CPU plus a per-store
//!   exception trace (per-entry bits in the table) so software can trace
//!   the offending pointer.
//!
//! ## Quick start
//!
//! ```
//! use capchecker::{HeteroSystem, SystemConfig, TaskRequest};
//! use hetsim::Engine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A CHERI CPU with a Fine-mode CapChecker (the paper's system).
//! let mut sys = HeteroSystem::new(SystemConfig::default());
//! sys.add_fus("mmul", 8);
//!
//! let task = sys.allocate_task(&TaskRequest::accel("mmul0", "mmul").rw_buffers([64, 64]))?;
//! let outcome = sys.run_accel_task(task, |eng| {
//!     let x = eng.load_u32(0, 0)?;
//!     eng.store_u32(1, 0, x.wrapping_mul(3))
//! })?;
//! assert!(outcome.completed());
//!
//! // An out-of-bounds access is blocked and latched as an exception:
//! let evil = sys.allocate_task(&TaskRequest::accel("evil", "mmul").rw_buffers([64]))?;
//! let outcome = sys.run_accel_task(evil, |eng| eng.load_u32(0, 1_000).map(|_| ()))?;
//! assert!(!outcome.completed());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adapt;
mod alloc;
pub mod attrib;
pub mod checker;
mod config;
pub mod elide;
mod engines;
pub mod recovery;
pub mod revoke;
mod store;
mod system;
mod table;

pub use adapt::{
    run_adaptive_campaign, AdaptAction, AdaptConfig, AdaptController, AdaptDecision,
    AdaptiveCampaignReport, CacheHealth, EpochSignals,
};
pub use alloc::{AllocError, HeapAllocator};
pub use attrib::{CheckAttribution, CheckCounters};
pub use checker::{CapChecker, CheckerSnapshot};
pub use config::{CachedCheckerConfig, CheckerConfig, CheckerMode};
pub use elide::{StaticVerdict, StaticVerdictMap, VerdictBitmap};
pub use engines::{CapRegs, Provenance, Vet};
pub use recovery::{
    run_campaign, CampaignConfig, CampaignReport, RecoveryOutcome, RecoveryPolicy, Resolution,
    TaskRecord, WatchdogEngine,
};
pub use revoke::{sweep_revoked, sweep_revoked_many, sweep_revoked_naive, SweepReport};
pub use system::{
    BufferSpec, DriverError, HeteroSystem, ProtectionChoice, SystemConfig, SystemVariant,
    TaskOutcome, TaskReport, TaskRequest,
};
pub use table::{CapabilityTable, TableEntry};
