//! # hetsim — heterogeneous-system simulation substrate
//!
//! The hardware the paper prototypes on an FPGA, rebuilt as an
//! architectural simulator: tagged main memory ([`TaggedMemory`]),
//! interconnect-level access descriptors ([`Access`], [`Denial`]), the
//! kernel execution abstraction ([`Engine`], [`Trace`]) and the one
//! memory engine every target runs on ([`MemEngine`], behind a
//! [`Gate`], recording into a [`Record`]), MMIO plumbing
//! ([`mmio`]), and the CPU / accelerator timing models ([`timing`]).
//!
//! The crate is protection-agnostic: the CapChecker and the baseline
//! mechanisms (IOMMU, IOPMP, sNPU-style) plug into the access path defined
//! here as a [`Gate`].
//!
//! # Examples
//!
//! Running a tiny kernel functionally and costing it on two targets:
//!
//! ```
//! use hetsim::{DirectEngine, Engine, TaggedMemory, TaskLayout};
//! use hetsim::timing::{simulate_cpu, simulate_accel_system, AccelTask,
//!                      AccelTimingConfig, BusConfig, CpuTiming};
//!
//! # fn main() -> Result<(), hetsim::ExecFault> {
//! let mut mem = TaggedMemory::new(4096);
//! let mut eng = DirectEngine::new(&mut mem, TaskLayout::new([(0x100, 256)]));
//! for i in 0..32 {
//!     eng.store_u32(0, i, i as u32)?;
//!     eng.compute(4);
//! }
//! let trace = eng.into_trace();
//!
//! let cpu = simulate_cpu(&trace, &CpuTiming::default());
//! let accel = simulate_accel_system(
//!     &[AccelTask { trace: &trace, cfg: AccelTimingConfig::default(), start: 0 }],
//!     &BusConfig::default(),
//! );
//! assert!(cpu.cycles > 0 && accel.makespan > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bus;
mod engine;
pub mod fault;
mod ids;
mod memory;
pub mod mmio;
pub mod timing;
mod trace;
pub mod validate;

pub use bus::{Access, AccessKind, BusFaultConfig, Denial, DenyReason};
pub use engine::{
    BufferRegion, DirectEngine, Engine, ExecFault, Gate, MemEngine, Record, TaskLayout, Ungated,
};
pub use fault::{FaultKind, FaultPlan, FaultSpec, FaultyEngine, InjectedFault};
pub use ids::{Cycles, FuId, MasterId, ObjectId, TaskId};
pub use memory::{MemError, TaggedMemory};
pub use trace::{Trace, TraceOp};
