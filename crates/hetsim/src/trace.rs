//! Operation traces: what a kernel *does*, independent of where it runs.
//!
//! A kernel executes once, functionally, against an [`Engine`]; the engine
//! hands the operation stream to its [`Record`]er, by default a [`Trace`].
//! The same trace can then be costed under different timing models (CPU
//! with cache, accelerator lanes behind the shared AXI port, with or
//! without the CapChecker in the path), which is how the five system
//! configurations of §6.3 are compared on identical work.
//!
//! A trace is one of two feeders of the accelerator event wheel:
//! [`Trace::replay`] hands its ops to a
//! [`LaneFolder`](crate::timing::LaneFolder), op by op, as a kernel run
//! recording straight into the folder would have. Runs that need nothing
//! but their timing skip the trace altogether and record into a coster.
//!
//! [`Engine`]: crate::engine::Engine

use crate::engine::Record;
use std::fmt;

/// One recorded operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOp {
    /// `units` of data-path work (one unit ≈ one ALU/FPU op).
    Compute(u64),
    /// A memory access of `bytes` at `addr` on object `object`.
    Mem {
        /// Physical byte address.
        addr: u64,
        /// Access width in bytes.
        bytes: u16,
        /// `true` for stores.
        write: bool,
        /// Index of the object within the task's buffer list.
        object: u16,
    },
    /// A bulk copy (the memcpy idiom; CHERI CPUs move 16 bytes per
    /// instruction here, plain 64-bit CPUs 8).
    Copy {
        /// Source byte address.
        src: u64,
        /// Destination byte address.
        dst: u64,
        /// Bytes moved.
        bytes: u64,
    },
}

/// An append-only operation trace with consecutive-compute coalescing.
///
/// The trace stores its ops and nothing else: the summaries
/// ([`Trace::mem_ops`], [`Trace::compute_units`], [`Trace::mem_bytes`])
/// walk the ops on each call.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    ops: Vec<TraceOp>,
}

// Retired trace buffers, recycled by [`Trace::new`]. Kernel traces run to
// hundreds of thousands of ops; allocating that arena fresh per run costs
// more in page faults and growth copies than recording into it does, so
// dropping a large trace parks its buffer here instead (bounded, per
// thread, cleared before reuse — recording behaviour is unchanged).
thread_local! {
    static TRACE_POOL: std::cell::RefCell<Vec<Vec<TraceOp>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Buffers smaller than this are left to the allocator; only arenas whose
/// reallocation actually shows up in profiles are worth parking.
const POOL_MIN_CAPACITY: usize = 4096;
/// At most this many parked buffers per thread.
const POOL_MAX_BUFFERS: usize = 4;

impl Trace {
    /// Creates an empty trace, reusing a previously retired buffer when
    /// one is parked (warm pages, grown capacity).
    #[must_use]
    pub fn new() -> Trace {
        let ops = TRACE_POOL
            .with(|pool| pool.borrow_mut().pop())
            .unwrap_or_default();
        debug_assert!(ops.is_empty(), "pooled buffers are cleared on retire");
        Trace { ops }
    }

    /// Appends an operation, merging consecutive [`TraceOp::Compute`] runs.
    #[inline]
    pub fn push(&mut self, op: TraceOp) {
        if let TraceOp::Compute(units) = op {
            if let Some(TraceOp::Compute(prev)) = self.ops.last_mut() {
                *prev += units;
                return;
            }
        }
        self.ops.push(op);
    }

    /// The recorded operations in program order.
    #[must_use]
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Number of recorded operations (after coalescing).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Feeds every op, in program order, to `rec` — a recorded kernel
    /// run replayed into any [`Record`], as the engine fed the trace.
    pub fn replay(&self, rec: &mut impl Record) {
        for op in &self.ops {
            match *op {
                TraceOp::Compute(units) => rec.compute(units),
                TraceOp::Mem {
                    addr,
                    bytes,
                    write,
                    object,
                } => rec.mem(addr, bytes, write, object),
                TraceOp::Copy { src, dst, bytes } => rec.copy(src, dst, bytes),
            }
        }
    }

    /// Total data-path work units.
    #[must_use]
    pub fn compute_units(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                TraceOp::Compute(u) => *u,
                _ => 0,
            })
            .sum()
    }

    /// Total memory traffic in bytes (copies count both directions).
    #[must_use]
    pub fn mem_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                TraceOp::Mem { bytes, .. } => u64::from(*bytes),
                TraceOp::Copy { bytes, .. } => 2 * *bytes,
                TraceOp::Compute(_) => 0,
            })
            .sum()
    }

    /// Number of discrete memory operations (copies count as one),
    /// counted on each call.
    #[must_use]
    pub fn mem_ops(&self) -> u64 {
        self.ops
            .iter()
            .filter(|op| !matches!(op, TraceOp::Compute(_)))
            .count() as u64
    }

    /// Coalesces runs of contiguous same-direction, same-object accesses
    /// into AXI-style bursts of at most `max_burst_bytes`.
    ///
    /// This is what an HLS DMA engine does to streaming loops (`memcpy`
    /// inference / `#pragma HLS burst`): the byte traffic is unchanged,
    /// but the request count — and therefore the per-request latency
    /// exposure and CapChecker occupancy — drops dramatically.
    ///
    /// # Panics
    ///
    /// Panics if `max_burst_bytes` is zero or exceeds `u16::MAX`.
    #[must_use]
    pub fn coalesce_bursts(&self, max_burst_bytes: u64) -> Trace {
        assert!(
            (1..=u64::from(u16::MAX)).contains(&max_burst_bytes),
            "burst length must fit the request descriptor"
        );
        let mut out = Trace::new();
        let mut pending: Option<(u64, u64, bool, u16)> = None; // addr, bytes, write, object
        let flush = |out: &mut Trace, p: &mut Option<(u64, u64, bool, u16)>| {
            if let Some((addr, bytes, write, object)) = p.take() {
                out.push(TraceOp::Mem {
                    addr,
                    bytes: bytes as u16,
                    write,
                    object,
                });
            }
        };
        for op in &self.ops {
            match *op {
                TraceOp::Mem {
                    addr,
                    bytes,
                    write,
                    object,
                } => match &mut pending {
                    Some((paddr, pbytes, pwrite, pobject))
                        if *pwrite == write
                            && *pobject == object
                            && *paddr + *pbytes == addr
                            && *pbytes + u64::from(bytes) <= max_burst_bytes =>
                    {
                        *pbytes += u64::from(bytes);
                    }
                    _ => {
                        flush(&mut out, &mut pending);
                        pending = Some((addr, u64::from(bytes), write, object));
                    }
                },
                other => {
                    flush(&mut out, &mut pending);
                    out.push(other);
                }
            }
        }
        flush(&mut out, &mut pending);
        out
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        if self.ops.capacity() < POOL_MIN_CAPACITY {
            return;
        }
        let mut ops = std::mem::take(&mut self.ops);
        TRACE_POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < POOL_MAX_BUFFERS {
                ops.clear();
                pool.push(ops);
            }
        });
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace: {} ops, {} compute units, {} mem bytes",
            self.len(),
            self.compute_units(),
            self.mem_bytes()
        )
    }
}

impl FromIterator<TraceOp> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceOp>>(iter: I) -> Trace {
        let mut t = Trace::new();
        for op in iter {
            t.push(op);
        }
        t
    }
}

impl Extend<TraceOp> for Trace {
    fn extend<I: IntoIterator<Item = TraceOp>>(&mut self, iter: I) {
        for op in iter {
            self.push(op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_ops_coalesce() {
        let mut t = Trace::new();
        t.push(TraceOp::Compute(3));
        t.push(TraceOp::Compute(4));
        t.push(TraceOp::Mem {
            addr: 0,
            bytes: 4,
            write: false,
            object: 0,
        });
        t.push(TraceOp::Compute(1));
        assert_eq!(t.len(), 3);
        assert_eq!(t.compute_units(), 8);
    }

    #[test]
    fn traffic_accounting() {
        let t: Trace = [
            TraceOp::Mem {
                addr: 0,
                bytes: 4,
                write: false,
                object: 0,
            },
            TraceOp::Mem {
                addr: 4,
                bytes: 8,
                write: true,
                object: 1,
            },
            TraceOp::Copy {
                src: 0,
                dst: 64,
                bytes: 32,
            },
        ]
        .into_iter()
        .collect();
        assert_eq!(t.mem_bytes(), 4 + 8 + 64);
        assert_eq!(t.mem_ops(), 3);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.compute_units(), 0);
        assert_eq!(t.mem_bytes(), 0);
    }

    #[test]
    fn bursts_merge_contiguous_streams() {
        let t: Trace = (0..64u64)
            .map(|i| TraceOp::Mem {
                addr: 0x100 + i * 4,
                bytes: 4,
                write: false,
                object: 0,
            })
            .collect();
        let b = t.coalesce_bursts(256);
        assert_eq!(b.mem_ops(), 1, "one 256-byte burst");
        assert_eq!(b.mem_bytes(), t.mem_bytes(), "traffic preserved");
        // Burst length cap splits longer streams.
        let b64 = t.coalesce_bursts(64);
        assert_eq!(b64.mem_ops(), 4);
    }

    #[test]
    fn bursts_never_cross_direction_object_or_gaps() {
        let t: Trace = [
            TraceOp::Mem {
                addr: 0,
                bytes: 4,
                write: false,
                object: 0,
            },
            TraceOp::Mem {
                addr: 4,
                bytes: 4,
                write: true,
                object: 0,
            }, // direction flip
            TraceOp::Mem {
                addr: 8,
                bytes: 4,
                write: true,
                object: 1,
            }, // object flip
            TraceOp::Mem {
                addr: 16,
                bytes: 4,
                write: true,
                object: 1,
            }, // gap
        ]
        .into_iter()
        .collect();
        assert_eq!(t.coalesce_bursts(4096).mem_ops(), 4);
    }

    #[test]
    fn compute_breaks_a_burst() {
        let t: Trace = [
            TraceOp::Mem {
                addr: 0,
                bytes: 8,
                write: false,
                object: 0,
            },
            TraceOp::Compute(5),
            TraceOp::Mem {
                addr: 8,
                bytes: 8,
                write: false,
                object: 0,
            },
        ]
        .into_iter()
        .collect();
        let b = t.coalesce_bursts(4096);
        assert_eq!(b.mem_ops(), 2);
        assert_eq!(b.compute_units(), 5);
    }
}
