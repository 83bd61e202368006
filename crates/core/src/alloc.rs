//! The driver's buffer allocator.
//!
//! The prototype shares main memory between the CPU and accelerators, so
//! accelerator buffers come from an ordinary heap (`malloc()` in the
//! paper's driver). This is a first-fit free-list allocator over the
//! simulated DRAM with coalescing on free.

use std::error::Error;
use std::fmt;

/// A rejected [`HeapAllocator::free`]: the driver tried to return a block
/// it does not own, or one that is already (partly) free. The whole
/// temporal-safety story rests on the driver (§6.2 group c), so these are
/// typed errors a caller must handle rather than silent corruption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// `[block, block + size)` is not contained in the managed range.
    ForeignFree {
        /// Base of the offending block.
        block: u64,
        /// Size of the offending block.
        size: u64,
    },
    /// `[block, block + size)` overlaps a block that is already free.
    DoubleFree {
        /// Base of the offending block.
        block: u64,
        /// Size of the offending block.
        size: u64,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::ForeignFree { block, size } => {
                write!(f, "freeing [{block:#x}, +{size:#x}) outside the heap")
            }
            AllocError::DoubleFree { block, size } => {
                write!(
                    f,
                    "double free: [{block:#x}, +{size:#x}) overlaps a free block"
                )
            }
        }
    }
}

impl Error for AllocError {}

/// A first-fit heap over a contiguous physical range.
#[derive(Clone)]
pub struct HeapAllocator {
    base: u64,
    size: u64,
    /// Free blocks `(base, size)`, sorted by base, non-adjacent.
    free: Vec<(u64, u64)>,
}

impl HeapAllocator {
    /// Manages `[base, base + size)`.
    #[must_use]
    pub fn new(base: u64, size: u64) -> HeapAllocator {
        HeapAllocator {
            base,
            size,
            free: vec![(base, size)],
        }
    }

    /// Total bytes currently free.
    #[must_use]
    pub fn free_bytes(&self) -> u64 {
        self.free.iter().map(|(_, s)| s).sum()
    }

    /// Largest single allocation currently possible (unaligned).
    #[must_use]
    pub fn largest_free(&self) -> u64 {
        self.free.iter().map(|(_, s)| *s).max().unwrap_or(0)
    }

    /// Allocates `size` bytes at `align` alignment, first fit.
    ///
    /// Returns the block base, or `None` when no block fits.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, size: u64, align: u64) -> Option<u64> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let size = size.max(1);
        for i in 0..self.free.len() {
            let (fbase, fsize) = self.free[i];
            let aligned = fbase.next_multiple_of(align);
            let pad = aligned - fbase;
            if fsize < pad || fsize - pad < size {
                continue;
            }
            // Carve [aligned, aligned+size) out of the block.
            self.free.remove(i);
            let mut insert_at = i;
            if pad > 0 {
                self.free.insert(insert_at, (fbase, pad));
                insert_at += 1;
            }
            let tail = fsize - pad - size;
            if tail > 0 {
                self.free.insert(insert_at, (aligned + size, tail));
            }
            return Some(aligned);
        }
        None
    }

    /// Returns `[block, block + size)` to the heap, coalescing neighbours.
    ///
    /// # Errors
    ///
    /// [`AllocError::ForeignFree`] if the block lies outside the managed
    /// range; [`AllocError::DoubleFree`] if it overlaps a free block. The
    /// heap is unchanged on error.
    pub fn free(&mut self, block: u64, size: u64) -> Result<(), AllocError> {
        let size = size.max(1);
        if block < self.base || block + size > self.base + self.size {
            return Err(AllocError::ForeignFree { block, size });
        }
        let pos = self.free.partition_point(|(b, _)| *b < block);
        if let Some(&(nb, _)) = self.free.get(pos) {
            if block + size > nb {
                return Err(AllocError::DoubleFree { block, size });
            }
        }
        if pos > 0 {
            let (pb, ps) = self.free[pos - 1];
            if pb + ps > block {
                return Err(AllocError::DoubleFree { block, size });
            }
        }
        self.free.insert(pos, (block, size));
        // Coalesce with next, then previous.
        if pos + 1 < self.free.len() && self.free[pos].0 + self.free[pos].1 == self.free[pos + 1].0
        {
            self.free[pos].1 += self.free[pos + 1].1;
            self.free.remove(pos + 1);
        }
        if pos > 0 && self.free[pos - 1].0 + self.free[pos - 1].1 == self.free[pos].0 {
            self.free[pos - 1].1 += self.free[pos].1;
            self.free.remove(pos);
        }
        Ok(())
    }
}

impl fmt::Debug for HeapAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "HeapAllocator[{:#x}+{:#x}] {} free in {} blocks",
            self.base,
            self.size,
            self.free_bytes(),
            self.free.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fit_and_alignment() {
        let mut h = HeapAllocator::new(0x1000, 0x1000);
        let a = h.alloc(100, 16).unwrap();
        assert_eq!(a % 16, 0);
        let b = h.alloc(100, 64).unwrap();
        assert_eq!(b % 64, 0);
        assert!(b >= a + 100);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut h = HeapAllocator::new(0, 256);
        assert!(h.alloc(300, 1).is_none());
        let a = h.alloc(256, 1).unwrap();
        assert!(h.alloc(1, 1).is_none());
        h.free(a, 256).unwrap();
        assert!(h.alloc(1, 1).is_some());
    }

    #[test]
    fn oversized_requests_return_none() {
        // The alignment pad plus the size overflows u64.
        let mut h = HeapAllocator::new(0x1008, 0x1000);
        assert!(h.alloc(u64::MAX, 16).is_none());
        assert_eq!(h.free_bytes(), 0x1000);
    }

    #[test]
    fn free_coalesces() {
        let mut h = HeapAllocator::new(0, 0x400);
        let a = h.alloc(0x100, 1).unwrap();
        let b = h.alloc(0x100, 1).unwrap();
        let c = h.alloc(0x100, 1).unwrap();
        h.free(a, 0x100).unwrap();
        h.free(c, 0x100).unwrap();
        h.free(b, 0x100).unwrap();
        assert_eq!(h.largest_free(), 0x400);
        assert_eq!(h.free_bytes(), 0x400);
    }

    #[test]
    fn double_free_is_a_typed_error() {
        let mut h = HeapAllocator::new(0, 0x400);
        let a = h.alloc(0x100, 1).unwrap();
        h.free(a, 0x100).unwrap();
        let before = h.free_bytes();
        assert!(matches!(
            h.free(a, 0x100),
            Err(AllocError::DoubleFree { block, size: 0x100 }) if block == a
        ));
        // Partial overlap with a free neighbour is a double free too.
        let b = h.alloc(0x100, 1).unwrap();
        assert!(matches!(
            h.free(b + 0x80, 0x100),
            Err(AllocError::DoubleFree { .. })
        ));
        assert_eq!(h.free_bytes(), before - 0x100, "heap unchanged on error");
    }

    #[test]
    fn foreign_free_is_a_typed_error() {
        let mut h = HeapAllocator::new(0x1000, 0x400);
        assert!(matches!(
            h.free(0, 0x10),
            Err(AllocError::ForeignFree {
                block: 0,
                size: 0x10
            })
        ));
        // Straddling the end of the range is foreign as well.
        assert!(matches!(
            h.free(0x13f0, 0x20),
            Err(AllocError::ForeignFree { .. })
        ));
        assert_eq!(h.free_bytes(), 0x400);
    }

    #[test]
    fn many_allocations_fit_tightly() {
        let mut h = HeapAllocator::new(0, 1 << 20);
        let mut blocks = Vec::new();
        for i in 0..1000u64 {
            blocks.push((h.alloc(512 + i % 64, 16).unwrap(), 512 + i % 64));
        }
        for (b, s) in blocks {
            h.free(b, s).unwrap();
        }
        assert_eq!(h.free_bytes(), 1 << 20);
    }
}
