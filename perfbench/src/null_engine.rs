//! The reference engine the `machsuite.kernel_ms` layer is timed on: plain
//! byte buffers, no trace, no protection, no tagged memory. What a kernel
//! costs here is the functional math and data movement alone.

use hetsim::{Engine, ExecFault, MemError};

/// Runs a kernel over its own buffer images.
#[derive(Debug)]
pub struct NullEngine {
    bufs: Vec<Vec<u8>>,
}

impl NullEngine {
    /// An engine whose object `i` is `bufs[i]`.
    #[must_use]
    pub fn new(bufs: Vec<Vec<u8>>) -> NullEngine {
        NullEngine { bufs }
    }

    /// The buffers as the kernel left them.
    #[must_use]
    pub fn into_buffers(self) -> Vec<Vec<u8>> {
        self.bufs
    }

    fn span(&self, obj: usize, offset: u64, len: u64) -> Result<std::ops::Range<usize>, ExecFault> {
        let out = ExecFault::Mem(MemError::OutOfRange { addr: offset, len });
        let size = self.bufs.get(obj).ok_or(out)?.len() as u64;
        match offset.checked_add(len) {
            Some(end) if end <= size => Ok(offset as usize..end as usize),
            _ => Err(out),
        }
    }
}

impl Engine for NullEngine {
    hetsim::impl_typed_engine_helpers!();

    #[inline]
    fn load(&mut self, obj: usize, offset: u64, size: u8) -> Result<u64, ExecFault> {
        let span = self.span(obj, offset, u64::from(size))?;
        let mut raw = [0u8; 8];
        raw[..span.len()].copy_from_slice(&self.bufs[obj][span]);
        Ok(u64::from_le_bytes(raw))
    }

    #[inline]
    fn store(&mut self, obj: usize, offset: u64, size: u8, value: u64) -> Result<(), ExecFault> {
        let span = self.span(obj, offset, u64::from(size))?;
        let len = span.len();
        self.bufs[obj][span].copy_from_slice(&value.to_le_bytes()[..len]);
        Ok(())
    }

    #[inline]
    fn compute(&mut self, _units: u64) {}

    /// One bulk move, as `DirectEngine` does. The trait's byte-at-a-time
    /// default would make the null run slower than the traced one on
    /// copy-heavy kernels and drive the trace-recording layer negative.
    fn copy(
        &mut self,
        dst_obj: usize,
        dst_off: u64,
        src_obj: usize,
        src_off: u64,
        len: u64,
    ) -> Result<(), ExecFault> {
        let src = self.span(src_obj, src_off, len)?;
        let dst = self.span(dst_obj, dst_off, len)?;
        if src_obj == dst_obj {
            self.bufs[dst_obj].copy_within(src, dst.start);
        } else {
            let data = std::mem::take(&mut self.bufs[src_obj]);
            self.bufs[dst_obj][dst].copy_from_slice(&data[src]);
            self.bufs[src_obj] = data;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machsuite::Benchmark;

    /// Element-wise copies through the trait default, as the reference
    /// the bulk override must agree with.
    struct BytewiseCopy(NullEngine);

    impl Engine for BytewiseCopy {
        fn load(&mut self, obj: usize, offset: u64, size: u8) -> Result<u64, ExecFault> {
            self.0.load(obj, offset, size)
        }
        fn store(
            &mut self,
            obj: usize,
            offset: u64,
            size: u8,
            value: u64,
        ) -> Result<(), ExecFault> {
            self.0.store(obj, offset, size, value)
        }
        fn compute(&mut self, _units: u64) {}
    }

    #[test]
    fn bulk_copy_matches_bytewise_copy() {
        let bufs = vec![(0..64).collect::<Vec<u8>>(), vec![0; 64]];
        let mut bulk = NullEngine::new(bufs.clone());
        let mut slow = BytewiseCopy(NullEngine::new(bufs));
        for eng in [&mut bulk as &mut dyn Engine, &mut slow] {
            eng.copy(1, 8, 0, 3, 40).unwrap();
            eng.copy(0, 0, 0, 16, 32).unwrap();
        }
        assert_eq!(bulk.into_buffers(), slow.0.into_buffers());
    }

    #[test]
    fn out_of_range_accesses_fault() {
        let mut eng = NullEngine::new(vec![vec![0; 16]]);
        assert!(eng.load(0, 12, 8).is_err());
        assert!(eng.store(1, 0, 1, 0).is_err());
        assert!(eng.copy(0, 8, 0, 0, 9).is_err());
    }

    #[test]
    fn every_kernel_matches_its_reference_on_the_null_engine() {
        for bench in Benchmark::ALL {
            let mut eng = NullEngine::new(bench.init(5));
            bench.kernel(&mut eng).unwrap();
            let mut want = bench.init(5);
            bench.reference(&mut want);
            assert_eq!(eng.into_buffers(), want, "{bench}");
        }
    }
}
