//! Byte-addressed main memory with out-of-band capability tags.
//!
//! The tag bit is "a vital component of the protection model" (§5.2.1): one
//! bit per 16-byte capability granule, stored out of band so that no data
//! write can ever set it. Any capability-unaware write — which is what all
//! accelerator DMA is — clears the tags of every granule it touches, which
//! is exactly how the CapChecker prevents "mutation of valid capabilities
//! into forged ones".
//!
//! A system memory is tens of megabytes of which one cell dirties about
//! one, so a dropped memory is not freed: it is reset — only its dirty
//! bytes and tag words are zeroed — and parked on its thread for the next
//! memory of the same size (see [`TaggedMemory::new`]).

use cheri::{CompressedCapability, CAP_SIZE_BYTES};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// An access fell outside the physical memory, or was misaligned for a
/// capability-width operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemError {
    /// `[addr, addr + len)` is not contained in physical memory.
    OutOfRange {
        /// Start of the offending access.
        addr: u64,
        /// Length of the offending access in bytes.
        len: u64,
    },
    /// A capability-width access must be 16-byte aligned.
    Misaligned {
        /// The misaligned address.
        addr: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, len } => {
                write!(f, "physical access [{addr:#x}, +{len}) out of range")
            }
            MemError::Misaligned { addr } => {
                write!(f, "capability access at {addr:#x} is not 16-byte aligned")
            }
        }
    }
}

impl Error for MemError {}

/// Main memory plus shadow tag storage.
///
/// # Examples
///
/// ```
/// use hetsim::TaggedMemory;
/// use cheri::Capability;
///
/// # fn main() -> Result<(), hetsim::MemError> {
/// let mut mem = TaggedMemory::new(4096);
/// let cap = Capability::root().set_bounds(0x100, 64).unwrap();
/// mem.write_capability(0x40, cap.compress(), true)?;
/// assert!(mem.tag(0x40));
///
/// // A plain data write over the capability strips its tag.
/// mem.write_bytes(0x48, &[0xff])?;
/// assert!(!mem.tag(0x40));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct TaggedMemory {
    data: Vec<u8>,
    /// One tag bit per granule, [`TAG_WORD_GRANULES`] granules per word.
    tags: Vec<u64>,
    /// Capability interval index: granule address → decoded authority
    /// `(base, top)` of the capability stored there, for every *set* tag.
    /// Kept in lockstep with `tags` so revocation sweeps and audits walk
    /// live capabilities instead of all of physical memory. The cached
    /// bounds can never go stale: a granule's bytes are frozen while its
    /// tag is set (every data write clears the tags it touches).
    cap_index: BTreeMap<u64, (u64, u128)>,
    /// Conservative envelope of every granule address that has *ever*
    /// held a set tag: `tag_lo..=tag_hi`, granule-aligned. Data stores
    /// must clear the tags they overwrite, but almost all of them land in
    /// plain data buffers; testing the envelope first keeps the per-store
    /// cost at two integer compares instead of a capability-index probe.
    /// The envelope never shrinks (clears leave it alone), so it can only
    /// over-approximate — never miss — a live tag.
    tag_lo: u64,
    tag_hi: u64,
    /// Envelope of every byte a store has written: `dirty_lo..dirty_hi`
    /// (empty while `dirty_lo >= dirty_hi`), always inside memory. Every
    /// byte outside it is zero, so a reset zeroes only this range. Scrubs
    /// write zeros and leave it alone.
    dirty_lo: u64,
    dirty_hi: u64,
}

/// Granules whose tags share one word of [`TaggedMemory`]'s tag store.
const TAG_WORD_GRANULES: u64 = u64::BITS as u64;

// Reset memories parked per thread, most recently parked last. Taking
// one back spares a fresh system memory's mapping, page faults and
// zeroed tag store.
thread_local! {
    static MEMORY_POOL: RefCell<Vec<Parked>> = const { RefCell::new(Vec::new()) };
}

/// Memories smaller than this are left to the allocator.
const POOL_MIN_BYTES: u64 = 1 << 20;
/// At most this many parked memories per thread.
const POOL_MAX_MEMORIES: usize = 4;

/// The buffers of a reset memory: zero bytes, clear tags.
struct Parked {
    data: Vec<u8>,
    tags: Vec<u64>,
}

impl Parked {
    fn zeroed(size: u64) -> Parked {
        let granules = size / CAP_SIZE_BYTES;
        Parked {
            data: vec![0; size as usize],
            tags: vec![0; granules.div_ceil(TAG_WORD_GRANULES) as usize],
        }
    }

    /// The parked buffers of a `size`-byte memory, the most recently
    /// parked first, if this thread has any.
    fn take(size: u64) -> Option<Parked> {
        if size < POOL_MIN_BYTES {
            return None;
        }
        MEMORY_POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            let i = pool.iter().rposition(|p| p.data.len() as u64 == size)?;
            Some(pool.swap_remove(i))
        })
    }
}

impl Drop for TaggedMemory {
    /// Resets a pooled-size memory and parks it on this thread. When the
    /// pool is full the smallest parked memory makes room for one at
    /// least as big, never the reverse, so scratch memories dropped
    /// between cells cannot push out the system memory.
    fn drop(&mut self) {
        if self.size() < POOL_MIN_BYTES {
            return;
        }
        // A memory dropped while the thread's locals are torn down is
        // simply freed.
        let _ = MEMORY_POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() == POOL_MAX_MEMORIES {
                match pool.iter().enumerate().min_by_key(|(_, p)| p.data.len()) {
                    Some((i, p)) if p.data.len() <= self.data.len() => pool.swap_remove(i),
                    _ => return,
                };
            }
            self.reset();
            pool.push(Parked {
                data: std::mem::take(&mut self.data),
                tags: std::mem::take(&mut self.tags),
            });
        });
    }
}

impl TaggedMemory {
    /// `size` bytes of zeroed memory with all tags clear.
    ///
    /// A memory of at least 1 MiB takes the buffers of one of the same
    /// size that this thread dropped, when one is parked: the drop reset
    /// it, so it is indistinguishable from a fresh one.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a multiple of the 16-byte tag granule.
    #[must_use]
    pub fn new(size: u64) -> TaggedMemory {
        assert!(
            size.is_multiple_of(CAP_SIZE_BYTES),
            "memory size must be tag-granule aligned"
        );
        TaggedMemory::from_parked(Parked::take(size).unwrap_or_else(|| Parked::zeroed(size)))
    }

    fn from_parked(Parked { data, tags }: Parked) -> TaggedMemory {
        TaggedMemory {
            data,
            tags,
            cap_index: BTreeMap::new(),
            tag_lo: u64::MAX,
            tag_hi: 0,
            dirty_lo: u64::MAX,
            dirty_hi: 0,
        }
    }

    /// Returns the memory to the state [`TaggedMemory::new`] leaves it
    /// in, touching only the dirty bytes and the tag words in the tag
    /// envelope.
    fn reset(&mut self) {
        if self.dirty_lo < self.dirty_hi {
            self.data[self.dirty_lo as usize..self.dirty_hi as usize].fill(0);
        }
        if self.tag_lo <= self.tag_hi {
            let word = |addr: u64| (addr / CAP_SIZE_BYTES / TAG_WORD_GRANULES) as usize;
            self.tags[word(self.tag_lo)..=word(self.tag_hi)].fill(0);
        }
        self.cap_index.clear();
        (self.tag_lo, self.tag_hi) = (u64::MAX, 0);
        (self.dirty_lo, self.dirty_hi) = (u64::MAX, 0);
    }

    /// [`Self::span`] for a store, grown into the dirty envelope. The
    /// envelope lies inside memory, so a store inside it needs no range
    /// check.
    #[inline]
    fn dirty_span(&mut self, addr: u64, len: u64) -> Result<std::ops::Range<usize>, MemError> {
        let end = addr
            .checked_add(len)
            .ok_or(MemError::OutOfRange { addr, len })?;
        if addr < self.dirty_lo || end > self.dirty_hi {
            self.widen_dirty(addr, len)?;
        }
        Ok(addr as usize..end as usize)
    }

    /// Range-checks a store outside the dirty envelope and grows the
    /// envelope to cover it.
    #[cold]
    fn widen_dirty(&mut self, addr: u64, len: u64) -> Result<(), MemError> {
        let span = self.span(addr, len)?;
        self.dirty_lo = self.dirty_lo.min(span.start as u64);
        self.dirty_hi = self.dirty_hi.max(span.end as u64);
        Ok(())
    }

    /// Number of tag granules.
    #[inline]
    fn granules(&self) -> u64 {
        self.size() / CAP_SIZE_BYTES
    }

    /// The tag bit of granule `g` (in range).
    #[inline]
    fn tag_bit(&self, g: u64) -> bool {
        self.tags[(g / TAG_WORD_GRANULES) as usize] >> (g % TAG_WORD_GRANULES) & 1 == 1
    }

    /// Sets the tag bit of granule `g` (in range) to `value`.
    #[inline]
    fn put_tag_bit(&mut self, g: u64, value: bool) {
        let word = &mut self.tags[(g / TAG_WORD_GRANULES) as usize];
        let bit = 1 << (g % TAG_WORD_GRANULES);
        if value {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Grows the tagged-granule envelope to cover `granule_addr`.
    #[inline]
    fn note_tagged(&mut self, granule_addr: u64) {
        self.tag_lo = self.tag_lo.min(granule_addr);
        self.tag_hi = self.tag_hi.max(granule_addr);
    }

    /// Decodes the authority bounds of the capability bytes currently in
    /// `addr`'s granule, for indexing. `addr` must be granule-aligned and
    /// in range.
    fn decode_bounds_at(&self, addr: u64) -> (u64, u128) {
        let lo = addr as usize;
        let mut raw = [0u8; CAP_SIZE_BYTES as usize];
        raw.copy_from_slice(&self.data[lo..lo + CAP_SIZE_BYTES as usize]);
        let cap = CompressedCapability::from_bits(u128::from_le_bytes(raw)).decode(true);
        (cap.base(), cap.top())
    }

    /// Physical memory size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.data.len() as u64
    }

    #[inline]
    fn span(&self, addr: u64, len: u64) -> Result<std::ops::Range<usize>, MemError> {
        let end = addr
            .checked_add(len)
            .ok_or(MemError::OutOfRange { addr, len })?;
        if end > self.size() {
            return Err(MemError::OutOfRange { addr, len });
        }
        Ok(addr as usize..end as usize)
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the span leaves physical memory.
    #[inline]
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> Result<(), MemError> {
        let span = self.span(addr, buf.len() as u64)?;
        buf.copy_from_slice(&self.data[span]);
        Ok(())
    }

    /// Writes `buf` at `addr` as a *capability-unaware* store: the tags of
    /// every granule the write touches are cleared.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the span leaves physical memory.
    #[inline]
    pub fn write_bytes(&mut self, addr: u64, buf: &[u8]) -> Result<(), MemError> {
        let span = self.dirty_span(addr, buf.len() as u64)?;
        self.data[span].copy_from_slice(buf);
        self.clear_tags(addr, buf.len() as u64);
        Ok(())
    }

    /// Copies `len` bytes from `src` to `dst` as a *capability-unaware*
    /// store, with `memmove` semantics (the spans may overlap): the tags
    /// of every destination granule are cleared, the source's are kept.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if either span leaves physical memory,
    /// the source checked first; nothing is written then.
    pub fn copy_within(&mut self, src: u64, dst: u64, len: u64) -> Result<(), MemError> {
        let from = self.span(src, len)?;
        let to = self.dirty_span(dst, len)?;
        self.data.copy_within(from, to.start);
        self.clear_tags(dst, len);
        Ok(())
    }

    /// Reads up to 8 bytes as a little-endian integer.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the span leaves physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `len > 8`.
    #[inline]
    pub fn read_uint(&self, addr: u64, len: u8) -> Result<u64, MemError> {
        assert!(len <= 8, "integer reads are at most 8 bytes");
        let mut raw = [0u8; 8];
        self.read_bytes(addr, &mut raw[..len as usize])?;
        Ok(u64::from_le_bytes(raw))
    }

    /// Writes up to 8 bytes as a little-endian integer (tag-clearing).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the span leaves physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `len > 8`.
    #[inline]
    pub fn write_uint(&mut self, addr: u64, len: u8, value: u64) -> Result<(), MemError> {
        assert!(len <= 8, "integer writes are at most 8 bytes");
        let raw = value.to_le_bytes();
        self.write_bytes(addr, &raw[..len as usize])
    }

    /// Reads a 128-bit capability and its shadow tag.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] unless `addr` is 16-byte aligned;
    /// [`MemError::OutOfRange`] if outside memory.
    pub fn read_capability(&self, addr: u64) -> Result<(CompressedCapability, bool), MemError> {
        if !addr.is_multiple_of(CAP_SIZE_BYTES) {
            return Err(MemError::Misaligned { addr });
        }
        let mut raw = [0u8; 16];
        self.read_bytes(addr, &mut raw)?;
        let bits = u128::from_le_bytes(raw);
        Ok((
            CompressedCapability::from_bits(bits),
            self.tag_bit(addr / CAP_SIZE_BYTES),
        ))
    }

    /// Writes a 128-bit capability with its tag — the *capability-aware*
    /// store only the CHERI CPU (and the trusted CapChecker import path)
    /// can perform.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] unless `addr` is 16-byte aligned;
    /// [`MemError::OutOfRange`] if outside memory.
    pub fn write_capability(
        &mut self,
        addr: u64,
        cap: CompressedCapability,
        tag: bool,
    ) -> Result<(), MemError> {
        if !addr.is_multiple_of(CAP_SIZE_BYTES) {
            return Err(MemError::Misaligned { addr });
        }
        let span = self.dirty_span(addr, CAP_SIZE_BYTES)?;
        self.data[span].copy_from_slice(&cap.bits().to_le_bytes());
        self.put_tag_bit(addr / CAP_SIZE_BYTES, tag);
        if tag {
            let decoded = cap.decode(true);
            self.cap_index.insert(addr, (decoded.base(), decoded.top()));
            self.note_tagged(addr);
        } else {
            self.cap_index.remove(&addr);
        }
        Ok(())
    }

    /// The shadow tag covering `addr`'s granule (`false` out of range).
    #[must_use]
    pub fn tag(&self, addr: u64) -> bool {
        let g = addr / CAP_SIZE_BYTES;
        g < self.granules() && self.tag_bit(g)
    }

    /// Fault-injection hook: forces the tag bit covering `addr`'s granule
    /// without going through the capability-aware store path, returning
    /// the previous value. This is how the fault harness models a bit flip
    /// in the shadow tag storage — no architectural operation can do this.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if `addr` is outside physical memory.
    pub fn set_tag_raw(&mut self, addr: u64, value: bool) -> Result<bool, MemError> {
        let granule = addr / CAP_SIZE_BYTES;
        if granule >= self.granules() {
            return Err(MemError::OutOfRange { addr, len: 1 });
        }
        let previous = self.tag_bit(granule);
        self.put_tag_bit(granule, value);
        let granule_addr = granule * CAP_SIZE_BYTES;
        if value {
            // A forged tag makes whatever bytes sit there a "capability";
            // index the bounds those bytes decode to, exactly as a sweep
            // reading the granule would see them.
            let bounds = self.decode_bounds_at(granule_addr);
            self.cap_index.insert(granule_addr, bounds);
            self.note_tagged(granule_addr);
        } else {
            self.cap_index.remove(&granule_addr);
        }
        Ok(previous)
    }

    /// Clears every tag whose granule intersects `[addr, addr + len)`.
    ///
    /// Walks the capability index, not the span, so wide DMA writes and
    /// scrubs pay per *set* tag in the range rather than per granule.
    #[inline]
    pub fn clear_tags(&mut self, addr: u64, len: u64) {
        let lo = (addr / CAP_SIZE_BYTES) * CAP_SIZE_BYTES;
        // Envelope fast-out, first for the span starting past every set
        // tag — always so while none has been set.
        if len == 0 || lo > self.tag_hi {
            return;
        }
        // A span that runs past the top of the address space clears
        // through to the top of memory.
        let last = addr.saturating_add(len - 1) / CAP_SIZE_BYTES;
        let hi = last.min(self.granules().saturating_sub(1)) * CAP_SIZE_BYTES;
        if lo > hi || hi < self.tag_lo {
            return;
        }
        let doomed: Vec<u64> = self.cap_index.range(lo..=hi).map(|(a, _)| *a).collect();
        for granule_addr in doomed {
            self.put_tag_bit(granule_addr / CAP_SIZE_BYTES, false);
            self.cap_index.remove(&granule_addr);
        }
    }

    /// Number of set tags (used by audits and tests). O(1) via the index.
    #[must_use]
    pub fn tag_count(&self) -> usize {
        self.cap_index.len()
    }

    /// The live tagged granules, in address order, as
    /// `(granule address, authority base, authority top)`.
    ///
    /// This is the revocation sweep's fast path: cost proportional to the
    /// number of valid in-memory capabilities, not to physical memory.
    pub fn tagged_capabilities(&self) -> impl Iterator<Item = (u64, u64, u128)> + '_ {
        self.cap_index
            .iter()
            .map(|(addr, (base, top))| (*addr, *base, *top))
    }

    /// Zeroes `[addr, addr + len)` and clears its tags — the driver's
    /// buffer-scrub on deallocation after an exception.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the span leaves physical memory.
    pub fn scrub(&mut self, addr: u64, len: u64) -> Result<(), MemError> {
        let span = self.span(addr, len)?;
        self.data[span].fill(0);
        self.clear_tags(addr, len);
        Ok(())
    }
}

impl fmt::Debug for TaggedMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaggedMemory")
            .field("size", &self.data.len())
            .field("tags_set", &self.tag_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri::Capability;
    use proptest::prelude::*;

    #[test]
    fn data_round_trip() {
        let mut mem = TaggedMemory::new(1024);
        mem.write_bytes(100, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        mem.read_bytes(100, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn uint_round_trip() {
        let mut mem = TaggedMemory::new(1024);
        mem.write_uint(64, 8, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(mem.read_uint(64, 8).unwrap(), 0xdead_beef_cafe_f00d);
        mem.write_uint(80, 4, 0x1234_5678).unwrap();
        assert_eq!(mem.read_uint(80, 4).unwrap(), 0x1234_5678);
    }

    #[test]
    fn out_of_range_is_reported() {
        let mut mem = TaggedMemory::new(1024);
        let mut buf = [0u8; 8];
        assert_eq!(
            mem.read_bytes(1020, &mut buf),
            Err(MemError::OutOfRange { addr: 1020, len: 8 })
        );
        assert!(mem.read_bytes(u64::MAX, &mut buf).is_err());
        // Stores past the top fail too, also once earlier stores have
        // dirtied all but the top few bytes.
        mem.write_bytes(0, &[1; 1016]).unwrap();
        assert_eq!(
            mem.write_bytes(1020, &buf),
            Err(MemError::OutOfRange { addr: 1020, len: 8 })
        );
        assert!(mem.write_bytes(u64::MAX, &buf).is_err());
        assert!(mem
            .write_capability(1024, Capability::root().compress(), true)
            .is_err());
    }

    #[test]
    fn capability_round_trip_keeps_tag() {
        let mut mem = TaggedMemory::new(1024);
        let cap = Capability::root().set_bounds(0x200, 32).unwrap();
        mem.write_capability(0x80, cap.compress(), true).unwrap();
        let (bits, tag) = mem.read_capability(0x80).unwrap();
        assert!(tag);
        assert_eq!(bits.decode(true), cap);
    }

    #[test]
    fn data_write_clears_overlapping_tag() {
        let mut mem = TaggedMemory::new(1024);
        let cap = Capability::root().set_bounds(0, 16).unwrap();
        mem.write_capability(0x80, cap.compress(), true).unwrap();
        mem.write_capability(0x90, cap.compress(), true).unwrap();
        assert_eq!(mem.tag_count(), 2);
        // One byte into the first granule kills only that tag.
        mem.write_bytes(0x8f, &[0]).unwrap();
        assert!(!mem.tag(0x80));
        assert!(mem.tag(0x90));
    }

    #[test]
    fn wide_write_clears_all_touched_tags() {
        let mut mem = TaggedMemory::new(1024);
        let cap = Capability::root().set_bounds(0, 16).unwrap();
        for addr in [0x40, 0x50, 0x60] {
            mem.write_capability(addr, cap.compress(), true).unwrap();
        }
        mem.write_bytes(0x48, &[0u8; 24]).unwrap(); // touches 0x40 and 0x50 and 0x60's granule start?
        assert!(!mem.tag(0x40));
        assert!(!mem.tag(0x50));
        // 0x48 + 24 = 0x60, exclusive: granule 0x60 untouched.
        assert!(mem.tag(0x60));
    }

    #[test]
    fn overlapping_copies_move_like_memmove() {
        let mut mem = TaggedMemory::new(1024);
        let bytes: Vec<u8> = (1..=32).collect();
        mem.write_bytes(0x100, &bytes).unwrap();
        // Forward overlap: the destination starts inside the source.
        mem.copy_within(0x100, 0x108, 32).unwrap();
        let mut buf = [0u8; 40];
        mem.read_bytes(0x100, &mut buf).unwrap();
        assert_eq!(&buf[..8], &bytes[..8]);
        assert_eq!(&buf[8..], &bytes[..]);
        // Backward overlap: the source starts inside the destination.
        mem.copy_within(0x108, 0x104, 32).unwrap();
        mem.read_bytes(0x104, &mut buf[..32]).unwrap();
        assert_eq!(&buf[..32], &bytes[..]);
    }

    #[test]
    fn copies_clear_destination_tags_and_keep_source_tags() {
        let mut mem = TaggedMemory::new(1024);
        let cap = Capability::root().set_bounds(0, 16).unwrap().compress();
        mem.write_capability(0x40, cap, true).unwrap();
        mem.write_capability(0x90, cap, true).unwrap();
        mem.copy_within(0x40, 0x88, 16).unwrap();
        assert!(mem.tag(0x40), "the source keeps its tag");
        assert!(
            !mem.tag(0x80) && !mem.tag(0x90),
            "a data copy forges no tag"
        );
        assert_eq!(mem.tag_count(), 1);
        let mut moved = [0u8; 16];
        mem.read_bytes(0x88, &mut moved).unwrap();
        assert_eq!(moved, cap.bits().to_le_bytes());
    }

    #[test]
    fn out_of_range_copies_fail_source_first_and_write_nothing() {
        let mut mem = TaggedMemory::new(1024);
        mem.write_bytes(0, &[7; 16]).unwrap();
        let snapshot = mem.data.clone();
        assert_eq!(
            mem.copy_within(1020, 2000, 8),
            Err(MemError::OutOfRange { addr: 1020, len: 8 })
        );
        assert_eq!(
            mem.copy_within(0, 1020, 8),
            Err(MemError::OutOfRange { addr: 1020, len: 8 })
        );
        assert_eq!(
            mem.copy_within(u64::MAX, 0, 2),
            Err(MemError::OutOfRange {
                addr: u64::MAX,
                len: 2
            })
        );
        assert_eq!(
            mem.copy_within(0, u64::MAX, 2),
            Err(MemError::OutOfRange {
                addr: u64::MAX,
                len: 2
            })
        );
        assert!(mem.data == snapshot, "a failed copy wrote");
        assert_eq!((mem.dirty_lo, mem.dirty_hi), (0, 16));
        mem.copy_within(1024, 0, 0).unwrap();
    }

    #[test]
    fn misaligned_capability_access_rejected() {
        let mut mem = TaggedMemory::new(1024);
        assert_eq!(
            mem.read_capability(8).unwrap_err(),
            MemError::Misaligned { addr: 8 }
        );
        let cap = Capability::root().compress();
        assert_eq!(
            mem.write_capability(8, cap, true).unwrap_err(),
            MemError::Misaligned { addr: 8 }
        );
    }

    #[test]
    fn scrub_zeroes_and_untags() {
        let mut mem = TaggedMemory::new(1024);
        mem.write_bytes(0x100, &[0xaa; 64]).unwrap();
        mem.write_capability(0x100, Capability::root().compress(), true)
            .unwrap();
        mem.scrub(0x100, 64).unwrap();
        let mut buf = [0xffu8; 64];
        mem.read_bytes(0x100, &mut buf).unwrap();
        assert!(buf.iter().all(|b| *b == 0));
        assert_eq!(mem.tag_count(), 0);
    }

    #[test]
    fn raw_tag_flips_bypass_the_store_path() {
        let mut mem = TaggedMemory::new(1024);
        assert!(!mem.tag(0x40));
        assert_eq!(mem.set_tag_raw(0x44, true), Ok(false)); // mid-granule addr
        assert!(mem.tag(0x40), "granule tag forged");
        assert_eq!(mem.tag_count(), 1);
        assert_eq!(mem.set_tag_raw(0x40, false), Ok(true));
        assert_eq!(mem.tag_count(), 0);
        assert!(mem.set_tag_raw(1 << 20, true).is_err());
    }

    #[test]
    fn zero_length_operations_are_noops() {
        let mut mem = TaggedMemory::new(64);
        mem.write_bytes(64, &[]).unwrap(); // empty write at the end is fine
        mem.clear_tags(0, 0);
        assert_eq!(mem.tag_count(), 0);
    }

    #[test]
    fn tag_clears_past_the_top_of_the_address_space_do_not_overflow() {
        let mut mem = TaggedMemory::new(64);
        mem.clear_tags(u64::MAX - 3, 8);
        mem.set_tag_raw(0x30, true).unwrap();
        // The span wraps the address space: it clears through to the top.
        mem.clear_tags(0x20, u64::MAX);
        assert!(!mem.tag(0x30));
        assert_eq!(mem.tag_count(), 0);
    }

    #[test]
    fn tags_past_the_last_granule_read_clear() {
        // 4 granules share a tag word with 60 that do not exist.
        let mut mem = TaggedMemory::new(64);
        assert!(mem.set_tag_raw(64, true).is_err());
        mem.set_tag_raw(0x30, true).unwrap();
        assert!(mem.tag(0x30));
        assert!(!mem.tag(0x40));
        assert!(!mem.tag(u64::MAX));
    }

    #[test]
    fn small_memories_never_push_out_a_parked_big_one() {
        let big = TaggedMemory::new(3 * POOLED);
        let parked = big.data.as_ptr();
        drop(big);
        for k in 0..2 * POOL_MAX_MEMORIES as u64 {
            drop(TaggedMemory::new(POOLED + 16 * k));
            drop(TaggedMemory::new(4096));
        }
        assert_eq!(TaggedMemory::new(3 * POOLED).data.as_ptr(), parked);
    }

    /// A memory big enough to be kept across cells.
    const POOLED: u64 = 1 << 20;

    /// One write through any of the memory's writers.
    #[derive(Clone, Debug)]
    enum Op {
        Bytes {
            addr: u64,
            len: u64,
            fill: u8,
        },
        Uint {
            addr: u64,
            len: u8,
            value: u64,
        },
        Cap {
            addr: u64,
            bits: u128,
            tag: bool,
        },
        Flip {
            addr: u64,
            value: bool,
        },
        Clear {
            addr: u64,
            len: u64,
        },
        Scrub {
            addr: u64,
            len: u64,
        },
        Copy {
            src: u64,
            dst: u64,
            len: u64,
        },
        /// A burst of engine stores and a copy with the address lines of
        /// the `at_op`th garbled by the fault injector.
        GarbledDma {
            base: u64,
            at_op: u64,
            value: u64,
        },
    }

    /// Addresses cover the whole memory and run a little past its top.
    fn arb_addr() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..POOLED + 256, (POOLED - 512)..POOLED + 64]
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (arb_addr(), 0u64..600, 1u8..=255).prop_map(|(addr, len, fill)| Op::Bytes {
                addr,
                len,
                fill
            }),
            (arb_addr(), 1u8..=8, any::<u64>()).prop_map(|(addr, len, value)| Op::Uint {
                addr,
                len,
                value
            }),
            (arb_addr(), any::<u128>(), any::<bool>()).prop_map(|(addr, bits, tag)| Op::Cap {
                addr: addr & !(CAP_SIZE_BYTES - 1),
                bits,
                tag,
            }),
            (arb_addr(), any::<bool>()).prop_map(|(addr, value)| Op::Flip { addr, value }),
            (arb_addr(), 0u64..4096).prop_map(|(addr, len)| Op::Clear { addr, len }),
            (arb_addr(), 0u64..4096).prop_map(|(addr, len)| Op::Scrub { addr, len }),
            (arb_addr(), arb_addr(), 0u64..600).prop_map(|(src, dst, len)| Op::Copy {
                src,
                dst,
                len
            }),
            (0u64..POOLED - 4096, 0u64..6, any::<u64>())
                .prop_map(|(base, at_op, value)| Op::GarbledDma { base, at_op, value }),
        ]
    }

    /// Applies `op`; writes that leave memory fail and change nothing.
    fn apply(mem: &mut TaggedMemory, op: &Op) {
        use crate::engine::{DirectEngine, Engine, TaskLayout};
        use crate::fault::{FaultKind, FaultyEngine, InjectedFault};
        match *op {
            Op::Bytes { addr, len, fill } => {
                let _ = mem.write_bytes(addr, &vec![fill; len as usize]);
            }
            Op::Uint { addr, len, value } => {
                let _ = mem.write_uint(addr, len, value);
            }
            Op::Cap { addr, bits, tag } => {
                let _ = mem.write_capability(addr, CompressedCapability::from_bits(bits), tag);
            }
            Op::Flip { addr, value } => {
                let _ = mem.set_tag_raw(addr, value);
            }
            Op::Clear { addr, len } => mem.clear_tags(addr, len),
            Op::Scrub { addr, len } => {
                let _ = mem.scrub(addr, len);
            }
            Op::Copy { src, dst, len } => {
                let _ = mem.copy_within(src, dst, len);
            }
            Op::GarbledDma { base, at_op, value } => {
                let mut inner = DirectEngine::new(mem, TaskLayout::new([(base, 4096)]));
                let fault = InjectedFault {
                    kind: FaultKind::GarbledDma,
                    at_op,
                };
                let mut eng = FaultyEngine::new(&mut inner, Some(fault));
                for i in 0..4 {
                    let _ = eng.store(0, i * 72, 8, value.rotate_left(i as u32) | 1);
                }
                let _ = eng.copy(0, 2048, 0, 0, 512);
            }
        }
    }

    /// `mem` equals a freshly allocated memory of its size in every field.
    fn equals_fresh(mem: &TaggedMemory) -> Result<(), TestCaseError> {
        let fresh = TaggedMemory::from_parked(Parked::zeroed(mem.size()));
        prop_assert!(mem.data == fresh.data, "bytes survive");
        prop_assert!(mem.tags == fresh.tags, "tags survive");
        prop_assert!(
            mem.cap_index == fresh.cap_index,
            "the capability index survives"
        );
        prop_assert_eq!((mem.tag_lo, mem.tag_hi), (fresh.tag_lo, fresh.tag_hi));
        prop_assert_eq!(
            (mem.dirty_lo, mem.dirty_hi),
            (fresh.dirty_lo, fresh.dirty_hi)
        );
        Ok(())
    }

    proptest! {
        /// A memory dropped after any writes and taken again on the same
        /// thread is indistinguishable from a freshly allocated one: no
        /// byte, tag, indexed capability or envelope of one cell reaches
        /// the next. A reset in place gets there too.
        #[test]
        fn a_retaken_memory_equals_a_fresh_one(
            ops in prop::collection::vec(arb_op(), 0..48),
        ) {
            let mut mem = TaggedMemory::new(POOLED);
            for op in &ops {
                apply(&mut mem, op);
            }
            let mut reset = mem.clone();
            reset.reset();
            equals_fresh(&reset)?;
            let parked = mem.data.as_ptr();
            drop(mem);
            let again = TaggedMemory::new(POOLED);
            prop_assert!(again.data.as_ptr() == parked, "the dropped memory was not reused");
            equals_fresh(&again)?;
        }
    }
}
