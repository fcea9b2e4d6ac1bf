//! Sparse, paged, byte-addressable main memory.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes per memory page.
pub const PAGE_BYTES: usize = 4096;

type Page = [u8; PAGE_BYTES];

/// The 64-bit FNV-1a prime [`SparseMemory::content_digest`] multiplies by.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Sentinel for "no page cached" (no reachable address maps to this page
/// number: the largest byte address yields page `u64::MAX / PAGE_BYTES`).
const NO_PAGE: u64 = u64::MAX;

/// A lazily-allocated, byte-addressable memory.
///
/// Reads of unmapped locations return zero, which gives the simulator total
/// semantics on wrong-path (speculative) accesses — a mispredicted load can
/// touch any address without failing. Written pages are tracked so two
/// memories can be compared cheaply ([`SparseMemory::diff`]), which is how
/// the out-of-order simulator's committed memory is validated against the
/// in-order oracle (the paper's dual committed-state sanity check, §5.1.1).
///
/// All multi-byte accesses are little-endian and may straddle page
/// boundaries.
///
/// Page storage is an arena (`Vec` of reference-counted pages) indexed by
/// a `BTreeMap`, with a one-entry last-page cache in front: sequential and
/// same-page accesses — the overwhelmingly common pattern in the
/// simulated load/store stream — skip the tree lookup entirely. Pages are
/// never deallocated, so cached slots can never dangle.
///
/// Pages are copy-on-write: [`Clone`] bumps each page's reference count
/// instead of copying bytes, so a checkpoint of a multi-megabyte memory
/// costs one pointer per page, and the first write to a shared page after
/// a clone faults just that page (O([`PAGE_BYTES`])) into private
/// storage. This is what makes periodic machine snapshots cheap enough to
/// drop every few thousand cycles during a sweep's baseline run.
///
/// # Examples
///
/// ```
/// use ftsim_mem::SparseMemory;
///
/// let mut m = SparseMemory::new();
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u64(0x2000), 0); // unmapped reads as zero
/// ```
#[derive(Debug, Clone)]
pub struct SparseMemory {
    /// Page number → arena slot.
    index: BTreeMap<u64, usize>,
    /// Page storage; slots are stable (pages are never removed). Shared
    /// copy-on-write with any clone of this memory.
    pages: Vec<Arc<Page>>,
    /// Last-translated `(page number, arena slot)`; `NO_PAGE` when cold.
    /// Interior mutability lets plain reads refresh the cache.
    last: Cell<(u64, usize)>,
}

impl Default for SparseMemory {
    fn default() -> Self {
        Self {
            index: BTreeMap::new(),
            pages: Vec::new(),
            last: Cell::new((NO_PAGE, 0)),
        }
    }
}

/// One difference found by [`SparseMemory::diff`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemDiff {
    /// Byte address of the first differing byte of an 8-byte-aligned word.
    pub addr: u64,
    /// Word value in `self`.
    pub left: u64,
    /// Word value in `other`.
    pub right: u64,
}

impl SparseMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn page_index(addr: u64) -> (u64, usize) {
        (
            addr / PAGE_BYTES as u64,
            (addr % PAGE_BYTES as u64) as usize,
        )
    }

    /// Arena slot of page `p`, consulting the one-entry cache before the
    /// tree and refreshing it on a tree hit.
    fn slot_of(&self, p: u64) -> Option<usize> {
        let (lp, ls) = self.last.get();
        if lp == p {
            return Some(ls);
        }
        let slot = *self.index.get(&p)?;
        self.last.set((p, slot));
        Some(slot)
    }

    /// Arena slot of page `p`, allocating it on first touch.
    fn slot_of_or_alloc(&mut self, p: u64) -> usize {
        if let Some(slot) = self.slot_of(p) {
            return slot;
        }
        let slot = self.pages.len();
        self.pages.push(Arc::new([0u8; PAGE_BYTES]));
        self.index.insert(p, slot);
        self.last.set((p, slot));
        slot
    }

    /// Reads one byte; unmapped locations read as zero.
    pub fn read_u8(&self, addr: u64) -> u8 {
        let (p, off) = Self::page_index(addr);
        self.slot_of(p).map_or(0, |slot| self.pages[slot][off])
    }

    /// Writes one byte, allocating the page on demand.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let (p, off) = Self::page_index(addr);
        let slot = self.slot_of_or_alloc(p);
        Arc::make_mut(&mut self.pages[slot])[off] = value;
    }

    /// Reads `N` little-endian bytes starting at `addr`.
    fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut buf = [0u8; N];
        let (p, off) = Self::page_index(addr);
        if off + N <= PAGE_BYTES {
            // Within one page (the common case): one translation, one copy.
            if let Some(slot) = self.slot_of(p) {
                buf.copy_from_slice(&self.pages[slot][off..off + N]);
            }
            return buf;
        }
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u64));
        }
        buf
    }

    /// Writes `bytes` starting at `addr`, one copy per page touched.
    pub fn write_slice(&mut self, addr: u64, bytes: &[u8]) {
        let (mut addr, mut rest) = (addr, bytes);
        while !rest.is_empty() {
            let (p, off) = Self::page_index(addr);
            let n = rest.len().min(PAGE_BYTES - off);
            let slot = self.slot_of_or_alloc(p);
            Arc::make_mut(&mut self.pages[slot])[off..off + n].copy_from_slice(&rest[..n]);
            addr = addr.wrapping_add(n as u64);
            rest = &rest[n..];
        }
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write_slice(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_slice(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_slice(addr, &value.to_le_bytes());
    }

    /// Reads `size` bytes (1, 2, 4 or 8) zero-extended into a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    pub fn read_sized(&self, addr: u64, size: u8) -> u64 {
        match size {
            1 => u64::from(self.read_u8(addr)),
            2 => u64::from(self.read_u16(addr)),
            4 => u64::from(self.read_u32(addr)),
            8 => self.read_u64(addr),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Writes the low `size` bytes (1, 2, 4 or 8) of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    pub fn write_sized(&mut self, addr: u64, value: u64, size: u8) {
        match size {
            1 => self.write_u8(addr, value as u8),
            2 => self.write_u16(addr, value as u16),
            4 => self.write_u32(addr, value as u32),
            8 => self.write_u64(addr, value),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Number of allocated (ever-written) pages.
    pub fn page_count(&self) -> usize {
        self.index.len()
    }

    /// Number of pages physically shared (same backing storage) with
    /// `other` — checkpointing diagnostics: a fresh clone shares every
    /// page; writes then peel pages off one at a time.
    pub fn pages_shared_with(&self, other: &SparseMemory) -> usize {
        self.index
            .iter()
            .filter(|(page, &slot)| {
                other
                    .index
                    .get(page)
                    .is_some_and(|&o| Arc::ptr_eq(&self.pages[slot], &other.pages[o]))
            })
            .count()
    }

    /// Folds this memory's *contents* into a running FNV-1a hash and
    /// returns the updated hash.
    ///
    /// The digest is content-based, matching read-as-zero semantics: only
    /// nonzero bytes contribute, each as `(address, value)`, with pages
    /// visited in ascending address order. Two memories with equal
    /// readable contents therefore digest identically regardless of which
    /// all-zero pages happen to be allocated — the property the outcome
    /// classifier relies on when comparing a faulty run's committed state
    /// against its family's fault-free baseline.
    pub fn content_digest(&self, hash: u64) -> u64 {
        self.digest_pages(hash, &[])
    }

    /// [`SparseMemory::content_digest`], with every page that is still
    /// the very page of `image` in its slot (a pristine page, never
    /// written since this memory was made from `image`) folded through
    /// the image's memo instead of byte by byte. The value is the same.
    pub fn content_digest_with(&self, hash: u64, image: &PageImage) -> u64 {
        self.digest_pages(hash, &image.pages)
    }

    fn digest_pages(&self, mut hash: u64, image: &[ImagePage]) -> u64 {
        let mut image = image.iter().peekable();
        for (&page, &slot) in &self.index {
            while image.next_if(|ip| ip.number < page).is_some() {}
            let bytes = &self.pages[slot];
            hash = match image.peek() {
                Some(ip) if ip.number == page && Arc::ptr_eq(&ip.bytes, bytes) => ip.chain(hash),
                _ => page_chain(page, bytes, hash),
            };
        }
        hash
    }

    /// Compares the union of allocated pages of `self` and `other`,
    /// returning up to `limit` differing 8-byte words.
    ///
    /// Unallocated pages compare equal to all-zero pages, matching the
    /// read-as-zero semantics.
    pub fn diff(&self, other: &SparseMemory, limit: usize) -> Vec<MemDiff> {
        let mut out = Vec::new();
        let zero = [0u8; PAGE_BYTES];
        let pages: std::collections::BTreeSet<u64> = self
            .index
            .keys()
            .chain(other.index.keys())
            .copied()
            .collect();
        for p in pages {
            let a = self.index.get(&p).map(|&s| &self.pages[s]);
            let b = other.index.get(&p).map(|&s| &other.pages[s]);
            // Pages that are one page on both sides cannot differ.
            if matches!((a, b), (Some(a), Some(b)) if Arc::ptr_eq(a, b)) {
                continue;
            }
            let (a, b) = (a.map_or(&zero, |a| &**a), b.map_or(&zero, |b| &**b));
            if a == b {
                continue;
            }
            for w in 0..(PAGE_BYTES / 8) {
                let off = w * 8;
                let wa = u64::from_le_bytes(a[off..off + 8].try_into().unwrap());
                let wb = u64::from_le_bytes(b[off..off + 8].try_into().unwrap());
                if wa != wb {
                    out.push(MemDiff {
                        addr: p * PAGE_BYTES as u64 + off as u64,
                        left: wa,
                        right: wb,
                    });
                    if out.len() >= limit {
                        return out;
                    }
                }
            }
        }
        out
    }
}

/// The FNV-1a chain of one page's nonzero bytes: for each, in offset
/// order, the eight little-endian bytes of its address, then its value.
///
/// Address bytes 2–7 are the same for every byte of a page, and the zero
/// ones at the top each multiply the hash by the prime (`(h ^ 0)·P`).
/// Those trailing multiplies fold exactly into the step before them: the
/// last address byte hashed on its own multiplies by `P^(k+1)`, where `k`
/// is the number of high zero bytes.
fn page_chain(number: u64, bytes: &Page, mut hash: u64) -> u64 {
    let base = number * PAGE_BYTES as u64;
    // `base >> 16` has at most 48 significant bits, so at least 16
    // leading zeros; each further zero byte is a high zero address byte.
    let high_zeros = ((base >> 16).leading_zeros() / 8 - 2) as usize;
    let last = 7 - high_zeros;
    let fold = FNV_PRIME.wrapping_pow(high_zeros as u32 + 1);
    for (off, &byte) in bytes.iter().enumerate() {
        if byte == 0 {
            continue;
        }
        let addr = (base + off as u64).to_le_bytes();
        for &b in &addr[..last] {
            hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        hash = (hash ^ u64::from(addr[last])).wrapping_mul(fold);
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// An immutable memory image that threads share: the initial data image
/// of a program, loaded once and handed to every machine that runs it.
///
/// [`PageImage::memory`] makes a [`SparseMemory`] whose pages *are* the
/// image's pages (reference-count bumps, no copies); a write then peels
/// the touched page off copy-on-write, so a memory page that is still
/// [`Arc::ptr_eq`] with the image page in its slot holds exactly the
/// image's bytes.
///
/// Each page also carries a memo of its digest chain, which
/// [`SparseMemory::content_digest_with`] uses for such pristine pages.
/// One FNV-1a step with `b < 256` and `l = h & 0xff` satisfies
/// `(h ^ b)·M = (h − l)·M + (l ^ b)·M`, and `h − l` has a zero low byte,
/// so by induction over a page's `n = 9 × nonzero bytes` steps
/// `chain(h) = (h − l)·P^n + chain(l)`: 256 memoized values per page
/// answer every incoming hash. The memo caches a pure function of the
/// page's bytes; it is never machine state.
pub struct PageImage {
    /// In ascending page-number order.
    pages: Vec<ImagePage>,
}

struct ImagePage {
    number: u64,
    bytes: Arc<Page>,
    /// `P^n` for the page's `n` FNV-1a steps.
    span: u64,
    /// `memo[l]` is `page_chain(number, bytes, l)`; 0 means not cached.
    memo: Box<[AtomicU64]>,
}

impl ImagePage {
    /// `page_chain(self.number, &self.bytes, hash)`, from the memo when
    /// it holds the chain of `hash`'s low byte, filling it otherwise.
    fn chain(&self, hash: u64) -> u64 {
        let low = hash & 0xff;
        let high = (hash - low).wrapping_mul(self.span);
        // Relaxed: a slot publishes nothing but its own value, and any
        // nonzero value a reader sees is the correct one.
        let slot = &self.memo[low as usize];
        match slot.load(Ordering::Relaxed) {
            // A chain that really is 0 is recomputed every time.
            0 => {
                let chained = page_chain(self.number, &self.bytes, hash);
                slot.store(chained.wrapping_sub(high), Ordering::Relaxed);
                chained
            }
            memo => high.wrapping_add(memo),
        }
    }
}

impl PageImage {
    /// Freezes `mem` into an image, keeping exactly its allocated pages.
    pub fn new(mem: SparseMemory) -> Self {
        let pages = mem
            .index
            .iter()
            .map(|(&number, &slot)| {
                let bytes = Arc::clone(&mem.pages[slot]);
                let steps = 9 * bytes.iter().filter(|&&b| b != 0).count() as u32;
                ImagePage {
                    number,
                    bytes,
                    span: FNV_PRIME.wrapping_pow(steps),
                    memo: (0..256).map(|_| AtomicU64::new(0)).collect(),
                }
            })
            .collect();
        Self { pages }
    }

    /// A memory holding this image, sharing its pages copy-on-write.
    pub fn memory(&self) -> SparseMemory {
        SparseMemory {
            index: (self.pages.iter().enumerate())
                .map(|(slot, p)| (p.number, slot))
                .collect(),
            pages: self.pages.iter().map(|p| Arc::clone(&p.bytes)).collect(),
            last: Cell::new((NO_PAGE, 0)),
        }
    }

    /// Number of `mem`'s pages that are still this image's own pages.
    pub fn pages_shared_with(&self, mem: &SparseMemory) -> usize {
        self.pages
            .iter()
            .filter(|p| {
                mem.index
                    .get(&p.number)
                    .is_some_and(|&slot| Arc::ptr_eq(&p.bytes, &mem.pages[slot]))
            })
            .count()
    }
}

impl fmt::Debug for PageImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageImage")
            .field("pages", &self.pages.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_unmapped_is_zero() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u8(12345), 0);
        assert_eq!(m.read_u64(0xffff_ffff_ffff_fff0), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn write_read_roundtrip_all_sizes() {
        let mut m = SparseMemory::new();
        m.write_u8(10, 0xab);
        m.write_u16(20, 0xbeef);
        m.write_u32(30, 0xdead_beef);
        m.write_u64(40, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u8(10), 0xab);
        assert_eq!(m.read_u16(20), 0xbeef);
        assert_eq!(m.read_u32(30), 0xdead_beef);
        assert_eq!(m.read_u64(40), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn content_digest_is_content_based() {
        const SEED: u64 = 0xcbf2_9ce4_8422_2325;
        let mut a = SparseMemory::new();
        a.write_u64(0x1000, 7);
        let mut b = SparseMemory::new();
        // An extra all-zero page (written then reverted) must not change
        // the digest: reads cannot distinguish it from an unmapped page.
        b.write_u64(0x9000, 1);
        b.write_u64(0x9000, 0);
        b.write_u64(0x1000, 7);
        assert_eq!(a.content_digest(SEED), b.content_digest(SEED));
        assert_eq!(
            SparseMemory::new().content_digest(SEED),
            SEED,
            "empty memory leaves the hash untouched"
        );
        // A one-bit difference in content changes the digest.
        let mut c = SparseMemory::new();
        c.write_u64(0x1000, 6);
        assert_ne!(a.content_digest(SEED), c.content_digest(SEED));
        // So does the same byte at a different address.
        let mut d = SparseMemory::new();
        d.write_u64(0x1008, 7);
        assert_ne!(a.content_digest(SEED), d.content_digest(SEED));
    }

    #[test]
    fn little_endian_layout() {
        let mut m = SparseMemory::new();
        m.write_u32(0, 0x0403_0201);
        assert_eq!(m.read_u8(0), 1);
        assert_eq!(m.read_u8(3), 4);
    }

    #[test]
    fn cross_page_access() {
        let mut m = SparseMemory::new();
        let addr = PAGE_BYTES as u64 - 4;
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn sized_access_matches_fixed() {
        let mut m = SparseMemory::new();
        m.write_sized(100, 0xffee_ddcc_bbaa_9988, 4);
        assert_eq!(m.read_sized(100, 4), 0xbbaa_9988);
        assert_eq!(m.read_sized(100, 8), 0xbbaa_9988); // upper bytes untouched
        m.write_sized(200, 0x7f, 1);
        assert_eq!(m.read_sized(200, 1), 0x7f);
    }

    #[test]
    #[should_panic(expected = "unsupported access size")]
    fn bad_size_panics() {
        let m = SparseMemory::new();
        let _ = m.read_sized(0, 3);
    }

    #[test]
    fn diff_detects_single_word() {
        let mut a = SparseMemory::new();
        let mut b = SparseMemory::new();
        a.write_u64(0x1000, 1);
        b.write_u64(0x1000, 2);
        b.write_u64(0x9000, 0); // allocated but equal to zero page in `a`
        let d = a.diff(&b, 16);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].addr, 0x1000);
        assert_eq!((d[0].left, d[0].right), (1, 2));
    }

    #[test]
    fn diff_equal_memories_is_empty() {
        let mut a = SparseMemory::new();
        a.write_u64(0, 7);
        let b = a.clone();
        assert!(a.diff(&b, 8).is_empty());
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut a = SparseMemory::new();
        a.write_u64(0x1000, 11);
        a.write_u64(0x5000, 22);
        let b = a.clone();
        assert_eq!(a.pages_shared_with(&b), 2, "a fresh clone shares all pages");
        // Writing through the clone peels only the touched page.
        let mut b = b;
        b.write_u64(0x1000, 99);
        assert_eq!(a.pages_shared_with(&b), 1);
        assert_eq!(a.read_u64(0x1000), 11, "original page unharmed");
        assert_eq!(b.read_u64(0x1000), 99);
        assert_eq!(b.read_u64(0x5000), 22, "untouched page still shared");
        // A new page in the clone never appears in the original.
        b.write_u8(0x9000, 1);
        assert_eq!(a.read_u8(0x9000), 0);
        assert_eq!(a.page_count(), 2);
        assert_eq!(b.page_count(), 3);
    }

    #[test]
    fn diff_respects_limit() {
        let mut a = SparseMemory::new();
        let b = SparseMemory::new();
        for i in 0..10 {
            a.write_u64(i * 8, i + 1);
        }
        assert_eq!(a.diff(&b, 3).len(), 3);
    }
}
