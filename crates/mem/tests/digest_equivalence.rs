//! `SparseMemory::content_digest` and its memoized form over a shared
//! `PageImage` against a reference: the byte-wise FNV-1a loop over every
//! nonzero byte in address order that the digest was first defined by.

use ftsim_mem::{PageImage, SparseMemory, PAGE_BYTES};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Barrier;

/// The digest's definition, byte by byte: for each nonzero byte in
/// ascending address order, the eight little-endian address bytes, then
/// the value.
fn bytewise_digest(model: &BTreeMap<u64, u8>, mut hash: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for (&addr, &byte) in model {
        if byte == 0 {
            continue;
        }
        for b in addr.to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(PRIME);
        }
        hash = (hash ^ u64::from(byte)).wrapping_mul(PRIME);
    }
    hash
}

/// A page number whose address has exactly `high_zeros` zero bytes at the
/// top of address bytes 2–7 (0 puts the page at or above 2^56, 6 below
/// 2^16), with the other bits taken from `bits`.
fn page_number(high_zeros: u32, bits: u64) -> u64 {
    let significant = 6 - high_zeros;
    let high = if significant == 0 {
        0
    } else {
        let top = 1u64 << (8 * (significant - 1));
        top | (bits & (top.wrapping_mul(256).wrapping_sub(1)))
    };
    (high << 4) | (bits >> 60)
}

/// One page of bytes from `seed`: `density` 0 leaves most bytes zero,
/// 2 makes most nonzero.
fn page_bytes(seed: u64, density: u32) -> Vec<u8> {
    let mut x = seed | 1;
    (0..PAGE_BYTES)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let keep = match density {
                0 => x % 64 == 0,
                1 => x % 2 == 0,
                _ => true,
            };
            if keep {
                (x >> 24) as u8
            } else {
                0
            }
        })
        .collect()
}

/// Writes each `(high_zeros, bits, seed, density)` page into a memory and
/// its byte model.
fn build(pages: &[(u32, u64, u64, u32)]) -> (SparseMemory, BTreeMap<u64, u8>) {
    let mut mem = SparseMemory::new();
    let mut model = BTreeMap::new();
    for &(high_zeros, bits, seed, density) in pages {
        let base = page_number(high_zeros, bits) * PAGE_BYTES as u64;
        let bytes = page_bytes(seed, density);
        mem.write_slice(base, &bytes);
        for (i, &b) in bytes.iter().enumerate() {
            model.insert(base + i as u64, b);
        }
    }
    (mem, model)
}

fn page_spec() -> impl Strategy<Value = (u32, u64, u64, u32)> {
    (0u32..7, any::<u64>(), any::<u64>(), 0u32..3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn digest_matches_bytewise_definition(
        pages in prop::collection::vec(page_spec(), 1..5),
        hash in any::<u64>(),
        other_high in any::<u64>(),
        writes in prop::collection::vec((any::<usize>(), 0u64..PAGE_BYTES as u64, any::<u8>()), 0..12),
    ) {
        let (mem, model) = build(&pages);
        let want = bytewise_digest(&model, hash);
        prop_assert_eq!(mem.content_digest(hash), want);

        let image = PageImage::new(mem);
        let pristine = image.memory();
        prop_assert_eq!(pristine.page_count(), model.len() / PAGE_BYTES);
        prop_assert_eq!(image.pages_shared_with(&pristine), pristine.page_count());
        // The first call fills the memo, the second reads it; a hash with
        // the same low byte and other high bits reads the same slots.
        prop_assert_eq!(pristine.content_digest_with(hash, &image), want);
        prop_assert_eq!(pristine.content_digest_with(hash, &image), want);
        let other = (hash & 0xff) | (other_high << 8);
        prop_assert_eq!(
            pristine.content_digest_with(other, &image),
            bytewise_digest(&model, other)
        );

        // Copy-on-write after sharing: written pages leave the image and
        // are hashed directly; the rest still read the memo.
        let mut written = image.memory();
        let mut written_model = model.clone();
        let bases: Vec<u64> = model.keys().step_by(PAGE_BYTES).copied().collect();
        for &(page, off, value) in &writes {
            let addr = bases[page % bases.len()] + off;
            written.write_u8(addr, value);
            written_model.insert(addr, value);
        }
        prop_assert_eq!(
            written.content_digest_with(hash, &image),
            bytewise_digest(&written_model, hash)
        );
        prop_assert_eq!(written.content_digest(hash), bytewise_digest(&written_model, hash));
        prop_assert_eq!(pristine.content_digest_with(hash, &image), want, "image unchanged");
    }
}

#[test]
fn two_threads_digest_one_image() {
    let specs: Vec<(u32, u64, u64, u32)> = (0..7)
        .map(|hz| (hz, 0x5eed ^ u64::from(hz), u64::from(hz) + 1, 2))
        .collect();
    let (mem, model) = build(&specs);
    let image = PageImage::new(mem);
    let hashes: Vec<u64> = (0..64u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let barrier = Barrier::new(2);
    let digests = |writer: bool| {
        let mut mem = image.memory();
        if writer {
            mem.write_u8(PAGE_BYTES as u64 * page_number(6, 0), 0xa5);
        }
        barrier.wait();
        hashes
            .iter()
            .map(|&h| mem.content_digest_with(h, &image))
            .collect::<Vec<u64>>()
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| digests(false));
        let b = s.spawn(|| digests(true));
        (
            a.join().expect("reader thread"),
            b.join().expect("writer thread"),
        )
    });
    let mut written = model.clone();
    written.insert(PAGE_BYTES as u64 * page_number(6, 0), 0xa5);
    for (i, &h) in hashes.iter().enumerate() {
        assert_eq!(a[i], bytewise_digest(&model, h));
        assert_eq!(b[i], bytewise_digest(&written, h));
    }
}
