//! Property tests: every SIMD kernel must be bit-identical to its scalar
//! counterpart, across lane-unaligned lengths, container boundaries, the
//! edges of the id space, and IEEE-754 special values. The scalar-only
//! bit-unpack and dictionary-gather kernels are checked against direct
//! models instead.
//!
//! These tests use the explicit `*_path` kernel variants rather than the
//! global `force()` override, so they are safe under the parallel test
//! runner (no process-global state is mutated).

use std::collections::BTreeSet;

use graphbi_bitmap::kernels::{self, KernelPath};
use graphbi_bitmap::Bitmap;
use proptest::prelude::*;

const PATHS: [KernelPath; 2] = [KernelPath::Scalar, KernelPath::Simd];

/// Word blocks whose length sweeps across the 4-word AVX2 stride, so the
/// vector body and the scalar tail both run (0..=64 covers every tail
/// residue several times over).
fn word_block() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            Just(0u64),
            Just(u64::MAX),
            Just(1u64),
            Just(1u64 << 63),
            prop::num::u64::ANY,
        ],
        0..=64,
    )
}

fn f64_special() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(0.0f64),
        Just(-0.0f64),
        Just(f64::MIN_POSITIVE),
        Just(f64::MAX),
        // Every bit pattern is a valid f64, including payload NaNs.
        any::<u64>().prop_map(f64::from_bits),
        -1.0e6..1.0e6f64,
    ]
}

proptest! {
    /// AND/OR/ANDNOT/XOR over equal-length word blocks: identical result
    /// words and identical returned cardinality on both paths.
    #[test]
    fn word_ops_bit_identical(a in word_block(), b in word_block()) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        type WordFn = fn(KernelPath, &mut [u64], &[u64]) -> u64;
        let ops: [WordFn; 4] = [
            kernels::and_words_path,
            kernels::or_words_path,
            kernels::andnot_words_path,
            kernels::xor_words_path,
        ];
        for op in ops {
            let mut outs = Vec::new();
            for path in PATHS {
                let mut dst = a.to_vec();
                let card = op(path, &mut dst, b);
                let recount: u64 = dst.iter().map(|w| u64::from(w.count_ones())).sum();
                prop_assert_eq!(card, recount);
                outs.push((dst, card));
            }
            prop_assert_eq!(&outs[0], &outs[1]);
        }
    }

    /// Pure popcount and non-mutating intersection cardinality agree.
    #[test]
    fn counts_bit_identical(a in word_block(), b in word_block()) {
        let n = a.len().min(b.len());
        let expect: u64 = a.iter().map(|w| u64::from(w.count_ones())).sum();
        for path in PATHS {
            prop_assert_eq!(kernels::popcount_path(path, &a), expect);
            prop_assert_eq!(
                kernels::and_card_path(path, &a[..n], &b[..n]),
                a[..n]
                    .iter()
                    .zip(&b[..n])
                    .map(|(x, y)| u64::from((x & y).count_ones()))
                    .sum::<u64>()
            );
        }
    }

    /// The galloping probe kernel equals `partition_point` on sorted keys,
    /// for every slice length 0..=64 (all 16-lane tail residues).
    #[test]
    fn probe_matches_partition_point(
        mut keys in prop::collection::vec(any::<u16>(), 0..=64),
        needle in any::<u16>(),
    ) {
        keys.sort_unstable();
        keys.dedup();
        let expect = keys.partition_point(|&k| k < needle);
        for path in PATHS {
            prop_assert_eq!(kernels::find_first_geq_u16_path(path, &keys, needle), expect);
        }
    }

    /// fold_f64 is bit-identical lane by lane across paths, including NaN,
    /// infinities and signed zero, for every tail residue.
    ///
    /// Sums use [`bits_eq_mod_nan`]: the payload/sign bits of a NaN
    /// *produced by arithmetic* (e.g. `∞ + −∞`) are unspecified in Rust —
    /// LLVM may canonicalize them differently per path and per opt-level —
    /// so any NaN equals any NaN there. Min/max are value *selects* and so
    /// must preserve input bits exactly; they are compared strictly.
    #[test]
    fn fold_bit_identical_with_specials(values in prop::collection::vec(f64_special(), 0..=64)) {
        let s = kernels::fold_f64_path(KernelPath::Scalar, &values);
        let v = kernels::fold_f64_path(KernelPath::Simd, &values);
        prop_assert_eq!(s.count(), v.count());
        let (ss, sm, sx) = s.lanes();
        let (vs, vm, vx) = v.lanes();
        for lane in 0..4 {
            prop_assert!(bits_eq_mod_nan(ss[lane], vs[lane]));
            prop_assert_eq!(sm[lane].to_bits(), vm[lane].to_bits());
            prop_assert_eq!(sx[lane].to_bits(), vx[lane].to_bits());
        }
        prop_assert!(bits_eq_mod_nan(s.sum(), v.sum()));
        prop_assert_eq!(s.min().to_bits(), v.min().to_bits());
        prop_assert_eq!(s.max().to_bits(), v.max().to_bits());
    }

    /// Bit-unpacking (scalar only) equals a bit-by-bit model for every
    /// width 0..=64 and every unaligned bit offset a real FoR block can
    /// start at, including reads running past the end of the buffer.
    #[test]
    fn unpack_bit_identical(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        width in 0u32..=64,
        start in 0usize..64,
        count in 0usize..=64,
    ) {
        let mut out = vec![u64::MAX; count];
        kernels::unpack_bits(&bytes, start, width, &mut out);
        for (i, &v) in out.iter().enumerate() {
            let pos = start + i * width as usize;
            prop_assert_eq!(v, read_bits_model(&bytes, pos, width));
            if width < 64 {
                prop_assert!(v < (1u64 << width).max(1));
            }
        }
    }

    /// Dictionary gather (scalar only): the out-of-bounds verdict matches
    /// the indices, and on success the gathered values are bit-exact
    /// dictionary entries. (On rejection the output buffer is unspecified —
    /// callers discard it — so its contents are only checked on `true`.)
    #[test]
    fn gather_bit_identical(
        dict in prop::collection::vec(f64_special(), 1..64),
        idx in prop::collection::vec(0u64..80, 0..=64),
    ) {
        let mut out = vec![0.0f64; idx.len()];
        let ok = kernels::gather_f64(&dict, &idx, &mut out);
        let expect_ok = idx.iter().all(|&i| (i as usize) < dict.len());
        prop_assert_eq!(ok, expect_ok);
        if expect_ok {
            let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            let expect: Vec<u64> =
                idx.iter().map(|&i| dict[i as usize].to_bits()).collect();
            prop_assert_eq!(got, expect);
        }
    }

    /// Full container matrix at the bitmap level: ids hugging 65 536
    /// container boundaries and `u32::MAX`, pushed through the dispatched
    /// ops (which route Words×Words work into the kernel layer) and checked
    /// against a `BTreeSet` model. Combined with the path-vs-path kernel
    /// tests above, this pins bitmap results to both kernel paths.
    #[test]
    fn container_matrix_ops_match_model(a in boundary_ids(), b in boundary_ids()) {
        let ma: BTreeSet<u32> = a.iter().copied().collect();
        let mb: BTreeSet<u32> = b.iter().copied().collect();
        let ba: Bitmap = a.iter().copied().collect();
        let bb: Bitmap = b.iter().copied().collect();
        prop_assert_eq!(
            ba.and(&bb).to_vec(),
            ma.intersection(&mb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            ba.or(&bb).to_vec(),
            ma.union(&mb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            ba.and_not(&bb).to_vec(),
            ma.difference(&mb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            ba.xor(&bb).to_vec(),
            ma.symmetric_difference(&mb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(ba.and_len(&bb), ma.intersection(&mb).count() as u64);
        let and = ba.and(&bb);
        prop_assert_eq!(and.cardinality_hint(), and.len());
    }
}

/// Dense runs around container boundaries so Words containers (the kernel
/// fast path) actually form, plus the id-space extremes.
fn boundary_ids() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(
        prop_oneof![
            // Dense cluster inside one 65 536 chunk -> Words container.
            (0u32..4, 0u32..8_192).prop_map(|(k, d)| k * 65_536 + d),
            // Boundary-hugging points.
            ((0u32..8), (0u32..5))
                .prop_map(|(k, d)| (k * 65_536).saturating_add(d).saturating_sub(2)),
            Just(0u32),
            Just(u32::MAX),
            Just(u32::MAX - 1),
            prop::num::u32::ANY,
        ],
        0..6_000,
    )
}

/// Bit equality, except any NaN equals any NaN: Rust leaves the payload and
/// sign bits of NaNs produced by float *arithmetic* unspecified, so exact
/// bits can only be demanded of non-NaN results (and of bit-preserving
/// selects like min/max, which are compared strictly elsewhere).
fn bits_eq_mod_nan(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// The `width`-bit integer at bit `pos` of the LSB-first stream `bytes`,
/// read one bit at a time; bits past the end read as zero.
fn read_bits_model(bytes: &[u8], pos: usize, width: u32) -> u64 {
    (0..width as usize).fold(0u64, |acc, j| {
        let bit = pos + j;
        let b = bytes
            .get(bit / 8)
            .map_or(0, |&byte| (byte >> (bit % 8)) & 1);
        acc | (u64::from(b) << j)
    })
}

/// Empty inputs are ordinary inputs on every kernel.
#[test]
fn empty_inputs_behave() {
    for path in PATHS {
        assert_eq!(kernels::and_words_path(path, &mut [], &[]), 0);
        assert_eq!(kernels::popcount_path(path, &[]), 0);
        assert_eq!(kernels::find_first_geq_u16_path(path, &[], 7), 0);
        let agg = kernels::fold_f64_path(path, &[]);
        assert_eq!(agg.count(), 0);
        assert!(agg.sum() == 0.0);
    }
    let mut out = [];
    kernels::unpack_bits(&[], 0, 13, &mut out);
    assert!(kernels::gather_f64(&[1.0], &[], &mut []));
}

/// On x86-64 the SIMD path must actually be available when the CPU has
/// AVX2, otherwise the differential tests above silently compare scalar
/// to scalar.
#[cfg(target_arch = "x86_64")]
#[test]
fn simd_reported_when_compiled_for_x86() {
    if std::is_x86_feature_detected!("avx2") {
        assert!(kernels::simd_available());
    }
}
