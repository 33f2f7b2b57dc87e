//! Codec property tests (format v3): encode→decode round-trip identity
//! for every codec over adversarial inputs, and cross-codec agreement —
//! every answer computed through a compressed path must be bit-identical
//! to the raw path. No tolerance anywhere: compression is a storage
//! transform, not an approximation.

use graphbi_bitmap::Bitmap;
use graphbi_columnstore::{ColumnBuilder, SparseColumn};

/// Deterministic xorshift64* — fixed-seed adversarial inputs, no flaky
/// randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The adversarial bitmap corpus: container-form edges, chunk boundaries,
/// the u32 ceiling, dense runs, and seeded mixtures.
fn bitmap_corpus() -> Vec<(&'static str, Bitmap)> {
    let mut corpus: Vec<(&'static str, Vec<u32>)> = vec![
        ("empty", vec![]),
        ("single-zero", vec![0]),
        ("single-chunk-max", vec![65_535]),
        ("single-chunk-next", vec![65_536]),
        ("single-u32-max", vec![u32::MAX]),
        ("pair-extremes", vec![0, u32::MAX]),
        ("chunk-edge-straddle", vec![65_534, 65_535, 65_536, 65_537]),
        (
            "multi-chunk-multiples",
            (1..6u32).map(|k| k * 65_536).collect(),
        ),
        (
            "multi-chunk-multiples-minus-one",
            (1..6u32).map(|k| k * 65_536 - 1).collect(),
        ),
        ("dense-run", (0..10_000u32).collect()),
        ("full-chunk", (0..65_536u32).collect()),
        (
            "run-of-runs",
            (0..5_000u32).filter(|v| v % 100 < 60).collect(),
        ),
        ("arithmetic-sparse", (0..4_000u32).map(|i| i * 97).collect()),
        ("array-max", (0..4_096u32).map(|i| i * 3).collect()),
        ("array-max-plus-one", (0..4_097u32).map(|i| i * 3).collect()),
        (
            "tail-of-universe",
            (0..1_000u32).map(|i| u32::MAX - i * 7).rev().collect(),
        ),
    ];
    let mut rng = Rng(0x5eed_c0de);
    let mut mixed = Vec::new();
    for _ in 0..3_000 {
        // Clustered around chunk boundaries and spread across chunks.
        let base = rng.below(8) * 65_536;
        mixed.push((base + rng.below(200)).min(u64::from(u32::MAX)) as u32);
        mixed.push(rng.below(1 << 20) as u32);
    }
    mixed.sort_unstable();
    mixed.dedup();
    corpus.push(("seeded-mixture", mixed.leak().to_vec()));

    corpus
        .into_iter()
        .map(|(name, vals)| {
            let mut b = Bitmap::new();
            for v in vals {
                b.insert(v);
            }
            b.optimize();
            (name, b)
        })
        .collect()
}

/// Round-trip identity: for every corpus bitmap, both the raw (v2) and the
/// compressed (v3) encodings decode back to an equal bitmap, and the v3
/// encoding never exceeds the raw one (the per-container codec choice
/// includes raw as a candidate).
#[test]
fn bitmap_v3_round_trips_and_never_grows() {
    for (name, b) in bitmap_corpus() {
        let raw = b.encode();
        let mut buf = raw.clone();
        assert_eq!(Bitmap::decode(&mut buf).unwrap(), b, "{name}: v2 trip");

        let v3 = b.encode_v3();
        let mut buf = v3.clone();
        assert_eq!(Bitmap::decode(&mut buf).unwrap(), b, "{name}: v3 trip");
        assert!(
            v3.len() <= raw.len(),
            "{name}: v3 ({}) larger than raw ({})",
            v3.len(),
            raw.len()
        );
    }
}

/// Cross-codec agreement: every query primitive answered through a bitmap
/// that went through the v3 codec is bit-identical to the original —
/// cardinality, membership, rank/select, iteration order, and the boolean
/// algebra the kernels run on.
#[test]
fn bitmap_answers_are_identical_through_v3() {
    let corpus = bitmap_corpus();
    for (name, b) in &corpus {
        let mut buf = b.encode_v3();
        let back = Bitmap::decode(&mut buf).unwrap();
        assert_eq!(back.len(), b.len(), "{name}: len");
        assert_eq!(back.to_vec(), b.to_vec(), "{name}: iteration");
        assert_eq!(back.min(), b.min(), "{name}: min");
        assert_eq!(back.max(), b.max(), "{name}: max");
        let mut rng = Rng(0xbeef ^ b.len());
        for _ in 0..64 {
            let probe = rng.next() as u32;
            assert_eq!(back.contains(probe), b.contains(probe), "{name}: contains");
            assert_eq!(back.rank(probe), b.rank(probe), "{name}: rank");
        }
        for i in [0, 1, b.len().saturating_sub(1), b.len()] {
            assert_eq!(back.select(i), b.select(i), "{name}: select({i})");
        }
    }
    // Pairwise algebra through the compressed trip.
    for (na, a) in corpus.iter().take(8) {
        for (nb, b) in corpus.iter().take(8) {
            let (mut ea, mut eb) = (a.encode_v3(), b.encode_v3());
            let (da, db) = (
                Bitmap::decode(&mut ea).unwrap(),
                Bitmap::decode(&mut eb).unwrap(),
            );
            assert_eq!(da.and(&db), a.and(b), "{na} & {nb}");
            assert_eq!(da.or(&db), a.or(b), "{na} | {nb}");
            assert_eq!(da.and_not(&db), a.and_not(b), "{na} andnot {nb}");
            assert_eq!(da.and_len(&db), a.and_len(b), "{na} and_len {nb}");
        }
    }
}

/// The adversarial measure corpus: codec-choice edges (low vs high
/// cardinality), IEEE754 specials that must survive bit-exactly, and
/// presence shapes from empty to dense.
fn column_corpus() -> Vec<(&'static str, SparseColumn)> {
    let mut out = Vec::new();
    let col = |pairs: Vec<(u32, f64)>| {
        let mut cb = ColumnBuilder::new();
        for (r, v) in pairs {
            cb.push(r, v);
        }
        cb.finish()
    };
    out.push(("empty", col(vec![])));
    out.push(("single", col(vec![(7, 1.25)])));
    out.push((
        "specials",
        col(vec![
            (0, f64::NAN),
            (1, -0.0),
            (2, 0.0),
            (3, f64::INFINITY),
            (4, f64::NEG_INFINITY),
            (5, f64::MIN_POSITIVE),
            (u32::MAX, f64::MAX),
        ]),
    ));
    out.push((
        "low-cardinality",
        col((0..20_000u32).map(|i| (i, f64::from(i % 7))).collect()),
    ));
    out.push((
        "two-values-dense",
        col((0..65_536u32)
            .map(|i| (i, if i % 2 == 0 { 1.0 } else { -1.0 }))
            .collect()),
    ));
    out.push((
        "high-cardinality",
        col((0..5_000u32)
            .map(|i| (i * 3, f64::from(i) * 0.001 + 1.0))
            .collect()),
    ));
    let mut rng = Rng(0x4a5f);
    out.push((
        "seeded-quantized",
        col((0..10_000u32)
            .map(|i| (i * 2, (rng.below(50) as f64) * 0.5))
            .collect()),
    ));
    out
}

/// Round-trip identity for the measure codec, with every float compared by
/// bit pattern — NaN payloads and the sign of zero included.
#[test]
fn measures_v3_round_trip_bit_exactly() {
    for (name, c) in column_corpus() {
        let mut buf = c.encode_v3();
        let back = SparseColumn::decode_v3(&mut buf).unwrap();
        assert_eq!(back.presence(), c.presence(), "{name}: presence");
        assert_eq!(back.non_null_count(), c.non_null_count(), "{name}: count");
        let (want, got): (Vec<_>, Vec<_>) = (c.iter().collect(), back.iter().collect());
        for ((wr, wv), (gr, gv)) in want.iter().zip(&got) {
            assert_eq!(wr, gr, "{name}: record ids");
            assert_eq!(wv.to_bits(), gv.to_bits(), "{name}: value bits at {wr}");
        }
        assert_eq!(want.len(), got.len(), "{name}: value count");
    }
}

/// Cross-codec agreement on the query surface: `get`, `gather`, and the
/// streaming `fold_over` (which on dictionary-coded columns reads packed
/// indices directly, never materializing a raw vector) answer bit-
/// identically before and after the compressed trip.
#[test]
fn measure_queries_are_identical_through_v3() {
    for (name, c) in column_corpus() {
        let mut buf = c.encode_v3();
        let back = SparseColumn::decode_v3(&mut buf).unwrap();
        let mut rng = Rng(0xfee1 ^ c.non_null_count() as u64);
        for _ in 0..64 {
            let probe = rng.next() as u32;
            assert_eq!(
                back.get(probe).map(f64::to_bits),
                c.get(probe).map(f64::to_bits),
                "{name}: get({probe})"
            );
        }
        let ids = c.presence().clone();
        let (want, got) = (c.gather(&ids), back.gather(&ids));
        assert_eq!(want.len(), got.len(), "{name}: gather len");
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.to_bits(), g.to_bits(), "{name}: gather bits");
        }
        let mut folded_raw = Vec::new();
        let mut folded_v3 = Vec::new();
        c.fold_over(&ids, |v| folded_raw.push(v.to_bits()));
        back.fold_over(&ids, |v| folded_v3.push(v.to_bits()));
        assert_eq!(folded_raw, folded_v3, "{name}: fold_over stream");
    }
}

/// Truncation sweep over whole-column v3 encodings: cutting the buffer at
/// any point must yield a typed error, never a panic or a wrong column.
#[test]
fn column_v3_rejects_every_truncation() {
    for (name, c) in column_corpus().into_iter().take(5) {
        let full = c.encode_v3();
        for cut in 0..full.len() {
            let mut buf = full.slice(0..cut);
            if let Ok(back) = SparseColumn::decode_v3(&mut buf) {
                // A prefix that still parses must be the intact column
                // (possible only when trailing bytes were going unread).
                assert_eq!(back, c, "{name}: truncation at {cut} parsed differently");
            }
        }
    }
}
