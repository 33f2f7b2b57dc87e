//! Differential coverage for the kernel-accelerated aggregation paths:
//! `fold_over` / `fold_aggregate` must produce the same answer through the
//! raw fast path, the streaming dictionary path, and on both kernel
//! dispatch paths — including IEEE-754 specials carried through a v3
//! dictionary round trip.

use graphbi_bitmap::kernels::{self, FoldAgg, KernelPath};
use graphbi_bitmap::Bitmap;
use graphbi_columnstore::SparseColumn;

/// Bit equality, except any NaN equals any NaN (arithmetic NaN payload
/// bits are unspecified in Rust; see the kernels module docs).
fn bits_eq_mod_nan(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn agg_eq(a: &FoldAgg, b: &FoldAgg) -> bool {
    a.count() == b.count()
        && bits_eq_mod_nan(a.sum(), b.sum())
        && a.min().to_bits() == b.min().to_bits()
        && a.max().to_bits() == b.max().to_bits()
}

/// A column with few distinct values (so v3 dictionary-codes it) that
/// include every IEEE special worth worrying about.
fn specials_column(n: u32) -> SparseColumn {
    let pool = [
        1.5,
        -2.25,
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
    ];
    let presence: Bitmap = (0..n).map(|i| i * 3).collect();
    let values: Vec<f64> = (0..n as usize).map(|i| pool[i % pool.len()]).collect();
    SparseColumn::from_parts(presence, values)
}

/// The reference answer: the scalar kernel recurrence applied to one
/// point lookup (`get`, a `rank` per id) per record, in record order —
/// independent of the rank walk `fold_over` and `gather` share.
fn reference_agg(col: &SparseColumn, ids: &Bitmap) -> FoldAgg {
    let mut agg = FoldAgg::new();
    for v in ids.iter().filter_map(|r| col.get(r)) {
        agg.push(v);
    }
    agg
}

#[test]
fn fold_aggregate_matches_reference_on_raw_and_dict() {
    let raw = specials_column(4_000);
    let mut buf = raw.encode_v3();
    let dict = SparseColumn::decode_v3(&mut buf).unwrap();

    // Superset (fast path), exact presence, strict subset, and disjoint ids.
    let everything: Bitmap = (0..20_000u32).collect();
    let subset: Bitmap = (0..4_000u32).map(|i| i * 6).collect();
    let disjoint: Bitmap = (0..100u32).map(|i| i * 3 + 1).collect();
    // Present ids at ⅛ of the presence count ±1 and at 1/40: the two sides
    // of the old point-lookup/lockstep switch (`ids.len() * 8 < presence`).
    let spread = |n: usize| -> Bitmap { raw.presence().iter().step_by(7).take(n).collect() };
    let eighth = raw.presence().len() as usize / 8;
    let mut thresholds: Vec<Bitmap> = [eighth - 1, eighth, eighth + 1, eighth / 5]
        .into_iter()
        .map(spread)
        .collect();
    // The same sizes with absent ids mixed in (`ids ⊄ presence`).
    let with_absent: Vec<Bitmap> = thresholds
        .iter()
        .map(|b| b.iter().map(|r| r + (r / 3) % 2).collect())
        .collect();
    thresholds.extend(with_absent);
    let fixed = [&everything, raw.presence(), &subset, &disjoint];
    for ids in fixed.into_iter().chain(&thresholds) {
        let want = reference_agg(&raw, ids);
        for col in [&raw, &dict] {
            let got = col.fold_aggregate(ids);
            assert!(
                agg_eq(&got, &want),
                "fold_aggregate diverged: {got:?} vs {want:?}"
            );
            // fold_over must stream the identical value sequence.
            let mut streamed = FoldAgg::new();
            col.fold_over(ids, |v| streamed.push(v));
            assert!(agg_eq(&streamed, &want));
            let looked_up: Vec<u64> = ids
                .iter()
                .filter_map(|r| col.get(r))
                .map(f64::to_bits)
                .collect();
            let gathered: Vec<u64> = col.gather(ids).into_iter().map(f64::to_bits).collect();
            assert_eq!(gathered, looked_up, "gather diverged at {} ids", ids.len());
        }
    }
}

#[test]
fn dict_round_trip_preserves_special_bits() {
    let raw = specials_column(1_000);
    let mut buf = raw.encode_v3();
    let dict = SparseColumn::decode_v3(&mut buf).unwrap();
    let ids = raw.presence().clone();
    let a = raw.gather(&ids);
    let b = dict.gather(&ids);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        // Dictionary interning keys on to_bits, so even NaN payloads and
        // the sign of zero survive the round trip exactly.
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn fold_kernel_paths_agree_on_gathered_values() {
    let col = specials_column(3_000);
    let ids: Bitmap = (0..2_000u32).map(|i| i * 3).collect();
    let vals = col.gather(&ids);
    let s = kernels::fold_f64_path(KernelPath::Scalar, &vals);
    let v = kernels::fold_f64_path(KernelPath::Simd, &vals);
    assert!(agg_eq(&s, &v), "kernel paths diverged: {s:?} vs {v:?}");
    assert_eq!(s.count(), ids.len());
}

#[test]
fn empty_and_tail_lengths_fold_identically() {
    for n in 0..=67u32 {
        let col = specials_column(n);
        let ids: Bitmap = (0..n).map(|i| i * 3).collect();
        let want = reference_agg(&col, &ids);
        let got = col.fold_aggregate(&ids);
        assert!(agg_eq(&got, &want), "n={n}: {got:?} vs {want:?}");
        assert_eq!(got.count(), u64::from(n));
    }
}
