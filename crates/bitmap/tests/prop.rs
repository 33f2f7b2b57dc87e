//! Property tests: the compressed bitmap must agree with a `BTreeSet` model
//! on every operation, across representation boundaries.

use std::collections::BTreeSet;

use graphbi_bitmap::{Bitmap, BitmapBuilder};
use proptest::prelude::*;

fn id_vec() -> impl Strategy<Value = Vec<u32>> {
    // Mix of clustered (small range) and scattered ids so array, words and
    // run containers all get exercised.
    prop::collection::vec(
        prop_oneof![0u32..2_000, 60_000u32..70_000, prop::num::u32::ANY],
        0..600,
    )
}

fn model(ids: &[u32]) -> BTreeSet<u32> {
    ids.iter().copied().collect()
}

fn bitmap(ids: &[u32]) -> Bitmap {
    ids.iter().copied().collect()
}

proptest! {
    #[test]
    fn insert_matches_model(ids in id_vec()) {
        let m = model(&ids);
        let b = bitmap(&ids);
        prop_assert_eq!(b.len(), m.len() as u64);
        prop_assert_eq!(b.to_vec(), m.iter().copied().collect::<Vec<_>>());
        for &v in m.iter().take(50) {
            prop_assert!(b.contains(v));
        }
    }

    #[test]
    fn binary_ops_match_model(a in id_vec(), b in id_vec()) {
        let (ma, mb) = (model(&a), model(&b));
        let (ba, bb) = (bitmap(&a), bitmap(&b));
        let and: Vec<u32> = ma.intersection(&mb).copied().collect();
        let or: Vec<u32> = ma.union(&mb).copied().collect();
        let diff: Vec<u32> = ma.difference(&mb).copied().collect();
        let xor: Vec<u32> = ma.symmetric_difference(&mb).copied().collect();
        prop_assert_eq!(ba.and(&bb).to_vec(), and.clone());
        prop_assert_eq!(ba.or(&bb).to_vec(), or);
        prop_assert_eq!(ba.and_not(&bb).to_vec(), diff);
        prop_assert_eq!(ba.xor(&bb).to_vec(), xor);
        prop_assert_eq!(ba.and_len(&bb), and.len() as u64);
        prop_assert_eq!(ba.is_subset(&bb), ma.is_subset(&mb));
    }

    /// Every in-place op equals its allocating counterpart, across the full
    /// representation matrix: both operands in built form and in
    /// post-`optimize` form (which enables run containers).
    #[test]
    fn inplace_ops_match_allocating(
        a in id_vec(),
        b in id_vec(),
        optimize_a in any::<bool>(),
        optimize_b in any::<bool>(),
    ) {
        let (mut ba, mut bb) = (bitmap(&a), bitmap(&b));
        if optimize_a {
            ba.optimize();
        }
        if optimize_b {
            bb.optimize();
        }
        let mut anded = ba.clone();
        anded.and_inplace(&bb);
        prop_assert_eq!(&anded, &ba.and(&bb));
        let mut orred = ba.clone();
        orred.or_inplace(&bb);
        prop_assert_eq!(&orred, &ba.or(&bb));
        let mut diffed = ba.clone();
        diffed.and_not_inplace(&bb);
        prop_assert_eq!(&diffed, &ba.and_not(&bb));
        prop_assert_eq!(anded.cardinality_hint(), anded.len());
    }

    /// Same equivalence at container boundaries and the edges of the id
    /// space (`u32::MAX` et al.), where chunk handoff bugs would live.
    #[test]
    fn inplace_ops_match_allocating_at_boundaries(
        a in boundary_ids(),
        b in boundary_ids(),
        optimize_a in any::<bool>(),
    ) {
        let (mut ba, bb) = (bitmap(&a), bitmap(&b));
        if optimize_a {
            ba.optimize();
        }
        let mut anded = ba.clone();
        anded.and_inplace(&bb);
        prop_assert_eq!(&anded, &ba.and(&bb));
        let mut orred = ba.clone();
        orred.or_inplace(&bb);
        prop_assert_eq!(&orred, &ba.or(&bb));
        let mut diffed = ba.clone();
        diffed.and_not_inplace(&bb);
        prop_assert_eq!(&diffed, &ba.and_not(&bb));
    }

    /// `and_many` is order-insensitive: the planner may permute conjunction
    /// operands freely without changing the result.
    #[test]
    fn and_many_order_never_changes_result(
        sets in prop::collection::vec(id_vec(), 1..5),
        rot in 0usize..5,
    ) {
        let bitmaps: Vec<Bitmap> = sets.iter().map(|s| bitmap(s)).collect();
        let forward = Bitmap::and_many(bitmaps.iter());
        let mut rotated: Vec<&Bitmap> = bitmaps.iter().collect();
        rotated.rotate_left(rot % bitmaps.len());
        prop_assert_eq!(&Bitmap::and_many(rotated), &forward);
        let reversed = Bitmap::and_many(bitmaps.iter().rev());
        prop_assert_eq!(&reversed, &forward);
    }

    #[test]
    fn ops_survive_optimize(a in id_vec(), b in id_vec()) {
        let (mut ba, mut bb) = (bitmap(&a), bitmap(&b));
        let plain = ba.and(&bb);
        ba.optimize();
        bb.optimize();
        prop_assert_eq!(ba.and(&bb), plain);
        prop_assert_eq!(&ba, &bitmap(&a));
    }

    #[test]
    fn rank_select_inverse(ids in id_vec()) {
        let b = bitmap(&ids);
        let n = b.len();
        for i in (0..n).step_by(7.max(n as usize / 13 + 1)) {
            let v = b.select(i).unwrap();
            prop_assert_eq!(b.rank(v), i);
        }
        prop_assert_eq!(b.select(n), None);
    }

    #[test]
    fn codec_round_trip(ids in id_vec()) {
        let mut b = bitmap(&ids);
        b.optimize();
        let bytes = b.encode();
        prop_assert_eq!(bytes.len(), b.encoded_len());
        let back = Bitmap::decode(&mut bytes.clone()).unwrap();
        prop_assert_eq!(back, b);
    }

    #[test]
    fn builder_equals_inserts(ids in id_vec()) {
        let sorted: Vec<u32> = model(&ids).into_iter().collect();
        let built = sorted.iter().copied().collect::<BitmapBuilder>().finish();
        prop_assert_eq!(built, bitmap(&ids));
    }

    #[test]
    fn remove_matches_model(ids in id_vec(), remove in id_vec()) {
        let mut m = model(&ids);
        let mut b = bitmap(&ids);
        for &v in &remove {
            prop_assert_eq!(b.remove(v), m.remove(&v));
        }
        prop_assert_eq!(b.to_vec(), m.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn and_many_equals_fold(sets in prop::collection::vec(id_vec(), 1..5)) {
        let bitmaps: Vec<Bitmap> = sets.iter().map(|s| bitmap(s)).collect();
        let fold = bitmaps[1..]
            .iter()
            .fold(bitmaps[0].clone(), |acc, b| acc.and(b));
        prop_assert_eq!(Bitmap::and_many(bitmaps.iter()), fold);
    }

    #[test]
    fn slice_matches_model_at_container_boundaries(
        ids in boundary_ids(),
        a in boundary_point(),
        b in boundary_point(),
    ) {
        let (start, end) = (a.min(b), a.max(b));
        let m = model(&ids);
        let bm = bitmap(&ids);
        let expect: Vec<u32> = m.range(start..end).copied().collect();
        prop_assert_eq!(bm.slice(start..end).to_vec(), expect);
        // Empty and reversed ranges select nothing.
        prop_assert_eq!(bm.slice(start..start).len(), 0);
        prop_assert_eq!(bm.slice(end..start).len(), 0);
    }

    #[test]
    fn append_disjoint_reassembles_a_boundary_split(
        ids in boundary_ids(),
        p in boundary_point(),
    ) {
        let bm = bitmap(&ids);
        // `slice` can't express an end of 2^32, so the high half comes
        // from the model (it may contain u32::MAX).
        let mut low = bm.slice(0..p);
        let high: Bitmap = model(&ids).range(p..).copied().collect();
        low.append_disjoint(&high);
        prop_assert_eq!(low, bm);
    }

    /// The rank walk is exactly `filter(contains).map(rank)`, for every
    /// pairing of container shapes on the two sides (built form and
    /// post-`optimize` form), including ids the presence side lacks.
    #[test]
    fn rank_walk_matches_rank(
        p in shaped_ids(),
        ids in shaped_ids(),
        optimize_p in any::<bool>(),
        optimize_ids in any::<bool>(),
        stride in 1usize..40,
    ) {
        let (mut bp, mut bi) = (bitmap(&p), bitmap(&ids));
        if optimize_p {
            bp.optimize();
        }
        if optimize_ids {
            bi.optimize();
        }
        prop_assert_eq!(rank_walk(&bp, &bi), rank_reference(&bp, &bi));
        // A subset of the presence side, gaps short and long: every id is
        // found.
        let sub: Bitmap = bp.iter().step_by(stride).collect();
        let walked = rank_walk(&bp, &sub);
        prop_assert_eq!(walked.len() as u64, sub.len());
        prop_assert_eq!(walked, rank_reference(&bp, &sub));
    }

    /// Same at container boundaries and the top of the id space.
    #[test]
    fn rank_walk_matches_rank_at_boundaries(
        p in boundary_ids(),
        ids in boundary_ids(),
        optimize_p in any::<bool>(),
    ) {
        let (mut bp, bi) = (bitmap(&p), bitmap(&ids));
        if optimize_p {
            bp.optimize();
        }
        prop_assert_eq!(rank_walk(&bp, &bi), rank_reference(&bp, &bi));
        prop_assert_eq!(rank_walk(&bp, &bp), (0..bp.len()).collect::<Vec<_>>());
    }

    #[test]
    fn and_many_matches_fold_at_boundaries(
        sets in prop::collection::vec(boundary_ids(), 1..5),
    ) {
        let bitmaps: Vec<Bitmap> = sets.iter().map(|s| bitmap(s)).collect();
        let fold = bitmaps[1..]
            .iter()
            .fold(bitmaps[0].clone(), |acc, b| acc.and(b));
        prop_assert_eq!(Bitmap::and_many(bitmaps.iter()), fold);
    }
    /// Array × Array ∩ and ∖ at container scale, on both sides of the
    /// gallop ↔ mark-and-probe switch: every in-place and allocating form,
    /// the count, the subset test and a chained conjunction agree with the
    /// model.
    #[test]
    fn array_kernels_match_model_across_the_switch((a, b) in array_pair()) {
        let (ma, mb) = (model(&a), model(&b));
        let (ba, bb) = (bitmap(&a), bitmap(&b));
        let and: Vec<u32> = ma.intersection(&mb).copied().collect();
        let diff: Vec<u32> = ma.difference(&mb).copied().collect();
        prop_assert_eq!(ba.and(&bb).to_vec(), and.clone());
        prop_assert_eq!(bb.and(&ba).to_vec(), and.clone());
        let mut anded = ba.clone();
        anded.and_inplace(&bb);
        prop_assert_eq!(anded.to_vec(), and.clone());
        prop_assert_eq!(ba.and_not(&bb).to_vec(), diff.clone());
        let mut diffed = ba.clone();
        diffed.and_not_inplace(&bb);
        prop_assert_eq!(diffed.to_vec(), diff);
        let mut back = bb.clone();
        back.and_not_inplace(&ba);
        prop_assert_eq!(back.to_vec(), mb.difference(&ma).copied().collect::<Vec<_>>());
        prop_assert_eq!(ba.and_len(&bb), and.len() as u64);
        prop_assert_eq!(bb.and_len(&ba), and.len() as u64);
        prop_assert_eq!(ba.is_subset(&bb), ma.is_subset(&mb));
        prop_assert!(anded.is_subset(&ba) && anded.is_subset(&bb));
        // A third operand: the union with every third id dropped.
        let mc: BTreeSet<u32> = ma.union(&mb).copied().step_by(3).collect();
        let chained: Vec<u32> = and.iter().copied().filter(|v| mc.contains(v)).collect();
        let bc: Bitmap = mc.iter().copied().collect();
        prop_assert_eq!(Bitmap::and_many([&ba, &bb, &bc]).to_vec(), chained);
    }
}

fn rank_walk(presence: &Bitmap, ids: &Bitmap) -> Vec<u64> {
    let mut out = Vec::new();
    presence.for_each_rank_of(ids, |r| out.push(r));
    out
}

/// The independent model of the walk: one `rank` per present id.
fn rank_reference(presence: &Bitmap, ids: &Bitmap) -> Vec<u64> {
    ids.iter()
        .filter(|&r| presence.contains(r))
        .map(|r| presence.rank(r))
        .collect()
}

/// Whole chunks in a chosen shape, at keys that include the 65 535/65 536
/// boundary and the top of the id space: scattered lows (array), a dense
/// stride (words) or a few intervals (runs after `optimize`).
fn shaped_ids() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(
        (
            prop_oneof![Just(0u32), Just(1u32), Just(3u32), Just(0xFFFFu32)],
            0u32..3,
            any::<u32>(),
        ),
        0..3,
    )
    .prop_map(|chunks| {
        let mut out = Vec::new();
        for (key, shape, seed) in chunks {
            let base = key << 16;
            match shape {
                0 => out.extend(
                    (0..seed % 700).map(|i| base | (i.wrapping_mul(0x9E37_79B9) ^ seed) & 0xFFFF),
                ),
                1 => {
                    let step = 8 + seed % 8;
                    out.extend(
                        (seed % step..65_536)
                            .step_by(step as usize)
                            .map(|l| base | l),
                    );
                }
                _ => {
                    for i in 0..1 + seed % 4 {
                        let start = seed.rotate_left(8 * i) & 0xFFFF;
                        let end = (start + 1 + (seed >> (4 * i)) % 3_000).min(65_536);
                        out.extend((start..end).map(|l| base | l));
                    }
                }
            }
        }
        out
    })
}

/// Ids hugging container boundaries (multiples of 65 536) and the edges
/// of the id space, so every container split/merge path runs.
fn boundary_ids() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(
        prop_oneof![
            boundary_point(),
            Just(0u32),
            Just(u32::MAX),
            Just(u32::MAX - 1),
            prop::num::u32::ANY,
        ],
        0..500,
    )
}

/// A point within ±2 of a container boundary (or anywhere).
fn boundary_point() -> impl Strategy<Value = u32> {
    prop_oneof![
        ((0u32..8), (0u32..5)).prop_map(|(k, d)| (k * 65_536).saturating_add(d).saturating_sub(2)),
        Just(u32::MAX),
        prop::num::u32::ANY,
    ]
}

/// The top of the id space is an ordinary place: `u32::MAX` inserts,
/// ranks, slices and survives `and_many` like any other id.
#[test]
fn id_space_extremes_behave() {
    assert_eq!(
        Bitmap::and_many(std::iter::empty::<&Bitmap>()),
        Bitmap::new()
    );
    let top: Bitmap = [0u32, u32::MAX - 1, u32::MAX].into_iter().collect();
    assert!(top.contains(u32::MAX));
    assert_eq!(top.rank(u32::MAX), 2);
    assert_eq!(
        top.slice(u32::MAX - 1..u32::MAX).to_vec(),
        vec![u32::MAX - 1]
    );
    let mut low = top.slice(0..u32::MAX - 1);
    low.append_disjoint(&[u32::MAX - 1, u32::MAX].into_iter().collect());
    assert_eq!(low, top);
}

/// Galloping pays for Array × Array once `long >= 31·short - 64`, the
/// cost rule in `container.rs` (`short · 32 <= short + long + 64`); short
/// sides of 3..=134 values put that switch inside one container.
fn gallop_switch(short: usize) -> usize {
    31 * short - 64
}

/// Two operands of array containers in one to three chunks (keys 0, 1 and
/// 65 535). Per chunk the short side has 1..=4096 values and the long side
/// 1..=128 times as many (at most 4096), or is one below, at or one above
/// [`gallop_switch`]. Lows are a random permutation of the chunk, the two
/// sides overlap by a random share, and each side may hold any of the lows
/// 0, 63, 64 and 65 535.
fn array_pair() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    let lens = prop_oneof![
        (prop_oneof![1usize..=64, 1usize..=4096], 1usize..=128)
            .prop_map(|(s, r)| (s, (s * r).min(4096))),
        (3usize..=134, 0usize..3).prop_map(|(s, d)| (s, gallop_switch(s) + d - 1)),
    ];
    let chunk = (
        (lens, any::<bool>()),
        (any::<u16>(), 0usize..4096),
        (0u8..16, 0u8..16),
    );
    prop::collection::vec(chunk, 1..=3).prop_map(|chunks| {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for (key, (((short, long), a_short), (mul, overlap), (specials_a, specials_b))) in
            [0u32, 1, 0xFFFF].into_iter().zip(chunks)
        {
            let (na, nb) = if a_short {
                (short, long)
            } else {
                (long, short)
            };
            // An odd multiplier permutes the chunk; `a` starts part-way
            // along `b`'s stretch of that permutation.
            let mul = u32::from(mul) | 1;
            let lows_b = chunk_lows(nb, mul, 0, specials_b);
            let lows_a = chunk_lows(na, mul, (overlap % nb.max(1)) as u32, specials_a);
            a.extend(lows_a.into_iter().map(|l| key << 16 | l));
            b.extend(lows_b.into_iter().map(|l| key << 16 | l));
        }
        (a, b)
    })
}

/// `n` distinct sorted lows: the specials picked by `mask`, then
/// `(i · mul) mod 65 536` for `i = start, start + 1, …`.
fn chunk_lows(n: usize, mul: u32, start: u32, mask: u8) -> Vec<u32> {
    let mut lows: BTreeSet<u32> = [0u32, 63, 64, 65_535]
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| mask >> i & 1 == 1)
        .map(|(_, v)| v)
        .take(n)
        .collect();
    let mut i = start;
    while lows.len() < n {
        lows.insert(i.wrapping_mul(mul) & 0xFFFF);
        i += 1;
    }
    lows.into_iter().collect()
}
