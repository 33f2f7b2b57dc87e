//! Binary set algebra between bitmaps.
//!
//! The paper reduces graph-query evaluation to conjunctions of edge bitmaps
//! and logical query combinators to OR / AND NOT over result bitmaps
//! (Section 3.2), so these four operations carry the whole query engine.

use crate::bitmap::Bitmap;

impl Bitmap {
    /// Intersection.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        let mut out = Bitmap::new();
        let (mut i, mut j) = (0, 0);
        while i < self.keys.len() && j < other.keys.len() {
            match self.keys[i].cmp(&other.keys[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if let Some(c) = self.containers[i].and(&other.containers[j]) {
                        out.push_container(self.keys[i], c);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Union.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        let mut out = Bitmap::new();
        let (mut i, mut j) = (0, 0);
        while i < self.keys.len() || j < other.keys.len() {
            let ka = self.keys.get(i).copied();
            let kb = other.keys.get(j).copied();
            match (ka, kb) {
                (Some(a), Some(b)) if a == b => {
                    out.push_container(a, self.containers[i].or(&other.containers[j]));
                    i += 1;
                    j += 1;
                }
                (Some(a), Some(b)) if a < b => {
                    out.push_container(a, self.containers[i].clone());
                    i += 1;
                }
                (Some(_), Some(b)) => {
                    out.push_container(b, other.containers[j].clone());
                    j += 1;
                }
                (Some(a), None) => {
                    out.push_container(a, self.containers[i].clone());
                    i += 1;
                }
                (None, Some(b)) => {
                    out.push_container(b, other.containers[j].clone());
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        out
    }

    /// Difference: ids in `self` but not in `other`.
    pub fn and_not(&self, other: &Bitmap) -> Bitmap {
        let mut out = Bitmap::new();
        for (i, &k) in self.keys.iter().enumerate() {
            match other.keys.binary_search(&k) {
                Ok(j) => {
                    if let Some(c) = self.containers[i].and_not(&other.containers[j]) {
                        out.push_container(k, c);
                    }
                }
                Err(_) => out.push_container(k, self.containers[i].clone()),
            }
        }
        out
    }

    /// Symmetric difference.
    pub fn xor(&self, other: &Bitmap) -> Bitmap {
        let mut out = Bitmap::new();
        let (mut i, mut j) = (0, 0);
        while i < self.keys.len() || j < other.keys.len() {
            let ka = self.keys.get(i).copied();
            let kb = other.keys.get(j).copied();
            match (ka, kb) {
                (Some(a), Some(b)) if a == b => {
                    if let Some(c) = self.containers[i].xor(&other.containers[j]) {
                        out.push_container(a, c);
                    }
                    i += 1;
                    j += 1;
                }
                (Some(a), Some(b)) if a < b => {
                    out.push_container(a, self.containers[i].clone());
                    i += 1;
                }
                (Some(_), Some(b)) => {
                    out.push_container(b, other.containers[j].clone());
                    j += 1;
                }
                (Some(a), None) => {
                    out.push_container(a, self.containers[i].clone());
                    i += 1;
                }
                (None, Some(b)) => {
                    out.push_container(b, other.containers[j].clone());
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        out
    }

    /// Delta-mask application: `(self − retired) ∪ added`.
    ///
    /// The MVCC structural phase merges a base match set with a write
    /// buffer in one step: `retired` masks out base records superseded by
    /// a delta version, `added` contributes the delta-resident matches
    /// (updated rows whose new content still matches, plus inserts). Fast
    /// paths skip the allocation when either side is empty.
    pub fn apply_delta(&self, retired: &Bitmap, added: &Bitmap) -> Bitmap {
        let survivors = if retired.is_empty() {
            self.clone()
        } else {
            self.and_not(retired)
        };
        if added.is_empty() {
            survivors
        } else {
            survivors.or(added)
        }
    }

    /// In-place intersection: `*self &= other`.
    ///
    /// Every chunk is intersected destructively via the container kernels
    /// ([`crate::container`]), so no result container is allocated; chunks
    /// whose keys are absent from `other`, or that drain to empty, are
    /// dropped through a write cursor without touching the others.
    pub fn and_inplace(&mut self, other: &Bitmap) {
        let mut write = 0usize;
        for read in 0..self.keys.len() {
            let k = self.keys[read];
            let Ok(j) = other.keys.binary_search(&k) else {
                continue;
            };
            let mine = &mut self.containers[read];
            mine.and_inplace(&other.containers[j]);
            if !mine.is_empty() {
                self.keys.swap(write, read);
                self.containers.swap(write, read);
                write += 1;
            }
        }
        self.keys.truncate(write);
        self.containers.truncate(write);
    }

    /// In-place union: `*self |= other`.
    ///
    /// Chunks shared with `other` are unioned destructively; chunks only in
    /// `other` are cloned in at their sorted position. `self`'s untouched
    /// chunks are never reallocated.
    pub fn or_inplace(&mut self, other: &Bitmap) {
        for (j, &k) in other.keys.iter().enumerate() {
            match self.keys.binary_search(&k) {
                Ok(i) => self.containers[i].or_inplace(&other.containers[j]),
                Err(i) => {
                    self.keys.insert(i, k);
                    self.containers.insert(i, other.containers[j].clone());
                }
            }
        }
    }

    /// In-place difference: `*self \= other`.
    pub fn and_not_inplace(&mut self, other: &Bitmap) {
        let mut write = 0usize;
        for read in 0..self.keys.len() {
            let k = self.keys[read];
            let keep = match other.keys.binary_search(&k) {
                Ok(j) => {
                    let mine = &mut self.containers[read];
                    mine.and_not_inplace(&other.containers[j]);
                    !mine.is_empty()
                }
                Err(_) => true,
            };
            if keep {
                self.keys.swap(write, read);
                self.containers.swap(write, read);
                write += 1;
            }
        }
        self.keys.truncate(write);
        self.containers.truncate(write);
    }

    /// Cheap selectivity estimate for the planner: the exact cardinality,
    /// read from the per-container counts in O(#containers) without touching
    /// any bit data. Conjunctions are evaluated cheapest-hint-first.
    #[inline]
    pub fn cardinality_hint(&self) -> u64 {
        self.len()
    }

    /// Conjunction of many bitmaps — the core of graph-query evaluation.
    ///
    /// Intersects cheapest-first (smallest cardinality) so the running result
    /// shrinks as fast as possible; returns the empty bitmap for no inputs.
    pub fn and_many<'a, I>(bitmaps: I) -> Bitmap
    where
        I: IntoIterator<Item = &'a Bitmap>,
    {
        let mut v: Vec<&Bitmap> = bitmaps.into_iter().collect();
        v.sort_by_key(|b| b.cardinality_hint());
        v.split_first().map_or_else(Bitmap::new, |(first, rest)| {
            Bitmap::and_ordered(first, rest)
        })
    }

    /// Conjunction of `first` and `rest`, intersected in the order given,
    /// so callers that have already ordered their operands skip the sort of
    /// [`Bitmap::and_many`]. The first two operands are intersected into a
    /// single accumulator (the only allocation) and the rest applied with
    /// [`Bitmap::and_inplace`], stopping the moment the accumulator drains.
    pub fn and_ordered(first: &Bitmap, rest: &[&Bitmap]) -> Bitmap {
        let Some((second, rest)) = rest.split_first() else {
            return first.clone();
        };
        let mut acc = first.and(second);
        for b in rest {
            if acc.is_empty() {
                break;
            }
            acc.and_inplace(b);
        }
        acc
    }

    /// Disjunction of many bitmaps.
    pub fn or_many<'a, I>(bitmaps: I) -> Bitmap
    where
        I: IntoIterator<Item = &'a Bitmap>,
    {
        let mut acc = Bitmap::new();
        for b in bitmaps {
            acc = acc.or(b);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bm(vals: &[u32]) -> Bitmap {
        vals.iter().copied().collect()
    }

    #[test]
    fn and_or_andnot_xor_basic() {
        let a = bm(&[1, 2, 3, 100_000, 200_000]);
        let b = bm(&[2, 3, 4, 200_000]);
        assert_eq!(a.and(&b).to_vec(), vec![2, 3, 200_000]);
        assert_eq!(a.or(&b).to_vec(), vec![1, 2, 3, 4, 100_000, 200_000]);
        assert_eq!(a.and_not(&b).to_vec(), vec![1, 100_000]);
        assert_eq!(a.xor(&b).to_vec(), vec![1, 4, 100_000]);
    }

    #[test]
    fn ops_with_empty() {
        let a = bm(&[5, 70_000]);
        let e = Bitmap::new();
        assert!(a.and(&e).is_empty());
        assert_eq!(a.or(&e), a);
        assert_eq!(a.and_not(&e), a);
        assert_eq!(a.xor(&e), a);
        assert_eq!(e.and_not(&a), e);
    }

    #[test]
    fn and_many_orders_by_cardinality() {
        let a: Bitmap = (0..10_000u32).collect();
        let b: Bitmap = (5_000..15_000u32).collect();
        let c = bm(&[5_001, 5_002, 20_000]);
        let r = Bitmap::and_many([&a, &b, &c]);
        assert_eq!(r.to_vec(), vec![5_001, 5_002]);
    }

    #[test]
    fn and_many_empty_input() {
        assert!(Bitmap::and_many(std::iter::empty::<&Bitmap>()).is_empty());
    }

    #[test]
    fn or_many_unions_all() {
        let parts: Vec<Bitmap> = (0..5u32).map(|i| bm(&[i, i + 100])).collect();
        let r = Bitmap::or_many(parts.iter());
        assert_eq!(r.len(), 10);
    }

    #[test]
    fn inplace_ops_match_allocating() {
        let cases: Vec<(Bitmap, Bitmap)> = vec![
            ((0..100_000u32).collect(), (50_000..150_000u32).collect()),
            (bm(&[1, 70_000]), bm(&[2, 70_000])),
            (Bitmap::from_range(0..70_000), bm(&[5, 65_000, 69_999])),
            (bm(&[1]), Bitmap::new()),
            (Bitmap::new(), bm(&[1])),
            (
                (0..200_000u32).step_by(3).collect(),
                (0..200_000u32).step_by(2).collect(),
            ),
            // Lopsided sizes: exercises the galloping array paths.
            ((0..100_000u32).collect(), bm(&[17, 40_000, 99_999])),
            (bm(&[17, 40_000, 99_999]), (0..100_000u32).collect()),
        ];
        for (a, b) in cases {
            let mut anded = a.clone();
            anded.and_inplace(&b);
            assert_eq!(anded, a.and(&b));
            let mut orred = a.clone();
            orred.or_inplace(&b);
            assert_eq!(orred, a.or(&b));
            let mut diffed = a.clone();
            diffed.and_not_inplace(&b);
            assert_eq!(diffed, a.and_not(&b));
        }
    }

    #[test]
    fn inplace_ops_match_allocating_across_optimized_forms() {
        let mk = || -> Vec<Bitmap> {
            vec![
                Bitmap::from_range(0..70_000),
                (0..200_000u32).step_by(3).collect(),
                bm(&[9, 65_536, 131_072]),
            ]
        };
        for optimize_a in [false, true] {
            for optimize_b in [false, true] {
                for mut a in mk() {
                    for mut b in mk() {
                        if optimize_a {
                            a.optimize();
                        }
                        if optimize_b {
                            b.optimize();
                        }
                        let mut anded = a.clone();
                        anded.and_inplace(&b);
                        assert_eq!(anded, a.and(&b));
                        let mut orred = a.clone();
                        orred.or_inplace(&b);
                        assert_eq!(orred, a.or(&b));
                        let mut diffed = a.clone();
                        diffed.and_not_inplace(&b);
                        assert_eq!(diffed, a.and_not(&b));
                    }
                }
            }
        }
    }

    #[test]
    fn apply_delta_is_andnot_then_or() {
        let base: Bitmap = (0..1000u32).step_by(3).collect();
        let retired: Bitmap = [3u32, 9, 600].into_iter().collect();
        let added: Bitmap = [9u32, 1500, 70_000].into_iter().collect();
        let got = base.apply_delta(&retired, &added);
        assert_eq!(got, base.and_not(&retired).or(&added));
        assert!(!got.contains(3));
        assert!(got.contains(9), "re-added after retirement");
        assert!(got.contains(70_000));
        // Empty-side fast paths are still exact.
        assert_eq!(base.apply_delta(&Bitmap::new(), &Bitmap::new()), base);
        assert_eq!(base.apply_delta(&base, &Bitmap::new()), Bitmap::new());
    }

    #[test]
    fn cardinality_hint_is_exact() {
        let mut b: Bitmap = (0..50_000u32).step_by(2).collect();
        assert_eq!(b.cardinality_hint(), b.len());
        b.optimize();
        assert_eq!(b.cardinality_hint(), 25_000);
    }

    #[test]
    fn ops_across_dense_and_run_forms() {
        let mut a = Bitmap::from_range(0..100_000);
        a.optimize();
        let b: Bitmap = (0..200_000u32).step_by(3).collect();
        let r = a.and(&b);
        assert_eq!(r.len(), 100_000_u64.div_ceil(3));
        let u = a.or(&b);
        assert_eq!(u.len(), 100_000 + (200_000u64 - 100_002).div_ceil(3));
    }
}
