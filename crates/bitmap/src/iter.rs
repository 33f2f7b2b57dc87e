//! Ascending-order iteration over a bitmap.

use crate::bitmap::{join, Bitmap};
use crate::container::{Container, Run};
use crate::RecordId;

/// Iterator over the ids of a [`Bitmap`], in ascending order.
pub struct Iter<'a> {
    bitmap: &'a Bitmap,
    /// Index of the container currently being drained.
    chunk: usize,
    state: ChunkIter<'a>,
}

enum ChunkIter<'a> {
    Done,
    Array(std::slice::Iter<'a, u16>),
    Words {
        words: &'a [u64],
        word_idx: usize,
        current: u64,
    },
    Runs {
        runs: std::slice::Iter<'a, Run>,
        /// Remaining values of the active run, as a half-open u32 range so a
        /// full-chunk run does not overflow.
        lo: u32,
        hi: u32,
    },
}

impl<'a> Iter<'a> {
    pub(crate) fn new(bitmap: &'a Bitmap) -> Self {
        let mut it = Iter {
            bitmap,
            chunk: 0,
            state: ChunkIter::Done,
        };
        it.load_chunk();
        it
    }

    fn load_chunk(&mut self) {
        self.state = match self.bitmap.containers.get(self.chunk) {
            None => ChunkIter::Done,
            Some(Container::Array(a)) => ChunkIter::Array(a.iter()),
            Some(Container::Words(w)) => ChunkIter::Words {
                words: &w.bits,
                word_idx: 0,
                current: w.bits[0],
            },
            Some(Container::Runs(rs)) => ChunkIter::Runs {
                runs: rs.iter(),
                lo: 0,
                hi: 0,
            },
        };
    }

    fn next_low(&mut self) -> Option<u16> {
        match &mut self.state {
            ChunkIter::Done => None,
            ChunkIter::Array(it) => it.next().copied(),
            ChunkIter::Words {
                words,
                word_idx,
                current,
            } => loop {
                if *current != 0 {
                    let tz = current.trailing_zeros();
                    *current &= *current - 1;
                    return Some((*word_idx as u16) << 6 | tz as u16);
                }
                *word_idx += 1;
                if *word_idx >= words.len() {
                    return None;
                }
                *current = words[*word_idx];
            },
            ChunkIter::Runs { runs, lo, hi } => {
                if lo >= hi {
                    let r = runs.next()?;
                    *lo = u32::from(r.start);
                    *hi = u32::from(r.end()) + 1;
                }
                let v = *lo as u16;
                *lo += 1;
                Some(v)
            }
        }
    }
}

impl Iterator for Iter<'_> {
    type Item = RecordId;

    fn next(&mut self) -> Option<RecordId> {
        loop {
            if let Some(low) = self.next_low() {
                return Some(join(self.bitmap.keys[self.chunk], low));
            }
            if self.chunk + 1 >= self.bitmap.containers.len() {
                return None;
            }
            self.chunk += 1;
            self.load_chunk();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Cheap lower bound: we do not track position, so report unknown.
        (0, self.bitmap.len().try_into().ok())
    }
}

impl Bitmap {
    /// Calls `f` for every id in ascending order.
    ///
    /// Equivalent to draining [`Bitmap::iter`] but without per-item iterator
    /// state, so the per-id cost is a branch and a shift; fused kernels that
    /// fold millions of ids use this path.
    pub fn for_each(&self, mut f: impl FnMut(RecordId)) {
        for (&key, c) in self.keys.iter().zip(&self.containers) {
            c.for_each_low(|low| f(join(key, low)));
        }
    }

    /// Calls `f(self.rank(id))` for every id of `ids` that is in `self`, in
    /// ascending id order.
    ///
    /// When `self` is the presence bitmap of a sparse column, the ranks are
    /// the value offsets of `ids`' present records: this is the positional
    /// gather behind `SparseColumn::fold_over`. The walk visits both key
    /// lists once in lockstep, carrying the cardinality of every `self`
    /// container passed, and ranks inside a shared container incrementally
    /// instead of re-counting from the chunk start per id: a counted window
    /// then a bisection over an array, a running popcount over words, a
    /// running cardinality over runs.
    pub fn for_each_rank_of(&self, ids: &Bitmap, mut f: impl FnMut(u64)) {
        let (mut i, mut j) = (0usize, 0usize);
        let mut base = 0u64;
        while i < self.keys.len() && j < ids.keys.len() {
            match self.keys[i].cmp(&ids.keys[j]) {
                std::cmp::Ordering::Less => {
                    base += self.containers[i].len();
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let c = &self.containers[i];
                    c.for_each_rank_of(&ids.containers[j], |r| f(base + r));
                    base += c.len();
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

/// Values an Array rank walk compares per id before it bisects the rest of
/// the array: a few ids against a 4 096-entry array stay O(k log n).
const ARRAY_WINDOW: usize = 8;

/// Skipped-word spans at least this long go to the dispatched popcount
/// kernel; shorter ones stay an inline `count_ones` loop, which costs less
/// than the kernel call for the word or two between neighbouring ids.
const POPCOUNT_SPAN: usize = 32;

impl Container {
    /// Calls `f` for every value in ascending order.
    pub(crate) fn for_each_low(&self, mut f: impl FnMut(u16)) {
        match self {
            Container::Array(a) => {
                for &low in a {
                    f(low);
                }
            }
            Container::Words(w) => {
                for (wi, &bits) in w.bits.iter().enumerate() {
                    let mut word = bits;
                    while word != 0 {
                        let tz = word.trailing_zeros();
                        f((wi as u16) << 6 | tz as u16);
                        word &= word - 1;
                    }
                }
            }
            Container::Runs(rs) => {
                for r in rs {
                    for low in u32::from(r.start)..=u32::from(r.end()) {
                        f(low as u16);
                    }
                }
            }
        }
    }

    /// Calls `f(self.rank(v))` for every value `v` of `ids` that is in
    /// `self`, ascending. One cursor over `self` moves forward only:
    ///
    /// * **Array** — a merge that counts a window of [`ARRAY_WINDOW`]
    ///   values per id and bisects the remainder when the whole window is
    ///   below the id;
    /// * **Words** — a running popcount over the words skipped, plus one
    ///   masked count in the id's own word;
    /// * **Runs** — a running cardinality of the runs passed.
    pub(crate) fn for_each_rank_of(&self, ids: &Container, mut f: impl FnMut(u64)) {
        match self {
            Container::Array(a) => {
                let mut pos = 0usize;
                ids.for_each_low(|v| {
                    // Count the window's values below `v` without a branch
                    // per step; a full window means a long gap, so bisect.
                    if let Some(win) = a.get(pos..pos + ARRAY_WINDOW) {
                        let below = win.iter().filter(|&&x| x < v).count();
                        pos += below;
                        if below == ARRAY_WINDOW {
                            pos += a[pos..].partition_point(|&x| x < v);
                        }
                    } else {
                        pos += a[pos..].iter().filter(|&&x| x < v).count();
                    }
                    if pos < a.len() && a[pos] == v {
                        f(pos as u64);
                        pos += 1;
                    }
                });
            }
            Container::Words(w) => {
                let (mut wi, mut below) = (0usize, 0u64);
                ids.for_each_low(|v| {
                    let target = usize::from(v >> 6);
                    let skipped = &w.bits[wi..target];
                    below += if skipped.len() >= POPCOUNT_SPAN {
                        crate::kernels::popcount(skipped)
                    } else {
                        skipped
                            .iter()
                            .map(|x| u64::from(x.count_ones()))
                            .sum::<u64>()
                    };
                    wi = target;
                    let word = w.bits[target];
                    let bit = 1u64 << (v & 63);
                    if word & bit != 0 {
                        f(below + u64::from((word & (bit - 1)).count_ones()));
                    }
                });
            }
            Container::Runs(rs) => {
                let (mut ri, mut below) = (0usize, 0u64);
                ids.for_each_low(|v| {
                    while ri < rs.len() && rs[ri].end() < v {
                        below += rs[ri].cardinality();
                        ri += 1;
                    }
                    if ri < rs.len() && rs[ri].start <= v {
                        f(below + u64::from(v - rs[ri].start));
                    }
                });
            }
        }
    }
}

impl<'a> IntoIterator for &'a Bitmap {
    type Item = RecordId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use crate::container::Container;
    use crate::Bitmap;

    /// Chunks 0, 1 and 0xFFFF (so 65 535, 65 536 and `u32::MAX` are
    /// candidates) in one shape; `phase` shifts the values so two
    /// bitmaps of the same shape only partly overlap.
    fn shaped(shape: usize, phase: u32) -> Bitmap {
        let lows: Vec<u32> = match shape {
            0 => (0..700u32).map(|i| (i * 93 + phase) % 65_536).collect(),
            1 => (phase..65_536).step_by(3).collect(),
            _ => [
                (phase, 5_000),
                (20_000, 20_010 + phase),
                (60_000 + phase, 65_536),
            ]
            .into_iter()
            .flat_map(|(a, b)| a..b)
            .collect(),
        };
        let mut b: Bitmap = [0u32, 1, 0xFFFF]
            .into_iter()
            .flat_map(|key| lows.iter().map(move |&l| key << 16 | l))
            .chain([65_535, 65_536, u32::MAX])
            .collect();
        b.optimize();
        b
    }

    fn walk(p: &Bitmap, ids: &Bitmap) -> Vec<u64> {
        let mut out = Vec::new();
        p.for_each_rank_of(ids, |r| out.push(r));
        out
    }

    fn reference(p: &Bitmap, ids: &Bitmap) -> Vec<u64> {
        ids.iter()
            .filter(|&r| p.contains(r))
            .map(|r| p.rank(r))
            .collect()
    }

    #[test]
    fn rank_walk_covers_every_container_pair() {
        let kind = |b: &Bitmap| match &b.containers[0] {
            Container::Array(_) => 0,
            Container::Words(_) => 1,
            Container::Runs(_) => 2,
        };
        for ps in 0..3 {
            let p = shaped(ps, 0);
            assert_eq!(kind(&p), ps, "presence shape {ps}");
            for is in 0..3 {
                for phase in [0, 1, 2] {
                    let ids = shaped(is, phase);
                    assert_eq!(kind(&ids), is, "ids shape {is}");
                    let got = walk(&p, &ids);
                    assert_eq!(got, reference(&p, &ids), "{ps}x{is} phase {phase}");
                    assert!(!got.is_empty());
                }
            }
            // Either side empty, and disjoint key sets.
            assert!(walk(&p, &Bitmap::new()).is_empty());
            assert!(walk(&Bitmap::new(), &p).is_empty());
            let elsewhere: Bitmap = (2u32 << 16..3 << 16).collect();
            assert!(walk(&p, &elsewhere).is_empty());
            assert_eq!(walk(&p, &p), (0..p.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn rank_walk_gallops_past_a_long_array() {
        let p: Bitmap = (0..4_000u32).map(|i| i * 16).collect();
        let ids: Bitmap = [0u32, 15, 16, 40_000, 63_984, 63_985, 70_000]
            .into_iter()
            .collect();
        assert_eq!(walk(&p, &ids), vec![0, 1, 2_500, 3_999]);
    }

    #[test]
    fn iterates_sorted_across_chunk_forms() {
        let mut b = Bitmap::from_range(60_000..70_000); // spans two chunks
        b.extend([5u32, 500_000, 500_007]);
        b.optimize();
        let v = b.to_vec();
        assert_eq!(v.len(), 10_003);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(v[0], 5);
        assert_eq!(*v.last().unwrap(), 500_007);
    }

    #[test]
    fn iter_matches_contains() {
        let b: Bitmap = (0..1000u32).map(|v| v * v).collect();
        for v in &b {
            assert!(b.contains(v));
        }
        assert_eq!(b.iter().count() as u64, b.len());
    }

    #[test]
    fn full_chunk_run_iterates_fully() {
        let mut b = Bitmap::from_range(0..65_536);
        b.optimize();
        assert_eq!(b.iter().count(), 65_536);
        assert_eq!(b.iter().last(), Some(65_535));
    }
}
