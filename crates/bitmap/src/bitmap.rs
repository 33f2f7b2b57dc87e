//! The top-level two-level bitmap.

use crate::container::Container;
use crate::iter::Iter;
use crate::RecordId;

/// A compressed set of [`RecordId`]s.
///
/// Internally a sorted association from the high 16 bits of each value to a
/// [`Container`] holding the low 16 bits. See the crate docs for the layout
/// rationale.
#[derive(Clone, Default)]
pub struct Bitmap {
    pub(crate) keys: Vec<u16>,
    pub(crate) containers: Vec<Container>,
}

#[inline]
pub(crate) fn split(v: RecordId) -> (u16, u16) {
    ((v >> 16) as u16, v as u16)
}

#[inline]
pub(crate) fn join(key: u16, low: u16) -> RecordId {
    (RecordId::from(key) << 16) | RecordId::from(low)
}

impl Bitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a bitmap containing every id in `from..to`.
    pub fn from_range(range: std::ops::Range<RecordId>) -> Self {
        let mut b = Bitmap::new();
        // Bulk path: insert chunk-aligned runs directly.
        let mut v = range.start;
        while v < range.end {
            let (key, low) = split(v);
            let chunk_end = (u64::from(join(key, u16::MAX)) + 1).min(u64::from(range.end));
            let last_low = (chunk_end - 1) as u16;
            b.keys.push(key);
            b.containers
                .push(Container::Runs(vec![crate::container::Run {
                    start: low,
                    len: last_low - low,
                }]));
            v = match chunk_end.try_into() {
                Ok(v) => v,
                Err(_) => break, // chunk_end == 2^32: range exhausted
            };
        }
        b
    }

    /// Number of ids in the set.
    pub fn len(&self) -> u64 {
        self.containers.iter().map(Container::len).sum()
    }

    /// True when no id is set.
    pub fn is_empty(&self) -> bool {
        self.containers.is_empty()
    }

    #[inline]
    fn key_index(&self, key: u16) -> Result<usize, usize> {
        self.keys.binary_search(&key)
    }

    /// True iff `v` is in the set.
    pub fn contains(&self, v: RecordId) -> bool {
        let (key, low) = split(v);
        match self.key_index(key) {
            Ok(i) => self.containers[i].contains(low),
            Err(_) => false,
        }
    }

    /// Adds `v`; returns true if it was newly added.
    pub fn insert(&mut self, v: RecordId) -> bool {
        let (key, low) = split(v);
        match self.key_index(key) {
            Ok(i) => self.containers[i].insert(low),
            Err(i) => {
                self.keys.insert(i, key);
                self.containers.insert(i, Container::singleton(low));
                true
            }
        }
    }

    /// Removes `v`; returns true if it was present.
    pub fn remove(&mut self, v: RecordId) -> bool {
        let (key, low) = split(v);
        match self.key_index(key) {
            Ok(i) => {
                let was = self.containers[i].remove(low);
                if self.containers[i].is_empty() {
                    self.keys.remove(i);
                    self.containers.remove(i);
                }
                was
            }
            Err(_) => false,
        }
    }

    /// Number of set ids strictly below `v`.
    ///
    /// When the bitmap indexes the presence rows of a sparse column, this is
    /// exactly the offset of `v`'s value in the dense value vector.
    pub fn rank(&self, v: RecordId) -> u64 {
        let (key, low) = split(v);
        let mut r = 0u64;
        for (i, &k) in self.keys.iter().enumerate() {
            if k < key {
                r += self.containers[i].len();
            } else if k == key {
                r += self.containers[i].rank(low);
                break;
            } else {
                break;
            }
        }
        r
    }

    /// The `i`-th smallest id (0-based), or `None` when `i >= len()`.
    pub fn select(&self, mut i: u64) -> Option<RecordId> {
        for (ci, c) in self.containers.iter().enumerate() {
            let card = c.len();
            if i < card {
                return Some(join(self.keys[ci], c.select(i)));
            }
            i -= card;
        }
        None
    }

    /// Smallest id in the set.
    pub fn min(&self) -> Option<RecordId> {
        let c = self.containers.first()?;
        Some(join(self.keys[0], c.min()?))
    }

    /// Largest id in the set.
    pub fn max(&self) -> Option<RecordId> {
        let c = self.containers.last()?;
        Some(join(*self.keys.last()?, c.max()?))
    }

    /// Iterates ids in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter::new(self)
    }

    /// Converts to a sorted `Vec` of ids.
    pub fn to_vec(&self) -> Vec<RecordId> {
        let mut out = Vec::with_capacity(usize::try_from(self.len()).expect("id count fits usize"));
        self.for_each(|v| out.push(v));
        out
    }

    /// Re-encodes every chunk in its smallest representation. Call after a
    /// bulk load; binary operations preserve whatever forms they meet.
    pub fn optimize(&mut self) {
        for c in &mut self.containers {
            c.optimize();
        }
    }

    /// Approximate heap bytes used (the figure the paper's space budget
    /// reasoning is expressed in).
    pub fn size_in_bytes(&self) -> usize {
        let header = self.keys.len() * (2 + std::mem::size_of::<Container>());
        header
            + self
                .containers
                .iter()
                .map(Container::size_in_bytes)
                .sum::<usize>()
    }

    /// True iff every id in `self` is in `other`.
    pub fn is_subset(&self, other: &Bitmap) -> bool {
        for (i, &k) in self.keys.iter().enumerate() {
            match other.key_index(k) {
                Ok(j) => {
                    if !self.containers[i].is_subset(&other.containers[j]) {
                        return false;
                    }
                }
                Err(_) => return false,
            }
        }
        true
    }

    /// Cardinality of the intersection, computed without materializing it.
    pub fn and_len(&self, other: &Bitmap) -> u64 {
        let mut total = 0u64;
        for (i, &k) in self.keys.iter().enumerate() {
            if let Ok(j) = other.key_index(k) {
                total += self.containers[i].and_len(&other.containers[j]);
            }
        }
        total
    }

    pub(crate) fn push_container(&mut self, key: u16, c: Container) {
        debug_assert!(self.keys.last().is_none_or(|&k| k < key));
        debug_assert!(!c.is_empty());
        if let Container::Words(w) = &c {
            w.debug_check_card();
        }
        self.keys.push(key);
        self.containers.push(c);
    }

    /// The subset of `self` falling in `range` — the shard-local view used
    /// by horizontal record sharding. Chunks fully inside the range are
    /// cloned verbatim; only the (at most two) boundary chunks are masked.
    pub fn slice(&self, range: std::ops::Range<RecordId>) -> Bitmap {
        let mut out = Bitmap::new();
        if range.start >= range.end {
            return out;
        }
        let (start_key, start_low) = split(range.start);
        let (end_key, end_low) = split(range.end - 1);
        for (i, &k) in self.keys.iter().enumerate() {
            if k < start_key {
                continue;
            }
            if k > end_key {
                break;
            }
            let lo = if k == start_key { start_low } else { 0 };
            let hi = if k == end_key { end_low } else { u16::MAX };
            if lo == 0 && hi == u16::MAX {
                out.push_container(k, self.containers[i].clone());
            } else {
                let mask = Container::Runs(vec![crate::container::Run {
                    start: lo,
                    len: hi - lo,
                }]);
                if let Some(c) = self.containers[i].and(&mask) {
                    out.push_container(k, c);
                }
            }
        }
        out
    }

    /// In-place union optimized for the shard-merge pattern: `other`'s ids
    /// lie at or above `self`'s current maximum chunk, so whole chunks are
    /// appended and only a shared boundary chunk needs a real union. Falls
    /// back to element-wise insertion if the precondition does not hold, so
    /// the result is always the exact union.
    pub fn append_disjoint(&mut self, other: &Bitmap) {
        for (i, &k) in other.keys.iter().enumerate() {
            match self.keys.last().copied() {
                Some(last) if k == last => {
                    let j = self.containers.len() - 1;
                    self.containers[j] = self.containers[j].or(&other.containers[i]);
                }
                Some(last) if k < last => {
                    for low in other.containers[i].to_array() {
                        self.insert(join(k, low));
                    }
                }
                _ => self.push_container(k, other.containers[i].clone()),
            }
        }
    }
}

impl FromIterator<RecordId> for Bitmap {
    fn from_iter<T: IntoIterator<Item = RecordId>>(iter: T) -> Self {
        let mut b = Bitmap::new();
        b.extend(iter);
        b
    }
}

impl Extend<RecordId> for Bitmap {
    fn extend<T: IntoIterator<Item = RecordId>>(&mut self, iter: T) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl PartialEq for Bitmap {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Bitmap {}

impl std::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.len();
        write!(f, "Bitmap(len={n}")?;
        if n <= 16 {
            write!(f, ", {:?}", self.to_vec())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_across_chunks() {
        let mut b = Bitmap::new();
        let vals = [0u32, 1, 65535, 65536, 1 << 20, u32::MAX];
        for &v in &vals {
            assert!(b.insert(v));
            assert!(!b.insert(v));
        }
        assert_eq!(b.len(), vals.len() as u64);
        for &v in &vals {
            assert!(b.contains(v));
        }
        assert!(!b.contains(2));
        assert!(b.remove(65536));
        assert!(!b.remove(65536));
        assert!(!b.contains(65536));
        assert_eq!(b.len(), vals.len() as u64 - 1);
    }

    #[test]
    fn from_range_spans_chunks() {
        let b = Bitmap::from_range(65000..70000);
        assert_eq!(b.len(), 5000);
        assert_eq!(b.min(), Some(65000));
        assert_eq!(b.max(), Some(69999));
        assert!(b.contains(65535));
        assert!(b.contains(65536));
        assert!(!b.contains(70000));
    }

    #[test]
    fn rank_select_round_trip() {
        let b: Bitmap = (0..10_000u32).map(|v| v * 13).collect();
        for i in [0u64, 1, 999, 9999] {
            let v = b.select(i).unwrap();
            assert_eq!(b.rank(v), i);
        }
        assert_eq!(b.select(10_000), None);
        assert_eq!(b.rank(0), 0);
        assert_eq!(b.rank(u32::MAX), 10_000);
    }

    #[test]
    fn subset_and_and_len() {
        let big: Bitmap = (0..1000u32).collect();
        let small: Bitmap = (100..200u32).collect();
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert_eq!(big.and_len(&small), 100);
    }

    #[test]
    fn eq_is_representation_independent() {
        let mut a: Bitmap = (0..5000u32).collect();
        let b = Bitmap::from_range(0..5000);
        a.optimize();
        assert_eq!(a, b);
    }

    #[test]
    fn slice_matches_filtered_iteration() {
        let b: Bitmap = (0..200_000u32).map(|v| v * 7).collect();
        for range in [0..0u32, 0..1, 100..100_000, 65_530..65_540, 0..u32::MAX] {
            let sliced = b.slice(range.clone());
            let expect: Bitmap = b.iter().filter(|v| range.contains(v)).collect();
            assert_eq!(sliced, expect, "range {range:?}");
        }
    }

    #[test]
    fn slice_clones_interior_chunks_and_masks_boundaries() {
        let b = Bitmap::from_range(0..300_000);
        let s = b.slice(70_000..200_001);
        assert_eq!(s.len(), 130_001);
        assert_eq!(s.min(), Some(70_000));
        assert_eq!(s.max(), Some(200_000));
    }

    #[test]
    fn append_disjoint_reassembles_shards() {
        let b: Bitmap = (0..50_000u32).map(|v| v * 13).collect();
        // Shard at non-chunk-aligned boundaries so shards share chunks.
        let bounds = [0u32, 70_001, 140_002, 650_000 * 13];
        let mut merged = Bitmap::new();
        for w in bounds.windows(2) {
            merged.append_disjoint(&b.slice(w[0]..w[1]));
        }
        assert_eq!(merged, b);
    }

    #[test]
    fn append_disjoint_handles_out_of_order_input() {
        let hi: Bitmap = (100_000..100_100u32).collect();
        let lo: Bitmap = (0..100u32).collect();
        let mut merged = Bitmap::new();
        merged.append_disjoint(&hi);
        merged.append_disjoint(&lo); // precondition violated: falls back
        let expect: Bitmap = lo.iter().chain(hi.iter()).collect();
        assert_eq!(merged, expect);
    }

    #[test]
    fn empty_bitmap_basics() {
        let b = Bitmap::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.min(), None);
        assert_eq!(b.max(), None);
        assert_eq!(b.select(0), None);
        assert_eq!(b.iter().count(), 0);
    }
}
