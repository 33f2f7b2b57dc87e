//! Chunk containers: the per-64Ki-key-range storage of a [`crate::Bitmap`].
//!
//! A container holds the low 16 bits of every value falling in one chunk.
//! Three representations are used, mirroring the classic roaring design:
//! sorted arrays for sparse chunks, an 8 KiB word array for dense chunks and
//! run-length intervals for clustered chunks. All binary operations keep the
//! result in the cheapest of array/words form; run form is only produced by
//! [`Container::optimize`], which callers invoke after bulk loads.
//!
//! Allocating `and`/`and_not` copy one operand and run the in-place kernel
//! on the copy, so each representation pair has one body.
//!
//! ∩ and ∖ of an array against anything but runs end in one of two
//! filters, which compact the array in place:
//!
//! * **Array against a bitset** ([`retain_in_bits`]): test each value's
//!   bit, write it at a cursor and advance the cursor by the kept bit. No
//!   branch depends on the data, so random record ids cost what strided
//!   ones do. Array × Words filters against the words themselves. Array ×
//!   Array first marks the other array into a zeroed 1024-word stack
//!   bitset: this *mark-and-probe* costs one pass over each side plus the
//!   zeroing, where a sorted merge mispredicts a branch on most values.
//! * **Array against a much longer array** ([`gallop_retain`]): each value
//!   of the short side gallops forward through the long side. This costs
//!   a few unpredictable probes per short value and nothing per long one.
//!
//! For Array × Array, [`gallop_pays`] picks between the two from the two
//! lengths alone: galloping once the long side holds `31·short − 64` values
//! (about 30× the short side; always for a short side of one or two);
//! mark-and-probe otherwise, including balanced arrays of a few values,
//! where the zeroing still costs less than galloping. Counts
//! (`and_len`, hence `is_subset`) take the same two paths without
//! building the result.
//!
//! Word-level loops (AND/OR/ANDNOT/XOR over dense containers, cardinality
//! recounts, galloping probes) are delegated to [`crate::kernels`], which
//! dispatches between scalar and AVX2 implementations at runtime.

use crate::kernels;

/// Maximum cardinality at which the sorted-array representation is kept.
///
/// Above this the array (2 bytes/value) would exceed the fixed 8 KiB words
/// representation, so we switch — the same threshold roaring uses.
pub(crate) const ARRAY_MAX: usize = 4096;

/// Number of `u64` words in a dense container (covers 65536 bits).
pub(crate) const WORDS: usize = 1024;

/// An inclusive run `[start, start + len]` of set values within a chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Run {
    pub start: u16,
    /// Number of values in the run *minus one*, so a run can cover the whole
    /// chunk (65536 values) without overflowing `u16`.
    pub len: u16,
}

impl Run {
    #[inline]
    pub fn end(self) -> u16 {
        self.start + self.len
    }

    #[inline]
    pub fn cardinality(self) -> u64 {
        u64::from(self.len) + 1
    }
}

/// Dense representation: a fixed bit array plus a maintained cardinality.
#[derive(Clone)]
pub(crate) struct Words {
    pub bits: [u64; WORDS],
    pub card: u32,
}

impl Words {
    pub fn empty() -> Box<Self> {
        Box::new(Words {
            bits: [0; WORDS],
            card: 0,
        })
    }

    #[inline]
    pub fn contains(&self, v: u16) -> bool {
        self.bits[usize::from(v >> 6)] & (1 << (v & 63)) != 0
    }

    /// Sets bit `v`; returns true if it was newly set.
    #[inline]
    pub fn insert(&mut self, v: u16) -> bool {
        let w = &mut self.bits[usize::from(v >> 6)];
        let mask = 1u64 << (v & 63);
        let new = *w & mask == 0;
        *w |= mask;
        self.card += u32::from(new);
        new
    }

    /// Clears bit `v`; returns true if it was previously set.
    #[inline]
    pub fn remove(&mut self, v: u16) -> bool {
        let w = &mut self.bits[usize::from(v >> 6)];
        let mask = 1u64 << (v & 63);
        let was = *w & mask != 0;
        *w &= !mask;
        self.card -= u32::from(was);
        was
    }

    pub fn recount(&mut self) {
        self.card = u32::try_from(kernels::popcount(&self.bits)).expect("container card fits u32");
    }

    /// Debug-build check that the maintained cardinality matches an actual
    /// recount — every incremental update path funnels through here via
    /// [`Container::shrink`] and `Bitmap::push_container`.
    #[inline]
    pub fn debug_check_card(&self) {
        debug_assert_eq!(
            u64::from(self.card),
            kernels::popcount(&self.bits),
            "cached words cardinality diverged from recount"
        );
    }
}

/// One chunk of a bitmap, in whichever representation currently fits best.
#[derive(Clone)]
pub(crate) enum Container {
    /// Sorted, deduplicated values; `len() <= ARRAY_MAX` is maintained by all
    /// mutating operations.
    Array(Vec<u16>),
    /// Uncompressed 65536-bit array.
    Words(Box<Words>),
    /// Sorted, disjoint, non-adjacent runs.
    Runs(Vec<Run>),
}

impl Container {
    pub fn singleton(v: u16) -> Self {
        Container::Array(vec![v])
    }

    pub fn len(&self) -> u64 {
        match self {
            Container::Array(a) => a.len() as u64,
            Container::Words(w) => u64::from(w.card),
            Container::Runs(rs) => rs.iter().map(|r| r.cardinality()).sum(),
        }
    }

    pub fn is_empty(&self) -> bool {
        match self {
            Container::Array(a) => a.is_empty(),
            Container::Words(w) => w.card == 0,
            Container::Runs(rs) => rs.is_empty(),
        }
    }

    pub fn contains(&self, v: u16) -> bool {
        match self {
            Container::Array(a) => a.binary_search(&v).is_ok(),
            Container::Words(w) => w.contains(v),
            Container::Runs(rs) => rs
                .binary_search_by(|r| {
                    if v < r.start {
                        std::cmp::Ordering::Greater
                    } else if v > r.end() {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Equal
                    }
                })
                .is_ok(),
        }
    }

    /// Inserts `v`, converting representation if needed. Returns true when
    /// `v` was not already present.
    pub fn insert(&mut self, v: u16) -> bool {
        match self {
            Container::Array(a) => match a.binary_search(&v) {
                Ok(_) => false,
                Err(pos) => {
                    if a.len() >= ARRAY_MAX {
                        let mut w = words_from_array(a);
                        w.insert(v);
                        *self = Container::Words(w);
                    } else {
                        a.insert(pos, v);
                    }
                    true
                }
            },
            Container::Words(w) => w.insert(v),
            Container::Runs(rs) => {
                // Fast path for sequential loads: extend the last run.
                if let Some(last) = rs.last_mut() {
                    if v == last.end().wrapping_add(1) && last.end() != u16::MAX {
                        last.len += 1;
                        return true;
                    }
                    if v >= last.start && v <= last.end() {
                        return false;
                    }
                    if v > last.end() {
                        rs.push(Run { start: v, len: 0 });
                        return true;
                    }
                }
                // General case: fall back to words form.
                let mut w = words_from_runs(rs);
                let new = w.insert(v);
                *self = Container::Words(w);
                self.shrink();
                new
            }
        }
    }

    /// Removes `v`. Returns true when it was present.
    pub fn remove(&mut self, v: u16) -> bool {
        match self {
            Container::Array(a) => match a.binary_search(&v) {
                Ok(pos) => {
                    a.remove(pos);
                    true
                }
                Err(_) => false,
            },
            Container::Words(w) => {
                let was = w.remove(v);
                if usize::try_from(w.card).expect("card fits usize") <= ARRAY_MAX {
                    *self = Container::Array(array_from_words(w));
                }
                was
            }
            Container::Runs(_) => {
                if !self.contains(v) {
                    return false;
                }
                let mut w = self.to_words();
                w.remove(v);
                *self = Container::Words(w);
                self.shrink();
                true
            }
        }
    }

    /// Position of `v` among the set values (number of set values `< v`).
    pub fn rank(&self, v: u16) -> u64 {
        match self {
            Container::Array(a) => match a.binary_search(&v) {
                Ok(p) | Err(p) => p as u64,
            },
            Container::Words(w) => {
                let word = usize::from(v >> 6);
                let mut r = kernels::popcount(&w.bits[..word]);
                let mask = (1u64 << (v & 63)) - 1;
                r += u64::from((w.bits[word] & mask).count_ones());
                r
            }
            Container::Runs(rs) => {
                let mut r = 0u64;
                for run in rs {
                    if v <= run.start {
                        break;
                    }
                    if v > run.end() {
                        r += run.cardinality();
                    } else {
                        r += u64::from(v - run.start);
                        break;
                    }
                }
                r
            }
        }
    }

    /// The `i`-th smallest set value (0-based). `i` must be `< self.len()`.
    pub fn select(&self, i: u64) -> u16 {
        match self {
            Container::Array(a) => a[usize::try_from(i).expect("index fits")],
            Container::Words(w) => {
                let mut remaining = i;
                for (wi, word) in w.bits.iter().enumerate() {
                    let ones = u64::from(word.count_ones());
                    if remaining < ones {
                        return (wi as u16) << 6 | select_in_word(*word, remaining as u32);
                    }
                    remaining -= ones;
                }
                unreachable!("select index out of range")
            }
            Container::Runs(rs) => {
                let mut remaining = i;
                for run in rs {
                    if remaining < run.cardinality() {
                        return run.start + u16::try_from(remaining).expect("run offset fits u16");
                    }
                    remaining -= run.cardinality();
                }
                unreachable!("select index out of range")
            }
        }
    }

    pub fn min(&self) -> Option<u16> {
        match self {
            Container::Array(a) => a.first().copied(),
            Container::Words(w) => w
                .bits
                .iter()
                .enumerate()
                .find(|(_, x)| **x != 0)
                .map(|(i, x)| (i as u16) << 6 | x.trailing_zeros() as u16),
            Container::Runs(rs) => rs.first().map(|r| r.start),
        }
    }

    pub fn max(&self) -> Option<u16> {
        match self {
            Container::Array(a) => a.last().copied(),
            Container::Words(w) => w
                .bits
                .iter()
                .enumerate()
                .rev()
                .find(|(_, x)| **x != 0)
                .map(|(i, x)| (i as u16) << 6 | (63 - x.leading_zeros()) as u16),
            Container::Runs(rs) => rs.last().map(|r| r.end()),
        }
    }

    /// Normalizes words form down to array form when it is small enough.
    pub fn shrink(&mut self) {
        if let Container::Words(w) = self {
            w.debug_check_card();
            if usize::try_from(w.card).expect("card fits usize") <= ARRAY_MAX {
                *self = Container::Array(array_from_words(w));
            }
        }
    }

    /// Picks the globally smallest representation (enables run form).
    pub fn optimize(&mut self) {
        let runs = self.count_runs();
        let card = self.len();
        let run_bytes = 4 + runs * 4;
        let array_bytes = 8 + card * 2;
        let words_bytes = (WORDS * 8) as u64;
        if run_bytes < array_bytes.min(words_bytes) {
            *self = Container::Runs(self.to_runs());
        } else if card <= ARRAY_MAX as u64 {
            if let Container::Words(w) = self {
                *self = Container::Array(array_from_words(w));
            } else if matches!(self, Container::Runs(_)) {
                *self = Container::Array(self.to_array());
            }
        } else if !matches!(self, Container::Words(_)) {
            *self = Container::Words(self.to_words());
        }
    }

    fn count_runs(&self) -> u64 {
        match self {
            Container::Runs(rs) => rs.len() as u64,
            Container::Array(a) => {
                let mut runs = 0u64;
                let mut prev: Option<u16> = None;
                for &v in a {
                    if prev != v.checked_sub(1) {
                        runs += 1;
                    }
                    prev = Some(v);
                }
                runs
            }
            Container::Words(w) => {
                // Count 0→1 transitions across the bit array.
                let mut runs = 0u64;
                let mut carry = 0u64; // last bit of previous word
                for &word in &w.bits {
                    let starts = word & !((word << 1) | carry);
                    runs += u64::from(starts.count_ones());
                    carry = word >> 63;
                }
                runs
            }
        }
    }

    pub fn to_array(&self) -> Vec<u16> {
        match self {
            Container::Array(a) => a.clone(),
            Container::Words(w) => array_from_words(w),
            Container::Runs(rs) => {
                let mut out = Vec::with_capacity(
                    usize::try_from(self.len()).expect("container cardinality fits usize"),
                );
                for r in rs {
                    out.extend(u32::from(r.start)..=u32::from(r.end()));
                }
                out.into_iter()
                    .map(|v| u16::try_from(v).expect("chunk value fits u16"))
                    .collect()
            }
        }
    }

    pub fn to_words(&self) -> Box<Words> {
        match self {
            Container::Array(a) => words_from_array(a),
            Container::Words(w) => w.clone(),
            Container::Runs(rs) => words_from_runs(rs),
        }
    }

    pub fn to_runs(&self) -> Vec<Run> {
        match self {
            Container::Runs(rs) => rs.clone(),
            _ => {
                let mut runs: Vec<Run> = Vec::new();
                for v in self.to_array() {
                    match runs.last_mut() {
                        Some(last) if last.end() + 1 == v => last.len += 1,
                        _ => runs.push(Run { start: v, len: 0 }),
                    }
                }
                runs
            }
        }
    }

    /// Bytes this container occupies in memory (heap payload only).
    pub fn size_in_bytes(&self) -> usize {
        match self {
            Container::Array(a) => a.len() * 2,
            Container::Words(_) => WORDS * 8 + 4,
            Container::Runs(rs) => rs.len() * 4,
        }
    }
}

#[inline]
fn select_in_word(mut word: u64, mut rank: u32) -> u16 {
    // Simple loop; containers call this rarely (select is not on hot paths).
    let mut pos = 0u16;
    loop {
        let tz = word.trailing_zeros() as u16;
        pos += tz;
        word >>= tz;
        if rank == 0 {
            return pos;
        }
        rank -= 1;
        word >>= 1;
        pos += 1;
    }
}

pub(crate) fn words_from_array(a: &[u16]) -> Box<Words> {
    let mut w = self::Words::empty();
    mark(&mut w.bits, a);
    w.card = u32::try_from(a.len()).expect("array container length fits u32");
    w
}

pub(crate) fn words_from_runs(rs: &[Run]) -> Box<Words> {
    let mut w = self::Words::empty();
    for r in rs {
        set_word_range(&mut w.bits, r.start, r.end());
        w.card += u32::try_from(r.cardinality()).expect("run cardinality fits u32");
    }
    w
}

/// Sets bits `from..=to` in a 1024-word bit array.
fn set_word_range(bits: &mut [u64; WORDS], from: u16, to: u16) {
    let (fw, fb) = (usize::from(from >> 6), from & 63);
    let (tw, tb) = (usize::from(to >> 6), to & 63);
    let first_mask = !0u64 << fb;
    let last_mask = !0u64 >> (63 - tb);
    if fw == tw {
        bits[fw] |= first_mask & last_mask;
    } else {
        bits[fw] |= first_mask;
        for w in &mut bits[fw + 1..tw] {
            *w = !0;
        }
        bits[tw] |= last_mask;
    }
}

pub(crate) fn array_from_words(w: &Words) -> Vec<u16> {
    let mut out = Vec::with_capacity(usize::try_from(w.card).expect("card fits usize"));
    for (wi, &word) in w.bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            let tz = word.trailing_zeros();
            out.push((wi as u16) << 6 | tz as u16);
            word &= word - 1;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Binary operations between containers.
// ---------------------------------------------------------------------------

impl Container {
    /// Intersection: a copy of one operand, intersected in place with the
    /// other. Returns `None` when the result is empty.
    pub fn and(&self, other: &Container) -> Option<Container> {
        use Container::*;
        // ∩ commutes, so copy the cheaper side: array, then runs, then words;
        // of two arrays the shorter, which the result fits in.
        let (copy, rest) = match (self, other) {
            (Words(_), Array(_) | Runs(_)) | (Runs(_), Array(_)) => (other, self),
            (Array(a), Array(b)) if b.len() < a.len() => (other, self),
            _ => (self, other),
        };
        let mut out = copy.clone();
        out.and_inplace(rest);
        (!out.is_empty()).then_some(out)
    }

    /// Cardinality of the intersection without materializing it.
    pub fn and_len(&self, other: &Container) -> u64 {
        use Container::*;
        match (self, other) {
            (Words(a), Words(b)) => kernels::and_card(&a.bits, &b.bits),
            (Array(a), Words(w)) | (Words(w), Array(a)) => count_in_bits(a, &w.bits),
            (Array(a), Array(b)) => count_in_array(a, b),
            (Runs(a), Runs(b)) => intersect_runs(a, b).iter().map(|r| r.cardinality()).sum(),
            (Runs(rs), other) | (other, Runs(rs)) => {
                Container::Runs(rs.clone()).densify().and_len(other)
            }
        }
    }

    /// Union. The result is never empty (both inputs are non-empty).
    pub fn or(&self, other: &Container) -> Container {
        use Container::*;
        let mut out = match (self, other) {
            (Array(a), Array(b)) => {
                if a.len() + b.len() <= ARRAY_MAX {
                    Array(union_arrays(a, b))
                } else {
                    let mut w = words_from_array(a);
                    for &v in b {
                        w.insert(v);
                    }
                    Words(w)
                }
            }
            (Array(a), Words(w)) | (Words(w), Array(a)) => {
                let mut w = w.clone();
                for &v in a {
                    w.insert(v);
                }
                Words(w)
            }
            (Words(a), Words(b)) => {
                let mut w = a.clone();
                w.card = u32::try_from(kernels::or_words(&mut w.bits, &b.bits))
                    .expect("container card fits u32");
                Words(w)
            }
            (Runs(a), Runs(b)) => Runs(union_runs(a, b)),
            (Runs(rs), other) | (other, Runs(rs)) => {
                return Container::Runs(rs.clone()).densify().or(other);
            }
        };
        out.shrink();
        out
    }

    /// Difference `self \ other`: a copy of `self` with `other` removed in
    /// place. Returns `None` when empty.
    pub fn and_not(&self, other: &Container) -> Option<Container> {
        let mut out = self.clone();
        out.and_not_inplace(other);
        (!out.is_empty()).then_some(out)
    }

    /// Symmetric difference. Returns `None` when empty.
    pub fn xor(&self, other: &Container) -> Option<Container> {
        use Container::*;
        let mut out = match (self, other) {
            (Array(a), Array(b)) => {
                let sym = symmetric_difference_arrays(a, b);
                if sym.len() <= ARRAY_MAX {
                    Array(sym)
                } else {
                    let mut w = self::Words::empty();
                    for v in sym {
                        w.insert(v);
                    }
                    Words(w)
                }
            }
            (Array(a), Words(w)) | (Words(w), Array(a)) => {
                let mut w = w.clone();
                for &v in a {
                    if !w.remove(v) {
                        w.insert(v);
                    }
                }
                Words(w)
            }
            (Words(a), Words(b)) => {
                let mut w = a.clone();
                w.card = u32::try_from(kernels::xor_words(&mut w.bits, &b.bits))
                    .expect("container card fits u32");
                Words(w)
            }
            (Runs(rs), other) | (other, Runs(rs)) => {
                return Container::Runs(rs.clone()).densify().xor(other);
            }
        };
        out.shrink();
        (!out.is_empty()).then_some(out)
    }

    /// True iff every value of `self` is in `other`.
    pub fn is_subset(&self, other: &Container) -> bool {
        self.and_len(other) == self.len()
    }

    /// Converts run form to array or words (whichever fits); other forms are
    /// returned unchanged.
    fn densify(self) -> Container {
        match self {
            Container::Runs(rs) => {
                let card: u64 = rs.iter().map(|r| r.cardinality()).sum();
                if card <= ARRAY_MAX as u64 {
                    Container::Array(Container::Runs(rs).to_array())
                } else {
                    Container::Words(words_from_runs(&rs))
                }
            }
            other => other,
        }
    }

    /// Replaces run form with array/words form without going through a clone.
    fn densify_in_place(&mut self) {
        if matches!(self, Container::Runs(_)) {
            let this = std::mem::replace(self, Container::Array(Vec::new()));
            *self = this.densify();
        }
    }
}

// ---------------------------------------------------------------------------
// In-place (destructive) kernels: `*self op= other` without allocating a
// fresh result container. These carry repeated ANDs of query evaluation.
// ---------------------------------------------------------------------------

impl Container {
    /// In-place intersection: `*self &= other`. May leave `self` empty;
    /// the caller drops empty containers.
    pub fn and_inplace(&mut self, other: &Container) {
        use Container::*;
        if let Runs(_) = self {
            match other {
                Runs(b) => {
                    let Runs(a) = &*self else { unreachable!() };
                    *self = Runs(intersect_runs(a, b));
                    self.shrink();
                    return;
                }
                _ => self.densify_in_place(),
            }
        }
        match (&mut *self, other) {
            (Array(a), Array(b)) => retain_in_array(a, b, Keep::Hits),
            (Array(a), Words(w)) => retain_in_bits(a, &w.bits, Keep::Hits),
            (Array(a), Runs(rs)) => {
                let mut ri = 0;
                a.retain(|&v| {
                    while ri < rs.len() && rs[ri].end() < v {
                        ri += 1;
                    }
                    ri < rs.len() && rs[ri].start <= v
                });
            }
            (Words(w), Array(b)) => {
                // The result has at most `b.len() <= ARRAY_MAX` values, so it
                // lands in array form anyway; filter a copy of `b`.
                let mut kept = b.clone();
                retain_in_bits(&mut kept, &w.bits, Keep::Hits);
                *self = Array(kept);
            }
            (Words(a), Words(b)) => {
                a.card = u32::try_from(kernels::and_words(&mut a.bits, &b.bits))
                    .expect("container card fits u32");
            }
            (Words(w), Runs(rs)) => {
                let mut masks = RunMasks::new(rs);
                let mut card = 0u32;
                for i in 0..WORDS {
                    let nw = w.bits[i] & masks.mask(i);
                    w.bits[i] = nw;
                    card += nw.count_ones();
                }
                w.card = card;
            }
            (Runs(_), _) => unreachable!("runs densified above"),
        }
        self.shrink();
    }

    /// In-place difference: `*self &= !other`. May leave `self` empty.
    pub fn and_not_inplace(&mut self, other: &Container) {
        use Container::*;
        self.densify_in_place();
        match (&mut *self, other) {
            (Array(a), Array(b)) => retain_in_array(a, b, Keep::Misses),
            (Array(a), Words(w)) => retain_in_bits(a, &w.bits, Keep::Misses),
            (Array(a), Runs(rs)) => {
                let mut ri = 0;
                a.retain(|&v| {
                    while ri < rs.len() && rs[ri].end() < v {
                        ri += 1;
                    }
                    !(ri < rs.len() && rs[ri].start <= v)
                });
            }
            (Words(w), Array(b)) => {
                for &v in b {
                    w.remove(v);
                }
            }
            (Words(a), Words(b)) => {
                a.card = u32::try_from(kernels::andnot_words(&mut a.bits, &b.bits))
                    .expect("container card fits u32");
            }
            (Words(w), Runs(rs)) => {
                let mut masks = RunMasks::new(rs);
                let mut card = 0u32;
                for i in 0..WORDS {
                    let nw = w.bits[i] & !masks.mask(i);
                    w.bits[i] = nw;
                    card += nw.count_ones();
                }
                w.card = card;
            }
            (Runs(_), _) => unreachable!("runs densified above"),
        }
        self.shrink();
    }

    /// In-place union: `*self |= other`. Never leaves `self` empty.
    pub fn or_inplace(&mut self, other: &Container) {
        use Container::*;
        match (&mut *self, other) {
            (Array(a), Array(b)) => {
                if a.len() + b.len() <= ARRAY_MAX {
                    *a = union_arrays(a, b);
                } else {
                    let mut w = words_from_array(a);
                    for &v in b {
                        w.insert(v);
                    }
                    *self = Words(w);
                    self.shrink();
                }
            }
            (Array(a), Words(wb)) => {
                let mut w = words_from_array(a);
                w.card = u32::try_from(kernels::or_words(&mut w.bits, &wb.bits))
                    .expect("container card fits u32");
                *self = Words(w);
            }
            (Words(w), Array(b)) => {
                for &v in b {
                    w.insert(v);
                }
            }
            (Words(a), Words(b)) => {
                a.card = u32::try_from(kernels::or_words(&mut a.bits, &b.bits))
                    .expect("container card fits u32");
            }
            (Words(w), Runs(rs)) => {
                let mut masks = RunMasks::new(rs);
                for i in 0..WORDS {
                    let m = masks.mask(i);
                    w.card += (m & !w.bits[i]).count_ones();
                    w.bits[i] |= m;
                }
            }
            (Runs(a), Runs(b)) => *a = union_runs(a, b),
            // Rare mixed run/array unions: fall back to the allocating path.
            (Array(_) | Runs(_), _) => *self = self.or(other),
        }
    }
}

/// Streams the 64-bit masks of a run list, one word at a time. Each call to
/// `mask(i)` must use a non-decreasing word index.
struct RunMasks<'a> {
    rs: &'a [Run],
    ri: usize,
}

impl<'a> RunMasks<'a> {
    fn new(rs: &'a [Run]) -> Self {
        RunMasks { rs, ri: 0 }
    }

    /// Mask of the runs' bits falling in word `wi` (values `wi*64..wi*64+63`).
    #[inline]
    fn mask(&mut self, wi: usize) -> u64 {
        let lo = (wi as u16) << 6;
        let hi = lo | 63;
        while self.ri < self.rs.len() && self.rs[self.ri].end() < lo {
            self.ri += 1;
        }
        let mut mask = 0u64;
        let mut j = self.ri;
        while j < self.rs.len() && self.rs[j].start <= hi {
            let s = u32::from(self.rs[j].start.max(lo) - lo);
            let e = u32::from(self.rs[j].end().min(hi) - lo);
            mask |= (!0u64 << s) & (!0u64 >> (63 - e));
            if self.rs[j].end() > hi {
                break;
            }
            j += 1;
        }
        mask
    }
}

// ---------------------------------------------------------------------------
// Array filters. Every ∩ and ∖ with an array on the left, and every count of
// an array's intersection, ends in one of two kernels: an array against a
// bitset, or an array against a much longer array.
// ---------------------------------------------------------------------------

/// What a filter keeps of the array it compacts.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Keep {
    /// Values the other operand holds (∩).
    Hits,
    /// Values the other operand lacks (∖).
    Misses,
}

/// Bit `v` of a chunk bitset, as 0 or 1.
#[inline]
fn bit(bits: &[u64; WORDS], v: u16) -> u64 {
    bits[usize::from(v >> 6)] >> (v & 63) & 1
}

/// Sets the bits of sorted `a`'s values in a zeroed bitset. The word being
/// filled is carried in a register and stored whole after every value, so
/// neighbouring values in one word do not wait on each other's store.
fn mark(bits: &mut [u64; WORDS], a: &[u16]) {
    let (mut cur, mut word) = (0, 0u64);
    for &v in a {
        let i = usize::from(v >> 6);
        word = if i == cur { word } else { 0 } | 1 << (v & 63);
        bits[i] = word;
        cur = i;
    }
}

/// An array against a bitset: compacts `a` to the values whose bit is set
/// (`Keep::Hits`) or clear (`Keep::Misses`). Every value is written at the
/// cursor, which then advances by the kept bit, so no branch depends on the
/// data and random ids cost what strided ones do.
fn retain_in_bits(a: &mut Vec<u16>, bits: &[u64; WORDS], keep: Keep) {
    let flip = u64::from(keep == Keep::Misses);
    let mut w = 0;
    for i in 0..a.len() {
        let v = a[i];
        a[w] = v;
        w += (bit(bits, v) ^ flip) as usize;
    }
    a.truncate(w);
}

/// How many of `a`'s values have their bit set.
fn count_in_bits(a: &[u16], bits: &[u64; WORDS]) -> u64 {
    a.iter().map(|&v| bit(bits, v)).sum()
}

/// Array × Array cost rule, in units of one array element visited: a
/// gallop costs about `GALLOP_COST` per value of the short side (a search
/// of a few probes with unpredictable branches), mark-and-probe one per
/// value of either side plus `ZEROING_COST` to clear its stack bitset.
fn gallop_pays(short: usize, long: usize) -> bool {
    short * GALLOP_COST <= short + long + ZEROING_COST
}

/// Cost of one galloping search, in elements visited by mark-and-probe.
const GALLOP_COST: usize = 32;

/// Cost of zeroing the 1024-word bitset, in elements visited.
const ZEROING_COST: usize = 64;

/// ∩ or ∖ of two arrays, in place on `a`. Gallops where [`gallop_pays`];
/// otherwise marks `b` in a stack bitset and filters `a` against it. ∖ only
/// gallops with `a` as the short side: with `a` long it must be rewritten
/// whole anyway, which the probe does in one pass.
fn retain_in_array(a: &mut Vec<u16>, b: &[u16], keep: Keep) {
    let gallop = match keep {
        Keep::Hits => gallop_pays(a.len().min(b.len()), a.len().max(b.len())),
        Keep::Misses => a.len() <= b.len() && gallop_pays(a.len(), b.len()),
    };
    if gallop {
        gallop_retain(a, b, keep);
    } else {
        let mut bits = [0; WORDS];
        mark(&mut bits, b);
        retain_in_bits(a, &bits, keep);
    }
}

/// Size of `a ∩ b` under the same rule, without building it.
fn count_in_array(a: &[u16], b: &[u16]) -> u64 {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if gallop_pays(short.len(), long.len()) {
        let mut lo = 0;
        short
            .iter()
            .filter(|&&v| {
                let (p, found) = gallop(&long[lo..], v);
                lo += p;
                found
            })
            .count() as u64
    } else {
        let mut bits = [0; WORDS];
        mark(&mut bits, short);
        count_in_bits(long, &bits)
    }
}

/// Galloping search in sorted `s` for `v`: returns the index of the first
/// element `>= v` and whether that element equals `v`. O(log d) where `d`
/// is the distance from the front, so repeated searches with ascending `v`
/// over a suffix stay cheap. The bounded window left by the exponential
/// phase is resolved by the dispatched probe kernel (bisection down to a
/// short window, then a 16-lane scan on the simd path).
#[inline]
fn gallop(s: &[u16], v: u16) -> (usize, bool) {
    if s.is_empty() {
        return (0, false);
    }
    let mut hi = 1usize;
    while hi < s.len() && s[hi] < v {
        hi <<= 1;
    }
    let lo = hi >> 1;
    let hi = (hi + 1).min(s.len());
    let p = lo + kernels::find_first_geq_u16(&s[lo..hi], v);
    (p, p < s.len() && s[p] == v)
}

/// An array against a much longer array, in place on `a`: each value of
/// the short side gallops forward through the long side from where the
/// previous search stopped.
fn gallop_retain(a: &mut Vec<u16>, b: &[u16], keep: Keep) {
    let (mut w, mut lo) = (0, 0);
    if keep == Keep::Hits && a.len() > b.len() {
        // The result lies within `b`: search `a` for each of `b`'s values
        // and write the hits over the prefix of `a` already searched.
        for &v in b {
            let (p, found) = gallop(&a[lo..], v);
            lo += p;
            if found {
                a[w] = v;
                w += 1;
                lo += 1;
            }
        }
    } else {
        for i in 0..a.len() {
            let v = a[i];
            let (p, found) = gallop(&b[lo..], v);
            lo += p;
            a[w] = v;
            w += usize::from(found == (keep == Keep::Hits));
        }
    }
    a.truncate(w);
}

fn union_arrays(a: &[u16], b: &[u16]) -> Vec<u16> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::with_capacity(a.len() + b.len());
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

fn symmetric_difference_arrays(a: &[u16], b: &[u16]) -> Vec<u16> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::with_capacity(a.len() + b.len());
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

fn intersect_runs(a: &[Run], b: &[Run]) -> Vec<Run> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        let lo = a[i].start.max(b[j].start);
        let hi = a[i].end().min(b[j].end());
        if lo <= hi {
            out.push(Run {
                start: lo,
                len: hi - lo,
            });
        }
        if a[i].end() < b[j].end() {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

fn union_runs(a: &[Run], b: &[Run]) -> Vec<Run> {
    let (mut i, mut j) = (0, 0);
    let mut out: Vec<Run> = Vec::new();
    let push = |r: Run, out: &mut Vec<Run>| match out.last_mut() {
        // Merge overlapping or adjacent runs.
        Some(last) if u32::from(r.start) <= u32::from(last.end()) + 1 => {
            if r.end() > last.end() {
                last.len = r.end() - last.start;
            }
        }
        _ => out.push(r),
    };
    while i < a.len() || j < b.len() {
        let take_a = j == b.len() || (i < a.len() && a[i].start <= b[j].start);
        if take_a {
            push(a[i], &mut out);
            i += 1;
        } else {
            push(b[j], &mut out);
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array(vals: &[u16]) -> Container {
        Container::Array(vals.to_vec())
    }

    #[test]
    fn insert_promotes_array_to_words() {
        let mut c = Container::Array((0..ARRAY_MAX as u16).map(|v| v * 2).collect());
        assert!(matches!(c, Container::Array(_)));
        assert!(c.insert(1));
        assert!(matches!(c, Container::Words(_)));
        assert_eq!(c.len(), ARRAY_MAX as u64 + 1);
        assert!(c.contains(1));
        assert!(c.contains(0));
        assert!(!c.contains(3));
    }

    #[test]
    fn remove_demotes_words_to_array() {
        let mut c = Container::Array((0..=(ARRAY_MAX as u16)).collect());
        c = Container::Words(c.to_words());
        assert!(c.remove(7));
        assert!(matches!(c, Container::Array(_)));
        assert!(!c.contains(7));
        assert_eq!(c.len(), ARRAY_MAX as u64);
    }

    #[test]
    fn run_sequential_insert_extends_last_run() {
        let mut c = Container::Runs(vec![Run { start: 0, len: 9 }]);
        assert!(c.insert(10));
        match &c {
            Container::Runs(rs) => assert_eq!(rs, &vec![Run { start: 0, len: 10 }]),
            _ => panic!("expected runs"),
        }
        assert!(!c.insert(5));
    }

    #[test]
    fn run_non_sequential_insert_converts() {
        let mut c = Container::Runs(vec![Run { start: 10, len: 9 }]);
        assert!(c.insert(3));
        assert!(c.contains(3));
        assert!(c.contains(15));
        assert_eq!(c.len(), 11);
    }

    #[test]
    fn rank_and_select_agree_across_forms() {
        let vals: Vec<u16> = (0..300).map(|v| v * 7).collect();
        let forms = [
            array(&vals),
            Container::Words(words_from_array(&vals)),
            Container::Runs(array(&vals).to_runs()),
        ];
        for c in &forms {
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(c.rank(v), i as u64);
                assert_eq!(c.select(i as u64), v);
            }
            assert_eq!(c.rank(vals.last().unwrap() + 1), vals.len() as u64);
        }
    }

    #[test]
    fn and_across_all_form_pairs() {
        let a_vals: Vec<u16> = (0..2000).map(|v| v * 3).collect();
        let b_vals: Vec<u16> = (0..3000).map(|v| v * 2).collect();
        let expect: Vec<u16> = a_vals.iter().copied().filter(|v| v % 6 == 0).collect();
        let a_forms = [
            array(&a_vals),
            Container::Words(words_from_array(&a_vals)),
            Container::Runs(array(&a_vals).to_runs()),
        ];
        let b_forms = [
            array(&b_vals),
            Container::Words(words_from_array(&b_vals)),
            Container::Runs(array(&b_vals).to_runs()),
        ];
        for a in &a_forms {
            for b in &b_forms {
                let r = a.and(b).expect("non-empty");
                assert_eq!(r.to_array(), expect);
                assert_eq!(a.and_len(b), expect.len() as u64);
            }
        }
    }

    #[test]
    fn or_merges_and_coalesces_runs() {
        let a = Container::Runs(vec![Run { start: 0, len: 4 }, Run { start: 10, len: 0 }]);
        let b = Container::Runs(vec![Run { start: 5, len: 4 }]);
        let r = a.or(&b);
        assert_eq!(r.to_runs(), vec![Run { start: 0, len: 10 }]);
    }

    #[test]
    fn and_not_and_xor_match_set_semantics() {
        use std::collections::BTreeSet;
        let a_vals: Vec<u16> = (0..500).map(|v| v * 5).collect();
        let b_vals: Vec<u16> = (0..500).map(|v| v * 3).collect();
        let sa: BTreeSet<u16> = a_vals.iter().copied().collect();
        let sb: BTreeSet<u16> = b_vals.iter().copied().collect();
        let a = array(&a_vals);
        let b = array(&b_vals);
        let diff: Vec<u16> = sa.difference(&sb).copied().collect();
        let sym: Vec<u16> = sa.symmetric_difference(&sb).copied().collect();
        assert_eq!(a.and_not(&b).unwrap().to_array(), diff);
        assert_eq!(a.xor(&b).unwrap().to_array(), sym);
    }

    #[test]
    fn optimize_picks_runs_for_contiguous_data() {
        let mut c = array(&(100..5000).collect::<Vec<u16>>());
        c = Container::Words(c.to_words());
        c.optimize();
        assert!(matches!(c, Container::Runs(_)));
        assert_eq!(c.len(), 4900);
        assert!(c.contains(100));
        assert!(c.contains(4999));
        assert!(!c.contains(99));
    }

    #[test]
    fn optimize_prefers_array_for_scattered_data() {
        let vals: Vec<u16> = (0..100).map(|v| v * 601).collect();
        let mut c = Container::Words(words_from_array(&vals));
        c.optimize();
        assert!(matches!(c, Container::Array(_)));
    }

    #[test]
    fn min_max_across_forms() {
        let vals: Vec<u16> = vec![3, 77, 1024, 40000];
        for c in [
            array(&vals),
            Container::Words(words_from_array(&vals)),
            Container::Runs(array(&vals).to_runs()),
        ] {
            assert_eq!(c.min(), Some(3));
            assert_eq!(c.max(), Some(40000));
        }
    }

    #[test]
    fn full_chunk_run_round_trips() {
        let c = Container::Runs(vec![Run {
            start: 0,
            len: u16::MAX,
        }]);
        assert_eq!(c.len(), 65536);
        let w = c.to_words();
        assert_eq!(w.card, 65536);
        assert!(c.contains(0));
        assert!(c.contains(u16::MAX));
    }

    #[test]
    fn gallop_switch_is_where_the_crossover_tests_put_it() {
        // `tests/prop.rs` builds array pairs one below, at and one above
        // this switch; retuning the rule means moving it there too.
        for short in 3..=134 {
            let switch = 31 * short - 64;
            assert!(!gallop_pays(short, switch - 1), "{short}");
            assert!(gallop_pays(short, switch), "{short}");
        }
    }

    #[test]
    fn gallop_and_probe_agree_both_ways() {
        // Random lows: an odd multiplier permutes the chunk.
        let lows = |n: u32, from: u32| -> Vec<u16> {
            let set: std::collections::BTreeSet<u16> = (from..from + n)
                .map(|i| (i.wrapping_mul(40_503) & 0xFFFF) as u16)
                .collect();
            set.into_iter().collect()
        };
        let long = lows(3_000, 0);
        for short in [lows(1, 7), lows(40, 2_990), lows(3_000, 1_500), Vec::new()] {
            for (a, b) in [(&short, &long), (&long, &short)] {
                for keep in [Keep::Hits, Keep::Misses] {
                    let mut galloped = a.clone();
                    gallop_retain(&mut galloped, b, keep);
                    let mut probed = a.clone();
                    let mut bits = [0; WORDS];
                    mark(&mut bits, b);
                    retain_in_bits(&mut probed, &bits, keep);
                    assert_eq!(galloped, probed);
                    let expect: Vec<u16> = a
                        .iter()
                        .copied()
                        .filter(|v| b.binary_search(v).is_ok() == (keep == Keep::Hits))
                        .collect();
                    assert_eq!(probed, expect);
                }
            }
        }
    }

    #[test]
    fn subset_detection() {
        let small = array(&[2, 4, 6]);
        let big = array(&(0..100).collect::<Vec<u16>>());
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
    }
}
