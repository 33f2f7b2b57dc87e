//! Runtime-dispatched compute kernels: the data-parallel layer under every
//! hot loop of the bitmap and column-store crates.
//!
//! Every kernel exists in two implementations that produce **bit-identical
//! results**:
//!
//! * **scalar** — portable Rust, one element at a time, compiled for the
//!   baseline target. This is the reference semantics.
//! * **simd** — explicit AVX2 `std::arch` intrinsics behind
//!   `#[target_feature]`-gated `unsafe fn`s, selected only after
//!   `is_x86_feature_detected!("avx2")` confirms the hardware supports
//!   them. On non-x86 targets (or pre-AVX2 CPUs) the simd path degrades to
//!   the scalar implementation, so forcing `simd` is always safe.
//!
//! # Dispatch
//!
//! The active path is resolved by [`active`] from three sources, highest
//! priority first:
//!
//! 1. a process-wide programmatic override installed with [`force`]
//!    (used by the differential oracle and the bench harness),
//! 2. the `GRAPHBI_KERNELS` environment variable (`scalar`, `simd` or
//!    `auto`, read once per process),
//! 3. CPU feature detection (`auto`): AVX2 present → simd, else scalar.
//!
//! Each public kernel also has a `*_path` variant taking an explicit
//! [`KernelPath`], so tests can compare both implementations side by side
//! without mutating process-global state from parallel test threads.
//!
//! # Float-order contract
//!
//! [`fold_f64`] defines the one floating-point summation order used by
//! every aggregation that goes through it, on **both** paths: four
//! accumulator lanes, lane `j` folding elements `j, j+4, j+8, …` in
//! sequence, combined at the end as `(l0 + l1) + (l2 + l3)`. Min/max lanes
//! follow the AVX2 `vminpd`/`vmaxpd` rule `if acc < v { acc } else { v }`
//! (respectively `>`), which also fixes NaN propagation: a NaN input
//! poisons its lane from the point it appears. The scalar implementation
//! applies the identical per-lane recurrence, so mem ≡ disk ≡ sharded
//! answers stay bit-identical whichever path served them.
//!
//! One caveat bounds that promise: when *arithmetic itself* produces a NaN
//! (`∞ + −∞` in a sum lane, or a NaN input flowing through `+`), Rust
//! leaves the resulting NaN's payload and sign bits unspecified — LLVM may
//! canonicalize them differently per path and per optimization level. So
//! sums are bit-identical whenever finite (and same-NaN-ness is always
//! identical), while min/max — which only *select* input values, never
//! create new ones — are bit-exact unconditionally.
//!
//! # Safety argument
//!
//! All `unsafe` here is of one shape: calling a `#[target_feature(enable =
//! "avx2")]` function. Such a call is sound iff the CPU supports AVX2,
//! and every call site is dominated by a [`simd_available`] check that
//! performs the runtime detection. The intrinsic bodies themselves use
//! unaligned loads/stores (`loadu`/`storeu`) over ranges bounds-checked in
//! safe code before the call, so no further invariants are required.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which kernel implementation family to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// Portable one-element-at-a-time Rust (the reference semantics).
    Scalar,
    /// AVX2 intrinsics where the hardware allows; falls back to scalar
    /// per-call when it does not.
    Simd,
}

impl KernelPath {
    /// Stable lowercase name (`"scalar"` / `"simd"`), as used by the
    /// `GRAPHBI_KERNELS` environment variable and observability surfaces.
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Simd => "simd",
        }
    }
}

/// Programmatic override: 0 = none, 1 = scalar, 2 = simd.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// `GRAPHBI_KERNELS` parse result, read once per process. `None` = auto.
static ENV_CHOICE: OnceLock<Option<KernelPath>> = OnceLock::new();

fn env_choice() -> Option<KernelPath> {
    *ENV_CHOICE.get_or_init(|| match std::env::var("GRAPHBI_KERNELS") {
        Ok(v) if v.eq_ignore_ascii_case("scalar") => Some(KernelPath::Scalar),
        Ok(v) if v.eq_ignore_ascii_case("simd") => Some(KernelPath::Simd),
        // "auto", unset, or anything unrecognized: hardware decides.
        _ => None,
    })
}

/// True when the running CPU supports the AVX2 kernels.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Installs (or with `None` removes) a process-wide path override, taking
/// precedence over `GRAPHBI_KERNELS`. Intended for single-threaded
/// harnesses — the bench binary and the forced-path oracle test; parallel
/// test code should use the `*_path` kernel variants instead.
pub fn force(path: Option<KernelPath>) {
    let v = match path {
        None => 0,
        Some(KernelPath::Scalar) => 1,
        Some(KernelPath::Simd) => 2,
    };
    FORCED.store(v, Ordering::Relaxed);
}

/// The path the dispatched kernels will run right now. A requested `simd`
/// without AVX2 hardware resolves to [`KernelPath::Scalar`]: the answer is
/// identical either way, so "forced simd" stays meaningful in CI on any
/// machine.
pub fn active() -> KernelPath {
    let want = match FORCED.load(Ordering::Relaxed) {
        1 => Some(KernelPath::Scalar),
        2 => Some(KernelPath::Simd),
        _ => env_choice(),
    };
    match want {
        Some(KernelPath::Scalar) => KernelPath::Scalar,
        Some(KernelPath::Simd) | None => {
            if simd_available() {
                KernelPath::Simd
            } else {
                KernelPath::Scalar
            }
        }
    }
}

/// Name of the currently active path (`"scalar"` / `"simd"`).
pub fn path_name() -> &'static str {
    active().name()
}

/// Comma-separated list of the vector features detected on this CPU
/// (empty on non-x86). Recorded in bench output so historical rows are
/// comparable across machines.
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats: Vec<&str> = Vec::new();
        if std::arch::is_x86_feature_detected!("sse2") {
            feats.push("sse2");
        }
        if std::arch::is_x86_feature_detected!("sse4.2") {
            feats.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("popcnt") {
            feats.push("popcnt");
        }
        if std::arch::is_x86_feature_detected!("avx") {
            feats.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("bmi2") {
            feats.push("bmi2");
        }
        feats.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::new()
    }
}

// ---------------------------------------------------------------------------
// Word kernels: bitwise ops over u64 slices with fused popcount.
// ---------------------------------------------------------------------------

macro_rules! word_kernel {
    ($(#[$doc:meta])* $name:ident, $name_path:ident, $scalar:ident, $avx2:ident) => {
        $(#[$doc])*
        ///
        /// Returns the number of set bits in the result. `a` and `b` must
        /// have equal length.
        #[inline]
        pub fn $name(a: &mut [u64], b: &[u64]) -> u64 {
            $name_path(active(), a, b)
        }

        /// Explicit-path variant of the same kernel (see [`KernelPath`]).
        #[inline]
        pub fn $name_path(path: KernelPath, a: &mut [u64], b: &[u64]) -> u64 {
            assert_eq!(a.len(), b.len(), "word kernel operand length mismatch");
            match path {
                KernelPath::Scalar => scalar::$scalar(a, b),
                KernelPath::Simd => {
                    #[cfg(target_arch = "x86_64")]
                    if simd_available() {
                        // SAFETY: AVX2 verified by `simd_available`.
                        return unsafe { x86::$avx2(a, b) };
                    }
                    scalar::$scalar(a, b)
                }
            }
        }
    };
}

word_kernel!(
    /// In-place intersection: `a[i] &= b[i]`.
    and_words, and_words_path, and_words, and_words_avx2
);
word_kernel!(
    /// In-place union: `a[i] |= b[i]`.
    or_words, or_words_path, or_words, or_words_avx2
);
word_kernel!(
    /// In-place difference: `a[i] &= !b[i]`.
    andnot_words, andnot_words_path, andnot_words, andnot_words_avx2
);
word_kernel!(
    /// In-place symmetric difference: `a[i] ^= b[i]`.
    xor_words, xor_words_path, xor_words, xor_words_avx2
);

/// Number of set bits in `a[i] & b[i]` without materializing the result.
/// `a` and `b` must have equal length.
#[inline]
pub fn and_card(a: &[u64], b: &[u64]) -> u64 {
    and_card_path(active(), a, b)
}

/// Explicit-path variant of [`and_card`].
#[inline]
pub fn and_card_path(path: KernelPath, a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "word kernel operand length mismatch");
    match path {
        KernelPath::Scalar => scalar::and_card(a, b),
        KernelPath::Simd => {
            #[cfg(target_arch = "x86_64")]
            if simd_available() {
                // SAFETY: AVX2 verified by `simd_available`.
                return unsafe { x86::and_card_avx2(a, b) };
            }
            scalar::and_card(a, b)
        }
    }
}

/// Total number of set bits across `words` — the batched `count_ones`
/// behind `recount`, `rank` and cardinality maintenance.
#[inline]
pub fn popcount(words: &[u64]) -> u64 {
    popcount_path(active(), words)
}

/// Explicit-path variant of [`popcount`].
#[inline]
pub fn popcount_path(path: KernelPath, words: &[u64]) -> u64 {
    match path {
        KernelPath::Scalar => scalar::popcount(words),
        KernelPath::Simd => {
            #[cfg(target_arch = "x86_64")]
            if simd_available() {
                // SAFETY: AVX2 verified by `simd_available`.
                return unsafe { x86::popcount_avx2(words) };
            }
            scalar::popcount(words)
        }
    }
}

/// Index of the first element of sorted `s` that is `>= v` (`s.len()` when
/// none is). The galloping-intersection probe: binary search narrows to a
/// small window, then the window is scanned 16 lanes at a time.
#[inline]
pub fn find_first_geq_u16(s: &[u16], v: u16) -> usize {
    find_first_geq_u16_path(active(), s, v)
}

/// Window below which the probe switches from bisection to a linear
/// (possibly vectorized) scan.
const PROBE_SCAN: usize = 64;

/// Explicit-path variant of [`find_first_geq_u16`].
#[inline]
pub fn find_first_geq_u16_path(path: KernelPath, s: &[u16], v: u16) -> usize {
    let (mut lo, mut hi) = (0usize, s.len());
    while hi - lo > PROBE_SCAN {
        let mid = lo + (hi - lo) / 2;
        if s[mid] < v {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let w = &s[lo..hi];
    let p = match path {
        KernelPath::Scalar => scalar::scan_geq_u16(w, v),
        KernelPath::Simd => {
            #[cfg(target_arch = "x86_64")]
            if simd_available() {
                // SAFETY: AVX2 verified by `simd_available`.
                lo += unsafe { x86::scan_geq_u16_avx2(w, v) };
                return lo;
            }
            scalar::scan_geq_u16(w, v)
        }
    };
    lo + p
}

// ---------------------------------------------------------------------------
// Float fold: the one aggregation order (see module docs).
// ---------------------------------------------------------------------------

/// Four-lane SUM/MIN/MAX/COUNT accumulator implementing the float-order
/// contract described in the module docs. Both kernel paths produce
/// bit-identical lane states for the same input sequence.
#[derive(Clone, Copy, Debug)]
pub struct FoldAgg {
    count: u64,
    sums: [f64; 4],
    mins: [f64; 4],
    maxs: [f64; 4],
}

impl Default for FoldAgg {
    fn default() -> Self {
        Self::new()
    }
}

impl FoldAgg {
    /// An empty accumulator: sums 0, mins +∞, maxs −∞.
    pub fn new() -> Self {
        FoldAgg {
            count: 0,
            sums: [0.0; 4],
            mins: [f64::INFINITY; 4],
            maxs: [f64::NEG_INFINITY; 4],
        }
    }

    /// Folds one value into lane `count % 4` — the scalar form of the
    /// contract. `min` uses `if acc < v { acc } else { v }` and `max` the
    /// `>` mirror, matching AVX2 `vminpd`/`vmaxpd` NaN semantics exactly.
    #[inline]
    pub fn push(&mut self, v: f64) {
        let l = (self.count & 3) as usize;
        self.sums[l] += v;
        self.mins[l] = if self.mins[l] < v { self.mins[l] } else { v };
        self.maxs[l] = if self.maxs[l] > v { self.maxs[l] } else { v };
        self.count += 1;
    }

    /// Number of values folded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Lane-combined sum: `(l0 + l1) + (l2 + l3)`.
    pub fn sum(&self) -> f64 {
        (self.sums[0] + self.sums[1]) + (self.sums[2] + self.sums[3])
    }

    /// Lane-combined minimum (+∞ when empty), combined pairwise with the
    /// same `<` rule the lanes use.
    pub fn min(&self) -> f64 {
        let m01 = if self.mins[0] < self.mins[1] {
            self.mins[0]
        } else {
            self.mins[1]
        };
        let m23 = if self.mins[2] < self.mins[3] {
            self.mins[2]
        } else {
            self.mins[3]
        };
        if m01 < m23 {
            m01
        } else {
            m23
        }
    }

    /// Lane-combined maximum (−∞ when empty).
    pub fn max(&self) -> f64 {
        let m01 = if self.maxs[0] > self.maxs[1] {
            self.maxs[0]
        } else {
            self.maxs[1]
        };
        let m23 = if self.maxs[2] > self.maxs[3] {
            self.maxs[2]
        } else {
            self.maxs[3]
        };
        if m01 > m23 {
            m01
        } else {
            m23
        }
    }

    /// Raw lane states `(sums, mins, maxs)`, exposed so tests can assert
    /// bit-identity lane by lane, not just on the combined results.
    pub fn lanes(&self) -> ([f64; 4], [f64; 4], [f64; 4]) {
        (self.sums, self.mins, self.maxs)
    }
}

/// Folds a contiguous value slice into a [`FoldAgg`] — the vectorizable
/// core of `SparseColumn::fold_aggregate`.
#[inline]
pub fn fold_f64(values: &[f64]) -> FoldAgg {
    fold_f64_path(active(), values)
}

/// Explicit-path variant of [`fold_f64`].
pub fn fold_f64_path(path: KernelPath, values: &[f64]) -> FoldAgg {
    match path {
        KernelPath::Scalar => scalar::fold_f64(values),
        KernelPath::Simd => {
            #[cfg(target_arch = "x86_64")]
            if simd_available() {
                // SAFETY: AVX2 verified by `simd_available`.
                return unsafe { x86::fold_f64_avx2(values) };
            }
            scalar::fold_f64(values)
        }
    }
}

// ---------------------------------------------------------------------------
// Bit-unpacking and dictionary gather: the FoR / dictionary block decoder.
// Scalar only: AVX2 gather-based versions measured 1.03–1.14× over these
// on a v3 FoR decode and a full-column dictionary fold, under the 1.10× a
// kernel has to earn to keep its `unsafe`.
// ---------------------------------------------------------------------------

/// Unpacks `out.len()` fixed-width integers from the LSB-first bit stream
/// `bytes`, the first starting at bit offset `bit_start`. Bits past the
/// end of `bytes` read as zero, matching the `BitWriter`/`PackedInts`
/// convention. `width` must be `<= 64`.
pub fn unpack_bits(bytes: &[u8], bit_start: usize, width: u32, out: &mut [u64]) {
    assert!(width <= 64, "unpack width {width} > 64");
    if width == 0 {
        out.fill(0);
        return;
    }
    let m = width_mask(width);
    let mut pos = bit_start;
    for slot in out.iter_mut() {
        let byte = pos / 8;
        let off = (pos % 8) as u32;
        // Fast path: a whole unaligned 8-byte window is available and the
        // shifted value fits in it.
        if byte + 8 <= bytes.len() && off + width <= 64 {
            let w = u64::from_le_bytes(bytes[byte..byte + 8].try_into().expect("8-byte window"));
            *slot = (w >> off) & m;
        } else {
            *slot = read_bits_portable(bytes, pos, width) & m;
        }
        pos += width as usize;
    }
}

/// Dictionary gather: `out[i] = dict[idx[i]]`. Returns `false` (leaving
/// `out` unspecified) when any index is out of range, so callers can keep
/// their corrupt-input error paths.
pub fn gather_f64(dict: &[f64], idx: &[u64], out: &mut [f64]) -> bool {
    assert_eq!(idx.len(), out.len(), "gather shape mismatch");
    for (slot, &i) in out.iter_mut().zip(idx) {
        let Some(&v) = dict.get(usize::try_from(i).unwrap_or(usize::MAX)) else {
            return false;
        };
        *slot = v;
    }
    true
}

// ---------------------------------------------------------------------------
// Scalar implementations: the reference semantics.
// ---------------------------------------------------------------------------

mod scalar {
    use super::FoldAgg;

    macro_rules! scalar_word_op {
        ($name:ident, $op:expr) => {
            pub(super) fn $name(a: &mut [u64], b: &[u64]) -> u64 {
                let op = $op;
                let mut card = 0u64;
                for (x, &y) in a.iter_mut().zip(b) {
                    let w = op(*x, y);
                    *x = w;
                    card += u64::from(w.count_ones());
                }
                card
            }
        };
    }

    scalar_word_op!(and_words, |x: u64, y: u64| x & y);
    scalar_word_op!(or_words, |x: u64, y: u64| x | y);
    scalar_word_op!(andnot_words, |x: u64, y: u64| x & !y);
    scalar_word_op!(xor_words, |x: u64, y: u64| x ^ y);

    pub(super) fn and_card(a: &[u64], b: &[u64]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| u64::from((x & y).count_ones()))
            .sum()
    }

    pub(super) fn popcount(words: &[u64]) -> u64 {
        words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    pub(super) fn scan_geq_u16(s: &[u16], v: u16) -> usize {
        s.partition_point(|&x| x < v)
    }

    pub(super) fn fold_f64(values: &[f64]) -> FoldAgg {
        let mut agg = FoldAgg::new();
        for &v in values {
            agg.push(v);
        }
        agg
    }
}

/// `width`-bit mask, `width <= 64`.
#[inline]
fn width_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Byte-at-a-time bit read used near buffer boundaries; bits past the end
/// of `bytes` read as zero (the `BitWriter` zero-pads its last byte). Kept
/// out of line so the windowed fast paths that fall back to it stay a
/// handful of instructions in the loops that inline them.
#[cold]
#[inline(never)]
pub(crate) fn read_bits_portable(bytes: &[u8], pos: usize, width: u32) -> u64 {
    if width == 0 {
        return 0;
    }
    let first = pos / 8;
    let bit = pos % 8;
    let nbytes = (bit + width as usize).div_ceil(8);
    let mut acc: u128 = 0;
    for i in 0..nbytes {
        acc |= u128::from(bytes.get(first + i).copied().unwrap_or(0)) << (8 * i);
    }
    ((acc >> bit) as u64) & width_mask(width)
}

// ---------------------------------------------------------------------------
// AVX2 implementations.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::FoldAgg;
    use std::arch::x86_64::*;

    /// Per-lane popcount of a 256-bit vector, as 4 × u64 partial sums
    /// (Mula's nibble-LUT algorithm: two `pshufb` lookups + `psadbw`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcnt256(v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    /// Horizontal sum of 4 × u64 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi64(v: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v);
        lanes.iter().sum()
    }

    macro_rules! avx2_word_op {
        ($name:ident, $vop:ident, $sop:expr) => {
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $name(a: &mut [u64], b: &[u64]) -> u64 {
                let n = a.len();
                let mut acc = _mm256_setzero_si256();
                let mut i = 0usize;
                while i + 4 <= n {
                    let av = _mm256_loadu_si256(a.as_ptr().add(i).cast());
                    let bv = _mm256_loadu_si256(b.as_ptr().add(i).cast());
                    let r = $vop(av, bv);
                    _mm256_storeu_si256(a.as_mut_ptr().add(i).cast(), r);
                    acc = _mm256_add_epi64(acc, popcnt256(r));
                    i += 4;
                }
                let mut card = hsum_epi64(acc);
                let sop = $sop;
                while i < n {
                    let w = sop(a[i], b[i]);
                    a[i] = w;
                    card += u64::from(w.count_ones());
                    i += 1;
                }
                card
            }
        };
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn vandnot(a: __m256i, b: __m256i) -> __m256i {
        // `_mm256_andnot_si256(x, y)` computes `!x & y`; we want `a & !b`.
        _mm256_andnot_si256(b, a)
    }

    avx2_word_op!(and_words_avx2, _mm256_and_si256, |x: u64, y: u64| x & y);
    avx2_word_op!(or_words_avx2, _mm256_or_si256, |x: u64, y: u64| x | y);
    avx2_word_op!(andnot_words_avx2, vandnot, |x: u64, y: u64| x & !y);
    avx2_word_op!(xor_words_avx2, _mm256_xor_si256, |x: u64, y: u64| x ^ y);

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn and_card_avx2(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let av = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let bv = _mm256_loadu_si256(b.as_ptr().add(i).cast());
            acc = _mm256_add_epi64(acc, popcnt256(_mm256_and_si256(av, bv)));
            i += 4;
        }
        let mut card = hsum_epi64(acc);
        while i < n {
            card += u64::from((a[i] & b[i]).count_ones());
            i += 1;
        }
        card
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn popcount_avx2(words: &[u64]) -> u64 {
        let n = words.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_loadu_si256(words.as_ptr().add(i).cast());
            acc = _mm256_add_epi64(acc, popcnt256(v));
            i += 4;
        }
        let mut card = hsum_epi64(acc);
        while i < n {
            card += u64::from(words[i].count_ones());
            i += 1;
        }
        card
    }

    /// Linear scan for the first element `>= v` in a short sorted window,
    /// 16 u16 lanes per step. AVX2 has no unsigned 16-bit compare, so both
    /// sides are biased by 0x8000 and compared signed.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_geq_u16_avx2(s: &[u16], v: u16) -> usize {
        let bias = _mm256_set1_epi16(i16::MIN);
        let vv = _mm256_xor_si256(_mm256_set1_epi16(v as i16), bias);
        let mut i = 0usize;
        while i + 16 <= s.len() {
            let x = _mm256_xor_si256(_mm256_loadu_si256(s.as_ptr().add(i).cast()), bias);
            // x >= v  ⇔  !(v > x)
            let lt = _mm256_cmpgt_epi16(vv, x);
            let mask = !(_mm256_movemask_epi8(lt) as u32);
            if mask != 0 {
                return i + (mask.trailing_zeros() / 2) as usize;
            }
            i += 16;
        }
        i + s[i..].partition_point(|&x| x < v)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fold_f64_avx2(values: &[f64]) -> FoldAgg {
        let mut agg = FoldAgg::new();
        let n = values.len();
        if n >= 4 {
            let mut sums = _mm256_setzero_pd();
            let mut mins = _mm256_set1_pd(f64::INFINITY);
            let mut maxs = _mm256_set1_pd(f64::NEG_INFINITY);
            let mut i = 0usize;
            while i + 4 <= n {
                let v = _mm256_loadu_pd(values.as_ptr().add(i));
                sums = _mm256_add_pd(sums, v);
                mins = _mm256_min_pd(mins, v);
                maxs = _mm256_max_pd(maxs, v);
                i += 4;
            }
            _mm256_storeu_pd(agg.sums.as_mut_ptr(), sums);
            _mm256_storeu_pd(agg.mins.as_mut_ptr(), mins);
            _mm256_storeu_pd(agg.maxs.as_mut_ptr(), maxs);
            agg.count = i as u64;
            for &v in &values[i..] {
                agg.push(v);
            }
        } else {
            for &v in values {
                agg.push(v);
            }
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_names_round_trip() {
        assert_eq!(KernelPath::Scalar.name(), "scalar");
        assert_eq!(KernelPath::Simd.name(), "simd");
        // `active` resolves to one of the two concrete paths.
        assert!(matches!(active(), KernelPath::Scalar | KernelPath::Simd));
        let _ = cpu_features();
    }

    #[test]
    fn word_ops_both_paths_agree() {
        let a0: Vec<u64> = (0..1027u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let b: Vec<u64> = (0..1027u64)
            .map(|i| (i + 7).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .collect();
        type WordFn = fn(KernelPath, &mut [u64], &[u64]) -> u64;
        let word_fns: [WordFn; 4] = [
            and_words_path,
            or_words_path,
            andnot_words_path,
            xor_words_path,
        ];
        for f in word_fns {
            let mut s = a0.clone();
            let mut v = a0.clone();
            let cs = f(KernelPath::Scalar, &mut s, &b);
            let cv = f(KernelPath::Simd, &mut v, &b);
            assert_eq!(s, v);
            assert_eq!(cs, cv);
            assert_eq!(cs, popcount_path(KernelPath::Scalar, &s));
        }
        assert_eq!(
            and_card_path(KernelPath::Scalar, &a0, &b),
            and_card_path(KernelPath::Simd, &a0, &b)
        );
        assert_eq!(
            popcount_path(KernelPath::Scalar, &a0),
            popcount_path(KernelPath::Simd, &a0)
        );
    }

    #[test]
    fn probe_matches_partition_point() {
        let s: Vec<u16> = (0..2000u16).map(|i| i * 31).collect();
        for v in [0u16, 1, 30, 31, 32, 61_969, 62_000, u16::MAX] {
            let want = s.partition_point(|&x| x < v);
            assert_eq!(find_first_geq_u16_path(KernelPath::Scalar, &s, v), want);
            assert_eq!(find_first_geq_u16_path(KernelPath::Simd, &s, v), want);
        }
    }

    #[test]
    fn fold_paths_bit_identical_with_specials() {
        let mut vals: Vec<f64> = (0..997).map(|i| (f64::from(i) - 300.0) * 0.377).collect();
        vals[13] = f64::NAN;
        vals[500] = f64::NEG_INFINITY;
        vals[900] = -0.0;
        let a = fold_f64_path(KernelPath::Scalar, &vals);
        let b = fold_f64_path(KernelPath::Simd, &vals);
        // Sum bits are compared modulo NaN payload: arithmetic-produced NaN
        // bits are unspecified in Rust (see module docs).
        let sum_eq = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        assert_eq!(a.count(), b.count());
        assert!(sum_eq(a.sum(), b.sum()));
        assert_eq!(a.min().to_bits(), b.min().to_bits());
        assert_eq!(a.max().to_bits(), b.max().to_bits());
        let (s1, m1, x1) = a.lanes();
        let (s2, m2, x2) = b.lanes();
        for l in 0..4 {
            assert!(sum_eq(s1[l], s2[l]), "sum lane {l}");
            assert_eq!(m1[l].to_bits(), m2[l].to_bits(), "min lane {l}");
            assert_eq!(x1[l].to_bits(), x2[l].to_bits(), "max lane {l}");
        }
    }

    /// Unpacking's 8-byte window path equals one portable bit read per
    /// value, at every width, at unaligned starts, and for reads running
    /// past the buffer's end. Gathering equals indexing the dictionary
    /// directly; any index out of range, wherever it sits in the block, is
    /// reported as `false`.
    #[test]
    fn unpack_and_gather_agree_across_paths() {
        let bytes: Vec<u8> = (0..203u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        for width in 0..=64u32 {
            for start in [0usize, 1, 7, 13, 64] {
                let count = (bytes.len() * 8 - start) / width.max(1) as usize + 2;
                let mut out = vec![u64::MAX; count];
                unpack_bits(&bytes, start, width, &mut out);
                for (i, &v) in out.iter().enumerate() {
                    let pos = start + i * width as usize;
                    assert_eq!(
                        v,
                        read_bits_portable(&bytes, pos, width),
                        "width {width} start {start} value {i}"
                    );
                }
            }
        }
        for width in [1u32, 3, 7, 11, 16, 24, 33, 56, 64] {
            let m = width_mask(width);
            let vals: Vec<u64> = (0..317u64)
                .map(|i| i.wrapping_mul(0x2545_f491_4f6c_dd1d) & m)
                .collect();
            let p = crate::intcodec::PackedInts::pack(&vals, width);
            let mut out = vec![0u64; vals.len()];
            unpack_bits(p.as_bytes(), 0, width, &mut out);
            assert_eq!(out, vals, "packed round trip width {width}");
        }

        let dict: Vec<f64> = (0..64).map(|i| f64::from(i) * 1.5 - 3.0).collect();
        let idx: Vec<u64> = (0..333u64).map(|i| (i * 7) % 64).collect();
        let mut out = vec![0f64; idx.len()];
        assert!(gather_f64(&dict, &idx, &mut out));
        for (&v, &i) in out.iter().zip(&idx) {
            assert_eq!(v.to_bits(), dict[i as usize].to_bits());
        }
        assert!(gather_f64(&dict, &[], &mut []));
        for bad in [64u64, u64::MAX] {
            assert!(!gather_f64(&dict, &[bad], &mut [0.0]));
            let mut late = idx.clone();
            late.push(bad);
            assert!(!gather_f64(&dict, &late, &mut vec![0.0; late.len()]));
        }
    }
}
