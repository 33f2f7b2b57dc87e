//! Kernel-layer microbenchmarks (the PR-4 tentpole measurement).
//!
//! Three comparisons, each against the pre-kernel implementation re-created
//! here as an explicit baseline:
//!
//! * **and_many** on sparse / dense / mixed operand sets — the old
//!   clone-accumulator conjunction (clone the smallest operand, then
//!   allocating per-chunk ANDs) vs the in-place kernels behind
//!   [`Bitmap::and_many`];
//! * **positional gather** — the old `fold_over` (a `contains` + `rank`
//!   per id below the ⅛-of-presence threshold, a lockstep scan of every
//!   present record above it) vs [`SparseColumn::fold_over`]'s one rank
//!   walk, at 7% and 60% presence × ≈2 400 and 40 ids;
//! * **ordered vs unordered conjunctions** on a Zipf-cardinality workload —
//!   what the selectivity-ordered planner buys over evaluating operands in
//!   query order;
//! * **Array × Array ∩ and ∖** on one-chunk bitmaps of random lows, from
//!   8 × 10 values to 4096 × 4096 and a 64× lopsided pair — a plain sorted
//!   merge vs the container kernels behind [`Bitmap::and_inplace`] and
//!   [`Bitmap::and_not_inplace`] (mark-and-probe, or galloping where one
//!   side is far shorter).
//!
//! Every kernel-path answer is checked bit-identical against its baseline
//! before any timing is reported; a mismatch fails the run (and the CI job
//! that wraps it). Heap allocations are counted by [`CountingAlloc`], which
//! the `kernels` binary installs as the global allocator. Results land in
//! `BENCH_kernels.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use graphbi_bitmap::Bitmap;
use graphbi_columnstore::SparseColumn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{fmt, measure_tracer_overhead, time_ms, Table};

/// Heap allocations observed since process start (see [`CountingAlloc`]).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts every allocation, so the
/// bench can report allocations-per-operation next to wall clock. The
/// `kernels` binary installs it with `#[global_allocator]`; when it is not
/// installed (e.g. these functions called from a test), counts read zero
/// and the report says so.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System` unchanged; the counter is
// a relaxed atomic increment with no other side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations so far (0 unless [`CountingAlloc`] is the global allocator).
fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Best-of-n wall clock for `f`, keeping the fastest run's output and the
/// allocation count of the *fastest* run.
fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> (T, f64, u64) {
    let mut best: Option<(T, f64, u64)> = None;
    for _ in 0..n {
        let before = allocations();
        let (out, ms) = time_ms(&mut f);
        let allocs = allocations() - before;
        if best.as_ref().is_none_or(|b| ms < b.1) {
            best = Some((out, ms, allocs));
        }
    }
    best.expect("at least one run")
}

/// The pre-kernel conjunction: clone the smallest operand, then fold the
/// rest (sorted) through the allocating `and` — one fresh bitmap per
/// operand. This is what `Bitmap::and_many` did before the in-place
/// kernels.
fn and_many_cloning(bitmaps: &[&Bitmap]) -> Bitmap {
    let mut v: Vec<&Bitmap> = bitmaps.to_vec();
    v.sort_by_key(|b| b.len());
    let Some(first) = v.first() else {
        return Bitmap::new();
    };
    let mut acc: Bitmap = (*first).clone();
    for b in &v[1..] {
        if acc.is_empty() {
            break;
        }
        acc = acc.and(b);
    }
    acc
}

/// The unordered conjunction: allocating folds in the operands' given
/// order — what a planner that never reorders by selectivity evaluates.
fn and_fold_unordered(bitmaps: &[&Bitmap]) -> Bitmap {
    let Some(first) = bitmaps.first() else {
        return Bitmap::new();
    };
    let mut acc: Bitmap = (*first).clone();
    for b in &bitmaps[1..] {
        acc = acc.and(b);
    }
    acc
}

/// The positional gather before the rank walk: a point lookup per id
/// (`contains`, then a `rank` that re-counts from the column start) when
/// `ids` is under ⅛ of the presence count, else a lockstep scan over every
/// present record.
fn fold_over_per_id_rank(col: &SparseColumn, ids: &Bitmap, mut f: impl FnMut(f64)) {
    let presence = col.presence();
    if ids.len() * 8 < presence.len() {
        ids.for_each(|r| {
            if let Some(v) = col.get(r) {
                f(v);
            }
        });
    } else {
        let mut wanted = ids.iter().peekable();
        for (r, v) in col.iter() {
            while wanted.peek().is_some_and(|&w| w < r) {
                wanted.next();
            }
            match wanted.peek() {
                Some(&w) if w == r => {
                    f(v);
                    wanted.next();
                }
                Some(_) => {}
                None => break,
            }
        }
    }
}

/// A 200k-record measure column at `pct`% presence and a result set of
/// `n_ids` of its present records, both drawn from `seed`.
fn gather_inputs(pct: u32, n_ids: usize, seed: u64) -> (SparseColumn, Bitmap) {
    let mut rng = StdRng::seed_from_u64(seed);
    let presence: Bitmap = (0..200_000u32)
        .filter(|_| rng.gen_range(0..100u32) < pct)
        .collect();
    let n = presence.len() as usize;
    let values: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..10.5)).collect();
    let keep = n_ids as f64 / n as f64;
    let ids: Bitmap = presence.iter().filter(|_| rng.gen_bool(keep)).collect();
    let mut col = SparseColumn::from_parts(presence, values);
    col.optimize();
    (col, ids)
}

/// Running sum and count of gathered values; equal only when both saw the
/// same values in the same order.
#[derive(Default, PartialEq)]
struct SumCount(f64, u64);

impl SumCount {
    fn push(&mut self, v: f64) {
        self.0 += v;
        self.1 += 1;
    }
}

/// One baseline-vs-kernel measurement.
struct Comparison {
    name: &'static str,
    base_ms: f64,
    kernel_ms: f64,
    base_allocs: u64,
    kernel_allocs: u64,
    identical: bool,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.base_ms / self.kernel_ms.max(1e-9)
    }
}

/// Times `base` vs `kernel` (each best-of-3, `reps` inner repetitions) and
/// verifies their answers agree through `same`.
fn compare<T>(
    name: &'static str,
    reps: usize,
    mut base: impl FnMut() -> T,
    mut kernel: impl FnMut() -> T,
    same: impl Fn(&T, &T) -> bool,
) -> Comparison {
    let run = |f: &mut dyn FnMut() -> T| {
        best_of(3, || {
            let mut last = f();
            for _ in 1..reps {
                last = f();
            }
            last
        })
    };
    let (base_out, base_ms, base_allocs) = run(&mut base);
    let (kernel_out, kernel_ms, kernel_allocs) = run(&mut kernel);
    Comparison {
        name,
        base_ms,
        kernel_ms,
        base_allocs,
        kernel_allocs,
        identical: same(&base_out, &kernel_out),
    }
}

/// Times the same closure under forced-scalar vs forced-SIMD kernel
/// dispatch and verifies the answers agree through `same`. The bench
/// binary is single-threaded, so flipping the process-global kernel
/// override here cannot race other work; it is restored to auto after.
fn compare_simd<T>(
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
    same: impl Fn(&T, &T) -> bool,
) -> Comparison {
    use graphbi_bitmap::kernels::{self, KernelPath};
    let mut run = || {
        best_of(3, || {
            let mut last = f();
            for _ in 1..reps {
                last = f();
            }
            last
        })
    };
    kernels::force(Some(KernelPath::Scalar));
    let (base_out, base_ms, base_allocs) = run();
    kernels::force(Some(KernelPath::Simd));
    let (kernel_out, kernel_ms, kernel_allocs) = run();
    kernels::force(None);
    Comparison {
        name,
        base_ms,
        kernel_ms,
        base_allocs,
        kernel_allocs,
        identical: same(&base_out, &kernel_out),
    }
}

/// A sparse operand set: one tiny bitmap and several wide array-container
/// bitmaps — the shape where galloping intersection dominates.
fn sparse_operands() -> Vec<Bitmap> {
    let mut out: Vec<Bitmap> = (0..7u32)
        .map(|i| (i..3_000_000).step_by(17).collect())
        .collect();
    out.push((0..3_000_000u32).step_by(40_009).collect());
    out
}

/// A dense operand set: word-container bitmaps at ~50% density, where
/// batched word ops with incremental cardinality pay off.
fn dense_operands() -> Vec<Bitmap> {
    (0..8u32)
        .map(|i| (i..2_000_000).step_by(2).collect())
        .collect()
}

/// A mixed operand set: runs, words and arrays in one conjunction.
fn mixed_operands() -> Vec<Bitmap> {
    let mut runs = Bitmap::from_range(0..1_500_000);
    runs.optimize();
    vec![
        runs,
        (0..2_000_000u32).step_by(2).collect(),
        (0..2_000_000u32).step_by(13).collect(),
        (0..2_000_000u32).step_by(6_007).collect(),
    ]
}

/// Zipf-cardinality bitmap pool: bitmap `k` holds ~`N / (k+1)` ids, the
/// skew the paper's workloads show across edge popularity.
fn zipf_pool(rng: &mut StdRng) -> Vec<Bitmap> {
    const N: u32 = 1_000_000;
    (0..64usize)
        .map(|k| {
            let step = (k + 1).min(8_192);
            let offset = rng.gen_range(0..64u32);
            (offset..N).step_by(step).collect()
        })
        .collect()
}

/// The Array × Array rows as `(name, |a|, |b|, ∖ rather than ∩)`: random
/// lows in chunk 0, with about half of `a` drawn from `b` so results are
/// not empty.
const ARRAY_SHAPES: [(&str, usize, usize, bool); 6] = [
    ("array_and/tiny_8x10", 8, 10, false),
    ("array_and/small_40x50", 40, 50, false),
    ("array_and/balanced_1k", 1024, 1024, false),
    ("array_and/balanced_4k", 4096, 4096, false),
    ("array_and/lopsided_64x", 64, 4096, false),
    ("array_andnot/balanced_4k", 4096, 4096, true),
];

/// `pairs` operand pairs of `na` × `nb` sorted ids of chunk 0. Random lows
/// make every comparison of a merge unpredictable, as record ids are.
fn array_pairs(na: usize, nb: usize, pairs: usize, rng: &mut StdRng) -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut distinct = |n: usize, from: &[u32]| {
        let mut set = std::collections::BTreeSet::new();
        while set.len() < n / 2 && !from.is_empty() {
            set.insert(from[rng.gen_range(0..from.len())]);
        }
        while set.len() < n {
            set.insert(rng.gen_range(0..65_536u32));
        }
        set.into_iter().collect::<Vec<u32>>()
    };
    (0..pairs)
        .map(|_| {
            let b = distinct(nb, &[]);
            (distinct(na, &b), b)
        })
        .collect()
}

/// The plain sorted merge, in place on `a`: `a ∩ b`, or `a ∖ b` when
/// `andnot` — the reference the array rows are measured against.
fn merge_inplace(a: &mut Vec<u32>, b: &[u32], andnot: bool) {
    let (mut j, mut w) = (0, 0);
    for i in 0..a.len() {
        let v = a[i];
        while j < b.len() && b[j] < v {
            j += 1;
        }
        if (j < b.len() && b[j] == v) != andnot {
            a[w] = v;
            w += 1;
        }
    }
    a.truncate(w);
}

/// Best-of-3 time of `op` applied in place to fresh copies of every input,
/// `reps` times over, with the allocations of the fastest run. The copies
/// are made and dropped outside the clock: an in-place kernel consumes its
/// input, and copying is not what these rows measure.
fn best_inplace<T: Clone>(
    inputs: &[T],
    reps: usize,
    mut op: impl FnMut(&mut T, usize),
) -> (Vec<T>, f64, u64) {
    let mut best: Option<(Vec<T>, f64, u64)> = None;
    for _ in 0..3 {
        let mut copies: Vec<T> = (0..reps).flat_map(|_| inputs.iter().cloned()).collect();
        let before = allocations();
        let ((), ms) = time_ms(|| {
            for (i, c) in copies.iter_mut().enumerate() {
                op(c, i % inputs.len());
            }
        });
        let allocs = allocations() - before;
        if best.as_ref().is_none_or(|b| ms < b.1) {
            copies.truncate(inputs.len());
            best = Some((copies, ms, allocs));
        }
    }
    best.expect("at least one run")
}

/// The Array × Array rows: the merge reference vs the container kernels,
/// each over the same pairs, answers compared id for id.
fn array_rows(rng: &mut StdRng) -> Vec<Comparison> {
    ARRAY_SHAPES
        .iter()
        .map(|&(name, na, nb, andnot)| {
            let pairs = array_pairs(na, nb, (200_000 / (na + nb)).min(4_096), rng);
            let ids: Vec<Vec<u32>> = pairs.iter().map(|p| p.0.clone()).collect();
            let (bitmaps, others): (Vec<Bitmap>, Vec<Bitmap>) = pairs
                .iter()
                .map(|(a, b)| (a.iter().copied().collect(), b.iter().copied().collect()))
                .unzip();
            let (base_out, base_ms, base_allocs) =
                best_inplace(&ids, 3, |a, i| merge_inplace(a, &pairs[i].1, andnot));
            let (kernel_out, kernel_ms, kernel_allocs) = best_inplace(&bitmaps, 3, |a, i| {
                if andnot {
                    a.and_not_inplace(&others[i]);
                } else {
                    a.and_inplace(&others[i]);
                }
            });
            Comparison {
                name,
                base_ms,
                kernel_ms,
                base_allocs,
                kernel_allocs,
                identical: base_out
                    .iter()
                    .zip(&kernel_out)
                    .all(|(base, kernel)| *base == kernel.to_vec()),
            }
        })
        .collect()
}

/// Runs the benchmark; returns `false` when any kernel-path answer differed
/// from its baseline counterpart.
pub fn run() -> bool {
    let sparse = sparse_operands();
    let dense = dense_operands();
    let mixed = mixed_operands();
    let sparse_refs: Vec<&Bitmap> = sparse.iter().collect();
    let dense_refs: Vec<&Bitmap> = dense.iter().collect();
    let mixed_refs: Vec<&Bitmap> = mixed.iter().collect();

    // Full-column aggregation inputs: a 1M-value measure column and a
    // result set covering all of it.
    let col = {
        let presence: Bitmap = (0..2_000_000u32).step_by(2).collect();
        let values: Vec<f64> = (0..1_000_000).map(|i| (i % 97) as f64).collect();
        SparseColumn::from_parts(presence, values)
    };
    let ids_all: Bitmap = (0..2_000_000u32).collect();

    // Positional-gather inputs: the shapes `serve-hot` results take
    // (≈2 400 ids) and a tiny result, over a sparse and a dense column.
    let gathers = [
        ("aggregate/p7_ids2400", gather_inputs(7, 2_400, 7), 400),
        ("aggregate/p7_ids40", gather_inputs(7, 40, 8), 20_000),
        ("aggregate/p60_ids2400", gather_inputs(60, 2_400, 9), 400),
        ("aggregate/p60_ids40", gather_inputs(60, 40, 10), 20_000),
    ];

    // Zipf conjunction workload: 200 conjunctions of 4 operands each, in
    // deliberately unsorted (often worst-first) order.
    let mut rng = StdRng::seed_from_u64(42);
    let pool = zipf_pool(&mut rng);
    let queries: Vec<Vec<&Bitmap>> = (0..200)
        .map(|_| {
            let mut picks: Vec<&Bitmap> = (0..4)
                .map(|_| &pool[rng.gen_range(0..pool.len())])
                .collect();
            // Worst-first: largest operand leads, the order a naive planner
            // might inherit from query syntax.
            picks.sort_by_key(|b| std::cmp::Reverse(b.len()));
            picks
        })
        .collect();

    // Scalar-vs-SIMD dispatch input: a dense word block for the popcount
    // kernel.
    let words: Vec<u64> = (0..1 << 20)
        .map(|i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();

    let mut comparisons = vec![
        compare(
            "and_many/sparse",
            5,
            || and_many_cloning(&sparse_refs),
            || Bitmap::and_many(sparse_refs.iter().copied()),
            |a, b| a == b,
        ),
        compare(
            "and_many/dense",
            5,
            || and_many_cloning(&dense_refs),
            || Bitmap::and_many(dense_refs.iter().copied()),
            |a, b| a == b,
        ),
        compare(
            "and_many/mixed",
            5,
            || and_many_cloning(&mixed_refs),
            || Bitmap::and_many(mixed_refs.iter().copied()),
            |a, b| a == b,
        ),
        compare(
            "conjunction/zipf-ordered",
            1,
            || {
                queries
                    .iter()
                    .map(|q| and_fold_unordered(q))
                    .collect::<Vec<Bitmap>>()
            },
            || {
                queries
                    .iter()
                    .map(|q| Bitmap::and_many(q.iter().copied()))
                    .collect::<Vec<Bitmap>>()
            },
            |a, b| a == b,
        ),
    ];
    comparisons.extend(array_rows(&mut rng));
    for (name, (gcol, gids), reps) in &gathers {
        comparisons.push(compare(
            name,
            *reps,
            || {
                let mut acc = SumCount::default();
                fold_over_per_id_rank(gcol, gids, |v| acc.push(v));
                acc
            },
            || {
                let mut acc = SumCount::default();
                gcol.fold_over(gids, |v| acc.push(v));
                acc
            },
            // Same value order on both paths → exact equality, no tolerance.
            |a, b| a == b,
        ));
    }

    // Scalar vs SIMD: the same dispatched operation timed under both
    // forced kernel paths. `base` is forced-scalar, `kernel` forced-SIMD;
    // on hardware without AVX2 both resolve to scalar and the speedup
    // honestly reads ~1.0x.
    let fold_key = |a: &graphbi_bitmap::kernels::FoldAgg| {
        (
            a.count(),
            a.sum().to_bits(),
            a.min().to_bits(),
            a.max().to_bits(),
        )
    };
    comparisons.extend([
        compare_simd(
            "simd/and_many_dense",
            5,
            || Bitmap::and_many(dense_refs.iter().copied()),
            |a, b| a == b,
        ),
        compare_simd(
            "simd/and_many_sparse",
            5,
            || Bitmap::and_many(sparse_refs.iter().copied()),
            |a, b| a == b,
        ),
        compare_simd(
            "simd/and_many_mixed",
            5,
            || Bitmap::and_many(mixed_refs.iter().copied()),
            |a, b| a == b,
        ),
        compare_simd(
            "simd/popcount",
            20,
            || graphbi_bitmap::kernels::popcount(&words),
            |a, b| a == b,
        ),
        compare_simd(
            "simd/fold_aggregate",
            5,
            // Aggregate over a covering result set — the raw fast path
            // that hands the whole value slice to the vector fold.
            || fold_key(&col.fold_aggregate(&ids_all)),
            |a, b| a == b,
        ),
    ]);

    let mut t = Table::new(
        "Kernel layer: baseline vs in-place/fused/ordered (best of 3)",
        &[
            "bench",
            "base_ms",
            "kernel_ms",
            "speedup",
            "base_allocs",
            "kernel_allocs",
            "identical",
        ],
    );
    for c in &comparisons {
        t.row(vec![
            c.name.into(),
            fmt(c.base_ms),
            fmt(c.kernel_ms),
            format!("{:.2}x", c.speedup()),
            c.base_allocs.to_string(),
            c.kernel_allocs.to_string(),
            c.identical.to_string(),
        ]);
    }
    t.emit("kernels");
    if allocations() == 0 {
        println!("(allocation counts unavailable: CountingAlloc not installed)");
    }

    // Tracer overhead on the Zipf conjunction workload: each conjunction
    // runs inside a span, once with the tracer disabled (the shipped
    // default — spans are inert) and once with a collector installed.
    let overhead = measure_tracer_overhead(5, || {
        for q in &queries {
            let _sp = graphbi_obs::span("bench.conjunction");
            std::hint::black_box(Bitmap::and_many(q.iter().copied()));
        }
    });
    println!("{}", overhead.report());

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"kernels\",");
    // Bench honesty: record what hardware the numbers were taken on and
    // which dispatch path a plain (unforced) run would take.
    let _ = writeln!(
        json,
        "  \"cpu\": {{\"arch\": \"{}\", \"features\": \"{}\", \"active_path\": \"{}\"}},",
        std::env::consts::ARCH,
        graphbi_bitmap::kernels::cpu_features(),
        graphbi_bitmap::kernels::path_name(),
    );
    let _ = writeln!(json, "  \"alloc_counter\": {},", allocations() > 0);
    let _ = writeln!(json, "  \"tracer\": {},", overhead.json());
    let _ = writeln!(json, "  \"benches\": [");
    for (i, c) in comparisons.iter().enumerate() {
        let comma = if i + 1 < comparisons.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"base_ms\": {:.3}, \"kernel_ms\": {:.3}, \
             \"speedup\": {:.3}, \"base_allocs\": {}, \"kernel_allocs\": {}, \
             \"identical\": {}}}{comma}",
            c.name,
            c.base_ms,
            c.kernel_ms,
            c.speedup(),
            c.base_allocs,
            c.kernel_allocs,
            c.identical,
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    let out = std::env::var("GRAPHBI_BENCH_OUT").unwrap_or_else(|_| "BENCH_kernels.json".into());
    std::fs::write(&out, &json).expect("write benchmark point");
    println!("wrote {out}");

    comparisons.iter().all(|c| c.identical)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_agree_with_kernels() {
        for ops in [sparse_operands(), dense_operands(), mixed_operands()] {
            let refs: Vec<&Bitmap> = ops.iter().collect();
            let base = and_many_cloning(&refs);
            assert_eq!(base, Bitmap::and_many(refs.iter().copied()));
            assert_eq!(and_fold_unordered(&refs), base);
        }
    }

    #[test]
    fn merge_reference_agrees_with_array_kernels() {
        let mut rng = StdRng::seed_from_u64(3);
        for (name, na, nb, andnot) in ARRAY_SHAPES {
            for (a, b) in array_pairs(na, nb, 2, &mut rng) {
                let (ba, bb): (Bitmap, Bitmap) =
                    (a.iter().copied().collect(), b.iter().copied().collect());
                let mut merged = a.clone();
                merge_inplace(&mut merged, &b, andnot);
                let kernel = if andnot { ba.and_not(&bb) } else { ba.and(&bb) };
                assert_eq!(merged, kernel.to_vec(), "{name}");
                assert!(andnot || !merged.is_empty(), "{name}");
            }
        }
    }

    #[test]
    fn per_id_rank_baseline_agrees_with_rank_walk() {
        for (pct, n_ids) in [(7, 2_400), (7, 40), (60, 2_400), (60, 40)] {
            let (col, ids) = gather_inputs(pct, n_ids, 1);
            let mut base = Vec::new();
            fold_over_per_id_rank(&col, &ids, |v| base.push(v.to_bits()));
            let mut walk = Vec::new();
            col.fold_over(&ids, |v| walk.push(v.to_bits()));
            assert_eq!(base.len() as u64, ids.len());
            assert_eq!(base, walk, "{pct}% presence, {n_ids} ids");
        }
    }
}
