//! Microbenchmarks of the bitmap substrate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphbi_bitmap::Bitmap;

const N: u32 = 1_000_000;

fn make(density_pct: u32, offset: u32) -> Bitmap {
    let step = (100 / density_pct).max(1);
    let mut b: Bitmap = (offset..N).step_by(step as usize).collect();
    b.optimize();
    b
}

fn bench_and(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitmap_and");
    for density in [1u32, 10, 50] {
        let a = make(density, 0);
        let b = make(density, 1);
        g.bench_with_input(
            BenchmarkId::new("compressed", density),
            &density,
            |bench, _| bench.iter(|| std::hint::black_box(a.and(&b)).len()),
        );
    }
    g.finish();
}

fn bench_and_many(c: &mut Criterion) {
    let bitmaps: Vec<Bitmap> = (0..8u32).map(|i| make(10, i)).collect();
    c.bench_function("bitmap_and_many_8", |bench| {
        bench.iter(|| std::hint::black_box(Bitmap::and_many(bitmaps.iter())).len())
    });
}

fn bench_or(c: &mut Criterion) {
    let a = make(10, 0);
    let b = make(10, 5);
    c.bench_function("bitmap_or", |bench| {
        bench.iter(|| std::hint::black_box(a.or(&b)).len())
    });
}

fn bench_iter_and_rank(c: &mut Criterion) {
    let a = make(10, 0);
    c.bench_function("bitmap_iter_sum", |bench| {
        bench.iter(|| a.iter().map(u64::from).sum::<u64>())
    });
    c.bench_function("bitmap_rank", |bench| {
        bench.iter(|| {
            let mut acc = 0u64;
            for v in (0..N).step_by(997) {
                acc += a.rank(v);
            }
            acc
        })
    });
}

fn bench_codec(c: &mut Criterion) {
    let a = make(10, 0);
    c.bench_function("bitmap_encode", |bench| bench.iter(|| a.encode().len()));
    let bytes = a.encode();
    c.bench_function("bitmap_decode", |bench| {
        bench.iter(|| Bitmap::decode(&mut bytes.clone()).unwrap().len())
    });
}

criterion_group!(
    benches,
    bench_and,
    bench_and_many,
    bench_or,
    bench_iter_and_rank,
    bench_codec
);
criterion_main!(benches);
