//! Ablations of the design choices called out in DESIGN.md §6:
//! partition width and view-selection strategy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphbi::{GraphStore, IoStats, QueryRequest, Session};
use graphbi_views::{generate_candidates, rewrite_query, select_views};
use graphbi_workload::{queries::QuerySpec, Dataset, DatasetSpec};

fn dataset() -> Dataset {
    Dataset::synthesize(&DatasetSpec::ny(5_000))
}

/// Vertical partition width: 100 vs 1000 vs 10000 columns per sub-relation.
fn bench_partition_width(c: &mut Criterion) {
    let mut g = c.benchmark_group("partition_width");
    for width in [100usize, 1000, 10_000] {
        let d = dataset();
        let qs = d.queries(&QuerySpec::uniform(20));
        let store = GraphStore::load_with_width(d.universe, &d.records, width);
        g.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, _| {
            b.iter(|| {
                qs.iter()
                    .map(|q| store.evaluate(q).0.value_count())
                    .sum::<usize>()
            })
        });
    }
    g.finish();
}

/// View strategies: no views, greedy budget, materialize-every-query.
fn bench_view_strategy(c: &mut Criterion) {
    let d = dataset();
    let qs = d.queries(&QuerySpec::zipf(50));
    let mut store = GraphStore::load(d.universe, &d.records);

    let mut g = c.benchmark_group("view_strategy");
    // The structural phase alone, through the session's expression form.
    let structural: Vec<QueryRequest> = qs
        .iter()
        .map(|q| QueryRequest::expr(graphbi_graph::QueryExpr::Atom(q.clone())))
        .collect();
    let run = |store: &GraphStore, reqs: &[QueryRequest]| {
        let mut n = 0u64;
        for r in reqs {
            if let Ok((graphbi::Response::Matches(ids), _)) = store.execute(r) {
                n += ids.len();
            }
        }
        n
    };
    g.bench_function("no_views", |b| {
        b.iter(|| {
            let mut stats = IoStats::new();
            qs.iter()
                .map(|q| {
                    let (_, s) = store
                        .execute(&QueryRequest::new(q.clone()).oblivious())
                        .expect("acyclic");
                    stats.merge(&s);
                    s.bitmap_columns
                })
                .sum::<u64>()
        })
    });
    store.clear_views();
    store.advise_views(&qs, 10);
    g.bench_function("greedy_budget_10", |b| b.iter(|| run(&store, &structural)));
    store.clear_views();
    // Materialize every distinct query (the paper's impractical extreme).
    let mut distinct = qs.clone();
    distinct.sort();
    distinct.dedup();
    for q in &distinct {
        store.materialize_graph_view(q.edges().to_vec());
    }
    g.bench_function("materialize_every_query", |b| {
        b.iter(|| run(&store, &structural))
    });
    g.finish();
}

/// Rewrite planning cost as the view catalog grows.
fn bench_rewrite_scaling(c: &mut Criterion) {
    let d = dataset();
    let qs = d.queries(&QuerySpec::zipf(100));
    let cands = generate_candidates(&qs);
    let mut g = c.benchmark_group("rewrite_vs_catalog_size");
    for budget in [5usize, 25, 100] {
        let chosen = select_views(&qs, &cands, budget);
        let views: Vec<_> = chosen.iter().map(|&i| cands[i].edges.clone()).collect();
        g.bench_with_input(BenchmarkId::from_parameter(budget), &budget, |b, _| {
            b.iter(|| {
                qs.iter()
                    .map(|q| rewrite_query(q, &views).bitmap_cost())
                    .sum::<usize>()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_partition_width,
    bench_view_strategy,
    bench_rewrite_scaling
);
criterion_main!(benches);
