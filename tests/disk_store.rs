//! Disk-resident store: identical answers to the in-memory store, with
//! honest I/O accounting.

use graphbi::disk::{save_store, DiskError, DiskGraphStore};
use graphbi::{AggFn, GraphStore, IoStats, PathAggQuery, QueryExpr, QueryRequest, Session};
use graphbi_graph::GraphQuery;
use graphbi_workload::{queries::QuerySpec, Dataset, DatasetSpec};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("graphbi-diskstore-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn build(with_views: bool) -> (GraphStore, Vec<GraphQuery>) {
    build_with_width(with_views, None)
}

/// [`build`] at an explicit partition width (`None`: the default width).
fn build_with_width(with_views: bool, width: Option<usize>) -> (GraphStore, Vec<GraphQuery>) {
    let spec = DatasetSpec {
        n_records: 400,
        ..DatasetSpec::ny(400)
    };
    let d = Dataset::synthesize(&spec);
    let qs = d.queries(&QuerySpec::zipf(30));
    let mut store = match width {
        Some(w) => GraphStore::load_with_width(d.universe, &d.records, w),
        None => GraphStore::load(d.universe, &d.records),
    };
    if with_views {
        store.advise_views(&qs, 10);
        store.advise_agg_views(&qs, AggFn::Sum, 10).unwrap();
    }
    (store, qs)
}

/// The logical cost of a request: every counter but the physical
/// `disk_reads`/`disk_bytes`, which only the disk store charges.
fn logical(mut stats: IoStats) -> IoStats {
    stats.disk_reads = 0;
    stats.disk_bytes = 0;
    stats
}

/// Both backends run one executor, so they agree on answers *and* on the
/// logical cost of every request: partition touches, §6.1 recid joins and
/// skipped fetches included.
#[test]
fn disk_answers_equal_memory_answers() {
    for width in [None, Some(8)] {
        for with_views in [false, true] {
            let dir = tmpdir(&format!("equal-{width:?}-{with_views}"));
            let (mem, qs) = build_with_width(with_views, width);
            save_store(&mem, &dir).unwrap();
            let disk = DiskGraphStore::open(&dir, 16 << 20).unwrap();
            assert_eq!(disk.record_count(), mem.record_count());
            for (i, q) in qs.iter().enumerate() {
                let (m, _) = mem.evaluate(q);
                let (d, _) = disk.evaluate(q).unwrap();
                assert_eq!(d, m);
                let paq = PathAggQuery::new(q.clone(), AggFn::Sum);
                let (ma, _) = mem.path_aggregate(&paq).unwrap();
                let (da, _) = disk.path_aggregate(&paq).unwrap();
                assert_eq!(da, ma);

                let next = qs[(i + 1) % qs.len()].clone();
                let expr = QueryExpr::or(
                    QueryExpr::and(q.clone().into(), next.clone().into()),
                    QueryExpr::and_not(next.into(), q.clone().into()),
                );
                for request in [
                    QueryRequest::new(q.clone()),
                    QueryRequest::expr(expr),
                    QueryRequest::aggregate(paq),
                ] {
                    let (mr, ms) = mem.execute(&request).unwrap();
                    let (dr, ds) = disk.execute(&request).unwrap();
                    assert_eq!(dr, mr, "{request:?}");
                    assert_eq!(
                        logical(ds),
                        logical(ms),
                        "width {width:?}, views {with_views}: {request:?}"
                    );
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn disk_store_uses_materialized_views() {
    let dir = tmpdir("views");
    let (mem, qs) = build(true);
    assert!(!mem.graph_views().is_empty());
    save_store(&mem, &dir).unwrap();
    let disk = DiskGraphStore::open(&dir, 16 << 20).unwrap();

    let mut used_view = false;
    for q in &qs {
        let (m, _) = mem.evaluate(q);
        let (d, stats) = disk.evaluate(q).unwrap();
        assert_eq!(d, m);
        used_view |= stats.view_bitmap_columns > 0;
        // Aggregate answers too.
        let paq = PathAggQuery::new(q.clone(), AggFn::Sum);
        let (ma, _) = mem.path_aggregate(&paq).unwrap();
        let (da, _) = disk.path_aggregate(&paq).unwrap();
        assert_eq!(da.records, ma.records);
        for (a, b) in da.values.iter().zip(&ma.values) {
            assert!((a - b).abs() < 1e-9 || (a.is_nan() && b.is_nan()));
        }
    }
    assert!(used_view, "rewrites must reach the stored views");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cold_cache_reads_warm_cache_hits() {
    let dir = tmpdir("cache");
    let (mem, qs) = build(false);
    save_store(&mem, &dir).unwrap();
    let disk = DiskGraphStore::open(&dir, 64 << 20).unwrap();

    let q = &qs[0];
    let (_, cold) = disk.evaluate(q).unwrap();
    assert!(cold.disk_reads > 0, "cold run must hit the disk");
    let (_, warm) = disk.evaluate(q).unwrap();
    assert_eq!(warm.disk_reads, 0, "warm run is fully cached");
    assert_eq!(
        warm.bitmap_columns, cold.bitmap_columns,
        "model cost unchanged"
    );

    disk.relation().clear_cache();
    let (_, cold2) = disk.evaluate(q).unwrap();
    assert_eq!(
        cold2.disk_reads, cold.disk_reads,
        "cold runs are repeatable"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tiny_cache_answers_stay_correct() {
    let dir = tmpdir("tiny");
    let (mem, qs) = build(false);
    save_store(&mem, &dir).unwrap();
    // 1 KiB: too small for most columns, but sub-KiB columns of a hot
    // (Zipf-repeated) query can survive into its next run — so cold-start
    // each query before asserting that all of its columns come from disk.
    let disk = DiskGraphStore::open(&dir, 1024).unwrap();
    for q in qs.iter().take(5) {
        disk.relation().clear_cache();
        let (m, _) = mem.evaluate(q);
        let (d, stats) = disk.evaluate(q).unwrap();
        assert_eq!(d, m);
        if !q.is_empty() {
            assert!(stats.disk_reads >= q.len() as u64, "every column from disk");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn load_store_reattaches_views() {
    let dir = tmpdir("reattach");
    let (mem, qs) = build(true);
    save_store(&mem, &dir).unwrap();
    let reloaded = graphbi::disk::load_store(&dir).unwrap();
    assert_eq!(reloaded.graph_views().len(), mem.graph_views().len());
    assert_eq!(reloaded.agg_views().len(), mem.agg_views().len());
    let mut used_view = false;
    for q in &qs {
        let (a, s1) = mem.evaluate(q);
        let (b, s2) = reloaded.evaluate(q);
        assert_eq!(a, b);
        assert_eq!(s1.structural_columns(), s2.structural_columns());
        used_view |= s2.view_bitmap_columns > 0;
    }
    assert!(used_view);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cold_disk_reads_equal_cost_model() {
    // Under a cold cache, disk reads == structural + measure columns: the
    // paper's cost model made literal.
    let dir = tmpdir("model");
    let (mem, qs) = build(false);
    save_store(&mem, &dir).unwrap();
    let disk = DiskGraphStore::open(&dir, 512 << 20).unwrap();
    for q in qs.iter().take(10) {
        disk.relation().clear_cache();
        let (result, stats) = disk.evaluate(q).unwrap();
        let expected_measure_reads = if result.is_empty() { 0 } else { q.len() as u64 };
        assert_eq!(
            stats.disk_reads,
            stats.structural_columns() + expected_measure_reads,
            "{q:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every malformed `views_meta.txt` is a typed `ViewsMeta` error from both
/// openers, which share one sidecar parser.
#[test]
fn malformed_views_meta_is_typed_from_both_openers() {
    let (mem, _) = build(false);
    let universe = mem.universe().to_text();
    let cases: [(&str, &[u8]); 5] = [
        ("non-utf8", b"g 1 \xff\n"),
        ("unknown-kind", b"x 1 2\n"),
        ("unknown-func", b"a MEDIAN 1 2\n"),
        ("non-numeric-edge", b"g 1 two\n"),
        // A well-formed definition for a view column the relation lacks.
        ("count-mismatch", b"g 1 2\n"),
    ];
    for (name, meta) in cases {
        let dir = tmpdir(&format!("meta-{name}"));
        let sidecars: [(&str, &[u8]); 2] = [
            ("universe.txt", universe.as_bytes()),
            ("views_meta.txt", meta),
        ];
        graphbi_columnstore::persist::save_with(
            graphbi_columnstore::os_vfs().as_ref(),
            mem.relation(),
            &sidecars,
            &dir,
            &[],
        )
        .unwrap();
        let loaded = graphbi::disk::load_store(&dir).map(|_| ());
        let opened = DiskGraphStore::open(&dir, 1 << 20).map(|_| ());
        for (opener, result) in [("load_store", loaded), ("open", opened)] {
            match result {
                Err(e @ DiskError::ViewsMeta(_)) => assert!(e.is_corruption()),
                other => panic!("{name} via {opener}: expected ViewsMeta, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
