//! [`MvccStore`] snapshot isolation under concurrent writes.
//!
//! The paper's deployments ingest records "on a continuous basis" while
//! analysts run reporting workloads. Here readers pin snapshots while a
//! writer commits delta batches and a compactor folds them into fresh
//! bases, and every pinned answer must be bit-identical to a serial replay
//! of exactly the pinned epoch — plus a disk flavor proving generation
//! pinning keeps superseded files alive under GC for exactly as long as a
//! snapshot reads them.

use std::path::PathBuf;
use std::sync::Arc;

use graphbi::disk::save_store_with;
use graphbi::{
    AggFn, GraphQuery, GraphStore, MvccStore, PathAggQuery, QueryExpr, QueryRequest, Response,
    Session,
};
use graphbi_columnstore::{DeltaOp, FaultVfs, Verify, Vfs};
use graphbi_graph::{EdgeId, GraphRecord, RecordBuilder, Universe};

const MVCC_BASE: usize = 120;
const MVCC_COMMITS: usize = 60;
const MVCC_READERS: usize = 4;
const MVCC_READS_PER_READER: usize = 30;

fn mvcc_universe() -> (Universe, Vec<EdgeId>) {
    let mut u = Universe::new();
    let edges: Vec<EdgeId> = (0..4)
        .map(|i| u.edge_by_names(&format!("m{i}"), &format!("m{}", i + 1)))
        .collect();
    (u, edges)
}

fn mvcc_base_records(edges: &[EdgeId]) -> Vec<GraphRecord> {
    (0..MVCC_BASE as u32)
        .map(|r| {
            let mut b = RecordBuilder::new();
            for (i, &e) in edges.iter().enumerate() {
                if !(r as usize + i).is_multiple_of(3) {
                    b.add(e, f64::from(r % 13) + 1.0);
                }
            }
            b.build()
        })
        .collect()
}

/// The deterministic ops of commit `k` (committed at epoch `k + 1`): one
/// insert matching the full path, plus — every third commit — an update
/// that *replaces* a base record with a single-edge one, so updates both
/// retire rows from some match sets and add them to others.
fn mvcc_commit_ops(k: usize, edges: &[EdgeId]) -> Vec<DeltaOp> {
    let mut ops = Vec::new();
    let mut b = RecordBuilder::new();
    b.add(edges[0], f64::from(k as u32) + 0.5)
        .add(edges[1], 2.0 * f64::from(k as u32) + 1.0);
    ops.push(DeltaOp::Insert(b.build()));
    if k.is_multiple_of(3) {
        let rid = (k * 7) % MVCC_BASE;
        let mut u = RecordBuilder::new();
        u.add(edges[2], f64::from(rid as u32) + 3.0);
        ops.push(DeltaOp::Update(rid as u32, u.build()));
    }
    ops
}

/// Serial replay: the records visible at `epoch`, as a plain vector.
fn mvcc_expected_records(epoch: u64, edges: &[EdgeId]) -> Vec<GraphRecord> {
    let mut recs = mvcc_base_records(edges);
    for k in 0..epoch as usize {
        for op in mvcc_commit_ops(k, edges) {
            match op {
                DeltaOp::Insert(r) => recs.push(r),
                DeltaOp::Update(rid, r) => recs[rid as usize] = r,
            }
        }
    }
    recs
}

/// The snapshot workload: one request of every kind, including an ANDNOT
/// whose right side is exactly what the updates rewrite records into.
fn mvcc_requests(edges: &[EdgeId]) -> Vec<QueryRequest> {
    let full = GraphQuery::from_edges(vec![edges[0], edges[1]]);
    let e2 = GraphQuery::from_edges(vec![edges[2]]);
    vec![
        QueryRequest::new(full.clone()),
        QueryRequest::expr(QueryExpr::and_not(
            QueryExpr::Atom(GraphQuery::from_edges(vec![edges[0]])),
            QueryExpr::Atom(e2),
        )),
        QueryRequest::aggregate(PathAggQuery::new(full, AggFn::Sum)),
    ]
}

#[test]
fn snapshot_readers_race_writer_and_compactor() {
    let (universe, edges) = mvcc_universe();
    let store = Arc::new(MvccStore::new_mem(GraphStore::load(
        universe.clone(),
        &mvcc_base_records(&edges),
    )));
    let requests = mvcc_requests(&edges);

    std::thread::scope(|scope| {
        // Writer: the deterministic commit stream, epoch k+1 = commit k.
        {
            let store = Arc::clone(&store);
            let edges = edges.clone();
            scope.spawn(move || {
                for k in 0..MVCC_COMMITS {
                    let epoch = store.commit(&mvcc_commit_ops(k, &edges)).expect("commit");
                    assert_eq!(epoch, (k + 1) as u64, "epochs must be dense");
                }
            });
        }
        // Compactor: folds the delta into a fresh base over and over while
        // both the writer and the readers are live.
        {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for _ in 0..8 {
                    store.compact().expect("compact");
                    std::thread::yield_now();
                }
            });
        }
        // Readers: pin a snapshot, read its epoch, and demand every answer
        // is bit-identical to a store built by serially replaying exactly
        // that many commits — no matter what the writer and compactor do
        // meanwhile.
        for _ in 0..MVCC_READERS {
            let store = Arc::clone(&store);
            let universe = universe.clone();
            let edges = edges.clone();
            let requests = requests.clone();
            scope.spawn(move || {
                let mut last_epoch = 0u64;
                for _ in 0..MVCC_READS_PER_READER {
                    let snap = store.snapshot();
                    let epoch = snap.epoch();
                    assert!(epoch >= last_epoch, "snapshots went back in time");
                    last_epoch = epoch;
                    let expected_records = mvcc_expected_records(epoch, &edges);
                    assert_eq!(snap.record_count(), expected_records.len() as u64);
                    let reference = GraphStore::load(universe.clone(), &expected_records);
                    let got = snap.evaluate_many(&requests).expect("snapshot batch");
                    let want = reference.evaluate_many(&requests).expect("serial replay");
                    for (i, ((g, _), (w, _))) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            g, w,
                            "request[{i}] at epoch {epoch} differs from serial replay"
                        );
                    }
                }
            });
        }
    });

    // Quiesced: the full stream, compacted once more, still replays.
    store.compact().expect("final compact");
    let expected_records = mvcc_expected_records(MVCC_COMMITS as u64, &edges);
    let reference = GraphStore::load(universe, &expected_records);
    let got = store.evaluate_many(&requests).expect("final batch");
    let want = reference.evaluate_many(&requests).expect("final replay");
    for ((g, _), (w, _)) in got.iter().zip(&want) {
        assert_eq!(g, w, "quiesced answers differ from serial replay");
    }
}

/// Disk flavor: a snapshot pinned *before* a compaction keeps answering
/// from its superseded generation even after the compactor publishes a new
/// one and the garbage collector sweeps — generation pinning must spare
/// the files a live snapshot reads. Dropping the pin releases them.
#[test]
fn pinned_disk_snapshot_survives_compaction_and_gc() {
    let (universe, edges) = mvcc_universe();
    let vfs = Arc::new(FaultVfs::new(0x9147));
    let dir = PathBuf::from("/mvccpin");
    save_store_with(
        vfs.as_ref(),
        &GraphStore::load(universe.clone(), &mvcc_base_records(&edges)),
        &dir,
    )
    .expect("save base generation");
    let store =
        MvccStore::open_disk(&dir, 64 << 10, vfs.clone(), Verify::Checksums).expect("open mvcc");
    let requests = mvcc_requests(&edges);

    // Pin the pre-commit state, then move the store two commits and a
    // compaction ahead.
    let pinned = store.snapshot();
    let pinned_gen = pinned.generation();
    // Responses only: IoStats legitimately differ between a cold and a
    // warm column cache.
    let responses = |answers: Vec<(Response, graphbi::IoStats)>| -> Vec<Response> {
        answers.into_iter().map(|(r, _)| r).collect()
    };
    let before = responses(pinned.evaluate_many(&requests).expect("pinned batch"));
    for k in 0..2 {
        store.commit(&mvcc_commit_ops(k, &edges)).expect("commit");
    }
    store.compact().expect("compact");
    store.gc().expect("gc with a live pin");
    assert_ne!(store.generation(), pinned_gen, "compaction must republish");

    // The pinned generation's files must still be on disk…
    let old_prefix = format!("g{pinned_gen:012}-");
    let files = vfs.list(&dir).expect("list store dir");
    assert!(
        files.iter().any(|p| p
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with(&old_prefix))),
        "gc removed files of a pinned generation"
    );
    // …and the pinned snapshot must answer exactly as before the
    // compaction, while fresh snapshots see the commits.
    let after = responses(
        pinned
            .evaluate_many(&requests)
            .expect("pinned batch after gc"),
    );
    assert_eq!(
        before, after,
        "pinned snapshot changed across compaction+gc"
    );
    let expected_records = mvcc_expected_records(2, &edges);
    let reference = GraphStore::load(universe, &expected_records);
    let fresh = store.evaluate_many(&requests).expect("fresh batch");
    let want = reference.evaluate_many(&requests).expect("serial replay");
    for ((g, _), (w, _)) in fresh.iter().zip(&want) {
        assert_eq!(g, w, "post-compaction answers differ from serial replay");
    }

    // Dropping the pin frees the old generation for the next sweep.
    drop(pinned);
    store.gc().expect("gc after pin release");
    let files = vfs.list(&dir).expect("list store dir");
    assert!(
        !files.iter().any(|p| p
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with(&old_prefix))),
        "unpinned superseded generation was not collected"
    );
}
