//! The engine × plan-mode × backend matrix.
//!
//! Every configuration — columnar and baseline alike — answers through the
//! one unified [`Engine`] trait from `graphbi-baselines`, so the oracle
//! drives all of them through one interface. One scenario fans out to:
//!
//! * `columnar-mem-{views,oblivious}` — the in-memory [`GraphStore`], with
//!   and without view rewriting, sharing one store (and one view catalog);
//! * `columnar-mem-views-sharded` / `columnar-disk-views-sharded` — the
//!   same stores answering through 3-way horizontal record sharding;
//! * `columnar-disk-{views,oblivious}` — the same database saved and
//!   reopened as a [`DiskGraphStore`] behind a small column cache;
//! * `columnar-reloaded` — the database loaded *back into memory* through
//!   [`graphbi::disk::load_store`], making the persistence round-trip an
//!   ordinary matrix row;
//! * `columnar-disk-faultvfs-views` — the database saved and reopened
//!   through the crash fuzzer's in-memory [`FaultVfs`] (no fault armed),
//!   proving the fault-injection substrate is semantically transparent;
//! * `columnar-mem-delta` — an [`MvccStore`] that starts from *half* the
//!   scenario's records and streams the rest in as delta commits (inserts,
//!   self-updates of base rows, and insert-then-correct updates), so every
//!   scenario also differentially tests the base+delta merge path;
//! * `columnar-disk-wal` — the same ingest against a disk-backed
//!   [`MvccStore`] on a [`FaultVfs`], with a mid-stream compaction and a
//!   full reopen (WAL replay + fold-watermark skip) before answering;
//! * `row`, `rdf`, `graphdb` — the three baseline systems.
//!
//! Every disk row reads format v3, the only format written. Reading the
//! legacy v2 format — alone and mixed with v3 generations — is tested
//! against a checked-in v2 store (`tests/v2_fixture.rs`).

use std::path::PathBuf;
use std::sync::Arc;

use graphbi::disk::{load_store, save_store, save_store_with, DiskGraphStore};
use graphbi::{
    AggFn, EvalOptions, GraphQuery, GraphStore, MvccStore, PathAggQuery, PathAggResult, QueryExpr,
    QueryRequest, QueryResult, RecordId, Session,
};
use graphbi_baselines::{Engine, GraphDb, RdfStore, RowStore};
use graphbi_columnstore::{DeltaOp, FaultVfs, Verify};
use graphbi_graph::RecordBuilder;

use crate::scenario::Scenario;

/// The unified engine interface (re-exported under the matrix's historical
/// name): one trait for baselines and columnar configurations alike.
pub use graphbi_baselines::Engine as MatrixEngine;

/// Intentional bug injection, for validating that the oracle catches and
/// shrinks real discrepancies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// No fault: the matrix under test.
    None,
    /// Swap the operands of every ANDNOT in the in-memory columnar
    /// engines' expression plans (`a − b` becomes `b − a`).
    FlipAndNot,
}

impl Fault {
    fn apply(self, expr: &QueryExpr) -> QueryExpr {
        match self {
            Fault::None => expr.clone(),
            Fault::FlipAndNot => flip_and_not(expr),
        }
    }
}

fn flip_and_not(expr: &QueryExpr) -> QueryExpr {
    match expr {
        QueryExpr::Atom(q) => QueryExpr::Atom(q.clone()),
        QueryExpr::And(a, b) => QueryExpr::and(flip_and_not(a), flip_and_not(b)),
        QueryExpr::Or(a, b) => QueryExpr::or(flip_and_not(a), flip_and_not(b)),
        QueryExpr::AndNot(a, b) => QueryExpr::and_not(flip_and_not(b), flip_and_not(a)),
    }
}

struct ColumnarMem {
    store: Arc<GraphStore>,
    opts: EvalOptions,
    shards: usize,
    fault: Fault,
    label: String,
}

impl ColumnarMem {
    fn request(&self, kind: QueryRequest) -> QueryRequest {
        kind.opts(self.opts).shards(self.shards)
    }
}

impl Engine for ColumnarMem {
    fn name(&self) -> &str {
        &self.label
    }

    fn evaluate(&self, q: &GraphQuery) -> QueryResult {
        self.store
            .execute(&self.request(QueryRequest::new(q.clone())))
            .expect("mem evaluate")
            .0
            .into_records()
            .expect("graph request answers records")
    }

    fn record_count(&self) -> u64 {
        self.store.record_count()
    }

    fn size_in_bytes(&self) -> usize {
        self.store.size_in_bytes()
    }

    fn match_expr(&self, e: &QueryExpr) -> Option<Vec<RecordId>> {
        let e = self.fault.apply(e);
        Some(
            self.store
                .execute(&self.request(QueryRequest::expr(e)))
                .expect("mem expr")
                .0
                .into_matches()
                .expect("expr request answers matches")
                .to_vec(),
        )
    }

    fn path_aggregate(&self, paq: &PathAggQuery) -> Option<PathAggResult> {
        self.store
            .execute(&self.request(QueryRequest::aggregate(paq.clone())))
            .ok()
            .map(|(r, _)| {
                r.into_aggregates()
                    .expect("aggregate request answers aggregates")
            })
    }
}

struct ColumnarDisk {
    disk: Arc<DiskGraphStore>,
    opts: EvalOptions,
    shards: usize,
    label: String,
}

impl ColumnarDisk {
    fn request(&self, kind: QueryRequest) -> QueryRequest {
        kind.opts(self.opts).shards(self.shards)
    }
}

impl Engine for ColumnarDisk {
    fn name(&self) -> &str {
        &self.label
    }

    fn evaluate(&self, q: &GraphQuery) -> QueryResult {
        self.disk
            .execute(&self.request(QueryRequest::new(q.clone())))
            .expect("disk evaluate")
            .0
            .into_records()
            .expect("graph request answers records")
    }

    fn record_count(&self) -> u64 {
        self.disk.record_count()
    }

    fn size_in_bytes(&self) -> usize {
        // Columns are disk-resident; nothing stays pinned between queries.
        0
    }

    /// Native disk expression support (bitmap algebra over the disk
    /// structural path), unlike the baselines' set-algebra default.
    fn match_expr(&self, e: &QueryExpr) -> Option<Vec<RecordId>> {
        Some(
            self.disk
                .execute(&self.request(QueryRequest::expr(e.clone())))
                .expect("disk expr")
                .0
                .into_matches()
                .expect("expr request answers matches")
                .to_vec(),
        )
    }

    fn path_aggregate(&self, paq: &PathAggQuery) -> Option<PathAggResult> {
        self.disk
            .execute(&self.request(QueryRequest::aggregate(paq.clone())))
            .ok()
            .map(|(r, _)| {
                r.into_aggregates()
                    .expect("aggregate request answers aggregates")
            })
    }
}

/// An MVCC store answering through per-call snapshots. The store is fully
/// ingested before it joins the matrix, so repeated snapshots pin the same
/// epoch and every answer is repeat-deterministic.
struct ColumnarMvcc {
    store: Arc<MvccStore>,
    label: String,
}

impl Engine for ColumnarMvcc {
    fn name(&self) -> &str {
        &self.label
    }

    fn evaluate(&self, q: &GraphQuery) -> QueryResult {
        self.store
            .execute(&QueryRequest::new(q.clone()))
            .expect("mvcc evaluate")
            .0
            .into_records()
            .expect("graph request answers records")
    }

    fn record_count(&self) -> u64 {
        self.store.record_count()
    }

    fn size_in_bytes(&self) -> usize {
        0
    }

    fn match_expr(&self, e: &QueryExpr) -> Option<Vec<RecordId>> {
        Some(
            self.store
                .execute(&QueryRequest::expr(e.clone()))
                .expect("mvcc expr")
                .0
                .into_matches()
                .expect("expr request answers matches")
                .to_vec(),
        )
    }

    fn path_aggregate(&self, paq: &PathAggQuery) -> Option<PathAggResult> {
        self.store
            .execute(&QueryRequest::aggregate(paq.clone()))
            .ok()
            .map(|(r, _)| {
                r.into_aggregates()
                    .expect("aggregate request answers aggregates")
            })
    }
}

/// The delta-commit stream that turns a half-loaded base into the full
/// scenario, batched. Inserts arrive in scenario order (so insert `k` gets
/// record id `half + k`), every 5th base row is re-committed with its own
/// content (exercising the retired-base mask without changing answers),
/// and every 3rd insert first lands with perturbed measures and is then
/// corrected by an update — so the merge path sees genuine multi-version
/// chains while the visible state stays exactly `scenario.records`.
pub(crate) fn delta_batches(scenario: &Scenario, half: usize) -> Vec<Vec<DeltaOp>> {
    let mut ops: Vec<DeltaOp> = Vec::new();
    for i in (0..half).step_by(5) {
        ops.push(DeltaOp::Update(i as u32, scenario.records[i].clone()));
    }
    for (k, rec) in scenario.records[half..].iter().enumerate() {
        if k % 3 == 0 && rec.edge_count() > 0 {
            let mut b = RecordBuilder::with_capacity(rec.edge_count());
            for &(e, m) in rec.edges() {
                b.add(e, m + 1.0);
            }
            ops.push(DeltaOp::Insert(b.build()));
            ops.push(DeltaOp::Update((half + k) as u32, rec.clone()));
        } else {
            ops.push(DeltaOp::Insert(rec.clone()));
        }
    }
    ops.chunks(8).map(<[DeltaOp]>::to_vec).collect()
}

/// A base store over the first `half` scenario records, with the same view
/// advice as the full matrix store.
fn half_store(scenario: &Scenario, half: usize) -> GraphStore {
    let mut store = GraphStore::load(scenario.universe.clone(), &scenario.records[..half]);
    if scenario.view_budget > 0 {
        store.advise_views(&scenario.queries, scenario.view_budget);
    }
    if scenario.agg_view_budget > 0 {
        let _ = store.advise_agg_views(&scenario.queries, AggFn::Sum, scenario.agg_view_budget);
    }
    store
}

/// Relabels a baseline engine with its stable matrix label while
/// delegating every answer.
struct Labeled<E: Engine> {
    engine: E,
    label: &'static str,
}

impl<E: Engine> Engine for Labeled<E> {
    fn name(&self) -> &str {
        self.label
    }

    fn evaluate(&self, q: &GraphQuery) -> QueryResult {
        self.engine.evaluate(q)
    }

    fn record_count(&self) -> u64 {
        self.engine.record_count()
    }

    fn size_in_bytes(&self) -> usize {
        self.engine.size_in_bytes()
    }

    fn match_expr(&self, e: &QueryExpr) -> Option<Vec<RecordId>> {
        self.engine.match_expr(e)
    }

    fn path_aggregate(&self, paq: &PathAggQuery) -> Option<PathAggResult> {
        self.engine.path_aggregate(paq)
    }
}

/// The instantiated matrix for one scenario.
pub struct Matrix {
    /// Every engine configuration, ready to answer queries.
    pub engines: Vec<Box<dyn MatrixEngine>>,
    mem: Arc<GraphStore>,
    disk: Arc<DiskGraphStore>,
    dir: PathBuf,
}

/// Column-cache budget for the disk backend — small enough that larger
/// scenarios exercise eviction.
const DISK_CACHE_BYTES: usize = 64 << 10;

/// Shard count for the sharded matrix rows: odd and small, so shard
/// boundaries land mid-chunk on every scenario size.
const MATRIX_SHARDS: usize = 3;

impl Matrix {
    /// Builds every engine configuration from a scenario. `fault` injects
    /// an intentional bug into the in-memory columnar engines (see
    /// [`Fault`]).
    pub fn build(scenario: &Scenario, fault: Fault) -> Matrix {
        let mut store = GraphStore::load(scenario.universe.clone(), &scenario.records);
        if scenario.view_budget > 0 {
            store.advise_views(&scenario.queries, scenario.view_budget);
        }
        if scenario.agg_view_budget > 0 {
            // Advise for SUM; MIN gets whatever budget produces. Advisory
            // failures (e.g. cyclic patterns) are not scenario failures.
            let _ = store.advise_agg_views(&scenario.queries, AggFn::Sum, scenario.agg_view_budget);
        }

        // Unique per (process, build) so parallel tests on the same seed
        // never share a directory.
        static NEXT_DIR: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "graphbi-testkit-{}-{:x}-{}",
            std::process::id(),
            scenario.seed,
            NEXT_DIR.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        save_store(&store, &dir).expect("save scenario database");
        let disk = Arc::new(DiskGraphStore::open(&dir, DISK_CACHE_BYTES).expect("open disk store"));
        let reloaded = Arc::new(load_store(&dir).expect("reload scenario database"));
        let mem = Arc::new(store);

        let mut engines: Vec<Box<dyn MatrixEngine>> = Vec::new();
        for (opts, mode) in [
            (EvalOptions::default(), "views"),
            (EvalOptions::oblivious(), "oblivious"),
        ] {
            engines.push(Box::new(ColumnarMem {
                store: Arc::clone(&mem),
                opts,
                shards: 1,
                fault,
                label: format!("columnar-mem-{mode}"),
            }));
            engines.push(Box::new(ColumnarDisk {
                disk: Arc::clone(&disk),
                opts,
                shards: 1,
                label: format!("columnar-disk-{mode}"),
            }));
        }
        // Sharded rows: same stores, horizontal record sharding — results
        // must be indistinguishable from the serial rows.
        engines.push(Box::new(ColumnarMem {
            store: Arc::clone(&mem),
            opts: EvalOptions::default(),
            shards: MATRIX_SHARDS,
            fault,
            label: "columnar-mem-views-sharded".into(),
        }));
        engines.push(Box::new(ColumnarDisk {
            disk: Arc::clone(&disk),
            opts: EvalOptions::default(),
            shards: MATRIX_SHARDS,
            label: "columnar-disk-views-sharded".into(),
        }));
        engines.push(Box::new(ColumnarMem {
            store: reloaded,
            opts: EvalOptions::default(),
            shards: 1,
            fault: Fault::None,
            label: "columnar-reloaded-views".into(),
        }));
        // The same database saved and reopened through the in-memory
        // fault-injection VFS with no fault armed — the crash fuzzer's
        // substrate answering as an ordinary matrix row proves FaultVfs
        // itself is semantically transparent.
        let fvfs = Arc::new(FaultVfs::new(scenario.seed));
        let fdir = PathBuf::from("/matrixdb");
        save_store_with(fvfs.as_ref(), &mem, &fdir).expect("save through FaultVfs");
        let fdisk = Arc::new(
            DiskGraphStore::open_with(&fdir, DISK_CACHE_BYTES, fvfs, Verify::Checksums)
                .expect("open through FaultVfs"),
        );
        engines.push(Box::new(ColumnarDisk {
            disk: fdisk,
            opts: EvalOptions::default(),
            shards: 1,
            label: "columnar-disk-faultvfs-views".into(),
        }));
        // The write path: half the records as an immutable base, the rest
        // streamed in as delta commits. Answers must match the reference
        // over the FULL record list — the merge, the WAL, the compaction
        // and the reopen are all under differential test on every scenario.
        let half = scenario.records.len() / 2;
        let batches = delta_batches(scenario, half);
        let mem_delta = MvccStore::new_mem(half_store(scenario, half));
        for batch in &batches {
            mem_delta.commit(batch).expect("mem delta commit");
        }
        engines.push(Box::new(ColumnarMvcc {
            store: Arc::new(mem_delta),
            label: "columnar-mem-delta".into(),
        }));
        let wal_vfs = Arc::new(FaultVfs::new(scenario.seed ^ 0x57a1));
        let wal_dir = PathBuf::from("/mvccdb");
        save_store_with(wal_vfs.as_ref(), &half_store(scenario, half), &wal_dir)
            .expect("save mvcc base through FaultVfs");
        let disk_delta = MvccStore::open_disk(
            &wal_dir,
            DISK_CACHE_BYTES,
            wal_vfs.clone(),
            Verify::Checksums,
        )
        .expect("open mvcc store");
        let mid = batches.len() / 2;
        for batch in &batches[..mid] {
            disk_delta.commit(batch).expect("wal commit");
        }
        disk_delta.compact().expect("mid-stream compaction");
        for batch in &batches[mid..] {
            disk_delta.commit(batch).expect("wal commit");
        }
        drop(disk_delta);
        // Reopen from the published generation + WAL: every scenario now
        // exercises replay, the fold watermark skip, and epoch resume.
        let reopened = MvccStore::open_disk(&wal_dir, DISK_CACHE_BYTES, wal_vfs, Verify::Checksums)
            .expect("reopen mvcc store");
        reopened.gc().expect("sweep unpinned generations");
        engines.push(Box::new(ColumnarMvcc {
            store: Arc::new(reopened),
            label: "columnar-disk-wal".into(),
        }));
        engines.push(Box::new(Labeled {
            engine: RowStore::load(&scenario.records),
            label: "row",
        }));
        engines.push(Box::new(Labeled {
            engine: RdfStore::load(&scenario.records),
            label: "rdf",
        }));
        engines.push(Box::new(Labeled {
            engine: GraphDb::load(&scenario.records, &scenario.universe),
            label: "graphdb",
        }));

        Matrix {
            engines,
            mem,
            disk,
            dir,
        }
    }

    /// The in-memory store, for batched [`Session`] cross-checks.
    pub fn mem_store(&self) -> &GraphStore {
        &self.mem
    }

    /// The disk store, for batched [`Session`] cross-checks.
    pub fn disk_store(&self) -> &DiskGraphStore {
        &self.disk
    }

    /// Structural-column costs of `q` on the in-memory store:
    /// `(view plan, oblivious plan)`.
    pub fn mem_structural_costs(&self, q: &GraphQuery) -> (u64, u64) {
        let (_, with_views) = self
            .mem
            .execute(&QueryRequest::new(q.clone()))
            .expect("mem evaluate");
        let (_, oblivious) = self
            .mem
            .execute(&QueryRequest::new(q.clone()).oblivious())
            .expect("mem evaluate");
        (
            with_views.structural_columns(),
            oblivious.structural_columns(),
        )
    }

    /// Disk-read costs of `q` on the disk store under a cold cache:
    /// `(view plan, oblivious plan)`.
    pub fn disk_cold_reads(&self, q: &GraphQuery) -> (u64, u64) {
        self.disk.relation().clear_cache();
        let (_, with_views) = self
            .disk
            .execute(&QueryRequest::new(q.clone()))
            .expect("disk evaluate");
        self.disk.relation().clear_cache();
        let (_, oblivious) = self
            .disk
            .execute(&QueryRequest::new(q.clone()).oblivious())
            .expect("disk evaluate");
        (with_views.disk_reads, oblivious.disk_reads)
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
