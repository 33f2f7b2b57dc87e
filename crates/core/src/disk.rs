//! The disk-resident store: the paper's actual operating regime.
//!
//! [`GraphStore`] keeps every column in memory. The paper instead ran
//! hundreds of gigabytes off one HDD, where the cost of a query *is* the
//! columns it reads. [`DiskGraphStore`] reproduces that. It opens a saved
//! database directory and pulls bitmap and measure columns from disk on
//! demand through a byte-budgeted cache.
//!
//! This module evaluates nothing itself. Its column handles (`Cols`: the
//! [`DiskRelation`] plus an optional per-batch pin map) implement the
//! executor's `ColumnSource` trait, so the disk store runs the in-memory
//! store's plan, gather and aggregation code. Answers and logical
//! [`IoStats`] therefore match the in-memory store exactly (asserted by the
//! disk_store integration tests). Under a cold cache,
//! `IoStats::disk_reads` *is* the paper's cost model.
//!
//! ```no_run
//! # use graphbi::disk::DiskGraphStore;
//! let store = DiskGraphStore::open("db/ny".as_ref(), 64 << 20)?;
//! let q = store.parse_query("[A,D,E,G,I]")?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::path::Path;

use graphbi_bitmap::Bitmap;
use graphbi_columnstore::{
    os_vfs, persist, AggViewId, BitmapRef, ColumnRef, DiskRelation, IoStats, StoreError, Verify,
    Vfs, VfsHandle, ViewId,
};
use graphbi_graph::{
    AggFn, EdgeId, GraphError, GraphQuery, PathAggQuery, PathAggResult, QueryResult, Universe,
    UniverseIoError,
};

use crate::engine::{self, ColumnSource, EvalOptions};
use crate::session::{evaluate_batch, QueryRequest, Response, Session, SessionError};
use crate::viewmgr::{base_kind, AggViewDef, GraphViewDef, ViewCatalog};
use crate::GraphStore;

/// Errors from the disk store.
#[derive(Debug)]
pub enum DiskError {
    /// Storage-layer failure.
    Store(StoreError),
    /// Universe file failure.
    Universe(UniverseIoError),
    /// Query-model failure (e.g. cyclic aggregation).
    Graph(GraphError),
    /// The views metadata file was malformed.
    ViewsMeta(&'static str),
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Store(e) => write!(f, "storage: {e}"),
            DiskError::Universe(e) => write!(f, "universe: {e}"),
            DiskError::Graph(e) => write!(f, "query: {e}"),
            DiskError::ViewsMeta(what) => write!(f, "views metadata: {what}"),
        }
    }
}

impl DiskError {
    /// True when the error reports damaged or partial on-disk state (a
    /// failed checksum, truncated file, or malformed metadata) rather than
    /// an environmental failure or a query-model error.
    pub fn is_corruption(&self) -> bool {
        match self {
            DiskError::Store(e) => e.is_corruption(),
            DiskError::Universe(e) => matches!(e, UniverseIoError::Format { .. }),
            DiskError::ViewsMeta(_) => true,
            DiskError::Graph(_) => false,
        }
    }
}

impl std::error::Error for DiskError {}

impl From<StoreError> for DiskError {
    fn from(e: StoreError) -> Self {
        DiskError::Store(e)
    }
}
impl From<UniverseIoError> for DiskError {
    fn from(e: UniverseIoError) -> Self {
        DiskError::Universe(e)
    }
}
impl From<GraphError> for DiskError {
    fn from(e: GraphError) -> Self {
        DiskError::Graph(e)
    }
}

/// Sidecar name of the universe payload within a store directory.
const UNIVERSE_SIDECAR: &str = "universe.txt";
/// Sidecar name of the view-definition payload.
const VIEWS_META_SIDECAR: &str = "views_meta.txt";

/// Writes a complete database directory: relation, universe and view
/// definitions. [`DiskGraphStore::open`] (and the in-memory
/// [`load_store`] path) read it back. Returns bytes written.
pub fn save_store(store: &GraphStore, dir: &Path) -> Result<u64, DiskError> {
    save_store_with(os_vfs().as_ref(), store, dir)
}

/// [`save_store`] through an injectable [`Vfs`].
///
/// The universe and view definitions travel as sidecar blobs inside the
/// relation's save, so the *whole* store — columns, naming scheme, view
/// metadata — is published atomically by the manifest rename: a crash at
/// any point leaves a directory that opens as either the complete old
/// database or the complete new one.
pub fn save_store_with(vfs: &dyn Vfs, store: &GraphStore, dir: &Path) -> Result<u64, DiskError> {
    save_store_with_opts(vfs, store, dir, &[], &[])
}

/// [`save_store_with`], extended for the MVCC compaction path: publishes
/// `extra_sidecars` (e.g. the WAL fold watermark) atomically with the
/// relation, and spares the `keep` generations — those still pinned by
/// live snapshots — from the post-publish garbage collection.
pub(crate) fn save_store_with_opts(
    vfs: &dyn Vfs,
    store: &GraphStore,
    dir: &Path,
    extra_sidecars: &[(&str, &[u8])],
    keep: &[u64],
) -> Result<u64, DiskError> {
    // View definitions: the relation holds only the columns; the defs that
    // map them back to edge sets live in a text sidecar.
    let meta = store.catalog().render_meta();
    let universe = store.universe().to_text();
    let mut sidecars: Vec<(&str, &[u8])> = vec![
        (UNIVERSE_SIDECAR, universe.as_bytes()),
        (VIEWS_META_SIDECAR, meta.as_bytes()),
    ];
    sidecars.extend_from_slice(extra_sidecars);
    Ok(persist::save_with(
        vfs,
        store.relation(),
        &sidecars,
        dir,
        keep,
    )?)
}

/// Loads a database directory fully into memory, *reattaching* the
/// materialized views (unlike [`GraphStore::from_relation`], which must
/// drop them for lack of definitions).
pub fn load_store(dir: &Path) -> Result<GraphStore, DiskError> {
    load_store_with(os_vfs().as_ref(), dir, Verify::Checksums)
}

/// [`load_store`] through an injectable [`Vfs`], optionally skipping
/// payload checksum verification (see [`Verify`]).
pub fn load_store_with(vfs: &dyn Vfs, dir: &Path, verify: Verify) -> Result<GraphStore, DiskError> {
    let universe = parse_universe(&persist::read_sidecar(vfs, dir, UNIVERSE_SIDECAR)?)?;
    let relation = persist::load_with(vfs, dir, verify)?;
    let catalog = ViewCatalog::parse_meta(
        &persist::read_sidecar(vfs, dir, VIEWS_META_SIDECAR)?,
        relation.view_count(),
        relation.agg_view_count(),
    )?;
    Ok(GraphStore::with_catalog(universe, relation, catalog))
}

fn parse_universe(bytes: &[u8]) -> Result<Universe, DiskError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| DiskError::ViewsMeta("universe sidecar not utf-8"))?;
    Ok(Universe::parse_text(text)?)
}

/// The `views_meta.txt` codec: one line per view in column order,
/// `g <edge ids…>` for a graph view and `a <FUNC> <edge ids…>` for an
/// aggregate view.
impl ViewCatalog {
    fn render_meta(&self) -> String {
        let mut meta = String::new();
        for v in &self.graph_views {
            meta.push('g');
            for e in &v.edges {
                meta.push_str(&format!(" {}", e.0));
            }
            meta.push('\n');
        }
        for v in &self.agg_views {
            meta.push_str(&format!("a {}", v.func.name()));
            for e in &v.edges {
                meta.push_str(&format!(" {}", e.0));
            }
            meta.push('\n');
        }
        meta
    }

    /// Parses a sidecar written by [`ViewCatalog::render_meta`] for a
    /// relation holding `views` graph-view and `agg_views` aggregate-view
    /// columns. The `i`th definition of each kind names column `i`.
    fn parse_meta(bytes: &[u8], views: usize, agg_views: usize) -> Result<ViewCatalog, DiskError> {
        let meta = std::str::from_utf8(bytes)
            .map_err(|_| DiskError::ViewsMeta("views sidecar not utf-8"))?;
        let mut catalog = ViewCatalog::default();
        for line in meta.lines().filter(|l| !l.is_empty()) {
            let mut parts = line.split(' ');
            match parts.next() {
                Some("g") => {
                    let id = ViewId(u32::try_from(catalog.graph_views.len()).expect("fits u32"));
                    let edges = parse_edges(parts)?;
                    catalog.graph_views.push(GraphViewDef { edges, id });
                }
                Some("a") => {
                    let id = AggViewId(u32::try_from(catalog.agg_views.len()).expect("fits u32"));
                    let func = parse_agg_fn(parts.next())?;
                    catalog.agg_views.push(AggViewDef {
                        edges: parse_edges(parts)?,
                        func,
                        kind: base_kind(func),
                        id,
                    });
                }
                _ => return Err(DiskError::ViewsMeta("unknown view kind")),
            }
        }
        if catalog.graph_views.len() != views || catalog.agg_views.len() != agg_views {
            return Err(DiskError::ViewsMeta("definition/column count mismatch"));
        }
        Ok(catalog)
    }
}

fn parse_agg_fn(token: Option<&str>) -> Result<AggFn, DiskError> {
    match token {
        Some("SUM") => Ok(AggFn::Sum),
        Some("MIN") => Ok(AggFn::Min),
        Some("MAX") => Ok(AggFn::Max),
        Some("AVG") => Ok(AggFn::Avg),
        Some("COUNT") => Ok(AggFn::Count),
        _ => Err(DiskError::ViewsMeta("unknown aggregate function")),
    }
}

fn parse_edges<'a, I: Iterator<Item = &'a str>>(parts: I) -> Result<Vec<EdgeId>, DiskError> {
    parts
        .map(|p| {
            p.parse::<u32>()
                .map(EdgeId)
                .map_err(|_| DiskError::ViewsMeta("edge id not a number"))
        })
        .collect()
}

/// A read-only, disk-resident graph store.
pub struct DiskGraphStore {
    universe: Universe,
    relation: DiskRelation,
    catalog: ViewCatalog,
}

impl DiskGraphStore {
    /// Opens a database directory written by [`save_store`], with a column
    /// cache of `cache_bytes`.
    pub fn open(dir: &Path, cache_bytes: usize) -> Result<DiskGraphStore, DiskError> {
        DiskGraphStore::open_with(dir, cache_bytes, os_vfs(), Verify::Checksums)
    }

    /// [`DiskGraphStore::open`] through an injectable [`Vfs`]. Partial or
    /// damaged state (from a crash mid-save, a flipped bit at rest, …) is
    /// reported as a typed [`DiskError`] whose
    /// [`is_corruption`](DiskError::is_corruption) holds — never a panic.
    /// `verify` governs payload checksum verification on every later
    /// column fetch ([`Verify::TrustDisk`] exists for the fuzzer's
    /// teeth test only).
    pub fn open_with(
        dir: &Path,
        cache_bytes: usize,
        vfs: VfsHandle,
        verify: Verify,
    ) -> Result<DiskGraphStore, DiskError> {
        let relation = DiskRelation::open_with(dir, cache_bytes, vfs, verify)?;
        let universe = parse_universe(&relation.sidecar(UNIVERSE_SIDECAR)?)?;
        let catalog = ViewCatalog::parse_meta(
            &relation.sidecar(VIEWS_META_SIDECAR)?,
            relation.view_count(),
            relation.agg_view_count(),
        )?;
        Ok(DiskGraphStore {
            universe,
            relation,
            catalog,
        })
    }

    /// The naming scheme.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The disk relation (cache stats, record counts).
    pub fn relation(&self) -> &DiskRelation {
        &self.relation
    }

    /// Number of records.
    pub fn record_count(&self) -> u64 {
        self.relation.record_count()
    }

    /// Parses a query in the paper's bracket notation against this store's
    /// universe (see [`crate::ql`]); aggregation prefixes are rejected —
    /// use [`DiskGraphStore::path_aggregate`] with the parsed pattern.
    pub fn parse_query(&self, text: &str) -> Result<GraphQuery, crate::ql::QlError> {
        let tokens = crate::ql::lex(text).map_err(crate::ql::QlError::Lex)?;
        let statement = crate::ql::parse(&tokens).map_err(crate::ql::QlError::Parse)?;
        match crate::ql::resolve(&statement, &self.universe).map_err(crate::ql::QlError::Resolve)? {
            crate::ql::Resolved::Expr(graphbi_graph::QueryExpr::Atom(q)) => Ok(q),
            crate::ql::Resolved::Agg(paq) => Ok(paq.query),
            _ => Err(crate::ql::QlError::Resolve(
                crate::ql::ResolveError::AggregateOverLogic,
            )),
        }
    }

    /// Structural phase: records containing the query graph, rewritten over
    /// the stored graph views.
    pub fn match_records(
        &self,
        query: &GraphQuery,
        stats: &mut IoStats,
    ) -> Result<Bitmap, DiskError> {
        let opts = EvalOptions::default();
        Ok(engine::structural(
            self.cols(None),
            &self.catalog,
            query,
            opts,
            1,
            stats,
        )?)
    }

    /// Full graph-query evaluation.
    pub fn evaluate(&self, query: &GraphQuery) -> Result<(QueryResult, IoStats), DiskError> {
        let mut stats = IoStats::new();
        let opts = EvalOptions::default();
        let result = engine::evaluate(self.cols(None), &self.catalog, query, opts, 1, &mut stats)?;
        Ok((result, stats))
    }

    /// Path aggregation, composing stored aggregate views.
    pub fn path_aggregate(
        &self,
        paq: &PathAggQuery,
    ) -> Result<(PathAggResult, IoStats), DiskError> {
        let mut stats = IoStats::new();
        let result = engine::path_aggregate(
            &self.universe,
            self.cols(None),
            &self.catalog,
            paq,
            EvalOptions::default(),
            1,
            &mut stats,
        )??;
        Ok((result, stats))
    }

    /// Column access through the relation's LRU cache, additionally pinned
    /// in `pins` when evaluating a batch.
    fn cols<'a>(&'a self, pins: Option<&'a Pins>) -> Cols<'a> {
        Cols {
            relation: &self.relation,
            pins,
        }
    }

    fn execute_with(
        &self,
        request: &QueryRequest,
        pins: Option<&Pins>,
    ) -> Result<(Response, IoStats), SessionError> {
        let answer = engine::execute(&self.universe, self.cols(pins), &self.catalog, request)
            .map_err(DiskError::Store)?;
        Ok(answer.map_err(DiskError::Graph)?)
    }
}

impl Session for DiskGraphStore {
    /// `EXPLAIN ANALYZE` for the disk engine; additionally reports the
    /// column cache's hit/miss/eviction deltas over the request.
    fn profile(&self, request: &QueryRequest) -> Result<(Response, crate::Profile), SessionError> {
        crate::explain::profile_request(self, "disk", Some(self.relation()), request)
    }

    fn execute(&self, request: &QueryRequest) -> Result<(Response, IoStats), SessionError> {
        self.execute_with(request, None)
    }

    /// Batched evaluation with column-fetch sharing: one pin map holds
    /// every column any request touched alive for the whole batch, so a
    /// column is read from disk (and decoded) at most once per batch even
    /// when the LRU cache is smaller than the working set. Duplicate
    /// requests are answered once; each request's stats still count its
    /// own logical fetches, while `disk_reads`/`disk_bytes` land on the
    /// request that first pulled the column.
    fn evaluate_many(
        &self,
        requests: &[QueryRequest],
    ) -> Result<Vec<(Response, IoStats)>, SessionError> {
        let pins = Pins::default();
        evaluate_batch(requests, |r| self.execute_with(r, Some(&pins)))
    }
}

/// One batch-wide pin map, keyed by column id.
type PinMap<R> = parking_lot::Mutex<HashMap<u32, R>>;

/// Batch-wide column pins: fetched handles keyed by column id. A hit hands
/// out a clone of the held `Arc` handle — no LRU traffic, no disk read —
/// and still counts the logical column fetch on the caller's stats.
#[derive(Default)]
struct Pins {
    bitmaps: PinMap<BitmapRef>,
    views: PinMap<BitmapRef>,
    measures: PinMap<ColumnRef>,
    aggs: PinMap<ColumnRef>,
}

/// The disk store's [`ColumnSource`]: straight through the relation's LRU
/// cache, or additionally pinned in a batch-wide map.
#[derive(Clone, Copy)]
struct Cols<'a> {
    relation: &'a DiskRelation,
    pins: Option<&'a Pins>,
}

/// Fetches through `map` when pinning: a hit bumps the logical fetch
/// counter `counter` selects and returns the held handle; a miss fetches
/// (which counts) and pins the result.
fn pinned<R: Clone>(
    map: Option<&PinMap<R>>,
    key: u32,
    stats: &mut IoStats,
    counter: fn(&mut IoStats) -> &mut u64,
    fetch: impl FnOnce(&mut IoStats) -> Result<R, StoreError>,
) -> Result<R, StoreError> {
    let Some(map) = map else {
        return fetch(stats);
    };
    let mut map = map.lock();
    if let Some(r) = map.get(&key) {
        *counter(stats) += 1;
        return Ok(r.clone());
    }
    let r = fetch(stats)?;
    map.insert(key, r.clone());
    Ok(r)
}

impl ColumnSource for Cols<'_> {
    type Bits = BitmapRef;
    type Col = ColumnRef;
    type Error = StoreError;

    fn record_count(&self) -> u64 {
        self.relation.record_count()
    }

    fn partition_of(&self, edge: EdgeId) -> usize {
        self.relation.partition_of(edge)
    }

    /// The view bitmap's encoded length, read from the in-memory directory:
    /// ranking costs no disk read and no counted fetch.
    fn view_hint(&self, view: ViewId) -> u64 {
        self.relation.view_bitmap_hint(view.0)
    }

    fn edge_bitmap(&self, edge: EdgeId, stats: &mut IoStats) -> Result<BitmapRef, StoreError> {
        let map = self.pins.map(|p| &p.bitmaps);
        pinned(
            map,
            edge.0,
            stats,
            |s| &mut s.bitmap_columns,
            |s| self.relation.edge_bitmap(edge, s),
        )
    }

    fn view_bitmap(&self, view: ViewId, stats: &mut IoStats) -> Result<BitmapRef, StoreError> {
        let map = self.pins.map(|p| &p.views);
        pinned(
            map,
            view.0,
            stats,
            |s| &mut s.view_bitmap_columns,
            |s| self.relation.view_bitmap(view.0, s),
        )
    }

    fn edge_measures(&self, edge: EdgeId, stats: &mut IoStats) -> Result<ColumnRef, StoreError> {
        let map = self.pins.map(|p| &p.measures);
        pinned(
            map,
            edge.0,
            stats,
            |s| &mut s.measure_columns,
            |s| self.relation.edge_measures(edge, s),
        )
    }

    fn agg_view(&self, view: AggViewId, stats: &mut IoStats) -> Result<ColumnRef, StoreError> {
        let map = self.pins.map(|p| &p.aggs);
        pinned(
            map,
            view.0,
            stats,
            |s| &mut s.agg_view_columns,
            |s| self.relation.agg_view(view.0, s),
        )
    }
}
