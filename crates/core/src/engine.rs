//! The query executor, written once for every backend.
//!
//! Query evaluation runs in phases: plan (rewrite over views), structural
//! (bitmap algebra), measure gather, and path aggregation. Each phase is
//! generic over [`ColumnSource`], the column-access contract that the
//! in-memory [`MasterRelation`] and the disk store's column handles both
//! implement. Both stores therefore share one plan and one cost accounting.

use std::ops::{Deref, Range};

use graphbi_bitmap::Bitmap;
use graphbi_columnstore::{AggViewId, IoStats, MasterRelation, SparseColumn, ViewId};
use graphbi_graph::{
    AggState, EdgeId, GraphError, GraphQuery, PathAggQuery, PathAggResult, QueryExpr, QueryResult,
    Universe,
};
use graphbi_views::{cover_path, rewrite_query_ranked, PathSegment, Rewrite};

use crate::session::{QueryRequest, RequestKind, Response};
use crate::viewmgr::{AggViewDef, ViewCatalog};

/// Evaluation knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvalOptions {
    /// Rewrite queries over materialized views (`false` reproduces the
    /// paper's "oblivious" baseline plans).
    pub use_views: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions { use_views: true }
    }
}

impl EvalOptions {
    /// The view-oblivious plan.
    pub fn oblivious() -> EvalOptions {
        EvalOptions { use_views: false }
    }
}

/// Column access for the executor: the relation `R(recid, m1..mn, b1..bn)`
/// plus its view columns, wherever they live.
///
/// The four fetch methods count the logical fetch on `stats` exactly as
/// the paper's cost model does (one per column). Disk sources also charge
/// `disk_reads`/`disk_bytes` there. Every other counter is charged by the
/// executor, so both backends report the same logical [`IoStats`].
pub(crate) trait ColumnSource: Copy {
    /// A fetched bitmap column.
    type Bits: Deref<Target = Bitmap>;
    /// A fetched measure or aggregate-view column.
    type Col: Deref<Target = SparseColumn> + Sync;
    /// Why a fetch failed.
    type Error;

    /// Number of records (ids are `0..record_count`).
    fn record_count(&self) -> u64;
    /// The vertical sub-relation holding `edge`'s columns.
    fn partition_of(&self, edge: EdgeId) -> usize;
    /// Selectivity hint for a graph view's bitmap. It is cheap, performs no
    /// counted fetch, and only breaks coverage ties in the rewriter.
    fn view_hint(&self, view: ViewId) -> u64;
    /// Fetches the bitmap index column `b_edge`.
    fn edge_bitmap(&self, edge: EdgeId, stats: &mut IoStats) -> Result<Self::Bits, Self::Error>;
    /// Fetches a graph-view bitmap.
    fn view_bitmap(&self, view: ViewId, stats: &mut IoStats) -> Result<Self::Bits, Self::Error>;
    /// Fetches the measure column `m_edge`.
    fn edge_measures(&self, edge: EdgeId, stats: &mut IoStats) -> Result<Self::Col, Self::Error>;
    /// Fetches an aggregate-view column.
    fn agg_view(&self, view: AggViewId, stats: &mut IoStats) -> Result<Self::Col, Self::Error>;

    /// Partition-touch accounting: counts the distinct sub-relations that
    /// `edges` span.
    fn note_partitions(&self, edges: &[EdgeId], stats: &mut IoStats) {
        let mut parts: Vec<usize> = edges.iter().map(|&e| self.partition_of(e)).collect();
        parts.sort_unstable();
        parts.dedup();
        stats.partitions_touched += parts.len() as u64;
    }

    /// The horizontal record shards for an `shards`-way parallel scan.
    fn shard_ranges(&self, shards: usize) -> Vec<Range<u32>> {
        graphbi_columnstore::shard_ranges(self.record_count(), shards)
    }
}

impl<'r> ColumnSource for &'r MasterRelation {
    type Bits = &'r Bitmap;
    type Col = &'r SparseColumn;
    type Error = std::convert::Infallible;

    fn record_count(&self) -> u64 {
        MasterRelation::record_count(self)
    }

    fn partition_of(&self, edge: EdgeId) -> usize {
        MasterRelation::partition_of(self, edge)
    }

    fn view_hint(&self, view: ViewId) -> u64 {
        self.view_bitmap_uncounted(view).cardinality_hint()
    }

    fn edge_bitmap(&self, edge: EdgeId, stats: &mut IoStats) -> Result<&'r Bitmap, Self::Error> {
        Ok(MasterRelation::edge_bitmap(self, edge, stats))
    }

    fn view_bitmap(&self, view: ViewId, stats: &mut IoStats) -> Result<&'r Bitmap, Self::Error> {
        Ok(MasterRelation::view_bitmap(self, view, stats))
    }

    fn edge_measures(
        &self,
        edge: EdgeId,
        stats: &mut IoStats,
    ) -> Result<&'r SparseColumn, Self::Error> {
        Ok(MasterRelation::edge_measures(self, edge, stats))
    }

    fn agg_view(
        &self,
        view: AggViewId,
        stats: &mut IoStats,
    ) -> Result<&'r SparseColumn, Self::Error> {
        Ok(MasterRelation::agg_view(self, view, stats))
    }
}

/// Intersects the plan's bitmaps, already ordered cheapest-first. When
/// `shards > 1` it splits the record space into `shards` horizontal ranges
/// and evaluates them on worker threads. The per-shard conjunctions touch
/// disjoint record ranges, so stitching them back in range order yields
/// exactly the serial intersection.
///
/// Only the cheapest operand is sliced per shard. The slice confines the
/// conjunction to the shard's record range, so [`Bitmap::and_ordered`] with
/// the *whole* remaining bitmaps stays range-confined for free. A shard whose
/// accumulator drains skips its remaining operands entirely.
fn and_many_sharded(ordered: &[&Bitmap], record_count: u64, shards: usize) -> Bitmap {
    let mut sp = graphbi_obs::span("phase.structural");
    let out = match ordered {
        [] => Bitmap::new(),
        [first, ..] if first.is_empty() => Bitmap::new(),
        [first, rest @ ..] if shards > 1 && record_count > 0 => {
            let ranges = graphbi_columnstore::shard_ranges(record_count, shards);
            let parts = crate::parallel::run_indexed(ranges.len(), shards, |s| {
                let mut shard_sp = graphbi_obs::span("shard.structural");
                shard_sp.attr("shard", s as u64);
                let acc = Bitmap::and_ordered(&first.slice(ranges[s].clone()), rest);
                shard_sp.attr("matches", acc.len());
                acc
            });
            drop(sp);
            sp = graphbi_obs::span("phase.merge");
            sp.attr("parts", parts.len() as u64);
            let mut out = Bitmap::new();
            for p in &parts {
                out.append_disjoint(p);
            }
            out
        }
        [first, rest @ ..] => Bitmap::and_ordered(first, rest),
    };
    sp.attr("matches", out.len());
    out
}

/// Structural phase: the bitmap of records containing the query graph.
///
/// The plan fetches every bitmap it will intersect once, up front, and
/// counts each fetch. It then orders them cheapest-first by
/// [`Bitmap::cardinality_hint`], the only sort on this path, which keeps the
/// conjunction accumulator as small as possible from the first AND on.
pub(crate) fn structural<S: ColumnSource>(
    src: S,
    catalog: &ViewCatalog,
    query: &GraphQuery,
    opts: EvalOptions,
    shards: usize,
    stats: &mut IoStats,
) -> Result<Bitmap, S::Error> {
    let mut sp = graphbi_obs::span("phase.plan");
    if query.is_empty() {
        sp.attr("estimated_matches", src.record_count());
        return Ok(Bitmap::from_range(
            0..u32::try_from(src.record_count()).expect("record count fits u32"),
        ));
    }
    let (base_before, view_before) = (stats.bitmap_columns, stats.view_bitmap_columns);
    let plan = if opts.use_views && !catalog.graph_views.is_empty() {
        // Coverage ties in the set cover go to the most selective view,
        // ranked by a hint that costs no counted fetch.
        rewrite_query_ranked(query, &catalog.graph_view_edges(), |vi| {
            src.view_hint(catalog.graph_views[vi].id)
        })
    } else {
        Rewrite::oblivious(query)
    };
    let mut handles: Vec<S::Bits> = Vec::with_capacity(plan.bitmap_cost());
    for &vi in &plan.views {
        handles.push(src.view_bitmap(catalog.graph_views[vi].id, stats)?);
    }
    for &e in &plan.residual_edges {
        handles.push(src.edge_bitmap(e, stats)?);
    }
    if !plan.residual_edges.is_empty() {
        src.note_partitions(&plan.residual_edges, stats);
    }
    handles.sort_by_key(|b| b.cardinality_hint());
    let ordered: Vec<&Bitmap> = handles.iter().map(|b| &**b).collect();
    if sp.is_live() {
        sp.attr("bitmap_columns", stats.bitmap_columns - base_before);
        sp.attr(
            "view_bitmap_columns",
            stats.view_bitmap_columns - view_before,
        );
        // The plan's match estimate: the rarest bitmap bounds the result
        // (the same quantity `GraphStore::explain` reports).
        sp.attr(
            "estimated_matches",
            ordered.first().map_or(0, |b| b.cardinality_hint()),
        );
    }
    drop(sp);
    Ok(and_many_sharded(&ordered, src.record_count(), shards))
}

/// Evaluates a logical combination of graph queries as bitmap algebra
/// (§3.2): `AND → ∩`, `OR → ∪`, `AND NOT → −`.
pub(crate) fn eval_expr<S: ColumnSource>(
    src: S,
    catalog: &ViewCatalog,
    expr: &QueryExpr,
    opts: EvalOptions,
    shards: usize,
    stats: &mut IoStats,
) -> Result<Bitmap, S::Error> {
    let mut side = |e: &QueryExpr| eval_expr(src, catalog, e, opts, shards, stats);
    Ok(match expr {
        QueryExpr::Atom(q) => structural(src, catalog, q, opts, shards, stats)?,
        QueryExpr::And(a, b) => side(a)?.and(&side(b)?),
        QueryExpr::Or(a, b) => side(a)?.or(&side(b)?),
        QueryExpr::AndNot(a, b) => side(a)?.and_not(&side(b)?),
    })
}

/// Runs `compute` over `ids`, split into `shards` record ranges on worker
/// threads when `shards > 1`. Each block is record-major over a disjoint,
/// ordered range, so the blocks concatenate into the serial output.
fn per_shard<S: ColumnSource>(
    src: S,
    ids: &Bitmap,
    shards: usize,
    sp: graphbi_obs::Span,
    compute: impl Fn(&Bitmap) -> Vec<f64> + Sync,
) -> Vec<f64> {
    if shards <= 1 {
        return compute(ids);
    }
    let ranges = src.shard_ranges(shards);
    let blocks = crate::parallel::run_indexed(ranges.len(), shards, |s| {
        let mut shard_sp = graphbi_obs::span("shard.measure");
        shard_sp.attr("shard", s as u64);
        compute(&ids.slice(ranges[s].clone()))
    });
    drop(sp);
    let mut sp = graphbi_obs::span("phase.merge");
    sp.attr("parts", blocks.len() as u64);
    blocks.concat()
}

/// Measure-fetch phase: the record-major measure matrix of `edges` over the
/// matching records.
///
/// Columns are gathered per vertical partition. When the query spans
/// several sub-relations, the per-partition row groups are stitched back
/// together by record id. That is the §6.1 recid join, whose cost
/// [`IoStats::join_rows`] tracks and Figure 5 measures.
pub(crate) fn fetch_measure_matrix<S: ColumnSource>(
    src: S,
    edges: &[EdgeId],
    ids: &Bitmap,
    shards: usize,
    stats: &mut IoStats,
) -> Result<Vec<f64>, S::Error> {
    let n = usize::try_from(ids.len()).expect("result fits usize");
    let w = edges.len();
    let mut sp = graphbi_obs::span("phase.measure");
    if w == 0 || n == 0 {
        // Provably-empty result: no row can reference any measure column, so
        // the planner skips the fetches outright. The count depends only on
        // `ids`, never the shard split, so serial and sharded runs agree.
        stats.fetches_skipped += w as u64;
        sp.attr("fetches_skipped", w as u64);
        return Ok(Vec::new());
    }
    let parts_before = stats.partitions_touched;
    src.note_partitions(edges, stats);
    let parts = stats.partitions_touched - parts_before;
    if parts > 1 {
        // Every result row participates in (parts−1) recid joins.
        stats.join_rows += n as u64 * (parts - 1);
    }

    // Fetch (and cost-account) every column once up front, whatever the
    // shard count; shard workers only gather from the shared handles.
    let cols = edges
        .iter()
        .map(|&e| src.edge_measures(e, stats))
        .collect::<Result<Vec<S::Col>, _>>()?;
    stats.values_fetched += (n * w) as u64;
    if sp.is_live() {
        sp.attr("measure_columns", w as u64);
        sp.attr("values_fetched", (n * w) as u64);
    }

    Ok(per_shard(src, ids, shards, sp, |sub| {
        let sn = usize::try_from(sub.len()).expect("result fits usize");
        let mut block = vec![0.0f64; sn * w];
        for (j, col) in cols.iter().enumerate() {
            // Fused gather-transpose: each value streams straight into its
            // record-major slot (the join's output materialization) without
            // an intermediate column vector.
            let mut i = 0;
            col.fold_over(sub, |v| {
                block[i * w + j] = v;
                i += 1;
            });
            debug_assert_eq!(i, sn, "result ids must be subset of presence");
        }
        block
    }))
}

/// Full graph-query evaluation: matching records plus the measures of the
/// query's edges (§4.2's SELECT).
pub(crate) fn evaluate<S: ColumnSource>(
    src: S,
    catalog: &ViewCatalog,
    query: &GraphQuery,
    opts: EvalOptions,
    shards: usize,
    stats: &mut IoStats,
) -> Result<QueryResult, S::Error> {
    let ids = structural(src, catalog, query, opts, shards, stats)?;
    let edges = query.edges().to_vec();
    let measures = fetch_measure_matrix(src, &edges, &ids, shards, stats)?;
    Ok(QueryResult {
        records: ids.to_vec(),
        edges,
        measures,
    })
}

/// Path-aggregation phase (§3.4): per matching record, applies the query's
/// function along each maximal path, composing materialized aggregate views
/// where the tiling finds them.
///
/// The outer error is a failed column fetch. The inner one is a query-model
/// error (a cyclic query graph); it is found before any column is fetched.
pub(crate) fn path_aggregate<S: ColumnSource>(
    universe: &Universe,
    src: S,
    catalog: &ViewCatalog,
    paq: &PathAggQuery,
    opts: EvalOptions,
    shards: usize,
    stats: &mut IoStats,
) -> Result<Result<PathAggResult, GraphError>, S::Error> {
    let paths = match path_edges(universe, &paq.query) {
        Ok(p) => p,
        Err(e) => return Ok(Err(e)),
    };
    let ids = structural(src, catalog, &paq.query, opts, shards, stats)?;
    let n = usize::try_from(ids.len()).expect("result fits usize");
    let path_count = paths.len();

    let (avail_idx, avail_seqs) = if opts.use_views {
        catalog.compatible_agg_views(paq.func)
    } else {
        (Vec::new(), Vec::new())
    };

    // One measure source per fetched column, in the exact order the fold
    // merges them into the per-record state: cover segments first (views
    // merge pre-aggregated states, edges push raw values), then the path's
    // self-edge extras.
    enum Source<'a, C> {
        View { def: &'a AggViewDef, col: C },
        Edge(C),
    }

    // Plan phase: resolve every path's sources once and count every fetch
    // here. Shard workers never touch stats.
    let mut sp = graphbi_obs::span("phase.plan");
    let before = (
        stats.measure_columns,
        stats.agg_view_columns,
        stats.fetches_skipped,
    );
    let mut plans: Vec<Vec<Source<S::Col>>> = Vec::with_capacity(path_count);
    for (cons, extras) in &paths {
        let cover = cover_path(cons, &avail_seqs);
        if n == 0 {
            // No matching record: every source fetch this path would have
            // made is provably useless, so skip (and count) them all. The
            // skip depends only on the structural result, keeping serial and
            // sharded stats identical.
            stats.fetches_skipped += (cover.segments.len() + extras.len()) as u64;
            plans.push(Vec::new());
            continue;
        }
        let mut sources = Vec::with_capacity(cover.segments.len() + extras.len());
        let mut fetched_base: Vec<EdgeId> = extras.clone();
        for seg in &cover.segments {
            match *seg {
                PathSegment::View { view, .. } => {
                    let def = &catalog.agg_views[avail_idx[view]];
                    let col = src.agg_view(def.id, stats)?;
                    sources.push(Source::View { def, col });
                }
                PathSegment::Edge(e) => {
                    sources.push(Source::Edge(src.edge_measures(e, stats)?));
                    fetched_base.push(e);
                }
            }
        }
        for &e in extras {
            sources.push(Source::Edge(src.edge_measures(e, stats)?));
        }
        stats.values_fetched += (n * sources.len()) as u64;
        if !fetched_base.is_empty() {
            src.note_partitions(&fetched_base, stats);
        }
        plans.push(sources);
    }
    if sp.is_live() {
        sp.attr("measure_columns", stats.measure_columns - before.0);
        sp.attr("agg_view_columns", stats.agg_view_columns - before.1);
        sp.attr("fetches_skipped", stats.fetches_skipped - before.2);
    }
    drop(sp);

    // Compute phase: fold each record's sources in plan order. Records are
    // independent, so a shard computes its record range's block without
    // changing any per-record operation order. Values come out identical
    // to the serial pass.
    let sp = graphbi_obs::span("phase.measure");
    let values = per_shard(src, &ids, shards, sp, |sub| {
        let sn = usize::try_from(sub.len()).expect("result fits usize");
        let mut values = vec![f64::NAN; sn * path_count];
        for (pi, sources) in plans.iter().enumerate() {
            let mut states = vec![AggState::empty(); sn];
            for source in sources {
                // Fused gather-aggregate: measure values stream from the
                // column straight into the per-record aggregate states, with
                // no intermediate value vector.
                let mut i = 0;
                match source {
                    Source::View { def, col } => col.fold_over(sub, |v| {
                        states[i].merge(&def.state_of(v));
                        i += 1;
                    }),
                    Source::Edge(col) => col.fold_over(sub, |v| {
                        states[i].push(v);
                        i += 1;
                    }),
                }
            }
            for (i, s) in states.iter().enumerate() {
                // NaN marks "no measured element on this path for this
                // record" (SQL NULL); COUNT still finalizes to zero.
                values[i * path_count + pi] = s.finalize(paq.func).unwrap_or(f64::NAN);
            }
        }
        values
    });

    Ok(Ok(PathAggResult {
        records: ids.to_vec(),
        path_count,
        values,
    }))
}

/// One maximal path: its consecutive edges in path order, then the self-edge
/// elements not among them.
type PathEdges = (Vec<EdgeId>, Vec<EdgeId>);

/// The maximal paths of `query`.
fn path_edges(universe: &Universe, query: &GraphQuery) -> Result<Vec<PathEdges>, GraphError> {
    let mut out = Vec::new();
    for path in query.maximal_paths(universe)? {
        let cons: Vec<EdgeId> = path
            .nodes()
            .windows(2)
            .map(|w| {
                universe
                    .find_edge(w[0], w[1])
                    .expect("maximal path edges exist in universe")
            })
            .collect();
        let extras: Vec<EdgeId> = path
            .elements(universe)?
            .into_iter()
            .filter(|e| !cons.contains(e))
            .collect();
        out.push((cons, extras));
    }
    Ok(out)
}

/// Executes one request against `src`. As in [`path_aggregate`], the outer
/// error is a failed fetch and the inner one a query-model error; each
/// backend wraps them its own way.
pub(crate) fn execute<S: ColumnSource>(
    universe: &Universe,
    src: S,
    catalog: &ViewCatalog,
    request: &QueryRequest,
) -> Result<Result<(Response, IoStats), GraphError>, S::Error> {
    let (opts, shards) = (request.options, request.shards);
    let mut stats = IoStats::new();
    let response = match &request.kind {
        RequestKind::Graph(q) => {
            Response::Records(evaluate(src, catalog, q, opts, shards, &mut stats)?)
        }
        RequestKind::Expr(e) => {
            Response::Matches(eval_expr(src, catalog, e, opts, shards, &mut stats)?)
        }
        RequestKind::Aggregate(p) => {
            match path_aggregate(universe, src, catalog, p, opts, shards, &mut stats)? {
                Ok(r) => Response::Aggregates(r),
                Err(e) => return Ok(Err(e)),
            }
        }
    };
    Ok(Ok((response, stats)))
}
