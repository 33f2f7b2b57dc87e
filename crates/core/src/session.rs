//! The unified query API: one request type, one trait, every backend.
//!
//! Evaluation used to sprawl into `evaluate`/`evaluate_with`,
//! `path_aggregate`/`path_aggregate_with`, … pairs duplicated across
//! [`crate::GraphStore`] and [`crate::disk::DiskGraphStore`]. A
//! [`QueryRequest`] folds the three knobs — the query itself, the
//! [`EvalOptions`] plan mode and the record-shard count — into one
//! builder, and the [`Session`] trait is the single entry point every
//! backend implements:
//!
//! ```
//! use graphbi::{EvalOptions, GraphQuery, GraphStore, QueryRequest, Session, Universe};
//! use graphbi_graph::RecordBuilder;
//!
//! let mut u = Universe::new();
//! let ad = u.edge_by_names("A", "D");
//! let mut r = RecordBuilder::new();
//! r.add(ad, 3.0);
//! let store = GraphStore::load(u, &[r.build()]);
//!
//! let req = QueryRequest::new(GraphQuery::from_edges(vec![ad]))
//!     .opts(EvalOptions::oblivious())
//!     .shards(8);
//! let (response, stats) = store.execute(&req)?;
//! assert_eq!(response.into_records().unwrap().records, vec![0]);
//! assert_eq!(stats.bitmap_columns, 1);
//! # Ok::<(), graphbi::SessionError>(())
//! ```
//!
//! Both stores answer a request through the same executor (`engine`),
//! which is generic over the column-access trait `ColumnSource`. Only
//! column access differs per backend.
//!
//! Batched workloads go through [`Session::evaluate_many`]. The in-memory
//! and disk stores share one batch body, `evaluate_batch`: duplicate
//! requests are answered once, and the distinct ones run on a worker pool.
//! The disk store adds a per-batch pin map so each column is fetched at
//! most once per batch. An [`crate::MvccStore`] [`crate::Snapshot`] runs a
//! whole batch as of one pinned `(generation, epoch)`.

use graphbi_bitmap::Bitmap;
use graphbi_columnstore::IoStats;
use graphbi_graph::{GraphError, GraphQuery, PathAggQuery, PathAggResult, QueryExpr, QueryResult};

use crate::disk::DiskError;
use crate::engine::EvalOptions;

/// The payload of a [`QueryRequest`]: which kind of question is being asked.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestKind {
    /// Full graph-query evaluation: matching records plus their measures.
    Graph(GraphQuery),
    /// A logical combination of graph queries, answered as a record set.
    Expr(QueryExpr),
    /// Path aggregation along the query's maximal paths.
    Aggregate(PathAggQuery),
}

/// One fully-specified query: payload, plan options and parallelism.
///
/// Built fluently: `QueryRequest::new(q).opts(EvalOptions::oblivious())
/// .shards(8)`. Defaults are view-assisted planning and serial (1-shard)
/// execution, matching the classic `evaluate(&q)` behaviour.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRequest {
    /// What is being asked.
    pub kind: RequestKind,
    /// Plan options ([`EvalOptions::oblivious`] ignores materialized views).
    pub options: EvalOptions,
    /// Number of horizontal record shards to evaluate on worker threads;
    /// `0` or `1` is the serial path. Results are independent of the shard
    /// count — bitmaps bit-identical, aggregate values computed in the same
    /// per-record order.
    pub shards: usize,
}

impl QueryRequest {
    /// A graph-query request with default options, serial execution.
    pub fn new(query: GraphQuery) -> QueryRequest {
        QueryRequest::of(RequestKind::Graph(query))
    }

    /// A logical-expression request.
    pub fn expr(expr: QueryExpr) -> QueryRequest {
        QueryRequest::of(RequestKind::Expr(expr))
    }

    /// A path-aggregation request.
    pub fn aggregate(query: PathAggQuery) -> QueryRequest {
        QueryRequest::of(RequestKind::Aggregate(query))
    }

    pub(crate) fn of(kind: RequestKind) -> QueryRequest {
        QueryRequest {
            kind,
            options: EvalOptions::default(),
            shards: 1,
        }
    }

    /// Sets the plan options.
    pub fn opts(mut self, options: EvalOptions) -> QueryRequest {
        self.options = options;
        self
    }

    /// Shorthand for `.opts(EvalOptions::oblivious())`.
    pub fn oblivious(self) -> QueryRequest {
        self.opts(EvalOptions::oblivious())
    }

    /// Sets the record-shard count (`0`/`1` → serial).
    pub fn shards(mut self, shards: usize) -> QueryRequest {
        self.shards = shards;
        self
    }
}

/// The answer to a [`QueryRequest`], mirroring its [`RequestKind`].
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`RequestKind::Graph`].
    Records(QueryResult),
    /// Answer to [`RequestKind::Expr`].
    Matches(Bitmap),
    /// Answer to [`RequestKind::Aggregate`].
    Aggregates(PathAggResult),
}

impl Response {
    /// The graph-query result, if this answered a [`RequestKind::Graph`].
    pub fn into_records(self) -> Option<QueryResult> {
        match self {
            Response::Records(r) => Some(r),
            _ => None,
        }
    }

    /// The match set, if this answered a [`RequestKind::Expr`].
    pub fn into_matches(self) -> Option<Bitmap> {
        match self {
            Response::Matches(b) => Some(b),
            _ => None,
        }
    }

    /// The aggregation result, if this answered a
    /// [`RequestKind::Aggregate`].
    pub fn into_aggregates(self) -> Option<PathAggResult> {
        match self {
            Response::Aggregates(r) => Some(r),
            _ => None,
        }
    }
}

/// Errors from [`Session`] execution, covering every backend.
#[derive(Debug)]
pub enum SessionError {
    /// Query-model failure (e.g. cyclic path aggregation).
    Graph(GraphError),
    /// Disk-backend failure.
    Disk(DiskError),
    /// The operation is not supported by this backend.
    Unsupported(&'static str),
}

impl SessionError {
    /// The stable [`ErrorCode`](crate::ErrorCode) classifying this error
    /// (see [`crate::errcode`]) — what travels on the wire.
    pub fn code(&self) -> crate::ErrorCode {
        crate::errcode::Coded::code(self)
    }

    /// True when the error reports damaged or partial on-disk state — a
    /// 3xx-class [`ErrorCode`](crate::ErrorCode).
    pub fn is_corruption(&self) -> bool {
        self.code().is_corruption()
    }

    /// True when the failure is environmental and the identical request
    /// may succeed on retry — a 2xx-class [`ErrorCode`](crate::ErrorCode).
    pub fn is_transient(&self) -> bool {
        self.code().is_transient()
    }
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Graph(e) => write!(f, "query: {e}"),
            SessionError::Disk(e) => write!(f, "disk: {e}"),
            SessionError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<GraphError> for SessionError {
    fn from(e: GraphError) -> Self {
        SessionError::Graph(e)
    }
}

impl From<DiskError> for SessionError {
    fn from(e: DiskError) -> Self {
        SessionError::Disk(e)
    }
}

/// A backend that answers [`QueryRequest`]s.
///
/// Implemented by [`crate::GraphStore`] (in-memory),
/// [`crate::disk::DiskGraphStore`] (disk-resident), and
/// [`crate::MvccStore`] and its [`crate::Snapshot`]s (concurrent, under
/// snapshot isolation). Every implementation returns the
/// same answers for the same database — the differential test matrix in
/// `graphbi-testkit` drives them all through this trait.
pub trait Session {
    /// Executes one request.
    fn execute(&self, request: &QueryRequest) -> Result<(Response, IoStats), SessionError>;

    /// Executes a workload, one result per request in order.
    ///
    /// The default is a serial loop; backends override it to share work
    /// across the batch. Answers are always identical to executing each
    /// request alone (duplicated requests report the cost of their first
    /// occurrence).
    fn evaluate_many(
        &self,
        requests: &[QueryRequest],
    ) -> Result<Vec<(Response, IoStats)>, SessionError> {
        requests.iter().map(|r| self.execute(r)).collect()
    }

    /// `EXPLAIN ANALYZE`: executes `request` under a private span
    /// collector and returns the answer plus its [`crate::Profile`].
    ///
    /// Part of the trait so profiling needs no backend-specific entry
    /// point; backends override it to report their own backend label (and,
    /// on disk, column-cache deltas). Tracing never changes answers or
    /// logical [`IoStats`].
    fn profile(&self, request: &QueryRequest) -> Result<(Response, crate::Profile), SessionError> {
        crate::explain::profile_request(self, "session", None, request)
    }
}

/// The one batch body behind the stores' [`Session::evaluate_many`].
///
/// Duplicate requests are answered once. The distinct requests run through
/// `execute` on a worker pool sized by the batch's largest shard knob. Each
/// duplicate reports the stats of its first occurrence, so the batch's
/// summed cost reflects the work actually done.
pub(crate) fn evaluate_batch(
    requests: &[QueryRequest],
    execute: impl Fn(&QueryRequest) -> Result<(Response, IoStats), SessionError> + Sync,
) -> Result<Vec<(Response, IoStats)>, SessionError> {
    let (firsts, assign) = dedup_requests(requests);
    let threads = requests.iter().map(|r| r.shards).max().unwrap_or(1);
    let distinct = crate::parallel::run_indexed(firsts.len(), threads, |i| {
        let mut sp = graphbi_obs::span("request");
        sp.attr("request", firsts[i] as u64);
        let mut req = requests[firsts[i]].clone();
        if firsts.len() > 1 {
            // Workload-level parallelism owns the pool; nested per-request
            // sharding would oversubscribe it. Answers and stats are
            // shard-count independent, so this is pure scheduling.
            req.shards = 1;
        }
        execute(&req)
    });
    let distinct: Vec<(Response, IoStats)> = distinct.into_iter().collect::<Result<_, _>>()?;
    Ok(assign.iter().map(|&a| distinct[a].clone()).collect())
}

/// Deduplicated batch order: returns `(firsts, assign)` where `firsts`
/// holds the index of each distinct request's first occurrence and
/// `assign[i]` is the position in `firsts` answering request `i`.
pub(crate) fn dedup_requests(requests: &[QueryRequest]) -> (Vec<usize>, Vec<usize>) {
    let mut firsts: Vec<usize> = Vec::new();
    let mut assign: Vec<usize> = Vec::with_capacity(requests.len());
    for (i, r) in requests.iter().enumerate() {
        match firsts.iter().position(|&j| requests[j] == *r) {
            Some(p) => assign.push(p),
            None => {
                assign.push(firsts.len());
                firsts.push(i);
            }
        }
    }
    (firsts, assign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbi_graph::AggFn;

    fn q(ids: &[u32]) -> GraphQuery {
        GraphQuery::from_edges(ids.iter().map(|&i| graphbi_graph::EdgeId(i)).collect())
    }

    #[test]
    fn builder_sets_all_knobs() {
        let r = QueryRequest::new(q(&[1, 2])).oblivious().shards(8);
        assert_eq!(r.shards, 8);
        assert!(!r.options.use_views);
        assert!(matches!(r.kind, RequestKind::Graph(_)));
        let a = QueryRequest::aggregate(PathAggQuery::new(q(&[1]), AggFn::Sum));
        assert!(matches!(a.kind, RequestKind::Aggregate(_)));
        assert_eq!(a.shards, 1);
        assert!(a.options.use_views);
    }

    #[test]
    fn response_accessors_match_variants() {
        let m = Response::Matches(Bitmap::new());
        assert!(m.clone().into_matches().is_some());
        assert!(m.into_records().is_none());
    }

    #[test]
    fn dedup_assigns_duplicates_to_first() {
        let reqs = vec![
            QueryRequest::new(q(&[1])),
            QueryRequest::new(q(&[2])),
            QueryRequest::new(q(&[1])),
            QueryRequest::new(q(&[1])).shards(4), // different knobs: distinct
        ];
        let (firsts, assign) = dedup_requests(&reqs);
        assert_eq!(firsts, vec![0, 1, 3]);
        assert_eq!(assign, vec![0, 1, 0, 2]);
    }
}
