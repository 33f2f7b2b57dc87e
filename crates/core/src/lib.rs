#![warn(missing_docs)]

//! # graphbi — graph analytics on massive collections of small graphs
//!
//! A from-scratch Rust implementation of the EDBT 2014 framework of Bleco &
//! Kotidis: business-intelligence analytics over *collections* of small,
//! named-entity graph records (supply chains, workflows, service
//! provisioning), hosted in a column store with bitmap indexing and
//! materialized graph views.
//!
//! The public entry point is [`GraphStore`]:
//!
//! ```
//! use graphbi::GraphStore;
//! use graphbi_graph::{AggFn, GraphQuery, PathAggQuery, RecordBuilder, Universe};
//!
//! // A universe of named entities shared by records and queries.
//! let mut universe = Universe::new();
//! let ad = universe.edge_by_names("A", "D");
//! let de = universe.edge_by_names("D", "E");
//!
//! // Two delivery records with shipping-time measures.
//! let mut r1 = RecordBuilder::new();
//! r1.add(ad, 3.0).add(de, 4.0);
//! let mut r2 = RecordBuilder::new();
//! r2.add(ad, 5.0);
//! let records = vec![r1.build(), r2.build()];
//!
//! let mut store = GraphStore::load(universe, &records);
//!
//! // Which orders went A→D→E, and how long did each leg take?
//! let q = GraphQuery::from_edges(vec![ad, de]);
//! let (result, _stats) = store.evaluate(&q);
//! assert_eq!(result.records, vec![0]);
//! assert_eq!(result.row(0), &[3.0, 4.0]);
//!
//! // Total delivery time along the path, per matching record.
//! let (agg, _) = store.path_aggregate(&PathAggQuery::new(q, AggFn::Sum)).unwrap();
//! assert_eq!(agg.row(0), &[7.0]);
//! ```
//!
//! ## Architecture
//!
//! * Storage: one sparse measure column + bitmap column per edge id of the
//!   universe, vertically partitioned ([`graphbi_columnstore`]).
//! * Structural evaluation: a graph query is the conjunction of its edges'
//!   bitmaps; logical combinators map to bitmap algebra ([`QueryExpr`]).
//! * Views: [`GraphStore::materialize_graph_view`] precomputes a subgraph's
//!   bitmap; [`GraphStore::materialize_agg_view`] additionally stores a
//!   path's pre-aggregated measure. [`GraphStore::advise_views`] /
//!   [`GraphStore::advise_agg_views`] run the paper's greedy extended
//!   set-cover selection over a workload, and every evaluation rewrites the
//!   incoming query over whatever views exist.

pub mod disk;
mod engine;
pub mod errcode;
mod explain;
pub mod mvcc;
pub mod numtext;
pub mod parallel;
pub mod ql;
mod session;
mod statistics;
mod store;
mod topk;
mod viewmgr;
mod wire;

pub use engine::EvalOptions;
pub use errcode::{Coded, ErrorCode};
pub use explain::{PhaseStat, Plan, Profile, PHASE_NAMES};
pub use mvcc::{MvccStore, Snapshot};
pub use session::{QueryRequest, RequestKind, Response, Session, SessionError};
pub use statistics::{EdgeSelectivity, StoreStatistics};
pub use store::GraphStore;
pub use topk::RankedRecord;
pub use viewmgr::{AggViewDef, GraphViewDef};
pub use wire::WireError;

// The vocabulary types users need alongside the store.
pub use graphbi_bitmap::kernels;
pub use graphbi_bitmap::{Bitmap, RecordId};
pub use graphbi_columnstore::IoStats;
pub use graphbi_graph::{
    floats_close, AggFn, EdgeId, GraphError, GraphQuery, NodeId, PathAggQuery, PathAggResult,
    QueryExpr, QueryResult, Universe,
};
