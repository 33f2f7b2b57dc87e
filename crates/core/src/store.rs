//! The public store API.

use graphbi_bitmap::Bitmap;
use graphbi_columnstore::{IoStats, MasterRelation, RelationBuilder, DEFAULT_PARTITION_WIDTH};
use graphbi_graph::{
    AggFn, EdgeId, GraphError, GraphQuery, GraphRecord, PathAggQuery, PathAggResult, QueryExpr,
    QueryResult, Universe,
};
use graphbi_views as views;

use crate::engine::{self, EvalOptions};
use crate::session::{evaluate_batch, QueryRequest, Response, Session, SessionError};
use crate::viewmgr::{self, AggViewDef, GraphViewDef, ViewCatalog};

/// A queryable collection of graph records: the paper's full stack — flat
/// columnar storage, bitmap indexing and materialized graph views — behind
/// one handle.
pub struct GraphStore {
    universe: Universe,
    relation: MasterRelation,
    catalog: ViewCatalog,
}

impl GraphStore {
    /// Loads records with the default vertical partition width (1000
    /// columns, §6.1).
    pub fn load(universe: Universe, records: &[GraphRecord]) -> GraphStore {
        GraphStore::load_with_width(universe, records, DEFAULT_PARTITION_WIDTH)
    }

    /// Loads records with an explicit partition width (the Figure 5
    /// sensitivity knob).
    pub fn load_with_width(
        universe: Universe,
        records: &[GraphRecord],
        partition_width: usize,
    ) -> GraphStore {
        let mut builder = RelationBuilder::new(universe.edge_count());
        for r in records {
            builder.add_record(r.edges());
        }
        GraphStore {
            universe,
            relation: builder.finish_with_width(partition_width),
            catalog: ViewCatalog::default(),
        }
    }

    /// Wraps an already-built relation (e.g. one loaded from disk via
    /// [`graphbi_columnstore::persist`]). Views stored in the relation are
    /// not self-describing, so the catalog starts empty; use
    /// [`crate::disk::load_store`] to reload a database *with* its views.
    pub fn from_relation(universe: Universe, mut relation: MasterRelation) -> GraphStore {
        relation.clear_views();
        GraphStore {
            universe,
            relation,
            catalog: ViewCatalog::default(),
        }
    }

    /// Wraps a relation keeping its stored view columns, described by
    /// `catalog` (see [`crate::disk::load_store`]).
    pub(crate) fn with_catalog(
        universe: Universe,
        relation: MasterRelation,
        catalog: ViewCatalog,
    ) -> GraphStore {
        GraphStore {
            universe,
            relation,
            catalog,
        }
    }

    /// The shared naming scheme.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Mutable universe access (interning new query nodes/edges).
    pub fn universe_mut(&mut self) -> &mut Universe {
        &mut self.universe
    }

    /// The underlying master relation.
    pub fn relation(&self) -> &MasterRelation {
        &self.relation
    }

    pub(crate) fn catalog(&self) -> &ViewCatalog {
        &self.catalog
    }

    /// Number of records loaded.
    pub fn record_count(&self) -> u64 {
        self.relation.record_count()
    }

    /// Resident bytes of base columns plus views.
    pub fn size_in_bytes(&self) -> usize {
        self.relation.size_in_bytes()
    }

    /// Appends one record to the store — the continuous-ingest path of the
    /// paper's applications (§6.1: the schema expands on demand when the
    /// record references edges newer than any column). All materialized
    /// views are maintained incrementally, so query answers stay exact.
    pub fn append_record(
        &mut self,
        record: &graphbi_graph::GraphRecord,
    ) -> graphbi_bitmap::RecordId {
        let rid = self.relation.append_record(record.edges());
        for v in &self.catalog.graph_views {
            if record.contains_all(&v.edges) {
                self.relation.view_bitmap_mut(v.id).insert(rid);
            }
        }
        for v in &self.catalog.agg_views {
            if record.contains_all(&v.edges) {
                let state = graphbi_graph::AggState::from_measures(
                    v.edges
                        .iter()
                        .map(|&e| record.measure(e).expect("contains_all checked")),
                );
                let value = viewmgr::stored_value(v.kind, &state);
                self.relation.agg_view_mut(v.id).append(rid, value);
            }
        }
        rid
    }

    // ------------------------------------------------------------------
    // Query evaluation
    // ------------------------------------------------------------------

    /// The records containing the query graph, as a bitmap — the structural
    /// half of evaluation, using materialized views when possible.
    pub fn match_records(&self, query: &GraphQuery, stats: &mut IoStats) -> Bitmap {
        let Ok(ids) = engine::structural(
            &self.relation,
            &self.catalog,
            query,
            EvalOptions::default(),
            1,
            stats,
        );
        ids
    }

    /// Full graph-query evaluation: matching records plus the measures of
    /// the query's edges (§4.2's SELECT).
    pub fn evaluate(&self, query: &GraphQuery) -> (QueryResult, IoStats) {
        let mut stats = IoStats::new();
        let Ok(result) = engine::evaluate(
            &self.relation,
            &self.catalog,
            query,
            EvalOptions::default(),
            1,
            &mut stats,
        );
        (result, stats)
    }

    /// Measure-fetch phase in isolation: the record-major measure matrix of
    /// `edges` over the records in `ids`. Exposed so harnesses can time the
    /// two evaluation phases separately (the paper's Figures 6–7 break query
    /// time into "fetch measures" and "rest of query").
    pub fn fetch_measures(&self, edges: &[EdgeId], ids: &Bitmap, stats: &mut IoStats) -> Vec<f64> {
        let Ok(matrix) = engine::fetch_measure_matrix(&self.relation, edges, ids, 1, stats);
        matrix
    }

    /// Evaluates a logical combination of graph queries (§3.2) to the
    /// matching record set.
    pub fn evaluate_expr(&self, expr: &QueryExpr, stats: &mut IoStats) -> Bitmap {
        let Ok(ids) = engine::eval_expr(
            &self.relation,
            &self.catalog,
            expr,
            EvalOptions::default(),
            1,
            stats,
        );
        ids
    }

    /// Streaming evaluation: calls `f(record, measure_row)` for every match,
    /// in ascending record order, materializing at most `chunk` rows at a
    /// time. The paper's result sets reach tens of millions of records ×
    /// dozens of measures; this keeps the peak footprint bounded.
    pub fn for_each_match<F: FnMut(graphbi_bitmap::RecordId, &[f64])>(
        &self,
        query: &GraphQuery,
        chunk: usize,
        mut f: F,
    ) -> IoStats {
        let chunk = chunk.max(1);
        let mut stats = IoStats::new();
        let ids = self.match_records(query, &mut stats);
        let edges = query.edges();
        let mut pending: Vec<graphbi_bitmap::RecordId> = Vec::with_capacity(chunk);
        let mut flush = |pending: &mut Vec<graphbi_bitmap::RecordId>, stats: &mut IoStats| {
            if pending.is_empty() {
                return;
            }
            let mut b = graphbi_bitmap::Bitmap::new();
            b.extend(pending.iter().copied());
            let rows = self.fetch_measures(edges, &b, stats);
            let w = edges.len();
            for (i, &rid) in pending.iter().enumerate() {
                f(rid, &rows[i * w..(i + 1) * w]);
            }
            pending.clear();
        };
        for rid in ids.iter() {
            pending.push(rid);
            if pending.len() == chunk {
                flush(&mut pending, &mut stats);
            }
        }
        flush(&mut pending, &mut stats);
        if ids.is_empty() {
            // The materialized path skips (and counts) every measure fetch
            // for a provably-empty result; the chunked path never reached
            // them — count the same skips so the two cost models agree.
            stats.fetches_skipped += edges.len() as u64;
            return stats;
        }
        // Column-fetch accounting: the chunked gathers re-count measure
        // columns and partition touches per chunk; normalize both to the
        // logical cost so the model matches the non-streaming path.
        stats.measure_columns = edges.len() as u64;
        let mut parts = IoStats::new();
        self.relation.note_partitions(edges, &mut parts);
        stats.partitions_touched = parts.partitions_touched;
        stats
    }

    /// Re-encodes every presence bitmap in its smallest representation —
    /// worthwhile after a burst of [`GraphStore::append_record`] calls,
    /// which grow containers without re-optimizing them.
    pub fn optimize(&mut self) {
        self.relation.optimize_columns();
    }

    /// Path-aggregation query (§3.4): per matching record, the aggregate
    /// along each maximal path of the query graph.
    ///
    /// Fails with [`GraphError::CyclicQuery`] when the query graph has a
    /// cycle — flatten records/queries first (§6.2).
    pub fn path_aggregate(
        &self,
        query: &PathAggQuery,
    ) -> Result<(PathAggResult, IoStats), GraphError> {
        let mut stats = IoStats::new();
        let Ok(result) = engine::path_aggregate(
            &self.universe,
            &self.relation,
            &self.catalog,
            query,
            EvalOptions::default(),
            1,
            &mut stats,
        );
        Ok((result?, stats))
    }

    // ------------------------------------------------------------------
    // View management
    // ------------------------------------------------------------------

    /// Materializes a graph view for an explicit edge set; returns its index
    /// in [`GraphStore::graph_views`].
    pub fn materialize_graph_view(&mut self, mut edges: Vec<EdgeId>) -> usize {
        edges.sort_unstable();
        edges.dedup();
        let id = viewmgr::build_graph_view(&mut self.relation, &edges);
        self.catalog.graph_views.push(GraphViewDef { edges, id });
        self.catalog.graph_views.len() - 1
    }

    /// Materializes an aggregate graph view for `func` along the ordered
    /// path `edges`; returns its index in [`GraphStore::agg_views`].
    pub fn materialize_agg_view(&mut self, edges: Vec<EdgeId>, func: AggFn) -> usize {
        let (id, kind) = viewmgr::build_agg_view(&mut self.relation, &edges, func);
        self.catalog.agg_views.push(AggViewDef {
            edges,
            func,
            kind,
            id,
        });
        self.catalog.agg_views.len() - 1
    }

    /// Runs the paper's graph-view selection (§5.2) for a workload under a
    /// budget of `budget` views and materializes the winners. Returns the
    /// number of views created.
    pub fn advise_views(&mut self, workload: &[GraphQuery], budget: usize) -> usize {
        let candidates = views::generate_candidates(workload);
        let chosen = views::select_views(workload, &candidates, budget);
        let count = chosen.len();
        for idx in chosen {
            self.materialize_graph_view(candidates[idx].edges.clone());
        }
        count
    }

    /// Runs aggregate-view selection (§5.4) for a path-aggregation workload
    /// and materializes the winners for `func`. Returns the number of views
    /// created.
    pub fn advise_agg_views(
        &mut self,
        workload: &[GraphQuery],
        func: AggFn,
        budget: usize,
    ) -> Result<usize, GraphError> {
        let candidates = views::agg_candidates(workload, &self.universe)?;
        let chosen = views::select_agg_views(workload, &self.universe, &candidates, budget)?;
        let count = chosen.len();
        for idx in chosen {
            self.materialize_agg_view(candidates[idx].edges.clone(), func);
        }
        Ok(count)
    }

    /// The materialized graph views.
    pub fn graph_views(&self) -> &[GraphViewDef] {
        &self.catalog.graph_views
    }

    /// The materialized aggregate graph views.
    pub fn agg_views(&self) -> &[AggViewDef] {
        &self.catalog.agg_views
    }

    /// Drops all materialized views (budget sweeps).
    pub fn clear_views(&mut self) {
        self.relation.clear_views();
        self.catalog = ViewCatalog::default();
    }
}

impl Session for GraphStore {
    /// `EXPLAIN ANALYZE` for the in-memory engine.
    fn profile(&self, request: &QueryRequest) -> Result<(Response, crate::Profile), SessionError> {
        crate::explain::profile_request(self, "memory", None, request)
    }

    fn execute(&self, request: &QueryRequest) -> Result<(Response, IoStats), SessionError> {
        let Ok(answer) = engine::execute(&self.universe, &self.relation, &self.catalog, request);
        Ok(answer?)
    }

    /// Batched evaluation through the shared `evaluate_batch` body: duplicate requests,
    /// common under Zipf-skewed workloads, are answered once.
    fn evaluate_many(
        &self,
        requests: &[QueryRequest],
    ) -> Result<Vec<(Response, IoStats)>, SessionError> {
        evaluate_batch(requests, |r| self.execute(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbi_graph::RecordBuilder;

    /// The three records of the paper's Figure 2 / Table 1.
    ///
    /// Edge ids follow the figure: 1:(A,B) 2:(A,C) 3:(B,C)? — the exact
    /// pairs don't matter for storage; we reuse the table's columns:
    /// r1 has e1..e5, r2 has e2..e7, r3 has e4..e7.
    fn table1_store() -> (GraphStore, Vec<EdgeId>) {
        let mut u = Universe::new();
        // A chain A→B→…→H gives 7 distinct edges with ids 0..7.
        let names = ["A", "B", "C", "D", "E", "F", "G", "H"];
        let edges: Vec<EdgeId> = names
            .windows(2)
            .map(|w| u.edge_by_names(w[0], w[1]))
            .collect();
        let mk = |pairs: &[(usize, f64)]| {
            let mut b = RecordBuilder::new();
            for &(i, m) in pairs {
                b.add(edges[i], m);
            }
            b.build()
        };
        let records = vec![
            mk(&[(0, 3.0), (1, 4.0), (2, 2.0), (3, 1.0), (4, 2.0)]),
            mk(&[(1, 1.0), (2, 2.0), (3, 2.0), (4, 1.0), (5, 4.0), (6, 1.0)]),
            mk(&[(3, 5.0), (4, 4.0), (5, 3.0), (6, 1.0)]),
        ];
        (GraphStore::load(u, &records), edges)
    }

    #[test]
    fn table1_graph_query() {
        let (store, e) = table1_store();
        let q = GraphQuery::from_edges(vec![e[3], e[4]]);
        let (r, stats) = store.evaluate(&q);
        assert_eq!(r.records, vec![0, 1, 2]);
        assert_eq!(r.row(2), &[5.0, 4.0]);
        assert_eq!(stats.bitmap_columns, 2);
        assert_eq!(stats.measure_columns, 2);
        assert_eq!(stats.values_fetched, 6);
    }

    #[test]
    fn table1_view_bv1_filters_like_paper() {
        // bv1 indexes the subgraph {e1..e4} (our e[0..=3]): only r1.
        let (mut store, e) = table1_store();
        store.materialize_graph_view(vec![e[0], e[1], e[2], e[3]]);
        let q = GraphQuery::from_edges(vec![e[0], e[1], e[2], e[3]]);
        let mut stats = IoStats::new();
        let ids = store.match_records(&q, &mut stats);
        assert_eq!(ids.to_vec(), vec![0]);
        // One view bitmap instead of four edge bitmaps.
        assert_eq!(stats.view_bitmap_columns, 1);
        assert_eq!(stats.bitmap_columns, 0);
    }

    #[test]
    fn table1_aggregate_view_mp1() {
        // mp1 = SUM over path [e6, e7] (our e[5], e[6]): r2 → 5, r3 → 4.
        let (mut store, e) = table1_store();
        store.materialize_agg_view(vec![e[5], e[6]], AggFn::Sum);
        let paq = PathAggQuery::new(GraphQuery::from_edges(vec![e[5], e[6]]), AggFn::Sum);
        let (r, stats) = store.path_aggregate(&paq).unwrap();
        assert_eq!(r.records, vec![1, 2]);
        assert_eq!(r.row(0), &[5.0]);
        assert_eq!(r.row(1), &[4.0]);
        // The pre-aggregated column replaced both measure columns.
        assert_eq!(stats.agg_view_columns, 1);
        assert_eq!(stats.measure_columns, 0);
    }

    #[test]
    fn oblivious_matches_view_assisted_results() {
        let (mut store, e) = table1_store();
        let q = GraphQuery::from_edges(vec![e[1], e[2], e[3]]);
        let (before, _) = store.evaluate(&q);
        store.materialize_graph_view(vec![e[1], e[2], e[3]]);
        let (with_views, s1) = store.evaluate(&q);
        let (resp, s2) = store
            .execute(&QueryRequest::new(q.clone()).oblivious())
            .unwrap();
        let oblivious = resp.into_records().unwrap();
        assert_eq!(before, with_views);
        assert_eq!(with_views, oblivious);
        assert!(s1.structural_columns() < s2.structural_columns());
    }

    #[test]
    fn logical_combinators_match_set_algebra() {
        let (store, e) = table1_store();
        let a = GraphQuery::from_edges(vec![e[0]]); // r1 only
        let b = GraphQuery::from_edges(vec![e[5]]); // r2, r3
        let mut stats = IoStats::new();
        let or = store.evaluate_expr(
            &QueryExpr::or(a.clone().into(), b.clone().into()),
            &mut stats,
        );
        assert_eq!(or.to_vec(), vec![0, 1, 2]);
        let and = store.evaluate_expr(
            &QueryExpr::and(a.clone().into(), b.clone().into()),
            &mut stats,
        );
        assert!(and.is_empty());
        let not = store.evaluate_expr(&QueryExpr::and_not(b.into(), a.into()), &mut stats);
        assert_eq!(not.to_vec(), vec![1, 2]);
    }

    #[test]
    fn empty_query_matches_everything() {
        let (store, _) = table1_store();
        let (r, _) = store.evaluate(&GraphQuery::from_edges(vec![]));
        assert_eq!(r.records, vec![0, 1, 2]);
        assert!(r.measures.is_empty());
    }

    #[test]
    fn path_aggregate_all_functions() {
        let (store, e) = table1_store();
        // Path e[3], e[4] on r3: measures 5.0 and 4.0.
        let q = GraphQuery::from_edges(vec![e[3], e[4]]);
        for (f, expect) in [
            (AggFn::Sum, 9.0),
            (AggFn::Min, 4.0),
            (AggFn::Max, 5.0),
            (AggFn::Count, 2.0),
            (AggFn::Avg, 4.5),
        ] {
            let (r, _) = store
                .path_aggregate(&PathAggQuery::new(q.clone(), f))
                .unwrap();
            let i = r.records.iter().position(|&x| x == 2).unwrap();
            assert_eq!(r.row(i), &[expect], "{f}");
        }
    }

    #[test]
    fn agg_views_compose_within_longer_paths() {
        let (mut store, e) = table1_store();
        // Materialize SUM view over [e3,e4]; query the longer path e2..e5.
        store.materialize_agg_view(vec![e[3], e[4]], AggFn::Sum);
        let q = GraphQuery::from_edges(vec![e[2], e[3], e[4], e[5]]);
        let paq = PathAggQuery::new(q, AggFn::Sum);
        let (with, s_with) = store.path_aggregate(&paq).unwrap();
        let (resp, s_without) = store
            .execute(&QueryRequest::aggregate(paq.clone()).oblivious())
            .unwrap();
        let without = resp.into_aggregates().unwrap();
        assert_eq!(with, without);
        assert!(s_with.measure_columns < s_without.measure_columns);
        // r2 contains e2..e6: 2+2+1+4 = 9.
        assert_eq!(with.records, vec![1]);
        assert_eq!(with.row(0), &[9.0]);
    }

    #[test]
    fn advisor_materializes_within_budget() {
        let (mut store, e) = table1_store();
        let workload = vec![
            GraphQuery::from_edges(vec![e[1], e[2], e[3]]),
            GraphQuery::from_edges(vec![e[1], e[2], e[4]]),
            GraphQuery::from_edges(vec![e[5], e[6]]),
        ];
        let n = store.advise_views(&workload, 2);
        assert!(n <= 2 && n > 0);
        assert_eq!(store.graph_views().len(), n);
        // Results unchanged, cost reduced.
        for q in &workload {
            let (r1, s1) = store.evaluate(q);
            let (resp, s2) = store
                .execute(&QueryRequest::new(q.clone()).oblivious())
                .unwrap();
            assert_eq!(r1, resp.into_records().unwrap());
            assert!(s1.structural_columns() <= s2.structural_columns());
        }
    }

    #[test]
    fn clear_views_restores_oblivious_behaviour() {
        let (mut store, e) = table1_store();
        store.materialize_graph_view(vec![e[3], e[4]]);
        store.materialize_agg_view(vec![e[3], e[4]], AggFn::Sum);
        assert_eq!(store.graph_views().len(), 1);
        store.clear_views();
        assert!(store.graph_views().is_empty());
        assert!(store.agg_views().is_empty());
        let q = GraphQuery::from_edges(vec![e[3], e[4]]);
        let (_, stats) = store.evaluate(&q);
        assert_eq!(stats.view_bitmap_columns, 0);
        assert_eq!(stats.bitmap_columns, 2);
    }

    #[test]
    fn streaming_matches_materialized_evaluation() {
        let (store, e) = table1_store();
        let q = GraphQuery::from_edges(vec![e[3], e[4]]);
        let (expect, _) = store.evaluate(&q);
        for chunk in [1usize, 2, 100] {
            let mut got: Vec<(u32, Vec<f64>)> = Vec::new();
            let stats = store.for_each_match(&q, chunk, |rid, row| {
                got.push((rid, row.to_vec()));
            });
            assert_eq!(
                got.iter().map(|&(r, _)| r).collect::<Vec<_>>(),
                expect.records,
                "chunk {chunk}"
            );
            for (i, (_, row)) in got.iter().enumerate() {
                assert_eq!(row.as_slice(), expect.row(i));
            }
            assert_eq!(stats.measure_columns, 2);
            assert_eq!(stats.partitions_touched, 1, "chunking must not inflate");
        }
    }

    #[test]
    fn optimize_after_appends_keeps_answers() {
        let (mut store, e) = table1_store();
        for i in 0..50u32 {
            let mut b = RecordBuilder::new();
            b.add(e[0], f64::from(i)).add(e[1], 1.0);
            store.append_record(&b.build());
        }
        let q = GraphQuery::from_edges(vec![e[0], e[1]]);
        let (before, _) = store.evaluate(&q);
        let bytes_before = store.size_in_bytes();
        store.optimize();
        let (after, _) = store.evaluate(&q);
        assert_eq!(before, after);
        assert!(store.size_in_bytes() <= bytes_before);
    }

    #[test]
    fn append_maintains_base_and_views() {
        let (mut store, e) = table1_store();
        store.materialize_graph_view(vec![e[3], e[4]]);
        store.materialize_agg_view(vec![e[5], e[6]], AggFn::Sum);
        // New record r4 containing e3,e4 (view) and e5,e6 (agg view).
        let mut b = RecordBuilder::new();
        b.add(e[3], 10.0)
            .add(e[4], 20.0)
            .add(e[5], 1.0)
            .add(e[6], 2.0);
        let rid = store.append_record(&b.build());
        assert_eq!(rid, 3);
        assert_eq!(store.record_count(), 4);

        // Structural query through the graph view finds the new record.
        let q = GraphQuery::from_edges(vec![e[3], e[4]]);
        let mut stats = IoStats::new();
        let ids = store.match_records(&q, &mut stats);
        assert!(ids.contains(rid));
        assert_eq!(stats.view_bitmap_columns, 1);

        // Aggregate query through the agg view includes the new record.
        let paq = PathAggQuery::new(GraphQuery::from_edges(vec![e[5], e[6]]), AggFn::Sum);
        let (agg, s) = store.path_aggregate(&paq).unwrap();
        assert_eq!(s.agg_view_columns, 1);
        let i = agg.records.iter().position(|&r| r == rid).unwrap();
        assert_eq!(agg.row(i), &[3.0]);
    }

    #[test]
    fn append_expands_schema_on_demand() {
        let (mut store, e) = table1_store();
        let before = store.relation().edge_count();
        let new_edge = {
            let u = store.universe_mut();
            let x = u.node("X");
            let y = u.node("Y");
            u.edge(x, y)
        };
        assert_eq!(new_edge.index(), before);
        let mut b = RecordBuilder::new();
        b.add(e[0], 1.0).add(new_edge, 9.0);
        let rid = store.append_record(&b.build());
        assert_eq!(store.relation().edge_count(), before + 1);
        let (r, _) = store.evaluate(&GraphQuery::from_edges(vec![new_edge]));
        assert_eq!(r.records, vec![rid]);
        assert_eq!(r.row(0), &[9.0]);
    }

    #[test]
    fn sharded_execution_matches_serial_bit_for_bit() {
        let (mut store, e) = table1_store();
        // Enough records that shard boundaries fall strictly inside the set.
        for i in 0..500u32 {
            let mut b = RecordBuilder::new();
            b.add(e[3], f64::from(i) * 0.125 + 0.1)
                .add(e[4], f64::from(i % 7));
            if i % 3 == 0 {
                b.add(e[5], 2.5);
            }
            store.append_record(&b.build());
        }
        store.materialize_graph_view(vec![e[3], e[4]]);
        store.materialize_agg_view(vec![e[3], e[4]], AggFn::Avg);

        let q = GraphQuery::from_edges(vec![e[3], e[4]]);
        let paq = PathAggQuery::new(q.clone(), AggFn::Avg);
        for shards in [2usize, 3, 8, 1000] {
            let (serial, s_stats) = store.execute(&QueryRequest::new(q.clone())).unwrap();
            let (sharded, p_stats) = store
                .execute(&QueryRequest::new(q.clone()).shards(shards))
                .unwrap();
            assert_eq!(serial, sharded, "graph query, {shards} shards");
            assert_eq!(s_stats, p_stats, "stats must not depend on shards");

            let (serial, _) = store
                .execute(&QueryRequest::aggregate(paq.clone()))
                .unwrap();
            let (sharded, _) = store
                .execute(&QueryRequest::aggregate(paq.clone()).shards(shards))
                .unwrap();
            // PathAggResult equality is exact f64 equality: the sharded
            // fold must replay the serial per-record operation order.
            assert_eq!(serial, sharded, "aggregation, {shards} shards");
        }
    }

    #[test]
    fn batched_evaluation_answers_duplicates_once() {
        let (store, e) = table1_store();
        let a = QueryRequest::new(GraphQuery::from_edges(vec![e[3], e[4]]));
        let b = QueryRequest::expr(QueryExpr::or(
            GraphQuery::from_edges(vec![e[0]]).into(),
            GraphQuery::from_edges(vec![e[5]]).into(),
        ));
        let batch = vec![a.clone(), b.clone(), a.clone(), a.clone().shards(2)];
        let got = store.evaluate_many(&batch).unwrap();
        assert_eq!(got.len(), 4);
        // Every occurrence answers exactly like a lone execute.
        for (req, (resp, _)) in batch.iter().zip(&got) {
            let (lone, _) = store.execute(req).unwrap();
            assert_eq!(resp, &lone);
        }
        assert_eq!(
            got[0].1, got[2].1,
            "duplicate reports first occurrence's stats"
        );
    }

    #[test]
    fn cyclic_path_aggregation_is_rejected() {
        let mut u = Universe::new();
        let ab = u.edge_by_names("A", "B");
        let ba = u.edge_by_names("B", "A");
        let mut b = RecordBuilder::new();
        b.add(ab, 1.0).add(ba, 2.0);
        let store = GraphStore::load(u, &[b.build()]);
        let paq = PathAggQuery::new(GraphQuery::from_edges(vec![ab, ba]), AggFn::Sum);
        assert!(matches!(
            store.path_aggregate(&paq),
            Err(GraphError::CyclicQuery)
        ));
    }
}
