//! The traced pass: a fixed request sample, one client, bench-side spans
//! around the calls into each layer's public functions.
//!
//! Layers are measured from outside only. `serve.rtt` times the wire
//! round trip; `core.execute` replays the same request in-process on a
//! *mirror* — a second handle on the same bytes with the same cache
//! budget that sees the same request sequence, so its column cache hits
//! and misses exactly where the server's does. `serve.overhead_us` is
//! the difference of those two runs, not a nested span.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use graphbi::disk::DiskGraphStore;
use graphbi::{
    Bitmap, EdgeId, GraphStore, IoStats, MvccStore, Profile, QueryRequest, RequestKind, Response,
    Session,
};
use graphbi_serve::Client;

use crate::setup::{Stage, System, Workload, BATCH};
use crate::stats::{median_ns, response_hash};
use crate::timed::{commit_ops, ratio, Counters};
use crate::Res;

/// Requests in the traced sample.
const SAMPLE: usize = 400;
/// Unmeasured requests sent first, so the server's cache and the
/// mirror's hold the same columns when the sample starts.
const SYNC_PREFIX: usize = 100;
/// Columns the cold/warm fetch probe touches.
const PROBE_EDGES: usize = 200;
/// In-process commits that build the delta of `mvcc.delta_read_ratio`.
const DELTA_COMMITS: u64 = 300;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u32,
}

/// In-memory span recorder; written out once, at the end.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Records `f` as a span under the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, req: u32, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    fn total(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    fn median_us(&self, name: &str) -> f64 {
        median_ns(&mut self.durations(name), 1e3)
    }

    /// A span's duration minus what its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::from("id,name,start_ns,end_ns,parent,req\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id},{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        std::fs::write(path, out)
    }
}

/// Per-layer values by metric name; what a workload does not exercise
/// stays absent and is reported as 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// Sums of the exact per-request counts and profile phases.
#[derive(Default)]
struct Tally {
    requests: u64,
    io: IoStats,
    phase_ns: [Vec<u64>; 4],
    phases_total_ns: u64,
    profiled_total_ns: u64,
    views_used: u64,
    residual_edges: u64,
    rewrite_hits: u64,
    resp_bytes: u64,
    and_inputs: u64,
    result_card: u64,
}

impl Tally {
    fn add(&mut self, p: &Profile) {
        self.requests += 1;
        self.io.merge(&p.stats);
        for (slot, phase) in self.phase_ns.iter_mut().zip(&p.phases) {
            slot.push(phase.wall_ns);
            self.phases_total_ns += phase.wall_ns;
        }
        self.profiled_total_ns += p.total_ns;
        self.views_used += p.views_used;
        self.residual_edges += p.residual_edges;
        self.rewrite_hits += u64::from(p.views_used > 0);
    }

    fn report(&mut self, out: &mut Layers) {
        let n = self.requests;
        let per = |v: u64| ratio(v, n);
        for (slot, name) in self.phase_ns.iter_mut().zip([
            "core.plan_us",
            "core.structural_us",
            "core.measure_us",
            "core.merge_us",
        ]) {
            out.insert(name, median_ns(slot, 1e3));
        }
        out.insert(
            "core.unaccounted_frac",
            1.0 - ratio(self.phases_total_ns, self.profiled_total_ns),
        );
        out.insert("core.bitmap_columns_per_req", per(self.io.bitmap_columns));
        out.insert("core.measure_columns_per_req", per(self.io.measure_columns));
        out.insert("core.values_per_req", per(self.io.values_fetched));
        out.insert("core.partitions_per_req", per(self.io.partitions_touched));
        out.insert("core.join_rows_per_req", per(self.io.join_rows));
        out.insert("core.fetches_skipped_per_req", per(self.io.fetches_skipped));
        out.insert("columnstore.disk_reads_per_req", per(self.io.disk_reads));
        out.insert("columnstore.disk_bytes_per_req", per(self.io.disk_bytes));
        out.insert("views.used_per_req", per(self.views_used));
        out.insert("views.residual_edges_per_req", per(self.residual_edges));
        out.insert("views.rewrite_hit_frac", per(self.rewrite_hits));
        out.insert(
            "views.view_bitmap_share",
            ratio(self.io.view_bitmap_columns, self.io.structural_columns()),
        );
        out.insert("serve.resp_bytes_per_req", per(self.resp_bytes));
        out.insert("bitmap.and_inputs_per_req", per(self.and_inputs));
        out.insert("bitmap.result_card_per_req", per(self.result_card));
    }
}

/// The base edges a request's structural condition reads.
fn request_edges(req: &QueryRequest) -> Vec<EdgeId> {
    let mut edges: Vec<EdgeId> = match &req.kind {
        RequestKind::Graph(q) => q.edges().to_vec(),
        RequestKind::Aggregate(p) => p.query.edges().to_vec(),
        RequestKind::Expr(e) => e
            .atoms()
            .iter()
            .flat_map(|q| q.edges().iter().copied())
            .collect(),
    };
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// The wire-text spans every traced request gets: what the server pays
/// to parse the request and render the answer, and the client to parse
/// it back.
fn wire_spans(tr: &mut Tracer, i: u32, req: &QueryRequest, resp: &Response, tally: &mut Tally) {
    let text = tr.span("core.wire_render", i, |_| resp.to_text());
    tally.resp_bytes += text.len() as u64;
    tr.span("serve.client_parse", i, |_| {
        Response::parse_text(&text).is_ok()
    });
    let line = req.to_text();
    tr.span("core.wire_parse", i, |_| {
        QueryRequest::parse_text(&line).is_ok()
    });
}

/// Replays the conjunction over already-fetched bitmaps.
fn and_span<'a>(
    tr: &mut Tracer,
    i: u32,
    handles: impl ExactSizeIterator<Item = &'a Bitmap>,
    tally: &mut Tally,
) {
    tally.and_inputs += handles.len() as u64;
    tally.result_card += tr.span("bitmap.and_many", i, |_| Bitmap::and_many(handles).len());
}

/// Wall-clock of the sample on `session`, best of three, without and
/// with a span collector installed; also the spans one traced run emits.
fn collector_cost(session: &dyn Session, sample: &[&QueryRequest]) -> Res<(f64, f64)> {
    let replay = || -> Res<u64> {
        let t = Instant::now();
        for req in sample {
            session.execute(req).map_err(|e| format!("replay: {e}"))?;
        }
        Ok(t.elapsed().as_nanos() as u64)
    };
    let (mut plain, mut traced, mut spans) = (u64::MAX, u64::MAX, 0usize);
    for _ in 0..3 {
        plain = plain.min(replay()?);
        let collector = std::sync::Arc::new(graphbi_obs::Collector::new());
        let installed = graphbi_obs::install(&collector);
        traced = traced.min(replay()?);
        drop(installed);
        spans = collector.trace().spans.len();
    }
    let overhead = (traced as f64 - plain as f64) / plain as f64;
    Ok((overhead, spans as f64 / sample.len() as f64))
}

/// Cold and warm column fetches straight on the relation.
fn fetch_probe(probe: &DiskGraphStore, edges: &[EdgeId], out: &mut Layers) -> Res<()> {
    let rel = probe.relation();
    let pass = |measures: bool| -> Res<(Vec<u64>, u64)> {
        let mut io = IoStats::new();
        let mut ns = Vec::with_capacity(edges.len());
        for &e in edges {
            let t = Instant::now();
            if measures {
                rel.edge_measures(e, &mut io)
                    .map_err(|e| format!("fetch: {e}"))?;
            } else {
                rel.edge_bitmap(e, &mut io)
                    .map_err(|e| format!("fetch: {e}"))?;
            }
            ns.push(t.elapsed().as_nanos() as u64);
        }
        Ok((ns, io.disk_bytes))
    };
    rel.clear_cache();
    let (mut cold_bitmap, bitmap_bytes) = pass(false)?;
    let (mut warm, _) = pass(false)?;
    rel.clear_cache();
    let (mut cold_measures, measure_bytes) = pass(true)?;
    let cold_ns: u64 = cold_bitmap.iter().chain(&cold_measures).sum();
    out.insert(
        "columnstore.fetch_bitmap_cold_us",
        median_ns(&mut cold_bitmap, 1e3),
    );
    out.insert(
        "columnstore.fetch_measures_cold_us",
        median_ns(&mut cold_measures, 1e3),
    );
    out.insert("columnstore.fetch_warm_us", median_ns(&mut warm, 1e3));
    // bytes / ns × 1e9 / 2^20
    out.insert(
        "columnstore.decode_mb_s",
        ratio(bitmap_bytes + measure_bytes, cold_ns) * 1e9 / (1u64 << 20) as f64,
    );
    Ok(())
}

/// `mvcc.*`: in-process commits, snapshots and compaction cycles, and
/// what a delta of `DELTA_COMMITS` commits costs a reader.
fn mvcc_probe(
    store: &MvccStore,
    stage: &Stage,
    sample: &[&QueryRequest],
    out: &mut Layers,
) -> Res<()> {
    let mut snapshot_ns: Vec<u64> = (0..SAMPLE)
        .map(|_| {
            let t = Instant::now();
            let _snap = store.snapshot();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    out.insert("mvcc.snapshot_us", median_ns(&mut snapshot_ns, 1e3));

    let (mut compact_ns, mut gc_ns) = (Vec::new(), Vec::new());
    let mut cycle = || -> Res<()> {
        let t = Instant::now();
        store.compact().map_err(|e| format!("compact: {e}"))?;
        compact_ns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        store.gc().map_err(|e| format!("gc: {e}"))?;
        gc_ns.push(t.elapsed().as_nanos() as u64);
        Ok(())
    };
    let read_p50 = || -> Res<f64> {
        let snap = store.snapshot();
        let mut ns = Vec::with_capacity(sample.len());
        for pass in 0..2 {
            for req in sample {
                let t = Instant::now();
                snap.execute(req).map_err(|e| format!("read: {e}"))?;
                if pass == 1 {
                    ns.push(t.elapsed().as_nanos() as u64); // the first pass fills the cache
                }
            }
        }
        Ok(median_ns(&mut ns, 1e3))
    };

    cycle()?;
    let empty_delta_us = read_p50()?;
    let mut commit_ns = Vec::new();
    for n in 0..DELTA_COMMITS {
        let ops = commit_ops(&stage.inserts, n);
        let t = Instant::now();
        store.commit(&ops).map_err(|e| format!("commit: {e}"))?;
        commit_ns.push(t.elapsed().as_nanos() as u64);
    }
    let with_delta_us = read_p50()?;
    cycle()?;
    out.insert("mvcc.commit_us", median_ns(&mut commit_ns, 1e3));
    out.insert("mvcc.delta_read_ratio", with_delta_us / empty_delta_us);
    out.insert("mvcc.compact_ms", median_ns(&mut compact_ns, 1e6));
    out.insert("mvcc.gc_ms", median_ns(&mut gc_ns, 1e6));
    Ok(())
}

/// The traced pass of a served workload.
fn run_served(stage: &Stage, tr: &mut Tracer, out: &mut Layers) -> Res<()> {
    let System::Served {
        server,
        store,
        dir,
        cache_bytes,
    } = &stage.system
    else {
        return Err("served workload without a server".into());
    };
    let open = |cache: usize| {
        DiskGraphStore::open(dir, cache).map_err(|e| format!("open {}: {e}", dir.display()))
    };
    // ingest-mixed reads through a live delta, which only the store's own
    // snapshot sees; the read-only workloads get an independent handle.
    let ingest = stage.workload == Workload::IngestMixed;
    let snapshot = store.snapshot();
    let disk_mirror = open(*cache_bytes)?;
    let mirror: &dyn Session = if ingest { &snapshot } else { &disk_mirror };
    let probe = open(usize::MAX / 2)?;

    // The server's cache is as warm as the timed pass left it; bring the
    // mirror's to the same state. A cache that holds the store keeps every
    // column ever asked for; a small one is defined by the latest requests,
    // which the shared prefix below supplies.
    if !ingest && stage.cache_holds_store(*cache_bytes) {
        for req in &stage.requests {
            mirror
                .execute(req)
                .map_err(|e| format!("mirror warm-up: {e}"))?;
        }
    }
    let draws = &stage.draws[0][..SYNC_PREFIX + SAMPLE];
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    for &ix in &draws[..SYNC_PREFIX] {
        let req = &stage.requests[ix as usize];
        client.query(req).map_err(|e| format!("prefix: {e}"))?;
        mirror
            .execute(req)
            .map_err(|e| format!("prefix mirror: {e}"))?;
    }

    let before = Counters::read();
    let captured_before = server.recorder().stats().1;
    let mut tally = Tally::default();
    for (i, &ix) in draws[SYNC_PREFIX..].iter().enumerate() {
        let i = i as u32;
        let req = &stage.requests[ix as usize];
        tr.span("request", i, |tr| -> Res<()> {
            let served = tr
                .span("serve.rtt", i, |_| client.query(req))
                .map_err(|e| format!("rtt: {e}"))?;
            let (local, profile) = tr
                .span("core.execute", i, |_| mirror.profile(req))
                .map_err(|e| format!("mirror: {e}"))?;
            if response_hash(&served) != response_hash(&local) {
                return Err(format!(
                    "served and in-process answers differ: {}",
                    req.to_text()
                ));
            }
            tally.add(&profile);
            wire_spans(tr, i, req, &local, &mut tally);
            let mut io = IoStats::new();
            let handles = request_edges(req)
                .into_iter()
                .map(|e| probe.relation().edge_bitmap(e, &mut io))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("probe fetch: {e}"))?;
            and_span(tr, i, handles.iter().map(|h| &**h), &mut tally);
            Ok(())
        })?;
    }
    let after = Counters::read();
    let _ = client.quit();

    tally.report(out);
    let rtt = tr.total("serve.rtt");
    let execute = tr.total("core.execute");
    let queue_wait_us = after.mean_since(&before, "graphbi_serve_queue_wait_us");
    let attributed = execute
        + tr.total("core.wire_parse")
        + tr.total("core.wire_render")
        + tr.total("serve.client_parse")
        + (queue_wait_us * 1e3 * SAMPLE as f64) as u64;
    out.insert("serve.rtt_us", tr.median_us("serve.rtt"));
    out.insert(
        "serve.overhead_us",
        tr.median_us("serve.rtt") - tr.median_us("core.execute"),
    );
    out.insert("serve.overhead_frac", 1.0 - ratio(execute, rtt));
    out.insert("serve.client_parse_us", tr.median_us("serve.client_parse"));
    out.insert("serve.queue_wait_us", queue_wait_us);
    out.insert("core.execute_us", tr.median_us("core.execute"));
    out.insert("core.wire_parse_us", tr.median_us("core.wire_parse"));
    out.insert("core.wire_render_us", tr.median_us("core.wire_render"));
    out.insert("bitmap.and_many_us", tr.median_us("bitmap.and_many"));
    out.insert("trace.unaccounted_frac", 1.0 - ratio(attributed, rtt));
    out.insert(
        "obs.flight_captured",
        (server.recorder().stats().1 - captured_before) as f64,
    );

    let sample: Vec<&QueryRequest> = draws[SYNC_PREFIX..]
        .iter()
        .map(|&ix| &stage.requests[ix as usize])
        .collect();
    let replayed: &dyn Session = if ingest { &snapshot } else { &probe };
    let (overhead, spans) = collector_cost(replayed, &sample)?;
    out.insert("obs.trace_overhead_frac", overhead);
    out.insert("obs.spans_per_req", spans);

    let mut edges: Vec<EdgeId> = sample.iter().flat_map(|r| request_edges(r)).collect();
    edges.sort_unstable();
    edges.dedup();
    edges.truncate(PROBE_EDGES);
    fetch_probe(&probe, &edges, out)?;

    if ingest {
        drop(snapshot); // or it would pin the generation the probe compacts away
        mvcc_probe(store, stage, &sample, out)?;
    }
    Ok(())
}

/// The traced pass of `wide-batch`: each sampled batch through
/// `evaluate_many`, then every request of it alone.
fn run_batches(stage: &Stage, store: &GraphStore, tr: &mut Tracer, out: &mut Layers) -> Res<()> {
    let mut tally = Tally::default();
    let mut i = 0u32;
    for (b, chunk) in stage.draws[0][..SAMPLE].chunks(BATCH).enumerate() {
        let batch: Vec<QueryRequest> = chunk
            .iter()
            .map(|&ix| stage.requests[ix as usize].clone())
            .collect();
        tr.span("batch", b as u32, |tr| -> Res<()> {
            tr.span("core.evaluate_many", b as u32, |_| {
                store.evaluate_many(&batch)
            })
            .map_err(|e| format!("batch: {e}"))?;
            for req in &batch {
                let (local, _) = tr
                    .span("core.execute", i, |_| store.execute(req))
                    .map_err(|e| format!("solo: {e}"))?;
                let (_, profile) = store.profile(req).map_err(|e| format!("profile: {e}"))?;
                tally.add(&profile);
                wire_spans(tr, i, req, &local, &mut tally);
                let mut io = IoStats::new();
                let edges = request_edges(req);
                let handles = edges
                    .iter()
                    .map(|&e| store.relation().edge_bitmap(e, &mut io));
                and_span(tr, i, handles, &mut tally);
                i += 1;
            }
            Ok(())
        })?;
    }
    tally.report(out);
    out.insert("core.execute_us", tr.median_us("core.execute"));
    out.insert("core.wire_parse_us", tr.median_us("core.wire_parse"));
    out.insert("core.wire_render_us", tr.median_us("core.wire_render"));
    out.insert("serve.client_parse_us", tr.median_us("serve.client_parse"));
    out.insert("bitmap.and_many_us", tr.median_us("bitmap.and_many"));
    out.insert(
        "core.batch_speedup",
        ratio(tr.total("core.execute"), tr.total("core.evaluate_many")),
    );
    let sample: Vec<&QueryRequest> = stage.draws[0][..SAMPLE]
        .iter()
        .map(|&ix| &stage.requests[ix as usize])
        .collect();
    let (overhead, spans) = collector_cost(store, &sample)?;
    out.insert("obs.trace_overhead_frac", overhead);
    out.insert("obs.spans_per_req", spans);
    Ok(())
}

/// Runs the workload's traced pass and returns its spans with the
/// per-layer values derived from them.
pub fn run(stage: &Stage) -> Res<(Tracer, Layers)> {
    let mut tr = Tracer::new();
    let mut out = Layers::new();
    match &stage.system {
        System::Served { .. } => run_served(stage, &mut tr, &mut out)?,
        System::Memory(store) => run_batches(stage, store, &mut tr, &mut out)?,
        System::Stopped => return Err("system is stopped".into()),
    }
    Ok((tr, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tr = Tracer::new();
        tr.span("outer", 7, |tr| {
            tr.span("a", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("b", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[2].parent, Some(0));
        assert_eq!(tr.spans[0].parent, None);
        let outer = tr.spans[0].end_ns - tr.spans[0].start_ns;
        let children = tr.total("a") + tr.total("b");
        assert!(children >= 4_000_000 && outer >= children);
        assert_eq!(tr.self_ns(0), outer - children);
        assert_eq!(tr.self_ns(1), tr.total("a"));
    }
}
