//! Service-layer benchmark (the PR-7 tentpole measurement).
//!
//! Drives the TCP server with 1, 8 and 32 concurrent client connections
//! over the Zipf graph workload, in two server configurations:
//!
//! * **dispatch**: `batch_max = 1` — every admitted request is its own
//!   `evaluate_many` call, the one-request-per-dispatch baseline;
//! * **batched**: `batch_max = 64` — requests arriving concurrently on
//!   *different connections* coalesce into shared batches, so the
//!   engine's duplicate-request elimination and shared planning work
//!   across the network exactly as in-process.
//!
//! Every served response is checked bit-identical (canonical wire text)
//! against the in-process `Session` answer before any timing is
//! reported; a mismatch fails the run and the CI job wrapping it.
//! Per-request latency percentiles land in `BENCH_serve.json`.

use std::fmt::Write as _;
use std::sync::Arc;

use graphbi::{GraphStore, QueryRequest, Session, SharedStore};
use graphbi_obs::Histogram;
use graphbi_serve::{Client, ServeConfig, ServeStore, Server};

use crate::{fmt, ny, zipf_queries, Table};

/// Concurrent connection counts swept by the benchmark.
pub const CLIENTS: [usize; 3] = [1, 8, 32];

/// Requests each client issues per run.
const PER_CLIENT: usize = 60;

/// One (mode × clients) measurement.
struct Run {
    mode: &'static str,
    clients: usize,
    p50_us: f64,
    p99_us: f64,
    /// `evaluate_many` dispatches the batcher issued.
    batches: u64,
    /// Requests those dispatches answered.
    requests: u64,
    identical: bool,
    /// Wall-clock for the whole run — the recorder-overhead comparison.
    wall_s: f64,
}

impl Run {
    fn mean_batch(&self) -> f64 {
        self.requests as f64 / (self.batches as f64).max(1.0)
    }
}

fn run_config(
    store: &SharedStore,
    reqs: &Arc<Vec<QueryRequest>>,
    expected: &Arc<Vec<String>>,
    mode: &'static str,
    clients: usize,
    cfg: ServeConfig,
) -> Run {
    let server = Server::start(ServeStore::Shared(store.clone()), "127.0.0.1:0", cfg)
        .expect("server starts");
    let addr = server.addr();

    let reg = graphbi_obs::global();
    let batches_before = reg.counter("graphbi_serve_batches_total").get();
    let requests_before = reg.counter("graphbi_serve_batched_requests_total").get();

    // All client threads record into one atomic histogram — the same
    // power-of-two buckets the server's METRICS/TOP report, so figure
    // percentiles and live percentiles share one quantile code path.
    let hist = Arc::new(Histogram::new());
    let started_all = std::time::Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let reqs = Arc::clone(reqs);
            let expected = Arc::clone(expected);
            let hist = Arc::clone(&hist);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let mut identical = true;
                for k in 0..PER_CLIENT {
                    let i = (c * 7 + k) % reqs.len();
                    let started = std::time::Instant::now();
                    let resp = client.query(&reqs[i]).expect("query");
                    hist.record(started.elapsed().as_nanos() as u64);
                    identical &= resp.to_text() == expected[i];
                }
                identical
            })
        })
        .collect();

    let mut identical = true;
    for t in threads {
        identical &= t.join().expect("client thread");
    }
    let wall_s = started_all.elapsed().as_secs_f64();
    let snap = hist.snapshot();

    Run {
        mode,
        clients,
        p50_us: snap.quantile(0.50) as f64 / 1e3,
        p99_us: snap.quantile(0.99) as f64 / 1e3,
        batches: reg.counter("graphbi_serve_batches_total").get() - batches_before,
        requests: reg.counter("graphbi_serve_batched_requests_total").get() - requests_before,
        identical,
        wall_s,
    }
}

/// Runs the benchmark; returns `false` when any served answer differed
/// from in-process, or when the batched server failed to coalesce
/// cross-connection requests under contention.
pub fn run() -> bool {
    let d = ny(10_000);
    let qs = zipf_queries(&d, 100);
    let store = SharedStore::new(GraphStore::load(d.universe, &d.records));
    let reqs: Arc<Vec<QueryRequest>> =
        Arc::new(qs.iter().map(|q| QueryRequest::new(q.clone())).collect());
    let expected: Arc<Vec<String>> = Arc::new(
        store
            .evaluate_many(&reqs)
            .expect("workload is acyclic")
            .into_iter()
            .map(|(resp, _)| resp.to_text())
            .collect(),
    );

    // Best of three runs per configuration (same convention as fig6),
    // applied symmetrically to both modes: scheduler jitter at the
    // millisecond scale otherwise dominates the tail percentiles.
    let best = |mode: &'static str, clients: usize, cfg: &dyn Fn() -> ServeConfig| {
        let trials: Vec<Run> = (0..3)
            .map(|_| run_config(&store, &reqs, &expected, mode, clients, cfg()))
            .collect();
        // Correctness is judged over every trial, not just the kept one.
        let all_identical = trials.iter().all(|r| r.identical);
        let mut kept = trials
            .into_iter()
            .min_by(|a, b| {
                (a.p99_us + a.p50_us)
                    .partial_cmp(&(b.p99_us + b.p50_us))
                    .expect("finite percentiles")
            })
            .expect("three runs executed");
        kept.identical = all_identical;
        kept
    };
    let base = |batch_max: usize| ServeConfig {
        batch_max,
        queue_depth: 1024,
        ..ServeConfig::default()
    };
    let mut runs = Vec::new();
    for &clients in &CLIENTS {
        runs.push(best("dispatch", clients, &|| base(1)));
        runs.push(best("batched", clients, &|| base(64)));
    }

    // Recorder overhead on the unsampled fast path: the same batched
    // 8-client workload with the flight recorder disabled (capacity 0)
    // vs armed with head sampling off — every request pays the full
    // per-request decision cost (rid assignment, sampler, slow check)
    // but none is captured. Head-sampled requests are deliberately NOT
    // in this comparison: they run solo through the profiler, a feature
    // cost, not recorder bookkeeping. Best of three each; answers must
    // stay bit-identical in every trial.
    // Trials interleave off/on so machine drift hits both sides alike;
    // each side keeps its fastest wall-clock.
    let (mut offs, mut ons) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        offs.push(run_config(
            &store,
            &reqs,
            &expected,
            "recorder-off",
            8,
            ServeConfig {
                flight_capacity: 0,
                sample_every: 0,
                ..base(64)
            },
        ));
        ons.push(run_config(
            &store,
            &reqs,
            &expected,
            "recorder-on",
            8,
            ServeConfig {
                sample_every: 0,
                ..base(64)
            },
        ));
    }
    let fastest = |trials: Vec<Run>| {
        let all_identical = trials.iter().all(|r| r.identical);
        let mut kept = trials
            .into_iter()
            .min_by(|a, b| a.wall_s.partial_cmp(&b.wall_s).expect("finite wall"))
            .expect("three runs executed");
        kept.identical = all_identical;
        kept
    };
    let rec_off = fastest(offs);
    let rec_on = fastest(ons);
    let overhead_pct = (rec_on.wall_s - rec_off.wall_s) / rec_off.wall_s.max(1e-9) * 100.0;

    let mut t = Table::new(
        "Service layer: per-request latency, dispatch (batch_max=1) vs batched (batch_max=64)",
        &[
            "mode",
            "clients",
            "p50_us",
            "p99_us",
            "dispatches",
            "requests",
            "mean_batch",
            "identical",
        ],
    );
    for r in runs.iter().chain([&rec_off, &rec_on]) {
        t.row(vec![
            r.mode.into(),
            r.clients.to_string(),
            fmt(r.p50_us),
            fmt(r.p99_us),
            r.batches.to_string(),
            r.requests.to_string(),
            format!("{:.2}", r.mean_batch()),
            r.identical.to_string(),
        ]);
    }
    t.emit("serve");
    println!(
        "recorder overhead (8 clients, batched): off {:.3}s, on {:.3}s, {overhead_pct:+.2}%",
        rec_off.wall_s, rec_on.wall_s
    );

    // Machine-readable point for the benchmark history.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"serve\",");
    let _ = writeln!(json, "  \"queries\": {},", reqs.len());
    let _ = writeln!(json, "  \"per_client\": {PER_CLIENT},");
    let _ = writeln!(json, "  \"configs\": [");
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{}\", \"clients\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
             \"dispatches\": {}, \"requests\": {}, \"mean_batch\": {:.2}, \
             \"identical\": {}}}{comma}",
            r.mode,
            r.clients,
            r.p50_us,
            r.p99_us,
            r.batches,
            r.requests,
            r.mean_batch(),
            r.identical,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"recorder\": {{\"clients\": 8, \"off_s\": {:.4}, \"on_s\": {:.4}, \
         \"overhead_pct\": {overhead_pct:.2}, \"sample_every\": 0, \"identical\": {}}}",
        rec_off.wall_s,
        rec_on.wall_s,
        rec_off.identical && rec_on.identical,
    );
    json.push_str("}\n");
    let out = std::env::var("GRAPHBI_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }

    let identical = runs.iter().all(|r| r.identical) && rec_off.identical && rec_on.identical;
    // Under contention the batched server must actually coalesce: the
    // 32-client batched run needs fewer dispatches than requests.
    let coalesced = runs
        .iter()
        .filter(|r| r.mode == "batched" && r.clients >= 32)
        .all(|r| r.batches < r.requests);
    if !identical {
        eprintln!("serve bench: a served answer differed from in-process");
    }
    if !coalesced {
        eprintln!("serve bench: no cross-connection batching observed at 32 clients");
    }
    identical && coalesced
}
