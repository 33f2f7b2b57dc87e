//! Service-layer benchmark.
//!
//! Drives the TCP server with 1, 8 and 32 concurrent client connections
//! over the Zipf graph workload. Each connection executes its own
//! requests on its own server thread, under an admission gate wide
//! enough that no request is refused.
//!
//! Every served response is checked bit-identical (canonical wire text)
//! against the in-process `Session` answer before any timing is
//! reported; a mismatch fails the run and the CI job wrapping it.
//! Per-request latency percentiles land in `BENCH_serve.json`.

use std::fmt::Write as _;
use std::sync::Arc;

use graphbi::{GraphStore, MvccStore, QueryRequest, Session};
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
    identical: bool,
    /// Wall-clock for the whole run — the recorder-overhead comparison.
    wall_s: f64,
}

fn run_config(
    store: &Arc<MvccStore>,
    reqs: &Arc<Vec<QueryRequest>>,
    expected: &Arc<Vec<String>>,
    mode: &'static str,
    clients: usize,
    cfg: ServeConfig,
) -> Run {
    let server = Server::start(ServeStore::Mvcc(Arc::clone(store)), "127.0.0.1:0", cfg)
        .expect("server starts");
    let addr = server.addr();

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
        identical,
        wall_s,
    }
}

/// Runs the benchmark; returns `false` when any served answer differed
/// from in-process.
pub fn run() -> bool {
    let d = ny(10_000);
    let qs = zipf_queries(&d, 100);
    let store = Arc::new(MvccStore::new_mem(GraphStore::load(d.universe, &d.records)));
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

    // Best of three runs per client count (same convention as fig6):
    // scheduler jitter at the millisecond scale otherwise dominates the
    // tail percentiles.
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
    let base = || ServeConfig {
        queue_depth: 1024,
        ..ServeConfig::default()
    };
    let runs: Vec<Run> = CLIENTS
        .iter()
        .map(|&clients| best("inline", clients, &base))
        .collect();

    // Recorder overhead on the unsampled fast path: the same 8-client
    // workload with the flight recorder disabled (capacity 0)
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
                ..base()
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
                ..base()
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
        "Service layer: per-request latency by concurrent connections",
        &["mode", "clients", "p50_us", "p99_us", "identical"],
    );
    for r in runs.iter().chain([&rec_off, &rec_on]) {
        t.row(vec![
            r.mode.into(),
            r.clients.to_string(),
            fmt(r.p50_us),
            fmt(r.p99_us),
            r.identical.to_string(),
        ]);
    }
    t.emit("serve");
    println!(
        "recorder overhead (8 clients): off {:.3}s, on {:.3}s, {overhead_pct:+.2}%",
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
             \"identical\": {}}}{comma}",
            r.mode, r.clients, r.p50_us, r.p99_us, r.identical,
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
    if !identical {
        eprintln!("serve bench: a served answer differed from in-process");
    }
    identical
}
