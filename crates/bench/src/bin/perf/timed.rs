//! The timed pass: closed-loop clients, every answer checked, no span
//! collector installed anywhere.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use graphbi::{GraphStore, MvccStore, QueryRequest, Response, Session};
use graphbi_columnstore::DeltaOp;
use graphbi_graph::GraphRecord;
use graphbi_serve::{Client, ServeConfig, ServeStore, Server};
use std::sync::Arc;

use crate::setup::{self, Stage, System, Workload, BATCH, COMMIT_RECORDS};
use crate::stats::{percentile, response_hash};
use crate::Res;

/// `ingest-mixed`: commits per second the insert feed delivers.
const COMMIT_RATE: f64 = 200.0;
/// `ingest-mixed`: reads between two `REFRESH`es.
const REFRESH_EVERY: usize = 50;
/// `ingest-mixed`: requests compared after the reopen.
const REOPEN_SAMPLE: usize = 200;

/// Warm-up then measurement; a sample counts when its operation started
/// after the warm-up and ended inside the window.
#[derive(Clone, Copy)]
pub struct Clock {
    warm_until: Instant,
    end: Instant,
}

impl Clock {
    pub fn start(warm_s: f64, measured_s: f64) -> Clock {
        let warm_until = Instant::now() + Duration::from_secs_f64(warm_s);
        Clock {
            warm_until,
            end: warm_until + Duration::from_secs_f64(measured_s),
        }
    }

    fn over(&self) -> bool {
        Instant::now() >= self.end
    }

    fn counts(&self, started: Instant, ended: Instant) -> bool {
        started >= self.warm_until && ended <= self.end
    }
}

/// The process-wide counters the program already exports, read before
/// and after a pass.
pub struct Counters(graphbi_obs::Snapshot);

impl Counters {
    pub fn read() -> Counters {
        Counters(graphbi_obs::global().snapshot())
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.0.counters.get(name).copied().unwrap_or(0)
    }

    /// `(sum, count)` of a histogram.
    pub fn histogram(&self, name: &str) -> (u64, u64) {
        self.0
            .histograms
            .get(name)
            .map_or((0, 0), |h| (h.sum, h.count))
    }

    /// Growth of a counter since `before`.
    pub fn since(&self, before: &Counters, name: &str) -> u64 {
        self.counter(name).saturating_sub(before.counter(name))
    }

    /// Mean of the histogram values recorded since `before`.
    pub fn mean_since(&self, before: &Counters, name: &str) -> f64 {
        let (s1, c1) = self.histogram(name);
        let (s0, c0) = before.histogram(name);
        ratio(s1.saturating_sub(s0), c1.saturating_sub(c0))
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What one pass measured.
#[derive(Default)]
pub struct Timed {
    pub measured_s: f64,
    /// Latency of each read operation in the window, ascending.
    pub read_ns: Vec<u64>,
    /// Correct read requests completed in the window (a `wide-batch`
    /// operation carries `BATCH` of them).
    pub reads_ok: u64,
    /// Every operation issued, warm-up included, reads and commits.
    pub attempted: u64,
    /// Errors, `BUSY` and answer mismatches among them.
    pub failed: u64,
    /// Wire `COMMIT` completion since the commit was due, ascending.
    pub commit_ns: Vec<u64>,
    /// How late the feed sent its latest commit.
    pub commit_lag_ns: u64,
    /// Wall of each `compact()+gc()` cycle, ascending.
    pub stall_ns: Vec<u64>,
    pub acked_commits: u64,
    pub compactions: u64,
    /// Measures the acknowledged commits inserted.
    pub inserted_measures: u64,
    pub reopen_ms: f64,
    pub wal_replayed_frames: u64,
    /// The program's counters at the start and the end of the window.
    pub window: Option<(Counters, Counters)>,
}

impl Timed {
    pub fn throughput_qps(&self) -> f64 {
        self.reads_ok as f64 / self.measured_s
    }

    /// Exact percentile of the read latencies, in ms; 0 without samples.
    pub fn read_ms(&self, q: f64) -> f64 {
        percentile(&self.read_ns, q).map_or(0.0, |ns| ns as f64 / 1e6)
    }
}

/// One answered read of `ingest-mixed`, checked after the run against
/// the oracle replayed to the same epoch.
struct Logged {
    request: u32,
    epoch: u64,
    hash: u64,
    /// Aggregate answers are kept whole: a delta overlay sums a path in
    /// another order than a columnar scan, so they agree only to rounding.
    aggregates: Option<Response>,
}

/// A served closed-loop reader. With `expected` answers are checked as
/// they arrive; with a `log` they are recorded with the pinned epoch and
/// the session re-pins every `REFRESH_EVERY` reads.
fn read_loop(
    addr: SocketAddr,
    stage: &Stage,
    draws: &[u32],
    clock: Clock,
    mut log: Option<&mut Vec<Logged>>,
) -> Res<Timed> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut out = Timed::default();
    for (n, &ix) in draws.iter().cycle().enumerate() {
        if clock.over() {
            break;
        }
        if log.is_some() && n % REFRESH_EVERY == REFRESH_EVERY - 1 {
            client.refresh().map_err(|e| format!("refresh: {e}"))?;
        }
        let started = Instant::now();
        let answer = client.query(&stage.requests[ix as usize]);
        let ended = Instant::now();
        out.attempted += 1;
        let correct = match (&answer, &mut log) {
            (Err(_), _) => false,
            (Ok(resp), Some(log)) => {
                log.push(Logged {
                    request: ix,
                    epoch: client.epoch(),
                    hash: response_hash(resp),
                    aggregates: matches!(resp, Response::Aggregates(_)).then(|| resp.clone()),
                });
                true
            }
            (Ok(resp), None) => response_hash(resp) == stage.expected[ix as usize],
        };
        if !correct {
            out.failed += 1;
        } else if clock.counts(started, ended) {
            out.read_ns.push((ended - started).as_nanos() as u64);
            out.reads_ok += 1;
        }
        if let Err(e) = answer {
            eprintln!("read failed: {e}");
            if !matches!(e, graphbi_serve::ClientError::Busy { .. }) {
                break; // the connection can no longer be framed
            }
        }
    }
    let _ = client.quit();
    Ok(out)
}

/// Runs `client` on one thread per draw sequence and sums what they
/// measured.
fn on_each_client(stage: &Stage, client: impl Fn(&[u32]) -> Res<Timed> + Sync) -> Res<Timed> {
    let client = &client;
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = stage
            .draws
            .iter()
            .map(|draws| s.spawn(move || client(draws)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_owned())?)
            .collect::<Res<Vec<Timed>>>()
    })?;
    let mut total = Timed::default();
    for part in parts {
        total.read_ns.extend(part.read_ns);
        total.reads_ok += part.reads_ok;
        total.attempted += part.attempted;
        total.failed += part.failed;
    }
    Ok(total)
}

/// `wide-batch`: each client loops `evaluate_many` over batches of
/// `BATCH` requests; one batch call is one operation.
fn batch_loop(stage: &Stage, store: &GraphStore, draws: &[u32], clock: Clock) -> Res<Timed> {
    let mut out = Timed::default();
    for chunk in draws.chunks_exact(BATCH).cycle() {
        if clock.over() {
            break;
        }
        let batch: Vec<QueryRequest> = chunk
            .iter()
            .map(|&ix| stage.requests[ix as usize].clone())
            .collect();
        let started = Instant::now();
        let answers = store.evaluate_many(&batch);
        let ended = Instant::now();
        out.attempted += 1;
        let correct = answers.is_ok_and(|rs| {
            rs.iter()
                .zip(chunk)
                .all(|((resp, _), &ix)| response_hash(resp) == stage.expected[ix as usize])
        });
        if !correct {
            out.failed += 1;
        } else if clock.counts(started, ended) {
            out.read_ns.push((ended - started).as_nanos() as u64);
            out.reads_ok += BATCH as u64;
        }
    }
    Ok(out)
}

/// The ops of commit number `n` (0-based): the next `COMMIT_RECORDS`
/// records of the insert stream, wrapping around its end.
pub fn commit_ops(inserts: &[GraphRecord], n: u64) -> Vec<DeltaOp> {
    (0..COMMIT_RECORDS as u64)
        .map(|k| {
            let at = (n * COMMIT_RECORDS as u64 + k) % inserts.len() as u64;
            DeltaOp::Insert(inserts[at as usize].clone())
        })
        .collect()
}

/// `ingest-mixed` client A: an insert feed arriving at `COMMIT_RATE`, and
/// the compaction cycle the harness drives every `compact_every` commits.
///
/// The feed is paced, not closed-loop, so every run inserts the same
/// number of records whatever the commit speed: the store the reader
/// sees grows the same way on both sides of a comparison. A commit is
/// timed from when it was due, so the stall of a compaction shows in the
/// commits queued behind it.
fn write_loop(addr: SocketAddr, stage: &Stage, store: &MvccStore, clock: Clock) -> Res<Timed> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut out = Timed::default();
    let first_due = Instant::now();
    loop {
        let due = first_due + Duration::from_secs_f64(out.acked_commits as f64 / COMMIT_RATE);
        if due >= clock.end {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let ops = commit_ops(&stage.inserts, out.acked_commits);
        let sent = Instant::now();
        let acked = client.commit(&ops);
        let ended = Instant::now();
        out.attempted += 1;
        if let Err(e) = acked {
            out.failed += 1;
            eprintln!("commit failed: {e}");
            break;
        }
        out.acked_commits += 1;
        if clock.counts(due, ended) {
            out.commit_ns.push((ended - due).as_nanos() as u64);
            out.commit_lag_ns = out.commit_lag_ns.max((sent - due).as_nanos() as u64);
        }
        if out.acked_commits % stage.compact_every == 0 && !clock.over() {
            let started = Instant::now();
            store.compact().map_err(|e| format!("compact: {e}"))?;
            store.gc().map_err(|e| format!("gc: {e}"))?;
            let ended = Instant::now();
            out.compactions += 1;
            if clock.counts(started, ended) {
                out.stall_ns.push((ended - started).as_nanos() as u64);
            }
        }
    }
    // The reopen check wants a WAL tail no compaction has folded.
    if out.acked_commits % stage.compact_every == 0 {
        client
            .commit(&commit_ops(&stage.inserts, out.acked_commits))
            .map_err(|e| format!("tail commit: {e}"))?;
        out.acked_commits += 1;
    }
    let _ = client.quit();
    Ok(out)
}

/// Exact for records and match sets; aggregates may differ by rounding
/// between a delta overlay, a replayed WAL and a fresh load.
fn same_answer(a: &Response, b: &Response) -> bool {
    match (a, b) {
        (Response::Aggregates(x), Response::Aggregates(y)) => x.approx_eq(y, 1e-9),
        _ => a == b,
    }
}

/// `ingest-mixed`: writer and reader side by side, then the three checks
/// — every logged read against the oracle at its epoch, the record count
/// after a reopen with an un-compacted WAL tail, and a request sample
/// against the oracle holding every acknowledged insert.
fn run_ingest(stage: &mut Stage, clock: Clock) -> Res<Timed> {
    let System::Served {
        server,
        store,
        dir,
        cache_bytes,
    } = std::mem::replace(&mut stage.system, System::Stopped)
    else {
        return Err("ingest-mixed is a served workload".into());
    };
    let addr = server.addr();
    let base_records = store.record_count();
    let mut log = Vec::new();
    let (writes, mut total) = std::thread::scope(|s| {
        let (stage, store, log) = (&*stage, &*store, &mut log);
        let writer = s.spawn(move || write_loop(addr, stage, store, clock));
        let reader = s.spawn(move || read_loop(addr, stage, &stage.draws[0], clock, Some(log)));
        let writes = writer.join().map_err(|_| "writer panicked".to_owned())??;
        let reads = reader.join().map_err(|_| "reader panicked".to_owned())??;
        Ok::<_, String>((writes, reads))
    })?;
    total.attempted += writes.attempted;
    total.failed += writes.failed;
    total.commit_ns = writes.commit_ns;
    total.commit_lag_ns = writes.commit_lag_ns;
    total.stall_ns = writes.stall_ns;
    total.acked_commits = writes.acked_commits;
    total.compactions = writes.compactions;

    let mut oracle = stage.oracle.take().ok_or("ingest-mixed needs its oracle")?;
    let mut applied = 0u64;
    let mut replay_to = |oracle: &mut GraphStore, commits: u64| {
        while applied < commits * COMMIT_RECORDS as u64 {
            let rec = &stage.inserts[(applied % stage.inserts.len() as u64) as usize];
            total.inserted_measures += rec.edge_count() as u64;
            oracle.append_record(rec);
            applied += 1;
        }
    };
    log.sort_by_key(|l| l.epoch);
    for l in &log {
        replay_to(&mut oracle, l.epoch);
        let (want, _) = oracle
            .execute(&stage.requests[l.request as usize])
            .map_err(|e| format!("oracle: {e}"))?;
        let agrees = response_hash(&want) == l.hash
            || l.aggregates
                .as_ref()
                .is_some_and(|got| same_answer(got, &want));
        if !agrees {
            eprintln!("read at epoch {} differs from the oracle", l.epoch);
            total.failed += 1;
            total.reads_ok = total.reads_ok.saturating_sub(1);
        }
    }
    replay_to(&mut oracle, total.acked_commits);

    // Drop every handle, reopen from the bytes on disk, and hold the
    // store to what it acknowledged.
    drop(server);
    drop(store);
    let before = Counters::read();
    let t = Instant::now();
    let reopened = Arc::new(setup::open(&dir, cache_bytes)?);
    total.reopen_ms = t.elapsed().as_secs_f64() * 1e3;
    total.wal_replayed_frames =
        Counters::read().since(&before, "graphbi_wal_replayed_frames_total");
    let want_records = base_records + total.acked_commits * COMMIT_RECORDS as u64;
    if reopened.record_count() != want_records {
        return Err(format!(
            "reopened store holds {} records, acknowledged {want_records}",
            reopened.record_count()
        ));
    }
    for &ix in stage.draws[0].iter().take(REOPEN_SAMPLE) {
        let req = &stage.requests[ix as usize];
        let (got, _) = reopened
            .execute(req)
            .map_err(|e| format!("reopened: {e}"))?;
        let (want, _) = oracle.execute(req).map_err(|e| format!("oracle: {e}"))?;
        if !same_answer(&got, &want) {
            return Err(format!(
                "after reopen, {} differs from the oracle",
                req.to_text()
            ));
        }
    }
    let server = Server::start(
        ServeStore::Mvcc(reopened.clone()),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .map_err(|e| format!("server restart: {e}"))?;
    stage.system = System::Served {
        server,
        store: reopened,
        dir,
        cache_bytes,
    };
    Ok(total)
}

/// When the cache holds the whole store, a dashboard that has been up for
/// a while has every column it asks for decoded: answer each distinct
/// request once before the clock starts, or first touches of the Zipf
/// tail would leak cold reads into the window.
fn prewarm(stage: &Stage) -> Res<()> {
    let System::Served {
        server,
        cache_bytes,
        ..
    } = &stage.system
    else {
        return Ok(());
    };
    if !stage.cache_holds_store(*cache_bytes) {
        return Ok(());
    }
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    for req in &stage.requests {
        client.query(req).map_err(|e| format!("prewarm: {e}"))?;
    }
    client.quit().map_err(|e| format!("quit: {e}"))
}

/// Runs the workload's timed pass. A third thread does nothing but
/// sleep to the edges of the measured window and read the program's
/// counters there, so warm-up misses and the checks after the run stay
/// out of the per-request ratios.
pub fn run(stage: &mut Stage, warm_s: f64, measured_s: f64) -> Res<Timed> {
    prewarm(stage)?;
    let clock = Clock::start(warm_s, measured_s);
    let at = |t: Instant| {
        std::thread::sleep(t.saturating_duration_since(Instant::now()));
        Counters::read()
    };
    let (timed, window) = std::thread::scope(|s| {
        let window = s.spawn(|| (at(clock.warm_until), at(clock.end)));
        let timed = match (&stage.system, stage.workload) {
            (_, Workload::IngestMixed) => run_ingest(stage, clock),
            (System::Served { server, .. }, _) => {
                let addr = server.addr();
                on_each_client(stage, |draws| read_loop(addr, stage, draws, clock, None))
            }
            (System::Memory(store), _) => {
                on_each_client(stage, |draws| batch_loop(stage, store, draws, clock))
            }
            (System::Stopped, _) => Err("system is stopped".into()),
        };
        (timed, window.join())
    });
    let mut timed = timed?;
    timed.window = Some(window.map_err(|_| "counter thread panicked".to_owned())?);
    timed.measured_s = measured_s;
    timed.read_ns.sort_unstable();
    timed.commit_ns.sort_unstable();
    timed.stall_ns.sort_unstable();
    Ok(timed)
}
