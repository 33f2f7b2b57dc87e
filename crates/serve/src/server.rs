//! The concurrent TCP server: per-connection sessions over one MVCC
//! store, each executing its own requests.
//!
//! # Architecture
//!
//! One thread accepts connections; each connection gets a handler thread
//! that parses frames, executes them against the connection's pinned
//! snapshot and writes the reply. A `QUERY` is one
//! [`Session::evaluate_many`] call on that thread, a `BATCH` of `k` is one
//! call with `k` requests — so a batch still shares duplicate elimination,
//! column fetches and the worker pool exactly like an in-process batch.
//! A head-sampled singleton runs through [`Session::profile`] instead, so
//! its captured trace is exact.
//!
//! # Sessions and snapshots
//!
//! A connection pins its view of the store at `HELLO` time: a real
//! `(generation, epoch)` [`Snapshot`] of the [`MvccStore`]. Answers stay
//! stable while writers commit, until the connection `REFRESH`es or
//! commits itself (read-your-writes). On a disk store the pin also keeps
//! the generation's files from garbage collection; it is released when the
//! connection ends, however it ends.
//!
//! # Backpressure state machine
//!
//! ```text
//!             admit(admission_timeout)
//! CLIENT ──▶ fewer than queue_depth executing? ──yes──▶ ADMITTED ──▶ execute ──▶ OK …
//!                │ no
//!                ▼ wait ≤ admission_timeout
//!            a permit freed? ──yes──▶ ADMITTED
//!                │ no (timeout)
//!                ▼
//!            BUSY 210 … (typed, within the timeout; nothing buffered)
//! ```
//!
//! Memory is bounded end-to-end: frame lines are capped
//! ([`MAX_LINE_BYTES`]), batch counts are capped ([`MAX_BATCH`]), and at
//! most `queue_depth` requests execute at once — overload degrades into
//! prompt, typed `BUSY` responses, never into growth.

use std::io::{self, BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use graphbi::{Coded, ErrorCode, MvccStore, Profile, QueryRequest, Response, Session, Snapshot};
use graphbi_columnstore::{DeltaOp, IoStats};
use graphbi_obs::{json, Counter, Histogram};

use crate::protocol::{self, Verb, MAX_LINE_BYTES, PROTOCOL_VERSION};
use crate::queue::{AdmissionGate, AdmitError};
use crate::recorder::{synthesized_profile, Recorder, RecorderConfig, RequestTrace, SlowlogExport};

/// `SLOWLOG` entry count when the client does not ask for one.
const DEFAULT_SLOWLOG: usize = 16;

fn dur_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn response_matches(resp: &Response) -> u64 {
    match resp {
        Response::Records(r) => r.records.len() as u64,
        Response::Matches(b) => b.len(),
        Response::Aggregates(r) => r.records.len() as u64,
    }
}

/// Server tuning knobs. The defaults favour throughput under bursty
/// load; tests tighten them to force the backpressure paths.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Admission depth: the most `QUERY`/`BATCH` frames executing at once.
    pub queue_depth: usize,
    /// How long an arriving request may wait for an execution slot before
    /// the server answers `BUSY`.
    pub admission_timeout: Duration,
    /// Socket read poll interval; bounds how fast handler threads notice
    /// shutdown.
    pub read_timeout: Duration,
    /// When true the server installs a span collector on its threads, so
    /// per-connection `serve.request` / `serve.batch` spans land in a
    /// tracer reachable via [`Server::collector`]. Off by default:
    /// a collector accumulates spans without bound, which a long-running
    /// server must not.
    pub trace: bool,
    /// Flight-recorder head sampling: capture 1 request in `sample_every`
    /// (0 = only errors and slow requests are captured).
    pub sample_every: u64,
    /// Sampler phase offset (several servers behind one balancer should
    /// not all sample the same client's requests).
    pub sample_seed: u64,
    /// Requests at or over this duration are captured, `SLOWLOG`-visible,
    /// and exported when a slowlog file is configured.
    pub slow_threshold: Duration,
    /// Flight-ring capacity — the recorder's hard memory bound. 0
    /// disables the recorder entirely (benchmark baseline).
    pub flight_capacity: usize,
    /// Slowlog-ring capacity (`SLOWLOG` can replay at most this many).
    pub slowlog_capacity: usize,
    /// When set, over-threshold requests are appended to this file as
    /// CRC-framed JSON lines through the `Vfs` trait.
    pub slowlog_export: Option<SlowlogExport>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_depth: 256,
            admission_timeout: Duration::from_millis(100),
            read_timeout: Duration::from_millis(100),
            trace: false,
            sample_every: 64,
            sample_seed: 0,
            slow_threshold: Duration::from_millis(100),
            flight_capacity: 1024,
            slowlog_capacity: 128,
            slowlog_export: None,
        }
    }
}

impl ServeConfig {
    fn recorder_config(&self) -> RecorderConfig {
        RecorderConfig {
            sample_every: self.sample_every,
            sample_seed: self.sample_seed,
            slow_threshold: self.slow_threshold,
            flight_capacity: self.flight_capacity,
            slowlog_capacity: self.slowlog_capacity,
            export: self.slowlog_export.clone(),
        }
    }
}

/// The store a server fronts. Sessions pin `(generation, epoch)`
/// snapshots of it; [`MvccStore::new_mem`] serves an in-memory store.
#[derive(Clone)]
pub enum ServeStore {
    /// MVCC store; sessions pin `(generation, epoch)` snapshots.
    Mvcc(Arc<MvccStore>),
}

/// Applies a commit as one MVCC commit, after checking that every edge
/// id it writes is in the served universe.
fn commit(store: &MvccStore, ops: &[DeltaOp]) -> Result<(), Refusal> {
    let edges = store.snapshot().universe().edge_count() as u32;
    for op in ops {
        let rec = match op {
            DeltaOp::Insert(r) => r,
            DeltaOp::Update(_, r) => r,
        };
        if let Some((e, _)) = rec.edges().iter().find(|(e, _)| e.0 >= edges) {
            return Err(Refusal::Fail(
                ErrorCode::UnknownEdge,
                format!("edge id {} is not in the universe (< {edges})", e.0),
            ));
        }
    }
    store
        .commit(ops)
        .map(drop)
        .map_err(|e| Refusal::Fail(e.code(), e.to_string()))
}

/// What one executed `QUERY`/`BATCH` hands back to its connection: the
/// answers plus the facts the flight recorder needs.
struct Executed {
    answers: Vec<(Response, IoStats)>,
    /// Nanoseconds the request waited for its admission permit.
    wait_ns: u64,
    /// Exact profile, present only for sampled singletons.
    profile: Option<Profile>,
}

/// Metric handles the hot paths record through — fetched once at server
/// start so no request pays the registry's name-lookup lock.
struct ServeMetrics {
    requests: Arc<Counter>,
    commits: Arc<Counter>,
    read_bytes: Arc<Counter>,
    write_bytes: Arc<Counter>,
    busy: Arc<Counter>,
    /// One per executed `QUERY`/`BATCH`, and the requests it answered.
    batches: Arc<Counter>,
    batched_requests: Arc<Counter>,
    batch_size: Arc<Histogram>,
    /// Time spent waiting for an admission permit.
    queue_wait_us: Arc<Histogram>,
    verb_query_us: Arc<Histogram>,
    verb_batch_us: Arc<Histogram>,
    verb_commit_us: Arc<Histogram>,
    verb_profile_us: Arc<Histogram>,
}

impl ServeMetrics {
    fn new() -> ServeMetrics {
        let reg = graphbi_obs::global();
        ServeMetrics {
            requests: reg.counter("graphbi_serve_requests_total"),
            commits: reg.counter("graphbi_serve_commits_total"),
            read_bytes: reg.counter("graphbi_serve_read_bytes_total"),
            write_bytes: reg.counter("graphbi_serve_write_bytes_total"),
            busy: reg.counter("graphbi_serve_busy_total"),
            batches: reg.counter("graphbi_serve_batches_total"),
            batched_requests: reg.counter("graphbi_serve_batched_requests_total"),
            batch_size: reg.histogram("graphbi_serve_batch_size"),
            queue_wait_us: reg.histogram("graphbi_serve_queue_wait_us"),
            verb_query_us: reg.histogram("graphbi_serve_verb_query_us"),
            verb_batch_us: reg.histogram("graphbi_serve_verb_batch_us"),
            verb_commit_us: reg.histogram("graphbi_serve_verb_commit_us"),
            verb_profile_us: reg.histogram("graphbi_serve_verb_profile_us"),
        }
    }
}

struct Ctx {
    store: Arc<MvccStore>,
    cfg: ServeConfig,
    gate: AdmissionGate,
    shutdown: AtomicBool,
    collector: Option<Arc<graphbi_obs::Collector>>,
    /// The universe text served by `HELLO`, rendered once.
    hello_text: String,
    recorder: Recorder,
    metrics: ServeMetrics,
}

/// A running server; dropping it shuts the server down.
pub struct Server {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections.
    pub fn start(store: ServeStore, addr: &str, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // 0 = scalar, 1 = simd; resolved once so dashboards can tell which
        // kernel path this process actually runs.
        graphbi_obs::global()
            .gauge("graphbi_kernel_path")
            .set(i64::from(matches!(
                graphbi::kernels::active(),
                graphbi::kernels::KernelPath::Simd
            )));
        let ServeStore::Mvcc(store) = store;
        let hello_text = store.snapshot().universe().to_text();
        let collector = cfg.trace.then(|| Arc::new(graphbi_obs::Collector::new()));
        let recorder = Recorder::new(cfg.recorder_config());
        let ctx = Arc::new(Ctx {
            store,
            gate: AdmissionGate::new(cfg.queue_depth),
            cfg,
            shutdown: AtomicBool::new(false),
            collector,
            hello_text,
            recorder,
            metrics: ServeMetrics::new(),
        });
        let accept = {
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || accept_loop(listener, &ctx))
        };
        Ok(Server {
            addr: local,
            ctx,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves the port when started with `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The span collector, when started with [`ServeConfig::trace`].
    pub fn collector(&self) -> Option<&Arc<graphbi_obs::Collector>> {
        self.ctx.collector.as_ref()
    }

    /// The flight recorder (tests inspect capture policy through this).
    pub fn recorder(&self) -> &Recorder {
        &self.ctx.recorder
    }

    /// Stops accepting, lets every admitted request finish and answer,
    /// refuses requests still waiting for admission, and joins all
    /// threads.
    pub fn shutdown(&mut self) {
        if self.ctx.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        self.ctx.gate.close();
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }

    /// Blocks until the server stops (`graphbi serve` runs forever on
    /// this).
    pub fn wait(mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, ctx: &Arc<Ctx>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let ctx = Arc::clone(ctx);
        handlers.push(std::thread::spawn(move || {
            let _tracing = ctx.collector.as_ref().map(graphbi_obs::install);
            graphbi_obs::global()
                .counter("graphbi_serve_connections_total")
                .inc();
            graphbi_obs::global()
                .gauge("graphbi_serve_connections")
                .add(1);
            let peer = handle_connection(stream, &ctx);
            graphbi_obs::global()
                .gauge("graphbi_serve_connections")
                .add(-1);
            drop(peer);
        }));
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// How one frame-line read ended.
enum FrameLine {
    Line,
    Eof,
    TooLong,
}

/// The payload lines of a `BATCH`/`COMMIT`: the first one raw (the
/// recorder's label for the frame) and every line parsed, or the first
/// parse error.
type Payload<T> = (String, Result<Vec<T>, graphbi::WireError>);

/// A connection's ingress: the socket and the one buffer every frame
/// line is read into.
struct FrameReader {
    socket: BufReader<TcpStream>,
    line: Vec<u8>,
}

impl FrameReader {
    /// Reads one `\n`-terminated line into `self.line` with a hard length
    /// cap, polling the socket's read timeout so shutdown is noticed
    /// promptly. A partial line at EOF (or shutdown) is discarded — it
    /// was never a complete frame.
    fn read_line(&mut self, ctx: &Ctx) -> io::Result<FrameLine> {
        self.line.clear();
        loop {
            if ctx.shutdown.load(Ordering::SeqCst) {
                return Ok(FrameLine::Eof);
            }
            let buf = match self.socket.fill_buf() {
                Ok(b) => b,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                Err(e) => return Err(e),
            };
            if buf.is_empty() {
                return Ok(FrameLine::Eof);
            }
            let newline = buf.iter().position(|&b| b == b'\n');
            let consumed = newline.map_or(buf.len(), |pos| pos + 1);
            self.line
                .extend_from_slice(&buf[..newline.unwrap_or(buf.len())]);
            self.socket.consume(consumed);
            ctx.metrics.read_bytes.add(consumed as u64);
            if self.line.len() > MAX_LINE_BYTES {
                return Ok(FrameLine::TooLong);
            }
            if newline.is_some() {
                return Ok(FrameLine::Line);
            }
        }
    }

    /// The line last read, as text.
    fn text(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.line)
    }

    /// Reads the `k` payload lines of a `BATCH`/`COMMIT`, parsing each as
    /// it arrives. Every line is consumed before a parse error is
    /// reported, so a bad line never desynchronizes framing. `None` means the connection is over — the
    /// peer left, or a line broke the frame cap and `out` said so.
    fn read_payload<T>(
        &mut self,
        ctx: &Ctx,
        out: &mut FrameWriter,
        rid: u64,
        k: usize,
        parse: impl Fn(&str) -> Result<T, graphbi::WireError>,
    ) -> io::Result<Option<Payload<T>>> {
        let mut first = String::new();
        let mut items = Ok(Vec::with_capacity(k));
        for i in 0..k {
            match self.read_line(ctx)? {
                FrameLine::Line => {}
                FrameLine::Eof => return Ok(None),
                FrameLine::TooLong => {
                    out.err(ErrorCode::Malformed, TOO_LONG, rid);
                    out.send_frame()?;
                    return Ok(None);
                }
            }
            let text = self.text();
            if i == 0 {
                first = text.to_string();
            }
            if let Ok(parsed) = &mut items {
                match parse(&text) {
                    Ok(item) => parsed.push(item),
                    Err(e) => items = Err(e),
                }
            }
        }
        Ok(Some((first, items)))
    }
}

/// What a line over [`MAX_LINE_BYTES`] is answered with before the
/// connection closes: the stream can no longer be framed.
const TOO_LONG: &str = "line exceeds frame cap";

/// What a reply buffer keeps between frames; the allocation of a larger
/// frame is given back, so an idle connection holds at most this much.
const FRAME_BUF_KEEP: usize = 1 << 20;

/// A connection's egress. Every reply — status line and body — is
/// assembled in `buf` and leaves in exactly one `write_all`, so a frame
/// costs one syscall and one segment train on the `TCP_NODELAY` socket.
struct FrameWriter {
    stream: TcpStream,
    /// The frame under assembly; empty between replies.
    buf: Vec<u8>,
    /// The served-bytes counter — the egress half of the per-connection
    /// byte accounting.
    bytes: Arc<Counter>,
}

impl FrameWriter {
    /// Appends one line to the frame under assembly.
    fn line(&mut self, text: std::fmt::Arguments<'_>) {
        self.buf
            .write_fmt(text)
            .expect("writing to a Vec cannot fail");
        self.buf.push(b'\n');
    }

    /// Appends an `ERR` status line carrying the request id.
    fn err(&mut self, code: ErrorCode, message: &str, rid: u64) {
        self.line(format_args!(
            "{}",
            protocol::render_err_id(code, message, rid)
        ));
    }

    /// Sends the assembled frame, if any, and readies the buffer for the
    /// next one.
    fn send_frame(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.stream.write_all(&self.buf)?;
        self.bytes.add(self.buf.len() as u64);
        self.buf.clear();
        self.buf.shrink_to(FRAME_BUF_KEEP);
        Ok(())
    }
}

/// What a frame is answered with when it cannot produce results.
enum Refusal {
    Busy(String),
    Fail(ErrorCode, String),
}

/// Executes `requests` under the connection's pinned snapshot once an
/// admission permit is held: one `evaluate_many` call, or — for a
/// `sampled` singleton — one `profile` call, so the captured trace is
/// exact. The whole group fails with the first request error; answers
/// already computed for it are discarded, never half-reported.
fn dispatch(
    ctx: &Ctx,
    pinned: &Snapshot,
    requests: &[QueryRequest],
    sampled: bool,
) -> Result<Executed, Refusal> {
    let asked = Instant::now();
    let admitted = ctx.gate.admit(ctx.cfg.admission_timeout);
    let wait_ns = dur_ns(asked.elapsed());
    ctx.metrics.queue_wait_us.record(wait_ns / 1_000);
    let _permit = match admitted {
        Ok(permit) => permit,
        Err(AdmitError::Full) => {
            ctx.metrics.busy.inc();
            return Err(Refusal::Busy(format!(
                "admission queue full ({} deep) for {:?}",
                ctx.cfg.queue_depth, ctx.cfg.admission_timeout
            )));
        }
        Err(AdmitError::Closed) => {
            return Err(Refusal::Fail(ErrorCode::Io, "server shutting down".into()))
        }
    };
    let n = requests.len() as u64;
    let mut sp = graphbi_obs::span("serve.batch");
    sp.attr("size", n);
    ctx.metrics.batches.inc();
    ctx.metrics.batched_requests.add(n);
    ctx.metrics.batch_size.record(n);
    let executed = match requests {
        [request] if sampled => pinned.profile(request).map(|(response, profile)| Executed {
            answers: vec![(response, profile.stats)],
            wait_ns,
            profile: Some(profile),
        }),
        _ => pinned.evaluate_many(requests).map(|answers| Executed {
            answers,
            wait_ns,
            profile: None,
        }),
    };
    executed.map_err(|e| Refusal::Fail(e.code(), e.to_string()))
}

/// A frame's identity for the flight recorder: its id, the client's
/// correlation id, its verb, the request text it is labelled with (the
/// first payload line for `BATCH`/`COMMIT`) and when it started.
struct Frame {
    rid: u64,
    cid: Option<u64>,
    verb: &'static str,
    request: String,
    started: Instant,
}

impl Frame {
    /// The frame's trace: `batch` requests answered under `pinned`.
    fn trace(
        self,
        pinned: &Snapshot,
        total_ns: u64,
        queue_wait_ns: u64,
        batch: u64,
        profile: Profile,
    ) -> RequestTrace {
        RequestTrace {
            rid: self.rid,
            cid: self.cid,
            verb: self.verb,
            request: self.request,
            generation: pinned.generation(),
            epoch: pinned.epoch(),
            queue_wait_ns,
            total_ns,
            batch,
            status: 0,
            error: None,
            profile,
        }
    }

    /// Answers a [`Refusal`] on the wire and records it — failure capture
    /// is forced, so the request that errored is always `TRACE`-able
    /// afterwards.
    fn refuse(self, ctx: &Ctx, out: &mut FrameWriter, pinned: &Snapshot, refusal: Refusal) {
        let (code, message) = match refusal {
            Refusal::Busy(message) => {
                out.line(format_args!("{}", protocol::render_busy(&message)));
                (ErrorCode::Busy, message)
            }
            Refusal::Fail(code, message) => {
                out.err(code, &message, self.rid);
                (code, message)
            }
        };
        let total_ns = dur_ns(self.started.elapsed());
        let profile = synthesized_profile(IoStats::new(), total_ns, 0);
        let mut trace = self.trace(pinned, total_ns, 0, 1, profile);
        trace.status = code.as_u16();
        trace.error = Some(message);
        ctx.recorder.observe(trace, false);
    }
}

/// Answers a `QUERY` or `BATCH` frame: executes its requests under
/// `pinned`, writes the one reply frame, then hands the recorder its
/// trace when the recorder will keep it.
fn answer_queries(
    ctx: &Ctx,
    out: &mut FrameWriter,
    pinned: &Snapshot,
    frame: Frame,
    parsed: Result<Vec<QueryRequest>, graphbi::WireError>,
) -> io::Result<()> {
    let requests = match parsed {
        Ok(requests) => requests,
        Err(e) => {
            let refusal = Refusal::Fail(ErrorCode::Malformed, e.to_string());
            frame.refuse(ctx, out, pinned, refusal);
            return Ok(());
        }
    };
    let k = requests.len();
    ctx.metrics.requests.add(k as u64);
    let sampled = ctx.recorder.sample();
    let done = match dispatch(ctx, pinned, &requests, sampled) {
        Ok(done) => done,
        Err(refusal) => {
            frame.refuse(ctx, out, pinned, refusal);
            return Ok(());
        }
    };
    let (gen, epoch, rid) = (pinned.generation(), pinned.epoch(), frame.rid);
    let lines: usize = done.answers.iter().map(|(r, _)| r.line_count()).sum();
    if frame.verb == "batch" {
        out.line(format_args!(
            "OK count={k} generation={gen} epoch={epoch} lines={lines} id={rid}"
        ));
    } else {
        out.line(format_args!(
            "OK generation={gen} epoch={epoch} lines={lines} id={rid}"
        ));
    }
    for (response, _) in &done.answers {
        response.write_text(&mut out.buf);
    }
    out.send_frame()?;
    let total_ns = dur_ns(frame.started.elapsed());
    // Skip trace assembly entirely unless the recorder will keep it — the
    // unsampled fast path must not pay for a synthesized profile headed
    // for the floor.
    if ctx.recorder.should_capture(sampled, total_ns, false) {
        let profile = done.profile.unwrap_or_else(|| {
            let mut io = IoStats::new();
            let mut matches = 0u64;
            for (response, stats) in &done.answers {
                io.merge(stats);
                matches += response_matches(response);
            }
            synthesized_profile(io, total_ns, matches)
        });
        let trace = frame.trace(pinned, total_ns, done.wait_ns, k as u64, profile);
        ctx.recorder.observe(trace, sampled);
    }
    Ok(())
}

/// Renders the `TOP` live snapshot as one JSON line: connection and
/// admission state, per-verb latency quantiles, MVCC position, compaction and byte
/// counters, and the recorder's own health.
fn render_top(ctx: &Ctx) -> String {
    use std::fmt::Write as _;
    let snap = graphbi_obs::global().snapshot();
    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let g = |name: &str| snap.gauges.get(name).copied().unwrap_or(0);
    let empty = graphbi_obs::HistSnapshot::default();
    let h = |name: &str| snap.histograms.get(name).unwrap_or(&empty);
    let (generation, epoch) = (ctx.store.generation(), ctx.store.epoch());
    let (decided, captured, overwritten, slow, export_errors) = ctx.recorder.stats();
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"connections\":{},\"queue_depth\":{}",
        g("graphbi_serve_connections"),
        ctx.gate.held()
    );
    let _ = write!(out, ",\"generation\":{generation},\"epoch\":{epoch}");
    let _ = write!(
        out,
        ",\"requests_total\":{},\"commits_total\":{},\"busy_total\":{}",
        c("graphbi_serve_requests_total"),
        c("graphbi_serve_commits_total"),
        c("graphbi_serve_busy_total")
    );
    let _ = write!(
        out,
        ",\"batches_total\":{},\"batched_requests_total\":{}",
        c("graphbi_serve_batches_total"),
        c("graphbi_serve_batched_requests_total")
    );
    let _ = write!(
        out,
        ",\"read_bytes_total\":{},\"write_bytes_total\":{}",
        c("graphbi_serve_read_bytes_total"),
        c("graphbi_serve_write_bytes_total")
    );
    let compaction_failures: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("graphbi_compaction_failures_"))
        .map(|(_, v)| v)
        .sum();
    let _ = write!(
        out,
        ",\"wal_commits_total\":{},\"compactions_total\":{},\"compaction_failures_total\":{compaction_failures}",
        c("graphbi_wal_commits_total"),
        c("graphbi_compactions_total")
    );
    let _ = write!(
        out,
        ",\"kernel\":{}",
        json::quote(if g("graphbi_kernel_path") == 1 {
            "simd"
        } else {
            "scalar"
        })
    );
    out.push_str(",\"verbs\":{");
    for (i, (name, metric)) in [
        ("query", "graphbi_serve_verb_query_us"),
        ("batch", "graphbi_serve_verb_batch_us"),
        ("commit", "graphbi_serve_verb_commit_us"),
        ("profile", "graphbi_serve_verb_profile_us"),
    ]
    .iter()
    .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        let hs = h(metric);
        let _ = write!(
            out,
            "{}:{{\"count\":{},\"p50_us\":{},\"p99_us\":{}}}",
            json::quote(name),
            hs.count,
            hs.quantile(0.5),
            hs.quantile(0.99)
        );
    }
    out.push('}');
    let qw = h("graphbi_serve_queue_wait_us");
    let _ = write!(
        out,
        ",\"queue_wait_us\":{{\"p50\":{},\"p99\":{}}}",
        qw.quantile(0.5),
        qw.quantile(0.99)
    );
    let bs = h("graphbi_serve_batch_size");
    let _ = write!(
        out,
        ",\"batch_size\":{{\"count\":{},\"mean\":{:.2}}}",
        bs.count,
        bs.mean()
    );
    let _ = write!(
        out,
        ",\"recorder\":{{\"requests\":{decided},\"captured\":{captured},\"overwritten\":{overwritten},\
         \"slow\":{slow},\"export_errors\":{export_errors},\"sample_every\":{},\"slow_threshold_ms\":{}}}",
        ctx.cfg.sample_every,
        ctx.cfg.slow_threshold.as_millis()
    );
    out.push('}');
    out
}

fn handle_connection(stream: TcpStream, ctx: &Ctx) -> io::Result<()> {
    stream.set_read_timeout(Some(ctx.cfg.read_timeout))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true).ok();
    let mut frames = FrameReader {
        socket: BufReader::new(stream.try_clone()?),
        line: Vec::new(),
    };
    let mut out = FrameWriter {
        stream,
        buf: Vec::new(),
        bytes: Arc::clone(&ctx.metrics.write_bytes),
    };

    // Handshake: the first frame must be HELLO with our version.
    let refusal = match frames.read_line(ctx)? {
        FrameLine::Eof => return Ok(()),
        FrameLine::TooLong => Some((ErrorCode::Malformed, TOO_LONG.to_owned())),
        FrameLine::Line => match protocol::parse_verb(&frames.text()) {
            Ok(Verb::Hello(v)) if v == PROTOCOL_VERSION => None,
            Ok(Verb::Hello(v)) => Some((
                ErrorCode::Unsupported,
                format!("protocol {v:?}; this server speaks {PROTOCOL_VERSION}"),
            )),
            Ok(_) | Err(_) => Some((
                ErrorCode::Malformed,
                "first frame must be HELLO <version>".to_owned(),
            )),
        },
    };
    if let Some((code, msg)) = refusal {
        out.line(format_args!("{}", protocol::render_err(code, &msg)));
        return out.send_frame();
    }
    let mut pinned = ctx.store.snapshot();
    let (gen, epoch) = (pinned.generation(), pinned.epoch());
    let hello_rid = ctx.recorder.next_rid();
    out.line(format_args!(
        "OK {PROTOCOL_VERSION} generation={gen} epoch={epoch} lines={} id={hello_rid}",
        ctx.hello_text.lines().count()
    ));
    out.buf.extend_from_slice(ctx.hello_text.as_bytes());
    out.send_frame()?;

    loop {
        match frames.read_line(ctx)? {
            FrameLine::Line => {}
            FrameLine::Eof => return Ok(()),
            FrameLine::TooLong => {
                out.err(ErrorCode::Malformed, TOO_LONG, ctx.recorder.next_rid());
                return out.send_frame();
            }
        }
        let text = frames.text();
        if text.trim().is_empty() {
            continue;
        }
        // Every frame gets a server-assigned id, echoed on the reply so a
        // client can TRACE it later.
        let rid = ctx.recorder.next_rid();
        let verb = match protocol::parse_verb(&text) {
            Ok(v) => v,
            Err(e) => {
                out.err(ErrorCode::Malformed, &e.to_string(), rid);
                out.send_frame()?;
                continue;
            }
        };
        let started = Instant::now();
        let mut sp = graphbi_obs::span("serve.request");
        match verb {
            Verb::Hello(_) => out.err(ErrorCode::Malformed, "HELLO already exchanged", rid),
            Verb::Query { cid, payload } => {
                sp.attr("requests", 1);
                let parsed = QueryRequest::parse_text(&payload).map(|req| vec![req]);
                let frame = Frame {
                    rid,
                    cid,
                    verb: "query",
                    request: payload,
                    started,
                };
                answer_queries(ctx, &mut out, &pinned, frame, parsed)?;
                ctx.metrics.verb_query_us.record(dur_us(started.elapsed()));
            }
            Verb::Batch { count: k, cid } => {
                sp.attr("requests", k as u64);
                let parse = QueryRequest::parse_text;
                let Some((first, parsed)) = frames.read_payload(ctx, &mut out, rid, k, parse)?
                else {
                    return Ok(());
                };
                let frame = Frame {
                    rid,
                    cid,
                    verb: "batch",
                    request: first,
                    started,
                };
                answer_queries(ctx, &mut out, &pinned, frame, parsed)?;
                ctx.metrics.verb_batch_us.record(dur_us(started.elapsed()));
            }
            Verb::Commit(k) => {
                sp.attr("ops", k as u64);
                let parse = protocol::parse_op;
                let Some((first, parsed)) = frames.read_payload(ctx, &mut out, rid, k, parse)?
                else {
                    return Ok(());
                };
                let frame = Frame {
                    rid,
                    cid: None,
                    verb: "commit",
                    request: first,
                    started,
                };
                let sampled = parsed.is_ok() && ctx.recorder.sample();
                let committed = parsed
                    .map_err(|e| Refusal::Fail(ErrorCode::Malformed, e.to_string()))
                    .and_then(|ops| commit(&ctx.store, &ops));
                match committed {
                    Err(refusal) => frame.refuse(ctx, &mut out, &pinned, refusal),
                    Ok(()) => {
                        ctx.metrics.commits.inc();
                        // Read-your-writes: re-pin past our own commit.
                        pinned = ctx.store.snapshot();
                        let (gen, epoch) = (pinned.generation(), pinned.epoch());
                        out.line(format_args!(
                            "OK generation={gen} epoch={epoch} lines=0 id={rid}"
                        ));
                        out.send_frame()?;
                        let total_ns = dur_ns(started.elapsed());
                        if ctx.recorder.should_capture(sampled, total_ns, false) {
                            let profile = synthesized_profile(IoStats::new(), total_ns, 0);
                            let trace = frame.trace(&pinned, total_ns, 0, k as u64, profile);
                            ctx.recorder.observe(trace, sampled);
                        }
                    }
                }
                ctx.metrics.verb_commit_us.record(dur_us(started.elapsed()));
            }
            Verb::Profile(payload) => {
                match QueryRequest::parse_text(&payload) {
                    Err(e) => out.err(ErrorCode::Malformed, &e.to_string(), rid),
                    // PROFILE, like COMMIT, is not admission-gated: it
                    // runs alone, on demand, under the pinned snapshot.
                    Ok(req) => {
                        let frame = Frame {
                            rid,
                            cid: None,
                            verb: "profile",
                            request: payload,
                            started,
                        };
                        match pinned.profile(&req) {
                            Err(e) => {
                                let refusal = Refusal::Fail(e.code(), e.to_string());
                                frame.refuse(ctx, &mut out, &pinned, refusal);
                            }
                            Ok((_, prof)) => {
                                out.line(format_args!("OK lines=1 id={rid}"));
                                out.line(format_args!("{}", prof.render_json()));
                                out.send_frame()?;
                                let total_ns = dur_ns(started.elapsed());
                                // A profiled request is always captured: the
                                // stored Profile is the exact object whose
                                // JSON just went on the wire, so TRACE
                                // replays it bit-identically.
                                let trace = frame.trace(&pinned, total_ns, 0, 1, prof);
                                ctx.recorder.observe(trace, true);
                            }
                        }
                    }
                }
                ctx.metrics
                    .verb_profile_us
                    .record(dur_us(started.elapsed()));
            }
            Verb::Metrics => {
                let text = graphbi_obs::global().snapshot().render_text();
                out.line(format_args!("OK lines={} id={rid}", text.lines().count()));
                out.buf.extend_from_slice(text.as_bytes());
            }
            Verb::Trace(target) => match ctx.recorder.get(target) {
                Some(trace) => {
                    out.line(format_args!("OK lines=1 id={rid}"));
                    out.line(format_args!("{}", trace.profile.render_json()));
                }
                None => out.err(
                    ErrorCode::NotFound,
                    &format!("no captured trace for request id {target}"),
                    rid,
                ),
            },
            Verb::Slowlog(n) => {
                let entries = ctx.recorder.recent_slow(n.unwrap_or(DEFAULT_SLOWLOG));
                out.line(format_args!("OK lines={} id={rid}", entries.len()));
                for entry in &entries {
                    out.line(format_args!("{}", entry.render_json()));
                }
            }
            Verb::Top => {
                out.line(format_args!("OK lines=1 id={rid}"));
                out.line(format_args!("{}", render_top(ctx)));
            }
            Verb::Refresh => {
                pinned = ctx.store.snapshot();
                let (gen, epoch) = (pinned.generation(), pinned.epoch());
                out.line(format_args!(
                    "OK generation={gen} epoch={epoch} lines=0 id={rid}"
                ));
            }
            Verb::Quit => {
                out.line(format_args!("OK lines=0 id={rid}"));
                return out.send_frame();
            }
        }
        out.send_frame()?;
    }
}
