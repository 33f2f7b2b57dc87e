//! The concurrent TCP server: per-connection sessions over a shared
//! store, with cross-connection request batching.
//!
//! # Architecture
//!
//! One thread accepts connections; each connection gets a handler thread
//! that parses frames and *enqueues* query jobs rather than executing
//! them. A single batcher thread drains the [`AdmissionQueue`] in runs of
//! jobs pinned to the same store state and answers each run with **one**
//! [`Session::evaluate_many`] call — so requests arriving concurrently on
//! different connections share duplicate-elimination, column fetches and
//! the worker pool exactly like an in-process batch (PR 2's scaling
//! trick, now across the network).
//!
//! # Sessions and snapshots
//!
//! A connection pins its view of the store at `HELLO` time. Over an
//! [`MvccStore`] that is a real `(generation, epoch)` snapshot: answers
//! stay stable while writers commit, until the connection `REFRESH`es or
//! commits itself (read-your-writes). Batching respects pins — only jobs
//! on the same `(generation, epoch)` coalesce, so a batch can never mix
//! two points in time.
//!
//! # Backpressure state machine
//!
//! ```text
//!             offer(job, admission_timeout)
//! CLIENT ──▶ queue has room? ──yes──▶ ADMITTED ──▶ batched ──▶ OK …
//!                │ no
//!                ▼ wait ≤ admission_timeout
//!            room appeared? ──yes──▶ ADMITTED
//!                │ no (timeout)
//!                ▼
//!            BUSY 210 … (typed, within the timeout; nothing buffered)
//! ```
//!
//! Memory is bounded end-to-end: frame lines are capped
//! ([`MAX_LINE_BYTES`]), batch counts are capped ([`MAX_BATCH`]), and the
//! queue holds at most `queue_depth` jobs — overload degrades into
//! prompt, typed `BUSY` responses, never into growth.

use std::io::{self, BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use graphbi::{
    Coded, ErrorCode, MvccStore, Profile, QueryRequest, Response, Session, SessionError,
    SharedStore, Snapshot,
};
use graphbi_columnstore::{DeltaOp, IoStats};
use graphbi_obs::{json, Counter, Histogram};

use crate::protocol::{self, Verb, MAX_LINE_BYTES, PROTOCOL_VERSION};
use crate::queue::{AdmissionQueue, OfferError};
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
    /// Admission queue depth: jobs waiting for the batcher.
    pub queue_depth: usize,
    /// How long an arriving request may wait for queue space before the
    /// server answers `BUSY`.
    pub admission_timeout: Duration,
    /// Largest run of jobs coalesced into one `evaluate_many` call.
    pub batch_max: usize,
    /// Artificial stall before each batch executes — `0` in production;
    /// tests and benchmarks raise it to make queueing deterministic.
    pub batch_delay: Duration,
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
            batch_max: 64,
            batch_delay: Duration::ZERO,
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

/// The store a server fronts: lock-shared or MVCC.
#[derive(Clone)]
pub enum ServeStore {
    /// Reader-writer lock over one [`graphbi::GraphStore`]; sessions pin
    /// nothing (every query sees the latest state).
    Shared(SharedStore),
    /// MVCC store; sessions pin `(generation, epoch)` snapshots.
    Mvcc(Arc<MvccStore>),
}

/// A connection's pinned execution state.
#[derive(Clone)]
enum Pinned {
    Shared(SharedStore),
    Mvcc(Arc<Snapshot>),
}

impl Pinned {
    /// Jobs coalesce only within one key: the pinned `(generation,
    /// epoch)`. Shared stores have a single timeline, so every job
    /// shares key `(0, 0)` — `SharedStore::evaluate_many` still answers
    /// the whole batch under one read lock.
    fn batch_key(&self) -> (u64, u64) {
        match self {
            Pinned::Shared(_) => (0, 0),
            Pinned::Mvcc(s) => (s.generation(), s.epoch()),
        }
    }

    fn info(&self) -> (u64, u64) {
        self.batch_key()
    }

    fn execute(&self, request: &QueryRequest) -> Result<(Response, IoStats), SessionError> {
        match self {
            Pinned::Shared(s) => s.execute(request),
            Pinned::Mvcc(s) => s.execute(request),
        }
    }

    fn evaluate_many(
        &self,
        requests: &[QueryRequest],
    ) -> Result<Vec<(Response, IoStats)>, SessionError> {
        match self {
            Pinned::Shared(s) => s.evaluate_many(requests),
            Pinned::Mvcc(s) => s.evaluate_many(requests),
        }
    }

    fn profile(
        &self,
        request: &QueryRequest,
    ) -> Result<(Response, graphbi::Profile), SessionError> {
        match self {
            Pinned::Shared(s) => s.profile(request),
            Pinned::Mvcc(s) => s.profile(request),
        }
    }
}

impl ServeStore {
    fn pin(&self) -> Pinned {
        match self {
            ServeStore::Shared(s) => Pinned::Shared(s.clone()),
            ServeStore::Mvcc(m) => Pinned::Mvcc(Arc::new(m.snapshot())),
        }
    }

    fn universe_text(&self) -> String {
        match self {
            ServeStore::Shared(s) => s.read(|g| g.universe().to_text()),
            ServeStore::Mvcc(m) => m.snapshot().universe().to_text(),
        }
    }

    fn edge_count(&self) -> usize {
        match self {
            ServeStore::Shared(s) => s.read(|g| g.universe().edge_count()),
            ServeStore::Mvcc(m) => m.snapshot().universe().edge_count(),
        }
    }

    /// Applies a commit atomically (one write lock / one MVCC commit).
    fn commit(&self, ops: &[DeltaOp]) -> Result<(), (ErrorCode, String)> {
        let edges = self.edge_count() as u32;
        for op in ops {
            let rec = match op {
                DeltaOp::Insert(r) => r,
                DeltaOp::Update(_, r) => r,
            };
            if let Some((e, _)) = rec.edges().iter().find(|(e, _)| e.0 >= edges) {
                return Err((
                    ErrorCode::UnknownEdge,
                    format!("edge id {} is not in the universe (< {edges})", e.0),
                ));
            }
        }
        match self {
            ServeStore::Shared(s) => {
                if ops.iter().any(|op| matches!(op, DeltaOp::Update(..))) {
                    return Err((
                        ErrorCode::Unsupported,
                        "update ops need an MVCC store (serve --mvcc)".into(),
                    ));
                }
                s.write(|g| {
                    for op in ops {
                        if let DeltaOp::Insert(rec) = op {
                            g.append_record(rec);
                        }
                    }
                });
                Ok(())
            }
            ServeStore::Mvcc(m) => match m.commit(ops) {
                Ok(_epoch) => Ok(()),
                Err(e) => Err((e.code(), e.to_string())),
            },
        }
    }
}

/// What the batcher hands back per request: the answer plus the
/// observability facts the flight recorder needs (measured queue wait,
/// run size, and — for sampled singletons — the exact profile).
struct JobOutcome {
    response: Response,
    io: IoStats,
    /// Nanoseconds the job waited in the admission queue.
    wait_ns: u64,
    /// Size of the run this job executed in (1 = solo).
    batch: u64,
    /// Exact profile, present only for sampled singleton runs.
    profile: Option<Profile>,
}

/// An indexed answer on its way back to the handler that enqueued it.
type Reply = (usize, Result<JobOutcome, SessionError>);

/// One queued request: where it runs, where its answer goes.
struct Job {
    pinned: Pinned,
    request: QueryRequest,
    index: usize,
    /// Head-sampled: the batcher runs this job solo through the profiler
    /// so its captured trace is exact.
    sampled: bool,
    reply: mpsc::Sender<Reply>,
    enqueued: Instant,
}

/// Metric handles the hot paths record through — fetched once at server
/// start so no request pays the registry's name-lookup lock.
struct ServeMetrics {
    requests: Arc<Counter>,
    commits: Arc<Counter>,
    read_bytes: Arc<Counter>,
    write_bytes: Arc<Counter>,
    admission_wait_us: Arc<Histogram>,
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
            admission_wait_us: reg.histogram("graphbi_serve_admission_wait_us"),
            verb_query_us: reg.histogram("graphbi_serve_verb_query_us"),
            verb_batch_us: reg.histogram("graphbi_serve_verb_batch_us"),
            verb_commit_us: reg.histogram("graphbi_serve_verb_commit_us"),
            verb_profile_us: reg.histogram("graphbi_serve_verb_profile_us"),
        }
    }
}

struct Ctx {
    store: ServeStore,
    cfg: ServeConfig,
    queue: AdmissionQueue<Job>,
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
    batcher: Option<JoinHandle<()>>,
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
        let hello_text = store.universe_text();
        let collector = cfg.trace.then(|| Arc::new(graphbi_obs::Collector::new()));
        let recorder = Recorder::new(cfg.recorder_config());
        let ctx = Arc::new(Ctx {
            store,
            queue: AdmissionQueue::new(cfg.queue_depth),
            cfg,
            shutdown: AtomicBool::new(false),
            collector,
            hello_text,
            recorder,
            metrics: ServeMetrics::new(),
        });
        let batcher = {
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || batcher_loop(&ctx))
        };
        let accept = {
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || accept_loop(listener, &ctx))
        };
        Ok(Server {
            addr: local,
            ctx,
            accept: Some(accept),
            batcher: Some(batcher),
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

    /// Stops accepting, drains every queued job (each still gets its
    /// response), and joins all threads.
    pub fn shutdown(&mut self) {
        if self.ctx.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        self.ctx.queue.close();
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(t) = self.batcher.take() {
            let _ = t.join();
        }
    }

    /// Blocks until the server stops (`graphbi serve` runs forever on
    /// this).
    pub fn wait(mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(t) = self.batcher.take() {
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

/// What a dispatch attempt answers when it cannot produce results.
enum Refusal {
    Busy(String),
    Fail(ErrorCode, String),
}

/// Enqueues `requests` for the batcher and collects the answers in
/// request order. The whole group fails with the first request error —
/// answers already computed for it are discarded, never half-reported.
/// A `sampled` singleton is marked so the batcher runs it solo through
/// the profiler.
fn dispatch(
    ctx: &Ctx,
    pinned: &Pinned,
    requests: Vec<QueryRequest>,
    sampled: bool,
) -> Result<Vec<JobOutcome>, Refusal> {
    let n = requests.len();
    let (tx, rx) = mpsc::channel();
    for (index, request) in requests.into_iter().enumerate() {
        let job = Job {
            pinned: pinned.clone(),
            request,
            index,
            sampled: sampled && n == 1,
            reply: tx.clone(),
            enqueued: Instant::now(),
        };
        let offered = Instant::now();
        let admitted = ctx.queue.offer(job, ctx.cfg.admission_timeout);
        ctx.metrics
            .admission_wait_us
            .record(dur_us(offered.elapsed()));
        match admitted {
            Ok(()) => {}
            Err(OfferError::Full(_)) => {
                graphbi_obs::global()
                    .counter("graphbi_serve_busy_total")
                    .inc();
                return Err(Refusal::Busy(format!(
                    "admission queue full ({} deep) for {:?}",
                    ctx.cfg.queue_depth, ctx.cfg.admission_timeout
                )));
            }
            Err(OfferError::Closed(_)) => {
                return Err(Refusal::Fail(ErrorCode::Io, "server shutting down".into()))
            }
        }
    }
    drop(tx);
    let mut results: Vec<Option<JobOutcome>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        match rx.recv_timeout(Duration::from_secs(120)) {
            Ok((i, Ok(r))) => results[i] = Some(r),
            Ok((_, Err(e))) => return Err(Refusal::Fail(e.code(), e.to_string())),
            Err(_) => {
                return Err(Refusal::Fail(
                    ErrorCode::Internal,
                    "batcher reply lost".into(),
                ))
            }
        }
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("every index answered"))
        .collect())
}

/// Records a failed request into the flight recorder — failure capture is
/// forced, so the request that errored is always `TRACE`-able afterwards.
#[allow(clippy::too_many_arguments)]
fn record_failure(
    ctx: &Ctx,
    rid: u64,
    cid: Option<u64>,
    verb: &'static str,
    request: &str,
    pinned: &Pinned,
    started: Instant,
    code: ErrorCode,
    message: &str,
) {
    let (generation, epoch) = pinned.info();
    let total_ns = dur_ns(started.elapsed());
    ctx.recorder.observe(
        RequestTrace {
            rid,
            cid,
            verb,
            request: request.to_owned(),
            generation,
            epoch,
            queue_wait_ns: 0,
            total_ns,
            batch: 1,
            status: code.as_u16(),
            error: Some(message.to_owned()),
            profile: synthesized_profile(IoStats::new(), total_ns, 0),
        },
        false,
    );
}

/// Answers a [`Refusal`] on the wire and records it into the recorder.
#[allow(clippy::too_many_arguments)]
fn refuse(
    out: &mut FrameWriter,
    ctx: &Ctx,
    rid: u64,
    cid: Option<u64>,
    verb: &'static str,
    request: &str,
    pinned: &Pinned,
    started: Instant,
    refusal: Refusal,
) {
    let (code, msg) = match refusal {
        Refusal::Busy(msg) => {
            out.line(format_args!("{}", protocol::render_busy(&msg)));
            (ErrorCode::Busy, msg)
        }
        Refusal::Fail(code, msg) => {
            out.err(code, &msg, rid);
            (code, msg)
        }
    };
    record_failure(ctx, rid, cid, verb, request, pinned, started, code, &msg);
}

/// Renders the `TOP` live snapshot as one JSON line: connection and queue
/// state, per-verb latency quantiles, MVCC position, compaction and byte
/// counters, and the recorder's own health.
fn render_top(ctx: &Ctx) -> String {
    use std::fmt::Write as _;
    let snap = graphbi_obs::global().snapshot();
    let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let g = |name: &str| snap.gauges.get(name).copied().unwrap_or(0);
    let empty = graphbi_obs::HistSnapshot::default();
    let h = |name: &str| snap.histograms.get(name).unwrap_or(&empty);
    let (generation, epoch) = match &ctx.store {
        ServeStore::Shared(_) => (0, 0),
        ServeStore::Mvcc(m) => (m.generation(), m.epoch()),
    };
    let (decided, captured, overwritten, slow, export_errors) = ctx.recorder.stats();
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"connections\":{},\"queue_depth\":{},\"inflight_batch\":{}",
        g("graphbi_serve_connections"),
        ctx.queue.len(),
        g("graphbi_serve_inflight_batch")
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
    let aw = h("graphbi_serve_admission_wait_us");
    let _ = write!(
        out,
        ",\"queue_wait_us\":{{\"p50\":{},\"p99\":{}}},\"admission_wait_us\":{{\"p50\":{},\"p99\":{}}}",
        qw.quantile(0.5),
        qw.quantile(0.99),
        aw.quantile(0.5),
        aw.quantile(0.99)
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
    let mut pinned = ctx.store.pin();
    let (gen, epoch) = pinned.info();
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
                match QueryRequest::parse_text(&payload) {
                    Err(e) => {
                        let msg = e.to_string();
                        out.err(ErrorCode::Malformed, &msg, rid);
                        record_failure(
                            ctx,
                            rid,
                            cid,
                            "query",
                            &payload,
                            &pinned,
                            started,
                            ErrorCode::Malformed,
                            &msg,
                        );
                    }
                    Ok(req) => {
                        ctx.metrics.requests.inc();
                        let sampled = ctx.recorder.sample();
                        match dispatch(ctx, &pinned, vec![req], sampled) {
                            Ok(mut outcomes) => {
                                let o = outcomes.pop().expect("one request, one outcome");
                                let (gen, epoch) = pinned.info();
                                out.line(format_args!(
                                    "OK generation={gen} epoch={epoch} lines={} id={rid}",
                                    o.response.line_count()
                                ));
                                o.response.write_text(&mut out.buf);
                                out.send_frame()?;
                                let total_ns = dur_ns(started.elapsed());
                                // Skip trace assembly entirely unless the
                                // recorder will keep it — the unsampled
                                // fast path must not pay for clones and a
                                // synthesized profile headed for the floor.
                                if ctx.recorder.should_capture(sampled, total_ns, false) {
                                    let matches = response_matches(&o.response);
                                    let profile = o.profile.unwrap_or_else(|| {
                                        synthesized_profile(o.io, total_ns, matches)
                                    });
                                    ctx.recorder.observe(
                                        RequestTrace {
                                            rid,
                                            cid,
                                            verb: "query",
                                            request: payload,
                                            generation: gen,
                                            epoch,
                                            queue_wait_ns: o.wait_ns,
                                            total_ns,
                                            batch: o.batch,
                                            status: 0,
                                            error: None,
                                            profile,
                                        },
                                        sampled,
                                    );
                                }
                            }
                            Err(r) => refuse(
                                &mut out, ctx, rid, cid, "query", &payload, &pinned, started, r,
                            ),
                        }
                    }
                }
                ctx.metrics.verb_query_us.record(dur_us(started.elapsed()));
            }
            Verb::Batch { count: k, cid } => {
                sp.attr("requests", k as u64);
                let parse = QueryRequest::parse_text;
                let Some((first, parsed)) = frames.read_payload(ctx, &mut out, rid, k, parse)?
                else {
                    return Ok(());
                };
                match parsed {
                    Err(e) => {
                        let msg = e.to_string();
                        out.err(ErrorCode::Malformed, &msg, rid);
                        record_failure(
                            ctx,
                            rid,
                            cid,
                            "batch",
                            &first,
                            &pinned,
                            started,
                            ErrorCode::Malformed,
                            &msg,
                        );
                    }
                    Ok(reqs) => {
                        ctx.metrics.requests.add(k as u64);
                        let sampled = ctx.recorder.sample();
                        match dispatch(ctx, &pinned, reqs, sampled) {
                            Ok(outcomes) => {
                                let lines: usize =
                                    outcomes.iter().map(|o| o.response.line_count()).sum();
                                let (gen, epoch) = pinned.info();
                                out.line(format_args!(
                                    "OK count={k} generation={gen} epoch={epoch} lines={lines} id={rid}"
                                ));
                                for o in &outcomes {
                                    o.response.write_text(&mut out.buf);
                                }
                                out.send_frame()?;
                                let total_ns = dur_ns(started.elapsed());
                                if ctx.recorder.should_capture(sampled, total_ns, false) {
                                    let mut io = IoStats::new();
                                    let mut matches = 0u64;
                                    let mut wait_ns = 0u64;
                                    for o in &outcomes {
                                        io.merge(&o.io);
                                        matches += response_matches(&o.response);
                                        wait_ns = wait_ns.max(o.wait_ns);
                                    }
                                    // A 1-request batch rides the sampled
                                    // singleton path, so its profile is exact.
                                    let profile = outcomes
                                        .into_iter()
                                        .find_map(|o| o.profile)
                                        .unwrap_or_else(|| {
                                            synthesized_profile(io, total_ns, matches)
                                        });
                                    ctx.recorder.observe(
                                        RequestTrace {
                                            rid,
                                            cid,
                                            verb: "batch",
                                            request: first,
                                            generation: gen,
                                            epoch,
                                            queue_wait_ns: wait_ns,
                                            total_ns,
                                            batch: k as u64,
                                            status: 0,
                                            error: None,
                                            profile,
                                        },
                                        sampled,
                                    );
                                }
                            }
                            Err(r) => refuse(
                                &mut out, ctx, rid, cid, "batch", &first, &pinned, started, r,
                            ),
                        }
                    }
                }
                ctx.metrics.verb_batch_us.record(dur_us(started.elapsed()));
            }
            Verb::Commit(k) => {
                sp.attr("ops", k as u64);
                let parse = protocol::parse_op;
                let Some((first, parsed)) = frames.read_payload(ctx, &mut out, rid, k, parse)?
                else {
                    return Ok(());
                };
                let sampled = parsed.is_ok() && ctx.recorder.sample();
                let committed = parsed
                    .map_err(|e| (ErrorCode::Malformed, e.to_string()))
                    .and_then(|ops| ctx.store.commit(&ops));
                match committed {
                    Err((code, msg)) => {
                        out.err(code, &msg, rid);
                        record_failure(
                            ctx, rid, None, "commit", &first, &pinned, started, code, &msg,
                        );
                    }
                    Ok(()) => {
                        ctx.metrics.commits.inc();
                        // Read-your-writes: re-pin past our own commit.
                        pinned = ctx.store.pin();
                        let (gen, epoch) = pinned.info();
                        out.line(format_args!(
                            "OK generation={gen} epoch={epoch} lines=0 id={rid}"
                        ));
                        out.send_frame()?;
                        let total_ns = dur_ns(started.elapsed());
                        if ctx.recorder.should_capture(sampled, total_ns, false) {
                            ctx.recorder.observe(
                                RequestTrace {
                                    rid,
                                    cid: None,
                                    verb: "commit",
                                    request: first,
                                    generation: gen,
                                    epoch,
                                    queue_wait_ns: 0,
                                    total_ns,
                                    batch: k as u64,
                                    status: 0,
                                    error: None,
                                    profile: synthesized_profile(IoStats::new(), total_ns, 0),
                                },
                                sampled,
                            );
                        }
                    }
                }
                ctx.metrics.verb_commit_us.record(dur_us(started.elapsed()));
            }
            Verb::Profile(payload) => {
                match QueryRequest::parse_text(&payload) {
                    Err(e) => out.err(ErrorCode::Malformed, &e.to_string(), rid),
                    // Profiling runs solo on the handler thread — a profile
                    // measures one request, not its luck sharing a batch.
                    Ok(req) => match pinned.profile(&req) {
                        Err(e) => {
                            let msg = e.to_string();
                            out.err(e.code(), &msg, rid);
                            record_failure(
                                ctx,
                                rid,
                                None,
                                "profile",
                                &payload,
                                &pinned,
                                started,
                                e.code(),
                                &msg,
                            );
                        }
                        Ok((_, prof)) => {
                            out.line(format_args!("OK lines=1 id={rid}"));
                            out.line(format_args!("{}", prof.render_json()));
                            out.send_frame()?;
                            let (gen, epoch) = pinned.info();
                            let total_ns = dur_ns(started.elapsed());
                            // A profiled request is always captured: the
                            // stored Profile is the exact object whose JSON
                            // just went on the wire, so TRACE replays it
                            // bit-identically.
                            ctx.recorder.observe(
                                RequestTrace {
                                    rid,
                                    cid: None,
                                    verb: "profile",
                                    request: payload,
                                    generation: gen,
                                    epoch,
                                    queue_wait_ns: 0,
                                    total_ns,
                                    batch: 1,
                                    status: 0,
                                    error: None,
                                    profile: prof,
                                },
                                true,
                            );
                        }
                    },
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
                pinned = ctx.store.pin();
                let (gen, epoch) = pinned.info();
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

/// The single batcher: drains compatible runs and answers each with one
/// `evaluate_many`. On a batch-level error it falls back to per-request
/// execution so one poisoned request cannot fail its neighbours.
fn batcher_loop(ctx: &Arc<Ctx>) {
    let _tracing = ctx.collector.as_ref().map(graphbi_obs::install);
    let reg = graphbi_obs::global();
    let batches = reg.counter("graphbi_serve_batches_total");
    let batched = reg.counter("graphbi_serve_batched_requests_total");
    let size_hist = reg.histogram("graphbi_serve_batch_size");
    let wait_hist = reg.histogram("graphbi_serve_queue_wait_us");
    let depth_gauge = reg.gauge("graphbi_serve_queue_depth");
    let inflight_gauge = reg.gauge("graphbi_serve_inflight_batch");
    // Sampled jobs never coalesce: each runs solo through the profiler so
    // its captured trace is exact, not an estimate of its share of a run.
    while let Some(batch) = ctx.queue.take_batch(ctx.cfg.batch_max, |a, b| {
        a.pinned.batch_key() == b.pinned.batch_key() && !a.sampled && !b.sampled
    }) {
        depth_gauge.set(ctx.queue.len() as i64);
        if !ctx.cfg.batch_delay.is_zero() {
            std::thread::sleep(ctx.cfg.batch_delay);
        }
        let mut sp = graphbi_obs::span("serve.batch");
        sp.attr("size", batch.len() as u64);
        batches.inc();
        batched.add(batch.len() as u64);
        size_hist.record(batch.len() as u64);
        inflight_gauge.set(batch.len() as i64);
        let waits: Vec<u64> = batch
            .iter()
            .map(|job| dur_ns(job.enqueued.elapsed()))
            .collect();
        for wait in &waits {
            wait_hist.record(wait / 1_000);
        }
        let run = batch.len() as u64;
        if run == 1 && batch[0].sampled {
            let job = batch.into_iter().next().expect("singleton batch");
            let sent = match job.pinned.profile(&job.request) {
                Ok((response, profile)) => Ok(JobOutcome {
                    response,
                    io: profile.stats,
                    wait_ns: waits[0],
                    batch: 1,
                    profile: Some(profile),
                }),
                Err(e) => Err(e),
            };
            let _ = job.reply.send((job.index, sent));
            inflight_gauge.set(0);
            continue;
        }
        let requests: Vec<QueryRequest> = batch.iter().map(|j| j.request.clone()).collect();
        match batch[0].pinned.evaluate_many(&requests) {
            Ok(results) => {
                for ((job, (response, io)), wait_ns) in batch.into_iter().zip(results).zip(waits) {
                    let outcome = JobOutcome {
                        response,
                        io,
                        wait_ns,
                        batch: run,
                        profile: None,
                    };
                    let _ = job.reply.send((job.index, Ok(outcome)));
                }
            }
            Err(_) => {
                for (job, wait_ns) in batch.into_iter().zip(waits) {
                    let result =
                        job.pinned
                            .execute(&job.request)
                            .map(|(response, io)| JobOutcome {
                                response,
                                io,
                                wait_ns,
                                batch: 1,
                                profile: None,
                            });
                    let _ = job.reply.send((job.index, result));
                }
            }
        }
        inflight_gauge.set(0);
    }
}
