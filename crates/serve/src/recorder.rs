//! The server's flight recorder: which requests get captured, where the
//! captures live, and how slow ones are exported.
//!
//! Policy (the tentpole's sampling contract):
//!
//! * Every request frame gets a monotone server-assigned **request id**
//!   ([`Recorder::next_rid`]) that is propagated on the wire.
//! * A deterministic head sampler ([`graphbi_obs::flight::Sampler`])
//!   picks 1/N requests for full capture; sampled `QUERY` requests run
//!   solo through the profiler so their [`Profile`] is exact.
//! * Capture is **forced** — regardless of the sampler — for requests
//!   that fail and for requests over the slow threshold, so the request
//!   you need to explain after the fact is always in the ring.
//! * Over-threshold requests additionally land in a second ring served
//!   by `SLOWLOG`, and (when configured) are appended as CRC-framed JSON
//!   lines through the [`Vfs`](graphbi_columnstore::Vfs) trait — the
//!   durable workload log.
//!
//! The unsampled fast path costs one atomic (rid), one atomic (sampler)
//! and a comparison against the threshold; nothing is allocated and no
//! ring is touched.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use graphbi::{IoStats, Profile, PHASE_NAMES};
use graphbi_columnstore::VfsHandle;
use graphbi_obs::flight::{FlightRing, Sampler};
use graphbi_obs::{json, slowlog};

/// Where over-threshold entries are durably appended: one CRC-framed JSON
/// line per slow request, through the `Vfs` trait (same crash story as
/// the WAL — a torn tail is detected, never misread).
#[derive(Clone)]
pub struct SlowlogExport {
    /// The filesystem the log is appended through.
    pub vfs: VfsHandle,
    /// The log file path.
    pub path: PathBuf,
}

impl std::fmt::Debug for SlowlogExport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlowlogExport")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

/// One captured request: the envelope (who/when/how long/which snapshot)
/// plus the full [`Profile`]. For sampled queries and `PROFILE` requests
/// the profile is the exact measured one; forced captures (errors, slow
/// requests that the sampler skipped) carry a synthesized profile with
/// real I/O stats and total time but zeroed phase breakdown.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// Server-assigned request id (the `TRACE` handle).
    pub rid: u64,
    /// Client correlation id, when the frame carried `id=<c>`.
    pub cid: Option<u64>,
    /// Verb that produced this trace (`"query"`, `"batch"`, `"commit"`,
    /// `"profile"`).
    pub verb: &'static str,
    /// The raw request text (first line for batches).
    pub request: String,
    /// Pinned base generation the request ran against.
    pub generation: u64,
    /// Pinned delta epoch the request ran against.
    pub epoch: u64,
    /// Time spent waiting for an admission permit, in nanoseconds.
    pub queue_wait_ns: u64,
    /// End-to-end server-side time, in nanoseconds.
    pub total_ns: u64,
    /// Requests the frame executed (1 for `QUERY`, `k` for `BATCH k`).
    pub batch: u64,
    /// 0 on success, else the stable [`graphbi::ErrorCode`] number.
    pub status: u16,
    /// The error message, when `status != 0`.
    pub error: Option<String>,
    /// The captured profile (exact or synthesized; see above).
    pub profile: Profile,
}

impl RequestTrace {
    /// True when this trace crossed the recorder's slow threshold.
    fn is_error(&self) -> bool {
        self.status != 0
    }

    /// Renders the envelope + profile as one JSON line — the `SLOWLOG`
    /// payload format and the exported slowlog-file record.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"rid\":{},\"verb\":{},\"request\":{}",
            self.rid,
            json::quote(self.verb),
            json::quote(&self.request)
        );
        if let Some(cid) = self.cid {
            let _ = write!(out, ",\"id\":{cid}");
        }
        let _ = write!(
            out,
            ",\"status\":{},\"generation\":{},\"epoch\":{},\"queue_wait_us\":{},\"total_us\":{},\"batch\":{}",
            self.status,
            self.generation,
            self.epoch,
            self.queue_wait_ns / 1_000,
            self.total_ns / 1_000,
            self.batch
        );
        if let Some(e) = &self.error {
            let _ = write!(out, ",\"error\":{}", json::quote(e));
        }
        let _ = write!(out, ",\"profile\":{}}}", self.profile.render_json());
        out
    }
}

/// Builds the synthesized [`Profile`] of a forced capture: zeroed phase
/// breakdown (nothing was traced), but the request's real I/O stats,
/// total time and match count — enough for `SLOWLOG` to answer "was it
/// the disk or the queue" even for requests the sampler skipped.
pub fn synthesized_profile(io: IoStats, total_ns: u64, matches: u64) -> Profile {
    Profile {
        backend: "serve",
        matches,
        estimated_matches: 0,
        total_ns,
        phases: PHASE_NAMES
            .iter()
            .map(|&name| graphbi::PhaseStat {
                name,
                wall_ns: 0,
                spans: 0,
            })
            .collect(),
        shard_spans: 0,
        stats: io,
        views_used: 0,
        residual_edges: 0,
        rewrite_ties: 0,
        cache_hits: 0,
        cache_misses: 0,
        cache_evictions: 0,
        kernel_path: graphbi::kernels::path_name(),
    }
}

/// Recorder tuning, split out of `ServeConfig` so tests can build one
/// directly.
#[derive(Clone, Debug)]
pub struct RecorderConfig {
    /// Head-sampling period: capture 1 request in `sample_every`
    /// (0 = head sampling off; errors and slow requests still captured).
    pub sample_every: u64,
    /// Sampler phase offset (see [`Sampler`]).
    pub sample_seed: u64,
    /// Requests at or over this duration are captured, logged to the
    /// slowlog ring, and exported.
    pub slow_threshold: Duration,
    /// Flight-ring capacity; 0 disables the recorder entirely.
    pub flight_capacity: usize,
    /// Slowlog-ring capacity.
    pub slowlog_capacity: usize,
    /// Durable slowlog export, when configured.
    pub export: Option<SlowlogExport>,
}

impl Default for RecorderConfig {
    fn default() -> RecorderConfig {
        RecorderConfig {
            sample_every: 64,
            sample_seed: 0,
            slow_threshold: Duration::from_millis(100),
            flight_capacity: 1024,
            slowlog_capacity: 128,
            export: None,
        }
    }
}

/// The flight recorder: rid source, sampler, capture rings and export.
pub struct Recorder {
    rid: AtomicU64,
    sampler: Sampler,
    slow_threshold_ns: u64,
    ring: FlightRing<RequestTrace>,
    slow: FlightRing<RequestTrace>,
    /// Serializes exported appends (frame boundaries must not interleave).
    export: Option<Mutex<SlowlogExport>>,
    export_errors: AtomicU64,
}

impl Recorder {
    /// A recorder with the given policy.
    pub fn new(cfg: RecorderConfig) -> Recorder {
        Recorder {
            rid: AtomicU64::new(0),
            sampler: Sampler::new(cfg.sample_every, cfg.sample_seed),
            slow_threshold_ns: u64::try_from(cfg.slow_threshold.as_nanos()).unwrap_or(u64::MAX),
            ring: FlightRing::new(cfg.flight_capacity),
            slow: FlightRing::new(if cfg.flight_capacity == 0 {
                0
            } else {
                cfg.slowlog_capacity
            }),
            export: cfg.export.map(Mutex::new),
            export_errors: AtomicU64::new(0),
        }
    }

    /// True when the recorder captures anything at all.
    pub fn enabled(&self) -> bool {
        self.ring.capacity() > 0
    }

    /// The next server-assigned request id (monotone from 1).
    pub fn next_rid(&self) -> u64 {
        self.rid.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Head-sampling decision for the next request. Always false when the
    /// recorder is disabled, so a capacity-0 server never pays the solo
    /// profiled execution.
    pub fn sample(&self) -> bool {
        self.enabled() && self.sampler.sample()
    }

    /// The configured slow threshold in nanoseconds.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns
    }

    /// True when a request of `total_ns` must be captured regardless of
    /// the sampler.
    pub fn is_slow(&self, total_ns: u64) -> bool {
        total_ns >= self.slow_threshold_ns
    }

    /// Cheap post-execution predicate: true exactly when [`Recorder::observe`]
    /// would keep a trace with this outcome. The server checks it before
    /// building a [`RequestTrace`] at all, so the unsampled fast path pays
    /// two loads and a compare — not payload clones and a synthesized
    /// profile that `observe` would immediately drop.
    pub fn should_capture(&self, sampled: bool, total_ns: u64, error: bool) -> bool {
        self.enabled() && (sampled || error || self.is_slow(total_ns))
    }

    /// Observes one completed request. `sampled` is the decision made by
    /// [`Recorder::sample`] before execution; errors and slow requests
    /// are captured even when it was false.
    pub fn observe(&self, trace: RequestTrace, sampled: bool) {
        if !self.enabled() {
            return;
        }
        let slow = self.is_slow(trace.total_ns);
        if !(sampled || slow || trace.is_error()) {
            return;
        }
        if slow {
            self.slow.push(trace.rid, trace.clone());
            if let Some(export) = &self.export {
                let frame = slowlog::frame_line(&trace.render_json());
                let export = export.lock().expect("slowlog export lock");
                if export.vfs.append(&export.path, &frame).is_err() {
                    self.export_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.ring.push(trace.rid, trace);
    }

    /// The captured trace for `rid`, if still in the ring.
    pub fn get(&self, rid: u64) -> Option<RequestTrace> {
        self.ring.get(rid)
    }

    /// Up to `n` most recent over-threshold traces, newest first.
    pub fn recent_slow(&self, n: usize) -> Vec<RequestTrace> {
        self.slow.recent(n).into_iter().map(|(_, t)| t).collect()
    }

    /// Counters for `TOP`: (requests decided, traces captured, traces
    /// overwritten, slow traces captured, export failures).
    pub fn stats(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.sampler.calls(),
            self.ring.pushed(),
            self.ring.overwritten(),
            self.slow.pushed(),
            self.export_errors.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(rid: u64, total_ns: u64, status: u16) -> RequestTrace {
        RequestTrace {
            rid,
            cid: None,
            verb: "query",
            request: "graph : 1".into(),
            generation: 0,
            epoch: 0,
            queue_wait_ns: 5_000,
            total_ns,
            batch: 1,
            status,
            error: (status != 0).then(|| "boom".into()),
            profile: synthesized_profile(IoStats::new(), total_ns, 0),
        }
    }

    fn recorder(sample_every: u64) -> Recorder {
        Recorder::new(RecorderConfig {
            sample_every,
            sample_seed: 0,
            slow_threshold: Duration::from_millis(10),
            flight_capacity: 8,
            slowlog_capacity: 4,
            export: None,
        })
    }

    #[test]
    fn sampled_requests_are_captured() {
        let r = recorder(2);
        assert!(r.sample()); // call 0: (0+0) % 2 == 0
        r.observe(trace(r.next_rid(), 1_000, 0), true);
        assert!(!r.sample());
        r.observe(trace(r.next_rid(), 1_000, 0), false);
        assert!(r.get(1).is_some());
        assert!(r.get(2).is_none(), "unsampled fast request not captured");
        assert!(r.recent_slow(10).is_empty());
    }

    #[test]
    fn slow_and_failing_requests_force_capture() {
        let r = recorder(0); // head sampling off entirely
        assert!(!r.sample());
        r.observe(trace(r.next_rid(), 50_000_000, 0), false); // 50ms ≥ 10ms
        r.observe(trace(r.next_rid(), 1_000, 101), false); // error
        r.observe(trace(r.next_rid(), 1_000, 0), false); // plain fast ok
        assert!(r.get(1).is_some(), "slow request forced into the ring");
        assert!(r.get(2).is_some(), "failing request forced into the ring");
        assert!(r.get(3).is_none());
        let slow = r.recent_slow(10);
        assert_eq!(slow.len(), 1, "only the over-threshold one is slowlogged");
        assert_eq!(slow[0].rid, 1);
    }

    #[test]
    fn disabled_recorder_captures_nothing() {
        let r = Recorder::new(RecorderConfig {
            flight_capacity: 0,
            ..RecorderConfig::default()
        });
        assert!(!r.enabled());
        assert!(!r.sample(), "capacity 0 must never sample");
        r.observe(trace(r.next_rid(), u64::MAX, 500), false);
        assert!(r.get(1).is_none());
        assert!(r.recent_slow(10).is_empty());
    }

    #[test]
    fn trace_json_parses_and_nests_the_profile() {
        let mut t = trace(7, 42_000, 101);
        t.cid = Some(9);
        let doc = json::parse(&t.render_json()).expect("valid JSON");
        assert_eq!(doc.get("rid").and_then(json::Json::as_u64), Some(7));
        assert_eq!(doc.get("id").and_then(json::Json::as_u64), Some(9));
        assert_eq!(doc.get("status").and_then(json::Json::as_u64), Some(101));
        assert_eq!(doc.get("total_us").and_then(json::Json::as_u64), Some(42));
        assert_eq!(doc.get("error").and_then(json::Json::as_str), Some("boom"));
        let prof = doc.get("profile").expect("nested profile");
        assert_eq!(
            prof.get("backend").and_then(json::Json::as_str),
            Some("serve")
        );
    }
}
