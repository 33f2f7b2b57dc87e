//! Zero-dependency observability: a span/event tracer and a metrics
//! registry, hand-rolled because the build environment cannot reach
//! crates.io (no `tracing`, no `prometheus` — same policy as `shims/`).
//!
//! # Tracer
//!
//! A [`Collector`] gathers [`SpanRecord`]s and [`EventRecord`]s. It is
//! *installed* into the current thread with [`install`]; instrumentation
//! sites call [`span`] / [`event`], which are near-no-ops when no collector
//! is installed (one thread-local read and an `Option` check — no clock
//! read, no allocation, no lock). Timing uses a process-wide monotonic
//! epoch ([`now_ns`]), never the wall clock.
//!
//! The collector is deliberately thread-*local* rather than process-global:
//! `cargo test` runs many tests concurrently in one process, and a global
//! tracer would leak spans between unrelated queries. Worker pools that
//! fan a traced query out over threads (e.g. `graphbi`'s shard pool)
//! capture [`current`] before spawning and [`install`] it in each worker,
//! so per-shard spans land in the installing query's collector.
//!
//! Spans carry integer attributes (e.g. the `IoStats` counter deltas of the
//! phase they cover) so traces can be reconciled against the cost model —
//! the testkit oracle checks span counters against `IoStats` exactly.
//!
//! # Metrics
//!
//! A [`Registry`] names [`Counter`]s, [`Gauge`]s and log₂-bucketed
//! [`Histogram`]s. Recording is lock-free (one atomic RMW per update);
//! registration (name lookup) takes a lock, so callers cache the returned
//! `Arc` handles. [`Registry::snapshot`] produces a mergeable [`Snapshot`]
//! renderable as Prometheus exposition text or JSON (parsable back with
//! [`json::parse`]). Counters and histogram cells saturate on overflow —
//! the same semantics as `IoStats::merge`.

mod crc;
pub mod flight;
pub mod json;
pub mod slowlog;

pub use crc::crc32;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Monotonic clock
// ---------------------------------------------------------------------------

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide monotonic epoch (first use).
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Spans and events
// ---------------------------------------------------------------------------

/// One completed span: a named, timed region with integer attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name (e.g. `"phase.plan"`).
    pub name: &'static str,
    /// Start, nanoseconds since [`now_ns`]'s epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Integer attributes attached while the span was open.
    pub attrs: Vec<(&'static str, u64)>,
}

/// One point-in-time event with integer attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Static event name (e.g. `"rewrite.cover"`).
    pub name: &'static str,
    /// Timestamp, nanoseconds since [`now_ns`]'s epoch.
    pub at_ns: u64,
    /// Integer attributes.
    pub attrs: Vec<(&'static str, u64)>,
}

/// Thread-safe sink for spans and events.
#[derive(Default)]
pub struct Collector {
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<Vec<EventRecord>>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Collector {
        Collector::default()
    }

    fn push_span(&self, s: SpanRecord) {
        self.spans.lock().expect("collector lock").push(s);
    }

    fn push_event(&self, e: EventRecord) {
        self.events.lock().expect("collector lock").push(e);
    }

    /// A copy of everything recorded so far.
    pub fn trace(&self) -> Trace {
        Trace {
            spans: self.spans.lock().expect("collector lock").clone(),
            events: self.events.lock().expect("collector lock").clone(),
        }
    }

    /// Drops everything recorded so far.
    pub fn clear(&self) {
        self.spans.lock().expect("collector lock").clear();
        self.events.lock().expect("collector lock").clear();
    }
}

/// Everything a [`Collector`] recorded, with aggregation helpers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Completed spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Events, in emission order.
    pub events: Vec<EventRecord>,
}

impl Trace {
    /// Total nanoseconds across spans named `name`.
    pub fn sum_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0u64, |a, s| a.saturating_add(s.dur_ns))
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Sum of attribute `attr` over spans named `span`.
    pub fn sum_attr(&self, span: &str, attr: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == span)
            .flat_map(|s| &s.attrs)
            .filter(|(k, _)| *k == attr)
            .fold(0u64, |a, (_, v)| a.saturating_add(*v))
    }

    /// Smallest value of attribute `attr` over spans named `span`.
    pub fn min_attr(&self, span: &str, attr: &str) -> Option<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == span)
            .flat_map(|s| &s.attrs)
            .filter(|(k, _)| *k == attr)
            .map(|(_, v)| *v)
            .min()
    }

    /// Sum of attribute `attr` over every span, regardless of name — for
    /// reconciling a counter that several phases contribute to.
    pub fn sum_attr_all(&self, attr: &str) -> u64 {
        self.spans
            .iter()
            .flat_map(|s| &s.attrs)
            .filter(|(k, _)| *k == attr)
            .fold(0u64, |a, (_, v)| a.saturating_add(*v))
    }

    /// Sum of attribute `attr` over events named `event`.
    pub fn sum_event_attr(&self, event: &str, attr: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.name == event)
            .flat_map(|e| &e.attrs)
            .filter(|(k, _)| *k == attr)
            .fold(0u64, |a, (_, v)| a.saturating_add(*v))
    }

    /// Distinct span names, sorted.
    pub fn span_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Collector>>> = const { RefCell::new(None) };
}

/// The collector installed on this thread, if any.
pub fn current() -> Option<Arc<Collector>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Installs `collector` as this thread's span sink until the returned guard
/// drops (the previous collector, if any, is restored). The guard is
/// `!Send` — an installation never outlives its thread.
#[must_use = "tracing stops when the guard drops"]
pub fn install(collector: &Arc<Collector>) -> Installed {
    let prev = CURRENT.with(|c| c.replace(Some(Arc::clone(collector))));
    Installed {
        prev,
        _not_send: PhantomData,
    }
}

/// RAII guard of [`install`]; restores the previous collector on drop.
pub struct Installed {
    prev: Option<Arc<Collector>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        CURRENT.with(|c| c.replace(self.prev.take()));
    }
}

/// Opens a span named `name` on the current thread's collector. With no
/// collector installed this returns an inert guard without reading the
/// clock — the disabled cost is one thread-local read.
pub fn span(name: &'static str) -> Span {
    Span {
        active: current().map(|collector| ActiveSpan {
            collector,
            name,
            start_ns: now_ns(),
            attrs: Vec::new(),
        }),
    }
}

/// An open span; records itself into the collector on drop.
pub struct Span {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    collector: Arc<Collector>,
    name: &'static str,
    start_ns: u64,
    attrs: Vec<(&'static str, u64)>,
}

impl Span {
    /// Attaches an integer attribute (no-op on an inert span).
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if let Some(a) = &mut self.active {
            a.attrs.push((key, value));
        }
    }

    /// True when a collector is receiving this span.
    pub fn is_live(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            let dur_ns = now_ns().saturating_sub(a.start_ns);
            a.collector.push_span(SpanRecord {
                name: a.name,
                start_ns: a.start_ns,
                dur_ns,
                attrs: a.attrs,
            });
        }
    }
}

/// Emits a point-in-time event (no-op without an installed collector; the
/// attribute slice is only copied when a collector is present).
pub fn event(name: &'static str, attrs: &[(&'static str, u64)]) {
    if let Some(collector) = current() {
        collector.push_event(EventRecord {
            name,
            at_ns: now_ns(),
            attrs: attrs.to_vec(),
        });
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Saturating add on an atomic cell — the overflow semantics of
/// `IoStats::merge`, so traced counters and cost-model counters agree all
/// the way to the top of the range.
fn sat_add_u64(cell: &AtomicU64, n: u64) {
    if n == 0 {
        return;
    }
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(n);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A monotone counter (saturating at `u64::MAX`).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` (saturating).
    pub fn add(&self, n: u64) {
        sat_add_u64(&self.0, n);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (saturating at the i64 range ends).
    pub fn add(&self, d: i64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(d);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one per bit length, 0..=64.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index of `v`: its bit length. Bucket 0 holds only 0; bucket `i`
/// holds `2^(i-1) ..= 2^i - 1`.
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
/// Strictly monotone in `i`.
pub fn bucket_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A log₂-bucketed histogram of `u64` samples (latencies in ns, sizes in
/// bytes). Recording is one atomic add per cell; count and sum saturate.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HIST_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        sat_add_u64(&self.buckets[bucket_index(v)], 1);
        sat_add_u64(&self.count, 1);
        sat_add_u64(&self.sum, v);
    }

    /// A point-in-time copy of the cells.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An immutable histogram snapshot; merging is elementwise saturating
/// addition, hence associative and commutative.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts ([`HIST_BUCKETS`] cells).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistSnapshot {
    /// Accumulates `other` into `self` (saturating, elementwise).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` clamped to `0.0..=1.0`) estimated from the
    /// log₂ buckets: the bucket holding the rank-`⌈q·count⌉` sample is
    /// located exactly, and the value is linearly interpolated across the
    /// bucket's `[lower, upper]` range by the rank's position inside it.
    ///
    /// Guarantees, property-tested against a sorted-sample reference:
    /// monotone in `q`, saturating (never above `u64::MAX` or the top
    /// bucket's bound), 0 on an empty snapshot, and always within the
    /// bucket that actually contains the exact sample of that rank.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank in 1..=count of the order statistic we estimate.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let prev = cum;
            cum = cum.saturating_add(c);
            if cum >= rank {
                let lower = if i == 0 {
                    0
                } else {
                    bucket_bound(i - 1).saturating_add(1)
                };
                let upper = bucket_bound(i);
                // Position of the rank inside this bucket, in [0, 1].
                let frac = if c <= 1 {
                    1.0
                } else {
                    (rank - prev - 1) as f64 / (c - 1) as f64
                };
                let width = (upper - lower) as f64;
                let v = lower as f64 + frac * width;
                return if v >= u64::MAX as f64 {
                    u64::MAX
                } else {
                    (v as u64).clamp(lower, upper)
                };
            }
        }
        // Counts saturated inconsistently (count > Σ buckets): the best
        // answer left is the top non-empty bucket's bound.
        bucket_bound(self.buckets.iter().rposition(|&c| c > 0).unwrap_or(0))
    }
}

/// A named family of counters, gauges and histograms.
///
/// Lookup by name takes a lock; the returned `Arc` handle records without
/// one — fetch handles once, record hot.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.counters.lock().expect("registry lock");
        Arc::clone(m.entry(name.to_owned()).or_default())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.gauges.lock().expect("registry lock");
        Arc::clone(m.entry(name.to_owned()).or_default())
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.histograms.lock().expect("registry lock");
        Arc::clone(m.entry(name.to_owned()).or_default())
    }

    /// A point-in-time copy of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// The process-wide registry. Components that exist before any query (the
/// VFS, the column cache) record here; per-query visibility comes from
/// snapshot deltas.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A mergeable point-in-time copy of a [`Registry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    /// Accumulates `other` (counters/histograms saturating-add per name,
    /// gauges saturating-add). Associative and commutative, like
    /// `IoStats::merge`.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            let slot = self.counters.entry(k.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// Renders in Prometheus exposition style: one `# TYPE` line per
    /// metric, cumulative `_bucket{le="…"}` series plus `_sum`/`_count`
    /// for histograms.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let last = h
                .buckets
                .iter()
                .rposition(|&c| c > 0)
                .unwrap_or(0)
                .min(HIST_BUCKETS - 2);
            let mut cum = 0u64;
            for (i, &c) in h.buckets.iter().enumerate().take(last + 1) {
                cum = cum.saturating_add(c);
                let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", bucket_bound(i));
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }

    /// Renders as JSON, parsable with [`json::parse`]. Histogram buckets
    /// appear as `[upper_bound, count]` pairs for non-empty buckets only.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json::quote(k));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json::quote(k));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"buckets\":[",
                json::quote(k),
                h.count,
                h.sum
            );
            let mut first = true;
            for (bi, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "[{},{c}]", bucket_bound(bi));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Rebuilds a snapshot from [`Snapshot::render_json`] output. Exact for
    /// values below 2^53 (JSON numbers are doubles).
    pub fn from_json(text: &str) -> Result<Snapshot, json::ParseError> {
        let v = json::parse(text)?;
        let mut snap = Snapshot::default();
        if let Some(counters) = v.get("counters").and_then(|c| c.as_obj()) {
            for (k, val) in counters {
                snap.counters
                    .insert(k.clone(), val.as_u64().unwrap_or_default());
            }
        }
        if let Some(gauges) = v.get("gauges").and_then(|c| c.as_obj()) {
            for (k, val) in gauges {
                snap.gauges
                    .insert(k.clone(), val.as_f64().unwrap_or_default() as i64);
            }
        }
        if let Some(hists) = v.get("histograms").and_then(|c| c.as_obj()) {
            for (k, val) in hists {
                let mut buckets = vec![0u64; HIST_BUCKETS];
                if let Some(pairs) = val.get("buckets").and_then(|b| b.as_arr()) {
                    for pair in pairs {
                        if let (Some(bound), Some(count)) = (
                            pair.item(0).and_then(|x| x.as_u64()),
                            pair.item(1).and_then(|x| x.as_u64()),
                        ) {
                            // Invert bucket_bound: bound 0 → bucket 0,
                            // 2^i - 1 → bucket i, u64::MAX → last bucket.
                            buckets[bucket_index(bound)] = count;
                        }
                    }
                }
                snap.histograms.insert(
                    k.clone(),
                    HistSnapshot {
                        buckets,
                        count: val.get("count").and_then(|x| x.as_u64()).unwrap_or(0),
                        sum: val.get("sum").and_then(|x| x.as_u64()).unwrap_or(0),
                    },
                );
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        assert!(current().is_none());
        let mut s = span("noop");
        assert!(!s.is_live());
        s.attr("k", 1);
        drop(s);
        event("noop", &[("k", 1)]);
    }

    #[test]
    fn installed_collector_captures_spans_and_events() {
        let c = Arc::new(Collector::new());
        {
            let _g = install(&c);
            let mut s = span("work");
            s.attr("items", 3);
            drop(s);
            event("mark", &[("x", 7)]);
            {
                let inner = Arc::new(Collector::new());
                let _g2 = install(&inner);
                span("inner_only");
                assert_eq!(inner.trace().spans.len(), 1);
            }
            // Previous collector restored after the inner guard dropped.
            span("again");
        }
        assert!(current().is_none());
        let t = c.trace();
        assert_eq!(t.count("work"), 1);
        assert_eq!(t.count("again"), 1);
        assert_eq!(t.count("inner_only"), 0);
        assert_eq!(t.sum_attr("work", "items"), 3);
        assert_eq!(t.sum_event_attr("mark", "x"), 7);
    }

    #[test]
    fn span_durations_are_monotone() {
        let c = Arc::new(Collector::new());
        {
            let _g = install(&c);
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let t = c.trace();
        assert!(t.sum_ns("outer") >= 1_000_000, "{t:?}");
    }

    #[test]
    fn bucket_boundaries_cover_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            assert_eq!(bucket_index(bucket_bound(i)), i);
        }
    }

    #[test]
    fn counter_and_histogram_saturate() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.snapshot().sum, u64::MAX);
        assert_eq!(h.snapshot().count, 2);
    }

    #[test]
    fn registry_snapshot_and_text_render() {
        let r = Registry::new();
        r.counter("graphbi_demo_total").add(2);
        r.gauge("graphbi_level").set(-3);
        r.histogram("graphbi_lat_ns").record(100);
        r.histogram("graphbi_lat_ns").record(300);
        let s = r.snapshot();
        assert_eq!(s.counters["graphbi_demo_total"], 2);
        assert_eq!(s.gauges["graphbi_level"], -3);
        assert_eq!(s.histograms["graphbi_lat_ns"].count, 2);
        let text = s.render_text();
        assert!(text.contains("# TYPE graphbi_demo_total counter"), "{text}");
        assert!(
            text.contains("graphbi_lat_ns_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("graphbi_lat_ns_sum 400"), "{text}");
    }

    #[test]
    fn snapshot_json_round_trips() {
        let r = Registry::new();
        r.counter("a_total").add(41);
        r.gauge("g").set(7);
        let h = r.histogram("h_ns");
        for v in [0, 1, 5, 1000, 1 << 40] {
            h.record(v);
        }
        let s = r.snapshot();
        let parsed = Snapshot::from_json(&s.render_json()).expect("parses");
        assert_eq!(parsed, s);
    }
}
