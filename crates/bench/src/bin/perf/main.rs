//! `perf`: one end-to-end benchmark with per-layer attribution.
//!
//! Four workloads through the real stack, every answer checked, every
//! metric of `BENCHMARK.json` printed by name with its unit. See
//! `README.md` beside this file for the tables and how to read them.

mod setup;
mod stats;
mod timed;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use setup::{Stage, Workload, CLIENTS};
use stats::{median_f64, percentile, result_line, Metric};
use timed::{ratio, Timed};
use traced::Layers;

pub type Res<T> = Result<T, String>;

/// The metrics a user of the system sees; each is emitted, non-zero, by
/// every workload. Bounds live in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("throughput_qps", "req/s"),
    ("rss_peak_mb", "MiB"),
];

/// Metrics of single layers, layer = crate. A workload that does not
/// exercise one reports 0.
const PER_LAYER: [(&str, &str); 71] = [
    ("workload.synth_s", "s"),
    ("workload.requests", "count"),
    ("workload.commit_lag_max_ms", "ms"),
    ("serve.rtt_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.overhead_frac", "ratio"),
    ("serve.client_parse_us", "us"),
    ("serve.resp_bytes_per_req", "B"),
    ("serve.mean_batch", "count"),
    ("serve.queue_wait_us", "us"),
    ("serve.busy_total", "count"),
    ("serve.start_s", "s"),
    ("core.load_s", "s"),
    ("core.execute_us", "us"),
    ("core.plan_us", "us"),
    ("core.structural_us", "us"),
    ("core.measure_us", "us"),
    ("core.merge_us", "us"),
    ("core.unaccounted_frac", "ratio"),
    ("core.wire_parse_us", "us"),
    ("core.wire_render_us", "us"),
    ("core.bitmap_columns_per_req", "count"),
    ("core.measure_columns_per_req", "count"),
    ("core.values_per_req", "count"),
    ("core.partitions_per_req", "count"),
    ("core.join_rows_per_req", "count"),
    ("core.fetches_skipped_per_req", "count"),
    ("core.batch_speedup", "ratio"),
    ("mvcc.commit_p50_ms", "ms"),
    ("mvcc.commit_p99_ms", "ms"),
    ("mvcc.compact_stall_ms", "ms"),
    ("mvcc.commit_us", "us"),
    ("mvcc.snapshot_us", "us"),
    ("mvcc.compact_ms", "ms"),
    ("mvcc.gc_ms", "ms"),
    ("mvcc.compactions", "count"),
    ("mvcc.reopen_ms", "ms"),
    ("mvcc.wal_replayed_frames", "count"),
    ("mvcc.delta_read_ratio", "ratio"),
    ("views.advise_s", "s"),
    ("views.materialized", "count"),
    ("views.used_per_req", "count"),
    ("views.residual_edges_per_req", "count"),
    ("views.rewrite_hit_frac", "ratio"),
    ("views.view_bitmap_share", "ratio"),
    ("columnstore.save_s", "s"),
    ("columnstore.open_ms", "ms"),
    ("columnstore.bytes_on_disk", "B"),
    ("columnstore.stored_bytes_per_measure", "B"),
    ("columnstore.cache_hit_frac", "ratio"),
    ("columnstore.evictions_per_req", "count"),
    ("columnstore.disk_reads_per_req", "count"),
    ("columnstore.disk_bytes_per_req", "B"),
    ("columnstore.fetch_bitmap_cold_us", "us"),
    ("columnstore.fetch_measures_cold_us", "us"),
    ("columnstore.fetch_warm_us", "us"),
    ("columnstore.decode_mb_s", "MiB/s"),
    ("columnstore.wal_bytes_per_commit", "B"),
    ("columnstore.write_amp", "ratio"),
    ("bitmap.and_many_us", "us"),
    ("bitmap.and_inputs_per_req", "count"),
    ("bitmap.result_card_per_req", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.spans_per_req", "count"),
    ("obs.flight_captured", "count"),
    ("trace.unaccounted_frac", "ratio"),
    ("timed.read_samples", "count"),
    ("timed.failed_frac", "ratio"),
    ("timed.query_p50_ms", "ms"),
    ("timed.throughput_qps", "req/s"),
    ("trace.request_self_us", "us"),
];

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// `query_p99_ms` needs ten samples beyond it.
const P99_MIN_SAMPLES: usize = 1000;
/// Bytes one (edge id, measure) pair of user data occupies.
const USER_BYTES_PER_MEASURE: u64 = 12;

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str =
    "usage: perf (--workload <serve-hot|serve-cold|wide-batch|ingest-mixed> | --all) \
[--seed <u64>] [--seconds <n>] [--trace <0|1>] [--smoke]";

fn parse_args(args: &[String]) -> Res<Options> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::parse(name).ok_or(format!("unknown workload {name}\n{USAGE}"))?;
                opts.workloads = vec![w];
            }
            "--all" => opts.workloads = Workload::ALL.to_vec(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if opts.workloads.is_empty() {
        return Err(USAGE.into());
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if opts.smoke {
        opts.seconds = 1.0;
    }
    Ok(opts)
}

/// A run's private directory inside the working directory, removed on
/// every exit path that unwinds or returns.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Res<Scratch> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = out_dir()?.join(format!("run-{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // `.perf/` itself goes too unless span files remain in it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// `.perf/` under the working directory: run directories (removed) and
/// the span files of traced passes (kept).
fn out_dir() -> Res<PathBuf> {
    Ok(std::env::current_dir()
        .map_err(|e| format!("cwd: {e}"))?
        .join(".perf"))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set of this process, from `VmHWM`.
fn rss_peak_mb() -> Res<f64> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn git_head() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_owned()
        })
}

fn print_header(workload: Workload, opts: &Options, stage: &Stage) {
    println!(
        "# perf workload={} seed={} records={} measured_s={} clients={CLIENTS} nproc={} \
         cpu_features={} kernel_path={} disk_format={:?} git={} smoke={} request_list_hash={:016x}",
        workload.name(),
        opts.seed,
        stage.times.records,
        opts.seconds,
        nproc(),
        graphbi::kernels::cpu_features(),
        graphbi::kernels::path_name(),
        graphbi_columnstore::FormatVersion::default(),
        git_head(),
        opts.smoke,
        stage.request_list_hash(),
    );
}

/// What one workload run produced.
struct Outcome {
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    /// Present after a traced pass.
    per_layer: Option<Vec<Metric>>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn end_to_end(setup_s: f64, timed: &Timed) -> Res<Vec<Metric>> {
    let n = timed.read_ns.len();
    if n == 0 {
        return Err("no read completed in the window".into());
    }
    if n < P99_MIN_SAMPLES {
        // The ledger wants every metric from every run, so the number is
        // still reported — flagged, because it is the maximum in disguise.
        eprintln!("perf: WARNING {n} read samples; query_p99_ms needs {P99_MIN_SAMPLES} to have ten beyond it");
    }
    let values = [
        setup_s,
        timed.read_ms(0.50),
        timed.read_ms(0.99),
        timed.throughput_qps(),
        rss_peak_mb()?,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect())
}

/// Per-layer values the set-up and the timed pass yield: phase times,
/// sizes, and growth of the counters the program exports.
fn timed_layers(stage: &Stage, timed: &Timed) -> Layers {
    let t = &stage.times;
    let (before, after) = timed
        .window
        .as_ref()
        .expect("a finished pass has its window");
    let grew = |name| after.since(before, name);
    let reads = timed.reads_ok;
    let (hits, misses) = (
        grew("graphbi_cache_hits_total"),
        grew("graphbi_cache_misses_total"),
    );
    let pct = |q| percentile(&timed.commit_ns, q).map_or(0.0, ms);
    let mut stall = timed.stall_ns.clone();
    Layers::from([
        ("workload.synth_s", t.synth_s),
        ("workload.requests", stage.requests.len() as f64),
        ("workload.commit_lag_max_ms", ms(timed.commit_lag_ns)),
        ("core.load_s", t.load_s),
        ("views.advise_s", t.advise_s),
        ("views.materialized", t.views as f64),
        ("columnstore.save_s", t.save_s),
        ("columnstore.open_ms", t.open_s * 1e3),
        ("columnstore.bytes_on_disk", t.bytes_on_disk as f64),
        (
            "columnstore.stored_bytes_per_measure",
            ratio(t.bytes_on_disk, t.total_measures),
        ),
        ("serve.start_s", t.start_s),
        (
            "serve.mean_batch",
            ratio(
                grew("graphbi_serve_batched_requests_total"),
                grew("graphbi_serve_batches_total"),
            ),
        ),
        ("serve.busy_total", grew("graphbi_serve_busy_total") as f64),
        ("columnstore.cache_hit_frac", ratio(hits, hits + misses)),
        (
            "columnstore.evictions_per_req",
            ratio(grew("graphbi_cache_evictions_total"), reads),
        ),
        ("mvcc.commit_p50_ms", pct(0.50)),
        ("mvcc.commit_p99_ms", pct(0.99)),
        ("mvcc.compact_stall_ms", stats::median_ns(&mut stall, 1e6)),
        ("mvcc.compactions", timed.compactions as f64),
        ("mvcc.reopen_ms", timed.reopen_ms),
        ("mvcc.wal_replayed_frames", timed.wal_replayed_frames as f64),
        (
            "columnstore.wal_bytes_per_commit",
            ratio(
                grew("graphbi_wal_bytes_total"),
                grew("graphbi_wal_commits_total"),
            ),
        ),
        (
            // Everything written during the pass — WAL frames and the
            // generations compaction rewrote — per byte the user inserted.
            "columnstore.write_amp",
            ratio(
                grew("graphbi_vfs_write_bytes_total"),
                timed.inserted_measures * USER_BYTES_PER_MEASURE,
            ),
        ),
        ("timed.read_samples", timed.read_ns.len() as f64),
        ("timed.failed_frac", ratio(timed.failed, timed.attempted)),
        ("timed.query_p50_ms", timed.read_ms(0.5)),
        ("timed.throughput_qps", timed.throughput_qps()),
    ])
}

fn run_workload(workload: Workload, opts: &Options) -> Res<Outcome> {
    let scratch = Scratch::new(workload.name())?;
    // Repeating the whole set-up steadies `setup_s`; a traced or smoke
    // run gates nothing and sets up once.
    let reps = if opts.trace || opts.smoke {
        1
    } else {
        SETUP_REPS
    };
    let mut setup_s = Vec::with_capacity(reps);
    let mut built = None;
    for rep in 0..reps {
        let dir = scratch.0.join(format!("db-{rep}"));
        let stage = setup::build(workload, opts.seed, opts.smoke, &dir, rep + 1 == reps)?;
        setup_s.push(stage.times.setup_s());
        if let Some(previous) = built.replace(stage) {
            Stage::teardown(previous);
        }
    }
    let mut stage = built.expect("at least one set-up");
    print_header(workload, opts, &stage);

    let timed = timed::run(&mut stage, (opts.seconds * 0.15).max(0.2), opts.seconds)?;

    let end_to_end = end_to_end(median_f64(&mut setup_s), &timed)?;
    println!(
        "# timed pass: {} operations, {} failed, {} read samples in {} s",
        timed.attempted,
        timed.failed,
        timed.read_ns.len(),
        timed.measured_s
    );
    for m in &end_to_end {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }

    let per_layer = if opts.trace {
        let mut layers = timed_layers(&stage, &timed);
        let (tracer, traced) = traced::run(&stage)?;
        layers.extend(traced);
        let mut request_self: Vec<u64> = (0..tracer.spans.len())
            .filter(|&i| tracer.spans[i].parent.is_none())
            .map(|i| tracer.self_ns(i))
            .collect();
        layers.insert(
            "trace.request_self_us",
            stats::median_ns(&mut request_self, 1e3),
        );
        let file = out_dir()?.join(format!("trace-{}-seed{}.csv", workload.name(), opts.seed));
        tracer
            .write_csv(&file)
            .map_err(|e| format!("write {}: {e}", file.display()))?;
        println!(
            "# traced pass: {} spans written to {}",
            tracer.spans.len(),
            file.display()
        );
        let metrics: Vec<Metric> = PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: layers.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect();
        for m in &metrics {
            println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
        }
        Some(metrics)
    } else {
        None
    };

    stage.teardown();
    Ok(Outcome {
        attempted: timed.attempted,
        failed: timed.failed,
        end_to_end,
        per_layer,
    })
}

fn run(args: &[String]) -> Res<bool> {
    let opts = parse_args(args)?;
    if CLIENTS > nproc() {
        return Err(format!(
            "{CLIENTS} client threads need {CLIENTS} cores; this box has {}",
            nproc()
        ));
    }
    let mut all_correct = true;
    for &workload in &opts.workloads {
        let outcome = run_workload(workload, &opts)?;
        all_correct &= outcome.failed == 0;
        let metrics = outcome.per_layer.as_ref().unwrap_or(&outcome.end_to_end);
        println!(
            "{}",
            result_line(outcome.attempted, outcome.failed, metrics)
        );
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perf: some answers were wrong or refused");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphbi_obs::json::{self, Json};

    /// `BENCHMARK.json` sits at the repository root, above whichever of
    /// the two manifests built this file.
    fn ledger() -> Json {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let text = loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break text;
            }
            assert!(dir.pop(), "BENCHMARK.json not found above the manifest");
        };
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(ledger: &Json, section: &str) -> Vec<(String, String)> {
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
        ledger
            .get(section)
            .and_then(Json::as_arr)
            .expect(section)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn assert_covers(metrics: &[Metric], declared: &[(String, String)]) {
        assert_eq!(metrics.len(), declared.len());
        for (name, unit) in declared {
            let m = metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name}"));
            assert_eq!(m.unit, unit, "{name}");
            assert!(m.value.is_finite(), "{name} = {}", m.value);
        }
    }

    #[test]
    fn ledger_names_the_harness_workloads() {
        let ledger = ledger();
        let names: Vec<&str> = ledger
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn smoke_emits_every_ledger_metric_and_fails_nothing() {
        let ledger = ledger();
        let (end_to_end, per_layer) = (
            declared(&ledger, "end_to_end"),
            declared(&ledger, "per_layer"),
        );
        for workload in Workload::ALL {
            let opts = Options {
                workloads: vec![workload],
                seed: 7,
                seconds: 1.0,
                trace: true,
                smoke: true,
            };
            let outcome = run_workload(workload, &opts)
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert_eq!(outcome.failed, 0, "{}", workload.name());
            assert!(outcome.attempted > 0);
            assert_covers(&outcome.end_to_end, &end_to_end);
            assert_covers(outcome.per_layer.as_ref().unwrap(), &per_layer);
            for m in &outcome.end_to_end {
                assert!(m.value > 0.0, "{} on {}", m.name, workload.name());
            }
            let line = result_line(outcome.attempted, outcome.failed, &outcome.end_to_end);
            assert_eq!(
                json::parse(&line)
                    .unwrap()
                    .get("correct")
                    .unwrap()
                    .as_bool(),
                Some(true)
            );
        }
    }

    #[test]
    fn same_seed_same_requests() {
        for workload in Workload::ALL {
            let hash = |seed: u64| {
                let scratch = Scratch::new("hash").unwrap();
                let stage = setup::build(workload, seed, true, &scratch.0.join("db"), false)
                    .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
                let h = stage.request_list_hash();
                stage.teardown();
                h
            };
            assert_eq!(hash(3), hash(3), "{}", workload.name());
            assert_ne!(hash(3), hash(4), "{}", workload.name());
        }
    }

    #[test]
    fn arguments() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let o = parse_args(&args(
            "--workload serve-cold --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workloads, [Workload::ServeCold]);
        assert_eq!((o.seed, o.seconds, o.trace, o.smoke), (9, 3.0, true, false));
        assert_eq!(
            parse_args(&args("--all --smoke")).unwrap().workloads.len(),
            4
        );
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--all --trace 2")).is_err());
    }
}
