//! Compressed format v3 vs raw v2: disk footprint and answer differential
//! (the PR-8 tentpole measurement).
//!
//! Two datasets, both NY-shaped, saved twice each — once as format v2 (raw
//! payloads) and once as v3 (codec-compressed payloads):
//!
//! * **ny-zipf-quantized** — measures quantized to a small Zipf-skewed
//!   value domain, the shape real sensor/toll/latency measures take. This
//!   is where dictionary coding earns its keep; the acceptance gate
//!   requires v3 to shrink bytes-on-disk by at least 2× here.
//! * **ny-uniform** — the paper's continuous uniform measures, which no
//!   dictionary can compress. The honest row: v3's win is limited to the
//!   bitmap columns, and the gate only requires it never to *grow*.
//!
//! Every query of a Zipf-selected workload is answered three ways — the
//! in-memory store (raw truth), the v2 disk store, and the v3 disk store —
//! and the answers must be bit-identical (`f64::to_bits`, no tolerance)
//! before any size or timing is reported. A mismatch fails the run and the
//! `compress-smoke` CI job wrapping it. Results land in
//! `BENCH_compress.json`.
//!
//! Cold timings are the best of [`COLD_PASSES`] passes per format, taken
//! alternately, each on a freshly opened store (an empty column cache; the
//! OS page cache is warm, so a pass costs syscalls + CRC + decode +
//! evaluation, not seeks). The quantized row is gated: v3 reads 4× fewer
//! bytes there and may not take more than [`MAX_ZIPF_COLD_RATIO`] × the
//! v2 time. The uniform row's ratio is printed, not gated.

use std::fmt::Write as _;
use std::path::Path;

use graphbi::disk::{save_store_with_format, DiskGraphStore};
use graphbi::{GraphStore, IoStats};
use graphbi_columnstore::{os_vfs, FormatVersion};
use graphbi_graph::{GraphQuery, GraphRecord, RecordBuilder};
use graphbi_workload::zipf::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{fmt, ny, time_ms, zipf_queries, Table};

/// Column-cache budget for the disk stores: large enough that the timed
/// pass is not eviction-bound, so the cold numbers measure read+decode.
const CACHE_BYTES: usize = 64 << 20;

/// The acceptance gate on the quantized row (see module docs).
const MIN_ZIPF_RATIO: f64 = 2.0;

/// Cold passes per format; the minimum is reported.
const COLD_PASSES: usize = 5;

/// Gate on the quantized row's `v3_cold_ms / v2_cold_ms`. Before the
/// word-at-a-time Elias-Fano decode this ratio was 1.25; it now measures
/// 1.05–1.08 (decoding ~270-value columns still costs ~0.5 µs more than
/// copying them raw, and with the files in the page cache the 4× fewer
/// bytes buy back only their CRC). The bound sits between the two so a
/// return of the old decode cost fails CI while run-to-run noise does not.
const MAX_ZIPF_COLD_RATIO: f64 = 1.15;

/// Re-measures every record from a Zipf-skewed quantized domain:
/// `0.5 + 0.5·k` for Zipf-sampled level `k` — about two dozen distinct
/// values, heavily skewed toward the first few. Structure (which edges
/// each record holds) is untouched, so the workload matches identically.
fn quantize_records(records: &[GraphRecord]) -> Vec<GraphRecord> {
    let levels = Zipf::new(24, 1.2);
    let mut rng = StdRng::seed_from_u64(0x51ab);
    records
        .iter()
        .map(|r| {
            let mut b = RecordBuilder::with_capacity(r.edge_count());
            for &(e, _) in r.edges() {
                b.add(e, 0.5 + levels.sample(&mut rng) as f64 * 0.5);
            }
            if let Some(g) = r.group() {
                b.group(g);
            }
            b.build()
        })
        .collect()
}

/// One query's answer reduced to exactly-comparable form: record ids plus
/// every measure's bit pattern.
type Answer = (Vec<u32>, Vec<u64>);

/// Runs the workload against an in-memory store — the raw truth the two
/// disk formats are differenced against.
fn truth(store: &GraphStore, queries: &[GraphQuery]) -> Vec<Answer> {
    queries
        .iter()
        .map(|q| {
            let (r, _) = store.evaluate(q);
            (r.records, r.measures.iter().map(|v| v.to_bits()).collect())
        })
        .collect()
}

/// Cold-opens `dir` and runs the workload once, returning the answers, the
/// wall clock, and the accumulated I/O stats of the pass.
fn cold_pass(dir: &Path, queries: &[GraphQuery]) -> (Vec<Answer>, f64, IoStats) {
    let disk = DiskGraphStore::open(dir, CACHE_BYTES).expect("open saved store");
    let mut stats = IoStats::new();
    let (answers, ms) = time_ms(|| {
        queries
            .iter()
            .map(|q| {
                let (r, s) = disk.evaluate(q).expect("disk evaluation");
                stats.merge(&s);
                (r.records, r.measures.iter().map(|v| v.to_bits()).collect())
            })
            .collect::<Vec<Answer>>()
    });
    (answers, ms, stats)
}

/// One dataset's v2-vs-v3 measurement.
struct Row {
    dataset: &'static str,
    v2_bytes: u64,
    v3_bytes: u64,
    v2_cold_ms: f64,
    v3_cold_ms: f64,
    v2_read_bytes: u64,
    v3_read_bytes: u64,
    identical: bool,
}

impl Row {
    fn ratio(&self) -> f64 {
        self.v2_bytes as f64 / self.v3_bytes.max(1) as f64
    }
}

/// Saves `store` in both formats, answers the workload through raw truth
/// and both disk stores, and reports sizes/timings — with `identical`
/// false unless every answer agreed bit-for-bit.
fn measure(dataset: &'static str, store: &GraphStore, queries: &[GraphQuery]) -> Row {
    let base = std::env::temp_dir().join(format!("graphbi-compress-{dataset}"));
    let dir_v2 = base.join("v2");
    let dir_v3 = base.join("v3");
    let _ = std::fs::remove_dir_all(&base);
    let vfs = os_vfs();
    let v2_bytes =
        save_store_with_format(vfs.as_ref(), store, &dir_v2, &[], &[], FormatVersion::V2)
            .expect("save v2");
    let v3_bytes =
        save_store_with_format(vfs.as_ref(), store, &dir_v3, &[], &[], FormatVersion::V3)
            .expect("save v3");

    let want = truth(store, queries);
    let mut v2 = cold_pass(&dir_v2, queries);
    let mut v3 = cold_pass(&dir_v3, queries);
    for _ in 1..COLD_PASSES {
        for (best, dir) in [(&mut v2, &dir_v2), (&mut v3, &dir_v3)] {
            let (answers, ms, _) = cold_pass(dir, queries);
            assert!(answers == best.0, "a repeated cold pass changed an answer");
            best.1 = best.1.min(ms);
        }
    }
    let (v2_answers, v2_cold_ms, v2_stats) = v2;
    let (v3_answers, v3_cold_ms, v3_stats) = v3;
    let _ = std::fs::remove_dir_all(&base);

    Row {
        dataset,
        v2_bytes,
        v3_bytes,
        v2_cold_ms,
        v3_cold_ms,
        v2_read_bytes: v2_stats.disk_bytes,
        v3_read_bytes: v3_stats.disk_bytes,
        identical: v2_answers == want && v3_answers == want,
    }
}

/// Runs the benchmark; returns `false` when any compressed-path answer
/// differed from raw, or the quantized dataset missed the 2× size gate or
/// the cold-time gate.
pub fn run() -> bool {
    let d = ny(4_000);
    let queries = zipf_queries(&d, 80);
    let quantized = quantize_records(&d.records);
    let rows = [
        measure(
            "ny-zipf-quantized",
            &GraphStore::load(d.universe.clone(), &quantized),
            &queries,
        ),
        measure(
            "ny-uniform",
            &GraphStore::load(d.universe.clone(), &d.records),
            &queries,
        ),
    ];

    let mut t = Table::new(
        "Compressed format v3 vs raw v2 (cold cache)",
        &[
            "dataset",
            "v2_bytes",
            "v3_bytes",
            "ratio",
            "v2_cold_ms",
            "v3_cold_ms",
            "v2_read_bytes",
            "v3_read_bytes",
            "identical",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.dataset.into(),
            r.v2_bytes.to_string(),
            r.v3_bytes.to_string(),
            format!("{:.2}x", r.ratio()),
            fmt(r.v2_cold_ms),
            fmt(r.v3_cold_ms),
            r.v2_read_bytes.to_string(),
            r.v3_read_bytes.to_string(),
            r.identical.to_string(),
        ]);
    }
    t.emit("compress");

    let identical = rows.iter().all(|r| r.identical);
    let zipf_ratio_ok = rows[0].ratio() >= MIN_ZIPF_RATIO;
    let never_grows = rows.iter().all(|r| r.v3_bytes <= r.v2_bytes);
    let cold_ratio = |r: &Row| r.v3_cold_ms / r.v2_cold_ms;
    let zipf_cold_ok = cold_ratio(&rows[0]) <= MAX_ZIPF_COLD_RATIO;
    for r in &rows {
        println!(
            "{}: v3/v2 cold time {:.2}x for {:.2}x fewer bytes read",
            r.dataset,
            cold_ratio(r),
            r.v2_read_bytes as f64 / r.v3_read_bytes.max(1) as f64
        );
    }
    if !identical {
        println!("FAIL: a compressed-path answer differed from raw");
    }
    if !zipf_ratio_ok {
        println!(
            "FAIL: quantized ratio {:.2}x below the {MIN_ZIPF_RATIO}x gate",
            rows[0].ratio()
        );
    }
    if !never_grows {
        println!("FAIL: v3 produced more bytes than v2 on some dataset");
    }
    if !zipf_cold_ok {
        println!(
            "FAIL: quantized v3 cold pass {:.2}x the v2 pass, above the {MAX_ZIPF_COLD_RATIO}x gate",
            cold_ratio(&rows[0])
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"compress\",");
    let _ = writeln!(json, "  \"identical\": {identical},");
    let _ = writeln!(json, "  \"zipf_ratio_ok\": {zipf_ratio_ok},");
    let _ = writeln!(json, "  \"zipf_cold_ok\": {zipf_cold_ok},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"dataset\": \"{}\", \"v2_bytes\": {}, \"v3_bytes\": {}, \
             \"ratio\": {:.3}, \"v2_cold_ms\": {:.3}, \"v3_cold_ms\": {:.3}, \
             \"v2_read_bytes\": {}, \"v3_read_bytes\": {}, \"identical\": {}}}{comma}",
            r.dataset,
            r.v2_bytes,
            r.v3_bytes,
            r.ratio(),
            r.v2_cold_ms,
            r.v3_cold_ms,
            r.v2_read_bytes,
            r.v3_read_bytes,
            r.identical,
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    let out = std::env::var("GRAPHBI_BENCH_OUT").unwrap_or_else(|_| "BENCH_compress.json".into());
    std::fs::write(&out, &json).expect("write benchmark point");
    println!("wrote {out}");

    identical && zipf_ratio_ok && never_grows && zipf_cold_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantized_records_keep_structure_and_shrink_cardinality() {
        let d = ny(100);
        let q = quantize_records(&d.records);
        assert_eq!(q.len(), d.records.len());
        let mut distinct = std::collections::BTreeSet::new();
        for (orig, quant) in d.records.iter().zip(&q) {
            let orig_edges: Vec<_> = orig.edges().iter().map(|&(e, _)| e).collect();
            let quant_edges: Vec<_> = quant.edges().iter().map(|&(e, _)| e).collect();
            assert_eq!(orig_edges, quant_edges, "structure must be untouched");
            for &(_, m) in quant.edges() {
                distinct.insert(m.to_bits());
            }
        }
        assert!(
            distinct.len() <= 24,
            "quantized domain too wide: {}",
            distinct.len()
        );
    }
}
