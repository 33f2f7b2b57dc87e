//! Compressed format v3 against the raw encodings: disk footprint, answer
//! differential and cold-read cost.
//!
//! Two datasets, both NY-shaped, each saved as format v3 (the only format
//! written) and measured against its raw payload size:
//!
//! * **ny-zipf-quantized** — measures quantized to a small Zipf-skewed
//!   value domain, the shape real sensor/toll/latency measures take. This
//!   is where dictionary coding earns its keep; the acceptance gate
//!   requires v3 to be at least 2× smaller than raw here.
//! * **ny-uniform** — the paper's continuous uniform measures, which no
//!   dictionary can compress. The honest row: v3's win is limited to the
//!   bitmap columns, and the gate only requires it never to *grow*.
//!
//! `v2_bytes` is the raw payload, computed in memory: every column's
//! presence bitmap ([`Bitmap::encode`]) and value block
//! ([`SparseColumn::encode_values`]), every view ([`Bitmap::encode`],
//! [`SparseColumn::encode`]) — the bytes format v2 stored, without its
//! directories. `v3_bytes` is the saved store's whole footprint
//! (directories, sidecars and manifest included), so the ratio is
//! conservative.
//!
//! Every query of a Zipf-selected workload is answered by the in-memory
//! store (raw truth) and by the v3 disk store, and the answers must be
//! bit-identical (`f64::to_bits`, no tolerance) before any size or timing
//! is reported. A mismatch fails the run and the CI job wrapping it.
//! Results land in `BENCH_compress.json`.
//!
//! Timings are the best of [`COLD_PASSES`] passes each, alternating a v3
//! cold pass (a freshly opened store, so an empty column cache; the OS
//! page cache is warm, so a pass costs syscalls + CRC + decode +
//! evaluation, not seeks) with an in-memory truth pass. The quantized
//! row is gated on `v3_cold_ms / mem_ms` (see [`MAX_ZIPF_COLD_RATIO`]);
//! the uniform row's ratio is printed, not gated.

use std::fmt::Write as _;
use std::path::Path;

use graphbi::disk::{save_store, DiskGraphStore};
use graphbi::{GraphStore, IoStats};
use graphbi_bitmap::Bitmap;
use graphbi_columnstore::{AggViewId, SparseColumn, ViewId};
use graphbi_graph::{EdgeId, GraphQuery, GraphRecord, RecordBuilder};
use graphbi_workload::zipf::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{fmt, ny, time_ms, zipf_queries, Table};

/// Column-cache budget for the disk stores: large enough that the timed
/// pass is not eviction-bound, so the cold numbers measure read+decode.
const CACHE_BYTES: usize = 64 << 20;

/// The acceptance gate on the quantized row (see module docs).
const MIN_ZIPF_RATIO: f64 = 2.0;

/// Timed passes per side; the minimum is reported.
const COLD_PASSES: usize = 5;

/// Gate on the quantized row's `v3_cold_ms / mem_ms`: 1.15 × the 2.27
/// this ratio measured on a 2-core box just before the v2 writer was
/// removed (median of seven runs, each best of five; range 2.01–2.61).
/// The single-parser reader measured 2.30 (2.22–2.51). A slower decode or
/// fetch path fails CI; most run-to-run noise does not.
const MAX_ZIPF_COLD_RATIO: f64 = 1.15 * 2.27;

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

/// Bytes of the store's columns and views in the raw encodings.
fn raw_payload_bytes(store: &GraphStore) -> u64 {
    let rel = store.relation();
    let mut stats = IoStats::new();
    let columns = (0..rel.edge_count()).map(|e| {
        let col = rel.edge_column_uncounted(EdgeId(u32::try_from(e).expect("edge fits u32")));
        col.presence().encode().len() + col.encode_values().len()
    });
    let views = (0..rel.view_count()).map(|v| {
        let id = ViewId(u32::try_from(v).expect("view fits u32"));
        Bitmap::encode(rel.view_bitmap_uncounted(id)).len()
    });
    let aggs = (0..rel.agg_view_count()).map(|v| {
        let id = AggViewId(u32::try_from(v).expect("view fits u32"));
        SparseColumn::encode(rel.agg_view(id, &mut stats)).len()
    });
    columns.chain(views).chain(aggs).sum::<usize>() as u64
}

/// One query's answer reduced to exactly-comparable form: record ids plus
/// every measure's bit pattern.
type Answer = (Vec<u32>, Vec<u64>);

/// Runs the workload against the in-memory store — the raw truth the disk
/// store is differenced against — returning the answers and wall clock.
fn truth_pass(store: &GraphStore, queries: &[GraphQuery]) -> (Vec<Answer>, f64) {
    time_ms(|| {
        queries
            .iter()
            .map(|q| {
                let (r, _) = store.evaluate(q);
                (r.records, r.measures.iter().map(|v| v.to_bits()).collect())
            })
            .collect()
    })
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

/// One dataset's measurement.
struct Row {
    dataset: &'static str,
    v2_bytes: u64,
    v3_bytes: u64,
    mem_ms: f64,
    v3_cold_ms: f64,
    v3_read_bytes: u64,
    identical: bool,
}

impl Row {
    fn ratio(&self) -> f64 {
        self.v2_bytes as f64 / self.v3_bytes.max(1) as f64
    }

    fn cold_ratio(&self) -> f64 {
        self.v3_cold_ms / self.mem_ms
    }
}

/// Saves `store` as v3, answers the workload through raw truth and the
/// disk store, and reports sizes/timings — with `identical` false unless
/// every answer agreed bit-for-bit.
fn measure(dataset: &'static str, store: &GraphStore, queries: &[GraphQuery]) -> Row {
    let dir = std::env::temp_dir().join(format!("graphbi-compress-{dataset}"));
    let _ = std::fs::remove_dir_all(&dir);
    let v3_bytes = save_store(store, &dir).expect("save v3");

    let (want, mut mem_ms) = truth_pass(store, queries);
    let (answers, mut v3_cold_ms, v3_stats) = cold_pass(&dir, queries);
    for _ in 1..COLD_PASSES {
        let (again, ms, _) = cold_pass(&dir, queries);
        assert!(again == answers, "a repeated cold pass changed an answer");
        v3_cold_ms = v3_cold_ms.min(ms);
        mem_ms = mem_ms.min(truth_pass(store, queries).1);
    }
    let _ = std::fs::remove_dir_all(&dir);

    Row {
        dataset,
        v2_bytes: raw_payload_bytes(store),
        v3_bytes,
        mem_ms,
        v3_cold_ms,
        v3_read_bytes: v3_stats.disk_bytes,
        identical: answers == want,
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
        "Compressed format v3 vs raw payloads (cold cache)",
        &[
            "dataset",
            "v2_bytes",
            "v3_bytes",
            "ratio",
            "mem_ms",
            "v3_cold_ms",
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
            fmt(r.mem_ms),
            fmt(r.v3_cold_ms),
            r.v3_read_bytes.to_string(),
            r.identical.to_string(),
        ]);
    }
    t.emit("compress");

    let identical = rows.iter().all(|r| r.identical);
    let zipf_ratio_ok = rows[0].ratio() >= MIN_ZIPF_RATIO;
    let never_grows = rows.iter().all(|r| r.v3_bytes <= r.v2_bytes);
    let zipf_cold_ok = rows[0].cold_ratio() <= MAX_ZIPF_COLD_RATIO;
    for r in &rows {
        println!(
            "{}: v3 cold pass {:.3} ms / in-memory pass {:.3} ms = {:.2}x (gate {MAX_ZIPF_COLD_RATIO:.2}x on the quantized row)",
            r.dataset,
            r.v3_cold_ms,
            r.mem_ms,
            r.cold_ratio(),
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
        println!("FAIL: v3 produced more bytes than raw on some dataset");
    }
    if !zipf_cold_ok {
        println!(
            "FAIL: quantized v3 cold pass {:.2}x the in-memory pass, above the {MAX_ZIPF_COLD_RATIO:.2}x gate",
            rows[0].cold_ratio()
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
             \"ratio\": {:.3}, \"mem_ms\": {:.3}, \"v3_cold_ms\": {:.3}, \
             \"cold_ratio\": {:.3}, \"v3_read_bytes\": {}, \"identical\": {}}}{comma}",
            r.dataset,
            r.v2_bytes,
            r.v3_bytes,
            r.ratio(),
            r.mem_ms,
            r.v3_cold_ms,
            r.cold_ratio(),
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
