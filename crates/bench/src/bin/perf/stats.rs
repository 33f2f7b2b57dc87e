//! Exact order statistics, answer hashing and the result-line writer.
//!
//! Every gated latency comes from the sorted raw samples handled here;
//! `obs::Histogram`'s power-of-two buckets cannot resolve a change
//! smaller than 2× and are used for no reported number.

use graphbi::Response;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q·n` samples at or below it. `None` on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted nanosecond samples, in the unit `per` nanoseconds
/// make up (1e3 → µs, 1e6 → ms); 0 when there are none.
pub fn median_ns(samples: &mut [u64], per: f64) -> f64 {
    samples.sort_unstable();
    percentile(samples, 0.5).map_or(0.0, |v| v as f64 / per)
}

/// Median of a handful of float measurements (set-up repetitions).
pub fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// FNV-1a, 64 bit.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of an answer: variant tag, record ids and the bit pattern
/// of every value. Two answers hash alike exactly when their canonical
/// wire text is the same, and hashing the parsed structure costs the
/// client far less than rendering the text a second time would.
pub fn response_hash(resp: &Response) -> u64 {
    let mut h = Fnv::new();
    let floats = |h: &mut Fnv, vs: &[f64]| vs.iter().for_each(|v| h.u64(v.to_bits()));
    match resp {
        Response::Records(r) => {
            h.u64(1);
            r.records.iter().for_each(|&id| h.u64(u64::from(id)));
            r.edges.iter().for_each(|e| h.u64(u64::from(e.0)));
            floats(&mut h, &r.measures);
        }
        Response::Matches(b) => {
            h.u64(2);
            b.iter().for_each(|id| h.u64(u64::from(id)));
        }
        Response::Aggregates(r) => {
            h.u64(3);
            r.records.iter().for_each(|&id| h.u64(u64::from(id)));
            h.u64(r.path_count as u64);
            floats(&mut h, &r.values);
        }
    }
    h.finish()
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The machine-readable result: one JSON object on one line, values with
/// every digit measured (`{}` on an `f64` prints the shortest text that
/// reads back to the same bits).
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            graphbi_obs::json::quote(m.name),
            m.value,
            graphbi_obs::json::quote(m.unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, by counting: smallest sample with ≥ q·n at or below.
    fn reference(sorted: &[u64], q: f64) -> u64 {
        let need = q * sorted.len() as f64;
        *sorted
            .iter()
            .find(|&&v| sorted.iter().filter(|&&w| w <= v).count() as f64 >= need)
            .expect("the maximum always qualifies")
    }

    #[test]
    fn percentile_matches_counting_definition() {
        for n in [1usize, 2, 999, 1000] {
            // Distinct, shuffled-then-sorted values with gaps.
            let mut v: Vec<u64> = (0..n as u64).map(|i| (i * 7919) % 10_007 + i).collect();
            v.sort_unstable();
            for q in [0.5, 0.9, 0.99, 1.0] {
                assert_eq!(percentile(&v, q), Some(reference(&v, q)), "n={n} q={q}");
            }
        }
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[5], 0.99), Some(5));
        assert_eq!(percentile(&[1, 9], 0.5), Some(1));
        assert_eq!(percentile(&[1, 9], 0.99), Some(9));
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990));
        assert_eq!(percentile(&thousand[..999], 0.99), Some(990));
    }

    #[test]
    fn medians() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0]), 2.5);
        assert_eq!(median_ns(&mut [3_000, 1_000, 2_000], 1e3), 2.0);
        assert_eq!(median_ns(&mut [], 1e3), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object_with_exact_keys() {
        let metrics = [
            Metric {
                name: "query_p50_ms",
                value: 1.2034,
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: 0.1 + 0.2,
                unit: "s",
            },
        ];
        let line = result_line(10, 0, &metrics);
        assert!(!line.contains('\n'));
        let json = graphbi_obs::json::parse(&line).expect("valid json");
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(json.get("attempted").unwrap().as_u64(), Some(10));
        let m = json.get("metrics").unwrap();
        let setup = m.get("setup_s").unwrap();
        // Every digit survives: 0.1 + 0.2 is not 0.3.
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.1 + 0.2));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(
            m.get("query_p50_ms")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.2034)
        );
        let failed = graphbi_obs::json::parse(&result_line(10, 3, &[])).unwrap();
        assert_eq!(failed.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(failed.get("failed").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn hash_separates_variants_and_values() {
        use graphbi::{Bitmap, PathAggResult, QueryResult};
        let records = Response::Records(QueryResult {
            records: vec![1, 2],
            edges: vec![graphbi::EdgeId(0)],
            measures: vec![1.0, 2.0],
        });
        let other = Response::Records(QueryResult {
            records: vec![1, 2],
            edges: vec![graphbi::EdgeId(0)],
            measures: vec![1.0, 2.5],
        });
        let aggs = Response::Aggregates(PathAggResult {
            records: vec![1, 2],
            path_count: 1,
            values: vec![1.0, 2.0],
        });
        let mut bm = Bitmap::new();
        bm.insert(1);
        bm.insert(2);
        let hashes = [
            response_hash(&records),
            response_hash(&other),
            response_hash(&aggs),
            response_hash(&Response::Matches(bm)),
        ];
        for i in 0..hashes.len() {
            for j in 0..i {
                assert_ne!(hashes[i], hashes[j]);
            }
        }
        assert_eq!(response_hash(&records), response_hash(&records.clone()));
    }
}
