//! Fixed-seed smoke runs of the differential matrix, and the
//! fault-injection demonstration: an intentionally broken ANDNOT is
//! caught by the oracle and shrunk to a minimal reproducer.

use graphbi_testkit::{check, shrink, Fault, Scenario};

use std::path::PathBuf;
use std::sync::Arc;

use graphbi::disk::{save_store_with, DiskGraphStore};
use graphbi::{AggFn, GraphStore, QueryRequest, Session};
use graphbi_columnstore::{FaultVfs, Verify};

/// The tier-1 smoke: the full engine × plan-mode × backend matrix agrees
/// with the reference model on several fixed seeds.
#[test]
fn matrix_agrees_on_fixed_seeds() {
    let mut total_checks = 0;
    for seed in [11u64, 23, 37, 101] {
        let scenario = Scenario::generate(seed);
        assert!(
            !scenario.queries.is_empty(),
            "seed {seed} generated no queries"
        );
        let report = check(&scenario, Fault::None);
        assert!(
            report.passed(),
            "seed {seed}: {} discrepancies, first: {}",
            report.discrepancies.len(),
            report.discrepancies[0],
        );
        total_checks += report.checks;
    }
    // 9 engine configurations × (queries + exprs + aggs) per seed: the
    // matrix must actually have fanned out, not short-circuited.
    assert!(
        total_checks >= 4 * 50,
        "suspiciously few checks ran: {total_checks}"
    );
}

/// Deterministic replay: the same seed yields the same verdict and the
/// same number of comparisons.
#[test]
fn oracle_is_deterministic_per_seed() {
    let a = check(&Scenario::generate(55), Fault::None);
    let b = check(&Scenario::generate(55), Fault::None);
    assert_eq!(a.checks, b.checks);
    assert_eq!(a.passed(), b.passed());
}

/// An injected bug — ANDNOT operands flipped in the in-memory columnar
/// expression plans — must be caught and shrunk to a minimal reproducer.
#[test]
fn injected_andnot_flip_is_caught_and_shrunk() {
    // Scan a few seeds for one whose workload exposes the flip (an ANDNOT
    // whose operands have asymmetric match sets); the generator makes
    // these common, so a short scan is enough.
    let mut caught = None;
    for seed in 1u64..24 {
        let scenario = Scenario::generate(seed);
        let report = check(&scenario, Fault::FlipAndNot);
        if !report.passed() {
            assert!(
                report
                    .discrepancies
                    .iter()
                    .all(|d| d.engine.starts_with("columnar-mem")),
                "the fault lives in the mem engines only, but got: {}",
                report.discrepancies[0],
            );
            caught = Some(scenario);
            break;
        }
    }
    let scenario = caught.expect("no seed in 1..24 exposed the flipped ANDNOT");

    // Shrinking must preserve the failure while reducing the input.
    let minimized = shrink(&scenario, Fault::FlipAndNot);
    let small = &minimized.scenario;
    assert!(
        !check(small, Fault::FlipAndNot).passed(),
        "shrunk scenario no longer fails"
    );
    assert!(
        small.records.len() <= scenario.records.len(),
        "shrinking grew the record set"
    );
    assert!(
        small.records.len() <= 4,
        "reproducer should be tiny, got {} records",
        small.records.len()
    );
    assert_eq!(
        small.workload_len(),
        1,
        "reproducer should be a single workload item"
    );

    // And the minimal scenario is clean without the fault: the bug is in
    // the injected mutation, not the shrunk data.
    assert!(
        check(small, Fault::None).passed(),
        "shrunk scenario fails even without the fault"
    );
}

/// A short in-process fuzz sweep as a test: every seed in a fixed window
/// passes the oracle.
#[test]
fn fuzz_window_is_clean() {
    for seed in 300u64..312 {
        let report = check(&Scenario::generate(seed), Fault::None);
        assert!(report.passed(), "seed {seed}: {}", report.discrepancies[0]);
    }
}

/// IoStats accounting on compressed stores. For every workload query the
/// v3 disk store must answer bit-identically to the in-memory store (raw
/// columns) with identical *logical* cost counters, and a 3-way sharded
/// run on the v3 store must report exactly the serial stats (physical
/// read counters masked, as they depend on cache interleaving only). The
/// v2-vs-v3 physical comparison runs on the checked-in v2 fixture
/// (`tests/v2_fixture.rs`).
#[test]
fn compressed_store_stats_match_raw_serial_and_sharded() {
    let scenario = Scenario::generate(42);
    let mut mem = GraphStore::load(scenario.universe.clone(), &scenario.records);
    if scenario.view_budget > 0 {
        mem.advise_views(&scenario.queries, scenario.view_budget);
    }
    if scenario.agg_view_budget > 0 {
        let _ = mem.advise_agg_views(&scenario.queries, AggFn::Sum, scenario.agg_view_budget);
    }

    let vfs = Arc::new(FaultVfs::new(0xc0));
    let dir = PathBuf::from("/statsv3");
    save_store_with(vfs.as_ref(), &mem, &dir).unwrap();
    let v3 = DiskGraphStore::open_with(&dir, 1 << 20, vfs, Verify::Checksums).unwrap();

    let mask_physical = |mut s: graphbi::IoStats| {
        s.disk_reads = 0;
        s.disk_bytes = 0;
        s
    };

    let mut compared = 0u32;
    for q in &scenario.queries {
        let req = QueryRequest::new(q.clone());
        v3.relation().clear_cache();
        let (raw, raw_stats) = mem.execute(&req).expect("mem evaluate");
        let (a3, s3) = v3.execute(&req).expect("v3 evaluate");
        assert_eq!(a3, raw, "compressed store answers differ from raw: {q:?}");
        assert_eq!(
            mask_physical(s3),
            mask_physical(raw_stats),
            "logical cost differs from raw: {q:?}"
        );

        let (a3s, s3s) = v3
            .execute(&QueryRequest::new(q.clone()).shards(3))
            .expect("sharded");
        assert_eq!(a3s, a3, "sharded answer differs on compressed store: {q:?}");
        assert_eq!(
            mask_physical(s3s),
            mask_physical(s3),
            "sharded stats differ on compressed store: {q:?}"
        );
        compared += 1;
    }
    assert!(compared >= 3, "too few queries compared: {compared}");
}
