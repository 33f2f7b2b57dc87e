//! Fixed-seed runs of the crash-consistency oracle, the teeth test (a
//! deliberately disabled checksum must be caught and shrunk), and the
//! bit-identity check between the in-memory store and its FaultVfs
//! persistence round-trip.

use std::path::PathBuf;
use std::sync::Arc;

use graphbi::disk::{save_store_with, DiskGraphStore};
use graphbi::{AggFn, GraphStore, QueryRequest, Session};
use graphbi_columnstore::{FaultVfs, FormatVersion, Verify};
use graphbi_testkit::{crash, shrink_with, CrashFault, Scenario};

/// The tier-1 crash smoke: several fixed seeds survive the whole
/// crash-point × fault-kind sweep and the corruption-at-rest flips, and
/// the sweep is demonstrably large (hundreds of seeded crash points).
/// Saves write format v3 only, so every crash point and byte flip here
/// runs over compressed files; the legacy v2 flip sweep runs over the
/// checked-in fixture (`tests/v2_fixture.rs`).
#[test]
fn crash_sweep_is_clean_on_fixed_seeds() {
    let mut crash_points = 0;
    let mut flip_points = 0;
    for seed in [7u64, 42, 43] {
        let report = crash::check(&Scenario::generate(seed), CrashFault::None);
        assert!(
            report.passed(),
            "seed {seed}: {} broken guarantees, first: {}",
            report.failures.len(),
            report.failures[0],
        );
        crash_points += report.crash_points;
        flip_points += report.flip_points;
    }
    assert!(
        crash_points >= 200,
        "suspiciously small crash sweep: {crash_points} points"
    );
    assert!(
        flip_points >= 50,
        "suspiciously small flip sweep: {flip_points} flips"
    );
}

/// The WAL crash oracle on fixed seeds: the live ingest sequence (open,
/// two commits, one compaction) crashed at every VFS operation under
/// every fault kind always recovers to an exact commit boundary, and the
/// at-rest flip sweep over WAL frames and the fold sidecar is clean.
#[test]
fn wal_crash_sweep_is_clean_on_fixed_seeds() {
    let mut crash_points = 0;
    let mut flip_points = 0;
    for seed in [7u64, 42, 43] {
        let report = crash::check_wal(&Scenario::generate(seed), CrashFault::None);
        assert!(
            report.passed(),
            "seed {seed}: {} broken WAL guarantees, first: {}",
            report.failures.len(),
            report.failures[0],
        );
        crash_points += report.crash_points;
        flip_points += report.flip_points;
    }
    assert!(
        crash_points >= 200,
        "suspiciously small WAL crash sweep: {crash_points} points"
    );
    assert!(
        flip_points >= 50,
        "suspiciously small WAL flip sweep: {flip_points} flips"
    );
}

/// Replaying a seed through the WAL oracle yields the same verdict and
/// the same sweep size.
#[test]
fn wal_oracle_is_deterministic_per_seed() {
    let a = crash::check_wal(&Scenario::generate(42), CrashFault::None);
    let b = crash::check_wal(&Scenario::generate(42), CrashFault::None);
    assert_eq!(a.crash_points, b.crash_points);
    assert_eq!(a.flip_points, b.flip_points);
    assert_eq!(a.passed(), b.passed());
}

/// Replaying a seed yields the same verdict and the same sweep size.
#[test]
fn crash_oracle_is_deterministic_per_seed() {
    let a = crash::check(&Scenario::generate(42), CrashFault::None);
    let b = crash::check(&Scenario::generate(42), CrashFault::None);
    assert_eq!(a.crash_points, b.crash_points);
    assert_eq!(a.flip_points, b.flip_points);
    assert_eq!(a.passed(), b.passed());
}

/// The teeth test: reopening with payload checksums disabled
/// (`Verify::TrustDisk` via [`CrashFault::DropCrc`]) must let some
/// flipped byte silently change an answer — which the oracle reports and
/// the shrinker reduces, proving the harness actually exercises the
/// checksums.
#[test]
fn disabled_checksums_are_caught_and_shrunk() {
    // Scan a few seeds for one whose workload fetches a flipped byte;
    // the flip sweep targets measure payloads, so most seeds qualify.
    let mut caught = None;
    for seed in 42u64..52 {
        let scenario = Scenario::generate(seed);
        let report = crash::check(&scenario, CrashFault::DropCrc);
        if !report.passed() {
            assert!(
                report
                    .failures
                    .iter()
                    .all(|f| f.site.starts_with("flip") || f.site.contains('@')),
                "unexpected failure shape: {}",
                report.failures[0],
            );
            caught = Some(scenario);
            break;
        }
    }
    let scenario = caught.expect("no seed in 42..52 exposed the disabled checksum");

    let minimized = shrink_with(&scenario, |s| {
        !crash::check(s, CrashFault::DropCrc).passed()
    });
    let small = &minimized.scenario;
    assert!(
        !crash::check(small, CrashFault::DropCrc).passed(),
        "shrunk scenario no longer fails"
    );
    assert!(
        small.records.len() <= scenario.records.len(),
        "shrinking grew the record set"
    );

    // With checksums back on, the same scenario is clean: the bug is the
    // disabled verification, not the store.
    assert!(
        crash::check(small, CrashFault::None).passed(),
        "shrunk scenario fails even with checksums on"
    );
}

/// Satellite: a store saved through [`FaultVfs`] with no fault armed and
/// reopened from it answers the whole workload *bit-identically* to the
/// in-memory store it came from — same records, same measures, same
/// aggregate floats, no tolerance.
#[test]
fn faultvfs_reload_answers_bit_identical_to_mem() {
    let scenario = Scenario::generate(42);
    let mut mem = GraphStore::load(scenario.universe.clone(), &scenario.records);
    if scenario.view_budget > 0 {
        mem.advise_views(&scenario.queries, scenario.view_budget);
    }
    if scenario.agg_view_budget > 0 {
        let _ = mem.advise_agg_views(&scenario.queries, AggFn::Sum, scenario.agg_view_budget);
    }

    let vfs = Arc::new(FaultVfs::new(0xFA7E));
    let dir = PathBuf::from("/bitident");
    save_store_with(vfs.as_ref(), &mem, &dir).expect("save through FaultVfs");
    let disk = DiskGraphStore::open_with(&dir, 64 << 10, vfs, Verify::Checksums)
        .expect("reopen through FaultVfs");
    assert_eq!(
        disk.relation().format_version(),
        FormatVersion::V3,
        "the writer must emit format v3"
    );

    let mut requests: Vec<QueryRequest> = Vec::new();
    for q in &scenario.queries {
        requests.push(QueryRequest::new(q.clone()));
        requests.push(QueryRequest::new(q.clone()).oblivious());
    }
    for e in &scenario.exprs {
        requests.push(QueryRequest::expr(e.clone()));
    }
    for a in &scenario.aggs {
        requests.push(QueryRequest::aggregate(a.clone()));
    }

    let mut compared = 0;
    for (i, req) in requests.iter().enumerate() {
        match (mem.execute(req), disk.execute(req)) {
            (Ok((want, _)), Ok((got, _))) => {
                assert_eq!(got, want, "request[{i}] differs between mem and reload");
                compared += 1;
            }
            (Err(_), Err(_)) => {} // e.g. cyclic aggregation: both refuse
            (Ok(_), Err(e)) => panic!("request[{i}] fails only on disk: {e}"),
            (Err(e), Ok(_)) => panic!("request[{i}] fails only in memory: {e}"),
        }
    }
    assert!(compared >= 8, "too few comparable requests: {compared}");
}
