//! The crash-consistency oracle: save through a faulty disk, crash at
//! every operation, reopen, and demand the store is all-old or all-new.
//!
//! One scenario becomes two databases — the *old* store (the first half of
//! the records) and the *new* store (all of them). The old store is saved
//! through a clean [`FaultVfs`]; then, for every fault kind and every VFS
//! operation index the new save performs, a fresh fork of that filesystem
//! is crashed at exactly that point, rebooted, and reopened. The reopened
//! store must answer the whole workload exactly like the old store or
//! exactly like the new one — anything in between is a torn state, the bug
//! this oracle exists to catch. A second sweep flips individual durable
//! bytes of the published store ("corruption at rest") and demands every
//! flip either surfaces as a typed corruption error or provably changes
//! nothing.
//!
//! [`CrashFault::DropCrc`] reopens with [`Verify::TrustDisk`] — the
//! deliberately-broken configuration that proves the harness has teeth:
//! with payload checksums off, some flipped byte must slip through and
//! change an answer, which this oracle reports as a failure the fuzzer
//! then shrinks.
//!
//! [`check_wal`] runs the same discipline over the *live write path*: an
//! [`MvccStore`] ingest sequence (open, two delta commits, a compaction)
//! is crashed at every VFS operation under every fault kind, and recovery
//! must land exactly on a commit boundary — acknowledged commits durable,
//! unacknowledged ones invisible, never a torn in-between.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphbi::disk::{save_store_with, DiskGraphStore};
use graphbi::{AggFn, GraphStore, MvccStore, QueryRequest, Response, Session};
use graphbi_columnstore::persist::part_directory;
use graphbi_columnstore::vfs::Fault as VfsFault;
use graphbi_columnstore::{DeltaOp, FaultVfs, Verify, Vfs};
use graphbi_graph::RecordBuilder;

use crate::engines::delta_batches;
use crate::oracle::TOLERANCE;
use crate::scenario::Scenario;

/// Column-cache budget for reopened stores (matches the differential
/// matrix: small enough to exercise eviction).
const CACHE_BYTES: usize = 64 << 10;

/// Fault-kind sweep order: every kind is armed at every operation index
/// of the save under test.
const KINDS: [VfsFault; 6] = [
    VfsFault::Crash,
    VfsFault::TornWrite,
    VfsFault::Enospc,
    VfsFault::ShortRead,
    VfsFault::BitFlip,
    VfsFault::LostFsync,
];

/// Intentional misconfiguration of the store under test, for validating
/// that the crash oracle catches real durability bugs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashFault {
    /// No fault: the store under test, checksums on.
    None,
    /// Reopen every store with [`Verify::TrustDisk`] — payload checksums
    /// disabled. The bit-flip sweep must catch this.
    DropCrc,
}

/// One violated durability guarantee.
#[derive(Debug)]
pub struct CrashFailure {
    /// Where it happened (`TornWrite@17`, `flip g…-part_0000.gbi@412`, …).
    pub site: String,
    /// What guarantee broke.
    pub detail: String,
}

impl std::fmt::Display for CrashFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.site, self.detail)
    }
}

/// The crash oracle's verdict on one scenario.
#[derive(Debug, Default)]
pub struct CrashReport {
    /// Every broken guarantee (empty = scenario passed).
    pub failures: Vec<CrashFailure>,
    /// Crash experiments run (fault kinds × save operation indices).
    pub crash_points: u64,
    /// Corruption-at-rest experiments run (individual byte flips).
    pub flip_points: u64,
}

impl CrashReport {
    /// True when every crash point reopened consistently and every flip
    /// was caught or provably harmless.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    fn fail(&mut self, site: String, detail: String) {
        self.failures.push(CrashFailure { site, detail });
    }
}

/// Runs the full crash-consistency sweep on one scenario: every fault
/// kind at every VFS operation of a save must reopen as exactly-old or
/// exactly-new, and every flipped payload byte of the published store
/// must be caught by a CRC ([`flip_sweep`]).
pub fn check(scenario: &Scenario, fault: CrashFault) -> CrashReport {
    let mut report = CrashReport::default();
    let verify = match fault {
        CrashFault::None => Verify::Checksums,
        CrashFault::DropCrc => Verify::TrustDisk,
    };
    let dir = PathBuf::from("/crashdb");

    // Two generations of the database: the state before and after the
    // save under test.
    let old_n = (scenario.records.len() / 2)
        .max(1)
        .min(scenario.records.len());
    let old_store = store_of(scenario, old_n);
    let new_store = store_of(scenario, scenario.records.len());

    // Baseline: the old store saved through a clean in-memory disk.
    let base = FaultVfs::new(scenario.seed);
    save_store_with(&base, &old_store, &dir).expect("baseline save on a clean FaultVfs");
    let ops_before = base.op_count();

    // The workload, restricted to requests every engine can answer
    // (cyclic path aggregations error on any backend, old or new).
    let reqs: Vec<QueryRequest> = requests(scenario)
        .into_iter()
        .filter(|r| new_store.execute(r).is_ok())
        .collect();

    // Expected answers, computed through the SAME disk engine so the
    // old-vs-new comparison is exact — no cross-engine float drift.
    let old_expected = {
        let f = Arc::new(base.fork());
        let disk = DiskGraphStore::open_with(&dir, CACHE_BYTES, f, Verify::Checksums)
            .expect("reopen baseline store");
        answers(&disk, &reqs).expect("answer workload on baseline store")
    };

    // Dry run of the save under test: counts the VFS operations it
    // performs — the crash sweep arms one fault at each of those indices.
    let clean = Arc::new(base.fork());
    save_store_with(clean.as_ref(), &new_store, &dir).expect("dry-run save");
    let save_ops = clean.op_count() - ops_before;
    clean.reboot();
    let new_expected = {
        let disk = DiskGraphStore::open_with(&dir, CACHE_BYTES, clean.clone(), Verify::Checksums)
            .expect("reopen dry-run store");
        answers(&disk, &reqs).expect("answer workload on dry-run store")
    };

    // Phase 1: crash the save at every operation index, under every fault
    // kind. Reopening must find exactly the old or exactly the new store.
    for kind in KINDS {
        for k in 0..save_ops {
            report.crash_points += 1;
            let site = format!("{kind:?}@{k}");
            let f = Arc::new(base.fork());
            f.arm(kind, ops_before + k);
            let saved = save_store_with(f.as_ref(), &new_store, &dir);
            // Power loss right after the save call returns (or dies):
            // only fsynced state may survive.
            f.crash();
            f.reboot();
            // LostFsync breaks the write path's durability contract, so
            // a *detected* corruption is an acceptable outcome for it —
            // but never for the honest fault kinds.
            let lying = kind == VfsFault::LostFsync;
            let disk = match DiskGraphStore::open_with(&dir, CACHE_BYTES, f, verify) {
                Ok(d) => d,
                Err(e) if e.is_corruption() => {
                    if !lying {
                        report.fail(
                            site,
                            format!("store unopenable after crash (atomic publish broken): {e}"),
                        );
                    }
                    continue;
                }
                Err(e) => {
                    report.fail(
                        site,
                        format!("reopen failed with non-corruption error: {e}"),
                    );
                    continue;
                }
            };
            match answers(&disk, &reqs) {
                Err(e) if e.is_corruption() => {
                    if !lying {
                        report.fail(site, format!("payload corruption after crash reopen: {e}"));
                    }
                }
                Err(e) => {
                    report.fail(site, format!("query failed with non-corruption error: {e}"));
                }
                Ok(got) => {
                    let is_old = got == old_expected;
                    let is_new = got == new_expected;
                    if !is_old && !is_new {
                        report.fail(
                            site,
                            "torn state: answers match neither the old nor the new store".into(),
                        );
                    } else if is_old && !is_new && saved.is_ok() && !lying {
                        report.fail(
                            site,
                            "save reported success but the reopened store is the old one".into(),
                        );
                    }
                }
            }
        }
    }

    // Phase 2: corruption at rest over the published new store.
    let flips = flip_sweep(&clean, &dir, verify, &reqs, &new_expected);
    report.flip_points += flips.flip_points;
    report.failures.extend(flips.failures);
    report
}

/// Corruption at rest over any store published in `vfs` at `dir`: one
/// experiment per [`flip_targets`] offset flips that durable byte in a
/// fresh fork, reopens with `verify` and answers `reqs`. Each must either
/// surface a typed corruption error or answer exactly `expected` (the
/// intact store's answers); anything else is reported as a failure.
pub fn flip_sweep(
    vfs: &FaultVfs,
    dir: &Path,
    verify: Verify,
    reqs: &[QueryRequest],
    expected: &[Response],
) -> CrashReport {
    let mut report = CrashReport::default();
    for (path, offset) in flip_targets(vfs, dir) {
        report.flip_points += 1;
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let site = format!("flip {name}@{offset}");
        let f = Arc::new(vfs.fork());
        f.corrupt_at(&path, offset);
        let disk = match DiskGraphStore::open_with(dir, CACHE_BYTES, f, verify) {
            Ok(d) => d,
            Err(e) if e.is_corruption() => continue, // caught at open: good
            Err(e) => {
                report.fail(
                    site,
                    format!("reopen failed with non-corruption error: {e}"),
                );
                continue;
            }
        };
        match answers(&disk, reqs) {
            Err(e) if e.is_corruption() => {} // caught at fetch: good
            Err(e) => report.fail(site, format!("query failed with non-corruption error: {e}")),
            Ok(got) => {
                if got != expected {
                    report.fail(
                        site,
                        "flipped byte changed answers silently (checksum missed it)".into(),
                    );
                }
            }
        }
    }
    report
}

/// The WAL crash oracle: crash a live ingest — open, two delta commits,
/// one compaction — at every VFS operation under every fault kind, reboot,
/// and demand recovery lands on an exact commit boundary.
///
/// The committed states are `A0` (base only), `A1` (base + first batch)
/// and `A2` (base + both batches; compaction folds the same state, so it
/// adds no fourth answer set). A recovered store must answer the whole
/// workload like exactly one of them — structure exact, float aggregates
/// under [`TOLERANCE`], since merged and compacted read paths sum in
/// different orders — never between two frames — and,
/// for every honest fault kind, never *below* the highest commit whose
/// `commit()` call returned `Ok`: an acknowledged fsync is durable.
/// Recovery *above* the acked watermark is legal (a torn append whose
/// complete frame reached disk before the crash).
///
/// A second sweep flips durable WAL bytes at rest (the frame CRC must
/// roll replay back to a commit boundary, silently) and fold-sidecar
/// bytes (their checksum must surface a typed corruption error).
///
/// [`CrashFault::DropCrc`] only disables the *store payload* checksums on
/// reopen; WAL frames and sidecars are always self-checking, so this
/// oracle stays green under it — the differential bait lives in
/// [`check`].
pub fn check_wal(scenario: &Scenario, fault: CrashFault) -> CrashReport {
    let mut report = CrashReport::default();
    let verify = match fault {
        CrashFault::None => Verify::Checksums,
        CrashFault::DropCrc => Verify::TrustDisk,
    };
    let dir = PathBuf::from("/walcrashdb");

    let base_n = (scenario.records.len() / 2)
        .max(1)
        .min(scenario.records.len());
    let base_store = store_of(scenario, base_n);
    let (b1, b2) = wal_batches(scenario, base_n);

    // Baseline: the base generation saved through a clean disk. The WAL
    // does not exist yet — the sequence under test creates it.
    let base = FaultVfs::new(scenario.seed ^ 0x0a17);
    save_store_with(&base, &base_store, &dir).expect("baseline save on a clean FaultVfs");
    let ops_before = base.op_count();

    let reqs: Vec<QueryRequest> = requests(scenario)
        .into_iter()
        .filter(|r| base_store.execute(r).is_ok())
        .collect();

    // Committed states, each computed through a fresh *reopen* on a clean
    // fork — the exact code path recovery takes.
    let a0 = {
        let f = Arc::new(base.fork());
        let store = MvccStore::open_disk(&dir, CACHE_BYTES, f, Verify::Checksums)
            .expect("open baseline mvcc store");
        answers(&store, &reqs).expect("answer workload at A0")
    };
    let a1 = {
        let f = Arc::new(base.fork());
        {
            let store = MvccStore::open_disk(&dir, CACHE_BYTES, f.clone(), Verify::Checksums)
                .expect("open mvcc store for A1");
            store.commit(&b1).expect("clean commit b1");
        }
        let store = MvccStore::open_disk(&dir, CACHE_BYTES, f, Verify::Checksums)
            .expect("reopen mvcc store at A1");
        answers(&store, &reqs).expect("answer workload at A1")
    };
    // Dry run of the full sequence: its clean fork both yields A2 and
    // counts the VFS operations the crash sweep arms faults at.
    let clean = Arc::new(base.fork());
    {
        let store = MvccStore::open_disk(&dir, CACHE_BYTES, clean.clone(), Verify::Checksums)
            .expect("open mvcc store for dry run");
        store.commit(&b1).expect("clean commit b1");
        store.commit(&b2).expect("clean commit b2");
        store.compact().expect("clean compaction");
    }
    let seq_ops = clean.op_count() - ops_before;
    let a2 = {
        let store = MvccStore::open_disk(&dir, CACHE_BYTES, clean.clone(), Verify::Checksums)
            .expect("reopen mvcc store at A2");
        answers(&store, &reqs).expect("answer workload at A2")
    };

    // A pre-compaction end state whose WAL still holds both frames, for
    // the flip sweep (compaction truncates the log).
    let walful = Arc::new(base.fork());
    {
        let store = MvccStore::open_disk(&dir, CACHE_BYTES, walful.clone(), Verify::Checksums)
            .expect("open mvcc store for flip baseline");
        store.commit(&b1).expect("clean commit b1");
        store.commit(&b2).expect("clean commit b2");
    }

    // Phase 1: crash the live sequence at every operation index, under
    // every fault kind. The sequence stops at its first error (a real
    // writer that hits EIO is about to die anyway); only what recovery
    // finds matters.
    for kind in KINDS {
        for k in 0..seq_ops {
            report.crash_points += 1;
            let site = format!("wal {kind:?}@{k}");
            let f = Arc::new(base.fork());
            f.arm(kind, ops_before + k);
            let mut acked = 0usize;
            if let Ok(store) = MvccStore::open_disk(&dir, CACHE_BYTES, f.clone(), Verify::Checksums)
            {
                if store.commit(&b1).is_ok() {
                    acked = 1;
                    if store.commit(&b2).is_ok() {
                        acked = 2;
                        let _ = store.compact();
                    }
                }
            }
            f.crash();
            f.reboot();
            let lying = kind == VfsFault::LostFsync;
            let store = match MvccStore::open_disk(&dir, CACHE_BYTES, f, verify) {
                Ok(s) => s,
                Err(e) if e.is_corruption() => {
                    if !lying {
                        report.fail(site, format!("store unopenable after WAL crash: {e}"));
                    }
                    continue;
                }
                Err(e) => {
                    report.fail(
                        site,
                        format!("reopen failed with non-corruption error: {e}"),
                    );
                    continue;
                }
            };
            match answers(&store, &reqs) {
                Err(e) if e.is_corruption() => {
                    if !lying {
                        report.fail(site, format!("payload corruption after WAL crash: {e}"));
                    }
                }
                Err(e) => {
                    report.fail(site, format!("query failed with non-corruption error: {e}"));
                }
                Ok(got) => {
                    // Highest matching state wins, so indistinguishable
                    // batches (A1 == A2) never false-positive the
                    // durability check below.
                    let recovered = if answers_equiv(&got, &a2) {
                        Some(2)
                    } else if answers_equiv(&got, &a1) {
                        Some(1)
                    } else if answers_equiv(&got, &a0) {
                        Some(0)
                    } else {
                        None
                    };
                    match recovered {
                        None => {
                            report.fail(site, "torn state: answers match no commit boundary".into())
                        }
                        Some(j) if j < acked && !lying => report.fail(
                            site,
                            format!(
                                "acknowledged commit lost: recovered state A{j} \
                                 after {acked} acked commits"
                            ),
                        ),
                        _ => {}
                    }
                }
            }
        }
    }

    // Phase 2a: flip durable WAL bytes at rest. Frame CRCs must roll
    // replay back to a commit boundary — silently, never a torn state.
    let wal_path = dir.join(graphbi_columnstore::wal::WAL_FILE);
    let wal_bytes = walful.read(&wal_path).map(|b| b.len()).unwrap_or(0);
    for offset in sampled_offsets(wal_bytes, 96) {
        report.flip_points += 1;
        let site = format!("flip wal.gbl@{offset}");
        let f = Arc::new(walful.fork());
        f.corrupt_at(&wal_path, offset);
        let store = match MvccStore::open_disk(&dir, CACHE_BYTES, f, verify) {
            Ok(s) => s,
            Err(e) if e.is_corruption() => continue, // caught at open: good
            Err(e) => {
                report.fail(
                    site,
                    format!("reopen failed with non-corruption error: {e}"),
                );
                continue;
            }
        };
        match answers(&store, &reqs) {
            Err(e) if e.is_corruption() => {} // caught at fetch: good
            Err(e) => report.fail(site, format!("query failed with non-corruption error: {e}")),
            Ok(got) => {
                if !answers_equiv(&got, &a0)
                    && !answers_equiv(&got, &a1)
                    && !answers_equiv(&got, &a2)
                {
                    report.fail(
                        site,
                        "flipped WAL byte produced a state off every commit boundary".into(),
                    );
                }
            }
        }
    }

    // Phase 2b: flip every byte of the published fold sidecar (the
    // watermark that makes stale WAL frames inert after compaction). Its
    // checksum must surface a typed corruption error — a silently wrong
    // watermark would replay folded commits twice.
    let mut files = clean.list(&dir).unwrap_or_default();
    files.sort();
    for path in files {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_owned();
        if !name.contains("wal_fold") {
            continue;
        }
        let len = clean.read(&path).map(|b| b.len()).unwrap_or(0);
        for offset in 0..len {
            report.flip_points += 1;
            let site = format!("flip {name}@{offset}");
            let f = Arc::new(clean.fork());
            f.corrupt_at(&path, offset);
            match MvccStore::open_disk(&dir, CACHE_BYTES, f, verify) {
                Err(e) if e.is_corruption() => {} // caught: good
                Err(e) => report.fail(
                    site,
                    format!("reopen failed with non-corruption error: {e}"),
                ),
                Ok(store) => match answers(&store, &reqs) {
                    Err(e) if e.is_corruption() => {}
                    Err(e) => {
                        report.fail(site, format!("query failed with non-corruption error: {e}"));
                    }
                    Ok(got) => {
                        if !answers_equiv(&got, &a2) {
                            report.fail(
                                site,
                                "flipped fold-sidecar byte changed answers silently".into(),
                            );
                        }
                    }
                },
            }
        }
    }

    report
}

/// Tolerance-aware equivalence of two workload answer sets. Structure
/// (record sets, match bitmaps, path counts) must be identical; float
/// measures and aggregates compare under the oracle's relative
/// [`TOLERANCE`]. A recovered store answers through the merged
/// base-plus-delta read path while the committed states may have been
/// compacted into a pure base — the summation orders differ, and a
/// last-ULP float wobble is not a durability violation.
fn answers_equiv(a: &[Response], b: &[Response]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Response::Records(p), Response::Records(q)) => p.diff(q, TOLERANCE).is_none(),
            (Response::Aggregates(p), Response::Aggregates(q)) => p.diff(q, TOLERANCE).is_none(),
            _ => x == y,
        })
}

/// The first two commit batches of the scenario's ingest stream (see
/// [`delta_batches`]), falling back to synthetic single-insert batches so
/// shrunken scenarios still exercise two commits.
fn wal_batches(scenario: &Scenario, base_n: usize) -> (Vec<DeltaOp>, Vec<DeltaOp>) {
    let mut batches = delta_batches(scenario, base_n).into_iter();
    let fallback = |measure: f64| {
        let mut b = RecordBuilder::new();
        if scenario.universe.edge_count() > 0 {
            b.add(graphbi::EdgeId(0), measure);
        }
        vec![DeltaOp::Insert(b.build())]
    };
    let b1 = batches.next().unwrap_or_else(|| fallback(1.0));
    let b2 = batches.next().unwrap_or_else(|| fallback(2.0));
    (b1, b2)
}

/// Up to `max` distinct byte offsets spread evenly over `len` bytes
/// (all of them when the file is small).
fn sampled_offsets(len: usize, max: usize) -> Vec<usize> {
    if len == 0 {
        return Vec::new();
    }
    if len <= max {
        return (0..len).collect();
    }
    let mut out: Vec<usize> = (0..max).map(|i| i * len / max).collect();
    out.dedup();
    out
}

/// The scenario's store over its first `n` records, views advised exactly
/// like the differential matrix does.
fn store_of(scenario: &Scenario, n: usize) -> GraphStore {
    let mut store = GraphStore::load(scenario.universe.clone(), &scenario.records[..n]);
    if scenario.view_budget > 0 {
        store.advise_views(&scenario.queries, scenario.view_budget);
    }
    if scenario.agg_view_budget > 0 {
        let _ = store.advise_agg_views(&scenario.queries, AggFn::Sum, scenario.agg_view_budget);
    }
    store
}

/// The scenario's whole workload as serial requests.
fn requests(scenario: &Scenario) -> Vec<QueryRequest> {
    let mut reqs = Vec::new();
    for q in &scenario.queries {
        reqs.push(QueryRequest::new(q.clone()));
    }
    for e in &scenario.exprs {
        reqs.push(QueryRequest::expr(e.clone()));
    }
    for a in &scenario.aggs {
        reqs.push(QueryRequest::aggregate(a.clone()));
    }
    reqs
}

/// Answers the workload through one backend, first error wins.
fn answers<S: Session>(
    store: &S,
    reqs: &[QueryRequest],
) -> Result<Vec<Response>, graphbi::SessionError> {
    reqs.iter()
        .map(|r| store.execute(r).map(|(resp, _)| resp))
        .collect()
}

/// Byte offsets to corrupt, chosen to land inside checksummed payloads:
/// measure values and bitmap bytes of the partition files (the
/// silent-wrong-answer bait when checksums are off), plus one tail byte
/// of every other file (manifest, views, sidecars — their checksums are
/// always on, so those must surface as typed errors).
///
/// Partition files are located through the store's own directory parser,
/// so both layouts (v3 and read-only v2) are covered. The first values
/// byte of a v3 column is its codec tag — flipping it must surface as a
/// *typed* error even with checksums off — so each column also gets an
/// interior flip (mid-payload, inside a raw f64 or the dictionary) that
/// stays silent under [`Verify::TrustDisk`]: the `DropCrc` bait the teeth
/// test needs.
fn flip_targets(vfs: &FaultVfs, dir: &Path) -> Vec<(PathBuf, usize)> {
    /// Values-payload flips per partition file — enough that several land
    /// in columns the workload actually fetches.
    const FLIPS_PER_PART: usize = 48;

    let mut out = Vec::new();
    let mut files = vfs.list(dir).unwrap_or_default();
    files.sort();
    for path in files {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let Ok(bytes) = vfs.read(&path) else { continue };
        if bytes.is_empty() {
            continue;
        }
        if !name.contains("-part_") {
            out.push((path, bytes.len() - 1));
            continue;
        }
        let Ok(columns) = part_directory(&path, &bytes, usize::MAX) else {
            continue;
        };
        let mut flips = 0;
        for (c, col) in columns.iter().enumerate() {
            if flips >= FLIPS_PER_PART {
                break;
            }
            let (off, bitmap_len, values_len) = (
                col.offset as usize,
                col.bitmap_len as usize,
                col.values_len as usize,
            );
            if values_len > 0 && off + bitmap_len < bytes.len() {
                // First byte of the column's measure values (the codec
                // tag on v3 files).
                out.push((path.clone(), off + bitmap_len));
                flips += 1;
                // An interior byte of the values payload: inside a raw
                // f64 (or the dictionary) where no structural check can
                // notice — only the CRC stands between this flip and a
                // silently wrong measure.
                let interior = off + bitmap_len + (values_len / 2).max(1);
                if c % 2 == 0 && values_len > 1 && interior < bytes.len() {
                    out.push((path.clone(), interior));
                    flips += 1;
                }
            } else if bitmap_len > 0 && off < bytes.len() {
                // Columns without measures: flip structure instead.
                out.push((path.clone(), off));
                flips += 1;
            }
        }
    }
    out
}
