//! Reading the legacy v2 on-disk format. The writer emits v3 only, so v2
//! coverage runs against a store written once by the last v2-capable
//! writer and checked in under `fixtures/v2-store/` (see its README):
//! three partition files holding array and run containers, three graph
//! views and two SUM aggregate views, with `requests.txt` (one
//! `QueryRequest::to_text` line per request) and `expected.txt` (the
//! in-memory store's `Response::to_text` for each, concatenated).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphbi::disk::{load_store, load_store_with, save_store, DiskGraphStore};
use graphbi::{EdgeId, IoStats, MvccStore, QueryRequest, Response, Session};
use graphbi_columnstore::{os_vfs, persist, DeltaOp, FaultVfs, FormatVersion, OsVfs, Verify, Vfs};
use graphbi_graph::RecordBuilder;
use graphbi_testkit::crash;

/// Column-cache budget: small enough that the fixture's columns evict.
const CACHE_BYTES: usize = 16 << 10;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/v2-store")
}

fn requests() -> Vec<QueryRequest> {
    std::fs::read_to_string(fixture_dir().join("requests.txt"))
        .expect("read requests.txt")
        .lines()
        .map(|l| QueryRequest::parse_text(l).expect("fixture request parses"))
        .collect()
}

fn responses<S: Session>(store: &S, reqs: &[QueryRequest]) -> Vec<Response> {
    reqs.iter()
        .map(|r| store.execute(r).expect("fixture request answers").0)
        .collect()
}

/// Asserts `store` renders `expected.txt` byte for byte, naming the first
/// request whose answer differs.
fn assert_reproduces_expected<S: Session>(store: &S, reader: &str) {
    let reqs = requests();
    let got: String = responses(store, &reqs)
        .iter()
        .map(Response::to_text)
        .collect();
    let want = std::fs::read_to_string(fixture_dir().join("expected.txt")).expect("read expected");
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or(got.lines().count().min(want.lines().count()));
        panic!("{reader}: answers differ from expected.txt at line {line}");
    }
}

/// The fixture copied into a fresh in-memory [`FaultVfs`], every file
/// durable, so writers never touch the checked-in copy.
fn fixture_vfs(seed: u64) -> (Arc<FaultVfs>, PathBuf) {
    let vfs = FaultVfs::new(seed);
    let dir = PathBuf::from("/v2store");
    vfs.create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(fixture_dir()).unwrap() {
        let path = entry.unwrap().path();
        let target = dir.join(path.file_name().unwrap());
        vfs.write(&target, &std::fs::read(&path).unwrap()).unwrap();
        vfs.fsync(&target).unwrap();
    }
    vfs.fsync_dir(&dir).unwrap();
    (Arc::new(vfs), dir)
}

/// (a) Every reader answers the v2 store exactly as the in-memory store
/// that wrote it did.
#[test]
fn every_reader_reproduces_expected_answers() {
    let dir = fixture_dir();
    let disk = DiskGraphStore::open_with(&dir, CACHE_BYTES, os_vfs(), Verify::Checksums).unwrap();
    let rel = disk.relation();
    assert_eq!(rel.format_version(), FormatVersion::V2);
    let last_edge = EdgeId(u32::try_from(rel.edge_count()).unwrap() - 1);
    assert!(rel.partition_of(last_edge) >= 1, "fixture spans partitions");
    assert!(rel.view_count() >= 1 && rel.agg_view_count() >= 1);
    assert_reproduces_expected(&disk, "DiskGraphStore::open_with");

    let loaded = load_store_with(&OsVfs, &dir, Verify::Checksums).unwrap();
    assert_reproduces_expected(&loaded, "load_store_with");

    let (vfs, vdir) = fixture_vfs(0x2a);
    let mvcc = MvccStore::open_disk(&vdir, CACHE_BYTES, vfs, Verify::Checksums).unwrap();
    assert_reproduces_expected(&mvcc, "MvccStore::open_disk");
}

/// (b) Resaving the v2 store writes v3 that answers identically, with the
/// same logical costs and cold fetch count and no more bytes read.
#[test]
fn resaved_as_v3_keeps_answers_and_logical_stats() {
    let dir = std::env::temp_dir().join(format!("graphbi-v2-resave-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    save_store(&load_store(&fixture_dir()).unwrap(), &dir).unwrap();
    let v2 = DiskGraphStore::open(&fixture_dir(), 1 << 20).unwrap();
    let v3 = DiskGraphStore::open(&dir, 1 << 20).unwrap();
    assert_eq!(v3.relation().format_version(), FormatVersion::V3);

    let mask_physical = |mut s: IoStats| {
        s.disk_reads = 0;
        s.disk_bytes = 0;
        s
    };
    let (mut v2_bytes, mut v3_bytes) = (0u64, 0u64);
    for req in requests() {
        v2.relation().clear_cache();
        v3.relation().clear_cache();
        let (a2, s2) = v2.execute(&req).expect("v2 answers");
        let (a3, s3) = v3.execute(&req).expect("v3 answers");
        let line = req.to_text();
        assert_eq!(a3, a2, "answers differ between formats: {line}");
        assert_eq!(
            mask_physical(s3),
            mask_physical(s2),
            "logical cost differs between formats: {line}"
        );
        assert_eq!(s3.disk_reads, s2.disk_reads, "cold fetch count: {line}");
        assert!(
            s3.disk_bytes <= s2.disk_bytes,
            "v3 read more than v2 ({} > {}): {line}",
            s3.disk_bytes,
            s2.disk_bytes
        );
        v2_bytes += s2.disk_bytes;
        v3_bytes += s3.disk_bytes;
    }
    assert!(v3_bytes < v2_bytes, "v3 {v3_bytes} B vs v2 {v2_bytes} B");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two commit batches over the fixture's universe: fresh records on the
/// edges its first requests query, plus an update of a base record.
fn batches() -> (Vec<DeltaOp>, Vec<DeltaOp>) {
    let record = |edges: &[u32], m: f64| {
        let mut b = RecordBuilder::new();
        for (i, &e) in edges.iter().enumerate() {
            b.add(EdgeId(e), m + i as f64);
        }
        b.build()
    };
    let b1 = vec![
        DeltaOp::Insert(record(&[24, 25, 26, 27, 29], 1.5)),
        DeltaOp::Insert(record(&[25, 26], 2.25)),
        DeltaOp::Update(3, record(&[24, 27, 29], 0.75)),
    ];
    let b2 = vec![
        DeltaOp::Insert(record(&[24, 27, 29, 39], 3.0)),
        DeltaOp::Update(401, record(&[25, 26, 39], 4.5)),
    ];
    (b1, b2)
}

/// (c) A snapshot pins the v2 base while compaction publishes v3: both
/// generations coexist on disk and answer, and after the pin drops a
/// reopen + `gc` answers like an in-memory store given the same commits.
#[test]
fn compaction_publishes_v3_beside_a_pinned_v2_generation() {
    let (vfs, dir) = fixture_vfs(0x313d);
    let (b1, b2) = batches();
    let reqs = requests();

    let store = MvccStore::open_disk(&dir, CACHE_BYTES, vfs.clone(), Verify::Checksums).unwrap();
    let v2_gen = store.generation();
    let pin = store.snapshot();
    store.commit(&b1).unwrap();
    store.compact().unwrap();
    let v3_gen = store.generation();
    assert_ne!(v2_gen, v3_gen);
    for generation in [v2_gen, v3_gen] {
        let part = dir.join(format!("g{generation:012}-part_0000.gbi"));
        assert!(vfs.exists(&part), "generation {generation} on disk");
    }
    assert_reproduces_expected(&pin, "snapshot pinning the v2 base");
    store.commit(&b2).unwrap();
    drop(pin);
    drop(store);

    let reopened = MvccStore::open_disk(&dir, CACHE_BYTES, vfs.clone(), Verify::Checksums).unwrap();
    reopened.gc().unwrap();
    let live = persist::live_generation(vfs.as_ref(), &dir).unwrap();
    assert_eq!(live, v3_gen);
    assert!(
        !vfs.exists(&dir.join(format!("g{v2_gen:012}-part_0000.gbi"))),
        "unpinned v2 generation collected"
    );

    let mem = MvccStore::new_mem(load_store(&fixture_dir()).unwrap());
    mem.commit(&b1).unwrap();
    mem.compact().unwrap();
    mem.commit(&b2).unwrap();
    let want = responses(&mem, &reqs);
    let got = responses(&reopened, &reqs);
    for ((req, g), w) in reqs.iter().zip(&got).zip(&want) {
        assert_eq!(g, w, "disk and memory differ: {}", req.to_text());
    }
}

/// (d) The crash oracle's corruption-at-rest sweep over the v2 files:
/// with checksums on every flip is typed corruption or the exact answer;
/// with them off at least one flip silently changes an answer.
#[test]
fn flip_sweep_over_v2_files() {
    let (vfs, dir) = fixture_vfs(0xf11b);
    let reqs = requests();
    let disk =
        DiskGraphStore::open_with(&dir, CACHE_BYTES, Arc::new(vfs.fork()), Verify::Checksums)
            .unwrap();
    let expected = responses(&disk, &reqs);

    let checked = crash::flip_sweep(&vfs, &dir, Verify::Checksums, &reqs, &expected);
    assert!(
        checked.passed(),
        "{} broken guarantees, first: {}",
        checked.failures.len(),
        checked.failures[0]
    );
    assert!(
        checked.flip_points >= 40,
        "suspiciously small flip sweep: {}",
        checked.flip_points
    );

    let trusting = crash::flip_sweep(&vfs, &dir, Verify::TrustDisk, &reqs, &expected);
    assert!(
        trusting
            .failures
            .iter()
            .any(|f| f.detail.contains("silently")),
        "no flip slipped past disabled checksums"
    );
}
