//! The virtual filesystem the store talks to.
//!
//! Every byte the persistence layer reads or writes goes through the
//! [`Vfs`] trait, so the I/O substrate is injectable: production uses
//! [`OsVfs`] (plain `std::fs`), while the crash-consistency fuzzer uses
//! [`FaultVfs`] — a deterministic in-memory filesystem that models the
//! page cache / durable storage split and injects torn writes, short
//! reads, bit flips, `ENOSPC` and lost-fsync-then-crash failures at a
//! seeded operation index.
//!
//! The fault model follows how real filesystems lose data:
//!
//! * a `write` lands in the page cache (the *volatile* layer); what of it
//!   survives a crash before the matching `fsync` is adversarial — the
//!   model persists nothing, everything, or a torn prefix, chosen by a
//!   seeded hash of the operation index;
//! * `fsync` makes the file's current content durable — unless the
//!   [`Fault::LostFsync`] fault eats it, in which case the call lies
//!   (returns `Ok`) and persists nothing, like a disk with a broken
//!   write cache;
//! * `rename` is atomic (journaled-metadata semantics). Renaming a file
//!   whose data was never fsynced is the classic application bug, and the
//!   model punishes it: the destination durably becomes either the old
//!   file or a torn prefix of the new one.

use std::collections::BTreeMap;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use graphbi_obs::{Counter, Histogram};
use parking_lot::Mutex;

/// Whether fetches verify the stored CRC32 of every payload they read.
///
/// [`Verify::TrustDisk`] exists for exactly one purpose: proving the
/// crash-consistency fuzzer has teeth. Disabling verification must make
/// the fuzzer's bit-flip sweep fail — if it doesn't, the harness isn't
/// actually exercising the checksums. Production code paths always use
/// [`Verify::Checksums`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verify {
    /// Verify every column/bitmap/manifest payload CRC32 on read.
    Checksums,
    /// Skip CRC verification (test-only hook; structural length and magic
    /// checks still apply).
    TrustDisk,
}

/// The filesystem interface of the persistence layer.
///
/// Paths are opaque keys; `read_range` must return exactly `len` bytes
/// (implementations may return fewer only when injecting a short read —
/// callers treat a short buffer as corruption).
pub trait Vfs: Send + Sync {
    /// Reads the whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Reads `len` bytes starting at `off`.
    fn read_range(&self, path: &Path, off: u64, len: u64) -> io::Result<Vec<u8>>;
    /// Creates or replaces the file with `data` (buffered; not durable
    /// until [`Vfs::fsync`]).
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Appends `data` at the end of the file, creating it when absent
    /// (buffered; not durable until [`Vfs::fsync`]). Unlike [`Vfs::write`]
    /// this never touches previously written bytes, so a crash mid-append
    /// can tear only the appended suffix — the WAL's durability argument
    /// rests on exactly that contract.
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Flushes the file's content to durable storage.
    fn fsync(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` to `to`, replacing any existing file.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file (missing files are not an error).
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Lists the files directly under `dir` (empty when absent).
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// True when the file exists.
    fn exists(&self, path: &Path) -> bool;
    /// Creates `dir` and its ancestors.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Flushes directory metadata (new/renamed entries) to durable
    /// storage. Implementations without directory handles may no-op.
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The production VFS: plain `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct OsVfs;

/// Process-wide I/O metric handles, resolved from the global registry once
/// (the registry lock never sits on the I/O path). Latencies are log₂
/// histograms in nanoseconds; byte counters track payload volume.
struct OsVfsMetrics {
    read_ns: Arc<Histogram>,
    write_ns: Arc<Histogram>,
    fsync_ns: Arc<Histogram>,
    read_bytes: Arc<Counter>,
    write_bytes: Arc<Counter>,
}

fn os_metrics() -> &'static OsVfsMetrics {
    static METRICS: OnceLock<OsVfsMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = graphbi_obs::global();
        OsVfsMetrics {
            read_ns: reg.histogram("graphbi_vfs_read_ns"),
            write_ns: reg.histogram("graphbi_vfs_write_ns"),
            fsync_ns: reg.histogram("graphbi_vfs_fsync_ns"),
            read_bytes: reg.counter("graphbi_vfs_read_bytes_total"),
            write_bytes: reg.counter("graphbi_vfs_write_bytes_total"),
        }
    })
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Vfs for OsVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let m = os_metrics();
        let start = Instant::now();
        let data = std::fs::read(path)?;
        m.read_ns.record(elapsed_ns(start));
        m.read_bytes.add(data.len() as u64);
        Ok(data)
    }

    fn read_range(&self, path: &Path, off: u64, len: u64) -> io::Result<Vec<u8>> {
        let m = os_metrics();
        let start = Instant::now();
        let mut f = std::fs::File::open(path)?;
        f.seek(SeekFrom::Start(off))?;
        let mut buf = vec![0u8; usize::try_from(len).expect("len fits usize")];
        f.read_exact(&mut buf)?;
        m.read_ns.record(elapsed_ns(start));
        m.read_bytes.add(buf.len() as u64);
        Ok(buf)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let m = os_metrics();
        let start = Instant::now();
        let mut f = std::fs::File::create(path)?;
        f.write_all(data)?;
        m.write_ns.record(elapsed_ns(start));
        m.write_bytes.add(data.len() as u64);
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let m = os_metrics();
        let start = Instant::now();
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(data)?;
        m.write_ns.record(elapsed_ns(start));
        m.write_bytes.add(data.len() as u64);
        Ok(())
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        let start = Instant::now();
        std::fs::File::open(path)?.sync_all()?;
        os_metrics().fsync_ns.record(elapsed_ns(start));
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match std::fs::remove_file(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            r => r,
        }
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        match std::fs::read_dir(dir) {
            Ok(entries) => {
                let mut out = Vec::new();
                for e in entries {
                    let e = e?;
                    if e.file_type()?.is_file() {
                        out.push(e.path());
                    }
                }
                out.sort();
                Ok(out)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directory fsync is best-effort: some platforms refuse to open
        // directories for syncing, which is not a store failure.
        match std::fs::File::open(dir) {
            Ok(f) => {
                let _ = f.sync_all();
                Ok(())
            }
            Err(_) => Ok(()),
        }
    }
}

/// One injectable failure, armed at an operation index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The process dies before the operation executes: the op and every
    /// subsequent op fail, and unsynced writes persist adversarially.
    Crash,
    /// The write persists only a seeded prefix (durably and in the page
    /// cache), then the process dies.
    TornWrite,
    /// The write fails with `ENOSPC` after persisting a seeded prefix to
    /// the page cache; the process survives.
    Enospc,
    /// The read returns a seeded prefix of the requested bytes (once).
    ShortRead,
    /// The read returns the requested bytes with one seeded byte flipped
    /// (once).
    BitFlip,
    /// The fsync silently does nothing (returns `Ok`); the process dies
    /// at the *next* crashable operation after the save completes — see
    /// [`FaultVfs::reboot`].
    LostFsync,
}

struct FaultState {
    seed: u64,
    /// Count of faultable operations performed (read/write/fsync/rename/
    /// remove).
    ops: u64,
    /// The armed fault and the absolute op index it fires at.
    armed: Option<(Fault, u64)>,
    crashed: bool,
    /// What survives a crash.
    durable: BTreeMap<PathBuf, Vec<u8>>,
    /// The live filesystem view (page cache included).
    volatile: BTreeMap<PathBuf, Vec<u8>>,
}

/// A deterministic in-memory filesystem with seeded fault injection — the
/// crash-consistency fuzzer's disk.
///
/// All state is in memory: `durable` models what survives power loss,
/// `volatile` the live view including unsynced page-cache content.
/// [`FaultVfs::fork`] clones the whole state so one baseline store can be
/// crashed at every operation index independently; [`FaultVfs::reboot`]
/// simulates power loss (drops the volatile layer) and clears the fault.
pub struct FaultVfs {
    state: Mutex<FaultState>,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn crashed_err() -> io::Error {
    io::Error::other("faultvfs: crashed")
}

impl FaultVfs {
    /// An empty in-memory filesystem whose adversarial choices derive from
    /// `seed`.
    pub fn new(seed: u64) -> FaultVfs {
        FaultVfs {
            state: Mutex::new(FaultState {
                seed,
                ops: 0,
                armed: None,
                crashed: false,
                durable: BTreeMap::new(),
                volatile: BTreeMap::new(),
            }),
        }
    }

    /// A deep copy of the current state (same seed, same op counter) —
    /// the starting point for one crash experiment.
    pub fn fork(&self) -> FaultVfs {
        let s = self.state.lock();
        FaultVfs {
            state: Mutex::new(FaultState {
                seed: s.seed,
                ops: s.ops,
                armed: s.armed,
                crashed: s.crashed,
                durable: s.durable.clone(),
                volatile: s.volatile.clone(),
            }),
        }
    }

    /// Number of faultable operations performed so far.
    pub fn op_count(&self) -> u64 {
        self.state.lock().ops
    }

    /// Arms `fault` to fire at absolute operation index `at` (compare
    /// with [`FaultVfs::op_count`]).
    pub fn arm(&self, fault: Fault, at: u64) {
        self.state.lock().armed = Some((fault, at));
    }

    /// Kills the process *now*: unsynced writes persist adversarially and
    /// every subsequent operation fails until [`FaultVfs::reboot`]. Used
    /// to model a crash after a save "succeeded" (e.g. following a lost
    /// fsync).
    pub fn crash(&self) {
        let mut s = self.state.lock();
        let _ = FaultVfs::die(&mut s);
    }

    /// Simulates power loss and restart: the volatile layer is replaced
    /// by the durable one, the crashed flag and any armed fault are
    /// cleared.
    pub fn reboot(&self) {
        let mut s = self.state.lock();
        s.volatile = s.durable.clone();
        s.crashed = false;
        s.armed = None;
    }

    /// Flips one bit in the durable (and volatile) copy of `path` at
    /// `offset` — corruption at rest, for checksum tests.
    pub fn corrupt_at(&self, path: &Path, offset: usize) {
        let mut s = self.state.lock();
        let s = &mut *s;
        for layer in [&mut s.durable, &mut s.volatile] {
            if let Some(data) = layer.get_mut(path) {
                if offset < data.len() {
                    data[offset] ^= 0x10;
                }
            }
        }
    }

    /// Current durable size of `path` (None when absent).
    pub fn durable_len(&self, path: &Path) -> Option<usize> {
        self.state.lock().durable.get(path).map(Vec::len)
    }

    fn die(s: &mut FaultState) -> io::Error {
        s.crashed = true;
        // Adversarial writeback: every write that was never fsynced may
        // have partially reached the platter before power loss.
        let keys: Vec<PathBuf> = s.volatile.keys().cloned().collect();
        for path in keys {
            if s.durable.get(&path) == s.volatile.get(&path) {
                continue;
            }
            let h = splitmix(s.seed ^ s.ops ^ (path.as_os_str().len() as u64) << 17);
            let content = s.volatile[&path].clone();
            // A file whose volatile content *extends* its durable content
            // (append-mode history) can lose only the unsynced suffix:
            // fsynced bytes never un-write themselves. Overwritten files
            // keep the original fully-adversarial model.
            let floor = match s.durable.get(&path) {
                Some(d) if content.starts_with(d) => d.len(),
                _ => 0,
            };
            match h % 3 {
                0 => {} // nothing new reached disk
                1 => {
                    let cut = if content.is_empty() {
                        0
                    } else {
                        (h >> 8) as usize % content.len()
                    };
                    s.durable.insert(path, content[..cut.max(floor)].to_vec());
                }
                _ => {
                    s.durable.insert(path, content);
                }
            }
        }
        crashed_err()
    }

    /// Returns the fault to inject for this op, if armed and due.
    fn step(s: &mut FaultState) -> Result<Option<Fault>, io::Error> {
        if s.crashed {
            return Err(crashed_err());
        }
        let op = s.ops;
        s.ops += 1;
        match s.armed {
            Some((fault, at)) if op == at => {
                s.armed = None;
                graphbi_obs::global()
                    .counter("graphbi_vfs_faults_total")
                    .inc();
                Ok(Some(fault))
            }
            _ => Ok(None),
        }
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut s = self.state.lock();
        let fault = FaultVfs::step(&mut s)?;
        let mut data = s
            .volatile
            .get(path)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "faultvfs: no such file"))?;
        let h = splitmix(s.seed ^ s.ops.wrapping_mul(0x51ed));
        match fault {
            Some(Fault::ShortRead) if !data.is_empty() => {
                data.truncate(h as usize % data.len());
            }
            Some(Fault::BitFlip) if !data.is_empty() => {
                let i = h as usize % data.len();
                data[i] ^= 1 << ((h >> 32) % 8);
            }
            Some(Fault::Crash) => return Err(FaultVfs::die(&mut s)),
            _ => {}
        }
        Ok(data)
    }

    fn read_range(&self, path: &Path, off: u64, len: u64) -> io::Result<Vec<u8>> {
        let mut s = self.state.lock();
        let fault = FaultVfs::step(&mut s)?;
        let data = s
            .volatile
            .get(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "faultvfs: no such file"))?;
        let off = usize::try_from(off).expect("offset fits usize");
        let len = usize::try_from(len).expect("len fits usize");
        if off + len > data.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "faultvfs: read past end of file",
            ));
        }
        let mut out = data[off..off + len].to_vec();
        let h = splitmix(s.seed ^ s.ops.wrapping_mul(0x51ed));
        match fault {
            Some(Fault::ShortRead) if !out.is_empty() => {
                out.truncate(h as usize % out.len());
            }
            Some(Fault::BitFlip) if !out.is_empty() => {
                let i = h as usize % out.len();
                out[i] ^= 1 << ((h >> 32) % 8);
            }
            Some(Fault::Crash) => return Err(FaultVfs::die(&mut s)),
            _ => {}
        }
        Ok(out)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut s = self.state.lock();
        let fault = FaultVfs::step(&mut s)?;
        let h = splitmix(s.seed ^ s.ops.wrapping_mul(0xabcd));
        match fault {
            Some(Fault::TornWrite) => {
                let cut = if data.is_empty() {
                    0
                } else {
                    h as usize % data.len()
                };
                let torn = data[..cut].to_vec();
                s.volatile.insert(path.to_owned(), torn.clone());
                s.durable.insert(path.to_owned(), torn);
                s.crashed = true;
                Err(crashed_err())
            }
            Some(Fault::Enospc) => {
                let cut = if data.is_empty() {
                    0
                } else {
                    h as usize % data.len()
                };
                s.volatile.insert(path.to_owned(), data[..cut].to_vec());
                Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "faultvfs: no space left on device",
                ))
            }
            Some(Fault::Crash) => Err(FaultVfs::die(&mut s)),
            _ => {
                s.volatile.insert(path.to_owned(), data.to_vec());
                Ok(())
            }
        }
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut s = self.state.lock();
        let fault = FaultVfs::step(&mut s)?;
        let h = splitmix(s.seed ^ s.ops.wrapping_mul(0x0a99));
        let mut content = s.volatile.get(path).cloned().unwrap_or_default();
        match fault {
            Some(Fault::TornWrite) => {
                // Only the appended suffix can tear: the prior content is
                // untouched in the page cache, and `die` preserves any
                // fsynced prefix durably.
                let cut = if data.is_empty() {
                    0
                } else {
                    h as usize % data.len()
                };
                content.extend_from_slice(&data[..cut]);
                s.volatile.insert(path.to_owned(), content);
                Err(FaultVfs::die(&mut s))
            }
            Some(Fault::Enospc) => {
                let cut = if data.is_empty() {
                    0
                } else {
                    h as usize % data.len()
                };
                content.extend_from_slice(&data[..cut]);
                s.volatile.insert(path.to_owned(), content);
                Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "faultvfs: no space left on device",
                ))
            }
            Some(Fault::Crash) => Err(FaultVfs::die(&mut s)),
            _ => {
                content.extend_from_slice(data);
                s.volatile.insert(path.to_owned(), content);
                Ok(())
            }
        }
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        let fault = FaultVfs::step(&mut s)?;
        match fault {
            Some(Fault::LostFsync) => Ok(()), // the lie
            Some(Fault::Crash) => Err(FaultVfs::die(&mut s)),
            _ => {
                let Some(data) = s.volatile.get(path).cloned() else {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        "faultvfs: fsync of missing file",
                    ));
                };
                s.durable.insert(path.to_owned(), data);
                Ok(())
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        let fault = FaultVfs::step(&mut s)?;
        if matches!(fault, Some(Fault::Crash)) {
            return Err(FaultVfs::die(&mut s));
        }
        let Some(data) = s.volatile.remove(from) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "faultvfs: rename of missing file",
            ));
        };
        s.volatile.insert(to.to_owned(), data.clone());
        // Journaled-metadata semantics: the rename itself is durable and
        // atomic. If the source's data was fsynced, the destination
        // durably holds it; renaming unsynced data is the classic bug and
        // durably yields the old destination or a torn prefix.
        match s.durable.remove(from) {
            Some(durable) => {
                s.durable.insert(to.to_owned(), durable);
            }
            None => {
                let h = splitmix(s.seed ^ s.ops.wrapping_mul(0x7e57));
                if h.is_multiple_of(2) {
                    let cut = if data.is_empty() {
                        0
                    } else {
                        (h >> 8) as usize % data.len()
                    };
                    s.durable.insert(to.to_owned(), data[..cut].to_vec());
                }
                // else: the old durable destination (if any) survives.
            }
        }
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        let fault = FaultVfs::step(&mut s)?;
        if matches!(fault, Some(Fault::Crash)) {
            return Err(FaultVfs::die(&mut s));
        }
        s.volatile.remove(path);
        // Unlink durability is adversarial: without a directory fsync the
        // entry may resurrect after a crash. Recovery must tolerate both.
        let h = splitmix(s.seed ^ s.ops.wrapping_mul(0xdead));
        if h.is_multiple_of(2) {
            s.durable.remove(path);
        }
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let s = self.state.lock();
        if s.crashed {
            return Err(crashed_err());
        }
        Ok(s.volatile
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }

    fn exists(&self, path: &Path) -> bool {
        self.state.lock().volatile.contains_key(path)
    }

    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        let s = self.state.lock();
        if s.crashed {
            return Err(crashed_err());
        }
        Ok(())
    }

    fn fsync_dir(&self, _dir: &Path) -> io::Result<()> {
        let mut s = self.state.lock();
        match FaultVfs::step(&mut s)? {
            Some(Fault::Crash) => Err(FaultVfs::die(&mut s)),
            _ => Ok(()),
        }
    }
}

/// Shared handle alias used across the persistence layer.
pub type VfsHandle = Arc<dyn Vfs>;

/// The default [`OsVfs`] as a shared handle.
pub fn os_vfs() -> VfsHandle {
    Arc::new(OsVfs)
}

/// CRC32 (IEEE) — the checksum guarding every on-disk payload. One
/// implementation serves the whole workspace; it lives in `graphbi_obs`.
pub use graphbi_obs::crc32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faultvfs_round_trips_and_ranges() {
        let vfs = FaultVfs::new(1);
        let p = Path::new("/db/a.bin");
        vfs.write(p, b"hello world").unwrap();
        assert_eq!(vfs.read(p).unwrap(), b"hello world");
        assert_eq!(vfs.read_range(p, 6, 5).unwrap(), b"world");
        assert!(vfs.read_range(p, 8, 10).is_err());
        assert!(vfs.exists(p));
        assert!(!vfs.exists(Path::new("/db/b.bin")));
        assert_eq!(vfs.list(Path::new("/db")).unwrap(), vec![p.to_path_buf()]);
    }

    #[test]
    fn unsynced_writes_do_not_reliably_survive_reboot() {
        // Across seeds, at least one unsynced write must vanish or tear,
        // and at least one fsynced write must always survive.
        let mut lost = false;
        for seed in 0..16u64 {
            let vfs = FaultVfs::new(seed);
            let synced = Path::new("/d/synced");
            let unsynced = Path::new("/d/unsynced");
            vfs.write(synced, b"durable-data").unwrap();
            vfs.fsync(synced).unwrap();
            vfs.write(unsynced, b"volatile-data").unwrap();
            vfs.arm(Fault::Crash, vfs.op_count());
            assert!(vfs.read(synced).is_err(), "armed crash fires");
            vfs.reboot();
            assert_eq!(vfs.read(synced).unwrap(), b"durable-data");
            match vfs.read(unsynced) {
                Ok(data) if data == b"volatile-data" => {}
                _ => lost = true,
            }
        }
        assert!(lost, "no seed ever lost an unsynced write");
    }

    #[test]
    fn rename_of_synced_file_is_atomic_and_durable() {
        let vfs = FaultVfs::new(3);
        let tmp = Path::new("/d/m.tmp");
        let fin = Path::new("/d/m");
        vfs.write(fin, b"old").unwrap();
        vfs.fsync(fin).unwrap();
        vfs.write(tmp, b"new-content").unwrap();
        vfs.fsync(tmp).unwrap();
        vfs.rename(tmp, fin).unwrap();
        vfs.arm(Fault::Crash, vfs.op_count());
        let _ = vfs.read(fin);
        vfs.reboot();
        assert_eq!(vfs.read(fin).unwrap(), b"new-content");
        assert!(!vfs.exists(tmp));
    }

    #[test]
    fn rename_of_unsynced_file_can_tear() {
        let mut torn_or_old = false;
        for seed in 0..16u64 {
            let vfs = FaultVfs::new(seed);
            let tmp = Path::new("/d/m.tmp");
            let fin = Path::new("/d/m");
            vfs.write(fin, b"old").unwrap();
            vfs.fsync(fin).unwrap();
            vfs.write(tmp, b"new-content").unwrap();
            // Missing fsync before rename: the classic bug.
            vfs.rename(tmp, fin).unwrap();
            vfs.arm(Fault::Crash, vfs.op_count());
            let _ = vfs.read(fin);
            vfs.reboot();
            let after = vfs.read(fin).ok();
            if after.as_deref() != Some(b"new-content".as_slice()) {
                torn_or_old = true;
            }
        }
        assert!(torn_or_old, "renaming unsynced data never tore");
    }

    #[test]
    fn faults_fire_once_at_their_index() {
        let vfs = FaultVfs::new(9);
        let p = Path::new("/d/f");
        vfs.write(p, b"0123456789").unwrap();
        vfs.fsync(p).unwrap();
        let at = vfs.op_count();
        vfs.arm(Fault::BitFlip, at);
        let flipped = vfs.read(p).unwrap();
        assert_ne!(flipped, b"0123456789", "bit flip changed the data");
        assert_eq!(vfs.read(p).unwrap(), b"0123456789", "one-shot fault");

        vfs.arm(Fault::ShortRead, vfs.op_count());
        let short = vfs.read(p).unwrap();
        assert!(short.len() < 10, "short read returned a prefix");

        vfs.arm(Fault::Enospc, vfs.op_count());
        let err = vfs.write(p, b"xxxx").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn append_extends_and_round_trips() {
        let vfs = FaultVfs::new(21);
        let p = Path::new("/d/log");
        vfs.append(p, b"aaa").unwrap();
        vfs.append(p, b"bb").unwrap();
        assert_eq!(vfs.read(p).unwrap(), b"aaabb");
        vfs.fsync(p).unwrap();
        vfs.append(p, b"c").unwrap();
        assert_eq!(vfs.read(p).unwrap(), b"aaabbc");
    }

    #[test]
    fn fsynced_prefix_survives_torn_append_and_crash() {
        // Whatever the seed, a crash during (or after) an unsynced append
        // may lose or tear only the appended suffix — the fsynced prefix
        // is inviolable. This is the WAL's whole durability argument.
        let mut suffix_lost = false;
        for seed in 0..32u64 {
            let vfs = FaultVfs::new(seed);
            let p = Path::new("/d/wal");
            vfs.append(p, b"frame-one|").unwrap();
            vfs.fsync(p).unwrap();
            vfs.arm(Fault::TornWrite, vfs.op_count());
            assert!(vfs.append(p, b"frame-two|").is_err(), "torn append dies");
            vfs.reboot();
            let after = vfs.read(p).unwrap();
            assert!(
                after.starts_with(b"frame-one|"),
                "seed {seed}: fsynced prefix damaged: {:?}",
                String::from_utf8_lossy(&after)
            );
            assert!(after.len() <= b"frame-one|frame-two|".len());
            if after.len() < b"frame-one|frame-two|".len() {
                suffix_lost = true;
            }
        }
        assert!(suffix_lost, "no seed ever lost the unsynced suffix");
    }

    #[test]
    fn enospc_append_survives_with_torn_tail() {
        let vfs = FaultVfs::new(5);
        let p = Path::new("/d/wal");
        vfs.append(p, b"good").unwrap();
        vfs.fsync(p).unwrap();
        vfs.arm(Fault::Enospc, vfs.op_count());
        let err = vfs.append(p, b"overflow").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // Process survives; the volatile tail may be torn but the file is
        // still readable and repairable by a full rewrite.
        let now = vfs.read(p).unwrap();
        assert!(now.starts_with(b"good"));
        vfs.write(p, b"good").unwrap();
        vfs.fsync(p).unwrap();
        assert_eq!(vfs.read(p).unwrap(), b"good");
    }

    #[test]
    fn fork_isolates_state() {
        let vfs = FaultVfs::new(4);
        let p = Path::new("/d/f");
        vfs.write(p, b"base").unwrap();
        vfs.fsync(p).unwrap();
        let fork = vfs.fork();
        fork.write(p, b"forked").unwrap();
        assert_eq!(vfs.read(p).unwrap(), b"base");
        assert_eq!(fork.read(p).unwrap(), b"forked");
    }
}
