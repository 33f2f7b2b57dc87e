//! A disk store whose reads can be made to stall, for tests that need a
//! request to hold its admission permit for a known time.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use graphbi::{GraphStore, MvccStore};
use graphbi_columnstore::{OsVfs, Verify, Vfs};

/// [`OsVfs`] that sleeps before every `read` and `read_range` once armed.
#[derive(Default)]
pub struct StallVfs {
    stall_ms: AtomicU64,
}

impl StallVfs {
    fn stall(&self) {
        let ms = self.stall_ms.load(Ordering::SeqCst);
        if ms > 0 {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
}

impl Vfs for StallVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.stall();
        OsVfs.read(path)
    }
    fn read_range(&self, path: &Path, off: u64, len: u64) -> io::Result<Vec<u8>> {
        self.stall();
        OsVfs.read_range(path, off, len)
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        OsVfs.write(path, data)
    }
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        OsVfs.append(path, data)
    }
    fn fsync(&self, path: &Path) -> io::Result<()> {
        OsVfs.fsync(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        OsVfs.rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        OsVfs.remove(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        OsVfs.list(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        OsVfs.exists(path)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        OsVfs.create_dir_all(dir)
    }
    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        OsVfs.fsync_dir(dir)
    }
}

/// `store` saved to a fresh temporary directory and reopened as a disk
/// MVCC store with a one-byte column cache, so every column a request
/// touches is read through the [`StallVfs`]. The directory is removed on
/// drop.
pub struct StallStore {
    pub store: Arc<MvccStore>,
    vfs: Arc<StallVfs>,
    dir: PathBuf,
}

impl StallStore {
    pub fn new(name: &str, store: &GraphStore) -> StallStore {
        let dir = std::env::temp_dir().join(format!("graphbi-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let vfs = Arc::new(StallVfs::default());
        graphbi::disk::save_store_with(vfs.as_ref(), store, &dir).expect("save store");
        let store =
            MvccStore::open_disk(&dir, 1, vfs.clone(), Verify::Checksums).expect("open disk store");
        StallStore {
            store: Arc::new(store),
            vfs,
            dir,
        }
    }

    /// Makes every later read sleep for `delay` first.
    pub fn stall_reads(&self, delay: Duration) {
        let ms = u64::try_from(delay.as_millis()).expect("delay fits in u64 ms");
        self.vfs.stall_ms.store(ms, Ordering::SeqCst);
    }
}

impl Drop for StallStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
