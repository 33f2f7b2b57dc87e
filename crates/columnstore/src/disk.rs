//! Disk-resident column access with an LRU column cache.
//!
//! The paper runs its experiments off a single HDD with cold caches —
//! "enabling processing of graph data that is orders of magnitude larger
//! than the available memory". [`DiskRelation`] reproduces that regime: the
//! relation stays on disk in the [`crate::persist`] layout, every bitmap or
//! measure column is fetched by an explicit ranged read when first needed,
//! and a byte-budgeted [`LruCache`] stands in for
//! the buffer pool. Under a cold cache, [`IoStats::disk_reads`] equals the
//! cost model's "columns fetched" — the paper's metric, made literal.
//!
//! All I/O goes through an injectable [`Vfs`]. File directories are parsed,
//! and every block read off disk is verified against the CRC32 stored in
//! its file's directory and decoded, by the same [`crate::persist`] code
//! the in-memory load uses — format v3 or read-only v2, each data file
//! declaring itself via its leading magic, so mixed-generation stores just
//! work. A flipped bit, short read, or truncated file surfaces as
//! [`StoreError::Corrupt`], never a panic or a silently wrong answer.
//! [`DiskRelation::open`] likewise validates the framed manifest and every
//! file directory of the live generation, so a store left partial by a
//! crash is reported as typed corruption.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphbi_bitmap::Bitmap;
use graphbi_graph::EdgeId;
use parking_lot::Mutex;

use crate::cache::LruCache;
use crate::column::SparseColumn;
use crate::iostats::IoStats;
use crate::persist::{
    corrupt, open_read_err, parse_views_directory, part_file_name, read_manifest,
    read_part_directory, read_sidecar_at, views_file_name, ColumnEntry, FormatVersion,
    ViewsDirectory,
};
use crate::vfs::{os_vfs, Verify, VfsHandle};
use crate::StoreError;

/// Cache key: which column of which kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum ColKey {
    /// An edge's presence bitmap `b_i`.
    EdgeBitmap(u32),
    /// An edge's full measure column `m_i` (bitmap + values).
    EdgeColumn(u32),
    /// A graph-view bitmap `b_v`.
    ViewBitmap(u32),
    /// An aggregate-view column `(m_p, b_p)`.
    AggColumn(u32),
}

/// Cached payload.
enum Payload {
    Bitmap(Bitmap),
    Column(SparseColumn),
}

impl Payload {
    fn bitmap(&self) -> &Bitmap {
        match self {
            Payload::Bitmap(b) => b,
            Payload::Column(c) => c.presence(),
        }
    }

    fn column(&self) -> &SparseColumn {
        match self {
            Payload::Column(c) => c,
            Payload::Bitmap(_) => unreachable!("bitmap payload used as column"),
        }
    }
}

/// A shared handle to a fetched bitmap. Clones share the payload, keeping it
/// alive across cache evictions — batch executors hold one handle per
/// distinct column instead of re-fetching per query.
#[derive(Clone)]
pub struct BitmapRef(Arc<Payload>);

impl std::ops::Deref for BitmapRef {
    type Target = Bitmap;
    fn deref(&self) -> &Bitmap {
        self.0.bitmap()
    }
}

/// A shared handle to a fetched measure column (see [`BitmapRef`] on
/// cloning).
#[derive(Clone)]
pub struct ColumnRef(Arc<Payload>);

impl std::ops::Deref for ColumnRef {
    type Target = SparseColumn;
    fn deref(&self) -> &SparseColumn {
        self.0.column()
    }
}

/// The master relation, resident on disk.
pub struct DiskRelation {
    dir: PathBuf,
    vfs: VfsHandle,
    verify: Verify,
    generation: u64,
    format_version: FormatVersion,
    record_count: u64,
    edge_count: usize,
    partition_width: usize,
    /// Directory entry of every edge column, in edge order; edge `e` lives
    /// in partition file `e / partition_width`.
    columns: Vec<ColumnEntry>,
    /// The views file's directory.
    views: ViewsDirectory,
    cache: Mutex<LruCache<ColKey, Payload>>,
}

impl DiskRelation {
    /// Opens a relation directory written by [`crate::persist::save`]
    /// through the OS filesystem, verifying checksums.
    pub fn open(dir: &Path, cache_bytes: usize) -> Result<DiskRelation, StoreError> {
        DiskRelation::open_with(dir, cache_bytes, os_vfs(), Verify::Checksums)
    }

    /// Opens a relation through `vfs`, reading only the manifest and the
    /// file directories (headers); column data stays on disk until
    /// fetched. `cache_bytes` bounds the column cache, charged in
    /// compressed on-disk bytes (what a re-fetch would read). Partial or
    /// damaged state — a missing generation file, truncated directory, or
    /// checksum mismatch — is reported as [`StoreError::Corrupt`].
    /// `verify` governs payload CRCs on later fetches
    /// ([`Verify::TrustDisk`] is the fuzzer's teeth-test hook); the
    /// manifest and directory checksums are verified regardless.
    pub fn open_with(
        dir: &Path,
        cache_bytes: usize,
        vfs: VfsHandle,
        verify: Verify,
    ) -> Result<DiskRelation, StoreError> {
        let manifest = read_manifest(vfs.as_ref(), dir)?;
        let mut columns = Vec::with_capacity(manifest.edge_count);
        for p in 0..manifest.part_count() {
            let path = dir.join(part_file_name(manifest.generation, p));
            columns.extend(read_part_directory(
                &path,
                manifest.edge_count - columns.len(),
                |off, len| read_exact_range(&vfs, &path, off, len),
            )?);
        }
        if columns.len() != manifest.edge_count {
            return Err(StoreError::Format("column count mismatch"));
        }

        let views_path = dir.join(views_file_name(manifest.generation));
        let views_bytes = vfs
            .read(&views_path)
            .map_err(|e| open_read_err(&views_path, e))?;
        let views = parse_views_directory(&views_path, &views_bytes)?;

        Ok(DiskRelation {
            dir: dir.to_owned(),
            vfs,
            verify,
            generation: manifest.generation,
            format_version: manifest.version,
            record_count: manifest.record_count,
            edge_count: manifest.edge_count,
            partition_width: manifest.partition_width,
            columns,
            views,
            cache: Mutex::new(LruCache::new(cache_bytes)),
        })
    }

    /// Number of records.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Number of edge columns.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The live generation this handle reads from.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The on-disk format the live generation's manifest declares. Data
    /// files still self-describe; this is what the *writer* of the live
    /// generation emitted.
    pub fn format_version(&self) -> FormatVersion {
        self.format_version
    }

    /// Number of materialized graph views on disk.
    pub fn view_count(&self) -> usize {
        self.views.views.len()
    }

    /// Number of materialized aggregate views on disk.
    pub fn agg_view_count(&self) -> usize {
        self.views.aggs.len()
    }

    /// Sub-relation of `edge`.
    pub fn partition_of(&self, edge: EdgeId) -> usize {
        edge.index() / self.partition_width
    }

    /// Selectivity hint for a graph-view bitmap: its encoded byte length
    /// from the view directory. Compressed bitmap encodings grow with
    /// cardinality, so ranking by encoded length orders views
    /// (approximately) sparsest-first — metadata-only, no I/O, no stats.
    pub fn view_bitmap_hint(&self, view: u32) -> u64 {
        self.views.views[view as usize].len
    }

    /// `(cache hits, cache misses)` so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.lock().stats()
    }

    /// Cache evictions so far (entries dropped to make room).
    pub fn cache_evictions(&self) -> u64 {
        self.cache.lock().evictions()
    }

    /// Empties the buffer pool — the "cold system" of the paper's runs.
    pub fn clear_cache(&self) {
        self.cache.lock().clear();
    }

    /// Reads and verifies the sidecar blob `name` saved with this
    /// generation (see [`crate::persist::save_with`]).
    pub fn sidecar(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        read_sidecar_at(self.vfs.as_ref(), &self.dir, self.generation, name)
    }

    /// Cache fill: `load` returns the decoded payload *and the on-disk
    /// byte count it read*, and the cache is charged the latter. Budgeting
    /// the buffer pool in compressed (actual) bytes keeps eviction
    /// decisions and [`IoStats::disk_bytes`] consistent: a column's cache
    /// cost equals the disk read its eviction would re-incur.
    fn fetch(
        &self,
        key: ColKey,
        stats: &mut IoStats,
        load: impl FnOnce(&Self, &mut IoStats) -> Result<(Payload, u64), StoreError>,
    ) -> Result<Arc<Payload>, StoreError> {
        if let Some(hit) = self.cache.lock().get(&key) {
            return Ok(hit);
        }
        let (payload, disk_len) = load(self, stats)?;
        let size = usize::try_from(disk_len).unwrap_or(usize::MAX);
        Ok(self.cache.lock().insert(key, payload, size))
    }

    /// One counted physical read of `len` bytes at `off` in `path`.
    fn read(
        &self,
        path: &Path,
        off: u64,
        len: u64,
        stats: &mut IoStats,
    ) -> Result<Vec<u8>, StoreError> {
        let bytes = read_exact_range(&self.vfs, path, off, len)?;
        stats.disk_reads += 1;
        stats.disk_bytes += len;
        Ok(bytes)
    }

    /// The partition file holding `edge`, and its directory entry.
    fn column(&self, edge: EdgeId) -> (PathBuf, ColumnEntry) {
        let path = self
            .dir
            .join(part_file_name(self.generation, self.partition_of(edge)));
        (path, self.columns[edge.index()])
    }

    /// Fetches the bitmap column `b_edge` (bitmap block only — the measures
    /// stay on disk).
    pub fn edge_bitmap(&self, edge: EdgeId, stats: &mut IoStats) -> Result<BitmapRef, StoreError> {
        stats.bitmap_columns += 1;
        let payload = self.fetch(ColKey::EdgeBitmap(edge.0), stats, move |this, stats| {
            let (path, entry) = this.column(edge);
            let bytes = this.read(&path, entry.offset, entry.bitmap_len, stats)?;
            let bitmap = entry.decode_bitmap(&path, &bytes, this.verify)?;
            Ok((Payload::Bitmap(bitmap), entry.bitmap_len))
        })?;
        Ok(BitmapRef(payload))
    }

    /// Fetches the measure column `m_edge` (bitmap + values, one contiguous
    /// read).
    pub fn edge_measures(
        &self,
        edge: EdgeId,
        stats: &mut IoStats,
    ) -> Result<ColumnRef, StoreError> {
        stats.measure_columns += 1;
        let payload = self.fetch(ColKey::EdgeColumn(edge.0), stats, move |this, stats| {
            let (path, entry) = this.column(edge);
            let len = entry.column_len();
            let bytes = this.read(&path, entry.offset, len, stats)?;
            let column = entry.decode_column(&path, &bytes, this.verify)?;
            Ok((Payload::Column(column), len))
        })?;
        Ok(ColumnRef(payload))
    }

    /// Fetches a graph-view bitmap.
    pub fn view_bitmap(&self, view: u32, stats: &mut IoStats) -> Result<BitmapRef, StoreError> {
        stats.view_bitmap_columns += 1;
        let i = view as usize;
        let payload = self.fetch(ColKey::ViewBitmap(view), stats, move |this, stats| {
            let path = this.dir.join(views_file_name(this.generation));
            let entry = this.views.views[i];
            let bytes = this.read(&path, entry.offset, entry.len, stats)?;
            let bitmap = this.views.decode_view(&path, i, &bytes, this.verify)?;
            Ok((Payload::Bitmap(bitmap), entry.len))
        })?;
        Ok(BitmapRef(payload))
    }

    /// Fetches an aggregate-view column.
    pub fn agg_view(&self, view: u32, stats: &mut IoStats) -> Result<ColumnRef, StoreError> {
        stats.agg_view_columns += 1;
        let i = view as usize;
        let payload = self.fetch(ColKey::AggColumn(view), stats, move |this, stats| {
            let path = this.dir.join(views_file_name(this.generation));
            let entry = this.views.aggs[i];
            let bytes = this.read(&path, entry.offset, entry.len, stats)?;
            let column = this.views.decode_agg(&path, i, &bytes, this.verify)?;
            Ok((Payload::Column(column), entry.len))
        })?;
        Ok(ColumnRef(payload))
    }
}

/// Ranged read with an exact-length contract: a short result (a truncated
/// file, or an injected short read) is corruption, not data.
fn read_exact_range(
    vfs: &VfsHandle,
    path: &Path,
    off: u64,
    len: u64,
) -> Result<Vec<u8>, StoreError> {
    let bytes = vfs
        .read_range(path, off, len)
        .map_err(|e| open_read_err(path, e))?;
    if bytes.len() as u64 != len {
        return Err(corrupt(path, "short read"));
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist;
    use crate::relation::RelationBuilder;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("graphbi-disk-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn build_and_save(dir: &Path) -> crate::MasterRelation {
        let mut b = RelationBuilder::new(20);
        for r in 0..500u32 {
            let edges: Vec<(EdgeId, f64)> = (0..20u32)
                .filter(|e| (r + e) % 3 == 0)
                .map(|e| (EdgeId(e), f64::from(r * 100 + e)))
                .collect();
            b.add_record(&edges);
        }
        let mut rel = b.finish_with_width(8); // 3 partitions
        rel.add_view_bitmap((0..100u32).collect());
        let mut cb = crate::ColumnBuilder::new();
        cb.push(3, 1.5);
        cb.push(9, 2.5);
        rel.add_agg_view(cb.finish());
        persist::save(&rel, dir).unwrap();
        rel
    }

    #[test]
    fn disk_columns_match_memory_columns() {
        let dir = tmpdir("match");
        let rel = build_and_save(&dir);
        let disk = DiskRelation::open(&dir, 1 << 20).unwrap();
        assert_eq!(disk.record_count(), rel.record_count());
        assert_eq!(disk.edge_count(), 20);
        let mut s1 = IoStats::new();
        let mut s2 = IoStats::new();
        for e in 0..20u32 {
            let dcol = disk.edge_measures(EdgeId(e), &mut s1).unwrap();
            let mcol = rel.edge_measures(EdgeId(e), &mut s2);
            assert_eq!(&*dcol, mcol, "edge {e}");
            let dbm = disk.edge_bitmap(EdgeId(e), &mut s1).unwrap();
            assert_eq!(&*dbm, mcol.presence());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn views_round_trip_from_disk() {
        let dir = tmpdir("views");
        let _ = build_and_save(&dir);
        let disk = DiskRelation::open(&dir, 1 << 20).unwrap();
        assert_eq!(disk.view_count(), 1);
        assert_eq!(disk.agg_view_count(), 1);
        let mut s = IoStats::new();
        let vb = disk.view_bitmap(0, &mut s).unwrap();
        assert_eq!(vb.len(), 100);
        let av = disk.agg_view(0, &mut s).unwrap();
        assert_eq!(av.get(3), Some(1.5));
        assert_eq!(av.get(9), Some(2.5));
        assert_eq!(s.disk_reads, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_turns_rereads_into_hits() {
        let dir = tmpdir("cache");
        let _ = build_and_save(&dir);
        let disk = DiskRelation::open(&dir, 1 << 20).unwrap();
        let mut s = IoStats::new();
        let _ = disk.edge_bitmap(EdgeId(5), &mut s).unwrap();
        assert_eq!(s.disk_reads, 1);
        let _ = disk.edge_bitmap(EdgeId(5), &mut s).unwrap();
        assert_eq!(s.disk_reads, 1, "second fetch is a cache hit");
        assert_eq!(s.bitmap_columns, 2, "model cost still counts both");
        let (hits, misses) = disk.cache_stats();
        assert_eq!((hits, misses), (1, 1));
        disk.clear_cache();
        let _ = disk.edge_bitmap(EdgeId(5), &mut s).unwrap();
        assert_eq!(s.disk_reads, 2, "cold cache reads again");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiny_cache_still_answers_correctly() {
        let dir = tmpdir("tiny");
        let rel = build_and_save(&dir);
        let disk = DiskRelation::open(&dir, 64).unwrap(); // nothing fits
        let mut s = IoStats::new();
        for e in [0u32, 7, 13, 0, 7] {
            let dcol = disk.edge_measures(EdgeId(e), &mut s).unwrap();
            let mut scratch = IoStats::new();
            assert_eq!(&*dcol, rel.edge_measures(EdgeId(e), &mut scratch));
        }
        assert_eq!(s.disk_reads, 5, "no caching possible");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_missing_or_corrupt() {
        let dir = tmpdir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(DiskRelation::open(&dir, 1024).is_err());
        std::fs::write(dir.join("manifest.gbi"), b"garbage-manifest-data").unwrap();
        let Err(err) = DiskRelation::open(&dir, 1024) else {
            panic!("garbage manifest opened")
        };
        assert!(err.is_corruption(), "typed corruption, got {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The acceptance-criteria test: one flipped byte on disk surfaces as
    /// `StoreError::Corrupt` under checksum verification, while the same
    /// flip under `Verify::TrustDisk` silently yields a *wrong answer* —
    /// exactly what the CRCs exist to prevent.
    #[test]
    fn flipped_byte_is_corrupt_never_a_wrong_answer() {
        let dir = tmpdir("bitflip");
        let rel = build_and_save(&dir);
        let edge = EdgeId(2);

        // Locate the values block of `edge` via a clean open, then flip one
        // byte in the middle of it on the real filesystem.
        let probe = DiskRelation::open(&dir, 1 << 20).unwrap();
        let (path, entry) = probe.column(edge);
        let mut raw = std::fs::read(&path).unwrap();
        let target = usize::try_from(entry.offset + entry.bitmap_len).unwrap() + 1;
        raw[target] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();

        let checked = DiskRelation::open(&dir, 1 << 20).unwrap();
        let mut s = IoStats::new();
        let Err(err) = checked.edge_measures(edge, &mut s) else {
            panic!("flipped byte fetched cleanly")
        };
        assert!(
            matches!(err, StoreError::Corrupt { .. }),
            "expected Corrupt, got {err}"
        );
        // The bitmap block is untouched, so the bitmap fetch still verifies.
        assert!(checked.edge_bitmap(edge, &mut s).is_ok());

        let trusting = DiskRelation::open_with(&dir, 1 << 20, os_vfs(), Verify::TrustDisk).unwrap();
        let dcol = trusting.edge_measures(edge, &mut s).unwrap();
        let mut scratch = IoStats::new();
        assert_ne!(
            &*dcol,
            rel.edge_measures(edge, &mut scratch),
            "without verification the flip silently changes an answer"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_part_file_is_typed_corruption() {
        let dir = tmpdir("truncated");
        let _ = build_and_save(&dir);
        let probe = DiskRelation::open(&dir, 1 << 20).unwrap();
        let path = dir.join(part_file_name(probe.generation(), 0));
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        // Either the directory parse or the first fetch must report
        // corruption; nothing may panic.
        match DiskRelation::open(&dir, 1 << 20) {
            Err(e) => assert!(e.is_corruption(), "typed corruption, got {e}"),
            Ok(disk) => {
                let mut s = IoStats::new();
                let mut saw_corrupt = false;
                for e in 0..8u32 {
                    if let Err(err) = disk.edge_measures(EdgeId(e), &mut s) {
                        assert!(err.is_corruption(), "typed corruption, got {err}");
                        saw_corrupt = true;
                    }
                }
                assert!(saw_corrupt, "truncation went unnoticed");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
