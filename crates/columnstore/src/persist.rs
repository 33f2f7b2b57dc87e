//! Crash-safe on-disk layout of a master relation: format v3 is written,
//! format v2 is read.
//!
//! One directory per relation:
//!
//! ```text
//! manifest.gbi                 framed commit pointer (magic, length, CRC)
//! gNNNNNNNNNNNN-part_NNNN.gbi  the columns of one vertical sub-relation
//! gNNNNNNNNNNNN-views.gbi      graph-view bitmaps + aggregate-view columns
//! gNNNNNNNNNNNN-<name>         caller-provided sidecar blobs (framed)
//! ```
//!
//! Crash safety rests on two rules:
//!
//! * **Data files are immutable and generation-named.** A save writes a
//!   complete new generation of files next to the live one and never
//!   rewrites existing bytes; a crash mid-save leaves the previous
//!   generation untouched.
//! * **The manifest is the atomic commit point.** It is written to a temp
//!   file, fsynced, and renamed over `manifest.gbi`. Before the rename the
//!   store *is* the old generation; after it, the new one. Old-generation
//!   files are garbage-collected only after the rename (and re-collected
//!   by the next save if a crash interrupts collection).
//!
//! Every payload is guarded by a CRC32 ([`crate::vfs::crc32`]): each
//! column's bitmap and value blocks carry checksums in the partition
//! directory, each view block in the views directory, the directories and
//! the manifest payload are themselves checksummed, and sidecars are
//! framed with magic + length + CRC. A flipped bit anywhere surfaces as
//! [`StoreError::Corrupt`] on read — never a panic or a silently wrong
//! answer.
//!
//! ```text
//! manifest  := MANIFEST_MAGIC u32, payload_len u32, payload, crc32(payload)
//! payload   := version u32 (2 or 3), generation u64, record_count u64,
//!              edge_count u32, partition_width u32
//! sidecar   := SIDECAR_MAGIC u32, len u32, crc u32, payload
//!
//! v3 part   := PART_MAGIC_V3 u32, ncols u32, wb u8, wv u8,
//!              ncols × wb-bit packed bitmap lengths,
//!              ncols × wv-bit packed values lengths,
//!              (bitmap_crc u32, values_crc u32) × ncols,
//!              dir_crc u32, then per column: bitmap bytes, value bytes
//! v3 views  := VIEWS_MAGIC_V3 u32, then the v2 views layout
//!
//! v2 part   := ncols u32,
//!              (bitmap_len u64, values_len u64,
//!               bitmap_crc u32, values_crc u32) × ncols,
//!              dir_crc u32, then per column: bitmap bytes, value bytes
//! v2 views  := nviews u32, (len u64, crc u32) × nviews,
//!              naggs u32, (len u64, crc u32) × naggs,
//!              dir_crc u32, then the view payloads, then the agg payloads
//! ```
//!
//! The writer emits v3 only: bitmaps use the v3 container codecs
//! (Elias-Fano, gamma runs, frame-of-reference), value blocks carry a codec
//! tag (raw or dictionary + packed indices), and the part directory's block
//! lengths are frame-of-reference bit-packed. v2 (raw payloads) is
//! read-only. Every data file is self-describing via its leading magic, and
//! this module is the one place that parses it: `read_part_directory`
//! turns either part layout into [`ColumnEntry`]s, whose decoders serve the
//! in-memory [`load`] and the disk-resident [`crate::DiskRelation`] alike —
//! so v2 stores, and mixed generations (a v2 base pinned by a snapshot
//! while compaction publishes v3), load unchanged.

use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use graphbi_bitmap::intcodec::PackedInts;
use graphbi_bitmap::Bitmap;

use crate::column::SparseColumn;
use crate::relation::MasterRelation;
use crate::vfs::{crc32, OsVfs, Verify, Vfs};
use crate::StoreError;

pub(crate) const MANIFEST_MAGIC: u32 = 0x4742_5232; // "GBR2"
pub(crate) const SIDECAR_MAGIC: u32 = 0x4742_5344; // "GBSD"
/// Leading magic of a v3 partition file. A v2 part file starts with its
/// column count, which the directory parser bounds against the manifest's
/// edge count — the collision would need a relation of 1.19 billion edge
/// columns.
const PART_MAGIC_V3: u32 = 0x4742_5033; // "GBP3"
/// Leading magic of a v3 views file (v2 starts with the view count).
const VIEWS_MAGIC_V3: u32 = 0x4742_5633; // "GBV3"

/// The on-disk format of a stored generation, as its manifest records it.
/// Only [`FormatVersion::V3`] is written; readers accept both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FormatVersion {
    /// Raw container and value payloads — the legacy format, read-only.
    V2,
    /// Compressed payloads: v3 bitmap containers, codec-tagged value
    /// blocks, bit-packed part directories. What every save writes.
    #[default]
    V3,
}

/// The manifest file name — the store's atomic commit pointer.
pub const MANIFEST_FILE: &str = "manifest.gbi";
const MANIFEST_TMP: &str = "manifest.gbi.tmp";

/// Bytes of one v2 partition-directory entry (two lengths, two CRCs).
const PART_DIR_ENTRY: usize = 24;
/// Bytes of one views-directory entry (length + CRC).
const VIEW_DIR_ENTRY: usize = 12;

// ---------------------------------------------------------------------------
// Generation-scoped file names.

pub(crate) fn part_file_name(generation: u64, p: usize) -> String {
    format!("g{generation:012}-part_{p:04}.gbi")
}

pub(crate) fn views_file_name(generation: u64) -> String {
    format!("g{generation:012}-views.gbi")
}

pub(crate) fn sidecar_file_name(generation: u64, name: &str) -> String {
    format!("g{generation:012}-{name}")
}

/// Parses the generation prefix of a data-file name (`g{gen:012}-…`).
pub(crate) fn parse_generation(name: &str) -> Option<u64> {
    let rest = name.strip_prefix('g')?;
    let (digits, rest) = rest.split_at_checked(12)?;
    if !rest.starts_with('-') {
        return None;
    }
    digits.parse().ok()
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

pub(crate) fn corrupt(path: &Path, what: &'static str) -> StoreError {
    StoreError::Corrupt {
        file: file_name(path),
        what,
    }
}

/// Maps I/O failures while reading a file the manifest points at: a
/// missing or truncated generation file is partial state, not an
/// environmental error.
pub(crate) fn open_read_err(path: &Path, e: std::io::Error) -> StoreError {
    match e.kind() {
        std::io::ErrorKind::NotFound => corrupt(path, "generation file missing"),
        std::io::ErrorKind::UnexpectedEof => corrupt(path, "generation file truncated"),
        _ => StoreError::Io(e),
    }
}

// ---------------------------------------------------------------------------
// Manifest.

/// Decoded manifest: which generation is live, and the relation's shape.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Manifest {
    pub version: FormatVersion,
    pub generation: u64,
    pub record_count: u64,
    pub edge_count: usize,
    pub partition_width: usize,
}

impl Manifest {
    /// Partition files of the generation (at least one, even when empty).
    pub fn part_count(&self) -> usize {
        self.edge_count.div_ceil(self.partition_width).max(1)
    }
}

const MANIFEST_PAYLOAD_LEN: usize = 28;

fn encode_manifest(generation: u64, relation: &MasterRelation) -> Bytes {
    let mut payload = BytesMut::with_capacity(MANIFEST_PAYLOAD_LEN);
    payload.put_u32_le(3); // FormatVersion::V3
    payload.put_u64_le(generation);
    payload.put_u64_le(relation.record_count());
    payload.put_u32_le(u32::try_from(relation.edge_count()).expect("edge count fits u32"));
    payload
        .put_u32_le(u32::try_from(relation.partition_width()).expect("partition width fits u32"));
    let mut out = BytesMut::with_capacity(12 + MANIFEST_PAYLOAD_LEN);
    out.put_u32_le(MANIFEST_MAGIC);
    out.put_u32_le(MANIFEST_PAYLOAD_LEN as u32);
    out.put_u32_le(crc32(&payload));
    out.put_slice(&payload);
    out.freeze()
}

/// Reads and fully verifies the manifest. The manifest CRC is *always*
/// checked regardless of [`Verify`]: it is 28 bytes, and everything else
/// hangs off the generation it names.
pub(crate) fn read_manifest(vfs: &dyn Vfs, dir: &Path) -> Result<Manifest, StoreError> {
    let path = dir.join(MANIFEST_FILE);
    let bytes = vfs.read(&path).map_err(StoreError::Io)?;
    let mut m = Bytes::from(bytes);
    if m.remaining() < 12 {
        return Err(corrupt(&path, "manifest frame truncated"));
    }
    if m.get_u32_le() != MANIFEST_MAGIC {
        return Err(corrupt(&path, "bad manifest magic"));
    }
    let payload_len = m.get_u32_le() as usize;
    let stored_crc = m.get_u32_le();
    if payload_len != MANIFEST_PAYLOAD_LEN || m.remaining() < payload_len {
        return Err(corrupt(&path, "manifest payload truncated"));
    }
    let payload = m.copy_to_bytes(payload_len);
    if crc32(&payload) != stored_crc {
        return Err(corrupt(&path, "manifest checksum mismatch"));
    }
    let mut p = payload;
    let version = match p.get_u32_le() {
        2 => FormatVersion::V2,
        3 => FormatVersion::V3,
        _ => return Err(corrupt(&path, "unsupported format version")),
    };
    let generation = p.get_u64_le();
    let record_count = p.get_u64_le();
    let edge_count = p.get_u32_le() as usize;
    let partition_width = p.get_u32_le() as usize;
    if partition_width == 0 {
        return Err(corrupt(&path, "zero partition width"));
    }
    Ok(Manifest {
        version,
        generation,
        record_count,
        edge_count,
        partition_width,
    })
}

// ---------------------------------------------------------------------------
// Save.

/// Writes `relation` under `dir` through the OS filesystem. Returns the
/// total bytes written — the relation's disk footprint.
pub fn save(relation: &MasterRelation, dir: &Path) -> Result<u64, StoreError> {
    save_with(&OsVfs, relation, &[], dir, &[])
}

/// Writes `relation` (plus caller-provided `sidecars`, each a named blob
/// published atomically with the relation) under `dir` through `vfs`.
///
/// The save is crash-safe: data files of a fresh generation are written
/// and fsynced first, then the manifest is committed via temp file +
/// fsync + atomic rename. A crash at any operation leaves the store
/// openable as either the complete old state or the complete new state.
///
/// The trailing garbage collection spares the generations listed in
/// `keep`: MVCC compaction passes the generations still pinned by live
/// snapshots, reclaimed by a later [`collect_garbage_keeping`] once
/// unpinned.
pub fn save_with(
    vfs: &dyn Vfs,
    relation: &MasterRelation,
    sidecars: &[(&str, &[u8])],
    dir: &Path,
    keep: &[u64],
) -> Result<u64, StoreError> {
    vfs.create_dir_all(dir)?;
    let generation = next_generation(vfs, dir);
    let mut total = 0u64;

    let width = relation.partition_width();
    let mut nparts = 0usize;
    for (p, chunk) in relation.columns().chunks(width).enumerate() {
        total += write_durable(
            vfs,
            &dir.join(part_file_name(generation, p)),
            &encode_part(chunk),
        )?;
        nparts += 1;
    }
    if nparts == 0 {
        // Keep at least one (empty) partition file so open() has a fixpoint.
        total += write_durable(
            vfs,
            &dir.join(part_file_name(generation, 0)),
            &encode_part(&[]),
        )?;
    }

    let (view_bitmaps, agg_views) = relation.views_parts();
    total += write_durable(
        vfs,
        &dir.join(views_file_name(generation)),
        &encode_views(view_bitmaps, agg_views),
    )?;

    for (name, payload) in sidecars {
        total += write_durable(
            vfs,
            &dir.join(sidecar_file_name(generation, name)),
            &frame_sidecar(payload),
        )?;
    }

    // Atomic publish: every data byte above is durable before the manifest
    // can name it.
    let tmp = dir.join(MANIFEST_TMP);
    total += write_durable(vfs, &tmp, &encode_manifest(generation, relation))?;
    vfs.rename(&tmp, &dir.join(MANIFEST_FILE))?;
    vfs.fsync_dir(dir)?;

    collect_garbage(vfs, dir, generation, keep)?;
    Ok(total)
}

fn write_durable(vfs: &dyn Vfs, path: &Path, bytes: &Bytes) -> Result<u64, StoreError> {
    vfs.write(path, bytes)?;
    vfs.fsync(path)?;
    Ok(bytes.len() as u64)
}

/// One past the newest generation visible in the directory — from the
/// manifest if it parses, and from leftover file names either way (so a
/// crashed save's orphans are never name-collided with).
fn next_generation(vfs: &dyn Vfs, dir: &Path) -> u64 {
    let mut max = 0u64;
    if let Ok(m) = read_manifest(vfs, dir) {
        max = m.generation;
    }
    if let Ok(files) = vfs.list(dir) {
        for f in files {
            if let Some(g) = f
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(parse_generation)
            {
                max = max.max(g);
            }
        }
    }
    max + 1
}

/// Removes every generation-named file that is neither part of `live` nor
/// listed in `keep`, plus any leftover manifest temp file. Runs only after
/// the manifest rename; a crash here strands garbage the next save
/// re-collects.
fn collect_garbage(vfs: &dyn Vfs, dir: &Path, live: u64, keep: &[u64]) -> Result<(), StoreError> {
    for f in vfs.list(dir)? {
        let Some(name) = f.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name == MANIFEST_TMP {
            vfs.remove(&f)?;
            continue;
        }
        if let Some(g) = parse_generation(name) {
            if g != live && !keep.contains(&g) {
                vfs.remove(&f)?;
            }
        }
    }
    Ok(())
}

/// The generation the manifest currently names — what a fresh open would
/// read. Errors are the manifest's own (missing, torn, corrupt).
pub fn live_generation(vfs: &dyn Vfs, dir: &Path) -> Result<u64, StoreError> {
    read_manifest(vfs, dir).map(|m| m.generation)
}

/// Standalone sweep of superseded generations, sparing `keep` — the MVCC
/// store calls this when the last snapshot pinning an old generation is
/// dropped. The live generation is re-read from the manifest so a
/// concurrent publish can never have its own files collected.
pub fn collect_garbage_keeping(vfs: &dyn Vfs, dir: &Path, keep: &[u64]) -> Result<(), StoreError> {
    let live = live_generation(vfs, dir)?;
    collect_garbage(vfs, dir, live, keep)
}

fn encode_part(chunk: &[SparseColumn]) -> Bytes {
    let blocks: Vec<(Bytes, Bytes)> = chunk
        .iter()
        .map(|c| (c.presence().encode_v3(), c.encode_values_v3()))
        .collect();
    let n = blocks.len();
    let blens: Vec<u64> = blocks.iter().map(|(b, _)| b.len() as u64).collect();
    let vlens: Vec<u64> = blocks.iter().map(|(_, v)| v.len() as u64).collect();
    let wb = PackedInts::width_for(blens.iter().copied().max().unwrap_or(0));
    let wv = PackedInts::width_for(vlens.iter().copied().max().unwrap_or(0));
    let mut buf = BytesMut::new();
    buf.put_u32_le(PART_MAGIC_V3);
    buf.put_u32_le(u32::try_from(n).expect("chunk fits u32"));
    buf.put_u8(wb as u8);
    buf.put_u8(wv as u8);
    buf.put_slice(PackedInts::pack(&blens, wb).as_bytes());
    buf.put_slice(PackedInts::pack(&vlens, wv).as_bytes());
    for (b, v) in &blocks {
        buf.put_u32_le(crc32(b));
        buf.put_u32_le(crc32(v));
    }
    let dir_crc = crc32(&buf);
    buf.put_u32_le(dir_crc);
    for (b, v) in &blocks {
        buf.put_slice(b);
        buf.put_slice(v);
    }
    buf.freeze()
}

fn encode_views(view_bitmaps: &[Bitmap], agg_views: &[SparseColumn]) -> Bytes {
    let vb: Vec<Bytes> = view_bitmaps.iter().map(Bitmap::encode_v3).collect();
    let ab: Vec<Bytes> = agg_views.iter().map(SparseColumn::encode_v3).collect();
    let mut buf = BytesMut::new();
    buf.put_u32_le(VIEWS_MAGIC_V3);
    buf.put_u32_le(u32::try_from(vb.len()).expect("view count fits u32"));
    for e in &vb {
        buf.put_u64_le(e.len() as u64);
        buf.put_u32_le(crc32(e));
    }
    buf.put_u32_le(u32::try_from(ab.len()).expect("agg view count fits u32"));
    for e in &ab {
        buf.put_u64_le(e.len() as u64);
        buf.put_u32_le(crc32(e));
    }
    let dir_crc = crc32(&buf);
    buf.put_u32_le(dir_crc);
    for e in &vb {
        buf.put_slice(e);
    }
    for e in &ab {
        buf.put_slice(e);
    }
    buf.freeze()
}

fn frame_sidecar(payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(12 + payload.len());
    buf.put_u32_le(SIDECAR_MAGIC);
    buf.put_u32_le(u32::try_from(payload.len()).expect("sidecar fits u32"));
    buf.put_u32_le(crc32(payload));
    buf.put_slice(payload);
    buf.freeze()
}

// ---------------------------------------------------------------------------
// The one reader: directories and blocks of both formats.

/// Fails with `what` when `bytes` do not match their directory checksum
/// (skipped under [`Verify::TrustDisk`]).
fn check_crc(
    path: &Path,
    bytes: &[u8],
    expected: u32,
    verify: Verify,
    what: &'static str,
) -> Result<(), StoreError> {
    if verify == Verify::Checksums && crc32(bytes) != expected {
        return Err(corrupt(path, what));
    }
    Ok(())
}

/// `bytes[off..off + len]`, or `None` when the range leaves the buffer.
fn slice(bytes: &[u8], off: u64, len: u64) -> Option<&[u8]> {
    let off = usize::try_from(off).ok()?;
    let end = off.checked_add(usize::try_from(len).ok()?)?;
    bytes.get(off..end)
}

/// One column's entry in a partition-file directory: where its blocks sit,
/// their checksums, and how its value block is coded.
#[derive(Clone, Copy, Debug)]
pub struct ColumnEntry {
    /// File offset of the column's bitmap block; the value block follows
    /// it directly.
    pub offset: u64,
    /// Length of the encoded presence bitmap.
    pub bitmap_len: u64,
    /// Length of the value block.
    pub values_len: u64,
    /// CRC32 of the bitmap block.
    pub bitmap_crc: u32,
    /// CRC32 of the value block.
    pub values_crc: u32,
    /// True in a v3 part file, whose value blocks lead with a codec tag; a
    /// v2 value block is raw f64s.
    pub values_tagged: bool,
}

impl ColumnEntry {
    /// Bytes of the whole column: bitmap block then value block.
    pub fn column_len(&self) -> u64 {
        self.bitmap_len + self.values_len
    }

    /// Verifies and decodes the bitmap block (`bytes` is exactly that
    /// block).
    pub(crate) fn decode_bitmap(
        &self,
        path: &Path,
        mut bytes: &[u8],
        verify: Verify,
    ) -> Result<Bitmap, StoreError> {
        check_crc(
            path,
            bytes,
            self.bitmap_crc,
            verify,
            "bitmap checksum mismatch",
        )?;
        Ok(Bitmap::decode(&mut bytes)?)
    }

    /// Verifies and decodes the whole column (`bytes` is the bitmap block
    /// followed by the value block, [`ColumnEntry::column_len`] bytes).
    pub(crate) fn decode_column(
        &self,
        path: &Path,
        bytes: &[u8],
        verify: Verify,
    ) -> Result<SparseColumn, StoreError> {
        let split = usize::try_from(self.bitmap_len)
            .map_err(|_| corrupt(path, "bitmap block too large"))?;
        let Some((bitmap, mut values)) = bytes.split_at_checked(split) else {
            return Err(corrupt(path, "column bytes truncated"));
        };
        let presence = self.decode_bitmap(path, bitmap, verify)?;
        check_crc(
            path,
            values,
            self.values_crc,
            verify,
            "values checksum mismatch",
        )?;
        Ok(if self.values_tagged {
            SparseColumn::decode_values_v3(presence, &mut values)?
        } else {
            SparseColumn::decode_values(presence, &mut values)?
        })
    }
}

/// Parses a partition file's directory, v3 or v2 layout, into one
/// [`ColumnEntry`] per column — the only decoder of that directory.
/// `read(offset, len)` returns `len` bytes of the file from `offset`: a
/// ranged disk read when opening lazily, a slice when the whole file is in
/// memory ([`part_directory`]). A column count above `max_columns` is
/// rejected before the directory is read, and the directory checksum is
/// always verified.
pub(crate) fn read_part_directory(
    path: &Path,
    max_columns: usize,
    mut read: impl FnMut(u64, u64) -> Result<Vec<u8>, StoreError>,
) -> Result<Vec<ColumnEntry>, StoreError> {
    let mut read = |off: u64, len: u64| {
        let bytes = read(off, len)?;
        if bytes.len() as u64 != len {
            return Err(corrupt(path, "partition directory truncated"));
        }
        Ok(bytes)
    };
    let head = read(0, 8)?;
    let first = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
    let v3 = first == PART_MAGIC_V3;
    let n = if v3 {
        u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"))
    } else {
        first
    } as usize;
    if n > max_columns {
        return Err(corrupt(path, "partition column count out of range"));
    }
    // A v3 directory packs the block lengths at two widths; a v2 one
    // spends a fixed-size entry per column.
    let widths = if v3 {
        let w = read(8, 2)?;
        let (wb, wv) = (u32::from(w[0]), u32::from(w[1]));
        if wb > 64 || wv > 64 {
            return Err(corrupt(path, "partition directory width out of range"));
        }
        Some((wb, wv))
    } else {
        None
    };
    let header_len = match widths {
        Some((wb, wv)) => 10 + PackedInts::byte_len(n, wb) + PackedInts::byte_len(n, wv) + n * 8,
        None => 4 + n * PART_DIR_ENTRY,
    };
    let header = read(0, (header_len + 4) as u64)?;
    let (dir, dir_crc) = header.split_at(header_len);
    check_crc(
        path,
        dir,
        u32::from_le_bytes(dir_crc.try_into().expect("4 bytes")),
        Verify::Checksums,
        "partition directory checksum mismatch",
    )?;

    // The blocks follow the directory back to back, in column order.
    let mut entries = Vec::with_capacity(n);
    let mut offset = (header_len + 4) as u64;
    let mut push = |bitmap_len: u64, values_len: u64, bitmap_crc: u32, values_crc: u32| {
        entries.push(ColumnEntry {
            offset,
            bitmap_len,
            values_len,
            bitmap_crc,
            values_crc,
            values_tagged: v3,
        });
        offset = bitmap_len
            .checked_add(values_len)
            .and_then(|len| offset.checked_add(len))
            .ok_or_else(|| corrupt(path, "column bytes truncated"))?;
        Ok::<_, StoreError>(())
    };
    match widths {
        Some((wb, wv)) => {
            let truncated = || corrupt(path, "partition directory truncated");
            let bl_end = 10 + PackedInts::byte_len(n, wb);
            let vl_end = bl_end + PackedInts::byte_len(n, wv);
            let blens = PackedInts::from_bytes(&dir[10..bl_end], wb, n).ok_or_else(truncated)?;
            let vlens =
                PackedInts::from_bytes(&dir[bl_end..vl_end], wv, n).ok_or_else(truncated)?;
            let mut crcs = &dir[vl_end..];
            for i in 0..n {
                push(
                    blens.get(i),
                    vlens.get(i),
                    crcs.get_u32_le(),
                    crcs.get_u32_le(),
                )?;
            }
        }
        None => {
            let mut buf = &dir[4..];
            for _ in 0..n {
                push(
                    buf.get_u64_le(),
                    buf.get_u64_le(),
                    buf.get_u32_le(),
                    buf.get_u32_le(),
                )?;
            }
        }
    }
    Ok(entries)
}

/// The partition directory (`read_part_directory`, the one parser of
/// both layouts) of a whole partition file held in memory.
pub fn part_directory(
    path: &Path,
    bytes: &[u8],
    max_columns: usize,
) -> Result<Vec<ColumnEntry>, StoreError> {
    read_part_directory(path, max_columns, |off, len| {
        slice(bytes, off, len)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| corrupt(path, "partition directory truncated"))
    })
}

/// Where one view block sits in the views file, and its checksum.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ViewEntry {
    pub offset: u64,
    pub len: u64,
    pub crc: u32,
}

/// The parsed views-file directory.
pub(crate) struct ViewsDirectory {
    /// One entry per graph-view bitmap.
    pub views: Vec<ViewEntry>,
    /// One entry per aggregate-view column.
    pub aggs: Vec<ViewEntry>,
    /// True when the file carried the v3 magic: agg-view payloads are
    /// codec-tagged and must decode through [`SparseColumn::decode_v3`].
    v3: bool,
}

impl ViewsDirectory {
    /// Verifies and decodes graph view `i` from its block bytes.
    pub(crate) fn decode_view(
        &self,
        path: &Path,
        i: usize,
        mut bytes: &[u8],
        verify: Verify,
    ) -> Result<Bitmap, StoreError> {
        check_crc(
            path,
            bytes,
            self.views[i].crc,
            verify,
            "view block checksum mismatch",
        )?;
        Ok(Bitmap::decode(&mut bytes)?)
    }

    /// Verifies and decodes aggregate view `i` from its block bytes.
    pub(crate) fn decode_agg(
        &self,
        path: &Path,
        i: usize,
        mut bytes: &[u8],
        verify: Verify,
    ) -> Result<SparseColumn, StoreError> {
        check_crc(
            path,
            bytes,
            self.aggs[i].crc,
            verify,
            "view block checksum mismatch",
        )?;
        Ok(if self.v3 {
            SparseColumn::decode_v3(&mut bytes)?
        } else {
            SparseColumn::decode(&mut bytes)?
        })
    }
}

/// Parses (and structurally verifies) the views-file directory. The
/// directory CRC is always checked — it is tiny and every offset
/// computation depends on it.
pub(crate) fn parse_views_directory(
    path: &Path,
    bytes: &[u8],
) -> Result<ViewsDirectory, StoreError> {
    let mut buf = bytes;
    if buf.remaining() < 4 {
        return Err(corrupt(path, "views file truncated"));
    }
    let v3 = u32::from_le_bytes(bytes[..4].try_into().unwrap()) == VIEWS_MAGIC_V3;
    let base = if v3 {
        buf.advance(4);
        if buf.remaining() < 4 {
            return Err(corrupt(path, "views file truncated"));
        }
        4
    } else {
        0
    };
    let nviews = buf.get_u32_le() as usize;
    if buf.remaining() < nviews * VIEW_DIR_ENTRY + 4 {
        return Err(corrupt(path, "views directory truncated"));
    }
    let view_entries: Vec<(u64, u32)> = (0..nviews)
        .map(|_| (buf.get_u64_le(), buf.get_u32_le()))
        .collect();
    let naggs = buf.get_u32_le() as usize;
    if buf.remaining() < naggs * VIEW_DIR_ENTRY + 4 {
        return Err(corrupt(path, "agg view directory truncated"));
    }
    let agg_entries: Vec<(u64, u32)> = (0..naggs)
        .map(|_| (buf.get_u64_le(), buf.get_u32_le()))
        .collect();
    let header_len = base + 4 + nviews * VIEW_DIR_ENTRY + 4 + naggs * VIEW_DIR_ENTRY;
    let dir_crc = u32::from_le_bytes(bytes[header_len..header_len + 4].try_into().unwrap());
    if crc32(&bytes[..header_len]) != dir_crc {
        return Err(corrupt(path, "views directory checksum mismatch"));
    }

    let total = bytes.len() as u64;
    let mut offset = (header_len + 4) as u64;
    let mut place = |entries: &[(u64, u32)]| -> Result<Vec<ViewEntry>, StoreError> {
        let mut out = Vec::with_capacity(entries.len());
        for &(len, crc) in entries {
            out.push(ViewEntry { offset, len, crc });
            offset = offset
                .checked_add(len)
                .ok_or_else(|| corrupt(path, "view block out of range"))?;
            if offset > total {
                return Err(corrupt(path, "view block out of range"));
            }
        }
        Ok(out)
    };
    let views = place(&view_entries)?;
    let aggs = place(&agg_entries)?;
    Ok(ViewsDirectory { views, aggs, v3 })
}

// ---------------------------------------------------------------------------
// Load.

/// Loads a relation previously written by [`save`], verifying checksums.
pub fn load(dir: &Path) -> Result<MasterRelation, StoreError> {
    load_with(&OsVfs, dir, Verify::Checksums)
}

/// Loads a relation through `vfs`. `verify` chooses whether payload CRCs
/// are checked ([`Verify::TrustDisk`] is the fuzzer's teeth-test hook;
/// structural bounds and the manifest CRC are checked regardless). Each
/// data file is read once, whole, and every column decodes through the
/// same [`ColumnEntry`] decoder the disk-resident store fetches with.
pub fn load_with(vfs: &dyn Vfs, dir: &Path, verify: Verify) -> Result<MasterRelation, StoreError> {
    let manifest = read_manifest(vfs, dir)?;
    let mut columns = Vec::with_capacity(manifest.edge_count);
    for p in 0..manifest.part_count() {
        let path = dir.join(part_file_name(manifest.generation, p));
        let bytes = vfs.read(&path).map_err(|e| open_read_err(&path, e))?;
        for entry in part_directory(&path, &bytes, manifest.edge_count - columns.len())? {
            let block = slice(&bytes, entry.offset, entry.column_len())
                .ok_or_else(|| corrupt(&path, "column bytes truncated"))?;
            columns.push(entry.decode_column(&path, block, verify)?);
        }
    }
    if columns.len() != manifest.edge_count {
        return Err(StoreError::Format("column count mismatch"));
    }

    let mut relation =
        MasterRelation::from_columns(columns, manifest.partition_width, manifest.record_count);

    let path = dir.join(views_file_name(manifest.generation));
    let bytes = vfs.read(&path).map_err(|e| open_read_err(&path, e))?;
    let views = parse_views_directory(&path, &bytes)?;
    // The directory parse bounded every block by the file length.
    let block = |e: &ViewEntry| slice(&bytes, e.offset, e.len).expect("view block in range");
    let bitmaps = views
        .views
        .iter()
        .enumerate()
        .map(|(i, e)| views.decode_view(&path, i, block(e), verify))
        .collect::<Result<Vec<_>, _>>()?;
    let aggs = views
        .aggs
        .iter()
        .enumerate()
        .map(|(i, e)| views.decode_agg(&path, i, block(e), verify))
        .collect::<Result<Vec<_>, _>>()?;
    relation.restore_views(bitmaps, aggs);
    Ok(relation)
}

/// True when the live generation carries a sidecar called `name`.
/// False when the directory has no readable manifest at all.
pub fn has_sidecar(vfs: &dyn Vfs, dir: &Path, name: &str) -> bool {
    read_manifest(vfs, dir)
        .map(|m| {
            vfs.read(&dir.join(sidecar_file_name(m.generation, name)))
                .is_ok()
        })
        .unwrap_or(false)
}

/// Reads and verifies the sidecar `name` of the live generation.
pub fn read_sidecar(vfs: &dyn Vfs, dir: &Path, name: &str) -> Result<Vec<u8>, StoreError> {
    let manifest = read_manifest(vfs, dir)?;
    read_sidecar_at(vfs, dir, manifest.generation, name)
}

/// Reads and verifies the sidecar `name` of a known generation.
pub(crate) fn read_sidecar_at(
    vfs: &dyn Vfs,
    dir: &Path,
    generation: u64,
    name: &str,
) -> Result<Vec<u8>, StoreError> {
    let path = dir.join(sidecar_file_name(generation, name));
    let bytes = vfs.read(&path).map_err(|e| open_read_err(&path, e))?;
    let mut buf = bytes.as_slice();
    if buf.remaining() < 12 {
        return Err(corrupt(&path, "sidecar frame truncated"));
    }
    if buf.get_u32_le() != SIDECAR_MAGIC {
        return Err(corrupt(&path, "bad sidecar magic"));
    }
    let len = buf.get_u32_le() as usize;
    let crc = buf.get_u32_le();
    if buf.remaining() < len {
        return Err(corrupt(&path, "sidecar payload truncated"));
    }
    let payload = &buf[..len];
    if crc32(payload) != crc {
        return Err(corrupt(&path, "sidecar checksum mismatch"));
    }
    Ok(payload.to_vec())
}

/// Disk footprint of a saved relation directory, in bytes: every file of
/// the store (data files, sidecars, manifest).
pub fn disk_size(dir: &Path) -> Result<u64, StoreError> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iostats::IoStats;
    use crate::relation::RelationBuilder;
    use crate::vfs::FaultVfs;
    use graphbi_graph::EdgeId;
    use std::fs;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("graphbi-persist-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn build(n_edges: usize, width: usize) -> MasterRelation {
        let mut b = RelationBuilder::new(n_edges);
        for rid in 0..200u32 {
            let edges: Vec<(EdgeId, f64)> = (0..5)
                .map(|i| {
                    (
                        EdgeId((rid * 7 + i * 13) % n_edges as u32),
                        f64::from(rid + i),
                    )
                })
                .collect();
            let mut sorted = edges;
            sorted.sort_by_key(|&(e, _)| e);
            sorted.dedup_by_key(|&mut (e, _)| e);
            b.add_record(&sorted);
        }
        let mut r = b.finish_with_width(width);
        r.add_view_bitmap([1u32, 5, 9].into_iter().collect());
        let mut cb = crate::column::ColumnBuilder::new();
        cb.push(3, 2.5);
        cb.push(9, 4.5);
        r.add_agg_view(cb.finish());
        r
    }

    #[test]
    fn save_load_round_trip_multi_partition() {
        let dir = tmpdir("roundtrip");
        let r = build(50, 16); // 4 partitions
        let written = save(&r, &dir).unwrap();
        assert!(written > 0);
        assert_eq!(disk_size(&dir).unwrap(), written);
        let back = load(&dir).unwrap();
        assert_eq!(back.record_count(), r.record_count());
        assert_eq!(back.edge_count(), r.edge_count());
        assert_eq!(back.partition_count(), 4);
        let mut s1 = IoStats::new();
        let mut s2 = IoStats::new();
        for e in 0..50u32 {
            assert_eq!(
                back.edge_measures(EdgeId(e), &mut s1),
                r.edge_measures(EdgeId(e), &mut s2)
            );
        }
        assert_eq!(back.view_count(), 1);
        assert_eq!(back.agg_view_count(), 1);
        assert_eq!(
            back.agg_view(crate::AggViewId(0), &mut s1).get(9),
            Some(4.5)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_corrupt_manifest() {
        let dir = tmpdir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("manifest.gbi"), b"nonsense").unwrap();
        let Err(err) = load(&dir) else {
            panic!("corrupt manifest loaded")
        };
        assert!(err.is_corruption(), "typed corruption, got {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_relation_round_trips() {
        let dir = tmpdir("empty");
        let r = RelationBuilder::new(0).finish();
        save(&r, &dir).unwrap();
        let back = load(&dir).unwrap();
        assert_eq!(back.edge_count(), 0);
        assert_eq!(back.record_count(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resave_bumps_generation_and_collects_garbage() {
        let dir = tmpdir("regen");
        let r = build(20, 8);
        save(&r, &dir).unwrap();
        let g1 = read_manifest(&OsVfs, &dir).unwrap().generation;
        let written = save(&r, &dir).unwrap();
        let g2 = read_manifest(&OsVfs, &dir).unwrap().generation;
        assert!(g2 > g1, "generation advances ({g1} -> {g2})");
        // Old generation fully collected: footprint equals the new save.
        assert_eq!(disk_size(&dir).unwrap(), written);
        for f in fs::read_dir(&dir).unwrap() {
            let name = f.unwrap().file_name().to_string_lossy().into_owned();
            if let Some(g) = parse_generation(&name) {
                assert_eq!(g, g2, "stale generation file {name} survived GC");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sidecars_round_trip_and_publish_atomically() {
        let dir = tmpdir("sidecar");
        let r = build(20, 8);
        save_with(
            &OsVfs,
            &r,
            &[("universe.txt", b"u1"), ("meta.txt", b"m1")],
            &dir,
            &[],
        )
        .unwrap();
        assert_eq!(read_sidecar(&OsVfs, &dir, "universe.txt").unwrap(), b"u1");
        save_with(
            &OsVfs,
            &r,
            &[("universe.txt", b"u2"), ("meta.txt", b"m2")],
            &dir,
            &[],
        )
        .unwrap();
        assert_eq!(read_sidecar(&OsVfs, &dir, "universe.txt").unwrap(), b"u2");
        assert_eq!(read_sidecar(&OsVfs, &dir, "meta.txt").unwrap(), b"m2");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_byte_in_values_is_caught_on_load() {
        let vfs = FaultVfs::new(7);
        let dir = std::path::Path::new("/store");
        let r = build(20, 8);
        save_with(&vfs, &r, &[], dir, &[]).unwrap();
        assert!(load_with(&vfs, dir, Verify::Checksums).is_ok());
        // Flip one byte deep inside a partition file's payload region.
        let part = dir.join(part_file_name(
            read_manifest(&vfs, dir).unwrap().generation,
            0,
        ));
        let len = vfs.durable_len(&part).unwrap();
        vfs.corrupt_at(&part, len - 9);
        let Err(err) = load_with(&vfs, dir, Verify::Checksums) else {
            panic!("flipped byte loaded cleanly")
        };
        assert!(
            matches!(err, StoreError::Corrupt { .. }),
            "expected Corrupt, got {err}"
        );
    }

    #[test]
    fn save_through_faultvfs_survives_reboot() {
        let vfs = FaultVfs::new(11);
        let dir = std::path::Path::new("/store");
        let r = build(30, 8);
        save_with(&vfs, &r, &[("s.txt", b"payload")], dir, &[]).unwrap();
        vfs.reboot(); // everything was fsynced or renamed: nothing may be lost
        let back = load_with(&vfs, dir, Verify::Checksums).unwrap();
        assert_eq!(back.record_count(), r.record_count());
        assert_eq!(back.edge_count(), r.edge_count());
        assert_eq!(read_sidecar(&vfs, dir, "s.txt").unwrap(), b"payload");
    }

    #[test]
    fn parse_generation_accepts_only_wellformed_names() {
        assert_eq!(parse_generation("g000000000042-part_0001.gbi"), Some(42));
        assert_eq!(parse_generation("g000000000001-views.gbi"), Some(1));
        assert_eq!(parse_generation("manifest.gbi"), None);
        assert_eq!(parse_generation("g123-part_0001.gbi"), None);
        assert_eq!(parse_generation("gabcdefghijkl-x"), None);
    }
}
