//! Crash-safe on-disk layout of a master relation (formats v2 and v3).
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
//! v2 part   := ncols u32,
//!              (bitmap_len u64, values_len u64,
//!               bitmap_crc u32, values_crc u32) × ncols,
//!              dir_crc u32, then per column: bitmap bytes, value bytes
//! v2 views  := nviews u32, (len u64, crc u32) × nviews,
//!              naggs u32, (len u64, crc u32) × naggs,
//!              dir_crc u32, then the view payloads, then the agg payloads
//!
//! v3 part   := PART_MAGIC_V3 u32, ncols u32, wb u8, wv u8,
//!              ncols × wb-bit packed bitmap lengths,
//!              ncols × wv-bit packed values lengths,
//!              (bitmap_crc u32, values_crc u32) × ncols,
//!              dir_crc u32, then per column: bitmap bytes, value bytes
//! v3 views  := VIEWS_MAGIC_V3 u32, then the v2 views layout
//! ```
//!
//! Format v3 (the default writer output since this version) keeps the v2
//! directory+CRC architecture but compresses the payloads: bitmaps use
//! the v3 container codecs (Elias-Fano, gamma runs, frame-of-reference),
//! value blocks carry a codec tag (raw or dictionary + packed indices),
//! and the part directory's block lengths are frame-of-reference
//! bit-packed. Every data file is self-describing via its leading magic,
//! so a reader handles mixed v2/v3 generations (e.g. a v2 base pinned by
//! a snapshot while compaction publishes v3) without any manifest-level
//! flag, and v2 stores load unchanged — backward compatibility is
//! reader-side, the writer always emits the manifest version matching
//! what it wrote.

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
/// column count, which open() bounds against the manifest's edge count —
/// the collision would need a relation of 1.19 billion edge columns.
pub const PART_MAGIC_V3: u32 = 0x4742_5033; // "GBP3"
/// Leading magic of a v3 views file (v2 starts with the view count).
pub const VIEWS_MAGIC_V3: u32 = 0x4742_5633; // "GBV3"
pub(crate) const FORMAT_VERSION_V2: u32 = 2;
pub(crate) const FORMAT_VERSION_V3: u32 = 3;

/// Which on-disk format a save emits. Readers accept both regardless.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FormatVersion {
    /// Raw container and value payloads (the legacy format).
    V2,
    /// Compressed payloads: v3 bitmap containers, codec-tagged value
    /// blocks, bit-packed part directories. The default.
    #[default]
    V3,
}

impl FormatVersion {
    fn manifest_version(self) -> u32 {
        match self {
            FormatVersion::V2 => FORMAT_VERSION_V2,
            FormatVersion::V3 => FORMAT_VERSION_V3,
        }
    }
}

/// The manifest file name — the store's atomic commit pointer.
pub const MANIFEST_FILE: &str = "manifest.gbi";
const MANIFEST_TMP: &str = "manifest.gbi.tmp";

/// Bytes of one partition-directory entry (two lengths, two CRCs).
pub(crate) const PART_DIR_ENTRY: usize = 24;
/// Bytes of one views-directory entry (length + CRC).
pub(crate) const VIEW_DIR_ENTRY: usize = 12;

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

fn corrupt(path: &Path, what: &'static str) -> StoreError {
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
    pub version: u32,
    pub generation: u64,
    pub record_count: u64,
    pub edge_count: usize,
    pub partition_width: usize,
}

const MANIFEST_PAYLOAD_LEN: usize = 28;

fn encode_manifest(generation: u64, relation: &MasterRelation, format: FormatVersion) -> Bytes {
    let mut payload = BytesMut::with_capacity(MANIFEST_PAYLOAD_LEN);
    payload.put_u32_le(format.manifest_version());
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
    let version = p.get_u32_le();
    if version != FORMAT_VERSION_V2 && version != FORMAT_VERSION_V3 {
        return Err(corrupt(&path, "unsupported format version"));
    }
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
    save_with(&OsVfs, relation, &[], dir)
}

/// Writes `relation` (plus caller-provided `sidecars`, each a named blob
/// published atomically with the relation) under `dir` through `vfs`.
///
/// The save is crash-safe: data files of a fresh generation are written
/// and fsynced first, then the manifest is committed via temp file +
/// fsync + atomic rename. A crash at any operation leaves the store
/// openable as either the complete old state or the complete new state.
pub fn save_with(
    vfs: &dyn Vfs,
    relation: &MasterRelation,
    sidecars: &[(&str, &[u8])],
    dir: &Path,
) -> Result<u64, StoreError> {
    save_with_keep(vfs, relation, sidecars, dir, &[])
}

/// [`save_with`], but the trailing garbage collection additionally spares
/// the generations listed in `keep`. MVCC compaction passes the
/// generations still pinned by live snapshots here; they are reclaimed by
/// a later [`collect_garbage_keeping`] once unpinned.
pub fn save_with_keep(
    vfs: &dyn Vfs,
    relation: &MasterRelation,
    sidecars: &[(&str, &[u8])],
    dir: &Path,
    keep: &[u64],
) -> Result<u64, StoreError> {
    save_with_keep_format(vfs, relation, sidecars, dir, keep, FormatVersion::default())
}

/// [`save_with_keep`] with an explicit on-disk [`FormatVersion`] — the
/// back-compat test matrix writes legacy v2 stores through this.
pub fn save_with_keep_format(
    vfs: &dyn Vfs,
    relation: &MasterRelation,
    sidecars: &[(&str, &[u8])],
    dir: &Path,
    keep: &[u64],
    format: FormatVersion,
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
            &encode_part(chunk, format),
        )?;
        nparts += 1;
    }
    if nparts == 0 {
        // Keep at least one (empty) partition file so open() has a fixpoint.
        total += write_durable(
            vfs,
            &dir.join(part_file_name(generation, 0)),
            &encode_part(&[], format),
        )?;
    }

    let (view_bitmaps, agg_views) = relation.views_parts();
    total += write_durable(
        vfs,
        &dir.join(views_file_name(generation)),
        &encode_views(view_bitmaps, agg_views, format),
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
    total += write_durable(vfs, &tmp, &encode_manifest(generation, relation, format))?;
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

fn encode_part(chunk: &[SparseColumn], format: FormatVersion) -> Bytes {
    match format {
        FormatVersion::V2 => encode_part_v2(chunk),
        FormatVersion::V3 => encode_part_v3(chunk),
    }
}

fn encode_part_v2(chunk: &[SparseColumn]) -> Bytes {
    let blocks: Vec<(Bytes, Bytes)> = chunk
        .iter()
        .map(|c| (c.presence().encode(), c.encode_values()))
        .collect();
    let mut buf = BytesMut::new();
    buf.put_u32_le(u32::try_from(chunk.len()).expect("chunk fits u32"));
    for (b, v) in &blocks {
        buf.put_u64_le(b.len() as u64);
        buf.put_u64_le(v.len() as u64);
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

fn encode_part_v3(chunk: &[SparseColumn]) -> Bytes {
    let blocks: Vec<(Bytes, Bytes)> = chunk
        .iter()
        .map(|c| (c.presence().encode_v3(), c.encode_values_v3()))
        .collect();
    let n = blocks.len();
    let max_b = blocks
        .iter()
        .map(|(b, _)| b.len() as u64)
        .max()
        .unwrap_or(0);
    let max_v = blocks
        .iter()
        .map(|(_, v)| v.len() as u64)
        .max()
        .unwrap_or(0);
    let wb = PackedInts::width_for(max_b);
    let wv = PackedInts::width_for(max_v);
    let blens: Vec<u64> = blocks.iter().map(|(b, _)| b.len() as u64).collect();
    let vlens: Vec<u64> = blocks.iter().map(|(_, v)| v.len() as u64).collect();
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

fn encode_views(
    view_bitmaps: &[Bitmap],
    agg_views: &[SparseColumn],
    format: FormatVersion,
) -> Bytes {
    let (vb, ab): (Vec<Bytes>, Vec<Bytes>) = match format {
        FormatVersion::V2 => (
            view_bitmaps.iter().map(Bitmap::encode).collect(),
            agg_views.iter().map(SparseColumn::encode).collect(),
        ),
        FormatVersion::V3 => (
            view_bitmaps.iter().map(Bitmap::encode_v3).collect(),
            agg_views.iter().map(SparseColumn::encode_v3).collect(),
        ),
    };
    let mut buf = BytesMut::new();
    if format == FormatVersion::V3 {
        buf.put_u32_le(VIEWS_MAGIC_V3);
    }
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
// Load.

/// Loads a relation previously written by [`save`], verifying checksums.
pub fn load(dir: &Path) -> Result<MasterRelation, StoreError> {
    load_with(&OsVfs, dir, Verify::Checksums)
}

/// Loads a relation through `vfs`. `verify` chooses whether payload CRCs
/// are checked ([`Verify::TrustDisk`] is the fuzzer's teeth-test hook;
/// structural bounds and the manifest CRC are checked regardless).
pub fn load_with(vfs: &dyn Vfs, dir: &Path, verify: Verify) -> Result<MasterRelation, StoreError> {
    let manifest = read_manifest(vfs, dir)?;
    let parts = manifest
        .edge_count
        .div_ceil(manifest.partition_width)
        .max(1);

    let mut columns = Vec::with_capacity(manifest.edge_count);
    for p in 0..parts {
        let path = dir.join(part_file_name(manifest.generation, p));
        let bytes = vfs.read(&path).map_err(|e| open_read_err(&path, e))?;
        decode_part(&path, &bytes, verify, manifest.edge_count, &mut columns)?;
    }
    if columns.len() != manifest.edge_count {
        return Err(StoreError::Format("column count mismatch"));
    }

    let mut relation =
        MasterRelation::from_columns(columns, manifest.partition_width, manifest.record_count);

    let path = dir.join(views_file_name(manifest.generation));
    let bytes = vfs.read(&path).map_err(|e| open_read_err(&path, e))?;
    let (bitmaps, aggs) = decode_views(&path, &bytes, verify)?;
    relation.restore_views(bitmaps, aggs);
    Ok(relation)
}

fn decode_part(
    path: &Path,
    bytes: &[u8],
    verify: Verify,
    edge_count: usize,
    columns: &mut Vec<SparseColumn>,
) -> Result<(), StoreError> {
    let mut buf = bytes;
    if buf.remaining() < 4 {
        return Err(corrupt(path, "partition file truncated"));
    }
    if u32::from_le_bytes(bytes[..4].try_into().unwrap()) == PART_MAGIC_V3 {
        return decode_part_v3(path, bytes, verify, edge_count, columns);
    }
    let n = buf.get_u32_le() as usize;
    if columns.len() + n > edge_count {
        return Err(corrupt(path, "partition column count out of range"));
    }
    if buf.remaining() < n * PART_DIR_ENTRY + 4 {
        return Err(corrupt(path, "partition directory truncated"));
    }
    let header_len = 4 + n * PART_DIR_ENTRY;
    let dir_crc = u32::from_le_bytes(bytes[header_len..header_len + 4].try_into().unwrap());
    if crc32(&bytes[..header_len]) != dir_crc {
        return Err(corrupt(path, "partition directory checksum mismatch"));
    }
    let entries: Vec<(u64, u64, u32, u32)> = (0..n)
        .map(|_| {
            (
                buf.get_u64_le(),
                buf.get_u64_le(),
                buf.get_u32_le(),
                buf.get_u32_le(),
            )
        })
        .collect();
    buf.advance(4); // dir_crc
    for (blen, vlen, bcrc, vcrc) in entries {
        let blen = usize::try_from(blen).map_err(|_| corrupt(path, "bitmap block too large"))?;
        let vlen = usize::try_from(vlen).map_err(|_| corrupt(path, "values block too large"))?;
        if buf.remaining() < blen + vlen {
            return Err(corrupt(path, "column bytes truncated"));
        }
        let (mut bitmap_bytes, rest) = buf.split_at(blen);
        let (mut value_bytes, rest) = rest.split_at(vlen);
        buf = rest;
        if verify == Verify::Checksums && crc32(bitmap_bytes) != bcrc {
            return Err(corrupt(path, "bitmap checksum mismatch"));
        }
        let presence = Bitmap::decode(&mut bitmap_bytes)?;
        if verify == Verify::Checksums && crc32(value_bytes) != vcrc {
            return Err(corrupt(path, "values checksum mismatch"));
        }
        columns.push(SparseColumn::decode_values(presence, &mut value_bytes)?);
    }
    Ok(())
}

fn decode_part_v3(
    path: &Path,
    bytes: &[u8],
    verify: Verify,
    edge_count: usize,
    columns: &mut Vec<SparseColumn>,
) -> Result<(), StoreError> {
    if bytes.len() < 10 {
        return Err(corrupt(path, "partition file truncated"));
    }
    let n = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    if columns.len() + n > edge_count {
        return Err(corrupt(path, "partition column count out of range"));
    }
    let wb = u32::from(bytes[8]);
    let wv = u32::from(bytes[9]);
    if wb > 64 || wv > 64 {
        return Err(corrupt(path, "partition directory width out of range"));
    }
    let bl_bytes = PackedInts::byte_len(n, wb);
    let vl_bytes = PackedInts::byte_len(n, wv);
    let header_len = 10 + bl_bytes + vl_bytes + n * 8;
    if bytes.len() < header_len + 4 {
        return Err(corrupt(path, "partition directory truncated"));
    }
    let dir_crc = u32::from_le_bytes(bytes[header_len..header_len + 4].try_into().unwrap());
    if crc32(&bytes[..header_len]) != dir_crc {
        return Err(corrupt(path, "partition directory checksum mismatch"));
    }
    let blens = PackedInts::from_bytes(&bytes[10..10 + bl_bytes], wb, n)
        .ok_or_else(|| corrupt(path, "partition directory truncated"))?;
    let vlens = PackedInts::from_bytes(&bytes[10 + bl_bytes..10 + bl_bytes + vl_bytes], wv, n)
        .ok_or_else(|| corrupt(path, "partition directory truncated"))?;
    let mut crcs = &bytes[10 + bl_bytes + vl_bytes..header_len];
    let mut buf = &bytes[header_len + 4..];
    for i in 0..n {
        let bcrc = crcs.get_u32_le();
        let vcrc = crcs.get_u32_le();
        let blen =
            usize::try_from(blens.get(i)).map_err(|_| corrupt(path, "bitmap block too large"))?;
        let vlen =
            usize::try_from(vlens.get(i)).map_err(|_| corrupt(path, "values block too large"))?;
        if buf.remaining() < blen + vlen {
            return Err(corrupt(path, "column bytes truncated"));
        }
        let (mut bitmap_bytes, rest) = buf.split_at(blen);
        let (mut value_bytes, rest) = rest.split_at(vlen);
        buf = rest;
        if verify == Verify::Checksums && crc32(bitmap_bytes) != bcrc {
            return Err(corrupt(path, "bitmap checksum mismatch"));
        }
        let presence = Bitmap::decode(&mut bitmap_bytes)?;
        if verify == Verify::Checksums && crc32(value_bytes) != vcrc {
            return Err(corrupt(path, "values checksum mismatch"));
        }
        columns.push(SparseColumn::decode_values_v3(presence, &mut value_bytes)?);
    }
    Ok(())
}

type ViewBlocks = (Vec<Bitmap>, Vec<SparseColumn>);

fn decode_views(path: &Path, bytes: &[u8], verify: Verify) -> Result<ViewBlocks, StoreError> {
    let dir = parse_views_directory(path, bytes)?;
    let mut bitmaps = Vec::with_capacity(dir.views.len());
    for &(off, len, crc) in &dir.views {
        let mut b = block(path, bytes, off, len, crc, verify)?;
        bitmaps.push(Bitmap::decode(&mut b)?);
    }
    let mut aggs = Vec::with_capacity(dir.aggs.len());
    for &(off, len, crc) in &dir.aggs {
        let mut b = block(path, bytes, off, len, crc, verify)?;
        aggs.push(if dir.v3 {
            SparseColumn::decode_v3(&mut b)?
        } else {
            SparseColumn::decode(&mut b)?
        });
    }
    Ok((bitmaps, aggs))
}

fn block<'a>(
    path: &Path,
    bytes: &'a [u8],
    off: u64,
    len: u64,
    crc: u32,
    verify: Verify,
) -> Result<&'a [u8], StoreError> {
    let off = usize::try_from(off).map_err(|_| corrupt(path, "view block too large"))?;
    let len = usize::try_from(len).map_err(|_| corrupt(path, "view block too large"))?;
    let Some(slice) = off.checked_add(len).and_then(|end| bytes.get(off..end)) else {
        return Err(corrupt(path, "view block out of range"));
    };
    if verify == Verify::Checksums && crc32(slice) != crc {
        return Err(corrupt(path, "view block checksum mismatch"));
    }
    Ok(slice)
}

/// The parsed views-file directory: `(offset, length, crc)` per block.
pub(crate) struct ViewsDirectory {
    pub views: Vec<(u64, u64, u32)>,
    pub aggs: Vec<(u64, u64, u32)>,
    /// True when the file carried the v3 magic: agg-view payloads are
    /// codec-tagged and must decode through [`SparseColumn::decode_v3`].
    pub v3: bool,
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
    let mut place = |entries: &[(u64, u32)]| -> Result<Vec<(u64, u64, u32)>, StoreError> {
        let mut out = Vec::with_capacity(entries.len());
        for &(len, crc) in entries {
            out.push((offset, len, crc));
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
        )
        .unwrap();
        assert_eq!(read_sidecar(&OsVfs, &dir, "universe.txt").unwrap(), b"u1");
        save_with(
            &OsVfs,
            &r,
            &[("universe.txt", b"u2"), ("meta.txt", b"m2")],
            &dir,
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
        save_with(&vfs, &r, &[], dir).unwrap();
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
        save_with(&vfs, &r, &[("s.txt", b"payload")], dir).unwrap();
        vfs.reboot(); // everything was fsynced or renamed: nothing may be lost
        let back = load_with(&vfs, dir, Verify::Checksums).unwrap();
        assert_eq!(back.record_count(), r.record_count());
        assert_eq!(back.edge_count(), r.edge_count());
        assert_eq!(read_sidecar(&vfs, dir, "s.txt").unwrap(), b"payload");
    }

    /// A relation saved with the explicit legacy format loads through the
    /// same reader as a v3 save, answer-identically, and the manifest
    /// records which format was written.
    #[test]
    fn explicit_v2_save_round_trips_and_manifest_records_version() {
        let dir = tmpdir("v2-format");
        let r = build(50, 16);
        save_with_keep_format(&OsVfs, &r, &[], &dir, &[], FormatVersion::V2).unwrap();
        assert_eq!(
            read_manifest(&OsVfs, &dir).unwrap().version,
            FORMAT_VERSION_V2
        );
        let v2 = load(&dir).unwrap();
        let v2_bytes = disk_size(&dir).unwrap();

        save(&r, &dir).unwrap(); // default writer: v3
        assert_eq!(
            read_manifest(&OsVfs, &dir).unwrap().version,
            FORMAT_VERSION_V3
        );
        let v3 = load(&dir).unwrap();
        let v3_bytes = disk_size(&dir).unwrap();
        assert!(
            v3_bytes <= v2_bytes,
            "v3 ({v3_bytes}B) must not exceed v2 ({v2_bytes}B)"
        );

        let mut s = IoStats::new();
        for e in 0..50u32 {
            assert_eq!(
                v2.edge_measures(EdgeId(e), &mut s),
                v3.edge_measures(EdgeId(e), &mut s),
                "edge {e} differs between formats"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Mixed generations on disk: a v2 generation pinned (kept) while a v3
    /// save publishes. Both must load by their self-describing file magic.
    #[test]
    fn pinned_v2_generation_coexists_with_live_v3() {
        let vfs = FaultVfs::new(3);
        let dir = std::path::Path::new("/store");
        let r = build(20, 8);
        save_with_keep_format(&vfs, &r, &[], dir, &[], FormatVersion::V2).unwrap();
        let g2 = live_generation(&vfs, dir).unwrap();
        save_with_keep_format(&vfs, &r, &[], dir, &[g2], FormatVersion::V3).unwrap();
        let g3 = live_generation(&vfs, dir).unwrap();
        assert_ne!(g2, g3);
        // The pinned v2 part files survived GC alongside the live v3 ones.
        let names: Vec<String> = vfs
            .list(dir)
            .unwrap()
            .iter()
            .map(|f| f.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert!(names.contains(&part_file_name(g2, 0)));
        assert!(names.contains(&part_file_name(g3, 0)));
        let back = load_with(&vfs, dir, Verify::Checksums).unwrap();
        assert_eq!(back.record_count(), r.record_count());
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
