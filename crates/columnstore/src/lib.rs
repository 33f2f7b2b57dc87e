#![warn(missing_docs)]

//! Column-oriented storage of graph records (§4 of the paper).
//!
//! The framework stores every graph record in one *master relation*
//! `R(recid, m1…mn, b1…bn, views…)`: a measure column and a bitmap column per
//! edge id of the universe. This crate is the stand-in for the MonetDB
//! column store used in the paper's experiments:
//!
//! * [`SparseColumn`] — one measure column: a presence bitmap plus a dense
//!   vector of the non-NULL values in record-id order. Because a record
//!   contains only a small fraction of the universe's edges, the NULL-heavy
//!   columns compress to almost nothing — the property behind the paper's
//!   Figure 4 (database size independent of record density).
//! * [`MasterRelation`] — the full relation, vertically partitioned into
//!   sub-relations of at most [`DEFAULT_PARTITION_WIDTH`] edge columns
//!   (§6.1), plus dynamically added view columns: graph views (one bitmap)
//!   and aggregate graph views (one sparse measure column whose presence
//!   bitmap is the view's `b_p`).
//! * [`IoStats`] — the cost-model counters: the paper's view-selection
//!   reasoning assumes "cost ∝ number of columns fetched", and every fetch
//!   path here increments the corresponding counter so the benches can report
//!   both wall-clock and model cost.
//! * [`persist`] — the crash-safe binary on-disk layout: generation-named
//!   immutable data files, CRC32 on every payload, and an atomically
//!   renamed framed manifest as the commit point. Saves write format v3
//!   only, codec-compressed ([`codec`]; raw payloads stay a per-block
//!   candidate, so no file ever grows). Format v2 is read-only: one parser
//!   sniffs each file's magic and decodes both layouts for the in-memory
//!   load and the disk-resident [`DiskRelation`] alike, so v2 stores and
//!   mixed v2/v3 generations load unchanged. Used to measure the disk
//!   footprint (Table 2, Figure 4) and to survive restarts *and crashes
//!   mid-save*.
//! * [`vfs`] — the injectable filesystem underneath [`persist`] and
//!   [`disk`]: [`OsVfs`] in production, [`FaultVfs`] (deterministic torn
//!   writes, short reads, bit flips, ENOSPC, lost fsyncs) under the
//!   crash-consistency fuzzer.
//! * [`delta`] + [`wal`] — the streaming-ingest write path: an epoch-tagged
//!   in-memory write buffer ([`DeltaStore`]) overlaid on the immutable
//!   generation files, made durable by a CRC32-framed write-ahead log
//!   appended and fsynced through [`vfs`] and replayed on reopen.

mod cache;
pub mod codec;
mod column;
pub mod delta;
pub mod disk;
mod iostats;
pub mod persist;
mod relation;
pub mod vfs;
pub mod wal;

pub use cache::LruCache;
pub use column::{ColumnBuilder, SparseColumn};
pub use delta::{DeltaOp, DeltaStore};
pub use disk::{BitmapRef, ColumnRef, DiskRelation};
pub use iostats::{IoStats, SharedIoStats};
pub use persist::FormatVersion;
pub use relation::{
    shard_ranges, AggViewId, MasterRelation, RelationBuilder, ViewId, DEFAULT_PARTITION_WIDTH,
};
pub use vfs::{crc32, os_vfs, FaultVfs, OsVfs, Verify, Vfs, VfsHandle};

/// Errors from storage operations.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure during persist/open.
    Io(std::io::Error),
    /// The on-disk bytes did not decode.
    Decode(graphbi_bitmap::DecodeError),
    /// The file layout was malformed.
    Format(&'static str),
    /// A specific on-disk file failed integrity verification: checksum
    /// mismatch, truncated or out-of-range block, or a data file missing
    /// from the generation the manifest points at.
    Corrupt {
        /// File name within the store directory.
        file: String,
        /// What failed.
        what: &'static str,
    },
}

impl StoreError {
    /// True when the error indicates damaged or partial on-disk state (as
    /// opposed to an environmental I/O failure).
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            StoreError::Corrupt { .. } | StoreError::Decode(_) | StoreError::Format(_)
        )
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Decode(e) => write!(f, "decode error: {e}"),
            StoreError::Format(what) => write!(f, "bad file format: {what}"),
            StoreError::Corrupt { file, what } => write!(f, "corrupt store file {file}: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<graphbi_bitmap::DecodeError> for StoreError {
    fn from(e: graphbi_bitmap::DecodeError) -> Self {
        StoreError::Decode(e)
    }
}
