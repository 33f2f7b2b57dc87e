#![warn(missing_docs)]

//! Compressed bitmaps for graphbi.
//!
//! The EDBT'14 framework this workspace reproduces stores, for every edge id
//! in the universe, a *bitmap column* marking which graph records contain
//! that edge. Evaluating a graph query is then a conjunction of bitmap
//! columns, and a materialized graph view is simply a precomputed bitmap.
//! Everything in the system leans on fast, compact bitmaps, so this crate
//! implements them from scratch.
//!
//! The main type, [`Bitmap`], is a roaring-style two-level structure: the
//! 32-bit key space is split into 64Ki chunks addressed by the high 16 bits,
//! and each non-empty chunk is stored in one of three container
//! representations chosen by density:
//!
//! * **array** — a sorted `Vec<u16>` of the low bits (sparse chunks),
//! * **words** — a 1024-word (8 KiB) uncompressed bit array (dense chunks),
//! * **runs** — sorted, disjoint `[start, start+len]` intervals
//!   (clustered chunks, the common case for record ids assigned by a
//!   sequential loader).
//!
//! ```
//! use graphbi_bitmap::Bitmap;
//!
//! let a: Bitmap = (0..1000).collect();
//! let b: Bitmap = (500..1500).collect();
//! let both = a.and(&b);
//! assert_eq!(both.len(), 500);
//! assert!(both.contains(700));
//! ```

mod bitmap;
mod builder;
mod codec;
mod container;
pub mod intcodec;
mod iter;
pub mod kernels;
mod ops;

pub use bitmap::Bitmap;
pub use builder::BitmapBuilder;
pub use codec::DecodeError;
pub use iter::Iter;

/// Identifier of a graph record within a store.
///
/// The paper works with up to 320 M records; `u32` covers that with room to
/// spare and keeps containers compact.
pub type RecordId = u32;
