//! Measure-value codecs for on-disk format v3.
//!
//! A v3 values block is one codec tag byte followed by the codec payload
//! (all little-endian; `n`, the value count, comes from the presence
//! bitmap's cardinality exactly as in v2):
//!
//! ```text
//! tag 0 raw:  n × f64
//! tag 1 dict: ndict u32, ndict × f64, width u8,
//!             n × width-bit packed dictionary indices
//! ```
//!
//! The writer dictionary-codes a column only when the packed form is
//! strictly smaller than raw — measures drawn from a small domain
//! (quantized prices, counts, category codes) collapse to a few bits per
//! value, while continuous measures stay raw at no overhead beyond the tag
//! byte. Values are interned by their IEEE-754 bit pattern, so every f64
//! (including NaNs and signed zeros) round-trips bit-identically.
//!
//! [`Measures`] keeps a loaded dictionary block *in its packed form*: the
//! fused gather-aggregate kernel (`SparseColumn::fold_over`) streams
//! values through the dictionary without ever materializing a raw `Vec`,
//! so the hot path decodes each fetched block at most once.
//!
//! This module also re-exports the integer-compression primitives from
//! `graphbi_bitmap::intcodec` (bit-packing, Elias-Fano, gamma codes) so
//! the property-test suite can drive every codec from one place.

use std::collections::HashMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};

pub use graphbi_bitmap::intcodec::{gamma_bit_len, BitReader, BitWriter, EliasFano, PackedInts};
use graphbi_bitmap::kernels;

use crate::StoreError;

/// Stack-buffer size for block decoding of packed dictionary indices.
const UNPACK_BLOCK: usize = 64;

/// Codec tag: raw f64 values.
pub const VALUES_RAW: u8 = 0;
/// Codec tag: dictionary + fixed-width packed indices.
pub const VALUES_DICT: u8 = 1;

/// Dictionary entries beyond this never pay for themselves against raw.
const DICT_MAX: usize = 1 << 24;

/// Consumes `n` little-endian f64s from the front of `buf`, converting
/// in place from its unread bytes. The caller has checked `remaining()`.
fn take_f64s(n: usize, buf: &mut impl Buf) -> Vec<f64> {
    let values = buf.chunk()[..n * 8]
        .chunks_exact(8)
        .map(|le| f64::from_le_bytes(le.try_into().expect("8 bytes")))
        .collect();
    buf.advance(n * 8);
    values
}

/// A measure vector: raw, or dictionary-coded exactly as loaded from a v3
/// values block. All readers go through [`Measures::get`]/[`Measures::iter`],
/// which resolve dictionary indices on the fly.
#[derive(Clone, Debug)]
pub(crate) enum Measures {
    /// One f64 per present record.
    Raw(Vec<f64>),
    /// Distinct values plus a packed index per present record.
    Dict {
        dict: Vec<f64>,
        /// `dict.len() > indices.get(i)` for every `i` — enforced at
        /// decode, maintained by construction at encode.
        indices: PackedInts,
    },
}

impl Default for Measures {
    fn default() -> Self {
        Measures::Raw(Vec::new())
    }
}

impl PartialEq for Measures {
    /// Representation-independent: a dictionary-coded vector equals the
    /// raw vector with the same values (f64 semantics, as the previous
    /// `Vec<f64>` derive used).
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Measures {
    /// Number of values.
    pub(crate) fn len(&self) -> usize {
        match self {
            Measures::Raw(v) => v.len(),
            Measures::Dict { indices, .. } => indices.len(),
        }
    }

    /// The `i`-th value (rank order of the presence bitmap).
    pub(crate) fn get(&self, i: usize) -> f64 {
        match self {
            Measures::Raw(v) => v[i],
            Measures::Dict { dict, indices } => dict[indices.get(i) as usize],
        }
    }

    /// Iterates values in rank order, resolving dictionary indices lazily.
    pub(crate) fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The contiguous value slice, when this vector is raw. The fused
    /// aggregation path hands this straight to the SIMD fold kernel.
    pub(crate) fn raw_slice(&self) -> Option<&[f64]> {
        match self {
            Measures::Raw(v) => Some(v),
            Measures::Dict { .. } => None,
        }
    }

    /// Streams every value in rank order through `f`. Dictionary blocks
    /// are resolved a block at a time: the packed indices go through the
    /// block unpack kernel and the dictionary lookups through the gather
    /// kernel, instead of per-element bit reads.
    pub(crate) fn fold_all(&self, f: &mut impl FnMut(f64)) {
        match self {
            Measures::Raw(v) => {
                for &x in v {
                    f(x);
                }
            }
            Measures::Dict { dict, indices } => {
                let mut ib = [0u64; UNPACK_BLOCK];
                let mut vb = [0f64; UNPACK_BLOCK];
                let mut start = 0usize;
                while start < indices.len() {
                    let got = indices.unpack_into(start, &mut ib);
                    let ok = kernels::gather_f64(dict, &ib[..got], &mut vb[..got]);
                    assert!(ok, "dict indices validated at decode");
                    for &v in &vb[..got] {
                        f(v);
                    }
                    start += got;
                }
            }
        }
    }

    /// Appends a value — the ingest path. A dictionary-coded vector is
    /// thawed to raw first (appends happen to in-memory columns; loaded
    /// generations are immutable).
    pub(crate) fn push(&mut self, value: f64) {
        if let Measures::Dict { .. } = self {
            *self = Measures::Raw(self.iter().collect());
        }
        let Measures::Raw(v) = self else {
            unreachable!()
        };
        v.push(value);
    }

    /// Heap bytes held — the dictionary form reports its compressed size,
    /// which is what the byte-budgeted column cache accounts.
    pub(crate) fn size_in_bytes(&self) -> usize {
        match self {
            Measures::Raw(v) => v.len() * 8,
            Measures::Dict { dict, indices } => dict.len() * 8 + indices.size_in_bytes(),
        }
    }

    /// Writes the raw (v2) value block: `len()` f64s, no tag.
    pub(crate) fn encode_raw_into(&self, buf: &mut BytesMut) {
        for v in self.iter() {
            buf.put_f64_le(v);
        }
    }

    /// Reads a raw (v2) value block of `n` values.
    pub(crate) fn decode_raw(n: usize, buf: &mut impl Buf) -> Result<Measures, StoreError> {
        if buf.remaining() < n * 8 {
            return Err(StoreError::Format("value block truncated"));
        }
        Ok(Measures::Raw(take_f64s(n, buf)))
    }

    /// Writes the v3 value block (tag + payload), dictionary-coding when
    /// that is strictly smaller than raw.
    pub(crate) fn encode_v3_into(&self, buf: &mut BytesMut) {
        let n = self.len();
        let mut interned: HashMap<u64, u32> = HashMap::new();
        let mut dict: Vec<f64> = Vec::new();
        let mut indices: Vec<u64> = Vec::with_capacity(n);
        for v in self.iter() {
            let next = dict.len() as u32;
            let idx = *interned.entry(v.to_bits()).or_insert_with(|| {
                dict.push(v);
                next
            });
            indices.push(u64::from(idx));
            if dict.len() > DICT_MAX {
                break;
            }
        }
        let width = if dict.is_empty() {
            0
        } else {
            PackedInts::width_for(dict.len() as u64 - 1)
        };
        let dict_bytes = 4 + dict.len() * 8 + 1 + PackedInts::byte_len(n, width);
        if dict.len() <= DICT_MAX && dict_bytes < n * 8 {
            buf.put_u8(VALUES_DICT);
            buf.put_u32_le(dict.len() as u32);
            for &v in &dict {
                buf.put_f64_le(v);
            }
            buf.put_u8(width as u8);
            buf.put_slice(PackedInts::pack(&indices, width).as_bytes());
        } else {
            buf.put_u8(VALUES_RAW);
            self.encode_raw_into(buf);
        }
    }

    /// The v3 value block as a fresh buffer.
    pub(crate) fn encode_v3(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(1 + self.len() * 8);
        self.encode_v3_into(&mut buf);
        buf.freeze()
    }

    /// Reads a v3 value block of `n` values. Dictionary blocks stay
    /// packed; every index is validated against the dictionary bound so
    /// later accesses cannot go out of range even under
    /// `Verify::TrustDisk`.
    pub(crate) fn decode_v3(n: usize, buf: &mut impl Buf) -> Result<Measures, StoreError> {
        if buf.remaining() < 1 {
            return Err(StoreError::Format("value block missing codec tag"));
        }
        match buf.get_u8() {
            VALUES_RAW => Self::decode_raw(n, buf),
            VALUES_DICT => {
                if buf.remaining() < 4 {
                    return Err(StoreError::Format("dict header truncated"));
                }
                let ndict = buf.get_u32_le() as usize;
                if ndict > DICT_MAX || (n > 0 && ndict == 0) {
                    return Err(StoreError::Format("dict size out of range"));
                }
                if buf.remaining() < ndict * 8 + 1 {
                    return Err(StoreError::Format("dict values truncated"));
                }
                let dict = take_f64s(ndict, buf);
                let width = u32::from(buf.get_u8());
                if width > 32 {
                    return Err(StoreError::Format("dict index width out of range"));
                }
                let packed_len = PackedInts::byte_len(n, width);
                if buf.remaining() < packed_len {
                    return Err(StoreError::Format("dict indices truncated"));
                }
                let Some(indices) = PackedInts::from_bytes(buf.chunk(), width, n) else {
                    return Err(StoreError::Format("dict indices malformed"));
                };
                buf.advance(packed_len);
                // Validate every index against the dictionary bound,
                // block-decoding through the dispatched unpack kernel.
                let mut ib = [0u64; UNPACK_BLOCK];
                let mut start = 0usize;
                while start < n {
                    let got = indices.unpack_into(start, &mut ib);
                    if ib[..got].iter().any(|&i| i >= ndict as u64) {
                        return Err(StoreError::Format("dict index out of range"));
                    }
                    start += got;
                }
                Ok(Measures::Dict { dict, indices })
            }
            _ => Err(StoreError::Format("unknown values codec tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_v3(values: Vec<f64>) -> Measures {
        let m = Measures::Raw(values);
        let bytes = m.encode_v3();
        let back = Measures::decode_v3(m.len(), &mut bytes.clone()).unwrap();
        assert_eq!(back, m);
        back
    }

    #[test]
    fn low_cardinality_measures_dictionary_code() {
        let values: Vec<f64> = (0..10_000).map(|i| f64::from(i % 7) * 0.5).collect();
        let m = Measures::Raw(values);
        let v3 = m.encode_v3();
        assert_eq!(v3[0], VALUES_DICT);
        assert!(
            v3.len() * 8 < m.len() * 8,
            "dict form much smaller: {} vs {}",
            v3.len(),
            m.len() * 8
        );
        let back = Measures::decode_v3(m.len(), &mut v3.clone()).unwrap();
        assert!(matches!(back, Measures::Dict { .. }), "stays packed");
        assert_eq!(back, m);
    }

    #[test]
    fn high_cardinality_measures_stay_raw() {
        let values: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.123).collect();
        let m = Measures::Raw(values);
        let v3 = m.encode_v3();
        assert_eq!(v3[0], VALUES_RAW);
        assert_eq!(v3.len(), 1 + m.len() * 8);
        round_trip_v3((0..1000).map(|i| f64::from(i) * 0.123).collect());
    }

    #[test]
    fn special_values_round_trip_bit_identically() {
        let values = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            0.0,
            f64::NAN,
            -0.0,
        ];
        let m = Measures::Raw(values.clone());
        let bytes = m.encode_v3();
        let back = Measures::decode_v3(values.len(), &mut bytes.clone()).unwrap();
        for (i, v) in values.iter().enumerate() {
            assert_eq!(
                back.get(i).to_bits(),
                v.to_bits(),
                "value {i} not bit-identical"
            );
        }
    }

    #[test]
    fn empty_and_singleton_round_trip() {
        round_trip_v3(vec![]);
        round_trip_v3(vec![42.5]);
    }

    #[test]
    fn decode_rejects_bad_dict_blocks() {
        let m = Measures::Raw((0..100).map(|i| f64::from(i % 3)).collect());
        let bytes = m.encode_v3();
        assert_eq!(bytes[0], VALUES_DICT);
        // Truncations at every point must error, never panic.
        for cut in 0..bytes.len() {
            assert!(
                Measures::decode_v3(100, &mut bytes.slice(..cut)).is_err(),
                "cut at {cut} decoded"
            );
        }
        // An out-of-range packed index must be caught at decode.
        let mut evil = BytesMut::new();
        evil.put_u8(VALUES_DICT);
        evil.put_u32_le(2);
        evil.put_f64_le(1.0);
        evil.put_f64_le(2.0);
        evil.put_u8(8); // 8-bit indices
        evil.put_slice(&[0, 1, 7]); // 7 >= ndict
        assert!(Measures::decode_v3(3, &mut evil.freeze()).is_err());
        // Unknown tag.
        assert!(Measures::decode_v3(0, &mut Bytes::from(vec![9u8])).is_err());
    }

    #[test]
    fn push_thaws_dictionary_form() {
        let m = Measures::Raw((0..50).map(|i| f64::from(i % 2)).collect());
        let bytes = m.encode_v3();
        let mut back = Measures::decode_v3(50, &mut bytes.clone()).unwrap();
        assert!(matches!(back, Measures::Dict { .. }));
        back.push(9.75);
        assert_eq!(back.len(), 51);
        assert_eq!(back.get(50), 9.75);
        assert_eq!(back.get(3), 1.0);
    }
}
