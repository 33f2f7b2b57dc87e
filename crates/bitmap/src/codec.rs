//! Binary (de)serialization of bitmaps.
//!
//! The column store persists bitmap columns to disk in this format. Layout
//! (all little-endian):
//!
//! ```text
//! magic  u32  = 0x4742_4D31 ("GBM1")
//! nkeys  u32
//! per chunk: key u16, tag u8, payload
//!   tag 0 array: len u32, len × u16
//!   tag 1 words: 1024 × u64
//!   tag 2 runs:  len u32, len × (start u16, len u16)
//!   tag 3 ef:    plen u32, Elias-Fano bytes of the sorted low-bit set
//!   tag 4 γruns: plen u32, gamma stream: nruns, start₀+1, len₀+1,
//!                then (gap−1, len+1) per further run
//!   tag 5 FoR:   plen u32, count u16, base u16, width u8,
//!                count × width-bit packed deltas from base
//! ```
//!
//! Tags 0–2 are the raw (format v2) container payloads; tags 3–5 are the
//! compressed forms introduced by on-disk format v3. [`Bitmap::encode`]
//! emits only raw tags — the raw reference that tests and the `compress`
//! bench measure the codecs against; no store file is written with it (v2
//! is read-only, and the WAL logs `(edge, value)` pairs, not bitmaps).
//! [`Bitmap::encode_v3`] picks, per container, whichever candidate form is
//! smallest. [`Bitmap::decode`] accepts all six tags, so the one reader
//! loads v2 files unchanged. Decoding materializes standard
//! containers — compression is a storage-layer concern, and the column
//! cache ensures each fetched block is decoded at most once.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::bitmap::Bitmap;
use crate::container::{Container, Run, Words, ARRAY_MAX, WORDS};
use crate::intcodec::{gamma_bit_len, BitReader, BitWriter, EfView, EliasFano, PackedInts};

const MAGIC: u32 = 0x4742_4D31;

/// Most runs a 64Ki chunk can hold (every run at least 1 wide, gaps at
/// least 2): used to bound allocation when decoding gamma-coded runs.
const MAX_RUNS: usize = (1usize << 16).div_ceil(3);

/// Stack-buffer size for block decoding of packed integers.
const UNPACK_BLOCK: usize = 64;

/// Error returned when decoding malformed bitmap bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// The leading magic number did not match.
    BadMagic(u32),
    /// An unknown container tag was encountered.
    BadTag(u8),
    /// Chunk keys were not strictly increasing or a container was empty.
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "bitmap bytes truncated"),
            DecodeError::BadMagic(m) => write!(f, "bad bitmap magic 0x{m:08x}"),
            DecodeError::BadTag(t) => write!(f, "unknown container tag {t}"),
            DecodeError::Corrupt(what) => write!(f, "corrupt bitmap: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Splits `len` bytes off the front of `buf`.
fn take<'a>(buf: &mut &'a [u8], len: usize) -> Result<&'a [u8], DecodeError> {
    if buf.len() < len {
        return Err(DecodeError::Truncated);
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Ok(head)
}

/// Reads a `u32` count and splits off the `count × elem`-byte body it
/// announces (the framing of tags 0 and 2, and with `elem = 1` of the
/// length-framed v3 payloads, tags 3–5).
fn take_counted<'a>(buf: &mut &'a [u8], elem: usize) -> Result<&'a [u8], DecodeError> {
    let count = take(buf, 4)?;
    let count = u32::from_le_bytes(count.try_into().expect("4 bytes")) as usize;
    take(buf, count.checked_mul(elem).ok_or(DecodeError::Truncated)?)
}

fn u16_at(pair: &[u8]) -> u16 {
    u16::from_le_bytes([pair[0], pair[1]])
}

/// Decodes a tag 3 (Elias-Fano) payload straight into a container: bits
/// are set in `Words` (or `u16`s pushed, at array cardinalities) as the
/// high vector is scanned, with no intermediate sequence.
fn decode_ef(payload: &[u8]) -> Result<Container, DecodeError> {
    let Some(ef) = EfView::parse(payload) else {
        return Err(DecodeError::Corrupt("malformed elias-fano payload"));
    };
    let card = ef.len();
    if card == 0 || card > 1 << 16 {
        return Err(DecodeError::Corrupt("elias-fano cardinality out of range"));
    }
    // Strictly increasing values below 65_536: every emitted value is a
    // distinct bit, so `card` emitted values are `card` set bits.
    let mut floor = 0u64;
    let mut checked = |v: u64| {
        if v > 0xffff {
            return Err(DecodeError::Corrupt("elias-fano value out of chunk range"));
        }
        if v < floor {
            return Err(DecodeError::Corrupt(
                "elias-fano values not strictly increasing",
            ));
        }
        floor = v + 1;
        Ok(v as u16)
    };
    let (container, emitted) = if card <= ARRAY_MAX {
        let mut vals: Vec<u16> = Vec::with_capacity(card);
        let emitted = ef.try_for_each(|v| checked(v).map(|v| vals.push(v)))?;
        (Container::Array(vals), emitted)
    } else {
        // Values only increase, so each output word is complete before the
        // next begins: build it in a register and store it once.
        let mut w = Words::empty();
        let (mut at, mut word) = (0usize, 0u64);
        let emitted = ef.try_for_each(|v| {
            let v = checked(v)?;
            if usize::from(v >> 6) != at {
                w.bits[at] = word;
                (at, word) = (usize::from(v >> 6), 0);
            }
            word |= 1u64 << (v & 63);
            Ok(())
        })?;
        w.bits[at] = word;
        w.card = card as u32;
        (Container::Words(w), emitted)
    };
    if emitted != card {
        return Err(DecodeError::Corrupt("elias-fano high bits exhausted early"));
    }
    Ok(container)
}

/// Writes a container in its raw (v2) form: tag 0/1/2 plus body.
fn put_container_raw(c: &Container, buf: &mut BytesMut) {
    match c {
        Container::Array(a) => {
            buf.put_u8(0);
            buf.put_u32_le(a.len() as u32);
            for &v in a {
                buf.put_u16_le(v);
            }
        }
        Container::Words(w) => {
            buf.put_u8(1);
            for &word in &w.bits {
                buf.put_u64_le(word);
            }
        }
        Container::Runs(rs) => {
            buf.put_u8(2);
            buf.put_u32_le(rs.len() as u32);
            for r in rs {
                buf.put_u16_le(r.start);
                buf.put_u16_le(r.len);
            }
        }
    }
}

/// Raw (v2) body length of a container, excluding the tag byte.
fn raw_body_len(c: &Container) -> usize {
    match c {
        Container::Array(a) => 4 + a.len() * 2,
        Container::Words(_) => WORDS * 8,
        Container::Runs(rs) => 4 + rs.len() * 4,
    }
}

/// Gamma-stream bit length of a runs container (tag 4 payload).
fn gamma_runs_bit_len(rs: &[Run]) -> usize {
    let mut bits = gamma_bit_len(rs.len() as u64)
        + gamma_bit_len(u64::from(rs[0].start) + 1)
        + gamma_bit_len(u64::from(rs[0].len) + 1);
    for pair in rs.windows(2) {
        let gap = u64::from(pair[1].start) - u64::from(pair[0].end());
        bits += gamma_bit_len(gap - 1) + gamma_bit_len(u64::from(pair[1].len) + 1);
    }
    bits
}

/// Picks the v3 tag for a container and the body length it will produce
/// (everything after the tag byte). Raw wins ties so decoding stays cheap
/// when compression buys nothing.
fn v3_choice(c: &Container) -> (u8, usize) {
    match c {
        Container::Array(a) => {
            let n = a.len();
            let last = u64::from(*a.last().expect("array containers are non-empty"));
            let base = u64::from(a[0]);
            let raw = raw_body_len(c);
            let ef = 4 + EliasFano::encoded_byte_len(n, last);
            let for_w = PackedInts::width_for(last - base);
            let fr = 4 + 5 + PackedInts::byte_len(n, for_w);
            let best = raw.min(ef).min(fr);
            if best == raw {
                (0, raw)
            } else if best == fr {
                (5, fr)
            } else {
                (3, ef)
            }
        }
        Container::Words(w) => {
            let card = w.card as usize;
            let last = u64::from(c.max().expect("words containers are non-empty"));
            let ef = 4 + EliasFano::encoded_byte_len(card, last);
            if ef < WORDS * 8 {
                (3, ef)
            } else {
                (1, WORDS * 8)
            }
        }
        Container::Runs(rs) => {
            let raw = raw_body_len(c);
            let gamma = 4 + gamma_runs_bit_len(rs).div_ceil(8);
            if gamma < raw {
                (4, gamma)
            } else {
                (2, raw)
            }
        }
    }
}

/// Writes a container in its chosen v3 form.
fn put_container_v3(c: &Container, buf: &mut BytesMut) {
    let (tag, _) = v3_choice(c);
    match tag {
        0..=2 => put_container_raw(c, buf),
        3 => {
            let vals: Vec<u64> = c.to_array().iter().map(|&v| u64::from(v)).collect();
            let payload = EliasFano::encode(&vals).to_bytes();
            buf.put_u8(3);
            buf.put_u32_le(payload.len() as u32);
            buf.put_slice(&payload);
        }
        4 => {
            let Container::Runs(rs) = c else {
                unreachable!("tag 4 only chosen for runs")
            };
            let mut w = BitWriter::new();
            w.write_gamma(rs.len() as u64);
            w.write_gamma(u64::from(rs[0].start) + 1);
            w.write_gamma(u64::from(rs[0].len) + 1);
            for pair in rs.windows(2) {
                let gap = u64::from(pair[1].start) - u64::from(pair[0].end());
                w.write_gamma(gap - 1);
                w.write_gamma(u64::from(pair[1].len) + 1);
            }
            let payload = w.into_bytes();
            buf.put_u8(4);
            buf.put_u32_le(payload.len() as u32);
            buf.put_slice(&payload);
        }
        5 => {
            let Container::Array(a) = c else {
                unreachable!("tag 5 only chosen for arrays")
            };
            let base = a[0];
            let width = PackedInts::width_for(u64::from(*a.last().unwrap() - base));
            let deltas: Vec<u64> = a.iter().map(|&v| u64::from(v - base)).collect();
            let packed = PackedInts::pack(&deltas, width);
            buf.put_u8(5);
            buf.put_u32_le((5 + packed.as_bytes().len()) as u32);
            buf.put_u16_le(a.len() as u16);
            buf.put_u16_le(base);
            buf.put_u8(width as u8);
            buf.put_slice(packed.as_bytes());
        }
        _ => unreachable!(),
    }
}

impl Bitmap {
    /// Serializes into `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(u32::try_from(self.keys.len()).expect("chunk count fits u32"));
        for (i, &key) in self.keys.iter().enumerate() {
            buf.put_u16_le(key);
            put_container_raw(&self.containers[i], buf);
        }
    }

    /// Serializes into a fresh buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(8 + self.size_in_bytes() + self.keys.len() * 8);
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Serializes with the v3 compressed container forms into `buf`: each
    /// container is written with whichever of its candidate encodings
    /// (raw, Elias-Fano, gamma runs, frame-of-reference) is smallest.
    /// The result decodes with the same [`Bitmap::decode`] as raw bytes.
    pub fn encode_v3_into(&self, buf: &mut BytesMut) {
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(u32::try_from(self.keys.len()).expect("chunk count fits u32"));
        for (i, &key) in self.keys.iter().enumerate() {
            buf.put_u16_le(key);
            put_container_v3(&self.containers[i], buf);
        }
    }

    /// Serializes with the v3 compressed container forms into a fresh
    /// buffer.
    pub fn encode_v3(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len_v3());
        self.encode_v3_into(&mut buf);
        buf.freeze()
    }

    /// Size of the v3 encoded form in bytes.
    pub fn encoded_len_v3(&self) -> usize {
        8 + self
            .containers
            .iter()
            .map(|c| 3 + v3_choice(c).1)
            .sum::<usize>()
    }

    /// Decodes a bitmap previously produced by [`Bitmap::encode`], consuming
    /// its bytes from the front of `buf`.
    pub fn decode(buf: &mut impl Buf) -> Result<Bitmap, DecodeError> {
        // Decode in place from the buffer's (contiguous) unread bytes and
        // consume what was used; nothing is copied out of `buf` first.
        let chunk = buf.chunk();
        let mut rest = chunk;
        let head = take(&mut rest, 8)?;
        let magic = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
        if magic != MAGIC {
            return Err(DecodeError::BadMagic(magic));
        }
        let nkeys = u32::from_le_bytes(head[4..].try_into().expect("4 bytes")) as usize;
        let mut out = Bitmap::new();
        let mut prev_key: Option<u16> = None;
        for _ in 0..nkeys {
            let head = take(&mut rest, 3)?;
            let key = u16_at(head);
            if prev_key.is_some_and(|p| p >= key) {
                return Err(DecodeError::Corrupt("keys not strictly increasing"));
            }
            prev_key = Some(key);
            let tag = head[2];
            let container = match tag {
                0 => {
                    let a: Vec<u16> = take_counted(&mut rest, 2)?
                        .chunks_exact(2)
                        .map(u16_at)
                        .collect();
                    if a.is_empty() || a.windows(2).any(|w| w[0] >= w[1]) {
                        return Err(DecodeError::Corrupt("array container not sorted/non-empty"));
                    }
                    Container::Array(a)
                }
                1 => {
                    let body = take(&mut rest, WORDS * 8)?;
                    let mut w = Words::empty();
                    for (word, le) in w.bits.iter_mut().zip(body.chunks_exact(8)) {
                        *word = u64::from_le_bytes(le.try_into().expect("8 bytes"));
                    }
                    w.recount();
                    if w.card == 0 {
                        return Err(DecodeError::Corrupt("empty words container"));
                    }
                    Container::Words(w)
                }
                2 => {
                    let rs: Vec<Run> = take_counted(&mut rest, 4)?
                        .chunks_exact(4)
                        .map(|r| Run {
                            start: u16_at(r),
                            len: u16_at(&r[2..]),
                        })
                        .collect();
                    let sorted = rs
                        .windows(2)
                        .all(|w| u32::from(w[0].end()) + 1 < u32::from(w[1].start))
                        || rs.len() < 2;
                    if rs.is_empty() || !sorted {
                        return Err(DecodeError::Corrupt("runs overlapping or empty"));
                    }
                    Container::Runs(rs)
                }
                3 => decode_ef(take_counted(&mut rest, 1)?)?,
                4 => {
                    let payload = take_counted(&mut rest, 1)?;
                    let mut r = BitReader::new(payload);
                    let truncated = DecodeError::Corrupt("gamma runs truncated");
                    let nruns = r.read_gamma().ok_or(truncated.clone())? as usize;
                    if nruns > MAX_RUNS {
                        return Err(DecodeError::Corrupt("gamma run count out of range"));
                    }
                    let mut rs: Vec<Run> = Vec::with_capacity(nruns);
                    let start = r.read_gamma().ok_or(truncated.clone())? - 1;
                    let len = r.read_gamma().ok_or(truncated.clone())? - 1;
                    if start + len > 0xffff {
                        return Err(DecodeError::Corrupt("gamma run out of chunk range"));
                    }
                    rs.push(Run {
                        start: start as u16,
                        len: len as u16,
                    });
                    for _ in 1..nruns {
                        let gap = r.read_gamma().ok_or(truncated.clone())? + 1;
                        let len = r.read_gamma().ok_or(truncated.clone())? - 1;
                        let prev_end = u64::from(rs.last().unwrap().end());
                        let start = prev_end + gap;
                        if start + len > 0xffff {
                            return Err(DecodeError::Corrupt("gamma run out of chunk range"));
                        }
                        rs.push(Run {
                            start: start as u16,
                            len: len as u16,
                        });
                    }
                    Container::Runs(rs)
                }
                5 => {
                    let payload = take_counted(&mut rest, 1)?;
                    if payload.len() < 5 {
                        return Err(DecodeError::Corrupt("frame-of-reference header truncated"));
                    }
                    let count = u16_at(payload) as usize;
                    let base = u16_at(&payload[2..]);
                    let width = u32::from(payload[4]);
                    if count == 0 || count > ARRAY_MAX || width > 16 {
                        return Err(DecodeError::Corrupt(
                            "frame-of-reference shape out of range",
                        ));
                    }
                    if payload.len() != 5 + PackedInts::byte_len(count, width) {
                        return Err(DecodeError::Corrupt("frame-of-reference payload length"));
                    }
                    let Some(packed) = PackedInts::from_bytes(&payload[5..], width, count) else {
                        return Err(DecodeError::Corrupt("frame-of-reference payload truncated"));
                    };
                    // Block-decode the deltas through the dispatched
                    // unpack kernel instead of per-element bit reads.
                    let mut vals: Vec<u16> = Vec::with_capacity(count);
                    let mut deltas = [0u64; UNPACK_BLOCK];
                    let mut prev: Option<u16> = None;
                    let mut start = 0usize;
                    while start < count {
                        let got = packed.unpack_into(start, &mut deltas);
                        for &d in &deltas[..got] {
                            let v = u64::from(base) + d;
                            if v > 0xffff {
                                return Err(DecodeError::Corrupt(
                                    "frame-of-reference value out of chunk range",
                                ));
                            }
                            let v = v as u16;
                            if prev.is_some_and(|p| p >= v) {
                                return Err(DecodeError::Corrupt(
                                    "frame-of-reference values not strictly increasing",
                                ));
                            }
                            prev = Some(v);
                            vals.push(v);
                        }
                        start += got;
                    }
                    Container::Array(vals)
                }
                t => return Err(DecodeError::BadTag(t)),
            };
            out.push_container(key, container);
        }
        let used = chunk.len() - rest.len();
        buf.advance(used);
        Ok(out)
    }

    /// Size of the encoded form in bytes.
    pub fn encoded_len(&self) -> usize {
        8 + self
            .containers
            .iter()
            .map(|c| {
                3 + match c {
                    Container::Array(a) => 4 + a.len() * 2,
                    Container::Words(_) => WORDS * 8,
                    Container::Runs(rs) => 4 + rs.len() * 4,
                }
            })
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_forms() {
        let mut b = Bitmap::from_range(100..70_000);
        b.extend((200_000..400_000u32).step_by(17));
        b.optimize();
        let bytes = b.encode();
        assert_eq!(bytes.len(), b.encoded_len());
        let mut cursor = bytes.clone();
        let back = Bitmap::decode(&mut cursor).unwrap();
        assert_eq!(b, back);
        assert!(!cursor.has_remaining());
    }

    #[test]
    fn round_trip_empty() {
        let b = Bitmap::new();
        let mut bytes = b.encode();
        assert_eq!(Bitmap::decode(&mut bytes).unwrap(), b);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(0xdead_beef);
        buf.put_u32_le(0);
        assert!(matches!(
            Bitmap::decode(&mut buf.freeze()),
            Err(DecodeError::BadMagic(0xdead_beef))
        ));
    }

    #[test]
    fn decode_rejects_truncation() {
        let b: Bitmap = (0..100u32).collect();
        let bytes = b.encode();
        for cut in [0, 4, 9, bytes.len() - 1] {
            let mut slice = bytes.slice(..cut);
            assert!(
                Bitmap::decode(&mut slice).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(super::MAGIC);
        buf.put_u32_le(1);
        buf.put_u16_le(0);
        buf.put_u8(9);
        assert!(matches!(
            Bitmap::decode(&mut buf.freeze()),
            Err(DecodeError::BadTag(9))
        ));
    }

    #[test]
    fn v3_round_trips_every_container_form() {
        // Clustered runs, a dense words chunk, sparse and mid-density
        // arrays — exercises every v3 tag choice.
        let mut b = Bitmap::from_range(100..70_000);
        b.extend((200_000..400_000u32).step_by(17));
        b.extend((500_000..510_000u32).step_by(2)); // 5000-card words chunk
        b.extend([1_000_000u32, 1_000_003]); // tiny array stays raw
        b.optimize();
        let bytes = b.encode_v3();
        assert_eq!(bytes.len(), b.encoded_len_v3());
        let mut cursor = bytes.clone();
        let back = Bitmap::decode(&mut cursor).unwrap();
        assert_eq!(b, back);
        assert!(!cursor.has_remaining());
    }

    #[test]
    fn v3_is_never_larger_than_raw() {
        let mut b = Bitmap::from_range(0..100_000);
        b.extend((150_000..300_000u32).step_by(3));
        b.optimize();
        assert!(b.encoded_len_v3() <= b.encoded_len());
    }

    #[test]
    fn v3_decode_rejects_truncation_everywhere() {
        let mut b: Bitmap = (0..30_000u32).step_by(7).collect();
        b.optimize();
        let bytes = b.encode_v3();
        for cut in 0..bytes.len() {
            let mut slice = bytes.slice(..cut);
            assert!(
                Bitmap::decode(&mut slice).is_err(),
                "cut at {cut} decoded cleanly"
            );
        }
    }

    #[test]
    fn v3_full_chunk_round_trips() {
        let b = Bitmap::from_range(0..65_536);
        let mut opt = b.clone();
        opt.optimize();
        for bm in [&b, &opt] {
            let mut bytes = bm.encode_v3();
            assert_eq!(&Bitmap::decode(&mut bytes).unwrap(), bm);
        }
    }
}
