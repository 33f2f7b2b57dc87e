//! Integer-compression primitives for the v3 on-disk format.
//!
//! Everything here is a building block for [`crate::codec`] (compressed
//! container payloads) and the column store's measure codec:
//!
//! * [`BitWriter`] / [`BitReader`] — LSB-first bit streams over byte
//!   buffers, including Elias-gamma codes for the run-length payloads.
//! * [`PackedInts`] — fixed-width bit-packed integers with O(1) random
//!   access; the payload of frame-of-reference arrays and dictionary
//!   indices.
//! * [`EliasFano`] — the quasi-succinct encoding of monotone sequences
//!   (Elias 1974, Fano 1971; see the partitioned variant in Ottaviano &
//!   Venturini). [`EfView`] decodes a serialized sequence in place, a
//!   64-bit word of the high vector at a time.
//!
//! Every decoder is bounds-checked and returns `None` on malformed input:
//! these run on bytes read off disk, sometimes with checksum verification
//! disabled (`Verify::TrustDisk`), so corrupt input must never panic or
//! index out of range.

/// `width`-bit mask (`width <= 64`).
fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Reads `width <= 64` bits at bit offset `pos`, LSB-first. Bits past the
/// end of `bytes` read as zero — callers bound `pos + width` themselves
/// when the distinction matters.
#[inline]
fn read_bits(bytes: &[u8], pos: usize, width: u32) -> u64 {
    if width == 0 {
        return 0;
    }
    let (first, bit) = (pos / 8, pos % 8);
    // One unaligned 8-byte load covers the value unless it is wider than
    // 57 bits or sits within 8 bytes of the end of the buffer.
    match bytes.get(first..first + 8) {
        Some(window) if bit + width as usize <= 64 => {
            let w = u64::from_le_bytes(window.try_into().expect("8-byte window"));
            (w >> bit) & mask(width)
        }
        _ => crate::kernels::read_bits_portable(bytes, pos, width),
    }
}

// ---------------------------------------------------------------------------
// Bit streams.

/// Append-only LSB-first bit stream.
#[derive(Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    len: usize,
}

impl BitWriter {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `width` bits of `value`, least-significant first.
    ///
    /// # Panics
    ///
    /// Debug-panics when `width > 64` or `value` has bits above `width`.
    pub fn write(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64, "width {width} > 64");
        debug_assert!(value & !mask(width) == 0, "value wider than {width} bits");
        let partial = self.len % 8;
        let mut acc = u128::from(value) << partial;
        if partial != 0 {
            acc |= u128::from(self.bytes.pop().expect("partial byte exists"));
        }
        let nbytes = (partial + width as usize).div_ceil(8);
        for i in 0..nbytes {
            self.bytes.push((acc >> (8 * i)) as u8);
        }
        self.len += width as usize;
    }

    /// Appends `value >= 1` in Elias-gamma: the unary bit length, then the
    /// value's low bits.
    ///
    /// # Panics
    ///
    /// Panics when `value == 0` (gamma has no code for zero).
    pub fn write_gamma(&mut self, value: u64) {
        assert!(value >= 1, "gamma codes start at 1");
        let n = 64 - value.leading_zeros(); // bit length, >= 1
        self.write(1u64 << (n - 1), n); // n-1 zeros, then the marker one
        self.write(value & mask(n - 1), n - 1); // low bits
    }

    /// Bits written so far.
    pub fn bit_len(&self) -> usize {
        self.len
    }

    /// Finishes the stream; the final byte is zero-padded.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Bits of the Elias-gamma code of `value >= 1`.
pub fn gamma_bit_len(value: u64) -> usize {
    debug_assert!(value >= 1);
    let n = (64 - value.leading_zeros()) as usize;
    2 * n - 1
}

/// LSB-first bit stream reader. Every read is bounds-checked against the
/// underlying byte length.
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Reads from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads `width <= 64` bits, or `None` past the end of the buffer.
    pub fn read(&mut self, width: u32) -> Option<u64> {
        if width > 64 {
            return None;
        }
        let end = self.pos.checked_add(width as usize)?;
        if end > self.bytes.len() * 8 {
            return None;
        }
        let v = read_bits(self.bytes, self.pos, width);
        self.pos = end;
        Some(v)
    }

    /// Reads one Elias-gamma code. `None` on buffer end or a unary prefix
    /// longer than any encodable value (corrupt input).
    pub fn read_gamma(&mut self) -> Option<u64> {
        let mut zeros = 0u32;
        loop {
            match self.read(1)? {
                1 => break,
                _ => {
                    zeros += 1;
                    if zeros >= 64 {
                        return None;
                    }
                }
            }
        }
        let low = self.read(zeros)?;
        Some((1u64 << zeros) | low)
    }

    /// Bits left in the buffer.
    pub fn bits_remaining(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }
}

// ---------------------------------------------------------------------------
// Fixed-width packing (the frame-of-reference payload).

/// `len` integers of `width` bits each, packed back to back — O(1) random
/// access, `ceil(len·width/8)` bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct PackedInts {
    width: u32,
    len: usize,
    bits: Vec<u8>,
}

impl PackedInts {
    /// The narrowest width that can hold `max` (0 when `max == 0`).
    pub fn width_for(max: u64) -> u32 {
        64 - max.leading_zeros()
    }

    /// Packed byte length of `len` values at `width` bits.
    pub fn byte_len(len: usize, width: u32) -> usize {
        (len * width as usize).div_ceil(8)
    }

    /// Packs `values`, all of which must fit in `width` bits.
    pub fn pack(values: &[u64], width: u32) -> PackedInts {
        let mut w = BitWriter::new();
        for &v in values {
            w.write(v, width);
        }
        PackedInts {
            width,
            len: values.len(),
            bits: w.into_bytes(),
        }
    }

    /// Reconstructs from packed bytes; `None` when `bytes` is shorter than
    /// `len` values of `width` bits need, or `width > 64`.
    pub fn from_bytes(bytes: &[u8], width: u32, len: usize) -> Option<PackedInts> {
        if width > 64 {
            return None;
        }
        let need = Self::byte_len(len, width);
        let bits = bytes.get(..need)?.to_vec();
        Some(PackedInts { width, len, bits })
    }

    /// The `i`-th packed value.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "packed index {i} out of {}", self.len);
        read_bits(&self.bits, i * self.width as usize, self.width)
    }

    /// Number of packed values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values are packed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit width per value.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The packed payload (exactly [`PackedInts::byte_len`] bytes).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bits
    }

    /// Heap bytes held.
    pub fn size_in_bytes(&self) -> usize {
        self.bits.len()
    }

    /// Iterates the packed values in order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Bulk-decodes up to `out.len()` consecutive values starting at index
    /// `start` into `out`, returning how many were written (`0` when
    /// `start >= len()`). This is the block path behind frame-of-reference
    /// and dictionary-index decoding — equivalent to
    /// `out[k] = self.get(start + k)` but decoded through
    /// [`crate::kernels::unpack_bits`], one unaligned 8-byte window per
    /// value.
    pub fn unpack_into(&self, start: usize, out: &mut [u64]) -> usize {
        let n = out.len().min(self.len.saturating_sub(start));
        crate::kernels::unpack_bits(
            &self.bits,
            start * self.width as usize,
            self.width,
            &mut out[..n],
        );
        n
    }
}

// ---------------------------------------------------------------------------
// Elias-Fano.

/// An Elias-Fano-coded non-decreasing sequence of `u64`s.
///
/// Each value is split at `low_width` bits: the low halves are stored
/// fixed-width in [`PackedInts`], the high halves unary-coded in a bit
/// vector (`n` ones, one per element, separated by a zero per distinct
/// high bucket). Total size approaches the information-theoretic
/// `n·(2 + log2(u/n))` bits for `n` values below `u`.
#[derive(Clone, Debug, PartialEq)]
pub struct EliasFano {
    n: usize,
    last: u64,
    lows: PackedInts,
    high: Vec<u8>,
}

/// Low-half width for `n` values whose maximum is `last`.
fn ef_low_width(n: usize, last: u64) -> u32 {
    if n == 0 {
        return 0;
    }
    let per = last.saturating_add(1) / n as u64;
    if per <= 1 {
        0
    } else {
        63 - per.leading_zeros()
    }
}

impl EliasFano {
    /// Encodes a non-decreasing sequence.
    ///
    /// # Panics
    ///
    /// Panics when `values` decreases anywhere.
    pub fn encode(values: &[u64]) -> EliasFano {
        assert!(
            values.windows(2).all(|w| w[0] <= w[1]),
            "elias-fano input must be non-decreasing"
        );
        let n = values.len();
        let last = values.last().copied().unwrap_or(0);
        let l = ef_low_width(n, last);
        let lows: Vec<u64> = values.iter().map(|&v| v & mask(l)).collect();
        let high_bits = if n == 0 { 0 } else { (last >> l) as usize + n };
        let mut high = vec![0u8; high_bits.div_ceil(8)];
        for (i, &v) in values.iter().enumerate() {
            let pos = (v >> l) as usize + i;
            high[pos / 8] |= 1 << (pos % 8);
        }
        EliasFano {
            n,
            last,
            lows: PackedInts::pack(&lows, l),
            high,
        }
    }

    /// Number of encoded values.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Serialized byte length of `n` values ending at `last` — used to
    /// pick the cheapest codec without encoding.
    pub fn encoded_byte_len(n: usize, last: u64) -> usize {
        if n == 0 {
            return 4;
        }
        let l = ef_low_width(n, last);
        4 + 8 + PackedInts::byte_len(n, l) + ((last >> l) as usize + n).div_ceil(8)
    }

    /// Serializes: `n u32 | last u64 | low bytes | high bytes` (the widths
    /// and byte lengths are all derived from `n` and `last`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::encoded_byte_len(self.n, self.last));
        out.extend_from_slice(&u32::try_from(self.n).expect("n fits u32").to_le_bytes());
        if self.n > 0 {
            out.extend_from_slice(&self.last.to_le_bytes());
            out.extend_from_slice(self.lows.as_bytes());
            out.extend_from_slice(&self.high);
        }
        out
    }

    /// Decodes the whole sequence (through its serialized form, so this
    /// is the same routine that reads sequences off disk).
    pub fn to_vec(&self) -> Vec<u64> {
        let bytes = self.to_bytes();
        let view = EfView::parse(&bytes).expect("own serialization parses");
        let mut out = Vec::with_capacity(self.n);
        let _ = view.try_for_each(|v| {
            out.push(v);
            Ok::<(), ()>(())
        });
        out
    }
}

/// A serialized Elias-Fano sequence (the [`EliasFano::to_bytes`] layout)
/// borrowed in place: parsing checks the framing and copies nothing, and
/// [`EfView::try_for_each`] decodes straight out of the borrowed bytes.
pub struct EfView<'a> {
    n: usize,
    low_width: u32,
    lows: &'a [u8],
    high: &'a [u8],
    /// Meaningful bits of `high`; the rest of its last byte is padding.
    high_bits: usize,
}

impl<'a> EfView<'a> {
    /// Parses `bytes`. `None` when the buffer is not exactly one
    /// well-formed sequence (every length is derived from the header's
    /// `n` and `last`, and must add up to `bytes.len()`).
    pub fn parse(bytes: &'a [u8]) -> Option<EfView<'a>> {
        let n = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
        if n == 0 {
            return (bytes.len() == 4).then_some(EfView {
                n,
                low_width: 0,
                lows: &[],
                high: &[],
                high_bits: 0,
            });
        }
        let last = u64::from_le_bytes(bytes.get(4..12)?.try_into().ok()?);
        let low_width = ef_low_width(n, last);
        let low_bytes = PackedInts::byte_len(n, low_width);
        let high_bits = (last >> low_width) as usize + n;
        if bytes.len() != 12 + low_bytes + high_bits.div_ceil(8) {
            return None;
        }
        let (lows, high) = bytes[12..].split_at(low_bytes);
        Some(EfView {
            n,
            low_width,
            lows,
            high,
            high_bits,
        })
    }

    /// Number of values the header declares.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Hands the values to `emit` in order, stopping at its first error,
    /// and returns how many were emitted. That is `len()` for a
    /// well-formed sequence and fewer when a corrupt high vector runs out
    /// of set bits early — never more, and never a panic.
    ///
    /// The high vector is scanned a 64-bit word at a time: each set bit
    /// is one element (`trailing_zeros` finds it, `w & (w - 1)` clears
    /// it), its position minus its index is the high half, and the low
    /// half is one fixed-width read.
    pub fn try_for_each<E>(&self, mut emit: impl FnMut(u64) -> Result<(), E>) -> Result<usize, E> {
        let width = self.low_width;
        // Whole words of meaningful bits, then one masked word for the
        // rest: everything past `high_bits` is padding.
        let (whole, rest) = self.high.split_at(self.high_bits / 64 * 8);
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        let tail = u64::from_le_bytes(tail) & mask((self.high_bits % 64) as u32);
        let mut idx = 0usize;
        let mut low_pos = 0usize;
        for i in 0..=whole.len() / 8 {
            let mut word = match whole.get(i * 8..i * 8 + 8) {
                Some(w) => u64::from_le_bytes(w.try_into().expect("8 bytes")),
                None => tail,
            };
            while word != 0 {
                if idx == self.n {
                    return Ok(idx);
                }
                let zeros = (i * 64 + word.trailing_zeros() as usize - idx) as u64;
                emit((zeros << width) | read_bits(self.lows, low_pos, width))?;
                idx += 1;
                low_pos += width as usize;
                word &= word - 1;
            }
        }
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_to_vec(bytes: &[u8]) -> Option<Vec<u64>> {
        let view = EfView::parse(bytes)?;
        let mut out = Vec::new();
        let _ = view.try_for_each(|v| {
            out.push(v);
            Ok::<(), ()>(())
        });
        Some(out)
    }

    #[test]
    fn bit_stream_round_trips_mixed_widths() {
        let mut w = BitWriter::new();
        let cases: Vec<(u64, u32)> = vec![
            (0, 0),
            (1, 1),
            (0b101, 3),
            (u64::MAX, 64),
            (12345, 17),
            (0, 5),
            (u64::from(u32::MAX), 32),
        ];
        for &(v, width) in &cases {
            w.write(v, width);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, width) in &cases {
            assert_eq!(r.read(width), Some(v), "width {width}");
        }
    }

    #[test]
    fn bit_reader_bounds_checked() {
        let mut r = BitReader::new(&[0xff]);
        assert_eq!(r.read(8), Some(0xff));
        assert_eq!(r.read(1), None);
    }

    #[test]
    fn gamma_round_trips() {
        let mut w = BitWriter::new();
        let vals = [1u64, 2, 3, 7, 8, 100, 65_536, u64::MAX];
        for &v in &vals {
            assert!(gamma_bit_len(v) >= 1);
            w.write_gamma(v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &vals {
            assert_eq!(r.read_gamma(), Some(v));
        }
    }

    #[test]
    fn gamma_rejects_runaway_unary() {
        let zeros = [0u8; 16];
        let mut r = BitReader::new(&zeros);
        assert_eq!(r.read_gamma(), None);
    }

    #[test]
    fn packed_ints_random_access() {
        let values: Vec<u64> = (0..1000).map(|i| (i * 37) % 1024).collect();
        let w = PackedInts::width_for(1023);
        assert_eq!(w, 10);
        let p = PackedInts::pack(&values, w);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(p.get(i), v);
        }
        let back = PackedInts::from_bytes(p.as_bytes(), w, values.len()).unwrap();
        assert_eq!(back, p);
        assert!(PackedInts::from_bytes(&p.as_bytes()[..p.as_bytes().len() - 1], w, 1000).is_none());
    }

    #[test]
    fn packed_ints_zero_width() {
        let p = PackedInts::pack(&[0, 0, 0], 0);
        assert_eq!(p.as_bytes().len(), 0);
        assert_eq!(p.get(2), 0);
    }

    #[test]
    fn elias_fano_round_trips() {
        for values in [
            vec![],
            vec![0u64],
            vec![u64::from(u32::MAX)],
            (0..10_000u64).map(|i| i * 3).collect(),
            vec![1, 1, 1, 2, 2, 900_000],
            (0..65_536u64).collect(),
        ] {
            let ef = EliasFano::encode(&values);
            assert_eq!(ef.to_vec(), values);
            let bytes = ef.to_bytes();
            assert_eq!(
                bytes.len(),
                EliasFano::encoded_byte_len(values.len(), values.last().copied().unwrap_or(0))
            );
            assert_eq!(view_to_vec(&bytes), Some(values));
        }
    }

    #[test]
    fn ef_view_rejects_bad_lengths() {
        let ef = EliasFano::encode(&[5, 10, 20]);
        let bytes = ef.to_bytes();
        assert!(EfView::parse(&bytes[..bytes.len() - 1]).is_none());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(EfView::parse(&extra).is_none());
        assert!(EfView::parse(&[]).is_none());
    }

    #[test]
    fn corrupt_high_vector_ends_iteration_not_panics() {
        let ef = EliasFano::encode(&[1, 2, 3, 4, 5]);
        let mut bytes = ef.to_bytes();
        // Zero out the high vector: decode must stop early, never panic.
        let n = bytes.len();
        for b in &mut bytes[n - 2..] {
            *b = 0;
        }
        if let Some(decoded) = view_to_vec(&bytes) {
            assert!(decoded.len() < 5);
        }
    }
}
