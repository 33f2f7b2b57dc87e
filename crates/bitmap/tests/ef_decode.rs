//! Tag 3 (Elias-Fano) container decode against a bit-at-a-time reference.
//!
//! The production decoder scans the high vector a 64-bit word at a time
//! and writes straight into the container. The reference below walks it
//! one bit at a time and reads each low half bit by bit — slow, obvious,
//! and kept only here. The two must agree on every payload, well-formed
//! or not: same values, or the same typed error.

use std::collections::BTreeSet;

use graphbi_bitmap::intcodec::EliasFano;
use graphbi_bitmap::{Bitmap, DecodeError};
use proptest::prelude::*;

fn bit(bytes: &[u8], pos: usize) -> u64 {
    u64::from(bytes[pos / 8] >> (pos % 8) & 1)
}

/// Low-half width the format derives from a header: `⌊log₂((last+1)/n)⌋`.
fn low_width(n: u64, last: u64) -> u32 {
    let per = last.saturating_add(1) / n;
    if per <= 1 {
        0
    } else {
        63 - per.leading_zeros()
    }
}

/// Bit-at-a-time decode of one tag 3 payload (`n u32 | last u64 | lows |
/// high`), with the production decoder's validation order and messages.
fn reference(payload: &[u8]) -> Result<Vec<u16>, DecodeError> {
    let malformed = DecodeError::Corrupt("malformed elias-fano payload");
    let out_of_range = DecodeError::Corrupt("elias-fano cardinality out of range");
    if payload.len() < 4 {
        return Err(malformed);
    }
    let n = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
    if n == 0 {
        return Err(if payload.len() == 4 {
            out_of_range
        } else {
            malformed
        });
    }
    if payload.len() < 12 {
        return Err(malformed);
    }
    let last = u64::from_le_bytes(payload[4..12].try_into().unwrap());
    let l = low_width(n as u64, last) as usize;
    let low_bytes = (n * l).div_ceil(8);
    let high_bits = (last >> l) as usize + n;
    if payload.len() != 12 + low_bytes + high_bits.div_ceil(8) {
        return Err(malformed);
    }
    if n > 1 << 16 {
        return Err(out_of_range);
    }
    let (lows, high) = payload[12..].split_at(low_bytes);
    let mut vals: Vec<u16> = Vec::new();
    for pos in 0..high_bits {
        if vals.len() == n {
            break;
        }
        if bit(high, pos) == 0 {
            continue;
        }
        let idx = vals.len();
        let mut low = 0u64;
        for k in 0..l {
            low |= bit(lows, idx * l + k) << k;
        }
        let v = (((pos - idx) as u64) << l) | low;
        if v > 0xffff {
            return Err(DecodeError::Corrupt("elias-fano value out of chunk range"));
        }
        if vals.last().is_some_and(|&p| u64::from(p) >= v) {
            return Err(DecodeError::Corrupt(
                "elias-fano values not strictly increasing",
            ));
        }
        vals.push(v as u16);
    }
    if vals.len() != n {
        return Err(DecodeError::Corrupt("elias-fano high bits exhausted early"));
    }
    Ok(vals)
}

/// One-chunk bitmap bytes whose only container is `payload` under tag 3.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(15 + payload.len());
    out.extend_from_slice(&0x4742_4D31u32.to_le_bytes());
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.push(3);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Production decode of one tag 3 payload. Whatever decodes must be a
/// valid bitmap: sorted, and with a cardinality equal to its recount.
fn decode(payload: &[u8]) -> Result<Vec<u16>, DecodeError> {
    let bytes = frame(payload);
    let mut buf = bytes.as_slice();
    let b = Bitmap::decode(&mut buf)?;
    assert!(buf.is_empty(), "decode left {} bytes unread", buf.len());
    let vals = b.to_vec();
    assert_eq!(b.len(), vals.len() as u64, "cardinality is not the recount");
    assert!(vals.windows(2).all(|w| w[0] < w[1]), "values not sorted");
    assert!(!vals.is_empty(), "empty container decoded");
    Ok(vals.into_iter().map(|v| v as u16).collect())
}

fn payload_of(vals: &[u16]) -> Vec<u8> {
    let wide: Vec<u64> = vals.iter().map(|&v| u64::from(v)).collect();
    EliasFano::encode(&wide).to_bytes()
}

/// `(low_width, high vector bits)` of a payload's header.
fn shape(payload: &[u8]) -> (u32, usize) {
    let n = u64::from(u32::from_le_bytes(payload[..4].try_into().unwrap()));
    let last = u64::from_le_bytes(payload[4..12].try_into().unwrap());
    let l = low_width(n, last);
    (l, ((last >> l) + n) as usize)
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    }
}

/// Per-chunk value sets: the `codec_prop` shapes cut to one chunk, plus
/// the cardinalities and header shapes the word-at-a-time scan has edges
/// at.
fn corpus() -> Vec<(&'static str, Vec<u16>)> {
    let mut rng = Rng(0x5eed_c0de);
    let mut mixed = BTreeSet::new();
    for _ in 0..3_000 {
        mixed.insert(rng.below(200) as u16);
        mixed.insert(rng.below(1 << 16) as u16);
    }
    vec![
        ("single-zero", vec![0]),
        ("single-max", vec![65_535]),
        ("pair-extremes", vec![0, 65_535]),
        ("chunk-edge", vec![65_534, 65_535]),
        ("dense-run", (0..10_000).collect()),
        ("full-chunk", (0..=65_535).collect()),
        ("run-of-runs", (0..5_000).filter(|v| v % 100 < 60).collect()),
        ("arithmetic-sparse", (0..600).map(|i| i * 97).collect()),
        ("array-max", (0..4_096).map(|i| i * 3).collect()),
        ("array-max-plus-one", (0..4_097).map(|i| i * 3).collect()),
        (
            "words-ending-at-max",
            (0..5_000).map(|i| 65_535 - i * 13).rev().collect(),
        ),
        ("every-other", (0..=65_535).step_by(2).collect()),
        ("seeded-mixture", mixed.into_iter().collect()),
        // low_width 0, high vector ending 4 bits short of a word (its last
        // byte is half padding), of exactly 64, and of 65 bits.
        ("high-60-bits", (1..=30).collect()),
        ("high-64-bits", (1..=32).collect()),
        ("high-65-bits", (2..=33).collect()),
        // low_width 0, high vector of exactly 128 and of 129 bits.
        ("high-128-bits", (1..=64).collect()),
        ("high-129-bits", (2..=65).collect()),
    ]
}

#[test]
fn corpus_hits_the_shapes_it_names() {
    let shape_of = |name: &str| {
        let (_, vals) = corpus().into_iter().find(|(n, _)| *n == name).unwrap();
        shape(&payload_of(&vals))
    };
    assert_eq!(shape_of("single-max").0, 16, "widest low half");
    assert_eq!(shape_of("full-chunk").0, 0);
    assert_eq!(shape_of("high-60-bits"), (0, 60));
    assert_eq!(shape_of("high-64-bits"), (0, 64));
    assert_eq!(shape_of("high-65-bits"), (0, 65));
    assert_eq!(shape_of("high-128-bits"), (0, 128));
    assert_eq!(shape_of("high-129-bits"), (0, 129));
}

#[test]
fn decode_equals_reference_over_the_corpus() {
    for (name, vals) in corpus() {
        let payload = payload_of(&vals);
        assert_eq!(reference(&payload).as_ref(), Ok(&vals), "{name}: reference");
        assert_eq!(decode(&payload).as_ref(), Ok(&vals), "{name}: decode");
    }
}

#[test]
fn every_truncation_is_an_error() {
    for (name, vals) in corpus() {
        let payload = payload_of(&vals);
        // Cut the framed bytes: the buffer ends early.
        let bytes = frame(&payload);
        for cut in (0..bytes.len())
            .rev()
            .take(64)
            .chain(0..bytes.len().min(64))
        {
            let mut buf = &bytes[..cut];
            assert_eq!(
                Bitmap::decode(&mut buf),
                Err(DecodeError::Truncated),
                "{name}: frame cut at {cut}"
            );
        }
        // Cut the payload and frame what is left: the lengths the header
        // implies no longer add up.
        let step = (payload.len() / 512).max(1);
        for cut in (0..payload.len()).step_by(step) {
            let got = decode(&payload[..cut]);
            assert!(got.is_err(), "{name}: payload cut at {cut} decoded");
            assert_eq!(got, reference(&payload[..cut]), "{name}: cut at {cut}");
        }
    }
}

#[test]
fn full_truncation_sweep_of_one_payload() {
    let vals: Vec<u16> = (0..700).map(|i| i * 91 + 5).collect();
    let payload = payload_of(&vals);
    let bytes = frame(&payload);
    for cut in 0..bytes.len() {
        let mut buf = &bytes[..cut];
        assert!(Bitmap::decode(&mut buf).is_err(), "frame cut at {cut}");
    }
    for cut in 0..payload.len() {
        assert_eq!(decode(&payload[..cut]), reference(&payload[..cut]));
    }
}

/// Every single-bit flip of a payload — header, low halves, high vector
/// and padding alike — decodes to exactly what the reference says: the
/// same typed error, or the same valid set (`decode` itself asserts that
/// a decoded bitmap is sorted and that its cardinality is its recount).
#[test]
fn every_single_bit_flip_equals_reference() {
    for name in [
        "arithmetic-sparse",
        "array-max-plus-one",
        "high-60-bits",
        "high-64-bits",
        "high-65-bits",
    ] {
        let (_, vals) = corpus().into_iter().find(|(n, _)| *n == name).unwrap();
        let mut payload = payload_of(&vals);
        for i in 0..payload.len() * 8 {
            payload[i / 8] ^= 1 << (i % 8);
            assert_eq!(decode(&payload), reference(&payload), "{name}: bit {i}");
            payload[i / 8] ^= 1 << (i % 8);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_sets_decode_like_the_reference(
        ids in prop::collection::btree_set(0u32..65_536, 1..6_000),
    ) {
        let vals: Vec<u16> = ids.into_iter().map(|v| v as u16).collect();
        let payload = payload_of(&vals);
        prop_assert_eq!(reference(&payload), Ok(vals.clone()));
        prop_assert_eq!(decode(&payload), Ok(vals));
    }

    #[test]
    fn random_corruption_decodes_like_the_reference(
        ids in prop::collection::btree_set(0u32..65_536, 1..400),
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let vals: Vec<u16> = ids.into_iter().map(|v| v as u16).collect();
        let mut payload = payload_of(&vals);
        let i = at.index(payload.len());
        payload[i] = byte;
        prop_assert_eq!(decode(&payload), reference(&payload));
    }
}
