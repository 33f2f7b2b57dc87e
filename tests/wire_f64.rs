//! The wire grammar's number writers against their oracles:
//! `graphbi::numtext::write_f64` must produce the bytes of
//! `format!("{v:?}")` and `write_u64` the bytes of `to_string()`.
//!
//! The random corpus is seeded through the proptest shim, so
//! `PROPTEST_SEED=<n>` draws a fresh one (CI passes its run id) and a
//! failure prints the seed that replays it.

use graphbi::numtext::{write_f64, write_u64};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn rendered(v: f64) -> String {
    let mut out = Vec::new();
    write_f64(&mut out, v);
    String::from_utf8(out).expect("the writer emits ASCII")
}

fn agrees(v: f64) -> Result<(), String> {
    let (got, want) = (rendered(v), format!("{v:?}"));
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "bits {:#018x}: wrote {got:?}, format! says {want:?}",
            v.to_bits()
        ))
    }
}

/// `v` and its neighbours one ulp either side, both signs.
fn agrees_around(v: f64) {
    let bits = v.to_bits();
    for b in [bits.wrapping_sub(1), bits, bits + 1] {
        for sign in [0, 1u64 << 63] {
            agrees(f64::from_bits(b | sign)).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

/// Patterns per proptest case; 32 cases make 2^21 per property.
const PER_CASE: usize = 1 << 16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Uniform bit patterns: every exponent, subnormals, NaN payloads.
    #[test]
    fn random_bit_patterns_match_format(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..PER_CASE {
            agrees(f64::from_bits(rng.gen())).map_err(TestCaseError::fail)?;
        }
    }

    /// The ledger's measure distribution; dyadic rationals, whose few
    /// mantissa bits put the interval's bounds on exact decimals; and
    /// full mantissas around 2^53, where an ulp is near one and a value
    /// often lies exactly half way between two shortest candidates.
    #[test]
    fn measures_dyadics_and_ties_match_format(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..PER_CASE {
            let dyadic = rng.gen_range(0u64..1 << 30) as f64
                / (1u64 << rng.gen_range(0u32..40)) as f64;
            let wide = dyadic * 2f64.powi(rng.gen_range(-200i32..200));
            let near_2_53 = f64::from_bits(
                rng.gen() >> 12 | (1023 + rng.gen_range(46u64..60)) << 52,
            );
            for v in [rng.gen_range(0.5..10.5f64), dyadic, wide, near_2_53] {
                agrees(v).map_err(TestCaseError::fail)?;
            }
        }
    }
}

#[test]
fn special_values_match_format() {
    for v in [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        1.0 / 3.0,
        5e-324,
        1.7976931348623157e308,
        9007199254740993.0,
        123456789012345680.0,
    ] {
        agrees(v).unwrap_or_else(|e| panic!("{e}"));
    }
    assert_eq!(rendered(-0.0), "-0.0");
    assert_eq!(rendered(f64::NAN), "NaN");
    assert_eq!(rendered(f64::NEG_INFINITY), "-inf");
    assert_eq!(rendered(1e16), "1e16");
    assert_eq!(rendered(1e-5), "1e-5");
    assert_eq!(rendered(1.5e300), "1.5e300");
    assert_eq!(rendered(1234.5), "1234.5");
    assert_eq!(rendered(0.0001), "0.0001");
    assert_eq!(rendered(1e15), "1000000000000000.0");
}

#[test]
fn boundaries_match_format() {
    // First and last subnormal, first and last normal.
    for bits in [1u64, (1 << 52) - 1, 1 << 52, 0x7fef_ffff_ffff_ffff] {
        agrees_around(f64::from_bits(bits));
    }
    // Every power of two.
    for e in -1074..=1023 {
        agrees_around(2f64.powi(e));
    }
    // Every power of ten, which covers Debug's 1e-4 and 1e16 switches.
    for e in -323..=308 {
        agrees_around(format!("1e{e}").parse().expect("a float literal"));
    }
    // Integers around the switch to exponent notation and around 2^53.
    for v in [
        9.999999999999998e15,
        1e16,
        1.0000000000000002e16,
        9007199254740992.0,
    ] {
        agrees_around(v);
    }
    agrees_around(0.0001);
    agrees_around(0.00009999999999999999);
}

#[test]
fn integers_match_to_string() {
    let text = |n: u64| {
        let mut out = Vec::new();
        write_u64(&mut out, n);
        String::from_utf8(out).expect("the writer emits ASCII")
    };
    assert_eq!(text(0), "0");
    let mut p = 1u64;
    loop {
        for n in [p - 1, p, p + 1] {
            assert_eq!(text(n), n.to_string());
        }
        match p.checked_mul(10) {
            Some(next) => p = next,
            None => break,
        }
    }
    for n in [
        u64::from(u32::MAX),
        u64::from(u32::MAX) + 1,
        u64::MAX - 1,
        u64::MAX,
    ] {
        assert_eq!(text(n), n.to_string());
    }
}
