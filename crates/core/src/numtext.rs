//! Number text for the wire grammar: a shortest-round-trip `f64` writer
//! and a decimal integer writer that append straight into a byte buffer,
//! never through `core::fmt`.
//!
//! **Contract.** [`write_f64`] appends exactly the bytes of
//! `format!("{v:?}")` — shortest digits that read back bit-identically,
//! decimal notation for `1e-4 <= |v| < 1e16` and exponent notation
//! outside it, `NaN`, `inf`, `-inf`, `-0.0`. `format!` is the oracle:
//! `tests/wire_f64.rs` compares the two byte for byte over millions of
//! bit patterns. [`write_u64`] appends the bytes of `n.to_string()`.
//!
//! **Algorithm.** Ryū (Adams, PLDI 2018): scale the float's rounding
//! interval by a 125-bit approximation of a power of five so that its
//! bounds become integers, then drop decimal digits while the bounds
//! still differ. The two power-of-five tables are built at compile time
//! from exact wide integers: `5^i` by repeated multiplication,
//! `⌊2^960 / 5^i⌋` by repeated division by five (`⌊⌊a/b⌋/c⌋ = ⌊a/(bc)⌋`
//! keeps every step exact), each entry the 125 or 126 bits under the
//! leading one.

/// 64-bit limbs of the table builder's integers, least significant
/// first; `2^960` and `5^341 < 2^792` both fit.
const LIMBS: usize = 16;
type Wide = [u64; LIMBS];
/// The inverse table divides this power of two by `5^i`; it exceeds the
/// largest shift an entry needs (`791 + 125`).
const INV_NUMERATOR_BITS: u32 = 960;

const POW5_BITCOUNT: i32 = 125;
const POW5_INV_BITCOUNT: i32 = 125;
const POW5_TABLE_SIZE: usize = 326;
const POW5_INV_TABLE_SIZE: usize = 342;

const fn mul5(x: &mut Wide) {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let cur = x[i] as u128 * 5 + carry;
        x[i] = cur as u64;
        carry = cur >> 64;
        i += 1;
    }
}

const fn div5(x: &mut Wide) {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let cur = (rem << 64) | x[i] as u128;
        x[i] = (cur / 5) as u64;
        rem = cur % 5;
    }
}

const fn bit_len(x: &Wide) -> u32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return i as u32 * 64 + 64 - x[i].leading_zeros();
        }
    }
    0
}

const fn limb(x: &Wide, i: usize) -> u128 {
    if i < LIMBS {
        x[i] as u128
    } else {
        0
    }
}

/// Bits `shift .. shift + 128` of `x`.
const fn bits128(x: &Wide, shift: u32) -> u128 {
    let at = (shift / 64) as usize;
    let bit = shift % 64;
    let low = limb(x, at) | (limb(x, at + 1) << 64);
    if bit == 0 {
        low
    } else {
        (low >> bit) | (limb(x, at + 2) << (128 - bit))
    }
}

/// `POW5_SPLIT[i]`: the top 125 bits of `5^i` (shifted up when `5^i` is
/// shorter).
const fn pow5_split() -> [u128; POW5_TABLE_SIZE] {
    let mut table = [0u128; POW5_TABLE_SIZE];
    let mut pow: Wide = [0; LIMBS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_TABLE_SIZE {
        let len = bit_len(&pow);
        assert!(len as i32 == pow5bits(i as i32));
        table[i] = if len >= POW5_BITCOUNT as u32 {
            bits128(&pow, len - POW5_BITCOUNT as u32)
        } else {
            bits128(&pow, 0) << (POW5_BITCOUNT as u32 - len)
        };
        mul5(&mut pow);
        i += 1;
    }
    table
}

/// `POW5_INV_SPLIT[i]`: `⌊2^(len(5^i) − 1 + 125) / 5^i⌋ + 1`.
const fn pow5_inv_split() -> [u128; POW5_INV_TABLE_SIZE] {
    let mut table = [0u128; POW5_INV_TABLE_SIZE];
    let mut pow: Wide = [0; LIMBS];
    pow[0] = 1;
    let mut inv: Wide = [0; LIMBS];
    inv[(INV_NUMERATOR_BITS / 64) as usize] = 1;
    let mut i = 0;
    while i < POW5_INV_TABLE_SIZE {
        let shift = bit_len(&pow) - 1 + POW5_INV_BITCOUNT as u32;
        table[i] = bits128(&inv, INV_NUMERATOR_BITS - shift) + 1;
        mul5(&mut pow);
        div5(&mut inv);
        i += 1;
    }
    table
}

static POW5_SPLIT: [u128; POW5_TABLE_SIZE] = pow5_split();
static POW5_INV_SPLIT: [u128; POW5_INV_TABLE_SIZE] = pow5_inv_split();

/// `"00" "01" … "99"`: two decimal digits per lookup.
const fn digit_pairs() -> [u8; 200] {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
}

static DIGIT_PAIRS: [u8; 200] = digit_pairs();

/// `ceil(log2(5^e))`, 1 for `e = 0`; exact for `0 <= e <= 3528`.
const fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))`; exact for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))`; exact for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_power_of_5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `(m * mul) >> j` for `m < 2^55`, `mul < 2^126` and `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let b0 = u128::from(m) * u128::from(mul as u64);
    let b2 = u128::from(m) * (mul >> 64);
    (((b0 >> 64) + b2) >> (j - 64)) as u64
}

/// Shortest decimal `(digits, exponent)` with `digits × 10^exponent`
/// reading back as the finite non-zero double of the given fields.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - 1023 - 52 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - 1023 - 52 - 2,
            (1u64 << 52) | ieee_mantissa,
        )
    };
    let accept_bounds = m2 & 1 == 0;

    // The rounding interval, in units of 2^e2: (mv − 1 − mm_shift, mv + 2).
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // Scale the interval to a power of ten.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let j = -e2 + q as i32 + k;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // Only one of mp, mv and mm can be a multiple of 5, if any.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            // mm ends in one zero bit iff mm_shift, mp always ends in one.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds more than one value. A
    // value exactly half way between two shortest candidates takes the
    // upper one — where `format!` differs from Ryū's round-half-even.
    let mut removed = 0i32;
    let output;
    if vm_is_trailing_zeros {
        // Rare: the lower bound itself may be the shortest digits.
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm % 10 == 0 {
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        let below_interval = vr == vm && !vm_is_trailing_zeros;
        output = vr + u64::from(below_interval || last_removed_digit >= 5);
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        output = vr + u64::from(vr == vm || round_up);
    }
    (output, e10 + removed)
}

/// Writes the decimal digits of `v` so that they end at `buf[end]`
/// (exclusive), two at a time; returns where they start.
fn write_digits(buf: &mut [u8], mut end: usize, mut v: u64) -> usize {
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        end -= 1;
        buf[end] = b'0' + v as u8;
    }
    end
}

/// Appends `n` in decimal — the bytes of `n.to_string()`.
pub fn write_u64(out: &mut Vec<u8>, n: u64) {
    let mut buf = [0u8; 20];
    let start = write_digits(&mut buf, 20, n);
    out.extend_from_slice(&buf[start..]);
}

/// Where [`write_f64`] right-aligns the digits in its scratch buffer:
/// room before for `-0.000`, room after for fifteen zeros and `.0`.
const DIGITS_END: usize = 24;

/// Appends `v` exactly as `format!("{v:?}")` renders it.
pub fn write_f64(out: &mut Vec<u8>, v: f64) {
    let bits = v.to_bits();
    let negative = bits >> 63 != 0;
    let ieee_mantissa = bits & ((1u64 << 52) - 1);
    let ieee_exponent = ((bits >> 52) & 0x7ff) as u32;
    if ieee_exponent == 0x7ff {
        out.extend_from_slice(match (ieee_mantissa != 0, negative) {
            (true, _) => b"NaN",
            (false, false) => b"inf",
            (false, true) => b"-inf",
        });
        return;
    }
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.extend_from_slice(if negative { b"-0.0" } else { b"0.0" });
        return;
    }
    let (digits, exponent) = shortest(ieee_mantissa, ieee_exponent);
    let mut buf = [0u8; 48];
    let start = write_digits(&mut buf, DIGITS_END, digits);
    let len = (DIGITS_END - start) as i32;
    // The decimal point sits after the first `point` digits.
    let point = len + exponent;
    let abs = f64::from_bits(bits & !(1u64 << 63));
    let mut begin = start;
    let mut end = DIGITS_END;
    if (1e-4..1e16).contains(&abs) {
        if point <= 0 {
            // 0.00ddd
            begin = start - 2 - (-point) as usize;
            buf[begin..start].fill(b'0');
            buf[begin + 1] = b'.';
        } else if exponent >= 0 {
            // ddd00.0
            end += exponent as usize;
            buf[DIGITS_END..end].fill(b'0');
            buf[end..end + 2].copy_from_slice(b".0");
            end += 2;
        } else {
            // dd.ddd
            let point = point as usize;
            begin = start - 1;
            buf.copy_within(start..start + point, begin);
            buf[begin + point] = b'.';
        }
    } else {
        // d.dddde-x, or de-x for a single digit
        if len > 1 {
            begin = start - 1;
            buf[begin] = buf[start];
            buf[start] = b'.';
        }
        buf[end] = b'e';
        end += 1;
        let e = point - 1;
        if e < 0 {
            buf[end] = b'-';
            end += 1;
        }
        let e = u64::from(e.unsigned_abs());
        let width = 1 + usize::from(e >= 10) + usize::from(e >= 100);
        end += width;
        write_digits(&mut buf, end, e);
    }
    if negative {
        begin -= 1;
        buf[begin] = b'-';
    }
    out.extend_from_slice(&buf[begin..end]);
}
