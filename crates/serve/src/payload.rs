//! The `QUERY` payload parser: one pass over the bytes after `<d>` that
//! finds each float and converts it in the same loop.
//!
//! The tokens are what `split_ascii_whitespace` would hand out (the
//! separators are exactly [`u8::is_ascii_whitespace`], so `\x0B` is part
//! of a token), and every value is bit for bit what `str::parse::<f64>`
//! returns on that token. A token in the fast path's grammar
//!
//! ```text
//! -? [0-9]+ ( . [0-9]+ )? ( [eE] [+-]? [0-9]+ )?
//! ```
//!
//! with at most 19 significant digits (leading zeros do not count) and a
//! decimal exponent `q` in [−27, 55] (the value is `w · 10^q` for an
//! integer `w`) is converted here: digits are accumulated as they are
//! read, 8 bytes at a time (SWAR), and `w · 10^q` is rounded
//! to the nearest `f64` by the Eisel–Lemire algorithm (Lemire, "Number
//! Parsing at a Gigabyte per Second", 2021) with a 128-bit power-of-five
//! table that a `const fn` computes. In that range the algorithm is exact
//! and needs no slow path: the result is the correctly rounded value,
//! which is also what `str::parse` returns. `q` ∈ [−27, 55] with
//! `w < 2^64` also keeps every result a normal number.
//!
//! Anything else — more digits, a wider exponent, `inf`/`nan`, a `+` or
//! `.5` form, a non-ASCII byte, or a malformed token — goes to
//! `str::parse` on the token's `&str`, so its value and its error text
//! are unchanged. Such a token costs the fast path's attempt on top of
//! `str::parse` (up to ≈ 1.35× the old per-float time on a payload of
//! nothing else, EXPERIMENTS.md "Bulk QUERY in one pass"); `{:?}`-printed
//! floats of magnitude 10⁻¹¹ to 10⁵⁶ are all in the fast path.

/// Parse exactly `total` floats off the front of `payload` (the line
/// after `QUERY <model> <m> <d>`) with the `QUERY` error contract:
/// `QUERY: missing value <i>` when the payload runs out, `QUERY: value
/// <i>: <parse error>` for a token `str::parse` rejects. Tokens after the
/// `total`-th are not read.
///
/// Pre-reservation is capped: a bogus header like `m=10^9` must fail on
/// the missing payload tokens, not abort the process in the allocator —
/// real growth is bounded by bytes actually received on the line.
pub fn parse_query_values(payload: &str, total: usize) -> Result<Vec<f64>, String> {
    let b = payload.as_bytes();
    let mut q = Vec::with_capacity(total.min(64 * 1024));
    let mut pos = 0;
    for i in 0..total {
        while b.get(pos).is_some_and(u8::is_ascii_whitespace) {
            pos += 1;
        }
        if pos == b.len() {
            return Err(format!("QUERY: missing value {i}"));
        }
        let start = pos;
        let x = match fast_float(b, &mut pos) {
            Some(x) if b.get(pos).is_none_or(u8::is_ascii_whitespace) => x,
            _ => {
                // `fast_float` stopped inside the token or at its end, so
                // the end is searched for from there. Token ends sit next
                // to ASCII bytes (or the end), so the slice is on char
                // boundaries.
                pos =
                    b[pos..].iter().position(u8::is_ascii_whitespace).map_or(b.len(), |n| pos + n);
                payload[start..pos].parse().map_err(|e| format!("QUERY: value {i}: {e}"))?
            }
        };
        q.push(x);
    }
    Ok(q)
}

/// Convert the fast-path token starting at `b[*pos]` (not whitespace),
/// leaving `*pos` just past what it read, which is never past the token's
/// end. `None` when the token is outside the fast path; the caller hands
/// such a token, or one that `*pos` did not end, to `str::parse`.
fn fast_float(b: &[u8], pos: &mut usize) -> Option<f64> {
    let mut i = *pos;
    let neg = b[i] == b'-';
    i += usize::from(neg);
    let int_start = i;
    // Past 19 digits `w` wraps; the digit count below sends such a token
    // to the fallback before `w` is used.
    let mut w = 0u64;
    let n_int = read_digits(b, &mut i, &mut w);
    if n_int == 0 {
        return None;
    }
    let mut n_frac = 0;
    if b.get(i) == Some(&b'.') {
        i += 1;
        n_frac = read_digits(b, &mut i, &mut w);
        if n_frac == 0 {
            return None;
        }
    }
    if n_int + n_frac > 19 && significant_digits(&b[int_start..i]) > 19 {
        *pos = i;
        return None;
    }
    let mut exp = 0i64;
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        let exp_neg = b.get(i) == Some(&b'-');
        i += usize::from(matches!(b.get(i), Some(b'-' | b'+')));
        let exp_start = i;
        while let Some(d) = digit(b, i) {
            // Saturate well past the fast range, so long exponents cannot
            // overflow; they go to the fallback either way.
            if exp < 1 << 16 {
                exp = exp * 10 + d as i64;
            }
            i += 1;
        }
        if i == exp_start {
            return None;
        }
        if exp_neg {
            exp = -exp;
        }
    }
    *pos = i;
    if w == 0 {
        return Some(if neg { -0.0 } else { 0.0 });
    }
    let q = exp - n_frac as i64;
    if !(MIN_Q..=MAX_Q).contains(&q) {
        return None;
    }
    Some(f64::from_bits(eisel_lemire(q, w) | u64::from(neg) << 63))
}

/// The decimal digit at `b[i]`, if there is one.
#[inline(always)]
fn digit(b: &[u8], i: usize) -> Option<u64> {
    let d = b.get(i)?.wrapping_sub(b'0');
    (d < 10).then_some(u64::from(d))
}

/// Digits of a mantissa (`[0-9]+ (. [0-9]+)?`) that follow its leading
/// zeros.
fn significant_digits(mantissa: &[u8]) -> usize {
    mantissa.iter().filter(|c| **c != b'.').skip_while(|c| **c == b'0').count()
}

/// Append the run of ASCII digits at `b[*i..]` to `w` (wrapping) and
/// step `*i` past it; returns the run's length. Eight bytes are loaded at
/// a time: the run's length within them is the position of the first
/// non-digit byte, and that many digits convert in one step.
#[inline(always)]
fn read_digits(b: &[u8], i: &mut usize, w: &mut u64) -> usize {
    let start = *i;
    while let Some(chunk) = b.get(*i..*i + 8) {
        let v = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        let n = digit_run(v);
        if n == 0 {
            break;
        }
        // The n digits to the top bytes, '0's below them.
        let v = if n == 8 { v } else { v << (64 - 8 * n) | ZEROS >> (8 * n) };
        *w = w.wrapping_mul(POW10[n]).wrapping_add(parse_8digits(v));
        *i += n;
        if n < 8 {
            return *i - start;
        }
    }
    // Under 8 bytes left: one at a time.
    while let Some(d) = digit(b, *i) {
        *w = w.wrapping_mul(10).wrapping_add(d);
        *i += 1;
    }
    *i - start
}

/// Eight ASCII `'0'`s.
const ZEROS: u64 = 0x3030_3030_3030_3030;

/// `10^n` for `n` in 0..=8.
const POW10: [u64; 9] = {
    let mut t = [1u64; 9];
    let mut n = 1;
    while n < 9 {
        t[n] = t[n - 1] * 10;
        n += 1;
    }
    t
};

/// How many of the 8 bytes of `v` (loaded little-endian) are ASCII
/// digits before the first one that is not. A byte's test is exact when
/// every byte before it is a digit, since no carry or borrow then reaches
/// it; bytes after the first non-digit do not matter.
#[inline(always)]
fn digit_run(v: u64) -> usize {
    let non_digit =
        (v.wrapping_add(0x4646_4646_4646_4646) | v.wrapping_sub(ZEROS)) & 0x8080_8080_8080_8080;
    (non_digit.trailing_zeros() / 8) as usize
}

/// The value of 8 ASCII digits loaded little-endian (first digit in the
/// low byte): pairs, then quads, then the whole, in three multiplies.
#[inline(always)]
fn parse_8digits(v: u64) -> u64 {
    const MASK: u64 = 0x0000_00FF_0000_00FF;
    const MUL1: u64 = 0x000F_4240_0000_0064; // 100 + (1_000_000 << 32)
    const MUL2: u64 = 0x0000_2710_0000_0001; // 1 + (10_000 << 32)
    let v = v - ZEROS;
    let v = v * 10 + (v >> 8);
    let v1 = (v & MASK).wrapping_mul(MUL1);
    let v2 = ((v >> 16) & MASK).wrapping_mul(MUL2);
    u64::from((v1.wrapping_add(v2) >> 32) as u32)
}

/// The decimal exponents the fast path converts. Below −27 a 128-bit
/// power of five is not exact enough to round every input without a slow
/// path; above 55, `5^q` no longer fits 128 bits.
const MIN_Q: i64 = -27;
const MAX_Q: i64 = 55;

/// `5^q` for `q` in [`MIN_Q`, `MAX_Q`], normalized to 128 bits (top bit
/// set) as `(high, low)` words: exact for `q ≥ 0`, and for `q < 0` the
/// quotient `⌊2^(b+127) / 5^−q⌋ + 1`, `b` the bit length of `5^−q`
/// (the table of Lemire's paper, restricted to this range).
static POW5: [(u64, u64); (MAX_Q - MIN_Q + 1) as usize] = pow5_table();

const fn pow5_table() -> [(u64, u64); (MAX_Q - MIN_Q + 1) as usize] {
    let mut table = [(0, 0); (MAX_Q - MIN_Q + 1) as usize];
    let mut q = MIN_Q;
    while q <= MAX_Q {
        let mut p = 1u128;
        let mut n = 0;
        while n < q.unsigned_abs() {
            p *= 5;
            n += 1;
        }
        let v = if q >= 0 {
            p << p.leading_zeros()
        } else {
            // Long division of 2^(b+127) by p < 2^63, one quotient bit a
            // step; the quotient lies in [2^127, 2^128).
            let shift = 128 - p.leading_zeros() + 127;
            let (mut quot, mut rem) = (0u128, 1u128);
            let mut k = 0;
            while k < shift {
                rem <<= 1;
                quot <<= 1;
                if rem >= p {
                    rem -= p;
                    quot |= 1;
                }
                k += 1;
            }
            quot + 1
        };
        table[(q - MIN_Q) as usize] = ((v >> 64) as u64, v as u64);
        q += 1;
    }
    table
}

/// The bits of the `f64` nearest to `w · 10^q` (ties to even), for
/// `w > 0` and `q` in [`MIN_Q`, `MAX_Q`]: Eisel–Lemire, as in Rust's
/// `core::num::dec2flt::lemire` with its slow-path exits, which this range
/// never takes, left out.
fn eisel_lemire(q: i64, w: u64) -> u64 {
    const MANTISSA_BITS: i32 = 52;
    // The product's top bits kept: mantissa, hidden bit, a rounding bit,
    // and one for a leading zero of the product.
    const PRECISION_MASK: u64 = u64::MAX >> (MANTISSA_BITS + 3);
    let lz = w.leading_zeros();
    let w = w << lz;
    let (hi5, lo5) = POW5[(q - MIN_Q) as usize];
    let (mut lo, mut hi) = mul_128(w, hi5);
    if hi & PRECISION_MASK == PRECISION_MASK {
        // The truncated low bits could carry into the kept ones: add the
        // second word's product (exact in this range, as 5^q < 2^128).
        let (_, carry) = mul_128(w, lo5);
        lo = lo.wrapping_add(carry);
        if carry > lo {
            hi += 1;
        }
    }
    let upper_bit = (hi >> 63) as i32;
    let shift = upper_bit + 64 - MANTISSA_BITS - 3;
    let mut mantissa = hi >> shift;
    // ⌊log2(10^q)⌋ + 63 + the product's normalization, biased by 1023.
    let mut power2 =
        ((q as i32).wrapping_mul(152_170 + 65_536) >> 16) + 63 + upper_bit - lz as i32 + 1023;
    debug_assert!(power2 > 0, "the fast range holds no subnormal");
    // Exactly halfway between two floats (only possible for q in [−4, 23],
    // where the product is exact): round to even, i.e. down if the kept
    // bit is odd.
    if lo <= 1 && (-4..=23).contains(&q) && mantissa & 3 == 1 && mantissa << shift == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << MANTISSA_BITS {
        // Rounding carried into a new bit.
        mantissa = 1 << MANTISSA_BITS;
        power2 += 1;
    }
    mantissa &= !(1 << MANTISSA_BITS);
    (power2 as u64) << MANTISSA_BITS | mantissa
}

/// The full 128-bit product of `a` and `b`, as `(low, high)` words.
#[inline(always)]
fn mul_128(a: u64, b: u64) -> (u64, u64) {
    let r = u128::from(a) * u128::from(b);
    (r as u64, (r >> 64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(q: i64) -> u128 {
        let (hi, lo) = POW5[(q - MIN_Q) as usize];
        u128::from(hi) << 64 | u128::from(lo)
    }

    #[test]
    fn the_power_table_is_lemires() {
        assert_eq!(entry(0), 1 << 127);
        assert_eq!(entry(-1), 0xcccc_cccc_cccc_cccc_cccc_cccc_cccc_cccd);
        assert_eq!(entry(-2), 0xa3d7_0a3d_70a3_d70a_3d70_a3d7_0a3d_70a4);
        for q in 0..=MAX_Q {
            let p = 5u128.pow(q as u32);
            assert_eq!(entry(q), p << p.leading_zeros(), "5^{q}");
        }
        // For q < 0 the entry v satisfies (v − 1)·p ≤ 2^(b+127) < v·p,
        // checked in 192-bit arithmetic as (high 128, low 64) pairs.
        let times = |v: u128, p: u64| {
            let low = (v as u64 as u128) * u128::from(p);
            ((v >> 64) * u128::from(p) + (low >> 64), low as u64)
        };
        for q in MIN_Q..0 {
            let p = 5u64.pow(q.unsigned_abs() as u32);
            let pow2 = (1u128 << (64 - p.leading_zeros() + 127 - 64), 0u64);
            let v = entry(q);
            assert!(v >> 127 == 1, "5^{q} is normalized");
            assert!(times(v - 1, p) <= pow2 && pow2 < times(v, p), "5^{q}");
        }
    }

    #[test]
    fn every_fast_exponent_rounds_like_str_parse() {
        // w·10^q for every q in the fast range, w from 1 to 19 digits
        // (round-to-even halfway cases included: 2^53 + 1).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut ws = vec![1, 9_007_199_254_740_993, 9_999_999_999_999_999_999, u64::MAX / 10];
        for _ in 0..300 {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ws.push((state >> (state % 60)) % 10_000_000_000_000_000_000 + 1);
        }
        for q in MIN_Q..=MAX_Q {
            for &w in &ws {
                let text = format!("{w}e{q}");
                let want: f64 = text.parse().unwrap();
                assert_eq!(f64::from_bits(eisel_lemire(q, w)).to_bits(), want.to_bits(), "{text}");
            }
        }
    }

    #[test]
    fn eight_digits_at_a_time() {
        let load = |s: &[u8; 8]| u64::from_le_bytes(*s);
        assert_eq!(digit_run(load(b"01234567")), 8);
        assert_eq!(digit_run(load(b"012 4567")), 3);
        assert_eq!(parse_8digits(load(b"01234567")), 1_234_567);
        assert_eq!(parse_8digits(load(b"99999999")), 99_999_999);
        for bad in
            [b"0123456/", b"0123456:", b"a1234567", b"1234 678", b"\xb91234567", b"\xff1234567"]
        {
            assert!(digit_run(load(bad)) < 8, "{bad:?}");
        }
    }
}
