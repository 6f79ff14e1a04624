//! The §3.3 power-sum neighborhood code and its decoders.
//!
//! A node `x` with neighborhood `N(x) ⊆ {1..n}` encodes its neighbors as the
//! vector `b(x) = A(k,n)·x` where `A_{p,i} = i^p`, i.e. the `k` power sums
//! `b_p = Σ_{w∈N(x)} ID(w)^p`, `p = 1..k`. By Wright's theorem (the paper's
//! Theorem 1, "equal sums of like powers"), the power sums of a set of at most
//! `k` distinct positive integers determine the set uniquely — so any node of
//! degree ≤ k can be decoded exactly.
//!
//! On the whiteboard, field `p` is [`power_sum_field_bits`]`(n, p)` bits
//! wide, low 64 bits first. [`write_power_sums`] writes the `k` fields;
//! [`read_power_sums`] and [`read_power_sums_i128`] read them back.
//!
//! **Two widths, one answer.** When the widest field,
//! `power_sum_field_bits(n, k)`, is at most 127 bits ([`fits_i128`]) every
//! field fits an `i128`, and so does every running sum Algorithm 1's peel
//! subtracts from it: a node is subtracted from at most its degree
//! (`< 2^bits(n)`) times, by at most `n^p` each time, so `|b_p| <
//! 2^{(p+1)·bits(n)}`. On that path the encoder sums in `u128` and the
//! referee peels with `i128` subtraction and [`NewtonDecoder::decode_i128`].
//! Wider fields use heap [`BigInt`]s, which also stay the differential
//! reference for the fixed path. Both are exact and write the same bits.
//!
//! Two decoders are provided:
//!
//! - [`NewtonDecoder`] — the production decoder: Newton's identities convert the
//!   power sums `p_1..p_d` into elementary symmetric polynomials `e_1..e_d`; the
//!   neighbor IDs are then the integer roots of
//!   `x^d − e₁x^{d−1} + e₂x^{d−2} − … ± e_d`. For `d ≤ 2` — the only degrees
//!   Algorithm 1 decodes when `k ≤ 2`, and the bulk tier's hot path — the
//!   roots come out in closed form (`O(1)`: exact integer discriminant +
//!   square root); higher degrees fall back to trial synthetic division over
//!   the candidates `1..=n` (`O(n·d)` bignum operations). No preprocessing.
//!   [`NewtonDecoder::decode_i128`] is the same decoder on fixed-width sums:
//!   checked `i128` arithmetic for `d ≤ 2`, and [`NewtonDecoder::decode`] for
//!   everything else.
//! - [`LookupDecoder`] — the paper's literal Lemma 2 construction: a
//!   precomputed table of all `≤ k`-subsets of `{1..n}` keyed by their power-sum
//!   vector. `O(n^k)` space, `O(k log n)`-ish lookups; used to cross-validate
//!   the Newton decoder on small instances.
//!
//! Both decoders return `None` for vectors that are not the image of any
//! `≤ k`-subset; the BUILD protocol uses this for its *robust rejection* of
//! graphs that are not `k`-degenerate (Theorem 2's recognition variant).

use crate::bigint::BigInt;
use crate::bitio::{BitReader, BitWriter};
use std::collections::HashMap;

/// Compute the power sums `p = 1..=k` of a set of IDs.
///
/// This is the message body of the §3.3 protocol (`b(x) = A(k,n)·x`).
///
/// ```
/// use wb_math::powersum::{power_sums, NewtonDecoder};
///
/// let sums = power_sums(&[3, 19, 42], 3);
/// assert_eq!(sums[0].to_u64(), Some(3 + 19 + 42));
/// // Wright's theorem: the sums identify the set uniquely — and the
/// // decoder recovers it.
/// let decoder = NewtonDecoder::new(100);
/// assert_eq!(decoder.decode(&sums, 3), Some(vec![3, 19, 42]));
/// ```
pub fn power_sums(ids: &[u32], k: usize) -> Vec<BigInt> {
    let mut sums = vec![BigInt::zero(); k];
    for &id in ids {
        debug_assert!(id >= 1, "IDs are 1-based");
        let mut pw = BigInt::one();
        let base = BigInt::from(id);
        for s in sums.iter_mut() {
            pw = &pw * &base;
            *s += &pw;
        }
    }
    sums
}

/// Add `id`'s contribution to an existing power-sum vector (incremental encode).
pub fn add_neighbor(sums: &mut [BigInt], id: u32) {
    let mut pw = BigInt::one();
    let base = BigInt::from(id);
    for s in sums.iter_mut() {
        pw = &pw * &base;
        *s += &pw;
    }
}

/// Remove `id`'s contribution from a power-sum vector.
///
/// This is the whiteboard update of Algorithm 1: when the output function prunes
/// node `x`, each neighbor's tuple is updated "according to the removal of `x`".
pub fn remove_neighbor(sums: &mut [BigInt], id: u32) {
    let mut pw = BigInt::one();
    let base = BigInt::from(id);
    for s in sums.iter_mut() {
        pw = &pw * &base;
        *s -= &pw;
    }
}

/// Upper bound (in bits) of the `p`-th power sum over `{1..n}`: `n·n^p = n^{p+1}`.
///
/// Used to size the fixed-width message fields; summing over `p = 1..k` gives
/// Lemma 1's `k(k+1)·log n` bound.
pub fn power_sum_field_bits(n: usize, p: u32) -> u32 {
    // bits(n^{p+1}) ≤ (p+1)·bits(n)
    (p + 1) * crate::bits_for(n as u64)
}

/// Total bits for the `b(x)` vector, `Σ_{p=1..k} bits(n^{p+1})`, or `None`
/// when that exceeds `u32::MAX` (the width of every message budget).
///
/// Exact for every `k`: the closed form `bits(n)·k(k+3)/2` is evaluated in
/// checked `u128` arithmetic, never on a truncated `k`.
pub fn power_sum_vector_bits(n: usize, k: usize) -> Option<u32> {
    let k = k as u128;
    // Σ_{p=1..k} (p+1) = k(k+3)/2.
    let fields = k.checked_mul(k + 3)? / 2;
    u32::try_from(fields.checked_mul(crate::bits_for(n as u64) as u128)?).ok()
}

/// Widest power-sum field the fixed-width path carries (see the module docs).
const FIXED_FIELD_BITS: u32 = 127;

/// Whether `k` power sums over `{1..n}` take the fixed-width path: the widest
/// field, `power_sum_field_bits(n, k)`, is at most 127 bits. Decided on the
/// full `k`, never a truncated one.
pub fn fits_i128(n: usize, k: usize) -> bool {
    (k as u128 + 1) * crate::bits_for(n as u64) as u128 <= FIXED_FIELD_BITS as u128
}

/// Append the `k` power sums of `ids ⊆ {1..n}` as `k` message fields: field
/// `p` is `power_sum_field_bits(n, p)` bits wide, low 64 bits first (the
/// layout of [`BitWriter::write_big`]). Sums in `u128` when [`fits_i128`],
/// in [`BigInt`]s otherwise; the bits are the same either way.
pub fn write_power_sums(w: &mut BitWriter, ids: &[u32], n: usize, k: usize) {
    if !fits_i128(n, k) {
        for (idx, s) in power_sums(ids, k).iter().enumerate() {
            w.write_big(s, power_sum_field_bits(n, idx as u32 + 1));
        }
        return;
    }
    for p in 1..=k as u32 {
        // Σ ID^p ≤ (n−1)·n^p < 2^{(p+1)·bits(n)} ≤ 2^127: no overflow.
        let s: u128 = ids.iter().map(|&id| (id as u128).pow(p)).sum();
        let width = power_sum_field_bits(n, p);
        assert!(s >> width == 0, "power sum needs more than {width} bits");
        w.write_bits(s as u64, width.min(64));
        if width > 64 {
            w.write_bits((s >> 64) as u64, width - 64);
        }
    }
}

/// Read `out.len()` fields written by [`write_power_sums`] into [`BigInt`]s.
pub fn read_power_sums(r: &mut BitReader<'_>, n: usize, out: &mut [BigInt]) {
    for (idx, s) in out.iter_mut().enumerate() {
        *s = r.read_big(power_sum_field_bits(n, idx as u32 + 1));
    }
}

/// Read `out.len()` fields written by [`write_power_sums`] into `i128`s.
/// Panics unless every field is at most 127 bits wide, which
/// [`fits_i128`]`(n, out.len())` guarantees.
pub fn read_power_sums_i128(r: &mut BitReader<'_>, n: usize, out: &mut [i128]) {
    for (idx, s) in out.iter_mut().enumerate() {
        let width = power_sum_field_bits(n, idx as u32 + 1);
        assert!(
            width <= FIXED_FIELD_BITS,
            "a {width}-bit field does not fit an i128"
        );
        let low = r.read_bits(width.min(64)) as u128;
        let high = if width > 64 {
            r.read_bits(width - 64) as u128
        } else {
            0
        };
        *s = (high << 64 | low) as i128;
    }
}

/// Production decoder: Newton's identities + integer root extraction.
#[derive(Clone, Debug)]
pub struct NewtonDecoder {
    n: usize,
}

/// Exact integer square root (largest `x` with `x² ≤ v`).
fn isqrt_u128(v: u128) -> u128 {
    if v == 0 {
        return 0;
    }
    // Float seed, then clamp to exactness in both directions: for v near
    // 2¹²⁸ the f64 rounding error can put the seed on either side of the
    // true root (and integer Newton only converges from above), so correct
    // upward first, then downward.
    let mut x = (v as f64).sqrt() as u128 + 1;
    loop {
        let y = (x + v / x) / 2;
        if y >= x {
            break;
        }
        x = y;
    }
    while (x + 1).checked_mul(x + 1).is_some_and(|sq| sq <= v) {
        x += 1;
    }
    while x.checked_mul(x).map_or(true, |sq| sq > v) {
        x -= 1;
    }
    x
}

impl NewtonDecoder {
    /// Decoder for ID domain `{1..n}`.
    pub fn new(n: usize) -> Self {
        NewtonDecoder { n }
    }

    /// The root of `P(x) = x − e₁`, if it is an ID in `1..=n`.
    fn linear_root(&self, e1: u64) -> Option<Vec<u32>> {
        (e1 >= 1 && e1 <= self.n as u64).then(|| vec![e1 as u32])
    }

    /// The roots of `P(x) = x² − s·x + prod`, if they are two distinct IDs in
    /// `1..=n`.
    fn quadratic_roots(&self, s: u64, prod: u64) -> Option<Vec<u32>> {
        // Negative discriminant: complex roots, an invalid image.
        let disc = ((s as u128) * (s as u128)).checked_sub(4 * prod as u128)?;
        let sq = isqrt_u128(disc);
        if sq * sq != disc || sq == 0 || !(s as u128 + sq).is_multiple_of(2) {
            // Not a perfect square (irrational roots), a double root (IDs
            // are distinct), or non-integer roots.
            return None;
        }
        let r1 = (s as u128 - sq) / 2;
        let r2 = (s as u128 + sq) / 2;
        (r1 >= 1 && r2 <= self.n as u128).then(|| vec![r1 as u32, r2 as u32])
    }

    /// [`Self::decode`] on fixed-width sums, with the same answer on every
    /// input.
    ///
    /// Degrees `d ≤ 2` run Newton's identities (`e₁ = p₁`, `e₂ = (p₁² −
    /// p₂)/2`) in checked `i128` arithmetic and extract the roots in closed
    /// form. Any overflow, every `d ≥ 3`, and every case the closed form does
    /// not settle go to [`Self::decode`] on [`BigInt`] copies of the sums.
    pub fn decode_i128(&self, sums: &[i128], degree: usize) -> Option<Vec<u32>> {
        match degree {
            0 => return sums.iter().all(|&s| s == 0).then(Vec::new),
            // e₁ = p₁: a negative or oversized one is no ID either way.
            1 => return self.linear_root(u64::try_from(sums[0]).ok()?),
            2 => {
                // e₂ = (p₁² − p₂)/2 must be an integer (and non-negative,
                // which the u64 conversion below checks).
                let twice_e2 = sums[0]
                    .checked_mul(sums[0])
                    .and_then(|sq| sq.checked_sub(sums[1]));
                if let Some(twice_e2) = twice_e2 {
                    if twice_e2 % 2 != 0 {
                        return None;
                    }
                    if let (Ok(s), Ok(prod)) = (u64::try_from(sums[0]), u64::try_from(twice_e2 / 2))
                    {
                        return self.quadratic_roots(s, prod);
                    }
                }
            }
            _ => {}
        }
        let big: Vec<BigInt> = sums.iter().map(|&s| BigInt::from(s)).collect();
        self.decode(&big, degree)
    }

    /// Recover the unique set of `degree` distinct IDs in `1..=n` whose power
    /// sums are `sums[0..degree]` (`sums[p-1]` = p-th power sum). Returns
    /// `None` if no such set exists.
    ///
    /// Requires `sums.len() >= degree`.
    pub fn decode(&self, sums: &[BigInt], degree: usize) -> Option<Vec<u32>> {
        let d = degree;
        assert!(
            sums.len() >= d,
            "need at least {d} power sums, got {}",
            sums.len()
        );
        if d == 0 {
            return if sums.iter().all(|s| s.is_zero()) {
                Some(Vec::new())
            } else {
                None
            };
        }
        // Newton's identities: e_m = (1/m)·Σ_{i=1..m} (−1)^{i−1} e_{m−i} p_i.
        let mut e = Vec::with_capacity(d + 1);
        e.push(BigInt::one()); // e_0
        for m in 1..=d {
            let mut acc = BigInt::zero();
            for i in 1..=m {
                let term = &e[m - i] * &sums[i - 1];
                if i % 2 == 1 {
                    acc += &term;
                } else {
                    acc -= &term;
                }
            }
            let (q, r) = acc.div_rem_u64(m as u64);
            if r != 0 {
                return None; // not an integer symmetric function: invalid image
            }
            if q.is_negative() {
                return None; // elementary symmetric of positive roots must be ≥ 0
            }
            e.push(q);
        }
        // Closed-form fast paths for d ≤ 2 — the degrees Algorithm 1
        // actually decodes when k ≤ 2, and the hot path of the bulk tier's
        // BUILD referee: root extraction in O(1) instead of the O(n)
        // candidate scan below (at n = 10⁵ that is the difference between
        // an O(n)- and an O(n²)-time output function). Every rejection the
        // scan would produce (non-integer, out-of-range, repeated or
        // missing roots) is reproduced exactly.
        if d == 1 {
            return self.linear_root(e[1].to_u64()?);
        }
        if d == 2 {
            if let (Some(s), Some(prod)) = (e[1].to_u64(), e[2].to_u64()) {
                return self.quadratic_roots(s, prod);
            }
            // Sums past u64 (gigantic n): fall through to the general scan.
        }
        // Monic polynomial with the neighbor IDs as roots:
        //   P(x) = Σ_{j=0..d} (−1)^j e_j x^{d−j};   coeffs[i] = coefficient of x^i.
        let mut coeffs: Vec<BigInt> = (0..=d)
            .map(|i| {
                let j = d - i;
                if j % 2 == 0 {
                    e[j].clone()
                } else {
                    -e[j].clone()
                }
            })
            .collect();
        let mut roots = Vec::with_capacity(d);
        let mut deg = d;
        'candidates: for r in 1..=self.n as u64 {
            if deg == 0 {
                break;
            }
            // Quick filter: r must divide the (nonzero) constant term.
            if !coeffs[0].is_zero() {
                let (_, rem) = coeffs[0].div_rem_u64(r);
                if rem != 0 {
                    continue 'candidates;
                }
            } else {
                // 0 is a root of the remaining polynomial, but 0 is not a valid
                // ID — the image is invalid.
                return None;
            }
            // Horner evaluation at r.
            let rb = BigInt::from(r);
            let mut val = coeffs[deg].clone();
            for i in (0..deg).rev() {
                val = &(&val * &rb) + &coeffs[i];
            }
            if val.is_zero() {
                // Synthetic division by (x − r): roots are distinct, so each
                // candidate divides at most once.
                let mut next = vec![BigInt::zero(); deg];
                next[deg - 1] = coeffs[deg].clone();
                for i in (0..deg - 1).rev() {
                    next[i] = &(&next[i + 1] * &rb) + &coeffs[i + 1];
                }
                coeffs = next;
                deg -= 1;
                roots.push(r as u32);
            }
        }
        if deg != 0 {
            return None; // fewer than d roots in {1..n}: invalid image
        }
        Some(roots) // ascending by construction
    }
}

/// The paper's Lemma 2 lookup table: all `≤ k`-subsets of `{1..n}` indexed by
/// their power-sum vectors.
pub struct LookupDecoder {
    n: usize,
    k: usize,
    table: HashMap<Vec<BigInt>, Vec<u32>>,
}

impl LookupDecoder {
    /// Safety valve for the `O(n^k)` table.
    const MAX_ENTRIES: u64 = 4_000_000;

    /// Precompute the table. Panics if `Σ_{d≤k} C(n,d)` exceeds an internal
    /// limit — the lookup decoder is a small-instance cross-check; use
    /// [`NewtonDecoder`] in production.
    pub fn new(n: usize, k: usize) -> Self {
        let total: u64 = (0..=k)
            .map(|d| {
                crate::counting::binomial(n as u64, d as u64)
                    .to_u64()
                    .unwrap_or(u64::MAX)
            })
            .fold(0u64, |a, b| a.saturating_add(b));
        assert!(
            total <= Self::MAX_ENTRIES,
            "lookup table would need {total} entries (> {}); use NewtonDecoder",
            Self::MAX_ENTRIES
        );
        let mut table = HashMap::with_capacity(total as usize);
        let mut subset: Vec<u32> = Vec::with_capacity(k);
        fn rec(
            start: u32,
            n: u32,
            k: usize,
            subset: &mut Vec<u32>,
            table: &mut HashMap<Vec<BigInt>, Vec<u32>>,
        ) {
            table.insert(power_sums(subset, k), subset.clone());
            if subset.len() == k {
                return;
            }
            for next in start..=n {
                subset.push(next);
                rec(next + 1, n, k, subset, table);
                subset.pop();
            }
        }
        rec(1, n as u32, k, &mut subset, &mut table);
        LookupDecoder { n, k, table }
    }

    /// Number of stored subsets.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// ID domain size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum decodable degree.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Look up the subset with the given power sums (first `k` entries used).
    pub fn decode(&self, sums: &[BigInt], degree: usize) -> Option<Vec<u32>> {
        let key: Vec<BigInt> = sums[..self.k.min(sums.len())].to_vec();
        let found = self.table.get(&key)?;
        if found.len() != degree {
            return None;
        }
        Some(found.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn power_sums_of_empty_set_are_zero() {
        assert!(power_sums(&[], 4).iter().all(|s| s.is_zero()));
    }

    #[test]
    fn power_sums_example() {
        // {2, 3}: p1 = 5, p2 = 13, p3 = 35.
        let s = power_sums(&[2, 3], 3);
        assert_eq!(s[0].to_u64(), Some(5));
        assert_eq!(s[1].to_u64(), Some(13));
        assert_eq!(s[2].to_u64(), Some(35));
    }

    #[test]
    fn add_then_remove_is_identity() {
        let mut sums = power_sums(&[4, 9, 17], 5);
        let orig = sums.clone();
        add_neighbor(&mut sums, 23);
        remove_neighbor(&mut sums, 23);
        assert_eq!(sums, orig);
    }

    #[test]
    fn newton_decodes_known_sets() {
        let dec = NewtonDecoder::new(50);
        for set in [
            vec![],
            vec![7],
            vec![1, 2],
            vec![3, 19, 42],
            vec![1, 2, 3, 4, 5],
        ] {
            let k = set.len().max(1);
            let sums = power_sums(&set, k);
            assert_eq!(dec.decode(&sums, set.len()), Some(set.clone()), "{set:?}");
        }
    }

    #[test]
    fn newton_rejects_wrong_degree() {
        let dec = NewtonDecoder::new(50);
        let sums = power_sums(&[3, 19], 3);
        // Claiming degree 3 with the power sums of a 2-set must fail.
        assert_eq!(dec.decode(&sums, 3), None);
    }

    #[test]
    fn newton_rejects_out_of_range_roots() {
        // Sums of {3, 19} but ID domain only {1..10}.
        let dec = NewtonDecoder::new(10);
        let sums = power_sums(&[3, 19], 2);
        assert_eq!(dec.decode(&sums, 2), None);
    }

    #[test]
    fn newton_rejects_garbage() {
        let dec = NewtonDecoder::new(20);
        let sums = vec![BigInt::from(7u64), BigInt::from(8u64)];
        assert_eq!(dec.decode(&sums, 2), None);
    }

    #[test]
    fn isqrt_is_exact() {
        for v in 0u128..200 {
            let s = isqrt_u128(v);
            assert!(s * s <= v && (s + 1) * (s + 1) > v, "v = {v}");
        }
        for s in [
            1u128 << 20,
            (1 << 40) + 17,
            u64::MAX as u128,
            // Regression: near 2⁶⁰ the f64 seed of s² (≈ 2¹²⁰) can round
            // *below* the true root; the clamp must correct upward too.
            1_152_921_504_607_846_979,
            (1 << 60) - 1,
            (1 << 63) + 12_345,
        ] {
            assert_eq!(isqrt_u128(s * s), s, "s = {s}");
            assert_eq!(isqrt_u128(s * s - 1), s - 1, "s = {s}");
            assert_eq!(isqrt_u128(s * s + 1), s, "s = {s}");
        }
    }

    /// `decode_i128` must answer exactly what `decode` answers on the same
    /// values.
    fn assert_fixed_matches(dec: &NewtonDecoder, sums: &[i128], d: usize) {
        let big: Vec<BigInt> = sums.iter().map(|&s| BigInt::from(s)).collect();
        assert_eq!(
            dec.decode_i128(sums, d),
            dec.decode(&big, d),
            "sums {sums:?}, d = {d}"
        );
    }

    #[test]
    fn closed_form_small_degrees_match_brute_force_exhaustively() {
        // The d ≤ 2 fast paths must agree with an independent brute-force
        // oracle over the first d power sums — on every valid image AND on
        // every ±1 perturbation of it (the decoder, like the scan it
        // replaces, consults exactly the first d sums). The fixed-width
        // entry must answer what `decode` answers on all of them, at every
        // claimed degree d ≤ 2: that covers d = 0 with a non-zero sum past
        // index d.
        let n = 12u32;
        let newton = NewtonDecoder::new(n as usize);
        let brute = |sums: &[BigInt], d: usize| -> Option<Vec<u32>> {
            match d {
                1 => (1..=n)
                    .find(|&x| power_sums(&[x], 1) == sums[..1])
                    .map(|x| vec![x]),
                2 => {
                    for x in 1..=n {
                        for y in (x + 1)..=n {
                            if power_sums(&[x, y], 2) == sums[..2] {
                                return Some(vec![x, y]);
                            }
                        }
                    }
                    None
                }
                _ => unreachable!(),
            }
        };
        let fixed = |sums: &[BigInt]| -> Vec<i128> {
            sums.iter()
                .map(|s| s.to_i128().expect("small sums fit"))
                .collect()
        };
        let mut sets = vec![vec![]];
        for a in 1..=n {
            sets.push(vec![a]);
            sets.extend(((a + 1)..=n).map(|b| vec![a, b]));
        }
        for set in sets {
            let d = set.len();
            let sums = power_sums(&set, 2);
            assert_eq!(newton.decode(&sums, d), Some(set.clone()), "{set:?}");
            for claimed in 0..=2 {
                assert_fixed_matches(&newton, &fixed(&sums), claimed);
            }
            for which in 0..2 {
                for delta in [1i64, -1] {
                    let mut bad = sums.clone();
                    bad[which] += &BigInt::from(delta);
                    if d > 0 {
                        assert_eq!(
                            newton.decode(&bad, d),
                            brute(&bad, d),
                            "{set:?} perturbed sum {which} by {delta}"
                        );
                    }
                    for claimed in 0..=2 {
                        assert_fixed_matches(&newton, &fixed(&bad), claimed);
                    }
                }
            }
        }
    }

    #[test]
    fn fixed_decode_matches_bigint_on_edge_cases() {
        let dec = NewtonDecoder::new(30);
        let big = 1i128 << 70;
        for (sums, d) in [
            // d = 0 reads every sum, not just the first d.
            (vec![0, 0], 0),
            (vec![0, 5], 0),
            (vec![0, -5], 0),
            // Negative sums.
            (vec![-3, 9], 1),
            (vec![-3, 9], 2),
            (vec![7, -25], 2),
            (vec![-1, -1], 2),
            // e₁ past u64 without overflow: no ID, whatever its low bits.
            (vec![big, 0], 1),
            (vec![(1 << 64) + 5, 0], 1),
            // e₂ past u64: the closed form cannot settle it.
            (vec![10, -big], 2),
            // p₁² overflows i128: falls back.
            (vec![1 << 64, 0], 2),
            (vec![i128::MAX, i128::MAX], 2),
            (vec![i128::MIN, i128::MIN], 2),
            (vec![5, i128::MIN], 2),
            // d ≥ 3: falls back.
            (vec![3 + 19 + 22, 9 + 361 + 484, 27 + 6859 + 10648], 3),
            (vec![3 + 19 + 22, 9 + 361 + 484, 27 + 6859 + 10647], 3),
            (
                vec![
                    1 + 2 + 3 + 4,
                    1 + 4 + 9 + 16,
                    1 + 8 + 27 + 64,
                    1 + 16 + 81 + 256,
                ],
                4,
            ),
        ] {
            assert_fixed_matches(&dec, &sums, d);
        }
        assert_eq!(
            dec.decode_i128(&[3 + 19 + 22, 9 + 361 + 484, 27 + 6859 + 10648], 3),
            Some(vec![3, 19, 22])
        );
    }

    #[test]
    fn vector_bits_closed_form_is_exact_and_checked() {
        for n in [1usize, 2, 3, 50, 1_000, 100_000, 3_000_000] {
            for k in 0..=40usize {
                let sum: u64 = (1..=k as u32)
                    .map(|p| power_sum_field_bits(n, p) as u64)
                    .sum();
                assert_eq!(
                    power_sum_vector_bits(n, k),
                    u32::try_from(sum).ok(),
                    "n={n} k={k}"
                );
            }
        }
        // Budgets that wrapped a u32 or truncated k are refused.
        assert_eq!(power_sum_vector_bits(3, 70_000), None);
        assert_eq!(power_sum_vector_bits(50, (1 << 32) + 1), None);
        assert_eq!(power_sum_vector_bits(50, usize::MAX), None);
        assert!(power_sum_vector_bits(100_000, 20_000).is_some());
    }

    #[test]
    fn fixed_width_selection_sees_the_whole_k() {
        // 22-bit IDs: k = 4 has a 110-bit widest field, k = 5 a 132-bit one.
        assert!(fits_i128(3_000_000, 4));
        assert!(!fits_i128(3_000_000, 5));
        assert!(fits_i128(100_000, 6) && !fits_i128(100_000, 7));
        // k ≡ 1 (mod 2³²) must not pass for k = 1.
        assert!(!fits_i128(50, (1 << 32) + 1));
        assert!(!fits_i128(1, usize::MAX));
    }

    #[test]
    fn fixed_and_bigint_fields_round_trip_to_the_same_bits() {
        // Fields crossing a 64-bit word: 22-bit IDs, widths 44, 66, 88, 110.
        let n = 3_000_000usize;
        let ids: Vec<u32> = (0..40).map(|i| n as u32 - 7 * i).collect();
        let mut fixed = BitWriter::new();
        write_power_sums(&mut fixed, &ids, n, 4);
        let fixed = fixed.finish();
        let mut big = BitWriter::new();
        for (idx, s) in power_sums(&ids, 4).iter().enumerate() {
            big.write_big(s, power_sum_field_bits(n, idx as u32 + 1));
        }
        assert_eq!(fixed, big.finish());
        let mut small = [0i128; 4];
        read_power_sums_i128(&mut BitReader::new(&fixed), n, &mut small);
        let mut wide = vec![BigInt::zero(); 4];
        read_power_sums(&mut BitReader::new(&fixed), n, &mut wide);
        let expect: Vec<BigInt> = small.iter().map(|&s| BigInt::from(s)).collect();
        assert_eq!(wide, expect);
        assert_eq!(wide, power_sums(&ids, 4));
    }

    #[test]
    fn lookup_matches_newton_exhaustively_small() {
        let (n, k) = (9, 3);
        let lookup = LookupDecoder::new(n, k);
        let newton = NewtonDecoder::new(n);
        // all subsets of size ≤ 3 of {1..9}
        for mask in 0u32..(1 << n) {
            let set: Vec<u32> = (0..n as u32)
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| i + 1)
                .collect();
            if set.len() > k {
                continue;
            }
            let sums = power_sums(&set, k);
            assert_eq!(lookup.decode(&sums, set.len()).as_ref(), Some(&set));
            assert_eq!(newton.decode(&sums, set.len()).as_ref(), Some(&set));
        }
    }

    /// Wright's theorem (paper Theorem 1): the map from ≤k-subsets to power-sum
    /// vectors is injective. Checked exhaustively for a small domain.
    #[test]
    fn wright_injectivity_exhaustive() {
        let (n, k) = (10, 3);
        let mut seen: HashMap<Vec<BigInt>, Vec<u32>> = HashMap::new();
        for mask in 0u32..(1 << n) {
            let set: Vec<u32> = (0..n as u32)
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| i + 1)
                .collect();
            if set.len() > k {
                continue;
            }
            let sums = power_sums(&set, k);
            if let Some(prev) = seen.insert(sums, set.clone()) {
                panic!("power-sum collision between {prev:?} and {set:?}");
            }
        }
    }

    proptest! {
        /// Round-trip through the Newton decoder for random subsets and domains.
        #[test]
        fn newton_round_trips(
            n in 1usize..600,
            raw in proptest::collection::hash_set(1u32..=600, 0..6),
        ) {
            let set: Vec<u32> = {
                let mut v: Vec<u32> = raw.into_iter().map(|x| (x - 1) % n as u32 + 1).collect::<HashSet<_>>().into_iter().collect();
                v.sort_unstable();
                v
            };
            let k = set.len().max(1);
            let sums = power_sums(&set, k);
            let dec = NewtonDecoder::new(n);
            prop_assert_eq!(dec.decode(&sums, set.len()), Some(set));
        }

        /// Wright's theorem, randomized: distinct sets never share power sums.
        #[test]
        fn wright_no_collisions(
            a in proptest::collection::hash_set(1u32..=1000, 1..6),
            b in proptest::collection::hash_set(1u32..=1000, 1..6),
        ) {
            let mut av: Vec<u32> = a.into_iter().collect();
            let mut bv: Vec<u32> = b.into_iter().collect();
            av.sort_unstable();
            bv.sort_unstable();
            let k = av.len().max(bv.len());
            if av != bv {
                prop_assert_ne!(power_sums(&av, k), power_sums(&bv, k));
            }
        }

        /// Random i128 pairs of every magnitude: the fixed-width entry agrees
        /// with the BigInt decoder at d ≤ 2.
        #[test]
        fn fixed_decode_matches_bigint_on_random_pairs(
            a in any::<i128>(),
            b in any::<i128>(),
            shift_a in 0u32..128,
            shift_b in 0u32..128,
            n in 1usize..64,
            d in 0usize..=2,
        ) {
            let sums = [a >> shift_a, b >> shift_b];
            let big: Vec<BigInt> = sums.iter().map(|&s| BigInt::from(s)).collect();
            let dec = NewtonDecoder::new(n);
            prop_assert_eq!(dec.decode_i128(&sums, d), dec.decode(&big, d));
        }

        /// Field-width bound of Lemma 1: every p-th power sum of any set fits in
        /// the declared field.
        #[test]
        fn field_bits_bound_holds(
            n in 1usize..300,
            seed in proptest::collection::hash_set(1u32..=300, 0..10),
        ) {
            let set: Vec<u32> = seed.into_iter().map(|x| (x - 1) % n as u32 + 1).collect::<HashSet<_>>().into_iter().collect();
            let k = 5usize.min(set.len().max(1));
            let sums = power_sums(&set, k);
            for (idx, s) in sums.iter().enumerate() {
                let p = idx as u32 + 1;
                prop_assert!(s.bits() <= power_sum_field_bits(n, p) as u64 + 1,
                    "p={p} sum={s} bits={} field={}", s.bits(), power_sum_field_bits(n, p));
            }
        }
    }
}
