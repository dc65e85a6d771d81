//! Fast scalar multiplication: wNAF variable-base multiplication and
//! precomputed fixed-base comb tables for the group generators (single
//! and batched).
//!
//! The naive ladder ([`Projective::mul_limbs`]) costs 256 doublings and
//! ~128 general additions for a 256-bit scalar. The paths here replace
//! it everywhere:
//!
//! * **[`mul_wnaf`]** — width-5 non-adjacent form: the scalar is recoded
//!   into signed odd digits `{±1, ±3, …, ±15}` so on average only one in
//!   `w + 1 = 6` positions needs an addition (~43 for 256 bits), and the
//!   8-entry odd-multiples table is batch-normalized to affine once so
//!   every addition is a cheap mixed add. Negative digits are free:
//!   point negation only flips `y`. Its one product use is the one-time
//!   derivation of the generators (cofactor clearing and the `r·G`
//!   order check), on public curve constants.
//! * **[`FixedBaseTable`]** — for the *fixed* generators: all
//!   `j·256^w·G` multiples (32 radix-256 windows × 255 nonzero digits)
//!   are precomputed at first use and batch-normalized to affine, after
//!   which `g^s` is at most 32 mixed additions and **zero doublings**.
//!   `SJ.Enc` and `SJ.TokenGen` are per-component fixed-base
//!   exponentiations, so this is the client's hottest path.
//! * **[`FixedBaseTable::mul_batch`]** — the bulk-ingest shape: a whole
//!   slice of scalars walks the same comb table, accumulates per-scalar
//!   in projective form, and normalizes every result with **one**
//!   shared Montgomery-trick inversion instead of one inversion per
//!   scalar. `SJ.Enc` needs `m(t+1)+3` generator exponentiations per
//!   row; batching turns their `m(t+1)+3` inversions into 1.
//!
//! Recoding works on arbitrary-length limb slices — the ~508-bit `G2`
//! cofactor clears through the same code as 255-bit `Fr` scalars, and
//! [`crate::pairing::Gt::pow`] recodes its exponent with
//! [`wnaf_digits`] too.
//!
//! # Constant-time discipline
//!
//! Every path in this module is variable-time in its scalars (wNAF
//! digit patterns, comb byte lookups). Secret scalars reach `G1`/`G2`
//! only through the comb: [`FixedBaseTable`] is what `SJ.Enc` and
//! `SJ.TokenGen` exponentiate with, against the public generators —
//! the attacker already knows the base point, and the timing leak on
//! the scalar is the documented out-of-scope channel (README "Static
//! analysis & audits"). [`mul_wnaf`] multiplies only public curve
//! constants. Batching does not widen the scope: `mul_batch` touches
//! exactly the data the per-scalar path already touched, in a
//! different order.

use crate::curve::{Affine, CurveParams, Projective};
use crate::fr::Fr;
use crate::ops;
use crate::traits::{batch_invert, Field};

/// wNAF window width used by [`mul_wnaf`] (digits `±1, ±3, …, ±15`).
pub const WNAF_WINDOW: u32 = 5;

/// Recode a little-endian limb scalar into width-`w` non-adjacent form.
///
/// Returns little-endian signed digits `d_i` with
/// `value = Σ d_i · 2^i`, each digit zero or odd with
/// `|d_i| < 2^(w-1)`; at most one of any `w` consecutive digits is
/// nonzero. `w` must be in `2..=7` so digits fit an `i8`.
// audit-allow(ct-discipline): wNAF recoding is variable-time in the scalar's digit pattern by construction; it recodes the public curve constants mul_wnaf multiplies by and the exponents of Gt::pow, whose timing channel is documented out of scope (README "Static analysis & audits")
pub fn wnaf_digits(scalar: &[u64], w: u32) -> Vec<i8> {
    assert!((2..=7).contains(&w), "window width must be in 2..=7");
    let mut k: Vec<u64> = scalar.to_vec();
    let mask = (1u64 << w) - 1;
    let half = 1i64 << (w - 1);
    let mut digits = Vec::with_capacity(64 * k.len() + 1);
    while !k.iter().all(|&limb| limb == 0) {
        let digit = if k[0] & 1 == 1 {
            let mut d = (k[0] & mask) as i64;
            if d >= half {
                d -= 1i64 << w;
            }
            if d > 0 {
                sub_small(&mut k, d as u64);
            } else {
                add_small(&mut k, d.unsigned_abs());
            }
            d as i8
        } else {
            0
        };
        digits.push(digit);
        shr1(&mut k);
    }
    digits
}

/// `k -= d` for small `d` (`k` known to be odd and `>= d`).
fn sub_small(k: &mut [u64], d: u64) {
    let (v, borrow) = k[0].overflowing_sub(d);
    k[0] = v;
    let mut borrow = borrow;
    for limb in k.iter_mut().skip(1) {
        if !borrow {
            break;
        }
        let (v, b) = limb.overflowing_sub(1);
        *limb = v;
        borrow = b;
    }
    debug_assert!(!borrow, "wNAF recoding subtracted past zero");
}

/// `k += d` for small `d` (may grow by one limb).
fn add_small(k: &mut Vec<u64>, d: u64) {
    let (v, carry) = k[0].overflowing_add(d);
    k[0] = v;
    let mut carry = carry;
    let mut i = 1;
    while carry {
        if i == k.len() {
            k.push(1);
            return;
        }
        let (v, c) = k[i].overflowing_add(1);
        k[i] = v;
        carry = c;
        i += 1;
    }
}

/// `k >>= 1`.
fn shr1(k: &mut [u64]) {
    let mut high = 0u64;
    for limb in k.iter_mut().rev() {
        let next_high = *limb & 1;
        *limb = (*limb >> 1) | (high << 63);
        high = next_high;
    }
}

/// Normalize a batch of Jacobian points to affine with a **single**
/// field inversion (Montgomery's trick); identities map to the affine
/// identity.
pub fn batch_normalize<C: CurveParams>(points: &[Projective<C>]) -> Vec<Affine<C>> {
    let mut zs: Vec<C::Base> = points
        .iter()
        .map(|p| if p.is_identity() { C::Base::one() } else { p.z })
        .collect();
    batch_invert(&mut zs);
    points
        .iter()
        .zip(&zs)
        .map(|(p, z_inv)| {
            if p.is_identity() {
                Affine::identity()
            } else {
                let z_inv2 = z_inv.square();
                Affine {
                    x: p.x * z_inv2,
                    y: p.y * z_inv2 * *z_inv,
                    infinity: false,
                }
            }
        })
        .collect()
}

/// Variable-base scalar multiplication via width-5 wNAF with an
/// affine odd-multiples table: ~256 doublings + ~43 mixed additions
/// for a 256-bit scalar, vs the ladder's 256 + ~128 general additions.
///
/// Accepts any little-endian limb slice (cofactors included).
// audit-allow(ct-discipline): digit-indexed table walk of the standard variable-time wNAF loop; its product callers multiply only public curve constants (cofactors and r in the one-time generator derivation)
pub fn mul_wnaf<C: CurveParams>(point: &Projective<C>, scalar: &[u64]) -> Projective<C> {
    ops::count_variable_base_mul();
    if point.is_identity() {
        return Projective::identity();
    }
    let digits = wnaf_digits(scalar, WNAF_WINDOW);
    if digits.is_empty() {
        return Projective::identity();
    }
    // Odd multiples P, 3P, …, 15P, normalized with one inversion so the
    // main loop runs on mixed additions only.
    let table_len = 1usize << (WNAF_WINDOW - 2);
    let two_p = point.double();
    let mut table = Vec::with_capacity(table_len);
    table.push(*point);
    for i in 1..table_len {
        table.push(table[i - 1].add(&two_p));
    }
    let table = batch_normalize(&table);

    let mut acc = Projective::<C>::identity();
    for &d in digits.iter().rev() {
        acc = acc.double();
        if d != 0 {
            let entry = &table[d.unsigned_abs() as usize / 2];
            if d > 0 {
                acc = acc.add_affine(entry);
            } else {
                acc = acc.add_affine(&entry.neg());
            }
        }
    }
    acc
}

/// Precomputed fixed-base comb table: `entry(w, j) = j·256^w·G` for 32
/// radix-256 windows of a 256-bit scalar and `j` in `1..=255`, every
/// entry stored in affine form (one batched inversion at build time).
///
/// A multiplication reads one nonzero byte per window — at most **32
/// mixed additions and no doublings** per exponentiation. The table is
/// `32 × 255` points (≈ 0.8 MiB for `G1`, ≈ 1.5 MiB for `G2`) built
/// once per generator behind a `OnceLock` in [`crate::engine`]; the
/// ~8k-addition build amortizes across the first handful of `SJ.Enc` /
/// `SJ.TokenGen` vector exponentiations.
pub struct FixedBaseTable<C: CurveParams> {
    /// Flat `windows × 255` entry storage.
    entries: Vec<Affine<C>>,
}

impl<C: CurveParams> FixedBaseTable<C> {
    /// Number of radix-256 windows covering a 256-bit scalar.
    const WINDOWS: usize = 32;
    /// Nonzero digits per window (`1..=255`).
    const DIGITS: usize = 255;

    /// Precompute the table for `base` (intended for the group
    /// generators; cost `32 × 255` additions plus one inversion).
    pub fn build(base: &Projective<C>) -> Self {
        let mut flat = Vec::with_capacity(Self::WINDOWS * Self::DIGITS);
        let mut window_base = *base;
        for _ in 0..Self::WINDOWS {
            let mut multiple = window_base;
            for _ in 1..=Self::DIGITS {
                flat.push(multiple);
                multiple = multiple.add(&window_base);
            }
            window_base = multiple; // 256 · window_base
        }
        FixedBaseTable {
            entries: batch_normalize(&flat),
        }
    }

    /// `s · G` by table lookups: one mixed addition per nonzero byte of
    /// the canonical scalar.
    pub fn mul(&self, s: &Fr) -> Projective<C> {
        ops::count_fixed_base_mul();
        self.comb_acc(s)
    }

    /// The comb walk itself, shared by [`FixedBaseTable::mul`] and
    /// [`FixedBaseTable::mul_batch`] (counting is the callers' job).
    // audit-allow(ct-discipline): byte-indexed comb lookup is variable-time in the scalar bytes; the base is a public generator, and scalar-mul timing channels are documented out of scope (README "Static analysis & audits")
    fn comb_acc(&self, s: &Fr) -> Projective<C> {
        let limbs = s.to_canonical_limbs();
        let mut acc = Projective::<C>::identity();
        for w in 0..Self::WINDOWS {
            let byte = ((limbs[w / 8] >> (8 * (w % 8))) & 0xff) as usize;
            if byte != 0 {
                acc = acc.add_affine(&self.entries[w * Self::DIGITS + (byte - 1)]);
            }
        }
        acc
    }

    /// Batched `sᵢ · G` over a slice of scalars: every scalar walks the
    /// shared comb table in projective form, then **one** Montgomery
    /// batch inversion normalizes all results to affine. The per-scalar
    /// [`FixedBaseTable::mul`]` + to_affine()` path pays one field
    /// inversion *each*; a row's worth of `SJ.Enc` exponentiations
    /// (`m(t+1)+3` of them) here pays exactly one.
    ///
    /// Output order matches `scalars`; counted under
    /// `batched_fixed_base_muls` (not `fixed_base_muls`) so benches can
    /// audit which path ran.
    pub fn mul_batch(&self, scalars: &[Fr]) -> Vec<Affine<C>> {
        ops::count_batched_fixed_base_muls(scalars.len() as u64);
        let accs: Vec<Projective<C>> = scalars.iter().map(|s| self.comb_acc(s)).collect();
        batch_normalize(&accs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::g1::G1Params;
    use crate::{g1, params};
    use eqjoin_crypto::{ChaChaRng, RandomSource};

    #[test]
    fn wnaf_digits_reconstruct_the_scalar() {
        let mut rng = ChaChaRng::seed_from_u64(71);
        for w in 2..=7u32 {
            for _ in 0..8 {
                let scalar = [rng.next_u64(), rng.next_u64(), rng.next_u64(), 0];
                let digits = wnaf_digits(&scalar, w);
                // Σ d_i 2^i with i128 windows over 64-bit chunks.
                let mut value = [0u64; 5];
                for &d in digits.iter().rev() {
                    // value = 2·value + d
                    let mut carry = 0u64;
                    for limb in value.iter_mut() {
                        let doubled = (*limb as u128) << 1 | carry as u128;
                        *limb = doubled as u64;
                        carry = (doubled >> 64) as u64;
                    }
                    if d >= 0 {
                        let (v, mut c) = value[0].overflowing_add(d as u64);
                        value[0] = v;
                        let mut j = 1;
                        while c {
                            let (v, c2) = value[j].overflowing_add(1);
                            value[j] = v;
                            c = c2;
                            j += 1;
                        }
                    } else {
                        let (v, mut b) = value[0].overflowing_sub(d.unsigned_abs() as u64);
                        value[0] = v;
                        let mut j = 1;
                        while b {
                            let (v, b2) = value[j].overflowing_sub(1);
                            value[j] = v;
                            b = b2;
                            j += 1;
                        }
                    }
                }
                assert_eq!(&value[..4], &scalar, "w = {w}");
                assert_eq!(value[4], 0);
                // Digit constraints: zero or odd, |d| < 2^(w-1), and no
                // two nonzero digits within w positions.
                let mut last_nonzero: Option<usize> = None;
                for (i, &d) in digits.iter().enumerate() {
                    assert!(d == 0 || d % 2 != 0);
                    assert!((d.unsigned_abs() as i64) < (1 << (w - 1)));
                    if d != 0 {
                        if let Some(prev) = last_nonzero {
                            assert!(i - prev >= w as usize);
                        }
                        last_nonzero = Some(i);
                    }
                }
            }
        }
    }

    #[test]
    fn wnaf_digits_edge_scalars() {
        assert!(wnaf_digits(&[0, 0], 5).is_empty());
        assert_eq!(wnaf_digits(&[1], 5), vec![1]);
        let digits = wnaf_digits(&[2], 5);
        assert_eq!(digits, vec![0, 1]);
        // All-ones limb forces the add_small carry-growth path.
        let digits = wnaf_digits(&[u64::MAX], 5);
        assert!(!digits.is_empty());
        let p = *g1::generator();
        assert_eq!(mul_wnaf(&p, &[u64::MAX]), p.mul_limbs(&[u64::MAX]));
    }

    #[test]
    fn mul_wnaf_matches_ladder_on_g1() {
        let mut rng = ChaChaRng::seed_from_u64(72);
        let g = g1::generator();
        for _ in 0..4 {
            let scalar = [
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
            ];
            assert_eq!(mul_wnaf(g, &scalar), g.mul_limbs(&scalar));
        }
        // Long limb slices (cofactor-shaped) agree too.
        let long = params::consts().g2_cofactor.clone();
        assert_eq!(mul_wnaf(g, &long), g.mul_limbs(&long));
        assert!(mul_wnaf(g, &[0, 0, 0, 0]).is_identity());
        assert!(mul_wnaf(&Projective::<G1Params>::identity(), &[5]).is_identity());
    }

    #[test]
    fn fixed_base_table_matches_ladder() {
        let g = g1::generator();
        let table = FixedBaseTable::build(g);
        let mut rng = ChaChaRng::seed_from_u64(73);
        for _ in 0..4 {
            let s = Fr::random(&mut rng);
            assert_eq!(table.mul(&s), g.mul_limbs(&s.to_canonical_limbs()));
        }
        assert!(table.mul(&Fr::zero()).is_identity());
        assert_eq!(table.mul(&Fr::one()), *g);
    }

    #[test]
    fn mul_batch_matches_per_scalar_path_on_g1_and_g2() {
        let mut rng = ChaChaRng::seed_from_u64(74);
        let mut scalars: Vec<Fr> = (0..9).map(|_| Fr::random(&mut rng)).collect();
        // Edge scalars: 0, 1, r−1.
        scalars.push(Fr::zero());
        scalars.push(Fr::one());
        scalars.push(-Fr::one());

        let g1t = FixedBaseTable::build(g1::generator());
        let batch = g1t.mul_batch(&scalars);
        assert_eq!(batch.len(), scalars.len());
        for (s, a) in scalars.iter().zip(&batch) {
            assert_eq!(*a, g1t.mul(s).to_affine());
        }

        let g2t = FixedBaseTable::build(crate::g2::generator());
        let batch = g2t.mul_batch(&scalars);
        for (s, a) in scalars.iter().zip(&batch) {
            assert_eq!(*a, g2t.mul(s).to_affine());
        }

        assert!(g1t.mul_batch(&[]).is_empty());
        assert!(g1t.mul_batch(&[Fr::zero()])[0].infinity);
    }

    #[test]
    fn batch_normalize_handles_identities() {
        let g = *g1::generator();
        let points = vec![
            Projective::<G1Params>::identity(),
            g,
            g.double(),
            Projective::<G1Params>::identity(),
        ];
        let affine = batch_normalize(&points);
        assert!(affine[0].infinity && affine[3].infinity);
        assert_eq!(affine[1], g.to_affine());
        assert_eq!(affine[2], g.double().to_affine());
        assert!(batch_normalize::<G1Params>(&[]).is_empty());
    }
}
