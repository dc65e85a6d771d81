//! The optimal ate pairing `e : G1 × G2 → GT` and the multi-pairing
//! `∏ᵢ e(Pᵢ, Qᵢ)` with a shared Miller loop.
//!
//! # Implementation notes
//!
//! * `G2` points are *untwisted* into `E(Fp12)` via
//!   `(x', y') ↦ (x'/w², y'/w³)` (with `w⁶ = ξ` this maps
//!   `y'² = x'³ + 4ξ` onto `y² = x³ + 4`). The loop itself never leaves
//!   `Fp2` twist coordinates: with twist-affine slope `λ'` (the untwisted
//!   slope is `λ'·w⁻¹`), the tangent at `T` or chord through `T` and `Q`,
//!   evaluated at `P = (x_P, y_P)` and scaled by `ξ` to clear the
//!   negative powers of `w` (`w⁻³ = ξ⁻¹·w³`, `w⁻¹ = ξ⁻¹·w⁵`), is
//!
//!   ```text
//!     ξ·y_P  +  (λ'·x'_• − y'_•)·w³  −  (λ'·x_P)·w⁵
//!   ```
//!
//!   with `•` = `T` (doubling) or `Q` (addition). Vertical-line
//!   denominators are omitted: their values lie in `Fp6`, which the easy
//!   part of the final exponentiation annihilates.
//! * **Every line is normalised by its constant term** and reads
//!   `1 + b·w³ + c·w⁵`. The divisor `ξ·y_P` lies in `Fp2`, so
//!   `(ξ·y_P)^(p²−1) = 1`, and `p²−1` divides `p⁶−1`, the first factor
//!   of the final exponent: the Miller value changes by an `Fp2` factor
//!   per line, the pairing not at all. `y_P ≠ 0` on every curve point: a
//!   point with `y = 0` has order 2, and `#E(Fp) = h1·r` is odd
//!   (`params::tests` checks `h1·r = p + 1 − t`). The `P`-independent
//!   halves `(λ'·ξ⁻¹, (λ'·x'_• − y'_•)·ξ⁻¹)` are what [`G2Prepared`]
//!   stores; the `P`-dependent halves `1/y_P` and `−x_P/y_P`
//!   (`G1Normalized`) cost one shared inversion per token. `f·line` is
//!   then [`Fp12::mul_by_line`]: 10 `Fp2` multiplications and 4 `Fp`
//!   scalings, where a line with a general constant term takes 15 and 2.
//! * The loop parameter is `|z|`; since the BLS parameter is negative the
//!   Miller value is conjugated at the end (`conj(f) = f⁻¹ · f^{p⁶+1}` and
//!   `f^{p⁶+1} ∈ Fp6` is likewise killed by the final exponentiation).
//! * Slope computations need one field inversion per step; across a
//!   multi-pairing all pairs share a single **batched inversion** per step
//!   (Montgomery's trick), which is what makes the `m(t+1)+3`-element
//!   products in `SJ.Dec` affordable.
//! * **The walk is the subgroup check.** Building a point's line table
//!   walks `T` from `Q` along the MSB-first double-and-add of `|z|` —
//!   the very chain [`crate::curve::Projective::mul_by_x`] spends inside
//!   [`crate::g2::in_subgroup`] — so the walk's endpoint is `[|z|]Q`
//!   and Scott's test `ψ(Q) = [z]Q` is two `Fp2` products and a
//!   comparison away: `(c_x·x̄_Q, c_y·ȳ_Q) = (x_T, −y_T)`, as `z < 0`.
//!   `line_tables` therefore returns a verdict next to each table, and
//!   [`G2Prepared::prepare_batch_checked`] refuses (`None`) exactly the
//!   on-curve points `in_subgroup` refuses. An exceptional step — a zero
//!   slope denominator — needs `T = mQ`, `2 ≤ m ≤ |z| < r`, to be
//!   2-torsion (tangent) or `±Q` (chord), i.e. `Q` of order dividing
//!   `2m` or `m ∓ 1`: impossible for order `r`, reachable on a
//!   cofactor-torsion point, and so itself a proof of non-membership.
//!   The walk notes it, substitutes 1 (the batch's shared inversion and
//!   every other point in it are unaffected) and refuses at the end.
//! * The final exponentiation splits into the easy part
//!   `(p⁶-1)(p²+1)` and the Hayashida et al. BLS12 hard part
//!   `(z-1)²(z+p)(z²+p²-1) + 3` (a 3-multiple of `(p⁴-p²+1)/r`, verified
//!   symbolically in `params::tests`).

use crate::fp::Fp;
use crate::fp12::Fp12;
use crate::fp2::Fp2;
use crate::fp6::Fp6;
use crate::fr::Fr;
use crate::g1::G1Affine;
use crate::g2::G2Affine;
use crate::params::{BLS_X, BLS_X_IS_NEGATIVE};
use crate::traits::{batch_invert, Field};
use std::sync::OnceLock;

/// An element of the pairing target group `GT ⊂ Fp12^*` (order `r`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Gt(pub(crate) Fp12);

impl Gt {
    /// The identity element `1`.
    pub fn one() -> Self {
        Gt(Fp12::one())
    }

    /// Group operation (written multiplicatively, as in the paper).
    pub fn mul(&self, other: &Gt) -> Gt {
        Gt(self.0 * other.0)
    }

    /// Inverse — conjugation, valid on the cyclotomic subgroup.
    pub fn inverse(&self) -> Gt {
        Gt(self.0.conjugate())
    }

    /// Exponentiation by a scalar-field element.
    ///
    /// Runs width-4 wNAF over the cyclotomic subgroup, where the
    /// inverse needed for negative digits is a free conjugation —
    /// ~51 multiplications instead of the square-and-multiply ~128.
    pub fn pow(&self, s: &Fr) -> Gt {
        crate::ops::count_gt_pow();
        Gt(cyclotomic_pow_wnaf(&self.0, &s.to_canonical_limbs()))
    }

    /// Exponentiation by a small integer.
    pub fn pow_u64(&self, e: u64) -> Gt {
        crate::ops::count_gt_pow();
        Gt(cyclotomic_pow_wnaf(&self.0, &[e]))
    }

    /// Canonical serialization (576 bytes) — the hash-join key for
    /// `SJ.Match`.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }

    /// Access the underlying field element.
    pub fn as_fp12(&self) -> &Fp12 {
        &self.0
    }
}

/// wNAF exponentiation valid on the cyclotomic subgroup, where the
/// inverse of an element is its conjugate (so negative digits cost
/// nothing extra) and squaring is the Granger–Scott cyclotomic squaring
/// (roughly half a generic `Fp12` squaring). Width 4: odd powers
/// `f, f³, f⁵, f⁷` precomputed.
fn cyclotomic_pow_wnaf(base: &Fp12, exp: &[u64]) -> Fp12 {
    let digits = crate::scalar_mul::wnaf_digits(exp, 4);
    if digits.is_empty() {
        return Fp12::one();
    }
    let base_sq = base.cyclotomic_square();
    let mut table = [*base; 4];
    for i in 1..4 {
        table[i] = table[i - 1] * base_sq;
    }
    let mut acc = Fp12::one();
    for &d in digits.iter().rev() {
        acc = acc.cyclotomic_square();
        if d > 0 {
            acc *= table[d as usize / 2];
        } else if d < 0 {
            acc *= table[d.unsigned_abs() as usize / 2].conjugate();
        }
    }
    acc
}

/// `ξ⁻¹`, derived once.
fn xi_inv() -> &'static Fp2 {
    static XI_INV: OnceLock<Fp2> = OnceLock::new();
    XI_INV.get_or_init(|| Fp2::xi().invert().expect("ξ nonzero"))
}

/// Map a twist point into `E(Fp12): y² = x³ + 4`.
pub(crate) fn untwist(q: &G2Affine) -> (Fp12, Fp12) {
    // x'·w⁻² = x'·ξ⁻¹·w⁴ = x'·ξ⁻¹·v²  (coefficient c0.c2)
    let x = Fp12::new(
        Fp6::new(Fp2::zero(), Fp2::zero(), q.x * *xi_inv()),
        Fp6::zero(),
    );
    // y'·w⁻³ = y'·ξ⁻¹·w³ = y'·ξ⁻¹·v·w (coefficient c1.c1)
    let y = Fp12::new(
        Fp6::zero(),
        Fp6::new(Fp2::zero(), q.y * *xi_inv(), Fp2::zero()),
    );
    (x, y)
}

/// What a pairing entry point that takes points on trust says when the
/// walk finds one outside the subgroup.
const NOT_IN_G2: &str = "G2 pairing input outside the order-r subgroup";

/// Number of lines a Miller loop evaluates per pair: one per doubling
/// step plus one per addition step (63 + 5 for the BLS12-381 loop
/// parameter).
fn lines_per_pair() -> usize {
    let bits = 64 - BLS_X.leading_zeros() as usize;
    (bits - 1) + (BLS_X.count_ones() as usize - 1)
}

/// The `P`-independent half of one Miller line:
/// `(λ'·ξ⁻¹, (λ'·x'_• − y'_•)·ξ⁻¹)` with `•` = `T` (doubling) or `Q`
/// (addition).
type LineCoeffs = (Fp2, Fp2);

/// The `P`-dependent half of every Miller line against one `G1` point.
#[derive(Clone, Copy, Debug, PartialEq)]
struct LinePoint {
    inv_y: Fp,
    neg_x_over_y: Fp,
}

/// The [`LineCoeffs`] of every Miller line of each point, in loop order,
/// or `None` for a point outside the order-`r` subgroup (module docs,
/// "The walk is the subgroup check"). One slope inversion per step is
/// shared across the whole batch (Montgomery's trick). The identity
/// gets an empty table.
fn line_tables(qs: &[G2Affine]) -> Vec<Option<Vec<LineCoeffs>>> {
    struct Walk {
        xq: Fp2,
        yq: Fp2,
        xt: Fp2,
        yt: Fp2,
        slot: usize,
        /// Cleared by an exceptional step; decided at the endpoint.
        member: bool,
    }
    impl Walk {
        /// A slope denominator for the batch's shared inversion. Zero
        /// means `T` met a 2-torsion point (tangent) or `±Q` (chord),
        /// which no multiple `2 ≤ m ≤ |z| < r` of an order-`r` point
        /// does: the point is refused, and 1 stands in so the shared
        /// inversion and every other walk in the batch are unaffected.
        fn denominator(&mut self, d: Fp2) -> Fp2 {
            if d.is_zero() {
                self.member = false;
                Fp2::one()
            } else {
                d
            }
        }

        /// Record the line of slope `lambda` through `(x, y)` and step
        /// `T` to the third point on it: `x` is `x_T` for a tangent and
        /// `x_Q` for a chord.
        fn step(&mut self, lambda: Fp2, x: Fp2, y: Fp2, table: &mut Vec<LineCoeffs>) {
            let xi_inv = *xi_inv();
            table.push((lambda * xi_inv, (lambda * x - y) * xi_inv));
            let x3 = lambda.square() - self.xt - x;
            self.yt = lambda * (self.xt - x3) - self.yt;
            self.xt = x3;
        }

        /// Scott's test at the walk's endpoint `T = [|z|]Q`:
        /// `ψ(Q) = [z]Q`, with `[z]Q = −T` as `z < 0`.
        fn ends_at_psi(&self) -> bool {
            let e = crate::params::endomorphisms();
            let zq_y = if BLS_X_IS_NEGATIVE { -self.yt } else { self.yt };
            self.xq.conjugate() * e.psi_x == self.xt && self.yq.conjugate() * e.psi_y == zq_y
        }
    }
    let mut walks: Vec<Walk> = qs
        .iter()
        .enumerate()
        .filter(|(_, q)| !q.infinity)
        .map(|(slot, q)| Walk {
            xq: q.x,
            yq: q.y,
            xt: q.x,
            yt: q.y,
            slot,
            member: true,
        })
        .collect();
    let mut tables: Vec<Vec<LineCoeffs>> = qs
        .iter()
        .map(|q| Vec::with_capacity(if q.infinity { 0 } else { lines_per_pair() }))
        .collect();

    let bits = 64 - BLS_X.leading_zeros() as usize;
    let mut denoms: Vec<Fp2> = Vec::with_capacity(walks.len());
    for i in (0..bits - 1).rev() {
        // Doubling: λ' = 3x_T²/(2y_T) on the twist, batched inversion.
        denoms.clear();
        denoms.extend(walks.iter_mut().map(|w| w.denominator(w.yt.double())));
        batch_invert(&mut denoms);
        for (w, inv) in walks.iter_mut().zip(&denoms) {
            let xt_sq = w.xt.square();
            let lambda = (xt_sq.double() + xt_sq) * *inv;
            w.step(lambda, w.xt, w.yt, &mut tables[w.slot]);
        }
        if (BLS_X >> i) & 1 == 1 {
            // Addition: λ' = (y_T - y_Q)/(x_T - x_Q).
            denoms.clear();
            denoms.extend(walks.iter_mut().map(|w| w.denominator(w.xt - w.xq)));
            batch_invert(&mut denoms);
            for (w, inv) in walks.iter_mut().zip(&denoms) {
                let lambda = (w.yt - w.yq) * *inv;
                w.step(lambda, w.xq, w.yq, &mut tables[w.slot]);
            }
        }
    }
    let mut tables: Vec<Option<Vec<LineCoeffs>>> = tables.into_iter().map(Some).collect();
    for w in walks.iter().filter(|w| !(w.member && w.ends_at_psi())) {
        tables[w.slot] = None;
    }
    tables
}

/// A `G1` point as the normalised lines are evaluated at it:
/// `(1/y_P, −x_P/y_P)`, which turns a table entry `(l, m)` into the line
/// `1 + m·(1/y_P)·w³ + l·(−x_P/y_P)·w⁵`. `None` inside for the identity,
/// whose pairs contribute 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct G1Normalized(Option<LinePoint>);

impl G1Normalized {
    /// Normalise a batch of points with one shared inversion — a token
    /// is normalised once and then evaluated against every row it
    /// decrypts. `y_P ≠ 0` on every curve point (module docs).
    pub(crate) fn batch(ps: &[G1Affine]) -> Vec<G1Normalized> {
        // The identity stands in as 1 so every point keeps its slot.
        let mut inv_ys: Vec<Fp> = ps
            .iter()
            .map(|p| if p.infinity { Fp::one() } else { p.y })
            .collect();
        batch_invert(&mut inv_ys);
        ps.iter()
            .zip(inv_ys)
            .map(|(p, inv_y)| {
                G1Normalized((!p.infinity).then_some(LinePoint {
                    inv_y,
                    neg_x_over_y: -(p.x * inv_y),
                }))
            })
            .collect()
    }
}

/// The Miller loop proper: `f ← f²·∏ lines` per bit of `|z|`, every
/// line read from a table and evaluated at a normalised point — no
/// inversions, no point arithmetic. Identity pairs are already gone.
fn miller_loop_over(pairs: &[(LinePoint, &[LineCoeffs])]) -> Fp12 {
    if pairs.is_empty() {
        return Fp12::one();
    }
    let mut f = Fp12::one();
    let bits = 64 - BLS_X.leading_zeros() as usize;
    let mut step = 0usize;
    let mut multiply_lines = |f: &mut Fp12| {
        for (p, table) in pairs {
            let (l, m) = table[step];
            *f = f.mul_by_line(m.scale(p.inv_y), l.scale(p.neg_x_over_y));
        }
        step += 1;
    };
    for i in (0..bits - 1).rev() {
        f = f.square();
        multiply_lines(&mut f);
        if (BLS_X >> i) & 1 == 1 {
            multiply_lines(&mut f);
        }
    }
    if BLS_X_IS_NEGATIVE {
        f = f.conjugate();
    }
    f
}

/// Shared Miller loop over all pairs (identity pairs contribute 1 and are
/// skipped). Returns the un-exponentiated Miller value.
///
/// The line tables [`G2Prepared`] would keep are built for this one
/// call and dropped, so the value equals
/// [`multi_miller_loop_prepared`]'s on the same points bit for bit.
pub fn multi_miller_loop(pairs: &[(G1Affine, G2Affine)]) -> Fp12 {
    let (ps, qs): (Vec<G1Affine>, Vec<G2Affine>) = pairs
        .iter()
        .filter(|(p, q)| !p.infinity && !q.infinity)
        .copied()
        .unzip();
    crate::ops::count_pairing(ps.len() as u64);
    let tables: Vec<Vec<LineCoeffs>> = line_tables(&qs)
        .into_iter()
        .map(|table| table.expect(NOT_IN_G2))
        .collect();
    let live: Vec<_> = G1Normalized::batch(&ps)
        .iter()
        .zip(&tables)
        .filter_map(|(p, table)| Some((p.0?, table.as_slice())))
        .collect();
    miller_loop_over(&live)
}

/// Precomputed Miller-loop line state for one `G2` point: the
/// `P`-independent half `(λ'·ξ⁻¹, (λ'·x'_• − y'_•)·ξ⁻¹)` of every
/// doubling/addition line, in loop order (module docs), so a pairing
/// against a prepared point costs **no slope inversions and no point
/// arithmetic** — only table reads and sparse `Fp12` line
/// multiplications. A stored ciphertext is prepared once (by the first
/// query that selects it) and then reused by every later query of the
/// series, which is the paper's reuse pattern exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct G2Prepared {
    /// One entry per Miller step; empty for the identity, which
    /// contributes `1` to the product.
    coeffs: Vec<LineCoeffs>,
}

impl G2Prepared {
    /// Prepare one point ([`G2Prepared::prepare_batch`] with arity 1).
    pub fn from_affine(q: &G2Affine) -> Self {
        Self::prepare_batch(&[*q]).pop().expect("one in, one out")
    }

    /// Prepare a batch of points the caller knows to be in `G2` (it
    /// generated them, or decoded them with [`crate::g2::from_bytes`]):
    /// [`G2Prepared::prepare_batch_checked`], a refusal being a bug.
    pub fn prepare_batch(qs: &[G2Affine]) -> Vec<G2Prepared> {
        Self::prepare_batch_checked(qs)
            .into_iter()
            .map(|prepared| prepared.expect(NOT_IN_G2))
            .collect()
    }

    /// Prepare a batch of **on-curve** points, sharing one slope
    /// inversion per Miller step across the whole batch (Montgomery's
    /// trick) — the shape of a first touch, where every ciphertext
    /// element of every row a query newly selects is prepared at once.
    ///
    /// `None` for a point outside the order-`r` subgroup: the walk that
    /// builds the table ends at `[|z|]Q`, so it decides
    /// [`crate::g2::in_subgroup`] on the way (module docs). A refused
    /// point changes no other point's coefficients.
    pub fn prepare_batch_checked(qs: &[G2Affine]) -> Vec<Option<G2Prepared>> {
        crate::ops::count_g2_prepares(qs.iter().filter(|q| !q.infinity).count() as u64);
        line_tables(qs)
            .into_iter()
            .map(|table| table.map(|coeffs| G2Prepared { coeffs }))
            .collect()
    }

    /// True iff this is the prepared identity.
    pub fn is_identity(&self) -> bool {
        self.coeffs.is_empty()
    }
}

/// The shared Miller loop of one row: a token already normalised by
/// [`G1Normalized::batch`] against **prepared** `G2` points. This is the
/// hot path of `SJ.Dec` over stored ciphertexts; taking the normalised
/// form as its argument is what keeps the token's inversion out of the
/// per-row work.
pub(crate) fn miller_loop_normalized<'a>(
    pairs: impl IntoIterator<Item = (&'a G1Normalized, &'a G2Prepared)>,
) -> Fp12 {
    let live: Vec<_> = pairs
        .into_iter()
        .filter(|(_, q)| !q.is_identity())
        .filter_map(|(p, q)| {
            debug_assert_eq!(q.coeffs.len(), lines_per_pair());
            Some((p.0?, q.coeffs.as_slice()))
        })
        .collect();
    crate::ops::count_prepared_pairing(live.len() as u64);
    miller_loop_over(&live)
}

/// The prepared Miller loop for a caller holding plain `G1` points:
/// normalises them, then runs the per-row loop the engine's batch path
/// runs against an already-normalised token. Identical output to
/// [`multi_miller_loop`] (asserted bit-for-bit by tests).
pub fn multi_miller_loop_prepared(pairs: &[(G1Affine, &G2Prepared)]) -> Fp12 {
    let ps: Vec<G1Affine> = pairs.iter().map(|(p, _)| *p).collect();
    let normalized = G1Normalized::batch(&ps);
    miller_loop_normalized(normalized.iter().zip(pairs.iter().map(|(_, q)| *q)))
}

struct PairState {
    xp: Fp12,
    yp: Fp12,
    xq: Fp12,
    yq: Fp12,
    xt: Fp12,
    yt: Fp12,
}

/// Reference Miller loop with generic `Fp12` arithmetic over the untwisted
/// points — kept as a correctness oracle for [`multi_miller_loop`] (the
/// two must agree bit-for-bit) and as the "no twist-coordinate / sparse
/// line optimization" arm of the ablation benchmarks.
pub fn multi_miller_loop_generic(pairs: &[(G1Affine, G2Affine)]) -> Fp12 {
    let mut states: Vec<PairState> = pairs
        .iter()
        .filter(|(p, q)| !p.infinity && !q.infinity)
        .map(|(p, q)| {
            let (xq, yq) = untwist(q);
            PairState {
                xp: Fp12::from_fp(p.x),
                yp: Fp12::from_fp(p.y),
                xq,
                yq,
                xt: xq,
                yt: yq,
            }
        })
        .collect();
    if states.is_empty() {
        return Fp12::one();
    }

    let mut f = Fp12::one();
    let bits = 64 - BLS_X.leading_zeros() as usize;
    let mut denoms = Vec::with_capacity(states.len());

    for i in (0..bits - 1).rev() {
        f = f.square();

        // Doubling step: λ = 3x_T² / (2y_T), batched across pairs.
        denoms.clear();
        denoms.extend(states.iter().map(|s| s.yt.double()));
        batch_invert(&mut denoms);
        for (s, inv) in states.iter_mut().zip(&denoms) {
            let xt_sq = s.xt.square();
            let lambda = (xt_sq.double() + xt_sq) * *inv;
            let line = s.yp - s.yt - lambda * (s.xp - s.xt);
            f *= line;
            let x3 = lambda.square() - s.xt.double();
            let y3 = lambda * (s.xt - x3) - s.yt;
            s.xt = x3;
            s.yt = y3;
        }

        if (BLS_X >> i) & 1 == 1 {
            // Addition step: λ = (y_T - y_Q)/(x_T - x_Q), batched. T = mQ
            // with 2 ≤ m < r-1 never collides with ±Q on an order-r point,
            // so the denominators are nonzero.
            denoms.clear();
            denoms.extend(states.iter().map(|s| s.xt - s.xq));
            batch_invert(&mut denoms);
            for (s, inv) in states.iter_mut().zip(&denoms) {
                let lambda = (s.yt - s.yq) * *inv;
                let line = s.yp - s.yq - lambda * (s.xp - s.xq);
                f *= line;
                let x3 = lambda.square() - s.xt - s.xq;
                let y3 = lambda * (s.xt - x3) - s.yt;
                s.xt = x3;
                s.yt = y3;
            }
        }
    }

    if BLS_X_IS_NEGATIVE {
        f = f.conjugate();
    }
    f
}

/// Exponentiation by `|z|` followed by the sign fix-up, valid for elements
/// of the cyclotomic subgroup (where inversion is conjugation and
/// squaring is the Granger–Scott cyclotomic squaring — `|z|` has only 6
/// set bits, so this is essentially 63 cyclotomic squarings).
fn exp_by_z(m: &Fp12) -> Fp12 {
    let bits = 64 - BLS_X.leading_zeros();
    let mut pow = *m;
    for i in (0..bits - 1).rev() {
        pow = pow.cyclotomic_square();
        if (BLS_X >> i) & 1 == 1 {
            pow *= *m;
        }
    }
    if BLS_X_IS_NEGATIVE {
        pow.conjugate()
    } else {
        pow
    }
}

/// The hard part of the final exponentiation (Hayashida et al.):
/// `m^((z-1)²(z+p)(z²+p²-1) + 3)` for `m` in the cyclotomic subgroup.
fn final_exponentiation_hard(m: &Fp12) -> Fp12 {
    // All arithmetic stays in the cyclotomic subgroup, where the
    // inverse is the conjugate.
    let cyc_inv = |x: &Fp12| x.conjugate();

    // a = m^(z-1), twice → m^((z-1)²).
    let a = exp_by_z(m) * cyc_inv(m);
    let a = exp_by_z(&a) * cyc_inv(&a);
    // b = a^(z+p).
    let b = exp_by_z(&a) * a.frobenius();
    // c = b^(z²+p²-1).
    let c = exp_by_z(&exp_by_z(&b)) * b.frobenius2() * cyc_inv(&b);
    // result = c · m³.
    c * m.cyclotomic_square() * *m
}

/// The final exponentiation `f^((p¹²-1)/r)` (up to a harmless cube).
pub fn final_exponentiation(f: &Fp12) -> Gt {
    // Easy part: f^((p⁶-1)(p²+1)).
    let t = f.conjugate() * f.invert().expect("Miller value nonzero");
    let m = t.frobenius2() * t;
    Gt(final_exponentiation_hard(&m))
}

/// Final exponentiation of a whole decrypt phase at once: the easy
/// part's per-element inversion is batched with Montgomery's trick
/// (one field inversion for `n` Miller values — the same trick the
/// Miller loop already plays on slope denominators), then the hard part
/// runs per element. Output order matches input order;
/// `final_exponentiation_batch(&[f])[0] == final_exponentiation(&f)`.
pub fn final_exponentiation_batch(fs: &[Fp12]) -> Vec<Gt> {
    let mut inverses = fs.to_vec();
    batch_invert(&mut inverses);
    fs.iter()
        .zip(&inverses)
        .map(|(f, f_inv)| {
            let t = f.conjugate() * *f_inv;
            let m = t.frobenius2() * t;
            Gt(final_exponentiation_hard(&m))
        })
        .collect()
}

/// The optimal ate pairing of a single point pair.
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Gt {
    final_exponentiation(&multi_miller_loop(&[(*p, *q)]))
}

/// The product of pairings `∏ᵢ e(Pᵢ, Qᵢ)` with one shared Miller loop and
/// one final exponentiation.
pub fn multi_pairing(pairs: &[(G1Affine, G2Affine)]) -> Gt {
    final_exponentiation(&multi_miller_loop(pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{g1, g2, params};
    use eqjoin_crypto::ChaChaRng;

    fn g1_gen() -> G1Affine {
        g1::generator().to_affine()
    }

    fn g2_gen() -> G2Affine {
        g2::generator().to_affine()
    }

    #[test]
    fn untwist_lands_on_e_fp12() {
        let (x, y) = untwist(&g2_gen());
        // y² = x³ + 4 over Fp12.
        assert_eq!(y.square(), x.square() * x + Fp12::from_fp(Fp::from_u64(4)));
    }

    #[test]
    fn untwist_is_homomorphic() {
        // untwist(2Q) must equal the curve double of untwist(Q) on E(Fp12);
        // checked through the affine doubling formula.
        let q = g2_gen();
        let q2 = g2::generator().double().to_affine();
        let (x1, y1) = untwist(&q);
        let (x2, y2) = untwist(&q2);
        let lambda = (x1.square().double() + x1.square()) * (y1.double()).invert().unwrap();
        let x_dbl = lambda.square() - x1.double();
        let y_dbl = lambda * (x1 - x_dbl) - y1;
        assert_eq!((x_dbl, y_dbl), (x2, y2));
    }

    #[test]
    fn fast_loop_matches_generic_oracle() {
        // The twist-coordinate loop scales every line by ξ, so the raw
        // Miller values differ by ξ^(#lines) ∈ Fp2 — a factor the final
        // exponentiation kills. The *pairings* must agree exactly.
        let mut rng = ChaChaRng::seed_from_u64(50);
        let pairs: Vec<(G1Affine, G2Affine)> = (0..3)
            .map(|_| {
                let a = Fr::random(&mut rng);
                let b = Fr::random(&mut rng);
                (
                    g1::mul_fr(g1::generator(), &a).to_affine(),
                    g2::mul_fr(g2::generator(), &b).to_affine(),
                )
            })
            .collect();
        assert_eq!(
            final_exponentiation(&multi_miller_loop(&pairs)),
            final_exponentiation(&multi_miller_loop_generic(&pairs))
        );
        assert_eq!(
            final_exponentiation(&multi_miller_loop(&pairs[..1])),
            final_exponentiation(&multi_miller_loop_generic(&pairs[..1]))
        );
    }

    #[test]
    fn prepared_loop_matches_unprepared_bit_for_bit() {
        let mut rng = ChaChaRng::seed_from_u64(58);
        let pairs: Vec<(G1Affine, G2Affine)> = (0..4)
            .map(|_| {
                let a = Fr::random(&mut rng);
                let b = Fr::random(&mut rng);
                (
                    g1::mul_fr(g1::generator(), &a).to_affine(),
                    g2::mul_fr(g2::generator(), &b).to_affine(),
                )
            })
            .collect();
        let prepared: Vec<G2Prepared> =
            G2Prepared::prepare_batch(&pairs.iter().map(|(_, q)| *q).collect::<Vec<_>>());
        let with_prep: Vec<(G1Affine, &G2Prepared)> = pairs
            .iter()
            .zip(&prepared)
            .map(|((p, _), q)| (*p, q))
            .collect();
        // The raw Miller values must agree exactly — the prepared loop
        // replays the very same lines.
        assert_eq!(
            multi_miller_loop_prepared(&with_prep),
            multi_miller_loop(&pairs)
        );
        assert_eq!(
            multi_miller_loop_prepared(&with_prep[..1]),
            multi_miller_loop(&pairs[..1])
        );
        // Batch preparation equals one-at-a-time preparation.
        for ((_, q), prep) in pairs.iter().zip(&prepared) {
            assert_eq!(G2Prepared::from_affine(q), *prep);
        }
    }

    #[test]
    fn prepared_identity_contributes_one() {
        let id = G2Prepared::from_affine(&G2Affine::identity());
        assert!(id.is_identity());
        assert_eq!(multi_miller_loop_prepared(&[(g1_gen(), &id)]), Fp12::one());
    }

    #[test]
    fn batched_final_exponentiation_matches_scalar() {
        let mut rng = ChaChaRng::seed_from_u64(59);
        let fs: Vec<Fp12> = (0..5)
            .map(|_| {
                let a = Fr::random(&mut rng);
                let b = Fr::random(&mut rng);
                multi_miller_loop(&[(
                    g1::mul_fr(g1::generator(), &a).to_affine(),
                    g2::mul_fr(g2::generator(), &b).to_affine(),
                )])
            })
            .collect();
        let batch = final_exponentiation_batch(&fs);
        assert_eq!(batch.len(), fs.len());
        for (f, gt) in fs.iter().zip(&batch) {
            assert_eq!(final_exponentiation(f), *gt);
        }
        assert!(final_exponentiation_batch(&[]).is_empty());
    }

    #[test]
    fn non_degeneracy() {
        let e = pairing(&g1_gen(), &g2_gen());
        assert_ne!(e, Gt::one(), "e(G1, G2) must not be 1");
    }

    #[test]
    fn gt_has_order_r() {
        let e = pairing(&g1_gen(), &g2_gen());
        let r = params::consts().r_big.limbs().to_vec();
        assert_eq!(Gt(e.0.pow_slice(&r)), Gt::one());
    }

    #[test]
    fn identity_pairs() {
        assert_eq!(pairing(&G1Affine::identity(), &g2_gen()), Gt::one());
        assert_eq!(pairing(&g1_gen(), &G2Affine::identity()), Gt::one());
        assert_eq!(multi_pairing(&[]), Gt::one());
    }

    #[test]
    fn bilinearity_in_g1() {
        let mut rng = ChaChaRng::seed_from_u64(51);
        let a = Fr::random(&mut rng);
        let pa = g1::mul_fr(g1::generator(), &a).to_affine();
        let lhs = pairing(&pa, &g2_gen());
        let rhs = pairing(&g1_gen(), &g2_gen()).pow(&a);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn bilinearity_in_g2() {
        let mut rng = ChaChaRng::seed_from_u64(52);
        let b = Fr::random(&mut rng);
        let qb = g2::mul_fr(g2::generator(), &b).to_affine();
        let lhs = pairing(&g1_gen(), &qb);
        let rhs = pairing(&g1_gen(), &g2_gen()).pow(&b);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn full_bilinearity() {
        let mut rng = ChaChaRng::seed_from_u64(53);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let pa = g1::mul_fr(g1::generator(), &a).to_affine();
        let qb = g2::mul_fr(g2::generator(), &b).to_affine();
        assert_eq!(
            pairing(&pa, &qb),
            pairing(&g1_gen(), &g2_gen()).pow(&(a * b))
        );
    }

    #[test]
    fn additivity_left() {
        let mut rng = ChaChaRng::seed_from_u64(54);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let pa = g1::mul_fr(g1::generator(), &a);
        let pb = g1::mul_fr(g1::generator(), &b);
        let sum = pa.add(&pb).to_affine();
        let lhs = pairing(&sum, &g2_gen());
        let rhs = pairing(&pa.to_affine(), &g2_gen()).mul(&pairing(&pb.to_affine(), &g2_gen()));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn multi_pairing_is_product() {
        let mut rng = ChaChaRng::seed_from_u64(55);
        let pairs: Vec<(G1Affine, G2Affine)> = (0..4)
            .map(|_| {
                let a = Fr::random(&mut rng);
                let b = Fr::random(&mut rng);
                (
                    g1::mul_fr(g1::generator(), &a).to_affine(),
                    g2::mul_fr(g2::generator(), &b).to_affine(),
                )
            })
            .collect();
        let product = pairs
            .iter()
            .fold(Gt::one(), |acc, (p, q)| acc.mul(&pairing(p, q)));
        assert_eq!(multi_pairing(&pairs), product);
    }

    #[test]
    fn multi_pairing_inner_product_structure() {
        // ∏ e(g1^aᵢ, g2^bᵢ) = e(g1, g2)^{⟨a, b⟩} — the exact property the
        // FHIPE decryption relies on.
        let mut rng = ChaChaRng::seed_from_u64(56);
        let a: Vec<Fr> = (0..3).map(|_| Fr::random(&mut rng)).collect();
        let b: Vec<Fr> = (0..3).map(|_| Fr::random(&mut rng)).collect();
        let pairs: Vec<(G1Affine, G2Affine)> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| {
                (
                    g1::mul_fr(g1::generator(), x).to_affine(),
                    g2::mul_fr(g2::generator(), y).to_affine(),
                )
            })
            .collect();
        let ip: Fr = a.iter().zip(&b).map(|(x, y)| *x * *y).sum();
        assert_eq!(
            multi_pairing(&pairs),
            pairing(&g1_gen(), &g2_gen()).pow(&ip)
        );
    }

    #[test]
    fn cyclotomic_pow_matches_square_and_multiply() {
        let e = pairing(&g1_gen(), &g2_gen());
        let mut rng = ChaChaRng::seed_from_u64(57);
        for _ in 0..3 {
            let s = Fr::random(&mut rng);
            let limbs = s.to_canonical_limbs();
            assert_eq!(cyclotomic_pow_wnaf(&e.0, &limbs), e.0.pow_slice(&limbs));
        }
        // Edge exponents: 0, 1, 2, r−1 (the last equals inversion).
        assert_eq!(cyclotomic_pow_wnaf(&e.0, &[0]), Fp12::one());
        assert_eq!(cyclotomic_pow_wnaf(&e.0, &[1]), e.0);
        assert_eq!(cyclotomic_pow_wnaf(&e.0, &[2]), e.0.square());
        assert_eq!(e.pow(&(-Fr::one())), e.inverse());
        // `Gt::pow` takes the cyclotomic path: about one squaring per
        // exponent bit (a lower bound, since other tests bump the
        // process-wide counter too).
        let before = crate::ops::snapshot();
        e.pow(&Fr::random(&mut rng));
        assert!(crate::ops::snapshot().since(&before).cyclotomic_squares >= 200);
    }

    #[test]
    fn gt_group_ops() {
        let e = pairing(&g1_gen(), &g2_gen());
        assert_eq!(e.mul(&e.inverse()), Gt::one());
        assert_eq!(e.pow_u64(3), e.mul(&e).mul(&e));
        assert_eq!(e.pow(&Fr::from_u64(1)), e);
        assert_eq!(e.pow(&Fr::zero()), Gt::one());
        assert_eq!(e.to_bytes().len(), 576);
    }
}
