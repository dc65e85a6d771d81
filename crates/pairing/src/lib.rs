//! From-scratch implementation of the BLS12-381 pairing-friendly curve,
//! providing the asymmetric bilinear group `(G1, G2, GT, q, e)` that the
//! paper's Secure Join scheme (and the underlying function-hiding
//! inner-product encryption of Kim et al.) is built on.
//!
//! # Design
//!
//! * **Every constant is derived from the BLS parameter**
//!   `z = -0xd201_0000_0001_0000`: base-field modulus
//!   `p = (z-1)²(z⁴-z²+1)/3 + z`, scalar modulus `r = z⁴-z²+1`,
//!   Frobenius coefficients, endomorphism coefficients, cofactors and
//!   generators. No magic hex blobs; tests cross-check the derived
//!   values against the published standard ones. The two moduli are
//!   also written out in [`fp`] and [`fr`], so that their Montgomery
//!   parameters are compile-time constants ([`montgomery`]);
//!   [`params::consts`] asserts the literals equal `p(z)` and `r(z)`.
//! * **Field tower** `Fp → Fp2 → Fp6 → Fp12` with
//!   `Fp2 = Fp[u]/(u²+1)`, `Fp6 = Fp2[v]/(v³-ξ)`, `ξ = 1+u`,
//!   `Fp12 = Fp6[w]/(w²-v)`.
//! * **Pairing**: optimal ate, computed with affine Miller-loop formulas
//!   in `Fp2` twist coordinates (the untwist
//!   `(x', y') ↦ (x'/w², y'/w³)` keeps the formulas textbook-verifiable,
//!   and a dense `Fp12` loop over the untwisted points stays as the test
//!   oracle), every line normalised to `1 + b·w³ + c·w⁵` so `f·line`
//!   costs 10 `Fp2` multiplications, with **batched inversions across a
//!   multi-pairing** so the product of pairings in `SJ.Dec` shares one
//!   inversion per Miller step and a single final exponentiation.
//! * **Fast scalar multiplication** ([`scalar_mul`]): affine fixed-base
//!   comb tables for the generators (built once; then an exponentiation
//!   sums ≤ 32 table entries as an affine tree whose five levels each
//!   share one inversion across the whole batch) — the only way a
//!   protocol scalar reaches `G1` or `G2` — and width-5 wNAF for the one-time
//!   derivation of the generators themselves; [`ops`] counts every
//!   hot-path operation so the benchmark trajectory can audit "skipped
//!   work" claims exactly.
//! * **Endomorphism subgroup checks**: every decoded group element is
//!   validated with `φ(P) = −[z²]P` on `G1` and `ψ(P) = [z]P` on `G2`
//!   (Scott, eprint 2021/1130; proof in eprint 2022/352) — one or two
//!   multiplications by the 64-bit, Hamming-weight-6 `z` instead of a
//!   255-bit `r·P`, which survives only as the tests' reference oracle.
//! * **[`mock`] engine**: a transparent-exponent stand-in with the same
//!   [`engine::Engine`] API, used by fast protocol tests and by the
//!   full-scale shape experiments (see DESIGN.md §4).
//!
//! This is a research prototype: field addition, subtraction, negation
//! and multiplication are branch-free, but inversion, scalar
//! multiplication and everything above them are *not* constant-time (the
//! paper's security model is leakage at the query level, not side
//! channels), and `unsafe` is not used.

#![forbid(unsafe_code)]

pub mod curve;
pub mod engine;
pub mod fp;
pub mod fp12;
pub mod fp2;
pub mod fp6;
pub mod fr;
pub mod g1;
pub mod g2;
pub mod mock;
pub mod montgomery;
pub mod ops;
pub mod pairing;
pub mod params;
pub mod scalar_mul;
pub mod traits;

pub use engine::{Bls12, Engine};
pub use fp::Fp;
pub use fp12::Fp12;
pub use fp2::Fp2;
pub use fp6::Fp6;
pub use fr::Fr;
pub use g1::{G1Affine, G1Projective};
pub use g2::{G2Affine, G2Projective};
pub use mock::MockEngine;
pub use ops::OpCounts;
pub use pairing::{
    final_exponentiation, final_exponentiation_batch, multi_miller_loop,
    multi_miller_loop_prepared, multi_pairing, pairing, G2Prepared, Gt,
};
pub use traits::Field;
