//! A `G2` point that is validly encoded and **on the curve** but outside
//! the order-`r` subgroup, and the means to plant it where this server
//! trusts a checksum: a snapshot body (SHA-256 re-stamped) and a journal
//! (each record's FNV-1a recomputed). Shared by `subgroup_rejection.rs`
//! and `stored_elements.rs`.

#![allow(dead_code)] // each test binary uses its own subset

use eqjoin::crypto::sha256;
use eqjoin::pairing::curve::{Affine, CurveParams};
use eqjoin::pairing::{g2, params, Bls12, Engine, Field, Fp, Fp2, G2Affine};

/// Not in the subgroup by the definition (`r·P ≠ O`, textbook ladder),
/// independent of the check under test.
pub fn outside_subgroup<C: CurveParams>(p: &Affine<C>) -> bool {
    !p.to_projective()
        .mul_limbs(&params::consts().r_limbs)
        .is_identity()
}

/// An on-curve `G2` point outside the subgroup: the first twist point
/// `x = n + u`, before any cofactor clearing.
pub fn g2_point_outside_subgroup() -> G2Affine {
    let p = (0u64..)
        .find_map(|n| {
            let x = Fp2::new(Fp::from_u64(n), Fp::one());
            let y = (x.square() * x + g2::G2Params::b()).sqrt()?;
            G2Affine::new(x, y)
        })
        .expect("some small x is on the twist");
    assert!(p.is_on_curve() && outside_subgroup(&p));
    p
}

/// Wire bytes of [`g2_point_outside_subgroup`].
pub fn g2_outside_subgroup() -> Vec<u8> {
    g2::to_bytes(&g2_point_outside_subgroup()).to_vec()
}

/// `bytes` with the first occurrence of `element` overwritten by
/// `replacement` (same length, so every length prefix stays valid).
pub fn splice(bytes: &[u8], element: &[u8], replacement: &[u8]) -> Vec<u8> {
    assert_eq!(element.len(), replacement.len());
    let at = bytes
        .windows(element.len())
        .position(|w| w == element)
        .expect("the element is in the encoding");
    let mut out = bytes.to_vec();
    out[at..at + element.len()].copy_from_slice(replacement);
    out
}

/// A `Bls12` snapshot with `element` replaced and the body's SHA-256
/// re-stamped, so the checksum vouches for the replacement.
pub fn splice_snapshot(snapshot: &[u8], element: &[u8], replacement: &[u8]) -> Vec<u8> {
    // Header: magic (8) + version (4) + engine name (u64 length + bytes)
    // + body length (8) + SHA-256 of the body (32); then the body.
    let body_at = 8 + 4 + 8 + Bls12::NAME.len() + 8 + 32;
    let mut out = splice(snapshot, element, replacement);
    let checksum = sha256(&out[body_at..]);
    out[body_at - 32..body_at].copy_from_slice(&checksum);
    out
}

/// A journal file (`len ‖ fnv1a ‖ bytes` records) with `element`
/// replaced and every record's checksum recomputed.
pub fn splice_journal(journal: &[u8], element: &[u8], replacement: &[u8]) -> Vec<u8> {
    let mut out = splice(journal, element, replacement);
    let mut at = 0;
    while at < out.len() {
        let len = u32::from_le_bytes(out[at..at + 4].try_into().unwrap()) as usize;
        let sum = out[at + 8..at + 8 + len]
            .iter()
            .fold(0x811c_9dc5u32, |h, &b| {
                (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
            });
        out[at + 4..at + 8].copy_from_slice(&sum.to_le_bytes());
        at += 8 + len;
    }
    out
}
