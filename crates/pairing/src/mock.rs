//! A transparent-exponent mock bilinear group.
//!
//! Elements of `G1`, `G2` and `GT` are represented *by their discrete
//! logarithms* in `Fr`, and the "pairing" multiplies exponents. This is
//! obviously **not secure** (discrete logs are public by construction) but
//! it is a perfect *functional* model of a bilinear group of order `r`:
//! every algebraic identity the schemes rely on holds exactly.
//!
//! It is used for (a) fast protocol unit/property tests, and (b) the
//! full-scale *shape* experiments of Figures 3/4, where the runtime of the
//! real pairing would dominate wall-clock without changing the reported
//! shapes (DESIGN.md §4 documents this substitution).

use crate::engine::Engine;
use crate::fr::Fr;

/// Mock `G1` element `g1^x`, stored as `x`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct MockG1(pub Fr);

/// Mock `G2` element `g2^x`, stored as `x`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct MockG2(pub Fr);

/// Mock `GT` element `e(g1,g2)^x`, stored as `x`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct MockGt(pub Fr);

/// The mock engine.
#[derive(Clone, Copy, Debug)]
pub struct MockEngine;

impl Engine for MockEngine {
    type G1 = MockG1;
    type G2 = MockG2;
    type Gt = MockGt;
    // Nothing to precompute when exponents are transparent — the
    // "prepared" form is the element itself.
    type G2Prepared = MockG2;

    const NAME: &'static str = "mock";
    const G1_BYTES: usize = Fr::BYTES;

    fn g1_mul_gen(s: &Fr) -> MockG1 {
        MockG1(*s)
    }

    fn g2_mul_gen(s: &Fr) -> MockG2 {
        MockG2(*s)
    }

    fn pair(p: &MockG1, q: &MockG2) -> MockGt {
        MockGt(p.0 * q.0)
    }

    fn multi_pair(ps: &[MockG1], qs: &[MockG2]) -> MockGt {
        assert_eq!(ps.len(), qs.len(), "multi_pair length mismatch");
        MockGt(ps.iter().zip(qs).map(|(p, q)| p.0 * q.0).sum())
    }

    fn g2_prepare_batch(qs: &[MockG2]) -> Vec<MockG2> {
        qs.to_vec()
    }

    fn multi_pair_prepared(ps: &[MockG1], qs: &[MockG2]) -> MockGt {
        Self::multi_pair(ps, qs)
    }

    fn gt_one() -> MockGt {
        MockGt(Fr::zero())
    }

    fn gt_mul(a: &MockGt, b: &MockGt) -> MockGt {
        MockGt(a.0 + b.0)
    }

    fn gt_pow(a: &MockGt, s: &Fr) -> MockGt {
        MockGt(a.0 * *s)
    }

    fn gt_inv(a: &MockGt) -> MockGt {
        MockGt(-a.0)
    }

    fn gt_bytes(a: &MockGt) -> Vec<u8> {
        a.0.to_bytes().to_vec()
    }

    fn g1_bytes(p: &MockG1) -> Vec<u8> {
        p.0.to_bytes().to_vec()
    }

    fn g1_from_bytes(bytes: &[u8]) -> Option<MockG1> {
        let arr: &[u8; 32] = bytes.try_into().ok()?;
        Fr::from_bytes(arr).map(MockG1)
    }

    fn g2_bytes(p: &MockG2) -> Vec<u8> {
        p.0.to_bytes().to_vec()
    }

    fn g2_from_bytes(bytes: &[u8]) -> Option<MockG2> {
        let arr: &[u8; 32] = bytes.try_into().ok()?;
        Fr::from_bytes(arr).map(MockG2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqjoin_crypto::ChaChaRng;

    #[test]
    fn mock_bilinearity() {
        let mut rng = ChaChaRng::seed_from_u64(71);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let e = MockEngine::pair(&MockEngine::g1_mul_gen(&a), &MockEngine::g2_mul_gen(&b));
        let e_gen = MockEngine::pair(
            &MockEngine::g1_mul_gen(&Fr::one()),
            &MockEngine::g2_mul_gen(&Fr::one()),
        );
        assert_eq!(e, MockEngine::gt_pow(&e_gen, &(a * b)));
    }

    #[test]
    fn mock_multi_pair_inner_product() {
        let mut rng = ChaChaRng::seed_from_u64(72);
        let a: Vec<Fr> = (0..5).map(|_| Fr::random(&mut rng)).collect();
        let b: Vec<Fr> = (0..5).map(|_| Fr::random(&mut rng)).collect();
        let ps: Vec<MockG1> = a.iter().map(MockEngine::g1_mul_gen).collect();
        let qs: Vec<MockG2> = b.iter().map(MockEngine::g2_mul_gen).collect();
        let ip: Fr = a.iter().zip(&b).map(|(x, y)| *x * *y).sum();
        assert_eq!(MockEngine::multi_pair(&ps, &qs), MockGt(ip));
    }

    #[test]
    fn mock_serialization() {
        let mut rng = ChaChaRng::seed_from_u64(73);
        let p = MockEngine::g1_mul_gen(&Fr::random(&mut rng));
        assert_eq!(
            MockEngine::g1_from_bytes(&MockEngine::g1_bytes(&p)).unwrap(),
            p
        );
    }

    #[test]
    fn mock_gt_bytes_equality_semantics() {
        // Equal exponents ⇒ equal bytes (hash-join key property).
        let a = MockGt(Fr::from_u64(5));
        let b = MockEngine::gt_mul(&MockGt(Fr::from_u64(2)), &MockGt(Fr::from_u64(3)));
        assert_eq!(MockEngine::gt_bytes(&a), MockEngine::gt_bytes(&b));
    }
}
