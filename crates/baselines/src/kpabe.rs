//! A small-universe key-policy attribute-based encryption scheme in the
//! style of Goyal–Pandey–Sahai–Waters (GPSW 2006), adapted to a type-3
//! pairing: ciphertexts are labeled with attribute sets, keys carry
//! monotone AND/OR policies, and decryption succeeds iff the policy is
//! satisfied.
//!
//! This is the "wrapped KP-ABE encryption" layer of the paper's §2.1
//! description of Hahn et al. (ICDE 2019): it gates *which rows'* join
//! labels a query can unwrap. The encapsulated payload is a `GT` element
//! (hash it to derive a symmetric key).
//!
//! Construction (secret sharing of `y` down the policy tree):
//!
//! * Setup: `t_a ← Z_q` per attribute, `y ← Z_q`;
//!   public `T_a = g2^{t_a}`, `Y = e(g1,g2)^y`.
//! * Encrypt(`M ∈ GT`, set `γ`): `s ← Z_q`, `E' = M·Y^s`,
//!   `E_a = T_a^s = g2^{t_a·s}` for `a ∈ γ`.
//! * KeyGen(policy): share `y` (AND splits additively, OR copies);
//!   leaf for attribute `a` with share `q`: `D = g1^{q/t_a}`.
//! * Decrypt: satisfied leaf gives `e(D, E_a) = e(g1,g2)^{q·s}`;
//!   recombine up the tree to `e(g1,g2)^{y·s}`, divide out of `E'`.

use eqjoin_crypto::RandomSource;
use eqjoin_pairing::{Engine, Fr};
use std::collections::{HashMap, HashSet};

/// A monotone access policy over attribute names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Satisfied iff the attribute is present.
    Leaf(String),
    /// All children must be satisfied.
    And(Vec<Policy>),
    /// At least one child must be satisfied.
    Or(Vec<Policy>),
}

impl Policy {
    /// Leaf constructor.
    pub fn leaf(attr: &str) -> Policy {
        Policy::Leaf(attr.to_owned())
    }

    /// Plain satisfaction check against an attribute set.
    pub fn satisfied(&self, attrs: &HashSet<String>) -> bool {
        match self {
            Policy::Leaf(a) => attrs.contains(a),
            Policy::And(children) => children.iter().all(|c| c.satisfied(attrs)),
            Policy::Or(children) => children.iter().any(|c| c.satisfied(attrs)),
        }
    }
}

/// Master secret key (also holds the public parameters; this is a
/// single-authority research setting).
pub struct KpAbeMasterKey<E: Engine> {
    t: HashMap<String, Fr>,
    y: Fr,
    /// `e(g1, g2)` — the pairing of the generators.
    base: E::Gt,
    /// `Y = e(g1,g2)^y` (public).
    pub y_pub: E::Gt,
}

/// A ciphertext bound to an attribute set.
pub struct KpAbeCiphertext<E: Engine> {
    /// `E' = M · Y^s`.
    pub e_prime: E::Gt,
    /// `E_a = g2^{t_a·s}` for each attribute of the set.
    pub e: HashMap<String, E::G2>,
}

/// A decryption key for a policy.
pub struct KpAbeKey<E: Engine> {
    policy: Policy,
    /// Leaf decryption elements, in the order leaves appear in a
    /// depth-first walk of the policy.
    leaves: Vec<E::G1>,
}

/// The scheme.
pub struct KpAbe<E: Engine>(std::marker::PhantomData<E>);

impl<E: Engine> KpAbe<E> {
    /// Setup over a fixed attribute universe.
    pub fn setup(universe: &[String], rng: &mut dyn RandomSource) -> KpAbeMasterKey<E> {
        let t: HashMap<String, Fr> = universe
            .iter()
            .map(|a| (a.clone(), Fr::random_nonzero(rng)))
            .collect();
        let y = Fr::random_nonzero(rng);
        let base = E::pair(&E::g1_mul_gen(&Fr::one()), &E::g2_mul_gen(&Fr::one()));
        let y_pub = E::gt_pow(&base, &y);
        KpAbeMasterKey { t, y, base, y_pub }
    }

    /// Encrypt a `GT` message under an attribute set (all attributes must
    /// be in the universe).
    pub fn encrypt(
        msk: &KpAbeMasterKey<E>,
        message: &E::Gt,
        attrs: &HashSet<String>,
        rng: &mut dyn RandomSource,
    ) -> KpAbeCiphertext<E> {
        let s = Fr::random_nonzero(rng);
        let e_prime = E::gt_mul(message, &E::gt_pow(&msk.y_pub, &s));
        let exponents: Vec<Fr> = attrs
            .iter()
            .map(|a| *msk.t.get(a).expect("attribute in universe") * s)
            .collect();
        let e = attrs
            .iter()
            .cloned()
            .zip(E::g2_mul_gen_batch(&exponents))
            .collect();
        KpAbeCiphertext { e_prime, e }
    }

    /// Generate a key for a policy: the shares are drawn in a
    /// depth-first walk, then every leaf's generator multiplication runs
    /// in one batch.
    pub fn keygen(
        msk: &KpAbeMasterKey<E>,
        policy: &Policy,
        rng: &mut dyn RandomSource,
    ) -> KpAbeKey<E> {
        let mut exponents = Vec::new();
        Self::share(msk, policy, msk.y, rng, &mut exponents);
        KpAbeKey {
            policy: policy.clone(),
            leaves: E::g1_mul_gen_batch(&exponents),
        }
    }

    /// Push the exponent of each leaf under `node`, in depth-first order,
    /// for a subtree sharing `value`.
    fn share(
        msk: &KpAbeMasterKey<E>,
        node: &Policy,
        value: Fr,
        rng: &mut dyn RandomSource,
        exponents: &mut Vec<Fr>,
    ) {
        match node {
            Policy::Leaf(attr) => {
                let t_a = msk.t.get(attr).expect("attribute in universe");
                exponents.push(value * t_a.invert().expect("t_a nonzero"));
            }
            Policy::And(children) => {
                assert!(!children.is_empty(), "AND gate needs children");
                // Additive shares summing to `value`.
                let mut rest = value;
                for child in &children[..children.len() - 1] {
                    let share = Fr::random(rng);
                    rest -= share;
                    Self::share(msk, child, share, rng, exponents);
                }
                Self::share(msk, &children[children.len() - 1], rest, rng, exponents);
            }
            Policy::Or(children) => {
                assert!(!children.is_empty(), "OR gate needs children");
                for child in children {
                    Self::share(msk, child, value, rng, exponents);
                }
            }
        }
    }

    /// Decrypt; `None` when the ciphertext's attribute set does not
    /// satisfy the key's policy.
    pub fn decrypt(key: &KpAbeKey<E>, ct: &KpAbeCiphertext<E>) -> Option<E::Gt> {
        let mut cursor = 0usize;
        let y_s = Self::eval(&key.policy, &key.leaves, &mut cursor, ct)?;
        Some(E::gt_mul(&ct.e_prime, &E::gt_inv(&y_s)))
    }

    /// Recursive evaluation returning `e(g1,g2)^{q_node·s}` for satisfied
    /// subtrees. The cursor tracks the DFS leaf order of `keygen`; it
    /// must advance over *every* leaf, satisfied or not.
    fn eval(
        node: &Policy,
        leaves: &[E::G1],
        cursor: &mut usize,
        ct: &KpAbeCiphertext<E>,
    ) -> Option<E::Gt> {
        match node {
            Policy::Leaf(attr) => {
                let d = &leaves[*cursor];
                *cursor += 1;
                ct.e.get(attr).map(|e_a| E::pair(d, e_a))
            }
            Policy::And(children) => {
                let mut acc = E::gt_one();
                let mut ok = true;
                for child in children {
                    match Self::eval(child, leaves, cursor, ct) {
                        Some(v) if ok => acc = E::gt_mul(&acc, &v),
                        _ => ok = false,
                    }
                }
                ok.then_some(acc)
            }
            Policy::Or(children) => {
                let mut found = None;
                for child in children {
                    let v = Self::eval(child, leaves, cursor, ct);
                    if found.is_none() {
                        found = v;
                    }
                }
                found
            }
        }
    }

    /// A uniformly random `GT` message plus a symmetric key derived from
    /// it (encapsulation helper for hybrid use).
    pub fn random_message(
        msk: &KpAbeMasterKey<E>,
        rng: &mut dyn RandomSource,
    ) -> (E::Gt, [u8; 32]) {
        let r = Fr::random_nonzero(rng);
        let m = E::gt_pow(&msk.base, &r);
        (m, eqjoin_crypto::sha256(&E::gt_bytes(&m)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqjoin_crypto::ChaChaRng;
    use eqjoin_pairing::{Bls12, MockEngine};

    fn universe() -> Vec<String> {
        ["red", "blue", "green", "top"]
            .iter()
            .map(|s| (*s).to_string())
            .collect()
    }

    fn attrs(names: &[&str]) -> HashSet<String> {
        names.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn leaf_policy_roundtrip_mock() {
        let mut rng = ChaChaRng::seed_from_u64(1);
        let msk = KpAbe::<MockEngine>::setup(&universe(), &mut rng);
        let (m, _) = KpAbe::<MockEngine>::random_message(&msk, &mut rng);
        let ct = KpAbe::<MockEngine>::encrypt(&msk, &m, &attrs(&["red", "top"]), &mut rng);
        let key = KpAbe::<MockEngine>::keygen(&msk, &Policy::leaf("red"), &mut rng);
        assert_eq!(KpAbe::<MockEngine>::decrypt(&key, &ct), Some(m));
        let bad_key = KpAbe::<MockEngine>::keygen(&msk, &Policy::leaf("blue"), &mut rng);
        assert_eq!(KpAbe::<MockEngine>::decrypt(&bad_key, &ct), None);
    }

    #[test]
    fn and_or_policies_mock() {
        let mut rng = ChaChaRng::seed_from_u64(2);
        let msk = KpAbe::<MockEngine>::setup(&universe(), &mut rng);
        let (m, _) = KpAbe::<MockEngine>::random_message(&msk, &mut rng);
        let ct = KpAbe::<MockEngine>::encrypt(&msk, &m, &attrs(&["red", "green"]), &mut rng);

        let and_ok = Policy::And(vec![Policy::leaf("red"), Policy::leaf("green")]);
        let and_bad = Policy::And(vec![Policy::leaf("red"), Policy::leaf("blue")]);
        let or_ok = Policy::Or(vec![Policy::leaf("blue"), Policy::leaf("green")]);
        let or_bad = Policy::Or(vec![Policy::leaf("blue"), Policy::leaf("top")]);
        let nested = Policy::And(vec![or_ok.clone(), Policy::Or(vec![Policy::leaf("red")])]);

        for (policy, expect) in [
            (and_ok, true),
            (and_bad, false),
            (or_ok, true),
            (or_bad, false),
            (nested, true),
        ] {
            let key = KpAbe::<MockEngine>::keygen(&msk, &policy, &mut rng);
            assert_eq!(
                KpAbe::<MockEngine>::decrypt(&key, &ct).is_some(),
                expect,
                "{policy:?}"
            );
            assert_eq!(policy.satisfied(&attrs(&["red", "green"])), expect);
        }
    }

    #[test]
    fn or_succeeds_via_second_child() {
        // First OR child unsatisfied: the cursor must still consume its
        // leaf so the second child decrypts with the right element.
        let mut rng = ChaChaRng::seed_from_u64(3);
        let msk = KpAbe::<MockEngine>::setup(&universe(), &mut rng);
        let (m, _) = KpAbe::<MockEngine>::random_message(&msk, &mut rng);
        let ct = KpAbe::<MockEngine>::encrypt(&msk, &m, &attrs(&["green"]), &mut rng);
        let policy = Policy::Or(vec![Policy::leaf("red"), Policy::leaf("green")]);
        let key = KpAbe::<MockEngine>::keygen(&msk, &policy, &mut rng);
        assert_eq!(KpAbe::<MockEngine>::decrypt(&key, &ct), Some(m));
    }

    #[test]
    fn bls_engine_roundtrip() {
        let mut rng = ChaChaRng::seed_from_u64(4);
        let msk = KpAbe::<Bls12>::setup(&universe(), &mut rng);
        let (m, sym) = KpAbe::<Bls12>::random_message(&msk, &mut rng);
        let ct = KpAbe::<Bls12>::encrypt(&msk, &m, &attrs(&["red"]), &mut rng);
        let key = KpAbe::<Bls12>::keygen(
            &msk,
            &Policy::Or(vec![Policy::leaf("red"), Policy::leaf("blue")]),
            &mut rng,
        );
        let recovered = KpAbe::<Bls12>::decrypt(&key, &ct).expect("policy satisfied");
        assert_eq!(recovered, m);
        assert_eq!(eqjoin_crypto::sha256(&Bls12::gt_bytes(&recovered)), sym);
        let miss = KpAbe::<Bls12>::keygen(&msk, &Policy::leaf("green"), &mut rng);
        assert!(KpAbe::<Bls12>::decrypt(&miss, &ct).is_none());
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let mut rng = ChaChaRng::seed_from_u64(5);
        let msk = KpAbe::<MockEngine>::setup(&universe(), &mut rng);
        let (m, _) = KpAbe::<MockEngine>::random_message(&msk, &mut rng);
        let c1 = KpAbe::<MockEngine>::encrypt(&msk, &m, &attrs(&["red"]), &mut rng);
        let c2 = KpAbe::<MockEngine>::encrypt(&msk, &m, &attrs(&["red"]), &mut rng);
        assert_ne!(c1.e_prime, c2.e_prime);
    }

    /// `keygen`'s leaves with one generator multiplication per leaf,
    /// drawing the shares in the same depth-first order.
    fn leaves_one_by_one(
        msk: &KpAbeMasterKey<Bls12>,
        node: &Policy,
        value: Fr,
        rng: &mut dyn RandomSource,
        leaves: &mut Vec<Vec<u8>>,
    ) {
        match node {
            Policy::Leaf(attr) => {
                let exponent = value * msk.t[attr].invert().unwrap();
                leaves.push(Bls12::g1_bytes(&Bls12::g1_mul_gen(&exponent)));
            }
            Policy::And(children) => {
                let mut rest = value;
                for child in &children[..children.len() - 1] {
                    let share = Fr::random(rng);
                    rest -= share;
                    leaves_one_by_one(msk, child, share, rng, leaves);
                }
                leaves_one_by_one(msk, children.last().unwrap(), rest, rng, leaves);
            }
            Policy::Or(children) => {
                for child in children {
                    leaves_one_by_one(msk, child, value, rng, leaves);
                }
            }
        }
    }

    #[test]
    fn batched_encrypt_and_keygen_equal_one_multiplication_at_a_time() {
        let mut rng = ChaChaRng::seed_from_u64(6);
        let msk = KpAbe::<Bls12>::setup(&universe(), &mut rng);
        let (m, _) = KpAbe::<Bls12>::random_message(&msk, &mut rng);
        let set = attrs(&["red", "green", "top"]);

        let ct = KpAbe::<Bls12>::encrypt(&msk, &m, &set, &mut ChaChaRng::seed_from_u64(7));
        let mut rng = ChaChaRng::seed_from_u64(7);
        let s = Fr::random_nonzero(&mut rng);
        let e_prime = Bls12::gt_mul(&m, &Bls12::gt_pow(&msk.y_pub, &s));
        assert_eq!(Bls12::gt_bytes(&ct.e_prime), Bls12::gt_bytes(&e_prime));
        assert_eq!(ct.e.len(), set.len());
        for a in &set {
            let single = Bls12::g2_mul_gen(&(msk.t[a] * s));
            assert_eq!(Bls12::g2_bytes(&ct.e[a]), Bls12::g2_bytes(&single), "{a}");
        }

        let policy = Policy::And(vec![
            Policy::Or(vec![Policy::leaf("red"), Policy::leaf("blue")]),
            Policy::leaf("green"),
            Policy::And(vec![Policy::leaf("top"), Policy::leaf("red")]),
        ]);
        let key = KpAbe::<Bls12>::keygen(&msk, &policy, &mut ChaChaRng::seed_from_u64(8));
        let mut expected = Vec::new();
        let mut rng = ChaChaRng::seed_from_u64(8);
        leaves_one_by_one(&msk, &policy, msk.y, &mut rng, &mut expected);
        let leaves: Vec<Vec<u8>> = key.leaves.iter().map(Bls12::g1_bytes).collect();
        assert_eq!(leaves, expected);
        assert_eq!(leaves.len(), 5);
        assert_eq!(KpAbe::<Bls12>::decrypt(&key, &ct), Some(m));
    }
}
