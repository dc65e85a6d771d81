//! HMAC-SHA-256 (RFC 2104) and an HKDF-expand style key-derivation helper.

use crate::sha256::{sha256, Sha256, BLOCK_LEN, DIGEST_LEN};

/// An HMAC-SHA-256 key with its padded-key blocks absorbed once: the
/// SHA-256 states after `key ⊕ ipad` and `key ⊕ opad`. A MAC clones
/// both, so it costs the message's compressions plus one for the outer
/// hash instead of two more for the key.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Precompute the key state (any key length).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; BLOCK_LEN];
        let mut opad = [0x5cu8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] ^= k[i];
            opad[i] ^= k[i];
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// HMAC of `data`.
    pub fn mac(&self, data: &[u8]) -> [u8; DIGEST_LEN] {
        self.mac_parts(&[data])
    }

    /// HMAC of the concatenation of `parts`, without building it.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// HMAC-SHA-256 of `data` under `key` (any key length).
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).mac(data)
}

/// HKDF-style expansion: derive `len` bytes from `prk` and `info`
/// (RFC 5869 expand step with HMAC-SHA-256).
pub fn hkdf_expand(prk: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * DIGEST_LEN, "hkdf output too long");
    let key = HmacKey::new(prk);
    let mut out = Vec::with_capacity(len);
    let mut t: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while out.len() < len {
        let block = key.mac_parts(&[&t, info, &[counter]]);
        let take = (len - out.len()).min(DIGEST_LEN);
        out.extend_from_slice(&block[..take]);
        t = block.to_vec();
        counter = counter.checked_add(1).expect("hkdf counter overflow");
    }
    out
}

/// Constant-time byte-slice equality (length must match).
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_cases_3_to_7() {
        let long_key = [0xaau8; 131];
        let key_4: Vec<u8> = (1..=25).collect();
        let cases: [(&[u8], &[u8], &str); 5] = [
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &key_4,
                &[0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            // Case 5 publishes only the first 128 bits.
            (
                &[0x0c; 20],
                b"Test With Truncation",
                "a3b6167473100ee06e0c796c2955552b",
            ),
            (
                &long_key,
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                &long_key,
                b"This is a test using a larger than block-size key and a larger \
                  than block-size data. The key needs to be hashed before being \
                  used by the HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for (key, data, expect) in cases {
            let mac = hex(&HmacKey::new(key).mac(data));
            assert_eq!(&mac[..expect.len()], expect);
        }
    }

    /// The one-shot HMAC as it was before keys were precomputed: the
    /// oracle the precomputed state must reproduce byte for byte.
    fn oracle_hmac(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; BLOCK_LEN];
        let mut opad = [0x5cu8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] ^= k[i];
            opad[i] ^= k[i];
        }
        let mut inner = Sha256::new();
        inner.update(&ipad).update(data);
        let mut outer = Sha256::new();
        outer.update(&opad).update(&inner.finalize());
        outer.finalize()
    }

    /// HKDF-expand over the oracle, as it was written before.
    fn oracle_hkdf(prk: &[u8], info: &[u8], len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut t: Vec<u8> = Vec::new();
        let mut counter = 1u8;
        while out.len() < len {
            let mut msg = t.clone();
            msg.extend_from_slice(info);
            msg.push(counter);
            t = oracle_hmac(prk, &msg).to_vec();
            let take = (len - out.len()).min(DIGEST_LEN);
            out.extend_from_slice(&t[..take]);
            counter += 1;
        }
        out
    }

    #[test]
    fn precomputed_key_matches_the_one_shot_oracle() {
        use crate::rng::{ChaChaRng, RandomSource};
        let mut rng = ChaChaRng::seed_from_u64(4231);
        let mut draw = |bound: u64| (rng.next_u64() % bound) as usize;
        for _ in 0..400 {
            // Keys up to 150 bytes (past the 64-byte block: hashed
            // first), messages across several block boundaries.
            let key: Vec<u8> = (0..draw(151)).map(|_| draw(256) as u8).collect();
            let data: Vec<u8> = (0..draw(300)).map(|_| draw(256) as u8).collect();
            let expect = oracle_hmac(&key, &data);
            let hmac = HmacKey::new(&key);
            assert_eq!(hmac_sha256(&key, &data), expect, "key {}", key.len());
            assert_eq!(hmac.mac(&data), expect);
            let (a, rest) = data.split_at(draw(data.len() as u64 + 1));
            let (b, c) = rest.split_at(draw(rest.len() as u64 + 1));
            assert_eq!(hmac.mac_parts(&[a, b, c]), expect, "split MAC");
            let len = draw(130);
            assert_eq!(hkdf_expand(&key, &data, len), oracle_hkdf(&key, &data, len));
        }
    }

    #[test]
    fn long_key_is_hashed() {
        // Keys longer than the block size are first hashed; verify against
        // the equivalent short-key invocation.
        let long_key = vec![0x42u8; 100];
        let short_key = sha256(&long_key);
        assert_eq!(
            hmac_sha256(&long_key, b"msg"),
            hmac_sha256(&short_key, b"msg")
        );
    }

    #[test]
    fn distinct_keys_distinct_macs() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }

    #[test]
    fn hkdf_lengths_and_prefix_property() {
        let prk = sha256(b"input key material");
        let a = hkdf_expand(&prk, b"ctx", 16);
        let b = hkdf_expand(&prk, b"ctx", 80);
        assert_eq!(a.len(), 16);
        assert_eq!(b.len(), 80);
        assert_eq!(&b[..16], &a[..]);
        assert_ne!(hkdf_expand(&prk, b"ctx2", 16), a);
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"same "));
        assert!(!ct_eq(b"abcd", b"abce"));
        assert!(ct_eq(b"", b""));
    }
}
