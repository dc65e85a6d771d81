//! Authenticated encryption for row payloads: ChaCha20 encrypt-then-MAC
//! with HMAC-SHA-256.
//!
//! Wire format: `nonce (12) || ciphertext || tag (32)`. The MAC covers the
//! nonce, the associated data length, the associated data and the
//! ciphertext, so truncation and AD-substitution are rejected.

use crate::chacha20::{self, KEY_LEN, NONCE_LEN};
use crate::hmac::{ct_eq, hkdf_expand, HmacKey};
use crate::rng::RandomSource;

/// MAC tag length in bytes.
pub const TAG_LEN: usize = 32;

/// Errors returned by [`AeadKey::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AeadError {
    /// Ciphertext is shorter than `nonce + tag`.
    Truncated,
    /// MAC verification failed.
    BadTag,
}

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AeadError::Truncated => write!(f, "ciphertext too short"),
            AeadError::BadTag => write!(f, "authentication tag mismatch"),
        }
    }
}

impl std::error::Error for AeadError {}

/// An authenticated-encryption key (independent sub-keys for encryption
/// and authentication, derived from one 32-byte master key).
#[derive(Clone)]
pub struct AeadKey {
    enc: [u8; KEY_LEN],
    mac: HmacKey,
}

impl AeadKey {
    /// Derive the AEAD sub-keys from a 32-byte master key.
    pub fn from_master(master: &[u8; 32]) -> Self {
        let okm = hkdf_expand(master, b"eqjoin-aead-v1", KEY_LEN + 32);
        let mut enc = [0u8; KEY_LEN];
        enc.copy_from_slice(&okm[..KEY_LEN]);
        AeadKey {
            enc,
            mac: HmacKey::new(&okm[KEY_LEN..]),
        }
    }

    /// Sample a fresh key.
    pub fn generate(rng: &mut dyn RandomSource) -> Self {
        let mut master = [0u8; 32];
        rng.fill_bytes(&mut master);
        Self::from_master(&master)
    }

    /// The tag over `nonce || len(ad) as u64 LE || ad || ct`.
    fn tag(&self, nonce: &[u8; NONCE_LEN], ad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let ad_len = (ad.len() as u64).to_le_bytes();
        self.mac.mac_parts(&[nonce, &ad_len, ad, ct])
    }

    /// Encrypt `plaintext` binding `ad` (associated data), drawing a fresh
    /// nonce from `rng`.
    pub fn seal(&self, rng: &mut dyn RandomSource, ad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        let mut ct = plaintext.to_vec();
        chacha20::apply_keystream(&self.enc, &nonce, 1, &mut ct);
        let tag = self.tag(&nonce, ad, &ct);
        let mut out = Vec::with_capacity(NONCE_LEN + ct.len() + TAG_LEN);
        out.extend_from_slice(&nonce);
        out.extend_from_slice(&ct);
        out.extend_from_slice(&tag);
        out
    }

    /// Decrypt and verify; returns the plaintext.
    pub fn open(&self, ad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, AeadError> {
        if sealed.len() < NONCE_LEN + TAG_LEN {
            return Err(AeadError::Truncated);
        }
        let (nonce_bytes, rest) = sealed.split_at(NONCE_LEN);
        let (ct, tag) = rest.split_at(rest.len() - TAG_LEN);
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(nonce_bytes);
        let expect = self.tag(&nonce, ad, ct);
        if !ct_eq(&expect, tag) {
            return Err(AeadError::BadTag);
        }
        let mut pt = ct.to_vec();
        chacha20::apply_keystream(&self.enc, &nonce, 1, &mut pt);
        Ok(pt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::ChaChaRng;

    fn key() -> AeadKey {
        AeadKey::from_master(&[3u8; 32])
    }

    #[test]
    fn roundtrip() {
        let k = key();
        let mut rng = ChaChaRng::seed_from_u64(0);
        let sealed = k.seal(&mut rng, b"row:7", b"secret payload");
        assert_eq!(k.open(b"row:7", &sealed).unwrap(), b"secret payload");
    }

    #[test]
    fn wrong_ad_rejected() {
        let k = key();
        let mut rng = ChaChaRng::seed_from_u64(0);
        let sealed = k.seal(&mut rng, b"row:7", b"secret payload");
        assert_eq!(k.open(b"row:8", &sealed), Err(AeadError::BadTag));
    }

    #[test]
    fn tamper_rejected() {
        let k = key();
        let mut rng = ChaChaRng::seed_from_u64(0);
        let mut sealed = k.seal(&mut rng, b"", b"secret payload");
        for i in 0..sealed.len() {
            sealed[i] ^= 1;
            assert!(k.open(b"", &sealed).is_err(), "flip at {i} accepted");
            sealed[i] ^= 1;
        }
        assert!(k.open(b"", &sealed).is_ok());
    }

    #[test]
    fn truncation_rejected() {
        let k = key();
        let mut rng = ChaChaRng::seed_from_u64(0);
        let sealed = k.seal(&mut rng, b"", b"payload");
        assert_eq!(k.open(b"", &sealed[..10]), Err(AeadError::Truncated));
        assert_eq!(
            k.open(b"", &sealed[..sealed.len() - 1]),
            Err(AeadError::BadTag)
        );
    }

    #[test]
    fn fresh_nonce_randomizes_ciphertext() {
        let k = key();
        let mut rng = ChaChaRng::seed_from_u64(0);
        let a = k.seal(&mut rng, b"", b"same message");
        let b = k.seal(&mut rng, b"", b"same message");
        assert_ne!(a, b);
        assert_eq!(k.open(b"", &a).unwrap(), k.open(b"", &b).unwrap());
    }

    #[test]
    fn wrong_key_rejected() {
        let k1 = key();
        let k2 = AeadKey::from_master(&[4u8; 32]);
        let mut rng = ChaChaRng::seed_from_u64(0);
        let sealed = k1.seal(&mut rng, b"", b"msg");
        assert!(k2.open(b"", &sealed).is_err());
    }

    #[test]
    fn empty_plaintext() {
        let k = key();
        let mut rng = ChaChaRng::seed_from_u64(0);
        let sealed = k.seal(&mut rng, b"ad", b"");
        assert_eq!(k.open(b"ad", &sealed).unwrap(), Vec::<u8>::new());
    }
}
