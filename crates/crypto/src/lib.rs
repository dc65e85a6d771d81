//! Symmetric-cryptography substrate for the encrypted-join system.
//!
//! The paper's scheme needs (a) a cryptographic hash `H(·)` mapping join
//! attribute values into `Z_q` "acting as much as practically possible like
//! a random function" (§4.3), (b) randomness for keys, blinding factors and
//! matrix sampling, and (c) payload encryption so the client can recover the
//! plaintext of joined rows. No external crypto crates are assumed, so this
//! crate implements the required primitives from scratch:
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256. Round constants are *derived* at
//!   startup with exact integer cube/square roots instead of being
//!   hard-coded, and checked against the standard test vectors.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104), with the padded-key state
//!   precomputed once per key ([`HmacKey`]), and an HKDF-style expander.
//! * [`chacha20`] — the RFC 8439 ChaCha20 stream cipher.
//! * [`rng`] — a deterministic ChaCha20-based CSPRNG behind the dyn-safe
//!   [`RandomSource`] trait used everywhere randomness is needed. All
//!   protocol randomness flows through this trait so experiments are
//!   reproducible bit-for-bit from a seed.
//! * [`aead`] — encrypt-then-MAC authenticated encryption
//!   (ChaCha20 + HMAC-SHA-256) for row payloads.
//! * [`prf`] — a keyed PRF and key-derivation helpers used by the
//!   pre-filter tags and the baseline schemes.

#![forbid(unsafe_code)]

pub mod aead;
pub mod chacha20;
pub mod hmac;
pub mod prf;
pub mod rng;
pub mod sha256;

pub use aead::{AeadError, AeadKey};
pub use hmac::{hkdf_expand, hmac_sha256, HmacKey};
pub use prf::Prf;
pub use rng::{ChaChaRng, RandomSource};
pub use sha256::{sha256, Sha256};
