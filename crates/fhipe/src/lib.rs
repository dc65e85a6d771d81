//! Function-hiding inner-product encryption (FHIPE).
//!
//! [`modified`] implements, over a generic bilinear [`Engine`], the
//! paper's §4.2 variant of Kim et al.'s construction (SCN 2018) that
//! Secure Join uses: the `α`/`β` randomizers are fixed to 1 (randomness
//! moves into the last two vector slots), only the second component of
//! keys/ciphertexts is kept, and decryption returns the raw group element
//! `e(g1,g2)^{det(B)·⟨v,w⟩}` instead of extracting the exponent.
//!
//! [`linalg`] provides the `GL_n(Z_q)` machinery (`B`, `B⁻¹`, `det B`,
//! `B* = det(B)·(B⁻¹)ᵀ`).
//!
//! [`Engine`]: eqjoin_pairing::Engine

#![forbid(unsafe_code)]

pub mod error;
pub mod linalg;
pub mod modified;

pub use error::DimensionMismatch;
pub use linalg::Matrix;
pub use modified::{
    ModifiedIpe, ModifiedIpeCiphertext, ModifiedIpeMasterKey, ModifiedIpePreparedCiphertext,
    ModifiedIpeToken,
};
