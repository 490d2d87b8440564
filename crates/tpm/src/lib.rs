//! # Software Trusted Platform Module
//!
//! A functional model of the secure coprocessor the Nexus runs on
//! (§2.4, §3.3, §3.4 of the paper). The original evaluation used an
//! Atmel v1.2-compatible TPM; here the device is simulated in software
//! so the rest of the stack — measured boot, PCR-bound keys, sealed
//! storage, DIR-based replay protection, quotes, and credential chains
//! rooted in the EK — exercises the same interfaces and failure modes
//! (wrong PCRs ⇒ unseal fails; re-imaged disk ⇒ DIR mismatch ⇒ boot
//! abort) without hardware.
//!
//! Substitutions relative to the physical part (documented under
//! "Paper vs. measured" in the workspace README): SHA-256 instead of SHA-1, Ed25519 instead of RSA, and
//! 32-byte instead of 20-byte integrity registers.
//!
//! ## Layout
//!
//! * [`pcr`] — platform configuration registers and composites,
//! * [`device`] — the [`Tpm`] itself: ownership, EK/SRK/AIK, DIRs,
//!   NVRAM, monotonic counters,
//! * [`seal`] — sealing storage to PCR state,
//! * [`quote`] — remote attestation quotes and key certification.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod error;
pub mod pcr;
pub mod quote;
pub mod seal;

pub use device::{Tpm, DIR_COUNT, NVRAM_CAPACITY};
pub use error::TpmError;
pub use pcr::{Digest, PcrBank, PcrSelection, DIGEST_LEN, PCR_COUNT};
pub use quote::{AikCert, KeyAttestation, Quote};
pub use seal::SealedBlob;

/// Convenience: SHA-256 of a byte string as a [`Digest`].
pub fn hash(data: &[u8]) -> Digest {
    use sha2::{Digest as _, Sha256};
    let mut h = Sha256::new();
    h.update(data);
    let out = h.finalize();
    let mut d = [0u8; DIGEST_LEN];
    d.copy_from_slice(&out);
    Digest(d)
}

/// SHA-256 over the concatenation of several byte strings, with
/// length framing so `("ab","c")` and `("a","bc")` differ.
pub fn hash_concat(parts: &[&[u8]]) -> Digest {
    use sha2::{Digest as _, Sha256};
    let mut h = Sha256::new();
    for p in parts {
        h.update((p.len() as u64).to_le_bytes());
        h.update(p);
    }
    let out = h.finalize();
    let mut d = [0u8; DIGEST_LEN];
    d.copy_from_slice(&out);
    Digest(d)
}
