//! The kernel's signing identity (§2.4).
//!
//! On first boot the Nexus uses the TPM to create a *Nexus key* NK
//! bound to the boot-time PCR values, plus a per-boot *Nexus boot key*
//! NBK identifying the boot instantiation. Processes are named as
//! subprincipals of NK‖hash(NBK_pub). Externalized labels are signed
//! with NK and accompanied by the TPM's attestation of NK, so a remote
//! verifier reconstructs the chain
//! `TPM says kernel says labelstore says process says S`.

use crate::credential::Certificate;
use crate::label::Label;
use ed25519_dalek::{Signer, SigningKey};
use nexus_tpm::{AikCert, KeyAttestation, PcrSelection, Tpm};

/// Holds NK/NBK and the TPM attestation artifacts needed to
/// externalize labels.
pub struct KernelSigner {
    nk: SigningKey,
    nbk: SigningKey,
    nk_attestation: KeyAttestation,
    aik_cert: AikCert,
}

impl KernelSigner {
    /// Create the kernel identity on an owned TPM: generates NK and
    /// NBK and has the TPM certify NK under the current boot-chain
    /// composite.
    pub fn generate(tpm: &mut Tpm) -> Result<KernelSigner, nexus_tpm::TpmError> {
        let mut seed = [0u8; 32];
        tpm.get_random(&mut seed);
        let nk = SigningKey::from_bytes(&seed);
        tpm.get_random(&mut seed);
        let nbk = SigningKey::from_bytes(&seed);
        let nk_attestation =
            tpm.certify_key(nk.verifying_key().to_bytes(), &PcrSelection::boot_chain())?;
        let aik_cert = tpm.aik_cert()?;
        Ok(KernelSigner {
            nk,
            nbk,
            nk_attestation,
            aik_cert,
        })
    }

    /// Hex digest of the NBK public key — the boot-instantiation id
    /// appearing in fully-qualified principal names.
    pub fn boot_id(&self) -> String {
        let d = nexus_tpm::hash(self.nbk.verifying_key().as_bytes());
        d.to_hex()[..16].to_string()
    }

    /// The TPM's attestation binding NK to the measured kernel.
    pub fn nk_attestation(&self) -> &KeyAttestation {
        &self.nk_attestation
    }

    /// The AIK certificate chaining to the EK.
    pub fn aik_cert(&self) -> &AikCert {
        &self.aik_cert
    }

    /// Sign a label into an externalized certificate.
    pub fn sign_label(&self, label: &Label) -> Certificate {
        let statement = label.statement.to_string();
        let speaker = label.speaker.to_string();
        let boot_id = self.boot_id();
        let msg = Certificate::message(&speaker, &statement, &boot_id);
        let signature = self.nk.sign(&msg).to_bytes().to_vec();
        Certificate {
            speaker,
            statement,
            boot_id,
            nk_pub: self.nk.verifying_key().to_bytes(),
            nk_attestation: self.nk_attestation.clone(),
            aik_cert: self.aik_cert.clone(),
            signature,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_produces_attested_nk() {
        let mut tpm = Tpm::new_with_seed(11);
        tpm.pcrs_mut().extend(4, b"nexus-kernel");
        tpm.take_ownership().unwrap();
        let signer = KernelSigner::generate(&mut tpm).unwrap();
        let aik = signer.aik_cert().aik().unwrap();
        assert!(signer.nk_attestation().verify(&aik));
        assert!(signer.aik_cert().verify(&tpm.ek_public()));
        assert_eq!(signer.boot_id().len(), 16);
    }

    #[test]
    fn distinct_boots_have_distinct_ids() {
        let mut tpm = Tpm::new_with_seed(12);
        tpm.take_ownership().unwrap();
        let a = KernelSigner::generate(&mut tpm).unwrap();
        let b = KernelSigner::generate(&mut tpm).unwrap();
        assert_ne!(a.boot_id(), b.boot_id());
    }

    #[test]
    fn requires_owned_tpm() {
        let mut tpm = Tpm::new_with_seed(13);
        assert!(KernelSigner::generate(&mut tpm).is_err());
    }
}
