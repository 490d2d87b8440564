//! Figure 7a (beyond the paper): analysis cost vs credential reuse.
//!
//! The attestation analyzer (ISSUE 8) is a labeling function: the
//! expensive static analysis runs once at first contact, mints
//! `panic_free` into the encoder's labelstore, and every later
//! authorization discharges the CertiPics upload goal from that
//! credential — a decision-cache hit after the first proof. The
//! alternative the paper's analytic basis replaces is re-establishing
//! the property on every request. This bench measures both against the
//! same CertiPics upload gate:
//!
//! * **reanalyze-per-auth** — every upload is preceded by a forced
//!   re-analysis (revoke → analyze → re-mint, retiring the encoder's
//!   cached verdicts), so each authorization pays the full analysis
//!   plus an uncached verdict;
//! * **first-contact** — the one-time cost of registering an encoder:
//!   analysis, minting, and the first (uncached) authorization;
//! * **credential-reuse** — steady state: uploads authorized against
//!   the standing credential, decision-cache hits throughout.
//!
//! Acceptance bound (checked in the test and recorded in the ROADMAP):
//! credential reuse is ≥ 5× cheaper per authorization than
//! re-analysis.

use crate::{boot_with, time_ns};
use nexus_apps::certipics::{sample_encoder, CertiPicsService, Image};
use nexus_kernel::{Nexus, NexusConfig};
use serde::Serialize;
use std::sync::Arc;

/// Stage functions in the benchmark encoder binary (analysis size).
pub const ENCODER_WIDTH: usize = 32;

/// One mode's measurement.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7aPoint {
    /// `"reanalyze-per-auth"`, `"first-contact"`, or
    /// `"credential-reuse"`.
    pub mode: &'static str,
    /// Nanoseconds per authorized upload in this mode.
    pub ns_per_auth: f64,
    /// Authorizations measured.
    pub auths: u64,
    /// Analyzer runs this mode triggered (`nexus_attest_analyses_total`
    /// delta).
    pub analyses: u64,
    /// Credentials minted during the mode.
    pub minted: u64,
}

fn deploy() -> (Arc<Nexus>, CertiPicsService) {
    let nexus = Arc::new(boot_with(NexusConfig::default()));
    let svc = CertiPicsService::deploy(Arc::clone(&nexus)).expect("deploy");
    (nexus, svc)
}

/// Run the three modes, `auths` authorizations each.
pub fn run(auths: u64) -> Vec<Fig7aPoint> {
    let auths = auths.max(1);
    let binary = sample_encoder("fig7a-encoder", ENCODER_WIDTH);
    let img = Image::solid(16, 16, 128);
    let mut points = Vec::new();

    // --- reanalyze-per-auth ---
    {
        let (nexus, svc) = deploy();
        let (pid, _) = svc
            .register_encoder("encoder-a", &binary)
            .expect("register");
        let before = nexus.attest_stats();
        let ns = time_ns(auths, || {
            svc.analyzer()
                .attest_binary_with(&nexus, pid, &binary, true)
                .expect("re-attest");
            assert!(svc.upload(pid, &img).expect("upload"));
        });
        let after = nexus.attest_stats();
        points.push(Fig7aPoint {
            mode: "reanalyze-per-auth",
            ns_per_auth: ns,
            auths,
            analyses: after.analyses_run - before.analyses_run,
            minted: after.credentials_minted - before.credentials_minted,
        });
    }

    // --- first-contact + credential-reuse (one fresh world) ---
    {
        let (nexus, svc) = deploy();
        let before = nexus.attest_stats();
        let first_ns = time_ns(1, || {
            let (pid, att) = svc
                .register_encoder("encoder-b", &binary)
                .expect("register");
            assert!(!att.minted.is_empty());
            assert!(svc.upload(pid, &img).expect("upload"));
        });
        let after = nexus.attest_stats();
        points.push(Fig7aPoint {
            mode: "first-contact",
            ns_per_auth: first_ns,
            auths: 1,
            analyses: after.analyses_run - before.analyses_run,
            minted: after.credentials_minted - before.credentials_minted,
        });

        // Steady state: the credential (and the cached decision) do
        // all the work.
        let pid = nexus.spawn("encoder-c", b"encoder-c-image");
        svc.analyzer()
            .attest_binary(&nexus, pid, &binary)
            .expect("attest");
        assert!(svc.upload(pid, &img).expect("prime"));
        let before = nexus.attest_stats();
        let ns = time_ns(auths, || {
            assert!(svc.upload(pid, &img).expect("upload"));
        });
        let after = nexus.attest_stats();
        points.push(Fig7aPoint {
            mode: "credential-reuse",
            ns_per_auth: ns,
            auths,
            analyses: after.analyses_run - before.analyses_run,
            minted: after.credentials_minted - before.credentials_minted,
        });
    }

    points
}

/// Reuse-vs-reanalysis speedup from a run's points.
pub fn speedup(points: &[Fig7aPoint]) -> f64 {
    let ns_of = |mode: &str| {
        points
            .iter()
            .find(|p| p.mode == mode)
            .map(|p| p.ns_per_auth)
            .unwrap_or(f64::NAN)
    };
    ns_of("reanalyze-per-auth") / ns_of("credential-reuse")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credential_reuse_beats_reanalysis_5x() {
        let _guard = crate::timing_guard();
        let points = run(200);
        assert_eq!(points.len(), 3);
        let reanalyze = &points[0];
        assert_eq!(reanalyze.mode, "reanalyze-per-auth");
        assert_eq!(
            reanalyze.analyses, 200,
            "forced mode must re-analyze per auth"
        );
        let reuse = &points[2];
        assert_eq!(reuse.mode, "credential-reuse");
        assert_eq!(reuse.analyses, 0, "steady state must not re-analyze");
        assert_eq!(reuse.minted, 0);
        let s = speedup(&points);
        assert!(
            s >= 5.0,
            "credential reuse must be ≥5× cheaper than re-analysis per auth, got {s:.1}×"
        );
    }
}
