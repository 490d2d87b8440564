//! Figure 6: authorization control-operation overhead — and the
//! three-orders-of-magnitude gap between system-backed and
//! cryptographic credentials.

use crate::{boot_with, time_ns};
use nexus_core::{AuthorityKind, FnAuthority, ResourceId};
use nexus_kernel::NexusConfig;
use nexus_nal::{parse, Principal, Proof};
use serde::Serialize;
use std::sync::Arc;

#[derive(Debug, Clone, Serialize)]
pub struct Point {
    pub op: &'static str,
    pub ns: f64,
}

/// All control operations of Figure 6 (left panel plus the two
/// credential-insertion variants of the right panel).
pub fn run(iters: u64) -> Vec<Point> {
    let mut out = Vec::new();
    let cfg = NexusConfig::default();

    // auth add
    {
        let nexus = boot_with(cfg);
        out.push(Point {
            op: "auth add",
            ns: time_ns(iters, || {
                nexus.register_authority(
                    Principal::name("A"),
                    Arc::new(FnAuthority(|_| true)),
                    AuthorityKind::Embedded,
                );
            }),
        });
    }
    // goal set / clr
    {
        let nexus = boot_with(cfg);
        let pid = nexus.spawn("bench", b"img");
        let object = ResourceId::new("bench", "obj");
        nexus.grant_ownership(pid, &object).unwrap();
        let goal = parse("Owner says ok").unwrap();
        out.push(Point {
            op: "goal set",
            ns: time_ns(iters, || {
                nexus
                    .sys_setgoal(pid, object.clone(), "op", goal.clone())
                    .unwrap();
            }),
        });
        out.push(Point {
            op: "goal clr",
            ns: time_ns(iters, || {
                let _ = nexus.sys_clear_goal(pid, &object, "op");
            }),
        });
    }
    // proof set / clr
    {
        let nexus = boot_with(cfg);
        let pid = nexus.spawn("bench", b"img");
        let object = ResourceId::new("bench", "obj");
        let proof = Proof::assume(parse("Owner says ok").unwrap());
        out.push(Point {
            op: "proof set",
            ns: time_ns(iters, || {
                nexus
                    .sys_set_proof(pid, "op", &object, proof.clone())
                    .unwrap();
            }),
        });
        out.push(Point {
            op: "proof clr",
            ns: time_ns(iters, || {
                nexus.sys_clear_proof(pid, "op", &object).unwrap();
            }),
        });
    }
    // cred add (system-backed `say`: parse + attribution, no crypto)
    {
        let nexus = boot_with(cfg);
        let pid = nexus.spawn("bench", b"img");
        out.push(Point {
            op: "cred add (pid)",
            ns: time_ns(iters, || {
                nexus.sys_say(pid, "isTypeSafe(PGM)").unwrap();
            }),
        });
    }
    // cred add (cryptographic: externalize + import = sign + verify)
    {
        let nexus = boot_with(cfg);
        let pid = nexus.spawn("bench", b"img");
        let h = nexus.sys_say(pid, "isTypeSafe(PGM)").unwrap();
        let ek = nexus.tpm().ek_public();
        let crypto_iters = iters.min(200); // asymmetric crypto is slow
        out.push(Point {
            op: "cred add (key)",
            ns: time_ns(crypto_iters, || {
                let cert = nexus.externalize(pid, h).unwrap();
                nexus.import_cert(pid, &cert, &ek).unwrap();
            }),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crypto_is_orders_of_magnitude_slower() {
        let _serial = crate::timing_guard();
        let pts = run(300);
        let by = |n: &str| pts.iter().find(|p| p.op == n).unwrap().ns;
        let pid = by("cred add (pid)");
        let key = by("cred add (key)");
        // With real Ed25519 this gap is 50×+; the offline vendor
        // stand-in signs with a few SHA-256 passes, which compresses
        // the ratio to ~10×. The *direction* of the paper's result —
        // externalized credentials dwarf system-backed ones — is what
        // this asserts.
        assert!(
            key > pid * 4.0,
            "crypto credential ({key:.0}ns) should dwarf system-backed ({pid:.0}ns)"
        );
    }

    #[test]
    fn all_ops_measured() {
        let pts = run(100);
        assert_eq!(pts.len(), 7);
        assert!(pts.iter().all(|p| p.ns > 0.0));
    }
}
