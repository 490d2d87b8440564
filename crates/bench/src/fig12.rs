//! Figure 12 (beyond the paper): telemetry overhead on the hot path.
//!
//! The telemetry layer (ISSUE 7) must be cheap enough to leave on: the
//! decision-cache hit path — the paper's "cached decisions are nearly
//! free" case, and the most overhead-sensitive point in the stack —
//! pays one relaxed load plus a striped sampler tick per hit. This
//! bench measures that cost directly: the fig9 hit workload (one
//! primed cached allow, hammered single-threaded so per-op overhead is
//! not hidden by contention) run A/B with telemetry enabled
//! ([`nexus_kernel::ObsConfig::default`]) versus fully disabled
//! ([`nexus_kernel::ObsConfig::disabled`]). Reps are interleaved and
//! the per-mode medians compared, so frequency drift hits both sides
//! alike.
//!
//! Acceptance bound: enabled throughput within 5% of disabled.

use crate::{boot_with, time_ns};
use nexus_core::ResourceId;
use nexus_kernel::{Nexus, NexusConfig, ObsConfig};
use nexus_nal::parse;

/// The A/B comparison's result.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// Median hit throughput with telemetry fully disabled.
    pub disabled_ops_per_s: f64,
    /// Median hit throughput with default telemetry (stage timers,
    /// audit journal, 1-in-64 hit sampling) enabled.
    pub enabled_ops_per_s: f64,
    /// Audit events recorded during the last enabled rep (sampled
    /// cache hits — evidence the enabled side actually journaled).
    pub audit_recorded: u64,
    /// Interleaved reps per mode (medians taken over these).
    pub reps: usize,
}

impl Fig12Result {
    /// Telemetry overhead in percent: how much slower the enabled
    /// median is than the disabled one (negative ⇒ enabled measured
    /// faster, i.e. the difference is inside measurement noise).
    pub fn overhead_pct(&self) -> f64 {
        if self.disabled_ops_per_s == 0.0 {
            return 0.0;
        }
        100.0 * (1.0 - self.enabled_ops_per_s / self.disabled_ops_per_s)
    }
}

/// One primed cached-allow world under the given telemetry config.
fn setup(obs: ObsConfig) -> (Nexus, u64, ResourceId) {
    let nexus = boot_with(NexusConfig {
        obs,
        ..NexusConfig::default()
    });
    let owner = nexus.spawn("owner", b"img");
    nexus.fs_create(owner, "/fig12").unwrap();
    let object = ResourceId::file("/fig12");
    nexus
        .sys_setgoal(
            owner,
            object.clone(),
            "read",
            parse("$subject says read(file:/fig12)").unwrap(),
        )
        .unwrap();
    let pid = nexus.spawn("fig12", b"img");
    // Prime the one decision every measurement iteration will hit.
    assert!(nexus.authorize(pid, "read", &object).unwrap());
    (nexus, pid, object)
}

/// Hit throughput (ops/s) for one fresh kernel under `obs`; also
/// returns the audit events it journaled.
fn measure(obs: ObsConfig, iters: u64) -> (f64, u64) {
    let (nexus, pid, object) = setup(obs);
    let ns = time_ns(iters, || {
        assert!(nexus.authorize(pid, "read", &object).unwrap());
    });
    let recorded = nexus
        .audit_recent(usize::MAX)
        .iter()
        .filter(|e| e.pid == pid)
        .count() as u64;
    (1e9 / ns, recorded)
}

pub(crate) fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Run the A/B comparison: `reps` interleaved (enabled, disabled)
/// pairs of `iters` hits each, medians compared.
pub fn run(iters: u64, reps: usize) -> Fig12Result {
    let reps = reps.max(1);
    let mut enabled = Vec::with_capacity(reps);
    let mut disabled = Vec::with_capacity(reps);
    let mut audit_recorded = 0;
    for _ in 0..reps {
        let (ops, recorded) = measure(ObsConfig::default(), iters);
        enabled.push(ops);
        audit_recorded = recorded;
        let (ops, _) = measure(ObsConfig::disabled(), iters);
        disabled.push(ops);
    }
    Fig12Result {
        disabled_ops_per_s: median(disabled),
        enabled_ops_per_s: median(enabled),
        audit_recorded,
        reps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ab_comparison_runs_and_journals_only_when_enabled() {
        let _guard = crate::timing_guard();
        let r = run(500, 1);
        assert!(r.enabled_ops_per_s > 0.0);
        assert!(r.disabled_ops_per_s > 0.0);
        assert!(r.overhead_pct().is_finite());
        // shift 6 ⇒ ~500/64 sampled hits journaled on the enabled side.
        assert!(r.audit_recorded > 0, "enabled side must journal hits");
        let (_, recorded) = measure(ObsConfig::disabled(), 200);
        assert_eq!(recorded, 0, "disabled side must journal nothing");
    }
}
