//! Telemetry: the kernel's [`Collect`] walk over its subsystems'
//! stats surfaces, the audit journal read side, and the per-subsystem
//! stats accessors.

use super::Nexus;
use nexus_obs::{
    AuditEvent, AuditJournal, Collect, MetricsRegistry, ObsConfig, Sampler, StageTimers,
    TelemetrySnapshot,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The kernel-side telemetry bundle: stage-latency histograms (shared
/// by `Arc` with the pipeline so pool workers record into the same
/// buckets), the decision audit journal, and the cache-hit sampler.
/// All three are live regardless of `ObsConfig::enabled`; the stage
/// timers' enabled flag is the single master switch the hot paths
/// consult (one relaxed load when telemetry is off).
pub(super) struct KernelTelemetry {
    pub(super) stages: Arc<StageTimers>,
    pub(super) audit: AuditJournal,
    pub(super) sampler: Sampler,
}

impl KernelTelemetry {
    pub(super) fn new(obs: &ObsConfig) -> Self {
        KernelTelemetry {
            stages: Arc::new(StageTimers::new(obs.enabled)),
            audit: AuditJournal::new(obs.audit_capacity),
            sampler: Sampler::new(obs.hit_sample_shift),
        }
    }

    #[inline]
    pub(super) fn enabled(&self) -> bool {
        self.stages.enabled()
    }
}

/// Every stats surface in the stack, each collecting itself, in the
/// exposition order: decision cache, guard, batch prover,
/// interposition, pipeline (when running), audit journal, analyzer and
/// replication credential paths, and the per-stage latency histograms.
/// The kernel registers only the two quantities it owns outright (the
/// master switch and the upcall count).
impl Collect for Nexus {
    fn collect(&self, r: &mut MetricsRegistry) {
        r.gauge(
            "nexus_telemetry_enabled",
            "1 when stage timers and the audit journal are recording",
            i64::from(self.telemetry.enabled()),
        );
        self.dcache.stats().collect(r);
        self.guard.stats().collect(r);
        r.counter(
            "nexus_guard_upcalls_total",
            "decision-cache misses that reached the guard",
            self.guard_upcalls(),
        );
        self.guard.prover_stats().collect(r);
        self.redirector.stats().collect(r);
        if let Some(pool) = self.authz_stats() {
            pool.collect(r);
        }
        self.telemetry.audit.collect(r);
        self.attest_stats().collect(r);
        self.dist_stats().collect(r);
        self.telemetry.stages.collect(r);
    }
}

impl Nexus {
    /// Decision-cache statistics.
    pub fn decision_cache_stats(&self) -> nexus_core::decision_cache::DecisionCacheStats {
        self.dcache.stats()
    }

    /// Guard statistics.
    pub fn guard_stats(&self) -> nexus_core::GuardStats {
        self.guard.stats()
    }

    /// Batch-prover session statistics (the auto-prove path's memo).
    pub fn guard_prover_stats(&self) -> nexus_core::ProverStats {
        self.guard.prover_stats()
    }

    /// Number of subgoal entries currently held by the batch-prover
    /// memo (diagnostics; at most `ProverConfig::max_memo`).
    pub fn guard_prover_memo_len(&self) -> usize {
        self.guard.prover_memo_len()
    }

    /// Number of guard upcalls (decision-cache misses that reached the
    /// guard).
    pub fn guard_upcalls(&self) -> u64 {
        self.guard_upcalls.load(Ordering::Relaxed)
    }

    /// One unified snapshot of every stats surface in the stack (see
    /// the kernel's [`Collect`] impl for the walk), frozen into a
    /// [`TelemetrySnapshot`] renderable as Prometheus text or JSON.
    /// Collection polls the live atomics once; it never locks a hot
    /// path.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut r = MetricsRegistry::new();
        self.collect(&mut r);
        r.finish()
    }

    /// The most recent `n` decision audit events, newest first (see
    /// [`AuditEvent`]). Cache hits are sampled
    /// (`ObsConfig::hit_sample_shift`); misses, denials, and faults
    /// are always journaled while telemetry is enabled, and denials
    /// carry the subgoal the prover refuted.
    pub fn audit_recent(&self, n: usize) -> Vec<AuditEvent> {
        self.telemetry.audit.recent(n)
    }
}
