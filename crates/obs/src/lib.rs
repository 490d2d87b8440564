//! # `nexus-obs` — dependency-free telemetry for the authorization stack
//!
//! The paper's central claim is that logical attestation makes every
//! authorization verdict *explainable*; this crate makes the stack
//! *observable* to match. Four pieces, all hand-rolled on `std`:
//!
//! * **[`Histogram`]** — lock-free log-linear latency histograms
//!   (striped atomic buckets, p50/p90/p99/p999, mergeable snapshots)
//!   behind per-stage timers ([`StageTimers`]) for the authorize path:
//!   submit → queue-wait → batch-assembly → prove → verify → complete.
//! * **[`MetricsRegistry`] and the [`counters!`] table** — every stats
//!   surface is one table next to its owner (one row per counter);
//!   the table generates the surface's [`Collect`], and a holder of
//!   several surfaces walks them into one [`TelemetrySnapshot`] with
//!   Prometheus-style text and JSON renderers.
//! * **[`Plain`] and [`Striped`]** — the two counter cells a table row
//!   chooses between, and the one thread→stripe assignment every
//!   striped structure here (cells, histograms, the [`Sampler`])
//!   shares.
//! * **[`AuditJournal`]** — a bounded, torn-write-safe ring of
//!   per-verdict [`AuditEvent`]s: who asked, what the answer was,
//!   under which epochs, and (for denials) which subgoal the prover
//!   refuted.
//!
//! The kernel owns the composite and exposes it as
//! `Nexus::telemetry_snapshot()` / `Nexus::audit_recent()`;
//! [`ObsConfig`] gates everything behind one atomic flag so the
//! disabled baseline costs a single load on the hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod cell;
pub mod hist;
pub mod registry;

pub use audit::{event, AuditEvent, AuditJournal, AuditPath, AuditVerdict, StageSpans};
pub use cell::{Plain, Striped};
pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{
    json_string, Collect, MetricSample, MetricsRegistry, SampleValue, TelemetrySnapshot,
};

use std::sync::atomic::{AtomicBool, Ordering};

/// Telemetry configuration. Carried inside the kernel's `NexusConfig`
/// (hence `Copy`); `enabled` may be toggled at runtime, the other
/// knobs take effect at boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch. Off, the hot path pays one atomic load and the
    /// stage timers/journal record nothing — the A/B baseline the
    /// ledger's `obs.hit_overhead_ratio` compares against.
    pub enabled: bool,
    /// Cache-hit audit sampling: one hit in `2^hit_sample_shift` is
    /// journaled (with its end-to-end span). Misses, denials, and
    /// faults are always journaled — they are µs-scale and rare, and
    /// denials must always carry their refutation. `0` samples every
    /// hit (tests); the default 6 (1 in 64) keeps the ~ns hit path
    /// within the `obs.hit_overhead_ratio` budget.
    pub hit_sample_shift: u32,
    /// Audit journal capacity (events). Applied at boot.
    pub audit_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            hit_sample_shift: 6,
            audit_capacity: 1024,
        }
    }
}

/// The disabled A/B baseline.
impl ObsConfig {
    /// Telemetry fully off (the `obs.hit_overhead_ratio` baseline).
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            ..ObsConfig::default()
        }
    }
}

/// Stages of the authorize path, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Admission into the pipeline queue (submitter thread).
    Submit = 0,
    /// Queued, waiting for a worker to pop.
    QueueWait = 1,
    /// Coalescing scan assembling the batch (queue mutex held).
    BatchAssembly = 2,
    /// Proof construction (auto-prove) for the batch.
    Prove = 3,
    /// Proof checking (guard) for the batch.
    Verify = 4,
    /// End-to-end: submit (or inline entry) to verdict delivery.
    Complete = 5,
}

impl Stage {
    /// Every stage, in order.
    pub const ALL: [Stage; 6] = [
        Stage::Submit,
        Stage::QueueWait,
        Stage::BatchAssembly,
        Stage::Prove,
        Stage::Verify,
        Stage::Complete,
    ];

    /// Stable snake_case name (metric suffixes).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Submit => "submit",
            Stage::QueueWait => "queue_wait",
            Stage::BatchAssembly => "batch_assembly",
            Stage::Prove => "prove",
            Stage::Verify => "verify",
            Stage::Complete => "complete",
        }
    }
}

/// Per-stage latency histograms for the authorize path, shared (one
/// `Arc`) between the kernel and the authzd pool so both record into
/// the same distributions. The `enabled` flag is the telemetry master
/// switch: every recording site checks it first, so disabling
/// telemetry reduces the whole layer to one atomic load per probe.
pub struct StageTimers {
    enabled: AtomicBool,
    hists: [Histogram; 6],
}

impl StageTimers {
    /// Fresh timers; `enabled` per config.
    pub fn new(enabled: bool) -> Self {
        StageTimers {
            enabled: AtomicBool::new(enabled),
            hists: Default::default(),
        }
    }

    /// Is telemetry on? One relaxed load — the only cost a disabled
    /// stack pays.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip the master switch (runtime config changes).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Record `ns` into `stage`'s histogram (no-op while disabled).
    #[inline]
    pub fn record(&self, stage: Stage, ns: u64) {
        if self.enabled() {
            self.hists[stage as usize].record(ns);
        }
    }

    /// Record a [`std::time::Duration`] into `stage`.
    #[inline]
    pub fn record_duration(&self, stage: Stage, d: std::time::Duration) {
        self.record(stage, d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Snapshot one stage's distribution.
    pub fn snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.hists[stage as usize].snapshot()
    }

    /// Reset every stage histogram (benchmark A/B phases).
    pub fn reset(&self) {
        for h in &self.hists {
            h.reset();
        }
    }
}

impl Collect for StageTimers {
    fn collect(&self, r: &mut MetricsRegistry) {
        for stage in Stage::ALL {
            r.histogram(
                &format!("nexus_authz_stage_{}_ns", stage.name()),
                &format!("authorize-path {} stage latency (ns)", stage.name()),
                self.snapshot(stage),
            );
        }
    }
}

/// A striped 1-in-`2^shift` sampler for hit-path auditing: a mask over
/// a [`Striped`] tick count. `tick` costs one relaxed `fetch_add` on
/// the calling thread's stripe and returns `true` once per `2^shift`
/// calls *per stripe* — a uniform sample without any shared hot
/// counter.
pub struct Sampler {
    mask: u64,
    ticks: Striped,
}

impl Sampler {
    /// Sample 1 in `2^shift` ticks (shift 0 ⇒ every tick).
    pub fn new(shift: u32) -> Self {
        Sampler {
            mask: (1u64 << shift.min(63)) - 1,
            ticks: Striped::default(),
        }
    }

    /// Count one event; `true` when this one is sampled.
    #[inline]
    pub fn tick(&self) -> bool {
        self.ticks.add(1) & self.mask == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_timers_gate_on_the_enabled_flag() {
        let t = StageTimers::new(false);
        t.record(Stage::Prove, 100);
        assert_eq!(t.snapshot(Stage::Prove).count, 0);
        t.set_enabled(true);
        t.record(Stage::Prove, 100);
        t.record_duration(Stage::Verify, std::time::Duration::from_nanos(250));
        assert_eq!(t.snapshot(Stage::Prove).count, 1);
        assert_eq!(t.snapshot(Stage::Verify).count, 1);
        t.reset();
        assert_eq!(t.snapshot(Stage::Prove).count, 0);
    }

    #[test]
    fn sampler_rate_matches_shift() {
        let s = Sampler::new(3); // 1 in 8 per stripe
        let sampled = (0..8_000).filter(|_| s.tick()).count();
        // Single-threaded: exactly one stripe, exact rate.
        assert_eq!(sampled, 1_000);
        let every = Sampler::new(0);
        assert!((0..100).all(|_| every.tick()));
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "submit",
                "queue_wait",
                "batch_assembly",
                "prove",
                "verify",
                "complete"
            ]
        );
    }

    #[test]
    fn obs_config_defaults() {
        let cfg = ObsConfig::default();
        assert!(cfg.enabled);
        assert_eq!(cfg.hit_sample_shift, 6);
        assert!(!ObsConfig::disabled().enabled);
    }
}
