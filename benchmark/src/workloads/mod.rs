//! The four workloads. Each stresses other layers (README.md has the
//! prediction table): `hit_steady` the kernel's cached front half,
//! `miss_prove` the pipeline and the prover, `policy_churn` clear and
//! refill, `cluster_revoke` the replication layer.

pub mod cluster_revoke;
pub mod gate;
pub mod hit_steady;
pub mod miss_prove;
pub mod policy_churn;

pub use cluster_revoke::ClusterRevoke;
pub use hit_steady::HitSteady;
pub use miss_prove::MissProve;
pub use policy_churn::PolicyChurn;

use nexus_core::decision_cache::DecisionCacheStats;
use nexus_kernel::{BootImages, Nexus, NexusConfig};
use nexus_storage::RamDisk;
use nexus_tpm::Tpm;

/// Boot a kernel under `NexusConfig::default()` — the configuration
/// every workload measures.
pub fn boot() -> Nexus {
    Nexus::boot(
        Tpm::new_with_seed(0xbe4c),
        RamDisk::new(),
        &BootImages::standard(),
        NexusConfig::default(),
    )
    .expect("boot")
}

/// Decision-cache counts a workload takes around its own timed reads
/// and writes (the kernel's counters are cumulative and also move
/// during set-up and verification).
#[derive(Default)]
pub struct CacheCounts {
    hits: u64,
    lookups: u64,
    invalidations: u64,
    writes: u64,
}

impl CacheCounts {
    /// Account the lookups between two stats snapshots to timed reads.
    pub fn reads(&mut self, before: DecisionCacheStats, after: DecisionCacheStats) {
        self.hits += after.hits - before.hits;
        self.lookups += (after.hits - before.hits) + (after.misses - before.misses);
    }

    /// Account the invalidations between two snapshots to `n` writes.
    pub fn writes(&mut self, n: u64, before: DecisionCacheStats, after: DecisionCacheStats) {
        self.invalidations += after.invalidations - before.invalidations;
        self.writes += n;
    }

    /// The `core.*` count metrics; `now` supplies the cumulative ones.
    pub fn metrics(&self, now: DecisionCacheStats) -> Vec<(&'static str, f64)> {
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        vec![
            ("core.dcache_hit_ratio", ratio(self.hits, self.lookups)),
            (
                "core.dcache_invalidations_per_write",
                ratio(self.invalidations, self.writes),
            ),
            ("core.dcache_collisions", now.collisions as f64),
            ("core.read_retries", now.read_retries as f64),
            ("core.read_fallbacks", now.read_fallbacks as f64),
        ]
    }
}
