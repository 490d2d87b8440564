//! Benchmark workloads regenerating the tables and figures of the
//! paper's evaluation (§5: Table 1, Figures 4–8) plus the Figure 7a
//! analysis-vs-reuse bench, driven by the `reproduce` binary, which
//! prints paper-style tables (and the same points as JSON) through
//! [`report`]. Hit path, prover, cluster and telemetry costs are
//! measured by the out-of-workspace `benchmark/` ledger instead.

#![forbid(unsafe_code)]
#![allow(missing_docs)]

pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig7a;
pub mod fig8;
pub mod report;
pub mod table1;

use nexus_kernel::{BootImages, Nexus, NexusConfig};
use nexus_storage::RamDisk;
use nexus_tpm::Tpm;

/// Boot a kernel with the given config for benchmarking.
pub fn boot_with(cfg: NexusConfig) -> Nexus {
    Nexus::boot(
        Tpm::new_with_seed(0xbe4c),
        RamDisk::new(),
        &BootImages::standard(),
        cfg,
    )
    .expect("boot")
}

/// Time `f` over `iters` iterations; returns nanoseconds per
/// iteration.
pub fn time_ns<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Median of `xs` (upper median for an even count).
#[cfg(test)]
pub(crate) fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Serializes the timing-sensitive unit tests in this crate: relative
/// performance assertions take this lock so the default parallel test
/// harness cannot run them on top of each other.
#[cfg(test)]
pub(crate) fn timing_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
