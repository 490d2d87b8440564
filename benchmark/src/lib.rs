//! The repository's benchmark: four read/write-cycle workloads,
//! median-based end-to-end metrics, and a per-layer trace recorded from
//! outside the program. README.md defines every workload and metric.
//!
//! This library and the `bench` binary use only the durable surface of
//! the system (`Nexus::{boot, spawn, grant_ownership, sys_setgoal,
//! kernel_label, transfer_label, authorize, authorize_async,
//! start_authz_pipeline, stop_authz_pipeline, decision_cache_stats,
//! authz_stats, guard_prover_stats}`, `AuthzTicket::wait` and the
//! `Cluster` driving calls, all under `NexusConfig::default()`), so a
//! refactor of the internals cannot take the end-to-end numbers down.
//! The isolated probes of internal functions live in the `layers`
//! binary alone.

// Denied, not forbidden: `affinity` makes the two foreign calls that
// pin the process to one CPU.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod cli;
pub mod compare;
pub mod driver;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod stats;
pub mod workloads;
