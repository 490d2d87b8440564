//! Distributed Nexus: credential/label state replicated across an
//! in-process cluster of [`nexus_kernel::Nexus`] kernels.
//!
//! The paper's logical attestation model assumes every node evaluates
//! authorization against a consistent credential set. This crate
//! supplies that consistency for a cluster: label mint, transfer, and
//! revocation become **broadcast operations**, agreed through a
//! Bracha-style Byzantine reliable broadcast ([`wire`]) and merged
//! into each replica as an observed-remove set CRDT ([`orset`]). The
//! split mirrors BRB's membership/data-type layering: the broadcast
//! layer owns *who said what, exactly once per slot*; the or-set owns
//! *what the agreed set of statements is*, commutatively and
//! idempotently, so replicas converge under any delivery schedule.
//!
//! Revocation is the load-bearing case. When a revocation op is
//! delivered at a node, the [`node`] layer applies it through
//! [`nexus_kernel::Nexus::apply_remote_revoke`], which takes the
//! kernel's one removal door: the named subject is renamed in the
//! decision cache — every other subject's verdicts stay cached — and
//! the revocation fence runs (label-removal epoch bump, pipeline
//! quiesce). That extends the single-kernel no-stale-allow
//! invariant across the cluster: after delivery at node N, no
//! authorization on N can return an allow backed by the revoked
//! credential. (Between the origin's broadcast and delivery at N,
//! N still answers from its own replica — that window is what the
//! ledger's `cluster_revoke/write_p50_us` measures as cross-node
//! revocation latency.)
//!
//! All transport nondeterminism lives in [`sim`]: a seeded in-process
//! network with drop/duplicate/delay/partition schedules and hooks
//! for injecting Byzantine traffic. Every test failure prints its
//! seed; every interleaving replays from it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod node;
pub mod orset;
pub mod sim;
pub mod wire;

pub use cluster::Cluster;
pub use node::{DistNode, NodeStats};
pub use orset::{ApplyEffect, Dot, LabelOp, LabelRecord, OrSetLabels};
pub use sim::{NetCounters, Partition, SimConfig, SimNet};
pub use wire::{
    BrbCounters, BrbState, Membership, Message, NodeId, OpEnvelope, OpSigner, Payload, SimEd25519,
};
