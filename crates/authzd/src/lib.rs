//! # `nexus-authzd` — the asynchronous authorization pipeline
//!
//! The paper's guard evaluates proofs synchronously on the syscall
//! path, so a slow authority (a userspace decider, a TPM-backed
//! credential) stalls the caller. This crate moves `Guard::check` off
//! the syscall thread: callers submit [`AuthzRequest`]s to a
//! [`GuardPool`] of worker threads and receive an [`AuthzTicket`]
//! they can poll, block on, or attach a callback to. The kernel only
//! *admits* decisions; it no longer *computes* them inline.
//!
//! ```text
//!  syscall threads              GuardPool
//!  ───────────────              ─────────
//!  submit(req) ──► admission ──► embedded lane ──► N workers ─┐ pop + coalesce
//!       │          (high-water   external lane ──► M workers ─┤ by (op, object,
//!       │           mark:                (AuthorityKind::     │     label shape)
//!       │           fault)                External batches)   ▼
//!       ▼                                            BatchExecutor::execute_batch
//!  AuthzTicket ◄───────────── complete ◄─────────── (goal fetched & normalized
//!  (poll / wait / callback,                          once per batch; epoch-fenced
//!   panics isolated)                                 so no stale allow lands)
//! ```
//!
//! Two liveness properties are load-bearing (the guard mediates every
//! syscall, so the pipeline must never wedge):
//!
//! * **Bounded admission** — each lane's queue has a high-water mark
//!   ([`GuardPoolConfig::max_queued`]); past it, submission faults
//!   immediately (the kernel's sync path treats the fault as "fall
//!   back to inline evaluation"). No request ever waits unboundedly
//!   in the queue, and no submitter is ever parked.
//! * **Authority isolation** — requests whose evaluation may query an
//!   external (`nexus-core` `AuthorityKind::External`) authority,
//!   classified by the kernel before submission via
//!   [`AuthzRequest::external`], run on a separate, smaller worker
//!   pool, so one stuck external authority can occupy at most
//!   [`GuardPoolConfig::external_workers`] threads while
//!   embedded-authority traffic keeps flowing. (This crate stays
//!   kernel-agnostic and only sees the boolean classification.)
//!
//! And one safety property: [`GuardPool::quiesce`], the fence every
//! invalidating syscall ends with, waits for *the requests admitted
//! before the call* (two admission generations; the fence drains the
//! old one) — never for a count of completions, which a later request
//! finishing first would satisfy. [`PoolStats`] is only statistics.
//!
//! The crate is deliberately kernel-agnostic: evaluation is behind the
//! [`BatchExecutor`] trait, so the pool can be unit-tested with a toy
//! executor and the kernel plugs in the real guard path. Everything is
//! hand-rolled on `std::sync` (no tokio — the build is offline): the
//! submission queues are mutex-protected deques with condvars, MPMC by
//! construction since any worker of a lane may pop any entry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod ticket;

pub use pool::{BatchExecutor, GuardPool, GuardPoolConfig, PoolStats};
pub use ticket::{AuthzOutcome, AuthzTicket};

use nexus_core::{OpName, ResourceId};
use nexus_nal::Proof;
use std::sync::Arc;

/// A request for authorization, queued for off-thread evaluation.
#[derive(Debug, Clone)]
pub struct AuthzRequest {
    /// The requesting process.
    pub pid: u64,
    /// The operation being attempted.
    pub op: OpName,
    /// The resource operated on.
    pub object: ResourceId,
    /// An explicitly supplied proof (otherwise the executor falls
    /// back to the stored proof or auto-proving, like the sync path),
    /// behind the `Arc` it crosses to the worker in: the one copy a
    /// supplied proof ever gets.
    pub proof: Option<Arc<Proof>>,
    /// True when evaluating this request may consult an external
    /// (IPC-backed) authority. Classified by the submitter *before*
    /// evaluation — the kernel walks the goal formula and the leaves
    /// of the proof that will be checked (supplied or stored) for
    /// principals with a registered external authority — and routes
    /// the request to the dedicated external worker lane so a stuck
    /// authority cannot occupy the whole pool.
    pub external: bool,
    /// The submitter's *label shape*: an order-insensitive fingerprint
    /// of the requesting process's credential set (the kernel reads
    /// it off the labelstore, `LabelStore::shape`). Requests
    /// only coalesce when shapes match, so every batch the executor
    /// sees shares one (goal, credential-shape) pair and the batch
    /// prover's frontier sharing is maximal. Purely a batching hint:
    /// collisions or a constant `0` affect throughput, never verdicts.
    pub label_shape: u64,
    /// When the submitter stamped this request (just before
    /// `try_submit`). Telemetry only: with stage timers configured
    /// ([`pool::GuardPoolConfig::stage_timers`]) the pool measures the
    /// submit and end-to-end spans from it. `None` skips per-request
    /// spans for this request; verdicts are unaffected.
    pub submitted_at: Option<std::time::Instant>,
}

/// The coalescing key: requests sharing a goal — same (operation,
/// object-subregion) pair — *and* the same label shape are batched, so
/// goal instantiation, NAL normalization, and (for auto-proved
/// requests) the proof-search frontier are amortized once per batch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BatchKey {
    /// The operation all batch members attempt.
    pub op: OpName,
    /// The resource they attempt it on.
    pub object: ResourceId,
    /// The shared label-shape fingerprint ([`AuthzRequest::label_shape`]).
    pub label_shape: u64,
}

impl AuthzRequest {
    /// The batch this request coalesces into.
    pub fn key(&self) -> BatchKey {
        BatchKey {
            op: self.op.clone(),
            object: self.object.clone(),
            label_shape: self.label_shape,
        }
    }
}
