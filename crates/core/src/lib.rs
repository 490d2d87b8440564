//! # Logical attestation
//!
//! The primary contribution of *Logical Attestation: An Authorization
//! Architecture for Trustworthy Computing* (Sirer et al., SOSP 2011):
//! an OS authorization architecture in which every trust decision is a
//! checked inference in NAL over unforgeable, attributable statements.
//!
//! The moving parts, mirroring §2 of the paper:
//!
//! * **Labels** ([`label`]) — `P says S` statements created with the
//!   `say` system call and held in kernel **labelstores**; unforgeable
//!   because the kernel attributes them over a secure channel, with no
//!   cryptography on the fast path.
//! * **Credentials** ([`credential`]) — bitstring encodings of labels.
//!   System-backed credentials are labelstore references; externalized
//!   credentials are X.509-style certificate chains rooted in the TPM
//!   ("TPM says kernel says labelstore says process says S").
//! * **Goals** ([`goal`]) — per-(resource, operation) NAL formulas set
//!   with `setgoal`; absence of a goal means the default policy
//!   `resource-manager.object says operation`.
//! * **Guards** ([`guard`]) — reference monitors that check
//!   client-supplied proofs against goal formulas, validate leaf
//!   credentials, consult **authorities** ([`authority`]) for dynamic
//!   state, and report whether the decision is cacheable.
//! * **Decision cache** ([`decision_cache`]) — the kernel-side cache
//!   indexed by (subject, operation, object) with subregion-hashed
//!   invalidation (§2.8).
//! * **Guard cache** ([`guard`]) — proof-checking memoization with
//!   per-principal quotas and preferential eviction (§2.9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `CoreError` embeds the offending formulas/proof context so denials
// are auditable; error paths are cold, so the large variants are a
// deliberate trade.
#![allow(clippy::result_large_err)]

pub mod authority;
pub mod credential;
pub mod decision_cache;
pub mod error;
pub mod goal;
pub mod guard;
pub mod label;
pub mod proofstore;
pub mod resource;
pub mod signer;
pub mod snapshot;

pub use authority::{Authority, AuthorityKind, AuthorityRegistry, FnAuthority};
pub use credential::Certificate;
pub use decision_cache::{CacheKey, DecisionCache, DecisionCacheConfig, SubjectDigest};
pub use error::CoreError;
pub use goal::{GoalEntry, GoalStore};
pub use guard::{
    AccessRequest, Decision, DenyReason, Guard, GuardCacheConfig, GuardStats, ProofRef, ProverStats,
};
pub use label::{Label, LabelHandle, LabelStore};
pub use proofstore::ProofStore;
pub use resource::{OpName, ResourceId};
pub use signer::KernelSigner;
pub use snapshot::Snapshot;
