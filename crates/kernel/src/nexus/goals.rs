//! Goals, proofs and authorities: the policy writes, each paired with
//! the decision-cache invalidation of exactly its grain (§2.8).

use super::process::IpdHot;
use super::Nexus;
use crate::error::KernelError;
use crate::fs::FS_PRINCIPAL;
use nexus_core::{Authority, AuthorityKind, DecisionCacheConfig, LabelHandle, OpName, ResourceId};
use nexus_nal::{Formula, Principal, Proof};
use std::sync::Arc;

impl Nexus {
    pub(super) fn manager_of(object: &ResourceId) -> Principal {
        if object.0.starts_with("file:") {
            Principal::name(FS_PRINCIPAL)
        } else {
            Principal::name("Nexus")
        }
    }

    /// Grant `pid` ownership of `object`: the resource manager says
    /// the process speaks for the object (§2.6).
    pub fn grant_ownership(
        &self,
        pid: u64,
        object: &ResourceId,
    ) -> Result<LabelHandle, KernelError> {
        let manager = Self::manager_of(object);
        let subject = self.principal(pid)?;
        let stmt = Formula::speaksfor(subject, manager.sub(object.0.clone()));
        self.kernel_label(pid, manager, stmt)
    }

    /// The shared body of `setgoal` and `goal clr`: authorized against
    /// the resource's `setgoal` goal (default: owner only), then the
    /// store write, then the decision-cache subregion for (op, object)
    /// is invalidated and in-flight pipeline batches are fenced.
    fn write_goal<T>(
        &self,
        pid: u64,
        object: &ResourceId,
        op: &str,
        write: impl FnOnce(&OpName) -> T,
    ) -> Result<T, KernelError> {
        if !self.authorize(pid, "setgoal", object)? {
            return Err(KernelError::AccessDenied {
                reason: format!("setgoal on {object} denied"),
            });
        }
        let opn = OpName::from(op);
        let written = write(&opn);
        self.dcache.invalidate_subregion(&opn, object);
        self.fence_in_flight_authz();
        Ok(written)
    }

    /// The `setgoal` system call: installs `formula` as the goal for
    /// (`op`, `object`) and returns the new goal epoch.
    pub fn sys_setgoal(
        &self,
        pid: u64,
        object: ResourceId,
        op: &str,
        formula: Formula,
    ) -> Result<u64, KernelError> {
        self.write_goal(pid, &object, op, |opn| {
            self.goals
                .set_goal(object.clone(), opn.clone(), formula, None)
        })
    }

    /// Clear a goal (authorized like `setgoal`).
    pub fn sys_clear_goal(
        &self,
        pid: u64,
        object: &ResourceId,
        op: &str,
    ) -> Result<(), KernelError> {
        self.write_goal(pid, object, op, |opn| {
            self.goals.clear_goal(object, opn);
        })
    }

    /// Install a proof for (subject, op, object); invalidates exactly
    /// that decision-cache entry (§2.8).
    pub fn sys_set_proof(
        &self,
        pid: u64,
        op: &str,
        object: &ResourceId,
        proof: Proof,
    ) -> Result<(), KernelError> {
        let subject = self.with_hot(pid, |h| h.principal.clone())?;
        self.proofs
            .set_proof(subject, OpName::from(op), object.clone(), proof);
        self.drop_cached_verdict(pid, op, object)
    }

    /// Remove a stored proof; invalidates its decision-cache entry.
    pub fn sys_clear_proof(
        &self,
        pid: u64,
        op: &str,
        object: &ResourceId,
    ) -> Result<(), KernelError> {
        let subject = self.with_hot(pid, |h| h.principal.clone())?;
        if self.proofs.clear_proof(&subject, &OpName::from(op), object) {
            self.drop_cached_verdict(pid, op, object)?;
        }
        Ok(())
    }

    /// Clear `pid`'s cached verdict for (`op`, `object`) after a proof
    /// update. The subject is named *after* the store write: a fill
    /// that rested on the old proof validated before that write, so
    /// under a generation no later than this one — this name, or one
    /// nobody probes any more.
    fn drop_cached_verdict(
        &self,
        pid: u64,
        op: &str,
        object: &ResourceId,
    ) -> Result<(), KernelError> {
        let subject = self.with_hot(pid, IpdHot::subject)?;
        self.dcache.invalidate(subject, op, object);
        Ok(())
    }

    /// Register an authority for a principal's statements.
    pub fn register_authority(
        &self,
        principal: Principal,
        authority: Arc<dyn Authority>,
        kind: AuthorityKind,
    ) {
        self.authorities.register(principal, authority, kind);
    }

    /// Resize the kernel decision cache at runtime (§2.8). The fence
    /// afterwards drains evaluations that may still be filling the
    /// superseded table, so no decision computed before the resize
    /// lands unvalidated in the new one.
    pub fn resize_decision_cache(&self, cfg: DecisionCacheConfig) {
        self.dcache.resize(cfg);
        self.fence_in_flight_authz();
    }
}
