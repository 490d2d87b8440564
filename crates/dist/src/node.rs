//! One cluster member: a full [`Nexus`] kernel plus its BRB endpoint
//! and or-set replica, glued by the delivery path.
//!
//! When the broadcast layer delivers an op, the node applies it to its
//! or-set; only *presence flips* touch the kernel. A record going
//! absent→present becomes [`Nexus::apply_remote_mint`] into the
//! subject's labelstore; present→absent becomes
//! [`Nexus::apply_remote_revoke`], which leaves through the kernel's
//! one removal door: the subject the op names is renamed in this
//! node's decision cache (nobody else's verdicts are touched) and the
//! revocation fence runs (epoch bump, pipeline quiesce) — so the
//! moment a revocation is *delivered* at this node, no stale allow
//! can complete here. The or-set's idempotence guarantees the
//! kernel sees each flip exactly once no matter how the network
//! duplicates or reorders the underlying messages.

use crate::orset::{ApplyEffect, Dot, LabelOp, LabelRecord, OrSetLabels};
use crate::wire::{BrbCounters, BrbState, Membership, Message, NodeId, OpEnvelope, SimEd25519};
use nexus_core::LabelHandle;
use nexus_kernel::Nexus;
use nexus_nal::{parse, Principal};
use nexus_obs::{Collect, MetricsRegistry, TelemetrySnapshot};
use std::collections::HashMap;
use std::sync::Arc;

nexus_obs::counters! {
    /// Application-side counters (what the delivery path did to the
    /// kernel), alongside the BRB protocol counters.
    pub struct NodeStats(
        /// Broadcast protocol counters.
        brb: BrbCounters
    ) {
        /// Labels minted into this node's kernel from deliveries.
        applied_mints: counter "nexus_dist_applied_mints_total" "labels minted from deliveries",
        /// Labels revoked (with the fence) from deliveries.
        applied_revocations: counter
            "nexus_dist_applied_revocations_total" "labels revoked (fenced) from deliveries",
        /// Delivered ops that could not be applied (unparsable statement,
        /// missing label) — kept at zero by every honest schedule.
        apply_errors: counter
            "nexus_dist_apply_errors_total" "delivered ops that failed to apply",
        /// Delivered ops rejected before touching the or-set because
        /// their mint dot was not bound to the envelope's origin (a
        /// Byzantine member spending another node's dot namespace).
        rejected_ops: counter
            "nexus_dist_rejected_ops_total"
            "delivered ops rejected for an origin-unbound mint dot",
    }
}

/// A cluster member.
pub struct DistNode {
    pub(crate) signer: SimEd25519,
    pub(crate) brb: BrbState,
    pub(crate) orset: OrSetLabels,
    nexus: Arc<Nexus>,
    /// Cluster-wide subject name → this node's pid for it (spawned
    /// lazily; pids are node-local, names are the replicated key).
    subjects: HashMap<String, u64>,
    /// This node's mint counter (dot uniqueness).
    mint_counter: u64,
    /// The exact kernel handle each replicated record minted here, so
    /// a remote revocation deletes that handle — never a locally-said
    /// label that happens to share (speaker, statement) content.
    remote_handles: HashMap<LabelRecord, LabelHandle>,
    /// What the delivery path did to the kernel (`brb` is filled in
    /// from the broadcast endpoint when read).
    applied: NodeStats,
}

impl DistNode {
    /// Wrap a booted kernel as cluster member `id`.
    pub fn new(
        id: NodeId,
        cluster_seed: u64,
        membership: Membership,
        nexus: Arc<Nexus>,
    ) -> DistNode {
        DistNode {
            signer: SimEd25519::from_seed(cluster_seed, id),
            brb: BrbState::new(id, membership),
            orset: OrSetLabels::new(),
            nexus,
            subjects: HashMap::new(),
            mint_counter: 0,
            remote_handles: HashMap::new(),
            applied: NodeStats::default(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.brb.id()
    }

    /// The kernel.
    pub fn nexus(&self) -> &Arc<Nexus> {
        &self.nexus
    }

    /// The next unique dot for a mint originated here.
    pub fn next_dot(&mut self) -> Dot {
        self.mint_counter += 1;
        Dot::new(self.id(), self.mint_counter)
    }

    /// The local pid for a cluster-wide subject name (spawned on
    /// first use).
    pub fn subject_pid(&mut self, subject: &str) -> u64 {
        if let Some(&pid) = self.subjects.get(subject) {
            return pid;
        }
        let pid = self.nexus.spawn(subject, subject.as_bytes());
        self.subjects.insert(subject.to_string(), pid);
        pid
    }

    /// The local pid for `subject`, if one was ever spawned.
    pub fn lookup_subject(&self, subject: &str) -> Option<u64> {
        self.subjects.get(subject).copied()
    }

    /// Is `record` visibly present in this node's replica?
    pub fn contains(&self, record: &LabelRecord) -> bool {
        self.orset.contains(record)
    }

    /// The live dots this node has observed for `record`.
    pub fn observed_dots(&self, record: &LabelRecord) -> Vec<Dot> {
        self.orset.observed_dots(record)
    }

    /// The replica's canonical state digest (convergence checks).
    pub fn state_digest(&self) -> u64 {
        self.orset.state_digest()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NodeStats {
        NodeStats {
            brb: self.brb.counters(),
            ..self.applied
        }
    }

    /// This node's whole telemetry surface in one snapshot: the
    /// kernel's own series (exactly [`Nexus::telemetry_snapshot`])
    /// followed by the broadcast/delivery counters of [`NodeStats`].
    pub fn metrics(&self) -> TelemetrySnapshot {
        let mut r = MetricsRegistry::new();
        self.nexus.collect(&mut r);
        self.stats().collect(&mut r);
        r.finish()
    }

    /// Handle one incoming message: run the BRB state machine,
    /// validate and apply whatever it delivered, and return the
    /// messages to transmit.
    pub fn handle(&mut self, msg: &Message) -> Vec<(NodeId, Message)> {
        let step = self.brb.handle(msg, &self.signer);
        for env in &step.delivered {
            if !Self::op_origin_bound(env) {
                self.applied.rejected_ops += 1;
                continue;
            }
            let effect = self.orset.apply(&env.op);
            self.apply_effect(&effect);
        }
        step.outgoing
    }

    /// A delivered op's *fresh mint dot* must carry the envelope
    /// origin's own actor id: a member mints only in its own dot
    /// namespace, so it can neither collide with another node's
    /// future honest mints nor spend dots in a victim's name. (A
    /// revoke's observed `dots` legitimately reference other actors'
    /// mints and are not origin-bound.) The check is a pure function
    /// of the envelope, so every honest replica rejects exactly the
    /// same delivered ops — convergence is preserved.
    fn op_origin_bound(env: &OpEnvelope) -> bool {
        match &env.op {
            LabelOp::Mint { dot, .. } | LabelOp::Transfer { dot, .. } => dot.actor == env.origin,
            LabelOp::Revoke { .. } => true,
        }
    }

    /// Apply an or-set presence change to the kernel.
    fn apply_effect(&mut self, effect: &ApplyEffect) {
        for rec in &effect.revoked {
            match self.revoke_local(rec) {
                Ok(()) => self.applied.applied_revocations += 1,
                Err(()) => self.applied.apply_errors += 1,
            }
        }
        for rec in &effect.minted {
            match self.mint_local(rec) {
                Ok(()) => self.applied.applied_mints += 1,
                Err(()) => self.applied.apply_errors += 1,
            }
        }
    }

    fn mint_local(&mut self, rec: &LabelRecord) -> Result<(), ()> {
        let statement = parse(&rec.statement).map_err(|_| ())?;
        let pid = self.subject_pid(&rec.subject);
        let handle = self
            .nexus
            .apply_remote_mint(pid, Principal::name(&rec.speaker), statement)
            .map_err(|_| ())?;
        self.remote_handles.insert(rec.clone(), handle);
        Ok(())
    }

    fn revoke_local(&mut self, rec: &LabelRecord) -> Result<(), ()> {
        let pid = self.lookup_subject(&rec.subject).ok_or(())?;
        // Every record that became present went through `mint_local`,
        // which stored its handle or failed — and then there is no
        // label here to revoke.
        let handle = *self.remote_handles.get(rec).ok_or(())?;
        self.nexus
            .apply_remote_revoke(pid, handle)
            .map_err(|_| ())?;
        self.remote_handles.remove(rec);
        Ok(())
    }
}
