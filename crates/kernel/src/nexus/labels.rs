//! Labelstore system calls, the analyzer-credential and replication
//! hooks, and the doors every credential write goes through. A label
//! the kernel itself vouches for (port bindings, ownership, analyzer
//! and replicated credentials, the receiving end of a transfer) enters
//! a store only through [`Nexus::deposit`], the one caller of
//! `LabelStore::insert` here; a label a process states enters through
//! `LabelStore::say` ([`Nexus::sys_say`], which checks the speaker) and
//! one it imports through `LabelStore::import`
//! ([`Nexus::import_cert`], which verifies the chain) — and both of
//! those end in that same `LabelStore::insert`, which is what drops
//! the store's prepared credential set, so the next evaluation
//! prepares it afresh and every one after that shares it. A label
//! leaves a store only through [`Nexus::withdraw`], the one caller of
//! `LabelStore::delete`, which drops the set likewise, renames the
//! loser in the decision cache and owns the revocation fence. The
//! public entry points are a door call plus their own counter and
//! journal line.

use super::Nexus;
use crate::error::KernelError;
use crate::ipd::IpdTable;
use nexus_core::{Certificate, Label, LabelHandle, ResourceId};
use nexus_nal::{Formula, Principal};
use nexus_obs::{event as audit_event, AuditPath, AuditVerdict};

/// What [`Nexus::withdraw`] did with the label it removed.
enum Withdrawn {
    /// It left the system; the caller gets the label itself.
    Dropped(Label),
    /// It was re-deposited under the same table lock; its handle in
    /// the destination store.
    Moved(LabelHandle),
}

impl Nexus {
    // ---- the two doors ----

    /// The way in for kernel-vouched labels: the only caller of
    /// `LabelStore::insert` (an addition can only turn an uncached deny
    /// into an allow, so no fence).
    /// Takes the locked table so [`Nexus::withdraw`] can re-deposit
    /// under the lock it already holds.
    fn deposit(ipds: &mut IpdTable, pid: u64, label: Label) -> Result<LabelHandle, KernelError> {
        Ok(ipds.get_mut(pid)?.labelstore.insert(label))
    }

    /// The way out: the only caller of `LabelStore::delete`. Removes
    /// `h` from `from`'s store and, with `move_to`, deposits it in that
    /// process's store under the same table lock (so a transfer is
    /// atomic, and a missing destination fails before anything is
    /// removed). A removal can falsify a cached allow that relied on
    /// the departed label — `from`'s, nobody else's: a request's
    /// credentials come from its own subject's store — so `from` is
    /// renamed in the decision cache, after the delete and under the
    /// lock it took (the one site that bumps a generation), and every
    /// `Ok` has run [`Nexus::revocation_fence`] for what is in flight:
    /// by the time a caller sees the label gone, no authorization
    /// backed by it can complete.
    fn withdraw(
        &self,
        from: u64,
        h: LabelHandle,
        move_to: Option<u64>,
    ) -> Result<Withdrawn, KernelError> {
        let withdrawn = {
            let mut ipds = self.ipds.write();
            if let Some(to) = move_to {
                ipds.get(to)?;
            }
            let label = ipds.get_mut(from)?.labelstore.delete(h)?;
            self.with_hot(from, |hot| self.dcache.rename(&hot.removals))
                .expect("a pid in the table is in the hot index");
            match move_to {
                Some(to) => Withdrawn::Moved(Self::deposit(&mut ipds, to, label)?),
                None => Withdrawn::Dropped(label),
            }
        };
        self.revocation_fence();
        Ok(withdrawn)
    }

    /// [`Nexus::withdraw`] with no destination: the label leaves the
    /// system and is handed back.
    fn withdraw_dropped(&self, from: u64, h: LabelHandle) -> Result<Label, KernelError> {
        match self.withdraw(from, h, None)? {
            Withdrawn::Dropped(label) => Ok(label),
            Withdrawn::Moved(_) => unreachable!("withdraw moves only when given a destination"),
        }
    }

    // ---- labels ----

    /// The `say` system call.
    pub fn sys_say(&self, pid: u64, statement: &str) -> Result<LabelHandle, KernelError> {
        let caller = self.principal(pid)?;
        Ok(self
            .ipds
            .write()
            .get_mut(pid)?
            .labelstore
            .say(&caller, statement)?)
    }

    /// Deposit a kernel-vouched label into a process's labelstore
    /// (e.g. port bindings, ownership transfers).
    pub fn kernel_label(
        &self,
        pid: u64,
        speaker: Principal,
        statement: Formula,
    ) -> Result<LabelHandle, KernelError> {
        Self::deposit(&mut self.ipds.write(), pid, Label { speaker, statement })
    }

    /// All label formulas a process holds.
    pub fn labels_of(&self, pid: u64) -> Result<Vec<Formula>, KernelError> {
        Ok(self.ipds.read().get(pid)?.labelstore.formulas())
    }

    /// Externalize a label into a TPM-rooted certificate (§2.4).
    pub fn externalize(&self, pid: u64, h: LabelHandle) -> Result<Certificate, KernelError> {
        Ok(self
            .ipds
            .read()
            .get(pid)?
            .labelstore
            .externalize(h, &self.signer)?)
    }

    /// Import a certificate into a process's labelstore, verifying the
    /// chain against a trusted endorsement key.
    pub fn import_cert(
        &self,
        pid: u64,
        cert: &Certificate,
        trusted_ek: &ed25519_dalek::VerifyingKey,
    ) -> Result<LabelHandle, KernelError> {
        Ok(self
            .ipds
            .write()
            .get_mut(pid)?
            .labelstore
            .import(cert, trusted_ek)?)
    }

    /// Transfer a label between processes' labelstores (atomic: both
    /// stores update under one table lock). Because `from` loses a
    /// credential, its cached decisions — which may have depended on
    /// it — are unreachable, and in-flight ones fenced, before this
    /// returns; every other process's stay cached.
    pub fn transfer_label(
        &self,
        from: u64,
        h: LabelHandle,
        to: u64,
    ) -> Result<LabelHandle, KernelError> {
        match self.withdraw(from, h, Some(to))? {
            Withdrawn::Moved(handle) => Ok(handle),
            Withdrawn::Dropped(_) => unreachable!("withdraw with a destination moves"),
        }
    }

    // ---- analyzer credentials (ISSUE 8) ----

    /// Record one analyzer run against the attestation counters:
    /// `cache_hit` when a prior result was reused instead of
    /// re-analyzing.
    pub fn note_analysis(&self, cache_hit: bool) {
        if cache_hit {
            self.attest.analysis_cache_hits.add(1);
        } else {
            self.attest.analyses_run.add(1);
        }
    }

    /// Mint an analyzer credential: deposit `statement`, spoken by
    /// `analyzer_pid`'s principal, into `subject_pid`'s labelstore.
    /// The speaker is kernel-attributed (like `sys_say`), so an
    /// analyzer cannot mint in another principal's name. Counted and
    /// journaled as a `mint` event on the analyzer audit path.
    pub fn mint_credential(
        &self,
        analyzer_pid: u64,
        subject_pid: u64,
        statement: Formula,
    ) -> Result<LabelHandle, KernelError> {
        let speaker = self.principal(analyzer_pid)?;
        let claim = Self::claim_name(&statement);
        let label = Label { speaker, statement };
        let handle = Self::deposit(&mut self.ipds.write(), subject_pid, label)?;
        self.attest.credentials_minted.add(1);
        self.journal_credential(
            AuditPath::Analyzer,
            subject_pid,
            &claim,
            AuditVerdict::Mint,
            None,
        );
        Ok(handle)
    }

    /// Record an analyzer's refusal to mint `claim` for `subject_pid`
    /// (nothing enters the labelstore). The analysis witness lands in
    /// the journal event's `refuted` field, mirroring denial events.
    pub fn refuse_credential(
        &self,
        analyzer_pid: u64,
        subject_pid: u64,
        claim: &str,
        witness: &str,
    ) -> Result<(), KernelError> {
        self.principal(analyzer_pid)?;
        self.principal(subject_pid)?;
        self.attest.credentials_refused.add(1);
        self.journal_credential(
            AuditPath::Analyzer,
            subject_pid,
            claim,
            AuditVerdict::Refuse,
            Some(witness.to_string()),
        );
        Ok(())
    }

    /// Revoke a previously minted credential. By the time this
    /// returns, no authorization backed by the revoked credential can
    /// complete (the label left through the fenced `withdraw` door).
    pub fn revoke_credential(&self, subject_pid: u64, h: LabelHandle) -> Result<(), KernelError> {
        let label = self.withdraw_dropped(subject_pid, h)?;
        self.attest.credentials_revoked.add(1);
        self.journal_credential(
            AuditPath::Analyzer,
            subject_pid,
            &Self::claim_name(&label.statement),
            AuditVerdict::Revoke,
            None,
        );
        Ok(())
    }

    /// Cumulative attestation-path counters.
    pub fn attest_stats(&self) -> AttestStats {
        self.attest.snapshot()
    }

    /// The claim (predicate) name a credential statement asserts.
    fn claim_name(statement: &Formula) -> String {
        match statement {
            Formula::Pred(name, _) => name.clone(),
            other => other.to_string(),
        }
    }

    /// Journal one credential event on `path` (while telemetry is on).
    fn journal_credential(
        &self,
        path: AuditPath,
        subject_pid: u64,
        claim: &str,
        verdict: AuditVerdict,
        witness: Option<String>,
    ) {
        if !self.telemetry.enabled() {
            return;
        }
        let mut ev = audit_event(
            subject_pid,
            claim,
            ResourceId::ipd(subject_pid).0,
            verdict,
            path,
        );
        let (g, p, l) = self.epoch_snapshot();
        ev.epochs = [g, p, l];
        ev.refuted = witness;
        self.telemetry.audit.push(ev);
    }

    // ---- replicated credentials (ISSUE 9) ----

    /// Apply a *remotely agreed* label mint: the distributed layer
    /// delivered a broadcast op whose quorum vouches for it, so the
    /// label enters `pid`'s store kernel-attributed (like
    /// [`Nexus::kernel_label`]) without a local `say`. Counted and
    /// journaled on the replication audit path.
    pub fn apply_remote_mint(
        &self,
        pid: u64,
        speaker: Principal,
        statement: Formula,
    ) -> Result<LabelHandle, KernelError> {
        let claim = Self::claim_name(&statement);
        let handle = Self::deposit(&mut self.ipds.write(), pid, Label { speaker, statement })?;
        self.dist.remote_mints.add(1);
        self.journal_credential(
            AuditPath::Replication,
            pid,
            &claim,
            AuditVerdict::Mint,
            None,
        );
        Ok(handle)
    }

    /// Apply a *remotely agreed* revocation. By the time this returns,
    /// no authorization on this node backed by the revoked label can
    /// complete — the cross-node extension of the no-stale-allow
    /// invariant (a revocation delivered anywhere fences, on every
    /// replica as its delivery is applied, the one subject it names).
    pub fn apply_remote_revoke(&self, pid: u64, h: LabelHandle) -> Result<Label, KernelError> {
        let label = self.withdraw_dropped(pid, h)?;
        self.dist.remote_revocations.add(1);
        self.journal_credential(
            AuditPath::Replication,
            pid,
            &Self::claim_name(&label.statement),
            AuditVerdict::Revoke,
            None,
        );
        Ok(label)
    }

    /// Cumulative replication-path counters.
    pub fn dist_stats(&self) -> DistStats {
        self.dist.snapshot()
    }
}

nexus_obs::counters! {
    /// A frozen copy of the replication-path counters (the replicated
    /// credential path, ISSUE 9): label changes this kernel applied
    /// because a remote broadcast op was delivered, not because a local
    /// process invoked a system call.
    pub struct DistStats, live DistCounters {
        /// Labels minted on delivery of a remote broadcast op.
        remote_mints: plain counter
            "nexus_dist_remote_mints_total" "labels minted from delivered broadcast ops",
        /// Labels revoked (with the full fence) on delivery of a remote
        /// broadcast op.
        remote_revocations: plain counter
            "nexus_dist_remote_revocations_total"
            "labels revoked (and fenced) from delivered broadcast ops",
    }
}

nexus_obs::counters! {
    /// A frozen copy of the attestation-path counters (the analyzer
    /// credential path, ISSUE 8): analyzer runs, analysis-cache reuse,
    /// and the mint/refuse/revoke tallies.
    pub struct AttestStats, live AttestCounters {
        /// Analyses actually run (analysis-cache misses).
        analyses_run: plain counter
            "nexus_attest_analyses_total" "analyzer runs (analysis-cache misses)",
        /// Attestation requests answered from a cached analysis result.
        analysis_cache_hits: plain counter
            "nexus_attest_analysis_cache_hits_total"
            "attestation requests served from cached analysis results",
        /// Credentials minted into labelstores.
        credentials_minted: plain counter
            "nexus_attest_minted_total" "analyzer credentials minted",
        /// Credentials refused (analysis found a witness).
        credentials_refused: plain counter
            "nexus_attest_refused_total" "analyzer credentials refused",
        /// Credentials revoked after re-analysis or binary change.
        credentials_revoked: plain counter
            "nexus_attest_revoked_total" "analyzer credentials revoked (binary changed)",
    }
}
