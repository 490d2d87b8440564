//! The Nexus kernel: boot, system calls, and the authorization path.
//!
//! This is the glue that realizes Figure 1 of the paper: a call on an
//! object is (1) vectored through the redirector (interpositioning),
//! (2) looked up in the kernel decision cache, (3) on a miss, sent to
//! the guard with the stored or supplied proof and the subject's
//! labels, and (4) permitted iff the proof discharges the goal.
//!
//! ## Concurrency
//!
//! The kernel is shared: every system-call entry point takes `&self`,
//! so an `Arc<Nexus>` serves syscalls from many threads at once.
//! The authorization *read* path is lock-free: a decision-cache hit
//! is a seqlock probe (atomic loads, no lock word), the goal/proof
//! stores publish epoch-stamped snapshots readers never block on, and
//! the submission path resolves the subject principal and label shape
//! through the kernel's own published [`Snapshot`] index (`ipd_hot`)
//! rather than the IPD table's lock. The remaining subsystems sit
//! behind their own locks. Lock discipline: locks are leaf-scoped —
//! no method holds one subsystem's lock while acquiring another's,
//! except `transfer_label` (one table, one lock) and `fs_server_hop`
//! (holds the IPC lock across the modeled client-server round trip so
//! concurrent hops cannot steal each other's replies).
//! `classify_external` inspects the goal/proof stores' published
//! snapshots (no lock) while querying the authority registry's read
//! lock.
//!
//! Because readers no longer hold locks, consistency is proven *after*
//! the fact: the one evaluator (`Nexus::evaluate_authz`, serving the
//! caller-thread path as a slice of one and the pipeline's batches
//! alike) captures a `ReadStamp` — the (goal, proof, label-removal)
//! epoch triple plus the goal/proof snapshot *publication versions* —
//! before reading any store, and re-validates it before any verdict
//! leaves, re-evaluating if it moved. The epoch half catches writers
//! that completed; the version half catches a writer that had bumped
//! its epoch but not yet published when the reader sampled the store
//! (writers bump first, then publish). Decision-cache fills re-run
//! that validation
//! *inside* the cache's subregion writer lock
//! (`DecisionCache::insert_if`), so a concurrent `setgoal`'s
//! invalidation can never be overwritten by a stale decision — the
//! invalidation either observes the fill and clears it, or the fill
//! observes the stamp movement and aborts.

use crate::error::KernelError;
use crate::fs::{RamFs, FS_PRINCIPAL};
use crate::interpose::{ChainOutcome, Interceptor, IpcCall, MonitorLevel, Redirector};
use crate::ipc::IpcTable;
use crate::ipd::IpdTable;
use crate::sched::StrideScheduler;
use nexus_authzd::{
    AuthzOutcome, AuthzRequest, AuthzTicket, BatchExecutor, BatchKey, GuardPool, GuardPoolConfig,
    PoolStats,
};
use nexus_core::{
    AccessRequest, Authority, AuthorityKind, AuthorityRegistry, CacheKey, Certificate,
    DecisionCache, DecisionCacheConfig, GoalStore, Guard, KernelSigner, Label, LabelHandle, OpName,
    ProofStore, ResourceId, Snapshot,
};
use nexus_nal::{BatchGoal, Formula, Principal, Proof, ProverConfig, Term};
use nexus_obs::{
    event as audit_event, AuditEvent, AuditJournal, AuditPath, AuditVerdict, MetricsRegistry,
    ObsConfig, Sampler, Stage, StageTimers, TelemetrySnapshot,
};
use nexus_storage::{RamDisk, SsrManager, StorageError, VdirTable, VkeyTable};
use nexus_tpm::Tpm;
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// The measured boot chain (§3.4): firmware, boot loader, kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootImages {
    /// BIOS/firmware image.
    pub bios: Vec<u8>,
    /// Boot loader image.
    pub loader: Vec<u8>,
    /// Nexus kernel image.
    pub kernel: Vec<u8>,
}

impl BootImages {
    /// The stock images used across tests and benchmarks.
    pub fn standard() -> Self {
        BootImages {
            bios: b"nexus-bios-v1".to_vec(),
            loader: b"nexus-loader-v1".to_vec(),
            kernel: b"nexus-kernel-v1".to_vec(),
        }
    }
}

/// Kernel configuration switches (used by the evaluation harness to
/// reproduce the paper's ablations).
#[derive(Debug, Clone, Copy)]
pub struct NexusConfig {
    /// Route system calls through the redirector ("Nexus"); disabling
    /// this gives the "Nexus bare" rows of Table 1.
    pub interpose_syscalls: bool,
    /// Enable the kernel decision cache (Figure 4 solid vs dashed).
    pub decision_cache: bool,
    /// Let the kernel attempt proof construction from the subject's
    /// labels when no proof is stored or supplied.
    pub auto_prove: bool,
    /// Enforce goal formulas on filesystem operations (Figure 8's
    /// access-control column benchmarks toggle this).
    pub authorize_fs: bool,
    /// Telemetry (stage timers, audit journal, cache-hit sampling).
    /// `enabled` takes effect immediately on [`Nexus::set_config`];
    /// the capacity/sampling knobs apply at boot.
    pub obs: ObsConfig,
}

impl Default for NexusConfig {
    fn default() -> Self {
        NexusConfig {
            interpose_syscalls: true,
            decision_cache: true,
            auto_prove: true,
            authorize_fs: true,
            obs: ObsConfig::default(),
        }
    }
}

/// System calls (the Table 1 set plus label/goal/proof management).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Syscall {
    /// Empty call (overhead measurement).
    Null,
    /// Parent pid.
    GetPpid,
    /// Kernel clock.
    GetTimeOfDay,
    /// Scheduler yield.
    Yield,
    /// Open a file.
    Open(String),
    /// Close a descriptor.
    Close(u64),
    /// Read from a descriptor.
    Read(u64, usize),
    /// Write to a descriptor.
    Write(u64, Vec<u8>),
}

impl Syscall {
    /// The operation name used for relinquishment and interposition.
    pub fn name(&self) -> &'static str {
        match self {
            Syscall::Null => "null",
            Syscall::GetPpid => "getppid",
            Syscall::GetTimeOfDay => "gettimeofday",
            Syscall::Yield => "yield",
            Syscall::Open(_) => "open",
            Syscall::Close(_) => "close",
            Syscall::Read(..) => "read",
            Syscall::Write(..) => "write",
        }
    }
}

/// System call results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SysRet {
    /// No value.
    Unit,
    /// Integer result.
    Int(u64),
    /// Byte result.
    Data(Vec<u8>),
}

/// Port number of the syscall channel in the redirector table.
pub const SYSCALL_CHANNEL: u64 = 0;

/// The kernel. `Send + Sync`: share it as `Arc<Nexus>` and call
/// system calls from as many threads as you like.
pub struct Nexus {
    /// The platform TPM (serialized like the real single-chip device).
    tpm: Mutex<Tpm>,
    /// The kernel's signing identity (NK / NBK); immutable after boot.
    signer: KernelSigner,
    /// Secondary storage.
    disk: Mutex<RamDisk>,
    /// Virtual data integrity registers.
    vdirs: Mutex<VdirTable>,
    /// Virtual keys.
    vkeys: Mutex<VkeyTable>,
    /// Secure storage regions.
    ssrs: Mutex<SsrManager>,
    /// IPC ports.
    ipc: Mutex<IpcTable>,
    /// Interposition table (internally synchronized).
    redirector: Redirector,
    /// Proportional-share scheduler (internally synchronized).
    sched: StrideScheduler,
    /// The asynchronous authorization pipeline, once started.
    authzd: RwLock<Option<Arc<GuardPool>>>,
    ipds: RwLock<IpdTable>,
    /// Lock-free index over the hot per-process facts the submission
    /// path needs — principal, scheduler name, live label-shape word —
    /// published on every spawn so `route_authz` and the pipeline's
    /// prioritizer never take the `ipds` lock per request. Processes
    /// are never deleted (there is no kill), so an entry present here
    /// is authoritative; an absent one falls back to the locked table.
    ipd_hot: Snapshot<HashMap<u64, IpdHot>>,
    goals: GoalStore,
    proofs: ProofStore,
    dcache: DecisionCache,
    guard: Guard,
    authorities: AuthorityRegistry,
    fs: Mutex<RamFs>,
    cfg: RwLock<NexusConfig>,
    clock: AtomicU64,
    /// Bumped whenever a label is *removed* from a labelstore
    /// (additions can only turn uncached denies into allows, but a
    /// removal can falsify a cached allow whose credential matching
    /// relied on the departed label — and the decision cache has no
    /// per-label invalidation hook).
    label_removal_epoch: AtomicU64,
    first_boot: bool,
    fs_port: u64,
    fs_reply_port: u64,
    guard_upcalls: AtomicU64,
    /// Telemetry composite: stage timers (shared by `Arc` with the
    /// pipeline), decision audit journal, and the cache-hit sampler.
    telemetry: KernelTelemetry,
    /// Counters for the analyzer→credential path (ISSUE 8).
    attest: AttestCounters,
    /// Counters for the replicated-credential path (ISSUE 9).
    dist: DistCounters,
}

impl Nexus {
    /// Boot the Nexus: measure the chain into the PCRs, take TPM
    /// ownership on first boot or recover attested storage state on
    /// later boots (aborting on tamper), and mint the kernel identity.
    pub fn boot(
        mut tpm: Tpm,
        mut disk: RamDisk,
        images: &BootImages,
        cfg: NexusConfig,
    ) -> Result<Nexus, KernelError> {
        tpm.power_cycle();
        tpm.pcrs_mut().extend(0, &images.bios);
        tpm.pcrs_mut().extend(1, &images.loader);
        tpm.pcrs_mut().extend(2, &images.kernel);
        let first_boot = !tpm.is_owned();
        let vdirs = if first_boot {
            tpm.take_ownership()
                .map_err(|e| KernelError::BootFailure(e.to_string()))?;
            VdirTable::init_first_boot(&mut disk, &mut tpm)
                .map_err(|e| KernelError::BootFailure(e.to_string()))?
        } else {
            VdirTable::recover(&disk, &tpm).map_err(|e| KernelError::BootFailure(e.to_string()))?
        };
        let ssrs = match SsrManager::open(&disk, &vdirs) {
            Ok(s) => s,
            Err(StorageError::NoSuchFile(_)) => SsrManager::new(),
            Err(e) => return Err(KernelError::BootFailure(e.to_string())),
        };
        let signer = KernelSigner::generate(&mut tpm)
            .map_err(|e| KernelError::BootFailure(e.to_string()))?;
        let mut ipc = IpcTable::new();
        let (fs_port, _) = ipc.create_port(0);
        let (fs_reply_port, _) = ipc.create_port(0);
        Ok(Nexus {
            tpm: Mutex::new(tpm),
            signer,
            disk: Mutex::new(disk),
            vdirs: Mutex::new(vdirs),
            vkeys: Mutex::new(VkeyTable::new()),
            ssrs: Mutex::new(ssrs),
            ipc: Mutex::new(ipc),
            redirector: Redirector::new(),
            sched: StrideScheduler::new(),
            authzd: RwLock::new(None),
            ipds: RwLock::new(IpdTable::new()),
            ipd_hot: Snapshot::new(HashMap::new()),
            goals: GoalStore::new(),
            proofs: ProofStore::new(),
            dcache: DecisionCache::new(DecisionCacheConfig::default()),
            guard: Guard::new(),
            authorities: AuthorityRegistry::new(),
            fs: Mutex::new(RamFs::new()),
            cfg: RwLock::new(cfg),
            clock: AtomicU64::new(0),
            label_removal_epoch: AtomicU64::new(0),
            first_boot,
            fs_port,
            fs_reply_port,
            guard_upcalls: AtomicU64::new(0),
            telemetry: KernelTelemetry::new(&cfg.obs),
            attest: AttestCounters::default(),
            dist: DistCounters::default(),
        })
    }

    /// Boot with default config.
    pub fn boot_default() -> Result<Nexus, KernelError> {
        Nexus::boot(
            Tpm::new_with_seed(0xeade),
            RamDisk::new(),
            &BootImages::standard(),
            NexusConfig::default(),
        )
    }

    /// Was this the first boot (TPM ownership taken)?
    pub fn first_boot(&self) -> bool {
        self.first_boot
    }

    /// Current configuration (a copy).
    pub fn config(&self) -> NexusConfig {
        *self.cfg.read()
    }

    /// Mutate configuration (benchmark harness). The telemetry master
    /// switch propagates immediately — the stage timers' flag is the
    /// single gate every recording site (kernel- and pool-side)
    /// checks.
    pub fn set_config(&self, cfg: NexusConfig) {
        self.telemetry.stages.set_enabled(cfg.obs.enabled);
        *self.cfg.write() = cfg;
    }

    // ---- subsystem access ----

    /// The platform TPM.
    pub fn tpm(&self) -> MutexGuard<'_, Tpm> {
        self.tpm.lock()
    }

    /// The kernel's signing identity.
    pub fn signer(&self) -> &KernelSigner {
        &self.signer
    }

    /// Secondary storage.
    pub fn disk(&self) -> MutexGuard<'_, RamDisk> {
        self.disk.lock()
    }

    /// Virtual data integrity registers.
    pub fn vdirs(&self) -> MutexGuard<'_, VdirTable> {
        self.vdirs.lock()
    }

    /// Virtual keys.
    pub fn vkeys(&self) -> MutexGuard<'_, VkeyTable> {
        self.vkeys.lock()
    }

    /// Secure storage regions.
    pub fn ssrs(&self) -> MutexGuard<'_, SsrManager> {
        self.ssrs.lock()
    }

    /// The IPC port table.
    pub fn ipc(&self) -> MutexGuard<'_, IpcTable> {
        self.ipc.lock()
    }

    /// The interposition table (internally synchronized — no guard).
    pub fn redirector(&self) -> &Redirector {
        &self.redirector
    }

    /// The proportional-share scheduler (internally synchronized —
    /// no guard).
    pub fn sched(&self) -> &StrideScheduler {
        &self.sched
    }

    /// Tear down the kernel, returning the non-volatile hardware
    /// state (TPM and disk) — what survives to the next boot.
    pub fn shutdown(self) -> (Tpm, RamDisk) {
        self.stop_authz_pipeline();
        (self.tpm.into_inner(), self.disk.into_inner())
    }

    // ---- processes ----

    /// Spawn a top-level process. (Scheduler weights are assigned
    /// separately — tenants register via [`Nexus::sched`].)
    pub fn spawn(&self, name: &str, image: &[u8]) -> u64 {
        let mut ipds = self.ipds.write();
        let pid = ipds.spawn(name, 0, image);
        self.publish_ipd_hot(&ipds, pid);
        pid
    }

    /// Spawn a child process.
    pub fn spawn_child(&self, parent: u64, name: &str, image: &[u8]) -> Result<u64, KernelError> {
        let mut ipds = self.ipds.write();
        ipds.get(parent)?;
        let pid = ipds.spawn(name, parent, image);
        self.publish_ipd_hot(&ipds, pid);
        Ok(pid)
    }

    /// Publish (or refresh) a pid's entry in the lock-free hot index.
    /// Called with the `ipds` write lock held; the snapshot's writer
    /// mutex is leaf-scoped, so the nesting is one-way.
    fn publish_ipd_hot(&self, ipds: &IpdTable, pid: u64) {
        if let Ok(ipd) = ipds.get(pid) {
            let hot = IpdHot {
                principal: ipd.principal(),
                name: ipd.name.clone(),
                shape: ipd.labelstore.shape_handle(),
            };
            self.ipd_hot.update(|m| {
                m.insert(pid, hot.clone());
            });
        }
    }

    /// The principal a pid's statements are attributed to.
    pub fn principal(&self, pid: u64) -> Result<Principal, KernelError> {
        Ok(self.ipds.read().get(pid)?.principal())
    }

    /// Launch-time hash of a process image.
    pub fn launch_hash(&self, pid: u64) -> Result<nexus_tpm::Digest, KernelError> {
        Ok(self.ipds.read().get(pid)?.launch_hash)
    }

    /// Process table access (read-locked).
    pub fn ipds(&self) -> RwLockReadGuard<'_, IpdTable> {
        self.ipds.read()
    }

    /// Relinquish a system call permanently (§4.1: the web server
    /// drops everything but IPC after initialization).
    pub fn relinquish(&self, pid: u64, syscall: &'static str) -> Result<(), KernelError> {
        self.ipds.write().get_mut(pid)?.relinquished.insert(syscall);
        Ok(())
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
        Ok(self
            .ipds
            .write()
            .get_mut(pid)?
            .labelstore
            .insert(Label { speaker, statement }))
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
    /// credential, cached decisions that may have depended on it are
    /// dropped: the removal epoch is bumped (aborting racing cache
    /// fills) and the decision cache cleared.
    pub fn transfer_label(
        &self,
        from: u64,
        h: LabelHandle,
        to: u64,
    ) -> Result<LabelHandle, KernelError> {
        let handle = {
            let mut ipds = self.ipds.write();
            let label = ipds.get_mut(from)?.labelstore.delete(h)?;
            ipds.get_mut(to)?.labelstore.insert(label)
        };
        self.revocation_fence();
        Ok(handle)
    }

    /// The label-removal fence, as one named step: bump the removal
    /// epoch (aborting racing cache fills), clear the decision cache,
    /// and quiesce in-flight pipeline batches. Every path that takes a
    /// label *away* — transfer, credential revocation, and a remotely
    /// delivered revocation broadcast — runs exactly this; by the time
    /// it returns, no authorization backed by the departed label can
    /// complete (PR 5's no-stale-allow invariant, which the
    /// distributed layer extends across nodes).
    pub fn revocation_fence(&self) {
        self.label_removal_epoch.fetch_add(1, Ordering::Relaxed);
        self.dcache.clear();
        self.fence_in_flight_authz();
    }

    // ---- analyzer credentials (ISSUE 8) ----

    /// Record one analyzer run against the attestation counters:
    /// `cache_hit` when a prior result was reused instead of
    /// re-analyzing.
    pub fn note_analysis(&self, cache_hit: bool) {
        if cache_hit {
            self.attest.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.attest.analyses.fetch_add(1, Ordering::Relaxed);
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
        let handle = self
            .ipds
            .write()
            .get_mut(subject_pid)?
            .labelstore
            .insert(Label { speaker, statement });
        self.attest.minted.fetch_add(1, Ordering::Relaxed);
        self.journal_attest(subject_pid, &claim, AuditVerdict::Mint, None);
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
        self.attest.refused.fetch_add(1, Ordering::Relaxed);
        self.journal_attest(
            subject_pid,
            claim,
            AuditVerdict::Refuse,
            Some(witness.to_string()),
        );
        Ok(())
    }

    /// Revoke a previously minted credential: remove the label and
    /// flush everything that may have cached a decision it supported —
    /// exactly [`Nexus::transfer_label`]'s removal discipline (bump
    /// the label-removal epoch, clear the decision cache, fence
    /// in-flight pipeline batches). By the time this returns, no
    /// authorization backed by the revoked credential can complete.
    pub fn revoke_credential(&self, subject_pid: u64, h: LabelHandle) -> Result<(), KernelError> {
        let label = self
            .ipds
            .write()
            .get_mut(subject_pid)?
            .labelstore
            .delete(h)?;
        self.revocation_fence();
        self.attest.revoked.fetch_add(1, Ordering::Relaxed);
        self.journal_attest(
            subject_pid,
            &Self::claim_name(&label.statement),
            AuditVerdict::Revoke,
            None,
        );
        Ok(())
    }

    /// Cumulative attestation-path counters.
    pub fn attest_stats(&self) -> AttestStats {
        AttestStats {
            analyses_run: self.attest.analyses.load(Ordering::Relaxed),
            analysis_cache_hits: self.attest.cache_hits.load(Ordering::Relaxed),
            credentials_minted: self.attest.minted.load(Ordering::Relaxed),
            credentials_refused: self.attest.refused.load(Ordering::Relaxed),
            credentials_revoked: self.attest.revoked.load(Ordering::Relaxed),
        }
    }

    /// The claim (predicate) name a credential statement asserts.
    fn claim_name(statement: &Formula) -> String {
        match statement {
            Formula::Pred(name, _) => name.clone(),
            other => other.to_string(),
        }
    }

    /// Journal one analyzer credential event (while telemetry is on).
    fn journal_attest(
        &self,
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
            AuditPath::Analyzer,
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
        let handle = self
            .ipds
            .write()
            .get_mut(pid)?
            .labelstore
            .insert(Label { speaker, statement });
        self.dist.remote_mints.fetch_add(1, Ordering::Relaxed);
        self.journal_dist(pid, &claim, AuditVerdict::Mint);
        Ok(handle)
    }

    /// Apply a *remotely agreed* revocation: remove the label and run
    /// the full [`Nexus::revocation_fence`]. By the time this returns,
    /// no authorization on this node backed by the revoked label can
    /// complete — the cross-node extension of the no-stale-allow
    /// invariant (a revocation delivered anywhere fences every
    /// replica as its delivery is applied).
    pub fn apply_remote_revoke(&self, pid: u64, h: LabelHandle) -> Result<Label, KernelError> {
        let label = self.ipds.write().get_mut(pid)?.labelstore.delete(h)?;
        self.revocation_fence();
        self.dist.remote_revocations.fetch_add(1, Ordering::Relaxed);
        self.journal_dist(
            pid,
            &Self::claim_name(&label.statement),
            AuditVerdict::Revoke,
        );
        Ok(label)
    }

    /// Find a label in `pid`'s store by content. The replication layer
    /// names labels by (speaker, statement) — handles are node-local —
    /// so applying a remote revocation starts here.
    pub fn find_label(
        &self,
        pid: u64,
        speaker: &Principal,
        statement: &Formula,
    ) -> Result<Option<LabelHandle>, KernelError> {
        Ok(self
            .ipds
            .read()
            .get(pid)?
            .labelstore
            .find_handle(speaker, statement))
    }

    /// Cumulative replication-path counters.
    pub fn dist_stats(&self) -> DistStats {
        DistStats {
            remote_mints: self.dist.remote_mints.load(Ordering::Relaxed),
            remote_revocations: self.dist.remote_revocations.load(Ordering::Relaxed),
        }
    }

    /// Journal one replication event (while telemetry is on).
    fn journal_dist(&self, subject_pid: u64, claim: &str, verdict: AuditVerdict) {
        if !self.telemetry.enabled() {
            return;
        }
        let mut ev = audit_event(
            subject_pid,
            claim,
            ResourceId::ipd(subject_pid).0,
            verdict,
            AuditPath::Replication,
        );
        let (g, p, l) = self.epoch_snapshot();
        ev.epochs = [g, p, l];
        self.telemetry.audit.push(ev);
    }

    // ---- goals, proofs, authorities ----

    fn manager_of(object: &ResourceId) -> Principal {
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

    /// The `setgoal` system call: authorized against the resource's
    /// `setgoal` goal (default: owner only), then installed; the
    /// decision-cache subregion for (op, object) is invalidated.
    pub fn sys_setgoal(
        &self,
        pid: u64,
        object: ResourceId,
        op: &str,
        formula: Formula,
    ) -> Result<u64, KernelError> {
        if !self.authorize(pid, "setgoal", &object)? {
            return Err(KernelError::AccessDenied {
                reason: format!("setgoal on {object} denied"),
            });
        }
        let opn = OpName::from(op);
        let epoch = self
            .goals
            .set_goal(object.clone(), opn.clone(), formula, None);
        self.dcache.invalidate_subregion(&opn, &object);
        self.fence_in_flight_authz();
        Ok(epoch)
    }

    /// Clear a goal (authorized like `setgoal`).
    pub fn sys_clear_goal(
        &self,
        pid: u64,
        object: &ResourceId,
        op: &str,
    ) -> Result<(), KernelError> {
        if !self.authorize(pid, "setgoal", object)? {
            return Err(KernelError::AccessDenied {
                reason: format!("setgoal on {object} denied"),
            });
        }
        let opn = OpName::from(op);
        self.goals.clear_goal(object, &opn);
        self.dcache.invalidate_subregion(&opn, object);
        self.fence_in_flight_authz();
        Ok(())
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
        let subject = self.principal(pid)?;
        let key = self
            .proofs
            .set_proof(subject, OpName::from(op), object.clone(), proof);
        self.dcache.invalidate_entry(&key);
        Ok(())
    }

    /// Remove a stored proof; invalidates its decision-cache entry.
    pub fn sys_clear_proof(
        &self,
        pid: u64,
        op: &str,
        object: &ResourceId,
    ) -> Result<(), KernelError> {
        let subject = self.principal(pid)?;
        if let Some(key) = self.proofs.clear_proof(&subject, &OpName::from(op), object) {
            self.dcache.invalidate_entry(&key);
        }
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

    // ---- the authorization path (Figure 1) ----

    /// Authorize `pid` performing `op` on `object` using the stored
    /// proof (or auto-proving from held labels when configured).
    ///
    /// When the asynchronous pipeline is running, a decision-cache
    /// miss is submitted to the [`GuardPool`] and this call blocks on
    /// the ticket — same verdict, but the guard runs off-thread and
    /// coalesces with concurrent requests for the same goal.
    pub fn authorize(&self, pid: u64, op: &str, object: &ResourceId) -> Result<bool, KernelError> {
        self.authorize_with(pid, op, object, None)
    }

    /// Authorize with an explicitly supplied proof.
    pub fn authorize_with(
        &self,
        pid: u64,
        op: &str,
        object: &ResourceId,
        inline_proof: Option<&Proof>,
    ) -> Result<bool, KernelError> {
        let cfg = self.config();
        let opn = OpName::from(op);
        let outcome = match self.route_authz(pid, &opn, object, inline_proof, &cfg)? {
            AuthzRoute::Cached(allow) => return Ok(allow),
            AuthzRoute::Submitted(ticket) => match ticket.wait() {
                // A fault (the pool shed the submission, raced a
                // shutdown mid-flight, or epoch churn starved the
                // batch) degrades to evaluation on the caller's
                // thread rather than surfacing an error for an
                // evaluable request.
                AuthzOutcome::Fault(_) => self.evaluate_inline(pid, &opn, object, inline_proof),
                verdict => verdict,
            },
            AuthzRoute::Evaluate => self.evaluate_inline(pid, &opn, object, inline_proof),
        };
        match outcome {
            AuthzOutcome::Allow => Ok(true),
            AuthzOutcome::Deny => Ok(false),
            // No verdict could be computed under a stable stamp: an
            // error, never a guess.
            AuthzOutcome::Fault(why) => Err(KernelError::Core(why)),
        }
    }

    /// Begin an asynchronous authorization: returns a ticket to poll,
    /// block on, or attach a callback to. Decision-cache hits resolve
    /// the ticket immediately; without a running pipeline the guard
    /// runs inline and the ticket comes back already resolved. A
    /// submission refused at the pipeline's high-water mark (under
    /// `OverflowPolicy::Reject`) surfaces as a ticket already
    /// resolved to [`AuthzOutcome::Fault`] — the caller decides
    /// whether to retry, degrade, or evaluate by other means; it is
    /// never parked behind an unbounded queue.
    pub fn authorize_async(
        &self,
        pid: u64,
        op: &str,
        object: &ResourceId,
    ) -> Result<AuthzTicket, KernelError> {
        self.authorize_async_with(pid, op, object, None)
    }

    /// Asynchronous authorization with an explicitly supplied proof.
    pub fn authorize_async_with(
        &self,
        pid: u64,
        op: &str,
        object: &ResourceId,
        inline_proof: Option<&Proof>,
    ) -> Result<AuthzTicket, KernelError> {
        let cfg = self.config();
        let opn = OpName::from(op);
        match self.route_authz(pid, &opn, object, inline_proof, &cfg)? {
            AuthzRoute::Cached(allow) => Ok(AuthzTicket::ready(outcome_of(allow))),
            AuthzRoute::Submitted(ticket) => Ok(ticket),
            AuthzRoute::Evaluate => Ok(AuthzTicket::ready(self.evaluate_inline(
                pid,
                &opn,
                object,
                inline_proof,
            ))),
        }
    }

    /// The shared front half of both authorization entry points:
    /// resolve the subject, probe the decision cache, and submit to
    /// the pipeline when it is running. `Evaluate` means the caller
    /// must evaluate on its own thread (no pipeline, or it raced a
    /// shutdown).
    fn route_authz(
        &self,
        pid: u64,
        opn: &OpName,
        object: &ResourceId,
        inline_proof: Option<&Proof>,
        cfg: &NexusConfig,
    ) -> Result<AuthzRoute, KernelError> {
        // The hot-index read resolves the subject principal and the
        // live label shape with zero locks — the submission path never
        // waits behind a spawn or a `say`. A pid missing from the
        // index (spawned through some path that bypassed `spawn`)
        // falls back to the locked table.
        let hot = self.ipd_hot.read(|m, _| {
            m.get(&pid)
                .map(|h| (h.principal.clone(), h.shape.load(Ordering::Relaxed)))
        });
        let (subject, label_shape) = match hot {
            Some(pair) => pair,
            None => (
                self.principal(pid)?,
                self.ipds
                    .read()
                    .get(pid)
                    .map(|ipd| ipd.labelstore.shape())
                    .unwrap_or(0),
            ),
        };
        let telemetry_on = self.telemetry.enabled();
        if cfg.decision_cache {
            let key = CacheKey {
                subject: subject.clone(),
                operation: opn.clone(),
                object: object.clone(),
            };
            // Hit-path auditing is *sampled*: the ticked decision —
            // one striped relaxed fetch_add — happens before the
            // lookup so only 1-in-2^shift entries ever pay for a
            // clock read or (on a hit) an event allocation. Disabled
            // telemetry costs exactly one relaxed load here.
            let hit_start = if telemetry_on && self.telemetry.sampler.tick() {
                Some(Instant::now())
            } else {
                None
            };
            if let Some(allow) = self.dcache.lookup(&key) {
                if let Some(start) = hit_start {
                    self.audit_cache_hit(pid, opn, object, allow, start);
                }
                return Ok(AuthzRoute::Cached(allow));
            }
        }
        if let Some(pool) = self.authz_pool() {
            // The label shape is a coalescing hint: requests batch
            // only with same-shaped credential sets, so the batch
            // prover's frontier sharing is maximal. One atomic load
            // off the hot index above.
            if let Some(ticket) = pool.try_submit(AuthzRequest {
                pid,
                op: opn.clone(),
                object: object.clone(),
                proof: inline_proof.cloned(),
                external: self.classify_external(&subject, opn, object, inline_proof),
                label_shape,
                submitted_at: telemetry_on.then(Instant::now),
            }) {
                return Ok(AuthzRoute::Submitted(ticket));
            }
        }
        Ok(AuthzRoute::Evaluate)
    }

    /// Classify a request *before* evaluation: could checking it
    /// consult an external (IPC-backed) authority? The pipeline
    /// routes external-touching requests to its dedicated (smaller)
    /// worker lane so one stuck authority — an NTP-style freshness
    /// service that stops answering — can occupy at most that lane
    /// while embedded-authority traffic keeps flowing.
    ///
    /// The classification is a conservative approximation over the
    /// effective goal formula plus the leaves of the proof that will
    /// be checked — supplied or stored (an auto-proved proof is not
    /// anticipated here; auto-proving only assembles held labels, and
    /// a label-backed leaf is satisfied before the guard ever falls
    /// back to an authority query). Goal and stored proof are
    /// *inspected in place* against the stores' published snapshots —
    /// no lock, no clone; this runs once per submission. Misclassification
    /// affects only which lane runs the batch, never the verdict.
    /// With no external authorities registered the whole check is one
    /// atomic load.
    fn classify_external(
        &self,
        subject: &Principal,
        opn: &OpName,
        object: &ResourceId,
        inline_proof: Option<&Proof>,
    ) -> bool {
        if !self.authorities.has_external() {
            return false;
        }
        let leaves_external = |p: &Proof| {
            p.leaves()
                .iter()
                .any(|leaf| self.authorities.mentions_external(leaf))
        };
        self.goals
            .inspect_effective(&Self::manager_of(object), object, opn, |goal| {
                self.authorities.mentions_external(goal)
            })
            || match inline_proof {
                Some(p) => leaves_external(p),
                None => self
                    .proofs
                    .inspect(subject, opn, object, leaves_external)
                    .unwrap_or(false),
            }
    }

    /// Evaluate one request on the caller's thread: the n=1 call of
    /// [`Nexus::evaluate_authz`].
    fn evaluate_inline(
        &self,
        pid: u64,
        opn: &OpName,
        object: &ResourceId,
        proof: Option<&Proof>,
    ) -> AuthzOutcome {
        let req = EvalRequest {
            pid,
            proof,
            submitted_at: None,
        };
        self.evaluate_authz(opn, object, &[req], AuditPath::Inline)
            .pop()
            .expect("one outcome per request")
    }

    /// The guard between a request and a verdict (Figure 1) — the one
    /// evaluator behind both the caller-thread path (a slice of one,
    /// `AuditPath::Inline`) and the pipeline's coalesced batches
    /// (`AuditPath::Pipeline`). All of `reqs` target (`opn`, `object`)
    /// and therefore share its goal: the goal is fetched once,
    /// requests without a proof are auto-proved through one shared
    /// prover session, and `Guard::check_batch` amortizes a ground
    /// goal's normalization across the slice.
    ///
    /// No-stale-allow is enforced here and only here. The read stamp
    /// is captured *before* any store read and re-validated before any
    /// verdict leaves: if a `setgoal`/`set_proof`/label removal raced
    /// the guard (completed, or bumped-but-unpublished when we
    /// stamped) the decisions may rest on dead state and the whole
    /// slice is re-evaluated. Cache fills re-run the validation inside
    /// the subregion writer lock (`insert_if`). The retry bound only
    /// rules out livelock under pathological epoch churn; exhausting
    /// it *faults* every request rather than guessing a verdict.
    fn evaluate_authz(
        &self,
        opn: &OpName,
        object: &ResourceId,
        reqs: &[EvalRequest<'_>],
        path: AuditPath,
    ) -> Vec<AuthzOutcome> {
        const MAX_STAMP_RETRIES: usize = 32;
        let cfg = self.config();
        let t0 = self.telemetry.enabled().then(Instant::now);
        for _ in 0..=MAX_STAMP_RETRIES {
            let stamp = self.read_stamp();
            let goal = self
                .goals
                .effective_goal(&Self::manager_of(object), object, opn);
            let mut prepared: Vec<Result<PreparedRequest, KernelError>> = reqs
                .iter()
                .map(|r| self.prepare_request(r.pid, opn, object, &goal, r.proof, &cfg))
                .collect();
            let prove_start = t0.map(|_| Instant::now());
            self.auto_prove_prepared(&mut prepared);
            let prove_end = t0.map(|_| Instant::now());
            let access: Vec<AccessRequest<'_>> = prepared
                .iter()
                .flatten()
                .map(|p| AccessRequest {
                    subject: &p.subject,
                    operation: opn,
                    object,
                    proof: p.proof.as_ref(),
                    labels: &p.labels,
                })
                .collect();
            self.guard_upcalls
                .fetch_add(access.len() as u64, Ordering::Relaxed);
            let decisions = self.guard.check_batch(&access, &goal, &self.authorities);
            if !self.stamp_still_valid(&stamp) {
                continue;
            }
            let verify_end = t0.map(|_| Instant::now());
            let mut decisions = decisions.into_iter();
            let outcomes: Vec<AuthzOutcome> = prepared
                .iter()
                .map(|p| match p {
                    Ok(p) => {
                        let decision = decisions.next().expect("one decision per prepared");
                        // Auto-proved denies are never cached: a later
                        // `say` could make them allowed, with no
                        // invalidation hook for label additions.
                        let cacheable =
                            decision.cacheable && (p.auto_goal.is_none() || decision.allow);
                        if cfg.decision_cache && cacheable {
                            let key = CacheKey {
                                subject: p.subject.clone(),
                                operation: opn.clone(),
                                object: object.clone(),
                            };
                            self.dcache
                                .insert_if(key, decision.allow, || self.stamp_still_valid(&stamp));
                        }
                        outcome_of(decision.allow)
                    }
                    Err(e) => AuthzOutcome::Fault(e.to_string()),
                })
                .collect();
            // Evaluations are µs-scale and always journaled; the spans
            // go into the stage histograms so caller-thread and
            // pipeline traffic share one set of distributions. Only
            // this final (stamp-valid) attempt is recorded: a retried
            // attempt's decisions never escape. The two paths differ
            // in one span each — a ticket waited in a queue (and the
            // pool times its completion itself), a caller-thread
            // evaluation completes here.
            if let (Some(t0), Some(ps), Some(pe), Some(ve)) =
                (t0, prove_start, prove_end, verify_end)
            {
                let prove_ns = span_ns(ps, pe);
                let verify_ns = span_ns(pe, ve);
                let complete_ns = (path == AuditPath::Inline).then(|| span_ns(t0, Instant::now()));
                let stages = &self.telemetry.stages;
                stages.record(Stage::Prove, prove_ns);
                stages.record(Stage::Verify, verify_ns);
                if let Some(ns) = complete_ns {
                    stages.record(Stage::Complete, ns);
                }
                let memo_hits = self.guard.prover_stats().memo_hits;
                for ((r, p), outcome) in reqs.iter().zip(&prepared).zip(&outcomes) {
                    let verdict = match outcome {
                        AuthzOutcome::Allow => AuditVerdict::Allow,
                        AuthzOutcome::Deny => AuditVerdict::Deny,
                        AuthzOutcome::Fault(_) => AuditVerdict::Fault,
                    };
                    let mut ev = audit_event(r.pid, opn.0.clone(), object.0.clone(), verdict, path);
                    ev.epochs = [stamp.epochs.0, stamp.epochs.1, stamp.epochs.2];
                    ev.memo_hits = memo_hits;
                    ev.stages.queue_wait_ns = r.submitted_at.map(|at| span_ns(at, t0));
                    ev.stages.prove_ns = Some(prove_ns);
                    ev.stages.verify_ns = Some(verify_ns);
                    ev.stages.complete_ns = complete_ns;
                    if verdict == AuditVerdict::Deny {
                        ev.refuted = p
                            .as_ref()
                            .ok()
                            .and_then(|p| p.refuted.as_ref())
                            .map(|f| f.to_string());
                    }
                    self.telemetry.audit.push(ev);
                }
            }
            return outcomes;
        }
        if t0.is_some() {
            for r in reqs {
                self.telemetry.audit.push(audit_event(
                    r.pid,
                    opn.0.clone(),
                    object.0.clone(),
                    AuditVerdict::Fault,
                    path,
                ));
            }
        }
        vec![AuthzOutcome::Fault("authorization could not reach a stable epoch".into()); reqs.len()]
    }

    /// Journal a sampled decision-cache hit. Only 1-in-2^shift
    /// authorizations reach here (see `ObsConfig::hit_sample_shift`),
    /// so the event allocation and epoch reads are off the common ns-
    /// scale path.
    fn audit_cache_hit(
        &self,
        pid: u64,
        opn: &OpName,
        object: &ResourceId,
        allow: bool,
        start: Instant,
    ) {
        let mut ev = audit_event(
            pid,
            opn.0.clone(),
            object.0.clone(),
            verdict_of(allow),
            AuditPath::CacheHit,
        );
        let (g, p, l) = self.epoch_snapshot();
        ev.epochs = [g, p, l];
        ev.memo_hits = self.guard.prover_stats().memo_hits;
        ev.stages.complete_ns = Some(span_ns(start, Instant::now()));
        self.telemetry.audit.push(ev);
    }

    /// Assemble everything request-specific the guard needs: the
    /// subject (off the lock-free hot index), its credentials, and the
    /// proof to check (supplied or stored). A request with neither is
    /// marked for auto-proving by instantiating `goal` for it — the
    /// search itself is deferred to [`Nexus::auto_prove_prepared`] so a
    /// slice's searches share one prover session.
    fn prepare_request(
        &self,
        pid: u64,
        opn: &OpName,
        object: &ResourceId,
        goal: &Formula,
        supplied: Option<&Proof>,
        cfg: &NexusConfig,
    ) -> Result<PreparedRequest, KernelError> {
        // A pid missing from the index (spawned through some path that
        // bypassed `spawn`) falls back to the locked table.
        let subject = match self
            .ipd_hot
            .read(|m, _| m.get(&pid).map(|h| h.principal.clone()))
        {
            Some(subject) => subject,
            None => self.principal(pid)?,
        };
        // The subject's credentials: its labelstore plus the request
        // itself, which arrived over the attested syscall channel and
        // is therefore an utterance the kernel can vouch for. The
        // credential set comes from the store's memoized snapshot, so
        // a wide set is assembled once per label mutation, not once
        // per request.
        let creds = self.ipds.read().get(pid)?.labelstore.formulas_snapshot().0;
        let mut labels = Vec::with_capacity(creds.len() + 2);
        labels.extend(creds.iter().cloned());
        labels.push(Formula::pred(&opn.0, vec![]).says(subject.clone()));
        labels.push(Formula::pred(&opn.0, vec![Term::sym(object.0.clone())]).says(subject.clone()));
        let proof = match supplied {
            Some(p) => Some(p.clone()),
            None => self.proofs.get(&subject, opn, object),
        };
        // Auto-proving makes the outcome depend on the subject's label
        // set. Cached allows on that path stay valid because labels
        // only ever *leave* a store via the revocation fence, which
        // bumps the removal epoch and clears the cache.
        let auto_goal = (proof.is_none() && cfg.auto_prove).then(|| {
            let probe = AccessRequest {
                subject: &subject,
                operation: opn,
                object,
                proof: None,
                labels: &labels,
            };
            Guard::instantiate_goal(goal, &probe)
        });
        Ok(PreparedRequest {
            subject,
            labels,
            proof,
            auto_goal,
            refuted: None,
        })
    }

    /// Construct proofs for every prepared request that arrived
    /// without one, routing the whole set through the guard's batch
    /// prover: one persistent `ProofSearch` session whose memo is
    /// shared by the slice (and by subsequent ones) and flushed
    /// whenever the label-removal epoch moves — a memoized subgoal can
    /// never outlive the credential movement that falsified it. Goals
    /// were instantiated per request (`$subject` differs); ground goals
    /// instantiate to themselves and share one frontier group.
    fn auto_prove_prepared(&self, prepared: &mut [Result<PreparedRequest, KernelError>]) {
        let goals: Vec<BatchGoal<'_>> = prepared
            .iter()
            .flatten()
            .filter_map(|p| {
                p.auto_goal.as_ref().map(|goal| BatchGoal {
                    goal,
                    credentials: &p.labels,
                })
            })
            .collect();
        if goals.is_empty() {
            return;
        }
        let outcomes =
            self.guard
                .prove_batch_explained(self.prover_epoch(), &goals, ProverConfig::default());
        let needy = prepared
            .iter_mut()
            .flatten()
            .filter(|p| p.auto_goal.is_some());
        for (p, out) in needy.zip(outcomes) {
            p.proof = out.proof;
            p.refuted = out.refuted;
        }
    }

    /// The epoch the prover memo lives under: label *removals* are the
    /// only events that can falsify a memoized derivation (additions
    /// change the credential fingerprints the memo is keyed by), so
    /// this is exactly the decision cache's label-removal epoch.
    fn prover_epoch(&self) -> u64 {
        self.label_removal_epoch.load(Ordering::Relaxed)
    }

    /// The (goal, proof, label-removal) epoch triple the staleness
    /// fences compare.
    fn epoch_snapshot(&self) -> (u64, u64, u64) {
        (
            self.goals.epoch(),
            self.proofs.epoch(),
            self.label_removal_epoch.load(Ordering::Relaxed),
        )
    }

    /// Everything a lock-free evaluation must capture *before* its
    /// first store read in order to prove, afterwards, that nothing
    /// moved underneath it.
    fn read_stamp(&self) -> ReadStamp {
        ReadStamp {
            epochs: self.epoch_snapshot(),
            goal_v: self.goals.version(),
            proof_v: self.proofs.version(),
        }
    }

    /// The validate-after-read check. The epoch triple catches writers
    /// that completed since the stamp; the publication versions catch
    /// the in-flight case — a writer that bumped its epoch *before*
    /// the stamp was taken but had not yet published, so the stamped
    /// epochs look current while the data read afterwards was old.
    /// Versions are monotone and bumped strictly after their epoch, so
    /// that writer's publication always moves a version past the
    /// stamped value.
    fn stamp_still_valid(&self, stamp: &ReadStamp) -> bool {
        self.epoch_snapshot() == stamp.epochs
            && self.goals.version() == stamp.goal_v
            && self.proofs.version() == stamp.proof_v
    }

    // ---- the asynchronous pipeline (ISSUE 2) ----

    /// Start the asynchronous authorization pipeline: a [`GuardPool`]
    /// whose workers evaluate coalesced batches against this kernel.
    /// Idempotent — returns the running pool if already started. When
    /// `cfg` carries no prioritizer, batches are ordered by the
    /// requesting IPD's proportional-share weight (heavier tenants
    /// drain first once the queue backs up).
    ///
    /// Admission is bounded by `cfg.max_queued` + `cfg.overflow`: a
    /// submission past the high-water mark faults (the sync
    /// [`Nexus::authorize`] then evaluates inline — overload sheds to
    /// the caller's thread; [`Nexus::authorize_async`] surfaces the
    /// fault on the ticket) or blocks, per policy. Requests whose
    /// goal mentions an externally-backed authority run on the
    /// dedicated `cfg.external_workers` lane so a stuck authority
    /// cannot wedge the whole pool.
    pub fn start_authz_pipeline(self: &Arc<Self>, cfg: GuardPoolConfig) -> Arc<GuardPool> {
        let mut slot = self.authzd.write();
        if let Some(pool) = &*slot {
            return Arc::clone(pool);
        }
        let kernel = Arc::downgrade(self);
        let prioritizer = cfg.prioritizer.clone().or_else(|| {
            let weak: Weak<Nexus> = Arc::downgrade(self);
            Some(Arc::new(move |req: &AuthzRequest| {
                let Some(kernel) = weak.upgrade() else {
                    return 0;
                };
                // Cheap early-out for the common no-tenant case; the
                // IPD name is borrowed out of the lock-free hot index
                // (sched locks are leaf-scoped, so the weight lookup
                // inside the snapshot read is safe) — the submission
                // path takes no per-request lock here either.
                if kernel.sched.is_idle() {
                    return 0;
                }
                kernel.ipd_hot.read(|m, _| {
                    m.get(&req.pid)
                        .and_then(|h| kernel.sched.weight(&h.name))
                        .unwrap_or(0)
                })
            }) as nexus_authzd::pool::Prioritizer)
        });
        // Unless the caller supplied its own timers, the pool records
        // submit/queue-wait/assembly spans into the kernel's stage
        // histograms (the Arc is shared, not copied, so one snapshot
        // covers both sides; the enabled flag stays the single switch).
        let stage_timers = cfg
            .stage_timers
            .clone()
            .or_else(|| Some(Arc::clone(&self.telemetry.stages)));
        let pool = Arc::new(GuardPool::new(
            GuardPoolConfig {
                prioritizer,
                stage_timers,
                ..cfg
            },
            Arc::new(NexusExecutor { kernel }),
        ));
        *slot = Some(Arc::clone(&pool));
        pool
    }

    /// Stop the pipeline (if running), faulting queued requests and
    /// joining the workers. Subsequent authorizations run inline.
    pub fn stop_authz_pipeline(&self) {
        let pool = self.authzd.write().take();
        if let Some(pool) = pool {
            pool.shutdown();
        }
    }

    /// The running pipeline, if any.
    fn authz_pool(&self) -> Option<Arc<GuardPool>> {
        self.authzd.read().clone()
    }

    /// Pipeline statistics, if the pipeline is running.
    pub fn authz_stats(&self) -> Option<PoolStats> {
        self.authz_pool().map(|p| p.stats())
    }

    /// The invalidation fence: wait until every authorization
    /// submitted to the pipeline before this point has completed —
    /// the pool's quiesce counters span both the embedded and the
    /// external worker lanes, so the fence covers in-flight external
    /// batches too. Called after `setgoal`/`transfer_label` bump
    /// their epochs, so that by the time the invalidating syscall
    /// returns, any batch evaluated under the old goal has
    /// re-validated its epochs (and re-evaluated if stale) — no stale
    /// allow can complete later.
    fn fence_in_flight_authz(&self) {
        if let Some(pool) = self.authz_pool() {
            pool.quiesce();
        }
    }

    /// Decision-cache statistics.
    pub fn decision_cache_stats(&self) -> nexus_core::decision_cache::DecisionCacheStats {
        self.dcache.stats()
    }

    /// Guard statistics.
    pub fn guard_stats(&self) -> nexus_core::GuardStats {
        self.guard.stats()
    }

    /// Batch-prover session statistics (the auto-prove path's memo).
    pub fn guard_prover_stats(&self) -> nexus_core::ProverStats {
        self.guard.prover_stats()
    }

    /// Number of subgoal entries currently held by the batch-prover
    /// memo (diagnostics; 0 after an epoch flush).
    pub fn guard_prover_memo_len(&self) -> usize {
        self.guard.prover_memo_len()
    }

    /// Number of guard upcalls (decision-cache misses that reached the
    /// guard).
    pub fn guard_upcalls(&self) -> u64 {
        self.guard_upcalls.load(Ordering::Relaxed)
    }

    // ---- telemetry (ISSUE 7) ----

    /// One unified snapshot of every stats surface in the stack —
    /// decision cache, guard, batch prover, interposition, pipeline
    /// (when running), audit journal, and the per-stage latency
    /// histograms — frozen into a [`TelemetrySnapshot`] renderable as
    /// Prometheus text or JSON. Collection polls the live atomics
    /// once; it never locks a hot path.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut r = MetricsRegistry::new();
        r.gauge(
            "nexus_telemetry_enabled",
            "1 when stage timers and the audit journal are recording",
            i64::from(self.telemetry.enabled()),
        );
        let d = self.dcache.stats();
        r.counter("nexus_dcache_hits_total", "decision-cache hits", d.hits)
            .counter(
                "nexus_dcache_misses_total",
                "decision-cache misses",
                d.misses,
            )
            .counter(
                "nexus_dcache_invalidations_total",
                "decision-cache epoch invalidations",
                d.invalidations,
            )
            .counter(
                "nexus_dcache_collisions_total",
                "decision-cache set-conflict evictions",
                d.collisions,
            )
            .counter(
                "nexus_dcache_read_retries_total",
                "seqlock read retries (torn reads)",
                d.read_retries,
            )
            .counter(
                "nexus_dcache_read_fallbacks_total",
                "seqlock reads that fell back to the table lock",
                d.read_fallbacks,
            );
        let g = self.guard.stats();
        r.counter("nexus_guard_checks_total", "guard proof checks", g.checks)
            .counter(
                "nexus_guard_cache_hits_total",
                "guard proof-cache hits",
                g.cache_hits,
            )
            .counter(
                "nexus_guard_cache_misses_total",
                "guard proof-cache misses",
                g.cache_misses,
            )
            .counter(
                "nexus_guard_authority_queries_total",
                "authority predicate queries",
                g.authority_queries,
            )
            .counter(
                "nexus_guard_evictions_total",
                "guard proof-cache evictions",
                g.evictions,
            )
            .counter(
                "nexus_guard_batched_total",
                "requests checked through check_batch",
                g.batched,
            )
            .counter(
                "nexus_guard_upcalls_total",
                "decision-cache misses that reached the guard",
                self.guard_upcalls(),
            );
        let p = self.guard.prover_stats();
        r.counter(
            "nexus_prover_memo_hits_total",
            "prover memo hits",
            p.memo_hits,
        )
        .counter(
            "nexus_prover_memo_misses_total",
            "prover memo misses",
            p.memo_misses,
        )
        .counter(
            "nexus_prover_batch_groups_total",
            "distinct frontier groups across batches",
            p.batch_groups,
        )
        .counter(
            "nexus_prover_batch_shared_total",
            "goals that shared an earlier goal's frontier",
            p.batch_shared,
        )
        .counter(
            "nexus_prover_flushes_total",
            "memo flushes (label-removal epoch moved)",
            p.flushes,
        )
        .counter(
            "nexus_prover_proved_total",
            "auto-prove successes",
            p.proved,
        )
        .counter("nexus_prover_failed_total", "auto-prove failures", p.failed);
        let i = self.redirector.stats();
        r.counter(
            "nexus_interpose_invocations_total",
            "redirector monitor invocations",
            i.invocations,
        )
        .counter(
            "nexus_interpose_hits_total",
            "redirector verdict-cache hits",
            i.hits,
        );
        if let Some(s) = self.authz_stats() {
            r.counter(
                "nexus_authz_submitted_total",
                "pipeline submissions",
                s.submitted,
            )
            .counter(
                "nexus_authz_completed_total",
                "pipeline completions",
                s.completed,
            )
            .counter("nexus_authz_batches_total", "pipeline batches", s.batches)
            .counter(
                "nexus_authz_coalesced_total",
                "requests coalesced into an existing batch",
                s.coalesced,
            )
            .counter(
                "nexus_authz_rejected_total",
                "submissions shed at the high-water mark",
                s.rejected,
            )
            .counter(
                "nexus_authz_external_batches_total",
                "batches run on the external lane",
                s.external_batches,
            )
            .counter(
                "nexus_authz_callback_panics_total",
                "ticket callbacks that panicked",
                s.callback_panics,
            )
            .counter(
                "nexus_authz_executor_panics_total",
                "batches whose executor panicked",
                s.executor_panics,
            )
            .gauge(
                "nexus_authz_max_batch_seen",
                "largest batch observed",
                i64::try_from(s.max_batch_seen).unwrap_or(i64::MAX),
            )
            .gauge(
                "nexus_authz_embedded_depth",
                "embedded-lane backlog (queued requests)",
                i64::try_from(s.embedded_depth).unwrap_or(i64::MAX),
            )
            .gauge(
                "nexus_authz_external_depth",
                "external-lane backlog (queued requests)",
                i64::try_from(s.external_depth).unwrap_or(i64::MAX),
            );
        }
        r.counter(
            "nexus_audit_recorded_total",
            "audit events recorded (slot claims)",
            self.telemetry.audit.recorded(),
        )
        .counter(
            "nexus_audit_dropped_total",
            "audit events dropped in slot races",
            self.telemetry.audit.dropped(),
        );
        let a = self.attest_stats();
        r.counter(
            "nexus_attest_analyses_total",
            "analyzer runs (analysis-cache misses)",
            a.analyses_run,
        )
        .counter(
            "nexus_attest_analysis_cache_hits_total",
            "attestation requests served from cached analysis results",
            a.analysis_cache_hits,
        )
        .counter(
            "nexus_attest_minted_total",
            "analyzer credentials minted",
            a.credentials_minted,
        )
        .counter(
            "nexus_attest_refused_total",
            "analyzer credentials refused",
            a.credentials_refused,
        )
        .counter(
            "nexus_attest_revoked_total",
            "analyzer credentials revoked (binary changed)",
            a.credentials_revoked,
        );
        let ds = self.dist_stats();
        r.counter(
            "nexus_dist_remote_mints_total",
            "labels minted from delivered broadcast ops",
            ds.remote_mints,
        )
        .counter(
            "nexus_dist_remote_revocations_total",
            "labels revoked (and fenced) from delivered broadcast ops",
            ds.remote_revocations,
        );
        for stage in Stage::ALL {
            r.histogram(
                &format!("nexus_authz_stage_{}_ns", stage.name()),
                &format!("authorize-path {} stage latency (ns)", stage.name()),
                self.telemetry.stages.snapshot(stage),
            );
        }
        r.finish()
    }

    /// The most recent `n` decision audit events, newest first (see
    /// [`AuditEvent`]). Cache hits are sampled
    /// (`ObsConfig::hit_sample_shift`); misses, denials, and faults
    /// are always journaled while telemetry is enabled, and denials
    /// carry the subgoal the prover refuted.
    pub fn audit_recent(&self, n: usize) -> Vec<AuditEvent> {
        self.telemetry.audit.recent(n)
    }

    // ---- system calls ----

    fn require_allowed(&self, pid: u64, name: &'static str) -> Result<(), KernelError> {
        if self.ipds.read().get(pid)?.relinquished.contains(name) {
            return Err(KernelError::SyscallRevoked(name));
        }
        Ok(())
    }

    /// Dispatch a system call for `pid`, running the redirector chain
    /// when syscall interposition is enabled.
    pub fn syscall(&self, pid: u64, call: Syscall) -> Result<SysRet, KernelError> {
        self.require_allowed(pid, call.name())?;
        let cfg = self.config();
        if cfg.interpose_syscalls {
            let mut ipc_call = IpcCall {
                subject: pid,
                operation: call.name().to_string(),
                object: String::new(),
                args: Vec::new(),
            };
            if let ChainOutcome::Blocked { monitor } =
                self.redirector.dispatch(SYSCALL_CHANNEL, &mut ipc_call)?
            {
                return Err(KernelError::Blocked { monitor });
            }
        }
        match call {
            Syscall::Null => Ok(SysRet::Unit),
            Syscall::GetPpid => Ok(SysRet::Int(self.ipds.read().ppid(pid)?)),
            Syscall::GetTimeOfDay => {
                Ok(SysRet::Int(self.clock.fetch_add(1, Ordering::Relaxed) + 1))
            }
            Syscall::Yield => {
                self.sched.next();
                Ok(SysRet::Unit)
            }
            Syscall::Open(path) => {
                let object = ResourceId::file(&path);
                if cfg.authorize_fs && !self.authorize(pid, "open", &object)? {
                    return Err(KernelError::AccessDenied {
                        reason: format!("open {path}"),
                    });
                }
                self.fs_server_hop(pid, b"open")?;
                Ok(SysRet::Int(self.fs.lock().open(&path)?))
            }
            Syscall::Close(fd) => {
                self.fs_server_hop(pid, b"close")?;
                self.fs.lock().close(fd)?;
                Ok(SysRet::Unit)
            }
            Syscall::Read(fd, n) => {
                let path = self.fs.lock().path_of(fd)?.to_string();
                let object = ResourceId::file(&path);
                if cfg.authorize_fs && !self.authorize(pid, "read", &object)? {
                    return Err(KernelError::AccessDenied {
                        reason: format!("read {path}"),
                    });
                }
                self.fs_server_hop(pid, b"read")?;
                Ok(SysRet::Data(self.fs.lock().read(fd, n)?))
            }
            Syscall::Write(fd, data) => {
                let path = self.fs.lock().path_of(fd)?.to_string();
                let object = ResourceId::file(&path);
                if cfg.authorize_fs && !self.authorize(pid, "write", &object)? {
                    return Err(KernelError::AccessDenied {
                        reason: format!("write {path}"),
                    });
                }
                self.fs_server_hop(pid, b"write")?;
                Ok(SysRet::Int(self.fs.lock().write(fd, &data)? as u64))
            }
        }
    }

    /// Model the client-server microkernel round trip to the
    /// user-level file server: request and reply each cross an IPC
    /// port (the cost that makes Table 1's file rows 2–3× Linux).
    /// The IPC lock is held across the hop so concurrent hops pair
    /// their own requests with their own replies.
    fn fs_server_hop(&self, pid: u64, op: &[u8]) -> Result<(), KernelError> {
        let mut ipc = self.ipc.lock();
        ipc.send(pid, self.fs_port, op.to_vec())?;
        let _ = ipc.recv(self.fs_port)?;
        ipc.send(0, self.fs_reply_port, b"ok".to_vec())?;
        let _ = ipc.recv(self.fs_reply_port)?;
        Ok(())
    }

    // ---- filesystem management ----

    /// Create a file: the file server executes it and deposits the
    /// ownership label in the creator's labelstore (§2.6).
    pub fn fs_create(&self, pid: u64, path: &str) -> Result<(), KernelError> {
        self.fs.lock().create(path, pid)?;
        let object = ResourceId::file(path);
        self.grant_ownership(pid, &object)?;
        Ok(())
    }

    /// Direct whole-file read (used by services; still authorized).
    pub fn fs_read_all(&self, pid: u64, path: &str) -> Result<Vec<u8>, KernelError> {
        let object = ResourceId::file(path);
        if self.config().authorize_fs && !self.authorize(pid, "read", &object)? {
            return Err(KernelError::AccessDenied {
                reason: format!("read {path}"),
            });
        }
        self.fs.lock().read_all(path)
    }

    /// Direct whole-file write (authorized).
    pub fn fs_write_all(&self, pid: u64, path: &str, data: &[u8]) -> Result<(), KernelError> {
        let object = ResourceId::file(path);
        if self.config().authorize_fs && !self.authorize(pid, "write", &object)? {
            return Err(KernelError::AccessDenied {
                reason: format!("write {path}"),
            });
        }
        self.fs.lock().write_all(path, data)
    }

    /// Raw filesystem access for resource managers (bypasses goals —
    /// kernel-internal use only).
    pub fn fs_raw(&self) -> MutexGuard<'_, RamFs> {
        self.fs.lock()
    }

    // ---- IPC ----

    /// Create a port for `pid`; the kernel's binding label lands in
    /// the owner's labelstore.
    pub fn create_port(&self, pid: u64) -> Result<u64, KernelError> {
        let (id, label) = self.ipc.lock().create_port(pid);
        if let Formula::Says(speaker, stmt) = label {
            self.kernel_label(pid, speaker, *stmt)?;
        }
        Ok(id)
    }

    /// Send on a port, traversing any interposed monitors.
    pub fn ipc_send(&self, pid: u64, port: u64, msg: Vec<u8>) -> Result<(), KernelError> {
        let mut call = IpcCall {
            subject: pid,
            operation: "send".into(),
            object: format!("ipc:{port}"),
            args: msg,
        };
        if let ChainOutcome::Blocked { monitor } = self.redirector.dispatch(port, &mut call)? {
            return Err(KernelError::Blocked { monitor });
        }
        self.ipc.lock().send(pid, port, call.args)
    }

    /// Receive on an owned port.
    pub fn ipc_recv(&self, pid: u64, port: u64) -> Result<(u64, Vec<u8>), KernelError> {
        let mut ipc = self.ipc.lock();
        if ipc.owner_of(port)? != pid {
            return Err(KernelError::AccessDenied {
                reason: format!("pid {pid} does not own port {port}"),
            });
        }
        ipc.recv(port)
    }

    /// The `interpose` system call: install a reference monitor on a
    /// channel. Interposition is subject to consent — authorized
    /// against the channel's `interpose` goal (default: port owner).
    pub fn interpose(
        &self,
        pid: u64,
        port: u64,
        interceptor: Box<dyn Interceptor>,
        level: MonitorLevel,
    ) -> Result<(), KernelError> {
        let object = ResourceId::ipc(port);
        // The port owner holds the ownership label from create_port;
        // others must satisfy an explicit goal. The syscall channel is
        // a kernel-owned virtual port.
        let owner = if port == SYSCALL_CHANNEL {
            0
        } else {
            self.ipc.lock().owner_of(port)?
        };
        let authorized = if owner == pid || pid == 0 {
            true
        } else {
            self.authorize(pid, "interpose", &object)?
        };
        if !authorized {
            return Err(KernelError::AccessDenied {
                reason: format!("interpose on port {port}"),
            });
        }
        self.redirector.install(port, interceptor, level);
        Ok(())
    }

    // ---- introspection (§3.1) ----

    /// Publish an application key=value binding under
    /// `/proc/app/<pid>/<key>`.
    pub fn publish(&self, pid: u64, key: &str, value: &str) -> Result<(), KernelError> {
        self.ipds
            .write()
            .get_mut(pid)?
            .published
            .insert(key.to_string(), value.to_string());
        Ok(())
    }

    /// Read an introspection node: a live, greybox view of kernel
    /// state. Paths mirror the paper's /proc conventions.
    pub fn introspect_read(&self, path: &str) -> Result<String, KernelError> {
        let parts: Vec<&str> = path.trim_start_matches('/').split('/').collect();
        match parts.as_slice() {
            ["proc", "ipds"] => Ok(self
                .ipds
                .read()
                .pids()
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(",")),
            ["proc", "ipd", pid, field] => {
                let pid: u64 = pid
                    .parse()
                    .map_err(|_| KernelError::NoSuchNode(path.into()))?;
                let ipds = self.ipds.read();
                let ipd = ipds.get(pid)?;
                match *field {
                    "name" => Ok(format!("name={}", ipd.name)),
                    "parent" => Ok(format!("parent={}", ipd.parent)),
                    "hash" => Ok(format!("hash={}", ipd.launch_hash.to_hex())),
                    _ => Err(KernelError::NoSuchNode(path.into())),
                }
            }
            ["proc", "ipc", "edges"] => Ok(self
                .ipc
                .lock()
                .edges()
                .iter()
                .map(|(a, b)| format!("{a}->{b}"))
                .collect::<Vec<_>>()
                .join(",")),
            ["proc", "ipc", port, "owner"] => {
                let port: u64 = port
                    .parse()
                    .map_err(|_| KernelError::NoSuchNode(path.into()))?;
                Ok(format!("owner={}", self.ipc.lock().owner_of(port)?))
            }
            ["proc", "sched", client, field] => {
                let sched = &self.sched;
                match *field {
                    "weight" => sched
                        .weight(client)
                        .map(|w| format!("weight={w}"))
                        .ok_or_else(|| KernelError::NoSuchNode(path.into())),
                    "usage" => sched
                        .usage(client)
                        .map(|u| format!("usage={u}"))
                        .ok_or_else(|| KernelError::NoSuchNode(path.into())),
                    "share" => sched
                        .share(client)
                        .map(|s| format!("share={s:.4}"))
                        .ok_or_else(|| KernelError::NoSuchNode(path.into())),
                    _ => Err(KernelError::NoSuchNode(path.into())),
                }
            }
            ["proc", "app", pid, key] => {
                let pid: u64 = pid
                    .parse()
                    .map_err(|_| KernelError::NoSuchNode(path.into()))?;
                self.ipds
                    .read()
                    .get(pid)?
                    .published
                    .get(*key)
                    .map(|v| format!("{key}={v}"))
                    .ok_or_else(|| KernelError::NoSuchNode(path.into()))
            }
            _ => Err(KernelError::NoSuchNode(path.into())),
        }
    }

    /// Goal-guarded introspection read: sensitive nodes carry goal
    /// formulas like any other resource.
    pub fn introspect_read_authorized(&self, pid: u64, path: &str) -> Result<String, KernelError> {
        let object = ResourceId::new("proc", path);
        if self.goals.get(&object, &OpName::from("read")).is_some()
            && !self.authorize(pid, "read", &object)?
        {
            return Err(KernelError::AccessDenied {
                reason: format!("introspect {path}"),
            });
        }
        self.introspect_read(path)
    }

    /// The raw IPC connectivity graph (pid → pid edges) for labeling
    /// functions like the IPC analyzer.
    pub fn ipc_graph(&self) -> Vec<(u64, u64)> {
        self.ipc.lock().edges().to_vec()
    }

    /// Goal store epoch (diagnostics).
    pub fn goal_epoch(&self) -> u64 {
        self.goals.epoch()
    }

    /// Resize the kernel decision cache at runtime (§2.8) — used by
    /// the associativity ablation (Figure 4 hit-rate deltas). The
    /// fence afterwards drains evaluations that may still
    /// be filling the superseded table, so no decision computed before
    /// the resize lands unvalidated in the new one.
    pub fn resize_decision_cache(&self, cfg: DecisionCacheConfig) {
        self.dcache.resize(cfg);
        self.fence_in_flight_authz();
    }
}

/// Where [`Nexus::route_authz`] sent a request.
enum AuthzRoute {
    /// The decision cache answered.
    Cached(bool),
    /// Submitted to the running pipeline.
    Submitted(AuthzTicket),
    /// Caller evaluates on its own thread.
    Evaluate,
}

/// One request as [`Nexus::evaluate_authz`] sees it; the operation and
/// object are shared by the whole slice.
struct EvalRequest<'a> {
    pid: u64,
    /// An explicitly supplied proof (otherwise stored, else auto-proved).
    proof: Option<&'a Proof>,
    /// When a pipeline submitter stamped the request (telemetry only).
    submitted_at: Option<Instant>,
}

/// Everything request-specific the guard consumes, assembled once per
/// request per evaluation attempt.
struct PreparedRequest {
    subject: Principal,
    labels: Vec<Formula>,
    proof: Option<Proof>,
    /// The goal instantiated for this request, present exactly when it
    /// arrived without a supplied or stored proof and auto-proving is
    /// on — `proof` is then whatever the prover constructed.
    auto_goal: Option<Formula>,
    /// For auto-proved requests whose search failed: the deepest
    /// subgoal the prover refuted (the "why" behind a deny), carried
    /// into the audit journal.
    refuted: Option<Formula>,
}

/// The kernel-side telemetry bundle: stage-latency histograms (shared
/// by `Arc` with the pipeline so pool workers record into the same
/// buckets), the decision audit journal, and the cache-hit sampler.
/// All three are live regardless of `ObsConfig::enabled`; the stage
/// timers' enabled flag is the single master switch the hot paths
/// consult (one relaxed load when telemetry is off).
/// Live counters behind [`Nexus::attest_stats`] (the analyzer
/// credential path, ISSUE 8).
#[derive(Default)]
struct AttestCounters {
    analyses: AtomicU64,
    cache_hits: AtomicU64,
    minted: AtomicU64,
    refused: AtomicU64,
    revoked: AtomicU64,
}

/// Live counters behind [`Nexus::dist_stats`] (the replicated
/// credential path, ISSUE 9): label changes this kernel applied
/// because a remote broadcast op was delivered, not because a local
/// process invoked a system call.
#[derive(Default)]
struct DistCounters {
    remote_mints: AtomicU64,
    remote_revocations: AtomicU64,
}

/// A frozen copy of the replication-path counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistStats {
    /// Labels minted on delivery of a remote broadcast op.
    pub remote_mints: u64,
    /// Labels revoked (with the full fence) on delivery of a remote
    /// broadcast op.
    pub remote_revocations: u64,
}

/// A frozen copy of the attestation-path counters: analyzer runs,
/// analysis-cache reuse, and the mint/refuse/revoke tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttestStats {
    /// Analyses actually run (analysis-cache misses).
    pub analyses_run: u64,
    /// Attestation requests answered from a cached analysis result.
    pub analysis_cache_hits: u64,
    /// Credentials minted into labelstores.
    pub credentials_minted: u64,
    /// Credentials refused (analysis found a witness).
    pub credentials_refused: u64,
    /// Credentials revoked after re-analysis or binary change.
    pub credentials_revoked: u64,
}

struct KernelTelemetry {
    stages: Arc<StageTimers>,
    audit: AuditJournal,
    sampler: Sampler,
}

impl KernelTelemetry {
    fn new(obs: &ObsConfig) -> Self {
        KernelTelemetry {
            stages: Arc::new(StageTimers::new(obs.enabled)),
            audit: AuditJournal::new(obs.audit_capacity),
            sampler: Sampler::new(obs.hit_sample_shift),
        }
    }

    #[inline]
    fn enabled(&self) -> bool {
        self.stages.enabled()
    }
}

fn verdict_of(allow: bool) -> AuditVerdict {
    if allow {
        AuditVerdict::Allow
    } else {
        AuditVerdict::Deny
    }
}

/// Nanoseconds between two instants, saturating (monotonic clocks can
/// still compare non-monotonically across cores on some platforms).
fn span_ns(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// The per-process facts the submission path reads on every request,
/// published into the `ipd_hot` snapshot at spawn. The shape word is
/// the labelstore's own live atomic (shared by `Arc`), so `say`/
/// `transfer_label` update it in place with no republication.
#[derive(Clone)]
struct IpdHot {
    principal: Principal,
    name: String,
    shape: Arc<AtomicU64>,
}

/// What a lock-free evaluation captured before reading the stores;
/// see [`Nexus::stamp_still_valid`] for how each half is used.
struct ReadStamp {
    epochs: (u64, u64, u64),
    goal_v: u64,
    proof_v: u64,
}

fn outcome_of(allow: bool) -> AuthzOutcome {
    if allow {
        AuthzOutcome::Allow
    } else {
        AuthzOutcome::Deny
    }
}

/// The pipeline's view of the kernel: holds a weak reference so the
/// pool never keeps a torn-down kernel alive; batches arriving after
/// teardown fault instead of evaluating.
struct NexusExecutor {
    kernel: Weak<Nexus>,
}

impl BatchExecutor for NexusExecutor {
    fn execute_batch(&self, key: &BatchKey, reqs: &[AuthzRequest]) -> Vec<AuthzOutcome> {
        match self.kernel.upgrade() {
            Some(kernel) => {
                let reqs: Vec<EvalRequest<'_>> = reqs
                    .iter()
                    .map(|r| EvalRequest {
                        pid: r.pid,
                        proof: r.proof.as_ref(),
                        submitted_at: r.submitted_at,
                    })
                    .collect();
                kernel.evaluate_authz(&key.op, &key.object, &reqs, AuditPath::Pipeline)
            }
            None => vec![AuthzOutcome::Fault("kernel torn down".into()); reqs.len()],
        }
    }

    fn prover_memo_stats(&self) -> (u64, u64) {
        match self.kernel.upgrade() {
            Some(kernel) => {
                let s = kernel.guard.prover_stats();
                (s.memo_hits, s.memo_misses)
            }
            None => (0, 0),
        }
    }
}
