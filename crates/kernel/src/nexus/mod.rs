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
//! The authorization *read* path is lock-free and, on a cached allow,
//! allocation-free: the switches are one atomic word, the subject's
//! [`nexus_core::SubjectDigest`] and label-removal generation come off
//! the kernel's own published [`Snapshot`] index (`ipd_hot`) rather
//! than the IPD table's lock, a decision-cache hit is a seqlock probe
//! (atomic loads, no lock word) keyed by that digest at that
//! generation and the caller's borrowed operation and object, and the
//! goal/proof stores publish epoch-stamped snapshots readers never
//! block on. The remaining
//! subsystems sit behind their own locks. Lock discipline: locks are leaf-scoped —
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
//!
//! The struct, boot and configuration live in this file; the rest of
//! the `impl` is one file per seam (the crate docs list them).

mod authz;
mod goals;
mod introspect;
mod labels;
mod pipeline;
mod process;
mod syscalls;
mod telemetry;

pub use labels::{AttestStats, DistStats};

use crate::error::KernelError;
use crate::fs::RamFs;
use crate::interpose::Redirector;
use crate::ipc::IpcTable;
use crate::ipd::IpdTable;
use crate::sched::StrideScheduler;
use labels::{AttestCounters, DistCounters};
use nexus_authzd::GuardPool;
use nexus_core::{
    AuthorityRegistry, DecisionCache, DecisionCacheConfig, GoalStore, Guard, KernelSigner,
    ProofStore, Snapshot,
};
use nexus_obs::ObsConfig;
use nexus_storage::{RamDisk, SsrManager, StorageError, VdirTable, VkeyTable};
use nexus_tpm::Tpm;
use parking_lot::{Mutex, MutexGuard, RwLock};
use process::IpdHot;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use telemetry::KernelTelemetry;

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

/// Bit of each [`NexusConfig`] switch in `Nexus::switches`.
const INTERPOSE_SYSCALLS: u8 = 1;
const DECISION_CACHE: u8 = 1 << 1;
const AUTO_PROVE: u8 = 1 << 2;
const AUTHORIZE_FS: u8 = 1 << 3;
const OBS_ENABLED: u8 = 1 << 4;

impl NexusConfig {
    fn switches(&self) -> u8 {
        [
            (self.interpose_syscalls, INTERPOSE_SYSCALLS),
            (self.decision_cache, DECISION_CACHE),
            (self.auto_prove, AUTO_PROVE),
            (self.authorize_fs, AUTHORIZE_FS),
            (self.obs.enabled, OBS_ENABLED),
        ]
        .into_iter()
        .fold(0, |word, (on, bit)| if on { word | bit } else { word })
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
    /// path needs — principal, its decision-cache digest and
    /// label-removal generation, scheduler name, live label-shape word
    /// — so `route_authz` and the pipeline's prioritizer never take the
    /// `ipds` lock per request.
    /// Pids are dense and sequential from 1, so entry `pid - 1` is
    /// pid's; entries are shared by `Arc`, so a spawn's republication
    /// copies pointers. Both spawn paths publish here under the `ipds`
    /// write lock and nothing else can add a pid (or remove one: there
    /// is no kill), so the index is authoritative — a pid absent here
    /// does not exist.
    ipd_hot: Snapshot<Vec<Arc<IpdHot>>>,
    goals: GoalStore,
    proofs: ProofStore,
    dcache: DecisionCache,
    guard: Guard,
    authorities: AuthorityRegistry,
    fs: Mutex<RamFs>,
    /// The [`NexusConfig`] switches, one bit each: the hit path tests
    /// `decision_cache` with a single load. Relaxed throughout — a
    /// switch publishes no other data.
    switches: AtomicU8,
    /// The telemetry knobs, which apply at boot only.
    boot_obs: ObsConfig,
    clock: AtomicU64,
    /// Bumped whenever a label is *removed* from a labelstore
    /// (additions can only turn uncached denies into allows, but a
    /// removal can falsify an allow whose credential matching relied
    /// on the departed label). The third word of the read stamp: it
    /// fails the evaluations *in flight* across a removal, no more.
    /// Verdicts already cached are renamed out of reach by the loser's
    /// per-process generation (`IpdHot::removals`); the prover memo's
    /// derivations are guarded by the leaves they rest on.
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
            ipd_hot: Snapshot::new(Vec::new()),
            goals: GoalStore::new(),
            proofs: ProofStore::new(),
            dcache: DecisionCache::new(DecisionCacheConfig::default()),
            guard: Guard::new(),
            authorities: AuthorityRegistry::new(),
            fs: Mutex::new(RamFs::new()),
            switches: AtomicU8::new(cfg.switches()),
            boot_obs: cfg.obs,
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

    /// Current configuration (a copy): the switches as last set, the
    /// telemetry knobs as booted.
    pub fn config(&self) -> NexusConfig {
        let word = self.switches.load(Ordering::Relaxed);
        let on = |bit: u8| word & bit != 0;
        NexusConfig {
            interpose_syscalls: on(INTERPOSE_SYSCALLS),
            decision_cache: on(DECISION_CACHE),
            auto_prove: on(AUTO_PROVE),
            authorize_fs: on(AUTHORIZE_FS),
            obs: ObsConfig {
                enabled: on(OBS_ENABLED),
                ..self.boot_obs
            },
        }
    }

    /// Is the decision cache switched on? The one switch the hit path
    /// reads.
    fn decision_cache_on(&self) -> bool {
        self.switches.load(Ordering::Relaxed) & DECISION_CACHE != 0
    }

    /// Mutate configuration (benchmark harness). The telemetry master
    /// switch propagates immediately — the stage timers' flag is the
    /// single gate every recording site (kernel- and pool-side)
    /// checks.
    pub fn set_config(&self, cfg: NexusConfig) {
        self.telemetry.stages.set_enabled(cfg.obs.enabled);
        self.switches.store(cfg.switches(), Ordering::Relaxed);
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
}
