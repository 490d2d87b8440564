//! Processes (IPDs) and the lock-free hot index over them.

use super::Nexus;
use crate::error::KernelError;
use crate::ipd::IpdTable;
use nexus_core::SubjectDigest;
use nexus_nal::Principal;
use parking_lot::RwLockReadGuard;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The per-process facts the submission path reads on every request,
/// published into the `ipd_hot` snapshot at spawn. The shape word is
/// the labelstore's own live atomic (shared by `Arc`), so `say`/
/// `transfer_label` update it in place with no republication.
pub(super) struct IpdHot {
    /// `principal` as the decision cache digests it, and how many
    /// labels have left this process's store: together, the name the
    /// cache knows the subject by ([`IpdHot::subject`]) and all a
    /// cached allow reads of it. Inline and adjacent, so a hit touches
    /// this allocation and no other.
    digest: SubjectDigest,
    /// The label-removal generation. Bumped by `Nexus::withdraw` and
    /// nothing else, under the `ipds` write lock its delete took.
    pub(super) removals: AtomicU64,
    pub(super) principal: Principal,
    pub(super) name: String,
    pub(super) shape: Arc<AtomicU64>,
}

impl IpdHot {
    /// The subject's current name in the decision cache. Whoever files
    /// a verdict under it must call this *before* reading the labels
    /// the verdict is computed from (`Acquire`, pairing with the bump):
    /// an old name with either label set is a name nobody probes any
    /// more, and the new name implies the delete is visible.
    pub(super) fn subject(&self) -> SubjectDigest {
        self.digest.at(self.removals.load(Ordering::Acquire))
    }
}

impl Nexus {
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

    /// Publish a just-spawned pid's entry in the lock-free hot index.
    /// Called with the `ipds` write lock held, so pids arrive in
    /// order; the snapshot's writer mutex is leaf-scoped, so the
    /// nesting is one-way.
    fn publish_ipd_hot(&self, ipds: &IpdTable, pid: u64) {
        if let Ok(ipd) = ipds.get(pid) {
            let principal = ipd.principal();
            let hot = Arc::new(IpdHot {
                digest: self.dcache.digest(&principal),
                removals: AtomicU64::new(0),
                principal,
                name: ipd.name.clone(),
                shape: ipd.labelstore.shape_handle(),
            });
            self.ipd_hot.update(|index| {
                // A gap would attribute requests to the wrong subject.
                assert_eq!(index.len() as u64 + 1, pid, "pids are dense");
                index.push(hot);
            });
        }
    }

    /// Read `pid`'s entry in the hot index: no lock, no allocation.
    pub(super) fn with_hot<R>(
        &self,
        pid: u64,
        f: impl FnOnce(&IpdHot) -> R,
    ) -> Result<R, KernelError> {
        self.ipd_hot
            .read(|index, _| {
                let i = usize::try_from(pid.checked_sub(1)?).ok()?;
                index.get(i).map(|hot| f(hot))
            })
            .ok_or(KernelError::NoSuchIpd(pid))
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
}
