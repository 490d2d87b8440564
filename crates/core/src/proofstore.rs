//! Per-request proof storage.
//!
//! Clients install proofs ahead of time (`proof set` / `proof clr` in
//! Figure 6); the kernel fetches the stored proof for the
//! (subject, operation, object) tuple on each guarded invocation. The
//! kernel interposes on updates so it can invalidate the corresponding
//! decision-cache entry (§2.8).
//!
//! A proof is stored behind an `Arc` and fetched as that `Arc`: the
//! guard checks it through a borrow, so an installed proof is never
//! copied on its way to a verdict.

use crate::decision_cache::CacheKey;
use crate::resource::{OpName, ResourceId};
use crate::snapshot::Snapshot;
use nexus_nal::{Principal, Proof};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Proofs keyed by access-control tuple. Internally synchronized so
/// the kernel can install and fetch proofs through `&self` from many
/// threads. The table sits behind an epoch-stamped [`Snapshot`]
/// (values are `Arc`ed so re-publication is shallow): fetches on the
/// authorization path never block behind a `set_proof` in progress.
/// Writers bump the public epoch first, then mutate and publish, so
/// the kernel's validate-after-read check (epoch compare +
/// [`ProofStore::version`] compare) catches both completed and
/// in-flight proof changes.
#[derive(Debug, Default)]
pub struct ProofStore {
    proofs: Snapshot<HashMap<CacheKey, Arc<Proof>>>,
    /// Bumped on every update — consumed by the kernel to detect
    /// concurrent proof changes when filling the decision cache.
    epoch: AtomicU64,
}

impl ProofStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install (or replace) the proof for a tuple.
    pub fn set_proof(
        &self,
        subject: Principal,
        operation: OpName,
        object: ResourceId,
        proof: Proof,
    ) {
        let key = CacheKey {
            subject,
            operation,
            object,
        };
        self.proofs.update(|proofs| {
            // Epoch first, inside the writer lock (see struct docs).
            self.epoch.fetch_add(1, Ordering::Relaxed);
            proofs.insert(key, Arc::new(proof));
        });
    }

    /// Remove the proof for a tuple; `true` if one was stored.
    pub fn clear_proof(
        &self,
        subject: &Principal,
        operation: &OpName,
        object: &ResourceId,
    ) -> bool {
        let key = CacheKey {
            subject: subject.clone(),
            operation: operation.clone(),
            object: object.clone(),
        };
        self.proofs.update(|proofs| {
            let removed = proofs.remove(&key).is_some();
            if removed {
                self.epoch.fetch_add(1, Ordering::Relaxed);
            }
            removed
        })
    }

    /// Update epoch (monotonic; bumped on every set/clear).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Snapshot publication version (monotone; moves on every
    /// publish). Compared alongside [`ProofStore::epoch`] by the
    /// kernel's read-stamp validation: the version catches a writer
    /// that bumped the epoch but had not yet published when the
    /// reader sampled the table.
    pub fn version(&self) -> u64 {
        self.proofs.version()
    }

    /// Fetch the stored proof — a reference count, not a copy; no
    /// store lock is held while the guard checks it.
    pub fn get(
        &self,
        subject: &Principal,
        operation: &OpName,
        object: &ResourceId,
    ) -> Option<Arc<Proof>> {
        let key = CacheKey {
            subject: subject.clone(),
            operation: operation.clone(),
            object: object.clone(),
        };
        self.proofs
            .read(|proofs, _| proofs.get(&key).map(Arc::clone))
    }

    /// Apply `f` to the stored proof for a tuple *without cloning it
    /// out* — and without taking any lock: `f` borrows the proof
    /// straight out of the current snapshot. `None` when no proof is
    /// stored. Used by the pipeline's external-authority
    /// classification, which only needs to scan the proof's leaves.
    pub fn inspect<R>(
        &self,
        subject: &Principal,
        operation: &OpName,
        object: &ResourceId,
        f: impl FnOnce(&Proof) -> R,
    ) -> Option<R> {
        let key = CacheKey {
            subject: subject.clone(),
            operation: operation.clone(),
            object: object.clone(),
        };
        self.proofs.read(|proofs, _| proofs.get(&key).map(|p| f(p)))
    }

    /// Number of stored proofs.
    pub fn len(&self) -> usize {
        self.proofs.read(|proofs, _| proofs.len())
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_nal::{parse, Proof};

    #[test]
    fn set_get_clear() {
        let ps = ProofStore::new();
        let subject = Principal::name("alice");
        let op = OpName::from("read");
        let obj = ResourceId::file("/x");
        let proof = Proof::assume(parse("A says p").unwrap());
        ps.set_proof(subject.clone(), op.clone(), obj.clone(), proof.clone());
        assert_eq!(ps.get(&subject, &op, &obj).as_deref(), Some(&proof));
        assert!(ps.clear_proof(&subject, &op, &obj));
        assert!(ps.get(&subject, &op, &obj).is_none());
        assert!(!ps.clear_proof(&subject, &op, &obj));
    }

    #[test]
    fn proofs_are_per_tuple() {
        let ps = ProofStore::new();
        let a = Principal::name("a");
        let b = Principal::name("b");
        let op = OpName::from("read");
        let obj = ResourceId::file("/x");
        let pa = Proof::assume(parse("A says p").unwrap());
        let pb = Proof::assume(parse("B says q").unwrap());
        ps.set_proof(a.clone(), op.clone(), obj.clone(), pa.clone());
        ps.set_proof(b.clone(), op.clone(), obj.clone(), pb.clone());
        assert_eq!(ps.get(&a, &op, &obj).as_deref(), Some(&pa));
        assert_eq!(ps.get(&b, &op, &obj).as_deref(), Some(&pb));
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn seqlock_proof_reads_race_installs_without_blocking_or_tearing() {
        // Readers race a writer that keeps replacing the stored proof
        // between two well-formed values; a read must return one of
        // them (or None before the first install) — never a mix — and
        // any observed install implies the epoch already moved.
        let ps = std::sync::Arc::new(ProofStore::new());
        let subject = Principal::name("alice");
        let op = OpName::from("read");
        let obj = ResourceId::file("/x");
        let pa = Proof::assume(parse("A says p").unwrap());
        let pb = Proof::assume(parse("B says q").unwrap());
        let writer = {
            let ps = std::sync::Arc::clone(&ps);
            let (subject, op, obj) = (subject.clone(), op.clone(), obj.clone());
            let (pa, pb) = (pa.clone(), pb.clone());
            std::thread::spawn(move || {
                for i in 0..2_000 {
                    let p = if i % 2 == 0 { pa.clone() } else { pb.clone() };
                    ps.set_proof(subject.clone(), op.clone(), obj.clone(), p);
                }
            })
        };
        for _ in 0..10_000 {
            if let Some(got) = ps.get(&subject, &op, &obj) {
                assert!(*got == pa || *got == pb, "torn proof read: {got:?}");
                assert!(ps.epoch() >= 1);
            }
        }
        writer.join().unwrap();
    }
}
