//! Labels and labelstores (§2.2–2.3).
//!
//! A label is an attributed statement `P says S` created by invoking
//! the `say` system call. Because `say` traps into the kernel over a
//! secure channel, the kernel can attribute the statement to the
//! calling process *without any cryptography* — this is the heart of
//! the paper's "cryptography avoidance" (Figure 6's three orders of
//! magnitude). The labelstore holds labels; they can be transferred
//! between stores, externalized into signed certificates, imported
//! back, and deleted.

use crate::credential::Certificate;
use crate::error::CoreError;
use crate::signer::KernelSigner;
use nexus_nal::{normal_key, normalize, parse, CredSet, Formula, Principal};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Handle to a label within a labelstore (returned by `say`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LabelHandle(pub u64);

/// An attributed, unforgeable statement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Label {
    /// The speaker the kernel attributed the statement to.
    pub speaker: Principal,
    /// The statement made.
    pub statement: Formula,
}

impl Label {
    /// The label as a NAL formula: `speaker says statement`.
    pub fn formula(&self) -> Formula {
        self.statement.clone().says(self.speaker.clone())
    }
}

/// A kernel-maintained store of labels belonging to one principal
/// (typically one process).
#[derive(Debug, Default)]
pub struct LabelStore {
    labels: HashMap<u64, Label>,
    next: u64,
    /// Cached label shape (see [`LabelStore::shape`]): a commutative
    /// (wrapping-sum) combination of per-label hashes, updated in
    /// O(1) on every mutation so submission-time reads are one atomic
    /// load and `say` stays O(1) in store size. Behind an `Arc` so
    /// the kernel's hot-path index ([`LabelStore::shape_handle`]) can
    /// read the live shape without holding whatever lock owns the
    /// store itself.
    shape: Arc<AtomicU64>,
    /// Memoized credential set for [`LabelStore::formulas_snapshot`]:
    /// prepared (normalised, keyed, sorted) lazily after a mutation,
    /// shared by `Arc` so the evaluation path clones a pointer and
    /// prepares nothing.
    formulas_cache: Mutex<Option<Arc<CredSet>>>,
}

/// The per-label contribution to a store's shape: the key of the
/// normalized formula (the one the prepared set orders it by),
/// combined commutatively so insertion order never matters and delete
/// exactly cancels insert.
fn shape_of(label: &Label) -> u64 {
    normal_key(&normalize(&label.formula()))
}

impl LabelStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `say` system call: attribute `statement` (NAL concrete
    /// syntax) to `caller` and deposit the label. The kernel enforces
    /// that a process speaks only in its own name — or that of its
    /// subprincipals (a process may mint statements for objects it
    /// implements, just as the filesystem speaks for `FS./dir/file`).
    pub fn say(&mut self, caller: &Principal, statement: &str) -> Result<LabelHandle, CoreError> {
        let f = parse(statement)?;
        self.say_parsed(caller, caller.clone(), f)
    }

    /// `say` with an explicit speaker, still subject to the
    /// caller-speaks-for-speaker rule.
    pub fn say_as(
        &mut self,
        caller: &Principal,
        speaker: Principal,
        statement: &str,
    ) -> Result<LabelHandle, CoreError> {
        let f = parse(statement)?;
        self.say_parsed(caller, speaker, f)
    }

    /// `say` with a pre-parsed statement.
    pub fn say_parsed(
        &mut self,
        caller: &Principal,
        speaker: Principal,
        statement: Formula,
    ) -> Result<LabelHandle, CoreError> {
        if &speaker != caller && !caller.is_ancestor_of(&speaker) {
            return Err(CoreError::NotSpeaker {
                caller: caller.to_string(),
                speaker: speaker.to_string(),
            });
        }
        Ok(self.insert(Label { speaker, statement }))
    }

    /// Insert a label the kernel itself vouches for (e.g. the
    /// `Nexus says IPC.x speaksfor /proc/ipd/y` port-binding labels).
    /// Not reachable from user programs.
    pub fn insert(&mut self, label: Label) -> LabelHandle {
        let h = self.next;
        self.next += 1;
        self.shape.fetch_add(shape_of(&label), Ordering::Relaxed);
        self.labels.insert(h, label);
        self.invalidate_formulas();
        LabelHandle(h)
    }

    /// Drop the prepared credential set after a mutation.
    fn invalidate_formulas(&mut self) {
        *self.formulas_cache.lock() = None;
    }

    /// Read a label.
    pub fn get(&self, h: LabelHandle) -> Result<&Label, CoreError> {
        self.labels.get(&h.0).ok_or(CoreError::NoSuchLabel(h.0))
    }

    /// Delete a label.
    pub fn delete(&mut self, h: LabelHandle) -> Result<Label, CoreError> {
        let label = self
            .labels
            .remove(&h.0)
            .ok_or(CoreError::NoSuchLabel(h.0))?;
        self.shape.fetch_sub(shape_of(&label), Ordering::Relaxed);
        self.invalidate_formulas();
        Ok(label)
    }

    /// Externalize a label into a signed certificate chain
    /// ("TPM says kernel says labelstore says process says S", §2.4).
    /// This is the expensive path: asymmetric signing.
    pub fn externalize(
        &self,
        h: LabelHandle,
        signer: &KernelSigner,
    ) -> Result<Certificate, CoreError> {
        let label = self.get(h)?;
        Ok(signer.sign_label(label))
    }

    /// Import an externalized certificate: verify the chain back to
    /// the TPM's endorsement key and deposit the label spoken by the
    /// fully-qualified principal. The expensive path again:
    /// asymmetric verification.
    pub fn import(
        &mut self,
        cert: &Certificate,
        trusted_ek: &ed25519_dalek::VerifyingKey,
    ) -> Result<LabelHandle, CoreError> {
        let label = cert.verify(trusted_ek)?;
        Ok(self.insert(label))
    }

    /// All label formulas in the store — what gets handed to the guard
    /// as the credential set.
    pub fn formulas(&self) -> Vec<Formula> {
        self.formulas_snapshot().stated().cloned().collect()
    }

    /// The credential set as a shared, memoized snapshot, *prepared*
    /// for the prover and the guard: stated in handle order, with the
    /// normal forms keyed and sorted beside them ([`CredSet`]). The
    /// first call after a mutation prepares it; subsequent calls clone
    /// an `Arc`. The evaluation path takes every request's credentials
    /// from here, so a wide credential set is normalised per
    /// *mutation* rather than per request — and a mutation itself
    /// prepares nothing (`say` stays O(1) in store size).
    pub fn formulas_snapshot(&self) -> Arc<CredSet> {
        let mut cache = self.formulas_cache.lock();
        match &*cache {
            Some(arc) => Arc::clone(arc),
            None => {
                let mut v: Vec<(u64, Formula)> =
                    self.labels.iter().map(|(h, l)| (*h, l.formula())).collect();
                v.sort_by_key(|(h, _)| *h);
                let arc = Arc::new(CredSet::new(v.iter().map(|(_, f)| f)));
                *cache = Some(Arc::clone(&arc));
                arc
            }
        }
    }

    /// The store's *label shape*: an order-insensitive fingerprint of
    /// the held (normalized) formulas. Two processes holding the same
    /// credentials shape identically; the async pipeline coalesces on
    /// it so batches maximize prover frontier sharing. A hint only —
    /// collisions affect batching, never verdicts.
    pub fn shape(&self) -> u64 {
        self.shape.load(Ordering::Relaxed)
    }

    /// A shared handle onto the live shape word, for the kernel's
    /// submission-path index: the shape can then be read with one
    /// atomic load, without acquiring the lock that owns the store
    /// (the ISSUE-6 satellite bugfix — `LabelStore::shape()` used to
    /// be reached through `ipds.read()` on every submission).
    pub fn shape_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.shape)
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if no labels.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_nal::{parse, Creds};

    fn p(n: &str) -> Principal {
        Principal::name(n)
    }

    #[test]
    fn say_attributes_to_caller() {
        let mut store = LabelStore::new();
        let proc12 = p("/proc/ipd/12");
        let h = store.say(&proc12, "openFile(secret)").unwrap();
        let label = store.get(h).unwrap();
        assert_eq!(label.speaker, proc12);
        assert_eq!(
            label.formula(),
            parse("/proc/ipd/12 says openFile(secret)").unwrap()
        );
    }

    #[test]
    fn say_rejects_impersonation() {
        let mut store = LabelStore::new();
        let attacker = p("/proc/ipd/66");
        let victim = p("/proc/ipd/12");
        let err = store.say_as(&attacker, victim, "ok");
        assert!(matches!(err, Err(CoreError::NotSpeaker { .. })));
    }

    #[test]
    fn say_allows_subprincipal_speech() {
        // The filesystem may speak for files it implements.
        let mut store = LabelStore::new();
        let fs = p("FS");
        let file = fs.sub("/dir/file");
        let h = store.say_as(&fs, file.clone(), "created").unwrap();
        assert_eq!(store.get(h).unwrap().speaker, file);
    }

    #[test]
    fn delete_and_missing_handles() {
        let mut store = LabelStore::new();
        let h = store.say(&p("A"), "x").unwrap();
        store.delete(h).unwrap();
        assert!(matches!(store.get(h), Err(CoreError::NoSuchLabel(_))));
        assert!(matches!(store.delete(h), Err(CoreError::NoSuchLabel(_))));
    }

    #[test]
    fn formulas_sorted_by_insertion() {
        let mut store = LabelStore::new();
        store.say(&p("A"), "one").unwrap();
        store.say(&p("A"), "two").unwrap();
        let fs = store.formulas();
        assert_eq!(fs[0], parse("A says one").unwrap());
        assert_eq!(fs[1], parse("A says two").unwrap());
    }

    #[test]
    fn shape_is_order_insensitive_and_tracks_mutation() {
        let mut a = LabelStore::new();
        let mut b = LabelStore::new();
        assert_eq!(a.shape(), b.shape(), "empty stores shape identically");
        a.say(&p("A"), "one").unwrap();
        let ha = a.say(&p("A"), "two").unwrap();
        b.say(&p("A"), "two").unwrap();
        let hb = b.say(&p("A"), "one").unwrap();
        assert_eq!(a.shape(), b.shape(), "insertion order must not matter");
        a.delete(ha).unwrap();
        assert_ne!(a.shape(), b.shape());
        b.delete(hb).unwrap();
        assert_ne!(a.shape(), b.shape(), "different residues differ");
        // Delete exactly cancels insert.
        let before = a.shape();
        let hx = a.say(&p("A"), "x").unwrap();
        a.delete(hx).unwrap();
        assert_eq!(a.shape(), before);
        // Normalized spellings shape identically.
        let mut c = LabelStore::new();
        let mut d = LabelStore::new();
        c.say(&p("A"), "not x").unwrap();
        d.say(&p("A"), "x -> false").unwrap();
        assert_eq!(c.shape(), d.shape());
    }

    #[test]
    fn seqlock_shape_handle_tracks_mutations_without_the_store() {
        let mut store = LabelStore::new();
        let handle = store.shape_handle();
        assert_eq!(handle.load(Ordering::Relaxed), 0);
        let h = store.say(&p("A"), "x").unwrap();
        assert_eq!(handle.load(Ordering::Relaxed), store.shape());
        assert_ne!(handle.load(Ordering::Relaxed), 0);
        store.delete(h).unwrap();
        assert_eq!(handle.load(Ordering::Relaxed), 0, "delete cancels insert");
    }

    #[test]
    fn seqlock_formulas_snapshot_memoizes_and_invalidates() {
        let mut store = LabelStore::new();
        store.say(&p("A"), "one").unwrap();
        let s1 = store.formulas_snapshot();
        let s2 = store.formulas_snapshot();
        assert!(Arc::ptr_eq(&s1, &s2), "unchanged store must share the Arc");
        store.say(&p("A"), "two").unwrap();
        let s3 = store.formulas_snapshot();
        assert_eq!(s3.len(), 2);
        assert!(
            s1.stated().eq([&parse("A says one").unwrap()]),
            "old snapshot intact"
        );
        assert!(s3.stated().eq(&store.formulas()));
    }

    #[test]
    fn a_snapshot_holds_exactly_what_the_store_held_when_it_was_taken() {
        let mut store = LabelStore::new();
        let normal = |text: &str| normalize(&parse(text).unwrap());
        store.say(&p("A"), "one").unwrap();
        let before = store.formulas_snapshot();
        let h = store.say(&p("A"), "not two").unwrap();
        let after = store.formulas_snapshot();
        // Probed by normal form, whichever way the label was spelled.
        let two = normal("A says (two -> false)");
        assert!(Creds::new(&after).holds(&two), "say reaches the next set");
        assert!(!Creds::new(&before).holds(&two), "and no earlier one");
        assert!(Creds::new(&after).holds(&normal("A says one")));
        store.delete(h).unwrap();
        let gone = store.formulas_snapshot();
        assert!(!Creds::new(&gone).holds(&two), "delete leaves the next set");
        assert!(Creds::new(&gone).holds(&normal("A says one")));
        assert!(Creds::new(&after).holds(&two), "the old Arc is what it was");
    }

    #[test]
    fn parse_errors_propagate() {
        let mut store = LabelStore::new();
        assert!(matches!(
            store.say(&p("A"), "says says"),
            Err(CoreError::Parse(_))
        ));
    }
}
