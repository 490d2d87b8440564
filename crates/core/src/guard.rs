//! Guards: proof-checking reference monitors (§2.6, §2.9).
//!
//! A guard receives (subject, operation, object, proof, labels),
//! instantiates the goal formula for the operation, checks the proof,
//! validates every leaf against the supplied credentials or a
//! registered authority, and answers allow/deny together with a
//! *cacheability* bit: decisions whose proofs rest only on
//! indefinitely-valid labels may be stored in the kernel decision
//! cache; any authority dependence makes the decision uncacheable.
//!
//! The guard keeps its own cache of proof-checking work (§2.9), and
//! the split is the paper's: what a proof establishes *by itself* —
//! that it is sound over its own leaves, what it concludes, which
//! distinct leaves it rests on — never changes, so it is established
//! once and kept as a [`Checked`] witness; *credential matching* — do
//! those leaves hold right now? — is asked on every request (Figure
//! 4's `no cred` case costs ~20% over `pass` even when everything else
//! is cached), of the requester's own *prepared* credentials
//! ([`Creds`]: the holder's set as its labelstore normalised, keyed
//! and sorted it when it last changed, plus the request's utterances):
//! one keyed probe per distinct leaf, each key match confirmed by `==`
//! on the normal form. The guard normalises and hashes no credential;
//! it builds no set of its own. Where the witness comes from is all
//! that varies: a proof the prover constructed arrives already
//! `Checked` ([`ProofRef::Checked`]) and touches no memo at all; a
//! supplied or stored proof ([`ProofRef::Raw`]) is looked up in the
//! memo by the proof itself — hashed under the map's own keyed hasher
//! and confirmed by `Eq`, so no two proofs can ever answer for each
//! other — and checked, once, on a miss.

use crate::authority::AuthorityRegistry;
use crate::resource::{OpName, ResourceId};
use nexus_nal::check::{check_own_leaves, normalize, Checked};
use nexus_nal::{
    BatchGoal, CheckError, Creds, Formula, PreparedGoal, Principal, Proof, ProofSearch,
    ProveOutcome, ProverConfig, Subst, Term,
};
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

/// The proof a request is checked with, by what is already known of
/// it.
#[derive(Debug, Clone, Copy)]
pub enum ProofRef<'a> {
    /// Supplied by the client or fetched from the proof store: its
    /// soundness is established through the guard's memo (§2.9).
    Raw(&'a Proof),
    /// Constructed by the prover, which established its soundness when
    /// it assembled it: used as is.
    Checked(&'a Checked),
}

/// A guarded access request.
#[derive(Debug, Clone)]
pub struct AccessRequest<'a> {
    /// The requesting principal.
    pub subject: &'a Principal,
    /// The operation being attempted.
    pub operation: &'a OpName,
    /// The resource operated on.
    pub object: &'a ResourceId,
    /// The proof to check: client-supplied, stored, or auto-proved.
    pub proof: Option<ProofRef<'a>>,
    /// The client's credentials (label formulas), already
    /// authenticated by the kernel (labelstore) or by certificate
    /// verification at import time — and already prepared: the guard
    /// probes them, it does not normalise them.
    pub labels: Creds<'a>,
}

/// Why a request was denied.
#[derive(Debug, Clone, PartialEq)]
pub enum DenyReason {
    /// No proof was supplied (and none stored).
    NoProof,
    /// The proof is structurally unsound.
    Unsound(CheckError),
    /// The proof is sound but proves something other than the goal.
    WrongConclusion {
        /// What the proof establishes.
        proved: Box<Formula>,
        /// What the goal requires.
        goal: Box<Formula>,
    },
    /// A proof leaf is not among the supplied credentials and no
    /// authority covers it.
    MissingCredential(Formula),
    /// An authority was consulted and said no.
    AuthorityDenied(Formula),
}

/// The guard's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Allow the operation?
    pub allow: bool,
    /// May the kernel cache this decision? True only when the proof's
    /// leaves are all indefinitely-valid labels.
    pub cacheable: bool,
    /// Deny rationale (None when allowed).
    pub reason: Option<DenyReason>,
}

impl Decision {
    fn allow(cacheable: bool) -> Decision {
        Decision {
            allow: true,
            cacheable,
            reason: None,
        }
    }

    fn deny(cacheable: bool, reason: DenyReason) -> Decision {
        Decision {
            allow: false,
            cacheable,
            reason: Some(reason),
        }
    }
}

/// Guard cache configuration (§2.9).
#[derive(Debug, Clone, Copy)]
pub struct GuardCacheConfig {
    /// Maximum number of memoized (proof, goal) checks.
    pub capacity: usize,
    /// Per-root-principal quota, limiting exhaustion attacks by
    /// incessant spawning of subprincipals: quotas attach to the root
    /// of the process tree.
    pub per_principal_quota: usize,
}

impl Default for GuardCacheConfig {
    fn default() -> Self {
        GuardCacheConfig {
            capacity: 1024,
            per_principal_quota: 256,
        }
    }
}

nexus_obs::counters! {
    /// Guard statistics.
    pub struct GuardStats, live GuardCounters {
        /// Total checks performed.
        checks: plain counter "nexus_guard_checks_total" "guard proof checks",
        /// Proof-checking work skipped via the guard cache.
        cache_hits: plain counter "nexus_guard_cache_hits_total" "guard proof-cache hits",
        /// Full proof checks.
        cache_misses: plain counter "nexus_guard_cache_misses_total" "guard proof-cache misses",
        /// Authority consultations.
        authority_queries: plain counter
            "nexus_guard_authority_queries_total" "authority predicate queries",
        /// Entries evicted from the guard cache.
        evictions: plain counter "nexus_guard_evictions_total" "guard proof-cache evictions",
        /// Checks served through [`Guard::check_batch`] that shared an
        /// amortized goal normalization with the rest of their batch.
        batched: plain counter
            "nexus_guard_batched_total" "requests checked through check_batch",
    }
}

nexus_obs::counters! {
    /// Statistics of the guard's batch-prover session (the auto-prove
    /// path for requests arriving without a stored or supplied proof).
    pub struct ProverStats, live ProverCounters {
        /// Subgoals answered from the prover memo instead of searched.
        memo_hits: plain counter "nexus_prover_memo_hits_total" "prover memo hits",
        /// Memoizable subgoals that had to be searched.
        memo_misses: plain counter "nexus_prover_memo_misses_total" "prover memo misses",
        /// Frontier-sharing groups formed across batches (one proof
        /// search per group).
        batch_groups: plain counter
            "nexus_prover_batch_groups_total" "distinct frontier groups across batches",
        /// Batch members whose entire proof was spliced from their
        /// group leader's search.
        batch_shared: plain counter
            "nexus_prover_batch_shared_total" "goals that shared an earlier goal's frontier",
        /// Times the session's memo, full at its cap, started over (a
        /// backstop: label movement never empties the memo).
        restarts: plain counter
            "nexus_prover_memo_restarts_total" "prover memo start-overs at its cap",
        /// Auto-prove goals that yielded a proof.
        proved: plain counter "nexus_prover_proved_total" "auto-prove successes",
        /// Auto-prove goals the bounded search gave up on.
        failed: plain counter "nexus_prover_failed_total" "auto-prove failures",
    }
}

/// A memo entry, hashed and compared as the proof it witnesses: the
/// map is probed with a borrowed `&Proof` and holds each proof once.
struct ByProof(Arc<Checked>);

impl Borrow<Proof> for ByProof {
    fn borrow(&self) -> &Proof {
        self.0.proof()
    }
}

impl Hash for ByProof {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.proof().hash(state);
    }
}

impl PartialEq for ByProof {
    fn eq(&self, other: &Self) -> bool {
        self.0.proof() == other.0.proof()
    }
}

impl Eq for ByProof {}

/// The guard's memoization state, updated as one unit under a lock.
/// (The hasher is a parameter so a test can force every proof onto one
/// bucket.)
#[derive(Default)]
struct GuardCache<S = RandomState> {
    entries: HashSet<ByProof, S>,
    /// Insertion order per owning root principal, for preferential
    /// eviction.
    order: HashMap<Principal, VecDeque<Arc<Checked>>>,
}

impl<S: BuildHasher> GuardCache<S> {
    fn get(&self, proof: &Proof) -> Option<Arc<Checked>> {
        self.entries.get(proof).map(|entry| Arc::clone(&entry.0))
    }

    /// Admit `witness` on `owner`'s account; `true` if an entry was
    /// evicted to make room.
    fn insert(&mut self, owner: &Principal, witness: Arc<Checked>, cfg: &GuardCacheConfig) -> bool {
        // Concurrent misses on the same fresh proof race to insert
        // the same memo; the loser must not push a duplicate into the
        // eviction queue (it would corrupt quota accounting).
        if self.entries.contains(witness.proof()) {
            return false;
        }
        let own_queue_len = self.order.get(owner).map(|q| q.len()).unwrap_or(0);
        let full = self.entries.len() >= cfg.capacity;
        // Per-principal quota: evict the same principal's oldest. At
        // capacity, prefer evicting the requesting principal's own
        // entries (§2.9), falling back to the heaviest user.
        let victim = if own_queue_len >= cfg.per_principal_quota || (full && own_queue_len > 0) {
            Some(owner.clone())
        } else if full {
            self.order
                .iter()
                .max_by_key(|(_, q)| q.len())
                .map(|(p, _)| p.clone())
        } else {
            None
        };
        let evicted = victim.is_some_and(|victim| self.evict_from(&victim));
        self.order
            .entry(owner.clone())
            .or_default()
            .push_back(Arc::clone(&witness));
        self.entries.insert(ByProof(witness));
        evicted
    }

    /// Drop `owner`'s oldest entry; `false` if it had none.
    fn evict_from(&mut self, owner: &Principal) -> bool {
        let Some(queue) = self.order.get_mut(owner) else {
            return false;
        };
        let old = queue.pop_front();
        if queue.is_empty() {
            self.order.remove(owner);
        }
        old.is_some_and(|old| self.entries.remove(old.proof()))
    }
}

/// The guard. Internally synchronized: `check` takes `&self`, so one
/// guard can serve concurrent requests (the memo cache is a mutex,
/// statistics are atomic cells, and everything else is immutable
/// configuration).
pub struct Guard {
    cfg: GuardCacheConfig,
    cache: Mutex<GuardCache>,
    counters: GuardCounters,
    /// One memo for every auto-proving batch; rebuilt if limits change.
    prover: Mutex<ProofSearch>,
    prover_counters: ProverCounters,
}

impl Guard {
    /// Guard with default cache configuration.
    pub fn new() -> Self {
        Self::with_config(GuardCacheConfig::default())
    }

    /// Guard with explicit cache configuration.
    pub fn with_config(cfg: GuardCacheConfig) -> Self {
        Guard {
            cfg,
            cache: Mutex::new(GuardCache::default()),
            counters: GuardCounters::default(),
            prover: Mutex::new(ProofSearch::new(ProverConfig::default())),
            prover_counters: ProverCounters::default(),
        }
    }

    /// Instantiate a goal formula for a request: `$subject`,
    /// `$operation`, `$object` bind to the request parameters.
    pub fn instantiate_goal(goal: &Formula, req: &AccessRequest<'_>) -> Formula {
        let s = Subst::new()
            .bind_principal("subject", req.subject.clone())
            .bind("operation", Term::sym(req.operation.0.clone()))
            .bind("object", Term::sym(req.object.0.clone()));
        s.apply(goal)
    }

    /// Evaluate a request against a goal formula.
    ///
    /// `authorities` supplies the registry used to validate leaves
    /// that reference dynamic state.
    pub fn check(
        &self,
        req: &AccessRequest<'_>,
        goal: &Formula,
        authorities: &AuthorityRegistry,
    ) -> Decision {
        let goal = Self::instantiate_goal(goal, req);
        let norm_goal = normalize(&goal);
        self.check_instantiated(req, &goal, &norm_goal, authorities)
    }

    /// Evaluate a slice of requests that share one goal formula (the
    /// async pipeline's coalesced batches, or the caller-thread path's
    /// slice of one): when the goal is ground — mentions none of
    /// `$subject`/`$operation`/`$object` — instantiation is the
    /// identity, so the goal is not copied at all and its NAL
    /// normalization is computed once for the slice instead of once
    /// per request. Non-ground goals fall back to per-request
    /// evaluation.
    pub fn check_batch(
        &self,
        reqs: &[AccessRequest<'_>],
        goal: &Formula,
        authorities: &AuthorityRegistry,
    ) -> Vec<Decision> {
        if goal.is_ground() {
            let norm_goal = normalize(goal);
            self.counters.batched.add(reqs.len() as u64);
            reqs.iter()
                .map(|req| self.check_instantiated(req, goal, &norm_goal, authorities))
                .collect()
        } else {
            reqs.iter()
                .map(|req| self.check(req, goal, authorities))
                .collect()
        }
    }

    /// The shared evaluation core: `goal` is already instantiated for
    /// the request and `norm_goal` is its normalization (amortized by
    /// [`Guard::check_batch`]).
    fn check_instantiated(
        &self,
        req: &AccessRequest<'_>,
        goal: &Formula,
        norm_goal: &Formula,
        authorities: &AuthorityRegistry,
    ) -> Decision {
        self.counters.checks.add(1);
        // Trivial goals need no proof: `true` is the "default ALLOW"
        // policy of Figure 4's `no goal` case.
        if *norm_goal == Formula::True {
            return Decision::allow(true);
        }
        let proof = match req.proof {
            Some(p) => p,
            // A missing proof is a static denial: installing a proof
            // later invalidates the decision-cache entry (§2.8), so
            // the kernel may cache it.
            None => return Decision::deny(true, DenyReason::NoProof),
        };

        // 1. What the proof establishes by itself — carried by the
        //    prover's proofs, memoized for everyone else's.
        let memoized;
        let witness = match proof {
            ProofRef::Checked(witness) => witness,
            ProofRef::Raw(proof) => match self.checked(proof, req.subject) {
                Ok(witness) => {
                    memoized = witness;
                    &*memoized
                }
                // Unsoundness is a property of the proof alone:
                // cacheable (a proof update invalidates the entry).
                Err(e) => return Decision::deny(true, DenyReason::Unsound(e)),
            },
        };
        if witness.normal_conclusion() != norm_goal {
            // Depends only on (proof, goal): cacheable — setgoal
            // invalidates the subregion, proof update the entry.
            return Decision::deny(
                true,
                DenyReason::WrongConclusion {
                    proved: Box::new(witness.conclusion().clone()),
                    goal: Box::new(goal.clone()),
                },
            );
        }

        // 2. Credential matching — never cached (§2.9): every leaf of
        //    every witness, against the requester's own credentials.
        let mut cacheable = true;
        for leaf in witness.leaves() {
            if req.labels.holds_leaf(leaf.key, &leaf.normal) {
                continue;
            }
            // Authority fallback: leaf must be `P says S` with a
            // registered authority for P.
            if let Formula::Says(p, s) = &leaf.stated {
                if let Some(answer) = authorities.query(p, s) {
                    self.counters.authority_queries.add(1);
                    cacheable = false; // dynamic state ⇒ uncacheable
                    if answer {
                        continue;
                    }
                    return Decision::deny(false, DenyReason::AuthorityDenied(leaf.stated.clone()));
                }
            }
            return Decision::deny(false, DenyReason::MissingCredential(leaf.stated.clone()));
        }
        Decision::allow(cacheable)
    }

    /// The memoized structural check. Soundness of a proof never
    /// changes, so the witness — the proof, its conclusion in both
    /// spellings and its distinct leaves — is kept, found again by the
    /// proof itself. An unsound proof is not kept: re-checking it costs
    /// no more than finding it would.
    #[allow(clippy::result_large_err)]
    fn checked(&self, proof: &Proof, subject: &Principal) -> Result<Arc<Checked>, CheckError> {
        if let Some(hit) = self.cache.lock().get(proof) {
            self.counters.cache_hits.add(1);
            return Ok(hit);
        }
        self.counters.cache_misses.add(1);
        // Rule applications are validated with the proof's own leaves
        // admitted; credential presence is asked separately. The lock
        // is *not* held across the check itself — concurrent checks of
        // the same fresh proof just both do the work, and one of the
        // identical witnesses is kept.
        let witness = Arc::new(check_own_leaves(proof.clone())?);
        let evicted = self
            .cache
            .lock()
            .insert(subject.root(), Arc::clone(&witness), &self.cfg);
        self.counters.evictions.add(u64::from(evicted));
        Ok(witness)
    }

    /// Auto-prove a batch of (goal, credentials) pairs — requests that
    /// arrived without a stored or supplied proof — through the
    /// guard's persistent [`ProofSearch`] session, so identical
    /// subgoal derivations across (and beyond) the batch are computed
    /// once and spliced into each request's proof.
    ///
    /// The session is never told of a label movement: its memo is a
    /// pure function of (goal, credential set, limits). A derivation is
    /// served only if every leaf is among the credentials the requester
    /// holds *now*, a refutation only under the fingerprint of the set
    /// it failed under (a removal can only make it more true), and
    /// [`check_batch`](Self::check_batch) matches every leaf again,
    /// memo or no memo. Only a `cfg` differing from the session's
    /// current one resets it, so changed limits always take effect.
    ///
    /// Returns one optional proof per input, in order — each already
    /// [`Checked`] and ready to hand back as [`ProofRef::Checked`].
    /// This is the raw door: each member's credentials are prepared
    /// (normalised, keyed, sorted) on the way in, then proved exactly
    /// as [`prove_prepared`](Self::prove_prepared) proves them.
    ///
    /// `_epoch` is ignored (the memo used to be flushed when it moved)
    /// and kept only because the frozen `benchmark/` package's `layers`
    /// probe passes one; it goes when ROADMAP item 5 thaws that package.
    ///
    /// Concurrency: the session sits behind one mutex held for the
    /// whole batch search, so concurrent auto-proving serializes —
    /// a deliberate trade. The memo makes every post-first search of
    /// a (goal, credential) shape near-free, the decision-cache and
    /// stored-/supplied-proof paths never take this lock, and the
    /// search is budget-bounded ([`ProverConfig::max_subgoals`]), so
    /// the wait is bounded too. (The one-shot search per request
    /// this replaced measured ≈3× slower on the proof-heavy workload;
    /// see "Retired baselines" in `docs/ARCHITECTURE.md`.)
    pub fn prove_batch(
        &self,
        _epoch: u64,
        goals: &[BatchGoal<'_>],
        cfg: ProverConfig,
    ) -> Vec<Option<Arc<Checked>>> {
        self.with_session(cfg, |search| search.prove_batch_explained(goals))
            .into_iter()
            .map(|o| o.proof)
            .collect()
    }

    /// [`prove_batch`](Self::prove_batch) for requests whose
    /// credentials are already prepared — the kernel's door: nothing
    /// is normalised here but the goal — with each failure carrying
    /// the refuted subgoal the search got stuck on (see
    /// [`ProveOutcome`]), the raw material for audit-journal denial
    /// events.
    pub fn prove_prepared(
        &self,
        goals: &[PreparedGoal<'_>],
        cfg: ProverConfig,
    ) -> Vec<ProveOutcome> {
        self.with_session(cfg, |search| search.prove_prepared(goals))
    }

    /// Run `prove` in the session — rebuilt first if `cfg` is not the
    /// one it searches under (old entries reflect old limits) — and
    /// tally what it did.
    fn with_session(
        &self,
        cfg: ProverConfig,
        prove: impl FnOnce(&mut ProofSearch) -> Vec<ProveOutcome>,
    ) -> Vec<ProveOutcome> {
        let mut search = self.prover.lock();
        if search.config() != cfg {
            *search = ProofSearch::new(cfg);
        }
        let before = search.stats();
        let out = prove(&mut search);
        let after = search.stats();
        let tally = &self.prover_counters;
        for (cell, was, now) in [
            (&tally.memo_hits, before.memo_hits, after.memo_hits),
            (&tally.memo_misses, before.memo_misses, after.memo_misses),
            (&tally.batch_groups, before.batch_groups, after.batch_groups),
            (&tally.batch_shared, before.batch_shared, after.batch_shared),
            (&tally.restarts, before.restarts, after.restarts),
        ] {
            cell.add(now - was);
        }
        let proved = out.iter().filter(|p| p.proof.is_some()).count() as u64;
        tally.proved.add(proved);
        tally.failed.add(out.len() as u64 - proved);
        out
    }

    /// Prover-session statistics snapshot.
    pub fn prover_stats(&self) -> ProverStats {
        self.prover_counters.snapshot()
    }

    /// Number of subgoal entries currently memoized by the prover
    /// session.
    pub fn prover_memo_len(&self) -> usize {
        self.prover.lock().memo_len()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> GuardStats {
        self.counters.snapshot()
    }

    /// Current number of memoized checks.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().entries.len()
    }

    /// Drop all memoized state (it is soft state; correctness is
    /// unaffected, §2.9).
    pub fn flush_cache(&self) {
        *self.cache.lock() = GuardCache::default();
    }
}

impl Default for Guard {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::{AuthorityKind, FnAuthority};
    use nexus_nal::{parse, prove, CredSet, ProverConfig};
    use std::sync::Arc;

    fn subject() -> Principal {
        Principal::name("/proc/ipd/12")
    }

    fn req_parts() -> (OpName, ResourceId) {
        (OpName::from("read"), ResourceId::file("/secret"))
    }

    fn build_req<'a>(
        subject: &'a Principal,
        op: &'a OpName,
        obj: &'a ResourceId,
        proof: Option<&'a Proof>,
        labels: &[Formula],
    ) -> AccessRequest<'a> {
        // Prepared as a labelstore would have; leaked so the tests
        // keep handing in plain formulas.
        let held: &'static CredSet = Box::leak(Box::new(CredSet::new(labels)));
        AccessRequest {
            subject,
            operation: op,
            object: obj,
            proof: proof.map(ProofRef::Raw),
            labels: Creds::new(held),
        }
    }

    #[test]
    fn pass_with_label_backed_proof_is_cacheable() {
        let s = subject();
        let (op, obj) = req_parts();
        let labels = vec![parse("Owner says ok").unwrap()];
        let goal = parse("Owner says ok").unwrap();
        let proof = prove(&goal, &labels, ProverConfig::default()).unwrap();
        let guard = Guard::new();
        let req = build_req(&s, &op, &obj, Some(&proof), &labels);
        let d = guard.check(&req, &goal, &AuthorityRegistry::new());
        assert!(d.allow);
        assert!(d.cacheable);
    }

    #[test]
    fn no_proof_denied() {
        let s = subject();
        let (op, obj) = req_parts();
        let goal = parse("Owner says ok").unwrap();
        let guard = Guard::new();
        let req = build_req(&s, &op, &obj, None, &[]);
        let d = guard.check(&req, &goal, &AuthorityRegistry::new());
        assert!(!d.allow);
        assert_eq!(d.reason, Some(DenyReason::NoProof));
    }

    #[test]
    fn true_goal_allows_without_proof() {
        let s = subject();
        let (op, obj) = req_parts();
        let guard = Guard::new();
        let req = build_req(&s, &op, &obj, None, &[]);
        let d = guard.check(&req, &Formula::True, &AuthorityRegistry::new());
        assert!(d.allow);
        assert!(d.cacheable);
    }

    #[test]
    fn unsound_proof_denied() {
        let s = subject();
        let (op, obj) = req_parts();
        let goal = parse("Owner says ok").unwrap();
        // AndElimL applied to a non-conjunction.
        let bad = Proof::AndElimL(Box::new(Proof::assume(parse("Owner says ok").unwrap())));
        let labels = vec![parse("Owner says ok").unwrap()];
        let guard = Guard::new();
        let req = build_req(&s, &op, &obj, Some(&bad), &labels);
        let d = guard.check(&req, &goal, &AuthorityRegistry::new());
        assert!(!d.allow);
        assert!(matches!(d.reason, Some(DenyReason::Unsound(_))));
    }

    #[test]
    fn wrong_conclusion_denied() {
        let s = subject();
        let (op, obj) = req_parts();
        let goal = parse("Owner says ok").unwrap();
        let labels = vec![parse("Owner says other").unwrap()];
        let proof = Proof::assume(parse("Owner says other").unwrap());
        let guard = Guard::new();
        let req = build_req(&s, &op, &obj, Some(&proof), &labels);
        let d = guard.check(&req, &goal, &AuthorityRegistry::new());
        assert!(!d.allow);
        assert!(matches!(d.reason, Some(DenyReason::WrongConclusion { .. })));
    }

    #[test]
    fn missing_credential_denied() {
        let s = subject();
        let (op, obj) = req_parts();
        let goal = parse("Owner says ok").unwrap();
        let proof = Proof::assume(parse("Owner says ok").unwrap());
        // Proof references a label the client does not hold.
        let guard = Guard::new();
        let req = build_req(&s, &op, &obj, Some(&proof), &[]);
        let d = guard.check(&req, &goal, &AuthorityRegistry::new());
        assert!(!d.allow);
        assert!(matches!(d.reason, Some(DenyReason::MissingCredential(_))));
    }

    #[test]
    fn authority_backed_leaf_allows_but_uncacheable() {
        let s = subject();
        let (op, obj) = req_parts();
        let goal = parse("NTP says TimeNow < 20110319").unwrap();
        let proof = Proof::assume(goal.clone());
        let reg = AuthorityRegistry::new();
        reg.register(
            Principal::name("NTP"),
            Arc::new(FnAuthority(|s: &Formula| {
                s.to_string() == "TimeNow < 20110319"
            })),
            AuthorityKind::External,
        );
        let guard = Guard::new();
        let req = build_req(&s, &op, &obj, Some(&proof), &[]);
        let d = guard.check(&req, &goal, &reg);
        assert!(d.allow);
        assert!(!d.cacheable, "authority dependence must be uncacheable");
    }

    #[test]
    fn authority_denial() {
        let s = subject();
        let (op, obj) = req_parts();
        let goal = parse("NTP says TimeNow < 20110319").unwrap();
        let proof = Proof::assume(goal.clone());
        let reg = AuthorityRegistry::new();
        reg.register(
            Principal::name("NTP"),
            Arc::new(FnAuthority(|_| false)),
            AuthorityKind::External,
        );
        let guard = Guard::new();
        let req = build_req(&s, &op, &obj, Some(&proof), &[]);
        let d = guard.check(&req, &goal, &reg);
        assert!(!d.allow);
        assert!(matches!(d.reason, Some(DenyReason::AuthorityDenied(_))));
    }

    #[test]
    fn goal_variables_instantiate_from_request() {
        let s = subject();
        let (op, obj) = req_parts();
        // §2.5's goal shape: the subject itself must request the open.
        let goal = parse("$subject says openFile($object)").unwrap();
        let labels = vec![parse("/proc/ipd/12 says openFile(file:/secret)").unwrap()];
        let proof = Proof::assume(labels[0].clone());
        let guard = Guard::new();
        let req = build_req(&s, &op, &obj, Some(&proof), &labels);
        let d = guard.check(&req, &goal, &AuthorityRegistry::new());
        assert!(d.allow, "reason: {:?}", d.reason);

        // A different subject's label must not satisfy it.
        let mallory = Principal::name("/proc/ipd/66");
        let req2 = build_req(&mallory, &op, &obj, Some(&proof), &labels);
        let d2 = guard.check(&req2, &goal, &AuthorityRegistry::new());
        assert!(!d2.allow);
    }

    #[test]
    fn guard_cache_hits_on_repeat() {
        let s = subject();
        let (op, obj) = req_parts();
        let goal = parse("Owner says ok").unwrap();
        let labels = vec![goal.clone()];
        let proof = Proof::assume(goal.clone());
        let guard = Guard::new();
        let req = build_req(&s, &op, &obj, Some(&proof), &labels);
        guard.check(&req, &goal, &AuthorityRegistry::new());
        guard.check(&req, &goal, &AuthorityRegistry::new());
        guard.check(&req, &goal, &AuthorityRegistry::new());
        let st = guard.stats();
        assert_eq!(st.cache_misses, 1);
        assert_eq!(st.cache_hits, 2);
    }

    #[test]
    fn credential_matching_not_cached() {
        // Same proof, but credentials disappear between calls: the
        // second call must deny even though the structure check hits
        // the cache.
        let s = subject();
        let (op, obj) = req_parts();
        let goal = parse("Owner says ok").unwrap();
        let labels = vec![goal.clone()];
        let proof = Proof::assume(goal.clone());
        let guard = Guard::new();
        let req = build_req(&s, &op, &obj, Some(&proof), &labels);
        assert!(guard.check(&req, &goal, &AuthorityRegistry::new()).allow);
        let req2 = build_req(&s, &op, &obj, Some(&proof), &[]);
        let d = guard.check(&req2, &goal, &AuthorityRegistry::new());
        assert!(!d.allow);
        assert_eq!(guard.stats().cache_hits, 1);
    }

    #[test]
    fn proofs_sharing_a_memo_bucket_never_answer_for_each_other() {
        /// Every key hashes alike: the whole memo is one bucket, and
        /// only `Eq` on the proof tells its entries apart.
        #[derive(Default)]
        struct OneBucket;
        impl Hasher for OneBucket {
            fn finish(&self) -> u64 {
                0
            }
            fn write(&mut self, _: &[u8]) {}
        }
        let mut cache: GuardCache<std::hash::BuildHasherDefault<OneBucket>> = GuardCache::default();
        let cfg = GuardCacheConfig::default();
        let owner = subject();
        let stmts: Vec<Formula> = (0..8)
            .map(|i| parse(&format!("Owner says stmt{i}")).unwrap())
            .collect();
        for stmt in &stmts {
            let witness = check_own_leaves(Proof::assume(stmt.clone())).unwrap();
            assert!(!cache.insert(&owner, Arc::new(witness), &cfg));
        }
        for stmt in &stmts {
            let hit = cache
                .get(&Proof::assume(stmt.clone()))
                .expect("memoized under its own proof");
            assert_eq!(hit.conclusion(), stmt, "served a bucket-mate's witness");
        }
        let stranger = Proof::assume(parse("Owner says other").unwrap());
        assert!(cache.get(&stranger).is_none(), "a bucket-mate answered");
    }

    #[test]
    fn a_checked_proof_skips_the_memo_but_not_credential_matching() {
        let s = subject();
        let (op, obj) = req_parts();
        let reg = AuthorityRegistry::new();
        let goal = parse("FileServer says ok").unwrap();
        let labels = vec![
            parse("Owner speaksfor FileServer").unwrap(),
            parse("Owner says ok").unwrap(),
        ];
        let guard = Guard::new();
        let batch = [BatchGoal {
            goal: &goal,
            credentials: &labels,
        }];
        let witness = guard
            .prove_batch(0, &batch, ProverConfig::default())
            .remove(0)
            .expect("provable");
        let req = |labels| AccessRequest {
            subject: &s,
            operation: &op,
            object: &obj,
            proof: Some(ProofRef::Checked(&witness)),
            labels: Creds::new(labels),
        };
        let (held, short) = (CredSet::new(&labels), CredSet::new(&labels[..1]));
        let d = guard.check(&req(&held), &goal, &reg);
        assert!(d.allow && d.cacheable, "reason: {:?}", d.reason);
        // The prover's word covers soundness, never possession.
        let d = guard.check(&req(&short), &goal, &reg);
        assert_eq!(
            d.reason,
            Some(DenyReason::MissingCredential(labels[1].clone()))
        );
        let other = parse("FileServer says more").unwrap();
        let d = guard.check(&req(&held), &other, &reg);
        assert!(matches!(d.reason, Some(DenyReason::WrongConclusion { .. })));
        // And the same verdicts as the proof gets the long way round.
        let raw = AccessRequest {
            proof: Some(ProofRef::Raw(witness.proof())),
            ..req(&held)
        };
        assert!(guard.check(&raw, &goal, &reg).allow);
        let st = guard.stats();
        assert_eq!(st.checks, 4, "auto-proved requests still count");
        assert_eq!(
            (st.cache_hits, st.cache_misses, guard.cache_len()),
            (0, 1, 1),
            "only the raw proof went through the memo"
        );
    }

    #[test]
    fn per_principal_quota_and_eviction() {
        let cfg = GuardCacheConfig {
            capacity: 8,
            per_principal_quota: 2,
        };
        let guard = Guard::with_config(cfg);
        let (op, obj) = req_parts();
        let reg = AuthorityRegistry::new();
        // One principal floods the cache with distinct proofs.
        let flooder = Principal::name("flood").sub("child");
        for i in 0..6 {
            let f = parse(&format!("flood says stmt{i}")).unwrap();
            let labels = vec![f.clone()];
            let proof = Proof::assume(f.clone());
            let req = build_req(&flooder, &op, &obj, Some(&proof), &labels);
            guard.check(&req, &f, &reg);
        }
        // Quota (keyed on the *root* of the process tree) caps the
        // flooder at 2 entries.
        assert!(guard.cache_len() <= 2, "len={}", guard.cache_len());
        assert!(guard.stats().evictions >= 4);
    }

    #[test]
    fn batch_agrees_with_single_checks_on_ground_goal() {
        let guard = Guard::new();
        let reg = AuthorityRegistry::new();
        let (op, obj) = req_parts();
        let goal = parse("Owner says ok").unwrap();
        let proof = Proof::assume(goal.clone());
        let holder = Principal::name("holder");
        let empty_handed = Principal::name("empty");
        let labels = vec![goal.clone()];
        let no_labels: Vec<Formula> = Vec::new();
        let reqs = vec![
            build_req(&holder, &op, &obj, Some(&proof), &labels),
            build_req(&empty_handed, &op, &obj, Some(&proof), &no_labels),
            build_req(&holder, &op, &obj, None, &labels),
        ];
        let batch = guard.check_batch(&reqs, &goal, &reg);
        let singles: Vec<Decision> = reqs.iter().map(|r| guard.check(r, &goal, &reg)).collect();
        assert_eq!(batch, singles);
        assert!(batch[0].allow);
        assert!(!batch[1].allow);
        assert_eq!(batch[2].reason, Some(DenyReason::NoProof));
        assert_eq!(guard.stats().batched, 3, "ground goal must amortize");
    }

    #[test]
    fn a_slice_of_one_with_a_ground_goal_is_amortized_like_any_other() {
        // The caller-thread path's slice: the ground goal is neither
        // instantiated nor normalised per request, and the verdicts
        // are `check`'s.
        let guard = Guard::new();
        let reg = AuthorityRegistry::new();
        let (op, obj) = req_parts();
        let goal = parse("Owner says ok and not Owner says revoked -> Owner says ok").unwrap();
        let labels = vec![parse("Owner says ok").unwrap()];
        let proof = prove(&goal, &labels, ProverConfig::default()).expect("provable");
        let holder = Principal::name("holder");
        for (proof, labels) in [
            (Some(&proof), &labels[..]),
            (Some(&proof), &[][..]),
            (None, &labels[..]),
        ] {
            let req = build_req(&holder, &op, &obj, proof, labels);
            let batched = guard.stats().batched;
            let one = guard.check_batch(std::slice::from_ref(&req), &goal, &reg);
            assert_eq!(guard.stats().batched, batched + 1, "a slice of one counts");
            assert_eq!(one, [guard.check(&req, &goal, &reg)]);
        }
    }

    #[test]
    fn batch_with_goal_variables_falls_back_per_request() {
        let guard = Guard::new();
        let reg = AuthorityRegistry::new();
        let (op, obj) = req_parts();
        let goal = parse("$subject says read(file:/secret)").unwrap();
        let alice = Principal::name("alice");
        let bob = Principal::name("bob");
        let alice_labels = vec![parse("alice says read(file:/secret)").unwrap()];
        let alice_proof = Proof::assume(alice_labels[0].clone());
        let reqs = vec![
            build_req(&alice, &op, &obj, Some(&alice_proof), &alice_labels),
            build_req(&bob, &op, &obj, Some(&alice_proof), &alice_labels),
        ];
        let batch = guard.check_batch(&reqs, &goal, &reg);
        assert!(batch[0].allow, "reason: {:?}", batch[0].reason);
        assert!(!batch[1].allow, "bob must not ride alice's instantiation");
        assert_eq!(
            guard.stats().batched,
            0,
            "non-ground goals are not amortized"
        );
    }

    #[test]
    fn batch_true_goal_allows_everything() {
        let guard = Guard::new();
        let reg = AuthorityRegistry::new();
        let (op, obj) = req_parts();
        let s1 = Principal::name("a");
        let s2 = Principal::name("b");
        let reqs = vec![
            build_req(&s1, &op, &obj, None, &[]),
            build_req(&s2, &op, &obj, None, &[]),
        ];
        for d in guard.check_batch(&reqs, &Formula::True, &reg) {
            assert!(d.allow);
            assert!(d.cacheable);
        }
        assert_eq!(guard.stats().checks, 2);
    }

    #[test]
    fn prove_batch_shares_one_search_across_identical_requests() {
        let guard = Guard::new();
        let goal = parse("FileServer says ok").unwrap();
        let creds = vec![
            parse("Owner speaksfor FileServer").unwrap(),
            parse("Owner says ok").unwrap(),
        ];
        let batch: Vec<BatchGoal<'_>> = (0..8)
            .map(|_| BatchGoal {
                goal: &goal,
                credentials: &creds,
            })
            .collect();
        let out = guard.prove_batch(1, &batch, ProverConfig::default());
        assert!(out.iter().all(|p| p.is_some()));
        let st = guard.prover_stats();
        assert_eq!(st.batch_groups, 1);
        assert_eq!(st.batch_shared, 7);
        assert_eq!(st.proved, 8);
        // A second batch rides the session memo.
        let hits_before = st.memo_hits;
        let out = guard.prove_batch(1, &batch[..2], ProverConfig::default());
        assert!(out.iter().all(|p| p.is_some()));
        assert!(guard.prover_stats().memo_hits > hits_before);
    }

    #[test]
    fn prover_config_changes_take_effect() {
        let guard = Guard::new();
        let goal = parse("B says (C says (A says p))").unwrap();
        let creds = vec![parse("A says p").unwrap()];
        let shallow = ProverConfig {
            max_depth: 1,
            ..ProverConfig::default()
        };
        let batch = [BatchGoal {
            goal: &goal,
            credentials: &creds,
        }];
        assert!(guard.prove_batch(1, &batch, shallow)[0].is_none());
        // Deeper limits: the session must be rebuilt with the new
        // config (and its shallow refutation dropped).
        assert!(
            guard.prove_batch(1, &batch, ProverConfig::default())[0].is_some(),
            "changed prover limits must take effect"
        );
    }

    #[test]
    fn a_memoised_proof_is_not_served_once_its_leaf_is_gone_and_is_served_again_when_it_returns() {
        // The prover-cache analog of the decision cache's setgoal
        // sabotage, with nothing telling the session a label moved: a
        // derivation memoised while a credential was held is guarded
        // by that credential, not by when it was found.
        let guard = Guard::new();
        let goal = parse("Owner says ok").unwrap();
        let held = vec![
            parse("Gate speaksfor Owner").unwrap(),
            parse("Gate says ok").unwrap(),
        ];
        let moved = vec![parse("Gate speaksfor Owner").unwrap()];
        let ask = |credentials: &[Formula]| {
            let batch = [BatchGoal {
                goal: &goal,
                credentials,
            }];
            guard
                .prove_batch(0, &batch, ProverConfig::default())
                .remove(0)
        };
        assert!(ask(&held).is_some());
        let memoised = guard.prover_memo_len();
        assert!(memoised > 0, "session must have memoized");
        // The credential moves away: the memoised derivation is still
        // in the table and fails its leaf test.
        assert!(
            ask(&moved).is_none(),
            "stale memoized proof must not be reused"
        );
        assert!(guard.prover_memo_len() >= memoised, "nothing was dropped");
        // Asked again, the refutation under `moved`'s fingerprint answers.
        let searched = guard.prover_stats().memo_misses;
        assert!(ask(&moved).is_none());
        assert_eq!(guard.prover_stats().memo_misses, searched);
        // The credential returns: the fingerprint it had is the one it
        // has, the old derivation passes its leaf test again, and the
        // in-between refutation does not answer.
        let hits = guard.prover_stats().memo_hits;
        assert!(ask(&held).is_some(), "a stale refutation answered");
        let st = guard.prover_stats();
        assert_eq!((st.memo_hits, st.memo_misses), (hits + 1, searched));
        assert_eq!(st.restarts, 0);
    }

    #[test]
    fn flush_cache_is_safe() {
        let s = subject();
        let (op, obj) = req_parts();
        let goal = parse("Owner says ok").unwrap();
        let labels = vec![goal.clone()];
        let proof = Proof::assume(goal.clone());
        let guard = Guard::new();
        let req = build_req(&s, &op, &obj, Some(&proof), &labels);
        assert!(guard.check(&req, &goal, &AuthorityRegistry::new()).allow);
        guard.flush_cache();
        assert!(guard.check(&req, &goal, &AuthorityRegistry::new()).allow);
    }
}
