//! Bounded backward-chaining proof search.
//!
//! Guards only *check* proofs; constructing them is the client's
//! problem (§2.6). This module is the client-side helper: given the
//! labels in hand (plus any statements an authority is expected to
//! vouch for), it searches for a proof of a goal formula.
//!
//! The search is sound (anything it returns passes [`crate::check`](fn@crate::check::check);
//! the tests enforce this) but deliberately incomplete: NAL derivation
//! is undecidable, so the prover bounds recursion depth and explores a
//! practical fragment — conjunctions, disjunctions, implications,
//! negation-as-refutation, literal comparisons, `says` via unit /
//! distribution / delegation chains (including subprincipal axioms and
//! scoped delegation), and `speaksfor` via reflexivity, subprincipal
//! chains, and transitive closure over delegation credentials.
//!
//! ## Sessions and frontier sharing
//!
//! Proof *search* is the expensive, unbounded step — which is exactly
//! why the architecture moves it out of the guard. A [`ProofSearch`]
//! session amortizes it further: the session owns a memo table of
//! proved and refuted subgoals, so a batch of requests with the same
//! (goal, credential) shape — the async pipeline's coalesced batches —
//! derives each shared subgoal once and splices the memoized sub-proof
//! into every request's final [`Proof`]. Sharing can never forge a
//! proof: a memoized derivation is reused only after every one of its
//! credential leaves is re-verified against the *requesting* credential
//! set. Refutations are scoped to the exact credential fingerprint
//! that produced them (a different label set gets a fresh search).
//!
//! A *finished* search is checked once, when it is assembled
//! ([`check_own_leaves`]), and remembered as an `Arc<`[`Checked`]`>`.
//! A later request for the same normalised goal costs a probe of the
//! witness's distinct leaves — each by the key it carries — against
//! the requester's *prepared* credentials ([`Creds`]: normalised,
//! keyed and sorted when they last changed, not when they are asked;
//! shared by grouping, the memo probe and the search) and a refcount:
//! nothing is normalised, searched or re-checked, nothing proof-sized
//! is copied, and the hand-off edges a search would walk are not even
//! built. [`ProofSearch::prove_prepared`] is the one way in; the raw
//! [`BatchGoal`] door prepares its credentials and takes it. That is
//! sound by the checker's lemma (see [`mod@crate::check`]): "sound over
//! its own leaves" was established when the witness was built, "every
//! leaf held" is what the probe asks. The one `debug_assert!` in this
//! module re-runs the full checker on every proof a session hands out,
//! so each debug-profile test run cross-checks the lemma on every
//! splice it performs; release builds rely on it. Subgoals proved on the way
//! stay raw proofs: they are copied into the proof under construction
//! and validated inside it when *that* becomes `Checked`.
//!
//! A goal keeps up to [`DERIVATIONS_PER_GOAL`] derivations, because
//! two credential shapes can prove one ground goal from different
//! leaves (two tenants of one object): the first derivation whose
//! leaves the requester holds is served.
//!
//! [`prove`] remains the one-shot entry point: it runs a fresh
//! throwaway session per call.

use crate::check::{check, check_own_leaves, normalize, Assumptions, Checked, Leaf};
use crate::creds::{CredSet, Creds};
use crate::formula::Formula;
use crate::principal::Principal;
use crate::proof::Proof;
use crate::term::Term;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Prover limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProverConfig {
    /// Maximum backward-chaining depth.
    pub max_depth: usize,
    /// Maximum number of subgoals explored per [`ProofSearch::prove`]
    /// call (memo hits count as one subgoal).
    pub max_subgoals: usize,
    /// Maximum number of memoized subgoal entries a session retains:
    /// a recording that finds the table full empties it and starts
    /// over ([`SearchStats::restarts`]); at 0 nothing is recorded.
    pub max_memo: usize,
}

impl Default for ProverConfig {
    fn default() -> Self {
        ProverConfig {
            max_depth: 24,
            max_subgoals: 4096,
            max_memo: 8192,
        }
    }
}

/// Cumulative statistics of a [`ProofSearch`] session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Subgoals answered from the memo table (proof spliced or
    /// refutation trusted) instead of searched.
    pub memo_hits: u64,
    /// Memoizable subgoals that had to be searched.
    pub memo_misses: u64,
    /// Frontier-sharing groups formed by [`ProofSearch::prove_batch`]
    /// (one search per group).
    pub batch_groups: u64,
    /// Batch members beyond the first of their group — requests whose
    /// entire proof was spliced from the group leader's search.
    pub batch_shared: u64,
    /// Times the memo, full at [`ProverConfig::max_memo`], started
    /// over: the one event after which the next proof is a cold search.
    pub restarts: u64,
}

/// One request's (goal, credentials) pair in a prover batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchGoal<'a> {
    /// The already-instantiated goal formula to prove.
    pub goal: &'a Formula,
    /// The credentials (label formulas) this request holds.
    pub credentials: &'a [Formula],
}

/// One request's goal and *prepared* credentials in a prover batch:
/// what [`ProofSearch::prove_prepared`] takes.
#[derive(Debug, Clone, Copy)]
pub struct PreparedGoal<'a> {
    /// The already-instantiated goal formula to prove. Members given
    /// the same reference share one normalisation.
    pub goal: &'a Formula,
    /// The credentials this request holds.
    pub credentials: Creds<'a>,
}

/// One request's outcome from an explained prover call: the proof if
/// the search succeeded, otherwise the *refutation witness* — the most
/// specific (deepest-recursion) subgoal the search refuted under the
/// request's credential set, falling back to the normalized goal
/// itself when the failure was a budget artifact with no memoized
/// refutation. The witness is what a denial audit trail reports as
/// "why": the blocking subgoal, not just "no proof".
#[derive(Debug, Clone)]
pub struct ProveOutcome {
    /// The proof, when the bounded search succeeded — already checked
    /// over its own leaves, every one of which the requester holds,
    /// and shared with the session memo and the rest of its group.
    pub proof: Option<Arc<Checked>>,
    /// On failure, the refuted subgoal (always `Some` when `proof` is
    /// `None`; always `None` when it is `Some`).
    pub refuted: Option<Formula>,
}

/// Derivations a session keeps per proved goal, oldest out. One is not
/// enough: credential shapes that prove the same goal from different
/// leaves would evict each other on every request.
pub const DERIVATIONS_PER_GOAL: usize = 4;

/// A memoized derivation, shareable across credential sets: it is
/// reused only when every recorded leaf is among the *requesting*
/// credentials, so a hit can never smuggle in a credential the
/// requester does not hold.
enum Derivation {
    /// A subgoal proved on the way to something else: copied into the
    /// proof under construction and validated as part of it. (Boxed:
    /// most goals keep one derivation, and a `Proof` inline would make
    /// every slot of every goal's queue a quarter of a kilobyte.)
    Sub {
        proof: Box<Proof>,
        /// The proof's distinct credential leaves, normalized.
        leaves: Vec<Formula>,
    },
    /// A finished search, checked when it was assembled: served by
    /// reference.
    Top(Arc<Checked>),
}

impl Derivation {
    fn proof(&self) -> &Proof {
        match self {
            Derivation::Sub { proof, .. } => proof,
            Derivation::Top(witness) => witness.proof(),
        }
    }

    fn held_by(&self, creds: Creds<'_>) -> bool {
        match self {
            Derivation::Sub { leaves, .. } => leaves.iter().all(|l| creds.holds(l)),
            Derivation::Top(witness) => holds_leaves(creds, witness),
        }
    }
}

/// The per-request half of the checker's lemma, asked of a prepared
/// set: every distinct leaf of `witness` is held.
fn holds_leaves(creds: Creds<'_>, witness: &Checked) -> bool {
    let held = |leaf: &Leaf| creds.holds_leaf(leaf.key, &leaf.normal);
    witness.leaves().iter().all(held)
}

/// The session-owned memo state shared by every search the session
/// runs.
#[derive(Default)]
struct SessionState {
    /// Proved goals keyed by normalized formula.
    proved: HashMap<Formula, VecDeque<Derivation>>,
    /// Refuted subgoals, keyed by credential-set fingerprint, then
    /// normalized formula, holding the *largest* remaining depth a
    /// search failed with (failure at depth d implies failure at any
    /// depth ≤ d under the same credentials).
    refuted: HashMap<u128, HashMap<Formula, usize>>,
    /// Total memoized entries across both tables (cap accounting).
    entries: usize,
    stats: SearchStats,
}

impl SessionState {
    fn clear(&mut self) {
        self.proved.clear();
        self.refuted.clear();
        self.entries = 0;
    }

    /// Whether one more entry may be recorded under a cap of `max_memo`
    /// (zero records nothing): a full table starts over first — nothing
    /// else empties it, and a cap must bound the memo, not deafen it.
    fn make_room(&mut self, max_memo: usize) -> bool {
        if self.entries >= max_memo && max_memo > 0 {
            self.clear();
            self.stats.restarts += 1;
        }
        self.entries < max_memo
    }

    /// The first derivation of `ng` whose leaves `creds` holds.
    fn recall(&self, ng: &Formula, creds: Creds<'_>) -> Option<&Derivation> {
        self.proved.get(ng)?.iter().find(|d| d.held_by(creds))
    }

    /// The first *finished* derivation of `ng` whose leaves `creds`
    /// holds, to be served as is.
    fn witness(&self, ng: &Formula, creds: Creds<'_>) -> Option<Arc<Checked>> {
        self.proved.get(ng)?.iter().find_map(|d| match d {
            Derivation::Top(witness) if d.held_by(creds) => Some(Arc::clone(witness)),
            _ => None,
        })
    }

    fn remember(&mut self, ng: Formula, derivation: Derivation) {
        let kept = self.proved.entry(ng).or_default();
        if kept.len() == DERIVATIONS_PER_GOAL {
            kept.pop_front();
        } else {
            self.entries += 1;
        }
        kept.push_back(derivation);
    }
}

/// A proof-search session: one prover instance whose memo table of
/// proved/refuted subgoals persists across [`ProofSearch::prove`] and
/// [`ProofSearch::prove_batch`] calls, so identical subgoal
/// derivations across a coalesced batch (or across consecutive
/// batches) are computed once.
///
/// A session may be kept across any movement of credentials (labels
/// added, revoked, transferred away) and needs no telling: the memo is
/// a pure function of (goal, credential set, limits). A derivation is
/// served only under a leaf test against the credentials the requester
/// holds *now*; a refutation answers only for the fingerprint of the
/// very set it failed under, and a removal can only make it more true.
/// The memo is **soft state**, bounded by [`ProverConfig::max_memo`]:
/// a recording that finds it full empties it and starts over.
///
/// ```
/// use nexus_nal::{parse, ProofSearch, ProverConfig};
///
/// let creds = vec![
///     parse("Owner speaksfor FileServer").unwrap(),
///     parse("Owner says ok").unwrap(),
/// ];
/// let goal = parse("FileServer says ok").unwrap();
///
/// let mut search = ProofSearch::new(ProverConfig::default());
/// let proof = search.prove(&goal, &creds).expect("delegation chain proves the goal");
/// assert!(!proof.leaves().is_empty());
///
/// // The session memoized the derivation: proving the same goal
/// // again splices the stored sub-proof instead of re-searching.
/// search.prove(&goal, &creds).expect("still provable");
/// assert!(search.stats().memo_hits >= 1);
/// ```
pub struct ProofSearch {
    cfg: ProverConfig,
    session: SessionState,
}

impl ProofSearch {
    /// A fresh session with an empty memo table.
    pub fn new(cfg: ProverConfig) -> Self {
        ProofSearch {
            cfg,
            session: SessionState::default(),
        }
    }

    /// The limits this session searches under.
    pub fn config(&self) -> ProverConfig {
        self.cfg
    }

    /// Attempt to construct a proof of `goal` from `credentials`,
    /// consulting (and growing) the session memo.
    ///
    /// Returns `None` when the bounded search fails; this does *not*
    /// mean the goal is underivable. Anything returned passes
    /// [`crate::check`](fn@crate::check::check) against `credentials`.
    pub fn prove(&mut self, goal: &Formula, credentials: &[Formula]) -> Option<Proof> {
        let set = CredSet::new(credentials);
        let outcome = self.prove_normalized(goal, &normalize(goal), Creds::new(&set));
        outcome.proof.map(|witness| witness.proof().clone())
    }

    /// Prove a whole batch, sharing the search frontier: members are
    /// partitioned into groups by (normalized goal, normalized
    /// credential set); each group is searched **once** and the
    /// resulting proof spliced into every member. Distinct groups
    /// still share memoized subgoals through the session table
    /// (guarded by the leaf check), so e.g. two groups differing only
    /// in request-specific utterances share the delegation-chain
    /// derivations underneath.
    ///
    /// Returns one entry per input, in order; the members of a group
    /// share one [`Checked`] proof.
    pub fn prove_batch(&mut self, goals: &[BatchGoal<'_>]) -> Vec<Option<Arc<Checked>>> {
        self.prove_batch_explained(goals)
            .into_iter()
            .map(|o| o.proof)
            .collect()
    }

    /// [`ProofSearch::prove_batch`], with each failure explained by
    /// its refutation witness (see [`ProveOutcome`]). The raw door:
    /// it prepares each member's credentials and proves them through
    /// [`ProofSearch::prove_prepared`].
    pub fn prove_batch_explained(&mut self, goals: &[BatchGoal<'_>]) -> Vec<ProveOutcome> {
        let sets: Vec<CredSet> = goals.iter().map(|g| CredSet::new(g.credentials)).collect();
        let prepared: Vec<PreparedGoal<'_>> = goals
            .iter()
            .zip(&sets)
            .map(|(g, set)| PreparedGoal {
                goal: g.goal,
                credentials: Creds::new(set),
            })
            .collect();
        self.prove_prepared(&prepared)
    }

    /// Prove a batch whose credentials are already prepared —
    /// grouping, memo and search as [`ProofSearch::prove_batch`]
    /// describes, normalising nothing but the goals, and each distinct
    /// goal *reference* once (a slice sharing one ground goal shares
    /// its normal form).
    pub fn prove_prepared(&mut self, goals: &[PreparedGoal<'_>]) -> Vec<ProveOutcome> {
        let mut normal_goals: Vec<(&Formula, Formula)> = Vec::new();
        let goal_of: Vec<usize> = goals
            .iter()
            .map(|g| {
                let seen = normal_goals
                    .iter()
                    .position(|(asked, _)| std::ptr::eq(*asked, g.goal));
                seen.unwrap_or_else(|| {
                    normal_goals.push((g.goal, normalize(g.goal)));
                    normal_goals.len() - 1
                })
            })
            .collect();
        // Grouping compares the actual normal forms — goal, then the
        // credential layers — never just their keys, so a collision
        // cannot hand one request another's proof. (A stable sort: a
        // group's members stay in input order, and its first one
        // leads.)
        let cmp = |&a: &usize, &b: &usize| {
            let (ga, gb) = (goal_of[a], goal_of[b]);
            let by_goal = if ga == gb {
                Ordering::Equal
            } else {
                normal_goals[ga].1.cmp(&normal_goals[gb].1)
            };
            by_goal.then_with(|| goals[a].credentials.grouping_cmp(goals[b].credentials))
        };
        let mut order: Vec<usize> = (0..goals.len()).collect();
        order.sort_by(cmp);
        let mut out: Vec<Option<ProveOutcome>> = vec![None; goals.len()];
        for members in order.chunk_by(|a, b| cmp(a, b).is_eq()) {
            self.session.stats.batch_groups += 1;
            let lead = members[0];
            let ng = &normal_goals[goal_of[lead]].1;
            let outcome = self.prove_normalized(goals[lead].goal, ng, goals[lead].credentials);
            if outcome.proof.is_some() {
                // Counted only when something was actually spliced: a
                // failed group search shares the *refutation*, not a
                // proof.
                self.session.stats.batch_shared += (members.len() - 1) as u64;
            }
            for &i in members {
                out[i] = Some(outcome.clone());
            }
        }
        out.into_iter()
            .map(|o| o.expect("every member grouped"))
            .collect()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SearchStats {
        self.session.stats
    }

    /// Number of memoized subgoal entries currently held.
    pub fn memo_len(&self) -> usize {
        self.session.entries
    }

    /// Prove `goal` (`ng` normalized) for the holder of `creds`: from
    /// the memo when a finished search for it rests only on leaves the
    /// requester holds, by searching otherwise.
    fn prove_normalized(&mut self, goal: &Formula, ng: &Formula, creds: Creds<'_>) -> ProveOutcome {
        let outcome = match self.session.witness(ng, creds) {
            Some(witness) => {
                self.session.stats.memo_hits += 1;
                ProveOutcome {
                    proof: Some(witness),
                    refuted: None,
                }
            }
            None => self.search(goal, ng, creds),
        };
        // The lemma, cross-checked wherever debug assertions are on:
        // whatever leaves here — served or freshly assembled — is a
        // proof of the goal the full checker accepts against the
        // requester's own credentials.
        debug_assert!(
            outcome.proof.as_deref().is_none_or(|witness| matches!(
                check(witness.proof(), &Assumptions::from_iter(creds.stated())),
                Ok(concl) if normalize(&concl) == *ng
            )),
            "a proof left the session that `check` rejects for its requester"
        );
        outcome
    }

    fn search(&mut self, goal: &Formula, ng: &Formula, creds: Creds<'_>) -> ProveOutcome {
        let mut s = Search {
            creds,
            // Asked for here and nowhere else: only a search scopes
            // refutations, and a served witness never gets this far.
            fp: creds.fingerprint(),
            cfg: self.cfg,
            subgoals: 0,
            budget_exhausted: false,
            hypotheses: Vec::new(),
            witness: None,
            root_memoizable: false,
            handoff_edges: compute_handoff_edges(creds),
            session: &mut self.session,
        };
        let proof = s.solve(goal, self.cfg.max_depth);
        // Whatever the search refuted most deeply is the explanation a
        // denial reports; a budget-starved failure that refuted
        // nothing falls back to the goal itself.
        let witness = s.witness.take().map(|(f, _)| f);
        let root_memoizable = s.root_memoizable;
        // Never hand back a proof that the checker would reject —
        // memoized splices included: the assembled proof is checked
        // over its own leaves, here and never again, and must conclude
        // the goal from leaves the requester holds.
        let proof = proof
            .and_then(|p| check_own_leaves(p).ok())
            .filter(|w| w.normal_conclusion() == ng && holds_leaves(creds, w))
            .map(Arc::new);
        match proof {
            Some(witness) => {
                if root_memoizable && self.session.make_room(self.cfg.max_memo) {
                    self.session
                        .remember(ng.clone(), Derivation::Top(Arc::clone(&witness)));
                }
                ProveOutcome {
                    proof: Some(witness),
                    refuted: None,
                }
            }
            None => ProveOutcome {
                proof: None,
                refuted: Some(witness.unwrap_or_else(|| ng.clone())),
            },
        }
    }
}

struct Search<'a> {
    creds: Creds<'a>,
    /// Fingerprint of the credential set (scopes refutation memos).
    fp: u128,
    cfg: ProverConfig,
    subgoals: usize,
    /// Set once the subgoal budget trips: failures after this point
    /// are budget artifacts and must not be memoized as refutations.
    budget_exhausted: bool,
    hypotheses: Vec<Formula>,
    /// The most specific refuted subgoal seen so far: the normalized
    /// formula whose (hypothesis-free) search failed with the least
    /// remaining depth — i.e. deepest in the recursion, closest to the
    /// missing credential. Surfaced as the denial explanation.
    witness: Option<(Formula, usize)>,
    /// Whether the root goal is one the memo keeps. The root's own
    /// derivation is not recorded as a raw subgoal: the session
    /// remembers it once it is [`Checked`].
    root_memoizable: bool,
    /// Delegation edges derivable by the handoff rule from
    /// credentials of the form `S says (A speaksfor B)` where S is B
    /// or an ancestor of B: (from, to, scope, proof).
    handoff_edges: Vec<(Principal, Principal, Option<Scope>, Proof)>,
    session: &'a mut SessionState,
}

/// The statement names a scoped `speaksfor` is restricted to.
type Scope = std::collections::BTreeSet<String>;

/// The BFS state of [`Search::delegation_chain`]: principals reached
/// so far and the proof path that reached each one still to expand.
struct Frontier<'a> {
    to: &'a Principal,
    seen: HashSet<Principal>,
    queue: VecDeque<(Principal, Vec<Proof>)>,
}

impl Frontier<'_> {
    /// Follow one edge from the end of `path` to `next`, unless `next`
    /// was already reached (then `edge` is never built). `Some` is the
    /// finished chain: the edge arrived at the target.
    fn follow(
        &mut self,
        path: &[Proof],
        next: &Principal,
        edge: impl FnOnce() -> Proof,
    ) -> Option<Vec<Proof>> {
        if self.seen.contains(next) {
            return None;
        }
        let mut path = path.to_vec();
        path.push(edge());
        if next == self.to {
            return Some(path);
        }
        self.seen.insert(next.clone());
        self.queue.push_back((next.clone(), path));
        None
    }
}

/// Proof that `from speaksfor from.⋯.to` via chained subprincipal
/// axioms; `None` if `to` is not a proper descendant of `from`.
fn subprin_chain(from: &Principal, to: &Principal) -> Option<Proof> {
    if !from.is_ancestor_of(to) {
        return None;
    }
    let comps = to.components();
    let skip = from.components().len();
    let mut cur = from.clone();
    let mut proof: Option<Proof> = None;
    for c in comps.iter().skip(skip) {
        let step = Proof::SubPrin(cur.clone(), c.to_string());
        cur = cur.sub(c.to_string());
        proof = Some(match proof {
            None => step,
            Some(prev) => Proof::SpeaksForTrans(Box::new(prev), Box::new(step)),
        });
    }
    proof
}

fn compute_handoff_edges(
    credentials: Creds<'_>,
) -> Vec<(Principal, Principal, Option<Scope>, Proof)> {
    let mut out = Vec::new();
    for c in credentials.stated() {
        if let Formula::Says(speaker, inner) = c {
            if let Formula::SpeaksFor { from, to, scope } = inner.as_ref() {
                if speaker == to {
                    // B says (A sf B) ⇒ A sf B.
                    out.push((
                        from.clone(),
                        to.clone(),
                        scope.clone(),
                        Proof::Handoff(Box::new(Proof::assume(c.clone()))),
                    ));
                } else if speaker.is_ancestor_of(to) {
                    // S says (A sf S.x): push the statement into S.x's
                    // worldview via the subprincipal axiom, then hand
                    // off.
                    if let Some(chain) = subprin_chain(speaker, to) {
                        let pushed = Proof::SpeaksForElim(
                            Box::new(chain),
                            Box::new(Proof::assume(c.clone())),
                        );
                        out.push((
                            from.clone(),
                            to.clone(),
                            scope.clone(),
                            Proof::Handoff(Box::new(pushed)),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Attempt to construct a proof of `goal` from `credentials` in a
/// fresh one-shot [`ProofSearch`] session.
///
/// Returns `None` when the bounded search fails; this does *not* mean
/// the goal is underivable.
pub fn prove(goal: &Formula, credentials: &[Formula], cfg: ProverConfig) -> Option<Proof> {
    ProofSearch::new(cfg).prove(goal, credentials)
}

impl<'a> Search<'a> {
    /// Remember `ng` as the refutation witness if it is the most
    /// specific refutation so far (least remaining depth = deepest in
    /// the recursion). Ties keep the earlier formula.
    fn note_witness(&mut self, ng: &Formula, depth: usize) {
        if self.witness.as_ref().is_none_or(|(_, d)| depth < *d) {
            self.witness = Some((ng.clone(), depth));
        }
    }

    fn budget(&mut self) -> bool {
        self.subgoals += 1;
        if self.subgoals > self.cfg.max_subgoals {
            self.budget_exhausted = true;
            return false;
        }
        true
    }

    fn credential_matches(&self, ng: &Formula) -> Option<Proof> {
        self.creds.find(ng).map(|c| Proof::assume(c.clone()))
    }

    fn hypothesis_matches(&self, ng: &Formula) -> Option<Proof> {
        self.hypotheses
            .iter()
            .find(|h| normalize(h) == *ng)
            .map(|h| Proof::Hypo(h.clone()))
    }

    /// Is this subgoal worth memoizing? Trivial goals are cheaper to
    /// re-derive than to look up; `Pred` leaves fail immediately.
    fn memo_worthy(ng: &Formula) -> bool {
        matches!(
            ng,
            Formula::Says(..)
                | Formula::SpeaksFor { .. }
                | Formula::And(..)
                | Formula::Or(..)
                | Formula::Implies(..)
        )
    }

    fn solve(&mut self, goal: &Formula, depth: usize) -> Option<Proof> {
        if !self.budget() || !goal.is_ground() {
            return None;
        }
        // The first subgoal a search counts is its root.
        let root = self.subgoals == 1;
        let ng = normalize(goal);
        if let Some(p) = self.credential_matches(&ng) {
            return Some(p);
        }
        if let Some(p) = self.hypothesis_matches(&ng) {
            return Some(p);
        }
        // The memo applies only in an empty hypothesis context:
        // entries must not capture (or be answered from) derivations
        // that lean on a hypothesis some other request never
        // introduced.
        let memoizable = self.hypotheses.is_empty() && Self::memo_worthy(&ng);
        if root {
            self.root_memoizable = memoizable;
        }
        if memoizable {
            // Splice only a derivation every leaf of which the
            // requester holds.
            if let Some(derivation) = self.session.recall(&ng, self.creds) {
                let spliced = derivation.proof().clone();
                self.session.stats.memo_hits += 1;
                return Some(spliced);
            }
            if let Some(&failed_depth) = self.session.refuted.get(&self.fp).and_then(|m| m.get(&ng))
            {
                // A search with at least this much depth already
                // failed under the identical credential set.
                if depth <= failed_depth {
                    self.session.stats.memo_hits += 1;
                    self.note_witness(&ng, depth);
                    return None;
                }
            }
            self.session.stats.memo_misses += 1;
        }
        if depth == 0 {
            return None;
        }
        let result = self.solve_inner(goal, depth);
        if memoizable {
            match &result {
                Some(_) if root => {}
                // Budget-starved failures are artifacts of *this*
                // search, not refutations; never memoize them.
                None if self.budget_exhausted => {}
                _ if !self.session.make_room(self.cfg.max_memo) => {}
                Some(p) => {
                    let mut leaves: Vec<Formula> = p.leaves().into_iter().map(normalize).collect();
                    leaves.sort_unstable();
                    leaves.dedup();
                    let proof = Box::new(p.clone());
                    self.session.remember(ng, Derivation::Sub { proof, leaves });
                }
                None => {
                    self.note_witness(&ng, depth);
                    let slot = self
                        .session
                        .refuted
                        .entry(self.fp)
                        .or_default()
                        .entry(ng)
                        .or_insert_with(|| {
                            self.session.entries += 1;
                            0
                        });
                    *slot = (*slot).max(depth);
                }
            }
        }
        result
    }

    fn solve_inner(&mut self, goal: &Formula, depth: usize) -> Option<Proof> {
        match goal {
            Formula::True => Some(Proof::TrueIntro),
            Formula::False => None,
            Formula::And(a, b) => {
                let pa = self.solve(a, depth - 1)?;
                let pb = self.solve(b, depth - 1)?;
                Some(Proof::AndIntro(Box::new(pa), Box::new(pb)))
            }
            Formula::Or(a, b) => {
                if let Some(pa) = self.solve(a, depth - 1) {
                    return Some(Proof::OrIntroL(Box::new(pa), b.as_ref().clone()));
                }
                self.solve(b, depth - 1)
                    .map(|pb| Proof::OrIntroR(a.as_ref().clone(), Box::new(pb)))
            }
            Formula::Implies(a, b) => {
                self.hypotheses.push(a.as_ref().clone());
                let body = self.solve(b, depth - 1);
                self.hypotheses.pop();
                body.map(|p| Proof::ImpliesIntro {
                    hypo: a.as_ref().clone(),
                    body: Box::new(p),
                })
            }
            Formula::Not(a) => {
                self.hypotheses.push(a.as_ref().clone());
                let body = self.solve(&Formula::False, depth - 1);
                self.hypotheses.pop();
                body.map(|p| Proof::NotIntro {
                    hypo: a.as_ref().clone(),
                    body: Box::new(p),
                })
            }
            Formula::Cmp(op, x, y) => match (x, y) {
                (Term::Int(_), Term::Int(_)) | (Term::Str(_), Term::Str(_)) => {
                    let proof = Proof::CmpEval(*op, x.clone(), y.clone());
                    check(&proof, &Assumptions::new()).ok().map(|_| proof)
                }
                _ => None,
            },
            Formula::Says(p, s) => self.solve_says(p, s, depth),
            Formula::SpeaksFor { from, to, scope } => {
                self.solve_speaksfor(from, to, scope.as_ref(), goal)
            }
            Formula::Pred(..) => None,
        }
    }

    fn solve_says(&mut self, p: &Principal, s: &Formula, depth: usize) -> Option<Proof> {
        // Delegation: a credential Q says s with a speaksfor path Q → p.
        let ns = normalize(s);
        let speakers: Vec<(Principal, Formula)> = self
            .creds
            .stated()
            .filter_map(|c| match c {
                Formula::Says(q, inner) if normalize(inner) == ns => Some((q.clone(), c.clone())),
                _ => None,
            })
            .collect();
        let covers = |scope: &Option<Scope>| scope.as_ref().is_none_or(|sc| s.within_scope(sc));
        for (q, cred) in speakers {
            if let Some(chain) = self.delegation_chain(&q, p, covers) {
                let mut proof = Proof::assume(cred);
                for edge in chain {
                    proof = Proof::SpeaksForElim(Box::new(edge), Box::new(proof));
                }
                return Some(proof);
            }
        }
        // Distribution: credential p says (x -> s); prove p says x.
        let candidates: Vec<(Formula, Formula)> = self
            .creds
            .stated()
            .filter_map(|c| match c {
                Formula::Says(q, inner) if q == p => match normalize(inner) {
                    Formula::Implies(x, b) if *b == ns => Some((c.clone(), (*x).clone())),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        for (cred, x) in candidates {
            if let Some(arg) = self.solve(&Formula::Says(p.clone(), Box::new(x)), depth - 1) {
                return Some(Proof::SaysApp(Box::new(Proof::assume(cred)), Box::new(arg)));
            }
        }
        // Unit: prove s outright, then lift.
        self.solve(s, depth - 1)
            .map(|body| Proof::SaysIntro(p.clone(), Box::new(body)))
    }

    /// BFS over the delegation graph from `from` to `to`; returns the
    /// speaksfor proofs to apply (innermost first). Edges:
    ///  - credentials `A speaksfor B [on σ]` and handoff edges
    ///    `S says (A sf B)` with S speaking for B, where `covers(σ)`
    ///    admits the edge's scope (a `says` goal admits scopes covering
    ///    its statement; a bare `speaksfor` goal only unscoped edges),
    ///  - subprincipal steps X → X.τ along the path toward `to`.
    ///
    /// Expansions are bounded, so the cost is set by the prover and
    /// not by the size of the (subject-supplied) credential set.
    fn delegation_chain(
        &self,
        from: &Principal,
        to: &Principal,
        covers: impl Fn(&Option<Scope>) -> bool,
    ) -> Option<Vec<Proof>> {
        const MAX_EXPANSIONS: usize = 512;
        if from == to {
            return Some(vec![]);
        }
        let mut frontier = Frontier {
            to,
            seen: HashSet::from([from.clone()]),
            queue: VecDeque::from([(from.clone(), vec![])]),
        };
        let mut steps = 0;
        while let Some((principal, path)) = frontier.queue.pop_front() {
            steps += 1;
            if steps > MAX_EXPANSIONS {
                return None;
            }
            for c in self.creds.stated() {
                if let Formula::SpeaksFor {
                    from: a,
                    to: b,
                    scope,
                } = c
                {
                    if a == &principal && covers(scope) {
                        if let Some(done) = frontier.follow(&path, b, || Proof::assume(c.clone())) {
                            return Some(done);
                        }
                    }
                }
            }
            for (a, b, scope, proof) in &self.handoff_edges {
                if a == &principal && covers(scope) {
                    if let Some(done) = frontier.follow(&path, b, || proof.clone()) {
                        return Some(done);
                    }
                }
            }
            // One component toward `to`, when `to` lies below.
            if principal.is_ancestor_of(to) {
                let next = to.components()[principal.components().len()].to_string();
                let child = principal.sub(next.clone());
                let step = || Proof::SubPrin(principal.clone(), next);
                if let Some(done) = frontier.follow(&path, &child, step) {
                    return Some(done);
                }
            }
        }
        None
    }

    fn solve_speaksfor(
        &mut self,
        from: &Principal,
        to: &Principal,
        scope: Option<&Scope>,
        goal: &Formula,
    ) -> Option<Proof> {
        if scope.is_some() {
            // Scoped speaksfor goals: exact credential match (handled
            // by the caller) or an exactly-matching handoff edge —
            // synthesizing others would need scope-weakening rules we
            // don't admit.
            let want_scope = scope.cloned();
            return self
                .handoff_edges
                .iter()
                .find(|(a, b, s, _)| a == from && b == to && s == &want_scope)
                .map(|(_, _, _, p)| p.clone());
        }
        if from == to {
            return Some(Proof::SpeaksForRefl(from.clone()));
        }
        if let Some(chain) = subprin_chain(from, to) {
            return Some(chain);
        }
        // Transitive closure over unscoped credential edges.
        let chain = self.delegation_chain(from, to, Option::is_none)?;
        let mut iter = chain.into_iter();
        let first = iter.next()?;
        let mut proof = first;
        for step in iter {
            proof = Proof::SpeaksForTrans(Box::new(proof), Box::new(step));
        }
        // Sanity: conclusion should match the goal.
        let asm = Assumptions::from_iter(self.creds.stated());
        match check(&proof, &asm) {
            Ok(c) if normalize(&c) == normalize(goal) => Some(proof),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::creds::credential_fingerprint;
    use crate::parser::parse;

    fn creds(labels: &[&str]) -> Vec<Formula> {
        labels.iter().map(|s| parse(s).unwrap()).collect()
    }

    fn prove_ok(goal: &str, labels: &[&str]) -> Proof {
        let g = parse(goal).unwrap();
        let cs = creds(labels);
        let proof = prove(&g, &cs, ProverConfig::default())
            .unwrap_or_else(|| panic!("no proof found for {goal}"));
        let asm = Assumptions::from_iter(cs.iter());
        let concl = check(&proof, &asm).expect("prover returned invalid proof");
        assert_eq!(normalize(&concl), normalize(&g));
        proof
    }

    fn prove_fails(goal: &str, labels: &[&str]) {
        let g = parse(goal).unwrap();
        let cs = creds(labels);
        assert!(
            prove(&g, &cs, ProverConfig::default()).is_none(),
            "unexpected proof for {goal}"
        );
    }

    #[test]
    fn direct_credential() {
        prove_ok("A says p", &["A says p"]);
    }

    #[test]
    fn conjunction_of_credentials() {
        prove_ok("A says p and B says q", &["A says p", "B says q"]);
    }

    #[test]
    fn disjunction_left_right() {
        prove_ok("A says p or B says q", &["A says p"]);
        prove_ok("A says p or B says q", &["B says q"]);
        prove_fails("A says p or B says q", &["C says r"]);
    }

    #[test]
    fn implication_goal() {
        prove_ok("p -> p", &[]);
        prove_ok("p -> (q -> p)", &[]);
    }

    #[test]
    fn comparison_evaluation() {
        prove_ok("3 < 5", &[]);
        prove_fails("5 < 3", &[]);
    }

    #[test]
    fn delegation_single_hop() {
        prove_ok("B says p", &["A speaksfor B", "A says p"]);
    }

    #[test]
    fn delegation_two_hops() {
        prove_ok("C says p", &["A speaksfor B", "B speaksfor C", "A says p"]);
    }

    #[test]
    fn scoped_delegation_respected() {
        prove_ok(
            "Owner says TimeNow < 20110319",
            &[
                "NTP speaksfor Owner on TimeNow",
                "NTP says TimeNow < 20110319",
            ],
        );
        prove_fails(
            "Owner says isTypeSafe(PGM)",
            &["NTP speaksfor Owner on TimeNow", "NTP says isTypeSafe(PGM)"],
        );
    }

    #[test]
    fn subprincipal_statements_flow_down() {
        prove_ok("NK.p23 says p", &["NK says p"]);
    }

    #[test]
    fn speaksfor_goal_via_transitivity() {
        prove_ok("A speaksfor C", &["A speaksfor B", "B speaksfor C"]);
        prove_fails("C speaksfor A", &["A speaksfor B", "B speaksfor C"]);
    }

    #[test]
    fn speaksfor_goal_reflexive_and_subprincipal() {
        prove_ok("A speaksfor A", &[]);
        prove_ok("NK speaksfor NK.p23.thread1", &[]);
        prove_fails("NK.p23 speaksfor NK", &[]);
    }

    #[test]
    fn says_distribution() {
        prove_ok("A says q", &["A says (p -> q)", "A says p"]);
    }

    #[test]
    fn says_unit_lifting() {
        // 3 < 5 is provable outright, so A says 3 < 5 follows by unit.
        prove_ok("A says 3 < 5", &[]);
    }

    #[test]
    fn revocation_pattern() {
        prove_ok("A says S", &["A says (Valid(S) -> S)", "A says Valid(S)"]);
    }

    #[test]
    fn paper_goal_formula_end_to_end() {
        // Instantiated goal from §2.5:
        //   Owner says TimeNow < Mar19
        //   ∧ X says openFile(filename)     [X := /proc/ipd/12]
        //   ∧ SafetyCertifier says safe(X)
        let goal = "Owner says TimeNow < 20110319 \
                    and /proc/ipd/12 says openFile(secret) \
                    and SafetyCertifier says safe(/proc/ipd/12)";
        prove_ok(
            goal,
            &[
                "NTP speaksfor Owner on TimeNow",
                "NTP says TimeNow < 20110319",
                "/proc/ipd/12 says openFile(secret)",
                "SafetyCertifier says safe(/proc/ipd/12)",
            ],
        );
    }

    #[test]
    fn no_proof_from_unrelated_false() {
        // Locality: A says false must not leak into B's worldview.
        prove_fails("B says g", &["A says false"]);
    }

    #[test]
    fn deep_delegation_chain() {
        let mut labels: Vec<String> = Vec::new();
        for i in 0..10 {
            labels.push(format!("P{} speaksfor P{}", i, i + 1));
        }
        labels.push("P0 says p".to_string());
        let refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
        prove_ok("P10 says p", &refs);
    }

    #[test]
    fn negation_goal_via_refutation() {
        // ¬p from credential p → false.
        prove_ok("not p", &["p -> false"]);
    }

    #[test]
    fn handoff_direct() {
        // B itself delegates: B says (A sf B) ⇒ A sf B.
        prove_ok("A speaksfor B", &["B says (A speaksfor B)"]);
        prove_ok("B says p", &["B says (A speaksfor B)", "A says p"]);
    }

    #[test]
    fn handoff_via_resource_manager() {
        // §2.6: when /proc/ipd/6 creates /dir/file, the fileserver
        // deposits `FS says /proc/ipd/6 speaksfor FS./dir/file`.
        // The owner can then discharge the default policy
        // `FS./dir/file says <op>` with its own statement.
        prove_ok(
            "FS./dir/file says write",
            &[
                "FS says (/proc/ipd/6 speaksfor FS./dir/file)",
                "/proc/ipd/6 says write",
            ],
        );
        // An unrelated process cannot.
        prove_fails(
            "FS./dir/file says write",
            &[
                "FS says (/proc/ipd/6 speaksfor FS./dir/file)",
                "/proc/ipd/66 says write",
            ],
        );
    }

    #[test]
    fn handoff_requires_authority_over_target() {
        // C may not hand off B's authority.
        prove_fails("A speaksfor B", &["C says (A speaksfor B)"]);
    }

    #[test]
    fn scoped_handoff() {
        prove_ok(
            "NTP speaksfor Server on TimeNow",
            &["Server says (NTP speaksfor Server on TimeNow)"],
        );
        prove_ok(
            "Server says TimeNow < 5",
            &[
                "Server says (NTP speaksfor Server on TimeNow)",
                "NTP says TimeNow < 5",
            ],
        );
        prove_fails(
            "Server says other(x)",
            &[
                "Server says (NTP speaksfor Server on TimeNow)",
                "NTP says other(x)",
            ],
        );
    }

    // ---- ProofSearch sessions ----

    #[test]
    fn session_memoizes_proved_goals() {
        let cs = creds(&["A speaksfor B", "B speaksfor C", "A says p"]);
        let g = parse("C says p").unwrap();
        let mut s = ProofSearch::new(ProverConfig::default());
        let p1 = s.prove(&g, &cs).expect("provable");
        let misses_after_first = s.stats().memo_misses;
        assert!(misses_after_first > 0, "first search must populate memo");
        let p2 = s.prove(&g, &cs).expect("still provable");
        assert_eq!(p1, p2, "memoized splice must reproduce the derivation");
        assert!(s.stats().memo_hits >= 1, "{:?}", s.stats());
        assert_eq!(
            s.stats().memo_misses,
            misses_after_first,
            "second search must be answered entirely from the memo"
        );
    }

    #[test]
    fn session_memoizes_refutations_per_credential_set() {
        let with = creds(&["A says p"]);
        let without = creds(&["B says q"]);
        let g = parse("A says p").unwrap();
        let mut s = ProofSearch::new(ProverConfig::default());
        assert!(s.prove(&g, &without).is_none());
        // The refutation is scoped to `without`'s fingerprint: the
        // richer credential set must still find the proof.
        assert!(s.prove(&g, &with).is_some());
        // And the refutation still answers for the original set.
        assert!(s.prove(&g, &without).is_none());
    }

    #[test]
    fn failed_searches_explain_themselves_with_a_refuted_subgoal() {
        // The first conjunct is provable via the A→B chain; the second
        // is not. The witness must be the blocking *subgoal*
        // (`B says q`), not merely the top-level conjunction.
        let have = creds(&["A speaksfor B", "A says p"]);
        let goal = parse("B says p and B says q").unwrap();
        let mut s = ProofSearch::new(ProverConfig::default());
        let out = s.prove_batch_explained(&[BatchGoal {
            goal: &goal,
            credentials: &have,
        }]);
        assert!(out[0].proof.is_none());
        let refuted = out[0]
            .refuted
            .clone()
            .expect("failure must carry a witness");
        assert_eq!(
            normalize(&refuted),
            normalize(&parse("B says q").unwrap()),
            "witness should be the deepest refuted subgoal"
        );
        // Successes carry no witness.
        let ok_goal = parse("B says p").unwrap();
        let out = s.prove_batch_explained(&[BatchGoal {
            goal: &ok_goal,
            credentials: &have,
        }]);
        assert!(out[0].proof.is_some());
        assert!(out[0].refuted.is_none());
        // A re-run answered from the memoized refutation still
        // explains itself.
        let out = s.prove_batch_explained(&[BatchGoal {
            goal: &goal,
            credentials: &have,
        }]);
        assert!(out[0].proof.is_none());
        assert!(out[0].refuted.is_some());
    }

    #[test]
    fn memoized_subgoal_not_reused_after_credential_movement() {
        // The prover-cache analog of the setgoal sabotage test: a
        // subgoal proved while the credential was held must not leak
        // into a search run after the credential moved away.
        let before = creds(&["Gate speaksfor Owner", "Gate says ok"]);
        let after = creds(&["Gate speaksfor Owner"]); // `Gate says ok` transferred away
        let g = parse("Owner says ok").unwrap();
        let mut s = ProofSearch::new(ProverConfig::default());
        let p = s.prove(&g, &before).expect("provable while held");
        assert!(p
            .leaves()
            .iter()
            .any(|l| normalize(l) == normalize(&parse("Gate says ok").unwrap())));
        assert!(
            s.prove(&g, &after).is_none(),
            "memoized derivation leaked a credential the requester no longer holds"
        );
    }

    #[test]
    fn shared_memo_only_splices_held_leaves() {
        // Two requesters share a delegation chain but only one holds
        // the payload credential: the memoized chain subgoals may be
        // shared, the payload-dependent proof may not.
        let rich = creds(&["A speaksfor B", "A says p", "A says q"]);
        let poor = creds(&["A speaksfor B", "A says p"]);
        let mut s = ProofSearch::new(ProverConfig::default());
        assert!(s.prove(&parse("B says q").unwrap(), &rich).is_some());
        assert!(
            s.prove(&parse("B says q").unwrap(), &poor).is_none(),
            "spliced a proof resting on a credential the requester lacks"
        );
        assert!(s.prove(&parse("B says p").unwrap(), &poor).is_some());
    }

    #[test]
    fn credential_shapes_sharing_a_goal_do_not_evict_each_other() {
        // Two tenants of one object: the same ground goal, proved from
        // different leaves. With one derivation kept per goal they
        // overwrote each other and every alternating request searched
        // afresh.
        let goal = parse("Owner says g0 and Owner says g1").unwrap();
        let shape = |who: &str| {
            creds(&[
                &format!("{who} speaksfor Owner"),
                &format!("{who} says g0"),
                &format!("{who} says g1"),
            ])
        };
        let (a, b) = (shape("A"), shape("B"));
        let mut s = ProofSearch::new(ProverConfig::default());
        assert!(s.prove(&goal, &a).is_some());
        assert!(s.prove(&goal, &b).is_some());
        let searched = s.stats().memo_misses;
        let hits = s.stats().memo_hits;
        for round in 0..8 {
            for (name, held) in [("A", &a), ("B", &b)] {
                let proof = s.prove(&goal, held).expect("still provable");
                check(&proof, &Assumptions::from_iter(held.iter()))
                    .unwrap_or_else(|e| panic!("{name} was served another shape's proof: {e:?}"));
                assert_eq!(
                    s.stats().memo_misses,
                    searched,
                    "round {round}: shape {name} searched again"
                );
            }
        }
        assert_eq!(s.stats().memo_hits, hits + 16, "one hit per served request");
    }

    #[test]
    fn a_subgoal_asked_for_outright_is_finished_once_and_then_served() {
        // `B says p` is first proved on the way to a conjunction (a raw
        // subgoal entry), then requested as a goal of its own: the first
        // such request splices and checks it, every later one is served
        // that same witness.
        let cs = creds(&["A speaksfor B", "A says p", "A says q"]);
        let both = parse("B says p and B says q").unwrap();
        let one = parse("B says p").unwrap();
        let mut s = ProofSearch::new(ProverConfig::default());
        assert!(s.prove(&both, &cs).is_some());
        let ask = |s: &mut ProofSearch| {
            let batch = [BatchGoal {
                goal: &one,
                credentials: &cs,
            }];
            s.prove_batch(&batch).remove(0).expect("provable")
        };
        let first = ask(&mut s);
        let searched = s.stats().memo_misses;
        let len = s.memo_len();
        for _ in 0..3 {
            assert!(Arc::ptr_eq(&first, &ask(&mut s)), "rebuilt, not served");
        }
        assert_eq!(s.stats().memo_misses, searched);
        assert_eq!(s.memo_len(), len, "serving records nothing");
    }

    #[test]
    fn a_goal_keeps_a_bounded_number_of_derivations() {
        // One more shape than a goal keeps: the oldest derivation goes,
        // the memo's size stays put, and every verdict is still right.
        let goal = parse("Owner says g").unwrap();
        let shapes: Vec<Vec<Formula>> = (0..=DERIVATIONS_PER_GOAL)
            .map(|i| creds(&[&format!("S{i} speaksfor Owner"), &format!("S{i} says g")]))
            .collect();
        let mut s = ProofSearch::new(ProverConfig::default());
        for held in &shapes[..DERIVATIONS_PER_GOAL] {
            assert!(s.prove(&goal, held).is_some());
        }
        let full = s.memo_len();
        assert!(s.prove(&goal, &shapes[DERIVATIONS_PER_GOAL]).is_some());
        assert_eq!(s.memo_len(), full, "oldest out, not one more in");
        let searched = s.stats().memo_misses;
        assert!(s.prove(&goal, &shapes[0]).is_some(), "evicted, not refuted");
        assert!(s.stats().memo_misses > searched, "shape 0 was the oldest");
    }

    #[test]
    fn prove_batch_shares_identical_groups() {
        let shared: Vec<Formula> = creds(&["A speaksfor B", "A says p"]);
        let g = parse("B says p").unwrap();
        let batch: Vec<BatchGoal<'_>> = (0..6)
            .map(|_| BatchGoal {
                goal: &g,
                credentials: &shared,
            })
            .collect();
        let mut s = ProofSearch::new(ProverConfig::default());
        let out = s.prove_batch(&batch);
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|p| p.is_some()));
        let st = s.stats();
        assert_eq!(st.batch_groups, 1, "identical members form one group");
        assert_eq!(st.batch_shared, 5, "five members rode the leader's search");
        // Every spliced proof checks against the member's credentials.
        let asm = Assumptions::from_iter(shared.iter());
        for p in out.into_iter().flatten() {
            let c = check(p.proof(), &asm).expect("spliced proof must check");
            assert_eq!(normalize(&c), normalize(&g));
        }
    }

    #[test]
    fn prove_batch_mixed_groups_stay_isolated() {
        let holder = creds(&["Gate says open"]);
        let stranger = creds(&["Other says open"]);
        let g = parse("Gate says open").unwrap();
        let batch = vec![
            BatchGoal {
                goal: &g,
                credentials: &holder,
            },
            BatchGoal {
                goal: &g,
                credentials: &stranger,
            },
            BatchGoal {
                goal: &g,
                credentials: &holder,
            },
        ];
        let mut s = ProofSearch::new(ProverConfig::default());
        let out = s.prove_batch(&batch);
        assert!(out[0].is_some());
        assert!(
            out[1].is_none(),
            "stranger must not ride the holders' proof"
        );
        assert!(out[2].is_some());
        assert_eq!(s.stats().batch_groups, 2);
        assert_eq!(s.stats().batch_shared, 1);
    }

    #[test]
    fn fingerprints_are_order_insensitive_and_spelling_insensitive() {
        let a = creds(&["A says p", "B says q", "not r"]);
        let b = creds(&["B says q", "r -> false", "A says p"]);
        assert_eq!(credential_fingerprint(&a), credential_fingerprint(&b));
        let c = creds(&["A says p"]);
        assert_ne!(credential_fingerprint(&a), credential_fingerprint(&c));
    }

    #[test]
    fn memo_cap_disables_recording_not_search() {
        let cfg = ProverConfig {
            max_memo: 0,
            ..ProverConfig::default()
        };
        let cs = creds(&["A speaksfor B", "A says p"]);
        let g = parse("B says p").unwrap();
        let mut s = ProofSearch::new(cfg);
        assert!(s.prove(&g, &cs).is_some());
        assert_eq!(s.memo_len(), 0, "cap must hold");
        assert!(s.prove(&g, &cs).is_some(), "search still works uncached");
    }

    #[test]
    fn a_full_memo_starts_over_and_records_again() {
        // The cap bounds the table; it must not deafen it. Nothing but
        // the cap ever empties a session, so a table that stopped
        // recording when full would search everything cold for good.
        const CAP: usize = 6;
        let cfg = ProverConfig {
            max_memo: CAP,
            ..ProverConfig::default()
        };
        let mut s = ProofSearch::new(cfg);
        // Fill it with refutations, each under its own fingerprint.
        let missing = parse("Owner says g").unwrap();
        let mut strangers = 0;
        while s.memo_len() < CAP {
            let held = creds(&[&format!("S{strangers} says h")]);
            assert!(s.prove(&missing, &held).is_none());
            assert!(s.memo_len() <= CAP, "cap must hold while filling");
            strangers += 1;
        }
        assert_eq!(s.stats().restarts, 0, "filling to the cap is not a restart");
        // A fresh provable goal: recorded after a start-over, then served.
        let cs = creds(&["A speaksfor B", "A says p"]);
        let g = parse("B says p").unwrap();
        assert!(s.prove(&g, &cs).is_some());
        assert!(s.memo_len() <= CAP);
        assert_eq!(s.stats().restarts, 1, "{:?}", s.stats());
        let before = s.stats();
        assert!(s.prove(&g, &cs).is_some());
        assert!(s.memo_len() <= CAP);
        let after = s.stats();
        assert_eq!(
            after.memo_hits,
            before.memo_hits + 1,
            "served, not searched"
        );
        assert_eq!(after.memo_misses, before.memo_misses);
        assert_eq!(after.restarts, 1);
    }

    #[test]
    fn deeper_search_not_blocked_by_shallow_refutation() {
        // A refutation recorded at depth d must not answer a query
        // arriving with *more* depth to spend.
        let cs = creds(&["A says p"]);
        let g = parse("B says (C says (A says p))").unwrap(); // needs nested SaysIntro
        let shallow = ProverConfig {
            max_depth: 1,
            ..ProverConfig::default()
        };
        let mut s = ProofSearch::new(shallow);
        assert!(s.prove(&g, &cs).is_none(), "depth 1 cannot nest says");
        // Same session, deeper config would be a different ProofSearch;
        // simulate by a fresh session sharing nothing — the scoped
        // refutation in `s` was recorded with its failing depth, so a
        // deeper search in the same session must re-search. We can't
        // reconfigure a session, so assert the depth guard directly:
        // a second shallow query is a memo hit...
        let hits_before = s.stats().memo_hits;
        assert!(s.prove(&g, &cs).is_none());
        assert!(s.stats().memo_hits > hits_before);
        // ...and a default-depth one-shot search succeeds.
        assert!(prove(&g, &cs, ProverConfig::default()).is_some());
    }
}
