//! The authorization path (Figure 1): route a request (hot-index
//! read → decision-cache probe → pipeline submission), evaluate it
//! under a read stamp, and validate the stamp before any verdict
//! leaves.

use super::process::IpdHot;
use super::{Nexus, NexusConfig};
use crate::error::KernelError;
use nexus_authzd::{AuthzOutcome, AuthzRequest, AuthzTicket};
use nexus_core::{AccessRequest, Guard, OpName, ProofRef, ResourceId, SubjectDigest};
use nexus_nal::{
    Checked, CredSet, Creds, Formula, PreparedGoal, Principal, Proof, ProverConfig, Term,
};
use nexus_obs::{event as audit_event, AuditPath, AuditVerdict, Stage};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

impl Nexus {
    /// Authorize `pid` performing `op` on `object` using the stored
    /// proof (or auto-proving from held labels when configured).
    ///
    /// When the asynchronous pipeline is running, a decision-cache
    /// miss is submitted to the [`nexus_authzd::GuardPool`] and this
    /// call blocks on the ticket — same verdict, but the guard runs
    /// off-thread and coalesces with concurrent requests for the same
    /// goal.
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
        let outcome = match self.route_authz(pid, op, object, inline_proof)? {
            AuthzRoute::Cached(allow) => return Ok(allow),
            AuthzRoute::Submitted(ticket, opn) => match ticket.wait() {
                // A fault (the pool shed the submission, raced a
                // shutdown mid-flight, or epoch churn starved the
                // batch) degrades to evaluation on the caller's
                // thread rather than surfacing an error for an
                // evaluable request.
                AuthzOutcome::Fault(_) => self.evaluate_inline(pid, &opn, object, inline_proof),
                verdict => verdict,
            },
            AuthzRoute::Evaluate(opn) => self.evaluate_inline(pid, &opn, object, inline_proof),
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
    /// submission refused at the pipeline's high-water mark surfaces
    /// as a ticket already resolved to [`AuthzOutcome::Fault`] — the
    /// caller decides whether to retry, degrade, or evaluate by other
    /// means; it is never parked behind an unbounded queue.
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
        match self.route_authz(pid, op, object, inline_proof)? {
            AuthzRoute::Cached(allow) => Ok(AuthzTicket::ready(outcome_of(allow))),
            AuthzRoute::Submitted(ticket, _) => Ok(ticket),
            AuthzRoute::Evaluate(opn) => Ok(AuthzTicket::ready(self.evaluate_inline(
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
    ///
    /// A cached verdict returns having taken no lock and allocated
    /// nothing: everything it reads is `Copy` or borrowed from the
    /// caller. The owned operation name — and, further in, the
    /// principal — exist only once the probe has missed.
    fn route_authz(
        &self,
        pid: u64,
        op: &str,
        object: &ResourceId,
        inline_proof: Option<&Proof>,
    ) -> Result<AuthzRoute, KernelError> {
        // The hot-index read resolves the subject's current name in
        // the cache with zero locks — the submission path never waits
        // behind a spawn or a `say`.
        let subject = self.with_hot(pid, IpdHot::subject)?;
        let telemetry_on = self.telemetry.enabled();
        if self.decision_cache_on() {
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
            if let Some(allow) = self.dcache.probe(subject, op, object) {
                if let Some(start) = hit_start {
                    self.audit_cache_hit(pid, op, object, allow, start);
                }
                return Ok(AuthzRoute::Cached(allow));
            }
        }
        let opn = OpName::from(op);
        if let Some(pool) = self.authz_pool() {
            // The label shape is a coalescing hint: requests batch
            // only with same-shaped credential sets, so the batch
            // prover's frontier sharing is maximal. One atomic load
            // off the hot index, which only a submission pays.
            let label_shape = self.with_hot(pid, |h| h.shape.load(Ordering::Relaxed))?;
            if let Some(ticket) = pool.try_submit(AuthzRequest {
                pid,
                op: opn.clone(),
                object: object.clone(),
                // The one copy a supplied proof gets: into the `Arc`
                // that crosses to the worker.
                proof: inline_proof.map(|p| Arc::new(p.clone())),
                external: self.classify_external(pid, &opn, object, inline_proof),
                label_shape,
                submitted_at: telemetry_on.then(Instant::now),
            }) {
                return Ok(AuthzRoute::Submitted(ticket, opn));
            }
        }
        Ok(AuthzRoute::Evaluate(opn))
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
        pid: u64,
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
                // The principal is cloned out first: a store read
                // nested inside the index read would be re-entrant.
                None => self
                    .with_hot(pid, |h| h.principal.clone())
                    .ok()
                    .and_then(|subject| self.proofs.inspect(&subject, opn, object, leaves_external))
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
    /// and therefore share its goal: the goal is fetched once and
    /// asked once whether it is ground — a ground goal is its own
    /// instance for every request, so it is copied for none and
    /// normalised once per slice, by the prover and by
    /// `Guard::check_batch` alike — and requests without a proof are
    /// auto-proved through one shared prover session.
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
    pub(super) fn evaluate_authz(
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
            let open_goal = (!goal.is_ground()).then_some(&goal);
            let mut prepared: Vec<Result<PreparedRequest<'_>, KernelError>> = reqs
                .iter()
                .map(|r| self.prepare_request(r.pid, opn, object, open_goal, r.proof, &cfg))
                .collect();
            let prove_start = t0.map(|_| Instant::now());
            self.auto_prove_prepared(&goal, &mut prepared);
            let prove_end = t0.map(|_| Instant::now());
            let access: Vec<AccessRequest<'_>> = prepared
                .iter()
                .flatten()
                .map(|p| AccessRequest {
                    subject: &p.subject,
                    operation: opn,
                    object,
                    proof: p.proof.as_ref().map(HeldProof::as_proof_ref),
                    labels: p.credentials(),
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
                        let cacheable = decision.cacheable && (!p.auto_prove || decision.allow);
                        if cfg.decision_cache && cacheable {
                            self.dcache
                                .fill_if(p.digest, &opn.0, object, decision.allow, || {
                                    self.stamp_still_valid(&stamp)
                                });
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
        op: &str,
        object: &ResourceId,
        allow: bool,
        start: Instant,
    ) {
        let mut ev = audit_event(
            pid,
            op,
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
    /// marked for auto-proving — and, when the slice's goal has
    /// variables (`open_goal`), given its own instance of it — the
    /// search itself is deferred to [`Nexus::auto_prove_prepared`] so a
    /// slice's searches share one prover session.
    fn prepare_request<'a>(
        &self,
        pid: u64,
        opn: &OpName,
        object: &ResourceId,
        open_goal: Option<&Formula>,
        supplied: Option<&'a Proof>,
        cfg: &NexusConfig,
    ) -> Result<PreparedRequest<'a>, KernelError> {
        // The name first, the labels second: a verdict is filed under
        // a generation read no later than the labels it was computed
        // from (`IpdHot::subject`).
        let (subject, digest) = self.with_hot(pid, |h| (h.principal.clone(), h.subject()))?;
        // The subject's credentials: its labelstore plus the request
        // itself, which arrived over the attested syscall channel and
        // is therefore an utterance the kernel can vouch for. The
        // store's set was prepared when it last changed and is taken
        // by reference; the two utterances are the only formulas
        // built, and the only ones prepared, per request.
        let held = self.ipds.read().get(pid)?.labelstore.formulas_snapshot();
        let uttered = CredSet::new(&[
            Formula::pred(&opn.0, vec![]).says(subject.clone()),
            Formula::pred(&opn.0, vec![Term::sym(object.0.clone())]).says(subject.clone()),
        ]);
        let proof = match supplied {
            Some(p) => Some(HeldProof::Supplied(p)),
            None => self
                .proofs
                .get(&subject, opn, object)
                .map(HeldProof::Stored),
        };
        // Auto-proving makes the outcome depend on the subject's label
        // set. Cached allows on that path stay valid because labels
        // only ever *leave* a store through `withdraw`, which renames
        // the subject: they stay behind under a name nobody probes.
        let auto_prove = proof.is_none() && cfg.auto_prove;
        let own_goal = open_goal.filter(|_| auto_prove).map(|goal| {
            let probe = AccessRequest {
                subject: &subject,
                operation: opn,
                object,
                proof: None,
                labels: Creds::new(&held),
            };
            Guard::instantiate_goal(goal, &probe)
        });
        Ok(PreparedRequest {
            subject,
            digest,
            held,
            uttered,
            proof,
            auto_prove,
            own_goal,
            refuted: None,
        })
    }

    /// Construct proofs for every prepared request that arrived
    /// without one, routing the whole set through the guard's batch
    /// prover: one persistent `ProofSearch` session whose memo is
    /// shared by the slice and by every later one. The guard is told
    /// nothing about label removals: a memoized derivation is served
    /// only if its leaves are among the credentials handed in here,
    /// read for this very evaluation. A goal
    /// with variables was instantiated per request (`$subject`
    /// differs); a ground `goal` is every request's instance, handed
    /// to the prover as the one reference it normalises once.
    fn auto_prove_prepared(
        &self,
        goal: &Formula,
        prepared: &mut [Result<PreparedRequest<'_>, KernelError>],
    ) {
        let goals: Vec<PreparedGoal<'_>> = prepared
            .iter()
            .flatten()
            .filter(|p| p.auto_prove)
            .map(|p| PreparedGoal {
                goal: p.own_goal.as_ref().unwrap_or(goal),
                credentials: p.credentials(),
            })
            .collect();
        if goals.is_empty() {
            return;
        }
        let outcomes = self.guard.prove_prepared(&goals, ProverConfig::default());
        let needy = prepared.iter_mut().flatten().filter(|p| p.auto_prove);
        for (p, out) in needy.zip(outcomes) {
            p.proof = out.proof.map(HeldProof::Proved);
            p.refuted = out.refuted;
        }
    }

    /// The (goal, proof, label-removal) epoch triple the staleness
    /// fences compare.
    pub(super) fn epoch_snapshot(&self) -> (u64, u64, u64) {
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
}

/// Where [`Nexus::route_authz`] sent a request.
enum AuthzRoute {
    /// The decision cache answered.
    Cached(bool),
    /// Submitted to the running pipeline (the name is kept for the
    /// caller-thread evaluation a faulted ticket falls back to).
    Submitted(AuthzTicket, OpName),
    /// Caller evaluates on its own thread.
    Evaluate(OpName),
}

/// One request as [`Nexus::evaluate_authz`] sees it; the operation and
/// object are shared by the whole slice.
pub(super) struct EvalRequest<'a> {
    pub(super) pid: u64,
    /// An explicitly supplied proof (otherwise stored, else auto-proved).
    pub(super) proof: Option<&'a Proof>,
    /// When a pipeline submitter stamped the request (telemetry only).
    pub(super) submitted_at: Option<Instant>,
}

/// The proof a prepared request is checked with, held the way it
/// arrived: nothing proof-sized is copied between the caller, the
/// proof store, the prover and the guard.
enum HeldProof<'a> {
    /// Supplied with the request: borrowed from the caller, or from the
    /// `Arc` that crossed to the worker.
    Supplied(&'a Proof),
    /// Installed ahead of time; shared with the proof store.
    Stored(Arc<Proof>),
    /// Constructed by the prover, which established its soundness when
    /// it assembled it; shared with the prover's memo.
    Proved(Arc<Checked>),
}

impl HeldProof<'_> {
    fn as_proof_ref(&self) -> ProofRef<'_> {
        match self {
            HeldProof::Supplied(proof) => ProofRef::Raw(proof),
            HeldProof::Stored(proof) => ProofRef::Raw(proof),
            HeldProof::Proved(witness) => ProofRef::Checked(witness),
        }
    }
}

/// Everything request-specific the guard consumes, assembled once per
/// request per evaluation attempt.
struct PreparedRequest<'a> {
    subject: Principal,
    /// `subject` as the decision cache fills for it.
    digest: SubjectDigest,
    /// The subject's labels, as its store prepared them when they last
    /// changed: shared, not copied.
    held: Arc<CredSet>,
    /// The request's own two utterances.
    uttered: CredSet,
    proof: Option<HeldProof<'a>>,
    /// Set exactly when the request arrived without a supplied or
    /// stored proof and auto-proving is on — `proof` is then whatever
    /// the prover constructed.
    auto_prove: bool,
    /// The slice's goal instantiated for this request: only for an
    /// auto-proved request, and only when that goal has variables (a
    /// ground goal is its own instance).
    own_goal: Option<Formula>,
    /// For auto-proved requests whose search failed: the deepest
    /// subgoal the prover refuted (the "why" behind a deny), carried
    /// into the audit journal.
    refuted: Option<Formula>,
}

impl PreparedRequest<'_> {
    /// What the request is evaluated against: the subject's prepared
    /// labels, then its own utterances.
    fn credentials(&self) -> Creds<'_> {
        Creds::new(&self.held).with_request(&self.uttered)
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
