//! The decision audit journal: a bounded ring of per-verdict events.
//!
//! The journal makes the logical-attestation story *observable*: every
//! recorded event says who asked, what they asked for, what the answer
//! was, under which epoch triple it was decided — and, for a denial,
//! which subgoal the prover refuted. It is diagnostics, not an audit
//! *log*: bounded, lossy under overload, and never on the hot path's
//! critical section.
//!
//! ## Torn-write safety
//!
//! Slots are claimed lock-free (one `fetch_add` on the head counter);
//! the slot *payload* sits behind a per-slot mutex that is uncontended
//! except when a writer laps the ring onto a slot another writer or
//! reader currently holds. Both sides use `try_lock`:
//!
//! * a writer that loses the race **drops its event** (counted in
//!   `dropped`) rather than blocking the authorize path;
//! * a reader that loses skips the slot — it sees a coherent older
//!   ring, never a half-written event.
//!
//! This is the safe-Rust analog of the decision cache's seqlock
//! discipline (torn read ⇒ miss): a torn *write* becomes a dropped
//! event, a torn *read* becomes a skipped slot, and no observer can
//! ever see interleaved halves of two events. Wraparound order is
//! recovered from the monotone per-event sequence number, not from
//! slot position.

use crate::registry::{Collect, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The verdict an audit event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditVerdict {
    /// The request was allowed.
    Allow,
    /// The request was denied.
    Deny,
    /// Evaluation faulted (pool shutdown, unstable epoch, bad pid).
    Fault,
    /// An analyzer minted a credential into a labelstore.
    Mint,
    /// An analyzer refused to mint (the analysis found a witness;
    /// the event's `refuted` field carries it).
    Refuse,
    /// A previously minted credential was revoked (re-analysis after
    /// a binary change).
    Revoke,
}

impl AuditVerdict {
    /// Stable lowercase name (for rendering).
    pub fn name(&self) -> &'static str {
        match self {
            AuditVerdict::Allow => "allow",
            AuditVerdict::Deny => "deny",
            AuditVerdict::Fault => "fault",
            AuditVerdict::Mint => "mint",
            AuditVerdict::Refuse => "refuse",
            AuditVerdict::Revoke => "revoke",
        }
    }
}

/// Which authorization path produced the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditPath {
    /// Decision-cache hit (sampled; see the kernel's `ObsConfig`).
    CacheHit,
    /// Inline (caller-thread) guard evaluation.
    Inline,
    /// Batched evaluation on the authzd pipeline.
    Pipeline,
    /// A labeling-function (analyzer) credential event — mint,
    /// refuse, or revoke — rather than an authorization verdict.
    Analyzer,
    /// A label change applied from a remotely agreed broadcast op
    /// (the distributed credential layer), not a local system call.
    Replication,
}

impl AuditPath {
    /// Stable lowercase name (for rendering).
    pub fn name(&self) -> &'static str {
        match self {
            AuditPath::CacheHit => "cache-hit",
            AuditPath::Inline => "inline",
            AuditPath::Pipeline => "pipeline",
            AuditPath::Analyzer => "analyzer",
            AuditPath::Replication => "replication",
        }
    }
}

/// Per-stage spans (nanoseconds) known at the recording site. Stages
/// a path does not traverse stay `None` — a cache hit has only
/// `complete`; a pipeline event carries the spans its evaluator
/// measured, while full queue-wait distributions live in the stage
/// histograms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSpans {
    /// Submission (admission into the pipeline queue).
    pub submit_ns: Option<u64>,
    /// Time spent queued before a worker popped the request (for
    /// pipeline events: measured submit→evaluation-start).
    pub queue_wait_ns: Option<u64>,
    /// Batch assembly (coalescing scan) span.
    pub batch_assembly_ns: Option<u64>,
    /// Proof construction (auto-prove) span.
    pub prove_ns: Option<u64>,
    /// Proof checking (guard) span.
    pub verify_ns: Option<u64>,
    /// End-to-end span observed by the recording site.
    pub complete_ns: Option<u64>,
}

/// One recorded authorization verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEvent {
    /// Monotone sequence number (journal-global claim order).
    pub seq: u64,
    /// Requesting process.
    pub pid: u64,
    /// Operation attempted.
    pub op: String,
    /// Object operated on.
    pub object: String,
    /// The verdict.
    pub verdict: AuditVerdict,
    /// The path that produced it.
    pub path: AuditPath,
    /// Did the decision come from the kernel decision cache?
    pub cache_hit: bool,
    /// The (goal, proof, label-removal) epoch triple the decision was
    /// evaluated under.
    pub epochs: [u64; 3],
    /// Cumulative prover-memo hit counter at event time (a snapshot of
    /// the guard's session counter, not a per-request delta).
    pub memo_hits: u64,
    /// Per-stage spans known at the recording site.
    pub stages: StageSpans,
    /// For denials: the subgoal the prover refuted (or the deny
    /// reason's blocking formula), rendered as NAL text.
    pub refuted: Option<String>,
}

/// A bounded ring of [`AuditEvent`]s. See the module docs for the
/// concurrency discipline.
pub struct AuditJournal {
    head: AtomicU64,
    dropped: AtomicU64,
    slots: Vec<Mutex<Option<AuditEvent>>>,
}

impl AuditJournal {
    /// A journal holding the last `capacity` events (rounded up to 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        AuditJournal {
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events recorded since creation (claims, including any that were
    /// subsequently dropped in a slot race).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events dropped because their slot was held by a concurrent
    /// writer or reader at write time.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Record an event. Never blocks: the slot claim is one
    /// `fetch_add`; if the claimed slot is momentarily held (a lapping
    /// writer or a reader mid-scan), the event is dropped and counted.
    pub fn push(&self, mut event: AuditEvent) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        event.seq = seq;
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        match slot.try_lock() {
            Ok(mut guard) => {
                // A slower writer lapped by a faster one must not
                // clobber the newer event with its older one.
                let stale = matches!(&*guard, Some(existing) if existing.seq > seq);
                if stale {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                } else {
                    *guard = Some(event);
                }
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The most recent `n` events, newest first. Slots held by
    /// concurrent writers are skipped (never torn); ordering is by
    /// sequence number, so wraparound cannot interleave old and new.
    pub fn recent(&self, n: usize) -> Vec<AuditEvent> {
        let mut events: Vec<AuditEvent> = self
            .slots
            .iter()
            .filter_map(|slot| match slot.try_lock() {
                Ok(guard) => guard.clone(),
                Err(_) => None,
            })
            .collect();
        events.sort_by_key(|e| std::cmp::Reverse(e.seq));
        events.truncate(n);
        events
    }
}

impl Collect for AuditJournal {
    fn collect(&self, r: &mut MetricsRegistry) {
        r.counter(
            "nexus_audit_recorded_total",
            "audit events recorded (slot claims)",
            self.recorded(),
        )
        .counter(
            "nexus_audit_dropped_total",
            "audit events dropped in slot races",
            self.dropped(),
        );
    }
}

/// A blank event for a given (pid, op, object, verdict, path);
/// recording sites fill in the rest. `seq` is assigned by
/// [`AuditJournal::push`].
pub fn event(
    pid: u64,
    op: impl Into<String>,
    object: impl Into<String>,
    verdict: AuditVerdict,
    path: AuditPath,
) -> AuditEvent {
    AuditEvent {
        seq: 0,
        pid,
        op: op.into(),
        object: object.into(),
        verdict,
        path,
        cache_hit: matches!(path, AuditPath::CacheHit),
        epochs: [0; 3],
        memo_hits: 0,
        stages: StageSpans::default(),
        refuted: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(pid: u64) -> AuditEvent {
        event(pid, "op", "obj", AuditVerdict::Allow, AuditPath::Inline)
    }

    #[test]
    fn wraparound_keeps_newest_in_sequence_order() {
        let j = AuditJournal::new(4);
        for pid in 0..10 {
            j.push(ev(pid));
        }
        let recent = j.recent(10);
        // Capacity 4: only the last four survive, newest first.
        assert_eq!(recent.len(), 4);
        let pids: Vec<u64> = recent.iter().map(|e| e.pid).collect();
        assert_eq!(pids, vec![9, 8, 7, 6]);
        let seqs: Vec<u64> = recent.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![9, 8, 7, 6]);
        assert_eq!(j.recorded(), 10);
        // `recent(n)` truncates.
        assert_eq!(j.recent(2).len(), 2);
        assert_eq!(j.recent(2)[0].pid, 9);
    }

    #[test]
    fn concurrent_pushes_never_tear_and_account_for_every_claim() {
        let j = Arc::new(AuditJournal::new(8));
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 2_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let j = Arc::clone(&j);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let mut e = ev(t);
                        // A recognizable cross-field invariant: op and
                        // object both derive from (t, i), so a torn
                        // write would be visible as a mismatched pair.
                        e.op = format!("op-{t}-{i}");
                        e.object = format!("obj-{t}-{i}");
                        j.push(e);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(j.recorded(), THREADS * PER_THREAD);
        for e in j.recent(usize::MAX) {
            let op_tail = e.op.strip_prefix("op-").unwrap();
            let obj_tail = e.object.strip_prefix("obj-").unwrap();
            assert_eq!(op_tail, obj_tail, "torn event: {e:?}");
        }
    }

    #[test]
    fn readers_skip_slots_held_by_writers() {
        let j = AuditJournal::new(2);
        j.push(ev(1));
        j.push(ev(2));
        // Hold slot 0 (seq 0's slot) as if a writer were mid-flight.
        let _held = j.slots[0].try_lock().unwrap();
        let recent = j.recent(10);
        assert_eq!(recent.len(), 1, "held slot must be skipped, not torn");
        assert_eq!(recent[0].pid, 2);
        // A push that lands on the held slot is dropped, not blocked.
        j.push(ev(3));
        assert_eq!(j.dropped(), 1);
    }

    #[test]
    fn denial_events_carry_the_refuted_subgoal() {
        let j = AuditJournal::new(8);
        let mut e = event(
            9,
            "write",
            "/secret",
            AuditVerdict::Deny,
            AuditPath::Pipeline,
        );
        e.refuted = Some("Owner says ok".to_string());
        j.push(e);
        let got = &j.recent(1)[0];
        assert_eq!(got.verdict, AuditVerdict::Deny);
        assert_eq!(got.refuted.as_deref(), Some("Owner says ok"));
    }
}
