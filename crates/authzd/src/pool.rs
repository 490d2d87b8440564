//! The guard pool: worker threads pulling from MPMC submission
//! queues, coalescing requests that share a goal into batches, and
//! completing tickets.
//!
//! Coalescing is the point: requests for the same `(op, object)` pair
//! evaluate against the same goal formula, so the executor fetches,
//! instantiates, and normalizes that goal once per *batch* instead of
//! once per *request* (§2.9's guard-cache insight applied across
//! concurrent requests instead of across time). Batches additionally
//! coalesce on the requests' *label shape* — a fingerprint of the
//! submitting process's credential set — so the executor's batch
//! prover sees maximal frontier sharing: every member of a batch
//! shares one (goal, credential-shape) pair and auto-proved requests
//! ride one proof search.
//!
//! Admission is bounded and authorities are isolated: see the crate
//! docs for the two liveness properties ([`GuardPoolConfig::max_queued`],
//! and the external lane sized by
//! [`GuardPoolConfig::external_workers`]).
//!
//! What the pool *counts* and what it *synchronises on* are separate:
//! [`PoolStats`] is a table of relaxed counter cells; the invalidation
//! fence ([`GuardPool::quiesce`]) waits on tallies kept in the queue.

use crate::ticket::{AuthzOutcome, AuthzTicket, TicketInner};
use crate::{AuthzRequest, BatchKey};
use nexus_obs::{Stage, StageTimers};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// How a batch of coalesced requests is evaluated. Implemented by the
/// kernel (the real guard path) and by test doubles.
pub trait BatchExecutor: Send + Sync {
    /// Evaluate a batch sharing one [`BatchKey`]; must return exactly
    /// one outcome per request, in order. The executor owns epoch
    /// fencing: if goals/proofs/labels moved while the batch was in
    /// flight, it must re-evaluate rather than let a stale allow
    /// escape.
    fn execute_batch(&self, key: &BatchKey, reqs: &[AuthzRequest]) -> Vec<AuthzOutcome>;
}

/// Priority for queue ordering: higher runs first. The kernel wires
/// this to per-IPD scheduler weights so heavyweight tenants' batches
/// are picked up before lightweights' when the queue backs up.
pub type Prioritizer = Arc<dyn Fn(&AuthzRequest) -> u64 + Send + Sync>;

/// Pool configuration.
#[derive(Clone)]
pub struct GuardPoolConfig {
    /// Number of worker threads on the embedded lane.
    pub workers: usize,
    /// Maximum requests coalesced into one batch.
    pub max_batch: usize,
    /// Optional request prioritizer (None = FIFO).
    pub prioritizer: Option<Prioritizer>,
    /// High-water mark per lane: a submission that would leave more
    /// than this many requests queued in its lane is not admitted —
    /// its ticket resolves immediately to [`AuthzOutcome::Fault`]
    /// (the kernel's sync path then evaluates on the caller's thread,
    /// so overload sheds to the submitter instead of growing the
    /// queue without bound). `usize::MAX` restores unbounded queues.
    pub max_queued: usize,
    /// Workers dedicated to requests classified as external-authority
    /// -touching ([`AuthzRequest::external`]). `0` disables the lane:
    /// external requests then share the embedded queue and a stuck
    /// authority can wedge the whole pool — a topology for pools
    /// that never see external authorities, not a baseline (its
    /// measured collapse is recorded under "Retired baselines" in
    /// `docs/ARCHITECTURE.md`).
    pub external_workers: usize,
    /// Per-stage latency timers, shared (same `Arc`) with the kernel
    /// so pool-side spans (submit, queue-wait, batch-assembly,
    /// complete) and kernel-side spans (prove, verify) land in one
    /// set of histograms. `None` — or a disabled timer set — records
    /// nothing.
    pub stage_timers: Option<Arc<StageTimers>>,
}

impl Default for GuardPoolConfig {
    fn default() -> Self {
        GuardPoolConfig {
            workers: 4,
            max_batch: 64,
            prioritizer: None,
            max_queued: 4096,
            external_workers: 1,
            stage_timers: None,
        }
    }
}

impl std::fmt::Debug for GuardPoolConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuardPoolConfig")
            .field("workers", &self.workers)
            .field("max_batch", &self.max_batch)
            .field("prioritizer", &self.prioritizer.is_some())
            .field("max_queued", &self.max_queued)
            .field("external_workers", &self.external_workers)
            .field("stage_timers", &self.stage_timers.is_some())
            .finish()
    }
}

nexus_obs::counters! {
    /// Pool statistics.
    pub struct PoolStats, live PoolCounters {
        /// Requests submitted (admitted into a queue).
        submitted: plain counter "nexus_authz_submitted_total" "pipeline submissions",
        /// Requests completed (including faults of admitted requests).
        completed: plain counter "nexus_authz_completed_total" "pipeline completions",
        /// Batches executed.
        batches: plain counter "nexus_authz_batches_total" "pipeline batches",
        /// Requests that rode along in a batch after the first (i.e. the
        /// per-batch overhead they did *not* pay).
        coalesced: plain counter
            "nexus_authz_coalesced_total" "requests coalesced into an existing batch",
        /// Submissions refused at the high-water mark (resolved to
        /// faults, never queued; not counted in `submitted`).
        rejected: plain counter
            "nexus_authz_rejected_total" "submissions shed at the high-water mark",
        /// Batches executed on the external-authority lane.
        external_batches: plain counter
            "nexus_authz_external_batches_total" "batches run on the external lane",
        /// Ticket callbacks that panicked on a worker thread (caught;
        /// the worker survived).
        callback_panics: plain counter
            "nexus_authz_callback_panics_total" "ticket callbacks that panicked",
        /// Batches whose executor panicked (caught; the batch faulted and
        /// the worker survived — an unwinding worker would strand every
        /// ticket queued behind it and wedge the quiesce fence).
        executor_panics: plain counter
            "nexus_authz_executor_panics_total" "batches whose executor panicked",
        /// Largest batch observed.
        max_batch_seen: plain gauge "nexus_authz_max_batch_seen" "largest batch observed",
        /// Requests currently queued on the embedded lane (derived at
        /// read time from the queue itself).
        embedded_depth: plain gauge
            "nexus_authz_embedded_depth" "embedded-lane backlog (queued requests)",
        /// Requests currently queued on the external lane (likewise).
        external_depth: plain gauge
            "nexus_authz_external_depth" "external-lane backlog (queued requests)",
    }
}

struct Pending {
    req: AuthzRequest,
    ticket: Arc<TicketInner>,
    /// Computed once at submit time (outside the queue lock) so the
    /// pop-side scan is a plain integer comparison.
    priority: u64,
    /// When this entry landed in its queue. `Some` only while stage
    /// timers are configured and enabled — the queue-wait span.
    enqueued_at: Option<Instant>,
    /// The admission generation this entry was counted into
    /// ([`Queue::outstanding`]).
    generation: usize,
}

/// Which worker class serves a request; the index of its backlog in
/// [`Queue::lanes`] and of its condvar in [`Shared::work`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Embedded = 0,
    External = 1,
}

impl Lane {
    fn name(self) -> &'static str {
        match self {
            Lane::Embedded => "embedded",
            Lane::External => "external",
        }
    }
}

#[derive(Default)]
struct Queue {
    /// Per-lane backlog; its length is the lane's depth gauge.
    lanes: [VecDeque<Pending>; 2],
    shutdown: bool,
    /// The generation (0 or 1) new admissions are counted into;
    /// [`GuardPool::quiesce`] flips it.
    generation: usize,
    /// Admitted and not yet completed, per generation. This — not the
    /// `submitted`/`completed` statistics — is what the fence waits on.
    outstanding: [u64; 2],
}

/// How many queued entries one `pop_batch` may examine while holding
/// the queue mutex (for both the priority scan and batch assembly).
/// Deep backlogs otherwise turn every pop into an O(backlog) critical
/// section that starves submitters blocked on the same mutex; the cap
/// bounds submit latency at the cost of priority ordering and
/// coalescing being exact only within the window — an admission-order
/// approximation, not a correctness property.
const SCAN_WINDOW: usize = 128;

struct Shared {
    queue: Mutex<Queue>,
    /// Wakes each lane's workers on submit/shutdown.
    work: [Condvar; 2],
    /// Wakes the `quiesce` waiter when a generation drains.
    drained: Condvar,
    /// One `quiesce` at a time: there are only two generations.
    fence: Mutex<()>,
    /// The configuration as given, sizes clamped to at least 1.
    cfg: GuardPoolConfig,
    stats: PoolCounters,
}

impl Shared {
    /// The stage timers, iff configured *and* currently enabled.
    fn timers(&self) -> Option<&StageTimers> {
        self.cfg.stage_timers.as_deref().filter(|t| t.enabled())
    }

    /// Retire finished requests, `done[g]` of them admitted in
    /// generation `g`, and wake the fence. `completed` moves first,
    /// under the lock the waiter wakes up holding, so whoever
    /// `quiesce` releases already reads the requests it waited for in
    /// `stats()`.
    fn note_completed(&self, done: [u64; 2]) {
        let mut queue = self.queue.lock().expect("authzd queue");
        self.stats.completed.add(done[0] + done[1]);
        for (outstanding, n) in queue.outstanding.iter_mut().zip(done) {
            *outstanding -= n;
        }
        self.drained.notify_all();
    }
}

/// The asynchronous authorization pipeline.
///
/// ```
/// use nexus_authzd::{
///     AuthzOutcome, AuthzRequest, BatchExecutor, BatchKey, GuardPool, GuardPoolConfig,
/// };
/// use nexus_core::{OpName, ResourceId};
/// use std::sync::Arc;
///
/// // The pool is kernel-agnostic: evaluation hides behind a
/// // BatchExecutor. This toy one allows everything.
/// struct AllowAll;
/// impl BatchExecutor for AllowAll {
///     fn execute_batch(&self, _key: &BatchKey, reqs: &[AuthzRequest]) -> Vec<AuthzOutcome> {
///         vec![AuthzOutcome::Allow; reqs.len()]
///     }
/// }
///
/// let pool = GuardPool::new(GuardPoolConfig::default(), Arc::new(AllowAll));
/// let ticket = pool.submit(AuthzRequest {
///     pid: 7,
///     op: OpName::from("read"),
///     object: ResourceId::file("/tmp/x"),
///     proof: None,
///     external: false,
///     label_shape: 0,
///     submitted_at: None,
/// });
/// assert!(ticket.wait().is_allow());
/// pool.shutdown();
/// ```
pub struct GuardPool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl GuardPool {
    /// Spawn `cfg.workers` embedded-lane workers (plus
    /// `cfg.external_workers` external-lane workers) over `executor`.
    pub fn new(cfg: GuardPoolConfig, executor: Arc<dyn BatchExecutor>) -> GuardPool {
        let cfg = GuardPoolConfig {
            workers: cfg.workers.max(1),
            max_batch: cfg.max_batch.max(1),
            max_queued: cfg.max_queued.max(1),
            ..cfg
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            work: Default::default(),
            drained: Condvar::new(),
            fence: Mutex::new(()),
            cfg,
            stats: PoolCounters::default(),
        });
        let spawn = |lane: Lane, i: usize| {
            let shared = Arc::clone(&shared);
            let executor = Arc::clone(&executor);
            let prefix = match lane {
                Lane::Embedded => "authzd-worker",
                Lane::External => "authzd-ext",
            };
            std::thread::Builder::new()
                .name(format!("{prefix}-{i}"))
                .spawn(move || worker_loop(shared, executor, lane))
                .expect("spawn authzd worker")
        };
        let workers = (0..shared.cfg.workers)
            .map(|i| spawn(Lane::Embedded, i))
            .chain((0..shared.cfg.external_workers).map(|i| spawn(Lane::External, i)))
            .collect();
        GuardPool {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Submit a request; returns immediately with its ticket. After
    /// shutdown the ticket resolves to a fault.
    pub fn submit(&self, req: AuthzRequest) -> AuthzTicket {
        self.try_submit(req).unwrap_or_else(|| {
            AuthzTicket::ready(AuthzOutcome::Fault("authzd pool is shut down".into()))
        })
    }

    /// Submit a request unless the pool is shut down (`None`), so the
    /// caller can evaluate it some other way — the kernel falls back
    /// to the inline guard path. The priority (if a prioritizer is
    /// configured) is computed here, on the submitting thread, before
    /// the queue lock is taken — workers never run caller code while
    /// holding the queue mutex.
    ///
    /// Admission is bounded: a submission that finds its lane at the
    /// high-water mark ([`GuardPoolConfig::max_queued`]) is rejected —
    /// its ticket comes back already resolved to
    /// [`AuthzOutcome::Fault`]. External-classified requests go to
    /// the external lane when one is configured.
    pub fn try_submit(&self, req: AuthzRequest) -> Option<AuthzTicket> {
        let shared = &self.shared;
        let lane = if req.external && shared.cfg.external_workers > 0 {
            Lane::External
        } else {
            Lane::Embedded
        };
        let priority = match &shared.cfg.prioritizer {
            Some(pri) => pri(&req),
            None => 0,
        };
        let mut queue = shared.queue.lock().expect("authzd queue");
        if queue.shutdown {
            return None;
        }
        if queue.lanes[lane as usize].len() >= shared.cfg.max_queued {
            shared.stats.rejected.add(1);
            return Some(AuthzTicket::ready(AuthzOutcome::Fault(format!(
                "authzd {} queue at high-water mark ({})",
                lane.name(),
                shared.cfg.max_queued
            ))));
        }
        let inner = TicketInner::new();
        let ticket = AuthzTicket::from_inner(Arc::clone(&inner));
        shared.stats.submitted.add(1);
        let generation = queue.generation;
        queue.outstanding[generation] += 1;
        let submitted_at = req.submitted_at;
        let enqueued_at = shared.timers().map(|_| Instant::now());
        queue.lanes[lane as usize].push_back(Pending {
            req,
            ticket: inner,
            priority,
            enqueued_at,
            generation,
        });
        drop(queue);
        // Submit span: submitter's stamp → admitted into the queue.
        if let (Some(timers), Some(now), Some(at)) = (shared.timers(), enqueued_at, submitted_at) {
            timers.record_duration(Stage::Submit, now.saturating_duration_since(at));
        }
        shared.work[lane as usize].notify_one();
        Some(ticket)
    }

    /// Wait until every request *admitted before this call* has
    /// completed, on both lanes. This is the invalidation fence:
    /// `setgoal` calls it after bumping the goal epoch so that any
    /// batch evaluated under the old goal has re-validated (and, if
    /// stale, re-evaluated) before the syscall returns.
    ///
    /// It waits for those requests, not for a count: the fence flips
    /// the admission generation and waits for the old one to drain, so
    /// a request admitted later cannot release it by finishing first
    /// (a `completed ≥ submitted-at-entry` fence could, and did).
    /// Concurrent calls take turns. Rejected submissions were never
    /// admitted and are not waited for; [`shutdown`](Self::shutdown)
    /// faults the backlog and so releases waiters; on return,
    /// `stats().completed` already covers every request waited for.
    /// A stuck external authority therefore holds up `setgoal` until
    /// it unsticks: the second lane keeps *authorizations* flowing
    /// past a wedged authority, not policy writes.
    pub fn quiesce(&self) {
        let _turn = self.shared.fence.lock().expect("authzd fence");
        let mut queue = self.shared.queue.lock().expect("authzd queue");
        let old = queue.generation;
        queue.generation ^= 1;
        while queue.outstanding[old] > 0 {
            queue = self.shared.drained.wait(queue).expect("authzd quiesce");
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> PoolStats {
        let depth = {
            let queue = self.shared.queue.lock().expect("authzd queue");
            queue.lanes.each_ref().map(|l| l.len() as u64)
        };
        PoolStats {
            embedded_depth: depth[Lane::Embedded as usize],
            external_depth: depth[Lane::External as usize],
            ..self.shared.stats.snapshot()
        }
    }

    /// Stop accepting work, fault out everything still queued on both
    /// lanes, and join the workers.
    /// Idempotent.
    pub fn shutdown(&self) {
        let leftovers: Vec<Pending> = {
            let mut queue = self.shared.queue.lock().expect("authzd queue");
            queue.shutdown = true;
            queue.lanes.iter_mut().flat_map(|l| l.drain(..)).collect()
        };
        for cv in &self.shared.work {
            cv.notify_all();
        }
        let mut done = [0u64; 2];
        let mut panics = 0u64;
        for p in leftovers {
            done[p.generation] += 1;
            panics += p
                .ticket
                .complete(AuthzOutcome::Fault("authzd pool shut down".into()));
        }
        self.shared.stats.callback_panics.add(panics);
        self.shared.note_completed(done);
        let handles: Vec<JoinHandle<()>> = self
            .workers
            .lock()
            .expect("authzd workers")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for GuardPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Pop the next batch from `lane`: pick the highest-priority entry
/// within the scan window (FIFO when no prioritizer), then drain
/// queued requests sharing its key, up to `max_batch`, examining at
/// most [`SCAN_WINDOW`] entries while the queue mutex is held.
/// Returns `None` on shutdown.
fn pop_batch(shared: &Shared, lane: Lane) -> Option<(BatchKey, Vec<Pending>)> {
    let mut queue = shared.queue.lock().expect("authzd queue");
    loop {
        if queue.shutdown {
            return None;
        }
        if queue.lanes[lane as usize].is_empty() {
            queue = shared.work[lane as usize]
                .wait(queue)
                .expect("authzd worker wait");
            continue;
        }
        let assembly_start = shared.timers().map(|_| Instant::now());
        let entries = &mut queue.lanes[lane as usize];
        let window = entries.len().min(SCAN_WINDOW);
        let lead_idx = if shared.cfg.prioritizer.is_none() {
            0
        } else {
            // Priorities were computed at submit time: this scan is a
            // plain integer max over the window. Highest priority
            // wins; FIFO among equals (the *earlier* index wins,
            // hence the reversed index comparison).
            entries
                .iter()
                .take(window)
                .enumerate()
                .max_by(|(ia, a), (ib, b)| a.priority.cmp(&b.priority).then(ib.cmp(ia)))
                .map(|(i, _)| i)
                .unwrap_or(0)
        };
        let lead = entries.remove(lead_idx).expect("index in bounds");
        let key = lead.req.key();
        let mut batch = vec![lead];
        let mut i = 0;
        // Assembly budget: every examined entry (matched or not)
        // spends one unit, so the critical section stays O(window)
        // even against a deep backlog of same-key requests.
        let mut budget = SCAN_WINDOW;
        while i < entries.len() && budget > 0 && batch.len() < shared.cfg.max_batch {
            budget -= 1;
            // Compare by reference — no per-entry key clones while the
            // queue mutex is held.
            let entry = &entries[i].req;
            if entry.op == key.op
                && entry.object == key.object
                && entry.label_shape == key.label_shape
            {
                batch.push(entries.remove(i).expect("index in bounds"));
            } else {
                i += 1;
            }
        }
        drop(queue);
        // Queue-wait per member (enqueue → this pop), plus one
        // batch-assembly span for the whole scan.
        if let (Some(timers), Some(start)) = (shared.timers(), assembly_start) {
            for p in &batch {
                if let Some(at) = p.enqueued_at {
                    timers.record_duration(Stage::QueueWait, start.saturating_duration_since(at));
                }
            }
            let done = Instant::now();
            timers.record_duration(Stage::BatchAssembly, done.saturating_duration_since(start));
        }
        return Some((key, batch));
    }
}

fn worker_loop(shared: Arc<Shared>, executor: Arc<dyn BatchExecutor>, lane: Lane) {
    while let Some((key, batch)) = pop_batch(&shared, lane) {
        let mut done = [0u64; 2];
        for p in &batch {
            done[p.generation] += 1;
        }
        // Move the owned requests out — the executor borrows them, no
        // proof-tree clones on the worker hot path.
        let (reqs, tickets): (Vec<AuthzRequest>, Vec<Arc<TicketInner>>) =
            batch.into_iter().map(|p| (p.req, p.ticket)).unzip();
        // A panicking executor must not unwind through (and kill)
        // this worker: the batch faults instead — the kernel's sync
        // path falls back inline on a fault — and the tickets queued
        // behind it keep draining. AssertUnwindSafe: the executor is
        // behind an Arc and owns its own synchronization; the batch's
        // tickets are completed below either way.
        let outcomes = catch_unwind(AssertUnwindSafe(|| executor.execute_batch(&key, &reqs)))
            .unwrap_or_else(|_| {
                shared.stats.executor_panics.add(1);
                vec![AuthzOutcome::Fault("authz batch executor panicked".into()); reqs.len()]
            });
        debug_assert_eq!(outcomes.len(), reqs.len(), "executor contract");
        shared.stats.batches.add(1);
        if lane == Lane::External {
            shared.stats.external_batches.add(1);
        }
        let size = reqs.len() as u64;
        shared.stats.coalesced.add(size.saturating_sub(1));
        shared.stats.max_batch_seen.max(size);
        let mut outcomes = outcomes.into_iter();
        let mut panics = 0u64;
        for (i, ticket) in tickets.into_iter().enumerate() {
            let outcome = outcomes
                .next()
                .unwrap_or_else(|| AuthzOutcome::Fault("executor returned short batch".into()));
            // A panicking user callback is caught inside `complete`;
            // this worker must survive it (with workers == 1 an
            // unwind here would wedge the whole pipeline).
            panics += ticket.complete(outcome);
            // End-to-end span: submitter's stamp → verdict delivered.
            if let (Some(timers), Some(at)) = (shared.timers(), reqs[i].submitted_at) {
                let span = Instant::now().saturating_duration_since(at);
                timers.record_duration(Stage::Complete, span);
            }
        }
        shared.stats.callback_panics.add(panics);
        shared.note_completed(done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_core::{OpName, ResourceId};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    fn req(pid: u64, op: &str, obj: &str) -> AuthzRequest {
        AuthzRequest {
            pid,
            op: OpName::from(op),
            object: ResourceId(obj.to_string()),
            proof: None,
            external: false,
            label_shape: 0,
            submitted_at: None,
        }
    }

    fn ext_req(pid: u64, op: &str, obj: &str) -> AuthzRequest {
        AuthzRequest {
            external: true,
            ..req(pid, op, obj)
        }
    }

    /// Allows even pids, denies odd; records batch sizes.
    struct ParityExecutor {
        batches: Mutex<Vec<usize>>,
        delay: Duration,
    }

    impl ParityExecutor {
        fn new(delay: Duration) -> Self {
            ParityExecutor {
                batches: Mutex::new(Vec::new()),
                delay,
            }
        }
    }

    impl BatchExecutor for ParityExecutor {
        fn execute_batch(&self, _key: &BatchKey, reqs: &[AuthzRequest]) -> Vec<AuthzOutcome> {
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            self.batches.lock().unwrap().push(reqs.len());
            reqs.iter()
                .map(|r| {
                    if r.pid % 2 == 0 {
                        AuthzOutcome::Allow
                    } else {
                        AuthzOutcome::Deny
                    }
                })
                .collect()
        }
    }

    /// Holds every batch at a gate until released; allows everything.
    struct GateExecutor {
        gate: Arc<AtomicBool>,
        entered: AtomicUsize,
    }

    impl GateExecutor {
        fn new() -> Arc<Self> {
            Arc::new(GateExecutor {
                gate: Arc::new(AtomicBool::new(false)),
                entered: AtomicUsize::new(0),
            })
        }

        fn release(&self) {
            self.gate.store(true, Ordering::SeqCst);
        }

        /// Spin until `n` batches have reached the gate.
        fn await_entered(&self, n: usize) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.entered.load(Ordering::SeqCst) < n {
                assert!(Instant::now() < deadline, "executor never entered");
                std::thread::yield_now();
            }
        }
    }

    impl BatchExecutor for GateExecutor {
        fn execute_batch(&self, _key: &BatchKey, reqs: &[AuthzRequest]) -> Vec<AuthzOutcome> {
            self.entered.fetch_add(1, Ordering::SeqCst);
            while !self.gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            vec![AuthzOutcome::Allow; reqs.len()]
        }
    }

    /// Like [`GateExecutor`], but only external-classified batches
    /// block; embedded batches pass straight through.
    struct ExternalGateExecutor {
        inner: Arc<GateExecutor>,
    }

    impl BatchExecutor for ExternalGateExecutor {
        fn execute_batch(&self, key: &BatchKey, reqs: &[AuthzRequest]) -> Vec<AuthzOutcome> {
            if reqs.iter().any(|r| r.external) {
                self.inner.execute_batch(key, reqs)
            } else {
                vec![AuthzOutcome::Allow; reqs.len()]
            }
        }
    }

    #[test]
    fn submit_wait_roundtrip() {
        let pool = GuardPool::new(
            GuardPoolConfig::default(),
            Arc::new(ParityExecutor::new(Duration::ZERO)),
        );
        assert_eq!(
            pool.submit(req(2, "read", "file:/a")).wait(),
            AuthzOutcome::Allow
        );
        assert_eq!(
            pool.submit(req(3, "read", "file:/a")).wait(),
            AuthzOutcome::Deny
        );
    }

    #[test]
    fn poll_and_callback_paths() {
        let pool = GuardPool::new(
            GuardPoolConfig::default(),
            Arc::new(ParityExecutor::new(Duration::from_millis(20))),
        );
        let t = pool.submit(req(4, "read", "file:/a"));
        // Likely still pending thanks to the executor delay; either
        // way, poll must never return a wrong verdict.
        if let Some(o) = t.try_outcome() {
            assert_eq!(o, AuthzOutcome::Allow);
        }
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = Arc::clone(&fired);
        t.on_complete(move |o| {
            assert!(o.is_allow());
            fired2.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(t.wait(), AuthzOutcome::Allow);
        // Callback attached after completion runs immediately.
        let fired3 = Arc::clone(&fired);
        t.on_complete(move |_| {
            fired3.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn wait_timeout_observes_pending_then_done() {
        let pool = GuardPool::new(
            GuardPoolConfig {
                workers: 1,
                ..Default::default()
            },
            Arc::new(ParityExecutor::new(Duration::from_millis(50))),
        );
        let t = pool.submit(req(2, "read", "file:/a"));
        // Immediately after submit the worker is still sleeping.
        assert_eq!(t.wait_timeout(Duration::from_millis(1)), None);
        assert_eq!(
            t.wait_timeout(Duration::from_secs(10)),
            Some(AuthzOutcome::Allow)
        );
    }

    #[test]
    fn same_key_requests_coalesce() {
        // One worker, slow executor: while the first batch runs, the
        // rest of the submissions pile up and must coalesce.
        let exec = Arc::new(ParityExecutor::new(Duration::from_millis(10)));
        let pool = GuardPool::new(
            GuardPoolConfig {
                workers: 1,
                max_batch: 64,
                ..Default::default()
            },
            Arc::clone(&exec) as Arc<dyn BatchExecutor>,
        );
        let tickets: Vec<AuthzTicket> = (0..20)
            .map(|pid| pool.submit(req(pid, "read", "file:/hot")))
            .collect();
        for (pid, t) in tickets.iter().enumerate() {
            let expect = if pid % 2 == 0 {
                AuthzOutcome::Allow
            } else {
                AuthzOutcome::Deny
            };
            assert_eq!(t.wait(), expect, "pid {pid}");
        }
        // Counters are bumped just after tickets resolve: settle first.
        pool.quiesce();
        let stats = pool.stats();
        assert_eq!(stats.completed, 20);
        assert!(
            stats.batches < 20,
            "20 same-key requests through 1 slow worker must coalesce, got {} batches",
            stats.batches
        );
        assert!(stats.max_batch_seen >= 2);
        assert_eq!(stats.coalesced, 20 - stats.batches);
    }

    #[test]
    fn distinct_label_shapes_do_not_coalesce() {
        // Same (op, object) but different credential shapes: the batch
        // prover could not share a frontier across them, so they must
        // land in separate batches.
        let exec = Arc::new(ParityExecutor::new(Duration::from_millis(5)));
        let pool = GuardPool::new(
            GuardPoolConfig {
                workers: 1,
                max_batch: 64,
                ..Default::default()
            },
            Arc::clone(&exec) as Arc<dyn BatchExecutor>,
        );
        let tickets: Vec<AuthzTicket> = (0..8)
            .map(|pid| {
                pool.submit(AuthzRequest {
                    label_shape: pid % 2,
                    ..req(pid, "read", "file:/hot")
                })
            })
            .collect();
        for t in &tickets {
            let _ = t.wait();
        }
        pool.quiesce();
        let stats = pool.stats();
        assert!(
            stats.batches >= 2,
            "two shapes cannot share one batch: {stats:?}"
        );
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let exec = Arc::new(ParityExecutor::new(Duration::from_millis(5)));
        let pool = GuardPool::new(
            GuardPoolConfig {
                workers: 1,
                max_batch: 64,
                ..Default::default()
            },
            Arc::clone(&exec) as Arc<dyn BatchExecutor>,
        );
        let tickets: Vec<AuthzTicket> = (0..8)
            .map(|pid| pool.submit(req(pid, "read", &format!("file:/{pid}"))))
            .collect();
        for t in &tickets {
            let _ = t.wait();
        }
        let sizes = exec.batches.lock().unwrap().clone();
        assert!(sizes.iter().all(|&s| s == 1), "sizes: {sizes:?}");
    }

    #[test]
    fn max_batch_caps_coalescing() {
        let exec = Arc::new(ParityExecutor::new(Duration::from_millis(10)));
        let pool = GuardPool::new(
            GuardPoolConfig {
                workers: 1,
                max_batch: 4,
                ..Default::default()
            },
            Arc::clone(&exec) as Arc<dyn BatchExecutor>,
        );
        let tickets: Vec<AuthzTicket> = (0..16)
            .map(|pid| pool.submit(req(pid, "read", "file:/hot")))
            .collect();
        for t in &tickets {
            let _ = t.wait();
        }
        let sizes = exec.batches.lock().unwrap().clone();
        assert!(sizes.iter().all(|&s| s <= 4), "sizes: {sizes:?}");
    }

    #[test]
    fn per_key_fifo_order_is_preserved() {
        // Order within a key must be submission order even under
        // coalescing: the executor sees pids in ascending order.
        struct OrderCheck {
            seen: Mutex<Vec<u64>>,
        }
        impl BatchExecutor for OrderCheck {
            fn execute_batch(&self, _k: &BatchKey, reqs: &[AuthzRequest]) -> Vec<AuthzOutcome> {
                std::thread::sleep(Duration::from_millis(5));
                let mut seen = self.seen.lock().unwrap();
                for r in reqs {
                    seen.push(r.pid);
                }
                vec![AuthzOutcome::Allow; reqs.len()]
            }
        }
        let exec = Arc::new(OrderCheck {
            seen: Mutex::new(Vec::new()),
        });
        let pool = GuardPool::new(
            GuardPoolConfig {
                workers: 1,
                max_batch: 64,
                ..Default::default()
            },
            Arc::clone(&exec) as Arc<dyn BatchExecutor>,
        );
        let tickets: Vec<AuthzTicket> = (0..32)
            .map(|pid| pool.submit(req(pid, "read", "file:/hot")))
            .collect();
        for t in &tickets {
            let _ = t.wait();
        }
        let seen = exec.seen.lock().unwrap().clone();
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(seen, sorted, "per-key order must be FIFO: {seen:?}");
    }

    #[test]
    fn prioritizer_orders_backlog() {
        // One worker, pinned by a slow first batch; the backlog then
        // drains highest-priority-first (priority = pid here).
        struct Recorder {
            seen: Mutex<Vec<u64>>,
        }
        impl BatchExecutor for Recorder {
            fn execute_batch(&self, _k: &BatchKey, reqs: &[AuthzRequest]) -> Vec<AuthzOutcome> {
                std::thread::sleep(Duration::from_millis(15));
                self.seen.lock().unwrap().extend(reqs.iter().map(|r| r.pid));
                vec![AuthzOutcome::Allow; reqs.len()]
            }
        }
        let exec = Arc::new(Recorder {
            seen: Mutex::new(Vec::new()),
        });
        let pool = GuardPool::new(
            GuardPoolConfig {
                workers: 1,
                max_batch: 1,
                prioritizer: Some(Arc::new(|r: &AuthzRequest| r.pid)),
                ..Default::default()
            },
            Arc::clone(&exec) as Arc<dyn BatchExecutor>,
        );
        // Distinct keys so nothing coalesces; the plug request keeps
        // the worker busy while the rest queue up.
        let plug = pool.submit(req(0, "read", "file:/plug"));
        std::thread::sleep(Duration::from_millis(5));
        let tickets: Vec<AuthzTicket> = (1..=4)
            .map(|pid| pool.submit(req(pid, "read", &format!("file:/{pid}"))))
            .collect();
        let _ = plug.wait();
        for t in &tickets {
            let _ = t.wait();
        }
        let seen = exec.seen.lock().unwrap().clone();
        assert_eq!(seen[0], 0, "plug ran first");
        assert_eq!(&seen[1..], &[4, 3, 2, 1], "backlog must drain by priority");

        // Submit latency must stay bounded under a *deep* backlog:
        // pop_batch's scans are capped at SCAN_WINDOW, so a pop's
        // critical section — and therefore a submitter's wait on the
        // queue mutex — cannot grow with queue depth. Plug the worker
        // again, pile up a deep same-key backlog (the worst case for
        // the assembly scan), and time fresh submissions racing the
        // worker's pops.
        let plug2 = pool.submit(req(0, "read", "file:/plug2"));
        let _ = plug2;
        for i in 0..10_000u64 {
            let _ = pool.submit(req(i, "read", "file:/deep"));
        }
        let start = Instant::now();
        for i in 0..500u64 {
            let _ = pool.submit(req(i, "probe", &format!("file:/probe{i}")));
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(500),
            "500 submits under a 10k backlog took {elapsed:?} — pop_batch is starving submitters"
        );
        // Shutdown faults the backlog (we only asserted latency).
        pool.shutdown();
    }

    #[test]
    fn quiesce_waits_for_in_flight_work() {
        let pool = GuardPool::new(
            GuardPoolConfig {
                workers: 2,
                ..Default::default()
            },
            Arc::new(ParityExecutor::new(Duration::from_millis(10))),
        );
        let tickets: Vec<AuthzTicket> = (0..8)
            .map(|pid| pool.submit(req(pid, "read", &format!("file:/{pid}"))))
            .collect();
        pool.quiesce();
        for t in &tickets {
            assert!(
                t.try_outcome().is_some(),
                "quiesce returned with work in flight"
            );
        }
    }

    /// The fence must wait for the requests admitted before it, not
    /// for a count: A is admitted and held inside the executor, T
    /// starts `quiesce`, and later requests B complete on a free
    /// worker. A count-based fence (`completed ≥ submitted-at-entry`)
    /// is released by the first B that finishes.
    fn fence_outlasts_later_requests(workers: usize, external_workers: usize) {
        let gate = GateExecutor::new();
        let pool = Arc::new(GuardPool::new(
            GuardPoolConfig {
                workers,
                external_workers,
                ..Default::default()
            },
            Arc::new(ExternalGateExecutor {
                inner: Arc::clone(&gate),
            }),
        ));
        let a = pool.submit(ext_req(0, "poke", "svc:/slow"));
        gate.await_entered(1); // A is in flight, held at the gate
        let (started, has_started) = std::sync::mpsc::channel();
        let returned = Arc::new(AtomicBool::new(false));
        let fence = {
            let (pool, returned) = (Arc::clone(&pool), Arc::clone(&returned));
            std::thread::spawn(move || {
                started.send(()).unwrap();
                pool.quiesce();
                returned.store(true, Ordering::SeqCst);
            })
        };
        has_started.recv().unwrap();
        // Every B round trip parks this thread, so T runs into the
        // fence within the first few; each B after that would release
        // a fence that only counts.
        let mut released_by = None;
        for pid in 1..=200u64 {
            let b = pool.submit(req(pid * 2, "read", &format!("file:/{pid}")));
            assert_eq!(b.wait(), AuthzOutcome::Allow);
            if returned.load(Ordering::SeqCst) {
                released_by = Some(pid);
                break;
            }
        }
        // Open the gate before judging, so a failure cannot strand A.
        gate.release();
        fence.join().unwrap();
        assert_eq!(
            released_by, None,
            "quiesce returned after that many later requests while an older one was in flight"
        );
        assert_eq!(a.try_outcome(), Some(AuthzOutcome::Allow));
    }

    #[test]
    fn quiesce_waits_for_an_older_request_on_the_other_lane() {
        fence_outlasts_later_requests(1, 1);
    }

    #[test]
    fn quiesce_waits_for_an_older_request_on_the_same_lane() {
        // No external lane: A rides the embedded lane and occupies one
        // of its two workers; the Bs complete on the other.
        fence_outlasts_later_requests(2, 0);
    }

    #[test]
    fn shutdown_faults_queued_requests_and_rejects_new_ones() {
        let pool = GuardPool::new(
            GuardPoolConfig {
                workers: 1,
                max_batch: 1,
                ..Default::default()
            },
            Arc::new(ParityExecutor::new(Duration::from_millis(30))),
        );
        let running = pool.submit(req(0, "read", "file:/a"));
        std::thread::sleep(Duration::from_millis(5));
        let queued = pool.submit(req(2, "read", "file:/b"));
        pool.shutdown();
        // The in-flight one finished; the queued one faulted.
        assert_eq!(running.wait(), AuthzOutcome::Allow);
        assert!(matches!(queued.wait(), AuthzOutcome::Fault(_)));
        // New submissions fault immediately.
        assert!(matches!(
            pool.submit(req(4, "read", "file:/c")).wait(),
            AuthzOutcome::Fault(_)
        ));
        let stats = pool.stats();
        assert_eq!(stats.submitted, 2, "post-shutdown submit not counted");
        assert_eq!(stats.completed, 2);
        // Shutdown is idempotent.
        pool.shutdown();
    }

    #[test]
    fn concurrent_submitters_all_complete() {
        let pool = Arc::new(GuardPool::new(
            GuardPoolConfig {
                workers: 4,
                max_batch: 16,
                ..Default::default()
            },
            Arc::new(ParityExecutor::new(Duration::ZERO)),
        ));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let pid = t * 1000 + i;
                    let expect = if pid % 2 == 0 {
                        AuthzOutcome::Allow
                    } else {
                        AuthzOutcome::Deny
                    };
                    let obj = format!("file:/{}", i % 4);
                    assert_eq!(pool.submit(req(pid, "read", &obj)).wait(), expect);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // `wait` returns when the ticket resolves, which happens just
        // *before* the worker bumps the completion counter (the order
        // the quiesce fence needs); settle before comparing counters.
        pool.quiesce();
        let stats = pool.stats();
        assert_eq!(stats.submitted, 8 * 500);
        assert_eq!(stats.completed, 8 * 500);
    }

    #[test]
    fn panicking_callback_does_not_kill_the_worker() {
        // Regression: a panicking on_complete used to unwind through
        // worker_loop; with workers == 1 that deadlocked the pool.
        let exec = GateExecutor::new();
        let pool = GuardPool::new(
            GuardPoolConfig {
                workers: 1,
                external_workers: 0,
                ..Default::default()
            },
            Arc::clone(&exec) as Arc<dyn BatchExecutor>,
        );
        let t = pool.submit(req(2, "read", "file:/a"));
        exec.await_entered(1); // the batch is held at the gate...
        t.on_complete(|_| panic!("user callback exploding on the worker thread"));
        exec.release(); // ...so the callback is guaranteed to run on the worker.
        assert_eq!(t.wait(), AuthzOutcome::Allow);
        // The sole worker survived: subsequent work still completes.
        assert_eq!(
            pool.submit(req(4, "read", "file:/b")).wait(),
            AuthzOutcome::Allow
        );
        assert_eq!(pool.stats().callback_panics, 1);
    }

    #[test]
    fn panicking_executor_faults_the_batch_and_spares_the_worker() {
        // Same bug class one layer down: an executor panic (e.g. a
        // poisoned lock inside guard evaluation) must not kill the
        // worker — the batch faults and the lane keeps draining.
        struct Grenade;
        impl BatchExecutor for Grenade {
            fn execute_batch(&self, _k: &BatchKey, reqs: &[AuthzRequest]) -> Vec<AuthzOutcome> {
                if reqs.iter().any(|r| r.pid == 13) {
                    panic!("executor exploding mid-batch");
                }
                vec![AuthzOutcome::Allow; reqs.len()]
            }
        }
        let pool = GuardPool::new(
            GuardPoolConfig {
                workers: 1,
                max_batch: 1,
                external_workers: 0,
                ..Default::default()
            },
            Arc::new(Grenade),
        );
        assert!(matches!(
            pool.submit(req(13, "read", "file:/boom")).wait(),
            AuthzOutcome::Fault(_)
        ));
        // The sole worker survived and the quiesce fence still works.
        assert_eq!(
            pool.submit(req(2, "read", "file:/ok")).wait(),
            AuthzOutcome::Allow
        );
        pool.quiesce();
        let stats = pool.stats();
        assert_eq!(stats.executor_panics, 1);
        assert_eq!(stats.submitted, stats.completed);
    }

    #[test]
    fn ready_tickets_serve_all_accessors() {
        // The allocation-free resolved representation must behave
        // exactly like a completed shared ticket.
        let t = AuthzTicket::ready(AuthzOutcome::Allow);
        assert_eq!(t.try_outcome(), Some(AuthzOutcome::Allow));
        assert_eq!(t.wait(), AuthzOutcome::Allow);
        assert_eq!(t.wait_timeout(Duration::ZERO), Some(AuthzOutcome::Allow));
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = Arc::clone(&fired);
        t.on_complete(move |o| {
            assert!(o.is_allow());
            fired2.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        let clone = t.clone();
        assert_eq!(clone.wait(), AuthzOutcome::Allow);
    }

    #[test]
    fn reject_policy_faults_at_high_water() {
        let exec = GateExecutor::new();
        let pool = GuardPool::new(
            GuardPoolConfig {
                workers: 1,
                max_batch: 1,
                max_queued: 2,
                external_workers: 0,
                ..Default::default()
            },
            Arc::clone(&exec) as Arc<dyn BatchExecutor>,
        );
        let in_flight = pool.submit(req(0, "read", "file:/0"));
        exec.await_entered(1); // worker occupied, queue empty
        let q1 = pool.submit(req(2, "read", "file:/1"));
        let q2 = pool.submit(req(4, "read", "file:/2"));
        // Queue is now at the mark: the next submission faults
        // immediately instead of growing the backlog.
        let over = pool.submit(req(6, "read", "file:/3"));
        assert!(
            matches!(over.try_outcome(), Some(AuthzOutcome::Fault(_))),
            "over-high-water submission must fault without waiting"
        );
        assert_eq!(pool.stats().rejected, 1);
        exec.release();
        assert_eq!(in_flight.wait(), AuthzOutcome::Allow);
        assert_eq!(q1.wait(), AuthzOutcome::Allow);
        assert_eq!(q2.wait(), AuthzOutcome::Allow);
        // Rejected requests are not admitted, so quiesce does not
        // wait for them and the counters reconcile.
        pool.quiesce();
        let stats = pool.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn stuck_external_batch_leaves_embedded_lane_flowing() {
        // One stuck external authority may occupy at most the
        // external workers: embedded traffic must keep completing
        // while the external lane is wedged, and external overflow
        // must fault instead of backing up forever.
        let gate = GateExecutor::new();
        let exec = Arc::new(ExternalGateExecutor {
            inner: Arc::clone(&gate),
        });
        let pool = GuardPool::new(
            GuardPoolConfig {
                workers: 2,
                max_batch: 1,
                max_queued: 2,
                external_workers: 1,
                ..Default::default()
            },
            exec as Arc<dyn BatchExecutor>,
        );
        let stuck = pool.submit(ext_req(0, "poke", "svc:/stale"));
        gate.await_entered(1); // the external worker is now wedged
        let ext_queued: Vec<AuthzTicket> = (1..=2)
            .map(|i| pool.submit(ext_req(i * 2, "poke", &format!("svc:/s{i}"))))
            .collect();
        // External lane at its mark: further external work faults...
        let overflow = pool.submit(ext_req(8, "poke", "svc:/s3"));
        assert!(matches!(
            overflow.try_outcome(),
            Some(AuthzOutcome::Fault(_))
        ));
        // ...while embedded traffic flows freely the whole time.
        for pid in 0..20u64 {
            assert_eq!(
                pool.submit(req(pid * 2, "read", &format!("file:/{pid}")))
                    .wait(),
                AuthzOutcome::Allow,
                "embedded request starved by a stuck external authority"
            );
        }
        gate.release();
        assert_eq!(stuck.wait(), AuthzOutcome::Allow);
        for t in &ext_queued {
            assert_eq!(t.wait(), AuthzOutcome::Allow);
        }
        let stats = pool.stats();
        assert!(stats.external_batches >= 1, "{stats:?}");
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn depth_gauges_track_per_lane_backlog() {
        let exec = GateExecutor::new();
        let pool = GuardPool::new(
            GuardPoolConfig {
                workers: 1,
                max_batch: 1,
                external_workers: 0,
                ..Default::default()
            },
            Arc::clone(&exec) as Arc<dyn BatchExecutor>,
        );
        let in_flight = pool.submit(req(0, "read", "file:/0"));
        exec.await_entered(1); // worker occupied: everything else queues
        let queued: Vec<AuthzTicket> = (1..=3)
            .map(|i| pool.submit(req(i, "read", &format!("file:/{i}"))))
            .collect();
        let stats = pool.stats();
        assert_eq!(stats.embedded_depth, 3, "{stats:?}");
        assert_eq!(stats.external_depth, 0);
        exec.release();
        let _ = in_flight.wait();
        for t in &queued {
            let _ = t.wait();
        }
        pool.quiesce();
        assert_eq!(pool.stats().embedded_depth, 0, "gauge must drain to zero");
    }

    #[test]
    fn stage_timers_capture_pool_side_spans() {
        let timers = Arc::new(StageTimers::new(true));
        let pool = GuardPool::new(
            GuardPoolConfig {
                workers: 1,
                stage_timers: Some(Arc::clone(&timers)),
                ..Default::default()
            },
            Arc::new(ParityExecutor::new(Duration::ZERO)),
        );
        let mut r = req(2, "read", "file:/a");
        r.submitted_at = Some(Instant::now());
        assert!(pool.submit(r).wait().is_allow());
        pool.quiesce();
        // One request → one sample in each pool-side stage histogram
        // (batch assembly records once per batch).
        assert_eq!(timers.snapshot(Stage::Submit).count, 1);
        assert_eq!(timers.snapshot(Stage::QueueWait).count, 1);
        assert_eq!(timers.snapshot(Stage::BatchAssembly).count, 1);
        assert_eq!(timers.snapshot(Stage::Complete).count, 1);
        // Disabled timers record nothing more.
        timers.set_enabled(false);
        let mut r = req(4, "read", "file:/a");
        r.submitted_at = Some(Instant::now());
        assert!(pool.submit(r).wait().is_allow());
        pool.quiesce();
        assert_eq!(timers.snapshot(Stage::Submit).count, 1);
    }

    #[test]
    fn external_requests_share_embedded_lane_when_lane_disabled() {
        // external_workers == 0 is the single-lane topology: external
        // requests ride the embedded queue (and can wedge it — the
        // collapse recorded under "Retired baselines" in
        // docs/ARCHITECTURE.md).
        let pool = GuardPool::new(
            GuardPoolConfig {
                workers: 1,
                external_workers: 0,
                ..Default::default()
            },
            Arc::new(ParityExecutor::new(Duration::ZERO)),
        );
        assert_eq!(
            pool.submit(ext_req(2, "poke", "svc:/x")).wait(),
            AuthzOutcome::Allow
        );
        assert_eq!(pool.stats().external_batches, 0);
    }
}
