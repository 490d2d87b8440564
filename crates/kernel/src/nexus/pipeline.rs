//! The pipeline adapter: starting and stopping the [`GuardPool`], the
//! executor that runs its batches against this kernel, and the two
//! fences that keep a stale allow from completing.

use super::authz::EvalRequest;
use super::Nexus;
use nexus_authzd::{
    AuthzOutcome, AuthzRequest, BatchExecutor, BatchKey, GuardPool, GuardPoolConfig, PoolStats,
};
use nexus_obs::AuditPath;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

impl Nexus {
    /// Start the asynchronous authorization pipeline: a [`GuardPool`]
    /// whose workers evaluate coalesced batches against this kernel.
    /// Idempotent — returns the running pool if already started. When
    /// `cfg` carries no prioritizer, batches are ordered by the
    /// requesting IPD's proportional-share weight (heavier tenants
    /// drain first once the queue backs up).
    ///
    /// Admission is bounded by `cfg.max_queued`: a submission past
    /// the high-water mark faults (the sync [`Nexus::authorize`] then
    /// evaluates inline — overload sheds to the caller's thread;
    /// [`Nexus::authorize_async`] surfaces the fault on the ticket).
    /// Requests whose goal mentions an externally-backed authority run
    /// on the dedicated `cfg.external_workers` lane so a stuck
    /// authority cannot wedge the whole pool.
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
                kernel
                    .with_hot(req.pid, |h| kernel.sched.weight(&h.name))
                    .ok()
                    .flatten()
                    .unwrap_or(0)
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
    pub(super) fn authz_pool(&self) -> Option<Arc<GuardPool>> {
        self.authzd.read().clone()
    }

    /// Pipeline statistics, if the pipeline is running.
    pub fn authz_stats(&self) -> Option<PoolStats> {
        self.authz_pool().map(|p| p.stats())
    }

    /// The invalidation fence: wait until every authorization
    /// admitted to the pipeline before this point has completed, on
    /// the embedded and the external worker lane alike (see
    /// [`GuardPool::quiesce`]). Called after `setgoal`/`transfer_label`
    /// bump their epochs, so that by the time the invalidating
    /// syscall returns, any batch evaluated under the old goal has
    /// re-validated its epochs (and re-evaluated if stale) — no stale
    /// allow can complete later.
    pub(super) fn fence_in_flight_authz(&self) {
        if let Some(pool) = self.authz_pool() {
            pool.quiesce();
        }
    }

    /// The label-removal fence, as one named step — the in-flight half
    /// of a removal: bump the removal epoch (an evaluation that read
    /// the departed label fails its stamp and starts over) and quiesce
    /// in-flight pipeline batches. The cached half is the rename
    /// `withdraw` did just before; the prover memo needs none — its
    /// entries are leaf-tested against credentials read later. Every
    /// label that leaves a store leaves through that one door, which
    /// runs exactly this — transfer, credential revocation, and a
    /// remotely delivered revocation broadcast alike; by the time it
    /// returns, no authorization backed by the departed label can
    /// complete (PR 5's no-stale-allow invariant, which the
    /// distributed layer extends across nodes).
    pub fn revocation_fence(&self) {
        self.label_removal_epoch.fetch_add(1, Ordering::Relaxed);
        self.fence_in_flight_authz();
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
                        proof: r.proof.as_deref(),
                        submitted_at: r.submitted_at,
                    })
                    .collect();
                kernel.evaluate_authz(&key.op, &key.object, &reqs, AuditPath::Pipeline)
            }
            None => vec![AuthzOutcome::Fault("kernel torn down".into()); reqs.len()],
        }
    }
}
