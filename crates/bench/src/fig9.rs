//! Figure 9 (beyond the paper): authorization scalability under
//! multi-core load.
//!
//! The paper's evaluation is single-core; this bench hammers one
//! shared `Arc<Nexus>` from 1 up to 64 OS threads (the sweep is
//! derived from `available_parallelism` and always includes the 2×/4×
//! oversubscribed points plus 32 and 64) through both authorization
//! paths:
//!
//! * **sync** — every thread runs the guard inline on its own
//!   (syscall) thread, the paper's architecture;
//! * **async** — threads submit tickets to the `nexus-authzd`
//!   pipeline in windows; workers coalesce requests sharing the
//!   (op, object) goal and amortize goal fetch + NAL normalization
//!   across each batch.
//!
//! The workload is deliberately cache-miss-heavy (the decision cache
//! is disabled for the measurement, modeling the miss-dominated
//! regime of many distinct subjects), with a structurally wide ground
//! goal so per-request normalization is the dominant guard cost — the
//! paper's "slow goal" scenario where batching should pay.
//!
//! The **hit-path** mode ([`run_hits`]) measures the opposite regime —
//! every request a decision-cache hit, all threads on one cache key:
//! the seqlock probe is a handful of atomic loads, so the curve should
//! stay flat and never fall back to the locked probe.
//!
//! The superseded implementations these modes once compared against
//! (mutexed cache probe, one-shot prover, single-lane pool) are gone;
//! their final A/B numbers are the "Retired baselines" table in
//! `docs/ARCHITECTURE.md`.

use crate::boot_with;
use nexus_core::{AuthorityKind, FnAuthority, ResourceId};
use nexus_kernel::{GuardPoolConfig, Nexus, NexusConfig};
use nexus_nal::{parse, Formula, Principal, Proof};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Thread counts on the x-axis: powers of two up to the machine's
/// `available_parallelism`, the 2× and 4× oversubscribed points, and
/// always 32 and 64 (the ISSUE-6 acceptance range) — sorted, deduped.
pub fn thread_counts() -> Vec<usize> {
    let p = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8);
    let mut v = Vec::new();
    let mut t = 1;
    while t <= p {
        v.push(t);
        t *= 2;
    }
    v.extend([p, 2 * p, 4 * p, 32, 64]);
    v.sort_unstable();
    v.dedup();
    v
}

/// Per-thread iterations for a sweep point, scaled so total work stays
/// roughly constant as the thread count grows (64 threads would
/// otherwise take 64× the wall clock of the single-thread point).
fn per_thread(iters: u64, threads: usize) -> u64 {
    (iters / threads as u64).max(64)
}

/// Disjuncts in the goal formula (wide ⇒ expensive to normalize).
const GOAL_WIDTH: usize = 32;

/// Tickets in flight per submitter thread on the async path.
const WINDOW: usize = 32;

/// One point on the scalability curve.
#[derive(Debug, Clone)]
pub struct Point {
    /// OS threads hammering the kernel.
    pub threads: usize,
    /// Inline-guard throughput (authorizations/s).
    pub sync_ops_per_s: f64,
    /// Pipeline (batched) throughput (authorizations/s).
    pub async_ops_per_s: f64,
}

/// The wide ground goal: `Gate says g0 or Gate says g1 or …` —
/// no `$subject`, so pipeline batches amortize its normalization.
fn wide_goal() -> Formula {
    (1..GOAL_WIDTH).fold(parse("Gate says g0").unwrap(), |acc, k| {
        acc.or(parse(&format!("Gate says g{k}")).unwrap())
    })
}

/// A proof of the first disjunct, widened by OrIntroL to conclude the
/// full goal: one credential leaf, conclusion as wide as the goal.
fn wide_proof() -> Proof {
    (1..GOAL_WIDTH).fold(Proof::assume(parse("Gate says g0").unwrap()), |acc, k| {
        Proof::OrIntroL(Box::new(acc), parse(&format!("Gate says g{k}")).unwrap())
    })
}

/// Boot a kernel with `threads` ready subjects, each holding the
/// `Gate says g0` credential and the stored wide proof.
fn setup(threads: usize) -> (Arc<Nexus>, Vec<u64>, ResourceId) {
    let nexus = boot_with(NexusConfig::default());
    let object = ResourceId::new("bench", "fig9");
    let owner = nexus.spawn("owner", b"img");
    nexus.grant_ownership(owner, &object).unwrap();
    nexus
        .sys_setgoal(owner, object.clone(), "op", wide_goal())
        .unwrap();
    let pids: Vec<u64> = (0..threads)
        .map(|t| {
            let pid = nexus.spawn(&format!("fig9-{t}"), b"img");
            nexus
                .kernel_label(pid, Principal::name("Gate"), parse("g0").unwrap())
                .unwrap();
            nexus
                .sys_set_proof(pid, "op", &object, wide_proof())
                .unwrap();
            pid
        })
        .collect();
    // Miss-heavy regime: no decision cache, no auto-proving.
    nexus.set_config(NexusConfig {
        decision_cache: false,
        auto_prove: false,
        ..NexusConfig::default()
    });
    (Arc::new(nexus), pids, object)
}

/// Run `iters` authorizations per thread; returns authorizations/s.
fn run_threads(
    nexus: &Arc<Nexus>,
    pids: &[u64],
    object: &ResourceId,
    iters: u64,
    body: impl Fn(&Nexus, u64, &ResourceId, u64) + Send + Sync + Copy + 'static,
) -> f64 {
    let threads = pids.len();
    let barrier = Arc::new(Barrier::new(threads));
    let mut handles = Vec::new();
    for &pid in pids {
        let nexus = Arc::clone(nexus);
        let object = object.clone();
        let barrier = Arc::clone(&barrier);
        // Each worker times its own window; the measured span is
        // earliest start to latest end across workers. Timing on the
        // coordinating thread instead would race the scheduler: under
        // heavy oversubscription the workers can finish most of their
        // iterations before the coordinator is ever rescheduled to
        // start (or stop) its clock.
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let start = std::time::Instant::now();
            body(&nexus, pid, &object, iters);
            (start, std::time::Instant::now())
        }));
    }
    let windows: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let first = windows.iter().map(|w| w.0).min().unwrap();
    let last = windows.iter().map(|w| w.1).max().unwrap();
    let secs = last.duration_since(first).as_secs_f64();
    (threads as u64 * iters) as f64 / secs
}

fn sync_body(nexus: &Nexus, pid: u64, object: &ResourceId, iters: u64) {
    for _ in 0..iters {
        assert!(nexus.authorize(pid, "op", object).unwrap());
    }
}

fn async_body(nexus: &Nexus, pid: u64, object: &ResourceId, iters: u64) {
    let mut remaining = iters;
    while remaining > 0 {
        let window = remaining.min(WINDOW as u64);
        let tickets: Vec<_> = (0..window)
            .map(|_| nexus.authorize_async(pid, "op", object).unwrap())
            .collect();
        for t in tickets {
            assert!(t.wait().is_allow());
        }
        remaining -= window;
    }
}

/// Measure one thread count through both paths.
pub fn measure(threads: usize, iters: u64) -> Point {
    // Fresh kernels per mode so one path's warmup can't help the other.
    let (nexus, pids, object) = setup(threads);
    sync_body(&nexus, pids[0], &object, 16); // warm the guard memo
    let sync_ops_per_s = run_threads(&nexus, &pids, &object, iters, sync_body);

    let (nexus, pids, object) = setup(threads);
    nexus.start_authz_pipeline(GuardPoolConfig {
        workers: threads,
        max_batch: 64,
        ..Default::default()
    });
    async_body(&nexus, pids[0], &object, 16);
    let async_ops_per_s = run_threads(&nexus, &pids, &object, iters, async_body);
    nexus.stop_authz_pipeline();

    Point {
        threads,
        sync_ops_per_s,
        async_ops_per_s,
    }
}

/// The full curve. `iters` is the single-thread iteration count;
/// higher thread counts run proportionally fewer per-thread
/// iterations so every point does comparable total work.
pub fn run(iters: u64) -> Vec<Point> {
    thread_counts()
        .into_iter()
        .map(|t| measure(t, per_thread(iters, t)))
        .collect()
}

// ---- hit-path mode: the seqlock decision-cache probe ----

/// One point on the hit-path curve.
#[derive(Debug, Clone)]
pub struct HitPoint {
    /// OS threads hammering one cached decision.
    pub threads: usize,
    /// Hit throughput (authorizations/s).
    pub ops_per_s: f64,
    /// Seqlock probe retries observed during the run (a writer was
    /// mid-flight on the probed slot).
    pub read_retries: u64,
    /// Bounded-retry exhaustions that fell back to the locked probe.
    pub read_fallbacks: u64,
}

/// Boot a kernel with one primed, cacheable allow decision. Every
/// thread then authorizes the *same* (subject, op, object) tuple, so
/// the whole measurement lands on one slot of one subregion — the
/// paper's "cached decisions are nearly free" case.
fn hit_setup() -> (Arc<Nexus>, u64, ResourceId) {
    let nexus = boot_with(NexusConfig::default());
    let object = ResourceId::new("bench", "fig9-hit");
    let owner = nexus.spawn("owner", b"img");
    nexus.grant_ownership(owner, &object).unwrap();
    nexus
        .sys_setgoal(owner, object.clone(), "op", wide_goal())
        .unwrap();
    let pid = nexus.spawn("fig9-hit", b"img");
    nexus
        .kernel_label(pid, Principal::name("Gate"), parse("g0").unwrap())
        .unwrap();
    nexus
        .sys_set_proof(pid, "op", &object, wide_proof())
        .unwrap();
    nexus.set_config(NexusConfig {
        auto_prove: false,
        ..NexusConfig::default()
    });
    // Prime the one decision every measurement iteration will hit.
    assert!(nexus.authorize(pid, "op", &object).unwrap());
    (Arc::new(nexus), pid, object)
}

/// Measure one thread count.
pub fn measure_hits(threads: usize, iters: u64) -> HitPoint {
    let (nexus, pid, object) = hit_setup();
    let pids = vec![pid; threads];
    let ops_per_s = run_threads(&nexus, &pids, &object, iters, sync_body);
    let stats = nexus.decision_cache_stats();
    HitPoint {
        threads,
        ops_per_s,
        read_retries: stats.read_retries,
        read_fallbacks: stats.read_fallbacks,
    }
}

/// The full hit-path curve over [`thread_counts`].
pub fn run_hits(iters: u64) -> Vec<HitPoint> {
    thread_counts()
        .into_iter()
        .map(|t| measure_hits(t, per_thread(iters, t)))
        .collect()
}

// ---- back-pressure mode ----
//
// The guard mediates every syscall, so a slow or stuck external
// authority must never be able to wedge the whole authorization path.
// This mode wedges one: an NTP-style freshness authority that stops
// answering for the duration of the measurement window, while hammer
// threads flood the pipeline with requests whose goal depends on it
// and embedded threads measure ordinary (label-backed) authorization
// throughput. Two configurations:
//
// * `baseline`  — bounded pool, no external load (the reference);
// * `isolated`  — bounded pool + dedicated external lane, under load:
//                 the stuck authority occupies only the external
//                 worker, the external queue fills to its high-water
//                 mark and further external submissions fault
//                 (Reject), and embedded throughput must stay within
//                 20% of baseline.

/// Embedded measurement threads / pool workers.
const BP_THREADS: usize = 4;
/// Hammer threads flooding the external authority.
const BP_HAMMER_THREADS: usize = 2;
/// External submissions per hammer thread (spread over distinct
/// objects).
const BP_HAMMER_REQS: usize = 400;
/// Distinct external objects.
const BP_EXT_OBJECTS: usize = 8;
/// External-lane high-water mark in the bounded configurations.
const BP_MAX_QUEUED: usize = 256;

/// One back-pressure configuration's measurement.
#[derive(Debug, Clone)]
pub struct BackPressurePoint {
    /// `baseline` or `isolated`.
    pub mode: &'static str,
    /// Embedded-authority (label-backed) authorization throughput.
    pub embedded_ops_per_s: f64,
    /// External-authority requests submitted by the hammer.
    pub external_submitted: u64,
    /// Submissions refused at the high-water mark — each resolved to a fault immediately instead of waiting behind
    /// the stuck authority.
    pub rejected: u64,
}

/// The bounded + isolated pipeline configuration under test.
fn bp_isolated_cfg() -> GuardPoolConfig {
    GuardPoolConfig {
        workers: BP_THREADS,
        max_batch: 64,
        prioritizer: None,
        max_queued: BP_MAX_QUEUED,
        external_workers: 1,
        stage_timers: None,
    }
}

/// A world with the fig9 embedded workload plus `BP_EXT_OBJECTS`
/// resources whose goal depends on the `Stale` external authority —
/// which answers nothing until `release` is set.
#[allow(clippy::type_complexity)]
fn bp_setup() -> (
    Arc<Nexus>,
    Vec<u64>,
    ResourceId,
    Vec<(u64, ResourceId)>,
    Arc<AtomicBool>,
) {
    let nexus = boot_with(NexusConfig::default());
    let object = ResourceId::new("bench", "fig9");
    let owner = nexus.spawn("owner", b"img");
    nexus.grant_ownership(owner, &object).unwrap();
    nexus
        .sys_setgoal(owner, object.clone(), "op", wide_goal())
        .unwrap();
    let pids: Vec<u64> = (0..BP_THREADS)
        .map(|t| {
            let pid = nexus.spawn(&format!("bp-{t}"), b"img");
            nexus
                .kernel_label(pid, Principal::name("Gate"), parse("g0").unwrap())
                .unwrap();
            nexus
                .sys_set_proof(pid, "op", &object, wide_proof())
                .unwrap();
            pid
        })
        .collect();
    let stale_goal = parse("Stale says fresh").unwrap();
    let ext: Vec<(u64, ResourceId)> = (0..BP_EXT_OBJECTS)
        .map(|i| {
            let obj = ResourceId::new("bench", format!("ext{i}"));
            nexus.grant_ownership(owner, &obj).unwrap();
            nexus
                .sys_setgoal(owner, obj.clone(), "op", stale_goal.clone())
                .unwrap();
            let pid = nexus.spawn(&format!("ext-{i}"), b"img");
            nexus
                .sys_set_proof(pid, "op", &obj, Proof::assume(stale_goal.clone()))
                .unwrap();
            (pid, obj)
        })
        .collect();
    let release = Arc::new(AtomicBool::new(false));
    let gate = Arc::clone(&release);
    nexus.register_authority(
        Principal::name("Stale"),
        Arc::new(FnAuthority(move |_s: &Formula| {
            // A stuck freshness service: answers nothing until the
            // measurement window closes, then says yes.
            while !gate.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        })),
        AuthorityKind::External,
    );
    // Miss-heavy regime, same as the scalability curve.
    nexus.set_config(NexusConfig {
        decision_cache: false,
        auto_prove: false,
        ..NexusConfig::default()
    });
    (Arc::new(nexus), pids, object, ext, release)
}

/// Measure one configuration for `window`: embedded threads count
/// completed authorizations until the deadline while (optionally)
/// hammer threads flood the stuck external authority.
fn bp_measure(mode: &'static str, hammer: bool, window: Duration) -> BackPressurePoint {
    let (nexus, pids, object, ext, release) = bp_setup();
    nexus.start_authz_pipeline(bp_isolated_cfg());
    let deadline = Instant::now() + window;
    let external_submitted = Arc::new(AtomicU64::new(0));

    let mut embedded = Vec::new();
    for &pid in &pids {
        let nexus = Arc::clone(&nexus);
        let object = object.clone();
        embedded.push(std::thread::spawn(move || {
            let mut ops = 0u64;
            while Instant::now() < deadline {
                // Sync path: rides the pipeline, falls back inline on
                // a fault — exactly what a syscall does.
                assert!(nexus.authorize(pid, "op", &object).unwrap());
                ops += 1;
            }
            ops
        }));
    }
    let mut hammers = Vec::new();
    if hammer {
        for h in 0..BP_HAMMER_THREADS {
            let nexus = Arc::clone(&nexus);
            let ext = ext.clone();
            let submitted = Arc::clone(&external_submitted);
            hammers.push(std::thread::spawn(move || {
                let mut tickets = Vec::new();
                for i in 0..BP_HAMMER_REQS {
                    if Instant::now() >= deadline {
                        break;
                    }
                    let (pid, obj) = &ext[(h + i) % ext.len()];
                    tickets.push(nexus.authorize_async(*pid, "op", obj).unwrap());
                    submitted.fetch_add(1, Ordering::Relaxed);
                }
                // Tickets resolve once the authority un-sticks (or
                // instantly, as faults, past the high-water mark).
                for t in tickets {
                    let _ = t.wait();
                }
            }));
        }
    }
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
    release.store(true, Ordering::Relaxed);
    let embedded_ops: u64 = embedded.into_iter().map(|h| h.join().unwrap()).sum();
    for h in hammers {
        h.join().unwrap();
    }
    let stats = nexus.authz_stats().expect("pipeline running");
    nexus.stop_authz_pipeline();
    BackPressurePoint {
        mode,
        embedded_ops_per_s: embedded_ops as f64 / window.as_secs_f64(),
        external_submitted: external_submitted.load(Ordering::Relaxed),
        rejected: stats.rejected,
    }
}

/// Run both configurations (baseline / isolated) with a
/// `window_ms`-long measurement window each.
pub fn run_back_pressure(window_ms: u64) -> Vec<BackPressurePoint> {
    let window = Duration::from_millis(window_ms);
    vec![
        bp_measure("baseline", false, window),
        bp_measure("isolated", true, window),
    ]
}

// ---- batch-aware prover mode ----
//
// The pipeline amortizes goal fetch + normalization per batch; this
// mode measures the next cost down: proof *search*. The workload is
// proof-heavy — no stored proofs, the kernel auto-proves every
// request from the subject's labels, and the goal is a conjunction of
// delegation-chain subgoals so each search walks the chain's handoff
// graph per conjunct. The guard keeps one `ProofSearch` session: a
// batch's identical (goal, label-shape) requests are partitioned into
// frontier-sharing groups, searched once per group, memoized subgoals
// spliced into each request's proof (and into subsequent batches' —
// the memo lives until the label epoch moves).

/// Handoff hops in the delegation chain (P0 → P1 → … → Owner).
pub const PROVER_CHAIN_LEN: usize = 10;
/// Conjuncts in the goal (each one walks the chain again).
pub const PROVER_GOAL_WIDTH: usize = 8;
/// Submitter threads.
const PROVER_THREADS: usize = 4;
/// Pool workers (fewer than submitters so batches actually form).
const PROVER_WORKERS: usize = 2;

/// The prover mode's measurement.
#[derive(Debug, Clone)]
pub struct ProverPoint {
    /// Authorizations per second.
    pub ops_per_s: f64,
    /// Prover memo hits over the run.
    pub memo_hits: u64,
    /// Prover memo misses over the run.
    pub memo_misses: u64,
    /// Auto-proved goals over the run.
    pub proofs: u64,
    /// Frontier-sharing groups (root proof searches) over the run.
    pub groups: u64,
    /// Average coalesced batch size observed by the pool.
    pub avg_batch: f64,
}

impl ProverPoint {
    /// Memo hit rate in [0, 1]; 0 when the memo never engaged.
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }

    /// Fraction of auto-proved requests that rode a frontier-sharing
    /// group instead of running their own root search.
    pub fn share_rate(&self) -> f64 {
        if self.proofs == 0 {
            0.0
        } else {
            1.0 - self.groups as f64 / self.proofs as f64
        }
    }
}

/// The proof-heavy goal: `Owner says g0 and … and Owner says g{W-1}`.
fn prover_goal() -> Formula {
    (1..PROVER_GOAL_WIDTH).fold(parse("Owner says g0").unwrap(), |acc, k| {
        acc.and(parse(&format!("Owner says g{k}")).unwrap())
    })
}

/// Boot a kernel where every subject holds the same labels: the
/// handoff chain `P1 says (P0 sf P1) … Owner says (P{n-1} sf Owner)`
/// plus the payloads `P0 says gk` — so `Owner says gk` is provable
/// only by searching the chain. No stored proofs anywhere.
fn prover_setup() -> (Arc<Nexus>, Vec<u64>, ResourceId) {
    let nexus = boot_with(NexusConfig::default());
    let object = ResourceId::new("bench", "fig9-prover");
    let owner = nexus.spawn("owner", b"img");
    nexus.grant_ownership(owner, &object).unwrap();
    nexus
        .sys_setgoal(owner, object.clone(), "op", prover_goal())
        .unwrap();
    let chain: Vec<(Principal, Formula)> = (0..PROVER_CHAIN_LEN)
        .map(|k| {
            let target = if k + 1 == PROVER_CHAIN_LEN {
                "Owner".to_string()
            } else {
                format!("P{}", k + 1)
            };
            (
                Principal::name(&target),
                parse(&format!("P{k} speaksfor {target}")).unwrap(),
            )
        })
        .collect();
    let pids: Vec<u64> = (0..PROVER_THREADS)
        .map(|t| {
            let pid = nexus.spawn(&format!("prover-{t}"), b"img");
            for (speaker, stmt) in &chain {
                nexus
                    .kernel_label(pid, speaker.clone(), stmt.clone())
                    .unwrap();
            }
            for k in 0..PROVER_GOAL_WIDTH {
                nexus
                    .kernel_label(pid, Principal::name("P0"), parse(&format!("g{k}")).unwrap())
                    .unwrap();
            }
            pid
        })
        .collect();
    // Proof-heavy regime: every request reaches the guard (no
    // decision cache) and must be auto-proved (no stored proofs).
    nexus.set_config(NexusConfig {
        decision_cache: false,
        ..NexusConfig::default()
    });
    (Arc::new(nexus), pids, object)
}

/// Run the proof-heavy auto-prove workload through the pipeline.
pub fn run_prover(iters: u64) -> ProverPoint {
    let (nexus, pids, object) = prover_setup();
    nexus.start_authz_pipeline(GuardPoolConfig {
        workers: PROVER_WORKERS,
        max_batch: 64,
        ..Default::default()
    });
    let ops_per_s = run_threads(&nexus, &pids, &object, iters, async_body);
    let stats = nexus.authz_stats().expect("pipeline running");
    let prover = nexus.guard_prover_stats();
    nexus.stop_authz_pipeline();
    ProverPoint {
        ops_per_s,
        memo_hits: prover.memo_hits,
        memo_misses: prover.memo_misses,
        proofs: prover.proved + prover.failed,
        groups: prover.batch_groups,
        avg_batch: if stats.batches == 0 {
            0.0
        } else {
            stats.completed as f64 / stats.batches as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_paths_authorize_correctly() {
        let _serial = crate::timing_guard();
        let (nexus, pids, object) = setup(2);
        assert!(nexus.authorize(pids[0], "op", &object).unwrap());
        nexus.start_authz_pipeline(GuardPoolConfig::default());
        let t = nexus.authorize_async(pids[1], "op", &object).unwrap();
        assert!(t.wait().is_allow());
        // A subject without the credential is denied on both paths.
        let stranger = nexus.spawn("stranger", b"img");
        assert!(!nexus.authorize(stranger, "op", &object).unwrap());
        nexus.stop_authz_pipeline();
    }

    #[test]
    fn seqlock_hit_path_stats_and_counts_are_sane() {
        let _serial = crate::timing_guard();
        // Assert the harness itself: the run produces throughput, the
        // sweep reaches 64 threads, and the seqlock hit path never
        // falls back to the locked probe when no writer is running.
        let counts = thread_counts();
        assert_eq!(counts.first(), Some(&1));
        assert!(counts.contains(&32) && counts.contains(&64));
        assert!(counts.windows(2).all(|w| w[0] < w[1]), "sweep not sorted");
        let p = measure_hits(4, 400);
        assert!(p.ops_per_s > 0.0);
        assert_eq!(
            p.read_fallbacks, 0,
            "hit-only workload with no writers must never exhaust retries"
        );
    }

    #[test]
    fn async_batched_keeps_pace_with_sync_under_contention() {
        let _serial = crate::timing_guard();
        // The acceptance criterion proper (async ≥ sync at 8 threads)
        // is asserted on the `reproduce` run; under the test harness's
        // noisy parallelism allow a safety margin, but batching must
        // at least be in the same league.
        let p = measure(4, 400);
        assert!(
            p.async_ops_per_s >= 0.6 * p.sync_ops_per_s,
            "async {:.0}/s vs sync {:.0}/s",
            p.async_ops_per_s,
            p.sync_ops_per_s
        );
    }

    #[test]
    fn back_pressure_isolates_the_stuck_external_authority() {
        let _serial = crate::timing_guard();
        let pts = run_back_pressure(300);
        let find = |m: &str| pts.iter().find(|p| p.mode == m).unwrap().clone();
        let (baseline, isolated) = (find("baseline"), find("isolated"));
        // The acceptance criterion proper (< 20% degradation) is
        // asserted on the `reproduce` run with a longer window; under
        // the noisy test harness allow a wide margin.
        assert!(
            isolated.embedded_ops_per_s >= 0.35 * baseline.embedded_ops_per_s,
            "stuck external authority starved embedded traffic: isolated {:.0}/s vs baseline {:.0}/s",
            isolated.embedded_ops_per_s,
            baseline.embedded_ops_per_s
        );
        assert!(
            isolated.rejected > 0,
            "hammer never hit the high-water mark: {isolated:?}"
        );
    }

    #[test]
    fn prover_modes_authorize_correctly() {
        let _serial = crate::timing_guard();
        let (nexus, pids, object) = prover_setup();
        nexus.start_authz_pipeline(GuardPoolConfig::default());
        assert!(nexus.authorize(pids[0], "op", &object).unwrap());
        let t = nexus.authorize_async(pids[1], "op", &object).unwrap();
        assert!(t.wait().is_allow());
        // A subject without the chain labels is denied either way.
        let stranger = nexus.spawn("stranger", b"img");
        assert!(!nexus.authorize(stranger, "op", &object).unwrap());
        nexus.stop_authz_pipeline();
    }

    #[test]
    fn batch_aware_prover_shares_the_frontier() {
        let _serial = crate::timing_guard();
        let batch_aware = run_prover(100);
        assert!(
            batch_aware.memo_hits > 0,
            "batch-aware mode must share derivations: {batch_aware:?}"
        );
        assert!(
            batch_aware.share_rate() > 0.5,
            "most auto-proves should ride a frontier-sharing group: {batch_aware:?}"
        );
    }

    #[test]
    fn pipeline_actually_batches_this_workload() {
        let _serial = crate::timing_guard();
        let (nexus, pids, object) = setup(4);
        let pool = nexus.start_authz_pipeline(GuardPoolConfig {
            workers: 1,
            max_batch: 64,
            ..Default::default()
        });
        let tickets: Vec<_> = (0..64)
            .map(|i| {
                nexus
                    .authorize_async(pids[i % pids.len()], "op", &object)
                    .unwrap()
            })
            .collect();
        for t in tickets {
            assert!(t.wait().is_allow());
        }
        pool.quiesce();
        let stats = nexus.authz_stats().unwrap();
        assert!(
            stats.coalesced > 0,
            "same-goal requests through one worker must coalesce: {stats:?}"
        );
        nexus.stop_authz_pipeline();
    }
}
