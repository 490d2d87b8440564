//! Oversubscribed stress of the lock-free (seqlock) read path.
//!
//! 64 OS threads — far more than the harness has cores — hammer the
//! decision cache's optimistic hit path while a mutator invalidates
//! concurrently, through both invalidation channels:
//!
//! * `sys_setgoal` (subregion invalidation + goal-epoch bump), and
//! * `transfer_label` (label-removal-epoch bump + full cache clear).
//!
//! The obligation under test is the same no-stale-allow invariant the
//! mutexed baseline had: once the invalidating call has *returned*, no
//! decision made under the old goal/credential set may be served. A
//! torn seqlock read that surfaced as a verdict, or a stale fill that
//! survived the epoch validation, would show up here as an allow after
//! the invalidation returned.

use nexus_core::ResourceId;
use nexus_kernel::{Nexus, NexusConfig};
use nexus_nal::{parse, Formula, Principal, Proof};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Deliberately oversubscribed (the CI runners have far fewer cores):
/// forced preemption mid-seqlock-read is exactly the schedule that
/// tears an unprotected optimistic read.
const READERS: usize = 64;
const MAX_READS_PER_THREAD: usize = 100_000;

#[test]
fn seqlock_64_readers_no_stale_allow_after_setgoal() {
    let nexus = Arc::new(Nexus::boot_default().unwrap());
    let owner = nexus.spawn("owner", b"img");
    nexus.fs_create(owner, "/seqlock").unwrap();
    let object = ResourceId::file("/seqlock");
    let allow_goal = || parse("$subject says read(file:/seqlock)").unwrap();
    nexus
        .sys_setgoal(owner, object.clone(), "read", allow_goal())
        .unwrap();

    let reader_pids: Vec<u64> = (0..READERS)
        .map(|i| nexus.spawn(&format!("r{i}"), b"img"))
        .collect();
    // Every authorize performs exactly one decision-cache lookup;
    // count them to reconcile the striped stats at the end.
    let calls = Arc::new(AtomicU64::new(0));
    let rounds = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let handles: Vec<_> = reader_pids
        .iter()
        .map(|&pid| {
            let nexus = Arc::clone(&nexus);
            let object = object.clone();
            let (calls, rounds, stop) =
                (Arc::clone(&calls), Arc::clone(&rounds), Arc::clone(&stop));
            std::thread::spawn(move || {
                let (mut allows, mut denies) = (0u64, 0u64);
                for _ in 0..MAX_READS_PER_THREAD {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    calls.fetch_add(1, Ordering::Relaxed);
                    // The goal flips concurrently, so either verdict
                    // is legal here; the mutator checks the
                    // post-setgoal obligation.
                    if nexus.authorize(pid, "read", &object).unwrap() {
                        allows += 1;
                    } else {
                        denies += 1;
                    }
                    rounds.fetch_add(1, Ordering::Relaxed);
                }
                (allows, denies)
            })
        })
        .collect();

    const CYCLES: usize = 15;
    let mut lost = 0u64;
    for _ in 0..CYCLES {
        calls.fetch_add(1, Ordering::Relaxed);
        nexus
            .sys_setgoal(owner, object.clone(), "read", Formula::False)
            .unwrap();
        // Hold the false-goal window open until rounds that started
        // inside it have finished (at most READERS were in flight when
        // the goal flipped); a deadline keeps a wedged run from
        // spinning forever.
        let base = rounds.load(Ordering::Relaxed);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while rounds.load(Ordering::Relaxed) < base + 2 * READERS as u64
            && std::time::Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        for &pid in &reader_pids {
            calls.fetch_add(1, Ordering::Relaxed);
            if nexus.authorize(pid, "read", &object).unwrap() {
                lost += 1;
            }
        }
        calls.fetch_add(1, Ordering::Relaxed);
        nexus
            .sys_setgoal(owner, object.clone(), "read", allow_goal())
            .unwrap();
        calls.fetch_add(1, Ordering::Relaxed);
        assert!(
            nexus.authorize(reader_pids[0], "read", &object).unwrap(),
            "satisfiable goal must allow after setgoal returns"
        );
    }
    stop.store(true, Ordering::Relaxed);

    let (mut allows, mut denies) = (0u64, 0u64);
    for h in handles {
        let (a, d) = h.join().unwrap();
        allows += a;
        denies += d;
    }
    assert_eq!(
        lost, 0,
        "an allow was served after its goal was set to false — stale seqlock read"
    );
    assert!(allows > 0, "readers never saw the satisfiable goal");
    assert!(denies > 0, "readers never saw the false goal");

    // Striped-stats reconciliation under maximal thread churn: every
    // authorize did exactly one lookup that counted exactly one hit
    // XOR one miss (the +1 is the setup setgoal's own authorization).
    let d = nexus.decision_cache_stats();
    assert_eq!(
        d.hits + d.misses,
        calls.load(Ordering::Relaxed) + 1,
        "lookup / hit / miss accounting drifted under contention: {d:?}"
    );
    assert!(d.invalidations > 0, "setgoal must invalidate subregions");
}

#[test]
fn seqlock_no_stale_allow_after_transfer_label() {
    // Credential-flavoured variant: the allow depends on a label the
    // subject holds, and the mutator repeatedly takes it away with
    // `transfer_label` (removal-epoch bump + cache clear) and hands it
    // back. Once a transfer-away has returned, the subject must be
    // denied — a cached allow surviving the clear, or a fill stamped
    // before the removal epoch moved, would leak through here.
    let nexus = Arc::new(Nexus::boot_default().unwrap());
    let owner = nexus.spawn("owner", b"img");
    let object = ResourceId::new("bench", "seqlock-xfer");
    nexus.grant_ownership(owner, &object).unwrap();
    nexus
        .sys_setgoal(owner, object.clone(), "op", parse("Gate says g0").unwrap())
        .unwrap();
    let subject = nexus.spawn("subject", b"img");
    let vault = nexus.spawn("vault", b"img");
    let mut handle = nexus
        .kernel_label(subject, Principal::name("Gate"), parse("g0").unwrap())
        .unwrap();
    nexus
        .sys_set_proof(
            subject,
            "op",
            &object,
            Proof::assume(parse("Gate says g0").unwrap()),
        )
        .unwrap();
    // Freeze the config to the measured regime: stored proof only, no
    // auto-prove rescue, decision cache on its default (lock-free)
    // read path.
    nexus.set_config(NexusConfig {
        auto_prove: false,
        ..NexusConfig::default()
    });
    assert!(nexus.authorize(subject, "op", &object).unwrap());

    const XFER_READERS: usize = 16;
    let stop = Arc::new(AtomicBool::new(false));
    let rounds = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..XFER_READERS)
        .map(|_| {
            let nexus = Arc::clone(&nexus);
            let object = object.clone();
            let (rounds, stop) = (Arc::clone(&rounds), Arc::clone(&stop));
            std::thread::spawn(move || {
                let (mut allows, mut denies) = (0u64, 0u64);
                for _ in 0..MAX_READS_PER_THREAD {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    // Racing the transfer: either verdict is legal,
                    // but it must be a real verdict (no torn state —
                    // authorize itself would panic or err on one).
                    if nexus.authorize(subject, "op", &object).unwrap() {
                        allows += 1;
                    } else {
                        denies += 1;
                    }
                    rounds.fetch_add(1, Ordering::Relaxed);
                }
                (allows, denies)
            })
        })
        .collect();

    for _ in 0..30 {
        handle = nexus.transfer_label(subject, handle, vault).unwrap();
        assert!(
            !nexus.authorize(subject, "op", &object).unwrap(),
            "allow served after transfer_label removed the credential"
        );
        // Hold the credential-absent window open until rounds that
        // started inside it have finished (at most XFER_READERS were
        // in flight when the transfer returned) — otherwise on a
        // single-core host the transfer-back can land before any
        // reader ever runs inside the window.
        let base = rounds.load(Ordering::Relaxed);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while rounds.load(Ordering::Relaxed) < base + 2 * XFER_READERS as u64
            && std::time::Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        handle = nexus.transfer_label(vault, handle, subject).unwrap();
        assert!(
            nexus.authorize(subject, "op", &object).unwrap(),
            "credential handed back must take effect once transfer returns"
        );
    }
    stop.store(true, Ordering::Relaxed);

    let (mut allows, mut denies) = (0u64, 0u64);
    for h in handles {
        let (a, d) = h.join().unwrap();
        allows += a;
        denies += d;
    }
    assert!(allows > 0, "readers never saw the credential present");
    assert!(denies > 0, "readers never saw the credential absent");
    let d = nexus.decision_cache_stats();
    assert!(d.renames > 0, "transfer_label must rename its subject");
}
