//! Multi-threaded stress of the shared authorization path.
//!
//! N reader threads hammer `Arc<Nexus>` with authorized file reads —
//! half inline through `authorize`, half as `authorize_async` tickets
//! over the `nexus-authzd` pipeline — while an invalidator thread
//! flips the file's `read` goal between an always-satisfiable formula
//! and `false` via `setgoal`. The serializability obligation (in the
//! spirit of Amir et al., "Deciding Serializability in Network
//! Systems"): once a `setgoal` has returned, no decision under the
//! *previous* goal may be served — a stale decision-cache fill racing
//! the invalidation, or an in-flight pipeline batch completing after
//! the invalidation fence, would be a lost invalidation, observable
//! below as an allow after the goal became `false`.

use nexus_core::ResourceId;
use nexus_kernel::{
    AuthzOutcome, BootImages, GuardPoolConfig, Nexus, NexusConfig, SysRet, Syscall,
};
use nexus_nal::Formula;
use nexus_storage::RamDisk;
use nexus_tpm::Tpm;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The acceptance criterion's compile-time assertion: the kernel is
/// shareable across threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Nexus>();
};

const READERS: usize = 8;
/// Hard bound on per-thread reads (readers otherwise run until the
/// invalidator finishes its cycles).
const MAX_READS_PER_THREAD: usize = 200_000;
const INVALIDATION_CYCLES: usize = 60;

fn allow_goal() -> Formula {
    // Satisfiable by any subject: the request itself utters
    // `$subject says read(<object>)` over the attested channel.
    nexus_nal::parse("$subject says read(file:/shared)").unwrap()
}

#[test]
fn concurrent_reads_with_goal_invalidation() {
    let nexus = Arc::new(
        Nexus::boot(
            Tpm::new_with_seed(0x57e5),
            RamDisk::new(),
            &BootImages::standard(),
            NexusConfig::default(),
        )
        .unwrap(),
    );
    let owner = nexus.spawn("owner", b"owner-image");
    nexus.fs_create(owner, "/shared").unwrap();
    nexus.fs_write_all(owner, "/shared", b"hot data").unwrap();
    let object = ResourceId::file("/shared");
    nexus
        .sys_setgoal(owner, object.clone(), "read", allow_goal())
        .unwrap();
    // `open` keeps a permanently satisfiable goal so reader threads
    // always reach the `read` authorization, whose goal is the one
    // being flipped.
    nexus
        .sys_setgoal(
            owner,
            object.clone(),
            "open",
            nexus_nal::parse("$subject says open(file:/shared)").unwrap(),
        )
        .unwrap();
    // Half the readers authorize through the async pipeline.
    let pool = nexus.start_authz_pipeline(GuardPoolConfig {
        workers: 4,
        ..Default::default()
    });

    let reader_pids: Vec<u64> = (0..READERS)
        .map(|i| nexus.spawn(&format!("reader{i}"), b"reader-image"))
        .collect();

    // Every authorize() performs exactly one decision-cache lookup;
    // count them so the stats totals can be reconciled at the end.
    let authorize_calls = Arc::new(AtomicU64::new(0));
    // Completed reader rounds — the invalidator uses this to hold the
    // false-goal window open until rounds that *started inside it*
    // have finished, decoupling the test from scheduler fairness.
    let reader_rounds = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let lost_invalidations = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for (i, &pid) in reader_pids.iter().enumerate() {
        let nexus = Arc::clone(&nexus);
        let calls = Arc::clone(&authorize_calls);
        let rounds = Arc::clone(&reader_rounds);
        let object = object.clone();
        let stop = Arc::clone(&stop);
        // Even-index readers block on completion tickets; odd-index
        // readers take the classic sync entry point (which itself
        // rides the pipeline on a cache miss).
        let use_tickets = i % 2 == 0;
        handles.push(std::thread::spawn(move || {
            let mut allows = 0u64;
            let mut denies = 0u64;
            for _ in 0..MAX_READS_PER_THREAD {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                calls.fetch_add(1, Ordering::Relaxed);
                // The goal flips concurrently, so either verdict is
                // legal *here*; the invalidator thread checks the
                // post-setgoal obligation.
                let allowed = if use_tickets {
                    match nexus.authorize_async(pid, "read", &object).unwrap().wait() {
                        AuthzOutcome::Allow => true,
                        AuthzOutcome::Deny => false,
                        AuthzOutcome::Fault(m) => panic!("pipeline fault mid-run: {m}"),
                    }
                } else {
                    nexus.authorize(pid, "read", &object).unwrap()
                };
                if allowed {
                    allows += 1;
                    // An allowed read must actually succeed end-to-end
                    // unless the goal flipped between the two calls.
                    let fd = match nexus.syscall(pid, Syscall::Open("/shared".into())) {
                        Ok(SysRet::Int(fd)) => fd,
                        Ok(other) => panic!("open returned {other:?}"),
                        Err(_) => {
                            calls.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                    };
                    // open + read below each authorize once more.
                    calls.fetch_add(2, Ordering::Relaxed);
                    if let Ok(SysRet::Data(data)) = nexus.syscall(pid, Syscall::Read(fd, 8)) {
                        assert_eq!(&data, b"hot data");
                    }
                    let _ = nexus.syscall(pid, Syscall::Close(fd));
                } else {
                    denies += 1;
                }
                rounds.fetch_add(1, Ordering::Relaxed);
            }
            (allows, denies)
        }));
    }

    // The invalidator: flip the goal, and after every flip to `false`
    // verify no reader subject can still be allowed — a stale cache
    // entry surviving the subregion invalidation would show up here.
    let invalidator = {
        let nexus = Arc::clone(&nexus);
        let calls = Arc::clone(&authorize_calls);
        let rounds = Arc::clone(&reader_rounds);
        let lost = Arc::clone(&lost_invalidations);
        let reader_pids = reader_pids.clone();
        let object = object.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for _ in 0..INVALIDATION_CYCLES {
                // setgoal itself authorizes (one lookup), then the
                // probe authorizes once per reader.
                calls.fetch_add(1, Ordering::Relaxed);
                nexus
                    .sys_setgoal(owner, object.clone(), "read", Formula::False)
                    .unwrap();
                // Hold the window until 2×READERS rounds complete: at
                // most READERS of them were already in flight when the
                // goal flipped, so at least READERS started after the
                // setgoal returned and must have been denied. A
                // deadline keeps a wedged run from spinning forever
                // (it would then fail the deny assertion instead).
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
                        lost.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // The same obligation through tickets: a ticket
                // obtained after setgoal returned must never complete
                // with an allow under the dead goal.
                let tickets: Vec<_> = reader_pids
                    .iter()
                    .map(|&pid| {
                        calls.fetch_add(1, Ordering::Relaxed);
                        nexus.authorize_async(pid, "read", &object).unwrap()
                    })
                    .collect();
                for t in tickets {
                    if t.wait().is_allow() {
                        lost.fetch_add(1, Ordering::Relaxed);
                    }
                }
                calls.fetch_add(1, Ordering::Relaxed);
                nexus
                    .sys_setgoal(owner, object.clone(), "read", allow_goal())
                    .unwrap();
                // And the allow goal must take effect immediately too.
                calls.fetch_add(1, Ordering::Relaxed);
                assert!(
                    nexus.authorize(reader_pids[0], "read", &object).unwrap(),
                    "satisfiable goal must allow after setgoal returns"
                );
            }
            stop.store(true, Ordering::Relaxed);
        })
    };

    let mut total_allows = 0u64;
    let mut total_denies = 0u64;
    for h in handles {
        let (a, d) = h.join().unwrap();
        total_allows += a;
        total_denies += d;
    }
    invalidator.join().unwrap();

    assert_eq!(
        lost_invalidations.load(Ordering::Relaxed),
        0,
        "an allow was served after its goal was set to false — lost invalidation"
    );
    // The pipeline drained everything it accepted.
    pool.quiesce();
    let pool_stats = nexus.authz_stats().expect("pipeline running");
    assert_eq!(pool_stats.submitted, pool_stats.completed);
    nexus.stop_authz_pipeline();
    // Work actually interleaved both ways: the invalidator held each
    // false-goal window open until reader rounds completed inside it.
    assert!(total_allows > 0, "readers never saw the satisfiable goal");
    assert!(
        total_denies > 0,
        "readers never saw the false goal: allows={total_allows}"
    );

    // Stats reconciliation: every guard upcall came from exactly one
    // decision-cache miss path, and every authorize did exactly one
    // cache lookup.
    let g = nexus.guard_stats();
    assert_eq!(
        g.checks,
        nexus.guard_upcalls(),
        "guard invocations must equal kernel guard upcalls"
    );
    let d = nexus.decision_cache_stats();
    // fs_create/fs_write_all/setgoal setup before the threads also
    // authorized; count them: write(1) + setgoal(2) = 3 lookups (the
    // fs_create path does not authorize).
    let counted = authorize_calls.load(Ordering::Relaxed) + 3;
    assert_eq!(
        d.hits + d.misses,
        counted,
        "every authorize must do exactly one decision-cache lookup"
    );
    assert!(d.invalidations > 0, "setgoal must invalidate subregions");
}

#[test]
fn bounded_admission_under_load_never_wedges_or_lies() {
    // A deliberately tiny high-water mark under heavy concurrent
    // submission: sync callers must still get the *correct* verdict
    // (overflow faults shed them to the inline path), async callers
    // must resolve promptly as either the correct verdict or a fault
    // — never a wrong answer, never an unbounded wait.
    let nexus = Arc::new(Nexus::boot_default().unwrap());
    let owner = nexus.spawn("owner", b"img");
    nexus.fs_create(owner, "/b").unwrap();
    let object = ResourceId::file("/b");
    nexus
        .sys_setgoal(
            owner,
            object.clone(),
            "read",
            nexus_nal::parse("$subject says read(file:/b)").unwrap(),
        )
        .unwrap();
    let pool = nexus.start_authz_pipeline(GuardPoolConfig {
        workers: 2,
        max_batch: 8,
        max_queued: 2,
        external_workers: 1,
        prioritizer: None,
        stage_timers: None,
    });
    // Fresh subjects each round dodge the decision cache, keeping the
    // submission queue under genuine pressure.
    let faults = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for t in 0..8usize {
        let nexus = Arc::clone(&nexus);
        let object = object.clone();
        let faults = Arc::clone(&faults);
        let use_tickets = t % 2 == 0;
        handles.push(std::thread::spawn(move || {
            for i in 0..200 {
                let pid = nexus.spawn(&format!("b{t}-{i}"), b"img");
                if use_tickets {
                    match nexus.authorize_async(pid, "read", &object).unwrap().wait() {
                        AuthzOutcome::Allow => {}
                        AuthzOutcome::Deny => panic!("satisfiable goal denied"),
                        AuthzOutcome::Fault(_) => {
                            faults.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                } else {
                    // The sync path must absorb rejection by falling
                    // back inline: always the true verdict.
                    assert!(nexus.authorize(pid, "read", &object).unwrap());
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    pool.quiesce();
    let stats = nexus.authz_stats().expect("pipeline running");
    assert_eq!(stats.submitted, stats.completed, "{stats:?}");
    // Everything the pool refused is accounted for: async callers saw
    // exactly the faults the admission controller issued to them.
    assert!(
        faults.load(Ordering::Relaxed) <= stats.rejected,
        "async fault count exceeds rejections: {stats:?}"
    );
    nexus.stop_authz_pipeline();
}

#[test]
fn concurrent_say_and_authorize_do_not_deadlock() {
    // Writers mutate labelstores while readers authorize — exercises
    // the IPD table's reader-writer lock from both sides.
    let nexus = Arc::new(Nexus::boot_default().unwrap());
    let pid = nexus.spawn("chatty", b"img");
    nexus.fs_create(pid, "/f").unwrap();
    let object = ResourceId::file("/f");
    let mut handles = Vec::new();
    for _ in 0..4 {
        let nexus = Arc::clone(&nexus);
        handles.push(std::thread::spawn(move || {
            for i in 0..200 {
                nexus.sys_say(pid, &format!("fact{i}")).unwrap();
            }
        }));
    }
    for _ in 0..4 {
        let nexus = Arc::clone(&nexus);
        let object = object.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..200 {
                let _ = nexus.authorize(pid, "read", &object).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}
