//! Kernel-level tests of the asynchronous authorization pipeline:
//! sync-over-pipeline equivalence, ticket semantics, invalidation
//! fencing, bounded admission, external-authority isolation, and
//! teardown.

use nexus_core::{AuthorityKind, FnAuthority, ResourceId};
use nexus_kernel::{AuthzOutcome, GuardPoolConfig, Nexus};
use nexus_nal::{parse, Formula, Principal, Proof};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn booted() -> Arc<Nexus> {
    Arc::new(Nexus::boot_default().unwrap())
}

/// A world with one file, an allow-anyone read goal, and one reader.
fn reader_world(nexus: &Arc<Nexus>) -> (u64, ResourceId) {
    let owner = nexus.spawn("owner", b"img");
    nexus.fs_create(owner, "/data").unwrap();
    let object = ResourceId::file("/data");
    nexus
        .sys_setgoal(
            owner,
            object.clone(),
            "read",
            parse("$subject says read(file:/data)").unwrap(),
        )
        .unwrap();
    (owner, object)
}

#[test]
fn pipeline_sync_path_agrees_with_inline() {
    let nexus = booted();
    let (_owner, object) = reader_world(&nexus);
    // Non-owner subjects on both paths: `read` is allowed by the
    // goal's `$subject says read(...)` shape, `unheard_op` falls to
    // the owner-only default goal and is denied.
    let inline_pid = nexus.spawn("inline", b"img");
    let inline_allow = nexus.authorize(inline_pid, "read", &object).unwrap();
    let inline_deny = nexus.authorize(inline_pid, "unheard_op", &object).unwrap();
    assert!(inline_allow);
    assert!(!inline_deny);

    let pool = nexus.start_authz_pipeline(GuardPoolConfig::default());
    // Fresh subject so the decision cache can't answer for us.
    let fresh = nexus.spawn("fresh", b"img");
    assert_eq!(
        nexus.authorize(fresh, "read", &object).unwrap(),
        inline_allow
    );
    assert_eq!(
        nexus.authorize(fresh, "unheard_op", &object).unwrap(),
        inline_deny
    );
    // The completion counter is bumped *after* tickets resolve (the
    // order the quiesce fence needs), so settle before comparing.
    pool.quiesce();
    let stats = nexus.authz_stats().expect("pipeline running");
    assert!(stats.submitted >= 2, "misses must route through the pool");
    assert_eq!(stats.submitted, stats.completed);
}

#[test]
fn async_ticket_poll_wait_and_callback() {
    let nexus = booted();
    let (_, object) = reader_world(&nexus);
    nexus.start_authz_pipeline(GuardPoolConfig::default());
    let pid = nexus.spawn("reader", b"img");

    let ticket = nexus.authorize_async(pid, "read", &object).unwrap();
    let fired = Arc::new(AtomicBool::new(false));
    let fired2 = Arc::clone(&fired);
    ticket.on_complete(move |o| {
        assert!(o.is_allow());
        fired2.store(true, Ordering::SeqCst);
    });
    assert_eq!(ticket.wait(), AuthzOutcome::Allow);
    // The worker publishes the outcome (releasing `wait`) and *then*
    // runs the callbacks, so give it the moment it may still need.
    spin_until(10, "completion callback", || fired.load(Ordering::SeqCst));
    assert!(fired.load(Ordering::SeqCst));
    // A second authorization for the same tuple hits the decision
    // cache and comes back already resolved.
    let cached = nexus.authorize_async(pid, "read", &object).unwrap();
    assert_eq!(cached.try_outcome(), Some(AuthzOutcome::Allow));
}

#[test]
fn async_ticket_without_pipeline_resolves_inline() {
    let nexus = booted();
    let (_, object) = reader_world(&nexus);
    let pid = nexus.spawn("reader", b"img");
    let ticket = nexus.authorize_async(pid, "read", &object).unwrap();
    assert_eq!(ticket.try_outcome(), Some(AuthzOutcome::Allow));
}

#[test]
fn async_unknown_pid_is_a_kernel_error() {
    let nexus = booted();
    let (_, object) = reader_world(&nexus);
    nexus.start_authz_pipeline(GuardPoolConfig::default());
    assert!(nexus.authorize_async(9999, "read", &object).is_err());
    assert!(nexus.authorize(9999, "read", &object).is_err());
}

#[test]
fn setgoal_fences_in_flight_tickets() {
    // After sys_setgoal(False) *returns*, no previously submitted
    // ticket may complete with a stale allow: the quiesce fence keeps
    // the syscall open until in-flight batches have re-validated.
    let nexus = booted();
    let (owner, object) = reader_world(&nexus);
    nexus.start_authz_pipeline(GuardPoolConfig {
        workers: 2,
        ..Default::default()
    });
    for round in 0..50 {
        let pids: Vec<u64> = (0..4)
            .map(|i| nexus.spawn(&format!("r{round}-{i}"), b"img"))
            .collect();
        let tickets: Vec<_> = pids
            .iter()
            .map(|&pid| nexus.authorize_async(pid, "read", &object).unwrap())
            .collect();
        nexus
            .sys_setgoal(owner, object.clone(), "read", Formula::False)
            .unwrap();
        // The fence has run: every ticket still unresolved was
        // re-evaluated under *some* current goal; and any allow must
        // have been decided before the flip — by now all are done.
        for t in &tickets {
            assert!(
                t.try_outcome().is_some(),
                "fence returned with a ticket still in flight"
            );
        }
        // New submissions must see the false goal.
        let probe = nexus.spawn(&format!("probe{round}"), b"img");
        let t = nexus.authorize_async(probe, "read", &object).unwrap();
        assert_eq!(t.wait(), AuthzOutcome::Deny, "stale allow after setgoal");
        nexus
            .sys_setgoal(
                owner,
                object.clone(),
                "read",
                parse("$subject says read(file:/data)").unwrap(),
            )
            .unwrap();
    }
}

#[test]
fn stored_and_inline_proofs_flow_through_pipeline() {
    let nexus = booted();
    let owner = nexus.spawn("owner", b"img");
    nexus.fs_create(owner, "/vault").unwrap();
    let object = ResourceId::file("/vault");
    let goal = parse("Owner says ok").unwrap();
    nexus
        .sys_setgoal(owner, object.clone(), "read", goal.clone())
        .unwrap();
    nexus.start_authz_pipeline(GuardPoolConfig::default());

    let pid = nexus.spawn("client", b"img");
    // No credential, no proof: deny.
    assert!(!nexus.authorize(pid, "read", &object).unwrap());
    // Inline proof without the credential: still deny.
    let proof = Proof::assume(goal.clone());
    assert!(!nexus
        .authorize_with(pid, "read", &object, Some(&proof))
        .unwrap());
    // Grant the credential; inline proof now passes.
    nexus
        .kernel_label(pid, Principal::name("Owner"), parse("ok").unwrap())
        .unwrap();
    assert!(nexus
        .authorize_with(pid, "read", &object, Some(&proof))
        .unwrap());
    // Stored proof passes too (fresh subject dodges the decision
    // cache entry the inline call may have filled).
    let pid2 = nexus.spawn("client2", b"img");
    nexus
        .kernel_label(pid2, Principal::name("Owner"), parse("ok").unwrap())
        .unwrap();
    nexus
        .sys_set_proof(pid2, "read", &object, proof.clone())
        .unwrap();
    assert!(nexus.authorize(pid2, "read", &object).unwrap());
}

#[test]
fn coalescing_batches_share_guard_work() {
    let nexus = booted();
    let (owner, object) = reader_world(&nexus);
    // Ground goal so batches amortize (no $subject variable): anyone
    // holding the Gate credential may read.
    nexus
        .sys_setgoal(
            owner,
            object.clone(),
            "read",
            parse("Gate says open").unwrap(),
        )
        .unwrap();
    // One slow-ish worker forces queue build-up → coalescing.
    let pool = nexus.start_authz_pipeline(GuardPoolConfig {
        workers: 1,
        max_batch: 64,
        ..Default::default()
    });
    let pids: Vec<u64> = (0..16)
        .map(|i| {
            let pid = nexus.spawn(&format!("c{i}"), b"img");
            nexus
                .kernel_label(pid, Principal::name("Gate"), parse("open").unwrap())
                .unwrap();
            pid
        })
        .collect();
    let tickets: Vec<_> = pids
        .iter()
        .map(|&pid| nexus.authorize_async(pid, "read", &object).unwrap())
        .collect();
    for t in &tickets {
        assert_eq!(t.wait(), AuthzOutcome::Allow);
    }
    pool.quiesce();
    let stats = nexus.authz_stats().unwrap();
    assert_eq!(stats.completed, stats.submitted);
    assert!(
        stats.max_batch_seen >= 2 || stats.batches as usize >= tickets.len(),
        "either batches coalesced or the worker kept up one-by-one: {stats:?}"
    );
}

/// A resource whose `poke` goal depends on the `Stale` external
/// authority, which answers nothing until `release` is set (and
/// counts how many queries reached it). Returns the object plus a
/// supply of subjects holding a stored proof that leans on the
/// authority.
#[allow(clippy::type_complexity)]
fn stuck_authority_world(
    nexus: &Arc<Nexus>,
    owner: u64,
    subjects: usize,
) -> (ResourceId, Vec<u64>, Arc<AtomicBool>, Arc<AtomicU64>) {
    let ext = ResourceId::new("svc", "stale");
    nexus.grant_ownership(owner, &ext).unwrap();
    let stale_goal = parse("Stale says fresh").unwrap();
    nexus
        .sys_setgoal(owner, ext.clone(), "poke", stale_goal.clone())
        .unwrap();
    let release = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicU64::new(0));
    let gate = Arc::clone(&release);
    let count = Arc::clone(&entered);
    nexus.register_authority(
        Principal::name("Stale"),
        Arc::new(FnAuthority(move |_s: &Formula| {
            count.fetch_add(1, Ordering::SeqCst);
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        })),
        AuthorityKind::External,
    );
    let pids = (0..subjects)
        .map(|i| {
            let pid = nexus.spawn(&format!("ext{i}"), b"img");
            nexus
                .sys_set_proof(pid, "poke", &ext, Proof::assume(stale_goal.clone()))
                .unwrap();
            pid
        })
        .collect();
    (ext, pids, release, entered)
}

fn spin_until(deadline_secs: u64, what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(deadline_secs);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        std::thread::yield_now();
    }
}

#[test]
fn stuck_external_authority_saturates_only_the_external_pool() {
    let nexus = booted();
    let (owner, object) = reader_world(&nexus);
    let (ext, ext_pids, release, entered) = stuck_authority_world(&nexus, owner, 7);
    nexus.start_authz_pipeline(GuardPoolConfig {
        workers: 2,
        max_batch: 1,
        max_queued: 4,
        external_workers: 1,
        prioritizer: None,
        stage_timers: None,
    });
    // The first external request wedges the (sole) external worker…
    let stuck = nexus.authorize_async(ext_pids[0], "poke", &ext).unwrap();
    spin_until(10, "external worker at the gate", || {
        entered.load(Ordering::SeqCst) >= 1
    });
    // …the next four fill the external lane to its high-water mark…
    let queued: Vec<_> = ext_pids[1..5]
        .iter()
        .map(|&pid| nexus.authorize_async(pid, "poke", &ext).unwrap())
        .collect();
    // …and further external work faults immediately (bounded wait:
    // the ticket never sits behind the stuck authority).
    for &pid in &ext_pids[5..] {
        let t = nexus.authorize_async(pid, "poke", &ext).unwrap();
        assert!(
            matches!(t.try_outcome(), Some(AuthzOutcome::Fault(_))),
            "over-high-water external submission must fault, not wait"
        );
    }
    // Embedded-authority traffic keeps flowing the whole time.
    for i in 0..10 {
        let pid = nexus.spawn(&format!("emb{i}"), b"img");
        assert!(
            nexus.authorize(pid, "read", &object).unwrap(),
            "embedded authorization starved by a stuck external authority"
        );
    }
    let stats = nexus.authz_stats().unwrap();
    assert_eq!(stats.rejected, 2, "{stats:?}");
    assert_eq!(
        entered.load(Ordering::SeqCst),
        1,
        "only the external lane may touch the stuck authority"
    );
    // Un-stick: everything admitted completes with an allow.
    release.store(true, Ordering::SeqCst);
    assert_eq!(stuck.wait(), AuthzOutcome::Allow);
    for t in &queued {
        assert_eq!(t.wait(), AuthzOutcome::Allow);
    }
    let stats = nexus.authz_stats().unwrap();
    assert!(stats.external_batches >= 5, "{stats:?}");
    nexus.stop_authz_pipeline();
}

#[test]
fn stored_proof_leaning_on_external_authority_routes_to_external_lane() {
    // The goal itself never mentions the external principal — only
    // the *stored* proof's leaves do. Classification must still send
    // the request to the external lane, or a stuck authority would
    // wedge embedded workers through exactly this path. (The proof
    // proves the wrong conclusion, so the verdict is a deny — the
    // classifier cares about leaves, not validity.)
    let nexus = booted();
    let owner = nexus.spawn("owner", b"img");
    let obj = ResourceId::new("svc", "mixed");
    nexus.grant_ownership(owner, &obj).unwrap();
    nexus
        .sys_setgoal(owner, obj.clone(), "poke", parse("Gate says open").unwrap())
        .unwrap();
    nexus.register_authority(
        Principal::name("Stale"),
        Arc::new(FnAuthority(|_s: &Formula| true)),
        AuthorityKind::External,
    );
    nexus.start_authz_pipeline(GuardPoolConfig {
        workers: 1,
        external_workers: 1,
        ..Default::default()
    });
    let pid = nexus.spawn("subj", b"img");
    nexus
        .sys_set_proof(
            pid,
            "poke",
            &obj,
            Proof::assume(parse("Stale says fresh").unwrap()),
        )
        .unwrap();
    let t = nexus.authorize_async(pid, "poke", &obj).unwrap();
    assert_eq!(t.wait(), AuthzOutcome::Deny, "wrong conclusion must deny");
    let stats = nexus.authz_stats().unwrap();
    assert!(
        stats.external_batches >= 1,
        "stored-proof external leaves must route to the external lane: {stats:?}"
    );
    nexus.stop_authz_pipeline();
}

#[test]
fn panicking_ticket_callback_leaves_the_pipeline_live() {
    // Regression: a panicking on_complete used to unwind through the
    // completing worker and kill it. The stuck authority holds the
    // ticket pending, so the callback is guaranteed to run on the
    // worker thread (not inline on this one).
    let nexus = booted();
    let (owner, object) = reader_world(&nexus);
    let (ext, ext_pids, release, entered) = stuck_authority_world(&nexus, owner, 2);
    nexus.start_authz_pipeline(GuardPoolConfig {
        workers: 1,
        external_workers: 1,
        ..Default::default()
    });
    let t = nexus.authorize_async(ext_pids[0], "poke", &ext).unwrap();
    spin_until(10, "external worker at the gate", || {
        entered.load(Ordering::SeqCst) >= 1
    });
    t.on_complete(|_| panic!("user callback exploding on the worker"));
    release.store(true, Ordering::SeqCst);
    assert_eq!(t.wait(), AuthzOutcome::Allow);
    // Both lanes survived the panic and still complete work.
    let t2 = nexus.authorize_async(ext_pids[1], "poke", &ext).unwrap();
    assert_eq!(t2.wait(), AuthzOutcome::Allow);
    let pid = nexus.spawn("after", b"img");
    assert!(nexus.authorize(pid, "read", &object).unwrap());
    let stats = nexus.authz_stats().unwrap();
    assert_eq!(stats.callback_panics, 1, "{stats:?}");
    nexus.stop_authz_pipeline();
}

#[test]
fn stop_pipeline_reverts_to_inline() {
    let nexus = booted();
    let (_, object) = reader_world(&nexus);
    nexus.start_authz_pipeline(GuardPoolConfig::default());
    let pid = nexus.spawn("reader", b"img");
    assert!(nexus.authorize(pid, "read", &object).unwrap());
    nexus.stop_authz_pipeline();
    assert!(nexus.authz_stats().is_none());
    // Fresh subject: must evaluate inline, not fault.
    let pid2 = nexus.spawn("reader2", b"img");
    assert!(nexus.authorize(pid2, "read", &object).unwrap());
}

#[test]
fn start_is_idempotent() {
    let nexus = booted();
    let p1 = nexus.start_authz_pipeline(GuardPoolConfig::default());
    let p2 = nexus.start_authz_pipeline(GuardPoolConfig {
        workers: 1,
        ..Default::default()
    });
    assert!(Arc::ptr_eq(&p1, &p2));
}

#[test]
fn heavier_tenants_drain_first_under_backlog() {
    // The default prioritizer consults per-IPD stride weights.
    let nexus = booted();
    let (_, object) = reader_world(&nexus);
    let heavy = nexus.spawn("tenant-heavy", b"img");
    let light = nexus.spawn("tenant-light", b"img");
    nexus.sched().set_weight("tenant-heavy", 8);
    nexus.sched().set_weight("tenant-light", 1);
    // A single worker plus a plug request lets a backlog form.
    let pool = nexus.start_authz_pipeline(GuardPoolConfig {
        workers: 1,
        max_batch: 1,
        ..Default::default()
    });
    let plug_pid = nexus.spawn("plug", b"img");
    let plug = nexus.authorize_async(plug_pid, "read", &object).unwrap();
    // Submit light first, heavy second — distinct ops so they can't
    // coalesce; completion order should favor the heavy tenant. This
    // is inherently timing-dependent, so assert only the invariant
    // that both complete and the scheduler was consulted (weights
    // exist); the authzd unit tests pin the ordering deterministically.
    let t_light = nexus.authorize_async(light, "op_a", &object).unwrap();
    let t_heavy = nexus.authorize_async(heavy, "op_b", &object).unwrap();
    let _ = plug.wait();
    let _ = t_light.wait();
    let _ = t_heavy.wait();
    assert_eq!(nexus.sched().weight("tenant-heavy"), Some(8));
    pool.quiesce();
    let stats = nexus.authz_stats().unwrap();
    assert_eq!(stats.completed, stats.submitted);
}

#[test]
fn stored_supplied_and_auto_proved_requests_mix_in_one_window() {
    // One window of tickets on one (op, object), mixing the three ways
    // a proof reaches the guard — installed ahead of time, supplied
    // with the request, constructed by the prover — each in a passing
    // and a failing flavour. Verdicts and refutation witnesses are the
    // ones the evaluator gave before proofs travelled as `Arc`s
    // (captured at PR 17's tree), on the pipeline and inline alike.
    use nexus_kernel::AuditVerdict;
    use nexus_nal::{normalize, prove, ProverConfig};

    let nexus = booted();
    let owner = nexus.spawn("owner", b"img");
    let object = ResourceId::new("test", "mixed");
    nexus.grant_ownership(owner, &object).unwrap();
    let goal = parse("Owner says g and Owner says h").unwrap();
    nexus
        .sys_setgoal(owner, object.clone(), "op", goal.clone())
        .unwrap();
    let g_half = [("Owner", "Gate speaksfor Owner"), ("Gate", "g")];
    let h_half = [("Gate", "h"), ("Owner", "Gate says h")];
    let spawn = |name: &str, whole: bool| {
        let pid = nexus.spawn(name, b"img");
        let labels = g_half.iter().chain(h_half.iter().filter(|_| whole));
        for (speaker, stmt) in labels {
            nexus
                .kernel_label(pid, Principal::name(*speaker), parse(stmt).unwrap())
                .unwrap();
        }
        pid
    };
    let creds: Vec<Formula> = g_half
        .iter()
        .chain(&h_half)
        .map(|(speaker, stmt)| parse(stmt).unwrap().says(Principal::name(*speaker)))
        .collect();
    let sound = prove(&goal, &creds, ProverConfig::default()).expect("provable");
    let off_goal = Proof::assume(creds[1].clone());
    let unsound = Proof::AndElimL(Box::new(off_goal.clone()));

    // (subject, supplied proof, expected allow, expected witness)
    let stored_ok = spawn("stored-ok", true);
    let stored_short = spawn("stored-short", false);
    for pid in [stored_ok, stored_short] {
        nexus
            .sys_set_proof(pid, "op", &object, sound.clone())
            .unwrap();
    }
    let h_refuted = Some(normalize(&parse("Owner says h").unwrap()));
    let cases: Vec<(u64, Option<&Proof>, bool, Option<Formula>)> = vec![
        (stored_ok, None, true, None),
        (stored_short, None, false, None),
        (spawn("supplied-ok", true), Some(&sound), true, None),
        (spawn("supplied-short", false), Some(&sound), false, None),
        (
            spawn("supplied-off-goal", true),
            Some(&off_goal),
            false,
            None,
        ),
        (spawn("supplied-unsound", true), Some(&unsound), false, None),
        (spawn("auto-ok", true), None, true, None),
        (spawn("auto-short", false), None, false, h_refuted),
    ];
    let journaled = |pid: u64, path: nexus_kernel::AuditPath| {
        nexus
            .audit_recent(usize::MAX)
            .into_iter()
            .rev()
            .find(|e| e.pid == pid && e.path == path)
            .expect("every evaluation is journaled")
    };
    let witness_of = |refuted: Option<String>| refuted.map(|t| normalize(&parse(&t).unwrap()));

    let checks = nexus.guard_stats().checks;
    nexus.start_authz_pipeline(GuardPoolConfig {
        workers: 1,
        max_batch: 64,
        ..Default::default()
    });
    let tickets: Vec<_> = cases
        .iter()
        .map(|(pid, proof, ..)| {
            nexus
                .authorize_async_with(*pid, "op", &object, *proof)
                .unwrap()
        })
        .collect();
    for ((pid, _, allow, refuted), ticket) in cases.iter().zip(&tickets) {
        assert_eq!(
            ticket.wait().is_allow(),
            *allow,
            "pid {pid} on the pipeline"
        );
        let ev = journaled(*pid, nexus_kernel::AuditPath::Pipeline);
        let verdict = if *allow {
            AuditVerdict::Allow
        } else {
            AuditVerdict::Deny
        };
        assert_eq!(ev.verdict, verdict);
        assert_eq!(&witness_of(ev.refuted), refuted, "pid {pid}");
    }
    nexus.stop_authz_pipeline();
    assert_eq!(
        nexus.guard_stats().checks,
        checks + cases.len() as u64,
        "every request reached the guard once, auto-proved ones included"
    );

    // The same requests on the caller's thread. The allows (and the
    // proof-only denials) may now be decision-cache hits; the verdicts
    // cannot differ.
    for (pid, proof, allow, _) in &cases {
        let inline = nexus.authorize_with(*pid, "op", &object, *proof).unwrap();
        assert_eq!(inline, *allow, "pid {pid} inline");
    }
    // The repeated denial is answered by the memoized refutation of
    // the root, so the goal itself is the witness.
    let ev = journaled(cases[7].0, nexus_kernel::AuditPath::Inline);
    assert_eq!(witness_of(ev.refuted), Some(normalize(&goal)));
}
