//! Deterministic regressions for the caller-thread half of
//! no-stale-allow: no pipeline is running, so `authorize` evaluates on
//! the calling thread, and an invalidation that *returns* while the
//! guard is still running must not be followed by an allow computed
//! from the state it killed.
//!
//! The interleaving is forced, not sampled: the goal needs a leaf
//! backed by the `Clock` authority, whose callback parks the guard on a
//! barrier until a helper thread has completed the invalidating
//! syscall. (That is also why the proofs here are supplied rather than
//! auto-proved: an auto-proved proof has only label-backed leaves, so
//! the guard would never reach an authority callback to park in.)

use nexus_core::{AuthorityKind, FnAuthority, ResourceId};
use nexus_kernel::Nexus;
use nexus_nal::{parse, Formula, Principal, Proof};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// Register a `Clock` authority that says yes, but whose *first* query
/// rendezvouses on `at_gate` (the guard is now mid-check) and then on
/// `release` before answering. Later queries answer immediately.
fn gated_clock(nexus: &Nexus) -> (Arc<Barrier>, Arc<Barrier>) {
    let at_gate = Arc::new(Barrier::new(2));
    let release = Arc::new(Barrier::new(2));
    let (gate, open) = (Arc::clone(&at_gate), Arc::clone(&release));
    let first = AtomicBool::new(true);
    nexus.register_authority(
        Principal::name("Clock"),
        Arc::new(FnAuthority(move |_s: &Formula| {
            if first.swap(false, Ordering::SeqCst) {
                gate.wait();
                open.wait();
            }
            true
        })),
        AuthorityKind::Embedded,
    );
    (at_gate, release)
}

/// Run `authorize_with(reader, "poke", object, proof)` on a second
/// thread; once its guard is parked inside the authority, run
/// `invalidate` to completion on this thread, then let the guard
/// finish and return what the in-flight call came back with.
fn authorize_across(
    nexus: &Arc<Nexus>,
    reader: u64,
    object: &ResourceId,
    proof: &Proof,
    invalidate: impl FnOnce(),
) -> Result<bool, nexus_kernel::KernelError> {
    let (at_gate, release) = gated_clock(nexus);
    std::thread::scope(|s| {
        let in_flight = s.spawn(|| nexus.authorize_with(reader, "poke", object, Some(proof)));
        at_gate.wait();
        invalidate();
        release.wait();
        in_flight.join().expect("authorize thread panicked")
    })
}

#[test]
fn setgoal_returning_mid_guard_is_never_followed_by_an_inline_allow() {
    let nexus = Arc::new(Nexus::boot_default().unwrap());
    let owner = nexus.spawn("owner", b"img");
    let reader = nexus.spawn("reader", b"img");
    let object = ResourceId::new("svc", "race");
    nexus.grant_ownership(owner, &object).unwrap();
    let goal = parse("Clock says fresh").unwrap();
    nexus
        .sys_setgoal(owner, object.clone(), "poke", goal.clone())
        .unwrap();

    let verdict = authorize_across(&nexus, reader, &object, &Proof::assume(goal), || {
        nexus
            .sys_setgoal(owner, object.clone(), "poke", Formula::False)
            .unwrap();
    });
    assert_ne!(
        verdict,
        Ok(true),
        "allow served under the goal that setgoal had already replaced"
    );
    // And the stale verdict was not cached either.
    assert!(!nexus.authorize(reader, "poke", &object).unwrap());
}

#[test]
fn transfer_label_returning_mid_guard_is_never_followed_by_an_inline_allow() {
    let nexus = Arc::new(Nexus::boot_default().unwrap());
    let owner = nexus.spawn("owner", b"img");
    let reader = nexus.spawn("reader", b"img");
    let elsewhere = nexus.spawn("elsewhere", b"img");
    let object = ResourceId::new("svc", "race");
    nexus.grant_ownership(owner, &object).unwrap();
    nexus
        .sys_setgoal(
            owner,
            object.clone(),
            "poke",
            parse("Owner says ok and Clock says fresh").unwrap(),
        )
        .unwrap();
    // The credential the verdict rests on: label-backed, checked before
    // the guard reaches the (parked) Clock leaf.
    let credential = nexus
        .kernel_label(reader, Principal::name("Owner"), parse("ok").unwrap())
        .unwrap();
    let proof = Proof::AndIntro(
        Box::new(Proof::assume(parse("Owner says ok").unwrap())),
        Box::new(Proof::assume(parse("Clock says fresh").unwrap())),
    );

    let verdict = authorize_across(&nexus, reader, &object, &proof, || {
        nexus.transfer_label(reader, credential, elsewhere).unwrap();
    });
    assert_ne!(
        verdict,
        Ok(true),
        "allow served on a credential transfer_label had already taken away"
    );
    assert!(!nexus
        .authorize_with(reader, "poke", &object, Some(&proof))
        .unwrap());
}

#[test]
fn transfer_label_returning_mid_guard_leaves_nothing_cached_under_the_subjects_new_name() {
    // The same parked evaluation, seen from the decision cache: the
    // transfer renames the reader while its guard sits on the old
    // labels. The finishing call is not an allow, and nothing it (or
    // anything before it) filed is reachable afterwards — the raced
    // tuple and a sibling tuple cached before the race both miss.
    let nexus = Arc::new(Nexus::boot_default().unwrap());
    let owner = nexus.spawn("owner", b"img");
    let reader = nexus.spawn("reader", b"img");
    let elsewhere = nexus.spawn("elsewhere", b"img");
    let object = ResourceId::new("svc", "race");
    let sibling = ResourceId::new("svc", "sibling");
    for (o, goal) in [
        (&object, "Owner says ok and Clock says fresh"),
        (&sibling, "Owner says ok"),
    ] {
        nexus.grant_ownership(owner, o).unwrap();
        nexus
            .sys_setgoal(owner, o.clone(), "poke", parse(goal).unwrap())
            .unwrap();
    }
    let credential = nexus
        .kernel_label(reader, Principal::name("Owner"), parse("ok").unwrap())
        .unwrap();
    let proof = Proof::AndIntro(
        Box::new(Proof::assume(parse("Owner says ok").unwrap())),
        Box::new(Proof::assume(parse("Clock says fresh").unwrap())),
    );
    assert!(nexus.authorize(reader, "poke", &sibling).unwrap());
    let cached = nexus.decision_cache_stats().hits;
    assert!(nexus.authorize(reader, "poke", &sibling).unwrap());
    assert_eq!(nexus.decision_cache_stats().hits, cached + 1);

    let verdict = authorize_across(&nexus, reader, &object, &proof, || {
        nexus.transfer_label(reader, credential, elsewhere).unwrap();
    });
    assert_ne!(verdict, Ok(true));

    let before = nexus.decision_cache_stats();
    assert!(!nexus
        .authorize_with(reader, "poke", &object, Some(&proof))
        .unwrap());
    assert!(!nexus.authorize(reader, "poke", &sibling).unwrap());
    let after = nexus.decision_cache_stats();
    assert_eq!(after.misses, before.misses + 2, "both calls were evaluated");
    assert_eq!(after.hits, before.hits);
    assert_eq!(after.invalidations, before.invalidations);
}
