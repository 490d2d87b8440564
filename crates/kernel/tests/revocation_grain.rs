//! A revocation costs what it touches: whichever door a label leaves
//! by, the process that lost it is renamed in the decision cache and
//! nobody else notices.

use nexus_core::{LabelHandle, ResourceId};
use nexus_kernel::Nexus;
use nexus_nal::{Formula, Principal};

/// How a test hands the holder's credential away, and back.
struct Door {
    name: &'static str,
    remove: fn(&Nexus, holder: u64, LabelHandle, sink: u64) -> LabelHandle,
    hand_back: fn(&Nexus, holder: u64, LabelHandle, sink: u64, Principal, Formula),
}

const DOORS: [Door; 3] = [
    Door {
        name: "transfer_label",
        remove: |nexus, holder, h, sink| nexus.transfer_label(holder, h, sink).unwrap(),
        hand_back: |nexus, holder, moved, sink, _, _| {
            nexus.transfer_label(sink, moved, holder).unwrap();
        },
    },
    Door {
        name: "revoke_credential",
        remove: |nexus, holder, h, _| {
            nexus.revoke_credential(holder, h).unwrap();
            h
        },
        hand_back: |nexus, holder, _, _, speaker, statement| {
            nexus.kernel_label(holder, speaker, statement).unwrap();
        },
    },
    Door {
        name: "apply_remote_revoke",
        remove: |nexus, holder, h, _| {
            nexus.apply_remote_revoke(holder, h).unwrap();
            h
        },
        hand_back: |nexus, holder, _, _, speaker, statement| {
            nexus.apply_remote_mint(holder, speaker, statement).unwrap();
        },
    },
];

#[test]
fn a_removal_through_any_door_renames_its_one_subject() {
    let nexus = Nexus::boot_default().unwrap();
    let object = ResourceId::new("test", "grain");
    let owner = nexus.spawn("owner", b"img");
    nexus.grant_ownership(owner, &object).unwrap();
    let analyzer = nexus.spawn("analyzer", b"img");
    let speaker = nexus.principal(analyzer).unwrap();
    let ok = Formula::pred("ok", vec![]);
    nexus
        .sys_setgoal(
            owner,
            object.clone(),
            "use",
            ok.clone().says(speaker.clone()),
        )
        .unwrap();
    let sink = nexus.spawn("sink", b"img");
    let bystander = nexus.spawn("bystander", b"img");
    nexus
        .mint_credential(analyzer, bystander, ok.clone())
        .unwrap();
    assert!(nexus.authorize(bystander, "use", &object).unwrap());

    for door in &DOORS {
        let name = door.name;
        let holder = nexus.spawn(name, b"img");
        let h = nexus.mint_credential(analyzer, holder, ok.clone()).unwrap();
        assert!(nexus.authorize(holder, "use", &object).unwrap(), "{name}");
        let cached = nexus.decision_cache_stats().hits;
        assert!(nexus.authorize(holder, "use", &object).unwrap(), "{name}");
        assert_eq!(nexus.decision_cache_stats().hits, cached + 1, "{name}");

        let before = nexus.decision_cache_stats();
        let moved = (door.remove)(&nexus, holder, h, sink);
        let after = nexus.decision_cache_stats();
        assert_eq!(after.renames, before.renames + 1, "{name}: one rename");
        assert_eq!(
            after.invalidations, before.invalidations,
            "{name}: a removal clears nothing"
        );

        // The bystander's cached allow is still a hit: no guard ran.
        let upcalls = nexus.guard_upcalls();
        assert!(
            nexus.authorize(bystander, "use", &object).unwrap(),
            "{name}"
        );
        assert_eq!(nexus.decision_cache_stats().hits, after.hits + 1, "{name}");
        assert_eq!(nexus.guard_upcalls(), upcalls, "{name}");

        // The holder's next call is evaluated, and denied.
        assert!(
            !nexus.authorize(holder, "use", &object).unwrap(),
            "{name}: stale allow served after the removal returned"
        );
        assert_eq!(nexus.guard_upcalls(), upcalls + 1, "{name}");
        assert_eq!(nexus.decision_cache_stats().hits, after.hits + 1, "{name}");

        // Handed back, the label is honoured on the first call — and
        // that allow is cached again under the holder's new name.
        (door.hand_back)(&nexus, holder, moved, sink, speaker.clone(), ok.clone());
        assert!(nexus.authorize(holder, "use", &object).unwrap(), "{name}");
        let refilled = nexus.decision_cache_stats().hits;
        assert!(nexus.authorize(holder, "use", &object).unwrap(), "{name}");
        assert_eq!(nexus.decision_cache_stats().hits, refilled + 1, "{name}");
    }
}

#[test]
fn a_proof_update_after_a_removal_clears_the_entry_under_the_new_name() {
    // `sys_set_proof` / `sys_clear_proof` must invalidate the name the
    // subject probes under *now*, not the one it was spawned with.
    let nexus = Nexus::boot_default().unwrap();
    let object = ResourceId::new("test", "proof");
    let owner = nexus.spawn("owner", b"img");
    nexus.grant_ownership(owner, &object).unwrap();
    let goal = Formula::pred("ok", vec![]).says(Principal::name("Gate"));
    nexus
        .sys_setgoal(owner, object.clone(), "use", goal.clone())
        .unwrap();
    let subject = nexus.spawn("subject", b"img");
    let sink = nexus.spawn("sink", b"img");
    let spare = nexus
        .kernel_label(
            subject,
            Principal::name("Gate"),
            Formula::pred("spare", vec![]),
        )
        .unwrap();
    nexus
        .kernel_label(
            subject,
            Principal::name("Gate"),
            Formula::pred("ok", vec![]),
        )
        .unwrap();
    // Generation 1: an unrelated label leaves.
    nexus.transfer_label(subject, spare, sink).unwrap();
    assert!(nexus.authorize(subject, "use", &object).unwrap());
    let hits = nexus.decision_cache_stats().hits;
    assert!(nexus.authorize(subject, "use", &object).unwrap());
    assert_eq!(
        nexus.decision_cache_stats().hits,
        hits + 1,
        "cached at gen 1"
    );

    // A stored proof that does not prove the goal: the next call must
    // be evaluated against it, not served from the cache.
    let wrong =
        nexus_nal::Proof::assume(Formula::pred("other", vec![]).says(Principal::name("Gate")));
    let before = nexus.decision_cache_stats().invalidations;
    nexus.sys_set_proof(subject, "use", &object, wrong).unwrap();
    assert_eq!(nexus.decision_cache_stats().invalidations, before + 1);
    assert!(!nexus.authorize(subject, "use", &object).unwrap());
    nexus.sys_clear_proof(subject, "use", &object).unwrap();
    assert!(nexus.authorize(subject, "use", &object).unwrap());
}
