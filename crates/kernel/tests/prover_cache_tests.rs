//! Regression tests for the batch prover's memo: the prover-cache
//! analog of PR 1's setgoal sabotage test. A subgoal derivation
//! memoized while a credential was held must never answer for a
//! requester who no longer holds it — and nothing else about the memo
//! may change when a label moves: the session is told of no removal,
//! a derivation is guarded by the leaves it rests on and a refutation
//! by the fingerprint of the set it failed under, so the loser is
//! denied, everyone else is still served, and a label handed back is
//! honoured at once.

use nexus_core::{LabelHandle, ResourceId};
use nexus_kernel::{BootImages, GuardPoolConfig, Nexus, NexusConfig};
use nexus_nal::{parse, Formula, Principal};
use nexus_storage::RamDisk;
use nexus_tpm::Tpm;
use std::sync::Arc;

fn boot() -> Nexus {
    let nexus = Nexus::boot(
        Tpm::new_with_seed(0x9807),
        RamDisk::new(),
        &BootImages::standard(),
        NexusConfig::default(),
    )
    .expect("boot");
    // Deterministic prover traffic: every authorize reaches the guard
    // (no decision cache), and every proof is auto-constructed.
    nexus.set_config(NexusConfig {
        decision_cache: false,
        ..NexusConfig::default()
    });
    nexus
}

/// A world with one goal-guarded object whose ground goal
/// `Owner says g` requires a real derivation: a handoff label
/// (`Owner says (Gate speaksfor Owner)`) plus the payload
/// (`Gate says g`) — trivial credential matches never exercise the
/// memo, a delegation chain does.
fn setup(nexus: &Nexus) -> ResourceId {
    let object = ResourceId::new("test", "prover");
    let owner = nexus.spawn("owner", b"img");
    nexus.grant_ownership(owner, &object).unwrap();
    nexus
        .sys_setgoal(owner, object.clone(), "op", parse("Owner says g").unwrap())
        .unwrap();
    object
}

/// Deposit the handoff label that lets `Gate says g` discharge the
/// `Owner says g` goal.
fn grant_handoff(nexus: &Nexus, pid: u64) {
    nexus
        .kernel_label(
            pid,
            Principal::name("Owner"),
            parse("Gate speaksfor Owner").unwrap(),
        )
        .unwrap();
}

#[test]
fn memoized_subgoal_not_reused_after_label_movement() {
    let nexus = boot();
    let object = setup(&nexus);
    let holder = nexus.spawn("holder", b"img");
    let beneficiary = nexus.spawn("beneficiary", b"img");
    grant_handoff(&nexus, holder);
    grant_handoff(&nexus, beneficiary);
    let h = nexus
        .kernel_label(holder, Principal::name("Gate"), parse("g").unwrap())
        .unwrap();
    let base = nexus.guard_prover_stats();

    // Auto-proving succeeds and populates the prover memo.
    assert!(nexus.authorize(holder, "op", &object).unwrap());
    assert!(
        nexus.guard_prover_memo_len() > 0,
        "auto-prove must have memoized its derivation"
    );
    assert_eq!(nexus.guard_prover_stats().proved, base.proved + 1);

    // The credential moves away: the memoized derivation stays in the
    // table and the next auto-prove must fail its leaf test — a reused
    // derivation here would be the prover-cache version of the setgoal
    // lost-invalidation bug.
    nexus.transfer_label(holder, h, beneficiary).unwrap();
    assert!(
        !nexus.authorize(holder, "op", &object).unwrap(),
        "memoized proof leaked across a label movement"
    );
    // The label's new holder proves it instead.
    assert!(nexus.authorize(beneficiary, "op", &object).unwrap());
    // And the original holder stays denied on repeat (refutation memo,
    // under the fingerprint of what it holds now).
    assert!(!nexus.authorize(holder, "op", &object).unwrap());
}

/// How a test takes the holder's payload label away, and hands it back.
struct Door {
    name: &'static str,
    /// Whether the label lands in the sink's store (so the sink proves
    /// the goal while it holds it).
    moves: bool,
    remove: fn(&Nexus, holder: u64, LabelHandle, sink: u64) -> LabelHandle,
    hand_back: fn(&Nexus, holder: u64, LabelHandle, sink: u64, Principal, Formula),
}

const DOORS: [Door; 3] = [
    Door {
        name: "transfer_label",
        moves: true,
        remove: |nexus, holder, h, sink| nexus.transfer_label(holder, h, sink).unwrap(),
        hand_back: |nexus, holder, moved, sink, _, _| {
            nexus.transfer_label(sink, moved, holder).unwrap();
        },
    },
    Door {
        name: "revoke_credential",
        moves: false,
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
        moves: false,
        remove: |nexus, holder, h, _| {
            nexus.apply_remote_revoke(holder, h).unwrap();
            h
        },
        hand_back: |nexus, holder, _, _, speaker, statement| {
            nexus.apply_remote_mint(holder, speaker, statement).unwrap();
        },
    },
];

/// The grain of a removal, as the prover sees it, through every door:
/// the process that lost the label is denied, and that is all that
/// happens. `ask` is the way in under test (`authorize`, or a ticket).
fn a_removal_costs_the_prover_memo_nothing(
    nexus: &Nexus,
    ask: fn(&Nexus, u64, &ResourceId) -> bool,
) {
    let object = setup(nexus);
    let (gate, g) = (Principal::name("Gate"), parse("g").unwrap());
    let sink = nexus.spawn("sink", b"img");
    grant_handoff(nexus, sink);
    let bystander = nexus.spawn("bystander", b"img");
    grant_handoff(nexus, bystander);
    nexus
        .kernel_label(bystander, gate.clone(), g.clone())
        .unwrap();
    assert!(ask(nexus, bystander, &object));

    for door in &DOORS {
        let name = door.name;
        let holder = nexus.spawn(name, b"img");
        grant_handoff(nexus, holder);
        let h = nexus.kernel_label(holder, gate.clone(), g.clone()).unwrap();
        assert!(ask(nexus, holder, &object), "{name}");
        let memoized = nexus.guard_prover_memo_len();
        assert!(memoized > 0, "{name}: the derivation is memoized");

        let moved = (door.remove)(nexus, holder, h, sink);
        assert!(
            !ask(nexus, holder, &object),
            "{name}: memoized proof served after its leaf left"
        );

        // The bystander rests on its own copy of the label: its next
        // proof is the memoized witness, found by its leaves — nothing
        // is searched, nothing was dropped.
        let before = nexus.guard_prover_stats();
        assert!(ask(nexus, bystander, &object), "{name}");
        let after = nexus.guard_prover_stats();
        assert_eq!(
            (after.memo_hits, after.memo_misses),
            (before.memo_hits + 1, before.memo_misses),
            "{name}: a bystander's proof after a removal is served, not searched"
        );
        assert!(nexus.guard_prover_memo_len() >= memoized, "{name}");
        assert_eq!(ask(nexus, sink, &object), door.moves, "{name}");

        // Handed back, the holder's credential set — and so its
        // fingerprint — is what it was: the witness passes its leaf
        // test on the first call, and the refutations recorded under
        // the in-between fingerprint do not answer.
        (door.hand_back)(nexus, holder, moved, sink, gate.clone(), g.clone());
        let before = nexus.guard_prover_stats();
        assert!(
            ask(nexus, holder, &object),
            "{name}: a stale refutation answered"
        );
        let after = nexus.guard_prover_stats();
        assert_eq!(
            (after.memo_hits, after.memo_misses),
            (before.memo_hits + 1, before.memo_misses),
            "{name}"
        );
        assert!(!ask(nexus, sink, &object), "{name}");
    }
    assert_eq!(
        nexus.guard_prover_stats().restarts,
        0,
        "the cap is a backstop, not traffic"
    );
}

#[test]
fn a_removal_through_any_door_denies_the_loser_and_leaves_the_memo_alone() {
    a_removal_costs_the_prover_memo_nothing(&boot(), |nexus, pid, object| {
        nexus.authorize(pid, "op", object).unwrap()
    });
}

#[test]
fn a_removal_through_any_door_leaves_the_memo_alone_under_the_pipeline() {
    let nexus = Arc::new(boot());
    nexus.start_authz_pipeline(GuardPoolConfig::default());
    a_removal_costs_the_prover_memo_nothing(&nexus, |nexus, pid, object| {
        let ticket = nexus.authorize_async(pid, "op", object).unwrap();
        ticket.wait().is_allow()
    });
    nexus.stop_authz_pipeline();
}

#[test]
fn memoized_refutation_not_reused_after_label_addition() {
    // The dual direction: a refutation recorded while the credential
    // was absent must not outlive its *arrival* — it is keyed by
    // credential-set fingerprint, which the new label changes.
    let nexus = boot();
    let object = setup(&nexus);
    let latecomer = nexus.spawn("latecomer", b"img");
    grant_handoff(&nexus, latecomer);
    assert!(!nexus.authorize(latecomer, "op", &object).unwrap());
    nexus
        .kernel_label(latecomer, Principal::name("Gate"), parse("g").unwrap())
        .unwrap();
    assert!(
        nexus.authorize(latecomer, "op", &object).unwrap(),
        "stale refutation served after the credential arrived"
    );
}

#[test]
fn pipeline_batches_share_one_proof_search() {
    // Through the async pipeline: same goal, same label shape — the
    // coalesced batches ride one prover session, so all but the first
    // auto-prove are memo hits.
    let nexus = Arc::new(boot());
    let object = setup(&nexus);
    let pids: Vec<u64> = (0..8)
        .map(|i| {
            let pid = nexus.spawn(&format!("p{i}"), b"img");
            grant_handoff(&nexus, pid);
            nexus
                .kernel_label(pid, Principal::name("Gate"), parse("g").unwrap())
                .unwrap();
            pid
        })
        .collect();
    nexus.start_authz_pipeline(GuardPoolConfig {
        workers: 1,
        ..Default::default()
    });
    let tickets: Vec<_> = (0..32)
        .map(|i| {
            nexus
                .authorize_async(pids[i % pids.len()], "op", &object)
                .unwrap()
        })
        .collect();
    for t in tickets {
        assert!(t.wait().is_allow());
    }
    let prover = nexus.guard_prover_stats();
    assert!(
        prover.memo_hits > 0,
        "32 identical auto-proved requests must share derivations: {prover:?}"
    );
    assert!(prover.batch_groups >= 1);
    nexus.stop_authz_pipeline();
}

#[test]
fn pipeline_respects_label_movement_mid_stream() {
    // End-to-end sabotage through the pipeline: authorize, move the
    // label, authorize again — the second verdict must flip even
    // though the first derivation was memoized by the pool's executor.
    let nexus = Arc::new(boot());
    let object = setup(&nexus);
    let holder = nexus.spawn("holder", b"img");
    let sink = nexus.spawn("sink", b"img");
    grant_handoff(&nexus, holder);
    let h = nexus
        .kernel_label(holder, Principal::name("Gate"), parse("g").unwrap())
        .unwrap();
    nexus.start_authz_pipeline(GuardPoolConfig::default());
    assert!(nexus.authorize(holder, "op", &object).unwrap());
    // transfer_label fences in-flight batches before returning.
    nexus.transfer_label(holder, h, sink).unwrap();
    let t = nexus.authorize_async(holder, "op", &object).unwrap();
    assert!(
        !t.wait().is_allow(),
        "pipeline served a memoized proof across a label movement"
    );
    nexus.stop_authz_pipeline();
}
