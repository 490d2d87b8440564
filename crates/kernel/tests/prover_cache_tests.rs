//! Regression tests for the batch prover's memo: the prover-cache
//! analog of PR 1's setgoal sabotage test. A subgoal derivation
//! memoized while a credential was held must never outlive the
//! movement of that credential — neither through the epoch flush
//! (`transfer_label` bumps the label-removal epoch) nor through the
//! fingerprint scoping that guards memo reuse in between.

use nexus_core::ResourceId;
use nexus_kernel::{BootImages, GuardPoolConfig, Nexus, NexusConfig};
use nexus_nal::{parse, Principal};
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

    // The credential moves away: the label-removal epoch bumps, and
    // the next auto-prove must flush the memo and fail afresh — a
    // reused derivation here would be the prover-cache version of the
    // setgoal lost-invalidation bug.
    nexus.transfer_label(holder, h, beneficiary).unwrap();
    assert!(
        !nexus.authorize(holder, "op", &object).unwrap(),
        "memoized proof leaked across a label movement"
    );
    assert!(
        nexus.guard_prover_stats().flushes >= 1,
        "epoch movement must flush the prover session: {:?}",
        nexus.guard_prover_stats()
    );
    // The label's new holder proves it instead.
    assert!(nexus.authorize(beneficiary, "op", &object).unwrap());
    // And the original holder stays denied on repeat (refutation memo,
    // same epoch — no further flushes required for correctness).
    assert!(!nexus.authorize(holder, "op", &object).unwrap());
}

#[test]
fn memoized_refutation_not_reused_after_label_addition() {
    // The dual direction: a refutation recorded while the credential
    // was absent must not outlive its *arrival*. Additions bump no
    // epoch — the memo is keyed by credential-set fingerprint, which
    // the new label changes.
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
