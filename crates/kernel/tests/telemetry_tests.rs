//! Integration tests for the telemetry layer (ISSUE 7): the unified
//! metrics snapshot, the per-stage latency histograms, and the
//! decision audit journal — in particular that a denied request's
//! journal entry carries the subgoal the prover refuted, on both the
//! inline and the pipelined path, which are two callers of one
//! evaluator.

use nexus_core::ResourceId;
use nexus_kernel::{
    AuditPath, AuditVerdict, BootImages, GuardPoolConfig, Nexus, NexusConfig, ObsConfig,
};
use nexus_nal::{normalize, parse, Principal};
use nexus_storage::RamDisk;
use nexus_tpm::Tpm;
use std::sync::Arc;

fn boot_with(cfg: NexusConfig) -> Arc<Nexus> {
    Arc::new(
        Nexus::boot(
            Tpm::new_with_seed(0x7e1e),
            RamDisk::new(),
            &BootImages::standard(),
            cfg,
        )
        .expect("boot"),
    )
}

/// A world whose conjunctive goal `Owner says g and Owner says h`
/// splits cleanly: `g` is derivable through a Gate delegation, `h`
/// never is — so every deny has a specific refuted subgoal
/// (`Owner says h`) for the journal to carry.
fn conjunctive_world(nexus: &Nexus) -> ResourceId {
    let object = ResourceId::new("test", "telemetry");
    let owner = nexus.spawn("owner", b"img");
    nexus.grant_ownership(owner, &object).unwrap();
    nexus
        .sys_setgoal(
            owner,
            object.clone(),
            "op",
            parse("Owner says g and Owner says h").unwrap(),
        )
        .unwrap();
    object
}

/// Credentials that discharge the `g` half only.
fn grant_g_only(nexus: &Nexus, pid: u64) {
    nexus
        .kernel_label(
            pid,
            Principal::name("Owner"),
            parse("Gate speaksfor Owner").unwrap(),
        )
        .unwrap();
    nexus
        .kernel_label(pid, Principal::name("Gate"), parse("g").unwrap())
        .unwrap();
}

/// Credentials that discharge the whole conjunction.
fn grant_g_and_h(nexus: &Nexus, pid: u64) {
    grant_g_only(nexus, pid);
    nexus
        .kernel_label(pid, Principal::name("Gate"), parse("h").unwrap())
        .unwrap();
    nexus
        .kernel_label(pid, Principal::name("Owner"), parse("Gate says h").unwrap())
        .unwrap();
}

fn assert_refuted_is_owner_says_h(refuted: Option<&str>) {
    let text = refuted.expect("denial must carry its refuted subgoal");
    let got = normalize(&parse(text).expect("refuted subgoal must re-parse"));
    assert_eq!(
        got,
        normalize(&parse("Owner says h").unwrap()),
        "refuted subgoal must be the underivable conjunct, got {text:?}"
    );
}

#[test]
fn inline_denial_journals_the_refuted_subgoal() {
    let nexus = boot_with(NexusConfig::default());
    let object = conjunctive_world(&nexus);
    let pid = nexus.spawn("halfway", b"img");
    grant_g_only(&nexus, pid);
    assert!(!nexus.authorize(pid, "op", &object).unwrap());
    let ev = nexus
        .audit_recent(16)
        .into_iter()
        .find(|e| e.pid == pid && e.verdict == AuditVerdict::Deny)
        .expect("denial must be journaled");
    assert_eq!(ev.path, AuditPath::Inline);
    assert!(!ev.cache_hit);
    assert_eq!(ev.op, "op");
    assert!(ev.stages.prove_ns.is_some());
    assert!(ev.stages.verify_ns.is_some());
    assert!(ev.stages.complete_ns.is_some());
    assert_refuted_is_owner_says_h(ev.refuted.as_deref());
}

#[test]
fn pipelined_denial_journals_the_refuted_subgoal() {
    let nexus = boot_with(NexusConfig::default());
    let object = conjunctive_world(&nexus);
    nexus.start_authz_pipeline(GuardPoolConfig::default());
    let pid = nexus.spawn("halfway", b"img");
    grant_g_only(&nexus, pid);
    assert!(!nexus.authorize(pid, "op", &object).unwrap());
    let ev = nexus
        .audit_recent(64)
        .into_iter()
        .find(|e| e.pid == pid && e.verdict == AuditVerdict::Deny)
        .expect("denial must be journaled");
    assert_eq!(ev.path, AuditPath::Pipeline);
    assert!(ev.stages.queue_wait_ns.is_some());
    assert_refuted_is_owner_says_h(ev.refuted.as_deref());
    // The pool side recorded its spans into the shared histograms.
    let snap = nexus.telemetry_snapshot();
    for stage in ["submit", "queue_wait", "batch_assembly", "complete"] {
        let name = format!("nexus_authz_stage_{stage}_ns");
        let m = snap.get(&name).expect("stage histogram registered");
        match &m.value {
            nexus_obs::SampleValue::Histogram(h) => {
                assert!(h.count > 0, "{name} must have samples");
            }
            other => panic!("{name} must be a histogram, got {other:?}"),
        }
    }
}

#[test]
fn one_evaluator_serves_the_caller_thread_and_the_pipeline_alike() {
    // The same world through both callers of the one evaluator: same
    // verdicts, same refuted subgoal, and journal entries that differ
    // only in the path tag and the one span each path owns.
    let nexus = boot_with(NexusConfig::default());
    let object = conjunctive_world(&nexus);
    let evaluate = |tag: &str| {
        // Fresh subjects per path, so the decision cache cannot answer.
        let half = nexus.spawn(&format!("half-{tag}"), b"img");
        grant_g_only(&nexus, half);
        let full = nexus.spawn(&format!("full-{tag}"), b"img");
        grant_g_and_h(&nexus, full);
        let verdicts = [half, full].map(|pid| nexus.authorize(pid, "op", &object).unwrap());
        let journal = nexus.audit_recent(64);
        let event = |pid: u64| {
            journal
                .iter()
                .find(|e| e.pid == pid && !e.cache_hit)
                .expect("every evaluation is journaled")
                .clone()
        };
        (verdicts, event(half), event(full))
    };
    let (inline_verdicts, inline_deny, inline_allow) = evaluate("inline");
    let pool = nexus.start_authz_pipeline(GuardPoolConfig::default());
    let (piped_verdicts, piped_deny, piped_allow) = evaluate("piped");
    pool.quiesce();

    assert_eq!(inline_verdicts, [false, true]);
    assert_eq!(piped_verdicts, inline_verdicts);
    assert_refuted_is_owner_says_h(inline_deny.refuted.as_deref());
    assert_eq!(piped_deny.refuted, inline_deny.refuted);
    assert!(inline_allow.refuted.is_none() && piped_allow.refuted.is_none());
    for (inline, piped) in [(&inline_deny, &piped_deny), (&inline_allow, &piped_allow)] {
        assert_eq!(inline.verdict, piped.verdict);
        assert_eq!(inline.path, AuditPath::Inline);
        assert_eq!(piped.path, AuditPath::Pipeline);
        for ev in [inline, piped] {
            assert!(ev.stages.prove_ns.is_some() && ev.stages.verify_ns.is_some());
        }
        assert!(inline.stages.complete_ns.is_some() && inline.stages.queue_wait_ns.is_none());
        assert!(piped.stages.queue_wait_ns.is_some() && piped.stages.complete_ns.is_none());
    }
    // Every guard check, on either path, went through the one upcall site.
    assert_eq!(nexus.guard_stats().checks, nexus.guard_upcalls());
}

#[test]
fn sampled_cache_hits_are_journaled_with_their_span() {
    // shift 0 ⇒ every hit sampled.
    let nexus = boot_with(NexusConfig {
        obs: ObsConfig {
            hit_sample_shift: 0,
            ..ObsConfig::default()
        },
        ..NexusConfig::default()
    });
    let object = conjunctive_world(&nexus);
    let owner_like = nexus.spawn("lucky", b"img");
    grant_g_and_h(&nexus, owner_like);
    // First authorize misses and (if allowed) caches; second hits.
    let first = nexus.authorize(owner_like, "op", &object).unwrap();
    assert!(first, "world must make the full conjunction derivable");
    assert!(nexus.authorize(owner_like, "op", &object).unwrap());
    let hit = nexus
        .audit_recent(16)
        .into_iter()
        .find(|e| e.pid == owner_like && e.path == AuditPath::CacheHit)
        .expect("sampled hit must be journaled");
    assert!(hit.cache_hit);
    assert_eq!(hit.verdict, AuditVerdict::Allow);
    assert!(hit.stages.complete_ns.is_some());
    assert!(hit.refuted.is_none());
}

#[test]
fn disabled_telemetry_records_nothing() {
    let nexus = boot_with(NexusConfig {
        obs: ObsConfig::disabled(),
        ..NexusConfig::default()
    });
    let object = conjunctive_world(&nexus);
    let pid = nexus.spawn("halfway", b"img");
    grant_g_only(&nexus, pid);
    assert!(!nexus.authorize(pid, "op", &object).unwrap());
    assert!(nexus.audit_recent(16).is_empty());
    let snap = nexus.telemetry_snapshot();
    match &snap.get("nexus_telemetry_enabled").unwrap().value {
        nexus_obs::SampleValue::Gauge(v) => assert_eq!(*v, 0),
        other => panic!("enabled flag must be a gauge, got {other:?}"),
    }
    match &snap.get("nexus_authz_stage_complete_ns").unwrap().value {
        nexus_obs::SampleValue::Histogram(h) => assert_eq!(h.count, 0),
        other => panic!("stage metric must be a histogram, got {other:?}"),
    }
    // Counters still collect (they are the stores' own live atomics).
    assert!(snap.get("nexus_dcache_misses_total").is_some());
}

/// The complete exposition of a kernel with the pipeline running, in
/// registration order, one `name kind help` per line. Captured from
/// the hand-written `telemetry_snapshot` the `Collect` walk replaced,
/// so the walk is held to byte-identical text and JSON (values aside).
const SNAPSHOT_SHAPE: &str = "\
nexus_telemetry_enabled gauge 1 when stage timers and the audit journal are recording
nexus_dcache_hits_total counter decision-cache hits
nexus_dcache_misses_total counter decision-cache misses
nexus_dcache_invalidations_total counter decision-cache entries cleared by an invalidation
nexus_dcache_renames_total counter subjects renamed by a label removal
nexus_dcache_collisions_total counter decision-cache set-conflict evictions
nexus_dcache_read_retries_total counter seqlock read retries (torn reads)
nexus_dcache_read_fallbacks_total counter seqlock reads that fell back to the table lock
nexus_guard_checks_total counter guard proof checks
nexus_guard_cache_hits_total counter guard proof-cache hits
nexus_guard_cache_misses_total counter guard proof-cache misses
nexus_guard_authority_queries_total counter authority predicate queries
nexus_guard_evictions_total counter guard proof-cache evictions
nexus_guard_batched_total counter requests checked through check_batch
nexus_guard_upcalls_total counter decision-cache misses that reached the guard
nexus_prover_memo_hits_total counter prover memo hits
nexus_prover_memo_misses_total counter prover memo misses
nexus_prover_batch_groups_total counter distinct frontier groups across batches
nexus_prover_batch_shared_total counter goals that shared an earlier goal's frontier
nexus_prover_memo_restarts_total counter prover memo start-overs at its cap
nexus_prover_proved_total counter auto-prove successes
nexus_prover_failed_total counter auto-prove failures
nexus_interpose_invocations_total counter redirector monitor invocations
nexus_interpose_hits_total counter redirector verdict-cache hits
nexus_authz_submitted_total counter pipeline submissions
nexus_authz_completed_total counter pipeline completions
nexus_authz_batches_total counter pipeline batches
nexus_authz_coalesced_total counter requests coalesced into an existing batch
nexus_authz_rejected_total counter submissions shed at the high-water mark
nexus_authz_external_batches_total counter batches run on the external lane
nexus_authz_callback_panics_total counter ticket callbacks that panicked
nexus_authz_executor_panics_total counter batches whose executor panicked
nexus_authz_max_batch_seen gauge largest batch observed
nexus_authz_embedded_depth gauge embedded-lane backlog (queued requests)
nexus_authz_external_depth gauge external-lane backlog (queued requests)
nexus_audit_recorded_total counter audit events recorded (slot claims)
nexus_audit_dropped_total counter audit events dropped in slot races
nexus_attest_analyses_total counter analyzer runs (analysis-cache misses)
nexus_attest_analysis_cache_hits_total counter attestation requests served from cached analysis results
nexus_attest_minted_total counter analyzer credentials minted
nexus_attest_refused_total counter analyzer credentials refused
nexus_attest_revoked_total counter analyzer credentials revoked (binary changed)
nexus_dist_remote_mints_total counter labels minted from delivered broadcast ops
nexus_dist_remote_revocations_total counter labels revoked (and fenced) from delivered broadcast ops
nexus_authz_stage_submit_ns histogram authorize-path submit stage latency (ns)
nexus_authz_stage_queue_wait_ns histogram authorize-path queue_wait stage latency (ns)
nexus_authz_stage_batch_assembly_ns histogram authorize-path batch_assembly stage latency (ns)
nexus_authz_stage_prove_ns histogram authorize-path prove stage latency (ns)
nexus_authz_stage_verify_ns histogram authorize-path verify stage latency (ns)
nexus_authz_stage_complete_ns histogram authorize-path complete stage latency (ns)
";

#[test]
fn snapshot_unifies_every_stats_surface_and_renders() {
    let nexus = boot_with(NexusConfig::default());
    let object = conjunctive_world(&nexus);
    nexus.start_authz_pipeline(GuardPoolConfig::default());
    let pid = nexus.spawn("halfway", b"img");
    grant_g_only(&nexus, pid);
    let _ = nexus.authorize(pid, "op", &object).unwrap();
    let snap = nexus.telemetry_snapshot();
    for name in [
        "nexus_telemetry_enabled",
        "nexus_dcache_hits_total",
        "nexus_guard_checks_total",
        "nexus_prover_memo_hits_total",
        "nexus_interpose_invocations_total",
        "nexus_authz_submitted_total",
        "nexus_authz_embedded_depth",
        "nexus_audit_recorded_total",
        "nexus_authz_stage_prove_ns",
    ] {
        assert!(snap.get(name).is_some(), "missing metric {name}");
    }
    let text = snap.render_text();
    assert!(text.contains("# TYPE nexus_dcache_hits_total counter"));
    assert!(text.contains("nexus_authz_stage_prove_ns{quantile=\"0.99\"}"));
    let json = snap.render_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"nexus_guard_checks_total\""));
    let shape: String = snap
        .metrics
        .iter()
        .map(|m| {
            let kind = match &m.value {
                nexus_obs::SampleValue::Counter(_) => "counter",
                nexus_obs::SampleValue::Gauge(_) => "gauge",
                nexus_obs::SampleValue::Histogram(_) => "histogram",
            };
            format!("{} {kind} {}\n", m.name, m.help)
        })
        .collect();
    assert_eq!(shape, SNAPSHOT_SHAPE);
}

#[test]
fn credential_lifecycle_counts_and_journals() {
    let nexus = boot_with(NexusConfig::default());
    let analyzer = nexus.spawn("analyzer", b"analyzer-img");
    let subject = nexus.spawn("subject", b"subject-img");
    let subject_prin = nexus.principal(subject).unwrap();

    // Mint, refuse, revoke — through the kernel surface the attest
    // analyzer uses.
    let stmt = nexus_nal::Formula::pred("panic_free", vec![nexus_nal::Term::Prin(subject_prin)]);
    let h = nexus.mint_credential(analyzer, subject, stmt).unwrap();
    nexus
        .refuse_credential(analyzer, subject, "no_unsafe", "unguarded deref of v3")
        .unwrap();
    nexus.revoke_credential(subject, h).unwrap();

    let stats = nexus.attest_stats();
    assert_eq!(stats.credentials_minted, 1);
    assert_eq!(stats.credentials_refused, 1);
    assert_eq!(stats.credentials_revoked, 1);

    // The same counts surface in the unified snapshot.
    let snap = nexus.telemetry_snapshot();
    for (name, want) in [
        ("nexus_attest_minted_total", 1),
        ("nexus_attest_refused_total", 1),
        ("nexus_attest_revoked_total", 1),
    ] {
        match &snap.get(name).expect("attest counter registered").value {
            nexus_obs::SampleValue::Counter(v) => assert_eq!(*v, want, "{name}"),
            other => panic!("{name} must be a counter, got {other:?}"),
        }
    }

    // All three journal as Analyzer-path events on the subject; the
    // refusal carries its witness.
    let events = nexus.audit_recent(16);
    let mine: Vec<_> = events
        .iter()
        .filter(|e| e.path == AuditPath::Analyzer && e.pid == subject)
        .collect();
    assert!(mine
        .iter()
        .any(|e| e.verdict == AuditVerdict::Mint && e.op == "panic_free"));
    assert!(mine.iter().any(|e| e.verdict == AuditVerdict::Refuse
        && e.op == "no_unsafe"
        && e.refuted.as_deref() == Some("unguarded deref of v3")));
    assert!(mine
        .iter()
        .any(|e| e.verdict == AuditVerdict::Revoke && e.op == "panic_free"));

    // Revoking an already-deleted handle is an error, not a double
    // count.
    assert!(nexus.revoke_credential(subject, h).is_err());
    assert_eq!(nexus.attest_stats().credentials_revoked, 1);

    // Every way a label can leave a store goes through the one fenced
    // door: a cached allow it backed is gone by the time the removal
    // returns, whichever entry point took it.
    let object = ResourceId::new("test", "lifecycle");
    let owner = nexus.spawn("owner", b"img");
    nexus.grant_ownership(owner, &object).unwrap();
    let ok = nexus_nal::Formula::pred("ok", vec![]);
    let goal = ok.clone().says(nexus.principal(analyzer).unwrap());
    nexus
        .sys_setgoal(owner, object.clone(), "use", goal)
        .unwrap();
    let sink = nexus.spawn("sink", b"img");
    for (name, journal_path) in [
        ("transfer_label", None),
        ("revoke_credential", Some(AuditPath::Analyzer)),
        ("apply_remote_revoke", Some(AuditPath::Replication)),
    ] {
        let holder = nexus.spawn(name, b"img");
        let h = nexus.mint_credential(analyzer, holder, ok.clone()).unwrap();
        assert!(nexus.authorize(holder, "use", &object).unwrap(), "{name}");
        let hits = nexus.decision_cache_stats().hits;
        assert!(nexus.authorize(holder, "use", &object).unwrap(), "{name}");
        assert_eq!(
            nexus.decision_cache_stats().hits,
            hits + 1,
            "{name}: the allow must be cached before the removal"
        );
        // A transfer to a process that does not exist fails before
        // anything is removed.
        assert!(nexus.transfer_label(holder, h, u64::MAX).is_err());
        assert_eq!(nexus.labels_of(holder).unwrap().len(), 1, "{name}");

        let removal_epoch_of = |verdict: AuditVerdict| {
            nexus
                .audit_recent(usize::MAX)
                .into_iter()
                .find(|e| e.pid == holder && e.path == AuditPath::Inline && e.verdict == verdict)
                .unwrap_or_else(|| panic!("{name}: no inline {verdict:?} event"))
                .epochs[2]
        };
        let before = removal_epoch_of(AuditVerdict::Allow);
        let renames = nexus.decision_cache_stats().renames;
        match name {
            "transfer_label" => drop(nexus.transfer_label(holder, h, sink).unwrap()),
            "revoke_credential" => nexus.revoke_credential(holder, h).unwrap(),
            _ => drop(nexus.apply_remote_revoke(holder, h).unwrap()),
        }
        assert!(
            !nexus.authorize(holder, "use", &object).unwrap(),
            "{name}: stale allow served after the removal returned"
        );
        assert_eq!(
            removal_epoch_of(AuditVerdict::Deny),
            before + 1,
            "{name}: exactly one fence per removal"
        );
        assert!(
            nexus.decision_cache_stats().renames > renames,
            "{name}: the cached allow must have been invalidated"
        );
        let revokes: Vec<AuditPath> = nexus
            .audit_recent(usize::MAX)
            .into_iter()
            .filter(|e| e.pid == holder && e.verdict == AuditVerdict::Revoke)
            .map(|e| e.path)
            .collect();
        assert_eq!(revokes, Vec::from_iter(journal_path), "{name}");
    }
}

#[test]
fn set_config_toggles_telemetry_at_runtime() {
    let nexus = boot_with(NexusConfig::default());
    let object = conjunctive_world(&nexus);
    let pid = nexus.spawn("halfway", b"img");
    grant_g_only(&nexus, pid);
    nexus.set_config(NexusConfig {
        obs: ObsConfig::disabled(),
        ..NexusConfig::default()
    });
    assert!(!nexus.authorize(pid, "op", &object).unwrap());
    // World setup (setgoal etc.) may have journaled while telemetry
    // was still on; what matters is that *this* denial did not.
    assert!(
        !nexus.audit_recent(64).iter().any(|e| e.pid == pid),
        "no event may be journaled while telemetry is off"
    );
    nexus.set_config(NexusConfig::default());
    let fresh = nexus.spawn("fresh", b"img");
    grant_g_only(&nexus, fresh);
    assert!(!nexus.authorize(fresh, "op", &object).unwrap());
    assert!(
        nexus
            .audit_recent(64)
            .iter()
            .any(|e| e.pid == fresh && e.verdict == AuditVerdict::Deny),
        "re-enabled telemetry must journal again"
    );
}
