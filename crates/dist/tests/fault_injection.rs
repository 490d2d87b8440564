//! Fault-injection tests: Byzantine members (equivocation, forgery,
//! replay storms), lossy networks, and partitions. The invariants: a
//! Byzantine peer never corrupts an honest node's label state or
//! mints a credential on it; honest replicas converge once the
//! network lets a quorum through. All schedules are seeded — every
//! assertion message prints the seed that replays it.

use nexus_core::ResourceId;
use nexus_dist::{
    Cluster, Dot, LabelOp, LabelRecord, Message, OpEnvelope, Partition, Payload, SimConfig,
    SimEd25519,
};
use nexus_nal::{parse, Principal};

/// Clusters that must tolerate one Byzantine member need n >= 4
/// (f = (n-1)/3 >= 1); we use 5 to keep quorums honest-majority even
/// with one compromised key.
const BYZ_N: usize = 5;

#[test]
fn happy_path_replicates_across_cluster_sizes() {
    for n in [3usize, 5, 7] {
        let seed = 0xabc0 + n as u64;
        let mut cluster = Cluster::new(n, seed);
        let rec = cluster.mint(0, "alice", "CA", "ok");
        assert!(
            cluster.run_until_converged(4),
            "no convergence: n={n} seed={seed}"
        );
        for i in 0..n as u32 {
            assert!(
                cluster.has_label(i, &rec),
                "label missing at node {i}: n={n} seed={seed}"
            );
            let stats = cluster.node(i).stats();
            assert_eq!(stats.applied_mints, 1, "node {i}: n={n} seed={seed}");
            assert_eq!(stats.apply_errors, 0, "node {i}: n={n} seed={seed}");
            assert_eq!(
                cluster.nexus(i).dist_stats().remote_mints,
                1,
                "kernel counter desync at node {i}: n={n} seed={seed}"
            );
        }
    }
}

#[test]
fn forged_ops_never_mint_anywhere() {
    for seed in [1u64, 7, 42] {
        let mut cluster = Cluster::new(BYZ_N, seed);
        // Node 4 forges an op in node 1's name (it lacks node 1's key).
        let forged = cluster.inject_forged(4, 1, "mallory");
        cluster.run_to_quiescence(usize::MAX);
        for i in 0..BYZ_N as u32 {
            assert!(
                !cluster.has_label(i, &forged),
                "forged label visible at node {i}: seed={seed}"
            );
            assert_eq!(
                cluster.nexus(i).dist_stats().remote_mints,
                0,
                "forged op reached a kernel at node {i}: seed={seed}"
            );
            assert!(
                cluster.node(i).stats().brb.rejected_sigs > 0,
                "node {i} never saw (and rejected) the forgery: seed={seed}"
            );
        }
    }
}

#[test]
fn equivocation_never_splits_honest_state() {
    for seed in [3u64, 11, 99] {
        let mut cluster = Cluster::new(BYZ_N, seed);
        let (rec_a, rec_b) = cluster.inject_equivocation(4, 0, "alice", "bob");
        cluster.run_to_quiescence(usize::MAX);
        // Agreement: at most one of the conflicting ops may be
        // delivered, and whichever it is, every honest node agrees.
        for rec in [&rec_a, &rec_b] {
            let views: Vec<bool> = (0..BYZ_N as u32)
                .map(|i| cluster.has_label(i, rec))
                .collect();
            assert!(
                views.iter().all(|&v| v == views[0]),
                "honest nodes split on {rec:?}: views={views:?} seed={seed}"
            );
        }
        assert!(
            !((0..BYZ_N as u32).all(|i| cluster.has_label(i, &rec_a))
                && (0..BYZ_N as u32).all(|i| cluster.has_label(i, &rec_b))),
            "both equivocating ops delivered for one slot: seed={seed}"
        );
        let observed: u64 = (0..BYZ_N as u32)
            .map(|i| cluster.node(i).stats().brb.equivocations)
            .sum();
        assert!(observed > 0, "equivocation went unobserved: seed={seed}");
    }
}

#[test]
fn shared_dot_attack_converges_and_never_splits_authorization() {
    // REVIEW finding 1: a Byzantine member signs two mints of
    // different labels sharing one dot, plus a revoke of one of them,
    // all racing through the network. Replicas apply the three ops in
    // schedule-dependent orders; keyed tombstones must make every
    // order converge — the revoked label dead everywhere, the
    // dot-sharing label alive (and authorizing) everywhere.
    for seed in [9u64, 41, 137, 2718] {
        let mut cluster = Cluster::with_config(BYZ_N, SimConfig::lossy(seed, 0, 10, 6));
        let object = ResourceId::new("bench", "shared-dot");
        cluster.install_goal(&object, "op", "CA says ok");
        let (revoked, survivor) = cluster.inject_shared_dot_attack(4, "alice", "bob");
        assert!(
            cluster.run_until_converged(16),
            "shared-dot schedule diverged: seed={seed}"
        );
        for i in 0..BYZ_N as u32 {
            assert!(
                !cluster.has_label(i, &revoked),
                "revoked label alive at node {i}: seed={seed}"
            );
            assert!(
                cluster.has_label(i, &survivor),
                "dot-sharing label suppressed at node {i}: seed={seed}"
            );
            assert!(
                !cluster.authorize(i, "alice", "op", &object),
                "revoked credential authorized at node {i}: seed={seed}"
            );
            assert!(
                cluster.authorize(i, "bob", "op", &object),
                "surviving credential denied at node {i}: seed={seed}"
            );
        }
    }
}

#[test]
fn foreign_dot_mint_is_rejected_on_every_honest_node() {
    // A Byzantine member mints with a dot in a victim's actor
    // namespace. The broadcast layer delivers it (the envelope is
    // genuinely signed by the attacker), but the application layer
    // rejects the origin-unbound dot everywhere — and the victim's
    // own future mint with that same counter is unaffected.
    for seed in [12u64, 55] {
        let mut cluster = Cluster::new(BYZ_N, seed);
        // Node 4 pre-collides with victim node 1's first dot (1, 1).
        let foreign = cluster.inject_foreign_dot_mint(4, 1, 1, "mallory");
        cluster.run_to_quiescence(usize::MAX);
        for i in 0..BYZ_N as u32 {
            let stats = cluster.node(i).stats();
            assert!(
                !cluster.has_label(i, &foreign),
                "foreign-dot label visible at node {i}: seed={seed}"
            );
            assert_eq!(
                stats.rejected_ops, 1,
                "origin-unbound mint not rejected at node {i}: seed={seed}"
            );
            assert_eq!(
                cluster.nexus(i).dist_stats().remote_mints,
                0,
                "foreign-dot op reached a kernel at node {i}: seed={seed}"
            );
        }
        // The victim's honest mint under its own (1, 1) dot works and
        // a revoke of it cannot be confused with the rejected op.
        let honest = cluster.mint(1, "alice", "CA", "ok");
        assert!(cluster.run_until_converged(4), "honest mint: seed={seed}");
        for i in 0..BYZ_N as u32 {
            assert!(
                cluster.has_label(i, &honest),
                "victim's honest mint missing at node {i}: seed={seed}"
            );
        }
    }
}

#[test]
fn crashed_origin_cannot_block_totality_after_partition_heals() {
    // REVIEW finding 2: the origin broadcasts while node 4 is
    // partitioned, every other node delivers, then the origin
    // crashes. The healed node must still deliver — survivors'
    // anti-entropy re-announces their own Echo/Ready votes, so
    // totality does not depend on the origin retransmitting.
    for seed in [8u64, 21] {
        let mut cfg = SimConfig::perfect(seed);
        // Node 4 is cut off until tick 300; from tick 300 the origin
        // (node 0) is cut off forever — a network-level crash, so its
        // re-announcements can never reach the healed node.
        cfg.partitions = vec![
            Partition::new(&[4], 0, 300),
            Partition::new(&[0], 300, u64::MAX),
        ];
        let mut cluster = Cluster::with_config(BYZ_N, cfg);
        let rec = cluster.mint(0, "alice", "CA", "ok");
        cluster.run_to_quiescence(usize::MAX);
        for i in 0..4u32 {
            assert!(
                cluster.has_label(i, &rec),
                "majority node {i} must deliver: seed={seed}"
            );
        }
        assert!(
            !cluster.has_label(4, &rec),
            "partitioned node delivered without quorum: seed={seed}"
        );
        // Origin 0 crashes for good; only the survivors retransmit.
        let mut rounds = 0;
        while !cluster.has_label(4, &rec) {
            assert!(
                rounds < 64,
                "healed node never delivered without the origin: seed={seed}"
            );
            cluster.anti_entropy_without(0);
            cluster.run_to_quiescence(usize::MAX);
            rounds += 1;
        }
        assert_eq!(
            cluster.node(4).stats().applied_mints,
            1,
            "healed node's kernel must see the mint: seed={seed}"
        );
    }
}

#[test]
fn remote_revocation_deletes_the_replicated_handle_not_a_local_twin() {
    // REVIEW finding 4: a subject holds a locally-granted label and
    // an identically-worded replicated one. The replicated layer
    // tracks the handle it minted, so a delivered revocation removes
    // exactly that handle — the node-local credential survives and
    // keeps authorizing on that node only.
    let seed = 77u64;
    let mut cluster = Cluster::new(3, seed);
    let object = ResourceId::new("bench", "local-twin");
    cluster.install_goal(&object, "op", "CA says ok");
    // Node 1 grants alice the label locally FIRST, so the local twin
    // gets the lower handle — the case content-based resolution got
    // wrong (lowest handle wins).
    let pid = cluster.node_mut(1).subject_pid("alice");
    cluster
        .nexus(1)
        .kernel_label(pid, Principal::name("CA"), parse("ok").unwrap())
        .expect("local grant");
    let rec = cluster.mint(0, "alice", "CA", "ok");
    assert!(cluster.run_until_converged(4), "mint: seed={seed}");
    assert!(
        cluster.revoke(0, &rec),
        "origin must see the record: seed={seed}"
    );
    assert!(cluster.run_until_converged(4), "revoke: seed={seed}");
    for i in 0..3u32 {
        assert!(
            !cluster.has_label(i, &rec),
            "replicated label alive at node {i}: seed={seed}"
        );
        assert_eq!(
            cluster.node(i).stats().apply_errors,
            0,
            "apply error at node {i}: seed={seed}"
        );
    }
    // The locally-granted credential survives on node 1 alone.
    assert!(
        cluster.authorize(1, "alice", "op", &object),
        "local credential must survive the remote revocation: seed={seed}"
    );
    for i in [0u32, 2] {
        assert!(
            !cluster.authorize(i, "alice", "op", &object),
            "node {i} has no local grant and must deny: seed={seed}"
        );
    }
}

#[test]
fn replay_storm_does_not_move_state_or_recount_kernel_effects() {
    for seed in [5u64, 23] {
        let mut cluster = Cluster::new(BYZ_N, seed);
        let rec = cluster.mint(0, "alice", "CA", "ok");
        assert!(cluster.run_until_converged(4), "setup: seed={seed}");
        let digests: Vec<u64> = (0..BYZ_N as u32)
            .map(|i| cluster.node(i).state_digest())
            .collect();
        let mints: Vec<u64> = (0..BYZ_N as u32)
            .map(|i| cluster.nexus(i).dist_stats().remote_mints)
            .collect();
        // Node 4 replays everything it knows, five times over.
        cluster.inject_replay(4, 5);
        cluster.run_to_quiescence(usize::MAX);
        for i in 0..BYZ_N as u32 {
            assert!(cluster.has_label(i, &rec), "node {i}: seed={seed}");
            assert_eq!(
                cluster.node(i).state_digest(),
                digests[i as usize],
                "replay moved node {i}'s state: seed={seed}"
            );
            assert_eq!(
                cluster.nexus(i).dist_stats().remote_mints,
                mints[i as usize],
                "replay re-minted on node {i}'s kernel: seed={seed}"
            );
        }
    }
}

#[test]
fn lossy_duplicating_delaying_network_still_converges() {
    for seed in [2u64, 13, 77, 1234] {
        let mut cluster = Cluster::with_config(BYZ_N, SimConfig::lossy(seed, 10, 15, 4));
        let rec = cluster.mint(0, "alice", "CA", "ok");
        let rec2 = cluster.mint(2, "bob", "CA", "ok");
        assert!(
            cluster.run_until_converged(32),
            "no convergence on lossy net: seed={seed}"
        );
        for i in 0..BYZ_N as u32 {
            assert!(cluster.has_label(i, &rec), "node {i}: seed={seed}");
            assert!(cluster.has_label(i, &rec2), "node {i}: seed={seed}");
            assert_eq!(
                cluster.node(i).stats().apply_errors,
                0,
                "apply error at node {i}: seed={seed}"
            );
        }
        assert!(
            cluster.net_counters().dropped > 0,
            "schedule never exercised loss: seed={seed}"
        );
    }
}

#[test]
fn minority_partition_stalls_then_heals_to_convergence() {
    for seed in [4u64, 19] {
        // Node 4 is cut off from tick 0 until tick 300. With n=5 the
        // echo quorum is n - f = 4, so the connected side {0,1,2,3}
        // is exactly quorate and delivers; node 4 cannot. (Ticks
        // advance one per delivery, so the anti-entropy rounds below
        // also pump the clock toward the healing point.)
        let mut cfg = SimConfig::perfect(seed);
        cfg.partitions = vec![Partition::new(&[4], 0, 300)];
        let mut cluster = Cluster::with_config(BYZ_N, cfg);
        let rec = cluster.mint(0, "alice", "CA", "ok");
        cluster.run_to_quiescence(usize::MAX);
        for i in 0..4u32 {
            assert!(
                cluster.has_label(i, &rec),
                "majority node {i} must deliver: seed={seed}"
            );
        }
        assert!(
            !cluster.has_label(4, &rec),
            "partitioned node delivered without quorum: seed={seed}"
        );
        assert!(
            cluster.run_until_converged(64),
            "no convergence after heal: seed={seed}"
        );
        for i in 0..BYZ_N as u32 {
            assert!(
                cluster.has_label(i, &rec),
                "node {i} missing label after heal: seed={seed}"
            );
        }
    }
}

#[test]
fn transfer_is_atomic_on_every_replica() {
    for seed in [6u64, 31] {
        let mut cluster = Cluster::new(BYZ_N, seed);
        let rec = cluster.mint(0, "alice", "CA", "ok");
        assert!(cluster.run_until_converged(4), "setup: seed={seed}");
        let moved = cluster.transfer(1, &rec, "bob").expect("visible at node 1");
        assert!(cluster.run_until_converged(4), "transfer: seed={seed}");
        for i in 0..BYZ_N as u32 {
            assert!(
                !cluster.has_label(i, &rec),
                "source label survived transfer at node {i}: seed={seed}"
            );
            assert!(
                cluster.has_label(i, &moved),
                "destination label missing at node {i}: seed={seed}"
            );
            let ds = cluster.nexus(i).dist_stats();
            assert_eq!(
                (ds.remote_mints, ds.remote_revocations),
                (2, 1),
                "kernel effect counts off at node {i}: seed={seed}"
            );
        }
    }
}

#[test]
fn seq_flood_drops_surface_in_the_node_snapshot_next_to_the_kernel_series() {
    // "What is this node dropping?" must be answerable from one
    // snapshot: a member spraying validly-signed Sends for fresh seqs
    // of its own origin runs into the per-origin undelivered-slot
    // window (64 in `wire.rs`), and every Send past it is counted —
    // and exported — as a bounds rejection.
    const FLOOD: u64 = 3 * 64;
    let seed = 0xf100d;
    let mut cluster = Cluster::new(BYZ_N, seed);
    let flooder = SimEd25519::from_seed(seed, 4);
    for seq in 0..FLOOD {
        let op = LabelOp::Mint {
            dot: Dot::new(4, seq + 1),
            label: LabelRecord::new("mallory", "CA", "ok"),
        };
        let env = OpEnvelope::sign(4, seq, op, &flooder);
        let msg = Message::sign(4, Payload::Send(env), &flooder);
        cluster.node_mut(0).handle(&msg);
    }
    let node = cluster.node(0);
    let dropped = node.stats().brb.rejected_bounds;
    assert!(dropped > 0, "the flood never hit the slot window");
    let snap = node.metrics();
    match &snap
        .get("nexus_dist_brb_rejected_bounds_total")
        .expect("bounds rejections must be exported")
        .value
    {
        nexus_obs::SampleValue::Counter(v) => assert_eq!(*v, dropped),
        other => panic!("rejected_bounds must be a counter, got {other:?}"),
    }
    // The same snapshot carries the kernel's own series.
    for name in [
        "nexus_dcache_hits_total",
        "nexus_dist_remote_mints_total",
        "nexus_authz_stage_prove_ns",
        "nexus_authz_stage_complete_ns",
        "nexus_dist_brb_accepted_total",
        "nexus_dist_rejected_ops_total",
    ] {
        assert!(snap.get(name).is_some(), "missing metric {name}");
    }
    // And the node's own rows follow the kernel's, in this order.
    let kernel_rows = cluster.nexus(0).telemetry_snapshot().metrics.len();
    let shape: String = snap.metrics[kernel_rows..]
        .iter()
        .map(|m| {
            let kind = match m.value {
                nexus_obs::SampleValue::Counter(_) => "counter",
                nexus_obs::SampleValue::Gauge(_) => "gauge",
                nexus_obs::SampleValue::Histogram(_) => "histogram",
            };
            format!("{} {kind} {}\n", m.name, m.help)
        })
        .collect();
    assert_eq!(shape, NODE_SHAPE);
}

/// What `DistNode::metrics()` appends to the kernel's series, one
/// `name kind help` per line: the broadcast endpoint's counters, then
/// the delivery path's. Captured from the hand-written `Collect` impls
/// the `counters!` tables replaced (PR 14 found one of these series
/// missing; nothing pinned them).
const NODE_SHAPE: &str = "\
nexus_dist_brb_accepted_total counter broadcast messages accepted
nexus_dist_brb_rejected_sigs_total counter broadcast messages dropped for bad signatures
nexus_dist_brb_equivocations_total counter conflicting Sends observed for an accepted slot
nexus_dist_brb_duplicates_total counter redundant broadcast messages
nexus_dist_brb_rejected_bounds_total counter broadcast messages dropped by the per-origin slot window or per-slot digest cap
nexus_dist_brb_delivered_total counter ops delivered by the broadcast layer
nexus_dist_brb_envelopes_verified_total counter origin signatures checked
nexus_dist_applied_mints_total counter labels minted from deliveries
nexus_dist_applied_revocations_total counter labels revoked (fenced) from deliveries
nexus_dist_apply_errors_total counter delivered ops that failed to apply
nexus_dist_rejected_ops_total counter delivered ops rejected for an origin-unbound mint dot
";

#[test]
fn a_hostile_statement_is_an_apply_error_not_a_dead_cluster() {
    // One member's validly signed mint carries a statement nested
    // 200 000 parentheses deep. Every replica delivers it — the
    // broadcast layer does not read statements — and must refuse it
    // at the parser instead of descending into it.
    let seed = 0xdee9;
    let mut cluster = Cluster::new(BYZ_N, seed);
    let deep = format!("{}p{}", "(".repeat(200_000), ")".repeat(200_000));
    cluster.mint(0, "alice", "CA", &deep);
    assert!(cluster.run_until_converged(4), "deep mint: seed={seed}");
    for i in 0..BYZ_N as u32 {
        let stats = cluster.node(i).stats();
        assert_eq!(stats.apply_errors, 1, "node {i}: seed={seed}");
        assert_eq!(stats.applied_mints, 0, "node {i}: seed={seed}");
    }
    // The cluster is alive: an honest mint and its revocation still
    // reach every replica.
    let rec = cluster.mint(1, "alice", "CA", "ok");
    assert!(cluster.run_until_converged(4), "mint: seed={seed}");
    for i in 0..BYZ_N as u32 {
        assert!(cluster.has_label(i, &rec), "node {i}: seed={seed}");
    }
    assert!(cluster.revoke(1, &rec), "seed={seed}");
    assert!(cluster.run_until_converged(4), "revoke: seed={seed}");
    for i in 0..BYZ_N as u32 {
        assert!(!cluster.has_label(i, &rec), "node {i}: seed={seed}");
        let stats = cluster.node(i).stats();
        assert_eq!(
            (
                stats.applied_mints,
                stats.applied_revocations,
                stats.apply_errors
            ),
            (1, 1, 1),
            "node {i}: seed={seed}"
        );
    }
}
