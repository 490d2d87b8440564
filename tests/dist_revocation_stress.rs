//! Distributed stale-allow stress: the cluster analog of
//! `tests/seqlock_stress.rs`.
//!
//! A credential is replicated to every node of a 3/5/7-node cluster,
//! reader threads hammer `authorize` against each node's kernel, and
//! the main thread drives a revocation broadcast through the
//! simulated network. The obligation under test is the distributed
//! extension of the no-stale-allow invariant: the moment the
//! revocation is *delivered and applied* at node N (which runs the
//! full revocation fence inside the delivery step), no authorization
//! on N may return an allow backed by the revoked credential.
//! Between broadcast and delivery a node legitimately still allows —
//! that window is cross-node revocation latency, measured by the
//! ledger's `cluster_revoke/write_p50_us`, not a violation.
//!
//! Every schedule is seeded and every assertion prints the seed; a
//! failure replays exactly.

use nexus_core::ResourceId;
use nexus_dist::Cluster;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const CYCLES: usize = 3;
const MAX_READS_PER_THREAD: usize = 200_000;

#[test]
fn no_stale_allow_after_delivered_revocation_across_cluster_sizes() {
    for n in [3usize, 5, 7] {
        for seed in [11u64, 17] {
            run_config(n, seed);
        }
    }
}

fn run_config(n: usize, seed: u64) {
    let mut cluster = Cluster::new(n, seed);
    let object = ResourceId::new("bench", "dist-stress");
    cluster.install_goal(&object, "op", "CA says ok");
    let mut rec = cluster.mint(0, "alice", "CA", "ok");
    assert!(
        cluster.run_until_converged(8),
        "setup convergence: n={n} seed={seed}"
    );
    for i in 0..n as u32 {
        assert!(
            cluster.authorize(i, "alice", "op", &object),
            "replicated credential must allow at node {i}: n={n} seed={seed}"
        );
    }

    // One reader per node (CI runners are small), each hammering its
    // node's kernel. Per-node *generation* counters encode the
    // revocation window: even = credential may be present, odd = the
    // revocation has been applied (fence included) at that node. A
    // reader counts a violation only when an authorize returned allow
    // AND the generation was odd and unchanged across the whole call
    // — i.e. the call ran entirely after the fence and before any
    // re-mint, so the allow can only be a stale read.
    let stop = Arc::new(AtomicBool::new(false));
    let violations = Arc::new(AtomicU64::new(0));
    let rounds = Arc::new(AtomicU64::new(0));
    let gens: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let handles: Vec<_> = (0..n as u32)
        .map(|i| {
            let nexus = cluster.nexus(i);
            let pid = cluster
                .node(i)
                .lookup_subject("alice")
                .expect("subject replicated");
            let object = object.clone();
            let gen = Arc::clone(&gens[i as usize]);
            let (stop, violations, rounds) = (
                Arc::clone(&stop),
                Arc::clone(&violations),
                Arc::clone(&rounds),
            );
            std::thread::spawn(move || {
                let mut allows = 0u64;
                for _ in 0..MAX_READS_PER_THREAD {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let g1 = gen.load(Ordering::Acquire);
                    let allow = nexus.authorize(pid, "op", &object).unwrap();
                    let g2 = gen.load(Ordering::Acquire);
                    if allow {
                        allows += 1;
                        if g1 == g2 && g1 % 2 == 1 {
                            violations.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    rounds.fetch_add(1, Ordering::Relaxed);
                }
                allows
            })
        })
        .collect();

    for cycle in 0..CYCLES {
        // Revoke from a rotating origin and walk the broadcast through
        // the network one delivery at a time, flagging each node the
        // moment the revocation has been applied (fence included)
        // there.
        let origin = (cycle % n) as u32;
        assert!(
            cluster.revoke(origin, &rec),
            "origin must see the record: cycle={cycle} n={n} seed={seed}"
        );
        let mut applied = vec![false; n];
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while applied.iter().any(|&a| !a) {
            assert!(
                std::time::Instant::now() < deadline,
                "revocation never reached every node: n={n} seed={seed}"
            );
            let progressed = cluster.step();
            for i in 0..n {
                if !applied[i] && !cluster.has_label(i as u32, &rec) {
                    applied[i] = true;
                    gens[i].fetch_add(1, Ordering::Release); // even → odd
                                                             // Direct probe: the fence ran inside the step, so
                                                             // this call (started strictly after) must deny.
                    assert!(
                        !cluster.authorize(i as u32, "alice", "op", &object),
                        "allow served after revocation applied at node {i}: n={n} seed={seed}"
                    );
                }
            }
            if !progressed {
                cluster.anti_entropy();
            }
        }
        cluster.run_to_quiescence(usize::MAX);

        // Hold the revoked window open until every reader has made at
        // least a couple of calls inside it.
        let base = rounds.load(Ordering::Relaxed);
        let hold = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while rounds.load(Ordering::Relaxed) < base + 2 * n as u64
            && std::time::Instant::now() < hold
        {
            std::thread::yield_now();
        }

        // Re-mint, closing the revoked windows first — the label may
        // reappear at any node as soon as its delivery quorum forms.
        for gen in &gens {
            gen.fetch_add(1, Ordering::Release); // odd → even
        }
        rec = cluster.mint(((cycle + 1) % n) as u32, "alice", "CA", "ok");
        assert!(
            cluster.run_until_converged(8),
            "re-mint convergence: cycle={cycle} n={n} seed={seed}"
        );
        for i in 0..n as u32 {
            assert!(
                cluster.authorize(i, "alice", "op", &object),
                "re-minted credential must allow at node {i}: cycle={cycle} n={n} seed={seed}"
            );
        }
    }
    stop.store(true, Ordering::Relaxed);

    let mut total_allows = 0u64;
    for h in handles {
        total_allows += h.join().unwrap();
    }
    assert_eq!(
        violations.load(Ordering::Relaxed),
        0,
        "stale allow after delivered revocation: n={n} seed={seed}"
    );
    assert!(
        total_allows > 0,
        "readers never saw the replicated credential: n={n} seed={seed}"
    );
    // Every node's kernel saw every revocation (fence ran there), and
    // no delivery failed to apply.
    for i in 0..n as u32 {
        let ds = cluster.nexus(i).dist_stats();
        assert_eq!(
            ds.remote_revocations, CYCLES as u64,
            "fence count off at node {i}: n={n} seed={seed}"
        );
        assert_eq!(
            cluster.node(i).stats().apply_errors,
            0,
            "apply error at node {i}: n={n} seed={seed}"
        );
    }
}
