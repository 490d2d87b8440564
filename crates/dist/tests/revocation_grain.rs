//! A delivered revocation fences the one subject it names, on every
//! replica: strong eventual consistency's "delivered everywhere ⇒
//! denied everywhere" holds for alice while bob — whose credential the
//! op never mentions — keeps his cached allow on all five nodes.

use nexus_core::ResourceId;
use nexus_dist::Cluster;

#[test]
fn a_delivered_revoke_renames_its_subject_and_nobody_else_on_every_replica() {
    const N: u32 = 5;
    let mut cluster = Cluster::new(N as usize, 23);
    let object = ResourceId::new("dist", "grain");
    cluster.install_goal(&object, "op", "CA says ok");
    let alice = cluster.mint(0, "alice", "CA", "ok");
    cluster.mint(1, "bob", "CA", "ok");
    assert!(cluster.run_until_converged(8), "setup convergence");
    for i in 0..N {
        for subject in ["alice", "bob"] {
            // Once to evaluate and fill, once to see the fill serve.
            assert!(
                cluster.authorize(i, subject, "op", &object),
                "{subject}@{i}"
            );
            let hits = cluster.nexus(i).decision_cache_stats().hits;
            assert!(
                cluster.authorize(i, subject, "op", &object),
                "{subject}@{i}"
            );
            assert_eq!(
                cluster.nexus(i).decision_cache_stats().hits,
                hits + 1,
                "{subject}@{i}: the allow must be cached before the revoke"
            );
        }
    }

    let before: Vec<_> = (0..N)
        .map(|i| cluster.nexus(i).decision_cache_stats())
        .collect();
    assert!(cluster.revoke(2, &alice));
    assert!(cluster.run_until_converged(8), "revoke convergence");

    for i in 0..N {
        let nexus = cluster.nexus(i);
        let was = before[i as usize];
        assert!(!cluster.has_label(i, &alice), "delivered at node {i}");
        let applied = nexus.decision_cache_stats();
        assert_eq!(applied.renames, was.renames + 1, "node {i}: one rename");
        assert_eq!(
            applied.invalidations, was.invalidations,
            "node {i}: the delivery cleared nothing"
        );

        // Bob's cached allow is a hit: the guard does not run.
        let upcalls = nexus.guard_upcalls();
        assert!(cluster.authorize(i, "bob", "op", &object), "bob@{i}");
        assert_eq!(
            nexus.decision_cache_stats().hits,
            applied.hits + 1,
            "bob@{i}"
        );
        assert_eq!(nexus.guard_upcalls(), upcalls, "bob@{i}");

        // Alice is evaluated afresh, and denied.
        assert!(!cluster.authorize(i, "alice", "op", &object), "alice@{i}");
        assert_eq!(nexus.guard_upcalls(), upcalls + 1, "alice@{i}");
    }
    assert!(cluster.converged());
}
