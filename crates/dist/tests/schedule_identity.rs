//! Schedule identity: the endpoint emits the same messages in the
//! same order as it did before its slot state was rewritten (ISSUE
//! 19). `SimNet::step` picks a flight by index, so any change to what
//! a `BrbState` emits — or in which order — moves every later
//! delivery, and with it these totals. The constants were captured at
//! the four-copy layout (commit `efb78c9`) and must never move with
//! a change that claims to be bookkeeping only.

use nexus_dist::{Cluster, NetCounters, SimConfig};

const NODES: u32 = 5;

/// What a run leaves behind: how many of the revocations their
/// origin could send, the transport's totals and each node's BRB
/// `(delivered, duplicates)`.
type Trace = (usize, NetCounters, [(u64, u64); NODES as usize]);

/// The fixed script: 8 mints from rotating origins, converge, 4
/// revocations, one explicit anti-entropy pass, converge. (Replicas
/// that agree have converged, so on a lossy network a mint nobody has
/// delivered yet may not be revocable at its revoker — which is as
/// much a function of the schedule as the counters are.)
fn run(cfg: SimConfig) -> Trace {
    let seed = cfg.seed;
    let mut cluster = Cluster::with_config(NODES as usize, cfg);
    let records: Vec<_> = (0..8u32)
        .map(|i| cluster.mint(i % NODES, &format!("subject{i}"), "CA", "ok"))
        .collect();
    assert!(cluster.run_until_converged(8), "mints: seed={seed}");
    let revoked = (0..4u32)
        .filter(|&i| cluster.revoke((i + 1) % NODES, &records[i as usize]))
        .count();
    cluster.anti_entropy();
    assert!(cluster.run_until_converged(8), "revokes: seed={seed}");
    let brb = std::array::from_fn(|i| {
        let brb = cluster.node(i as u32).stats().brb;
        (brb.delivered, brb.duplicates)
    });
    (revoked, cluster.net_counters(), brb)
}

fn net(delivered: u64, dropped: u64, duplicated: u64) -> NetCounters {
    NetCounters {
        delivered,
        dropped,
        duplicated,
        partitioned: 0,
    }
}

#[test]
fn perfect_network_schedules_are_unmoved() {
    let expected: [Trace; 3] = [
        (
            4,
            net(3420, 0, 0),
            [(12, 586), (12, 582), (12, 584), (12, 580), (12, 585)],
        ),
        (
            4,
            net(3425, 0, 0),
            [(12, 586), (12, 590), (12, 589), (12, 586), (12, 587)],
        ),
        (
            4,
            net(3370, 0, 0),
            [(12, 573), (12, 577), (12, 572), (12, 575), (12, 576)],
        ),
    ];
    for (seed, want) in (1u64..).zip(expected) {
        assert_eq!(run(SimConfig::perfect(seed)), want, "seed={seed}");
    }
}

#[test]
fn lossy_network_schedules_are_unmoved() {
    let expected: [Trace; 3] = [
        (
            3,
            net(3267, 245, 352),
            [(11, 578), (11, 544), (11, 582), (11, 557), (11, 563)],
        ),
        (
            4,
            net(6087, 492, 644),
            [(12, 1114), (12, 1131), (12, 1109), (12, 1104), (12, 1141)],
        ),
        (
            4,
            net(3446, 258, 359),
            [(12, 579), (12, 596), (12, 603), (12, 600), (12, 581)],
        ),
    ];
    for (seed, want) in (1u64..).zip(expected) {
        assert_eq!(run(SimConfig::lossy(seed, 10, 15, 4)), want, "seed={seed}");
    }
}
