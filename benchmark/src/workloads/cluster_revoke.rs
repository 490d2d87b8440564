//! `cluster_revoke` — write = a revocation broadcast at one of five
//! replicas (f = 1) until every replica has applied it.
//!
//! Why: signing and verifying, the Bracha Send/Echo/Ready rounds, the
//! or-set apply and one revocation fence per replica do the work, so
//! replication changes show here; a change to the kernel's hit path
//! must leave this write unmoved. The network is the simulator's
//! *perfect* schedule — zero injected delay, random delivery order, no
//! loss — so every latency here is processor time only.
//!
//! Correctness follows the strong-eventual-consistency obligations:
//! once the revocation is delivered everywhere every replica denies
//! (no stale allow), and after the re-mint the replicas converge.

use crate::driver::{Recorder, Workload};
use crate::rng::Rng;
use nexus_core::ResourceId;
use nexus_dist::{Cluster, LabelRecord};

/// Replicas (tolerating f = 1 Byzantine member).
pub const NODES: u32 = 5;
/// Converged records besides the one being revoked.
pub const BYSTANDERS: usize = 32;
/// Read passes over the replicas per cycle: the first refills each
/// replica's cache after the previous revocation, the rest hit.
pub const PASSES: usize = 8;
/// Unrecorded cycles run by the build.
pub const WARM_CYCLES: u32 = 128;
/// `step`s after which a revocation that some replica has still not
/// applied counts as a failed write (it takes ≈ 50).
pub const MAX_STEPS: u64 = 4096;
const OP: &str = "op";
const SUBJECT: &str = "alice";

/// The workload.
pub struct ClusterRevoke {
    cluster: Cluster,
    object: ResourceId,
    record: LabelRecord,
    steps: u64,
    deliveries: u64,
    writes: u64,
}

/// The origin replica of each cycle's revocation and re-mint.
#[derive(Debug, PartialEq)]
pub struct Script {
    /// One origin per cycle.
    pub origins: Vec<u32>,
}

impl ClusterRevoke {
    /// Whether any replica still holds the record.
    fn held_somewhere(&self) -> bool {
        (0..NODES).any(|i| self.cluster.has_label(i, &self.record))
    }

    /// Authorize `alice` at every replica; returns how many allowed.
    fn pass(&mut self) -> u64 {
        (0..NODES)
            .filter(|&i| self.cluster.authorize(i, SUBJECT, OP, &self.object))
            .count() as u64
    }
}

impl Workload for ClusterRevoke {
    const NAME: &'static str = "cluster_revoke";
    const CYCLES_PER_10S: usize = 8_000;
    type Script = Script;

    fn build(seed: u64, rec: &mut Recorder) -> Self {
        let mut cluster = Cluster::new(NODES as usize, seed);
        let object = ResourceId::new("bench", "replicated");
        cluster.install_goal(&object, OP, "CA says ok");
        for i in 0..BYSTANDERS {
            cluster.mint(i as u32 % NODES, &format!("bystander{i}"), "CA", "ok");
        }
        let record = cluster.mint(0, SUBJECT, "CA", "ok");
        let converged = rec.span("mint_converge", |_| cluster.run_until_converged(8));
        assert!(converged, "set-up converges: seed={seed}");
        let mut world = ClusterRevoke {
            cluster,
            object,
            record,
            steps: 0,
            deliveries: 0,
            writes: 0,
        };
        assert_eq!(
            world.pass(),
            u64::from(NODES),
            "replicated credential allows"
        );
        // Warm: whole cycles, so lazy set-up is behind us and one build
        // is long enough (≈ 0.15 s) for `setup_s` to repeat.
        let warm = Script {
            origins: (0..WARM_CYCLES).map(|c| c % NODES).collect(),
        };
        let mut unrecorded = Recorder::new(false);
        world.run(&warm, &mut unrecorded);
        assert_eq!(unrecorded.failed, 0, "warm-up verdicts: seed={seed}");
        (world.steps, world.deliveries, world.writes) = (0, 0, 0);
        world
    }

    fn script(&self, seed: u64, cycles: usize) -> Script {
        let mut rng = Rng::new(seed, 4);
        Script {
            origins: (0..cycles)
                .map(|_| rng.below(NODES as usize) as u32)
                .collect(),
        }
    }

    fn run(&mut self, script: &Script, rec: &mut Recorder) {
        for &origin in &script.origins {
            rec.cycle(true, |rec| {
                for _ in 0..PASSES {
                    rec.read_batch(NODES.into(), |_| self.pass());
                }

                let delivered = self.cluster.net_counters().delivered;
                rec.write(|rec| {
                    let sent = rec.span("revoke_broadcast", |_| {
                        self.cluster.revoke(origin, &self.record)
                    });
                    // Bounded: a revocation that was not sent, or that
                    // delivery never completes, is a failed write, not
                    // a hang.
                    let mut steps = 0;
                    while sent && steps < MAX_STEPS && self.held_somewhere() {
                        steps += 1;
                        rec.span("step", |_| {
                            if !self.cluster.step() {
                                self.cluster.anti_entropy();
                            }
                        });
                    }
                    self.steps += steps;
                    sent && !self.held_somewhere()
                });
                self.deliveries += self.cluster.net_counters().delivered - delivered;
                self.writes += 1;

                // Delivered everywhere ⇒ no replica may still allow.
                rec.span("verify", |rec| {
                    rec.check_many(NODES.into(), u64::from(NODES) - self.pass())
                });

                let converged = rec.span("mint_converge", |_| {
                    self.cluster.run_to_quiescence(usize::MAX);
                    self.record = self.cluster.mint(origin, SUBJECT, "CA", "ok");
                    self.cluster.run_until_converged(8)
                });
                rec.check(converged);
            });
        }
    }

    fn layer_metrics(&self, rec: &Recorder) -> Vec<(&'static str, f64)> {
        let per_write = |n: u64| n as f64 / self.writes.max(1) as f64;
        vec![
            ("dist.steps_per_revoke", per_write(self.steps)),
            ("dist.msgs_per_revoke", per_write(self.deliveries)),
            (
                "dist.revoke_broadcast_us",
                rec.span_median_us("revoke_broadcast"),
            ),
            ("dist.step_us", rec.span_median_us("step")),
            ("dist.mint_converge_us", rec.span_median_us("mint_converge")),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::measure;

    #[test]
    fn msgs_per_revoke_repeat_exactly_and_every_replica_denies() {
        let msgs = |r: &crate::driver::RunResult| {
            r.layers
                .iter()
                .find(|c| c.0 == "dist.msgs_per_revoke")
                .unwrap()
                .1
        };
        let (a, b) = (
            measure::<ClusterRevoke>(21, 20, 1, false),
            measure::<ClusterRevoke>(21, 20, 1, false),
        );
        assert_eq!(a.rec.failed, 0);
        assert!(msgs(&a) >= f64::from(NODES));
        assert_eq!(msgs(&a), msgs(&b));
    }

    /// A revocation the origin cannot send (it never saw the record)
    /// is counted as a failed write and the stale allows it leaves
    /// behind as failed checks; the cycle ends instead of spinning.
    #[test]
    fn an_unsent_revocation_fails_the_write_instead_of_hanging() {
        let mut rec = Recorder::new(false);
        let mut w = ClusterRevoke::build(3, &mut rec);
        w.record = LabelRecord::new("mallory", "CA", "ok");
        w.run(&Script { origins: vec![0] }, &mut rec);
        assert_eq!(rec.writes_ns.len(), 1);
        assert_eq!(rec.failed, 1 + u64::from(NODES));
    }

    #[test]
    fn script_is_a_function_of_the_seed() {
        let mut rec = Recorder::new(false);
        let w = ClusterRevoke::build(1, &mut rec);
        assert_eq!(w.script(11, 64), w.script(11, 64));
        assert_ne!(w.script(11, 64), w.script(12, 64));
    }
}
