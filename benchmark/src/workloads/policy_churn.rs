//! `policy_churn` — the layers of `hit_steady` used the other way
//! round: every read is the first after a full cache clear.
//!
//! Why: a hit-path change that makes `clear` or a fill dearer (bigger
//! slots, interning tables to purge, extra indices) wins `hit_steady`
//! and loses here; and with no pipeline running, the refills take the
//! inline evaluator that `miss_prove` bypasses.

use super::gate::{GateWorld, OP};
use super::CacheCounts;
use crate::driver::{Recorder, Workload};
use crate::rng::Rng;

/// The workload.
pub struct PolicyChurn {
    world: GateWorld,
    /// Object indices of reader 0's resident pairs.
    read_set: Vec<u32>,
    reader: u64,
    cache: CacheCounts,
}

/// Per cycle: the order of each of the two refill passes, and the
/// object the moved label's holders are checked against.
#[derive(Debug, PartialEq)]
pub struct Script {
    /// Two visiting orders (indices into the read set) per cycle.
    pub orders: Vec<[Vec<u32>; 2]>,
    /// Index (into the read set) of each cycle's verification object.
    pub probe: Vec<u32>,
}

impl PolicyChurn {
    /// `transfer_label` of the gate label `from` → `to`, timed; then
    /// `from` must be denied and `to` allowed.
    fn move_label(&mut self, from: u64, to: u64, probe: u32, rec: &mut Recorder) {
        let w = &mut self.world;
        let before = w.nexus.decision_cache_stats();
        rec.write(|_| match w.nexus.transfer_label(from, w.token, to) {
            Ok(handle) => {
                w.token = handle;
                true
            }
            Err(_) => false,
        });
        self.cache.writes(1, before, w.nexus.decision_cache_stats());
        rec.span("verify", |rec| {
            let object = &w.objects[probe as usize];
            rec.check(matches!(w.nexus.authorize(from, OP, object), Ok(false)));
            rec.check(matches!(w.nexus.authorize(to, OP, object), Ok(true)));
        });
    }

    /// One timed pass over the read set, every call a miss that is
    /// evaluated inline and filled.
    fn refill(&mut self, order: &[u32], rec: &mut Recorder) {
        let w = &self.world;
        let before = w.nexus.decision_cache_stats();
        rec.read_batch(order.len() as u64, |_| {
            order
                .iter()
                .filter(|&&i| {
                    let object = &w.objects[self.read_set[i as usize] as usize];
                    matches!(w.nexus.authorize(self.reader, OP, object), Ok(true))
                })
                .count() as u64
        });
        self.cache.reads(before, w.nexus.decision_cache_stats());
    }
}

impl Workload for PolicyChurn {
    const NAME: &'static str = "policy_churn";
    const CYCLES_PER_10S: usize = 10_000;
    type Script = Script;

    fn build(_seed: u64, rec: &mut Recorder) -> Self {
        let world = GateWorld::build(rec);
        let reader = world.resident[0].0;
        let read_set = world
            .resident
            .iter()
            .filter(|&&(pid, _)| pid == reader)
            .map(|&(_, oi)| oi)
            .collect();
        PolicyChurn {
            world,
            read_set,
            reader,
            cache: CacheCounts::default(),
        }
    }

    fn script(&self, seed: u64, cycles: usize) -> Script {
        let mut rng = Rng::new(seed, 3);
        let n = self.read_set.len();
        Script {
            orders: (0..cycles)
                .map(|_| [rng.permutation(n), rng.permutation(n)])
                .collect(),
            probe: (0..cycles).map(|_| rng.below(n) as u32).collect(),
        }
    }

    fn run(&mut self, script: &Script, rec: &mut Recorder) {
        let (victim, vault) = (self.world.victim, self.world.vault);
        for (orders, &probe) in script.orders.iter().zip(&script.probe) {
            let probe = self.read_set[probe as usize];
            rec.cycle(true, |rec| {
                self.move_label(victim, vault, probe, rec);
                self.refill(&orders[0], rec);
                self.move_label(vault, victim, probe, rec);
                self.refill(&orders[1], rec);
            });
        }
    }

    fn layer_metrics(&self, rec: &Recorder) -> Vec<(&'static str, f64)> {
        let mut m = self.cache.metrics(self.world.nexus.decision_cache_stats());
        m.extend([
            ("driver.resident_pairs", self.read_set.len() as f64),
            ("kernel.transfer_label_us", rec.span_median_us("write")),
            (
                "kernel.authorize_refill_us",
                rec.span_median_us("read_batch") / self.read_set.len() as f64,
            ),
            ("kernel.spawn_us", rec.span_median_us("spawn")),
            ("kernel.kernel_label_us", rec.span_median_us("kernel_label")),
        ]);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::measure;

    #[test]
    fn every_refill_read_misses_and_every_verdict_is_right() {
        let r = measure::<PolicyChurn>(9, 3, 1, false);
        assert_eq!(r.rec.failed, 0);
        assert_eq!(r.rec.writes_ns.len(), 6);
        let ratio = r
            .layers
            .iter()
            .find(|c| c.0 == "core.dcache_hit_ratio")
            .unwrap()
            .1;
        assert_eq!(ratio, 0.0);
    }

    #[test]
    fn script_is_a_function_of_the_seed() {
        let mut rec = Recorder::new(false);
        let w = PolicyChurn::build(0, &mut rec);
        assert_eq!(w.script(11, 4), w.script(11, 4));
        assert_ne!(w.script(11, 4), w.script(12, 4));
    }
}
