//! `hit_steady` — read = `authorize` on a cached allow.
//!
//! Why: the kernel's front half (config read, `OpName`, hot-index
//! clone, `CacheKey`, seqlock probe, telemetry sampler) is all of the
//! read, so a change to the hit path must move this workload and no
//! other. The writes — `setgoal` re-asserting the goal on objects
//! nobody reads — check that an unrelated policy change stays local
//! to its subregion: every read after them must still hit.

use super::gate::{GateWorld, OP};
use super::CacheCounts;
use crate::driver::{Recorder, Workload};
use crate::rng::Rng;

/// Reads per timed batch.
pub const BATCH: usize = 128;
/// Batches per cycle.
pub const BATCHES: usize = 512;
/// Writes per cycle, one after the other. More than one, because the
/// first `setgoal` after 65 536 reads runs on cold caches and a single
/// sample per cycle swings 15–26 µs between identical runs.
pub const WRITES: usize = 8;

/// The workload.
pub struct HitSteady {
    world: GateWorld,
    cache: CacheCounts,
}

/// Per cycle: the order the resident pairs are visited in (walked
/// round and round for `BATCHES × BATCH` reads) and which cold objects
/// the writes re-assert; plus the verdict expected of the stranger.
#[derive(Debug, PartialEq)]
pub struct Script {
    /// Visiting order of each cycle, as indices into the resident set.
    pub orders: Vec<Vec<u32>>,
    /// Cold object of each of a cycle's writes.
    pub cold: Vec<[u32; WRITES]>,
    /// Expected verdict of the label-less process (false).
    pub stranger_allowed: bool,
}

impl Workload for HitSteady {
    const NAME: &'static str = "hit_steady";
    const CYCLES_PER_10S: usize = 512;
    const TRACE_EVERY: usize = 16;
    type Script = Script;

    fn build(_seed: u64, rec: &mut Recorder) -> Self {
        HitSteady {
            world: GateWorld::build(rec),
            cache: CacheCounts::default(),
        }
    }

    fn script(&self, seed: u64, cycles: usize) -> Script {
        let mut rng = Rng::new(seed, 1);
        Script {
            orders: (0..cycles)
                .map(|_| rng.permutation(self.world.resident.len()))
                .collect(),
            cold: (0..cycles)
                .map(|_| [(); WRITES].map(|()| rng.below(self.world.cold.len()) as u32))
                .collect(),
            stranger_allowed: false,
        }
    }

    fn run(&mut self, script: &Script, rec: &mut Recorder) {
        let w = &self.world;
        let nexus = &w.nexus;
        for (c, order) in script.orders.iter().enumerate() {
            rec.cycle(c % Self::TRACE_EVERY == 0, |rec| {
                let before = nexus.decision_cache_stats();
                let mut k = 0;
                for _ in 0..BATCHES {
                    rec.read_batch(BATCH as u64, |_| {
                        let mut allowed = 0;
                        for _ in 0..BATCH {
                            let (pid, oi) = w.resident[order[k] as usize];
                            k += 1;
                            if k == order.len() {
                                k = 0;
                            }
                            let verdict = nexus.authorize(pid, OP, &w.objects[oi as usize]);
                            allowed += u64::from(matches!(verdict, Ok(true)));
                        }
                        allowed
                    });
                }
                let mid = nexus.decision_cache_stats();
                self.cache.reads(before, mid);

                for &cold in &script.cold[c] {
                    let (cold, goal) = (w.cold[cold as usize].clone(), w.goal.clone());
                    rec.write(|_| nexus.sys_setgoal(w.owner, cold, OP, goal).is_ok());
                }
                self.cache
                    .writes(WRITES as u64, mid, nexus.decision_cache_stats());

                rec.span("verify", |rec| {
                    // The write was subregion-local: the whole read
                    // set is still allowed and still cached.
                    let still = w.probe();
                    rec.check_many(
                        still.len() as u64,
                        still.iter().filter(|&&h| h).count() as u64,
                    );
                    let stranger = nexus.authorize(w.stranger, OP, &w.objects[0]);
                    rec.check(matches!(stranger, Ok(v) if v == script.stranger_allowed));
                });
            });
        }
    }

    fn layer_metrics(&self, rec: &Recorder) -> Vec<(&'static str, f64)> {
        let mut m = self.cache.metrics(self.world.nexus.decision_cache_stats());
        m.extend([
            ("driver.resident_pairs", self.world.resident.len() as f64),
            ("kernel.setgoal_us", rec.span_median_us("write")),
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

    /// The selected read set runs at hit ratio 1.0, and the cold
    /// `setgoal` of every cycle leaves it there (the verify pass counts
    /// any pair that stopped hitting as a failure).
    #[test]
    fn resident_set_hits_before_and_after_the_cold_setgoal() {
        let r = measure::<HitSteady>(7, 2, 1, false);
        assert_eq!(r.rec.failed, 0);
        let ratio = r
            .layers
            .iter()
            .find(|c| c.0 == "core.dcache_hit_ratio")
            .unwrap()
            .1;
        assert_eq!(ratio, 1.0);
        assert_eq!(r.rec.read_ops, (2 * BATCHES * BATCH) as u64);
    }

    #[test]
    fn script_is_a_function_of_the_seed() {
        let mut rec = Recorder::new(false);
        let w = HitSteady::build(0, &mut rec);
        assert_eq!(w.script(11, 4), w.script(11, 4));
        assert_ne!(w.script(11, 4), w.script(12, 4));
    }

    /// A deliberately wrong expectation (the stranger "should" be
    /// allowed) makes `fail_ratio` positive and the exit code non-zero.
    #[test]
    fn a_wrong_expectation_fails_the_run() {
        let mut rec = Recorder::new(false);
        let mut w = HitSteady::build(0, &mut rec);
        let mut script = w.script(3, 1);
        script.stranger_allowed = true;
        w.run(&script, &mut rec);
        assert_eq!(rec.failed, 1);
        assert_ne!(crate::cli::exit_code(rec.failed), 0);
    }

    #[test]
    fn invalidations_per_write_repeat_exactly() {
        let count = |r: &crate::driver::RunResult| {
            r.layers
                .iter()
                .find(|c| c.0 == "core.dcache_invalidations_per_write")
                .unwrap()
                .1
        };
        let (a, b) = (
            measure::<HitSteady>(5, 2, 1, false),
            measure::<HitSteady>(5, 2, 1, false),
        );
        assert_eq!(count(&a), count(&b));
    }
}
