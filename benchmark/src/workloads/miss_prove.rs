//! `miss_prove` — read = an allow that has to be proved, through the
//! asynchronous pipeline.
//!
//! Why: the pipeline queue, `Guard::prove_batch`, the NAL proof search
//! and checker, and the cache fill do > 99 % of the work here and the
//! kernel's front half < 0.1 %, so prover and pipeline changes show
//! here and must not show on `hit_steady`. 256 subjects share the 16
//! slots of one object's subregion, so ≈ 6 % of reads hit by
//! working-set size alone. The write — `transfer_label` of an unrelated
//! label, issued once the worker has a window of tickets in hand —
//! measures the revocation fence quiescing an in-flight batch: the
//! batch's first evaluation is overtaken by the epoch bump and redone.

use super::CacheCounts;
use crate::driver::{Recorder, Workload};
use crate::rng::Rng;
use nexus_core::{LabelHandle, ResourceId};
use nexus_kernel::{AuthzOutcome, AuthzTicket, GuardPoolConfig, Nexus};
use nexus_nal::{parse, Principal};
use std::sync::Arc;

/// Subjects.
pub const SUBJECTS: usize = 256;
/// Hops in each subject's `speaksfor` chain (`P0 → … → Owner`).
pub const CHAIN: usize = 10;
/// Conjuncts in the goal, and payload labels per subject.
pub const WIDTH: usize = 8;
/// Tickets in flight per window.
pub const WINDOW: usize = 32;
/// Windows per cycle; window 0 carries the write and is not timed.
pub const WINDOWS: usize = 8;
const OP: &str = "op";

/// The workload.
pub struct MissProve {
    nexus: Arc<Nexus>,
    object: ResourceId,
    subjects: Vec<u64>,
    stranger: u64,
    /// Current holder of the moving label, the other side, its handle.
    mover: (u64, u64, LabelHandle),
    cache: CacheCounts,
}

/// Per cycle: the subject of every ticket, window by window.
#[derive(Debug, PartialEq)]
pub struct Script {
    /// `WINDOWS × WINDOW` subject indices per cycle.
    pub subjects: Vec<Vec<u32>>,
}

/// The labels every subject holds, as (speaker, statement) text: the
/// hand-off chain `P1 says P0 speaksfor P1 … Owner says P9 speaksfor
/// Owner` and the payloads `P0 says g0 … g7`. `Owner says gk` is
/// provable only by searching the chain. `layers` probes the prover
/// on exactly these.
pub fn subject_labels() -> Vec<(String, String)> {
    let chain = (0..CHAIN).map(|k| {
        let target = if k + 1 == CHAIN {
            "Owner".to_string()
        } else {
            format!("P{}", k + 1)
        };
        (target.clone(), format!("P{k} speaksfor {target}"))
    });
    let payload = (0..WIDTH).map(|k| ("P0".to_string(), format!("g{k}")));
    chain.chain(payload).collect()
}

/// The goal: `Owner says g0 and … and Owner says g7`.
pub fn goal_text() -> String {
    let conjuncts: Vec<String> = (0..WIDTH).map(|k| format!("Owner says g{k}")).collect();
    conjuncts.join(" and ")
}

impl MissProve {
    /// Submit one window of tickets.
    fn submit(&self, subjects: &[u32], rec: &mut Recorder) -> Vec<Option<AuthzTicket>> {
        rec.span("submit", |_| {
            subjects
                .iter()
                .map(|&s| {
                    self.nexus
                        .authorize_async(self.subjects[s as usize], OP, &self.object)
                        .ok()
                })
                .collect()
        })
    }

    /// Wait for a window; returns how many tickets resolved to Allow.
    fn wait(tickets: &[Option<AuthzTicket>], rec: &mut Recorder) -> u64 {
        rec.span("ticket_wait", |_| {
            tickets
                .iter()
                .filter(|t| matches!(t.as_ref().map(AuthzTicket::wait), Some(AuthzOutcome::Allow)))
                .count() as u64
        })
    }
}

impl Workload for MissProve {
    const NAME: &'static str = "miss_prove";
    const CYCLES_PER_10S: usize = 96;
    type Script = Script;

    fn build(_seed: u64, rec: &mut Recorder) -> Self {
        let nexus = Arc::new(super::boot());
        let object = ResourceId::new("bench", "proved");
        let owner = nexus.spawn("owner", b"img");
        nexus.grant_ownership(owner, &object).expect("grant");
        nexus
            .sys_setgoal(
                owner,
                object.clone(),
                OP,
                parse(&goal_text()).expect("goal parses"),
            )
            .expect("setgoal");
        let labels: Vec<_> = subject_labels()
            .iter()
            .map(|(speaker, stmt)| (Principal::name(speaker), parse(stmt).expect("label parses")))
            .collect();
        let subjects: Vec<u64> = (0..SUBJECTS)
            .map(|i| {
                let open = rec.begin("spawn");
                let pid = nexus.spawn(&format!("subject{i}"), b"img");
                rec.end(open);
                for (speaker, stmt) in &labels {
                    let open = rec.begin("kernel_label");
                    nexus
                        .kernel_label(pid, speaker.clone(), stmt.clone())
                        .expect("label");
                    rec.end(open);
                }
                pid
            })
            .collect();
        let victim = nexus.spawn("victim", b"img");
        let vault = nexus.spawn("vault", b"img");
        let token = nexus
            .kernel_label(
                victim,
                Principal::name("Mover"),
                parse("token").expect("parses"),
            )
            .expect("label");
        let stranger = nexus.spawn("stranger", b"img");
        nexus.start_authz_pipeline(GuardPoolConfig {
            workers: 1,
            max_batch: 64,
            ..Default::default()
        });
        let world = MissProve {
            nexus,
            object,
            subjects,
            stranger,
            mover: (victim, vault, token),
            cache: CacheCounts::default(),
        };
        // Warm: every subject proves once through the pipeline, so
        // lazy set-up (worker start, prover session, label snapshots)
        // is behind us before anything is timed.
        let all: Vec<u32> = (0..SUBJECTS as u32).collect();
        for window in all.chunks(WINDOW) {
            let tickets = world.submit(window, rec);
            assert_eq!(
                Self::wait(&tickets, rec),
                window.len() as u64,
                "warm-up allows"
            );
        }
        world
    }

    fn script(&self, seed: u64, cycles: usize) -> Script {
        let mut rng = Rng::new(seed, 2);
        Script {
            subjects: (0..cycles)
                .map(|_| {
                    (0..WINDOWS * WINDOW)
                        .map(|_| rng.below(SUBJECTS) as u32)
                        .collect()
                })
                .collect(),
        }
    }

    fn run(&mut self, script: &Script, rec: &mut Recorder) {
        for cycle in &script.subjects {
            rec.cycle(true, |rec| {
                let mut windows = cycle.chunks(WINDOW);

                // Window 0: the write lands while its tickets are in
                // flight; its reads are verified, not timed. It waits
                // until the worker has taken the whole window off the
                // queue: issued straight after the submits it races
                // the worker's wake-up — asleep, the worker evaluates
                // once, under the new epoch (≈ 12.5 ms); awake, it has
                // a batch to throw away and redo (≈ 16.5 ms) — and
                // which of the two a run sees changes with the host's
                // mood every few minutes.
                let tickets = self.submit(windows.next().expect("window 0"), rec);
                rec.span("pickup_wait", |_| {
                    // Yielding, not spinning: pinned to one CPU, the
                    // worker needs this thread's to take the window.
                    while self.nexus.authz_stats().map_or(0, |s| s.embedded_depth) > 0 {
                        std::thread::yield_now();
                    }
                });
                let (from, to, token) = self.mover;
                let unfenced = self.nexus.decision_cache_stats();
                rec.write(|_| match self.nexus.transfer_label(from, token, to) {
                    Ok(handle) => {
                        self.mover = (to, from, handle);
                        true
                    }
                    Err(_) => false,
                });
                self.cache
                    .writes(1, unfenced, self.nexus.decision_cache_stats());
                rec.span("verify", |rec| {
                    let allowed = Self::wait(&tickets, rec);
                    rec.check_many(tickets.len() as u64, allowed);
                    let stranger = self.nexus.authorize(self.stranger, OP, &self.object);
                    rec.check(matches!(stranger, Ok(false)));
                });

                let before = self.nexus.decision_cache_stats();
                for window in windows {
                    rec.read_batch(window.len() as u64, |rec| {
                        let tickets = self.submit(window, rec);
                        Self::wait(&tickets, rec)
                    });
                }
                self.cache.reads(before, self.nexus.decision_cache_stats());
            });
        }
    }

    fn layer_metrics(&self, rec: &Recorder) -> Vec<(&'static str, f64)> {
        let prover = self.nexus.guard_prover_stats();
        let pool = self.nexus.authz_stats().expect("pipeline running");
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        let mut m = self.cache.metrics(self.nexus.decision_cache_stats());
        m.extend([
            (
                "nal.memo_hit_ratio",
                ratio(prover.memo_hits, prover.memo_hits + prover.memo_misses),
            ),
            (
                "nal.batch_share_ratio",
                ratio(prover.batch_shared, prover.proved + prover.failed),
            ),
            ("authzd.avg_batch", ratio(pool.completed, pool.batches)),
            ("authzd.rejected", pool.rejected as f64),
            ("authzd.executor_panics", pool.executor_panics as f64),
            ("kernel.transfer_label_us", rec.span_median_us("write")),
            (
                "kernel.async_submit_ns",
                rec.span_median_ns("submit") / WINDOW as f64,
            ),
            ("kernel.ticket_wait_us", rec.span_median_us("ticket_wait")),
            ("kernel.spawn_us", rec.span_median_us("spawn")),
            ("kernel.kernel_label_us", rec.span_median_us("kernel_label")),
        ]);
        m
    }
}

impl Drop for MissProve {
    fn drop(&mut self) {
        // Joins the pipeline's workers; nothing of this world runs on.
        self.nexus.stop_authz_pipeline();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::measure;

    #[test]
    fn proved_allows_mostly_miss_the_cache_and_all_verdicts_are_right() {
        let r = measure::<MissProve>(4, 2, 1, false);
        assert_eq!(r.rec.failed, 0);
        assert_eq!(r.rec.reads_ns.len(), 2 * (WINDOWS - 1));
        let ratio = r
            .layers
            .iter()
            .find(|c| c.0 == "core.dcache_hit_ratio")
            .unwrap()
            .1;
        assert!(ratio <= 0.10, "hit ratio {ratio}");
    }

    #[test]
    fn script_is_a_function_of_the_seed() {
        let mut rec = Recorder::new(false);
        let w = MissProve::build(0, &mut rec);
        assert_eq!(w.script(11, 4), w.script(11, 4));
        assert_ne!(w.script(11, 4), w.script(12, 4));
    }
}
