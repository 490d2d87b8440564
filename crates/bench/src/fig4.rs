//! Figure 4: authorization cost per case, with and without the
//! kernel decision cache.

use crate::{boot_with, time_ns};
use nexus_core::{AuthorityKind, FnAuthority, ResourceId};
use nexus_kernel::{Nexus, NexusConfig, Syscall};
use nexus_nal::{parse, Formula, Principal, Proof};
use serde::Serialize;
use std::sync::Arc;

/// Cases on the x-axis of Figure 4.
pub const CASES: [&str; 8] = [
    "system call",
    "no goal",
    "no proof",
    "not sound",
    "pass",
    "no cred",
    "embed auth",
    "auth",
];

#[derive(Debug, Clone, Serialize)]
pub struct Point {
    pub case: &'static str,
    pub cached_ns: f64,
    pub uncached_ns: f64,
}

fn setup(case: &str, cache: bool) -> (Nexus, u64, ResourceId) {
    // Set up with defaults (auto-prove lets the owner discharge the
    // setgoal default policy); switch to the measured configuration
    // at the end.
    let nexus = boot_with(NexusConfig::default());
    let pid = nexus.spawn("bench", b"img");
    let object = ResourceId::new("bench", "object");
    nexus.grant_ownership(pid, &object).unwrap();
    match case {
        "system call" => {}
        "no goal" => {
            // Default ALLOW goal.
            nexus
                .sys_setgoal(pid, object.clone(), "op", Formula::True)
                .unwrap();
        }
        "no proof" => {
            nexus
                .sys_setgoal(pid, object.clone(), "op", parse("Owner says ok").unwrap())
                .unwrap();
        }
        "not sound" => {
            nexus
                .sys_setgoal(pid, object.clone(), "op", parse("Owner says ok").unwrap())
                .unwrap();
            let bad = Proof::AndElimL(Box::new(Proof::assume(parse("Owner says ok").unwrap())));
            nexus.sys_set_proof(pid, "op", &object, bad).unwrap();
        }
        "pass" => {
            nexus
                .sys_setgoal(pid, object.clone(), "op", parse("Owner says ok").unwrap())
                .unwrap();
            nexus
                .kernel_label(pid, Principal::name("Owner"), parse("ok").unwrap())
                .unwrap();
            nexus
                .sys_set_proof(
                    pid,
                    "op",
                    &object,
                    Proof::assume(parse("Owner says ok").unwrap()),
                )
                .unwrap();
        }
        "no cred" => {
            nexus
                .sys_setgoal(pid, object.clone(), "op", parse("Owner says ok").unwrap())
                .unwrap();
            // Proof references a label the subject does not hold.
            nexus
                .sys_set_proof(
                    pid,
                    "op",
                    &object,
                    Proof::assume(parse("Owner says ok").unwrap()),
                )
                .unwrap();
        }
        "embed auth" | "auth" => {
            nexus
                .sys_setgoal(
                    pid,
                    object.clone(),
                    "op",
                    parse("Clock says TimeNow < 100").unwrap(),
                )
                .unwrap();
            nexus
                .sys_set_proof(
                    pid,
                    "op",
                    &object,
                    Proof::assume(parse("Clock says TimeNow < 100").unwrap()),
                )
                .unwrap();
            let external = case == "auth";
            nexus.register_authority(
                Principal::name("Clock"),
                Arc::new(FnAuthority(move |s: &Formula| {
                    if external {
                        // Model the IPC round trip to an external
                        // authority process: marshal the query and
                        // unmarshal the response.
                        let bytes = serde_json::to_vec(s).unwrap_or_default();
                        let _: Result<Formula, _> = serde_json::from_slice(&bytes);
                    }
                    s.to_string() == "TimeNow < 100"
                })),
                if external {
                    AuthorityKind::External
                } else {
                    AuthorityKind::Embedded
                },
            );
        }
        other => panic!("unknown case {other}"),
    }
    nexus.set_config(NexusConfig {
        decision_cache: cache,
        auto_prove: false,
        ..NexusConfig::default()
    });
    (nexus, pid, object)
}

fn measure_case(case: &'static str, cache: bool, iters: u64) -> f64 {
    let (nexus, pid, object) = setup(case, cache);
    if case == "system call" {
        return time_ns(iters, || {
            nexus.syscall(pid, Syscall::Null).unwrap();
        });
    }
    // Warm once (fills the decision cache where cacheable).
    let _ = nexus.authorize(pid, "op", &object);
    time_ns(iters, || {
        let _ = nexus.authorize(pid, "op", &object);
    })
}

/// Run all cases.
pub fn run(iters: u64) -> Vec<Point> {
    CASES
        .iter()
        .map(|case| Point {
            case,
            cached_ns: measure_case(case, true, iters),
            uncached_ns: measure_case(case, false, iters),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-case medians over `reps` runs of every case. One run
    /// visits the cases in order, so a case's repetitions are
    /// interleaved with the others': a stall on the shared host costs
    /// each case one repetition, not one case its only sample.
    fn median_points(iters: u64, reps: usize) -> Vec<Point> {
        let runs: Vec<Vec<Point>> = (0..reps).map(|_| run(iters)).collect();
        let median_of =
            |i: usize, f: fn(&Point) -> f64| crate::median(runs.iter().map(|r| f(&r[i])).collect());
        CASES
            .iter()
            .enumerate()
            .map(|(i, case)| Point {
                case,
                cached_ns: median_of(i, |p| p.cached_ns),
                uncached_ns: median_of(i, |p| p.uncached_ns),
            })
            .collect()
    }

    #[test]
    fn cache_helps_cacheable_cases_only() {
        let _serial = crate::timing_guard();
        let pts = median_points(100, 5);
        let by = |n: &str| pts.iter().find(|p| p.case == n).unwrap().clone();
        // `pass` is cacheable: cached must be much cheaper.
        let pass = by("pass");
        assert!(
            pass.cached_ns * 3.0 < pass.uncached_ns,
            "pass: cached {:.0}ns vs uncached {:.0}ns",
            pass.cached_ns,
            pass.uncached_ns
        );
        // Authority cases are never cacheable: cached ≈ uncached.
        let auth = by("auth");
        assert!(
            auth.cached_ns > pass.cached_ns,
            "authority consultation must cost more than a cache hit"
        );
        // External authority costs more than embedded (uncached).
        let embed = by("embed auth");
        assert!(auth.uncached_ns > embed.uncached_ns * 0.8);
    }

    #[test]
    fn decisions_are_correct_per_case() {
        for (case, expect) in [
            ("no goal", true),
            ("no proof", false),
            ("not sound", false),
            ("pass", true),
            ("no cred", false),
            ("embed auth", true),
            ("auth", true),
        ] {
            let (nexus, pid, object) = setup(case, true);
            assert_eq!(
                nexus.authorize(pid, "op", &object).unwrap(),
                expect,
                "case {case}"
            );
        }
    }
}
