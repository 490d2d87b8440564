//! Figure 5: proof evaluation cost as a function of proof length.
//!
//! Three rule families, each at lengths 1..=20, in two variants:
//! E — isolated proof checking; F — full guard evaluation including
//! credential matching (the paper's dashed lines add label-store and
//! authority lookup overhead).
//!
//! Rule families: `delegate` chains speaksfor-elimination; `negate`
//! chains double-negation introduction; `boolean` chains modus ponens
//! over implications (the paper's third family is disjunction
//! elimination — a connective-level rule of comparable per-step cost;
//! see "Paper vs. measured" in the README).

use nexus_core::{AccessRequest, AuthorityRegistry, Guard, OpName, ProofRef, ResourceId};
use nexus_nal::check::{check, Assumptions};
use nexus_nal::{parse, CredSet, Creds, Formula, Principal, Proof};
use serde::Serialize;

use crate::time_ns;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Delegate,
    Negate,
    Boolean,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Delegate => "delegate",
            Family::Negate => "negate",
            Family::Boolean => "boolean",
        }
    }
}

/// Build a proof with `n` rule applications plus its credential set
/// and conclusion.
pub fn build(family: Family, n: usize) -> (Proof, Vec<Formula>, Formula) {
    match family {
        Family::Delegate => {
            let mut creds = vec![parse("P0 says p").unwrap()];
            let mut proof = Proof::assume(creds[0].clone());
            for i in 0..n {
                let sf = parse(&format!("P{i} speaksfor P{}", i + 1)).unwrap();
                creds.push(sf.clone());
                proof = Proof::SpeaksForElim(Box::new(Proof::assume(sf)), Box::new(proof));
            }
            let goal = parse(&format!("P{n} says p")).unwrap();
            (proof, creds, goal)
        }
        Family::Negate => {
            let base = parse("p").unwrap();
            let creds = vec![base.clone()];
            let mut proof = Proof::assume(base.clone());
            let mut goal = base;
            for _ in 0..n {
                proof = Proof::DoubleNegIntro(Box::new(proof));
                goal = goal.not().not();
            }
            (proof, creds, goal)
        }
        Family::Boolean => {
            let mut creds = vec![parse("q0").unwrap()];
            let mut proof = Proof::assume(creds[0].clone());
            for i in 0..n {
                let imp = parse(&format!("q{i} -> q{}", i + 1)).unwrap();
                creds.push(imp.clone());
                proof = Proof::ImpliesElim(Box::new(Proof::assume(imp)), Box::new(proof));
            }
            let goal = parse(&format!("q{n}")).unwrap();
            (proof, creds, goal)
        }
    }
}

#[derive(Debug, Clone, Serialize)]
pub struct Point {
    pub family: &'static str,
    pub rules: usize,
    pub eval_ns: f64,
    pub full_ns: f64,
}

/// Measure one (family, length) point.
pub fn measure(family: Family, n: usize, iters: u64) -> Point {
    let (proof, creds, goal) = build(family, n);
    let asm = Assumptions::from_iter(creds.iter());
    let eval_ns = time_ns(iters, || {
        check(&proof, &asm).expect("valid proof");
    });
    // Full path: fresh guard per batch so nothing is memoized, plus
    // credential matching against the label set.
    let subject = Principal::name("bench");
    let op = OpName::from("op");
    let object = ResourceId::new("bench", "obj");
    let full_ns = time_ns(iters, || {
        let guard = Guard::new();
        // Prepared inside the timed region: Figure 5's request arrives
        // with raw credentials.
        let held = CredSet::new(&creds);
        let req = AccessRequest {
            subject: &subject,
            operation: &op,
            object: &object,
            proof: Some(ProofRef::Raw(&proof)),
            labels: Creds::new(&held),
        };
        let d = guard.check(&req, &goal, &AuthorityRegistry::new());
        assert!(d.allow);
    });
    Point {
        family: family.name(),
        rules: proof.rule_count(),
        eval_ns,
        full_ns,
    }
}

/// The full sweep.
pub fn run(iters: u64, max_rules: usize) -> Vec<Point> {
    let mut out = Vec::new();
    for family in [Family::Delegate, Family::Negate, Family::Boolean] {
        for n in (2..=max_rules).step_by(2) {
            out.push(measure(family, n, iters));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proofs_check_at_all_lengths() {
        for family in [Family::Delegate, Family::Negate, Family::Boolean] {
            for n in [1usize, 5, 10, 20] {
                let (proof, creds, goal) = build(family, n);
                let asm = Assumptions::from_iter(creds.iter());
                let c = check(&proof, &asm).unwrap();
                assert_eq!(
                    nexus_nal::check::normalize(&c),
                    nexus_nal::check::normalize(&goal)
                );
                assert!(proof.rule_count() >= n);
            }
        }
    }

    #[test]
    fn cost_grows_with_length() {
        let _serial = crate::timing_guard();
        let short = measure(Family::Delegate, 2, 200);
        let long = measure(Family::Delegate, 20, 200);
        assert!(
            long.eval_ns > short.eval_ns,
            "20-rule proof ({:.0}ns) should cost more than 2-rule ({:.0}ns)",
            long.eval_ns,
            short.eval_ns
        );
    }

    #[test]
    fn full_costs_more_than_eval() {
        let _serial = crate::timing_guard();
        let p = measure(Family::Boolean, 10, 200);
        assert!(p.full_ns > p.eval_ns);
    }

    #[test]
    fn practical_proofs_check_fast() {
        let _serial = crate::timing_guard();
        // Paper: "the proof checker executes all proofs shorter than
        // 15 steps in less than 1ms".
        let p = measure(Family::Delegate, 15, 100);
        assert!(
            p.eval_ns < 1_000_000.0,
            "15-step proof took {:.0}ns",
            p.eval_ns
        );
    }
}
