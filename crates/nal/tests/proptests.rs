//! Property-based tests for NAL: parser round-trips, normalization,
//! and prover/checker agreement on randomly generated inputs.
//!
//! The build environment has no crates.io access, so instead of the
//! `proptest` crate these properties run over a seeded, hand-rolled
//! generator (splitmix64). Coverage is the same shape — hundreds of
//! structurally random formulas per property — and failures print the
//! offending seed/case for reproduction, minimized by halve-and-retry
//! shrinking on the generation depth (see [`check_shrunk`]).

use nexus_nal::check::{check, check_own_leaves, normalize, Assumptions};
use nexus_nal::{
    normal_key, parse, prove, BatchGoal, CmpOp, CredSet, Creds, Formula, PreparedGoal, Principal,
    Proof, ProofSearch, ProveOutcome, ProverConfig, Term,
};
use std::cell::Cell;
use std::collections::BTreeSet;

const CASES: u64 = 256;

const KEYWORDS: &[&str] = &[
    "says",
    "speaksfor",
    "on",
    "and",
    "or",
    "not",
    "implies",
    "true",
    "false",
    "key",
];

/// Deterministic splitmix64 stream: each test gets reproducible but
/// structurally varied inputs.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn ident(&mut self) -> String {
        loop {
            let first = (b'a' + self.below(26) as u8) as char;
            let len = self.below(6) as usize;
            let mut s = String::new();
            s.push(first);
            for _ in 0..len {
                const TAIL: &[u8] =
                    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
                s.push(TAIL[self.below(TAIL.len() as u64) as usize] as char);
            }
            if !KEYWORDS.contains(&s.as_str()) {
                return s;
            }
        }
    }

    fn hex_key(&mut self) -> String {
        (0..8)
            .map(|_| {
                const HEX: &[u8] = b"0123456789abcdef";
                HEX[self.below(16) as usize] as char
            })
            .collect()
    }

    fn str_lit(&mut self) -> String {
        const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _/.-";
        let len = self.below(12) as usize;
        (0..len)
            .map(|_| CHARS[self.below(CHARS.len() as u64) as usize] as char)
            .collect()
    }

    fn principal(&mut self) -> Principal {
        let base = if self.below(4) == 0 {
            Principal::Key(self.hex_key())
        } else {
            Principal::Name(self.ident())
        };
        let comps = self.below(3);
        (0..comps).fold(base, |p, _| p.sub(self.ident()))
    }

    fn term(&mut self, depth: u64) -> Term {
        if depth > 0 && self.below(4) == 0 {
            let args = (0..self.below(3)).map(|_| self.term(depth - 1)).collect();
            return Term::App(self.ident(), args);
        }
        match self.below(4) {
            0 => Term::Int(self.below(2000) as i64 - 1000),
            1 => Term::Str(self.str_lit()),
            2 => Term::Sym(self.ident()),
            _ => {
                // Bare named principals collapse to symbols in
                // concrete syntax (Term::canon), so generate only
                // structured ones here.
                match self.principal() {
                    Principal::Name(n) => Term::Sym(n),
                    other => Term::Prin(other),
                }
            }
        }
    }

    fn cmp_op(&mut self) -> CmpOp {
        match self.below(6) {
            0 => CmpOp::Lt,
            1 => CmpOp::Le,
            2 => CmpOp::Eq,
            3 => CmpOp::Ne,
            4 => CmpOp::Ge,
            _ => CmpOp::Gt,
        }
    }

    fn leaf(&mut self) -> Formula {
        match self.below(6) {
            0 => Formula::True,
            1 => Formula::False,
            2 => {
                let args = (0..self.below(3)).map(|_| self.term(2)).collect();
                Formula::Pred(self.ident(), args)
            }
            3 => Formula::Cmp(self.cmp_op(), self.term(1), self.term(1)),
            4 => Formula::speaksfor(self.principal(), self.principal()),
            _ => {
                let scope: BTreeSet<String> = (0..1 + self.below(2))
                    .map(|_| {
                        let mut s = self.ident();
                        // Scope entries in the paper are capitalized
                        // subject names.
                        s[..1].make_ascii_uppercase();
                        s
                    })
                    .collect();
                Formula::SpeaksFor {
                    from: self.principal(),
                    to: self.principal(),
                    scope: Some(scope),
                }
            }
        }
    }

    fn formula(&mut self, depth: u64) -> Formula {
        if depth == 0 || self.below(3) == 0 {
            return self.leaf();
        }
        match self.below(5) {
            0 => Formula::Says(self.principal(), Box::new(self.formula(depth - 1))),
            1 => self.formula(depth - 1).and(self.formula(depth - 1)),
            2 => self.formula(depth - 1).or(self.formula(depth - 1)),
            3 => self.formula(depth - 1).implies(self.formula(depth - 1)),
            _ => self.formula(depth - 1).not(),
        }
    }
}

impl Gen {
    /// A derivation that is sound by construction, with the formula it
    /// concludes (up to normalization): every rule's premises are
    /// generated to fit.
    fn sound_proof(&mut self, depth: u64) -> (Proof, Formula) {
        let boxed = Box::new;
        if depth == 0 || self.below(4) == 0 {
            return match self.below(5) {
                0 => (Proof::TrueIntro, Formula::True),
                1 => {
                    let p = self.principal();
                    let f = Formula::speaksfor(p.clone(), p.clone());
                    (Proof::SpeaksForRefl(p), f)
                }
                _ => {
                    let f = self.formula(2);
                    (Proof::assume(f.clone()), f)
                }
            };
        }
        match self.below(9) {
            0 => {
                let (pa, a) = self.sound_proof(depth - 1);
                let (pb, b) = self.sound_proof(depth - 1);
                (Proof::AndIntro(boxed(pa), boxed(pb)), a.and(b))
            }
            1 => {
                let (pa, a) = self.sound_proof(depth - 1);
                let (pb, _) = self.sound_proof(depth - 1);
                let pair = Proof::AndIntro(boxed(pa), boxed(pb));
                (Proof::AndElimL(boxed(pair)), a)
            }
            2 => {
                let (pa, a) = self.sound_proof(depth - 1);
                let other = self.formula(1);
                (Proof::OrIntroL(boxed(pa), other.clone()), a.or(other))
            }
            3 => {
                // Modus ponens off an assumed implication; every other
                // time the implication is assumed as a negation's
                // normal form, so leaf spellings vary.
                let (pa, a) = self.sound_proof(depth - 1);
                let (imp, concl) = if self.below(2) == 0 {
                    (a.clone().not(), Formula::False)
                } else {
                    let b = self.formula(1);
                    (a.clone().implies(b.clone()), b)
                };
                let mp = Proof::ImpliesElim(boxed(Proof::assume(imp)), boxed(pa));
                (mp, concl)
            }
            4 => {
                let hypo = self.formula(1);
                let (body, b) = if self.below(2) == 0 {
                    (Proof::Hypo(hypo.clone()), hypo.clone())
                } else {
                    self.sound_proof(depth - 1)
                };
                let proof = Proof::ImpliesIntro {
                    hypo: hypo.clone(),
                    body: boxed(body),
                };
                (proof, hypo.implies(b))
            }
            5 => {
                let (pa, a) = self.sound_proof(depth - 1);
                let p = self.principal();
                (Proof::SaysIntro(p.clone(), boxed(pa)), a.says(p))
            }
            6 => {
                let (pa, a) = self.sound_proof(depth - 1);
                (Proof::DoubleNegIntro(boxed(pa)), a.not().not())
            }
            7 => {
                let (from, to) = (self.principal(), self.principal());
                let stmt = self.formula(1);
                let proof = Proof::SpeaksForElim(
                    boxed(Proof::assume(Formula::speaksfor(from.clone(), to.clone()))),
                    boxed(Proof::assume(stmt.clone().says(from))),
                );
                (proof, stmt.says(to))
            }
            _ => {
                // The same leaf twice: distinct leaves < leaf nodes.
                let f = self.formula(2);
                let leaf = || boxed(Proof::assume(f.clone()));
                (Proof::AndIntro(leaf(), leaf()), f.clone().and(f.clone()))
            }
        }
    }

    /// Break a proof in one of the ways a forger might.
    fn sabotage(&mut self, proof: Proof) -> Proof {
        match self.below(3) {
            // A rule applied to a premise of the wrong shape.
            0 => Proof::Handoff(Box::new(proof)),
            // A hypothesis nothing discharges.
            1 => Proof::AndIntro(Box::new(proof), Box::new(Proof::Hypo(self.formula(1)))),
            // A modus ponens whose argument does not fit.
            _ => Proof::ImpliesElim(
                Box::new(Proof::assume(
                    Formula::pred("zz", vec![]).implies(Formula::True),
                )),
                Box::new(proof),
            ),
        }
    }
}

/// Minimal shrinking for the hand-rolled generator (ROADMAP item):
/// when a property fails at the full generation depth, retry the same
/// seed at halved depths (`d/2`, `d/4`, …) and report the *smallest*
/// depth that still fails — smaller depth ⇒ structurally smaller
/// formula ⇒ a friendlier reproduction. The panic message carries the
/// seed and the minimal failing depth so the case can be replayed.
fn check_shrunk(case: u64, max_depth: u64, prop: impl Fn(u64, u64) -> Result<(), String>) {
    let Err(original) = prop(case, max_depth) else {
        return;
    };
    let mut min_depth = max_depth;
    let mut min_failure = original;
    let mut depth = max_depth / 2;
    // Halve-and-retry: keep shrinking while the property still fails;
    // the first passing depth means the previous one was minimal.
    while let Err(failure) = prop(case, depth) {
        min_depth = depth;
        min_failure = failure;
        if depth == 0 {
            break;
        }
        depth /= 2;
    }
    panic!("case {case} failed (minimal depth {min_depth} of {max_depth}): {min_failure}");
}

/// The pretty-printer and parser are mutually inverse.
#[test]
fn parser_roundtrip() {
    for case in 0..CASES {
        check_shrunk(case, 4, |seed, depth| {
            let f = Gen::new(seed).formula(depth);
            let printed = f.to_string();
            let reparsed =
                parse(&printed).map_err(|e| format!("failed to reparse {printed:?}: {e}"))?;
            (f == reparsed)
                .then_some(())
                .ok_or_else(|| format!("roundtrip changed {printed}"))
        });
    }
}

/// Normalization is idempotent.
#[test]
fn normalize_idempotent() {
    for case in 0..CASES {
        check_shrunk(case ^ 0x1111, 4, |seed, depth| {
            let f = Gen::new(seed).formula(depth);
            let n1 = normalize(&f);
            let n2 = normalize(&n1);
            (n1 == n2)
                .then_some(())
                .ok_or_else(|| format!("normalize not idempotent on {f}"))
        });
    }
}

/// Whatever the prover returns, the checker accepts with the same
/// conclusion (prover soundness relative to the checker).
#[test]
fn prover_is_sound() {
    for case in 0..CASES {
        check_shrunk(case ^ 0x2222, 3, |seed, depth| {
            let mut g = Gen::new(seed);
            let creds: Vec<Formula> = (0..g.below(6)).map(|_| g.formula(depth)).collect();
            let goal = g.formula(depth);
            if let Some(proof) = prove(&goal, &creds, ProverConfig::default()) {
                let asm = Assumptions::from_iter(creds.iter());
                let concl =
                    check(&proof, &asm).map_err(|e| format!("invalid proof emitted: {e:?}"))?;
                if normalize(&concl) != normalize(&goal) {
                    return Err(format!("proved {concl} instead of {goal}"));
                }
            }
            Ok(())
        });
    }
}

/// The lemma `Checked` rests on: `check(p, A)` succeeds exactly when
/// `p` is sound over its own leaves and every leaf is in `A`, with the
/// same conclusion — for sound and sabotaged proofs, against the
/// proof's own leaves (in either spelling), all but one of them, and
/// unrelated sets.
#[test]
fn check_is_own_leaf_soundness_plus_leaf_membership() {
    let (accepted, rejected) = (Cell::new(0), Cell::new(0));
    for case in 0..CASES {
        check_shrunk(case ^ 0x6666, 4, |seed, depth| {
            let mut g = Gen::new(seed);
            let (mut proof, concl) = g.sound_proof(depth);
            let sabotaged = g.below(4) == 0;
            if sabotaged {
                proof = g.sabotage(proof);
            }
            let leaves: Vec<Formula> = proof.leaves().into_iter().cloned().collect();
            let respelled: Vec<Formula> = leaves.iter().map(normalize).collect();
            let mut short = leaves.clone();
            if !short.is_empty() {
                short.remove(g.below(short.len() as u64) as usize);
            }
            let unrelated: Vec<Formula> = (0..g.below(4)).map(|_| g.formula(2)).collect();
            let witness = check_own_leaves(proof.clone());
            if sabotaged != witness.is_err() {
                return Err(format!("sabotaged={sabotaged}, yet {witness:?}"));
            }
            if let Ok(w) = &witness {
                if w.normal_conclusion() != &normalize(&concl)
                    || w.normal_conclusion() != &normalize(w.conclusion())
                {
                    return Err(format!("witness concludes {}", w.conclusion()));
                }
                if w.leaves().len() > leaves.len() || w.proof() != &proof {
                    return Err("witness misreports its proof".into());
                }
            }
            for held in [&leaves, &respelled, &short, &unrelated] {
                let asm = Assumptions::from_iter(held.iter());
                let full = check(&proof, &asm);
                let missing = witness
                    .as_ref()
                    .map(|w| w.first_missing(|l| asm.contains_normal(l)));
                match (&full, &missing) {
                    (Ok(c), Ok(None)) if Ok(c) == witness.as_ref().map(|w| w.conclusion()) => {}
                    (Err(_), Ok(Some(leaf))) if !asm.contains(&leaf.stated) => {}
                    (Err(_), Err(_)) => {}
                    _ => return Err(format!("check says {full:?}, the witness {missing:?}")),
                }
                let tally = if full.is_ok() { &accepted } else { &rejected };
                tally.set(tally.get() + 1);
            }
            Ok(())
        });
    }
    assert!(
        accepted.get() >= CASES && rejected.get() >= CASES,
        "both sides of the lemma must be exercised: {accepted:?} accepted, {rejected:?} rejected"
    );
}

/// A witness memoised for one credential set is refused for a set
/// holding all but one of its leaves, and names the missing one: the
/// 8-conjunct goal over a 10-hop chain whose proof has 88 leaf nodes
/// and 18 distinct leaves.
#[test]
fn memoised_witness_is_refused_one_leaf_short() {
    let chain = (0..10).map(|k| {
        let to = if k == 9 {
            "Owner".to_string()
        } else {
            format!("P{}", k + 1)
        };
        format!("{to} says (P{k} speaksfor {to})")
    });
    let payload = (0..8).map(|k| format!("P0 says g{k}"));
    let creds: Vec<Formula> = chain.chain(payload).map(|s| parse(&s).unwrap()).collect();
    let conjuncts: Vec<String> = (0..8).map(|k| format!("Owner says g{k}")).collect();
    let goal = parse(&conjuncts.join(" and ")).unwrap();

    let mut session = ProofSearch::new(ProverConfig::default());
    let ask = |session: &mut ProofSearch, held: &[Formula]| {
        let batch = [BatchGoal {
            goal: &goal,
            credentials: held,
        }];
        session.prove_batch_explained(&batch).remove(0)
    };
    let witness = ask(&mut session, &creds).proof.expect("provable");
    assert_eq!(witness.proof().leaves().len(), 88);
    assert_eq!(witness.leaves().len(), 18);
    let again = ask(&mut session, &creds).proof.expect("memoised");
    assert!(
        std::sync::Arc::ptr_eq(&witness, &again),
        "served, not rebuilt"
    );

    for (i, dropped) in creds.iter().enumerate() {
        let mut held = creds.clone();
        held.remove(i);
        let asm = Assumptions::from_iter(held.iter());
        let missing = witness
            .first_missing(|l| asm.contains_normal(l))
            .expect("one leaf short");
        assert_eq!(&missing.stated, dropped, "names the missing leaf");
        assert!(check(witness.proof(), &asm).is_err());
        let outcome = ask(&mut session, &held);
        assert!(
            outcome.proof.is_none(),
            "witness served to a requester lacking {dropped}"
        );
        assert!(outcome.refuted.is_some());
    }
}

/// A goal that is itself a supplied credential is always provable.
#[test]
fn credentials_prove_themselves() {
    for case in 0..CASES {
        check_shrunk(case ^ 0x3333, 3, |seed, depth| {
            let f = Gen::new(seed).formula(depth);
            if f.is_ground() {
                let creds = vec![f.clone()];
                if prove(&f, &creds, ProverConfig::default()).is_none() {
                    return Err(format!("could not prove own credential {f}"));
                }
            }
            Ok(())
        });
    }
}

/// Proof serialization round-trips through JSON.
#[test]
fn proof_serde_roundtrip() {
    for case in 0..CASES {
        check_shrunk(case ^ 0x4444, 4, |seed, depth| {
            let f = Gen::new(seed).formula(depth);
            let p = Proof::assume(f);
            let json = serde_json::to_string(&p).map_err(|e| e.to_string())?;
            let back: Proof = serde_json::from_str(&json).map_err(|e| e.to_string())?;
            (p == back)
                .then_some(())
                .ok_or_else(|| "serde roundtrip changed proof".to_string())
        });
    }
}

/// Substitution never reintroduces variables on ground formulas.
#[test]
fn ground_formulas_stay_ground() {
    for case in 0..CASES {
        check_shrunk(case ^ 0x5555, 4, |seed, depth| {
            let f = Gen::new(seed).formula(depth);
            if !f.is_ground() {
                return Err(format!("generator produced non-ground {f}"));
            }
            let s = nexus_nal::Subst::new().bind("X", Term::Int(1));
            s.apply(&f)
                .is_ground()
                .then_some(())
                .ok_or_else(|| format!("substitution un-grounded {f}"))
        });
    }
}

/// The shrinker itself: a property that fails exactly above a depth
/// threshold must be reported at the smallest still-failing depth.
#[test]
fn shrinking_reports_minimal_depth() {
    let caught = std::panic::catch_unwind(|| {
        check_shrunk(7, 8, |_seed, depth| {
            if depth >= 2 {
                Err(format!("too deep: {depth}"))
            } else {
                Ok(())
            }
        });
    });
    let msg = *caught
        .expect_err("property fails at depth 8, harness must panic")
        .downcast::<String>()
        .expect("panic payload is the formatted message");
    assert!(
        msg.contains("minimal depth 2 of 8"),
        "halve-and-retry must land on depth 2 (8→4→2→1 passes), got: {msg}"
    );
}

impl Gen {
    /// A credential list the way requesters state them: random
    /// formulas, some stated twice, some stated again under the other
    /// spelling of a negation (`not x` / `x -> false`), in no order.
    fn credentials(&mut self, depth: u64) -> Vec<Formula> {
        let mut creds = Vec::new();
        for _ in 0..self.below(7) {
            let c = self.formula(depth);
            match self.below(5) {
                0 => creds.push(c.clone()),
                1 => creds.push(normalize(&c)),
                2 => {
                    creds.push(c.clone().not());
                    creds.push(c.clone().implies(Formula::False));
                }
                _ => {}
            }
            let at = self.below(creds.len() as u64 + 1) as usize;
            creds.insert(at, c);
        }
        creds
    }
}

/// A prepared set answers what the raw credentials answer: membership
/// as `Assumptions` decides it, for one layer and for two layers
/// against their concatenation; `stated()` is the input, spelling and
/// order intact; `find` is the first credential stated with that
/// normal form.
#[test]
fn prepared_credentials_answer_as_the_raw_ones_do() {
    let (held, missing, respelled) = (Cell::new(0), Cell::new(0), Cell::new(0));
    for case in 0..CASES {
        check_shrunk(case ^ 0x7777, 3, |seed, depth| {
            let mut g = Gen::new(seed);
            let creds = g.credentials(depth);
            let split = g.below(creds.len() as u64 + 1) as usize;
            let (set, head, tail) = (
                CredSet::new(&creds),
                CredSet::new(&creds[..split]),
                CredSet::new(&creds[split..]),
            );
            let flat = Creds::new(&set);
            let layered = Creds::new(&head).with_request(&tail);
            let asm = Assumptions::from_iter(creds.iter());
            if set.len() != creds.len() || !flat.stated().eq(&creds) || !layered.stated().eq(&creds)
            {
                return Err(format!("stated() is not what was stated: {creds:?}"));
            }
            let strangers: Vec<Formula> = (0..4).map(|_| g.formula(depth)).collect();
            let flipped = creds.iter().map(|c| c.clone().not().not());
            for f in creds.iter().cloned().chain(flipped).chain(strangers) {
                let nf = normalize(&f);
                let want = asm.contains(&f);
                let key = normal_key(&nf);
                for (name, view) in [("flat", flat), ("layered", layered)] {
                    if view.holds(&nf) != want || view.holds_leaf(key, &nf) != want {
                        return Err(format!("{name} view holds {f}: expected {want}"));
                    }
                    let first = creds.iter().find(|c| normalize(c) == nf);
                    if view.find(&nf) != first {
                        return Err(format!("{name} view finds {:?} for {f}", view.find(&nf)));
                    }
                    if first.is_some_and(|c| *c != nf) {
                        respelled.set(respelled.get() + 1);
                    }
                }
                let tally = if want { &held } else { &missing };
                tally.set(tally.get() + 1);
            }
            Ok(())
        });
    }
    assert!(
        held.get() >= CASES && missing.get() >= CASES && respelled.get() >= CASES / 4,
        "{held:?} held, {missing:?} missing, {respelled:?} found under another spelling"
    );
}

/// The raw `BatchGoal` door is the prepared entry behind a `CredSet`:
/// over batches mixing provable and unprovable goals, shared and
/// private credential lists, both return the same proof — or the same
/// refutation — member for member.
#[test]
fn the_raw_door_returns_what_the_prepared_entry_returns() {
    let (proved, failed) = (Cell::new(0), Cell::new(0));
    for case in 0..CASES {
        check_shrunk(case ^ 0x8888, 2, |seed, depth| {
            let mut g = Gen::new(seed);
            let lists: Vec<Vec<Formula>> = (0..1 + g.below(3))
                .map(|_| {
                    let mut creds = g.credentials(depth);
                    // A chain to find, so that some goals need a search.
                    let (a, b) = (g.principal(), g.principal());
                    let said = g.formula(1);
                    creds.push(Formula::speaksfor(a.clone(), b.clone()));
                    creds.push(said.clone().says(a));
                    creds.push(said.says(b).not());
                    creds
                })
                .collect();
            let members: Vec<(Formula, usize)> = (0..1 + g.below(6))
                .map(|_| {
                    let list = g.below(lists.len() as u64) as usize;
                    let creds = &lists[list];
                    let goal = match g.below(4) {
                        0 => g.formula(depth),
                        1 => creds[g.below(creds.len() as u64) as usize].clone(),
                        2 => match &creds[creds.len() - 1] {
                            Formula::Not(delegated) => (**delegated).clone(),
                            other => other.clone(),
                        },
                        _ => {
                            let c = creds[g.below(creds.len() as u64) as usize].clone();
                            c.clone().and(c.not().not())
                        }
                    };
                    (goal, list)
                })
                .collect();
            let raw: Vec<BatchGoal<'_>> = members
                .iter()
                .map(|(goal, list)| BatchGoal {
                    goal,
                    credentials: &lists[*list],
                })
                .collect();
            let sets: Vec<CredSet> = lists.iter().map(CredSet::new).collect();
            let prepared: Vec<PreparedGoal<'_>> = members
                .iter()
                .map(|(goal, list)| PreparedGoal {
                    goal,
                    credentials: Creds::new(&sets[*list]),
                })
                .collect();
            let cfg = ProverConfig::default();
            let by_raw = ProofSearch::new(cfg).prove_batch_explained(&raw);
            let by_prepared = ProofSearch::new(cfg).prove_prepared(&prepared);
            let proofs_only = ProofSearch::new(cfg).prove_batch(&raw);
            for (i, (a, b)) in by_raw.iter().zip(&by_prepared).enumerate() {
                let proof = |o: &ProveOutcome| o.proof.as_ref().map(|w| w.proof().clone());
                if proof(a) != proof(b) || a.refuted != b.refuted {
                    return Err(format!("member {i} ({}): {a:?} vs {b:?}", members[i].0));
                }
                if proofs_only[i].as_ref().map(|w| w.proof()) != proof(a).as_ref() {
                    return Err(format!("member {i}: prove_batch disagrees"));
                }
                if let Some(p) = proof(a) {
                    let asm = Assumptions::from_iter(&lists[members[i].1]);
                    check(&p, &asm).map_err(|e| format!("member {i}: unsound {e:?}"))?;
                }
                let tally = if a.proof.is_some() { &proved } else { &failed };
                tally.set(tally.get() + 1);
            }
            Ok(())
        });
    }
    assert!(
        proved.get() >= CASES && failed.get() >= CASES / 4,
        "both outcomes must be exercised: {proved:?} proved, {failed:?} failed"
    );
}

/// A session needs no telling when credentials move: over random
/// sequences of add-label / remove-label / prove on a small universe,
/// one session that lives through the whole sequence and a session
/// built fresh for each step agree on every verdict, every proof the
/// long-lived one hands out passes the full `check` against the
/// credentials held at that step, and its table never outgrows its
/// cap — small in half the cases, so start-overs happen mid-sequence.
#[test]
fn a_long_lived_session_answers_as_a_fresh_one_across_credential_movement() {
    let universe: Vec<Formula> = [
        "A speaksfor B",
        "B speaksfor Owner",
        "Owner says (C speaksfor Owner)",
        "A says p",
        "A says q",
        "B says q",
        "C says p",
        "C says q",
        "Owner says r",
    ]
    .iter()
    .map(|s| parse(s).unwrap())
    .collect();
    let goals: Vec<Formula> = [
        "Owner says p",
        "Owner says q",
        "B says p",
        "Owner says p and Owner says q",
        "B says q or Owner says r",
        "Owner says p and B says r",
    ]
    .iter()
    .map(|s| parse(s).unwrap())
    .collect();
    let (proved, failed, served, restarts) =
        (Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0));
    for case in 0..CASES {
        let mut g = Gen::new(case ^ 0x9999);
        let cfg = ProverConfig {
            max_memo: if case % 2 == 0 { 8 } else { 8192 },
            ..ProverConfig::default()
        };
        let mut session = ProofSearch::new(cfg);
        let mut held: Vec<Formula> = Vec::new();
        let mut removed = false;
        for step in 0..32 {
            let label = &universe[g.below(universe.len() as u64) as usize];
            match (g.below(5), held.iter().position(|h| h == label)) {
                (0 | 1, None) => held.push(label.clone()),
                (2, Some(at)) => {
                    held.remove(at);
                    removed = true;
                }
                _ => {
                    let goal = &goals[g.below(goals.len() as u64) as usize];
                    let hits = session.stats().memo_hits;
                    let kept = session.prove(goal, &held);
                    let fresh = ProofSearch::new(cfg).prove(goal, &held);
                    assert_eq!(
                        kept.is_some(),
                        fresh.is_some(),
                        "case {case} step {step}: {goal} from {held:?}"
                    );
                    if let Some(proof) = &kept {
                        let concl = check(proof, &Assumptions::from_iter(held.iter()))
                            .unwrap_or_else(|e| panic!("case {case} step {step}: {e:?}"));
                        assert_eq!(normalize(&concl), normalize(goal));
                    }
                    let tally = if kept.is_some() { &proved } else { &failed };
                    tally.set(tally.get() + 1);
                    if removed && session.stats().memo_hits > hits {
                        served.set(served.get() + 1);
                    }
                }
            }
            assert!(
                session.memo_len() <= cfg.max_memo,
                "case {case} step {step}"
            );
        }
        restarts.set(restarts.get() + session.stats().restarts);
    }
    assert!(
        proved.get() >= CASES
            && failed.get() >= CASES
            && served.get() >= CASES
            && restarts.get() >= CASES / 4,
        "{proved:?} proved, {failed:?} failed, {served:?} answered from the memo after a \
         removal, {restarts:?} start-overs"
    );
}
