//! The proof checker.
//!
//! Checking is the guard's half of the authorization bargain: clients
//! construct proofs (undecidable in general), guards check them in time
//! linear in proof size. The checker walks the derivation bottom-up,
//! computing each node's conclusion and validating side conditions.
//!
//! Constructivity: there is no rule that eliminates double negation or
//! asserts excluded middle. `Not(p)` and `Implies(p, False)` are
//! identified by normalization, so either spelling works in premises.
//!
//! ## Checked once, asked per request
//!
//! The checker is syntax-directed: a node's conclusion is a function
//! of its subtree, and the assumption set is consulted in exactly one
//! place, for membership, at the `Proof::Assume` arm of `chk`. Hence
//! the lemma everything downstream leans on:
//!
//! > `check(p, A)` succeeds ⇔ `p` is sound over its own leaves ∧ every
//! > leaf of `p` ∈ `A` — with the same conclusion either way.
//!
//! The first conjunct never changes, so it is established once, by
//! [`check_own_leaves`], and carried as a [`Checked`] witness: the
//! proof, its conclusion (also in normal form) and its *distinct*
//! leaves. The second is the only thing left to ask per request —
//! [`Checked::first_missing`] over those leaves. The prover's memo, the
//! guard's §2.9 memo and the kernel between them all pass the witness
//! around behind an `Arc` instead of re-deriving (or copying) it.

use crate::creds::normal_key;
use crate::error::CheckError;
use crate::formula::Formula;
use crate::proof::Proof;
use crate::term::Term;
use std::collections::BTreeSet;
use std::collections::HashSet;

/// Maximum proof size accepted by [`check`]. Guards must bound work
/// done on behalf of unauthenticated clients; 1 MiB-scale proofs are
/// far beyond anything practical (the paper: "all practical proofs …
/// involve less than 15 steps").
pub const MAX_PROOF_NODES: usize = 1 << 20;

/// Deepest nesting the parser accepts or builds, counting formula
/// connectives, term applications and subprincipal components alike.
/// Everything that later walks a parsed formula recurses once per
/// level, so this is what keeps a hostile `((((…` or `not not not …`
/// from overflowing the stack of whoever parses it. Nothing in the
/// tree (tests, apps, proptest generators) nests past twelve: the
/// whole suite passes with the bound set there.
pub(crate) const MAX_NESTING: usize = 128;

/// Rewrite `Not(p)` into `Implies(p, False)` recursively, giving every
/// formula a canonical constructive form.
pub fn normalize(f: &Formula) -> Formula {
    match f {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Pred(name, args) => {
            Formula::Pred(name.clone(), args.iter().map(Term::canon).collect())
        }
        Formula::Cmp(op, a, b) => Formula::Cmp(*op, a.canon(), b.canon()),
        Formula::SpeaksFor { .. } => f.clone(),
        Formula::Says(p, s) => Formula::Says(p.clone(), Box::new(normalize(s))),
        Formula::And(a, b) => Formula::And(Box::new(normalize(a)), Box::new(normalize(b))),
        Formula::Or(a, b) => Formula::Or(Box::new(normalize(a)), Box::new(normalize(b))),
        Formula::Implies(a, b) => Formula::Implies(Box::new(normalize(a)), Box::new(normalize(b))),
        Formula::Not(a) => Formula::Implies(Box::new(normalize(a)), Box::new(Formula::False)),
    }
}

/// The set of statements a guard accepts as proof leaves: the supplied
/// credentials (labels) plus any authority-validated statements.
#[derive(Debug, Clone, Default)]
pub struct Assumptions {
    normalized: HashSet<Formula>,
}

impl Assumptions {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of formulas. (Deliberately an inherent
    /// method, not `FromIterator`: callers pass `&Formula`s and get
    /// normalized admission, which `collect()` would obscure.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<'a, I: IntoIterator<Item = &'a Formula>>(it: I) -> Self {
        let mut a = Self::new();
        for f in it {
            a.insert(f);
        }
        a
    }

    /// Admit `f` as a valid leaf.
    pub fn insert(&mut self, f: &Formula) {
        self.normalized.insert(normalize(f));
    }

    /// True if `f` (modulo ¬-normalization) is an admitted leaf.
    pub fn contains(&self, f: &Formula) -> bool {
        self.contains_normal(&normalize(f))
    }

    /// [`Assumptions::contains`] for a formula already in normal form
    /// (a [`Leaf::normal`]): the probe without the rewrite.
    pub fn contains_normal(&self, normal: &Formula) -> bool {
        self.normalized.contains(normal)
    }

    /// Number of admitted statements.
    pub fn len(&self) -> usize {
        self.normalized.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.normalized.is_empty()
    }
}

/// Check `proof` against `assumptions`; on success return the proved
/// formula (the conclusion at the root).
// `CheckError` embeds the offending formulas for auditability; the
// error path is cold (denials clone once), so the large variant is a
// deliberate trade.
#[allow(clippy::result_large_err)]
pub fn check(proof: &Proof, assumptions: &Assumptions) -> Result<Formula, CheckError> {
    bounded(proof, Some(assumptions))
}

/// One distinct credential leaf of a [`Checked`] proof.
#[derive(Debug)]
pub struct Leaf {
    /// The leaf as the proof spelled it — what an authority is asked.
    pub stated: Formula,
    /// Its normal form — what a label set is probed with.
    pub normal: Formula,
    /// [`normal_key`] of `normal`, computed once with the witness so a
    /// probe of a prepared set ([`Creds::holds_leaf`](crate::Creds::holds_leaf))
    /// hashes nothing.
    pub key: u64,
}

/// A proof the checker has accepted over its own leaves, with what
/// that run established: the conclusion, its normal form, and the
/// distinct leaves (first spelling of each normal form, in proof
/// order). By the module's lemma, whoever holds every leaf holds a
/// proof [`check`] accepts — so a `Checked` is checked once and then
/// only *asked* ([`Checked::first_missing`]) per request.
///
/// It is read-only and cannot be forged: the fields are private, it is
/// neither `Default` nor deserializable, and [`check_own_leaves`] is
/// the only function that builds one.
///
/// ```
/// use nexus_nal::check::{check_own_leaves, Assumptions};
/// use nexus_nal::{parse, Proof};
///
/// let leaf = parse("A says p").unwrap();
/// let witness = check_own_leaves(Proof::assume(leaf.clone())).unwrap();
/// assert_eq!(witness.conclusion(), &leaf);
/// let holder = Assumptions::from_iter([&leaf]);
/// assert!(witness.first_missing(|l| holder.contains_normal(l)).is_none());
/// let missing = witness.first_missing(|_| false).unwrap();
/// assert_eq!(missing.stated, leaf);
/// ```
///
/// Not spelled out,
///
/// ```compile_fail
/// use nexus_nal::check::Checked;
/// use nexus_nal::{Formula, Proof};
/// let forged = Checked {
///     proof: Proof::TrueIntro,
///     conclusion: Formula::False,
///     normal_conclusion: Formula::False,
///     leaves: Vec::new(),
/// };
/// ```
///
/// not conjured,
///
/// ```compile_fail
/// let forged = nexus_nal::check::Checked::default();
/// ```
///
/// and not read back from bytes (a [`Proof`] in the same position
/// compiles — see `proof_serde_roundtrip`):
///
/// ```compile_fail
/// let forged: nexus_nal::check::Checked = serde_json::from_str("{}").unwrap();
/// ```
#[derive(Debug)]
pub struct Checked {
    proof: Proof,
    conclusion: Formula,
    normal_conclusion: Formula,
    leaves: Vec<Leaf>,
}

impl Checked {
    /// The proof this witnesses.
    pub fn proof(&self) -> &Proof {
        &self.proof
    }

    /// What the proof establishes.
    pub fn conclusion(&self) -> &Formula {
        &self.conclusion
    }

    /// [`Checked::conclusion`] in normal form — what a goal's normal
    /// form is compared with.
    pub fn normal_conclusion(&self) -> &Formula {
        &self.normal_conclusion
    }

    /// The proof's distinct leaves.
    pub fn leaves(&self) -> &[Leaf] {
        &self.leaves
    }

    /// The per-request half of the lemma: the first leaf whose normal
    /// form `held` does not admit ([`Assumptions::contains_normal`], or
    /// whatever else the caller keeps normalised credentials in);
    /// `None` when every leaf is held — exactly when [`check`] accepts
    /// the proof against those credentials.
    pub fn first_missing(&self, held: impl Fn(&Formula) -> bool) -> Option<&Leaf> {
        self.leaves.iter().find(|leaf| !held(&leaf.normal))
    }
}

/// Check `proof` over its own leaves — every `Assume` admitted, every
/// rule application and side condition validated — and keep what that
/// established as a [`Checked`] witness. The only constructor of one.
#[allow(clippy::result_large_err)]
pub fn check_own_leaves(proof: Proof) -> Result<Checked, CheckError> {
    let conclusion = bounded(&proof, None)?;
    let mut seen = HashSet::new();
    let mut leaves = Vec::new();
    for stated in proof.leaves() {
        let normal = normalize(stated);
        if !seen.contains(&normal) {
            seen.insert(normal.clone());
            leaves.push(Leaf {
                stated: stated.clone(),
                key: normal_key(&normal),
                normal,
            });
        }
    }
    // A witness is kept for as long as a memo keeps it: no spare capacity.
    leaves.shrink_to_fit();
    Ok(Checked {
        normal_conclusion: normalize(&conclusion),
        conclusion,
        leaves,
        proof,
    })
}

/// [`chk`] behind the size bound. `asm` of `None` admits every leaf:
/// the proof is checked over its own.
#[allow(clippy::result_large_err)]
fn bounded(proof: &Proof, asm: Option<&Assumptions>) -> Result<Formula, CheckError> {
    let n = proof.size();
    if n > MAX_PROOF_NODES {
        return Err(CheckError::TooLarge(n));
    }
    chk(proof, asm, &mut Vec::new())
}

#[allow(clippy::result_large_err)]
fn require_ground(f: &Formula) -> Result<(), CheckError> {
    if f.is_ground() {
        Ok(())
    } else {
        Err(CheckError::NonGround(f.clone()))
    }
}

fn mismatch(rule: &'static str, detail: impl Into<String>) -> CheckError {
    CheckError::RuleMismatch {
        rule,
        detail: detail.into(),
    }
}

#[allow(clippy::result_large_err)]
fn chk(
    proof: &Proof,
    asm: Option<&Assumptions>,
    hypos: &mut Vec<Formula>,
) -> Result<Formula, CheckError> {
    match proof {
        // The one place the assumption set is consulted, and only for
        // membership: what the module's lemma rests on.
        Proof::Assume(f) => {
            require_ground(f)?;
            if asm.is_none_or(|held| held.contains(f)) {
                Ok(f.clone())
            } else {
                Err(CheckError::UnknownAssumption(f.clone()))
            }
        }
        Proof::Hypo(f) => {
            let nf = normalize(f);
            if hypos.contains(&nf) {
                Ok(f.clone())
            } else {
                Err(CheckError::UndischargedHypothesis(f.clone()))
            }
        }
        Proof::TrueIntro => Ok(Formula::True),
        Proof::AndIntro(a, b) => {
            let ca = chk(a, asm, hypos)?;
            let cb = chk(b, asm, hypos)?;
            Ok(ca.and(cb))
        }
        Proof::AndElimL(p) => match chk(p, asm, hypos)? {
            Formula::And(a, _) => Ok(*a),
            other => Err(mismatch("and-elim-left", format!("premise is {other}"))),
        },
        Proof::AndElimR(p) => match chk(p, asm, hypos)? {
            Formula::And(_, b) => Ok(*b),
            other => Err(mismatch("and-elim-right", format!("premise is {other}"))),
        },
        Proof::OrIntroL(p, other) => {
            require_ground(other)?;
            let c = chk(p, asm, hypos)?;
            Ok(c.or(other.clone()))
        }
        Proof::OrIntroR(other, p) => {
            require_ground(other)?;
            let c = chk(p, asm, hypos)?;
            Ok(other.clone().or(c))
        }
        Proof::OrElim {
            disj,
            left_hypo,
            left,
            right_hypo,
            right,
        } => {
            let d = chk(disj, asm, hypos)?;
            let (da, db) = match d {
                Formula::Or(a, b) => (*a, *b),
                other => {
                    return Err(mismatch(
                        "or-elim",
                        format!("premise is {other}, not a disjunction"),
                    ))
                }
            };
            if normalize(left_hypo) != normalize(&da) {
                return Err(mismatch(
                    "or-elim",
                    format!("left hypothesis {left_hypo} does not match disjunct {da}"),
                ));
            }
            if normalize(right_hypo) != normalize(&db) {
                return Err(mismatch(
                    "or-elim",
                    format!("right hypothesis {right_hypo} does not match disjunct {db}"),
                ));
            }
            hypos.push(normalize(left_hypo));
            let cl = chk(left, asm, hypos);
            hypos.pop();
            let cl = cl?;
            hypos.push(normalize(right_hypo));
            let cr = chk(right, asm, hypos);
            hypos.pop();
            let cr = cr?;
            if normalize(&cl) != normalize(&cr) {
                return Err(mismatch(
                    "or-elim",
                    format!("branches prove different goals: {cl} vs {cr}"),
                ));
            }
            Ok(cl)
        }
        Proof::ImpliesIntro { hypo, body } => {
            require_ground(hypo)?;
            hypos.push(normalize(hypo));
            let c = chk(body, asm, hypos);
            hypos.pop();
            Ok(hypo.clone().implies(c?))
        }
        Proof::NotIntro { hypo, body } => {
            require_ground(hypo)?;
            hypos.push(normalize(hypo));
            let c = chk(body, asm, hypos);
            hypos.pop();
            match normalize(&c?) {
                Formula::False => Ok(hypo.clone().not()),
                other => Err(mismatch(
                    "not-intro",
                    format!("body proves {other}, not false"),
                )),
            }
        }
        Proof::ImpliesElim(pf, pa) => {
            let f = chk(pf, asm, hypos)?;
            let a = chk(pa, asm, hypos)?;
            match normalize(&f) {
                Formula::Implies(want, concl) => {
                    if normalize(&a) == *want {
                        Ok(*concl)
                    } else {
                        Err(mismatch(
                            "implies-elim",
                            format!("argument {a} does not match antecedent {want}"),
                        ))
                    }
                }
                other => Err(mismatch(
                    "implies-elim",
                    format!("premise {other} is not an implication"),
                )),
            }
        }
        Proof::FalseElim(p, goal) => {
            require_ground(goal)?;
            match normalize(&chk(p, asm, hypos)?) {
                Formula::False => Ok(goal.clone()),
                other => Err(mismatch(
                    "false-elim",
                    format!("premise is {other}, not false"),
                )),
            }
        }
        Proof::DoubleNegIntro(p) => {
            let c = chk(p, asm, hypos)?;
            Ok(c.not().not())
        }
        Proof::CmpEval(op, a, b) => {
            let f = Formula::Cmp(*op, a.clone(), b.clone());
            let holds = match (a, b) {
                (Term::Int(x), Term::Int(y)) => op.eval(x, y),
                (Term::Str(x), Term::Str(y)) => op.eval(x, y),
                _ => return Err(CheckError::NotEvaluable(f)),
            };
            if holds {
                Ok(f)
            } else {
                Err(mismatch("cmp-eval", format!("{f} is false")))
            }
        }
        Proof::SaysIntro(p, body) => {
            if p.has_var() {
                return Err(CheckError::NonGround(Formula::Says(
                    p.clone(),
                    Box::new(Formula::True),
                )));
            }
            let c = chk(body, asm, hypos)?;
            Ok(c.says(p.clone()))
        }
        Proof::SaysApp(pf, pa) => {
            let f = chk(pf, asm, hypos)?;
            let a = chk(pa, asm, hypos)?;
            let (p1, inner) = match normalize(&f) {
                Formula::Says(p, inner) => (p, *inner),
                other => {
                    return Err(mismatch(
                        "says-app",
                        format!("first premise {other} is not a says"),
                    ))
                }
            };
            let (p2, arg) = match normalize(&a) {
                Formula::Says(p, inner) => (p, *inner),
                other => {
                    return Err(mismatch(
                        "says-app",
                        format!("second premise {other} is not a says"),
                    ))
                }
            };
            if p1 != p2 {
                return Err(mismatch(
                    "says-app",
                    format!("premises attributed to different principals: {p1} vs {p2}"),
                ));
            }
            match inner {
                Formula::Implies(want, concl) => {
                    if arg == *want {
                        Ok(Formula::Says(p1, concl))
                    } else {
                        Err(mismatch(
                            "says-app",
                            format!("inner argument {arg} does not match antecedent {want}"),
                        ))
                    }
                }
                other => Err(mismatch(
                    "says-app",
                    format!("inner statement {other} is not an implication"),
                )),
            }
        }
        Proof::SpeaksForElim(psf, psays) => {
            let sf = chk(psf, asm, hypos)?;
            let sy = chk(psays, asm, hypos)?;
            let (from, to, scope) = match sf {
                Formula::SpeaksFor { from, to, scope } => (from, to, scope),
                other => {
                    return Err(mismatch(
                        "speaksfor-elim",
                        format!("first premise {other} is not a speaksfor"),
                    ))
                }
            };
            let (speaker, stmt) = match sy {
                Formula::Says(p, s) => (p, *s),
                other => {
                    return Err(mismatch(
                        "speaksfor-elim",
                        format!("second premise {other} is not a says"),
                    ))
                }
            };
            if speaker != from {
                return Err(mismatch(
                    "speaksfor-elim",
                    format!("speaker {speaker} is not the delegate {from}"),
                ));
            }
            if let Some(scope) = &scope {
                if !stmt.within_scope(scope) {
                    return Err(CheckError::ScopeViolation {
                        statement: stmt,
                        scope: scope.iter().cloned().collect(),
                    });
                }
            }
            Ok(stmt.says(to))
        }
        Proof::SubPrin(p, component) => {
            if p.has_var() {
                return Err(CheckError::NonGround(Formula::speaksfor(
                    p.clone(),
                    p.sub(component.clone()),
                )));
            }
            Ok(Formula::speaksfor(p.clone(), p.sub(component.clone())))
        }
        Proof::SpeaksForRefl(p) => {
            if p.has_var() {
                return Err(CheckError::NonGround(Formula::speaksfor(
                    p.clone(),
                    p.clone(),
                )));
            }
            Ok(Formula::speaksfor(p.clone(), p.clone()))
        }
        Proof::Handoff(p) => {
            let f = chk(p, asm, hypos)?;
            match f {
                Formula::Says(b, inner) => match *inner {
                    Formula::SpeaksFor { from, to, scope } if to == b => {
                        Ok(Formula::SpeaksFor { from, to, scope })
                    }
                    other => Err(mismatch(
                        "handoff",
                        format!("inner statement {other} is not a delegation of the speaker's own authority"),
                    )),
                },
                other => Err(mismatch("handoff", format!("premise {other} is not a says"))),
            }
        }
        Proof::SpeaksForTrans(p1, p2) => {
            let f1 = chk(p1, asm, hypos)?;
            let f2 = chk(p2, asm, hypos)?;
            match (f1, f2) {
                (
                    Formula::SpeaksFor {
                        from: a,
                        to: b1,
                        scope: s1,
                    },
                    Formula::SpeaksFor {
                        from: b2,
                        to: c,
                        scope: s2,
                    },
                ) => {
                    if b1 != b2 {
                        return Err(mismatch(
                            "speaksfor-trans",
                            format!("middle principals differ: {b1} vs {b2}"),
                        ));
                    }
                    let scope: Option<BTreeSet<String>> = match (s1, s2) {
                        (None, None) => None,
                        (Some(s), None) | (None, Some(s)) => Some(s),
                        (Some(s1), Some(s2)) => Some(s1.intersection(&s2).cloned().collect()),
                    };
                    Ok(Formula::SpeaksFor {
                        from: a,
                        to: c,
                        scope,
                    })
                }
                (f1, f2) => Err(mismatch(
                    "speaksfor-trans",
                    format!("premises are not speaksfor: {f1}, {f2}"),
                )),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::principal::Principal;

    fn asm(labels: &[&str]) -> Assumptions {
        let fs: Vec<Formula> = labels.iter().map(|s| parse(s).unwrap()).collect();
        Assumptions::from_iter(fs.iter())
    }

    #[test]
    fn assume_known_and_unknown() {
        let a = asm(&["A says p"]);
        let ok = Proof::assume(parse("A says p").unwrap());
        assert_eq!(check(&ok, &a).unwrap(), parse("A says p").unwrap());
        let bad = Proof::assume(parse("A says q").unwrap());
        assert!(matches!(
            check(&bad, &a),
            Err(CheckError::UnknownAssumption(_))
        ));
    }

    #[test]
    fn and_intro_elim() {
        let a = asm(&["A says p", "B says q"]);
        let pair = Proof::AndIntro(
            Box::new(Proof::assume(parse("A says p").unwrap())),
            Box::new(Proof::assume(parse("B says q").unwrap())),
        );
        let c = check(&pair, &a).unwrap();
        assert_eq!(c, parse("A says p and B says q").unwrap());
        let l = Proof::AndElimL(Box::new(pair.clone()));
        assert_eq!(check(&l, &a).unwrap(), parse("A says p").unwrap());
        let r = Proof::AndElimR(Box::new(pair));
        assert_eq!(check(&r, &a).unwrap(), parse("B says q").unwrap());
    }

    #[test]
    fn modus_ponens() {
        let a = asm(&["p -> q", "p"]);
        let mp = Proof::ImpliesElim(
            Box::new(Proof::assume(parse("p -> q").unwrap())),
            Box::new(Proof::assume(parse("p").unwrap())),
        );
        assert_eq!(check(&mp, &a).unwrap(), parse("q").unwrap());
    }

    #[test]
    fn modus_ponens_with_negation() {
        // ¬p is p → false; ImpliesElim must accept it.
        let a = asm(&["not p", "p"]);
        let mp = Proof::ImpliesElim(
            Box::new(Proof::assume(parse("not p").unwrap())),
            Box::new(Proof::assume(parse("p").unwrap())),
        );
        assert_eq!(normalize(&check(&mp, &a).unwrap()), Formula::False);
    }

    #[test]
    fn implies_intro_discharges_hypothesis() {
        // ⊢ p -> p with no assumptions.
        let p = parse("p").unwrap();
        let proof = Proof::ImpliesIntro {
            hypo: p.clone(),
            body: Box::new(Proof::Hypo(p.clone())),
        };
        assert_eq!(
            check(&proof, &Assumptions::new()).unwrap(),
            parse("p -> p").unwrap()
        );
    }

    #[test]
    fn undischarged_hypothesis_rejected() {
        let p = parse("p").unwrap();
        assert!(matches!(
            check(&Proof::Hypo(p), &Assumptions::new()),
            Err(CheckError::UndischargedHypothesis(_))
        ));
    }

    #[test]
    fn hypothesis_does_not_leak_between_branches() {
        // (p -> p) and then try to use Hypo(p) outside: must fail.
        let p = parse("p").unwrap();
        let inner = Proof::ImpliesIntro {
            hypo: p.clone(),
            body: Box::new(Proof::Hypo(p.clone())),
        };
        let leaky = Proof::AndIntro(Box::new(inner), Box::new(Proof::Hypo(p)));
        assert!(matches!(
            check(&leaky, &Assumptions::new()),
            Err(CheckError::UndischargedHypothesis(_))
        ));
    }

    #[test]
    fn or_elim_case_analysis() {
        let a = asm(&["p or q", "p -> r", "q -> r"]);
        let goal_under = |hypo: &str, imp: &str| {
            Proof::ImpliesElim(
                Box::new(Proof::assume(parse(imp).unwrap())),
                Box::new(Proof::Hypo(parse(hypo).unwrap())),
            )
        };
        let proof = Proof::OrElim {
            disj: Box::new(Proof::assume(parse("p or q").unwrap())),
            left_hypo: parse("p").unwrap(),
            left: Box::new(goal_under("p", "p -> r")),
            right_hypo: parse("q").unwrap(),
            right: Box::new(goal_under("q", "q -> r")),
        };
        assert_eq!(check(&proof, &a).unwrap(), parse("r").unwrap());
    }

    #[test]
    fn or_elim_branch_mismatch_rejected() {
        let a = asm(&["p or q", "p -> r", "q -> s"]);
        let proof = Proof::OrElim {
            disj: Box::new(Proof::assume(parse("p or q").unwrap())),
            left_hypo: parse("p").unwrap(),
            left: Box::new(Proof::ImpliesElim(
                Box::new(Proof::assume(parse("p -> r").unwrap())),
                Box::new(Proof::Hypo(parse("p").unwrap())),
            )),
            right_hypo: parse("q").unwrap(),
            right: Box::new(Proof::ImpliesElim(
                Box::new(Proof::assume(parse("q -> s").unwrap())),
                Box::new(Proof::Hypo(parse("q").unwrap())),
            )),
        };
        assert!(check(&proof, &a).is_err());
    }

    #[test]
    fn no_double_negation_elimination() {
        // From ¬¬p there is no rule to conclude p. The only candidate
        // eliminations require implications with matching arguments.
        let a = asm(&["not not p"]);
        // ImpliesElim(¬¬p, ?) needs a proof of ¬p, which we don't have.
        let attempt = Proof::ImpliesElim(
            Box::new(Proof::assume(parse("not not p").unwrap())),
            Box::new(Proof::assume(parse("p").unwrap())),
        );
        assert!(check(&attempt, &a).is_err());
    }

    #[test]
    fn double_negation_introduction() {
        let a = asm(&["p"]);
        let proof = Proof::DoubleNegIntro(Box::new(Proof::assume(parse("p").unwrap())));
        assert_eq!(check(&proof, &a).unwrap(), parse("not not p").unwrap());
    }

    #[test]
    fn cmp_eval_ints_and_strings() {
        let t = Proof::CmpEval(crate::formula::CmpOp::Lt, Term::int(5), Term::int(7));
        assert!(check(&t, &Assumptions::new()).is_ok());
        let f = Proof::CmpEval(crate::formula::CmpOp::Gt, Term::int(5), Term::int(7));
        assert!(check(&f, &Assumptions::new()).is_err());
        let s = Proof::CmpEval(
            crate::formula::CmpOp::Eq,
            Term::str("alice"),
            Term::str("alice"),
        );
        assert!(check(&s, &Assumptions::new()).is_ok());
        // Symbols are not evaluable.
        let sym = Proof::CmpEval(
            crate::formula::CmpOp::Lt,
            Term::sym("TimeNow"),
            Term::int(7),
        );
        assert!(matches!(
            check(&sym, &Assumptions::new()),
            Err(CheckError::NotEvaluable(_))
        ));
    }

    #[test]
    fn says_intro_unit() {
        let a = asm(&["p"]);
        let proof = Proof::SaysIntro(
            Principal::name("A"),
            Box::new(Proof::assume(parse("p").unwrap())),
        );
        assert_eq!(check(&proof, &a).unwrap(), parse("A says p").unwrap());
    }

    #[test]
    fn says_app_distributes() {
        let a = asm(&["A says (p -> q)", "A says p"]);
        let proof = Proof::SaysApp(
            Box::new(Proof::assume(parse("A says (p -> q)").unwrap())),
            Box::new(Proof::assume(parse("A says p").unwrap())),
        );
        assert_eq!(check(&proof, &a).unwrap(), parse("A says q").unwrap());
    }

    #[test]
    fn says_app_rejects_cross_principal() {
        let a = asm(&["A says (p -> q)", "B says p"]);
        let proof = Proof::SaysApp(
            Box::new(Proof::assume(parse("A says (p -> q)").unwrap())),
            Box::new(Proof::assume(parse("B says p").unwrap())),
        );
        assert!(check(&proof, &a).is_err());
    }

    #[test]
    fn locality_of_false() {
        // A says false lets us derive A says G (ex falso inside the
        // modality) but not B says G.
        let a = asm(&["A says false"]);
        // false -> g is a tautology:
        let taut = Proof::ImpliesIntro {
            hypo: Formula::False,
            body: Box::new(Proof::FalseElim(
                Box::new(Proof::Hypo(Formula::False)),
                parse("g").unwrap(),
            )),
        };
        // Lift into A's worldview and apply.
        let lifted = Proof::SaysIntro(Principal::name("A"), Box::new(taut));
        let proof = Proof::SaysApp(
            Box::new(lifted),
            Box::new(Proof::assume(parse("A says false").unwrap())),
        );
        assert_eq!(check(&proof, &a).unwrap(), parse("A says g").unwrap());
        // There is no derivation of "B says g": the only credential
        // speaks about A, and says-intro would need ⊢ g itself.
        let b_attempt = Proof::assume(parse("B says g").unwrap());
        assert!(check(&b_attempt, &a).is_err());
    }

    #[test]
    fn speaksfor_elim_basic() {
        let a = asm(&["A speaksfor B", "A says p"]);
        let proof = Proof::SpeaksForElim(
            Box::new(Proof::assume(parse("A speaksfor B").unwrap())),
            Box::new(Proof::assume(parse("A says p").unwrap())),
        );
        assert_eq!(check(&proof, &a).unwrap(), parse("B says p").unwrap());
    }

    #[test]
    fn scoped_delegation_enforced() {
        let a = asm(&[
            "NTP speaksfor Server on TimeNow",
            "NTP says TimeNow < 20110319",
            "NTP says isTypeSafe(PGM)",
        ]);
        let ok = Proof::SpeaksForElim(
            Box::new(Proof::assume(
                parse("NTP speaksfor Server on TimeNow").unwrap(),
            )),
            Box::new(Proof::assume(parse("NTP says TimeNow < 20110319").unwrap())),
        );
        assert_eq!(
            check(&ok, &a).unwrap(),
            parse("Server says TimeNow < 20110319").unwrap()
        );
        // Out-of-scope statement must be rejected.
        let bad = Proof::SpeaksForElim(
            Box::new(Proof::assume(
                parse("NTP speaksfor Server on TimeNow").unwrap(),
            )),
            Box::new(Proof::assume(parse("NTP says isTypeSafe(PGM)").unwrap())),
        );
        assert!(matches!(
            check(&bad, &a),
            Err(CheckError::ScopeViolation { .. })
        ));
    }

    #[test]
    fn subprincipal_axiom() {
        let kernel = Principal::name("NK");
        let proof = Proof::SubPrin(kernel.clone(), "process23".into());
        let c = check(&proof, &Assumptions::new()).unwrap();
        assert_eq!(
            c,
            Formula::speaksfor(kernel.clone(), kernel.sub("process23"))
        );
    }

    #[test]
    fn speaksfor_transitivity_with_scopes() {
        let a = asm(&[
            "A speaksfor B on TimeNow TimeZone",
            "B speaksfor C on TimeNow",
        ]);
        let proof = Proof::SpeaksForTrans(
            Box::new(Proof::assume(
                parse("A speaksfor B on TimeNow TimeZone").unwrap(),
            )),
            Box::new(Proof::assume(parse("B speaksfor C on TimeNow").unwrap())),
        );
        let c = check(&proof, &a).unwrap();
        match c {
            Formula::SpeaksFor { scope: Some(s), .. } => {
                assert_eq!(s.len(), 1);
                assert!(s.contains("TimeNow"));
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn chained_delegation_through_subprincipal() {
        // Kernel speaks for its process; process says p; kernel-level
        // statement follows… direction check: SubPrin gives
        // NK speaksfor NK.p23, so NK's statements transfer to NK.p23's
        // worldview, not vice versa.
        let a = asm(&["NK says p"]);
        let proof = Proof::SpeaksForElim(
            Box::new(Proof::SubPrin(Principal::name("NK"), "p23".into())),
            Box::new(Proof::assume(parse("NK says p").unwrap())),
        );
        assert_eq!(check(&proof, &a).unwrap(), parse("NK.p23 says p").unwrap());
    }

    #[test]
    fn non_ground_proofs_rejected() {
        let bad = Proof::assume(parse("$X says p").unwrap());
        assert!(matches!(
            check(&bad, &Assumptions::new()),
            Err(CheckError::NonGround(_))
        ));
    }

    #[test]
    fn time_sensitive_file_proof_from_paper() {
        // Goal: Owner says TimeNow < Mar19 (dates as ints).
        // Credentials: Owner's delegation to NTP scoped to TimeNow, and
        // NTP's statement.
        let a = asm(&[
            "NTP speaksfor Owner on TimeNow",
            "NTP says TimeNow < 20110319",
        ]);
        let proof = Proof::SpeaksForElim(
            Box::new(Proof::assume(
                parse("NTP speaksfor Owner on TimeNow").unwrap(),
            )),
            Box::new(Proof::assume(parse("NTP says TimeNow < 20110319").unwrap())),
        );
        assert_eq!(
            check(&proof, &a).unwrap(),
            parse("Owner says TimeNow < 20110319").unwrap()
        );
    }

    #[test]
    fn revocation_pattern_from_paper() {
        // A says (Valid(S) -> S); authority vouches A says Valid(S);
        // conclude A says S. (§2.7)
        let a = asm(&["A says (Valid(S) -> S)", "A says Valid(S)"]);
        let proof = Proof::SaysApp(
            Box::new(Proof::assume(parse("A says (Valid(S) -> S)").unwrap())),
            Box::new(Proof::assume(parse("A says Valid(S)").unwrap())),
        );
        assert_eq!(check(&proof, &a).unwrap(), parse("A says S").unwrap());
    }

    #[test]
    fn proof_too_large_rejected() {
        // Build a proof exceeding the node bound cheaply via repeated
        // DoubleNegIntro — but 2^20 nodes is heavy to build; instead
        // check the bound logic with a reduced-size custom call.
        // Here we simply verify rule_count grows and the checker still
        // handles a deep proof of modest size.
        // Deep proofs recurse; give the checker a roomy stack (debug
        // frames are large). Practical proofs are <15 steps (§5.2).
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(|| {
                let mut p = Proof::assume(parse("p").unwrap());
                for _ in 0..1000 {
                    p = Proof::DoubleNegIntro(Box::new(p));
                }
                let a = asm(&["p"]);
                assert!(check(&p, &a).is_ok());
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
