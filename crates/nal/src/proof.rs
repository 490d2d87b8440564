//! Proof trees for NAL.
//!
//! Proof *derivation* in NAL is undecidable, so Nexus places the onus on
//! the client to construct a proof and present it with each request
//! (§2.6). The guard then only *checks* the proof — a linear-time
//! operation implemented in [`crate::check`](fn@crate::check::check).
//!
//! Proofs are explicit natural-deduction trees. Leaves are either
//! credentials ([`Proof::Assume`]) or hypotheses ([`Proof::Hypo`])
//! discharged by an enclosing introduction rule. Because the logic is
//! constructive, a checked proof doubles as an audit trail: rendering
//! it (see [`Proof::render_audit`]) shows exactly which labels every
//! authorization decision rested on.

use crate::formula::{CmpOp, Formula};
use crate::principal::Principal;
use crate::term::Term;
use serde::{Deserialize, Serialize};

/// A natural-deduction proof tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Proof {
    /// Leaf: the formula is supplied as a credential (label) or as an
    /// authority-validated statement.
    Assume(Formula),
    /// Leaf: hypothesis introduced by an enclosing `ImpliesIntro`,
    /// `NotIntro`, or `OrElim`.
    Hypo(Formula),
    /// `⊢ true`.
    TrueIntro,
    /// From `⊢ a` and `⊢ b`, conclude `⊢ a ∧ b`.
    AndIntro(Box<Proof>, Box<Proof>),
    /// From `⊢ a ∧ b`, conclude `⊢ a`.
    AndElimL(Box<Proof>),
    /// From `⊢ a ∧ b`, conclude `⊢ b`.
    AndElimR(Box<Proof>),
    /// From `⊢ a`, conclude `⊢ a ∨ other`.
    OrIntroL(Box<Proof>, Formula),
    /// From `⊢ b`, conclude `⊢ other ∨ b`.
    OrIntroR(Formula, Box<Proof>),
    /// Case analysis: from `⊢ a ∨ b`, a proof of the goal under
    /// hypothesis `a`, and a proof under hypothesis `b`, conclude the
    /// goal. Constructive disjunction elimination.
    OrElim {
        /// Proof of the disjunction.
        disj: Box<Proof>,
        /// Hypothesis for the left branch (must match the left disjunct).
        left_hypo: Formula,
        /// Proof of the goal under `left_hypo`.
        left: Box<Proof>,
        /// Hypothesis for the right branch.
        right_hypo: Formula,
        /// Proof of the goal under `right_hypo`.
        right: Box<Proof>,
    },
    /// Hypothetical reasoning: from a proof of `q` under hypothesis
    /// `hypo`, conclude `⊢ hypo → q`.
    ImpliesIntro {
        /// The hypothesis being discharged.
        hypo: Formula,
        /// Proof of the consequent under the hypothesis.
        body: Box<Proof>,
    },
    /// Modus ponens: from `⊢ a → b` and `⊢ a`, conclude `⊢ b`.
    /// Also applies when the first premise is `¬a` (≡ `a → false`).
    ImpliesElim(Box<Proof>, Box<Proof>),
    /// Negation introduction: from a proof of `false` under hypothesis
    /// `hypo`, conclude `⊢ ¬hypo`.
    NotIntro {
        /// The hypothesis being refuted.
        hypo: Formula,
        /// Proof of `false` under the hypothesis.
        body: Box<Proof>,
    },
    /// Ex falso quodlibet: from `⊢ false`, conclude any (ground) goal.
    /// Constructively valid; locality is preserved because `false` can
    /// only be derived inside a worldview that already believes it.
    FalseElim(Box<Proof>, Formula),
    /// Double-negation *introduction* (`p ⊢ ¬¬p`). The converse —
    /// elimination — is classical and deliberately absent.
    DoubleNegIntro(Box<Proof>),
    /// Decide a comparison between ground literal terms by evaluation,
    /// e.g. `⊢ 5 < 7`.
    CmpEval(CmpOp, Term, Term),
    /// CDD `unit`: from `⊢ p`, conclude `⊢ P says p` — anything true
    /// is in every principal's worldview.
    SaysIntro(Principal, Box<Proof>),
    /// Modal K / monadic bind: from `⊢ P says (a → b)` and
    /// `⊢ P says a`, conclude `⊢ P says b`. All deduction stays local
    /// to `P`'s worldview.
    SaysApp(Box<Proof>, Box<Proof>),
    /// Delegation: from `⊢ A speaksfor B [on σ]` and `⊢ A says S`,
    /// conclude `⊢ B says S` (subject to the scope check when σ is
    /// present).
    SpeaksForElim(Box<Proof>, Box<Proof>),
    /// Axiom: `⊢ A speaksfor A.τ` — a principal speaks for its
    /// subprincipals.
    SubPrin(Principal, String),
    /// Axiom: `⊢ A speaksfor A`.
    SpeaksForRefl(Principal),
    /// Transitivity: from `⊢ A speaksfor B [on σ₁]` and
    /// `⊢ B speaksfor C [on σ₂]`, conclude `⊢ A speaksfor C [on σ₁∩σ₂]`.
    SpeaksForTrans(Box<Proof>, Box<Proof>),
    /// Handoff (Taos lineage): from `⊢ B says (A speaksfor B [on σ])`,
    /// conclude `⊢ A speaksfor B [on σ]` — a principal may delegate
    /// its own authority. This is how Nexus resource managers pass
    /// object ownership: `FS says /proc/ipd/6 speaksfor FS./dir/file`
    /// (§2.6).
    Handoff(Box<Proof>),
}

impl Proof {
    /// Leaf assumption.
    pub fn assume(f: Formula) -> Proof {
        Proof::Assume(f)
    }

    /// Number of nodes in the proof tree.
    pub fn size(&self) -> usize {
        match self {
            Proof::Assume(_)
            | Proof::Hypo(_)
            | Proof::TrueIntro
            | Proof::CmpEval(..)
            | Proof::SubPrin(..)
            | Proof::SpeaksForRefl(_) => 1,
            Proof::AndElimL(p)
            | Proof::AndElimR(p)
            | Proof::OrIntroL(p, _)
            | Proof::OrIntroR(_, p)
            | Proof::ImpliesIntro { body: p, .. }
            | Proof::NotIntro { body: p, .. }
            | Proof::FalseElim(p, _)
            | Proof::DoubleNegIntro(p)
            | Proof::SaysIntro(_, p)
            | Proof::Handoff(p) => 1 + p.size(),
            Proof::AndIntro(a, b)
            | Proof::ImpliesElim(a, b)
            | Proof::SaysApp(a, b)
            | Proof::SpeaksForElim(a, b)
            | Proof::SpeaksForTrans(a, b) => 1 + a.size() + b.size(),
            Proof::OrElim {
                disj, left, right, ..
            } => 1 + disj.size() + left.size() + right.size(),
        }
    }

    /// Number of inference-rule applications (non-leaf nodes). This is
    /// the "#rules" axis of Figure 5.
    pub fn rule_count(&self) -> usize {
        match self {
            Proof::Assume(_) | Proof::Hypo(_) => 0,
            _ => {
                let children = self.children();
                1 + children.iter().map(|c| c.rule_count()).sum::<usize>()
            }
        }
    }

    fn children(&self) -> Vec<&Proof> {
        match self {
            Proof::Assume(_)
            | Proof::Hypo(_)
            | Proof::TrueIntro
            | Proof::CmpEval(..)
            | Proof::SubPrin(..)
            | Proof::SpeaksForRefl(_) => vec![],
            Proof::AndElimL(p)
            | Proof::AndElimR(p)
            | Proof::OrIntroL(p, _)
            | Proof::OrIntroR(_, p)
            | Proof::ImpliesIntro { body: p, .. }
            | Proof::NotIntro { body: p, .. }
            | Proof::FalseElim(p, _)
            | Proof::DoubleNegIntro(p)
            | Proof::SaysIntro(_, p)
            | Proof::Handoff(p) => vec![p],
            Proof::AndIntro(a, b)
            | Proof::ImpliesElim(a, b)
            | Proof::SaysApp(a, b)
            | Proof::SpeaksForElim(a, b)
            | Proof::SpeaksForTrans(a, b) => vec![a, b],
            Proof::OrElim {
                disj, left, right, ..
            } => vec![disj, left, right],
        }
    }

    /// All `Assume` leaves, in left-to-right order. The guard uses
    /// these to (1) verify every leaf against the supplied credentials
    /// or a designated authority and (2) decide cacheability: a proof
    /// whose leaves are all indefinitely-valid labels may be cached,
    /// one with authority-backed leaves may not (§2.8).
    pub fn leaves(&self) -> Vec<&Formula> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves<'a>(&'a self, out: &mut Vec<&'a Formula>) {
        match self {
            Proof::Assume(f) => out.push(f),
            _ => {
                for c in self.children() {
                    c.collect_leaves(out);
                }
            }
        }
    }

    /// The name of the rule at the root (for audit rendering).
    pub fn rule_name(&self) -> &'static str {
        match self {
            Proof::Assume(_) => "assume",
            Proof::Hypo(_) => "hypothesis",
            Proof::TrueIntro => "true-intro",
            Proof::AndIntro(..) => "and-intro",
            Proof::AndElimL(_) => "and-elim-left",
            Proof::AndElimR(_) => "and-elim-right",
            Proof::OrIntroL(..) => "or-intro-left",
            Proof::OrIntroR(..) => "or-intro-right",
            Proof::OrElim { .. } => "or-elim",
            Proof::ImpliesIntro { .. } => "implies-intro",
            Proof::ImpliesElim(..) => "implies-elim",
            Proof::NotIntro { .. } => "not-intro",
            Proof::FalseElim(..) => "false-elim",
            Proof::DoubleNegIntro(_) => "double-neg-intro",
            Proof::CmpEval(..) => "cmp-eval",
            Proof::SaysIntro(..) => "says-intro",
            Proof::SaysApp(..) => "says-app",
            Proof::SpeaksForElim(..) => "speaksfor-elim",
            Proof::SubPrin(..) => "subprincipal",
            Proof::SpeaksForRefl(_) => "speaksfor-refl",
            Proof::SpeaksForTrans(..) => "speaksfor-trans",
            Proof::Handoff(_) => "handoff",
        }
    }

    /// Render the derivation as an indented audit trail. Each line
    /// shows a rule name; leaves show the assumed formula. Credentials
    /// are self-documenting (§2): this rendering is what gets logged.
    pub fn render_audit(&self) -> String {
        let mut out = String::new();
        self.render(0, &mut out);
        out
    }

    fn render(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            Proof::Assume(f) => out.push_str(&format!("assume: {f}\n")),
            Proof::Hypo(f) => out.push_str(&format!("hypothesis: {f}\n")),
            Proof::CmpEval(op, a, b) => {
                out.push_str(&format!("evaluate: {a} {} {b}\n", op.symbol()))
            }
            Proof::SubPrin(p, c) => out.push_str(&format!("axiom: {p} speaksfor {p}.{c}\n")),
            Proof::SpeaksForRefl(p) => out.push_str(&format!("axiom: {p} speaksfor {p}\n")),
            other => {
                out.push_str(other.rule_name());
                out.push('\n');
                for c in other.children() {
                    c.render(depth + 1, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn sizes_and_rule_counts() {
        let f = parse("A says p").unwrap();
        let leaf = Proof::assume(f);
        assert_eq!(leaf.size(), 1);
        assert_eq!(leaf.rule_count(), 0);

        let pair = Proof::AndIntro(Box::new(leaf.clone()), Box::new(leaf.clone()));
        assert_eq!(pair.size(), 3);
        assert_eq!(pair.rule_count(), 1);

        let nested = Proof::DoubleNegIntro(Box::new(pair));
        assert_eq!(nested.rule_count(), 2);
    }

    #[test]
    fn leaves_collects_in_order() {
        let a = parse("A says p").unwrap();
        let b = parse("B says q").unwrap();
        let proof = Proof::AndIntro(
            Box::new(Proof::assume(a.clone())),
            Box::new(Proof::assume(b.clone())),
        );
        let leaves = proof.leaves();
        assert_eq!(leaves, vec![&a, &b]);
    }

    #[test]
    fn hypo_is_not_a_credential_leaf() {
        let a = parse("p").unwrap();
        let proof = Proof::ImpliesIntro {
            hypo: a.clone(),
            body: Box::new(Proof::Hypo(a)),
        };
        assert!(proof.leaves().is_empty());
    }

    #[test]
    fn audit_rendering_mentions_assumptions() {
        let a = parse("NTP says TimeNow < 20110319").unwrap();
        let proof = Proof::assume(a);
        let audit = proof.render_audit();
        assert!(audit.contains("assume: NTP says TimeNow < 20110319"));
    }

    #[test]
    fn serde_round_trip() {
        let f = parse("A speaksfor B on TimeNow").unwrap();
        let proof = Proof::SpeaksForElim(
            Box::new(Proof::assume(f)),
            Box::new(Proof::assume(parse("A says TimeNow < 5").unwrap())),
        );
        let json = serde_json::to_string(&proof).unwrap();
        let back: Proof = serde_json::from_str(&json).unwrap();
        assert_eq!(proof, back);
    }
}
