//! NAL formulas.
//!
//! Formulas are built from predicates and comparisons with the
//! connectives of constructive propositional logic plus two modal
//! forms: `P says S` (belief attribution) and `A speaksfor B [on σ]`
//! (delegation, optionally scoped to statements about the identifiers
//! in σ).

use crate::principal::Principal;
use crate::term::Term;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Comparison operators usable in atomic formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl CmpOp {
    /// Evaluate the comparison on two ordered values.
    pub fn eval<T: PartialOrd + PartialEq>(self, a: &T, b: &T) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Ge => a >= b,
            CmpOp::Gt => a > b,
        }
    }

    /// Concrete-syntax spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
        }
    }
}

/// A NAL formula.
///
/// `Not(p)` is constructively equivalent to `Implies(p, False)`; the
/// checker treats the two interchangeably (see
/// [`normalize`](crate::check::normalize)), but `Not` is kept as a
/// constructor so labels render the way the paper writes them
/// (`¬hasPath(/proc/ipd/12, Filesystem)`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Formula {
    /// Trivial truth.
    True,
    /// Absurdity. `A says False` poisons only A's worldview (deduction
    /// is local), never unrelated principals'.
    False,
    /// Application of an uninterpreted predicate, e.g.
    /// `isTypeSafe(PGM)`. A nullary predicate (`Valid`) is allowed.
    Pred(String, Vec<Term>),
    /// Comparison between two terms, e.g. `TimeNow < 20110319`.
    Cmp(CmpOp, Term, Term),
    /// Belief attribution: `P says S`.
    Says(Principal, Box<Formula>),
    /// Delegation: `A speaksfor B`, optionally restricted by scope
    /// (`on TimeNow`): only statements whose subject names all fall in
    /// the scope set transfer from A's worldview to B's.
    SpeaksFor {
        /// The delegate (the principal whose statements transfer).
        from: Principal,
        /// The delegator (the principal that gains the statements).
        to: Principal,
        /// Optional `on` scope: a set of subject identifiers.
        scope: Option<BTreeSet<String>>,
    },
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Implication (constructive).
    Implies(Box<Formula>, Box<Formula>),
    /// Negation; sugar for `Implies(_, False)`.
    Not(Box<Formula>),
}

impl Formula {
    /// Predicate application.
    pub fn pred(name: impl Into<String>, args: Vec<Term>) -> Self {
        Formula::Pred(name.into(), args)
    }

    /// Comparison.
    pub fn cmp(op: CmpOp, a: Term, b: Term) -> Self {
        Formula::Cmp(op, a, b)
    }

    /// `p says self`.
    pub fn says(self, p: Principal) -> Self {
        Formula::Says(p, Box::new(self))
    }

    /// Unscoped delegation `from speaksfor to`.
    pub fn speaksfor(from: Principal, to: Principal) -> Self {
        Formula::SpeaksFor {
            from,
            to,
            scope: None,
        }
    }

    /// Scoped delegation `from speaksfor to on scope`.
    pub fn speaksfor_on<I, S>(from: Principal, to: Principal, scope: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Formula::SpeaksFor {
            from,
            to,
            scope: Some(scope.into_iter().map(Into::into).collect()),
        }
    }

    /// `self ∧ other`.
    pub fn and(self, other: Formula) -> Self {
        Formula::And(Box::new(self), Box::new(other))
    }

    /// `self ∨ other`.
    pub fn or(self, other: Formula) -> Self {
        Formula::Or(Box::new(self), Box::new(other))
    }

    /// `self → other`.
    pub fn implies(self, other: Formula) -> Self {
        Formula::Implies(Box::new(self), Box::new(other))
    }

    /// `¬self`. (Deliberately shadows the `std::ops::Not` name: this
    /// is the formula constructor DSL, `!f` is not implemented.)
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Formula::Not(Box::new(self))
    }

    /// Flatten a conjunction tree into its conjuncts (a single
    /// non-conjunction formula yields itself).
    pub fn conjuncts(&self) -> Vec<&Formula> {
        let mut out = Vec::new();
        fn walk<'a>(f: &'a Formula, out: &mut Vec<&'a Formula>) {
            match f {
                Formula::And(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// True if the formula contains no goal variables: the walk
    /// [`Formula::vars`] makes, stopped at the first one and
    /// collecting nothing.
    pub fn is_ground(&self) -> bool {
        match self {
            Formula::True | Formula::False => true,
            Formula::Pred(_, args) => args.iter().all(Term::is_ground),
            Formula::Cmp(_, a, b) => a.is_ground() && b.is_ground(),
            Formula::Says(p, s) => !p.has_var() && s.is_ground(),
            Formula::SpeaksFor { from, to, .. } => !from.has_var() && !to.has_var(),
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                a.is_ground() && b.is_ground()
            }
            Formula::Not(a) => a.is_ground(),
        }
    }

    /// All goal-variable names occurring in the formula, in first-seen
    /// order without duplicates.
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        let mut seen = BTreeSet::new();
        out.retain(|v| seen.insert(v.clone()));
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Pred(_, args) => args.iter().for_each(|t| t.collect_vars(out)),
            Formula::Cmp(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Formula::Says(p, s) => {
                p.collect_vars(out);
                s.collect_vars(out);
            }
            Formula::SpeaksFor { from, to, .. } => {
                from.collect_vars(out);
                to.collect_vars(out);
            }
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Formula::Not(a) => a.collect_vars(out),
        }
    }

    /// Subject names of the statement, for scope (`on`) matching: the
    /// set of predicate heads and comparison left-hand subjects.
    /// A scoped delegation `A speaksfor B on σ` transfers statement S
    /// only if `S.subject_names() ⊆ σ` and S contains no nested
    /// delegation or belief attribution.
    pub fn subject_names(&self) -> Option<BTreeSet<String>> {
        let mut out = BTreeSet::new();
        if self.collect_subjects(&mut out) {
            Some(out)
        } else {
            None
        }
    }

    fn collect_subjects(&self, out: &mut BTreeSet<String>) -> bool {
        match self {
            Formula::True | Formula::False => true,
            Formula::Pred(name, _) => {
                out.insert(name.clone());
                true
            }
            Formula::Cmp(_, a, _) => {
                match a.subject_name() {
                    Some(n) => out.insert(n.to_string()),
                    // A comparison whose subject is anonymous (e.g.
                    // `3 < 5`) matches any scope.
                    None => true,
                };
                true
            }
            // Nested modalities never transfer through scoped
            // delegation: the scope mechanism is for restricting
            // first-order utterances (§2.1's NTP example).
            Formula::Says(..) | Formula::SpeaksFor { .. } => false,
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                a.collect_subjects(out) && b.collect_subjects(out)
            }
            Formula::Not(a) => a.collect_subjects(out),
        }
    }

    /// True if statement `self` falls within delegation scope `scope`.
    pub fn within_scope(&self, scope: &BTreeSet<String>) -> bool {
        match self.subject_names() {
            Some(subjects) => subjects.is_subset(scope),
            None => false,
        }
    }

    /// Size of the formula tree (number of constructors), used for
    /// cache accounting and prover bounds.
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Pred(..) | Formula::Cmp(..) => 1,
            Formula::Says(_, s) | Formula::Not(s) => 1 + s.size(),
            Formula::SpeaksFor { .. } => 1,
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                1 + a.size() + b.size()
            }
        }
    }
}

// Precedence levels for printing: implies(1) < or(2) < and(3) < says/not(4) < atom(5)
fn fmt_prec(f: &Formula, prec: u8, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    let my_prec = match f {
        Formula::Implies(..) => 1,
        Formula::Or(..) => 2,
        Formula::And(..) => 3,
        Formula::Says(..) | Formula::Not(..) | Formula::SpeaksFor { .. } => 4,
        _ => 5,
    };
    let need_paren = my_prec < prec;
    if need_paren {
        write!(out, "(")?;
    }
    match f {
        Formula::True => write!(out, "true")?,
        Formula::False => write!(out, "false")?,
        Formula::Pred(name, args) => {
            write!(out, "{name}")?;
            if !args.is_empty() {
                write!(out, "(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(out, ", ")?;
                    }
                    write!(out, "{a}")?;
                }
                write!(out, ")")?;
            }
        }
        Formula::Cmp(op, a, b) => write!(out, "{a} {} {b}", op.symbol())?,
        Formula::Says(p, s) => {
            write!(out, "{p} says ")?;
            fmt_prec(s, 4, out)?;
        }
        Formula::SpeaksFor { from, to, scope } => {
            write!(out, "{from} speaksfor {to}")?;
            if let Some(scope) = scope {
                write!(out, " on")?;
                for s in scope {
                    write!(out, " {s}")?;
                }
            }
        }
        // `and`/`or` parse left-associatively, so a right-nested
        // subtree must be parenthesized to round-trip.
        Formula::And(a, b) => {
            fmt_prec(a, 3, out)?;
            write!(out, " and ")?;
            fmt_prec(b, 4, out)?;
        }
        Formula::Or(a, b) => {
            fmt_prec(a, 2, out)?;
            write!(out, " or ")?;
            fmt_prec(b, 3, out)?;
        }
        Formula::Implies(a, b) => {
            fmt_prec(a, 2, out)?;
            write!(out, " -> ")?;
            fmt_prec(b, 1, out)?;
        }
        Formula::Not(a) => {
            write!(out, "not ")?;
            fmt_prec(a, 5, out)?;
        }
    }
    if need_paren {
        write!(out, ")")?;
    }
    Ok(())
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_prec(self, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: &str) -> Principal {
        Principal::name(n)
    }

    #[test]
    fn display_precedence() {
        let f = Formula::pred("a", vec![])
            .and(Formula::pred("b", vec![]))
            .or(Formula::pred("c", vec![]));
        assert_eq!(f.to_string(), "a and b or c");
        let g = Formula::pred("a", vec![])
            .and(Formula::pred("b", vec![]).or(Formula::pred("c", vec![])));
        assert_eq!(g.to_string(), "a and (b or c)");
    }

    #[test]
    fn says_binds_tighter_than_and() {
        let f = Formula::pred("s", vec![])
            .says(p("A"))
            .and(Formula::pred("t", vec![]).says(p("B")));
        assert_eq!(f.to_string(), "A says s and B says t");
    }

    #[test]
    fn nested_says_display() {
        let f = Formula::pred("s", vec![]).says(p("B")).says(p("A"));
        assert_eq!(f.to_string(), "A says B says s");
    }

    #[test]
    fn implies_display() {
        let f = Formula::pred("Valid", vec![Term::sym("S")])
            .says(p("A"))
            .implies(Formula::pred("S", vec![]));
        assert_eq!(f.to_string(), "A says Valid(S) -> S");
    }

    #[test]
    fn conjunct_flattening() {
        let f = Formula::pred("a", vec![])
            .and(Formula::pred("b", vec![]).and(Formula::pred("c", vec![])));
        assert_eq!(f.conjuncts().len(), 3);
    }

    #[test]
    fn scope_matching() {
        let stmt = Formula::cmp(CmpOp::Lt, Term::sym("TimeNow"), Term::int(20110319));
        let mut scope = BTreeSet::new();
        scope.insert("TimeNow".to_string());
        assert!(stmt.within_scope(&scope));

        let other = Formula::pred("isTypeSafe", vec![Term::sym("PGM")]);
        assert!(!other.within_scope(&scope));

        // Nested says never passes scope.
        let nested = stmt.clone().says(p("NTP"));
        assert!(!nested.within_scope(&scope));

        // Conjunction must be entirely within scope.
        let both = stmt.clone().and(other);
        assert!(!both.within_scope(&scope));
    }

    #[test]
    fn vars_and_groundness() {
        let f = Formula::pred("openFile", vec![Term::var("F")]).says(Principal::var("X"));
        assert_eq!(f.vars(), vec!["X", "F"]);
        assert!(!f.is_ground());
        assert!(Formula::True.is_ground());
    }

    #[test]
    fn groundness_is_the_absence_of_vars() {
        let var_term = Term::var("F");
        let var_prin = Principal::var("X");
        let atom = Formula::pred("a", vec![Term::sym("b")]);
        let cases = [
            Formula::True,
            Formula::False,
            atom.clone(),
            Formula::pred("openFile", vec![var_term.clone()]),
            Formula::pred(
                "f",
                vec![Term::app("g", vec![Term::int(1), var_term.clone()])],
            ),
            Formula::pred("f", vec![Term::Prin(p("A").sub("x"))]),
            Formula::pred("f", vec![Term::Prin(var_prin.clone().sub("x"))]),
            Formula::cmp(CmpOp::Lt, Term::sym("TimeNow"), Term::int(3)),
            Formula::cmp(CmpOp::Lt, Term::sym("TimeNow"), var_term.clone()),
            Formula::cmp(CmpOp::Eq, var_term.clone(), Term::str("s")),
            atom.clone().says(p("A")),
            atom.clone().says(var_prin.clone()),
            Formula::pred("openFile", vec![var_term.clone()]).says(var_prin.clone()),
            Formula::speaksfor(p("A"), p("B")),
            Formula::speaksfor(var_prin.clone(), p("B")),
            Formula::speaksfor_on(p("A"), var_prin.clone().sub("y"), ["TimeNow"]),
            atom.clone().and(atom.clone().says(var_prin.clone())),
            atom.clone().says(var_prin.clone()).or(atom.clone()),
            atom.clone()
                .implies(Formula::pred("g", vec![var_term.clone()])),
            atom.clone().implies(atom.clone()).not(),
            Formula::pred("g", vec![var_term]).not(),
        ];
        for f in &cases {
            assert_eq!(f.is_ground(), f.vars().is_empty(), "{f}");
        }
        assert_eq!(cases.iter().filter(|f| f.is_ground()).count(), 8);
    }

    #[test]
    fn size_counts_constructors() {
        let f = Formula::pred("a", vec![]).and(Formula::pred("b", vec![]).not());
        assert_eq!(f.size(), 4);
    }

    #[test]
    fn cmp_ops_eval() {
        assert!(CmpOp::Lt.eval(&1, &2));
        assert!(CmpOp::Le.eval(&2, &2));
        assert!(CmpOp::Eq.eval(&2, &2));
        assert!(CmpOp::Ne.eval(&1, &2));
        assert!(CmpOp::Ge.eval(&2, &2));
        assert!(CmpOp::Gt.eval(&3, &2));
        assert!(!CmpOp::Gt.eval(&2, &3));
    }

    #[test]
    fn scoped_speaksfor_display() {
        let f = Formula::speaksfor_on(p("NTP"), p("Server"), ["TimeNow"]);
        assert_eq!(f.to_string(), "NTP speaksfor Server on TimeNow");
    }
}
