//! Terms: the first-order objects NAL predicates range over.
//!
//! The Nexus imposes no semantic restrictions on terms (§2.2): labeling
//! functions introduce their own predicates and symbols, and principals
//! that import a label are presumed to understand its vocabulary.

use crate::principal::Principal;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A NAL term.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Term {
    /// Integer literal (also used for dates encoded as `yyyymmdd` and
    /// for counters, quotas, etc.).
    Int(i64),
    /// String literal.
    Str(String),
    /// Uninterpreted symbol, e.g. `PGM`, `Mar19`, `Filesystem`,
    /// `/proc/ipd/12`. Symbols compare by name only.
    Sym(String),
    /// Goal variable (`$X`), instantiated by the guard.
    Var(String),
    /// A principal used in term position (so predicates can talk about
    /// principals, e.g. `hasPath(/proc/ipd/12, Filesystem)` where the
    /// arguments name processes).
    Prin(Principal),
    /// Function application, e.g. `hash(PGM)` or `quota(alice)`.
    App(String, Vec<Term>),
}

impl Term {
    /// Integer literal.
    pub fn int(i: i64) -> Self {
        Term::Int(i)
    }

    /// String literal.
    pub fn str(s: impl Into<String>) -> Self {
        Term::Str(s.into())
    }

    /// Uninterpreted symbol.
    pub fn sym(s: impl Into<String>) -> Self {
        Term::Sym(s.into())
    }

    /// Goal variable.
    pub fn var(v: impl Into<String>) -> Self {
        Term::Var(v.into())
    }

    /// Function application.
    pub fn app(f: impl Into<String>, args: Vec<Term>) -> Self {
        Term::App(f.into(), args)
    }

    /// True if the term contains no variables (in term or principal
    /// position).
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Int(_) | Term::Str(_) | Term::Sym(_) => true,
            Term::Var(_) => false,
            Term::Prin(p) => !p.has_var(),
            Term::App(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// Collect variable names into `out`.
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Term::Var(v) => out.push(v.clone()),
            Term::Prin(p) => p.collect_vars(out),
            Term::App(_, args) => args.iter().for_each(|t| t.collect_vars(out)),
            _ => {}
        }
    }

    /// Canonical form: an atomic *named* principal in term position is
    /// indistinguishable from a symbol in the concrete syntax
    /// (`hasPath(/proc/ipd/12, Filesystem)` names processes with plain
    /// identifiers), so `Prin(Name(n))` collapses to `Sym(n)`. The
    /// checker normalizes terms with this before matching.
    pub fn canon(&self) -> Term {
        match self {
            Term::Prin(Principal::Name(n)) => Term::Sym(n.clone()),
            Term::App(f, args) => Term::App(f.clone(), args.iter().map(Term::canon).collect()),
            other => other.clone(),
        }
    }

    /// The "subject name" of a term: the identifier a scoped
    /// (`speaksfor … on`) delegation matches against. For symbols and
    /// applications this is the head name; other terms have none.
    pub fn subject_name(&self) -> Option<&str> {
        match self {
            Term::Sym(s) => Some(s),
            Term::App(f, _) => Some(f),
            Term::Prin(Principal::Name(n)) => Some(n),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Int(i) => write!(f, "{i}"),
            Term::Str(s) => write!(f, "{s:?}"),
            Term::Sym(s) => write!(f, "{s}"),
            Term::Var(v) => write!(f, "${v}"),
            Term::Prin(p) => write!(f, "{p}"),
            Term::App(func, args) => {
                write!(f, "{func}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<i64> for Term {
    fn from(i: i64) -> Self {
        Term::Int(i)
    }
}

impl From<Principal> for Term {
    fn from(p: Principal) -> Self {
        Term::Prin(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round() {
        assert_eq!(Term::int(42).to_string(), "42");
        assert_eq!(Term::str("hi").to_string(), "\"hi\"");
        assert_eq!(Term::sym("TimeNow").to_string(), "TimeNow");
        assert_eq!(Term::var("X").to_string(), "$X");
        assert_eq!(
            Term::app("hash", vec![Term::sym("PGM")]).to_string(),
            "hash(PGM)"
        );
    }

    #[test]
    fn groundness() {
        assert!(Term::int(1).is_ground());
        assert!(!Term::var("X").is_ground());
        assert!(!Term::app("f", vec![Term::var("X")]).is_ground());
        assert!(Term::app("f", vec![Term::int(1), Term::sym("a")]).is_ground());
        assert!(!Term::Prin(Principal::var("P")).is_ground());
    }

    #[test]
    fn subject_names() {
        assert_eq!(Term::sym("TimeNow").subject_name(), Some("TimeNow"));
        assert_eq!(
            Term::app("quota", vec![Term::sym("alice")]).subject_name(),
            Some("quota")
        );
        assert_eq!(Term::int(5).subject_name(), None);
    }

    #[test]
    fn var_collection() {
        let t = Term::app("f", vec![Term::var("X"), Term::Prin(Principal::var("Y"))]);
        let mut vars = Vec::new();
        t.collect_vars(&mut vars);
        assert_eq!(vars, vec!["X", "Y"]);
    }
}
