//! # Nexus Authorization Logic (NAL)
//!
//! A constructive logic of belief used by the Nexus operating system's
//! *logical attestation* architecture (Sirer et al., SOSP 2011).
//!
//! NAL formulas attribute statements to principals. The central modality
//! is `P says S` — "S is in the worldview of P". Delegation between
//! principals is expressed with `A speaksfor B` (optionally scoped with
//! an `on` modifier). Because the logic is constructive, proofs carry an
//! audit trail: every conclusion can be traced back to the credentials
//! (labels) and tautologies it was derived from, and no classical
//! shortcuts (double-negation elimination, excluded middle) are
//! admitted.
//!
//! The crate provides:
//!
//! * [`Principal`], [`Term`], [`Formula`] — the abstract syntax,
//! * [`parse`] / `Formula::to_string` — a round-trippable concrete
//!   syntax used by the `say` system call,
//! * [`Proof`] — explicit derivation trees,
//! * [`check`](check::check) — a linear-time proof checker (guards run
//!   this; proof *search* is undecidable and therefore the client's
//!   job), and [`Checked`] — the witness that a proof passed it over
//!   its own leaves, so that only leaf membership is asked again,
//! * [`CredSet`] / [`Creds`] — a credential set prepared once per
//!   change (normalised, keyed, sorted) and the layered view prover
//!   and guard probe,
//! * [`search`](search::prove) — a bounded backward-chaining prover that
//!   clients use to assemble proofs from their credentials; its
//!   [`ProofSearch`] session form memoizes proved/refuted subgoals so
//!   coalesced batches share one search frontier,
//! * [`Worldview`] — a semantic model used to
//!   cross-validate the checker in tests.
//!
//! ## Concrete syntax
//!
//! ```text
//! formula  := implies
//! implies  := or ( ("->" | "=>" | "implies") implies )?
//! or       := and ( ("or" | "∨") and )*
//! and      := says ( ("and" | "∧") says )*
//! says     := principal "says" says
//!           | principal "speaksfor" principal ( "on" ident+ )?
//!           | ("not" | "¬") says
//!           | atom
//! atom     := "(" formula ")" | "true" | "false"
//!           | ident "(" term,* ")" | ident
//!           | term cmpop term
//! principal:= base ( "." component )*        base, component := ident | path | $var
//! term     := int | "string" | ident | path | $var | ident "(" term,* ")"
//! ```
//!
//! Examples straight from the paper all parse:
//!
//! ```
//! use nexus_nal::parse;
//! parse("TypeChecker says isTypeSafe(PGM)").unwrap();
//! parse("Nexus says /proc/ipd/30 speaksfor IPCAnalyzer").unwrap();
//! parse("/proc/ipd/30 says not hasPath(/proc/ipd/12, Filesystem)").unwrap();
//! parse("Server says NTP speaksfor Server on TimeNow").unwrap();
//! parse("NTP says TimeNow < 20110319").unwrap();
//! parse("A says Valid(S) -> S").unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod creds;
pub mod error;
pub mod formula;
pub mod lexer;
pub mod parser;
pub mod principal;
pub mod proof;
pub mod search;
pub mod subst;
pub mod term;
pub mod worldview;

pub use check::{check, check_own_leaves, normalize, Assumptions, Checked, Leaf};
pub use creds::{credential_fingerprint, normal_key, CredSet, Creds};
pub use error::{CheckError, ParseError};
pub use formula::{CmpOp, Formula};
pub use parser::{parse, parse_principal, parse_term};
pub use principal::Principal;
pub use proof::Proof;
pub use search::{
    prove, BatchGoal, PreparedGoal, ProofSearch, ProveOutcome, ProverConfig, SearchStats,
};
pub use subst::Subst;
pub use term::Term;
pub use worldview::Worldview;
