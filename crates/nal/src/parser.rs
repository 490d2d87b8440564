//! Recursive-descent parser for NAL concrete syntax.
//!
//! The grammar is given in the crate docs. The parser is total over the
//! token stream (no backtracking blow-ups) and produces the same AST
//! that the pretty-printer consumes, so `parse(f.to_string()) == f` for
//! all formulas (see the proptest in this module).
//!
//! NAL text arrives from outside (a `say`, a certificate, a replicated
//! mint), so the parser also bounds what it builds: nothing nests
//! deeper than `MAX_NESTING` (128 levels, defined beside
//! `check::MAX_PROOF_NODES`) — neither the descent itself nor the
//! tree it returns, which everything downstream (`normalize`,
//! `Display`, `Drop`) walks recursively.

use crate::check::MAX_NESTING;
use crate::error::ParseError;
use crate::formula::{CmpOp, Formula};
use crate::lexer::{tokenize, Spanned, Token};
use crate::principal::Principal;
use crate::term::Term;

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Levels of tree above the construct being parsed.
    depth: usize,
    /// Deepest level anything reached since the innermost open chain
    /// began (see [`Parser::chain`]); never below `depth`.
    deepest: usize,
    /// Parentheses currently open. They add no level to the tree, only
    /// to the descent, and the printer wraps a node at most once — so
    /// they get a budget of their own, and whatever parses re-parses
    /// from its printed form.
    parens: usize,
}

impl Parser {
    /// Parse all of `input` (a `what`, for the error) with `f`.
    fn run<T>(
        input: &str,
        what: &str,
        f: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let tokens = tokenize(input)?;
        if tokens.is_empty() {
            return Err(ParseError::new(0, "empty input"));
        }
        let mut p = Parser {
            tokens,
            pos: 0,
            depth: 0,
            deepest: 0,
            parens: 0,
        };
        let parsed = f(&mut p)?;
        if p.pos != p.tokens.len() {
            return Err(p.err(format!("trailing input after {what}")));
        }
        Ok(parsed)
    }

    /// `level`, if the bound allows it.
    fn within_bound(&self, level: usize) -> Result<usize, ParseError> {
        if level > MAX_NESTING {
            return Err(self.err(format!("nested deeper than {MAX_NESTING} levels")));
        }
        Ok(level)
    }

    /// Parse with `f` one level down: the body of a `not` or a `says`,
    /// the right of a `->`, an argument.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.depth = self.within_bound(self.depth + 1)?;
        self.deepest = self.deepest.max(self.depth);
        let parsed = f(self);
        self.depth -= 1;
        parsed
    }

    /// Parse a left-associative chain `operand (op operand)*`. The
    /// descent does not deepen along a chain, but the tree does: every
    /// link pushes all operands so far one level down. So a chain is
    /// charged its links on top of the deepest point any operand
    /// reached, and reports that sum to whatever encloses it.
    fn chain(
        &mut self,
        op: &Token,
        operand: fn(&mut Self) -> Result<Formula, ParseError>,
        join: fn(Formula, Formula) -> Formula,
    ) -> Result<Formula, ParseError> {
        let outside = std::mem::replace(&mut self.deepest, self.depth);
        let mut lhs = operand(self)?;
        let mut links = 0;
        while self.peek() == Some(op) {
            self.pos += 1;
            links += 1;
            let rhs = operand(self)?;
            self.within_bound(self.deepest + links)?;
            lhs = join(lhs, rhs);
        }
        self.deepest = outside.max(self.deepest + links);
        Ok(lhs)
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|s| s.offset)
            .unwrap_or_else(|| self.tokens.last().map(|s| s.offset + 1).unwrap_or(0))
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Token, what: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == want => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.err(format!("expected {what}"))),
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.offset(), msg)
    }

    // formula := implies
    fn formula(&mut self) -> Result<Formula, ParseError> {
        self.implies()
    }

    fn implies(&mut self) -> Result<Formula, ParseError> {
        let lhs = self.or()?;
        if matches!(self.peek(), Some(Token::Implies)) {
            self.pos += 1;
            let rhs = self.nested(Self::implies)?;
            Ok(lhs.implies(rhs))
        } else {
            Ok(lhs)
        }
    }

    fn or(&mut self) -> Result<Formula, ParseError> {
        self.chain(&Token::Or, Self::and, Formula::or)
    }

    fn and(&mut self) -> Result<Formula, ParseError> {
        self.chain(&Token::And, Self::unary, Formula::and)
    }

    // unary := NOT unary | TRUE | FALSE | "(" formula ")" | statement
    fn unary(&mut self) -> Result<Formula, ParseError> {
        match self.peek() {
            Some(Token::Not) => {
                self.pos += 1;
                Ok(self.nested(Self::unary)?.not())
            }
            Some(Token::True) => {
                self.pos += 1;
                Ok(Formula::True)
            }
            Some(Token::False) => {
                self.pos += 1;
                Ok(Formula::False)
            }
            Some(Token::LParen) => {
                self.pos += 1;
                self.parens = self.within_bound(self.parens + 1)?;
                let f = self.formula()?;
                self.parens -= 1;
                self.expect(&Token::RParen, "')'")?;
                Ok(f)
            }
            Some(_) => self.statement(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    // statement := term (says | speaksfor | cmp | <bare predicate>)
    fn statement(&mut self) -> Result<Formula, ParseError> {
        let t = self.term()?;
        match self.peek() {
            Some(Token::Says) => {
                self.pos += 1;
                let p = term_to_principal(&t).ok_or_else(|| {
                    self.err(format!("'{t}' cannot be a principal before 'says'"))
                })?;
                let body = self.nested(Self::unary)?;
                Ok(body.says(p))
            }
            Some(Token::SpeaksFor) => {
                self.pos += 1;
                let from = term_to_principal(&t).ok_or_else(|| {
                    self.err(format!("'{t}' cannot be a principal before 'speaksfor'"))
                })?;
                let to_term = self.term()?;
                let to = term_to_principal(&to_term).ok_or_else(|| {
                    self.err(format!(
                        "'{to_term}' cannot be a principal after 'speaksfor'"
                    ))
                })?;
                if matches!(self.peek(), Some(Token::On)) {
                    self.pos += 1;
                    let mut scope = Vec::new();
                    while let Some(Token::Ident(name)) = self.peek() {
                        scope.push(name.clone());
                        self.pos += 1;
                    }
                    if scope.is_empty() {
                        return Err(self.err("expected scope identifiers after 'on'"));
                    }
                    Ok(Formula::speaksfor_on(from, to, scope))
                } else {
                    Ok(Formula::speaksfor(from, to))
                }
            }
            Some(op @ (Token::Lt | Token::Le | Token::Eq | Token::Ne | Token::Ge | Token::Gt)) => {
                let op = match op {
                    Token::Lt => CmpOp::Lt,
                    Token::Le => CmpOp::Le,
                    Token::Eq => CmpOp::Eq,
                    Token::Ne => CmpOp::Ne,
                    Token::Ge => CmpOp::Ge,
                    _ => CmpOp::Gt,
                };
                self.pos += 1;
                let rhs = self.term()?;
                Ok(Formula::cmp(op, t, rhs))
            }
            _ => {
                // Bare predicate.
                match t {
                    Term::App(f, args) => Ok(Formula::Pred(f, args)),
                    Term::Sym(s) => Ok(Formula::Pred(s, vec![])),
                    other => Err(self.err(format!("'{other}' is not a formula"))),
                }
            }
        }
    }

    // term := literal | var | key | path | ident [ "(" args ")" ] | principal-chain
    fn term(&mut self) -> Result<Term, ParseError> {
        let tok = self
            .next()
            .ok_or_else(|| ParseError::new(0, "unexpected end of input in term"))?;
        let base: Term = match tok {
            Token::Int(i) => return Ok(Term::Int(i)),
            Token::Str(s) => return Ok(Term::Str(s)),
            Token::Var(v) => Term::Var(v),
            Token::Key(k) => Term::Prin(Principal::Key(k)),
            Token::Path(p) => Term::Sym(p),
            Token::Ident(name) => {
                if matches!(self.peek(), Some(Token::LParen)) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if !matches!(self.peek(), Some(Token::RParen)) {
                        loop {
                            args.push(self.nested(Self::term)?);
                            match self.peek() {
                                Some(Token::Comma) => {
                                    self.pos += 1;
                                }
                                _ => break,
                            }
                        }
                    }
                    self.expect(&Token::RParen, "')' closing argument list")?;
                    return Ok(Term::App(name, args));
                }
                Term::Sym(name)
            }
            other => {
                return Err(self.err(format!("unexpected token {other:?} in term")));
            }
        };
        // Subprincipal chain: base.comp.comp…
        if matches!(self.peek(), Some(Token::Dot)) {
            let mut p = term_to_principal(&base)
                .ok_or_else(|| self.err(format!("'{base}' cannot start a principal chain")))?;
            let mut links = 0;
            while matches!(self.peek(), Some(Token::Dot)) {
                // A subprincipal chain is left-deep too (a tree of its
                // own, so no enclosing chain is charged for it).
                links += 1;
                self.within_bound(self.depth + links)?;
                self.pos += 1;
                let comp = match self.next() {
                    Some(Token::Ident(c)) => c,
                    Some(Token::Path(c)) => c,
                    Some(Token::Int(i)) => i.to_string(),
                    _ => return Err(self.err("expected subprincipal component after '.'")),
                };
                p = p.sub(comp);
            }
            return Ok(Term::Prin(p));
        }
        Ok(base)
    }
}

/// Interpret a term as a principal where sensible.
pub(crate) fn term_to_principal(t: &Term) -> Option<Principal> {
    match t {
        Term::Sym(s) | Term::Str(s) => Some(Principal::Name(s.clone())),
        Term::Var(v) => Some(Principal::Var(v.clone())),
        Term::Prin(p) => Some(p.clone()),
        _ => None,
    }
}

/// Parse a NAL formula from its concrete syntax.
pub fn parse(input: &str) -> Result<Formula, ParseError> {
    Parser::run(input, "formula", Parser::formula)
}

/// Parse a principal expression (e.g. `NK.labelstore./proc/ipd/12`).
pub fn parse_principal(input: &str) -> Result<Principal, ParseError> {
    let t = Parser::run(input, "principal", Parser::term)?;
    term_to_principal(&t).ok_or_else(|| ParseError::new(0, format!("'{t}' is not a principal")))
}

/// Parse a term.
pub fn parse_term(input: &str) -> Result<Term, ParseError> {
    Parser::run(input, "term", Parser::term)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula;

    fn roundtrip(s: &str) {
        let f = parse(s).unwrap();
        let printed = f.to_string();
        let f2 = parse(&printed).unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
        assert_eq!(f, f2, "round-trip mismatch for {s:?} -> {printed:?}");
    }

    #[test]
    fn paper_examples_parse() {
        for s in [
            "TypeChecker says isTypeSafe(PGM)",
            "Company says isTrustworthy(Client) and Nexus says /proc/ipd/12 speaksfor Client",
            "Nexus says /proc/ipd/30 speaksfor IPCAnalyzer",
            "/proc/ipd/30 says not hasPath(/proc/ipd/12, Filesystem)",
            "Server says NTP speaksfor Server on TimeNow",
            "Owner says TimeNow < 20110319",
            "Filesystem says NTP speaksfor Filesystem on TimeNow and NTP says TimeNow < 20110319",
            "$X says openFile(filename) and SafetyCertifier says safe($X)",
            "A says Valid(S) -> S",
            "FS says /proc/ipd/6 speaksfor FS./dir/file",
            "name.webserver says user = alice",
            "name.python says inFriends(alice, bob)",
        ] {
            roundtrip(s);
        }
    }

    #[test]
    fn precedence_and_over_or() {
        let f = parse("a and b or c and d").unwrap();
        match f {
            Formula::Or(l, r) => {
                assert!(matches!(*l, Formula::And(..)));
                assert!(matches!(*r, Formula::And(..)));
            }
            other => panic!("expected Or at top, got {other:?}"),
        }
    }

    #[test]
    fn implies_is_right_associative_and_lowest() {
        let f = parse("a -> b -> c").unwrap();
        match f {
            Formula::Implies(_, r) => assert!(matches!(*r, Formula::Implies(..))),
            other => panic!("{other:?}"),
        }
        let g = parse("a and b -> c").unwrap();
        assert!(matches!(g, Formula::Implies(..)));
    }

    #[test]
    fn says_is_right_associative() {
        let f = parse("A says B says p").unwrap();
        assert_eq!(f.to_string(), "A says B says p");
        if let Formula::Says(a, inner) = &f {
            assert_eq!(a, &Principal::name("A"));
            assert!(matches!(inner.as_ref(), Formula::Says(..)));
        } else {
            panic!();
        }
    }

    #[test]
    fn says_scopes_tighter_than_and() {
        let f = parse("A says p and B says q").unwrap();
        assert!(matches!(f, Formula::And(..)));
    }

    #[test]
    fn says_with_parenthesized_body() {
        let f = parse("A says (p and q)").unwrap();
        if let Formula::Says(_, body) = &f {
            assert!(matches!(body.as_ref(), Formula::And(..)));
        } else {
            panic!();
        }
        roundtrip("A says (p and q)");
    }

    #[test]
    fn negation_inside_says() {
        let f = parse("/proc/ipd/30 says not hasPath(/proc/ipd/12, Nameserver)").unwrap();
        if let Formula::Says(p, body) = &f {
            assert_eq!(p, &Principal::name("/proc/ipd/30"));
            assert!(matches!(body.as_ref(), Formula::Not(..)));
        } else {
            panic!();
        }
    }

    #[test]
    fn subprincipals_parse() {
        let p = parse_principal("HW.kernel.process23").unwrap();
        assert_eq!(p.depth(), 2);
        let q = parse_principal("FS./dir/file").unwrap();
        assert_eq!(q, Principal::name("FS").sub("/dir/file"));
        let r = parse_principal("key:ab12.labelstore").unwrap();
        assert_eq!(r, Principal::key("ab12").sub("labelstore"));
    }

    #[test]
    fn comparison_forms() {
        roundtrip("TimeNow < 20110319");
        roundtrip("x <= 5");
        roundtrip("user = alice");
        roundtrip("a != b");
        roundtrip("quota(alice) >= 80");
        let f = parse("quota(alice) < 80").unwrap();
        assert!(matches!(
            f,
            Formula::Cmp(CmpOp::Lt, Term::App(..), Term::Int(80))
        ));
    }

    #[test]
    fn scoped_delegation_multi() {
        let f = parse("A speaksfor B on TimeNow TimeZone").unwrap();
        if let Formula::SpeaksFor { scope: Some(s), .. } = &f {
            assert_eq!(s.len(), 2);
        } else {
            panic!();
        }
        roundtrip("A speaksfor B on TimeNow TimeZone");
    }

    #[test]
    fn errors_reported() {
        assert!(parse("").is_err());
        assert!(parse("and").is_err());
        assert!(parse("a says").is_err());
        assert!(parse("a speaksfor").is_err());
        assert!(parse("(a").is_err());
        assert!(parse("a b").is_err());
        assert!(parse("5 says x").is_err());
        assert!(parse("a speaksfor b on").is_err());
        assert!(parse("f(a,").is_err());
    }

    /// Run `f` on a thread with the 2 MiB stack a test (or a small
    /// service thread) gets, whatever the harness was started with.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap();
    }

    /// `open` × n, a leaf, `close` × n.
    fn wrapped(open: &str, n: usize, leaf: &str, close: &str) -> String {
        format!("{}{leaf}{}", open.repeat(n), close.repeat(n))
    }

    #[test]
    fn hostile_nesting_is_refused_not_descended() {
        on_small_stack(|| {
            const N: usize = 10_000;
            for hostile in [
                wrapped("(", N, "p", ")"),
                wrapped("not ", N, "p", ""),
                wrapped("A says ", N, "p", ""),
                wrapped("p -> ", N, "p", ""),
                wrapped("f(", N, "x", ")"),
                wrapped("", N, "p", " and p"),
                wrapped("", N, "p", " or p"),
            ] {
                let err = parse(&hostile).unwrap_err();
                assert!(err.message.contains("nested deeper"), "{err}");
            }
            assert!(parse_term(&wrapped("f(", N, "x", ")")).is_err());
            assert!(parse_principal(&wrapped("", N, "a", ".b")).is_err());
            // The error points at where the bound was crossed.
            let err = parse(&wrapped("(", N, "p", ")")).unwrap_err();
            assert_eq!(err.offset, MAX_NESTING + 1);
        });
    }

    #[test]
    fn nesting_up_to_the_bound_round_trips() {
        on_small_stack(|| {
            for (open, leaf, close) in [
                ("(", "p", ")"),
                ("not ", "p", ""),
                ("A says ", "p", ""),
                ("p -> ", "p", ""),
                ("f(", "x", ")"),
                ("", "p", " and p"),
                ("", "p", " or p"),
            ] {
                roundtrip(&wrapped(open, MAX_NESTING, leaf, close));
                assert!(parse(&wrapped(open, MAX_NESTING + 1, leaf, close)).is_err());
            }
            let chain = wrapped("", MAX_NESTING, "a", ".b");
            assert_eq!(parse_principal(&chain).unwrap().depth(), MAX_NESTING);
            assert!(parse_principal(&wrapped("", MAX_NESTING + 1, "a", ".b")).is_err());
        });
    }

    #[test]
    fn a_chain_is_charged_for_pushing_its_operands_down() {
        // Each level of `(… and a × 11)` only opens a parenthesis on
        // the way down, but deepens the tree by eleven: eleven levels
        // (121) fit under the bound, twelve (132) do not.
        let levels = |n: usize| {
            (0..n).fold("p".to_string(), |inner, _| {
                format!("({inner}{})", " and a".repeat(11))
            })
        };
        roundtrip(&levels(11));
        assert!(parse(&levels(12)).is_err());
    }

    #[test]
    fn string_and_int_terms() {
        roundtrip("openFile(\"/etc/passwd\")");
        roundtrip("count = 42");
        roundtrip("temp = -3");
    }

    #[test]
    fn unicode_syntax_accepted() {
        let f = parse("A says p ∧ B says ¬q").unwrap();
        assert!(matches!(f, Formula::And(..)));
        let g = parse("A says Valid(S) ⇒ S").unwrap();
        assert!(matches!(g, Formula::Implies(..)));
    }

    #[test]
    fn variables_in_goals() {
        let f = parse("$X says openFile($F)").unwrap();
        assert_eq!(f.vars(), vec!["X", "F"]);
    }
}
