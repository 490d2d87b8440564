//! Prepared credential sets.
//!
//! Everything the prover and a guard ask of a requester's credentials
//! — is this normal form held, under which spelling was it stated, do
//! two requesters hold the same set — is a question about *normal
//! forms*, and a credential's normal form changes only when the
//! credential does. So a set is prepared when it changes, not each
//! time it is asked: a [`CredSet`] is the immutable result — distinct
//! normal forms sorted by (64-bit key, formula), the keys beside them
//! — and the labelstore keeps one per label mutation behind an `Arc`.
//! A request adds its own utterances as a second, two-formula set; a
//! [`Creds`] view probes the two layers as one, so nothing the holder
//! prepared is copied or prepared again per request.
//!
//! One tree per credential: a credential's normal form *is* its
//! spelling unless it contains `not` or a non-canonical term, so a set
//! keeps the normal forms and, per stated credential, its position
//! among them plus its own spelling only where the two differ.
//!
//! A key narrows a probe, it never answers one: a match on the key is
//! always confirmed by `==` on the normal form, and two sets are "the
//! same" only when their normal forms are.

use crate::check::normalize;
use crate::formula::Formula;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The 64-bit key a normal form is held under: what a [`CredSet`] is
/// ordered by, what a [`Leaf`](crate::check::Leaf) carries so a probe
/// hashes nothing, and the per-label contribution to a labelstore's
/// shape. `DefaultHasher::new()` is keyed deterministically, so keys
/// are stable within a process — all they are ever compared against.
pub fn normal_key(normal: &Formula) -> u64 {
    let mut h = DefaultHasher::new();
    normal.hash(&mut h);
    h.finish()
}

/// One credential as it was stated.
#[derive(Debug, Clone)]
struct Stated {
    /// Where its normal form sits in the set.
    at: usize,
    /// Its own spelling, kept only when that is not its normal form.
    spelled: Option<Box<Formula>>,
}

/// A credential set, prepared once: see the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct CredSet {
    /// `keys[i]` is the key of `normal[i]`; ascending.
    keys: Vec<u64>,
    /// The distinct normal forms, sorted by (key, formula).
    normal: Vec<Formula>,
    /// Beside each normal form, the position (in `stated`) of the
    /// first credential stated with it: the spelling a proof assumes.
    first: Vec<usize>,
    /// The credentials in the order they were stated — what
    /// delegation edges are read from.
    stated: Vec<Stated>,
}

impl CredSet {
    /// Prepare `stated`. The one place a set is built from raw
    /// formulas; it borrows them, keeping only what it normalises.
    pub fn new<'a>(stated: impl IntoIterator<Item = &'a Formula>) -> Self {
        Self::keyed_by(stated, normal_key)
    }

    fn keyed_by<'a>(
        stated: impl IntoIterator<Item = &'a Formula>,
        key: impl Fn(&Formula) -> u64,
    ) -> Self {
        let mut entries: Vec<(u64, Formula, usize, Option<Box<Formula>>)> = stated
            .into_iter()
            .enumerate()
            .map(|(position, c)| {
                let normal = normalize(c);
                let spelled = (normal != *c).then(|| Box::new(c.clone()));
                (key(&normal), normal, position, spelled)
            })
            .collect();
        // Position last, so equal normal forms stay in stated order.
        entries.sort_unstable_by(|a, b| (a.0, &a.1, a.2).cmp(&(b.0, &b.1, b.2)));
        let n = entries.len();
        let mut set = CredSet {
            keys: Vec::with_capacity(n),
            normal: Vec::with_capacity(n),
            first: Vec::with_capacity(n),
            stated: vec![
                Stated {
                    at: 0,
                    spelled: None
                };
                n
            ],
        };
        for (key, normal, position, spelled) in entries {
            if set.normal.last() != Some(&normal) {
                set.keys.push(key);
                set.normal.push(normal);
                set.first.push(position);
            }
            set.stated[position] = Stated {
                at: set.normal.len() - 1,
                spelled,
            };
        }
        set
    }

    /// A set whose every formula has the same key, so that only `==`
    /// on the normal forms can tell its members apart.
    #[cfg(test)]
    fn keyed_alike<'a>(stated: impl IntoIterator<Item = &'a Formula>) -> Self {
        Self::keyed_by(stated, |_| 0)
    }

    /// Number of credentials stated (duplicates included).
    pub fn len(&self) -> usize {
        self.stated.len()
    }

    /// True if no credential was stated.
    pub fn is_empty(&self) -> bool {
        self.stated.is_empty()
    }

    /// The credentials as they were stated, spelling and order intact.
    pub fn stated(&self) -> impl Iterator<Item = &Formula> + '_ {
        (0..self.stated.len()).map(|position| self.spelling(position))
    }

    fn spelling(&self, position: usize) -> &Formula {
        let stated = &self.stated[position];
        stated.spelled.as_deref().unwrap_or(&self.normal[stated.at])
    }

    /// Where `normal` (whose key is `key`) sits among the normal
    /// forms: the key finds the candidates, `==` picks the member.
    fn position(&self, key: u64, normal: &Formula) -> Option<usize> {
        let start = self.keys.partition_point(|&k| k < key);
        (start..self.keys.len())
            .take_while(|&i| self.keys[i] == key)
            .find(|&i| self.normal[i] == *normal)
    }
}

/// The credentials one request is evaluated against: the holder's
/// prepared set and, layered over it, the request's own (the
/// utterances the kernel vouches for because the request arrived over
/// the attested syscall channel). `Copy`: two references.
#[derive(Debug, Clone, Copy)]
pub struct Creds<'a> {
    held: &'a CredSet,
    request: Option<&'a CredSet>,
}

impl<'a> Creds<'a> {
    /// The holder's set alone.
    pub fn new(held: &'a CredSet) -> Self {
        Creds {
            held,
            request: None,
        }
    }

    /// This view with `request` as the request's own layer, stated
    /// after the holder's.
    pub fn with_request(self, request: &'a CredSet) -> Self {
        Creds {
            request: Some(request),
            ..self
        }
    }

    fn layers(self) -> impl Iterator<Item = &'a CredSet> {
        std::iter::once(self.held).chain(self.request)
    }

    /// Every credential as stated: the holder's, then the request's.
    pub fn stated(self) -> impl Iterator<Item = &'a Formula> {
        self.layers().flat_map(CredSet::stated)
    }

    /// True if some layer holds `normal`.
    pub fn holds(self, normal: &Formula) -> bool {
        self.holds_leaf(normal_key(normal), normal)
    }

    /// [`Creds::holds`] for a normal form whose [`normal_key`] the
    /// caller already has (a [`Leaf`](crate::check::Leaf) carries
    /// its own): the probe without the hash.
    pub fn holds_leaf(self, key: u64, normal: &Formula) -> bool {
        self.layers()
            .any(|layer| layer.position(key, normal).is_some())
    }

    /// The first credential stated with normal form `normal`, as it
    /// was spelled.
    pub fn find(self, normal: &Formula) -> Option<&'a Formula> {
        let key = normal_key(normal);
        self.layers().find_map(|layer| {
            let at = layer.position(key, normal)?;
            Some(layer.spelling(layer.first[at]))
        })
    }

    /// A total order under which views over equal layers — the
    /// request's normal forms equal, and the holder's — compare
    /// `Equal` and no others do: what batch grouping sorts and splits
    /// by. The key lists go first, request layer first, because that
    /// is where requesters differ (every subject of a batch may hold
    /// the same labels, each in its own `Arc`; no two make the same
    /// utterance), but `Equal` is only ever decided on the normal
    /// forms themselves. The same union layered differently compares
    /// unequal, which costs a shared search, never a verdict.
    pub(crate) fn grouping_cmp(self, other: Creds<'_>) -> Ordering {
        fn keys(set: Option<&CredSet>) -> &[u64] {
            set.map_or(&[], |s| &s.keys)
        }
        fn normal(set: Option<&CredSet>) -> &[Formula] {
            set.map_or(&[], |s| &s.normal)
        }
        // One `Arc` asked twice is its own equal.
        let (held, other_held) = if std::ptr::eq(self.held, other.held) {
            (None, None)
        } else {
            (Some(self.held), Some(other.held))
        };
        keys(self.request)
            .cmp(keys(other.request))
            .then_with(|| keys(held).cmp(keys(other_held)))
            .then_with(|| normal(self.request).cmp(normal(other.request)))
            .then_with(|| normal(held).cmp(normal(other_held)))
    }

    /// Order-insensitive 128-bit fingerprint of the layers, in order:
    /// what memoised refutations are scoped to. Hashes every normal
    /// form twice, so it is computed where a search is about to run
    /// and nowhere else. The same union layered differently
    /// fingerprints differently, which can only withhold a refutation
    /// (one more search), never serve one.
    pub(crate) fn fingerprint(self) -> u128 {
        // Two independently-seeded 64-bit SipHashes, deterministic
        // within a process like `normal_key`.
        let mut hi = DefaultHasher::new();
        let mut lo = DefaultHasher::new();
        0xa5a5_5a5au32.hash(&mut hi);
        0x1234_fedcu32.hash(&mut lo);
        for layer in self.layers() {
            layer.normal.hash(&mut hi);
            layer.normal.hash(&mut lo);
        }
        ((hi.finish() as u128) << 64) | hi.finish().wrapping_add(lo.finish()) as u128
    }
}

/// Order-insensitive fingerprint of a credential set (normalized,
/// sorted, deduplicated). Two credential sets holding the same
/// formulas — regardless of order or `¬`/`→ false` spelling —
/// fingerprint identically. [`ProofSearch`](crate::ProofSearch) scopes
/// memoized refutations by it; it is exported for diagnostics and
/// tests. (The async pipeline's batch-coalescing hint is a
/// *different*, incrementally-maintained hash: `LabelStore::shape` in
/// `nexus-core`.)
pub fn credential_fingerprint(credentials: &[Formula]) -> u128 {
    Creds::new(&CredSet::new(credentials)).fingerprint()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn formulas(texts: &[&str]) -> Vec<Formula> {
        texts.iter().map(|s| parse(s).unwrap()).collect()
    }

    #[test]
    fn a_key_match_never_admits_a_credential() {
        // Every formula under key 0: the probe's key narrows nothing,
        // and membership is decided by `==` alone.
        let held = formulas(&["A says p", "not r", "B speaksfor C", "A says q"]);
        let uttered = formulas(&["S says op", "S says op(x)"]);
        let (held_set, uttered_set) = (CredSet::keyed_alike(&held), CredSet::keyed_alike(&uttered));
        assert_eq!(held_set.keys, [0; 4], "one bucket");
        let creds = Creds::new(&held_set).with_request(&uttered_set);
        for f in held.iter().chain(&uttered) {
            assert!(creds.holds_leaf(0, &normalize(f)), "{f} is held");
        }
        for f in formulas(&["A says r", "r", "C speaksfor B", "S says op(y)", "true"]) {
            assert!(
                !creds.holds_leaf(0, &normalize(&f)),
                "{f} shares every member's key and was admitted on it"
            );
        }
        // Nor do equal key lists make two requesters one group.
        let other_set = CredSet::keyed_alike(&formulas(&["S says op", "S says op(y)"]));
        assert_eq!(uttered_set.keys, other_set.keys);
        let twin_set = CredSet::keyed_alike(uttered.iter().rev());
        let view = |request| Creds::new(&held_set).with_request(request);
        assert!(view(&uttered_set).grouping_cmp(view(&other_set)).is_ne());
        assert!(view(&uttered_set).grouping_cmp(view(&twin_set)).is_eq());
        // Each member is found as itself, not as a bucket-mate.
        for (position, f) in held.iter().enumerate() {
            let at = held_set.position(0, &normalize(f)).expect("held");
            assert_eq!(held_set.spelling(held_set.first[at]), f);
            assert_eq!(held_set.stated[position].at, at);
        }
    }

    #[test]
    fn a_real_key_is_confirmed_too() {
        // The right key with the wrong formula, and the wrong key with
        // the right one: neither is a member.
        let held = formulas(&["A says p", "A says q"]);
        let set = CredSet::new(&held);
        let creds = Creds::new(&set);
        let (p, q) = (normalize(&held[0]), normalize(&held[1]));
        assert!(creds.holds_leaf(normal_key(&p), &p));
        assert!(!creds.holds_leaf(normal_key(&p), &q));
        assert!(!creds.holds_leaf(normal_key(&q), &p));
    }

    #[test]
    fn one_tree_per_credential_unless_its_spelling_differs() {
        let held = formulas(&["A says p", "not r", "r -> false", "A says p"]);
        let set = CredSet::new(&held);
        assert_eq!(set.len(), 4);
        assert_eq!(set.normal.len(), 2, "two distinct normal forms");
        let respelled: Vec<bool> = set.stated.iter().map(|s| s.spelled.is_some()).collect();
        assert_eq!(respelled, [false, true, false, false]);
        assert!(set.stated().eq(&held), "spelling and order intact");
        let not_r = normalize(&held[1]);
        assert_eq!(
            Creds::new(&set).find(&not_r),
            Some(&held[1]),
            "first spelling"
        );
    }

    #[test]
    fn fingerprints_follow_the_set_and_its_layering() {
        let a = formulas(&["A says p", "B says q", "not r"]);
        let b = formulas(&["B says q", "r -> false", "A says p", "B says q"]);
        assert_eq!(credential_fingerprint(&a), credential_fingerprint(&b));
        let (head, tail) = (CredSet::new(&a[..2]), CredSet::new(&a[2..]));
        assert_ne!(
            Creds::new(&head).with_request(&tail).fingerprint(),
            credential_fingerprint(&a),
            "a layered union is scoped apart from the flat one"
        );
        let daeh = CredSet::new([&a[1], &a[0]]);
        assert_eq!(
            Creds::new(&head).with_request(&tail).fingerprint(),
            Creds::new(&daeh).with_request(&tail).fingerprint(),
            "same layers, same scope"
        );
    }
}
