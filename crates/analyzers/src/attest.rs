//! The attestation analyzer: static panic/unsafe analysis that mints
//! credentials (ISSUE 8).
//!
//! This is the paper's *analytic* basis of trust made concrete: a
//! labeling function that inspects an IPD's binary ([`crate::bin`])
//! and, when the analysis comes back clean, deposits real credentials
//! — `panic_free(pid)` / `no_unsafe(pid)`, spoken by the analyzer's
//! own principal — into the analyzed process's labelstore, where the
//! guard's auto-prover finds them like any other label. Applications
//! then *demand* the property in a goal (`analyzer says
//! panic_free($subject)`) instead of trusting the binary axiomatically.
//!
//! Two passes run over the IR:
//!
//! 1. **Panic reachability** — interprocedural reachability from the
//!    image's entry points to panic sites. Blocks unreachable from a
//!    function's entry and functions unreachable from any entry point
//!    are pruned (a panic in dead code cannot execute). The call-graph
//!    walk is bounded; exceeding the bound refuses the credential
//!    rather than guessing. An indirect call is conservatively treated
//!    as a potential panic site: its target is unknown, so nothing can
//!    be promised past it.
//! 2. **Unguarded unsafe** (in the spirit of Rudra's unsafe-dataflow
//!    checks) — a forward *must* dataflow per function: a value counts
//!    as guarded at a program point only if a [`crate::bin::Inst::Guard`]
//!    dominates it on **every** path from the entry (redefinition
//!    kills the guard). An unsafe region consuming a value not in the
//!    must-guarded set refuses `no_unsafe` — including the classic
//!    "checked on one branch, not the other" shape.
//!
//! Both passes only ever err toward refusal: every run-time execution
//! path is a path of the IR's CFG, pass 1 over-approximates the
//! reachable instruction set, and pass 2 under-approximates the
//! guarded-value sets. Hence *any* reachable panic (or unguarded
//! unsafe input) implies no credential — the soundness property the
//! sabotage tests pin down.
//!
//! Results are cached per (subject, image digest). Re-analysis after a
//! binary change first **revokes** the previously minted credentials
//! through the kernel's one removal door
//! (`Nexus::revoke_credential`), so a stale attestation can never
//! authorize — the subject's cached verdicts are out of reach and the
//! prover memo is flushed before the revocation returns.

use crate::bin::{BinaryImage, Function, Inst, Terminator};
use crate::pylite::{self, Program};
use nexus_core::LabelHandle;
use nexus_kernel::{KernelError, Nexus};
use nexus_nal::{Formula, Principal, Term};
use nexus_tpm::{hash, Digest};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Bounds for the interprocedural traversal. Exceeding either bound
/// is a *refusal*, never a silent pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Maximum functions visited across the call-graph walk.
    pub max_funcs: usize,
    /// Maximum call depth from an entry point.
    pub max_call_depth: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            max_funcs: 4096,
            max_call_depth: 128,
        }
    }
}

/// What one analysis run concluded about an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// No panic site is reachable from any entry point.
    pub panic_free: bool,
    /// Every reachable unsafe region's inputs are must-guarded.
    pub no_unsafe: bool,
    /// Why `panic_free` failed (call chain or indirect-call site).
    pub panic_witness: Option<String>,
    /// Why `no_unsafe` failed (function, region, value).
    pub unsafe_witness: Option<String>,
    /// Functions visited by the call-graph walk.
    pub funcs_analyzed: usize,
    /// The traversal hit a bound (both credentials refused).
    pub bounded_out: bool,
}

/// Successor blocks of a terminator.
fn succs(t: Terminator) -> Vec<usize> {
    match t {
        Terminator::Jump(b) => vec![b.0],
        Terminator::Branch(a, b) => vec![a.0, b.0],
        Terminator::Return => vec![],
    }
}

/// Blocks reachable from the function entry (dead-code pruning).
fn reachable_blocks(f: &Function) -> Vec<bool> {
    let mut seen = vec![false; f.blocks.len()];
    let mut stack = vec![0usize];
    seen[0] = true;
    while let Some(b) = stack.pop() {
        for s in succs(f.blocks[b].term) {
            if !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
    }
    seen
}

/// Per-function facts the interprocedural walk needs, computed over
/// *reachable* blocks only.
struct FuncSummary {
    panics: bool,
    indirect: bool,
    callees: Vec<usize>,
}

fn summarize(f: &Function) -> FuncSummary {
    let reach = reachable_blocks(f);
    let mut s = FuncSummary {
        panics: false,
        indirect: false,
        callees: Vec::new(),
    };
    for (bi, block) in f.blocks.iter().enumerate() {
        if !reach[bi] {
            continue;
        }
        for inst in &block.insts {
            match inst {
                Inst::Panic => s.panics = true,
                Inst::CallIndirect => s.indirect = true,
                Inst::Call(t) => s.callees.push(t.0),
                _ => {}
            }
        }
    }
    s
}

/// The call chain from an entry point to `fid`, rendered for a
/// witness string.
fn call_chain(image: &BinaryImage, parents: &HashMap<usize, Option<usize>>, fid: usize) -> String {
    let mut chain = vec![fid];
    let mut cur = fid;
    while let Some(Some(p)) = parents.get(&cur) {
        chain.push(*p);
        cur = *p;
    }
    chain.reverse();
    chain
        .iter()
        .map(|f| image.funcs[*f].name.as_str())
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// The must-guard dataflow of pass 2 for one function: `Some(witness)`
/// if a reachable unsafe region consumes a value that is not guarded
/// on every path from the entry.
fn unguarded_unsafe(f: &Function) -> Option<String> {
    let n = f.blocks.len();
    // in-set per block: None = unvisited (⊤); meet = set intersection.
    let mut ins: Vec<Option<BTreeSet<u32>>> = vec![None; n];
    ins[0] = Some(BTreeSet::new());
    let mut work: VecDeque<usize> = VecDeque::from([0usize]);
    while let Some(b) = work.pop_front() {
        let mut set = ins[b].clone().expect("worklist holds visited blocks");
        for inst in &f.blocks[b].insts {
            match inst {
                Inst::Compute(v) => {
                    set.remove(&v.0);
                }
                Inst::Guard(v) => {
                    set.insert(v.0);
                }
                _ => {}
            }
        }
        for s in succs(f.blocks[b].term) {
            let changed = match &mut ins[s] {
                slot @ None => {
                    *slot = Some(set.clone());
                    true
                }
                Some(cur) => {
                    let before = cur.len();
                    cur.retain(|v| set.contains(v));
                    cur.len() != before
                }
            };
            if changed {
                work.push_back(s);
            }
        }
    }
    // Check pass: replay each reachable block from its fixpoint in-set.
    for (bi, block) in f.blocks.iter().enumerate() {
        let Some(start) = &ins[bi] else {
            continue; // unreachable: the region cannot execute
        };
        let mut set = start.clone();
        for inst in &block.insts {
            match inst {
                Inst::Compute(v) => {
                    set.remove(&v.0);
                }
                Inst::Guard(v) => {
                    set.insert(v.0);
                }
                Inst::Unsafe { region, inputs } => {
                    for v in inputs {
                        if !set.contains(&v.0) {
                            return Some(format!(
                                "unsafe region `{region}` in `{}` consumes v{} \
                                 without a dominating guard",
                                f.name, v.0
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Run both passes over an image. Ill-formed images should be rejected
/// by the caller via [`BinaryImage::validate`] before analysis;
/// [`AttestAnalyzer`] refuses both credentials on validation failure.
pub fn analyze(image: &BinaryImage, cfg: &AnalysisConfig) -> AnalysisReport {
    // --- interprocedural walk (BFS over the direct call graph) ---
    let mut parents: HashMap<usize, Option<usize>> = HashMap::new();
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    for e in &image.entries {
        if let std::collections::hash_map::Entry::Vacant(slot) = parents.entry(e.0) {
            slot.insert(None);
            queue.push_back((e.0, 0));
        }
    }
    let mut bounded_out = false;
    let mut panic_witness: Option<String> = None;
    let mut visited: Vec<usize> = Vec::new();
    let mut any_indirect = false;
    while let Some((fid, depth)) = queue.pop_front() {
        if visited.len() >= cfg.max_funcs {
            bounded_out = true;
            break;
        }
        visited.push(fid);
        let s = summarize(&image.funcs[fid]);
        if s.panics && panic_witness.is_none() {
            panic_witness = Some(format!(
                "reachable panic in `{}` via {}",
                image.funcs[fid].name,
                call_chain(image, &parents, fid)
            ));
        }
        if s.indirect {
            any_indirect = true;
            if panic_witness.is_none() {
                panic_witness = Some(format!(
                    "indirect call in `{}` (unknown target may panic) via {}",
                    image.funcs[fid].name,
                    call_chain(image, &parents, fid)
                ));
            }
        }
        for callee in s.callees {
            if parents.contains_key(&callee) {
                continue;
            }
            if depth + 1 > cfg.max_call_depth {
                bounded_out = true;
                continue;
            }
            parents.insert(callee, Some(fid));
            queue.push_back((callee, depth + 1));
        }
    }
    if bounded_out && panic_witness.is_none() {
        panic_witness = Some(format!(
            "call-graph traversal exceeded bounds (max_funcs={}, max_call_depth={})",
            cfg.max_funcs, cfg.max_call_depth
        ));
    }

    // --- unguarded-unsafe pass ---
    // A reachable indirect call may target *any* function in the
    // image (address-taken approximation), so the unsafe pass must
    // then cover every function, not just the directly reachable set.
    let mut unsafe_witness: Option<String> = None;
    if bounded_out {
        unsafe_witness = panic_witness.clone();
    } else {
        let check: Vec<usize> = if any_indirect {
            (0..image.funcs.len()).collect()
        } else {
            visited.clone()
        };
        for fid in check {
            if let Some(w) = unguarded_unsafe(&image.funcs[fid]) {
                unsafe_witness = Some(w);
                break;
            }
        }
    }

    AnalysisReport {
        panic_free: panic_witness.is_none(),
        no_unsafe: unsafe_witness.is_none(),
        panic_witness,
        unsafe_witness,
        funcs_analyzed: visited.len(),
        bounded_out,
    }
}

/// A property the analyzer can vouch for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Claim {
    /// No panic site reachable from any entry point.
    PanicFree,
    /// Every reachable unsafe region is input-guarded.
    NoUnsafe,
    /// A PyLite program imports only whitelisted modules.
    ImportsClean,
}

impl Claim {
    /// The predicate name used in credentials and goals.
    pub fn pred(&self) -> &'static str {
        match self {
            Claim::PanicFree => "panic_free",
            Claim::NoUnsafe => "no_unsafe",
            Claim::ImportsClean => "imports_clean",
        }
    }
}

/// The outcome of one attestation request: which claims were minted
/// (with their labelstore handles), which were refused (with the
/// analysis witness), whether a cached result was reused, and how many
/// stale credentials a re-analysis revoked.
#[derive(Debug, Clone)]
pub struct Attestation {
    /// Claims minted into the subject's labelstore.
    pub minted: Vec<(Claim, LabelHandle)>,
    /// Claims refused, with the witness.
    pub refused: Vec<(Claim, String)>,
    /// The verdict came from the analyzer's result cache.
    pub cached: bool,
    /// Credentials revoked because the binary changed.
    pub revoked: usize,
}

impl Attestation {
    /// Was `claim` minted?
    pub fn holds(&self, claim: Claim) -> bool {
        self.minted.iter().any(|(c, _)| *c == claim)
    }

    /// The refusal witness for `claim`, if it was refused.
    pub fn refusal(&self, claim: Claim) -> Option<&str> {
        self.refused
            .iter()
            .find(|(c, _)| *c == claim)
            .map(|(_, w)| w.as_str())
    }

    /// The labelstore handle of a minted claim.
    pub fn handle(&self, claim: Claim) -> Option<LabelHandle> {
        self.minted
            .iter()
            .find(|(c, _)| *c == claim)
            .map(|(_, h)| *h)
    }
}

#[derive(Clone)]
struct CacheEntry {
    digest: Digest,
    minted: Vec<(Claim, LabelHandle)>,
    refused: Vec<(Claim, String)>,
}

/// Analysis-result cache domains (one per input language).
const BINARY_DOMAIN: &str = "bin";
const PYLITE_DOMAIN: &str = "pylite";

/// The analyzer service: an IPD of its own whose principal speaks the
/// minted credentials. One instance serves many subjects; results are
/// cached per (subject, input digest) so repeat requests for an
/// unchanged binary cost a map lookup, not a re-analysis.
pub struct AttestAnalyzer {
    pid: u64,
    principal: Principal,
    cfg: AnalysisConfig,
    cache: Mutex<HashMap<(u64, &'static str), CacheEntry>>,
}

impl AttestAnalyzer {
    /// Spawn the analyzer IPD on `nexus` with default bounds.
    pub fn launch(nexus: &Nexus) -> Result<AttestAnalyzer, KernelError> {
        Self::launch_with(nexus, AnalysisConfig::default())
    }

    /// Spawn with explicit traversal bounds.
    pub fn launch_with(nexus: &Nexus, cfg: AnalysisConfig) -> Result<AttestAnalyzer, KernelError> {
        let pid = nexus.spawn("attest-analyzer", b"attest-analyzer-image");
        let principal = nexus.principal(pid)?;
        Ok(AttestAnalyzer {
            pid,
            principal,
            cfg,
            cache: Mutex::new(HashMap::new()),
        })
    }

    /// The analyzer's process id.
    pub fn pid(&self) -> u64 {
        self.pid
    }

    /// The principal that speaks minted credentials.
    pub fn principal(&self) -> &Principal {
        &self.principal
    }

    /// The goal formula demanding `claim` of the requesting subject:
    /// `analyzer says <pred>($subject)`. Installing this on an
    /// operation means only attested processes pass the guard.
    pub fn goal(&self, claim: Claim) -> Formula {
        Formula::pred(claim.pred(), vec![Term::var("subject")]).says(self.principal.clone())
    }

    /// The credential formula minting `claim` deposits for `subject`
    /// (handy for asserting labelstore contents in tests).
    pub fn credential(&self, claim: Claim, subject: &Principal) -> Formula {
        Formula::pred(claim.pred(), vec![Term::Prin(subject.clone())]).says(self.principal.clone())
    }

    /// Analyze `image` on behalf of `subject` and mint/refuse the
    /// binary claims. Cached per image digest; a changed digest
    /// revokes the stale credentials (retiring the subject's cached
    /// verdicts, and flushing the prover memo via the label-removal
    /// epoch) before re-analyzing.
    pub fn attest_binary(
        &self,
        nexus: &Nexus,
        subject: u64,
        image: &BinaryImage,
    ) -> Result<Attestation, KernelError> {
        self.attest_binary_with(nexus, subject, image, false)
    }

    /// [`AttestAnalyzer::attest_binary`] with `force` bypassing the
    /// result cache: the previous credentials are revoked and the
    /// analysis re-run even for an unchanged digest. This is the
    /// "re-analysis per authorization" arm of the fig7a benchmark.
    pub fn attest_binary_with(
        &self,
        nexus: &Nexus,
        subject: u64,
        image: &BinaryImage,
        force: bool,
    ) -> Result<Attestation, KernelError> {
        let digest = image.digest();
        let verdicts = |image: &BinaryImage| -> Vec<(Claim, Result<(), String>)> {
            match image.validate() {
                Err(e) => vec![
                    (Claim::PanicFree, Err(e.clone())),
                    (Claim::NoUnsafe, Err(e)),
                ],
                Ok(()) => {
                    let r = analyze(image, &self.cfg);
                    vec![
                        (
                            Claim::PanicFree,
                            if r.panic_free {
                                Ok(())
                            } else {
                                Err(r.panic_witness.unwrap_or_else(|| "panic reachable".into()))
                            },
                        ),
                        (
                            Claim::NoUnsafe,
                            if r.no_unsafe {
                                Ok(())
                            } else {
                                Err(r
                                    .unsafe_witness
                                    .unwrap_or_else(|| "unguarded unsafe".into()))
                            },
                        ),
                    ]
                }
            }
        };
        self.attest_cached(nexus, subject, BINARY_DOMAIN, digest, force, || {
            verdicts(image)
        })
    }

    /// Run the PyLite import-whitelist analysis through the same
    /// attestation path: a clean program earns `imports_clean`. The
    /// verdict is fully determined by (imports, whitelist), so that
    /// pair is the cache digest.
    pub fn attest_pylite(
        &self,
        nexus: &Nexus,
        subject: u64,
        program: &Program,
        whitelist: &[&str],
    ) -> Result<Attestation, KernelError> {
        let imports = pylite::analyze_imports(program);
        let mut bytes = Vec::new();
        for part in imports
            .iter()
            .map(String::as_str)
            .chain(std::iter::once("\u{0}whitelist\u{0}").chain(whitelist.iter().copied()))
        {
            bytes.extend_from_slice(&(part.len() as u64).to_le_bytes());
            bytes.extend_from_slice(part.as_bytes());
        }
        let digest = hash(&bytes);
        self.attest_cached(nexus, subject, PYLITE_DOMAIN, digest, false, || {
            let violations: Vec<String> = imports
                .iter()
                .filter(|m| !whitelist.contains(&m.as_str()))
                .cloned()
                .collect();
            let verdict = if violations.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "imports outside the whitelist: {}",
                    violations.join(", ")
                ))
            };
            vec![(Claim::ImportsClean, verdict)]
        })
    }

    /// The shared cache/revoke/mint discipline behind every claim
    /// domain. Holds the cache lock across the kernel calls so a
    /// concurrent attestation of the same subject cannot interleave
    /// revocation and minting.
    fn attest_cached(
        &self,
        nexus: &Nexus,
        subject: u64,
        domain: &'static str,
        digest: Digest,
        force: bool,
        run: impl FnOnce() -> Vec<(Claim, Result<(), String>)>,
    ) -> Result<Attestation, KernelError> {
        let key = (subject, domain);
        let mut cache = self.cache.lock();
        if !force {
            if let Some(entry) = cache.get(&key) {
                if entry.digest == digest {
                    nexus.note_analysis(true);
                    return Ok(Attestation {
                        minted: entry.minted.clone(),
                        refused: entry.refused.clone(),
                        cached: true,
                        revoked: 0,
                    });
                }
            }
        }
        // The input changed (or re-analysis was forced): flush the
        // stale credentials through the epoch machinery *before*
        // re-analyzing, so no authorization can race a mint against a
        // result the old binary earned.
        let mut revoked = 0;
        if let Some(old) = cache.remove(&key) {
            for (_, h) in &old.minted {
                nexus.revoke_credential(subject, *h)?;
                revoked += 1;
            }
        }
        nexus.note_analysis(false);
        let subject_prin = nexus.principal(subject)?;
        let mut minted = Vec::new();
        let mut refused = Vec::new();
        for (claim, verdict) in run() {
            match verdict {
                Ok(()) => {
                    let stmt = Formula::pred(claim.pred(), vec![Term::Prin(subject_prin.clone())]);
                    let h = nexus.mint_credential(self.pid, subject, stmt)?;
                    minted.push((claim, h));
                }
                Err(witness) => {
                    nexus.refuse_credential(self.pid, subject, claim.pred(), &witness)?;
                    refused.push((claim, witness));
                }
            }
        }
        cache.insert(
            key,
            CacheEntry {
                digest,
                minted: minted.clone(),
                refused: refused.clone(),
            },
        );
        Ok(Attestation {
            minted,
            refused,
            cached: false,
            revoked,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bin::{BlockId, ValueId};

    fn cfg() -> AnalysisConfig {
        AnalysisConfig::default()
    }

    #[test]
    fn clean_image_passes_both() {
        let mut img = BinaryImage::new("clean");
        let main = img.add_func("main");
        img.add_entry(main);
        let helper = img.add_func("helper");
        img.push(main, BlockId(0), Inst::Compute(ValueId(0)));
        img.push(main, BlockId(0), Inst::Guard(ValueId(0)));
        img.push(
            main,
            BlockId(0),
            Inst::Unsafe {
                region: "memcpy".into(),
                inputs: vec![ValueId(0)],
            },
        );
        img.push(main, BlockId(0), Inst::Call(helper));
        let r = analyze(&img, &cfg());
        assert!(r.panic_free, "{:?}", r.panic_witness);
        assert!(r.no_unsafe, "{:?}", r.unsafe_witness);
        assert_eq!(r.funcs_analyzed, 2);
    }

    #[test]
    fn reachable_panic_refuses_with_call_chain() {
        let mut img = BinaryImage::new("panicky");
        let main = img.add_func("main");
        let mid = img.add_func("mid");
        let deep = img.add_func("deep");
        img.add_entry(main);
        img.push(main, BlockId(0), Inst::Call(mid));
        img.push(mid, BlockId(0), Inst::Call(deep));
        img.push(deep, BlockId(0), Inst::Panic);
        let r = analyze(&img, &cfg());
        assert!(!r.panic_free);
        let w = r.panic_witness.unwrap();
        assert!(w.contains("main -> mid -> deep"), "{w}");
        assert!(r.no_unsafe);
    }

    #[test]
    fn dead_code_panic_is_pruned() {
        let mut img = BinaryImage::new("deadcode");
        let main = img.add_func("main");
        img.add_entry(main);
        // Unreachable block holding the panic.
        let dead = img.add_block(main);
        img.push(main, dead, Inst::Panic);
        // Unreachable function holding a panic.
        let unref = img.add_func("never-called");
        img.push(unref, BlockId(0), Inst::Panic);
        let r = analyze(&img, &cfg());
        assert!(r.panic_free, "{:?}", r.panic_witness);
    }

    #[test]
    fn depth_bound_refuses_conservatively() {
        // A call chain deeper than the bound: refuse, don't guess.
        let mut img = BinaryImage::new("deep");
        let fns: Vec<_> = (0..10).map(|i| img.add_func(&format!("f{i}"))).collect();
        img.add_entry(fns[0]);
        for w in fns.windows(2) {
            img.push(w[0], BlockId(0), Inst::Call(w[1]));
        }
        let r = analyze(
            &img,
            &AnalysisConfig {
                max_funcs: 4096,
                max_call_depth: 3,
            },
        );
        assert!(r.bounded_out);
        assert!(!r.panic_free && !r.no_unsafe);
    }

    #[test]
    fn guard_must_dominate_across_joins() {
        // Guarded on both arms ⇒ guarded at the join.
        let mut img = BinaryImage::new("joined");
        let main = img.add_func("main");
        img.add_entry(main);
        let (a, b, join) = (
            img.add_block(main),
            img.add_block(main),
            img.add_block(main),
        );
        img.push(main, BlockId(0), Inst::Compute(ValueId(1)));
        img.set_term(main, BlockId(0), Terminator::Branch(a, b));
        img.push(main, a, Inst::Guard(ValueId(1)));
        img.set_term(main, a, Terminator::Jump(join));
        img.push(main, b, Inst::Guard(ValueId(1)));
        img.set_term(main, b, Terminator::Jump(join));
        img.push(
            main,
            join,
            Inst::Unsafe {
                region: "deref".into(),
                inputs: vec![ValueId(1)],
            },
        );
        assert!(analyze(&img, &cfg()).no_unsafe);

        // Redefinition after the guard kills it.
        img.push(main, b, Inst::Compute(ValueId(1)));
        let r = analyze(&img, &cfg());
        assert!(!r.no_unsafe);
        assert!(r.unsafe_witness.unwrap().contains("deref"));
    }
}
