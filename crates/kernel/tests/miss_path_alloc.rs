//! A proved allow has an allocation budget (ISSUE 18, tightened by
//! ISSUE 21): once a goal has been searched, an `authorize` that
//! misses the decision cache takes the requester's credentials as the
//! labelstore prepared them when they last changed (one `Arc` clone),
//! builds and prepares only the request's own two utterances, probes
//! the prover's `Checked` witness by its leaves' keys, matches those
//! same leaves in the guard and fills the cache — it copies no label
//! and no proof, normalises no held credential and no ground goal per
//! request, renders nothing to JSON and searches nothing — and that
//! stays so straight after somebody else's label left its store: the
//! prover memo is guarded by the leaves its proofs rest on, not by
//! when they were found (ISSUE 24).
//! Counted, not timed, by the same counting global allocator as
//! `hit_path_alloc.rs`, over the `miss_prove` benchmark's world: an
//! 8-conjunct goal, a 10-hop hand-off chain and 8 payload labels per
//! subject, 256 subjects on the 16 slots of one object's subregion.
//! (The tree before the first budget spent 5 791 allocations and
//! 385 KB per call here; the one that prepared the set per request,
//! 446.)

use nexus_core::ResourceId;
use nexus_kernel::Nexus;
use nexus_nal::{check, normalize, parse, prove, Assumptions, Formula, Principal, ProverConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (the harness's other threads
    /// allocate whenever they please).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor unwinds (`try_with` covers
// thread teardown). `realloc` keeps its default, which routes through
// `alloc` and is therefore counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SUBJECTS: usize = 256;
const CHAIN: usize = 10;
const WIDTH: usize = 8;
const CALLS: usize = 1_000;
const BUDGET_PER_CALL: u64 = 200;

/// Allocations this thread makes while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// `miss_prove`'s world, without its pipeline: every subject holds the
/// hand-off chain `P1 says P0 speaksfor P1 … Owner says P9 speaksfor
/// Owner` and the payloads `P0 says g0 … g7`; the goal `Owner says g0
/// and … and Owner says g7` is provable only through the chain.
fn world() -> (Nexus, Vec<u64>, ResourceId, Formula, Vec<Formula>) {
    let nexus = Nexus::boot_default().expect("boot");
    let object = ResourceId::new("bench", "proved");
    let owner = nexus.spawn("owner", b"img");
    nexus.grant_ownership(owner, &object).expect("grant");
    let conjuncts: Vec<String> = (0..WIDTH).map(|k| format!("Owner says g{k}")).collect();
    let goal = parse(&conjuncts.join(" and ")).expect("goal parses");
    nexus
        .sys_setgoal(owner, object.clone(), "op", goal.clone())
        .expect("setgoal");
    let chain = (0..CHAIN).map(|k| {
        let target = if k + 1 == CHAIN {
            "Owner".to_string()
        } else {
            format!("P{}", k + 1)
        };
        (target.clone(), format!("P{k} speaksfor {target}"))
    });
    let payload = (0..WIDTH).map(|k| ("P0".to_string(), format!("g{k}")));
    let labels: Vec<_> = chain
        .chain(payload)
        .map(|(speaker, stmt)| {
            (
                Principal::name(speaker),
                parse(&stmt).expect("label parses"),
            )
        })
        .collect();
    let subjects = (0..SUBJECTS)
        .map(|i| {
            let pid = nexus.spawn(&format!("subject{i}"), b"img");
            for (speaker, stmt) in &labels {
                nexus
                    .kernel_label(pid, speaker.clone(), stmt.clone())
                    .expect("label");
            }
            pid
        })
        .collect();
    let held = labels
        .iter()
        .map(|(speaker, stmt)| stmt.clone().says(speaker.clone()))
        .collect();
    (nexus, subjects, object, goal, held)
}

/// What the prover's one `debug_assert!` costs per proof handed out:
/// debug builds re-run the full checker there (the lemma, cross-checked
/// on every splice), release builds do not. Measured on its own — a
/// proof of the goal checked against a subject's 18 labels and the
/// request's two utterances — so the budget below is the same in both
/// profiles.
fn cross_check_allocations(goal: &Formula, held: &[Formula]) -> u64 {
    if !cfg!(debug_assertions) {
        return 0;
    }
    let proof = prove(goal, held, ProverConfig::default()).expect("provable");
    let mut creds = held.to_vec();
    creds.extend([parse("S says op").unwrap(), parse("S says op(x)").unwrap()]);
    allocations_during(|| {
        let concl = check(&proof, &Assumptions::from_iter(&creds)).expect("sound");
        assert_eq!(normalize(&concl), normalize(goal));
    })
}

#[test]
fn proved_allow_stays_inside_its_allocation_budget_and_searches_nothing() {
    let (nexus, subjects, object, goal, held) = world();
    // Every subject proves once: the first searches, the rest are
    // served its witness.
    for &pid in &subjects {
        assert!(matches!(nexus.authorize(pid, "op", &object), Ok(true)));
    }
    let cache = nexus.decision_cache_stats();
    let prover = nexus.guard_prover_stats();
    let guard = nexus.guard_stats();

    // Round-robin over 16× more subjects than the subregion has slots:
    // by the time a subject comes round again its verdict is evicted.
    let allocs = allocations_during(|| {
        for i in 0..CALLS {
            let pid = subjects[i % SUBJECTS];
            assert!(matches!(nexus.authorize(pid, "op", &object), Ok(true)));
        }
    });

    let after = nexus.decision_cache_stats();
    assert_eq!(
        (after.hits, after.misses),
        (cache.hits, cache.misses + CALLS as u64),
        "every counted call must miss the decision cache"
    );
    let per_call = allocs / CALLS as u64 - cross_check_allocations(&goal, &held);
    assert!(
        per_call <= BUDGET_PER_CALL,
        "{per_call} allocations per proved allow, budget {BUDGET_PER_CALL}"
    );
    let proved = nexus.guard_prover_stats();
    assert_eq!(
        proved.memo_misses, prover.memo_misses,
        "a goal searched once is not searched again"
    );
    assert_eq!(proved.memo_hits, prover.memo_hits + CALLS as u64);
    assert_eq!(proved.proved, prover.proved + CALLS as u64);
    let checked = nexus.guard_stats();
    assert_eq!(checked.checks, guard.checks + CALLS as u64);
    assert_eq!(
        (checked.cache_hits, checked.cache_misses),
        (guard.cache_hits, guard.cache_misses),
        "a proof the prover checked makes no memo lookup in the guard"
    );
    assert_eq!(
        proved.restarts, 0,
        "the memo cap is a backstop, not traffic"
    );
}

#[test]
fn a_proved_allow_straight_after_an_unrelated_removal_stays_inside_the_budget() {
    const ROUNDS: usize = 64;
    let (nexus, subjects, object, goal, held) = world();
    for &pid in &subjects {
        assert!(matches!(nexus.authorize(pid, "op", &object), Ok(true)));
    }
    // A label none of the subjects holds, bounced between two
    // processes none of them is.
    let (mut from, mut to) = (nexus.spawn("mover", b"img"), nexus.spawn("sink", b"img"));
    let mut spare = nexus
        .kernel_label(from, Principal::name("Spare"), parse("s").unwrap())
        .expect("label");
    let cache = nexus.decision_cache_stats();
    let prover = nexus.guard_prover_stats();

    let mut allocs = 0;
    for i in 0..ROUNDS {
        spare = nexus.transfer_label(from, spare, to).expect("transfer");
        std::mem::swap(&mut from, &mut to);
        let pid = subjects[i % SUBJECTS];
        allocs += allocations_during(|| {
            assert!(matches!(nexus.authorize(pid, "op", &object), Ok(true)));
        });
    }

    let after = nexus.decision_cache_stats();
    assert_eq!(
        (after.hits, after.misses),
        (cache.hits, cache.misses + ROUNDS as u64),
        "every counted call must miss the decision cache"
    );
    let per_call = allocs / ROUNDS as u64 - cross_check_allocations(&goal, &held);
    assert!(
        per_call <= BUDGET_PER_CALL,
        "{per_call} allocations per proved allow after a removal, budget {BUDGET_PER_CALL}"
    );
    let proved = nexus.guard_prover_stats();
    assert_eq!(
        (proved.memo_hits, proved.memo_misses, proved.restarts),
        (prover.memo_hits + ROUNDS as u64, prover.memo_misses, 0),
        "a removal elsewhere makes nobody's next proof a search"
    );
}
