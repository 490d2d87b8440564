//! A cached allow allocates nothing (ISSUE 15): `authorize` and
//! `authorize_async` on a decision-cache hit build no `OpName`, no
//! `Principal` and no `CacheKey` — everything the front half reads is
//! `Copy` or borrowed from the caller. Counted, not timed: a counting
//! global allocator tallies the calling thread's allocations. The same
//! counted hits also never retry or fall back off the seqlock probe.

use nexus_core::ResourceId;
use nexus_kernel::{AuthzOutcome, Nexus, NexusConfig, ObsConfig};
use nexus_nal::{parse, Principal};
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

const CALLS: u64 = 10_000;

/// Allocations this thread makes while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A kernel, a labelled reader and an object whose `read` goal the
/// label discharges — warmed, so the next `authorize` is a hit.
fn cached_allow(obs: ObsConfig) -> (Nexus, u64, ResourceId) {
    let nexus = Nexus::boot_default().expect("boot");
    nexus.set_config(NexusConfig {
        obs,
        ..NexusConfig::default()
    });
    let object = ResourceId::new("test", "hot");
    let owner = nexus.spawn("owner", b"img");
    nexus.grant_ownership(owner, &object).expect("grant");
    nexus
        .sys_setgoal(
            owner,
            object.clone(),
            "read",
            parse("Gate says g0").expect("goal parses"),
        )
        .expect("setgoal");
    let reader = nexus.spawn("reader", b"img");
    nexus
        .kernel_label(
            reader,
            Principal::name("Gate"),
            parse("g0").expect("label parses"),
        )
        .expect("label");
    assert!(nexus.authorize(reader, "read", &object).expect("fill"));
    let hits = nexus.decision_cache_stats().hits;
    assert!(nexus.authorize(reader, "read", &object).expect("hit"));
    assert_eq!(nexus.decision_cache_stats().hits, hits + 1, "not cached");
    (nexus, reader, object)
}

#[test]
fn cached_allow_allocates_nothing_with_telemetry_off() {
    let (nexus, reader, object) = cached_allow(ObsConfig::disabled());
    let before = nexus.decision_cache_stats();
    let hits = before.hits;
    let allocs = allocations_during(|| {
        for _ in 0..CALLS {
            assert!(matches!(nexus.authorize(reader, "read", &object), Ok(true)));
        }
    });
    assert_eq!(nexus.decision_cache_stats().hits, hits + CALLS);
    assert_eq!(allocs, 0, "{allocs} allocations over {CALLS} cached allows");
    // No writer ran, so the seqlock probe never retried and never fell
    // back to the locked probe.
    let after = nexus.decision_cache_stats();
    assert_eq!(
        (after.read_retries, after.read_fallbacks),
        (before.read_retries, before.read_fallbacks),
        "hit-only run with no writer retried or fell back"
    );
}

#[test]
fn cached_allow_allocates_only_for_sampled_events_with_telemetry_on() {
    let (nexus, reader, object) = cached_allow(ObsConfig::default());
    let journaled = nexus.audit_recent(usize::MAX).len();
    let allocs = allocations_during(|| {
        for _ in 0..CALLS {
            assert!(matches!(nexus.authorize(reader, "read", &object), Ok(true)));
        }
    });
    // 1 hit in 64 is journaled; its event owns two strings (operation
    // and object). Nothing else on the path may allocate.
    let sampled = CALLS.div_ceil(1 << ObsConfig::default().hit_sample_shift);
    assert!(
        nexus.audit_recent(usize::MAX).len() > journaled,
        "telemetry is on: sampled hits must be journaled"
    );
    assert!(
        allocs <= 2 * sampled,
        "{allocs} allocations over {CALLS} cached allows, {sampled} of them sampled"
    );
}

#[test]
fn cached_async_allow_allocates_only_its_ticket() {
    let (nexus, reader, object) = cached_allow(ObsConfig::disabled());
    // Whatever a resolved ticket costs, measured on its own.
    let per_ticket = allocations_during(|| {
        drop(nexus_kernel::AuthzTicket::ready(AuthzOutcome::Allow));
    });
    let allocs = allocations_during(|| {
        for _ in 0..CALLS {
            let ticket = nexus
                .authorize_async(reader, "read", &object)
                .expect("routed");
            assert!(matches!(ticket.wait(), AuthzOutcome::Allow));
        }
    });
    assert_eq!(
        allocs,
        per_ticket * CALLS,
        "the front half allocated beyond the ticket it returns"
    );
}
