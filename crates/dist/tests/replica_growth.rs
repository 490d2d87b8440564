//! What one revoke + re-mint cycle leaves behind (ISSUE 19): a
//! delivered slot keeps its envelope once, so five replicas on a
//! perfect network retain at most 5 KiB per cycle between them (4 646 B
//! measured) — the four-copy layout kept 18 841 B, one deep copy per
//! replica 6 398 B. The last step down is an artefact of running five
//! replicas in one process: an envelope is a shared immutable handle
//! (ISSUE 23), so the five slots that hold it share one allocation,
//! where a real deployment holds it once *per node*. The bound is
//! tight so that a change which goes back to copying shows; it is not
//! a protocol saving. Counted, not sampled: a counting global
//! allocator tracks the live bytes of the whole process. This is the
//! number ROADMAP item 4a's frontier GC drives to ≈ 0.

use nexus_dist::Cluster;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes allocated and not yet freed, by any thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is an atomic counter
// update that neither allocates nor unwinds. `realloc` keeps its
// default, which routes through `alloc` and `dealloc` and is therefore
// counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const NODES: u32 = 5;
const WARM_CYCLES: u32 = 256;
const CYCLES: u32 = 1024;
const MAX_BYTES_PER_CYCLE: isize = 5120;

#[test]
fn a_revoke_and_remint_cycle_retains_under_8_kib_across_five_replicas() {
    let seed = 7;
    let mut cluster = Cluster::new(NODES as usize, seed);
    let mut record = cluster.mint(0, "alice", "CA", "ok");
    assert!(cluster.run_until_converged(8), "set-up: seed={seed}");
    let mut cycle = |c: u32| {
        let origin = c % NODES;
        assert!(cluster.revoke(origin, &record), "revoke {c}: seed={seed}");
        assert!(cluster.run_until_converged(8), "revoke {c}: seed={seed}");
        record = cluster.mint(origin, "alice", "CA", "ok");
        assert!(cluster.run_until_converged(8), "re-mint {c}: seed={seed}");
    };
    // Warm: tables that double (subject maps, the simulator's flight
    // bag, B-tree roots) reach their working size first.
    (0..WARM_CYCLES).for_each(&mut cycle);
    let before = LIVE.load(Ordering::Relaxed);
    (WARM_CYCLES..WARM_CYCLES + CYCLES).for_each(&mut cycle);
    let per_cycle = (LIVE.load(Ordering::Relaxed) - before) / CYCLES as isize;
    assert!(
        per_cycle <= MAX_BYTES_PER_CYCLE,
        "{per_cycle} live bytes per cycle retained (bound {MAX_BYTES_PER_CYCLE}): seed={seed}"
    );
    println!("replica_growth: {per_cycle} live bytes per revoke + re-mint cycle");
}
