//! Counter cells: the words a stats surface is made of.
//!
//! Two cells with one face — `add`, `max`, `get` — so a
//! [`counters!`](crate::counters) row picks its storage with one word
//! and its call sites never change. [`Plain`] is one `AtomicU64`:
//! right for anything bumped off the hot path, or under a lock its
//! owner already holds. [`Striped`] spreads the word over cache-line-
//! padded stripes, so a counter every core bumps on every request (a
//! decision-cache hit) never bounces one line between them.
//!
//! Every access is `Relaxed`: a cell publishes no other data. It is a
//! *statistic* — nothing may synchronise on it — and it reconciles
//! exactly at any happens-before edge its reader establishes (a join,
//! a lock the writer released), like the histogram buckets. A cell is
//! either a tally (`add`) or a high-water mark (`max`), not both.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Stripes per [`Striped`] cell and per [`Histogram`](crate::Histogram).
pub(crate) const STRIPES: usize = 8;

/// This thread's stripe: assigned round-robin on first use, fixed for
/// the thread's lifetime, shared by every striped structure in the
/// process.
#[inline]
pub(crate) fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// A statistics cell: one `AtomicU64`.
#[derive(Debug, Default)]
pub struct Plain(AtomicU64);

impl Plain {
    /// Add `n`; returns the value before.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    /// Raise the cell to at least `v`.
    #[inline]
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One stripe, alone on its cache line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Line(AtomicU64);

/// A statistics cell striped by thread: `add` touches only the calling
/// thread's cache line, `get` sums the stripes.
#[derive(Debug, Default)]
pub struct Striped([Line; STRIPES]);

impl Striped {
    /// Add `n` to this thread's stripe; returns *that stripe's* value
    /// before — a per-stripe sequence number, which is what
    /// [`Sampler`](crate::Sampler) masks.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.0[stripe()].0.fetch_add(n, Ordering::Relaxed)
    }

    /// Raise the cell to at least `v`. A high-water mark moves rarely,
    /// so it lives on the first stripe alone and `get`'s sum reads it
    /// back.
    #[inline]
    pub fn max(&self, v: u64) {
        self.0[0].0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value: the sum of the stripes.
    pub fn get(&self) -> u64 {
        self.0.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striped_reconciles_exactly_after_join() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let cell = Striped::default();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        cell.add(1);
                    }
                });
            }
        });
        // The scope joined: every relaxed add is visible.
        assert_eq!(cell.get(), THREADS * PER_THREAD);
    }

    #[test]
    fn both_cells_share_one_face() {
        let (plain, striped) = (Plain::default(), Striped::default());
        assert_eq!((plain.add(2), striped.add(2)), (0, 0));
        assert_eq!((plain.add(3), striped.add(3)), (2, 2));
        assert_eq!((plain.get(), striped.get()), (5, 5));
        let (plain, striped) = (Plain::default(), Striped::default());
        for v in [4, 9, 6] {
            plain.max(v);
            striped.max(v);
        }
        assert_eq!((plain.get(), striped.get()), (9, 9));
    }
}
