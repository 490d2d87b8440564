//! Epoch-stamped read snapshots — the optimistic-read primitive behind
//! the lock-free authorization path.
//!
//! A [`Snapshot<T>`] publishes immutable `Arc<T>` values under a
//! monotonically increasing *version*. Readers do not block behind a
//! writer: the hot path is one atomic version load plus a lookup in a
//! thread-local cache of `(version, Arc<T>)` pairs — no shared
//! reference-count traffic, no reader-count cache line to ping-pong,
//! no lock word to spin on. Writers serialize on an internal mutex,
//! build the next value, and publish it with a version bump.
//!
//! ## The validate-after-read discipline
//!
//! A snapshot read returns data *and the version it was published
//! under*. The reader may therefore race a writer and observe the
//! previous value — that is the point. Consumers that must not act on
//! stale data (the decision-cache fill path) re-check
//! [`Snapshot::version`] after computing: if the version still equals
//! the one they read under, no publication intervened and the
//! observation was serializable; if it moved, the result is discarded
//! (the decision is simply not cached). This mirrors the kernel's
//! epoch-triple fence and the optimistic-concurrency reasoning the
//! ISSUE cites: reads race freely, a post-hoc check decides whether
//! the observation counts.
//!
//! ## Writer protocol
//!
//! Store writers (`setgoal`, proof install) bump their public epoch
//! counter *first*, then mutate and publish ([`Snapshot::update`]
//! holds the writer lock across both). A reader that captured the
//! counter before the bump fails the counter comparison; a reader
//! that captured it after can still have read the *previous* value
//! (publication pending) — which is exactly what the version
//! comparison catches. Both checks together restore "lock held ⇒
//! consistent" without the lock. A thread-local hit really does read
//! the previous value while a writer sits between its epoch bump and
//! its version bump, so the version comparison is load-bearing.
//!
//! ## Thread-local cache
//!
//! The per-thread cache is keyed by a process-unique snapshot id and
//! starts out as an empty map, so a thread's first read of a snapshot
//! installs its entry and every later read at the same version stays
//! on the thread. The slow path — a short hold of the writer mutex to
//! clone the `Arc` — is taken in exactly two cases: the version moved
//! since this thread's last read (or it never read this snapshot),
//! and a *re-entrant* read. The map is taken out of its cell for the
//! duration of a read, so a read issued from inside another read's
//! closure finds the cell empty and goes to the mutex; no `RefCell`
//! double-borrow is possible.
//!
//! What the cache pins: each thread holds an `Arc` to the last
//! version it read of every snapshot it has touched, including
//! snapshots whose owner has since been dropped. The bound is a
//! wholesale reset: a read that finds more than `TLS_CACHE_MAX`
//! entries drops them all and rebuilds on demand, so a dead
//! snapshot's value is freed once its thread has read more than
//! `TLS_CACHE_MAX` further distinct snapshots, or when the thread
//! exits — whichever comes first.

use parking_lot::Mutex;
use std::any::Any;
use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bound on cached snapshots per thread before wholesale reset.
const TLS_CACHE_MAX: usize = 64;

/// Process-wide id source so every snapshot gets a distinct TLS key.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Hasher for the thread-local map. Its keys are the sequential ids
/// `NEXT_ID` hands out — nothing outside the process chooses them — so
/// one odd multiply spreads them over both the low (bucket) and high
/// (control byte) bits the table uses; SipHash would cost more than
/// the rest of the read.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("snapshot ids are hashed through write_u64");
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type TlsEntry = (u64, Arc<dyn Any + Send + Sync>);
type TlsMap = HashMap<u64, TlsEntry, BuildHasherDefault<IdHasher>>;

thread_local! {
    /// id → (version, value) cache. Starts as an empty map and is
    /// *taken* for the duration of a read, so `None` means exactly "a
    /// read is in progress on this thread"; see module docs.
    static TLS_CACHE: Cell<Option<TlsMap>> =
        const { Cell::new(Some(HashMap::with_hasher(BuildHasherDefault::new()))) };
}

/// Restores the thread-local cache when a read completes (including
/// by unwind, so a panicking reader closure cannot permanently
/// degrade the thread to the slow path).
struct PutBack(TlsMap);

impl Drop for PutBack {
    fn drop(&mut self) {
        // During thread teardown the cell may already be gone; the
        // map (and the values it pins) is then simply dropped here.
        let _ = TLS_CACHE.try_with(|c| c.set(Some(std::mem::take(&mut self.0))));
    }
}

/// A versioned, lock-free-readable publication cell. See module docs.
pub struct Snapshot<T: ?Sized> {
    id: u64,
    /// Publication version: bumped (Release) on every publish, read
    /// (Acquire) by the fast path and by validate-after-read checks.
    version: AtomicU64,
    /// The current value, guarded for writers and slow-path readers.
    current: Mutex<Arc<T>>,
}

impl<T: Send + Sync + 'static> Snapshot<T> {
    /// A snapshot holding `value` at version 0.
    pub fn new(value: T) -> Self {
        Snapshot {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            version: AtomicU64::new(0),
            current: Mutex::new(Arc::new(value)),
        }
    }

    /// Current publication version (Acquire). Monotone; equal
    /// versions imply identical published values.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Read the current value without blocking behind writers: `f`
    /// receives the value and the version it was published under.
    ///
    /// The fast path (version unchanged since this thread's last read)
    /// is one atomic load and one thread-local map probe — no lock, no
    /// shared write. On a version change, a first read, or a
    /// re-entrant read the slow path briefly takes the writer mutex to
    /// clone the `Arc`. The value may be one publication behind the
    /// instant `f` runs; callers needing freshness re-check
    /// [`Snapshot::version`] afterwards (see module docs).
    pub fn read<R>(&self, f: impl FnOnce(&T, u64) -> R) -> R {
        let v = self.version.load(Ordering::Acquire);
        let Some(mut map) = TLS_CACHE.try_with(Cell::take).ok().flatten() else {
            // Re-entrant read (an outer read holds the cache), or the
            // thread is tearing down: a short lock + Arc clone.
            // Correct, just slower.
            let (ver, arc) = self.load_slow();
            return f(&arc, ver);
        };
        if map.len() > TLS_CACHE_MAX {
            map.clear();
        }
        let mut cache = PutBack(map);
        let (ver, any) = match cache.0.entry(self.id) {
            Entry::Occupied(e) => {
                let cached = e.into_mut();
                if cached.0 != v {
                    let (ver, arc) = self.load_slow();
                    *cached = (ver, arc);
                }
                cached
            }
            Entry::Vacant(e) => {
                let (ver, arc) = self.load_slow();
                e.insert((ver, arc))
            }
        };
        let value: &T = any.downcast_ref::<T>().expect("id is unique per type");
        f(value, *ver)
    }

    /// Slow path: take the writer lock and clone out a coherent
    /// (version, value) pair. The version is re-read under the lock
    /// so it cannot be torn against the value.
    fn load_slow(&self) -> (u64, Arc<T>) {
        let guard = self.current.lock();
        let arc = Arc::clone(&guard);
        (self.version.load(Ordering::Acquire), arc)
    }

    /// Replace the published value (version bumps by one).
    pub fn publish(&self, value: T) {
        let mut guard = self.current.lock();
        *guard = Arc::new(value);
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Mutate-and-publish under the writer lock: the current value is
    /// cloned, `f` edits the clone (and typically bumps the owning
    /// store's epoch counter *before* mutating — the writer lock is
    /// held throughout, so bump → mutate → publish is atomic with
    /// respect to other writers), and the result is published.
    pub fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R
    where
        T: Clone,
    {
        let mut guard = self.current.lock();
        let mut next = (**guard).clone();
        let r = f(&mut next);
        *guard = Arc::new(next);
        self.version.fetch_add(1, Ordering::Release);
        r
    }
}

impl<T: Send + Sync + Default + 'static> Default for Snapshot<T> {
    fn default() -> Self {
        Snapshot::new(T::default())
    }
}

impl<T: ?Sized> std::fmt::Debug for Snapshot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("id", &self.id)
            .field("version", &self.version.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn seqlock_snapshot_read_returns_published_value_and_version() {
        let s = Snapshot::new(10u64);
        assert_eq!(s.read(|v, ver| (*v, ver)), (10, 0));
        s.publish(11);
        assert_eq!(s.version(), 1);
        assert_eq!(s.read(|v, ver| (*v, ver)), (11, 1));
        // Fast path: repeated read without publication.
        assert_eq!(s.read(|v, ver| (*v, ver)), (11, 1));
    }

    #[test]
    fn seqlock_snapshot_update_clones_and_bumps() {
        let s = Snapshot::new(vec![1, 2]);
        let len = s.update(|v| {
            v.push(3);
            v.len()
        });
        assert_eq!(len, 3);
        assert_eq!(s.read(|v, _| v.clone()), vec![1, 2, 3]);
        assert_eq!(s.version(), 1);
    }

    #[test]
    fn seqlock_snapshot_reentrant_read_takes_slow_path() {
        let a = Snapshot::new(1u64);
        let b = Snapshot::new(2u64);
        // Nested distinct-snapshot reads: the inner read must not
        // deadlock or panic — it misses the (taken) TLS cache and
        // locks briefly instead.
        let sum = a.read(|va, _| b.read(|vb, _| va + vb));
        assert_eq!(sum, 3);
        // Self-nested reads too.
        let twice = a.read(|v1, _| a.read(|v2, _| v1 + v2));
        assert_eq!(twice, 2);
    }

    #[test]
    fn seqlock_snapshot_version_check_detects_concurrent_publish() {
        let s = Snapshot::new(0u64);
        let (val, ver) = s.read(|v, ver| (*v, ver));
        assert_eq!(val, 0);
        s.publish(1);
        // The validate-after-read discipline: the version moved, so a
        // consumer must discard the observation.
        assert_ne!(s.version(), ver);
    }

    #[test]
    fn seqlock_snapshot_tls_cache_is_bounded() {
        // Churn through more snapshots than the TLS cap; every read
        // must still observe its own snapshot's value.
        for i in 0..(TLS_CACHE_MAX * 3) {
            let s = Snapshot::new(i);
            assert_eq!(s.read(|v, _| *v), i);
        }
    }

    #[test]
    fn seqlock_snapshot_dead_values_are_unpinned_by_reset_and_thread_exit() {
        // Read a snapshot once, drop it, and hand back a probe for
        // whether its value is still alive somewhere.
        fn read_then_drop() -> std::sync::Weak<()> {
            let value = Arc::new(());
            let weak = Arc::downgrade(&value);
            Snapshot::new(value).read(|_, _| ());
            weak
        }
        // Own threads, so the cache starts empty whatever ran before.
        std::thread::spawn(|| {
            let weak = read_then_drop();
            assert!(
                weak.upgrade().is_some(),
                "the reading thread pins the last version it read"
            );
            // One more distinct snapshot than the cap: the last read
            // finds the cache over the bound and resets it.
            let later: Vec<Snapshot<usize>> = (0..=TLS_CACHE_MAX).map(Snapshot::new).collect();
            for (i, l) in later.iter().enumerate() {
                assert_eq!(l.read(|v, _| *v), i);
            }
            assert!(weak.upgrade().is_none(), "reset must free dead snapshots");
        })
        .join()
        .unwrap();

        let weak = std::thread::spawn(read_then_drop).join().unwrap();
        assert!(weak.upgrade().is_none(), "thread exit must free the cache");
    }

    #[test]
    fn seqlock_snapshot_reader_is_not_blocked_by_a_parked_writer() {
        use std::sync::mpsc;
        use std::time::{Duration, Instant};
        let s = Arc::new(Snapshot::new(7u64));
        // This thread's first read installs its fast path.
        assert_eq!(s.read(|v, _| *v), 7);
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let writer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                s.update(|v| {
                    parked_tx.send(()).unwrap();
                    // Parked inside the writer lock. The timeout only
                    // bounds the test where the reader does block.
                    let _ = release_rx.recv_timeout(Duration::from_millis(500));
                    *v += 1;
                })
            })
        };
        parked_rx.recv().unwrap();
        let t0 = Instant::now();
        let seen = s.read(|v, ver| (*v, ver));
        let waited = t0.elapsed();
        // (A writer that timed out has already hung up.)
        let _ = release_tx.send(());
        writer.join().unwrap();
        assert_eq!(seen, (7, 0), "nothing was published while the writer sat");
        assert!(
            waited < Duration::from_millis(100),
            "read waited {waited:?} behind a writer parked in update"
        );
        assert_eq!(s.read(|v, ver| (*v, ver)), (8, 1));
    }

    #[test]
    fn seqlock_snapshot_concurrent_readers_see_only_published_values() {
        let s = Arc::new(Snapshot::new(0u64));
        let threads = 8;
        let barrier = Arc::new(Barrier::new(threads + 1));
        let mut handles = Vec::new();
        for _ in 0..threads {
            let s = Arc::clone(&s);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                let mut last = 0u64;
                for _ in 0..20_000 {
                    let (v, ver) = s.read(|v, ver| (*v, ver));
                    // Published values are multiples of 3; versions
                    // (and values) are monotone per reader.
                    assert_eq!(v % 3, 0, "torn or unpublished value observed");
                    assert!(v >= last, "value went backwards");
                    assert_eq!(v / 3, ver, "value/version pairing torn");
                    last = v;
                }
            }));
        }
        barrier.wait();
        for i in 1..=200u64 {
            s.publish(i * 3);
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn seqlock_snapshot_panicking_reader_keeps_tls_cache_alive() {
        let s = Snapshot::new(5u64);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.read(|_, _| panic!("reader closure panics"))
        }));
        assert!(caught.is_err());
        // The cache must have been put back: this read still works
        // (and would, on a degraded thread, at least stay correct).
        assert_eq!(s.read(|v, _| *v), 5);
    }
}
