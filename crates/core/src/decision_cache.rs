//! The kernel decision cache (§2.8).
//!
//! Guard invocations are expensive (16–20× a cached decision, Figure
//! 4), so the kernel caches previously observed guard decisions in a
//! hashtable indexed by the access-control tuple (subject, operation,
//! object). Only decisions the guard marked cacheable — proofs with no
//! authority dependence — are stored.
//!
//! Invalidation uses the paper's subregion trick: the hash function is
//! designed so all entries with the same (operation, object) land in
//! the same *subregion* of the table. A `setgoal` then clears one
//! subregion rather than the whole cache; a proof update clears a
//! single entry. Subregion size is configurable and trades off
//! invalidation cost against collision rate.
//!
//! ## The lock-free hit path
//!
//! A cache hit is load–compare–return with **zero contention**: each
//! slot is a *seqlock* — an `AtomicU64` sequence word bracketing an
//! all-atomic payload (key fingerprint, occupancy/verdict bits). A
//! reader loads the sequence, the payload, and the sequence again; an
//! odd or changed sequence means a writer was mid-flight, and the
//! reader retries (bounded) before falling back to the locked slow
//! path. Writers — fills and invalidations — are the only lockers:
//! they serialize on a per-subregion mutex and bump the slot sequence
//! to odd before touching the payload and back to even after. A torn
//! read is therefore *detected*, never acted on: it degrades to a
//! miss and the request simply takes the guard slow path, where the
//! epoch fences decide afresh. (The mutexed probe this replaced
//! measured at parity on the hosts available; its final A/B is the
//! "Retired baselines" table in `docs/ARCHITECTURE.md`.)
//!
//! Slots store a 128-bit keyed fingerprint of the access-control
//! tuple rather than the tuple itself (heap-backed strings cannot be
//! read under optimistic concurrency). The two 64-bit halves come
//! from independently keyed hashers seeded per table, so cross-tuple
//! collisions are both astronomically unlikely (≈2⁻¹²⁸ per pair) and
//! not predictable by an adversary.
//!
//! ## Probing with borrowed parts
//!
//! The subject of a tuple is a process's principal, fixed at spawn,
//! so its share of the hashing is done once: a [`SubjectDigest`] is
//! the principal's slot hash plus a 128-bit digest under keys that
//! belong to the cache (not to a table, so a [`resize`] leaves every
//! digest good). [`DecisionCache::probe`] then takes the digest, the
//! operation as `&str` and the object by reference, and runs three
//! short hash passes — the unkeyed (operation, object) hash that
//! picks the subregion, and the two keyed lanes over the
//! length-prefixed operation and object bytes followed by the digest
//! — without building an `OpName`, a `Principal` or a [`CacheKey`].
//! Fills and invalidations take the same borrowed form; the
//! `CacheKey` methods (`lookup`, `insert`, `insert_if`) digest the
//! key's subject and call it.
//!
//! [`resize`]: DecisionCache::resize
//!
//! ## Invalidating one subject by renaming it
//!
//! A label removal can falsify only the verdicts of the subject that
//! lost the label, and there is no index from a subject to its slots.
//! So the subject is *renamed* instead: its owner keeps one monotone
//! generation word per subject, [`DecisionCache::rename`] bumps it, and
//! every probe and fill goes under [`SubjectDigest::at`] the generation
//! it read. The fold reaches both keyed lanes and leaves the slot hash
//! alone, so after a removal the subject's old entries can never match
//! again — nothing is cleared, no other subject loses anything — and
//! the subject's own next fill for a pair lands in the slot the dead
//! entry occupies. What keeps this sound is one ordering rule, owed by
//! the caller: *a verdict is filed under a generation read no later
//! than the credentials it was computed from.*
//!
//! Fills are *epoch-validated*: [`DecisionCache::insert_if`] re-checks
//! the caller's validity predicate inside the subregion writer lock,
//! so a racing `setgoal` invalidation can never be overwritten by a
//! stale decision. The counters every probe bumps (hits, misses,
//! retries, fallbacks) are [`nexus_obs::Striped`] cells, so the hit
//! counter itself cannot become the contention point.

use crate::resource::{OpName, ResourceId};
use nexus_nal::Principal;
use parking_lot::Mutex;
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::snapshot::Snapshot;

/// The access-control tuple the cache is indexed by.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The requesting principal.
    pub subject: Principal,
    /// The operation.
    pub operation: OpName,
    /// The resource.
    pub object: ResourceId,
}

/// A principal, hashed once for every probe it will ever make against
/// one [`DecisionCache`] (see [`DecisionCache::digest`]). `Copy`, so
/// the kernel publishes it per process and the hit path never touches
/// the principal itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubjectDigest {
    /// Unkeyed hash of the principal: picks the slot within a
    /// subregion (reduced modulo the table's `subregion_slots`).
    slot: u64,
    /// The principal under the cache's two subject keys; folded into
    /// both fingerprint lanes in place of the principal's bytes.
    keyed: (u64, u64),
}

/// Cache configuration.
#[derive(Debug, Clone, Copy)]
pub struct DecisionCacheConfig {
    /// Total number of slots (rounded up to a multiple of
    /// `subregion_slots`).
    pub total_slots: usize,
    /// Slots per (operation, object) subregion; within it a subject
    /// maps to exactly one slot (direct-mapped, as in the paper — a
    /// colliding subject displaces on insert).
    pub subregion_slots: usize,
}

impl SubjectDigest {
    /// This subject under its `generation`-th name (see the module
    /// docs; generation 0 is the digest itself). Pure. Both keyed
    /// lanes move, each by a bijection of `generation`, so one
    /// subject's names never repeat and two subjects at one generation
    /// differ exactly as their digests do; `slot` does not move, so a
    /// renamed subject overwrites its own dead entries.
    #[must_use]
    pub fn at(self, generation: u64) -> SubjectDigest {
        SubjectDigest {
            slot: self.slot,
            keyed: (
                self.keyed.0 ^ generation.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                self.keyed
                    .1
                    .wrapping_add(generation.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)),
            ),
        }
    }
}

impl Default for DecisionCacheConfig {
    fn default() -> Self {
        DecisionCacheConfig {
            total_slots: 4096,
            subregion_slots: 16,
        }
    }
}

nexus_obs::counters! {
    /// Statistics counters.
    pub struct DecisionCacheStats, live DecisionCacheCounters {
        /// Lookups that found a valid entry.
        hits: striped counter "nexus_dcache_hits_total" "decision-cache hits",
        /// Lookups that missed.
        misses: striped counter "nexus_dcache_misses_total" "decision-cache misses",
        /// Entries cleared: by a proof update, a `setgoal`, or
        /// [`DecisionCache::clear`]. A rename clears nothing.
        invalidations: plain counter
            "nexus_dcache_invalidations_total" "decision-cache entries cleared by an invalidation",
        /// Subjects renamed by a label removal ([`DecisionCache::rename`]).
        renames: plain counter
            "nexus_dcache_renames_total" "subjects renamed by a label removal",
        /// Insertions that displaced a colliding entry.
        collisions: plain counter
            "nexus_dcache_collisions_total" "decision-cache set-conflict evictions",
        /// Seqlock read attempts that observed a concurrent writer (odd
        /// or changed sequence) and retried the probe.
        read_retries: striped counter
            "nexus_dcache_read_retries_total" "seqlock read retries (torn reads)",
        /// Lookups that exhausted the bounded retry budget and fell back
        /// to the locked slow path (still exactly one hit or miss each).
        read_fallbacks: striped counter
            "nexus_dcache_read_fallbacks_total" "seqlock reads that fell back to the table lock",
    }
}

/// Bounded optimistic probe attempts before a lookup falls back to
/// taking the subregion writer lock. Keeps a pathological writer storm
/// from livelocking readers: the fallback is always correct, merely
/// contended.
const MAX_READ_RETRIES: usize = 8;

/// Slot meta bit: the slot holds a live entry.
const OCCUPIED: u64 = 1;
/// Slot meta bit: the cached verdict is "allow".
const ALLOW: u64 = 2;

/// One seqlock-protected cache slot. The payload is all-atomic (no
/// heap data), so a racing reader can at worst observe a *stale or
/// mixed* fingerprint — which the sequence check detects — never
/// undefined behavior; `nexus-core` stays `forbid(unsafe_code)`.
#[derive(Default)]
struct SeqSlot {
    /// Sequence word: even = stable, odd = writer mid-flight.
    seq: AtomicU64,
    /// Keyed 128-bit fingerprint of the access-control tuple.
    fp_lo: AtomicU64,
    fp_hi: AtomicU64,
    /// OCCUPIED | ALLOW bits.
    meta: AtomicU64,
}

impl SeqSlot {
    /// Does the slot hold a live entry with this fingerprint? Writer-
    /// side check: the caller holds the shard's writer lock.
    fn holds(&self, lo: u64, hi: u64) -> bool {
        self.meta.load(Ordering::Relaxed) & OCCUPIED != 0
            && self.fp_lo.load(Ordering::Relaxed) == lo
            && self.fp_hi.load(Ordering::Relaxed) == hi
    }
}

/// One subregion: its slots plus the writer lock that serializes
/// fills and invalidations (readers never take it on the seqlock
/// path).
struct Shard {
    write_lock: Mutex<()>,
    slots: Vec<SeqSlot>,
}

/// The slot array. Lives behind a [`Snapshot`] so lookups reach it
/// without a table-wide reader-writer lock; `resize` publishes a
/// fresh table.
struct Table {
    shards: Vec<Shard>,
    subregion_slots: usize,
    /// Independently keyed fingerprint hashers (seeded per table).
    fp_a: RandomState,
    fp_b: RandomState,
}

impl Table {
    fn new(cfg: DecisionCacheConfig) -> Self {
        let subregion_slots = cfg.subregion_slots.max(1);
        let subregions = cfg
            .total_slots
            .max(subregion_slots)
            .div_ceil(subregion_slots);
        Table {
            shards: (0..subregions)
                .map(|_| Shard {
                    write_lock: Mutex::new(()),
                    slots: (0..subregion_slots).map(|_| SeqSlot::default()).collect(),
                })
                .collect(),
            subregion_slots,
            fp_a: RandomState::new(),
            fp_b: RandomState::new(),
        }
    }

    /// `String` hashes as `str`, so this is the hash of the
    /// `(&OpName, &ResourceId)` pair the owned key holds.
    fn subregion_of(&self, operation: &str, object: &ResourceId) -> usize {
        (DecisionCache::hash64(&(operation, object.0.as_str())) as usize) % self.shards.len()
    }

    /// The shard and slot a tuple maps to, and the 128-bit keyed
    /// fingerprint stored in (and compared against) that slot in place
    /// of the heap-backed tuple: each lane covers every byte of the
    /// operation and the object, length-prefixed so no two splits of
    /// the same bytes alias, then the subject's keyed digest.
    fn locate(
        &self,
        subject: SubjectDigest,
        operation: &str,
        object: &ResourceId,
    ) -> (&Shard, &SeqSlot, (u64, u64)) {
        let shard = &self.shards[self.subregion_of(operation, object)];
        let slot = &shard.slots[(subject.slot as usize) % self.subregion_slots];
        let lane = |keys: &RandomState| {
            let mut h = keys.build_hasher();
            for part in [operation, object.0.as_str()] {
                h.write_usize(part.len());
                h.write(part.as_bytes());
            }
            h.write_u64(subject.keyed.0);
            h.write_u64(subject.keyed.1);
            h.finish()
        };
        (shard, slot, (lane(&self.fp_a), lane(&self.fp_b)))
    }
}

/// The decision cache: a direct-mapped table partitioned into
/// per-subregion shards with seqlock slots, safe to share across
/// threads; the hit path takes no locks (see module docs).
pub struct DecisionCache {
    table: Snapshot<Table>,
    /// Keys of [`SubjectDigest`]s. Beside the table, not in it: a
    /// digest taken before a `resize` probes the new table unchanged.
    subject_keys: (RandomState, RandomState),
    counters: DecisionCacheCounters,
}

impl DecisionCache {
    /// Build with the given configuration.
    pub fn new(cfg: DecisionCacheConfig) -> Self {
        DecisionCache {
            table: Snapshot::new(Table::new(cfg)),
            subject_keys: (RandomState::new(), RandomState::new()),
            counters: DecisionCacheCounters::default(),
        }
    }

    fn hash64<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// Digest a principal for this cache. Done once per process (the
    /// kernel publishes the result in its hot index); valid for the
    /// cache's lifetime, across `resize`.
    pub fn digest(&self, subject: &Principal) -> SubjectDigest {
        SubjectDigest {
            slot: Self::hash64(subject),
            keyed: (
                self.subject_keys.0.hash_one(subject),
                self.subject_keys.1.hash_one(subject),
            ),
        }
    }

    /// Retire every verdict filed for the subject whose generation word
    /// this is, in O(1): the subject's next [`SubjectDigest::at`] is a
    /// name no entry holds. `Release`, pairing with the `Acquire` load a
    /// prober or an evaluator names the subject by: whoever reads the
    /// new generation also sees what the caller did before the bump —
    /// the label it deleted is gone from every credential set read
    /// after it.
    pub fn rename(&self, generation: &AtomicU64) {
        generation.fetch_add(1, Ordering::Release);
        self.counters.renames.add(1);
    }

    /// One optimistic probe of a slot: `None` means a writer was
    /// mid-flight (odd or changed sequence) and the caller should
    /// retry. This is the crossbeam seqlock recipe — acquire the
    /// sequence, relaxed payload loads, an acquire fence, then
    /// re-check the sequence — with an all-atomic payload, so a lost
    /// race is detected rather than undefined.
    fn read_way(slot: &SeqSlot) -> Option<(u64, u64, u64)> {
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 & 1 != 0 {
            return None;
        }
        let lo = slot.fp_lo.load(Ordering::Relaxed);
        let hi = slot.fp_hi.load(Ordering::Relaxed);
        let meta = slot.meta.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        let s2 = slot.seq.load(Ordering::Relaxed);
        (s1 == s2).then_some((lo, hi, meta))
    }

    /// Rewrite a slot's payload under the seqlock write protocol.
    /// Caller must hold the shard's writer lock.
    fn write_way(slot: &SeqSlot, fp: Option<(u64, u64)>, allow: bool) {
        let s = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        match fp {
            Some((lo, hi)) => {
                slot.fp_lo.store(lo, Ordering::Relaxed);
                slot.fp_hi.store(hi, Ordering::Relaxed);
                slot.meta
                    .store(OCCUPIED | if allow { ALLOW } else { 0 }, Ordering::Relaxed);
            }
            None => {
                slot.meta.store(0, Ordering::Relaxed);
            }
        }
        slot.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Probe a slot while holding the shard writer lock (the
    /// bounded-retry fallback). A slot with an odd sequence is treated
    /// as empty — under the lock no legitimate writer can be
    /// mid-flight, so an odd sequence means torn state that must not
    /// be trusted.
    fn probe_locked(slot: &SeqSlot, lo: u64, hi: u64) -> Option<bool> {
        if slot.seq.load(Ordering::Relaxed) & 1 != 0 || !slot.holds(lo, hi) {
            return None;
        }
        Some(slot.meta.load(Ordering::Relaxed) & ALLOW != 0)
    }

    /// Look up a cached decision with what a caller already holds (see
    /// module docs). This takes no locks and allocates nothing: a hit
    /// is three hash passes and a handful of atomic loads; a probe
    /// raced by a writer retries (bounded) and then falls back to the
    /// locked probe. Every call counts exactly one hit or one miss.
    pub fn probe(
        &self,
        subject: SubjectDigest,
        operation: &str,
        object: &ResourceId,
    ) -> Option<bool> {
        self.table.read(|t, _| {
            let (shard, slot, (lo, hi)) = t.locate(subject, operation, object);
            // Writer mid-flight: a torn or in-progress slot is never
            // acted on — retry the probe.
            let mut probe = None;
            for _ in 0..MAX_READ_RETRIES {
                probe = Self::read_way(slot);
                if probe.is_some() {
                    break;
                }
                self.counters.read_retries.add(1);
            }
            let verdict = match probe {
                Some((slo, shi, meta)) => {
                    (meta & OCCUPIED != 0 && slo == lo && shi == hi).then_some(meta & ALLOW != 0)
                }
                None => {
                    self.counters.read_fallbacks.add(1);
                    let _g = shard.write_lock.lock();
                    Self::probe_locked(slot, lo, hi)
                }
            };
            match verdict {
                Some(_) => self.counters.hits.add(1),
                None => self.counters.misses.add(1),
            };
            verdict
        })
    }

    /// [`probe`](Self::probe) by owned key.
    pub fn lookup(&self, key: &CacheKey) -> Option<bool> {
        self.probe(self.digest(&key.subject), &key.operation.0, &key.object)
    }

    /// Insert a (cacheable) decision.
    pub fn insert(&self, key: CacheKey, allow: bool) {
        self.insert_if(key, allow, || true);
    }

    /// Insert a decision only if `valid` still holds *inside* the
    /// subregion writer lock. This closes the lost-invalidation race:
    /// an invalidation (e.g. `setgoal`) that bumped its epoch before
    /// the insert either already cleared the shard (then `valid`
    /// observes the bump — the lock acquisition orders it — and the
    /// insert is skipped) or is still waiting on the writer lock
    /// (then it clears this entry right after). Returns whether the
    /// entry was stored.
    ///
    /// A renamed subject's dead entry is, to the table, another
    /// tuple's live one: the subject's refill of the pair displaces it
    /// and counts one collision.
    pub fn fill_if(
        &self,
        subject: SubjectDigest,
        operation: &str,
        object: &ResourceId,
        allow: bool,
        valid: impl FnOnce() -> bool,
    ) -> bool {
        self.table.read(|t, _| {
            let (shard, slot, (lo, hi)) = t.locate(subject, operation, object);
            let _g = shard.write_lock.lock();
            if !valid() {
                return false;
            }
            // Another subject's live entry in this slot is displaced.
            if slot.meta.load(Ordering::Relaxed) & OCCUPIED != 0 && !slot.holds(lo, hi) {
                self.counters.collisions.add(1);
            }
            Self::write_way(slot, Some((lo, hi)), allow);
            true
        })
    }

    /// [`fill_if`](Self::fill_if) by owned key.
    pub fn insert_if(&self, key: CacheKey, allow: bool, valid: impl FnOnce() -> bool) -> bool {
        let subject = self.digest(&key.subject);
        self.fill_if(subject, &key.operation.0, &key.object, allow, valid)
    }

    /// Invalidate the single entry for a tuple — a proof update (§2.8:
    /// "On a proof update, the kernel clears a single entry").
    pub fn invalidate(&self, subject: SubjectDigest, operation: &str, object: &ResourceId) {
        self.table.read(|t, _| {
            let (shard, slot, (lo, hi)) = t.locate(subject, operation, object);
            let _g = shard.write_lock.lock();
            if slot.holds(lo, hi) {
                Self::write_way(slot, None, false);
                self.counters.invalidations.add(1);
            }
        })
    }

    /// Invalidate the whole subregion for (operation, object) — a
    /// `setgoal` may affect many subjects, but they all hash into one
    /// subregion, so the invalidation takes exactly one writer lock.
    pub fn invalidate_subregion(&self, operation: &OpName, object: &ResourceId) {
        self.table.read(|t, _| {
            let shard = &t.shards[t.subregion_of(&operation.0, object)];
            let _g = shard.write_lock.lock();
            for slot in &shard.slots {
                if slot.meta.load(Ordering::Relaxed) & OCCUPIED != 0 {
                    Self::write_way(slot, None, false);
                    self.counters.invalidations.add(1);
                }
            }
        })
    }

    /// Drop everything (the cache is soft state); each occupied slot
    /// counts as an invalidation. No kernel path calls this — a label
    /// removal [renames](Self::rename) its one subject — it is for
    /// embedders and probes that want an empty table.
    pub fn clear(&self) {
        self.table.read(|t, _| {
            for shard in &t.shards {
                let _g = shard.write_lock.lock();
                for slot in &shard.slots {
                    if slot.meta.load(Ordering::Relaxed) & OCCUPIED != 0 {
                        Self::write_way(slot, None, false);
                        self.counters.invalidations.add(1);
                    }
                }
            }
        })
    }

    /// Resize at runtime (§2.8: "the cache can be resized at
    /// runtime"). Contents are discarded — it is a cache; statistics
    /// survive. A control operation: concurrent lookups may briefly
    /// keep probing the (about-to-be-dropped) old table; callers that
    /// pair a resize with invalidation invariants should fence
    /// in-flight work afterwards, as [`resize_decision_cache`] in the
    /// kernel does.
    ///
    /// [`resize_decision_cache`]: ../../nexus_kernel/struct.Nexus.html#method.resize_decision_cache
    pub fn resize(&self, cfg: DecisionCacheConfig) {
        self.table.publish(Table::new(cfg));
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> DecisionCacheStats {
        self.counters.snapshot()
    }

    /// Number of occupied slots. A renamed subject's dead entries
    /// count until something overwrites or clears them: the table
    /// cannot tell them from live ones.
    pub fn len(&self) -> usize {
        self.table.read(|t, _| {
            t.shards
                .iter()
                .flat_map(|s| s.slots.iter())
                .filter(|slot| slot.meta.load(Ordering::Relaxed) & OCCUPIED != 0)
                .count()
        })
    }

    /// True if no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of subregions (for ablation benchmarks).
    pub fn subregion_count(&self) -> usize {
        self.table.read(|t, _| t.shards.len())
    }

    /// Subregion index of an (operation, object) pair (test support:
    /// lets tests detect accidental subregion sharing).
    pub fn subregion_of(&self, operation: &OpName, object: &ResourceId) -> usize {
        self.table.read(|t, _| t.subregion_of(&operation.0, object))
    }
}

impl Default for DecisionCache {
    fn default() -> Self {
        Self::new(DecisionCacheConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn key(s: &str, op: &str, obj: &str) -> CacheKey {
        CacheKey {
            subject: Principal::name(s),
            operation: OpName::from(op),
            object: ResourceId(obj.to_string()),
        }
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let c = DecisionCache::default();
        let k = key("alice", "read", "file:/x");
        assert_eq!(c.lookup(&k), None);
        c.insert(k.clone(), true);
        assert_eq!(c.lookup(&k), Some(true));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn entry_invalidation_clears_one() {
        let c = DecisionCache::default();
        let k1 = key("alice", "read", "file:/x");
        let k2 = key("bob", "read", "file:/x");
        c.insert(k1.clone(), true);
        c.insert(k2.clone(), false);
        c.invalidate(c.digest(&k1.subject), "read", &k1.object);
        assert_eq!(c.lookup(&k1), None);
        assert_eq!(c.lookup(&k2), Some(false));
    }

    #[test]
    fn subregion_invalidation_clears_all_subjects_of_pair() {
        let c = DecisionCache::default();
        // Many subjects on one (op, object): all land in one subregion.
        let subjects: Vec<CacheKey> = (0..10)
            .map(|i| key(&format!("user{i}"), "read", "file:/shared"))
            .collect();
        for k in &subjects {
            c.insert(k.clone(), true);
        }
        // Another object must survive.
        let other = key("alice", "read", "file:/other");
        c.insert(other.clone(), true);

        c.invalidate_subregion(&OpName::from("read"), &ResourceId("file:/shared".into()));
        for k in &subjects {
            assert_eq!(c.lookup(k), None, "entry for {k:?} should be gone");
        }
        // `other` survives unless it happens to share the subregion —
        // with 256 subregions that would be a 1/256 accident; assert
        // only when subregions differ, keeping the test robust.
        let sub_shared = c.subregion_of(&OpName::from("read"), &ResourceId("file:/shared".into()));
        let sub_other = c.subregion_of(&OpName::from("read"), &ResourceId("file:/other".into()));
        if sub_shared != sub_other {
            assert_eq!(c.lookup(&other), Some(true));
        }
    }

    #[test]
    fn collisions_are_counted_and_displace() {
        let c = DecisionCache::new(DecisionCacheConfig {
            total_slots: 4,
            subregion_slots: 2,
        });
        // With 2 subregions × 2 slots, collisions are guaranteed.
        for i in 0..32 {
            c.insert(key(&format!("u{i}"), "read", "file:/x"), true);
        }
        assert!(c.stats().collisions > 0);
        assert!(c.len() <= 4);
    }

    #[test]
    fn resize_preserves_stats_but_drops_entries() {
        let c = DecisionCache::default();
        let k = key("a", "op", "o");
        c.insert(k.clone(), true);
        c.lookup(&k);
        let hits = c.stats().hits;
        c.resize(DecisionCacheConfig {
            total_slots: 64,
            subregion_slots: 8,
        });
        assert_eq!(c.stats().hits, hits);
        assert_eq!(c.lookup(&k), None);
    }

    #[test]
    fn negative_decisions_cacheable_too() {
        let c = DecisionCache::default();
        let k = key("mallory", "write", "file:/x");
        c.insert(k.clone(), false);
        assert_eq!(c.lookup(&k), Some(false));
    }

    #[test]
    fn clear_empties() {
        let c = DecisionCache::default();
        c.insert(key("a", "r", "o"), true);
        assert!(!c.is_empty());
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn shared_across_threads() {
        let c = Arc::new(DecisionCache::default());
        let mut handles = Vec::new();
        for t in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let k = key(&format!("user{t}"), "read", &format!("file:/t{t}/f{i}"));
                    c.insert(k.clone(), true);
                    // Another thread's insert may displace this slot
                    // (direct-mapped table, hash collisions are legal)
                    // — but a lookup must never return a *wrong*
                    // decision, only a hit-with-our-value or a miss.
                    assert_ne!(c.lookup(&k), Some(false));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every loop iteration did exactly one lookup.
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 8 * 200);
    }

    #[test]
    fn concurrent_subregion_invalidation_never_yields_stale_hits() {
        // Writers keep inserting allow=true for one (op, object) pair
        // while an invalidator clears the subregion; afterwards a
        // final invalidation must leave no entry behind.
        let c = Arc::new(DecisionCache::default());
        let op = OpName::from("read");
        let obj = ResourceId("file:/hot".into());
        let mut handles = Vec::new();
        for t in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    c.insert(key(&format!("u{t}-{i}"), "read", "file:/hot"), true);
                }
            }));
        }
        {
            let c = Arc::clone(&c);
            let op = op.clone();
            let obj = obj.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    c.invalidate_subregion(&op, &obj);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        c.invalidate_subregion(&op, &obj);
        for t in 0..4 {
            for i in 0..500 {
                assert_eq!(
                    c.lookup(&key(&format!("u{t}-{i}"), "read", "file:/hot")),
                    None
                );
            }
        }
    }

    // ---- the borrowed probe and the owned-key adapters are one cache ----

    #[test]
    fn owned_and_borrowed_forms_reach_the_same_entries() {
        let c = DecisionCache::default();
        let k = key("alice", "read", "file:/x");
        let d = c.digest(&k.subject);

        c.insert(k.clone(), true);
        assert_eq!(c.probe(d, "read", &k.object), Some(true));
        c.invalidate(d, "read", &k.object);
        assert_eq!(c.lookup(&k), None);

        assert!(c.fill_if(d, "read", &k.object, false, || true));
        assert_eq!(c.lookup(&k), Some(false));
        c.invalidate(c.digest(&k.subject), "read", &k.object);
        assert_eq!(c.probe(d, "read", &k.object), None);
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn operation_object_boundary_is_part_of_the_fingerprint() {
        // One subregion, one slot: both tuples land on the same slot,
        // so only the fingerprint tells them apart.
        let c = DecisionCache::new(DecisionCacheConfig {
            total_slots: 1,
            subregion_slots: 1,
        });
        let d = c.digest(&Principal::name("alice"));
        assert!(c.fill_if(d, "ab", &ResourceId("c".into()), true, || true));
        assert_eq!(c.probe(d, "a", &ResourceId("bc".into())), None);
        assert_eq!(c.probe(d, "abc", &ResourceId(String::new())), None);
        assert_eq!(c.probe(d, "ab", &ResourceId("c".into())), Some(true));
    }

    #[test]
    fn digest_survives_resize() {
        let c = DecisionCache::default();
        let k = key("alice", "read", "file:/x");
        let d = c.digest(&k.subject);
        c.resize(DecisionCacheConfig {
            total_slots: 64,
            subregion_slots: 8,
        });
        c.insert(k.clone(), true);
        assert_eq!(c.probe(d, "read", &k.object), Some(true));
        assert_eq!(d, c.digest(&k.subject));
    }

    #[test]
    fn placement_is_the_owned_keys_formula() {
        // Subregion and slot are part of the contract (which pairs
        // stay resident, how many entries one `setgoal` clears): they
        // must equal the hashes of the owned `(&OpName, &ResourceId)`
        // pair and of the `Principal`.
        let cfg = DecisionCacheConfig::default();
        let c = DecisionCache::new(cfg);
        let subregions = c.subregion_count();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..1_000 {
            let k = key(
                &format!("/proc/ipd/{}", next() % 4096),
                ["read", "write", "open", "setgoal"][(next() % 4) as usize],
                &format!("file:/{:x}", next()),
            );
            let sub = (DecisionCache::hash64(&(&k.operation, &k.object)) as usize) % subregions;
            let idx = (DecisionCache::hash64(&k.subject) as usize) % cfg.subregion_slots;
            assert_eq!(c.subregion_of(&k.operation, &k.object), sub);
            c.table.read(|t, _| {
                let (shard, slot, _) = t.locate(c.digest(&k.subject), &k.operation.0, &k.object);
                assert!(std::ptr::eq(shard, &t.shards[sub]), "subregion of {k:?}");
                assert!(std::ptr::eq(slot, &shard.slots[idx]), "slot of {k:?}");
            });
        }
    }

    // ---- a subject is invalidated by renaming it ----

    #[test]
    fn a_fill_is_reachable_under_its_own_generation_only() {
        let c = DecisionCache::default();
        let object = ResourceId("file:/x".into());
        let d = c.digest(&Principal::name("alice"));
        assert_eq!(d.at(0), d, "generation 0 is the digest itself");
        for g in [0, 1, 7, u64::MAX - 1] {
            assert!(c.fill_if(d.at(g), "read", &object, true, || true));
            assert_eq!(c.probe(d.at(g), "read", &object), Some(true), "gen {g}");
            assert_eq!(c.probe(d.at(g + 1), "read", &object), None, "gen {g}+1");
            assert_eq!(
                c.probe(d.at(g.wrapping_sub(1)), "read", &object),
                None,
                "gen {g}-1"
            );
        }
        // Each generation's fill overwrote the one before it: one slot.
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().collisions, 3);
    }

    #[test]
    fn rename_retires_one_subject_and_clears_nothing() {
        let c = DecisionCache::default();
        let object = ResourceId("file:/x".into());
        let (alice, bob) = (
            c.digest(&Principal::name("alice")),
            c.digest(&Principal::name("bob")),
        );
        let generation = AtomicU64::new(0);
        let now = |d: SubjectDigest| d.at(generation.load(Ordering::Acquire));
        assert!(c.fill_if(now(alice), "read", &object, true, || true));
        assert!(c.fill_if(bob, "read", &object, true, || true));
        c.rename(&generation);
        assert_eq!(generation.load(Ordering::Acquire), 1);
        assert_eq!(c.probe(now(alice), "read", &object), None);
        assert_eq!(c.probe(bob, "read", &object), Some(true));
        let s = c.stats();
        assert_eq!((s.renames, s.invalidations), (1, 0));
        assert_eq!(c.len(), 2, "the dead entry still occupies its slot");
        // The subject's refill lands on its own dead entry.
        assert!(c.fill_if(now(alice), "read", &object, false, || true));
        assert_eq!(c.probe(now(alice), "read", &object), Some(false));
        assert_eq!(c.len(), 2);
        // And a proof update at the current name clears exactly it.
        c.invalidate(now(alice), "read", &object);
        assert_eq!(c.probe(now(alice), "read", &object), None);
        assert_eq!(c.probe(bob, "read", &object), Some(true));
    }

    #[test]
    fn generations_move_the_name_never_the_slot_and_subjects_never_alias() {
        // One subregion of one slot: every tuple below shares the slot,
        // so only the fingerprint tells any two of them apart.
        let c = DecisionCache::new(DecisionCacheConfig {
            total_slots: 1,
            subregion_slots: 1,
        });
        let object = ResourceId("file:/x".into());
        let subjects: Vec<SubjectDigest> = (0..64)
            .map(|i| c.digest(&Principal::name(format!("/proc/ipd/{i}"))))
            .collect();
        for g in [0u64, 1, 2, 1 << 32, u64::MAX] {
            let mut names = std::collections::HashSet::new();
            for &d in &subjects {
                assert_eq!(d.at(g).slot, d.slot, "slot is generation-independent");
                assert!(names.insert(d.at(g).keyed), "two subjects alias at {g}");
            }
            for (i, &d) in subjects.iter().enumerate() {
                assert!(c.fill_if(d.at(g), "read", &object, true, || true));
                let other = subjects[(i + 1) % subjects.len()];
                assert_eq!(c.probe(other.at(g), "read", &object), None);
                assert_eq!(c.probe(d.at(g), "read", &object), Some(true));
            }
        }
        // The placement contract holds at every generation.
        let wide = DecisionCache::default();
        let d = wide.digest(&Principal::name("alice"));
        wide.table.read(|t, _| {
            let at = |g| t.locate(d.at(g), "read", &object);
            assert!(std::ptr::eq(at(0).1, at(9).1), "same slot");
            assert_ne!(at(0).2, at(9).2, "different fingerprint");
        });
    }

    // ---- seqlock sabotage tests (ISSUE 6): force the race windows ----

    #[test]
    fn seqlock_writer_mid_read_degrades_to_miss_never_torn() {
        // Sabotage: freeze a slot in the "writer mid-flight" state
        // (odd sequence) with a *scrambled* payload. A reader must
        // report a miss — never act on the torn verdict — and the
        // bounded retries must fall back to the locked path.
        let c = DecisionCache::default();
        let k = key("alice", "read", "file:/x");
        c.insert(k.clone(), true);
        assert_eq!(c.lookup(&k), Some(true));
        let before = c.stats();

        c.table.read(|t, _| {
            let (_, slot, _) = t.locate(c.digest(&k.subject), &k.operation.0, &k.object);
            let s = slot.seq.load(Ordering::Relaxed);
            // Begin a write that never completes: odd sequence, then
            // scramble the verdict bit mid-payload.
            slot.seq.store(s + 1, Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            slot.meta.store(meta ^ ALLOW, Ordering::Relaxed);

            // The nested lookup re-enters the table snapshot (slow
            // path) — the seqlock probe sees the odd sequence, retries
            // out, and the locked fallback refuses the in-progress
            // slot: a miss, not a torn (flipped) verdict.
            assert_eq!(c.lookup(&k), None);

            // Finish the interrupted write, restoring the true verdict.
            slot.meta.store(meta, Ordering::Relaxed);
            slot.seq.store(s + 2, Ordering::Release);
        });

        let after = c.stats();
        assert!(
            after.read_retries > before.read_retries,
            "probe must have observed the in-flight writer: {after:?}"
        );
        assert!(
            after.read_fallbacks > before.read_fallbacks,
            "bounded retries must have fallen back to the locked path: {after:?}"
        );
        assert_eq!(after.misses, before.misses + 1);
        // Once the writer completes, the entry is visible again.
        assert_eq!(c.lookup(&k), Some(true));
    }

    #[test]
    fn seqlock_validity_revoked_between_read_and_fill_discards_verdict() {
        // The insert_if discipline: a verdict computed before an epoch
        // bump must be discarded when the validity predicate — checked
        // inside the subregion writer lock — no longer holds.
        let c = DecisionCache::default();
        let k = key("alice", "read", "file:/x");
        assert!(!c.insert_if(k.clone(), true, || false), "stale fill stored");
        assert_eq!(c.lookup(&k), None, "discarded verdict must not hit");
        assert!(c.insert_if(k.clone(), true, || true));
        assert_eq!(c.lookup(&k), Some(true));
    }

    #[test]
    fn seqlock_concurrent_flips_never_yield_wrong_verdict() {
        // Writers continuously rewrite two key classes with *opposite*
        // verdicts while readers hammer lookups: any torn fingerprint
        // or payload crossing classes would surface as a wrong verdict.
        let c = Arc::new(DecisionCache::new(DecisionCacheConfig {
            // Tiny table so keys genuinely collide and displace.
            total_slots: 8,
            subregion_slots: 4,
        }));
        let keys: Vec<(CacheKey, bool)> = (0..16)
            .map(|i| (key(&format!("u{i}"), "read", "file:/hot"), i % 2 == 0))
            .collect();
        let mut handles = Vec::new();
        for w in 0..2 {
            let c = Arc::clone(&c);
            let keys = keys.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..2_000 {
                    let (k, allow) = &keys[(round + w * 7) % keys.len()];
                    c.insert(k.clone(), *allow);
                }
            }));
        }
        for _ in 0..4 {
            let c = Arc::clone(&c);
            let keys = keys.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..10_000 {
                    let (k, allow) = &keys[round % keys.len()];
                    if let Some(got) = c.lookup(k) {
                        assert_eq!(
                            got, *allow,
                            "seqlock served a wrong verdict for {k:?} — torn read acted on"
                        );
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn seqlock_stats_reconcile_under_contention() {
        // Striped counters must lose nothing: lookups from many
        // threads each count exactly one hit or miss, with retries and
        // fallbacks tracked separately.
        let c = Arc::new(DecisionCache::default());
        let k = key("hot", "read", "file:/shared");
        c.insert(k.clone(), true);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            let k = k.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1_000 {
                    assert_eq!(c.lookup(&k), Some(true));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.stats();
        assert_eq!(s.hits, 8 * 1_000);
        assert_eq!(s.misses, 0);
    }
}
