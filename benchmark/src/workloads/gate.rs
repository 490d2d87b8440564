//! The world `hit_steady` and `policy_churn` share: one owner, 64
//! candidate objects whose `read` goal is `Gate says g0`, 8 readers and
//! 2048 bystanders holding that label, and the set of (reader, object)
//! pairs that *stay resident* in the decision cache.
//!
//! The bystanders give the kernel's hot process index a realistic
//! size and make one build long enough (≈ 0.3 s; a spawn republishes
//! the whole index, so set-up is quadratic in them) for `setup_s` to
//! repeat. The resident set matters because the cache is direct
//! mapped: 64 objects hash into 256 subregions and 8 readers into 16
//! sets, so some pairs evict each other on every visit — a read set
//! taken naively runs at ≈ 80 % hits and measures the refill path, not
//! the hit path.

use crate::driver::Recorder;
use nexus_core::{LabelHandle, ResourceId};
use nexus_kernel::Nexus;
use nexus_nal::{parse, Formula, Principal};
use std::sync::Arc;

/// Candidate objects.
pub const OBJECTS: usize = 64;
/// Readers whose pairs form the read set.
pub const READERS: usize = 8;
/// Label-holding processes that are never read from.
pub const BYSTANDERS: usize = 2048;
/// Never-read objects, candidates for the unrelated `setgoal`.
pub const COLD: usize = 16;
/// The guarded operation.
pub const OP: &str = "read";

/// See the module docs.
pub struct GateWorld {
    /// The kernel.
    pub nexus: Arc<Nexus>,
    /// Owner of every object (the only caller of `setgoal`).
    pub owner: u64,
    /// `Gate says g0`.
    pub goal: Formula,
    /// The candidate objects.
    pub objects: Vec<ResourceId>,
    /// Cold objects whose `setgoal` leaves the resident set resident.
    pub cold: Vec<ResourceId>,
    /// A process without the label: always denied.
    pub stranger: u64,
    /// Holder of the label `policy_churn` moves.
    pub victim: u64,
    /// Where it moves to.
    pub vault: u64,
    /// The moving label, in `victim`'s store.
    pub token: LabelHandle,
    /// (pid, object index) pairs that all hit once warm.
    pub resident: Vec<(u64, u32)>,
}

impl GateWorld {
    /// boot → populate → warm → select the resident set.
    pub fn build(rec: &mut Recorder) -> GateWorld {
        let nexus = Arc::new(super::boot());
        let goal = parse("Gate says g0").expect("goal parses");
        let owner = nexus.spawn("owner", b"img");
        let object_named = |name: String| {
            let object = ResourceId::new("bench", name);
            nexus.grant_ownership(owner, &object).expect("grant");
            nexus
                .sys_setgoal(owner, object.clone(), OP, goal.clone())
                .expect("setgoal");
            object
        };
        let objects: Vec<ResourceId> = (0..OBJECTS)
            .map(|i| object_named(format!("obj{i}")))
            .collect();
        let cold: Vec<ResourceId> = (0..COLD)
            .map(|i| object_named(format!("cold{i}")))
            .collect();

        let gate = Principal::name("Gate");
        let g0 = parse("g0").expect("label parses");
        let mut holder = |name: String| {
            let open = rec.begin("spawn");
            let pid = nexus.spawn(&name, b"img");
            rec.end(open);
            let open = rec.begin("kernel_label");
            let handle = nexus
                .kernel_label(pid, gate.clone(), g0.clone())
                .expect("label");
            rec.end(open);
            (pid, handle)
        };
        let readers: Vec<u64> = (0..READERS)
            .map(|i| holder(format!("reader{i}")).0)
            .collect();
        for i in 0..BYSTANDERS {
            holder(format!("bystander{i}"));
        }
        let (victim, token) = holder("victim".into());
        let vault = nexus.spawn("vault", b"img");
        let stranger = nexus.spawn("stranger", b"img");

        let mut world = GateWorld {
            nexus,
            owner,
            goal,
            objects,
            cold,
            stranger,
            victim,
            vault,
            token,
            resident: readers
                .iter()
                .flat_map(|&pid| (0..OBJECTS as u32).map(move |oi| (pid, oi)))
                .collect(),
        };
        world.select_resident();
        world.select_cold();
        world
    }

    /// One pass over the read set; returns, per pair, whether the call
    /// was allowed *and* served from the decision cache.
    pub fn probe(&self) -> Vec<bool> {
        self.resident
            .iter()
            .map(|&(pid, oi)| {
                let before = self.nexus.decision_cache_stats().hits;
                let allow = self.nexus.authorize(pid, OP, &self.objects[oi as usize]);
                matches!(allow, Ok(true)) && self.nexus.decision_cache_stats().hits > before
            })
            .collect()
    }

    /// Warm every pair, probe again, keep the pairs that hit; repeat
    /// until a whole pass hits.
    fn select_resident(&mut self) {
        loop {
            self.probe();
            let hit = self.probe();
            if hit.iter().all(|&h| h) {
                break;
            }
            let mut keep = hit.into_iter();
            self.resident
                .retain(|_| keep.next().expect("one flag per pair"));
        }
        assert!(!self.resident.is_empty(), "no pair stays resident");
    }

    /// Keep the cold objects whose `setgoal` (its own authorization
    /// fill and its subregion invalidation) evicts no resident pair.
    fn select_cold(&mut self) {
        let candidates = std::mem::take(&mut self.cold);
        for object in candidates {
            self.nexus
                .sys_setgoal(self.owner, object.clone(), OP, self.goal.clone())
                .expect("setgoal");
            // A miss here also refills, so the set is whole again
            // before the next candidate is tried.
            if self.probe().iter().all(|&h| h) {
                self.cold.push(object);
            }
        }
        assert!(
            !self.cold.is_empty(),
            "every cold setgoal evicts a resident pair"
        );
    }
}
