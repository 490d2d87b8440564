//! The label-removal protocol, decided over every interleaving rather
//! than sampled by a stress run.
//!
//! Three actors take the atomic steps the kernel takes, on the real
//! [`LabelStore`], [`DecisionCache`], [`Guard`] and generation word:
//!
//! * the **remover** (`Nexus::withdraw`): delete the label → bump the
//!   subject's generation → bump the removal epoch → return;
//! * the **evaluator** (`Nexus::evaluate_authz`): take the stamp → read
//!   the generation → read the labels → decide (`prove_prepared`, then
//!   `check_batch`, in a guard whose prover session already holds a
//!   proof resting on the very label the remover deletes, and is told
//!   nothing of the removal) → validate the stamp → `fill_if` under
//!   that validation, and hand the verdict back;
//! * the **prober** (`Nexus::route_authz`), invoked only once the
//!   remover has returned: read the generation → probe.
//!
//! Steps interleave freely: no lock is modelled, so the schedules
//! explored are a superset of the kernel's (there the delete and the
//! generation bump share one `ipds` write lock, which the label read
//! waits for). A depth-first enumerator runs every schedule on a world
//! rebuilt from scratch and asserts the one claim, a reachability
//! property looked for in every state a schedule passes through: *no
//! verdict that leaves after the removal returned — probed or
//! evaluated — is an allow resting on the removed label.* That covers
//! the memo and one removal in all interleavings: the goal needs a
//! derivation, the warm-up memoised one, and whichever side of the
//! delete the evaluator reads its labels on, what it is served is
//! guarded by the leaves it rests on. An evaluator whose validation
//! fails simply ends; the kernel's retry is an evaluator that starts
//! later, which the enumeration already contains.
//!
//! That the enumerator can see is shown the usual way, by sabotage: a
//! door that forgets the generation bump, and an evaluator that reads
//! its labels before its name, are each caught with the schedule that
//! exposes them.

use nexus_core::{
    AccessRequest, AuthorityRegistry, DecisionCache, DecisionCacheConfig, Guard, Label,
    LabelHandle, LabelStore, OpName, ProofRef, ResourceId,
};
use nexus_nal::{parse, CredSet, Creds, Formula, PreparedGoal, Principal, ProverConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const OP: &str = "read";
const SUBJECT: &str = "/proc/ipd/1";
const OBJECT: &str = "file:/x";

/// Everything the three actors share, and where each of them stands.
struct World {
    store: LabelStore,
    cache: DecisionCache,
    object: ResourceId,
    /// Its prover session was warmed in [`World::new`].
    guard: Guard,
    /// `Owner says g`: no label says it, so it takes a derivation —
    /// the hand-off label plus the payload the remover deletes.
    goal: Formula,
    gate: LabelHandle,
    /// The subject's label-removal generation.
    generation: AtomicU64,
    /// The kernel's label-removal epoch (the stamp's third word).
    epoch: AtomicU64,
    remover_pc: usize,
    evaluator_pc: usize,
    prober_pc: usize,
    // The evaluator's and the prober's locals.
    stamp: u64,
    eval_generation: u64,
    held: Option<Arc<CredSet>>,
    allow: bool,
    probe_generation: u64,
    /// Verdicts that left after the remover returned and were allows.
    late_allows: Vec<&'static str>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Actor {
    Remover,
    Evaluator,
    Prober,
}

const REMOVER_STEPS: usize = 4;
const EVALUATOR_STEPS: usize = 6;
const PROBER_STEPS: usize = 2;

impl World {
    fn new() -> World {
        let mut store = LabelStore::new();
        store.insert(Label {
            speaker: Principal::name("Owner"),
            statement: parse("Gate speaksfor Owner").unwrap(),
        });
        let gate = store.insert(Label {
            speaker: Principal::name("Gate"),
            statement: parse("g").unwrap(),
        });
        let (guard, goal) = (Guard::new(), parse("Owner says g").unwrap());
        // The memo under test: a finished proof resting on `gate`.
        assert!(decide(&guard, &goal, &store.formulas_snapshot()));
        assert!(
            guard.prover_memo_len() > 0,
            "a bare credential match memoises nothing"
        );
        World {
            store,
            // One slot: the smallest table, built once per schedule.
            cache: DecisionCache::new(DecisionCacheConfig {
                total_slots: 1,
                subregion_slots: 1,
            }),
            object: ResourceId(OBJECT.into()),
            guard,
            goal,
            gate,
            generation: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            remover_pc: 0,
            evaluator_pc: 0,
            prober_pc: 0,
            stamp: 0,
            eval_generation: 0,
            held: None,
            allow: false,
            probe_generation: 0,
            late_allows: Vec::new(),
        }
    }

    fn removal_returned(&self) -> bool {
        self.remover_pc == REMOVER_STEPS
    }

    fn enabled(&self) -> Vec<Actor> {
        let mut on = Vec::new();
        if self.remover_pc < REMOVER_STEPS {
            on.push(Actor::Remover);
        }
        if self.evaluator_pc < EVALUATOR_STEPS {
            on.push(Actor::Evaluator);
        }
        if self.removal_returned() && self.prober_pc < PROBER_STEPS {
            on.push(Actor::Prober);
        }
        on
    }

    fn subject_at(&self, generation: u64) -> nexus_core::SubjectDigest {
        self.cache.digest(&Principal::name(SUBJECT)).at(generation)
    }

    /// Run `actor`'s next atomic step under `protocol`.
    fn step(&mut self, actor: Actor, protocol: Protocol) {
        match actor {
            Actor::Remover => {
                match self.remover_pc {
                    0 => drop(self.store.delete(self.gate).unwrap()),
                    1 => (protocol.rename)(&self.cache, &self.generation),
                    2 => drop(self.epoch.fetch_add(1, Ordering::Relaxed)),
                    _ => {} // return
                }
                self.remover_pc += 1;
            }
            Actor::Evaluator => {
                match protocol.evaluator_order[self.evaluator_pc] {
                    0 => self.stamp = self.epoch.load(Ordering::Relaxed),
                    1 => self.eval_generation = self.generation.load(Ordering::Acquire),
                    2 => self.held = Some(self.store.formulas_snapshot()),
                    3 => {
                        let held = self.held.as_ref().expect("labels were read");
                        self.allow = decide(&self.guard, &self.goal, held);
                    }
                    4 => {
                        if self.epoch.load(Ordering::Relaxed) != self.stamp {
                            // Stamp moved: no verdict leaves, nothing is filed.
                            self.evaluator_pc = EVALUATOR_STEPS;
                            return;
                        }
                        // The verdict leaves on this validation.
                        if self.allow && self.removal_returned() {
                            self.late_allows.push("evaluate");
                        }
                    }
                    _ => {
                        let (epoch, stamp) = (&self.epoch, self.stamp);
                        self.cache.fill_if(
                            self.subject_at(self.eval_generation),
                            OP,
                            &self.object,
                            self.allow,
                            || epoch.load(Ordering::Relaxed) == stamp,
                        );
                    }
                }
                self.evaluator_pc += 1;
            }
            Actor::Prober => {
                match self.prober_pc {
                    0 => self.probe_generation = self.generation.load(Ordering::Acquire),
                    _ => {
                        let subject = self.subject_at(self.probe_generation);
                        if self.cache.probe(subject, OP, &self.object) == Some(true) {
                            self.late_allows.push("probe");
                        }
                    }
                }
                self.prober_pc += 1;
            }
        }
    }
}

/// The evaluator's *decide* step, as `Nexus::evaluate_authz` takes it:
/// auto-prove in the guard's persistent session, then check what came
/// back against the same credentials.
fn decide(guard: &Guard, goal: &Formula, held: &CredSet) -> bool {
    let labels = Creds::new(held);
    let asked = [PreparedGoal {
        goal,
        credentials: labels,
    }];
    let proved = guard
        .prove_prepared(&asked, ProverConfig::default())
        .remove(0);
    let req = AccessRequest {
        subject: &Principal::name(SUBJECT),
        operation: &OpName::from(OP),
        object: &ResourceId(OBJECT.into()),
        proof: proved.proof.as_deref().map(ProofRef::Checked),
        labels,
    };
    guard.check_batch(&[req], goal, &AuthorityRegistry::new())[0].allow
}

/// The two things the claim rests on, each replaceable by a broken one
/// so the enumerator can be shown to see the difference.
#[derive(Clone, Copy)]
struct Protocol {
    /// How the remover bumps the generation.
    rename: fn(&DecisionCache, &AtomicU64),
    /// The order the evaluator takes its six steps in.
    evaluator_order: [usize; EVALUATOR_STEPS],
}

/// What the kernel does: the real door, and the name read before the
/// labels.
const KERNEL: Protocol = Protocol {
    rename: DecisionCache::rename,
    evaluator_order: [0, 1, 2, 3, 4, 5],
};

/// Run every schedule; returns how many there were and the first one
/// (if any) on which an allow left after the removal had returned.
fn explore(protocol: Protocol) -> (usize, Option<Vec<Actor>>) {
    let mut schedules = 0;
    let mut witness = None;
    // The choice (index into the enabled set) taken at each step of
    // the schedule being replayed; past its end, the first enabled.
    let mut prefix: Vec<usize> = Vec::new();
    loop {
        let mut world = World::new();
        let mut trace: Vec<(usize, usize)> = Vec::new();
        let mut schedule: Vec<Actor> = Vec::new();
        loop {
            let enabled = world.enabled();
            if enabled.is_empty() {
                break;
            }
            let pick = prefix.get(trace.len()).copied().unwrap_or(0);
            trace.push((pick, enabled.len()));
            world.step(enabled[pick], protocol);
            schedule.push(enabled[pick]);
        }
        schedules += 1;
        if witness.is_none() && !world.late_allows.is_empty() {
            witness = Some(schedule);
        }
        // Backtrack to the deepest step with an untried alternative.
        loop {
            match trace.pop() {
                None => return (schedules, witness),
                Some((pick, n)) if pick + 1 < n => {
                    prefix = trace.iter().map(|&(p, _)| p).collect();
                    prefix.push(pick + 1);
                    break;
                }
                Some(_) => {}
            }
        }
    }
}

#[test]
fn seqlock_no_schedule_serves_the_removed_label_after_the_removal_returned() {
    let (schedules, witness) = explore(KERNEL);
    assert!(
        witness.is_none(),
        "an allow resting on the removed label left after the removal returned: {witness:?}"
    );
    // 924 orders of 4 remover, 6 evaluator and — after the remover's
    // last — 2 prober steps; an evaluator whose stamp moved ends at its
    // validation, which merges some. Exact, so a change to the step
    // lists (or an enumerator that stops early) shows up here.
    assert_eq!(schedules, 581);
}

#[test]
fn seqlock_the_enumerator_finds_the_stale_allow_when_the_rename_is_missing() {
    // The checker is not vacuous: a door that forgets the generation
    // bump is caught, with the schedule that exposes it.
    let (_, witness) = explore(Protocol {
        rename: |_, _| {},
        ..KERNEL
    });
    let witness = witness.expect("a removal that renames nothing must be caught");
    let fill = witness
        .iter()
        .rposition(|&a| a == Actor::Evaluator)
        .expect("the evaluator ran");
    let probe = witness
        .iter()
        .rposition(|&a| a == Actor::Prober)
        .expect("the prober ran");
    assert!(
        fill < probe,
        "the stale fill precedes the probe: {witness:?}"
    );
}

#[test]
fn seqlock_the_enumerator_finds_the_stale_allow_when_the_name_is_read_after_the_labels() {
    // The ordering rule is load-bearing: an evaluator that reads the
    // labels first can pair the old labels with the new name, and file
    // its allow exactly where the next probe looks.
    let (_, witness) = explore(Protocol {
        evaluator_order: [0, 2, 1, 3, 4, 5],
        ..KERNEL
    });
    assert!(
        witness.is_some(),
        "labels read before the generation must be caught"
    );
}
