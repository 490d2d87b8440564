//! An in-process cluster: `n` booted kernels, their BRB endpoints,
//! and the seeded network simulator, driven to quiescence step by
//! step. This is the harness every distributed test and the ledger's
//! `cluster_revoke` workload build on — all nondeterminism lives in the simulator's
//! seed, so any failing schedule replays from one `u64`.

use crate::node::DistNode;
use crate::orset::{Dot, LabelOp, LabelRecord};
use crate::sim::{NetCounters, SimConfig, SimNet};
use crate::wire::{Membership, Message, NodeId, OpEnvelope, OpSigner, Payload, SimEd25519};
use nexus_core::ResourceId;
use nexus_kernel::{BootImages, Nexus, NexusConfig};
use nexus_nal::parse;
use nexus_storage::RamDisk;
use nexus_tpm::Tpm;
use std::sync::Arc;

/// A cluster of replicated Nexus kernels over a simulated network.
pub struct Cluster {
    nodes: Vec<DistNode>,
    net: SimNet,
    seed: u64,
}

impl Cluster {
    /// Boot `n` kernels over a perfect (random-order) network.
    pub fn new(n: usize, seed: u64) -> Cluster {
        Cluster::with_config(n, SimConfig::perfect(seed))
    }

    /// Boot `n` kernels over a network with the given fault schedule.
    /// Each kernel gets its own TPM (distinct seeds) and disk; node
    /// keys derive from the schedule seed, so the whole cluster is a
    /// function of `(n, cfg)`.
    pub fn with_config(n: usize, cfg: SimConfig) -> Cluster {
        assert!(n >= 1, "a cluster needs at least one node");
        let seed = cfg.seed;
        let signers: Vec<SimEd25519> = (0..n as NodeId)
            .map(|i| SimEd25519::from_seed(seed, i))
            .collect();
        let membership = Membership::new(signers.iter().map(|s| s.public()).collect());
        let nodes = (0..n as NodeId)
            .map(|i| {
                let nexus = Nexus::boot(
                    Tpm::new_with_seed(0xd157_0000 ^ seed ^ i as u64),
                    RamDisk::new(),
                    &BootImages::standard(),
                    NexusConfig::default(),
                )
                .expect("cluster node boot");
                DistNode::new(i, seed, membership.clone(), Arc::new(nexus))
            })
            .collect();
        Cluster {
            nodes,
            net: SimNet::new(cfg),
            seed,
        }
    }

    /// The schedule seed (print on failure; replays the run).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Cluster size.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when empty (never — `new` asserts — but clippy insists
    /// `len` has a partner).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A node.
    pub fn node(&self, i: NodeId) -> &DistNode {
        &self.nodes[i as usize]
    }

    /// A node, mutably.
    pub fn node_mut(&mut self, i: NodeId) -> &mut DistNode {
        &mut self.nodes[i as usize]
    }

    /// Node `i`'s kernel.
    pub fn nexus(&self, i: NodeId) -> Arc<Nexus> {
        Arc::clone(self.node(i).nexus())
    }

    /// Transport counters.
    pub fn net_counters(&self) -> NetCounters {
        self.net.counters()
    }

    fn route(&mut self, from: NodeId, outgoing: Vec<(NodeId, Message)>) {
        for (to, msg) in outgoing {
            self.net.send(from, to, msg);
        }
    }

    /// Broadcast `op` from `node`'s endpoint and put its Sends on the
    /// wire.
    fn originate(&mut self, node: NodeId, op: LabelOp) {
        let n = &mut self.nodes[node as usize];
        let step = n.brb.broadcast(op, &n.signer);
        self.route(node, step.outgoing);
    }

    /// One anti-entropy pass at each of `nodes`, in order.
    fn retransmit(&mut self, nodes: impl Iterator<Item = NodeId>) {
        for node in nodes {
            let n = &mut self.nodes[node as usize];
            let step = n.brb.anti_entropy(&n.signer);
            self.route(node, step.outgoing);
        }
    }

    // ---- originating ops ----

    /// Broadcast a mint of `speaker says statement` for `subject`,
    /// originated at `node`. Returns the record being replicated; it
    /// appears on each node only once delivery quorum is reached
    /// there (the origin included — no node trusts its own op early).
    pub fn mint(
        &mut self,
        node: NodeId,
        subject: &str,
        speaker: &str,
        statement: &str,
    ) -> LabelRecord {
        let record = LabelRecord::new(subject, speaker, statement);
        let dot = self.node_mut(node).next_dot();
        let op = LabelOp::Mint {
            dot,
            label: record.clone(),
        };
        self.originate(node, op);
        record
    }

    /// Broadcast a revocation of `record`, revoking the dots `node`
    /// has observed. Returns false (and sends nothing) if the record
    /// is not visible at `node`.
    pub fn revoke(&mut self, node: NodeId, record: &LabelRecord) -> bool {
        let dots = self.node(node).observed_dots(record);
        if dots.is_empty() {
            return false;
        }
        let op = LabelOp::Revoke {
            label: record.clone(),
            dots,
        };
        self.originate(node, op);
        true
    }

    /// Broadcast an atomic transfer of `record` to `to_subject`.
    /// Returns the destination record, or `None` if `record` is not
    /// visible at `node`.
    pub fn transfer(
        &mut self,
        node: NodeId,
        record: &LabelRecord,
        to_subject: &str,
    ) -> Option<LabelRecord> {
        let dots = self.node(node).observed_dots(record);
        if dots.is_empty() {
            return None;
        }
        let dot = self.node_mut(node).next_dot();
        let op = LabelOp::Transfer {
            label: record.clone(),
            dots,
            to_subject: to_subject.to_string(),
            dot,
        };
        self.originate(node, op);
        Some(LabelRecord::new(
            to_subject,
            &record.speaker,
            &record.statement,
        ))
    }

    // ---- driving the network ----

    /// Deliver one message (random eligible flight). Returns false
    /// when nothing is in flight.
    pub fn step(&mut self) -> bool {
        match self.net.step() {
            Some((to, msg)) => {
                let outgoing = self.nodes[to as usize].handle(&msg);
                self.route(to, outgoing);
                true
            }
            None => false,
        }
    }

    /// Drive until no messages are in flight (or `max_steps` runs
    /// out). Returns the number of deliveries made.
    pub fn run_to_quiescence(&mut self, max_steps: usize) -> usize {
        let mut steps = 0;
        while steps < max_steps && self.step() {
            steps += 1;
        }
        steps
    }

    /// Every node retransmits its known Sends (the anti-entropy pass
    /// run after a partition heals).
    pub fn anti_entropy(&mut self) {
        self.retransmit(0..self.nodes.len() as NodeId);
    }

    /// Do all replicas agree (pairwise or-set agreement)?
    pub fn converged(&self) -> bool {
        self.nodes
            .windows(2)
            .all(|w| w[0].orset.agrees_with(&w[1].orset))
    }

    /// Drive to quiescence, then run anti-entropy rounds until the
    /// replicas converge (or `max_rounds` runs out). Returns true on
    /// convergence.
    pub fn run_until_converged(&mut self, max_rounds: usize) -> bool {
        for _ in 0..max_rounds {
            self.run_to_quiescence(usize::MAX);
            if self.converged() {
                return true;
            }
            self.anti_entropy();
        }
        self.run_to_quiescence(usize::MAX);
        self.converged()
    }

    /// Is `record` visible at node `i`?
    pub fn has_label(&self, i: NodeId, record: &LabelRecord) -> bool {
        self.node(i).contains(record)
    }

    // ---- per-node authorization config ----
    //
    // Goals and ownership are node-local configuration (only
    // credentials replicate), so tests install them on every node.

    /// On every node: install `goal` (NAL concrete syntax) for
    /// (`op`, `object`) via an owning admin process — the normal
    /// grant-ownership → setgoal path.
    pub fn install_goal(&mut self, object: &ResourceId, op: &str, goal: &str) {
        let formula = parse(goal).expect("goal parses");
        for node in &mut self.nodes {
            let admin = node.subject_pid("goal-admin");
            let nexus = Arc::clone(node.nexus());
            nexus
                .grant_ownership(admin, object)
                .expect("grant ownership");
            nexus
                .sys_setgoal(admin, object.clone(), op, formula.clone())
                .expect("setgoal");
        }
    }

    /// Authorize `subject` for (`op`, `object`) at node `i` — the
    /// replicated analog of a local `authorize` call. Subjects that
    /// have never appeared at this node hold no credentials and are
    /// denied.
    pub fn authorize(&mut self, i: NodeId, subject: &str, op: &str, object: &ResourceId) -> bool {
        let node = self.node_mut(i);
        let pid = node.subject_pid(subject);
        node.nexus().authorize(pid, op, object).unwrap_or(false)
    }

    // ---- Byzantine injection ----
    //
    // These craft raw messages with a member's real key (a compromised
    // insider, the strongest position short of breaking crypto) and
    // push them straight into the network, bypassing the node's own
    // state machine.

    /// `byz` equivocates: envelope A goes to the first half of the
    /// cluster, a conflicting envelope B (same slot) to the rest.
    /// Returns the two conflicting records.
    pub fn inject_equivocation(
        &mut self,
        byz: NodeId,
        seq: u64,
        subject_a: &str,
        subject_b: &str,
    ) -> (LabelRecord, LabelRecord) {
        let rec_a = LabelRecord::new(subject_a, "CA", "ok");
        let rec_b = LabelRecord::new(subject_b, "CA", "ok");
        let signer = &self.nodes[byz as usize].signer;
        let env_a = OpEnvelope::sign(
            byz,
            seq,
            LabelOp::Mint {
                dot: Dot::new(byz, u64::MAX - seq),
                label: rec_a.clone(),
            },
            signer,
        );
        let env_b = OpEnvelope::sign(
            byz,
            seq,
            LabelOp::Mint {
                dot: Dot::new(byz, u64::MAX - seq),
                label: rec_b.clone(),
            },
            signer,
        );
        let msg_a = Message::sign(byz, Payload::Send(env_a), signer);
        let msg_b = Message::sign(byz, Payload::Send(env_b), signer);
        // Overlapping halves: node `half` receives both conflicting
        // Sends and witnesses the equivocation directly; the others
        // see only one side and must still stay in agreement.
        let half = self.nodes.len() / 2;
        for to in 0..self.nodes.len() as NodeId {
            if to as usize <= half {
                self.net.send(byz, to, msg_a.clone());
            }
            if to as usize >= half {
                self.net.send(byz, to, msg_b.clone());
            }
        }
        (rec_a, rec_b)
    }

    /// `byz` forges: a Send claiming `victim` as origin, signed with
    /// `byz`'s key (it does not hold the victim's). Honest nodes must
    /// reject it outright.
    pub fn inject_forged(&mut self, byz: NodeId, victim: NodeId, subject: &str) -> LabelRecord {
        let rec = LabelRecord::new(subject, "CA", "ok");
        let signer = &self.nodes[byz as usize].signer;
        let env = OpEnvelope::sign(
            victim,
            u64::MAX,
            LabelOp::Mint {
                dot: Dot::new(victim, u64::MAX),
                label: rec.clone(),
            },
            signer,
        );
        let msg = Message::sign(byz, Payload::Send(env), signer);
        for to in 0..self.nodes.len() as NodeId {
            self.net.send(byz, to, msg.clone());
        }
        rec
    }

    /// `byz` mounts the shared-dot attack (REVIEW finding 1): two
    /// validly-signed mints of *different* labels sharing one dot
    /// (its own actor id) in two slots, plus a revocation of the
    /// first label's dot in a third — all in flight at once, so
    /// replicas apply them in schedule-dependent orders. With
    /// `(label, dot)`-keyed tombstones every order converges: the
    /// revoked label dies, the dot-sharing label survives everywhere.
    /// Returns (revoked record, surviving record).
    pub fn inject_shared_dot_attack(
        &mut self,
        byz: NodeId,
        subject_a: &str,
        subject_b: &str,
    ) -> (LabelRecord, LabelRecord) {
        let rec_a = LabelRecord::new(subject_a, "CA", "ok");
        let rec_b = LabelRecord::new(subject_b, "CA", "ok");
        let dot = self.node_mut(byz).next_dot();
        let ops = [
            LabelOp::Mint {
                dot,
                label: rec_a.clone(),
            },
            LabelOp::Mint {
                dot,
                label: rec_b.clone(),
            },
            LabelOp::Revoke {
                label: rec_a.clone(),
                dots: vec![dot],
            },
        ];
        for op in ops {
            self.originate(byz, op);
        }
        (rec_a, rec_b)
    }

    /// `byz` broadcasts a validly-signed mint whose dot sits in
    /// `victim`'s actor namespace (pre-colliding with the victim's
    /// future honest mint counter `counter`). The broadcast layer
    /// delivers it — the envelope is genuine — but every honest node
    /// must reject it at the application layer (origin-unbound dot).
    pub fn inject_foreign_dot_mint(
        &mut self,
        byz: NodeId,
        victim: NodeId,
        counter: u64,
        subject: &str,
    ) -> LabelRecord {
        let rec = LabelRecord::new(subject, "CA", "ok");
        let op = LabelOp::Mint {
            dot: Dot::new(victim, counter),
            label: rec.clone(),
        };
        self.originate(byz, op);
        rec
    }

    /// Drop node `crashed` from the cluster's anti-entropy loop and
    /// retransmit from everyone else — models a crashed origin whose
    /// Send can never be replayed by itself. Totality must not depend
    /// on it: surviving voters re-announce their own Echo/Ready.
    pub fn anti_entropy_without(&mut self, crashed: NodeId) {
        self.retransmit((0..self.nodes.len() as NodeId).filter(|&i| i != crashed));
    }

    /// `byz` replays every Send it knows, `copies` times (a replay
    /// storm). Honest or-sets are idempotent, so state must not move.
    pub fn inject_replay(&mut self, byz: NodeId, copies: usize) {
        self.retransmit(std::iter::repeat_n(byz, copies));
    }
}
