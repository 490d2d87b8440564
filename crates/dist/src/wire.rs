//! Wire format, signing surface, and the Byzantine reliable broadcast
//! (BRB) state machine.
//!
//! The protocol is Bracha's classic three-phase reliable broadcast
//! over a fixed membership of `n = 3f + 1` (tolerating `f` Byzantine
//! nodes; smaller clusters get `f = (n-1)/3`):
//!
//! 1. the origin signs an [`OpEnvelope`] and **Send**s it to everyone;
//! 2. on the first valid Send for `(origin, seq)`, a node **Echo**s
//!    the envelope's digest to everyone;
//! 3. on `⌈(n+f+1)/2⌉` matching Echoes — or `f + 1` matching Readies
//!    (amplification) — a node sends **Ready**;
//! 4. on `2f + 1` matching Readies, the node **delivers** the op.
//!
//! Agreement holds per `(origin, seq)` slot: two honest nodes can
//! never deliver different ops for the same slot, because conflicting
//! digests cannot both reach the echo quorum. An equivocating origin
//! therefore gets at most one of its conflicting ops delivered —
//! possibly neither — but never splits the honest nodes. A slot lives
//! open → delivered and holds each envelope once, every vote being a
//! digest into that one store (see `Slot`).
//!
//! Every message carries two signatures: the origin's signature over
//! the envelope (so an op cannot be forged in another node's name even
//! when relayed) and the immediate sender's link signature over the
//! whole payload (so Echo/Ready votes cannot be stuffed). Signing goes
//! through the [`OpSigner`] trait; the in-tree implementation is the
//! vendored ed25519 stand-in, and a real Ed25519 signer can slot in
//! without touching the state machine.
//!
//! What is checked when. **Per message:** the link signature, always —
//! it covers the sender, the phase and every byte of the envelope
//! carried. **Per slot:** the origin signature and the digest, the
//! first time the slot meets that envelope. A broadcast among `n`
//! nodes carries one envelope in `2n + 1` messages to each of them, so
//! [`BrbState::handle`] first asks the slot whether it already holds
//! an envelope *equal to the incoming one in all four fields* (origin,
//! seq, op, origin signature); if it does, the origin check it would
//! run is a deterministic function of exactly those bytes and the
//! fixed membership, and already came out true, and the digest is a
//! function of the same bytes — so the stored digest is taken and both
//! are skipped. Anything else — a new slot, an equivocating origin's
//! second envelope, one flipped bit of a held one, an envelope a
//! delivered slot has compacted away — is verified and hashed in full
//! by the same code as ever. The comparison is by value and local:
//! nothing about an envelope's validity or digest travels in a message
//! or in the shared handle an [`OpEnvelope`] is, so a real transport
//! pays what the simulator pays.

use crate::orset::{Dot, LabelOp, LabelRecord};
use ed25519_dalek::{Signature, Signer, SigningKey, Verifier, VerifyingKey};
use sha2::{Digest as _, Sha256};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Deref;
use std::sync::Arc;

/// Cluster-wide node identifier (index into the membership table).
pub type NodeId = u32;

/// A SHA-256 digest of an envelope's canonical encoding — the value
/// echo/ready votes are counted against.
pub type OpDigest = [u8; 32];

// ---- canonical encoding ----
//
// Hand-rolled length-prefixed encoding: deterministic, self-delimiting,
// no external serializer needed. Only ever hashed and signed — never
// decoded — so it stays write-only.

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u64).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_dot(out: &mut Vec<u8>, d: &Dot) {
    put_u64(out, d.actor as u64);
    put_u64(out, d.counter);
}

fn put_record(out: &mut Vec<u8>, r: &LabelRecord) {
    put_str(out, &r.subject);
    put_str(out, &r.speaker);
    put_str(out, &r.statement);
}

fn put_op(out: &mut Vec<u8>, op: &LabelOp) {
    match op {
        LabelOp::Mint { dot, label } => {
            out.push(1);
            put_dot(out, dot);
            put_record(out, label);
        }
        LabelOp::Revoke { label, dots } => {
            out.push(2);
            put_record(out, label);
            put_u64(out, dots.len() as u64);
            for d in dots {
                put_dot(out, d);
            }
        }
        LabelOp::Transfer {
            label,
            dots,
            to_subject,
            dot,
        } => {
            out.push(3);
            put_record(out, label);
            put_u64(out, dots.len() as u64);
            for d in dots {
                put_dot(out, d);
            }
            put_str(out, to_subject);
            put_dot(out, dot);
        }
    }
}

// ---- signing surface ----

/// The signing surface the broadcast layer needs from a node identity.
/// Implemented by [`SimEd25519`] over the vendored stand-in; a real
/// Ed25519 (or TPM-backed) signer implements the same two methods.
pub trait OpSigner: Send {
    /// The 32-byte public verification key peers hold for this node.
    fn public(&self) -> [u8; 32];
    /// Sign `msg`, returning the 64-byte signature.
    fn sign(&self, msg: &[u8]) -> [u8; 64];
}

/// [`OpSigner`] over the vendored ed25519-dalek stand-in.
pub struct SimEd25519 {
    key: SigningKey,
}

impl SimEd25519 {
    /// Derive a node keypair deterministically from a cluster seed and
    /// node id (test clusters must be replayable from one seed).
    pub fn from_seed(cluster_seed: u64, node: NodeId) -> SimEd25519 {
        let mut input = Vec::new();
        put_str(&mut input, "nexus-dist-node-key");
        put_u64(&mut input, cluster_seed);
        put_u64(&mut input, node as u64);
        let digest = Sha256::digest(&input);
        SimEd25519 {
            key: SigningKey::from_bytes(&digest),
        }
    }
}

impl OpSigner for SimEd25519 {
    fn public(&self) -> [u8; 32] {
        self.key.verifying_key().to_bytes()
    }

    fn sign(&self, msg: &[u8]) -> [u8; 64] {
        self.key.sign(msg).to_bytes()
    }
}

/// The fixed cluster membership: node id → verification key. BRB
/// assumes a static membership agreed out of band (cluster boot).
#[derive(Debug, Clone)]
pub struct Membership {
    keys: Vec<[u8; 32]>,
}

impl Membership {
    /// Build from the ordered list of node verification keys.
    pub fn new(keys: Vec<[u8; 32]>) -> Membership {
        Membership { keys }
    }

    /// Cluster size `n`.
    pub fn n(&self) -> usize {
        self.keys.len()
    }

    /// Tolerated Byzantine nodes: `f = (n - 1) / 3`.
    pub fn f(&self) -> usize {
        (self.n() - 1) / 3
    }

    /// Echo quorum `⌈(n + f + 1) / 2⌉`.
    pub fn echo_quorum(&self) -> usize {
        (self.n() + self.f() + 2) / 2
    }

    /// Ready amplification threshold `f + 1`.
    pub fn ready_amplify(&self) -> usize {
        self.f() + 1
    }

    /// Delivery threshold `2f + 1`.
    pub fn deliver_quorum(&self) -> usize {
        2 * self.f() + 1
    }

    /// The verification key registered for `node`.
    pub fn key_of(&self, node: NodeId) -> Option<[u8; 32]> {
        self.keys.get(node as usize).copied()
    }

    /// All node ids.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.n() as NodeId
    }
}

fn verify_sig(key: &[u8; 32], msg: &[u8], sig: &[u8; 64]) -> bool {
    match (VerifyingKey::from_bytes(key), Signature::from_slice(sig)) {
        (Ok(vk), Ok(s)) => vk.verify(msg, &s).is_ok(),
        _ => false,
    }
}

// ---- envelopes and messages ----

/// Starting capacity of a signable buffer. An honest op — a label of
/// three short strings and a few dots — encodes to well under this
/// with its header and signature, so the buffer is allocated once; a
/// longer one grows it.
const SIGNABLE_HINT: usize = 256;

/// The four fields of an [`OpEnvelope`], reached through its `Deref`.
#[derive(Debug, PartialEq, Eq)]
pub struct SignedOp {
    /// The originating node.
    pub origin: NodeId,
    /// The origin's per-node sequence number.
    pub seq: u64,
    /// The replicated label operation.
    pub op: LabelOp,
    /// Origin signature over [`OpEnvelope::signable`].
    pub sig: [u8; 64],
}

/// A broadcast operation bound to its origin: `(origin, seq)` names
/// the BRB slot, and `sig` is the origin's signature over the
/// canonical encoding — relayed unchanged inside Echo/Ready, so a
/// Byzantine relay cannot alter or forge the op.
///
/// An immutable shared handle: a clone — into a slot, a fan-out copy,
/// a simulated flight, a delivery — bumps a reference count instead of
/// copying the op's strings and dots. The handle carries the four
/// fields and nothing else: whether an envelope is valid, and what it
/// hashes to, is only ever what the receiving slot worked out itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpEnvelope(Arc<SignedOp>);

impl Deref for OpEnvelope {
    type Target = SignedOp;

    fn deref(&self) -> &SignedOp {
        &self.0
    }
}

impl OpEnvelope {
    /// The canonical byte string the origin signs.
    pub fn signable(origin: NodeId, seq: u64, op: &LabelOp) -> Vec<u8> {
        let mut out = Vec::with_capacity(SIGNABLE_HINT);
        put_str(&mut out, "nexus-dist-op");
        put_u64(&mut out, origin as u64);
        put_u64(&mut out, seq);
        put_op(&mut out, op);
        out
    }

    /// Build and origin-sign an envelope.
    pub fn sign(origin: NodeId, seq: u64, op: LabelOp, signer: &dyn OpSigner) -> OpEnvelope {
        let sig = signer.sign(&OpEnvelope::signable(origin, seq, &op));
        OpEnvelope(Arc::new(SignedOp {
            origin,
            seq,
            op,
            sig,
        }))
    }

    /// Digest the envelope (origin, seq, op, origin-sig) — the vote key.
    pub fn digest(&self) -> OpDigest {
        let mut out = OpEnvelope::signable(self.origin, self.seq, &self.op);
        put_bytes(&mut out, &self.sig);
        Sha256::digest(&out)
    }

    /// Verify the origin signature against `membership`.
    pub fn verify(&self, membership: &Membership) -> bool {
        match membership.key_of(self.origin) {
            Some(key) => verify_sig(
                &key,
                &OpEnvelope::signable(self.origin, self.seq, &self.op),
                &self.sig,
            ),
            None => false,
        }
    }
}

/// The three BRB phases. Echo and Ready carry the full envelope (not
/// just the digest) so late nodes can reconstruct the op from any
/// quorum — the origin signature inside keeps that relay unforgeable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Phase 1: the origin's broadcast.
    Send(OpEnvelope),
    /// Phase 2: a witness vote for the envelope's digest.
    Echo(OpEnvelope),
    /// Phase 3: a commitment to deliver.
    Ready(OpEnvelope),
}

impl Payload {
    /// The envelope inside.
    pub fn envelope(&self) -> &OpEnvelope {
        match self {
            Payload::Send(e) | Payload::Echo(e) | Payload::Ready(e) => e,
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Payload::Send(_) => 1,
            Payload::Echo(_) => 2,
            Payload::Ready(_) => 3,
        }
    }

    /// The canonical byte string the link signature covers.
    pub fn signable(&self, from: NodeId) -> Vec<u8> {
        let e = self.envelope();
        let mut out = Vec::with_capacity(SIGNABLE_HINT);
        put_str(&mut out, "nexus-dist-msg");
        put_u64(&mut out, from as u64);
        out.push(self.tag());
        put_u64(&mut out, e.origin as u64);
        put_u64(&mut out, e.seq);
        put_op(&mut out, &e.op);
        put_bytes(&mut out, &e.sig);
        out
    }
}

/// One point-to-point message: a phase payload, link-signed by the
/// immediate sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The immediate sender (whose Echo/Ready vote this is).
    pub from: NodeId,
    /// The phase payload.
    pub payload: Payload,
    /// Link signature by `from` over [`Payload::signable`].
    pub sig: [u8; 64],
}

impl Message {
    /// Build and link-sign a message.
    pub fn sign(from: NodeId, payload: Payload, signer: &dyn OpSigner) -> Message {
        let sig = signer.sign(&payload.signable(from));
        Message { from, payload, sig }
    }

    /// Verify the link signature against `membership`.
    pub fn verify(&self, membership: &Membership) -> bool {
        match membership.key_of(self.from) {
            Some(key) => verify_sig(&key, &self.payload.signable(self.from), &self.sig),
            None => false,
        }
    }
}

// ---- the state machine ----

/// Per-origin cap on *undelivered* slots retained. A Byzantine member
/// can sign envelopes for unlimited fresh `seq` values under its own
/// id (it cannot forge another origin's envelope signature), each of
/// which would otherwise allocate slot state forever; beyond this
/// window its messages are dropped and counted. Honest traffic keeps
/// at most a handful of broadcasts in flight, far below the window.
const SLOT_WINDOW: usize = 64;

/// Per-`(origin, seq)` slot state. A slot is **open** from its first
/// message (or the origin's own [`BrbState::broadcast`]) and holds
/// every distinct envelope seen for it — one under an honest origin,
/// at most `n` under a spraying one — plus the tallies counted against
/// their digests. At `2f + 1` agreeing Readies it is **delivered** and
/// compacted (see [`BrbState::try_deliver`]) to what anti-entropy
/// re-announcement needs: the delivered envelope and, only under an
/// equivocating origin, the different one this node had voted for — so
/// slot memory stops growing the moment the slot's job is done. In
/// both phases an envelope is stored **once**; tallies and this node's
/// own votes are digests into that store, never further copies.
///
/// The store is also the slot's memory of what it has checked: an
/// envelope is in it only if this node signed it
/// ([`BrbState::broadcast`]) or verified its origin signature and
/// hashed it ([`BrbState::handle`]), and the digest beside it is that
/// hash. A later message carrying an equal envelope therefore needs
/// its link signature checked and nothing else (see the module docs);
/// one that differs in any field finds no match and is checked whole.
#[derive(Debug, Default)]
struct Slot {
    /// The one envelope store: each distinct envelope seen (from any
    /// phase, so delivery can reconstruct the op even if the Send never
    /// arrived here) next to its digest, hashed once on arrival. A
    /// right-sized `Vec`, not a map: a one-entry `BTreeMap` still owns
    /// a whole 11-value leaf (≈ 2.7 KB here), more than it replaces.
    envelopes: Vec<(OpDigest, OpEnvelope)>,
    /// Who echoed which digest.
    echoes: BTreeMap<OpDigest, BTreeSet<NodeId>>,
    /// Who sent ready for which digest.
    readies: BTreeMap<OpDigest, BTreeSet<NodeId>>,
    /// What anti-entropy retransmits verbatim as a Send so quorums can
    /// re-form after a partition heals: the envelope this node
    /// origin'd or accepted, else the one it sent Ready for; once
    /// delivered, the delivered one.
    send: Option<OpDigest>,
    /// The envelope this node accepted and echoed (first valid Send
    /// from the origin wins; Echo/Ready for other digests still tally,
    /// but this is what the node votes for), retransmittable during
    /// anti-entropy and on replayed/relayed Sends.
    echo: Option<OpDigest>,
    /// The envelope this node sent Ready for, likewise retransmittable.
    ready: Option<OpDigest>,
    delivered: bool,
}

/// The first digest in `tally` with at least `threshold` voters.
fn quorum(tally: &BTreeMap<OpDigest, BTreeSet<NodeId>>, threshold: usize) -> Option<OpDigest> {
    let (digest, _) = tally.iter().find(|(_, voters)| voters.len() >= threshold)?;
    Some(*digest)
}

impl Slot {
    /// The stored envelope that hashed to `digest`.
    fn envelope(&self, digest: &OpDigest) -> Option<&OpEnvelope> {
        self.envelopes
            .iter()
            .find(|(d, _)| d == digest)
            .map(|(_, env)| env)
    }

    /// The digest of the held envelope equal to `env` in all four
    /// fields, if there is one. The fields are compared, not the
    /// handles: a real transport hands every message a fresh
    /// allocation, so the pointer shortcut of `Arc`'s `==` is not taken.
    fn digest_of(&self, env: &OpEnvelope) -> Option<OpDigest> {
        let (digest, _) = self.envelopes.iter().find(|(_, held)| **held == **env)?;
        Some(*digest)
    }

    /// Store `env` — signed here or origin-verified, and hashing to
    /// `digest` — unless it is already held: the only place an envelope
    /// enters a slot. No growth slack: the honest slot's one envelope
    /// is one exact allocation for life.
    fn hold(&mut self, digest: OpDigest, env: &OpEnvelope) {
        if self.envelope(&digest).is_none() {
            self.envelopes.reserve_exact(1);
            self.envelopes.push((digest, env.clone()));
        }
    }

    /// This node's own votes for this slot — its Echo, then its Ready
    /// — restricted to those for `only` when given.
    fn votes(&self, only: Option<&OpDigest>) -> impl Iterator<Item = Payload> {
        let held = |vote: Option<OpDigest>| {
            let digest = vote.filter(|d| only.is_none_or(|o| o == d))?;
            self.envelope(&digest).cloned()
        };
        let echo = held(self.echo).map(Payload::Echo);
        echo.into_iter().chain(held(self.ready).map(Payload::Ready))
    }
}

nexus_obs::counters! {
    /// Counters the observability layer surfaces per node.
    pub struct BrbCounters {
        /// Messages accepted and processed.
        accepted: counter "nexus_dist_brb_accepted_total" "broadcast messages accepted",
        /// Messages dropped for a bad link or origin signature.
        rejected_sigs: counter
            "nexus_dist_brb_rejected_sigs_total" "broadcast messages dropped for bad signatures",
        /// Sends conflicting with an already-accepted envelope for the
        /// same slot (an equivocating origin).
        equivocations: counter
            "nexus_dist_brb_equivocations_total" "conflicting Sends observed for an accepted slot",
        /// Redundant messages (duplicate votes, replayed sends).
        duplicates: counter "nexus_dist_brb_duplicates_total" "redundant broadcast messages",
        /// Messages dropped by the per-origin undelivered-slot window or
        /// the per-slot digest cap (Byzantine flood defense).
        rejected_bounds: counter
            "nexus_dist_brb_rejected_bounds_total"
            "broadcast messages dropped by the per-origin slot window or per-slot digest cap",
        /// Ops delivered.
        delivered: counter
            "nexus_dist_brb_delivered_total" "ops delivered by the broadcast layer",
        /// Origin signatures checked: once per distinct envelope a slot
        /// comes to hold, not once per message carrying it.
        envelopes_verified: counter
            "nexus_dist_brb_envelopes_verified_total" "origin signatures checked",
    }
}

/// One node's BRB endpoint: a pure state machine — feed it messages,
/// collect outgoing messages and deliveries. Transport-agnostic (the
/// simulator owns scheduling; a socket loop could own it instead).
pub struct BrbState {
    id: NodeId,
    membership: Membership,
    next_seq: u64,
    slots: BTreeMap<(NodeId, u64), Slot>,
    /// Undelivered-slot count per origin, enforcing [`SLOT_WINDOW`].
    undelivered: BTreeMap<NodeId, usize>,
    counters: BrbCounters,
}

/// What handling one message produced: messages to transmit (fan-out
/// already applied) and ops that reached the delivery quorum.
#[derive(Debug, Default)]
pub struct Step {
    /// `(destination, message)` pairs to hand to the transport.
    pub outgoing: Vec<(NodeId, Message)>,
    /// Envelopes delivered, in order.
    pub delivered: Vec<OpEnvelope>,
}

impl BrbState {
    /// A fresh endpoint for `id` under `membership`.
    pub fn new(id: NodeId, membership: Membership) -> BrbState {
        BrbState {
            id,
            membership,
            next_seq: 0,
            slots: BTreeMap::new(),
            undelivered: BTreeMap::new(),
            counters: BrbCounters::default(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The membership table.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Counter snapshot.
    pub fn counters(&self) -> BrbCounters {
        self.counters
    }

    /// Link-sign each of `payloads` in turn, addressed to every node.
    fn fanout(
        &self,
        payloads: impl IntoIterator<Item = Payload>,
        signer: &dyn OpSigner,
    ) -> Vec<(NodeId, Message)> {
        let to_all = |payload| {
            let msg = Message::sign(self.id, payload, signer);
            self.membership.nodes().map(move |to| (to, msg.clone()))
        };
        payloads.into_iter().flat_map(to_all).collect()
    }

    /// Originate a broadcast of `op`: allocate the next sequence
    /// number, sign the envelope, and Send it to every node (including
    /// ourselves — self-delivery goes through the same quorum path, so
    /// an origin partitioned below quorum does *not* deliver locally).
    pub fn broadcast(&mut self, op: LabelOp, signer: &dyn OpSigner) -> Step {
        let seq = self.next_seq;
        self.next_seq += 1;
        let env = OpEnvelope::sign(self.id, seq, op, signer);
        // The slot opens here rather than when the self-addressed Send
        // arrives: until then this is the only copy anti-entropy can
        // retransmit. It counts against our own window like any other
        // slot, but a node never drops its own op.
        let slot = self.slots.entry((self.id, seq)).or_insert_with(|| {
            *self.undelivered.entry(self.id).or_default() += 1;
            Slot::default()
        });
        let digest = env.digest();
        slot.hold(digest, &env);
        slot.send = Some(digest);
        Step {
            outgoing: self.fanout([Payload::Send(env)], signer),
            delivered: Vec::new(),
        }
    }

    /// Retransmit every known Send *and this node's own Echo/Ready
    /// votes* — the anti-entropy pass a healed partition runs.
    /// Receivers treat a replayed Send idempotently but re-announce
    /// their votes for it; retransmitting our votes directly as well
    /// means a node that missed the original exchange can assemble a
    /// quorum even when the op's origin has crashed and will never
    /// retransmit its Send (totality does not depend on the origin
    /// surviving).
    pub fn anti_entropy(&mut self, signer: &dyn OpSigner) -> Step {
        let sends = self.slots.values().filter_map(|slot| {
            let env = slot.envelope(slot.send.as_ref()?)?;
            Some(Payload::Send(env.clone()))
        });
        let votes = self.slots.values().flat_map(|slot| slot.votes(None));
        Step {
            outgoing: self.fanout(sends.chain(votes), signer),
            delivered: Vec::new(),
        }
    }

    /// Handle one incoming message. Invalid signatures are counted and
    /// dropped; everything else advances the slot's phase machine.
    pub fn handle(&mut self, msg: &Message, signer: &dyn OpSigner) -> Step {
        let mut step = Step::default();
        let env = msg.payload.envelope();
        let key = (env.origin, env.seq);
        // Per message: the link signature, which binds this sender's
        // vote to every byte of the envelope it carries.
        if !msg.verify(&self.membership) {
            self.counters.rejected_sigs += 1;
            return step;
        }
        // Per slot: an envelope equal to one the slot holds was origin-
        // verified and hashed when it entered (`Slot::hold`); any other
        // is, here, before it can be tallied, stored or relayed.
        let held = self.slots.get(&key).and_then(|slot| slot.digest_of(env));
        let digest = match held {
            Some(digest) => digest,
            None => {
                self.counters.envelopes_verified += 1;
                if !env.verify(&self.membership) {
                    self.counters.rejected_sigs += 1;
                    return step;
                }
                env.digest()
            }
        };

        // Opening a new slot is bounded per origin: a Byzantine member
        // cannot allocate state for unlimited fresh seqs. (It can only
        // flood its *own* origin's window — envelopes for any other
        // origin need that origin's signature, checked above.)
        if !self.slots.contains_key(&key) {
            let active = self.undelivered.get(&env.origin).copied().unwrap_or(0);
            if active >= SLOT_WINDOW {
                self.counters.rejected_bounds += 1;
                return step;
            }
            self.undelivered.insert(env.origin, active + 1);
            self.slots.insert(key, Slot::default());
        }

        let slot = self.slots.get_mut(&key).expect("slot just ensured");

        // Bound distinct digests tracked per open slot: honest
        // operation produces one (two under an equivocating origin);
        // each costs an envelope copy, so beyond `n` it can only be
        // vote stuffing by a member spraying self-signed variants.
        let novel = !slot.delivered && slot.envelope(&digest).is_none();
        if novel && slot.envelopes.len() >= self.membership.n() {
            self.counters.rejected_bounds += 1;
            return step;
        }
        self.counters.accepted += 1;

        // A delivered slot's tallies are gone; the only remaining duty
        // is re-announcing our votes when a (replayed or relayed) Send
        // asks for them, so neither vote maps nor the envelope store
        // can ever regrow.
        if slot.delivered {
            self.counters.duplicates += 1;
            if matches!(msg.payload, Payload::Send(_)) {
                step.outgoing = self.reannounce(key, &digest, signer);
            }
            return step;
        }
        slot.hold(digest, env);

        match &msg.payload {
            Payload::Send(_) => match slot.echo {
                Some(accepted) if accepted != digest => {
                    // A validly origin-signed conflicting envelope for
                    // an accepted slot — whether carried by the origin
                    // or a relay — is proof the origin equivocated.
                    // First valid Send wins.
                    self.counters.equivocations += 1;
                    return step;
                }
                None if msg.from == env.origin => {
                    slot.echo = Some(digest);
                    slot.send = Some(digest);
                    step.outgoing = self.fanout([Payload::Echo(env.clone())], signer);
                }
                _ => {
                    // Replayed or relayed Send for the envelope we
                    // hold: re-announce our votes so a healed
                    // partition can rebuild the quorum. Or a relayed
                    // Send for a slot we never accepted: only the
                    // origin's own link opens a slot (acceptance stays
                    // origin-gated), but any votes we do hold — e.g. a
                    // Ready reached via amplification — are still
                    // re-announced.
                    self.counters.duplicates += 1;
                    step.outgoing = self.reannounce(key, &digest, signer);
                    return step;
                }
            },
            Payload::Echo(_) => {
                if !slot.echoes.entry(digest).or_default().insert(msg.from) {
                    self.counters.duplicates += 1;
                    return step;
                }
            }
            Payload::Ready(_) => {
                if !slot.readies.entry(digest).or_default().insert(msg.from) {
                    self.counters.duplicates += 1;
                    return step;
                }
            }
        }

        let ready = self.advance(key);
        step.outgoing.extend(self.fanout(ready, signer));
        if let Some(env) = self.try_deliver(key) {
            self.counters.delivered += 1;
            step.delivered.push(env);
        }
        step
    }

    /// Resend this node's Echo/Ready votes matching `digest` for
    /// `key` — the answer to a replayed *or relayed* Send during
    /// anti-entropy. Relayed Sends carry the origin's envelope
    /// signature, so answering them is safe, and it means a node that
    /// missed the original exchange can still collect a quorum after
    /// the origin itself has crashed.
    fn reannounce(
        &self,
        key: (NodeId, u64),
        digest: &OpDigest,
        signer: &dyn OpSigner,
    ) -> Vec<(NodeId, Message)> {
        let slot = self.slots.get(&key);
        self.fanout(slot.into_iter().flat_map(|s| s.votes(Some(digest))), signer)
    }

    /// Phase transitions for a slot after a new vote landed: echo
    /// quorum → Ready, ready amplification → Ready. Returns the Ready
    /// to fan out, if this vote tipped one.
    fn advance(&mut self, key: (NodeId, u64)) -> Option<Payload> {
        let echo_q = self.membership.echo_quorum();
        let amplify = self.membership.ready_amplify();
        let slot = self.slots.get_mut(&key)?;
        if slot.ready.is_some() {
            return None;
        }
        let digest = quorum(&slot.echoes, echo_q).or_else(|| quorum(&slot.readies, amplify))?;
        let env = slot.envelope(&digest)?.clone();
        slot.ready = Some(digest);
        slot.send.get_or_insert(digest);
        Some(Payload::Ready(env))
    }

    /// Deliver once `2f + 1` readies agree on one digest, then compact
    /// the slot: the vote tallies have done their job, so they (and
    /// every envelope no vote of ours refers to) are dropped. What
    /// stays — the delivered envelope, which becomes the slot's Send,
    /// plus this node's own votes — is exactly what anti-entropy
    /// re-announcement needs, and the origin's undelivered-window slot
    /// is released.
    fn try_deliver(&mut self, key: (NodeId, u64)) -> Option<OpEnvelope> {
        let deliver_q = self.membership.deliver_quorum();
        let slot = self.slots.get_mut(&key)?;
        if slot.delivered {
            return None;
        }
        let digest = quorum(&slot.readies, deliver_q)?;
        let env = slot.envelope(&digest)?.clone();
        slot.delivered = true;
        slot.echoes.clear();
        slot.readies.clear();
        slot.send = Some(digest);
        let referenced = [slot.send, slot.echo, slot.ready];
        slot.envelopes
            .retain(|(d, _)| referenced.contains(&Some(*d)));
        slot.envelopes.shrink_to_fit();
        if let Some(active) = self.undelivered.get_mut(&key.0) {
            *active = active.saturating_sub(1);
        }
        Some(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orset::{Dot, LabelOp, LabelRecord};

    fn op(n: u64) -> LabelOp {
        LabelOp::Mint {
            dot: Dot::new(0, n),
            label: LabelRecord::new("alice", "CA", "ok"),
        }
    }

    fn cluster(n: usize) -> (Vec<BrbState>, Vec<SimEd25519>) {
        let signers: Vec<SimEd25519> = (0..n as NodeId)
            .map(|i| SimEd25519::from_seed(42, i))
            .collect();
        let membership = Membership::new(signers.iter().map(|s| s.public()).collect());
        let states = (0..n as NodeId)
            .map(|i| BrbState::new(i, membership.clone()))
            .collect();
        (states, signers)
    }

    /// Synchronously pump every outgoing message until quiet,
    /// returning per-node deliveries.
    fn pump(states: &mut [BrbState], signers: &[SimEd25519], first: Step) -> Vec<Vec<OpEnvelope>> {
        let mut delivered: Vec<Vec<OpEnvelope>> = vec![Vec::new(); states.len()];
        let mut queue: Vec<(NodeId, Message)> = first.outgoing;
        while let Some((to, msg)) = queue.pop() {
            let step = states[to as usize].handle(&msg, &signers[to as usize]);
            queue.extend(step.outgoing);
            delivered[to as usize].extend(step.delivered);
        }
        delivered
    }

    /// Envelopes an endpoint holds, over all its slots.
    fn envelopes_held(state: &BrbState) -> usize {
        state.slots.values().map(|s| s.envelopes.len()).sum()
    }

    /// `payload` from `from`, fanned out to the whole `cluster(4)`.
    fn to_all(from: NodeId, payload: Payload, signers: &[SimEd25519]) -> Vec<(NodeId, Message)> {
        let msg = Message::sign(from, payload, &signers[from as usize]);
        (0..4).map(|to| (to, msg.clone())).collect()
    }

    #[test]
    fn quorum_thresholds_match_bracha() {
        let m = Membership::new(vec![[0u8; 32]; 4]);
        assert_eq!(m.f(), 1);
        assert_eq!(m.echo_quorum(), 3);
        assert_eq!(m.ready_amplify(), 2);
        assert_eq!(m.deliver_quorum(), 3);
        let m3 = Membership::new(vec![[0u8; 32]; 3]);
        assert_eq!(m3.f(), 0);
        assert_eq!(m3.echo_quorum(), 2);
        assert_eq!(m3.deliver_quorum(), 1);
    }

    #[test]
    fn broadcast_delivers_on_every_node_exactly_once() {
        let (mut states, signers) = cluster(4);
        let first = states[0].broadcast(op(1), &signers[0]);
        let delivered = pump(&mut states, &signers, first);
        for (i, d) in delivered.iter().enumerate() {
            assert_eq!(d.len(), 1, "node {i} must deliver exactly once");
            assert_eq!(d[0].op, op(1));
        }
    }

    #[test]
    fn forged_origin_signature_is_rejected_everywhere() {
        let (mut states, signers) = cluster(4);
        // Node 3 crafts an envelope claiming origin 0 but signs it
        // with its own key.
        let env = OpEnvelope::sign(0, 0, op(9), &signers[3]);
        let msg = Message::sign(3, Payload::Send(env), &signers[3]);
        for i in 0..4usize {
            let step = states[i].handle(&msg, &signers[i]);
            assert!(step.outgoing.is_empty());
            assert!(step.delivered.is_empty());
        }
        assert!(states.iter().all(|s| s.counters().rejected_sigs == 1));
    }

    #[test]
    fn equivocating_sends_never_split_honest_nodes() {
        let (mut states, signers) = cluster(4);
        // Origin 0 equivocates on one slot: envelope A to nodes 1 and
        // 2, envelope B to nodes 2 and 3 — node 2 sees the conflict.
        let env_a = OpEnvelope::sign(0, 0, op(1), &signers[0]);
        let env_b = OpEnvelope::sign(0, 0, op(2), &signers[0]);
        let msg_a = Message::sign(0, Payload::Send(env_a), &signers[0]);
        let msg_b = Message::sign(0, Payload::Send(env_b), &signers[0]);
        let mut queue: Vec<(NodeId, Message)> = vec![
            (1, msg_a.clone()),
            (2, msg_a),
            (2, msg_b.clone()),
            (3, msg_b),
        ];
        let mut delivered: Vec<Vec<OpEnvelope>> = vec![Vec::new(); 4];
        while let Some((to, msg)) = queue.pop() {
            let step = states[to as usize].handle(&msg, &signers[to as usize]);
            queue.extend(step.outgoing);
            delivered[to as usize].extend(step.delivered);
        }
        // Honest agreement: every node that delivered slot (0,0)
        // delivered the same op.
        let mut seen = None;
        for d in &delivered {
            for env in d {
                match &seen {
                    None => seen = Some(env.op.clone()),
                    Some(prev) => assert_eq!(prev, &env.op, "honest nodes split on a slot"),
                }
            }
        }
        assert!(
            states.iter().any(|s| s.counters().equivocations > 0),
            "the conflicting Send must be observed somewhere"
        );
    }

    #[test]
    fn survivors_votes_deliver_to_a_healed_node_after_the_origin_crashes() {
        // REVIEW finding 2: origin 0 broadcasts while node 3 is
        // partitioned, then crashes for good. Totality must not
        // depend on the origin retransmitting its Send — the
        // surviving voters' anti-entropy re-announces their own
        // Echo/Ready, and node 3 assembles a quorum from those.
        let (mut states, signers) = cluster(4);
        let first = states[0].broadcast(op(1), &signers[0]);
        let mut queue: Vec<(NodeId, Message)> = first.outgoing;
        let mut delivered: Vec<Vec<OpEnvelope>> = vec![Vec::new(); 4];
        while let Some((to, msg)) = queue.pop() {
            if to == 3 {
                continue; // partitioned
            }
            let step = states[to as usize].handle(&msg, &signers[to as usize]);
            queue.extend(step.outgoing);
            delivered[to as usize].extend(step.delivered);
        }
        for (i, d) in delivered.iter().take(3).enumerate() {
            assert_eq!(d.len(), 1, "majority node {i} must deliver");
        }
        assert!(delivered[3].is_empty());
        // Origin 0 crashes: it transmits nothing more and its inbox
        // is discarded. Only survivors 1 and 2 run anti-entropy.
        for i in [1usize, 2] {
            let step = states[i].anti_entropy(&signers[i]);
            queue.extend(step.outgoing);
        }
        while let Some((to, msg)) = queue.pop() {
            if to == 0 {
                continue; // crashed
            }
            let step = states[to as usize].handle(&msg, &signers[to as usize]);
            queue.extend(step.outgoing);
            delivered[to as usize].extend(step.delivered);
        }
        assert_eq!(
            delivered[3].len(),
            1,
            "healed node must deliver from survivors' votes alone"
        );
        assert_eq!(delivered[3][0].op, op(1));
    }

    #[test]
    fn a_slot_verifies_each_distinct_envelope_once() {
        let (mut states, signers) = cluster(5);
        let first = states[0].broadcast(op(1), &signers[0]);
        let delivered = pump(&mut states, &signers, first);
        assert!(delivered.iter().all(|d| d.len() == 1));
        let sum = |f: fn(BrbCounters) -> u64| states.iter().map(|s| f(s.counters())).sum::<u64>();
        assert_eq!(sum(|c| c.accepted), 55, "5 Sends + 25 Echoes + 25 Readies");
        assert_eq!(sum(|c| c.rejected_sigs + c.rejected_bounds), 0);
        assert_eq!(states[0].counters().envelopes_verified, 0, "its own op");
        assert_eq!(sum(|c| c.envelopes_verified), 4, "once per receiver");

        // An equivocating origin's second envelope is never admitted on
        // the strength of the first: every receiver it reaches checks
        // it in full, and a badly signed one is refused in full.
        let second = OpEnvelope::sign(0, 0, op(2), &signers[0]);
        let forged = OpEnvelope::sign(0, 0, op(3), &signers[4]);
        for (i, state) in states.iter_mut().enumerate().skip(1) {
            let before = state.counters();
            let msg = Message::sign(0, Payload::Send(second.clone()), &signers[0]);
            state.handle(&msg, &signers[i]);
            let msg = Message::sign(4, Payload::Echo(forged.clone()), &signers[4]);
            state.handle(&msg, &signers[i]);
            let after = state.counters();
            assert_eq!(after.envelopes_verified, before.envelopes_verified + 2);
            assert_eq!(after.accepted, before.accepted + 1);
            assert_eq!(after.rejected_sigs, before.rejected_sigs + 1);
        }
    }

    /// `env` with one thing changed: what a member holding a genuine
    /// envelope can fabricate without the origin's key.
    fn altered(env: &OpEnvelope, change: impl FnOnce(&mut SignedOp)) -> OpEnvelope {
        let mut fields = SignedOp {
            origin: env.origin,
            seq: env.seq,
            op: env.op.clone(),
            sig: env.sig,
        };
        change(&mut fields);
        OpEnvelope(Arc::new(fields))
    }

    /// What a refused message must leave untouched at an endpoint.
    fn footprint(state: &BrbState) -> (usize, usize, usize, u64, u64) {
        let votes = |tally: &BTreeMap<OpDigest, BTreeSet<NodeId>>| {
            tally.values().map(BTreeSet::len).sum::<usize>()
        };
        let slots = state.slots.values();
        let tallied: usize = slots.map(|s| votes(&s.echoes) + votes(&s.readies)).sum();
        let c = state.counters();
        (
            state.slots.len(),
            envelopes_held(state),
            tallied,
            c.accepted,
            c.delivered,
        )
    }

    #[test]
    fn an_envelope_differing_from_the_held_one_in_any_field_fails_closed() {
        let (mut states, signers) = cluster(4);
        let genuine = OpEnvelope::sign(0, 0, op(1), &signers[0]);
        let variants = [
            altered(&genuine, |e| e.sig[0] ^= 1),
            altered(&genuine, |e| e.sig[63] ^= 0x80),
            altered(&genuine, |e| e.op = op(2)),
            altered(&genuine, |e| e.seq = 1),
            altered(&genuine, |e| e.origin = 1),
        ];
        let offer_all = |state: &mut BrbState, when: &str| {
            for (v, variant) in variants.iter().enumerate() {
                let phases: [fn(OpEnvelope) -> Payload; 3] =
                    [Payload::Send, Payload::Echo, Payload::Ready];
                for phase in phases {
                    let before = (footprint(state), state.counters().rejected_sigs);
                    // Link-signed with member 3's real key: only the
                    // envelope inside is wrong.
                    let msg = Message::sign(3, phase(variant.clone()), &signers[3]);
                    assert!(msg.verify(state.membership()));
                    let step = state.handle(&msg, &signers[1]);
                    assert!(step.outgoing.is_empty(), "{when}, variant {v}: relayed");
                    assert!(step.delivered.is_empty(), "{when}, variant {v}: delivered");
                    let after = (footprint(state), state.counters().rejected_sigs);
                    assert_eq!(after, (before.0, before.1 + 1), "{when}, variant {v}");
                }
            }
        };

        // Node 1 holds the genuine envelope in an open slot…
        let send = Message::sign(0, Payload::Send(genuine.clone()), &signers[0]);
        let step = states[1].handle(&send, &signers[1]);
        assert_eq!(step.outgoing.len(), 4, "accepted and echoed");
        assert_eq!(envelopes_held(&states[1]), 1);
        offer_all(&mut states[1], "open");

        // …and still holds it once the slot is delivered and compacted.
        for from in [0, 2, 3] {
            let ready = Payload::Ready(genuine.clone());
            let msg = Message::sign(from, ready, &signers[from as usize]);
            states[1].handle(&msg, &signers[1]);
        }
        assert_eq!(states[1].counters().delivered, 1);
        assert!(states[1].slots[&(0, 0)].delivered);
        offer_all(&mut states[1], "delivered");

        // The genuine envelope itself, meanwhile, still takes the
        // short road: one more vote, no further origin check.
        let verified = states[1].counters().envelopes_verified;
        let echo = Message::sign(3, Payload::Echo(genuine), &signers[3]);
        states[1].handle(&echo, &signers[1]);
        assert_eq!(states[1].counters().envelopes_verified, verified);
    }

    #[test]
    fn byzantine_seq_flood_is_bounded_per_origin() {
        // REVIEW finding 3: a member spraying validly-signed votes
        // for unlimited fresh seqs of its own origin must not
        // allocate unbounded slot state.
        let (mut states, signers) = cluster(4);
        let flood = 10 * SLOT_WINDOW as u64;
        for seq in 0..flood {
            let env = OpEnvelope::sign(3, seq, op(seq), &signers[3]);
            let msg = Message::sign(3, Payload::Echo(env), &signers[3]);
            let step = states[0].handle(&msg, &signers[0]);
            assert!(step.delivered.is_empty());
        }
        assert_eq!(
            states[0].slots.len(),
            SLOT_WINDOW,
            "slot state must stop growing at the per-origin window"
        );
        assert_eq!(
            states[0].counters().rejected_bounds,
            flood - SLOT_WINDOW as u64
        );
    }

    #[test]
    fn digest_spray_within_one_slot_is_bounded() {
        // One slot, many distinct self-signed envelope variants: the
        // per-slot digest cap (= n) bounds the envelope copies held.
        let (mut states, signers) = cluster(4);
        for variant in 0..32u64 {
            let env = OpEnvelope::sign(3, 0, op(variant), &signers[3]);
            let msg = Message::sign(3, Payload::Echo(env), &signers[3]);
            states[0].handle(&msg, &signers[0]);
        }
        let slot = states[0].slots.get(&(3, 0)).expect("slot exists");
        assert_eq!(slot.envelopes.len(), 4, "digest cap must hold at n");
        let c = states[0].counters();
        assert!(c.rejected_bounds >= 28);
        assert_eq!(
            c.accepted + c.rejected_bounds + c.rejected_sigs,
            32,
            "a message is accepted or rejected, never both"
        );
    }

    #[test]
    fn delivery_compacts_slot_tallies_and_frees_the_window() {
        let (mut states, signers) = cluster(4);
        let first = states[0].broadcast(op(1), &signers[0]);
        let delivered = pump(&mut states, &signers, first);
        assert_eq!(delivered[1].len(), 1);
        let slot = states[1].slots.get(&(0, 0)).expect("slot retained");
        assert!(slot.delivered);
        assert!(
            slot.echoes.is_empty() && slot.readies.is_empty(),
            "vote tallies must be compacted after delivery"
        );
        assert_eq!(
            slot.envelopes.len(),
            1,
            "re-announce still needs the envelope, exactly once"
        );
        assert_eq!(states[1].undelivered.get(&0).copied().unwrap_or(0), 0);
    }

    #[test]
    fn an_endpoint_holds_each_delivered_envelope_exactly_once() {
        let (mut states, signers) = cluster(4);
        let k = 6;
        for i in 0..k {
            let origin = i % 4;
            let first = states[origin].broadcast(op(i as u64), &signers[origin]);
            let delivered = pump(&mut states, &signers, first);
            assert!(delivered.iter().all(|d| d.len() == 1));
        }
        for (i, state) in states.iter().enumerate() {
            assert_eq!(envelopes_held(state), k, "node {i}");
        }
    }

    #[test]
    fn an_origin_whose_self_send_was_discarded_still_retransmits_it() {
        let (mut states, signers) = cluster(4);
        // Every copy of the Send is lost, the origin's own included.
        let first = states[0].broadcast(op(1), &signers[0]);
        let sent = first.outgoing[0].1.payload.clone();
        assert!(matches!(sent, Payload::Send(_)));
        let again = states[0].anti_entropy(&signers[0]);
        assert_eq!(again.outgoing, to_all(0, sent, &signers));
        let delivered = pump(&mut states, &signers, again);
        assert!(delivered.iter().all(|d| d.len() == 1));
    }

    #[test]
    fn votes_for_a_losing_envelope_are_reannounced_after_delivery() {
        // Origin 0 equivocates: envelope A reaches only node 1, B the
        // other three. B gathers the echo quorum and is delivered
        // everywhere; node 1 has echoed A and sent Ready for B.
        let (mut states, signers) = cluster(4);
        let env_a = OpEnvelope::sign(0, 0, op(1), &signers[0]);
        let env_b = OpEnvelope::sign(0, 0, op(2), &signers[0]);
        let send_a = Message::sign(0, Payload::Send(env_a.clone()), &signers[0]);
        let send_b = Message::sign(0, Payload::Send(env_b.clone()), &signers[0]);
        let first = Step {
            // `pump` pops from the back: node 1 accepts A first.
            outgoing: vec![
                (0, send_b.clone()),
                (2, send_b.clone()),
                (3, send_b.clone()),
                (1, send_a.clone()),
            ],
            delivered: Vec::new(),
        };
        let delivered = pump(&mut states, &signers, first);
        for (i, d) in delivered.iter().enumerate() {
            assert_eq!(d.len(), 1, "node {i}");
            assert_eq!(d[0], env_b, "node {i}");
        }
        assert_eq!(envelopes_held(&states[1]), 2, "delivered + voted-for");
        for state in [0, 2, 3] {
            assert_eq!(envelopes_held(&states[state]), 1, "node {state}");
        }

        // Message for message what the four-copy layout answered.
        let echo_a = to_all(1, Payload::Echo(env_a), &signers);
        let ready_b = to_all(1, Payload::Ready(env_b.clone()), &signers);
        let step = states[1].handle(&send_a, &signers[1]);
        assert_eq!(step.outgoing, echo_a);
        let step = states[1].handle(&send_b, &signers[1]);
        assert_eq!(step.outgoing, ready_b);
        let step = states[1].anti_entropy(&signers[1]);
        let all = [to_all(1, Payload::Send(env_b), &signers), echo_a, ready_b].concat();
        assert_eq!(step.outgoing, all);
    }

    #[test]
    fn anti_entropy_rebuilds_quorum_for_a_node_that_missed_everything() {
        let (mut states, signers) = cluster(4);
        // Broadcast while node 3 is "partitioned": discard its inbox.
        let first = states[0].broadcast(op(1), &signers[0]);
        let mut queue: Vec<(NodeId, Message)> = first.outgoing;
        let mut delivered: Vec<Vec<OpEnvelope>> = vec![Vec::new(); 4];
        while let Some((to, msg)) = queue.pop() {
            if to == 3 {
                continue;
            }
            let step = states[to as usize].handle(&msg, &signers[to as usize]);
            queue.extend(step.outgoing);
            delivered[to as usize].extend(step.delivered);
        }
        assert!(delivered[3].is_empty());
        assert_eq!(delivered[0].len(), 1, "majority side delivers");
        // Heal: everyone retransmits known sends; pump to quiet.
        for i in 0..4usize {
            let step = states[i].anti_entropy(&signers[i]);
            queue.extend(step.outgoing);
        }
        while let Some((to, msg)) = queue.pop() {
            let step = states[to as usize].handle(&msg, &signers[to as usize]);
            queue.extend(step.outgoing);
            delivered[to as usize].extend(step.delivered);
        }
        assert_eq!(delivered[3].len(), 1, "healed node must deliver");
        assert_eq!(delivered[3][0].op, op(1));
    }
}
