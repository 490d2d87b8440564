//! Deterministic in-process network simulator.
//!
//! Everything the transport does — delivery order, message drops,
//! duplication, delays, partitions — is a pure function of the seed
//! and the schedule configuration, so any interleaving a test explores
//! is replayable by printing one `u64`. The simulator holds a bag of
//! in-flight messages; each [`SimNet::step`] picks a *random eligible*
//! flight (this is where reordering comes from) and hands it to the
//! destination. Time is a logical tick, advanced only when no flight
//! is eligible yet, so delay and partition windows compose with the
//! random scheduler instead of fighting it.
//!
//! Fault policy:
//! - **drop/duplicate** are Bernoulli per send (`drop_pct`, `dup_pct`);
//! - **delay** is uniform in `0..=max_delay` ticks per flight;
//! - **partitions** are tick ranges during which messages crossing the
//!   configured node-set boundary are discarded;
//! - messages a node addresses to itself are exempt from drop and
//!   partition (a kernel never loses a message to itself), keeping
//!   BRB's self-echo path honest without special cases elsewhere.

use crate::wire::{Message, NodeId};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeSet;

/// One scheduled network split: nodes in `side` cannot exchange
/// messages with nodes outside it while `from_tick <= tick < until_tick`.
#[derive(Debug, Clone)]
pub struct Partition {
    /// One side of the split.
    pub side: BTreeSet<NodeId>,
    /// First tick the split is in effect.
    pub from_tick: u64,
    /// First tick after healing.
    pub until_tick: u64,
}

impl Partition {
    /// A partition isolating `side` during `[from_tick, until_tick)`.
    pub fn new(side: &[NodeId], from_tick: u64, until_tick: u64) -> Partition {
        Partition {
            side: side.iter().copied().collect(),
            from_tick,
            until_tick,
        }
    }

    fn severs(&self, tick: u64, from: NodeId, to: NodeId) -> bool {
        tick >= self.from_tick
            && tick < self.until_tick
            && self.side.contains(&from) != self.side.contains(&to)
    }
}

/// The fault schedule. Default: perfect network (deliver everything,
/// random order, no delay).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed — print this on any failure; it replays the run.
    pub seed: u64,
    /// Percent (0..=100) of sends silently dropped.
    pub drop_pct: u8,
    /// Percent (0..=100) of sends duplicated.
    pub dup_pct: u8,
    /// Max extra delivery delay, in ticks (each flight gets a uniform
    /// draw from `0..=max_delay`).
    pub max_delay: u64,
    /// Scheduled splits.
    pub partitions: Vec<Partition>,
}

impl SimConfig {
    /// A perfect network driven by `seed` (random order only).
    pub fn perfect(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            drop_pct: 0,
            dup_pct: 0,
            max_delay: 0,
            partitions: Vec::new(),
        }
    }

    /// A lossy, delaying, duplicating network driven by `seed`.
    pub fn lossy(seed: u64, drop_pct: u8, dup_pct: u8, max_delay: u64) -> SimConfig {
        SimConfig {
            seed,
            drop_pct,
            dup_pct,
            max_delay,
            partitions: Vec::new(),
        }
    }
}

#[derive(Debug)]
struct Flight {
    to: NodeId,
    msg: Message,
    ready_at: u64,
}

/// Transport-level counters (per cluster, surfaced by telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Messages handed to destinations.
    pub delivered: u64,
    /// Messages dropped by the loss schedule.
    pub dropped: u64,
    /// Extra copies injected by the duplication schedule.
    pub duplicated: u64,
    /// Messages discarded at a partition boundary.
    pub partitioned: u64,
}

/// The simulated network: a seeded bag of in-flight messages.
pub struct SimNet {
    cfg: SimConfig,
    rng: StdRng,
    in_flight: Vec<Flight>,
    tick: u64,
    counters: NetCounters,
}

impl SimNet {
    /// Build from a schedule.
    pub fn new(cfg: SimConfig) -> SimNet {
        let rng = StdRng::seed_from_u64(cfg.seed);
        SimNet {
            cfg,
            rng,
            in_flight: Vec::new(),
            tick: 0,
            counters: NetCounters::default(),
        }
    }

    /// The current logical tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Counter snapshot.
    pub fn counters(&self) -> NetCounters {
        self.counters
    }

    /// Messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    fn pct(&mut self) -> u8 {
        (self.rng.next_u32() % 100) as u8
    }

    /// Submit one message. Loss, duplication, and delay are decided
    /// here (per send); partitions are enforced at delivery time so a
    /// flight delayed into a split window is severed too.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: Message) {
        let is_self = from == to;
        if !is_self && self.cfg.drop_pct > 0 && self.pct() < self.cfg.drop_pct {
            self.counters.dropped += 1;
            return;
        }
        if !is_self && self.cfg.dup_pct > 0 && self.pct() < self.cfg.dup_pct {
            self.counters.duplicated += 1;
            self.launch(to, msg.clone());
        }
        self.launch(to, msg);
    }

    /// Put one copy in the bag, drawing its delay.
    fn launch(&mut self, to: NodeId, msg: Message) {
        let delay = if self.cfg.max_delay > 0 {
            self.rng.next_u64() % (self.cfg.max_delay + 1)
        } else {
            0
        };
        self.in_flight.push(Flight {
            to,
            msg,
            ready_at: self.tick + delay,
        });
    }

    /// Deliver one random eligible flight, or advance the tick if
    /// every flight is still delayed. Returns the `(destination,
    /// message)` to process, or `None` when nothing is in flight.
    pub fn step(&mut self) -> Option<(NodeId, Message)> {
        loop {
            if self.in_flight.is_empty() {
                return None;
            }
            let tick = self.tick;
            // Discard flights crossing an active partition boundary.
            if !self.cfg.partitions.is_empty() {
                let cfg = &self.cfg;
                let mut cut = 0u64;
                self.in_flight.retain(|f| {
                    let sever = f.ready_at <= tick
                        && f.msg.from != f.to
                        && cfg
                            .partitions
                            .iter()
                            .any(|p| p.severs(tick, f.msg.from, f.to));
                    if sever {
                        cut += 1;
                    }
                    !sever
                });
                self.counters.partitioned += cut;
            }

            // The k-th eligible flight in bag order, k drawn once.
            let eligible = |f: &Flight| f.ready_at <= tick;
            let count = self.in_flight.iter().filter(|f| eligible(f)).count();
            if count == 0 {
                self.tick += 1;
                continue;
            }
            let k = (self.rng.next_u64() as usize) % count;
            let pick = (0..self.in_flight.len())
                .filter(|&i| eligible(&self.in_flight[i]))
                .nth(k)
                .expect("k is below the eligible count");
            let flight = self.in_flight.swap_remove(pick);
            self.tick += 1;
            self.counters.delivered += 1;
            return Some((flight.to, flight.msg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orset::{Dot, LabelOp, LabelRecord};
    use crate::wire::{Message, OpEnvelope, Payload, SimEd25519};

    fn msg(from: NodeId, seq: u64) -> Message {
        let signer = SimEd25519::from_seed(7, from);
        let env = OpEnvelope::sign(
            from,
            seq,
            LabelOp::Mint {
                dot: Dot::new(from, seq),
                label: LabelRecord::new("a", "CA", "ok"),
            },
            &signer,
        );
        Message::sign(from, Payload::Send(env), &signer)
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed| {
            let mut net = SimNet::new(SimConfig::lossy(seed, 10, 10, 3));
            for s in 0..20 {
                net.send(0, 1 + (s % 3) as NodeId, msg(0, s));
            }
            let mut order = Vec::new();
            while let Some((to, m)) = net.step() {
                order.push((to, m.payload.envelope().seq));
            }
            (order, net.counters())
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).0, run(100).0, "different seeds must reorder");
    }

    #[test]
    fn drops_and_dups_are_counted_and_bounded() {
        let mut net = SimNet::new(SimConfig::lossy(5, 30, 30, 0));
        for s in 0..200 {
            net.send(0, 1, msg(0, s));
        }
        let mut got = 0;
        while net.step().is_some() {
            got += 1;
        }
        let c = net.counters();
        assert_eq!(c.delivered, got as u64);
        assert_eq!(got as u64, 200 - c.dropped + c.duplicated);
        assert!(
            c.dropped > 0 && c.duplicated > 0,
            "30% rates must fire in 200 sends"
        );
    }

    #[test]
    fn self_sends_survive_drop_and_partition() {
        let mut cfg = SimConfig::lossy(11, 100, 0, 0);
        cfg.partitions = vec![Partition::new(&[0], 0, u64::MAX)];
        let mut net = SimNet::new(cfg);
        net.send(0, 0, msg(0, 1));
        net.send(0, 1, msg(0, 2));
        let mut seen = Vec::new();
        while let Some((to, _)) = net.step() {
            seen.push(to);
        }
        assert_eq!(seen, vec![0], "only the self-send survives");
    }

    #[test]
    fn partition_severs_then_heals() {
        let mut cfg = SimConfig::perfect(3);
        cfg.partitions = vec![Partition::new(&[2], 0, 10)];
        let mut net = SimNet::new(cfg);
        net.send(0, 2, msg(0, 1));
        assert!(net.step().is_none(), "flight severed at the boundary");
        assert_eq!(net.counters().partitioned, 1);
        // After the window, the path works again.
        while net.tick() < 10 {
            assert!(net.step().is_none());
            if net.in_flight() == 0 {
                break;
            }
        }
        let mut net2 = SimNet::new(SimConfig {
            partitions: vec![Partition::new(&[2], 0, 0)],
            ..SimConfig::perfect(3)
        });
        net2.send(0, 2, msg(0, 1));
        assert!(net2.step().is_some());
    }

    #[test]
    fn delayed_flights_wait_their_tick() {
        let mut net = SimNet::new(SimConfig::lossy(8, 0, 0, 5));
        net.send(0, 1, msg(0, 1));
        let ready_at = net.in_flight[0].ready_at;
        assert!(ready_at > 0, "seed 8 draws a delay");
        let (to, _) = net.step().expect("must deliver");
        assert_eq!(to, 1);
        // The delivering step ends one tick past the one it picked at.
        assert_eq!(
            net.tick(),
            ready_at + 1,
            "delivered at, not before, ready_at"
        );
    }
}
