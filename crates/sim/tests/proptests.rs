//! Property-based tests for the slotted radio simulator.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use sinr_geom::{gen, NodeId};
use sinr_phy::field::decode_best_exact;
use sinr_phy::SinrParams;
use sinr_sim::{Action, Engine, Protocol, SlotOutcome};

/// Transmit with probability `p`, else listen; count events.
#[derive(Debug)]
struct RandomTalker {
    p: f64,
    power: f64,
    sent: u64,
    received: u64,
    idle: u64,
}

impl Protocol for RandomTalker {
    type Msg = u64;
    fn begin_slot(&mut self, node: NodeId, slot: u64, rng: &mut StdRng) -> Action<u64> {
        if rng.gen_bool(self.p) {
            Action::Transmit {
                power: self.power,
                msg: slot * 1000 + node as u64,
            }
        } else {
            Action::Listen
        }
    }
    fn end_slot(&mut self, _: NodeId, _: u64, o: SlotOutcome<u64>, _: &mut StdRng) {
        match o {
            SlotOutcome::Transmitted => self.sent += 1,
            SlotOutcome::Received(_) => self.received += 1,
            SlotOutcome::Idle => self.idle += 1,
            SlotOutcome::Slept => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Conservation: per slot, transmitters + receivers + idle listeners
    /// = n, and engine stats aggregate the slot reports exactly.
    #[test]
    fn slot_accounting(seed in 0u64..5_000, n in 2usize..30, p in 0.05f64..0.9) {
        let params = SinrParams::default();
        let inst = gen::uniform_square(n, 2.0, seed).unwrap();
        let power = params.min_power_for_length(inst.delta()) * 4.0;
        let mut engine = Engine::new(
            &params,
            &inst,
            |_| RandomTalker { p, power, sent: 0, received: 0, idle: 0 },
            seed,
        );
        let mut tx_total = 0u64;
        let mut rx_total = 0u64;
        for _ in 0..15 {
            let r = engine.step();
            prop_assert_eq!(r.transmissions + r.receptions + r.idle_listeners, n);
            tx_total += r.transmissions as u64;
            rx_total += r.receptions as u64;
        }
        let stats = engine.stats();
        prop_assert_eq!(stats.transmissions, tx_total);
        prop_assert_eq!(stats.receptions, rx_total);
        prop_assert_eq!(stats.slots, 15);
        let node_sent: u64 = engine.nodes().iter().map(|t| t.sent).sum();
        let node_recv: u64 = engine.nodes().iter().map(|t| t.received).sum();
        prop_assert_eq!(node_sent, tx_total);
        prop_assert_eq!(node_recv, rx_total);
    }

    /// β ≥ 1 decode uniqueness: receivers decode at most one message,
    /// and the decoded payload always matches an actual transmitter's.
    #[test]
    fn decode_uniqueness_and_integrity(seed in 0u64..5_000, n in 3usize..24) {
        #[derive(Debug, Default)]
        struct Audit {
            decoded_from: Vec<(u64, NodeId, u64)>, // (slot, sender, payload)
        }
        impl Protocol for Audit {
            type Msg = u64;
            fn begin_slot(&mut self, node: NodeId, _: u64, rng: &mut StdRng) -> Action<u64> {
                if rng.gen_bool(0.4) {
                    Action::Transmit { power: 1e4, msg: node as u64 }
                } else {
                    Action::Listen
                }
            }
            fn end_slot(&mut self, _: NodeId, slot: u64, o: SlotOutcome<u64>, _: &mut StdRng) {
                if let SlotOutcome::Received(r) = o {
                    self.decoded_from.push((slot, r.from, r.msg));
                }
            }
        }
        let params = SinrParams::default();
        let inst = gen::uniform_square(n, 2.0, seed).unwrap();
        let mut engine = Engine::new(&params, &inst, |_| Audit::default(), seed);
        engine.run(10);
        for node in engine.nodes() {
            // Payload integrity: msg == sender id by construction.
            for &(_, from, msg) in &node.decoded_from {
                prop_assert_eq!(msg, from as u64);
            }
            // At most one decode per slot per node.
            let mut slots: Vec<u64> = node.decoded_from.iter().map(|e| e.0).collect();
            slots.sort_unstable();
            slots.dedup();
            prop_assert_eq!(slots.len(), node.decoded_from.len());
        }
    }

    /// Every listener's outcome is the exact decode rule over its slot's
    /// transmitters, which the transmitters record themselves: a
    /// reception names `decode_best_exact`'s winner at its instance
    /// distance, and a listener that hears nothing has no winner.
    #[test]
    fn reception_metadata_correct(seed in 0u64..5_000, n in 2usize..20) {
        const POWER: f64 = 5e3;
        const SLOTS: u64 = 8;
        #[derive(Debug, Default)]
        struct Meta {
            sent: Vec<u64>,
            heard: Vec<(u64, NodeId, f64)>, // (slot, from, distance)
        }
        impl Protocol for Meta {
            type Msg = ();
            fn begin_slot(&mut self, node: NodeId, slot: u64, rng: &mut StdRng) -> Action<()> {
                if node == 0 || rng.gen_bool(0.2) {
                    self.sent.push(slot);
                    Action::Transmit { power: POWER, msg: () }
                } else {
                    Action::Listen
                }
            }
            fn end_slot(&mut self, _: NodeId, slot: u64, o: SlotOutcome<()>, _: &mut StdRng) {
                if let SlotOutcome::Received(r) = o {
                    self.heard.push((slot, r.from, r.distance));
                }
            }
        }
        let params = SinrParams::default();
        let inst = gen::uniform_square(n, 2.0, seed).unwrap();
        let mut engine = Engine::new(&params, &inst, |_| Meta::default(), seed);
        engine.run(SLOTS);
        let nodes = engine.nodes();
        for slot in 0..SLOTS {
            let senders: Vec<(NodeId, f64)> = (0..n)
                .filter(|&u| nodes[u].sent.contains(&slot))
                .map(|u| (u, POWER))
                .collect();
            for (v, node) in nodes.iter().enumerate() {
                if node.sent.contains(&slot) {
                    prop_assert!(node.heard.iter().all(|h| h.0 != slot));
                    continue;
                }
                let heard = node.heard.iter().find(|h| h.0 == slot);
                let want = decode_best_exact(&params, &inst, v, &senders);
                prop_assert_eq!(
                    heard.map(|&(_, from, d)| (from, d.to_bits())),
                    want.map(|u| (u, inst.distance(u, v).to_bits())),
                    "slot {} listener {}", slot, v
                );
            }
        }
    }
}
