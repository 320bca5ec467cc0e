//! Distributed contention-resolution scheduling of a fixed link set.
//!
//! §7 of the paper reschedules the `Init` tree by running "the
//! distributed algorithm from \[15\]" (Kesselheim & Vöcking, DISC 2010)
//! under mean power, which gives an `O(log n)`-approximate schedule \[9\].
//! We implement the same mechanism class (see DESIGN.md §5.3):
//!
//! - every undelivered link's sender transmits its payload in the data
//!   slot of a slot-pair with a probability that decays exponentially
//!   through a *sweep* (`2^{-1}, 2^{-2}, …, 2^{-J}`), then restarts;
//! - the receiver acknowledges a decoded payload in the ack slot;
//! - a link that hears its acknowledgment retires and records the data
//!   slot as its schedule slot.
//!
//! Because every recorded slot hosted a *successful* transmission amid
//! all concurrent transmitters, replaying a slot's links alone is
//! SINR-feasible (interference only shrinks), so the output is a valid
//! schedule. The decaying sweep guarantees that whatever the local
//! contention density, some probability level is within a factor 2 of
//! optimal — the classical decay argument behind the `O(OPT·log n)`
//! bounds.
//!
//! A node with several pending links (e.g. when scheduling the dual of
//! a tree, where a parent serves many children) offers them round-robin,
//! one per slot-pair, respecting the one-radio constraint.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::Rng;

use sinr_geom::{Instance, NodeId};
use sinr_links::{Link, LinkSet, Schedule};
use sinr_phy::affectance::AffectanceCalc;
use sinr_phy::{PowerAssignment, SinrParams};
use sinr_sim::{Action, Engine, EngineBackend, Protocol, Reception, SlotOutcome};

use crate::{CoreError, Result};

/// Tuning knobs for distributed contention resolution.
#[derive(Clone, Debug, PartialEq)]
pub struct ContentionConfig {
    /// Probability levels per sweep: level `j ∈ [0, sweep_len)` uses
    /// transmission probability `2^{-(j+1)}`. `None` derives
    /// `⌈log₂ n⌉ + 1` from the instance size.
    pub sweep_len: Option<u32>,
    /// Safety cap on slot-pairs before giving up.
    pub max_pairs: u64,
    /// Channel-resolution backend of the simulation engine (all
    /// backends are bit-identical; `Naive` exists for parity testing
    /// and benchmarks).
    pub backend: EngineBackend,
}

impl Default for ContentionConfig {
    fn default() -> Self {
        ContentionConfig {
            sweep_len: None,
            max_pairs: 200_000,
            backend: EngineBackend::default(),
        }
    }
}

/// Payload of the contention-resolution protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContentionMsg {
    /// Data transmission for the given link (sender → receiver).
    Data {
        /// The link being scheduled.
        link: Link,
    },
    /// Acknowledgment for the given link (receiver → sender).
    Ack {
        /// The link being acknowledged.
        link: Link,
    },
}

#[derive(Debug)]
struct ContentionNode {
    /// Links this node must deliver (as sender), round-robin order.
    pending: Vec<Link>,
    /// Index of the next pending link to offer.
    next: usize,
    /// Links delivered, with the data slot they succeeded in.
    delivered: Vec<(Link, u64)>,
    /// Ack to emit in the next ack slot (as a receiver).
    ack_due: Option<Link>,
    /// The link offered in the current pair (awaiting ack).
    in_flight: Option<Link>,
    /// Power per link this node sends (data powers; acks use the dual
    /// link's power, precomputed the same way).
    tx_power: HashMap<Link, f64>,
    sweep_len: u32,
}

impl ContentionNode {
    fn offer(&mut self) -> Option<Link> {
        if self.pending.is_empty() {
            return None;
        }
        self.next %= self.pending.len();
        let l = self.pending[self.next];
        self.next += 1;
        Some(l)
    }

    fn retire(&mut self, link: Link, data_slot: u64) {
        if let Some(pos) = self.pending.iter().position(|&l| l == link) {
            self.pending.remove(pos);
            self.delivered.push((link, data_slot));
        }
    }
}

impl Protocol for ContentionNode {
    type Msg = ContentionMsg;

    fn begin_slot(&mut self, _node: NodeId, slot: u64, rng: &mut StdRng) -> Action<ContentionMsg> {
        if slot % 2 == 0 {
            // Data slot. Ack duty from the previous pair has been
            // resolved; decide whether to offer a pending link.
            self.ack_due = None;
            self.in_flight = None;
            let pair = slot / 2;
            let level = (pair % u64::from(self.sweep_len)) as i32;
            let prob = 0.5f64.powi(level + 1);
            if !self.pending.is_empty() && rng.gen_bool(prob) {
                let link = self.offer().expect("pending is non-empty");
                self.in_flight = Some(link);
                let power = self.tx_power[&link];
                return Action::Transmit {
                    power,
                    msg: ContentionMsg::Data { link },
                };
            }
            Action::Listen
        } else {
            // Ack slot.
            if let Some(link) = self.ack_due {
                let power = self.tx_power[&link.dual()];
                return Action::Transmit {
                    power,
                    msg: ContentionMsg::Ack { link },
                };
            }
            if self.in_flight.is_some() {
                return Action::Listen;
            }
            Action::Sleep
        }
    }

    fn end_slot(
        &mut self,
        node: NodeId,
        slot: u64,
        outcome: SlotOutcome<ContentionMsg>,
        _rng: &mut StdRng,
    ) {
        match (slot % 2, outcome) {
            (
                0,
                SlotOutcome::Received(Reception {
                    msg: ContentionMsg::Data { link },
                    ..
                }),
            ) if link.receiver == node => {
                self.ack_due = Some(link);
            }
            (
                1,
                SlotOutcome::Received(Reception {
                    msg: ContentionMsg::Ack { link },
                    ..
                }),
            ) if link.sender == node && self.in_flight == Some(link) => {
                self.retire(link, slot - 1);
            }
            _ => {}
        }
    }
}

/// Outcome of a distributed scheduling run.
#[derive(Clone, Debug)]
pub struct ContentionOutcome {
    /// The computed schedule (slots are compacted data-slot indices).
    pub schedule: Schedule,
    /// Total simulated slots (protocol runtime, 2× pairs).
    pub slots_used: u64,
}

/// Schedules `links` distributively under `power`.
///
/// Senders learn their links' powers up front (an oblivious assignment
/// needs only the link length, which the sender knows; an explicit
/// assignment models the arbitrary-power case). The returned schedule
/// covers every link and every slot is feasible under `power` by the
/// success-monotonicity argument above.
///
/// # Errors
///
/// - [`CoreError::Phy`] if `power` lacks an entry for some link or a
///   link cannot overcome noise;
/// - [`CoreError::ConvergenceFailure`] if links remain undelivered
///   after `max_pairs` slot-pairs.
pub fn schedule_distributed(
    params: &SinrParams,
    instance: &Instance,
    links: &LinkSet,
    power: &PowerAssignment,
    cfg: &ContentionConfig,
    seed: u64,
) -> Result<ContentionOutcome> {
    if links.is_empty() {
        return Ok(ContentionOutcome {
            schedule: Schedule::new(),
            slots_used: 0,
        });
    }

    // Precompute data and ack powers; fail fast on missing/bad powers.
    let mut per_node: HashMap<NodeId, HashMap<Link, f64>> = HashMap::new();
    let calc = AffectanceCalc::new(params, instance);
    for l in links.iter() {
        let p_data = power.power_of(l, instance, params)?;
        // Rejects a power at or below the link's noise floor.
        calc.noise_factor(l, p_data)?;
        // The ack travels the dual link; oblivious powers depend only on
        // the (equal) length. For explicit assignments, fall back to the
        // data power when the dual has no entry.
        let p_ack = power.power_of(l.dual(), instance, params).unwrap_or(p_data);
        per_node.entry(l.sender).or_default().insert(l, p_data);
        per_node
            .entry(l.receiver)
            .or_default()
            .insert(l.dual(), p_ack);
    }

    let sweep_len = cfg
        .sweep_len
        .unwrap_or_else(|| (instance.len().max(2) as f64).log2().ceil() as u32 + 1)
        .max(1);

    let mut engine = Engine::with_backend(
        params,
        instance,
        |id| {
            let tx_power = per_node.remove(&id).unwrap_or_default();
            let pending: Vec<Link> = links.iter().filter(|l| l.sender == id).collect();
            ContentionNode {
                pending,
                next: 0,
                delivered: Vec::new(),
                ack_due: None,
                in_flight: None,
                tx_power,
                sweep_len,
            }
        },
        seed,
        cfg.backend,
    );

    engine.run_until(2 * cfg.max_pairs, |e| {
        e.nodes().iter().all(|n| n.pending.is_empty())
    });
    let slots_used = engine.slot();

    let undelivered: usize = engine.nodes().iter().map(|n| n.pending.len()).sum();
    if undelivered > 0 {
        return Err(CoreError::ConvergenceFailure {
            phase: "contention scheduling",
            detail: format!(
                "{undelivered} of {} links undelivered after {} slot-pairs",
                links.len(),
                slots_used / 2
            ),
        });
    }

    let delivered = engine.nodes().iter().flat_map(|node| &node.delivered);
    let mut schedule = Schedule::from_pairs(delivered.map(|&(l, s)| (l, s as usize)))?;
    schedule.compact();
    schedule.validate_covers(links)?;
    Ok(ContentionOutcome {
        schedule,
        slots_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geom::gen;
    use sinr_phy::feasibility;

    fn params() -> SinrParams {
        SinrParams::default()
    }

    #[test]
    fn empty_set_is_trivial() {
        let p = params();
        let inst = gen::line(2).unwrap();
        let out = schedule_distributed(
            &p,
            &inst,
            &LinkSet::new(),
            &PowerAssignment::uniform(1.0),
            &ContentionConfig::default(),
            0,
        )
        .unwrap();
        assert_eq!(out.schedule.num_slots(), 0);
        assert_eq!(out.slots_used, 0);
    }

    #[test]
    fn single_link_schedules_quickly() {
        let p = params();
        let inst = gen::line(2).unwrap();
        let links = LinkSet::from_links(vec![Link::new(0, 1)]).unwrap();
        let power = PowerAssignment::mean_with_margin(&p, inst.delta());
        let out = schedule_distributed(&p, &inst, &links, &power, &Default::default(), 1).unwrap();
        assert_eq!(out.schedule.num_slots(), 1);
        assert!(out.slots_used < 200);
    }

    #[test]
    fn schedules_random_tree_links_feasibly() {
        let p = params();
        let inst = gen::uniform_square(30, 1.5, 4).unwrap();
        // Use the MST aggregation links as the workload.
        let parents = sinr_geom::mst::mst_parent_array(&inst, 0);
        let links: LinkSet = parents
            .iter()
            .enumerate()
            .filter_map(|(u, p)| p.map(|v| Link::new(u, v)))
            .collect();
        let power = PowerAssignment::mean_with_margin(&p, inst.delta());
        let out = schedule_distributed(&p, &inst, &links, &power, &Default::default(), 7).unwrap();
        assert_eq!(out.schedule.links().len(), links.len());
        feasibility::validate_schedule(&p, &inst, &out.schedule, &power)
            .expect("per-slot sets replay feasibly");
    }

    #[test]
    fn dual_sets_with_shared_senders_schedule() {
        let p = params();
        let inst = gen::uniform_square(20, 1.5, 8).unwrap();
        let parents = sinr_geom::mst::mst_parent_array(&inst, 0);
        let agg: LinkSet = parents
            .iter()
            .enumerate()
            .filter_map(|(u, p)| p.map(|v| Link::new(u, v)))
            .collect();
        // Dissemination direction: parents send to many children.
        let dual = agg.dual();
        let power = PowerAssignment::mean_with_margin(&p, inst.delta());
        let out = schedule_distributed(&p, &inst, &dual, &power, &Default::default(), 9).unwrap();
        assert_eq!(out.schedule.links().len(), dual.len());
        feasibility::validate_schedule(&p, &inst, &out.schedule, &power).unwrap();
    }

    #[test]
    fn deterministic_in_seed() {
        let p = params();
        let inst = gen::uniform_square(15, 1.5, 2).unwrap();
        let links = LinkSet::from_links(vec![Link::new(1, 0), Link::new(2, 0)]).unwrap();
        let power = PowerAssignment::mean_with_margin(&p, inst.delta());
        let a = schedule_distributed(&p, &inst, &links, &power, &Default::default(), 5).unwrap();
        let b = schedule_distributed(&p, &inst, &links, &power, &Default::default(), 5).unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.slots_used, b.slots_used);
    }

    #[test]
    fn impossible_power_fails_fast() {
        let p = params();
        let inst = gen::line(3).unwrap();
        let links = LinkSet::from_links(vec![Link::new(0, 2)]).unwrap(); // length 2
        let weak = PowerAssignment::uniform(p.noise_floor_power(2.0) * 0.9);
        let e = schedule_distributed(&p, &inst, &links, &weak, &Default::default(), 0);
        assert!(matches!(e, Err(CoreError::Phy(_))));
    }

    #[test]
    fn tight_budget_reports_convergence_failure() {
        let p = params();
        let inst = gen::uniform_square(20, 1.5, 3).unwrap();
        let links: LinkSet = (1..inst.len()).map(|u| Link::new(u, 0)).collect();
        let power = PowerAssignment::mean_with_margin(&p, inst.delta());
        let cfg = ContentionConfig {
            max_pairs: 1,
            ..Default::default()
        };
        let e = schedule_distributed(&p, &inst, &links, &power, &cfg, 0);
        assert!(matches!(e, Err(CoreError::ConvergenceFailure { .. })));
    }
}
