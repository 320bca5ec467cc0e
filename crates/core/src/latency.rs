//! Latency verification for bi-trees (Definition 1, §4).
//!
//! A bi-tree promises: one pass of the aggregation schedule completes a
//! converge-cast; one pass of the dissemination schedule completes a
//! broadcast; any pairwise message needs at most one pass of each. This
//! module *replays* the schedules against the SINR channel with the
//! actual link powers and checks that data really flows — the
//! end-to-end validation behind experiment E8.
//!
//! The replay consumes the channel only through the thresholded
//! delivery decision `SINR ≥ β`, so each pass refills one
//! [`InterferenceField`] per slot (certified near-field decision, exact
//! naive-order fallback — DESIGN.md §7/§8) instead of the historical
//! all-pairs affectance sums, and asks it which nodes transmit;
//! decisions are bit-identical and the pass over a schedule is
//! near-linear in its links.

use sinr_geom::{Instance, NodeId};
use sinr_links::{BiTree, Link, Schedule};
use sinr_phy::field::InterferenceField;
use sinr_phy::{PhyError, PowerAssignment, SinrParams};

use crate::{CoreError, Result};

/// Result of replaying an aggregation pass.
#[derive(Clone, Debug, PartialEq)]
pub struct ConvergecastCheck {
    /// Slots in the pass.
    pub slots: usize,
    /// Whether every link decoded successfully.
    pub all_delivered: bool,
    /// The maximum node id aggregated at the root (should be `n − 1`).
    pub root_aggregate: NodeId,
}

/// Result of replaying a dissemination pass.
#[derive(Clone, Debug, PartialEq)]
pub struct BroadcastCheck {
    /// Slots in the pass.
    pub slots: usize,
    /// Nodes that received the root's token.
    pub reached: usize,
    /// Whether all nodes were reached.
    pub all_reached: bool,
}

/// Replays one pass of `schedule` against the channel: each slot's
/// links transmit at their powers, one field is refilled with them, and
/// `each_slot(field, links)` reads the slot, `links` pairing each link
/// with its power in slot order. A delivery lands on a receiver that
/// does not transmit in its slot, so no later link of the slot reads
/// what it changes, and a caller applies it at once. Returns the pass's
/// slot count. The stray sweep ([`crate::cleanup`]) replays through
/// here too.
///
/// # Errors
///
/// A missing power, or [`PhyError::InfeasibleSlot`] with SINR 0 naming
/// the first link of a node that sends twice in a slot (it has one
/// radio).
pub(crate) fn replay(
    params: &SinrParams,
    instance: &Instance,
    schedule: &Schedule,
    power: &PowerAssignment,
    mut each_slot: impl FnMut(&InterferenceField<'_>, &[(Link, f64)]),
) -> Result<usize> {
    let mut field = InterferenceField::build(params, instance, &[]);
    let (mut links, mut tx) = (Vec::new(), Vec::new());
    let slots = schedule.slots();
    for (slot, slot_links) in slots.iter().enumerate() {
        links.clear();
        tx.clear();
        for l in slot_links.iter() {
            let p = power.power_of(l, instance, params)?;
            links.push((l, p));
            tx.push((l.sender, p));
        }
        if let Err(u) = field.refill(&tx) {
            let first = links.iter().find(|(l, _)| l.sender == u);
            let (link, _) = *first.expect("a repeated sender sends a link of its slot");
            let sinr = 0.0;
            return Err(PhyError::InfeasibleSlot { slot, link, sinr }.into());
        }
        each_slot(&field, &links);
    }
    Ok(slots.len())
}

/// Replays the aggregation schedule: every node starts holding its own
/// id; each slot, the slot's links transmit with their powers and a
/// successful decode merges the child's aggregate (max) into the
/// parent. Returns what the root ends up holding.
///
/// # Errors
///
/// Returns [`CoreError::Phy`] if a link has no power assigned. A node
/// sends only its uplink, so never twice in a slot.
pub fn simulate_convergecast(
    params: &SinrParams,
    instance: &Instance,
    bitree: &BiTree,
    power: &PowerAssignment,
) -> Result<ConvergecastCheck> {
    let mut holding: Vec<NodeId> = (0..instance.len()).collect();
    let mut all_delivered = true;
    let threshold = params.delivery_threshold();
    let schedule = bitree.aggregation_schedule();
    let slots = replay(params, instance, schedule, power, |field, links| {
        for &(l, p) in links {
            if !field.transmits(l.receiver) && field.sinr_at_least(l, p, threshold) {
                holding[l.receiver] = holding[l.receiver].max(holding[l.sender]);
            } else {
                all_delivered = false;
            }
        }
    })?;
    Ok(ConvergecastCheck {
        slots,
        all_delivered,
        root_aggregate: holding[bitree.tree().root()],
    })
}

/// Replays the dissemination schedule: the root holds a token; each
/// slot, the slot's (dual) links transmit and successful decodes pass
/// the token down. Counts how many nodes end up with the token.
///
/// # Errors
///
/// Returns [`CoreError::Phy`] if a link has no power assigned. A node
/// never sends twice in a dissemination slot: that would take two
/// children sharing an aggregation slot, which [`BiTree::new`] rules
/// out.
pub fn simulate_broadcast(
    params: &SinrParams,
    instance: &Instance,
    bitree: &BiTree,
    power: &PowerAssignment,
) -> Result<BroadcastCheck> {
    let n = instance.len();
    let mut has_token = vec![false; n];
    has_token[bitree.tree().root()] = true;
    let threshold = params.delivery_threshold();
    let schedule = bitree.dissemination_schedule();
    let slots = replay(params, instance, &schedule, power, |field, links| {
        for &(l, p) in links {
            if has_token[l.sender]
                && !field.transmits(l.receiver)
                && field.sinr_at_least(l, p, threshold)
            {
                has_token[l.receiver] = true;
            }
        }
    })?;
    let reached = has_token.iter().filter(|&&t| t).count();
    Ok(BroadcastCheck {
        slots,
        reached,
        all_reached: reached == n,
    })
}

/// End-to-end latency audit of a bi-tree: replays both passes and
/// checks the Definition-1 promises. Returns
/// `(convergecast, broadcast)`.
///
/// # Errors
///
/// Returns [`CoreError::ConvergenceFailure`] if either pass fails to
/// deliver everything (the bi-tree or its powers are broken), or
/// power-lookup errors.
pub fn audit_bitree(
    params: &SinrParams,
    instance: &Instance,
    bitree: &BiTree,
    power: &PowerAssignment,
) -> Result<(ConvergecastCheck, BroadcastCheck)> {
    let up = simulate_convergecast(params, instance, bitree, power)?;
    if !up.all_delivered || up.root_aggregate != instance.len() - 1 {
        return Err(CoreError::ConvergenceFailure {
            phase: "bi-tree audit (convergecast)",
            detail: format!(
                "delivered={} root_aggregate={} (want {})",
                up.all_delivered,
                up.root_aggregate,
                instance.len() - 1
            ),
        });
    }
    let down = simulate_broadcast(params, instance, bitree, power)?;
    if !down.all_reached {
        return Err(CoreError::ConvergenceFailure {
            phase: "bi-tree audit (broadcast)",
            detail: format!("reached {}/{} nodes", down.reached, instance.len()),
        });
    }
    Ok((up, down))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{run_init, InitConfig};
    use crate::selector::MeanSamplingSelector;
    use crate::tvc::{tree_via_capacity, TvcConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sinr_geom::{gen, Point};
    use sinr_links::LinkSet;
    use sinr_phy::affectance::AffectanceCalc;
    use sinr_phy::ChannelModel;

    fn params() -> SinrParams {
        SinrParams::default()
    }

    #[test]
    fn init_bitree_passes_audit() {
        let p = params();
        let inst = gen::uniform_square(30, 1.5, 31).unwrap();
        let out = run_init(&p, &inst, &InitConfig::default(), 6).unwrap();
        let power = out.run.power_assignment();
        let (up, down) = audit_bitree(&p, &inst, &out.bitree, &power).unwrap();
        assert!(up.all_delivered);
        assert_eq!(up.root_aggregate, inst.len() - 1);
        assert!(down.all_reached);
        assert_eq!(up.slots, out.schedule.num_slots());
    }

    #[test]
    fn tvc_bitree_passes_audit() {
        let p = params();
        let inst = gen::uniform_square(36, 1.5, 33).unwrap();
        let mut sel = MeanSamplingSelector::default();
        let out = tree_via_capacity(&p, &inst, &TvcConfig::default(), &mut sel, 12).unwrap();
        let (up, down) = audit_bitree(&p, &inst, &out.bitree, &out.power).unwrap();
        assert!(up.all_delivered && down.all_reached);
        // One pass each: the Definition-1 latency promise.
        assert_eq!(up.slots, out.schedule_len());
        assert_eq!(down.slots, out.schedule_len());
    }

    #[test]
    fn single_node_audit_trivial() {
        let p = params();
        let inst = gen::line(1).unwrap();
        let out = run_init(&p, &inst, &InitConfig::default(), 0).unwrap();
        let power = out.run.power_assignment();
        let (up, down) = audit_bitree(&p, &inst, &out.bitree, &power).unwrap();
        assert_eq!(up.root_aggregate, 0);
        assert_eq!(down.reached, 1);
    }

    /// Both replays the way they were written before they shared one
    /// refilled field: all-pairs `AffectanceCalc::sinr` per link, a busy
    /// bitmap for half-duplex, and deliveries applied at the end of
    /// their slot.
    fn naive_replays(
        p: &SinrParams,
        inst: &Instance,
        bitree: &BiTree,
        power: &PowerAssignment,
    ) -> (ConvergecastCheck, BroadcastCheck) {
        let (n, root) = (inst.len(), bitree.tree().root());
        let calc = AffectanceCalc::new(p, inst);
        let mut busy = vec![false; n];
        let mut deliveries = |links: &LinkSet| -> Vec<(Link, bool)> {
            let tx: Vec<(NodeId, f64)> = links
                .iter()
                .map(|l| (l.sender, power.power_of(l, inst, p).unwrap()))
                .collect();
            for &(u, _) in &tx {
                busy[u] = true;
            }
            let out = links
                .iter()
                .zip(&tx)
                .map(|(l, &(_, pw))| {
                    let ok = !busy[l.receiver] && calc.sinr(l, pw, &tx) >= p.beta() * (1.0 - 1e-12);
                    (l, ok)
                })
                .collect();
            for &(u, _) in &tx {
                busy[u] = false;
            }
            out
        };
        let up_slots = bitree.aggregation_schedule().slots();
        let mut holding: Vec<NodeId> = (0..n).collect();
        let mut all_delivered = true;
        for links in &up_slots {
            let mut merges = Vec::new();
            for (l, ok) in deliveries(links) {
                if ok {
                    merges.push((l.receiver, holding[l.sender]));
                } else {
                    all_delivered = false;
                }
            }
            for (v, held) in merges {
                holding[v] = holding[v].max(held);
            }
        }
        let down_slots = bitree.dissemination_schedule().slots();
        let mut has_token = vec![false; n];
        has_token[root] = true;
        for links in &down_slots {
            let granted: Vec<NodeId> = deliveries(links)
                .into_iter()
                .filter(|&(l, ok)| ok && has_token[l.sender])
                .map(|(l, _)| l.receiver)
                .collect();
            for v in granted {
                has_token[v] = true;
            }
        }
        let reached = has_token.iter().filter(|&&t| t).count();
        (
            ConvergecastCheck {
                slots: up_slots.len(),
                all_delivered,
                root_aggregate: holding[root],
            },
            BroadcastCheck {
                slots: down_slots.len(),
                reached,
                all_reached: reached == n,
            },
        )
    }

    /// The refilled-field replays equal the naive all-pairs replays on
    /// Init and TVC bi-trees whose powers are partly broken (a share of
    /// the links, in both directions, ×10⁻² or ×10²: too weak to
    /// decode, or loud enough to drown their slot mates), on the
    /// geometric and a σ = 6 dB shadowed channel.
    #[test]
    fn replays_match_a_naive_replay_under_broken_powers() {
        let geometric = params();
        let shadowed = geometric.with_channel(ChannelModel::shadowed(5, 6.0).unwrap());
        let mut rng = StdRng::seed_from_u64(0x1a7e);
        let (mut cases, mut short_up, mut short_down, mut whole) = (0, 0, 0, 0);
        for p in [geometric, shadowed] {
            for seed in 0..3u64 {
                let inst = gen::uniform_square(60, 1.5, seed).unwrap();
                let init = run_init(&p, &inst, &InitConfig::default(), seed).unwrap();
                let mut sel = MeanSamplingSelector::default();
                let tvc = tree_via_capacity(&p, &inst, &TvcConfig::default(), &mut sel, seed);
                let tvc = tvc.unwrap();
                let built = [
                    (init.bitree, init.run.power_assignment()),
                    (tvc.bitree, tvc.power),
                ];
                for (bitree, power) in &built {
                    let base = power.as_explicit().unwrap();
                    for share in [0.0, 0.1, 0.3] {
                        let mut powers = base.clone();
                        for l in bitree.tree().aggregation_links().iter() {
                            if rng.gen_bool(share) {
                                let factor = if rng.gen_bool(0.5) { 1e-2 } else { 1e2 };
                                for d in [l, l.dual()] {
                                    *powers.get_mut(&d).unwrap() *= factor;
                                }
                            }
                        }
                        let power = PowerAssignment::explicit(powers).unwrap();
                        let up = simulate_convergecast(&p, &inst, bitree, &power).unwrap();
                        let down = simulate_broadcast(&p, &inst, bitree, &power).unwrap();
                        assert_eq!(
                            (up.clone(), down.clone()),
                            naive_replays(&p, &inst, bitree, &power),
                            "seed {seed}, share {share}, {:?}",
                            p.channel()
                        );
                        cases += 1;
                        short_up += usize::from(!up.all_delivered);
                        short_down += usize::from(!down.all_reached);
                        whole += usize::from(up.all_delivered && down.all_reached);
                    }
                }
            }
        }
        assert_eq!(cases, 36);
        assert!(short_up > 6, "too few broken converge-casts: {short_up}");
        assert!(short_down > 6, "too few broken broadcasts: {short_down}");
        assert!(whole >= 12, "unbroken powers must deliver: {whole}");
    }

    /// A raw schedule whose slot 1 has node 0 send twice is refused by
    /// the replay as `validate_schedule` refuses it: with SINR 0 on the
    /// first of the node's links, after reading only slot 0.
    #[test]
    fn replay_refuses_a_node_sending_twice() {
        let p = params();
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(-1.0, 0.0),
        ];
        let inst = Instance::new(points).unwrap();
        let twice = Schedule::from_pairs([
            (Link::new(1, 0), 0),
            (Link::new(0, 1), 1),
            (Link::new(0, 2), 1),
        ])
        .unwrap();
        let power = PowerAssignment::uniform(1e3);
        let want = PhyError::InfeasibleSlot {
            slot: 1,
            link: Link::new(0, 1),
            sinr: 0.0,
        };
        let validated = sinr_phy::feasibility::validate_schedule(&p, &inst, &twice, &power);
        assert_eq!(validated, Err(want.clone()));
        let mut read = Vec::new();
        let replayed = replay(&p, &inst, &twice, &power, |_, links| {
            read.extend(links.iter().map(|&(l, _)| l))
        });
        assert_eq!(replayed, Err(CoreError::Phy(want)));
        assert_eq!(read, [Link::new(1, 0)], "the refused slot is not read");
    }

    #[test]
    fn missing_power_is_reported() {
        let p = params();
        let inst = gen::uniform_square(20, 1.5, 2).unwrap();
        let out = run_init(&p, &inst, &InitConfig::default(), 1).unwrap();
        let empty = PowerAssignment::explicit(Default::default()).unwrap();
        assert!(matches!(
            simulate_convergecast(&p, &inst, &out.bitree, &empty),
            Err(CoreError::Phy(_))
        ));
    }
}
