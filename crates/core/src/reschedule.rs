//! Rescheduling the `Init` tree with mean power (§7, Theorem 3).
//!
//! The tree `T` produced by `Init` is `O(log n)`-sparse (Theorem 11),
//! so by Theorem 9 it can be scheduled in `O(Υ·log² n)` slots under
//! mean power; running the distributed contention-resolution protocol
//! adds an `O(log n)` factor, giving Theorem 3's `O(Υ·log³ n)` bound.
//!
//! The paper notes the rescheduled solution "does not necessarily
//! satisfy the ordering property of bi-trees": both directions get
//! plain schedules (aggregation links and their duals separately; the
//! tree is its own dual as a link set, Appendix C).

use sinr_geom::Instance;
use sinr_links::{LinkSet, Schedule};
use sinr_phy::{PowerAssignment, SinrParams};

use crate::contention::{schedule_distributed, ContentionConfig};
use crate::Result;

/// Result of the §7 rescheduling pipeline.
#[derive(Clone, Debug)]
pub struct RescheduleOutcome {
    /// Schedule for the aggregation (child → parent) links.
    pub aggregation: Schedule,
    /// Schedule for the dissemination (dual) links.
    pub dissemination: Schedule,
    /// The mean-power assignment used by both directions.
    pub power: PowerAssignment,
    /// Distributed protocol runtime in slots (both directions).
    pub slots_used: u64,
}

impl RescheduleOutcome {
    /// Combined bidirectional schedule length (the two directions are
    /// time-multiplexed back to back).
    pub fn combined_slots(&self) -> usize {
        self.aggregation.num_slots() + self.dissemination.num_slots()
    }
}

/// Reschedules the given tree links (aggregation direction) and their
/// duals under mean power using distributed contention resolution.
///
/// # Errors
///
/// Propagates contention-resolution errors (convergence/power).
pub fn reschedule_mean(
    params: &SinrParams,
    instance: &Instance,
    aggregation_links: &LinkSet,
    cfg: &ContentionConfig,
    seed: u64,
) -> Result<RescheduleOutcome> {
    let power = PowerAssignment::mean_with_margin(params, instance.delta());
    let agg = schedule_distributed(params, instance, aggregation_links, &power, cfg, seed)?;
    let dual_links = aggregation_links.dual();
    let dis = schedule_distributed(
        params,
        instance,
        &dual_links,
        &power,
        cfg,
        seed.wrapping_add(1),
    )?;
    Ok(RescheduleOutcome {
        aggregation: agg.schedule,
        dissemination: dis.schedule,
        power,
        slots_used: agg.slots_used + dis.slots_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{run_init, InitConfig};
    use sinr_geom::gen;
    use sinr_phy::feasibility;

    #[test]
    fn reschedule_covers_both_directions_feasibly() {
        let params = SinrParams::default();
        let inst = gen::uniform_square(30, 1.5, 21).unwrap();
        let init = run_init(&params, &inst, &InitConfig::default(), 4).unwrap();
        let links = init.tree.aggregation_links();
        let out = reschedule_mean(&params, &inst, &links, &ContentionConfig::default(), 8).unwrap();
        assert_eq!(out.aggregation.links().len(), links.len());
        assert_eq!(out.dissemination.links().len(), links.len());
        feasibility::validate_schedule(&params, &inst, &out.aggregation, &out.power).unwrap();
        feasibility::validate_schedule(&params, &inst, &out.dissemination, &out.power).unwrap();
        assert!(out.combined_slots() > 0);
        assert!(out.slots_used >= 2 * out.combined_slots() as u64);
    }

    #[test]
    fn reschedule_usually_beats_timestamps() {
        // The whole point of Theorem 3: the timestamp schedule wastes
        // Θ(log Δ · log n) slots; contention resolution compacts it.
        let params = SinrParams::default();
        let inst = gen::exponential_chain(24, 1.8, 1).unwrap();
        let init = run_init(&params, &inst, &InitConfig::default(), 5).unwrap();
        let links = init.tree.aggregation_links();
        let out = reschedule_mean(&params, &inst, &links, &ContentionConfig::default(), 3).unwrap();
        assert!(
            out.aggregation.num_slots() <= init.schedule.num_slots() * 2,
            "rescheduled {} vs timestamps {}",
            out.aggregation.num_slots(),
            init.schedule.num_slots()
        );
    }
}
