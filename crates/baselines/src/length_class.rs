//! Length-class serialized scheduling (the \[21\]-style baseline).
//!
//! Moscibroda & Wattenhofer's seminal construction (and the simple
//! uniform-power bound the connectivity paper cites: uniform power can
//! require `Ω(log Δ)`-factor schedules) handles one length class at a
//! time, using a uniform power adequate for that class. This baseline
//! reproduces that shape: partition the links into length classes,
//! first-fit each class under its own uniform-with-margin power, and
//! concatenate the class schedules. Its length grows with the number
//! of occupied classes (`≤ log Δ`), which is exactly the gap
//! experiments E4/E7 exhibit against mean/arbitrary power.

use std::collections::HashMap;

use sinr_geom::Instance;
use sinr_links::{Link, LinkSet, Schedule};
use sinr_phy::{PowerAssignment, SinrParams};

use crate::first_fit::{first_fit_schedule, FirstFitOrder};

/// Result of length-class serialized scheduling.
#[derive(Clone, Debug)]
pub struct LengthClassOutcome {
    /// The combined schedule (classes back to back, ascending).
    pub schedule: Schedule,
    /// Per-link powers (each link uses its class's uniform power).
    pub powers: HashMap<Link, f64>,
    /// Number of occupied length classes.
    pub classes: usize,
    /// Links unschedulable even alone (empty with margin powers).
    pub unschedulable: Vec<Link>,
}

/// Schedules `links` one length class at a time under per-class
/// uniform power.
pub fn length_class_schedule(
    params: &SinrParams,
    instance: &Instance,
    links: &LinkSet,
) -> LengthClassOutcome {
    let mut placed = Vec::with_capacity(links.len());
    let mut powers = HashMap::new();
    let mut unschedulable = Vec::new();
    let mut base_slot = 0usize;
    let classes = links.length_classes(instance);
    let occupied = classes.len();

    for (class, members) in classes {
        // Uniform power adequate for the class ceiling 2^class.
        let ceiling = 2f64.powi(class as i32);
        let power = PowerAssignment::uniform_with_margin(params, ceiling);
        let (class_schedule, mut bad) = first_fit_schedule(
            params,
            instance,
            &members,
            &power,
            FirstFitOrder::AscendingLength,
            |_| 0,
        );
        for (l, s) in class_schedule.iter() {
            placed.push((l, base_slot + s));
            powers.insert(
                l,
                power
                    .power_of(l, instance, params)
                    .expect("uniform power never misses"),
            );
        }
        base_slot += class_schedule.num_slots();
        unschedulable.append(&mut bad);
    }

    let mut schedule = Schedule::from_pairs(placed).expect("a set's links are placed once");
    schedule.compact();
    LengthClassOutcome {
        schedule,
        powers,
        classes: occupied,
        unschedulable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geom::gen;
    use sinr_phy::feasibility;

    fn mst_links(inst: &Instance) -> LinkSet {
        sinr_geom::mst::mst_parent_array(inst, 0)
            .iter()
            .enumerate()
            .filter_map(|(u, p)| p.map(|v| Link::new(u, v)))
            .collect()
    }

    #[test]
    fn schedules_all_links_feasibly() {
        let p = SinrParams::default();
        let inst = gen::uniform_square(40, 1.5, 3).unwrap();
        let links = mst_links(&inst);
        let out = length_class_schedule(&p, &inst, &links);
        assert!(out.unschedulable.is_empty());
        assert_eq!(out.schedule.links().len(), links.len());
        let pa = PowerAssignment::explicit(out.powers).unwrap();
        feasibility::validate_schedule(&p, &inst, &out.schedule, &pa).unwrap();
    }

    #[test]
    fn class_count_grows_with_delta() {
        let p = SinrParams::default();
        let small = gen::uniform_square(32, 1.2, 5).unwrap();
        let big = gen::exponential_chain(32, 1.6, 5).unwrap();
        let out_small = length_class_schedule(&p, &small, &mst_links(&small));
        let out_big = length_class_schedule(&p, &big, &mst_links(&big));
        assert!(out_big.classes >= out_small.classes);
    }

    #[test]
    fn empty_input() {
        let p = SinrParams::default();
        let inst = gen::line(2).unwrap();
        let out = length_class_schedule(&p, &inst, &LinkSet::new());
        assert_eq!(out.schedule.num_slots(), 0);
        assert_eq!(out.classes, 0);
    }
}
