//! Property-based integration tests: the pipeline invariants must hold
//! for arbitrary seeds and sizes, not just the unit-test fixtures.

use proptest::prelude::*;
use sinr_connect_suite::connectivity::init::{run_init, InitConfig};
use sinr_connect_suite::connectivity::power_control::{foschini_miljanic, PowerControlConfig};
use sinr_connect_suite::connectivity::{connect, Strategy};
use sinr_connect_suite::geom::gen;
use sinr_connect_suite::links::{Link, LinkSet};
use sinr_connect_suite::phy::{feasibility, PowerAssignment, SinrParams};

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Init always yields a spanning in-tree with a feasible timestamp
    /// schedule, whatever the instance seed.
    #[test]
    fn init_always_spans(seed in 0u64..5000, n in 2usize..48) {
        let params = SinrParams::default();
        let inst = gen::uniform_square(n, 1.5, seed).unwrap();
        let out = run_init(&params, &inst, &InitConfig::default(), seed ^ 0xabc).unwrap();
        prop_assert_eq!(out.run.uplinks.iter().flatten().count(), n - 1);
        let power = out.run.power_assignment();
        prop_assert!(
            feasibility::validate_schedule(&params, &inst, &out.schedule, &power).is_ok()
        );
        // Every node reaches the root.
        for u in 0..n {
            prop_assert_eq!(*out.tree.path_to_root(u).last().unwrap(), out.tree.root());
        }
    }

    /// The TVC pipelines always emit ordering-valid bi-trees with
    /// per-slot feasible schedules.
    #[test]
    fn tvc_always_valid(seed in 0u64..2000, n in 2usize..32) {
        let params = SinrParams::default();
        let inst = gen::uniform_square(n, 1.5, seed).unwrap();
        let r = connect(&params, &inst, Strategy::TvcArbitrary, seed ^ 0x77).unwrap();
        prop_assert_eq!(r.tree_links.len(), n - 1);
        prop_assert!(feasibility::validate_schedule(
            &params, &inst, &r.aggregation_schedule, &r.power).is_ok());
        prop_assert!(r.bitree.is_some());
    }

    /// Foschini–Miljanic on disjoint well-separated pairs always
    /// converges, and its powers always validate.
    #[test]
    fn fm_converges_on_separated_pairs(k in 1usize..6, gap in 30.0f64..200.0) {
        let params = SinrParams::default();
        let mut pts = Vec::new();
        for i in 0..k {
            pts.push(sinr_connect_suite::geom::Point::new(gap * i as f64, 0.0));
            pts.push(sinr_connect_suite::geom::Point::new(gap * i as f64 + 1.0, 0.0));
        }
        let inst = sinr_connect_suite::geom::Instance::new(pts).unwrap();
        let links: LinkSet = (0..k).map(|i| Link::new(2 * i, 2 * i + 1)).collect();
        let out = foschini_miljanic(&params, &inst, &links, &PowerControlConfig::default())
            .unwrap();
        let pa = PowerAssignment::explicit(out.powers).unwrap();
        prop_assert!(feasibility::is_feasible(&params, &inst, &links, &pa));
    }

    /// Feasibility is monotone: any sub-slot of a feasible slot remains
    /// feasible (drop a random link from a feasible set).
    #[test]
    fn feasibility_monotone(seed in 0u64..2000, n in 4usize..40) {
        let params = SinrParams::default();
        let inst = gen::uniform_square(n, 1.5, seed).unwrap();
        let r = connect(&params, &inst, Strategy::TvcMean, seed).unwrap();
        for slot_links in r.aggregation_schedule.slots() {
            if slot_links.len() < 2 {
                continue;
            }
            let mut reduced = slot_links.clone();
            let drop = reduced.links()[seed as usize % reduced.len()];
            reduced.retain(|l| l != drop);
            prop_assert!(
                feasibility::is_feasible(&params, &inst, &reduced, &r.power),
                "removing a link broke feasibility"
            );
        }
    }

    /// Schedule lengths never exceed the trivial one-link-per-slot bound.
    #[test]
    fn schedules_never_worse_than_serial(seed in 0u64..2000, n in 2usize..32) {
        let params = SinrParams::default();
        let inst = gen::uniform_square(n, 1.5, seed).unwrap();
        for strategy in [Strategy::TvcMean, Strategy::TvcArbitrary] {
            let r = connect(&params, &inst, strategy, seed ^ 0x3).unwrap();
            prop_assert!(r.schedule_len < n, "{}: {} slots for {} links",
                strategy, r.schedule_len, n - 1);
        }
    }
}
