//! Property-based tests for the SINR physical layer.

use proptest::prelude::*;
use sinr_geom::{gen, Instance, Point};
use sinr_links::{InTree, Link, LinkSet, Schedule};
use sinr_phy::affectance::AffectanceCalc;
use sinr_phy::feasibility::{AuditStats, Candidate, SlotAuditor};
use sinr_phy::{feasibility, packing, PhyError, PowerAssignment, SinrParams};

fn arb_params() -> impl Strategy<Value = SinrParams> {
    (2.1f64..5.0, 1.0f64..3.0, 0.0f64..2.0)
        .prop_map(|(a, b, n)| SinrParams::new(a, b, n, 0.1).expect("valid ranges"))
}

/// `inst` plus a twin of every third node, 1e-12..1e-4 away: squared
/// distances down to 1e-24, below the range of the auditor's gain table.
fn with_twins(inst: &Instance) -> Instance {
    let mut points: Vec<Point> = inst.iter().map(|(_, p)| p).collect();
    for (i, p) in inst.iter().map(|(_, p)| p).enumerate().step_by(3) {
        let offset = 10f64.powi(-4 - (i % 9) as i32);
        points.push(Point::new(p.x + offset, p.y));
    }
    Instance::new(points).unwrap()
}

/// Everyone's nearest-neighbor uplink: the link shape the packers see.
fn nearest_neighbor_links(inst: &Instance) -> Vec<Link> {
    let grid = sinr_geom::GridIndex::build(inst, 2.0);
    (0..inst.len())
        .filter_map(|u| grid.nearest_neighbor(u).map(|(v, _)| Link::new(u, v)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The §5 equivalence: total affectance ≤ 1 iff SINR ≥ β, whenever
    /// no individual term is clipped at 1 + ε.
    #[test]
    fn affectance_sinr_equivalence(
        params in arb_params(),
        seed in 0u64..10_000,
        n in 3usize..24,
        power_exp in 0.0f64..6.0,
    ) {
        let inst = gen::uniform_square(n, 2.0, seed).unwrap();
        let calc = AffectanceCalc::new(&params, &inst);
        let link = Link::new(0, 1);
        let p_u = params.min_power_for_length(link.length(&inst)) * 4.0;
        let p_w = 10f64.powf(power_exp);
        let senders: Vec<(usize, f64)> =
            (2..n).map(|w| (w, p_w)).collect();

        let clipped = senders.iter().any(|&(w, pw)| {
            calc.of_sender(w, pw, link, p_u).unwrap() >= 1.0 + params.epsilon() - 1e-9
        });
        prop_assume!(!clipped);

        let aff = calc.sum_on(&senders, link, p_u).unwrap();
        let sinr = calc.sinr(link, p_u, &senders);
        // Guard against razor-edge float ties.
        prop_assume!((aff - 1.0).abs() > 1e-9);
        prop_assert_eq!(aff <= 1.0, sinr >= params.beta(),
            "aff={} sinr={} beta={}", aff, sinr, params.beta());
    }

    /// Affectance is monotone in interferer power and anti-monotone in
    /// interferer distance.
    #[test]
    fn affectance_monotonicity(params in arb_params(), d in 2.0f64..50.0) {
        let inst = Instance::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(d, 0.0),
            Point::new(d * 2.0, 0.0),
        ]).unwrap();
        let calc = AffectanceCalc::new(&params, &inst);
        let link = Link::new(0, 1);
        let p_u = params.min_power_for_length(1.0) * 2.0;
        let a_near_lo = calc.of_sender(2, 1.0, link, p_u).unwrap();
        let a_near_hi = calc.of_sender(2, 5.0, link, p_u).unwrap();
        let a_far_lo = calc.of_sender(3, 1.0, link, p_u).unwrap();
        prop_assert!(a_near_hi >= a_near_lo);
        prop_assert!(a_far_lo <= a_near_lo);
    }

    /// Removing any link from a feasible set keeps it feasible
    /// (interference monotonicity), for every power family.
    #[test]
    fn feasibility_subset_closed(seed in 0u64..5_000, n in 4usize..20, tau in 0usize..3) {
        let params = SinrParams::default();
        let inst = gen::uniform_square(n, 3.0, seed).unwrap();
        let power = match tau {
            0 => PowerAssignment::uniform_with_margin(&params, inst.delta()),
            1 => PowerAssignment::mean_with_margin(&params, inst.delta()),
            _ => PowerAssignment::linear_with_margin(&params),
        };
        // Greedily build a feasible set from nearest-neighbor links.
        let grid = sinr_geom::GridIndex::build(&inst, 2.0);
        let mut feasible = LinkSet::new();
        for u in 0..n {
            if let Some((v, _)) = grid.nearest_neighbor(u) {
                let mut cand = feasible.clone();
                if cand.insert(Link::new(u, v))
                    && feasibility::is_feasible(&params, &inst, &cand, &power)
                {
                    feasible = cand;
                }
            }
        }
        prop_assume!(feasible.len() >= 2);
        for drop in feasible.iter() {
            let mut sub = feasible.clone();
            sub.retain(|l| l != drop);
            prop_assert!(feasibility::is_feasible(&params, &inst, &sub, &power));
        }
    }

    /// Oblivious powers scale as documented: P(ℓ)² = P_U · P_L(ℓ) for
    /// unit scales (mean is the geometric mean), on random lengths.
    #[test]
    fn mean_power_geometric_mean(len in 1.0f64..100.0, alpha in 2.1f64..5.0) {
        let params = SinrParams::new(alpha, 2.0, 1.0, 0.1).unwrap();
        let inst = Instance::new(vec![Point::new(0.0, 0.0), Point::new(len, 0.0)]).unwrap();
        let l = Link::new(0, 1);
        let u = PowerAssignment::uniform(1.0).power_of(l, &inst, &params).unwrap();
        let m = PowerAssignment::mean(1.0).power_of(l, &inst, &params).unwrap();
        let lin = PowerAssignment::linear(1.0).power_of(l, &inst, &params).unwrap();
        prop_assert!((m * m - u * lin).abs() <= 1e-9 * (m * m).max(u * lin));
    }

    /// The certified `SlotAuditor` under *random* seed / probe / commit
    /// sequences: every probe must equal a from-scratch
    /// `feasibility::check` on the residents followed by the probed
    /// link, a probe must leave the slot unchanged, and after **every**
    /// operation `is_feasible` must equal `check` on the residents in
    /// insertion order — the bit-exactness contract (DESIGN.md §7.4)
    /// the packers rely on, stressed through seeded slots, unconditional
    /// commits (which can make the slot infeasible) and probes that are
    /// never committed, rather than the packers' own access pattern.
    #[test]
    fn slot_auditor_random_ops_match_check(
        seed in 0u64..2_000,
        n in 8usize..40,
        tau in 0usize..3,
        seeded in 0usize..4,
        twins in 0u8..2,
        ops in proptest::collection::vec((0u8..4, 0usize..1_000), 1..50),
    ) {
        let params = SinrParams::default();
        let inst = gen::uniform_square(n, 1.5, seed).unwrap();
        let inst = if twins == 1 { with_twins(&inst) } else { inst };
        let power = match tau {
            0 => PowerAssignment::uniform_with_margin(&params, inst.delta()),
            1 => PowerAssignment::mean_with_margin(&params, inst.delta()),
            _ => PowerAssignment::linear_with_margin(&params),
        };
        let candidates = nearest_neighbor_links(&inst);
        prop_assume!(!candidates.is_empty());
        let pw = |l: Link| power.power_of(l, &inst, &params).unwrap();
        let feasible = |links: &[Link]| {
            links.is_empty() || {
                let set = LinkSet::from_links(links.to_vec()).unwrap();
                feasibility::check(&params, &inst, &set, &power).is_feasible()
            }
        };

        let mut resident: Vec<Link> = Vec::new();
        for &l in candidates.iter().take(seeded) {
            if !resident.contains(&l) {
                resident.push(l);
            }
        }
        let mut auditor =
            SlotAuditor::with_residents(&params, &inst, resident.iter().map(|&l| (l, pw(l))));
        for (op, pick) in ops {
            let link = candidates[pick % candidates.len()];
            if resident.contains(&link) {
                continue;
            }
            match op {
                // Unconditional commit (may make the slot infeasible —
                // the auditor must track that state too).
                0 => {
                    auditor.commit(&Candidate::new(&params, &inst, link, pw(link)));
                    resident.push(link);
                }
                // Probe, then commit exactly when it passes, as the
                // packers do; or probe and never commit.
                _ => {
                    let mut probe = resident.clone();
                    probe.push(link);
                    let expect = feasible(&probe);
                    let candidate = Candidate::new(&params, &inst, link, pw(link));
                    prop_assert_eq!(
                        auditor.probe(&candidate),
                        expect,
                        "probe decision diverged from check on {:?}",
                        link
                    );
                    prop_assert_eq!(auditor.links(), resident.as_slice(), "a probe changed the slot");
                    if expect && op != 3 {
                        auditor.commit(&candidate);
                        resident = probe;
                    }
                }
            }
            // After every operation: same residents, same decision as
            // a from-scratch check over them.
            prop_assert_eq!(auditor.links(), resident.as_slice());
            prop_assert_eq!(
                auditor.is_feasible(),
                feasible(&resident),
                "auditor state diverged from check after op {} on {} residents",
                op,
                resident.len()
            );
        }
    }

    /// `validate_schedule` returns exactly what a loop over `check`
    /// returns — the same `Ok`, or the same first infeasible slot, link
    /// and SINR bits — on random schedules over instances with
    /// near-co-located twins. A schedule is either random links in a
    /// few slots, or the packed MST bi-tree schedule (large feasible
    /// slots, decided by the certified field) with random links moved
    /// between slots; powers may be missing or below the noise floor.
    #[test]
    fn validate_schedule_matches_check_loop(
        seed in 0u64..5_000,
        n in 4usize..60,
        packed in 0u8..2,
        slots in 1usize..6,
        tau in 0usize..4,
        picks in proptest::collection::vec((0usize..1_000, 0usize..1_000, 0usize..8), 1..60),
    ) {
        let params = SinrParams::default();
        let inst = with_twins(&gen::uniform_square(n, 3.0, seed).unwrap());
        let m = inst.len();
        let mut schedule = Schedule::new();
        if packed == 1 {
            let tree = InTree::from_parents(sinr_geom::mst::mst_parent_array(&inst, 0)).unwrap();
            let margin = PowerAssignment::mean_with_margin(&params, inst.delta());
            schedule = packing::pack_tree_ordered(&params, &inst, &tree, &margin).0;
            let links: Vec<Link> = schedule.iter().map(|(l, _)| l).collect();
            let span = schedule.num_slots();
            for &(u, _, s) in picks.iter().take(picks.len() % 4) {
                schedule.assign(links[u % links.len()], s % span);
            }
        } else {
            for &(u, v, s) in &picks {
                let (u, v) = (u % m, v % m);
                if u != v {
                    schedule.assign(Link::new(u, v), s % slots);
                }
            }
        }
        let power = match tau {
            0 => PowerAssignment::uniform_with_margin(&params, inst.delta()),
            1 => PowerAssignment::mean_with_margin(&params, inst.delta()),
            2 => PowerAssignment::linear_with_margin(&params),
            // Explicit powers covering only some links, some of them
            // below the noise floor.
            _ => {
                let margin = PowerAssignment::mean_with_margin(&params, inst.delta());
                let map = schedule
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 5 != 4)
                    .map(|(i, (l, _))| {
                        let p = margin.power_of(l, &inst, &params).unwrap();
                        (l, if i % 7 == 3 { p * 1e-9 } else { p })
                    })
                    .collect();
                PowerAssignment::explicit(map).unwrap()
            }
        };
        let mut expect = Ok(());
        for (slot, links) in schedule.slots().iter().enumerate() {
            if let Some(v) = feasibility::check(&params, &inst, links, &power).violations.first() {
                expect = Err((slot, v.link, v.sinr.to_bits()));
                break;
            }
        }
        let got = feasibility::validate_schedule(&params, &inst, &schedule, &power).map_err(|e| match e {
            PhyError::InfeasibleSlot { slot, link, sinr } => (slot, link, sinr.to_bits()),
            other => panic!("unexpected error {other}"),
        });
        prop_assert_eq!(got, expect);
    }

    /// The noise factor c(u,v) always lies in [β, 2β] for margin powers.
    #[test]
    fn noise_factor_in_band(params in arb_params(), len in 1.0f64..64.0) {
        prop_assume!(params.noise() > 0.0);
        let inst = Instance::new(vec![Point::new(0.0, 0.0), Point::new(len, 0.0)]).unwrap();
        let calc = AffectanceCalc::new(&params, &inst);
        let link = Link::new(0, 1);
        for margin in [1.0f64, 2.0, 8.0] {
            let p = params.min_power_for_length(len) * margin;
            let c = calc.noise_factor(link, p).unwrap();
            prop_assert!(c >= params.beta() * (1.0 - 1e-12));
            prop_assert!(c <= 2.0 * params.beta() * (1.0 + 1e-12));
        }
    }
}

/// A `β` whose threshold `β·(1 − 1e-12)`, as `check` rounds it, lies in
/// `(low, high]`: found by stepping `β` an ulp at a time.
fn beta_with_threshold_in(low: f64, high: f64) -> Option<f64> {
    let factor = 1.0 - 1e-12;
    let mut beta = high / factor;
    for _ in 0..8 {
        let thr = beta * factor;
        if thr > low && thr <= high {
            return Some(beta);
        }
        let step = if thr > high { -1i64 } else { 1 };
        beta = f64::from_bits(beta.to_bits().wrapping_add_signed(step));
    }
    None
}

/// Grazing slots. `β` is tuned to the weakest receiver of a five-link
/// slot: to
/// within `1e-10` of its exact SINR on either side of the threshold,
/// or strictly between the SINRs that the insertion-order sum and the
/// reversed-order sum give, so that only the canonical order decides
/// it as `check` does. Four links are committed without probes, so the
/// residents' exact prefixes are behind; probing the fifth must catch
/// residents up and sum the new link exactly, and every decision must
/// equal `check`. The counters prove both exact paths ran.
#[test]
fn slot_auditor_grazing_sweep_takes_exact_paths() {
    let mut total = AuditStats::default();
    let mut decided = [0usize; 2];
    let mut order_split = 0usize;
    for seed in 0..40u64 {
        let inst = gen::uniform_square(24, 1.5, seed).unwrap();
        let geometric = SinrParams::default();
        let power = PowerAssignment::mean_with_margin(&geometric, inst.delta());
        let pw = |l: Link| power.power_of(l, &inst, &geometric).unwrap();
        let candidates = nearest_neighbor_links(&inst);
        let calc = AffectanceCalc::new(&geometric, &inst);
        for (i, window) in candidates.windows(5).enumerate() {
            let links = window.to_vec();
            let mut distinct = links.clone();
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.len() < links.len() {
                continue;
            }
            let tx: Vec<(usize, f64)> = links.iter().map(|&l| (l.sender, pw(l))).collect();
            // Residents reversed, the probed link still last.
            let mut reversed = tx[..4].to_vec();
            reversed.reverse();
            reversed.push(tx[4]);
            // The weakest receiver decides the slot once β sits at its
            // SINR: every other receiver clears it.
            let (target, sinr) = links
                .iter()
                .map(|&l| (l, calc.sinr(l, pw(l), &tx)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            let beta = match (i / 5 + seed as usize) % 5 {
                4 => {
                    let other = calc.sinr(target, pw(target), &reversed);
                    if other == sinr {
                        continue;
                    }
                    order_split += 1;
                    beta_with_threshold_in(sinr.min(other), sinr.max(other))
                }
                m => Some(sinr * [1.0 - 1e-10, 1.0, 1.0 + 2e-12, 1.0 + 1e-10][m]),
            };
            let Some(beta) = beta.filter(|b| *b >= 1.0 && b.is_finite()) else {
                continue;
            };
            let params = SinrParams::new(3.0, beta, 1.0, 0.1).unwrap();
            let power =
                PowerAssignment::explicit(links.iter().map(|&l| (l, pw(l))).collect()).unwrap();
            let set = LinkSet::from_links(links.clone()).unwrap();
            let expect = feasibility::check(&params, &inst, &set, &power).is_feasible();
            let mut auditor =
                SlotAuditor::with_residents(&params, &inst, links[..4].iter().map(|&l| (l, pw(l))));
            assert_eq!(
                auditor.probe(&Candidate::new(&params, &inst, links[4], pw(links[4]))),
                expect,
                "seed {seed} window {links:?} at β = {beta}"
            );
            decided[usize::from(expect)] += 1;
            let stats = auditor.stats();
            total.resident_exact += stats.resident_exact;
            total.link_exact += stats.link_exact;
        }
    }
    assert!(
        decided[0] > 0 && decided[1] > 0,
        "both outcomes graze: {decided:?}"
    );
    assert!(order_split > 0, "no window split on summation order");
    assert!(
        total.resident_exact > 0,
        "resident catch-up never ran: {total:?}"
    );
    assert!(
        total.link_exact > 0,
        "new-link exact path never ran: {total:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The certified auditor at the packers' slot sizes: the links of
    /// the largest slot of a packed n = 3072 MST bi-tree (about a hundred
    /// on the shadowed channel, a few hundred on the geometric one, and
    /// feasible together), grown link by link or seeded with a prefix,
    /// interleaved with probes of the tree's other links, on the
    /// geometric and the shadowed channel. Rejected links are sometimes
    /// committed anyway, and some commits do not follow their own probe
    /// (probe A passes, probe B runs, then A is committed), so a term
    /// one probe left behind cannot reach another link's commit
    /// unnoticed. Probes and `is_feasible` are held to `check` while
    /// the slot is small and then at sampled steps, which keeps the
    /// `O(k²)` oracle affordable.
    #[test]
    fn slot_auditor_packer_sized_slots_match_check(
        seed in 0u64..1_000,
        shadowed in 0u8..2,
        seeded in 0usize..200,
        ops in proptest::collection::vec((0u8..16, 0usize..10_000), 400..500),
    ) {
        let channel = if shadowed == 1 {
            sinr_phy::ChannelModel::shadowed(seed, 6.0).unwrap()
        } else {
            sinr_phy::ChannelModel::Geometric
        };
        let params = SinrParams::default().with_channel(channel);
        let inst = gen::uniform_square(3072, 1.5, seed).unwrap();
        let tree = InTree::from_parents(sinr_geom::mst::mst_parent_array(&inst, 0)).unwrap();
        let power = PowerAssignment::mean_with_margin(&params, inst.delta());
        let (schedule, _) = packing::pack_tree_ordered(&params, &inst, &tree, &power);
        let slots = schedule.slots();
        let big = slots.iter().max_by_key(|s| s.len()).unwrap().links().to_vec();
        let others: Vec<Link> = tree
            .aggregation_links()
            .iter()
            .filter(|l| !big.contains(l))
            .collect();
        let candidate = |l: Link| Candidate::new(&params, &inst, l, power.power_of(l, &inst, &params).unwrap());
        let feasible = |links: &[Link]| {
            let set = LinkSet::from_links(links.to_vec()).unwrap();
            feasibility::check(&params, &inst, &set, &power).is_feasible()
        };

        let seeded = seeded.min(big.len() / 2);
        let mut resident: Vec<Link> = big[..seeded].to_vec();
        let mut auditor =
            SlotAuditor::with_residents(&params, &inst, resident.iter().map(|&l| (l, power.power_of(l, &inst, &params).unwrap())));
        let mut next = seeded;
        let mut largest = resident.len();
        for (op, pick) in ops {
            // Every probe while the slot is small, then one in seven.
            let sampled = resident.len() < 16 || pick % 7 == 0;
            let probe = |auditor: &mut SlotAuditor<'_>, resident: &[Link], link: Link| {
                let got = auditor.probe(&candidate(link));
                if sampled && !resident.contains(&link) {
                    let mut with = resident.to_vec();
                    with.push(link);
                    assert_eq!(got, feasible(&with), "probe of {link:?} on {} residents", resident.len());
                }
                got
            };
            let foreign = others[pick % others.len()];
            match op {
                // The slot's own links, committed when they pass.
                0..=9 => {
                    let Some(&link) = big.get(next) else { continue };
                    next += 1;
                    if probe(&mut auditor, &resident, link) {
                        auditor.commit(&candidate(link));
                        resident.push(link);
                    }
                }
                // Another link of the tree, committed when it passes, or
                // (rarely) committed although it was rejected.
                10..=14 => {
                    if resident.contains(&foreign) {
                        continue;
                    }
                    let passed = probe(&mut auditor, &resident, foreign);
                    if passed || (op == 14 && pick % 16 == 0) {
                        auditor.commit(&candidate(foreign));
                        resident.push(foreign);
                    }
                }
                // Probe A, probe B (the next link of the slot, which
                // usually passes and leaves its own terms behind), then
                // commit A; B stays next in line.
                _ => {
                    let (Some(&a), Some(&b)) = (big.get(next), big.get(next + 1)) else {
                        continue;
                    };
                    next += 1;
                    let passed = probe(&mut auditor, &resident, a);
                    probe(&mut auditor, &resident, b);
                    if passed {
                        auditor.commit(&candidate(a));
                        resident.push(a);
                        prop_assert_eq!(auditor.is_feasible(), feasible(&resident));
                    }
                }
            }
            prop_assert_eq!(auditor.links(), resident.as_slice());
            if sampled {
                prop_assert_eq!(auditor.is_feasible(), feasible(&resident));
            }
            largest = largest.max(resident.len());
        }
        prop_assert!(largest >= 64, "the slot peaked at {} residents", largest);
        prop_assert_eq!(auditor.is_feasible(), feasible(&resident));
    }
}
