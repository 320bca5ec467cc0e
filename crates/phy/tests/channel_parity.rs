//! Channel parity gates (DESIGN.md §15).
//!
//! The channel lives in `SinrParams`, and every gain is one expression
//! that multiplies by the pair's fade. The contract has two halves:
//!
//! 1. **The geometric channel is the plain power law, bit for bit.**
//!    This file carries its own reference, written with the geometric
//!    expressions (`p · d^{-α}`, summed in naive order, no fade
//!    anywhere). The field decode, `sinr_at_least`, `sum_on_at_most`,
//!    the `SlotAuditor`'s probe/commit decisions and
//!    `AffectanceCalc::{sinr, sum_on}` must reproduce it exactly — not
//!    approximately — so the unit fade provably changes no committed
//!    fingerprint or `BENCH_*.json`.
//! 2. **Certification only widens.** Under a shadowed channel, the
//!    field's certified decode must equal the exact naive-order
//!    reference ([`decode_best_exact`]), and the auditor's decisions
//!    must equal `feasibility::check`: the fade-widened bounds may cost
//!    certainty (forcing exact sums), never correctness (flipping a
//!    decision).
//!
//! Both halves sweep the three power families (uniform / mean /
//! linear) over random geometry via proptest.

use proptest::prelude::*;
use sinr_geom::{gen, Instance, NodeId};
use sinr_links::{Link, LinkSet};
use sinr_phy::affectance::AffectanceCalc;
use sinr_phy::feasibility::{self, SlotAuditor};
use sinr_phy::field::{decode_best_exact, InterferenceField};
use sinr_phy::{ChannelModel, PowerAssignment, Shadowing, SinrParams};

/// One slot: every `stride`-th node transmits over its nearest-neighbor
/// uplink with the family's power for that link.
fn make_links(params: &SinrParams, inst: &Instance, tau: usize, stride: usize) -> Vec<(Link, f64)> {
    let power = match tau {
        0 => PowerAssignment::uniform_with_margin(params, inst.delta()),
        1 => PowerAssignment::mean_with_margin(params, inst.delta()),
        _ => PowerAssignment::linear_with_margin(params),
    };
    let grid = sinr_geom::GridIndex::build(inst, (inst.delta() / 8.0).max(1e-6));
    (0..inst.len())
        .step_by(stride.max(2))
        .filter_map(|u| {
            let (v, _) = grid.nearest_neighbor(u)?;
            let link = Link::new(u, v);
            let p = power.power_of(link, inst, params).ok()?;
            (p.is_finite() && p > 0.0).then_some((link, p))
        })
        .collect()
}

fn senders_of(links: &[(Link, f64)]) -> Vec<(NodeId, f64)> {
    links.iter().map(|&(l, p)| (l.sender, p)).collect()
}

fn transmitting(inst: &Instance, senders: &[(NodeId, f64)]) -> Vec<bool> {
    let mut t = vec![false; inst.len()];
    for &(u, _) in senders {
        t[u] = true;
    }
    t
}

fn bits(r: Option<(NodeId, f64, f64)>) -> Option<(NodeId, u64, u64)> {
    r.map(|(u, p, s)| (u, p.to_bits(), s.to_bits()))
}

/// The geometric reference: `P · d^{-α}` gains, naive summation order.
mod reference {
    use super::*;

    pub fn sinr(
        params: &SinrParams,
        inst: &Instance,
        link: Link,
        power: f64,
        senders: &[(NodeId, f64)],
    ) -> f64 {
        let alpha = params.alpha();
        let signal = power * link.length(inst).powf(-alpha);
        let mut interference = 0.0;
        for &(w, pw) in senders {
            if w == link.sender {
                continue;
            }
            let d = inst.distance(w, link.receiver);
            if d == 0.0 {
                return 0.0;
            }
            interference += pw * d.powf(-alpha);
        }
        signal / (params.noise() + interference)
    }

    /// `None` when the power does not clear the noise floor.
    pub fn sum_on(
        params: &SinrParams,
        inst: &Instance,
        link: Link,
        power: f64,
        senders: &[(NodeId, f64)],
    ) -> Option<f64> {
        let alpha = params.alpha();
        let d_uv = link.length(inst);
        let floor = params.beta() * params.noise() * d_uv.powf(alpha);
        if power <= floor {
            return None;
        }
        let c = params.beta() / (1.0 - floor / power);
        let clip = 1.0 + params.epsilon();
        let mut total = 0.0;
        for &(w, pw) in senders {
            if w == link.sender {
                continue;
            }
            let d_wv = inst.distance(w, link.receiver);
            total += if d_wv == 0.0 {
                clip
            } else {
                (c * (pw / power) * (d_uv / d_wv).powf(alpha)).min(clip)
            };
        }
        Some(total)
    }

    pub fn decode(
        params: &SinrParams,
        inst: &Instance,
        v: NodeId,
        senders: &[(NodeId, f64)],
    ) -> Option<(NodeId, f64, f64)> {
        let mut best: Option<(NodeId, f64, f64)> = None;
        for &(u, pu) in senders {
            let s = sinr(params, inst, Link::new(u, v), pu, senders);
            if s >= params.beta() && best.map_or(true, |(_, _, bs)| s > bs) {
                best = Some((u, pu, s));
            }
        }
        best
    }

    /// `feasibility::check(..).is_feasible()` with geometric gains.
    pub fn feasible(params: &SinrParams, inst: &Instance, links: &[(Link, f64)]) -> bool {
        let senders = senders_of(links);
        links.iter().all(|&(l, p)| {
            let half_duplex = senders.iter().any(|&(w, _)| w == l.receiver);
            let duplicate = senders.iter().filter(|&&(w, _)| w == l.sender).count() > 1;
            let floor = params.beta() * params.noise() * l.length(inst).powf(params.alpha());
            !half_duplex
                && !duplicate
                && p > floor
                && sinr(params, inst, l, p, &senders) >= params.beta() * (1.0 - 1e-12)
        })
    }
}

/// Runs the auditor through `links` as a random seed/probe/commit
/// sequence: the first `choice % 4` links seed it, every probe must equal
/// `feasible` on the residents plus the probed link and leave the slot
/// unchanged, passing links are committed, and every fifth rejected one
/// is committed anyway (an infeasible slot must be tracked too).
fn audit_sequence(
    params: &SinrParams,
    inst: &Instance,
    links: &[(Link, f64)],
    choice: usize,
    feasible: impl Fn(&[(Link, f64)]) -> bool,
) -> Result<(), TestCaseError> {
    let seeded = (choice % 4).min(links.len());
    let mut resident: Vec<(Link, f64)> = links[..seeded].to_vec();
    let mut auditor = SlotAuditor::with_residents(params, inst, resident.iter().copied());
    for (i, &(link, p)) in links.iter().enumerate().skip(seeded) {
        let mut probe = resident.clone();
        probe.push((link, p));
        let want = feasible(&probe);
        prop_assert_eq!(auditor.probe(link, p), want, "auditor on {:?}", link);
        prop_assert_eq!(auditor.len(), resident.len(), "a probe changed the slot");
        if want || i % 5 == 0 {
            auditor.commit(link, p);
            resident = probe;
            prop_assert_eq!(auditor.is_feasible(), feasible(&resident));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Half 1: on the geometric channel every fade-multiplied expression
    /// returns the plain power-law bits — the certified field queries,
    /// the incremental auditor and the affectance calculator alike.
    #[test]
    fn geometric_channel_is_the_plain_power_law(
        seed in 0u64..5_000,
        n in 16usize..200,
        tau in 0usize..3,
        stride in 2usize..6,
    ) {
        let params = SinrParams::default();
        prop_assert!(params.channel().is_geometric());
        let inst = gen::uniform_square(n, 1.5, seed).unwrap();
        let links = make_links(&params, &inst, tau, stride);
        let senders = senders_of(&links);
        prop_assume!(!senders.is_empty());
        let field = InterferenceField::build(&params, &inst, &senders);
        let calc = AffectanceCalc::new(&params, &inst);
        let tx = transmitting(&inst, &senders);

        for v in (0..inst.len()).filter(|&v| !tx[v]) {
            prop_assert_eq!(
                bits(field.decode_best(v)),
                bits(reference::decode(&params, &inst, v, &senders)),
                "listener {} decode", v
            );
        }

        for &(u, p) in senders.iter().take(12) {
            for v in (0..inst.len()).filter(|&v| !tx[v]).take(6) {
                let link = Link::new(u, v);
                let sinr = reference::sinr(&params, &inst, link, p, &senders);
                prop_assert_eq!(calc.sinr(link, p, &senders).to_bits(), sinr.to_bits());
                for thr in [params.beta(), params.beta() * (1.0 - 1e-12), sinr] {
                    prop_assert_eq!(field.sinr_at_least(link, p, thr), sinr >= thr);
                }
                let sum = reference::sum_on(&params, &inst, link, p, &senders);
                prop_assert_eq!(
                    calc.sum_on(&senders, link, p).ok().map(f64::to_bits),
                    sum.map(f64::to_bits)
                );
                if let Some(sum) = sum {
                    for thr in [0.25, 1.0, sum] {
                        prop_assert_eq!(field.sum_on_at_most(link, p, thr).unwrap(), sum <= thr);
                    }
                }
            }
        }

        // The auditor's seed/probe/commit decisions against the
        // geometric whole-set check, link by link.
        audit_sequence(&params, &inst, &links, stride, |set| {
            reference::feasible(&params, &inst, set)
        })?;
    }

    /// Half 2: under a shadowed channel the certified decode still
    /// equals the exact naive-order reference — the fade-widened
    /// far-field certificates are sound, and `sinr_at_least` agrees
    /// with the exact SINR comparison.
    #[test]
    fn shadowed_field_decode_matches_exact_reference(
        seed in 0u64..5_000,
        n in 16usize..160,
        tau in 0usize..3,
        sigma_tenths in 20u32..100,
    ) {
        let sigma = f64::from(sigma_tenths) / 10.0;
        let channel = ChannelModel::Shadowed(Shadowing::new(seed ^ 0xFADE, sigma).unwrap());
        let params = SinrParams::default().with_channel(channel);
        let inst = gen::uniform_square(n, 1.5, seed).unwrap();
        let senders = senders_of(&make_links(&params, &inst, tau, 3));
        prop_assume!(!senders.is_empty());
        let field = InterferenceField::build(&params, &inst, &senders);
        let tx = transmitting(&inst, &senders);
        for v in (0..inst.len()).filter(|&v| !tx[v]) {
            prop_assert_eq!(
                bits(field.decode_best(v)),
                bits(decode_best_exact(&params, &inst, v, &senders)),
                "listener {} diverged from the exact reference", v
            );
        }
        // The auditor's certificates widen by the fade range too; its
        // decisions must still equal `check` under the same channel.
        let links = make_links(&params, &inst, tau, 3);
        audit_sequence(&params, &inst, &links, sigma_tenths as usize, |set| {
            let ls = LinkSet::from_links(set.iter().map(|&(l, _)| l)).unwrap();
            let power = PowerAssignment::explicit(set.iter().copied().collect()).unwrap();
            feasibility::check(&params, &inst, &ls, &power).is_feasible()
        })?;
        // Threshold queries: certificates may only widen, so the
        // boolean must match the exact comparison everywhere.
        for &(u, p) in senders.iter().take(12) {
            for v in (0..inst.len()).filter(|&v| !tx[v]).take(6) {
                let link = Link::new(u, v);
                prop_assert_eq!(
                    field.sinr_at_least(link, p, params.beta()),
                    field.sinr_exact(link, p) >= params.beta()
                );
            }
        }
    }
}

/// The fade stream itself: symmetric, seed-sensitive, and stable under
/// growth of the node set (a fade is a closed-form function of the
/// unordered pair of positions, so adding nodes or links never shifts a
/// draw).
#[test]
fn fades_are_symmetric_seed_sensitive_and_stable() {
    let s = Shadowing::new(7, 6.0).unwrap();
    let other = Shadowing::new(8, 6.0).unwrap();
    let (lo, hi) = s.fade_bounds();
    let small = gen::uniform_square(40, 1.5, 3).unwrap();
    let grown = Instance::new(
        small
            .iter()
            .map(|(_, p)| p)
            .chain(
                gen::uniform_square(10, 1.5, 4)
                    .unwrap()
                    .iter()
                    .map(|(_, p)| sinr_geom::Point::new(p.x + 1e3, p.y)),
            )
            .collect(),
    )
    .unwrap();
    let mut differs = false;
    for u in 0..40usize {
        for v in (u + 1)..40 {
            let (p, q) = (small.position(u), small.position(v));
            let f = s.fade(p, q);
            assert_eq!(f.to_bits(), s.fade(q, p).to_bits(), "fade not symmetric");
            assert!(f >= lo && f <= hi, "fade {f} outside certified bounds");
            let (gp, gq) = (grown.position(u), grown.position(v));
            assert_eq!(
                f.to_bits(),
                s.fade(gp, gq).to_bits(),
                "growth shifted a fade"
            );
            differs |= f.to_bits() != other.fade(p, q).to_bits();
        }
    }
    assert!(differs, "fades insensitive to the stream seed");
}
