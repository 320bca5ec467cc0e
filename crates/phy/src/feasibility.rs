//! Feasibility of link sets and validation of schedules.
//!
//! A set `L` of links is *feasible* under a power assignment if every
//! link's SINR constraint (Eqn 1) holds when all senders of `L` transmit
//! simultaneously — equivalently `a_{S(L)}(ℓ) ≤ 1` for every `ℓ ∈ L`
//! (§5). On top of the SINR constraint we enforce the physical rules the
//! paper uses implicitly:
//!
//! - **half-duplex** — a node cannot transmit and receive in one slot;
//! - **single transmission** — a node cannot be the sender of two links
//!   in one slot (it has one radio).

use std::collections::HashMap;

use sinr_geom::{Instance, NodeId};
use sinr_links::{Link, LinkSet, Schedule};

use crate::affectance::AffectanceCalc;
use crate::{PhyError, PowerAssignment, SinrParams};

/// Why a link failed within its slot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ViolationKind {
    /// The achieved SINR is below `β`.
    LowSinr,
    /// The link's receiver is also a sender in the same slot.
    HalfDuplex,
    /// The link's sender also sends another link in the same slot.
    DuplicateSender,
    /// The assigned power cannot overcome ambient noise at this length.
    BelowNoiseFloor,
    /// The power assignment has no entry for this link.
    MissingPower,
}

/// A single feasibility violation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Violation {
    /// The offending link.
    pub link: Link,
    /// The achieved SINR (0 when not computable).
    pub sinr: f64,
    /// The category of failure.
    pub kind: ViolationKind,
}

/// Result of checking one link set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FeasibilityReport {
    /// All violations found (empty ⇔ feasible).
    pub violations: Vec<Violation>,
    /// Number of links checked.
    pub checked: usize,
    /// Minimum SINR across links whose SINR was computable.
    pub min_sinr: Option<f64>,
}

impl FeasibilityReport {
    /// Whether the set was feasible.
    pub fn is_feasible(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks whether `links` is feasible under `power` when all of its
/// senders transmit simultaneously.
///
/// Never panics and never returns early: the report lists *all*
/// violations, which the experiment harness uses for diagnostics.
///
/// # Example
///
/// ```
/// use sinr_geom::{Instance, Point};
/// use sinr_links::{Link, LinkSet};
/// use sinr_phy::{feasibility, PowerAssignment, SinrParams};
///
/// let params = SinrParams::default();
/// let inst = Instance::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0),
///                               Point::new(2.0, 0.0)])?;
/// // 0→1 and 2→1 collide at the shared receiver: infeasible.
/// let links = LinkSet::from_links(vec![Link::new(0, 1), Link::new(2, 1)])?;
/// let power = PowerAssignment::uniform_with_margin(&params, inst.delta());
/// assert!(!feasibility::check(&params, &inst, &links, &power).is_feasible());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check(
    params: &SinrParams,
    instance: &Instance,
    links: &LinkSet,
    power: &PowerAssignment,
) -> FeasibilityReport {
    let calc = AffectanceCalc::new(params, instance);
    let mut report = FeasibilityReport {
        checked: links.len(),
        ..Default::default()
    };

    let mut senders: Vec<NodeId> = Vec::with_capacity(links.len());
    let mut tx: Vec<(NodeId, f64)> = Vec::with_capacity(links.len());
    let mut power_errors = Vec::new();
    for l in links.iter() {
        match power.power_of(l, instance, params) {
            Ok(p) => {
                senders.push(l.sender);
                tx.push((l.sender, p));
            }
            Err(PhyError::MissingPower { link }) => {
                power_errors.push(Violation {
                    link,
                    sinr: 0.0,
                    kind: ViolationKind::MissingPower,
                });
            }
            Err(_) => unreachable!("power_of only fails with MissingPower"),
        }
    }
    report.violations.extend(power_errors.iter().copied());
    if !power_errors.is_empty() {
        // Without a complete transmitter set the SINR of the remaining
        // links is not well-defined; stop at the structural failure.
        return report;
    }

    for (i, l) in links.iter().enumerate() {
        let p_l = tx[i].1;

        if senders.contains(&l.receiver) {
            report.violations.push(Violation {
                link: l,
                sinr: 0.0,
                kind: ViolationKind::HalfDuplex,
            });
            continue;
        }
        if senders.iter().filter(|&&s| s == l.sender).count() > 1 {
            report.violations.push(Violation {
                link: l,
                sinr: 0.0,
                kind: ViolationKind::DuplicateSender,
            });
            continue;
        }
        let fade = params
            .channel()
            .fade(instance.position(l.sender), instance.position(l.receiver));
        if p_l <= params.noise_floor_power(l.length(instance)) / fade {
            report.violations.push(Violation {
                link: l,
                sinr: 0.0,
                kind: ViolationKind::BelowNoiseFloor,
            });
            continue;
        }

        let sinr = calc.sinr(l, p_l, &tx);
        report.min_sinr = Some(report.min_sinr.map_or(sinr, |m: f64| m.min(sinr)));
        if sinr < params.beta() * (1.0 - 1e-12) {
            report.violations.push(Violation {
                link: l,
                sinr,
                kind: ViolationKind::LowSinr,
            });
        }
    }
    report
}

/// Shorthand for `check(..).is_feasible()`.
pub fn is_feasible(
    params: &SinrParams,
    instance: &Instance,
    links: &LinkSet,
    power: &PowerAssignment,
) -> bool {
    check(params, instance, links, power).is_feasible()
}

/// Validates that every slot of `schedule` is feasible under `power`.
///
/// # Errors
///
/// Returns [`PhyError::InfeasibleSlot`] for the first offending slot.
pub fn validate_schedule(
    params: &SinrParams,
    instance: &Instance,
    schedule: &Schedule,
    power: &PowerAssignment,
) -> Result<(), PhyError> {
    for (slot, links) in schedule.slots().iter().enumerate() {
        let report = check(params, instance, links, power);
        if let Some(v) = report.violations.first() {
            return Err(PhyError::InfeasibleSlot {
                slot,
                link: v.link,
                sinr: v.sinr,
            });
        }
    }
    Ok(())
}

/// An incremental per-slot feasibility auditor: the engine behind the
/// packers ([`crate::packing`], `sinr-baselines::first_fit`).
///
/// The naive packers re-ran [`check`] on a cloned link set for every
/// candidate placement, rebuilding every receiver's interference sum
/// from scratch — `O(k²)` per probe for a slot of `k` links. The
/// auditor instead caches, per resident link, the running interference
/// sum at its receiver; pushing a sender adds one term to each cached
/// sum (`O(k)`), and a rejected push restores the saved prefix sums
/// (never subtracts, so floats stay exact).
///
/// **Determinism contract** (DESIGN.md §7): the cached sums are built
/// by appending terms in link-insertion order, which is exactly the
/// left-to-right order [`AffectanceCalc::sinr`] uses inside [`check`]
/// (each link's own sender is skipped in both). Every decision
/// [`SlotAuditor::is_feasible`] returns is therefore bit-identical to
/// `check(..).is_feasible()` on the same link sequence — enforced by
/// the `auditor_matches_check_to_the_bit` test below.
#[derive(Clone, Debug)]
pub struct SlotAuditor<'a> {
    params: &'a SinrParams,
    instance: &'a Instance,
    links: Vec<Link>,
    /// Per-link transmit power (resolved by the caller).
    powers: Vec<f64>,
    /// Per-link received signal `P·gain(len)` (precomputed at push).
    signals: Vec<f64>,
    /// Per-link noise floor (precomputed at push).
    floors: Vec<f64>,
    /// Per-link cached interference at the receiver, in canonical
    /// summation order.
    interference: Vec<f64>,
    /// Multiset of resident senders, so the structural predicates
    /// (half-duplex, duplicate sender) are `O(1)` per link instead of a
    /// rescan of the slot.
    sender_counts: HashMap<NodeId, u32>,
    /// Snapshots for [`pop`](SlotAuditor::pop): the interference prefix
    /// as it was before each push.
    undo: Vec<Vec<f64>>,
    /// Retired snapshot buffers, reused so the push→reject→pop cycle of
    /// a packing probe allocates nothing after warm-up.
    spare: Vec<Vec<f64>>,
}

impl<'a> SlotAuditor<'a> {
    /// Creates an empty auditor for one slot.
    pub fn new(params: &'a SinrParams, instance: &'a Instance) -> Self {
        SlotAuditor {
            params,
            instance,
            links: Vec::new(),
            powers: Vec::new(),
            signals: Vec::new(),
            floors: Vec::new(),
            interference: Vec::new(),
            sender_counts: HashMap::new(),
            undo: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// An auditor pre-seeded with a slot's resident links, pushed in
    /// iteration order — the constructor the incremental re-packer
    /// (`sinr-connectivity::repack`) uses to rebuild a surviving slot's
    /// probe state without replaying the original packing run. The
    /// residents are *pushed*, not assumed feasible: a subsequent
    /// [`is_feasible`](Self::is_feasible) reports on exactly the seeded
    /// set, and [`try_push`](Self::try_push) probes against it with the
    /// same bit-exact decisions as an auditor grown link by link.
    pub fn with_residents<I: IntoIterator<Item = (Link, f64)>>(
        params: &'a SinrParams,
        instance: &'a Instance,
        residents: I,
    ) -> Self {
        let mut auditor = SlotAuditor::new(params, instance);
        for (link, power) in residents {
            auditor.push(link, power);
        }
        auditor
    }

    /// Number of links currently in the slot.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the slot is empty.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The resident links, in insertion order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Adds `link` transmitting with `power` to the slot, updating all
    /// cached sums incrementally (`O(len)`).
    pub fn push(&mut self, link: Link, power: f64) {
        let mut snapshot = self.spare.pop().unwrap_or_default();
        snapshot.clear();
        snapshot.extend_from_slice(&self.interference);
        self.undo.push(snapshot);
        let len = link.length(self.instance);
        let channel = self.params.channel();
        let pos = |u: NodeId| self.instance.position(u);
        // New sender's term lands on every resident receiver…
        for (i, l) in self.links.iter().enumerate() {
            if link.sender != l.sender {
                let d = self.instance.distance(link.sender, l.receiver);
                self.interference[i] += power
                    * self.params.path_gain(d)
                    * channel.fade(pos(link.sender), pos(l.receiver));
            }
        }
        // …and the new link accumulates every resident sender's term,
        // left to right, exactly as the naive sum would.
        let mut acc = 0.0;
        for (l, &p) in self.links.iter().zip(&self.powers) {
            if l.sender != link.sender {
                let d = self.instance.distance(l.sender, link.receiver);
                acc +=
                    p * self.params.path_gain(d) * channel.fade(pos(l.sender), pos(link.receiver));
            }
        }
        let fade = channel.fade(pos(link.sender), pos(link.receiver));
        self.links.push(link);
        self.powers.push(power);
        self.signals.push(power * self.params.path_gain(len) * fade);
        self.floors.push(self.params.noise_floor_power(len) / fade);
        self.interference.push(acc);
        *self.sender_counts.entry(link.sender).or_insert(0) += 1;
    }

    /// Removes the most recently pushed link, restoring the cached sums
    /// to their exact pre-push bits.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn pop(&mut self) {
        let snapshot = self.undo.pop().expect("pop on empty SlotAuditor");
        let link = self.links.pop().expect("undo stack matches links");
        self.powers.pop();
        self.signals.pop();
        self.floors.pop();
        let retired = std::mem::replace(&mut self.interference, snapshot);
        self.spare.push(retired);
        let count = self
            .sender_counts
            .get_mut(&link.sender)
            .expect("popped sender is counted");
        *count -= 1;
        if *count == 0 {
            self.sender_counts.remove(&link.sender);
        }
    }

    /// Whether the resident set is feasible — bit-identical to
    /// `check(params, instance, &set, power).is_feasible()` for the
    /// same links in the same order under the same powers.
    pub fn is_feasible(&self) -> bool {
        // Structural rules first, as `check` does: half-duplex,
        // duplicate senders, noise floor — `O(1)` per link via the
        // maintained sender multiset, keeping the whole probe `O(k)`.
        for (i, l) in self.links.iter().enumerate() {
            if self.sender_counts.get(&l.receiver).copied().unwrap_or(0) > 0 {
                return false;
            }
            if self.sender_counts.get(&l.sender).copied().unwrap_or(0) > 1 {
                return false;
            }
            if self.powers[i] <= self.floors[i] {
                return false;
            }
        }
        for (i, _) in self.links.iter().enumerate() {
            let sinr = self.signals[i] / (self.params.noise() + self.interference[i]);
            if sinr < self.params.beta() * (1.0 - 1e-12) {
                return false;
            }
        }
        true
    }

    /// Convenience probe: push, test, and pop on failure. Returns the
    /// decision; on `true` the link stays resident.
    pub fn try_push(&mut self, link: Link, power: f64) -> bool {
        self.push(link, power);
        if self.is_feasible() {
            true
        } else {
            self.pop();
            false
        }
    }
}

/// The *measured* affectance a receiver observes for a successful
/// reception: the total thresholded affectance of the other transmitters
/// on the link. This implements the measurement assumption of §8.2
/// ("receivers can measure the SINR of a successful link").
///
/// Returns `None` when the link power cannot overcome noise (the
/// measurement is undefined because the link cannot succeed at all).
pub fn measured_affectance(
    params: &SinrParams,
    instance: &Instance,
    link: Link,
    link_power: f64,
    transmitters: &[(NodeId, f64)],
) -> Option<f64> {
    AffectanceCalc::new(params, instance)
        .sum_on(transmitters, link, link_power)
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geom::Point;

    fn params() -> SinrParams {
        SinrParams::default()
    }

    fn line_instance(xs: &[f64]) -> Instance {
        Instance::new(xs.iter().map(|&x| Point::new(x, 0.0)).collect()).unwrap()
    }

    #[test]
    fn single_strong_link_is_feasible() {
        let p = params();
        let inst = line_instance(&[0.0, 1.0]);
        let links = LinkSet::from_links(vec![Link::new(0, 1)]).unwrap();
        let power = PowerAssignment::uniform_with_margin(&p, 1.0);
        let report = check(&p, &inst, &links, &power);
        assert!(report.is_feasible(), "{report:?}");
        assert!(report.min_sinr.unwrap() >= p.beta());
    }

    #[test]
    fn below_noise_floor_is_flagged() {
        let p = params();
        let inst = line_instance(&[0.0, 4.0]);
        let links = LinkSet::from_links(vec![Link::new(0, 1)]).unwrap();
        let power = PowerAssignment::uniform(p.noise_floor_power(4.0) * 0.5);
        let report = check(&p, &inst, &links, &power);
        assert_eq!(report.violations[0].kind, ViolationKind::BelowNoiseFloor);
    }

    #[test]
    fn half_duplex_violation() {
        let p = params();
        let inst = line_instance(&[0.0, 1.0, 2.0]);
        // 0 → 1 while 1 → 2: node 1 transmits and receives.
        let links = LinkSet::from_links(vec![Link::new(0, 1), Link::new(1, 2)]).unwrap();
        let power = PowerAssignment::uniform_with_margin(&p, inst.delta());
        let report = check(&p, &inst, &links, &power);
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::HalfDuplex && v.link == Link::new(0, 1)));
    }

    #[test]
    fn duplicate_sender_violation() {
        let p = params();
        let inst = line_instance(&[0.0, 1.0, 2.0]);
        let links = LinkSet::from_links(vec![Link::new(0, 1), Link::new(0, 2)]).unwrap();
        let power = PowerAssignment::uniform_with_margin(&p, inst.delta());
        let report = check(&p, &inst, &links, &power);
        assert!(report
            .violations
            .iter()
            .all(|v| v.kind == ViolationKind::DuplicateSender));
        assert_eq!(report.violations.len(), 2);
    }

    #[test]
    fn near_links_collide_far_links_coexist() {
        let p = params();
        // Two parallel unit-ish links: close together (interferer at
        // distance 1.5 from each receiver) → infeasible with uniform
        // power; far apart → feasible.
        let near = line_instance(&[0.0, 1.0, 1.5, 2.5]);
        let links = LinkSet::from_links(vec![Link::new(0, 1), Link::new(3, 2)]).unwrap();
        let power = PowerAssignment::uniform_with_margin(&p, 1.0);
        assert!(!is_feasible(&p, &near, &links, &power));

        let far = line_instance(&[0.0, 1.0, 100.0, 101.0]);
        let links_far = LinkSet::from_links(vec![Link::new(0, 1), Link::new(3, 2)]).unwrap();
        assert!(is_feasible(&p, &far, &links_far, &power));
    }

    #[test]
    fn missing_power_short_circuits() {
        let p = params();
        let inst = line_instance(&[0.0, 1.0, 50.0, 51.0]);
        let mut map = std::collections::HashMap::new();
        map.insert(Link::new(0, 1), 100.0);
        let power = PowerAssignment::explicit(map).unwrap();
        let links = LinkSet::from_links(vec![Link::new(0, 1), Link::new(2, 3)]).unwrap();
        let report = check(&p, &inst, &links, &power);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::MissingPower);
    }

    #[test]
    fn schedule_validation() {
        let p = params();
        let inst = line_instance(&[0.0, 1.0, 1.5, 2.5]);
        let power = PowerAssignment::uniform_with_margin(&p, 1.0);
        // Conflicting links in different slots: fine.
        let good = Schedule::from_pairs(vec![(Link::new(0, 1), 0), (Link::new(3, 2), 1)]).unwrap();
        assert!(validate_schedule(&p, &inst, &good, &power).is_ok());
        // Same slot: infeasible.
        let bad = Schedule::from_pairs(vec![(Link::new(0, 1), 0), (Link::new(3, 2), 0)]).unwrap();
        let err = validate_schedule(&p, &inst, &bad, &power).unwrap_err();
        assert!(matches!(err, PhyError::InfeasibleSlot { slot: 0, .. }));
    }

    #[test]
    fn feasibility_is_monotone_under_subset() {
        // Removing links cannot break feasibility (interference only
        // decreases). Spot-check on a feasible pair.
        let p = params();
        let inst = line_instance(&[0.0, 1.0, 100.0, 101.0]);
        let both = LinkSet::from_links(vec![Link::new(0, 1), Link::new(3, 2)]).unwrap();
        let power = PowerAssignment::uniform_with_margin(&p, 1.0);
        assert!(is_feasible(&p, &inst, &both, &power));
        for l in both.iter() {
            let single = LinkSet::from_links(vec![l]).unwrap();
            assert!(is_feasible(&p, &inst, &single, &power));
        }
    }

    /// The auditor's decision equals `check(..).is_feasible()` on the
    /// same link sequence, for random push/pop sequences over random
    /// geometry — the packers rely on this being exact.
    #[test]
    fn auditor_matches_check_to_the_bit() {
        use sinr_geom::gen;
        let p = params();
        for seed in 0..6u64 {
            let inst = gen::uniform_square(40, 1.5, seed).unwrap();
            let power = PowerAssignment::mean_with_margin(&p, inst.delta());
            // Candidate links: everyone's nearest-neighbor uplink.
            let candidates: Vec<Link> = (0..inst.len())
                .map(|u| {
                    let v = (0..inst.len())
                        .filter(|&v| v != u)
                        .min_by(|&a, &b| {
                            inst.distance(a, u)
                                .partial_cmp(&inst.distance(b, u))
                                .unwrap()
                        })
                        .unwrap();
                    Link::new(u, v)
                })
                .collect();

            let mut auditor = SlotAuditor::new(&p, &inst);
            let mut resident: Vec<Link> = Vec::new();
            for &link in &candidates {
                let pw = power.power_of(link, &inst, &p).unwrap();
                // Reference decision on the would-be set, in identical order.
                let mut probe = resident.clone();
                probe.push(link);
                let set = LinkSet::from_links(probe).unwrap();
                let naive = check(&p, &inst, &set, &power).is_feasible();
                assert_eq!(
                    auditor.try_push(link, pw),
                    naive,
                    "seed {seed}: auditor diverged from check on {link:?}"
                );
                if naive {
                    resident.push(link);
                }
            }
            assert_eq!(auditor.links(), resident.as_slice());
            assert!(!auditor.is_empty(), "seed {seed}: nothing ever packed");

            // Pop everything; each prefix must still agree with check.
            while !auditor.is_empty() {
                auditor.pop();
                let set = LinkSet::from_links(auditor.links().to_vec()).unwrap();
                assert_eq!(
                    auditor.is_feasible(),
                    set.is_empty() || check(&p, &inst, &set, &power).is_feasible()
                );
            }
        }
    }

    /// A seeded auditor is indistinguishable from one grown push by
    /// push: same resident list, same feasibility bits, same probe
    /// decisions.
    #[test]
    fn seeded_auditor_matches_incremental_growth() {
        use sinr_geom::gen;
        let p = params();
        let inst = gen::uniform_square(30, 1.5, 4).unwrap();
        let power = PowerAssignment::mean_with_margin(&p, inst.delta());
        let residents: Vec<(Link, f64)> = [(0, 5), (7, 12), (20, 23)]
            .iter()
            .map(|&(u, v)| {
                let l = Link::new(u, v);
                (l, power.power_of(l, &inst, &p).unwrap())
            })
            .collect();
        let mut grown = SlotAuditor::new(&p, &inst);
        for &(l, pw) in &residents {
            grown.push(l, pw);
        }
        let mut seeded = SlotAuditor::with_residents(&p, &inst, residents.iter().copied());
        assert_eq!(grown.links(), seeded.links());
        assert_eq!(grown.is_feasible(), seeded.is_feasible());
        let probe = Link::new(15, 16);
        let pw = power.power_of(probe, &inst, &p).unwrap();
        assert_eq!(grown.try_push(probe, pw), seeded.try_push(probe, pw));
        assert_eq!(grown.links(), seeded.links());
    }

    #[test]
    fn auditor_rejects_structural_violations() {
        let p = params();
        let inst = line_instance(&[0.0, 1.0, 2.0]);
        let power = PowerAssignment::uniform_with_margin(&p, inst.delta());
        let pw = |l: Link| power.power_of(l, &inst, &p).unwrap();

        // Half-duplex: 0→1 with 1→2.
        let mut a = SlotAuditor::new(&p, &inst);
        assert!(a.try_push(Link::new(0, 1), pw(Link::new(0, 1))));
        assert!(!a.try_push(Link::new(1, 2), pw(Link::new(1, 2))));
        assert_eq!(a.len(), 1);

        // Duplicate sender: 0→1 with 0→2.
        let mut b = SlotAuditor::new(&p, &inst);
        assert!(b.try_push(Link::new(0, 1), pw(Link::new(0, 1))));
        assert!(!b.try_push(Link::new(0, 2), pw(Link::new(0, 2))));

        // Below the noise floor.
        let mut c = SlotAuditor::new(&p, &inst);
        assert!(!c.try_push(Link::new(0, 2), p.noise_floor_power(2.0) * 0.5));
    }

    #[test]
    fn measured_affectance_matches_success() {
        let p = params();
        let inst = line_instance(&[0.0, 1.0, 6.0, 7.0]);
        let l = Link::new(0, 1);
        let pw = p.min_power_for_length(1.0) * 2.0;
        let tx = [(0, pw), (3, pw)];
        let a = measured_affectance(&p, &inst, l, pw, &tx).unwrap();
        let calc = AffectanceCalc::new(&p, &inst);
        let sinr = calc.sinr(l, pw, &tx);
        // Equivalence: affectance ≤ 1 iff SINR ≥ β (unclipped terms).
        assert_eq!(a <= 1.0, sinr >= p.beta() * (1.0 - 1e-12));
    }
}
