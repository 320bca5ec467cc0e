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

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

use sinr_geom::{Instance, NodeId, Point};
use sinr_links::{Link, LinkSet, Schedule};

use crate::affectance::AffectanceCalc;
use crate::field::{InterferenceField, GUARD};
use crate::gain::GainBounds;
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

    senders.sort_unstable();
    for (i, l) in links.iter().enumerate() {
        let p_l = tx[i].1;
        if let Some(kind) = broken_rule(params, instance, l, p_l, |u| occurrences(&senders, u)) {
            report.violations.push(Violation {
                link: l,
                sinr: 0.0,
                kind,
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

/// The first of [`check`]'s per-link rules that `link`, sent with
/// `power`, breaks, in `check`'s order: half-duplex, single
/// transmission, noise floor. `sending(u)` counts the slot's links that
/// node `u` sends, `link` included. `None` leaves the link to its SINR.
fn broken_rule(
    params: &SinrParams,
    instance: &Instance,
    link: Link,
    power: f64,
    sending: impl Fn(NodeId) -> usize,
) -> Option<ViolationKind> {
    if sending(link.receiver) > 0 {
        return Some(ViolationKind::HalfDuplex);
    }
    if sending(link.sender) > 1 {
        return Some(ViolationKind::DuplicateSender);
    }
    let (tx, rx) = (
        instance.position(link.sender),
        instance.position(link.receiver),
    );
    let fade = params.channel().fade(tx, rx);
    below_floor(params, link.length(instance), fade, power)
        .then_some(ViolationKind::BelowNoiseFloor)
}

/// [`check`]'s noise-floor rule for a link of length `len` and fade
/// `fade` sent with `power`. An incomparable (NaN) power clears the
/// floor.
fn below_floor(params: &SinrParams, len: f64, fade: f64, power: f64) -> bool {
    power <= params.noise_floor_power(len) / fade
}

/// How many entries of the sorted `nodes` equal `u`.
fn occurrences(nodes: &[NodeId], u: NodeId) -> usize {
    let from = nodes.partition_point(|&v| v < u);
    nodes[from..].partition_point(|&v| v == u)
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
/// Each slot is settled in near-linear time: its powers are resolved,
/// the structural rules are checked against one sorted sender list, and
/// every link's SINR is decided by the slot's certified
/// [`InterferenceField`], whose threshold decisions equal [`check`]'s
/// exact comparison bit for bit. Only a slot that fails there, or that
/// has a missing power or a duplicate sender (which a field cannot
/// hold), is handed to [`check`], so the reported link and SINR are
/// `check`'s.
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
    let mut scratch = SlotScratch::new(params, instance);
    for (slot, links) in schedule.slots().iter().enumerate() {
        if scratch.passes(params, instance, links, power) {
            continue;
        }
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

/// The reusable buffers of [`validate_schedule`]'s per-slot fast path:
/// one field, refilled with each slot's senders.
#[derive(Debug)]
struct SlotScratch<'a> {
    tx: Vec<(NodeId, f64)>,
    senders: Vec<NodeId>,
    field: InterferenceField<'a>,
}

impl<'a> SlotScratch<'a> {
    fn new(params: &'a SinrParams, instance: &'a Instance) -> Self {
        SlotScratch {
            tx: Vec::new(),
            senders: Vec::new(),
            field: InterferenceField::build(params, instance, &[]),
        }
    }

    /// Whether `links` is certainly feasible; `false` sends the slot to
    /// [`check`], which decides it and names the violation.
    fn passes(
        &mut self,
        params: &SinrParams,
        instance: &Instance,
        links: &LinkSet,
        power: &PowerAssignment,
    ) -> bool {
        self.tx.clear();
        for l in links.iter() {
            match power.power_of(l, instance, params) {
                Ok(p) => self.tx.push((l.sender, p)),
                Err(_) => return false,
            }
        }
        self.senders.clear();
        self.senders.extend(self.tx.iter().map(|&(u, _)| u));
        self.senders.sort_unstable();
        // Also rules out a repeated sender, which the field cannot hold.
        let senders = &self.senders;
        if links.iter().zip(&self.tx).any(|(l, &(_, p))| {
            broken_rule(params, instance, l, p, |u| occurrences(senders, u)).is_some()
        }) {
            return false;
        }
        let threshold = params.beta() * (1.0 - 1e-12);
        self.field.refill(&self.tx);
        links
            .iter()
            .zip(&self.tx)
            .all(|(l, &(_, p))| self.field.sinr_at_least(l, p, threshold))
    }
}

/// How a [`SlotAuditor`] settled its decisions: always-on counters
/// (integer bumps off the certified path).
///
/// `resident_exact` and `link_exact` count the receivers whose
/// certified interval straddled the threshold and were decided by the
/// exact insertion-order sum instead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditStats {
    /// Resident receivers caught up and decided exactly.
    pub resident_exact: u64,
    /// Probed links whose own receiver was summed exactly.
    pub link_exact: u64,
}

impl std::ops::AddAssign for AuditStats {
    fn add_assign(&mut self, other: AuditStats) {
        self.resident_exact += other.resident_exact;
        self.link_exact += other.link_exact;
    }
}

/// What a certified interval says about one receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Pass,
    Fail,
    Unsure,
}

/// One link direction prepared for a [`SlotAuditor`]: everything a
/// probe reads about the link that no slot changes, so a packer
/// computes it once per link rather than once per slot it tries.
///
/// A candidate belongs to the parameters and the instance it was built
/// from; probe and commit it only into auditors over the same pair.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    link: Link,
    tx: Point,
    rx: Point,
    power: f64,
    /// `P·fade_lo` and `P·fade_hi`: the factors of this sender's
    /// certified lower and upper bound terms.
    reach: [f64; 2],
    /// Received signal `P·gain·fade`, as [`check`] computes it.
    signal: f64,
    /// Largest interference bound that certifies the SINR: `I < cap`
    /// implies `SINR ≥ β·(1 − 1e-12)` with [`GUARD`] to spare.
    cap: f64,
    /// Whether the link breaks one of [`check`]'s rules in every slot:
    /// half-duplex as a self-loop, or the noise floor.
    broken: bool,
}

impl Candidate {
    /// Prepares `link`, sent with `power`, for auditing under `params`.
    pub fn new(params: &SinrParams, instance: &Instance, link: Link, power: f64) -> Self {
        let (tx, rx) = (
            instance.position(link.sender),
            instance.position(link.receiver),
        );
        let len = link.length(instance);
        let fade = params.channel().fade(tx, rx);
        let (fade_lo, fade_hi) = params.channel().fade_bounds();
        let signal = power * params.path_gain(len) * fade;
        let threshold = params.beta() * (1.0 - 1e-12);
        Candidate {
            link,
            tx,
            rx,
            power,
            reach: [power * fade_lo, power * fade_hi],
            signal,
            cap: (signal * (1.0 - GUARD) / threshold - params.noise()) / (1.0 + GUARD),
            broken: link.sender == link.receiver || below_floor(params, len, fade, power),
        }
    }

    /// The link this candidate prepares.
    pub fn link(&self) -> Link {
        self.link
    }

    /// The power the link is sent with.
    pub fn power(&self) -> f64 {
        self.power
    }

    /// What identifies the candidate's terms: its link and power bits.
    fn key(&self) -> (Link, u64) {
        (self.link, self.power.to_bits())
    }
}

/// One link of the slot, with what the auditor knows about the
/// interference at its receiver.
#[derive(Clone, Copy, Debug)]
struct Resident {
    link: Candidate,
    /// Exact sum of the terms of residents `0..done`, in insertion
    /// order, skipping the link's own sender.
    exact: f64,
    done: usize,
    /// Certified upper bound on the terms of residents `done..`.
    unsummed: f64,
}

/// What the last passing probe computed, kept for a commit of the same
/// candidate that follows it directly.
#[derive(Clone, Debug, Default)]
struct Probed {
    /// The probed candidate's key; `None` once anything else happened.
    key: Option<(Link, u64)>,
    /// The upper end of the interference interval at its receiver.
    upper: f64,
    /// Its upper bound term at every resident receiver, in resident
    /// order.
    terms: Vec<f64>,
}

/// An incremental per-slot feasibility auditor: the engine behind the
/// packers ([`crate::packing`], `sinr-baselines::first_fit`) and the
/// re-packers' slot states.
///
/// A packer prepares each link direction once as a [`Candidate`], asks
/// [`probe`](Self::probe) whether it may join the slot, which leaves the
/// slot unchanged, and then [`commit`](Self::commit)s the links it
/// places. A probe settles every receiver, the new link's own included,
/// by a certified interval:
///
/// - **pass** when the interval's upper end clears `β·(1 − 1e-12)` with
///   [`GUARD`](crate::field) to spare;
/// - **fail** when an exact insertion-order prefix plus lower-bound
///   terms already falls short. This is exact: a float sum of
///   non-negative terms never decreases, so the full sum can only be
///   larger;
/// - **otherwise** that receiver catches up exactly, term by term in
///   insertion order, and is decided exactly.
///
/// Bound terms come from a squared distance and a small table of gain
/// bounds per `α` ([`AuditStats`] counts the exact fallbacks), so most
/// decisions evaluate no `powf`. Each resident keeps its exact prefix
/// sum and the bound on its not-yet-summed terms, which a commit raises
/// by the new sender's bound term: `O(k)` memory for a slot of `k`
/// links. A commit that directly follows its own passing probe takes
/// those terms, and the new receiver's bound, from the probe instead of
/// computing them again. A rejected probe needs nothing rolled back,
/// because a probe changes nothing a decision depends on.
///
/// **Determinism contract** (DESIGN.md §7.4): the exact sums append
/// terms in link-insertion order, which is exactly the left-to-right
/// order [`AffectanceCalc::sinr`] uses inside [`check`], and the
/// certificates only decide what the exact sum would. Every decision is
/// therefore bit-identical to `check(..).is_feasible()` on the same link
/// sequence; `check` stays the only oracle.
#[derive(Clone, Debug)]
pub struct SlotAuditor<'a> {
    params: &'a SinrParams,
    gains: Arc<GainBounds>,
    /// [`check`]'s SINR threshold `β·(1 − 1e-12)`.
    threshold: f64,
    links: Vec<Link>,
    residents: Vec<Resident>,
    /// Whether seeding left the residents' `unsummed` bounds unset.
    unbounded: bool,
    /// Bit `u` is set when node `u` sends a resident: the half-duplex
    /// and single-transmission rules.
    sending: Vec<u64>,
    /// Whether the residents already break a rule that no addition can
    /// repair (a structural violation or a co-located interferer).
    doomed: bool,
    /// The resident that rejected the most recent probe, if any.
    blocker: usize,
    probed: Probed,
    stats: AuditStats,
}

impl<'a> SlotAuditor<'a> {
    /// Creates an empty auditor for one slot.
    pub fn new(params: &'a SinrParams) -> Self {
        SlotAuditor {
            params,
            gains: GainBounds::shared(params.alpha()),
            threshold: params.beta() * (1.0 - 1e-12),
            links: Vec::new(),
            residents: Vec::new(),
            unbounded: false,
            sending: Vec::new(),
            doomed: false,
            blocker: usize::MAX,
            probed: Probed::default(),
            stats: AuditStats::default(),
        }
    }

    /// An auditor pre-seeded with a slot's resident links, committed in
    /// iteration order — the constructor the incremental re-packers
    /// (`sinr-connectivity::{repack, dist_repack}`) use to rebuild a
    /// surviving slot's probe state without replaying the original
    /// packing run. The residents are *committed*, not assumed
    /// feasible: [`is_feasible`](Self::is_feasible) reports on exactly
    /// the seeded set, and [`probe`](Self::probe) decides against it
    /// with the same bit-exact decisions as an auditor grown link by
    /// link.
    ///
    /// Seeding costs `O(k)`: the `O(k²)` resident bounds wait for the
    /// first probe whose own receiver passes, so a slot that drowns
    /// every link probed into it never pays them.
    pub fn with_residents<I: IntoIterator<Item = (Link, f64)>>(
        params: &'a SinrParams,
        instance: &'a Instance,
        residents: I,
    ) -> Self {
        let mut auditor = SlotAuditor::new(params);
        auditor.unbounded = true;
        for (link, power) in residents {
            auditor.commit(&Candidate::new(params, instance, link, power));
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

    /// How this auditor's decisions were settled so far.
    pub fn stats(&self) -> AuditStats {
        self.stats
    }

    /// Whether the slot plus the candidate's link would be feasible —
    /// bit-identical to `check(..).is_feasible()` on the resident links
    /// followed by that link. The resident set is left unchanged (a
    /// probe may only advance residents' exact sums);
    /// [`commit`](Self::commit) adds the link. A probe of an empty slot
    /// is `check` on the link alone.
    pub fn probe(&mut self, candidate: &Candidate) -> bool {
        self.probed.key = None;
        if self.doomed || !self.admits(candidate) {
            return false;
        }
        let passed = if self.unbounded {
            // The new link's own receiver needs no resident bounds:
            // settle it first, and pay for the bounds only if it passes.
            if !self.link_passes(candidate, self.interval_at(candidate.rx)) {
                return false;
            }
            for i in 0..self.residents.len() {
                self.residents[i].unsummed = self.unsummed_at(i);
            }
            self.unbounded = false;
            self.residents_pass(candidate, None)
        } else {
            // One pass settles the residents and sums the new receiver's
            // interval, which is decided once every resident passes.
            let mut interval = (0.0, 0.0);
            self.residents_pass(candidate, Some(&mut interval))
                && self.link_passes(candidate, interval)
        };
        if passed {
            self.probed.key = Some(candidate.key());
        }
        passed
    }

    /// Adds the candidate's link to the slot, whether or not it keeps
    /// the slot feasible: `O(len)` bound updates. Directly after the
    /// candidate's own passing probe, the updates are that probe's
    /// terms; otherwise they are computed here, to the same bits.
    pub fn commit(&mut self, candidate: &Candidate) {
        let probed = self.probed.key.take() == Some(candidate.key());
        if !probed && !self.admits(candidate) {
            self.doomed = true;
        }
        let mut new = Resident {
            link: *candidate,
            exact: 0.0,
            done: 0,
            unsummed: 0.0,
        };
        if !self.unbounded {
            if probed {
                new.unsummed = self.probed.upper;
                for (r, t) in self.residents.iter_mut().zip(&self.probed.terms) {
                    r.unsummed += t;
                }
            } else {
                new.unsummed = self.interval_at(candidate.rx).1;
                for i in 0..self.residents.len() {
                    let term = self.upper_term(candidate, self.residents[i].link.rx);
                    self.residents[i].unsummed += term;
                }
            }
        }
        let (word, bit) = (candidate.link.sender / 64, candidate.link.sender % 64);
        if self.sending.len() <= word {
            self.sending.resize(word + 1, 0);
        }
        self.sending[word] |= 1 << bit;
        self.links.push(candidate.link);
        self.residents.push(new);
    }

    /// Whether the resident set is feasible — bit-identical to
    /// `check(params, instance, &set, power).is_feasible()` for the
    /// same links in the same order under the same powers.
    pub fn is_feasible(&self) -> bool {
        !self.doomed
            && self.residents.iter().enumerate().all(|(i, r)| {
                let unsummed = if self.unbounded {
                    self.unsummed_at(i)
                } else {
                    r.unsummed
                };
                match self.certify(&r.link, r.exact, r.exact + unsummed) {
                    Verdict::Pass => true,
                    Verdict::Fail => false,
                    Verdict::Unsure => self
                        .exact_sum(&r.link, r.exact, r.done..self.residents.len())
                        .is_some_and(|sum| self.passes(&r.link, sum)),
                }
            })
    }

    /// Whether the candidate's link keeps [`check`]'s per-link rules
    /// once it joins the residents. A resident whose receiver is that
    /// link's sender needs no rule here: that sender sits on its
    /// receiver, which its exact sum rates SINR 0, as `check` rates it
    /// half-duplex.
    fn admits(&self, candidate: &Candidate) -> bool {
        !candidate.broken
            && !self.sends(candidate.link.receiver)
            && !self.sends(candidate.link.sender)
    }

    /// Whether node `u` sends one of the residents.
    fn sends(&self, u: NodeId) -> bool {
        self.sending
            .get(u / 64)
            .is_some_and(|w| w >> (u % 64) & 1 == 1)
    }

    /// Whether every resident receiver passes with `new`'s sender added;
    /// records `new`'s bound term at each of them for the commit. With
    /// an `interval`, the same pass folds the residents' bounds at
    /// `new`'s own receiver onto it, in [`interval_at`](Self::interval_at)'s
    /// order.
    fn residents_pass(&mut self, new: &Candidate, mut interval: Option<&mut (f64, f64)>) -> bool {
        // The resident that rejected the last probe (typically a long,
        // fragile link) usually rejects the next one too: ask it first.
        if let Some(r) = self.residents.get(self.blocker) {
            if self.certify_with(r, new).0 == Verdict::Fail {
                return false;
            }
        }
        self.probed.terms.clear();
        for i in 0..self.residents.len() {
            let r = &self.residents[i];
            if let Some((lower, upper)) = interval.as_deref_mut() {
                let [lo, hi] = self.gains.get(r.link.tx.distance_sq(new.rx));
                (*lower, *upper) = (*lower + r.link.reach[0] * lo, *upper + r.link.reach[1] * hi);
            }
            let (verdict, term) = self.certify_with(r, new);
            self.probed.terms.push(term);
            let settled = match verdict {
                Verdict::Pass => true,
                Verdict::Fail => false,
                Verdict::Unsure => self.resident_exactly(i, new),
            };
            if !settled {
                self.blocker = i;
                return false;
            }
        }
        true
    }

    /// Whether `new`'s own receiver passes against the residents, whose
    /// interference there lies in `(lower, upper)`; records the upper
    /// end for the commit.
    fn link_passes(&mut self, new: &Candidate, (lower, upper): (f64, f64)) -> bool {
        self.probed.upper = upper;
        match self.certify(new, lower, upper) {
            Verdict::Pass => true,
            Verdict::Fail => false,
            Verdict::Unsure => {
                self.stats.link_exact += 1;
                self.exact_sum(new, 0.0, 0..self.residents.len())
                    .is_some_and(|sum| self.passes(new, sum))
            }
        }
    }

    /// Resident `i`'s bound on every other resident's term, summed in
    /// insertion order: the bits commits accumulate when bounded.
    fn unsummed_at(&self, i: usize) -> f64 {
        let rx = self.residents[i].link.rx;
        let others = self.residents.iter().enumerate().filter(|&(j, _)| j != i);
        others.fold(0.0, |acc, (_, w)| acc + self.upper_term(&w.link, rx))
    }

    /// The certified upper bound on `w`'s sender's term at `rx`.
    fn upper_term(&self, w: &Candidate, rx: Point) -> f64 {
        w.reach[1] * self.gains.get(w.tx.distance_sq(rx))[1]
    }

    /// Certified `(lower, upper)` bounds on the interference every
    /// resident sender puts on a receiver at `rx`. The lower end is a
    /// left fold of per-term lower bounds in insertion order, so it
    /// never exceeds the exact fold.
    fn interval_at(&self, rx: Point) -> (f64, f64) {
        self.residents.iter().fold((0.0, 0.0), |(lower, upper), r| {
            let [lo, hi] = self.gains.get(r.link.tx.distance_sq(rx));
            (lower + r.link.reach[0] * lo, upper + r.link.reach[1] * hi)
        })
    }

    /// What the interference interval `[lower, upper]` says about `c`.
    fn certify(&self, c: &Candidate, lower: f64, upper: f64) -> Verdict {
        if upper < c.cap {
            Verdict::Pass
        } else if c.signal / (self.params.noise() + lower) < self.threshold {
            Verdict::Fail
        } else {
            Verdict::Unsure
        }
    }

    /// What resident `r`'s interval says with `new`'s sender added last,
    /// and `new`'s upper bound term at `r`'s receiver.
    fn certify_with(&self, r: &Resident, new: &Candidate) -> (Verdict, f64) {
        let [lo, hi] = self.gains.get(new.tx.distance_sq(r.link.rx));
        let term = new.reach[1] * hi;
        let lower = r.exact + new.reach[0] * lo;
        let upper = r.exact + r.unsummed + term;
        (self.certify(&r.link, lower, upper), term)
    }

    /// [`check`]'s exact comparison for `c` at `interference`. `check`
    /// flags `SINR < β·(1 − 1e-12)`, so an incomparable (NaN) SINR
    /// passes.
    fn passes(&self, c: &Candidate, interference: f64) -> bool {
        let sinr = c.signal / (self.params.noise() + interference);
        sinr.partial_cmp(&self.threshold) != Some(Ordering::Less)
    }

    /// Catches resident `i` up exactly and decides it with `new`'s term
    /// appended last.
    fn resident_exactly(&mut self, i: usize, new: &Candidate) -> bool {
        self.stats.resident_exact += 1;
        let k = self.residents.len();
        let r = self.residents[i];
        let Some(sum) = self.exact_sum(&r.link, r.exact, r.done..k) else {
            // A resident sender sits on this receiver: SINR 0 for good.
            self.doomed = true;
            return false;
        };
        let r = &mut self.residents[i];
        (r.exact, r.done, r.unsummed) = (sum, k, 0.0);
        let r = self.residents[i];
        self.term(new, r.link.rx)
            .is_some_and(|t| self.passes(&r.link, r.exact + t))
    }

    /// Folds the exact terms of the residents in `range` onto `acc` at
    /// `c`'s receiver, skipping `c`'s own sender — the order and the
    /// skip rule of [`AffectanceCalc::sinr`]. `None` when one of them
    /// sits on the receiver, which `check` rates SINR 0.
    fn exact_sum(&self, c: &Candidate, acc: f64, range: Range<usize>) -> Option<f64> {
        self.residents[range]
            .iter()
            .filter(|w| w.link.link.sender != c.link.sender)
            .try_fold(acc, |acc, w| Some(acc + self.term(&w.link, c.rx)?))
    }

    /// The exact interference term of `w`'s sender at `rx`, as
    /// [`AffectanceCalc::sinr`] computes it.
    fn term(&self, w: &Candidate, rx: Point) -> Option<f64> {
        let d = w.tx.distance(rx);
        (d != 0.0)
            .then(|| w.power * self.params.path_gain(d) * self.params.channel().fade(w.tx, rx))
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

    /// `check`'s verdict on `links` under explicit per-link powers.
    fn check_links(p: &SinrParams, inst: &Instance, links: &[(Link, f64)]) -> bool {
        let set = LinkSet::from_links(links.iter().map(|&(l, _)| l)).unwrap();
        let power = PowerAssignment::explicit(links.iter().copied().collect()).unwrap();
        check(p, inst, &set, &power).is_feasible()
    }

    /// The auditor's decisions equal `check(..).is_feasible()` on the
    /// same link sequence under random seed/probe/commit sequences over
    /// random geometry — the packers rely on this being exact. Rejected
    /// links are sometimes committed anyway, so infeasible slots are
    /// audited too.
    #[test]
    fn auditor_matches_check_to_the_bit() {
        use sinr_geom::gen;
        let p = params();
        for seed in 0..6u64 {
            let inst = gen::uniform_square(40, 1.5, seed).unwrap();
            let power = PowerAssignment::mean_with_margin(&p, inst.delta());
            // Candidate links: everyone's nearest-neighbor uplink.
            let candidates: Vec<(Link, f64)> = (0..inst.len())
                .map(|u| {
                    let v = (0..inst.len())
                        .filter(|&v| v != u)
                        .min_by(|&a, &b| {
                            inst.distance(a, u)
                                .partial_cmp(&inst.distance(b, u))
                                .unwrap()
                        })
                        .unwrap();
                    let link = Link::new(u, v);
                    (link, power.power_of(link, &inst, &p).unwrap())
                })
                .collect();

            let seeded = &candidates[..3];
            let mut auditor = SlotAuditor::with_residents(&p, &inst, seeded.iter().copied());
            let mut resident: Vec<(Link, f64)> = seeded.to_vec();
            for (i, &(link, pw)) in candidates.iter().enumerate().skip(3) {
                if resident.iter().any(|&(l, _)| l == link) {
                    continue;
                }
                let mut probe = resident.clone();
                probe.push((link, pw));
                let naive = check_links(&p, &inst, &probe);
                assert_eq!(
                    auditor.probe(&Candidate::new(&p, &inst, link, pw)),
                    naive,
                    "seed {seed}: auditor diverged from check on {link:?}"
                );
                assert_eq!(auditor.len(), resident.len(), "a probe changed the slot");
                if naive || i % 7 == 0 {
                    auditor.commit(&Candidate::new(&p, &inst, link, pw));
                    resident = probe;
                }
                assert_eq!(auditor.is_feasible(), check_links(&p, &inst, &resident));
            }
            let links: Vec<Link> = resident.iter().map(|&(l, _)| l).collect();
            assert_eq!(auditor.links(), links.as_slice());
        }
    }

    /// A seeded auditor is indistinguishable from one grown commit by
    /// commit: same resident list, same feasibility bits, same probe
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
        let mut grown = SlotAuditor::new(&p);
        for &(l, pw) in &residents {
            grown.commit(&Candidate::new(&p, &inst, l, pw));
        }
        let mut seeded = SlotAuditor::with_residents(&p, &inst, residents.iter().copied());
        assert_eq!(grown.links(), seeded.links());
        assert_eq!(grown.is_feasible(), seeded.is_feasible());
        // Deferred bounds are the bits the grown auditor accumulated.
        for (i, r) in grown.residents.iter().enumerate() {
            assert_eq!(r.unsummed.to_bits(), seeded.unsummed_at(i).to_bits());
        }
        let probe = Link::new(15, 16);
        let probe = Candidate::new(&p, &inst, probe, power.power_of(probe, &inst, &p).unwrap());
        assert_eq!(grown.probe(&probe), seeded.probe(&probe));
        assert_eq!(grown.links(), seeded.links());
    }

    /// A commit takes its terms from the probe it directly follows, and
    /// only then: probing A, then B, then committing A leaves every
    /// bound with the bits of a commit that computed its own terms.
    #[test]
    fn commit_reuses_only_its_own_probe() {
        let p = params();
        // Five unit links, 20 apart: each pair coexists.
        let xs: Vec<f64> = (0..10).map(|i| f64::from(i / 2 * 20 + i % 2)).collect();
        let inst = line_instance(&xs);
        let power = PowerAssignment::uniform_with_margin(&p, 1.0);
        let cand = |u: usize| {
            let l = Link::new(u, u + 1);
            Candidate::new(&p, &inst, l, power.power_of(l, &inst, &p).unwrap())
        };
        let seed = [cand(0), cand(4), cand(8)];
        let (a, b) = (cand(2), cand(6));
        let unsummed = |x: &SlotAuditor<'_>| -> Vec<u64> {
            x.residents.iter().map(|r| r.unsummed.to_bits()).collect()
        };
        let grow = |ops: &dyn Fn(&mut SlotAuditor<'_>)| {
            let mut x = SlotAuditor::new(&p);
            for c in &seed {
                x.commit(c);
            }
            ops(&mut x);
            x
        };
        let fresh = grow(&|x| x.commit(&a));
        let reused = grow(&|x| {
            assert!(x.probe(&a));
            x.commit(&a);
        });
        let interleaved = grow(&|x| {
            assert!(x.probe(&a));
            x.probe(&b);
            x.commit(&a);
        });
        assert!(fresh.probed.key.is_none() && reused.probed.key.is_none());
        assert_eq!(unsummed(&reused), unsummed(&fresh));
        assert_eq!(unsummed(&interleaved), unsummed(&fresh));
        // B's passing probe left its own terms, which A must not take.
        let mut x = grow(&|_| {});
        assert!(x.probe(&a) && x.probe(&b));
        assert_eq!(x.probed.key, Some(b.key()));
        x.commit(&a);
        assert_eq!(unsummed(&x), unsummed(&fresh));
    }

    /// A seeded slot rejects a link its residents drown on that link's
    /// own receiver, without computing the residents' bounds.
    #[test]
    fn seeded_auditor_rejects_a_drowned_link_without_bounds() {
        let p = params();
        let inst = line_instance(&[0.0, 1.0, 3.0, 4.0, 30.0, 2.0]);
        let power = PowerAssignment::uniform_with_margin(&p, inst.delta());
        let links = [Link::new(0, 1), Link::new(2, 3), Link::new(4, 5)];
        let all: Vec<(Link, f64)> = links
            .iter()
            .map(|&l| (l, power.power_of(l, &inst, &p).unwrap()))
            .collect();
        let mut seeded = SlotAuditor::with_residents(&p, &inst, all[..2].iter().copied());
        let (drowned, pw) = all[2];
        let drowned = Candidate::new(&p, &inst, drowned, pw);
        assert!(seeded.admits(&drowned));
        assert!(!check_links(&p, &inst, &all));
        assert!(!seeded.probe(&drowned));
        assert!(seeded.unbounded);
    }

    #[test]
    fn auditor_rejects_structural_violations() {
        let p = params();
        let inst = line_instance(&[0.0, 1.0, 2.0]);
        let power = PowerAssignment::uniform_with_margin(&p, inst.delta());
        let cand = |u, v| {
            let l = Link::new(u, v);
            Candidate::new(&p, &inst, l, power.power_of(l, &inst, &p).unwrap())
        };

        // Half-duplex: 0→1 with 1→2, in both insertion orders.
        let mut a = SlotAuditor::new(&p);
        a.commit(&cand(0, 1));
        assert!(!a.probe(&cand(1, 2)));
        let mut a = SlotAuditor::new(&p);
        a.commit(&cand(1, 2));
        assert!(!a.probe(&cand(0, 1)));
        assert_eq!(a.len(), 1);

        // Duplicate sender: 0→1 with 0→2.
        let mut b = SlotAuditor::new(&p);
        assert!(b.probe(&cand(0, 1)));
        b.commit(&cand(0, 1));
        assert!(!b.probe(&cand(0, 2)));

        // Below the noise floor.
        let weak = Candidate::new(&p, &inst, Link::new(0, 2), p.noise_floor_power(2.0) * 0.5);
        let mut c = SlotAuditor::new(&p);
        assert!(!c.probe(&weak));

        // A second link from a busy sender. At β = 1 and powers far
        // above the noise each link clears its SINR (the exact sums skip
        // a link's own sender), so only the single-transmission rule
        // rejects it.
        let loud = SinrParams::new(3.0, 1.0, 1.0, 0.1).unwrap();
        let both = [(Link::new(0, 1), 1e16), (Link::new(0, 2), 1e16)];
        assert!(!check_links(&loud, &inst, &both));
        let both = both.map(|(l, pw)| Candidate::new(&loud, &inst, l, pw));
        let mut d = SlotAuditor::new(&loud);
        d.commit(&both[0]);
        assert!(!d.probe(&both[1]));
        d.commit(&both[1]);
        assert!(!d.is_feasible());

        // A structurally broken slot stays broken for every probe.
        c.commit(&weak);
        assert!(!c.is_feasible());
        assert!(!c.probe(&cand(1, 0)));
    }

    /// Two mirror-image links whose SINRs sit 1e-12 from the threshold,
    /// far inside [`GUARD`]: no certificate can settle them, so both the
    /// resident catch-up and the new link's exact sum must run, on the
    /// passing side and on the failing side of `β`.
    #[test]
    fn grazing_decisions_take_both_exact_paths() {
        let inst = line_instance(&[0.0, 1.0, 3.0, 4.0]);
        let (a, b) = (Link::new(0, 1), Link::new(3, 2));
        let pw = 100.0;
        let sinr = AffectanceCalc::new(&params(), &inst).sinr(a, pw, &[(0, pw), (3, pw)]);
        for (beta, feasible) in [(sinr, true), (sinr * (1.0 + 1e-10), false)] {
            let p = SinrParams::new(3.0, beta, 1.0, 0.1).unwrap();
            let (ca, cb) = (
                Candidate::new(&p, &inst, a, pw),
                Candidate::new(&p, &inst, b, pw),
            );
            let mut auditor = SlotAuditor::new(&p);
            assert!(auditor.probe(&ca), "a lone link clears β by far");
            auditor.commit(&ca);
            assert_eq!(
                auditor.stats().resident_exact + auditor.stats().link_exact,
                0
            );
            assert_eq!(auditor.probe(&cb), feasible, "β = {beta}");
            assert_eq!(feasible, check_links(&p, &inst, &[(a, pw), (b, pw)]));
            let stats = auditor.stats();
            assert_eq!(stats.resident_exact, 1, "β = {beta}: {stats:?}");
            assert_eq!(
                stats.link_exact,
                u64::from(feasible),
                "β = {beta}: {stats:?}"
            );
            // The probe left the slot as it was.
            assert_eq!(auditor.links(), &[a]);
            assert!(auditor.is_feasible());
        }
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
