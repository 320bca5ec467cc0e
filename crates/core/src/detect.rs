//! Timeout-based failure detection over the simulated channel
//! (DESIGN.md §13).
//!
//! The repair pipeline ([`crate::repair`]) consumes *announced*
//! kill-sets; this module produces them from *unannounced* faults. The
//! detector is a heartbeat protocol run on the real [`Engine`] — with
//! the fault plan armed, so detection happens through the same SINR
//! channel the faults corrupt:
//!
//! - **Phase A (beacons)**: each heartbeat cycle replays the
//!   aggregation schedule in the dissemination direction — in slot `s`
//!   every parent with a child-link scheduled there transmits a beacon
//!   with the down-link's power, and the child listens on its own
//!   slot. Definition 1's bidirectional feasibility is what makes this
//!   replay deliverable.
//! - **Timeout + backoff**: a child that misses `T` consecutive
//!   expected beacons ([`DetectConfig::miss_threshold`]) locally
//!   declares its parent suspect; between misses it backs off
//!   exponentially (probe pauses of `2^misses − 1` cycles, bounded by
//!   [`DetectConfig::max_backoff_exp`]) so a dead parent's whole child
//!   set does not keep probing every cycle. A beacon resets misses and
//!   backoff — and *clears* an active suspicion, so transient faults
//!   (deafness windows, reception drops) produce recoverable
//!   suspicions rather than permanent ones.
//! - **Phase B (reports)**: the aggregation schedule runs in its own
//!   direction — a child with pending failure reports transmits them
//!   up its uplink (unless the uplink's parent is currently the
//!   suspect), parents merge and relay. Reports of *cleared*
//!   suspicions travel all the way to the root; reports of a still-dead
//!   parent necessarily stop at the declaring child, which has become
//!   a fragment root — exactly the node the repair pipeline reattaches.
//!
//! The resulting [`DetectionReport::suspects`] is the kill-set
//! [`repair_after_failures`](crate::repair::repair_after_failures)
//! consumes, so detection composes with the incremental re-pack
//! unchanged.
//!
//! # What the detector cannot see
//!
//! A suspicion is evidence of a *broken link*, not a dead node: a deaf
//! or dropping **child** suspects a healthy parent (a false positive
//! that clears when the fault does — or survives the horizon and gets
//! the parent killed), and a crashed **leaf** is invisible (nobody
//! expects beacons from it; only the converge-cast audit after repair
//! notices the missing contribution). Both limits are inherent to
//! parent-ward heartbeats and documented in DESIGN.md §13.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use sinr_geom::{Instance, NodeId};
use sinr_links::Link;
use sinr_phy::SinrParams;
use sinr_sim::{Action, Engine, EngineBackend, FaultPlan, Protocol, SlotOutcome};

use crate::repair::PriorStructure;
use crate::{CoreError, Result};

/// Detector tuning.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DetectConfig {
    /// Consecutive missed beacons before a child declares its parent
    /// suspect (`T`).
    pub miss_threshold: u32,
    /// Backoff pauses are `min(2^misses, 2^max_backoff_exp) − 1`
    /// cycles.
    pub max_backoff_exp: u32,
    /// Heartbeat cycles to run (one cycle = `2 ×` schedule slots).
    pub max_rounds: u64,
    /// Channel-resolution backend for the detection engine.
    pub backend: EngineBackend,
}

impl Default for DetectConfig {
    fn default() -> Self {
        DetectConfig {
            miss_threshold: 3,
            max_backoff_exp: 2,
            max_rounds: 12,
            backend: EngineBackend::Grid,
        }
    }
}

/// One (first) local suspicion declaration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Detection {
    /// The declaring child.
    pub child: NodeId,
    /// The suspected parent.
    pub suspect: NodeId,
    /// Engine slot of the declaration — detection latency is this
    /// minus the fault's onset slot.
    pub slot: u64,
}

/// What a detection run concluded.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DetectionReport {
    /// Parents still suspected at the horizon, sorted and deduplicated
    /// — the kill-set for
    /// [`repair_after_failures`](crate::repair::repair_after_failures).
    pub suspects: Vec<NodeId>,
    /// Every first declaration, in `(slot, child)` order (includes
    /// suspicions that later cleared).
    pub detections: Vec<Detection>,
    /// Failure reports that relayed all the way to the tree root.
    pub reports_at_root: Vec<NodeId>,
    /// Suspicions cleared by a late beacon (transient faults).
    pub cleared: usize,
    /// Slots in one heartbeat cycle (`2 ×` schedule slots).
    pub cycle_slots: u64,
    /// Total simulated slots the detection run used.
    pub slots_used: u64,
    /// Heartbeat cycles run.
    pub rounds: u64,
}

/// The heartbeat protocol payload.
#[derive(Clone, Debug, PartialEq)]
enum HeartbeatMsg {
    /// Phase A: a parent's liveness beacon.
    Beacon,
    /// Phase B: failure reports relaying up (sorted node ids).
    Report(Vec<NodeId>),
}

/// Per-node heartbeat state. The engine freezes this (and stops
/// calling it) for crashed nodes, so a dead parent goes silent exactly
/// as the fault plan dictates.
///
/// A node is awake only on its duty slots — beacons, probes, reports,
/// phase-B listens and the cycle settle when it has something to
/// settle — and sleeps until the next one otherwise
/// ([`HeartbeatNode::sleep`]).
#[derive(Debug)]
struct HeartbeatNode {
    parent: Option<NodeId>,
    /// Schedule slot of the uplink `Link(self, parent)`.
    uplink_slot: usize,
    /// Uplink transmit power (phase B reports).
    uplink_power: f64,
    /// The schedule slots of this node's child links, ascending, each
    /// with its beacon power (the max over same-slot down-links): a
    /// beacon duty in phase A and a listen duty in phase B.
    child_slots: Vec<(usize, f64)>,
    /// Slots per cycle half (schedule slots).
    half: u64,
    miss_threshold: u32,
    max_backoff_exp: u32,
    misses: u32,
    /// Cycles left to skip before the next probe.
    backoff: u64,
    /// Whether this node probed for its beacon this cycle and has not
    /// heard it: the miss the cycle-end settle scores. Hearing the
    /// beacon settles the probe at once.
    unanswered_probe: bool,
    /// The parent is currently suspected.
    suspected_now: bool,
    /// First declaration `(suspect, slot)`, kept for latency.
    declared: Option<(NodeId, u64)>,
    /// Suspicions cleared by a late beacon.
    cleared: usize,
    /// Reports to relay up (own + received).
    pending: BTreeSet<NodeId>,
    /// Every report this node has seen.
    known: BTreeSet<NodeId>,
}

impl HeartbeatNode {
    fn declare(&mut self, node: NodeId, slot: u64) {
        let parent = self.parent.expect("only children declare");
        self.suspected_now = true;
        self.pending.insert(parent);
        self.known.insert(parent);
        if self.declared.is_none() {
            self.declared = Some((parent, slot));
            // `end_slot` runs on the driving thread, so the emission
            // lands in the trial's own recorder.
            #[cfg(feature = "trace")]
            sinr_sim::trace::emit(sinr_sim::trace::TraceEvent::FailureSuspected {
                slot,
                node,
                suspect: parent,
                misses: self.misses,
            });
            #[cfg(not(feature = "trace"))]
            let _ = node;
        }
    }

    /// The index of schedule slot `s` in `child_slots`, if a child link
    /// is scheduled there.
    fn child_slot(&self, s: usize) -> Option<usize> {
        self.child_slots
            .binary_search_by_key(&s, |&(slot, _)| slot)
            .ok()
    }

    /// Whether the cycle-end settle in `end_slot` would change this
    /// node's state: a miss to score, or a backoff to count down.
    fn settles(&self) -> bool {
        self.unanswered_probe || self.backoff > 0
    }

    /// The action for a slot this node sleeps through: sleep until its
    /// next duty slot (the dormancy promise of
    /// [`Protocol`](sinr_sim::Protocol)).
    ///
    /// State changes only on awake slots — receptions need a listen,
    /// the settle needs a wake — so the duties read off the current
    /// state hold until the next one: beacons and phase-B listens on
    /// child slots always; the probe unless backing off; a report when
    /// one is pending and the parent is not suspect; the settle (a
    /// cycle's last slot) when [`settles`](Self::settles). A node with
    /// no duty left retires.
    fn sleep(&self, slot: u64) -> Action<HeartbeatMsg> {
        let cycle = 2 * self.half;
        let within = slot % cycle;
        if within == cycle - 1 && self.settles() {
            // This slot's own `end_slot` settles the cycle.
            return Action::Sleep;
        }
        // Duties as cycle positions; each next falls due at its first
        // occurrence after `within`, in this cycle or the next.
        let after = |p: u64| if p > within { p } else { p + cycle };
        let up = self.uplink_slot as u64;
        let child = self.parent.is_some();
        let probe = (child && (self.suspected_now || self.backoff == 0)).then_some(up);
        let report =
            (child && !self.suspected_now && !self.pending.is_empty()).then_some(self.half + up);
        let settle = self.settles().then_some(cycle - 1);
        let next = self
            .child_slots
            .iter()
            .flat_map(|&(s, _)| [s as u64, self.half + s as u64])
            .chain(probe)
            .chain(report)
            .chain(settle)
            .map(after)
            .min();
        match next {
            Some(p) => Action::SleepUntil(slot - within + p),
            None => Action::SleepUntil(u64::MAX),
        }
    }
}

impl Protocol for HeartbeatNode {
    type Msg = HeartbeatMsg;

    fn begin_slot(&mut self, _: NodeId, slot: u64, _: &mut StdRng) -> Action<HeartbeatMsg> {
        let cycle = 2 * self.half;
        let within = slot % cycle;
        if within < self.half {
            // Phase A: beacons down, probe listens up.
            let s = within as usize;
            if let Some(i) = self.child_slot(s) {
                return Action::Transmit {
                    power: self.child_slots[i].1,
                    msg: HeartbeatMsg::Beacon,
                };
            }
            if self.parent.is_some() && s == self.uplink_slot {
                // Probe unless backing off; a declared child keeps
                // probing every cycle so recovery can clear it.
                if self.suspected_now || self.backoff == 0 {
                    self.unanswered_probe = true;
                    return Action::Listen;
                }
            }
        } else {
            // Phase B: reports up, parents listen.
            let s = (within - self.half) as usize;
            if self.parent.is_some()
                && s == self.uplink_slot
                && !self.suspected_now
                && !self.pending.is_empty()
            {
                return Action::Transmit {
                    power: self.uplink_power,
                    msg: HeartbeatMsg::Report(self.pending.iter().copied().collect()),
                };
            }
            if self.child_slot(s).is_some() {
                return Action::Listen;
            }
        }
        self.sleep(slot)
    }

    fn end_slot(&mut self, node: NodeId, slot: u64, o: SlotOutcome<HeartbeatMsg>, _: &mut StdRng) {
        if let SlotOutcome::Received(r) = o {
            match r.msg {
                HeartbeatMsg::Beacon => {
                    if Some(r.from) == self.parent {
                        self.unanswered_probe = false;
                        self.misses = 0;
                        self.backoff = 0;
                        if self.suspected_now {
                            self.suspected_now = false;
                            self.cleared += 1;
                        }
                    }
                }
                HeartbeatMsg::Report(ids) => {
                    for id in ids {
                        self.pending.insert(id);
                        self.known.insert(id);
                    }
                }
            }
        }
        // Cycle boundary: settle this cycle's probe.
        let cycle = 2 * self.half;
        if slot % cycle == cycle - 1 {
            if self.unanswered_probe {
                self.misses = self.misses.saturating_add(1);
                if self.suspected_now {
                    // Already declared: keep probing, no backoff.
                } else if self.misses >= self.miss_threshold {
                    self.declare(node, slot);
                } else {
                    let exp = self.misses.min(self.max_backoff_exp);
                    self.backoff = (1u64 << exp) - 1;
                }
            } else if self.backoff > 0 {
                self.backoff -= 1;
            }
            self.unanswered_probe = false;
        }
    }
}

/// Runs the heartbeat detector over `prior`'s structure with `plan`
/// armed and returns what it concluded.
///
/// The run is deterministic: same inputs ⇒ byte-identical report, on
/// every backend and at every thread count (the engine's fault parity
/// contract).
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] if `prior` is inconsistent with the
/// instance (wrong parent-array length, a tree link missing from the
/// schedule or the power map), `cfg.miss_threshold` is zero, a backoff
/// pause of `2^exp − 1` cycles overflows `u64` (`exp` reaches 64 when
/// `miss_threshold > 64` and `max_backoff_exp ≥ 64`), or the run of
/// `cfg.max_rounds` cycles overflows the slot counter.
pub fn detect_failures(
    params: &SinrParams,
    instance: &Instance,
    prior: &PriorStructure<'_>,
    plan: &FaultPlan,
    cfg: &DetectConfig,
    seed: u64,
) -> Result<DetectionReport> {
    let n = instance.len();
    if prior.parents.len() != n {
        return Err(CoreError::InvalidConfig {
            name: "prior.parents",
            reason: "parent array length must equal instance size",
        });
    }
    if cfg.miss_threshold == 0 {
        return Err(CoreError::InvalidConfig {
            name: "miss_threshold",
            reason: "a zero miss threshold declares instantly",
        });
    }
    // A backoff follows misses below the threshold, so its exponent
    // peaks at `min(miss_threshold − 1, max_backoff_exp)`.
    if cfg.max_backoff_exp.min(cfg.miss_threshold - 1) >= u64::BITS {
        return Err(CoreError::InvalidConfig {
            name: "max_backoff_exp",
            reason: "a backoff of 2^64 or more cycles overflows",
        });
    }
    let half = prior.schedule.num_slots();
    if half == 0 || n <= 1 {
        return Ok(DetectionReport::default());
    }
    let cycle_slots = 2 * half as u64;
    let slots = cfg
        .max_rounds
        .checked_mul(cycle_slots)
        .ok_or(CoreError::InvalidConfig {
            name: "max_rounds",
            reason: "the run's slot count overflows u64",
        })?;

    // Compile per-node heartbeat duties from the prior structure:
    // sparse per-node lists, O(n + links) in total.
    let mut templates: Vec<HeartbeatNode> = (0..n)
        .map(|_| HeartbeatNode {
            parent: None,
            uplink_slot: 0,
            uplink_power: 0.0,
            child_slots: Vec::new(),
            half: half as u64,
            miss_threshold: cfg.miss_threshold,
            max_backoff_exp: cfg.max_backoff_exp,
            misses: 0,
            backoff: 0,
            unanswered_probe: false,
            suspected_now: false,
            declared: None,
            cleared: 0,
            pending: BTreeSet::new(),
            known: BTreeSet::new(),
        })
        .collect();
    for (child, parent) in prior.parents.iter().enumerate() {
        let Some(p) = parent else { continue };
        let up = Link::new(child, *p);
        let slot = prior.schedule.slot_of(up).ok_or(CoreError::InvalidConfig {
            name: "prior.schedule",
            reason: "a tree link is missing from the schedule",
        })?;
        let up_power = *prior.powers.get(&up).ok_or(CoreError::InvalidConfig {
            name: "prior.powers",
            reason: "a tree link is missing an uplink power",
        })?;
        let down_power = *prior
            .powers
            .get(&up.dual())
            .ok_or(CoreError::InvalidConfig {
                name: "prior.powers",
                reason: "a tree link is missing a downlink power",
            })?;
        templates[child].parent = Some(*p);
        templates[child].uplink_slot = slot;
        templates[child].uplink_power = up_power;
        templates[*p].child_slots.push((slot, down_power));
    }
    for t in &mut templates {
        // Same-slot siblings share one beacon transmission; the
        // strongest down-link power carries it.
        t.child_slots.sort_unstable_by_key(|&(slot, _)| slot);
        t.child_slots.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = kept.1.max(later.1);
            }
            same
        });
    }

    // The engine takes the templates over in id order: one copy of the
    // duties, not two.
    let mut templates = templates.into_iter();
    let mut engine = Engine::with_backend(
        params,
        instance,
        |_| templates.next().expect("one template per node"),
        seed,
        cfg.backend,
    );
    engine.arm_faults(plan.clone());
    engine.run(slots);

    // Harvest: current suspicions form the kill-set; first
    // declarations carry the latency; the root's `known` set is what
    // the operator would see.
    let mut suspects = BTreeSet::new();
    let mut detections = Vec::new();
    let mut cleared = 0usize;
    let mut reports_at_root = BTreeSet::new();
    for (child, node) in engine.nodes().iter().enumerate() {
        cleared += node.cleared;
        if node.suspected_now {
            suspects.insert(node.parent.expect("suspicion implies a parent"));
        }
        if let Some((suspect, slot)) = node.declared {
            detections.push(Detection {
                child,
                suspect,
                slot,
            });
        }
        if node.parent.is_none() {
            reports_at_root.extend(node.known.iter().copied());
        }
    }
    detections.sort_by_key(|d| (d.slot, d.child));

    Ok(DetectionReport {
        suspects: suspects.into_iter().collect(),
        detections,
        reports_at_root: reports_at_root.into_iter().collect(),
        cleared,
        cycle_slots,
        slots_used: slots,
        rounds: cfg.max_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::MeanSamplingSelector;
    use crate::tvc::{tree_via_capacity, TvcConfig, TvcOutcome};
    use sinr_geom::gen;
    use sinr_sim::FaultEvent;
    use std::collections::HashMap;

    fn build(n: usize, seed: u64) -> (Instance, TvcOutcome) {
        let params = SinrParams::default();
        let inst = gen::uniform_square(n, 1.5, seed).unwrap();
        let mut sel = MeanSamplingSelector::default();
        let out = tree_via_capacity(&params, &inst, &TvcConfig::default(), &mut sel, seed).unwrap();
        (inst, out)
    }

    fn pieces(out: &TvcOutcome) -> (Vec<Option<NodeId>>, HashMap<Link, f64>) {
        let parents: Vec<Option<NodeId>> =
            (0..out.tree.len()).map(|u| out.tree.parent(u)).collect();
        (parents, out.power.as_explicit().unwrap().clone())
    }

    /// A non-root node with at least one child (so its death is
    /// observable by a heartbeat).
    fn internal_non_root(out: &TvcOutcome) -> NodeId {
        (0..out.tree.len())
            .find(|&u| u != out.tree.root() && !out.tree.children(u).is_empty())
            .expect("tree has an internal non-root node")
    }

    #[test]
    fn empty_plan_detects_nothing() {
        let params = SinrParams::default();
        let (inst, out) = build(24, 3);
        let (parents, powers) = pieces(&out);
        let prior = PriorStructure {
            parents: &parents,
            powers: &powers,
            schedule: &out.schedule,
        };
        let plan = FaultPlan::new(inst.len(), 0);
        let rep =
            detect_failures(&params, &inst, &prior, &plan, &DetectConfig::default(), 7).unwrap();
        assert!(rep.suspects.is_empty());
        assert!(rep.detections.is_empty());
        assert!(rep.reports_at_root.is_empty());
        assert_eq!(rep.cleared, 0);
        assert!(rep.slots_used > 0);
    }

    #[test]
    fn crashed_parent_is_detected_and_repair_composes() {
        let params = SinrParams::default();
        let (inst, out) = build(30, 5);
        let (parents, powers) = pieces(&out);
        let prior = PriorStructure {
            parents: &parents,
            powers: &powers,
            schedule: &out.schedule,
        };
        let victim = internal_non_root(&out);
        let mut plan = FaultPlan::new(inst.len(), 11);
        plan.push(victim, FaultEvent::CrashStop { at: 0 });
        let rep =
            detect_failures(&params, &inst, &prior, &plan, &DetectConfig::default(), 7).unwrap();
        assert_eq!(rep.suspects, vec![victim], "exactly the victim is suspect");
        assert!(
            !rep.detections.is_empty() && rep.detections.iter().all(|d| d.suspect == victim),
            "every declaration names the victim: {:?}",
            rep.detections
        );
        // Each of the victim's children declared once.
        assert_eq!(rep.detections.len(), out.tree.children(victim).len());
        assert_eq!(rep.cleared, 0, "a crash never clears");

        // The suspects are the exact kill-set the repair pipeline eats.
        let mut sel = MeanSamplingSelector::default();
        let repaired = crate::repair::repair_after_failures(
            &params,
            &inst,
            &prior,
            &rep.suspects,
            &TvcConfig::default(),
            &mut sel,
            13,
        )
        .unwrap();
        assert_eq!(repaired.instance.len(), inst.len() - 1);
        let (up, down) = crate::latency::audit_bitree(
            &params,
            &repaired.instance,
            &repaired.bitree,
            &repaired.power,
        )
        .unwrap();
        assert!(up.all_delivered && down.all_reached);
    }

    /// A deafness window long enough to declare, short enough to
    /// recover: the suspicion clears, and the incident report relays
    /// up to the root.
    #[test]
    fn transient_deafness_declares_then_clears_and_reports() {
        let params = SinrParams::default();
        let (inst, out) = build(24, 9);
        let (parents, powers) = pieces(&out);
        let prior = PriorStructure {
            parents: &parents,
            powers: &powers,
            schedule: &out.schedule,
        };
        // A direct child of the root: its report reaches the root in
        // one hop once its hearing recovers.
        let child = *out
            .tree
            .children(out.tree.root())
            .first()
            .expect("root has a child");
        let cycle = 2 * out.schedule.num_slots() as u64;
        // Deaf long enough for threshold-3 + backoffs (≈ 7 cycles).
        let mut plan = FaultPlan::new(inst.len(), 3);
        plan.push(
            child,
            FaultEvent::TransientDeafness {
                from: 0,
                until: 9 * cycle,
            },
        );
        let cfg = DetectConfig {
            max_rounds: 20,
            ..DetectConfig::default()
        };
        let rep = detect_failures(&params, &inst, &prior, &plan, &cfg, 7).unwrap();
        assert!(
            rep.detections
                .iter()
                .any(|d| d.child == child && d.suspect == out.tree.root()),
            "the deaf child declares its (healthy) parent: {:?}",
            rep.detections
        );
        assert!(rep.cleared >= 1, "the suspicion clears on recovery");
        assert!(
            rep.suspects.is_empty(),
            "no suspicion survives the horizon: {:?}",
            rep.suspects
        );
        assert!(
            rep.reports_at_root.contains(&out.tree.root()),
            "the incident report relays to the root: {:?}",
            rep.reports_at_root
        );
    }

    /// Same inputs ⇒ byte-identical report on every backend (the
    /// engine's fault parity contract, observed end to end).
    #[test]
    fn detection_is_backend_invariant() {
        let params = SinrParams::default();
        let (inst, out) = build(40, 17);
        let (parents, powers) = pieces(&out);
        let prior = PriorStructure {
            parents: &parents,
            powers: &powers,
            schedule: &out.schedule,
        };
        let victim = internal_non_root(&out);
        let mut plan = FaultPlan::new(inst.len(), 2);
        plan.push(victim, FaultEvent::CrashStop { at: 5 });
        plan.push(
            (victim + 3) % inst.len(),
            FaultEvent::ReceptionDrop { prob: 0.6, from: 0 },
        );
        let run = |backend| {
            let cfg = DetectConfig {
                backend,
                ..DetectConfig::default()
            };
            detect_failures(&params, &inst, &prior, &plan, &cfg, 7).unwrap()
        };
        let naive = run(EngineBackend::Naive);
        assert_eq!(naive, run(EngineBackend::Grid), "naive vs grid");
        assert_eq!(naive, run(EngineBackend::Parallel(2)), "vs parallel(2)");
        assert_eq!(naive, run(EngineBackend::Parallel(4)), "vs parallel(4)");
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let params = SinrParams::default();
        let (inst, out) = build(10, 1);
        let (parents, powers) = pieces(&out);
        let prior = PriorStructure {
            parents: &parents,
            powers: &powers,
            schedule: &out.schedule,
        };
        let plan = FaultPlan::new(inst.len(), 0);
        let zero = DetectConfig {
            miss_threshold: 0,
            ..DetectConfig::default()
        };
        assert!(matches!(
            detect_failures(&params, &inst, &prior, &plan, &zero, 0),
            Err(CoreError::InvalidConfig { .. })
        ));
        // The 64th miss would shift by 64 before the 65th declares.
        let shift = DetectConfig {
            miss_threshold: 65,
            max_backoff_exp: 64,
            ..DetectConfig::default()
        };
        assert!(matches!(
            detect_failures(&params, &inst, &prior, &plan, &shift, 0),
            Err(CoreError::InvalidConfig {
                name: "max_backoff_exp",
                ..
            })
        ));
        // One exponent short of the shift runs.
        let widest = DetectConfig {
            miss_threshold: 64,
            max_backoff_exp: u32::MAX,
            max_rounds: 1,
            ..DetectConfig::default()
        };
        assert!(detect_failures(&params, &inst, &prior, &plan, &widest, 0).is_ok());
        let endless = DetectConfig {
            max_rounds: u64::MAX,
            ..DetectConfig::default()
        };
        assert!(matches!(
            detect_failures(&params, &inst, &prior, &plan, &endless, 0),
            Err(CoreError::InvalidConfig {
                name: "max_rounds",
                ..
            })
        ));
        let short: Vec<Option<NodeId>> = parents[..5].to_vec();
        let bad = PriorStructure {
            parents: &short,
            powers: &powers,
            schedule: &out.schedule,
        };
        assert!(matches!(
            detect_failures(&params, &inst, &bad, &plan, &DetectConfig::default(), 0),
            Err(CoreError::InvalidConfig { .. })
        ));
    }
}
