//! The `Init` algorithm (§6): distributed initial bi-tree construction.
//!
//! At any time a subset of nodes is *active* (all at the start, one — the
//! root — at the end). Time is organized in `⌈log Δ⌉` rounds of
//! `λ₁·log n` slot-pairs. In each slot-pair every active node becomes a
//! broadcaster with probability `p`, otherwise a listener:
//!
//! - **slot 1**: broadcasters transmit (power `2βN·2^{rα}` in round `r`);
//! - **slot 2**: a listener `v` that decoded a broadcast from `u` in the
//!   round's length window acknowledges with probability `p`; a
//!   broadcaster that decodes an acknowledgment addressed to it becomes
//!   inactive with the acknowledger as its parent.
//!
//! Theorem 2: the result is a strongly-connected bi-tree after
//! `O(log Δ · log n)` slots, w.h.p.
//!
//! # Deviations from the paper (see DESIGN.md §5)
//!
//! - Constants are practical knobs (`p = 0.1`, small `λ₁`), not the
//!   worst-case proof constants; [`InitConfig::theoretical`] computes the
//!   paper's values for reference.
//! - With `accept_shorter` (default), round `r` accepts any decoded
//!   broadcast with `d < 2^r`, not only `d ∈ [2^{r-1}, 2^r)`; this keeps
//!   the network connectable when the w.h.p. invariant of Lemma 6 fails
//!   under practical constants.
//! - After the `⌈log Δ⌉` scheduled rounds, the top length class repeats
//!   (up to `extra_rounds_cap` rounds) until a single active node
//!   remains. The simulation driver checks the globally-visible active
//!   count only as a stopping criterion; nodes themselves never use it.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use sinr_geom::{extremes, Instance, NodeId, Point};
use sinr_links::{BiTree, InTree, Link, Schedule};
use sinr_phy::{PowerAssignment, SinrParams};
use sinr_sim::{Action, Engine, EngineBackend, Protocol, Reception, SlotOutcome};

use crate::{CoreError, Result};

/// Tuning knobs for `Init`.
#[derive(Clone, Debug, PartialEq)]
pub struct InitConfig {
    /// Per-slot-pair broadcast (and acknowledgment) probability `p`.
    pub p: f64,
    /// Slot-pairs per round = `⌈lambda1 · log₂ n⌉` (at least 1).
    pub lambda1: f64,
    /// Accept links shorter than the round's window lower end.
    pub accept_shorter: bool,
    /// Extra repetitions of the top length class before giving up.
    pub extra_rounds_cap: u32,
    /// Channel-resolution backend of the simulation engine (all
    /// backends are bit-identical; `Naive` exists for parity testing
    /// and benchmarks).
    pub backend: EngineBackend,
}

impl Default for InitConfig {
    fn default() -> Self {
        InitConfig {
            p: 0.1,
            lambda1: 4.0,
            accept_shorter: true,
            extra_rounds_cap: 256,
            backend: EngineBackend::default(),
        }
    }
}

impl InitConfig {
    /// The worst-case constants used in the paper's proofs:
    /// `p = (64(1 + 6β·2^α/(α−2)))⁻¹` (Lemma 5) and `λ₁ = 80/p²`
    /// (Lemma 6). These make the w.h.p. statements literally true but
    /// are far too conservative to simulate; exposed for documentation
    /// and for sanity tests of the formulas.
    pub fn theoretical(params: &SinrParams) -> Self {
        let alpha = params.alpha();
        let beta = params.beta();
        let p = 1.0 / (64.0 * (1.0 + 6.0 * beta * 2f64.powf(alpha) / (alpha - 2.0)));
        InitConfig {
            p,
            lambda1: 80.0 / (p * p),
            accept_shorter: false,
            extra_rounds_cap: 0,
            backend: EngineBackend::default(),
        }
    }

    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `p ∉ (0, 0.5]` or
    /// `lambda1 ≤ 0`.
    pub fn validate(&self) -> Result<()> {
        if !(self.p > 0.0 && self.p <= 0.5) {
            return Err(CoreError::InvalidConfig {
                name: "p",
                reason: "broadcast probability must lie in (0, 0.5]",
            });
        }
        if !(self.lambda1.is_finite() && self.lambda1 > 0.0) {
            return Err(CoreError::InvalidConfig {
                name: "lambda1",
                reason: "round-length factor must be positive and finite",
            });
        }
        Ok(())
    }
}

/// Message payload of the `Init` protocol. A broadcast carries the
/// sender's identity/location implicitly (the simulator reports sender
/// and distance, as the paper's message model allows); an
/// acknowledgment names its addressee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitMsg {
    /// Exploratory message to no node in particular (§5).
    Broadcast,
    /// Response addressed to a previous broadcaster.
    Ack {
        /// The broadcaster being acknowledged.
        to: NodeId,
    },
}

/// Static data shared by all node state machines of one run.
#[derive(Debug)]
struct Shared {
    p: f64,
    pairs_per_round: u64,
    num_rounds: u32,
    accept_shorter: bool,
    /// Transmission power per length class; rounds past the top class
    /// (the extra rounds) repeat its entry.
    round_powers: Vec<f64>,
    /// `[2^{r-1}, 2^r)` windows per length class.
    round_windows: Vec<(f64, f64)>,
}

impl Shared {
    /// The table index of the round that `slot` belongs to: two slots
    /// per pair, and every round past the top class reads the top
    /// class's entry. Only the slots that transmit or receive read it.
    fn round_of(&self, slot: u64) -> usize {
        let r = slot / 2 / self.pairs_per_round;
        (r as usize).min(self.round_powers.len() - 1)
    }

    /// The first field in which a restored table differs from the one
    /// this configuration and instance derive, `derived`, named with
    /// both values, or both lengths for a table of another size.
    #[cfg(feature = "serde")]
    fn first_difference(&self, derived: &Shared) -> Option<String> {
        fn value<T: PartialEq + std::fmt::Debug>(name: &str, got: &T, want: &T) -> Option<String> {
            (got != want).then(|| format!("{name} is {got:?}, this configuration derives {want:?}"))
        }
        fn table<T: PartialEq + std::fmt::Debug>(
            name: &str,
            got: &[T],
            want: &[T],
        ) -> Option<String> {
            if got.len() != want.len() {
                return Some(format!(
                    "{name} has {} entries, this configuration derives {}",
                    got.len(),
                    want.len()
                ));
            }
            let i = got.iter().zip(want).position(|(g, w)| g != w)?;
            Some(format!(
                "{name}[{i}] is {:?}, this configuration derives {:?}",
                got[i], want[i]
            ))
        }
        // Destructured in full, so a new field cannot be left out.
        let Shared {
            p,
            pairs_per_round,
            num_rounds,
            accept_shorter,
            round_powers,
            round_windows,
        } = self;
        value("p", p, &derived.p)
            .or_else(|| value("pairs_per_round", pairs_per_round, &derived.pairs_per_round))
            .or_else(|| value("num_rounds", num_rounds, &derived.num_rounds))
            .or_else(|| value("accept_shorter", accept_shorter, &derived.accept_shorter))
            .or_else(|| table("round_powers", round_powers, &derived.round_powers))
            .or_else(|| table("round_windows", round_windows, &derived.round_windows))
    }
}

/// Per-node state machine (one per node, driven by the simulator).
#[derive(Debug)]
pub struct InitNode {
    shared: Arc<Shared>,
    active: bool,
    participates: bool,
    parent: Option<NodeId>,
    /// Broadcast-slot timestamp of the node's own uplink formation.
    uplink_slot: Option<u64>,
    /// Power used when the uplink formed.
    uplink_power: Option<f64>,
    /// Listener-side optimistic child records: `(child, broadcast slot)`.
    optimistic_children: Vec<(NodeId, u64)>,
    is_broadcaster: bool,
    pending_ack: Option<NodeId>,
}

impl InitNode {
    fn new(shared: Arc<Shared>, participates: bool) -> Self {
        InitNode {
            shared,
            active: participates,
            participates,
            parent: None,
            uplink_slot: None,
            uplink_power: None,
            optimistic_children: Vec::new(),
            is_broadcaster: false,
            pending_ack: None,
        }
    }

    /// Whether this node is still active (unconnected).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The parent chosen when the node deactivated.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }
}

impl Protocol for InitNode {
    type Msg = InitMsg;

    fn begin_slot(&mut self, _node: NodeId, slot: u64, rng: &mut StdRng) -> Action<InitMsg> {
        if !self.active {
            // Connected and masked-out nodes never act again: retire.
            return Action::SleepUntil(u64::MAX);
        }
        if slot % 2 == 0 {
            // First slot of the pair: choose a role.
            self.pending_ack = None;
            self.is_broadcaster = rng.gen_bool(self.shared.p);
            if self.is_broadcaster {
                Action::Transmit {
                    power: self.shared.round_powers[self.shared.round_of(slot)],
                    msg: InitMsg::Broadcast,
                }
            } else {
                Action::Listen
            }
        } else if self.is_broadcaster {
            // Second slot: broadcasters listen for acknowledgments.
            Action::Listen
        } else if let Some(target) = self.pending_ack {
            Action::Transmit {
                power: self.shared.round_powers[self.shared.round_of(slot)],
                msg: InitMsg::Ack { to: target },
            }
        } else {
            Action::Sleep
        }
    }

    fn end_slot(
        &mut self,
        node: NodeId,
        slot: u64,
        outcome: SlotOutcome<InitMsg>,
        rng: &mut StdRng,
    ) {
        if !self.active {
            return;
        }
        match (slot % 2, outcome) {
            (
                0,
                SlotOutcome::Received(Reception {
                    from,
                    msg: InitMsg::Broadcast,
                    distance,
                    ..
                }),
            ) => {
                let (lo, hi) = self.shared.round_windows[self.shared.round_of(slot)];
                let in_window = distance < hi && (self.shared.accept_shorter || distance >= lo);
                if in_window && rng.gen_bool(self.shared.p) {
                    // Optimistically store the link pair (paper: listener
                    // may store a stray link; cleanup happens later).
                    self.pending_ack = Some(from);
                    self.optimistic_children.push((from, slot));
                }
            }
            (
                1,
                SlotOutcome::Received(Reception {
                    from,
                    msg: InitMsg::Ack { to },
                    ..
                }),
            ) if self.is_broadcaster && to == node => {
                // Connected: `from` (the acknowledger) is the parent.
                self.active = false;
                self.parent = Some(from);
                self.uplink_slot = Some(slot - 1);
                self.uplink_power = Some(self.shared.round_powers[self.shared.round_of(slot)]);
            }
            _ => {}
        }
    }
}

/// Raw result of an `Init` run over a participant subset.
#[derive(Clone, Debug)]
pub struct InitRun {
    /// Parent per node; `None` for non-participants and for the root.
    pub parents: Vec<Option<NodeId>>,
    /// The participating nodes (ascending).
    pub participants: Vec<NodeId>,
    /// The surviving active node (tree root).
    pub root: NodeId,
    /// Per node, its uplink to `parents[u]` as it formed: the
    /// broadcast-slot timestamp and the round's uniform power (its
    /// acknowledgment used the same power); `None` where `parents` is.
    pub uplinks: Vec<Option<(u64, f64)>>,
    /// Total simulated slots.
    pub slots_used: u64,
    /// Rounds executed (including extra repetitions of the top class).
    pub rounds_used: u32,
    /// Listener-side optimistic records that never became real links
    /// (the "stray links" of §6's remark).
    pub stray_records: usize,
}

impl InitRun {
    /// Each formed aggregation link (child → parent) with its
    /// `(timestamp, power)`, in ascending link order.
    pub(crate) fn formed_links(&self) -> impl Iterator<Item = (Link, (u64, f64))> + '_ {
        let up = self.parents.iter().zip(&self.uplinks).enumerate();
        up.filter_map(|(u, (&p, &record))| Some((Link::new(u, p?), record?)))
    }

    /// The aggregation links (child → parent) of the formed tree, in
    /// deterministic (sorted) order.
    pub fn aggregation_links(&self) -> sinr_links::LinkSet {
        self.formed_links().map(|(l, _)| l).collect()
    }

    /// The explicit power assignment covering both directions of every
    /// formed link (ack uses the same round power as its broadcast).
    pub fn power_assignment(&self) -> PowerAssignment {
        let both = self
            .formed_links()
            .flat_map(|(l, (_, p))| [(l, p), (l.dual(), p)]);
        PowerAssignment::explicit(both.collect()).expect("round powers are positive")
    }
}

/// Full-instance result of `Init`: the bi-tree of Theorem 2 plus the
/// raw run data.
#[derive(Clone, Debug)]
pub struct InitOutcome {
    /// The converge-cast tree.
    pub tree: InTree,
    /// The bi-tree with the (compacted) timestamp schedule.
    pub bitree: BiTree,
    /// The aggregation schedule (compacted timestamps).
    pub schedule: Schedule,
    /// Raw run data (slots, powers, strays).
    pub run: InitRun,
}

/// Number of slot-pairs per round for an instance of `n` participants.
fn pairs_per_round(cfg: &InitConfig, n: usize) -> u64 {
    let log_n = (n.max(2) as f64).log2();
    (cfg.lambda1 * log_n).ceil().max(1.0) as u64
}

/// Runs `Init` over the nodes of `instance` flagged in `active_mask`.
///
/// Non-participants sleep for the whole run (they model nodes that have
/// already dropped out of `TreeViaCapacity` iterations). The formed
/// structure spans exactly the participants.
///
/// # Errors
///
/// - [`CoreError::InvalidConfig`] for bad knobs or an empty mask;
/// - [`CoreError::ConvergenceFailure`] if more than one active node
///   remains after all scheduled and extra rounds.
pub fn run_init_on(
    params: &SinrParams,
    instance: &Instance,
    active_mask: &[bool],
    cfg: &InitConfig,
    seed: u64,
) -> Result<InitRun> {
    let setup = match prepare_init(params, instance, active_mask, cfg)? {
        Prepared::Trivial(run) => return Ok(*run),
        Prepared::Ready(setup) => setup,
    };
    let mut engine = setup.build_engine(params, instance, active_mask, cfg.backend, seed);
    engine.run_until(setup.max_slots, one_active);
    harvest(&engine, &setup)
}

/// The stopping criterion of the simulation driver: at most one node
/// still active. Globally visible to the driver only — nodes never see
/// it (§6's model).
///
/// An active node never declares dormancy, so every active node is
/// awake and counting the awake list is exact, in `O(awake)`. A node
/// that connected in the slot just run is still awake (it retires at
/// its next `begin_slot`), which is why the rule reads states rather
/// than the length of the awake list.
fn one_active(engine: &Engine<'_, InitNode>) -> bool {
    engine
        .awake_nodes()
        .filter(|(_, n)| n.is_active())
        .nth(1)
        .is_none()
}

/// Everything `Init` derives from its inputs before the simulation
/// starts: the participant set, the per-run shared tables, and the
/// slot budget.
struct InitSetup {
    participants: Vec<NodeId>,
    shared: Arc<Shared>,
    max_slots: u64,
}

/// Outcome of validating and pre-computing an `Init` run.
enum Prepared {
    /// A single participant forms the tree trivially; no simulation.
    Trivial(Box<InitRun>),
    /// A real run with its derived setup.
    Ready(InitSetup),
}

fn prepare_init(
    params: &SinrParams,
    instance: &Instance,
    active_mask: &[bool],
    cfg: &InitConfig,
) -> Result<Prepared> {
    cfg.validate()?;
    if active_mask.len() != instance.len() {
        return Err(CoreError::InvalidConfig {
            name: "active_mask",
            reason: "mask length must equal instance size",
        });
    }
    let participants: Vec<NodeId> = (0..instance.len()).filter(|&i| active_mask[i]).collect();
    if participants.is_empty() {
        return Err(CoreError::InvalidConfig {
            name: "active_mask",
            reason: "at least one node must participate",
        });
    }
    if participants.len() == 1 {
        let mut parents = vec![None; instance.len()];
        parents[participants[0]] = None;
        return Ok(Prepared::Trivial(Box::new(InitRun {
            parents,
            root: participants[0],
            participants,
            uplinks: vec![None; instance.len()],
            slots_used: 0,
            rounds_used: 0,
            stray_records: 0,
        })));
    }

    // Length classes from the participant diameter (tighter than the
    // full instance when the mask has shrunk).
    let points: Vec<Point> = participants.iter().map(|&u| instance.position(u)).collect();
    let delta = extremes::diameter(&points);
    // The class of the diameter itself: the top window [2^{r-1}, 2^r)
    // must contain Δ even when Δ is an exact power of two.
    let num_classes = sinr_geom::Instance::length_class_of(delta);

    let ppr = pairs_per_round(cfg, participants.len());
    let total_rounds = num_classes + cfg.extra_rounds_cap;
    // One entry per class; `Shared::round_of` sends the extra rounds to
    // the top one.
    let (round_powers, round_windows) = (1..=num_classes)
        .map(|class| {
            let hi = 2f64.powi(class as i32);
            (params.min_power_for_length(hi), (hi / 2.0, hi))
        })
        .unzip();
    let shared = Arc::new(Shared {
        p: cfg.p,
        pairs_per_round: ppr,
        num_rounds: total_rounds,
        accept_shorter: cfg.accept_shorter,
        round_powers,
        round_windows,
    });
    Ok(Prepared::Ready(InitSetup {
        participants,
        shared,
        max_slots: 2 * ppr * total_rounds as u64,
    }))
}

impl InitSetup {
    fn build_engine<'a>(
        &self,
        params: &'a SinrParams,
        instance: &'a Instance,
        active_mask: &[bool],
        backend: EngineBackend,
        seed: u64,
    ) -> Engine<'a, InitNode> {
        Engine::with_backend(
            params,
            instance,
            |id| InitNode::new(Arc::clone(&self.shared), active_mask[id]),
            seed,
            backend,
        )
    }
}

/// Extracts an [`InitRun`] from a finished engine: parents, link
/// timestamps/powers, and the stray-record count.
fn harvest(engine: &Engine<'_, InitNode>, setup: &InitSetup) -> Result<InitRun> {
    let slots_used = engine.slot();
    let total_rounds = setup.shared.num_rounds;
    let ppr = setup.shared.pairs_per_round;

    let actives: Vec<NodeId> = engine
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, n)| n.is_active())
        .map(|(i, _)| i)
        .collect();
    if actives.len() != 1 {
        return Err(CoreError::ConvergenceFailure {
            phase: "init",
            detail: format!(
                "{} active nodes remain after {} rounds ({} slots)",
                actives.len(),
                total_rounds,
                slots_used
            ),
        });
    }
    let root = actives[0];

    let mut parents = vec![None; engine.instance().len()];
    let mut uplinks = vec![None; engine.instance().len()];
    for (id, node) in engine.nodes().iter().enumerate() {
        if !node.participates {
            continue;
        }
        if let Some(p) = node.parent {
            parents[id] = Some(p);
            uplinks[id] = Some((
                node.uplink_slot.expect("connected nodes have a timestamp"),
                node.uplink_power
                    .expect("connected nodes record their power"),
            ));
        }
    }

    // Stray records: listener-side optimism that never became a link.
    let mut stray_records = 0;
    for (id, node) in engine.nodes().iter().enumerate() {
        for &(child, bslot) in &node.optimistic_children {
            let confirmed =
                parents[child] == Some(id) && uplinks[child].is_some_and(|(slot, _)| slot == bslot);
            if !confirmed {
                stray_records += 1;
            }
        }
    }

    Ok(InitRun {
        parents,
        participants: setup.participants.clone(),
        root,
        uplinks,
        slots_used,
        rounds_used: ((slots_used / 2).div_ceil(ppr).max(1)) as u32,
        stray_records,
    })
}

/// Runs `Init` over the whole instance and assembles the bi-tree of
/// Theorem 2.
///
/// # Errors
///
/// Propagates [`run_init_on`] errors; tree/schedule assembly errors
/// indicate a bug and are converted to [`CoreError::Link`].
///
/// # Example
///
/// ```
/// use sinr_connectivity::init::{run_init, InitConfig};
/// use sinr_geom::gen;
/// use sinr_phy::SinrParams;
///
/// let params = SinrParams::default();
/// let inst = gen::uniform_square(12, 1.5, 3)?;
/// let out = run_init(&params, &inst, &InitConfig::default(), 7)?;
/// // A spanning converge-cast tree: n − 1 links, timestamp schedule.
/// assert_eq!(out.tree.aggregation_links().len(), 11);
/// assert!(out.schedule.num_slots() > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_init(
    params: &SinrParams,
    instance: &Instance,
    cfg: &InitConfig,
    seed: u64,
) -> Result<InitOutcome> {
    let mask = vec![true; instance.len()];
    let run = run_init_on(params, instance, &mask, cfg, seed)?;
    assemble_outcome(run)
}

/// Builds the tree / schedule / bi-tree of Theorem 2 from a raw run.
fn assemble_outcome(run: InitRun) -> Result<InitOutcome> {
    let tree = InTree::from_parents(run.parents.clone())?;
    let mut schedule = Schedule::from_pairs(run.formed_links().map(|(l, (s, _))| (l, s as usize)))?;
    schedule.compact();
    let bitree = BiTree::new(tree.clone(), schedule.clone())?;
    Ok(InitOutcome {
        tree,
        bitree,
        schedule,
        run,
    })
}

// ------------------------------------------------------------------
// Snapshot / replay (feature `serde`).
// ------------------------------------------------------------------

/// Shim serde impls for [`InitNode`]: every node serializes its shared
/// tables inline and rebuilds a private `Arc<Shared>` on restore.
/// `Shared` is immutable for the whole run, so losing the sharing
/// changes memory layout only — never behavior.
#[cfg(feature = "serde")]
mod serde_impls {
    use std::sync::Arc;

    use serde::{Deserialize, Error, Serialize, Value};

    use super::{InitNode, Shared};

    fn field<'v>(entries: &'v [(String, Value)], name: &str) -> Result<&'v Value, Error> {
        entries
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| Error::custom(format!("missing field `{name}`")))
    }

    fn entries_of<'v>(value: &'v Value, what: &str) -> Result<&'v [(String, Value)], Error> {
        match value {
            Value::Map(entries) => Ok(entries),
            other => Err(Error::custom(format!("expected {what} map, got {other:?}"))),
        }
    }

    impl Serialize for Shared {
        fn to_value(&self) -> Value {
            Value::Map(vec![
                ("p".into(), self.p.to_value()),
                ("pairs_per_round".into(), self.pairs_per_round.to_value()),
                ("num_rounds".into(), self.num_rounds.to_value()),
                ("accept_shorter".into(), self.accept_shorter.to_value()),
                ("round_powers".into(), self.round_powers.to_value()),
                ("round_windows".into(), self.round_windows.to_value()),
            ])
        }
    }

    impl Deserialize for Shared {
        fn from_value(value: &Value) -> Result<Self, Error> {
            let e = entries_of(value, "Shared")?;
            Ok(Shared {
                p: Deserialize::from_value(field(e, "p")?)?,
                pairs_per_round: Deserialize::from_value(field(e, "pairs_per_round")?)?,
                num_rounds: Deserialize::from_value(field(e, "num_rounds")?)?,
                accept_shorter: Deserialize::from_value(field(e, "accept_shorter")?)?,
                round_powers: Deserialize::from_value(field(e, "round_powers")?)?,
                round_windows: Deserialize::from_value(field(e, "round_windows")?)?,
            })
        }
    }

    impl Serialize for InitNode {
        fn to_value(&self) -> Value {
            Value::Map(vec![
                ("shared".into(), self.shared.to_value()),
                ("active".into(), self.active.to_value()),
                ("participates".into(), self.participates.to_value()),
                ("parent".into(), self.parent.to_value()),
                ("uplink_slot".into(), self.uplink_slot.to_value()),
                ("uplink_power".into(), self.uplink_power.to_value()),
                (
                    "optimistic_children".into(),
                    self.optimistic_children.to_value(),
                ),
                ("is_broadcaster".into(), self.is_broadcaster.to_value()),
                ("pending_ack".into(), self.pending_ack.to_value()),
            ])
        }
    }

    impl Deserialize for InitNode {
        fn from_value(value: &Value) -> Result<Self, Error> {
            let e = entries_of(value, "InitNode")?;
            Ok(InitNode {
                shared: Arc::new(Shared::from_value(field(e, "shared")?)?),
                active: Deserialize::from_value(field(e, "active")?)?,
                participates: Deserialize::from_value(field(e, "participates")?)?,
                parent: Deserialize::from_value(field(e, "parent")?)?,
                uplink_slot: Deserialize::from_value(field(e, "uplink_slot")?)?,
                uplink_power: Deserialize::from_value(field(e, "uplink_power")?)?,
                optimistic_children: Deserialize::from_value(field(e, "optimistic_children")?)?,
                is_broadcaster: Deserialize::from_value(field(e, "is_broadcaster")?)?,
                pending_ack: Deserialize::from_value(field(e, "pending_ack")?)?,
            })
        }
    }
}

/// Result of a snapshot-producing `Init` run (feature `serde`).
#[cfg(feature = "serde")]
#[derive(Clone, Debug)]
pub struct InitReplay {
    /// The assembled outcome — identical to [`run_init`]'s for the same
    /// inputs (the snapshot machinery is observational).
    pub outcome: InitOutcome,
    /// The engine state at the requested slot, if the run was still in
    /// progress there (`None` when it had already converged or the
    /// request lies past the slot budget).
    pub snapshot: Option<sinr_sim::snapshot::EngineSnapshot>,
    /// Canonical fingerprint of the *final* engine state
    /// ([`sinr_sim::snapshot::hash_value`] of the end-of-run snapshot):
    /// the value a resumed run must reproduce bit-for-bit.
    pub tail_fnv: u64,
}

/// [`run_init`] that additionally captures the engine state at slot
/// `snapshot_at` and fingerprints the final state (feature `serde`).
///
/// The run itself is bit-identical to [`run_init`]: the slot loop is
/// merely split at `snapshot_at`, and the engine re-checks the stopping
/// criterion after every slot in both halves exactly as the unsplit
/// loop does.
///
/// # Errors
///
/// Propagates [`run_init`]'s errors; additionally rejects single-node
/// instances, which have no simulation to snapshot.
#[cfg(feature = "serde")]
pub fn run_init_with_snapshot(
    params: &SinrParams,
    instance: &Instance,
    cfg: &InitConfig,
    seed: u64,
    snapshot_at: u64,
) -> Result<InitReplay> {
    let mask = vec![true; instance.len()];
    let setup = match prepare_init(params, instance, &mask, cfg)? {
        Prepared::Trivial(_) => {
            return Err(CoreError::InvalidConfig {
                name: "snapshot_at",
                reason: "single-node runs have no simulation to snapshot",
            })
        }
        Prepared::Ready(setup) => setup,
    };
    let mut engine = setup.build_engine(params, instance, &mask, cfg.backend, seed);
    engine.run_until(snapshot_at.min(setup.max_slots), one_active);
    let snapshot =
        (engine.slot() == snapshot_at && !one_active(&engine)).then(|| engine.snapshot());
    engine.run_until(setup.max_slots - engine.slot(), one_active);
    let tail_fnv = tail_fingerprint(&engine);
    let run = harvest(&engine, &setup)?;
    Ok(InitReplay {
        outcome: assemble_outcome(run)?,
        snapshot,
        tail_fnv,
    })
}

/// Resumes a full-instance `Init` run from a mid-run snapshot and
/// finishes it (feature `serde`), returning the assembled outcome and
/// the tail fingerprint — bit-identical to the original run's when
/// `params`, `instance` and `cfg` match the snapshotting run (the
/// backend may differ: all backends produce the same bytes).
///
/// # Errors
///
/// [`CoreError::Snapshot`] when the snapshot does not deserialize, when
/// its `Init` table differs from the one `cfg` and `instance` derive
/// here (the message names the first differing field with both values,
/// or both lengths), or when it claims more slots than the
/// configuration's budget.
#[cfg(feature = "serde")]
pub fn resume_init(
    params: &SinrParams,
    instance: &Instance,
    cfg: &InitConfig,
    snapshot: &sinr_sim::snapshot::EngineSnapshot,
) -> Result<(InitOutcome, u64)> {
    let mask = vec![true; instance.len()];
    let setup = match prepare_init(params, instance, &mask, cfg)? {
        Prepared::Trivial(_) => {
            return Err(CoreError::Snapshot {
                detail: "single-node runs never produce snapshots".into(),
            })
        }
        Prepared::Ready(setup) => setup,
    };
    let mut engine: Engine<'_, InitNode> = Engine::restore(params, instance, snapshot, cfg.backend)
        .map_err(|e| CoreError::Snapshot {
            detail: e.to_string(),
        })?;
    if engine.slot() > setup.max_slots {
        return Err(CoreError::Snapshot {
            detail: format!(
                "snapshot slot {} exceeds the configuration's budget of {} slots",
                engine.slot(),
                setup.max_slots
            ),
        });
    }
    // The restored nodes embed the snapshotting run's shared tables;
    // they must match what `cfg` + `instance` re-derive here, or the
    // resumed tail would silently diverge from the original. A file of
    // another build can differ in layout alone, so the message names
    // the field rather than guess a cause.
    if let Some(diff) = engine
        .nodes()
        .iter()
        .find_map(|n| n.shared.first_difference(&setup.shared))
    {
        return Err(CoreError::Snapshot {
            detail: format!("the snapshot's Init table differs from the one derived here: {diff}"),
        });
    }
    check_restored(&engine)?;
    engine.run_until(setup.max_slots - engine.slot(), one_active);
    let tail_fnv = tail_fingerprint(&engine);
    let run = harvest(&engine, &setup)?;
    Ok((assemble_outcome(run)?, tail_fnv))
}

/// Checks what [`harvest`] relies on in restored nodes: every id names
/// another node, and every parent comes with a power and an uplink slot
/// before the snapshot's.
#[cfg(feature = "serde")]
fn check_restored(engine: &Engine<'_, InitNode>) -> Result<()> {
    let n = engine.nodes().len();
    for (id, node) in engine.nodes().iter().enumerate() {
        let children = node.optimistic_children.iter().map(|&(c, _)| c);
        let ids_ok = node
            .parent
            .iter()
            .chain(&node.pending_ack)
            .copied()
            .chain(children)
            .all(|other| other < n && other != id);
        let uplink_ok = node.parent.is_none()
            || (node.uplink_power.is_some() && node.uplink_slot.is_some_and(|s| s < engine.slot()));
        if !(ids_ok && uplink_ok) {
            return Err(CoreError::Snapshot {
                detail: format!(
                    "node {id} of {n} names a node out of range or itself, or has a \
                     parent without an uplink slot and power"
                ),
            });
        }
    }
    Ok(())
}

#[cfg(feature = "serde")]
fn tail_fingerprint(engine: &Engine<'_, InitNode>) -> u64 {
    sinr_sim::snapshot::hash_value(&serde::Serialize::to_value(&engine.snapshot()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geom::gen;
    use sinr_phy::feasibility;

    fn params() -> SinrParams {
        SinrParams::default()
    }

    #[test]
    fn config_validation() {
        assert!(InitConfig::default().validate().is_ok());
        assert!(InitConfig {
            p: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(InitConfig {
            p: 0.6,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(InitConfig {
            lambda1: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn theoretical_constants_are_tiny() {
        let t = InitConfig::theoretical(&params());
        assert!(t.p < 1e-3);
        assert!(t.lambda1 > 1e6);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn single_node_is_trivial() {
        let inst = gen::line(1).unwrap();
        let out = run_init(&params(), &inst, &InitConfig::default(), 0).unwrap();
        assert_eq!(out.tree.root(), 0);
        assert_eq!(out.run.slots_used, 0);
        assert_eq!(out.schedule.num_slots(), 0);
    }

    #[test]
    fn two_nodes_connect() {
        let inst = gen::line(2).unwrap();
        let out = run_init(&params(), &inst, &InitConfig::default(), 1).unwrap();
        assert_eq!(out.tree.len(), 2);
        assert_eq!(out.run.uplinks.iter().flatten().count(), 1);
        assert!(out.run.slots_used > 0);
    }

    #[test]
    fn uniform_instance_builds_spanning_bitree() {
        let p = params();
        for seed in 0..3u64 {
            let inst = gen::uniform_square(40, 1.5, seed).unwrap();
            let out = run_init(&p, &inst, &InitConfig::default(), seed).unwrap();
            // Spanning: n−1 links, every node reaches the root.
            assert_eq!(out.run.uplinks.iter().flatten().count(), inst.len() - 1);
            for u in 0..inst.len() {
                let path = out.tree.path_to_root(u);
                assert_eq!(*path.last().unwrap(), out.tree.root());
            }
            // The timestamp schedule is feasible under the powers used.
            let power = out.run.power_assignment();
            feasibility::validate_schedule(&p, &inst, &out.schedule, &power)
                .expect("timestamp schedule must replay feasibly");
        }
    }

    #[test]
    fn subset_run_spans_only_participants() {
        let p = params();
        let inst = gen::uniform_square(30, 1.5, 3).unwrap();
        let mut mask = vec![false; inst.len()];
        for i in (0..inst.len()).step_by(2) {
            mask[i] = true;
        }
        let run = run_init_on(&p, &inst, &mask, &InitConfig::default(), 9).unwrap();
        assert!(mask[run.root]);
        for (id, parent) in run.parents.iter().enumerate() {
            if !mask[id] {
                assert!(parent.is_none(), "non-participant {id} got a parent");
            } else if id != run.root {
                assert!(parent.is_some(), "participant {id} stayed unconnected");
                assert!(mask[parent.unwrap()], "parent must participate");
            }
        }
    }

    #[test]
    fn chain_instance_uses_multiple_rounds() {
        let p = params();
        let inst = gen::exponential_chain(10, 2.0, 0).unwrap();
        let out = run_init(&p, &inst, &InitConfig::default(), 5).unwrap();
        assert!(
            out.run.rounds_used > 1,
            "Δ ≫ 1 needs several length classes"
        );
        assert_eq!(out.run.uplinks.iter().flatten().count(), 9);
    }

    #[test]
    fn deterministic_in_seed() {
        let p = params();
        let inst = gen::uniform_square(25, 1.5, 7).unwrap();
        let a = run_init(&p, &inst, &InitConfig::default(), 11).unwrap();
        let b = run_init(&p, &inst, &InitConfig::default(), 11).unwrap();
        assert_eq!(a.run.parents, b.run.parents);
        assert_eq!(a.run.slots_used, b.run.slots_used);
    }

    #[test]
    fn mask_length_mismatch_rejected() {
        let p = params();
        let inst = gen::line(4).unwrap();
        let e = run_init_on(&p, &inst, &[true; 3], &InitConfig::default(), 0);
        assert!(matches!(e, Err(CoreError::InvalidConfig { .. })));
    }

    #[test]
    fn empty_mask_rejected() {
        let p = params();
        let inst = gen::line(4).unwrap();
        let e = run_init_on(&p, &inst, &[false; 4], &InitConfig::default(), 0);
        assert!(matches!(e, Err(CoreError::InvalidConfig { .. })));
    }

    /// Snapshot a run mid-flight, resume it, and the tail — parents,
    /// slot count, and the canonical end-of-run fingerprint — must be
    /// bit-identical to the uninterrupted run's. Also exercised with a
    /// different backend on the resumed half (the determinism contract
    /// makes backends interchangeable mid-run).
    #[cfg(feature = "serde")]
    #[test]
    fn snapshot_resume_reproduces_the_tail() {
        let p = params();
        let inst = gen::uniform_square(25, 1.5, 7).unwrap();
        let cfg = InitConfig::default();
        let baseline = run_init(&p, &inst, &cfg, 11).unwrap();

        let replay = run_init_with_snapshot(&p, &inst, &cfg, 11, 8).unwrap();
        assert_eq!(replay.outcome.run.parents, baseline.run.parents);
        assert_eq!(replay.outcome.run.slots_used, baseline.run.slots_used);
        let snap = replay.snapshot.expect("slot 8 is mid-run");

        for backend in [
            sinr_sim::EngineBackend::Grid,
            sinr_sim::EngineBackend::Naive,
        ] {
            let resumed_cfg = InitConfig {
                backend,
                ..cfg.clone()
            };
            let (outcome, tail) = resume_init(&p, &inst, &resumed_cfg, &snap).unwrap();
            assert_eq!(tail, replay.tail_fnv, "{backend:?}: tail fingerprint");
            assert_eq!(outcome.run.parents, baseline.run.parents);
            assert_eq!(outcome.run.slots_used, baseline.run.slots_used);
        }
    }

    /// A snapshot resumed under the wrong knobs or instance is refused
    /// instead of silently diverging.
    #[cfg(feature = "serde")]
    #[test]
    fn snapshot_resume_rejects_mismatches() {
        let p = params();
        let inst = gen::uniform_square(25, 1.5, 7).unwrap();
        let cfg = InitConfig::default();
        let snap = run_init_with_snapshot(&p, &inst, &cfg, 11, 8)
            .unwrap()
            .snapshot
            .unwrap();

        let other_cfg = InitConfig {
            p: 0.2,
            ..cfg.clone()
        };
        assert!(matches!(
            resume_init(&p, &inst, &other_cfg, &snap),
            Err(CoreError::Snapshot { .. })
        ));

        let other_inst = gen::uniform_square(24, 1.5, 7).unwrap();
        assert!(matches!(
            resume_init(&p, &other_inst, &cfg, &snap),
            Err(CoreError::Snapshot { .. })
        ));
    }

    /// A snapshot whose `Init` table was edited — a longer per-round
    /// power table, as a file written before the table held one entry
    /// per length class, or another `p` — is refused with the first
    /// differing field and both lengths or values named.
    #[cfg(feature = "serde")]
    #[test]
    fn snapshot_resume_names_the_differing_table_field() {
        use serde::Value;
        let p = params();
        let inst = gen::uniform_square(16, 1.5, 7).unwrap();
        let cfg = InitConfig::default();
        let snap = run_init_with_snapshot(&p, &inst, &cfg, 11, 6)
            .unwrap()
            .snapshot
            .unwrap();
        let edited = |name: &str, edit: &dyn Fn(&mut Value)| {
            let mut snap = snap.clone();
            for node in &mut snap.nodes {
                let Value::Map(entries) = node else {
                    panic!("a node is a map")
                };
                let (_, Value::Map(shared)) =
                    entries.iter_mut().find(|(k, _)| k == "shared").unwrap()
                else {
                    panic!("the table is a map")
                };
                edit(&mut shared.iter_mut().find(|(k, _)| k == name).unwrap().1);
            }
            match resume_init(&p, &inst, &cfg, &snap) {
                Err(CoreError::Snapshot { detail }) => detail,
                other => panic!("edited {name} resumed: {other:?}"),
            }
        };
        let Ok(Prepared::Ready(setup)) = prepare_init(&p, &inst, &[true; 16], &cfg) else {
            panic!("an n = 16 run is prepared")
        };
        let classes = setup.shared.round_powers.len();
        let detail = edited("round_powers", &|v| {
            let Value::Seq(powers) = v else {
                panic!("the powers are a list")
            };
            let top = powers.last().unwrap().clone();
            powers.resize(264, top);
        });
        assert!(
            detail.ends_with(&format!(
                "round_powers has 264 entries, this configuration derives {classes}"
            )),
            "{detail}"
        );
        let detail = edited("p", &|v| *v = Value::F64(0.25));
        assert!(
            detail.ends_with(&format!(
                "p is 0.25, this configuration derives {:?}",
                cfg.p
            )),
            "{detail}"
        );
    }

    #[test]
    fn ordering_property_holds() {
        // BiTree::new would fail on an ordering violation; explicitly
        // assert slots increase toward the root.
        let p = params();
        let inst = gen::uniform_square(35, 1.5, 2).unwrap();
        let out = run_init(&p, &inst, &InitConfig::default(), 3).unwrap();
        for u in 0..inst.len() {
            if let (Some(pu), Some(gp)) = (
                out.tree.parent(u),
                out.tree.parent(u).and_then(|x| out.tree.parent(x)),
            ) {
                let s_child = out.schedule.slot_of(Link::new(u, pu)).unwrap();
                let s_parent = out.schedule.slot_of(Link::new(pu, gp)).unwrap();
                assert!(s_child < s_parent);
            }
        }
    }
}
