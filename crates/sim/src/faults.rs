//! Deterministic, slot-indexed fault injection (DESIGN.md §13).
//!
//! The paper's protocols assume nodes fail only between phases; this
//! module models the *unannounced* failures of the dynamic setting — a
//! node that silently dies mid-phase ([`FaultEvent::CrashStop`]), a
//! receiver that goes deaf for a window
//! ([`FaultEvent::TransientDeafness`]), a link whose receptions start
//! dropping probabilistically ([`FaultEvent::ReceptionDrop`]), a
//! transmitter whose power degrades ([`FaultEvent::PowerDegrade`]) —
//! as a [`FaultPlan`]: a per-node schedule fixed *before* the run.
//!
//! # Determinism contract
//!
//! A plan is pure data plus pure functions of `(plan seed, node,
//! slot)`: reception-drop rolls are computed by hashing the slot index
//! into a per-node SplitMix64 stream (the same hierarchical
//! seed-splitting discipline as `sinr_bench::ensemble`), **not** by
//! drawing from any stateful RNG. No draw order exists to perturb, so
//! an armed plan yields byte-identical fault traces on every backend
//! and at every thread count — the engine applies every fault on the
//! driving thread (action collection and outcome post-processing),
//! never inside the sharded channel phase. An **empty** armed plan is
//! byte-identical to no plan at all (pinned by the engine's fault
//! gates).

use sinr_geom::NodeId;

/// One scheduled fault for one node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// The node halts at the start of slot `at`: it stops transmitting,
    /// listening and *observing* — its protocol state and RNG stream
    /// are frozen exactly as they were at the end of slot `at - 1`.
    CrashStop {
        /// First slot the node is dead in.
        at: u64,
    },
    /// The node decodes nothing during `from..until` (half-open): every
    /// reception it would have had resolves to
    /// [`SlotOutcome::Idle`](crate::SlotOutcome::Idle) instead.
    TransientDeafness {
        /// First deaf slot.
        from: u64,
        /// First slot hearing is restored (exclusive end).
        until: u64,
    },
    /// From slot `from` on, each reception the node would have had is
    /// independently dropped with probability `prob` (decided by a pure
    /// hash of `(plan seed, node, slot)` — see the module docs).
    ReceptionDrop {
        /// Per-slot drop probability in `[0, 1]`.
        prob: f64,
        /// First affected slot.
        from: u64,
    },
    /// From slot `from` on, every transmission power the node's
    /// protocol chooses is multiplied by `factor` (must be positive and
    /// finite; `< 1` models a degrading amplifier).
    PowerDegrade {
        /// Multiplicative power factor, `> 0` and finite.
        factor: f64,
        /// First affected slot.
        from: u64,
    },
}

/// Compiled per-node fault state: the latest pushed event per category
/// wins, except crash-stop where the *earliest* wins (a node cannot
/// die twice).
#[derive(Clone, Copy, Debug, PartialEq)]
struct NodeFaults {
    crash_at: Option<u64>,
    deaf_from: u64,
    deaf_until: u64,
    drop_prob: f64,
    drop_from: u64,
    degrade_factor: f64,
    degrade_from: u64,
}

impl NodeFaults {
    const NONE: NodeFaults = NodeFaults {
        crash_at: None,
        deaf_from: 0,
        deaf_until: 0,
        drop_prob: 0.0,
        drop_from: 0,
        degrade_factor: 1.0,
        degrade_from: 0,
    };

    fn is_none(&self) -> bool {
        *self == NodeFaults::NONE
    }
}

/// A deterministic, slot-indexed fault schedule for every node of one
/// engine (see the module docs for the determinism contract).
///
/// Build one with [`FaultPlan::new`] + [`push`](FaultPlan::push), or
/// draw a random mix with [`FaultPlan::random`], then arm it on an
/// engine via [`Engine::arm_faults`](crate::Engine::arm_faults).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    nodes: Vec<NodeFaults>,
    events: usize,
}

/// SplitMix64 finalizer-based stream splitting — the exact mixer
/// `sinr_bench::ensemble::stream_seed` uses, duplicated here (the sim
/// crate sits below bench in the dependency order) and pinned against
/// the same golden value so the two can never drift apart.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a mixed 64-bit word to a uniform f64 in `[0, 1)` (top 53 bits).
pub fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Domain-separation tags so the drop-roll stream, the random-mix
/// draws and any future consumer of the plan seed never collide.
const TAG_DROP_ROLL: u64 = 0x5EED_0001;
const TAG_RANDOM_MIX: u64 = 0x5EED_0002;

impl FaultPlan {
    /// An empty plan (no faults) for `n` nodes. `seed` feeds only the
    /// reception-drop rolls and [`random`](FaultPlan::random) draws.
    pub fn new(n: usize, seed: u64) -> Self {
        FaultPlan {
            seed,
            nodes: vec![NodeFaults::NONE; n],
            events: 0,
        }
    }

    /// Schedules `event` for `node`. Within one category the latest
    /// push wins, except [`FaultEvent::CrashStop`] where the earliest
    /// `at` wins.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range, a drop probability is outside
    /// `[0, 1]`, a degrade factor is non-positive or non-finite, or a
    /// deafness window is empty (`until <= from`).
    pub fn push(&mut self, node: NodeId, event: FaultEvent) {
        let f = &mut self.nodes[node];
        match event {
            FaultEvent::CrashStop { at } => {
                f.crash_at = Some(f.crash_at.map_or(at, |prev| prev.min(at)));
            }
            FaultEvent::TransientDeafness { from, until } => {
                assert!(until > from, "empty deafness window {from}..{until}");
                f.deaf_from = from;
                f.deaf_until = until;
            }
            FaultEvent::ReceptionDrop { prob, from } => {
                assert!(
                    (0.0..=1.0).contains(&prob),
                    "drop probability {prob} outside [0, 1]"
                );
                f.drop_prob = prob;
                f.drop_from = from;
            }
            FaultEvent::PowerDegrade { factor, from } => {
                assert!(
                    factor.is_finite() && factor > 0.0,
                    "degrade factor {factor} must be positive and finite"
                );
                f.degrade_factor = factor;
                f.degrade_from = from;
            }
        }
        self.events += 1;
    }

    /// Draws a random fault mix: for each node, each category fires
    /// independently with its [`FaultMix`] probability, with onset
    /// slots uniform in `[0, horizon)`. Entirely determined by
    /// `(seed, mix)` — byte-identical everywhere.
    pub fn random(n: usize, seed: u64, mix: &FaultMix) -> Self {
        let mut plan = FaultPlan::new(n, seed);
        let horizon = mix.horizon.max(1);
        for node in 0..n {
            let node_stream = stream_seed(seed ^ TAG_RANDOM_MIX, node as u64);
            let draw = |k: u64| stream_seed(node_stream, k);
            if unit_f64(draw(0)) < mix.crash {
                let at = draw(1) % horizon;
                plan.push(node, FaultEvent::CrashStop { at });
            }
            if unit_f64(draw(2)) < mix.deafness {
                let from = draw(3) % horizon;
                let len = 1 + draw(4) % horizon;
                plan.push(
                    node,
                    FaultEvent::TransientDeafness {
                        from,
                        until: from + len,
                    },
                );
            }
            if unit_f64(draw(5)) < mix.drop {
                let prob = 0.1 + 0.8 * unit_f64(draw(6));
                let from = draw(7) % horizon;
                plan.push(node, FaultEvent::ReceptionDrop { prob, from });
            }
            if unit_f64(draw(8)) < mix.degrade {
                let factor = 0.2 + 0.6 * unit_f64(draw(9));
                let from = draw(10) % horizon;
                plan.push(node, FaultEvent::PowerDegrade { factor, from });
            }
        }
        plan
    }

    /// Number of nodes the plan covers (must match the engine's).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the plan schedules no fault at all. An armed empty plan
    /// is byte-identical to no plan.
    pub fn is_empty(&self) -> bool {
        self.nodes.iter().all(NodeFaults::is_none)
    }

    /// Total events pushed (including category overwrites).
    pub fn events(&self) -> usize {
        self.events
    }

    /// The plan seed (drop rolls and random draws derive from it).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether `node` is dead in `slot`.
    #[inline]
    pub fn crashed(&self, node: NodeId, slot: u64) -> bool {
        matches!(self.nodes[node].crash_at, Some(at) if slot >= at)
    }

    /// Whether `slot` is the exact slot `node` dies in (trace boundary).
    #[inline]
    pub fn crash_boundary(&self, node: NodeId, slot: u64) -> bool {
        self.nodes[node].crash_at == Some(slot)
    }

    /// Whether `node` is deaf in `slot`.
    #[inline]
    pub fn deaf(&self, node: NodeId, slot: u64) -> bool {
        let f = &self.nodes[node];
        slot >= f.deaf_from && slot < f.deaf_until
    }

    /// Whether `slot` is the first slot of `node`'s deafness window
    /// (trace boundary).
    #[inline]
    pub fn deaf_boundary(&self, node: NodeId, slot: u64) -> bool {
        let f = &self.nodes[node];
        f.deaf_until > f.deaf_from && slot == f.deaf_from
    }

    /// Whether `slot` is the first slot of `node`'s power degrade
    /// (trace boundary).
    #[inline]
    pub fn degrade_boundary(&self, node: NodeId, slot: u64) -> bool {
        let f = &self.nodes[node];
        f.degrade_factor != 1.0 && slot == f.degrade_from
    }

    /// The multiplicative power factor for `node` in `slot` (1.0 when
    /// no degrade is active).
    #[inline]
    pub fn power_factor(&self, node: NodeId, slot: u64) -> f64 {
        let f = &self.nodes[node];
        if slot >= f.degrade_from {
            f.degrade_factor
        } else {
            1.0
        }
    }

    /// Whether a reception `node` would have had in `slot` is dropped:
    /// a pure hash roll, no RNG state (see the module docs). Always
    /// false while the drop is inactive or its probability is zero.
    #[inline]
    pub fn drops_reception(&self, node: NodeId, slot: u64) -> bool {
        let f = &self.nodes[node];
        if f.drop_prob <= 0.0 || slot < f.drop_from {
            return false;
        }
        let roll = stream_seed(stream_seed(self.seed ^ TAG_DROP_ROLL, node as u64), slot);
        unit_f64(roll) < f.drop_prob
    }

    /// Whether any node has a reception-affecting fault (deafness or
    /// drop) — lets the engine skip the outcome post-pass entirely.
    #[inline]
    pub fn any_reception_faults(&self) -> bool {
        self.nodes
            .iter()
            .any(|f| f.deaf_until > f.deaf_from || f.drop_prob > 0.0)
    }

    /// Every fault onset the trace reports as `FaultInjected`, as
    /// `(slot, node, kind)` sorted by `(slot, node)`. It applies the
    /// per-slot rule of the all-node loop — a crash-stop at its
    /// boundary; otherwise, unless the node is dead, deafness and then
    /// power-degrade at theirs — at the only slots where a boundary can
    /// fall. The engine emits a slot's entries before any protocol
    /// callback, for awake and dormant nodes alike, so the stream does
    /// not depend on which nodes it steps.
    #[cfg(feature = "trace")]
    pub(crate) fn boundaries(&self) -> Vec<(u64, NodeId, &'static str)> {
        let mut out = Vec::new();
        for (node, f) in self.nodes.iter().enumerate() {
            let mut slots: Vec<u64> = f
                .crash_at
                .into_iter()
                .chain([f.deaf_from, f.degrade_from])
                .collect();
            slots.sort_unstable();
            slots.dedup();
            for slot in slots {
                if self.crashed(node, slot) {
                    if self.crash_boundary(node, slot) {
                        out.push((slot, node, "crash-stop"));
                    }
                    continue;
                }
                if self.deaf_boundary(node, slot) {
                    out.push((slot, node, "deafness"));
                }
                if self.degrade_boundary(node, slot) {
                    out.push((slot, node, "power-degrade"));
                }
            }
        }
        // Stable: keeps each node's order within a slot.
        out.sort_by_key(|&(slot, node, _)| (slot, node));
        out
    }

    /// The slot `node` crashes at, if a crash is scheduled.
    pub fn crash_slot(&self, node: NodeId) -> Option<u64> {
        self.nodes[node].crash_at
    }

    /// The nodes with a crash scheduled strictly before `horizon`, in
    /// ascending id order — the ground-truth kill-set a detector is
    /// measured against.
    pub fn crashed_before(&self, horizon: u64) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&v| matches!(self.nodes[v].crash_at, Some(at) if at < horizon))
            .collect()
    }
}

/// Per-category firing probabilities for [`FaultPlan::random`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultMix {
    /// Probability a node crash-stops.
    pub crash: f64,
    /// Probability a node gets a deafness window.
    pub deafness: f64,
    /// Probability a node gets a reception-drop fault.
    pub drop: f64,
    /// Probability a node gets a power degrade.
    pub degrade: f64,
    /// Onset slots are uniform in `[0, horizon)`.
    pub horizon: u64,
}

impl Default for FaultMix {
    fn default() -> Self {
        FaultMix {
            crash: 0.05,
            deafness: 0.05,
            drop: 0.05,
            degrade: 0.05,
            horizon: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The golden pin shared with `sinr_bench::ensemble::stream_seed`:
    /// if either copy of the mixer drifts, one of the two pins breaks.
    #[test]
    fn stream_seed_matches_the_ensemble_golden_value() {
        assert_eq!(stream_seed(0, 0), 0xe220_a839_7b1d_cdaf);
        assert_ne!(stream_seed(0, 1), stream_seed(0, 2));
        assert_ne!(stream_seed(1, 0), stream_seed(2, 0));
    }

    #[test]
    fn empty_plan_reports_nothing() {
        let plan = FaultPlan::new(8, 42);
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 8);
        assert_eq!(plan.events(), 0);
        for node in 0..8 {
            for slot in 0..64 {
                assert!(!plan.crashed(node, slot));
                assert!(!plan.deaf(node, slot));
                assert!(!plan.drops_reception(node, slot));
                assert_eq!(plan.power_factor(node, slot), 1.0);
            }
        }
        assert!(!plan.any_reception_faults());
        assert!(plan.crashed_before(u64::MAX).is_empty());
    }

    #[test]
    fn crash_is_permanent_and_earliest_wins() {
        let mut plan = FaultPlan::new(3, 0);
        plan.push(1, FaultEvent::CrashStop { at: 10 });
        plan.push(1, FaultEvent::CrashStop { at: 20 });
        plan.push(1, FaultEvent::CrashStop { at: 15 });
        assert!(!plan.crashed(1, 9));
        assert!(plan.crashed(1, 10));
        assert!(plan.crashed(1, 1_000_000));
        assert!(plan.crash_boundary(1, 10));
        assert!(!plan.crash_boundary(1, 11));
        assert_eq!(plan.crash_slot(1), Some(10));
        assert_eq!(plan.crash_slot(0), None);
        assert_eq!(plan.crashed_before(10), Vec::<NodeId>::new());
        assert_eq!(plan.crashed_before(11), vec![1]);
    }

    #[test]
    fn deafness_window_is_half_open() {
        let mut plan = FaultPlan::new(2, 0);
        plan.push(0, FaultEvent::TransientDeafness { from: 5, until: 8 });
        assert!(!plan.deaf(0, 4));
        assert!(plan.deaf(0, 5));
        assert!(plan.deaf(0, 7));
        assert!(!plan.deaf(0, 8));
        assert!(!plan.deaf(1, 6));
        assert!(plan.deaf_boundary(0, 5));
        assert!(!plan.deaf_boundary(0, 6));
        assert!(!plan.deaf_boundary(1, 0), "empty window has no boundary");
        assert!(plan.any_reception_faults());
        assert!(!plan.is_empty());
    }

    #[test]
    fn power_degrade_activates_at_its_slot() {
        let mut plan = FaultPlan::new(2, 0);
        plan.push(
            1,
            FaultEvent::PowerDegrade {
                factor: 0.5,
                from: 3,
            },
        );
        assert_eq!(plan.power_factor(1, 2), 1.0);
        assert_eq!(plan.power_factor(1, 3), 0.5);
        assert_eq!(plan.power_factor(0, 3), 1.0);
        assert!(plan.degrade_boundary(1, 3));
        assert!(!plan.degrade_boundary(1, 4));
        assert!(!plan.degrade_boundary(0, 0), "no degrade, no boundary");
        // A degrade alone is not a reception fault.
        assert!(!plan.any_reception_faults());
    }

    #[test]
    fn drop_rolls_are_pure_functions_of_seed_node_slot() {
        let mut plan = FaultPlan::new(4, 7);
        plan.push(2, FaultEvent::ReceptionDrop { prob: 0.5, from: 0 });
        let rolls: Vec<bool> = (0..256).map(|s| plan.drops_reception(2, s)).collect();
        // Re-querying (any order) gives identical answers.
        for s in (0..256).rev() {
            assert_eq!(plan.drops_reception(2, s), rolls[s as usize]);
        }
        // Roughly half fire at prob 0.5 — the hash is not degenerate.
        let fired = rolls.iter().filter(|&&b| b).count();
        assert!((64..192).contains(&fired), "fired {fired}/256");
        // Other nodes and a different seed roll differently.
        assert!(!plan.drops_reception(1, 0) && !plan.drops_reception(3, 9));
        let mut other = FaultPlan::new(4, 8);
        other.push(2, FaultEvent::ReceptionDrop { prob: 0.5, from: 0 });
        let other_rolls: Vec<bool> = (0..256).map(|s| other.drops_reception(2, s)).collect();
        assert_ne!(rolls, other_rolls);
    }

    #[test]
    fn drop_respects_onset_and_zero_prob() {
        let mut plan = FaultPlan::new(1, 1);
        plan.push(
            0,
            FaultEvent::ReceptionDrop {
                prob: 1.0,
                from: 10,
            },
        );
        assert!(!plan.drops_reception(0, 9));
        assert!(plan.drops_reception(0, 10));
        plan.push(0, FaultEvent::ReceptionDrop { prob: 0.0, from: 0 });
        assert!(!plan.drops_reception(0, 10));
    }

    #[test]
    fn random_mix_is_reproducible_and_seed_sensitive() {
        let mix = FaultMix {
            crash: 0.3,
            deafness: 0.3,
            drop: 0.3,
            degrade: 0.3,
            horizon: 32,
        };
        let a = FaultPlan::random(100, 5, &mix);
        let b = FaultPlan::random(100, 5, &mix);
        assert_eq!(a, b);
        let c = FaultPlan::random(100, 6, &mix);
        assert_ne!(a, c);
        assert!(a.events() > 0, "a 0.3-rate mix over 100 nodes fires");
        // Zero rates draw nothing.
        let empty = FaultPlan::random(
            100,
            5,
            &FaultMix {
                crash: 0.0,
                deafness: 0.0,
                drop: 0.0,
                degrade: 0.0,
                horizon: 32,
            },
        );
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_drop_probability_panics() {
        FaultPlan::new(1, 0).push(0, FaultEvent::ReceptionDrop { prob: 1.5, from: 0 });
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn invalid_degrade_factor_panics() {
        FaultPlan::new(1, 0).push(
            0,
            FaultEvent::PowerDegrade {
                factor: 0.0,
                from: 0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "empty deafness window")]
    fn empty_deafness_window_panics() {
        FaultPlan::new(1, 0).push(0, FaultEvent::TransientDeafness { from: 5, until: 5 });
    }
}
