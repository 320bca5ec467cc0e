//! The per-node protocol interface.

use rand::rngs::StdRng;
use sinr_geom::NodeId;

/// What a node does in one slot.
#[derive(Clone, Debug, PartialEq)]
pub enum Action<M> {
    /// Transmit `msg` with the given power (must be positive and finite).
    Transmit {
        /// Transmission power.
        power: f64,
        /// The message payload.
        msg: M,
    },
    /// Listen for one decodable message.
    Listen,
    /// Do nothing this slot (inactive nodes).
    Sleep,
    /// Do nothing this slot and every slot before the given one: a
    /// dormancy declaration under [`Protocol`]'s dormancy promise. The
    /// engine stops calling the node until that slot; `u64::MAX`
    /// retires it for good. A wake slot no later than the next slot
    /// means plain [`Sleep`](Action::Sleep).
    SleepUntil(u64),
}

/// A successfully decoded message, as seen by the receiver.
///
/// Besides the payload, the receiver learns the sender's identity and —
/// because messages carry the sender's location in the paper's model —
/// the distance. That is all any protocol reads: the measurement
/// assumption of §8.2, which `Distr-Cap` needs, is answered by its
/// probe slots' thresholded affectance queries, not per reception.
#[derive(Clone, Debug, PartialEq)]
pub struct Reception<M> {
    /// The sender.
    pub from: NodeId,
    /// The decoded payload.
    pub msg: M,
    /// Distance to the sender.
    pub distance: f64,
}

/// What happened to a node during a slot.
#[derive(Clone, Debug, PartialEq)]
pub enum SlotOutcome<M> {
    /// The node transmitted (no feedback; acknowledgments are a
    /// protocol-level concern, as in the paper).
    Transmitted,
    /// The node listened and decoded a message.
    Received(Reception<M>),
    /// The node listened and decoded nothing.
    Idle,
    /// The node slept.
    Slept,
}

/// A per-node state machine driven by the [`Engine`](crate::Engine).
///
/// One value of the implementing type exists per node; each slot the
/// engine calls [`begin_slot`](Protocol::begin_slot) on every awake
/// node, resolves the channel, then calls
/// [`end_slot`](Protocol::end_slot) with each awake node's outcome.
/// The `rng` argument is the node's private deterministic stream —
/// protocols must draw randomness only from it so whole runs are
/// reproducible from the engine seed.
///
/// # The dormancy promise
///
/// A node that returns [`Action::SleepUntil(s)`](Action::SleepUntil)
/// from `begin_slot` in slot `t` promises, for every slot `t'` with
/// `t ≤ t' < s`:
///
/// - `end_slot(t', Slept)` would change nothing and draw nothing —
///   slot `t`'s own `end_slot` included;
/// - for `t' > t`, `begin_slot(t')` would return `Sleep` (or another
///   `SleepUntil`) without changing state or drawing.
///
/// The calendar-driven backends ([`Grid`](crate::EngineBackend::Grid),
/// [`Parallel`](crate::EngineBackend::Parallel)) take the promise at
/// its word and skip the node until slot `s`, so a slot costs
/// `O(awake nodes)` instead of `O(n)`. A dormant node's RNG stream is
/// untouched, as it already is when a node sleeps without drawing;
/// per-node streams keep every other node's draws where they were.
/// The [`Naive`](crate::EngineBackend::Naive) reference keeps stepping
/// every node and, in debug builds, asserts the promise on each
/// dormant step; a broken promise that slips past the assertion still
/// shows up as a naive-vs-grid divergence in the parity gates. Plain
/// [`Sleep`](Action::Sleep) promises nothing beyond the current slot.
/// A snapshot does not record dormancy: a restored engine wakes every
/// node for one slot and each declares its hint again, so the hint
/// must follow from the node's state and the slot alone.
///
/// Payloads must be `Send + Sync` because the engine's
/// [`Parallel`](crate::EngineBackend::Parallel) backend shares a slot's
/// context — its transmitters with their payloads among it — read-only
/// with its worker pool, which sends back only each listener's decoded
/// sender. Payloads are cloned, outcomes built and protocol state
/// touched on the engine's thread alone, so outcomes are
/// byte-identical at any thread count.
pub trait Protocol {
    /// The message payload type.
    type Msg: Clone + Send + Sync;

    /// Chooses this node's action for slot `slot`.
    fn begin_slot(&mut self, node: NodeId, slot: u64, rng: &mut StdRng) -> Action<Self::Msg>;

    /// Observes the outcome of slot `slot`.
    fn end_slot(
        &mut self,
        node: NodeId,
        slot: u64,
        outcome: SlotOutcome<Self::Msg>,
        rng: &mut StdRng,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_equality() {
        let a: Action<u8> = Action::Transmit { power: 1.0, msg: 3 };
        assert_eq!(a, Action::Transmit { power: 1.0, msg: 3 });
        assert_ne!(a, Action::Listen);
        assert_ne!(Action::<u8>::Listen, Action::Sleep);
    }

    #[test]
    fn outcome_carries_reception() {
        let r = Reception {
            from: 1,
            msg: "x",
            distance: 2.0,
        };
        let o = SlotOutcome::Received(r.clone());
        match o {
            SlotOutcome::Received(got) => assert_eq!(got, r),
            _ => panic!("wrong variant"),
        }
    }
}
