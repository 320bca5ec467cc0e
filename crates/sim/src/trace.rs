//! Feature-gated structured event log with first-divergence reporting
//! (DESIGN.md §11).
//!
//! The determinism gates promise byte-identical runs across backends,
//! thread counts and repetitions — but when a gate fails, a bare
//! fingerprint mismatch says nothing about *which slot, which node,
//! which field* first diverged. This module turns any run into a
//! stream of typed [`TraceEvent`]s (slot outcomes from the engine,
//! probe decisions from the selectors, re-pack classifications and
//! batch boundaries from the dynamic layers) recorded into a
//! fixed-capacity ring buffer, and [`first_divergence`] compares two
//! such streams field by field.
//!
//! # Zero cost when disabled, observational when enabled
//!
//! The whole module (and every emission site in the engine and the
//! connectivity crate) sits behind the `trace` cargo feature; a build
//! without it contains no trace code at all. With the feature compiled
//! in, emission goes through a thread-local recorder that is inert
//! until [`start`] installs a buffer — and recording only *observes*
//! values the run computed anyway, so fingerprints stay byte-identical
//! either way (the `trace-gates` CI step enforces both claims).
//!
//! The recorder is thread-local on purpose: every emission site runs on
//! the thread that owns the trial (the engine's pooled backend shards
//! *channel resolution* only; protocol state, RNG draws and
//! `finish_slot` never leave the driving thread), so concurrent trials
//! in an ensemble each get their own buffer without locking.

use std::cell::RefCell;
use std::fmt;

/// Float fields travel as IEEE-754 bit patterns (`f64::to_bits`): the
/// point of the log is *bit*-level divergence, and `NaN != NaN` would
/// make honest float comparison lie.
pub type F64Bits = u64;

/// One recorded observation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A node transmitted this slot (engine, per transmitter).
    Transmit {
        /// Slot index.
        slot: u64,
        /// The transmitting node.
        node: usize,
        /// Transmission power bits.
        power: F64Bits,
    },
    /// A node decoded a message this slot (engine, per reception).
    Receive {
        /// Slot index.
        slot: u64,
        /// The decoding listener.
        node: usize,
        /// The decoded sender.
        from: usize,
    },
    /// Per-slot roll-up emitted by the engine after every slot: counts
    /// plus an FNV-1a digest of the full outcome stream, so a
    /// divergence is caught at slot granularity even when its
    /// per-event records were dropped by the ring buffer.
    SlotDigest {
        /// Slot index.
        slot: u64,
        /// Transmitting nodes this slot.
        transmissions: u32,
        /// Nodes that decoded a message.
        receptions: u32,
        /// Listeners that decoded nothing.
        idle: u32,
        /// FNV-1a digest over every node's outcome in node order: its
        /// kind, a transmitter's power bits, a listener's sender and
        /// distance bits.
        outcomes_fnv: u64,
    },
    /// A selector probe decision: whether `sender → receiver` was
    /// admitted by the measured-affectance threshold (core::selector).
    Probe {
        /// Probing sender.
        sender: usize,
        /// Probed receiver.
        receiver: usize,
        /// Whether the probe passed the threshold.
        admitted: bool,
    },
    /// Re-pack classification of one tree link, keyed by its sender
    /// (core::repack): fresh links re-run the packing probes, dirty
    /// links relocate, clean links keep their slot grouping.
    RepackClass {
        /// The link's sender (child endpoint).
        node: usize,
        /// The classification.
        class: RepackClass,
    },
    /// A dynamic-phase batch boundary (core::repair / join / tvc).
    Batch {
        /// Phase label (`"repair"`, `"join"`, `"tvc-iteration"`).
        phase: &'static str,
        /// Iteration / batch index within the phase.
        index: u64,
        /// Batch size (failed nodes, joiners, active roots…).
        size: usize,
    },
    /// A fault from an armed [`FaultPlan`](crate::FaultPlan) acted on a
    /// node (sim::faults): a crash/deafness/degrade activation boundary
    /// or one suppressed reception.
    FaultInjected {
        /// Slot index.
        slot: u64,
        /// The faulted node.
        node: usize,
        /// Fault kind label (`"crash-stop"`, `"deafness"`,
        /// `"power-degrade"`, `"reception-drop"`).
        kind: &'static str,
    },
    /// A detector child locally declared its parent suspect after
    /// missing its timeout threshold (core::detect).
    FailureSuspected {
        /// Slot (within the detection run) the declaration happened in.
        slot: u64,
        /// The declaring child.
        node: usize,
        /// The suspected parent.
        suspect: usize,
        /// Consecutive expected receptions missed at declaration time.
        misses: u32,
    },
    /// One detect→repair→repack recovery batch of the service loop
    /// finished (bench::serve).
    RecoveryComplete {
        /// Batch index within the service run.
        index: u64,
        /// Failure events recovered in this batch.
        batch: usize,
        /// Simulated slots the detection phase used.
        detection_slots: u64,
        /// Simulated slots the repair/repack phase used.
        repair_slots: u64,
    },
}

/// The three re-pack classes of DESIGN.md §10.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepackClass {
    /// No prior slot (or no prior power): must be packed from scratch.
    Fresh,
    /// In the upward closure of a fresh link: relocates.
    Dirty,
    /// Keeps its previous slot grouping untouched.
    Clean,
}

impl fmt::Display for RepackClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RepackClass::Fresh => "fresh",
            RepackClass::Dirty => "dirty",
            RepackClass::Clean => "clean",
        })
    }
}

impl TraceEvent {
    /// The event kind as a short label (divergence reports).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Transmit { .. } => "transmit",
            TraceEvent::Receive { .. } => "receive",
            TraceEvent::SlotDigest { .. } => "slot-digest",
            TraceEvent::Probe { .. } => "probe",
            TraceEvent::RepackClass { .. } => "repack-class",
            TraceEvent::Batch { .. } => "batch",
            TraceEvent::FaultInjected { .. } => "fault-injected",
            TraceEvent::FailureSuspected { .. } => "failure-suspected",
            TraceEvent::RecoveryComplete { .. } => "recovery-complete",
        }
    }

    /// The slot this event belongs to, where one is defined.
    pub fn slot(&self) -> Option<u64> {
        match self {
            TraceEvent::Transmit { slot, .. }
            | TraceEvent::Receive { slot, .. }
            | TraceEvent::SlotDigest { slot, .. }
            | TraceEvent::FaultInjected { slot, .. }
            | TraceEvent::FailureSuspected { slot, .. } => Some(*slot),
            _ => None,
        }
    }

    /// The node this event is about, where one is defined.
    pub fn node(&self) -> Option<usize> {
        match self {
            TraceEvent::Transmit { node, .. }
            | TraceEvent::Receive { node, .. }
            | TraceEvent::RepackClass { node, .. }
            | TraceEvent::FaultInjected { node, .. }
            | TraceEvent::FailureSuspected { node, .. } => Some(*node),
            _ => None,
        }
    }

    /// `(field name, rendered value)` pairs, for field-level diffing.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        match self {
            TraceEvent::Transmit { slot, node, power } => vec![
                ("slot", slot.to_string()),
                ("node", node.to_string()),
                ("power", render_bits(*power)),
            ],
            TraceEvent::Receive { slot, node, from } => vec![
                ("slot", slot.to_string()),
                ("node", node.to_string()),
                ("from", from.to_string()),
            ],
            TraceEvent::SlotDigest {
                slot,
                transmissions,
                receptions,
                idle,
                outcomes_fnv,
            } => vec![
                ("slot", slot.to_string()),
                ("transmissions", transmissions.to_string()),
                ("receptions", receptions.to_string()),
                ("idle", idle.to_string()),
                ("outcomes_fnv", format!("{outcomes_fnv:#018x}")),
            ],
            TraceEvent::Probe {
                sender,
                receiver,
                admitted,
            } => vec![
                ("sender", sender.to_string()),
                ("receiver", receiver.to_string()),
                ("admitted", admitted.to_string()),
            ],
            TraceEvent::RepackClass { node, class } => {
                vec![("node", node.to_string()), ("class", class.to_string())]
            }
            TraceEvent::Batch { phase, index, size } => vec![
                ("phase", phase.to_string()),
                ("index", index.to_string()),
                ("size", size.to_string()),
            ],
            TraceEvent::FaultInjected { slot, node, kind } => vec![
                ("slot", slot.to_string()),
                ("node", node.to_string()),
                ("fault", kind.to_string()),
            ],
            TraceEvent::FailureSuspected {
                slot,
                node,
                suspect,
                misses,
            } => vec![
                ("slot", slot.to_string()),
                ("node", node.to_string()),
                ("suspect", suspect.to_string()),
                ("misses", misses.to_string()),
            ],
            TraceEvent::RecoveryComplete {
                index,
                batch,
                detection_slots,
                repair_slots,
            } => vec![
                ("index", index.to_string()),
                ("batch", batch.to_string()),
                ("detection_slots", detection_slots.to_string()),
                ("repair_slots", repair_slots.to_string()),
            ],
        }
    }
}

fn render_bits(bits: F64Bits) -> String {
    format!("{} ({bits:#018x})", f64::from_bits(bits))
}

/// A finished recording: the (possibly truncated) event stream plus how
/// many early events the ring buffer evicted to stay within capacity.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceLog {
    /// The recorded events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events evicted from the front of the ring buffer.
    pub dropped: u64,
}

/// Fixed-capacity event recorder: on overflow the *oldest* event is
/// evicted (and counted), so the log always holds the most recent
/// window — the part that matters when a long run fails late.
#[derive(Debug)]
struct Recorder {
    events: std::collections::VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Default ring-buffer capacity: roomy enough for every event of the
/// experiment-sized runs while bounding memory on pathological ones.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// Installs a recorder with the given ring-buffer capacity on this
/// thread, replacing (and discarding) any previous one.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn start(capacity: usize) {
    assert!(capacity > 0, "trace ring buffer needs capacity");
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            events: std::collections::VecDeque::with_capacity(capacity.min(1 << 12)),
            capacity,
            dropped: 0,
        });
    });
}

/// Uninstalls this thread's recorder and returns what it captured.
/// Returns an empty log if no recorder was installed.
pub fn stop() -> TraceLog {
    RECORDER.with(|r| match r.borrow_mut().take() {
        Some(rec) => TraceLog {
            events: rec.events.into(),
            dropped: rec.dropped,
        },
        None => TraceLog::default(),
    })
}

/// Whether a recorder is installed on this thread. Emission sites may
/// check this before building an event to skip argument construction.
pub fn is_active() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Records one event into this thread's recorder; a no-op without one.
pub fn emit(event: TraceEvent) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            if rec.events.len() == rec.capacity {
                rec.events.pop_front();
                rec.dropped += 1;
            }
            rec.events.push_back(event);
        }
    });
}

/// The first difference between two event streams.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Index into both event streams where they first differ (relative
    /// to the recorded window, i.e. after any ring-buffer drops).
    pub index: usize,
    /// The slot of the diverging event, if it carries one.
    pub slot: Option<u64>,
    /// The node of the diverging event, if it carries one.
    pub node: Option<usize>,
    /// The event kind (left side; `"<end of log>"` when one stream is
    /// a strict prefix of the other).
    pub kind: &'static str,
    /// The first differing field, or `"kind"`/`"length"` for
    /// structural differences.
    pub field: &'static str,
    /// Rendered left-hand value.
    pub left: String,
    /// Rendered right-hand value.
    pub right: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "first divergence at event #{}", self.index)?;
        if let Some(slot) = self.slot {
            write!(f, ", slot {slot}")?;
        }
        if let Some(node) = self.node {
            write!(f, ", node {node}")?;
        }
        write!(
            f,
            ": {} event, field `{}`: {} != {}",
            self.kind, self.field, self.left, self.right
        )
    }
}

/// Compares two recordings event by event and reports the first
/// difference at field granularity, or `None` when the streams agree.
///
/// Comparison starts at the beginning of each *recorded window*; if
/// either side dropped events the caller should treat an agreement as
/// "no divergence within the retained window" (the drop counts are on
/// the logs).
pub fn first_divergence(left: &TraceLog, right: &TraceLog) -> Option<Divergence> {
    for (index, pair) in left.events.iter().zip(right.events.iter()).enumerate() {
        let (l, r) = pair;
        if l == r {
            continue;
        }
        if l.kind() != r.kind() {
            return Some(Divergence {
                index,
                slot: l.slot().or(r.slot()),
                node: l.node().or(r.node()),
                kind: l.kind(),
                field: "kind",
                left: l.kind().to_string(),
                right: r.kind().to_string(),
            });
        }
        let (lf, rf) = (l.fields(), r.fields());
        let (field, lv, rv) = lf
            .into_iter()
            .zip(rf)
            .find(|(a, b)| a.1 != b.1)
            .map(|((name, lv), (_, rv))| (name, lv, rv))
            .expect("unequal events of one kind differ in some field");
        return Some(Divergence {
            index,
            slot: l.slot(),
            node: l.node(),
            kind: l.kind(),
            field,
            left: lv,
            right: rv,
        });
    }
    if left.events.len() != right.events.len() {
        let index = left.events.len().min(right.events.len());
        let longer = if left.events.len() > right.events.len() {
            &left.events[index]
        } else {
            &right.events[index]
        };
        return Some(Divergence {
            index,
            slot: longer.slot(),
            node: longer.node(),
            kind: "<end of log>",
            field: "length",
            left: left.events.len().to_string(),
            right: right.events.len().to_string(),
        });
    }
    None
}

pub use crate::snapshot::Fnv1a;

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(slot: u64, node: usize, power: f64) -> TraceEvent {
        TraceEvent::Transmit {
            slot,
            node,
            power: power.to_bits(),
        }
    }

    #[test]
    fn recorder_lifecycle_and_inertness() {
        assert!(!is_active());
        emit(tx(0, 0, 1.0)); // no recorder: dropped silently
        assert_eq!(stop(), TraceLog::default());

        start(16);
        assert!(is_active());
        emit(tx(0, 1, 2.0));
        emit(tx(1, 2, 3.0));
        let log = stop();
        assert!(!is_active());
        assert_eq!(log.dropped, 0);
        assert_eq!(log.events, vec![tx(0, 1, 2.0), tx(1, 2, 3.0)]);
    }

    #[test]
    fn ring_buffer_keeps_the_newest_window() {
        start(4);
        for i in 0..10u64 {
            emit(tx(i, 0, 1.0));
        }
        let log = stop();
        assert_eq!(log.dropped, 6);
        assert_eq!(
            log.events,
            (6..10).map(|i| tx(i, 0, 1.0)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn identical_streams_do_not_diverge() {
        let log = TraceLog {
            events: vec![tx(0, 1, 2.0), tx(1, 2, 3.0)],
            dropped: 0,
        };
        assert_eq!(first_divergence(&log, &log.clone()), None);
    }

    #[test]
    fn field_level_divergence_names_slot_node_and_field() {
        let a = TraceLog {
            events: vec![tx(0, 1, 2.0), tx(5, 3, 2.0), tx(6, 1, 2.0)],
            dropped: 0,
        };
        let mut b = a.clone();
        b.events[1] = tx(5, 3, 2.5);
        let d = first_divergence(&a, &b).expect("streams differ");
        assert_eq!(d.index, 1);
        assert_eq!(d.slot, Some(5));
        assert_eq!(d.node, Some(3));
        assert_eq!(d.kind, "transmit");
        assert_eq!(d.field, "power");
        assert!(d.left.contains('2') && d.right.contains("2.5"));
        let shown = d.to_string();
        assert!(
            shown.contains("slot 5") && shown.contains("node 3"),
            "{shown}"
        );
    }

    #[test]
    fn kind_and_length_divergences() {
        let a = TraceLog {
            events: vec![tx(0, 1, 2.0)],
            dropped: 0,
        };
        let b = TraceLog {
            events: vec![TraceEvent::Batch {
                phase: "repair",
                index: 0,
                size: 3,
            }],
            dropped: 0,
        };
        let d = first_divergence(&a, &b).unwrap();
        assert_eq!(d.field, "kind");

        let c = TraceLog {
            events: vec![tx(0, 1, 2.0), tx(1, 1, 2.0)],
            dropped: 0,
        };
        let d = first_divergence(&a, &c).unwrap();
        assert_eq!(d.field, "length");
        assert_eq!(d.index, 1);
        assert_eq!(d.slot, Some(1));
    }

    #[test]
    fn nan_floats_compare_by_bits() {
        let a = TraceLog {
            events: vec![tx(0, 1, f64::NAN)],
            dropped: 0,
        };
        // Same NaN bits: no divergence, unlike `==` on floats.
        assert_eq!(first_divergence(&a, &a.clone()), None);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv1a::default();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv1a::default();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn events_carry_kind_slot_node_metadata() {
        let probe = TraceEvent::Probe {
            sender: 3,
            receiver: 4,
            admitted: false,
        };
        assert_eq!(probe.kind(), "probe");
        assert_eq!(probe.slot(), None);
        assert_eq!(probe.node(), None);

        let class = TraceEvent::RepackClass {
            node: 9,
            class: RepackClass::Dirty,
        };
        assert_eq!(class.node(), Some(9));
        assert_eq!(
            class.fields(),
            vec![("node", "9".to_string()), ("class", "dirty".to_string())]
        );

        let digest = TraceEvent::SlotDigest {
            slot: 11,
            transmissions: 2,
            receptions: 1,
            idle: 3,
            outcomes_fnv: 0xabcd,
        };
        assert_eq!(digest.slot(), Some(11));
        assert_eq!(digest.kind(), "slot-digest");
    }

    #[test]
    fn robustness_events_carry_metadata() {
        let fault = TraceEvent::FaultInjected {
            slot: 7,
            node: 3,
            kind: "crash-stop",
        };
        assert_eq!(fault.kind(), "fault-injected");
        assert_eq!(fault.slot(), Some(7));
        assert_eq!(fault.node(), Some(3));
        assert_eq!(
            fault.fields(),
            vec![
                ("slot", "7".to_string()),
                ("node", "3".to_string()),
                ("fault", "crash-stop".to_string()),
            ]
        );

        let suspect = TraceEvent::FailureSuspected {
            slot: 12,
            node: 4,
            suspect: 2,
            misses: 3,
        };
        assert_eq!(suspect.kind(), "failure-suspected");
        assert_eq!(suspect.slot(), Some(12));
        assert_eq!(suspect.node(), Some(4));

        let done = TraceEvent::RecoveryComplete {
            index: 1,
            batch: 2,
            detection_slots: 96,
            repair_slots: 30,
        };
        assert_eq!(done.kind(), "recovery-complete");
        assert_eq!(done.slot(), None);
        assert_eq!(done.node(), None);

        // A fault-kind mismatch diverges at field granularity.
        let a = TraceLog {
            events: vec![fault.clone()],
            dropped: 0,
        };
        let b = TraceLog {
            events: vec![TraceEvent::FaultInjected {
                slot: 7,
                node: 3,
                kind: "deafness",
            }],
            dropped: 0,
        };
        let d = first_divergence(&a, &b).unwrap();
        assert_eq!(d.kind, "fault-injected");
        assert_eq!(d.field, "fault");
        assert_eq!(d.slot, Some(7));
    }
}
