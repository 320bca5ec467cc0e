//! Allocation gate for the per-slot hot path (DESIGN.md §12.2).
//!
//! The engine keeps one slot context for its life — the role lists
//! (stepped ids with their roles, transmitters with their payloads,
//! listeners, the memo's answers) and the interference field, which is
//! refilled in place — plus a `SlotArena` of decode and awake-list
//! buffers, a wake calendar whose ring links each node once (DESIGN.md
//! §8.6) and a replay memo (DESIGN.md §8.7), so after warm-up slots
//! have sized every buffer, a steady-state slot on the serial grid path
//! performs **zero** heap allocations. This test pins that with a
//! counting global allocator: it is the hook that keeps "refilled in
//! place" an enforced property instead of a comment. The bound holds in
//! debug and release builds alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use sinr_geom::{gen, NodeId};
use sinr_phy::SinrParams;
use sinr_sim::{Action, Engine, EngineBackend, Protocol, SlotOutcome};

/// Counts every allocation and reallocation; frees are not counted —
/// the gate is about acquiring memory in the steady state.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Deterministic rotating transmitter pattern with a unit message: the
/// transmitter set changes every slot (so the grid genuinely rebuilds)
/// without touching the RNG or allocating in the protocol itself.
#[derive(Debug)]
struct Rotor;

impl Protocol for Rotor {
    type Msg = ();

    fn begin_slot(&mut self, node: NodeId, slot: u64, _: &mut StdRng) -> Action<()> {
        if (node + slot as usize) % 5 == 0 {
            Action::Transmit {
                power: 600.0,
                msg: (),
            }
        } else {
            Action::Listen
        }
    }

    fn end_slot(&mut self, _: NodeId, _: u64, _: SlotOutcome<()>, _: &mut StdRng) {}
}

/// [`Rotor`] that sleeps through its idle phases: each node listens
/// the slot after it transmits and declares dormancy until its next
/// transmit slot, so most of every slot's nodes sit in the wake
/// calendar.
#[derive(Debug)]
struct DozyRotor;

impl Protocol for DozyRotor {
    type Msg = ();

    fn begin_slot(&mut self, node: NodeId, slot: u64, _: &mut StdRng) -> Action<()> {
        match (node + slot as usize) % 5 {
            0 => Action::Transmit {
                power: 600.0,
                msg: (),
            },
            1 => Action::Listen,
            phase => Action::SleepUntil(slot + (5 - phase) as u64),
        }
    }

    fn end_slot(&mut self, _: NodeId, _: u64, _: SlotOutcome<()>, _: &mut StdRng) {}
}

/// [`Rotor`] with a silent slot between any two transmitting ones: on
/// even slots nobody transmits, so the engine skips the field, and
/// each odd slot refills it from the next phase's 80 senders, its
/// summed-area table and reach bitmap included.
#[derive(Debug)]
struct Blinker;

impl Protocol for Blinker {
    type Msg = ();

    fn begin_slot(&mut self, node: NodeId, slot: u64, _: &mut StdRng) -> Action<()> {
        if slot % 2 == 1 && (node + slot as usize / 2) % 5 == 0 {
            Action::Transmit {
                power: 600.0,
                msg: (),
            }
        } else {
            Action::Listen
        }
    }

    fn end_slot(&mut self, _: NodeId, _: u64, _: SlotOutcome<()>, _: &mut StdRng) {}
}

/// [`Rotor`] with the complement's roles, at a power that grows every
/// slot: 80 of its 100 nodes transmit, and no transmitter list ever
/// comes back, so every slot refills the field and only the replay
/// memo's hash index grows.
#[derive(Debug)]
struct Drifter;

impl Protocol for Drifter {
    type Msg = ();

    fn begin_slot(&mut self, node: NodeId, slot: u64, _: &mut StdRng) -> Action<()> {
        if (node + slot as usize) % 5 == 0 {
            Action::Listen
        } else {
            Action::Transmit {
                power: 600.0 + slot as f64,
                msg: (),
            }
        }
    }

    fn end_slot(&mut self, _: NodeId, _: u64, _: SlotOutcome<()>, _: &mut StdRng) {}
}

/// One test for every protocol: the counter is process-wide, so a
/// second test running on another thread would leak its allocations
/// into this one's window. [`DozyRotor`] checks that the calendar's
/// ring and the awake lists recycle their capacity too, [`Blinker`] that a
/// field skipped for a silent slot refills in place, and [`Drifter`]
/// that a slot whose list is new refills in place. Every transmitting
/// slot has 80 transmitters, enough for the field to build its
/// per-slot aggregates (a summed-area table and a reach bitmap, from 64
/// senders), so their buffers are gated too.
#[test]
fn steady_state_slots_do_not_allocate() {
    let params = SinrParams::default();
    let inst = gen::uniform_square(400, 1.5, 11).unwrap();
    // Warm-up slots size every buffer. The rotation period is 5: the
    // first 5 slots see every transmitter set the pattern produces
    // (and every calendar occupancy; one more slot for the first
    // wake-ups), and the next 5 record their decodes in the replay
    // memo, so the window replays. Blinker's period is 10 slots.
    let engine = Engine::with_backend(&params, &inst, |_| Rotor, 11, EngineBackend::Grid);
    assert_steady_state_allocation_free(engine, 11);
    let engine = Engine::with_backend(&params, &inst, |_| DozyRotor, 11, EngineBackend::Grid);
    assert_steady_state_allocation_free(engine, 11);
    let engine = Engine::with_backend(&params, &inst, |_| Blinker, 11, EngineBackend::Grid);
    assert_steady_state_allocation_free(engine, 20);
    // Drifter's lists never repeat, so its memo keeps one hash a slot
    // until it reaches its cap of 4 per node and clears, keeping the
    // capacity: the warm-up runs past that first clear.
    let small = gen::uniform_square(100, 1.5, 11).unwrap();
    let engine = Engine::with_backend(&params, &small, |_| Drifter, 11, EngineBackend::Grid);
    assert_steady_state_allocation_free(engine, 4 * 100 + 1);
}

fn assert_steady_state_allocation_free<P: Protocol>(mut engine: Engine<'_, P>, warm_up: u64) {
    engine.run(warm_up);

    let before = ALLOCS.load(Ordering::Relaxed);
    let slots = 20;
    engine.run(slots);
    let delta = ALLOCS.load(Ordering::Relaxed) - before;

    assert_eq!(
        delta, 0,
        "steady state allocated {delta} times in {slots} slots; \
         a per-slot buffer escaped the slot context or arena"
    );
}
