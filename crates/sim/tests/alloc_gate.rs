//! Allocation gate for the per-slot hot path (DESIGN.md §12.2).
//!
//! The engine keeps one slot context for its life — the stepped ids
//! and actions, the transmitter list and the interference field, which
//! is refilled in place — plus a `SlotArena` of outcome and awake-list
//! buffers, so after warm-up slots have sized every buffer, a
//! steady-state slot on the serial grid path performs **zero** heap
//! allocations. This test pins that with a counting global allocator:
//! it is the hook that keeps "refilled in place" an enforced property
//! instead of a comment.
//!
//! Debug builds are exempted from the zero bound (but still bounded):
//! `InterferenceField::refill` runs a `debug_assert!` that collects the
//! sender ids into a `HashSet` to reject duplicates, which allocates a
//! few times per slot by design. Release builds compile that check
//! out, and the release gate is the one CI's tier-1 job enforces
//! (`cargo test --release`).

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

/// One test for every protocol: the counter is process-wide, so a
/// second test running on another thread would leak its allocations
/// into this one's window. [`DozyRotor`] checks that the calendar's
/// heap and awake lists recycle their capacity too, and [`Blinker`]
/// that a field skipped for a silent slot refills in place. Every
/// transmitting slot has 80 transmitters, enough for the field to
/// build its per-slot aggregates (a summed-area table and a reach
/// bitmap, from 64 senders), so their buffers are gated too.
#[test]
fn steady_state_slots_do_not_allocate() {
    let params = SinrParams::default();
    let inst = gen::uniform_square(400, 1.5, 11).unwrap();
    // Warm-up slots size every buffer. The rotation period is 5, so 5
    // slots see every transmitter set the pattern produces (and every
    // calendar occupancy; one more slot for the first wake-ups).
    // Blinker's period is 10 slots.
    let engine = Engine::with_backend(&params, &inst, |_| Rotor, 11, EngineBackend::Grid);
    assert_steady_state_allocation_free(engine, 6);
    let engine = Engine::with_backend(&params, &inst, |_| DozyRotor, 11, EngineBackend::Grid);
    assert_steady_state_allocation_free(engine, 6);
    let engine = Engine::with_backend(&params, &inst, |_| Blinker, 11, EngineBackend::Grid);
    assert_steady_state_allocation_free(engine, 10);
}

fn assert_steady_state_allocation_free<P: Protocol>(mut engine: Engine<'_, P>, warm_up: u64) {
    engine.run(warm_up);

    let before = ALLOCS.load(Ordering::Relaxed);
    let slots = 20;
    engine.run(slots);
    let delta = ALLOCS.load(Ordering::Relaxed) - before;

    if cfg!(debug_assertions) {
        // The duplicate-sender debug_assert builds a HashSet per field
        // build; allow it a generous handful of allocations per slot.
        let budget = slots * 16;
        assert!(
            delta <= budget,
            "debug steady state allocated {delta} times in {slots} slots (budget {budget})"
        );
    } else {
        assert_eq!(
            delta, 0,
            "release steady state allocated {delta} times in {slots} slots; \
             a per-slot buffer escaped the slot context or arena"
        );
    }
}
