//! The slotted simulation engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sinr_geom::{Instance, NodeId};
use sinr_phy::field::{decode_best_exact, FieldScratch, InterferenceField, PhaseTimes, QueryStats};
use sinr_phy::SinrParams;

use crate::faults::FaultPlan;
use crate::pool::{with_pool, PoolHandle};
use crate::protocol::{Action, Protocol, Reception, SlotOutcome};

/// Segment timer for the per-slot profiling phases: each
/// [`lap`](PhaseClock::lap) records the time since the previous lap
/// under the given phase name and starts the next segment. Inert (no
/// `Instant` calls) when no profiling registry is active, and empty
/// without the `profile` feature.
struct PhaseClock {
    #[cfg(feature = "profile")]
    t0: Option<std::time::Instant>,
}

impl PhaseClock {
    fn start() -> Self {
        PhaseClock {
            #[cfg(feature = "profile")]
            t0: crate::profile::is_active().then(std::time::Instant::now),
        }
    }

    #[inline]
    fn lap(&mut self, _name: &'static str) {
        #[cfg(feature = "profile")]
        if let Some(t0) = self.t0 {
            crate::profile::record(_name, t0.elapsed().as_secs_f64());
            self.t0 = Some(std::time::Instant::now());
        }
    }
}

/// The engine's per-slot buffers outside its [`SlotCtx`]: the
/// listeners' decodes, the next slot's awake list and, for the pooled
/// loop, the per-worker chunk buffers. Everything here is *capacity*,
/// not state: every slot drains and refills them, so steady-state slots
/// allocate nothing on the serial path (pinned by the allocation-gate
/// test).
#[derive(Default)]
struct SlotArena {
    /// Phase 2's answer for each of the slot's listeners, in
    /// [`SlotCtx::listeners`] order: the sender it decoded, if any.
    /// Phase 3 clears the receptions the fault plan suppresses.
    decoded: Vec<Option<NodeId>>,
    /// The nodes that stay awake into the next slot, drafted by phase 1
    /// and merged with the calendar's wake-ups after phase 3.
    next_awake: Vec<NodeId>,
    /// Pooled loop only: one decode buffer per worker, cycled through
    /// the job channel so chunk capacity survives across slots.
    worker_outs: Vec<Vec<Option<NodeId>>>,
    /// Pooled loop only: the per-slot chunk merge table.
    chunks: Vec<Option<Vec<Option<NodeId>>>>,
}

/// The wake calendar's ring covers this many slots, starting at the
/// next slot it drains; wakes further off wait in its heap.
const RING_SLOTS: u64 = 256;

/// The end of a calendar bucket's list.
const NIL: NodeId = NodeId::MAX;

/// The wake calendar (DESIGN.md §8.6): every dormant node with a
/// finite wake slot. Retired nodes (`u64::MAX`) and crashed nodes are
/// in neither the calendar nor the awake list.
///
/// A wake slot fewer than [`RING_SLOTS`] slots past the next slot
/// drained goes to that slot's bucket of a ring, an intrusive list
/// threaded through one link per node, so filing and draining a node
/// cost `O(1)`; only later wakes go to a min-heap.
#[derive(Default)]
struct WakeCalendar {
    /// `heads[s % RING_SLOTS]`: the node last filed for slot `s`, or
    /// [`NIL`]. Empty until the first finite nap.
    heads: Vec<NodeId>,
    /// `links[id]`: the node filed before `id` in its bucket, or
    /// [`NIL`]. Empty until the first finite nap, then one per node.
    links: Vec<NodeId>,
    /// Wakes [`RING_SLOTS`] or more slots past the next slot drained,
    /// keyed by `(wake slot, node id)`.
    far: BinaryHeap<Reverse<(u64, NodeId)>>,
    /// The nodes due at the slot last drained, ascending id.
    due: Vec<NodeId>,
}

impl WakeCalendar {
    /// Files node `id` of an `n`-node engine, which declared in `slot`
    /// a nap until `wake`, with `slot + 1 < wake < u64::MAX`.
    fn file(&mut self, slot: u64, id: NodeId, wake: u64, n: usize) {
        // The next slot drained is `slot + 1`: the ring's buckets stand
        // for it and the slots up to `RING_SLOTS − 1` after it.
        if wake - (slot + 1) < RING_SLOTS {
            if self.links.is_empty() {
                self.heads.resize(RING_SLOTS as usize, NIL);
                self.links.resize(n, NIL);
            }
            let bucket = (wake % RING_SLOTS) as usize;
            self.links[id] = self.heads[bucket];
            self.heads[bucket] = id;
        } else {
            self.far.push(Reverse((wake, id)));
        }
    }

    /// Takes the nodes due at `slot` out of the calendar, ascending id.
    /// Slots are drained in turn, each once: a bucket stands for one
    /// slot at a time.
    fn drain(&mut self, slot: u64) -> &[NodeId] {
        self.due.clear();
        if let Some(head) = self.heads.get_mut((slot % RING_SLOTS) as usize) {
            let mut id = std::mem::replace(head, NIL);
            while id != NIL {
                self.due.push(id);
                id = self.links[id];
            }
        }
        while let Some(&Reverse((wake, id))) = self.far.peek() {
            if wake > slot {
                break;
            }
            // Entries go to the heap more than one slot ahead and leave
            // it at their wake slot, so every popped entry is due now.
            debug_assert_eq!(wake, slot, "calendar entry for node {id} went stale");
            self.far.pop();
            self.due.push(id);
        }
        // A bucket lists its nodes newest first, and the heap's follow.
        self.due.sort_unstable();
        &self.due
    }
}

/// How the engine resolves the channel each slot.
///
/// Every backend produces **bit-identical** slot outcomes — decode
/// decisions, decoded senders and their distances. The grid backend
/// only takes a shortcut when the decision is certified (see
/// `sinr_phy::field` and DESIGN.md §7); the parallel backend
/// runs the *same* per-listener resolution as the grid backend, merely
/// sharding independent listeners across scoped threads with an
/// ordered merge, so no float operation is reordered (DESIGN.md §8).
/// The grid and parallel backends step only the awake nodes of the
/// wake calendar, and answer a listener of a transmitter list they have
/// already decoded from a replay memo instead of the field (DESIGN.md
/// §8.7); the naive backend steps every node, checks each dormancy
/// promise (see [`Protocol`]) and decodes every listener. It exists as
/// the reference for parity testing and benchmarking.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineBackend {
    /// All-pairs channel resolution: `O(listeners × transmitters²)`
    /// per slot, with every node stepped every slot.
    Naive,
    /// Spatially-indexed resolution through one
    /// [`InterferenceField`], refilled each slot.
    #[default]
    Grid,
    /// Grid resolution with each slot's channel phase sharded across
    /// this many pooled worker threads (`0` = one per available core).
    ///
    /// The pool lives inside the batch runners ([`Engine::run`],
    /// [`Engine::run_until`], [`Engine::run_reports`]) so its spawn
    /// cost amortizes over the whole run; a lone [`Engine::step`] call
    /// stays serial. Engines below [`PARALLEL_MIN_NODES`] nodes run
    /// serially regardless, and so does any slot with fewer listeners
    /// than that, or no transmitter — channel round-trips would
    /// dominate.
    Parallel(usize),
}

/// Engines with fewer nodes than this run serially even under
/// [`EngineBackend::Parallel`], and so do slots with fewer listeners —
/// per-slot job dispatch would dominate the work.
pub const PARALLEL_MIN_NODES: usize = 64;

impl EngineBackend {
    /// Short label (`naive` / `grid` / `parallel`) for CLIs and tables.
    pub fn label(&self) -> &'static str {
        match self {
            EngineBackend::Naive => "naive",
            EngineBackend::Grid => "grid",
            EngineBackend::Parallel(_) => "parallel",
        }
    }

    /// The number of worker threads this backend resolves listeners
    /// with: 1 for the serial backends, the configured (or detected,
    /// for `Parallel(0)`) count otherwise.
    pub fn worker_threads(&self) -> usize {
        match self {
            EngineBackend::Naive | EngineBackend::Grid => 1,
            EngineBackend::Parallel(0) => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            EngineBackend::Parallel(n) => *n,
        }
    }
}

impl std::str::FromStr for EngineBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "naive" => Ok(EngineBackend::Naive),
            "grid" => Ok(EngineBackend::Grid),
            "parallel" => Ok(EngineBackend::Parallel(0)),
            other => match other.strip_prefix("parallel:") {
                Some(n) => n
                    .parse()
                    .map(EngineBackend::Parallel)
                    .map_err(|e| format!("bad thread count in `{other}`: {e}")),
                None => Err(format!(
                    "unknown engine backend `{other}` (naive|grid|parallel[:N])"
                )),
            },
        }
    }
}

/// Summary of one simulated slot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotReport {
    /// Slot index that was executed.
    pub slot: u64,
    /// Number of transmitting nodes.
    pub transmissions: usize,
    /// Number of nodes that decoded a message.
    pub receptions: usize,
    /// Number of nodes that listened without decoding anything.
    pub idle_listeners: usize,
}

/// Cumulative statistics across all executed slots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Slots executed so far.
    pub slots: u64,
    /// Total transmissions across all slots.
    pub transmissions: u64,
    /// Total successful receptions across all slots.
    pub receptions: u64,
}

/// The slotted-time SINR channel simulator.
///
/// Owns one [`Protocol`] value and one RNG stream per node; each call to
/// [`step`](Engine::step) advances global time by one slot:
///
/// 1. every awake node picks an [`Action`];
/// 2. the channel is resolved: a listener decodes the transmitter with
///    the highest SINR at its location if that SINR reaches `β`
///    (unique for `β ≥ 1`, `N > 0`); transmitters hear nothing
///    (half-duplex);
/// 3. every awake node observes its [`SlotOutcome`].
///
/// A node that declares dormancy ([`Action::SleepUntil`]) leaves the
/// awake list for a deterministic wake calendar of per-slot buckets
/// and rejoins the list, in id order, at its wake slot — so a slot
/// costs `O(awake nodes)`, not `O(n)` (DESIGN.md §8.6).
pub struct Engine<'a, P: Protocol> {
    params: &'a SinrParams,
    instance: &'a Instance,
    nodes: Vec<P>,
    rngs: Vec<StdRng>,
    slot: u64,
    stats: EngineStats,
    backend: EngineBackend,
    scratch: FieldScratch,
    /// The slot context, refilled in place every slot (DESIGN.md
    /// §12.2); boxed so a slot borrows it out of the engine by moving a
    /// pointer. `None` while a pooled run shares it with the workers,
    /// and before the first slot.
    ctx: Option<Box<SlotCtx<'a, P::Msg>>>,
    arena: SlotArena,
    field_stats: QueryStats,
    /// Armed fault schedule ([`Engine::arm_faults`]); `None` — the
    /// default — restores the exact pre-fault code paths.
    faults: Option<FaultPlan>,
    /// Whether the armed plan has a deafness or drop fault, cached at
    /// arm time so fault-free slots skip the reception-fault pass.
    reception_faults: bool,
    /// The armed plan's trace boundaries ([`FaultPlan::boundaries`]).
    #[cfg(feature = "trace")]
    fault_boundaries: Vec<(u64, NodeId, &'static str)>,
    calendar: WakeCalendar,
    /// The nodes due in the next slot, ascending id order.
    awake: Vec<NodeId>,
    /// The grid backends' replay memo (DESIGN.md §8.7); `None` on the
    /// naive reference. Derived state: snapshots do not capture it.
    memo: Option<ReplayMemo>,
}

impl<'a, P: Protocol + std::fmt::Debug> std::fmt::Debug for Engine<'a, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("slot", &self.slot)
            .field("nodes", &self.nodes.len())
            .field("awake", &self.awake.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// One pooled job: the shared slot context plus the recycled buffer
/// the worker fills with its chunk of the listeners' decodes.
type SlotJob<'a, M> = (Arc<SlotCtx<'a, M>>, Vec<Option<NodeId>>);

/// One worker's answer to a [`SlotJob`]: its chunk of decodes plus the
/// decode counters and phase times it gathered.
type SlotChunk = (Vec<Option<NodeId>>, QueryStats, PhaseTimes);

/// The pooled loop's dispatch handle.
type SlotPool<'a, M> = PoolHandle<SlotJob<'a, M>, SlotChunk>;

impl<'a, P: Protocol> Engine<'a, P> {
    /// Creates an engine with one protocol state per node, built by
    /// `make_node`, and per-node RNG streams derived from `seed`. Gains
    /// go through the channel `params` carries.
    ///
    /// Uses the default [`EngineBackend::Grid`] channel resolution; use
    /// [`with_backend`](Engine::with_backend) to select explicitly.
    pub fn new(
        params: &'a SinrParams,
        instance: &'a Instance,
        make_node: impl FnMut(NodeId) -> P,
        seed: u64,
    ) -> Self {
        Self::with_backend(params, instance, make_node, seed, EngineBackend::default())
    }

    /// [`new`](Engine::new) with an explicit channel-resolution backend.
    pub fn with_backend(
        params: &'a SinrParams,
        instance: &'a Instance,
        mut make_node: impl FnMut(NodeId) -> P,
        seed: u64,
        backend: EngineBackend,
    ) -> Self {
        let n = instance.len();
        let mut seeder = StdRng::seed_from_u64(seed);
        let nodes = (0..n).map(&mut make_node).collect();
        let rngs = (0..n)
            .map(|_| StdRng::seed_from_u64(seeder.gen()))
            .collect();
        Self::assemble(params, instance, nodes, rngs, backend)
    }

    /// An engine at slot 0 with every node awake and no plan armed.
    fn assemble(
        params: &'a SinrParams,
        instance: &'a Instance,
        nodes: Vec<P>,
        rngs: Vec<StdRng>,
        backend: EngineBackend,
    ) -> Self {
        let n = nodes.len();
        Engine {
            params,
            instance,
            nodes,
            rngs,
            slot: 0,
            stats: EngineStats::default(),
            backend,
            scratch: FieldScratch::default(),
            ctx: None,
            arena: SlotArena::default(),
            field_stats: QueryStats::default(),
            faults: None,
            reception_faults: false,
            #[cfg(feature = "trace")]
            fault_boundaries: Vec::new(),
            calendar: WakeCalendar::default(),
            awake: (0..n).collect(),
            memo: ReplayMemo::for_backend(backend, n),
        }
    }

    /// Arms a deterministic [`FaultPlan`]: from the next slot on, the
    /// engine applies its crash/deafness/drop/degrade schedule at slot
    /// boundaries, entirely on the driving thread — so fault traces
    /// are byte-identical on every backend and at every thread count.
    /// An empty plan is byte-identical to no plan at all. Snapshots do
    /// not capture the plan (it is immutable input, like the instance);
    /// re-arm after `restore` (the `serde` feature's snapshot loader).
    ///
    /// # Panics
    ///
    /// Panics if the plan's node count disagrees with the instance.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        assert_eq!(
            plan.len(),
            self.instance.len(),
            "fault plan covers {} nodes, instance has {}",
            plan.len(),
            self.instance.len()
        );
        self.reception_faults = plan.any_reception_faults();
        #[cfg(feature = "trace")]
        {
            self.fault_boundaries = plan.boundaries();
        }
        self.faults = Some(plan);
    }

    /// The armed fault plan, if any.
    #[inline]
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The channel-resolution backend in use.
    #[inline]
    pub fn backend(&self) -> EngineBackend {
        self.backend
    }

    /// The next slot index to execute.
    #[inline]
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Cumulative statistics.
    #[inline]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Accumulated decode-path decision counters
    /// ([`QueryStats`](sinr_phy::field::QueryStats)) across every slot
    /// this engine executed — worker counters from the pooled loop are
    /// merged in. The profiling layer and the scaling experiments read
    /// these to report certified-vs-fallback ratios.
    #[inline]
    pub fn field_stats(&self) -> QueryStats {
        self.field_stats
    }

    /// The per-node protocol states.
    #[inline]
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// The awake nodes with their protocol states, in ascending id
    /// order: the nodes due next slot — every node that has not
    /// declared dormancy ([`Action::SleepUntil`]), retired, or been
    /// found crashed, plus the calendar's wake-ups for that slot. The
    /// naive reference steps dormant nodes too but keeps the same
    /// calendar, so the list is the same on every backend, and a
    /// stopping rule that reads only awake nodes costs `O(awake)` per
    /// slot and stays backend-invariant.
    pub fn awake_nodes(&self) -> impl Iterator<Item = (NodeId, &P)> + '_ {
        self.awake.iter().map(move |&id| (id, &self.nodes[id]))
    }

    /// The simulated instance.
    #[inline]
    pub fn instance(&self) -> &Instance {
        self.instance
    }

    /// Executes one slot and returns its report.
    ///
    /// `step` is always serial — even under
    /// [`EngineBackend::Parallel`], whose worker pool exists only
    /// inside the batch runners ([`run`](Self::run),
    /// [`run_until`](Self::run_until), [`run_reports`](Self::run_reports)),
    /// where its spawn cost amortizes across slots. Outcomes are
    /// byte-identical either way: the pooled loop shards the very same
    /// per-listener decode (`SlotCtx::decode`) across threads and
    /// merges in listener order (DESIGN.md §8).
    ///
    /// # Panics
    ///
    /// Panics if a protocol transmits with a non-positive or non-finite
    /// power (a programming error in the protocol). Debug builds of the
    /// naive backend also panic when a dormant node breaks its
    /// dormancy promise.
    pub fn step(&mut self) -> SlotReport {
        let mut clock = PhaseClock::start();
        let mut ctx = self.ctx.take().unwrap_or_else(|| Box::new(self.new_ctx()));
        self.fill(&mut ctx, &mut clock);
        self.resolve_serial(&ctx);
        self.record_decodes(&ctx);
        clock.lap("resolve");
        let report = self.finish_slot(&ctx);
        self.ctx = Some(ctx);
        clock.lap("merge");
        report
    }

    /// One slot of a pooled run, on the run's `shared` context: the
    /// channel phase is sharded across `pool` when the slot has a
    /// transmitter and at least [`PARALLEL_MIN_NODES`] listeners;
    /// smaller slots resolve on the driving thread.
    fn step_pooled(
        &mut self,
        pool: &SlotPool<'a, P::Msg>,
        shared: &mut Arc<SlotCtx<'a, P::Msg>>,
    ) -> SlotReport {
        let mut clock = PhaseClock::start();
        // Every worker reported the last slot and dropped its clone, so
        // the context is unique again. Were a clone to linger, the slot
        // would start from a fresh context; none carries state across
        // slots.
        let ctx = match Arc::get_mut(shared) {
            Some(ctx) => ctx,
            None => {
                *shared = Arc::new(self.new_ctx());
                Arc::get_mut(shared).expect("a new context is unshared")
            }
        };
        self.fill(ctx, &mut clock);
        if !shared.transmitters.is_empty() && shared.listeners.len() >= PARALLEL_MIN_NODES {
            self.resolve_pooled(pool, shared);
        } else {
            self.resolve_serial(shared);
        }
        self.record_decodes(shared);
        clock.lap("resolve");
        let report = self.finish_slot(shared);
        clock.lap("merge");
        report
    }

    /// An empty slot context for this engine.
    fn new_ctx(&self) -> SlotCtx<'a, P::Msg> {
        SlotCtx::new(self.params, self.instance, self.backend)
    }

    /// Phase 1 and the channel set-up into `ctx`: the stepped nodes'
    /// role lists, then the slot's replayed listeners and its field.
    fn fill(&mut self, ctx: &mut SlotCtx<'a, P::Msg>, clock: &mut PhaseClock) {
        self.begin_slots(ctx);
        clock.lap("build");
        ctx.refill(self.memo.as_mut());
        clock.lap("grid");
    }

    /// Records the slot's physical decodes in the replay memo, under
    /// the entry `ctx` sighted: every listener the field answered. Runs
    /// on the driving thread after phase 2 and before
    /// [`finish_slot`](Self::finish_slot) applies reception faults, so
    /// a deaf or dropping listener records what the channel delivered.
    fn record_decodes(&mut self, ctx: &SlotCtx<'a, P::Msg>) {
        if let (Some(entry), Some(memo)) = (ctx.entry, &mut self.memo) {
            memo.record(entry, &ctx.listeners, &ctx.replayed, &self.arena.decoded);
        }
    }

    /// Phase 1, shared by the serial and pooled loops: every stepped
    /// node picks its action and is sorted into `ctx`'s role lists as
    /// it steps, and the next slot's awake list is drafted.
    ///
    /// The calendar-driven backends step the awake list. The naive
    /// reference steps every live node and, in debug builds, checks the
    /// dormancy promise on each dormant one. Either way the calendar
    /// follows only the awake nodes' actions, so it is the same on
    /// every backend.
    ///
    /// With a fault plan armed, a crashed node is dropped from the
    /// awake list when it is next due: it sleeps with its protocol
    /// state and RNG stream frozen (no `begin_slot` call, no draw).
    /// Active power degrades scale the chosen transmit power before it
    /// enters the transmitter list — so every backend resolves the
    /// same faulted slot.
    ///
    /// # Panics
    ///
    /// Panics if a node transmits with a non-positive or non-finite
    /// power (a programming error in the protocol).
    fn begin_slots(&mut self, ctx: &mut SlotCtx<'a, P::Msg>) {
        let slot = self.slot;
        #[cfg(feature = "trace")]
        self.emit_fault_boundaries(slot);
        let n = self.nodes.len();
        let naive = self.backend == EngineBackend::Naive;
        let mut next = std::mem::take(&mut self.arena.next_awake);
        next.clear();
        ctx.clear();
        let candidates = if naive { n } else { self.awake.len() };
        let mut cursor = 0;
        for i in 0..candidates {
            // The naive loop walks every id and finds the awake ones by
            // a merge against the (sorted) awake list.
            let (id, is_awake) = if naive {
                let hit = self.awake.get(cursor) == Some(&i);
                cursor += usize::from(hit);
                (i, hit)
            } else {
                (self.awake[i], true)
            };
            if let Some(plan) = &self.faults {
                if plan.crashed(id, slot) {
                    continue;
                }
            }
            let rng = &mut self.rngs[id];
            #[cfg(debug_assertions)]
            let before = (!is_awake).then(|| rng.clone());
            let mut action = self.nodes[id].begin_slot(id, slot, rng);
            let mut stays = is_awake;
            if let Action::SleepUntil(wake) = action {
                if is_awake && wake > slot + 1 {
                    if wake != u64::MAX {
                        self.calendar.file(slot, id, wake, n);
                    }
                    stays = false;
                    if !naive {
                        continue;
                    }
                }
                action = Action::Sleep;
            }
            // A dormant node's action still counts under naive: a
            // broken promise that slips past this check changes the
            // slot and shows up as a naive-vs-grid divergence.
            #[cfg(debug_assertions)]
            assert!(
                is_awake
                    || (matches!(action, Action::Sleep) && before.as_ref() == Some(&self.rngs[id])),
                "node {id} broke its dormancy promise in slot {slot}: \
                 a dormant begin_slot must sleep without drawing"
            );
            let role = match action {
                Action::Transmit { mut power, msg } => {
                    if let Some(plan) = &self.faults {
                        let factor = plan.power_factor(id, slot);
                        if factor != 1.0 {
                            power *= factor;
                        }
                    }
                    assert!(
                        power.is_finite() && power > 0.0,
                        "node {id} transmitted with invalid power {power} in slot {slot}"
                    );
                    ctx.transmitters.push((id, power));
                    ctx.msgs.push(msg);
                    Role::Transmit
                }
                Action::Listen => {
                    ctx.listeners.push(id);
                    Role::Listen
                }
                Action::Sleep | Action::SleepUntil(_) => Role::Sleep,
            };
            if stays {
                next.push(id);
            }
            ctx.ids.push(id);
            ctx.roles.push(role);
        }
        self.arena.next_awake = next;
    }

    /// Emits the armed plan's fault boundaries for `slot` while a
    /// recorder is active — for awake and dormant nodes alike, in node
    /// order, before any protocol callback.
    #[cfg(feature = "trace")]
    fn emit_fault_boundaries(&self, slot: u64) {
        if !crate::trace::is_active() {
            return;
        }
        let first = self.fault_boundaries.partition_point(|b| b.0 < slot);
        for &(_, node, kind) in self.fault_boundaries[first..]
            .iter()
            .take_while(|b| b.0 == slot)
        {
            crate::trace::emit(crate::trace::TraceEvent::FaultInjected { slot, node, kind });
        }
    }

    /// Phase 2 on the driving thread: every listener's decode, into the
    /// arena. A slot nobody transmits in decodes nothing.
    fn resolve_serial(&mut self, ctx: &SlotCtx<'a, P::Msg>) {
        let scratch = &mut self.scratch;
        #[cfg(feature = "profile")]
        scratch.enable_timing(crate::profile::is_active());
        let decoded = &mut self.arena.decoded;
        decoded.clear();
        if ctx.transmitters.is_empty() {
            decoded.resize(ctx.listeners.len(), None);
        } else {
            ctx.decode(0..ctx.listeners.len(), scratch, decoded);
        }
        let stats = std::mem::take(&mut scratch.stats);
        let times = std::mem::take(&mut scratch.times);
        self.absorb_field_stats(stats, times, &ctx.replayed);
    }

    /// Phase 2 across the pool: broadcast the slot context to every
    /// worker, then merge the decode chunks in listener order.
    fn resolve_pooled(&mut self, pool: &SlotPool<'a, P::Msg>, ctx: &Arc<SlotCtx<'a, P::Msg>>) {
        let threads = pool.threads();
        let mut worker_outs = std::mem::take(&mut self.arena.worker_outs);
        worker_outs.resize_with(threads, Vec::new);
        for (w, out) in worker_outs.drain(..).enumerate() {
            pool.send(w, (Arc::clone(ctx), out));
        }
        let mut chunks = std::mem::take(&mut self.arena.chunks);
        chunks.clear();
        chunks.resize_with(threads, || None);
        let mut slot_stats = QueryStats::default();
        let mut slot_times = PhaseTimes::default();
        for _ in 0..threads {
            let (w, (out, stats, times)) = pool.recv();
            slot_stats.merge(&stats);
            slot_times.merge(&times);
            chunks[w] = Some(out);
        }
        let decoded = &mut self.arena.decoded;
        decoded.clear();
        for c in chunks.iter_mut() {
            let mut out = c.take().expect("every worker reports each slot");
            // `append` drains `out` but keeps its capacity for the next
            // slot's job.
            decoded.append(&mut out);
            worker_outs.push(out);
        }
        self.arena.worker_outs = worker_outs;
        self.arena.chunks = chunks;
        self.absorb_field_stats(slot_stats, slot_times, &ctx.replayed);
    }

    /// Merges one slot's decode-path counters into the cumulative
    /// [`field_stats`](Self::field_stats) and, when a profiling
    /// registry is active, records the phase times and decision counts
    /// it captured, with the number of listeners the replay memo
    /// answered (`replayed`) beside the field's queries.
    fn absorb_field_stats(
        &mut self,
        stats: QueryStats,
        times: PhaseTimes,
        replayed: &[Option<Option<NodeId>>],
    ) {
        #[cfg(feature = "profile")]
        if crate::profile::is_active() {
            crate::profile::record("near-field", times.near_field.as_secs_f64());
            crate::profile::record("far-field-cert", times.far_field_cert.as_secs_f64());
            crate::profile::record("fallback", times.fallback.as_secs_f64());
            crate::profile::record("queries", stats.queries as f64);
            let answered = replayed.iter().flatten().count();
            crate::profile::record("replayed", answered as f64);
            crate::profile::record("certified", stats.certified as f64);
            crate::profile::record("fallbacks", stats.fallbacks as f64);
            crate::profile::record("straddles", stats.straddles as f64);
            crate::profile::record("rings", stats.rings as f64);
        }
        #[cfg(not(feature = "profile"))]
        let _ = (&times, replayed);
        self.field_stats.merge(&stats);
    }

    /// Phase 3 plus slot bookkeeping, shared by the serial and pooled
    /// loops: reception faults, the report, and each stepped node's
    /// outcome, built in id order just before its `end_slot`.
    fn finish_slot(&mut self, ctx: &SlotCtx<'a, P::Msg>) -> SlotReport {
        let slot = self.slot;
        let mut decoded = std::mem::take(&mut self.arena.decoded);
        // Reception faults land here, before decodes are counted,
        // digested or delivered: a deaf or dropping listener's decode
        // is cleared on the driving thread, identically on every
        // backend (the workers resolved the physical channel; whether
        // the *node* hears it is the plan's call).
        if let (true, Some(plan)) = (self.reception_faults, &self.faults) {
            for (&id, from) in ctx.listeners.iter().zip(decoded.iter_mut()) {
                if from.is_some() && (plan.deaf(id, slot) || plan.drops_reception(id, slot)) {
                    #[cfg(feature = "trace")]
                    if crate::trace::is_active() {
                        crate::trace::emit(crate::trace::TraceEvent::FaultInjected {
                            slot,
                            node: id,
                            kind: "reception-drop",
                        });
                    }
                    *from = None;
                }
            }
        }
        let receptions = decoded.iter().filter(|from| from.is_some()).count();
        let report = SlotReport {
            slot,
            transmissions: ctx.transmitters.len(),
            receptions,
            idle_listeners: ctx.listeners.len() - receptions,
        };
        #[cfg(feature = "trace")]
        self.trace_slot(ctx, &decoded, &report);
        // The naive reference checks that a dormant node's `end_slot`
        // draws nothing: a stepped node is dormant when it does not
        // stay awake into the next slot.
        #[cfg(debug_assertions)]
        let check_dormant = self.backend == EngineBackend::Naive;
        #[cfg(debug_assertions)]
        let mut cursor = 0;
        let mut heard = decoded.iter().copied();
        for (&id, &role) in ctx.ids.iter().zip(&ctx.roles) {
            let outcome = match role {
                Role::Transmit => SlotOutcome::Transmitted,
                Role::Sleep => SlotOutcome::Slept,
                Role::Listen => match heard.next().expect("one decode per listener") {
                    Some(from) => SlotOutcome::Received(ctx.reception(from, id)),
                    None => SlotOutcome::Idle,
                },
            };
            #[cfg(debug_assertions)]
            let before = if check_dormant {
                let stays = self.arena.next_awake.get(cursor) == Some(&id);
                cursor += usize::from(stays);
                (!stays).then(|| self.rngs[id].clone())
            } else {
                None
            };
            self.nodes[id].end_slot(id, slot, outcome, &mut self.rngs[id]);
            #[cfg(debug_assertions)]
            assert!(
                before.map_or(true, |rng| rng == self.rngs[id]),
                "node {id} broke its dormancy promise in slot {slot}: \
                 a dormant end_slot must not draw"
            );
        }
        self.arena.decoded = decoded;
        self.wake_due(slot + 1);
        self.slot += 1;
        self.stats.slots += 1;
        self.stats.transmissions += report.transmissions as u64;
        self.stats.receptions += report.receptions as u64;
        report
    }

    /// Records one slot's transmit / receive events and its digest while
    /// a recorder is active. Strictly observational: everything recorded
    /// here was computed regardless, so the traced and untraced runs are
    /// byte-identical (the trace gates pin this). The digest folds every
    /// node's outcome in id order, with a transmitter's power and a
    /// listener's sender and distance, and a `Slept` token for each node
    /// the slot did not step — `O(n)`, but only while tracing.
    #[cfg(feature = "trace")]
    fn trace_slot(
        &self,
        ctx: &SlotCtx<'a, P::Msg>,
        decoded: &[Option<NodeId>],
        report: &SlotReport,
    ) {
        use crate::snapshot::Fnv1a;
        use crate::trace::TraceEvent;
        if !crate::trace::is_active() {
            return;
        }
        let slot = self.slot;
        for &(node, power) in &ctx.transmitters {
            crate::trace::emit(TraceEvent::Transmit {
                slot,
                node,
                power: power.to_bits(),
            });
        }
        let mut fnv = Fnv1a::default();
        // The stepped nodes and both role lists run in id order.
        let mut powers = ctx.transmitters.iter().map(|&(_, power)| power);
        let mut heard = decoded.iter().copied();
        let mut stepped = ctx.ids.iter().zip(&ctx.roles).peekable();
        for node in 0..self.nodes.len() {
            let Some((_, role)) = stepped.next_if(|&(&id, _)| id == node) else {
                fnv.write_u64(4);
                continue;
            };
            match role {
                Role::Listen => match heard.next().expect("one decode per listener") {
                    Some(from) => {
                        crate::trace::emit(TraceEvent::Receive { slot, node, from });
                        fnv.write_u64(1);
                        fnv.write_u64(from as u64);
                        fnv.write_u64(self.instance.distance(from, node).to_bits());
                    }
                    None => fnv.write_u64(2),
                },
                Role::Transmit => {
                    let power = powers.next().expect("every transmitter has a power");
                    fnv.write_u64(3);
                    fnv.write_u64(power.to_bits());
                }
                Role::Sleep => fnv.write_u64(4),
            }
        }
        crate::trace::emit(TraceEvent::SlotDigest {
            slot,
            transmissions: report.transmissions as u32,
            receptions: report.receptions as u32,
            idle: report.idle_listeners as u32,
            outcomes_fnv: fnv.finish(),
        });
    }

    /// Builds the awake list for `slot`: the nodes that stayed awake
    /// through the slot just finished, merged in id order with the
    /// calendar's wake-ups for `slot`.
    fn wake_due(&mut self, slot: u64) {
        let due = self.calendar.drain(slot);
        let stays = &mut self.arena.next_awake;
        if due.is_empty() {
            // Phase 1 clears the old list before it drafts the next.
            std::mem::swap(&mut self.awake, stays);
            return;
        }
        self.awake.clear();
        let mut stays_iter = stays.iter().copied().peekable();
        for &id in due {
            while let Some(v) = stays_iter.next_if(|&v| v < id) {
                self.awake.push(v);
            }
            self.awake.push(id);
        }
        self.awake.extend(stays_iter);
    }

    /// Runs `slots` slots unconditionally.
    pub fn run(&mut self, slots: u64) {
        self.run_loop(slots, &mut |_| false, &mut |_| {});
    }

    /// Runs until `done` returns true (checked after each slot) or
    /// `max_slots` have executed; returns the number of slots executed.
    ///
    /// `done` sees the whole engine: a rule that reads only
    /// [`awake_nodes`](Self::awake_nodes) costs `O(awake)` per slot,
    /// one that scans [`nodes`](Self::nodes) costs `O(n)`.
    pub fn run_until(&mut self, max_slots: u64, mut done: impl FnMut(&Self) -> bool) -> u64 {
        self.run_loop(max_slots, &mut done, &mut |_| {})
    }

    /// Runs `slots` slots and collects every [`SlotReport`], through
    /// the same (pooled, for [`EngineBackend::Parallel`]) loop as
    /// [`run`](Self::run) — the per-slot instrumentation hook of the
    /// scaling experiments.
    pub fn run_reports(&mut self, slots: u64) -> Vec<SlotReport> {
        let mut reports = Vec::with_capacity(slots as usize);
        self.run_loop(slots, &mut |_| false, &mut |r| reports.push(r));
        reports
    }

    /// The shared batch loop. Serial backends (and small engines) step
    /// one slot at a time; the parallel backend keeps a
    /// [`with_pool`](crate::pool::with_pool) worker pool alive across
    /// the whole run, shares the engine's [`SlotCtx`] with every worker
    /// through one `Arc` for the run, refilled between slots, and
    /// merges each large slot's decode chunks in listener order.
    /// Protocol state, RNG streams and outcomes never leave this
    /// thread, so the observable behavior — every float bit included —
    /// is the serial loop's. A panic on either side — a worker's,
    /// which travels back through the pool's result channel, or this
    /// thread's own, such as a payload's `Clone` while phase 3 builds
    /// an outcome — ends the pool and resumes here with its original
    /// payload instead of deadlocking the dispatcher.
    fn run_loop(
        &mut self,
        max_slots: u64,
        done: &mut dyn FnMut(&Self) -> bool,
        on_report: &mut dyn FnMut(SlotReport),
    ) -> u64 {
        let n = self.nodes.len();
        let threads = self.backend.worker_threads().min(n.max(1));
        let start = self.slot;
        if threads <= 1 || n < PARALLEL_MIN_NODES {
            while self.slot - start < max_slots {
                let report = self.step();
                on_report(report);
                if done(self) {
                    break;
                }
            }
            return self.slot - start;
        }

        // Workers time their own decode phases and return the counters
        // with each chunk; the driving thread merges and records them,
        // so a profiled parallel run reports CPU time across the pool.
        #[cfg(feature = "profile")]
        let profiling = crate::profile::is_active();
        #[cfg(not(feature = "profile"))]
        let profiling = false;
        with_pool(
            threads,
            move |_| {
                let mut scratch = FieldScratch::default();
                scratch.enable_timing(profiling);
                scratch
            },
            move |w, scratch, (ctx, mut out): SlotJob<'a, P::Msg>| {
                // The shard is a contiguous run of the listener list.
                let len = ctx.listeners.len();
                let chunk = len.div_ceil(threads);
                let base = (w * chunk).min(len);
                let end = (base + chunk).min(len);
                out.clear();
                ctx.decode(base..end, scratch, &mut out);
                let stats = std::mem::take(&mut scratch.stats);
                let times = std::mem::take(&mut scratch.times);
                (out, stats, times)
            },
            |pool| {
                // The workers share the engine's context for the run.
                let ctx = self.ctx.take().unwrap_or_else(|| Box::new(self.new_ctx()));
                let mut shared = Arc::new(*ctx);
                while self.slot - start < max_slots {
                    let report = self.step_pooled(pool, &mut shared);
                    on_report(report);
                    if done(self) {
                        break;
                    }
                }
                self.ctx = Arc::into_inner(shared).map(Box::new);
            },
        );
        self.slot - start
    }
}

#[cfg(feature = "serde")]
impl<'a, P: Protocol> Engine<'a, P> {
    /// Captures the engine's complete mutable state — next slot,
    /// statistics, every protocol state and every RNG stream — at the
    /// current slot boundary (feature `serde`).
    ///
    /// Restoring the snapshot with [`restore`](Self::restore) and the
    /// same immutable inputs resumes a run whose remaining slots are
    /// bit-identical to the uninterrupted original. The wake calendar
    /// is derived state and is not captured.
    pub fn snapshot(&self) -> crate::snapshot::EngineSnapshot
    where
        P: serde::Serialize,
    {
        crate::snapshot::EngineSnapshot {
            slot: self.slot,
            stats: self.stats,
            nodes: self.nodes.iter().map(serde::Serialize::to_value).collect(),
            rngs: self.rngs.iter().map(serde::Serialize::to_value).collect(),
        }
    }

    /// Reconstructs an engine from a snapshot plus the run's immutable
    /// inputs (feature `serde`). The backend need not match the
    /// original's: by the determinism contract every backend produces
    /// the same bytes, so a snapshot taken under `Grid` replays
    /// identically under `Parallel` — a property the trace gates use to
    /// cross-check backends from a common mid-run state.
    ///
    /// The restored engine wakes every node for its first slot, and
    /// each dormant node declares its hint again (the dormancy promise
    /// makes that slot a no-op for it), which rebuilds the calendar.
    ///
    /// # Errors
    ///
    /// Fails if any node or RNG value does not deserialize, or if the
    /// snapshot's node count disagrees with `instance`.
    pub fn restore(
        params: &'a SinrParams,
        instance: &'a Instance,
        snapshot: &crate::snapshot::EngineSnapshot,
        backend: EngineBackend,
    ) -> Result<Self, serde::Error>
    where
        P: serde::de::DeserializeOwned,
    {
        if snapshot.nodes.len() != instance.len() || snapshot.rngs.len() != instance.len() {
            return Err(serde::Error::custom(format!(
                "snapshot holds {} nodes / {} RNG streams, instance has {}",
                snapshot.nodes.len(),
                snapshot.rngs.len(),
                instance.len()
            )));
        }
        let nodes = snapshot
            .nodes
            .iter()
            .map(P::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let rngs = snapshot
            .rngs
            .iter()
            .map(<StdRng as serde::Deserialize>::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let mut engine = Self::assemble(params, instance, nodes, rngs, backend);
        engine.slot = snapshot.slot;
        engine.stats = snapshot.stats;
        Ok(engine)
    }
}

/// The role a stepped node plays in the slot being resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Transmit,
    Listen,
    Sleep,
}

/// The channel context of the slot being resolved, as role lists: the
/// stepped nodes in ascending id order with a role each, the
/// transmitters and the listeners in the same order, the listeners the
/// replay memo answers and — for the grid backends — the slot's
/// [`InterferenceField`]. An engine keeps one for its whole life and
/// refills it in place every slot, so a slot moves no struct and
/// allocates nothing once its buffers have grown (DESIGN.md §12.2).
/// The pooled loop shares it read-only across workers via [`Arc`];
/// [`SlotCtx::decode`] is the *single* per-listener resolution both the
/// serial and the pooled loop run, which is what makes their outputs
/// byte-identical by construction.
struct SlotCtx<'a, M> {
    params: &'a SinrParams,
    instance: &'a Instance,
    /// The stepped node ids, ascending.
    ids: Vec<NodeId>,
    /// `roles[k]` is node `ids[k]`'s role.
    roles: Vec<Role>,
    /// The transmitters, ascending, with the powers they send at.
    transmitters: Vec<(NodeId, f64)>,
    /// `msgs[t]` is the payload `transmitters[t]` sends.
    msgs: Vec<M>,
    /// The listeners, ascending.
    listeners: Vec<NodeId>,
    /// The grid backends' field (`None` on the naive backend). It holds
    /// this slot's transmitters only when `field_live`.
    field: Option<InterferenceField<'a>>,
    /// Whether the field was refilled for this slot: some listener
    /// needs a query. A slot nobody transmits in, nobody listens in, or
    /// whose listeners the memo answers in full skips the refill.
    field_live: bool,
    /// The memo entry the slot's transmitter list sighted, if its
    /// decodes are to be recorded ([`ReplayMemo::sight`]).
    entry: Option<u32>,
    /// Empty, or `replayed[j]` is the memo's answer for `listeners[j]`:
    /// `Some(decoded sender)` for a recorded listener, `None` for one
    /// the field resolves.
    replayed: Vec<Option<Option<NodeId>>>,
}

impl<'a, M: Clone> SlotCtx<'a, M> {
    /// An empty context for an engine on `backend`.
    fn new(params: &'a SinrParams, instance: &'a Instance, backend: EngineBackend) -> Self {
        SlotCtx {
            params,
            instance,
            ids: Vec::new(),
            roles: Vec::new(),
            transmitters: Vec::new(),
            msgs: Vec::new(),
            listeners: Vec::new(),
            field: (backend != EngineBackend::Naive)
                .then(|| InterferenceField::build(params, instance, &[])),
            field_live: false,
            entry: None,
            replayed: Vec::new(),
        }
    }

    /// Empties the role lists for the next slot's phase 1.
    fn clear(&mut self) {
        self.ids.clear();
        self.roles.clear();
        self.transmitters.clear();
        self.msgs.clear();
        self.listeners.clear();
    }

    /// Derives the slot's channel state from the role lists phase 1
    /// wrote: the listeners `memo` answers (when the transmitter list is
    /// one it has recorded), then the field, when a listener is left to
    /// query.
    fn refill(&mut self, memo: Option<&mut ReplayMemo>) {
        self.field_live = false;
        self.entry = None;
        self.replayed.clear();
        let Some(field) = &mut self.field else {
            return;
        };
        if self.transmitters.is_empty() || self.listeners.is_empty() {
            return;
        }
        let mut unanswered = self.listeners.len();
        if let Some(memo) = memo {
            self.entry = memo.sight(&self.transmitters);
            if let Some(entry) = self.entry {
                unanswered -= memo.replay(entry, &self.listeners, &mut self.replayed);
            }
        }
        if unanswered > 0 {
            field
                .refill(&self.transmitters)
                .expect("a stepped node acts once per slot");
            self.field_live = true;
        }
    }

    /// Phase 2 for the listeners `range` of [`listeners`](Self::listeners):
    /// appends each one's decoded sender to `out` — the memo's answer,
    /// else the live field's, else the exact decode (the naive backend).
    fn decode(
        &self,
        range: Range<usize>,
        scratch: &mut FieldScratch,
        out: &mut Vec<Option<NodeId>>,
    ) {
        out.extend(range.map(|j| {
            let id = self.listeners[j];
            match (self.replayed.get(j), &self.field) {
                (Some(&Some(decoded)), _) => decoded,
                (_, Some(f)) if self.field_live => f.decode_best_with(id, scratch),
                _ => decode_best_exact(self.params, self.instance, id, &self.transmitters),
            }
        }));
    }

    /// What `listener` receives from `from`, the transmitter it decoded.
    fn reception(&self, from: NodeId, listener: NodeId) -> Reception<M> {
        let t = self
            .transmitters
            .binary_search_by_key(&from, |&(id, _)| id)
            .expect("decoded node is a transmitter");
        Reception {
            from,
            msg: self.msgs[t].clone(),
            distance: self.instance.distance(from, listener),
        }
    }
}

/// Stored hashes, stored transmitter pairs and recorded listeners are
/// each capped at this many per node of the engine (DESIGN.md §8.7).
/// One heartbeat cycle of the failure detector records at most
/// `2(n − 1)` listeners, so the memo holds a recording cycle and as
/// much again before a cap clears it.
const MEMO_PER_NODE: usize = 4;

/// [`ReplayMemo::index`] value of a list sighted once.
const SEEN_ONCE: u32 = u32::MAX;

/// [`ReplayMemo::records`] value of a listener that decoded nothing.
const DECODED_NOTHING: u32 = u32::MAX;

/// The grid backends' replay memo (DESIGN.md §8.7): the decodes of the
/// transmitter lists the engine has seen before, keyed by the list —
/// `(id, power bits)` pairs in ascending id, as in
/// [`SlotCtx::transmitters`].
///
/// A decode is a pure function of the parameters, the instance, the
/// list and the listener (fades are keyed by position; crashes and
/// power degrades change the list; deafness and drops act after the
/// decode), so a recorded answer is the field's answer. A list's first
/// sighting keeps only its 64-bit hash; the second stores the list and
/// records each listener's decode; every later sighting compares the
/// stored list in full, so a hash collision cannot alias two lists,
/// replays the recorded listeners and records the rest. Which slots
/// replay depends only on the slot sequence, so every counter repeats
/// exactly.
struct ReplayMemo {
    /// Every hashed list: [`SEEN_ONCE`], or the index of its entry.
    index: HashMap<u64, u32, BuildHasherDefault<MixHasher>>,
    /// The stored lists, concatenated.
    lists: Vec<(NodeId, f64)>,
    /// Entry `e`'s list ends at `ends[e]` and starts where entry
    /// `e − 1`'s ends.
    ends: Vec<usize>,
    /// Recorded decodes keyed by `entry << 32 | listener`: the decoded
    /// sender, or [`DECODED_NOTHING`].
    records: HashMap<u64, u32, BuildHasherDefault<MixHasher>>,
    /// The cap on each of `index`, `lists` and `records`.
    cap: usize,
    /// Listeners answered from the memo, over the engine's life.
    replayed: u64,
}

impl ReplayMemo {
    /// The memo of an `n`-node engine on `backend`: none on the naive
    /// reference, nor where its caps would overflow its `u32` keys.
    fn for_backend(backend: EngineBackend, n: usize) -> Option<Self> {
        let cap = MEMO_PER_NODE * n.max(1);
        (backend != EngineBackend::Naive && cap < u32::MAX as usize).then(|| ReplayMemo {
            index: HashMap::default(),
            lists: Vec::new(),
            ends: Vec::new(),
            records: HashMap::default(),
            cap,
            replayed: 0,
        })
    }

    /// Empties the memo; every buffer keeps its capacity.
    fn clear(&mut self) {
        self.index.clear();
        self.lists.clear();
        self.ends.clear();
        self.records.clear();
    }

    /// Entry `entry`'s stored list.
    fn list(&self, entry: u32) -> &[(NodeId, f64)] {
        let e = entry as usize;
        let start = if e == 0 { 0 } else { self.ends[e - 1] };
        &self.lists[start..self.ends[e]]
    }

    /// Sights a slot's non-empty transmitter list and returns the entry
    /// its decodes are recorded under: `None` at a first sighting (only
    /// the hash is kept) and when the stored list under its hash is
    /// another one. A second sighting stores the list as a new entry.
    /// A cap reached on the way clears the memo first, which makes the
    /// sighting a first one.
    fn sight(&mut self, list: &[(NodeId, f64)]) -> Option<u32> {
        let hash = list_hash(list);
        match self.index.get(&hash).copied() {
            None => {
                if self.index.len() >= self.cap {
                    self.clear();
                }
                self.index.insert(hash, SEEN_ONCE);
                None
            }
            Some(SEEN_ONCE) if self.lists.len() + list.len() > self.cap => {
                self.clear();
                self.index.insert(hash, SEEN_ONCE);
                None
            }
            Some(SEEN_ONCE) => {
                let entry = self.ends.len() as u32;
                self.lists.extend_from_slice(list);
                self.ends.push(self.lists.len());
                self.index.insert(hash, entry);
                Some(entry)
            }
            Some(entry) => {
                let stored = self.list(entry);
                let same = stored.len() == list.len()
                    && stored
                        .iter()
                        .zip(list)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
                same.then_some(entry)
            }
        }
    }

    /// Fills `replayed` with the recorded answers under `entry` for
    /// `listeners`; returns how many it found.
    fn replay(
        &mut self,
        entry: u32,
        listeners: &[NodeId],
        replayed: &mut Vec<Option<Option<NodeId>>>,
    ) -> usize {
        replayed.clear();
        replayed.extend(listeners.iter().map(|&id| {
            self.records
                .get(&record_key(entry, id))
                .map(|&from| (from != DECODED_NOTHING).then_some(from as NodeId))
        }));
        let hits = replayed.iter().flatten().count();
        self.replayed += hits as u64;
        hits
    }

    /// Records under `entry` the physical decode of every one of
    /// `listeners` that `replayed` did not answer. A record past the cap
    /// clears the memo instead.
    fn record(
        &mut self,
        entry: u32,
        listeners: &[NodeId],
        replayed: &[Option<Option<NodeId>>],
        decoded: &[Option<NodeId>],
    ) {
        for (j, (&id, from)) in listeners.iter().zip(decoded).enumerate() {
            if matches!(replayed.get(j), Some(Some(_))) {
                continue;
            }
            if self.records.len() >= self.cap {
                self.clear();
                return;
            }
            let from = from.map_or(DECODED_NOTHING, |from| from as u32);
            self.records.insert(record_key(entry, id), from);
        }
    }
}

/// The [`ReplayMemo::records`] key of `listener` under `entry`.
fn record_key(entry: u32, listener: NodeId) -> u64 {
    (u64::from(entry) << 32) | listener as u64
}

/// The 64-bit hash a transmitter list is first sighted by: every
/// `(id, power bits)` pair folded in order, then mixed.
fn list_hash(list: &[(NodeId, f64)]) -> u64 {
    let mut h = MixHasher(list.len() as u64);
    for &(id, power) in list {
        h.write_usize(id);
        h.write_u64(power.to_bits());
    }
    h.finish()
}

/// A multiply-xor hasher for the memo's keys, which are list hashes
/// and packed `(entry, listener)` pairs: deterministic, and cheaper
/// than the default SipHash for keys no adversary picks.
#[derive(Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        // murmur3's finalizer: every input bit reaches the low bits the
        // table indexes by and the high bits it tags by.
        let mut k = self.0;
        k ^= k >> 33;
        k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
        k ^= k >> 33;
        k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        k ^ (k >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geom::gen;

    /// Every node transmits unconditionally with the given power.
    #[derive(Debug)]
    struct AlwaysTx(f64);
    impl Protocol for AlwaysTx {
        type Msg = ();
        fn begin_slot(&mut self, _: NodeId, _: u64, _: &mut StdRng) -> Action<()> {
            Action::Transmit {
                power: self.0,
                msg: (),
            }
        }
        fn end_slot(&mut self, _: NodeId, _: u64, _: SlotOutcome<()>, _: &mut StdRng) {}
    }

    /// Node `tx` transmits every slot; others listen, count decodes and
    /// keep the last sender heard.
    #[derive(Debug)]
    struct OneTx {
        tx: NodeId,
        power: f64,
        decoded: usize,
        last_from: Option<NodeId>,
    }
    impl Protocol for OneTx {
        type Msg = u64;
        fn begin_slot(&mut self, node: NodeId, slot: u64, _: &mut StdRng) -> Action<u64> {
            if node == self.tx {
                Action::Transmit {
                    power: self.power,
                    msg: slot,
                }
            } else {
                Action::Listen
            }
        }
        fn end_slot(&mut self, _: NodeId, _: u64, o: SlotOutcome<u64>, _: &mut StdRng) {
            if let SlotOutcome::Received(r) = o {
                self.decoded += 1;
                self.last_from = Some(r.from);
            }
        }
    }

    #[test]
    fn lone_transmitter_reaches_everyone() {
        let params = SinrParams::default();
        let inst = gen::line(5).unwrap();
        let power = params.min_power_for_length(inst.delta()) * 10.0;
        let mut engine = Engine::new(
            &params,
            &inst,
            |_| OneTx {
                tx: 0,
                power,
                decoded: 0,
                last_from: None,
            },
            1,
        );
        let report = engine.step();
        assert_eq!(report.transmissions, 1);
        assert_eq!(report.receptions, 4);
        for (id, node) in engine.nodes().iter().enumerate() {
            if id != 0 {
                assert_eq!(node.decoded, 1);
                assert_eq!(node.last_from, Some(0));
            }
        }
    }

    #[test]
    fn transmitters_hear_nothing() {
        let params = SinrParams::default();
        let inst = gen::line(2).unwrap();
        let mut engine = Engine::new(&params, &inst, |_| AlwaysTx(100.0), 2);
        let report = engine.step();
        assert_eq!(report.transmissions, 2);
        assert_eq!(report.receptions, 0);
    }

    #[test]
    fn interference_blocks_decoding() {
        let params = SinrParams::default();
        // Listener at the midpoint of two equal-power transmitters:
        // equal signal ⇒ SINR ≈ 1 < β = 2 ⇒ no decode.
        let inst = sinr_geom::Instance::new(vec![
            sinr_geom::Point::new(0.0, 0.0),
            sinr_geom::Point::new(2.0, 0.0),
            sinr_geom::Point::new(1.0, 0.0),
        ])
        .unwrap();
        #[derive(Debug)]
        struct Mid {
            got: bool,
        }
        impl Protocol for Mid {
            type Msg = ();
            fn begin_slot(&mut self, node: NodeId, _: u64, _: &mut StdRng) -> Action<()> {
                if node == 2 {
                    Action::Listen
                } else {
                    Action::Transmit {
                        power: 1000.0,
                        msg: (),
                    }
                }
            }
            fn end_slot(&mut self, _: NodeId, _: u64, o: SlotOutcome<()>, _: &mut StdRng) {
                if matches!(o, SlotOutcome::Received(_)) {
                    self.got = true;
                }
            }
        }
        let mut engine = Engine::new(&params, &inst, |_| Mid { got: false }, 3);
        engine.step();
        assert!(!engine.nodes()[2].got, "midpoint listener must be jammed");
    }

    #[test]
    fn sleeping_nodes_do_nothing() {
        let params = SinrParams::default();
        let inst = gen::line(3).unwrap();
        #[derive(Debug)]
        struct Sleepy;
        impl Protocol for Sleepy {
            type Msg = ();
            fn begin_slot(&mut self, _: NodeId, _: u64, _: &mut StdRng) -> Action<()> {
                Action::Sleep
            }
            fn end_slot(&mut self, _: NodeId, _: u64, o: SlotOutcome<()>, _: &mut StdRng) {
                assert_eq!(o, SlotOutcome::Slept);
            }
        }
        let mut engine = Engine::new(&params, &inst, |_| Sleepy, 4);
        let report = engine.step();
        assert_eq!(report.transmissions, 0);
        assert_eq!(report.receptions, 0);
        assert_eq!(report.idle_listeners, 0);
    }

    /// The backends are observably identical: same reports, same
    /// protocol states, same decoded senders and distances to the bit.
    #[test]
    fn backends_are_bit_identical() {
        let params = SinrParams::default();

        /// `(slot, from, distance bits)`.
        type ReceptionRecord = (u64, NodeId, u64);

        #[derive(Debug, Default)]
        struct Recorder {
            receptions: Vec<ReceptionRecord>,
        }
        impl Protocol for Recorder {
            type Msg = ();
            fn begin_slot(&mut self, _: NodeId, _: u64, rng: &mut StdRng) -> Action<()> {
                if rng.gen_bool(0.25) {
                    Action::Transmit {
                        power: 600.0,
                        msg: (),
                    }
                } else {
                    Action::Listen
                }
            }
            fn end_slot(&mut self, _: NodeId, slot: u64, o: SlotOutcome<()>, _: &mut StdRng) {
                if let SlotOutcome::Received(r) = o {
                    self.receptions.push((slot, r.from, r.distance.to_bits()));
                }
            }
        }

        // 80 nodes sit above PARALLEL_MIN_NODES and `run_reports` uses
        // the batch loop, so the parallel backends genuinely exercise
        // the worker pool here (when more than one core exists).
        for seed in [1u64, 7, 42] {
            let inst = gen::uniform_square(80, 1.5, seed).unwrap();
            let run = |backend| {
                let mut e =
                    Engine::with_backend(&params, &inst, |_| Recorder::default(), seed, backend);
                let reports = e.run_reports(12);
                let states: Vec<Vec<ReceptionRecord>> =
                    e.nodes().iter().map(|n| n.receptions.clone()).collect();
                (reports, e.stats(), states)
            };
            let naive = run(EngineBackend::Naive);
            for backend in [
                EngineBackend::Grid,
                EngineBackend::Parallel(1),
                EngineBackend::Parallel(2),
                EngineBackend::Parallel(4),
                EngineBackend::Parallel(0),
            ] {
                let other = run(backend);
                assert_eq!(naive.0, other.0, "seed {seed} {backend:?}: slot reports");
                assert_eq!(naive.1, other.1, "seed {seed} {backend:?}: stats");
                assert_eq!(naive.2, other.2, "seed {seed} {backend:?}: reception bits");
            }
        }
    }

    /// Fair-coin transmitter for the counter/profile tests below.
    #[derive(Debug)]
    struct CoinTx;
    impl Protocol for CoinTx {
        type Msg = ();
        fn begin_slot(&mut self, _: NodeId, _: u64, rng: &mut StdRng) -> Action<()> {
            if rng.gen_bool(0.3) {
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

    /// The decode-path counters accumulate across slots, satisfy the
    /// classification invariant, and agree between the serial and
    /// pooled grid loops (same decisions, per the bit-parity contract).
    #[test]
    fn field_stats_accumulate_and_agree_across_loops() {
        let params = SinrParams::default();
        let inst = gen::uniform_square(80, 1.5, 3).unwrap();
        let run = |backend| {
            let mut e = Engine::with_backend(&params, &inst, |_| CoinTx, 3, backend);
            e.run(10);
            e.field_stats()
        };
        let naive = run(EngineBackend::Naive);
        assert_eq!(
            naive,
            QueryStats::default(),
            "the naive backend never queries a field"
        );
        let grid = run(EngineBackend::Grid);
        assert!(grid.queries > 0, "grid loop answers decode queries");
        assert_eq!(
            grid.queries,
            grid.small_exact + grid.certified + grid.fallbacks,
            "every query is classified exactly once"
        );
        let pooled = run(EngineBackend::Parallel(2));
        assert_eq!(grid, pooled, "worker counters merge to the serial totals");
    }

    /// A profiled run records every engine phase plus the drained field
    /// phases, once per slot, on both loops; the counter phases tie out
    /// against [`Engine::field_stats`].
    #[cfg(feature = "profile")]
    #[test]
    fn profiled_run_records_slot_phases() {
        let params = SinrParams::default();
        let inst = gen::uniform_square(80, 1.5, 4).unwrap();
        for backend in [EngineBackend::Grid, EngineBackend::Parallel(2)] {
            crate::profile::start();
            let mut e = Engine::with_backend(&params, &inst, |_| CoinTx, 4, backend);
            e.run(6);
            let report = crate::profile::stop();
            for phase in [
                "build",
                "grid",
                "resolve",
                "merge",
                "near-field",
                "far-field-cert",
                "fallback",
                "queries",
                "replayed",
                "certified",
                "fallbacks",
                "rings",
            ] {
                let stats = report
                    .phase(phase)
                    .unwrap_or_else(|| panic!("{backend:?} records phase {phase}"));
                assert_eq!(stats.count, 6, "{backend:?} {phase}: one sample per slot");
            }
            assert_eq!(
                report.phase("queries").unwrap().total,
                e.field_stats().queries as f64,
                "{backend:?}: profiled query count matches the engine counters"
            );

            // A periodic protocol replays: queries and replays together
            // answer every listen.
            let inst = gen::uniform_square(160, 1.5, 31).unwrap();
            crate::profile::start();
            let mut e = Engine::with_backend(&params, &inst, |_| Beacons::default(), 4, backend);
            e.run(4 * BEACON_PERIOD);
            let report = crate::profile::stop();
            let total = |phase| report.phase(phase).unwrap().total;
            let listens: u64 = e.nodes().iter().map(|b| b.listens).sum();
            assert_eq!(report.phase("replayed").unwrap().count, 4 * BEACON_PERIOD);
            assert_eq!(total("queries"), e.field_stats().queries as f64);
            assert_eq!(total("replayed"), e.memo.as_ref().unwrap().replayed as f64);
            assert!(total("replayed") > 0.0, "{backend:?}: the rotation replays");
            assert_eq!(
                total("queries") + total("replayed"),
                listens as f64,
                "{backend:?}: every listen is queried or replayed"
            );
        }
    }

    #[test]
    fn backend_labels_and_parsing() {
        assert_eq!("naive".parse(), Ok(EngineBackend::Naive));
        assert_eq!("grid".parse(), Ok(EngineBackend::Grid));
        assert_eq!("parallel".parse(), Ok(EngineBackend::Parallel(0)));
        assert_eq!("parallel:3".parse(), Ok(EngineBackend::Parallel(3)));
        assert!("parallel:x".parse::<EngineBackend>().is_err());
        assert!("threads".parse::<EngineBackend>().is_err());
        assert_eq!(EngineBackend::Parallel(7).label(), "parallel");
        assert_eq!(EngineBackend::Parallel(7).worker_threads(), 7);
        assert_eq!(EngineBackend::Grid.worker_threads(), 1);
        assert!(EngineBackend::Parallel(0).worker_threads() >= 1);
    }

    #[test]
    fn determinism_same_seed_same_stats() {
        let params = SinrParams::default();
        let inst = gen::uniform_square(30, 2.0, 5).unwrap();

        /// Random transmitter with p=1/2 per slot: exercises RNG streams.
        #[derive(Debug)]
        struct Coin {
            decodes: u64,
        }
        impl Protocol for Coin {
            type Msg = ();
            fn begin_slot(&mut self, _: NodeId, _: u64, rng: &mut StdRng) -> Action<()> {
                if rng.gen_bool(0.5) {
                    Action::Transmit {
                        power: 500.0,
                        msg: (),
                    }
                } else {
                    Action::Listen
                }
            }
            fn end_slot(&mut self, _: NodeId, _: u64, o: SlotOutcome<()>, _: &mut StdRng) {
                if matches!(o, SlotOutcome::Received(_)) {
                    self.decodes += 1;
                }
            }
        }

        let run = |seed| {
            let mut e = Engine::new(&params, &inst, |_| Coin { decodes: 0 }, seed);
            e.run(20);
            (
                e.stats(),
                e.nodes().iter().map(|n| n.decodes).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).1, run(10).1);
    }

    #[test]
    fn run_until_stops_early() {
        let params = SinrParams::default();
        let inst = gen::line(4).unwrap();
        let power = params.min_power_for_length(inst.delta()) * 10.0;
        let mut engine = Engine::new(
            &params,
            &inst,
            |_| OneTx {
                tx: 0,
                power,
                decoded: 0,
                last_from: None,
            },
            1,
        );
        let executed = engine.run_until(100, |e| e.nodes().iter().skip(1).all(|n| n.decoded >= 3));
        assert_eq!(executed, 3);
        assert_eq!(engine.slot(), 3);
    }

    #[test]
    fn reception_reports_sender_and_distance() {
        let params = SinrParams::default();
        let inst = gen::line(3).unwrap();
        #[derive(Debug, Default)]
        struct Probe {
            rec: Option<Reception<()>>,
        }
        impl Protocol for Probe {
            type Msg = ();
            fn begin_slot(&mut self, node: NodeId, _: u64, _: &mut StdRng) -> Action<()> {
                if node == 0 {
                    Action::Transmit {
                        power: 1e4,
                        msg: (),
                    }
                } else {
                    Action::Listen
                }
            }
            fn end_slot(&mut self, _: NodeId, _: u64, o: SlotOutcome<()>, _: &mut StdRng) {
                if let SlotOutcome::Received(r) = o {
                    self.rec = Some(r);
                }
            }
        }
        let mut engine = Engine::new(&params, &inst, |_| Probe::default(), 0);
        engine.step();
        let r = engine.nodes()[1]
            .rec
            .clone()
            .expect("node 1 decodes node 0");
        assert_eq!(r.from, 0);
        assert_eq!(r.distance, 1.0);
    }

    /// A payload that names its sender and its slot.
    type Stamp = (NodeId, u64);

    /// A logged reception: `(slot, sender, distance bits, payload)`.
    type Heard = (u64, NodeId, u64, Stamp);

    /// Coin-flip recorder used by the fault gates below: every
    /// observable (actions drawn from the RNG, receptions as `(slot,
    /// from, distance bits, payload)`, the number of `begin_slot` calls)
    /// is recorded so freezes and suppressions are visible. A
    /// transmitter sends its [`Stamp`].
    #[derive(Debug, Default, Clone, PartialEq)]
    struct FaultProbe {
        begins: u64,
        log: Vec<Heard>,
        idles: u64,
    }
    impl Protocol for FaultProbe {
        type Msg = Stamp;
        fn begin_slot(&mut self, node: NodeId, slot: u64, rng: &mut StdRng) -> Action<Stamp> {
            self.begins += 1;
            if rng.gen_bool(0.3) {
                Action::Transmit {
                    power: 900.0,
                    msg: (node, slot),
                }
            } else {
                Action::Listen
            }
        }
        fn end_slot(&mut self, _: NodeId, slot: u64, o: SlotOutcome<Stamp>, _: &mut StdRng) {
            match o {
                SlotOutcome::Received(r) => {
                    self.log.push((slot, r.from, r.distance.to_bits(), r.msg))
                }
                SlotOutcome::Idle => self.idles += 1,
                _ => {}
            }
        }
    }

    fn fault_probe_run(
        inst: &Instance,
        seed: u64,
        backend: EngineBackend,
        plan: Option<crate::faults::FaultPlan>,
    ) -> (Vec<SlotReport>, EngineStats, Vec<FaultProbe>) {
        let params = SinrParams::default();
        let mut e = Engine::with_backend(&params, inst, |_| FaultProbe::default(), seed, backend);
        if let Some(plan) = plan {
            e.arm_faults(plan);
        }
        let reports = e.run_reports(12);
        (reports, e.stats(), e.nodes().to_vec())
    }

    /// An armed **empty** plan takes the faulted code path but must
    /// change nothing: same reports, states and reception bits as no
    /// plan at all, on every backend.
    #[test]
    fn empty_fault_plan_is_byte_identical_to_no_plan() {
        let inst = gen::uniform_square(80, 1.5, 21).unwrap();
        for backend in [
            EngineBackend::Naive,
            EngineBackend::Grid,
            EngineBackend::Parallel(2),
        ] {
            let bare = fault_probe_run(&inst, 5, backend, None);
            let empty = fault_probe_run(
                &inst,
                5,
                backend,
                Some(crate::faults::FaultPlan::new(inst.len(), 123)),
            );
            assert_eq!(bare, empty, "{backend:?}: empty plan must be inert");
        }
    }

    /// The fault gates' random mix of crashes, deafness, drops and
    /// degrades.
    fn probe_plan(n: usize) -> crate::faults::FaultPlan {
        use crate::faults::{FaultMix, FaultPlan};
        FaultPlan::random(
            n,
            0xFA_017,
            &FaultMix {
                crash: 0.1,
                deafness: 0.15,
                drop: 0.15,
                degrade: 0.1,
                horizon: 12,
            },
        )
    }

    /// The fault-determinism parity gate: one random fault mix,
    /// identical bytes on naive / grid / parallel at several thread
    /// counts.
    #[test]
    fn fault_plan_is_bit_identical_across_backends() {
        let inst = gen::uniform_square(80, 1.5, 22).unwrap();
        let plan = probe_plan(inst.len());
        assert!(!plan.is_empty(), "the mix must actually schedule faults");
        let naive = fault_probe_run(&inst, 6, EngineBackend::Naive, Some(plan.clone()));
        for backend in [
            EngineBackend::Grid,
            EngineBackend::Parallel(1),
            EngineBackend::Parallel(2),
            EngineBackend::Parallel(4),
        ] {
            let other = fault_probe_run(&inst, 6, backend, Some(plan.clone()));
            assert_eq!(naive, other, "{backend:?}: faulted run diverged");
        }
    }

    /// A crash-stop freezes the node: `begin_slot` stops being called
    /// (RNG stream frozen), outcomes stop being observed, and the
    /// node no longer transmits.
    #[test]
    fn crash_stop_freezes_protocol_state_and_rng() {
        use crate::faults::{FaultEvent, FaultPlan};
        let params = SinrParams::default();
        let inst = gen::line(4).unwrap();
        let mut plan = FaultPlan::new(4, 0);
        plan.push(1, FaultEvent::CrashStop { at: 3 });
        let mut e = Engine::new(&params, &inst, |_| FaultProbe::default(), 9);
        e.arm_faults(plan);
        e.run(10);
        assert_eq!(e.nodes()[1].begins, 3, "crashed after 3 begin_slot calls");
        assert_eq!(e.nodes()[0].begins, 10);
        assert!(
            e.nodes()[1].log.iter().all(|&(slot, ..)| slot < 3),
            "no receptions observed after the crash"
        );
    }

    /// Deafness and reception drops convert would-be receptions into
    /// `Idle` during exactly their windows.
    #[test]
    fn deafness_and_drop_suppress_receptions_in_their_windows() {
        use crate::faults::{FaultEvent, FaultPlan};

        /// Node 0 shouts every slot; listeners log decode slots.
        #[derive(Debug, Default)]
        struct Logger {
            decoded: Vec<u64>,
        }
        impl Protocol for Logger {
            type Msg = ();
            fn begin_slot(&mut self, node: NodeId, _: u64, _: &mut StdRng) -> Action<()> {
                if node == 0 {
                    Action::Transmit {
                        power: 1e4,
                        msg: (),
                    }
                } else {
                    Action::Listen
                }
            }
            fn end_slot(&mut self, _: NodeId, slot: u64, o: SlotOutcome<()>, _: &mut StdRng) {
                if matches!(o, SlotOutcome::Received(_)) {
                    self.decoded.push(slot);
                }
            }
        }

        let params = SinrParams::default();
        let inst = gen::line(3).unwrap();
        let mut plan = FaultPlan::new(3, 0);
        plan.push(1, FaultEvent::TransientDeafness { from: 2, until: 4 });
        plan.push(2, FaultEvent::ReceptionDrop { prob: 1.0, from: 5 });
        let mut e = Engine::new(&params, &inst, |_| Logger::default(), 3);
        e.arm_faults(plan);
        e.run(8);
        assert_eq!(e.nodes()[1].decoded, vec![0, 1, 4, 5, 6, 7], "deaf 2..4");
        assert_eq!(e.nodes()[2].decoded, vec![0, 1, 2, 3, 4], "drops from 5");
    }

    /// A (near-total) power degrade silences a transmitter from its
    /// onset slot: the listener stops decoding it.
    #[test]
    fn power_degrade_scales_the_chosen_transmit_power() {
        use crate::faults::{FaultEvent, FaultPlan};
        let params = SinrParams::default();
        let inst = gen::line(2).unwrap();
        let power = params.min_power_for_length(inst.delta()) * 4.0;
        let mut plan = FaultPlan::new(2, 0);
        plan.push(
            0,
            FaultEvent::PowerDegrade {
                factor: 1e-9,
                from: 3,
            },
        );
        let mut e = Engine::new(
            &params,
            &inst,
            |_| OneTx {
                tx: 0,
                power,
                decoded: 0,
                last_from: None,
            },
            1,
        );
        e.arm_faults(plan);
        e.run(8);
        assert_eq!(e.nodes()[1].decoded, 3, "decodes stop at the degrade onset");
    }

    #[test]
    #[should_panic(expected = "fault plan covers")]
    fn mismatched_fault_plan_is_rejected() {
        let params = SinrParams::default();
        let inst = gen::line(3).unwrap();
        let mut e = Engine::new(&params, &inst, |_| AlwaysTx(1.0), 0);
        e.arm_faults(crate::faults::FaultPlan::new(5, 0));
    }

    #[test]
    #[should_panic(expected = "invalid power")]
    fn invalid_power_panics() {
        let params = SinrParams::default();
        let inst = gen::line(2).unwrap();
        let mut engine = Engine::new(&params, &inst, |_| AlwaysTx(-1.0), 0);
        engine.step();
    }

    /// The pooled loop preserves panic payloads instead of wrapping
    /// (or worse, deadlocking on) them: the engine's own invalid-power
    /// panic surfaces verbatim from a parallel run.
    #[test]
    #[should_panic(expected = "invalid power")]
    fn invalid_power_panics_in_parallel_run() {
        let params = SinrParams::default();
        let inst = gen::uniform_square(80, 1.5, 1).unwrap();
        let mut engine = Engine::with_backend(
            &params,
            &inst,
            |_| AlwaysTx(-1.0),
            0,
            EngineBackend::Parallel(2),
        );
        engine.run(1);
    }

    /// Snapshot mid-run, keep running the original, restore the
    /// snapshot into a fresh engine (under a *different* backend), and
    /// the two tails must agree bit-for-bit.
    #[cfg(feature = "serde")]
    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        use serde::{Deserialize, Error, Serialize, Value};

        /// Coin-flip transmitter recording `(slot, from, distance
        /// bits)` per reception — with manual serde so it can ride a
        /// snapshot.
        #[derive(Debug, Clone, PartialEq)]
        struct Flip {
            log: Vec<(u64, NodeId, u64)>,
        }
        impl Protocol for Flip {
            type Msg = ();
            fn begin_slot(&mut self, _: NodeId, _: u64, rng: &mut StdRng) -> Action<()> {
                if rng.gen_bool(0.3) {
                    Action::Transmit {
                        power: 700.0,
                        msg: (),
                    }
                } else {
                    Action::Listen
                }
            }
            fn end_slot(&mut self, _: NodeId, slot: u64, o: SlotOutcome<()>, _: &mut StdRng) {
                if let SlotOutcome::Received(r) = o {
                    self.log.push((slot, r.from, r.distance.to_bits()));
                }
            }
        }
        impl Serialize for Flip {
            fn to_value(&self) -> Value {
                self.log.to_value()
            }
        }
        impl Deserialize for Flip {
            fn from_value(value: &Value) -> Result<Self, Error> {
                Ok(Flip {
                    log: Deserialize::from_value(value)?,
                })
            }
        }

        let params = SinrParams::default();
        let inst = gen::uniform_square(40, 1.5, 11).unwrap();
        let fresh =
            |backend| Engine::with_backend(&params, &inst, |_| Flip { log: vec![] }, 9, backend);

        let mut original = fresh(EngineBackend::Grid);
        original.run(6);
        let snap = original.snapshot();
        original.run(10);

        // The snapshot round-trips through the Value data model.
        let snap = crate::snapshot::EngineSnapshot::from_value(&serde::Serialize::to_value(&snap))
            .unwrap();
        let mut resumed: Engine<'_, Flip> =
            Engine::restore(&params, &inst, &snap, EngineBackend::Naive).unwrap();
        assert_eq!(resumed.slot(), 6);
        resumed.run(10);

        assert_eq!(original.slot(), resumed.slot());
        assert_eq!(original.stats(), resumed.stats());
        assert_eq!(original.nodes().to_vec(), resumed.nodes().to_vec());

        // Wrong instance size is rejected.
        let small = gen::line(3).unwrap();
        assert!(Engine::<Flip>::restore(&params, &small, &snap, EngineBackend::Grid).is_err());
    }

    /// With a recorder installed, the engine emits per-slot transmit /
    /// receive events plus a digest — and the run's outputs are the
    /// same as an untraced run's.
    #[cfg(feature = "trace")]
    #[test]
    fn traced_run_emits_events_without_changing_outputs() {
        use crate::trace::{self, TraceEvent};

        let params = SinrParams::default();
        let inst = gen::line(5).unwrap();
        let power = params.min_power_for_length(inst.delta()) * 10.0;
        let build = |seed| {
            Engine::new(
                &params,
                &inst,
                |_| OneTx {
                    tx: 0,
                    power,
                    decoded: 0,
                    last_from: None,
                },
                seed,
            )
        };

        let mut untraced = build(1);
        let plain = untraced.run_reports(3);

        trace::start(1 << 12);
        let mut traced = build(1);
        let reports = traced.run_reports(3);
        let log = trace::stop();

        assert_eq!(plain, reports, "tracing must not change outputs");
        assert_eq!(log.dropped, 0);
        let transmits = log
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Transmit { node: 0, .. }))
            .count();
        assert_eq!(transmits, 3, "node 0 transmits every slot");
        let digests: Vec<_> = log
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SlotDigest {
                    slot, receptions, ..
                } => Some((*slot, *receptions)),
                _ => None,
            })
            .collect();
        assert_eq!(digests, vec![(0, 4), (1, 4), (2, 4)]);
        assert!(log.events.iter().any(|e| matches!(
            e,
            TraceEvent::Receive {
                slot: 0,
                from: 0,
                ..
            }
        )));
    }

    /// A panic inside a live pool (here: a message whose `Clone` panics
    /// while phase 3 builds a reception on the driving thread, after
    /// the workers decoded the slot's 79 listeners) must propagate out
    /// of the pooled loop with its payload — not hang the dispatcher or
    /// leave a worker behind.
    #[test]
    #[should_panic(expected = "poison msg cloned")]
    fn worker_panic_propagates_from_parallel_run() {
        #[derive(Debug)]
        struct Poison;
        impl Clone for Poison {
            fn clone(&self) -> Self {
                panic!("poison msg cloned");
            }
        }

        #[derive(Debug)]
        struct Shout;
        impl Protocol for Shout {
            type Msg = Poison;
            fn begin_slot(&mut self, node: NodeId, _: u64, _: &mut StdRng) -> Action<Poison> {
                if node == 0 {
                    Action::Transmit {
                        power: 1e9,
                        msg: Poison,
                    }
                } else {
                    Action::Listen
                }
            }
            fn end_slot(&mut self, _: NodeId, _: u64, _: SlotOutcome<Poison>, _: &mut StdRng) {}
        }

        let params = SinrParams::default();
        let inst = gen::uniform_square(80, 1.5, 2).unwrap();
        let mut engine =
            Engine::with_backend(&params, &inst, |_| Shout, 0, EngineBackend::Parallel(2));
        engine.run(1);
    }

    /// The scripted naps of [`Drowsy`]: `(node, from, until)` is dormant
    /// over `from..until`, declared in slot `from`. Node 0 crashes at 10
    /// and is found crashed at 20; node 1 is deaf over 5..18, from inside
    /// its nap; node 2's power degrades from 6. Nodes 3–5 nap 255, 256
    /// and 257 slots, around the edge of the calendar's ring, and node
    /// 6 naps 3000 slots and crashes at 1000, inside the nap.
    const DROWSY_NAPS: [(NodeId, u64, u64); 7] = [
        (0, 3, 20),
        (1, 2, 15),
        (2, 4, 9),
        (3, 4, 4 + 255),
        (4, 4, 4 + 256),
        (5, 4, 4 + 257),
        (6, 5, 5 + 3000),
    ];

    /// Slots a dormancy run lasts: past the end of the longest nap.
    const DROWSY_SLOTS: u64 = 3100;

    /// A protocol that sleeps three ways: plain `Sleep`, `SleepUntil`
    /// (a declared nap, sometimes only one slot long) and retirement
    /// (`u64::MAX`). Its RNG draws (on awake begins and idle ends) and
    /// logs make every callback the engine makes or skips observable.
    /// The nodes of [`DROWSY_NAPS`] follow a script instead: node 2
    /// transmits and the others listen outside their nap, so faults
    /// provably land on dormant nodes and naps cross the calendar's
    /// ring.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Drowsy {
        log: Vec<(u64, NodeId, u64)>,
        idles: u64,
        /// Dormant before this slot; `u64::MAX` = retired.
        wake: u64,
        /// XOR of every idle-end draw.
        draws: u64,
    }

    impl Drowsy {
        /// Whether `node` is in the middle of a nap at `slot`: it
        /// declared one in an earlier slot, and the nap lasts past
        /// `slot`. Only the node's latest declaration matters.
        fn napping(&self, node: NodeId, slot: u64) -> bool {
            match DROWSY_NAPS.iter().find(|nap| nap.0 == node) {
                Some(&(_, from, until)) => from < slot && slot < until,
                None => slot < self.wake,
            }
        }
    }

    impl Protocol for Drowsy {
        type Msg = ();
        fn begin_slot(&mut self, node: NodeId, slot: u64, rng: &mut StdRng) -> Action<()> {
            if let Some(&(_, from, until)) = DROWSY_NAPS.iter().find(|nap| nap.0 == node) {
                return if (from..until).contains(&slot) {
                    Action::SleepUntil(until)
                } else if node == 2 {
                    Action::Transmit {
                        power: 900.0,
                        msg: (),
                    }
                } else {
                    Action::Listen
                };
            }
            if slot < self.wake {
                return Action::SleepUntil(self.wake);
            }
            match rng.gen_range(0..10u32) {
                0..=2 => Action::Transmit {
                    power: 900.0,
                    msg: (),
                },
                3..=5 => Action::Listen,
                6 => Action::Sleep,
                7 | 8 => {
                    self.wake = slot + 1 + rng.gen_range(0..5u64);
                    Action::SleepUntil(self.wake)
                }
                _ if slot > 10 => {
                    self.wake = u64::MAX;
                    Action::SleepUntil(u64::MAX)
                }
                _ => Action::Listen,
            }
        }
        fn end_slot(&mut self, _: NodeId, slot: u64, o: SlotOutcome<()>, rng: &mut StdRng) {
            match o {
                SlotOutcome::Received(r) => self.log.push((slot, r.from, r.distance.to_bits())),
                SlotOutcome::Idle => {
                    self.idles += 1;
                    self.draws ^= rng.gen::<u64>();
                }
                _ => {}
            }
        }
    }

    #[cfg(feature = "serde")]
    impl serde::Serialize for Drowsy {
        fn to_value(&self) -> serde::Value {
            (self.log.clone(), self.idles, self.wake, self.draws).to_value()
        }
    }

    #[cfg(feature = "serde")]
    impl serde::Deserialize for Drowsy {
        fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
            let (log, idles, wake, draws) = serde::Deserialize::from_value(value)?;
            Ok(Drowsy {
                log,
                idles,
                wake,
                draws,
            })
        }
    }

    fn drowsy_plan(n: usize) -> crate::faults::FaultPlan {
        use crate::faults::{FaultEvent, FaultMix, FaultPlan};
        let mut plan = FaultPlan::random(
            n,
            0xD0_5E,
            &FaultMix {
                crash: 0.1,
                deafness: 0.15,
                drop: 0.15,
                degrade: 0.1,
                horizon: 30,
            },
        );
        plan.push(0, FaultEvent::CrashStop { at: 10 });
        plan.push(6, FaultEvent::CrashStop { at: 1000 });
        plan.push(1, FaultEvent::TransientDeafness { from: 5, until: 18 });
        plan.push(
            2,
            FaultEvent::PowerDegrade {
                factor: 0.5,
                from: 6,
            },
        );
        plan
    }

    /// Everything a dormancy run exposes: reports, stats, protocol
    /// states, RNG positions and the awake list.
    type DrowsyRun = (
        Vec<SlotReport>,
        EngineStats,
        Vec<Drowsy>,
        Vec<StdRng>,
        Vec<NodeId>,
    );

    /// Runs [`Drowsy`] for [`DROWSY_SLOTS`] slots under
    /// [`drowsy_plan`], and checks after every slot that the awake list
    /// is in ascending id order and holds no node in the middle of a
    /// nap. The calendar is the same on every backend, so only this
    /// check sees a node woken early: the dormancy promise makes the
    /// extra step a no-op.
    fn drowsy_run(inst: &Instance, backend: EngineBackend) -> DrowsyRun {
        let params = SinrParams::default();
        let mut e = Engine::with_backend(&params, inst, |_| Drowsy::default(), 13, backend);
        e.arm_faults(drowsy_plan(inst.len()));
        let mut reports = Vec::new();
        let mut check = |e: &Engine<'_, Drowsy>| {
            let slot = e.slot();
            let mut last = None;
            for (id, d) in e.awake_nodes() {
                assert!(
                    last < Some(id),
                    "{backend:?}: awake list out of order at {slot}"
                );
                assert!(
                    !d.napping(id, slot),
                    "{backend:?}: node {id} woke early at {slot}"
                );
                last = Some(id);
            }
            false
        };
        e.run_loop(DROWSY_SLOTS, &mut check, &mut |r| reports.push(r));
        let awake = e.awake_nodes().map(|(id, _)| id).collect();
        (
            reports,
            e.stats(),
            e.nodes().to_vec(),
            e.rngs.clone(),
            awake,
        )
    }

    /// The calendar gate: naive steps every node every slot, grid and
    /// the pool step only the awake list, and all of them agree on
    /// every observable — with crashes, deafness and degrades landing
    /// on dormant nodes, and naps on either side of the calendar ring's
    /// edge and far past it.
    #[test]
    fn wake_calendar_matches_all_node_stepping() {
        // At 320 nodes the first slots have more than PARALLEL_MIN_NODES
        // listeners, so the pool resolves them; quieter slots, and all
        // but a few of 160 nodes', resolve on the driving thread.
        for n in [160, 320] {
            let inst = gen::uniform_square(n, 1.5, 31).unwrap();
            let naive = drowsy_run(&inst, EngineBackend::Naive);
            let states = &naive.2;
            assert!(
                states.iter().any(|d| d.wake == u64::MAX),
                "some nodes retire"
            );
            assert!(
                naive.0.iter().any(|r| r.receptions > 0),
                "the workload decodes"
            );
            assert!(!naive.4.contains(&0), "node 0 crashed while dormant");
            assert!(!naive.4.contains(&6), "node 6 crashed inside its long nap");
            for node in 3..6 {
                let (_, from, until) = DROWSY_NAPS[node];
                assert_eq!(
                    states[node].idles + states[node].log.len() as u64,
                    DROWSY_SLOTS - (until - from),
                    "node {node} listens in every slot outside its nap"
                );
            }
            assert!(
                states[1]
                    .log
                    .iter()
                    .all(|&(slot, _, _)| !(2..18).contains(&slot)),
                "node 1 heard nothing while dormant or deaf"
            );
            for backend in [
                EngineBackend::Grid,
                EngineBackend::Parallel(1),
                EngineBackend::Parallel(2),
                EngineBackend::Parallel(4),
            ] {
                let run = drowsy_run(&inst, backend);
                assert_eq!(naive, run, "{n} nodes, {backend:?} diverged");
            }
        }
    }

    /// Under tracing, every backend emits the same event stream: fault
    /// boundaries of dormant nodes included, and a slot digest that
    /// folds the sleepers' tokens.
    #[cfg(feature = "trace")]
    #[test]
    fn wake_calendar_trace_matches_all_node_stepping() {
        use crate::trace::{self, TraceEvent};
        for n in [160, 320] {
            let inst = gen::uniform_square(n, 1.5, 31).unwrap();
            let traced = |backend| {
                trace::start(1 << 16);
                let run = drowsy_run(&inst, backend);
                let log = trace::stop();
                assert_eq!(log.dropped, 0);
                (run, log.events)
            };
            let (naive_run, naive) = traced(EngineBackend::Naive);
            assert_eq!(
                naive_run,
                drowsy_run(&inst, EngineBackend::Naive),
                "tracing is observational"
            );
            for (slot, node, kind) in [
                (10, 0, "crash-stop"),
                (5, 1, "deafness"),
                (6, 2, "power-degrade"),
                (1000, 6, "crash-stop"),
            ] {
                assert!(
                    naive.contains(&TraceEvent::FaultInjected { slot, node, kind }),
                    "{kind} of dormant node {node} at slot {slot} is reported"
                );
            }
            for backend in [
                EngineBackend::Grid,
                EngineBackend::Parallel(1),
                EngineBackend::Parallel(2),
                EngineBackend::Parallel(4),
            ] {
                let (run, events) = traced(backend);
                assert_eq!(
                    naive_run, run,
                    "{n} nodes, {backend:?}: traced run diverged"
                );
                assert_eq!(
                    naive, events,
                    "{n} nodes, {backend:?}: event stream diverged"
                );
            }
        }
    }

    /// A snapshot taken while nodes are dormant or retired resumes
    /// bit-identically: `restore` wakes every node for one slot and each
    /// declares its hint again.
    #[cfg(feature = "serde")]
    #[test]
    fn snapshot_of_dormant_nodes_resumes_bit_identically() {
        let params = SinrParams::default();
        let inst = gen::uniform_square(120, 1.5, 32).unwrap();
        let mut original = Engine::with_backend(
            &params,
            &inst,
            |_| Drowsy::default(),
            5,
            EngineBackend::Grid,
        );
        original.run(16);
        assert!(
            original.awake_nodes().count() < inst.len(),
            "the snapshot must catch dormant nodes"
        );
        let snap = original.snapshot();
        original.run(20);
        for backend in [
            EngineBackend::Naive,
            EngineBackend::Grid,
            EngineBackend::Parallel(2),
        ] {
            let mut resumed: Engine<'_, Drowsy> =
                Engine::restore(&params, &inst, &snap, backend).unwrap();
            resumed.run(20);
            assert_eq!(original.stats(), resumed.stats(), "{backend:?}");
            assert_eq!(original.nodes(), resumed.nodes(), "{backend:?}");
            assert_eq!(original.rngs, resumed.rngs, "{backend:?}");
            assert!(
                original
                    .awake_nodes()
                    .map(|(id, _)| id)
                    .eq(resumed.awake_nodes().map(|(id, _)| id)),
                "{backend:?}: the calendar re-derives"
            );
        }
    }

    /// The replay gate's rotation period, in slots.
    const BEACON_PERIOD: u64 = 8;

    /// The replay gate's protocol, in the heartbeat detector's shape: a
    /// fixed rotation in which, each slot, the nodes of one role beacon
    /// and those of six others listen. With 160 nodes (roles are ids
    /// mod 80) that is 2 beaconers and up to 12 listeners a slot; roles
    /// 56–79 never act. A listener sits out every third rotation,
    /// staggered by node, as a backing-off child skips probes, so later
    /// rotations bring listeners the memo has not recorded yet. Off
    /// duty, even ids sleep awake (so every slot steps enough nodes for
    /// the pool) and odd ids nap until their next duty or retire. An
    /// idle end draws, so RNG positions follow the decodes, and every
    /// listen is counted: every slot has a live beaconer. A beacon is
    /// its sender's [`Stamp`].
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Beacons {
        log: Vec<Heard>,
        listens: u64,
        draws: u64,
    }

    impl Beacons {
        /// Node `node`'s duty: its phase in the rotation and whether it
        /// beacons there (else it listens).
        fn duty(node: NodeId) -> Option<(u64, bool)> {
            let role = (node % 80) as u64;
            (role < 7 * BEACON_PERIOD).then_some((role % BEACON_PERIOD, role < BEACON_PERIOD))
        }
    }

    impl Protocol for Beacons {
        type Msg = Stamp;
        fn begin_slot(&mut self, node: NodeId, slot: u64, _: &mut StdRng) -> Action<Stamp> {
            let (rotation, phase) = (slot / BEACON_PERIOD, slot % BEACON_PERIOD);
            match Self::duty(node) {
                Some((p, true)) if p == phase => Action::Transmit {
                    power: 1e5,
                    msg: (node, slot),
                },
                Some((p, false)) if p == phase && (rotation + node as u64 / 8) % 3 != 0 => {
                    self.listens += 1;
                    Action::Listen
                }
                _ if node % 2 == 0 => Action::Sleep,
                // The next slot of phase `p`, a rotation on if it is now.
                Some((p, _)) => {
                    Action::SleepUntil(slot + 1 + (p + BEACON_PERIOD - phase - 1) % BEACON_PERIOD)
                }
                None => Action::SleepUntil(u64::MAX),
            }
        }
        fn end_slot(&mut self, _: NodeId, slot: u64, o: SlotOutcome<Stamp>, rng: &mut StdRng) {
            match o {
                SlotOutcome::Received(r) => {
                    self.log.push((slot, r.from, r.distance.to_bits(), r.msg))
                }
                SlotOutcome::Idle => self.draws ^= rng.gen::<u64>(),
                _ => {}
            }
        }
    }

    /// Crashes beaconer 80 (phase 0) at slot 30 and cuts beaconer 84's
    /// power (phase 4) to a hundredth from slot 50, two faults that
    /// change a list; deafens listener 25 (phase 1) over slots 8..12,
    /// which hold the slot its decode is recorded in, and drops half of
    /// listener 9's receptions (phase 1), two that act after the
    /// decode.
    fn beacon_plan(n: usize) -> crate::faults::FaultPlan {
        use crate::faults::{FaultEvent, FaultPlan};
        let mut plan = FaultPlan::new(n, 0xBEAC);
        plan.push(80, FaultEvent::CrashStop { at: 30 });
        plan.push(25, FaultEvent::TransientDeafness { from: 8, until: 12 });
        plan.push(9, FaultEvent::ReceptionDrop { prob: 0.5, from: 0 });
        plan.push(
            84,
            FaultEvent::PowerDegrade {
                factor: 0.01,
                from: 50,
            },
        );
        plan
    }

    /// Everything a replay-gate run exposes: reports, stats, protocol
    /// states (reception logs with distance bits and payloads, listen
    /// counts, idle draws) and RNG positions.
    type BeaconRun = (Vec<SlotReport>, EngineStats, Vec<Beacons>, Vec<StdRng>);

    /// Runs [`Beacons`] for 12 rotations under [`beacon_plan`]; also
    /// returns the field queries and the memo's replayed listeners.
    fn beacon_run(inst: &Instance, backend: EngineBackend) -> (BeaconRun, u64, u64) {
        let params = SinrParams::default();
        let mut e = Engine::with_backend(&params, inst, |_| Beacons::default(), 17, backend);
        e.arm_faults(beacon_plan(inst.len()));
        let reports = e.run_reports(12 * BEACON_PERIOD);
        let replayed = e.memo.as_ref().map_or(0, |m| m.replayed);
        let run = (reports, e.stats(), e.nodes().to_vec(), e.rngs.clone());
        (run, e.field_stats().queries, replayed)
    }

    /// The replay gate: a periodic protocol under crashes, deafness,
    /// drops and a power degrade gives the same bytes on naive (no
    /// memo), grid and the pool at 1, 2 and 4 threads, and on grid every
    /// listen is either a field query or a replay.
    #[test]
    fn replayed_slots_match_the_naive_reference() {
        let inst = gen::uniform_square(160, 1.5, 31).unwrap();
        let (naive, queries, replayed) = beacon_run(&inst, EngineBackend::Naive);
        assert_eq!(
            (queries, replayed),
            (0, 0),
            "the naive reference keeps no memo"
        );
        let states = &naive.2;
        let listens: u64 = states.iter().map(|b| b.listens).sum();
        assert!(
            states.iter().any(|b| !b.log.is_empty()) && states.iter().any(|b| b.draws != 0),
            "listeners decode and miss"
        );
        assert!(
            states[25]
                .log
                .iter()
                .all(|&(slot, ..)| !(8..12).contains(&slot))
                && states[25].log.iter().any(|&(slot, ..)| slot >= 12),
            "the deaf listener hears nothing in its window, and hears after it"
        );
        let (grid, queries, replayed) = beacon_run(&inst, EngineBackend::Grid);
        assert_eq!(naive, grid, "grid diverged");
        assert_eq!(
            queries + replayed,
            listens,
            "every listen is a field query or a replay"
        );
        assert!(
            replayed > 2 * queries,
            "most listens replay: {replayed} replayed, {queries} queried"
        );
        for backend in [
            EngineBackend::Parallel(1),
            EngineBackend::Parallel(2),
            EngineBackend::Parallel(4),
        ] {
            let other = beacon_run(&inst, backend);
            assert_eq!(naive, other.0, "{backend:?} diverged");
            assert_eq!(
                (queries, replayed),
                (other.1, other.2),
                "{backend:?} counters"
            );
        }
    }

    /// Under tracing, replayed slots emit the naive reference's event
    /// stream on every backend.
    #[cfg(feature = "trace")]
    #[test]
    fn replayed_slots_trace_matches_the_naive_reference() {
        use crate::trace;
        let inst = gen::uniform_square(160, 1.5, 31).unwrap();
        let traced = |backend| {
            trace::start(1 << 16);
            let (run, _, _) = beacon_run(&inst, backend);
            let log = trace::stop();
            assert_eq!(log.dropped, 0);
            (run, log.events)
        };
        let naive = traced(EngineBackend::Naive);
        assert_eq!(
            naive.0,
            beacon_run(&inst, EngineBackend::Naive).0,
            "tracing is observational"
        );
        for backend in [
            EngineBackend::Grid,
            EngineBackend::Parallel(1),
            EngineBackend::Parallel(2),
            EngineBackend::Parallel(4),
        ] {
            let other = traced(backend);
            assert_eq!(naive.0, other.0, "{backend:?}: traced run diverged");
            assert_eq!(naive.1, other.1, "{backend:?}: event stream diverged");
        }
    }

    /// The payload gate. A reception's payload is looked up through its
    /// decoded sender, and it must be the [`Stamp`] that sender sent in
    /// that slot, on naive, grid and the pool at 1, 2 and 4 threads:
    /// for the replay gate's beacons, whose listeners the memo answers
    /// and two of which are deafened or drop receptions, and for the
    /// fault probe under its random fault mix. The beacons also run on
    /// 1600 nodes, whose slots have some 80 listeners, and the probe on
    /// 160, so the pool shards slots the memo answers and slots with
    /// reception faults; there every backend must match naive.
    #[test]
    fn receptions_carry_their_senders_payloads() {
        let stamped = |logs: Vec<&Vec<Heard>>, case: &str| {
            let heard: Vec<&Heard> = logs.into_iter().flatten().collect();
            assert!(!heard.is_empty(), "{case}: nobody heard anything");
            for &&(slot, from, _, msg) in &heard {
                assert_eq!(msg, (from, slot), "{case}: a reception in slot {slot}");
            }
        };
        for n in [160, 1600] {
            let inst = gen::uniform_square(n, 1.5, 31).unwrap();
            let (naive, _, _) = beacon_run(&inst, EngineBackend::Naive);
            for backend in [
                EngineBackend::Naive,
                EngineBackend::Grid,
                EngineBackend::Parallel(1),
                EngineBackend::Parallel(2),
                EngineBackend::Parallel(4),
            ] {
                let (run, _, replayed) = beacon_run(&inst, backend);
                let case = format!("{n} beacons, {backend:?}");
                assert_eq!(naive, run, "{case}: diverged");
                assert_eq!(replayed > 0, backend != EngineBackend::Naive, "{case}");
                let states = &run.2;
                // Twenty beaconers a slot jam them at 1600 nodes.
                assert!(
                    n > 160 || (!states[9].log.is_empty() && !states[25].log.is_empty()),
                    "{case}: the dropping and the deafened listener hear beacons"
                );
                stamped(states.iter().map(|b| &b.log).collect(), &case);
            }
        }
        for n in [80, 160] {
            let inst = gen::uniform_square(n, 1.5, 22).unwrap();
            let naive = fault_probe_run(&inst, 6, EngineBackend::Naive, Some(probe_plan(n)));
            for backend in [
                EngineBackend::Naive,
                EngineBackend::Grid,
                EngineBackend::Parallel(1),
                EngineBackend::Parallel(2),
                EngineBackend::Parallel(4),
            ] {
                let run = fault_probe_run(&inst, 6, backend, Some(probe_plan(n)));
                let case = format!("{n} probes, {backend:?}");
                assert_eq!(naive, run, "{case}: diverged");
                stamped(run.2.iter().map(|p| &p.log).collect(), &case);
            }
        }
    }

    /// Every fourth node transmits (or, `crowded`, all but every
    /// fourth), at a power that changes every `repeats` slots, so each
    /// transmitter list comes `repeats` times in a row and never again;
    /// the rest listen.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Drift {
        repeats: u64,
        crowded: bool,
        log: Vec<(u64, NodeId, u64)>,
    }

    impl Protocol for Drift {
        type Msg = ();
        fn begin_slot(&mut self, node: NodeId, slot: u64, _: &mut StdRng) -> Action<()> {
            let epoch = slot / self.repeats;
            if ((node as u64 + epoch) % 4 == 0) != self.crowded {
                Action::Transmit {
                    power: 600.0 + epoch as f64,
                    msg: (),
                }
            } else {
                Action::Listen
            }
        }
        fn end_slot(&mut self, _: NodeId, slot: u64, o: SlotOutcome<()>, _: &mut StdRng) {
            if let SlotOutcome::Received(r) = o {
                self.log.push((slot, r.from, r.distance.to_bits()));
            }
        }
    }

    /// Lists that never come back fill the memo to its caps and clear
    /// it, over more slots than the caps: its hashes, stored pairs and
    /// recorded listeners stay within `MEMO_PER_NODE · n` after every
    /// slot, and the decodes stay the naive reference's. Lists seen
    /// once leave only hashes; lists seen thrice store, record and
    /// replay, and uncapped they would pass the caps many times over.
    #[test]
    fn memo_stays_within_its_caps() {
        let params = SinrParams::default();
        let inst = gen::uniform_square(16, 1.5, 5).unwrap();
        let cap = MEMO_PER_NODE * inst.len();
        let slots = 5 * cap as u64;
        for (repeats, crowded) in [(1, false), (3, false), (3, true)] {
            let run = |backend| {
                let mut e = Engine::with_backend(
                    &params,
                    &inst,
                    |_| Drift {
                        repeats,
                        crowded,
                        log: Vec::new(),
                    },
                    3,
                    backend,
                );
                let mut peak = [0; 3];
                e.run_until(slots, |e| {
                    if let Some(m) = &e.memo {
                        for (p, len) in
                            peak.iter_mut()
                                .zip([m.index.len(), m.lists.len(), m.records.len()])
                        {
                            *p = len.max(*p);
                        }
                    }
                    false
                });
                let replayed = e.memo.as_ref().map_or(0, |m| m.replayed);
                (e.nodes().to_vec(), peak, replayed)
            };
            let case = format!("repeats {repeats}, crowded {crowded}");
            let (naive, _, _) = run(EngineBackend::Naive);
            let (grid, peak, replayed) = run(EngineBackend::Grid);
            assert_eq!(naive, grid, "{case}: grid diverged");
            assert!(
                peak.iter().all(|&p| p <= cap),
                "{case}: peak sizes {peak:?} pass the cap {cap}"
            );
            // Twelve listeners or twelve pairs per stored list: the
            // binding cap clears the memo within one list of it.
            match (repeats, crowded) {
                (1, _) => assert_eq!((peak, replayed), ([cap, 0, 0], 0), "{case}"),
                (_, false) => assert!(peak[2] > cap - 12 && replayed > 0, "{case}: {peak:?}"),
                (_, true) => assert!(peak[1] > cap - 12 && replayed > 0, "{case}: {peak:?}"),
            }
        }
    }

    /// The naive reference checks every dormancy promise in debug
    /// builds: a node that declares a nap and then listens is caught
    /// in the slot it breaks the promise.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "broke its dormancy promise in slot 2")]
    fn naive_catches_a_broken_dormancy_promise() {
        #[derive(Debug)]
        struct Liar;
        impl Protocol for Liar {
            type Msg = ();
            fn begin_slot(&mut self, _: NodeId, slot: u64, _: &mut StdRng) -> Action<()> {
                match slot {
                    0 => Action::SleepUntil(5),
                    1 => Action::Sleep,
                    _ => Action::Listen,
                }
            }
            fn end_slot(&mut self, _: NodeId, _: u64, _: SlotOutcome<()>, _: &mut StdRng) {}
        }
        let params = SinrParams::default();
        let inst = gen::line(3).unwrap();
        Engine::with_backend(&params, &inst, |_| Liar, 0, EngineBackend::Naive).run(4);
    }
}
