//! The slotted simulation engine.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sinr_geom::{Instance, NodeId};
use sinr_links::Link;
use sinr_phy::field::{decode_best_exact, FieldScratch, InterferenceField, PhaseTimes, QueryStats};
use sinr_phy::{feasibility, SinrParams};

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

/// The engine's per-slot buffers outside its [`SlotCtx`]: the outcome
/// vector, the next slot's awake list and, for the pooled loop, the
/// per-worker chunk buffers. Everything here is *capacity*, not state:
/// every slot drains and refills them, so steady-state slots allocate
/// nothing on the serial path (pinned by the allocation-gate test).
struct SlotArena<M> {
    outcomes: Vec<SlotOutcome<M>>,
    /// The nodes that stay awake into the next slot, drafted by phase 1
    /// and merged with the calendar's wake-ups after phase 3.
    next_awake: Vec<NodeId>,
    /// Pooled loop only: one outcome buffer per worker, cycled through
    /// the job channel so chunk capacity survives across slots.
    worker_outs: Vec<Vec<SlotOutcome<M>>>,
    /// Pooled loop only: the per-slot chunk merge table.
    chunks: Vec<Option<Vec<SlotOutcome<M>>>>,
}

impl<M> Default for SlotArena<M> {
    fn default() -> Self {
        SlotArena {
            outcomes: Vec::new(),
            next_awake: Vec::new(),
            worker_outs: Vec::new(),
            chunks: Vec::new(),
        }
    }
}

/// How the engine resolves the channel each slot.
///
/// Every backend produces **bit-identical** slot outcomes — decode
/// decisions, decoded senders, and the reported SINR/affectance floats.
/// The grid backend only takes a shortcut when the decision is
/// certified and always reports values from the canonical naive-order
/// sums (see `sinr_phy::field` and DESIGN.md §7); the parallel backend
/// runs the *same* per-listener resolution as the grid backend, merely
/// sharding independent listeners across scoped threads with an
/// ordered merge, so no float operation is reordered (DESIGN.md §8).
/// The grid and parallel backends step only the awake nodes of the
/// wake calendar; the naive backend steps every node and checks each
/// dormancy promise (see [`Protocol`]). It exists as the reference for
/// parity testing and benchmarking.
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
    /// serially regardless, and so does any slot with fewer awake
    /// nodes than that — channel round-trips would dominate.
    Parallel(usize),
}

/// Engines with fewer nodes than this run serially even under
/// [`EngineBackend::Parallel`], and so do slots with fewer awake nodes
/// — per-slot job dispatch would dominate the work.
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
/// awake list for a deterministic wake calendar keyed by `(wake slot,
/// node id)` and rejoins the list, in id order, at its wake slot — so
/// a slot costs `O(awake nodes)`, not `O(n)` (DESIGN.md §8.6).
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
    arena: SlotArena<P::Msg>,
    field_stats: QueryStats,
    /// Armed fault schedule ([`Engine::arm_faults`]); `None` — the
    /// default — restores the exact pre-fault code paths.
    faults: Option<FaultPlan>,
    /// Whether the armed plan has a deafness or drop fault, cached at
    /// arm time so fault-free slots skip the outcome post-pass.
    reception_faults: bool,
    /// The armed plan's trace boundaries ([`FaultPlan::boundaries`]).
    #[cfg(feature = "trace")]
    fault_boundaries: Vec<(u64, NodeId, &'static str)>,
    /// The wake calendar: every dormant node with a finite wake slot.
    /// Retired nodes (`u64::MAX`) and crashed nodes are in neither the
    /// calendar nor the awake list.
    calendar: BinaryHeap<Reverse<(u64, NodeId)>>,
    /// The nodes due in the next slot, ascending id order.
    awake: Vec<NodeId>,
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

/// One pooled job: the shared slot context plus the recycled output
/// vector the worker fills for its chunk.
type SlotJob<'a, M> = (Arc<SlotCtx<'a, M>>, Vec<SlotOutcome<M>>);

/// One worker's answer to a [`SlotJob`]: its chunk of outcomes plus
/// the decode counters and phase times it gathered.
type SlotChunk<M> = (Vec<SlotOutcome<M>>, QueryStats, PhaseTimes);

/// The pooled loop's dispatch handle.
type SlotPool<'a, M> = PoolHandle<SlotJob<'a, M>, SlotChunk<M>>;

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
            calendar: BinaryHeap::new(),
            awake: (0..n).collect(),
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
    /// per-node operation sequence (`SlotCtx::outcome_of`) across
    /// threads and merges in node order (DESIGN.md §8).
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
        let mut outcomes = std::mem::take(&mut self.arena.outcomes);
        self.resolve_serial(&ctx, &mut outcomes);
        clock.lap("resolve");
        let report = self.finish_slot(&ctx, outcomes);
        self.ctx = Some(ctx);
        clock.lap("merge");
        report
    }

    /// One slot of a pooled run, on the run's `shared` context: the
    /// channel phase is sharded across `pool` when the slot steps at
    /// least [`PARALLEL_MIN_NODES`] nodes; smaller slots resolve on the
    /// driving thread.
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
        let mut outcomes = std::mem::take(&mut self.arena.outcomes);
        if shared.ids.len() >= PARALLEL_MIN_NODES {
            self.resolve_pooled(pool, shared, &mut outcomes);
        } else {
            self.resolve_serial(shared, &mut outcomes);
        }
        clock.lap("resolve");
        let report = self.finish_slot(shared, outcomes);
        clock.lap("merge");
        report
    }

    /// An empty slot context for this engine.
    fn new_ctx(&self) -> SlotCtx<'a, P::Msg> {
        SlotCtx::new(
            self.params,
            self.instance,
            self.backend,
            (P::MEASURES_SINR, P::MEASURES_AFFECTANCE),
        )
    }

    /// Phases 1 and 2 into `ctx`: the stepped nodes' actions, then the
    /// slot's transmitters and field.
    fn fill(&mut self, ctx: &mut SlotCtx<'a, P::Msg>, clock: &mut PhaseClock) {
        let slot = self.slot;
        ctx.ids.clear();
        ctx.actions.clear();
        self.collect_actions(slot, &mut ctx.ids, &mut ctx.actions);
        clock.lap("build");
        ctx.refill(slot);
        clock.lap("grid");
    }

    /// Phase 1, shared by the serial and pooled loops: every stepped
    /// node picks its action, and the next slot's awake list is
    /// drafted.
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
    /// Active power degrades scale the chosen transmit power *before*
    /// the channel context is built — so every backend resolves the
    /// same faulted slot.
    fn collect_actions(
        &mut self,
        slot: u64,
        ids: &mut Vec<NodeId>,
        actions: &mut Vec<Action<P::Msg>>,
    ) {
        #[cfg(feature = "trace")]
        self.emit_fault_boundaries(slot);
        let naive = self.backend == EngineBackend::Naive;
        let mut next = std::mem::take(&mut self.arena.next_awake);
        next.clear();
        let candidates = if naive {
            self.nodes.len()
        } else {
            self.awake.len()
        };
        ids.reserve(candidates);
        actions.reserve(candidates);
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
                        self.calendar.push(Reverse((wake, id)));
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
            if let (Action::Transmit { power, .. }, Some(plan)) = (&mut action, &self.faults) {
                let factor = plan.power_factor(id, slot);
                if factor != 1.0 {
                    *power *= factor;
                }
            }
            if stays {
                next.push(id);
            }
            ids.push(id);
            actions.push(action);
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

    /// Phase 2 on the driving thread.
    fn resolve_serial(
        &mut self,
        ctx: &SlotCtx<'a, P::Msg>,
        outcomes: &mut Vec<SlotOutcome<P::Msg>>,
    ) {
        let scratch = &mut self.scratch;
        #[cfg(feature = "profile")]
        scratch.enable_timing(crate::profile::is_active());
        scratch.skip_canonical_sinr(!P::MEASURES_SINR);
        outcomes.reserve(ctx.ids.len());
        for k in 0..ctx.ids.len() {
            outcomes.push(ctx.outcome_of(k, scratch));
        }
        let stats = std::mem::take(&mut scratch.stats);
        let times = std::mem::take(&mut scratch.times);
        self.absorb_field_stats(stats, times);
    }

    /// Phase 2 across the pool: broadcast the slot context to every
    /// worker, then merge the outcome chunks in node order.
    fn resolve_pooled(
        &mut self,
        pool: &SlotPool<'a, P::Msg>,
        ctx: &Arc<SlotCtx<'a, P::Msg>>,
        outcomes: &mut Vec<SlotOutcome<P::Msg>>,
    ) {
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
        outcomes.reserve(ctx.ids.len());
        for c in chunks.iter_mut() {
            let mut out = c.take().expect("every worker reports each slot");
            // `append` drains `out` but keeps its capacity for the next
            // slot's job.
            outcomes.append(&mut out);
            worker_outs.push(out);
        }
        self.arena.worker_outs = worker_outs;
        self.arena.chunks = chunks;
        self.absorb_field_stats(slot_stats, slot_times);
    }

    /// Merges one slot's decode-path counters into the cumulative
    /// [`field_stats`](Self::field_stats) and, when a profiling
    /// registry is active, records the phase times and decision counts
    /// it captured.
    fn absorb_field_stats(&mut self, stats: QueryStats, times: PhaseTimes) {
        #[cfg(feature = "profile")]
        if crate::profile::is_active() {
            crate::profile::record("near-field", times.near_field.as_secs_f64());
            crate::profile::record("far-field-cert", times.far_field_cert.as_secs_f64());
            crate::profile::record("fallback", times.fallback.as_secs_f64());
            crate::profile::record("queries", stats.queries as f64);
            crate::profile::record("certified", stats.certified as f64);
            crate::profile::record("fallbacks", stats.fallbacks as f64);
            crate::profile::record("straddles", stats.straddles as f64);
            crate::profile::record("rings", stats.rings as f64);
        }
        #[cfg(not(feature = "profile"))]
        let _ = &times;
        self.field_stats.merge(&stats);
    }

    /// Phase 3 plus slot bookkeeping, shared by the serial and pooled
    /// loops; `outcomes` goes back to the arena drained.
    fn finish_slot(
        &mut self,
        ctx: &SlotCtx<'a, P::Msg>,
        mut outcomes: Vec<SlotOutcome<P::Msg>>,
    ) -> SlotReport {
        let slot = self.slot;
        // Reception faults land here, before outcomes are counted,
        // digested or reported: a deaf or dropping listener's decode
        // resolves to `Idle` on the driving thread, identically on
        // every backend (the workers resolved the physical channel;
        // whether the *node* hears it is the plan's call). Only awake
        // listeners receive, so only they are checked.
        if let (true, Some(plan)) = (self.reception_faults, &self.faults) {
            for (&id, outcome) in ctx.ids.iter().zip(outcomes.iter_mut()) {
                if matches!(outcome, SlotOutcome::Received(_))
                    && (plan.deaf(id, slot) || plan.drops_reception(id, slot))
                {
                    #[cfg(feature = "trace")]
                    if crate::trace::is_active() {
                        crate::trace::emit(crate::trace::TraceEvent::FaultInjected {
                            slot,
                            node: id,
                            kind: "reception-drop",
                        });
                    }
                    *outcome = SlotOutcome::Idle;
                }
            }
        }
        let mut report = SlotReport {
            slot,
            transmissions: ctx.transmitters.len(),
            ..Default::default()
        };
        for outcome in outcomes.iter() {
            match outcome {
                SlotOutcome::Received(_) => report.receptions += 1,
                SlotOutcome::Idle => report.idle_listeners += 1,
                _ => {}
            }
        }
        #[cfg(feature = "trace")]
        self.trace_slot(ctx, &outcomes, &report);
        // The naive reference checks that a dormant node's `end_slot`
        // draws nothing: a stepped node is dormant when it does not
        // stay awake into the next slot.
        #[cfg(debug_assertions)]
        let check_dormant = self.backend == EngineBackend::Naive;
        #[cfg(debug_assertions)]
        let mut cursor = 0;
        for (&id, outcome) in ctx.ids.iter().zip(outcomes.drain(..)) {
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
        self.arena.outcomes = outcomes;
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
    /// node's outcome in id order, a `Slept` token for each node the
    /// slot did not step — `O(n)`, but only while tracing.
    #[cfg(feature = "trace")]
    fn trace_slot(
        &self,
        ctx: &SlotCtx<'a, P::Msg>,
        outcomes: &[SlotOutcome<P::Msg>],
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
        let mut stepped = ctx.ids.iter().zip(outcomes).peekable();
        for node in 0..self.nodes.len() {
            let Some((_, outcome)) = stepped.next_if(|&(&id, _)| id == node) else {
                fnv.write_u64(4);
                continue;
            };
            match outcome {
                SlotOutcome::Received(r) => {
                    crate::trace::emit(TraceEvent::Receive {
                        slot,
                        node,
                        from: r.from,
                        sinr: r.sinr.to_bits(),
                        affectance: r.affectance.to_bits(),
                    });
                    fnv.write_u64(1);
                    fnv.write_u64(r.from as u64);
                    fnv.write_u64(r.distance.to_bits());
                    fnv.write_u64(r.sinr.to_bits());
                    fnv.write_u64(r.affectance.to_bits());
                }
                SlotOutcome::Idle => fnv.write_u64(2),
                SlotOutcome::Transmitted => fnv.write_u64(3),
                SlotOutcome::Slept => fnv.write_u64(4),
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
    /// calendar entries due at `slot`.
    fn wake_due(&mut self, slot: u64) {
        let stays = std::mem::take(&mut self.arena.next_awake);
        self.awake.clear();
        let mut stays_iter = stays.iter().copied().peekable();
        while let Some(&Reverse((wake, id))) = self.calendar.peek() {
            if wake > slot {
                break;
            }
            // Entries are pushed more than one slot ahead and popped the
            // slot before they fall due, so every popped entry is due
            // exactly now and the pops come in ascending id order.
            debug_assert_eq!(wake, slot, "calendar entry for node {id} went stale");
            self.calendar.pop();
            while let Some(v) = stays_iter.next_if(|&v| v < id) {
                self.awake.push(v);
            }
            self.awake.push(id);
        }
        self.awake.extend(stays_iter);
        self.arena.next_awake = stays;
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
    /// merges each large slot's outcome chunks in node order. Protocol
    /// state and RNG streams never leave this thread, so the observable
    /// behavior — every float bit included — is the serial loop's. A
    /// worker panic travels back through the pool's result channel and
    /// resumes here with its original payload (a panicking protocol
    /// `Clone` fails the run loudly instead of deadlocking the
    /// dispatcher).
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
                scratch.skip_canonical_sinr(!P::MEASURES_SINR);
                scratch
            },
            move |w, scratch, (ctx, mut out): SlotJob<'a, P::Msg>| {
                // The shard is a contiguous run of the stepped list.
                let len = ctx.ids.len();
                let chunk = len.div_ceil(threads);
                let base = (w * chunk).min(len);
                let end = (base + chunk).min(len);
                out.clear();
                out.reserve(end - base);
                for k in base..end {
                    out.push(ctx.outcome_of(k, scratch));
                }
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

/// The channel context of the slot being resolved: the stepped nodes
/// in ascending id order with their actions, the transmitter set in the
/// same canonical order, and — for the grid backends — the slot's
/// [`InterferenceField`]. An engine keeps one for its whole life and
/// [`refill`](Self::refill)s it in place every slot, so a slot moves no
/// struct and allocates nothing once its buffers have grown (DESIGN.md
/// §12.2). The pooled loop shares it read-only across workers via
/// [`Arc`]; [`SlotCtx::outcome_of`] is the *single* per-node resolution
/// sequence both the serial and the pooled loop execute, which is what
/// makes their outputs byte-identical by construction.
struct SlotCtx<'a, M> {
    params: &'a SinrParams,
    instance: &'a Instance,
    /// The stepped node ids, ascending.
    ids: Vec<NodeId>,
    /// `actions[k]` is node `ids[k]`'s action.
    actions: Vec<Action<M>>,
    transmitters: Vec<(NodeId, f64)>,
    /// The grid backends' field (`None` on the naive backend). It holds
    /// this slot's transmitters only when there are any: a slot nobody
    /// transmits in skips the refill and leaves it unread.
    field: Option<InterferenceField<'a>>,
    /// [`Protocol::MEASURES_SINR`] of the driving protocol: when false,
    /// receptions report `NaN` SINR on *every* backend (the naive and
    /// fallback paths compute it as a byproduct; discarding it here
    /// keeps the backends byte-identical to the certificate-only grid
    /// path).
    measure_sinr: bool,
    /// [`Protocol::MEASURES_AFFECTANCE`] of the driving protocol: when
    /// false, receptions skip the per-decode canonical affectance sum
    /// and report `NaN`.
    measure_affectance: bool,
}

impl<'a, M: Clone + Send + Sync> SlotCtx<'a, M> {
    /// An empty context for an engine on `backend`.
    fn new(
        params: &'a SinrParams,
        instance: &'a Instance,
        backend: EngineBackend,
        (measure_sinr, measure_affectance): (bool, bool),
    ) -> Self {
        SlotCtx {
            params,
            instance,
            ids: Vec::new(),
            actions: Vec::new(),
            transmitters: Vec::new(),
            field: (backend != EngineBackend::Naive)
                .then(|| InterferenceField::build(params, instance, &[])),
            measure_sinr,
            measure_affectance,
        }
    }

    /// Derives the slot's channel state from the actions phase 1 wrote
    /// into `ids` and `actions`: the transmitter list, then the field,
    /// when anyone transmits.
    ///
    /// # Panics
    ///
    /// Panics if a node transmitted with a non-positive or non-finite
    /// power (a programming error in the protocol).
    fn refill(&mut self, slot: u64) {
        self.transmitters.clear();
        for (&id, a) in self.ids.iter().zip(&self.actions) {
            if let Action::Transmit { power, .. } = a {
                assert!(
                    power.is_finite() && *power > 0.0,
                    "node {id} transmitted with invalid power {power} in slot {slot}"
                );
                self.transmitters.push((id, *power));
            }
        }
        if let Some(field) = &mut self.field {
            if !self.transmitters.is_empty() {
                field.refill(&self.transmitters);
            }
        }
    }

    /// Resolves the outcome of the `k`-th stepped node for this slot.
    fn outcome_of(&self, k: usize, scratch: &mut FieldScratch) -> SlotOutcome<M> {
        let id = self.ids[k];
        match &self.actions[k] {
            Action::Transmit { .. } => SlotOutcome::Transmitted,
            Action::Sleep | Action::SleepUntil(_) => SlotOutcome::Slept,
            Action::Listen => {
                let field = self
                    .field
                    .as_ref()
                    .filter(|_| !self.transmitters.is_empty());
                let decoded = match field {
                    Some(f) => f.decode_best_with(id, scratch),
                    None => decode_best_exact(self.params, self.instance, id, &self.transmitters),
                };
                match decoded {
                    Some((from, power, sinr)) => {
                        // The canonical per-reception recompute is an
                        // exact naive sum — `O(transmitters)` per
                        // decode, the dominant cost of a dense slot —
                        // so it only runs for protocols that read the
                        // field; its time belongs to the `fallback`
                        // phase.
                        let affectance = if self.measure_affectance {
                            let link = Link::new(from, id);
                            scratch
                                .time_fallback(|| {
                                    feasibility::measured_affectance(
                                        self.params,
                                        self.instance,
                                        link,
                                        power,
                                        &self.transmitters,
                                    )
                                })
                                .unwrap_or(f64::NAN)
                        } else {
                            f64::NAN
                        };
                        let msg = match self.ids.binary_search(&from).map(|j| &self.actions[j]) {
                            Ok(Action::Transmit { msg, .. }) => msg.clone(),
                            _ => unreachable!("decoded node is a transmitter"),
                        };
                        SlotOutcome::Received(Reception {
                            from,
                            msg,
                            distance: self.instance.distance(from, id),
                            // NaN-ed uniformly when unmeasured: the
                            // naive and fallback decodes yield the
                            // exact value as a byproduct, but reporting
                            // it only there would break backend parity.
                            sinr: if self.measure_sinr { sinr } else { f64::NAN },
                            affectance,
                        })
                    }
                    None => SlotOutcome::Idle,
                }
            }
        }
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

    /// Node `tx` transmits every slot; others listen and count decodes.
    #[derive(Debug)]
    struct OneTx {
        tx: NodeId,
        power: f64,
        decoded: usize,
        last_sinr: f64,
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
                self.last_sinr = r.sinr;
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
                last_sinr: 0.0,
            },
            1,
        );
        let report = engine.step();
        assert_eq!(report.transmissions, 1);
        assert_eq!(report.receptions, 4);
        for (id, node) in engine.nodes().iter().enumerate() {
            if id != 0 {
                assert_eq!(node.decoded, 1);
                assert!(node.last_sinr >= params.beta());
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

    /// The two backends are observably identical: same reports, same
    /// protocol states, same Reception floats to the bit.
    #[test]
    fn backends_are_bit_identical() {
        let params = SinrParams::default();

        /// `(slot, from, distance bits, sinr bits, affectance bits)`.
        type ReceptionRecord = (u64, NodeId, u64, u64, u64);

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
                    self.receptions.push((
                        slot,
                        r.from,
                        r.distance.to_bits(),
                        r.sinr.to_bits(),
                        r.affectance.to_bits(),
                    ));
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
                last_sinr: 0.0,
            },
            1,
        );
        let executed = engine.run_until(100, |e| e.nodes().iter().skip(1).all(|n| n.decoded >= 3));
        assert_eq!(executed, 3);
        assert_eq!(engine.slot(), 3);
    }

    #[test]
    fn reception_reports_distance_and_affectance() {
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
        // Sole transmitter: zero interference, zero affectance.
        assert!(r.affectance.abs() < 1e-12);
        assert!(r.sinr > params.beta());
    }

    /// A protocol that declares both per-reception instruments unused
    /// gets `NaN` there and *identical bits everywhere else*: same
    /// decode winners, same distances, on every backend.
    #[test]
    fn instrument_opt_out_skips_only_the_instruments() {
        #[derive(Debug, Default)]
        struct Deaf {
            rec: Option<Reception<()>>,
        }
        impl Protocol for Deaf {
            type Msg = ();
            const MEASURES_AFFECTANCE: bool = false;
            const MEASURES_SINR: bool = false;
            fn begin_slot(&mut self, node: NodeId, _: u64, rng: &mut StdRng) -> Action<()> {
                if node % 3 == 0 && rng.gen_bool(0.9) {
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
        // Measuring twin: same actions (same RNG draws), instrument on.
        #[derive(Debug, Default)]
        struct Keen {
            rec: Option<Reception<()>>,
        }
        impl Protocol for Keen {
            type Msg = ();
            fn begin_slot(&mut self, node: NodeId, _: u64, rng: &mut StdRng) -> Action<()> {
                if node % 3 == 0 && rng.gen_bool(0.9) {
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
        let params = SinrParams::default();
        let inst = gen::uniform_square(64, 2.0, 9).unwrap();
        let mut per_backend: Vec<Vec<Option<(NodeId, u64)>>> = Vec::new();
        for backend in [
            EngineBackend::Naive,
            EngineBackend::Grid,
            EngineBackend::Parallel(2),
        ] {
            let mut deaf = Engine::with_backend(&params, &inst, |_| Deaf::default(), 7, backend);
            let mut keen = Engine::with_backend(&params, &inst, |_| Keen::default(), 7, backend);
            deaf.run(4);
            keen.run(4);
            per_backend.push(
                deaf.nodes()
                    .iter()
                    .map(|n| n.rec.as_ref().map(|r| (r.from, r.distance.to_bits())))
                    .collect(),
            );
            let mut receptions = 0usize;
            for (d, k) in deaf.nodes().iter().zip(keen.nodes().iter()) {
                match (&d.rec, &k.rec) {
                    (Some(d), Some(k)) => {
                        receptions += 1;
                        assert_eq!(d.from, k.from);
                        assert_eq!(d.distance.to_bits(), k.distance.to_bits());
                        assert!(d.sinr.is_nan(), "opt-out must report NaN SINR");
                        assert!(d.affectance.is_nan(), "opt-out must report NaN affectance");
                        assert!(k.sinr.is_finite(), "measuring twin reports SINR");
                        assert!(
                            k.affectance.is_finite(),
                            "measuring twin reports affectance"
                        );
                    }
                    (None, None) => {}
                    other => panic!("decode sets diverged: {other:?}"),
                }
            }
            assert!(receptions > 0, "workload produced no receptions");
        }
        // Certificate-decided decodes (grid) match the exact naive
        // winners even with the canonical recompute skipped.
        assert_eq!(per_backend[0], per_backend[1], "naive vs grid winners");
        assert_eq!(per_backend[1], per_backend[2], "grid vs parallel winners");
    }

    /// Coin-flip recorder used by the fault gates below: every
    /// observable (actions drawn from the RNG, reception bits, the
    /// number of `begin_slot` calls) is recorded so freezes and
    /// suppressions are visible.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct FaultProbe {
        begins: u64,
        log: Vec<(u64, NodeId, u64)>,
        idles: u64,
    }
    impl Protocol for FaultProbe {
        type Msg = ();
        fn begin_slot(&mut self, _: NodeId, _: u64, rng: &mut StdRng) -> Action<()> {
            self.begins += 1;
            if rng.gen_bool(0.3) {
                Action::Transmit {
                    power: 900.0,
                    msg: (),
                }
            } else {
                Action::Listen
            }
        }
        fn end_slot(&mut self, _: NodeId, slot: u64, o: SlotOutcome<()>, _: &mut StdRng) {
            match o {
                SlotOutcome::Received(r) => self.log.push((slot, r.from, r.sinr.to_bits())),
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

    /// The fault-determinism parity gate (the Deaf-vs-Keen pattern of
    /// the instrument gates): one random fault mix, identical bytes on
    /// naive / grid / parallel at several thread counts.
    #[test]
    fn fault_plan_is_bit_identical_across_backends() {
        use crate::faults::{FaultMix, FaultPlan};
        let inst = gen::uniform_square(80, 1.5, 22).unwrap();
        let plan = FaultPlan::random(
            inst.len(),
            0xFA_017,
            &FaultMix {
                crash: 0.1,
                deafness: 0.15,
                drop: 0.15,
                degrade: 0.1,
                horizon: 12,
            },
        );
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
            e.nodes()[1].log.iter().all(|&(slot, _, _)| slot < 3),
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
                last_sinr: 0.0,
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

        /// Coin-flip transmitter recording reception bits — with
        /// manual serde so it can ride a snapshot.
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
                    self.log.push((slot, r.from, r.sinr.to_bits()));
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
                    last_sinr: 0.0,
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

    /// A panic on a *worker* thread (here: a message whose `Clone`
    /// panics while a reception is materialized) must propagate out of
    /// the pooled loop with its payload — not hang the dispatcher.
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

    /// A protocol that sleeps three ways: plain `Sleep`, `SleepUntil`
    /// (a declared nap, sometimes only one slot long) and retirement
    /// (`u64::MAX`). Its RNG draws (on awake begins and idle ends) and
    /// logs make every callback the engine makes or skips observable.
    /// Nodes 0–2 follow a script so that faults provably land on
    /// dormant nodes.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Drowsy {
        log: Vec<(u64, NodeId, u64)>,
        idles: u64,
        /// Dormant before this slot; `u64::MAX` = retired.
        wake: u64,
        /// XOR of every idle-end draw.
        draws: u64,
    }

    impl Protocol for Drowsy {
        type Msg = ();
        fn begin_slot(&mut self, node: NodeId, slot: u64, rng: &mut StdRng) -> Action<()> {
            let listen_or_nap = |from: u64, until: u64| {
                if (from..until).contains(&slot) {
                    Action::SleepUntil(until)
                } else {
                    Action::Listen
                }
            };
            match node {
                // Dormant 3..20; crashes at 10, found crashed at 20.
                0 => return listen_or_nap(3, 20),
                // Dormant 2..15; deaf 5..18, from inside its nap.
                1 => return listen_or_nap(2, 15),
                // Dormant 4..9; its power degrades from 6.
                2 if (4..9).contains(&slot) => return Action::SleepUntil(9),
                2 => {
                    return Action::Transmit {
                        power: 900.0,
                        msg: (),
                    }
                }
                _ => {}
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
                SlotOutcome::Received(r) => self.log.push((slot, r.from, r.sinr.to_bits())),
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

    fn drowsy_run(inst: &Instance, backend: EngineBackend) -> DrowsyRun {
        let params = SinrParams::default();
        let mut e = Engine::with_backend(&params, inst, |_| Drowsy::default(), 13, backend);
        e.arm_faults(drowsy_plan(inst.len()));
        let reports = e.run_reports(40);
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
    /// on dormant nodes.
    #[test]
    fn wake_calendar_matches_all_node_stepping() {
        // 160 nodes: most slots keep more than PARALLEL_MIN_NODES awake,
        // so the pool resolves them; quiet slots fall back to serial.
        let inst = gen::uniform_square(160, 1.5, 31).unwrap();
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
            assert_eq!(naive, drowsy_run(&inst, backend), "{backend:?} diverged");
        }
    }

    /// Under tracing, every backend emits the same event stream: fault
    /// boundaries of dormant nodes included, and a slot digest that
    /// folds the sleepers' tokens.
    #[cfg(feature = "trace")]
    #[test]
    fn wake_calendar_trace_matches_all_node_stepping() {
        use crate::trace::{self, TraceEvent};
        let inst = gen::uniform_square(160, 1.5, 31).unwrap();
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
            assert_eq!(naive_run, run, "{backend:?}: traced run diverged");
            assert_eq!(naive, events, "{backend:?}: event stream diverged");
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
