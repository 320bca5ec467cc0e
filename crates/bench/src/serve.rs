//! The self-healing service loop: a discrete-event driver feeding
//! sustained Poisson fault/join traffic through the full
//! detect → repair → re-pack pipeline (DESIGN.md §13).
//!
//! The dynamic layers built so far each ran one shot: inject a batch,
//! recover, stop. A deployed network instead *serves* — faults arrive
//! continuously, recoveries take time, and arrivals during a recovery
//! queue up behind it. This module closes that loop:
//!
//! - [`PlanQueue`] is the time-ordered plan queue (after the
//!   discrete-event schedulers of agent-based simulation frameworks): a
//!   binary heap ordered by `(time, insertion id)` with O(1) tombstone
//!   **cancellation**, so a scheduled plan — here the batch-close
//!   timeout — can be revoked when an earlier trigger supersedes it.
//! - [`serve`] drives a Poisson arrival trace through the loop:
//!   arrivals coalesce into batches (explicit **backpressure** — a
//!   batch closes after [`ServeConfig::batch_window`] slots, or
//!   immediately at [`ServeConfig::max_batch`] arrivals, which cancels
//!   the window timer), each fault batch runs the timeout detector
//!   ([`detect_failures`]) whose suspect set is the exact kill-set
//!   [`repair_after_failures`] consumes, joins attach via
//!   [`join_nodes`], and every recovery is audited end to end
//!   (bidirectional schedule feasibility + the Definition 1 delivery
//!   replay) before the loop accepts the next batch.
//!
//! **Victim eligibility.** Crash victims are drawn uniformly from the
//! *detectable* population: non-root nodes with at least one child,
//! tree-independent within a batch (no victim is another's parent).
//! This keeps the loop honestly self-healing — a crashed leaf is
//! invisible to the beacon-timeout detector (its parent expects no
//! beacon from it; DESIGN.md §13 records the blind spot), so leaf
//! crashes would sit as undetected ghosts rather than exercise the
//! recovery path this experiment measures.
//!
//! **Determinism.** Arrival gaps, event kinds, victims and join points
//! all derive from SplitMix64 streams split off the single serve seed
//! ([`faults::stream_seed`]); the engine-backed detector is
//! byte-identical across backends and thread counts. Every field of
//! [`ServeReport`] except the measured [`ServeReport::wall_seconds`]
//! is therefore reproducible bit for bit —
//! [`ServeReport::fingerprint`] renders exactly the deterministic
//! subset, and the `fault_` gates in `tests/determinism.rs` pin it.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use sinr_connectivity::join::join_nodes;
use sinr_connectivity::latency::audit_bitree;
use sinr_connectivity::repair::{repair_after_failures, PriorStructure};
use sinr_connectivity::selector::MeanSamplingSelector;
use sinr_connectivity::tvc::TvcConfig;
use sinr_connectivity::{detect_failures, DetectConfig, RepackMode};
use sinr_geom::{Instance, NodeId};
use sinr_links::{InTree, Link, Schedule};
use sinr_phy::{feasibility, SinrParams};
use sinr_sim::faults::{self, FaultPlan};
use sinr_sim::FaultEvent;

use crate::experiments::e13_churn::{base_structure, sample_join_points};

/// Handle to a scheduled plan, usable for cancellation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanId(u64);

/// Heap entry: fire time plus the insertion id as a deterministic
/// tie-breaker (FIFO among equal times).
#[derive(Debug)]
struct Entry {
    time: f64,
    id: u64,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the binary max-heap then pops smallest time first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.id.cmp(&self.id))
    }
}

/// A time-ordered plan queue with cancellation.
///
/// Plans fire in `(time, insertion order)` order — `f64` times compared
/// by `total_cmp`, so ordering is deterministic for every finite input.
/// [`cancel`](PlanQueue::cancel) is O(1): the payload is removed from
/// the side table and the heap entry becomes a tombstone that
/// [`pop`](PlanQueue::pop) silently skips.
#[derive(Debug, Default)]
pub struct PlanQueue<T> {
    heap: BinaryHeap<Entry>,
    plans: HashMap<u64, T>,
    next_id: u64,
}

impl<T> PlanQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        PlanQueue {
            heap: BinaryHeap::new(),
            plans: HashMap::new(),
            next_id: 0,
        }
    }

    /// Schedules `plan` at `time` (must be finite) and returns its
    /// cancellation handle.
    pub fn add_plan(&mut self, time: f64, plan: T) -> PlanId {
        assert!(time.is_finite(), "plan time must be finite, got {time}");
        let id = self.next_id;
        self.next_id += 1;
        self.heap.push(Entry { time, id });
        self.plans.insert(id, plan);
        PlanId(id)
    }

    /// Cancels a scheduled plan, returning its payload — or `None` if
    /// it already fired or was already cancelled.
    pub fn cancel(&mut self, id: PlanId) -> Option<T> {
        self.plans.remove(&id.0)
    }

    /// Pops the earliest live plan as `(time, payload)`, skipping
    /// cancelled tombstones.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        while let Some(entry) = self.heap.pop() {
            if let Some(plan) = self.plans.remove(&entry.id) {
                return Some((entry.time, plan));
            }
        }
        None
    }

    /// Number of live (not cancelled, not yet fired) plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether no live plan remains.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

/// What arrives on the trace, or fires internally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Plan {
    /// Trace arrival `index` of the given kind.
    Arrival { index: u64, kind: EventKind },
    /// The batch-window timeout: close and process the forming batch.
    BatchClose,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EventKind {
    Fault,
    Join,
}

/// Configuration of one [`serve`] run.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Expected crash arrivals per 1000 slots (Poisson rate).
    pub fault_rate: f64,
    /// Expected join arrivals per 1000 slots (Poisson rate).
    pub join_rate: f64,
    /// Total arrivals to serve before the loop drains and stops.
    pub events: usize,
    /// Slots a forming batch stays open after its first arrival.
    pub batch_window: f64,
    /// Arrivals that close a batch early (cancelling the window timer).
    pub max_batch: usize,
    /// The timeout detector's knobs (threshold, backoff, horizon,
    /// engine backend).
    pub detect: DetectConfig,
    /// Re-packer mode for repairs and joins.
    pub repack: RepackMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            fault_rate: 5.0,
            join_rate: 1.0,
            events: 16,
            batch_window: 32.0,
            max_batch: 4,
            // Declare after 2 missed probes with one backoff cycle:
            // ~3–4 heartbeat cycles from crash to declaration, well
            // inside the 8-cycle horizon even for arrivals late in the
            // batch window.
            detect: DetectConfig {
                miss_threshold: 2,
                max_backoff_exp: 1,
                max_rounds: 8,
                ..DetectConfig::default()
            },
            repack: RepackMode::Incremental,
        }
    }
}

/// What one [`serve`] run measured.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Arrivals served (always the configured count).
    pub events: usize,
    /// How many of them were crash faults.
    pub faults: usize,
    /// How many were joins.
    pub joins: usize,
    /// Faults skipped because no eligible victim remained (0 at any
    /// realistic size; reported so a starved run is visible).
    pub skipped_faults: usize,
    /// Recovery batches processed.
    pub batches: usize,
    /// Batch closes forced early by [`ServeConfig::max_batch`] — each
    /// one cancelled a pending window-timeout plan.
    pub cancelled_closes: usize,
    /// Per victim: crash slot → declaration slot, in slots.
    pub detection_slots: Vec<f64>,
    /// Per victim: crash slot → structure repaired and audited, in
    /// slots (queueing wait + detection + distributed repair).
    pub recovery_slots: Vec<f64>,
    /// Per arrival: slots spent queued behind an in-progress recovery
    /// or an open batch window before its batch closed.
    pub wait_slots: Vec<f64>,
    /// Most arrivals that waited behind one recovery (backpressure
    /// depth).
    pub queue_peak: usize,
    /// End-to-end delivery audits run (one per batch; every one
    /// passed, or [`serve`] would have returned an error).
    pub audits: usize,
    /// Node count after the final recovery.
    pub final_n: usize,
    /// Model time (slots) when the last recovery completed.
    pub horizon: f64,
    /// Measured wall-clock of the whole loop — the one
    /// non-deterministic field, excluded from
    /// [`fingerprint`](ServeReport::fingerprint).
    pub wall_seconds: f64,
}

impl ServeReport {
    /// Served events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_seconds.max(1e-12)
    }

    /// Canonical byte rendering of every deterministic field (exact
    /// `f64` bits for the latency vectors) — what the determinism
    /// gates compare across backends and repeated runs.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "events={} faults={} joins={} skipped={} batches={} cancelled={} \
             queue_peak={} audits={} final_n={} horizon={:016x}",
            self.events,
            self.faults,
            self.joins,
            self.skipped_faults,
            self.batches,
            self.cancelled_closes,
            self.queue_peak,
            self.audits,
            self.final_n,
            self.horizon.to_bits(),
        );
        for (label, xs) in [
            ("det", &self.detection_slots),
            ("rec", &self.recovery_slots),
            ("wait", &self.wait_slots),
        ] {
            let _ = write!(out, "{label}:");
            for x in xs {
                let _ = write!(out, " {:016x}", x.to_bits());
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Domain-separation tags for the serve loop's SplitMix64 streams.
const TAG_GAP: u64 = 0x5EED_1001;
const TAG_KIND: u64 = 0x5EED_1002;
const TAG_VICTIM: u64 = 0x5EED_1003;
const TAG_REPAIR: u64 = 0x5EED_1004;
const TAG_JOIN: u64 = 0x5EED_1005;
const TAG_POINTS: u64 = 0x5EED_1006;

/// The live structure the loop churns.
struct State {
    inst: Instance,
    tree: InTree,
    powers: HashMap<Link, f64>,
    schedule: Schedule,
}

impl State {
    fn parents(&self) -> Vec<Option<NodeId>> {
        (0..self.tree.len()).map(|u| self.tree.parent(u)).collect()
    }
}

/// Runs the self-healing service loop over `inst` and returns the
/// measurements.
///
/// # Errors
///
/// Returns a message on invalid configuration (non-positive or
/// non-finite rates/window, zero events or batch size), on a pipeline
/// error, or if any recovery fails its end-to-end audit.
pub fn serve(
    params: &SinrParams,
    inst: &Instance,
    cfg: &ServeConfig,
    seed: u64,
) -> Result<ServeReport, String> {
    if cfg.events == 0 {
        return Err("serve: events must be at least 1".into());
    }
    if cfg.max_batch == 0 {
        return Err("serve: max_batch must be at least 1".into());
    }
    if !(cfg.batch_window.is_finite() && cfg.batch_window > 0.0) {
        return Err(format!(
            "serve: batch_window must be positive and finite, got {}",
            cfg.batch_window
        ));
    }
    for (name, rate) in [("fault_rate", cfg.fault_rate), ("join_rate", cfg.join_rate)] {
        if !(rate.is_finite() && rate >= 0.0) {
            return Err(format!(
                "serve: {name} must be finite and non-negative, got {rate}"
            ));
        }
    }
    let total_rate = cfg.fault_rate + cfg.join_rate;
    if total_rate <= 0.0 {
        return Err("serve: fault_rate + join_rate must be positive".into());
    }
    if inst.len() < 8 {
        return Err(format!(
            "serve: the loop needs at least 8 nodes, got {}",
            inst.len()
        ));
    }

    let start = std::time::Instant::now();
    let (parents, powers, schedule) = base_structure(params, inst);
    let tree = InTree::from_parents(parents).expect("base structure is a valid in-tree");
    let mut state = State {
        inst: inst.clone(),
        tree,
        powers,
        schedule,
    };

    // The Poisson trace: exponential gaps at the combined rate, each
    // arrival's kind drawn by the rates' mixture weights.
    let per_slot = total_rate / 1000.0;
    let fault_share = cfg.fault_rate / total_rate;
    let mut queue: PlanQueue<Plan> = PlanQueue::new();
    let mut t = 0.0f64;
    for i in 0..cfg.events as u64 {
        let gap_u = faults::unit_f64(faults::stream_seed(seed ^ TAG_GAP, i));
        t += -(1.0 - gap_u).ln() / per_slot;
        let kind = if faults::unit_f64(faults::stream_seed(seed ^ TAG_KIND, i)) < fault_share {
            EventKind::Fault
        } else {
            EventKind::Join
        };
        queue.add_plan(t, Plan::Arrival { index: i, kind });
    }

    let mut report = ServeReport {
        events: cfg.events,
        faults: 0,
        joins: 0,
        skipped_faults: 0,
        batches: 0,
        cancelled_closes: 0,
        detection_slots: Vec::new(),
        recovery_slots: Vec::new(),
        wait_slots: Vec::new(),
        queue_peak: 0,
        audits: 0,
        final_n: state.inst.len(),
        horizon: 0.0,
        wall_seconds: 0.0,
    };

    // The forming batch: (event index, kind, effective arrival time).
    let mut batch: Vec<(u64, EventKind, f64)> = Vec::new();
    let mut close_plan: Option<PlanId> = None;
    let mut busy_until = 0.0f64;
    let mut waiting_now = 0usize;

    while let Some((when, plan)) = queue.pop() {
        match plan {
            Plan::Arrival { index, kind } => {
                // Backpressure: an arrival during a recovery (or an
                // open window) queues until the structure is free.
                let effective = when.max(busy_until);
                if when < busy_until {
                    waiting_now += 1;
                    report.queue_peak = report.queue_peak.max(waiting_now);
                }
                if batch.is_empty() {
                    close_plan =
                        Some(queue.add_plan(effective + cfg.batch_window, Plan::BatchClose));
                }
                batch.push((index, kind, effective));
                if batch.len() >= cfg.max_batch {
                    let id = close_plan.take().expect("a forming batch has a close plan");
                    queue
                        .cancel(id)
                        .expect("the close plan of a forming batch is live");
                    report.cancelled_closes += 1;
                    let fired_at = batch.last().expect("batch is non-empty").2;
                    busy_until = process_batch(
                        params,
                        cfg,
                        seed,
                        &mut state,
                        &mut batch,
                        fired_at,
                        &mut report,
                    )?;
                    waiting_now = 0;
                }
            }
            Plan::BatchClose => {
                close_plan = None;
                busy_until =
                    process_batch(params, cfg, seed, &mut state, &mut batch, when, &mut report)?;
                waiting_now = 0;
            }
        }
    }
    assert!(batch.is_empty(), "the close plan drains the final batch");

    report.final_n = state.inst.len();
    report.horizon = busy_until;
    report.wall_seconds = start.elapsed().as_secs_f64();
    Ok(report)
}

/// Closes one batch at model time `now`: inject the batch's crashes
/// into the timeout detector, repair from its suspect set, attach the
/// batch's joins, audit the result end to end, and advance the state.
/// Returns the model time at which the recovery completes.
fn process_batch(
    params: &SinrParams,
    cfg: &ServeConfig,
    seed: u64,
    state: &mut State,
    batch: &mut Vec<(u64, EventKind, f64)>,
    now: f64,
    report: &mut ServeReport,
) -> Result<f64, String> {
    let events = std::mem::take(batch);
    assert!(!events.is_empty(), "a batch close implies a forming batch");
    report.batches += 1;
    let batch_start = events.first().expect("non-empty").2;
    for &(_, _, arrived) in &events {
        report.wait_slots.push(now - arrived);
    }

    // Draw the batch's victims: uniform over detectable (non-root,
    // non-leaf) nodes, tree-independent within the batch so every
    // crash has a surviving child to declare it and a surviving parent
    // to reattach under.
    let eligible: Vec<NodeId> = (0..state.tree.len())
        .filter(|&u| u != state.tree.root() && !state.tree.children(u).is_empty())
        .collect();
    // (victim, crash slot relative to the batch's first arrival).
    let mut victims: Vec<(NodeId, u64)> = Vec::new();
    let mut join_events: Vec<u64> = Vec::new();
    for &(index, kind, arrived) in &events {
        match kind {
            EventKind::Join => join_events.push(index),
            EventKind::Fault => {
                let mut at = (faults::stream_seed(seed ^ TAG_VICTIM, index) % eligible.len() as u64)
                    as usize;
                let mut chosen = None;
                for _ in 0..eligible.len() {
                    let cand = eligible[at];
                    let independent = victims.iter().all(|&(v, _)| {
                        v != cand
                            && state.tree.parent(cand) != Some(v)
                            && state.tree.parent(v) != Some(cand)
                    });
                    if independent {
                        chosen = Some(cand);
                        break;
                    }
                    at = (at + 1) % eligible.len();
                }
                match chosen {
                    Some(v) => victims.push((v, (arrived - batch_start).floor() as u64)),
                    None => report.skipped_faults += 1,
                }
            }
        }
    }
    // Skipped faults still count as served fault arrivals.
    report.faults += events
        .iter()
        .filter(|(_, k, _)| *k == EventKind::Fault)
        .count();
    report.joins += join_events.len();

    let mut service_slots = 0u64;

    // Phase 1: detection + repair of the batch's crashes.
    if !victims.is_empty() {
        let mut plan = FaultPlan::new(
            state.inst.len(),
            faults::stream_seed(seed, report.batches as u64),
        );
        for &(v, at) in &victims {
            plan.push(v, FaultEvent::CrashStop { at });
        }
        let parents = state.parents();
        let prior = PriorStructure {
            parents: &parents,
            powers: &state.powers,
            schedule: &state.schedule,
        };
        let detection = detect_failures(params, &state.inst, &prior, &plan, &cfg.detect, seed)
            .map_err(|e| format!("serve: detection failed: {e}"))?;

        // Coverage must be exact: every injected crash declared, no
        // false positives (the trace injects no reception faults).
        let mut expected: Vec<NodeId> = victims.iter().map(|&(v, _)| v).collect();
        expected.sort_unstable();
        if detection.suspects != expected {
            return Err(format!(
                "serve: detector coverage broke — injected {expected:?}, suspected {:?}",
                detection.suspects
            ));
        }
        let mut last_declared = 0u64;
        for &(v, at) in &victims {
            let declared = detection
                .detections
                .iter()
                .filter(|d| d.suspect == v)
                .map(|d| d.slot)
                .min()
                .expect("coverage checked above");
            report.detection_slots.push((declared - at) as f64);
            last_declared = last_declared.max(declared);
        }
        // The detection phase occupies the loop until the last
        // declaration plus one heartbeat cycle (the reporting beat).
        let detect_slots = last_declared + detection.cycle_slots;

        let mut sel = MeanSamplingSelector::default();
        let repaired = repair_after_failures(
            params,
            &state.inst,
            &prior,
            &detection.suspects,
            &TvcConfig {
                repack: cfg.repack,
                ..TvcConfig::default()
            },
            &mut sel,
            faults::stream_seed(seed ^ TAG_REPAIR, report.batches as u64),
        )
        .map_err(|e| format!("serve: repair failed: {e}"))?;
        service_slots += detect_slots + repaired.runtime_slots;
        for &(_, at) in &victims {
            // Crash → recovered: queueing until the batch closed, then
            // the shared detection + repair service time.
            report.recovery_slots.push(
                (now - (batch_start + at as f64)) + (detect_slots + repaired.runtime_slots) as f64,
            );
        }
        audit(
            params,
            &repaired.instance,
            &repaired.schedule,
            &repaired.bitree,
            &repaired.power,
        )?;
        report.audits += 1;
        #[cfg(feature = "trace")]
        sinr_sim::trace::emit(sinr_sim::trace::TraceEvent::RecoveryComplete {
            index: (report.batches - 1) as u64,
            batch: victims.len(),
            detection_slots: detect_slots,
            repair_slots: repaired.runtime_slots,
        });
        state.inst = repaired.instance;
        state.tree = repaired.tree;
        state.powers = repaired
            .power
            .as_explicit()
            .expect("repair assigns explicit powers")
            .clone();
        state.schedule = repaired.schedule;
    }

    // Phase 2: the batch's joins attach to the repaired structure.
    if !join_events.is_empty() {
        let points = sample_join_points(
            &state.inst,
            join_events.len(),
            faults::stream_seed(seed ^ TAG_POINTS, report.batches as u64),
        );
        let parents = state.parents();
        let prior = PriorStructure {
            parents: &parents,
            powers: &state.powers,
            schedule: &state.schedule,
        };
        let mut sel = MeanSamplingSelector::default();
        let joined = join_nodes(
            params,
            &state.inst,
            &prior,
            &points,
            &TvcConfig {
                repack: cfg.repack,
                ..TvcConfig::default()
            },
            &mut sel,
            faults::stream_seed(seed ^ TAG_JOIN, report.batches as u64),
        )
        .map_err(|e| format!("serve: join failed: {e}"))?;
        service_slots += joined.runtime_slots;
        audit(
            params,
            &joined.instance,
            &joined.schedule,
            &joined.bitree,
            &joined.power,
        )?;
        report.audits += 1;
        state.inst = joined.instance;
        state.tree = joined.tree;
        state.powers = joined
            .power
            .as_explicit()
            .expect("join assigns explicit powers")
            .clone();
        state.schedule = joined.schedule;
    }

    Ok(now + service_slots as f64)
}

/// The per-recovery audit: both schedule directions SINR-feasible and
/// the Definition 1 delivery replay clean.
fn audit(
    params: &SinrParams,
    inst: &Instance,
    schedule: &Schedule,
    bitree: &sinr_links::BiTree,
    power: &sinr_phy::PowerAssignment,
) -> Result<(), String> {
    feasibility::validate_schedule(params, inst, schedule, power)
        .map_err(|e| format!("serve: post-recovery aggregation infeasible: {e}"))?;
    let dual = schedule
        .map_links(Link::dual)
        .map_err(|e| format!("serve: tree links lack distinct duals: {e}"))?;
    feasibility::validate_schedule(params, inst, &dual, power)
        .map_err(|e| format!("serve: post-recovery dissemination infeasible: {e}"))?;
    let (up, down) = audit_bitree(params, inst, bitree, power)
        .map_err(|e| format!("serve: delivery audit errored: {e}"))?;
    if !(up.all_delivered && down.all_reached) {
        return Err("serve: post-recovery delivery audit failed".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Family;

    #[test]
    fn plan_queue_orders_by_time_then_insertion() {
        let mut q: PlanQueue<&str> = PlanQueue::new();
        q.add_plan(5.0, "c");
        q.add_plan(1.0, "a");
        q.add_plan(5.0, "d"); // same time as "c": FIFO by insertion
        q.add_plan(2.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, ["a", "b", "c", "d"]);
        assert!(q.is_empty());
    }

    #[test]
    fn plan_queue_cancellation_is_a_tombstone() {
        let mut q: PlanQueue<u32> = PlanQueue::new();
        let a = q.add_plan(1.0, 10);
        let b = q.add_plan(2.0, 20);
        q.add_plan(3.0, 30);
        assert_eq!(q.len(), 3);
        assert_eq!(q.cancel(b), Some(20));
        assert_eq!(q.cancel(b), None, "double cancel is a no-op");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((1.0, 10)));
        // The cancelled entry is skipped, not returned.
        assert_eq!(q.pop(), Some((3.0, 30)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.cancel(a), None, "cancelling after firing is a no-op");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn plan_queue_rejects_non_finite_times() {
        PlanQueue::new().add_plan(f64::NAN, 0u8);
    }

    fn quick_cfg(events: usize) -> ServeConfig {
        ServeConfig {
            events,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serve_rejects_hostile_configs() {
        let params = SinrParams::default();
        let inst = Family::UniformSquare.instance(64, 3);
        for cfg in [
            ServeConfig {
                events: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                batch_window: 0.0,
                ..ServeConfig::default()
            },
            ServeConfig {
                batch_window: f64::INFINITY,
                ..ServeConfig::default()
            },
            ServeConfig {
                fault_rate: -1.0,
                ..ServeConfig::default()
            },
            ServeConfig {
                join_rate: f64::NAN,
                ..ServeConfig::default()
            },
            ServeConfig {
                fault_rate: 0.0,
                join_rate: 0.0,
                ..ServeConfig::default()
            },
        ] {
            assert!(serve(&params, &inst, &cfg, 1).is_err(), "{cfg:?}");
        }
    }

    #[test]
    fn serve_processes_every_event_and_audits_every_recovery() {
        let params = SinrParams::default();
        let inst = Family::UniformSquare.instance(96, 7);
        let rep = serve(&params, &inst, &quick_cfg(6), 11).unwrap();
        assert_eq!(rep.events, 6);
        assert_eq!(rep.faults + rep.joins, 6);
        assert_eq!(rep.skipped_faults, 0);
        assert!(rep.batches >= 1);
        assert!(rep.audits >= rep.batches);
        assert_eq!(rep.detection_slots.len() + rep.skipped_faults, rep.faults);
        assert_eq!(rep.recovery_slots.len(), rep.detection_slots.len());
        assert_eq!(rep.wait_slots.len(), 6);
        assert!(rep.horizon > 0.0);
        // Detection can't be instant, and recovery includes it.
        for (&d, &r) in rep.detection_slots.iter().zip(&rep.recovery_slots) {
            assert!(d > 0.0);
            assert!(r >= d);
        }
    }

    #[test]
    fn serve_is_deterministic_and_backend_invariant() {
        let params = SinrParams::default();
        let inst = Family::UniformSquare.instance(96, 5);
        let cfg = quick_cfg(5);
        let a = serve(&params, &inst, &cfg, 23).unwrap();
        let b = serve(&params, &inst, &cfg, 23).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint(), "repeated run diverged");
        let naive = ServeConfig {
            detect: DetectConfig {
                backend: sinr_connectivity::EngineBackend::Naive,
                ..cfg.detect
            },
            ..cfg
        };
        let c = serve(&params, &inst, &naive, 23).unwrap();
        assert_eq!(a.fingerprint(), c.fingerprint(), "naive detector diverged");
        // A different seed genuinely changes the trace.
        let d = serve(&params, &inst, &cfg, 24).unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint());
    }
}
