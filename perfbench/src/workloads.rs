//! The four workloads: set-up, the timed operation, and the oracle that
//! checks its result.
//!
//! Every call into a layer goes through [`Tracer::span`], so the traced
//! run attributes the operation's wall-clock to the public functions of
//! `sinr_geom`, `sinr_phy`, `sinr_baselines` and `sinr_connectivity`.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::StdRng;
use sinr_baselines::mst::centroid_root;
use sinr_bench::experiments::e13_churn::sample_join_points;
use sinr_bench::serve::ServeConfig;
use sinr_bench::workloads::Family;
use sinr_connectivity::init::{run_init, InitConfig};
use sinr_connectivity::latency::audit_bitree;
use sinr_connectivity::repair::{repair_after_failures, PriorStructure};
use sinr_connectivity::selector::{
    DistrCapSelector, MeanSamplingSelector, SelectorOutcome, SubsetSelector,
};
use sinr_connectivity::tvc::{tree_via_capacity, TvcConfig};
use sinr_connectivity::{detect_failures, join::join_nodes};
use sinr_geom::{Instance, NodeId};
use sinr_links::{BiTree, InTree, Link, LinkSet, Schedule};
use sinr_phy::{feasibility, packing, ChannelModel, PowerAssignment, SinrParams};
use sinr_sim::faults::{self, FaultPlan};
use sinr_sim::FaultEvent;

use crate::reference::{self, Reference};
use crate::trace::Tracer;

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// §6 `Init` on dense uniform instances.
    Init,
    /// `TreeViaCapacity` with `Distr-Cap` (§8.2, power control).
    Tvc,
    /// The centralized MST bi-tree: MST plus ordered first-fit packing.
    Pack,
    /// The service loop's batch step: detect, repair, join, audit.
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Init,
        Workload::Tvc,
        Workload::Pack,
        Workload::Churn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Init => "init-8k",
            Workload::Tvc => "tvc-128",
            Workload::Pack => "pack-4k",
            Workload::Churn => "churn-256",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much one operation of a workload builds: `instances` independent
/// instances of `nodes` nodes each (a churn operation replays `batches`
/// recoveries on each).
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub nodes: usize,
    pub instances: usize,
    pub batches: usize,
}

const fn shape(nodes: usize, instances: usize, batches: usize) -> Shape {
    Shape {
        nodes,
        instances,
        batches,
    }
}

impl Shape {
    /// The full benchmark's shape of `w`.
    pub fn full(w: Workload) -> Shape {
        match w {
            Workload::Init => shape(8192, 6, 0),
            Workload::Tvc => shape(128, 40, 0),
            Workload::Pack => shape(4096, 32, 0),
            Workload::Churn => shape(256, 48, 3),
        }
    }

    /// The smoke mode's shape: the same code paths at small n.
    pub fn smoke(w: Workload) -> Shape {
        match w {
            Workload::Init => shape(1024, 2, 0),
            Workload::Tvc => shape(64, 2, 0),
            Workload::Pack => shape(1024, 2, 0),
            Workload::Churn => shape(128, 2, 2),
        }
    }
}

/// What one instance's pipeline produced, reduced to what the benchmark
/// reports and checks.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Wall-clock of this instance's pipeline, in seconds.
    pub seconds: f64,
    /// FNV-1a over tree, both schedules and power bits (see
    /// [`fingerprint`]); repetitions on the same inputs must agree.
    pub fingerprint: u64,
    /// Aggregation schedule length in slots.
    pub schedule_slots: usize,
    /// Distributed running time in slots (`init`, `tvc`).
    pub runtime_slots: Option<u64>,
    /// Per victim: model-time crash → repaired and audited, in slots
    /// (`churn`).
    pub recovery_slots: Vec<f64>,
    /// The structure the oracle checks (`None` for churn, which audits
    /// after every recovery inside the timed loop).
    pub structure: Option<Structure>,
}

/// A built bi-tree with the powers both of its schedules run under.
#[derive(Clone, Debug)]
pub struct Structure {
    pub bitree: BiTree,
    pub power: PowerAssignment,
}

/// One instance after set-up: it can run its pipeline again and again
/// on the same inputs.
pub trait Bench {
    /// Runs the pipeline once. An `Err` is a failed operation.
    fn run(&self, t: &Tracer) -> Result<Outcome, String>;
    /// Operations one [`run`](Bench::run) attempts: 1, or the
    /// recoveries of a churn replay.
    fn attempts(&self) -> usize {
        1
    }
    /// The instance the pipeline runs on.
    fn instance(&self) -> &Instance;
}

/// One operation of a workload: the pipeline on each of its instances.
pub struct Pass {
    benches: Vec<Box<dyn Bench>>,
}

/// What one [`Pass`] produced.
#[derive(Clone, Debug)]
pub struct PassOutcome {
    /// FNV-1a over the instances' fingerprints, in order.
    pub fingerprint: u64,
    /// Mean aggregation schedule length over the instances.
    pub schedule_slots: f64,
    /// Mean distributed running time over the instances (`init`, `tvc`).
    pub runtime_slots: Option<f64>,
    /// Every victim's recovery time (`churn`).
    pub recovery_slots: Vec<f64>,
    /// Reference kernel times taken between the instances.
    pub reference_seconds: Vec<f64>,
    pub outcomes: Vec<Outcome>,
}

impl Pass {
    /// Operations one [`run`](Pass::run) attempts.
    pub fn attempts(&self) -> usize {
        self.benches.iter().map(|b| b.attempts()).sum()
    }

    /// Runs every instance's pipeline; the first failure fails the pass.
    /// With a `reference`, its kernel is timed before each instance, at
    /// least [`reference::SAMPLES_PER_PASS`] times per pass.
    pub fn run(
        &self,
        t: &Tracer,
        mut reference: Option<&mut Reference>,
    ) -> Result<PassOutcome, String> {
        let per_instance = reference::SAMPLES_PER_PASS.div_ceil(self.benches.len());
        let mut reference_seconds = Vec::new();
        let outcomes = self
            .benches
            .iter()
            .enumerate()
            .map(|(i, b)| {
                if let Some(r) = reference.as_deref_mut() {
                    reference_seconds.extend((0..per_instance).map(|_| r.seconds()));
                }
                let start = Instant::now();
                let mut out = b.run(t).map_err(|e| format!("instance {i}: {e}"))?;
                out.seconds = start.elapsed().as_secs_f64();
                Ok(out)
            })
            .collect::<Result<Vec<Outcome>, String>>()?;
        let k = outcomes.len() as f64;
        let fingerprint = outcomes
            .iter()
            .fold(FNV_OFFSET, |h, o| fnv(h, &o.fingerprint.to_le_bytes()));
        let runtime: Option<Vec<u64>> = outcomes.iter().map(|o| o.runtime_slots).collect();
        Ok(PassOutcome {
            fingerprint,
            schedule_slots: outcomes
                .iter()
                .map(|o| o.schedule_slots as f64)
                .sum::<f64>()
                / k,
            runtime_slots: runtime.map(|r| r.iter().sum::<u64>() as f64 / k),
            recovery_slots: outcomes
                .iter()
                .flat_map(|o| o.recovery_slots.iter().copied())
                .collect(),
            reference_seconds,
            outcomes,
        })
    }

    /// The oracle on every instance's structure, outside the timed loop.
    pub fn check(&self, out: &PassOutcome, t: &Tracer) -> Result<(), String> {
        for (i, (b, o)) in self.benches.iter().zip(&out.outcomes).enumerate() {
            if let Some(s) = &o.structure {
                check(b.instance(), s, t).map_err(|e| format!("instance {i}: {e}"))?;
            }
        }
        Ok(())
    }
}

/// Builds the workload's inputs from `seed`: instance `i` is generated
/// from the `i`-th SplitMix64 stream of `seed`.
pub fn setup(w: Workload, shape: &Shape, seed: u64, t: &Tracer) -> Pass {
    let benches = (0..shape.instances as u64)
        .map(|i| {
            let inst_seed = faults::stream_seed(seed, i);
            let inst = t.span("geom.gen", || {
                Family::UniformSquare.instance(shape.nodes, inst_seed)
            });
            let algo_seed = inst_seed ^ 0x5EED_A160;
            let bench: Box<dyn Bench> = match w {
                Workload::Init => Box::new(InitBench {
                    inst,
                    seed: algo_seed,
                }),
                Workload::Tvc => Box::new(TvcBench {
                    inst,
                    seed: algo_seed,
                }),
                Workload::Pack => Box::new(PackBench { inst }),
                Workload::Churn => Box::new(ChurnBench {
                    base: base_structure(&inst, t),
                    batches: shape.batches,
                    seed: algo_seed,
                }),
            };
            bench
        })
        .collect();
    Pass { benches }
}

// ------------------------------------------------------------------
// init-8k
// ------------------------------------------------------------------

struct InitBench {
    inst: Instance,
    seed: u64,
}

impl Bench for InitBench {
    fn run(&self, t: &Tracer) -> Result<Outcome, String> {
        let params = SinrParams::default();
        let out = t
            .span("core.init", || {
                run_init(&params, &self.inst, &InitConfig::default(), self.seed)
            })
            .map_err(|e| format!("init failed: {e}"))?;
        t.add("core.init.slots", out.run.slots_used as f64);
        let power = out.run.power_assignment();
        Ok(Outcome {
            seconds: 0.0,
            fingerprint: fingerprint(&out.bitree, &power, out.run.slots_used),
            schedule_slots: out.schedule.num_slots(),
            runtime_slots: Some(out.run.slots_used),
            recovery_slots: Vec::new(),
            structure: Some(Structure {
                bitree: out.bitree,
                power,
            }),
        })
    }

    fn instance(&self) -> &Instance {
        &self.inst
    }
}

// ------------------------------------------------------------------
// tvc-128
// ------------------------------------------------------------------

struct TvcBench {
    inst: Instance,
    seed: u64,
}

/// `Distr-Cap` with its calls traced. `tree_via_capacity` alternates a
/// fresh `Init` run with one selector call, so the interval between two
/// selector calls (or from the start of the run to the first one) is
/// that iteration's `Init` run; it is recorded as `core.init`.
#[derive(Debug)]
struct TracedDistrCap<'t> {
    inner: DistrCapSelector,
    tracer: &'t Tracer,
    mark: Instant,
}

impl SubsetSelector for TracedDistrCap<'_> {
    fn select(
        &mut self,
        params: &SinrParams,
        instance: &Instance,
        model: ChannelModel,
        candidates: &LinkSet,
        rng: &mut StdRng,
    ) -> sinr_connectivity::Result<SelectorOutcome> {
        self.tracer.record("core.init", self.mark, Instant::now());
        let inner = &mut self.inner;
        let out = self.tracer.span("core.tvc.select", || {
            inner.select(params, instance, model, candidates, rng)
        });
        self.mark = Instant::now();
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl Bench for TvcBench {
    fn run(&self, t: &Tracer) -> Result<Outcome, String> {
        let params = SinrParams::default();
        let out = t
            .span("core.tvc", || {
                let mut sel = TracedDistrCap {
                    inner: DistrCapSelector::default(),
                    tracer: t,
                    mark: Instant::now(),
                };
                tree_via_capacity(
                    &params,
                    &self.inst,
                    &TvcConfig::default(),
                    &mut sel,
                    self.seed,
                )
            })
            .map_err(|e| format!("tree-via-capacity failed: {e}"))?;
        let init_slots: u64 = out.trace.iter().map(|it| it.init_slots).sum();
        t.max("core.tvc.iterations", f64::from(out.iterations));
        t.add("core.tvc.init_slots", init_slots as f64);
        t.add("core.init.slots", init_slots as f64);
        t.add(
            "core.tvc.selection_slots",
            out.trace.iter().map(|it| it.selection_slots).sum::<u64>() as f64,
        );
        t.add(
            "core.tvc.selected",
            out.trace.iter().map(|it| it.selected).sum::<usize>() as f64,
        );
        t.add(
            "core.tvc.offered",
            out.trace.iter().map(|it| it.capped_links).sum::<usize>() as f64,
        );
        Ok(Outcome {
            seconds: 0.0,
            fingerprint: fingerprint(&out.bitree, &out.power, out.runtime_slots),
            schedule_slots: out.schedule.num_slots(),
            runtime_slots: Some(out.runtime_slots),
            recovery_slots: Vec::new(),
            structure: Some(Structure {
                bitree: out.bitree,
                power: out.power,
            }),
        })
    }

    fn instance(&self) -> &Instance {
        &self.inst
    }
}

// ------------------------------------------------------------------
// pack-4k
// ------------------------------------------------------------------

struct PackBench {
    inst: Instance,
}

/// `packing::pack_tree_ordered`, traced, with the shape of the schedule
/// it returned: the largest slot and Σ k² over slots (a proxy for the
/// slot auditor's work).
fn traced_pack(
    params: &SinrParams,
    inst: &Instance,
    tree: &InTree,
    power: &PowerAssignment,
    t: &Tracer,
) -> Result<Schedule, String> {
    let (schedule, unschedulable) = t.span("phy.packing", || {
        packing::pack_tree_ordered(params, inst, tree, power)
    });
    if !unschedulable.is_empty() {
        return Err(format!(
            "packing left {} links unschedulable",
            unschedulable.len()
        ));
    }
    for slot in schedule.slots() {
        let k = slot.len() as f64;
        t.max("phy.packing.max_slot_links", k);
        t.add("phy.packing.sum_k2", k * k);
    }
    Ok(schedule)
}

impl Bench for PackBench {
    fn run(&self, t: &Tracer) -> Result<Outcome, String> {
        let params = SinrParams::default();
        let parents = t.span("geom.mst", || {
            sinr_geom::mst::mst_parent_array(&self.inst, centroid_root(&self.inst))
        });
        let tree = InTree::from_parents(parents).map_err(|e| format!("MST in-tree: {e}"))?;
        let power = PowerAssignment::mean_with_margin(&params, self.inst.delta());
        let schedule = traced_pack(&params, &self.inst, &tree, &power, t)?;
        let bitree = BiTree::new(tree, schedule).map_err(|e| format!("MST bi-tree: {e}"))?;
        Ok(Outcome {
            seconds: 0.0,
            fingerprint: fingerprint(&bitree, &power, 0),
            schedule_slots: bitree.num_slots(),
            runtime_slots: None,
            recovery_slots: Vec::new(),
            structure: Some(Structure { bitree, power }),
        })
    }

    fn instance(&self) -> &Instance {
        &self.inst
    }
}

// ------------------------------------------------------------------
// churn-256
// ------------------------------------------------------------------

/// The live structure the churn workload changes.
#[derive(Clone, Debug, PartialEq)]
pub struct Live {
    pub inst: Instance,
    pub parents: Vec<Option<NodeId>>,
    pub powers: HashMap<Link, f64>,
    pub schedule: Schedule,
}

/// The MST base structure of `e13_churn::base_structure`, built from the
/// same public calls so that its MST and packing are traced: the MST
/// toward the centroid root, explicit mean-with-margin powers for both
/// directions, and the ordered bidirectional packing.
pub fn base_structure(inst: &Instance, t: &Tracer) -> Live {
    let params = SinrParams::default();
    let parents = t.span("geom.mst", || {
        sinr_geom::mst::mst_parent_array(inst, centroid_root(inst))
    });
    let tree = InTree::from_parents(parents.clone()).expect("MST orientation is a valid in-tree");
    let formula = PowerAssignment::mean_with_margin(&params, inst.delta());
    let mut powers = HashMap::new();
    for l in tree.aggregation_links().iter() {
        for dir in [l, l.dual()] {
            let p = formula
                .power_of(dir, inst, &params)
                .expect("mean power is oblivious");
            powers.insert(dir, p);
        }
    }
    let power = PowerAssignment::explicit(powers.clone()).expect("mean powers are positive");
    let schedule = traced_pack(&params, inst, &tree, &power, t)
        .expect("mean-with-margin powers pack every MST link");
    Live {
        inst: inst.clone(),
        parents,
        powers,
        schedule,
    }
}

struct ChurnBench {
    base: Live,
    batches: usize,
    seed: u64,
}

/// Stream tags of the churn workload's SplitMix64 draws.
const TAG_OFFSET: u64 = 0xC4A7_0001;
const TAG_VICTIM: u64 = 0xC4A7_0002;
const TAG_REPAIR: u64 = 0xC4A7_0003;
const TAG_JOIN: u64 = 0xC4A7_0004;
const TAG_POINTS: u64 = 0xC4A7_0005;

/// The audit after every recovery, as the service loop runs it: both
/// schedule directions SINR-feasible and the Definition 1 delivery
/// replay clean.
fn audit(
    params: &SinrParams,
    inst: &Instance,
    bitree: &BiTree,
    power: &PowerAssignment,
    t: &Tracer,
) -> Result<(), String> {
    let up = bitree.aggregation_schedule();
    t.span("phy.validate", || {
        feasibility::validate_schedule(params, inst, up, power)
    })
    .map_err(|e| format!("aggregation schedule infeasible: {e}"))?;
    let down = up
        .map_links(Link::dual)
        .map_err(|e| format!("tree links lack distinct duals: {e}"))?;
    t.span("phy.validate", || {
        feasibility::validate_schedule(params, inst, &down, power)
    })
    .map_err(|e| format!("dissemination schedule infeasible: {e}"))?;
    let (conv, bcast) = t
        .span("core.latency.audit", || {
            audit_bitree(params, inst, bitree, power)
        })
        .map_err(|e| format!("delivery audit errored: {e}"))?;
    if !(conv.all_delivered && bcast.all_reached) {
        return Err("delivery audit failed".into());
    }
    Ok(())
}

/// Crash victims for one batch, drawn as the service loop draws them:
/// uniform over detectable nodes (non-root, with a child), pairwise
/// tree-independent so every crash keeps a child to declare it and a
/// parent to reattach under.
fn draw_victims(tree: &InTree, seed: u64, first_event: u64, count: usize) -> Vec<NodeId> {
    let eligible: Vec<NodeId> = (0..tree.len())
        .filter(|&u| u != tree.root() && !tree.children(u).is_empty())
        .collect();
    let mut victims: Vec<NodeId> = Vec::with_capacity(count);
    for i in 0..count as u64 {
        let mut at = (faults::stream_seed(seed ^ TAG_VICTIM, first_event + i)
            % eligible.len() as u64) as usize;
        for _ in 0..eligible.len() {
            let cand = eligible[at];
            let independent = victims.iter().all(|&v| {
                v != cand && tree.parent(cand) != Some(v) && tree.parent(v) != Some(cand)
            });
            if independent {
                victims.push(cand);
                break;
            }
            at = (at + 1) % eligible.len();
        }
    }
    victims
}

impl ChurnBench {
    /// One recovery batch: `max_batch − 1` crashes and one join, as the
    /// service loop closes a full batch under backpressure. Returns the
    /// next live structure and each victim's recovery time in slots.
    fn batch(
        &self,
        live: Live,
        b: u64,
        cfg: &ServeConfig,
        t: &Tracer,
    ) -> Result<(Live, Vec<f64>), String> {
        let params = SinrParams::default();
        let faults_per_batch = cfg.max_batch - 1;
        let first_event = b * cfg.max_batch as u64;
        let tree = InTree::from_parents(live.parents.clone())
            .map_err(|e| format!("live tree invalid: {e}"))?;
        let victims = draw_victims(&tree, self.seed, first_event, faults_per_batch);
        if victims.len() != faults_per_batch {
            return Err(format!(
                "only {} of {faults_per_batch} victims eligible",
                victims.len()
            ));
        }
        // Arrival offsets inside the batch window; the batch closes at
        // its last arrival.
        let offsets: Vec<u64> = (0..cfg.max_batch as u64)
            .map(|i| {
                let u =
                    faults::unit_f64(faults::stream_seed(self.seed ^ TAG_OFFSET, first_event + i));
                (u * cfg.batch_window).floor() as u64
            })
            .collect();
        let close = *offsets.iter().max().expect("a batch has arrivals");

        let mut plan = FaultPlan::new(live.inst.len(), faults::stream_seed(self.seed, b));
        for (&v, &at) in victims.iter().zip(&offsets) {
            plan.push(v, FaultEvent::CrashStop { at });
        }
        let prior = PriorStructure {
            parents: &live.parents,
            powers: &live.powers,
            schedule: &live.schedule,
        };
        let detection = t
            .span("core.detect", || {
                detect_failures(&params, &live.inst, &prior, &plan, &cfg.detect, self.seed)
            })
            .map_err(|e| format!("detection failed: {e}"))?;
        t.add("core.detect.slots", detection.slots_used as f64);
        let mut expected = victims.clone();
        expected.sort_unstable();
        if detection.suspects != expected {
            return Err(format!(
                "detector suspected {:?}, injected {expected:?}",
                detection.suspects
            ));
        }
        // Detection occupies the loop until the last victim's first
        // declaration plus one heartbeat cycle (the reporting beat).
        let last_declared = victims
            .iter()
            .map(|&v| {
                detection
                    .detections
                    .iter()
                    .filter(|d| d.suspect == v)
                    .map(|d| d.slot)
                    .min()
                    .expect("every victim was declared")
            })
            .max()
            .expect("a batch has victims");
        let detect_slots = last_declared + detection.cycle_slots;

        let tvc = TvcConfig {
            repack: cfg.repack,
            ..TvcConfig::default()
        };
        let repaired = t
            .span("core.repair", || {
                repair_after_failures(
                    &params,
                    &live.inst,
                    &prior,
                    &detection.suspects,
                    &tvc,
                    &mut MeanSamplingSelector::default(),
                    faults::stream_seed(self.seed ^ TAG_REPAIR, b),
                )
            })
            .map_err(|e| format!("repair failed: {e}"))?;
        t.add("core.repair.slots", repaired.runtime_slots as f64);
        record_repack(&repaired.repack, t);
        audit(
            &params,
            &repaired.instance,
            &repaired.bitree,
            &repaired.power,
            t,
        )?;
        let recovery: Vec<f64> = offsets[..faults_per_batch]
            .iter()
            .map(|&at| ((close - at) + detect_slots + repaired.runtime_slots) as f64)
            .collect();

        let points = sample_join_points(
            &repaired.instance,
            1,
            faults::stream_seed(self.seed ^ TAG_POINTS, b),
        );
        let repaired_parents: Vec<Option<NodeId>> = (0..repaired.tree.len())
            .map(|u| repaired.tree.parent(u))
            .collect();
        let repaired_powers = repaired
            .power
            .as_explicit()
            .ok_or("repair returned oblivious powers")?;
        let prior = PriorStructure {
            parents: &repaired_parents,
            powers: repaired_powers,
            schedule: &repaired.schedule,
        };
        let joined = t
            .span("core.join", || {
                join_nodes(
                    &params,
                    &repaired.instance,
                    &prior,
                    &points,
                    &tvc,
                    &mut MeanSamplingSelector::default(),
                    faults::stream_seed(self.seed ^ TAG_JOIN, b),
                )
            })
            .map_err(|e| format!("join failed: {e}"))?;
        t.add("core.join.slots", joined.runtime_slots as f64);
        record_repack(&joined.repack, t);
        audit(&params, &joined.instance, &joined.bitree, &joined.power, t)?;

        let next = Live {
            parents: (0..joined.tree.len())
                .map(|u| joined.tree.parent(u))
                .collect(),
            powers: joined
                .power
                .as_explicit()
                .ok_or("join returned oblivious powers")?
                .clone(),
            schedule: joined.schedule,
            inst: joined.instance,
        };
        Ok((next, recovery))
    }
}

fn record_repack(stats: &sinr_connectivity::RepackStats, t: &Tracer) {
    t.add("core.repack.repacked_links", stats.repacked_links as f64);
    t.add("core.repack.kept_links", stats.kept_in_place as f64);
    t.add("core.repack.ms", stats.pack_seconds * 1e3);
}

impl Bench for ChurnBench {
    fn run(&self, t: &Tracer) -> Result<Outcome, String> {
        let cfg = ServeConfig::default();
        let mut live = self.base.clone();
        let mut recovery = Vec::new();
        for b in 0..self.batches as u64 {
            let (next, rec) = self
                .batch(live, b, &cfg, t)
                .map_err(|e| format!("recovery {b}: {e}"))?;
            live = next;
            recovery.extend(rec);
        }
        let tree = InTree::from_parents(live.parents).map_err(|e| format!("final tree: {e}"))?;
        let schedule_slots = live.schedule.num_slots();
        let bitree = BiTree::new(tree, live.schedule).map_err(|e| format!("final bi-tree: {e}"))?;
        let power = PowerAssignment::explicit(live.powers).map_err(|e| format!("{e}"))?;
        let mut fp = fingerprint(&bitree, &power, 0);
        for r in &recovery {
            fp = fnv(fp, &r.to_bits().to_le_bytes());
        }
        Ok(Outcome {
            seconds: 0.0,
            fingerprint: fp,
            schedule_slots,
            runtime_slots: None,
            recovery_slots: recovery,
            // Audited after every recovery, inside the timed loop.
            structure: None,
        })
    }

    fn attempts(&self) -> usize {
        self.batches
    }

    fn instance(&self) -> &Instance {
        &self.base.inst
    }
}

// ------------------------------------------------------------------
// The oracle
// ------------------------------------------------------------------

/// Checks a built structure outside the timed region: a spanning tree,
/// both schedule directions SINR-feasible, and the delivery replay.
pub fn check(inst: &Instance, s: &Structure, t: &Tracer) -> Result<(), String> {
    let links = s.bitree.tree().aggregation_links().len();
    if links + 1 != inst.len() {
        return Err(format!("tree has {links} links for {} nodes", inst.len()));
    }
    audit(&SinrParams::default(), inst, &s.bitree, &s.power, t)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a step over `bytes`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a over a result as E12 computes it: slot counts, tree links,
/// both schedules in slot order, and the explicit power bits.
pub fn fingerprint(bitree: &BiTree, power: &PowerAssignment, runtime_slots: u64) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv(h, &(bitree.num_slots() as u64).to_le_bytes());
    h = fnv(h, &runtime_slots.to_le_bytes());
    let link = |h: u64, l: Link| {
        let h = fnv(h, &(l.sender as u64).to_le_bytes());
        fnv(h, &(l.receiver as u64).to_le_bytes())
    };
    for l in bitree.tree().aggregation_links().iter() {
        h = link(h, l);
    }
    for schedule in [
        bitree.aggregation_schedule().clone(),
        bitree.dissemination_schedule(),
    ] {
        for (l, s) in schedule.iter() {
            h = link(h, l);
            h = fnv(h, &(s as u64).to_le_bytes());
        }
    }
    if let Some(powers) = power.as_explicit() {
        let mut entries: Vec<_> = powers.iter().collect();
        entries.sort_by_key(|(l, _)| **l);
        for (&l, p) in entries {
            h = link(h, l);
            h = fnv(h, &p.to_bits().to_le_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_structure_matches_the_churn_experiment() {
        let inst = Family::UniformSquare.instance(200, 3);
        let live = base_structure(&inst, &Tracer::new(true));
        let (parents, powers, schedule) =
            sinr_bench::experiments::e13_churn::base_structure(&SinrParams::default(), &inst);
        assert_eq!(live.parents, parents);
        assert_eq!(live.powers, powers);
        assert_eq!(live.schedule, schedule);
    }

    #[test]
    fn the_seed_alone_makes_the_inputs() {
        let shape = Shape::smoke(Workload::Pack);
        let off = Tracer::new(false);
        let instances = |seed| {
            let pass = setup(Workload::Pack, &shape, seed, &off);
            pass.benches
                .iter()
                .map(|b| b.instance().clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(instances(5), instances(5));
        assert_ne!(instances(5), instances(6));
        let pass = setup(Workload::Pack, &shape, 5, &off);
        assert_ne!(pass.benches[0].instance(), pass.benches[1].instance());
    }
}
