//! SoA parity gate (DESIGN.md §12): the structure-of-arrays
//! `InterferenceField` against an independent reimplementation of the
//! **old bucket layout** (`HashMap<CellKey, Vec<member>>`, the pre-SoA
//! storage), sharing only the published formulas and visit orders.
//!
//! The SoA rewrite's contract is that storage layout is unobservable:
//! same cell-size formula, same clamped near-scan order, same Chebyshev
//! ring order, same within-cell insertion order — hence bit-identical
//! accumulation, hence identical certify/fallback *decisions* and
//! identical decoded senders. This suite re-derives all of that from a
//! hash-map reference and compares:
//!
//! - the decoded sender, also against `decode_best_exact`;
//! - on fields of at least `AGGREGATE_SLOT` (64) senders, which walk
//!   rings, the decision class (small-exact / certified / fallback),
//!   made observable by `FieldScratch`'s always-on `QueryStats`
//!   counters;
//!
//! across four power families (uniform / mean / linear, and `Init`'s
//! one round power per length class on both channels), random
//! geometry, and sender counts from a handful up to n = 4096 (the
//! deterministic large cases at the bottom).
//!
//! The reference keeps the one-term far bound, all unseen power at the
//! ring's inner radius, and no reach bitmap. The field's per-slot
//! aggregates only prune, so the decision classes must still agree.
//!
//! A smaller field builds no grid and decides in one flat pass on the
//! gain table's bounds, which the reference does not transcribe. Its
//! gate is the width of that pass instead: on the geometric channel a
//! query is `Certified` whenever no sender's exact canonical SINR lies
//! in `β·[0.99, 1.01]`, since at `α = 3` the bounds put a candidate's
//! SINR within 0.5% of the exact value; a pass that fell back needlessly
//! fails it.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sinr_geom::{gen, Instance, NodeId, Point};
use sinr_links::Link;
use sinr_phy::affectance::AffectanceCalc;
use sinr_phy::field::{decode_best_exact, FieldScratch, InterferenceField};
use sinr_phy::{PowerAssignment, SinrParams};

// The field's published guard constants, duplicated on purpose: the
// reference must not share code with the implementation under test.
const GUARD: f64 = 1e-7;
const RADIUS_CUSHION: f64 = 1e-9;
const AGGREGATE_SLOT: usize = 64;
const MAX_CELLS_PER_AXIS: f64 = 64.0;

/// How a decode query was settled (the `QueryStats` classification).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DecisionClass {
    SmallExact,
    Certified,
    Fallback,
}

/// One cell of the old layout: incrementally accumulated weight plus
/// members in insertion order.
#[derive(Default)]
struct Bucket {
    weight: f64,
    members: Vec<(NodeId, Point, f64)>,
}

/// The old bucket-grid interference field: hash-map cells, weight
/// accumulated by `+=` at insertion, iteration by explicit key-range
/// scans (misses skip, exactly like a failed hash lookup).
struct BucketField<'a> {
    params: &'a SinrParams,
    instance: &'a Instance,
    senders: Vec<(NodeId, f64)>,
    cell: f64,
    max_power: f64,
    total_weight: f64,
    cells: HashMap<(i64, i64), Bucket>,
    key_min: (i64, i64),
    key_max: (i64, i64),
}

impl<'a> BucketField<'a> {
    fn build(params: &'a SinrParams, instance: &'a Instance, senders: &[(NodeId, f64)]) -> Self {
        let span = instance.delta().max(1.0);
        let max_power = senders.iter().fold(0.0f64, |m, &(_, p)| m.max(p));
        let radius = decode_radius_for(params, max_power);
        let cell = if radius.is_finite() && radius > 0.0 {
            radius.clamp(span / MAX_CELLS_PER_AXIS, span)
        } else {
            span
        };
        let mut field = BucketField {
            params,
            instance,
            senders: senders.to_vec(),
            cell,
            max_power,
            total_weight: 0.0,
            cells: HashMap::new(),
            key_min: (i64::MAX, i64::MAX),
            key_max: (i64::MIN, i64::MIN),
        };
        for &(u, p) in senders {
            let pos = instance.position(u);
            let k = field.key_of(pos);
            field.key_min = (field.key_min.0.min(k.0), field.key_min.1.min(k.1));
            field.key_max = (field.key_max.0.max(k.0), field.key_max.1.max(k.1));
            let bucket = field.cells.entry(k).or_default();
            bucket.weight += p;
            bucket.members.push((u, pos, p));
            field.total_weight += p;
        }
        field
    }

    fn key_of(&self, p: Point) -> (i64, i64) {
        (
            (p.x / self.cell).floor() as i64,
            (p.y / self.cell).floor() as i64,
        )
    }

    fn max_ring_from(&self, center: Point) -> i64 {
        if self.cells.is_empty() {
            return -1;
        }
        let (cx, cy) = self.key_of(center);
        let dx = (cx - self.key_min.0).abs().max((self.key_max.0 - cx).abs());
        let dy = (cy - self.key_min.1).abs().max((self.key_max.1 - cy).abs());
        dx.max(dy)
    }

    /// The reference decode of a walked field: a line-for-line
    /// transcription of the published certified-decode algorithm over
    /// the bucket layout, reporting which class settled the query.
    fn decode(&self, v: NodeId) -> (DecisionClass, Option<NodeId>) {
        assert!(
            self.senders.len() >= AGGREGATE_SLOT,
            "callers feed walked fields"
        );
        let radius = decode_radius_for(self.params, self.max_power);
        if !radius.is_finite() {
            return (
                DecisionClass::SmallExact,
                decode_best_exact(self.params, self.instance, v, &self.senders),
            );
        }
        let noise = self.params.noise();
        let beta = self.params.beta();
        let channel = self.params.channel();
        let fade_hi = channel.fade_bounds().1;
        let pos_v = self.instance.position(v);

        // Candidate collection: clamped key-rectangle scan, x-outer /
        // y-inner, members in insertion order.
        // `(sender, signal, verdict)`.
        let mut cand: Vec<(NodeId, f64, Option<bool>)> = Vec::new();
        let lo = self.key_of(Point::new(pos_v.x - radius, pos_v.y - radius));
        let hi = self.key_of(Point::new(pos_v.x + radius, pos_v.y + radius));
        let (cx0, cy0) = (lo.0.max(self.key_min.0), lo.1.max(self.key_min.1));
        let (cx1, cy1) = (hi.0.min(self.key_max.0), hi.1.min(self.key_max.1));
        for cx in cx0..=cx1 {
            for cy in cy0..=cy1 {
                let Some(bucket) = self.cells.get(&(cx, cy)) else {
                    continue;
                };
                for &(u, pos_u, power) in &bucket.members {
                    let d = self.instance.distance(u, v);
                    let signal = power * self.params.path_gain(d) * channel.fade(pos_u, pos_v);
                    if signal / noise >= beta {
                        cand.push((u, signal, None));
                    }
                }
            }
        }
        if cand.is_empty() {
            return (DecisionClass::Certified, None);
        }

        // Expanding-ring accumulation with the certified far bound.
        let total_w = self.total_weight;
        let occupied = self.cells.len();
        let mut acc = 0.0f64;
        let mut seen_w = 0.0f64;
        let mut cells_seen = 0usize;
        let mut undecided = cand.len();
        let max_ring = self.max_ring_from(pos_v);
        let (ccx, ccy) = self.key_of(pos_v);
        let mut ring = 0i64;
        while ring <= max_ring {
            let mut visit = |k: (i64, i64)| -> usize {
                let Some(bucket) = self.cells.get(&k) else {
                    return 0;
                };
                for &(_, pos, w) in &bucket.members {
                    acc +=
                        w * self.params.path_gain(pos_v.distance(pos)) * channel.fade(pos, pos_v);
                    seen_w += w;
                }
                1
            };
            if ring == 0 {
                cells_seen += visit((ccx, ccy));
            } else {
                for x in (ccx - ring)..=(ccx + ring) {
                    cells_seen += visit((x, ccy - ring));
                    cells_seen += visit((x, ccy + ring));
                }
                for y in (ccy - ring + 1)..=(ccy + ring - 1) {
                    cells_seen += visit((ccx - ring, y));
                    cells_seen += visit((ccx + ring, y));
                }
            }
            let all_seen = cells_seen == occupied;
            let far = if all_seen {
                0.0
            } else {
                let min_d = ring as f64 * self.cell;
                if min_d > 0.0 {
                    ((total_w - seen_w).max(0.0) + GUARD * total_w)
                        * self.params.path_gain(min_d)
                        * fade_hi
                } else {
                    f64::INFINITY
                }
            };
            if far.is_finite() {
                for c in cand.iter_mut() {
                    if c.2.is_some() {
                        continue;
                    }
                    let s = c.1;
                    let base = acc - s;
                    let slack = GUARD * (acc + s);
                    let i_lo = (base - slack).max(0.0);
                    let i_hi = (base + slack + far).max(0.0);
                    if (s / (noise + i_lo)) * (1.0 + GUARD) < beta {
                        c.2 = Some(false);
                        undecided -= 1;
                    } else if (s / (noise + i_hi)) * (1.0 - GUARD) >= beta {
                        c.2 = Some(true);
                        undecided -= 1;
                    }
                }
            }
            if undecided == 0 || all_seen {
                break;
            }
            ring += 1;
        }

        let yes: Vec<usize> = cand
            .iter()
            .enumerate()
            .filter(|(_, c)| c.2 == Some(true))
            .map(|(i, _)| i)
            .collect();
        if undecided > 0 || yes.len() > 1 {
            return (
                DecisionClass::Fallback,
                decode_best_exact(self.params, self.instance, v, &self.senders),
            );
        }
        (
            DecisionClass::Certified,
            yes.first().map(|&winner| cand[winner].0),
        )
    }
}

fn decode_radius_for(params: &SinrParams, power: f64) -> f64 {
    let power = power * params.channel().fade_bounds().1;
    if params.noise() > 0.0 && power > 0.0 {
        (power * (1.0 + RADIUS_CUSHION) / (params.beta() * params.noise()))
            .powf(1.0 / params.alpha())
    } else {
        f64::INFINITY
    }
}

/// Sender set for one slot: every `stride`-th node transmits with the
/// family's power for its nearest-neighbor uplink.
fn make_senders(
    params: &SinrParams,
    inst: &Instance,
    tau: usize,
    stride: usize,
) -> Vec<(NodeId, f64)> {
    let power = match tau {
        0 => PowerAssignment::uniform_with_margin(params, inst.delta()),
        1 => PowerAssignment::mean_with_margin(params, inst.delta()),
        2 => PowerAssignment::linear_with_margin(params),
        // `Init`'s length class `round`: one power, `2βN·2^{round·α}`.
        round => return round_senders(params, inst, round - 3, stride),
    };
    let grid = sinr_geom::GridIndex::build(inst, (inst.delta() / 8.0).max(1e-6));
    (0..inst.len())
        .step_by(stride.max(2))
        .filter_map(|u| {
            let (v, _) = grid.nearest_neighbor(u)?;
            let p = power.power_of(Link::new(u, v), inst, params).ok()?;
            (p.is_finite() && p > 0.0).then_some((u, p))
        })
        .collect()
}

/// Sender set for `Init`'s length class `round`: every `stride`-th node
/// transmits with the class's one power `2βN·2^{round·α}`.
fn round_senders(
    params: &SinrParams,
    inst: &Instance,
    round: usize,
    stride: usize,
) -> Vec<(NodeId, f64)> {
    let power = params.min_power_for_length(2f64.powi(round as i32));
    (0..inst.len())
        .step_by(stride.max(2))
        .map(|u| (u, power))
        .collect()
}

/// Queries every listener through the field and cross-checks decoded
/// senders with `decode_best_exact`, and decision classes with the
/// bucket reference on walked fields or with the flat pass's width on
/// smaller ones.
fn assert_parity(
    params: &SinrParams,
    inst: &Instance,
    senders: &[(NodeId, f64)],
    listeners: &[NodeId],
) {
    let soa = InterferenceField::build(params, inst, senders);
    let walked = senders.len() >= AGGREGATE_SLOT;
    let reference = walked.then(|| BucketField::build(params, inst, senders));
    let (fade_lo, fade_hi) = params.channel().fade_bounds();
    let flat = !walked
        && fade_hi == fade_lo
        && decode_radius_for(params, senders.iter().fold(0.0, |m, &(_, p)| m.max(p))).is_finite();
    let calc = AffectanceCalc::new(params, inst);
    let mut scratch = FieldScratch::default();
    for &v in listeners {
        let before = scratch.stats;
        let got = soa.decode_best_with(v, &mut scratch);
        let after = scratch.stats;
        assert_eq!(after.queries, before.queries + 1);
        let got_class = if after.small_exact > before.small_exact {
            DecisionClass::SmallExact
        } else if after.fallbacks > before.fallbacks {
            DecisionClass::Fallback
        } else {
            assert!(
                after.certified > before.certified,
                "query left unclassified"
            );
            DecisionClass::Certified
        };

        assert_eq!(got, decode_best_exact(params, inst, v, senders));
        if let Some(reference) = &reference {
            let (want_class, want) = reference.decode(v);
            assert_eq!(
                got, want,
                "listener {v}: SoA decode diverged from the bucket reference"
            );
            assert_eq!(
                got_class, want_class,
                "listener {v}: decision class diverged (decode {got:?})"
            );
        } else if flat {
            assert_ne!(got_class, DecisionClass::SmallExact, "listener {v}");
            let grazing = senders.iter().any(|&(u, p)| {
                let sinr = calc.sinr(Link::new(u, v), p, senders);
                (0.99..=1.01).contains(&(sinr / params.beta()))
            });
            assert!(
                grazing || got_class == DecisionClass::Certified,
                "listener {v}: a flat pass fell back with no SINR near β (decode {got:?})"
            );
        } else {
            assert_eq!(got_class, DecisionClass::SmallExact, "listener {v}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random geometry × all four power families (round classes 0–5
    /// for `Init`'s) × sender counts from a handful to past
    /// `AGGREGATE_SLOT`: every listener's decode equals the oracle's,
    /// walked fields settle each query in the bucket reference's
    /// class, and flat passes fall back only near `β`.
    #[test]
    fn soa_field_matches_bucket_reference(
        seed in 0u64..5_000,
        n in 16usize..260,
        tau in 0usize..9,
        stride in 2usize..6,
    ) {
        let params = SinrParams::default();
        let inst = gen::uniform_square(n, 1.5, seed).unwrap();
        let senders = make_senders(&params, &inst, tau, stride);
        prop_assume!(!senders.is_empty());
        let transmitting: Vec<bool> = {
            let mut t = vec![false; n];
            for &(u, _) in &senders { t[u] = true; }
            t
        };
        let listeners: Vec<NodeId> =
            (0..n).filter(|&v| !transmitting[v]).collect();
        assert_parity(&params, &inst, &senders, &listeners);
    }
}

/// The large deterministic case: n = 4096 across all three power
/// families, with a sampled listener set. Seeds are fixed so a failure
/// reproduces exactly.
#[test]
fn soa_field_matches_bucket_reference_at_4096() {
    let params = SinrParams::default();
    for (tau, seed) in [(0u64, 401u64), (1, 402), (2, 403)] {
        let inst = gen::uniform_square(4096, 1.5, seed).unwrap();
        let senders = make_senders(&params, &inst, tau as usize, 3);
        assert!(
            senders.len() >= AGGREGATE_SLOT,
            "large case must exercise the grid path"
        );
        let transmitting: Vec<bool> = {
            let mut t = vec![false; inst.len()];
            for &(u, _) in &senders {
                t[u] = true;
            }
            t
        };
        // 192 deterministic pseudo-random listeners per family.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x50a0_9a11);
        let listeners: Vec<NodeId> = (0..192)
            .map(|_| rng.gen_range(0..inst.len()))
            .filter(|&v| !transmitting[v])
            .collect();
        assert_parity(&params, &inst, &senders, &listeners);
    }
}

/// `Init`'s power family on large slots: one round power `2βN·2^{rα}`
/// per length class, so the decode radius `R` runs from far below the
/// grid cell (`≥ span/64`) to past the span, on 128 senders of an
/// n = 512 instance, under the geometric and a σ = 6 dB shadowed
/// channel. Slots this large build the field's per-slot aggregates
/// (summed-area far bound, reach bitmap), which the reference lacks.
#[test]
fn init_round_powers_match_bucket_reference_on_large_slots() {
    let geometric = SinrParams::default();
    let shadowed = geometric.with_channel(sinr_phy::ChannelModel::shadowed(9, 6.0).unwrap());
    let inst = gen::uniform_square(512, 1.5, 77).unwrap();
    let span = inst.delta();
    let listeners: Vec<NodeId> = (0..inst.len()).filter(|v| v % 4 == 1).collect();
    for params in [geometric, shadowed] {
        let radius_of = |round| {
            let senders = round_senders(&params, &inst, round, 4);
            assert!(senders.len() >= 64, "the slot must be large");
            decode_radius_for(&params, senders[0].1)
        };
        assert!(radius_of(0) < span / MAX_CELLS_PER_AXIS / 2.0);
        assert!(radius_of(12) > span);
        for round in (0..=12).step_by(2) {
            let senders = round_senders(&params, &inst, round, 4);
            assert_parity(&params, &inst, &senders, &listeners);
        }
    }
}
