//! The spatially-indexed interference field.
//!
//! Every per-slot decode in the simulator and every feasibility probe
//! sums affectance over *all* transmitters, which makes a slot cost
//! `O(n²)`. But the model only ever *consumes* those sums through
//! thresholded decisions — `SINR ≥ β` (decoding, Eqn 1) and
//! `a_S(ℓ) ≤ τ` (admission, §5/§8) — and the paper's thresholded
//! affectance is exactly the observation that far-field terms cannot
//! flip such a decision once the near field has been accounted for.
//!
//! [`InterferenceField`] exploits that: a slot's transmitters are
//! bucketed into a [`WeightedCellGrid`] keyed by cell. Every query —
//! decode, `SINR ≥ τ`, `a_S(ℓ) ≤ τ` — runs one private ring walk. It
//! enumerates cells in expanding Chebyshev rings around the receiver,
//! accumulating the *exact* terms of the visited senders, while the
//! unvisited remainder is bounded by `remaining_power × gain(ring ·
//! cell) × scale` — a certified far-field bound, since every unvisited
//! sender provably lies beyond that distance and `scale` caps a
//! sender's term per unit of power. A query supplies only its
//! per-sender term, its `scale` and its verdict on `(sum, far)`. The
//! decision is accepted only when it holds on **both ends** of the
//! certified interval (with a guard factor that dominates all float
//! rounding, including summation-order error); otherwise the query
//! falls back to the naive computation, term for term in the naive
//! order.
//!
//! A slot of at least 64 senders also builds two per-slot aggregates
//! that only prune: a summed-area table of sender power, which charges
//! each unseen ring its own power at its own inner radius instead of
//! all of it at the nearest one, and a reach bitmap, which answers a
//! listener that no sender can reach without a candidate scan
//! (DESIGN.md §7.1, §7.2).
//!
//! The consequence is the determinism contract of DESIGN.md §7: every
//! decision the field returns — and every `f64` it reports, because
//! reported values are always computed by the canonical naive-order
//! sum — is **bit-identical** to the `O(n)`-per-query naive path. The
//! speedup comes purely from the (overwhelmingly common) queries whose
//! decisions certify from a small near field.
//!
//! Where a decode must be decided exactly — slots of at most 8 senders,
//! zero noise, and threshold-grazing fallbacks — the field settles each
//! sender by its own signal first, so an exact decode costs `O(senders)`
//! gain evaluations, not the `O(senders²)` of the naive reference
//! [`decode_best_exact`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use sinr_geom::{floor_i64, CellKey, Instance, NodeId, Point, WeightedCellGrid};
use sinr_links::Link;

use crate::affectance::AffectanceCalc;
use crate::gain::GainBounds;
use crate::{Result, SinrParams};

/// Relative guard factor applied to every certified bound.
///
/// It must dominate the worst-case relative float error between the
/// field's ring-ordered accumulation and the naive-order sum: for `n ≤
/// 2²⁰` positive terms that error is below `n · 2⁻⁵² < 3·10⁻¹⁰`, so
/// `10⁻⁷` leaves three orders of magnitude of headroom while only
/// sending decisions within `~10⁻⁷·β` of the threshold to the exact
/// fallback. The slot auditor's certified intervals
/// ([`feasibility::SlotAuditor`](crate::feasibility::SlotAuditor)) use
/// the same guard.
pub(crate) const GUARD: f64 = 1e-7;

/// Cushion on the decode-radius derivation (see `decode_radius_for`).
const RADIUS_CUSHION: f64 = 1e-9;

/// The ranges the decode radius's rounding argument covers (see
/// `decode_radius_for`): `βN ≥ fade_hi · REACH_MIN_FLOOR`, radicand
/// `≤ REACH_MAX_RADICAND`, `α ≤ REACH_MAX_ALPHA`. Outside them the
/// radius is infinite.
const REACH_MIN_FLOOR: f64 = 1e-289;
const REACH_MAX_RADICAND: f64 = 1e301;
const REACH_MAX_ALPHA: f64 = 1e4;

/// Up to this many transmitters a slot builds no grid: every query is
/// decided exactly, which is cheaper than any indexing.
const SMALL_SLOT: usize = 8;

/// Relative widening of `R²` below which a walked member may lie inside
/// the decode radius: `d² > R²·(1 + NEAR_SLACK)`, computed, implies a
/// computed `√d² > R`, so only members under it pay for the `sqrt`.
const NEAR_SLACK: f64 = 1e-12;

/// The grid never uses cells smaller than `span / MAX_CELLS_PER_AXIS`,
/// bounding ring scans by a constant number of cell probes.
const MAX_CELLS_PER_AXIS: f64 = 64.0;

/// From this many transmitters a slot also builds its per-slot
/// aggregates: the summed-area table behind the far bound and the
/// reach bitmap (DESIGN.md §7.1, §7.2). The fields built fresh for one
/// check (validation, audits, probes) are mostly smaller, and would pay
/// more to build them than their few queries save.
const AGGREGATE_SLOT: usize = 64;

/// Rings past the current one that the summed-area far bound charges
/// one by one; the rest of the unseen power is charged beyond them.
const LOOKAHEAD: i64 = 8;

/// The widest channel fade range `fade_hi / fade_lo` for which queries
/// walk on table bounds first (DESIGN.md §7.2). A member's bound terms
/// are that range apart: at a range of 4 (σ = 1 dB shadowing) the bound
/// walks already doubled the rings of a uniform n = 4096 slot's
/// decodes, and at σ = 6 dB (a range near 4000) they straddle so often
/// that two walks cost more than one. A wider channel walks exactly at
/// once.
const BOUND_FADE_RANGE: f64 = 2.0;

/// The reach bitmap has about this many cells per sender, unless the
/// decode radius is larger than those cells.
const REACH_CELLS_PER_SENDER: f64 = 64.0;

/// Relative widening of a sender's reach box, covering every rounding
/// between a coordinate difference and its computed distance (see
/// `ReachMap::build`).
const REACH_SLACK: f64 = 1e-12;

/// Below this radius a coordinate difference inside it can underflow
/// when squared, which the reach bitmap's rounding argument excludes;
/// no bitmap is built.
const REACH_MIN_RADIUS: f64 = 1e-150;

/// The exact decode rule of the simulator: the best-SINR transmitter at
/// listener `v`, provided its SINR reaches `β`. Returns `(sender,
/// sender power, sinr)`; the first of equal maxima in sender order
/// wins.
///
/// This is the *reference semantics* and the naive engine backend's
/// decode: it computes every sender's full SINR, `O(senders²)` gain
/// terms per listener. The field's exact path reaches the same result
/// in `O(senders)` (see [`InterferenceField::decode_best_with`]), and
/// every naive-vs-grid gate compares the two.
pub fn decode_best_exact(
    params: &SinrParams,
    instance: &Instance,
    v: NodeId,
    senders: &[(NodeId, f64)],
) -> Option<(NodeId, f64, f64)> {
    let calc = AffectanceCalc::new(params, instance);
    let mut best: Option<(NodeId, f64, f64)> = None;
    for &(u, pu) in senders {
        debug_assert_ne!(u, v, "listeners never appear among transmitters");
        let sinr = calc.sinr(Link::new(u, v), pu, senders);
        if sinr >= params.beta() && best.map_or(true, |(_, _, bs)| sinr > bs) {
            best = Some((u, pu, sinr));
        }
    }
    best
}

/// How decode queries were settled — always-on counters a scratch
/// accumulates across queries (integer bumps, too cheap to gate).
///
/// The invariant `queries == small_exact + certified + fallbacks`
/// classifies every query exactly once:
///
/// - `small_exact` — skipped indexing entirely (at most 8 senders, or
///   no finite decode radius) and were decided by the field's exact
///   `O(senders)` decode (DESIGN.md §7.3);
/// - `certified` — settled by the certified near field or the reach
///   bitmap (including the canonical recompute of the one certified
///   winner);
/// - `fallbacks` — threshold-grazing (or guard-violating) queries,
///   decided by the same exact decode.
///
/// Outside that partition, `straddles` counts the ring walks on table
/// bounds (DESIGN.md §7.2) that left a query open and were walked
/// again with exact terms; the re-walk then certifies the query or
/// sends it to the fallback, exactly as a walk with only exact terms
/// would. `rings` counts the rings decode queries walked, both walks of
/// a straddle included: the size driver of the `far-field-cert`
/// profiling phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Decode queries answered (empty fields excluded).
    pub queries: u64,
    /// Queries decided by the exact decode without indexing.
    pub small_exact: u64,
    /// Queries settled by the certified near field or the reach bitmap.
    pub certified: u64,
    /// Threshold-grazing queries decided by the exact decode.
    pub fallbacks: u64,
    /// Bound walks that straddled and were walked again exactly.
    pub straddles: u64,
    /// Chebyshev-ring iterations executed across all queries.
    pub rings: u64,
}

impl QueryStats {
    /// Folds another scratch's counters in (worker merge).
    pub fn merge(&mut self, other: &QueryStats) {
        self.queries += other.queries;
        self.small_exact += other.small_exact;
        self.certified += other.certified;
        self.fallbacks += other.fallbacks;
        self.straddles += other.straddles;
        self.rings += other.rings;
    }
}

/// Opt-in wall-clock per phase of the decode path (see the profiling
/// taxonomy in DESIGN.md §12). All zero unless
/// [`FieldScratch::enable_timing`] was called — the `Instant` pairs are
/// only worth paying for when a profiling registry will consume them.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Candidate scans (`near-field` phase).
    pub near_field: Duration,
    /// Ring accumulation + certification (`far-field-cert` phase).
    pub far_field_cert: Duration,
    /// Exact decodes (small-slot queries and threshold-grazing
    /// fallbacks) and canonical winner recomputes (`fallback` phase).
    pub fallback: Duration,
}

impl PhaseTimes {
    /// Folds another scratch's timings in (worker merge).
    pub fn merge(&mut self, other: &PhaseTimes) {
        self.near_field += other.near_field;
        self.far_field_cert += other.far_field_cert;
        self.fallback += other.fallback;
    }
}

/// Reusable per-query scratch space, so a caller resolving many
/// receivers against one field (the engine resolves every listener of a
/// slot) allocates nothing per receiver.
///
/// Candidates are stored as parallel flat columns (structure-of-arrays)
/// so the certification loop walks contiguous `f64`/state runs. The
/// scratch doubles as the decode path's instrumentation carrier:
/// always-on [`QueryStats`] counters plus opt-in [`PhaseTimes`], both
/// drained by the engine (its pool workers own one scratch each and
/// return the accumulated values with their outcomes).
#[derive(Debug, Default)]
pub struct FieldScratch {
    cand_ids: Vec<NodeId>,
    cand_powers: Vec<f64>,
    cand_signals: Vec<f64>,
    cand_states: Vec<CandState>,
    /// Every member the candidate scan found inside the decode radius,
    /// with the exact signal it computed; the walk reuses them.
    near_ids: Vec<NodeId>,
    near_signals: Vec<f64>,
    /// The exact decode's strongest candidates, as sender indexes.
    strongest: Vec<usize>,
    /// Decision counters, accumulated until the owner takes them.
    pub stats: QueryStats,
    /// Phase wall-clock, accumulated while timing is enabled.
    pub times: PhaseTimes,
    timing: bool,
    skip_canonical_sinr: bool,
}

impl FieldScratch {
    /// Turns per-phase `Instant` timing on or off (off by default).
    pub fn enable_timing(&mut self, on: bool) {
        self.timing = on;
    }

    /// Opts queries through this scratch out of the canonical
    /// winner-SINR recompute (off by default — recompute runs).
    ///
    /// [`decode_best_with`](InterferenceField::decode_best_with)
    /// normally re-derives the certified winner's SINR with the exact
    /// naive-order sum — an `O(senders)` pass per decode whose only
    /// products are the canonically-reportable f64 and a defensive
    /// re-check of the certificate. Callers that never read the
    /// reported SINR (the engine, when the driving protocol declares
    /// `MEASURES_SINR = false`) can skip that pass: the decode
    /// *decision* and winner are unchanged — they come from the
    /// certificate, whose guard analysis is conservative — and the
    /// returned SINR is `NaN`. Fallback and small-slot queries still
    /// resolve exactly (their winner selection needs the exact sums);
    /// only the reported value is then due to be discarded by the
    /// caller.
    pub fn skip_canonical_sinr(&mut self, skip: bool) {
        self.skip_canonical_sinr = skip;
    }

    #[inline]
    fn clock(&self) -> Option<Instant> {
        if self.timing {
            Some(Instant::now())
        } else {
            None
        }
    }

    #[inline]
    fn lap(t0: Option<Instant>, into: &mut Duration) {
        if let Some(t0) = t0 {
            *into += t0.elapsed();
        }
    }

    /// Runs `f`, attributing its wall-clock to the `fallback` phase
    /// (exact naive sums) when timing is enabled. The engine routes the
    /// canonical per-reception affectance recompute through this: it is
    /// exactly such a sum, but lives outside the field's decode path.
    pub fn time_fallback<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = self.clock();
        let out = f();
        Self::lap(t0, &mut self.times.fallback);
        out
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CandState {
    Undecided,
    No,
    Yes,
}

/// Settles each undecided decode candidate, of signal `s`, whose SINR
/// clears `β` either way for every interference in the certified
/// interval around `[lo − s, hi − s + far]`; `Some` once none is left.
///
/// `lo` and `hi` bracket the walk's sum at the listener, candidates
/// included. Both ends take the slack of the upper one, so a larger
/// `lo` or a smaller `hi` never settles less (DESIGN.md §7.2); with
/// `lo = hi` it is the one-sum certificate of an exact walk.
fn settle_candidates(
    states: &mut [CandState],
    signals: &[f64],
    noise: f64,
    beta: f64,
    lo: f64,
    hi: f64,
    far: f64,
) -> Option<()> {
    let mut open = false;
    for (state, &s) in states.iter_mut().zip(signals) {
        if *state != CandState::Undecided {
            continue;
        }
        let slack = GUARD * (hi + s);
        let i_lo = (lo - s - slack).max(0.0);
        let i_hi = (hi - s + slack + far).max(0.0);
        if (s / (noise + i_lo)) * (1.0 + GUARD) < beta {
            *state = CandState::No;
        } else if (s / (noise + i_hi)) * (1.0 - GUARD) >= beta {
            *state = CandState::Yes;
        } else {
            open = true;
        }
    }
    (!open).then_some(())
}

/// A slot's transmitter set, spatially indexed for certified
/// thresholded queries.
///
/// Build one from a slot's active `(sender, power)` set, then answer
/// decode and affectance-threshold queries; a caller that resolves
/// many slots refills the same field with each next set. All decisions
/// and all reported values are bit-identical to the naive all-pairs
/// path (see module docs).
///
/// Queries never change a field; only a refill does. For the
/// probe-then-commit inner loop of slot packing use
/// [`feasibility::SlotAuditor`](crate::feasibility::SlotAuditor), which
/// is built for exactly that access pattern.
#[derive(Debug)]
pub struct InterferenceField<'a> {
    /// The model constants and the channel every gain — near-field
    /// term, far-field certificate, and exact fallback — goes through.
    /// The far-field bounds multiply by the channel's `fade_hi`: a
    /// truncated fade only ever *widens* the certificate, never an
    /// exact value.
    params: &'a SinrParams,
    instance: &'a Instance,
    /// Insertion-ordered `(sender, power)` pairs — the canonical naive
    /// summation order for exact fallbacks.
    senders: Vec<(NodeId, f64)>,
    /// Empty in small slots: their queries are all exact. From
    /// [`AGGREGATE_SLOT`] senders it also holds a summed-area table.
    grid: WeightedCellGrid,
    /// The decode-cutoff radius `R(P_max)` of the strongest sender.
    radius: f64,
    /// Cells no sender reaches; empty, ruling nothing out, below
    /// [`AGGREGATE_SLOT`] senders.
    reach: ReachMap,
    /// The gain bounds of the field's `α`: the bound walk's member
    /// terms and the summed-area far bound's ring gains `j^{-α}`. Like
    /// `fades` and `bounded`, fixed by `params` for the field's life.
    gains: Arc<GainBounds>,
    /// The channel's fade range `[fade_lo, fade_hi]`, the factors of a
    /// member's lower and upper bound terms.
    fades: [f64; 2],
    /// Whether queries walk on table bounds first: the fade range is at
    /// most [`BOUND_FADE_RANGE`].
    bounded: bool,
    /// `cell^{-α}`, normal exactly when the slot built its summed-area
    /// table; the far bound's ring gains are `j^{-α}·cell^{-α}`.
    cell_gain: f64,
}

impl<'a> InterferenceField<'a> {
    /// Builds a field over one slot's transmitter set.
    ///
    /// `senders` order is preserved and used as the canonical summation
    /// order, so build it the way the naive path would (ascending node
    /// id in the engine, link-set order in feasibility checks). Node
    /// ids must be distinct — a node has one radio, and a duplicate id
    /// would break the bit-parity contract (the naive reference skips
    /// *every* entry of the decoded sender's id, while the field
    /// subtracts only one signal term).
    ///
    /// The field keeps `params`' gain table and fade range for life; a
    /// caller that resolves slot after slot over the same parameters
    /// and instance builds one field and [`refill`](Self::refill)s it.
    pub fn build(
        params: &'a SinrParams,
        instance: &'a Instance,
        senders: &[(NodeId, f64)],
    ) -> Self {
        let (fade_lo, fade_hi) = params.channel().fade_bounds();
        let mut field = InterferenceField {
            params,
            instance,
            senders: Vec::new(),
            // Placeholder cell size; every refill re-keys the grid to
            // the slot's decode-radius-derived cell.
            grid: WeightedCellGrid::new(1.0),
            radius: 0.0,
            reach: ReachMap::default(),
            gains: GainBounds::shared(params.alpha()),
            fades: [fade_lo, fade_hi],
            bounded: fade_hi / fade_lo <= BOUND_FADE_RANGE,
            cell_gain: f64::NAN,
        };
        field.refill(senders);
        field
    }

    /// Re-points the field at another slot's transmitter set, in place:
    /// the sender list, the grid, its summed-area table and the reach
    /// bitmap are rebuilt inside the buffers they already own, so a
    /// refill allocates nothing once the buffers have grown to the
    /// largest slot. Every query answers as on a fresh
    /// [`build`](Self::build) of `senders`, bit for bit, whatever the
    /// field held before; `senders` obeys `build`'s rules.
    pub fn refill(&mut self, senders: &[(NodeId, f64)]) {
        debug_assert!(
            senders
                .iter()
                .map(|&(u, _)| u)
                .collect::<std::collections::HashSet<_>>()
                .len()
                == senders.len(),
            "duplicate sender id in transmitter set"
        );
        let (params, instance) = (self.params, self.instance);
        // Length scale for cell sizing: the instance diameter `Δ`,
        // cached at construction — O(1), and it bounds every
        // listener↔sender distance, so ring counts stay
        // O(MAX_CELLS_PER_AXIS) regardless of where a query lands.
        let span = instance.delta().max(1.0);
        let max_power = senders.iter().fold(0.0f64, |m, &(_, p)| m.max(p));
        let radius = Self::decode_radius_for(params, max_power);
        let cell = if radius.is_finite() && radius > 0.0 {
            radius.clamp(span / MAX_CELLS_PER_AXIS, span)
        } else {
            span
        };
        self.senders.clear();
        self.senders.extend_from_slice(senders);
        if senders.len() <= SMALL_SLOT {
            // No query of a small slot reads the grid (each branches on
            // `SMALL_SLOT` first), so it stays empty.
            self.grid.rebuild(cell, std::iter::empty());
        } else {
            self.grid.rebuild(
                cell,
                self.senders
                    .iter()
                    .map(|&(u, p)| (u, instance.position(u), p)),
            );
        }
        self.reach.bits.clear();
        let aggregate = senders.len() >= AGGREGATE_SLOT && radius.is_finite();
        let cell_gain = if aggregate {
            params.path_gain(cell)
        } else {
            f64::NAN
        };
        if cell_gain.is_normal() {
            self.grid.build_summed_area();
            if radius >= REACH_MIN_RADIUS {
                let positions = self.senders.iter().map(|&(u, _)| instance.position(u));
                self.reach.build(radius, span, senders.len(), positions);
            }
        }
        self.radius = radius;
        self.cell_gain = cell_gain;
    }

    /// Number of transmitters in the field.
    #[inline]
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// Whether the field holds no transmitters.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// The radius `R(P)` beyond which a transmitter with power `P`
    /// cannot be decoded (DESIGN.md §7.1): `SINR ≤ S/N`, so `S/N < β`
    /// rules a sender out, which at distance `d` reads
    /// `d > (P·fade_hi/(βN))^{1/α}`. Under a fading channel `fade_hi`,
    /// the best fade the channel can realize, widens the radius; it
    /// never narrows it.
    ///
    /// The bound holds for the *computed* test: a computed distance
    /// `d > R` makes the engine's `fl(S)/N` (with `fl(S)` the
    /// [`AffectanceCalc::signal`] at `d`) fall below `β`. With
    /// `u = 2⁻⁵³`:
    ///
    /// - The radicand `x` takes four roundings plus the cushion's own,
    ///   `powf` errs by at most one ulp, and the rounded exponent
    ///   `fl(1/α)` scales `R^α` by at most `x^{±u}`, which is `1 ± 710u`
    ///   for a normal `x ≤ 10³⁰¹`. So `R^α ≥ x·(1 − (715 + 2α)u)`, and
    ///   for `α ≤ 10⁴` the real `S` at `d > R` is below
    ///   `βN·(1 + 3·10⁻¹²)/(1 + c)`; a fade exceeds `fade_hi` by at most
    ///   its own `powf` ulp.
    /// - Computing `S` adds one `powf` ulp and two product roundings.
    ///   Near `βN` every intermediate is normal (`βN ≥ 10⁻²⁸⁹·fade_hi`,
    ///   `x ≤ 10³⁰¹`); further below, an underflow errs by at most
    ///   `10⁻²²·βN`. The division by `N` rounds once more.
    /// - The cushion `c = 10⁻⁹` dwarfs those `≈ 3·10⁻¹²`, so
    ///   `fl(S)/N < β`.
    ///
    /// Outside that range — `N = 0` among it — the radius is infinite:
    /// nothing is ruled out unseen.
    fn decode_radius_for(params: &SinrParams, power: f64) -> f64 {
        let fade_hi = params.channel().fade_bounds().1;
        let power = power * fade_hi;
        let floor = params.beta() * params.noise();
        let radicand = power * (1.0 + RADIUS_CUSHION) / floor;
        let covered = power.is_normal()
            && floor >= fade_hi * REACH_MIN_FLOOR
            && radicand.is_normal()
            && radicand <= REACH_MAX_RADICAND
            && params.alpha() <= REACH_MAX_ALPHA;
        if covered {
            radicand.powf(1.0 / params.alpha())
        } else {
            f64::INFINITY
        }
    }

    /// The exact decode at listener `v`, bit-identical to
    /// [`decode_best_exact`] over this field's senders, in `O(senders)`
    /// gain evaluations.
    ///
    /// Each sender is first settled by its own signal `t_u`, the
    /// [`AffectanceCalc::signal`] that is both its SINR numerator and
    /// its interference term at `v`:
    ///
    /// - beyond the field's `radius`, the reach `R(P_max)` of the
    ///   strongest sender, it is skipped unseen: a weaker sender's
    ///   computed signal at the same distance is no larger, because
    ///   every rounding step is monotone;
    /// - otherwise it takes the exact float test `t_u/N ≥ β`.
    ///   Interference is a sum of non-negative terms, so `N + I ≥ N`,
    ///   and division is monotone: failing the test rules the sender
    ///   out.
    ///
    /// Of the candidates only the strongest can decode: the canonical
    /// sum is a left fold of non-negative terms, so it is at least each
    /// of its terms, and a sender `u` outshone by some `w` has
    /// `SINR ≤ t_u/t_w < 1 ≤ β`. The strongest candidate (each of them,
    /// on an exact tie) gets its canonical [`AffectanceCalc::sinr`], and
    /// the winner is the first strict maximum `≥ β` in sender order.
    fn decode_exact(&self, v: NodeId, scratch: &mut FieldScratch) -> Option<(NodeId, f64, f64)> {
        let calc = AffectanceCalc::new(self.params, self.instance);
        let (noise, beta) = (self.params.noise(), self.params.beta());
        let strongest = &mut scratch.strongest;
        strongest.clear();
        let mut max_signal = 0.0;
        for (i, &(u, p)) in self.senders.iter().enumerate() {
            if self.instance.distance(u, v) > self.radius {
                continue;
            }
            let t = calc.signal(Link::new(u, v), p);
            if t / noise >= beta && t >= max_signal {
                if t > max_signal {
                    max_signal = t;
                    strongest.clear();
                }
                strongest.push(i);
            }
        }
        let mut best: Option<(NodeId, f64, f64)> = None;
        for &i in strongest.iter() {
            let (u, pu) = self.senders[i];
            let sinr = calc.sinr(Link::new(u, v), pu, &self.senders);
            if sinr >= beta && best.map_or(true, |(_, _, bs)| sinr > bs) {
                best = Some((u, pu, sinr));
            }
        }
        best
    }

    /// Which transmitter, if any, listener `v` decodes — bit-identical
    /// to [`decode_best_exact`] over this field's senders.
    pub fn decode_best(&self, v: NodeId) -> Option<(NodeId, f64, f64)> {
        let mut scratch = FieldScratch::default();
        self.decode_best_with(v, &mut scratch)
    }

    /// [`decode_best`](Self::decode_best) with caller-provided scratch,
    /// allocation-free across repeated queries.
    pub fn decode_best_with(
        &self,
        v: NodeId,
        scratch: &mut FieldScratch,
    ) -> Option<(NodeId, f64, f64)> {
        if self.senders.is_empty() {
            return None;
        }
        scratch.stats.queries += 1;
        let radius = self.radius;
        if self.senders.len() <= SMALL_SLOT || !radius.is_finite() {
            scratch.stats.small_exact += 1;
            let t0 = scratch.clock();
            let out = self.decode_exact(v, scratch);
            FieldScratch::lap(t0, &mut scratch.times.fallback);
            return out;
        }
        let noise = self.params.noise();
        let beta = self.params.beta();
        let channel = self.params.channel();
        let pos_v = self.instance.position(v);
        if self.reach.rules_out(pos_v) {
            // Every sender lies beyond `radius`: no candidate, exactly
            // what the scan below would find.
            scratch.stats.certified += 1;
            return None;
        }

        // Candidate decodable senders. Everyone outside `radius` is
        // certified undecodable (SINR ≤ S/N < β) and skipped unseen;
        // everyone inside is tested with the engine's own float
        // expression `S/N ≥ β`, so the candidate set is exactly the set
        // of senders the naive loop could possibly accept. A bound
        // walk's field first tries the upper bound of the signal: the
        // computed `S` is no larger, so `S_hi/N < β` rules the sender
        // out without its `powf`, and the walk bounds its term. The
        // exact signals computed are kept for the walk.
        let t0 = scratch.clock();
        scratch.cand_ids.clear();
        scratch.cand_powers.clear();
        scratch.cand_signals.clear();
        scratch.cand_states.clear();
        scratch.near_ids.clear();
        scratch.near_signals.clear();
        {
            let FieldScratch {
                cand_ids,
                cand_powers,
                cand_signals,
                cand_states,
                near_ids,
                near_signals,
                ..
            } = scratch;
            self.grid
                .for_each_member_near(pos_v, radius, |u, pos_u, power| {
                    // `Instance::distance(u, v)`, keeping its square.
                    let d2 = pos_u.distance_sq(pos_v);
                    let d = d2.sqrt();
                    if d > radius || self.bounded && self.bound_term(d2, power)[1] / noise < beta {
                        return;
                    }
                    let signal = power * self.params.path_gain(d) * channel.fade(pos_u, pos_v);
                    near_ids.push(u);
                    near_signals.push(signal);
                    if signal / noise >= beta {
                        cand_ids.push(u);
                        cand_powers.push(power);
                        cand_signals.push(signal);
                        cand_states.push(CandState::Undecided);
                    }
                });
        }
        FieldScratch::lap(t0, &mut scratch.times.near_field);
        if scratch.cand_ids.is_empty() {
            scratch.stats.certified += 1;
            return None;
        }

        // The total received interference at `v` (candidates included),
        // walked until every candidate is certified either way: on
        // bounds first, then, if they straddle, on exact terms for the
        // candidates still open. A member inside `radius` by the scan's
        // own test is the scan's signal in both walks, the same bits as
        // its exact term.
        let t0 = scratch.clock();
        let FieldScratch {
            cand_signals,
            cand_states,
            near_ids,
            near_signals,
            stats,
            ..
        } = &mut *scratch;
        let near = |u: NodeId| Some(near_signals[near_ids.iter().position(|&w| w == u)?]);
        let near_d2 = radius * radius * (1.0 + NEAR_SLACK);
        let settled = self
            .settle_walk(
                pos_v,
                self.fades[1],
                stats,
                self.bounded.then_some(|u: NodeId, pos_w: Point, w: f64| {
                    let d2 = pos_v.distance_sq(pos_w);
                    match (d2 <= near_d2 && d2.sqrt() <= radius)
                        .then(|| near(u))
                        .flatten()
                    {
                        Some(s) => [s, s],
                        None => self.bound_term(d2, w),
                    }
                }),
                |u, pos_w, w| {
                    let d = pos_v.distance(pos_w);
                    let t = match (d <= radius).then(|| near(u)).flatten() {
                        Some(s) => s,
                        None => w * self.params.path_gain(d) * channel.fade(pos_w, pos_v),
                    };
                    [t, t]
                },
                |lo, hi, far| {
                    settle_candidates(cand_states, cand_signals, noise, beta, lo, hi, far)
                },
            )
            .is_some();
        FieldScratch::lap(t0, &mut scratch.times.far_field_cert);

        let mut yes_count = 0usize;
        let mut certified: Option<usize> = None;
        for (i, state) in scratch.cand_states.iter().enumerate() {
            if *state == CandState::Yes {
                yes_count += 1;
                certified = Some(i);
            }
        }
        if !settled || yes_count > 1 {
            // Threshold-grazing query: decide it exactly.
            scratch.stats.fallbacks += 1;
            let t0 = scratch.clock();
            let out = self.decode_exact(v, scratch);
            FieldScratch::lap(t0, &mut scratch.times.fallback);
            return out;
        }
        let Some(winner) = certified else {
            scratch.stats.certified += 1;
            return None; // every candidate certified undecodable
        };
        let (winner_u, winner_power) = (scratch.cand_ids[winner], scratch.cand_powers[winner]);
        if scratch.skip_canonical_sinr {
            // The caller declared the reported SINR unread: trust the
            // certificate (conservative by GUARD construction) and
            // skip the O(senders) canonical recompute.
            scratch.stats.certified += 1;
            return Some((winner_u, winner_power, f64::NAN));
        }
        // Report the canonical value: the naive-order sum for the one
        // certified winner (β ≥ 1 with N > 0 makes it unique).
        let t0 = scratch.clock();
        let calc = AffectanceCalc::new(self.params, self.instance);
        let sinr = calc.sinr(Link::new(winner_u, v), winner_power, &self.senders);
        FieldScratch::lap(t0, &mut scratch.times.fallback);
        if sinr >= beta {
            scratch.stats.certified += 1;
            Some((winner_u, winner_power, sinr))
        } else {
            // A certified decision contradicted by the exact value can
            // only mean the guard analysis was violated; stay correct.
            scratch.stats.fallbacks += 1;
            let t0 = scratch.clock();
            let out = self.decode_exact(v, scratch);
            FieldScratch::lap(t0, &mut scratch.times.fallback);
            out
        }
    }

    /// The decision `a_S(ℓ) ≤ threshold` for this field's sender set on
    /// `link` — bit-identical to comparing the naive
    /// [`AffectanceCalc::sum_on`] against `threshold`.
    ///
    /// The ring walk settles it whenever the near field plus the
    /// far-field bound clear the threshold on both ends; a sum grazing
    /// the threshold is summed exactly, in canonical order.
    ///
    /// # Errors
    ///
    /// Propagates the noise-floor error from the noise factor.
    pub fn sum_on_at_most(&self, link: Link, link_power: f64, threshold: f64) -> Result<bool> {
        let calc = AffectanceCalc::new(self.params, self.instance);
        if self.senders.len() > SMALL_SLOT {
            let c = calc.noise_factor(link, link_power)?;
            let pos_v = self.instance.position(link.receiver);
            // Raw (unclipped) affectance of a sender at distance d is
            // `coeff · p · gain(d)`; clipping only lowers terms, so the
            // raw form upper-bounds the far field while visited terms use
            // the exact clipped expression. The interferer fades are
            // unknown until visited, so the certificate folds the fade
            // ceiling into the coefficient (widening only), and a bound
            // term the fade floor.
            let channel = self.params.channel();
            let d_uv = link.length(self.instance);
            let fade = channel.fade(self.instance.position(link.sender), pos_v);
            let [fade_lo, fade_hi] = self.fades;
            let base = c * d_uv.powf(self.params.alpha());
            let coeff = base * fade_hi / (link_power * fade);
            let coeff_lo = base * fade_lo / (link_power * fade);
            let clip = 1.0 + self.params.epsilon();
            let certified = self.settle_walk(
                pos_v,
                coeff,
                &mut QueryStats::default(),
                (self.bounded && coeff.is_finite()).then_some(|u: NodeId, pos_w: Point, w: f64| {
                    if u == link.sender {
                        return [0.0; 2];
                    }
                    let [lo, hi] = self.gains.lines(pos_v.distance_sq(pos_w));
                    [(w * coeff_lo * lo).min(clip), (w * coeff * hi).min(clip)]
                }),
                |u, _, w| {
                    let t = if u == link.sender {
                        0.0
                    } else {
                        calc.thresholded_term(c, u, w, link, link_power)
                    };
                    [t, t]
                },
                |lo, hi, far| {
                    let slack = GUARD * (hi + threshold.abs() + 1.0);
                    if lo - slack > threshold {
                        Some(false) // already over, far adds only more
                    } else if hi + slack + far <= threshold {
                        Some(true)
                    } else {
                        None
                    }
                },
            );
            if let Some(decision) = certified {
                return Ok(decision);
            }
        }
        // Small slot or threshold-grazing sum: decide exactly, in the
        // canonical naive order.
        Ok(calc.sum_on(&self.senders, link, link_power)? <= threshold)
    }

    /// The decision `SINR(link) ≥ threshold` against this field's
    /// senders — bit-identical to comparing the canonical
    /// [`AffectanceCalc::sinr`] value against `threshold`.
    ///
    /// This is the hook the `latency`/`cleanup` replay loops in
    /// `sinr-connectivity` consume: they only ever *threshold* the
    /// SINR (delivery succeeded or not), so the certified near-field
    /// interval settles almost every query and the rare
    /// threshold-grazing one falls back to the exact naive-order sum.
    /// A small slot tries the interval of its senders' table bounds
    /// before that sum. Callers must handle half-duplex (a transmitting
    /// receiver) themselves, exactly as with [`AffectanceCalc::sinr`].
    pub fn sinr_at_least(&self, link: Link, link_power: f64, threshold: f64) -> bool {
        self.sinr_verdict(link, link_power, threshold, &mut QueryStats::default())
    }

    /// [`sinr_at_least`](Self::sinr_at_least), counting the rings and
    /// the straddles of its walks (a small slot's straddling bound sum
    /// among them) into `stats`.
    fn sinr_verdict(
        &self,
        link: Link,
        link_power: f64,
        threshold: f64,
        stats: &mut QueryStats,
    ) -> bool {
        let small = self.senders.len() <= SMALL_SLOT;
        if small && !self.bounded {
            return self.sinr_exact(link, link_power) >= threshold;
        }
        let noise = self.params.noise();
        let channel = self.params.channel();
        let pos_v = self.instance.position(link.receiver);
        let signal = link_power
            * self.params.path_gain(link.length(self.instance))
            * channel.fade(self.instance.position(link.sender), pos_v);
        let bound = |u: NodeId, pos_w: Point, w: f64| {
            if u == link.sender {
                [0.0; 2]
            } else {
                self.bound_term(pos_v.distance_sq(pos_w), w)
            }
        };
        let settle = |lo: f64, hi: f64, far: f64| {
            // An interferer co-located with the receiver drives the
            // sum to infinity; no verdict fires, and the exact
            // fallback reproduces the canonical 0-SINR.
            if !hi.is_finite() {
                return None;
            }
            let slack = GUARD * (hi + signal);
            let i_lo = (lo - slack).max(0.0);
            let i_hi = (hi + slack + far).max(0.0);
            if (signal / (noise + i_lo)) * (1.0 + GUARD) < threshold {
                Some(false) // even the optimistic end fails
            } else if (signal / (noise + i_hi)) * (1.0 - GUARD) >= threshold {
                Some(true) // even the pessimistic end passes
            } else {
                None
            }
        };
        let certified = if small {
            let (lo, hi) = self.senders.iter().fold((0.0, 0.0), |(lo, hi), &(u, w)| {
                let [l, h] = bound(u, self.instance.position(u), w);
                (lo + l, hi + h)
            });
            let verdict = settle(lo, hi, 0.0);
            stats.straddles += u64::from(verdict.is_none());
            verdict
        } else {
            self.settle_walk(
                pos_v,
                self.fades[1],
                stats,
                self.bounded.then_some(bound),
                |u, pos_w, w| {
                    let t = if u == link.sender {
                        0.0
                    } else {
                        w * self.params.path_gain(pos_v.distance(pos_w))
                            * channel.fade(pos_w, pos_v)
                    };
                    [t, t]
                },
                settle,
            )
        };
        // Threshold-grazing (or degenerate) query: resolve exactly, in
        // the canonical naive order.
        certified.unwrap_or_else(|| self.sinr_exact(link, link_power) >= threshold)
    }

    /// The exact SINR of `link` against this field's senders, in
    /// canonical order — bit-identical to [`AffectanceCalc::sinr`].
    pub fn sinr_exact(&self, link: Link, link_power: f64) -> f64 {
        AffectanceCalc::new(self.params, self.instance).sinr(link, link_power, &self.senders)
    }

    /// Table bounds `[w·g_lo·fade_lo, w·g_hi·fade_hi]` on the received
    /// power `w·g(d)·fade` of a member of power `w` at squared distance
    /// `d2`, multiplied in the exact term's order, so each end brackets
    /// the computed exact term (DESIGN.md §7.2).
    #[inline]
    fn bound_term(&self, d2: f64, w: f64) -> [f64; 2] {
        let [lo, hi] = self.gains.lines(d2);
        [w * lo * self.fades[0], w * hi * self.fades[1]]
    }

    /// A query's walks: on the `bound` terms first, if given, then, if
    /// they straddle (counted in `stats`, with the rings of both), on
    /// the `exact` terms. The exact walk is the one a field without
    /// bounds runs; a verdict the bounds reach, it reaches too, at the
    /// same ring (DESIGN.md §7.2).
    fn settle_walk<T>(
        &self,
        center: Point,
        scale: f64,
        stats: &mut QueryStats,
        bound: Option<impl FnMut(NodeId, Point, f64) -> [f64; 2]>,
        exact: impl FnMut(NodeId, Point, f64) -> [f64; 2],
        mut settle: impl FnMut(f64, f64, f64) -> Option<T>,
    ) -> Option<T> {
        if let Some(bound) = bound {
            if let Some(verdict) = self.walk(center, scale, &mut stats.rings, bound, &mut settle) {
                return Some(verdict);
            }
            stats.straddles += 1;
        }
        self.walk(center, scale, &mut stats.rings, exact, settle)
    }

    /// The one certified ring walk behind every query (DESIGN.md §7.2).
    ///
    /// Folds `term(sender, position, power)` of each member, a
    /// `[lower, upper]` pair, onto two sums, ring by Chebyshev ring
    /// around `center`: table bounds on a bound walk, the exact term
    /// twice on an exact one. After ring `r > 0` every unvisited sender
    /// lies beyond `r · cell`, so `far`, the
    /// [`far_power`](Self::far_power) bound times `scale`, bounds their
    /// terms; `scale` caps a term per unit of received power. Each
    /// finite `far` goes to `settle(lower, upper, far)` with `far = 0`
    /// once every cell is seen; the first verdict is returned. `rings`
    /// counts the rings walked.
    fn walk<T>(
        &self,
        center: Point,
        scale: f64,
        rings: &mut u64,
        mut term: impl FnMut(NodeId, Point, f64) -> [f64; 2],
        mut settle: impl FnMut(f64, f64, f64) -> Option<T>,
    ) -> Option<T> {
        debug_assert_eq!(
            self.grid.len(),
            self.senders.len(),
            "small slots build no grid"
        );
        let key = self.grid.key_of(center);
        let max_ring = self.grid.max_ring_from(center);
        let mut squares = Squares::default();
        let (mut lo, mut hi) = (0.0f64, 0.0f64);
        let (mut seen_w, mut cells_seen) = (0.0f64, 0usize);
        for ring in 0..=max_ring {
            *rings += 1;
            cells_seen += self.grid.for_each_ring_cell(center, ring, |cv| {
                for (((&u, &x), &y), &w) in cv.ids().iter().zip(cv.xs()).zip(cv.ys()).zip(cv.ws()) {
                    let [l, h] = term(u, Point::new(x, y), w);
                    lo += l;
                    hi += h;
                    seen_w += w;
                }
            });
            if cells_seen == self.grid.occupied_cells() {
                return settle(lo, hi, 0.0);
            }
            if ring > 0 {
                let far = self.far_power(key, ring, max_ring, seen_w, &mut squares) * scale;
                if far.is_finite() {
                    if let Some(verdict) = settle(lo, hi, far) {
                        return Some(verdict);
                    }
                }
            }
        }
        None
    }

    /// A bound on `Σ P_u·g(d_u)` over the senders outside rings
    /// `0..=ring` around cell `key`, `seen_w` the power of those inside.
    ///
    /// Without aggregates it is the one-term bound: all unseen power
    /// `(P_total − seen_w) + G·P_total` at `g(ring · cell)`. With them,
    /// each unseen ring `k` up to [`LOOKAHEAD`] rings out is charged its
    /// own power `W_k = Sq(k) − Sq(k−1)` from the summed-area table at
    /// `g((k−1) · cell)`, the power beyond them at the last lookahead
    /// ring's outer edge, and the guard `G·P_total` at `g(ring · cell)`.
    /// Every gain is `j^{-α}·cell^{-α}`, no larger than `g(ring · cell)`,
    /// so the bound never exceeds the one-term bound beyond the table's
    /// rounding, which the guard covers (DESIGN.md §7.2). A lead gain
    /// below the normal range gives no bound. A walk asks for its rings
    /// in order, and `squares` keeps the `Sq(k)` it has looked up.
    fn far_power(
        &self,
        key: CellKey,
        ring: i64,
        max_ring: i64,
        seen_w: f64,
        squares: &mut Squares,
    ) -> f64 {
        let total_w = self.grid.total_weight();
        if !self.cell_gain.is_normal() {
            let min_d = ring as f64 * self.grid.cell_size();
            return ((total_w - seen_w).max(0.0) + GUARD * total_w) * self.params.path_gain(min_d);
        }
        let gain = |j: i64| self.gains.ring(j) * self.cell_gain;
        let lead = gain(ring);
        if !lead.is_normal() {
            return f64::INFINITY;
        }
        let last = (ring + LOOKAHEAD).min(max_ring);
        let mut square = |k: i64| squares.get(k, || self.grid.square_weight(key, k));
        let mut inner = square(ring);
        let mut far = GUARD * total_w * lead;
        for k in ring + 1..=last {
            let outer = square(k);
            far += (outer - inner) * gain(k - 1);
            inner = outer;
        }
        if last < max_ring {
            let rest = *squares
                .outermost
                .get_or_insert_with(|| self.grid.square_weight(key, max_ring));
            far += (rest - inner) * gain(last);
        }
        far
    }
}

/// One walk's summed-area squares `Sq(k)`: a window over the last
/// `LOOKAHEAD + 1` rings it asked for, and `Sq(max_ring)`, so each
/// further ring looks up one new square.
#[derive(Debug, Default)]
struct Squares {
    /// `Sq(k)` in slot `k mod (LOOKAHEAD + 1)`, for `k ≤ loaded`.
    window: [f64; LOOKAHEAD as usize + 1],
    /// The largest `k` in the window; 0 before the first lookup.
    loaded: i64,
    /// `Sq(max_ring)`, once a far bound has read it.
    outermost: Option<f64>,
}

impl Squares {
    /// `Sq(k)`, from the window if `k` is in it, else from `lookup`.
    /// The window holds the `LOOKAHEAD + 1` largest `k` asked for,
    /// which are the ones a ring's far bound reads once the walk asks
    /// for rings in increasing order.
    #[inline]
    fn get(&mut self, k: i64, lookup: impl FnOnce() -> f64) -> f64 {
        let slot = (k % (LOOKAHEAD + 1)) as usize;
        if k > self.loaded {
            debug_assert_eq!(k, self.loaded + 1, "rings asked out of order");
            self.window[slot] = lookup();
            self.loaded = k;
        }
        self.window[slot]
    }
}

/// The reach bitmap (DESIGN.md §7.1): over cells of side
/// `max(R, span/√(64·senders))`, the cells some sender's box `u ± R′`
/// touches, `R′` the field's radius `R` slightly widened. A listener in
/// any other cell has every sender at computed distance `> R`, hence no
/// decode candidate.
#[derive(Debug, Default)]
struct ReachMap {
    cell: f64,
    key_min: CellKey,
    key_max: CellKey,
    rows: i64,
    /// Column-major cell bits; empty when no map is built.
    bits: Vec<u64>,
}

impl ReachMap {
    #[inline]
    fn key(&self, p: Point) -> CellKey {
        (floor_i64(p.x / self.cell), floor_i64(p.y / self.cell))
    }

    /// The keys of the lower-left and upper-right cells of the box
    /// `p ± R′`, with `R′ = R + (R + |x| + |y|)·REACH_SLACK`.
    ///
    /// Why the box holds every listener `v` at computed distance
    /// `d ≤ R` from `p`, with `u = 2⁻⁵³`: the computed `d` is at least
    /// `|fl(x_p − x_v)|·(1 − 2u)` (the square cannot underflow, since
    /// `R ≥ REACH_MIN_RADIUS`), and that difference is at least the
    /// real one times `1 − u`, so `|x_p − x_v| ≤ R·(1 + 4u)`. The box's
    /// own corner `fl(x_p − R′)` errs by at most `u·(|x_p| + R′)`, and
    /// computing `R′` by `4u` of itself; `REACH_SLACK` dwarfs all of
    /// it, so `fl(x_p − R′) ≤ x_v ≤ fl(x_p + R′)`, and likewise in `y`.
    /// Division by the cell and `floor` are monotone, so `v`'s key lies
    /// between the corners' keys.
    #[inline]
    fn corners(&self, radius: f64, p: Point) -> (CellKey, CellKey) {
        let r = radius + (radius + p.x.abs() + p.y.abs()) * REACH_SLACK;
        (
            self.key(Point::new(p.x - r, p.y - r)),
            self.key(Point::new(p.x + r, p.y + r)),
        )
    }

    /// Marks the reach boxes of `count` senders at `positions`. The
    /// cells number about [`REACH_CELLS_PER_SENDER`] per sender (the
    /// senders lie within `span` of each other) plus a border of at
    /// most two cells on each side, and a sender marks at most 4 × 4
    /// of them.
    fn build(
        &mut self,
        radius: f64,
        span: f64,
        count: usize,
        positions: impl Iterator<Item = Point> + Clone,
    ) {
        self.cell = radius.max(span / (REACH_CELLS_PER_SENDER * count as f64).sqrt());
        let (mut lo, mut hi) = ((i64::MAX, i64::MAX), (i64::MIN, i64::MIN));
        for p in positions.clone() {
            let (a, b) = self.corners(radius, p);
            lo = (lo.0.min(a.0), lo.1.min(a.1));
            hi = (hi.0.max(b.0), hi.1.max(b.1));
        }
        self.key_min = lo;
        self.key_max = hi;
        self.rows = hi.1 - lo.1 + 1;
        self.bits.clear();
        let cells = (hi.0 - lo.0 + 1) * self.rows;
        self.bits.resize((cells as usize).div_ceil(64), 0);
        for p in positions {
            let (a, b) = self.corners(radius, p);
            for x in a.0..=b.0 {
                for y in a.1..=b.1 {
                    let c = ((x - lo.0) * self.rows + (y - lo.1)) as usize;
                    self.bits[c / 64] |= 1 << (c % 64);
                }
            }
        }
    }

    /// Whether no sender's reach box touches `p`'s cell, so every
    /// sender lies at computed distance `> R` from `p`. False when no
    /// map is built.
    #[inline]
    fn rules_out(&self, p: Point) -> bool {
        if self.bits.is_empty() {
            return false;
        }
        let (x, y) = self.key(p);
        let (lo, hi) = (self.key_min, self.key_max);
        if x < lo.0 || y < lo.1 || x > hi.0 || y > hi.1 {
            return true;
        }
        let c = ((x - lo.0) * self.rows + (y - lo.1)) as usize;
        self.bits[c / 64] & (1 << (c % 64)) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use sinr_geom::gen;

    fn random_senders(inst: &Instance, frac: f64, power: f64, seed: u64) -> Vec<(NodeId, f64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for u in 0..inst.len() {
            if rng.gen_bool(frac) {
                out.push((u, power * (0.5 + rng.gen::<f64>())));
            }
        }
        out
    }

    /// The core parity property: `decode_best` equals the naive rule,
    /// bit for bit, on every listener of many random slots.
    #[test]
    fn decode_matches_naive_to_the_bit() {
        let params = SinrParams::default();
        let mut decodes = 0;
        for seed in 0..8u64 {
            let inst = gen::uniform_square(200, 1.5, seed).unwrap();
            // Power sized to the instance's typical nearest-neighbor
            // spacing, as the protocols do, so decodes actually occur.
            let nn_mean = (0..inst.len())
                .map(|v| {
                    (0..inst.len())
                        .filter(|&w| w != v)
                        .map(|w| inst.distance(w, v))
                        .fold(f64::INFINITY, f64::min)
                })
                .sum::<f64>()
                / inst.len() as f64;
            let power = params.min_power_for_length(1.5 * nn_mean) * 4.0;
            let senders = random_senders(&inst, 0.05, power, seed ^ 0xABCD);
            if senders.is_empty() {
                continue;
            }
            let field = InterferenceField::build(&params, &inst, &senders);
            let tx: std::collections::HashSet<NodeId> = senders.iter().map(|&(u, _)| u).collect();
            let mut scratch = FieldScratch::default();
            for v in 0..inst.len() {
                if tx.contains(&v) {
                    continue;
                }
                let naive = decode_best_exact(&params, &inst, v, &senders);
                let fast = field.decode_best_with(v, &mut scratch);
                match (naive, fast) {
                    (None, None) => {}
                    (Some((a, pa, sa)), Some((b, pb, sb))) => {
                        assert_eq!(a, b, "seed {seed} listener {v} decoded wrong sender");
                        assert_eq!(pa.to_bits(), pb.to_bits());
                        assert_eq!(
                            sa.to_bits(),
                            sb.to_bits(),
                            "seed {seed} listener {v}: sinr bits differ"
                        );
                        decodes += 1;
                    }
                    other => panic!("seed {seed} listener {v}: decisions differ: {other:?}"),
                }
            }
        }
        assert!(decodes > 0, "no decode ever happened across all seeds");
    }

    /// The ring walk's counters, pinned: decoding every listener of four
    /// fixed n = 1024 slots (two power scales, geometric and σ = 6 dB
    /// shadowed) settles the same queries by the same path and walks the
    /// same number of rings. The parity suites pin decisions and
    /// decision classes; this also pins `rings`.
    #[test]
    fn decode_counters_are_pinned() {
        let inst = gen::uniform_square(1024, 1.5, 3).unwrap();
        let geometric = SinrParams::default();
        let shadowed = geometric.with_channel(crate::ChannelModel::shadowed(11, 6.0).unwrap());
        let mut got = Vec::new();
        for params in [geometric, shadowed] {
            for scale in [16.0, 256.0] {
                let power = params.min_power_for_length(3.0) * scale;
                let senders = random_senders(&inst, 0.08, power, 17);
                let field = InterferenceField::build(&params, &inst, &senders);
                let mut scratch = FieldScratch::default();
                for v in 0..inst.len() {
                    if senders.iter().all(|&(u, _)| u != v) {
                        field.decode_best_with(v, &mut scratch);
                    }
                }
                let s = scratch.stats;
                got.push([
                    s.queries,
                    s.small_exact,
                    s.certified,
                    s.fallbacks,
                    s.straddles,
                    s.rings,
                ]);
            }
        }
        // [queries, small_exact, certified, fallbacks, rings] per slot:
        // geometric ×16, ×256, then shadowed ×16, ×256. The slots have
        // about 80 senders, so the summed-area far bound and the reach
        // bitmap are on.
        assert_eq!(
            got,
            [
                [945, 0, 945, 0, 0, 98],
                [945, 0, 945, 0, 0, 532],
                [945, 0, 945, 0, 0, 1287],
                [945, 0, 945, 0, 0, 1846],
            ]
        );
    }

    /// The walk tests' slots: 9 to 600 senders, so both sides of
    /// `AGGREGATE_SLOT`, in each power family of `for_each_walk_slot`.
    fn walk_slots() -> Vec<(usize, usize)> {
        let counts = [9, 40, 64, 150, 600];
        counts
            .iter()
            .flat_map(|&c| (0..3).map(move |f| (c, f)))
            .collect()
    }

    /// Calls `check(params, instance, field, senders, listeners)` for
    /// each `(senders, power family)` of `slots` on uniform, clustered
    /// and lattice instances under the geometric and a σ = 6 dB
    /// shadowed channel; `listeners` are the nodes outside the slot, in
    /// random order. Family 0 gives every sender one power, 1 its
    /// mean-with-margin power towards its nearest neighbour, 2 powers
    /// over three decades. Each instance's slots are refilled, in
    /// order, into one field. Returns how many slots built the
    /// summed-area table.
    fn for_each_walk_slot(
        slots: &[(usize, usize)],
        mut check: impl FnMut(
            &SinrParams,
            &Instance,
            &InterferenceField<'_>,
            &[(NodeId, f64)],
            &[NodeId],
        ),
    ) -> usize {
        let geometric = SinrParams::default();
        let shadowed = geometric.with_channel(crate::ChannelModel::shadowed(7, 6.0).unwrap());
        // The lattice puts members at integer squared distances, most
        // of them edges of the gain table's buckets, where its bounds
        // touch the gain up to their guard.
        let instances = [
            gen::uniform_square(1200, 1.5, 5).unwrap(),
            gen::clustered(12, 100, 1.5, 2.0, 5).unwrap(),
            gen::grid_lattice(35, 35, 0.0, 5).unwrap(),
        ];
        let mut rng = StdRng::seed_from_u64(0xfa4);
        let mut aggregated = 0;
        for params in [geometric, shadowed] {
            for inst in &instances {
                let nn = sinr_geom::GridIndex::build(inst, 2.0);
                let mean = crate::PowerAssignment::mean_with_margin(&params, inst.delta());
                let mut field = InterferenceField::build(&params, inst, &[]);
                for &(count, family) in slots {
                    let mut ids: Vec<NodeId> = (0..inst.len()).collect();
                    ids.shuffle(&mut rng);
                    let base = params.min_power_for_length(2.0 + 6.0 * rng.gen::<f64>());
                    let senders: Vec<(NodeId, f64)> = ids[..count]
                        .iter()
                        .map(|&u| match family {
                            0 => (u, base),
                            1 => {
                                let (v, _) = nn.nearest_neighbor(u).unwrap();
                                (u, mean.power_of(Link::new(u, v), inst, &params).unwrap())
                            }
                            _ => (u, base * 10f64.powf(rng.gen_range(0.0..3.0))),
                        })
                        .collect();
                    field.refill(&senders);
                    aggregated += usize::from(field.cell_gain.is_normal());
                    check(&params, inst, &field, &senders, &ids[count..]);
                }
            }
        }
        aggregated
    }

    /// Soundness gate for the far bound (DESIGN.md §7.2): at every ring
    /// `r ≥ 1` a listener's walk reaches with cells still unseen, the
    /// `far` handed to `settle` is at least the exact sum of the terms
    /// of the senders outside rings `0..=r`, on every slot of
    /// `for_each_walk_slot`.
    #[test]
    fn far_bound_covers_every_unseen_sender() {
        let mut rings_checked = 0usize;
        let aggregated =
            for_each_walk_slot(&walk_slots(), |params, inst, field, senders, listeners| {
                for &v in &listeners[..25] {
                    let channel = params.channel();
                    let pos_v = inst.position(v);
                    let term = |pos_w: Point, w: f64| {
                        w * params.path_gain(pos_v.distance(pos_w)) * channel.fade(pos_w, pos_v)
                    };
                    // Exact unseen sums by ring: `beyond[r]` sums the terms of
                    // the senders more than `r` rings out.
                    let key = field.grid.key_of(pos_v);
                    let ring_of = |u: NodeId| {
                        let k = field.grid.key_of(inst.position(u));
                        (k.0 - key.0).abs().max((k.1 - key.1).abs()) as usize
                    };
                    let last = senders.iter().map(|&(u, _)| ring_of(u)).max().unwrap();
                    let mut beyond = vec![0.0f64; last + 1];
                    for &(u, w) in senders {
                        for b in &mut beyond[..ring_of(u)] {
                            *b += term(inst.position(u), w);
                        }
                    }
                    let mut fars = Vec::new();
                    field.walk(
                        pos_v,
                        field.fades[1],
                        &mut 0,
                        |_, pos_w, w| [term(pos_w, w); 2],
                        |_, _, far| {
                            fars.push(far);
                            None::<()>
                        },
                    );
                    // One `far` per ring `1..last`, then `0` once every cell is
                    // seen at ring `last`.
                    assert_eq!(fars.len(), last.max(1), "a ring skipped its bound");
                    assert_eq!(fars.pop(), Some(0.0));
                    for (i, &far) in fars.iter().enumerate() {
                        let r = i + 1;
                        assert!(
                            far >= beyond[r],
                            "{} senders, listener {v}, ring {r}: far {far} < unseen {}",
                            senders.len(),
                            beyond[r]
                        );
                        rings_checked += 1;
                    }
                }
            });
        assert!(
            aggregated >= 24,
            "too few slots took the aggregate path: {aggregated}"
        );
        assert!(
            rings_checked > 10_000,
            "too few rings checked: {rings_checked}"
        );
    }

    /// The bound walk's soundness gate (DESIGN.md §7.2): on every slot
    /// of `for_each_walk_slot`, at every ring a listener's walk settles,
    /// the bound walk's `[lo, hi]` brackets the exact walk's sum of the
    /// same members in the same ring order, and `hi + far` bounds the
    /// sum over all senders. The shadowed slots check the fade-range
    /// factors, which their fields never walk on.
    #[test]
    fn bound_walk_brackets_the_exact_walk() {
        let mut rings_checked = 0usize;
        for_each_walk_slot(&walk_slots(), |params, inst, field, _, listeners| {
            for &v in &listeners[..25] {
                let channel = params.channel();
                let pos_v = inst.position(v);
                let mut exact = Vec::new();
                field.walk(
                    pos_v,
                    field.fades[1],
                    &mut 0,
                    |_, pos_w, w| {
                        [w * params.path_gain(pos_v.distance(pos_w)) * channel.fade(pos_w, pos_v);
                            2]
                    },
                    |acc, _, far| {
                        exact.push((acc, far));
                        None::<()>
                    },
                );
                let mut bound = Vec::new();
                field.walk(
                    pos_v,
                    field.fades[1],
                    &mut 0,
                    |_, pos_w, w| field.bound_term(pos_v.distance_sq(pos_w), w),
                    |lo, hi, far| {
                        bound.push((lo, hi, far));
                        None::<()>
                    },
                );
                assert_eq!(
                    exact.len(),
                    bound.len(),
                    "the two walks visit the same rings"
                );
                let total = exact.last().unwrap().0;
                for (r, (&(acc, far), &(lo, hi, bound_far))) in exact.iter().zip(&bound).enumerate()
                {
                    assert_eq!(
                        far.to_bits(),
                        bound_far.to_bits(),
                        "ring {r}: far bounds differ"
                    );
                    assert!(
                        lo <= acc && acc <= hi && total <= hi + far,
                        "listener {v} ring {r}: [{lo}, {hi}] + {far} misses {acc} of {total}"
                    );
                    rings_checked += 1;
                }
            }
        });
        assert!(
            rings_checked > 10_000,
            "too few rings checked: {rings_checked}"
        );
    }

    /// A refilled field answers every query as a fresh build of the
    /// same senders: each listener's decode (winner, power and SINR
    /// bits), `sinr_at_least` and `sum_on_at_most` at a certified and
    /// at a grazing threshold, and the `QueryStats` of the decodes and
    /// of the SINR walks. The slots run 600 → 3 → 0 → 70 → 9 → 600 → 64
    /// → 9 senders through one field per instance and channel, across
    /// `SMALL_SLOT` and `AGGREGATE_SLOT` both ways and between power
    /// families whose decode radii differ, so a grid, summed-area table
    /// or reach bitmap left over from an earlier slot would answer some
    /// query differently. The 9-sender slots build no reach bitmap, and
    /// some of their listeners decode a sender while the bitmap of the
    /// slot before would rule them out, so a refill that kept it fails
    /// here.
    #[test]
    fn refill_matches_a_fresh_build() {
        let slots = [
            (600, 2),
            (3, 0),
            (0, 0),
            (70, 0),
            (9, 1),
            (600, 1),
            (64, 2),
            (9, 0),
        ];
        let (mut queries, mut decodes, mut straddles) = (0u64, 0usize, 0u64);
        for_each_walk_slot(&slots, |params, inst, field, senders, listeners| {
            let fresh = InterferenceField::build(params, inst, senders);
            let calc = AffectanceCalc::new(params, inst);
            let (mut got, mut want) = (FieldScratch::default(), FieldScratch::default());
            let (mut got_walks, mut want_walks) = (QueryStats::default(), QueryStats::default());
            let n = senders.len();
            for (i, &v) in listeners[..150].iter().enumerate() {
                let decoded = fresh.decode_best_with(v, &mut want);
                assert_eq!(
                    bits(field.decode_best_with(v, &mut got)),
                    bits(decoded),
                    "{n} senders, listener {v}: decode"
                );
                decodes += usize::from(decoded.is_some());
                if i % 3 != 0 {
                    continue;
                }
                let link = Link::new(listeners[i + 1], v);
                let p = params.min_power_for_length(link.length(inst)) * 4.0;
                for thr in [params.beta(), fresh.sinr_exact(link, p)] {
                    assert_eq!(
                        field.sinr_verdict(link, p, thr, &mut got_walks),
                        fresh.sinr_verdict(link, p, thr, &mut want_walks),
                        "{n} senders, listener {v}: sinr ≥ {thr}"
                    );
                }
                let sum = calc.sum_on(senders, link, p).unwrap_or(1.0);
                for thr in [1.0, sum] {
                    assert_eq!(
                        field.sum_on_at_most(link, p, thr).ok(),
                        fresh.sum_on_at_most(link, p, thr).ok(),
                        "{n} senders, listener {v}: affectance ≤ {thr}"
                    );
                }
            }
            assert_eq!(got.stats, want.stats, "{n} senders");
            assert_eq!(got_walks, want_walks, "{n} senders");
            queries += got.stats.queries;
            straddles += got_walks.straddles;
        });
        assert!(queries > 5_000, "too few decodes queried: {queries}");
        assert!(decodes > 1_000, "too few decodes succeeded: {decodes}");
        assert!(straddles > 500, "too few SINR walks straddled: {straddles}");
    }

    /// The reach bitmap at its edges, on a slot of 81 senders. The
    /// strongest sits at the origin of a bitmap cell, so its cell side
    /// is its reach `R`; listeners lie at `R` and `R ± 1` ulp on both
    /// axes and the diagonal, on the cell edges at `±R` and `±2R`, and
    /// beyond the bitmap's extent. Every decode matches
    /// `decode_best_exact`, every listener with a sender at computed
    /// distance `≤ R` lies in a marked cell, and the bitmap rules some
    /// listeners out.
    #[test]
    fn reach_bitmap_edges_match_the_oracle() {
        for params in [
            SinrParams::default(),
            SinrParams::default().with_channel(crate::ChannelModel::shadowed(5, 6.0).unwrap()),
        ] {
            let power = params.min_power_for_length(4.0);
            let reach = InterferenceField::decode_radius_for(&params, power);
            let (down, up) = (
                |x: f64| f64::from_bits(x.to_bits() - 1),
                |x: f64| f64::from_bits(x.to_bits() + 1),
            );
            let ulps = |x: f64| [down(x), x, up(x)];
            // The largest diagonal offset whose computed distance is ≤ R.
            let diagonal = |t: f64| Point::ORIGIN.distance(Point::new(t, t));
            let mut t = reach / std::f64::consts::SQRT_2;
            while diagonal(t) > reach {
                t = down(t);
            }
            while diagonal(up(t)) <= reach {
                t = up(t);
            }
            let mut points = vec![Point::ORIGIN];
            // 80 weaker senders on a lattice 5R–21R out.
            for i in 0..9 {
                for j in 0..9 {
                    if (i, j) != (0, 0) {
                        let at = |k: i32| (5.0 + 2.0 * k as f64) * reach;
                        points.push(Point::new(at(i), at(j)));
                    }
                }
            }
            let senders: Vec<(NodeId, f64)> = (0..points.len())
                .map(|u| (u, if u == 0 { power } else { power * 0.5 }))
                .collect();
            for r in ulps(reach) {
                points.extend([
                    Point::new(r, 0.0),
                    Point::new(-r, 0.0),
                    Point::new(0.0, r),
                    Point::new(0.0, -r),
                ]);
            }
            for d in ulps(t) {
                points.extend([Point::new(d, d), Point::new(-d, -d)]);
            }
            for k in [2.0, -2.0] {
                for x in ulps(k * reach) {
                    points.extend([Point::new(x, 0.0), Point::new(x, reach), Point::new(0.0, x)]);
                }
            }
            points.extend([
                Point::new(1.0, 0.5),
                Point::new(0.5 * reach, 0.25 * reach),
                Point::new(-19.0 * reach, -19.0 * reach),
                Point::new(-19.0 * reach, 3.0 * reach),
            ]);
            let inst = Instance::new(points).unwrap();
            let field = InterferenceField::build(&params, &inst, &senders);
            assert_eq!(field.reach.cell, reach, "the bitmap cell is the reach");
            let mut ruled_out = 0;
            for v in senders.len()..inst.len() {
                let pos_v = inst.position(v);
                let reached = senders.iter().any(|&(u, _)| inst.distance(u, v) <= reach);
                let skipped = field.reach.rules_out(pos_v);
                assert!(
                    !(reached && skipped),
                    "listener {v} at {pos_v:?} is reached but ruled out"
                );
                ruled_out += usize::from(skipped);
            }
            assert!(
                ruled_out >= 8,
                "the bitmap ruled out only {ruled_out} listeners"
            );
            let (stats, decodes) = assert_exact_parity(&params, &inst, &senders, "reach bitmap");
            assert_eq!(stats.certified + stats.fallbacks, stats.queries);
            assert!(decodes >= 1, "the near listeners must decode");
        }
    }

    type DecodeBits = Option<(NodeId, u64, u64)>;

    fn bits(d: Option<(NodeId, f64, f64)>) -> DecodeBits {
        d.map(|(u, p, s)| (u, p.to_bits(), s.to_bits()))
    }

    /// Decodes every non-transmitting listener through the field and
    /// checks `(sender, power, sinr)` bits against the O(s²) oracle;
    /// returns the field's counters and the number of decodes.
    fn assert_exact_parity(
        params: &SinrParams,
        inst: &Instance,
        senders: &[(NodeId, f64)],
        what: &str,
    ) -> (QueryStats, usize) {
        let field = InterferenceField::build(params, inst, senders);
        let mut scratch = FieldScratch::default();
        let mut decodes = 0;
        for v in 0..inst.len() {
            if senders.iter().any(|&(u, _)| u == v) {
                continue;
            }
            let naive = decode_best_exact(params, inst, v, senders);
            assert_eq!(
                bits(field.decode_best_with(v, &mut scratch)),
                bits(naive),
                "{what}: listener {v}"
            );
            decodes += usize::from(naive.is_some());
        }
        (scratch.stats, decodes)
    }

    /// The O(s) exact decode equals the O(s²) oracle bit for bit on
    /// every listener, from the empty slot to one past `SMALL_SLOT`: on
    /// the geometric and a σ = 6 dB shadowed channel, with zero noise,
    /// and with powers spread over three orders of magnitude. Every
    /// small slot is decided exactly.
    #[test]
    fn exact_decode_matches_the_quadratic_oracle() {
        let inst = gen::uniform_square(48, 1.5, 6).unwrap();
        let geometric = SinrParams::default();
        let shadowed = geometric.with_channel(crate::ChannelModel::shadowed(3, 6.0).unwrap());
        let noiseless = SinrParams::new(3.0, 2.0, 0.0, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let mut decodes = 0;
        for (name, params) in [
            ("geometric", geometric),
            ("shadowed", shadowed),
            ("zero noise", noiseless),
        ] {
            let base = params.min_power_for_length(2.5);
            for s in 0..=SMALL_SLOT + 1 {
                for trial in 0..6 {
                    let mut ids: Vec<NodeId> = (0..inst.len()).collect();
                    ids.shuffle(&mut rng);
                    let wild = trial % 2 == 1;
                    let senders: Vec<(NodeId, f64)> = ids[..s]
                        .iter()
                        .map(|&u| {
                            let spread = if wild {
                                10f64.powf(rng.gen_range(0.0..3.0))
                            } else {
                                1.0
                            };
                            (u, base * spread)
                        })
                        .collect();
                    let what = format!("{name} s={s} trial {trial}");
                    let (stats, d) = assert_exact_parity(&params, &inst, &senders, &what);
                    decodes += d;
                    if s <= SMALL_SLOT {
                        assert_eq!(stats.small_exact, stats.queries, "{what}");
                    }
                }
            }
        }
        assert!(decodes > 500, "too few decodes to mean much: {decodes}");
    }

    /// An exact tie: at `β = 1` and zero noise, two equal signals give a
    /// listener midway between them SINR exactly 1 from both senders.
    /// Both are strongest; the first in sender order wins, as in the
    /// oracle.
    #[test]
    fn exact_decode_breaks_exact_ties_like_the_oracle() {
        let params = SinrParams::new(3.0, 1.0, 0.0, 0.1).unwrap();
        let inst = Instance::new(vec![
            Point::new(-1.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 9.0),
        ])
        .unwrap();
        for senders in [[(2, 5.0), (0, 5.0)], [(0, 5.0), (2, 5.0)]] {
            let first = senders[0].0;
            assert_eq!(
                decode_best_exact(&params, &inst, 1, &senders),
                Some((first, 5.0, 1.0))
            );
            assert_exact_parity(&params, &inst, &senders, "tie");
        }
    }

    /// Listeners one ulp inside, on, and one ulp outside the reach
    /// `R(P_max)` of the slot's strongest sender: skipped or tested,
    /// none of them decodes, and the decode matches the oracle. The
    /// computed `S/N` just inside sits within the cushion of `β`, so the
    /// reach is tight, not merely safe.
    #[test]
    fn exact_decode_at_the_reach_boundary() {
        for params in [
            SinrParams::default(),
            SinrParams::default().with_channel(crate::ChannelModel::shadowed(5, 6.0).unwrap()),
        ] {
            let power = params.min_power_for_length(4.0);
            let reach = InterferenceField::decode_radius_for(&params, power);
            let below = f64::from_bits(reach.to_bits() - 1);
            let above = f64::from_bits(reach.to_bits() + 1);
            // Sender 0, the strongest, at the origin; listeners 1–3 on
            // the x-axis at exactly those distances; two weaker senders
            // off-axis.
            let points = vec![
                Point::new(0.0, 0.0),
                Point::new(below, 0.0),
                Point::new(reach, 0.0),
                Point::new(above, 0.0),
                Point::new(-3.0 * reach, 5.0 * reach),
                Point::new(2.0 * reach, -7.0 * reach),
            ];
            let inst = Instance::new(points).unwrap();
            assert_eq!(
                [1, 2, 3].map(|v| inst.distance(0, v)),
                [below, reach, above],
                "listeners must straddle the reach to the ulp"
            );
            let senders = [(0, power), (4, power * 0.5), (5, power * 0.25)];
            assert_eq!(
                InterferenceField::build(&params, &inst, &senders).radius,
                reach
            );
            assert_exact_parity(&params, &inst, &senders, "reach boundary");
            let calc = AffectanceCalc::new(&params, &inst);
            let fade_hi = params.channel().fade_bounds().1;
            let fade = params.channel().fade(inst.position(0), inst.position(1));
            let snr = calc.signal(Link::new(0, 1), power) / params.noise();
            assert!(snr < params.beta());
            // Under shadowing the listener's own fade sits below the
            // ceiling the reach assumes.
            assert!(snr * (fade_hi / fade) > params.beta() * (1.0 - 2.0 * RADIUS_CUSHION));
        }
    }

    /// Threshold-grazing queries of a large slot take the exact path:
    /// with `β` set to one listener's exact SINR that listener's bound
    /// walk straddles and its exact walk can only fall back, and every
    /// decode still matches the oracle.
    #[test]
    fn grazing_fallbacks_on_a_large_slot_are_exact() {
        let inst = gen::uniform_square(240, 1.5, 12).unwrap();
        let params = SinrParams::default();
        let senders = random_senders(&inst, 0.08, params.min_power_for_length(2.0), 4);
        assert!(senders.len() > SMALL_SLOT);
        let grazed = (0..inst.len())
            .filter(|v| senders.iter().all(|&(u, _)| u != *v))
            .find_map(|v| decode_best_exact(&params, &inst, v, &senders))
            .expect("some listener decodes")
            .2;
        let grazing = SinrParams::new(3.0, grazed, params.noise(), params.epsilon()).unwrap();
        let (stats, decodes) = assert_exact_parity(&grazing, &inst, &senders, "grazing");
        assert!(stats.fallbacks > 0, "no query fell back: {stats:?}");
        assert!(
            stats.straddles >= stats.fallbacks,
            "a fallback skipped its bound walk: {stats:?}"
        );
        assert!(decodes > 0);
    }

    /// Forced straddles of `sinr_at_least`: at a threshold equal to a
    /// link's exact SINR no bound interval can settle the query, so the
    /// bound walk (or a small slot's bound sum) straddles and the exact
    /// path decides. Every decision equals `sinr_exact ≥ threshold`, on
    /// a large and a small slot.
    #[test]
    fn forced_straddles_decide_exactly() {
        let inst = gen::uniform_square(240, 1.5, 12).unwrap();
        let params = SinrParams::default();
        let senders = random_senders(&inst, 0.08, params.min_power_for_length(2.0), 4);
        for slot in [&senders[..], &senders[..4]] {
            let field = InterferenceField::build(&params, &inst, slot);
            assert!(field.bounded);
            let (mut stats, mut queries) = (QueryStats::default(), 0);
            for v in (0..inst.len()).filter(|v| slot.iter().all(|&(u, _)| u != *v)) {
                let (link, p) = probe_link(&inst, &params, v);
                let exact = field.sinr_exact(link, p);
                for threshold in [exact, params.beta()] {
                    let verdict = field.sinr_verdict(link, p, threshold, &mut stats);
                    assert_eq!(
                        verdict,
                        exact >= threshold,
                        "listener {v} threshold {threshold}"
                    );
                    queries += 1;
                }
            }
            // Every query at its own SINR straddles; most at `β` do not.
            assert!(
                stats.straddles >= queries / 2 && stats.straddles < queries,
                "{} senders: {} straddles of {queries} queries",
                slot.len(),
                stats.straddles
            );
        }
    }

    /// Heterogeneous powers (three orders of magnitude) still certify
    /// or fall back correctly.
    #[test]
    fn decode_parity_with_wild_powers() {
        let params = SinrParams::default();
        let inst = gen::clustered(6, 24, 1.5, 2.0, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let mut senders: Vec<(NodeId, f64)> = Vec::new();
        for u in 0..inst.len() {
            if rng.gen_bool(0.2) {
                senders.push((u, 10f64.powf(rng.gen_range(0.0..3.0))));
            }
        }
        let field = InterferenceField::build(&params, &inst, &senders);
        let tx: std::collections::HashSet<NodeId> = senders.iter().map(|&(u, _)| u).collect();
        for v in 0..inst.len() {
            if tx.contains(&v) {
                continue;
            }
            let naive = decode_best_exact(&params, &inst, v, &senders);
            let fast = field.decode_best(v);
            assert_eq!(
                naive.map(|(u, p, s)| (u, p.to_bits(), s.to_bits())),
                fast.map(|(u, p, s)| (u, p.to_bits(), s.to_bits())),
                "listener {v}"
            );
        }
    }

    /// Zero noise disables the decode-radius cutoff; every query must
    /// still equal its exact reference: decode falls back, and the
    /// threshold queries walk a field whose one cell spans the slot.
    #[test]
    fn zero_noise_falls_back_exactly() {
        let params = SinrParams::new(3.0, 2.0, 0.0, 0.1).unwrap();
        let inst = gen::uniform_square(60, 1.5, 1).unwrap();
        let senders = random_senders(&inst, 0.3, 10.0, 5);
        let field = InterferenceField::build(&params, &inst, &senders);
        let calc = AffectanceCalc::new(&params, &inst);
        let tx: std::collections::HashSet<NodeId> = senders.iter().map(|&(u, _)| u).collect();
        let mut scratch = FieldScratch::default();
        for v in 0..inst.len() {
            if tx.contains(&v) {
                continue;
            }
            assert_eq!(
                decode_best_exact(&params, &inst, v, &senders).map(|(u, p, s)| (
                    u,
                    p.to_bits(),
                    s.to_bits()
                )),
                field.decode_best_with(v, &mut scratch).map(|(u, p, s)| (
                    u,
                    p.to_bits(),
                    s.to_bits()
                )),
            );
            let (link, p) = probe_link(&inst, &params, v);
            let sinr = calc.sinr(link, p, &senders);
            let sum = calc.sum_on(&senders, link, p).unwrap();
            for thr in [params.beta(), 0.5, sinr] {
                assert_eq!(
                    field.sinr_at_least(link, p, thr),
                    sinr >= thr,
                    "listener {v}"
                );
            }
            for thr in [0.25, 1.0, sum] {
                assert_eq!(
                    field.sum_on_at_most(link, p, thr).unwrap(),
                    sum <= thr,
                    "listener {v}"
                );
            }
        }
        assert_eq!(scratch.stats.small_exact, scratch.stats.queries);
    }

    /// Nearest-neighbor link into each non-transmitting receiver, with
    /// a power that comfortably clears the noise floor for its length.
    fn probe_link(inst: &Instance, params: &SinrParams, v: NodeId) -> (Link, f64) {
        let w = (0..inst.len())
            .filter(|&w| w != v)
            .min_by(|&a, &b| {
                inst.distance(a, v)
                    .partial_cmp(&inst.distance(b, v))
                    .unwrap()
            })
            .unwrap();
        let link = Link::new(w, v);
        (link, params.min_power_for_length(link.length(inst)) * 4.0)
    }

    /// Affectance-threshold decisions agree with the exact sum, at
    /// thresholds the walk certifies and at the grazing `τ = sum`,
    /// which only the exact fallback can settle.
    #[test]
    fn sum_threshold_decisions_are_sound() {
        let params = SinrParams::default();
        let inst = gen::uniform_square(150, 1.5, 9).unwrap();
        let senders = random_senders(&inst, 0.2, params.min_power_for_length(4.0), 21);
        let field = InterferenceField::build(&params, &inst, &senders);
        let calc = AffectanceCalc::new(&params, &inst);
        let tx: std::collections::HashSet<NodeId> = senders.iter().map(|&(u, _)| u).collect();
        let mut checked = 0;
        for v in 0..inst.len() {
            if tx.contains(&v) {
                continue;
            }
            let (link, p) = probe_link(&inst, &params, v);
            if tx.contains(&link.sender) {
                continue;
            }
            let sum = calc.sum_on(&senders, link, p).unwrap();
            for threshold in [0.25, 1.0, 4.0, sum] {
                assert_eq!(
                    field.sum_on_at_most(link, p, threshold).unwrap(),
                    sum <= threshold,
                    "link {link:?} τ={threshold}"
                );
                checked += 1;
            }
        }
        assert!(checked > 20, "too few decisions: {checked}");
    }

    /// `sinr_at_least` decisions equal the canonical `sinr ≥ thr`
    /// comparison on every listener, threshold and family — including
    /// the replay loops' exact threshold `β·(1 − 1e-12)`.
    #[test]
    fn sinr_threshold_decisions_match_naive() {
        let params = SinrParams::default();
        for seed in 0..4u64 {
            let inst = gen::uniform_square(180, 1.5, seed).unwrap();
            let senders = random_senders(&inst, 0.15, params.min_power_for_length(3.0), seed ^ 7);
            if senders.is_empty() {
                continue;
            }
            let field = InterferenceField::build(&params, &inst, &senders);
            let calc = AffectanceCalc::new(&params, &inst);
            let tx: std::collections::HashSet<NodeId> = senders.iter().map(|&(u, _)| u).collect();
            for v in 0..inst.len() {
                if tx.contains(&v) {
                    continue;
                }
                let (link, p) = probe_link(&inst, &params, v);
                let exact = calc.sinr(link, p, &senders);
                for thr in [
                    params.beta(),
                    params.beta() * (1.0 - 1e-12),
                    0.5,
                    exact, // the worst grazing case: threshold == value
                ] {
                    assert_eq!(
                        field.sinr_at_least(link, p, thr),
                        exact >= thr,
                        "seed {seed} listener {v} thr {thr}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_delegates_are_canonical() {
        let params = SinrParams::default();
        let inst = gen::uniform_square(80, 1.5, 2).unwrap();
        let senders = random_senders(&inst, 0.25, 40.0, 3);
        let field = InterferenceField::build(&params, &inst, &senders);
        let calc = AffectanceCalc::new(&params, &inst);
        let v = (0..inst.len())
            .find(|v| senders.iter().all(|s| s.0 != *v))
            .unwrap();
        let (link, p) = probe_link(&inst, &params, v);
        assert_eq!(
            field.sinr_exact(link, p).to_bits(),
            calc.sinr(link, p, &senders).to_bits()
        );
    }

    #[test]
    fn empty_field_is_silent() {
        let params = SinrParams::default();
        let inst = gen::line(4).unwrap();
        let field = InterferenceField::build(&params, &inst, &[]);
        assert!(field.is_empty());
        assert_eq!(field.decode_best(0), None);
    }
}
