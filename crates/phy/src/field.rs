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
//! [`InterferenceField`] exploits that, in two tiers split at 64
//! senders (DESIGN.md §7.2):
//!
//! - A field of at least 64 senders buckets them into a
//!   [`WeightedCellGrid`] keyed by cell, and every query — decode,
//!   `SINR ≥ τ`, `a_S(ℓ) ≤ τ` — runs one private ring walk. It
//!   enumerates cells in expanding Chebyshev rings around the
//!   receiver, folding bounds on the terms of the visited senders,
//!   while the unvisited remainder is bounded by `remaining_power ×
//!   gain(ring · cell) × scale` — a certified far-field bound, since
//!   every unvisited sender provably lies beyond that distance and
//!   `scale` caps a sender's term per unit of power. Such a field also
//!   builds two per-slot aggregates that only prune: a summed-area
//!   table of sender power, which charges each unseen ring its own
//!   power at its own inner radius instead of all of it at the nearest
//!   one, and a reach bitmap, which answers a listener that no sender
//!   can reach without a candidate scan (DESIGN.md §7.1).
//! - A smaller field builds no grid: every query folds the table
//!   bounds of all its senders in one flat pass, in sender order.
//!
//! Either way a query supplies only its per-sender terms and its
//! verdict on the resulting interval. The decision is accepted only
//! when it holds on **both ends** of the certified interval (with a
//! guard factor that dominates all float rounding, including
//! summation-order error); otherwise the query falls back to the naive
//! computation, term for term in the naive order.
//!
//! The consequence is the determinism contract of DESIGN.md §7: every
//! decision the field returns is **bit-identical** to the
//! `O(n)`-per-query naive path, and so is the one `f64` it reports,
//! [`sinr_exact`](InterferenceField::sinr_exact), which is the
//! canonical naive-order sum. The speedup comes purely from the
//! (overwhelmingly common) queries whose decisions certify from a small
//! near field.
//!
//! Where a decode must be decided exactly — small fields on a channel
//! too wide for the bounds or with zero noise, and threshold-grazing
//! fallbacks — the field settles each sender by its own signal first,
//! so an exact decode costs `O(senders)` gain evaluations, not the
//! `O(senders²)` of the naive reference [`decode_best_exact`].

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

/// Relative widening of `R²` below which a walked member may lie inside
/// the decode radius: `d² > R²·(1 + NEAR_SLACK)`, computed, implies a
/// computed `√d² > R`, so only members under it pay for the `sqrt`.
const NEAR_SLACK: f64 = 1e-12;

/// The grid never uses cells smaller than `span / MAX_CELLS_PER_AXIS`,
/// bounding ring scans by a constant number of cell probes.
const MAX_CELLS_PER_AXIS: f64 = 64.0;

/// From this many transmitters a slot builds its grid and its per-slot
/// aggregates, the summed-area table behind the far bound and the reach
/// bitmap, and its queries walk rings (DESIGN.md §7.1, §7.2). A smaller
/// slot builds none of them and decides every query in one flat pass
/// over its senders: the protocols' small slots and the one-shot
/// replays' (validation, audits, probes), which answer a query per
/// link, are too small to pay for an index.
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
/// listener `v`, provided its SINR reaches `β`. Returns the sender; the
/// first of equal maxima in sender order wins.
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
) -> Option<NodeId> {
    let calc = AffectanceCalc::new(params, instance);
    let mut best: Option<(NodeId, f64)> = None;
    for &(u, pu) in senders {
        debug_assert_ne!(u, v, "listeners never appear among transmitters");
        let sinr = calc.sinr(Link::new(u, v), pu, senders);
        if sinr >= params.beta() && best.map_or(true, |(_, bs)| sinr > bs) {
            best = Some((u, sinr));
        }
    }
    best.map(|(u, _)| u)
}

/// How decode queries were settled — always-on counters a scratch
/// accumulates across queries (integer bumps, too cheap to gate).
///
/// The invariant `queries == small_exact + certified + fallbacks`
/// classifies every query exactly once:
///
/// - `small_exact` — decided exactly from the start by the field's
///   `O(senders)` decode (DESIGN.md §7.3), without bounds: fields with
///   no finite decode radius (zero noise), and fields below 64 senders
///   on a channel whose fade range is too wide for table bounds;
/// - `certified` — settled on bounds: by a field's flat pass, its
///   certified ring walk or its reach bitmap;
/// - `fallbacks` — threshold-grazing queries, decided by the same exact
///   decode.
///
/// Outside that partition, `straddles` counts the passes on table
/// bounds (DESIGN.md §7.2) that left a query open: a ring walk, which
/// is walked again with exact terms and then certifies the query or
/// sends it to the fallback, exactly as a walk with only exact terms
/// would, or a flat pass, whose query falls back. `rings` counts the
/// rings decode queries walked, both walks of a straddle included: the
/// size driver of the `far-field-cert` profiling phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Decode queries answered (empty fields excluded).
    pub queries: u64,
    /// Queries decided by the exact decode without bounds.
    pub small_exact: u64,
    /// Queries settled on bounds: flat pass, ring walk or reach bitmap.
    pub certified: u64,
    /// Threshold-grazing queries decided by the exact decode.
    pub fallbacks: u64,
    /// Passes on table bounds that left a query open.
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
    /// Candidate scans and flat passes (`near-field` phase).
    pub near_field: Duration,
    /// Ring accumulation + certification (`far-field-cert` phase).
    pub far_field_cert: Duration,
    /// Exact decodes: queries decided exactly from the start and
    /// threshold-grazing fallbacks (`fallback` phase).
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
    /// Each candidate's signal as `[lower, upper]`: table bounds in a
    /// flat pass, the exact signal twice in a ring walk.
    cand_signals: Vec<[f64; 2]>,
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
}

impl FieldScratch {
    /// Turns per-phase `Instant` timing on or off (off by default).
    pub fn enable_timing(&mut self, on: bool) {
        self.timing = on;
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
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CandState {
    Undecided,
    No,
    Yes,
}

/// Settles each undecided decode candidate, of signal within `[l, h]`,
/// whose SINR clears `β` either way for every signal in `[l, h]` and
/// every interference in the certified interval around
/// `[lo − l, hi − h + far]`; `Some` once none is left.
///
/// `lo` and `hi` bracket the sum at the listener, candidates included,
/// and each candidate's `[l, h]` is its own term in them. Both ends
/// take the slack of the upper sum, so a larger `lo` or `l`, or a
/// smaller `hi` or `h`, never settles less (DESIGN.md §7.2). A ring
/// walk passes exact signals, `l = h`; with `lo = hi` too it is the
/// one-sum certificate of an exact walk.
fn settle_candidates(
    states: &mut [CandState],
    signals: &[[f64; 2]],
    noise: f64,
    beta: f64,
    lo: f64,
    hi: f64,
    far: f64,
) -> Option<()> {
    let mut open = false;
    for (state, &[l, h]) in states.iter_mut().zip(signals) {
        if *state != CandState::Undecided {
            continue;
        }
        let slack = GUARD * (hi + h);
        let i_lo = (lo - l - slack).max(0.0);
        let i_hi = (hi - h + slack + far).max(0.0);
        if (h / (noise + i_lo)) * (1.0 + GUARD) < beta {
            *state = CandState::No;
        } else if (l / (noise + i_hi)) * (1.0 - GUARD) >= beta {
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
/// are bit-identical to the naive all-pairs path (see module docs).
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
    /// Whether each node, by id, is among `senders`.
    sending: Vec<bool>,
    /// Empty below [`AGGREGATE_SLOT`] senders, whose queries take one
    /// flat pass; from it, with a finite radius, it also holds a
    /// summed-area table.
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
    /// Whether queries try table bounds first: the fade range is at
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
    ///
    /// # Panics
    ///
    /// Panics if an id repeats; [`refill`](Self::refill) refuses it.
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
            sending: vec![false; instance.len()],
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
        field.refill(senders).expect("a repeated sender id");
        field
    }

    /// Re-points the field at another slot's transmitter set, in place:
    /// the sender list, the sender bitmap behind
    /// [`transmits`](Self::transmits), the grid, its summed-area table
    /// and the reach bitmap are rebuilt inside the buffers they already
    /// own, so a refill allocates nothing once the buffers have grown
    /// to the largest slot. Every query answers as on a fresh
    /// [`build`](Self::build) of `senders`, bit for bit, whatever the
    /// field held before; `senders` is ordered as for `build`.
    ///
    /// # Errors
    ///
    /// A node has one radio: if an id repeats in `senders`, the field
    /// is left empty and the first id met again is returned.
    pub fn refill(&mut self, senders: &[(NodeId, f64)]) -> std::result::Result<(), NodeId> {
        for &(u, _) in &self.senders {
            self.sending[u] = false;
        }
        self.senders.clear();
        self.senders.extend_from_slice(senders);
        let mut mark = |u: NodeId| std::mem::replace(&mut self.sending[u], true);
        if let Some(&(u, _)) = self.senders.iter().find(|&&(u, _)| mark(u)) {
            self.refill(&[])?; // empties the field, clearing every bit
            return Err(u);
        }
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
        // Only a walked field reads its grid: a smaller one's stays
        // empty, since every query below `AGGREGATE_SLOT` takes its flat
        // pass or its exact path first.
        let walked = senders.len() >= AGGREGATE_SLOT;
        let members = if walked { &self.senders[..] } else { &[] };
        self.grid.rebuild(
            cell,
            members.iter().map(|&(u, p)| (u, instance.position(u), p)),
        );
        self.reach.bits.clear();
        let cell_gain = if walked && radius.is_finite() {
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
        Ok(())
    }

    /// Whether node `u` is one of the field's senders: the half-duplex
    /// rule, which the queries leave to their callers.
    #[inline]
    pub fn transmits(&self, u: NodeId) -> bool {
        self.sending[u]
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
    fn decode_exact(&self, v: NodeId, scratch: &mut FieldScratch) -> Option<NodeId> {
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
        let mut best: Option<(NodeId, f64)> = None;
        for &i in strongest.iter() {
            let (u, pu) = self.senders[i];
            let sinr = calc.sinr(Link::new(u, v), pu, &self.senders);
            if sinr >= beta && best.map_or(true, |(_, bs)| sinr > bs) {
                best = Some((u, sinr));
            }
        }
        best.map(|(u, _)| u)
    }

    /// Which transmitter, if any, listener `v` decodes — the same
    /// sender as [`decode_best_exact`] over this field's senders.
    pub fn decode_best(&self, v: NodeId) -> Option<NodeId> {
        let mut scratch = FieldScratch::default();
        self.decode_best_with(v, &mut scratch)
    }

    /// [`decode_best`](Self::decode_best) with caller-provided scratch,
    /// allocation-free across repeated queries.
    pub fn decode_best_with(&self, v: NodeId, scratch: &mut FieldScratch) -> Option<NodeId> {
        if self.senders.is_empty() {
            return None;
        }
        scratch.stats.queries += 1;
        if !self.radius.is_finite() || self.small_exact() {
            scratch.stats.small_exact += 1;
            let t0 = scratch.clock();
            let out = self.decode_exact(v, scratch);
            FieldScratch::lap(t0, &mut scratch.times.fallback);
            return out;
        }
        scratch.cand_ids.clear();
        scratch.cand_signals.clear();
        scratch.cand_states.clear();
        let pos_v = self.instance.position(v);
        let settled = if self.senders.len() >= AGGREGATE_SLOT {
            self.walk_candidates(pos_v, scratch)
        } else {
            self.flat_candidates(pos_v, scratch)
        };
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
        // No candidate, every candidate certified undecodable, or the
        // one certified winner (β ≥ 1 with N > 0 makes it unique).
        scratch.stats.certified += 1;
        certified.map(|winner| scratch.cand_ids[winner])
    }

    /// A decode's flat pass, in a field below [`AGGREGATE_SLOT`]
    /// senders (DESIGN.md §7.2): every sender's table bounds at `pos_v`
    /// fold onto `[lo, hi]` in sender order. A sender whose upper bound
    /// `h` clears `βN` becomes a candidate with its bounded signal
    /// `[l, h]`; any other cannot decode, since its computed signal is
    /// at most `h`. The candidates settle on interference in
    /// `[lo − l, hi − h]`, with nothing unseen. Returns whether every
    /// candidate settled; an infinite `hi` settles none, and a pass that
    /// leaves one open counts as a straddle. Timed as `near-field`.
    fn flat_candidates(&self, pos_v: Point, scratch: &mut FieldScratch) -> bool {
        let (noise, beta) = (self.params.noise(), self.params.beta());
        let t0 = scratch.clock();
        let FieldScratch {
            cand_ids,
            cand_signals,
            cand_states,
            stats,
            ..
        } = &mut *scratch;
        let (lo, hi) = self.fold_bounds(|u, pos_u, w| {
            let bounds = self.bound_term(pos_v.distance_sq(pos_u), w);
            if bounds[1] / noise >= beta {
                cand_ids.push(u);
                cand_signals.push(bounds);
                cand_states.push(CandState::Undecided);
            }
            bounds
        });
        let settled = cand_ids.is_empty()
            || hi.is_finite()
                && settle_candidates(cand_states, cand_signals, noise, beta, lo, hi, 0.0).is_some();
        stats.straddles += u64::from(!settled);
        FieldScratch::lap(t0, &mut scratch.times.near_field);
        settled
    }

    /// A decode's candidate scan and ring walk, in a field of at least
    /// [`AGGREGATE_SLOT`] senders. Returns whether every candidate
    /// settled.
    fn walk_candidates(&self, pos_v: Point, scratch: &mut FieldScratch) -> bool {
        let radius = self.radius;
        let noise = self.params.noise();
        let beta = self.params.beta();
        let channel = self.params.channel();
        if self.reach.rules_out(pos_v) {
            // Every sender lies beyond `radius`: no candidate, exactly
            // what the scan below would find.
            return true;
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
        scratch.near_ids.clear();
        scratch.near_signals.clear();
        {
            let FieldScratch {
                cand_ids,
                cand_signals,
                cand_states,
                near_ids,
                near_signals,
                ..
            } = &mut *scratch;
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
                        cand_signals.push([signal; 2]);
                        cand_states.push(CandState::Undecided);
                    }
                });
        }
        FieldScratch::lap(t0, &mut scratch.times.near_field);
        if scratch.cand_ids.is_empty() {
            return true;
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
        settled
    }

    /// Whether a field below [`AGGREGATE_SLOT`] senders decides exactly,
    /// without bounds: its channel's fade range exceeds
    /// [`BOUND_FADE_RANGE`], or it has no finite decode radius (zero
    /// noise among those). Any other such field takes a flat pass.
    #[inline]
    fn small_exact(&self) -> bool {
        self.senders.len() < AGGREGATE_SLOT && !(self.bounded && self.radius.is_finite())
    }

    /// The decision `a_S(ℓ) ≤ threshold` for this field's sender set on
    /// `link` — bit-identical to comparing the naive
    /// [`AffectanceCalc::sum_on`] against `threshold`.
    ///
    /// A flat pass or the ring walk settles it whenever the bounds on
    /// the sum clear the threshold on both ends; a sum grazing the
    /// threshold, or one of a small field that decides exactly, is
    /// summed exactly, in canonical order. A sender at the receiver is
    /// clipped at `1 + ε`, which need not exceed the threshold: callers
    /// ask [`transmits`](Self::transmits).
    ///
    /// # Errors
    ///
    /// Propagates the noise-floor error from the noise factor.
    pub fn sum_on_at_most(&self, link: Link, link_power: f64, threshold: f64) -> Result<bool> {
        let calc = AffectanceCalc::new(self.params, self.instance);
        if !self.small_exact() {
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
            let bound =
                (self.bounded && coeff.is_finite()).then_some(|u: NodeId, pos_w: Point, w: f64| {
                    if u == link.sender {
                        return [0.0; 2];
                    }
                    let [lo, hi] = self.gains.lines(pos_v.distance_sq(pos_w));
                    [(w * coeff_lo * lo).min(clip), (w * coeff * hi).min(clip)]
                });
            let settle = |lo: f64, hi: f64, far: f64| {
                let slack = GUARD * (hi + threshold.abs() + 1.0);
                if lo - slack > threshold {
                    Some(false) // already over, far adds only more
                } else if hi + slack + far <= threshold {
                    Some(true)
                } else {
                    None
                }
            };
            let certified = if self.senders.len() < AGGREGATE_SLOT {
                bound.and_then(|bound| {
                    let (lo, hi) = self.fold_bounds(bound);
                    settle(lo, hi, 0.0)
                })
            } else {
                self.settle_walk(
                    pos_v,
                    coeff,
                    &mut QueryStats::default(),
                    bound,
                    |u, _, w| {
                        let t = if u == link.sender {
                            0.0
                        } else {
                            calc.thresholded_term(c, u, w, link, link_power)
                        };
                        [t, t]
                    },
                    settle,
                )
            };
            if let Some(decision) = certified {
                return Ok(decision);
            }
        }
        // Exact small field or threshold-grazing sum: decide exactly, in
        // the canonical naive order.
        Ok(calc.sum_on(&self.senders, link, link_power)? <= threshold)
    }

    /// The decision `SINR(link) ≥ threshold` against this field's
    /// senders — bit-identical to comparing the canonical
    /// [`AffectanceCalc::sinr`] value against `threshold`.
    ///
    /// This is the hook schedule validation and the `latency` replays
    /// in `sinr-connectivity` consume: they only ever *threshold* the
    /// SINR (delivery succeeded or not), so the certified interval of a
    /// flat pass or a ring walk settles almost every query and the rare
    /// threshold-grazing one falls back to the exact naive-order sum.
    /// Like [`AffectanceCalc::sinr`], it has no half-duplex rule:
    /// callers ask [`transmits`](Self::transmits) whether the receiver
    /// sends in the slot.
    pub fn sinr_at_least(&self, link: Link, link_power: f64, threshold: f64) -> bool {
        self.sinr_verdict(link, link_power, threshold, &mut QueryStats::default())
    }

    /// [`sinr_at_least`](Self::sinr_at_least), counting the rings and
    /// the straddles of its walks (a flat pass's straddling bound sum
    /// among them) into `stats`.
    fn sinr_verdict(
        &self,
        link: Link,
        link_power: f64,
        threshold: f64,
        stats: &mut QueryStats,
    ) -> bool {
        if self.small_exact() {
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
        let certified = if self.senders.len() < AGGREGATE_SLOT {
            let (lo, hi) = self.fold_bounds(bound);
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

    /// A flat pass: `term(sender, position, power)` of every sender, a
    /// `[lower, upper]` pair, folded onto two sums in sender order, the
    /// canonical order of the exact sums (DESIGN.md §7.2).
    #[inline]
    fn fold_bounds(&self, mut term: impl FnMut(NodeId, Point, f64) -> [f64; 2]) -> (f64, f64) {
        self.senders.iter().fold((0.0, 0.0), |(lo, hi), &(u, w)| {
            let [l, h] = term(u, self.instance.position(u), w);
            (lo + l, hi + h)
        })
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
            "fields below AGGREGATE_SLOT build no grid"
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

    /// The core parity property: `decode_best` picks the naive rule's
    /// winner on every listener of many random slots.
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
                assert_eq!(
                    naive, fast,
                    "seed {seed} listener {v}: decoded senders differ"
                );
                decodes += usize::from(naive.is_some());
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

    /// `(senders, power family)` for each of `counts` in each power
    /// family of `for_each_slot`.
    fn slots_of(counts: &[usize]) -> Vec<(usize, usize)> {
        counts
            .iter()
            .flat_map(|&c| (0..3).map(move |f| (c, f)))
            .collect()
    }

    /// The walk tests' slots: 64 to 600 senders, the fields that walk
    /// rings. Under zero noise they walk a grid whose cell spans the
    /// instance, with the one-term far bound.
    fn walk_slots() -> Vec<(usize, usize)> {
        slots_of(&[64, 150, 600])
    }

    /// Calls `check(params, instance, field, senders, listeners)` for
    /// each `(senders, power family)` of `slots` on uniform, clustered
    /// and lattice instances under the geometric channel, a σ = 6 dB
    /// shadowed one, and zero noise; `listeners` are the nodes outside
    /// the slot, in random order. Family 0 gives every sender one
    /// power, 1 its mean-with-margin power towards its nearest
    /// neighbour, 2 powers over three decades. Each instance's slots
    /// are refilled, in order, into one field, which `check` may refill
    /// again before the next slot. Returns how many slots built the
    /// summed-area table.
    fn for_each_slot(
        slots: &[(usize, usize)],
        mut check: impl FnMut(
            &SinrParams,
            &Instance,
            &mut InterferenceField<'_>,
            &[(NodeId, f64)],
            &[NodeId],
        ),
    ) -> usize {
        let geometric = SinrParams::default();
        let shadowed = geometric.with_channel(crate::ChannelModel::shadowed(7, 6.0).unwrap());
        let noiseless = SinrParams::new(3.0, 2.0, 0.0, 0.1).unwrap();
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
        for params in [geometric, shadowed, noiseless] {
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
                    field.refill(&senders).unwrap();
                    aggregated += usize::from(field.cell_gain.is_normal());
                    check(&params, inst, &mut field, &senders, &ids[count..]);
                }
            }
        }
        aggregated
    }

    /// Checks the far bound of `field`'s walks at the first 25
    /// `listeners`: at every ring `r ≥ 1` a walk reaches with cells
    /// still unseen, the `far` handed to `settle` is at least the exact
    /// sum of the terms of the senders outside rings `0..=r`. Returns
    /// how many rings it checked with a positive unseen sum.
    fn check_far_bound(
        params: &SinrParams,
        inst: &Instance,
        field: &InterferenceField<'_>,
        senders: &[(NodeId, f64)],
        listeners: &[NodeId],
    ) -> usize {
        let mut rings_checked = 0;
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
                rings_checked += usize::from(beyond[r] > 0.0);
            }
        }
        rings_checked
    }

    /// Soundness gate for the far bound (DESIGN.md §7.2), on every slot
    /// of `for_each_slot` (see `check_far_bound`). Its zero-noise
    /// slots walk a grid of one cell per instance span, which every
    /// walk has seen in full by ring 1; the one-term far bound of a
    /// walked field with cells unseen is checked on slots of 64–600
    /// senders whose cell gain `cell^{-α}` is subnormal: `α = 40` on an
    /// instance scaled to a span of `3.5·10⁹`, so the grid's cell is
    /// `span/64` and the terms of senders one to two cells out are
    /// subnormal but not 0.
    #[test]
    fn far_bound_covers_every_unseen_sender() {
        let mut rings_checked = 0usize;
        let aggregated = for_each_slot(&walk_slots(), |params, inst, field, senders, listeners| {
            rings_checked += check_far_bound(params, inst, field, senders, listeners);
        });
        assert!(
            aggregated >= 24,
            "too few slots took the aggregate path: {aggregated}"
        );
        assert!(
            rings_checked > 10_000,
            "too few rings checked: {rings_checked}"
        );

        let steep = SinrParams::new(40.0, 2.0, 1.0, 0.1).unwrap();
        let unit = gen::uniform_square(1200, 1.5, 5).unwrap();
        let scale = 3.5e9 / unit.delta();
        let scaled = (0..unit.len()).map(|u| {
            let p = unit.position(u);
            Point::new(p.x * scale, p.y * scale)
        });
        let inst = Instance::new(scaled.collect()).unwrap();
        let mut rng = StdRng::seed_from_u64(0x0e7e);
        let mut one_term = 0usize;
        for count in [64, 150, 600] {
            let mut ids: Vec<NodeId> = (0..inst.len()).collect();
            ids.shuffle(&mut rng);
            let base = steep.min_power_for_length(1e7);
            let senders: Vec<(NodeId, f64)> = ids[..count]
                .iter()
                .map(|&u| (u, base * 10f64.powf(rng.gen_range(0.0..3.0))))
                .collect();
            let field = InterferenceField::build(&steep, &inst, &senders);
            assert!(field.radius.is_finite() && !field.cell_gain.is_normal());
            one_term += check_far_bound(&steep, &inst, &field, &senders, &ids[count..]);
        }
        assert!(one_term >= 20, "too few one-term rings checked: {one_term}");
    }

    /// The bound walk's soundness gate (DESIGN.md §7.2): on every slot
    /// of `for_each_slot`, at every ring a listener's walk settles,
    /// the bound walk's `[lo, hi]` brackets the exact walk's sum of the
    /// same members in the same ring order, and `hi + far` bounds the
    /// sum over all senders. The shadowed slots check the fade-range
    /// factors, which their fields never walk on.
    #[test]
    fn bound_walk_brackets_the_exact_walk() {
        let mut rings_checked = 0usize;
        for_each_slot(&walk_slots(), |params, inst, field, _, listeners| {
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

    /// The flat pass's soundness gate (DESIGN.md §7.2): on slots of 1
    /// to 63 senders of `for_each_slot`, at every listener, the bounds
    /// folded in sender order bracket the canonical-order exact total,
    /// `lo ≤ Σ t_u ≤ hi`, and the decode's flat pass makes a candidate
    /// of every sender whose exact signal clears `βN`, with a bounded
    /// signal `l ≤ t ≤ h`. The shadowed slots check the fade-range
    /// factors, which their fields never decide on.
    #[test]
    fn flat_pass_brackets_the_exact_sum() {
        let (mut listeners_checked, mut candidates) = (0usize, 0usize);
        let counts = [1, 2, 3, 5, 8, 9, 16, 31, 40, 62, 63];
        for_each_slot(
            &slots_of(&counts),
            |params, inst, field, senders, listeners| {
                let calc = AffectanceCalc::new(params, inst);
                let (noise, beta) = (params.noise(), params.beta());
                let mut scratch = FieldScratch::default();
                for &v in listeners {
                    let pos_v = inst.position(v);
                    let exact: Vec<f64> = senders
                        .iter()
                        .map(|&(u, w)| calc.signal(Link::new(u, v), w))
                        .collect();
                    let total = exact.iter().fold(0.0, |acc, &t| acc + t);
                    let (lo, hi) = field
                        .fold_bounds(|_, pos_u, w| field.bound_term(pos_v.distance_sq(pos_u), w));
                    assert!(
                        lo <= total && total <= hi,
                        "{} senders, listener {v}: [{lo}, {hi}] misses {total}",
                        senders.len()
                    );
                    scratch.cand_ids.clear();
                    scratch.cand_signals.clear();
                    scratch.cand_states.clear();
                    field.flat_candidates(pos_v, &mut scratch);
                    for (i, &(u, _)) in senders.iter().enumerate() {
                        let t = exact[i];
                        let at = scratch.cand_ids.iter().position(|&c| c == u);
                        if t / noise >= beta {
                            assert!(at.is_some(), "listener {v}: sender {u} is no candidate");
                        }
                        if let Some(at) = at {
                            let [l, h] = scratch.cand_signals[at];
                            assert!(
                                l <= t && t <= h,
                                "listener {v}, sender {u}: [{l}, {h}] misses {t}"
                            );
                            candidates += 1;
                        }
                    }
                    listeners_checked += 1;
                }
            },
        );
        assert!(
            listeners_checked > 200_000 && candidates > 20_000,
            "too little checked: {listeners_checked} listeners, {candidates} candidates"
        );
    }

    /// The one certificate behind flat passes and ring walks settles a
    /// candidate only outside its interval: a signal `[l, h]` whose
    /// ends fall on both sides of `β`, and an exact signal within the
    /// slack `G·(hi + h)` of it, stay open; clear cases settle either
    /// way; with `l = h` it is the exact walk's one-sum certificate.
    #[test]
    fn certificate_settles_only_outside_its_interval() {
        let (noise, beta) = (1.0, 2.0);
        let settle = |[l, h]: [f64; 2], lo: f64, hi: f64| {
            let mut state = [CandState::Undecided];
            settle_candidates(&mut state, &[[l, h]], noise, beta, lo, hi, 0.0);
            state[0]
        };
        // A strong candidate over interference `i`: its SINR is
        // `s/(1 + i)`, the sums `s + i`.
        let s = 1e6;
        let at = |sinr: f64| s / sinr - noise;
        let i = at(beta * 1.01);
        assert_eq!(settle([s, s], s + i, s + i), CandState::Yes);
        let i = at(beta * 0.99);
        assert_eq!(settle([s, s], s + i, s + i), CandState::No);
        // 3·10⁻⁷ above `β`: inside the slack's `2G·SINR`, so open.
        let i = at(beta * (1.0 + 3e-7));
        assert_eq!(settle([s, s], s + i, s + i), CandState::Undecided);
        // A bounded signal 0.1% either side of the SINR's `β`: open.
        let i = at(beta);
        let [l, h] = [s * 0.999, s * 1.001];
        assert_eq!(settle([l, h], l + i, h + i), CandState::Undecided);
        // The same interval 1% above `β`: settled, by its low end.
        let i = at(beta * 1.01);
        assert_eq!(settle([l, h], l + i, h + i), CandState::Yes);
        let i = at(beta * 0.99);
        assert_eq!(settle([l, h], l + i, h + i), CandState::No);
    }

    /// Listeners 0 to 0.3% inside the noise edge `t/N = β` of a lone
    /// strong sender, with two faint far ones. The edge lies at distance
    /// 5, where `d² = 25` is an edge of a gain-table bucket, so the lower
    /// line sits up to 0.08% below the gain just inside it: where the
    /// signal clears `β` by less than that, only the bound's upper end
    /// makes the sender a candidate, and the flat pass must leave it
    /// open for the exact decode. Every decode matches the oracle.
    #[test]
    fn flat_pass_at_the_noise_edge_matches_the_oracle() {
        let params = SinrParams::default();
        let power = params.beta() * params.noise() * 125.0;
        let mut points = vec![
            Point::ORIGIN,
            Point::new(-60.0, 40.0),
            Point::new(55.0, -70.0),
        ];
        points.extend((0..=300).map(|k| Point::new(5.0 * (1.0 - 1e-5 * f64::from(k)), 0.0)));
        let inst = Instance::new(points).unwrap();
        let senders = [(0, power), (1, power * 0.05), (2, power * 0.05)];
        let (stats, decodes) = assert_exact_parity(&params, &inst, &senders, "noise edge");
        assert_eq!(stats.small_exact, 0, "{stats:?}");
        assert!(
            stats.fallbacks > 10,
            "too few straddles at the edge: {stats:?}"
        );
        assert!(decodes > 250, "too few decodes: {decodes}");
    }

    /// An upper sum that overflows settles nothing: a candidate whose
    /// upper signal is infinite while its lower one clears `β` by far
    /// would otherwise read `∞ − ∞` as no interference. Here the exact
    /// SINR of that candidate is about 35, below `β = 100`.
    #[test]
    fn flat_pass_refuses_an_infinite_upper_sum() {
        let params = SinrParams::new(3.0, 100.0, 1e305, 0.1).unwrap();
        let inst = Instance::new(vec![
            Point::ORIGIN,
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ])
        .unwrap();
        let senders = [(1, f64::MAX / (1.0 + 1e-8)), (2, 5e306)];
        let field = InterferenceField::build(&params, &inst, &senders);
        assert!(field.radius.is_finite());
        let [l, h] = field.bound_term(1.0, senders[0].1);
        assert!(l.is_finite() && h == f64::INFINITY);
        let mut scratch = FieldScratch::default();
        assert_eq!(field.decode_best_with(0, &mut scratch), None);
        assert_eq!(decode_best_exact(&params, &inst, 0, &senders), None);
        assert_eq!(
            (scratch.stats.fallbacks, scratch.stats.straddles),
            (1, 1),
            "{:?}",
            scratch.stats
        );
    }

    /// A refilled field answers every query as a fresh build of the
    /// same senders: each listener's decoded sender, `sinr_at_least`
    /// and `sum_on_at_most` at a certified and
    /// at a grazing threshold, the `QueryStats` of the decodes and of
    /// the SINR walks, and `transmits` for every node. The slots run
    /// 600 → 3 → 0 → 70 → 63 → 600 → 64 → 9 senders through one field
    /// per instance and channel, across `AGGREGATE_SLOT` both ways and
    /// at its edge, and between power families whose decode radii
    /// differ, so a grid, summed-area table, reach bitmap or sender bit
    /// left over from an earlier slot would answer some query
    /// differently. After each slot of odd size the field is refilled with the
    /// slot plus a repeat of one of its senders, which it must refuse,
    /// left with no sender and no transmitting node; the next slot's
    /// refill then starts from that empty field.
    #[test]
    fn refill_matches_a_fresh_build() {
        let slots = [
            (600, 2),
            (3, 0),
            (0, 0),
            (70, 0),
            (63, 1),
            (600, 1),
            (64, 2),
            (9, 0),
        ];
        let (mut queries, mut decodes, mut straddles, mut refused) = (0u64, 0usize, 0u64, 0);
        for_each_slot(&slots, |params, inst, field, senders, listeners| {
            let fresh = InterferenceField::build(params, inst, senders);
            let calc = AffectanceCalc::new(params, inst);
            let (mut got, mut want) = (FieldScratch::default(), FieldScratch::default());
            let (mut got_walks, mut want_walks) = (QueryStats::default(), QueryStats::default());
            let n = senders.len();
            let mut sending = vec![false; inst.len()];
            for &(u, _) in senders {
                sending[u] = true;
            }
            for (u, &sends) in sending.iter().enumerate() {
                assert_eq!(field.transmits(u), sends, "{n} senders, node {u}");
                assert_eq!(fresh.transmits(u), sends, "{n} senders, node {u}");
            }
            for (i, &v) in listeners[..150].iter().enumerate() {
                let decoded = fresh.decode_best_with(v, &mut want);
                assert_eq!(
                    field.decode_best_with(v, &mut got),
                    decoded,
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
            if n % 2 == 1 {
                let mut repeated = senders.to_vec();
                repeated.push(senders[n / 2]);
                assert_eq!(
                    field.refill(&repeated),
                    Err(senders[n / 2].0),
                    "{n} senders"
                );
                assert!(
                    field.is_empty(),
                    "{n} senders: a refused refill keeps senders"
                );
                assert!(
                    (0..inst.len()).all(|u| !field.transmits(u)),
                    "{n} senders: a refused refill keeps a sender bit"
                );
                assert_eq!(field.decode_best(listeners[0]), None);
                refused += 1;
            }
        });
        assert!(queries > 5_000, "too few decodes queried: {queries}");
        assert!(decodes > 1_000, "too few decodes succeeded: {decodes}");
        assert!(straddles > 500, "too few SINR walks straddled: {straddles}");
        assert_eq!(
            refused, 27,
            "three refused refills per instance and channel"
        );
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

    /// Decodes every non-transmitting listener through the field and
    /// checks the decoded sender against the O(s²) oracle; returns the
    /// field's counters and the number of decodes.
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
                field.decode_best_with(v, &mut scratch),
                naive,
                "{what}: listener {v}"
            );
            decodes += usize::from(naive.is_some());
        }
        (scratch.stats, decodes)
    }

    /// The field's decode picks the O(s²) oracle's winner on every
    /// listener of slots of 0–10, 31, 63, 64 and 65 senders, on both
    /// sides of `AGGREGATE_SLOT`: on the geometric and a σ = 6 dB
    /// shadowed channel, with zero noise, and with powers spread over
    /// three orders of magnitude. Geometric queries are settled on
    /// bounds or fall back; shadowed queries below `AGGREGATE_SLOT` and
    /// every zero-noise query are decided exactly from the start.
    #[test]
    fn exact_decode_matches_the_quadratic_oracle() {
        let inst = gen::uniform_square(96, 1.5, 6).unwrap();
        let geometric = SinrParams::default();
        let shadowed = geometric.with_channel(crate::ChannelModel::shadowed(3, 6.0).unwrap());
        let noiseless = SinrParams::new(3.0, 2.0, 0.0, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let (mut decodes, mut fallbacks) = (0, 0);
        for (name, params) in [
            ("geometric", geometric),
            ("shadowed", shadowed),
            ("zero noise", noiseless),
        ] {
            let base = params.min_power_for_length(2.5);
            for s in (0..=10).chain([31, 63, 64, 65]) {
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
                    fallbacks += stats.fallbacks;
                    let exact = match name {
                        "geometric" => 0,
                        "shadowed" if s >= AGGREGATE_SLOT => 0,
                        _ => stats.queries,
                    };
                    assert_eq!(stats.small_exact, exact, "{what}: {stats:?}");
                }
            }
        }
        assert!(decodes > 500, "too few decodes to mean much: {decodes}");
        assert!(fallbacks > 0, "no query fell back");
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
            assert_eq!(decode_best_exact(&params, &inst, 1, &senders), Some(first));
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

    /// Threshold-grazing queries take the exact path in both tiers: with
    /// `β` set to one listener's exact SINR, that listener's flat pass
    /// straddles, or its bound walk straddles and its exact walk can
    /// only fall back, and every decode still matches the oracle.
    #[test]
    fn grazing_fallbacks_are_exact() {
        let inst = gen::uniform_square(240, 1.5, 12).unwrap();
        let params = SinrParams::default();
        let senders = random_senders(&inst, 0.3, params.min_power_for_length(2.0), 4);
        assert!(senders.len() >= AGGREGATE_SLOT);
        let calc = AffectanceCalc::new(&params, &inst);
        for slot in [&senders[..], &senders[..20]] {
            let grazed = (0..inst.len())
                .filter(|v| slot.iter().all(|&(u, _)| u != *v))
                .find_map(|v| {
                    let u = decode_best_exact(&params, &inst, v, slot)?;
                    let &(_, p) = slot.iter().find(|&&(w, _)| w == u)?;
                    Some(calc.sinr(Link::new(u, v), p, slot))
                })
                .expect("some listener decodes");
            let grazing = SinrParams::new(3.0, grazed, params.noise(), params.epsilon()).unwrap();
            let what = format!("grazing, {} senders", slot.len());
            let (stats, decodes) = assert_exact_parity(&grazing, &inst, slot, &what);
            assert!(stats.fallbacks > 0, "{what}: no query fell back: {stats:?}");
            assert!(
                stats.straddles >= stats.fallbacks,
                "{what}: a fallback skipped its bound pass: {stats:?}"
            );
            assert!(decodes > 0, "{what}");
        }
    }

    /// Forced straddles of `sinr_at_least`: at a threshold equal to a
    /// link's exact SINR no bound interval can settle the query, so the
    /// bound walk (or a small field's flat pass) straddles and the exact
    /// path decides. Every decision equals `sinr_exact ≥ threshold`, on
    /// a walked and a flat field.
    #[test]
    fn forced_straddles_decide_exactly() {
        let inst = gen::uniform_square(240, 1.5, 12).unwrap();
        let params = SinrParams::default();
        let senders = random_senders(&inst, 0.3, params.min_power_for_length(2.0), 4);
        assert!(senders.len() >= AGGREGATE_SLOT);
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
            assert_eq!(naive, field.decode_best(v), "listener {v}");
        }
    }

    /// Zero noise disables the decode-radius cutoff; every query must
    /// still equal its exact reference. Every decode is exact from the
    /// start; the threshold queries of a small field are exact too, and
    /// those of a walked one walk a grid whose one cell spans the slot.
    #[test]
    fn zero_noise_falls_back_exactly() {
        let params = SinrParams::new(3.0, 2.0, 0.0, 0.1).unwrap();
        let inst = gen::uniform_square(240, 1.5, 1).unwrap();
        let senders = random_senders(&inst, 0.3, 10.0, 5);
        assert!(senders.len() >= AGGREGATE_SLOT);
        let calc = AffectanceCalc::new(&params, &inst);
        for slot in [&senders[..], &senders[..18]] {
            let field = InterferenceField::build(&params, &inst, slot);
            let mut scratch = FieldScratch::default();
            for v in (0..inst.len()).filter(|&v| !field.transmits(v)) {
                assert_eq!(
                    decode_best_exact(&params, &inst, v, slot),
                    field.decode_best_with(v, &mut scratch),
                );
                let (link, p) = probe_link(&inst, &params, v);
                let sinr = calc.sinr(link, p, slot);
                let sum = calc.sum_on(slot, link, p).unwrap();
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
    /// thresholds the bounds certify and at the grazing `τ = sum`,
    /// which only the exact fallback can settle, on a flat and a walked
    /// field.
    #[test]
    fn sum_threshold_decisions_are_sound() {
        let params = SinrParams::default();
        let inst = gen::uniform_square(150, 1.5, 9).unwrap();
        let calc = AffectanceCalc::new(&params, &inst);
        for frac in [0.2, 0.5] {
            let senders = random_senders(&inst, frac, params.min_power_for_length(4.0), 21);
            let field = InterferenceField::build(&params, &inst, &senders);
            let mut checked = 0;
            for v in (0..inst.len()).filter(|&v| !field.transmits(v)) {
                let (link, p) = probe_link(&inst, &params, v);
                if field.transmits(link.sender) {
                    continue;
                }
                let sum = calc.sum_on(&senders, link, p).unwrap();
                for threshold in [0.25, 1.0, 4.0, sum] {
                    assert_eq!(
                        field.sum_on_at_most(link, p, threshold).unwrap(),
                        sum <= threshold,
                        "{} senders, link {link:?} τ={threshold}",
                        senders.len()
                    );
                    checked += 1;
                }
            }
            assert!(checked > 20, "too few decisions: {checked}");
        }
    }

    /// `sinr_at_least` decisions equal the canonical `sinr ≥ thr`
    /// comparison on every listener, threshold and family — including
    /// the replay loops' exact threshold `β·(1 − 1e-12)` — on flat and
    /// walked fields.
    #[test]
    fn sinr_threshold_decisions_match_naive() {
        let params = SinrParams::default();
        for seed in 0..4u64 {
            let inst = gen::uniform_square(180, 1.5, seed).unwrap();
            let frac = if seed % 2 == 0 { 0.15 } else { 0.45 };
            let senders = random_senders(&inst, frac, params.min_power_for_length(3.0), seed ^ 7);
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
