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

use std::time::{Duration, Instant};

use sinr_geom::{Instance, NodeId, Point, WeightedCellGrid};
use sinr_links::Link;

use crate::affectance::AffectanceCalc;
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

/// The grid never uses cells smaller than `span / MAX_CELLS_PER_AXIS`,
/// bounding ring scans by a constant number of cell probes.
const MAX_CELLS_PER_AXIS: f64 = 64.0;

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
/// - `certified` — settled by the certified near field (including the
///   canonical recompute of the one certified winner);
/// - `fallbacks` — threshold-grazing (or guard-violating) queries,
///   decided by the same exact decode.
///
/// `rings` counts the rings decode queries walked, the size driver of
/// the `far-field-cert` profiling phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Decode queries answered (empty fields excluded).
    pub queries: u64,
    /// Queries decided by the exact decode without indexing.
    pub small_exact: u64,
    /// Queries settled by the certified near field.
    pub certified: u64,
    /// Threshold-grazing queries decided by the exact decode.
    pub fallbacks: u64,
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

/// A slot's transmitter set, spatially indexed for certified
/// thresholded queries.
///
/// Build one per slot from the active `(sender, power)` set, then
/// answer decode and affectance-threshold queries. All decisions and
/// all reported values are bit-identical to the naive all-pairs path
/// (see module docs).
///
/// A field is immutable once built. For the probe-then-commit inner
/// loop of slot packing use
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
    /// Empty in small slots: their queries are all exact.
    grid: WeightedCellGrid,
    /// The decode-cutoff radius `R(P_max)` of the strongest sender.
    radius: f64,
}

/// The reusable allocations of a field: the canonical sender list and
/// the weighted cell grid's CSR index and member columns.
///
/// [`InterferenceField::build_with`] consumes a set of buffers and
/// refills them in place; [`InterferenceField::into_buffers`] recovers
/// them once the slot is resolved. Cycling one `FieldBuffers` through
/// that pair keeps the per-slot field construction allocation-free at
/// steady state (capacities only ever grow to the high-water mark).
#[derive(Debug)]
pub struct FieldBuffers {
    senders: Vec<(NodeId, f64)>,
    grid: WeightedCellGrid,
}

impl Default for FieldBuffers {
    fn default() -> Self {
        FieldBuffers {
            senders: Vec::new(),
            // Placeholder cell size; every build re-keys the grid to
            // the slot's decode-radius-derived cell.
            grid: WeightedCellGrid::new(1.0),
        }
    }
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
    pub fn build(
        params: &'a SinrParams,
        instance: &'a Instance,
        senders: &[(NodeId, f64)],
    ) -> Self {
        Self::build_with(params, instance, senders, FieldBuffers::default())
    }

    /// [`build`](Self::build) recycling a previous field's allocations;
    /// see [`FieldBuffers`]. Bit-identical to a fresh build.
    pub fn build_with(
        params: &'a SinrParams,
        instance: &'a Instance,
        senders: &[(NodeId, f64)],
        buffers: FieldBuffers,
    ) -> Self {
        debug_assert!(
            senders
                .iter()
                .map(|&(u, _)| u)
                .collect::<std::collections::HashSet<_>>()
                .len()
                == senders.len(),
            "duplicate sender id in transmitter set"
        );
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
        let FieldBuffers {
            senders: mut sender_buf,
            mut grid,
        } = buffers;
        sender_buf.clear();
        sender_buf.extend_from_slice(senders);
        if senders.len() <= SMALL_SLOT {
            // No query of a small slot reads the grid (each branches on
            // `SMALL_SLOT` first), so it stays empty.
            grid.rebuild(cell, std::iter::empty());
        } else {
            grid.rebuild(
                cell,
                sender_buf
                    .iter()
                    .map(|&(u, p)| (u, instance.position(u), p)),
            );
        }
        InterferenceField {
            params,
            instance,
            senders: sender_buf,
            grid,
            radius,
        }
    }

    /// Dismantles the field, recovering its allocations for the next
    /// [`build_with`](Self::build_with).
    pub fn into_buffers(self) -> FieldBuffers {
        FieldBuffers {
            senders: self.senders,
            grid: self.grid,
        }
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

        // Candidate decodable senders. Everyone outside `radius` is
        // certified undecodable (SINR ≤ S/N < β); everyone inside is
        // tested with the engine's own float expression `S/N ≥ β`, so
        // the candidate set is exactly the set of senders the naive
        // loop could possibly accept.
        let t0 = scratch.clock();
        scratch.cand_ids.clear();
        scratch.cand_powers.clear();
        scratch.cand_signals.clear();
        scratch.cand_states.clear();
        {
            let FieldScratch {
                cand_ids,
                cand_powers,
                cand_signals,
                cand_states,
                ..
            } = scratch;
            self.grid
                .for_each_member_near(pos_v, radius, |u, pos_u, power| {
                    let d = self.instance.distance(u, v);
                    let signal = power * self.params.path_gain(d) * channel.fade(pos_u, pos_v);
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
        // walked until every candidate is certified either way.
        let t0 = scratch.clock();
        let mut undecided = scratch.cand_states.len();
        self.walk(
            pos_v,
            channel.fade_bounds().1,
            &mut scratch.stats.rings,
            |_, pos_w, w| {
                w * self.params.path_gain(pos_v.distance(pos_w)) * channel.fade(pos_w, pos_v)
            },
            |acc, far| {
                for (state, &s) in scratch.cand_states.iter_mut().zip(&scratch.cand_signals) {
                    if *state != CandState::Undecided {
                        continue;
                    }
                    let base = acc - s;
                    let slack = GUARD * (acc + s);
                    let i_lo = (base - slack).max(0.0);
                    let i_hi = (base + slack + far).max(0.0);
                    if (s / (noise + i_lo)) * (1.0 + GUARD) < beta {
                        *state = CandState::No;
                        undecided -= 1;
                    } else if (s / (noise + i_hi)) * (1.0 - GUARD) >= beta {
                        *state = CandState::Yes;
                        undecided -= 1;
                    }
                }
                (undecided == 0).then_some(())
            },
        );
        FieldScratch::lap(t0, &mut scratch.times.far_field_cert);

        let mut yes_count = 0usize;
        let mut certified: Option<usize> = None;
        for (i, state) in scratch.cand_states.iter().enumerate() {
            if *state == CandState::Yes {
                yes_count += 1;
                certified = Some(i);
            }
        }
        if undecided > 0 || yes_count > 1 {
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
            // ceiling into the coefficient (widening only).
            let channel = self.params.channel();
            let d_uv = link.length(self.instance);
            let fade = channel.fade(self.instance.position(link.sender), pos_v);
            let coeff =
                c * d_uv.powf(self.params.alpha()) * channel.fade_bounds().1 / (link_power * fade);
            let certified = self.walk(
                pos_v,
                coeff,
                &mut 0,
                |u, _, w| {
                    if u == link.sender {
                        0.0
                    } else {
                        calc.thresholded_term(c, u, w, link, link_power)
                    }
                },
                |acc, far| {
                    let slack = GUARD * (acc + threshold.abs() + 1.0);
                    if acc - slack > threshold {
                        Some(false) // already over, far adds only more
                    } else if acc + slack + far <= threshold {
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
    /// Callers must handle half-duplex (a transmitting receiver)
    /// themselves, exactly as with [`AffectanceCalc::sinr`].
    pub fn sinr_at_least(&self, link: Link, link_power: f64, threshold: f64) -> bool {
        if self.senders.len() <= SMALL_SLOT {
            return self.sinr_exact(link, link_power) >= threshold;
        }
        let noise = self.params.noise();
        let channel = self.params.channel();
        let pos_v = self.instance.position(link.receiver);
        let signal = link_power
            * self.params.path_gain(link.length(self.instance))
            * channel.fade(self.instance.position(link.sender), pos_v);
        let certified = self.walk(
            pos_v,
            channel.fade_bounds().1,
            &mut 0,
            |u, pos_w, w| {
                if u == link.sender {
                    0.0
                } else {
                    w * self.params.path_gain(pos_v.distance(pos_w)) * channel.fade(pos_w, pos_v)
                }
            },
            |acc, far| {
                // An interferer co-located with the receiver drives the
                // sum to infinity; no verdict fires, and the exact
                // fallback reproduces the canonical 0-SINR.
                if !acc.is_finite() {
                    return None;
                }
                let slack = GUARD * (acc + signal);
                let i_lo = (acc - slack).max(0.0);
                let i_hi = (acc + slack + far).max(0.0);
                if (signal / (noise + i_lo)) * (1.0 + GUARD) < threshold {
                    Some(false) // even the optimistic end fails
                } else if (signal / (noise + i_hi)) * (1.0 - GUARD) >= threshold {
                    Some(true) // even the pessimistic end passes
                } else {
                    None
                }
            },
        );
        // Threshold-grazing (or degenerate) query: resolve exactly, in
        // the canonical naive order.
        certified.unwrap_or_else(|| self.sinr_exact(link, link_power) >= threshold)
    }

    /// The exact SINR of `link` against this field's senders, in
    /// canonical order — bit-identical to [`AffectanceCalc::sinr`].
    pub fn sinr_exact(&self, link: Link, link_power: f64) -> f64 {
        AffectanceCalc::new(self.params, self.instance).sinr(link, link_power, &self.senders)
    }

    /// The one certified ring walk behind every query (DESIGN.md §7.2).
    ///
    /// Folds `term(sender, position, power)` of each member onto an
    /// exact sum, ring by Chebyshev ring around `center`. After ring
    /// `r > 0` every unvisited sender lies beyond `r · cell`, so `far`,
    /// the unseen power (widened by `GUARD` of the total) times
    /// `gain(r · cell) · scale`, bounds their terms; `scale` caps a term
    /// per unit of received power. Each finite `far` goes to
    /// `settle(sum, far)` with `far = 0` once every cell is seen; the
    /// first verdict is returned. `rings` counts the rings walked.
    fn walk<T>(
        &self,
        center: Point,
        scale: f64,
        rings: &mut u64,
        mut term: impl FnMut(NodeId, Point, f64) -> f64,
        mut settle: impl FnMut(f64, f64) -> Option<T>,
    ) -> Option<T> {
        debug_assert_eq!(
            self.grid.len(),
            self.senders.len(),
            "small slots build no grid"
        );
        let total_w = self.grid.total_weight();
        let (mut sum, mut seen_w, mut cells_seen) = (0.0f64, 0.0f64, 0usize);
        for ring in 0..=self.grid.max_ring_from(center) {
            *rings += 1;
            cells_seen += self.grid.for_each_ring_cell(center, ring, |cv| {
                for (((&u, &x), &y), &w) in cv.ids().iter().zip(cv.xs()).zip(cv.ys()).zip(cv.ws()) {
                    sum += term(u, Point::new(x, y), w);
                    seen_w += w;
                }
            });
            if cells_seen == self.grid.occupied_cells() {
                return settle(sum, 0.0);
            }
            let min_d = ring as f64 * self.grid.cell_size();
            if min_d > 0.0 {
                let far = ((total_w - seen_w).max(0.0) + GUARD * total_w)
                    * self.params.path_gain(min_d)
                    * scale;
                if far.is_finite() {
                    if let Some(verdict) = settle(sum, far) {
                        return Some(verdict);
                    }
                }
            }
        }
        None
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
                got.push([s.queries, s.small_exact, s.certified, s.fallbacks, s.rings]);
            }
        }
        // [queries, small_exact, certified, fallbacks, rings] per slot:
        // geometric ×16, ×256, then shadowed ×16, ×256.
        assert_eq!(
            got,
            [
                [945, 0, 945, 0, 176],
                [945, 0, 945, 0, 846],
                [945, 0, 945, 0, 1311],
                [945, 0, 945, 0, 1846],
            ]
        );
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
    /// with `β` set to one listener's exact SINR that listener can
    /// only fall back, and every decode still matches the oracle.
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
        assert!(decodes > 0);
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
