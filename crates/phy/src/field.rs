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
//! bucketed into a [`WeightedCellGrid`] keyed by cell, with per-cell
//! aggregate transmit power. A query enumerates cells in expanding
//! Chebyshev rings around the receiver, accumulating the *exact* terms
//! of the visited senders, while the unvisited remainder is bounded by
//! `remaining_power × gain(ring · cell)` — a certified far-field bound,
//! since every unvisited sender provably lies beyond that distance.
//! The decision is accepted only when it holds on **both ends** of the
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

/// Cushion on the decode-radius derivation (see
/// [`InterferenceField::decode_radius`]).
const RADIUS_CUSHION: f64 = 1e-9;

/// Below this many transmitters the naive loop is cheaper than any
/// indexing, so queries skip straight to it.
const SMALL_SLOT: usize = 8;

/// The grid never uses cells smaller than `span / MAX_CELLS_PER_AXIS`,
/// bounding ring scans by a constant number of cell probes.
const MAX_CELLS_PER_AXIS: f64 = 64.0;

/// The exact decode rule of the simulator, shared by the naive engine
/// backend and the field's fallback path: the best-SINR transmitter at
/// listener `v`, provided its SINR reaches `β`. Returns `(sender,
/// sender power, sinr)`.
///
/// This is the *reference semantics*: one implementation, used by both
/// backends, so "bit-identical to the naive path" is equality with this
/// function by construction.
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
/// - `small_exact` — skipped indexing entirely (≤ [`SMALL_SLOT`]
///   senders, or no finite decode radius);
/// - `certified` — settled by the certified near field (including the
///   canonical recompute of the one certified winner);
/// - `fallbacks` — threshold-grazing (or guard-violating) queries that
///   re-ran the full naive sum.
///
/// `rings` counts ring iterations of the far-field accumulation, the
/// size driver of the `far-field-cert` profiling phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Decode queries answered (empty fields excluded).
    pub queries: u64,
    /// Queries that went straight to the exact naive loop.
    pub small_exact: u64,
    /// Queries settled by the certified near field.
    pub certified: u64,
    /// Queries that fell back to the full naive computation.
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
    /// Exact naive sums: fallbacks, small-slot queries, and canonical
    /// winner recomputes (`fallback` phase).
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
/// [`add_sender`](Self::add_sender) and
/// [`remove_sender`](Self::remove_sender) keep the incremental API for
/// small edits, at `O(senders + cells)` per call (the flat cell index
/// re-scatters). For the probe-then-commit inner loop of slot packing use
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
    grid: WeightedCellGrid,
    max_power: f64,
}

/// The reusable allocations of a field: the canonical sender list and
/// the weighted cell grid with all its flat member/index arrays.
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
            // Placeholder cell size; every build resets it to the
            // slot's decode-radius-derived cell.
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
        grid.reset(cell);
        grid.rebuild(
            sender_buf
                .iter()
                .map(|&(u, p)| (u, instance.position(u), p)),
        );
        InterferenceField {
            params,
            instance,
            senders: sender_buf,
            grid,
            max_power,
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

    /// The slot's transmitter set, in canonical order.
    #[inline]
    pub fn senders(&self) -> &[(NodeId, f64)] {
        &self.senders
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

    /// Appends a transmitter (it becomes last in the canonical order).
    /// `u` must not already be transmitting (one radio per node; see
    /// [`build`](Self::build) on why duplicates are rejected).
    /// `O(senders + cells)` — the flat cell index re-scatters; batch
    /// construction belongs in [`build_with`](Self::build_with).
    pub fn add_sender(&mut self, u: NodeId, power: f64) {
        debug_assert!(
            self.senders.iter().all(|&(w, _)| w != u),
            "node {u} is already transmitting in this field"
        );
        self.senders.push((u, power));
        self.grid.insert(u, self.instance.position(u), power);
        self.max_power = self.max_power.max(power);
    }

    /// Removes the most recently added transmission of `u`; returns
    /// whether one existed.
    ///
    /// This is a rollback path, not an inner-loop primitive: it rescans
    /// the sender list for the new power maximum and re-aggregates the
    /// grid totals (no float subtraction), `O(senders + cells)`.
    pub fn remove_sender(&mut self, u: NodeId) -> bool {
        let Some(pos) = self.senders.iter().rposition(|&(w, _)| w == u) else {
            return false;
        };
        self.senders.remove(pos);
        self.grid.remove(u, self.instance.position(u));
        // Re-derive the maximum instead of trusting subtraction.
        self.max_power = self.senders.iter().fold(0.0f64, |m, &(_, p)| m.max(p));
        true
    }

    /// The radius beyond which a transmitter with power `power` cannot
    /// be decoded: `SINR ≤ S/N`, so `S/N < β ⇒ no decode`, which at
    /// distance `d` reads `d > (P/(βN))^{1/α}`. The cushion absorbs the
    /// handful of float roundings between the real-arithmetic bound and
    /// the engine's computed `S/N`. Infinite when `N = 0`.
    ///
    /// Under a fading channel the best realizable gain at distance `d`
    /// is `path_gain(d) · fade_hi`, so the cutoff uses the effective
    /// power `P · fade_hi` — a wider radius, never a narrower one.
    fn decode_radius_for(params: &SinrParams, power: f64) -> f64 {
        let power = power * params.channel().fade_bounds().1;
        if params.noise() > 0.0 && power > 0.0 {
            (power * (1.0 + RADIUS_CUSHION) / (params.beta() * params.noise()))
                .powf(1.0 / params.alpha())
        } else {
            f64::INFINITY
        }
    }

    /// The field's decode-cutoff radius `R(P_max) = (P_max/(βN))^{1/α}`
    /// (§7.1): no transmitter in this field can be decoded — and no
    /// single transmitter can contribute a decision-flipping
    /// interference term on a noise-margin link — from beyond this
    /// distance. Infinite when the model is noiseless. The incremental
    /// re-packer (`sinr-connectivity::repack`) uses it to reason about
    /// which surviving slot groupings a churn delta can possibly
    /// disturb.
    pub fn decode_radius(&self) -> f64 {
        Self::decode_radius_for(self.params, self.max_power)
    }

    /// The exact decode over this field's senders, in canonical order —
    /// the fallback every certified path defers to.
    fn decode_exact(&self, v: NodeId) -> Option<(NodeId, f64, f64)> {
        decode_best_exact(self.params, self.instance, v, &self.senders)
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
        let radius = Self::decode_radius_for(self.params, self.max_power);
        if self.senders.len() <= SMALL_SLOT || !radius.is_finite() {
            scratch.stats.small_exact += 1;
            let t0 = scratch.clock();
            let out = self.decode_exact(v);
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

        // Expanding-ring accumulation of the total received interference
        // at `v`, with a certified far-field bound for the remainder.
        let t0 = scratch.clock();
        let total_w = self.grid.total_weight();
        let cell = self.grid.cell_size();
        let occupied = self.grid.occupied_cells();
        let mut acc = 0.0f64; // Σ terms of visited senders (incl. candidates)
        let mut seen_w = 0.0f64;
        let mut cells_seen = 0usize;
        let mut undecided = scratch.cand_states.len();
        let max_ring = self.grid.max_ring_from(pos_v);
        let fade_hi = channel.fade_bounds().1;
        let mut ring = 0i64;
        while ring <= max_ring {
            scratch.stats.rings += 1;
            cells_seen += self.grid.for_each_ring_cell(pos_v, ring, |cv| {
                let (xs, ys, ws) = (cv.xs(), cv.ys(), cv.ws());
                for i in 0..ws.len() {
                    let pos_w = Point::new(xs[i], ys[i]);
                    acc += ws[i]
                        * self.params.path_gain(pos_v.distance(pos_w))
                        * channel.fade(pos_w, pos_v);
                    seen_w += ws[i];
                }
            });
            let all_seen = cells_seen == occupied;
            // Every unvisited sender is beyond `ring · cell` (ring
            // geometry), so its term is below `weight · gain(ring·cell)`
            // times the best realizable fade (per-link gain ranges: the
            // certificate widens, exact values never change).
            let far = if all_seen {
                0.0
            } else {
                let min_d = ring as f64 * cell;
                if min_d > 0.0 {
                    ((total_w - seen_w).max(0.0) + GUARD * total_w)
                        * self.params.path_gain(min_d)
                        * fade_hi
                } else {
                    f64::INFINITY
                }
            };
            if far.is_finite() {
                for i in 0..scratch.cand_states.len() {
                    if scratch.cand_states[i] != CandState::Undecided {
                        continue;
                    }
                    let s = scratch.cand_signals[i];
                    let base = acc - s;
                    let slack = GUARD * (acc + s);
                    let i_lo = (base - slack).max(0.0);
                    let i_hi = (base + slack + far).max(0.0);
                    if (s / (noise + i_lo)) * (1.0 + GUARD) < beta {
                        scratch.cand_states[i] = CandState::No;
                        undecided -= 1;
                    } else if (s / (noise + i_hi)) * (1.0 - GUARD) >= beta {
                        scratch.cand_states[i] = CandState::Yes;
                        undecided -= 1;
                    }
                }
            }
            if undecided == 0 || all_seen {
                break;
            }
            ring += 1;
        }
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
            // Threshold-grazing query: resolve it the naive way.
            scratch.stats.fallbacks += 1;
            let t0 = scratch.clock();
            let out = self.decode_exact(v);
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
            let out = self.decode_exact(v);
            FieldScratch::lap(t0, &mut scratch.times.fallback);
            out
        }
    }

    /// Certified decision `a_S(ℓ) ≤ threshold` for this field's sender
    /// set on `link`: `Some(decision)` when the near field plus the
    /// far-field bound settle it, `None` when the sum grazes the
    /// threshold (fall back to [`sum_on_exact`](Self::sum_on_exact)).
    ///
    /// A `Some` answer is bit-identical to comparing the naive
    /// [`AffectanceCalc::sum_on`] against `threshold`.
    ///
    /// # Errors
    ///
    /// Propagates the noise-floor error from the noise factor.
    pub fn sum_on_at_most(
        &self,
        link: Link,
        link_power: f64,
        threshold: f64,
    ) -> Result<Option<bool>> {
        let calc = AffectanceCalc::new(self.params, self.instance);
        if self.senders.len() <= SMALL_SLOT {
            return Ok(Some(
                calc.sum_on(&self.senders, link, link_power)? <= threshold,
            ));
        }
        let c = calc.noise_factor(link, link_power)?;
        let pos_v = self.instance.position(link.receiver);
        // Raw (unclipped) affectance of a sender at distance d is
        // `coeff · p · gain(d)`; clipping only lowers terms, so the raw
        // form upper-bounds the far field while enumerated terms use
        // the exact clipped expression. The interferer fades are unknown
        // until enumerated, so the certificate folds the fade ceiling
        // into the coefficient (widening only).
        let channel = self.params.channel();
        let d_uv = link.length(self.instance);
        let fade = channel.fade(self.instance.position(link.sender), pos_v);
        let coeff =
            c * d_uv.powf(self.params.alpha()) * channel.fade_bounds().1 / (link_power * fade);

        let total_w = self.grid.total_weight();
        let cell = self.grid.cell_size();
        let occupied = self.grid.occupied_cells();
        let mut acc = 0.0f64; // exact clipped terms of visited senders
        let mut seen_w = 0.0f64;
        let mut cells_seen = 0usize;
        let max_ring = self.grid.max_ring_from(pos_v);
        let mut ring = 0i64;
        while ring <= max_ring {
            cells_seen += self.grid.for_each_ring_cell(pos_v, ring, |cv| {
                let (ids, ws) = (cv.ids(), cv.ws());
                for i in 0..ws.len() {
                    if ids[i] != link.sender {
                        acc += calc.thresholded_term(c, ids[i], ws[i], link, link_power);
                    }
                    seen_w += ws[i];
                }
            });
            let all_seen = cells_seen == occupied;
            let far = if all_seen {
                0.0
            } else {
                let min_d = ring as f64 * cell;
                if min_d > 0.0 {
                    coeff
                        * ((total_w - seen_w).max(0.0) + GUARD * total_w)
                        * self.params.path_gain(min_d)
                } else {
                    f64::INFINITY
                }
            };
            if far.is_finite() {
                let slack = GUARD * (acc + threshold.abs() + 1.0);
                if acc - slack > threshold {
                    return Ok(Some(false)); // already over, far adds only more
                }
                if (acc + slack + far) <= threshold {
                    return Ok(Some(true));
                }
            }
            if all_seen {
                break;
            }
            ring += 1;
        }
        Ok(None)
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
        let fade_hi = channel.fade_bounds().1;

        let total_w = self.grid.total_weight();
        let cell = self.grid.cell_size();
        let occupied = self.grid.occupied_cells();
        let mut acc = 0.0f64; // exact interference terms of visited senders
        let mut seen_w = 0.0f64;
        let mut cells_seen = 0usize;
        let max_ring = self.grid.max_ring_from(pos_v);
        let mut ring = 0i64;
        while ring <= max_ring {
            cells_seen += self.grid.for_each_ring_cell(pos_v, ring, |cv| {
                let (ids, xs, ys, ws) = (cv.ids(), cv.xs(), cv.ys(), cv.ws());
                for i in 0..ws.len() {
                    if ids[i] != link.sender {
                        // An interferer co-located with the receiver
                        // drives `acc` to infinity; the certification
                        // below then never fires and the exact
                        // fallback reproduces the canonical 0-SINR.
                        let pos_w = Point::new(xs[i], ys[i]);
                        acc += ws[i]
                            * self.params.path_gain(pos_v.distance(pos_w))
                            * channel.fade(pos_w, pos_v);
                    }
                    seen_w += ws[i];
                }
            });
            let all_seen = cells_seen == occupied;
            let far = if all_seen {
                0.0
            } else {
                let min_d = ring as f64 * cell;
                if min_d > 0.0 {
                    ((total_w - seen_w).max(0.0) + GUARD * total_w)
                        * self.params.path_gain(min_d)
                        * fade_hi
                } else {
                    f64::INFINITY
                }
            };
            if far.is_finite() && acc.is_finite() {
                let slack = GUARD * (acc + signal);
                let i_lo = (acc - slack).max(0.0);
                let i_hi = (acc + slack + far).max(0.0);
                if (signal / (noise + i_lo)) * (1.0 + GUARD) < threshold {
                    return false; // certified: even the optimistic end fails
                }
                if (signal / (noise + i_hi)) * (1.0 - GUARD) >= threshold {
                    return true; // certified: even the pessimistic end passes
                }
            }
            if all_seen {
                break;
            }
            ring += 1;
        }
        // Threshold-grazing (or degenerate) query: resolve exactly, in
        // the canonical naive order.
        self.sinr_exact(link, link_power) >= threshold
    }

    /// The exact total affectance of this field's senders on `link`, in
    /// canonical order — bit-identical to [`AffectanceCalc::sum_on`].
    ///
    /// # Errors
    ///
    /// Propagates the noise-floor error.
    pub fn sum_on_exact(&self, link: Link, link_power: f64) -> Result<f64> {
        AffectanceCalc::new(self.params, self.instance).sum_on(&self.senders, link, link_power)
    }

    /// The exact SINR of `link` against this field's senders, in
    /// canonical order — bit-identical to [`AffectanceCalc::sinr`].
    pub fn sinr_exact(&self, link: Link, link_power: f64) -> f64 {
        AffectanceCalc::new(self.params, self.instance).sinr(link, link_power, &self.senders)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
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

    /// Zero noise disables the decode-radius cutoff; the field must
    /// fall back and stay exact.
    #[test]
    fn zero_noise_falls_back_exactly() {
        let params = SinrParams::new(3.0, 2.0, 0.0, 0.1).unwrap();
        let inst = gen::uniform_square(60, 1.5, 1).unwrap();
        let senders = random_senders(&inst, 0.3, 10.0, 5);
        let field = InterferenceField::build(&params, &inst, &senders);
        let tx: std::collections::HashSet<NodeId> = senders.iter().map(|&(u, _)| u).collect();
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
                field
                    .decode_best(v)
                    .map(|(u, p, s)| (u, p.to_bits(), s.to_bits())),
            );
        }
    }

    /// Incremental add/remove keeps the field equivalent to a fresh
    /// build over the same sender sequence.
    #[test]
    fn incremental_updates_match_rebuild() {
        let params = SinrParams::default();
        let inst = gen::uniform_square(120, 1.5, 7).unwrap();
        let power = params.min_power_for_length(2.0);
        let senders = random_senders(&inst, 0.15, power, 11);
        let mut field = InterferenceField::build(&params, &inst, &[]);
        for &(u, p) in &senders {
            field.add_sender(u, p);
        }
        // Drop the middle sender, as an incremental audit would.
        let dropped = senders[senders.len() / 2];
        assert!(field.remove_sender(dropped.0));
        let mut reduced = senders.clone();
        reduced.remove(senders.len() / 2);
        let fresh = InterferenceField::build(&params, &inst, &reduced);
        assert_eq!(field.senders(), fresh.senders());
        let tx: std::collections::HashSet<NodeId> = reduced.iter().map(|&(u, _)| u).collect();
        for v in 0..inst.len() {
            if tx.contains(&v) {
                continue;
            }
            assert_eq!(
                field
                    .decode_best(v)
                    .map(|(u, p, s)| (u, p.to_bits(), s.to_bits())),
                fresh
                    .decode_best(v)
                    .map(|(u, p, s)| (u, p.to_bits(), s.to_bits())),
                "listener {v}"
            );
        }
        assert!(
            !field.remove_sender(dropped.0)
                || senders.iter().filter(|s| s.0 == dropped.0).count() > 1
        );
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

    /// Certified affectance-threshold decisions agree with the exact
    /// sum whenever they claim certainty.
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
            for threshold in [0.25, 1.0, 4.0] {
                let exact = calc.sum_on(&senders, link, p).unwrap() <= threshold;
                if let Some(decision) = field.sum_on_at_most(link, p, threshold).unwrap() {
                    assert_eq!(decision, exact, "link {link:?} τ={threshold}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 20, "too few certified decisions: {checked}");
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
        assert_eq!(
            field.sum_on_exact(link, p).unwrap().to_bits(),
            calc.sum_on(&senders, link, p).unwrap().to_bits()
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
