//! Feasible-subset selectors for `TreeViaCapacity` (§8 of the paper).
//!
//! Each iteration of [`tvc::tree_via_capacity`](crate::tvc) builds a
//! fresh `Init` tree, restricts it to the `O(1)`-sparse degree-capped
//! subtree `T(M)` (Theorem 13) and asks a selector for a feasible subset
//! `T'`. Two selectors implement the paper's two power regimes:
//!
//! - [`MeanSamplingSelector`] (§8.1): sample each candidate with
//!   probability `1/(4γ₁Υ)` and keep the links whose data and
//!   acknowledgment both succeed under mean power — Theorem 16;
//! - [`DistrCapSelector`] (§8.2, `Distr-Cap`): probe length classes in
//!   ascending order with linear power in both directions against the
//!   already-selected set, admitting links whose measured affectance
//!   stays under `τ/4` (forward) and `γ₂τ/4` (dual); powers for the
//!   final slot come from Foschini–Miljanic — Theorems 20/21.
//!
//! Selection rounds are one-shot synchronous slot computations (fixed
//! roles), so they are resolved directly with the channel function of
//! `sinr-phy` — exactly what the full simulator would compute, without
//! protocol state.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::Rng;

use sinr_geom::{Instance, NodeId};
use sinr_links::{Link, LinkSet};
use sinr_phy::field::InterferenceField;
use sinr_phy::{upsilon, ChannelModel, PowerAssignment, SinrParams};

use crate::power_control::{make_feasible, PowerControlConfig};
use crate::{CoreError, Result};

/// The subset a selector chose, with the powers that make it feasible
/// as one schedule slot, and the distributed time it spent choosing.
#[derive(Clone, Debug)]
pub struct SelectorOutcome {
    /// The selected feasible links `T'`.
    pub chosen: LinkSet,
    /// Per-link powers under which `chosen` is feasible — **both
    /// directions**: an entry for every chosen link and for its dual
    /// (the bi-tree schedules the duals too, Definition 1).
    pub powers: HashMap<Link, f64>,
    /// Slots consumed by the selection protocol.
    pub slots_used: u64,
}

/// A strategy for picking a feasible `T' ⊆ T(M)` (step 4 of
/// Algorithm 1).
pub trait SubsetSelector: std::fmt::Debug {
    /// Selects a feasible subset of `candidates` (aggregation links
    /// between currently-active nodes) under the channel `model`.
    /// [`tree_via_capacity`](crate::tvc::tree_via_capacity) passes
    /// `params.channel()`; the in-tree selectors run on
    /// `params.with_channel(model)`.
    ///
    /// # Errors
    ///
    /// Implementations report configuration and physical-layer errors;
    /// an empty selection is *not* an error (the caller retries).
    fn select(
        &mut self,
        params: &SinrParams,
        instance: &Instance,
        model: ChannelModel,
        candidates: &LinkSet,
        rng: &mut StdRng,
    ) -> Result<SelectorOutcome>;

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Resolves one synchronous slot: which of `probes` succeed given all
/// `transmitters`, judged by measured affectance against `threshold`.
///
/// A probe fails if its receiver is itself transmitting (half-duplex) or
/// its measured affectance exceeds `threshold`.
///
/// The affectance-threshold decisions go through the spatially-indexed
/// [`InterferenceField`] (DESIGN.md §7): certified answers short-cut
/// the all-transmitters sum; threshold-grazing probes fall back to the
/// exact naive-order sum inside the field, so decisions are
/// bit-identical to summing directly.
///
/// `pub(crate)`: the distributed re-packer ([`crate::dist_repack`])
/// runs its claim rounds through this same resolver, so its probes are
/// the selectors' probes — one machinery, one trace event stream.
pub(crate) fn resolve_probe_slot(
    params: &SinrParams,
    instance: &Instance,
    transmitters: &[(NodeId, f64)],
    probes: &[(Link, f64)],
    threshold: f64,
) -> Vec<Link> {
    let tx_nodes: HashSet<NodeId> = transmitters.iter().map(|&(u, _)| u).collect();
    let field = InterferenceField::build(params, instance, transmitters);
    let mut ok = Vec::new();
    for &(link, power) in probes {
        if tx_nodes.contains(&link.receiver) {
            // Half-duplex rejection: a transmitting receiver hears
            // nothing, so the probe fails before any affectance math.
            #[cfg(feature = "trace")]
            sinr_sim::trace::emit(sinr_sim::trace::TraceEvent::Probe {
                sender: link.sender,
                receiver: link.receiver,
                admitted: false,
            });
            continue;
        }
        let admitted = matches!(field.sum_on_at_most(link, power, threshold), Ok(true));
        #[cfg(feature = "trace")]
        sinr_sim::trace::emit(sinr_sim::trace::TraceEvent::Probe {
            sender: link.sender,
            receiver: link.receiver,
            admitted,
        });
        if admitted {
            ok.push(link);
        }
    }
    ok
}

// ------------------------------------------------------------------
// Mean-power sampling selector (§8.1).
// ------------------------------------------------------------------

/// Configuration of the mean-power sampling selector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeanSamplingConfig {
    /// The constant `γ₁` in the sampling probability `1/(4γ₁Υ)`.
    pub gamma1: f64,
    /// Lower clamp on the sampling probability (tiny instances).
    pub min_prob: f64,
}

impl Default for MeanSamplingConfig {
    fn default() -> Self {
        MeanSamplingConfig {
            gamma1: 0.25,
            min_prob: 0.02,
        }
    }
}

/// §8.1: sample candidates with probability `Θ(1/Υ)` and keep the links
/// whose transmission *and* acknowledgment succeed under mean power.
#[derive(Clone, Debug, Default)]
pub struct MeanSamplingSelector {
    /// Tuning knobs.
    pub config: MeanSamplingConfig,
}

impl MeanSamplingSelector {
    /// Creates a selector with the given knobs.
    pub fn new(config: MeanSamplingConfig) -> Self {
        MeanSamplingSelector { config }
    }
}

impl SubsetSelector for MeanSamplingSelector {
    fn select(
        &mut self,
        params: &SinrParams,
        instance: &Instance,
        model: ChannelModel,
        candidates: &LinkSet,
        rng: &mut StdRng,
    ) -> Result<SelectorOutcome> {
        let params = &params.with_channel(model);
        if !(self.config.gamma1 > 0.0 && self.config.gamma1.is_finite()) {
            return Err(CoreError::InvalidConfig {
                name: "gamma1",
                reason: "sampling constant must be positive and finite",
            });
        }
        if candidates.is_empty() {
            return Ok(SelectorOutcome {
                chosen: LinkSet::new(),
                powers: HashMap::new(),
                slots_used: 0,
            });
        }
        let ups = upsilon(instance.len(), instance.delta());
        let q = (1.0 / (4.0 * self.config.gamma1 * ups)).clamp(self.config.min_prob.min(1.0), 1.0);

        let power = PowerAssignment::mean_with_margin(params, instance.delta());

        // Data slot: sampled senders transmit under mean power.
        let sampled: Vec<Link> = candidates.iter().filter(|_| rng.gen_bool(q)).collect();
        let data_probes: Vec<(Link, f64)> = sampled
            .iter()
            .map(|&l| Ok((l, power.power_of(l, instance, params)?)))
            .collect::<Result<_>>()?;
        let tx_a: Vec<(NodeId, f64)> = data_probes.iter().map(|&(l, p)| (l.sender, p)).collect();
        // Success = decodable, i.e. affectance ≤ 1 (§5 equivalence).
        let q_tilde = resolve_probe_slot(params, instance, &tx_a, &data_probes, 1.0);

        // Ack slot: receivers of the successful links answer over duals.
        let ack_probes: Vec<(Link, f64)> = q_tilde
            .iter()
            .map(|&l| Ok((l.dual(), power.power_of(l.dual(), instance, params)?)))
            .collect::<Result<_>>()?;
        let tx_b: Vec<(NodeId, f64)> = ack_probes.iter().map(|&(l, p)| (l.sender, p)).collect();
        let acked_duals = resolve_probe_slot(params, instance, &tx_b, &ack_probes, 1.0);

        let chosen: LinkSet = acked_duals.iter().map(|d| d.dual()).collect();
        // Both directions succeeded simultaneously under mean power (data
        // slot and ack slot), so mean powers are feasible both ways.
        let mut powers = HashMap::new();
        for l in chosen.iter() {
            powers.insert(l, power.power_of(l, instance, params)?);
            powers.insert(l.dual(), power.power_of(l.dual(), instance, params)?);
        }
        Ok(SelectorOutcome {
            chosen,
            powers,
            slots_used: 2,
        })
    }

    fn name(&self) -> &'static str {
        "mean-sampling"
    }
}

// ------------------------------------------------------------------
// Distr-Cap selector (§8.2).
// ------------------------------------------------------------------

/// Configuration of `Distr-Cap`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistrCapConfig {
    /// The admission threshold `τ` of Eqn 3 (per-slot checks use `τ/4`).
    pub tau: f64,
    /// The dual-direction constant `γ₂ < 1` (Claim 8.3).
    pub gamma2: f64,
    /// Per-phase sampling probability `p`.
    pub p_sel: f64,
    /// Slot-pair repetitions per length class. The paper's analysis
    /// absorbs the admission rate into its constants; repeating the
    /// probe slot-pair (re-sampling only still-unselected candidates)
    /// realizes the same constant-fraction selection with practical
    /// `p`, at `2·class_repeats` slots per class. Admission invariants
    /// are unchanged: every probe is checked against the accumulated
    /// `T'` in both directions.
    pub class_repeats: u32,
    /// Power-control knobs for the final per-slot powers.
    pub power_control: PowerControlConfig,
}

impl Default for DistrCapConfig {
    fn default() -> Self {
        DistrCapConfig {
            tau: 0.8,
            gamma2: 0.7,
            p_sel: 0.45,
            class_repeats: 10,
            power_control: PowerControlConfig::default(),
        }
    }
}

/// §8.2: ascending-length-class probing with linear power in both
/// directions; admitted links are made feasible by power control.
#[derive(Clone, Debug, Default)]
pub struct DistrCapSelector {
    /// Tuning knobs.
    pub config: DistrCapConfig,
    /// Links dropped by the power-control fallback across all calls
    /// (zero in the healthy path; tracked for experiment E6).
    pub total_dropped: usize,
}

impl DistrCapSelector {
    /// Creates a selector with the given knobs.
    pub fn new(config: DistrCapConfig) -> Self {
        DistrCapSelector {
            config,
            total_dropped: 0,
        }
    }
}

impl SubsetSelector for DistrCapSelector {
    fn select(
        &mut self,
        params: &SinrParams,
        instance: &Instance,
        model: ChannelModel,
        candidates: &LinkSet,
        rng: &mut StdRng,
    ) -> Result<SelectorOutcome> {
        let params = &params.with_channel(model);
        let cfg = self.config;
        if !(cfg.tau > 0.0 && cfg.tau <= 1.0) {
            return Err(CoreError::InvalidConfig {
                name: "tau",
                reason: "admission threshold must lie in (0, 1]",
            });
        }
        if !(cfg.gamma2 > 0.0 && cfg.gamma2 < 1.0) {
            return Err(CoreError::InvalidConfig {
                name: "gamma2",
                reason: "dual constant must lie in (0, 1)",
            });
        }
        if !(cfg.p_sel > 0.0 && cfg.p_sel <= 1.0) {
            return Err(CoreError::InvalidConfig {
                name: "p_sel",
                reason: "sampling probability must lie in (0, 1]",
            });
        }
        if candidates.is_empty() {
            return Ok(SelectorOutcome {
                chosen: LinkSet::new(),
                powers: HashMap::new(),
                slots_used: 0,
            });
        }

        let linear = PowerAssignment::linear_with_margin(params);
        let lin_power = |l: Link| linear.power_of(l, instance, params);

        let mut selected = LinkSet::new();
        let mut used_nodes: HashSet<NodeId> = HashSet::new();
        let mut slots: u64 = 0;

        // Phases: ascending length classes, as produced by Init rounds.
        for (_class, q_set) in candidates.length_classes(instance) {
            let mut remaining: Vec<Link> = q_set.links().to_vec();
            for _rep in 0..cfg.class_repeats.max(1) {
                // Links touching a selected node can never be admitted
                // (the two-direction probes reject them deterministically
                // — see Lemmas 17/18); skip their probes.
                remaining.retain(|l| {
                    !used_nodes.contains(&l.sender) && !used_nodes.contains(&l.receiver)
                });
                if remaining.is_empty() {
                    break;
                }
                slots += 2;

                // Slot A: T' and sampled class members transmit with
                // linear power; probes succeed at affectance ≤ τ/4.
                let sampled: Vec<Link> = remaining
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_bool(cfg.p_sel))
                    .collect();
                if sampled.is_empty() {
                    continue;
                }
                let mut tx_a: Vec<(NodeId, f64)> = Vec::new();
                for l in selected.iter() {
                    tx_a.push((l.sender, lin_power(l)?));
                }
                let probes_a: Vec<(Link, f64)> = sampled
                    .iter()
                    .map(|&l| Ok((l, lin_power(l)?)))
                    .collect::<Result<_>>()?;
                tx_a.extend(probes_a.iter().map(|&(l, p)| (l.sender, p)));
                let q_tilde = resolve_probe_slot(params, instance, &tx_a, &probes_a, cfg.tau / 4.0);

                // Slot B: duals of T' and (sub-sampled) duals of Q̃, at
                // the tightened threshold γ₂τ/4.
                let resampled: Vec<Link> = q_tilde
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_bool(cfg.gamma2 * cfg.p_sel))
                    .collect();
                if resampled.is_empty() {
                    continue;
                }
                let mut tx_b: Vec<(NodeId, f64)> = Vec::new();
                for l in selected.iter() {
                    tx_b.push((l.dual().sender, lin_power(l.dual())?));
                }
                let probes_b: Vec<(Link, f64)> = resampled
                    .iter()
                    .map(|&l| Ok((l.dual(), lin_power(l.dual())?)))
                    .collect::<Result<_>>()?;
                tx_b.extend(probes_b.iter().map(|&(l, p)| (l.sender, p)));
                let ok_duals = resolve_probe_slot(
                    params,
                    instance,
                    &tx_b,
                    &probes_b,
                    cfg.gamma2 * cfg.tau / 4.0,
                );

                for d in ok_duals {
                    let l = d.dual();
                    if selected.insert(l) {
                        used_nodes.insert(l.sender);
                        used_nodes.insert(l.receiver);
                    }
                }
            }
        }

        // Final powers: the selected set admits a feasible assignment by
        // the Eqn-3 invariant (forward direction: Lemma 17; dual
        // direction: Lemma 18), so Foschini–Miljanic converges on both.
        // The dropping fallback never fires with the default thresholds
        // (tracked in `total_dropped`).
        let fm_fwd = make_feasible(params, instance, &selected, &cfg.power_control);
        self.total_dropped += fm_fwd.dropped.len();
        let mut chosen = fm_fwd.links;
        let fm_dual = make_feasible(params, instance, &chosen.dual(), &cfg.power_control);
        self.total_dropped += fm_dual.dropped.len();
        if !fm_dual.dropped.is_empty() {
            // A link whose dual cannot be powered leaves the selection;
            // the surviving forward subset stays feasible (monotone).
            let dual_ok: std::collections::HashSet<Link> = fm_dual.links.iter().collect();
            chosen.retain(|l| dual_ok.contains(&l.dual()));
        }
        let mut powers = HashMap::new();
        for l in chosen.iter() {
            powers.insert(l, fm_fwd.powers[&l]);
            powers.insert(l.dual(), fm_dual.powers[&l.dual()]);
        }
        Ok(SelectorOutcome {
            chosen,
            powers,
            slots_used: slots + fm_fwd.eta_slots + fm_dual.eta_slots,
        })
    }

    fn name(&self) -> &'static str {
        "distr-cap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sinr_geom::gen;
    use sinr_phy::feasibility;

    fn params() -> SinrParams {
        SinrParams::default()
    }

    /// MST aggregation links: a realistic sparse candidate set.
    fn mst_links(inst: &Instance) -> LinkSet {
        sinr_geom::mst::mst_parent_array(inst, 0)
            .iter()
            .enumerate()
            .filter_map(|(u, p)| p.map(|v| Link::new(u, v)))
            .collect()
    }

    /// The selectors' probe slots run on the interference field on
    /// *both* engine backends, so the end-to-end naive/grid parity gate
    /// cannot see a certification regression here. This test is that
    /// guard: the field-based probe resolution must match the all-pairs
    /// reference (`AffectanceCalc::sum_on` against the threshold)
    /// probe-for-probe on realistic slots.
    #[test]
    fn probe_slot_matches_all_pairs_reference() {
        use sinr_phy::affectance::AffectanceCalc;
        let p = params();
        let mut checked = 0;
        for seed in 0..5u64 {
            let inst = gen::uniform_square(70, 1.5, seed).unwrap();
            let candidates = mst_links(&inst);
            let power = PowerAssignment::mean_with_margin(&p, inst.delta());
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5e1ec7);
            let probes: Vec<(Link, f64)> = candidates
                .iter()
                .filter(|_| rng.gen_bool(0.5))
                .map(|l| (l, power.power_of(l, &inst, &p).unwrap()))
                .collect();
            let tx: Vec<(NodeId, f64)> = probes.iter().map(|&(l, pw)| (l.sender, pw)).collect();
            let calc = AffectanceCalc::new(&p, &inst);
            let tx_nodes: HashSet<NodeId> = tx.iter().map(|&(u, _)| u).collect();
            for threshold in [0.2, 1.0] {
                let fast = resolve_probe_slot(&p, &inst, &tx, &probes, threshold);
                let mut reference = Vec::new();
                for &(link, pw) in &probes {
                    if tx_nodes.contains(&link.receiver) {
                        continue;
                    }
                    if let Ok(aff) = calc.sum_on(&tx, link, pw) {
                        if aff <= threshold {
                            reference.push(link);
                        }
                    }
                }
                assert_eq!(fast, reference, "seed {seed} τ={threshold}");
                checked += reference.len();
            }
        }
        assert!(checked > 10, "reference admitted too little: {checked}");
    }

    #[test]
    fn mean_selector_yields_feasible_subset() {
        let p = params();
        let inst = gen::uniform_square(60, 1.5, 3).unwrap();
        let candidates = mst_links(&inst);
        let mut sel = MeanSamplingSelector::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut total = 0;
        for round in 0..20 {
            let out = sel
                .select(&p, &inst, ChannelModel::Geometric, &candidates, &mut rng)
                .unwrap();
            total += out.chosen.len();
            if !out.chosen.is_empty() {
                let pa = PowerAssignment::explicit(out.powers).unwrap();
                assert!(
                    feasibility::is_feasible(&p, &inst, &out.chosen, &pa),
                    "round {round} chose an infeasible set"
                );
            }
            assert_eq!(out.slots_used, 2);
        }
        assert!(total > 0, "20 sampling rounds should select something");
    }

    #[test]
    fn mean_selector_empty_candidates() {
        let p = params();
        let inst = gen::line(4).unwrap();
        let mut sel = MeanSamplingSelector::default();
        let mut rng = StdRng::seed_from_u64(0);
        let out = sel
            .select(
                &p,
                &inst,
                ChannelModel::Geometric,
                &LinkSet::new(),
                &mut rng,
            )
            .unwrap();
        assert!(out.chosen.is_empty());
        assert_eq!(out.slots_used, 0);
    }

    #[test]
    fn distr_cap_yields_feasible_subset() {
        let p = params();
        let inst = gen::uniform_square(60, 1.5, 5).unwrap();
        let candidates = mst_links(&inst);
        let mut sel = DistrCapSelector::default();
        let mut rng = StdRng::seed_from_u64(2);
        let mut total = 0;
        for round in 0..10 {
            let out = sel
                .select(&p, &inst, ChannelModel::Geometric, &candidates, &mut rng)
                .unwrap();
            total += out.chosen.len();
            if !out.chosen.is_empty() {
                let pa = PowerAssignment::explicit(out.powers.clone()).unwrap();
                assert!(
                    feasibility::is_feasible(&p, &inst, &out.chosen, &pa),
                    "round {round} chose an infeasible set"
                );
            }
        }
        assert!(total > 0, "10 Distr-Cap rounds should select something");
    }

    #[test]
    fn distr_cap_never_admits_conflicting_nodes() {
        let p = params();
        let inst = gen::uniform_square(80, 1.2, 9).unwrap();
        let candidates = mst_links(&inst);
        let mut sel = DistrCapSelector::default();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let out = sel
                .select(&p, &inst, ChannelModel::Geometric, &candidates, &mut rng)
                .unwrap();
            let mut nodes = std::collections::HashSet::new();
            for l in out.chosen.iter() {
                assert!(nodes.insert(l.sender), "sender reused: {l:?}");
                assert!(nodes.insert(l.receiver), "receiver reused: {l:?}");
            }
        }
    }

    #[test]
    fn selectors_validate_config() {
        let p = params();
        let inst = gen::line(4).unwrap();
        let candidates = mst_links(&inst);
        let mut rng = StdRng::seed_from_u64(0);

        let mut bad_mean = MeanSamplingSelector::new(MeanSamplingConfig {
            gamma1: 0.0,
            min_prob: 0.01,
        });
        assert!(bad_mean
            .select(&p, &inst, ChannelModel::Geometric, &candidates, &mut rng)
            .is_err());

        for cfg in [
            DistrCapConfig {
                tau: 0.0,
                ..Default::default()
            },
            DistrCapConfig {
                gamma2: 1.0,
                ..Default::default()
            },
            DistrCapConfig {
                p_sel: 0.0,
                ..Default::default()
            },
        ] {
            let mut bad = DistrCapSelector::new(cfg);
            assert!(bad
                .select(&p, &inst, ChannelModel::Geometric, &candidates, &mut rng)
                .is_err());
        }
    }

    #[test]
    fn selector_names() {
        assert_eq!(MeanSamplingSelector::default().name(), "mean-sampling");
        assert_eq!(DistrCapSelector::default().name(), "distr-cap");
    }
}
