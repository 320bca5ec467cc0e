//! Iterative power control for feasible link sets (§8.2.3).
//!
//! Once `Distr-Cap` has selected a link set that *admits* a feasible
//! power assignment, the paper invokes a distributed power-control
//! algorithm as a black box (Lotker et al. \[17\], Dams et al. \[2\]) with
//! runtime `η`. We implement the classical **Foschini–Miljanic**
//! iteration that underlies that literature:
//!
//! ```text
//! P_{k+1}(ℓ) = margin · β · d_ℓ^α · (N + I_ℓ(P_k))
//! ```
//!
//! where `I_ℓ` is the interference measured at ℓ's receiver. Each
//! update is locally computable: the receiver measures `N + I` and
//! reports the new target to its sender over the dual link, costing two
//! slots per iteration — the measured `η` reported by experiment E6.
//! The iteration converges geometrically exactly when the set is
//! feasible (spectral radius of the normalized gain matrix < 1) and
//! diverges otherwise, which [`foschini_miljanic`] detects.

use std::collections::HashMap;

use sinr_geom::{Instance, NodeId};
use sinr_links::{Link, LinkSet};
use sinr_phy::{feasibility, PowerAssignment, SinrParams};

use crate::{CoreError, Result};

/// Tuning knobs for the Foschini–Miljanic iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerControlConfig {
    /// Multiplicative SINR slack over `β` (> 1 keeps the fixed point
    /// strictly feasible under floating-point error).
    pub margin: f64,
    /// Iteration budget.
    pub max_iters: u32,
    /// Relative-change convergence tolerance.
    pub tol: f64,
    /// Declare divergence when any power exceeds this multiple of its
    /// noise-only starting value.
    pub divergence_factor: f64,
}

impl Default for PowerControlConfig {
    fn default() -> Self {
        PowerControlConfig {
            margin: 1.05,
            max_iters: 10_000,
            tol: 1e-9,
            divergence_factor: 1e12,
        }
    }
}

/// Result of a power-control run.
#[derive(Clone, Debug)]
pub struct PowerControlOutcome {
    /// The converged per-link powers.
    pub powers: HashMap<Link, f64>,
    /// Iterations executed.
    pub iters: u32,
    /// Protocol slots charged: two per iteration (measure + report).
    pub eta_slots: u64,
}

/// Runs the Foschini–Miljanic iteration on `links`. The gain matrix the
/// iteration relaxes against carries the channel's per-link fades, so
/// the fixed point is feasible under the channel `params` carries.
///
/// # Errors
///
/// - [`CoreError::InvalidConfig`] for bad knobs;
/// - [`CoreError::ConvergenceFailure`] when the iteration diverges or
///   exhausts its budget — the canonical signal that `links` is not
///   simultaneously feasible under any power assignment (for this β
///   and margin).
pub fn foschini_miljanic(
    params: &SinrParams,
    instance: &Instance,
    links: &LinkSet,
    cfg: &PowerControlConfig,
) -> Result<PowerControlOutcome> {
    if !(cfg.margin >= 1.0 && cfg.margin.is_finite()) {
        return Err(CoreError::InvalidConfig {
            name: "margin",
            reason: "SINR margin must be ≥ 1 and finite",
        });
    }
    if cfg.max_iters == 0 {
        return Err(CoreError::InvalidConfig {
            name: "max_iters",
            reason: "iteration budget must be positive",
        });
    }
    let v = links.links().to_vec();
    if v.is_empty() {
        return Ok(PowerControlOutcome {
            powers: HashMap::new(),
            iters: 0,
            eta_slots: 0,
        });
    }

    let target = cfg.margin * params.beta();
    let alpha = params.alpha();
    let noise = params.noise();
    let channel = params.channel();
    let pos = |u: NodeId| instance.position(u);

    // Structural prerequisites for simultaneous feasibility with β ≥ 1:
    // distinct senders, distinct receivers, no node in both roles.
    let senders: std::collections::BTreeSet<_> = v.iter().map(|l| l.sender).collect();
    let receivers: std::collections::BTreeSet<_> = v.iter().map(|l| l.receiver).collect();
    if senders.len() != v.len()
        || receivers.len() != v.len()
        || senders.intersection(&receivers).next().is_some()
    {
        return Err(CoreError::ConvergenceFailure {
            phase: "power control",
            detail: "link set shares nodes across roles; no power assignment can fix a \
                     half-duplex or shared-endpoint conflict"
                .into(),
        });
    }

    // Start from noise-only powers (the isolated-link fixed point).
    let start: Vec<f64> = v
        .iter()
        .map(|l| target * noise * l.length(instance).powf(alpha) + f64::MIN_POSITIVE)
        .collect();
    let mut powers = start.clone();

    // Precompute cross gains g[i][j] = gain(sender_j → receiver_i),
    // each `d^{-α}` times the pair's fade.
    let n = v.len();
    let mut gain = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let d = instance.distance(v[j].sender, v[i].receiver);
                gain[i][j] = d.powf(-alpha) * channel.fade(pos(v[j].sender), pos(v[i].receiver));
            }
        }
    }
    let self_gain: Vec<f64> = v
        .iter()
        .map(|l| l.length(instance).powf(-alpha) * channel.fade(pos(l.sender), pos(l.receiver)))
        .collect();

    let mut iters = 0;
    loop {
        iters += 1;
        let mut next = vec![0.0f64; n];
        let mut max_rel_change = 0.0f64;
        for i in 0..n {
            let interference: f64 = (0..n).map(|j| powers[j] * gain[i][j]).sum();
            next[i] = target * (noise + interference) / self_gain[i];
            let rel = (next[i] - powers[i]).abs() / powers[i].max(f64::MIN_POSITIVE);
            max_rel_change = max_rel_change.max(rel);
            if next[i] > cfg.divergence_factor * start[i] {
                return Err(CoreError::ConvergenceFailure {
                    phase: "power control",
                    detail: format!(
                        "power of {:?} diverged after {iters} iterations (infeasible set)",
                        v[i]
                    ),
                });
            }
        }
        powers = next;
        if max_rel_change < cfg.tol {
            break;
        }
        if iters >= cfg.max_iters {
            return Err(CoreError::ConvergenceFailure {
                phase: "power control",
                detail: format!("no convergence within {} iterations", cfg.max_iters),
            });
        }
    }

    let map: HashMap<Link, f64> = v.into_iter().zip(powers).collect();
    Ok(PowerControlOutcome {
        powers: map,
        iters,
        eta_slots: 2 * u64::from(iters),
    })
}

/// Finds powers making `links` feasible, dropping links when necessary.
///
/// Runs [`foschini_miljanic`]; on failure removes the longest remaining
/// link (the largest interference footprint under any reasonable power)
/// and retries. Returns the surviving feasible subset, its powers and
/// the total slots charged. This is the robustness fallback documented
/// in DESIGN.md — with the paper's selection thresholds the first
/// attempt succeeds, which experiment E6 tracks via
/// [`MakeFeasibleOutcome::dropped`].
pub fn make_feasible(
    params: &SinrParams,
    instance: &Instance,
    links: &LinkSet,
    cfg: &PowerControlConfig,
) -> MakeFeasibleOutcome {
    let mut current = links.clone();
    let mut dropped = Vec::new();
    let mut eta_total = 0u64;
    loop {
        if let Ok(out) = foschini_miljanic(params, instance, &current, cfg) {
            eta_total += out.eta_slots;
            // Defensive re-validation through the public checker.
            let pa = PowerAssignment::explicit(out.powers.clone()).expect("FM powers are positive");
            if feasibility::is_feasible(params, instance, &current, &pa) {
                return MakeFeasibleOutcome {
                    links: current,
                    powers: out.powers,
                    dropped,
                    eta_slots: eta_total,
                };
            }
        }
        eta_total += 2 * u64::from(cfg.max_iters.min(64));
        // Drop the longest link and retry.
        let longest = current
            .iter()
            .max_by(|a, b| {
                a.length(instance)
                    .partial_cmp(&b.length(instance))
                    .expect("finite lengths")
            })
            .expect("non-empty set failed feasibility");
        dropped.push(longest);
        current.retain(|l| l != longest);
        if current.is_empty() {
            return MakeFeasibleOutcome {
                links: current,
                powers: HashMap::new(),
                dropped,
                eta_slots: eta_total,
            };
        }
    }
}

/// Result of [`make_feasible`].
#[derive(Clone, Debug)]
pub struct MakeFeasibleOutcome {
    /// The surviving feasible links.
    pub links: LinkSet,
    /// Their powers.
    pub powers: HashMap<Link, f64>,
    /// Links dropped to reach feasibility (empty in the healthy path).
    pub dropped: Vec<Link>,
    /// Total power-control slots charged.
    pub eta_slots: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geom::{gen, Point};

    fn params() -> SinrParams {
        SinrParams::default()
    }

    #[test]
    fn empty_set_is_trivial() {
        let p = params();
        let inst = gen::line(2).unwrap();
        let out = foschini_miljanic(&p, &inst, &LinkSet::new(), &Default::default()).unwrap();
        assert_eq!(out.iters, 0);
        assert!(out.powers.is_empty());
    }

    #[test]
    fn single_link_converges_to_noise_power() {
        let p = params();
        let inst = gen::line(2).unwrap();
        let links = LinkSet::from_links(vec![Link::new(0, 1)]).unwrap();
        let cfg = PowerControlConfig::default();
        let out = foschini_miljanic(&p, &inst, &links, &cfg).unwrap();
        let pw = out.powers[&Link::new(0, 1)];
        let expected = cfg.margin * p.beta() * p.noise(); // d = 1
        assert!((pw - expected).abs() / expected < 1e-6);
    }

    #[test]
    fn well_separated_links_converge_and_validate() {
        let p = params();
        let inst = sinr_geom::Instance::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(51.5, 0.0),
            Point::new(100.0, 40.0),
            Point::new(102.0, 40.0),
        ])
        .unwrap();
        let links =
            LinkSet::from_links(vec![Link::new(0, 1), Link::new(2, 3), Link::new(4, 5)]).unwrap();
        let out = foschini_miljanic(&p, &inst, &links, &Default::default()).unwrap();
        let pa = PowerAssignment::explicit(out.powers).unwrap();
        assert!(feasibility::is_feasible(&p, &inst, &links, &pa));
        assert!(out.eta_slots >= 2);
    }

    #[test]
    fn shared_receiver_is_rejected_structurally() {
        let p = params();
        let inst = gen::line(3).unwrap();
        let links = LinkSet::from_links(vec![Link::new(0, 1), Link::new(2, 1)]).unwrap();
        let e = foschini_miljanic(&p, &inst, &links, &Default::default());
        assert!(matches!(e, Err(CoreError::ConvergenceFailure { .. })));
    }

    #[test]
    fn half_duplex_chain_is_rejected() {
        let p = params();
        let inst = gen::line(3).unwrap();
        let links = LinkSet::from_links(vec![Link::new(0, 1), Link::new(1, 2)]).unwrap();
        assert!(foschini_miljanic(&p, &inst, &links, &Default::default()).is_err());
    }

    #[test]
    fn dense_parallel_links_diverge() {
        // Many unit links crammed in a tiny area cannot all meet β = 2.
        let p = params();
        let mut pts = Vec::new();
        for i in 0..6 {
            pts.push(Point::new(i as f64 * 1.1, 0.0));
            pts.push(Point::new(i as f64 * 1.1, 1.0));
        }
        let inst = sinr_geom::Instance::new(pts).unwrap();
        let links: LinkSet = (0..6).map(|i| Link::new(2 * i, 2 * i + 1)).collect();
        let e = foschini_miljanic(&p, &inst, &links, &Default::default());
        assert!(e.is_err(), "crowded parallel links must be infeasible");
    }

    #[test]
    fn make_feasible_drops_until_success() {
        let p = params();
        let mut pts = Vec::new();
        for i in 0..6 {
            pts.push(Point::new(i as f64 * 1.1, 0.0));
            pts.push(Point::new(i as f64 * 1.1, 1.0));
        }
        let inst = sinr_geom::Instance::new(pts).unwrap();
        let links: LinkSet = (0..6).map(|i| Link::new(2 * i, 2 * i + 1)).collect();
        let out = make_feasible(&p, &inst, &links, &Default::default());
        assert!(!out.links.is_empty());
        assert!(!out.dropped.is_empty());
        let pa = PowerAssignment::explicit(out.powers).unwrap();
        assert!(feasibility::is_feasible(&p, &inst, &out.links, &pa));
    }

    #[test]
    fn invalid_config_rejected() {
        let p = params();
        let inst = gen::line(2).unwrap();
        let links = LinkSet::from_links(vec![Link::new(0, 1)]).unwrap();
        let bad = PowerControlConfig {
            margin: 0.5,
            ..Default::default()
        };
        assert!(matches!(
            foschini_miljanic(&p, &inst, &links, &bad),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn converged_powers_meet_margin() {
        let p = params();
        let inst = sinr_geom::Instance::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(30.0, 0.0),
            Point::new(31.0, 0.0),
        ])
        .unwrap();
        let links = LinkSet::from_links(vec![Link::new(0, 1), Link::new(2, 3)]).unwrap();
        let cfg = PowerControlConfig {
            margin: 1.2,
            ..Default::default()
        };
        let out = foschini_miljanic(&p, &inst, &links, &cfg).unwrap();
        let pa = PowerAssignment::explicit(out.powers).unwrap();
        let report = feasibility::check(&p, &inst, &links, &pa);
        // The fixed point hits margin·β exactly.
        assert!(report.min_sinr.unwrap() >= 1.2 * p.beta() * (1.0 - 1e-6));
    }
}
