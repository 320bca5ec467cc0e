//! Wireless-network instances: immutable point sets with the paper's
//! normalization and derived quantities.

use crate::extremes::{extreme_distances, Extremes};
use crate::{Aabb, GeomError, Point, Result};

/// Identifier of a node: its index into the instance's point list.
///
/// The paper gives every node a globally unique ID; we use the instance
/// index, which doubles as an array offset everywhere in the workspace.
pub type NodeId = usize;

/// An immutable set of wireless node positions.
///
/// The PODC 2012 model assumes, w.l.o.g., that the minimum pairwise
/// distance is 1 and calls the maximum pairwise distance `Δ`. An
/// `Instance` stores the points together with the derived quantities
/// ([`min_distance`](Instance::min_distance), [`delta`](Instance::delta),
/// [`num_length_classes`](Instance::num_length_classes)) computed once at
/// construction.
///
/// # Example
///
/// ```
/// use sinr_geom::{Instance, Point};
///
/// let inst = Instance::normalized(vec![
///     Point::new(0.0, 0.0),
///     Point::new(0.5, 0.0),
///     Point::new(0.0, 3.0),
/// ])?;
/// assert!((inst.min_distance() - 1.0).abs() < 1e-9);
/// // Scaling by 2 turned the 3.0 gap into ~6.08 (hypotenuse grows too).
/// assert!(inst.delta() > 6.0);
/// # Ok::<(), sinr_geom::GeomError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
// Serde support lives in `crate::serde_impls` (feature `serde`), via
// the `Vec<Point>` conversions below: deserialization re-validates the
// normalization invariants.
pub struct Instance {
    points: Vec<Point>,
    min_distance: f64,
    delta: f64,
}

impl From<Instance> for Vec<Point> {
    /// Extracts the node positions.
    fn from(inst: Instance) -> Self {
        inst.points
    }
}

impl TryFrom<Vec<Point>> for Instance {
    type Error = GeomError;

    /// Validating conversion ([`Instance::new`]): deserialized
    /// instances re-derive `min_distance`/`Δ` instead of trusting the
    /// wire, so the cached extremes can never be forged.
    fn try_from(points: Vec<Point>) -> Result<Self> {
        Instance::new(points)
    }
}

impl Instance {
    /// Creates an instance from raw points without rescaling.
    ///
    /// # Errors
    ///
    /// - [`GeomError::EmptyInstance`] if `points` is empty;
    /// - [`GeomError::NonFinitePoint`] if any coordinate is NaN/infinite;
    /// - [`GeomError::CoincidentPoints`] if two points coincide (the
    ///   paper's model requires a positive minimum distance).
    pub fn new(points: Vec<Point>) -> Result<Self> {
        if points.is_empty() {
            return Err(GeomError::EmptyInstance);
        }
        for (i, p) in points.iter().enumerate() {
            if !p.is_finite() {
                return Err(GeomError::NonFinitePoint { index: i });
            }
        }
        // Size-dispatched (naive scan vs grid/hull, bit-identical —
        // see `crate::extremes`), so construction stays subquadratic
        // at the n = 4096–16384 sweep sizes.
        let (min_distance, delta) = match extreme_distances(&points) {
            Some(Extremes { min, max, min_pair }) => {
                if min == 0.0 {
                    return Err(GeomError::CoincidentPoints {
                        first: min_pair.0,
                        second: min_pair.1,
                    });
                }
                (min, max)
            }
            // Single point: conventions for the degenerate instance.
            None => (1.0, 1.0),
        };
        Ok(Instance {
            points,
            min_distance,
            delta,
        })
    }

    /// Creates an instance rescaled so that the minimum pairwise distance
    /// is exactly 1, the paper's normalization.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Instance::new`].
    pub fn normalized(points: Vec<Point>) -> Result<Self> {
        let inst = Instance::new(points)?;
        if inst.len() < 2 || (inst.min_distance - 1.0).abs() < 1e-12 {
            return Ok(inst);
        }
        let s = 1.0 / inst.min_distance;
        let scaled: Vec<Point> = inst.points.iter().map(|p| p.scale(s)).collect();
        // Rescaling cannot introduce coincident points, but re-deriving the
        // extremes keeps the cached values exact.
        Instance::new(scaled)
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the instance has no nodes (never true for a constructed one).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Position of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn position(&self, u: NodeId) -> Point {
        self.points[u]
    }

    /// All positions, indexed by [`NodeId`].
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Euclidean distance between nodes `u` and `v`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[inline]
    pub fn distance(&self, u: NodeId, v: NodeId) -> f64 {
        self.points[u].distance(self.points[v])
    }

    /// Minimum pairwise distance (1 for normalized instances).
    #[inline]
    pub fn min_distance(&self) -> f64 {
        self.min_distance
    }

    /// Maximum pairwise distance `Δ`.
    #[inline]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Whether the instance satisfies the paper's normalization
    /// (minimum distance 1, up to floating-point slack).
    #[inline]
    pub fn is_normalized(&self) -> bool {
        (self.min_distance - 1.0).abs() < 1e-9
    }

    /// Number of length classes — the number of rounds of the `Init`
    /// algorithm (§6 of the paper): the class of `Δ` itself, so that the
    /// top round's window `[2^{r-1}, 2^r)` contains the diameter even
    /// when `Δ` is an exact power of two. At least 1, and within 1 of
    /// the paper's `⌈log₂ Δ⌉`.
    pub fn num_length_classes(&self) -> u32 {
        Self::length_class_of(self.delta)
    }

    /// The length class of a distance `d`: the round `r ≥ 1` with
    /// `d ∈ [2^{r-1}, 2^r)`.
    ///
    /// Distances below 1 (possible only on non-normalized instances) are
    /// mapped to class 1.
    pub fn length_class_of(d: f64) -> u32 {
        if d < 2.0 {
            1
        } else {
            d.log2().floor() as u32 + 1
        }
    }

    /// Bounding box of all points.
    pub fn bounding_box(&self) -> Aabb {
        Aabb::from_points(self.points.iter().copied())
            .expect("constructed instances contain at least one finite point")
    }

    /// Nodes within the closed ball of the given `center` and `radius`:
    /// the linear-scan oracle the grid tests compare against.
    #[cfg(test)]
    pub fn nodes_in_ball(&self, center: Point, radius: f64) -> Vec<NodeId> {
        let r2 = radius * radius;
        self.points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_sq(center) <= r2)
            .map(|(i, _)| i)
            .collect()
    }

    /// Iterator over `(NodeId, Point)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Point)> + '_ {
        self.points.iter().copied().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 2.0),
            Point::new(2.0, 2.0),
        ]
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Instance::new(vec![]), Err(GeomError::EmptyInstance));
    }

    #[test]
    fn rejects_nan() {
        let e = Instance::new(vec![Point::new(0.0, 0.0), Point::new(f64::NAN, 1.0)]);
        assert_eq!(e, Err(GeomError::NonFinitePoint { index: 1 }));
    }

    #[test]
    fn rejects_coincident() {
        let e = Instance::new(vec![Point::new(1.0, 1.0), Point::new(1.0, 1.0)]);
        assert_eq!(
            e,
            Err(GeomError::CoincidentPoints {
                first: 0,
                second: 1
            })
        );
    }

    #[test]
    fn single_point_conventions() {
        let inst = Instance::new(vec![Point::ORIGIN]).unwrap();
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.delta(), 1.0);
        assert_eq!(inst.min_distance(), 1.0);
        assert_eq!(inst.num_length_classes(), 1);
        assert!(inst.is_normalized());
    }

    #[test]
    fn square_extremes() {
        let inst = Instance::new(square()).unwrap();
        assert_eq!(inst.min_distance(), 2.0);
        assert!((inst.delta() - 8.0_f64.sqrt()).abs() < 1e-12);
        assert!(!inst.is_normalized());
    }

    #[test]
    fn normalization_scales_min_to_one() {
        let inst = Instance::normalized(square()).unwrap();
        assert!((inst.min_distance() - 1.0).abs() < 1e-12);
        assert!((inst.delta() - 2.0_f64.sqrt()).abs() < 1e-12);
        assert!(inst.is_normalized());
    }

    #[test]
    fn length_classes() {
        assert_eq!(Instance::length_class_of(1.0), 1);
        assert_eq!(Instance::length_class_of(1.999), 1);
        assert_eq!(Instance::length_class_of(2.0), 2);
        assert_eq!(Instance::length_class_of(3.999), 2);
        assert_eq!(Instance::length_class_of(4.0), 3);
        assert_eq!(Instance::length_class_of(0.5), 1);
    }

    #[test]
    fn num_length_classes_covers_delta() {
        let inst = Instance::normalized(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(100.0, 0.0),
        ])
        .unwrap();
        // Δ = 100 → ⌈log2 100⌉ = 7 classes; class of Δ must not exceed it.
        assert_eq!(inst.num_length_classes(), 7);
        assert!(Instance::length_class_of(inst.delta()) <= inst.num_length_classes());
    }

    #[test]
    fn nodes_in_ball_closed() {
        let inst = Instance::new(square()).unwrap();
        let got = inst.nodes_in_ball(Point::new(0.0, 0.0), 2.0);
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn distance_lookup() {
        let inst = Instance::new(square()).unwrap();
        assert_eq!(inst.distance(0, 3), 8.0_f64.sqrt());
        assert_eq!(inst.distance(3, 0), inst.distance(0, 3));
    }

    #[test]
    fn bounding_box_covers_all() {
        let inst = Instance::new(square()).unwrap();
        let bb = inst.bounding_box();
        for (_, p) in inst.iter() {
            assert!(bb.contains(p));
        }
    }
}
