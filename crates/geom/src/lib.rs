//! Planar geometry substrate for SINR wireless-network algorithms.
//!
//! This crate provides the geometric foundation used throughout the
//! `sinr-connect` workspace, which reproduces Halldórsson & Mitra,
//! *Distributed Connectivity of Wireless Networks* (PODC 2012):
//!
//! - [`Point`] — a point in the plane with exact-enough `f64` arithmetic;
//! - [`Aabb`] — axis-aligned bounding boxes;
//! - [`Instance`] — an immutable set of wireless node positions with the
//!   paper's normalization (minimum pairwise distance 1) and the derived
//!   quantities `Δ` (max distance) and `log₂ Δ` (number of length classes);
//! - [`GridIndex`] — a uniform-grid spatial index for range queries;
//! - [`WeightedCellGrid`] — a weighted bucket grid, rebuilt in one
//!   pass per use, with ring enumeration (the substrate of the
//!   interference field in `sinr-phy`);
//! - [`gen`] — seeded instance generators (uniform, clustered, grid,
//!   exponential chain for large `Δ`, line, annulus);
//! - [`extremes`] — extreme pairwise distances (naive scan + the
//!   bit-identical grid/convex-hull acceleration behind [`Instance`]
//!   construction);
//! - [`mst`] — Euclidean minimum spanning trees (used by the centralized
//!   baselines of the paper's related work \[11\]), with a grid-pruned
//!   lazy Prim that is bit-identical to the `O(n²)` reference.
//!
//! # Example
//!
//! ```
//! use sinr_geom::{gen, Instance};
//!
//! let inst: Instance = gen::uniform_square(64, 1.5, 42).expect("valid parameters");
//! assert_eq!(inst.len(), 64);
//! // The paper's normalization: minimum pairwise distance is exactly 1.
//! assert!((inst.min_distance() - 1.0).abs() < 1e-9);
//! assert!(inst.delta() >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod aabb;
mod error;
pub mod extremes;
pub mod gen;
mod grid;
mod instance;
pub mod mst;
mod point;
#[cfg(feature = "serde")]
mod serde_impls;

pub use aabb::Aabb;
pub use error::GeomError;
pub use grid::{CellKey, CellView, GridIndex, WeightedCellGrid};
pub use instance::{Instance, NodeId};
pub use point::Point;

/// Convenience result alias for fallible geometry operations.
pub type Result<T> = std::result::Result<T, GeomError>;
