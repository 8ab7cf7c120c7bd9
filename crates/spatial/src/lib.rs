//! 2-D geometry substrate for the LTC spatial-crowdsourcing library.
//!
//! The LTC algorithms (ICDE 2018) repeatedly answer one spatial question:
//! *"which tasks are within `d_max` of this worker?"*. This crate provides
//! the primitives for that query and for dataset generation:
//!
//! * [`Point`] — a 2-D location with Euclidean distance helpers,
//! * [`BoundingBox`] — axis-aligned extents,
//! * [`GridIndex`] — a uniform-grid spatial index with radius queries,
//!   eviction, clamp telemetry, and exact rebucketing for adaptive
//!   growth,
//! * [`ShardRouter`] — tile→shard striping for the sharded service
//!   front-end (`ltc-core`'s service layer): equal-width by default,
//!   with explicit load-balanced stripe layouts for rebalancing,
//! * [`convex_hull`] / [`ConvexPolygon`] — hull construction, containment
//!   tests and uniform sampling inside a hull (used by the check-in
//!   workload generator to place tasks "within the convex region of the
//!   workers", paper Sec. V-A).
//!
//! # Example
//!
//! ```
//! use ltc_spatial::{GridIndex, Point};
//!
//! let pts = vec![Point::new(1.0, 1.0), Point::new(5.0, 5.0), Point::new(50.0, 50.0)];
//! let index = GridIndex::build(3.0, pts.iter().copied().enumerate().map(|(i, p)| (i, p)));
//! let near: Vec<usize> = index.within(Point::new(0.0, 0.0), 3.0).collect();
//! assert_eq!(near, vec![0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bbox;
mod grid;
mod hull;
mod point;
mod shard;

pub use bbox::BoundingBox;
#[cfg(feature = "grid-reference")]
pub use grid::reference::ReferenceGrid;
pub use grid::GridIndex;
pub use hull::{convex_hull, ConvexPolygon};
pub use point::Point;
pub use shard::ShardRouter;
