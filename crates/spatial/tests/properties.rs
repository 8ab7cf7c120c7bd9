//! Property-based tests for the spatial substrate.

use ltc_spatial::{convex_hull, ConvexPolygon, GridIndex, Point};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (-1000.0f64..1000.0, -1000.0f64..1000.0).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    /// The grid index returns exactly the brute-force result set.
    #[test]
    fn grid_index_matches_brute_force(
        pts in prop::collection::vec(arb_point(), 0..200),
        center in arb_point(),
        radius in 0.0f64..500.0,
        cell in 1.0f64..100.0,
    ) {
        let labelled: Vec<(u32, Point)> = pts.iter().copied().enumerate()
            .map(|(i, p)| (i as u32, p)).collect();
        let idx = GridIndex::build(cell, labelled.iter().copied());
        let mut got: Vec<u32> = idx.within(center, radius).collect();
        got.sort_unstable();
        let mut expect: Vec<u32> = labelled.iter()
            .filter(|(_, p)| p.distance(center) <= radius)
            .map(|(i, _)| *i)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Every input point lies inside (or on) the hull polygon.
    #[test]
    fn hull_contains_all_points(pts in prop::collection::vec(arb_point(), 3..100)) {
        if let Some(poly) = ConvexPolygon::from_points(&pts) {
            for p in &pts {
                prop_assert!(poly.contains(*p), "point {} outside its own hull", p);
            }
        }
    }

    /// Hull vertices are a subset of the input points.
    #[test]
    fn hull_vertices_come_from_input(pts in prop::collection::vec(arb_point(), 0..100)) {
        let hull = convex_hull(&pts);
        for v in &hull {
            prop_assert!(pts.iter().any(|p| p == v));
        }
    }

    /// Hulling the hull is a fixed point.
    #[test]
    fn hull_is_idempotent(pts in prop::collection::vec(arb_point(), 0..100)) {
        let h1 = convex_hull(&pts);
        let mut h2 = convex_hull(&h1);
        let mut h1s = h1.clone();
        let key = |p: &Point| (p.x.to_bits(), p.y.to_bits());
        h1s.sort_by_key(key);
        h2.sort_by_key(key);
        prop_assert_eq!(h1s, h2);
    }

    /// Uniform samples stay inside the polygon.
    #[test]
    fn polygon_samples_inside(pts in prop::collection::vec(arb_point(), 3..30), seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        if let Some(poly) = ConvexPolygon::from_points(&pts) {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..32 {
                let s = poly.sample_uniform(&mut rng);
                prop_assert!(poly.contains(s));
            }
        }
    }

    /// count_within agrees with the iterator length.
    #[test]
    fn count_within_consistent(
        pts in prop::collection::vec(arb_point(), 0..100),
        center in arb_point(),
        radius in 0.0f64..300.0,
    ) {
        let idx = GridIndex::build(30.0, pts.iter().copied().enumerate());
        prop_assert_eq!(idx.count_within(center, radius), idx.within(center, radius).count());
    }

    /// Eviction: after removing an arbitrary subset, queries return
    /// exactly the brute-force result over the survivors — removed ids
    /// are never returned.
    #[test]
    fn evicted_points_never_returned(
        pts in prop::collection::vec(arb_point(), 1..150),
        removals in prop::collection::vec(prop::bool::ANY, 1..150),
        center in arb_point(),
        radius in 0.0f64..500.0,
        cell in 1.0f64..100.0,
    ) {
        let labelled: Vec<(u32, Point)> = pts.iter().copied().enumerate()
            .map(|(i, p)| (i as u32, p)).collect();
        let mut idx = GridIndex::build(cell, labelled.iter().copied());
        let mut alive: Vec<(u32, Point)> = Vec::new();
        for (i, &(id, p)) in labelled.iter().enumerate() {
            if removals.get(i).copied().unwrap_or(false) {
                prop_assert!(idx.remove(id, p), "failed to remove id {}", id);
            } else {
                alive.push((id, p));
            }
        }
        prop_assert_eq!(idx.len(), alive.len());
        let mut got: Vec<u32> = idx.within(center, radius).collect();
        got.sort_unstable();
        let mut expect: Vec<u32> = alive.iter()
            .filter(|(_, p)| p.distance(center) <= radius)
            .map(|(i, _)| *i)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Re-adding evicted points makes them visible again: a full
    /// remove-all / re-insert-all cycle restores the original result set.
    #[test]
    fn readd_after_evict_restores(
        pts in prop::collection::vec(arb_point(), 1..100),
        center in arb_point(),
        radius in 0.0f64..500.0,
    ) {
        let labelled: Vec<(u32, Point)> = pts.iter().copied().enumerate()
            .map(|(i, p)| (i as u32, p)).collect();
        let mut idx = GridIndex::build(25.0, labelled.iter().copied());
        for &(id, p) in &labelled {
            prop_assert!(idx.remove(id, p));
        }
        prop_assert!(idx.is_empty());
        prop_assert_eq!(idx.within(center, radius).count(), 0);
        for &(id, p) in &labelled {
            idx.insert(id, p);
        }
        let mut got: Vec<u32> = idx.within(center, radius).collect();
        got.sort_unstable();
        let mut expect: Vec<u32> = labelled.iter()
            .filter(|(_, p)| p.distance(center) <= radius)
            .map(|(i, _)| *i)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// retain behaves like filtering the underlying point set.
    #[test]
    fn retain_matches_filter(
        pts in prop::collection::vec(arb_point(), 0..120),
        center in arb_point(),
        radius in 0.0f64..400.0,
        modulus in 2u32..6,
    ) {
        let labelled: Vec<(u32, Point)> = pts.iter().copied().enumerate()
            .map(|(i, p)| (i as u32, p)).collect();
        let mut idx = GridIndex::build(40.0, labelled.iter().copied());
        idx.retain(|id, _| id % modulus == 0);
        let survivors: Vec<(u32, Point)> = labelled.iter().copied()
            .filter(|(id, _)| id % modulus == 0).collect();
        prop_assert_eq!(idx.len(), survivors.len());
        let mut got: Vec<u32> = idx.within(center, radius).collect();
        got.sort_unstable();
        let mut expect: Vec<u32> = survivors.iter()
            .filter(|(_, p)| p.distance(center) <= radius)
            .map(|(i, _)| *i)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}
