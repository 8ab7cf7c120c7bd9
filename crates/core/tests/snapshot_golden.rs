//! Golden `ltc-snapshot v1` fixtures: two deterministic services whose
//! snapshots were serialized once and committed under
//! `tests/fixtures/`. Between them they exercise every optional group
//! of the format (`grow`, `rebalance`, `stripes`, `rng`, `clamped`), a
//! tabular accuracy model, the trailing-space `completed ` line of a
//! taskless shard, and a shard holding thousands of assignments.
//!
//! The writer must reproduce each file byte for byte, and the reader
//! must round-trip it: any change to either half of the codec that
//! moves a single byte fails here.

use ltc_core::model::{
    AccuracyModel, AccuracyTable, Eligibility, ProblemParams, QualityModel, Task, Worker,
};
use ltc_core::service::{Algorithm, LtcService, ServiceBuilder, ServiceSnapshot};
use ltc_core::snapshot::{read_snapshot, write_snapshot};
use ltc_spatial::{BoundingBox, Point};
use std::num::NonZeroUsize;

const GROUPS: &str = include_str!("fixtures/snapshot_groups.ltc");
const TABLE: &str = include_str!("fixtures/snapshot_table.ltc");

/// A 4-shard random-assignment service with adaptive growth armed,
/// auto-rebalancing on, tasks packed into two grid columns (so the
/// rebalanced layout leaves shards without a single task), a few tasks
/// posted outside the region (clamped into the border cells), and
/// enough check-ins near the packed columns to commit thousands of
/// assignments.
fn groups_service() -> LtcService {
    let params = ProblemParams::builder()
        .epsilon(0.05)
        .capacity(3)
        .d_max(40.0)
        .build()
        .unwrap();
    let region = BoundingBox::new(Point::ORIGIN, Point::new(600.0, 600.0));
    let mut service = ServiceBuilder::new(params, region)
        .shards(NonZeroUsize::new(4).unwrap())
        .algorithm(Algorithm::Random { seed: 11 })
        .grow_index_after(1000)
        .rebalance_factor(1.5)
        .build()
        .unwrap();
    for i in 0..256u32 {
        let x = 485.0 + (i % 2) as f64 * 40.0 + (i % 7) as f64;
        let y = (i * 37 % 600) as f64 + 0.25;
        service.post_task(Task::new(Point::new(x, y))).unwrap();
    }
    for i in 0..3u32 {
        let loc = Point::new(640.0 + i as f64 * 15.0, 100.0 + i as f64 * 200.0);
        service.post_task(Task::new(loc)).unwrap();
    }
    for i in 0..6000u64 {
        let x = 480.0 + (i % 11) as f64 * 5.5;
        let y = (i * 53 % 610) as f64;
        service.check_in(&Worker::new(
            Point::new(x, y),
            0.75 + (i % 9) as f64 * 0.025,
        ));
    }
    service
}

/// A single-shard AAM service over a tabular accuracy model, with the
/// unrestricted eligibility rule (no spatial index) and the fixed
/// threshold quality model.
fn table_service() -> LtcService {
    let params = ProblemParams::builder()
        .epsilon(0.2)
        .capacity(2)
        .d_max(25.0)
        .eligibility(Eligibility::Unrestricted)
        .quality(QualityModel::FixedThreshold(1.75))
        .build()
        .unwrap();
    let region = BoundingBox::new(Point::ORIGIN, Point::new(100.0, 100.0));
    let n_workers = 9;
    let n_tasks = 5;
    let values: Vec<f64> = (0..n_workers * n_tasks)
        .map(|i| 0.55 + ((i * 7) % 40) as f64 / 100.0)
        .collect();
    let tasks: Vec<Task> = (0..n_tasks)
        .map(|t| Task::new(Point::new(t as f64 * 17.5, 90.0 - t as f64 * 11.0)))
        .collect();
    let mut service = ServiceBuilder::new(params, region)
        .algorithm(Algorithm::AamLgf)
        .accuracy_model(AccuracyModel::Table(AccuracyTable::new(n_tasks, values)))
        .tasks(tasks)
        .build()
        .unwrap();
    let row: Vec<f64> = (0..n_workers).map(|w| 0.6 + w as f64 * 0.04).collect();
    service
        .post_task_with_accuracies(Task::new(Point::new(42.0, 42.0)), &row)
        .unwrap();
    for w in 0..n_workers {
        let loc = Point::new(w as f64 * 9.0, 50.0);
        service.check_in(&Worker::new(loc, 0.9));
    }
    service
}

fn text_of(snap: &ServiceSnapshot) -> String {
    let mut out = Vec::new();
    write_snapshot(snap, &mut out).unwrap();
    String::from_utf8(out).expect("the writer emits ASCII")
}

#[test]
fn the_groups_fixture_exercises_every_optional_group() {
    let snap = read_snapshot(GROUPS.as_bytes()).unwrap();
    assert!(snap.grow_clamps.is_some(), "grow group");
    assert!(snap.rebalance_factor.is_some(), "rebalance group");
    assert!(snap.stripes.is_some(), "stripes group");
    assert!(snap.rng_draws.iter().any(Option::is_some), "rng group");
    assert!(
        snap.engines.iter().any(|e| e.clamped_insertions > 0),
        "clamped group"
    );
    assert!(
        snap.engines.iter().any(|e| e.tasks.is_empty()),
        "a taskless shard"
    );
    assert!(GROUPS.contains("\ncompleted \n"), "trailing-space line");
    assert!(
        snap.engines.iter().any(|e| e.assignments.len() >= 1000),
        "a shard with thousands of assignments: {:?}",
        snap.engines
            .iter()
            .map(|e| e.assignments.len())
            .collect::<Vec<_>>()
    );

    let table = read_snapshot(TABLE.as_bytes()).unwrap();
    assert!(matches!(table.engines[0].accuracy, AccuracyModel::Table(_)));
    assert!(TABLE.contains(" fixed ") && TABLE.contains(" unrestricted "));
}

#[test]
fn the_writer_reproduces_the_golden_fixtures_byte_for_byte() {
    assert_eq!(text_of(&groups_service().snapshot()), GROUPS);
    assert_eq!(text_of(&table_service().snapshot()), TABLE);
}

#[test]
fn the_reader_round_trips_the_golden_fixtures() {
    for golden in [GROUPS, TABLE] {
        let decoded = read_snapshot(golden.as_bytes()).unwrap();
        assert_eq!(text_of(&decoded), golden);
        // The decoded state is a live service again, and its own
        // snapshot is the same fixed point.
        let restored = LtcService::restore(decoded.clone()).unwrap();
        assert_eq!(restored.snapshot(), decoded);
    }
}
