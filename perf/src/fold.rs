//! The trace fold: the lifecycle events the program already emits, folded
//! into a per-stage latency table. One task's path is
//! `submitted → scheduled_local | global_placed → deps_fetched → running →
//! finished`; each gap is a stage, and a stage's share is its part of
//! submit→finished.

use std::collections::BTreeMap;

use ray_common::trace::{TraceEntity, TraceEventKind, TraceLog};
use ray_common::TaskId;

use crate::stats;

/// The per-layer metrics of each stage: its median gap, and its share.
pub const STAGE_METRICS: [(&str, &str); 4] = [
    (
        "core.stage.submit_to_sched_us",
        "core.stage.submit_to_sched_share",
    ),
    (
        "core.stage.sched_to_deps_us",
        "core.stage.sched_to_deps_share",
    ),
    ("core.stage.deps_to_run_us", "core.stage.deps_to_run_share"),
    (
        "core.stage.run_to_finish_us",
        "core.stage.run_to_finish_share",
    ),
];

/// Timestamps (µs on the trace clock) of one task's lifecycle points; the
/// first event of each kind counts, so a re-execution does not stretch a
/// stage.
#[derive(Debug, Default, Clone, Copy)]
struct Lifecycle {
    submitted: Option<u64>,
    scheduled: Option<u64>,
    deps: Option<u64>,
    running: Option<u64>,
    finished: Option<u64>,
}

impl Lifecycle {
    /// The four stage gaps, if the task ran start to finish in the log. A
    /// missing middle point (a task kept local has no `global_placed`; an
    /// actor method may have no scheduling event at all) gives a zero gap
    /// there: the time falls into the next stage that was seen.
    fn gaps(&self) -> Option<[u64; 4]> {
        let (start, end) = (self.submitted?, self.finished?);
        let sched = self.scheduled.unwrap_or(start);
        let deps = self.deps.unwrap_or(sched);
        let run = self.running.unwrap_or(deps);
        let points = [start, sched, deps, run, end];
        // Events of one task are stamped by different threads; a gap that
        // reads negative through that is a zero.
        Some(std::array::from_fn(|i| {
            points[i + 1].saturating_sub(points[i])
        }))
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct StageTable {
    /// Tasks seen from `submitted` to `finished`.
    pub tasks: usize,
    /// Median gap per stage, in [`STAGE_METRICS`] order.
    pub p50_us: [f64; 4],
    /// Each stage's part of the summed submit→finished time.
    pub share: [f64; 4],
}

pub fn fold(log: &TraceLog) -> StageTable {
    let mut tasks: BTreeMap<TaskId, Lifecycle> = BTreeMap::new();
    for e in log.events() {
        let TraceEntity::Task(id) = e.entity else {
            continue;
        };
        let life = tasks.entry(id).or_default();
        let slot = match e.kind {
            TraceEventKind::Submitted => &mut life.submitted,
            TraceEventKind::ScheduledLocal | TraceEventKind::GlobalPlaced => &mut life.scheduled,
            TraceEventKind::DepsFetched => &mut life.deps,
            TraceEventKind::Running => &mut life.running,
            TraceEventKind::Finished => &mut life.finished,
            _ => continue,
        };
        slot.get_or_insert(e.ts_micros);
    }
    let gaps: Vec<[u64; 4]> = tasks.values().filter_map(Lifecycle::gaps).collect();
    let total: u64 = gaps.iter().flatten().sum();
    let stage = |i: usize| -> Vec<u64> { gaps.iter().map(|g| g[i]).collect() };
    StageTable {
        tasks: gaps.len(),
        p50_us: std::array::from_fn(|i| stats::percentile(&stage(i), 0.5).unwrap_or(0) as f64),
        share: std::array::from_fn(|i| {
            if total == 0 {
                0.0
            } else {
                stage(i).iter().sum::<u64>() as f64 / total as f64
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ray_common::trace::TraceEvent;
    use ray_common::NodeId;

    fn events(task: u64, points: &[(TraceEventKind, u64)], seq0: u64) -> Vec<TraceEvent> {
        points
            .iter()
            .enumerate()
            .map(|(i, &(kind, ts))| TraceEvent {
                seq: seq0 + i as u64,
                ts_micros: ts,
                node: NodeId(0),
                kind,
                entity: TraceEntity::Task(TaskId::for_child(TaskId::NIL, task)),
                detail: String::new(),
            })
            .collect()
    }

    #[test]
    fn known_gaps_in_give_the_same_gaps_out() {
        use TraceEventKind::*;
        let mut all = Vec::new();
        for t in 0..3 {
            let base = 1_000 * t;
            all.extend(events(
                t,
                &[
                    (Submitted, base),
                    (SpilledGlobal, base + 1),
                    (GlobalPlaced, base + 10),
                    (DepsFetched, base + 30),
                    (Running, base + 60),
                    (Finished, base + 100),
                ],
                10 * t,
            ));
        }
        let table = fold(&TraceLog::from_events(all));
        assert_eq!(table.tasks, 3);
        assert_eq!(table.p50_us, [10.0, 20.0, 30.0, 40.0]);
        assert_eq!(table.share, [0.1, 0.2, 0.3, 0.4]);
        assert!((table.share.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_task_kept_local_has_no_global_placed() {
        use TraceEventKind::*;
        let local = events(
            0,
            &[
                (Submitted, 0),
                (ScheduledLocal, 4),
                (DepsFetched, 5),
                (Running, 6),
                (Finished, 16),
            ],
            0,
        );
        let table = fold(&TraceLog::from_events(local));
        assert_eq!(table.tasks, 1);
        assert_eq!(table.p50_us, [4.0, 1.0, 1.0, 10.0]);
    }

    #[test]
    fn missing_middle_points_fall_into_the_next_stage_seen() {
        use TraceEventKind::*;
        // No scheduling or deps event at all: everything up to `running`
        // is charged to deps_to_run.
        let bare = events(0, &[(Submitted, 0), (Running, 50), (Finished, 80)], 0);
        let table = fold(&TraceLog::from_events(bare));
        assert_eq!(table.p50_us, [0.0, 0.0, 50.0, 30.0]);
    }

    #[test]
    fn unfinished_tasks_and_other_entities_are_left_out() {
        use TraceEventKind::*;
        let mut all = events(0, &[(Submitted, 0), (Running, 5)], 0);
        all.extend(events(
            1,
            &[(Submitted, 0), (Running, 5), (Finished, 9)],
            10,
        ));
        all.push(TraceEvent {
            seq: 99,
            ts_micros: 3,
            node: NodeId(1),
            kind: ObjectPut,
            entity: TraceEntity::Node(NodeId(1)),
            detail: String::new(),
        });
        let table = fold(&TraceLog::from_events(all));
        assert_eq!(table.tasks, 1);
        assert_eq!(fold(&TraceLog::from_events(Vec::new())).share, [0.0; 4]);
    }

    #[test]
    fn a_reexecution_does_not_stretch_a_stage() {
        use TraceEventKind::*;
        let twice = events(
            0,
            &[
                (Submitted, 0),
                (Running, 10),
                (Finished, 20),
                (Running, 500),
                (Finished, 900),
            ],
            0,
        );
        assert_eq!(
            fold(&TraceLog::from_events(twice)).p50_us,
            [0.0, 0.0, 10.0, 10.0]
        );
    }
}
