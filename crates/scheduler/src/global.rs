//! The global scheduler: placement by minimum estimated waiting time.
//!
//! "The global scheduler identifies the set of nodes that have enough
//! resources of the type requested by the task, and of these nodes selects
//! the node which provides the lowest estimated waiting time. At a given
//! node, this time is the sum of (i) the estimated time the task will be
//! queued at that node (i.e., task queue size times average task
//! execution), and (ii) the estimated transfer time of task's remote
//! inputs (i.e., total size of remote inputs divided by average
//! bandwidth)." (§4.2.2)
//!
//! Replication: a `GlobalScheduler` is cheap to clone; clones share the
//! load table and GCS client, mirroring "we can instantiate more replicas
//! all sharing the same information via GCS".

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ray_common::sync::{classes, OrderedMutex};

use ray_common::config::SchedulerPolicy;
use ray_common::util::DetRng;
use ray_common::{NodeId, ObjectId, RayError, RayResult, Resources, TaskId};
use ray_gcs::tables::GcsClient;

use crate::load::LoadTable;

/// How long a cached object-location entry stays fresh. "GCS replies are
/// cached by the global and local schedulers" (§4.3).
const LOCATION_CACHE_TTL: Duration = Duration::from_millis(50);

/// Default per-task duration estimate before any observation, ms.
const DEFAULT_TASK_MS: f64 = 5.0;
/// Default bandwidth estimate before any observation, bytes per ms.
const DEFAULT_BW_BYTES_PER_MS: f64 = 1_000_000.0;

/// The scheduling-relevant view of a task.
#[derive(Debug, Clone)]
pub struct TaskDescriptor {
    /// The task being placed.
    pub task: TaskId,
    /// Its resource demand.
    pub demand: Resources,
    /// Object inputs that must be local before execution.
    pub inputs: Vec<ObjectId>,
    /// Node whose local scheduler forwarded the task.
    pub submitted_from: NodeId,
}

struct LocationCacheEntry {
    locations: Vec<(NodeId, u64)>,
    fetched: Instant,
}

/// A global scheduler replica.
#[derive(Clone)]
pub struct GlobalScheduler {
    inner: Arc<Inner>,
}

struct Inner {
    policy: SchedulerPolicy,
    load: Arc<LoadTable>,
    gcs: GcsClient,
    decision_delay: Duration,
    location_cache: OrderedMutex<HashMap<ObjectId, LocationCacheEntry>>,
    decisions: AtomicU64,
    /// Placement tie-breaking only, not statistics.
    rng: OrderedMutex<DetRng>,
}

impl GlobalScheduler {
    /// Creates a scheduler replica.
    pub fn new(
        policy: SchedulerPolicy,
        load: Arc<LoadTable>,
        gcs: GcsClient,
        decision_delay: Duration,
        seed: u64,
    ) -> GlobalScheduler {
        GlobalScheduler {
            inner: Arc::new(Inner {
                policy,
                load,
                gcs,
                decision_delay,
                location_cache: OrderedMutex::new(&classes::SCHED_LOCATION_CACHE, HashMap::new()),
                decisions: AtomicU64::new(0),
                rng: OrderedMutex::new(&classes::SCHED_RNG, DetRng::new(seed)),
            }),
        }
    }

    /// Number of placement decisions made by this replica group.
    pub fn decision_count(&self) -> u64 {
        self.inner.decisions.load(Ordering::Relaxed)
    }

    /// Places a task, returning the chosen node, or `None` when no live
    /// node can ever satisfy the demand (the caller re-queues and retries
    /// as the cluster changes).
    pub fn place(&self, task: &TaskDescriptor) -> RayResult<Option<NodeId>> {
        if !self.inner.decision_delay.is_zero() {
            // Fig. 12b: artificial scheduling latency.
            std::thread::sleep(self.inner.decision_delay);
        }
        self.inner.decisions.fetch_add(1, Ordering::Relaxed);

        let candidates: Vec<_> = self
            .inner
            .load
            .live_nodes()
            .into_iter()
            .filter(|l| l.capacity.fits(&task.demand))
            .collect();
        if candidates.is_empty() {
            return Ok(None);
        }

        let chosen = match self.inner.policy {
            SchedulerPolicy::LocalityUnaware => {
                self.argmin_wait(task, &candidates, /* locality: */ false)?
            }
            SchedulerPolicy::BottomUp | SchedulerPolicy::Centralized => {
                self.argmin_wait(task, &candidates, /* locality: */ true)?
            }
        };
        Ok(Some(chosen))
    }

    fn argmin_wait(
        &self,
        task: &TaskDescriptor,
        candidates: &[crate::load::NodeLoad],
        locality: bool,
    ) -> RayResult<NodeId> {
        let inputs: Vec<(ObjectId, Vec<(NodeId, u64)>)> = if locality {
            task.inputs
                .iter()
                .map(|&id| Ok((id, self.locations(id)?)))
                .collect::<RayResult<_>>()?
        } else {
            Vec::new()
        };
        let bw = self.inner.load.bandwidth_or(DEFAULT_BW_BYTES_PER_MS);

        let mut best: Option<(f64, NodeId)> = None;
        let mut ties = 0u64;
        for cand in candidates {
            let queue_ms = cand.queue_len as f64
                * self.inner.load.avg_task_ms_or(cand.node, DEFAULT_TASK_MS);
            let mut transfer_ms = 0.0;
            for (_, locs) in &inputs {
                if locs.is_empty() {
                    // Unknown object (not created yet): no location signal.
                    continue;
                }
                if !locs.iter().any(|(n, _)| *n == cand.node) {
                    let size = locs.iter().map(|(_, s)| *s).max().unwrap_or(0);
                    transfer_ms += size as f64 / bw.max(1.0);
                }
            }
            let wait = queue_ms + transfer_ms;
            match &mut best {
                None => best = Some((wait, cand.node)),
                Some((best_wait, best_node)) => {
                    if wait < *best_wait - f64::EPSILON {
                        *best_wait = wait;
                        *best_node = cand.node;
                        ties = 0;
                    } else if (wait - *best_wait).abs() <= f64::EPSILON {
                        // Reservoir-sample among exact ties so equal nodes
                        // share load instead of hot-spotting the lowest ID.
                        ties += 1;
                        if self.inner.rng.lock().next_below(ties + 1) == 0 {
                            *best_node = cand.node;
                        }
                    }
                }
            }
        }
        Ok(best.expect("invariant: caller checked candidates is non-empty").1)
    }

    /// Picks a node for a new serving replica: the feasible live node with
    /// the fewest replicas already placed there (per `occupied`), breaking
    /// ties by shortest queue then lowest node id. Deterministic — replica
    /// placement feeds trace-signature tests, so it must not consult the
    /// tie-breaking RNG. Returns `None` when no live node fits `demand`.
    pub fn place_replica(&self, demand: &Resources, occupied: &[NodeId]) -> Option<NodeId> {
        let mut candidates: Vec<_> = self
            .inner
            .load
            .live_nodes()
            .into_iter()
            .filter(|l| l.capacity.fits(demand))
            .map(|l| {
                let colocated = occupied.iter().filter(|n| **n == l.node).count();
                (colocated, l.queue_len, l.node)
            })
            .collect();
        candidates.sort();
        candidates.first().map(|&(_, _, node)| node)
    }

    /// Picks which replica to retire on scale-down: the one on the node
    /// with the *most* replicas (drain hotspots first), ties broken by
    /// highest node id — the exact reverse of [`Self::place_replica`], so
    /// a scale-up immediately after a scale-down is a no-op in placement
    /// terms. Returns an index into `occupied`, or `None` if it is empty.
    pub fn retire_candidate(&self, occupied: &[NodeId]) -> Option<usize> {
        let (idx, _) = occupied.iter().enumerate().max_by_key(|(_, node)| {
            let colocated = occupied.iter().filter(|n| *n == *node).count();
            (colocated, node.0)
        })?;
        Some(idx)
    }

    fn locations(&self, id: ObjectId) -> RayResult<Vec<(NodeId, u64)>> {
        {
            let cache = self.inner.location_cache.lock();
            if let Some(e) = cache.get(&id) {
                if e.fetched.elapsed() < LOCATION_CACHE_TTL {
                    return Ok(e.locations.clone());
                }
            }
        }
        // A shard mid-recovery reads as "no known locations": placement
        // degrades to load-only for a beat instead of failing the task.
        let raw = match self.inner.gcs.get_object_locations(id) {
            Ok(locs) => locs,
            Err(RayError::GcsUnavailable(_)) => Vec::new(),
            Err(e) => return Err(e),
        };
        let locs: Vec<(NodeId, u64)> = raw.into_iter().map(|l| (l.node, l.size)).collect();
        self.inner.location_cache.lock().insert(
            id,
            LocationCacheEntry { locations: locs.clone(), fetched: Instant::now() },
        );
        Ok(locs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::NodeLoad;
    use ray_common::config::GcsConfig;
    use ray_gcs::Gcs;

    struct Rig {
        _gcs: Gcs,
        client: GcsClient,
        load: Arc<LoadTable>,
    }

    fn rig() -> Rig {
        let gcs = Gcs::start(&GcsConfig { num_shards: 1, chain_length: 1, ..GcsConfig::default() })
            .unwrap();
        let client = gcs.client();
        let load = Arc::new(LoadTable::new(0.2));
        Rig { _gcs: gcs, client, load }
    }

    fn heartbeat(load: &LoadTable, node: u32, queue: usize, gpus: f64) {
        load.heartbeat(NodeLoad {
            node: NodeId(node),
            queue_len: queue,
            available: Resources::new(4.0, gpus),
            capacity: Resources::new(4.0, gpus),
            alive: true,
        });
    }

    fn scheduler(r: &Rig, policy: SchedulerPolicy) -> GlobalScheduler {
        GlobalScheduler::new(policy, r.load.clone(), r.client.clone(), Duration::ZERO, 42)
    }

    fn task(inputs: Vec<ObjectId>, demand: Resources) -> TaskDescriptor {
        TaskDescriptor { task: TaskId::random(), demand, inputs, submitted_from: NodeId(0) }
    }

    #[test]
    fn respects_resource_feasibility() {
        let r = rig();
        heartbeat(&r.load, 0, 0, 0.0);
        heartbeat(&r.load, 1, 10, 1.0);
        let s = scheduler(&r, SchedulerPolicy::BottomUp);
        // Only node 1 has a GPU, despite its long queue.
        let placed = s.place(&task(vec![], Resources::gpus(1.0))).unwrap();
        assert_eq!(placed, Some(NodeId(1)));
    }

    #[test]
    fn no_feasible_node_returns_none() {
        let r = rig();
        heartbeat(&r.load, 0, 0, 0.0);
        let s = scheduler(&r, SchedulerPolicy::BottomUp);
        assert_eq!(s.place(&task(vec![], Resources::gpus(2.0))).unwrap(), None);
    }

    #[test]
    fn prefers_shorter_queue() {
        let r = rig();
        heartbeat(&r.load, 0, 50, 0.0);
        heartbeat(&r.load, 1, 1, 0.0);
        r.load.observe_task_duration(NodeId(0), 10.0);
        r.load.observe_task_duration(NodeId(1), 10.0);
        let s = scheduler(&r, SchedulerPolicy::BottomUp);
        assert_eq!(s.place(&task(vec![], Resources::cpus(1.0))).unwrap(), Some(NodeId(1)));
    }

    #[test]
    fn locality_pulls_task_to_its_input() {
        let r = rig();
        heartbeat(&r.load, 0, 2, 0.0);
        heartbeat(&r.load, 1, 2, 0.0);
        let obj = ObjectId::random();
        // 100 MB object on node 1; queues equal → locality decides.
        r.client.add_object_location(obj, NodeId(1), 100 << 20).unwrap();
        let s = scheduler(&r, SchedulerPolicy::BottomUp);
        assert_eq!(
            s.place(&task(vec![obj], Resources::cpus(1.0))).unwrap(),
            Some(NodeId(1))
        );
    }

    #[test]
    fn locality_unaware_ignores_input_location() {
        let r = rig();
        // Node 1 holds the input but has the longer queue; unaware policy
        // must pick node 0 purely on queue length.
        heartbeat(&r.load, 0, 1, 0.0);
        heartbeat(&r.load, 1, 5, 0.0);
        r.load.observe_task_duration(NodeId(0), 10.0);
        r.load.observe_task_duration(NodeId(1), 10.0);
        let obj = ObjectId::random();
        r.client.add_object_location(obj, NodeId(1), 1 << 30).unwrap();
        let s = scheduler(&r, SchedulerPolicy::LocalityUnaware);
        assert_eq!(
            s.place(&task(vec![obj], Resources::cpus(1.0))).unwrap(),
            Some(NodeId(0))
        );
    }

    #[test]
    fn queue_cost_can_outweigh_locality() {
        let r = rig();
        // Node 1 holds a small input but its queue is very long: moving the
        // 1 KB input beats waiting behind 1000 tasks.
        heartbeat(&r.load, 0, 0, 0.0);
        heartbeat(&r.load, 1, 1000, 0.0);
        r.load.observe_task_duration(NodeId(0), 10.0);
        r.load.observe_task_duration(NodeId(1), 10.0);
        r.load.observe_bandwidth(1_000_000.0);
        let obj = ObjectId::random();
        r.client.add_object_location(obj, NodeId(1), 1024).unwrap();
        let s = scheduler(&r, SchedulerPolicy::BottomUp);
        assert_eq!(
            s.place(&task(vec![obj], Resources::cpus(1.0))).unwrap(),
            Some(NodeId(0))
        );
    }

    #[test]
    fn dead_nodes_are_never_chosen() {
        let r = rig();
        heartbeat(&r.load, 0, 0, 0.0);
        heartbeat(&r.load, 1, 0, 0.0);
        r.load.mark_dead(NodeId(0));
        let s = scheduler(&r, SchedulerPolicy::BottomUp);
        for _ in 0..20 {
            assert_eq!(
                s.place(&task(vec![], Resources::cpus(1.0))).unwrap(),
                Some(NodeId(1))
            );
        }
    }

    #[test]
    fn ties_are_spread_not_hotspotted() {
        let r = rig();
        for n in 0..4 {
            heartbeat(&r.load, n, 0, 0.0);
        }
        let s = scheduler(&r, SchedulerPolicy::BottomUp);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(s.place(&task(vec![], Resources::cpus(1.0))).unwrap().unwrap());
        }
        assert!(seen.len() >= 3, "tie-breaking should spread load, saw {seen:?}");
    }

    #[test]
    fn neighbouring_seeds_break_ties_differently() {
        let r = rig();
        for n in 0..4 {
            heartbeat(&r.load, n, 0, 0.0);
        }
        let sequence = |seed| -> Vec<NodeId> {
            let (load, gcs) = (r.load.clone(), r.client.clone());
            let s = GlobalScheduler::new(SchedulerPolicy::BottomUp, load, gcs, Duration::ZERO, seed);
            (0..32)
                .map(|_| s.place(&task(vec![], Resources::cpus(1.0))).unwrap().unwrap())
                .collect()
        };
        for k in [0u64, 21, 1 << 40] {
            // `seed | 1` made every even seed collide with its odd neighbour.
            assert_ne!(sequence(2 * k), sequence(2 * k + 1), "{k}");
            assert_eq!(sequence(2 * k), sequence(2 * k), "{k}");
        }
    }

    #[test]
    fn replica_placement_spreads_then_packs_deterministically() {
        let r = rig();
        for n in 0..3 {
            heartbeat(&r.load, n, 0, 0.0);
        }
        let s = scheduler(&r, SchedulerPolicy::BottomUp);
        let demand = Resources::cpus(1.0);
        // Empty pool: lowest node id wins the tie.
        assert_eq!(s.place_replica(&demand, &[]), Some(NodeId(0)));
        // One replica per node placed so far → next goes to the empty node.
        assert_eq!(s.place_replica(&demand, &[NodeId(0), NodeId(1)]), Some(NodeId(2)));
        // Balanced pool: deterministic (no RNG), so repeated calls agree.
        let occ = [NodeId(0), NodeId(1), NodeId(2)];
        let first = s.place_replica(&demand, &occ);
        assert_eq!(first, s.place_replica(&demand, &occ));
        assert_eq!(first, Some(NodeId(0)));
    }

    #[test]
    fn replica_placement_respects_feasibility_and_liveness() {
        let r = rig();
        heartbeat(&r.load, 0, 0, 0.0);
        heartbeat(&r.load, 1, 0, 1.0);
        let s = scheduler(&r, SchedulerPolicy::BottomUp);
        assert_eq!(s.place_replica(&Resources::gpus(1.0), &[]), Some(NodeId(1)));
        assert_eq!(s.place_replica(&Resources::gpus(2.0), &[]), None);
        r.load.mark_dead(NodeId(0));
        assert_eq!(s.place_replica(&Resources::cpus(1.0), &[]), Some(NodeId(1)));
    }

    #[test]
    fn retire_candidate_drains_hotspots_first() {
        let r = rig();
        heartbeat(&r.load, 0, 0, 0.0);
        let s = scheduler(&r, SchedulerPolicy::BottomUp);
        assert_eq!(s.retire_candidate(&[]), None);
        // Node 1 holds two replicas, node 2 one: retire from node 1.
        let occ = [NodeId(1), NodeId(2), NodeId(1)];
        let idx = s.retire_candidate(&occ).unwrap();
        assert_eq!(occ[idx], NodeId(1));
        // Balanced: highest node id drains first (reverse of placement).
        let occ = [NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(s.retire_candidate(&occ), Some(2));
    }

    #[test]
    fn decision_delay_is_applied() {
        let r = rig();
        heartbeat(&r.load, 0, 0, 0.0);
        let s = GlobalScheduler::new(
            SchedulerPolicy::BottomUp,
            r.load.clone(),
            r.client.clone(),
            Duration::from_millis(5),
            1,
        );
        let start = Instant::now();
        s.place(&task(vec![], Resources::cpus(1.0))).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn replicas_share_state() {
        let r = rig();
        heartbeat(&r.load, 0, 0, 0.0);
        let s1 = scheduler(&r, SchedulerPolicy::BottomUp);
        let s2 = s1.clone();
        s1.place(&task(vec![], Resources::cpus(1.0))).unwrap();
        s2.place(&task(vec![], Resources::cpus(1.0))).unwrap();
        assert_eq!(s1.decision_count(), 2);
    }
}
