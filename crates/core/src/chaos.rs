//! Deterministic seeded chaos schedules for robustness testing.
//!
//! A [`ChaosSchedule`] is a time-ordered list of faults — orderly kills,
//! abrupt crashes, restarts, link partitions, and heals — applied to a
//! running [`Cluster`]. Schedules are either hand-written
//! ([`ChaosSchedule::from_events`]) or generated from a seed
//! ([`ChaosSchedule::generate`]), and generation is fully deterministic:
//! the same seed always yields the same faults at the same offsets, which
//! is what makes a chaos failure reproducible by rerunning the test.
//!
//! Generated schedules keep two guarantees so workloads can be expected to
//! finish: node 0 (the driver's home) is never touched, and every fault is
//! paired with a later repair (kill → restart, partition → heal). The
//! [`repair`] helper restores a cluster to full strength after a schedule
//! runs, for quiesce assertions.

use std::time::{Duration, Instant};

use ray_common::util::DetRng;
use ray_common::{NodeId, ShardId};

use crate::cluster::Cluster;

/// One fault (or repair) applied to a running cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Orderly kill: the death protocol runs inline ([`Cluster::kill_node`]).
    Kill(NodeId),
    /// Crash: the node vanishes silently; only the heartbeat failure
    /// detector discovers it ([`Cluster::kill_node_abrupt`]).
    KillAbrupt(NodeId),
    /// Restart a previously killed node slot.
    Restart(NodeId),
    /// Sever the link between two nodes.
    Partition(NodeId, NodeId),
    /// Repair the link between two nodes.
    Heal(NodeId, NodeId),
    /// Crash one replica of a GCS shard's chain; the next client operation
    /// times out and splices in a replacement via state transfer.
    CrashGcsReplica(ShardId, usize),
    /// Crash every replica of a GCS shard at once; clients stall until the
    /// chain rebuilds itself from the shard's disk log.
    CrashGcsShard(ShardId),
    /// Pause the GCS background flusher (memory grows unchecked).
    StallFlusher,
    /// Resume a stalled flusher.
    ResumeFlusher,
    /// Straggler injection: every task starting on the node pays this much
    /// extra latency before it begins executing. Repaired by
    /// `DelayWorker(node, Duration::ZERO)`.
    DelayWorker(NodeId, Duration),
}

/// A chaos action with its fire time, relative to [`ChaosSchedule::run`]'s
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Offset from schedule start.
    pub at: Duration,
    /// What happens then.
    pub action: ChaosAction,
}

/// A time-ordered schedule of chaos events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosSchedule {
    events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// Builds a schedule from explicit events (sorted by fire time; ties
    /// keep their given order).
    pub fn from_events(mut events: Vec<ChaosEvent>) -> ChaosSchedule {
        events.sort_by_key(|e| e.at);
        ChaosSchedule { events }
    }

    /// The events, in fire order.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Generates `faults` seeded faults over roughly `duration` against a
    /// cluster of `nodes` nodes. Deterministic per seed. Node 0 is never a
    /// victim, every kill gets a later restart, and every partition burst
    /// gets a later heal + restart (an isolated node loses the heartbeat
    /// majority, is declared dead, and must be brought back explicitly).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::time::Duration;
    /// use rustray::chaos::ChaosSchedule;
    ///
    /// let a = ChaosSchedule::generate(42, 4, Duration::from_secs(2), 3);
    /// let b = ChaosSchedule::generate(42, 4, Duration::from_secs(2), 3);
    /// assert_eq!(a, b);
    /// assert!(!a.events().is_empty());
    /// ```
    pub fn generate(seed: u64, nodes: u32, duration: Duration, faults: usize) -> ChaosSchedule {
        if nodes < 2 {
            return ChaosSchedule::default();
        }
        Faults::draw(seed, duration, faults, |f| {
            let victim = f.victim(nodes);
            match f.rng.next_below(3) {
                class @ (0 | 1) => f.kill(victim, class == 1),
                _ => f.isolate(victim, nodes),
            }
        })
    }

    /// Like [`ChaosSchedule::generate`], but mixes control-plane faults
    /// into the schedule: GCS replica crashes, flusher stalls (paired with
    /// a later resume), and — when `include_shard_crashes` is set —
    /// whole-shard crashes. Whole-shard crashes lose any state not yet
    /// flushed to the shard's disk log, so soaks that assert exact
    /// workload results should leave the flag off and cover shard loss
    /// with a controlled flush-first test instead.
    ///
    /// Replica indices are drawn from `0..2` (the default chain length);
    /// out-of-range indices are no-ops at apply time. Node 0 is still
    /// never a victim, and node kills keep their paired restarts.
    pub fn generate_with_gcs(
        seed: u64,
        nodes: u32,
        shards: u32,
        duration: Duration,
        faults: usize,
        include_shard_crashes: bool,
    ) -> ChaosSchedule {
        if nodes < 2 || shards == 0 {
            return ChaosSchedule::generate(seed, nodes, duration, faults);
        }
        Faults::draw(seed, duration, faults, |f| {
            match f.rng.next_below(if include_shard_crashes { 6 } else { 5 }) {
                class @ (0 | 1) => {
                    let victim = f.victim(nodes);
                    f.kill(victim, class == 1)
                }
                2 => {
                    let victim = f.victim(nodes);
                    f.isolate(victim, nodes)
                }
                3 => f.crash_replica(shards),
                4 => f.pair(ChaosAction::StallFlusher, ChaosAction::ResumeFlusher),
                _ => {
                    let shard = f.shard(shards);
                    f.fault(ChaosAction::CrashGcsShard(shard))
                }
            }
        })
    }

    /// Generates a serving-oriented schedule: replica-node kills (orderly
    /// and abrupt, each with a paired restart), straggler injections
    /// (`DelayWorker`, each paired with a zero-delay repair so hedging is
    /// exercised but the node recovers), and GCS replica crashes (the
    /// chain splices in a replacement). Node 0 — where the pool's driver
    /// and router live — is never a victim, and whole-shard crashes are
    /// excluded so a soak can inject them at a controlled, flushed point.
    pub fn generate_serve(
        seed: u64,
        nodes: u32,
        shards: u32,
        duration: Duration,
        faults: usize,
    ) -> ChaosSchedule {
        if nodes < 2 {
            return ChaosSchedule::default();
        }
        Faults::draw(seed, duration, faults, |f| {
            let victim = f.victim(nodes);
            match f.rng.next_below(if shards > 0 { 4 } else { 3 }) {
                class @ (0 | 1) => f.kill(victim, class == 1),
                2 => {
                    // Straggle hard enough (2–10ms) that a hedged second
                    // attempt on a healthy replica beats the delayed one.
                    let delay = Duration::from_micros(2_000 + f.rng.next_below(8_000));
                    f.pair(
                        ChaosAction::DelayWorker(victim, delay),
                        ChaosAction::DelayWorker(victim, Duration::ZERO),
                    )
                }
                _ => f.crash_replica(shards),
            }
        })
    }

    /// Applies the schedule to a running cluster, sleeping between events.
    /// Blocking: run it from its own thread alongside the workload.
    /// Restart errors (slot already live again) are ignored — overlapping
    /// faults make them legitimate.
    pub fn run(&self, cluster: &Cluster) {
        let start = Instant::now();
        for ev in &self.events {
            let wait = ev.at.saturating_sub(start.elapsed());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            apply(cluster, ev.action);
        }
    }
}

/// The generators' shared vocabulary: one seeded draw per fault, and the
/// faults every generator spells the same way.
struct Faults {
    rng: DetRng,
    events: Vec<ChaosEvent>,
    /// The current fault's fire time.
    at: Duration,
    /// The current fault's repair time.
    repair_at: Duration,
}

impl Faults {
    /// Draws `faults` faults over `duration`, each chosen by `each`.
    fn draw(
        seed: u64,
        duration: Duration,
        faults: usize,
        mut each: impl FnMut(&mut Faults),
    ) -> ChaosSchedule {
        let mut f = Faults {
            rng: DetRng::new(seed),
            events: Vec::new(),
            at: Duration::ZERO,
            repair_at: Duration::ZERO,
        };
        for _ in 0..faults {
            // Fire in the first 70% of the window; repair 10–25% later, so
            // the tail is all recovery and the cluster converges.
            f.at = duration.mul_f64(0.7 * f.rng.next_f64());
            f.repair_at = f.at + duration.mul_f64(0.10 + 0.15 * f.rng.next_f64());
            each(&mut f);
        }
        ChaosSchedule::from_events(f.events)
    }

    /// Any node but node 0, the driver's home.
    fn victim(&mut self, nodes: u32) -> NodeId {
        NodeId(1 + self.rng.next_below(u64::from(nodes - 1)) as u32)
    }

    /// A fault with no paired repair.
    fn fault(&mut self, action: ChaosAction) {
        self.events.push(ChaosEvent { at: self.at, action });
    }

    /// A fault now and its repair later.
    fn pair(&mut self, fault: ChaosAction, repair: ChaosAction) {
        self.fault(fault);
        self.events.push(ChaosEvent { at: self.repair_at, action: repair });
    }

    /// An orderly or abrupt kill, restarted later.
    fn kill(&mut self, victim: NodeId, abrupt: bool) {
        let kill = if abrupt { ChaosAction::KillAbrupt(victim) } else { ChaosAction::Kill(victim) };
        self.pair(kill, ChaosAction::Restart(victim));
    }

    /// Full isolation: sever the victim from every peer, so it loses the
    /// heartbeat majority and the detector declares it dead. Heal
    /// everything later and restart.
    fn isolate(&mut self, victim: NodeId, nodes: u32) {
        for other in (0..nodes).filter(|&n| n != victim.0) {
            let other = NodeId(other);
            self.pair(ChaosAction::Partition(victim, other), ChaosAction::Heal(victim, other));
        }
        let at = self.repair_at + Duration::from_millis(1);
        self.events.push(ChaosEvent { at, action: ChaosAction::Restart(victim) });
    }

    /// Any of `shards` GCS shards.
    fn shard(&mut self, shards: u32) -> ShardId {
        ShardId(self.rng.next_below(u64::from(shards)) as u32)
    }

    /// One replica of a random shard's chain, drawn from `0..2` (the
    /// default chain length).
    fn crash_replica(&mut self, shards: u32) {
        let shard = self.shard(shards);
        let idx = self.rng.next_below(2) as usize;
        self.fault(ChaosAction::CrashGcsReplica(shard, idx));
    }
}

/// Applies one action to a cluster. GCS shard indices out of range for the
/// cluster's layout are ignored (a schedule generated for a different
/// shard count must not panic mid-run).
pub fn apply(cluster: &Cluster, action: ChaosAction) {
    match action {
        ChaosAction::Kill(n) => cluster.kill_node(n),
        ChaosAction::KillAbrupt(n) => cluster.kill_node_abrupt(n),
        ChaosAction::Restart(n) => {
            let _ = cluster.restart_node(n);
        }
        ChaosAction::Partition(a, b) => cluster.fabric().partition(a, b),
        ChaosAction::Heal(a, b) => cluster.fabric().heal(a, b),
        ChaosAction::CrashGcsReplica(shard, idx) => {
            if (shard.0 as usize) < cluster.gcs().num_shards() {
                cluster.gcs().shard(shard).crash_member(idx);
            }
        }
        ChaosAction::CrashGcsShard(shard) => {
            if (shard.0 as usize) < cluster.gcs().num_shards() {
                cluster.gcs().crash_shard(shard);
            }
        }
        ChaosAction::StallFlusher => cluster.gcs().stall_flusher(),
        ChaosAction::ResumeFlusher => cluster.gcs().resume_flusher(),
        ChaosAction::DelayWorker(n, d) => cluster.set_worker_delay(n, d),
    }
}

/// Restores a cluster to full strength after a schedule: heals every link
/// among the first `nodes` nodes, restarts every empty slot (node 0
/// included, though generated schedules never kill it), resumes the GCS
/// flusher, and forces recovery of any GCS shard whose chain died.
pub fn repair(cluster: &Cluster, nodes: u32) {
    for a in 0..nodes {
        for b in (a + 1)..nodes {
            cluster.fabric().heal(NodeId(a), NodeId(b));
        }
    }
    for n in 0..nodes {
        let _ = cluster.restart_node(NodeId(n));
        cluster.set_worker_delay(NodeId(n), Duration::ZERO);
    }
    cluster.gcs().resume_flusher();
    cluster.gcs().heal_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let d = Duration::from_secs(3);
        assert_eq!(ChaosSchedule::generate(7, 5, d, 6), ChaosSchedule::generate(7, 5, d, 6));
        assert_ne!(ChaosSchedule::generate(7, 5, d, 6), ChaosSchedule::generate(8, 5, d, 6));
    }

    #[test]
    fn events_are_time_ordered() {
        let s = ChaosSchedule::generate(1234, 6, Duration::from_secs(2), 8);
        let times: Vec<Duration> = s.events().iter().map(|e| e.at).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
    }

    #[test]
    fn node_zero_is_never_a_victim() {
        for seed in [3u64, 17, 99, 2024] {
            let s = ChaosSchedule::generate(seed, 4, Duration::from_secs(2), 10);
            for ev in s.events() {
                match ev.action {
                    ChaosAction::Kill(n)
                    | ChaosAction::KillAbrupt(n)
                    | ChaosAction::Restart(n) => assert_ne!(n, NodeId(0), "seed {seed}"),
                    // Partitions may involve node 0 as the far end, but
                    // never as the isolated victim.
                    ChaosAction::Partition(v, _) | ChaosAction::Heal(v, _) => {
                        assert_ne!(v, NodeId(0), "seed {seed}")
                    }
                    // Control-plane faults target shards, not nodes, and
                    // generated schedules never inject stragglers.
                    ChaosAction::CrashGcsReplica(..)
                    | ChaosAction::CrashGcsShard(_)
                    | ChaosAction::StallFlusher
                    | ChaosAction::ResumeFlusher
                    | ChaosAction::DelayWorker(..) => {}
                }
            }
        }
    }

    #[test]
    fn every_kill_has_a_later_restart() {
        for seed in [11u64, 42, 1337] {
            let s = ChaosSchedule::generate(seed, 5, Duration::from_secs(2), 8);
            for (i, ev) in s.events().iter().enumerate() {
                let killed = match ev.action {
                    ChaosAction::Kill(n) | ChaosAction::KillAbrupt(n) => n,
                    _ => continue,
                };
                assert!(
                    s.events()[i..].iter().any(|later| {
                        later.at >= ev.at && later.action == ChaosAction::Restart(killed)
                    }),
                    "seed {seed}: kill of {killed} at {:?} has no later restart",
                    ev.at
                );
            }
        }
    }

    #[test]
    fn every_partition_has_a_later_heal() {
        let s = ChaosSchedule::generate(77, 4, Duration::from_secs(2), 10);
        for (i, ev) in s.events().iter().enumerate() {
            let (a, b) = match ev.action {
                ChaosAction::Partition(a, b) => (a, b),
                _ => continue,
            };
            assert!(s.events()[i..]
                .iter()
                .any(|later| later.action == ChaosAction::Heal(a, b)));
        }
    }

    #[test]
    fn gcs_generation_is_deterministic_per_seed() {
        let d = Duration::from_secs(3);
        assert_eq!(
            ChaosSchedule::generate_with_gcs(7, 5, 4, d, 12, true),
            ChaosSchedule::generate_with_gcs(7, 5, 4, d, 12, true)
        );
        assert_ne!(
            ChaosSchedule::generate_with_gcs(7, 5, 4, d, 12, true),
            ChaosSchedule::generate_with_gcs(8, 5, 4, d, 12, true)
        );
    }

    #[test]
    fn gcs_generation_mixes_in_control_plane_faults() {
        let s = ChaosSchedule::generate_with_gcs(42, 4, 4, Duration::from_secs(2), 30, true);
        let has_replica_crash = s
            .events()
            .iter()
            .any(|e| matches!(e.action, ChaosAction::CrashGcsReplica(..)));
        let has_node_fault = s.events().iter().any(|e| {
            matches!(e.action, ChaosAction::Kill(_) | ChaosAction::KillAbrupt(_))
        });
        assert!(has_replica_crash, "no GCS replica crashes in 30 faults");
        assert!(has_node_fault, "no node faults in 30 faults");
    }

    #[test]
    fn shard_crashes_only_appear_when_requested() {
        for seed in [3u64, 17, 99] {
            let s =
                ChaosSchedule::generate_with_gcs(seed, 4, 4, Duration::from_secs(2), 20, false);
            assert!(
                !s.events()
                    .iter()
                    .any(|e| matches!(e.action, ChaosAction::CrashGcsShard(_))),
                "seed {seed}: shard crash generated with flag off"
            );
        }
    }

    #[test]
    fn gcs_generation_keeps_node_zero_safe_and_pairs_stalls() {
        for seed in [3u64, 17, 99, 2024] {
            let s =
                ChaosSchedule::generate_with_gcs(seed, 4, 2, Duration::from_secs(2), 15, true);
            for (i, ev) in s.events().iter().enumerate() {
                match ev.action {
                    ChaosAction::Kill(n)
                    | ChaosAction::KillAbrupt(n)
                    | ChaosAction::Restart(n) => assert_ne!(n, NodeId(0), "seed {seed}"),
                    ChaosAction::Partition(v, _) | ChaosAction::Heal(v, _) => {
                        assert_ne!(v, NodeId(0), "seed {seed}")
                    }
                    ChaosAction::StallFlusher => {
                        assert!(
                            s.events()[i..]
                                .iter()
                                .any(|later| later.action == ChaosAction::ResumeFlusher),
                            "seed {seed}: stall without a later resume"
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn serve_generation_is_deterministic_and_always_repairs() {
        let d = Duration::from_secs(2);
        assert_eq!(
            ChaosSchedule::generate_serve(7, 4, 2, d, 12),
            ChaosSchedule::generate_serve(7, 4, 2, d, 12)
        );
        for seed in [3u64, 17, 99, 2024] {
            let s = ChaosSchedule::generate_serve(seed, 4, 2, d, 15);
            for (i, ev) in s.events().iter().enumerate() {
                match ev.action {
                    ChaosAction::Kill(n) | ChaosAction::KillAbrupt(n) => {
                        assert_ne!(n, NodeId(0), "seed {seed}");
                        assert!(
                            s.events()[i..]
                                .iter()
                                .any(|later| later.action == ChaosAction::Restart(n)),
                            "seed {seed}: kill of {n} has no later restart"
                        );
                    }
                    ChaosAction::Restart(n) => assert_ne!(n, NodeId(0), "seed {seed}"),
                    ChaosAction::DelayWorker(n, delay) => {
                        assert_ne!(n, NodeId(0), "seed {seed}");
                        if !delay.is_zero() {
                            assert!(
                                s.events()[i..].iter().any(|later| later.action
                                    == ChaosAction::DelayWorker(n, Duration::ZERO)),
                                "seed {seed}: straggle on {n} never repaired"
                            );
                        }
                    }
                    ChaosAction::CrashGcsReplica(shard, _) => assert!(shard.0 < 2),
                    other => panic!("seed {seed}: unexpected serve action {other:?}"),
                }
            }
        }
    }

    /// Pins every generator's draw order: one FNV-64 folded over the
    /// `Debug` text of each generated schedule on a grid of seeds and
    /// shapes, so a moved draw changes the value.
    #[test]
    fn generated_schedules_match_their_fingerprint() {
        let d = Duration::from_secs(2);
        let mut hash = 0u64;
        for seed in 0..100u64 {
            for nodes in [1u32, 2, 3, 4, 6] {
                for faults in [0usize, 1, 3, 8] {
                    let mut all = vec![ChaosSchedule::generate(seed, nodes, d, faults)];
                    for shards in [0u32, 1, 4] {
                        all.push(ChaosSchedule::generate_serve(seed, nodes, shards, d, faults));
                        for crash in [false, true] {
                            all.push(ChaosSchedule::generate_with_gcs(
                                seed, nodes, shards, d, faults, crash,
                            ));
                        }
                    }
                    for s in all {
                        hash = ray_common::util::fnv1a_64(format!("{hash:x}{s:?}").as_bytes());
                    }
                }
            }
        }
        assert_eq!(hash, 0xd1e0_5804_6f0c_199d);
    }

    #[test]
    fn tiny_clusters_get_empty_schedules() {
        assert!(ChaosSchedule::generate(5, 1, Duration::from_secs(1), 4).events().is_empty());
        assert!(ChaosSchedule::generate(5, 0, Duration::from_secs(1), 4).events().is_empty());
    }

    #[test]
    fn from_events_sorts_by_time() {
        let s = ChaosSchedule::from_events(vec![
            ChaosEvent { at: Duration::from_millis(50), action: ChaosAction::Kill(NodeId(2)) },
            ChaosEvent { at: Duration::from_millis(10), action: ChaosAction::KillAbrupt(NodeId(1)) },
        ]);
        assert_eq!(s.events()[0].at, Duration::from_millis(10));
        assert_eq!(s.events()[1].at, Duration::from_millis(50));
    }
}
