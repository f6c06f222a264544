//! Property tests for `Fabric` partitions and chaos injection, driven by
//! seeded [`DetRng`] inputs; a failing case prints its seed.
//!
//! Invariants: `connected` is symmetric under arbitrary partition sets and
//! kills, `heal` restores transfer on a severed link, and seeded drop
//! injection is deterministic (and inert at probability zero).

use std::time::Duration;

use ray_common::config::{ChaosConfig, TransportConfig};
use ray_common::util::DetRng;
use ray_common::NodeId;
use ray_transport::Fabric;

const N: u32 = 8;

/// Cases per property.
const CASES: u64 = 256;

fn cfg() -> TransportConfig {
    TransportConfig { latency: Duration::from_micros(1), ..TransportConfig::default() }
}

fn chaos(drop_p: f64, seed: u64) -> TransportConfig {
    TransportConfig {
        chaos: ChaosConfig { drop_probability: drop_p, seed },
        ..cfg()
    }
}

/// Runs `property` once per seed in `0..CASES`. A failing case prints its
/// seed before the panic propagates.
fn for_each_seed(mut property: impl FnMut(&mut DetRng)) {
    struct Report(u64);
    impl Drop for Report {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property failed at seed {}", self.0);
            }
        }
    }
    for seed in 0..CASES {
        let _report = Report(seed);
        property(&mut DetRng::new(seed));
    }
}

fn node(rng: &mut DetRng) -> u32 {
    rng.next_below(u64::from(N)) as u32
}

#[test]
fn connected_is_symmetric() {
    for_each_seed(|rng| {
        let cuts: Vec<(u32, u32)> = (0..rng.next_below(24)).map(|_| (node(rng), node(rng))).collect();
        let kills: Vec<u32> = (0..rng.next_below(4)).map(|_| node(rng)).collect();
        let (a, b) = (node(rng), node(rng));
        let f = Fabric::new(N as usize, &cfg());
        f.set_virtual_time(true);
        for (x, y) in cuts {
            if x != y {
                f.partition(NodeId(x), NodeId(y));
            }
        }
        for k in kills {
            f.kill_node(NodeId(k));
        }
        assert_eq!(f.connected(NodeId(a), NodeId(b)), f.connected(NodeId(b), NodeId(a)), "{a} {b}");
    });
}

#[test]
fn heal_restores_transfer() {
    for_each_seed(|rng| {
        // Two distinct nodes: b is drawn from the N - 1 others.
        let a = node(rng);
        let b = (a + 1 + rng.next_below(u64::from(N) - 1) as u32) % N;
        let bytes = 1 + rng.next_below(4095) as usize;
        let f = Fabric::new(N as usize, &cfg());
        f.set_virtual_time(true);
        f.partition(NodeId(a), NodeId(b));
        assert!(f.transfer(NodeId(a), NodeId(b), bytes, 1).is_err());
        assert!(f.transfer(NodeId(b), NodeId(a), bytes, 1).is_err());
        f.heal(NodeId(a), NodeId(b));
        assert!(f.transfer(NodeId(a), NodeId(b), bytes, 1).is_ok());
        assert!(f.transfer(NodeId(b), NodeId(a), bytes, 1).is_ok());
    });
}

#[test]
fn drop_injection_respects_the_seed() {
    for_each_seed(|rng| {
        let seed = rng.next_u64();
        let p = 0.05 + rng.next_f64() * 0.9;
        let run = |seed: u64| -> Vec<bool> {
            let f = Fabric::new(2, &chaos(p, seed));
            f.set_virtual_time(true);
            (0..48).map(|_| f.transfer(NodeId(0), NodeId(1), 16, 1).is_err()).collect()
        };
        assert_eq!(run(seed), run(seed), "chaos seed {seed}, p {p}");
    });
}

#[test]
fn zero_probability_never_drops() {
    for_each_seed(|rng| {
        let f = Fabric::new(2, &chaos(0.0, rng.next_u64()));
        f.set_virtual_time(true);
        for _ in 0..1 + rng.next_below(63) {
            assert!(f.transfer(NodeId(0), NodeId(1), 16, 1).is_ok());
        }
        assert_eq!(f.message_drop_count(), 0);
    });
}

#[test]
fn unpartitioned_nodes_reach_the_majority() {
    for_each_seed(|rng| {
        let node = node(rng);
        let f = Fabric::new(N as usize, &cfg());
        assert!(f.reaches_majority(NodeId(node)), "{node}");
    });
}

#[test]
fn fully_isolated_node_loses_the_majority() {
    for_each_seed(|rng| {
        let node = node(rng);
        let f = Fabric::new(N as usize, &cfg());
        for other in 0..N {
            if other != node {
                f.partition(NodeId(node), NodeId(other));
            }
        }
        assert!(!f.reaches_majority(NodeId(node)), "{node}");
        // Everyone else lost only one peer out of N-2 reachable: still fine.
        for other in 0..N {
            if other != node {
                assert!(f.reaches_majority(NodeId(other)), "{node} isolated, {other}");
            }
        }
    });
}
