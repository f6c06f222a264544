//! Property tests over the core invariants of the system layer, driven by
//! seeded [`DetRng`] inputs: each property runs a fixed number of cases,
//! and a failing case prints its seed so `DetRng::new(seed)` replays it.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use ray_repro::codec;
use ray_repro::common::util::DetRng;
use ray_repro::common::Resources;

/// Runs `property` once per seed in `0..cases`. A failing case prints its
/// seed before the panic propagates.
fn for_each_seed(cases: u64, mut property: impl FnMut(&mut DetRng)) {
    struct Report(u64);
    impl Drop for Report {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property failed at seed {}", self.0);
            }
        }
    }
    for seed in 0..cases {
        let _report = Report(seed);
        property(&mut DetRng::new(seed));
    }
}

/// Uniform draw in `[lo, hi)`.
fn range(rng: &mut DetRng, lo: u64, hi: u64) -> u64 {
    lo + rng.next_below(hi - lo)
}

/// Uniform draw in `[lo, hi)`.
fn range_f64(rng: &mut DetRng, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

/// Any `f64` bit pattern, with the edge values (signed zeros, infinities,
/// NaN, subnormals, extremes) drawn far more often than chance would.
fn any_f64(rng: &mut DetRng) -> f64 {
    const EDGES: [f64; 8] =
        [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, f64::MIN_POSITIVE, 5e-324, f64::MAX];
    if rng.next_below(4) == 0 {
        EDGES[rng.next_below(EDGES.len() as u64) as usize]
    } else {
        f64::from_bits(rng.next_u64())
    }
}

/// Up to `max_len` chars, any scalar value but `'\n'`: half ASCII, half
/// drawn from the whole Unicode range.
fn any_string(rng: &mut DetRng, max_len: u64) -> String {
    (0..rng.next_below(max_len + 1))
        .map(|_| {
            let c = if rng.next_below(2) == 0 {
                char::from(range(rng, 0x20, 0x7f) as u8)
            } else {
                char::from_u32(rng.next_below(0x11_0000) as u32).unwrap_or('\u{fffd}')
            };
            if c == '\n' { ' ' } else { c }
        })
        .collect()
}

fn vec_of<T>(rng: &mut DetRng, lens: (u64, u64), mut item: impl FnMut(&mut DetRng) -> T) -> Vec<T> {
    let len = range(rng, lens.0, lens.1);
    (0..len).map(|_| item(rng)).collect()
}

// ----------------------------------------------------------------------
// Codec: anything serde can express must round-trip exactly.
// ----------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Payload {
    Empty,
    Scalar(f64),
    Pair(i32, String),
    Record { name: String, values: Vec<u64>, flag: bool },
}

fn any_payload(rng: &mut DetRng) -> Payload {
    match rng.next_below(4) {
        0 => Payload::Empty,
        1 => Payload::Scalar(any_f64(rng)),
        2 => Payload::Pair(rng.next_u64() as i32, any_string(rng, 16)),
        _ => Payload::Record {
            name: any_string(rng, 12),
            values: vec_of(rng, (0, 8), DetRng::next_u64),
            flag: rng.next_below(2) == 1,
        },
    }
}

#[test]
fn codec_round_trips_arbitrary_enums() {
    for_each_seed(256, |rng| {
        let p = any_payload(rng);
        let bytes = codec::encode(&p).unwrap();
        let back: Payload = codec::decode(&bytes).unwrap();
        // NaN-aware comparison: encode both and compare bytes.
        assert_eq!(codec::encode(&back).unwrap(), bytes, "{p:?}");
    });
}

#[test]
fn codec_round_trips_collections() {
    for_each_seed(256, |rng| {
        let v = vec_of(rng, (0, 64), |r| r.next_u64() as i64);
        let m: BTreeMap<String, u32> =
            vec_of(rng, (0, 16), |r| (any_string(r, 8), r.next_u64() as u32)).into_iter().collect();
        let opt = (rng.next_below(2) == 1).then(|| rng.next_u64() as u16);
        let value = (v, m, opt);
        let bytes = codec::encode(&value).unwrap();
        let back: (Vec<i64>, BTreeMap<String, u32>, Option<u16>) = codec::decode(&bytes).unwrap();
        assert_eq!(back, value);
    });
}

#[test]
fn codec_rejects_any_truncation() {
    for_each_seed(256, |rng| {
        let v = vec_of(rng, (1, 64), |r| r.next_u64() as u8);
        let bytes = codec::encode(&v).unwrap();
        for cut in 0..bytes.len() {
            assert!(codec::decode::<Vec<u8>>(&bytes[..cut]).is_err(), "cut {cut} of {v:?}");
        }
    });
}

#[test]
fn tensor_round_trips_any_shape() {
    for_each_seed(256, |rng| {
        let data: Vec<f64> = vec_of(rng, (0, 256), |r| loop {
            let x = any_f64(r);
            if x.is_finite() {
                break x;
            }
        });
        let t = codec::tensor::TensorF64::from_vec(data.clone());
        let back = codec::tensor::TensorF64::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back.into_vec(), data);
    });
}

// ----------------------------------------------------------------------
// Resources: algebraic laws the scheduler's accounting relies on.
// ----------------------------------------------------------------------

fn any_resources(rng: &mut DetRng) -> Resources {
    let mut r = Resources::new(range_f64(rng, 0.0, 32.0), range_f64(rng, 0.0, 8.0));
    for (i, c) in vec_of(rng, (0, 3), |r| range_f64(r, 0.0, 4.0)).into_iter().enumerate() {
        r.set_custom(&format!("res{i}"), c);
    }
    r
}

#[test]
fn resources_sub_then_add_is_identity() {
    for_each_seed(256, |rng| {
        let (cap, demand) = (any_resources(rng), any_resources(rng));
        if let Some(rest) = cap.checked_sub(&demand) {
            assert_eq!(rest.add(&demand), cap);
        }
    });
}

#[test]
fn resources_fits_iff_checked_sub_succeeds() {
    for_each_seed(256, |rng| {
        let (cap, demand) = (any_resources(rng), any_resources(rng));
        assert_eq!(cap.fits(&demand), cap.checked_sub(&demand).is_some(), "{cap:?} {demand:?}");
    });
}

#[test]
fn resources_add_is_commutative() {
    for_each_seed(256, |rng| {
        let (a, b) = (any_resources(rng), any_resources(rng));
        assert_eq!(a.add(&b), b.add(&a));
    });
}

#[test]
fn resources_everything_fits_in_itself() {
    for_each_seed(256, |rng| {
        let r = any_resources(rng);
        assert!(r.fits(&r), "{r:?}");
        assert!(r.checked_sub(&r).unwrap().is_empty(), "{r:?}");
    });
}

// ----------------------------------------------------------------------
// Object store: LRU accounting and recoverability invariants.
// ----------------------------------------------------------------------

#[test]
fn store_accounting_and_recoverability() {
    use ray_repro::common::config::ObjectStoreConfig;
    use ray_repro::common::{NodeId, ObjectId};
    use ray_repro::object_store::store::LocalObjectStore;

    for_each_seed(64, |rng| {
        let sizes = vec_of(rng, (1, 32), |r| range(r, 1, 512) as usize);
        let capacity = range(rng, 512, 2048) as usize;
        let store = LocalObjectStore::new(
            NodeId(0),
            &ObjectStoreConfig { capacity_bytes: capacity, spill_enabled: true },
        );
        let mut inserted = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let id = ObjectId::random();
            let data = bytes::Bytes::from(vec![(i % 251) as u8; size]);
            store.put(id, data.clone()).unwrap();
            inserted.push((id, data));
            // Invariant: resident bytes never exceed capacity.
            assert!(store.resident_bytes() <= capacity);
        }
        // Invariant: every object remains readable (memory or spill) and
        // bit-identical.
        for (id, data) in &inserted {
            assert_eq!(store.get_local(*id).as_ref(), Some(data));
        }
    });
}

#[test]
fn store_churn_with_promotions_keeps_invariants() {
    use ray_repro::common::config::ObjectStoreConfig;
    use ray_repro::common::{NodeId, ObjectId};
    use ray_repro::object_store::store::LocalObjectStore;

    for_each_seed(64, |rng| {
        let sizes = vec_of(rng, (4, 48), |r| range(r, 1, 256) as usize);
        let reads = vec_of(rng, (0, 48), DetRng::next_u64);
        let capacity = range(rng, 256, 1024) as usize;
        let store = LocalObjectStore::new(
            NodeId(1),
            &ObjectStoreConfig { capacity_bytes: capacity, spill_enabled: true },
        );
        // Hammer `put` far past capacity while interleaving reads: a read
        // that hits the spill tier is promoted back to memory, which may
        // evict *other* residents — the accounting and recoverability
        // invariants must survive that churn, not just a pure put storm.
        let mut inserted = Vec::new();
        let mut reads = reads.into_iter();
        for (i, &size) in sizes.iter().enumerate() {
            let id = ObjectId::random();
            let data = bytes::Bytes::from(vec![(i % 199) as u8; size]);
            store.put(id, data.clone()).unwrap();
            inserted.push((id, data));
            assert!(store.resident_bytes() <= capacity);
            if let Some(ix) = reads.next() {
                let (rid, rdata) = &inserted[(ix % inserted.len() as u64) as usize];
                assert_eq!(store.get_local(*rid).as_ref(), Some(rdata));
                assert!(store.resident_bytes() <= capacity);
            }
        }
        for (id, data) in &inserted {
            assert_eq!(store.get_local(*id).as_ref(), Some(data));
            assert!(store.resident_bytes() <= capacity);
        }
    });
}

// ----------------------------------------------------------------------
// GCS chain: sequential consistency of writes through arbitrary
// crash points.
// ----------------------------------------------------------------------

#[test]
fn chain_preserves_all_acked_writes_across_crashes() {
    use ray_repro::common::config::GcsConfig;
    use ray_repro::common::metrics::MetricsRegistry;
    use ray_repro::common::ShardId;
    use ray_repro::gcs::chain::Chain;
    use ray_repro::gcs::kv::{Entry, Key, Table, UpdateOp};

    for_each_seed(16, |rng| {
        let writes = vec_of(rng, (5, 40), |r| r.next_u64() as u8);
        let crash_at = vec_of(rng, (0, 3), |r| r.next_below(40) as usize);
        let chain_len = range(rng, 2, 4) as usize;
        let cfg = GcsConfig { chain_length: chain_len, ..GcsConfig::default() };
        let chain = Chain::start(
            ShardId(0),
            &cfg,
            MetricsRegistry::new(),
            ray_repro::common::trace::TraceCollector::disabled(),
        )
        .unwrap();
        for (i, &v) in writes.iter().enumerate() {
            if crash_at.contains(&i) && chain.replica_count() > 0 {
                // Crash a pseudo-random member.
                chain.crash_member(i % chain_len);
            }
            chain
                .write(UpdateOp::Put {
                    key: Key::new(Table::Task, vec![i as u8]),
                    value: bytes::Bytes::from(vec![v]),
                })
                .unwrap();
        }
        // Every acknowledged write must be readable with its final value.
        for (i, &v) in writes.iter().enumerate() {
            let got = chain.read(&Key::new(Table::Task, vec![i as u8])).unwrap();
            assert_eq!(got, Some(Entry::Blob(bytes::Bytes::from(vec![v]))), "write {i}");
        }
        chain.shutdown();
    });
}

// ----------------------------------------------------------------------
// Scheduler: placement decisions respect feasibility and liveness for
// arbitrary cluster states.
// ----------------------------------------------------------------------

#[test]
fn global_placement_is_always_feasible_and_live() {
    use ray_repro::common::config::{GcsConfig, SchedulerPolicy};
    use ray_repro::common::{NodeId, TaskId};
    use ray_repro::gcs::Gcs;
    use ray_repro::scheduler::{GlobalScheduler, LoadTable, NodeLoad, TaskDescriptor};
    use std::sync::Arc;
    use std::time::Duration;

    for_each_seed(32, |rng| {
        let node_specs = vec_of(rng, (1, 6), |r| {
            (range_f64(r, 0.0, 8.0), range_f64(r, 0.0, 2.0), r.next_below(2) == 1, r.next_below(50) as usize)
        });
        let demand = Resources::new(range_f64(rng, 0.0, 4.0), range_f64(rng, 0.0, 2.0));
        let gcs = Gcs::start(&GcsConfig { num_shards: 1, chain_length: 1, ..GcsConfig::default() })
            .unwrap();
        let load = Arc::new(LoadTable::new(0.2));
        for (i, &(cpu, gpu, alive, queue)) in node_specs.iter().enumerate() {
            load.heartbeat(NodeLoad {
                node: NodeId(i as u32),
                queue_len: queue,
                available: Resources::new(cpu, gpu),
                capacity: Resources::new(cpu, gpu),
                alive,
            });
        }
        for policy in [
            SchedulerPolicy::BottomUp,
            SchedulerPolicy::Centralized,
            SchedulerPolicy::LocalityUnaware,
        ] {
            let s = GlobalScheduler::new(policy, load.clone(), gcs.client(), Duration::ZERO, 7);
            let placed = s
                .place(&TaskDescriptor {
                    task: TaskId::random(),
                    demand: demand.clone(),
                    inputs: vec![],
                    submitted_from: NodeId(0),
                })
                .unwrap();
            match placed {
                Some(node) => {
                    let spec = &node_specs[node.index()];
                    // Invariant: chosen node is alive and can ever fit the task.
                    assert!(spec.2, "{policy:?} placed on dead node");
                    assert!(
                        Resources::new(spec.0, spec.1).fits(&demand),
                        "{policy:?} placed on infeasible node"
                    );
                }
                None => {
                    // Invariant: None only when no live node could fit it.
                    let feasible = node_specs
                        .iter()
                        .any(|&(c, g, alive, _)| alive && Resources::new(c, g).fits(&demand));
                    assert!(!feasible, "{policy:?} gave up despite a feasible node");
                }
            }
        }
        gcs.shutdown();
    });
}

// ----------------------------------------------------------------------
// Codec ↔ task specs: lineage entries survive arbitrary argument shapes.
// ----------------------------------------------------------------------

#[test]
fn task_specs_round_trip_with_arbitrary_args() {
    use ray_repro::common::{FunctionId, ObjectId, TaskId};
    use ray_repro::ray::task::{Arg, TaskKind, TaskSpec};

    for_each_seed(64, |rng| {
        let arg_blobs = vec_of(rng, (0, 6), |r| vec_of(r, (0, 64), |r| r.next_u64() as u8));
        let refs = rng.next_below(4) as usize;
        let num_returns = range(rng, 1, 5);
        let name: String = (0..range(rng, 1, 17))
            .map(|_| b"abcdefghijklmnopqrstuvwxyz_"[rng.next_below(27) as usize] as char)
            .collect();

        let mut args: Vec<Arg> =
            arg_blobs.into_iter().map(|b| Arg::Value(ray_repro::codec::Blob(b))).collect();
        for _ in 0..refs {
            args.push(Arg::ObjectRef(ObjectId::random()));
        }
        let spec = TaskSpec {
            task: TaskId::random(),
            kind: TaskKind::Normal,
            function: FunctionId::for_name(&name),
            function_name: name,
            args,
            num_returns,
            demand: Resources::cpus(1.0),
            deadline_micros: None,
            critical: false,
        };
        let decoded = TaskSpec::decode(&spec.encode().unwrap()).unwrap();
        assert_eq!(&decoded, &spec);
        // Deterministic identity: returns and inputs survive the trip.
        assert_eq!(decoded.return_ids(), spec.return_ids());
        assert_eq!(decoded.input_ids().len(), refs);
    });
}

// ----------------------------------------------------------------------
// Algorithms: BSP ring allreduce equals the sequential sum; GAE matches a
// naive quadratic reference.
// ----------------------------------------------------------------------

#[test]
fn bsp_allreduce_equals_sequential_sum() {
    use ray_repro::bsp::BspWorld;
    use ray_repro::common::config::TransportConfig;
    use ray_repro::rl::envs::EnvRng;

    for_each_seed(16, |rng| {
        let n = range(rng, 2, 6) as usize;
        let len = range(rng, 1, 40) as usize;
        let mut env_rng = EnvRng::new(rng.next_u64());
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..len).map(|_| env_rng.uniform(-10.0, 10.0)).collect())
            .collect();
        let expected: Vec<f64> = (0..len).map(|i| inputs.iter().map(|v| v[i]).sum()).collect();
        let world = BspWorld::new(
            n,
            &TransportConfig {
                latency: std::time::Duration::from_micros(1),
                ..TransportConfig::default()
            },
        );
        let inputs_ref = &inputs;
        let results = world.run(move |rank| {
            let mut data = inputs_ref[rank.rank()].clone();
            rank.allreduce_sum(&mut data);
            data
        });
        for r in results {
            for (a, b) in r.iter().zip(expected.iter()) {
                assert!((a - b).abs() < 1e-6, "{a} vs {b} (n {n}, len {len})");
            }
        }
    });
}

#[test]
fn gae_matches_naive_reference() {
    use ray_repro::rl::ppo::gae;

    for_each_seed(16, |rng| {
        let rewards = vec_of(rng, (1, 30), |r| range_f64(r, -5.0, 5.0));
        let values = vec_of(rng, (30, 31), |r| range_f64(r, -5.0, 5.0));
        let gamma = range_f64(rng, 0.1, 0.99);
        let lam = range_f64(rng, 0.1, 0.99);
        let done_every = range(rng, 2, 8) as usize;
        let n = rewards.len();
        let values = &values[..n];
        let dones: Vec<bool> = (0..n).map(|i| (i + 1) % done_every == 0 || i + 1 == n).collect();

        let (adv, _) = gae(&rewards, values, &dones, gamma, lam);

        // Naive O(n²) reference: advantage i sums discounted deltas until
        // the episode boundary.
        for (i, &got) in adv.iter().enumerate().take(n) {
            let mut expected = 0.0;
            let mut factor = 1.0;
            for j in i..n {
                let next_v = if dones[j] { 0.0 } else { values.get(j + 1).copied().unwrap_or(0.0) };
                let nonterminal = if dones[j] { 0.0 } else { 1.0 };
                let delta = rewards[j] + gamma * next_v * nonterminal - values[j];
                expected += factor * delta;
                if dones[j] {
                    break;
                }
                factor *= gamma * lam;
            }
            assert!((got - expected).abs() < 1e-9, "adv[{i}] = {got} vs naive {expected}");
        }
    });
}
