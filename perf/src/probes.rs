//! Layer probes: each layer built standalone from its public
//! constructors and timed from outside, call by call, with no cluster
//! around it (the `core` probe aside, whose layer *is* the cluster). The
//! median call is reported. Summed along the submit path they make the
//! per-op cost ledger that is held against `core.submit_call_us`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ray_codec::tensor::TensorF64;
use ray_codec::Blob;
use ray_common::config::{GcsConfig, ObjectStoreConfig, SchedulerPolicy, TransportConfig};
use ray_common::metrics::MetricsRegistry;
use ray_common::trace::{TraceCollector, TraceEntity, TraceEventKind};
use ray_common::{ActorId, NodeId, ObjectId, RayConfig, Resources, ShardId, TaskId};
use ray_gcs::chain::Chain;
use ray_gcs::kv::{Key, Table, UpdateOp};
use ray_gcs::Gcs;
use ray_object_store::store::copy_payload_with_threads;
use ray_object_store::{LocalObjectStore, StoreDirectory, TransferManager};
use ray_scheduler::{
    decide_local, GlobalScheduler, LoadTable, NodeLoad, ResourceLedger, TaskDescriptor,
};
use ray_serve::LatencyDigest;
use ray_transport::{Fabric, Semaphore};
use rustray::registry::{encode_return, RemoteResult};
use rustray::task::{Arg, ObjectRef, TaskKind, TaskOptions, TaskSpec};
use rustray::{ActorInstance, Cluster, RayContext};

use crate::stats;

/// Calls per probe: of an operation taking under a microsecond or so, of
/// one that crosses threads (tens of microseconds, so 10 000 calls of
/// each would take the run past its time), and of a MiB-sized one.
const CALLS: usize = 10_000;
const SLOW_CALLS: usize = 3_000;
const BIG_CALLS: usize = 200;
const MIB: usize = 1 << 20;
const WAIT: Duration = Duration::from_secs(30);

pub type Metrics = Vec<(&'static str, f64)>;

/// Median nanoseconds per call of `f`, over `calls` calls timed in
/// batches of `batch` (batches hide the clock's own cost for operations
/// that take nanoseconds; use 1 for anything slower).
fn p50_ns(calls: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(calls / batch);
    for b in 0..calls / batch {
        let t = Instant::now();
        for i in 0..batch {
            f(b * batch + i);
        }
        per_call.push(t.elapsed().as_nanos() as u64 / batch as u64);
    }
    stats::percentile(&per_call, 0.5).unwrap_or(0) as f64
}

/// Like [`p50_ns`] with one call per sample and untimed work around it:
/// `f` returns the nanoseconds it measured itself.
fn p50_of(calls: usize, mut f: impl FnMut(usize) -> u64) -> f64 {
    let samples: Vec<u64> = (0..calls).map(&mut f).collect();
    stats::percentile(&samples, 0.5).unwrap_or(0) as f64
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_nanos() as u64)
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / 1e6 / (ns / 1e9).max(1e-12)
}

fn task(i: usize) -> TaskId {
    TaskId::for_child(TaskId::NIL, i as u64)
}

fn object(i: usize) -> ObjectId {
    ObjectId::for_task_return(task(i), 0)
}

/// The spec `task_storm` submits: one inline `u64` argument.
fn one_arg_spec(i: usize) -> TaskSpec {
    TaskSpec {
        task: task(i),
        kind: TaskKind::Normal,
        function: ray_common::FunctionId::for_name("inc"),
        function_name: "inc".to_string(),
        args: vec![Arg::value(&(i as u64)).expect("encode u64")],
        num_returns: 1,
        demand: Resources::none(),
        deadline_micros: None,
        critical: false,
    }
}

pub fn codec() -> Metrics {
    let spec = one_arg_spec(1);
    let encoded = spec.encode().expect("encode spec");
    let blob = Blob(vec![7u8; 64 << 10]);
    let tensor = TensorF64::from_vec(vec![1.5; MIB / 8]);
    let tensor_bytes = tensor.to_bytes();
    vec![
        (
            "codec.taskspec_encode_ns",
            p50_ns(CALLS, 10, |_| {
                black_box(black_box(&spec).encode().expect("encode spec"));
            }),
        ),
        (
            "codec.taskspec_decode_ns",
            p50_ns(CALLS, 10, |_| {
                black_box(TaskSpec::decode(black_box(&encoded)).expect("decode spec"));
            }),
        ),
        (
            "codec.value_roundtrip_64k_us",
            p50_ns(SLOW_CALLS, 1, |_| {
                let bytes = ray_codec::encode(black_box(&blob)).expect("encode blob");
                black_box(ray_codec::decode::<Blob>(&bytes).expect("decode blob"));
            }) / 1e3,
        ),
        (
            "codec.tensor_encode_mb_per_s",
            mb_per_s(
                MIB,
                p50_ns(BIG_CALLS, 1, |_| {
                    black_box(black_box(&tensor).to_bytes());
                }),
            ),
        ),
        (
            "codec.tensor_decode_mb_per_s",
            mb_per_s(
                MIB,
                p50_ns(BIG_CALLS, 1, |_| {
                    black_box(
                        TensorF64::from_bytes(black_box(&tensor_bytes)).expect("decode tensor"),
                    );
                }),
            ),
        ),
    ]
}

pub fn common() -> Metrics {
    let entity = TraceEntity::Task(task(1));
    let off = TraceCollector::disabled();
    // Small enough to stay in cache once full, as a node's ring does.
    let on = TraceCollector::new(4096);
    let registry = MetricsRegistry::new();
    let counter = registry.counter("probe");
    let histogram = registry.histogram("probe_micros");
    vec![
        (
            "common.trace_emit_off_ns",
            p50_ns(CALLS * 10, 100, |_| {
                off.emit(NodeId(0), TraceEventKind::Submitted, entity, "");
            }),
        ),
        (
            "common.trace_emit_on_ns",
            p50_ns(CALLS, 10, |_| {
                on.emit(NodeId(0), TraceEventKind::Submitted, entity, "");
            }),
        ),
        (
            "common.counter_inc_ns",
            p50_ns(CALLS * 10, 100, |_| counter.inc()),
        ),
        (
            "common.histogram_observe_ns",
            p50_ns(CALLS * 10, 100, |i| histogram.observe(i as u64 % 10_000)),
        ),
    ]
}

fn chain_write_us(chain_length: usize) -> f64 {
    let cfg = GcsConfig {
        chain_length,
        ..GcsConfig::default()
    };
    let chain = Chain::start(
        ShardId(0),
        &cfg,
        MetricsRegistry::new(),
        TraceCollector::disabled(),
    )
    .expect("start chain");
    let value = Bytes::from(vec![1u8; 128]);
    let ns = p50_ns(SLOW_CALLS, 1, |i| {
        let key = Key::new(Table::Task, task(i).0.as_bytes().to_vec());
        chain
            .write(UpdateOp::Put {
                key,
                value: value.clone(),
            })
            .expect("chain write");
    });
    chain.shutdown();
    ns / 1e3
}

/// The GCS probes, and the scheduler's `place`, which reads object
/// locations through a GCS client.
pub fn gcs_and_placement() -> Metrics {
    let gcs = Gcs::start(&GcsConfig::default()).expect("start gcs");
    let client = gcs.client();
    let spec = Bytes::from(one_arg_spec(1).encode().expect("encode spec"));
    let actor = ActorId(task(0).0.derive("actor", 0));
    let mut out = vec![
        (
            "gcs.put_task_us",
            p50_ns(SLOW_CALLS, 1, |i| {
                client.put_task(task(i), spec.clone()).expect("put_task");
            }) / 1e3,
        ),
        (
            "gcs.put_object_lineage_us",
            p50_ns(SLOW_CALLS, 1, |i| {
                client
                    .put_object_lineage(object(i), task(i))
                    .expect("put_object_lineage");
            }) / 1e3,
        ),
        (
            "gcs.get_task_us",
            p50_ns(SLOW_CALLS, 1, |i| {
                black_box(client.get_task(task(i)).expect("get_task"));
            }) / 1e3,
        ),
        (
            "gcs.add_object_location_us",
            p50_ns(SLOW_CALLS, 1, |i| {
                client
                    .add_object_location(object(i), NodeId(1), 64)
                    .expect("add location");
            }) / 1e3,
        ),
        (
            "gcs.get_object_locations_us",
            p50_ns(SLOW_CALLS, 1, |i| {
                black_box(
                    client
                        .get_object_locations(object(i))
                        .expect("get locations"),
                );
            }) / 1e3,
        ),
        // From the write that creates an object's entry to the waiting
        // subscriber holding the notification.
        (
            "gcs.subscribe_notify_us",
            p50_of(SLOW_CALLS, |i| {
                let id = object(SLOW_CALLS + i);
                let sub = client.subscribe_object(id).expect("subscribe");
                let (_, ns) = timed(|| {
                    client
                        .add_object_location(id, NodeId(0), 64)
                        .expect("add location");
                    sub.wait_for_location(WAIT).expect("notification");
                });
                ns
            }) / 1e3,
        ),
        (
            "gcs.log_actor_method_us",
            p50_ns(SLOW_CALLS, 1, |i| {
                client
                    .log_actor_method(actor, i as u64, task(i))
                    .expect("log method");
            }) / 1e3,
        ),
        ("gcs.chain_write_r1_us", chain_write_us(1)),
        ("gcs.chain_write_r2_us", chain_write_us(2)),
    ];

    let load = Arc::new(LoadTable::new(0.2));
    let capacity = Resources::cpus(2.0);
    let beat = |n: u32| NodeLoad {
        node: NodeId(n),
        queue_len: n as usize,
        available: capacity.clone(),
        capacity: capacity.clone(),
        alive: true,
    };
    (0..4).for_each(|n| load.heartbeat(beat(n)));
    let global = GlobalScheduler::new(
        SchedulerPolicy::BottomUp,
        load.clone(),
        client,
        Duration::ZERO,
        1,
    );
    let demand = Resources::cpus(1.0);
    out.push((
        "scheduler.place_us",
        p50_ns(SLOW_CALLS, 1, |i| {
            // Objects the location probe above put on node 1.
            let desc = TaskDescriptor {
                task: task(i),
                demand: demand.clone(),
                inputs: vec![object(i)],
                submitted_from: NodeId(0),
            };
            black_box(global.place(&desc).expect("place"));
        }) / 1e3,
    ));
    out.push((
        "scheduler.heartbeat_ns",
        p50_ns(SLOW_CALLS, 10, |i| load.heartbeat(beat(i as u32 % 4))),
    ));
    gcs.shutdown();
    out
}

pub fn scheduler_local() -> Metrics {
    let ledger = ResourceLedger::new(Resources::cpus(2.0));
    let demand = Resources::cpus(1.0);
    vec![
        (
            "scheduler.decide_local_ns",
            p50_ns(CALLS * 10, 100, |i| {
                black_box(decide_local(
                    SchedulerPolicy::BottomUp,
                    &ledger,
                    i % 64,
                    32,
                    &demand,
                ));
            }),
        ),
        (
            "scheduler.ledger_acquire_release_ns",
            p50_ns(CALLS * 10, 100, |_| {
                if ledger.try_acquire(&demand) {
                    ledger.release(&demand);
                }
            }),
        ),
    ]
}

pub fn object_store() -> Metrics {
    let store = LocalObjectStore::new(NodeId(0), &ObjectStoreConfig::default());
    let kib = Bytes::from(vec![1u8; 1 << 10]);
    let small = Bytes::from(vec![2u8; 64 << 10]);
    let large = Bytes::from(vec![3u8; 4 * MIB]);
    let mut out = vec![
        (
            "object_store.put_1k_ns",
            p50_ns(CALLS, 1, |i| {
                store.put(object(i), kib.clone()).expect("put");
            }),
        ),
        (
            "object_store.get_1k_ns",
            p50_ns(CALLS, 10, |i| {
                black_box(store.get_local(object(i)));
            }),
        ),
        (
            "object_store.delete_ns",
            p50_ns(CALLS, 1, |i| {
                black_box(store.delete(object(i)));
            }),
        ),
        // Each of these deletes what it put, untimed, so the store never
        // fills and evicts.
        (
            "object_store.put_64k_us",
            p50_of(CALLS, |i| {
                let (_, ns) = timed(|| store.put(object(i), small.clone()).expect("put"));
                store.delete(object(i));
                ns
            }) / 1e3,
        ),
        (
            "object_store.put_4m_mb_per_s",
            mb_per_s(
                4 * MIB,
                p50_of(BIG_CALLS, |i| {
                    let (_, ns) = timed(|| store.put(object(i), large.clone()).expect("put"));
                    store.delete(object(i));
                    ns
                }),
            ),
        ),
    ];
    store.put(object(0), large.clone()).expect("put");
    out.push((
        "object_store.get_4m_ns",
        p50_ns(CALLS, 10, |_| {
            black_box(store.get_local(object(0)));
        }),
    ));
    for (name, threads) in [
        ("object_store.copy_4m_t1_mb_per_s", 1),
        ("object_store.copy_4m_t8_mb_per_s", 8),
    ] {
        out.push((
            name,
            mb_per_s(
                4 * MIB,
                p50_ns(BIG_CALLS, 1, |_| {
                    black_box(copy_payload_with_threads(black_box(&large), threads));
                }),
            ),
        ));
    }

    // A pull between two stores over a fabric in virtual time.
    let gcs = Gcs::start(&GcsConfig::default()).expect("start gcs");
    let client = gcs.client();
    let fabric = Fabric::new(2, &TransportConfig::default());
    fabric.set_virtual_time(true);
    let directory = StoreDirectory::new();
    let stores: Vec<Arc<LocalObjectStore>> = (0..2)
        .map(|n| {
            Arc::new(LocalObjectStore::new(
                NodeId(n),
                &ObjectStoreConfig::default(),
            ))
        })
        .collect();
    stores.iter().for_each(|s| directory.register(s.clone()));
    let connections = TransportConfig::default().connections_per_transfer;
    let transfers = TransferManager::new(
        directory,
        fabric,
        client.clone(),
        connections,
        MetricsRegistry::new(),
    );
    let fetch_us = |data: &Bytes, calls: usize, base: usize| {
        p50_of(calls, |i| {
            let id = object(base + i);
            stores[0].put(id, data.clone()).expect("put");
            client
                .add_object_location(id, NodeId(0), data.len() as u64)
                .expect("add location");
            let (_, ns) = timed(|| transfers.fetch(id, NodeId(1), WAIT).expect("fetch"));
            stores.iter().for_each(|s| {
                s.delete(id);
            });
            ns
        }) / 1e3
    };
    out.push(("object_store.fetch_64k_us", fetch_us(&small, SLOW_CALLS, 0)));
    out.push((
        "object_store.fetch_4m_us",
        fetch_us(&large, BIG_CALLS, SLOW_CALLS),
    ));
    gcs.shutdown();
    out
}

pub fn transport() -> Metrics {
    let cfg = TransportConfig::default();
    let real = Fabric::new(2, &cfg);
    let virt = Fabric::new(2, &cfg);
    virt.set_virtual_time(true);
    let (a, b) = (NodeId(0), NodeId(1));
    let lanes = Semaphore::new(8);
    vec![
        // Wall time of a transfer beyond the wire time the model charged.
        (
            "transport.transfer_overhead_us",
            p50_of(BIG_CALLS, |_| {
                let (modelled, ns) = timed(|| {
                    real.transfer(a, b, MIB, cfg.connections_per_transfer)
                        .expect("transfer")
                });
                ns.saturating_sub(modelled.as_nanos() as u64)
            }) / 1e3,
        ),
        (
            "transport.transfer_virtual_ns",
            p50_ns(CALLS, 10, |_| {
                black_box(
                    virt.transfer(a, b, MIB, cfg.connections_per_transfer)
                        .expect("transfer"),
                );
            }),
        ),
        (
            "transport.semaphore_acquire_ns",
            p50_ns(CALLS * 10, 100, |_| {
                drop(black_box(lanes.acquire(1)));
            }),
        ),
    ]
}

pub fn serve() -> Metrics {
    let digest = LatencyDigest::new();
    vec![(
        "serve.digest_record_ns",
        p50_ns(CALLS * 10, 100, |i| digest.record(i as u64 % 5_000)),
    )]
}

struct Echo;

impl ActorInstance for Echo {
    fn call(&mut self, _ctx: &RayContext, _method: &str, args: &[Bytes]) -> RemoteResult {
        encode_return(&rustray::decode_arg::<u64>(args, 0)?)
    }
}

/// The driver-side calls into `core`, on an idle 2 × 2 cluster.
pub fn core() -> Metrics {
    let cluster = Cluster::start(RayConfig::builder().nodes(2).workers_per_node(2).build())
        .expect("start cluster");
    cluster.register_fn1("inc", |x: u64| x.wrapping_add(1));
    cluster.register_actor_class("Echo", |_ctx, _args| Ok(Box::new(Echo)));
    let ctx = cluster.driver();
    let arg = Arg::value(&1u64).expect("encode u64");

    // Submits in batches of 256, drained untimed, so the queue a submit
    // meets is short.
    let mut pending = Vec::with_capacity(256);
    let submit = p50_of(SLOW_CALLS, |_| {
        let (ids, ns) = timed(|| {
            ctx.submit("inc", vec![arg.clone()], TaskOptions::default())
                .expect("submit")
        });
        pending.push(ids[0]);
        if pending.len() == 256 {
            ctx.wait(&pending, pending.len(), WAIT).expect("wait");
            pending.clear();
        }
        ns
    });
    ctx.wait(&pending, pending.len(), WAIT).expect("wait");
    let ready: ObjectRef<u64> = ctx.call("inc", vec![arg.clone()]).expect("call");
    assert_eq!(ctx.get(&ready).expect("get"), 2);
    let kib = Bytes::from(vec![1u8; 1 << 10]);
    let mib = Bytes::from(vec![2u8; MIB]);
    let put_us = |data: &Bytes, calls: usize| {
        p50_of(calls, |_| {
            let (id, ns) = timed(|| ctx.put_raw(data.clone()).expect("put_raw"));
            ctx.free(&[id]).expect("free");
            ns
        }) / 1e3
    };
    let put_1k = put_us(&kib, SLOW_CALLS);
    let put_1m = put_us(&mib, BIG_CALLS);
    let echo = ctx
        .create_actor("Echo", Vec::new(), TaskOptions::default())
        .expect("create actor");
    ctx.get(&echo.ready()).expect("actor ready");
    let out = vec![
        ("core.submit_call_us", submit / 1e3),
        (
            "core.wait_call_us",
            p50_ns(SLOW_CALLS, 1, |_| {
                black_box(ctx.wait(&[ready.id()], 1, WAIT).expect("wait"));
            }) / 1e3,
        ),
        (
            "core.get_ready_us",
            p50_ns(SLOW_CALLS, 1, |_| {
                black_box(ctx.get(&ready).expect("get"));
            }) / 1e3,
        ),
        ("core.put_1k_us", put_1k),
        ("core.put_1m_us", put_1m),
        (
            "core.actor_call_roundtrip_us",
            p50_ns(SLOW_CALLS, 1, |i| {
                let r = ctx
                    .call_actor::<u64>(
                        &echo,
                        "echo",
                        vec![Arg::value(&(i as u64)).expect("encode u64")],
                    )
                    .expect("call actor");
                assert_eq!(ctx.get(&r).expect("get"), i as u64);
            }) / 1e3,
        ),
    ];
    cluster.shutdown();
    out
}

/// Every probe.
pub fn all() -> Metrics {
    let mut out = codec();
    out.extend(common());
    out.extend(gcs_and_placement());
    out.extend(scheduler_local());
    out.extend(object_store());
    out.extend(transport());
    out.extend(serve());
    out.extend(core());
    out
}

/// The share of an idle `submit` call that the probes of the layers it
/// crosses do not account for: the task-table and lineage writes, the
/// spec encode, and the local scheduling decision.
pub fn submit_unexplained_share(m: &Metrics) -> f64 {
    let get = |name: &str| m.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
    let submit = get("core.submit_call_us");
    let explained = get("gcs.put_task_us")
        + get("gcs.put_object_lineage_us")
        + (get("codec.taskspec_encode_ns")
            + get("scheduler.decide_local_ns")
            + get("scheduler.ledger_acquire_release_ns"))
            / 1e3;
    if submit > 0.0 {
        1.0 - explained / submit
    } else {
        0.0
    }
}
