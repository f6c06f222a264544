//! API-surface and edge-case integration tests: the public behaviours a
//! downstream user depends on, beyond the core scenarios in
//! `end_to_end.rs`.

use std::time::Duration;

use bytes::Bytes;
use ray_repro::common::{RayConfig, RayError, Resources};
use ray_repro::ray::registry::RemoteResult;
use ray_repro::ray::task::{Arg, ObjectRef, TaskOptions};
use ray_repro::ray::{decode_arg, encode_return, ActorInstance, Cluster, RayContext};

fn cluster2() -> Cluster {
    Cluster::start(RayConfig::builder().nodes(2).workers_per_node(2).build()).unwrap()
}

#[test]
fn free_drops_replicas_but_lineage_reconstructs() {
    let cluster = cluster2();
    cluster.register_fn1("double", |x: u64| x * 2);
    let ctx = cluster.driver();
    let fut: ObjectRef<u64> = ctx.call("double", vec![Arg::value(&21u64).unwrap()]).unwrap();
    assert_eq!(ctx.get(&fut).unwrap(), 42);

    ctx.free(&[fut.id()]).unwrap();
    // Location entries are gone...
    assert!(cluster.gcs().client().get_object_locations(fut.id()).unwrap().is_empty());
    // ...but the object is a task output, so lineage brings it back.
    assert_eq!(ctx.get_with_timeout(&fut, Duration::from_secs(60)).unwrap(), 42);
    assert!(cluster.metrics().counter("tasks_reexecuted").get() >= 1);
    cluster.shutdown();
}

#[test]
fn free_of_put_objects_is_permanent() {
    let cluster = cluster2();
    let ctx = cluster.driver();
    let r = ctx.put(&7u8).unwrap();
    ctx.free(&[r.id()]).unwrap();
    match ctx.get_with_timeout(&r, Duration::from_millis(300)) {
        Err(RayError::Timeout) | Err(RayError::ObjectLost(_)) => {}
        other => panic!("freed put object should be gone, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn wait_refs_typed_wrapper() {
    let cluster = cluster2();
    cluster.register_fn1("sleepy", |ms: u64| {
        std::thread::sleep(Duration::from_millis(ms));
        ms
    });
    let ctx = cluster.driver();
    let fast: ObjectRef<u64> = ctx.call("sleepy", vec![Arg::value(&1u64).unwrap()]).unwrap();
    let slow: ObjectRef<u64> =
        ctx.call("sleepy", vec![Arg::value(&1500u64).unwrap()]).unwrap();
    let (ready, pending) =
        ctx.wait_refs(&[fast, slow], 1, Duration::from_secs(10)).unwrap();
    assert_eq!(ready, vec![fast]);
    assert_eq!(pending, vec![slow]);
    cluster.shutdown();
}

#[test]
fn wait_on_empty_and_duplicate_sets() {
    let cluster = cluster2();
    let ctx = cluster.driver();
    let (ready, pending) = ctx.wait(&[], 1, Duration::from_millis(50)).unwrap();
    assert!(ready.is_empty() && pending.is_empty());

    let r = ctx.put(&1u8).unwrap();
    let (ready, pending) =
        ctx.wait(&[r.id(), r.id()], 2, Duration::from_secs(5)).unwrap();
    // Duplicates collapse; both requested slots resolve to the one id.
    assert_eq!(ready, vec![r.id()]);
    assert!(pending.is_empty());
    cluster.shutdown();
}

#[test]
fn object_ref_cast_checks_at_decode_time() {
    let cluster = cluster2();
    let ctx = cluster.driver();
    let r = ctx.put(&String::from("text")).unwrap();
    let as_string: String = ctx.get(&r).unwrap();
    assert_eq!(as_string, "text");
    // Casting to an incompatible type fails at decode, not silently.
    let wrong: ObjectRef<u64> = r.cast();
    assert!(matches!(ctx.get(&wrong), Err(RayError::Codec(_))));
    cluster.shutdown();
}

#[test]
fn multi_return_tasks() {
    let cluster = cluster2();
    cluster.register_raw("split", |_ctx: &RayContext, args: &[Bytes]| -> RemoteResult {
        let v: Vec<u64> = decode_arg(args, 0)?;
        let (lo, hi): (Vec<u64>, Vec<u64>) = v.iter().partition(|&&x| x < 10);
        Ok(vec![
            Bytes::from(ray_codec::encode(&lo).map_err(|e| e.to_string())?),
            Bytes::from(ray_codec::encode(&hi).map_err(|e| e.to_string())?),
        ])
    });
    let ctx = cluster.driver();
    let ids = ctx
        .submit(
            "split",
            vec![Arg::value(&vec![1u64, 20, 3, 40]).unwrap()],
            TaskOptions::default().returns(2),
        )
        .unwrap();
    assert_eq!(ids.len(), 2);
    let lo: Vec<u64> = ctx.get(&ObjectRef::from_id(ids[0])).unwrap();
    let hi: Vec<u64> = ctx.get(&ObjectRef::from_id(ids[1])).unwrap();
    assert_eq!(lo, vec![1, 3]);
    assert_eq!(hi, vec![20, 40]);
    cluster.shutdown();
}

#[test]
fn wrong_return_count_is_a_task_failure() {
    let cluster = cluster2();
    cluster.register_raw("one_value", |_ctx: &RayContext, _args: &[Bytes]| -> RemoteResult {
        encode_return(&1u8)
    });
    let ctx = cluster.driver();
    let ids = ctx
        .submit("one_value", vec![], TaskOptions::default().returns(3))
        .unwrap();
    for id in ids {
        let r: ObjectRef<u8> = ObjectRef::from_id(id);
        assert!(matches!(ctx.get(&r), Err(RayError::TaskFailed { .. })));
    }
    cluster.shutdown();
}

#[test]
fn unknown_actor_class_fails_creation_future() {
    let cluster = cluster2();
    let ctx = cluster.driver();
    let h = ctx.create_actor("NoSuchClass", vec![], TaskOptions::default()).unwrap();
    assert!(matches!(ctx.get(&h.ready()), Err(RayError::TaskFailed { .. })));
    cluster.shutdown();
}

#[test]
fn actor_handle_reconstructed_from_parts_works() {
    struct Echo;
    impl ActorInstance for Echo {
        fn call(&mut self, _c: &RayContext, m: &str, args: &[Bytes]) -> RemoteResult {
            match m {
                "echo" => {
                    let x: u64 = decode_arg(args, 0)?;
                    encode_return(&x)
                }
                other => Err(format!("no method {other}")),
            }
        }
    }
    let cluster = cluster2();
    cluster.register_actor_class("Echo", |_c, _a| Ok(Box::new(Echo)));
    let ctx = cluster.driver();
    let h = ctx.create_actor("Echo", vec![], TaskOptions::default()).unwrap();
    ctx.get(&h.ready()).unwrap();
    // Serialize the handle's parts (how handles travel between tasks).
    let rebuilt =
        ray_repro::ray::ActorHandle::from_parts(h.id(), h.ready().id());
    let f: ObjectRef<u64> =
        ctx.call_actor(&rebuilt, "echo", vec![Arg::value(&9u64).unwrap()]).unwrap();
    assert_eq!(ctx.get(&f).unwrap(), 9);
    cluster.shutdown();
}

#[test]
fn custom_resources_route_tasks() {
    let cluster = Cluster::start(
        RayConfig::builder()
            .nodes(2)
            .workers_per_node(2)
            .node_resources(Resources::cpus(2.0).with_custom("tpu", 1.0))
            .build(),
    )
    .unwrap();
    cluster.register_fn0("use_tpu", || 1u8);
    let ctx = cluster.driver();
    let opts = TaskOptions::default()
        .with_demand(Resources::none().with_custom("tpu", 1.0));
    let f: ObjectRef<u8> = ctx.call_opts("use_tpu", vec![], opts).unwrap();
    assert_eq!(ctx.get(&f).unwrap(), 1);
    // Demanding more than any node has never completes.
    let opts = TaskOptions::default()
        .with_demand(Resources::none().with_custom("tpu", 2.0));
    let f: ObjectRef<u8> = ctx.call_opts("use_tpu", vec![], opts).unwrap();
    let (ready, _) = ctx.wait(&[f.id()], 1, Duration::from_millis(300)).unwrap();
    assert!(ready.is_empty());
    cluster.shutdown();
}

#[test]
fn snapshot_via_public_api() {
    let cluster = cluster2();
    cluster.register_fn0("nop", || 0u8);
    let ctx = cluster.driver();
    let f: ObjectRef<u8> = ctx.call("nop", vec![]).unwrap();
    ctx.get(&f).unwrap();
    // The result is visible before the worker bumps the executed counter;
    // retry the snapshot until the count lands.
    let t0 = std::time::Instant::now();
    let mut snap = cluster.snapshot().unwrap();
    while snap.tasks.1 < 1 && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(5));
        snap = cluster.snapshot().unwrap();
    }
    assert_eq!(snap.nodes.len(), 2);
    assert!(snap.tasks.1 >= 1);
    cluster.shutdown();
}

#[test]
fn put_larger_than_store_capacity_is_rejected() {
    let mut cfg = RayConfig::builder().nodes(1).workers_per_node(1).build();
    cfg.object_store.capacity_bytes = 1024;
    let cluster = Cluster::start(cfg).unwrap();
    let ctx = cluster.driver();
    match ctx.put(&vec![0u8; 4096]) {
        Err(RayError::StoreFull { .. }) => {}
        other => panic!("expected StoreFull, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn values_survive_the_full_pipeline_bitwise() {
    // Tensors and blobs through put → remote task → get, byte-exact.
    use ray_repro::codec::tensor::TensorF64;
    use ray_repro::codec::Blob;
    let cluster = cluster2();
    cluster.register_raw("relay", |_ctx: &RayContext, args: &[Bytes]| -> RemoteResult {
        let blob: Blob = decode_arg(args, 0)?;
        encode_return(&blob)
    });
    let ctx = cluster.driver();
    let tensor = TensorF64::from_vec(vec![f64::MIN, -0.0, f64::MAX, 1.5e-300]);
    let blob = Blob::from_f64s(tensor.data());
    let input = ctx.put(&blob).unwrap();
    let out: ObjectRef<Blob> = ctx.call("relay", vec![Arg::from_ref(&input)]).unwrap();
    let round_tripped = ctx.get(&out).unwrap();
    let back = TensorF64::from_bytes(&round_tripped.0).unwrap();
    assert_eq!(back, tensor);
    cluster.shutdown();
}
