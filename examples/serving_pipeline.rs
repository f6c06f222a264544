//! The tight RL loop of paper Fig. 1 in one program: an embedded policy
//! server (actor) renders actions for simulation tasks, trajectories feed
//! a training step, and the improved policy redeploys to the same server —
//! training, serving, and simulation coupled in a single application.
//!
//! Run with `cargo run --release --example serving_pipeline`.

use bytes::Bytes;
use ray_codec::Blob;
use ray_rl::envs::make_env;
use rustray::registry::RemoteResult;
use rustray::task::{Arg, ObjectRef, TaskOptions};
use rustray::{
    decode_arg, encode_return, encode_return_f64s, f64s_arg, ActorInstance, Cluster, RayConfig,
    RayContext,
};

/// A linear policy served behind an actor; `update` hot-swaps weights.
struct ServedPolicy {
    params: Vec<f64>,
    obs_dim: usize,
    act_dim: usize,
}

impl ServedPolicy {
    fn act(&self, obs: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.act_dim);
        for o in 0..self.act_dim {
            let row = &self.params[o * self.obs_dim..(o + 1) * self.obs_dim];
            let bias = self.params[self.obs_dim * self.act_dim + o];
            let z: f64 = row.iter().zip(obs).map(|(w, x)| w * x).sum::<f64>() + bias;
            out.push(z.tanh());
        }
        out
    }
}

impl ActorInstance for ServedPolicy {
    fn call(&mut self, _ctx: &RayContext, method: &str, args: &[Bytes]) -> RemoteResult {
        match method {
            // Serving: one observation in, one action out.
            "act" => {
                let action = self.act(&f64s_arg(args, 0)?.to_vec());
                encode_return_f64s(&action)
            }
            // Deployment: install improved weights.
            "update" => {
                self.params = f64s_arg(args, 0)?.to_vec();
                encode_return(&0u8)
            }
            other => Err(format!("no method {other}")),
        }
    }
}

fn main() {
    let cluster = Cluster::start(
        RayConfig::builder().nodes(2).workers_per_node(4).build(),
    )
    .expect("start cluster");

    let env_name = "humanoid-light";
    let probe = make_env(env_name).unwrap();
    let (obs_dim, act_dim) = (probe.obs_dim(), probe.action_dim());
    drop(probe);
    let num_params = obs_dim * act_dim + act_dim;

    cluster.register_actor_class("ServedPolicy", move |_ctx, args| {
        Ok(Box::new(ServedPolicy { params: f64s_arg(args, 0)?.to_vec(), obs_dim, act_dim }))
    });

    // Simulation tasks drive the environment, querying the served policy
    // for every action (closed-loop control through the object store).
    cluster.register_raw("simulate", {
        let env_name = env_name.to_string();
        move |ctx: &RayContext, args: &[Bytes]| -> RemoteResult {
            let server_ready: rustray::ObjectId =
                ray_codec::decode(&args[0]).map_err(|e| e.to_string())?;
            let _ = server_ready; // Handle travels via the second arg below.
            let actor_id: ray_common::ActorId = decode_arg(args, 1)?;
            let seed: u64 = decode_arg(args, 2)?;
            let handle = rebuild_handle(actor_id, server_ready);
            let mut env = make_env(&env_name)?;
            let mut obs = env.reset(seed);
            let mut total = 0.0;
            for _ in 0..60 {
                let obs_blob = Blob::from_f64s(&obs);
                let action_ref: ObjectRef<Blob> = ctx
                    .call_actor(&handle, "act", vec![Arg::value(&obs_blob).map_err(|e| e.to_string())?])
                    .map_err(|e| e.to_string())?;
                let action_blob = ctx.get(&action_ref).map_err(|e| e.to_string())?;
                let action = action_blob.f64s().map_err(|e| e.to_string())?.to_vec();
                let (next, reward, done) = env.step(&action);
                total += reward;
                obs = next;
                if done {
                    break;
                }
            }
            encode_return(&total)
        }
    });

    let ctx = cluster.driver();
    let zeros = Blob::from_f64s(&vec![0.0; num_params]);
    let server = ctx
        .create_actor("ServedPolicy", vec![Arg::value(&zeros).unwrap()], TaskOptions::default())
        .unwrap();
    ctx.get(&server.ready()).unwrap();

    // Training loop: simulate → score perturbations → deploy the best.
    let mut params = vec![0.0f64; num_params];
    let mut best_score = f64::NEG_INFINITY;
    let mut rng = ray_rl::envs::EnvRng::new(9);
    for round in 0..5 {
        // Evaluate the deployed policy with 8 parallel closed-loop sims.
        let futs: Vec<ObjectRef<f64>> = (0..8)
            .map(|i| {
                ctx.call(
                    "simulate",
                    vec![
                        Arg::value(&server.ready().id()).unwrap(),
                        Arg::value(&server.id()).unwrap(),
                        Arg::value(&(round * 100 + i as u64)).unwrap(),
                    ],
                )
                .unwrap()
            })
            .collect();
        let scores = ctx.get_all(&futs).unwrap();
        let mean: f64 = scores.iter().sum::<f64>() / scores.len() as f64;
        println!("round {round}: deployed policy mean return {mean:.1}");
        best_score = best_score.max(mean);

        // Naive hill-climb training step (the point is the pipeline, not
        // the optimizer): nudge parameters and redeploy.
        for p in &mut params {
            *p += 0.3 * rng.normal();
        }
        let blob = Blob::from_f64s(&params);
        let ack: ObjectRef<u8> =
            ctx.call_actor(&server, "update", vec![Arg::value(&blob).unwrap()]).unwrap();
        ctx.get(&ack).unwrap();
    }
    println!("best deployed mean return: {best_score:.1}");
    cluster.shutdown();
}

/// Rebuilds an actor handle from its parts (handles travel by value
/// between tasks as (id, creation-object) pairs).
fn rebuild_handle(
    actor: ray_common::ActorId,
    _ready: rustray::ObjectId,
) -> rustray::ActorHandle {
    rustray::ActorHandle::from_parts(actor, _ready)
}
