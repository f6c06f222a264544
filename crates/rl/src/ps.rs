//! A sharded parameter server on actors — paper §5.2.1 (Fig. 13).
//!
//! "We implement data-parallel synchronous SGD leveraging the Ray actor
//! abstraction to represent model replicas. Model weights are synchronized
//! via allreduce or parameter server, both implemented on top of the Ray
//! API. In each iteration, model replica actors compute gradients in
//! parallel, send the gradients to a sharded parameter server, then read
//! the summed gradients from the parameter server for the next iteration."
//!
//! Structure here:
//!
//! - [`PsShard`] actors each own one contiguous slice of the flat weight
//!   vector; a shard applies the averaged update once every replica's
//!   gradient for the round has arrived (synchronous SGD);
//! - [`PsWorker`] actors are the model replicas: real MLP
//!   forward/backward on synthetic batches against a fixed teacher
//!   network (so loss measurably falls);
//! - the driver wires rounds together purely with object references, so
//!   gradient computation, transfer, and summation pipeline exactly as in
//!   the paper ("a key optimization is the pipelining of gradient
//!   computation, transfer, and summation").

use std::time::{Duration, Instant};

use bytes::Bytes;
use ray_codec::tensor::encode_f64_blob;
use ray_codec::Blob;
use ray_common::RayResult;
use rustray::registry::RemoteResult;
use rustray::task::{Arg, ObjectRef, TaskOptions};
use rustray::{
    decode_arg, encode_return, encode_return_f64s, f64s_arg, ActorHandle, ActorInstance, Cluster,
    RayContext,
};
use serde::{Deserialize, Serialize};

use crate::envs::EnvRng;
use crate::nn::{mse_loss, Activation, Gradients, Mlp};

pub use ray_bsp::allreduce::chunk_bounds;

/// Parameter-server training configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PsConfig {
    /// Model replica (worker) count.
    pub num_workers: usize,
    /// Parameter-server shard count.
    pub num_shards: usize,
    /// MLP layer sizes (e.g. `[32, 64, 16]`); parameter count follows.
    pub layer_dims: Vec<usize>,
    /// Samples per worker per iteration.
    pub batch_size: usize,
    /// Training iterations.
    pub iterations: usize,
    /// Learning rate.
    pub lr: f64,
    /// Base seed (teacher network, data).
    pub seed: u64,
}

impl PsConfig {
    /// A small configuration used by tests.
    pub fn small() -> PsConfig {
        PsConfig {
            num_workers: 4,
            num_shards: 2,
            layer_dims: vec![8, 16, 4],
            batch_size: 16,
            iterations: 30,
            lr: 0.05,
            seed: 3,
        }
    }

    fn model(&self, seed: u64) -> Mlp {
        Mlp::new(&self.layer_dims, Activation::Tanh, Activation::Identity, seed)
    }
}

/// Report from a training run.
#[derive(Debug, Clone)]
pub struct PsReport {
    /// Mean training loss per iteration (averaged over workers).
    pub losses: Vec<f64>,
    /// Wall-clock duration.
    pub wall: Duration,
    /// Aggregate throughput in samples/second (the paper's images/s axis).
    pub samples_per_sec: f64,
}

/// One parameter-server shard: a slice of the flat weight vector.
pub struct PsShard {
    weights: Vec<f64>,
    accum: Vec<f64>,
    pushes: usize,
    expected: usize,
    lr: f64,
}

impl ActorInstance for PsShard {
    fn call(&mut self, _ctx: &RayContext, method: &str, args: &[Bytes]) -> RemoteResult {
        match method {
            // Accumulate one replica's gradient slice; apply the averaged
            // update when the round completes (synchronous SGD).
            "push" => {
                f64s_arg(args, 0)?
                    .add_into(&mut self.accum)
                    .map_err(|e| format!("gradient slice vs shard: {e}"))?;
                self.pushes += 1;
                if self.pushes == self.expected {
                    let scale = self.lr / self.expected as f64;
                    for (w, a) in self.weights.iter_mut().zip(self.accum.iter()) {
                        *w -= scale * a;
                    }
                    self.accum.iter_mut().for_each(|a| *a = 0.0);
                    self.pushes = 0;
                }
                encode_return(&0u8)
            }
            // Current weights (valid between rounds, which the driver's
            // submission order guarantees).
            "pull" => encode_return_f64s(&self.weights),
            other => Err(format!("PsShard has no method {other}")),
        }
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        ray_codec::encode(&(Blob::from_f64s(&self.weights), self.lr, self.expected as u64)).ok()
    }

    fn restore(&mut self, data: &[u8]) -> Result<(), String> {
        let (blob, lr, expected): (Blob, f64, u64) =
            ray_codec::decode(data).map_err(|e| e.to_string())?;
        self.weights = blob.f64s().map_err(|e| e.to_string())?.to_vec();
        self.accum = vec![0.0; self.weights.len()];
        self.pushes = 0;
        self.lr = lr;
        self.expected = expected as usize;
        Ok(())
    }
}

/// One model replica: recomputes gradients on synthetic teacher-labelled
/// batches.
pub struct PsWorker {
    cfg: PsConfig,
    model: Mlp,
    teacher: Mlp,
    worker_id: u64,
}

impl PsWorker {
    fn gradient(&mut self, shard_blobs: Vec<Vec<f64>>, round: u64) -> Result<(Gradients, f64), String> {
        // Reassemble the flat weight vector from shard slices.
        let flat: Vec<f64> = shard_blobs.into_iter().flatten().collect();
        if flat.len() != self.model.num_params() {
            return Err(format!(
                "assembled {} params, model has {}",
                flat.len(),
                self.model.num_params()
            ));
        }
        self.model.set_params(&flat);
        let mut rng = EnvRng::new(
            self.cfg.seed ^ (round.wrapping_mul(0x9e37_79b9)) ^ self.worker_id,
        );
        let in_dim = self.cfg.layer_dims[0];
        let mut grads = Gradients::zeros(self.model.num_params());
        let mut total_loss = 0.0;
        for _ in 0..self.cfg.batch_size {
            let x: Vec<f64> = (0..in_dim).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let target = self.teacher.forward(&x);
            let (pred, cache) = self.model.forward_cached(&x);
            let (loss, grad_out) = mse_loss(&pred, &target);
            total_loss += loss;
            grads.add_assign(&self.model.backward(&cache, &grad_out));
        }
        grads.scale(1.0 / self.cfg.batch_size as f64);
        Ok((grads, total_loss / self.cfg.batch_size as f64))
    }
}

impl ActorInstance for PsWorker {
    fn call(&mut self, _ctx: &RayContext, method: &str, args: &[Bytes]) -> RemoteResult {
        match method {
            // args: round, then one weight blob per shard. Returns one
            // gradient blob per shard plus the scalar batch loss.
            "grad" => {
                let round: u64 = decode_arg(args, 0)?;
                let mut shards = Vec::with_capacity(args.len() - 1);
                for i in 1..args.len() {
                    shards.push(f64s_arg(args, i)?.to_vec());
                }
                let shard_lens: Vec<usize> = shards.iter().map(|s| s.len()).collect();
                let (grads, loss) = self.gradient(shards, round)?;
                let mut outputs = Vec::with_capacity(shard_lens.len() + 1);
                let mut off = 0;
                for len in shard_lens {
                    outputs.push(Bytes::from(encode_f64_blob(&grads.0[off..off + len])));
                    off += len;
                }
                outputs.push(Bytes::from(ray_codec::encode(&loss).map_err(|e| e.to_string())?));
                Ok(outputs)
            }
            other => Err(format!("PsWorker has no method {other}")),
        }
    }
}

/// Registers the parameter-server actor classes.
pub fn register(cluster: &Cluster) {
    cluster.register_actor_class("PsShard", |_ctx, args| {
        let weights = f64s_arg(args, 0)?.to_vec();
        let expected: u64 = decode_arg(args, 1)?;
        let lr: f64 = decode_arg(args, 2)?;
        let n = weights.len();
        Ok(Box::new(PsShard {
            weights,
            accum: vec![0.0; n],
            pushes: 0,
            expected: expected as usize,
            lr,
        }))
    });
    cluster.register_actor_class("PsWorker", |_ctx, args| {
        let cfg: PsConfig = decode_arg(args, 0)?;
        let worker_id: u64 = decode_arg(args, 1)?;
        let model = cfg.model(cfg.seed);
        let teacher = cfg.model(cfg.seed ^ 0x7ea_c4e5);
        Ok(Box::new(PsWorker { cfg, model, teacher, worker_id }))
    });
}

/// Runs synchronous data-parallel SGD through the sharded parameter
/// server, returning the loss curve and throughput.
pub fn train_ps(cluster: &Cluster, cfg: &PsConfig) -> RayResult<PsReport> {
    register(cluster);
    let ctx = cluster.driver();
    let model = cfg.model(cfg.seed);
    let params = model.params();
    let bounds = chunk_bounds(params.len(), cfg.num_shards);

    // Spawn shards and replicas.
    let mut shards: Vec<ActorHandle> = Vec::with_capacity(cfg.num_shards);
    for &(lo, hi) in &bounds {
        let h = ctx.create_actor(
            "PsShard",
            vec![
                Arg::value(&Blob::from_f64s(&params[lo..hi]))?,
                Arg::value(&(cfg.num_workers as u64))?,
                Arg::value(&cfg.lr)?,
            ],
            TaskOptions::default(),
        )?;
        shards.push(h);
    }
    let mut workers: Vec<ActorHandle> = Vec::with_capacity(cfg.num_workers);
    for w in 0..cfg.num_workers {
        let h = ctx.create_actor(
            "PsWorker",
            vec![Arg::value(cfg)?, Arg::value(&(w as u64))?],
            TaskOptions::default(),
        )?;
        workers.push(h);
    }
    for h in shards.iter().chain(workers.iter()) {
        ctx.get(&h.ready())?;
    }

    let start = Instant::now();
    let mut loss_refs_per_round: Vec<Vec<ObjectRef<f64>>> = Vec::with_capacity(cfg.iterations);

    // Per-shard pull references for the current round.
    let mut pulls: Vec<ObjectRef<Blob>> = shards
        .iter()
        .map(|s| ctx.call_actor::<Blob>(s, "pull", vec![]))
        .collect::<RayResult<_>>()?;

    for round in 0..cfg.iterations {
        // Each replica computes gradients from the same pulled weights.
        let mut loss_refs = Vec::with_capacity(cfg.num_workers);
        let mut grad_refs: Vec<Vec<ObjectRef<Blob>>> = Vec::with_capacity(cfg.num_workers);
        for w in &workers {
            let mut args = Vec::with_capacity(1 + pulls.len());
            args.push(Arg::value(&(round as u64))?);
            for p in &pulls {
                args.push(Arg::from_ref(p));
            }
            let rets =
                ctx.call_actor_multi(w, "grad", args, (cfg.num_shards + 1) as u64)?;
            let (grad_ids, loss_id) = rets.split_at(cfg.num_shards);
            grad_refs.push(grad_ids.iter().map(|&id| ObjectRef::from_id(id)).collect());
            loss_refs.push(ObjectRef::<f64>::from_id(loss_id[0]));
        }
        // Push every gradient slice to its shard; the shard applies the
        // update once all `num_workers` pushes arrive.
        for grads in &grad_refs {
            for (s, g) in shards.iter().zip(grads.iter()) {
                let _ack: ObjectRef<u8> =
                    ctx.call_actor(s, "push", vec![Arg::from_ref(g)])?;
            }
        }
        // Pull the refreshed weights for the next round. Queued after the
        // pushes on each shard, so serial actor execution makes this the
        // post-update view — the pipelining falls out of the task graph.
        pulls = shards
            .iter()
            .map(|s| ctx.call_actor::<Blob>(s, "pull", vec![]))
            .collect::<RayResult<_>>()?;

        loss_refs_per_round.push(loss_refs);
    }
    // Drain the final pulls so timing covers full synchronization; losses
    // are collected only now, so rounds pipeline without driver stalls.
    for p in &pulls {
        ctx.get(p)?;
    }
    let mut losses = Vec::with_capacity(cfg.iterations);
    for refs in &loss_refs_per_round {
        let round_losses = ctx.get_all(refs)?;
        losses.push(round_losses.iter().sum::<f64>() / round_losses.len() as f64);
    }

    let wall = start.elapsed();
    let total_samples = (cfg.iterations * cfg.num_workers * cfg.batch_size) as f64;
    Ok(PsReport {
        losses,
        wall,
        samples_per_sec: total_samples / wall.as_secs_f64().max(1e-9),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ray_common::RayConfig;

    #[test]
    fn chunked_bounds_reassemble() {
        let bounds = chunk_bounds(10, 3);
        assert_eq!(bounds, vec![(0, 4), (4, 7), (7, 10)]);
    }

    #[test]
    fn ps_training_reduces_loss() {
        let cluster =
            Cluster::start(RayConfig::builder().nodes(2).workers_per_node(4).build()).unwrap();
        let cfg = PsConfig::small();
        let report = train_ps(&cluster, &cfg).unwrap();
        assert_eq!(report.losses.len(), cfg.iterations);
        let first: f64 = report.losses[..3].iter().sum::<f64>() / 3.0;
        let last: f64 = report.losses[cfg.iterations - 3..].iter().sum::<f64>() / 3.0;
        assert!(
            last < first * 0.7,
            "PS SGD should reduce loss: first {first:.4}, last {last:.4}"
        );
        assert!(report.samples_per_sec > 0.0);
        cluster.shutdown();
    }

    #[test]
    fn ps_single_shard_single_worker() {
        let cluster =
            Cluster::start(RayConfig::builder().nodes(1).workers_per_node(2).build()).unwrap();
        let mut cfg = PsConfig::small();
        cfg.num_workers = 1;
        cfg.num_shards = 1;
        cfg.iterations = 10;
        let report = train_ps(&cluster, &cfg).unwrap();
        assert_eq!(report.losses.len(), 10);
        cluster.shutdown();
    }
}
