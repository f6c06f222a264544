//! `ray-rl`: reinforcement-learning workloads on rustray.
//!
//! The paper's evaluation (§5.2–5.3) exercises Ray with the building
//! blocks of an RL system — distributed training, serving, simulation —
//! and two end-to-end algorithms (ES and PPO). This crate implements all
//! of them, from scratch, on the rustray API, plus the substrates they
//! need:
//!
//! - [`envs`] — simulators: a faithful Pendulum (Gym's `Pendulum-v0`
//!   dynamics, Table 4), a GridWorld, and a parameterized
//!   "Humanoid-like" workload with heterogeneous 10–1000-step episodes
//!   (Fig. 14), standing in for MuJoCo.
//! - [`nn`] — a dense neural network with manual backprop and SGD (the
//!   TensorFlow stand-in for Fig. 13's gradient workloads).
//! - [`policy`] — linear policies with flat parameter vectors.
//! - [`rollout`] — trajectory generation utilities.
//! - [`es`] — Evolution Strategies with mirrored sampling and a
//!   tree-of-actors aggregation (Fig. 14a), plus the saturating
//!   single-driver "reference system" baseline.
//! - [`ppo`] — Proximal Policy Optimization (clipped surrogate + GAE) as
//!   an asynchronous scatter-gather on Ray, and a bulk-synchronous MPI
//!   variant on [`ray_bsp`] (Fig. 14b).
//! - [`ps`] — a sharded parameter server built on actors, with the
//!   pipelined data-parallel SGD loop of Fig. 13.
//! - [`allreduce`] — ring allreduce expressed in the Ray API (objects +
//!   actors), the workload of Fig. 12.
//! - [`serving`] — embedded policy serving via actors vs a Clipper-like
//!   TCP model server (Table 3).

pub mod allreduce;
pub mod envs;
pub mod es;
pub mod nn;
pub mod policy;
pub mod ppo;
pub mod ps;
pub mod rollout;
pub mod serving;
