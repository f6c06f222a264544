//! Policy serving: embedded actor vs Clipper-like TCP server (Table 3).
//!
//! "Ray focuses primarily on the embedded serving of models to simulators
//! running within the same dynamic task graph ... Due to its low-overhead
//! serialization and shared memory abstractions, Ray achieves an order of
//! magnitude higher throughput" for a cheap model with large inputs, and
//! is "also faster on a more expensive residual network policy model"
//! (§5.2.2, Table 3).
//!
//! The two systems compared here:
//!
//! - **Embedded (Ray)**: a policy actor on the cluster; the client `put`s
//!   a batch of states into the object store and calls `predict` with the
//!   reference — co-located client and server share memory, so the batch
//!   payload never crosses a socket.
//! - **Clipper-like**: a real loopback TCP server with length-prefixed
//!   request framing; every batch is serialized, written to the socket,
//!   read, deserialized, evaluated, and the response travels back the
//!   same way — the per-request copy/serialization overhead the paper
//!   measures.
//!
//! Model evaluation cost is calibrated in *microseconds of real spin
//! work* per state, standing in for the 5ms fully-connected / 10ms
//! residual network policies.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ray_codec::Blob;
use ray_common::RayResult;
use ray_serve::PoolConfig;
use rustray::registry::RemoteResult;
use rustray::task::{Arg, TaskOptions};
use rustray::{decode_arg, encode_return, ActorHandle, ActorInstance, Cluster, RayContext};

/// Serving workload parameters (one Table 3 column).
#[derive(Debug, Clone, Copy)]
pub struct ServingWorkload {
    /// Bytes per state (4KB small / 100KB large in the paper).
    pub state_bytes: usize,
    /// States per request batch (64 in the paper).
    pub batch: usize,
    /// Model evaluation cost per *batch*, as spin-loop iterations
    /// (calibrate with [`calibrate_spin`]).
    pub eval_spin: u64,
    /// Whether the Clipper-like path uses textual (hex) payload encoding,
    /// modelling Clipper's REST/JSON interface where binary tensors are
    /// base64/JSON-encoded per request. The embedded path never pays this.
    pub rest_text_encoding: bool,
}

/// Hex-encodes a payload (the REST/JSON stand-in: 2 output bytes per
/// input byte plus per-byte formatting work).
pub fn rest_encode(data: &[u8]) -> Vec<u8> {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = Vec::with_capacity(data.len() * 2);
    for &b in data {
        out.push(HEX[(b >> 4) as usize]);
        out.push(HEX[(b & 0xf) as usize]);
    }
    out
}

/// Decodes [`rest_encode`] output.
pub fn rest_decode(text: &[u8]) -> Result<Vec<u8>, String> {
    if !text.len().is_multiple_of(2) {
        return Err("odd-length hex payload".into());
    }
    fn nibble(c: u8) -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            _ => Err(format!("invalid hex byte {c}")),
        }
    }
    text.chunks_exact(2)
        .map(|p| Ok(nibble(p[0])? << 4 | nibble(p[1])?))
        .collect()
}

/// Spins for real arithmetic work; returns a value to defeat dead-code
/// elimination.
pub fn spin(iterations: u64) -> f64 {
    let mut acc = 1.0000001f64;
    for i in 0..iterations {
        acc = acc.mul_add(1.0000001, (i as f64) * 1e-18);
    }
    acc
}

/// Finds a spin count whose duration approximates `target` on this
/// machine (used to stand in for "a model taking 5ms/10ms to evaluate").
pub fn calibrate_spin(target: Duration) -> u64 {
    let probe = 1_000_000u64;
    let start = Instant::now();
    std::hint::black_box(spin(probe));
    let per_iter = start.elapsed().as_secs_f64() / probe as f64;
    (target.as_secs_f64() / per_iter.max(1e-12)) as u64
}

fn synthesize_states(state_bytes: usize, batch: usize, round: u64) -> Blob {
    let mut payload = vec![0u8; state_bytes * batch];
    // Vary the contents so no layer can cache across rounds.
    let tag = round.to_le_bytes();
    for (i, b) in payload.iter_mut().enumerate().take(64) {
        *b = tag[i % 8];
    }
    Blob(payload)
}

fn evaluate_batch(states: &[u8], state_bytes: usize, eval_spin: u64) -> Vec<u8> {
    let count = states.len().checked_div(state_bytes).unwrap_or(0);
    // One spin per batch (models batched inference) plus a touch of every
    // state's bytes (the model must at least read its input).
    let mut checksum = 0u64;
    for chunk in states.chunks(state_bytes.max(1)) {
        checksum = checksum.wrapping_add(chunk.iter().map(|&b| b as u64).sum::<u64>());
    }
    std::hint::black_box(spin(eval_spin));
    // One f64 "action" per state.
    let mut out = Vec::with_capacity(count * 8);
    for i in 0..count {
        out.extend_from_slice(&((checksum as f64) + i as f64).to_le_bytes());
    }
    out
}

// ----------------------------------------------------------------------
// Embedded serving: the policy lives in an actor.
// ----------------------------------------------------------------------

/// The embedded policy server actor.
pub struct PolicyServer {
    state_bytes: usize,
    eval_spin: u64,
    requests: u64,
}

impl ActorInstance for PolicyServer {
    fn call(&mut self, _ctx: &RayContext, method: &str, args: &[Bytes]) -> RemoteResult {
        match method {
            "predict" => {
                let states: Blob = decode_arg(args, 0)?;
                self.requests += 1;
                let actions = evaluate_batch(&states.0, self.state_bytes, self.eval_spin);
                encode_return(&Blob(actions))
            }
            // Health probe for the serving pool: invoked read-only (not
            // logged, not replayed), must stay state-free.
            "ping" => encode_return(&self.requests),
            "requests" => encode_return(&self.requests),
            other => Err(format!("PolicyServer has no method {other}")),
        }
    }

    // The model parameters live in the ctor args; the only mutable state
    // is the served-request count, so checkpoints bound replay to the
    // interval tail (Fig. 11b) at the cost of eight bytes.
    fn checkpoint(&self) -> Option<Vec<u8>> {
        Some(self.requests.to_le_bytes().to_vec())
    }

    fn restore(&mut self, data: &[u8]) -> Result<(), String> {
        let bytes: [u8; 8] =
            data.try_into().map_err(|_| "PolicyServer checkpoint is 8 bytes".to_string())?;
        self.requests = u64::from_le_bytes(bytes);
        Ok(())
    }
}

/// Registers the policy-server actor class.
pub fn register(cluster: &Cluster) {
    cluster.register_actor_class("PolicyServer", |_ctx, args| {
        let state_bytes: u64 = decode_arg(args, 0)?;
        let eval_spin: u64 = decode_arg(args, 1)?;
        Ok(Box::new(PolicyServer {
            state_bytes: state_bytes as usize,
            eval_spin,
            requests: 0,
        }))
    });
}

/// Spawns an embedded policy server.
pub fn start_embedded(
    ctx: &RayContext,
    workload: &ServingWorkload,
) -> RayResult<ActorHandle> {
    let h = ctx.create_actor(
        "PolicyServer",
        vec![
            Arg::value(&(workload.state_bytes as u64))?,
            Arg::value(&workload.eval_spin)?,
        ],
        TaskOptions::default(),
    )?;
    ctx.get(&h.ready())?;
    Ok(h)
}

/// Drives the embedded server for `duration`, returning states/second.
pub fn embedded_throughput(
    ctx: &RayContext,
    server: &ActorHandle,
    workload: &ServingWorkload,
    duration: Duration,
) -> RayResult<f64> {
    let start = Instant::now();
    let mut states = 0u64;
    let mut round = 0u64;
    while start.elapsed() < duration {
        let batch = synthesize_states(workload.state_bytes, workload.batch, round);
        let batch_ref = ctx.put(&batch)?;
        let actions =
            ctx.call_actor::<Blob>(server, "predict", vec![Arg::from_ref(&batch_ref)])?;
        let out = ctx.get(&actions)?;
        debug_assert_eq!(out.0.len(), workload.batch * 8);
        states += workload.batch as u64;
        round += 1;
    }
    Ok(states as f64 / start.elapsed().as_secs_f64())
}

// ----------------------------------------------------------------------
// Pooled serving: Table 3's embedded server behind a replica pool.
// ----------------------------------------------------------------------

/// A [`PoolConfig`] serving this workload through `PolicyServer`
/// replicas: `predict` per request and the read-only `ping` probe.
/// Starts from the deterministic baseline — the caller opts into hedging /
/// autoscaling / SLOs.
pub fn pool_config(workload: &ServingWorkload) -> RayResult<PoolConfig> {
    let mut cfg = PoolConfig::deterministic("PolicyServer", "predict");
    cfg.ctor_args = vec![
        Arg::value(&(workload.state_bytes as u64))?,
        Arg::value(&workload.eval_spin)?,
    ];
    Ok(cfg)
}

// ----------------------------------------------------------------------
// Clipper-like serving: a real TCP model server.
// ----------------------------------------------------------------------

/// Handle to a running Clipper-like server.
pub struct ClipperServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ClipperServer {
    /// Starts the server on an ephemeral loopback port.
    pub fn start(workload: &ServingWorkload) -> std::io::Result<ClipperServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let state_bytes = workload.state_bytes;
        let eval_spin = workload.eval_spin;
        let rest_text = workload.rest_text_encoding;
        let handle = std::thread::Builder::new()
            .name("clipper-server".into())
            .spawn(move || {
                let mut workers = Vec::new();
                while !stop2.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let stop3 = stop2.clone();
                            workers.push(std::thread::spawn(move || {
                                let _ = serve_connection(
                                    stream, state_bytes, eval_spin, rest_text, stop3,
                                );
                            }));
                        }
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(_) => break,
                    }
                }
                for w in workers {
                    let _ = w.join();
                }
            })
            .expect("spawn clipper server");
        Ok(ClipperServer { addr, stop, handle: Some(handle) })
    }

    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ClipperServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn read_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    stream.write_all(&(payload.len() as u32).to_le_bytes())?;
    stream.write_all(payload)?;
    stream.flush()
}

fn serve_connection(
    mut stream: TcpStream,
    state_bytes: usize,
    eval_spin: u64,
    rest_text: bool,
    stop: Arc<AtomicBool>,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        let request = match read_frame(&mut stream) {
            Ok(r) => r,
            Err(ref e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return Ok(()), // Client went away.
        };
        // REST analog: (textually) deserialize, evaluate, serialize the
        // response the same way.
        let binary = if rest_text {
            rest_decode(&request).map_err(std::io::Error::other)?
        } else {
            request
        };
        let states: Blob =
            ray_codec::decode(&binary).map_err(|e| std::io::Error::other(e.to_string()))?;
        let actions = evaluate_batch(&states.0, state_bytes, eval_spin);
        let mut response = ray_codec::encode(&Blob(actions))
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        if rest_text {
            response = rest_encode(&response);
        }
        write_frame(&mut stream, &response)?;
    }
}

/// Drives the Clipper-like server for `duration`, returning
/// states/second.
pub fn clipper_throughput(
    addr: SocketAddr,
    workload: &ServingWorkload,
    duration: Duration,
) -> std::io::Result<f64> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let start = Instant::now();
    let mut states = 0u64;
    let mut round = 0u64;
    while start.elapsed() < duration {
        let batch = synthesize_states(workload.state_bytes, workload.batch, round);
        let mut request =
            ray_codec::encode(&batch).map_err(|e| std::io::Error::other(e.to_string()))?;
        if workload.rest_text_encoding {
            request = rest_encode(&request);
        }
        write_frame(&mut stream, &request)?;
        let mut response = read_frame(&mut stream)?;
        if workload.rest_text_encoding {
            response = rest_decode(&response).map_err(std::io::Error::other)?;
        }
        let actions: Blob =
            ray_codec::decode(&response).map_err(|e| std::io::Error::other(e.to_string()))?;
        debug_assert_eq!(actions.0.len(), workload.batch * 8);
        states += workload.batch as u64;
        round += 1;
    }
    Ok(states as f64 / start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ray_serve::ReplicaPool;
    use ray_common::RayConfig;

    fn workload() -> ServingWorkload {
        ServingWorkload {
            state_bytes: 1024,
            batch: 8,
            eval_spin: 100,
            rest_text_encoding: true,
        }
    }

    #[test]
    fn rest_encoding_round_trips() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(rest_decode(&rest_encode(&data)).unwrap(), data);
        assert!(rest_decode(b"0").is_err());
        assert!(rest_decode(b"zz").is_err());
    }

    #[test]
    fn evaluate_batch_shapes() {
        let out = evaluate_batch(&vec![1u8; 4096], 1024, 10);
        assert_eq!(out.len(), 4 * 8);
        assert!(evaluate_batch(&[], 1024, 10).is_empty());
    }

    #[test]
    fn calibrate_spin_is_monotone() {
        let short = calibrate_spin(Duration::from_micros(50));
        let long = calibrate_spin(Duration::from_micros(500));
        assert!(long > short);
    }

    #[test]
    fn embedded_serving_round_trips() {
        let cluster =
            Cluster::start(RayConfig::builder().nodes(1).workers_per_node(2).build()).unwrap();
        register(&cluster);
        let ctx = cluster.driver();
        let w = workload();
        let server = start_embedded(&ctx, &w).unwrap();
        let throughput =
            embedded_throughput(&ctx, &server, &w, Duration::from_millis(300)).unwrap();
        assert!(throughput > 0.0);
        // The request counter advanced.
        let reqs = ctx.call_actor::<u64>(&server, "requests", vec![]).unwrap();
        assert!(ctx.get(&reqs).unwrap() > 0);
        cluster.shutdown();
    }

    #[test]
    fn pooled_serving_round_trips() {
        let cluster = std::sync::Arc::new(
            Cluster::start(RayConfig::builder().nodes(2).workers_per_node(2).build()).unwrap(),
        );
        register(&cluster);
        let w = workload();
        let cfg = pool_config(&w).unwrap();
        let pool = ReplicaPool::deploy(&cluster, cfg).unwrap();
        assert_eq!(pool.replicas().len(), 2);
        let batch = synthesize_states(w.state_bytes, w.batch, 0);
        let actions = pool.request(batch.0).unwrap();
        assert_eq!(actions.len(), w.batch * 8);
        assert_eq!(pool.healthy_count(), 2);
        assert!(pool.latency_percentile(0.5).is_some());
        pool.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn clipper_serving_round_trips() {
        let w = workload();
        let mut server = ClipperServer::start(&w).unwrap();
        let throughput =
            clipper_throughput(server.addr(), &w, Duration::from_millis(300)).unwrap();
        assert!(throughput > 0.0);
        server.stop();
    }

    #[test]
    fn clipper_server_survives_multiple_clients() {
        let w = workload();
        let mut server = ClipperServer::start(&w).unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(move || {
                    clipper_throughput(addr, &workload(), Duration::from_millis(150)).unwrap()
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap() > 0.0);
        }
        server.stop();
    }
}
