//! Ring allreduce expressed in the Ray API (paper Fig. 12).
//!
//! The paper implements allreduce as a plain Ray application — "allreduce
//! on Ray submits 32 rounds of 16 tasks in 200ms" (§6) — and shows it
//! *outperforming OpenMPI* because object transfers stripe across multiple
//! connections (Fig. 12a), while injected scheduler latency degrades it
//! (Fig. 12b). This module reproduces that application:
//!
//! - one [`RingWorker`] actor per participant, pinned to its node with the
//!   node-affinity resource (Ray's custom-resource idiom);
//! - each ring step is one actor method call per rank whose data
//!   dependency is an object reference: the receiving actor *fetches* the
//!   chunk object from the sender's node through the distributed object
//!   store — paying the striped transfer the experiment measures — reduces
//!   it into its buffer, and returns the sum, which is the chunk
//!   it sends in the next step (Hoplite's fused receive-reduce-send);
//! - the driver submits the entire `2(n−1)`-step schedule asynchronously
//!   and only blocks on the acknowledgements, so steps pipeline exactly as
//!   the dynamic task graph allows.

use std::ops::Range;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ray_codec::tensor::{encode_f64_blob, encode_f64_sum_blob, F64View};
use ray_codec::Blob;
use ray_common::{NodeId, ObjectId, RayError, RayResult};
use rustray::registry::RemoteResult;
use rustray::task::{Arg, ObjectRef, TaskOptions};
use rustray::{
    decode_arg, encode_return, encode_return_f64s, f64s_arg, ActorHandle, ActorInstance, Cluster,
    RayContext,
};

pub use ray_bsp::allreduce::chunk_bounds;

/// The per-participant actor. Its buffer is the sealed objects it sent and
/// received: contiguous segments covering `0..len`, each an encoded `f64`
/// blob. A `chunk` of a held segment returns that segment, a `set` keeps
/// the incoming object, and a `reduce` writes its sum once and keeps it,
/// so a ring step copies a chunk only where the wire does.
pub struct RingWorker {
    segments: Vec<Segment>,
    len: usize,
}

/// Elements `lo..hi` of a ring worker's buffer, encoded as one blob.
struct Segment {
    lo: usize,
    hi: usize,
    blob: Bytes,
}

impl ActorInstance for RingWorker {
    fn call(&mut self, _ctx: &RayContext, method: &str, args: &[Bytes]) -> RemoteResult {
        match method {
            // Returns buffer[lo..hi] as a tensor blob (the chunk object the
            // next ring member will pull across the network).
            "chunk" => {
                let range = self.range(args)?;
                Ok(vec![self.segment(range)?.blob.clone()])
            }
            // Adds an incoming chunk into buffer[lo..hi] and returns the
            // sum: the chunk this rank sends in the next step.
            "reduce" => {
                let range = self.range(args)?;
                let held = self.segment(range)?;
                let sum = encode_f64_sum_blob(view(&held.blob)?, f64s_arg(args, 2)?)
                    .map_err(|e| e.to_string())?;
                held.blob = Bytes::from(sum);
                Ok(vec![held.blob.clone()])
            }
            // Overwrites buffer[lo..hi] with a reduced chunk (allgather).
            // The incoming object replaces whatever segments the range
            // covers, so their contents are never merged.
            "set" => {
                let (lo, hi) = self.range(args)?;
                let (incoming, len) = (f64s_arg(args, 2)?.len(), hi - lo);
                if incoming != len {
                    return Err(format!("tensor of {incoming} elements into a slice of {len}"));
                }
                let covered = self.span(lo, hi)?;
                self.segments.splice(covered, [Segment { lo, hi, blob: args[2].clone() }]);
                encode_return(&0u8)
            }
            // Returns the whole buffer.
            "read" => {
                let mut all = Vec::with_capacity(self.len);
                for s in &self.segments {
                    all.extend(view(&s.blob)?.iter());
                }
                encode_return_f64s(&all)
            }
            other => Err(format!("RingWorker has no method {other}")),
        }
    }
}

impl RingWorker {
    /// The `buffer[lo..hi]` a method's first two arguments carry.
    fn range(&self, args: &[Bytes]) -> Result<(usize, usize), String> {
        let lo: u64 = decode_arg(args, 0)?;
        let hi: u64 = decode_arg(args, 1)?;
        let (lo, hi) = (lo as usize, hi as usize);
        if lo > hi || hi > self.len {
            return Err(format!("range {lo}..{hi} outside a buffer of {}", self.len));
        }
        Ok((lo, hi))
    }

    /// The held segment for `buffer[lo..hi]`. A range that is not one
    /// segment already becomes one, by copying the segments it spans.
    fn segment(&mut self, (lo, hi): (usize, usize)) -> Result<&mut Segment, String> {
        let covered = self.span(lo, hi)?;
        let at = covered.start;
        if covered.len() != 1 {
            let mut merged = Vec::with_capacity(hi - lo);
            for s in &self.segments[covered.clone()] {
                merged.extend(view(&s.blob)?.iter());
            }
            let blob = Bytes::from(encode_f64_blob(&merged));
            self.segments.splice(covered, [Segment { lo, hi, blob }]);
        }
        Ok(&mut self.segments[at])
    }

    /// The indices of the segments that exactly cover `lo..hi`: the one
    /// held segment that is that range, or else the run between segment
    /// boundaries put at `lo` and `hi`.
    fn span(&mut self, lo: usize, hi: usize) -> Result<Range<usize>, String> {
        if let Some(at) = self.segments.iter().position(|s| (s.lo, s.hi) == (lo, hi)) {
            return Ok(at..at + 1);
        }
        Ok(self.cut(lo)?..self.cut(hi)?)
    }

    /// Puts a segment boundary at element `x`, splitting the segment that
    /// straddles it into two blobs, and returns the index of the first
    /// segment that ends past `x`.
    fn cut(&mut self, x: usize) -> Result<usize, String> {
        let Some(i) = self.segments.iter().position(|s| s.hi > x) else {
            return Ok(self.segments.len());
        };
        let s = &mut self.segments[i];
        if s.lo == x {
            return Ok(i);
        }
        let values = view(&s.blob)?.to_vec();
        let (left, right) = values.split_at(x - s.lo);
        let right = Segment { lo: x, hi: s.hi, blob: Bytes::from(encode_f64_blob(right)) };
        s.blob = Bytes::from(encode_f64_blob(left));
        s.hi = x;
        self.segments.insert(i + 1, right);
        Ok(i + 1)
    }
}

/// The elements of an encoded blob.
fn view(blob: &Bytes) -> Result<F64View<'_>, String> {
    F64View::of_encoded_blob(blob).map_err(|e| e.to_string())
}

/// Registers the ring-worker actor class with a cluster.
pub fn register(cluster: &Cluster) {
    cluster.register_actor_class("RingWorker", |_ctx, args| {
        let len = f64s_arg(args, 0)?.len();
        let segments = vec![Segment { lo: 0, hi: len, blob: args[0].clone() }];
        Ok(Box::new(RingWorker { segments, len }))
    });
}

/// Creates `n` ring workers, worker `i` pinned to node `i % cluster_nodes`
/// with the given initial buffers.
pub fn create_ring(
    ctx: &RayContext,
    cluster_nodes: usize,
    buffers: Vec<Vec<f64>>,
) -> RayResult<Vec<ActorHandle>> {
    let mut handles = Vec::with_capacity(buffers.len());
    for (i, buf) in buffers.into_iter().enumerate() {
        let blob = Blob::from_f64s(&buf);
        let opts = TaskOptions::default()
            .with_demand(rustray::node_affinity(NodeId((i % cluster_nodes) as u32)));
        let h = ctx.create_actor("RingWorker", vec![Arg::value(&blob)?], opts)?;
        handles.push(h);
    }
    // Block until every worker is constructed so a timed phase afterwards
    // measures only the allreduce itself.
    for h in &handles {
        ctx.get(&h.ready())?;
    }
    Ok(handles)
}

/// Queues `method(lo, hi[, input])` on one ring worker.
fn submit<R>(
    ctx: &RayContext,
    worker: &ActorHandle,
    method: &str,
    (lo, hi): (usize, usize),
    input: Option<&ObjectRef<Blob>>,
) -> RayResult<ObjectRef<R>> {
    let mut args = vec![Arg::value(&(lo as u64))?, Arg::value(&(hi as u64))?];
    args.extend(input.map(Arg::from_ref));
    ctx.call_actor(worker, method, args)
}

/// Runs one ring allreduce over the workers' buffers (all must share one
/// length), blocking until every worker holds the fully reduced vector.
/// Returns the wall-clock duration of the collective.
pub fn ray_ring_allreduce(
    ctx: &RayContext,
    handles: &[ActorHandle],
    len: usize,
) -> RayResult<Duration> {
    let n = handles.len();
    if n <= 1 {
        return Ok(Duration::ZERO);
    }
    let bounds = chunk_bounds(len, n);
    let start = Instant::now();

    // Submit the full schedule asynchronously; object-reference data edges
    // and per-actor serial execution order the steps (standard ring: at
    // step s rank i sends chunk (i−s) mod n; the receiver reduces it).
    // `sending[i]` is the object rank i sends next. Every rank exports its
    // first chunk before any receive is queued, so all ranks transmit
    // concurrently from the first step on; after that a step is one
    // `reduce` per rank, whose return is what that rank sends next.
    let mut sending: Vec<ObjectRef<Blob>> = (0..n)
        .map(|i| submit(ctx, &handles[i], "chunk", bounds[i], None))
        .collect::<RayResult<_>>()?;
    let mut garbage: Vec<ObjectId> = sending.iter().map(|r| r.id()).collect();
    for step in 0..n - 1 {
        sending = (0..n)
            .map(|recv| {
                let from = (recv + n - 1) % n;
                let chunk = bounds[(from + n - step) % n];
                submit(ctx, &handles[recv], "reduce", chunk, Some(&sending[from]))
            })
            .collect::<RayResult<_>>()?;
        garbage.extend(sending.iter().map(|r| r.id()));
    }
    // Allgather: rank i now owns fully-reduced chunk (i+1) mod n, and
    // `sending[i]` already holds it as an object. At step s rank r takes
    // chunk (r−s) mod n straight from that object; each rank's serial
    // mailbox keeps it to one incoming chunk per step, as in a ring.
    let mut acks: Vec<ObjectRef<u8>> = Vec::with_capacity((n - 1) * n);
    for step in 0..n - 1 {
        for (recv, worker) in handles.iter().enumerate() {
            let chunk = (recv + n - step) % n;
            let owner = (chunk + n - 1) % n;
            acks.push(submit(ctx, worker, "set", bounds[chunk], Some(&sending[owner]))?);
        }
    }
    // Drain the acknowledgements (cheap scalars). A failed `reduce`
    // surfaces here too: failure propagates along the data edges.
    for ack in &acks {
        ctx.get(ack)?;
    }
    let elapsed = start.elapsed();
    // Free the collective's intermediates (chunk payloads and acks): a
    // long-lived training loop runs thousands of allreduces, and without
    // `free` their chunks would accumulate until LRU pressure (Ray's
    // `ray.internal.free` serves exactly this purpose).
    garbage.extend(acks.iter().map(|a| a.id()));
    ctx.free(&garbage)?;
    Ok(elapsed)
}

/// Ring allreduce built from plain *tasks* instead of actors: every step
/// is a `add_chunks` task submitted through the scheduler, so scheduling
/// latency sits directly on the critical path — the configuration the
/// Fig. 12b ablation measures ("Ray's low-latency scheduling is critical
/// for allreduce"; "the number of tasks required by ring reduce scales
/// quadratically with the number of participants").
///
/// Returns each participant's reduced buffer and the collective's wall
/// time, or [`RayError::Invalid`] if the buffers differ in length.
pub fn ray_task_ring_allreduce(
    ctx: &RayContext,
    buffers: Vec<Vec<f64>>,
) -> RayResult<(Vec<Vec<f64>>, Duration)> {
    let n = buffers.len();
    let len = buffers.first().map(Vec::len).unwrap_or(0);
    if let Some((rank, buf)) = buffers.iter().enumerate().find(|(_, b)| b.len() != len) {
        return Err(RayError::Invalid(format!(
            "rank {rank} holds {} elements, rank 0 holds {len}",
            buf.len()
        )));
    }
    if n == 0 {
        return Ok((Vec::new(), Duration::ZERO));
    }
    if n == 1 {
        return Ok((buffers, Duration::ZERO));
    }
    let bounds = chunk_bounds(len, n);
    let start = Instant::now();

    // Seed the chunk objects: chunks[i][c] = worker i's slice c.
    let mut chunks: Vec<Vec<ObjectRef<Blob>>> = Vec::with_capacity(n);
    for buf in &buffers {
        let mut row = Vec::with_capacity(n);
        for &(lo, hi) in &bounds {
            row.push(ctx.put(&Blob::from_f64s(&buf[lo..hi]))?);
        }
        chunks.push(row);
    }

    // Reduce-scatter: each step replaces the receiver's chunk with
    // add(receiver's chunk, sender's chunk) — one task per (step, rank).
    // The driver submits round by round, waiting for each round's results
    // to exist before issuing the next ("submits 32 rounds of 16 tasks",
    // paper §6) — which is exactly what puts per-round scheduling latency
    // on the critical path in Fig. 12b.
    for step in 0..n - 1 {
        let mut updates = Vec::with_capacity(n);
        for i in 0..n {
            let c = (i + n - step) % n; // Chunk rank i sends this step.
            let recv = (i + 1) % n;
            let sum: ObjectRef<Blob> = ctx.call(
                "add_chunks",
                vec![Arg::from_ref(&chunks[recv][c]), Arg::from_ref(&chunks[i][c])],
            )?;
            updates.push((recv, c, sum));
        }
        let round_ids: Vec<_> = updates.iter().map(|(_, _, s)| s.id()).collect();
        ctx.wait(&round_ids, round_ids.len(), Duration::from_secs(120))?;
        for (recv, c, sum) in updates {
            chunks[recv][c] = sum;
        }
    }
    // Allgather: circulate the fully reduced chunks (pure reference
    // rewiring: rank i's view of chunk c becomes the owner's object).
    for step in 0..n - 1 {
        let mut updates = Vec::with_capacity(n);
        for (i, row) in chunks.iter().enumerate() {
            let c = (i + 1 + n - step) % n;
            let recv = (i + 1) % n;
            updates.push((recv, c, row[c]));
        }
        for (recv, c, obj) in updates {
            chunks[recv][c] = obj;
        }
    }

    // Materialize every participant's full buffer.
    let mut out = Vec::with_capacity(n);
    for row in &chunks {
        let mut buf = Vec::with_capacity(len);
        for r in row {
            buf.extend(ctx.get(r)?.f64s().map_err(RayError::from)?.iter());
        }
        out.push(buf);
    }
    let elapsed = start.elapsed();
    // Free the final chunk objects (intermediate sums were superseded in
    // `chunks` and freed by reference rewiring is not possible for task
    // outputs, so free the reachable set we still hold).
    let garbage: Vec<ObjectId> = chunks.iter().flatten().map(|r| r.id()).collect();
    ctx.free(&garbage)?;
    Ok((out, elapsed))
}

/// Registers the chunk-summing task used by [`ray_task_ring_allreduce`].
pub fn register_task_allreduce(cluster: &Cluster) {
    cluster.register_raw("add_chunks", |_ctx, args| {
        let sum = encode_f64_sum_blob(f64s_arg(args, 0)?, f64s_arg(args, 1)?)
            .map_err(|e| e.to_string())?;
        Ok(vec![Bytes::from(sum)])
    });
}

/// Reads back every worker's buffer (verification).
pub fn read_buffers(ctx: &RayContext, handles: &[ActorHandle]) -> RayResult<Vec<Vec<f64>>> {
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        let r = ctx.call_actor::<Blob>(h, "read", vec![])?;
        out.push(ctx.get(&r)?.f64s().map_err(RayError::from)?.to_vec());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ray_bsp::BspWorld;
    use ray_common::config::TransportConfig;
    use ray_common::RayConfig;

    /// Values whose sums round, so a different order of additions would
    /// show up in the low bits.
    fn rank_buffers(workers: usize, len: usize) -> Vec<Vec<f64>> {
        (0..workers)
            .map(|w| (0..len).map(|i| ((w + 2) as f64).sqrt() * (i + 1) as f64 / 7.0).collect())
            .collect()
    }

    /// The fused ring against the BSP ring on the same inputs: every rank of
    /// both must hold the same bits.
    fn run_allreduce(workers: usize, nodes: usize, len: usize) {
        let buffers = rank_buffers(workers, len);
        let fast = TransportConfig {
            latency: Duration::from_micros(1),
            ..TransportConfig::default()
        };
        let expected = BspWorld::new(workers, &fast).run(|rank| {
            let mut data = buffers[rank.rank()].clone();
            rank.allreduce_sum(&mut data);
            data
        });

        let cluster =
            Cluster::start(RayConfig::builder().nodes(nodes).workers_per_node(2).build()).unwrap();
        register(&cluster);
        let ctx = cluster.driver();
        let handles = create_ring(&ctx, nodes, buffers).unwrap();
        ray_ring_allreduce(&ctx, &handles, len).unwrap();
        let got = read_buffers(&ctx, &handles).unwrap();
        cluster.shutdown();

        let bits = |bufs: &[Vec<f64>]| -> Vec<Vec<u64>> {
            bufs.iter().map(|b| b.iter().map(|v| v.to_bits()).collect()).collect()
        };
        assert_eq!(bits(&got), bits(&expected), "{workers} workers, {nodes} nodes, len {len}");
    }

    #[test]
    fn allreduce_2_workers() {
        run_allreduce(2, 2, 64);
    }

    #[test]
    fn allreduce_4_workers_uneven_chunks() {
        run_allreduce(4, 2, 37);
    }

    #[test]
    fn allreduce_more_workers_than_nodes() {
        run_allreduce(6, 3, 47);
    }

    #[test]
    fn allreduce_fewer_elements_than_ranks() {
        run_allreduce(4, 4, 3);
    }

    #[test]
    fn one_iteration_is_n_plus_2n_n_minus_1_calls() {
        let cluster =
            Cluster::start(RayConfig::builder().nodes(4).workers_per_node(2).build()).unwrap();
        register(&cluster);
        let ctx = cluster.driver();
        let handles = create_ring(&ctx, 4, rank_buffers(4, 64)).unwrap();
        let submitted = cluster.metrics().counter(ray_common::metrics::names::TASKS_SUBMITTED);
        let before = submitted.get();
        ray_ring_allreduce(&ctx, &handles, 64).unwrap();
        assert_eq!(submitted.get() - before, 4 + 2 * 4 * 3);
        cluster.shutdown();
    }

    #[test]
    fn malformed_ranges_and_chunks_are_errors_not_panics() {
        let cluster =
            Cluster::start(RayConfig::builder().nodes(1).workers_per_node(1).build()).unwrap();
        register(&cluster);
        let ctx = cluster.driver();
        let handles = create_ring(&ctx, 1, vec![vec![1.0, 2.0, 3.0]]).unwrap();
        let two = ctx.put(&Blob::from_f64s(&[1.0, 1.0])).unwrap();
        // Range past the buffer; chunk shorter than the range.
        let h = &handles[0];
        assert!(ctx.get(&submit::<Blob>(&ctx, h, "chunk", (2, 9), None).unwrap()).is_err());
        assert!(ctx.get(&submit::<Blob>(&ctx, h, "reduce", (0, 3), Some(&two)).unwrap()).is_err());
        assert!(ctx.get(&submit::<u8>(&ctx, h, "set", (0, 3), Some(&two)).unwrap()).is_err());
        // The failed calls changed nothing.
        assert_eq!(read_buffers(&ctx, &handles).unwrap()[0], vec![1.0, 2.0, 3.0]);
        cluster.shutdown();
    }

    /// A 1-node ring of one worker holding `buffer`.
    fn one_worker(buffer: Vec<f64>) -> (Cluster, RayContext, ActorHandle) {
        let cluster =
            Cluster::start(RayConfig::builder().nodes(1).workers_per_node(1).build()).unwrap();
        register(&cluster);
        let ctx = cluster.driver();
        let h = create_ring(&ctx, 1, vec![buffer]).unwrap().remove(0);
        (cluster, ctx, h)
    }

    /// The payload address of an object as the store on node 0 holds it.
    fn payload_ptr(ctx: &RayContext, id: ObjectId) -> *const u8 {
        ctx.get_raw(id, Duration::from_secs(10)).unwrap().as_ptr()
    }

    #[test]
    fn a_set_chunk_is_the_sealed_argument_itself() {
        let (cluster, ctx, h) = one_worker(vec![0.0; 8]);
        let incoming = ctx.put(&Blob::from_f64s(&[1.0, 2.0, 3.0])).unwrap();
        ctx.get(&submit::<u8>(&ctx, &h, "set", (2, 5), Some(&incoming)).unwrap()).unwrap();
        let out = submit::<Blob>(&ctx, &h, "chunk", (2, 5), None).unwrap();
        assert_eq!(ctx.get(&out).unwrap().f64s().unwrap().to_vec(), vec![1.0, 2.0, 3.0]);
        assert_eq!(payload_ptr(&ctx, out.id()), payload_ptr(&ctx, incoming.id()));
        cluster.shutdown();
    }

    #[test]
    fn a_reduce_return_is_the_next_chunk_of_its_range() {
        let (cluster, ctx, h) = one_worker(vec![1.0; 8]);
        let incoming = ctx.put(&Blob::from_f64s(&[0.5; 4])).unwrap();
        let sum = submit::<Blob>(&ctx, &h, "reduce", (4, 8), Some(&incoming)).unwrap();
        let next = submit::<Blob>(&ctx, &h, "chunk", (4, 8), None).unwrap();
        assert_eq!(ctx.get(&next).unwrap().f64s().unwrap().to_vec(), vec![1.5; 4]);
        assert_eq!(payload_ptr(&ctx, sum.id()), payload_ptr(&ctx, next.id()));
        cluster.shutdown();
    }

    #[test]
    fn held_segments_match_a_flat_buffer_bit_for_bit() {
        use ray_common::util::DetRng;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let blob = |v: &[f64]| Bytes::from(encode_f64_blob(v));
        let index = |x: usize| Bytes::from(ray_codec::encode(&(x as u64)).unwrap());
        let cluster =
            Cluster::start(RayConfig::builder().nodes(1).workers_per_node(1).build()).unwrap();
        let ctx = cluster.driver();
        for seed in 0..40u64 {
            let mut rng = DetRng::new(seed ^ 0x5E6);
            let len = 1 + rng.next_below(40) as usize;
            let mut model: Vec<f64> = (0..len).map(|_| rng.next_f64()).collect();
            let mut worker = RingWorker {
                segments: vec![Segment { lo: 0, hi: len, blob: blob(&model) }],
                len,
            };
            for step in 0..60 {
                // Whole buffer, a ring's chunk, or any range at all (most
                // of which straddle segments).
                let (lo, hi) = match rng.next_below(3) {
                    0 => (0, len),
                    1 => {
                        let ranks = 1 + rng.next_below(5) as usize;
                        chunk_bounds(len, ranks)[rng.next_below(ranks as u64) as usize]
                    }
                    _ => {
                        let a = rng.next_below(len as u64 + 1) as usize;
                        let b = rng.next_below(len as u64 + 1) as usize;
                        (a.min(b), a.max(b))
                    }
                };
                let values: Vec<f64> = (lo..hi).map(|_| rng.next_f64() * 1e3).collect();
                let mut args = vec![index(lo), index(hi), blob(&values)];
                let method = ["set", "reduce", "chunk"][rng.next_below(3) as usize];
                match method {
                    "set" => model[lo..hi].copy_from_slice(&values),
                    "reduce" => model[lo..hi].iter_mut().zip(&values).for_each(|(m, v)| *m += v),
                    _ => args.truncate(2),
                }
                let out = worker.call(&ctx, method, &args).unwrap();
                let at = format!("seed {seed} step {step}: {method} {lo}..{hi}");
                if method != "set" {
                    let got = F64View::of_encoded_blob(&out[0]).unwrap().to_vec();
                    assert_eq!(bits(&got), bits(&model[lo..hi]), "{at}");
                }
                // Contiguous from 0 to len, each the length of its blob; at
                // most one empty segment per boundary, so repeated empty
                // ranges do not pile up.
                let mut next = 0;
                for s in &worker.segments {
                    assert!(s.lo == next && s.lo <= s.hi, "{at}: segment {}..{}", s.lo, s.hi);
                    let held = view(&s.blob).map(|v| v.len());
                    assert_eq!(held, Ok(s.hi - s.lo), "{at}: segment {}..{}", s.lo, s.hi);
                    next = s.hi;
                }
                assert_eq!(next, len, "{at}");
                let held = worker.segments.len();
                assert!(held <= 2 * len + 1, "{at}: {held} segments");
            }
            let read = worker.call(&ctx, "read", &[]).unwrap();
            let got = F64View::of_encoded_blob(&read[0]).unwrap().to_vec();
            assert_eq!(bits(&got), bits(&model), "seed {seed}: read");
        }
        cluster.shutdown();
    }

    #[test]
    fn one_iteration_moves_every_chunk_across_the_fabric() {
        let (n, len) = (4, 64);
        let cluster =
            Cluster::start(RayConfig::builder().nodes(n).workers_per_node(2).build()).unwrap();
        register(&cluster);
        let ctx = cluster.driver();
        let handles = create_ring(&ctx, n, rank_buffers(n, len)).unwrap();
        let before = cluster.fabric().bytes_transferred();
        ray_ring_allreduce(&ctx, &handles, len).unwrap();
        let moved = cluster.fabric().bytes_transferred() - before;
        // Every step's chunk crosses once; so do the `set` acks of the
        // ranks off the driver's node, one encoded byte each.
        let chunk = encode_f64_blob(&[0.0; 16]).len();
        let ack = ray_codec::encode(&0u8).unwrap().len();
        assert_eq!(moved as usize, 2 * n * (n - 1) * chunk + (n - 1) * (n - 1) * ack);
        cluster.shutdown();
    }

    #[test]
    fn task_allreduce_matches_expected_sums() {
        let cluster =
            Cluster::start(RayConfig::builder().nodes(2).workers_per_node(2).build()).unwrap();
        register_task_allreduce(&cluster);
        let ctx = cluster.driver();
        let n = 4;
        let len = 25;
        let buffers: Vec<Vec<f64>> = (0..n)
            .map(|w| (0..len).map(|i| (w * len + i) as f64).collect())
            .collect();
        let expected: Vec<f64> = (0..len)
            .map(|i| (0..n).map(|w| (w * len + i) as f64).sum())
            .collect();
        let (out, _) = ray_task_ring_allreduce(&ctx, buffers).unwrap();
        for buf in out {
            for (a, b) in buf.iter().zip(expected.iter()) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }
        cluster.shutdown();
    }

    #[test]
    fn task_allreduce_rejects_ragged_buffers() {
        let cluster =
            Cluster::start(RayConfig::builder().nodes(1).workers_per_node(1).build()).unwrap();
        register_task_allreduce(&cluster);
        let ctx = cluster.driver();
        for (first, second) in [(4, 3), (3, 4)] {
            let buffers = vec![vec![1.0; first], vec![2.0; second]];
            match ray_task_ring_allreduce(&ctx, buffers) {
                Err(RayError::Invalid(msg)) => assert_eq!(
                    msg,
                    format!("rank 1 holds {second} elements, rank 0 holds {first}")
                ),
                other => panic!("lengths [{first}, {second}]: expected Invalid, got {other:?}"),
            }
        }
        cluster.shutdown();
    }

    #[test]
    fn single_worker_is_a_noop() {
        let cluster =
            Cluster::start(RayConfig::builder().nodes(1).workers_per_node(1).build()).unwrap();
        register(&cluster);
        let ctx = cluster.driver();
        let handles = create_ring(&ctx, 1, vec![vec![5.0, 6.0]]).unwrap();
        ray_ring_allreduce(&ctx, &handles, 2).unwrap();
        assert_eq!(read_buffers(&ctx, &handles).unwrap()[0], vec![5.0, 6.0]);
        cluster.shutdown();
    }
}
