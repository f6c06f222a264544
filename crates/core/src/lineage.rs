//! Lineage-based fault tolerance.
//!
//! "In the case of node failure, Ray recovers any needed objects through
//! lineage re-execution" (§4.2.3). The entry point is
//! [`ensure_object_at`]: fetch the object (Fig. 7's data path); if it has
//! been lost — every recorded replica sits on a dead node — read the
//! creating task off the object's ID and resubmit it, recursively
//! pulling its own lost inputs the same way when its worker resolves
//! arguments.
//!
//! Actor-method outputs are covered too: "By encoding actor method calls
//! as stateful edges directly in the dependency graph, we can reuse the
//! same object reconstruction mechanism" (Fig. 11b) — a lost method result
//! triggers an actor rebuild that replays the logged method chain from the
//! latest checkpoint.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use ray_common::trace::{TraceEntity, TraceEventKind};
use ray_common::{NodeId, ObjectId, RayError, RayResult, TaskId};

use crate::actor;
use crate::cancel::Token;
use crate::runtime::{RuntimeShared, StalledEntry};
use crate::task::{TaskKind, TaskSpec};

/// Per-round fetch window: long enough to cover scheduling + transfer of a
/// normal task's output, short enough that loss is detected promptly.
const FETCH_ROUND: Duration = Duration::from_millis(200);

/// How long a round waits on the caller's own store for a result whose
/// producer is dispatched there before it turns to the object table. A
/// task that finishes inside it costs its getter no GCS write; one that
/// runs longer costs the subscription it always did, 10 ms later.
const LOCAL_SEAL_WINDOW: Duration = Duration::from_millis(10);

/// Overall deadline for one `ensure` call; reconstruction chains reset it
/// per attempt, so deep recoveries still finish.
pub(crate) const DEFAULT_GET_DEADLINE: Duration = Duration::from_secs(60);

/// Identity of the task (or driver context) blocked inside an `ensure`
/// call. Each fetch round re-checks the waiter's cancel token and absolute
/// deadline, so a blocked consumer unwinds promptly instead of riding out
/// the full fetch deadline.
#[derive(Clone, Copy)]
pub(crate) struct Waiter<'a> {
    pub task: TaskId,
    pub deadline_micros: Option<u64>,
    /// The waiter's in-flight record; a driver has none.
    pub token: Option<&'a Token>,
}

/// Makes `id` available in `node`'s local store, reconstructing through
/// lineage if it has been lost. Returns the payload.
pub(crate) fn ensure_object_at(
    shared: &Arc<RuntimeShared>,
    id: ObjectId,
    node: NodeId,
    waiter: Option<Waiter<'_>>,
) -> RayResult<Bytes> {
    ensure_object_at_deadline(shared, id, node, DEFAULT_GET_DEADLINE, waiter)
}

/// [`ensure_object_at`] with an explicit deadline: the path of `get`,
/// `get_raw` and a worker's argument fetch. The object lands in `node`'s
/// store as a replica ([`TransferManager::fetch`]).
///
/// [`TransferManager::fetch`]: ray_object_store::transfer::TransferManager::fetch
pub(crate) fn ensure_object_at_deadline(
    shared: &Arc<RuntimeShared>,
    id: ObjectId,
    node: NodeId,
    deadline: Duration,
    waiter: Option<Waiter<'_>>,
) -> RayResult<Bytes> {
    ensure_with(shared, id, node, deadline, waiter, |data| data, |round| {
        shared.transfer.fetch(id, node, round)
    })
}

/// [`ensure_object_at_deadline`] without the replica: the path of
/// `get_pieces`. A payload off the wire goes to `sink` piece by piece
/// ([`TransferManager::fetch_pieces`]) and `None` is returned; an object
/// `node`'s store holds is returned whole and `sink` sees none of it.
///
/// [`TransferManager::fetch_pieces`]: ray_object_store::transfer::TransferManager::fetch_pieces
pub(crate) fn stream_object_at_deadline(
    shared: &Arc<RuntimeShared>,
    id: ObjectId,
    node: NodeId,
    deadline: Duration,
    waiter: Option<Waiter<'_>>,
    sink: &mut dyn FnMut(usize, &[u8]),
) -> RayResult<Option<Bytes>> {
    ensure_with(shared, id, node, deadline, waiter, Some, |round| {
        shared.transfer.fetch_pieces(id, node, round, sink)
    })
}

/// The rounds both paths share, `pull` being one round's pull through
/// the object table and `whole` what an object sealed in `node`'s store
/// becomes.
///
/// Each round first checks the waiter's cancel token and deadline. A task
/// return whose producer is queued or running on `node` itself (not one
/// whose record is only parked there while the task waits in the global
/// retries) is then awaited on `node`'s store for up to
/// [`LOCAL_SEAL_WINDOW`]: the finishing worker
/// seals the result there (or a teardown or failure envelope in its
/// place) and wakes the caller once the location is listed; the caller
/// writes nothing to the GCS. Any other
/// object, or one not sealed within the window, goes through the object
/// table for the rest of the round (`pull`: locations, else a
/// subscription); a round that ends empty-handed asks lineage to
/// re-run a lost or stalled producer. Actor-method results always take
/// the object table: their producer is not dispatched to a node, and an
/// actor can move on rebuild.
fn ensure_with<T>(
    shared: &Arc<RuntimeShared>,
    id: ObjectId,
    node: NodeId,
    deadline: Duration,
    waiter: Option<Waiter<'_>>,
    whole: impl Fn(Bytes) -> T,
    mut pull: impl FnMut(Duration) -> RayResult<T>,
) -> RayResult<T> {
    let clock = shared.trace.clock().clone();
    let overall = clock.now() + deadline;
    // The producer task this call escalated against (if any); its
    // stalled-entry is cleared once the object materializes, so the
    // resubmission budget applies per stall episode, not per cluster
    // lifetime.
    let mut engaged: Option<TaskId> = None;
    loop {
        let mut round = FETCH_ROUND.min(overall.saturating_duration_since(clock.now()));
        if let Some(w) = waiter {
            if w.token.is_some_and(Token::is_cancelled) {
                return Err(RayError::Cancelled(w.task));
            }
            if let Some(d) = w.deadline_micros {
                let now = clock.now_micros();
                if now >= d {
                    return Err(RayError::DeadlineExceeded(w.task));
                }
                // Cap the round so deadline expiry wakes the waiter
                // promptly rather than after a full fetch window.
                round = round.min(Duration::from_micros(d - now));
            }
        }
        if round.is_zero() {
            return Err(RayError::Timeout);
        }
        let local = id
            .producer()
            .and_then(|task| shared.node(node).filter(|h| h.with_records(|records| records.queued(task))));
        let fetched = match local {
            Some(handle) => {
                let window = LOCAL_SEAL_WINDOW.min(round);
                match handle.store.wait_local(id, window) {
                    Ok(data) => Ok(whole(data)),
                    Err(_) => pull(round.saturating_sub(window)),
                }
            }
            None => pull(round),
        };
        match fetched {
            Ok(data) => {
                if let Some(task) = engaged {
                    shared.stalled.lock().remove(&task);
                }
                return Ok(data);
            }
            Err(RayError::ObjectLost(_)) => {
                engaged = reconstruct(shared, id, Why::Lost)?.or(engaged);
                // The lost-replica probe returns quickly, but the
                // resubmitted producer may itself be recovering lost
                // inputs or waiting for a node slot to restart. Pace the
                // re-checks instead of spinning; the overall deadline
                // still bounds the wait.
                std::thread::sleep(Duration::from_millis(10).min(round));
            }
            Err(RayError::Timeout) => {
                // The object may simply not be computed yet. If its
                // producer is known and is *not* running anywhere live,
                // resubmit it; otherwise keep waiting.
                engaged = reconstruct(shared, id, Why::Stalled)?.or(engaged);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Outcome of asking for a producer resubmission slot.
enum Claim {
    /// The caller owns this resubmission: go run it.
    Go,
    /// Recently resubmitted (or another consumer owns it): keep waiting.
    Wait,
    /// The per-task resubmission budget is spent.
    Exhausted,
}

/// Claims the right to resubmit `task`. Every consumer blocked on the
/// same missing object escalates at once; this gate dedups them to one
/// resubmission per backoff window (doubling up to 16 fetch rounds) and
/// bounds the total number of resubmissions per task — the paper's
/// reconstruction is idempotent, but unbounded duplicate work is waste
/// and a producer that keeps dying must eventually surface as lost.
fn claim_resubmission(shared: &Arc<RuntimeShared>, task: TaskId) -> Claim {
    let mut stalled = shared.stalled.lock();
    let now = shared.trace.clock().now();
    let entry = stalled
        .entry(task)
        .or_insert(StalledEntry { attempts: 0, next_retry: now });
    if entry.attempts as usize >= shared.config.fault.max_reconstruction_attempts {
        return Claim::Exhausted;
    }
    if now < entry.next_retry {
        return Claim::Wait;
    }
    entry.attempts += 1;
    entry.next_retry = now + FETCH_ROUND * 2u32.saturating_pow(entry.attempts.min(4));
    Claim::Go
}

/// Why a consumer is asking for an object's producer to run again.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Why {
    /// Every recorded replica sits on a dead node: without a producer to
    /// re-run, the object is gone for good.
    Lost,
    /// A fetch round timed out: the object may simply not be computed yet,
    /// so anything short of a known, idle producer means "keep waiting".
    Stalled,
}

/// The single recover path: re-executes the task that creates `id` (or
/// rebuilds its actor) unless it is already running somewhere live.
/// Returns the producer task whose resubmission budget this call engaged,
/// so the caller can clear its stalled-entry once the object materializes.
fn reconstruct(shared: &Arc<RuntimeShared>, id: ObjectId, why: Why) -> RayResult<Option<TaskId>> {
    // No way to name or re-run a producer (`put` objects have no lineage).
    let no_producer = || match why {
        Why::Lost => Err(RayError::ObjectLost(id)),
        Why::Stalled => Ok(None),
    };
    let Some(task) = id.producer() else {
        return no_producer();
    };
    // A cancelled task's outputs are marked in the GCS object table;
    // lineage must never resurrect them, even after its typed error
    // envelopes are lost with a node.
    if shared.gcs_client.object_cancelled(id)? {
        return Err(RayError::Cancelled(task));
    }
    if shared.task_running_on_live_node(task) {
        // Still executing, or already re-executing (another consumer beat
        // us to it).
        return Ok(Some(task));
    }
    let Some(spec_bytes) = shared.gcs_client.get_task(task)? else {
        return no_producer();
    };
    let spec = TaskSpec::decode(&spec_bytes)?;
    if let TaskKind::ActorMethod { actor, .. } = spec.kind {
        match why {
            // A lost method result cannot be recomputed in isolation —
            // actor state has moved on. Rebuild the actor from its latest
            // checkpoint and replay the stateful-edge chain; replay
            // re-stores missing outputs (ours included).
            Why::Lost => actor::rebuild_actor(shared, actor)?,
            // The method is queued/pending at the actor router; poke
            // recovery in case its host died.
            Why::Stalled => actor::ensure_actor_alive(shared, actor)?,
        }
        return Ok(None);
    }
    match claim_resubmission(shared, task) {
        Claim::Exhausted if why == Why::Lost => Err(RayError::ObjectLost(id)),
        // Stalled and exhausted: keep waiting; the consumer's own deadline
        // turns a producer that never lands into a typed Timeout.
        Claim::Wait | Claim::Exhausted => Ok(Some(task)),
        Claim::Go => {
            let from = shared
                .any_live_node(NodeId(0))
                .ok_or_else(|| RayError::Shutdown("no live nodes".into()))?
                .node;
            shared.trace.emit(
                from,
                TraceEventKind::Reconstructing,
                TraceEntity::Object(id),
                match why {
                    Why::Lost => format!("task={task}"),
                    Why::Stalled => format!("task={task} stalled"),
                },
            );
            shared.resubmit(from, spec)?;
            Ok(Some(task))
        }
    }
}
