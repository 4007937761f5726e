//! Multi-threaded sharded ingestion pipeline with supervised workers.
//!
//! [`ParallelLtc`] is the threaded runtime over the hash-sharding scheme of
//! [`crate::sharded`]: `N` worker threads, each owning one [`Ltc`] shard,
//! fed through bounded [`SpscRing`] queues with **batched hand-off** —
//! the routing side accumulates each shard's records into a batch and sends
//! whole batches, so queue synchronisation is paid once per batch while the
//! workers ingest through the bit-exact [`Ltc::insert_batch`] hot path.
//! The [`spsc`](crate::spsc) queues, the crate's only unsafe code, carry
//! batches and nothing else.
//!
//! ## Equivalence to the single-threaded runtime
//!
//! The shard tables are built by [`ShardedLtc::new`] itself (same per-shard
//! seed perturbation) and records are routed by the same
//! [`shard_of_id`] hash in stream order, so after the same records and the
//! same period boundaries every shard is **bit-identical** to the
//! corresponding shard of a single-threaded [`ShardedLtc`] fed the same
//! stream — parallelism changes only who does the work, never the result
//! (on the fault-free path). An integration test pins this.
//!
//! ## Period coordination
//!
//! Workers only apply batches; the coordinator closes periods.
//! [`end_period`](ParallelLtc::end_period) first runs the drain barrier of
//! [`sync`](ParallelLtc::sync): it flushes every pending batch and blocks
//! until every live worker has acknowledged everything sent. Because each
//! queue is FIFO, every record inserted before the call is then in its
//! shard, and every worker is idle. The coordinator applies
//! [`Ltc::end_period`] to each live shard under its lock and refreshes that
//! lane's rollback point from the closed table — the parallel stream
//! observes exactly the same period boundaries as a sequential one.
//! [`finish`](ParallelLtc::finish) does the same with [`Ltc::finalize`].
//! Stopping the runtime poisons every queue and joins the workers, each of
//! which exits once its queue is drained.
//!
//! ## Fault model and supervision
//!
//! A shard worker that panics (a bug, a poisoned input, an injected
//! failpoint) no longer aborts the process. The worker catches the unwind,
//! poisons its queue (so the router can never block on it), marks its
//! [`Progress`] barrier dead (so a waiting `end_period` returns instead of
//! deadlocking) and exits, returning a typed [`WorkerFault`] as the
//! thread's result. The coordinator then *supervises* the lane under one
//! fixed policy:
//!
//! 1. the dead worker is joined and its fault taken from the join;
//! 2. the shard table is rolled back to its **rollback point** — a copy of
//!    the table the lane keeps and the coordinator refreshes in place at
//!    every period close;
//! 3. within the budget of 3 restarts per shard a fresh worker is spawned
//!    on a fresh queue after a backoff of 5 ms, doubling per restart up to
//!    a 500 ms cap. A barrier waiting on the dead worker waits on the
//!    fresh one instead, which owes it nothing, so a period close in
//!    progress completes on the rolled-back table;
//! 4. once the 3 restarts are spent — or the OS refuses the replacement
//!    thread — the shard is marked **lossy**: records routed to it are
//!    dropped (and counted), while queries keep serving the shard's
//!    last-good state alongside the healthy shards.
//!
//! Records between the rollback point and the fault are lost — that is the
//! documented recovery semantic (at-most-once per shard epoch), and
//! [`ShardHealth`] reports both the restarts and a lower bound on the loss.
//! Operations that can observe a degraded runtime return
//! `Result<_, RuntimeError>`; the [`StreamProcessor`]/[`SignificanceQuery`]
//! trait impls stay infallible by design and serve best-effort degraded
//! answers instead.
//!
//! ## Queries
//!
//! [`estimate`](SignificanceQuery::estimate) and
//! [`top_k`](SignificanceQuery::top_k) first drain the pipeline (flush +
//! barrier), then read the shard tables under their locks and merge, so a
//! query observes every record inserted before it.

use crate::config::{backoff_for, LtcConfig, MAX_RESTARTS};
use crate::obs::audit::HealthAuditor;
use crate::obs::trace::{names, SpanCtx, TraceTrack};
use crate::obs::{RuntimeObs, ShardObs};
use crate::sharded::{shard_of_id, ShardedLtc};
use crate::spsc::SpscRing;
use crate::stats::LtcStats;
use crate::table::Ltc;
use crate::{elapsed_ns, lock_recover};
use ltc_common::{
    top_k_of, BatchStreamProcessor, Estimate, ItemId, MemoryUsage, SignificanceQuery,
    StreamProcessor,
};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Records accumulated per shard before a batch is handed to its worker.
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// Batches queued per worker before the router blocks (backpressure).
const RING_CAPACITY: usize = 8;

/// The one unit of work a shard worker gets: a run of records already
/// routed to its shard, in order, plus the context of the router's
/// `batch_enqueue` span (`None` when tracing is off), so the worker's
/// `batch_process` span joins the same causal tree across the SPSC
/// boundary.
struct Batch {
    ids: Vec<ItemId>,
    enqueue: Option<SpanCtx>,
}

/// How a worker died — the typed half of a [`WorkerFault`], also used as
/// the `kind` label of the `ltc_worker_faults_total` metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The worker panicked applying a batch (caught by `catch_unwind`).
    Panic,
    /// The OS refused to spawn a replacement thread.
    SpawnFailed,
    /// The worker exited without leaving a fault report (should not
    /// happen; kept typed so it is visible if it ever does).
    Silent,
}

impl FaultKind {
    /// Stable lowercase name, used as a metric label value.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::SpawnFailed => "spawn_failed",
            FaultKind::Silent => "silent",
        }
    }

    /// Stable numeric code, carried in journal events' `detail` word.
    pub fn code(self) -> u64 {
        match self {
            FaultKind::Panic => 0,
            FaultKind::SpawnFailed => 1,
            FaultKind::Silent => 2,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed report of one worker death, surfaced to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFault {
    /// Which shard's worker died.
    pub shard: usize,
    /// How it died.
    pub kind: FaultKind,
    /// The panic message (or a description of the spawn failure).
    pub message: String,
}

impl std::fmt::Display for WorkerFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} worker died ({}): {}",
            self.shard, self.kind, self.message
        )
    }
}

/// Error surface of the supervised runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// One or more shards exhausted their restart budget and are lossy:
    /// they serve their last-good state but accept no new records. The
    /// runtime remains usable in this degraded mode.
    ShardsLost {
        /// The terminal fault of every lossy shard, in shard order.
        faults: Vec<WorkerFault>,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::ShardsLost { faults } => {
                write!(
                    f,
                    "{} shard(s) lossy after exhausting restarts:",
                    faults.len()
                )?;
                for fault in faults {
                    write!(f, " [{fault}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Per-shard health as reported by [`ParallelLtc::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardHealth {
    /// The worker is live (possibly after supervised restarts).
    Healthy {
        /// Restarts consumed so far (0 = never faulted).
        restarts: u32,
        /// Lower bound on records dropped during past recoveries.
        records_lost: u64,
        /// Journal sequence number of this shard's most recent
        /// [`crate::obs::EventKind::WorkerFault`] event — correlate with
        /// drained journal events. `None` until the shard first faults
        /// (or when the runtime was built without observability).
        last_fault_seq: Option<u64>,
    },
    /// The restart budget is exhausted; the shard serves its last-good
    /// state and drops new records.
    Lossy {
        /// The terminal fault.
        fault: WorkerFault,
        /// Restarts consumed before the budget ran out.
        restarts: u32,
        /// Lower bound on records dropped (recoveries + post-degradation).
        records_lost: u64,
        /// Journal sequence number of the most recent fault event (see
        /// the `Healthy` variant).
        last_fault_seq: Option<u64>,
    },
}

impl ShardHealth {
    /// Restarts consumed, whatever the state.
    pub fn restarts(&self) -> u32 {
        match self {
            ShardHealth::Healthy { restarts, .. } | ShardHealth::Lossy { restarts, .. } => {
                *restarts
            }
        }
    }

    /// Journal seq of the most recent fault event on this shard, if any.
    pub fn last_fault_seq(&self) -> Option<u64> {
        match self {
            ShardHealth::Healthy { last_fault_seq, .. }
            | ShardHealth::Lossy { last_fault_seq, .. } => *last_fault_seq,
        }
    }
}

/// Returned by [`Progress::wait_for`] when the worker behind the barrier
/// died before reaching the target: the waiter must run supervision
/// instead of blocking forever.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierPoisoned;

#[derive(Debug)]
struct ProgressState {
    done: u64,
    dead: bool,
}

/// Monotone completion counter a worker bumps after every batch, with a
/// condvar so the router can wait for a target — the ack half of the epoch
/// barrier — plus a `dead` flag the worker raises when it dies, so the
/// router's wait returns [`BarrierPoisoned`] instead of deadlocking.
///
/// Built on [`crate::shim`] primitives and exposed (`#[doc(hidden)]`) so
/// `tests/loom_barrier.rs` can model-check the wait/bump/mark-dead
/// handshake under every bounded interleaving: `wait_for(t)` must never
/// return `Ok` before `t` bumps happened, must never miss a wakeup, and
/// must return `Err` in every interleaving where the worker dies short of
/// the target. Not part of the public API.
#[doc(hidden)]
#[derive(Debug)]
pub struct Progress {
    state: crate::shim::Mutex<ProgressState>,
    changed: crate::shim::Condvar,
}

impl Default for Progress {
    fn default() -> Self {
        Self::new()
    }
}

impl Progress {
    /// A counter at zero.
    pub fn new() -> Self {
        Self {
            state: crate::shim::Mutex::new(ProgressState {
                done: 0,
                dead: false,
            }),
            changed: crate::shim::Condvar::new(),
        }
    }

    fn lock(&self) -> crate::shim::MutexGuard<'_, ProgressState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Record one completed batch and wake any waiting router.
    pub fn bump(&self) {
        let mut state = self.lock();
        state.done = state.done.saturating_add(1);
        drop(state);
        self.changed.notify_all();
    }

    /// Raise the dead flag (the worker is exiting on a fault) and wake any
    /// waiting router so it can supervise instead of blocking forever.
    pub fn mark_dead(&self) {
        let mut state = self.lock();
        state.dead = true;
        drop(state);
        self.changed.notify_all();
    }

    /// Block until at least `target` batches have completed (`Ok`), or
    /// until the worker is marked dead short of the target (`Err`). The
    /// predicate is (re)checked under the same lock `bump` and `mark_dead`
    /// hold while mutating, so a wakeup between the check and the wait
    /// cannot be lost — `tests/loom_barrier.rs` proves a check-then-wait
    /// variant without that discipline deadlocks.
    pub fn wait_for(&self, target: u64) -> Result<(), BarrierPoisoned> {
        let mut state = self.lock();
        while state.done < target {
            if state.dead {
                return Err(BarrierPoisoned);
            }
            state = match self.changed.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        Ok(())
    }
}

/// Everything a worker thread needs, bundled so respawning is one call.
struct WorkerCtx {
    shard_index: usize,
    queue: Arc<SpscRing<Batch>>,
    shard: Arc<Mutex<Ltc>>,
    progress: Arc<Progress>,
    /// Wait-free metric handles for this shard (`None` = metrics off).
    obs: Option<ShardObs>,
    /// This shard's span ring (`None` = tracing off). Wait-free record
    /// path; drained by the router behind the epoch barrier.
    trace: Option<TraceTrack>,
}

/// One shard's routing lane: the batch under construction, the channel to
/// its worker, the barrier state, and the supervision bookkeeping.
struct Lane {
    /// Per-shard batch under construction.
    pending: Vec<ItemId>,
    /// Batches enqueued to the *current* worker (the barrier's send-side
    /// count; reset on restart).
    sent: u64,
    queue: Arc<SpscRing<Batch>>,
    progress: Arc<Progress>,
    /// The shard's rollback point: a copy of its table at the last period
    /// close (or restore), refreshed in place by the coordinator.
    point: Ltc,
    /// The live worker; it returns its fault (if it died of one) through
    /// the join.
    worker: Option<JoinHandle<Option<WorkerFault>>>,
    /// Restarts consumed from the budget.
    restarts: u32,
    /// `Some(fault)` once the budget is exhausted.
    lossy: Option<WorkerFault>,
    /// Lower bound on records dropped (salvaged batches + lossy routing).
    records_lost: u64,
    /// Wait-free metric handles for this shard (`None` = metrics off).
    obs: Option<ShardObs>,
    /// The shard worker's span ring; cloned into every respawned worker so
    /// restarted workers keep recording into the same ring.
    trace: Option<TraceTrack>,
    /// Journal seq of this shard's most recent fault event.
    last_fault_seq: Option<u64>,
}

/// The router's tracing state: its own span ring plus the contexts that
/// stitch the causal tree together — each batch's `batch_enqueue` span is
/// a tree root, the next `barrier_wait` span parents under the most recent
/// enqueue, and a checkpoint publish parents under the most recent
/// barrier, so one batch's enqueue → process → barrier → checkpoint chain
/// shares one `trace_id`.
struct RouterTrace {
    track: TraceTrack,
    /// Context of the most recent `batch_enqueue` span.
    last_enqueue: Option<SpanCtx>,
    /// Context of the most recent `barrier_wait` span.
    last_barrier: Option<SpanCtx>,
}

struct Inner {
    lanes: Vec<Lane>,
    /// Router-side tracing state (`None` = tracing off).
    trace: Option<RouterTrace>,
}

/// The multi-threaded sharded LTC runtime with supervised workers. See the
/// module docs.
pub struct ParallelLtc {
    inner: Mutex<Inner>,
    shards: Vec<Arc<Mutex<Ltc>>>,
    batch_size: usize,
    /// Shared observability state (`None` = metrics off, for overhead
    /// comparison; the default constructors enable it).
    obs: Option<Arc<RuntimeObs>>,
    /// Per-period algorithm-health auditor (`None` = metrics off).
    auditor: Option<HealthAuditor>,
    /// Periods completed (drives the rollover journal events).
    periods: u64,
    /// Checkpoint restores performed (feeds the auditor's rollback drift
    /// signal alongside the per-lane restart counts).
    restores: u64,
}

impl std::fmt::Debug for ParallelLtc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelLtc")
            .field("num_shards", &self.shards.len())
            .field("batch_size", &self.batch_size)
            .finish_non_exhaustive()
    }
}

/// Start a worker for `lane` on a fresh queue and barrier, over `shard`'s
/// current state. If the OS refuses the thread, the lane degrades instead
/// of panicking: the spawn fault is noted, then the lane goes lossy (see
/// [`degrade`]).
fn spawn_worker(
    lane: &mut Lane,
    shard: &Arc<Mutex<Ltc>>,
    shard_index: usize,
    obs: Option<&RuntimeObs>,
) {
    lane.queue = Arc::new(fresh_ring(lane.obs.as_ref()));
    lane.progress = Arc::new(Progress::new());
    lane.sent = 0;
    let ctx = WorkerCtx {
        shard_index,
        queue: Arc::clone(&lane.queue),
        shard: Arc::clone(shard),
        progress: Arc::clone(&lane.progress),
        obs: lane.obs.clone(),
        trace: lane.trace.clone(),
    };
    let spawned = std::thread::Builder::new()
        .name(format!("ltc-shard-{shard_index}"))
        .spawn(move || worker_loop(&ctx));
    match spawned {
        Ok(handle) => lane.worker = Some(handle),
        Err(e) => {
            let fault = WorkerFault {
                shard: shard_index,
                kind: FaultKind::SpawnFailed,
                message: format!("spawn failed: {e}"),
            };
            note_fault(lane, shard_index, &fault, obs);
            degrade(lane, shard_index, fault, obs);
        }
    }
}

/// Extract a readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Apply batches until the queue is poisoned and drained (the runtime is
/// stopping, or the supervisor tore the lane down), or until a batch
/// panics: then poison the queue, mark the barrier dead and return the
/// fault — the supervisor takes it from the join.
fn worker_loop(ctx: &WorkerCtx) -> Option<WorkerFault> {
    while let Some(Batch { ids, enqueue }) = ctx.queue.pop() {
        // Pre-derive the apply span's identity from the shipped context
        // *before* entering `catch_unwind`: a panicking batch still records
        // its (partial) span via the guard's `Drop`, and the fault event
        // below parents under the same span.
        let span_plan = ctx.trace.as_ref().map(|t| {
            let parent_id = enqueue.map(|p| p.span_id).unwrap_or(0);
            (t.child_or_root(enqueue), parent_id)
        });
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _apply_span = match (&ctx.trace, span_plan) {
                (Some(t), Some((span, parent_id))) => {
                    Some(t.span_at(span, names::BATCH_PROCESS, parent_id))
                }
                _ => None,
            };
            fail_point!("worker::batch");
            // Per-batch timing only — the per-record path inside
            // `insert_batch` stays untouched, so the instrumentation cost
            // is two clock reads amortised over the whole batch.
            let start = ctx.obs.as_ref().map(|_| Instant::now());
            lock_recover(&ctx.shard).insert_batch(&ids);
            if let (Some(obs), Some(start)) = (&ctx.obs, start) {
                obs.batch_insert_ns.record(elapsed_ns(start));
                obs.batches.inc();
                obs.records.add(ids.len() as u64);
                // `queue_depth` is deliberately NOT updated here: the
                // producer already refreshes it on every push, and a second
                // writer on this side would ping-pong the gauge's cache
                // line between cores on every batch.
            }
        }));
        if let Err(payload) = outcome {
            // Mark the fault in the trace first: a zero-duration
            // `worker_fault` span parented under the apply span that died,
            // so the panic shows up inside the batch's causal tree.
            if let (Some(t), Some((span, _))) = (&ctx.trace, span_plan) {
                t.event(names::WORKER_FAULT, Some(span));
            }
            // Then poison + mark dead. The typed fault travels back as the
            // thread's result: the supervisor's `join` both waits for this
            // return and orders the read after it.
            ctx.queue.poison();
            ctx.progress.mark_dead();
            return Some(WorkerFault {
                shard: ctx.shard_index,
                kind: FaultKind::Panic,
                message: panic_message(payload.as_ref()),
            });
        }
        ctx.progress.bump();
    }
    None
}

/// Push `id` onto a lane's pending batch, handing the whole batch to the
/// worker's queue once it fills. Returns `false` when the push found the
/// queue poisoned (worker death) — the caller must supervise the lane.
#[inline]
fn route_one(
    lane: &mut Lane,
    batch_size: usize,
    id: ItemId,
    trace: Option<&mut RouterTrace>,
) -> bool {
    if lane.lossy.is_some() {
        // Degraded: the record is dropped, but counted.
        lane.records_lost = lane.records_lost.saturating_add(1);
        if let Some(obs) = &lane.obs {
            obs.records_lost.inc();
        }
        return true;
    }
    lane.pending.push(id);
    if lane.pending.len() >= batch_size {
        return flush_lane(lane, batch_size, trace);
    }
    true
}

/// Hand a lane's pending batch (if any) to its worker's queue, opening a
/// root `batch_enqueue` span around the hand-off (the batch's causal tree
/// grows from it). Returns `false` on a poisoned queue (worker death).
fn flush_lane(lane: &mut Lane, batch_size: usize, trace: Option<&mut RouterTrace>) -> bool {
    if lane.pending.is_empty() || lane.lossy.is_some() {
        return true;
    }
    let ids = std::mem::replace(&mut lane.pending, Vec::with_capacity(batch_size));
    let len = ids.len() as u64;
    lane.sent = lane.sent.saturating_add(1);
    let pending_span = trace.as_ref().map(|t| t.track.begin(None));
    let enqueue = pending_span.as_ref().map(|p| p.ctx);
    if lane.queue.push(Batch { ids, enqueue }) {
        if let (Some(t), Some(p)) = (trace, pending_span) {
            t.track.finish(&p, names::BATCH_ENQUEUE);
            t.last_enqueue = Some(p.ctx);
        }
        if let Some(obs) = &lane.obs {
            obs.queue_depth.set(lane.queue.len() as u64);
        }
        true
    } else {
        // The ring dropped the batch: the worker is dead and those
        // records die with the rollback anyway. Count them.
        lane.records_lost = lane.records_lost.saturating_add(len);
        if let Some(obs) = &lane.obs {
            obs.records_lost.add(len);
        }
        false
    }
}

/// A fresh lane ring, with the shard's stall counter attached when the
/// runtime is observable (so restarted lanes keep counting backpressure
/// into the same cell).
fn fresh_ring(obs: Option<&ShardObs>) -> SpscRing<Batch> {
    let ring = SpscRing::with_capacity(RING_CAPACITY);
    match obs {
        Some(shard_obs) => ring.with_stall_counter(shard_obs.queue_stalls.clone()),
        None => ring,
    }
}

/// Count + journal a worker fault, remembering its journal seq so
/// `health()` can point at it.
fn note_fault(lane: &mut Lane, shard_index: usize, fault: &WorkerFault, obs: Option<&RuntimeObs>) {
    if let Some(o) = obs {
        if let Some(seq) = o.note_fault(shard_index as u64, fault.kind.name(), fault.kind.code()) {
            lane.last_fault_seq = Some(seq);
        }
    }
}

/// Degrade a lane to lossy mode: poison its queue (the router never
/// blocks on it again), record the terminal fault, and count + journal
/// the degradation.
fn degrade(lane: &mut Lane, shard_index: usize, fault: WorkerFault, obs: Option<&RuntimeObs>) {
    lane.queue.poison();
    lane.sent = 0;
    lane.lossy = Some(fault);
    if let Some(shard_obs) = &lane.obs {
        shard_obs.degradations.inc();
    }
    if let Some(o) = obs {
        o.note_degradation(shard_index as u64, lane.records_lost);
    }
}

/// Supervise a lane whose worker died: join it, salvage what the queue
/// still holds, roll the shard back to its rollback point, and restart the
/// worker (within [`MAX_RESTARTS`], after [`backoff_for`]) or mark the
/// lane lossy.
fn supervise_lane(
    lane: &mut Lane,
    shard: &Arc<Mutex<Ltc>>,
    shard_index: usize,
    obs: Option<&RuntimeObs>,
) {
    if lane.lossy.is_some() {
        return;
    }
    // 1. The worker is gone (it poisoned the queue / marked the barrier
    //    dead on its way out); joining cannot block, and hands back the
    //    fault the worker returned.
    let joined = lane.worker.take().map(JoinHandle::join);
    let fault = match joined {
        Some(Ok(Some(fault))) => fault,
        _ => WorkerFault {
            shard: shard_index,
            kind: FaultKind::Silent,
            message: "worker exited without reporting a fault".to_string(),
        },
    };
    // Observe the fault before acting on it, so the journal seq exists by
    // the time health() can report the new state.
    note_fault(lane, shard_index, &fault, obs);
    // 2. Salvage the backlog. These batches were never applied; they are
    //    part of the rollback loss, so count them. (Joining the worker
    //    first transferred the consumer role to this thread.)
    let mut salvaged: u64 = 0;
    for batch in lane.queue.drain() {
        salvaged = salvaged.saturating_add(batch.ids.len() as u64);
    }
    lane.records_lost = lane.records_lost.saturating_add(salvaged);
    if let Some(shard_obs) = &lane.obs {
        shard_obs.records_lost.add(salvaged);
    }
    // 3. Roll the shard back to its rollback point (a period boundary).
    //    Every bucket comes back dirty in the table's own epoch, so the next
    //    delta checkpoint carries the whole rolled-back state.
    lock_recover(shard).copy_state_from(&lane.point);
    if let Some(o) = obs {
        o.note_rollback(shard_index as u64, lane.restarts as u64);
    }
    // 4. Budget check: degrade to lossy once restarts are exhausted.
    if lane.restarts >= MAX_RESTARTS {
        degrade(lane, shard_index, fault, obs);
        return;
    }
    lane.restarts = lane.restarts.saturating_add(1);
    if let Some(shard_obs) = &lane.obs {
        shard_obs.restarts.inc();
    }
    std::thread::sleep(backoff_for(lane.restarts));
    // 5. Fresh channel and barrier; respawn from the restored shard state
    //    (a refused spawn degrades the lane instead).
    spawn_worker(lane, shard, shard_index, obs);
}

impl ParallelLtc {
    /// Spawn `num_shards` workers, each owning an LTC shard identical to
    /// shard `i` of `ShardedLtc::new(config, num_shards)`, supervised
    /// under the fixed fault policy of the module docs.
    pub fn new(config: LtcConfig, num_shards: usize) -> Self {
        Self::with_batch_size(config, num_shards, DEFAULT_BATCH_SIZE)
    }

    /// [`new`](ParallelLtc::new) with an explicit hand-off batch size.
    /// Larger batches amortise queue synchronisation further but delay when
    /// workers see records; [`DEFAULT_BATCH_SIZE`] suits most streams.
    /// Observability is on (a fresh [`RuntimeObs`]).
    pub fn with_batch_size(config: LtcConfig, num_shards: usize, batch_size: usize) -> Self {
        Self::with_observability(
            config,
            num_shards,
            batch_size,
            Some(Arc::new(RuntimeObs::new())),
        )
    }

    /// [`with_batch_size`](ParallelLtc::with_batch_size) with explicit
    /// observability: pass a shared [`RuntimeObs`] to aggregate several
    /// runtimes into one registry, or `None` to run with metrics off (the
    /// mode the `obs_overhead` bench compares against).
    pub fn with_observability(
        config: LtcConfig,
        num_shards: usize,
        batch_size: usize,
        obs: Option<Arc<RuntimeObs>>,
    ) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        // Delegate shard construction so seeding matches ShardedLtc exactly.
        let shards: Vec<Arc<Mutex<Ltc>>> = ShardedLtc::new(config, num_shards)
            .into_shards()
            .into_iter()
            .map(|ltc| Arc::new(Mutex::new(ltc)))
            .collect();
        let tracer = obs.as_ref().and_then(|o| o.tracer()).cloned();
        let lanes = shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let shard_obs = obs.as_ref().map(|o| o.shard(i as u64));
                let mut lane = Lane {
                    pending: Vec::with_capacity(batch_size),
                    sent: 0,
                    queue: Arc::new(fresh_ring(shard_obs.as_ref())),
                    progress: Arc::new(Progress::new()),
                    // The initial rollback point is the pristine shard: a
                    // worker that dies before its first period boundary
                    // rolls back to an empty (but correctly configured)
                    // table. Later refreshes copy into this allocation.
                    point: lock_recover(shard).clone(),
                    worker: None,
                    restarts: 0,
                    lossy: None,
                    records_lost: 0,
                    obs: shard_obs,
                    trace: tracer.as_ref().map(|t| t.register(names::TRACK_SHARD)),
                    last_fault_seq: None,
                };
                spawn_worker(&mut lane, shard, i, obs.as_deref());
                if let Some(fault) = &lane.lossy {
                    panic!("spawn shard worker: {fault}"); // lint:allow(no_panic): startup-only, cannot be handled locally
                }
                lane
            })
            .collect();
        let trace = tracer.as_ref().map(|t| RouterTrace {
            track: t.register(names::TRACK_ROUTER),
            last_enqueue: None,
            last_barrier: None,
        });
        let auditor = obs.as_ref().map(|o| HealthAuditor::new(o));
        Self {
            inner: Mutex::new(Inner { lanes, trace }),
            shards,
            batch_size,
            obs,
            auditor,
            periods: 0,
            restores: 0,
        }
    }

    /// Number of shards (= worker threads).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Hand-off batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The runtime's observability state (registry + journal), or `None`
    /// when built with metrics off. Render exports with
    /// [`RuntimeObs::render_prometheus`] / [`RuntimeObs::render_json`];
    /// drain events with `obs.journal().drain()`.
    pub fn obs(&self) -> Option<&Arc<RuntimeObs>> {
        self.obs.as_ref()
    }

    /// Merged operational counters across every shard table, after
    /// draining the pipeline (so the counters cover every record routed
    /// before the call). Lossy shards contribute their last-good state.
    /// `periods` reports the stream's period count (see
    /// [`ShardedLtc::stats`]).
    pub fn stats(&self) -> LtcStats {
        let _ = self.sync();
        let mut merged: LtcStats = self
            .shards
            .iter()
            .map(|shard| lock_recover(shard).stats())
            .sum();
        merged.periods = merged
            .periods
            .checked_div(self.shards.len() as u64)
            .unwrap_or(0);
        merged
    }

    /// Route one record to its shard's pending batch; hand the batch off
    /// when it fills. The hot path: one shard hash, one push, no locks.
    /// A dead worker is supervised transparently; records routed to a
    /// lossy shard are dropped and counted.
    #[inline]
    pub fn insert(&mut self, id: ItemId) {
        self.insert_batch(std::slice::from_ref(&id));
    }

    /// Route a whole run of records — one routing pass, then per-shard
    /// hand-off of every batch that filled.
    pub fn insert_batch(&mut self, ids: &[ItemId]) {
        let n = self.shards.len();
        let obs = self.obs.as_deref();
        let Inner { lanes, trace } = inner_mut(&mut self.inner);
        for &id in ids {
            let shard_index = shard_of_id(id, n);
            // `shard_of_id` returns a value below `n`, so the lookups succeed.
            if let (Some(lane), Some(shard)) =
                (lanes.get_mut(shard_index), self.shards.get(shard_index))
            {
                if !route_one(lane, self.batch_size, id, trace.as_mut()) {
                    supervise_lane(lane, shard, shard_index, obs);
                }
            }
        }
    }

    /// Close the period: drain every record routed so far into its shard
    /// (the [`sync`](ParallelLtc::sync) barrier), then close the period on
    /// every live shard — the parallel stream sees the same period boundary
    /// on every shard. Worker deaths during the drain are supervised
    /// (rollback + restart, or degradation) before the close.
    ///
    /// # Errors
    /// [`RuntimeError::ShardsLost`] if any shard is lossy (the period
    /// still closed on every live shard; the runtime stays usable).
    pub fn end_period(&mut self) -> Result<(), RuntimeError> {
        let result = self.close_period(names::END_PERIOD_APPLY, Ltc::end_period);
        // The period closed on every live shard even when some are lossy,
        // so the rollover is journalled in both cases.
        self.periods = self.periods.saturating_add(1);
        if let Some(obs) = &self.obs {
            obs.note_period_rollover(self.periods);
        }
        // The barrier just completed: every table is quiescent, so the
        // health audit reads consistent per-period state.
        self.run_audit();
        result
    }

    /// Run the per-period health audit (no-op with metrics off). The
    /// tables are quiescent here — `end_period` calls this right after its
    /// barrier — so the audit's brief table locks contend with nothing.
    fn run_audit(&mut self) {
        let (Some(obs), Some(auditor)) = (self.obs.as_deref(), self.auditor.as_mut()) else {
            return;
        };
        let inner = inner_mut(&mut self.inner);
        let mut rollbacks = self.restores;
        for lane in &inner.lanes {
            rollbacks = rollbacks.saturating_add(u64::from(lane.restarts));
            if lane.lossy.is_some() {
                // The terminal rollback before degradation never
                // consumed a restart from the budget.
                rollbacks = rollbacks.saturating_add(1);
            }
        }
        let _span = inner
            .trace
            .as_ref()
            .map(|t| t.track.span(names::AUDIT, t.last_barrier));
        auditor.audit(&self.shards, self.periods, rollbacks, obs);
    }

    /// Flush + finalize every shard (harvest last-period CLOCK flags), with
    /// the same drain-then-close semantics as
    /// [`end_period`](ParallelLtc::end_period).
    ///
    /// # Errors
    /// [`RuntimeError::ShardsLost`] if any shard is lossy.
    pub fn finish(&mut self) -> Result<(), RuntimeError> {
        self.close_period(names::FINISH_APPLY, Ltc::finalize)
    }

    /// Drain, then close on the coordinator: with every live worker idle
    /// behind the barrier, apply `close` to each live shard under its lock
    /// and refresh that lane's rollback point from the result — after the
    /// barrier and before the next batch, so the point always sits on a
    /// period boundary. Each close is a `span` on the router track, under
    /// the barrier span. Lossy shards keep their last-good state.
    fn close_period(&mut self, span: u64, close: fn(&mut Ltc)) -> Result<(), RuntimeError> {
        let result = self.sync();
        let Inner { lanes, trace } = inner_mut(&mut self.inner);
        for (lane, shard) in lanes.iter_mut().zip(&self.shards) {
            if lane.lossy.is_some() {
                continue;
            }
            let _span = trace.as_ref().map(|t| t.track.span(span, t.last_barrier));
            let mut table = lock_recover(shard);
            close(&mut table);
            lane.point.copy_state_from(&table);
        }
        result
    }

    /// Drain the pipeline — the epoch barrier. Queries and period closes
    /// call this first. In order:
    ///
    /// 1. flush every lane's pending batch;
    /// 2. wait until every live worker has acknowledged every batch sent,
    ///    supervising deaths along the way (a restarted worker starts on a
    ///    fresh queue and owes the barrier nothing);
    /// 3. close the `barrier_wait` span and record `barrier_wait_ns`.
    ///
    /// The span opens after the flush pass, parented under the most recent
    /// `batch_enqueue`, so the drained batch's causal tree contains the
    /// wait that drained it.
    ///
    /// # Errors
    /// [`RuntimeError::ShardsLost`] if any shard is lossy — the drain
    /// itself still completed on every live shard, so degraded queries may
    /// proceed (the trait impls do exactly that).
    pub fn sync(&self) -> Result<(), RuntimeError> {
        let obs = self.obs.as_deref();
        let mut inner = lock_recover(&self.inner);
        let Inner { lanes, trace } = &mut *inner;
        for (shard_index, (lane, shard)) in lanes.iter_mut().zip(&self.shards).enumerate() {
            if !flush_lane(lane, self.batch_size, trace.as_mut()) {
                supervise_lane(lane, shard, shard_index, obs);
            }
        }
        let pending = trace.as_ref().map(|t| t.track.begin(t.last_enqueue));
        let start = obs.map(|_| Instant::now());
        for (shard_index, (lane, shard)) in lanes.iter_mut().zip(&self.shards).enumerate() {
            while lane.lossy.is_none() && lane.progress.wait_for(lane.sent).is_err() {
                supervise_lane(lane, shard, shard_index, obs);
            }
        }
        if let (Some(obs), Some(start)) = (obs, start) {
            obs.barrier_wait_ns.record(elapsed_ns(start));
        }
        if let (Some(t), Some(pending)) = (trace.as_mut(), pending) {
            t.track.finish(&pending, names::BARRIER_WAIT);
            t.last_barrier = Some(pending.ctx);
        }
        runtime_result(lanes)
    }

    /// Per-shard supervision state: restarts consumed, records lost, the
    /// terminal fault of a lossy shard, and the journal sequence number of
    /// the shard's most recent fault event (so operators can line health
    /// up with drained [`crate::obs::Event`]s).
    pub fn health(&self) -> Vec<ShardHealth> {
        let inner = lock_recover(&self.inner);
        inner
            .lanes
            .iter()
            .map(|lane| match &lane.lossy {
                Some(fault) => ShardHealth::Lossy {
                    fault: fault.clone(),
                    restarts: lane.restarts,
                    records_lost: lane.records_lost,
                    last_fault_seq: lane.last_fault_seq,
                },
                None => ShardHealth::Healthy {
                    restarts: lane.restarts,
                    records_lost: lane.records_lost,
                    last_fault_seq: lane.last_fault_seq,
                },
            })
            .collect()
    }

    /// Stop the workers (after draining everything queued) and reassemble
    /// the shards into a single-threaded [`ShardedLtc`] for further use —
    /// the inverse of spinning the runtime up.
    ///
    /// # Errors
    /// [`RuntimeError::ShardsLost`] if any shard degraded to lossy; use
    /// [`into_sharded_lossy`](ParallelLtc::into_sharded_lossy) to recover
    /// the (partially stale) tables anyway.
    pub fn into_sharded(self) -> Result<ShardedLtc, RuntimeError> {
        let (sharded, faults) = self.into_sharded_lossy();
        if faults.is_empty() {
            Ok(sharded)
        } else {
            Err(RuntimeError::ShardsLost { faults })
        }
    }

    /// [`into_sharded`](ParallelLtc::into_sharded) that always returns the
    /// tables: lossy shards contribute their last-good (rolled-back)
    /// state, and their terminal faults ride along.
    pub fn into_sharded_lossy(mut self) -> (ShardedLtc, Vec<WorkerFault>) {
        let _ = self.sync();
        let lanes = &mut inner_mut(&mut self.inner).lanes;
        stop_workers(lanes);
        let faults = lanes.iter().filter_map(|lane| lane.lossy.clone()).collect();
        let shards = std::mem::take(&mut self.shards)
            .into_iter()
            .map(|arc| match Arc::try_unwrap(arc) {
                Ok(mutex) => match mutex.into_inner() {
                    Ok(shard) => shard,
                    Err(poisoned) => poisoned.into_inner(),
                },
                // Unreachable once the workers (the only other handle
                // owners) have exited; cloning keeps this total anyway.
                Err(arc) => lock_recover(&arc).clone(),
            })
            .collect();
        (ShardedLtc::from_shards(shards), faults)
    }

    /// Strict query: drain, then estimate `id`'s significance.
    ///
    /// # Errors
    /// [`RuntimeError::ShardsLost`] if any shard is lossy. For best-effort
    /// degraded answers use the [`SignificanceQuery`] impl instead.
    pub fn try_estimate(&self, id: ItemId) -> Result<Option<f64>, RuntimeError> {
        self.sync()?;
        Ok(self.read_estimate(id))
    }

    /// Strict query: drain, then merge the global top-k.
    ///
    /// # Errors
    /// [`RuntimeError::ShardsLost`] if any shard is lossy. For best-effort
    /// degraded answers use the [`SignificanceQuery`] impl instead.
    pub fn try_top_k(&self, k: usize) -> Result<Vec<Estimate>, RuntimeError> {
        self.sync()?;
        Ok(self.read_top_k(k))
    }

    fn read_estimate(&self, id: ItemId) -> Option<f64> {
        let shard = shard_of_id(id, self.shards.len());
        self.shards
            .get(shard)
            .and_then(|shard| lock_recover(shard).estimate(id))
    }

    fn read_top_k(&self, k: usize) -> Vec<Estimate> {
        let candidates: Vec<Estimate> = self
            .shards
            .iter()
            .flat_map(|shard| lock_recover(shard).top_k(k))
            .collect();
        top_k_of(candidates, k)
    }

    /// Shared access to the shard tables for the checkpoint layer.
    pub(crate) fn shard_tables(&self) -> &[Arc<Mutex<Ltc>>] {
        &self.shards
    }

    /// Router trace track plus the context of the most recent barrier
    /// span, for the checkpoint layer to parent its `checkpoint_save`
    /// span under (keeps save spans inside the batch's causal tree).
    pub(crate) fn trace_handle(&self) -> Option<(TraceTrack, Option<SpanCtx>)> {
        let inner = lock_recover(&self.inner);
        inner
            .trace
            .as_ref()
            .map(|t| (t.track.clone(), t.last_barrier))
    }

    /// After a checkpoint restore rewrote every shard table: refresh each
    /// lane's rollback point to the restored state so a future rollback
    /// lands on it, and revive lossy lanes with a fresh worker and a full
    /// retry budget (the operator restored on purpose).
    pub(crate) fn reset_after_restore(&mut self) {
        self.restores = self.restores.saturating_add(1);
        let obs = self.obs.as_deref();
        let inner = inner_mut(&mut self.inner);
        for (shard_index, (lane, shard)) in inner.lanes.iter_mut().zip(&self.shards).enumerate() {
            lane.point.copy_state_from(&lock_recover(shard));
            lane.restarts = 0;
            lane.records_lost = 0;
            lane.last_fault_seq = None;
            lane.pending = Vec::with_capacity(self.batch_size);
            if lane.lossy.take().is_some() {
                spawn_worker(lane, shard, shard_index, obs);
            }
        }
    }
}

/// Statically exclusive access to the lanes (no runtime locking). A free
/// function over the field, so callers keep disjoint borrows of the rest
/// of the runtime.
fn inner_mut(inner: &mut Mutex<Inner>) -> &mut Inner {
    match inner.get_mut() {
        Ok(inner) => inner,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// `Err(ShardsLost)` iff any lane is lossy; the runtime remains usable.
fn runtime_result(lanes: &[Lane]) -> Result<(), RuntimeError> {
    let faults: Vec<WorkerFault> = lanes.iter().filter_map(|lane| lane.lossy.clone()).collect();
    if faults.is_empty() {
        Ok(())
    } else {
        Err(RuntimeError::ShardsLost { faults })
    }
}

/// Stop every worker: poison each queue — a worker applies what is still
/// queued, then finds the poison and exits — and join them all. Lanes
/// already stopped (or lossy) have no worker left to join.
fn stop_workers(lanes: &mut [Lane]) {
    for lane in lanes.iter() {
        lane.queue.poison();
    }
    for lane in lanes.iter_mut() {
        if let Some(handle) = lane.worker.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ParallelLtc {
    fn drop(&mut self) {
        stop_workers(&mut inner_mut(&mut self.inner).lanes);
    }
}

impl StreamProcessor for ParallelLtc {
    #[inline]
    fn insert(&mut self, id: ItemId) {
        ParallelLtc::insert(self, id);
    }

    fn end_period(&mut self) {
        // Best-effort: a degraded runtime still closes the period on
        // every live shard; `health()` exposes the loss.
        let _ = ParallelLtc::end_period(self);
    }

    fn finish(&mut self) {
        let _ = ParallelLtc::finish(self);
    }

    fn name(&self) -> &'static str {
        "LTC-parallel"
    }
}

impl BatchStreamProcessor for ParallelLtc {
    #[inline]
    fn insert_batch(&mut self, ids: &[ItemId]) {
        ParallelLtc::insert_batch(self, ids);
    }
}

impl SignificanceQuery for ParallelLtc {
    fn estimate(&self, id: ItemId) -> Option<f64> {
        // Best-effort: serve the degraded view (lossy shards answer from
        // their last-good state).
        let _ = self.sync();
        self.read_estimate(id)
    }

    fn top_k(&self, k: usize) -> Vec<Estimate> {
        let _ = self.sync();
        self.read_top_k(k)
    }
}

impl MemoryUsage for ParallelLtc {
    fn memory_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| lock_recover(shard).memory_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_common::Weights;

    fn config() -> LtcConfig {
        LtcConfig::builder()
            .buckets(32)
            .cells_per_bucket(4)
            .weights(Weights::BALANCED)
            .records_per_period(100)
            .seed(7)
            .build()
    }

    #[test]
    fn single_shard_roundtrip() {
        let mut p = ParallelLtc::new(config(), 1);
        for i in 0..500u64 {
            p.insert(i % 25);
        }
        p.end_period().unwrap();
        p.finish().unwrap();
        assert_eq!(p.top_k(5).len(), 5);
    }

    #[test]
    fn matches_sharded_ltc_exactly() {
        // The core equivalence: same records, same boundaries → every shard
        // bit-identical to the single-threaded ShardedLtc (compared via the
        // full Debug rendering, which covers cells, CLOCK and stats).
        let shards = 4;
        let mut reference = ShardedLtc::new(config(), shards);
        let mut parallel = ParallelLtc::with_batch_size(config(), shards, 16);
        for period in 0..5u64 {
            for i in 0..200u64 {
                let id = period * 7 + i * 3;
                reference.insert(id);
                parallel.insert(id);
            }
            reference.end_period();
            parallel.end_period().unwrap();
        }
        reference.finalize();
        parallel.finish().unwrap();
        let reassembled = parallel.into_sharded().unwrap();
        for s in 0..shards {
            assert_eq!(
                format!("{:?}", reference.shard(s)),
                format!("{:?}", reassembled.shard(s)),
                "shard {s} diverged"
            );
        }
    }

    #[test]
    fn queries_observe_all_prior_inserts() {
        let mut p = ParallelLtc::with_batch_size(config(), 3, 64);
        for _ in 0..10 {
            p.insert(42);
        }
        // 42's batch is still pending; the query must flush + drain first.
        assert_eq!(p.estimate(42), Some(10.0));
        assert_eq!(p.try_estimate(42).unwrap(), Some(10.0));
    }

    #[test]
    fn drop_without_finish_is_clean() {
        let mut p = ParallelLtc::new(config(), 2);
        for i in 0..100u64 {
            p.insert(i);
        }
        drop(p); // must not hang or leak threads
    }

    #[test]
    fn memory_sums_over_shards() {
        let p = ParallelLtc::new(config(), 3);
        assert_eq!(p.memory_bytes(), 3 * 32 * 4 * 16);
    }

    #[test]
    fn health_starts_clean() {
        let p = ParallelLtc::new(config(), 2);
        assert_eq!(
            p.health(),
            vec![
                ShardHealth::Healthy {
                    restarts: 0,
                    records_lost: 0,
                    last_fault_seq: None,
                };
                2
            ]
        );
        for h in p.health() {
            assert_eq!(h.restarts(), 0);
            assert_eq!(h.last_fault_seq(), None);
        }
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_rejected() {
        let _ = ParallelLtc::with_batch_size(config(), 2, 0);
    }

    #[test]
    fn progress_wait_errs_when_marked_dead() {
        let progress = Progress::new();
        progress.bump();
        progress.mark_dead();
        assert_eq!(progress.wait_for(1), Ok(()), "reached targets still ack");
        assert_eq!(progress.wait_for(2), Err(BarrierPoisoned));
    }

    #[test]
    fn worker_fault_displays_shard_kind_and_message() {
        let fault = WorkerFault {
            shard: 3,
            kind: FaultKind::Panic,
            message: "boom".to_string(),
        };
        assert_eq!(fault.to_string(), "shard 3 worker died (panic): boom");
        let err = RuntimeError::ShardsLost {
            faults: vec![fault],
        };
        assert!(err.to_string().contains("1 shard(s) lossy"));
        assert!(err
            .to_string()
            .contains("shard 3 worker died (panic): boom"));
    }

    #[test]
    fn fault_kinds_have_stable_names_and_codes() {
        let kinds = [FaultKind::Panic, FaultKind::SpawnFailed, FaultKind::Silent];
        let mut seen = std::collections::HashSet::new();
        for kind in kinds {
            assert!(seen.insert(kind.code()), "codes are distinct");
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn observability_is_on_by_default_and_sees_traffic() {
        let mut p = ParallelLtc::with_batch_size(config(), 2, 16);
        for i in 0..300u64 {
            p.insert(i % 30);
        }
        p.end_period().unwrap();
        p.sync().unwrap();
        let obs = Arc::clone(p.obs().expect("default constructors enable obs"));
        let text = obs.render_prometheus();
        crate::obs::validate_exposition(&text).unwrap();
        assert!(
            text.contains("ltc_shard_records_total"),
            "per-shard record counters registered: {text}"
        );
        assert_eq!(obs.periods.get(), 1);
        // Both shards together saw all 300 records.
        let recorded: u64 = obs
            .registry()
            .snapshot()
            .into_iter()
            .filter(|f| f.name == "ltc_shard_records_total")
            .flat_map(|f| f.series)
            .map(|s| match s.value {
                crate::obs::MetricValue::Counter(v) => v,
                _ => 0,
            })
            .sum();
        assert_eq!(recorded, 300);
        // The barrier wait was measured at least twice (end_period + sync).
        assert!(obs.barrier_wait_ns.count() >= 2);
        // Rollover event is in the journal.
        let events = obs.journal().drain();
        assert!(events
            .iter()
            .any(|e| e.kind == crate::obs::EventKind::PeriodRollover));
    }

    #[test]
    fn observability_off_runs_without_metrics() {
        let mut p = ParallelLtc::with_observability(config(), 2, 16, None);
        for i in 0..200u64 {
            p.insert(i);
        }
        p.end_period().unwrap();
        assert!(p.obs().is_none());
        assert_eq!(p.stats().inserts, 200, "stats work without obs");
    }

    #[test]
    fn stats_aggregate_across_shards_after_drain() {
        let mut p = ParallelLtc::with_batch_size(config(), 3, 32);
        for i in 0..500u64 {
            p.insert(i % 50);
        }
        p.end_period().unwrap();
        // 500 routed records are visible even though batches were pending
        // when stats() was called (it drains first).
        let stats = p.stats();
        assert_eq!(stats.inserts, 500);
        assert_eq!(stats.periods, 1);
        // Sharded reference sees identical merged counters.
        let reference = {
            let mut r = ShardedLtc::new(config(), 3);
            for i in 0..500u64 {
                r.insert(i % 50);
            }
            r.end_period();
            r.stats()
        };
        assert_eq!(stats, reference);
    }

    #[test]
    fn shared_registry_aggregates_two_runtimes() {
        let obs = Arc::new(RuntimeObs::new());
        let mut a = ParallelLtc::with_observability(config(), 1, 8, Some(Arc::clone(&obs)));
        let mut b = ParallelLtc::with_observability(config(), 1, 8, Some(Arc::clone(&obs)));
        for i in 0..64u64 {
            a.insert(i);
            b.insert(i);
        }
        a.sync().unwrap();
        b.sync().unwrap();
        let text = obs.render_prometheus();
        crate::obs::validate_exposition(&text).unwrap();
        assert!(text.contains("ltc_shard_records_total{shard=\"0\"} 128"));
    }
}
