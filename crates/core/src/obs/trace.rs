//! Tier-1 wait-free span tracing: per-thread span rings over a monotonic
//! clock.
//!
//! This module answers *where time went* across the batch → ring →
//! shard-worker → barrier → checkpoint path, under the same
//! synchronisation tier rules as [`super::metrics`]: **every atomic access
//! on the span-record path is `Relaxed`** — no locks, no stronger
//! orderings, no allocation. The `obs_hot_path` lint rule enforces this
//! structurally for this file, exactly as it does for `metrics.rs`.
//!
//! ## Shape
//!
//! A [`Tracer`] owns a fixed pool of [`SpanRing`]s. Each recording thread
//! claims one ring up front via [`Tracer::register`] and records through
//! its [`TraceTrack`] handle — a ring is **single-writer** by convention
//! (the claiming thread and its supervised replacements), so record-side
//! cursors need no read-modify-write. A full ring **drops the newest
//! span** and counts it in a dropped-spans cell (mirroring the journal's
//! drop-newest contract: history already recorded is never overwritten).
//!
//! ## Spans and causality
//!
//! A span is seven words: trace id, span id, parent span id, name code,
//! track, start, duration (nanoseconds from the tracer's monotonic
//! anchor). Parent links are carried by [`SpanCtx`] values — plain `Copy`
//! data that crosses thread boundaries *inside* existing messages (the
//! pipeline ships a batch's enqueue-span ctx inside the SPSC `Msg`), so
//! propagation adds no synchronisation of its own. Scoped timing uses
//! [`SpanGuard`] (records on drop, including during a panic unwind, which
//! is how a faulting batch still closes its span); cross-call spans use
//! [`PendingSpan`] with explicit [`TraceTrack::finish`].
//!
//! ## Drains are externally synchronised
//!
//! Like the metrics tier, record-side `Relaxed` is sound because readers
//! do not rely on the atomics for cross-thread ordering: drains are meant
//! to run at quiescent points — after the pipeline's epoch barrier
//! (`Progress` is a mutex/condvar pair, a full happens-before edge) or
//! after joining the recording thread. A drain racing a live recorder is
//! **best-effort**: it may observe a torn or duplicated span, never
//! undefined behaviour (every slot word is atomic).

use crate::elapsed_ns;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Rings in a default tracer pool ([`Tracer::new`]). Registrations past
/// the pool fall back to a shared zero-capacity ring that drops (and
/// counts) everything.
pub const DEFAULT_TRACKS: usize = 16;

/// Span slots per ring in a default tracer pool.
pub const DEFAULT_SPANS_PER_TRACK: usize = 2048;

/// Stable span/track name codes. Codes (not strings) live in the ring
/// slots so recording never allocates; [`span_name`] maps them back for
/// export.
pub mod names {
    /// Track: the routing/coordinator thread of a `ParallelLtc`.
    pub const TRACK_ROUTER: u64 = 1;
    /// Track: a shard worker thread.
    pub const TRACK_SHARD: u64 = 2;
    /// Track: the background durability service thread.
    pub const TRACK_DURABILITY: u64 = 3;
    /// The router hands a filled batch to a shard's SPSC ring.
    pub const BATCH_ENQUEUE: u64 = 10;
    /// A shard worker dequeues and ingests one batch (`insert_batch`).
    pub const BATCH_PROCESS: u64 = 11;
    /// The router blocks on the epoch barrier (flush + wait for acks).
    pub const BARRIER_WAIT: u64 = 12;
    /// The coordinator closes one shard's period after the barrier
    /// (`Ltc::end_period` + rollback-point refresh).
    pub const END_PERIOD_APPLY: u64 = 13;
    /// The coordinator finalizes one shard after the barrier (final-period
    /// harvest + rollback-point refresh).
    pub const FINISH_APPLY: u64 = 14;
    /// A full checkpoint frame is built and published.
    pub const CHECKPOINT_SAVE: u64 = 15;
    /// Shard tables are restored from a checkpoint store.
    pub const CHECKPOINT_RESTORE: u64 = 16;
    /// A delta frame is built and published onto the live chain.
    pub const DELTA_SAVE: u64 = 17;
    /// A delta chain is compacted into a fresh full frame.
    pub const COMPACTION: u64 = 18;
    /// A worker's message handler panicked (zero-duration marker span).
    pub const WORKER_FAULT: u64 = 19;
    /// The per-period algorithm-health audit pass.
    pub const AUDIT: u64 = 20;

    /// Human-readable name for a span/track code (`"unknown"` for codes
    /// this build does not know).
    pub fn span_name(code: u64) -> &'static str {
        match code {
            TRACK_ROUTER => "router",
            TRACK_SHARD => "shard",
            TRACK_DURABILITY => "durability",
            BATCH_ENQUEUE => "batch_enqueue",
            BATCH_PROCESS => "batch_process",
            BARRIER_WAIT => "barrier_wait",
            END_PERIOD_APPLY => "end_period_apply",
            FINISH_APPLY => "finish_apply",
            CHECKPOINT_SAVE => "checkpoint_save",
            CHECKPOINT_RESTORE => "checkpoint_restore",
            DELTA_SAVE => "delta_save",
            COMPACTION => "compaction",
            WORKER_FAULT => "worker_fault",
            AUDIT => "audit",
            _ => "unknown",
        }
    }
}

/// A span's identity as it travels between threads: which causal tree it
/// belongs to (`trace_id`) and which span new children should point at
/// (`span_id`). Plain `Copy` data — ship it inside existing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    /// Root span id of the causal tree this span belongs to.
    pub trace_id: u64,
    /// This span's own id (children record it as their parent).
    pub span_id: u64,
}

/// One drained span: a completed timed region on some track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Root span id of the causal tree.
    pub trace_id: u64,
    /// Unique id of this span.
    pub span_id: u64,
    /// Parent span id (`0` = root of its tree).
    pub parent_id: u64,
    /// Name code (see [`names`]).
    pub name: u64,
    /// Ring index the span was recorded on (export thread id).
    pub track: u64,
    /// Start, nanoseconds from the tracer's monotonic anchor.
    pub start_ns: u64,
    /// Duration in nanoseconds (`0` for marker events).
    pub dur_ns: u64,
}

/// One ring slot: six atomic words rewritten wholesale by the (single)
/// recording thread. Readers at quiescent points see a consistent span;
/// racing readers may see a torn one (documented best-effort).
struct SpanSlot {
    // ordering: load=Relaxed, store=Relaxed -- payload word of a single-writer ring slot; drains are externally synchronized (epoch barrier or thread join)
    trace_id: AtomicU64,
    // ordering: load=Relaxed, store=Relaxed -- payload word of a single-writer ring slot; drains are externally synchronized (epoch barrier or thread join)
    span_id: AtomicU64,
    // ordering: load=Relaxed, store=Relaxed -- payload word of a single-writer ring slot; drains are externally synchronized (epoch barrier or thread join)
    parent_id: AtomicU64,
    // ordering: load=Relaxed, store=Relaxed -- payload word of a single-writer ring slot; drains are externally synchronized (epoch barrier or thread join)
    name: AtomicU64,
    // ordering: load=Relaxed, store=Relaxed -- payload word of a single-writer ring slot; drains are externally synchronized (epoch barrier or thread join)
    start_ns: AtomicU64,
    // ordering: load=Relaxed, store=Relaxed -- payload word of a single-writer ring slot; drains are externally synchronized (epoch barrier or thread join)
    dur_ns: AtomicU64,
}

impl SpanSlot {
    fn empty() -> Self {
        Self {
            trace_id: AtomicU64::new(0),
            span_id: AtomicU64::new(0),
            parent_id: AtomicU64::new(0),
            name: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
        }
    }
}

/// One track's bounded span ring. Single-writer on the record side;
/// drop-newest with a counted-drops cell when full.
struct SpanRing {
    /// Ring index within the tracer pool (exported as the thread id).
    index: u64,
    /// Track name code, set once at claim time.
    // ordering: load=Relaxed, store=Relaxed -- cosmetic label written once at registration; readers tolerate the pre-claim zero
    name: AtomicU64,
    slots: Vec<SpanSlot>,
    /// Writer cursor: next slot to fill. Only the owning thread advances
    /// it; drains read it to bound the drained region.
    // ordering: load=Relaxed, store=Relaxed -- single-writer cursor; drains are externally synchronized (epoch barrier or thread join)
    head: AtomicU64,
    /// Drain cursor: first undrained slot.
    // ordering: load=Relaxed, store=Relaxed -- advanced only by (externally synchronized) drains; the writer reads it to detect a full ring
    tail: AtomicU64,
    /// Spans dropped because the ring was full (drop-newest).
    // ordering: load=Relaxed, rmw=Relaxed -- wait-free statistic; same contract as a metrics counter
    dropped: AtomicU64,
}

impl SpanRing {
    fn with_capacity(index: u64, capacity: usize) -> Self {
        // Power-of-two capacity so the cursor-to-slot map is a mask.
        let capacity = capacity.next_power_of_two();
        Self {
            index,
            name: AtomicU64::new(0),
            slots: (0..capacity).map(|_| SpanSlot::empty()).collect(),
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// A ring that records nothing: every push is a counted drop. Backs
    /// registrations past the pool.
    fn sink(index: u64) -> Self {
        Self {
            index,
            name: AtomicU64::new(0),
            slots: Vec::new(),
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Record one span (the hot path): two cursor loads, six payload
    /// stores, one cursor store — all `Relaxed`, no branches that can
    /// block. A full ring drops the span and bumps `dropped`.
    fn push(
        &self,
        trace_id: u64,
        span_id: u64,
        parent_id: u64,
        name: u64,
        start_ns: u64,
        dur_ns: u64,
    ) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        if head.wrapping_sub(tail) >= self.slots.len() as u64 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mask = self.slots.len().wrapping_sub(1);
        let Some(slot) = self.slots.get((head as usize) & mask) else {
            return; // unreachable: masked index is always in range
        };
        slot.trace_id.store(trace_id, Ordering::Relaxed);
        slot.span_id.store(span_id, Ordering::Relaxed);
        slot.parent_id.store(parent_id, Ordering::Relaxed);
        slot.name.store(name, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        self.head.store(head.wrapping_add(1), Ordering::Relaxed);
    }

    /// Drain every recorded span into `out`, oldest first. Meant for
    /// quiescent points; see the module docs for the race contract.
    fn drain_into(&self, out: &mut Vec<Span>) {
        let head = self.head.load(Ordering::Relaxed);
        let mut tail = self.tail.load(Ordering::Relaxed);
        let mask = self.slots.len().wrapping_sub(1);
        while tail != head {
            if let Some(slot) = self.slots.get((tail as usize) & mask) {
                out.push(Span {
                    trace_id: slot.trace_id.load(Ordering::Relaxed),
                    span_id: slot.span_id.load(Ordering::Relaxed),
                    parent_id: slot.parent_id.load(Ordering::Relaxed),
                    name: slot.name.load(Ordering::Relaxed),
                    track: self.index,
                    start_ns: slot.start_ns.load(Ordering::Relaxed),
                    dur_ns: slot.dur_ns.load(Ordering::Relaxed),
                });
            }
            tail = tail.wrapping_add(1);
        }
        self.tail.store(head, Ordering::Relaxed);
    }

    fn queued(&self) -> u64 {
        self.head
            .load(Ordering::Relaxed)
            .wrapping_sub(self.tail.load(Ordering::Relaxed))
    }
}

/// Process-wide span id allocator shared by every track of a tracer.
struct Ids {
    // ordering: rmw=Relaxed -- unique-id ticket counter; only uniqueness matters, not ordering
    next: AtomicU64,
}

/// Ring-claim cursor for the tracer pool.
struct Claims {
    // ordering: load=Relaxed, rmw=Relaxed -- registration ticket counter; claiming is cold and needs uniqueness only, export reads it as a plain statistic
    cursor: AtomicU64,
}

/// The tracing subsystem: a fixed pool of per-thread span rings, a span
/// id source, and a monotonic clock anchor. Cheap to share (`Arc`); see
/// the module docs for the synchronisation contract.
pub struct Tracer {
    rings: Vec<Arc<SpanRing>>,
    sink: Arc<SpanRing>,
    claims: Claims,
    ids: Arc<Ids>,
    anchor: Instant,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("tracks", &self.rings.len())
            .field("queued", &self.queued())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer with the default pool shape ([`DEFAULT_TRACKS`] rings of
    /// [`DEFAULT_SPANS_PER_TRACK`] slots).
    pub fn new() -> Self {
        Self::with_shape(DEFAULT_TRACKS, DEFAULT_SPANS_PER_TRACK)
    }

    /// A tracer with `tracks` rings of `spans_per_track` slots each
    /// (rounded up to a power of two, minimum 2).
    pub fn with_shape(tracks: usize, spans_per_track: usize) -> Self {
        let capacity = spans_per_track.max(2);
        Self {
            rings: (0..tracks)
                .map(|i| Arc::new(SpanRing::with_capacity(i as u64, capacity)))
                .collect(),
            sink: Arc::new(SpanRing::sink(tracks as u64)),
            claims: Claims {
                cursor: AtomicU64::new(0),
            },
            ids: Arc::new(Ids {
                next: AtomicU64::new(0),
            }),
            anchor: Instant::now(),
        }
    }

    /// Claim the next ring in the pool for the calling thread. `name` is
    /// a track code from [`names`]. Past the pool, the returned track
    /// records nothing and counts every span as dropped — registration
    /// never fails and never blocks.
    pub fn register(&self, name: u64) -> TraceTrack {
        let claim = self.claims.cursor.fetch_add(1, Ordering::Relaxed);
        let ring = match self.rings.get(claim as usize) {
            Some(ring) => {
                ring.name.store(name, Ordering::Relaxed);
                Arc::clone(ring)
            }
            None => Arc::clone(&self.sink),
        };
        TraceTrack {
            ring,
            ids: Arc::clone(&self.ids),
            anchor: self.anchor,
        }
    }

    /// Drain every ring's recorded spans, oldest-first per track. Call at
    /// quiescent points (post-barrier, post-join) for exact results; a
    /// drain racing live recorders is best-effort.
    pub fn drain(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for ring in &self.rings {
            ring.drain_into(&mut out);
        }
        out
    }

    /// Total spans dropped to drop-newest overflow (or to post-pool
    /// registrations) across every track.
    pub fn dropped(&self) -> u64 {
        let mut total = self.sink.dropped.load(Ordering::Relaxed);
        for ring in &self.rings {
            total = total.saturating_add(ring.dropped.load(Ordering::Relaxed));
        }
        total
    }

    /// Spans currently recorded but not yet drained, across every track.
    pub fn queued(&self) -> u64 {
        let mut total = 0u64;
        for ring in &self.rings {
            total = total.saturating_add(ring.queued());
        }
        total
    }

    /// Claimed tracks as `(track index, name code)` pairs, for export
    /// metadata (Chrome `thread_name` records).
    pub fn tracks(&self) -> Vec<(u64, u64)> {
        let claimed = self.claims.cursor.load(Ordering::Relaxed) as usize;
        self.rings
            .iter()
            .take(claimed)
            .map(|ring| (ring.index, ring.name.load(Ordering::Relaxed)))
            .collect()
    }

    /// Nanoseconds since the tracer's monotonic anchor.
    pub fn now_ns(&self) -> u64 {
        elapsed_ns(self.anchor)
    }
}

/// A claimed ring plus the shared id source and clock anchor: everything
/// one thread needs to record spans. Clone-cheap (two `Arc`s and a
/// `Copy` instant); hand clones to supervised worker replacements so a
/// restarted worker keeps recording on the same track.
#[derive(Clone)]
pub struct TraceTrack {
    ring: Arc<SpanRing>,
    ids: Arc<Ids>,
    anchor: Instant,
}

impl std::fmt::Debug for TraceTrack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceTrack")
            .field("track", &self.ring.index)
            .finish()
    }
}

/// A span begun with [`TraceTrack::begin`] and closed with
/// [`TraceTrack::finish`] — for regions that cross call boundaries where
/// a borrow-holding guard is inconvenient (the epoch barrier). `Copy`,
/// so it can be captured before a `catch_unwind` boundary.
#[derive(Debug, Clone, Copy)]
pub struct PendingSpan {
    /// The span's identity (hand to children / ship across threads).
    pub ctx: SpanCtx,
    /// Parent span id recorded when the span closes.
    pub parent_id: u64,
    /// Start, nanoseconds from the tracer anchor.
    pub start_ns: u64,
}

impl TraceTrack {
    /// Nanoseconds since the tracer's monotonic anchor.
    pub fn now_ns(&self) -> u64 {
        elapsed_ns(self.anchor)
    }

    fn alloc_id(&self) -> u64 {
        // Ids start at 1: 0 is the "no parent" sentinel.
        self.ids
            .next
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_add(1)
    }

    /// A fresh root context: a new causal tree whose trace id is the
    /// root's own span id.
    pub fn root_ctx(&self) -> SpanCtx {
        let id = self.alloc_id();
        SpanCtx {
            trace_id: id,
            span_id: id,
        }
    }

    /// A fresh child context under `parent` (same tree, new span id).
    pub fn child_ctx(&self, parent: SpanCtx) -> SpanCtx {
        SpanCtx {
            trace_id: parent.trace_id,
            span_id: self.alloc_id(),
        }
    }

    /// Child of `parent` when given, fresh root otherwise.
    pub fn child_or_root(&self, parent: Option<SpanCtx>) -> SpanCtx {
        match parent {
            Some(parent) => self.child_ctx(parent),
            None => self.root_ctx(),
        }
    }

    /// Open a scoped span: records on drop (including during a panic
    /// unwind). The guard's [`SpanGuard::ctx`] is the handle children
    /// parent under.
    pub fn span(&self, name: u64, parent: Option<SpanCtx>) -> SpanGuard<'_> {
        let ctx = self.child_or_root(parent);
        let parent_id = parent.map(|p| p.span_id).unwrap_or(0);
        self.span_at(ctx, name, parent_id)
    }

    /// Open a scoped span under a pre-allocated context (so the ctx can
    /// outlive a `catch_unwind` boundary the guard dies inside of).
    pub fn span_at(&self, ctx: SpanCtx, name: u64, parent_id: u64) -> SpanGuard<'_> {
        SpanGuard {
            track: self,
            ctx,
            parent_id,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Begin a cross-call span; close it with [`finish`](Self::finish).
    pub fn begin(&self, parent: Option<SpanCtx>) -> PendingSpan {
        let ctx = self.child_or_root(parent);
        PendingSpan {
            ctx,
            parent_id: parent.map(|p| p.span_id).unwrap_or(0),
            start_ns: self.now_ns(),
        }
    }

    /// Close a [`begin`](Self::begin)-opened span as `name`.
    pub fn finish(&self, pending: &PendingSpan, name: u64) {
        let dur = self.now_ns().saturating_sub(pending.start_ns);
        self.record(pending.ctx, name, pending.parent_id, pending.start_ns, dur);
    }

    /// Record a zero-duration marker span (e.g. a fault) and return its
    /// context.
    pub fn event(&self, name: u64, parent: Option<SpanCtx>) -> SpanCtx {
        let ctx = self.child_or_root(parent);
        let parent_id = parent.map(|p| p.span_id).unwrap_or(0);
        self.record(ctx, name, parent_id, self.now_ns(), 0);
        ctx
    }

    /// Record a fully-specified span (the primitive the other entry
    /// points lower to).
    pub fn record(&self, ctx: SpanCtx, name: u64, parent_id: u64, start_ns: u64, dur_ns: u64) {
        self.ring
            .push(ctx.trace_id, ctx.span_id, parent_id, name, start_ns, dur_ns);
    }
}

/// Scoped span timer: opened by [`TraceTrack::span`], records its span on
/// drop — normal exit and panic unwind alike.
pub struct SpanGuard<'a> {
    track: &'a TraceTrack,
    ctx: SpanCtx,
    parent_id: u64,
    name: u64,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// The open span's identity, for parenting children under it.
    pub fn ctx(&self) -> SpanCtx {
        self.ctx
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let dur = self.track.now_ns().saturating_sub(self.start_ns);
        self.track
            .record(self.ctx, self.name, self.parent_id, self.start_ns, dur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_records_span_with_parent_links() {
        let tracer = Tracer::with_shape(2, 16);
        let track = tracer.register(names::TRACK_ROUTER);
        let child_ctx;
        {
            let root = track.span(names::BATCH_ENQUEUE, None);
            let child = track.span(names::BATCH_PROCESS, Some(root.ctx()));
            child_ctx = child.ctx();
            assert_eq!(child_ctx.trace_id, root.ctx().trace_id);
            assert_ne!(child_ctx.span_id, root.ctx().span_id);
        }
        let spans = tracer.drain();
        assert_eq!(spans.len(), 2);
        // Inner guard drops first.
        let child = spans.first().expect("child span");
        let root = spans.get(1).expect("root span");
        assert_eq!(root.parent_id, 0);
        assert_eq!(root.trace_id, root.span_id);
        assert_eq!(child.parent_id, root.span_id);
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.name, names::BATCH_PROCESS);
        assert!(root.dur_ns >= child.dur_ns);
        assert!(root.start_ns <= child.start_ns);
    }

    #[test]
    fn full_ring_drops_newest_and_counts() {
        let tracer = Tracer::with_shape(1, 2);
        let track = tracer.register(names::TRACK_SHARD);
        for _ in 0..5 {
            track.event(names::BATCH_PROCESS, None);
        }
        assert_eq!(tracer.queued(), 2);
        assert_eq!(tracer.dropped(), 3);
        let first_ids: Vec<u64> = tracer.drain().iter().map(|s| s.span_id).collect();
        // Drop-newest: the two *oldest* spans survived.
        assert_eq!(first_ids, vec![1, 2]);
        assert_eq!(tracer.queued(), 0);
        // The ring accepts new spans again after the drain.
        track.event(names::BATCH_PROCESS, None);
        assert_eq!(tracer.drain().len(), 1);
    }

    #[test]
    fn registrations_past_the_pool_count_drops() {
        let tracer = Tracer::with_shape(1, 8);
        let _a = tracer.register(names::TRACK_ROUTER);
        let b = tracer.register(names::TRACK_SHARD);
        b.event(names::BATCH_PROCESS, None);
        assert_eq!(tracer.drain().len(), 0);
        assert_eq!(tracer.dropped(), 1);
    }

    #[test]
    fn ctx_propagation_across_threads_links_one_tree() {
        let tracer = Arc::new(Tracer::with_shape(2, 64));
        let producer = tracer.register(names::TRACK_ROUTER);
        let consumer = tracer.register(names::TRACK_SHARD);
        let enqueue_ctx = {
            let guard = producer.span(names::BATCH_ENQUEUE, None);
            guard.ctx()
        };
        let handle = std::thread::spawn(move || {
            let _span = consumer.span(names::BATCH_PROCESS, Some(enqueue_ctx));
        });
        handle.join().expect("consumer thread");
        // The join is the happens-before edge the drain relies on.
        let spans = tracer.drain();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.trace_id == enqueue_ctx.trace_id));
        let process = spans
            .iter()
            .find(|s| s.name == names::BATCH_PROCESS)
            .expect("process span");
        assert_eq!(process.parent_id, enqueue_ctx.span_id);
        assert_ne!(process.track, 0);
    }

    #[test]
    fn pending_span_times_the_region() {
        let tracer = Tracer::with_shape(1, 8);
        let track = tracer.register(names::TRACK_ROUTER);
        let pending = track.begin(None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        track.finish(&pending, names::BARRIER_WAIT);
        let spans = tracer.drain();
        let span = spans.first().expect("barrier span");
        assert_eq!(span.name, names::BARRIER_WAIT);
        assert!(span.dur_ns >= 1_000_000, "dur {} too small", span.dur_ns);
    }

    #[test]
    fn guard_records_during_panic_unwind() {
        let tracer = Tracer::with_shape(1, 8);
        let track = tracer.register(names::TRACK_SHARD);
        let ctx = track.root_ctx();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = track.span_at(ctx, names::BATCH_PROCESS, 0);
            panic!("injected");
        }));
        assert!(result.is_err());
        let spans = tracer.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans.first().map(|s| s.span_id), Some(ctx.span_id));
    }

    #[test]
    fn tracks_report_claimed_names() {
        let tracer = Tracer::with_shape(4, 8);
        let _r = tracer.register(names::TRACK_ROUTER);
        let _s = tracer.register(names::TRACK_SHARD);
        let tracks = tracer.tracks();
        assert_eq!(tracks.len(), 2);
        assert_eq!(tracks.first(), Some(&(0, names::TRACK_ROUTER)));
        assert_eq!(tracks.get(1), Some(&(1, names::TRACK_SHARD)));
    }
}
