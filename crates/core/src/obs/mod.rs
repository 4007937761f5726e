//! Zero-dependency observability layer: wait-free metrics, a lock-free
//! structured event journal, and Prometheus/JSON export.
//!
//! Three tiers, by how hot the touching code path is:
//!
//! 1. [`metrics`] — `Relaxed`-atomic [`Counter`]/[`Gauge`]/[`Histogram`]
//!    handles. These are the only types the per-batch / per-record paths
//!    may touch, and every update is wait-free. Enforced by the
//!    `obs_hot_path` rule of `cargo run -p xtask -- lint`.
//! 2. [`journal`] — a bounded lock-free MPMC [`EventJournal`] for rare
//!    structured events (faults, rollbacks, checkpoints, period
//!    rollovers), publishable from workers without blocking and drainable
//!    without stopping them.
//! 3. [`registry`] + [`export`] — the `Mutex`-guarded [`MetricsRegistry`]
//!    and renderers, touched only at construction and export time.
//!
//! Two further modules ride the same tiers: [`trace`] — wait-free span
//! rings (tier 1 on the record side, externally synchronized drains) with
//! Chrome-trace/folded-stack rendering in [`trace_export`] — and
//! [`audit`] — a per-period algorithm-health auditor publishing gauges
//! (tier 1 cells, written off the hot path) and
//! [`EventKind::HealthReport`] journal events (tier 2).
//!
//! [`RuntimeObs`] bundles all of it for the parallel runtime: one registry,
//! journal, and (optional) tracer, pre-registered process-wide handles, and
//! per-shard handle bundles ([`ShardObs`]) for the worker threads.

pub mod audit;
pub mod export;
pub mod journal;
pub mod metrics;
pub mod registry;
pub mod trace;
pub mod trace_export;

pub use audit::{HealthAuditor, HealthReport};
pub use export::{
    render_events_json, render_json, render_json_snapshot, render_prometheus,
    render_prometheus_snapshot, validate_exposition,
};
pub use journal::{Event, EventJournal, EventKind, DEFAULT_JOURNAL_CAPACITY};
pub use metrics::{bucket_bound, Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use registry::{
    labels, FamilySnapshot, Labels, MetricKind, MetricValue, MetricsRegistry, SeriesSnapshot,
};
pub use trace::{Span, SpanCtx, SpanGuard, TraceTrack, Tracer};
pub use trace_export::{render_chrome_trace, render_folded, validate_chrome_trace};

use std::sync::Arc;

/// Wait-free metric handles for one shard of the parallel runtime. Handed
/// to the producer (queue side) and worker (table side) at spawn;
/// re-created handles after a worker restart share the same cells because
/// registration is idempotent.
#[derive(Debug, Clone)]
pub struct ShardObs {
    /// Shard index these handles are labeled with.
    pub shard: u64,
    /// `ltc_shard_queue_depth` — batches currently queued in the shard's
    /// SPSC ring (producer-side estimate).
    pub queue_depth: Gauge,
    /// `ltc_shard_queue_stalls_total` — times the producer had to park
    /// because the shard's ring was full (backpressure).
    pub queue_stalls: Counter,
    /// `ltc_shard_batches_total` — batches the worker has applied.
    pub batches: Counter,
    /// `ltc_shard_records_total` — records the worker has applied.
    pub records: Counter,
    /// `ltc_shard_batch_insert_ns` — per-batch `insert_batch` wall time.
    pub batch_insert_ns: Histogram,
    /// `ltc_worker_restarts_total` — times this shard's worker was
    /// respawned after a fault.
    pub restarts: Counter,
    /// `ltc_worker_degradations_total` — times this shard exhausted its
    /// restart budget and went lossy.
    pub degradations: Counter,
    /// `ltc_shard_records_lost_total` — records dropped on this shard
    /// (salvage drains + lossy mode).
    pub records_lost: Counter,
}

/// Shared observability state for one runtime: a metric registry, an event
/// journal, and pre-registered process-wide handles. Cheap to share via
/// `Arc`; all hot-path access goes through wait-free handles, never the
/// registry lock.
#[derive(Debug)]
pub struct RuntimeObs {
    registry: MetricsRegistry,
    journal: EventJournal,
    tracer: Option<Arc<Tracer>>,
    /// `ltc_journal_dropped_events` — events the journal refused because
    /// its ring was full (drop-newest). Synced from the journal at render
    /// time.
    journal_dropped: Gauge,
    /// `ltc_trace_dropped_spans` — spans the tracer refused because a ring
    /// was full (drop-newest). Synced from the tracer at render time.
    trace_dropped: Gauge,
    /// `ltc_trace_queued_spans` — spans currently buffered awaiting a
    /// drain. Synced from the tracer at render time.
    trace_queued: Gauge,
    /// `ltc_periods_total` — period rollovers completed by the runtime.
    pub periods: Counter,
    /// `ltc_barrier_wait_ns` — wall time the drain barrier spent waiting
    /// for every worker to apply what was sent. The period close that
    /// follows it in `end_period`/`finish` is not included.
    pub barrier_wait_ns: Histogram,
    /// `ltc_checkpoint_save_ns` — wall time of checkpoint serialisation +
    /// atomic publish.
    pub checkpoint_save_ns: Histogram,
    /// `ltc_checkpoint_restore_ns` — wall time of checkpoint restore.
    pub checkpoint_restore_ns: Histogram,
    /// `ltc_checkpoint_publishes_total` — checkpoint generations published.
    pub checkpoint_publishes: Counter,
    /// `ltc_checkpoint_fallbacks_total` — restores that had to skip a
    /// newest generation (corrupt/truncated) and fall back to an older one.
    pub checkpoint_fallbacks: Counter,
    /// `ltc_delta_save_ns` — wall time of delta-frame serialisation +
    /// atomic publish (background durability service).
    pub delta_save_ns: Histogram,
    /// `ltc_delta_publishes_total` — delta checkpoint generations
    /// published.
    pub delta_publishes: Counter,
    /// `ltc_compactions_total` — delta chains compacted into fresh full
    /// frames.
    pub compactions: Counter,
    /// `ltc_chain_fallbacks_total` — restores that found a delta whose
    /// base was missing or damaged and fell back past the chain.
    pub chain_fallbacks: Counter,
    /// `ltc_delta_chain_length` — deltas published since the current base
    /// full frame.
    pub chain_length: Gauge,
}

impl Default for RuntimeObs {
    fn default() -> Self {
        Self::new()
    }
}

impl RuntimeObs {
    /// A fresh registry + journal + tracer with the process-wide families
    /// registered. Tracing is on by default (its record path is wait-free
    /// and bounded); use [`RuntimeObs::without_tracing`] to opt out.
    pub fn new() -> Self {
        Self::build(true)
    }

    /// A fresh registry + journal with span tracing disabled (metrics and
    /// journal only).
    pub fn without_tracing() -> Self {
        Self::build(false)
    }

    fn build(tracing: bool) -> Self {
        let registry = MetricsRegistry::new();
        let periods = registry.counter(
            "ltc_periods_total",
            "Period rollovers completed by the runtime.",
            Labels::new(),
        );
        let barrier_wait_ns = registry.histogram(
            "ltc_barrier_wait_ns",
            "Wall time the drain barrier spent waiting on the workers (ns).",
            Labels::new(),
        );
        let checkpoint_save_ns = registry.histogram(
            "ltc_checkpoint_save_ns",
            "Wall time of checkpoint serialisation and atomic publish (ns).",
            Labels::new(),
        );
        let checkpoint_restore_ns = registry.histogram(
            "ltc_checkpoint_restore_ns",
            "Wall time of checkpoint restore (ns).",
            Labels::new(),
        );
        let checkpoint_publishes = registry.counter(
            "ltc_checkpoint_publishes_total",
            "Checkpoint generations published.",
            Labels::new(),
        );
        let checkpoint_fallbacks = registry.counter(
            "ltc_checkpoint_fallbacks_total",
            "Restores that skipped a damaged newest generation.",
            Labels::new(),
        );
        let delta_save_ns = registry.histogram(
            "ltc_delta_save_ns",
            "Wall time of delta-frame serialisation and atomic publish (ns).",
            Labels::new(),
        );
        let delta_publishes = registry.counter(
            "ltc_delta_publishes_total",
            "Delta checkpoint generations published.",
            Labels::new(),
        );
        let compactions = registry.counter(
            "ltc_compactions_total",
            "Delta chains compacted into fresh full frames.",
            Labels::new(),
        );
        let chain_fallbacks = registry.counter(
            "ltc_chain_fallbacks_total",
            "Restores that fell back past a delta chain with a damaged base.",
            Labels::new(),
        );
        let chain_length = registry.gauge(
            "ltc_delta_chain_length",
            "Deltas published since the current base full frame.",
            Labels::new(),
        );
        let journal_dropped = registry.gauge(
            "ltc_journal_dropped_events",
            "Events refused by the full journal ring (drop-newest).",
            Labels::new(),
        );
        let trace_dropped = registry.gauge(
            "ltc_trace_dropped_spans",
            "Spans refused by a full trace ring (drop-newest).",
            Labels::new(),
        );
        let trace_queued = registry.gauge(
            "ltc_trace_queued_spans",
            "Spans buffered in trace rings awaiting a drain.",
            Labels::new(),
        );
        Self {
            registry,
            journal: EventJournal::new(),
            tracer: tracing.then(|| Arc::new(Tracer::new())),
            journal_dropped,
            trace_dropped,
            trace_queued,
            periods,
            barrier_wait_ns,
            checkpoint_save_ns,
            checkpoint_restore_ns,
            checkpoint_publishes,
            checkpoint_fallbacks,
            delta_save_ns,
            delta_publishes,
            compactions,
            chain_fallbacks,
            chain_length,
        }
    }

    /// The underlying registry (for export or extra registrations).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The event journal (drain with [`EventJournal::drain`]).
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// The span tracer, if tracing is enabled for this runtime.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Drain every trace ring's buffered spans (empty when tracing is
    /// disabled). Call only where all recording threads are quiescent or
    /// joined — see [`Tracer::drain`].
    pub fn drain_spans(&self) -> Vec<Span> {
        self.tracer
            .as_deref()
            .map(Tracer::drain)
            .unwrap_or_default()
    }

    /// Sync the drop/queue-depth gauges from the journal and tracer (done
    /// automatically by the render methods).
    fn sync_loss_gauges(&self) {
        self.journal_dropped.set(self.journal.dropped());
        if let Some(tracer) = self.tracer.as_deref() {
            self.trace_dropped.set(tracer.dropped());
            self.trace_queued.set(tracer.queued());
        }
    }

    /// Register (idempotently) and return the wait-free handle bundle for
    /// one shard. Called at spawn/restart time, never on the hot path.
    pub fn shard(&self, shard: u64) -> ShardObs {
        let l = || labels([("shard", shard.to_string())]);
        ShardObs {
            shard,
            queue_depth: self.registry.gauge(
                "ltc_shard_queue_depth",
                "Batches queued in the shard's SPSC ring.",
                l(),
            ),
            queue_stalls: self.registry.counter(
                "ltc_shard_queue_stalls_total",
                "Producer parks due to a full shard ring (backpressure).",
                l(),
            ),
            batches: self.registry.counter(
                "ltc_shard_batches_total",
                "Batches applied by the shard worker.",
                l(),
            ),
            records: self.registry.counter(
                "ltc_shard_records_total",
                "Records applied by the shard worker.",
                l(),
            ),
            batch_insert_ns: self.registry.histogram(
                "ltc_shard_batch_insert_ns",
                "Per-batch insert_batch wall time (ns).",
                l(),
            ),
            restarts: self.registry.counter(
                "ltc_worker_restarts_total",
                "Worker respawns after a fault.",
                l(),
            ),
            degradations: self.registry.counter(
                "ltc_worker_degradations_total",
                "Shards degraded to lossy mode after exhausting restarts.",
                l(),
            ),
            records_lost: self.registry.counter(
                "ltc_shard_records_lost_total",
                "Records dropped on this shard (salvage drains + lossy mode).",
                l(),
            ),
        }
    }

    /// Register (idempotently) the fault counter for one fault kind:
    /// `ltc_worker_faults_total{kind="…"}`. Supervisor path — may take the
    /// registry lock.
    pub fn fault_counter(&self, kind: &str) -> Counter {
        self.registry.counter(
            "ltc_worker_faults_total",
            "Worker faults by kind.",
            labels([("kind", kind)]),
        )
    }

    /// Record a worker fault: bumps the per-kind counter and journals a
    /// [`EventKind::WorkerFault`] event. Returns the event's sequence
    /// number (if the journal had room).
    pub fn note_fault(&self, shard: u64, kind: &str, kind_code: u64) -> Option<u64> {
        self.fault_counter(kind).inc();
        self.journal
            .publish(EventKind::WorkerFault, Some(shard), kind_code)
    }

    /// Record a rollback-to-snapshot during recovery.
    pub fn note_rollback(&self, shard: u64, restarts: u64) -> Option<u64> {
        self.journal
            .publish(EventKind::Rollback, Some(shard), restarts)
    }

    /// Record a shard degrading to lossy mode.
    pub fn note_degradation(&self, shard: u64, records_lost: u64) -> Option<u64> {
        self.journal
            .publish(EventKind::Degradation, Some(shard), records_lost)
    }

    /// Record a completed period rollover (runtime-wide).
    pub fn note_period_rollover(&self, periods: u64) -> Option<u64> {
        self.periods.inc();
        self.journal
            .publish(EventKind::PeriodRollover, None, periods)
    }

    /// Record a published checkpoint generation.
    pub fn note_checkpoint_publish(&self, generation: u64, elapsed_ns: u64) -> Option<u64> {
        self.checkpoint_publishes.inc();
        self.checkpoint_save_ns.record(elapsed_ns);
        self.journal
            .publish(EventKind::CheckpointPublish, None, generation)
    }

    /// Record a completed restore (from `generation`, after any fallback).
    pub fn note_checkpoint_restore(&self, generation: u64, elapsed_ns: u64) -> Option<u64> {
        self.checkpoint_restore_ns.record(elapsed_ns);
        self.journal
            .publish(EventKind::CheckpointRestore, None, generation)
    }

    /// Record a published delta generation (`chain_length` deltas since the
    /// current base).
    pub fn note_delta_publish(
        &self,
        generation: u64,
        elapsed_ns: u64,
        chain_length: u64,
    ) -> Option<u64> {
        self.delta_publishes.inc();
        self.delta_save_ns.record(elapsed_ns);
        self.chain_length.set(chain_length);
        self.journal
            .publish(EventKind::DeltaPublish, None, generation)
    }

    /// Record a delta chain compacted into a fresh full frame at
    /// `generation`.
    pub fn note_compaction(&self, generation: u64, elapsed_ns: u64) -> Option<u64> {
        self.compactions.inc();
        self.checkpoint_publishes.inc();
        self.checkpoint_save_ns.record(elapsed_ns);
        self.chain_length.set(0);
        self.journal
            .publish(EventKind::Compaction, None, generation)
    }

    /// Record a restore skipping a delta generation whose base was missing
    /// or damaged.
    pub fn note_chain_fallback(&self, generation: u64) -> Option<u64> {
        self.chain_fallbacks.inc();
        self.journal
            .publish(EventKind::ChainFallback, None, generation)
    }

    /// Render the registry in Prometheus text exposition format (syncs the
    /// journal/trace loss gauges first).
    pub fn render_prometheus(&self) -> String {
        self.sync_loss_gauges();
        render_prometheus(&self.registry)
    }

    /// Render the registry as a JSON document (syncs the journal/trace
    /// loss gauges first).
    pub fn render_json(&self) -> String {
        self.sync_loss_gauges();
        render_json(&self.registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_obs_registers_expected_families() {
        let obs = RuntimeObs::new();
        let shard = obs.shard(3);
        shard.batches.inc();
        shard.records.add(256);
        obs.note_fault(3, "panic", 0);
        obs.note_period_rollover(1);
        let text = obs.render_prometheus();
        assert!(text.contains("ltc_shard_batches_total{shard=\"3\"} 1"));
        assert!(text.contains("ltc_shard_records_total{shard=\"3\"} 256"));
        assert!(text.contains("ltc_worker_faults_total{kind=\"panic\"} 1"));
        assert!(text.contains("ltc_periods_total 1"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn shard_handles_are_idempotent_across_restart() {
        let obs = RuntimeObs::new();
        let first = obs.shard(0);
        first.restarts.inc();
        let respawned = obs.shard(0);
        respawned.restarts.inc();
        assert_eq!(first.restarts.get(), 2, "same cells after respawn");
    }

    #[test]
    fn note_helpers_journal_events_with_seqs() {
        let obs = RuntimeObs::new();
        let a = obs.note_fault(1, "panic", 0).unwrap();
        let b = obs.note_rollback(1, 1).unwrap();
        let c = obs.note_degradation(1, 42).unwrap();
        assert!(a < b && b < c, "monotonic seqs");
        let events = obs.journal().drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::WorkerFault);
        assert_eq!(events[1].kind, EventKind::Rollback);
        assert_eq!(events[2].kind, EventKind::Degradation);
        assert_eq!(events[2].detail, 42);
    }
}
