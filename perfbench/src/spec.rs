//! The three workloads and the LTC configuration they share.

use ltc_common::Weights;
use ltc_core::{LtcConfig, Variant};
use std::time::Duration;

/// Cells per bucket `d` (the paper's default).
pub const CELLS_PER_BUCKET: usize = 8;
/// Records per `insert_batch` call, and the runtime's hand-off batch size.
pub const BATCH: usize = 1024;
/// Size of every top-k query.
pub const K: usize = 100;
/// Ids in one estimate probe set: half seen in the stream, half absent.
pub const PROBES: usize = 200;
/// `try_top_k` calls in the closing read of every round. One call per round
/// would leave the p90 with a handful of samples per run.
pub const CLOSING_TOPK_READS: usize = 20;
/// Passes over the probe set in the closing read: 2000 estimates a round,
/// so the p99 has tens of samples above it in every run.
pub const CLOSING_ESTIMATE_PASSES: usize = 10;
/// Worker shards of the runtime: producer plus one worker fit a 2-CPU host.
pub const SHARDS: usize = 1;

/// One benchmark workload. Every field is fixed by the workload's name; the
/// seed only changes which ids the stream draws.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: the layers it stresses.
    pub why: &'static str,
    /// Zipf skew of the id distribution.
    pub skew: f64,
    /// Distinct ids the distribution ranges over.
    pub universe: u64,
    pub records_per_period: usize,
    pub periods: usize,
    /// Buckets `w`; the table holds `w * d` cells.
    pub buckets: usize,
    /// Query after every period: `try_top_k` plus a probe set of estimates.
    pub reads_every_period: bool,
    /// Call `checkpoint_now` after every this many periods, besides the
    /// closing checkpoint every round takes.
    pub checkpoint_every: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "zipf-ingest",
        why: "per-record layers (hash, route, SPSC hand-off, probe hits) on an L2-resident 4096-cell table; period close is rare",
        skew: 1.0,
        universe: 1_000_000,
        records_per_period: 100_000,
        periods: 100,
        buckets: 512,
        reads_every_period: false,
        // A 64 KB frame costs about one fsync, whose jitter needs tens of
        // samples a run to give a steady median.
        checkpoint_every: 10,
    },
    Workload {
        name: "churn-periods",
        why: "misses drive the decrement/admission path; 2000-record periods make period close (barrier, sweep, snapshot, audit) dominate",
        skew: 0.6,
        universe: 4_000_000,
        records_per_period: 2_000,
        periods: 500,
        buckets: 25_000,
        reads_every_period: false,
        // Five 3.4 MB frames a round: enough samples for a steady median,
        // a tenth of the loop beside 500 period closes.
        checkpoint_every: 100,
    },
    Workload {
        name: "serve-durable",
        why: "reads and checkpoints beside writes: top-k and 200 estimates every period, checkpoint_now every 5 periods, restore at the end",
        skew: 1.0,
        universe: 1_000_000,
        records_per_period: 20_000,
        periods: 100,
        buckets: 25_000,
        reads_every_period: true,
        checkpoint_every: 5,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn config(&self) -> LtcConfig {
        LtcConfig::builder()
            .buckets(self.buckets)
            .cells_per_bucket(CELLS_PER_BUCKET)
            .weights(weights())
            .records_per_period(self.records_per_period as u64)
            .variant(Variant::FULL)
            .build()
    }

    /// The workload's parameters as a JSON object, for the result record.
    pub fn to_json(self) -> String {
        format!(
            "{{\"name\":{},\"why\":{},\"zipf_skew\":{},\"universe\":{},\"records_per_period\":{},\"periods\":{},\"buckets\":{},\"cells_per_bucket\":{},\"batch\":{},\"k\":{},\"probes\":{},\"reads_every_period\":{},\"checkpoint_every\":{},\"shards\":{}}}",
            crate::json::string(self.name),
            crate::json::string(self.why),
            self.skew,
            self.universe,
            self.records_per_period,
            self.periods,
            self.buckets,
            CELLS_PER_BUCKET,
            BATCH,
            K,
            PROBES,
            self.reads_every_period,
            self.checkpoint_every,
            SHARDS,
        )
    }
}

/// α = β = 1.
pub fn weights() -> Weights {
    Weights::new(1.0, 1.0)
}

/// The durability policy of every round: the default policy, except that
/// the automatic tick never fires, so the durability thread runs only while
/// the producer is blocked in `checkpoint_now` and every frame covers an
/// exact period prefix.
pub fn durability_policy() -> ltc_core::DurabilityPolicy {
    ltc_core::DurabilityPolicy {
        interval: Duration::from_secs(24 * 60 * 60),
        ..ltc_core::DurabilityPolicy::default()
    }
}
