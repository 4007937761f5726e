//! Differential suite pinning the struct-of-arrays table ([`ltc_core::Ltc`])
//! bit-exact against the retained array-of-structs reference
//! ([`ltc_core::reference::ReferenceLtc`]).
//!
//! The SoA refactor rewired every hot probe (find-match, find-empty,
//! find-min-significance) and the CLOCK harvest; these properties are the
//! proof that none of that changed a single observable bit: identical
//! streams must yield identical top-k, estimates, per-item counters, and
//! byte-identical `LTC1` snapshots — mid-period (pending flags in the lane)
//! as well as at period boundaries.

use ltc_common::Weights;
use ltc_core::reference::ReferenceLtc;
use ltc_core::{Ltc, LtcConfig, Variant};
use proptest::prelude::*;

fn config(w: usize, d: usize, n: u64, variant: Variant, seed: u64) -> LtcConfig {
    LtcConfig::builder()
        .buckets(w)
        .cells_per_bucket(d)
        .records_per_period(n)
        .weights(Weights::BALANCED)
        .variant(variant)
        .seed(seed)
        .build()
}

fn variant_strategy() -> impl Strategy<Value = Variant> {
    (any::<bool>(), any::<bool>()).prop_map(|(de, ltr)| Variant {
        deviation_eliminator: de,
        long_tail_replacement: ltr,
    })
}

/// Split `stream` into chunks of the given sizes, cycling through `sizes`.
fn chunks_by_sizes<'a>(stream: &'a [u64], sizes: &'a [usize]) -> Vec<&'a [u64]> {
    let mut out = Vec::new();
    let mut at = 0;
    let mut i = 0;
    while at < stream.len() {
        let take = sizes[i % sizes.len()].min(stream.len() - at);
        out.push(&stream[at..at + take]);
        at += take;
        i += 1;
    }
    out
}

/// The widest bucket the builder accepts runs the runtime-width scans
/// (no fixed-width dispatch) with every mask bit in use: one bucket of 32
/// cells filled by 32 distinct ids, then churned by a stream whose misses
/// decrement and replace.
#[test]
fn widest_bucket_is_bit_exact() {
    let d = ltc_core::MAX_CELLS_PER_BUCKET;
    let cfg = config(1, d, 50, Variant::FULL, 3);
    let mut soa = Ltc::new(cfg);
    let mut aos = ReferenceLtc::new(cfg);
    for id in 1..=d as u64 {
        soa.insert(id);
        aos.insert(id);
    }
    assert_eq!(soa.cells().filter(|c| c.occupied()).count(), d);
    assert_eq!(soa.to_snapshot(), aos.to_snapshot(), "filled bucket");
    let churn: Vec<u64> = (0..600u64).map(|k| (k * 7919) % 97).collect();
    for &id in &churn {
        soa.insert(id);
        aos.insert(id);
    }
    assert_eq!(soa.to_snapshot(), aos.to_snapshot(), "mid-period snapshot");
    soa.end_period();
    aos.end_period();
    soa.finalize();
    aos.finalize();
    assert_eq!(soa.to_snapshot(), aos.to_snapshot(), "final snapshot");
    for &id in &churn {
        assert_eq!(soa.frequency_of(id), aos.frequency_of(id));
        assert_eq!(soa.persistency_of(id), aos.persistency_of(id));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scalar inserts: every query surface and the snapshot bytes agree,
    /// both mid-period (pending flags) and after end_period + finalize.
    #[test]
    fn scalar_inserts_are_bit_exact(
        stream in prop::collection::vec(0u64..300, 1..500),
        variant in variant_strategy(),
        d in 1usize..9,
        seed in 0u64..32,
    ) {
        // Small tables force heavy collisions: every case-3 path runs.
        let cfg = config(8, d, 40, variant, seed);
        let mut soa = Ltc::new(cfg);
        let mut aos = ReferenceLtc::new(cfg);
        for (k, &id) in stream.iter().enumerate() {
            soa.insert(id);
            aos.insert(id);
            if k % 40 == 39 {
                soa.end_period();
                aos.end_period();
            }
        }
        // Mid-period: flag lanes still carry unharvested appearance bits.
        prop_assert_eq!(soa.to_snapshot(), aos.to_snapshot(), "mid-period snapshot");
        for &id in &stream {
            prop_assert_eq!(soa.frequency_of(id), aos.frequency_of(id));
            prop_assert_eq!(soa.persistency_of(id), aos.persistency_of(id));
        }
        soa.end_period();
        aos.end_period();
        soa.finalize();
        aos.finalize();
        prop_assert_eq!(soa.to_snapshot(), aos.to_snapshot(), "final snapshot");
        use ltc_common::SignificanceQuery;
        prop_assert_eq!(soa.top_k(16), aos.top_k(16));
        for &id in &stream {
            prop_assert_eq!(soa.estimate(id), aos.estimate(id));
        }
    }

    /// The batched path of both layouts agrees with the SoA scalar path:
    /// `insert_batch` must stay bit-identical to one-by-one insertion no
    /// matter how the stream is chunked.
    #[test]
    fn batched_inserts_are_bit_exact(
        stream in prop::collection::vec(0u64..200, 1..400),
        sizes in prop::collection::vec(1usize..60, 1..6),
        variant in variant_strategy(),
    ) {
        let cfg = config(8, 4, 50, variant, 7);
        let mut soa_scalar = Ltc::new(cfg);
        let mut soa_batch = Ltc::new(cfg);
        let mut aos_batch = ReferenceLtc::new(cfg);
        for chunk in chunks_by_sizes(&stream, &sizes) {
            for &id in chunk {
                soa_scalar.insert(id);
            }
            soa_batch.insert_batch(chunk);
            aos_batch.insert_batch(chunk);
        }
        prop_assert_eq!(soa_scalar.to_snapshot(), soa_batch.to_snapshot());
        prop_assert_eq!(soa_batch.to_snapshot(), aos_batch.to_snapshot());
    }

    /// Time-driven insertion agrees across layouts, including automatic
    /// period rollover and skipped periods.
    #[test]
    fn time_driven_is_bit_exact(
        gaps in prop::collection::vec(0u64..40, 1..200),
        variant in variant_strategy(),
    ) {
        let cfg = LtcConfig::builder()
            .buckets(8)
            .cells_per_bucket(4)
            .time_units_per_period(25)
            .weights(Weights::BALANCED)
            .variant(variant)
            .seed(11)
            .build();
        let mut soa = Ltc::new(cfg);
        let mut aos = ReferenceLtc::new(cfg);
        let mut t = 0u64;
        for (k, &gap) in gaps.iter().enumerate() {
            t += gap;
            let id = (k as u64 * 13) % 50;
            soa.insert_at(id, t);
            aos.insert_at(id, t);
        }
        soa.end_period();
        aos.end_period();
        soa.finalize();
        aos.finalize();
        prop_assert_eq!(soa.periods_completed(), aos.periods_completed());
        prop_assert_eq!(soa.to_snapshot(), aos.to_snapshot());
    }

    /// Snapshot round-trip identity for the SoA table. Mid-period snapshots
    /// (flag lanes carrying pending appearance bits) must survive
    /// save → restore → re-save byte-for-byte. Lockstep continuation is
    /// asserted from a *period boundary* — the `LTC1` format deliberately
    /// omits the CLOCK hand, which is only at a known position (slot 0)
    /// when a period has just finished.
    #[test]
    fn snapshot_roundtrip_is_identity(
        stream in prop::collection::vec(0u64..150, 1..300),
        tail in prop::collection::vec(0u64..150, 0..80),
        variant in variant_strategy(),
    ) {
        let cfg = config(8, 4, 50, variant, 5);
        let mut original = Ltc::new(cfg);
        for &id in &stream {
            original.insert(id);
        }
        // Mid-period by construction unless len % 50 == 0: re-save identity
        // proves the flag lane round-trips even with pending bits.
        let mid = original.to_snapshot();
        let mut restored_mid = Ltc::new(cfg);
        restored_mid.restore_snapshot(&mid).unwrap();
        prop_assert_eq!(restored_mid.to_snapshot(), mid, "restore then re-save is identity");
        // Boundary snapshot: the CLOCK hand is back at slot 0, so a restored
        // table's future agrees with the original's record for record.
        original.end_period();
        let snap = original.to_snapshot();
        let mut restored = Ltc::new(cfg);
        restored.restore_snapshot(&snap).unwrap();
        for &id in &tail {
            original.insert(id);
            restored.insert(id);
        }
        original.end_period();
        restored.end_period();
        original.finalize();
        restored.finalize();
        prop_assert_eq!(original.to_snapshot(), restored.to_snapshot());
    }
}
