//! Seeded inputs: the record stream, its exact oracle, and the probe sets.
//! Everything here runs before set-up and outside every timed region.

use crate::spec::{Workload, PROBES};
use ltc_common::ItemId;
use ltc_eval::Oracle;
use ltc_workloads::generator::rank_to_id;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Inverse-CDF sampler over ranks `0..n` with `P(r) ∝ (r + 1)^-skew`.
/// The workload generators in `ltc-workloads` spread exact per-rank counts,
/// which trims every rank whose share rounds to zero; a churn workload needs
/// the whole tail of the universe, so ranks are drawn i.i.d. here.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64, skew: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += ((r + 1) as f64).powf(-skew);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        let rank = self.cdf.partition_point(|&c| c <= u);
        rank.min(self.cdf.len() - 1) as u64
    }
}

/// One workload's inputs for one seed.
pub struct Inputs {
    /// Records of each period, in arrival order.
    pub periods: Vec<Vec<ItemId>>,
    pub oracle: Oracle,
    /// Per-period probe sets (reads-every-period workloads only).
    pub period_probes: Vec<Vec<ItemId>>,
    /// The probe set of the closing read and of the output check.
    pub closing_probes: Vec<ItemId>,
}

impl Inputs {
    pub fn total_records(&self) -> usize {
        self.periods.iter().map(Vec::len).sum()
    }
}

/// Generate the stream, oracle and probes of `workload` from `seed`.
pub fn generate(workload: &Workload, seed: u64) -> Inputs {
    let id_seed = seed ^ 0x7f4a_7c15_9e37_79b9;
    let zipf = Zipf::new(workload.universe, workload.skew);
    let mut rng = SmallRng::seed_from_u64(seed);
    let periods: Vec<Vec<ItemId>> = (0..workload.periods)
        .map(|_| {
            (0..workload.records_per_period)
                .map(|_| rank_to_id(zipf.sample(&mut rng), id_seed))
                .collect()
        })
        .collect();
    let oracle = Oracle::from_periods(periods.iter().map(Vec::as_slice));
    // Absent ids come from ranks past the universe, so the stream never
    // draws them; the oracle check guards against an id-hash collision.
    let mut next_absent = workload.universe;
    let mut absent = |n: usize| -> Vec<ItemId> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let id = rank_to_id(next_absent, id_seed);
            next_absent += 1;
            if oracle.frequency(id) == 0 {
                out.push(id);
            }
        }
        out
    };
    let mut probe_set = |rng: &mut SmallRng, records: &[ItemId]| -> Vec<ItemId> {
        let mut ids: Vec<ItemId> = (0..PROBES / 2)
            .map(|_| records[rng.gen_range(0..records.len())])
            .collect();
        ids.extend(absent(PROBES - PROBES / 2));
        ids
    };
    let period_probes = if workload.reads_every_period {
        periods.iter().map(|p| probe_set(&mut rng, p)).collect()
    } else {
        Vec::new()
    };
    let all: Vec<ItemId> = periods.iter().flatten().copied().collect();
    let closing_probes = probe_set(&mut rng, &all);
    drop(all);
    Inputs {
        periods,
        oracle,
        period_probes,
        closing_probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank_zero_is_most_frequent_and_in_range() {
        let zipf = Zipf::new(1000, 1.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        let max = counts.iter().copied().max().unwrap();
        assert_eq!(counts[0], max);
        // P(rank 0) = 1 / H(1000) ≈ 0.1336.
        assert!((f64::from(counts[0]) / 100_000.0 - 0.1336).abs() < 0.01);
    }

    #[test]
    fn same_seed_same_inputs_and_probes_are_half_absent() {
        let w = Workload {
            periods: 3,
            records_per_period: 500,
            reads_every_period: true,
            ..crate::spec::WORKLOADS[2]
        };
        let a = generate(&w, 11);
        let b = generate(&w, 11);
        let c = generate(&w, 12);
        assert_eq!(a.periods, b.periods);
        assert_eq!(a.closing_probes, b.closing_probes);
        assert_ne!(a.periods, c.periods);
        assert_eq!(a.period_probes.len(), 3);
        for probes in a.period_probes.iter().chain([&a.closing_probes]) {
            assert_eq!(probes.len(), PROBES);
            let absent = probes.iter().filter(|&&id| a.oracle.frequency(id) == 0);
            assert_eq!(absent.count(), PROBES / 2);
        }
    }
}
