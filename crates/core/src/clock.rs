//! The CLOCK pointer (paper §III-B1, Figure 3).
//!
//! Every cell of the lossy table is a "time slot"; a pointer sweeps the table
//! so that **each period scans every cell exactly once**. With `m` cells and
//! `n` records per period the pointer must advance `m/n` slots per record —
//! a fraction in general. The paper phrases this as a step size; we realise
//! it with an integer Bresenham accumulator, which guarantees *exactly* `m`
//! scans per `n` records with no floating-point drift:
//!
//! ```text
//! acc += m        (per record; or += Δtime·m in time-driven mode)
//! while acc >= n: scan(pos); pos = (pos+1) mod m; acc -= n
//! ```
//!
//! A property test in the core crate pins the exactly-once-per-period
//! invariant.

/// The sweep pointer over `m` cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockPointer {
    /// Next cell index to scan.
    pos: usize,
    /// Total cells `m`.
    total: usize,
    /// Bresenham accumulator (numerator units).
    acc: u64,
    /// Cells scanned since the last period reset.
    scanned_this_period: u64,
}

impl ClockPointer {
    /// A pointer over `total` cells, parked at slot 0.
    pub fn new(total: usize) -> Self {
        assert!(total > 0, "a CLOCK needs at least one slot");
        Self {
            pos: 0,
            total,
            acc: 0,
            scanned_this_period: 0,
        }
    }

    /// Park the pointer back at slot 0 with a fresh period, as
    /// [`new`](ClockPointer::new) leaves it.
    pub(crate) fn rewind(&mut self) {
        self.pos = 0;
        self.acc = 0;
        self.scanned_this_period = 0;
    }

    /// Number of cells.
    #[inline]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Next slot the pointer will scan.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Cells scanned since the period began.
    #[inline]
    pub fn scanned_this_period(&self) -> u64 {
        self.scanned_this_period
    }

    /// Advance by `numerator/denominator` of a full sweep, scanning each slot
    /// passed. Count-driven callers use `numerator = m`, `denominator = n`
    /// once per record; time-driven callers use `numerator = Δt·m`,
    /// `denominator = t`.
    ///
    /// The accumulator saturates instead of wrapping, so a pathological
    /// timestamp jump (`Δt·m` near `u64::MAX`) degrades to "finish the
    /// sweep" rather than corrupting the pointer. A zero `denominator`
    /// (a period of zero records or zero time units) has no meaningful
    /// step size and panics in all build profiles.
    #[inline]
    pub fn tick(&mut self, numerator: u64, denominator: u64, mut scan: impl FnMut(usize)) {
        self.tick_ranges(numerator, denominator, |start, len| {
            for i in start..start.saturating_add(len) {
                scan(i);
            }
        });
    }

    /// [`tick`](ClockPointer::tick), but the scan callback receives whole
    /// contiguous slot runs `(start, len)` instead of single slots — at most
    /// two per call (the sweep wraps at most once, because a period's scans
    /// are capped at one sweep). The SoA table points this at a flag-lane
    /// harvest loop; emitting runs keeps that loop contiguous and
    /// vectorizable instead of re-entering per slot.
    #[inline]
    pub fn tick_ranges(
        &mut self,
        numerator: u64,
        denominator: u64,
        mut scan: impl FnMut(usize, usize),
    ) {
        assert!(
            denominator > 0,
            "CLOCK tick denominator (records or time units per period) must be positive"
        );
        self.acc = self.acc.saturating_add(numerator);
        let due = self.acc.checked_div(denominator).unwrap_or(0);
        if due == 0 {
            return;
        }
        // Cap at one full sweep per period: once every cell has been
        // scanned, further progress within the period is a no-op (can
        // only happen on over-long periods in time-driven mode).
        let remaining = (self.total as u64).saturating_sub(self.scanned_this_period);
        let steps = if due > remaining {
            self.acc = 0;
            remaining
        } else {
            // `due * denominator <= acc`, so neither op can saturate.
            self.acc = self.acc.saturating_sub(due.saturating_mul(denominator));
            due
        };
        self.emit_runs(steps, &mut scan);
        self.scanned_this_period = self.scanned_this_period.saturating_add(steps);
    }

    /// Advance the pointer by `steps` slots, reporting the ground covered as
    /// contiguous `(start, len)` runs. `steps` never exceeds `total` (the
    /// once-per-period cap), so at most two runs are emitted.
    fn emit_runs(&mut self, steps: u64, scan: &mut impl FnMut(usize, usize)) {
        let mut left = steps;
        while left > 0 {
            let to_end = self.total.saturating_sub(self.pos) as u64;
            let run = to_end.min(left) as usize;
            scan(self.pos, run);
            self.pos = self.pos.saturating_add(run);
            if self.pos >= self.total {
                self.pos = 0;
            }
            left = left.saturating_sub(run as u64);
        }
    }

    /// How many consecutive [`tick`](ClockPointer::tick)s of
    /// `numerator/denominator` are guaranteed to scan nothing from the
    /// current accumulator state. Batched callers process that many records
    /// in a tight loop (no per-record pointer bookkeeping), advance the
    /// accumulator once with [`advance_scan_free`], and only then pay for a
    /// real tick.
    ///
    /// [`advance_scan_free`]: ClockPointer::advance_scan_free
    #[inline]
    pub fn ticks_before_scan(&self, numerator: u64, denominator: u64) -> u64 {
        assert!(
            denominator > 0,
            "CLOCK tick denominator (records or time units per period) must be positive"
        );
        if numerator == 0 {
            return u64::MAX;
        }
        if self.acc >= denominator {
            return 0;
        }
        // `numerator > 0` (checked above); 0 on the unreachable division
        // failure is the conservative answer — "no tick is scan-free".
        denominator
            .saturating_sub(1)
            .saturating_sub(self.acc)
            .checked_div(numerator)
            .unwrap_or(0)
    }

    /// Advance the accumulator by `count` ticks of `numerator` known (via
    /// [`ticks_before_scan`](ClockPointer::ticks_before_scan)) to scan
    /// nothing. Equivalent to `count` calls of `tick(numerator, denominator,
    /// …)`, each of which would have scanned zero cells.
    #[inline]
    pub fn advance_scan_free(&mut self, count: u64, numerator: u64, denominator: u64) {
        debug_assert!(
            count <= self.ticks_before_scan(numerator, denominator),
            "advance_scan_free would cross a scan boundary"
        );
        // count·numerator ≤ denominator − 1 − acc, so this stays below the
        // denominator and cannot saturate.
        self.acc = self.acc.saturating_add(count.saturating_mul(numerator));
    }

    /// Complete the current sweep: scan every not-yet-visited cell of this
    /// period so the pointer returns to its period-start position, then reset
    /// for the next period. Called by `end_period`; guarantees the
    /// exactly-once-per-period invariant even when a period holds fewer
    /// records than expected.
    pub fn finish_period(&mut self, mut scan: impl FnMut(usize)) {
        self.finish_period_ranges(|start, len| {
            for i in start..start.saturating_add(len) {
                scan(i);
            }
        });
    }

    /// [`finish_period`](ClockPointer::finish_period) with contiguous
    /// `(start, len)` runs, for lane-based harvesting.
    pub fn finish_period_ranges(&mut self, mut scan: impl FnMut(usize, usize)) {
        let left = (self.total as u64).saturating_sub(self.scanned_this_period);
        self.emit_runs(left, &mut scan);
        self.acc = 0;
        self.scanned_this_period = 0;
    }

    /// Scan every cell once *without* touching period state — used for the
    /// final harvest after the stream ends.
    pub fn full_sweep(&self, mut scan: impl FnMut(usize)) {
        self.full_sweep_ranges(|start, len| {
            for i in start..start.saturating_add(len) {
                scan(i);
            }
        });
    }

    /// [`full_sweep`](ClockPointer::full_sweep) with contiguous
    /// `(start, len)` runs: the wrap-around sweep is at most two runs.
    pub fn full_sweep_ranges(&self, mut scan: impl FnMut(usize, usize)) {
        let first = self.total.saturating_sub(self.pos);
        if first > 0 {
            scan(self.pos, first);
        }
        if self.pos > 0 {
            scan(0, self.pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive `records` ticks of `m/n` and return the scan counts per slot.
    fn drive(total: usize, n: u64, records: u64) -> Vec<u32> {
        let mut clock = ClockPointer::new(total);
        let mut counts = vec![0u32; total];
        for _ in 0..records {
            clock.tick(total as u64, n, |i| counts[i] += 1);
        }
        clock.finish_period(|i| counts[i] += 1);
        counts
    }

    #[test]
    fn exactly_once_per_period_m_less_than_n() {
        // 8 cells, 100 records per period.
        let counts = drive(8, 100, 100);
        assert!(counts.iter().all(|&c| c == 1), "{counts:?}");
    }

    #[test]
    fn exactly_once_per_period_m_greater_than_n() {
        // 64 cells, only 10 records per period → 6.4 scans per record.
        let counts = drive(64, 10, 10);
        assert!(counts.iter().all(|&c| c == 1), "{counts:?}");
    }

    #[test]
    fn exactly_once_even_with_short_period() {
        // Period ends after 3 of its 10 records; finish_period covers the rest.
        let counts = drive(16, 10, 3);
        assert!(counts.iter().all(|&c| c == 1), "{counts:?}");
    }

    #[test]
    fn pointer_returns_to_start_each_period() {
        let mut clock = ClockPointer::new(12);
        for _period in 0..5 {
            for _ in 0..30 {
                clock.tick(12, 30, |_| {});
            }
            clock.finish_period(|_| {});
            assert_eq!(clock.position(), 0, "wrapped to the start");
        }
    }

    #[test]
    fn consecutive_periods_independent() {
        let mut clock = ClockPointer::new(8);
        let mut counts = vec![0u32; 8];
        for _period in 0..3 {
            for _ in 0..20 {
                clock.tick(8, 20, |i| counts[i] += 1);
            }
            clock.finish_period(|i| counts[i] += 1);
        }
        assert!(counts.iter().all(|&c| c == 3), "{counts:?}");
    }

    #[test]
    fn time_driven_tick_scans_proportionally() {
        // m=10 slots, period t=1000 units; advancing 500 units scans 5 slots.
        let mut clock = ClockPointer::new(10);
        let mut scanned = 0;
        clock.tick(500 * 10, 1000, |_| scanned += 1);
        assert_eq!(scanned, 5);
        // The rest of the period covers the remaining 5.
        clock.tick(500 * 10, 1000, |_| scanned += 1);
        assert_eq!(scanned, 10);
    }

    #[test]
    fn overshoot_capped_at_one_sweep() {
        // Advancing 3 periods' worth of time in one tick must still scan each
        // cell at most once before the period is closed.
        let mut clock = ClockPointer::new(6);
        let mut counts = vec![0u32; 6];
        clock.tick(3_000 * 6, 1_000, |i| counts[i] += 1);
        assert!(counts.iter().all(|&c| c == 1), "{counts:?}");
    }

    #[test]
    fn full_sweep_touches_everything_once() {
        let clock = ClockPointer::new(9);
        let mut counts = [0u32; 9];
        clock.full_sweep(|i| counts[i] += 1);
        assert!(counts.iter().all(|&c| c == 1));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = ClockPointer::new(0);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_rejected_in_every_profile() {
        // A period of zero records/time units has no step size; the check is
        // a hard assert (not debug_assert), so release builds panic too.
        let mut clock = ClockPointer::new(4);
        clock.tick(4, 0, |_| {});
    }

    #[test]
    fn saturating_accumulator_survives_huge_time_jumps() {
        // A corrupted or far-future timestamp produces Δt·m near u64::MAX.
        // The accumulator must saturate (not wrap) and the sweep must still
        // be capped at once per cell.
        let mut clock = ClockPointer::new(8);
        let mut counts = vec![0u32; 8];
        clock.tick(u64::MAX, 1_000, |i| counts[i] += 1);
        clock.tick(u64::MAX, 1_000, |i| counts[i] += 1);
        assert!(counts.iter().all(|&c| c == 1), "{counts:?}");
        // The pointer is parked where the cap left it; closing the period
        // resets cleanly and the next period scans exactly once again.
        clock.finish_period(|i| counts[i] += 1);
        let mut second = vec![0u32; 8];
        for _ in 0..16 {
            clock.tick(8, 16, |i| second[i] += 1);
        }
        clock.finish_period(|i| second[i] += 1);
        assert!(second.iter().all(|&c| c == 1), "{second:?}");
    }

    #[test]
    fn zero_record_period_closed_by_finish() {
        // A period can elapse with no records at all; finish_period alone
        // must still deliver the exactly-once sweep.
        let counts = drive(16, 10, 0);
        assert!(counts.iter().all(|&c| c == 1), "{counts:?}");
    }

    #[test]
    fn range_ticks_cover_the_same_slots_as_unit_ticks() {
        // The (start, len) runs must concatenate to exactly the slot
        // sequence the per-slot callback sees, for wrapping and
        // non-wrapping sweeps alike.
        for &(total, denom) in &[(8usize, 3u64), (5, 17), (16, 16), (7, 1)] {
            let mut by_slot = ClockPointer::new(total);
            let mut by_range = ClockPointer::new(total);
            for step in [1u64, 2, 5, 0, 40, 3, 100, 7] {
                let mut slots = Vec::new();
                let mut ranged = Vec::new();
                by_slot.tick(step, denom, |i| slots.push(i));
                by_range.tick_ranges(step, denom, |start, len| {
                    ranged.extend(start..start + len);
                });
                assert_eq!(slots, ranged, "total={total} denom={denom} step={step}");
                assert_eq!(by_slot, by_range, "pointer state diverged");
            }
            let mut slots = Vec::new();
            let mut ranged = Vec::new();
            by_slot.finish_period(|i| slots.push(i));
            by_range.finish_period_ranges(|start, len| ranged.extend(start..start + len));
            assert_eq!(slots, ranged);
            assert_eq!(by_slot, by_range);
        }
    }

    #[test]
    fn full_sweep_ranges_emit_at_most_two_runs() {
        let mut clock = ClockPointer::new(10);
        clock.tick(10 * 3, 10, |_| {}); // park the pointer mid-table
        assert_eq!(clock.position(), 3);
        let mut runs = Vec::new();
        clock.full_sweep_ranges(|start, len| runs.push((start, len)));
        assert_eq!(runs, vec![(3, 7), (0, 3)]);
        let covered: Vec<usize> = runs.iter().flat_map(|&(s, l)| s..s + l).collect();
        let mut sorted = covered.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>(), "each slot once");
    }

    #[test]
    fn division_stepping_matches_unit_stepping() {
        // The batched (division-based) tick must leave identical state to
        // the one-unit-at-a-time Bresenham reference for any tick split.
        fn reference_tick(
            acc: &mut u64,
            pos: &mut usize,
            scanned: &mut u64,
            total: usize,
            numerator: u64,
            denominator: u64,
            scans: &mut Vec<usize>,
        ) {
            *acc += numerator;
            while *acc >= denominator {
                *acc -= denominator;
                if *scanned < total as u64 {
                    scans.push(*pos);
                    *pos = (*pos + 1) % total;
                    *scanned += 1;
                } else {
                    *acc = 0;
                    break;
                }
            }
        }

        for &(total, denom) in &[(8usize, 3u64), (5, 17), (16, 16), (7, 1)] {
            let mut clock = ClockPointer::new(total);
            let (mut acc, mut pos, mut scanned) = (0u64, 0usize, 0u64);
            let mut got = Vec::new();
            let mut want = Vec::new();
            // A mix of small and large numerators, including period overshoot.
            for step in [1u64, 2, 5, 0, 40, 3, 100, 7] {
                clock.tick(step, denom, |i| got.push(i));
                reference_tick(
                    &mut acc,
                    &mut pos,
                    &mut scanned,
                    total,
                    step,
                    denom,
                    &mut want,
                );
                assert_eq!(got, want, "total={total} denom={denom}");
                assert_eq!(clock.position(), pos);
                assert_eq!(clock.scanned_this_period(), scanned);
            }
        }
    }
}
