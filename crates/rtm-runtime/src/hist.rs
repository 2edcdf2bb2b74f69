//! Allocation-free log-bucketed histograms for hot-path distribution data.
//!
//! Every other signal the runtime exports is a counter or an EWMA, which
//! hide tails: a site whose *mean* retry count is 1.2 can still have a p99
//! of 40 retries — the classic write-starvation failure mode. [`Hist32`]
//! captures the distribution at the cost the paper's "lightweight" ethos
//! allows: 32 power-of-two buckets plus an exact sum and count, plain
//! `u64` arrays, no allocation after construction, and purely additive
//! merge semantics so per-thread histograms ride the same delta pipeline
//! as every other metric (thread delta → profile absorb → epoch delta →
//! fleet merge).
//!
//! Bucket math: value `v` lands in bucket `floor(log2(v))` (clamped to
//! bucket 0 for `v <= 1` and bucket 31 for `v >= 2^31`), so bucket `i`
//! covers the closed range `[2^i, 2^(i+1) - 1]` and its inclusive upper
//! bound is `2^(i+1) - 1`. Percentiles derived from the buckets therefore
//! report that upper bound — "p99 <= 7 retries" — an estimate that is
//! exact for the bucket boundary and never understates the tail (except
//! in the final catch-all bucket, which is unbounded above).

use txsim_pmu::Ip;

use obs::Counter;

use crate::slots::SiteSlots;

/// Number of power-of-two buckets in a [`Hist32`].
pub const HIST_BUCKETS: usize = 32;

/// Per-site histogram slots a [`HistTable`] holds (thread-private; records
/// at sites beyond the capacity are counted in [`HistTable::overflowed`]).
pub const HIST_SITE_CAPACITY: usize = 64;

/// A fixed-size log-bucketed histogram: 32 power-of-two buckets plus the
/// exact sum and count of recorded values. All fields are monotone `u64`s,
/// so two histograms merge by plain addition and a delta is a saturating
/// per-field subtraction — the same contract every other profile metric
/// follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Hist32 {
    /// Bucket `i` counts values in `[2^i, 2^(i+1) - 1]` (bucket 0 also
    /// takes 0; bucket 31 takes everything from `2^31` up).
    pub buckets: [u64; HIST_BUCKETS],
    /// Exact sum of all recorded values.
    pub sum: u64,
    /// Number of recorded values (equals the bucket total).
    pub count: u64,
}

impl Hist32 {
    /// The bucket a value lands in: `floor(log2(v))`, clamped to `[0, 31]`.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            ((63 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound of bucket `i` (`2^(i+1) - 1`). The final
    /// bucket is a catch-all; its nominal bound is `2^32 - 1`.
    #[inline]
    pub fn bucket_le(i: usize) -> u64 {
        (2u64 << i.min(HIST_BUCKETS - 1)) - 1
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Whether nothing was ever recorded (all fields zero).
    pub fn is_zero(&self) -> bool {
        self.count == 0 && self.sum == 0 && self.buckets.iter().all(|&b| b == 0)
    }

    /// Additive merge (the delta-pipeline contract).
    pub fn merge(&mut self, other: &Hist32) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Saturating per-field difference `self - other` (for epoch windows
    /// and diffs of cumulative histograms).
    pub fn minus(&self, other: &Hist32) -> Hist32 {
        let mut out = Hist32::default();
        for (i, o) in out.buckets.iter_mut().enumerate() {
            *o = self.buckets[i].saturating_sub(other.buckets[i]);
        }
        out.sum = self.sum.saturating_sub(other.sum);
        out.count = self.count.saturating_sub(other.count);
        out
    }

    /// Index of the bucket containing the `q`-quantile (`0.0 < q <= 1.0`):
    /// the first bucket at which the cumulative count reaches
    /// `ceil(q * count)`. `None` when the histogram is empty.
    pub fn percentile_bucket(&self, q: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return Some(i);
            }
        }
        Some(HIST_BUCKETS - 1)
    }

    /// The `q`-quantile as a value estimate: the inclusive upper bound of
    /// the bucket holding the quantile. `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        self.percentile_bucket(q).map(Self::bucket_le)
    }

    /// Upper-bound estimate of the maximum recorded value (the bound of
    /// the highest non-empty bucket). `None` when empty.
    pub fn max_value(&self) -> Option<u64> {
        self.buckets
            .iter()
            .rposition(|&b| b > 0)
            .map(Self::bucket_le)
    }
}

/// The three per-site distributions the runtime records at transaction
/// completion: committed critical-section duration, retry depth, and
/// fallback dwell time. One struct so the delta pipeline moves them as a
/// unit keyed by site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiteHists {
    /// Total critical-section duration in cycles, recorded once per
    /// completed section (HTM commit or fallback completion).
    pub tx_cycles: Hist32,
    /// Retry depth at completion: HTM attempts plus one if the fallback
    /// path ran. A healthy site sits at 1; a starved site's tail stretches.
    pub retry_depth: Hist32,
    /// Cycles spent inside the fallback path, recorded only for sections
    /// that fell back (`fb_dwell.count` is the fallback completion count).
    pub fb_dwell: Hist32,
}

impl SiteHists {
    /// Whether all three histograms are empty.
    pub fn is_zero(&self) -> bool {
        self.tx_cycles.is_zero() && self.retry_depth.is_zero() && self.fb_dwell.is_zero()
    }

    /// Additive merge of all three histograms.
    pub fn merge(&mut self, other: &SiteHists) {
        self.tx_cycles.merge(&other.tx_cycles);
        self.retry_depth.merge(&other.retry_depth);
        self.fb_dwell.merge(&other.fb_dwell);
    }

    /// Saturating difference of all three histograms.
    pub fn minus(&self, other: &SiteHists) -> SiteHists {
        SiteHists {
            tx_cycles: self.tx_cycles.minus(&other.tx_cycles),
            retry_depth: self.retry_depth.minus(&other.retry_depth),
            fb_dwell: self.fb_dwell.minus(&other.fb_dwell),
        }
    }

    /// Record one completed critical section.
    pub fn record_completion(&mut self, duration: u64, attempts: u32, fb_dwell: Option<u64>) {
        self.tx_cycles.record(duration);
        self.retry_depth.record(attempts as u64);
        if let Some(dwell) = fb_dwell {
            self.fb_dwell.record(dwell);
        }
    }
}

/// Thread-private per-site histogram table: fixed capacity, open-addressed,
/// no allocation after construction, no shared-cacheline writes on the
/// record path. The detached variant has zero capacity, so every hook in
/// the runtime's hot loop costs exactly one branch when histogram
/// collection is off — the same zero-cost-when-unused contract the
/// adaptive [`crate::SiteTable`] established.
pub struct HistTable {
    slots: SiteSlots<SiteHists>,
}

impl HistTable {
    /// A live table with [`HIST_SITE_CAPACITY`] slots.
    pub fn new() -> HistTable {
        HistTable {
            slots: SiteSlots::new(HIST_SITE_CAPACITY),
        }
    }

    /// The zero-capacity table handed out when histogram collection is
    /// detached: `record` returns after one branch.
    pub fn detached() -> HistTable {
        HistTable {
            slots: SiteSlots::detached(),
        }
    }

    /// Whether this table records anything at all.
    pub fn is_enabled(&self) -> bool {
        !self.slots.is_detached()
    }

    /// Records dropped because the full table could not seat their site.
    /// A workload with more than [`HIST_SITE_CAPACITY`] distinct
    /// transaction sites loses distribution data for the overflow sites
    /// only.
    pub fn overflowed(&self) -> u64 {
        self.slots.overflowed()
    }

    /// Record one completed critical section at `site`. No-op (one branch)
    /// when detached; dropped and counted when the table is full.
    #[inline]
    pub fn record(&mut self, site: Ip, duration: u64, attempts: u32, fb_dwell: Option<u64>) {
        if let Some(hists) = self.slots.seat(site, SiteHists::default) {
            hists.record_completion(duration, attempts, fb_dwell);
            obs::count(Counter::RtmHistStores);
        }
    }

    /// Drain the recorded histograms: returns every non-empty site's
    /// [`SiteHists`] and zeroes the table's contents.
    pub fn take_delta(&mut self) -> Vec<(Ip, SiteHists)> {
        self.slots
            .drain(|site, h| (!h.is_zero()).then(|| (site, std::mem::take(h))))
    }
}

impl Default for HistTable {
    fn default() -> Self {
        HistTable::detached()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txsim_pmu::FuncId;

    #[test]
    fn bucket_index_is_floor_log2_clamped() {
        assert_eq!(Hist32::bucket_index(0), 0);
        assert_eq!(Hist32::bucket_index(1), 0);
        assert_eq!(Hist32::bucket_index(2), 1);
        assert_eq!(Hist32::bucket_index(3), 1);
        assert_eq!(Hist32::bucket_index(4), 2);
        assert_eq!(Hist32::bucket_index(7), 2);
        assert_eq!(Hist32::bucket_index(8), 3);
        assert_eq!(Hist32::bucket_index(1 << 30), 30);
        assert_eq!(Hist32::bucket_index((1 << 31) - 1), 30);
        assert_eq!(Hist32::bucket_index(1 << 31), 31);
        assert_eq!(Hist32::bucket_index(u64::MAX), 31);
    }

    #[test]
    fn bucket_bounds_cover_their_ranges() {
        for i in 0..HIST_BUCKETS - 1 {
            let le = Hist32::bucket_le(i);
            assert_eq!(Hist32::bucket_index(le), i, "upper bound of bucket {i}");
            assert_eq!(Hist32::bucket_index(le + 1), i + 1);
        }
        assert_eq!(Hist32::bucket_le(0), 1);
        assert_eq!(Hist32::bucket_le(1), 3);
        assert_eq!(Hist32::bucket_le(31), (1u64 << 32) - 1);
    }

    #[test]
    fn record_merge_minus_are_consistent() {
        let mut a = Hist32::default();
        for v in [1, 2, 3, 100, 5000] {
            a.record(v);
        }
        assert_eq!(a.count, 5);
        assert_eq!(a.sum, 5106);
        let mut b = Hist32::default();
        b.record(7);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count, 6);
        assert_eq!(merged.sum, 5113);
        // merged - b == a, field for field.
        assert_eq!(merged.minus(&b), a);
        assert!(Hist32::default().is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn percentiles_report_bucket_upper_bounds() {
        let mut h = Hist32::default();
        // 98 fast completions, 2 in the tail.
        for _ in 0..98 {
            h.record(1);
        }
        h.record(40);
        h.record(45);
        assert_eq!(h.percentile(0.50), Some(1));
        assert_eq!(h.percentile(0.90), Some(1));
        // p99 → 99th of 100 values → the 40 → bucket [32,63].
        assert_eq!(h.percentile(0.99), Some(63));
        assert_eq!(h.max_value(), Some(63));
        assert_eq!(h.percentile_bucket(0.99), Some(5));
        assert_eq!(Hist32::default().percentile(0.99), None);
        assert_eq!(Hist32::default().max_value(), None);
    }

    #[test]
    fn site_hists_record_completion_routes_fields() {
        let mut s = SiteHists::default();
        s.record_completion(1000, 1, None);
        s.record_completion(9000, 7, Some(4000));
        assert_eq!(s.tx_cycles.count, 2);
        assert_eq!(s.retry_depth.count, 2);
        assert_eq!(s.retry_depth.sum, 8);
        assert_eq!(s.fb_dwell.count, 1, "dwell only for fallback completions");
        assert_eq!(s.fb_dwell.sum, 4000);
    }

    #[test]
    fn detached_table_records_nothing() {
        let mut t = HistTable::detached();
        assert!(!t.is_enabled());
        t.record(Ip::new(FuncId(1), 2), 100, 1, None);
        assert!(t.take_delta().is_empty());
    }

    #[test]
    fn table_accumulates_per_site_and_drains() {
        let mut t = HistTable::new();
        assert!(t.is_enabled());
        let a = Ip::new(FuncId(1), 10);
        let b = Ip::new(FuncId(2), 20);
        t.record(a, 100, 1, None);
        t.record(a, 200, 3, Some(50));
        t.record(b, 300, 1, None);
        let mut delta = t.take_delta();
        delta.sort_by_key(|(site, _)| (site.func.0, site.line));
        assert_eq!(delta.len(), 2);
        assert_eq!(delta[0].0, a);
        assert_eq!(delta[0].1.tx_cycles.count, 2);
        assert_eq!(delta[0].1.fb_dwell.count, 1);
        assert_eq!(delta[1].0, b);
        assert_eq!(delta[1].1.tx_cycles.count, 1);
        // Drained: a second take is empty until new records arrive.
        assert!(t.take_delta().is_empty());
        t.record(a, 400, 2, None);
        assert_eq!(t.take_delta().len(), 1);
    }

    #[test]
    fn table_overflow_is_counted_and_seated_sites_stay_intact() {
        let mut t = HistTable::new();
        for i in 0..(HIST_SITE_CAPACITY as u32 + 1) {
            t.record(Ip::new(FuncId(i), 1), 10 + u64::from(i), 1, None);
        }
        assert_eq!(t.overflowed(), 1);
        let delta = t.take_delta();
        assert_eq!(delta.len(), HIST_SITE_CAPACITY, "capacity bounds the table");
        for i in 0..HIST_SITE_CAPACITY as u32 {
            let (_, h) = delta
                .iter()
                .find(|(site, _)| *site == Ip::new(FuncId(i), 1))
                .expect("the first capacity sites are seated");
            assert_eq!((h.tx_cycles.count, h.tx_cycles.sum), (1, 10 + u64::from(i)));
        }
    }
}
