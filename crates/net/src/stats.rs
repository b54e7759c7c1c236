//! Counters and latency aggregation for the microbenchmarks (paper §4
//! reports average request latency; we also report percentiles).

use crate::SimDuration;

/// Kernel-level datagram counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetStats {
    /// Datagrams handed to the kernel for delivery.
    pub datagrams_sent: u64,
    /// Datagrams that reached a bound service.
    pub datagrams_delivered: u64,
    /// Datagrams dropped by lossy or blackholed links.
    pub datagrams_lost: u64,
    /// Datagrams addressed to ports nothing is bound on.
    pub datagrams_unreachable: u64,
    /// Payload bytes handed to the kernel.
    pub bytes_sent: u64,
    /// Payload bytes that reached a bound service.
    pub bytes_delivered: u64,
}

impl NetStats {
    pub(crate) fn sent(&mut self, bytes: usize) {
        self.datagrams_sent += 1;
        self.bytes_sent += bytes as u64;
    }

    pub(crate) fn delivered(&mut self, bytes: usize) {
        self.datagrams_delivered += 1;
        self.bytes_delivered += bytes as u64;
    }

    pub(crate) fn lost(&mut self, _bytes: usize) {
        self.datagrams_lost += 1;
    }

    pub(crate) fn unreachable(&mut self, _bytes: usize) {
        self.datagrams_unreachable += 1;
    }

    /// Delivered / sent, in `[0, 1]`; 1.0 when nothing was sent.
    pub fn delivery_rate(&self) -> f64 {
        if self.datagrams_sent == 0 {
            1.0
        } else {
            self.datagrams_delivered as f64 / self.datagrams_sent as f64
        }
    }
}

/// A log-bucketed latency histogram: ~4% relative resolution over
/// 1 ns ..= ~584 years, constant memory, O(1) record.
///
/// Buckets are (power-of-two range) × 16 linear sub-buckets, the classic
/// HDR-style layout.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// Per-bucket sample counts; empty until the first sample arrives, so
    /// a histogram nothing is ever recorded in costs no bucket memory.
    counts: Vec<u64>,
    total: u64,
    sum_nanos: u128,
    min_nanos: u64,
    max_nanos: u64,
}

const SUB_BUCKETS: u64 = 16;
const SUB_BITS: u32 = 4;
/// 64 exponents × 16 sub-buckets is enough to never saturate u64.
const BUCKETS: usize = (64 * SUB_BUCKETS) as usize;

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub const fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: Vec::new(),
            total: 0,
            sum_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
        }
    }

    fn index(nanos: u64) -> usize {
        if nanos < SUB_BUCKETS {
            return nanos as usize;
        }
        let exp = 63 - nanos.leading_zeros();
        let shift = exp - SUB_BITS;
        let sub = (nanos >> shift) & (SUB_BUCKETS - 1);
        (((exp - SUB_BITS + 1) as u64 * SUB_BUCKETS) + sub) as usize
    }

    /// Lower bound of bucket `i` (used to reconstruct quantiles).
    fn bucket_floor(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB_BUCKETS {
            return i;
        }
        let exp = (i / SUB_BUCKETS - 1) + SUB_BITS as u64;
        let sub = i % SUB_BUCKETS;
        (SUB_BUCKETS + sub) << (exp - SUB_BITS as u64)
    }

    /// The bucket counts, allocated on first use.
    fn counts_mut(&mut self) -> &mut [u64] {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        &mut self.counts
    }

    /// Record one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        let n = d.as_nanos();
        self.counts_mut()[Self::index(n)] += 1;
        self.total += 1;
        self.sum_nanos += n as u128;
        self.min_nanos = self.min_nanos.min(n);
        self.max_nanos = self.max_nanos.max(n);
    }

    /// Fold another histogram's samples into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.is_empty() {
            return;
        }
        for (a, b) in self.counts_mut().iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_nanos += other.sum_nanos;
        self.min_nanos = self.min_nanos.min(other.min_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Arithmetic mean of all samples (zero when empty).
    pub fn mean(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_nanos / self.total as u128) as u64)
        }
    }

    /// Smallest sample (exact, zero when empty).
    pub fn min(&self) -> SimDuration {
        if self.total == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_nanos)
        }
    }

    /// Largest sample (exact, zero when empty).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_nanos)
    }

    /// Quantile in `[0, 1]`; returns the lower bound of the containing
    /// bucket (exact min/max are tracked separately).
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.total == 0 {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return SimDuration::from_nanos(Self::bucket_floor(i).max(self.min_nanos).min(self.max_nanos));
            }
        }
        self.max()
    }

    /// Median latency (see [`LatencyHistogram::quantile`]).
    pub fn p50(&self) -> SimDuration {
        self.quantile(0.50)
    }

    /// 99th-percentile latency (see [`LatencyHistogram::quantile`]).
    pub fn p99(&self) -> SimDuration {
        self.quantile(0.99)
    }

    /// One-line summary used by the bench harness tables.
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={} p50={} p99={} max={}",
            self.total,
            self.mean(),
            self.p50(),
            self.p99(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.quantile(0.5), SimDuration::ZERO);
    }

    #[test]
    fn exact_small_values() {
        let mut h = LatencyHistogram::new();
        for n in 0..16u64 {
            h.record(SimDuration::from_nanos(n));
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::from_nanos(15));
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_millis(10));
        h.record(SimDuration::from_millis(20));
        h.record(SimDuration::from_millis(30));
        assert_eq!(h.mean().as_millis(), 20);
    }

    #[test]
    fn quantiles_within_resolution() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_micros(i));
        }
        let p50 = h.p50().as_micros() as f64;
        assert!((p50 - 500.0).abs() / 500.0 < 0.10, "p50 was {p50}us");
        let p99 = h.p99().as_micros() as f64;
        assert!((p99 - 990.0).abs() / 990.0 < 0.10, "p99 was {p99}us");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(SimDuration::from_millis(1));
        b.record(SimDuration::from_millis(3));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean().as_millis(), 2);
        assert_eq!(a.max().as_millis(), 3);
    }

    #[test]
    fn merge_into_and_from_empty_histograms() {
        let summary =
            |h: &LatencyHistogram| (h.count(), h.mean(), h.min(), h.max(), h.p50(), h.p99());
        let mut full = LatencyHistogram::new();
        full.record(SimDuration::from_millis(2));
        full.record(SimDuration::from_millis(5));
        let before = summary(&full);
        full.merge(&LatencyHistogram::new());
        assert_eq!(summary(&full), before, "merging an empty histogram changes nothing");
        let mut into = LatencyHistogram::new();
        into.merge(&full);
        assert_eq!(summary(&into), before, "merging into an empty histogram copies it");
        let mut both = LatencyHistogram::new();
        both.merge(&LatencyHistogram::new());
        assert_eq!(summary(&both), summary(&LatencyHistogram::new()));
        assert_eq!(both.counts.capacity(), 0, "empty merges allocate no buckets");
    }

    #[test]
    fn bucket_floor_is_monotone_and_consistent() {
        let mut prev = 0;
        for i in 0..200 {
            let f = LatencyHistogram::bucket_floor(i);
            assert!(f >= prev, "floor not monotone at {i}");
            prev = f;
            // the floor of a bucket indexes back into the same bucket
            assert_eq!(LatencyHistogram::index(f), i, "floor/index mismatch at {i}");
        }
    }

    #[test]
    fn delivery_rate() {
        let mut s = NetStats::default();
        assert_eq!(s.delivery_rate(), 1.0);
        s.sent(10);
        s.sent(10);
        s.delivered(10);
        assert_eq!(s.delivery_rate(), 0.5);
    }
}
