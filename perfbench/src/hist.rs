//! A fixed-size log-linear latency histogram.
//!
//! Storage is one array of counters whatever the run length: 128 linear
//! sub-buckets per power of two of nanoseconds, so a bucket is at most
//! 1/128 (0.8%) of its lower edge wide. Quantiles interpolate linearly
//! inside the bucket that holds the requested rank, so they keep all
//! their digits instead of snapping to bucket edges.

/// Sub-bucket bits: `2^SUB` linear buckets per power of two.
const SUB: u32 = 7;
/// Enough buckets for any `u64` nanosecond value.
const BUCKETS: usize = (64 - SUB as usize + 1) << SUB;

/// Log-linear histogram over nanosecond samples.
#[derive(Clone)]
pub struct LatencyHist {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist { counts: vec![0; BUCKETS].into_boxed_slice(), total: 0 }
    }
}

fn index(v: u64) -> usize {
    if v < (1 << SUB) {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB;
    let mantissa = (v >> shift) as usize;
    ((shift as usize + 1) << SUB) + (mantissa - (1 << SUB))
}

/// `(lower edge, width)` of bucket `idx`.
fn bucket(idx: usize) -> (u64, u64) {
    if idx < (1 << SUB) {
        return (idx as u64, 1);
    }
    let shift = (idx >> SUB) - 1;
    let mantissa = ((idx & ((1 << SUB) - 1)) + (1 << SUB)) as u64;
    (mantissa << shift, 1 << shift)
}

impl LatencyHist {
    /// Records one sample in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in nanoseconds (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= target {
                let (lo, width) = bucket(idx);
                let frac = ((target - below as f64) / c as f64).clamp(0.0, 1.0);
                return lo as f64 + frac * width as f64;
            }
            below += c;
        }
        let (lo, width) = bucket(BUCKETS - 1);
        (lo + width) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        let mut expect_lo = 0u64;
        for idx in 0..(40 << SUB) {
            let (lo, width) = bucket(idx);
            assert_eq!(lo, expect_lo, "bucket {idx}");
            assert_eq!(index(lo), idx);
            assert_eq!(index(lo + width - 1), idx);
            expect_lo = lo + width;
        }
    }

    #[test]
    fn quantiles_are_within_a_bucket_of_exact() {
        let mut h = LatencyHist::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        for q in [0.5, 0.99] {
            let exact = q * 1_000_000.0;
            let got = h.quantile_ns(q);
            assert!((got - exact).abs() / exact < 0.01, "q={q}: {got} vs {exact}");
        }
    }
}
