//! Log-linear latency histogram: values below 128 are exact, above that every
//! power-of-two range is cut into 128 equal buckets, so a bucket is never
//! wider than 1/128 (0.78%) of its lower bound. Fixed size (58 KiB), so all of
//! them are allocated before set-up and `rss_peak_mb` measures the program.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

#[derive(Debug, Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    total: u64,
}

fn index(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let sub = (value >> (exp - SUB_BITS)) as usize & (SUB - 1);
    (exp - SUB_BITS + 1) as usize * SUB + sub
}

/// Lower bound and width of bucket `index`.
fn bounds(index: usize) -> (u64, u64) {
    if index < SUB {
        return (index as u64, 1);
    }
    let shift = (index / SUB - 1) as u32;
    (((SUB + index % SUB) as u64) << shift, 1 << shift)
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[index(value)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The value at quantile `q`, interpolated linearly inside its bucket (a
    /// bucket bound alone would repeat exactly from run to run). `0.0` when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            if count > 0 && (seen + count) as f64 >= rank {
                let (low, width) = bounds(i);
                return low as f64 + width as f64 * (rank - seen as f64) / count as f64;
            }
            seen += count;
        }
        unreachable!(
            "rank {rank} lies within the {} recorded samples",
            self.total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    #[test]
    fn buckets_tile_the_value_range_and_stay_under_one_percent_wide() {
        let mut next = 0u64;
        for i in 0..BUCKETS - 1 {
            let (low, width) = bounds(i);
            assert_eq!(low, next, "bucket {i} starts where the previous one ends");
            assert_eq!(index(low), i);
            assert_eq!(index(low + width - 1), i);
            assert!(width == 1 || (width as f64) < 0.01 * low as f64);
            next = low + width;
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_within_one_percent_of_a_sorted_vector() {
        let mut rng = Rng::new(11);
        let mut hist = Hist::new();
        // Latency-shaped: a log-uniform body from 100 ns to ~100 µs plus a
        // sparse tail into milliseconds.
        let mut values: Vec<u64> = (0..200_000)
            .map(|i| {
                let octaves = if i % 100 == 0 { 15.0 } else { 10.0 };
                (100.0 * (rng.unit() * octaves).exp2()) as u64
            })
            .collect();
        for &v in &values {
            hist.record(v);
        }
        values.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let exact = values[((q * values.len() as f64).ceil() as usize).max(1) - 1] as f64;
            let got = hist.quantile(q);
            assert!((got / exact - 1.0).abs() <= 0.01, "q={q}: {got} vs {exact}");
        }
        let mut merged = Hist::new();
        merged.merge(&hist);
        merged.merge(&hist);
        assert_eq!(merged.count(), 2 * hist.count());
        assert_eq!(merged.quantile(0.5), hist.quantile(0.5));
        hist.reset();
        assert_eq!(hist.quantile(0.5), 0.0);
    }
}
