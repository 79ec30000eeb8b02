//! Seeded input generation and order statistics.

/// splitmix64: small, seedable and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_B0A7_D15C_0FFE)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `n` log-uniform integers in `[lo, hi]`, one from each of `n`
    /// equal-probability strata, in seeded order: every seed draws the
    /// same sizes in a different order, so totals (and the memory and
    /// work they cost) do not change from seed to seed.
    pub fn stratified_log_uniform(&mut self, n: usize, lo: u64, hi: u64) -> Vec<u64> {
        let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
        let mut v: Vec<u64> = (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                ((l + u * (h - l)).exp().round() as u64).clamp(lo, hi)
            })
            .collect();
        self.shuffle(&mut v);
        v
    }

    /// `n` pseudo-random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(n);
        out
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank quantile of unsorted samples.
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    quantile_sorted(&v, q)
}

/// Arithmetic mean (0 when empty).
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64
}

/// First quartile, median and third quartile, interpolated the way
/// Python's `statistics.quantiles(values, n=4)` does (exclusive
/// method); a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let n = v.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        _ => {
            let at = |j: usize| {
                // Position j*(n+1)/4 with 1-based ranks, linearly
                // interpolated and clamped to the sample range.
                let pos = (j * (n + 1)) as f64 / 4.0;
                let lo = (pos.floor() as usize).clamp(1, n);
                let hi = (lo + 1).min(n);
                let frac = (pos - lo as f64).clamp(0.0, 1.0);
                v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
            };
            (at(1), at(2), at(3))
        }
    }
}

/// Interquartile mean: the mean of the values left after dropping the
/// lowest and the highest quarter (all of them when fewer than four).
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are finite"));
    let k = v.len() / 4;
    let mid = &v[k..v.len() - k];
    mid.iter().sum::<f64>() / mid.len().max(1) as f64
}

/// Median of a non-empty set of values.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}
