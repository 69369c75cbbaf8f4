//! Small numeric helpers: order statistics, seed derivation, output
//! digests, and the process's peak resident set.

/// The median of `values` (the mean of the middle two for an even count);
/// 0 for an empty slice. Sorts `values` in place.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation between closest
/// ranks; 0 for an empty slice. Sorts `values` in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when `den` is 0: the per-layer convention for a ratio
/// whose layer did no work in the workload.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Derives an independent stream seed from the benchmark seed (splitmix64
/// over `seed ^ salt`), so each stochastic input gets its own stream.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = (seed ^ salt).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 64-bit digest over a stream of words: the digest of a workload's
/// simulated outputs. Each word is folded in FNV-1a style (xor, multiply
/// by the FNV prime) followed by an xor-shift, one word at a time. Floats
/// enter by their bit patterns, so two digests match only when every
/// statistic is bit-identical.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0 = (self.0 ^ v).wrapping_mul(0x0100_0000_01B3);
        self.0 ^= self.0 >> 29;
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&mut [0.0, 10.0], 0.99), 9.9);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = Digest::new().f64(1.0).finish();
        let b = Digest::new()
            .f64(f64::from_bits(1.0f64.to_bits() + 1))
            .finish();
        assert_ne!(a, b);
        assert_eq!(a, Digest::new().f64(1.0).finish());
    }

    #[test]
    fn derived_seeds_differ_per_salt() {
        assert_ne!(derive_seed(1, 1), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 1), derive_seed(2, 1));
    }
}
