//! The calibration kernel: a fixed piece of cache-resident, allocation-heavy
//! work (ordered-map churn) in the benchmark's own code, timed between
//! passes. The library never runs inside it, so a change to the library
//! cannot move it; what moves it is the machine's speed of the moment.
//!
//! On a shared host the speed of cache-resident code drifts with other
//! tenants' load. End-to-end times are reported at the kernel's nominal
//! speed: each pass's host times are scaled by `NOMINAL_S / k`, where `k`
//! is the median kernel time over the seconds around that pass.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Map operations per kernel run.
const OPS: u64 = 20_000;
/// Live entries the map is held at: a working set of roughly 1 MiB.
const LIVE: usize = 16_384;
/// The kernel time that scale factors are relative to: its median on the
/// machine the benchmark was defined on (a 2-vCPU VM).
pub const NOMINAL_S: f64 = 3.0e-3;
/// The kernel runs between passes at most this often, which keeps it
/// under about a sixth of a run.
const EVERY_S: f64 = 0.015;
/// A pass is scaled by the kernel samples taken within this many seconds
/// of its midpoint (and at least the `MIN_WINDOW` nearest).
const WINDOW_S: f64 = 1.5;
const MIN_WINDOW: usize = 3;

/// Runs the kernel once and returns its host time, seconds.
pub fn kernel() -> f64 {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x >> 40, i);
        if map.len() > LIVE {
            map.pop_first();
        }
    }
    black_box(map.len());
    start.elapsed().as_secs_f64()
}

/// Kernel samples taken through a run, each stamped with its run time.
pub struct Speed {
    origin: Instant,
    /// `(run time at the sample's midpoint, kernel seconds)`.
    samples: Vec<(f64, f64)>,
}

impl Speed {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Seconds since the run started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Times the kernel once.
    pub fn sample(&mut self) {
        let at = self.now();
        let k = kernel();
        self.samples.push((at + k / 2.0, k));
    }

    /// Times the kernel unless it ran less than `EVERY_S` ago.
    pub fn sample_if_due(&mut self) {
        let last = self.samples.last().map_or(f64::NEG_INFINITY, |s| s.0);
        if self.now() - last >= EVERY_S {
            self.sample();
        }
    }

    /// The factor that puts host time measured around run time `at` at
    /// the kernel's nominal speed.
    pub fn scale_at(&self, at: f64) -> f64 {
        let mut near: Vec<(f64, f64)> = self
            .samples
            .iter()
            .map(|&(t, k)| ((t - at).abs(), k))
            .collect();
        near.sort_by(|a, b| a.0.total_cmp(&b.0));
        let keep = near
            .iter()
            .take_while(|(d, _)| *d <= WINDOW_S)
            .count()
            .max(MIN_WINDOW);
        let mut window: Vec<f64> = near.iter().take(keep).map(|&(_, k)| k).collect();
        NOMINAL_S / median(&mut window)
    }

    /// The median kernel time of the run, seconds.
    pub fn median_s(&self) -> f64 {
        median(&mut self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_the_samples_near_a_pass() {
        let mut speed = Speed::new();
        speed.samples = vec![
            (0.0, 1e-3),
            (0.1, 1e-3),
            (0.2, 1e-3),
            (10.0, 6e-3),
            (10.1, 6e-3),
            (10.2, 6e-3),
        ];
        assert_eq!(speed.scale_at(0.1), NOMINAL_S / 1e-3);
        assert_eq!(speed.scale_at(10.1), NOMINAL_S / 6e-3);
        assert_eq!(speed.median_s(), 3.5e-3);
    }
}
