//! Host speed: a fixed reference workload timed beside the measured one.
//!
//! The reference host (two vCPUs of a shared Xeon) runs the same code at
//! speeds that wander by up to 2× from one minute to the next. Steal
//! time explains little of it (most slow periods showed none, and thread
//! CPU time moved with wall time): other tenants slow the cores
//! themselves. Set against a 0.25 regression bound, ten
//! runs spread over a few minutes then disagree more than any change
//! the benchmark should catch. So the benchmark times a fixed piece of
//! its own code, [`reference_ms`], interleaved with the measured work,
//! and reports the measured time scaled to the reference speed:
//! `t × REFERENCE_MS / mean reference time`. A program change moves the
//! measured time and leaves the reference alone; a host slowdown moves
//! both. The raw host times stay in the context line.
//!
//! The kernel is part of the benchmark's definition — integer mixing
//! plus ordered-map churn with small allocations, a footprint of a few
//! hundred KB so it barely disturbs the caches of the work around it —
//! and must not change, or every scaled value changes with it.

use std::collections::BTreeMap;
use std::time::Instant;

use codec::rng::SplitMix64;

/// Mean [`reference_ms`] on the reference host in a fast period, ms:
/// the speed scaled values are expressed at.
pub const REFERENCE_MS: f64 = 1.0;
/// Integer-mixing steps of one reference sample.
const MIX_STEPS: u64 = 600_000;
/// Map operations of one reference sample, and the key range they hit.
const CHURN_OPS: u64 = 4_000;
const CHURN_KEYS: u64 = 1_024;

/// One reference sample: host time of the fixed kernel, ms.
pub fn reference_ms() -> f64 {
    let t0 = Instant::now();
    let mut mix = SplitMix64::new(0x5EED);
    let mut acc = 0u64;
    for _ in 0..MIX_STEPS {
        acc ^= std::hint::black_box(mix.next_u64());
    }
    let mut map = BTreeMap::new();
    for k in 0..CHURN_OPS {
        let key = mix.next_u64() % CHURN_KEYS;
        map.insert(key, vec![k as u8; (key % 64) as usize + 8]);
        if k % 3 == 0 {
            map.remove(&(mix.next_u64() % CHURN_KEYS));
        }
    }
    std::hint::black_box((acc, map.len()));
    t0.elapsed().as_secs_f64() * 1e3
}

/// Reference samples taken while some work ran. The mean, not the
/// median, is the right reading: a run slowed for a share of its time
/// is slowed by that share on average, and so is the mean sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostSpeed {
    total_ms: f64,
    samples: u32,
}

impl HostSpeed {
    /// Takes `n` reference samples.
    pub fn sample(&mut self, n: u32) {
        for _ in 0..n {
            self.total_ms += reference_ms();
            self.samples += 1;
        }
    }

    /// Samples taken so far.
    pub fn samples(&self) -> u32 {
        self.samples
    }

    /// Mean reference time, ms; `None` before the first sample.
    pub fn mean_ms(&self) -> Option<f64> {
        (self.samples > 0).then(|| self.total_ms / f64::from(self.samples))
    }

    /// `t` (any time unit) scaled to the reference speed. Unsampled, the
    /// time is returned unscaled.
    pub fn scale(&self, t: f64) -> f64 {
        self.mean_ms().map_or(t, |m| t * REFERENCE_MS / m)
    }

    /// Folds `other`'s samples into these.
    pub fn merge(&mut self, other: &HostSpeed) {
        self.total_ms += other.total_ms;
        self.samples += other.samples;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_the_mean_sample() {
        let mut h = HostSpeed::default();
        assert_eq!(h.scale(3.0), 3.0);
        assert_eq!(h.mean_ms(), None);
        h.total_ms = 4.0 * REFERENCE_MS;
        h.samples = 2;
        assert_eq!(h.scale(3.0), 1.5);
        let mut other = HostSpeed::default();
        other.sample(2);
        assert_eq!(other.samples(), 2);
        assert!(other.mean_ms().is_some_and(|m| m > 0.0));
        h.merge(&other);
        assert_eq!(h.samples(), 4);
    }
}
