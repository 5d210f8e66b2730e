//! Host-speed calibration.
//!
//! The reference host is a 2-vCPU guest that changes speed under the
//! benchmark: with no steal reported, identical `nemesis_detect` campaigns
//! took 21 ms, a quarter of an hour later 15 ms; ten runs that straddled
//! such a change spread by 25–35 % on every wall-clock metric, beyond any
//! bound the driver accepts. A pure ALU loop stayed within ±0.7 % across
//! those regimes while a pointer chase over 4 MB moved by ±30 % — what
//! changes is the memory system the guest shares with its neighbours, not
//! the clock.
//!
//! So every timed region is paired with samples of a small fixed kernel
//! that lives on the same things the engine lives on — ordered-map inserts,
//! small heap blocks, byte fills — and times are reported scaled to the
//! kernel's [`REFERENCE_S`]: *seconds as the reference host counts them in
//! its slower regime*. Over a quarter of an hour of back-to-back 6-second
//! runs that included such a change, raw `rounds_per_s` ranged over 31 % of
//! its median on `nemesis_detect`, 34 % on `internet1k_sweep`, 24 % on
//! `gossip16_sweep` and 14 % on `demo27_sweep`; scaled, over 11 %, 11 %,
//! 15 % and 9 %. The kernel does not track the engine perfectly — that
//! residual is why the timing bounds are as wide as they are — but it never
//! made a spread worse. Raw (unscaled) values stay in every record's
//! `details.raw`.
//!
//! The kernel is the benchmark's own code on purpose: it must not get
//! faster when the engine does.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What one kernel pass takes in `dice-benchmark` on the reference host in
/// the regime where a `nemesis_detect` campaign takes about 20 ms.
pub const REFERENCE_S: f64 = 0.55e-3;

/// One pass of the calibration kernel: 3000 ordered-map inserts of small
/// heap blocks keyed by an xorshift stream, then one in-order walk.
pub fn kernel() -> u64 {
    let mut map = BTreeMap::new();
    let mut x = black_box(88_172_645_463_325_252u64);
    for _ in 0..3000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x, vec![x as u8; (x % 48) as usize + 8]);
    }
    map.iter().fold(0u64, |sum, (key, block)| {
        sum.wrapping_add(*key).wrapping_add(block.len() as u64)
    })
}

/// Wall seconds of one kernel pass, now.
pub fn sample() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64()
}

/// Samples of kernel passes for at least `budget_s` seconds (and at least
/// one pass).
pub fn sample_for(budget_s: f64) -> Vec<f64> {
    let t = Instant::now();
    let mut samples = vec![sample()];
    while t.elapsed().as_secs_f64() < budget_s {
        samples.push(sample());
    }
    samples
}

/// How fast the host ran while `samples` were taken, relative to the
/// reference: 1.25 = a time measured meanwhile is worth 1.25× as much on
/// the reference host. `None` without samples.
pub fn speed(samples: &[f64]) -> Option<f64> {
    crate::stats::median(samples).map(|s| REFERENCE_S / s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_work() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn speed_is_reference_over_median_sample() {
        assert_eq!(speed(&[]), None);
        assert_eq!(speed(&[REFERENCE_S]), Some(1.0));
        // A host twice as fast halves the sample; one slow outlier (a
        // stolen tick) does not move the median.
        let fast = [REFERENCE_S / 2.0, REFERENCE_S / 2.0, REFERENCE_S * 9.0];
        assert_eq!(speed(&fast), Some(2.0));
    }

    #[test]
    fn sampling_respects_its_budget_and_takes_at_least_one() {
        assert_eq!(sample_for(0.0).len(), 1);
        let samples = sample_for(0.02);
        assert!(samples.len() > 1);
        assert!(samples.iter().all(|&s| s > 0.0));
    }
}
