//! Link models: latency, jitter, loss and bandwidth.
//!
//! Channels in the simulator are reliable and in-order (the BGP transport is
//! TCP); link-level loss therefore surfaces as *retransmission delay* rather
//! than message loss, matching how TCP turns loss into latency.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// One-way propagation latency model for a link.
#[derive(Debug, Clone, PartialEq)]
#[allow(
    missing_docs,
    reason = "every variant is documented; its fields are the model's parameters"
)]
pub enum LatencyModel {
    /// Constant latency.
    Fixed(SimDuration),
    /// Heavy-tailed "Internet-like" latency: log-normal-ish around a median,
    /// never below `floor`. This is the model used for the paper's
    /// Internet-like conditions.
    LogNormal {
        median: SimDuration,
        sigma: f64,
        floor: SimDuration,
    },
}

impl LatencyModel {
    /// Draw a latency sample.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::LogNormal {
                median,
                sigma,
                floor,
            } => {
                let ns = rng.lognormalish(median.as_nanos() as f64, sigma);
                let ns = ns.max(floor.as_nanos() as f64).min(1e18);
                SimDuration::from_nanos(ns as u64)
            }
        }
    }

    /// The minimum latency this model can produce (used for FIFO scheduling
    /// sanity checks).
    pub fn floor(&self) -> SimDuration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::LogNormal { floor, .. } => floor,
        }
    }
}

/// Full parameter set for a (bidirectional) link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkParams {
    /// One-way propagation latency.
    pub latency: LatencyModel,
    /// Link bandwidth in bits per second; `None` = infinite (no
    /// serialization delay).
    pub bandwidth_bps: Option<u64>,
    /// Probability that a frame needs TCP retransmission; each retry adds
    /// roughly one RTT of delay. `0.0` disables.
    pub loss: f64,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            latency: LatencyModel::Fixed(SimDuration::from_millis(10)),
            bandwidth_bps: None,
            loss: 0.0,
        }
    }
}

impl LinkParams {
    /// A fixed-latency, lossless, infinite-bandwidth link.
    pub fn fixed(latency: SimDuration) -> Self {
        LinkParams {
            latency: LatencyModel::Fixed(latency),
            ..Default::default()
        }
    }

    /// An Internet-like wide-area link: log-normal latency around `median`,
    /// 100 Mbit/s, light loss.
    pub fn internet_like(median: SimDuration) -> Self {
        LinkParams {
            latency: LatencyModel::LogNormal {
                median,
                sigma: 0.25,
                floor: SimDuration::from_micros(500),
            },
            bandwidth_bps: Some(100_000_000),
            loss: 0.001,
        }
    }

    /// Total one-way delay for a frame of `bytes` bytes: serialization +
    /// propagation + (possibly) retransmission penalties.
    pub fn delay_for(&self, bytes: usize, rng: &mut SimRng) -> SimDuration {
        self.delay_and_retries_for(bytes, rng).0
    }

    /// Like [`LinkParams::delay_for`], also reporting how many TCP-style
    /// retransmissions the frame suffered (each costs ~1 RTT of delay; the
    /// simulator folds the count into its wire counters).
    pub fn delay_and_retries_for(&self, bytes: usize, rng: &mut SimRng) -> (SimDuration, u32) {
        let prop = self.latency.sample(rng);
        let ser = match self.bandwidth_bps {
            Some(bps) if bps > 0 => {
                SimDuration::from_nanos(((bytes as u128 * 8 * 1_000_000_000) / bps as u128) as u64)
            }
            _ => SimDuration::ZERO,
        };
        let mut total = prop + ser;
        let mut retries = 0u32;
        if self.loss > 0.0 {
            // Geometric number of retransmissions, each costing ~1 RTT.
            while retries < 8 && rng.chance(self.loss) {
                retries += 1;
            }
            if retries > 0 {
                let rtt = self.latency.floor().saturating_mul(2).max(prop);
                total = total + rtt.saturating_mul(retries as u64);
            }
        }
        (total, retries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_latency_is_fixed() {
        let mut rng = SimRng::seed_from_u64(1);
        let m = LatencyModel::Fixed(SimDuration::from_millis(5));
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_millis(5));
        }
    }

    #[test]
    fn lognormal_respects_floor() {
        let mut rng = SimRng::seed_from_u64(3);
        let floor = SimDuration::from_millis(1);
        let m = LatencyModel::LogNormal {
            median: SimDuration::from_millis(20),
            sigma: 1.0,
            floor,
        };
        for _ in 0..1000 {
            assert!(m.sample(&mut rng) >= floor);
        }
    }

    #[test]
    fn lognormal_median_roughly_right() {
        let mut rng = SimRng::seed_from_u64(4);
        let m = LatencyModel::LogNormal {
            median: SimDuration::from_millis(20),
            sigma: 0.3,
            floor: SimDuration::from_micros(1),
        };
        let mut samples: Vec<u64> = (0..4001).map(|_| m.sample(&mut rng).as_nanos()).collect();
        samples.sort_unstable();
        let med = samples[samples.len() / 2] as f64 / 1e6;
        assert!((15.0..25.0).contains(&med), "median {med}ms");
    }

    #[test]
    fn serialization_delay_scales_with_size() {
        let mut rng = SimRng::seed_from_u64(5);
        let p = LinkParams {
            latency: LatencyModel::Fixed(SimDuration::ZERO),
            bandwidth_bps: Some(8_000_000), // 1 byte per microsecond
            loss: 0.0,
        };
        assert_eq!(p.delay_for(1000, &mut rng), SimDuration::from_micros(1000));
        assert_eq!(p.delay_for(1, &mut rng), SimDuration::from_micros(1));
    }

    #[test]
    fn lossless_link_has_no_retransmit_jitter() {
        let mut rng = SimRng::seed_from_u64(6);
        let p = LinkParams::fixed(SimDuration::from_millis(3));
        for _ in 0..100 {
            assert_eq!(p.delay_for(100, &mut rng), SimDuration::from_millis(3));
        }
    }

    #[test]
    fn lossy_link_sometimes_delays() {
        let mut rng = SimRng::seed_from_u64(7);
        let p = LinkParams {
            latency: LatencyModel::Fixed(SimDuration::from_millis(10)),
            bandwidth_bps: None,
            loss: 0.5,
        };
        let base = SimDuration::from_millis(10);
        let delayed = (0..200)
            .filter(|_| p.delay_for(10, &mut rng) > base)
            .count();
        assert!(
            delayed > 50,
            "expected many retransmit delays, got {delayed}"
        );
    }
}
