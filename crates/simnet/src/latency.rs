//! Message latency models.
//!
//! The tutorial's latency/consistency trade-off results depend on the
//! *relative* cost of intra- vs. inter-datacenter messages, so the model
//! that matters most is [`LatencyModel::GeoMatrix`], seeded from published
//! inter-region round-trip times. The simpler models support unit tests and
//! microbenchmarks.

use crate::rng::SimRng;
use crate::sim::NodeId;
use crate::time::Duration;
use serde::{Deserialize, Serialize};

/// How long a message takes from one node to another.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(Duration),
    /// Uniform in `[min, max]`.
    Uniform {
        /// Minimum one-way latency.
        min: Duration,
        /// Maximum one-way latency.
        max: Duration,
    },
    /// Log-normal with the given one-way median and shape; heavy-tailed,
    /// the standard model for datacenter RPC latency.
    LogNormal {
        /// Median one-way latency.
        median: Duration,
        /// Shape parameter of the log-normal (larger = heavier tail).
        sigma: f64,
    },
    /// Geo-replicated deployment: each node lives in a region; one-way
    /// latency is half the region-pair RTT plus log-normal jitter.
    GeoMatrix {
        /// `region_of[node]` = region index of that node.
        region_of: Vec<usize>,
        /// `rtt_ms[a][b]` = round-trip time between regions `a` and `b`, in
        /// milliseconds. Must be square and at least `max(region_of)+1` wide.
        rtt_ms: Vec<Vec<f64>>,
        /// Multiplicative jitter shape (log-normal sigma); 0 disables jitter.
        jitter_sigma: f64,
    },
}

impl LatencyModel {
    /// A typical intra-datacenter link: 0.5 ms median, mild tail.
    pub fn lan() -> Self {
        LatencyModel::LogNormal { median: Duration::from_micros(500), sigma: 0.3 }
    }

    /// A five-region global deployment with RTTs shaped like published
    /// us-east / us-west / eu / ap-southeast / ap-northeast numbers.
    ///
    /// `region_of` is built round-robin for `n` nodes.
    pub fn geo_five_regions(n: usize) -> Self {
        // Approximate public inter-region RTT matrix (milliseconds).
        const RTT: [[f64; 5]; 5] = [
            //  use    usw    eu     apse   apne
            [1.0, 65.0, 75.0, 230.0, 160.0],  // us-east
            [65.0, 1.0, 140.0, 175.0, 110.0], // us-west
            [75.0, 140.0, 1.0, 300.0, 220.0], // eu-west
            [230.0, 175.0, 300.0, 1.0, 70.0], // ap-southeast
            [160.0, 110.0, 220.0, 70.0, 1.0], // ap-northeast
        ];
        LatencyModel::GeoMatrix {
            region_of: (0..n).map(|i| i % 5).collect(),
            rtt_ms: RTT.iter().map(|row| row.to_vec()).collect(),
            jitter_sigma: 0.1,
        }
    }

    /// Check the model and work out, once, everything sampling needs
    /// from the model alone (`ln(median)`, `ln(rtt / 2)` per region
    /// pair), so that the per-message path is the draws and nothing
    /// else. [`crate::Sim::new`] calls this.
    ///
    /// # Panics
    ///
    /// A model can come from JSON. A `GeoMatrix` whose `region_of` is
    /// empty, whose `rtt_ms` is not square, or whose `rtt_ms` is
    /// narrower than `max(region_of) + 1` is rejected here, naming the
    /// field and the two sizes, instead of at the first send with a bare
    /// index message.
    pub(crate) fn compile(&self) -> LatencySampler {
        match self {
            LatencyModel::Constant(d) => LatencySampler::Constant(*d),
            LatencyModel::Uniform { min, max } => LatencySampler::Uniform { min: *min, max: *max },
            LatencyModel::LogNormal { median, sigma } => LatencySampler::LogNormal {
                mu: SimRng::ln_median(median.as_micros() as f64),
                sigma: *sigma,
            },
            LatencyModel::GeoMatrix { region_of, rtt_ms, jitter_sigma } => {
                let regions = rtt_ms.len();
                assert!(
                    !region_of.is_empty(),
                    "LatencyModel::GeoMatrix: `region_of` is empty (0 nodes placed) \
                     while `rtt_ms` has {regions} rows; every node needs a region"
                );
                for (row, rtts) in rtt_ms.iter().enumerate() {
                    assert!(
                        rtts.len() == regions,
                        "LatencyModel::GeoMatrix: `rtt_ms` is not square: \
                         row {row} has {} entries, the matrix has {regions} rows",
                        rtts.len()
                    );
                }
                let needed = region_of.iter().max().expect("non-empty") + 1;
                assert!(
                    regions >= needed,
                    "LatencyModel::GeoMatrix: `rtt_ms` is {regions} regions wide \
                     but `region_of` names region {}: it needs at least {needed}",
                    needed - 1
                );
                let pairs = rtt_ms
                    .iter()
                    .flatten()
                    .map(|rtt| {
                        let one_way_ms = rtt / 2.0;
                        (one_way_ms, SimRng::ln_median(one_way_ms))
                    })
                    .collect();
                LatencySampler::Geo {
                    region_of: region_of.clone(),
                    regions,
                    pairs,
                    jitter_sigma: *jitter_sigma,
                }
            }
        }
    }
}

/// A checked [`LatencyModel`] with its per-model constants worked out
/// ([`LatencyModel::compile`]): what a [`crate::Sim`] samples from.
#[derive(Debug, Clone)]
pub(crate) enum LatencySampler {
    Constant(Duration),
    Uniform {
        min: Duration,
        max: Duration,
    },
    LogNormal {
        /// `ln(median in µs)`.
        mu: f64,
        sigma: f64,
    },
    Geo {
        region_of: Vec<usize>,
        /// Width of the (square) region matrix `pairs` flattens.
        regions: usize,
        /// Row-major `(one-way ms, ln(one-way ms))` per region pair.
        pairs: Vec<(f64, f64)>,
        jitter_sigma: f64,
    },
}

impl LatencySampler {
    /// Sample the one-way latency for a message from `from` to `to`.
    #[inline]
    pub(crate) fn sample(&self, from: NodeId, to: NodeId, rng: &mut SimRng) -> Duration {
        match self {
            LatencySampler::Constant(d) => *d,
            LatencySampler::Uniform { min, max } => {
                if min >= max {
                    *min
                } else {
                    Duration::from_micros(rng.range(min.as_micros(), max.as_micros() + 1))
                }
            }
            LatencySampler::LogNormal { mu, sigma } => {
                let us = rng.log_normal_from_mu(*mu, *sigma);
                Duration::from_micros(us.round().max(1.0) as u64)
            }
            LatencySampler::Geo { region_of, regions, pairs, jitter_sigma } => {
                let ra = region_of[from.index() % region_of.len()];
                let rb = region_of[to.index() % region_of.len()];
                let (one_way_ms, mu) = pairs[ra * regions + rb];
                let jittered = if *jitter_sigma > 0.0 {
                    rng.log_normal_from_mu(mu, *jitter_sigma)
                } else {
                    one_way_ms
                };
                Duration::from_millis_f64(jittered.max(0.001))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::Constant(Duration::from_millis(3)).compile();
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(m.sample(NodeId(0), NodeId(1), &mut rng), Duration::from_millis(3));
        }
    }

    #[test]
    fn uniform_within_bounds() {
        let m = LatencyModel::Uniform {
            min: Duration::from_micros(100),
            max: Duration::from_micros(200),
        }
        .compile();
        let mut rng = SimRng::new(2);
        for _ in 0..1000 {
            let d = m.sample(NodeId(0), NodeId(1), &mut rng);
            assert!((100..=200).contains(&d.as_micros()), "{d:?}");
        }
    }

    #[test]
    fn uniform_degenerate_range() {
        let m = LatencyModel::Uniform {
            min: Duration::from_micros(50),
            max: Duration::from_micros(50),
        }
        .compile();
        let mut rng = SimRng::new(3);
        assert_eq!(m.sample(NodeId(0), NodeId(1), &mut rng), Duration::from_micros(50));
    }

    #[test]
    fn lognormal_positive_and_near_median() {
        let m = LatencyModel::LogNormal { median: Duration::from_millis(10), sigma: 0.4 }.compile();
        let mut rng = SimRng::new(4);
        let mut samples: Vec<u64> =
            (0..4001).map(|_| m.sample(NodeId(0), NodeId(1), &mut rng).as_micros()).collect();
        samples.sort_unstable();
        assert!(samples[0] >= 1);
        let median = samples[samples.len() / 2] as f64;
        assert!((median - 10_000.0).abs() < 1_000.0, "median {median}");
    }

    #[test]
    fn geo_local_faster_than_remote() {
        let m = LatencyModel::geo_five_regions(10).compile();
        let mut rng = SimRng::new(5);
        // Nodes 0 and 5 share region 0; node 3 is in region 3 (ap-southeast).
        let mut local = 0.0;
        let mut remote = 0.0;
        for _ in 0..200 {
            local += m.sample(NodeId(0), NodeId(5), &mut rng).as_millis_f64();
            remote += m.sample(NodeId(0), NodeId(3), &mut rng).as_millis_f64();
        }
        assert!(local / 200.0 < 2.0, "local mean {}", local / 200.0);
        assert!(remote / 200.0 > 80.0, "remote mean {}", remote / 200.0);
    }

    /// The sampler is the model's formula with the model-only part
    /// hoisted: same draws, same bits.
    #[test]
    fn compiled_sampler_draws_what_the_formula_draws() {
        let median = Duration::from_micros(500);
        let lan = LatencyModel::LogNormal { median, sigma: 0.3 }.compile();
        let geo_model = LatencyModel::geo_five_regions(7);
        let LatencyModel::GeoMatrix { region_of, rtt_ms, .. } = &geo_model else {
            unreachable!("geo_five_regions builds a GeoMatrix");
        };
        let geo = geo_model.compile();
        let (mut sampled, mut formula) = (SimRng::new(6), SimRng::new(6));
        for i in 0..2_000u32 {
            let (from, to) = (NodeId(i % 7), NodeId(i / 7 % 7));
            let us = formula.log_normal(median.as_micros() as f64, 0.3);
            assert_eq!(
                lan.sample(from, to, &mut sampled),
                Duration::from_micros(us.round().max(1.0) as u64)
            );
            let one_way_ms = rtt_ms[region_of[from.index()]][region_of[to.index()]] / 2.0;
            let jittered = formula.log_normal(one_way_ms, 0.1);
            assert_eq!(
                geo.sample(from, to, &mut sampled),
                Duration::from_millis_f64(jittered.max(0.001))
            );
        }
    }

    #[test]
    fn geo_without_jitter_is_half_the_rtt_and_draws_nothing() {
        let m = LatencyModel::GeoMatrix {
            region_of: vec![0, 1],
            rtt_ms: vec![vec![1.0, 65.0], vec![65.0, 1.0]],
            jitter_sigma: 0.0,
        }
        .compile();
        let mut rng = SimRng::new(7);
        let untouched = rng.clone().unit();
        assert_eq!(m.sample(NodeId(0), NodeId(1), &mut rng), Duration::from_micros(32_500));
        assert_eq!(rng.unit(), untouched);
    }

    fn geo(region_of: Vec<usize>, rtt_ms: Vec<Vec<f64>>) -> LatencyModel {
        LatencyModel::GeoMatrix { region_of, rtt_ms, jitter_sigma: 0.1 }
    }

    #[test]
    #[should_panic(expected = "`region_of` is empty (0 nodes placed) while `rtt_ms` has 2 rows")]
    fn geo_with_no_regions_assigned_is_rejected_at_compile() {
        geo(vec![], vec![vec![1.0, 9.0], vec![9.0, 1.0]]).compile();
    }

    #[test]
    #[should_panic(expected = "`rtt_ms` is not square: row 1 has 1 entries, the matrix has 2 rows")]
    fn geo_with_a_ragged_matrix_is_rejected_at_compile() {
        geo(vec![0, 1], vec![vec![1.0, 9.0], vec![9.0]]).compile();
    }

    #[test]
    #[should_panic(
        expected = "`rtt_ms` is 2 regions wide but `region_of` names region 2: it needs at least 3"
    )]
    fn geo_with_a_matrix_narrower_than_its_regions_is_rejected_at_compile() {
        geo(vec![0, 2, 1], vec![vec![1.0, 9.0], vec![9.0, 1.0]]).compile();
    }
}
