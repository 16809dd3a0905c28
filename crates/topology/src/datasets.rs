//! Synthetic wide-area datasets and topology generators.
//!
//! The paper evaluates on two measurement datasets: RTTs between 50
//! PlanetLab sites ("Planetlab-50") and King-estimated delays between 161
//! web servers ("daxlist-161"). Those raw measurements are not
//! redistributable, so this module generates *statistically similar* stand-ins
//! (see `DESIGN.md`): sites are scattered around continental clusters on the
//! globe, and the RTT between two sites is
//!
//! ```text
//! rtt(a, b) = inflation · great_circle_km(a, b) / 100 ms   (fiber propagation)
//!           + access(a) + access(b)                        (last-mile penalty)
//! ```
//!
//! perturbed by multiplicative jitter, then metrically closed. All generators
//! are deterministic given a seed, so every figure in the evaluation is
//! exactly reproducible.

#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{DistanceMatrix, Network};

/// Mean Earth radius in kilometres (spherical approximation).
const EARTH_RADIUS_KM: f64 = 6371.0;

/// Milliseconds of round-trip fiber propagation per kilometre of
/// great-circle distance (speed of light in fiber ≈ 200 000 km/s, both
/// directions).
const RTT_MS_PER_KM: f64 = 1.0 / 100.0;

/// A continental cluster of sites.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Human-readable cluster name ("us-east", "europe", …).
    pub name: String,
    /// Cluster center latitude, degrees.
    pub lat: f64,
    /// Cluster center longitude, degrees.
    pub lon: f64,
    /// Scatter radius around the center, kilometres.
    pub radius_km: f64,
    /// Relative share of sites drawn from this cluster.
    pub weight: f64,
}

impl ClusterSpec {
    /// Convenience constructor.
    pub fn new(name: &str, lat: f64, lon: f64, radius_km: f64, weight: f64) -> Self {
        ClusterSpec {
            name: name.to_string(),
            lat,
            lon,
            radius_km,
            weight,
        }
    }
}

/// Configuration for the geographic WAN generator.
///
/// # Examples
///
/// ```
/// use qp_topology::datasets::{ClusterSpec, WanConfig};
///
/// let cfg = WanConfig {
///     sites: 20,
///     clusters: vec![
///         ClusterSpec::new("us", 40.0, -95.0, 1500.0, 1.0),
///         ClusterSpec::new("eu", 50.0, 10.0, 900.0, 1.0),
///     ],
///     ..WanConfig::default()
/// };
/// let net = cfg.generate(7);
/// assert_eq!(net.len(), 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WanConfig {
    /// Number of sites to place.
    pub sites: usize,
    /// Cluster mix.
    pub clusters: Vec<ClusterSpec>,
    /// Multiplicative path-inflation factor over great-circle propagation
    /// (Internet routes are not geodesics; ~1.3–1.6 is typical).
    pub route_inflation: f64,
    /// Per-site access penalty range `[lo, hi]`, milliseconds, added at both
    /// endpoints of every path.
    pub access_ms: (f64, f64),
    /// Relative standard deviation of multiplicative RTT jitter
    /// (0.1 = ±10 %); models measurement noise (larger for King-style
    /// estimation than for direct pings).
    pub jitter_frac: f64,
}

impl Default for WanConfig {
    fn default() -> Self {
        WanConfig {
            sites: 50,
            clusters: default_clusters(),
            route_inflation: 1.4,
            access_ms: (0.5, 6.0),
            jitter_frac: 0.08,
        }
    }
}

/// A default, PlanetLab-flavoured continental mix.
pub fn default_clusters() -> Vec<ClusterSpec> {
    vec![
        ClusterSpec::new("us-east", 40.7, -74.0, 900.0, 0.24),
        ClusterSpec::new("us-west", 37.4, -122.1, 700.0, 0.16),
        ClusterSpec::new("europe", 50.1, 8.7, 1100.0, 0.30),
        ClusterSpec::new("east-asia", 35.7, 139.7, 1400.0, 0.16),
        ClusterSpec::new("oceania", -33.9, 151.2, 600.0, 0.06),
        ClusterSpec::new("south-america", -23.5, -46.6, 800.0, 0.08),
    ]
}

impl WanConfig {
    /// Generates a network deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate: no sites, no clusters,
    /// non-positive weights, or an invalid access range.
    pub fn generate(&self, seed: u64) -> Network {
        assert!(self.sites > 0, "sites must be positive");
        assert!(!self.clusters.is_empty(), "at least one cluster required");
        let total_weight: f64 = self.clusters.iter().map(|c| c.weight).sum();
        assert!(
            total_weight > 0.0,
            "cluster weights must sum to a positive value"
        );
        assert!(
            self.access_ms.0 >= 0.0 && self.access_ms.1 >= self.access_ms.0,
            "invalid access delay range"
        );

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut lats = Vec::with_capacity(self.sites);
        let mut lons = Vec::with_capacity(self.sites);
        let mut access = Vec::with_capacity(self.sites);
        let mut labels = Vec::with_capacity(self.sites);
        let mut cluster_counts = vec![0usize; self.clusters.len()];

        for _ in 0..self.sites {
            // Pick a cluster by weight.
            let mut pick = rng.gen_range(0.0..total_weight);
            let mut ci = 0;
            for (i, c) in self.clusters.iter().enumerate() {
                if pick < c.weight {
                    ci = i;
                    break;
                }
                pick -= c.weight;
            }
            let c = &self.clusters[ci];
            // Uniform point in a disc of radius radius_km around the center.
            let r = c.radius_km * rng.gen_range(0.0f64..1.0).sqrt();
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            let dlat = (r * theta.sin()) / 111.0; // ~111 km per degree latitude
            let coslat = c.lat.to_radians().cos().abs().max(0.05);
            let dlon = (r * theta.cos()) / (111.0 * coslat);
            lats.push((c.lat + dlat).clamp(-89.0, 89.0));
            lons.push(c.lon + dlon);
            access.push(rng.gen_range(self.access_ms.0..=self.access_ms.1));
            labels.push(format!("{}-{}", c.name, cluster_counts[ci]));
            cluster_counts[ci] += 1;
        }

        let n = self.sites;
        let mut rows = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let km = haversine_km(lats[i], lons[i], lats[j], lons[j]);
                let base = self.route_inflation * km * RTT_MS_PER_KM + access[i] + access[j];
                // Multiplicative jitter, clamped to stay positive.
                let noise = 1.0 + self.jitter_frac * standard_normal(&mut rng);
                let rtt = (base * noise.max(0.2)).max(0.1);
                rows[i][j] = rtt;
                rows[j][i] = rtt;
            }
        }
        let m = DistanceMatrix::from_rows(&rows).expect("construction is symmetric");
        Network::with_labels(m.metric_closure(), labels).expect("label count matches")
    }
}

/// The 50-site PlanetLab-flavoured dataset used throughout the evaluation
/// ("Planetlab-50" in the paper).
///
/// Deterministic; repeated calls return identical networks.
pub fn planetlab_50() -> Network {
    WanConfig::default().generate(0x504c_3530) // "PL50"
}

/// The 161-site web-server-flavoured dataset ("daxlist-161" in the paper):
/// more sites, heavier North-America share (web servers of the mid-2000s),
/// and noisier delays (King estimates rather than direct pings).
pub fn daxlist_161() -> Network {
    let cfg = WanConfig {
        sites: 161,
        clusters: vec![
            ClusterSpec::new("us-east", 40.7, -74.0, 1200.0, 0.34),
            ClusterSpec::new("us-central", 41.9, -87.6, 900.0, 0.12),
            ClusterSpec::new("us-west", 37.4, -122.1, 900.0, 0.18),
            ClusterSpec::new("europe", 50.1, 8.7, 1300.0, 0.20),
            ClusterSpec::new("east-asia", 35.7, 139.7, 1500.0, 0.10),
            ClusterSpec::new("oceania", -33.9, 151.2, 700.0, 0.03),
            ClusterSpec::new("south-america", -23.5, -46.6, 900.0, 0.03),
        ],
        route_inflation: 1.5,
        access_ms: (1.0, 12.0),
        jitter_frac: 0.18,
    };
    cfg.generate(0x6461_7831) // "dax1"
}

/// Configuration for the GT-ITM-style **transit-stub** WAN generator.
///
/// The classic hierarchical Internet model: a small core of *transit
/// domains* (backbone ASes) whose routers interconnect over long links,
/// with *stub domains* (campus/edge networks) hanging off individual
/// transit routers over short uplinks. Sites are the transit routers plus
/// every stub node; delays are shortest paths over the sampled link
/// delays, so the result is metric by construction.
///
/// Link delays are sampled uniformly from the per-tier ranges and then
/// perturbed by multiplicative jitter; everything is a pure function of
/// the seed.
///
/// # Examples
///
/// ```
/// use qp_topology::datasets::TransitStubConfig;
///
/// let cfg = TransitStubConfig::default();
/// let net = cfg.generate(7);
/// assert_eq!(net.len(), cfg.sites());
/// assert!(net.distances().is_metric(1e-9));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransitStubConfig {
    /// Number of transit (backbone) domains.
    pub transit_domains: usize,
    /// Routers per transit domain.
    pub transit_size: usize,
    /// Stub domains attached to each transit router.
    pub stubs_per_transit: usize,
    /// Sites per stub domain.
    pub stub_size: usize,
    /// Link-delay range between routers of *different* transit domains,
    /// ms (intercontinental backbone).
    pub inter_transit_ms: (f64, f64),
    /// Link-delay range between routers of the *same* transit domain, ms.
    pub intra_transit_ms: (f64, f64),
    /// Uplink delay range from a stub gateway to its transit router, ms.
    pub transit_stub_ms: (f64, f64),
    /// Link-delay range inside a stub domain, ms.
    pub intra_stub_ms: (f64, f64),
    /// Relative standard deviation of multiplicative delay jitter.
    pub jitter_frac: f64,
}

impl Default for TransitStubConfig {
    fn default() -> Self {
        TransitStubConfig {
            transit_domains: 3,
            transit_size: 3,
            stubs_per_transit: 2,
            stub_size: 4,
            inter_transit_ms: (30.0, 90.0),
            intra_transit_ms: (4.0, 20.0),
            transit_stub_ms: (1.0, 8.0),
            intra_stub_ms: (0.3, 3.0),
            jitter_frac: 0.05,
        }
    }
}

impl TransitStubConfig {
    /// Total number of sites the configuration generates: all transit
    /// routers plus all stub nodes.
    pub fn sites(&self) -> usize {
        let routers = self.transit_domains * self.transit_size;
        routers + routers * self.stubs_per_transit * self.stub_size
    }

    /// Generates the network deterministically from `seed`.
    ///
    /// Transit routers are labelled `t{domain}-{router}`, stub sites
    /// `s{domain}-{router}-{stub}-{site}`.
    ///
    /// The distances are the Dijkstra matrix of the sampled link graph
    /// ([`crate::Graph::all_pairs_shortest_paths`]), bit for bit. Shortest
    /// paths already satisfy the triangle inequality, so no O(n³)
    /// [`DistanceMatrix::metric_closure`] runs on it, and generation is
    /// O(n·(m + n log n)): the 2,000-site topology of
    /// `data/scenarios/transit_colgen_2000.toml` builds in 0.73 s on a
    /// 2-vCPU VM.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero, a delay range is invalid
    /// (`lo <= 0` or `hi < lo`), or `jitter_frac` is negative.
    pub fn generate(&self, seed: u64) -> Network {
        let (graph, labels) = self.graph(seed);
        let matrix = graph
            .all_pairs_shortest_paths()
            .expect("transit-stub graph is connected by construction");
        Network::from_shortest_paths(matrix, labels).expect("one label per site")
    }

    /// The sampled link graph and the site labels, a pure function of
    /// `seed`; [`TransitStubConfig::generate`] documents the panics.
    fn graph(&self, seed: u64) -> (crate::Graph, Vec<String>) {
        assert!(
            self.transit_domains > 0 && self.transit_size > 0,
            "at least one transit router required"
        );
        assert!(
            self.stubs_per_transit > 0 && self.stub_size > 0,
            "at least one stub site required"
        );
        for (lo, hi) in [
            self.inter_transit_ms,
            self.intra_transit_ms,
            self.transit_stub_ms,
            self.intra_stub_ms,
        ] {
            assert!(lo > 0.0 && hi >= lo, "invalid delay range [{lo}, {hi}]");
        }
        assert!(self.jitter_frac >= 0.0, "jitter must be nonnegative");

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = self.sites();
        let routers = self.transit_domains * self.transit_size;
        let mut graph = crate::Graph::new(n);
        let mut labels = vec![String::new(); n];

        let sample = |rng: &mut ChaCha8Rng, (lo, hi): (f64, f64)| -> f64 {
            let base = rng.gen_range(lo..=hi);
            let noise = 1.0 + self.jitter_frac * standard_normal(rng);
            (base * noise.max(0.2)).max(0.05)
        };
        let router_id = |d: usize, r: usize| d * self.transit_size + r;

        // Transit routers: labelled and fully meshed within a domain.
        for d in 0..self.transit_domains {
            for r in 0..self.transit_size {
                labels[router_id(d, r)] = format!("t{d}-{r}");
            }
            for a in 0..self.transit_size {
                for b in (a + 1)..self.transit_size {
                    let delay = sample(&mut rng, self.intra_transit_ms);
                    graph
                        .add_edge(
                            crate::NodeId::new(router_id(d, a)),
                            crate::NodeId::new(router_id(d, b)),
                            delay,
                        )
                        .expect("distinct in-range routers");
                }
            }
        }
        // One backbone link between every pair of transit domains, from a
        // seeded-random router on each side.
        for d1 in 0..self.transit_domains {
            for d2 in (d1 + 1)..self.transit_domains {
                let r1 = rng.gen_range(0..self.transit_size);
                let r2 = rng.gen_range(0..self.transit_size);
                let delay = sample(&mut rng, self.inter_transit_ms);
                graph
                    .add_edge(
                        crate::NodeId::new(router_id(d1, r1)),
                        crate::NodeId::new(router_id(d2, r2)),
                        delay,
                    )
                    .expect("routers of distinct domains differ");
            }
        }
        // Stub domains: a complete subgraph of short links, whose first
        // site doubles as the gateway onto the hosting transit router.
        let mut next = routers;
        for d in 0..self.transit_domains {
            for r in 0..self.transit_size {
                for s in 0..self.stubs_per_transit {
                    let first = next;
                    for i in 0..self.stub_size {
                        labels[next] = format!("s{d}-{r}-{s}-{i}");
                        next += 1;
                    }
                    let uplink = sample(&mut rng, self.transit_stub_ms);
                    graph
                        .add_edge(
                            crate::NodeId::new(first),
                            crate::NodeId::new(router_id(d, r)),
                            uplink,
                        )
                        .expect("gateway and router are distinct");
                    for a in 0..self.stub_size {
                        for b in (a + 1)..self.stub_size {
                            let delay = sample(&mut rng, self.intra_stub_ms);
                            graph
                                .add_edge(
                                    crate::NodeId::new(first + a),
                                    crate::NodeId::new(first + b),
                                    delay,
                                )
                                .expect("distinct stub sites");
                        }
                    }
                }
            }
        }
        debug_assert_eq!(next, n);
        (graph, labels)
    }
}

/// Configuration for the **hierarchical** (tree-of-clusters) WAN
/// generator.
///
/// Sites are the leaves of a rooted tree: `branching[0]` top-level
/// clusters, each splitting into `branching[1]` sub-clusters, and so on.
/// The edge from a depth-`ℓ` node up to its parent costs
/// `level_ms[ℓ]` ms (jittered per edge), so the delay between two leaves
/// is the tree-path length — crossing higher levels costs more, exactly
/// the continent / region / metro structure of real WANs. Tree metrics
/// satisfy the triangle inequality by construction.
///
/// # Examples
///
/// ```
/// use qp_topology::datasets::HierarchicalConfig;
///
/// let cfg = HierarchicalConfig {
///     branching: vec![3, 2, 4],
///     level_ms: vec![40.0, 10.0, 1.5],
///     jitter_frac: 0.05,
/// };
/// let net = cfg.generate(3);
/// assert_eq!(net.len(), 24);
/// assert!(net.distances().is_metric(1e-9));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalConfig {
    /// Children per node at each level; the product is the site count.
    pub branching: Vec<usize>,
    /// Cost (ms) of the edge from a node at that level up to its parent;
    /// must have the same length as `branching`.
    pub level_ms: Vec<f64>,
    /// Relative standard deviation of multiplicative per-edge jitter.
    pub jitter_frac: f64,
}

impl Default for HierarchicalConfig {
    fn default() -> Self {
        HierarchicalConfig {
            branching: vec![4, 3, 4],
            level_ms: vec![45.0, 8.0, 1.0],
            jitter_frac: 0.05,
        }
    }
}

impl HierarchicalConfig {
    /// Number of sites (tree leaves) the configuration generates.
    pub fn sites(&self) -> usize {
        self.branching.iter().product()
    }

    /// Generates the network deterministically from `seed`.
    ///
    /// Leaves are labelled by their path from the root, e.g. `h2-0-3`.
    ///
    /// # Panics
    ///
    /// Panics if `branching` is empty or contains zero, `level_ms` has a
    /// different length or a non-positive entry, or `jitter_frac` is
    /// negative.
    pub fn generate(&self, seed: u64) -> Network {
        assert!(!self.branching.is_empty(), "at least one level required");
        assert!(
            self.branching.iter().all(|&b| b > 0),
            "branching factors must be positive"
        );
        assert_eq!(
            self.branching.len(),
            self.level_ms.len(),
            "one delay per level required"
        );
        assert!(
            self.level_ms.iter().all(|&d| d > 0.0),
            "level delays must be positive"
        );
        assert!(self.jitter_frac >= 0.0, "jitter must be nonnegative");

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let depth = self.branching.len();
        // Per-level jittered up-edge costs, indexed by the node's path
        // prefix. Level ℓ has prod(branching[..=ℓ]) nodes, enumerated in
        // lexicographic path order — the same order the leaves get.
        let mut up_cost: Vec<Vec<f64>> = Vec::with_capacity(depth);
        let mut level_count = 1usize;
        for l in 0..depth {
            level_count *= self.branching[l];
            let costs = (0..level_count)
                .map(|_| {
                    let noise = 1.0 + self.jitter_frac * standard_normal(&mut rng);
                    (self.level_ms[l] * noise.max(0.2)).max(0.01)
                })
                .collect();
            up_cost.push(costs);
        }

        let n = self.sites();
        // A leaf's path digits, most-significant level first.
        let path_of = |mut leaf: usize| -> Vec<usize> {
            let mut digits = vec![0usize; depth];
            for l in (0..depth).rev() {
                digits[l] = leaf % self.branching[l];
                leaf /= self.branching[l];
            }
            digits
        };
        // Node index of a path prefix at level l (0-based digit arrays).
        let prefix_index = |digits: &[usize], l: usize| -> usize {
            let mut idx = 0usize;
            for (b, &d) in self.branching[..=l].iter().zip(&digits[..=l]) {
                idx = idx * b + d;
            }
            idx
        };

        let mut rows = vec![vec![0.0; n]; n];
        let mut labels = Vec::with_capacity(n);
        for a in 0..n {
            let pa = path_of(a);
            labels.push(format!(
                "h{}",
                pa.iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("-")
            ));
            for b in (a + 1)..n {
                let pb = path_of(b);
                // First level where the paths diverge.
                let split = (0..depth)
                    .find(|&l| pa[l] != pb[l])
                    .expect("distinct leaves diverge somewhere");
                let mut d = 0.0;
                for l in split..depth {
                    d += up_cost[l][prefix_index(&pa, l)];
                    d += up_cost[l][prefix_index(&pb, l)];
                }
                rows[a][b] = d;
                rows[b][a] = d;
            }
        }
        let m = DistanceMatrix::from_rows(&rows).expect("tree metric is symmetric");
        Network::with_labels(m.metric_closure(), labels).expect("one label per leaf")
    }
}

/// Great-circle distance between two (lat, lon) points in degrees,
/// kilometres (haversine formula).
pub fn haversine_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    let (p1, p2) = (lat1.to_radians(), lat2.to_radians());
    let dp = (lat2 - lat1).to_radians();
    let dl = (lon2 - lon1).to_radians();
    let a = (dp / 2.0).sin().powi(2) + p1.cos() * p2.cos() * (dl / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * a.sqrt().atan2((1.0 - a).sqrt())
}

/// A random point-to-point metric from sites placed uniformly in a square of
/// side `side_ms` (distances are Euclidean, in milliseconds). Useful for
/// tests: small, metric by construction.
pub fn euclidean_random(n: usize, side_ms: f64, seed: u64) -> Network {
    assert!(side_ms > 0.0, "side must be positive");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..side_ms), rng.gen_range(0.0..side_ms)))
        .collect();
    let mut rows = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = ((pts[i].0 - pts[j].0).powi(2) + (pts[i].1 - pts[j].1).powi(2)).sqrt();
            // Tiny floor keeps co-located points at a positive distance.
            let d = d.max(1e-3);
            rows[i][j] = d;
            rows[j][i] = d;
        }
    }
    Network::from_distances(DistanceMatrix::from_rows(&rows).expect("symmetric"))
}

/// A uniformly random symmetric delay matrix in `[lo, hi]`, metrically
/// closed. Not geographically structured; useful as an adversarial test
/// input.
pub fn uniform_random(n: usize, lo: f64, hi: f64, seed: u64) -> Network {
    assert!(lo > 0.0 && hi >= lo, "invalid delay range");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rows = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = rng.gen_range(lo..=hi);
            rows[i][j] = d;
            rows[j][i] = d;
        }
    }
    Network::from_distances(DistanceMatrix::from_rows(&rows).expect("symmetric"))
}

/// A ring of `n` sites with `step_ms` between neighbours — a worst-ish case
/// for ball-style placements, handy in unit tests because distances are
/// known in closed form.
pub fn ring(n: usize, step_ms: f64) -> Network {
    assert!(step_ms > 0.0, "step must be positive");
    let mut rows = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            let fwd = (j + n - i) % n;
            let hops = fwd.min(n - fwd);
            rows[i][j] = hops as f64 * step_ms;
        }
    }
    Network::from_distances(DistanceMatrix::from_rows(&rows).expect("symmetric"))
}

/// Standard-normal sample via Box–Muller (avoids a dependency on
/// `rand_distr`).
fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn planetlab_50_shape() {
        let net = planetlab_50();
        assert_eq!(net.len(), 50);
        assert!(net.distances().is_metric(1e-9));
        let mean = net.distances().mean_distance();
        // WAN-scale delays: tens of ms on average, sub-second max.
        assert!(mean > 20.0 && mean < 400.0, "mean {mean} out of WAN range");
        assert!(net.distances().max_distance() < 1000.0);
    }

    #[test]
    fn daxlist_161_shape() {
        let net = daxlist_161();
        assert_eq!(net.len(), 161);
        assert!(net.distances().is_metric(1e-9));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = planetlab_50();
        let b = planetlab_50();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = WanConfig::default();
        assert_ne!(cfg.generate(1), cfg.generate(2));
    }

    #[test]
    fn clusters_are_visible_in_the_metric() {
        // Same-cluster pairs should on average be much closer than
        // cross-cluster pairs.
        let cfg = WanConfig {
            sites: 30,
            clusters: vec![
                ClusterSpec::new("a", 40.0, -90.0, 300.0, 1.0),
                ClusterSpec::new("b", 50.0, 10.0, 300.0, 1.0),
            ],
            jitter_frac: 0.02,
            ..WanConfig::default()
        };
        let net = cfg.generate(11);
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for i in net.nodes() {
            for j in net.nodes() {
                if i >= j {
                    continue;
                }
                let same = net.label(i).split('-').next() == net.label(j).split('-').next();
                let d = net.distance(i, j);
                if same {
                    intra.push(d);
                } else {
                    inter.push(d);
                }
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(avg(&intra) * 2.0 < avg(&inter), "clusters not separated");
    }

    #[test]
    fn haversine_known_values() {
        // New York (40.7128, -74.0060) to London (51.5074, -0.1278):
        // ~5570 km.
        let d = haversine_km(40.7128, -74.0060, 51.5074, -0.1278);
        assert!((d - 5570.0).abs() < 60.0, "NY-London {d} km");
        // Antipodal-ish sanity: any distance ≤ half circumference.
        assert!(d <= std::f64::consts::PI * EARTH_RADIUS_KM);
        assert_eq!(haversine_km(10.0, 20.0, 10.0, 20.0), 0.0);
    }

    #[test]
    fn euclidean_random_is_metric() {
        let net = euclidean_random(20, 100.0, 3);
        assert_eq!(net.len(), 20);
        assert!(net.distances().is_metric(1e-9));
    }

    #[test]
    fn uniform_random_is_closed() {
        let net = uniform_random(15, 5.0, 200.0, 9);
        assert!(net.distances().is_metric(1e-9));
    }

    #[test]
    fn ring_distances_closed_form() {
        let net = ring(6, 10.0);
        use crate::NodeId;
        assert_eq!(net.distance(NodeId::new(0), NodeId::new(3)), 30.0);
        assert_eq!(net.distance(NodeId::new(0), NodeId::new(5)), 10.0);
        assert!(net.distances().is_metric(1e-9));
    }

    #[test]
    fn transit_stub_shape_and_determinism() {
        let cfg = TransitStubConfig::default();
        let net = cfg.generate(7);
        assert_eq!(net.len(), cfg.sites());
        assert_eq!(net.len(), 9 + 9 * 2 * 4);
        assert!(net.distances().is_metric(1e-9));
        for i in net.nodes() {
            for j in net.nodes() {
                if i != j {
                    assert!(net.distance(i, j) > 0.0, "zero delay at ({i}, {j})");
                }
            }
        }
        assert_eq!(cfg.generate(7), net);
        assert_ne!(cfg.generate(8), net);
        // Labels encode the hierarchy: routers first, then stub sites.
        assert!(net.label(NodeId::new(0)).starts_with('t'));
        assert!(net.label(NodeId::new(net.len() - 1)).starts_with('s'));
    }

    #[test]
    fn transit_stub_network_is_the_dijkstra_matrix() {
        // The generator returns the shortest-path matrix itself, bit for
        // bit: no closure runs on it, and it is metric all the same.
        let cfg = TransitStubConfig::default();
        let net = cfg.generate(7);
        let (graph, _) = cfg.graph(7);
        assert_eq!(
            net.distances(),
            &graph.all_pairs_shortest_paths().unwrap(),
            "the generator must not close the shortest-path matrix"
        );
        assert!(net.distances().is_metric(1e-9));
    }

    #[test]
    fn transit_stub_locality() {
        // Sites of one stub domain must on average be far closer to each
        // other than to sites of a stub under a different transit domain.
        let cfg = TransitStubConfig {
            jitter_frac: 0.02,
            ..TransitStubConfig::default()
        };
        let net = cfg.generate(3);
        let routers = cfg.transit_domains * cfg.transit_size;
        let stub0: Vec<NodeId> = (routers..routers + cfg.stub_size)
            .map(NodeId::new)
            .collect();
        // The first stub of the *last* transit domain.
        let far_start = routers
            + (cfg.transit_domains - 1) * cfg.transit_size * cfg.stubs_per_transit * cfg.stub_size;
        let far: Vec<NodeId> = (far_start..far_start + cfg.stub_size)
            .map(NodeId::new)
            .collect();
        let avg = |xs: &[NodeId], ys: &[NodeId]| -> f64 {
            let mut sum = 0.0;
            let mut count = 0;
            for &a in xs {
                for &b in ys {
                    if a != b {
                        sum += net.distance(a, b);
                        count += 1;
                    }
                }
            }
            sum / count as f64
        };
        let intra = avg(&stub0, &stub0);
        let inter = avg(&stub0, &far);
        assert!(
            intra * 3.0 < inter,
            "stub locality broken: intra {intra} ms vs inter {inter} ms"
        );
    }

    #[test]
    fn hierarchical_shape_and_tree_structure() {
        let cfg = HierarchicalConfig {
            branching: vec![3, 2, 4],
            level_ms: vec![40.0, 10.0, 1.5],
            jitter_frac: 0.0,
        };
        let net = cfg.generate(5);
        assert_eq!(net.len(), 24);
        assert!(net.distances().is_metric(1e-9));
        // Without jitter the tree metric is exact: siblings differ by
        // 2·level_ms[2], cousins across the top level by the full climb.
        let same_metro = net.distance(NodeId::new(0), NodeId::new(1));
        assert!(
            (same_metro - 3.0).abs() < 1e-9,
            "sibling delay {same_metro}"
        );
        let cross_top = net.distance(NodeId::new(0), NodeId::new(23));
        assert!(
            (cross_top - 2.0 * (40.0 + 10.0 + 1.5)).abs() < 1e-9,
            "cross-cluster delay {cross_top}"
        );
        assert_eq!(net.label(NodeId::new(0)), "h0-0-0");
        assert_eq!(net.label(NodeId::new(23)), "h2-1-3");
    }

    #[test]
    fn hierarchical_is_deterministic_and_seed_sensitive() {
        let cfg = HierarchicalConfig::default();
        let a = cfg.generate(11);
        assert_eq!(a.len(), cfg.sites());
        assert!(a.distances().is_metric(1e-9));
        assert_eq!(cfg.generate(11), a);
        assert_ne!(cfg.generate(12), a);
    }

    #[test]
    #[should_panic(expected = "one delay per level")]
    fn hierarchical_rejects_mismatched_levels() {
        let cfg = HierarchicalConfig {
            branching: vec![2, 2],
            level_ms: vec![10.0],
            jitter_frac: 0.0,
        };
        let _ = cfg.generate(0);
    }

    #[test]
    #[should_panic(expected = "at least one stub site")]
    fn transit_stub_rejects_zero_stub() {
        let cfg = TransitStubConfig {
            stub_size: 0,
            ..TransitStubConfig::default()
        };
        let _ = cfg.generate(0);
    }

    #[test]
    #[should_panic(expected = "sites must be positive")]
    fn zero_sites_panics() {
        let cfg = WanConfig {
            sites: 0,
            ..WanConfig::default()
        };
        let _ = cfg.generate(0);
    }
}
