//! Property tests for the topology substrate: metric-closure laws, ball
//! and median invariants, generator guarantees.

#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math

use proptest::prelude::*;
use qp_topology::{datasets, DistanceMatrix, Graph, Network, NodeId};

fn upper_triangle(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.1f64..500.0, n * (n - 1) / 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn closure_is_metric_dominated_idempotent(n in 2usize..12, tri in upper_triangle(12)) {
        let m = DistanceMatrix::from_upper_triangle(n, &tri[..n * (n - 1) / 2]).unwrap();
        let c = m.metric_closure();
        // Triangle inequality holds.
        prop_assert!(c.is_metric(1e-9));
        // Dominated: closure never exceeds the original entrywise.
        for i in 0..n {
            for j in 0..n {
                prop_assert!(
                    c.get(NodeId::new(i), NodeId::new(j))
                        <= m.get(NodeId::new(i), NodeId::new(j)) + 1e-12
                );
            }
        }
        // Idempotent up to FP rounding (summation order may differ by ulps).
        let cc = c.metric_closure();
        for i in 0..n {
            for j in 0..n {
                let a = cc.get(NodeId::new(i), NodeId::new(j));
                let b = c.get(NodeId::new(i), NodeId::new(j));
                prop_assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()));
            }
        }
    }

    #[test]
    fn ball_is_nested_and_sorted(n in 3usize..12, tri in upper_triangle(12), v in 0usize..3) {
        let m = DistanceMatrix::from_upper_triangle(n, &tri[..n * (n - 1) / 2]).unwrap();
        let net = Network::from_distances(m);
        let v = NodeId::new(v % n);
        let mut prev: Vec<NodeId> = Vec::new();
        for size in 1..=n {
            let ball = net.ball(v, size);
            prop_assert_eq!(ball.len(), size);
            // Nested: the previous ball is a prefix.
            prop_assert_eq!(&ball[..prev.len()], &prev[..]);
            // Sorted by distance from v.
            for w in ball.windows(2) {
                prop_assert!(net.distance(v, w[0]) <= net.distance(v, w[1]) + 1e-12);
            }
            prev = ball;
        }
        // Self is always first.
        prop_assert_eq!(net.ball(v, 1)[0], v);
    }

    #[test]
    fn median_minimizes_total_distance(n in 2usize..12, tri in upper_triangle(12)) {
        let m = DistanceMatrix::from_upper_triangle(n, &tri[..n * (n - 1) / 2]).unwrap();
        let net = Network::from_distances(m);
        let med = net.median();
        let total = |w: NodeId| -> f64 {
            net.nodes().map(|v| net.distance(v, w)).sum()
        };
        let best = total(med);
        for w in net.nodes() {
            prop_assert!(best <= total(w) + 1e-9);
        }
    }

    #[test]
    fn average_distances_match_definition(n in 2usize..10, tri in upper_triangle(10)) {
        let m = DistanceMatrix::from_upper_triangle(n, &tri[..n * (n - 1) / 2]).unwrap();
        let net = Network::from_distances(m);
        let avg = net.average_distances();
        for (i, &a) in avg.iter().enumerate() {
            let manual: f64 = net
                .nodes()
                .map(|v| net.distance(v, NodeId::new(i)))
                .sum::<f64>()
                / n as f64;
            prop_assert!((a - manual).abs() < 1e-9);
        }
    }

    #[test]
    fn graph_apsp_agrees_with_direct_edges_on_trees(
        n in 2usize..10,
        weights in proptest::collection::vec(0.5f64..100.0, 10),
    ) {
        // Star graph: center 0. Shortest paths are sums through the hub.
        let mut g = Graph::new(n);
        for i in 1..n {
            g.add_edge(NodeId::new(0), NodeId::new(i), weights[i]).unwrap();
        }
        let d = g.all_pairs_shortest_paths().unwrap();
        for i in 1..n {
            for j in 1..n {
                let expected = if i == j { 0.0 } else { weights[i] + weights[j] };
                prop_assert!((d.get(NodeId::new(i), NodeId::new(j)) - expected).abs() < 1e-9);
            }
        }
        // Path graph 0 - 1 - … - (n-1): the two Dijkstra directions add the
        // float lengths in opposite orders, yet APSP succeeds, symmetric.
        let mut path = Graph::new(n);
        for i in 1..n {
            path.add_edge(NodeId::new(i - 1), NodeId::new(i), weights[i]).unwrap();
        }
        let d = path.all_pairs_shortest_paths().unwrap();
        for i in 0..n {
            for j in i..n {
                let (a, b) = (NodeId::new(i), NodeId::new(j));
                prop_assert_eq!(d.get(a, b), d.get(b, a));
                let expected: f64 = weights[i + 1..=j].iter().sum();
                prop_assert!((d.get(a, b) - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn wan_generator_is_deterministic_and_metric(seed in 0u64..200, sites in 2usize..30) {
        let cfg = datasets::WanConfig { sites, ..datasets::WanConfig::default() };
        let a = cfg.generate(seed);
        let b = cfg.generate(seed);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.distances().is_metric(1e-9));
        prop_assert_eq!(a.len(), sites);
        // All pairwise delays positive.
        for i in a.nodes() {
            for j in a.nodes() {
                if i != j {
                    prop_assert!(a.distance(i, j) > 0.0);
                }
            }
        }
    }

    #[test]
    fn transit_stub_generator_invariants(
        seed in 0u64..200,
        domains in 1usize..4,
        routers in 1usize..4,
        stubs in 1usize..3,
        stub_size in 1usize..5,
    ) {
        let cfg = datasets::TransitStubConfig {
            transit_domains: domains,
            transit_size: routers,
            stubs_per_transit: stubs,
            stub_size,
            ..datasets::TransitStubConfig::default()
        };
        let a = cfg.generate(seed);
        // Seed-determinism: regenerating is bit-identical.
        prop_assert_eq!(&a, &cfg.generate(seed));
        prop_assert_ne!(&a, &cfg.generate(seed + 1));
        prop_assert_eq!(a.len(), cfg.sites());
        // Symmetry, zero diagonal, positivity, connectivity (all
        // distances finite), triangle inequality.
        prop_assert!(a.distances().is_metric(1e-9));
        for i in a.nodes() {
            for j in a.nodes() {
                let d = a.distance(i, j);
                prop_assert!(d.is_finite(), "disconnected pair ({i}, {j})");
                prop_assert_eq!(d, a.distance(j, i));
                if i == j {
                    prop_assert_eq!(d, 0.0);
                } else {
                    prop_assert!(d > 0.0);
                }
            }
        }
    }

    #[test]
    fn hierarchical_generator_invariants(
        seed in 0u64..200,
        b0 in 2usize..5,
        b1 in 1usize..4,
        jitter in 0.0f64..0.15,
    ) {
        let cfg = datasets::HierarchicalConfig {
            branching: vec![b0, b1, 2],
            level_ms: vec![50.0, 10.0, 2.0],
            jitter_frac: jitter,
        };
        let a = cfg.generate(seed);
        prop_assert_eq!(&a, &cfg.generate(seed));
        prop_assert_ne!(&a, &cfg.generate(seed + 1));
        prop_assert_eq!(a.len(), b0 * b1 * 2);
        prop_assert!(a.distances().is_metric(1e-9));
        for i in a.nodes() {
            for j in a.nodes() {
                let d = a.distance(i, j);
                prop_assert!(d.is_finite());
                prop_assert_eq!(d, a.distance(j, i));
                if i != j {
                    prop_assert!(d > 0.0);
                }
            }
        }
    }

    #[test]
    fn generated_topologies_roundtrip_through_files(seed in 0u64..50) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let cfg = datasets::TransitStubConfig {
            transit_domains: 2,
            transit_size: 2,
            stubs_per_transit: 1,
            stub_size: 2,
            ..datasets::TransitStubConfig::default()
        };
        let net = cfg.generate(seed);
        let path = std::env::temp_dir().join(format!(
            "qp-proptest-roundtrip-{}-{}.rtt",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed),
        ));
        qp_topology::io::write_matrix_file(&net, &path).unwrap();
        let back = qp_topology::io::read_matrix_file(&path);
        std::fs::remove_file(&path).ok();
        let back = back.unwrap();
        prop_assert_eq!(back.len(), net.len());
        for i in net.nodes() {
            for j in net.nodes() {
                prop_assert!(
                    (back.distance(i, j) - net.distance(i, j)).abs() < 1e-5,
                    "drift at ({}, {})", i, j
                );
            }
        }
        for v in net.nodes() {
            prop_assert_eq!(back.label(v), net.label(v));
        }
    }

    #[test]
    fn ring_metric_is_exact(n in 3usize..20, step in 0.5f64..50.0) {
        let net = datasets::ring(n, step);
        for i in 0..n {
            for j in 0..n {
                let fwd = (j + n - i) % n;
                let hops = fwd.min(n - fwd) as f64;
                prop_assert!(
                    (net.distance(NodeId::new(i), NodeId::new(j)) - hops * step).abs()
                        < 1e-9
                );
            }
        }
    }
}
