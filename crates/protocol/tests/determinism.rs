//! Determinism contract: the same `ProtocolConfig::seed` must produce
//! **bit-identical** simulation results across runs — not merely close.
//! The scenario-regression harness and every future perf PR rely on this.

use qp_core::{one_to_one, Placement};
use qp_protocol::{
    simulate, ClientPopulation, FaultConfig, ProtocolConfig, QuorumChoice, SimReport,
};
use qp_quorum::{MajorityKind, QuorumSystem, StrategyMatrix};
use qp_topology::{datasets, DistanceMatrix, Network, NodeId};

/// Field-by-field bitwise equality for two reports (f64s compared via
/// `to_bits`, so `-0.0 != 0.0` and NaNs would be caught too).
fn assert_bit_identical(a: &SimReport, b: &SimReport) {
    let bits = |x: f64| x.to_bits();
    assert_eq!(bits(a.avg_response_ms), bits(b.avg_response_ms));
    assert_eq!(bits(a.avg_network_delay_ms), bits(b.avg_network_delay_ms));
    assert_eq!(
        a.per_client_response_ms.len(),
        b.per_client_response_ms.len()
    );
    for (x, y) in a
        .per_client_response_ms
        .iter()
        .zip(&b.per_client_response_ms)
    {
        assert_eq!(bits(*x), bits(*y));
    }
    assert_eq!(bits(a.percentiles_ms.0), bits(b.percentiles_ms.0));
    assert_eq!(bits(a.percentiles_ms.1), bits(b.percentiles_ms.1));
    assert_eq!(bits(a.percentiles_ms.2), bits(b.percentiles_ms.2));
    for (x, y) in a.server_mean_wait_ms.iter().zip(&b.server_mean_wait_ms) {
        assert_eq!(bits(*x), bits(*y));
    }
    for (x, y) in a.server_utilization.iter().zip(&b.server_utilization) {
        assert_eq!(bits(*x), bits(*y));
    }
    assert_eq!(a.completed_requests, b.completed_requests);
    assert_eq!(bits(a.horizon_ms), bits(b.horizon_ms));
    // Belt and braces: the full Debug rendering (round-trip f64 formatting)
    // must agree as well, so new fields added to SimReport are covered
    // until a bitwise comparison is added for them here.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

fn run_once(seed: u64, choice: QuorumChoice) -> SimReport {
    let net = datasets::planetlab_50();
    let sys = QuorumSystem::majority(MajorityKind::FourFifths, 2).unwrap();
    let placement = one_to_one::ball_placement(&net, NodeId::new(3), sys.universe_size()).unwrap();
    let pop = ClientPopulation::new(vec![NodeId::new(1), NodeId::new(17), NodeId::new(42)], 3);
    let cfg = ProtocolConfig {
        warmup_requests: 10,
        measured_requests: 80,
        seed,
        ..ProtocolConfig::default()
    };
    simulate(&net, &sys, &placement, &pop, choice, &cfg).unwrap()
}

#[test]
fn same_seed_is_bit_identical_balanced() {
    let a = run_once(1234, QuorumChoice::Balanced);
    let b = run_once(1234, QuorumChoice::Balanced);
    assert_bit_identical(&a, &b);
}

#[test]
fn same_seed_is_bit_identical_closest() {
    let a = run_once(99, QuorumChoice::Closest);
    let b = run_once(99, QuorumChoice::Closest);
    assert_bit_identical(&a, &b);
}

#[test]
fn different_seeds_diverge_under_random_quorum_choice() {
    // The Balanced strategy samples quorums from the seeded RNG, so two
    // seeds must explore different quorum sequences (astronomically
    // unlikely to collide on the mean).
    let a = run_once(1, QuorumChoice::Balanced);
    let b = run_once(2, QuorumChoice::Balanced);
    assert_ne!(
        a.avg_response_ms.to_bits(),
        b.avg_response_ms.to_bits(),
        "distinct seeds produced identical means — is the seed actually used?"
    );
}

/// FNV-1a over 64-bit words.
fn digest_words(words: impl ExactSizeIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ words.len() as u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over the bit patterns of a vector field.
fn digest(xs: &[f64]) -> u64 {
    digest_words(xs.iter().map(|x| x.to_bits()))
}

/// Every [`SimReport`] field as bits: the scalars directly, each vector
/// through [`digest`].
fn report_bits(r: &SimReport) -> [u64; 14] {
    [
        r.avg_response_ms.to_bits(),
        r.avg_network_delay_ms.to_bits(),
        r.percentiles_ms.0.to_bits(),
        r.percentiles_ms.1.to_bits(),
        r.percentiles_ms.2.to_bits(),
        r.horizon_ms.to_bits(),
        r.completed_requests,
        r.timeouts,
        r.retries,
        r.failovers,
        digest(&r.per_client_response_ms),
        digest(&r.server_mean_wait_ms),
        digest(&r.server_utilization),
        digest(&r.residual_busy_ms),
    ]
}

/// Eleven Q/U elements on four nodes, interleaved so that grouping the
/// quorum's elements by node reorders them.
fn many_to_one(net: &Network) -> Placement {
    let hosts = [33, 5, 20, 5, 33, 9, 20, 9, 5, 33, 20];
    Placement::new(hosts.iter().map(|&v| NodeId::new(v)).collect(), net.len()).unwrap()
}

/// A Grid(3) strategy whose rows are skewed differently per location, so
/// the CDF walk stops at varied columns and accumulates rounding slack.
fn skewed_grid_choice(sys: &QuorumSystem, locations: usize) -> QuorumChoice {
    let quorums = sys.enumerate(64).unwrap();
    let m = quorums.len();
    let rows = (0..locations)
        .map(|v| {
            let raw: Vec<f64> = (0..m).map(|i| 1.0 + ((i * 7 + v * 3) % m) as f64).collect();
            let total: f64 = raw.iter().sum();
            raw.iter().map(|x| x / total).collect()
        })
        .collect();
    QuorumChoice::Weighted {
        quorums,
        strategy: StrategyMatrix::from_rows(rows).unwrap(),
    }
}

/// The pinned matrix: one exact-engine run per configuration the engine
/// distinguishes (choice rule, grouping, fault handling, carried state).
fn pinned_runs() -> Vec<(&'static str, SimReport)> {
    use QuorumChoice::{Balanced, Closest};
    let net = datasets::planetlab_50();
    let qu2 = QuorumSystem::majority(MajorityKind::FourFifths, 2).unwrap();
    let qu1 = QuorumSystem::majority(MajorityKind::FourFifths, 1).unwrap();
    let grid3 = QuorumSystem::grid(3).unwrap();
    let grid2 = QuorumSystem::grid(2).unwrap();
    let ball = |sys: &QuorumSystem| {
        one_to_one::ball_placement(&net, NodeId::new(3), sys.universe_size()).unwrap()
    };
    let (p_qu2, p_qu1, p_grid3, p_grid2) = (ball(&qu2), ball(&qu1), ball(&grid3), ball(&grid2));
    let three = ClientPopulation::new(vec![NodeId::new(1), NodeId::new(17), NodeId::new(42)], 3);
    let two = ClientPopulation::new(vec![NodeId::new(0), NodeId::new(9)], 3);
    let base = ProtocolConfig {
        warmup_requests: 10,
        measured_requests: 60,
        ..ProtocolConfig::default()
    };
    let run = |sys: &QuorumSystem, placement: &Placement, pop, choice, cfg: ProtocolConfig| {
        simulate(&net, sys, placement, pop, choice, &cfg).unwrap()
    };
    let seeded = |seed| ProtocolConfig {
        seed,
        ..base.clone()
    };

    // Many-to-one with heterogeneous servers: under deduplication the
    // slowest co-located element sets a node's service; without it,
    // same-node fragments arrive together and tie FIFO.
    let packed = many_to_one(&net);
    let mults: Vec<f64> = (0..11).map(|u| 1.0 + (u % 4) as f64 * 0.5).collect();
    let hetero = |dedup_colocated| ProtocolConfig {
        seed: 5,
        dedup_colocated,
        service_multipliers: Some(mults.clone()),
        ..base.clone()
    };

    // Crashes: a 40 ms timeout is shorter than many planetlab round
    // trips, so live fragments of abandoned attempts still reply late.
    let crash = |universe: usize, dead: usize, detection_latency_ms, max_retries| {
        let mut mults = vec![1.0; universe];
        mults[dead] = 64.0;
        ProtocolConfig {
            seed: 21,
            service_multipliers: Some(mults),
            fault: Some(FaultConfig {
                timeout_ms: 40.0,
                max_retries,
                detection_latency_ms,
                ..FaultConfig::default()
            }),
            ..base.clone()
        }
    };
    let grid2_uniform = QuorumChoice::Weighted {
        quorums: grid2.enumerate(16).unwrap(),
        strategy: StrategyMatrix::uniform(2, 4),
    };

    let backlog: Vec<f64> = (0..net.len()).map(|w| (w % 7) as f64 * 15.0).collect();
    let carried = ProtocolConfig {
        seed: 3,
        warmup_requests: 0,
        initial_server_busy_ms: Some(backlog),
        ..base.clone()
    };

    let grid3_skewed = skewed_grid_choice(&grid3, 3);
    vec![
        (
            "balanced",
            run(&qu2, &p_qu2, &three, Balanced, seeded(1234)),
        ),
        ("closest", run(&qu2, &p_qu2, &three, Closest, seeded(99))),
        (
            "weighted",
            run(&grid3, &p_grid3, &three, grid3_skewed, seeded(7)),
        ),
        ("dedup", run(&qu2, &packed, &three, Balanced, hetero(true))),
        (
            "colocated",
            run(&qu2, &packed, &three, Closest, hetero(false)),
        ),
        (
            "crash_weighted",
            run(&grid2, &p_grid2, &two, grid2_uniform, crash(4, 0, 300.0, 2)),
        ),
        (
            "crash_balanced",
            run(&qu1, &p_qu1, &two, Balanced, crash(6, 2, 200.0, 3)),
        ),
        (
            "crash_closest",
            run(&qu1, &p_qu1, &two, Closest, crash(6, 2, 150.0, 3)),
        ),
        // Never detected: every doomed request exhausts its one retry.
        (
            "crash_exhausted",
            run(&qu1, &p_qu1, &two, Balanced, crash(6, 2, 1e9, 1)),
        ),
        ("carried", run(&qu2, &p_qu2, &three, Balanced, carried)),
    ]
}

/// Eight nodes with round trips of 2·(1 + (i + j) mod 4) ms before metric
/// closure: every one-way delay, and with 1 ms services every departure
/// and reply, is a whole number of milliseconds, so events of different
/// requests land on exactly the same instant and pop in FIFO order.
fn integer_rtt_network() -> Network {
    let n = 8;
    let upper: Vec<f64> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| 2.0 * (1 + (i + j) % 4) as f64))
        .collect();
    Network::from_distances(DistanceMatrix::from_upper_triangle(n, &upper).unwrap())
}

/// Q/U t = 1 on nodes 0–5 of [`integer_rtt_network`], four `Balanced`
/// clients at each of nodes 0, 6 and 7, seeds 0–3: the exact-time-tie
/// configuration, one report per seed.
fn integer_tie_runs() -> Vec<SimReport> {
    let net = integer_rtt_network();
    let sys = QuorumSystem::majority(MajorityKind::FourFifths, 1).unwrap();
    let placement = Placement::new((0..6).map(NodeId::new).collect(), net.len()).unwrap();
    let pop = ClientPopulation::new(vec![NodeId::new(0), NodeId::new(6), NodeId::new(7)], 4);
    (0..4)
        .map(|seed| {
            let cfg = ProtocolConfig {
                warmup_requests: 5,
                measured_requests: 60,
                seed,
                ..ProtocolConfig::default()
            };
            simulate(&net, &sys, &placement, &pop, QuorumChoice::Balanced, &cfg).unwrap()
        })
        .collect()
}

/// One pinned row for several runs: each [`report_bits`] word digested
/// across the runs in order.
fn runs_bits(reports: &[SimReport]) -> [u64; 14] {
    let bits: Vec<[u64; 14]> = reports.iter().map(report_bits).collect();
    std::array::from_fn(|k| digest_words(bits.iter().map(|b| b[k])))
}

/// [`report_bits`] of each pinned run, recorded before the exact engine
/// moved from the binary heap to the time wheel. `carried`'s mean and
/// percentile words were re-recorded when the exact engine lost its
/// streamed-percentile mode: they are the buffered mean and exact
/// nearest-rank percentiles (136.495, 154.823 and 155.767 ms, where the
/// histogram read 136.5, 154.5 and 155.5 ms). `integer_ties` is
/// [`runs_bits`] over [`integer_tie_runs`], recorded on the engine that
/// scheduled one reply event per fragment.
const PINS: &[(&str, [u64; 14])] = &[
    (
        "balanced",
        [
            0x405ea88633c6590b,
            0x405ea65b96362b91,
            0x40610fdae432ec40,
            0x40635a565b322fa0,
            0x4063606eb22ce450,
            0x40c528e27fb0a1a0,
            0x21c,
            0x0,
            0x0,
            0x0,
            0xa063b985e5cbff4d,
            0xeef252555444e2bf,
            0x31b558be2e2f894f,
            0x6d4458b5dd59ad7,
        ],
    ),
    (
        "closest",
        [
            0x405d56f3faae49db,
            0x405d555b2031a24e,
            0x405f91fb7625b180,
            0x4062f2241ca93080,
            0x406309cdb11cd4d0,
            0x40c4bc561609e938,
            0x21c,
            0x0,
            0x0,
            0x0,
            0xd748c59771c38725,
            0x6846b4810a967529,
            0x59e2046f816cdee0,
            0x6d4458b5dd59ad7,
        ],
    ),
    (
        "weighted",
        [
            0x405dc78c0d2e67f8,
            0x405dc6beed0ce3f4,
            0x405f91fb7625b180,
            0x40635a565b322fa0,
            0x40635a565b322fa0,
            0x40c51be518062457,
            0x21c,
            0x0,
            0x0,
            0x0,
            0xf8af5611bdcf963c,
            0x9c6e19c4abda08dd,
            0x5af167e815286e91,
            0x6d4458b5dd59ad7,
        ],
    ),
    (
        "dedup",
        [
            0x4063279835ebef86,
            0x406313eeae173343,
            0x405e2492e3993880,
            0x406b5f7ef18ce500,
            0x406b82c7747b4300,
            0x40cdf68771b649c0,
            0x21c,
            0x0,
            0x0,
            0x0,
            0xfaf89a3d93a58add,
            0xf11bbb876cac9a0d,
            0x2831f09d46f950b5,
            0x6d4458b5dd59ad7,
        ],
    ),
    (
        "colocated",
        [
            0x406312c0d6f541ad,
            0x406302b7affca6ee,
            0x405de492e3993880,
            0x406b3f7ef18ce500,
            0x406c2bad2c0a3dc0,
            0x40cde75d5b034136,
            0x21c,
            0x0,
            0x0,
            0x0,
            0x19fcf973b608cbed,
            0x6f9a07f38001ce35,
            0xbf7ba1cdb2f94156,
            0x6d4458b5dd59ad7,
        ],
    ),
    (
        "crash_weighted",
        [
            0x4056c7f56e46a05c,
            0x4056c71b6ae7362c,
            0x4050cf905d6d2800,
            0x405cd7fe31cda100,
            0x405d0e35034389c0,
            0x40c01c53dd7aac7d,
            0x168,
            0x15,
            0x12,
            0x2,
            0x8d7dd94571ffea8c,
            0xde904df1c8b11a6,
            0x864cc9d4fb81422a,
            0x6d4458b5dd59ad7,
        ],
    ),
    (
        "crash_balanced",
        [
            0x405774aadcd08e32,
            0x405773b3715b2e09,
            0x4050f5c2ade2a650,
            0x405e312e3eb590c0,
            0x405e321f67bae8c0,
            0x40c0f0371d60c462,
            0x168,
            0x12,
            0x11,
            0x3,
            0x5e9cfb670aaf42fc,
            0x4e8e95bfbcdc5d30,
            0x92633a75616d1f06,
            0x6d4458b5dd59ad7,
        ],
    ),
    (
        "crash_closest",
        [
            0x405775202fcc95a9,
            0x405773b3715b2e0a,
            0x4050f5c2ade2a760,
            0x405e312e3eb590c0,
            0x405e321f67bae880,
            0x40c0ed974fabb824,
            0x168,
            0x12,
            0x12,
            0x6,
            0xa45d4d50ea7c08a,
            0x4cf943d3f4211aa4,
            0x94a9522b8e39e0d3,
            0x6d4458b5dd59ad7,
        ],
    ),
    (
        "crash_exhausted",
        [
            0x405d1a868055f202,
            0x4057120843ebccb1,
            0x405df629d2342880,
            0x4065e7531b879050,
            0x4065ef53cba21370,
            0x40be113ccb7d1d09,
            0x6a,
            0x289,
            0x162,
            0x0,
            0x922f9cdd2f50d57b,
            0x26aed5f3652d9bc5,
            0x45c3ab405a5da105,
            0x6d4458b5dd59ad7,
        ],
    ),
    (
        "carried",
        [
            0x405ed391b74882be,
            0x405eb4cfadaa6de7,
            0x40610fdae432ec40,
            0x40635a565b322fa0,
            0x406378878fa68540,
            0x40c22ae8080a2cda,
            0x21c,
            0x0,
            0x0,
            0x0,
            0x6ba426b4b19bacda,
            0x1ca22d80f603a851,
            0xd0c51c7dbe21d17a,
            0x6d4458b5dd59ad7,
        ],
    ),
    (
        "integer_ties",
        [
            0x3ef76a801cb428f9,
            0x5badc757360e76a1,
            0x769c6fa13109c921,
            0xba52990547be7961,
            0x2a6069bc05701097,
            0xd4a3c63babbfc201,
            0x63b746b044e03221,
            0xf71f44ddc1b1f3a1,
            0xf71f44ddc1b1f3a1,
            0xf71f44ddc1b1f3a1,
            0xcf2566e8650bff8f,
            0xfbe593be683f3e69,
            0x471f71f79b2ebe19,
            0x70bd0e0f7631fb29,
        ],
    ),
];

#[test]
fn exact_engine_reports_are_pinned_bit_for_bit() {
    let runs = pinned_runs();
    let mut got: Vec<(&str, [u64; 14])> = runs.iter().map(|(n, r)| (*n, report_bits(r))).collect();
    got.push(("integer_ties", runs_bits(&integer_tie_runs())));
    let render = |rows: &[(&str, [u64; 14])]| {
        rows.iter()
            .map(|(n, b)| format!("    (\"{n}\", {b:#x?}),"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(
        got == PINS,
        "exact-engine reports moved; actual pins:\n{}",
        render(&got)
    );
    let by_name = |name| &runs.iter().find(|(n, _)| *n == name).unwrap().1;
    // The fault cases really exercise the paths they are named for.
    let weighted = by_name("crash_weighted");
    assert!(weighted.timeouts > 0 && weighted.retries > 0 && weighted.failovers > 0);
    let exhausted = by_name("crash_exhausted");
    assert!(exhausted.timeouts > exhausted.retries && exhausted.failovers == 0);
}
