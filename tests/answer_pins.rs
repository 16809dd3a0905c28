//! Bit-for-bit pins of the LP answers on planetlab50 `grid:5` (the
//! e2ebench quorumd deployment): the restricted master's batch solves, a
//! `quorumd` session replaying a scripted delta stream, and the
//! many-to-one placement search over its placement LPs.
//!
//! These hold the solver paths still while code around them is
//! refactored: a change that keeps every answer's bits keeps these
//! digests. A change that moves them on purpose (another optimal vertex,
//! a pivot-rule change) re-records them in a commit of its own; the
//! assertion messages print the new values.

use quorumnet::core::capacity::{capacity_sweep, CapacityChoice};
use quorumnet::core::eval::EvalContext;
use quorumnet::core::manyone::{self, ManyToOneConfig};
use quorumnet::core::strategy_lp::{self, ColGenSolver, ColumnGeneration, StrategyLpOutcome};
use quorumnet::daemon::{Answer, Delta, Session, SessionConfig};
use quorumnet::prelude::*;

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

/// FNV-1a over the bit patterns of a vector.
fn digest(xs: &[f64]) -> u64 {
    digest_words(xs.iter().map(|x| x.to_bits()))
}

/// planetlab50 with the best one-to-one 5×5 Grid placement, the Grid's
/// quorums and its optimal load.
fn grid5() -> (Network, Placement, Vec<Quorum>, f64) {
    let net = datasets::planetlab_50();
    let sys = QuorumSystem::grid(5).unwrap();
    let placement = one_to_one::best_placement(&net, &sys).unwrap();
    let quorums = sys.enumerate(100_000).unwrap();
    let l_opt = sys.optimal_load().unwrap();
    (net, placement, quorums, l_opt)
}

/// The response model of `quorumnet serve --demand 16000`.
fn model() -> ResponseModel {
    ResponseModel::from_demand(0.007, 16_000.0)
}

/// A solve's strategy bits, delay, capacity duals, solver counters and
/// pricing counters.
fn outcome_words(o: &StrategyLpOutcome) -> [u64; 10] {
    let s = &o.strategy;
    let strategy: Vec<f64> = (0..s.num_clients())
        .flat_map(|v| s.row(v).to_vec())
        .collect();
    [
        digest(&strategy),
        o.delay_ms.to_bits(),
        digest(&o.capacity_duals),
        o.stats.iterations as u64,
        o.stats.refactors as u64,
        o.stats.full_prices as u64,
        o.colgen.columns_in_master as u64,
        o.colgen.columns_generated as u64,
        o.colgen.oracle_passes as u64,
        o.colgen.master_resolves as u64,
    ]
}

/// The §7 uniform sweep through [`strategy_lp::tune_capacity`], then the
/// same points solved one by one on a second master, then one solve under
/// skewed demand weights on a fresh master.
#[test]
fn colgen_solver_outcomes_are_pinned() {
    let (net, placement, quorums, l_opt) = grid5();
    let clients: Vec<NodeId> = net.nodes().collect();
    let ctx = EvalContext::new(&net, &clients);
    let pq = ctx.place(&placement, &quorums);
    let n = clients.len();
    let steps = 10;

    let uniform = vec![1.0; n];
    let mut solver = ColGenSolver::new(&pq, ColumnGeneration::default()).unwrap();
    let choice = CapacityChoice::Sweep { steps };
    let tuned =
        strategy_lp::tune_capacity(&mut solver, &pq, &uniform, l_opt, choice, model()).unwrap();
    let points: Vec<u64> = tuned
        .points
        .iter()
        .flat_map(|(c, e)| {
            [
                c.to_bits(),
                e.avg_response_ms.to_bits(),
                e.avg_network_delay_ms.to_bits(),
            ]
        })
        .collect();
    let p = solver.pricing();
    let mut sweep = outcome_words(&tuned.outcome).to_vec();
    sweep.extend([
        tuned.capacity.unwrap().to_bits(),
        digest_words(points.into_iter()),
        solver.pivots() as u64,
        p.columns_in_master as u64,
        p.columns_generated as u64,
        p.oracle_passes as u64,
        p.master_resolves as u64,
    ]);

    let mut replay = ColGenSolver::new(&pq, ColumnGeneration::default()).unwrap();
    let mut per_point: Vec<u64> = Vec::new();
    for c in capacity_sweep(l_opt, steps) {
        match replay.solve_profile(&CapacityProfile::uniform(net.len(), c)) {
            Ok(o) => per_point.extend(outcome_words(&o)),
            Err(CoreError::Infeasible) => per_point.push(u64::MAX),
            Err(e) => panic!("c={c}: {e}"),
        }
    }
    sweep.push(digest_words(per_point.into_iter()));

    let skewed: Vec<f64> = (0..n).map(|v| 1.0 + (v % 5) as f64).collect();
    let mut weighted =
        ColGenSolver::with_weights(&pq, &skewed, ColumnGeneration::default()).unwrap();
    let o = weighted
        .solve_profile(&CapacityProfile::uniform(net.len(), 0.5))
        .unwrap();
    assert_eq!(weighted.pricing_violations(), Some(0));
    let weighted = outcome_words(&o);

    const SWEEP: [u64; 18] = [
        0x147a_f2cb_3b61_23e7,
        0x4057_ccee_3fc4_4b25,
        0x6fdc_f15f_dc84_1adf,
        350,
        4,
        52,
        430,
        230,
        3,
        4,
        0x3fdb_22d0_e560_4189,
        0x4327_5c32_66a3_bfd7,
        465,
        430,
        230,
        12,
        13,
        0xdc8b_99be_272c_7988,
    ];
    const WEIGHTED: [u64; 10] = [
        0x062c_33e3_e9ec_500a,
        0x4055_f8bb_d4c1_5b9e,
        0x78ea_fb5d_0c33_c495,
        244,
        3,
        34,
        401,
        201,
        2,
        3,
    ];
    assert_eq!(sweep, SWEEP, "sweep pin moved: {sweep:#x?}");
    assert_eq!(weighted, WEIGHTED, "weighted pin moved: {weighted:#x?}");
}

/// A 40-delta stream of slowdowns and demand shifts over `nodes` nodes,
/// and crashes and restores of `hosts`, at most two down at once.
fn script(nodes: usize, hosts: &[usize]) -> Vec<Delta> {
    let frac = |h: u64| ((h >> 8) & 0xffff) as f64 / 65536.0;
    let mut crashed: Vec<usize> = Vec::new();
    let mut out = Vec::new();
    let mut k = 0;
    while out.len() < 40 {
        let h = qp_par::job_seed(0x9e1d_5eed, k);
        k += 1;
        let node = ((h >> 24) as usize) % nodes;
        out.push(match h % 8 {
            0..=2 => Delta::Slowdown {
                site: node,
                factor: 1.0 + 2.0 * frac(h),
            },
            3..=5 => Delta::Demand {
                loc: node,
                weight: 0.1 + 3.0 * frac(h),
            },
            6 if crashed.len() < 2 && !crashed.contains(&hosts[node % hosts.len()]) => {
                let node = hosts[node % hosts.len()];
                crashed.push(node);
                Delta::Crash { node }
            }
            _ if !crashed.is_empty() => Delta::Restore {
                node: crashed.remove(0),
            },
            _ => continue,
        });
    }
    out
}

/// Every answer of a `quorumd` session (its opening answer, then one per
/// delta of [`script`]) and its final status.
#[test]
fn quorumd_session_replay_is_pinned() {
    let (net, placement, quorums, l_opt) = grid5();
    let n = net.len();
    let hosts: Vec<usize> = placement.support_set().iter().map(|v| v.index()).collect();
    let mut session = Session::new(SessionConfig {
        net,
        quorums,
        placement,
        alpha: model().alpha(),
        l_opt,
        sweep_steps: 10,
        colgen: None,
    })
    .unwrap();
    let mut answers: Vec<Answer> = vec![session.answer().clone()];
    for (step, d) in script(n, &hosts).iter().enumerate() {
        let report = session
            .apply(d)
            .unwrap_or_else(|e| panic!("step {step} ({d:?}): {e}"));
        answers.push(report.answer);
    }
    let field = |f: &dyn Fn(&Answer) -> u64| digest_words(answers.iter().map(f));
    let replay = [
        field(&|a| a.capacity.to_bits()),
        field(&|a| a.delay_ms.to_bits()),
        field(&|a| a.response_ms.to_bits()),
        field(&|a| digest(&a.strategy.concat())),
        field(&|a| a.pivots),
    ];
    let s = session.status();
    let slowed: Vec<u64> = s
        .slowed
        .iter()
        .flat_map(|&(w, f)| [w as u64, f.to_bits()])
        .collect();
    let status = [
        s.seq,
        s.capacity.to_bits(),
        s.delay_ms.to_bits(),
        s.response_ms.to_bits(),
        digest_words(s.crashed.iter().map(|&w| w as u64)),
        digest_words(slowed.into_iter()),
        s.warm_pivots,
        u64::from(s.degraded),
    ];

    const REPLAY: [u64; 5] = [
        0x21b1_e58e_dd8c_26c9,
        0x3302_31e8_5236_e2dd,
        0x99e7_06bb_2ee6_1343,
        0xa068_775c_88ce_61f0,
        0xa7d9_2d1a_6db0_a96f,
    ];
    const STATUS: [u64; 8] = [
        40,
        0x3fdf_3b64_5a1c_ac08,
        0x405e_542f_41fc_e3ef,
        0x4064_b4b4_8c01_c24c,
        0xcbf2_9ce4_8422_2325,
        0x4010_bb8f_fd5f_6e0b,
        7233,
        0,
    ];
    assert_eq!(replay, REPLAY, "replay pin moved: {replay:#x?}");
    assert_eq!(status, STATUS, "status pin moved: {status:#x?}");
}

/// The many-to-one placement search under uniform quorum probabilities at
/// three (capacity, slack) points: a digest of the hosts, and the bits of
/// the LP objective, the rounded objective and the largest capacity ratio.
#[test]
fn manyone_best_placement_is_pinned() {
    let net = datasets::planetlab_50();
    let quorums = QuorumSystem::grid(5).unwrap().enumerate(100_000).unwrap();
    let probs = vec![1.0 / quorums.len() as f64; quorums.len()];
    let searches: Vec<[u64; 4]> = [(1.0, 2.0), (0.5, 2.0), (0.8, 1.0)]
        .into_iter()
        .map(|(capacity, capacity_slack)| {
            let caps = CapacityProfile::uniform(net.len(), capacity);
            let config = ManyToOneConfig { capacity_slack };
            let o = manyone::best_placement(&net, &quorums, &probs, &caps, &config)
                .unwrap_or_else(|e| panic!("capacity {capacity}, slack {capacity_slack}: {e}"));
            let hosts = o.placement.as_slice().iter().map(|w| w.index() as u64);
            [
                digest_words(hosts),
                o.lp_objective.to_bits(),
                o.rounded_objective.to_bits(),
                o.max_capacity_ratio.to_bits(),
            ]
        })
        .collect();

    const SEARCHES: [[u64; 4]; 3] = [
        [
            0xc447_c40e_e48b_27ed,
            0x4053_0f24_1cf2_69cc,
            0x4052_bffe_6800_a6fd,
            0x4001_47ae_147a_e147,
        ],
        [
            0xccbe_f532_2d1d_a8b5,
            0x4054_064f_9312_8701,
            0x4057_0850_33b1_1712,
            0x4001_47ae_147a_e148,
        ],
        [
            0xeb8d_9cd6_220d_7d52,
            0x4062_7dde_e628_0ab6,
            0x4063_dc32_dbc8_5399,
            0x3fec_cccc_cccc_cccc,
        ],
    ];
    assert_eq!(searches, SEARCHES, "many-to-one pin moved: {searches:#x?}");
}
