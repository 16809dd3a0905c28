//! §3 — the Q/U motivating experiments (Figures 3.1, 3.2a, 3.2b).
//!
//! The paper ran Q/U on a Modelnet emulation of the Planetlab-50 topology:
//! `n = 5t+1` servers with quorums of `4t+1`, placed by the
//! delay-minimizing one-to-one algorithm; 10 representative client
//! locations running `c` clients each; uniform-random quorum selection;
//! 1 ms of processing per request. We reproduce it with the `qp-protocol`
//! discrete-event simulation, averaging over 5 seeded runs exactly as the
//! paper averages over 5 experiment repetitions.

use qp_core::one_to_one::{self, SelectionObjective};
use qp_core::Placement;
use qp_par::ParPool;
use qp_protocol::{simulate_many, ClientPopulation, ProtocolConfig, QuorumChoice};
use qp_quorum::{MajorityKind, QuorumSystem};
use qp_topology::{datasets, Network};

use crate::{Scale, Table};

const RUNS: u64 = 5;

fn qu_system(t: usize) -> QuorumSystem {
    QuorumSystem::majority(MajorityKind::FourFifths, t).expect("t ≥ 1")
}

fn qu_placement(net: &Network, sys: &QuorumSystem) -> Placement {
    // The §3 text: servers placed by the algorithm that "approximately
    // minimizes the average network delay that each client experiences when
    // accessing a quorum uniformly at random".
    one_to_one::best_placement_by(net, sys, SelectionObjective::BalancedDelay)
        .expect("placement fits the 50-node topology")
}

fn measured_requests(scale: Scale) -> usize {
    match scale {
        Scale::Full => 120,
        Scale::Smoke => 15,
    }
}

/// Runs the Q/U DES for a prepared `(system, placement)` pair and
/// `clients-per-location`, returning `(avg response ms, avg network
/// delay ms)` averaged over [`RUNS`] seeds.
///
/// The seeded repetitions run through the parallel multi-run driver
/// ([`simulate_many`]); reports come back in seed order, so the
/// accumulation below matches the historical serial loop bit for bit.
fn qu_point(
    net: &Network,
    sys: &QuorumSystem,
    placement: &Placement,
    per_location: usize,
    scale: Scale,
) -> (f64, f64) {
    let base = ClientPopulation::representative(net, sys, placement, 10, 1);
    let pop = base.with_per_location(per_location);
    let seeds: Vec<u64> = (0..RUNS).collect();
    let reports = simulate_many(
        net,
        sys,
        placement,
        &pop,
        &QuorumChoice::Balanced,
        &ProtocolConfig {
            service_time_ms: 1.0,
            warmup_requests: 10,
            measured_requests: measured_requests(scale),
            seed: 0,
            service_multipliers: None,
            dedup_colocated: false,
            initial_server_busy_ms: None,
            fault: None,
        },
        &seeds,
    )
    .expect("simulation inputs are consistent");
    let mut resp = 0.0;
    let mut delay = 0.0;
    for report in &reports {
        resp += report.avg_response_ms;
        delay += report.avg_network_delay_ms;
    }
    (resp / RUNS as f64, delay / RUNS as f64)
}

/// Stage 1 of every §3 pipeline: the per-`t` system + placement pairs,
/// searched in parallel.
fn qu_setups(net: &Network, ts: &[usize]) -> Vec<(QuorumSystem, Placement)> {
    ParPool::global().run(ts.len(), |i| {
        let sys = qu_system(ts[i]);
        let placement = qu_placement(net, &sys);
        (sys, placement)
    })
}

fn t_values(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Full => vec![1, 2, 3, 4, 5],
        Scale::Smoke => vec![1, 2],
    }
}

fn client_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Full => (1..=10).collect(),
        Scale::Smoke => vec![1, 3],
    }
}

/// Figure 3.1: the response-time / network-delay surface over
/// (universe size `n = 5t+1`) × (number of clients `10·c`).
pub fn fig3_1(scale: Scale) -> Table {
    let net = datasets::planetlab_50();
    let mut table = Table::new(
        "fig3_1",
        "Fig 3.1 — Q/U avg response time & network delay vs universe size and #clients (Planetlab-50, DES)",
        vec![
            "universe_n".into(),
            "clients".into(),
            "network_delay_ms".into(),
            "response_time_ms".into(),
        ],
    );
    let ts = t_values(scale);
    let counts = client_counts(scale);
    let setups = qu_setups(&net, &ts);
    // Stage 2: every (t, clients) cell is an independent DES average.
    let cells: Vec<(usize, usize)> = (0..ts.len())
        .flat_map(|ti| (0..counts.len()).map(move |ci| (ti, ci)))
        .collect();
    let points = ParPool::global().run(cells.len(), |j| {
        let (ti, ci) = cells[j];
        let (sys, placement) = &setups[ti];
        qu_point(&net, sys, placement, counts[ci], scale)
    });
    for ((ti, ci), (resp, delay)) in cells.into_iter().zip(points) {
        table.push_row(vec![
            (5 * ts[ti] + 1) as f64,
            (10 * counts[ci]) as f64,
            delay,
            resp,
        ]);
    }
    table
}

/// Figure 3.2a: delay (black bars) and response (total bars) vs fault
/// threshold `t`, at 100 clients.
pub fn fig3_2a(scale: Scale) -> Table {
    let net = datasets::planetlab_50();
    let per_location = match scale {
        Scale::Full => 10,
        Scale::Smoke => 2,
    };
    let mut table = Table::new(
        "fig3_2a",
        "Fig 3.2a — Q/U avg network delay & response time vs #faults t (100 clients, Planetlab-50, DES)",
        vec![
            "t".into(),
            "universe_n".into(),
            "network_delay_ms".into(),
            "response_time_ms".into(),
        ],
    );
    let ts = t_values(scale);
    let setups = qu_setups(&net, &ts);
    let points = ParPool::global().run(ts.len(), |ti| {
        let (sys, placement) = &setups[ti];
        qu_point(&net, sys, placement, per_location, scale)
    });
    for (&t, (resp, delay)) in ts.iter().zip(points) {
        table.push_row(vec![t as f64, (5 * t + 1) as f64, delay, resp]);
    }
    table
}

/// Figure 3.2b: delay and response vs number of clients at `t = 4`
/// (`n = 21`).
pub fn fig3_2b(scale: Scale) -> Table {
    let net = datasets::planetlab_50();
    let t = match scale {
        Scale::Full => 4,
        Scale::Smoke => 1,
    };
    let counts = match scale {
        Scale::Full => (1..=11).collect::<Vec<_>>(),
        Scale::Smoke => vec![1, 2],
    };
    let mut table = Table::new(
        "fig3_2b",
        "Fig 3.2b — Q/U avg network delay & response time vs #clients (t=4, n=21, Planetlab-50, DES)",
        vec![
            "clients".into(),
            "network_delay_ms".into(),
            "response_time_ms".into(),
        ],
    );
    let setups = qu_setups(&net, &[t]);
    let (sys, placement) = &setups[0];
    let points = ParPool::global().run(counts.len(), |ci| {
        qu_point(&net, sys, placement, counts[ci], scale)
    });
    for (&c, (resp, delay)) in counts.iter().zip(points) {
        table.push_row(vec![(10 * c) as f64, delay, resp]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_1_smoke_has_expected_shape() {
        let t = fig3_1(Scale::Smoke);
        assert_eq!(t.columns.len(), 4);
        assert_eq!(t.rows.len(), 4); // 2 t-values × 2 client counts
        for row in &t.rows {
            let (delay, resp) = (row[2], row[3]);
            assert!(resp >= delay - 1e-9, "response below its network floor");
            assert!(delay > 0.0);
        }
    }

    #[test]
    fn fig3_2b_response_grows_with_clients() {
        let t = fig3_2b(Scale::Smoke);
        let resp = t.column("response_time_ms");
        assert!(*resp.last().unwrap() >= resp.first().unwrap() - 1.0);
    }
}
