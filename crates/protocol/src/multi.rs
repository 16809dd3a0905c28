//! The multi-run simulation driver: seeded DES repetitions in parallel.
//!
//! The paper averages every §3 data point over five experiment
//! repetitions; our figure pipelines mirror that with five seeded DES
//! runs per cell. [`simulate_many`] executes those runs on the global
//! [`qp_par::ParPool`] and returns the reports **in seed order**, so
//! downstream aggregation (sums, averages) touches results in the same
//! order as a serial loop — making the parallel driver bit-for-bit
//! equivalent for any thread count.

use qp_par::ParPool;
use qp_quorum::QuorumSystem;
use qp_topology::Network;

use qp_core::Placement;

use crate::sim::{simulate, ProtocolConfig, QuorumChoice, SimError, SimReport};
use crate::ClientPopulation;

/// Runs one simulation per seed — `config` with its `seed` replaced —
/// and returns the reports in seed order.
///
/// Runs execute in parallel on [`ParPool::global`]; each run's RNG is
/// derived purely from its own seed, so results are independent of the
/// schedule and identical to a serial loop over `seeds`.
///
/// # Errors
///
/// The error of the lowest-indexed failing run (all runs share the same
/// shapes, so in practice either all fail or none do).
///
/// # Examples
///
/// ```
/// use qp_protocol::{simulate_many, ClientPopulation, ProtocolConfig, QuorumChoice};
/// use qp_core::one_to_one;
/// use qp_quorum::{MajorityKind, QuorumSystem};
/// use qp_topology::datasets;
///
/// let net = datasets::planetlab_50();
/// let sys = QuorumSystem::majority(MajorityKind::FourFifths, 1)?;
/// let placement = one_to_one::best_placement(&net, &sys)?;
/// let clients = ClientPopulation::representative(&net, &sys, &placement, 4, 1);
/// let cfg = ProtocolConfig { measured_requests: 10, ..ProtocolConfig::default() };
/// let reports = simulate_many(
///     &net, &sys, &placement, &clients, &QuorumChoice::Balanced, &cfg, &[0, 1, 2],
/// )?;
/// assert_eq!(reports.len(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate_many(
    net: &Network,
    system: &QuorumSystem,
    placement: &Placement,
    clients: &ClientPopulation,
    choice: &QuorumChoice,
    config: &ProtocolConfig,
    seeds: &[u64],
) -> Result<Vec<SimReport>, SimError> {
    let runs: Vec<Result<SimReport, SimError>> = ParPool::global().run(seeds.len(), |i| {
        let cfg = ProtocolConfig {
            seed: seeds[i],
            ..config.clone()
        };
        simulate(net, system, placement, clients, choice.clone(), &cfg)
    });
    runs.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_core::one_to_one;
    use qp_quorum::MajorityKind;
    use qp_topology::datasets;

    #[test]
    fn parallel_runs_match_serial_loop_bitwise() {
        let net = datasets::planetlab_50();
        let sys = QuorumSystem::majority(MajorityKind::FourFifths, 1).unwrap();
        let placement = one_to_one::best_placement(&net, &sys).unwrap();
        let pop = ClientPopulation::representative(&net, &sys, &placement, 5, 2);
        let cfg = ProtocolConfig {
            warmup_requests: 5,
            measured_requests: 25,
            ..ProtocolConfig::default()
        };
        let seeds = [3u64, 1, 4, 1, 5];

        let parallel = simulate_many(
            &net,
            &sys,
            &placement,
            &pop,
            &QuorumChoice::Balanced,
            &cfg,
            &seeds,
        )
        .unwrap();

        for (i, &seed) in seeds.iter().enumerate() {
            let serial = simulate(
                &net,
                &sys,
                &placement,
                &pop,
                QuorumChoice::Balanced,
                &ProtocolConfig {
                    seed,
                    ..cfg.clone()
                },
            )
            .unwrap();
            assert_eq!(
                serial.avg_response_ms.to_bits(),
                parallel[i].avg_response_ms.to_bits(),
                "run {i} (seed {seed}) diverged from the serial driver"
            );
            assert_eq!(serial.completed_requests, parallel[i].completed_requests);
            assert_eq!(
                serial.horizon_ms.to_bits(),
                parallel[i].horizon_ms.to_bits()
            );
        }
    }

    #[test]
    fn shape_errors_propagate() {
        let net = datasets::euclidean_random(8, 50.0, 2);
        let sys = QuorumSystem::majority(MajorityKind::SimpleMajority, 1).unwrap();
        let placement = one_to_one::best_placement(&net, &sys).unwrap();
        let pop = ClientPopulation::representative(&net, &sys, &placement, 3, 1);
        let cfg = ProtocolConfig {
            service_multipliers: Some(vec![1.0; 99]), // wrong length
            ..ProtocolConfig::default()
        };
        let err = simulate_many(
            &net,
            &sys,
            &placement,
            &pop,
            &QuorumChoice::Balanced,
            &cfg,
            &[0, 1],
        )
        .unwrap_err();
        assert!(matches!(err, SimError::SizeMismatch(_)));
    }
}
