//! quorumd joins the threads of finished connections while it serves.
//! Each connection runs on a thread of its own, and a thread that is
//! never joined keeps its stack mapped, so a daemon that held every
//! handle until shutdown grew by one stack per connection it ever took.
//!
//! Linux only: it reads the process's `VmSize` from `/proc/self/status`.
//! It is a test binary of its own, so no other test's threads move that
//! figure.

#![cfg(target_os = "linux")]

use std::io::{BufReader, Write};
use std::thread;
use std::time::{Duration, Instant};

use qp_core::one_to_one;
use qp_daemon::protocol::read_response;
use qp_daemon::server::connect;
use qp_daemon::{Endpoint, Server, Session, SessionConfig};
use qp_quorum::QuorumSystem;
use qp_topology::datasets;

/// The process's virtual size in KiB.
fn vm_size_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find(|l| l.starts_with("VmSize:"))
        .expect("VmSize line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

fn session() -> Session {
    let net = datasets::euclidean_random(12, 100.0, 7);
    let sys = QuorumSystem::grid(3).unwrap();
    let placement = one_to_one::best_placement(&net, &sys).unwrap();
    let quorums = sys.enumerate(100).unwrap();
    Session::new(SessionConfig {
        net,
        quorums,
        placement,
        alpha: 12.0,
        l_opt: sys.optimal_load().unwrap(),
        sweep_steps: 5,
        colgen: None,
    })
    .unwrap()
}

/// One short connection: `command`, its answer, and close.
fn request(endpoint: &Endpoint, command: &str) {
    let mut stream = BufReader::new(connect(endpoint).unwrap());
    stream
        .get_mut()
        .write_all(format!("{command}\n").as_bytes())
        .unwrap();
    let r = read_response(&mut stream).unwrap();
    assert!(r.ok, "{command} failed: {}", r.summary);
}

#[test]
fn finished_connection_threads_are_joined() {
    let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
    let endpoint = Endpoint::Tcp(server.local_addr());
    let daemon = thread::spawn(move || server.run(session()).unwrap());

    let t0 = Instant::now();
    request(&endpoint, "health");
    let before = vm_size_kib();
    let connections = 1_000;
    for _ in 0..connections {
        request(&endpoint, "health");
    }
    let grown_mib = vm_size_kib().saturating_sub(before) / 1024;
    let elapsed = t0.elapsed();

    request(&endpoint, "shutdown");
    let summary = daemon.join().unwrap();
    assert_eq!(summary.connections, connections + 2);
    // An accept loop that polls, rather than blocks, makes every
    // connection wait out its sleep: 20 ms each took 20 s here.
    assert!(
        elapsed < Duration::from_secs(10),
        "{} sequential connections took {elapsed:?}",
        connections + 1
    );
    // Unjoined, the threads' stacks alone would add about 2 GiB.
    assert!(
        grown_mib < 512,
        "VmSize grew by {grown_mib} MiB over {connections} sequential connections"
    );
}
