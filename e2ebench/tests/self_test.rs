//! Self-tests of the benchmark at smoke sizes: determinism of the
//! logical counters, traced ≡ untraced outputs, the open-loop client's
//! response framing, the percentile helper, and agreement between the
//! code and `BENCHMARK.json`.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use e2ebench::batch::{self, Layers};
use e2ebench::json::Json;
use e2ebench::metrics::{COUNTERS, PER_LAYER, RESULT_LINE};
use e2ebench::stats::tail;
use e2ebench::stream::{self, open_loop, Framer};
use e2ebench::{trace, Workload, DEFAULT_SECONDS};
use quorumnet::daemon::protocol::{read_response, Response};

/// The recorder and the worker-pool width are process-global; tests
/// that install a recorder or run LP code run one at a time.
static GLOBAL: Mutex<()> = Mutex::new(());

const BATCH: [Workload; 4] = [
    Workload::Wan2000Colgen,
    Workload::MillionAgg,
    Workload::PaperDes,
    Workload::PaperLp,
];

fn counters(l: &Layers) -> Vec<(String, f64)> {
    COUNTERS
        .iter()
        .map(|(n, _)| (n.to_string(), l.get(n)))
        .collect()
}

#[test]
fn logical_counters_repeat_exactly_and_traced_outputs_equal_untraced() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    qp_par::configure_threads(1);
    for w in BATCH {
        let p = batch::prepare(w, 0, true).unwrap();
        let plain = batch::execute(&p).unwrap();
        let (first, l1, t1) = batch::execute_traced(&p).unwrap();
        let (second, l2, _) = batch::execute_traced(&p).unwrap();
        assert_eq!(
            batch::digest(&plain),
            batch::digest(&first),
            "{}: traced output differs",
            w.name()
        );
        assert_eq!(
            batch::digest(&first),
            batch::digest(&second),
            "{}",
            w.name()
        );
        assert_eq!(
            counters(&l1),
            counters(&l2),
            "{}: counters moved between traced runs",
            w.name()
        );
        assert!(!t1.spans.is_empty(), "{}: no spans recorded", w.name());
        assert!(
            batch::check(w, &p, &plain, false).is_empty(),
            "{}",
            w.name()
        );
    }
}

#[test]
fn traced_stream_replay_repeats_and_matches_untraced() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = e2ebench::root().join("e2ebench/out/test-replay");
    let _ = std::fs::remove_dir_all(&dir);
    let (_, script) = stream::script_for(stream::SMOKE_DELTAS, 0, &dir.join("draws")).unwrap();
    let plain = stream::replay(&script, 20, &dir.join("plain")).unwrap();
    let run = |sub: &str| trace::traced(|| stream::replay(&script, 20, &dir.join(sub)).unwrap());
    let (a, ra) = run("a");
    let (b, rb) = run("b");
    assert_eq!(plain.answer, a.answer);
    assert_eq!(a.answer, b.answer);
    assert_eq!(a.pivots, b.pivots);
    for (_, names) in COUNTERS {
        for c in *names {
            assert_eq!(ra.counter(c), rb.counter(c), "{c}");
        }
    }
    assert_eq!(ra.trace().durations_ms("daemon.apply").len(), script.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A response stream as the daemon writes it.
fn wire(responses: &[Response]) -> Vec<u8> {
    responses
        .iter()
        .flat_map(|r| r.to_wire().into_bytes())
        .collect()
}

fn sample_responses() -> Vec<Response> {
    vec![
        Response::ok(
            "delta applied seq=1",
            vec!["capacity 1.0e0".into(), "pivots 3".into()],
        ),
        Response::err("bad delta: node 99 out of range"),
        Response::ok(
            "snapshot clients=2",
            vec!["strategy 0 1 0".into(), "strategy 1 0 1".into()],
        ),
        Response::ok("healthy", Vec::new()),
    ]
}

#[test]
fn framing_survives_every_split_point() {
    let responses = sample_responses();
    let bytes = wire(&responses);
    for cut in 0..=bytes.len() {
        for cut2 in cut..=bytes.len() {
            let mut f = Framer::default();
            let mut got = f.push(&bytes[..cut]);
            got.extend(f.push(&bytes[cut..cut2]));
            got.extend(f.push(&[]));
            got.extend(f.push(&bytes[cut2..]));
            assert_eq!(got, responses, "cuts at {cut} and {cut2}");
        }
    }
    let mut f = Framer::default();
    let got: Vec<Response> = bytes
        .iter()
        .flat_map(|b| f.push(std::slice::from_ref(b)))
        .collect();
    assert_eq!(got, responses);
}

#[test]
fn open_loop_client_survives_responses_split_across_reads_and_timeouts() {
    // The peer answers every request in three pieces with pauses longer
    // than the client's read timeout (the 2 ms send period), alternating
    // ok and err so the matching order is checked too.
    let (client, server) = UnixStream::pair().unwrap();
    let n = 12;
    let peer = std::thread::spawn(move || {
        let mut reader = BufReader::new(server.try_clone().unwrap());
        let mut server = server;
        for i in 0..n {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let r = if i % 2 == 0 {
                Response::ok(
                    format!("answer {i}"),
                    vec!["detail a".into(), "detail b".into()],
                )
            } else {
                Response::err(format!("refused {i}"))
            };
            let bytes = r.to_wire().into_bytes();
            let third = bytes.len() / 3;
            for piece in [
                &bytes[..third],
                &bytes[third..2 * third],
                &bytes[2 * third..],
            ] {
                server.write_all(piece).unwrap();
                server.flush().unwrap();
                std::thread::sleep(Duration::from_millis(3));
            }
        }
    });
    let cmds: Vec<String> = (0..n).map(|i| format!("query {i}\n")).collect();
    let start = Instant::now();
    let sent = open_loop(
        &client,
        &cmds,
        start,
        Duration::from_millis(2),
        Duration::from_secs(5),
    )
    .unwrap();
    peer.join().unwrap();
    assert_eq!(sent.len(), n);
    for (i, s) in sent.iter().enumerate() {
        assert!(s.done.is_some(), "command {i} unanswered");
        assert_eq!(s.ok, i % 2 == 0, "command {i} matched the wrong response");
        assert!(s.latency_ms().unwrap() >= 0.0);
    }
    // Responses come in order, so completion times never go backwards.
    assert!(sent.windows(2).all(|w| w[0].done <= w[1].done));
}

#[test]
fn open_loop_client_drives_a_real_server() {
    use quorumnet::core::one_to_one;
    use quorumnet::daemon::server::{Endpoint, Server};
    use quorumnet::daemon::{Session, SessionConfig};
    use quorumnet::quorum::QuorumSystem;
    use quorumnet::topology::datasets;

    // The session's LP solves would land in another test's recorder.
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let net = datasets::euclidean_random(12, 100.0, 7);
    let sys = QuorumSystem::grid(3).unwrap();
    let placement = one_to_one::best_placement(&net, &sys).unwrap();
    let session = Session::new(SessionConfig {
        net,
        quorums: sys.enumerate(100).unwrap(),
        placement,
        alpha: 12.0,
        l_opt: sys.optimal_load().unwrap(),
        sweep_steps: 5,
        colgen: None,
    })
    .unwrap();
    let sock = std::path::PathBuf::from(format!("out/selftest-{}.sock", std::process::id()));
    std::fs::create_dir_all("out").unwrap();
    let server = Server::bind(&Endpoint::Unix(sock.clone())).unwrap();
    let handle = std::thread::spawn(move || server.run(session).unwrap());
    let conn = loop {
        if let Ok(c) = UnixStream::connect(&sock) {
            break c;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let cmds: Vec<String> = stream::delta_script(30, 12, 3)
        .iter()
        .map(stream::wire)
        .chain((0..10).map(|i| {
            if i % 2 == 0 {
                "snapshot\n".into()
            } else {
                "query\n".into()
            }
        }))
        .collect();
    let sent = open_loop(
        &conn,
        &cmds,
        Instant::now(),
        Duration::from_millis(1),
        Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(sent.len(), cmds.len());
    assert!(sent.iter().all(|s| s.ok && s.done.is_some()), "{sent:?}");
    let r = stream::request(&sock, "shutdown").unwrap();
    assert!(r.ok);
    drop(conn);
    handle.join().unwrap();
    // The same framing the daemon's own client uses reads it back.
    let bytes = wire(&sample_responses());
    let mut cursor = std::io::Cursor::new(bytes);
    assert_eq!(read_response(&mut cursor).unwrap(), sample_responses()[0]);
}

#[test]
fn percentile_helper_picks_the_highest_percentile_with_ten_beyond() {
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail(&xs, 10), Some((99.0, 990.0)));
    let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(tail(&xs, 10), Some((90.0, 90.0)));
    let xs: Vec<f64> = (1..=600).map(f64::from).collect();
    let (p, v) = tail(&xs, 10).unwrap();
    assert_eq!(v, 590.0);
    assert!((p - 98.333_333).abs() < 1e-3);
    assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    assert_eq!(tail(&xs[..11], 10).map(|t| t.1), Some(1.0));
    assert_eq!(tail(&xs[..10], 10), None);
}

#[test]
fn benchmark_json_matches_the_code() {
    let text = std::fs::read_to_string(e2ebench::root().join("BENCHMARK.json")).unwrap();
    let b = Json::parse(&text).unwrap();
    assert_eq!(
        b.get("run_seconds").and_then(Json::num),
        Some(DEFAULT_SECONDS)
    );
    let names = |key: &str| -> Vec<String> {
        b.get(key)
            .unwrap()
            .items()
            .iter()
            .map(|m| m.get("name").and_then(Json::str).unwrap().to_string())
            .collect()
    };
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names("workloads"), workloads);
    let e2e = b.get("end_to_end").unwrap().items();
    assert_eq!(e2e.len(), RESULT_LINE.len());
    for (m, d) in e2e.iter().zip(RESULT_LINE) {
        assert_eq!(m.get("name").and_then(Json::str), Some(d.name));
        assert_eq!(m.get("unit").and_then(Json::str), Some(d.unit));
        assert_eq!(m.get("bound").and_then(Json::num), Some(d.bound));
        assert_eq!(m.get("better").and_then(Json::str), Some("lower"));
    }
    let layers = b.get("per_layer").unwrap().items();
    assert_eq!(layers.len(), PER_LAYER.len());
    for (m, (name, unit)) in layers.iter().zip(PER_LAYER) {
        assert_eq!(m.get("name").and_then(Json::str), Some(*name));
        assert_eq!(m.get("unit").and_then(Json::str), Some(*unit));
    }
}
