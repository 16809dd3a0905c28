//! The `quorumd_stream` workload: the request-serving path of a live
//! `quorumnet serve` process, driven over its Unix socket.
//!
//! One run:
//! 1. starts the daemon on empty state directories several times and
//!    times spawn → first `ok` to `health` (`setup_s`);
//! 2. on the last one, sends a seeded delta script open-loop at
//!    [`RATE_HZ`] on connection A and reads (`query`, every 10th a
//!    `snapshot`) open-loop at the same rate, half a period later, on
//!    connection B — one thread per connection, each sending a command
//!    when it is due and reading with a timeout set to the next due
//!    time; latency counts from the due time;
//! 3. times sequential fresh-connection `health` probes, then runs
//!    `check`, `metrics` and `query`;
//! 4. kills the daemon with SIGKILL, restarts it on the same state
//!    directory, times kill → first `ok` to `health` (`recovery_s`),
//!    and checks that `query` answers as before the kill.
//!
//! A traced run also replays the same script in-process through
//! `Session::apply` and `Persistence::record` to split a delta's time
//! into its layers.

use std::io::{self, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use quorumnet::core::{one_to_one, ResponseModel};
use quorumnet::daemon::protocol::{read_response, Response};
use quorumnet::daemon::server::execute;
use quorumnet::daemon::{
    recover, Command as DaemonCommand, Delta, Persistence, Session, SessionConfig,
};
use quorumnet::obs;
use quorumnet::quorum::QuorumSystem;
use quorumnet::topology::datasets;

use crate::batch::peak_rss_mb;
use crate::metrics::{Outcome, Value, COUNTERS};
use crate::stats::{mean, median, tail};
use crate::{trace, Ctx};

/// Deltas (and reads) per second.
const RATE_HZ: f64 = 40.0;
/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;
/// Deltas in a `--smoke` run.
pub const SMOKE_DELTAS: usize = 50;
/// Daemon starts per run, the serving one included.
const SETUP_SPAWNS: usize = 11;
/// Sequential fresh-connection `health` probes per run.
const PROBES: usize = 100;
/// The served deployment: `quorumnet serve` arguments.
const DATASET: &str = "planetlab50";
const NODES: usize = 50;
const GRID_K: usize = 5;
const DEMAND: f64 = 16_000.0;
/// `quorumnet serve`'s default per-request service time and sweep.
const OP_TIME_MS: f64 = 0.007;
const SWEEP_STEPS: usize = 10;
const SNAPSHOT_EVERY: usize = 64;
const SCRIPT_SEED: u64 = 0x50ce_a11d;
/// How long to wait for a daemon to answer its first `health`.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// How long to wait for outstanding responses after the last send.
const DRAIN: Duration = Duration::from_secs(10);

/// A seeded delta script in the style of the daemon soak test:
/// slowdowns, demand shifts, and crash/restore churn with at most two
/// nodes down at once, so a grid always keeps a live quorum.
pub fn delta_script(len: usize, num_nodes: usize, seed: u64) -> Vec<Delta> {
    let frac = |h: u64, shift: u32| ((h >> shift) & 0xffff) as f64 / 65536.0;
    let mut crashed: Vec<usize> = Vec::new();
    let mut out = Vec::with_capacity(len);
    let mut k = 0usize;
    while out.len() < len {
        let h = qp_par::job_seed(seed, k);
        k += 1;
        let node = ((h >> 24) as usize) % num_nodes;
        match h % 10 {
            0..=3 => out.push(Delta::Slowdown {
                site: node,
                factor: 1.0 + 2.0 * frac(h, 8),
            }),
            4..=6 => out.push(Delta::Demand {
                loc: node,
                weight: 0.1 + 3.0 * frac(h, 8),
            }),
            7 => out.push(Delta::Slowdown {
                site: node,
                factor: 1.0,
            }),
            8 if crashed.len() < 2 && !crashed.contains(&node) => {
                crashed.push(node);
                out.push(Delta::Crash { node });
            }
            _ => {
                if !crashed.is_empty() {
                    out.push(Delta::Restore {
                        node: crashed.remove(0),
                    });
                }
            }
        }
    }
    out
}

/// A delta as a protocol request line.
pub fn wire(d: &Delta) -> String {
    match *d {
        Delta::Slowdown { site, factor } => format!("slowdown {site} {factor:?}\n"),
        Delta::Demand { loc, weight } => format!("demand {loc} {weight:?}\n"),
        Delta::Crash { node } => format!("crash {node}\n"),
        Delta::Restore { node } => format!("restore {node}\n"),
    }
}

/// The run's delta script: `len` deltas drawn from `seed`.
///
/// `quorumd`'s capacity tune can tie between sweep points; its `check`
/// and the cross-check on recovery then report a mismatch and the
/// restarted daemon refuses to start (a known defect, listed in
/// `README.md`). So that no command of the workload fails, each draw
/// is first replayed in-process exactly as the daemon will run it —
/// every delta, `check` on the final state, and recovery from the
/// persisted state — and a draw that fails is replaced by the next one.
///
/// Returns the draw number with the script.
///
/// # Errors
///
/// Eight failing draws in a row, or a persistence failure in `scratch`.
pub fn script_for(len: usize, seed: u64, scratch: &Path) -> Result<(u64, Vec<Delta>), String> {
    for draw in 0..8 {
        let script = delta_script(
            len,
            NODES,
            qp_par::job_seed(SCRIPT_SEED + draw, seed as usize),
        );
        if runs_clean(&script, &scratch.join(format!("draw-{draw}")))? {
            return Ok((draw, script));
        }
    }
    Err(format!(
        "eight delta scripts in a row fail a daemon command (seed {seed})"
    ))
}

fn runs_clean(script: &[Delta], dir: &Path) -> Result<bool, String> {
    let cfg = session_config()?;
    let mut session = Session::new(cfg.clone()).map_err(|e| e.to_string())?;
    let mut persist =
        Persistence::open(dir, SNAPSHOT_EVERY, &session).map_err(|e| e.to_string())?;
    for d in script {
        if session.apply(d).is_err() {
            return Ok(false);
        }
        persist.record(d, &session).map_err(|e| e.to_string())?;
    }
    drop(persist);
    Ok(session.cold_check().is_ok_and(|c| c.ok) && recover(cfg, dir).is_ok())
}

/// Incremental response framing: bytes in, complete responses out,
/// whatever the read boundaries.
#[derive(Debug, Default)]
pub struct Framer {
    pending: Vec<u8>,
    current: Option<Response>,
}

impl Framer {
    /// Feeds `bytes` and returns every response they complete.
    pub fn push(&mut self, bytes: &[u8]) -> Vec<Response> {
        self.pending.extend_from_slice(bytes);
        let mut done = Vec::new();
        let mut start = 0;
        while let Some(pos) = self.pending[start..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.pending[start..start + pos]).into_owned();
            start += pos + 1;
            match self.current.take() {
                None => {
                    let (ok, summary) = match line.split_once(' ') {
                        Some(("ok", rest)) => (true, rest.to_string()),
                        _ if line == "ok" => (true, String::new()),
                        Some(("err", rest)) => (false, rest.to_string()),
                        _ => (false, line),
                    };
                    self.current = Some(Response {
                        ok,
                        summary,
                        detail: Vec::new(),
                    });
                }
                Some(r) if line == "." => done.push(r),
                Some(mut r) => {
                    r.detail.push(line);
                    self.current = Some(r);
                }
            }
        }
        self.pending.drain(..start);
        done
    }
}

/// One open-loop command as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// When it was due.
    pub due: Instant,
    /// When it was written.
    pub sent: Instant,
    /// When its response completed (`None`: never answered).
    pub done: Option<Instant>,
    /// Whether the response was `ok`.
    pub ok: bool,
}

impl Sent {
    /// Due → response, ms.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| (d - self.due).as_secs_f64() * 1e3)
    }

    /// Due → written: how late the generator ran, ms.
    pub fn lag_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }
}

/// Sends `cmds[i]` at `first_due + i·period` on `stream` whatever the
/// responses do, reading between sends with a timeout set to the next
/// due time, and after the last send waits up to `drain` for the
/// remaining responses. Responses arrive in request order.
///
/// # Errors
///
/// A failed write or read (not a read timeout).
pub fn open_loop(
    stream: &UnixStream,
    cmds: &[String],
    first_due: Instant,
    period: Duration,
    drain: Duration,
) -> io::Result<Vec<Sent>> {
    let mut framer = Framer::default();
    let mut out: Vec<Sent> = Vec::with_capacity(cmds.len());
    let mut answered = 0;
    let mut buf = vec![0u8; 64 * 1024];
    let (mut reader, mut writer) = (stream, stream);
    let due = |i: usize| first_due + period.mul_f64(i as f64);
    loop {
        let next = out.len();
        if next < cmds.len() && Instant::now() >= due(next) {
            writer.write_all(cmds[next].as_bytes())?;
            out.push(Sent {
                due: due(next),
                sent: Instant::now(),
                done: None,
                ok: false,
            });
            continue;
        }
        if next == cmds.len() && answered == next {
            break;
        }
        let deadline = if next < cmds.len() {
            due(next)
        } else {
            out.last().map_or(first_due, |s| s.sent) + drain
        };
        let now = Instant::now();
        if next == cmds.len() && now >= deadline {
            break;
        }
        reader.set_read_timeout(Some(
            deadline
                .saturating_duration_since(now)
                .max(Duration::from_micros(100)),
        ))?;
        match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(k) => {
                let t = Instant::now();
                for r in framer.push(&buf[..k]) {
                    if let Some(s) = out.get_mut(answered) {
                        s.done = Some(t);
                        s.ok = r.ok;
                        answered += 1;
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

/// One request on a fresh connection.
///
/// # Errors
///
/// Connect, write, or read failures (including a 30 s read timeout).
pub fn request(sock: &Path, cmd: &str) -> io::Result<Response> {
    let stream = UnixStream::connect(sock)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    (&stream).write_all(format!("{cmd}\n").as_bytes())?;
    read_response(&mut BufReader::new(&stream))
}

/// A `quorumnet serve` child process; killed and reaped on drop.
struct Daemon {
    child: Child,
}

impl Daemon {
    fn spawn(bin: &Path, sock: &Path, state: &Path, log: &Path) -> Result<Daemon, String> {
        let log =
            std::fs::File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
        let child = Command::new(bin)
            .args(["serve", "--socket"])
            .arg(sock)
            .args(["--dataset", DATASET, "--system", &format!("grid:{GRID_K}")])
            .args([
                "--demand",
                &DEMAND.to_string(),
                "--threads",
                "1",
                "--state-dir",
            ])
            .arg(state)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        Ok(Daemon { child })
    }

    /// Polls `sock` until `health` answers `ok`; returns the seconds
    /// since `t0`.
    fn wait_healthy(&mut self, sock: &Path, t0: Instant) -> Result<f64, String> {
        loop {
            if let Ok(r) = request(sock, "health") {
                if r.ok {
                    return Ok(t0.elapsed().as_secs_f64());
                }
                return Err(format!("health answered err {}", r.summary));
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon exited with {status} before answering"));
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err("daemon never answered health".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&PathBuf::from(format!("/proc/{}/status", self.child.id())))
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Sends `shutdown` and waits for the process to exit.
    fn shutdown(mut self, sock: &Path) -> Result<(), String> {
        let answer = request(sock, "shutdown").map_err(|e| format!("shutdown: {e}"))?;
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(10) {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() && answer.ok {
                    Ok(())
                } else {
                    Err(format!("daemon shut down with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// `capacity`, `delay_ms` and `response_ms` from a `query` response.
fn answer_of(r: &Response) -> Option<[f64; 3]> {
    let get = |key: &str| {
        r.detail
            .iter()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.parse::<f64>().ok())
    };
    Some([get("capacity")?, get("delay_ms")?, get("response_ms")?])
}

fn close(a: [f64; 3], b: [f64; 3]) -> bool {
    a.iter()
        .zip(&b)
        .all(|(x, y)| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(f64::MIN_POSITIVE))
}

/// A metric line's value from a `metrics` exposition.
fn exposition_value(r: &Response, name: &str) -> Option<f64> {
    r.detail
        .iter()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

/// Runs the workload.
pub fn run(ctx: &Ctx, trace: bool) -> Outcome {
    let mut out = Outcome::new("quorumd_stream");
    let dir = ctx
        .out_dir()
        .join(format!("quorumd_stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        out.attempt(false, || format!("creating {}: {e}", dir.display()));
        return out;
    }
    if let Err(e) = drive(ctx, trace, &dir, &mut out) {
        out.attempt(false, || e);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Everything the live part measured that the traced part reuses.
struct Live {
    script: Vec<Delta>,
    reads: usize,
    answer: [f64; 3],
    delta_latency_mean_ms: f64,
    daemon_delta_wall_mean_ms: f64,
    connect_p50_ms: f64,
    state_copy: PathBuf,
}

fn drive(ctx: &Ctx, trace: bool, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let bin = ctx.quorumnet_bin();
    if !bin.is_file() {
        return Err(format!(
            "{} not found: build it with `cargo build --release`",
            bin.display()
        ));
    }
    let sock = crate::relative(&dir.join("q.sock"));
    let state = dir.join("state");
    let log = dir.join("daemon.log");
    let n = if ctx.smoke {
        SMOKE_DELTAS
    } else {
        ((ctx.seconds * RATE_HZ).round() as usize).max(1)
    };
    let (draw, script) = script_for(n, ctx.seed, &dir.join("draws"))?;

    // 1. Set-up: daemon starts on empty state directories.
    let mut setup = Vec::new();
    for i in 0..SETUP_SPAWNS - 1 {
        let t0 = Instant::now();
        let mut d = Daemon::spawn(&bin, &sock, &dir.join(format!("setup-{i}")), &log)?;
        let healthy = d.wait_healthy(&sock, t0);
        out.attempt(healthy.is_ok(), || {
            format!("setup start {i}: {:?}", healthy.clone().err())
        });
        setup.push(healthy?);
        let down = d.shutdown(&sock);
        out.attempt(down.is_ok(), || {
            format!("setup shutdown {i}: {:?}", down.clone().err())
        });
        down?;
    }
    let t0 = Instant::now();
    let mut daemon = Daemon::spawn(&bin, &sock, &state, &log)?;
    let healthy = daemon.wait_healthy(&sock, t0);
    out.attempt(healthy.is_ok(), || {
        format!("serving start: {:?}", healthy.clone().err())
    });
    setup.push(healthy?);

    // 2. The open-loop streams.
    let deltas: Vec<String> = script.iter().map(wire).collect();
    let reads: Vec<String> = (0..n)
        .map(|i| if i % 10 == 9 { "snapshot\n" } else { "query\n" }.to_string())
        .collect();
    let period = Duration::from_secs_f64(1.0 / RATE_HZ);
    let connect = |what: &str| -> Result<UnixStream, String> {
        // A `health` round trip makes sure the server accepted the
        // connection before the schedule starts.
        let s = UnixStream::connect(&sock).map_err(|e| format!("connect {what}: {e}"))?;
        (&s).write_all(b"health\n").map_err(|e| e.to_string())?;
        let r = read_response(&mut BufReader::new(&s)).map_err(|e| format!("{what}: {e}"))?;
        r.ok.then_some(s)
            .ok_or(format!("{what}: health answered err"))
    };
    let (conn_a, conn_b) = (connect("connection A")?, connect("connection B")?);
    let start = Instant::now() + Duration::from_millis(50);
    let (sent_a, sent_b) = std::thread::scope(|s| {
        let a = s.spawn(|| open_loop(&conn_a, &deltas, start, period, DRAIN));
        let b = s.spawn(|| open_loop(&conn_b, &reads, start + period / 2, period, DRAIN));
        (
            a.join().expect("delta sender panicked"),
            b.join().expect("read sender panicked"),
        )
    });
    let (sent_a, sent_b) = (
        sent_a.map_err(|e| format!("delta stream: {e}"))?,
        sent_b.map_err(|e| format!("read stream: {e}"))?,
    );
    drop((conn_a, conn_b));
    for (i, s) in sent_a.iter().chain(&sent_b).enumerate() {
        out.attempt(s.ok, || {
            format!("stream command {i} answered err or not at all")
        });
    }
    for _ in sent_a.len() + sent_b.len()..deltas.len() + reads.len() {
        out.attempt(false, || "stream command never sent".into());
    }
    let delta_lat: Vec<f64> = sent_a.iter().filter_map(Sent::latency_ms).collect();
    let read_lat: Vec<f64> = sent_b.iter().filter_map(Sent::latency_ms).collect();
    let lags: Vec<f64> = sent_a.iter().chain(&sent_b).map(Sent::lag_ms).collect();

    // 3. Probes, check, metrics, query.
    let mut connect_ms = Vec::new();
    for _ in 0..PROBES {
        let t = Instant::now();
        let r = request(&sock, "health");
        let ok = r.as_ref().is_ok_and(|r| r.ok);
        out.attempt(ok, || format!("health probe: {r:?}"));
        if ok {
            connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let check = request(&sock, "check").map_err(|e| format!("check: {e}"))?;
    out.attempt(check.ok, || {
        format!("check failed: {} {:?}", check.summary, check.detail)
    });
    let metrics = request(&sock, "metrics").map_err(|e| format!("metrics: {e}"))?;
    out.attempt(metrics.ok, || {
        format!("metrics failed: {}", metrics.summary)
    });
    let before = request(&sock, "query").map_err(|e| format!("query: {e}"))?;
    let answer = answer_of(&before).ok_or("query answer unreadable")?;
    out.attempt(before.ok, || format!("query failed: {}", before.summary));
    let rss = daemon.peak_rss_mb();

    // 4. Crash and recovery.
    let state_copy = dir.join("state-at-kill");
    if trace {
        copy_dir(&state, &state_copy)?;
    }
    let t_kill = Instant::now();
    daemon.kill();
    let mut daemon = Daemon::spawn(&bin, &sock, &state, &log)?;
    let recovered = daemon.wait_healthy(&sock, t_kill);
    out.attempt(recovered.is_ok(), || {
        format!("restart after kill: {:?}", recovered.clone().err())
    });
    let recovery_s = recovered?;
    let after = request(&sock, "query").map_err(|e| format!("query after recovery: {e}"))?;
    let same = answer_of(&after).is_some_and(|a| close(a, answer));
    out.attempt(after.ok && same, || {
        format!(
            "recovered answer {:?} differs from {answer:?}",
            answer_of(&after)
        )
    });
    let down = daemon.shutdown(&sock);
    out.attempt(down.is_ok(), || {
        format!("final shutdown: {:?}", down.clone().err())
    });

    let e = &mut out.end_to_end;
    if let Some(rss) = rss {
        e.push(Value::one("peak_rss_mb", "MB", rss));
    }
    e.push(Value::median_of("setup_s", "s", &setup));
    let tail_of = |xs: &[f64]| tail(xs, TAIL_BEYOND).map_or(f64::NAN, |t| t.1);
    e.push(Value::median_of("delta_p50_ms", "ms", &delta_lat));
    e.push(Value::one("delta_p99_ms", "ms", tail_of(&delta_lat)));
    e.push(Value::median_of("read_p50_ms", "ms", &read_lat));
    e.push(Value::one("read_p99_ms", "ms", tail_of(&read_lat)));
    e.push(Value::median_of("connect_p50_ms", "ms", &connect_ms));
    e.push(Value::one("recovery_s", "s", recovery_s));
    let pct = |xs: &[f64]| tail(xs, TAIL_BEYOND).map_or("-".into(), |t| format!("p{:.2}", t.0));
    let lag_p99 = tail(&lags, TAIL_BEYOND).map_or(0.0, |t| t.1);
    let lag_max = lags.iter().copied().fold(0.0, f64::max);
    let v = &mut out.validity;
    v.push((
        "deltas / reads / probes".into(),
        format!(
            "{} / {} / {}",
            delta_lat.len(),
            read_lat.len(),
            connect_ms.len()
        ),
    ));
    v.push((
        "tail percentile (delta / read)".into(),
        format!("{} / {}", pct(&delta_lat), pct(&read_lat)),
    ));
    v.push(("delta script draw".into(), draw.to_string()));
    v.push((
        "rate".into(),
        format!("{RATE_HZ}/s deltas + {RATE_HZ}/s reads, open loop, 2 threads, 2 connections"),
    ));
    v.push((
        "generator lag p99 / max".into(),
        format!("{lag_p99:.3} ms / {lag_max:.3} ms"),
    ));
    out.valid = lag_p99 <= period.as_secs_f64() * 1e3;

    if trace {
        let wall_sum = exposition_value(&metrics, "quorumd_delta_wall_ms_sum");
        let wall_count = exposition_value(&metrics, "quorumd_delta_wall_ms_count");
        let live = Live {
            script,
            reads: n,
            answer,
            delta_latency_mean_ms: mean(&delta_lat),
            daemon_delta_wall_mean_ms: match (wall_sum, wall_count) {
                (Some(s), Some(c)) if c > 0.0 => s / c,
                _ => f64::NAN,
            },
            connect_p50_ms: median(&connect_ms),
            state_copy,
        };
        traced_replay(&ctx.out_dir(), dir, &live, out)?;
    }
    let rate = out.failed as f64 / out.attempted as f64;
    out.end_to_end
        .push(Value::one("error_rate", "fraction", rate));
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The daemon's session configuration, as `quorumnet serve` builds it
/// from the workload's flags.
///
/// # Errors
///
/// Placement or quorum enumeration failures.
fn session_config() -> Result<SessionConfig, String> {
    let sp = obs::span("bench.topology", &[]);
    let net = datasets::planetlab_50();
    sp.end(&[]);
    let sys = QuorumSystem::grid(GRID_K).map_err(|e| e.to_string())?;
    let sp = obs::span("bench.placement", &[]);
    let placement = one_to_one::best_placement(&net, &sys).map_err(|e| e.to_string())?;
    sp.end(&[]);
    Ok(SessionConfig {
        net,
        quorums: sys.enumerate(100_000).map_err(|e| e.to_string())?,
        placement,
        alpha: ResponseModel::from_demand(OP_TIME_MS, DEMAND).alpha(),
        l_opt: sys.optimal_load().ok_or("grid has an optimal load")?,
        sweep_steps: SWEEP_STEPS,
        colgen: None,
    })
}

/// What an in-process replay produced.
pub struct Replay {
    /// Wall time of the whole replay, ms.
    pub wall_ms: f64,
    /// The final answer: capacity, delay, response.
    pub answer: [f64; 3],
    /// Simplex pivots across every delta.
    pub pivots: u64,
}

/// Replays `script` (and `reads` reads, then a few `health` probes)
/// through the session and persistence layers in-process, with spans
/// around each layer call: `daemon.open`, `daemon.apply`, `daemon.wal`,
/// `daemon.read`, `daemon.health`.
///
/// # Errors
///
/// A delta the session rejects, or a persistence failure.
pub fn replay(script: &[Delta], reads: usize, state: &Path) -> Result<Replay, String> {
    let t0 = Instant::now();
    let cfg = session_config()?;
    let sp = obs::span("daemon.open", &[]);
    let mut session = Session::new(cfg).map_err(|e| e.to_string())?;
    sp.end(&[]);
    let mut persist =
        Persistence::open(state, SNAPSHOT_EVERY, &session).map_err(|e| e.to_string())?;
    let mut pivots = 0;
    for d in script {
        let sp = obs::span("daemon.apply", &[]);
        let report = session
            .apply(d)
            .map_err(|e| format!("replaying {d:?}: {e}"))?;
        sp.end(&[]);
        pivots += report.answer.pivots;
        let sp = obs::span("daemon.wal", &[]);
        persist.record(d, &session).map_err(|e| e.to_string())?;
        sp.end(&[]);
    }
    for i in 0..reads {
        let cmd = if i % 10 == 9 {
            DaemonCommand::Snapshot
        } else {
            DaemonCommand::Query
        };
        let sp = obs::span("daemon.read", &[]);
        execute(&mut session, cmd);
        sp.end(&[]);
    }
    for _ in 0..PROBES.min(reads) {
        let sp = obs::span("daemon.health", &[]);
        execute(&mut session, DaemonCommand::Health);
        sp.end(&[]);
    }
    let a = session.answer();
    Ok(Replay {
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        answer: [a.capacity, a.delay_ms, a.response_ms],
        pivots,
    })
}

fn traced_replay(out_dir: &Path, dir: &Path, live: &Live, out: &mut Outcome) -> Result<(), String> {
    // Untraced, traced, untraced again (after a short warm-up), so the
    // overhead estimate is not an order effect.
    let n = live.script.len();
    replay(&live.script[..n.min(20)], 0, &dir.join("replay-warmup"))?;
    let plain = replay(&live.script, live.reads, &dir.join("replay-plain"))?;
    let (traced, rec) = trace::traced(|| -> Result<_, String> {
        let r = replay(&live.script, live.reads, &dir.join("replay-traced"))?;
        let sp = obs::span("daemon.recover", &[]);
        let recovered =
            recover(session_config()?, &live.state_copy).map_err(|e| format!("recover: {e}"));
        sp.end(&[]);
        recovered?;
        Ok(r)
    });
    let traced = traced?;
    let plain_again = replay(&live.script, live.reads, &dir.join("replay-plain-again"))?;
    let plain_ms = (plain.wall_ms + plain_again.wall_ms) / 2.0;
    out.attempt(close(plain.answer, live.answer) && close(traced.answer, live.answer), || {
        format!(
            "in-process replay answers {:?} (untraced) / {:?} (traced) differ from the daemon's {:?}",
            plain.answer, traced.answer, live.answer
        )
    });
    let t = rec.trace();
    let path = out_dir.join("trace-quorumd_stream.jsonl");
    t.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let apply = t.durations_ms("daemon.apply");
    let wal = t.durations_ms("daemon.wal");
    let tail_of = |xs: &[f64]| tail(xs, TAIL_BEYOND).map_or(f64::NAN, |t| t.1);
    let lat = live.delta_latency_mean_ms;
    let queue_ms = lat - live.daemon_delta_wall_mean_ms;
    let share = |ms: f64| 100.0 * ms / lat;
    let l = &mut out.layers;
    l.push(Value::one(
        "topology.build_ms",
        "ms",
        t.total_ms("bench.topology"),
    ));
    l.push(Value::one(
        "placement.search_ms",
        "ms",
        t.total_ms("bench.placement"),
    ));
    l.push(Value::one(
        "daemon.open_ms",
        "ms",
        t.total_ms("daemon.open"),
    ));
    l.push(Value::one("daemon.apply_p50_ms", "ms", median(&apply)));
    l.push(Value::one("daemon.apply_p99_ms", "ms", tail_of(&apply)));
    l.push(Value::one(
        "daemon.pivots_per_delta",
        "count",
        traced.pivots as f64 / live.script.len() as f64,
    ));
    l.push(Value::one("daemon.wal_p50_ms", "ms", median(&wal)));
    l.push(Value::one("daemon.wal_p99_ms", "ms", tail_of(&wal)));
    l.push(Value::one(
        "daemon.recover_ms",
        "ms",
        t.total_ms("daemon.recover"),
    ));
    l.push(Value::one(
        "daemon.read_exec_ms",
        "ms",
        mean(&t.durations_ms("daemon.read")),
    ));
    l.push(Value::one("daemon.queue_ms", "ms", queue_ms));
    l.push(Value::one(
        "server.accept_ms",
        "ms",
        live.connect_p50_ms - mean(&t.durations_ms("daemon.health")),
    ));
    for name in [
        "lp.share_pct",
        "des.exact_share_pct",
        "des.agg_share_pct",
        "scenario.other_share_pct",
    ] {
        l.push(Value::one(name, "%", 0.0));
    }
    l.push(Value::one(
        "daemon.apply_share_pct",
        "%",
        share(mean(&apply)),
    ));
    l.push(Value::one("daemon.wal_share_pct", "%", share(mean(&wal))));
    l.push(Value::one("daemon.queue_share_pct", "%", share(queue_ms)));
    for (name, counters) in COUNTERS {
        l.push(Value::one(
            name,
            "count",
            counters.iter().map(|c| rec.counter(c)).sum::<u64>() as f64,
        ));
    }
    l.push(Value::one(
        "trace_overhead_pct",
        "%",
        100.0 * (traced.wall_ms - plain_ms) / plain_ms,
    ));
    out.validity
        .push(("trace file".into(), path.display().to_string()));
    Ok(())
}
