//! Thread-per-connection line-protocol server over std::net — no async
//! runtime, just blocking sockets, a poll-accept loop, and one mutex
//! around the session.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use qp_obs::{stable_f64, Registry};

use crate::persist::Persistence;
use crate::protocol::{parse_command, Command, Response};
use crate::session::Session;

/// Longest accepted request line, bytes (newline excluded). Anything
/// longer gets a structured `err` and the connection is closed — no
/// command in the grammar comes anywhere near this.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Default idle-connection timeout: a connection that sends nothing for
/// this long is told so and closed (see [`Server::set_idle_timeout`]).
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// Where a server listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP address like `127.0.0.1:7070` (`:0` picks a free port).
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl io::Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(dur),
        }
    }
}

/// Everything a connection thread touches under the one server mutex:
/// the session, optional persistence, and the last persistence failure
/// (surfaced through `health`).
struct Served {
    session: Session,
    persist: Option<Persistence>,
    persist_error: Option<String>,
}

/// Totals reported by [`Server::run`] after shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: usize,
    /// Commands answered (ok or err).
    pub commands: u64,
}

/// A bound but not yet running `quorumd` server.
pub struct Server {
    listener: Listener,
    stop: Arc<AtomicBool>,
    idle_timeout: Duration,
}

impl Server {
    /// Binds to `endpoint`. A stale Unix socket file from a previous
    /// run is removed first; TCP port `0` picks a free port (see
    /// [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Any bind failure from the OS.
    pub fn bind(endpoint: &Endpoint) -> io::Result<Server> {
        let listener = match endpoint {
            Endpoint::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr.as_str())?),
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                Listener::Unix(UnixListener::bind(path)?, path.clone())
            }
        };
        Ok(Server {
            listener,
            stop: Arc::new(AtomicBool::new(false)),
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
        })
    }

    /// Overrides the idle-connection timeout (default
    /// [`DEFAULT_IDLE_TIMEOUT`]).
    pub fn set_idle_timeout(&mut self, timeout: Duration) {
        self.idle_timeout = timeout;
    }

    /// The bound address: `host:port` for TCP, the socket path for Unix.
    pub fn local_addr(&self) -> String {
        match &self.listener {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "?".into()),
            #[cfg(unix)]
            Listener::Unix(_, path) => path.display().to_string(),
        }
    }

    /// A flag that stops the accept loop when set (the `shutdown`
    /// command sets it too).
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Serves `session` until a `shutdown` command (or the stop flag).
    /// Blocks; returns after all connection threads drain.
    ///
    /// # Errors
    ///
    /// Only on listener-level I/O failures; per-connection errors just
    /// close that connection.
    pub fn run(self, session: Session) -> io::Result<ServeSummary> {
        self.run_inner(session, None)
    }

    /// Like [`run`](Self::run), but every delta that advances the
    /// session is also fsync'd to `persistence`'s WAL before the client
    /// sees the response, so while persistence is healthy a `kill -9`
    /// loses nothing acknowledged. A persistence I/O failure does not
    /// drop the delta from the live session (it is already applied),
    /// but the durability guarantee lapses until the next successful
    /// snapshot: the failure is surfaced as a `warning persist failed`
    /// detail line on the delta's own response, and through the
    /// `health` command thereafter.
    ///
    /// # Errors
    ///
    /// Only on listener-level I/O failures.
    pub fn run_persistent(
        self,
        session: Session,
        persistence: Persistence,
    ) -> io::Result<ServeSummary> {
        self.run_inner(session, Some(persistence))
    }

    fn run_inner(self, session: Session, persist: Option<Persistence>) -> io::Result<ServeSummary> {
        let served = Arc::new(Mutex::new(Served {
            session,
            persist,
            persist_error: None,
        }));
        let commands = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        let mut connections = 0usize;
        match &self.listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            #[cfg(unix)]
            Listener::Unix(l, _) => l.set_nonblocking(true)?,
        }
        while !self.stop.load(Ordering::SeqCst) {
            let accepted: Option<Stream> = match &self.listener {
                Listener::Tcp(l) => match l.accept() {
                    Ok((s, _)) => Some(Stream::Tcp(s)),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(e) => return Err(e),
                },
                #[cfg(unix)]
                Listener::Unix(l, _) => match l.accept() {
                    Ok((s, _)) => Some(Stream::Unix(s)),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(e) => return Err(e),
                },
            };
            match accepted {
                Some(stream) => {
                    connections += 1;
                    let served = Arc::clone(&served);
                    let stop = Arc::clone(&self.stop);
                    let commands = Arc::clone(&commands);
                    let idle = self.idle_timeout;
                    handles.push(thread::spawn(move || {
                        let _ = handle_connection(stream, &served, &stop, &commands, idle);
                    }));
                }
                None => thread::sleep(Duration::from_millis(20)),
            }
        }
        for h in handles {
            let _ = h.join();
        }
        #[cfg(unix)]
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        Ok(ServeSummary {
            connections,
            commands: commands.load(Ordering::SeqCst),
        })
    }
}

/// Convenience for tests and the CLI: connect to an endpoint.
///
/// # Errors
///
/// Any connect failure from the OS.
pub fn connect(endpoint: &Endpoint) -> io::Result<impl io::Read + io::Write> {
    Ok(match endpoint {
        Endpoint::Tcp(addr) => Stream::Tcp(TcpStream::connect(addr.as_str())?),
        #[cfg(unix)]
        Endpoint::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
    })
}

/// One framing outcome from the byte-capped request reader.
#[derive(Debug, PartialEq, Eq)]
enum RequestLine {
    /// A complete, newline-terminated, valid-UTF-8 line (sans newline).
    Line(String),
    /// The line exceeded the byte cap before a newline arrived.
    Oversized,
    /// The line is complete but not valid UTF-8.
    BadUtf8,
    /// The peer closed the connection mid-line, `usize` bytes in.
    PartialEof(usize),
    /// Clean end of stream.
    Eof,
}

/// Reads one request line without ever buffering more than `max` bytes
/// of it — the defense against a peer streaming an endless line.
fn read_request(reader: &mut impl BufRead, max: usize) -> io::Result<RequestLine> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                RequestLine::Eof
            } else {
                RequestLine::PartialEof(buf.len())
            });
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            if buf.len() + pos > max {
                reader.consume(pos + 1);
                return Ok(RequestLine::Oversized);
            }
            buf.extend_from_slice(&chunk[..pos]);
            reader.consume(pos + 1);
            return Ok(match String::from_utf8(buf) {
                Ok(line) => RequestLine::Line(line),
                Err(_) => RequestLine::BadUtf8,
            });
        }
        let len = chunk.len();
        buf.extend_from_slice(chunk);
        reader.consume(len);
        if buf.len() > max {
            return Ok(RequestLine::Oversized);
        }
    }
}

fn handle_connection(
    stream: Stream,
    served: &Mutex<Served>,
    stop: &AtomicBool,
    commands: &std::sync::atomic::AtomicU64,
    idle: Duration,
) -> io::Result<()> {
    stream.set_read_timeout(Some(idle))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // Closes the connection after a structured error the client can act
    // on: the stream state past a framing violation is unknowable.
    let refuse = |writer: &mut Stream, message: String| -> io::Result<()> {
        commands.fetch_add(1, Ordering::SeqCst);
        writer.write_all(Response::err(message).to_wire().as_bytes())?;
        writer.flush()
    };
    loop {
        let request = match read_request(&mut reader, MAX_LINE_BYTES) {
            Ok(request) => request,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                let _ = refuse(
                    &mut writer,
                    format!("idle for {}s: closing connection", idle.as_secs()),
                );
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let line = match request {
            RequestLine::Eof => return Ok(()),
            RequestLine::Line(line) => line,
            RequestLine::Oversized => {
                return refuse(
                    &mut writer,
                    format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
            }
            RequestLine::BadUtf8 => {
                return refuse(&mut writer, "request is not valid UTF-8".into());
            }
            RequestLine::PartialEof(bytes) => {
                return refuse(
                    &mut writer,
                    format!("connection closed mid-line after {bytes} bytes"),
                );
            }
        };
        let response = match parse_command(&line) {
            Ok(None) => continue,
            Ok(Some(cmd)) => {
                let mut guard = served.lock().expect("session mutex poisoned");
                let seq_before = guard.session.seq();
                let mut resp = execute(&mut guard.session, cmd);
                if guard.session.seq() != seq_before {
                    if let Command::Delta(delta) = cmd {
                        let Served {
                            session,
                            persist,
                            persist_error,
                        } = &mut *guard;
                        if let Some(p) = persist.as_mut() {
                            if let Err(e) = p.record(&delta, session) {
                                // The delta is applied in memory but not
                                // durable: tell the acknowledged client,
                                // not just later `health` pollers.
                                resp.detail.push(format!(
                                    "warning persist failed: {e} (delta applied but not durable)"
                                ));
                                *persist_error = Some(e.to_string());
                            }
                        }
                    }
                }
                if cmd == Command::Health {
                    resp.detail
                        .push(match (&guard.persist, &guard.persist_error) {
                            (_, Some(m)) => format!("persist failed: {m}"),
                            (Some(_), None) => "persist on".into(),
                            (None, None) => "persist off".into(),
                        });
                }
                drop(guard);
                if cmd == Command::Shutdown {
                    commands.fetch_add(1, Ordering::SeqCst);
                    writer.write_all(resp.to_wire().as_bytes())?;
                    writer.flush()?;
                    stop.store(true, Ordering::SeqCst);
                    return Ok(());
                }
                resp
            }
            Err(msg) => Response::err(msg),
        };
        commands.fetch_add(1, Ordering::SeqCst);
        writer.write_all(response.to_wire().as_bytes())?;
        writer.flush()?;
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    Ok(())
}

/// Executes one command against the session and formats the response.
/// Public so the soak harness and `quorumnet ctl --local` drive the
/// exact code path the server runs.
pub fn execute(session: &mut Session, cmd: Command) -> Response {
    match cmd {
        Command::Delta(delta) => {
            // Wall-clock delta latency is the one opt-in non-logical
            // metric here (the `_wall_` tag keeps it out of golden
            // comparisons); pivot counts are logical and deterministic.
            let t0 = qp_obs::enabled().then(std::time::Instant::now);
            match session.apply(&delta) {
                Ok(report) => {
                    let a = &report.answer;
                    if let Some(t0) = t0 {
                        qp_obs::counter_add("quorumd_deltas_total", 1);
                        qp_obs::observe("quorumd_delta_pivots", a.pivots as f64);
                        qp_obs::observe("quorumd_delta_wall_ms", t0.elapsed().as_secs_f64() * 1e3);
                    }
                    let mig = &report.migration;
                    let mut detail = vec![
                        format!("capacity {}", stable_f64(a.capacity)),
                        format!("delay_ms {}", stable_f64(a.delay_ms)),
                        format!("response_ms {}", stable_f64(a.response_ms)),
                        format!("pivots {}", a.pivots),
                        format!("moved_mass {}", stable_f64(mig.moved_mass)),
                        format!("delay_delta_ms {}", stable_f64(mig.delay_delta_ms)),
                        format!("response_delta_ms {}", stable_f64(mig.response_delta_ms)),
                    ];
                    for mv in &mig.moves {
                        detail.push(format!(
                            "move client {} quorum {} -> {} mass {:.6e}",
                            mv.client, mv.from, mv.to, mv.mass
                        ));
                    }
                    Response::ok(format!("delta applied seq={}", report.seq), detail)
                }
                Err(e) => Response::err(e.to_string()),
            }
        }
        Command::Query => {
            let s = session.status();
            let detail = vec![
                format!("seq {}", s.seq),
                format!("nodes {}", s.num_nodes),
                format!("quorums {}", s.num_quorums),
                format!("capacity {}", stable_f64(s.capacity)),
                format!("delay_ms {}", stable_f64(s.delay_ms)),
                format!("response_ms {}", stable_f64(s.response_ms)),
                format!(
                    "crashed {}",
                    if s.crashed.is_empty() {
                        "-".to_string()
                    } else {
                        s.crashed
                            .iter()
                            .map(|w| w.to_string())
                            .collect::<Vec<_>>()
                            .join(",")
                    }
                ),
                format!(
                    "slowed {}",
                    if s.slowed.is_empty() {
                        "-".to_string()
                    } else {
                        s.slowed
                            .iter()
                            .map(|(w, f)| format!("{w}:{f}"))
                            .collect::<Vec<_>>()
                            .join(",")
                    }
                ),
                format!("warm_pivots {}", s.warm_pivots),
                format!("degraded {}", u8::from(s.degraded)),
            ];
            Response::ok(format!("status seq={}", s.seq), detail)
        }
        Command::Snapshot => {
            let a = session.answer();
            let mut detail = vec![
                format!("capacity {}", stable_f64(a.capacity)),
                format!("delay_ms {}", stable_f64(a.delay_ms)),
                format!("response_ms {}", stable_f64(a.response_ms)),
                format!("degraded {}", u8::from(session.degraded())),
            ];
            for (v, row) in a.strategy.iter().enumerate() {
                let cells: Vec<String> = row.iter().map(|&p| stable_f64(p)).collect();
                detail.push(format!("strategy {v} {}", cells.join(" ")));
            }
            Response::ok(format!("snapshot clients={}", a.strategy.len()), detail)
        }
        Command::Check => match session.cold_check() {
            Ok(report) => {
                let detail = vec![
                    format!("capacity_match {}", report.capacity_match),
                    format!("delay_diff {:.3e}", report.delay_diff),
                    format!("response_diff {:.3e}", report.response_diff),
                    format!("max_strategy_diff {:.3e}", report.max_strategy_diff),
                    format!("warm_pivots {}", report.warm_pivots),
                    format!("cold_pivots {}", report.cold_pivots),
                ];
                if report.ok {
                    Response::ok("check passed", detail)
                } else {
                    Response {
                        ok: false,
                        summary: "check FAILED: warm and cold answers diverge".into(),
                        detail,
                    }
                }
            }
            Err(e) => Response::err(e.to_string()),
        },
        Command::Health => {
            let s = session.status();
            let mut detail = vec![
                format!("seq {}", s.seq),
                format!("degraded {}", u8::from(s.degraded)),
            ];
            // Fold the headline metrics into the liveness probe when a
            // recorder is installed (`quorumnet serve` always installs
            // one); pollers that predate the metrics command keep
            // working — detail lines are additive.
            if let Some(line) = qp_obs::with_registry(|r| {
                format!(
                    "metrics deltas {} wal_appends {} snapshots {}",
                    r.counter("quorumd_deltas_total"),
                    r.counter("quorumd_wal_appends_total"),
                    r.counter("quorumd_snapshots_total")
                )
            }) {
                detail.push(line);
            }
            Response::ok(if s.degraded { "degraded" } else { "healthy" }, detail)
        }
        Command::Metrics => match qp_obs::with_registry(Registry::render_prometheus) {
            Some(text) => {
                let detail: Vec<String> = text.lines().map(str::to_string).collect();
                Response::ok(format!("metrics lines={}", detail.len()), detail)
            }
            None => Response::err("metrics unavailable: no recorder installed"),
        },
        Command::Shutdown => Response::ok("shutting down", Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::read_response;
    use crate::session::SessionConfig;
    use qp_core::one_to_one;
    use qp_quorum::QuorumSystem;
    use qp_topology::datasets;

    fn test_session() -> Session {
        let net = datasets::euclidean_random(12, 100.0, 7);
        let sys = QuorumSystem::grid(3).unwrap();
        let placement = one_to_one::best_placement(&net, &sys).unwrap();
        let quorums = sys.enumerate(100).unwrap();
        Session::new(SessionConfig {
            net,
            quorums,
            placement,
            alpha: 12.0,
            l_opt: sys.optimal_load().unwrap_or(0.5),
            sweep_steps: 5,
            colgen: None,
        })
        .unwrap()
    }

    #[test]
    fn tcp_round_trip_with_shutdown() {
        let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = server.local_addr();
        let session = test_session();
        let handle = std::thread::spawn(move || server.run(session).unwrap());

        let endpoint = Endpoint::Tcp(addr);
        let stream = connect(&endpoint).unwrap();
        let mut writer = BufReader::new(stream);
        writer
            .get_mut()
            .write_all(b"query\nslowdown 2 2.0\ncheck\nbogus\nshutdown\n")
            .unwrap();
        writer.get_mut().flush().unwrap();

        let r = read_response(&mut writer).unwrap();
        assert!(r.ok, "query failed: {}", r.summary);
        assert!(r.detail.iter().any(|l| l.starts_with("capacity ")));
        let r = read_response(&mut writer).unwrap();
        assert!(r.ok, "delta failed: {}", r.summary);
        assert!(r.summary.contains("seq=1"));
        let r = read_response(&mut writer).unwrap();
        assert!(r.ok, "check failed: {} {:?}", r.summary, r.detail);
        let r = read_response(&mut writer).unwrap();
        assert!(!r.ok, "bogus command must err");
        let r = read_response(&mut writer).unwrap();
        assert!(r.ok && r.summary.contains("shutting down"));

        let summary = handle.join().unwrap();
        assert_eq!(summary.connections, 1);
        assert_eq!(summary.commands, 5);
    }

    #[test]
    fn read_request_frames_caps_and_rejects() {
        use std::io::Cursor;
        let mut c = Cursor::new(b"query\n".to_vec());
        assert_eq!(
            read_request(&mut c, 64).unwrap(),
            RequestLine::Line("query".into())
        );
        assert_eq!(read_request(&mut c, 64).unwrap(), RequestLine::Eof);

        // Oversized: a line longer than the cap, newline present or not.
        let mut c = Cursor::new(vec![b'x'; 100]);
        assert_eq!(read_request(&mut c, 64).unwrap(), RequestLine::Oversized);
        let mut long = vec![b'y'; 100];
        long.push(b'\n');
        let mut c = Cursor::new(long);
        assert_eq!(read_request(&mut c, 64).unwrap(), RequestLine::Oversized);

        // Exactly at the cap is fine.
        let mut at_cap = vec![b'z'; 64];
        at_cap.push(b'\n');
        let mut c = Cursor::new(at_cap);
        assert!(matches!(
            read_request(&mut c, 64).unwrap(),
            RequestLine::Line(l) if l.len() == 64
        ));

        // Invalid UTF-8 in a complete line.
        let mut c = Cursor::new(b"qu\xffery\n".to_vec());
        assert_eq!(read_request(&mut c, 64).unwrap(), RequestLine::BadUtf8);

        // EOF mid-line.
        let mut c = Cursor::new(b"quer".to_vec());
        assert_eq!(
            read_request(&mut c, 64).unwrap(),
            RequestLine::PartialEof(4)
        );
    }

    #[test]
    fn health_and_framing_violations_over_tcp() {
        let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = server.local_addr();
        let session = test_session();
        let handle = std::thread::spawn(move || server.run(session).unwrap());
        let endpoint = Endpoint::Tcp(addr);

        // health on a fresh session, and degraded surfaced in query.
        let stream = connect(&endpoint).unwrap();
        let mut conn = BufReader::new(stream);
        conn.get_mut().write_all(b"health\nquery\n").unwrap();
        let r = read_response(&mut conn).unwrap();
        assert!(r.ok && r.summary.contains("healthy"), "{r:?}");
        assert!(r.detail.iter().any(|l| l == "seq 0"));
        assert!(r.detail.iter().any(|l| l == "degraded 0"));
        assert!(r.detail.iter().any(|l| l == "persist off"));
        let r = read_response(&mut conn).unwrap();
        assert!(r.detail.iter().any(|l| l == "degraded 0"));
        drop(conn);

        // An oversized line gets a structured err, then the connection
        // closes.
        let stream = connect(&endpoint).unwrap();
        let mut conn = BufReader::new(stream);
        let mut big = vec![b'a'; MAX_LINE_BYTES + 10];
        big.push(b'\n');
        conn.get_mut().write_all(&big).unwrap();
        let r = read_response(&mut conn).unwrap();
        assert!(!r.ok && r.summary.contains("exceeds"), "{r:?}");
        assert_eq!(
            read_response(&mut conn).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );

        // Invalid UTF-8 gets a structured err.
        let stream = connect(&endpoint).unwrap();
        let mut conn = BufReader::new(stream);
        conn.get_mut().write_all(b"que\xffry\n").unwrap();
        let r = read_response(&mut conn).unwrap();
        assert!(!r.ok && r.summary.contains("UTF-8"), "{r:?}");

        let stream = connect(&endpoint).unwrap();
        let mut conn = BufReader::new(stream);
        conn.get_mut().write_all(b"shutdown\n").unwrap();
        let r = read_response(&mut conn).unwrap();
        assert!(r.ok);
        handle.join().unwrap();
    }

    #[test]
    fn idle_connections_are_closed_with_a_notice() {
        let mut server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        server.set_idle_timeout(Duration::from_millis(100));
        let addr = server.local_addr();
        let stop = server.stop_flag();
        let session = test_session();
        let handle = std::thread::spawn(move || server.run(session).unwrap());

        let stream = connect(&Endpoint::Tcp(addr)).unwrap();
        let mut conn = BufReader::new(stream);
        // Say nothing; the server should hang up with an err notice.
        let r = read_response(&mut conn).unwrap();
        assert!(!r.ok && r.summary.contains("idle"), "{r:?}");
        assert_eq!(
            read_response(&mut conn).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );

        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn persistent_server_recovers_across_restart() {
        let dir = std::env::temp_dir().join(format!("quorumd-srv-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // First life: apply two deltas under persistence, then shut down.
        let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = server.local_addr();
        let session = test_session();
        let persistence = crate::persist::Persistence::open(&dir, 100, &session).unwrap();
        let handle =
            std::thread::spawn(move || server.run_persistent(session, persistence).unwrap());
        let stream = connect(&Endpoint::Tcp(addr)).unwrap();
        let mut conn = BufReader::new(stream);
        conn.get_mut()
            .write_all(b"slowdown 2 2.0\ndemand 1 3.0\nhealth\nsnapshot\nshutdown\n")
            .unwrap();
        let r = read_response(&mut conn).unwrap();
        assert!(r.ok, "{r:?}");
        let r = read_response(&mut conn).unwrap();
        assert!(r.ok, "{r:?}");
        let r = read_response(&mut conn).unwrap();
        assert!(r.detail.iter().any(|l| l == "persist on"), "{r:?}");
        let first_snapshot = read_response(&mut conn).unwrap();
        assert!(first_snapshot.ok);
        read_response(&mut conn).unwrap();
        handle.join().unwrap();

        // Second life: recover and compare the full strategy dump.
        let (recovered, report) = crate::persist::recover(
            {
                let net = datasets::euclidean_random(12, 100.0, 7);
                let sys = QuorumSystem::grid(3).unwrap();
                let placement = one_to_one::best_placement(&net, &sys).unwrap();
                let quorums = sys.enumerate(100).unwrap();
                SessionConfig {
                    net,
                    quorums,
                    placement,
                    alpha: 12.0,
                    l_opt: sys.optimal_load().unwrap_or(0.5),
                    sweep_steps: 5,
                    colgen: None,
                }
            },
            &dir,
        )
        .unwrap();
        assert_eq!(recovered.seq(), 2);
        assert!(report.checked && !report.degraded);
        let mut recovered = recovered;
        let second_snapshot = execute(&mut recovered, Command::Snapshot);
        // Same shape, every number within the 1e-9 recovery discipline
        // (the warm bases differ, so bitwise equality is not promised).
        assert_eq!(first_snapshot.detail.len(), second_snapshot.detail.len());
        for (a, b) in first_snapshot.detail.iter().zip(&second_snapshot.detail) {
            for (ta, tb) in a.split_whitespace().zip(b.split_whitespace()) {
                match (ta.parse::<f64>(), tb.parse::<f64>()) {
                    (Ok(x), Ok(y)) => assert!(
                        (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs())),
                        "{a} vs {b}"
                    ),
                    _ => assert_eq!(ta, tb, "{a} vs {b}"),
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trip() {
        let path = std::env::temp_dir().join(format!("quorumd-test-{}.sock", std::process::id()));
        let server = Server::bind(&Endpoint::Unix(path.clone())).unwrap();
        let session = test_session();
        let handle = std::thread::spawn(move || server.run(session).unwrap());

        let stream = connect(&Endpoint::Unix(path.clone())).unwrap();
        let mut reader = BufReader::new(stream);
        reader
            .get_mut()
            .write_all(b"demand 1 3.0\nshutdown\n")
            .unwrap();
        reader.get_mut().flush().unwrap();
        let r = read_response(&mut reader).unwrap();
        assert!(r.ok, "demand failed: {}", r.summary);
        let r = read_response(&mut reader).unwrap();
        assert!(r.ok);
        handle.join().unwrap();
        assert!(!path.exists(), "socket file must be cleaned up");
    }
}
