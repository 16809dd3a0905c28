//! Crash-safe persistence for `quorumd`: one append-only log file,
//! `state.log`, and recovery that replays it.
//!
//! The log opens with a **base**, the session's whole
//! [`PersistedState`]: a header line, `seq N`, every `demand v w` and
//! every `slowdown w f` in index order, each `crash w` ascending, then
//! `end`. Every delta the session records after that is appended as one
//! line, `<seq> <delta>`, and fsync'd before the client sees the
//! response. Each base and tail delta is printed by the one encoder,
//! [`Delta`]'s `Display` (floats by [`qp_obs::stable_f64`], so they
//! round-trip bit for bit), and read back by [`parse_command`].
//!
//! Compaction, in [`Persistence::open`] and after every `snapshot_every`
//! appends, writes the current state as a new base to a temp file,
//! fsyncs it, renames it over the log, fsyncs the directory and reopens
//! the log for append. The rename is the one step that changes the
//! durable state, so a crash leaves either the old log or the new one,
//! and no delta can be both in a base and after it. A temp file left by a
//! crash before the rename is never read; the next compaction replaces it.
//!
//! [`recover`] rebuilds a session from the directory: open fresh from
//! the [`SessionConfig`], restore the base in one shot, replay the tail
//! delta by delta (an infeasible delta degrades the session exactly as it
//! did live), and — unless the session came back degraded — cross-check
//! the warm answer against a cold from-scratch recompute to ≤ 1e-9, the
//! same discipline `check` enforces online. A torn final line (the
//! process died mid-append) is dropped; corruption anywhere else is an
//! error naming the line.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::protocol::{parse_command, Command, Delta};
use crate::session::{PersistedState, Session, SessionConfig, SessionError};

/// Log file name inside the state directory.
const LOG_FILE: &str = "state.log";
/// Temp name a compaction stages the new log under before its rename.
const LOG_TMP: &str = "state.log.tmp";
/// First line of the log.
const LOG_HEADER: &str = "quorumd-log v1";
/// The files of the earlier two-file layout, a snapshot beside a WAL. A
/// directory holding one is refused: starting fresh there would drop the
/// state it holds.
const OLD_LAYOUT: [&str; 2] = ["state.snap", "deltas.wal"];
const OLD_LAYOUT_REFUSAL: &str =
    "left by the earlier snapshot + WAL layout, which is not read; move it away to start fresh";

/// Errors from persistence or recovery.
#[derive(Debug)]
pub enum PersistError {
    /// A file operation failed.
    Io(io::Error),
    /// The state directory holds something unreadable.
    Corrupt {
        /// File the corruption was found in.
        file: String,
        /// 1-based line (0 when no line applies).
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The session rejected the recovered state or a replayed delta.
    Session(SessionError),
    /// The recovered warm answer diverged from the cold recompute.
    Mismatch(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o: {e}"),
            PersistError::Corrupt {
                file,
                line,
                message,
            } if *line > 0 => write!(f, "{file} line {line}: {message}"),
            PersistError::Corrupt { file, message, .. } => write!(f, "{file}: {message}"),
            PersistError::Session(e) => write!(f, "session: {e}"),
            PersistError::Mismatch(m) => write!(f, "recovery cross-check: {m}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Session(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// What [`recover`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the log's base (0 when there was no log).
    pub snapshot_seq: u64,
    /// Deltas replayed from the log's tail.
    pub wal_deltas: usize,
    /// Whether a torn final line was dropped.
    pub torn_tail: bool,
    /// Whether the session came back degraded (infeasible live state).
    pub degraded: bool,
    /// Whether the cold cross-check ran and passed (skipped when
    /// degraded — there is no feasible cold answer to compare against —
    /// and when the directory held no state, where there is nothing
    /// recovered to verify).
    pub checked: bool,
}

/// A live persistence handle: the log open for append plus the
/// compaction cadence.
pub struct Persistence {
    dir: PathBuf,
    log: File,
    tail_len: usize,
    snapshot_every: usize,
}

impl Persistence {
    /// Opens persistence in `dir` (created if missing) and compacts, so
    /// the log holds exactly the session handed in. Call *after*
    /// [`recover`] (or on a brand-new session).
    ///
    /// # Errors
    ///
    /// Any file-system failure, and [`io::ErrorKind::AlreadyExists`] when
    /// `dir` holds a file of the earlier two-file layout.
    pub fn open(dir: &Path, snapshot_every: usize, session: &Session) -> io::Result<Persistence> {
        fs::create_dir_all(dir)?;
        if let Some(old) = old_layout_file(dir) {
            let message = format!("{}: {OLD_LAYOUT_REFUSAL}", old.display());
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, message));
        }
        Ok(Persistence {
            dir: dir.to_path_buf(),
            log: compact(dir, &session.persisted_state())?,
            tail_len: 0,
            snapshot_every: snapshot_every.max(1),
        })
    }

    /// Appends one applied delta to the log and fsyncs it; every
    /// `snapshot_every` appends the log is compacted to a base holding
    /// `session`. Call only for deltas the session actually recorded
    /// (its sequence number advanced).
    ///
    /// # Errors
    ///
    /// Any file-system failure; the session itself is unaffected, but
    /// the caller should surface the failure (the on-disk state is now
    /// behind the live one).
    pub fn record(&mut self, delta: &Delta, session: &Session) -> io::Result<()> {
        let t0 = qp_obs::enabled().then(std::time::Instant::now);
        self.log
            .write_all(format!("{} {delta}\n", session.seq()).as_bytes())?;
        self.log.sync_data()?;
        if let Some(t0) = t0 {
            qp_obs::counter_add("quorumd_wal_appends_total", 1);
            qp_obs::observe(
                "quorumd_wal_append_wall_ms",
                t0.elapsed().as_secs_f64() * 1e3,
            );
        }
        self.tail_len += 1;
        if self.tail_len >= self.snapshot_every {
            let t0 = qp_obs::enabled().then(std::time::Instant::now);
            self.log = compact(&self.dir, &session.persisted_state())?;
            self.tail_len = 0;
            if let Some(t0) = t0 {
                qp_obs::counter_add("quorumd_snapshots_total", 1);
                qp_obs::observe("quorumd_snapshot_wall_ms", t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        Ok(())
    }

    /// Deltas appended since the last compaction.
    pub fn tail_len(&self) -> usize {
        self.tail_len
    }
}

/// The first file of the earlier two-file layout present in `dir`.
fn old_layout_file(dir: &Path) -> Option<PathBuf> {
    OLD_LAYOUT.iter().map(|f| dir.join(f)).find(|p| p.exists())
}

/// Writes `state` as the base of a fresh log: temp file, fsync, atomic
/// rename over the log, directory fsync. Returns the new log opened for
/// append.
fn compact(dir: &Path, state: &PersistedState) -> io::Result<File> {
    let demands = state.raw_weights.iter().enumerate();
    let slowdowns = state.slowdown.iter().enumerate();
    let base = (demands.map(|(loc, &weight)| Delta::Demand { loc, weight }))
        .chain(slowdowns.map(|(site, &factor)| Delta::Slowdown { site, factor }))
        .chain(state.crashed.iter().map(|&node| Delta::Crash { node }));
    let mut text = format!("{LOG_HEADER}\nseq {}\n", state.seq);
    for d in base {
        text.push_str(&format!("{d}\n"));
    }
    text.push_str("end\n");

    let (tmp, log) = (dir.join(LOG_TMP), dir.join(LOG_FILE));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &log)?;
    // Persist the rename itself.
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    OpenOptions::new().append(true).open(&log)
}

/// A log as read back: its base, and each tail delta with its 1-based
/// line.
struct Log {
    base: PersistedState,
    tail: Vec<(usize, Delta)>,
    torn: bool,
}

/// Reads the log at `path`, if one exists. A torn final line (no
/// trailing newline — the process died mid-append) is dropped and
/// flagged; anything else unreadable is corruption naming the line:
/// bytes that are not UTF-8, a bad header or `seq` line, a base delta out
/// of order, a missing `end`, a tail line without a seq stamp or whose
/// stamp does not follow the one before it.
fn read_log(path: &Path) -> Result<Option<Log>, PersistError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let corrupt = |line: usize, message: String| PersistError::Corrupt {
        file: path.display().to_string(),
        line,
        message,
    };
    let mut text = String::from_utf8(bytes).map_err(|e| {
        let valid = &e.as_bytes()[..e.utf8_error().valid_up_to()];
        let line = valid.iter().filter(|&&b| b == b'\n').count() + 1;
        corrupt(line, "not valid UTF-8".into())
    })?;
    let torn = !text.is_empty() && !text.ends_with('\n');
    text.truncate(text.rfind('\n').map_or(0, |pos| pos + 1));
    let delta = |line: usize, text: &str| match parse_command(text) {
        Ok(Some(Command::Delta(d))) => Ok(d),
        Ok(Some(_)) => Err(corrupt(line, format!("non-delta entry '{text}'"))),
        Ok(None) => Err(corrupt(line, "blank entry".into())),
        Err(msg) => Err(corrupt(line, msg)),
    };
    let mut lines = text.lines().zip(1..);
    if lines.next().map(|(l, _)| l) != Some(LOG_HEADER) {
        return Err(corrupt(1, format!("expected `{LOG_HEADER}` header")));
    }
    let seq = match lines.next() {
        Some((l, n)) => (l.strip_prefix("seq ").and_then(|t| t.parse().ok()))
            .ok_or_else(|| corrupt(n, format!("expected `seq <n>`, found '{l}'")))?,
        None => return Err(corrupt(0, "missing `seq` entry".into())),
    };
    let mut base = PersistedState {
        seq,
        raw_weights: Vec::new(),
        slowdown: Vec::new(),
        crashed: Vec::new(),
    };
    let mut ended = false;
    for (l, n) in lines.by_ref() {
        if l == "end" {
            ended = true;
            break;
        }
        match delta(n, l)? {
            Delta::Demand { loc, weight } if loc == base.raw_weights.len() => {
                base.raw_weights.push(weight);
            }
            Delta::Slowdown { site, factor } if site == base.slowdown.len() => {
                base.slowdown.push(factor);
            }
            Delta::Crash { node } if base.crashed.last().is_none_or(|&w| node > w) => {
                base.crashed.push(node);
            }
            _ => {
                return Err(corrupt(
                    n,
                    format!(
                        "'{l}' out of order: the base holds demands and slowdowns in index \
                         order (next {} and {}), then crashes ascending",
                        base.raw_weights.len(),
                        base.slowdown.len()
                    ),
                ))
            }
        }
    }
    if !ended {
        return Err(corrupt(0, "missing `end` marker (truncated base)".into()));
    }
    let (mut tail, mut prev) = (Vec::new(), seq);
    for (l, n) in lines {
        let (stamp, rest) = l
            .split_once(' ')
            .ok_or_else(|| corrupt(n, format!("entry without seq stamp '{l}'")))?;
        let stamp: u64 = stamp
            .parse()
            .map_err(|_| corrupt(n, format!("bad seq stamp '{stamp}'")))?;
        if prev.checked_add(1) != Some(stamp) {
            return Err(corrupt(
                n,
                format!("seq {stamp} does not follow seq {prev}"),
            ));
        }
        prev = stamp;
        tail.push((n, delta(n, rest)?));
    }
    Ok(Some(Log { base, tail, torn }))
}

/// Rebuilds a session from a state directory: open fresh from `cfg`,
/// restore the log's base (if there is a log), replay its tail delta by
/// delta, and — unless the recovered state is degraded — cross-check the
/// warm answer against a cold from-scratch recompute at the session's
/// 1e-9 discipline. An empty or missing directory recovers to a fresh
/// session with an all-pass report.
///
/// # Errors
///
/// [`PersistError::Corrupt`] on an unreadable log (a torn *final* line
/// is tolerated, not an error) and on a directory holding a file of the
/// earlier two-file layout, naming that file; [`PersistError::Session`]
/// when the state doesn't fit `cfg`; [`PersistError::Mismatch`] when the
/// recovered answer diverges from the cold recompute.
pub fn recover(cfg: SessionConfig, dir: &Path) -> Result<(Session, RecoveryReport), PersistError> {
    if let Some(old) = old_layout_file(dir) {
        return Err(PersistError::Corrupt {
            file: old.display().to_string(),
            line: 0,
            message: OLD_LAYOUT_REFUSAL.into(),
        });
    }
    let path = dir.join(LOG_FILE);
    let log = read_log(&path)?;
    let mut session = Session::new(cfg).map_err(PersistError::Session)?;
    let (mut snapshot_seq, mut wal_deltas, mut torn_tail) = (0, 0, false);
    if let Some(log) = log {
        session
            .restore_state(&log.base)
            .map_err(PersistError::Session)?;
        for &(line, delta) in &log.tail {
            match session.apply(&delta) {
                // Ok, or recorded-but-infeasible: both advanced seq, both
                // are exactly what happened live.
                Ok(_) | Err(SessionError::Infeasible(_)) | Err(SessionError::Lp(_)) => {}
                Err(e) => {
                    // A rejected delta can never have been logged: the
                    // tail disagrees with the base it extends.
                    return Err(PersistError::Corrupt {
                        file: path.display().to_string(),
                        line,
                        message: format!("replay rejected: {e}"),
                    });
                }
            }
        }
        (snapshot_seq, wal_deltas, torn_tail) = (log.base.seq, log.tail.len(), log.torn);
    }
    let degraded = session.degraded();
    let mut checked = false;
    // An empty directory recovered nothing to verify: cross-check only
    // when it actually held state.
    let recovered_anything = snapshot_seq > 0 || wal_deltas > 0;
    if !degraded && recovered_anything {
        let check = session.cold_check().map_err(PersistError::Session)?;
        if !check.ok {
            return Err(PersistError::Mismatch(format!(
                "warm/cold diverge: capacity_match={} delay_diff={:.3e} \
                 response_diff={:.3e} max_strategy_diff={:.3e}",
                check.capacity_match,
                check.delay_diff,
                check.response_diff,
                check.max_strategy_diff
            )));
        }
        checked = true;
    }
    // The recovery report also flows through the observability layer as
    // a structured event (plus counters), so a traced `serve` records
    // what recovery found instead of only printing a banner.
    if qp_obs::enabled() {
        qp_obs::counter_add("quorumd_recoveries_total", 1);
        qp_obs::counter_add("quorumd_recovery_torn_tail_total", u64::from(torn_tail));
        qp_obs::point(
            "daemon.recovery",
            &[
                ("snapshot_seq", qp_obs::FieldValue::U64(snapshot_seq)),
                ("wal_deltas", qp_obs::FieldValue::U64(wal_deltas as u64)),
                ("torn_tail", qp_obs::FieldValue::Bool(torn_tail)),
                ("degraded", qp_obs::FieldValue::Bool(degraded)),
                ("checked", qp_obs::FieldValue::Bool(checked)),
            ],
        );
    }
    Ok((
        session,
        RecoveryReport {
            snapshot_seq,
            wal_deltas,
            torn_tail,
            degraded,
            checked,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionConfig;
    use qp_core::one_to_one;
    use qp_quorum::QuorumSystem;
    use qp_topology::datasets;

    fn config() -> SessionConfig {
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
    }

    fn state_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("quorumd-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The names of the files in `dir`, sorted.
    fn files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// The log's text, and the number of its lines up to and including
    /// `end` (the header, `seq` and the base).
    fn log_and_base_lines(dir: &Path) -> (String, usize) {
        let text = fs::read_to_string(dir.join(LOG_FILE)).unwrap();
        let base = text.lines().position(|l| l == "end").unwrap() + 1;
        (text, base)
    }

    /// Replaces the log's tail with `tail`, keeping its base.
    fn write_tail(dir: &Path, tail: &str) -> usize {
        let (text, base) = log_and_base_lines(dir);
        let kept: String = text.lines().take(base).map(|l| format!("{l}\n")).collect();
        fs::write(dir.join(LOG_FILE), kept + tail).unwrap();
        base
    }

    fn assert_same_answer(a: &Session, b: &Session) {
        let (x, y) = (a.answer(), b.answer());
        assert_eq!(x.capacity, y.capacity);
        let rel = |p: f64, q: f64| (p - q).abs() / (1.0 + p.abs().max(q.abs()));
        assert!(rel(x.delay_ms, y.delay_ms) <= 1e-9);
        assert!(rel(x.response_ms, y.response_ms) <= 1e-9);
        for (ra, rb) in x.strategy.iter().zip(&y.strategy) {
            for (&pa, &pb) in ra.iter().zip(rb) {
                assert!((pa - pb).abs() <= 1e-9);
            }
        }
    }

    #[test]
    fn kill_and_recover_round_trips_within_1e9() {
        let dir = state_dir("roundtrip");
        let mut live = Session::new(config()).unwrap();
        let mut persist = Persistence::open(&dir, 3, &live).unwrap();
        assert_eq!(files(&dir), [LOG_FILE]);
        let deltas = [
            Delta::Demand {
                loc: 1,
                weight: 4.0,
            },
            Delta::Slowdown {
                site: 3,
                factor: 2.5,
            },
            Delta::Crash { node: 5 },
            Delta::Demand {
                loc: 7,
                weight: 0.25,
            },
            Delta::Slowdown {
                site: 0,
                factor: 1.7,
            },
        ];
        for d in &deltas {
            let before = live.seq();
            live.apply(d).unwrap();
            assert!(live.seq() > before);
            persist.record(d, &live).unwrap();
        }
        // snapshot_every = 3 → compaction at delta 3, two tail lines since.
        assert_eq!(persist.tail_len(), 2);
        assert_eq!(files(&dir), [LOG_FILE]);
        drop(persist); // kill -9: nothing flushed beyond what fsync already made durable

        let (recovered, report) = recover(config(), &dir).unwrap();
        assert_eq!(recovered.seq(), live.seq());
        assert_eq!(report.snapshot_seq, 3);
        assert_eq!(report.wal_deltas, 2);
        assert!(!report.torn_tail && !report.degraded && report.checked);
        assert_same_answer(&live, &recovered);
        let persist = Persistence::open(&dir, 3, &recovered).unwrap();
        assert_eq!(persist.tail_len(), 0);
        assert_eq!(files(&dir), [LOG_FILE]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Deltas the session refuses (an overflowing slowdown, demand
    /// weights that overflow or leave a share the LP cannot resolve)
    /// advance nothing, so none is logged, and the state directory still
    /// recovers to the live answer.
    #[test]
    fn refused_overflow_deltas_leave_the_wal_recoverable() {
        let dir = state_dir("refused");
        let mut live = Session::new(config()).unwrap();
        let mut persist = Persistence::open(&dir, 100, &live).unwrap();
        let d = Delta::Slowdown {
            site: 4,
            factor: 2.5,
        };
        live.apply(&d).unwrap();
        persist.record(&d, &live).unwrap();
        for d in [
            Delta::Slowdown {
                site: 4,
                factor: 1e50,
            },
            Delta::Slowdown {
                site: 4,
                factor: 1e308,
            },
            Delta::Demand {
                loc: 0,
                weight: 1e308,
            },
            Delta::Demand {
                loc: 1,
                weight: 1e308,
            },
        ] {
            assert!(matches!(live.apply(&d), Err(SessionError::BadDelta(_))));
            assert_eq!(live.seq(), 1);
        }
        drop(persist);

        let (recovered, report) = recover(config(), &dir).unwrap();
        assert_eq!(report.wal_deltas, 1);
        assert!(report.checked);
        assert_eq!(recovered.persisted_state(), live.persisted_state());
        assert_same_answer(&live, &recovered);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_state_dir_recovers_to_a_fresh_session() {
        let dir = state_dir("fresh");
        fs::create_dir_all(&dir).unwrap();
        let (recovered, report) = recover(config(), &dir).unwrap();
        assert_eq!(recovered.seq(), 0);
        assert_eq!(
            report,
            RecoveryReport {
                snapshot_seq: 0,
                wal_deltas: 0,
                torn_tail: false,
                degraded: false,
                // Nothing was recovered, so nothing is cross-checked.
                checked: false,
            }
        );
        let fresh = Session::new(config()).unwrap();
        assert_same_answer(&fresh, &recovered);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_wal_line_is_dropped() {
        let dir = state_dir("torn");
        let mut live = Session::new(config()).unwrap();
        let mut persist = Persistence::open(&dir, 100, &live).unwrap();
        let d = Delta::Demand {
            loc: 2,
            weight: 3.0,
        };
        live.apply(&d).unwrap();
        persist.record(&d, &live).unwrap();
        drop(persist);
        // The process died mid-append of a second delta.
        let mut log = OpenOptions::new()
            .append(true)
            .open(dir.join(LOG_FILE))
            .unwrap();
        log.write_all(b"2 slowdown 4 1.9").unwrap();
        drop(log);

        let (recovered, report) = recover(config(), &dir).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.wal_deltas, 1);
        assert_eq!(recovered.seq(), 1);
        assert_same_answer(&live, &recovered);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A tail line whose stamp jumps past the seq before it is
    /// corruption, not something to replay, and so is one that repeats
    /// a seq the base already holds.
    #[test]
    fn seq_gap_in_the_tail_is_corruption() {
        let dir = state_dir("gap");
        let mut live = Session::new(config()).unwrap();
        let mut persist = Persistence::open(&dir, 3, &live).unwrap();
        for d in [
            Delta::Demand {
                loc: 1,
                weight: 4.0,
            },
            Delta::Crash { node: 5 },
            Delta::Slowdown {
                site: 3,
                factor: 2.5,
            },
        ] {
            live.apply(&d).unwrap();
            persist.record(&d, &live).unwrap();
        }
        drop(persist);
        // The third delta compacted the log: its base is at seq 3.
        for (tail, message) in [
            ("5 demand 1 2.0\n", "seq 5 does not follow seq 3"),
            ("3 slowdown 3 2.5\n", "seq 3 does not follow seq 3"),
        ] {
            let base = write_tail(&dir, tail);
            match recover(config(), &dir) {
                Err(PersistError::Corrupt {
                    line, message: m, ..
                }) => {
                    assert_eq!(line, base + 1);
                    assert!(m.contains(message), "{m}");
                }
                Err(e) => panic!("wrong error: {e}"),
                Ok(_) => panic!("expected seq-gap corruption"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_wal_corruption_names_the_line() {
        let dir = state_dir("corrupt");
        let live = Session::new(config()).unwrap();
        let _persist = Persistence::open(&dir, 100, &live).unwrap();
        let base = write_tail(&dir, "1 demand 1 2.0\n2 warp speed 9\n3 demand 2 1.0\n");
        match recover(config(), &dir) {
            Err(PersistError::Corrupt { line, .. }) => assert_eq!(line, base + 2),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("expected corruption error"),
        }
        // A tail that contradicts its base (crash of a crashed node) is
        // corruption too.
        let base = write_tail(&dir, "1 crash 5\n2 crash 5\n");
        match recover(config(), &dir) {
            Err(PersistError::Corrupt { line, message, .. }) => {
                assert_eq!(line, base + 2);
                assert!(message.contains("replay rejected"), "{message}");
            }
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("expected replay rejection"),
        }
        // Base lines out of index order, crashes out of ascending order
        // and a restore in the base name their line.
        let (text, _) = log_and_base_lines(&dir);
        for (from, to, culprit) in [
            ("demand 1 ", "demand 2 ", "demand 2 "),
            ("slowdown 0 ", "slowdown 1 ", "slowdown 1 "),
            ("\nend\n", "\nrestore 3\nend\n", "restore 3"),
            ("\nend\n", "\ncrash 4\ncrash 3\nend\n", "crash 3"),
        ] {
            let bad = text.replacen(from, to, 1);
            let line = bad.lines().position(|l| l.starts_with(culprit)).unwrap() + 1;
            fs::write(dir.join(LOG_FILE), bad).unwrap();
            match recover(config(), &dir) {
                Err(PersistError::Corrupt { line: l, .. }) => assert_eq!(l, line),
                Err(e) => panic!("wrong error: {e}"),
                Ok(_) => panic!("expected corruption for '{to}'"),
            }
        }
        // Bytes that are not UTF-8 name their line too.
        fs::write(dir.join(LOG_FILE), &text).unwrap();
        let base = write_tail(&dir, "1 demand 1 2.0\n");
        let mut bytes = fs::read(dir.join(LOG_FILE)).unwrap();
        bytes.extend_from_slice(b"2 demand 2 1\xff\n");
        fs::write(dir.join(LOG_FILE), bytes).unwrap();
        match recover(config(), &dir) {
            Err(PersistError::Corrupt { line, message, .. }) => {
                assert_eq!(line, base + 2);
                assert!(message.contains("UTF-8"), "{message}");
            }
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("expected corruption error"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let dir = state_dir("snap-trunc");
        let live = Session::new(config()).unwrap();
        let _persist = Persistence::open(&dir, 100, &live).unwrap();
        let text = fs::read_to_string(dir.join(LOG_FILE)).unwrap();
        let cut = text.len() - "end\n".len();
        fs::write(dir.join(LOG_FILE), &text[..cut]).unwrap();
        assert!(matches!(
            recover(config(), &dir),
            Err(PersistError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A compaction killed before its rename leaves its temp file beside
    /// the old log: recovery reads the old log alone, and the next
    /// compaction replaces the temp file.
    #[test]
    fn leftover_temp_from_a_killed_compaction_leaves_the_old_log_recoverable() {
        let dir = state_dir("leftover-tmp");
        let mut live = Session::new(config()).unwrap();
        let mut persist = Persistence::open(&dir, 100, &live).unwrap();
        let d = Delta::Crash { node: 5 };
        live.apply(&d).unwrap();
        persist.record(&d, &live).unwrap();
        drop(persist);
        let (text, base) = log_and_base_lines(&dir);
        let half: String = text
            .lines()
            .take(base / 2)
            .map(|l| format!("{l}\n"))
            .collect();
        fs::write(dir.join(LOG_TMP), half).unwrap();

        let (recovered, report) = recover(config(), &dir).unwrap();
        assert_eq!((report.snapshot_seq, report.wal_deltas), (0, 1));
        assert!(report.checked);
        assert_eq!(recovered.persisted_state(), live.persisted_state());
        assert_same_answer(&live, &recovered);
        let _persist = Persistence::open(&dir, 100, &recovered).unwrap();
        assert_eq!(files(&dir), [LOG_FILE]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A directory holding a file of the earlier two-file layout is
    /// refused with the file named, by recovery and by `open` alike; it
    /// is never started fresh.
    #[test]
    fn old_layout_directory_is_refused_naming_the_file() {
        // Files as the earlier layout wrote them for this session: a
        // snapshot of its fresh state, and a WAL holding one crash.
        let mut snapshot = "quorumd-snapshot v1\nseq 0\n".to_string();
        for kind in ["demand", "slowdown"] {
            for v in 0..12 {
                snapshot.push_str(&format!("{kind} {v} 1\n"));
            }
        }
        snapshot.push_str("end\n");
        for (old, contents) in OLD_LAYOUT
            .into_iter()
            .zip([snapshot.as_str(), "1 crash 5\n"])
        {
            let dir = state_dir(&format!("old-{old}"));
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join(old), contents).unwrap();
            match recover(config(), &dir) {
                Err(e @ PersistError::Corrupt { .. }) => {
                    assert!(e.to_string().contains(old), "{e}");
                }
                Err(e) => panic!("wrong error: {e}"),
                Ok(_) => panic!("recovered a directory holding {old}"),
            }
            let fresh = Session::new(config()).unwrap();
            let err = Persistence::open(&dir, 100, &fresh).err().unwrap();
            assert!(err.to_string().contains(old), "{err}");
            assert_eq!(files(&dir), [old]);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn degraded_state_recovers_degraded_and_recovers_back() {
        let dir = state_dir("degraded");
        let mut live = Session::new(config()).unwrap();
        let mut persist = Persistence::open(&dir, 100, &live).unwrap();
        // Crash loaded nodes until the tune goes infeasible; every one
        // of those crashes advanced seq, so every one is logged.
        let victims: Vec<usize> = live
            .persisted_state()
            .raw_weights
            .iter()
            .enumerate()
            .map(|(w, _)| w)
            .collect();
        let mut tipped = None;
        for w in victims {
            let before = live.seq();
            match live.apply(&Delta::Crash { node: w }) {
                Ok(_) => persist.record(&Delta::Crash { node: w }, &live).unwrap(),
                Err(SessionError::Infeasible(_)) => {
                    assert!(live.seq() > before);
                    persist.record(&Delta::Crash { node: w }, &live).unwrap();
                    tipped = Some(w);
                    break;
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        let tipped = tipped.expect("crashing everything must go infeasible");
        assert!(live.degraded());
        drop(persist);

        let (mut recovered, report) = recover(config(), &dir).unwrap();
        assert!(report.degraded && !report.checked);
        assert_eq!(recovered.seq(), live.seq());
        assert!(recovered.degraded());
        // A restore delta heals the recovered session just like the
        // live one.
        recovered.apply(&Delta::Restore { node: tipped }).unwrap();
        assert!(!recovered.degraded());
        let _ = fs::remove_dir_all(&dir);
    }
}
