//! Crash-safe persistence for `quorumd`: an append-only delta WAL plus
//! periodic atomic snapshots, and recovery that replays both.
//!
//! The invariant is simple: **the durable state on disk is always a
//! snapshot plus the WAL of deltas applied since it was taken.** Every
//! delta that advances the session's sequence number is appended to the
//! WAL — its sequence number, then the delta in the exact wire grammar
//! of the [`crate::protocol`] module, with floats printed by
//! [`qp_obs::stable_f64`] so they round-trip bit-for-bit — and fsync'd
//! before the client sees the response. Every `snapshot_every` WAL
//! entries, the full [`PersistedState`] is written to a temp file,
//! fsync'd, atomically renamed over the previous snapshot, and the WAL is
//! truncated.
//!
//! The sequence stamp is what makes the snapshot-then-truncate pair
//! crash-safe without being atomic: a kill between the snapshot rename
//! and the WAL truncation leaves a snapshot at seq `N` *plus* a WAL
//! still holding deltas `≤ N` already folded into it. Replaying those
//! would double-apply demand/slowdown deltas and reject crash/restore
//! ones, so [`recover`] skips every WAL entry stamped `≤` the snapshot's
//! seq and requires the rest to continue contiguously from it.
//!
//! [`recover`] rebuilds a session from the directory: open fresh from
//! the [`SessionConfig`], bulk-restore the snapshot, replay the
//! still-pending WAL deltas one by one (an infeasible delta degrades the
//! session exactly as it did live), and — unless the session came back
//! degraded — cross-check the warm answer against a cold from-scratch
//! recompute to ≤ 1e-9, the same discipline `check` enforces online. A
//! torn final WAL line (the process died mid-append) is dropped;
//! corruption anywhere else is an error naming the line.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use qp_obs::stable_f64;

use crate::protocol::{parse_command, Command, Delta};
use crate::session::{PersistedState, Session, SessionConfig, SessionError};

/// Snapshot file name inside the state directory.
const SNAPSHOT_FILE: &str = "state.snap";
/// Temp name the snapshot is staged under before the atomic rename.
const SNAPSHOT_TMP: &str = "state.snap.tmp";
/// WAL file name inside the state directory.
const WAL_FILE: &str = "deltas.wal";
/// First line of every snapshot file.
const SNAPSHOT_HEADER: &str = "quorumd-snapshot v1";

/// Errors from persistence or recovery.
#[derive(Debug)]
pub enum PersistError {
    /// A file operation failed.
    Io(io::Error),
    /// A snapshot or WAL file holds something unreadable.
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
    /// Sequence number the snapshot carried (0 when none existed).
    pub snapshot_seq: u64,
    /// Deltas replayed from the WAL.
    pub wal_deltas: usize,
    /// WAL entries skipped because their seq was `≤` the snapshot's —
    /// deltas already folded in by a snapshot whose WAL truncation was
    /// interrupted by a crash.
    pub wal_stale: usize,
    /// Whether a torn final WAL line was dropped.
    pub torn_tail: bool,
    /// Whether the session came back degraded (infeasible live state).
    pub degraded: bool,
    /// Whether the cold cross-check ran and passed (skipped when
    /// degraded — there is no feasible cold answer to compare against —
    /// and when the directory held no state, where there is nothing
    /// recovered to verify).
    pub checked: bool,
}

/// A live persistence handle: the open WAL plus the snapshot cadence.
pub struct Persistence {
    dir: PathBuf,
    wal: File,
    wal_entries: usize,
    snapshot_every: usize,
}

impl Persistence {
    /// Opens persistence in `dir` (created if missing), writes a fresh
    /// snapshot of `session`, and truncates the WAL — so the on-disk
    /// state is exactly the session handed in. Call *after*
    /// [`recover`] (or on a brand-new session).
    ///
    /// # Errors
    ///
    /// Any file-system failure.
    pub fn open(dir: &Path, snapshot_every: usize, session: &Session) -> io::Result<Persistence> {
        fs::create_dir_all(dir)?;
        write_snapshot(dir, &session.persisted_state())?;
        let wal = File::create(dir.join(WAL_FILE))?;
        wal.sync_all()?;
        Ok(Persistence {
            dir: dir.to_path_buf(),
            wal,
            wal_entries: 0,
            snapshot_every: snapshot_every.max(1),
        })
    }

    /// Appends one applied delta to the WAL and fsyncs it; every
    /// `snapshot_every` entries the WAL is collapsed into a fresh
    /// atomic snapshot of `session`. Call only for deltas the session
    /// actually recorded (its sequence number advanced).
    ///
    /// # Errors
    ///
    /// Any file-system failure; the session itself is unaffected, but
    /// the caller should surface the failure (the on-disk state is now
    /// behind the live one).
    pub fn record(&mut self, delta: &Delta, session: &Session) -> io::Result<()> {
        let t0 = qp_obs::enabled().then(std::time::Instant::now);
        self.wal
            .write_all(wire_line(session.seq(), delta).as_bytes())?;
        self.wal.sync_data()?;
        if let Some(t0) = t0 {
            qp_obs::counter_add("quorumd_wal_appends_total", 1);
            qp_obs::observe(
                "quorumd_wal_append_wall_ms",
                t0.elapsed().as_secs_f64() * 1e3,
            );
        }
        self.wal_entries += 1;
        if self.wal_entries >= self.snapshot_every {
            self.snapshot(session)?;
        }
        Ok(())
    }

    /// Collapses the WAL into a fresh atomic snapshot of `session`.
    ///
    /// # Errors
    ///
    /// Any file-system failure.
    pub fn snapshot(&mut self, session: &Session) -> io::Result<()> {
        let t0 = qp_obs::enabled().then(std::time::Instant::now);
        write_snapshot(&self.dir, &session.persisted_state())?;
        self.wal = File::create(self.dir.join(WAL_FILE))?;
        self.wal.sync_all()?;
        self.wal_entries = 0;
        if let Some(t0) = t0 {
            qp_obs::counter_add("quorumd_snapshots_total", 1);
            qp_obs::observe("quorumd_snapshot_wall_ms", t0.elapsed().as_secs_f64() * 1e3);
        }
        Ok(())
    }

    /// WAL entries appended since the last snapshot.
    pub fn wal_entries(&self) -> usize {
        self.wal_entries
    }
}

/// One WAL entry: the session seq the delta advanced to, then the delta
/// in the wire grammar, newline-terminated, floats printed so they
/// round-trip bit-for-bit.
fn wire_line(seq: u64, delta: &Delta) -> String {
    match *delta {
        Delta::Slowdown { site, factor } => {
            format!("{seq} slowdown {site} {}\n", stable_f64(factor))
        }
        Delta::Demand { loc, weight } => format!("{seq} demand {loc} {}\n", stable_f64(weight)),
        Delta::Crash { node } => format!("{seq} crash {node}\n"),
        Delta::Restore { node } => format!("{seq} restore {node}\n"),
    }
}

/// Writes `state` to the snapshot file: temp file, fsync, atomic
/// rename, directory fsync.
fn write_snapshot(dir: &Path, state: &PersistedState) -> io::Result<()> {
    let mut text = String::new();
    text.push_str(SNAPSHOT_HEADER);
    text.push('\n');
    text.push_str(&format!("seq {}\n", state.seq));
    for (v, w) in state.raw_weights.iter().enumerate() {
        text.push_str(&format!("demand {v} {}\n", stable_f64(*w)));
    }
    for (w, f) in state.slowdown.iter().enumerate() {
        text.push_str(&format!("slowdown {w} {}\n", stable_f64(*f)));
    }
    for &w in &state.crashed {
        text.push_str(&format!("crash {w}\n"));
    }
    text.push_str("end\n");

    let tmp = dir.join(SNAPSHOT_TMP);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    // Persist the rename itself.
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Reads the snapshot, if one exists. The write path is atomic
/// (temp + rename), so a half-written snapshot never has the canonical
/// name — anything unreadable under it is corruption, not a torn write.
fn read_snapshot(dir: &Path) -> Result<Option<PersistedState>, PersistError> {
    let path = dir.join(SNAPSHOT_FILE);
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let file = path.display().to_string();
    let corrupt = |line: usize, message: String| PersistError::Corrupt {
        file: file.clone(),
        line,
        message,
    };
    let mut lines = text.lines().enumerate();
    let header = lines.next().map(|(_, l)| l);
    if header != Some(SNAPSHOT_HEADER) {
        return Err(corrupt(1, format!("expected `{SNAPSHOT_HEADER}` header")));
    }
    let mut seq: Option<u64> = None;
    let mut raw_weights = Vec::new();
    let mut slowdown = Vec::new();
    let mut crashed = Vec::new();
    let mut ended = false;
    for (idx, line) in lines {
        let lineno = idx + 1;
        if ended {
            return Err(corrupt(lineno, "content after `end` marker".into()));
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("seq") => {
                let tok = parts
                    .next()
                    .ok_or_else(|| corrupt(lineno, "seq: missing value".into()))?;
                seq = Some(
                    tok.parse::<u64>()
                        .map_err(|_| corrupt(lineno, format!("seq: bad value '{tok}'")))?,
                );
            }
            Some(kind @ ("demand" | "slowdown")) => {
                let idx_tok = parts
                    .next()
                    .ok_or_else(|| corrupt(lineno, format!("{kind}: missing index")))?;
                let val_tok = parts
                    .next()
                    .ok_or_else(|| corrupt(lineno, format!("{kind}: missing value")))?;
                let i: usize = idx_tok
                    .parse()
                    .map_err(|_| corrupt(lineno, format!("{kind}: bad index '{idx_tok}'")))?;
                let v: f64 = val_tok
                    .parse()
                    .map_err(|_| corrupt(lineno, format!("{kind}: bad value '{val_tok}'")))?;
                let out = if kind == "demand" {
                    &mut raw_weights
                } else {
                    &mut slowdown
                };
                if i != out.len() {
                    return Err(corrupt(
                        lineno,
                        format!("{kind}: index {i} out of order (expected {})", out.len()),
                    ));
                }
                out.push(v);
            }
            Some("crash") => {
                let tok = parts
                    .next()
                    .ok_or_else(|| corrupt(lineno, "crash: missing node".into()))?;
                crashed.push(
                    tok.parse::<usize>()
                        .map_err(|_| corrupt(lineno, format!("crash: bad node '{tok}'")))?,
                );
            }
            Some("end") => ended = true,
            Some(other) => return Err(corrupt(lineno, format!("unknown entry '{other}'"))),
            None => {}
        }
        if parts.next().is_some() {
            return Err(corrupt(lineno, "trailing tokens".into()));
        }
    }
    if !ended {
        return Err(corrupt(
            0,
            "missing `end` marker (truncated snapshot)".into(),
        ));
    }
    let seq = seq.ok_or_else(|| corrupt(0, "missing `seq` entry".into()))?;
    Ok(Some(PersistedState {
        seq,
        raw_weights,
        slowdown,
        crashed,
    }))
}

/// Reads the WAL into seq-stamped deltas. A torn final line (no
/// trailing newline — the process died mid-append) is dropped and
/// flagged; anything else unparseable is corruption naming the line.
fn read_wal(dir: &Path) -> Result<(Vec<(u64, Delta)>, bool), PersistError> {
    let path = dir.join(WAL_FILE);
    let mut text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), false)),
        Err(e) => return Err(e.into()),
    };
    let mut torn = false;
    if !text.is_empty() && !text.ends_with('\n') {
        torn = true;
        match text.rfind('\n') {
            Some(pos) => text.truncate(pos + 1),
            None => text.clear(),
        }
    }
    let file = path.display().to_string();
    let mut deltas = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let corrupt = |message: String| PersistError::Corrupt {
            file: file.clone(),
            line: idx + 1,
            message,
        };
        let (seq_tok, rest) = line
            .split_once(' ')
            .ok_or_else(|| corrupt(format!("entry without seq stamp '{line}'")))?;
        let seq: u64 = seq_tok
            .parse()
            .map_err(|_| corrupt(format!("bad seq stamp '{seq_tok}'")))?;
        match parse_command(rest) {
            Ok(Some(Command::Delta(d))) => deltas.push((seq, d)),
            Ok(Some(_)) => return Err(corrupt(format!("non-delta entry '{line}'"))),
            Ok(None) => return Err(corrupt("blank entry".into())),
            Err(msg) => return Err(corrupt(msg)),
        }
    }
    Ok((deltas, torn))
}

/// Rebuilds a session from a state directory: open fresh from `cfg`,
/// restore the snapshot (if any), replay the WAL delta by delta, and —
/// unless the recovered state is degraded — cross-check the warm answer
/// against a cold from-scratch recompute at the session's 1e-9
/// discipline. An empty or missing directory recovers to a fresh
/// session with an all-pass report.
///
/// # Errors
///
/// [`PersistError::Corrupt`] on unreadable files (a torn *final* WAL
/// line is tolerated, not an error), [`PersistError::Session`] when the
/// state doesn't fit `cfg`, [`PersistError::Mismatch`] when the
/// recovered answer diverges from the cold recompute.
pub fn recover(cfg: SessionConfig, dir: &Path) -> Result<(Session, RecoveryReport), PersistError> {
    let mut session = Session::new(cfg).map_err(PersistError::Session)?;
    let mut snapshot_seq = 0;
    if let Some(state) = read_snapshot(dir)? {
        snapshot_seq = state.seq;
        session
            .restore_state(&state)
            .map_err(PersistError::Session)?;
    }
    let (deltas, torn_tail) = read_wal(dir)?;
    let mut wal_deltas = 0;
    let mut wal_stale = 0;
    for (i, (seq, delta)) in deltas.iter().enumerate() {
        let corrupt = |message: String| PersistError::Corrupt {
            file: dir.join(WAL_FILE).display().to_string(),
            line: i + 1,
            message,
        };
        if *seq <= snapshot_seq {
            // Already folded into the snapshot: the process died between
            // the snapshot rename and the WAL truncation. Replaying it
            // would double-apply the delta.
            wal_stale += 1;
            continue;
        }
        if *seq != session.seq() + 1 {
            return Err(corrupt(format!(
                "seq {seq} does not follow session seq {}",
                session.seq()
            )));
        }
        match session.apply(delta) {
            // Ok, or recorded-but-infeasible: both advanced seq, both
            // are exactly what happened live.
            Ok(_) | Err(SessionError::Infeasible(_)) | Err(SessionError::Lp(_)) => wal_deltas += 1,
            Err(e) => {
                // A rejected delta can never have been logged: the WAL
                // disagrees with the snapshot it extends.
                return Err(corrupt(format!("replay rejected: {e}")));
            }
        }
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
        qp_obs::counter_add("quorumd_recovery_wal_stale_total", wal_stale as u64);
        qp_obs::counter_add("quorumd_recovery_torn_tail_total", u64::from(torn_tail));
        qp_obs::point(
            "daemon.recovery",
            &[
                ("snapshot_seq", qp_obs::FieldValue::U64(snapshot_seq)),
                ("wal_deltas", qp_obs::FieldValue::U64(wal_deltas as u64)),
                ("wal_stale", qp_obs::FieldValue::U64(wal_stale as u64)),
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
            wal_stale,
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
        // snapshot_every = 3 → snapshot at delta 3, two WAL entries since.
        assert_eq!(persist.wal_entries(), 2);
        drop(persist); // kill -9: nothing flushed beyond what fsync already made durable

        let (recovered, report) = recover(config(), &dir).unwrap();
        assert_eq!(recovered.seq(), live.seq());
        assert_eq!(report.snapshot_seq, 3);
        assert_eq!(report.wal_deltas, 2);
        assert!(!report.torn_tail && !report.degraded && report.checked);
        assert_same_answer(&live, &recovered);
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
                wal_stale: 0,
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
        let mut wal = fs::OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        wal.write_all(b"2 slowdown 4 1.9").unwrap();
        drop(wal);

        let (recovered, report) = recover(config(), &dir).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.wal_deltas, 1);
        assert_eq!(recovered.seq(), 1);
        assert_same_answer(&live, &recovered);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_wal_after_interrupted_truncation_is_skipped() {
        let dir = state_dir("stale");
        let mut live = Session::new(config()).unwrap();
        let mut persist = Persistence::open(&dir, 100, &live).unwrap();
        let deltas = [
            Delta::Demand {
                loc: 1,
                weight: 4.0,
            },
            Delta::Crash { node: 5 },
            Delta::Slowdown {
                site: 3,
                factor: 2.5,
            },
        ];
        for d in &deltas {
            live.apply(d).unwrap();
            persist.record(d, &live).unwrap();
        }
        // Simulate a kill -9 between the snapshot's atomic rename and
        // the WAL truncation: snapshot at seq 3, WAL still holding the
        // three deltas it already folded in.
        let wal_before = fs::read(dir.join(WAL_FILE)).unwrap();
        persist.snapshot(&live).unwrap();
        drop(persist);
        fs::write(dir.join(WAL_FILE), &wal_before).unwrap();

        let (recovered, report) = recover(config(), &dir).unwrap();
        assert_eq!(report.snapshot_seq, 3);
        assert_eq!(report.wal_stale, 3, "folded-in deltas must be skipped");
        assert_eq!(report.wal_deltas, 0);
        assert!(report.checked);
        assert_eq!(recovered.seq(), live.seq());
        assert_same_answer(&live, &recovered);

        // A WAL entry that jumps past the session seq is corruption, not
        // something to replay.
        fs::write(dir.join(WAL_FILE), b"5 demand 1 2.0\n").unwrap();
        match recover(config(), &dir) {
            Err(PersistError::Corrupt { line, message, .. }) => {
                assert_eq!(line, 1);
                assert!(message.contains("does not follow"), "{message}");
            }
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("expected seq-gap corruption"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_wal_corruption_names_the_line() {
        let dir = state_dir("corrupt");
        let live = Session::new(config()).unwrap();
        let _persist = Persistence::open(&dir, 100, &live).unwrap();
        fs::write(
            dir.join(WAL_FILE),
            "1 demand 1 2.0\n2 warp speed 9\n3 demand 2 1.0\n",
        )
        .unwrap();
        match recover(config(), &dir) {
            Err(PersistError::Corrupt { line, .. }) => assert_eq!(line, 2),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("expected corruption error"),
        }
        // A WAL that contradicts its snapshot (crash of a crashed node)
        // is corruption too.
        fs::write(dir.join(WAL_FILE), "1 crash 5\n2 crash 5\n").unwrap();
        match recover(config(), &dir) {
            Err(PersistError::Corrupt { line, message, .. }) => {
                assert_eq!(line, 2);
                assert!(message.contains("replay rejected"), "{message}");
            }
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("expected replay rejection"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let dir = state_dir("snap-trunc");
        let live = Session::new(config()).unwrap();
        let _persist = Persistence::open(&dir, 100, &live).unwrap();
        let text = fs::read_to_string(dir.join(SNAPSHOT_FILE)).unwrap();
        let cut = text.len() - "end\n".len();
        fs::write(dir.join(SNAPSHOT_FILE), &text[..cut]).unwrap();
        assert!(matches!(
            recover(config(), &dir),
            Err(PersistError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn degraded_state_recovers_degraded_and_recovers_back() {
        let dir = state_dir("degraded");
        let mut live = Session::new(config()).unwrap();
        let mut persist = Persistence::open(&dir, 100, &live).unwrap();
        // Crash loaded nodes until the tune goes infeasible; every one
        // of those crashes advanced seq, so every one is WAL-logged.
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
