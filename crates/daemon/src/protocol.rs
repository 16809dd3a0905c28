//! The `quorumd` line protocol.
//!
//! Requests are single lines, one command each:
//!
//! ```text
//! slowdown <site> <factor>   # site's service slows by factor (σ ≥ 1 typical)
//! demand <loc> <weight>      # client loc's demand weight (≥ 0)
//! crash <node>               # node leaves; its capacity drops to 0
//! restore <node>             # node returns (clears crash and slowdown)
//! query                      # one-line session status
//! snapshot                   # full strategy matrix + tuned capacity
//! check                      # cold from-scratch cross-check of the warm state
//! health                     # liveness probe: seq, degraded flag, persistence
//! metrics                    # Prometheus-style exposition of the session's metrics
//! shutdown                   # stop the server after this reply
//! ```
//!
//! Every request gets one response: a first line `ok <summary>` or
//! `err <message>`, zero or more detail lines, then a lone `.`
//! terminator. Blank request lines and `#` comments are ignored (no
//! response), so delta scripts can be piped in verbatim.

use std::fmt;
use std::io::{self, BufRead};

use qp_obs::stable_f64;

/// An online change to a deployed system. Its `Display` is the request
/// line [`parse_command`] reads back, floats printed by [`stable_f64`] so
/// they round-trip bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delta {
    /// Site `site`'s service time inflates all its distances by `factor`.
    Slowdown {
        /// Node index of the slowed site.
        site: usize,
        /// Multiplicative factor in `(0, 1e5]` (`1.0` clears the
        /// slowdown); a session refuses a larger one, which the LP cannot
        /// resolve.
        factor: f64,
    },
    /// Client `loc`'s demand weight becomes `weight`.
    Demand {
        /// Node index of the client.
        loc: usize,
        /// New raw demand weight (≥ 0).
        weight: f64,
    },
    /// Node `node` crashes: no load can be served there.
    Crash {
        /// Node index.
        node: usize,
    },
    /// Node `node` returns to service at full speed.
    Restore {
        /// Node index.
        node: usize,
    },
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Delta::Slowdown { site, factor } => write!(f, "slowdown {site} {}", stable_f64(factor)),
            Delta::Demand { loc, weight } => write!(f, "demand {loc} {}", stable_f64(weight)),
            Delta::Crash { node } => write!(f, "crash {node}"),
            Delta::Restore { node } => write!(f, "restore {node}"),
        }
    }
}

/// A parsed protocol command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Command {
    /// Apply an online delta.
    Delta(Delta),
    /// Report session status.
    Query,
    /// Dump the full strategy matrix.
    Snapshot,
    /// Run the cold cross-check.
    Check,
    /// Report liveness: sequence number, degraded flag, persistence.
    Health,
    /// Dump the observability registry as a Prometheus-style text
    /// exposition (counters, gauges, and per-delta latency histograms).
    Metrics,
    /// Stop the server.
    Shutdown,
}

/// Parses one request line. Returns `Ok(None)` for blank lines and
/// `#` comments (no response due), `Err` with a message for malformed
/// commands.
///
/// # Errors
///
/// A human-readable message naming the offending token.
pub fn parse_command(line: &str) -> Result<Option<Command>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let verb = parts.next().expect("non-empty line has a first token");
    let mut rest: Vec<&str> = parts.collect();
    let mut take_index = |what: &str| -> Result<usize, String> {
        if rest.is_empty() {
            return Err(format!("{verb}: missing {what}"));
        }
        let tok = rest.remove(0);
        tok.parse::<usize>()
            .map_err(|_| format!("{verb}: {what} '{tok}' is not a node index"))
    };
    let cmd = match verb {
        "slowdown" => {
            let site = take_index("site")?;
            let tok = rest
                .first()
                .copied()
                .ok_or_else(|| "slowdown: missing factor".to_string())?;
            rest.remove(0);
            let factor: f64 = tok
                .parse()
                .map_err(|_| format!("slowdown: factor '{tok}' is not a number"))?;
            Command::Delta(Delta::Slowdown { site, factor })
        }
        "demand" => {
            let loc = take_index("loc")?;
            let tok = rest
                .first()
                .copied()
                .ok_or_else(|| "demand: missing weight".to_string())?;
            rest.remove(0);
            let weight: f64 = tok
                .parse()
                .map_err(|_| format!("demand: weight '{tok}' is not a number"))?;
            Command::Delta(Delta::Demand { loc, weight })
        }
        "crash" => Command::Delta(Delta::Crash {
            node: take_index("node")?,
        }),
        "restore" => Command::Delta(Delta::Restore {
            node: take_index("node")?,
        }),
        "query" => Command::Query,
        "snapshot" => Command::Snapshot,
        "check" => Command::Check,
        "health" => Command::Health,
        "metrics" => Command::Metrics,
        "shutdown" => Command::Shutdown,
        other => return Err(format!("unknown command '{other}'")),
    };
    if !rest.is_empty() {
        return Err(format!("{verb}: unexpected trailing '{}'", rest.join(" ")));
    }
    Ok(Some(cmd))
}

/// A framed response: status line, detail lines, `.` terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// `true` for `ok`, `false` for `err`.
    pub ok: bool,
    /// The rest of the status line after `ok `/`err `.
    pub summary: String,
    /// Detail lines (without the terminator).
    pub detail: Vec<String>,
}

impl Response {
    /// An `ok` response.
    pub fn ok(summary: impl Into<String>, detail: Vec<String>) -> Response {
        Response {
            ok: true,
            summary: summary.into(),
            detail,
        }
    }

    /// An `err` response.
    pub fn err(message: impl Into<String>) -> Response {
        Response {
            ok: false,
            summary: message.into(),
            detail: Vec::new(),
        }
    }

    /// Serializes the response, terminator included.
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        out.push_str(if self.ok { "ok " } else { "err " });
        out.push_str(&self.summary);
        out.push('\n');
        for line in &self.detail {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(".\n");
        out
    }
}

/// Reads one framed response off `reader` (as written by
/// [`Response::to_wire`]).
///
/// # Errors
///
/// [`io::ErrorKind::UnexpectedEof`] if the stream ends before the `.`
/// terminator, [`io::ErrorKind::InvalidData`] if the status line is
/// neither `ok …` nor `err …`.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Response> {
    let mut status = String::new();
    if reader.read_line(&mut status)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before response",
        ));
    }
    let status = status.trim_end().to_string();
    let framed = |rest: &str| rest.is_empty() || rest.starts_with(' ');
    let (ok, summary) = if let Some(rest) = status.strip_prefix("ok").filter(|r| framed(r)) {
        (true, rest.trim_start().to_string())
    } else if let Some(rest) = status.strip_prefix("err").filter(|r| framed(r)) {
        (false, rest.trim_start().to_string())
    } else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed status line: {status}"),
        ));
    };
    let mut detail = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before terminator",
            ));
        }
        let line = line.trim_end();
        if line == "." {
            break;
        }
        detail.push(line.to_string());
    }
    Ok(Response {
        ok,
        summary,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_every_command() {
        assert_eq!(
            parse_command("slowdown 3 2.5").unwrap(),
            Some(Command::Delta(Delta::Slowdown {
                site: 3,
                factor: 2.5
            }))
        );
        assert_eq!(
            parse_command("demand 0 0.75").unwrap(),
            Some(Command::Delta(Delta::Demand {
                loc: 0,
                weight: 0.75
            }))
        );
        assert_eq!(
            parse_command("crash 7").unwrap(),
            Some(Command::Delta(Delta::Crash { node: 7 }))
        );
        assert_eq!(
            parse_command("restore 7").unwrap(),
            Some(Command::Delta(Delta::Restore { node: 7 }))
        );
        assert_eq!(parse_command("query").unwrap(), Some(Command::Query));
        assert_eq!(parse_command("snapshot").unwrap(), Some(Command::Snapshot));
        assert_eq!(parse_command("check").unwrap(), Some(Command::Check));
        assert_eq!(parse_command("health").unwrap(), Some(Command::Health));
        assert_eq!(parse_command("metrics").unwrap(), Some(Command::Metrics));
        assert_eq!(parse_command("shutdown").unwrap(), Some(Command::Shutdown));
    }

    #[test]
    fn deltas_print_as_lines_that_parse_back_bit_for_bit() {
        for x in [2.5, 0.1, 1.0 / 3.0, 1e5, 5e-324, 1e-300, f64::MAX, 0.0] {
            for d in [
                Delta::Slowdown { site: 3, factor: x },
                Delta::Demand { loc: 0, weight: x },
            ] {
                let Some(Command::Delta(back)) = parse_command(&d.to_string()).unwrap() else {
                    panic!("{d} did not parse as a delta");
                };
                let bits = |d: Delta| match d {
                    Delta::Slowdown { factor, .. } => factor.to_bits(),
                    Delta::Demand { weight, .. } => weight.to_bits(),
                    _ => unreachable!(),
                };
                assert_eq!(back, d);
                assert_eq!(bits(back), bits(d), "{d}");
            }
        }
        assert_eq!(Delta::Crash { node: 7 }.to_string(), "crash 7");
        assert_eq!(Delta::Restore { node: 7 }.to_string(), "restore 7");
    }

    #[test]
    fn blank_lines_and_comments_are_silent() {
        assert_eq!(parse_command("").unwrap(), None);
        assert_eq!(parse_command("   ").unwrap(), None);
        assert_eq!(parse_command("# a comment").unwrap(), None);
    }

    #[test]
    fn malformed_commands_name_the_problem() {
        assert!(parse_command("slowdown").unwrap_err().contains("site"));
        assert!(parse_command("slowdown 1").unwrap_err().contains("factor"));
        assert!(parse_command("slowdown x 2").unwrap_err().contains("'x'"));
        assert!(parse_command("demand 1 fast")
            .unwrap_err()
            .contains("'fast'"));
        assert!(parse_command("crash").unwrap_err().contains("node"));
        assert!(parse_command("warp 1").unwrap_err().contains("unknown"));
        assert!(parse_command("query extra")
            .unwrap_err()
            .contains("trailing"));
        assert!(parse_command("crash 1 2").unwrap_err().contains("trailing"));
    }

    #[test]
    fn responses_roundtrip_the_wire() {
        let r = Response::ok(
            "delta applied seq=4",
            vec!["capacity 0.75".into(), "delay 42.5".into()],
        );
        let mut cursor = Cursor::new(r.to_wire());
        assert_eq!(read_response(&mut cursor).unwrap(), r);

        let e = Response::err("bad delta: node 99 out of range");
        let mut cursor = Cursor::new(e.to_wire());
        assert_eq!(read_response(&mut cursor).unwrap(), e);
    }

    #[test]
    fn truncated_responses_error_cleanly() {
        let mut cursor = Cursor::new("ok fine\nno terminator\n");
        assert_eq!(
            read_response(&mut cursor).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
        let mut cursor = Cursor::new("what\n.\n");
        assert_eq!(
            read_response(&mut cursor).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }
}
