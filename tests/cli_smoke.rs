//! Smoke tests for the `quorumnet` CLI binary: every subcommand must run
//! to completion (exit 0) on a small topology, and reject garbage with a
//! nonzero exit. Uses the `CARGO_BIN_EXE_quorumnet` path Cargo exports to
//! integration tests, so `cargo test` exercises the real binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_quorumnet"))
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("quorumnet binary should spawn")
}

fn assert_ok(args: &[&str]) -> String {
    let out = run(args);
    assert!(
        out.status.success(),
        "`quorumnet {}` failed with {:?}:\n{}",
        args.join(" "),
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A 6-node ring RTT matrix in the `qp_topology::io` text format.
fn small_topology_file() -> tempfile::TempPath {
    let n = 6;
    let mut text = String::from("a b c d e f\n");
    for i in 0..n {
        for j in 0..n {
            let fwd = (j + n - i) % n;
            let hops = fwd.min(n - fwd);
            text.push_str(&format!("{} ", hops as f64 * 10.0));
        }
        text.push('\n');
    }
    tempfile::write(text)
}

/// Minimal stand-in for the `tempfile` crate (not available offline):
/// writes into `std::env::temp_dir()` and deletes on drop.
mod tempfile {
    use std::path::PathBuf;

    pub struct TempPath(PathBuf);

    impl TempPath {
        pub fn as_str(&self) -> &str {
            self.0.to_str().expect("temp path is valid UTF-8")
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    pub fn write(content: String) -> TempPath {
        // Unique per call: tests run in parallel threads of one process, so
        // the pid alone would collide and one test's Drop could delete a
        // file another test's subprocess is about to read.
        static COUNTER: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "quorumnet_cli_smoke_{}_{}.txt",
            std::process::id(),
            n
        ));
        std::fs::write(&path, content).expect("temp dir is writable");
        TempPath(path)
    }
}

#[test]
fn help_runs_clean() {
    let stdout = assert_ok(&["help"]);
    assert!(stdout.contains("quorumnet"));
    assert!(stdout.contains("simulate"));
    // `serve` tunes on its resident LP only: no command offers `--colgen`.
    assert!(stdout.contains("serve flags:"), "{stdout}");
    assert!(!stdout.contains("--colgen"), "{stdout}");
    // A wrapped flag description continues under its first line's
    // description column.
    let mut flag_column = None;
    for line in stdout.lines() {
        let indent = line.len() - line.trim_start().len();
        if let Some(flag) = line.strip_prefix("  --") {
            let gap = flag.find("  ").unwrap_or(flag.len());
            let desc = &flag[gap..];
            flag_column = Some(4 + gap + desc.len() - desc.trim_start().len());
        } else if indent == 0 {
            flag_column = None;
        } else if let Some(column) = flag_column {
            assert_eq!(indent, column, "misaligned help line {line:?}");
        }
    }
}

#[test]
fn no_args_prints_help_and_exits_zero() {
    let stdout = assert_ok(&[]);
    assert!(stdout.contains("commands"));
}

#[test]
fn info_on_small_topology() {
    let topo = small_topology_file();
    let stdout = assert_ok(&["info", "--topology", topo.as_str()]);
    assert!(
        stdout.contains('6'),
        "info should mention the 6 sites:\n{stdout}"
    );
}

#[test]
fn place_on_small_topology() {
    let topo = small_topology_file();
    let stdout = assert_ok(&[
        "place",
        "--topology",
        topo.as_str(),
        "--system",
        "grid:2",
        "--strategy",
        "closest",
    ]);
    assert!(
        stdout.contains("delay") || stdout.contains("ms"),
        "place should report delays:\n{stdout}"
    );
}

/// `place --strategy lp-sweep` prints the restricted master's pricing
/// line, one sweep row per feasible capacity, and the tuned capacity.
#[test]
fn place_lp_sweep_on_small_topology() {
    let topo = small_topology_file();
    let stdout = assert_ok(&[
        "place",
        "--topology",
        topo.as_str(),
        "--system",
        "grid:2",
        "--strategy",
        "lp-sweep",
        "--demand",
        "16000",
    ]);
    assert!(stdout.contains("pricing:"), "{stdout}");
    assert!(stdout.contains("sweep:"), "{stdout}");
    // grid:2 has L_opt = 0.75; the ten sweep points span (0.75, 1].
    let rows = stdout.lines().filter(|l| l.starts_with("  cap ")).count();
    assert_eq!(rows, 10, "{stdout}");
    assert!(stdout.contains("best capacity: "), "{stdout}");
    assert!(stdout.contains("strategy:  lp-sweep"), "{stdout}");
}

#[test]
fn simulate_on_small_topology() {
    let topo = small_topology_file();
    let stdout = assert_ok(&[
        "simulate",
        "--topology",
        topo.as_str(),
        "--system",
        "majority:simple:1",
        "--locations",
        "3",
        "--clients-per-location",
        "2",
        "--requests",
        "20",
        "--seed",
        "7",
    ]);
    assert!(
        stdout.contains("response") || stdout.contains("ms"),
        "simulate should report response times:\n{stdout}"
    );
}

#[test]
fn simulate_aggregated_engine() {
    let topo = small_topology_file();
    let args = |threads: &'static str| {
        [
            "simulate",
            "--topology",
            topo.as_str(),
            "--system",
            "majority:simple:1",
            "--locations",
            "3",
            "--clients-per-location",
            "200",
            "--requests",
            "20",
            "--sim",
            "aggregated",
            "--threads",
            threads,
        ]
    };
    let t1 = assert_ok(&args("1"));
    assert!(t1.contains("engine:          aggregated"), "{t1}");
    assert!(t1.contains("avg response"), "{t1}");
    // The aggregated engine is seed-free and deterministic: identical
    // output for any thread count.
    let t4 = assert_ok(&args("4"));
    assert_eq!(t1, t4, "aggregated output changed with thread count");

    let out = run(&["simulate", "--sim", "fluid"]);
    assert!(!out.status.success(), "unknown engine must exit nonzero");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--sim"));
}

#[test]
fn place_on_builtin_dataset() {
    // The default dataset path must also work end to end.
    let stdout = assert_ok(&["place", "--dataset", "planetlab50", "--system", "grid:3"]);
    assert!(!stdout.is_empty());
}

/// The checked-in 116-site King-style dataset feeds the real CLI: `info`
/// reports its statistics and `place` runs an LP-strategy evaluation over
/// it — the measurement-file workflow of the paper, end to end.
#[test]
fn checked_in_king116_dataset_drives_cli() {
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/data/king116.rtt");
    let stdout = assert_ok(&["info", "--topology", data]);
    assert!(
        stdout.contains("sites:          116"),
        "expected 116 sites in:\n{stdout}"
    );
    let stdout = assert_ok(&[
        "place",
        "--topology",
        data,
        "--system",
        "grid:3",
        "--strategy",
        "lp",
        "--capacity",
        "0.9",
    ]);
    assert!(stdout.contains("avg response"), "{stdout}");
    assert!(stdout.contains("pricing:"), "{stdout}");
}

/// The checked-in scenario specs drive `quorumnet scenario` end to end:
/// a transit-stub + flash-crowd + failure-plan spec and a hierarchical
/// one, run as a matrix, with the report also written to `--out` — and
/// the output is bit-identical across thread counts.
#[test]
fn scenario_subcommand_runs_checked_in_specs() {
    let ts = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/data/scenarios/transit_flash.toml"
    );
    let hier = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/data/scenarios/hierarchical_uniform.toml"
    );
    let out = tempfile::write(String::new());
    let t1 = assert_ok(&[
        "scenario",
        "--spec",
        ts,
        "--spec",
        hier,
        "--out",
        out.as_str(),
        "--threads",
        "1",
    ]);
    assert!(t1.contains("transit-flash"), "{t1}");
    assert!(t1.contains("fail×2+reopt"), "{t1}");
    assert!(t1.contains("PASS"), "{t1}");
    assert!(t1.contains("matrix summary"), "{t1}");
    let written = std::fs::read_to_string(out.as_str()).unwrap();
    assert!(written.contains("hier-uniform"), "{written}");
    let t2 = assert_ok(&["scenario", "--spec", ts, "--spec", hier, "--threads", "2"]);
    let t1_reports: String = t1.lines().take_while(|l| !l.contains("matrix")).collect();
    let t2_reports: String = t2.lines().take_while(|l| !l.contains("matrix")).collect();
    assert_eq!(t1_reports, t2_reports, "scenario output moved with threads");
}

#[test]
fn scenario_rejects_missing_or_bad_specs() {
    let out = run(&["scenario"]);
    assert!(!out.status.success(), "scenario without --spec must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--spec"));

    let bad = tempfile::write("[pipeline]\nbogus = 1\n".to_string());
    let out = run(&["scenario", "--spec", bad.as_str()]);
    assert!(!out.status.success(), "bad spec must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("bogus"),
        "error should name the unknown key"
    );

    // A bad response-model number is an input error, not a panic.
    let spec = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/data/scenarios/transit_flash.toml"
    ))
    .unwrap();
    let bad = tempfile::write(spec.replace("[pipeline]", "[pipeline]\nop-time = -1"));
    let out = run(&["scenario", "--spec", bad.as_str()]);
    assert_eq!(out.status.code(), Some(1), "op-time = -1 must exit 1");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("op-time"),
        "error should name op-time"
    );
}

#[test]
fn unknown_command_fails_nonzero() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success(), "garbage commands must exit nonzero");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn threads_flag_accepted_by_all_subcommands() {
    let topo = small_topology_file();
    assert_ok(&["info", "--topology", topo.as_str(), "--threads", "2"]);
    assert_ok(&[
        "place",
        "--topology",
        topo.as_str(),
        "--system",
        "grid:2",
        "--threads",
        "2",
    ]);
    assert_ok(&[
        "simulate",
        "--topology",
        topo.as_str(),
        "--system",
        "majority:simple:1",
        "--locations",
        "2",
        "--clients-per-location",
        "1",
        "--requests",
        "10",
        "--threads",
        "2",
    ]);
}

#[test]
fn threads_output_is_identical_across_counts() {
    // The worker pool is deterministic: the same placement and the same
    // seeded simulation for any thread count.
    let t1 = assert_ok(&[
        "place",
        "--dataset",
        "planetlab50",
        "--system",
        "grid:3",
        "--threads",
        "1",
    ]);
    let t4 = assert_ok(&[
        "place",
        "--dataset",
        "planetlab50",
        "--system",
        "grid:3",
        "--threads",
        "4",
    ]);
    assert_eq!(t1, t4, "place output changed with thread count");
}

#[test]
fn bad_numeric_flags_rejected() {
    // A bad value is an input error whose message names the flag or file,
    // not a panic.
    let rejected = |args: &[&str], needle: &str| {
        let out = run(args);
        let line = args.join(" ");
        assert_eq!(out.status.code(), Some(1), "`{line}` must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "`{line}`: the message must name {needle}: {stderr}"
        );
    };
    // `place --strategy lp` and `serve` build their capacity and response
    // model from these flags.
    for (flag, value) in [
        ("--capacity", "nan"),
        ("--capacity", "-1"),
        ("--capacity", "0"),
        ("--capacity", "inf"),
        ("--demand", "nan"),
        ("--demand", "inf"),
        ("--demand", "-1"),
        ("--op-time", "-1"),
        ("--op-time", "nan"),
    ] {
        for cmd in [
            &["place", "--system", "grid:3", "--strategy", "lp"][..],
            &["serve"][..],
        ] {
            let mut args = cmd.to_vec();
            args.extend([flag, value]);
            rejected(&args, flag);
        }
    }
    // `simulate` sizes its client population and its run from these.
    for flag in ["--locations", "--clients-per-location", "--requests"] {
        rejected(
            &["simulate", "--system", "majority:fourfifths:1", flag, "0"],
            flag,
        );
    }
    // A topology file with no sites.
    let empty = tempfile::write("# no sites\n".to_string());
    rejected(&["info", "--topology", empty.as_str()], empty.as_str());
    // `serve` has no column-generation opt-in: `--colgen` is unknown.
    rejected(&["serve", "--colgen"], "unknown flag `--colgen`");
}

#[test]
fn zero_threads_rejected() {
    for cmd in ["info", "place", "simulate"] {
        let out = run(&[cmd, "--threads", "0"]);
        assert!(
            !out.status.success(),
            "`{cmd} --threads 0` must exit nonzero"
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("at least 1"),
            "missing rejection message for {cmd}"
        );
    }
}
