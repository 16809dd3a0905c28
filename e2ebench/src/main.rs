//! Command-line entry point; see `README.md`.
//!
//! ```text
//! e2ebench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! e2ebench run     [--seed N] [--seconds S] [--workload W]... [--smoke]
//! e2ebench trace   [--seed N] [--seconds S] [--workload W]... [--smoke]
//! e2ebench compare --parent DIR --change DIR [--workload W]... [--pairs N]
//!                  [--seconds S] [--claim METRIC[@WORKLOAD]] [--smoke]
//! e2ebench record
//! ```

use std::process::ExitCode;

use e2ebench::metrics::END_TO_END;
use e2ebench::{batch, compare, run_workload, Ctx, Workload, DEFAULT_SECONDS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Relative paths (state directories, Unix sockets) resolve against
    // the repository root, wherever the benchmark was started from.
    if let Err(e) = std::env::set_current_dir(e2ebench::root()) {
        eprintln!("error: entering {}: {e}", e2ebench::root().display());
        return ExitCode::FAILURE;
    }
    let result = match args.first().map(String::as_str) {
        Some("child") => batch::child_main(&args[1..]).map(|()| true),
        Some("run") => cmd_run(&args[1..], false),
        Some("trace") => cmd_run(&args[1..], true),
        Some("compare") => cmd_compare(&args[1..]).map(|()| true),
        Some("record") => cmd_record().map(|()| true),
        Some(a) if a.starts_with("--") => cmd_single(&args),
        _ => Err("usage: e2ebench (--workload W --seed N --seconds S --trace 0|1 | run | trace | compare | record) …".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Flags shared by every subcommand.
struct Flags {
    ctx: Ctx,
    workloads: Vec<Workload>,
    trace: Option<bool>,
    rest: Vec<(String, String)>,
}

fn parse(args: &[String], extra: &[&str]) -> Result<Flags, String> {
    let mut f = Flags {
        ctx: Ctx {
            seed: 0,
            seconds: DEFAULT_SECONDS,
            smoke: false,
        },
        workloads: Vec::new(),
        trace: None,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--smoke" {
            f.ctx.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{a} needs a value"))?;
        match a.as_str() {
            "--workload" => f.workloads.push(Workload::parse(value)?),
            "--seed" => f.ctx.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                f.ctx.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if f.ctx.seconds.is_nan() || f.ctx.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                f.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other if extra.contains(&other) => f.rest.push((other.to_string(), value.clone())),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(f)
}

/// One workload, the result object last (`BENCHMARK.json`'s command).
fn cmd_single(args: &[String]) -> Result<bool, String> {
    let f = parse(args, &[])?;
    let [w] = f.workloads[..] else {
        return Err("give exactly one --workload".into());
    };
    let trace = f.trace.unwrap_or(false);
    let out = run_workload(&f.ctx, w, trace);
    out.print(trace);
    Ok(true)
}

/// `run` / `trace`: every workload (or the named ones) in turn, then a
/// summary table.
fn cmd_run(args: &[String], trace: bool) -> Result<bool, String> {
    let f = parse(args, &[])?;
    let workloads = if f.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        f.workloads
    };
    let mut outcomes = Vec::new();
    for w in workloads {
        let out = run_workload(&f.ctx, w, trace);
        out.print(trace);
        outcomes.push(out);
    }
    let log = f.ctx.out_dir().join(format!(
        "summary-{}-seed{}.jsonl",
        if trace { "trace" } else { "run" },
        f.ctx.seed
    ));
    let lines: String = outcomes.iter().map(|o| o.detail_json() + "\n").collect();
    std::fs::write(&log, lines).map_err(|e| format!("writing {}: {e}", log.display()))?;
    println!(
        "\n== summary (seed {}, {} s per workload) ==",
        f.ctx.seed, f.ctx.seconds
    );
    let names: Vec<String> = if trace {
        let mut names: Vec<String> = Vec::new();
        for o in &outcomes {
            for v in &o.layers {
                if !names.contains(&v.name) {
                    names.push(v.name.clone());
                }
            }
        }
        names
    } else {
        END_TO_END.iter().map(|d| d.name.to_string()).collect()
    };
    print!("{:<26}", "metric");
    for o in &outcomes {
        print!(" {:>15}", o.workload);
    }
    println!();
    for name in &names {
        let unit = outcomes
            .iter()
            .find_map(|o| o.get(name))
            .map_or(String::new(), |v| v.unit.clone());
        print!("{:<26}", format!("{name} ({unit})"));
        for o in &outcomes {
            match o.get(name) {
                Some(v) => print!(" {:>15.6}", v.value),
                None => print!(" {:>15}", "-"),
            }
        }
        println!();
    }
    let all_ok = outcomes.iter().all(|o| o.correct(trace));
    println!(
        "correct: {}; valid: {}; written {}",
        all_ok,
        outcomes.iter().all(|o| o.valid),
        log.display()
    );
    Ok(all_ok)
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let f = parse(args, &["--parent", "--change", "--pairs", "--claim"])?;
    let get = |k: &str| f.rest.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
    let opts = compare::Options {
        parent: get("--parent").ok_or("--parent DIR is required")?.into(),
        change: get("--change").ok_or("--change DIR is required")?.into(),
        workloads: f.workloads,
        pairs: get("--pairs")
            .map_or(Ok(10), |p| p.parse())
            .map_err(|e| format!("--pairs: {e}"))?,
        seconds: f.ctx.seconds,
        claim: get("--claim"),
        smoke: f.ctx.smoke,
    };
    compare::run(&opts)
}

/// Prints `expected.tsv` from one seed-0, full-size repetition of each
/// batch workload.
fn cmd_record() -> Result<(), String> {
    qp_par::configure_threads(1);
    println!("# Correct outputs of each batch workload at seed 0, full size: workload, key,");
    println!("# relative tolerance, values in row order. Regenerate with `e2ebench record`");
    println!("# (see README.md) only when a change legitimately moves them.");
    for w in Workload::ALL
        .into_iter()
        .filter(|&w| w != Workload::QuorumdStream)
    {
        let p = batch::prepare(w, 0, false)?;
        let output = batch::execute(&p)?;
        print!("{}", batch::expected_lines(w, &output));
    }
    Ok(())
}
