//! `quorumnet` — command-line front end for quorum placement on WANs.
//!
//! ```text
//! quorumnet info     (--dataset planetlab50|daxlist161 | --topology FILE)
//! quorumnet place    --system grid:5 [--strategy closest|balanced|lp|lp-sweep]
//!                    [--demand 16000] [--op-time 0.007] [--capacity 0.8]
//!                    [--dedup] [--dataset ... | --topology FILE]
//! quorumnet simulate --system majority:fourfifths:2 [--locations 10]
//!                    [--clients-per-location 5] [--requests 150] [--seed 0]
//!                    [--strategy closest|balanced] [--dataset ...]
//! quorumnet scenario --spec FILE [--spec FILE ...] [--out FILE]
//!                    [--checkpoint FILE] [--jsonl-out FILE]
//! quorumnet serve    (--socket PATH | --listen ADDR) --system grid:3
//!                    [--demand 16000] [--op-time 0.007] [--sweep 10]
//!                    [--state-dir DIR] [--snapshot-every N]
//! quorumnet ctl      (--socket PATH | --connect ADDR) [--cmd "..." ...]
//! ```
//!
//! `--topology FILE` reads a whitespace-separated RTT matrix (optionally
//! with a label header) — the format of `qp_topology::io`. `scenario`
//! runs declarative end-to-end scenario specs (`qp_scenario::spec`
//! format) and prints one report per spec. `serve` starts the `quorumd`
//! placement daemon on a Unix socket or TCP address; `ctl` drives it
//! with protocol commands from `--cmd` flags (or stdin) and exits
//! nonzero if any command — including a `check` cross-check — fails.

use std::io::Write as _;
use std::process::ExitCode;

use quorumnet::core::capacity::CapacityChoice;
use quorumnet::core::strategy_lp::{self, ColumnGeneration};
use quorumnet::core::EvalContext;
use quorumnet::daemon::protocol::read_response;
use quorumnet::daemon::server as daemon_server;
use quorumnet::daemon::{Endpoint, Server, Session, SessionConfig};
use quorumnet::prelude::*;
use quorumnet::topology::io as topo_io;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `quorumnet help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        print_help();
        return Ok(());
    };
    if command == "trace-check" {
        return cmd_trace_check(&args[1..]);
    }
    let opts = Options::parse(&args[1..])?;
    if let Some(n) = opts.threads {
        qp_par::configure_threads(n);
    }
    // Observability: `--trace FILE` streams a JSONL span/event trace
    // (logical events only, so same-seed traces are byte-identical at
    // any --threads); `serve` without it still installs a metrics-only
    // recorder so the daemon's `metrics` command has data to render.
    let trace_writer = match &opts.trace {
        Some(path) => {
            let w = quorumnet::obs::TraceWriter::create(std::path::Path::new(path))
                .map_err(|e| format!("opening trace {path}: {e}"))?;
            let w = std::sync::Arc::new(w);
            quorumnet::obs::install(w.clone());
            Some((w, path.clone()))
        }
        None => {
            if command == "serve" {
                quorumnet::obs::install(std::sync::Arc::new(
                    quorumnet::obs::RegistryRecorder::new(),
                ));
            }
            None
        }
    };
    let result = match command.as_str() {
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        "info" => cmd_info(&opts),
        "place" => cmd_place(&opts),
        "simulate" => cmd_simulate(&opts),
        "scenario" => cmd_scenario(&opts),
        "serve" => cmd_serve(&opts),
        "ctl" => cmd_ctl(&opts),
        other => Err(format!("unknown command `{other}`")),
    };
    quorumnet::obs::uninstall();
    if let Some((w, path)) = trace_writer {
        w.flush()
            .map_err(|e| format!("writing trace {path}: {e}"))?;
    }
    result
}

/// `quorumnet trace-check FILE…` — validates `--trace` output: one JSON
/// object per line and monotone span nesting (the CI smoke assertion).
fn cmd_trace_check(paths: &[String]) -> Result<(), String> {
    if paths.is_empty() {
        return Err("trace-check requires at least one trace file".to_string());
    }
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        quorumnet::obs::validate_trace(&text).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: ok ({} events)", text.lines().count());
    }
    Ok(())
}

fn print_help() {
    println!(
        "quorumnet — latency-aware quorum placement (Oprea & Reiter, DSN 2007)\n\n\
         commands:\n  \
         info      topology statistics\n  \
         place     place a quorum system and evaluate strategies\n  \
         simulate  run the Q/U-style protocol simulation\n  \
         scenario  run declarative end-to-end scenario specs\n  \
         serve     run the quorumd placement daemon\n  \
         ctl       drive a running daemon over its line protocol\n  \
         trace-check  validate a --trace JSONL file (syntax + span nesting)\n\n\
         common flags:\n  \
         --dataset planetlab50|daxlist161   built-in synthetic WAN (default planetlab50)\n  \
         --topology FILE                    RTT matrix file (overrides --dataset)\n  \
         --system grid:K | majority:KIND:T  quorum system (KIND: simple|twothirds|fourfifths)\n  \
         --threads N                        worker threads for parallel sweeps and searches\n                                     \
                                            (default: available parallelism; output identical\n                                     \
                                            for any thread count)\n  \
         --trace FILE                       write a JSONL span/metric trace of the run\n                                     \
                                            (logical events only: same seed → byte-identical\n                                     \
                                            trace at any --threads; validate with trace-check)\n\n\
         place flags:\n  \
         --strategy closest|balanced|lp|lp-sweep   access strategy (default closest)\n  \
         --demand N          client demand for the response model (default 0)\n  \
         --op-time MS        per-request service time (default 0.007)\n  \
         --capacity C        node capacity for --strategy lp (default 1.0)\n  \
         --dedup             deduplicated execution of co-located elements\n\n\
         simulate flags:\n  \
         --locations N              client locations (default 10)\n  \
         --clients-per-location N   clients per location (default 5)\n  \
         --requests N               measured requests per client (default 150)\n  \
         --seed N                   PRNG seed (default 0)\n  \
         --strategy closest|balanced (default balanced)\n  \
         --sim exact|aggregated     DES engine (default exact; aggregated\n                             \
                                    collapses each location's clients into one\n                             \
                                    merged flow — million-client scale)\n\n\
         scenario flags:\n  \
         --spec FILE        scenario spec (repeatable; the set runs as a matrix)\n  \
         --out FILE         also write the reports to FILE\n  \
         --checkpoint FILE  stream one fsync'd JSONL line per completed spec to\n                     \
                            FILE; a rerun after a crash resumes from it and the\n                     \
                            merged output is byte-identical to an uninterrupted run\n  \
         --jsonl-out FILE   write the merged machine-readable JSONL report\n\n\
         serve flags:\n  \
         --socket PATH       listen on a Unix-domain socket\n  \
         --listen ADDR       listen on a TCP address (e.g. 127.0.0.1:0)\n  \
         --sweep N           capacity sweep points per re-tune (default 10)\n  \
         --state-dir DIR     crash-safe persistence: one log, DIR/state.log, of\n                      \
                             the state then each fsync'd delta; on start,\n                      \
                             recover from DIR and cross-check against a cold\n                      \
                             recompute (≤ 1e-9)\n  \
         --snapshot-every N  deltas appended between compactions of the log\n                      \
                             into a fresh base (default 64)\n\n\
         ctl flags:\n  \
         --socket PATH   connect to a Unix-domain socket\n  \
         --connect ADDR  connect to a TCP address\n  \
         --cmd CMD       protocol command (repeatable; stdin if omitted)\n\n\
         daemon protocol commands:\n  \
         slowdown <site> <factor> | demand <loc> <weight> | crash <node>\n  \
         restore <node> | query | snapshot | check | health | metrics | shutdown"
    );
}

/// Parsed command-line options (flat; commands pick what they need).
#[derive(Debug, Clone)]
struct Options {
    dataset: String,
    topology_file: Option<String>,
    system: String,
    strategy: String,
    demand: f64,
    op_time: f64,
    capacity: f64,
    dedup: bool,
    locations: usize,
    clients_per_location: usize,
    requests: usize,
    seed: u64,
    sim: String,
    threads: Option<usize>,
    specs: Vec<String>,
    out: Option<String>,
    checkpoint: Option<String>,
    jsonl_out: Option<String>,
    socket: Option<String>,
    listen: Option<String>,
    connect: Option<String>,
    cmds: Vec<String>,
    sweep: usize,
    state_dir: Option<String>,
    snapshot_every: usize,
    trace: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            dataset: "planetlab50".to_string(),
            topology_file: None,
            system: "grid:3".to_string(),
            strategy: String::new(),
            demand: 0.0,
            op_time: 0.007,
            capacity: 1.0,
            dedup: false,
            locations: 10,
            clients_per_location: 5,
            requests: 150,
            seed: 0,
            sim: "exact".to_string(),
            threads: None,
            specs: Vec::new(),
            out: None,
            checkpoint: None,
            jsonl_out: None,
            socket: None,
            listen: None,
            connect: None,
            cmds: Vec::new(),
            sweep: 10,
            state_dir: None,
            snapshot_every: 64,
            trace: None,
        }
    }
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Options::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--dataset" => o.dataset = value("--dataset")?,
                "--topology" => o.topology_file = Some(value("--topology")?),
                "--system" => o.system = value("--system")?,
                "--strategy" => o.strategy = value("--strategy")?,
                "--demand" => o.demand = parse_nonnegative(&value("--demand")?, "--demand")?,
                "--op-time" => o.op_time = parse_nonnegative(&value("--op-time")?, "--op-time")?,
                "--capacity" => {
                    let c = parse_num(&value("--capacity")?, "--capacity")?;
                    if !(c.is_finite() && c > 0.0) {
                        return Err(format!("--capacity must be positive and finite, got `{c}`"));
                    }
                    o.capacity = c;
                }
                "--dedup" => o.dedup = true,
                "--locations" => o.locations = parse_count(&value("--locations")?, "--locations")?,
                "--clients-per-location" => {
                    o.clients_per_location =
                        parse_count(&value("--clients-per-location")?, "--clients-per-location")?
                }
                "--requests" => o.requests = parse_count(&value("--requests")?, "--requests")?,
                "--seed" => o.seed = parse_usize(&value("--seed")?, "--seed")? as u64,
                "--sim" => o.sim = value("--sim")?,
                "--spec" => o.specs.push(value("--spec")?),
                "--out" => o.out = Some(value("--out")?),
                "--checkpoint" => o.checkpoint = Some(value("--checkpoint")?),
                "--jsonl-out" => o.jsonl_out = Some(value("--jsonl-out")?),
                "--state-dir" => o.state_dir = Some(value("--state-dir")?),
                "--snapshot-every" => {
                    o.snapshot_every = parse_count(&value("--snapshot-every")?, "--snapshot-every")?
                }
                "--trace" => o.trace = Some(value("--trace")?),
                "--socket" => o.socket = Some(value("--socket")?),
                "--listen" => o.listen = Some(value("--listen")?),
                "--connect" => o.connect = Some(value("--connect")?),
                "--cmd" => o.cmds.push(value("--cmd")?),
                "--sweep" => o.sweep = parse_count(&value("--sweep")?, "--sweep")?,
                "--threads" => o.threads = Some(parse_count(&value("--threads")?, "--threads")?),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(o)
    }

    fn network(&self) -> Result<Network, String> {
        if let Some(path) = &self.topology_file {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let net = topo_io::parse_matrix(&text).map_err(|e| e.to_string())?;
            if net.is_empty() {
                return Err(format!("{path}: the topology has no sites"));
            }
            return Ok(net);
        }
        match self.dataset.as_str() {
            "planetlab50" => Ok(datasets::planetlab_50()),
            "daxlist161" => Ok(datasets::daxlist_161()),
            other => Err(format!(
                "unknown dataset `{other}` (expected planetlab50 or daxlist161)"
            )),
        }
    }

    fn quorum_system(&self) -> Result<QuorumSystem, String> {
        parse_system(&self.system)
    }

    fn model(&self) -> ResponseModel {
        let m = ResponseModel::from_demand(self.op_time, self.demand);
        if self.dedup {
            m.deduplicated()
        } else {
            m
        }
    }
}

/// Emits one `scenario.report` trace event for a completed spec. The
/// matrix fan-out runs specs inside pool workers, where span/point
/// emission is suppressed (that is what keeps traces byte-identical at
/// any `--threads`); the merged, spec-ordered reports are re-emitted
/// here on the main thread instead.
fn emit_report_event(spec_index: usize, report: &quorumnet::scenario::ScenarioReport) {
    use quorumnet::obs::FieldValue as F;
    let mut fields = vec![
        ("spec_index", F::U64(spec_index as u64)),
        ("name", F::Str(&report.name)),
        ("pass", F::Bool(report.pass)),
        ("phases", F::U64(report.phases.len() as u64)),
        ("lp_pivots", F::U64(report.lp_pivots as u64)),
        ("max_rel_error", F::F64(report.max_rel_error)),
    ];
    if let Some(s) = &report.stages {
        fields.push(("topology_sites", F::U64(s.topology_sites as u64)));
        fields.push(("placement_elements", F::U64(s.placement_elements as u64)));
        fields.push(("capacity_points", F::U64(s.capacity_points as u64)));
        fields.push(("des_completed_requests", F::U64(s.des_completed_requests)));
    }
    quorumnet::obs::point("scenario.report", &fields);
}

/// Renders the strategy LP's [`strategy_lp::ColGenStats`] line (shared by
/// `place`'s `lp` and `lp-sweep` strategies).
fn print_pricing(p: &strategy_lp::ColGenStats) {
    println!(
        "pricing:   {} of {} columns in master ({} generated), {} oracle passes, {} master solves",
        p.columns_in_master,
        p.total_columns,
        p.columns_generated,
        p.oracle_passes,
        p.master_resolves
    );
}

fn parse_num(s: &str, flag: &str) -> Result<f64, String> {
    s.parse::<f64>()
        .map_err(|_| format!("{flag}: `{s}` is not a number"))
}

/// [`parse_num`] for a demand or a service time: finite and ≥ 0.
fn parse_nonnegative(s: &str, flag: &str) -> Result<f64, String> {
    let x = parse_num(s, flag)?;
    if x.is_finite() && x >= 0.0 {
        Ok(x)
    } else {
        Err(format!("{flag} must be nonnegative and finite, got `{x}`"))
    }
}

fn parse_usize(s: &str, flag: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|_| format!("{flag}: `{s}` is not a nonnegative integer"))
}

/// [`parse_usize`] for a count that must be at least 1.
fn parse_count(s: &str, flag: &str) -> Result<usize, String> {
    match parse_usize(s, flag)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

/// Parses `grid:K` or `majority:KIND:T` (shared with scenario specs).
fn parse_system(spec: &str) -> Result<QuorumSystem, String> {
    quorumnet::scenario::parse_system(spec).map_err(|e| e.to_string())
}

fn cmd_info(opts: &Options) -> Result<(), String> {
    let net = opts.network()?;
    println!("sites:          {}", net.len());
    println!("mean RTT:       {:.1} ms", net.distances().mean_distance());
    println!("max RTT:        {:.1} ms", net.distances().max_distance());
    let median = net.median();
    println!("median site:    {} ({})", net.label(median), median);
    let clients: Vec<NodeId> = net.nodes().collect();
    println!(
        "singleton delay: {:.1} ms (Lin lower bound for any deployment: {:.1} ms)",
        quorumnet::core::singleton::singleton_delay(&net, &clients),
        quorumnet::core::singleton::singleton_delay(&net, &clients) / 2.0
    );
    Ok(())
}

fn cmd_place(opts: &Options) -> Result<(), String> {
    let net = opts.network()?;
    let sys = opts.quorum_system()?;
    if sys.universe_size() > net.len() {
        return Err(format!(
            "universe of {} exceeds the {}-site network",
            sys.universe_size(),
            net.len()
        ));
    }
    let clients: Vec<NodeId> = net.nodes().collect();
    let model = opts.model();
    let placement = one_to_one::best_placement(&net, &sys).map_err(|e| e.to_string())?;

    println!("system:    {}", sys.label());
    println!(
        "placement: {}",
        placement
            .support_set()
            .iter()
            .map(|&v| net.label(v).to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let strategy = if opts.strategy.is_empty() {
        "closest"
    } else {
        &opts.strategy
    };
    let eval = match strategy {
        "closest" => response::evaluate_closest(&net, &clients, &sys, &placement, model)
            .map_err(|e| e.to_string())?,
        "balanced" => response::evaluate_balanced(&net, &clients, &sys, &placement, model)
            .map_err(|e| e.to_string())?,
        "lp" | "lp-sweep" => {
            let choice = if strategy == "lp" {
                CapacityChoice::Fixed(opts.capacity)
            } else {
                CapacityChoice::Sweep { steps: 10 }
            };
            let l_opt = sys
                .optimal_load()
                .ok_or("the LP strategies need a system with known optimal load")?;
            let quorums = sys.enumerate(100_000).map_err(|e| e.to_string())?;
            let ctx = EvalContext::new(&net, &clients);
            let pq = ctx.place(&placement, &quorums);
            let weights = vec![1.0; clients.len()];
            let mut solver =
                strategy_lp::ColGenSolver::with_weights(&pq, &weights, ColumnGeneration::default())
                    .map_err(|e| e.to_string())?;
            let tuned =
                strategy_lp::tune_capacity(&mut solver, &pq, &weights, l_opt, choice, model)
                    .map_err(|e| e.to_string())?;
            print_pricing(&solver.pricing());
            if let CapacityChoice::Sweep { .. } = choice {
                println!("sweep:");
                for (c, e) in &tuned.points {
                    println!(
                        "  cap {c:.3}: response {:7.1} ms, delay {:6.1} ms, max load {:.2}",
                        e.avg_response_ms,
                        e.avg_network_delay_ms,
                        e.max_node_load()
                    );
                }
                if let Some(c) = tuned.capacity {
                    println!("best capacity: {c:.3}");
                }
            }
            tuned.eval
        }
        other => return Err(format!("unknown strategy `{other}`")),
    };
    println!(
        "strategy:  {strategy}{}",
        if opts.dedup { " (dedup)" } else { "" }
    );
    println!("avg response:      {:8.2} ms", eval.avg_response_ms);
    println!("avg network delay: {:8.2} ms", eval.avg_network_delay_ms);
    println!("max node load:     {:8.2}", eval.max_node_load());
    Ok(())
}

fn cmd_simulate(opts: &Options) -> Result<(), String> {
    let net = opts.network()?;
    let sys = opts.quorum_system()?;
    if sys.universe_size() > net.len() {
        return Err(format!(
            "universe of {} exceeds the {}-site network",
            sys.universe_size(),
            net.len()
        ));
    }
    let placement =
        one_to_one::best_placement_by(&net, &sys, one_to_one::SelectionObjective::BalancedDelay)
            .map_err(|e| e.to_string())?;
    let pop = ClientPopulation::representative(
        &net,
        &sys,
        &placement,
        opts.locations.min(net.len()),
        opts.clients_per_location,
    );
    let choice = match if opts.strategy.is_empty() {
        "balanced"
    } else {
        &opts.strategy
    } {
        "balanced" => QuorumChoice::Balanced,
        "closest" => QuorumChoice::Closest,
        other => return Err(format!("unknown strategy `{other}` for simulate")),
    };
    let engine = match opts.sim.as_str() {
        "exact" => SimEngine::Exact,
        "aggregated" => SimEngine::Aggregated,
        other => {
            return Err(format!(
                "unknown engine `{other}` for --sim (exact|aggregated)"
            ))
        }
    };
    let report = simulate_with_engine(
        &net,
        &sys,
        &placement,
        &pop,
        choice,
        &ProtocolConfig {
            measured_requests: opts.requests,
            seed: opts.seed,
            dedup_colocated: opts.dedup,
            ..ProtocolConfig::default()
        },
        engine,
    )
    .map_err(|e| e.to_string())?;
    println!("system:          {}", sys.label());
    if engine == SimEngine::Aggregated {
        println!("engine:          aggregated");
    }
    println!(
        "clients:         {} ({} × {})",
        pop.total_clients(),
        pop.locations().len(),
        pop.per_location()
    );
    println!("requests:        {}", report.completed_requests);
    println!("avg response:    {:8.2} ms", report.avg_response_ms);
    println!("network floor:   {:8.2} ms", report.avg_network_delay_ms);
    let (p50, p95, p99) = report.percentiles_ms;
    println!("p50/p95/p99:     {p50:.1} / {p95:.1} / {p99:.1} ms");
    let max_util = report
        .server_utilization
        .iter()
        .copied()
        .fold(0.0, f64::max);
    println!("max server util: {max_util:.2}");
    Ok(())
}

fn cmd_scenario(opts: &Options) -> Result<(), String> {
    use quorumnet::scenario::{encode_report, write_merged_jsonl, ScenarioRunner, ScenarioSpec};
    if opts.specs.is_empty() {
        return Err("scenario requires at least one --spec FILE".to_string());
    }
    let specs: Vec<ScenarioSpec> = opts
        .specs
        .iter()
        .map(|path| ScenarioSpec::from_file(path).map_err(|e| format!("{path}: {e}")))
        .collect::<Result<_, _>>()?;
    // `--trace` also turns on the per-stage work breakdown: the stages
    // land in the rendered report and the JSONL/checkpoint lines (an
    // optional trailing field, so untraced output is byte-identical to
    // earlier releases).
    let runner = ScenarioRunner::new().with_stage_breakdown(opts.trace.is_some());

    if let Some(checkpoint) = &opts.checkpoint {
        // Checkpointed mode: one fsync'd JSONL line per completed spec;
        // a rerun resumes from the checkpoint and the merged output is
        // byte-identical to an uninterrupted run.
        let entries = runner
            .run_matrix_checkpointed(&specs, std::path::Path::new(checkpoint))
            .map_err(|e| e.to_string())?;
        let resumed = entries.iter().filter(|e| e.resumed).count();
        if resumed > 0 {
            println!(
                "resumed {resumed} of {} specs from checkpoint {checkpoint}",
                entries.len()
            );
        }
        for entry in &entries {
            match &entry.report {
                Some(report) => {
                    emit_report_event(entry.spec_index, report);
                    print!("{report}");
                }
                None => {
                    quorumnet::obs::point(
                        "scenario.report",
                        &[
                            (
                                "spec_index",
                                quorumnet::obs::FieldValue::U64(entry.spec_index as u64),
                            ),
                            ("name", quorumnet::obs::FieldValue::Str(&entry.name)),
                            ("pass", quorumnet::obs::FieldValue::Bool(entry.pass)),
                            ("resumed", quorumnet::obs::FieldValue::Bool(true)),
                        ],
                    );
                    println!(
                        "scenario:   {} (resumed from checkpoint → {})",
                        entry.name,
                        if entry.pass { "PASS" } else { "FAIL" }
                    );
                }
            }
        }
        if let Some(out) = &opts.jsonl_out {
            write_merged_jsonl(&entries, std::path::Path::new(out)).map_err(|e| e.to_string())?;
        }
        if let Some(failed) = entries.iter().find(|e| !e.pass) {
            return Err(format!("cross-check failed for `{}`", failed.name));
        }
        return Ok(());
    }

    let reports = runner.run_matrix(&specs).map_err(|e| e.to_string())?;
    for (i, report) in reports.iter().enumerate() {
        emit_report_event(i, report);
    }
    let mut rendered = String::new();
    for (i, report) in reports.iter().enumerate() {
        if i > 0 {
            rendered.push('\n');
        }
        rendered.push_str(&report.to_string());
    }
    print!("{rendered}");
    if reports.len() > 1 {
        println!("\nmatrix summary:");
        for report in &reports {
            println!("  {}", report.summary_line());
        }
    }
    if let Some(out) = &opts.out {
        std::fs::write(out, &rendered).map_err(|e| format!("writing {out}: {e}"))?;
    }
    if let Some(out) = &opts.jsonl_out {
        let mut text = String::new();
        for (i, report) in reports.iter().enumerate() {
            text.push_str(&encode_report(i, &specs[i], report));
            text.push('\n');
        }
        std::fs::write(out, &text).map_err(|e| format!("writing {out}: {e}"))?;
    }
    if let Some(failed) = reports.iter().find(|r| !r.pass) {
        return Err(format!(
            "cross-check failed for `{}`: max rel err {:.2}% exceeds tolerance {:.1}%",
            failed.name,
            failed.max_rel_error * 100.0,
            failed.tolerance * 100.0
        ));
    }
    Ok(())
}

/// Resolves the daemon endpoint from `--socket`/`--listen`/`--connect`.
fn endpoint(opts: &Options, addr_flag: &str, addr: &Option<String>) -> Result<Endpoint, String> {
    match (&opts.socket, addr) {
        (Some(_), Some(_)) => Err(format!("--socket and {addr_flag} are mutually exclusive")),
        (Some(path), None) => {
            #[cfg(unix)]
            {
                Ok(Endpoint::Unix(std::path::PathBuf::from(path)))
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                Err("--socket requires a Unix platform; use --listen/--connect".to_string())
            }
        }
        (None, Some(a)) => Ok(Endpoint::Tcp(a.clone())),
        (None, None) => Err(format!("need --socket PATH or {addr_flag} ADDR")),
    }
}

fn cmd_serve(opts: &Options) -> Result<(), String> {
    let endpoint = endpoint(opts, "--listen", &opts.listen)?;
    let net = opts.network()?;
    let sys = opts.quorum_system()?;
    if sys.universe_size() > net.len() {
        return Err(format!(
            "universe of {} exceeds the {}-site network",
            sys.universe_size(),
            net.len()
        ));
    }
    let placement = one_to_one::best_placement(&net, &sys).map_err(|e| e.to_string())?;
    let quorums = sys.enumerate(100_000).map_err(|e| e.to_string())?;
    let l_opt = sys
        .optimal_load()
        .ok_or("serve needs a system with known optimal load")?;
    let label = sys.label();
    let cfg = SessionConfig {
        net,
        quorums,
        placement,
        alpha: opts.model().alpha(),
        l_opt,
        sweep_steps: opts.sweep,
        colgen: None,
    };
    let (session, persistence) = match &opts.state_dir {
        Some(dir) => {
            let dir = std::path::Path::new(dir);
            let (session, report) =
                quorumnet::daemon::recover(cfg, dir).map_err(|e| format!("recover: {e}"))?;
            println!(
                "quorumd recovered seq {} from {} (log base seq {}, {} tail deltas{}{}{})",
                session.seq(),
                dir.display(),
                report.snapshot_seq,
                report.wal_deltas,
                if report.torn_tail {
                    ", torn tail dropped"
                } else {
                    ""
                },
                if report.checked {
                    ", cold cross-check passed"
                } else {
                    ""
                },
                if report.degraded { ", DEGRADED" } else { "" },
            );
            let persistence =
                quorumnet::daemon::Persistence::open(dir, opts.snapshot_every, &session)
                    .map_err(|e| format!("persistence: {e}"))?;
            (session, Some(persistence))
        }
        None => (Session::new(cfg).map_err(|e| e.to_string())?, None),
    };
    let server = Server::bind(&endpoint).map_err(|e| format!("bind: {e}"))?;
    println!("quorumd serving {label} on {}", server.local_addr());
    std::io::stdout().flush().ok();
    let summary = match persistence {
        Some(p) => server.run_persistent(session, p),
        None => server.run(session),
    }
    .map_err(|e| format!("serve: {e}"))?;
    println!(
        "quorumd shut down after {} connections, {} commands",
        summary.connections, summary.commands
    );
    Ok(())
}

fn cmd_ctl(opts: &Options) -> Result<(), String> {
    let endpoint = endpoint(opts, "--connect", &opts.connect)?;
    let stream = daemon_server::connect(&endpoint).map_err(|e| {
        format!(
            "connect {}: {e}",
            opts.socket
                .as_deref()
                .unwrap_or_else(|| opts.connect.as_deref().unwrap_or("?"))
        )
    })?;
    let mut reader = std::io::BufReader::new(stream);
    let commands: Vec<String> = if opts.cmds.is_empty() {
        use std::io::Read as _;
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("reading stdin: {e}"))?;
        text.lines().map(|l| l.to_string()).collect()
    } else {
        opts.cmds.clone()
    };
    let mut failures = 0usize;
    for cmd in &commands {
        let trimmed = cmd.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        reader
            .get_mut()
            .write_all(format!("{trimmed}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        reader.get_mut().flush().map_err(|e| format!("send: {e}"))?;
        let resp = read_response(&mut reader).map_err(|e| format!("recv: {e}"))?;
        println!("> {trimmed}");
        println!("{} {}", if resp.ok { "ok" } else { "err" }, resp.summary);
        for line in &resp.detail {
            println!("  {line}");
        }
        if !resp.ok {
            failures += 1;
        }
    }
    std::io::stdout().flush().ok();
    if failures > 0 {
        return Err(format!("{failures} command(s) failed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_flags() {
        let o = Options::parse(&s(&[
            "--system", "grid:5", "--demand", "16000", "--dedup", "--seed", "7",
        ]))
        .unwrap();
        assert_eq!(o.system, "grid:5");
        assert_eq!(o.demand, 16000.0);
        assert!(o.dedup);
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(Options::parse(&s(&["--bogus"])).is_err());
        assert!(Options::parse(&s(&["--demand"])).is_err());
        assert!(Options::parse(&s(&["--demand", "abc"])).is_err());
    }

    #[test]
    fn parses_threads_flag() {
        let o = Options::parse(&s(&["--threads", "4"])).unwrap();
        assert_eq!(o.threads, Some(4));
        assert_eq!(Options::parse(&s(&[])).unwrap().threads, None);
        // 0 threads is meaningless and must be rejected at parse time.
        let err = Options::parse(&s(&["--threads", "0"])).unwrap_err();
        assert!(err.contains("at least 1"), "unexpected message: {err}");
        assert!(Options::parse(&s(&["--threads", "x"])).is_err());
        assert!(Options::parse(&s(&["--threads"])).is_err());
    }

    #[test]
    fn parses_sim_flag() {
        assert_eq!(Options::parse(&s(&[])).unwrap().sim, "exact");
        let o = Options::parse(&s(&["--sim", "aggregated"])).unwrap();
        assert_eq!(o.sim, "aggregated");
        assert!(Options::parse(&s(&["--sim"])).is_err());
    }

    #[test]
    fn parses_colgen_flag() {
        // `serve` has no column-generation opt-in.
        let err = Options::parse(&s(&["--colgen"])).unwrap_err();
        assert_eq!(err, "unknown flag `--colgen`");
    }

    #[test]
    fn parses_scenario_flags() {
        let o = Options::parse(&s(&[
            "--spec", "a.toml", "--spec", "b.toml", "--out", "r.txt",
        ]))
        .unwrap();
        assert_eq!(o.specs, vec!["a.toml", "b.toml"]);
        assert_eq!(o.out.as_deref(), Some("r.txt"));
        assert!(Options::parse(&s(&["--spec"])).is_err());
    }

    #[test]
    fn parses_checkpoint_and_jsonl_flags() {
        let o = Options::parse(&s(&[
            "--spec",
            "a.toml",
            "--checkpoint",
            "ck.jsonl",
            "--jsonl-out",
            "merged.jsonl",
        ]))
        .unwrap();
        assert_eq!(o.checkpoint.as_deref(), Some("ck.jsonl"));
        assert_eq!(o.jsonl_out.as_deref(), Some("merged.jsonl"));
        assert_eq!(Options::parse(&s(&[])).unwrap().checkpoint, None);
        assert!(Options::parse(&s(&["--checkpoint"])).is_err());
        assert!(Options::parse(&s(&["--jsonl-out"])).is_err());
    }

    #[test]
    fn parses_persistence_flags() {
        let o = Options::parse(&s(&["--state-dir", "/tmp/qd", "--snapshot-every", "8"])).unwrap();
        assert_eq!(o.state_dir.as_deref(), Some("/tmp/qd"));
        assert_eq!(o.snapshot_every, 8);
        assert_eq!(Options::parse(&s(&[])).unwrap().snapshot_every, 64);
        assert!(Options::parse(&s(&["--snapshot-every", "0"])).is_err());
        assert!(Options::parse(&s(&["--state-dir"])).is_err());
    }

    #[test]
    fn parses_system_specs() {
        assert_eq!(parse_system("grid:4").unwrap().universe_size(), 16);
        let m = parse_system("majority:fourfifths:2").unwrap();
        assert_eq!(m.universe_size(), 11);
        assert!(parse_system("grid").is_err());
        assert!(parse_system("majority:weird:2").is_err());
        assert!(parse_system("grid:0").is_err());
    }

    #[test]
    fn parses_daemon_flags() {
        let o = Options::parse(&s(&[
            "--socket",
            "/tmp/q.sock",
            "--cmd",
            "query",
            "--cmd",
            "shutdown",
            "--sweep",
            "6",
        ]))
        .unwrap();
        assert_eq!(o.socket.as_deref(), Some("/tmp/q.sock"));
        assert_eq!(o.cmds, vec!["query", "shutdown"]);
        assert_eq!(o.sweep, 6);
        assert!(Options::parse(&s(&["--sweep", "0"])).is_err());
        assert!(Options::parse(&s(&["--cmd"])).is_err());

        let o = Options::parse(&s(&["--listen", "127.0.0.1:0"])).unwrap();
        assert_eq!(o.listen.as_deref(), Some("127.0.0.1:0"));
        // Endpoint resolution: exactly one of socket / addr.
        assert!(endpoint(&o, "--listen", &o.listen).is_ok());
        let both = Options::parse(&s(&["--socket", "p", "--listen", "a"])).unwrap();
        assert!(endpoint(&both, "--listen", &both.listen).is_err());
        let neither = Options::parse(&s(&[])).unwrap();
        assert!(endpoint(&neither, "--listen", &neither.listen).is_err());
    }

    #[test]
    fn model_respects_dedup() {
        let o = Options::parse(&s(&["--dedup", "--demand", "100"])).unwrap();
        assert!(o.model().deduplicates_execution());
        assert!((o.model().alpha() - 0.7).abs() < 1e-12);
    }
}
