//! The four batch workloads: two scenario specs through
//! `ScenarioRunner::run` and two sets of the paper's figure pipelines.
//!
//! Each repetition is one child process (this binary's `child`
//! subcommand) pinned to one worker thread. The child reads its inputs,
//! prints `ready`, runs the pipeline, checks the outputs, and prints one
//! `result {json}` line with its wall time, peak RSS (VmHWM), an output
//! digest, and — when traced — its per-layer times and counters.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use qp_bench::{figures, Scale, Table};
use quorumnet::core::eval::EvalContext;
use quorumnet::core::one_to_one::{self, SelectionObjective};
use quorumnet::obs::{self, escape_json};
use quorumnet::quorum::{MajorityKind, QuorumSystem};
use quorumnet::scenario::{ScenarioReport, ScenarioRunner, ScenarioSpec, TopologySource};
use quorumnet::topology::{datasets, NodeId};

use crate::json::Json;
use crate::metrics::{Outcome, Value, COUNTERS};
use crate::trace::{self, Trace};
use crate::{Ctx, Workload};

/// `--setup-only` spawns a timed run makes, back to back before its
/// repetitions; `setup_s` is the median of all but the first
/// [`SETUP_WARMUP`], which let the binary's pages and the loader's
/// caches settle.
const SETUP_SAMPLES: usize = 41;
const SETUP_WARMUP: usize = 3;
/// Repetitions a timed run makes at least, however long they take: a
/// median of three outvotes one repetition slowed by the host, a median
/// of two does not.
const MIN_REPS: usize = 3;
/// A child that has not finished by then is killed and counted failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);
/// Relative tolerance for objective-type outputs (LP delays, figure
/// network-delay columns).
const OBJECTIVE_TOL: f64 = 1e-9;
/// Relative tolerance for scored and simulated responses, which depend
/// on which optimal vertex the solver reaches.
const RESPONSE_TOL: f64 = 1e-2;

/// Correct outputs at seed 0, full size: `workload, key, tol, values`.
const EXPECTED: &str = include_str!("../expected.tsv");

/// What a child runs.
pub enum Pipeline {
    /// One scenario spec through `ScenarioRunner::run`.
    Scenario(Box<ScenarioSpec>),
    /// `fig3_1`.
    PaperDes(Scale),
    /// `fig7_6`, `fig7_7`, `fig7_8` and `fig8_9`.
    PaperLp(Scale),
}

/// A pipeline's outputs.
#[derive(Debug)]
pub enum Output {
    /// A scenario report.
    Scenario(Box<ScenarioReport>),
    /// Figure tables, in call order.
    Tables(Vec<Table>),
}

/// Reads a batch workload's inputs. A nonzero `seed` re-seeds a
/// scenario's topology generator and DES; the figure workloads run the
/// paper's fixed datasets, so the seed does not apply to them.
/// `smoke` shrinks every input to test size.
///
/// # Errors
///
/// An unreadable or invalid spec file.
pub fn prepare(w: Workload, seed: u64, smoke: bool) -> Result<Pipeline, String> {
    let scale = if smoke { Scale::Smoke } else { Scale::Full };
    let file = match w {
        Workload::Wan2000Colgen => "transit_colgen_2000.toml",
        Workload::MillionAgg => "million_flash.toml",
        Workload::PaperDes => return Ok(Pipeline::PaperDes(scale)),
        Workload::PaperLp => return Ok(Pipeline::PaperLp(scale)),
        Workload::QuorumdStream => return Err("quorumd_stream is not a batch workload".into()),
    };
    let path = crate::root().join("data/scenarios").join(file);
    let mut spec =
        ScenarioSpec::from_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if seed != 0 {
        if let TopologySource::TransitStub { seed: s, .. } = &mut spec.topology {
            *s = qp_par::job_seed(*s, seed as usize);
        }
        spec.pipeline.seed = qp_par::job_seed(spec.pipeline.seed, seed as usize);
    }
    if smoke {
        if let TopologySource::TransitStub { config, .. } = &mut spec.topology {
            config.transit_domains = 2;
            config.transit_size = 2;
            config.stubs_per_transit = 2;
            config.stub_size = 5;
        }
        spec.workload.locations = spec.workload.locations.min(20);
        spec.workload.per_location = spec.workload.per_location.min(100);
        spec.pipeline.requests = spec.pipeline.requests.min(10);
        spec.pipeline.warmup = spec.pipeline.warmup.min(2);
    }
    Ok(Pipeline::Scenario(Box::new(spec)))
}

/// Runs the pipeline untraced.
///
/// # Errors
///
/// The scenario runner's error, rendered.
pub fn execute(p: &Pipeline) -> Result<Output, String> {
    Ok(match p {
        Pipeline::Scenario(spec) => Output::Scenario(Box::new(
            ScenarioRunner::new().run(spec).map_err(|e| e.to_string())?,
        )),
        Pipeline::PaperDes(scale) => Output::Tables(vec![figures::fig3_1(*scale)]),
        Pipeline::PaperLp(scale) => Output::Tables(vec![
            figures::fig7_6(*scale),
            figures::fig7_7(*scale),
            figures::fig7_8(*scale),
            figures::fig8_9(*scale),
        ]),
    })
}

/// Per-layer times of one traced run, ms, plus the logical counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// `(name, value)` pairs: absolute layer times and counters.
    pub values: Vec<(String, f64)>,
}

impl Layers {
    /// The value named `name` (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Runs the pipeline under the benchmark's recorder and attributes its
/// time to layers.
///
/// The scenario workloads carry the runner's own stage spans. The
/// figure pipelines carry none, so the benchmark wraps each figure call
/// in a span and measures the topology and placement layers by calling
/// the same public functions the figures call (`datasets::planetlab_50`,
/// `best_placement_by`, `best_placement_ctx`) in `replica.*` spans of
/// their own; the rest of each figure is its dominant layer (the exact
/// DES for `fig3_1`, the strategy LP for the `fig7`/`fig8` pipelines).
///
/// # Errors
///
/// As [`execute`].
pub fn execute_traced(p: &Pipeline) -> Result<(Output, Layers, Trace), String> {
    let (output, rec) = trace::traced(|| match p {
        Pipeline::Scenario(_) => execute(p),
        Pipeline::PaperDes(scale) => {
            let net = replica_topology();
            let ts = match scale {
                Scale::Full => 1..=5,
                Scale::Smoke => 1..=2,
            };
            let sp = obs::span("replica.placement", &[]);
            for t in ts {
                let sys = QuorumSystem::majority(MajorityKind::FourFifths, t).expect("t ≥ 1");
                one_to_one::best_placement_by(&net, &sys, SelectionObjective::BalancedDelay)
                    .expect("placement fits the 50-node topology");
            }
            sp.end(&[]);
            let sp = obs::span("bench.fig3_1", &[]);
            let table = figures::fig3_1(*scale);
            sp.end(&[]);
            Ok(Output::Tables(vec![table]))
        }
        Pipeline::PaperLp(scale) => {
            let (grid_ks, k78, k89) = match scale {
                Scale::Full => ((2..=7).collect::<Vec<_>>(), 7, 5),
                Scale::Smoke => (vec![2, 3], 3, 4),
            };
            for ks in [&grid_ks[..], &grid_ks[..], &[k78][..], &[k89][..]] {
                let net = replica_topology();
                let clients: Vec<NodeId> = net.nodes().collect();
                let _sp = obs::span("replica.placement", &[]);
                let ctx = EvalContext::new(&net, &clients);
                for &k in ks {
                    let sys = QuorumSystem::grid(k).expect("k ≥ 1");
                    one_to_one::best_placement_ctx(&ctx, &sys).expect("fits");
                }
            }
            let mut tables = Vec::new();
            for (name, fig) in [
                ("bench.fig7_6", figures::fig7_6 as fn(Scale) -> Table),
                ("bench.fig7_7", figures::fig7_7),
                ("bench.fig7_8", figures::fig7_8),
                ("bench.fig8_9", figures::fig8_9),
            ] {
                let sp = obs::span(name, &[]);
                tables.push(fig(*scale));
                sp.end(&[]);
            }
            Ok(Output::Tables(tables))
        }
    });
    let output = output?;
    let t = rec.trace();
    let mut v: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| v.push((name.to_string(), value));
    let pipeline_ms;
    match p {
        Pipeline::Scenario(_) => {
            pipeline_ms = t.total_ms("scenario.run");
            put("topology.build_ms", t.total_ms("scenario.topology"));
            put("placement.search_ms", t.total_ms("scenario.placement"));
            put("lp.build_ms", t.total_ms("scenario.lp"));
            put("lp.solve_ms", t.self_ms("scenario.capacity"));
            put("des.exact_ms", t.phase_ms("exact"));
            put("des.agg_ms", t.phase_ms("aggregated"));
            put("scenario.other_ms", t.self_ms("scenario.run"));
        }
        Pipeline::PaperDes(_) | Pipeline::PaperLp(_) => {
            pipeline_ms = [
                "bench.fig3_1",
                "bench.fig7_6",
                "bench.fig7_7",
                "bench.fig7_8",
                "bench.fig8_9",
            ]
            .iter()
            .map(|n| t.total_ms(n))
            .sum();
            let topology = t.total_ms("replica.topology");
            let placement = t.total_ms("replica.placement");
            let dominant = pipeline_ms - topology - placement;
            let des = matches!(p, Pipeline::PaperDes(_));
            put("topology.build_ms", topology);
            put("placement.search_ms", placement);
            put("lp.build_ms", 0.0);
            put("lp.solve_ms", if des { 0.0 } else { dominant });
            put("des.exact_ms", if des { dominant } else { 0.0 });
            put("des.agg_ms", 0.0);
            put("scenario.other_ms", 0.0);
        }
    }
    put("pipeline_ms", pipeline_ms);
    for (name, counters) in COUNTERS {
        put(
            name,
            counters.iter().map(|c| rec.counter(c)).sum::<u64>() as f64,
        );
    }
    Ok((output, Layers { values: v }, t))
}

fn replica_topology() -> quorumnet::topology::Network {
    let _sp = obs::span("replica.topology", &[]);
    datasets::planetlab_50()
}

/// A 64-bit FNV-1a digest of the outputs' full debug rendering (every
/// float printed to round-trip precision): equal digests mean equal
/// reports or tables.
pub fn digest(output: &Output) -> String {
    let text = format!("{output:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// One checked output series: a key, its values, and the relative
/// tolerance it is held to.
#[derive(Debug, Clone, PartialEq)]
struct Series {
    /// `lp_delay_ms`, `fig7_6.network_delay_ms`, …
    key: String,
    /// Relative tolerance.
    tol: f64,
    /// The values, in row order.
    values: Vec<f64>,
}

/// The outputs checked against `expected.tsv`. Objective-type outputs
/// (LP delays, network-delay columns, the axes) are held to
/// [`OBJECTIVE_TOL`]; scored and simulated responses and the iterative
/// many-to-one delays, which depend on the vertex the solver reaches,
/// to [`RESPONSE_TOL`].
fn series(output: &Output) -> Vec<Series> {
    match output {
        Output::Scenario(r) => vec![
            Series {
                key: "lp_delay_ms".into(),
                tol: OBJECTIVE_TOL,
                values: vec![r.lp_delay_ms],
            },
            Series {
                key: "lp_response_ms".into(),
                tol: RESPONSE_TOL,
                values: vec![r.lp_response_ms],
            },
            Series {
                key: "des_response_ms".into(),
                tol: RESPONSE_TOL,
                values: r.phases.iter().map(|p| p.des_response_ms).collect(),
            },
        ],
        Output::Tables(tables) => tables
            .iter()
            .flat_map(|t| {
                t.columns.iter().map(move |c| Series {
                    key: format!("{}.{c}", t.id),
                    tol: if c.contains("response") || c.contains("iter") {
                        RESPONSE_TOL
                    } else {
                        OBJECTIVE_TOL
                    },
                    values: t.column(c),
                })
            })
            .collect(),
    }
}

/// `expected.tsv` lines for `output`.
pub fn expected_lines(w: Workload, output: &Output) -> String {
    series(output)
        .iter()
        .map(|s| {
            let vals: Vec<String> = s.values.iter().map(|v| format!("{v:?}")).collect();
            format!("{}\t{}\t{:e}\t{}\n", w.name(), s.key, s.tol, vals.join(" "))
        })
        .collect()
}

fn expected(w: Workload, key: &str) -> Option<Vec<f64>> {
    EXPECTED.lines().find_map(|line| {
        let mut f = line.split('\t');
        (f.next() == Some(w.name()) && f.next() == Some(key)).then(|| {
            f.nth(1)
                .unwrap_or("")
                .split_whitespace()
                .map(|v| v.parse().unwrap_or(f64::NAN))
                .collect()
        })
    })
}

/// Checks a pipeline's outputs and returns what is wrong.
///
/// Every run checks the scenario verdict (PASS) and request
/// conservation (each phase completes clients × requests). With
/// `exact` — seed 0 at full size — the outputs must also match
/// `expected.tsv`, and `million_agg` must keep its carried backlog
/// (`phases[2]` slower than `phases[0]`).
pub fn check(w: Workload, p: &Pipeline, output: &Output, exact: bool) -> Vec<String> {
    let mut errors = Vec::new();
    if let (Pipeline::Scenario(spec), Output::Scenario(r)) = (p, output) {
        if !r.pass {
            errors.push(format!(
                "scenario verdict FAIL (max rel err {:.3e})",
                r.max_rel_error
            ));
        }
        let want = (r.total_clients * spec.pipeline.requests) as u64;
        for ph in &r.phases {
            if ph.completed_requests != want {
                errors.push(format!(
                    "phase {} completed {} requests, expected {want}",
                    ph.phase, ph.completed_requests
                ));
            }
        }
        if exact && w == Workload::MillionAgg {
            let resp: Vec<f64> = r.phases.iter().map(|p| p.des_response_ms).collect();
            if resp.len() < 3 || resp[2] <= resp[0] {
                errors.push(format!("carried backlog lost: phase responses {resp:?}"));
            }
        }
    }
    if exact {
        for s in series(output) {
            let Some(want) = expected(w, &s.key) else {
                errors.push(format!("{}: no expected values recorded", s.key));
                continue;
            };
            let close = |a: f64, b: f64| {
                (a.is_nan() && b.is_nan())
                    || (a - b).abs() <= s.tol * b.abs().max(f64::MIN_POSITIVE)
            };
            if want.len() != s.values.len() {
                errors.push(format!(
                    "{}: {} values, expected {}",
                    s.key,
                    s.values.len(),
                    want.len()
                ));
            } else if let Some(i) = (0..want.len()).find(|&i| !close(s.values[i], want[i])) {
                errors.push(format!(
                    "{}[{i}] = {:?}, expected {:?} (rel tol {:e})",
                    s.key, s.values[i], want[i], s.tol
                ));
            }
        }
    }
    errors
}

/// Peak resident set size of this process (VmHWM), MB.
fn own_peak_rss_mb() -> Option<f64> {
    peak_rss_mb(Path::new("/proc/self/status"))
}

/// Parses `VmHWM` out of a `/proc/<pid>/status` file, MB.
pub(crate) fn peak_rss_mb(status: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(status).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The `child` subcommand: one repetition of a batch workload.
///
/// # Errors
///
/// Bad arguments or inputs; a failing pipeline is reported in the
/// result line instead.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let mut w = None;
    let mut seed = 0u64;
    let mut smoke = false;
    let mut setup_only = false;
    let mut trace_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => w = Some(Workload::parse(&value()?)?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--smoke" => smoke = true,
            "--setup-only" => setup_only = true,
            "--trace" => trace_path = Some(PathBuf::from(value()?)),
            other => return Err(format!("child: unknown flag {other}")),
        }
    }
    let w = w.ok_or("child: --workload is required")?;
    qp_par::configure_threads(1);
    let pipeline = prepare(w, seed, smoke)?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "ready {}", unix_ns())
        .and_then(|()| stdout.flush())
        .map_err(|e| e.to_string())?;
    if setup_only {
        return Ok(());
    }
    let start = Instant::now();
    let run = match &trace_path {
        None => execute(&pipeline).map(|o| (o, None)),
        Some(path) => execute_traced(&pipeline).and_then(|(o, layers, t)| {
            t.write_jsonl(path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            Ok((o, Some(layers)))
        }),
    };
    let wall_s = start.elapsed().as_secs_f64();
    let exact = (seed == 0 || !matches!(pipeline, Pipeline::Scenario(_))) && !smoke;
    let (errors, digest, layers) = match &run {
        Ok((output, layers)) => (
            check(w, &pipeline, output, exact),
            digest(output),
            layers.clone(),
        ),
        Err(e) => (vec![e.clone()], String::new(), None),
    };
    let errors: Vec<String> = errors
        .iter()
        .map(|e| format!("\"{}\"", escape_json(e)))
        .collect();
    let layers = layers
        .map(|l| {
            let kv: Vec<String> = l
                .values
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            format!(", \"layers\": {{{}}}", kv.join(", "))
        })
        .unwrap_or_default();
    println!(
        "result {{\"ok\": {}, \"errors\": [{}], \"wall_s\": {wall_s}, \"rss_mb\": {}, \"digest\": \"{digest}\"{layers}}}",
        errors.is_empty(),
        errors.join(", "),
        own_peak_rss_mb().unwrap_or(0.0),
    );
    Ok(())
}

/// Wall-clock time since the Unix epoch, ns: the one clock parent and
/// child share.
fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// One child process as the parent saw it.
struct ChildRun {
    /// Spawn → `ready` by the child's own clock reading, s: the pipe
    /// and the parent's wake-up stay out of it.
    setup_s: Option<f64>,
    /// The parsed `result` line.
    result: Option<Json>,
    /// Why the child failed, if it did.
    error: Option<String>,
}

impl ChildRun {
    fn ok(&self) -> bool {
        self.error.is_none()
    }

    fn num(&self, key: &str) -> Option<f64> {
        self.result.as_ref()?.get(key)?.num()
    }
}

fn spawn_child(ctx: &Ctx, w: Workload, setup_only: bool, trace: Option<&Path>) -> ChildRun {
    let mut run = ChildRun {
        setup_s: None,
        result: None,
        error: None,
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            run.error = Some(format!("locating the benchmark binary: {e}"));
            return run;
        }
    };
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        "--workload",
        w.name(),
        "--seed",
        &ctx.seed.to_string(),
    ]);
    if ctx.smoke {
        cmd.arg("--smoke");
    }
    if setup_only {
        cmd.arg("--setup-only");
    }
    if let Some(path) = trace {
        cmd.arg("--trace").arg(path);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let t0 = Instant::now();
    let spawned_ns = unix_ns();
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => {
            run.error = Some(format!("spawning child: {e}"));
            return run;
        }
    };
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let deadline = t0 + CHILD_TIMEOUT;
    loop {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(line) => {
                if let Some(ns) = line.strip_prefix("ready ") {
                    let ready_ns: u128 = ns.parse().unwrap_or(0);
                    run.setup_s = Some(ready_ns.saturating_sub(spawned_ns) as f64 / 1e9);
                } else if let Some(json) = line.strip_prefix("result ") {
                    match Json::parse(json) {
                        Ok(j) => run.result = Some(j),
                        Err(e) => run.error = Some(format!("unreadable result line: {e}")),
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let _ = child.kill();
                run.error = Some(format!("timed out after {}s", CHILD_TIMEOUT.as_secs()));
                break;
            }
        }
    }
    let status = child.wait();
    let _ = reader.join();
    if run.error.is_none() {
        run.error = match (&status, &run.result) {
            (Ok(s), _) if !s.success() => Some(format!("child exited with {s}")),
            (Err(e), _) => Some(format!("waiting for child: {e}")),
            (_, None) if !setup_only => Some("child printed no result".into()),
            (_, Some(r)) if r.get("ok").and_then(Json::bool) != Some(true) => {
                let errs: Vec<&str> = r
                    .get("errors")
                    .map(|e| e.items().iter().filter_map(Json::str).collect())
                    .unwrap_or_default();
                Some(errs.join("; "))
            }
            _ if run.setup_s.is_none() => Some("child never reported ready".into()),
            _ => None,
        };
    }
    run
}

/// Runs a batch workload: repetitions until `ctx.seconds` have passed
/// (at least [`MIN_REPS`]), or with `trace` a traced repetition between
/// two untraced ones.
pub fn run(ctx: &Ctx, w: Workload, trace: bool) -> Outcome {
    let mut out = Outcome::new(w.name());
    if trace {
        return run_traced(ctx, w, out);
    }
    let mut setup = Vec::new();
    for i in 0..SETUP_WARMUP + SETUP_SAMPLES {
        let s = spawn_child(ctx, w, true, None);
        out.attempt(s.ok(), || {
            format!("setup spawn: {}", s.error.clone().unwrap_or_default())
        });
        match s.setup_s {
            Some(t) if i >= SETUP_WARMUP => setup.push(t),
            Some(_) => {}
            None => break,
        }
    }
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < ctx.seconds {
        let rep = spawn_child(ctx, w, false, None);
        out.attempt(rep.ok(), || {
            format!(
                "repetition {}: {}",
                reps.len() + 1,
                rep.error.clone().unwrap_or_default()
            )
        });
        reps.push(rep);
    }
    let good: Vec<&ChildRun> = reps.iter().filter(|r| r.ok()).collect();
    let walls: Vec<f64> = good.iter().filter_map(|r| r.num("wall_s")).collect();
    let rss: Vec<f64> = good.iter().filter_map(|r| r.num("rss_mb")).collect();
    if !walls.is_empty() {
        out.end_to_end.push(Value::median_of("wall_s", "s", &walls));
        out.end_to_end
            .push(Value::median_of("peak_rss_mb", "MB", &rss));
    }
    let failed = reps.iter().filter(|r| !r.ok()).count();
    out.end_to_end.push(Value::one(
        "error_rate",
        "fraction",
        failed as f64 / reps.len() as f64,
    ));
    if !setup.is_empty() {
        out.end_to_end
            .push(Value::median_of("setup_s", "s", &setup));
    }
    let walls_text: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    out.validity.push((
        "repetitions".into(),
        format!("{} (wall s: {})", reps.len(), walls_text.join(" ")),
    ));
    out.validity
        .push(("setup samples".into(), setup.len().to_string()));
    out
}

/// One traced repetition between two untraced ones: the traced outputs
/// must equal the untraced ones, and the overhead is measured against
/// the untraced pair's mean, so a drift in machine speed cancels.
fn run_traced(ctx: &Ctx, w: Workload, mut out: Outcome) -> Outcome {
    let path = ctx.out_dir().join(format!("trace-{}.jsonl", w.name()));
    let mut runs = Vec::new();
    for (what, trace) in [
        ("untraced", None),
        ("traced", Some(&path)),
        ("untraced", None),
    ] {
        let r = spawn_child(ctx, w, false, trace.map(PathBuf::as_path));
        out.attempt(r.ok(), || {
            format!("{what} repetition: {}", r.error.clone().unwrap_or_default())
        });
        runs.push(r);
    }
    let [plain, traced, plain_again] = &runs[..] else {
        unreachable!("three repetitions ran")
    };
    let digest = |r: &ChildRun| {
        r.result
            .as_ref()
            .and_then(|j| j.get("digest")?.str().map(String::from))
    };
    let (d0, d1) = (digest(plain), digest(traced));
    out.attempt(
        d0.is_some() && d0 == d1 && d0 == digest(plain_again),
        || format!("traced outputs differ from untraced ones (digest {d1:?} vs {d0:?})"),
    );
    let layers = traced.result.as_ref().and_then(|j| j.get("layers"));
    let layer = |name: &str| {
        layers
            .and_then(|l| l.get(name))
            .and_then(Json::num)
            .unwrap_or(0.0)
    };
    let pipeline = layer("pipeline_ms");
    let share = |ms: f64| {
        if pipeline > 0.0 {
            100.0 * ms / pipeline
        } else {
            0.0
        }
    };
    for name in [
        "topology.build_ms",
        "placement.search_ms",
        "lp.build_ms",
        "lp.solve_ms",
        "des.exact_ms",
        "des.agg_ms",
        "scenario.other_ms",
        "pipeline_ms",
    ] {
        out.layers.push(Value::one(name, "ms", layer(name)));
    }
    let events = layer("des.events");
    let des_ms = layer("des.exact_ms") + layer("des.agg_ms");
    out.layers.push(Value::one(
        "des.ns_per_event",
        "ns",
        if events > 0.0 {
            des_ms * 1e6 / events
        } else {
            0.0
        },
    ));
    out.layers.push(Value::one(
        "lp.share_pct",
        "%",
        share(layer("lp.build_ms") + layer("lp.solve_ms")),
    ));
    out.layers.push(Value::one(
        "des.exact_share_pct",
        "%",
        share(layer("des.exact_ms")),
    ));
    out.layers.push(Value::one(
        "des.agg_share_pct",
        "%",
        share(layer("des.agg_ms")),
    ));
    out.layers.push(Value::one(
        "scenario.other_share_pct",
        "%",
        share(layer("scenario.other_ms")),
    ));
    for name in [
        "daemon.apply_share_pct",
        "daemon.wal_share_pct",
        "daemon.queue_share_pct",
    ] {
        out.layers.push(Value::one(name, "%", 0.0));
    }
    for (name, _) in COUNTERS {
        out.layers.push(Value::one(name, "count", layer(name)));
    }
    let untraced_ms = 1e3
        * crate::stats::mean(&[
            plain.num("wall_s").unwrap_or(f64::NAN),
            plain_again.num("wall_s").unwrap_or(f64::NAN),
        ]);
    out.layers.push(Value::one(
        "trace_overhead_pct",
        "%",
        100.0 * (pipeline - untraced_ms) / untraced_ms,
    ));
    out.validity
        .push(("trace file".into(), path.display().to_string()));
    out
}
