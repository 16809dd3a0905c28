//! End-to-end benchmark of quorumnet: four batch pipelines and a live
//! `quorumd` stream, each checked for correct outputs, with per-layer
//! attribution from a separate traced run. See `README.md` for the
//! workloads, metrics, bounds and commands.

use std::path::{Path, PathBuf};

pub mod batch;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod stats;
pub mod stream;
pub mod trace;

use metrics::Outcome;

/// Seconds one run measures unless told otherwise (`BENCHMARK.json`'s
/// `run_seconds`).
pub const DEFAULT_SECONDS: f64 = 15.0;

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `transit_colgen_2000.toml` through `ScenarioRunner::run`.
    Wan2000Colgen,
    /// `million_flash.toml` through `ScenarioRunner::run`.
    MillionAgg,
    /// `fig3_1` at full scale.
    PaperDes,
    /// `fig7_6`, `fig7_7`, `fig7_8` and `fig8_9` at full scale.
    PaperLp,
    /// A live `quorumnet serve` under an open-loop delta and read stream.
    QuorumdStream,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::Wan2000Colgen,
        Workload::MillionAgg,
        Workload::PaperDes,
        Workload::PaperLp,
        Workload::QuorumdStream,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Wan2000Colgen => "wan2000_colgen",
            Workload::MillionAgg => "million_agg",
            Workload::PaperDes => "paper_des",
            Workload::PaperLp => "paper_lp",
            Workload::QuorumdStream => "quorumd_stream",
        }
    }

    /// Looks a workload up by name.
    ///
    /// # Errors
    ///
    /// An unknown name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ctx {
    /// Input seed; 0 runs the specs as checked in.
    pub seed: u64,
    /// How long to measure, s.
    pub seconds: f64,
    /// Test-size inputs.
    pub smoke: bool,
}

impl Ctx {
    /// Where runs keep state directories and write traces.
    pub fn out_dir(&self) -> PathBuf {
        root().join("e2ebench").join("out")
    }

    /// The `quorumnet` binary under test: in `$CARGO_TARGET_DIR` when
    /// set (relative to the repository root), else `target/`.
    pub(crate) fn quorumnet_bin(&self) -> PathBuf {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        root().join(target).join("release").join("quorumnet")
    }
}

/// The repository root this benchmark was built in.
pub fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// `path` relative to the working directory when it lies below it —
/// Unix socket paths must stay short.
pub(crate) fn relative(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

/// Runs one workload, timed or traced.
pub fn run_workload(ctx: &Ctx, w: Workload, trace: bool) -> Outcome {
    let mut out = match std::fs::create_dir_all(ctx.out_dir()) {
        Err(e) => {
            let mut out = Outcome::new(w.name());
            out.attempt(false, || {
                format!("creating {}: {e}", ctx.out_dir().display())
            });
            out
        }
        Ok(()) if w == Workload::QuorumdStream => stream::run(ctx, trace),
        Ok(()) => batch::run(ctx, w, trace),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = if w == Workload::QuorumdStream {
        "daemon --threads 1; generator 2 threads, 2 connections"
    } else {
        "1 (qp_par::configure_threads(1) in every child)"
    };
    out.validity.insert(0, ("nproc".into(), nproc.to_string()));
    out.validity.insert(1, ("threads".into(), threads.into()));
    out.validity
        .insert(2, ("seed".into(), ctx.seed.to_string()));
    out
}
