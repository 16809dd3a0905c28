//! `compare`: runs two checkouts' benchmarks alternately and labels
//! every (metric, workload) pair improved, unchanged, worse or
//! unresolved.
//!
//! Pair `i` runs seed `i + 1` on both sides, the parent first on even
//! pairs and the change first on odd ones. A claimed metric counts as
//! improved when the change wins at least nine tenths of the pairs
//! (ties count for neither) and the medians differ by more than the
//! parent's quartile spread. Every other pair must keep the change's
//! median within the metric's bound of the parent's; where the parent's
//! own spread is wider than the bound the pair is unresolved, unless
//! every change run beats every parent run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::quartiles;
use crate::Workload;

/// How one (metric, workload) pair compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Label {
    /// Better by the rule above.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse than the bound allows.
    Worse,
    /// The parent's spread is wider than the bound.
    Unresolved,
}

impl Label {
    fn as_str(self) -> &'static str {
        match self {
            Label::Improved => "improved",
            Label::Unchanged => "unchanged",
            Label::Worse => "worse",
            Label::Unresolved => "unresolved",
        }
    }
}

/// Labels one pair from `parent[i]`/`change[i]` samples of a metric
/// that is better when lower.
fn label(parent: &[f64], change: &[f64], bound: f64, claimed: bool) -> Label {
    let (pq1, pm, pq3) = quartiles(parent);
    let (_, cm, _) = quartiles(change);
    let all_better = change.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        < parent.iter().copied().fold(f64::INFINITY, f64::min);
    if claimed {
        let wins = parent.iter().zip(change).filter(|(p, c)| c < p).count();
        if wins * 10 >= 9 * parent.len() && pm - cm > pq3 - pq1 {
            return Label::Improved;
        }
    }
    if cm > pm * (1.0 + bound) {
        return Label::Worse;
    }
    let spread = if pm > 0.0 { (pq3 - pq1) / pm } else { 0.0 };
    if spread > bound {
        return if all_better {
            Label::Improved
        } else {
            Label::Unresolved
        };
    }
    if all_better && !claimed {
        Label::Improved
    } else {
        Label::Unchanged
    }
}

/// `compare` options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Checkout of the parent commit.
    pub parent: PathBuf,
    /// Checkout of the change.
    pub change: PathBuf,
    /// Workloads to run (all when empty).
    pub workloads: Vec<Workload>,
    /// Pairs per workload.
    pub pairs: usize,
    /// Seconds per run.
    pub seconds: f64,
    /// The claimed metric, optionally `metric@workload`.
    pub claim: Option<String>,
    /// Test-size inputs.
    pub smoke: bool,
}

/// One side's run: every end-to-end value by name.
fn run_side(
    dir: &Path,
    w: Workload,
    seed: u64,
    o: &Options,
) -> Result<BTreeMap<String, f64>, String> {
    let mut cmd = Command::new("bash");
    cmd.arg(dir.join("e2ebench/run.sh"))
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string(), "--trace", "0"])
        .current_dir(dir)
        .env("CARGO_TARGET_DIR", dir.join("target"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if o.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("running {}: {e}", dir.display()))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let last = text.lines().last().unwrap_or("");
    let result =
        Json::parse(last).map_err(|e| format!("{}: no result line ({e})", dir.display()))?;
    if result.get("correct").and_then(Json::bool) != Some(true) {
        return Err(format!(
            "{}: {} seed {seed} is not correct",
            dir.display(),
            w.name()
        ));
    }
    let detail = text
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or("no detail line")?;
    let detail = Json::parse(detail)?;
    let metrics = detail.get("metrics").map(Json::members).unwrap_or_default();
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.num()?)))
        .collect())
}

/// Runs the comparison and prints one row per (metric, workload).
///
/// # Errors
///
/// A side that fails to build, run, or produce correct outputs.
pub fn run(o: &Options) -> Result<(), String> {
    let workloads = if o.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        o.workloads.clone()
    };
    let (claim_metric, claim_workload) = match o
        .claim
        .as_deref()
        .map(|c| c.split_once('@').unwrap_or((c, "")))
    {
        Some((m, w)) => (m, w),
        None => ("", ""),
    };
    println!(
        "{:<16} {:<15} {:>30} {:>30} {:>5}  label",
        "metric", "workload", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for w in workloads {
        let mut parent = Vec::new();
        let mut change = Vec::new();
        for i in 0..o.pairs {
            let seed = i as u64 + 1;
            if i % 2 == 0 {
                parent.push(run_side(&o.parent, w, seed, o)?);
                change.push(run_side(&o.change, w, seed, o)?);
            } else {
                change.push(run_side(&o.change, w, seed, o)?);
                parent.push(run_side(&o.parent, w, seed, o)?);
            }
            eprintln!("compare: {} pair {}/{} done", w.name(), i + 1, o.pairs);
        }
        for def in END_TO_END {
            let p: Vec<f64> = parent
                .iter()
                .filter_map(|m| m.get(def.name).copied())
                .collect();
            let c: Vec<f64> = change
                .iter()
                .filter_map(|m| m.get(def.name).copied())
                .collect();
            if p.len() != o.pairs || c.len() != o.pairs {
                continue;
            }
            let claimed = def.name == claim_metric
                && (claim_workload.is_empty() || claim_workload == w.name());
            let (pq1, pm, pq3) = quartiles(&p);
            let (cq1, cm, cq3) = quartiles(&c);
            let wins = p.iter().zip(&c).filter(|(p, c)| c < p).count();
            println!(
                "{:<16} {:<15} {:>12.6} [{:.6}, {:.6}] {:>12.6} [{:.6}, {:.6}] {:>2}/{:<2}  {}{}",
                def.name,
                w.name(),
                pm,
                pq1,
                pq3,
                cm,
                cq1,
                cq3,
                wins,
                o.pairs,
                label(&p, &c, def.bound, claimed).as_str(),
                if claimed { " (claimed)" } else { "" }
            );
            println!("    runs parent {p:?}");
            println!("    runs change {c:?}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_follow_the_rules() {
        let parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.0];
        // Clear win on every pair, beyond the parent's spread.
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert_eq!(label(&parent, &faster, 0.1, true), Label::Improved);
        // A 30% regression against a 10% bound.
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.3).collect();
        assert_eq!(label(&parent, &slower, 0.1, false), Label::Worse);
        // Within the bound.
        let same: Vec<f64> = parent.iter().map(|p| p * 1.01).collect();
        assert_eq!(label(&parent, &same, 0.1, false), Label::Unchanged);
        assert_eq!(label(&parent, &same, 0.1, true), Label::Unchanged);
        // Parent spread far wider than the bound.
        let noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0];
        assert_eq!(label(&noisy, &noisy, 0.1, false), Label::Unresolved);
        // Zero-valued error rates: any increase is worse.
        assert_eq!(label(&[0.0; 4], &[0.0; 4], 0.0, false), Label::Unchanged);
        assert_eq!(
            label(&[0.0; 4], &[0.0, 0.5, 0.5, 0.5], 0.0, false),
            Label::Worse
        );
    }
}
