//! Checkpointed, resumable scenario matrices with streamed JSONL output.
//!
//! [`ScenarioRunner::run_matrix_checkpointed`] runs a spec matrix like
//! `run_matrix`, but streams one JSON line per *completed* scenario into
//! a checkpoint file (appended and fsync'd as each spec finishes, in
//! completion order). A killed sweep resumes from the checkpoint: specs
//! already recorded are skipped, only the missing ones run. Because the
//! pipeline is bit-deterministic and the encoder is pure, the merged
//! output ([`write_merged_jsonl`], sorted by spec index) is byte-identical
//! whether the matrix ran uninterrupted or was killed and resumed any
//! number of times.
//!
//! The encoding is plain JSON with floats in `{:.17e}` scientific
//! notation — enough digits to round-trip every finite `f64`, and a
//! deterministic rendering for the byte-equality guarantee. A torn final
//! checkpoint line (the writer was killed mid-append) is tolerated and
//! dropped; corruption anywhere else is an error naming the line, since
//! silently skipping a completed spec would quietly re-run it under a
//! checkpoint that no longer matches.
//!
//! Every record also carries a content hash of its [`ScenarioSpec`], and
//! resume rejects a record whose hash no longer matches the submitted
//! spec — editing a spec between runs while keeping its name must re-run
//! it, not silently reuse the stale result.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

use qp_obs::{escape_json, stable_f64};
use qp_par::ParPool;

use crate::report::ScenarioReport;
use crate::spec::ScenarioSpec;
use crate::{ScenarioError, ScenarioRunner};

/// One matrix slot after a checkpointed run: either freshly executed
/// this invocation or restored from the checkpoint file.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixEntry {
    /// Index of the spec in the submitted matrix.
    pub spec_index: usize,
    /// The scenario's name (validated against the spec on resume).
    pub name: String,
    /// The scenario's cross-check verdict.
    pub pass: bool,
    /// The JSONL record (no trailing newline) — raw from the checkpoint
    /// for resumed entries, freshly encoded for executed ones.
    pub json_line: String,
    /// `true` when the entry was restored from the checkpoint instead of
    /// executed by this invocation.
    pub resumed: bool,
    /// The structured report, for entries executed by this invocation
    /// (`None` for resumed entries — the checkpoint stores the rendered
    /// record, not the struct).
    pub report: Option<ScenarioReport>,
}

impl ScenarioRunner {
    /// Runs a spec matrix with checkpointing: every completed scenario is
    /// appended to `checkpoint` as one fsync'd JSON line, and specs the
    /// checkpoint already records are skipped. Entries return in spec
    /// order.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Io`] for checkpoint file problems (including
    /// corruption anywhere but a torn final line, and a checkpoint whose
    /// recorded names do not match the submitted specs); scenario
    /// failures propagate like [`ScenarioRunner::run_matrix`] — specs
    /// that completed before the failure remain in the checkpoint, so a
    /// rerun picks up from there.
    pub fn run_matrix_checkpointed(
        &self,
        specs: &[ScenarioSpec],
        checkpoint: &Path,
    ) -> Result<Vec<MatrixEntry>, ScenarioError> {
        let mut slots: Vec<Option<MatrixEntry>> = (0..specs.len()).map(|_| None).collect();
        load_checkpoint(checkpoint, specs, &mut slots)?;

        let missing: Vec<usize> = (0..specs.len()).filter(|&i| slots[i].is_none()).collect();
        if !missing.is_empty() {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(checkpoint)
                .map_err(|e| io_error(checkpoint, &e))?;
            let sink = Mutex::new(file);
            let results = ParPool::global().run(missing.len(), |j| {
                let i = missing[j];
                let report = self.run(&specs[i])?;
                let line = encode_report(i, &specs[i], &report);
                {
                    let mut f = sink.lock().expect("checkpoint sink poisoned");
                    f.write_all(line.as_bytes())
                        .and_then(|()| f.write_all(b"\n"))
                        .and_then(|()| f.sync_data())
                        .map_err(|e| io_error(checkpoint, &e))?;
                }
                Ok::<_, ScenarioError>((i, report, line))
            });
            for r in results {
                let (i, report, json_line) = r?;
                slots[i] = Some(MatrixEntry {
                    spec_index: i,
                    name: report.name.clone(),
                    pass: report.pass,
                    json_line,
                    resumed: false,
                    report: Some(report),
                });
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every slot resumed or executed"))
            .collect())
    }
}

/// Writes the matrix's merged JSONL (entries in spec order, one line
/// each) to `path` and fsyncs it. Byte-identical across interrupted and
/// uninterrupted runs of the same matrix.
///
/// # Errors
///
/// [`ScenarioError::Io`] on any file-system failure.
pub fn write_merged_jsonl(entries: &[MatrixEntry], path: &Path) -> Result<(), ScenarioError> {
    let mut out = String::new();
    for e in entries {
        out.push_str(&e.json_line);
        out.push('\n');
    }
    let mut f = std::fs::File::create(path).map_err(|e| io_error(path, &e))?;
    f.write_all(out.as_bytes())
        .and_then(|()| f.sync_all())
        .map_err(|e| io_error(path, &e))
}

fn io_error(path: &Path, e: &dyn std::fmt::Display) -> ScenarioError {
    ScenarioError::Io(format!("{}: {e}", path.display()))
}

/// Restores completed entries from the checkpoint file into `slots`.
/// A missing file is an empty checkpoint; a torn final line is dropped.
fn load_checkpoint(
    path: &Path,
    specs: &[ScenarioSpec],
    slots: &mut [Option<MatrixEntry>],
) -> Result<(), ScenarioError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(io_error(path, &e)),
    };
    // A line without its terminating newline was torn by a kill
    // mid-append; the spec it would have recorded simply re-runs.
    let complete = match text.ends_with('\n') {
        true => &text[..],
        false => &text[..text.rfind('\n').map_or(0, |p| p + 1)],
    };
    for (i, line) in complete.lines().enumerate() {
        let lineno = i + 1;
        let corrupt = |why: &str| {
            ScenarioError::Io(format!(
                "{} line {lineno}: {why} (delete the checkpoint to start over)",
                path.display()
            ))
        };
        let (spec_index, escaped_name, hash, pass) =
            scan_line(line).ok_or_else(|| corrupt("unrecognized checkpoint record"))?;
        if spec_index >= specs.len() {
            return Err(corrupt(&format!(
                "records spec {spec_index} but the matrix has {} specs",
                specs.len()
            )));
        }
        if escaped_name != escape_json(&specs[spec_index].name) {
            return Err(corrupt(&format!(
                "records a scenario named \"{escaped_name}\" at index {spec_index}, \
                 but the matrix has `{}` there",
                specs[spec_index].name
            )));
        }
        if hash != spec_hash(&specs[spec_index]) {
            return Err(corrupt(&format!(
                "spec `{}` changed since this checkpoint was written \
                 (content hash {hash} no longer matches)",
                specs[spec_index].name
            )));
        }
        if slots[spec_index].is_some() {
            return Err(corrupt(&format!("duplicate record for spec {spec_index}")));
        }
        slots[spec_index] = Some(MatrixEntry {
            spec_index,
            name: specs[spec_index].name.clone(),
            pass,
            json_line: line.to_string(),
            resumed: true,
            report: None,
        });
    }
    Ok(())
}

/// Extracts `(spec_index, escaped name, spec hash, pass)` from a
/// checkpoint line without a JSON parser: the encoder pins the leading
/// field order to `spec_index`, `name`, `spec_hash`, `pass` exactly so
/// resume can string-scan.
fn scan_line(line: &str) -> Option<(usize, &str, &str, bool)> {
    let rest = line.strip_prefix("{\"spec_index\":")?;
    let comma = rest.find(',')?;
    let spec_index: usize = rest[..comma].parse().ok()?;
    let rest = rest[comma..].strip_prefix(",\"name\":\"")?;
    let mut end = None;
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' => escaped = true,
            '"' => {
                end = Some(i);
                break;
            }
            _ => {}
        }
    }
    let end = end?;
    let name = &rest[..end];
    let rest = rest[end + 1..].strip_prefix(",\"spec_hash\":\"")?;
    let hash_end = rest.find('"')?;
    let hash = &rest[..hash_end];
    let rest = &rest[hash_end + 1..];
    let pass = if rest.starts_with(",\"pass\":true,") {
        true
    } else if rest.starts_with(",\"pass\":false,") {
        false
    } else {
        return None;
    };
    line.ends_with('}')
        .then_some((spec_index, name, hash, pass))
}

/// Deterministic content hash of a spec (FNV-1a over its debug
/// rendering), stored in each checkpoint record so resume can detect a
/// spec that was edited between runs while keeping its name.
#[must_use]
pub fn spec_hash(spec: &ScenarioSpec) -> String {
    let repr = format!("{spec:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in repr.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Encodes one scenario's checkpoint/JSONL record (no trailing newline).
/// Deterministic: the same report always renders the same bytes. The
/// first four fields are pinned to `spec_index`, `name`, `spec_hash`,
/// `pass` — the resume scanner depends on that order.
#[must_use]
pub fn encode_report(spec_index: usize, spec: &ScenarioSpec, report: &ScenarioReport) -> String {
    let mut o = String::with_capacity(1024);
    o.push_str("{\"spec_index\":");
    o.push_str(&spec_index.to_string());
    o.push_str(",\"name\":");
    push_str_field(&mut o, &report.name);
    o.push_str(",\"spec_hash\":");
    push_str_field(&mut o, &spec_hash(spec));
    o.push_str(",\"pass\":");
    o.push_str(if report.pass { "true" } else { "false" });
    o.push_str(",\"topology\":");
    push_str_field(&mut o, &report.topology);
    o.push_str(",\"sites\":");
    o.push_str(&report.sites.to_string());
    o.push_str(",\"system\":");
    push_str_field(&mut o, &report.system);
    o.push_str(",\"placement_sites\":[");
    for (i, s) in report.placement_sites.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        push_str_field(&mut o, s);
    }
    o.push_str("],\"locations\":");
    o.push_str(&report.locations.to_string());
    o.push_str(",\"total_clients\":");
    o.push_str(&report.total_clients.to_string());
    o.push_str(",\"capacity\":");
    push_str_field(&mut o, &report.capacity);
    o.push_str(",\"lp_delay_ms\":");
    push_f64(&mut o, report.lp_delay_ms);
    o.push_str(",\"lp_response_ms\":");
    push_f64(&mut o, report.lp_response_ms);
    o.push_str(",\"lp_pivots\":");
    o.push_str(&report.lp_pivots.to_string());
    let p = &report.pricing;
    o.push_str(&format!(
        ",\"pricing\":{{\"columns_in_master\":{},\"total_columns\":{},\
         \"columns_generated\":{},\"oracle_passes\":{},\
         \"master_resolves\":{}}}",
        p.columns_in_master,
        p.total_columns,
        p.columns_generated,
        p.oracle_passes,
        p.master_resolves
    ));
    o.push_str(",\"tolerance\":");
    push_f64(&mut o, report.tolerance);
    o.push_str(",\"max_rel_error\":");
    push_f64(&mut o, report.max_rel_error);
    o.push_str(",\"phases\":[");
    for (i, p) in report.phases.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str("{\"phase\":");
        o.push_str(&p.phase.to_string());
        o.push_str(",\"engine\":");
        push_str_field(
            &mut o,
            match p.engine {
                qp_protocol::SimEngine::Exact => "exact",
                qp_protocol::SimEngine::Aggregated => "aggregated",
            },
        );
        o.push_str(",\"exact_response_ms\":");
        push_opt_f64(&mut o, p.exact_response_ms);
        o.push_str(",\"exact_compare_rel_error\":");
        push_opt_f64(&mut o, p.exact_compare_rel_error);
        o.push_str(",\"exact_compare_sampled\":");
        match p.exact_compare_sampled {
            None => o.push_str("null"),
            Some(n) => o.push_str(&n.to_string()),
        }
        o.push_str(",\"fault_tolerant\":");
        o.push_str(if p.fault_tolerant { "true" } else { "false" });
        o.push_str(",\"timeouts\":");
        o.push_str(&p.timeouts.to_string());
        o.push_str(",\"retries\":");
        o.push_str(&p.retries.to_string());
        o.push_str(",\"failovers\":");
        o.push_str(&p.failovers.to_string());
        o.push_str(",\"flash\":");
        o.push_str(if p.flash { "true" } else { "false" });
        o.push_str(",\"failed_elements\":");
        o.push_str(&p.failed_elements.to_string());
        o.push_str(",\"reoptimized\":");
        o.push_str(if p.reoptimized { "true" } else { "false" });
        o.push_str(",\"predicted_floor_ms\":");
        push_f64(&mut o, p.predicted_floor_ms);
        o.push_str(",\"des_response_ms\":");
        push_f64(&mut o, p.des_response_ms);
        o.push_str(",\"des_floor_ms\":");
        push_f64(&mut o, p.des_floor_ms);
        o.push_str(",\"rel_error\":");
        push_f64(&mut o, p.rel_error);
        o.push_str(",\"completed_requests\":");
        o.push_str(&p.completed_requests.to_string());
        o.push_str(",\"max_server_utilization\":");
        push_f64(&mut o, p.max_server_utilization);
        o.push('}');
    }
    o.push(']');
    // Optional trailing field: appended only when the runner collected a
    // stage breakdown, so default-path checkpoint lines stay
    // byte-identical to earlier releases (and the resume scanner, which
    // pins only the leading fields, is unaffected either way).
    if let Some(s) = &report.stages {
        o.push_str(&format!(
            ",\"stages\":{{\"topology_sites\":{},\"placement_elements\":{},\
             \"lp_pivots\":{},\"capacity_points\":{},\"des_phases\":{},\
             \"des_completed_requests\":{}}}",
            s.topology_sites,
            s.placement_elements,
            s.lp_pivots,
            s.capacity_points,
            s.des_phases,
            s.des_completed_requests
        ));
    }
    o.push('}');
    o
}

fn push_str_field(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape_json(s));
    out.push('"');
}

/// [`stable_f64`] round-trips every finite `f64` bit-exactly and renders
/// deterministically; JSON has no NaN/Infinity, so non-finite values
/// (which the pipeline never produces) encode as `null`.
fn push_f64(out: &mut String, v: f64) {
    out.push_str(&stable_f64(v));
}

fn push_opt_f64(out: &mut String, v: Option<f64>) {
    match v {
        Some(v) => push_f64(out, v),
        None => out.push_str("null"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PipelineSpec, TopologySource, WorkloadSpec};

    fn tiny_spec(name: &str, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_string(),
            topology: TopologySource::Euclidean {
                sites: 10,
                side_ms: 100.0,
                seed: 3,
            },
            workload: WorkloadSpec {
                locations: 3,
                per_location: 2,
                ..WorkloadSpec::default()
            },
            failures: Default::default(),
            pipeline: PipelineSpec {
                system: "grid:2".to_string(),
                requests: 20,
                warmup: 4,
                seed,
                tolerance: 0.3,
                ..PipelineSpec::default()
            },
        }
    }

    fn specs() -> Vec<ScenarioSpec> {
        vec![
            tiny_spec("alpha", 1),
            tiny_spec("beta", 2),
            tiny_spec("gamma", 3),
        ]
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("qp-matrix-{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn checkpointed_run_matches_plain_matrix() {
        let specs = specs();
        let ckpt = temp_path("full");
        let _ = std::fs::remove_file(&ckpt);
        let runner = ScenarioRunner::new();
        let entries = runner.run_matrix_checkpointed(&specs, &ckpt).unwrap();
        let plain = runner.run_matrix(&specs).unwrap();
        assert_eq!(entries.len(), 3);
        for (e, r) in entries.iter().zip(&plain) {
            assert!(!e.resumed);
            assert_eq!(e.name, r.name);
            assert_eq!(e.pass, r.pass);
            assert_eq!(
                e.json_line,
                encode_report(e.spec_index, &specs[e.spec_index], r)
            );
        }
        std::fs::remove_file(&ckpt).unwrap();
    }

    #[test]
    fn resume_skips_recorded_specs_and_merges_identically() {
        let specs = specs();
        let runner = ScenarioRunner::new();

        // Cold, uninterrupted run → the reference merged output.
        let cold_ckpt = temp_path("cold");
        let _ = std::fs::remove_file(&cold_ckpt);
        let cold = runner.run_matrix_checkpointed(&specs, &cold_ckpt).unwrap();
        let cold_out = temp_path("cold-out");
        write_merged_jsonl(&cold, &cold_out).unwrap();

        // "Interrupted" run: a checkpoint holding only spec 1, plus a
        // torn final line a kill would leave behind.
        let ckpt = temp_path("resume");
        let _ = std::fs::remove_file(&ckpt);
        let mut partial = cold[1].json_line.clone();
        partial.push('\n');
        partial.push_str(&cold[2].json_line[..40]); // torn: no newline
        std::fs::write(&ckpt, &partial).unwrap();

        let resumed = runner.run_matrix_checkpointed(&specs, &ckpt).unwrap();
        assert!(!resumed[0].resumed);
        assert!(resumed[1].resumed, "spec 1 was in the checkpoint");
        assert!(!resumed[2].resumed, "torn line must re-run");
        assert!(resumed[1].report.is_none());

        let out = temp_path("resume-out");
        write_merged_jsonl(&resumed, &out).unwrap();
        assert_eq!(
            std::fs::read(&cold_out).unwrap(),
            std::fs::read(&out).unwrap(),
            "merged JSONL must be byte-identical to the cold run"
        );
        for p in [&cold_ckpt, &cold_out, &ckpt, &out] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn mismatched_checkpoint_is_rejected() {
        let specs = specs();
        let runner = ScenarioRunner::new();
        let ckpt = temp_path("mismatch");
        let alpha_hash = spec_hash(&specs[0]);
        // A record claiming index 0 is named "zeta".
        std::fs::write(
            &ckpt,
            format!(
                "{{\"spec_index\":0,\"name\":\"zeta\",\"spec_hash\":\"{alpha_hash}\",\
                 \"pass\":true,\"x\":1}}\n"
            ),
        )
        .unwrap();
        let err = runner.run_matrix_checkpointed(&specs, &ckpt).unwrap_err();
        let ScenarioError::Io(msg) = err else {
            panic!("wrong error: {err}");
        };
        assert!(msg.contains("zeta"), "{msg}");
        assert!(msg.contains("alpha"), "{msg}");

        // Right name, but the spec's contents changed since the record
        // was written: resume must refuse the stale result.
        std::fs::write(
            &ckpt,
            "{\"spec_index\":0,\"name\":\"alpha\",\
             \"spec_hash\":\"0123456789abcdef\",\"pass\":true,\"x\":1}\n",
        )
        .unwrap();
        let err = runner.run_matrix_checkpointed(&specs, &ckpt).unwrap_err();
        let ScenarioError::Io(msg) = err else {
            panic!("wrong error: {err}");
        };
        assert!(msg.contains("changed since this checkpoint"), "{msg}");

        // Out-of-range index.
        std::fs::write(
            &ckpt,
            format!(
                "{{\"spec_index\":9,\"name\":\"zeta\",\"spec_hash\":\"{alpha_hash}\",\
                 \"pass\":true,\"x\":1}}\n"
            ),
        )
        .unwrap();
        assert!(matches!(
            runner.run_matrix_checkpointed(&specs, &ckpt),
            Err(ScenarioError::Io(_))
        ));

        // Garbage anywhere but a torn final line.
        std::fs::write(&ckpt, "not json\n").unwrap();
        assert!(matches!(
            runner.run_matrix_checkpointed(&specs, &ckpt),
            Err(ScenarioError::Io(_))
        ));
        std::fs::remove_file(&ckpt).unwrap();
    }

    #[test]
    fn encoded_records_scan_back() {
        let spec = tiny_spec("weird \"name\"\t", 5);
        let report = ScenarioRunner::new().run(&spec).unwrap();
        let line = encode_report(7, &spec, &report);
        let (idx, escaped, hash, pass) = scan_line(&line).expect("scans");
        assert_eq!(idx, 7);
        assert_eq!(escaped, escape_json("weird \"name\"\t"));
        assert_eq!(hash, spec_hash(&spec));
        assert_eq!(pass, report.pass);
    }
}
