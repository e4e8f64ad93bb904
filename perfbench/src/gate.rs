//! The correctness gate, and the only place the benchmark reaches into
//! run identity (`com_bench::runner`) and the batch engine.
//!
//! A served session passes when its `bye` carries the canonical run JSON
//! and digest of a local `try_run_online` over the same instance, matcher
//! and seed, with zero audit findings. A federated pass passes when
//! `com_fed::verify` is clean (zero degraded offers included) and every
//! trace the daemons recorded replays strictly.

use std::path::Path;

use com_bench::runner::{canonical_assignment_json, canonical_run_digest, canonical_run_json};
use com_core::{try_run_online, Instance, MatcherRegistry, RunResult};
use com_serve::{replay_trace, ByeMsg, TraceReplayOptions, TraceReplayReport};
use com_sim::Assignment;

/// What a correct session must report.
#[derive(Debug, Clone)]
pub struct Reference {
    pub canonical: String,
    pub digest: String,
    pub revenue: f64,
}

/// The local batch run of `instance` under `matcher` and `seed`.
fn local_run(instance: &Instance, matcher: &str, seed: u64) -> Result<RunResult, String> {
    let factory = MatcherRegistry::builtin()
        .resolve(matcher)
        .map_err(|e| format!("unknown matcher {matcher}: {e:?}"))?;
    let mut m = factory();
    Ok(try_run_online(instance, m.as_mut(), seed))
}

pub fn reference(instance: &Instance, matcher: &str, seed: u64) -> Result<Reference, String> {
    let run = local_run(instance, matcher, seed)?;
    Ok(Reference {
        canonical: normalized(&canonical_run_json(&run)),
        digest: canonical_run_digest(&run),
        revenue: run.total_revenue(),
    })
}

/// Serialize through the parser so a value built locally and one read
/// off the wire compare in the same representation.
fn normalized(value: &serde_json::Value) -> String {
    let text = serde_json::to_string(value).expect("canonical JSON serializes");
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("round-trip");
    serde_json::to_string(&parsed).expect("canonical JSON serializes")
}

/// Every way `bye` differs from `reference`; empty when it passes.
pub fn check_bye(reference: &Reference, bye: &ByeMsg, label: &str) -> Vec<String> {
    let mut failures = Vec::new();
    if !bye.audit_findings.is_empty() {
        failures.push(format!(
            "{label}: {} audit finding(s)",
            bye.audit_findings.len()
        ));
    }
    if bye.digest != reference.digest {
        failures.push(format!(
            "{label}: digest {} != local {}",
            bye.digest, reference.digest
        ));
    }
    // The wire value is already a parsed tree, like the reference's.
    let served = serde_json::to_string(&bye.canonical).expect("canonical JSON serializes");
    if served != reference.canonical {
        failures.push(format!(
            "{label}: canonical run differs from the local batch run"
        ));
    }
    failures
}

/// The two daemons' answers to one request agree (wall-clock fields
/// excluded).
pub fn same_decision(a: &Assignment, b: &Assignment) -> bool {
    canonical_assignment_json(a) == canonical_assignment_json(b)
}

/// Replay every trace in `dir` strictly; returns the reports and every
/// failure. Clean means no divergence, a silent auditor and the recorded
/// digest reproduced.
pub fn replay_dir(dir: &Path) -> (Vec<TraceReplayReport>, Vec<String>) {
    let mut reports = Vec::new();
    let mut failures = Vec::new();
    let mut paths: Vec<_> = match std::fs::read_dir(dir) {
        Ok(entries) => entries.filter_map(|e| e.ok().map(|e| e.path())).collect(),
        Err(e) => return (reports, vec![format!("{}: {e}", dir.display())]),
    };
    paths.sort();
    for path in paths
        .iter()
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
    {
        match replay_trace(path, &TraceReplayOptions::default()) {
            Ok(r) => {
                if !r.is_clean() || r.digest_expected.as_deref() != Some(r.digest_got.as_str()) {
                    failures.push(format!(
                        "{}: replay not clean ({} divergence(s), {} audit finding(s))",
                        path.display(),
                        r.divergences.len(),
                        r.audit_findings.len()
                    ));
                }
                reports.push(r);
            }
            Err(e) => failures.push(format!("{}: {e}", path.display())),
        }
    }
    (reports, failures)
}
