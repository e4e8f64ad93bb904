//! `matchload` — scenario replay client and load generator for `matchd`.
//!
//! ```text
//! cargo run -p com-serve --release --bin matchload -- \
//!     --addr HOST:PORT \
//!     [--profile NAME | --config FILE | --quick | --full-scale] \
//!     [--matcher SPEC] [--seed N] \
//!     [--frame ndjson|binary] [--window N] \
//!     [--connections M] [--sessions K] \
//!     [--json FILE] [--baseline FILE] [--strict]
//! ```
//!
//! Streams a `com-datagen` scenario through K sessions of a live matchd
//! with `com_serve::drive` and reports throughput and request round-trip
//! latency (p50/p95/p99; measured from the flush that wrote each request).
//! Before shutdown it asks the server for `stats_deep` and prints the
//! serving phase table (decode/ingest/decision/encode/flush latencies,
//! queue high-water, busy-drops) plus — against a sharded server — the
//! per-shard rows; the same tables land in the `--json` report as
//! `server_phases` and `server_shards`.
//!
//! * `--profile` / `--config` / `--quick` / `--full-scale` — the
//!   scenario (at most one; default `synthetic`), resolved through the
//!   `com_datagen::cli` name table. `--quick` is a small synthetic
//!   scenario (400 requests, 120 workers), what CI's serve-smoke job
//!   runs; `--full-scale` is the full-scale city scenario (4000
//!   requests, 1200 workers — 10× quick), the paper-scale serving
//!   experiment.
//! * `--frame` — wire framing to negotiate in `hello` (default
//!   `ndjson`); `binary` switches to length-prefixed frames after the
//!   server's `welcome` confirms.
//! * `--window` — max messages in flight across all sessions (default 1
//!   = strict lockstep). Larger windows pipeline sends in batched
//!   writes; the served outcome is identical, only transport overlap
//!   changes.
//! * `--connections` / `--sessions` — drive K logical sessions
//!   multiplexed over M connections (session `sid` rides connection
//!   `sid % M`, with seed `--seed + sid`; K is raised to M). The default
//!   (1/1) is one bare session, the legacy un-enveloped wire path.
//! * `--json` — write the report: run settings, throughput, latency, one
//!   `per_session` entry per session, and the server tables.
//! * `--baseline FILE` — embed a previously written `--json` report
//!   under `"baseline"` in this run's report, so one file carries a
//!   before/after phase-table comparison.
//! * `--strict` — verify every served session end to end: replay the
//!   same instance through the local batch engine (`try_run_online`,
//!   per-session seed) and require the server's canonical run JSON and
//!   finish digest to match byte for byte, zero audit findings, and
//!   zero dropped messages; exit 1 otherwise.

use std::fs;

use com_core::identity::{canonical_run_digest, canonical_run_json, canonical_text};
use com_core::{try_run_online, MatcherRegistry};
use com_datagen::cli::{exit_with, Cli, ScenarioArg, CONFIG, FULL_SCALE, PROFILE, QUICK};
use com_datagen::generate;
use com_serve::{drive, DeepStatsMsg, DriveOptions, ShardRow, WireFormat};

const USAGE: &str = "usage: matchload --addr HOST:PORT [--profile NAME | --config FILE] \
     [--quick] [--full-scale] [--matcher SPEC] [--seed N] \
     [--frame ndjson|binary] [--window N] [--connections M] \
     [--sessions K] [--json FILE] [--baseline FILE] [--strict]";

struct Args {
    addr: String,
    scenario: ScenarioArg,
    matcher: String,
    seed: u64,
    frame: WireFormat,
    window: usize,
    connections: usize,
    sessions: usize,
    json_out: Option<String>,
    baseline: Option<String>,
    strict: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: String::new(),
        scenario: ScenarioArg::new(&[PROFILE, CONFIG, QUICK, FULL_SCALE], "synthetic"),
        matcher: "demcom".into(),
        seed: 42,
        frame: WireFormat::Ndjson,
        window: 1,
        connections: 1,
        sessions: 1,
        json_out: None,
        baseline: None,
        strict: false,
    };
    let mut cli = Cli::new(USAGE);
    while let Some(flag) = cli.next() {
        match flag.as_str() {
            _ if args.scenario.read(&flag, &mut cli) => {}
            "--addr" => args.addr = cli.value(&flag),
            "--matcher" => args.matcher = cli.value(&flag),
            "--seed" => args.seed = cli.parse(&flag),
            "--frame" => {
                args.frame = WireFormat::parse(&cli.value(&flag))
                    .unwrap_or_else(|| cli.fail("--frame must be ndjson or binary"))
            }
            "--window" => args.window = cli.positive(&flag),
            "--connections" => args.connections = cli.positive(&flag),
            "--sessions" => args.sessions = cli.positive(&flag),
            "--json" => args.json_out = Some(cli.value(&flag)),
            "--baseline" => args.baseline = Some(cli.value(&flag)),
            "--strict" => args.strict = true,
            _ => cli.unknown(&flag),
        }
    }
    if args.addr.is_empty() {
        cli.fail("--addr is required")
    }
    args
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The live server-side latency breakdown from `stats_deep`: where each
/// microsecond of a request's server time goes.
fn print_phase_table(deep: &DeepStatsMsg) {
    println!(
        "server phases ({}, queue depth {} / high-water {}, {} dropped):",
        deep.algorithm, deep.queue_depth, deep.queue_high_water, deep.busy_dropped,
    );
    println!(
        "  {:<18} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "phase", "count", "p50 us", "p90 us", "p99 us", "mean us"
    );
    for p in &deep.phases {
        println!(
            "  {:<18} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            p.phase,
            p.count,
            us(p.p50_ns),
            us(p.p90_ns),
            us(p.p99_ns),
            p.mean_ns / 1e3,
        );
    }
}

/// The sharded server's health rows from `stats_deep`.
fn print_shard_table(shards: &[ShardRow]) {
    println!("server shards ({}):", shards.len());
    println!(
        "  {:<6} {:>9} {:>10} {:>14} {:>9} {:>11}",
        "shard", "sessions", "total", "events_routed", "queue_hw", "busy_drops"
    );
    for s in shards {
        println!(
            "  {:<6} {:>9} {:>10} {:>14} {:>9} {:>11}",
            s.shard,
            s.sessions,
            s.sessions_total,
            s.events_routed,
            s.queue_high_water,
            s.busy_dropped,
        );
    }
}

/// The report's scenario label; a `--config` run carries the default
/// profile's name.
fn scenario_name(args: &Args) -> &'static str {
    match args.scenario.profile() {
        Some("quick") => "quick-synthetic",
        Some("full-scale") => "full-scale-synthetic",
        Some(name) => name,
        None => "synthetic",
    }
}

/// Local batch ground truth for one session seed: canonical run text and
/// the finish digest.
fn local_truth(instance: &com_sim::Instance, matcher_spec: &str, seed: u64) -> (String, String) {
    let registry = MatcherRegistry::builtin();
    let factory = registry
        .resolve(matcher_spec)
        .unwrap_or_else(|e| exit_with(2, format!("matchload: {e}")));
    let mut matcher = factory();
    let batch = try_run_online(instance, matcher.as_mut(), seed);
    (
        canonical_text(&canonical_run_json(&batch)),
        canonical_run_digest(&batch),
    )
}

fn run(args: &Args, instance: &com_sim::Instance) {
    let options = DriveOptions {
        matcher: args.matcher.clone(),
        seed: args.seed,
        frame: args.frame,
        window: args.window,
        connections: args.connections,
        sessions: args.sessions,
    };
    let lanes = options.lanes(&args.addr, instance);
    let connections = args.connections.min(lanes.len());
    println!(
        "matchload: {} events ({} requests, {} workers) x {} sessions over {} connections \
         -> {} [{}, seed {}, frame {}, window {}]",
        instance.stream.len(),
        instance.request_count(),
        instance.worker_count(),
        lanes.len(),
        connections,
        args.addr,
        args.matcher,
        args.seed,
        args.frame,
        args.window,
    );
    let report = drive(&lanes, instance, options.window)
        .unwrap_or_else(|e| exit_with(1, format!("matchload: replay failed: {e}")));

    let h = &report.request_rtt_ns;
    println!(
        "served {} events across {} sessions in {:.2}s — {:.0} events/s, {} busy",
        report.events,
        report.lanes.len(),
        report.wall_secs,
        report.events_per_sec(),
        report.busy,
    );
    println!(
        "request rtt: p50 {:.1}us  p95 {:.1}us  p99 {:.1}us  mean {:.1}us",
        us(h.p50()),
        us(h.quantile(0.95)),
        us(h.p99()),
        h.mean() / 1e3,
    );
    for (k, s) in report.lanes.iter().enumerate() {
        println!(
            "  session {k} (conn {}, seed {}): {} assigned, {} rejected, {} timed out, \
             revenue {:.1}, cooperative {}, {} audit findings",
            s.conn,
            s.seed,
            s.assigned,
            s.rejected,
            s.refused,
            s.bye.revenue,
            s.bye.cooperative,
            s.bye.audit_findings.len(),
        );
        for finding in &s.bye.audit_findings {
            eprintln!("    audit: {finding}");
        }
    }
    // The first session's snapshot: its phase table, plus the sharded
    // server's per-shard rows.
    let deep = report.lanes[0].deep_stats.as_ref();
    if let Some(deep) = deep {
        if !deep.shards.is_empty() {
            print_shard_table(&deep.shards);
        }
        print_phase_table(deep);
    }

    if let Some(path) = &args.json_out {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let baseline = args.baseline.as_ref().map(|p| read_baseline(p));
        let per_session: Vec<serde_json::Value> = report
            .lanes
            .iter()
            .map(|s| {
                serde_json::json!({
                    "sid": s.sid,
                    "connection": s.conn,
                    "seed": s.seed,
                    "assigned": s.assigned,
                    "rejected": s.rejected,
                    "refused": s.refused,
                    "revenue": s.bye.revenue,
                    "audit_findings": s.bye.audit_findings.len(),
                    "digest": s.bye.digest.clone(),
                })
            })
            .collect();
        let json = serde_json::json!({
            "scenario": scenario_name(args),
            "matcher": args.matcher,
            "base_seed": args.seed,
            "connections": connections,
            "sessions": report.lanes.len(),
            "requests": instance.request_count(),
            "workers": instance.worker_count(),
            "events": report.events,
            "frame": args.frame.as_str(),
            "window": args.window,
            "wall_secs": report.wall_secs,
            "events_per_sec": report.events_per_sec(),
            "latency_us": serde_json::json!({
                "p50": us(h.p50()),
                "p95": us(h.quantile(0.95)),
                "p99": us(h.p99()),
                "mean": h.mean() / 1e3,
            }),
            "busy": report.busy,
            "busy_dropped": deep.map(|d| d.busy_dropped),
            "queue_high_water": deep.map(|d| d.queue_high_water),
            "per_session": per_session,
            "server_shards": deep
                .map(|d| serde_json::to_value(&d.shards).expect("serialise shards"))
                .unwrap_or_else(|| serde_json::Value::array(Vec::new())),
            "server_phases": deep
                .map(|d| serde_json::to_value(&d.phases).expect("serialise phases"))
                .unwrap_or_else(|| serde_json::Value::array(Vec::new())),
            "host_cores": cores,
            "note": "one single-threaded client over loopback; every session \
                     replays the same instance with seed base+sid; window 1 = \
                     synchronous request-response, window > 1 pipelines with \
                     batched writes; latency runs from the flush that wrote a \
                     request to its response and includes both protocol ends \
                     plus the decision itself; client and server share the \
                     listed cores, so throughput is a protocol-overhead floor, \
                     not a capacity ceiling",
            // The before-run report (`--baseline`), or null: one file
            // carries the before/after comparison.
            "baseline": baseline,
        });
        write_json(path, &json);
    }

    if args.strict {
        let mut failures = Vec::new();
        if report.busy > 0 {
            failures.push(format!("{} busy (dropped message) event(s)", report.busy));
        }
        // The ground truth: each session's instance, matcher, and seed
        // through the local batch engine must match the served run byte
        // for byte in the canonical projection.
        for (k, s) in report.lanes.iter().enumerate() {
            if !s.bye.audit_findings.is_empty() {
                failures.push(format!(
                    "session {k}: {} audit finding(s)",
                    s.bye.audit_findings.len()
                ));
            }
            let (local, digest) = local_truth(instance, &args.matcher, s.seed);
            let served = canonical_text(&s.bye.canonical);
            if local != served {
                failures.push(format!(
                    "session {k}: served canonical run differs from local batch run"
                ));
                eprintln!("local:  {local}");
                eprintln!("served: {served}");
            }
            if !s.bye.digest.is_empty() && s.bye.digest != digest {
                failures.push(format!(
                    "session {k}: served digest {} != local {digest}",
                    s.bye.digest
                ));
            }
        }
        if !failures.is_empty() {
            eprintln!("matchload: --strict failed: {}", failures.join("; "));
            std::process::exit(1);
        }
        println!(
            "strict: all {} served sessions match their local batch runs exactly \
             (canonical JSON and digest); audit clean",
            report.lanes.len()
        );
    }
}

fn read_baseline(path: &str) -> serde_json::Value {
    let text = fs::read_to_string(path)
        .unwrap_or_else(|e| exit_with(2, format!("cannot read baseline {path}: {e}")));
    serde_json::from_str::<serde_json::Value>(&text)
        .unwrap_or_else(|e| exit_with(2, format!("cannot parse baseline {path}: {e}")))
}

fn write_json(path: &str, json: &serde_json::Value) {
    fs::write(
        path,
        serde_json::to_string_pretty(json).expect("serialise report"),
    )
    .unwrap_or_else(|e| exit_with(1, format!("cannot write {path}: {e}")));
    println!("report written to {path}");
}

fn main() {
    let args = parse_args();
    let instance = generate(&args.scenario.load());
    run(&args, &instance);
}
