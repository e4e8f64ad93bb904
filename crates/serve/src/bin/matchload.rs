//! `matchload` — scenario replay client and load generator for `matchd`.
//!
//! ```text
//! cargo run -p com-serve --release --bin matchload -- \
//!     --addr HOST:PORT \
//!     [--profile chengdu-oct|chengdu-nov|xian-nov|synthetic | --config FILE] \
//!     [--quick] [--full-scale] [--matcher SPEC] [--seed N] \
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
//! * `--quick` — a small synthetic scenario (400 requests, 120 workers)
//!   regardless of profile; what CI's serve-smoke job runs.
//! * `--full-scale` — the full-scale city scenario (4000 requests, 1200
//!   workers — 10× quick); the paper-scale serving experiment.
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
use com_datagen::{
    chengdu_nov, chengdu_oct, generate, synthetic, xian_nov, ScenarioConfig, SyntheticParams,
};
use com_serve::{drive, DeepStatsMsg, DriveOptions, ShardRow, WireFormat};

struct Args {
    addr: String,
    profile: String,
    config: Option<String>,
    quick: bool,
    full_scale: bool,
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

fn usage() -> ! {
    eprintln!(
        "usage: matchload --addr HOST:PORT [--profile NAME | --config FILE] \
         [--quick] [--full-scale] [--matcher SPEC] [--seed N] \
         [--frame ndjson|binary] [--window N] [--connections M] \
         [--sessions K] [--json FILE] [--baseline FILE] [--strict]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: String::new(),
        profile: "synthetic".into(),
        config: None,
        quick: false,
        full_scale: false,
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
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut next = |flag: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => args.addr = next("--addr"),
            "--profile" => args.profile = next("--profile"),
            "--config" => args.config = Some(next("--config")),
            "--quick" => args.quick = true,
            "--full-scale" => args.full_scale = true,
            "--matcher" => args.matcher = next("--matcher"),
            "--seed" => {
                args.seed = next("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("--seed must be an integer");
                    usage()
                })
            }
            "--frame" => {
                let token = next("--frame");
                args.frame = WireFormat::parse(&token).unwrap_or_else(|| {
                    eprintln!("--frame must be ndjson or binary");
                    usage()
                })
            }
            "--window" => {
                args.window = next("--window").parse().unwrap_or_else(|_| {
                    eprintln!("--window must be a positive integer");
                    usage()
                });
                if args.window == 0 {
                    eprintln!("--window must be a positive integer");
                    usage()
                }
            }
            "--connections" => {
                args.connections = next("--connections").parse().unwrap_or_else(|_| {
                    eprintln!("--connections must be a positive integer");
                    usage()
                });
                if args.connections == 0 {
                    eprintln!("--connections must be a positive integer");
                    usage()
                }
            }
            "--sessions" => {
                args.sessions = next("--sessions").parse().unwrap_or_else(|_| {
                    eprintln!("--sessions must be a positive integer");
                    usage()
                });
                if args.sessions == 0 {
                    eprintln!("--sessions must be a positive integer");
                    usage()
                }
            }
            "--json" => args.json_out = Some(next("--json")),
            "--baseline" => args.baseline = Some(next("--baseline")),
            "--strict" => args.strict = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if args.addr.is_empty() {
        eprintln!("--addr is required");
        usage()
    }
    args
}

fn load_scenario(args: &Args) -> ScenarioConfig {
    if args.quick {
        return synthetic(SyntheticParams {
            n_requests: 400,
            n_workers: 120,
            ..SyntheticParams::default()
        });
    }
    if args.full_scale {
        // 10× quick: the paper-scale full city run.
        return synthetic(SyntheticParams {
            n_requests: 4000,
            n_workers: 1200,
            ..SyntheticParams::default()
        });
    }
    if let Some(path) = &args.config {
        let text = fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2)
        });
        return serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2)
        });
    }
    match args.profile.as_str() {
        "chengdu-oct" => chengdu_oct(),
        "chengdu-nov" => chengdu_nov(),
        "xian-nov" => xian_nov(),
        "synthetic" => synthetic(SyntheticParams::default()),
        other => {
            eprintln!("unknown profile {other}");
            usage()
        }
    }
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

fn scenario_name(args: &Args) -> String {
    if args.quick {
        "quick-synthetic".to_string()
    } else if args.full_scale {
        "full-scale-synthetic".to_string()
    } else {
        args.profile.clone()
    }
}

/// Local batch ground truth for one session seed: canonical run text and
/// the finish digest.
fn local_truth(instance: &com_sim::Instance, matcher_spec: &str, seed: u64) -> (String, String) {
    let registry = MatcherRegistry::builtin();
    let factory = registry.resolve(matcher_spec).unwrap_or_else(|e| {
        eprintln!("matchload: {e}");
        std::process::exit(2)
    });
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
    let report = drive(&lanes, instance, options.window).unwrap_or_else(|e| {
        eprintln!("matchload: replay failed: {e}");
        std::process::exit(1)
    });

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
    let text = fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {path}: {e}");
        std::process::exit(2)
    });
    serde_json::from_str::<serde_json::Value>(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse baseline {path}: {e}");
        std::process::exit(2)
    })
}

fn write_json(path: &str, json: &serde_json::Value) {
    fs::write(
        path,
        serde_json::to_string_pretty(json).expect("serialise report"),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1)
    });
    println!("report written to {path}");
}

fn main() {
    let args = parse_args();
    let scenario = load_scenario(&args);
    let instance = generate(&scenario);
    run(&args, &instance);
}
