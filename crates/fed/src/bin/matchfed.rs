//! `matchfed` — the federated loopback driver and byte-identity
//! verifier.
//!
//! Runs one `com-datagen` scenario through TWO federated `matchd`
//! daemons — each owning one platform, joined by the inter-daemon
//! outsourcing protocol — and verifies the federated outcome against a
//! local single-process batch run of the same instance and seed:
//! canonical runs, digests, per-platform projections, merged slices,
//! ledgers, audits, and zero degraded offers.
//!
//! ```text
//! matchfed --quick --strict                      # in-process pair
//! matchfed --quick --addr-file-a a.addr \
//!          --addr-file-b b.addr --strict         # two external matchd
//! ```
//!
//! Flags:
//!
//! * `--quick` — small synthetic scenario (400 requests, 120 workers);
//!   the default.
//! * `--full-scale` — the full-scale city scenario (4000 requests, 1200
//!   workers). At most one of the two.
//! * `--matcher <spec>` / `--seed <n>` — matcher and seed (both the
//!   daemons and the local reference use them).
//! * `--frame ndjson|binary` — wire framing for the client links (the
//!   peer links follow the session's framing).
//! * `--addr-a`, `--addr-b` — two external daemons instead of the
//!   in-process pair; `--addr-file-a` / `--addr-file-b` poll a
//!   `matchd --addr-file` drop instead (CI orchestration).
//! * `--deadline-ms <n>` — per-offer deadline.
//! * `--strict` — exit non-zero if any byte-identity invariant fails.
//! * `--json <path>` — write the machine-readable report.

use std::fs;
use std::time::{Duration, Instant};

use com_datagen::cli::{exit_with, Cli, ScenarioArg, FULL_SCALE, QUICK};
use com_datagen::generate;
use com_fed::{pair_lanes, verify, FedOptions, FedReport, LoopbackPair};
use com_serve::{drive, ServerConfig, WireFormat};

const USAGE: &str = "usage: matchfed [--quick | --full-scale] [--matcher SPEC] [--seed N]\n\
     \x20               [--frame ndjson|binary] [--deadline-ms N] [--strict]\n\
     \x20               [--json PATH]\n\
     \x20               [--addr-a HOST:PORT --addr-b HOST:PORT]\n\
     \x20               [--addr-file-a PATH --addr-file-b PATH]";

struct Args {
    scenario: ScenarioArg,
    matcher: String,
    seed: u64,
    frame: WireFormat,
    deadline_ms: u64,
    strict: bool,
    json_out: Option<String>,
    addr_a: Option<String>,
    addr_b: Option<String>,
    addr_file_a: Option<String>,
    addr_file_b: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        // --quick and the default are the same small scenario.
        scenario: ScenarioArg::new(&[QUICK, FULL_SCALE], "quick"),
        matcher: "demcom".into(),
        seed: 42,
        frame: WireFormat::Ndjson,
        deadline_ms: com_serve::DEFAULT_OFFER_DEADLINE_MS,
        strict: false,
        json_out: None,
        addr_a: None,
        addr_b: None,
        addr_file_a: None,
        addr_file_b: None,
    };
    let mut cli = Cli::new(USAGE);
    while let Some(flag) = cli.next() {
        match flag.as_str() {
            _ if args.scenario.read(&flag, &mut cli) => {}
            "--matcher" => args.matcher = cli.value(&flag),
            "--seed" => args.seed = cli.parse(&flag),
            "--frame" => {
                args.frame = WireFormat::parse(&cli.value(&flag))
                    .unwrap_or_else(|| cli.fail("--frame must be ndjson or binary"))
            }
            "--deadline-ms" => args.deadline_ms = cli.parse(&flag),
            "--strict" => args.strict = true,
            "--json" => args.json_out = Some(cli.value(&flag)),
            "--addr-a" => args.addr_a = Some(cli.value(&flag)),
            "--addr-b" => args.addr_b = Some(cli.value(&flag)),
            "--addr-file-a" => args.addr_file_a = Some(cli.value(&flag)),
            "--addr-file-b" => args.addr_file_b = Some(cli.value(&flag)),
            _ => cli.unknown(&flag),
        }
    }
    let external_a = args.addr_a.is_some() || args.addr_file_a.is_some();
    let external_b = args.addr_b.is_some() || args.addr_file_b.is_some();
    if external_a != external_b {
        cli.fail("provide both daemon addresses or neither")
    }
    args
}

/// Poll a `matchd --addr-file` drop until it holds an address (the
/// daemon writes it atomically once the listener is live).
fn wait_addr_file(path: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(text) = fs::read_to_string(path) {
            let addr = text.trim();
            if !addr.is_empty() {
                return addr.to_string();
            }
        }
        if Instant::now() >= deadline {
            exit_with(2, format!("no address appeared in {path} within 10s"));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn report_json(
    scenario: &str,
    args: &Args,
    report: &FedReport,
    failures: &[String],
) -> serde_json::Value {
    let daemons: Vec<serde_json::Value> = report
        .daemons
        .iter()
        .map(|d| {
            let fed = d.bye.fed.as_ref();
            let stats = d.deep_stats.as_ref().and_then(|s| s.federation.as_ref());
            let offer_phase = d
                .deep_stats
                .as_ref()
                .and_then(|s| s.phases.iter().find(|p| p.phase == "fed-offer"));
            serde_json::json!({
                "platform": d.platform,
                "revenue": fed.map(|f| f.ledger.revenue),
                "outsource_paid": fed.map(|f| f.ledger.outsource_paid),
                "outsource_earned": fed.map(|f| f.ledger.outsource_earned),
                "degraded_offers": fed.map(|f| f.degraded_offers),
                "digest": fed.map(|f| f.digest.clone()),
                "offers_sent": stats.map(|s| s.offers_sent),
                "offers_accepted": stats.map(|s| s.offers_accepted),
                "lends_granted": stats.map(|s| s.lends_granted),
                "offer_rtt_p50_us": offer_phase.map(|p| p.p50_ns as f64 / 1e3),
                "offer_rtt_p99_us": offer_phase.map(|p| p.p99_ns as f64 / 1e3),
            })
        })
        .collect();
    serde_json::json!({
        "scenario": scenario,
        "matcher": args.matcher,
        "seed": args.seed,
        "frame": args.frame.as_str(),
        "events": report.events,
        "events_per_sec": report.events_per_sec(),
        "daemons": daemons,
        "verified": failures.is_empty(),
        "failures": failures,
    })
}

fn main() {
    let args = parse_args();
    let scenario_name = args.scenario.profile().expect("matchfed takes no --config");
    let instance = generate(&args.scenario.load());
    let options = FedOptions {
        matcher: args.matcher.clone(),
        seed: args.seed,
        frame: args.frame,
        deadline_ms: args.deadline_ms,
        fed_sid: 1,
    };

    // Resolve the daemon pair: external addresses, addr-file drops, or a
    // fresh in-process pair.
    let external_a = args
        .addr_a
        .clone()
        .or_else(|| args.addr_file_a.as_deref().map(wait_addr_file));
    let external_b = args
        .addr_b
        .clone()
        .or_else(|| args.addr_file_b.as_deref().map(wait_addr_file));
    let (pair, addr_a, addr_b) = match (external_a, external_b) {
        (Some(a), Some(b)) => (None, a, b),
        _ => {
            let pair = LoopbackPair::start(&ServerConfig::default())
                .unwrap_or_else(|e| exit_with(2, format!("cannot start in-process pair: {e}")));
            let (a, b) = (pair.addr_a(), pair.addr_b());
            (Some(pair), a, b)
        }
    };

    let report = pair_lanes(&addr_a, &addr_b, &instance, &options)
        .and_then(|lanes| drive(&lanes, &instance, 1))
        .map(FedReport::from_drive)
        .unwrap_or_else(|e| exit_with(1, format!("federated drive failed: {e}")));
    let failures = verify(&instance, &report, &options);
    if let Some(pair) = pair {
        pair.shutdown();
    }

    println!(
        "matchfed {scenario_name}: {} events through 2 daemons in {:.2}s ({:.0} events/s, frame={})",
        report.events,
        report.wall_secs,
        report.events_per_sec(),
        args.frame.as_str(),
    );
    for d in &report.daemons {
        let fed = d.bye.fed.as_ref();
        let stats = d.deep_stats.as_ref().and_then(|s| s.federation.as_ref());
        println!(
            "  platform {}: revenue {:.2}  paid {:.2}  earned {:.2}  offers {}→{} accepted  lent {}  degraded {}  digest {}",
            d.platform,
            fed.map(|f| f.ledger.revenue).unwrap_or(f64::NAN),
            fed.map(|f| f.ledger.outsource_paid).unwrap_or(f64::NAN),
            fed.map(|f| f.ledger.outsource_earned).unwrap_or(f64::NAN),
            stats.map(|s| s.offers_sent).unwrap_or(0),
            stats.map(|s| s.offers_accepted).unwrap_or(0),
            stats.map(|s| s.lends_granted).unwrap_or(0),
            fed.map(|f| f.degraded_offers).unwrap_or(0),
            fed.map(|f| f.digest.as_str()).unwrap_or("-"),
        );
    }
    if failures.is_empty() {
        println!("  verified: federated run is byte-identical to the single-process run");
    } else {
        println!("  VERIFICATION FAILED:");
        for f in &failures {
            println!("    - {f}");
        }
    }

    if let Some(path) = &args.json_out {
        let value = report_json(scenario_name, &args, &report, &failures);
        let text = serde_json::to_string(&value).expect("report serializes");
        fs::write(path, text).unwrap_or_else(|e| exit_with(1, format!("cannot write {path}: {e}")));
    }
    if args.strict && !failures.is_empty() {
        std::process::exit(1);
    }
}
