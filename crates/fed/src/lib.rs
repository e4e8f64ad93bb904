//! # com-fed
//!
//! Federated serving: runs one scenario through **two**
//! `matchd` daemons — each owning one platform, joined by the
//! inter-daemon outsourcing protocol (`outsource_offer` /
//! `outsource_accept` / `outsource_reject`) — and proves the federated
//! outcome is *byte-identical* to a single-process session over the same
//! instance and seed.
//!
//! ## The deterministic-replica federation model
//!
//! Both daemons receive the **full** event stream (every worker, every
//! request) and run the same matcher with the same seed, so their
//! replicas take identical decisions. Ownership (`hello.fed.platform`)
//! only changes *accountability*: a daemon's outer decision on a request
//! it owns must be confirmed by the rival daemon over the wire before it
//! is applied; a decision on a request it does not own is applied
//! immediately and, when it lends one of the daemon's own workers,
//! recorded so the inbound offer can be validated against the local
//! replica (the lender re-proves `v' ∈ (0, v_r]`, Definition 2.3).
//!
//! ## The non-owner-first driving rule
//!
//! The pair is driven by `com_serve::drive` over [`pair_lanes`]: one lane
//! per daemon, at window 1. For every request the driver sends the event
//! **first to the daemon that does not own it**, then to the owner. By
//! the time the owner's replica decides to outsource and its offer
//! crosses the wire, the lender has already processed the same event and
//! holds the matching lendable entry — an offer can never arrive ahead
//! of the event that justifies it (offer-before-event is a `desync`
//! reject by design). Lockstep driving (one outstanding event) also makes the
//! offer round-trip deadlock-free: while the owner blocks inside its
//! decision, the lender's shard is idle and answers immediately.
//!
//! ## What "verified" means
//!
//! [`verify`] replays the instance through the local batch engine
//! (`try_run_online`, same matcher and seed) and checks, per daemon:
//! full-replica canonical run and digest equal to the reference; the
//! `bye.fed` projection equal to [`com_core::project_platform_run`] of
//! the reference; [`com_core::merge_platform_runs`] over the two owned
//! projections rebuilding the reference byte-for-byte; the reported
//! [`com_sim::PlatformLedger`] agreeing with locally-derived books; the
//! server-side audit silent; the projected-instance audit silent; and
//! zero degraded offers. Any live per-request divergence between the two
//! daemons' answers ([`FedReport::from_drive`]) fails it too.

use std::io;

use com_core::identity::{
    canonical_assignment_json, canonical_run_digest, canonical_run_json, canonical_text,
};
use com_core::{
    merge_platform_runs, project_platform_instance, project_platform_run, try_run_online,
    MatcherRegistry, RunResult,
};
use com_serve::{
    drive, serve, session_hello, ByeMsg, DeepStatsMsg, DriveReport, FedHello, Lane, ServerConfig,
    ServerHandle, WireFormat, DEFAULT_OFFER_DEADLINE_MS,
};
use com_sim::{Instance, PlatformId, PlatformLedger};

/// How to drive the federated pair.
#[derive(Debug, Clone)]
pub struct FedOptions {
    /// Matcher spec string (see `com_core::MatcherRegistry`).
    pub matcher: String,
    pub seed: u64,
    /// Wire framing for *both* client links and (echoed into
    /// `hello.fed.frame`) the inter-daemon peer links.
    pub frame: WireFormat,
    /// Per-offer deadline in milliseconds.
    pub deadline_ms: u64,
    /// Cross-daemon session binding stamped on every offer.
    pub fed_sid: u64,
}

impl Default for FedOptions {
    fn default() -> Self {
        FedOptions {
            matcher: "demcom".into(),
            seed: 42,
            frame: WireFormat::Ndjson,
            deadline_ms: DEFAULT_OFFER_DEADLINE_MS,
            fed_sid: 1,
        }
    }
}

/// One daemon's half of the run.
#[derive(Debug)]
pub struct DaemonReport {
    /// The platform this daemon owned.
    pub platform: u16,
    /// Final session report (`bye`), `fed` half included.
    pub bye: ByeMsg,
    /// Deep telemetry snapshot taken just before shutdown. Carries the
    /// `fed-offer`/`fed-lend` phase rows and the federation counters.
    pub deep_stats: Option<DeepStatsMsg>,
}

/// What a federated drive produced.
#[derive(Debug)]
pub struct FedReport {
    /// Events streamed (each goes to both daemons).
    pub events: usize,
    /// Event-streaming wall time, teardown excluded (both daemons
    /// answered every event).
    pub wall_secs: f64,
    /// Requests whose two answers (owner vs non-owner daemon) diverged
    /// in their canonical projection — live desync, fatal for identity.
    pub divergent_responses: Vec<String>,
    /// Daemon halves, index = owned platform.
    pub daemons: Vec<DaemonReport>,
}

impl FedReport {
    /// Events per wall-clock second over the drive (each event counted
    /// once even though it is sent to both daemons).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.events as f64 / self.wall_secs
    }

    /// Assemble the report from a drive over [`pair_lanes`]: lane *p* is
    /// the daemon owning platform *p*, and a request whose two decisions
    /// differ in [`canonical_assignment_json`] is a live divergence.
    pub fn from_drive(drive: DriveReport) -> FedReport {
        let events = drive.events / drive.lanes.len().max(1);
        let mut divergent_responses = Vec::new();
        if let [a, b] = &drive.lanes[..] {
            for (x, y) in a.decisions.iter().zip(&b.decisions) {
                if canonical_assignment_json(x) != canonical_assignment_json(y) {
                    let (owner, non_owner) = if x.request.platform == PlatformId(0) {
                        (x, y)
                    } else {
                        (y, x)
                    };
                    divergent_responses.push(format!(
                        "request {}: owner decided {:?} but non-owner decided {:?}",
                        x.request.id.0, owner.kind, non_owner.kind
                    ));
                }
            }
        }
        FedReport {
            events,
            wall_secs: drive.wall_secs,
            divergent_responses,
            daemons: drive
                .lanes
                .into_iter()
                .zip(0u16..)
                .map(|(lane, platform)| DaemonReport {
                    platform,
                    bye: lane.bye,
                    deep_stats: lane.deep_stats,
                })
                .collect(),
        }
    }
}

fn bad_data(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

/// The lane for the daemon at `addr` (connection `conn`) owning
/// `platform`. `peer` is whatever the daemon should dial to confirm its
/// outsourcing offers: the rival daemon, or `None` for lend-only mode,
/// in which every outer decision on an owned request degrades to a
/// cooperative reject.
pub fn fed_lane(
    addr: &str,
    conn: usize,
    platform: u16,
    peer: Option<String>,
    instance: &Instance,
    options: &FedOptions,
) -> Lane {
    let mut hello = session_hello(instance, &options.matcher, options.seed, options.frame);
    hello.fed = Some(FedHello {
        platform,
        fed_sid: options.fed_sid,
        peer,
        deadline_ms: Some(options.deadline_ms),
    });
    Lane {
        addr: addr.to_string(),
        conn,
        sid: None,
        hello,
    }
}

/// The two lanes of a federated pair: `addr_a` owns platform 0 and
/// `addr_b` platform 1, each handed the other as its peer link, so the
/// pair negotiates real wire offers in both directions. Drive them with
/// `com_serve::drive` at window 1. The instance must name exactly two
/// platforms.
pub fn pair_lanes(
    addr_a: &str,
    addr_b: &str,
    instance: &Instance,
    options: &FedOptions,
) -> io::Result<Vec<Lane>> {
    if instance.platform_names.len() != 2 {
        return Err(bad_data(format!(
            "federation needs exactly 2 platforms, instance has {}",
            instance.platform_names.len()
        )));
    }
    Ok(vec![
        fed_lane(addr_a, 0, 0, Some(addr_b.to_string()), instance, options),
        fed_lane(addr_b, 1, 1, Some(addr_a.to_string()), instance, options),
    ])
}

fn reference_run(instance: &Instance, options: &FedOptions) -> Result<RunResult, String> {
    let registry = MatcherRegistry::builtin();
    let factory = registry
        .resolve(&options.matcher)
        .map_err(|e| format!("unknown matcher {}: {e:?}", options.matcher))?;
    let mut matcher = factory();
    Ok(try_run_online(instance, matcher.as_mut(), options.seed))
}

/// Verify a federated drive against a local single-process replay of the
/// same instance and seed. Returns the list of violated invariants —
/// empty means the federated pair is byte-identical to the reference
/// and every paper invariant re-proves on each platform's slice.
pub fn verify(instance: &Instance, report: &FedReport, options: &FedOptions) -> Vec<String> {
    let mut failures = Vec::new();
    for d in &report.divergent_responses {
        failures.push(format!("live divergence: {d}"));
    }
    let reference = match reference_run(instance, options) {
        Ok(run) => run,
        Err(e) => {
            failures.push(e);
            return failures;
        }
    };
    let reference_canonical = canonical_text(&canonical_run_json(&reference));

    let mut projections = Vec::new();
    for daemon in &report.daemons {
        let p = PlatformId(daemon.platform);
        let tag = format!("platform {}", daemon.platform);
        // Full replica: the served run IS the batch run, byte for byte.
        let served = canonical_text(&daemon.bye.canonical);
        if served != reference_canonical {
            failures.push(format!(
                "{tag}: full-replica canonical differs from reference"
            ));
        }
        if !daemon.bye.audit_findings.is_empty() {
            failures.push(format!(
                "{tag}: server-side audit found {:?}",
                daemon.bye.audit_findings
            ));
        }
        // Owned-slice projection: canonical, digest, ledger, degradation.
        let projection = project_platform_run(&reference, p);
        match &daemon.bye.fed {
            None => failures.push(format!("{tag}: bye carries no fed half")),
            Some(fed) => {
                if fed.platform != daemon.platform {
                    failures.push(format!("{tag}: fed half claims platform {}", fed.platform));
                }
                if canonical_text(&fed.canonical)
                    != canonical_text(&canonical_run_json(&projection))
                {
                    failures.push(format!("{tag}: projected canonical differs from reference"));
                }
                if fed.digest != canonical_run_digest(&projection) {
                    failures.push(format!(
                        "{tag}: projected digest {} != locally derived {}",
                        fed.digest,
                        canonical_run_digest(&projection)
                    ));
                }
                let books = PlatformLedger::for_platform(p, &reference.assignments);
                if !fed.ledger.agrees_with(&books) {
                    failures.push(format!(
                        "{tag}: reported ledger {:?} disagrees with local books {:?}",
                        fed.ledger, books
                    ));
                }
                if fed.degraded_offers != 0 {
                    failures.push(format!(
                        "{tag}: {} offers degraded to cooperative rejects",
                        fed.degraded_offers
                    ));
                }
            }
        }
        // The per-platform slice re-proves every invariant it can see —
        // the Definition 2.3/2.4 rules the paper's payment bound rides
        // on. (Position continuity is audited on the full-replica log,
        // byte-compared to the reference above.)
        let slice_instance = project_platform_instance(instance, p);
        let findings = com_core::validate_platform_slice(&slice_instance, &projection, p);
        if !findings.is_empty() {
            failures.push(format!("{tag}: slice audit found {findings:?}"));
        }
        projections.push((p, projection));
    }

    // Merging the two owned slices rebuilds the reference run exactly.
    // (Each daemon's projection was byte-compared against the local one
    // above, so this is transitively a merge of the daemons' logs.)
    let parts: Vec<(PlatformId, &RunResult)> = projections.iter().map(|(p, r)| (*p, r)).collect();
    match merge_platform_runs(instance, &parts) {
        Err(e) => failures.push(format!("merge failed: {e}")),
        Ok(merged) => {
            if canonical_text(&canonical_run_json(&merged)) != reference_canonical {
                failures.push("merged platform slices differ from reference run".into());
            }
        }
    }
    failures
}

/// A federated daemon pair running in-process on ephemeral ports — the
/// loopback harness behind `matchfed` (no `--addr`) and the tests.
pub struct LoopbackPair {
    pub a: ServerHandle,
    pub b: ServerHandle,
}

impl LoopbackPair {
    /// Start two daemons with the given per-daemon config template (the
    /// bind address is overridden to an ephemeral port).
    pub fn start(template: &ServerConfig) -> io::Result<LoopbackPair> {
        let mut config = template.clone();
        config.addr = "127.0.0.1:0".into();
        let a = serve(config.clone())?;
        let b = serve(config)?;
        Ok(LoopbackPair { a, b })
    }

    pub fn addr_a(&self) -> String {
        self.a.addr().to_string()
    }

    pub fn addr_b(&self) -> String {
        self.b.addr().to_string()
    }

    /// Shut both daemons down, joining every thread.
    pub fn shutdown(self) {
        self.a.shutdown();
        self.b.shutdown();
    }
}

/// Drive + verify through a fresh in-process pair: the one-call harness.
/// Returns the drive report and the (empty when byte-identical) list of
/// violated invariants.
pub fn run_loopback(
    instance: &Instance,
    options: &FedOptions,
) -> io::Result<(FedReport, Vec<String>)> {
    let pair = LoopbackPair::start(&ServerConfig::default())?;
    let lanes = pair_lanes(&pair.addr_a(), &pair.addr_b(), instance, options)?;
    let report = FedReport::from_drive(drive(&lanes, instance, 1)?);
    let failures = verify(instance, &report, options);
    pair.shutdown();
    Ok((report, failures))
}
