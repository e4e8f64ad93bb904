//! What an untraced run and a traced run measure, metric by metric.

use std::time::Instant;

use com_core::{MatchSession, MatcherRegistry, SessionConfig};
use com_datagen::generate;
use com_serve::{
    client_frame_from_content, decode_client_frame, decode_payload, encode, encode_frame,
    ClientFrame, DeepStatsMsg, ShardRow, WireFormat,
};

use crate::drive::Pace;
use crate::host::undisturbed;
use crate::run::{repeat, FedExtras, Rig, Run, SATURATION_WINDOW, SETUP_REPS};
use crate::schedule::{ladder_rate, rung_at_or_below, search_ladder, sustained_rate};
use crate::spans::RUN_LEVEL;
use crate::stats::{median_window_p99, per_message_min, quantile, summarize, Summary};
use crate::workload::{event_messages, Shape};

/// The end-to-end metrics, with units; an untraced run emits exactly these.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_eps", "1/s"),
    ("latency_p50_us", "us"),
    ("sustained_eps", "1/s"),
    ("served_share", "share"),
    ("revenue", "value"),
    ("daemon_rss_mb", "MiB"),
];

/// The per-layer metrics, with units; a traced run emits exactly these.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("datagen.generate_ms", "ms"),
    ("core.ingest_p50_ns", "ns"),
    ("core.ingest_p99_ns", "ns"),
    ("core.events_per_s", "1/s"),
    ("decision.total_ms", "ms"),
    ("pricing.count", "count"),
    ("pricing.total_ms", "ms"),
    ("pricing.p99_ns", "ns"),
    ("mc.samples", "count"),
    ("mc.dichotomy_iters", "count"),
    ("pricing.candidates_evaluated", "count"),
    ("candidate-search.total_ms", "ms"),
    ("grid.cells_scanned", "count"),
    ("grid.candidates", "count"),
    ("world.approx_bytes", "bytes"),
    ("framing.bytes_per_event", "B/event"),
    ("framing.encode_ns", "ns"),
    ("framing.decode_ns", "ns"),
    ("decode.total_ms", "ms"),
    ("encode.total_ms", "ms"),
    ("ingest.total_ms", "ms"),
    ("flush.count", "count"),
    ("flush.total_ms", "ms"),
    ("events_per_flush", "count"),
    ("shard.queue_high_water", "count"),
    ("shard.busy_dropped", "count"),
    ("shard.routed_skew", "ratio"),
    ("driver.lag_p99_us", "us"),
    ("driver.send_ms", "ms"),
    ("driver.recv_wait_ms", "ms"),
    ("trace.bytes_per_event", "B/event"),
    ("trace.replay_events_per_s", "1/s"),
    ("fed-offer.count", "count"),
    ("fed-offer.p50_ns", "ns"),
    ("fed-offer.p99_ns", "ns"),
    ("fed-lend.total_ms", "ms"),
    ("fed.offers_timed_out", "count"),
    ("fed.offers_retried", "count"),
    ("fed.stale_replies", "count"),
    ("fed.degraded_offers", "count"),
    ("fed.verify_ms", "ms"),
    ("obs.overhead_share", "share"),
    ("reconcile.server_share", "share"),
    ("reconcile.unaccounted_share", "share"),
];

/// Metric values by name, plus the repeated samples behind the medians.
#[derive(Debug, Default)]
pub struct Measured {
    pub values: Vec<(&'static str, f64)>,
    pub samples: Vec<(&'static str, Summary)>,
    /// Per median: how many passes or windows were kept out of how many
    /// (the rest overlapped host steal).
    pub kept: Vec<(&'static str, usize, usize)>,
}

impl Measured {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Record repeated samples and set the metric to their median.
    fn median(&mut self, name: &'static str, raw: &[f64]) {
        let s = summarize(raw);
        self.set(name, s.median);
        self.samples.push((name, s));
    }

    /// Record repeated samples and set the metric to the highest.
    fn highest(&mut self, name: &'static str, raw: &[f64]) {
        let s = summarize(raw);
        self.set(name, raw.iter().copied().fold(f64::MIN, f64::max));
        self.samples.push((name, s));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The values of exactly `names`, in that order, or the names missing.
    pub fn select(
        &self,
        names: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, f64, &'static str)>, Vec<&'static str>> {
        let missing: Vec<&str> = names
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| self.get(n).is_none())
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        Ok(names
            .iter()
            .map(|&(n, u)| (n, self.get(n).expect("checked above"), u))
            .collect())
    }
}

fn closed(connections: usize) -> Vec<Pace<'static>> {
    vec![
        Pace::Closed {
            window: SATURATION_WINDOW
        };
        connections
    ]
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Set up `SETUP_REPS` times (keeping the last rig): the `setup_s` samples.
fn setups(run: &mut Run, telemetry: bool) -> Result<(Rig, Vec<f64>), String> {
    let mut samples = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let rig = run.setup(telemetry)?;
        samples.push((t.elapsed() - rig.pause).as_secs_f64());
        last = Some(rig);
    }
    Ok((last.expect("at least one set-up"), samples))
}

/// Passes the host stole time from are left out of a median while at
/// least this many undisturbed ones remain.
const MIN_PASSES: usize = 3;

/// Passes per ladder rung, judged by each message's fastest latency.
const RUNG_PASSES: usize = 3;

/// Ladder searches per run: more until [`SEARCH_UNTIL`] of `--seconds`
/// is spent, up to [`MAX_SEARCHES`]; at least one, and [`MIN_SEARCHES`]
/// unless they take `--seconds` together.
const MIN_SEARCHES: usize = 3;
const MAX_SEARCHES: usize = 9;
const SEARCH_UNTIL: f64 = 0.9;

/// `throughput_eps`: the median events/s of the undisturbed passes.
fn throughput_metric(m: &mut Measured, passes: &[(f64, bool)]) {
    let kept = undisturbed(passes, MIN_PASSES, |p| p.1);
    m.kept.push(("throughput_eps", kept.len(), passes.len()));
    m.median(
        "throughput_eps",
        &kept.iter().map(|p| p.0).collect::<Vec<_>>(),
    );
}

/// Passes behind the latency metrics: every message's fastest answer
/// over this many passes.
const LATENCY_PASSES: usize = 11;

/// `latency_p50_us`: the median over messages of each message's fastest
/// latency over [`LATENCY_PASSES`] passes, which all send the same
/// messages on the same schedule ([`per_message_min`]).
///
/// The p99 of the same latencies, `latency_p99_us`, is printed beside
/// the result but is not an end-to-end metric: it sits among the few
/// hundred messages queued behind the program's slowest decisions, whose
/// length follows the host's speed: on a shared 2-vCPU host its quartile
/// distance over ten seeds was 0.16 of its median in quiet hours and up
/// to 0.8 in noisy ones, against the largest bound a metric may carry,
/// 0.25.
/// Each pass's own p50 and p99 are its raw samples.
fn latency_metrics(m: &mut Measured, passes: &[Vec<u64>]) {
    let passes = &passes[..passes.len().min(LATENCY_PASSES)];
    let us = |lat: &[u64], q: f64| quantile(lat, q) as f64 / 1e3;
    let lat = per_message_min(passes);
    m.set("latency_p50_us", us(&lat, 0.5));
    m.set("latency_p99_us", us(&lat, 0.99));
    let pass = |q: f64| summarize(&passes.iter().map(|p| us(p, q)).collect::<Vec<_>>());
    m.samples.push(("pass.latency_p50_us", pass(0.5)));
    m.samples.push(("pass.latency_p99_us", pass(0.99)));
}

fn log_rung(workload: &str, rate: f64, p99_ns: u64, holds: bool) {
    eprintln!(
        "{workload}: rung {rate:.0}/s window p99 {:.0}us {}",
        p99_ns as f64 / 1e3,
        if holds { "holds" } else { "fails" }
    );
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(run: &mut Run) -> Result<Measured, String> {
    let w = run.w;
    let mut m = Measured::default();
    let (mut rig, setup) = setups(run, false)?;
    m.median("setup_s", &setup);
    run.prepare(&mut rig)?;
    let since = Instant::now();
    match w.shape {
        Shape::Served => {
            let warm = run.served_pass(&mut rig, &closed(w.connections), false)?;
            m.set("revenue", warm.byes.iter().map(|b| b.revenue).sum());
            let sat = repeat(run, since, 0.2, 3, 30, |run| {
                let p = run.served_pass(&mut rig, &closed(w.connections), false)?;
                Ok((p.events_per_s(), p.stolen()))
            })?;
            throughput_metric(&mut m, &sat);
            let nominal_rate = w.nominal_rate.expect("served workloads run open loop");
            let dues = run.dues(&rig, nominal_rate);
            let paces = Run::open_paces(&dues);
            let nominal = repeat(run, since, 0.0, LATENCY_PASSES, LATENCY_PASSES, |run| {
                Ok(run.served_pass(&mut rig, &paces, false)?.latencies())
            })?;
            latency_metrics(&mut m, &nominal);
            // Repeated searches, each starting where the last one ended.
            // `sustained_eps` is the highest rung any of them saw hold:
            // host stalls only ever make a rung fail, so a search they
            // sent astray does not lower it.
            let searching = Instant::now();
            let mut start = rung_at_or_below(3.0 * nominal_rate);
            let mut found = Vec::new();
            while found.len() < MAX_SEARCHES
                && (found.is_empty()
                    || secs(since) < SEARCH_UNTIL * run.seconds
                    || (found.len() < MIN_SEARCHES && secs(searching) < run.seconds))
            {
                let sustained = search_ladder(start, |rung| {
                    // Low rungs take long passes; a daemon slow enough to walk
                    // far down the ladder fails the run rather than overrun it.
                    if secs(searching) > 2.0 * run.seconds {
                        return Err("ladder searches ran over twice --seconds".into());
                    }
                    let rate = ladder_rate(rung);
                    let dues = run.dues(&rig, rate);
                    let paces = Run::open_paces(&dues);
                    let passes = (0..RUNG_PASSES)
                        .map(|_| Ok(run.served_pass(&mut rig, &paces, false)?.latencies()))
                        .collect::<Result<Vec<_>, String>>()?;
                    let p99 = median_window_p99(&per_message_min(&passes));
                    let holds = Run::rung_holds(p99);
                    log_rung(w.name, rate, p99, holds);
                    Ok(holds)
                })?;
                found.push(sustained_rate(sustained));
                start = sustained.unwrap_or(0);
            }
            m.highest("sustained_eps", &found);
        }
        Shape::Federated => {
            let (warm, _) = run.fed_pass(&mut rig, false)?;
            m.set(
                "revenue",
                warm.report
                    .daemons
                    .iter()
                    .filter_map(|d| d.bye.fed.as_ref().map(|f| f.ledger.revenue))
                    .sum(),
            );
            let sat = repeat(run, since, 1.0, LATENCY_PASSES, 100, |run| {
                let (p, _) = run.fed_pass(&mut rig, false)?;
                Ok(((p.report.events_per_sec(), p.stolen()), p.latency_ns))
            })?;
            let passes: Vec<(f64, bool)> = sat.iter().map(|s| s.0).collect();
            throughput_metric(&mut m, &passes);
            let latencies: Vec<Vec<u64>> = sat.into_iter().map(|s| s.1).collect();
            latency_metrics(&mut m, &latencies);
            // Lockstep keeps one event outstanding, so the load it sustains
            // without a backlog is its closed-loop rate.
            let sustained = m.get("throughput_eps").unwrap_or(0.0);
            m.set("sustained_eps", sustained);
        }
    }
    m.set("daemon_rss_mb", Run::rss_mb(&rig));
    m.set(
        "served_share",
        1.0 - run.failed as f64 / run.attempted.max(1) as f64,
    );
    Ok(m)
}

/// One snapshot per shard of every daemon.
fn per_shard(snapshots: Vec<DeepStatsMsg>) -> Vec<DeepStatsMsg> {
    let mut seen = Vec::new();
    snapshots
        .into_iter()
        .filter(|d| {
            let fresh = !seen.contains(&d.shard);
            seen.push(d.shard);
            fresh
        })
        .collect()
}

struct Phase {
    count: u64,
    total_ns: u64,
    p50_ns: u64,
    p99_ns: u64,
}

/// A phase summed over snapshots (quantiles: the worst snapshot's).
fn phase(snapshots: &[DeepStatsMsg], name: &str) -> Phase {
    let mut p = Phase {
        count: 0,
        total_ns: 0,
        p50_ns: 0,
        p99_ns: 0,
    };
    for row in snapshots.iter().filter_map(|d| d.phase(name)) {
        p.count += row.count;
        p.total_ns += row.total_ns;
        p.p50_ns = p.p50_ns.max(row.p50_ns);
        p.p99_ns = p.p99_ns.max(row.p99_ns);
    }
    p
}

fn counter(snapshots: &[DeepStatsMsg], name: &str) -> f64 {
    snapshots
        .iter()
        .flat_map(|d| d.counters.iter())
        .filter(|c| c.name == name)
        .map(|c| c.value as f64)
        .sum()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The per-layer rows every shape reads off the daemons' `stats_deep`.
fn daemon_layers(
    m: &mut Measured,
    snapshots: &[DeepStatsMsg],
    shards: &[Vec<ShardRow>],
    events: usize,
) {
    m.set(
        "decision.total_ms",
        ms(phase(snapshots, "decision").total_ns),
    );
    let pricing = phase(snapshots, "pricing");
    m.set("pricing.count", pricing.count as f64);
    m.set("pricing.total_ms", ms(pricing.total_ns));
    m.set("pricing.p99_ns", pricing.p99_ns as f64);
    for name in [
        "mc.samples",
        "mc.dichotomy_iters",
        "pricing.candidates_evaluated",
        "grid.cells_scanned",
        "grid.candidates",
    ] {
        m.set(name, counter(snapshots, name));
    }
    m.set(
        "candidate-search.total_ms",
        ms(phase(snapshots, "candidate-search").total_ns),
    );
    m.set(
        "world.approx_bytes",
        snapshots
            .iter()
            .flat_map(|d| d.gauges.iter())
            .filter(|g| g.name == "world.approx_bytes")
            .map(|g| g.max)
            .sum(),
    );
    for (name, phase_name) in [
        ("decode.total_ms", "decode"),
        ("encode.total_ms", "encode"),
        ("ingest.total_ms", "ingest"),
    ] {
        m.set(name, ms(phase(snapshots, phase_name).total_ns));
    }
    let flush = phase(snapshots, "flush");
    m.set("flush.count", flush.count as f64);
    m.set("flush.total_ms", ms(flush.total_ns));
    m.set(
        "events_per_flush",
        if flush.count == 0 {
            0.0
        } else {
            events as f64 / flush.count as f64
        },
    );
    let rows: Vec<&ShardRow> = shards.iter().flatten().collect();
    m.set(
        "shard.queue_high_water",
        rows.iter().map(|r| r.queue_high_water).max().unwrap_or(0) as f64,
    );
    m.set(
        "shard.busy_dropped",
        rows.iter().map(|r| r.busy_dropped).sum::<u64>() as f64,
    );
    let skew = shards
        .iter()
        .filter(|rows| !rows.is_empty())
        .map(|rows| {
            let max = rows.iter().map(|r| r.events_routed).max().unwrap_or(0) as f64;
            let mean = rows.iter().map(|r| r.events_routed).sum::<u64>() as f64 / rows.len() as f64;
            if mean > 0.0 {
                max / mean
            } else {
                1.0
            }
        })
        .fold(0.0, f64::max);
    m.set("shard.routed_skew", skew);
    let offer = phase(snapshots, "fed-offer");
    m.set("fed-offer.count", offer.count as f64);
    m.set("fed-offer.p50_ns", offer.p50_ns as f64);
    m.set("fed-offer.p99_ns", offer.p99_ns as f64);
    m.set(
        "fed-lend.total_ms",
        ms(phase(snapshots, "fed-lend").total_ns),
    );
    let fed: Vec<_> = snapshots
        .iter()
        .filter_map(|d| d.federation.as_ref())
        .collect();
    m.set(
        "fed.offers_timed_out",
        fed.iter().map(|f| f.offers_timed_out).sum::<u64>() as f64,
    );
    m.set(
        "fed.offers_retried",
        fed.iter().map(|f| f.offers_retried).sum::<u64>() as f64,
    );
    m.set(
        "fed.stale_replies",
        fed.iter().map(|f| f.stale_replies).sum::<u64>() as f64,
    );
}

/// Server phase time against client-observed time.
fn reconcile(m: &mut Measured, snapshots: &[DeepStatsMsg], client_ns: u64) {
    let server: u64 = ["decode", "ingest", "encode", "flush"]
        .iter()
        .map(|p| phase(snapshots, p).total_ns)
        .sum();
    let share = server as f64 / client_ns.max(1) as f64;
    m.set("reconcile.server_share", share);
    m.set("reconcile.unaccounted_share", 1.0 - share);
}

/// In-process layers: generation, the engine alone, the framing codec.
fn in_process_layers(run: &mut Run, m: &mut Measured) -> Result<(), String> {
    let w = run.w;
    let config = w.scenario(run.seed);
    let mut gen = Vec::new();
    let mut instance = None;
    for _ in 0..3 {
        let t = Instant::now();
        let i = generate(&config);
        gen.push(secs(t) * 1e3);
        run.spans.record("generate", 0, RUN_LEVEL, t);
        instance = Some(i);
    }
    m.median("datagen.generate_ms", &gen);
    let instance = instance.expect("generated");

    // The engine alone: the same instance through one MatchSession, each
    // ingest timed from outside.
    let factory = MatcherRegistry::builtin()
        .resolve(w.matcher)
        .map_err(|e| format!("unknown matcher {}: {e:?}", w.matcher))?;
    let mut session =
        MatchSession::new(SessionConfig::from_instance(&instance), factory(), run.seed);
    let mut ingest = Vec::with_capacity(instance.stream.len());
    let t_all = Instant::now();
    for (seq, event) in instance.stream.iter().enumerate() {
        let t = Instant::now();
        session
            .ingest(event)
            .map_err(|e| format!("in-process ingest {seq}: {e}"))?;
        ingest.push(t.elapsed().as_nanos() as u64);
        run.spans.record("ingest", 0, seq as u64, t);
    }
    let wall = secs(t_all);
    drop(session.finish());
    m.set("core.ingest_p50_ns", quantile(&ingest, 0.5) as f64);
    m.set("core.ingest_p99_ns", quantile(&ingest, 0.99) as f64);
    m.set("core.events_per_s", instance.stream.len() as f64 / wall);

    // The workload's own messages through the codec it negotiates.
    let sid = (w.sessions > 1).then_some(0);
    let (mut bytes, mut enc_ns, mut dec_ns) = (0usize, 0u64, 0u64);
    let messages = event_messages(&instance);
    for (seq, msg) in messages.into_iter().enumerate() {
        let frame = ClientFrame { sid, msg };
        let t = Instant::now();
        let wire = match w.frame {
            WireFormat::Binary => encode_frame(&frame),
            WireFormat::Ndjson => encode(&frame).into_bytes(),
        };
        enc_ns += t.elapsed().as_nanos() as u64;
        run.spans.record("encode-frame", 0, seq as u64, t);
        bytes += wire.len() + usize::from(w.frame == WireFormat::Ndjson);
        let t = Instant::now();
        let back = match w.frame {
            WireFormat::Binary => decode_payload(&wire[5..])
                .map_err(|e| e.to_string())
                .and_then(|c| client_frame_from_content(&c).map_err(|e| e.to_string())),
            WireFormat::Ndjson => std::str::from_utf8(&wire)
                .map_err(|e| e.to_string())
                .and_then(|s| decode_client_frame(s).map_err(|e| e.to_string())),
        };
        dec_ns += t.elapsed().as_nanos() as u64;
        run.spans.record("decode-frame", 0, seq as u64, t);
        if back
            .map_err(|e| format!("codec round trip {seq}: {e}"))?
            .sid
            != sid
        {
            return Err(format!("codec round trip {seq}: session id lost"));
        }
    }
    let n = instance.stream.len().max(1) as f64;
    m.set("framing.bytes_per_event", bytes as f64 / n);
    m.set("framing.encode_ns", enc_ns as f64 / n);
    m.set("framing.decode_ns", dec_ns as f64 / n);
    Ok(())
}

/// Passes per daemon configuration in a traced run.
const TRACED_PASSES: usize = 3;

/// The traced run: every per-layer metric.
pub fn per_layer(run: &mut Run) -> Result<Measured, String> {
    let w = run.w;
    let mut m = Measured::default();
    in_process_layers(run, &mut m)?;
    let since = Instant::now();

    // Untraced daemons first: the baseline for the collector's overhead.
    let mut rig = run.setup(false)?;
    run.prepare(&mut rig)?;
    let untraced = match w.shape {
        Shape::Served => {
            run.served_pass(&mut rig, &closed(w.connections), false)?;
            repeat(run, since, 0.0, TRACED_PASSES, TRACED_PASSES, |run| {
                run.served_pass(&mut rig, &closed(w.connections), false)
                    .map(|p| p.events_per_s())
            })?
        }
        Shape::Federated => {
            run.fed_pass(&mut rig, false)?;
            repeat(run, since, 0.0, TRACED_PASSES, TRACED_PASSES, |run| {
                run.fed_pass(&mut rig, false)
                    .map(|(p, _)| p.report.events_per_sec())
            })?
        }
    };
    drop(rig);

    let mut rig = run.setup(true)?;
    run.prepare(&mut rig)?;
    let mut traced = Vec::new();
    match w.shape {
        Shape::Served => {
            run.served_pass(&mut rig, &closed(w.connections), false)?;
            let mut last = None;
            for _ in 0..TRACED_PASSES {
                let p = run.served_pass(&mut rig, &closed(w.connections), true)?;
                traced.push(p.events_per_s());
                last = Some(p);
            }
            let last = last.expect("traced passes");
            let snapshots = per_shard(last.deep);
            let shards = vec![snapshots
                .first()
                .map(|d| d.shards.clone())
                .unwrap_or_default()];
            daemon_layers(&mut m, &snapshots, &shards, last.messages);

            // One open-loop pass at the nominal rate: the generator's own
            // layer and the reconciliation against server phases.
            let nominal_rate = w.nominal_rate.expect("served workloads run open loop");
            let dues = run.dues(&rig, nominal_rate);
            let paces = Run::open_paces(&dues);
            let p = run.served_pass(&mut rig, &paces, true)?;
            let snapshots = per_shard(p.deep.clone());
            let client_ns: u64 = p
                .conns
                .iter()
                .flat_map(|c| {
                    (0..c.due_ns.len()).map(move |k| c.done_ns[k].saturating_sub(c.sent_ns[k]))
                })
                .sum();
            reconcile(&mut m, &snapshots, client_ns);
            m.set(
                "driver.lag_p99_us",
                quantile(&p.lags_ns(), 0.99) as f64 / 1e3,
            );
            m.set("driver.send_ms", ms(p.time.send_ns));
            m.set("driver.recv_wait_ms", ms(p.time.recv_wait_ns));
            m.set("trace.bytes_per_event", 0.0);
            m.set("trace.replay_events_per_s", 0.0);
            m.set("fed.degraded_offers", 0.0);
            m.set("fed.verify_ms", 0.0);
        }
        Shape::Federated => {
            run.fed_pass(&mut rig, false)?;
            let mut last: Option<(crate::fedpass::FedPass, FedExtras)> = None;
            for _ in 0..TRACED_PASSES {
                let (p, x) = run.fed_pass(&mut rig, true)?;
                traced.push(p.report.events_per_sec());
                last = Some((p, x));
            }
            let (p, x) = last.expect("traced passes");
            let snapshots: Vec<DeepStatsMsg> = p
                .report
                .daemons
                .iter()
                .filter_map(|d| d.deep_stats.clone())
                .collect();
            let shards: Vec<Vec<ShardRow>> = snapshots.iter().map(|d| d.shards.clone()).collect();
            daemon_layers(&mut m, &snapshots, &shards, 2 * p.report.events);
            reconcile(&mut m, &snapshots, p.client_ns);
            // Lockstep has no schedule to fall behind, and its sends and
            // waits are one blocking round trip.
            m.set("driver.lag_p99_us", 0.0);
            m.set("driver.send_ms", 0.0);
            m.set("driver.recv_wait_ms", ms(p.client_ns));
            m.set(
                "trace.bytes_per_event",
                x.trace_bytes as f64 / (2 * p.report.events) as f64,
            );
            m.set(
                "trace.replay_events_per_s",
                x.replayed_events as f64 / (x.replay_ns as f64 / 1e9),
            );
            m.set("fed.degraded_offers", x.degraded as f64);
            m.set("fed.verify_ms", ms(x.verify_ns));
        }
    }
    let (u, t) = (summarize(&untraced), summarize(&traced));
    m.samples.push(("untraced.throughput_eps", u.clone()));
    m.samples.push(("traced.throughput_eps", t.clone()));
    m.set("obs.overhead_share", 1.0 - t.median / u.median);
    Ok(m)
}
