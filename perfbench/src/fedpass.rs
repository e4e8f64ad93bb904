//! One federated pass: the scenario through two `matchd` daemons, one
//! per platform, joined by the outsourcing protocol.
//!
//! This follows `com_fed::drive_federated` (non-owner first, one event
//! outstanding per daemon: the offer round-trip needs lockstep) but
//! times every request from outside. The result is handed to
//! `com_fed::verify` as a `FedReport`.

use std::io;
use std::time::Instant;

use com_fed::{DaemonReport, FedOptions, FedReport};
use com_serve::{
    Client, ClientMsg, FedHello, Hello, ServerMsg, WireFormat, WorkerMsg, DEFAULT_OFFER_DEADLINE_MS,
};
use com_sim::{ArrivalEvent, Assignment, Instance, PlatformId};

use crate::gate::same_decision;
use crate::host::StealLog;
use crate::spans::SpanLog;
use crate::wire::bad_data;

pub fn options(matcher: &str, seed: u64, fed_sid: u64) -> FedOptions {
    FedOptions {
        matcher: matcher.to_string(),
        seed,
        frame: WireFormat::Ndjson,
        deadline_ms: DEFAULT_OFFER_DEADLINE_MS,
        fed_sid,
    }
}

/// Connect to the daemon owning `platform` and open its session.
pub fn open(
    addr: &str,
    peer: &str,
    platform: u16,
    instance: &Instance,
    options: &FedOptions,
) -> io::Result<Client> {
    let mut client = Client::connect(addr)?;
    let hello = ClientMsg::hello(Hello {
        matcher: options.matcher.clone(),
        seed: options.seed,
        world: instance.config.clone(),
        platforms: instance.platform_names.clone(),
        max_value: instance.max_value(),
        frame: Some(options.frame.as_str().to_string()),
        origin: None,
        fed: Some(FedHello {
            platform,
            fed_sid: options.fed_sid,
            peer: Some(peer.to_string()),
            deadline_ms: Some(options.deadline_ms),
        }),
    });
    match client.rpc(&hello)?.0 {
        ServerMsg::welcome { .. } => Ok(client),
        other => Err(bad_data(format!("hello refused by {addr}: {other:?}"))),
    }
}

/// What a federated pass measured.
pub struct FedPass {
    pub report: FedReport,
    /// Per request: ns from the first send to the second daemon's
    /// answer.
    pub latency_ns: Vec<u64>,
    pub steal: StealLog,
    /// Sum over every event of send-to-answer time (both daemons).
    pub client_ns: u64,
    /// Responses that were refusals or errors.
    pub failed: u64,
}

fn decision(msg: &ServerMsg) -> Option<&Assignment> {
    match msg {
        ServerMsg::assign(a) | ServerMsg::reject(a) => Some(a),
        ServerMsg::timeout { assignment, .. } => Some(assignment),
        _ => None,
    }
}

/// Drive `instance` through the pair in lockstep.
pub fn drive(
    clients: [&mut Client; 2],
    instance: &Instance,
    deep: bool,
    spans: &mut SpanLog,
) -> io::Result<FedPass> {
    let [a, b] = clients;
    let requests = instance.request_count();
    let mut pass = FedPass {
        report: FedReport {
            events: instance.stream.len(),
            wall_secs: 0.0,
            divergent_responses: Vec::new(),
            daemons: Vec::new(),
        },
        latency_ns: Vec::with_capacity(requests),
        steal: StealLog::default(),
        client_ns: 0,
        failed: 0,
    };
    let start = Instant::now();
    for (seq, event) in instance.stream.iter().enumerate() {
        pass.steal.sample(start.elapsed().as_nanos() as u64);
        match event {
            ArrivalEvent::Worker(spec) => {
                let msg = ClientMsg::worker(WorkerMsg {
                    spec: *spec,
                    history: instance.histories.get(&spec.id).cloned(),
                });
                for c in [&mut *a, &mut *b] {
                    let t = Instant::now();
                    let (response, _) = c.rpc(&msg)?;
                    pass.client_ns += t.elapsed().as_nanos() as u64;
                    spans.record("rpc", 0, seq as u64, t);
                    if !matches!(response, ServerMsg::ok) {
                        pass.failed += 1;
                    }
                }
            }
            ArrivalEvent::Request(spec) => {
                let (non_owner, owner) = if spec.platform == PlatformId(0) {
                    (&mut *b, &mut *a)
                } else {
                    (&mut *a, &mut *b)
                };
                let msg = ClientMsg::request(*spec);
                let t = Instant::now();
                let sent = t.duration_since(start).as_nanos() as u64;
                let (lend_side, _) = non_owner.rpc(&msg)?;
                let (own_side, _) = owner.rpc(&msg)?;
                spans.record("rpc", 0, seq as u64, t);
                let done = start.elapsed().as_nanos() as u64;
                pass.client_ns += done - sent;
                match (decision(&lend_side), decision(&own_side)) {
                    (Some(x), Some(y)) => {
                        if !same_decision(x, y) {
                            pass.report.divergent_responses.push(format!(
                                "request {}: owner {:?}, non-owner {:?}",
                                spec.id.0, y.kind, x.kind
                            ));
                        }
                        let refused = [&lend_side, &own_side]
                            .iter()
                            .filter(|m| matches!(m, ServerMsg::timeout { .. }))
                            .count() as u64;
                        pass.failed += refused;
                        // A refused request counts as beyond any limit.
                        pass.latency_ns
                            .push(if refused > 0 { u64::MAX } else { done - sent });
                    }
                    _ => {
                        return Err(bad_data(format!(
                            "request {}: non-decision response(s) {lend_side:?} / {own_side:?}",
                            spec.id.0
                        )))
                    }
                }
            }
        }
    }
    pass.report.wall_secs = start.elapsed().as_secs_f64();
    pass.steal.sample(start.elapsed().as_nanos() as u64);
    for (platform, c) in [(0u16, a), (1u16, b)] {
        let deep_stats = if deep {
            match c.rpc(&ClientMsg::stats_deep)?.0 {
                ServerMsg::stats_deep(d) => Some(*d),
                _ => None,
            }
        } else {
            None
        };
        let bye = match c.rpc(&ClientMsg::shutdown)?.0 {
            ServerMsg::bye(bye) => bye,
            other => return Err(bad_data(format!("unexpected shutdown reply {other:?}"))),
        };
        pass.report.daemons.push(DaemonReport {
            platform,
            bye,
            deep_stats,
        });
    }
    Ok(pass)
}

impl FedPass {
    /// Whether the host stole time during the pass.
    pub fn stolen(&self) -> bool {
        self.steal.stolen(0, (self.report.wall_secs * 1e9) as u64)
    }
}
