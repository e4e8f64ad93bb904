//! The three workloads and what one run of each measures.

use std::path::Path;

use com_datagen::{chengdu_oct, synthetic, xian_nov, ScenarioConfig, SyntheticParams};
use com_serve::{ClientMsg, WireFormat, WorkerMsg};
use com_sim::{ArrivalEvent, Instance};

/// How a workload reaches the daemons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Sessions over connections to one `matchd`, open loop.
    Served,
    /// One session on each of two federated `matchd`s, lockstep.
    Federated,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub matcher: &'static str,
    /// Logical sessions, each replaying the whole instance with seed
    /// `seed + sid`.
    pub sessions: usize,
    pub connections: usize,
    pub shards: usize,
    pub frame: WireFormat,
    /// Flight recorder on every daemon.
    pub record: bool,
    /// Open-loop rate for the latency metrics, events/s: about a third of
    /// the sustained rate measured on a 2-vCPU host, well below the knee.
    /// The ladder search starts at three times this rate. `None` for the
    /// lockstep workload, which has no open loop.
    pub nominal_rate: Option<f64>,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "city-demcom",
        shape: Shape::Served,
        matcher: "demcom",
        sessions: 1,
        connections: 1,
        shards: 1,
        frame: WireFormat::Binary,
        record: false,
        nominal_rate: Some(30_000.0),
    },
    Workload {
        name: "mux-tota",
        shape: Shape::Served,
        matcher: "tota",
        sessions: 8,
        connections: 2,
        shards: 2,
        frame: WireFormat::Binary,
        record: false,
        nominal_rate: Some(60_000.0),
    },
    Workload {
        name: "fed-ramcom-rec",
        shape: Shape::Federated,
        matcher: "ramcom",
        sessions: 1,
        connections: 2,
        shards: 1,
        frame: WireFormat::Ndjson,
        record: true,
        nominal_rate: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The scenario, seeded by the benchmark's `--seed`.
    pub fn scenario(&self, seed: u64) -> ScenarioConfig {
        let base = match self.name {
            "city-demcom" => chengdu_oct(),
            "mux-tota" => xian_nov(),
            _ => synthetic(SyntheticParams {
                n_requests: 4000,
                n_workers: 1200,
                ..SyntheticParams::default()
            }),
        };
        base.with_seed(seed)
    }

    /// `matchd` flags besides address and address file.
    pub fn daemon_flags(&self, telemetry: bool, record_dir: Option<&Path>) -> Vec<String> {
        let mut flags = vec!["--shards".to_string(), self.shards.to_string()];
        if !telemetry {
            flags.push("--no-telemetry".into());
        }
        if let Some(dir) = record_dir {
            flags.push("--record".into());
            flags.push(dir.display().to_string());
        }
        flags
    }

    /// Session ids on connection `c` (`None`: one bare session).
    pub fn sids(&self, c: usize) -> Vec<Option<u64>> {
        if self.sessions == 1 {
            return vec![None];
        }
        (0..self.sessions as u64)
            .filter(|s| *s as usize % self.connections == c)
            .map(Some)
            .collect()
    }

    /// Seed of the session `sid` in a run seeded with `seed`.
    pub fn session_seed(&self, seed: u64, sid: Option<u64>) -> u64 {
        seed.wrapping_add(sid.unwrap_or(0))
    }
}

/// The instance's arrival events as protocol messages.
pub fn event_messages(instance: &Instance) -> Vec<ClientMsg> {
    instance
        .stream
        .iter()
        .map(|event| match event {
            ArrivalEvent::Worker(spec) => ClientMsg::worker(WorkerMsg {
                spec: *spec,
                history: instance.histories.get(&spec.id).cloned(),
            }),
            ArrivalEvent::Request(spec) => ClientMsg::request(*spec),
        })
        .collect()
}
