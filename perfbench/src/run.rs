//! One benchmark run: set-up, warm-up, timed passes, the gate.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use com_datagen::generate;
use com_serve::{ByeMsg, Client, DeepStatsMsg, Hello};
use com_sim::Instance;

use crate::daemon::Daemon;
use crate::drive::{collect_close, drive, request_close, ConnPass, DriverTime, Pace, Wire};
use crate::fedpass::{self, FedPass};
use crate::gate::{self, Reference};
use crate::schedule::{due_ns, poisson_offsets, SplitMix};
use crate::spans::SpanLog;
use crate::wire::Conn;
use crate::workload::{event_messages, Shape, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Closed-loop window per connection for the saturation passes.
pub const SATURATION_WINDOW: usize = 256;
/// `matchd`'s accept-loop poll period.
const ACCEPT_POLL: Duration = Duration::from_millis(25);
/// The p99 limit a ladder rung must meet. Near the knee the program's
/// slowest decisions alone queue up to a few milliseconds of messages
/// behind them, so a tighter limit would find those, not a growing
/// backlog.
pub const LATENCY_LIMIT_NS: u64 = 5_000_000;

/// Everything a run needs, plus what it has counted so far.
pub struct Run {
    pub w: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub matchd: PathBuf,
    pub workdir: PathBuf,
    pub spans: SpanLog,
    /// Messages sent to a daemon.
    pub attempted: u64,
    /// Refusals, errors and degraded offers among them.
    pub failed: u64,
    /// Gate failures; any one makes the run incorrect.
    pub failures: Vec<String>,
    setups: usize,
    fed_passes: u64,
    phase: SplitMix,
}

/// The daemons of one set-up and the sessions it opened.
pub struct Rig {
    pub instance: Instance,
    pub daemons: Vec<Daemon>,
    pub record_dirs: Vec<PathBuf>,
    opened: Option<Opened>,
    /// Served shape: per-connection pre-encoded messages.
    pub wires: Vec<Wire>,
    /// Served shape: the gate's reference per session.
    pub refs: Vec<Reference>,
    /// Pause before connecting, not part of set-up time (see [`Run::setup`]).
    pub pause: Duration,
}

enum Opened {
    Served(Vec<Conn>),
    Fed(Box<[Client; 2]>),
}

/// What one served pass measured.
pub struct ServedPass {
    pub conns: Vec<ConnPass>,
    pub deep: Vec<DeepStatsMsg>,
    pub byes: Vec<ByeMsg>,
    pub messages: usize,
    pub wall_ns: u64,
    pub time: DriverTime,
}

impl ServedPass {
    pub fn events_per_s(&self) -> f64 {
        self.messages as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Every message's latency from its due time, connection after
    /// connection. A message sent off schedule, after the pass gave its
    /// schedule up, counts as beyond any limit.
    pub fn latencies(&self) -> Vec<u64> {
        self.conns
            .iter()
            .flat_map(|c| {
                (0..c.due_ns.len()).map(|k| {
                    if k < c.open_until {
                        c.latency_ns(k)
                    } else {
                        u64::MAX
                    }
                })
            })
            .collect()
    }

    /// Whether the host stole time during the pass.
    pub fn stolen(&self) -> bool {
        self.time.steal.stolen(0, self.wall_ns)
    }

    pub fn lags_ns(&self) -> Vec<u64> {
        self.conns
            .iter()
            .flat_map(|c| (0..c.open_until).map(move |k| c.lag_ns(k)))
            .collect()
    }
}

fn hello(w: &Workload, instance: &Instance, seed: u64, sid: Option<u64>) -> Hello {
    Hello {
        matcher: w.matcher.to_string(),
        seed: w.session_seed(seed, sid),
        world: instance.config.clone(),
        platforms: instance.platform_names.clone(),
        max_value: instance.max_value(),
        frame: Some(w.frame.as_str().to_string()),
        origin: None,
        fed: None,
    }
}

fn err(context: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{context}: {e}")
}

impl Run {
    pub fn new(
        w: &'static Workload,
        seed: u64,
        seconds: f64,
        matchd: PathBuf,
        workdir: PathBuf,
        traced: bool,
    ) -> Run {
        Run {
            w,
            seed,
            seconds,
            matchd,
            workdir,
            spans: SpanLog::new(traced),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            setups: 0,
            fed_passes: 0,
            phase: SplitMix::new(seed ^ 0xA5A5_5A5A),
        }
    }

    /// Generate the scenario, start the daemon(s) and open the sessions:
    /// everything before the first event can be sent.
    ///
    /// `matchd` accepts connections on a fixed poll period, so a client
    /// that connects a fixed time after start-up always meets the same
    /// phase of it. A seeded pause below one period before connecting
    /// (recorded in `Rig::pause`, to be left out of set-up time) makes
    /// the repeated set-ups sample every phase.
    pub fn setup(&mut self, telemetry: bool) -> Result<Rig, String> {
        let w = self.w;
        self.setups += 1;
        let tag = self.setups;
        let config = w.scenario(self.seed);
        let instance = self.spans.time("generate", || generate(&config));
        let mut daemons = Vec::new();
        let mut record_dirs = Vec::new();
        let names = match w.shape {
            Shape::Served => vec!["a"],
            Shape::Federated => vec!["a", "b"],
        };
        for name in names {
            let dir = self.workdir.join(format!("rec-{tag}-{name}"));
            let flags = w.daemon_flags(telemetry, w.record.then_some(dir.as_path()));
            let t = Instant::now();
            let d = Daemon::spawn(
                &self.matchd,
                &self.workdir,
                &format!("{name}-{tag}"),
                &flags,
            )
            .map_err(err("starting matchd"))?;
            self.spans
                .record("daemon-ready", 0, crate::spans::RUN_LEVEL, t);
            daemons.push(d);
            record_dirs.push(dir);
        }
        let mut rig = Rig {
            instance,
            daemons,
            record_dirs,
            opened: None,
            wires: Vec::new(),
            refs: Vec::new(),
            pause: Duration::from_secs_f64(ACCEPT_POLL.as_secs_f64() * self.phase.next_unit()),
        };
        std::thread::sleep(rig.pause);
        let t = Instant::now();
        rig.opened = Some(self.open(&rig)?);
        self.spans
            .record("connect-hello", 0, crate::spans::RUN_LEVEL, t);
        Ok(rig)
    }

    fn open(&mut self, rig: &Rig) -> Result<Opened, String> {
        let w = self.w;
        match w.shape {
            Shape::Served => {
                let mut conns = Vec::new();
                for c in 0..w.connections {
                    let mut conn = Conn::connect(&rig.daemons[0].addr).map_err(err("connect"))?;
                    conn.open_sessions(&w.sids(c), |sid| hello(w, &rig.instance, self.seed, sid))
                        .map_err(err("hello"))?;
                    conns.push(conn);
                }
                Ok(Opened::Served(conns))
            }
            Shape::Federated => {
                self.fed_passes += 1;
                let options = fedpass::options(w.matcher, self.seed, self.fed_passes);
                let (a, b) = (&rig.daemons[0].addr, &rig.daemons[1].addr);
                let ca = fedpass::open(a, b, 0, &rig.instance, &options).map_err(err("hello a"))?;
                let cb = fedpass::open(b, a, 1, &rig.instance, &options).map_err(err("hello b"))?;
                Ok(Opened::Fed(Box::new([ca, cb])))
            }
        }
    }

    /// Encode the wire messages and compute the gate's references (not
    /// part of set-up time: a daemon's users never pay for them).
    pub fn prepare(&mut self, rig: &mut Rig) -> Result<(), String> {
        let w = self.w;
        if w.shape == Shape::Served {
            let events = event_messages(&rig.instance);
            rig.wires = (0..w.connections)
                .map(|c| Wire::encode(&w.sids(c), &events, w.frame))
                .collect();
            let sids: Vec<Option<u64>> = if w.sessions == 1 {
                vec![None]
            } else {
                (0..w.sessions as u64).map(Some).collect()
            };
            rig.refs = sids
                .iter()
                .map(|&sid| {
                    gate::reference(&rig.instance, w.matcher, w.session_seed(self.seed, sid))
                })
                .collect::<Result<_, _>>()?;
        }
        Ok(())
    }

    /// One pass of every session through the served daemon.
    pub fn served_pass(
        &mut self,
        rig: &mut Rig,
        pace: &[Pace],
        deep: bool,
    ) -> Result<ServedPass, String> {
        let w = self.w;
        let conns = match rig.opened.take() {
            Some(Opened::Served(c)) => c,
            _ => match self.open(rig)? {
                Opened::Served(c) => c,
                Opened::Fed(_) => unreachable!("served workload"),
            },
        };
        let mut conns = conns;
        let (passes, time) =
            drive(&mut conns, &rig.wires, pace, &mut self.spans).map_err(err("drive"))?;
        let mut pass = ServedPass {
            conns: Vec::new(),
            deep: Vec::new(),
            byes: Vec::new(),
            messages: 0,
            wall_ns: 0,
            time,
        };
        for (c, conn) in conns.iter_mut().enumerate() {
            request_close(conn, &w.sids(c), deep).map_err(err("teardown"))?;
        }
        for (c, (p, mut conn)) in passes.into_iter().zip(conns).enumerate() {
            let sids = w.sids(c);
            let (byes, deep) = collect_close(&mut conn, &sids).map_err(err("teardown"))?;
            self.attempted += p.due_ns.len() as u64;
            self.failed += p.failed;
            pass.messages += p.due_ns.len();
            pass.wall_ns = pass.wall_ns.max(p.wall_ns);
            for (sid, bye) in sids.into_iter().zip(&byes) {
                let idx = sid.unwrap_or(0) as usize;
                let label = format!("session {idx}");
                self.failures
                    .extend(gate::check_bye(&rig.refs[idx], bye, &label));
            }
            pass.conns.push(p);
            pass.deep.extend(deep);
            pass.byes.extend(byes);
        }
        Ok(pass)
    }

    /// One federated pass, gated by `com_fed::verify` and a strict replay
    /// of every recorded trace.
    pub fn fed_pass(&mut self, rig: &mut Rig, deep: bool) -> Result<(FedPass, FedExtras), String> {
        let w = self.w;
        let mut clients = match rig.opened.take() {
            Some(Opened::Fed(c)) => c,
            _ => match self.open(rig)? {
                Opened::Fed(c) => c,
                Opened::Served(_) => unreachable!("federated workload"),
            },
        };
        let [ca, cb] = &mut *clients;
        let pass = fedpass::drive([ca, cb], &rig.instance, deep, &mut self.spans)
            .map_err(err("federated drive"))?;
        drop(clients);
        let options = fedpass::options(w.matcher, self.seed, self.fed_passes);
        let t = Instant::now();
        let failures = com_fed::verify(&rig.instance, &pass.report, &options);
        let verify_ns = t.elapsed().as_nanos() as u64;
        self.spans.record("verify", 0, crate::spans::RUN_LEVEL, t);
        self.failures.extend(failures);
        let degraded: u64 = pass
            .report
            .daemons
            .iter()
            .map(|d| d.bye.fed.as_ref().map_or(0, |f| f.degraded_offers))
            .sum();
        self.attempted += 2 * pass.report.events as u64;
        self.failed += pass.failed + degraded;
        let mut extras = FedExtras {
            verify_ns,
            degraded,
            ..FedExtras::default()
        };
        for dir in &rig.record_dirs {
            extras.trace_bytes += dir_bytes(dir);
            let t = Instant::now();
            let (reports, failures) = gate::replay_dir(dir);
            extras.replay_ns += t.elapsed().as_nanos() as u64;
            self.spans
                .record("replay-trace", 0, crate::spans::RUN_LEVEL, t);
            extras.replayed_events += reports.iter().map(|r| r.events).sum::<u64>();
            extras.traces += reports.len();
            self.failures.extend(failures);
            // Trace names repeat across passes of one daemon only by
            // session id, which never repeats; clear them anyway so the
            // next pass replays only its own.
            let _ = std::fs::remove_dir_all(dir);
        }
        if extras.traces != 2 {
            self.failures.push(format!(
                "expected 2 recorded traces, found {}",
                extras.traces
            ));
        }
        Ok((pass, extras))
    }

    /// Sum of `VmHWM` over the rig's daemons, MiB.
    pub fn rss_mb(rig: &Rig) -> f64 {
        rig.daemons
            .iter()
            .filter_map(|d| d.peak_rss_kb())
            .sum::<u64>() as f64
            / 1024.0
    }

    /// Per-connection open-loop paces over `dues`.
    pub fn open_paces(dues: &[Vec<u64>]) -> Vec<Pace<'_>> {
        dues.iter().map(|d| Pace::Open { due: d }).collect()
    }

    /// Due times per connection for an aggregate rate.
    pub fn dues(&self, rig: &Rig, rate: f64) -> Vec<Vec<u64>> {
        let c = rig.wires.len() as f64;
        rig.wires
            .iter()
            .enumerate()
            .map(|(i, wire)| due_ns(&poisson_offsets(self.seed, i as u64, wire.len()), rate / c))
            .collect()
    }

    /// Whether a ladder rung holds: the median window p99 of each
    /// message's fastest latency over the rung's passes is within the
    /// limit. A growing backlog climbs through every window of every
    /// pass, and a message sent off schedule counts as beyond any limit,
    /// so both fail it; a host pause, which strikes each pass elsewhere,
    /// does not.
    pub fn rung_holds(p99_ns: u64) -> bool {
        p99_ns <= LATENCY_LIMIT_NS
    }
}

/// Federated-pass by-products the per-layer metrics use.
#[derive(Debug, Default, Clone)]
pub struct FedExtras {
    pub verify_ns: u64,
    pub degraded: u64,
    pub trace_bytes: u64,
    pub traces: usize,
    pub replay_ns: u64,
    pub replayed_events: u64,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Run `f` at least `min` and at most `max` times, and again while the
/// run has spent less than `share` of its budget since `since`.
pub fn repeat<T>(
    run: &mut Run,
    since: Instant,
    share: f64,
    min: usize,
    max: usize,
    mut f: impl FnMut(&mut Run) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    while out.len() < min
        || (out.len() < max && since.elapsed().as_secs_f64() < share * run.seconds)
    {
        out.push(f(run)?);
    }
    Ok(out)
}
