//! Client side: a protocol client (NDJSON or binary framing) plus
//! [`drive`], the one scenario driver behind `matchload`, `matchfed` and
//! the loopback tests.
//!
//! [`drive`] streams an [`Instance`]'s arrival events through a set of
//! *lanes*. A lane is one logical session: a connection, an optional mux
//! `sid`, and the session's [`Hello`]. Every lane receives the whole
//! stream, event by event, so each lane's final `bye` is independently
//! comparable to a local batch run of its own hello. The three serving
//! shapes are lane layouts, nothing more:
//!
//! * **single session** — one bare lane (`sid: None`), the legacy
//!   one-session-per-connection wire path;
//! * **mux** — K lanes over M connections to one daemon
//!   ([`DriveOptions::lanes`]), sid *k* on connection *k* mod M;
//! * **federation** — one lane per platform daemon, driven at window 1.
//!   For a request, the lanes whose `hello.fed` owns its platform are
//!   sent the event last, so the lender's replica has seen the request
//!   before the owner's outsourcing offer can reach it.
//!
//! Event *i* goes to every lane before event *i+1* goes to any. Up to
//! `window` messages are in flight across all lanes at once; when the
//! window fills, every connection's queued sends are flushed (one write
//! syscall per connection) and responses are drained until half the
//! window is free. `window == 1` is strict request-response lockstep.
//! Responses are matched to lanes by (connection, sid): the server
//! answers in order per session, but sessions on different shards answer
//! in any order relative to each other. The window is kept far below the
//! server's queue capacity, so a `busy` while streaming (which would
//! desynchronise the matching) is a typed error; during teardown, when
//! one message per lane is in flight, `busy` is survived by resending.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use com_obs::Histogram;
use com_sim::{ArrivalEvent, Assignment, Instance};

use crate::framing::{self, FrameError, WireFormat, FRAME_MAGIC};
use crate::protocol::{
    decode_server_frame, encode, ByeMsg, ClientFrame, ClientMsg, DeepStatsMsg, Hello, ServerFrame,
    ServerMsg, WorkerMsg,
};

/// A connected protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
    /// Pending outgoing bytes ([`Client::queue_msg`] / [`Client::flush`]).
    wbuf: Vec<u8>,
    /// Framing for *outgoing* messages. Incoming framing is auto-detected
    /// per message from its first byte.
    format: WireFormat,
}

fn bad_data(detail: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, detail)
}

impl Client {
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Sends are already batched into one write per burst; Nagle
        // would only delay the burst behind an unacked response.
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            stream,
            wbuf: Vec::with_capacity(4 * 1024),
            format: WireFormat::Ndjson,
        })
    }

    /// Switch the outgoing framing (after the server echoed `"binary"` in
    /// `welcome`).
    pub fn set_format(&mut self, format: WireFormat) {
        self.format = format;
    }

    /// Queue one message into the write buffer without flushing — the
    /// pipelined replay path. Call [`Client::flush`] before blocking on
    /// a response.
    pub fn queue_msg(&mut self, msg: &ClientMsg) {
        match self.format {
            WireFormat::Ndjson => {
                self.wbuf.extend_from_slice(encode(msg).as_bytes());
                self.wbuf.push(b'\n');
            }
            WireFormat::Binary => framing::write_frame(msg, &mut self.wbuf),
        }
    }

    /// Queue one message addressed to logical session `sid` — bare when
    /// `None`, wrapped in the `{"sid":…,"msg":…}` mux envelope otherwise.
    pub fn queue_for(&mut self, sid: Option<u64>, msg: ClientMsg) {
        match sid {
            None => self.queue_msg(&msg),
            Some(sid) => {
                let frame = ClientFrame {
                    sid: Some(sid),
                    msg,
                };
                match self.format {
                    WireFormat::Ndjson => {
                        self.wbuf.extend_from_slice(encode(&frame).as_bytes());
                        self.wbuf.push(b'\n');
                    }
                    WireFormat::Binary => framing::write_frame(&frame, &mut self.wbuf),
                }
            }
        }
    }

    /// Write every queued byte to the socket.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.wbuf.is_empty() {
            return Ok(());
        }
        self.stream.write_all(&self.wbuf)?;
        self.wbuf.clear();
        Ok(())
    }

    /// Send one message immediately (queue + flush).
    pub fn send(&mut self, msg: &ClientMsg) -> std::io::Result<()> {
        self.queue_msg(msg);
        self.flush()
    }

    /// Send one raw line verbatim (protocol-robustness tests).
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<()> {
        self.flush()?;
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")
    }

    /// Send raw bytes verbatim, no newline (framing-robustness tests).
    pub fn send_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.flush()?;
        self.stream.write_all(bytes)
    }

    /// Read the next bare server message (see [`Client::recv_frame`]); a
    /// response tagged for a mux session is `InvalidData`. EOF is
    /// `UnexpectedEof`.
    pub fn recv(&mut self) -> std::io::Result<ServerMsg> {
        let frame = self.recv_frame()?;
        match frame.sid {
            None => Ok(frame.msg),
            Some(sid) => Err(bad_data(format!(
                "expected a bare response, got one for sid {sid}: {:?}",
                frame.msg
            ))),
        }
    }

    /// Read the next server message *with its mux envelope*: `sid` is
    /// `None` for a bare response, `Some` when the server tagged it for a
    /// logical session. Framing is auto-detected per message: a first
    /// byte of [`FRAME_MAGIC`] is a binary frame, anything else an NDJSON
    /// line. EOF is `UnexpectedEof`.
    pub fn recv_frame(&mut self) -> std::io::Result<ServerFrame> {
        loop {
            let first = {
                let buf = self.reader.fill_buf()?;
                if buf.is_empty() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ));
                }
                buf[0]
            };
            if first == FRAME_MAGIC {
                let mut header = [0u8; framing::FRAME_HEADER_LEN];
                self.reader.read_exact(&mut header)?;
                let len = u32::from_le_bytes(header[1..].try_into().unwrap()) as usize;
                if len > framing::MAX_FRAME_PAYLOAD {
                    return Err(bad_data(FrameError::Oversized { len }.to_string()));
                }
                let mut payload = vec![0u8; len];
                self.reader.read_exact(&mut payload)?;
                let content =
                    framing::decode_payload(&payload).map_err(|e| bad_data(e.to_string()))?;
                return serde::Deserialize::from_content(&content)
                    .map_err(|e: serde::Error| bad_data(e.to_string()));
            }
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let text = line.trim();
            if text.is_empty() {
                continue;
            }
            return decode_server_frame(text).map_err(|e| bad_data(e.to_string()));
        }
    }

    /// Send a message and wait for its (in-order) response. Out-of-band
    /// `busy` means the line was dropped server-side: back off, resend,
    /// and report how often that happened via the returned counter.
    pub fn rpc(&mut self, msg: &ClientMsg) -> std::io::Result<(ServerMsg, u64)> {
        self.rpc_for(None, msg)
    }

    /// [`Client::rpc`] addressed to logical session `sid` (bare when
    /// `None`). Only valid while nothing else is in flight on the
    /// connection: the next response must be this one.
    pub fn rpc_for(
        &mut self,
        sid: Option<u64>,
        msg: &ClientMsg,
    ) -> std::io::Result<(ServerMsg, u64)> {
        let mut busy = 0u64;
        loop {
            match sid {
                None => self.queue_msg(msg),
                Some(_) => self.queue_for(sid, msg.clone()),
            }
            self.flush()?;
            let frame = self.recv_frame()?;
            if frame.sid != sid {
                return Err(bad_data(format!(
                    "expected a response for sid {sid:?}, got {frame:?}"
                )));
            }
            match frame.msg {
                ServerMsg::busy => {
                    busy += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
                response => return Ok((response, busy)),
            }
        }
    }
}

/// The `hello` opening a session that replays `instance` with `matcher`
/// and `seed`, asking for `frame` framing.
pub fn session_hello(instance: &Instance, matcher: &str, seed: u64, frame: WireFormat) -> Hello {
    Hello {
        matcher: matcher.to_string(),
        seed,
        world: instance.config.clone(),
        platforms: instance.platform_names.clone(),
        max_value: instance.max_value(),
        frame: Some(frame.as_str().to_string()),
        origin: None,
        fed: None,
    }
}

/// One logical session [`drive`] streams the instance through.
#[derive(Debug, Clone)]
pub struct Lane {
    /// Daemon address. Lanes with the same `conn` share one connection
    /// and must name the same address.
    pub addr: String,
    /// Connection index. Indices must be dense from 0; connections are
    /// opened in index order, all before any session opens.
    pub conn: usize,
    /// Mux session id; `None` is a bare session, alone on its connection.
    pub sid: Option<u64>,
    pub hello: Hello,
}

/// K sessions of one matcher over M connections to one daemon: the
/// `matchload` and loopback-test lane layout.
#[derive(Debug, Clone)]
pub struct DriveOptions {
    /// Matcher spec string (see `com_core::MatcherRegistry`).
    pub matcher: String,
    /// Session *k* runs with seed `seed + k`.
    pub seed: u64,
    /// Wire framing to request in every `hello`. A connection switches
    /// only when the server echoed it for every session on it.
    pub frame: WireFormat,
    /// Max messages in flight across all lanes; `1` = strict lockstep.
    pub window: usize,
    /// TCP connections to open.
    pub connections: usize,
    /// Logical sessions; raised to `connections` so none is idle.
    pub sessions: usize,
}

impl Default for DriveOptions {
    fn default() -> Self {
        DriveOptions {
            matcher: "demcom".into(),
            seed: 42,
            frame: WireFormat::Ndjson,
            window: 1,
            connections: 1,
            sessions: 1,
        }
    }
}

impl DriveOptions {
    /// The lanes to `addr`: one bare lane when there is one session on
    /// one connection, otherwise K mux lanes with sid *k* on connection
    /// *k* mod M.
    pub fn lanes(&self, addr: &str, instance: &Instance) -> Vec<Lane> {
        let connections = self.connections.max(1);
        let sessions = self.sessions.max(connections);
        let bare = sessions == 1;
        (0..sessions as u64)
            .map(|k| Lane {
                addr: addr.to_string(),
                conn: k as usize % connections,
                sid: (!bare).then_some(k),
                hello: session_hello(instance, &self.matcher, self.seed + k, self.frame),
            })
            .collect()
    }
}

/// One lane's outcome.
#[derive(Debug)]
pub struct LaneOutcome {
    pub sid: Option<u64>,
    /// Which connection carried it.
    pub conn: usize,
    /// The seed from the lane's `hello`.
    pub seed: u64,
    pub assigned: usize,
    pub rejected: usize,
    /// Engine-refused decisions (`timeout` responses).
    pub refused: usize,
    /// Every request's decision, in stream order.
    pub decisions: Vec<Assignment>,
    /// The server's deep telemetry snapshot (`stats_deep`), fetched just
    /// before shutdown. `None` when the server predates the message.
    pub deep_stats: Option<DeepStatsMsg>,
    /// The server's final session report (canonical run JSON and digest
    /// included).
    pub bye: ByeMsg,
}

/// What [`drive`] measured.
#[derive(Debug)]
pub struct DriveReport {
    /// Per-lane outcomes, in lane order.
    pub lanes: Vec<LaneOutcome>,
    /// Event messages delivered: stream events × lanes.
    pub events: usize,
    /// Backpressure survived during open and teardown (resent messages).
    pub busy: u64,
    /// Event-streaming wall time: every session open → last event
    /// response drained. Teardown (deep stats, shutdown, audit, the
    /// canonical run in `bye`) is excluded — a fixed per-session cost,
    /// not per-event serving work.
    pub wall_secs: f64,
    /// Round-trip latency of `request` events across every lane,
    /// nanoseconds: from the flush that wrote the request to the read of
    /// its response, queueing included.
    pub request_rtt_ns: Histogram,
}

impl DriveReport {
    /// Aggregate events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.events as f64 / self.wall_secs
    }
}

/// One message awaiting its response on a lane.
struct Pending {
    request: bool,
    /// When the flush that wrote it started; `None` while still queued.
    sent: Option<Instant>,
}

/// A lane's client-side tallies while the stream is in flight.
struct LaneState {
    pending: VecDeque<Pending>,
    assigned: usize,
    rejected: usize,
    refused: usize,
    decisions: Vec<Assignment>,
}

fn lane_name(lane: &Lane) -> String {
    match lane.sid {
        Some(sid) => format!("sid {sid}"),
        None => format!("{} (conn {})", lane.addr, lane.conn),
    }
}

/// Open a lane's session; returns whether the server accepted binary
/// framing for it.
fn open(client: &mut Client, lane: &Lane, busy: &mut u64) -> std::io::Result<bool> {
    let (response, resent) = client.rpc_for(lane.sid, &ClientMsg::hello(lane.hello.clone()))?;
    *busy += resent;
    match response {
        // Only an explicit echo counts; an old server (no echo) or a
        // downgrading one keeps the connection on NDJSON.
        ServerMsg::welcome { frame, .. } => {
            Ok(frame.as_deref().and_then(WireFormat::parse) == Some(WireFormat::Binary))
        }
        ServerMsg::error(e) => Err(bad_data(format!(
            "hello refused on {}: {}: {}",
            lane_name(lane),
            e.code,
            e.detail
        ))),
        other => Err(bad_data(format!(
            "unexpected hello response on {}: {other:?}",
            lane_name(lane)
        ))),
    }
}

/// Tally one streamed response against the lane's oldest pending message.
fn classify(
    lane: &Lane,
    state: &mut LaneState,
    msg: ServerMsg,
    request_rtt_ns: &mut Histogram,
) -> std::io::Result<()> {
    let Some(slot) = state.pending.pop_front() else {
        return Err(bad_data(format!(
            "response on {} with nothing in flight: {msg:?}",
            lane_name(lane)
        )));
    };
    let what = if slot.request { "request" } else { "worker" };
    match (slot.request, msg) {
        (false, ServerMsg::ok) => return Ok(()),
        (true, ServerMsg::assign(a)) => {
            state.assigned += 1;
            state.decisions.push(a);
        }
        (true, ServerMsg::reject(a)) => {
            state.rejected += 1;
            state.decisions.push(a);
        }
        (true, ServerMsg::timeout { assignment, .. }) => {
            state.refused += 1;
            state.decisions.push(assignment);
        }
        (_, ServerMsg::busy) => {
            // The server dropped a streamed message: per-lane matching is
            // broken and a silent resend would desynchronise the session.
            return Err(bad_data(format!(
                "server answered busy on {} while streaming — lower --window below \
                 the server's queue capacity",
                lane_name(lane)
            )));
        }
        (_, ServerMsg::error(e)) => {
            return Err(bad_data(format!(
                "{what} refused on {}: {}: {}",
                lane_name(lane),
                e.code,
                e.detail
            )))
        }
        (_, other) => {
            return Err(bad_data(format!(
                "unexpected {what} response on {}: {other:?}",
                lane_name(lane)
            )))
        }
    }
    let sent = slot.sent.expect("a response is only read after its flush");
    request_rtt_ns.record(sent.elapsed().as_nanos() as u64);
    Ok(())
}

/// Fetch a lane's deep stats and shut its session down.
fn close(
    client: &mut Client,
    lane: &Lane,
    busy: &mut u64,
) -> std::io::Result<(Option<DeepStatsMsg>, ByeMsg)> {
    // Unknown-message errors (older server) degrade to `None`.
    let (response, resent) = client.rpc_for(lane.sid, &ClientMsg::stats_deep)?;
    *busy += resent;
    let deep_stats = match response {
        ServerMsg::stats_deep(deep) => Some(*deep),
        _ => None,
    };
    let (response, resent) = client.rpc_for(lane.sid, &ClientMsg::shutdown)?;
    *busy += resent;
    match response {
        ServerMsg::bye(bye) => Ok((deep_stats, bye)),
        other => Err(bad_data(format!(
            "unexpected shutdown response on {}: {other:?}",
            lane_name(lane)
        ))),
    }
}

/// Flush every connection's queued sends and stamp what they wrote.
fn flush_all(
    clients: &mut [Client],
    lanes: &[Lane],
    states: &mut [LaneState],
) -> std::io::Result<()> {
    for (conn, client) in clients.iter_mut().enumerate() {
        let sent = Instant::now();
        client.flush()?;
        for (lane, state) in lanes.iter().zip(states.iter_mut()) {
            if lane.conn != conn {
                continue;
            }
            // Unflushed messages are the lane's newest.
            for slot in state.pending.iter_mut().rev() {
                if slot.sent.is_some() {
                    break;
                }
                slot.sent = Some(sent);
            }
        }
    }
    Ok(())
}

/// Stream `instance` through every lane (see the module docs) and
/// collect the report. Each lane's served outcome is exactly a batch
/// `try_run_online` over the same instance with its hello's matcher and
/// seed — in either framing, at any window — compare `bye.canonical`
/// against `com_core::identity::canonical_run_json` to verify.
pub fn drive(lanes: &[Lane], instance: &Instance, window: usize) -> std::io::Result<DriveReport> {
    let conns = lanes.iter().map(|l| l.conn + 1).max().unwrap_or(0);
    let mut clients = Vec::with_capacity(conns);
    for conn in 0..conns {
        let Some(first) = lanes.iter().find(|l| l.conn == conn) else {
            return Err(bad_data(format!("connection {conn} carries no lane")));
        };
        if let Some(other) = lanes
            .iter()
            .find(|l| l.conn == conn && l.addr != first.addr)
        {
            return Err(bad_data(format!(
                "connection {conn} names both {} and {}",
                first.addr, other.addr
            )));
        }
        clients.push(Client::connect(&first.addr)?);
    }
    let mut lane_of: HashMap<(usize, Option<u64>), usize> = HashMap::new();
    for (i, lane) in lanes.iter().enumerate() {
        if lane_of.insert((lane.conn, lane.sid), i).is_some() {
            return Err(bad_data(format!("{} appears twice", lane_name(lane))));
        }
    }

    let mut busy = 0u64;
    let mut binary = vec![true; conns];
    for lane in lanes {
        let accepted = open(&mut clients[lane.conn], lane, &mut busy)?;
        binary[lane.conn] &= accepted;
    }
    for (client, binary) in clients.iter_mut().zip(binary) {
        if binary {
            client.set_format(WireFormat::Binary);
        }
    }

    let owned: Vec<Option<u16>> = lanes
        .iter()
        .map(|l| l.hello.fed.as_ref().map(|f| f.platform))
        .collect();
    let mut states: Vec<LaneState> = lanes
        .iter()
        .map(|_| LaneState {
            pending: VecDeque::new(),
            assigned: 0,
            rejected: 0,
            refused: 0,
            decisions: Vec::with_capacity(instance.request_count()),
        })
        .collect();
    let window = window.max(1);
    // The connection of every message in flight, in send order: the
    // oldest one's connection is the one to read next.
    let mut in_flight: VecDeque<usize> = VecDeque::with_capacity(window + lanes.len());
    let mut request_rtt_ns = Histogram::new();
    let started = Instant::now();

    for event in instance.stream.iter() {
        let request_platform = match event {
            ArrivalEvent::Worker(_) => None,
            ArrivalEvent::Request(spec) => Some(spec.platform.0),
        };
        // Non-owners first, then the lanes owning the request's platform.
        for owners in [false, true] {
            for (l, lane) in lanes.iter().enumerate() {
                let owns = request_platform.is_some() && owned[l] == request_platform;
                if owns != owners {
                    continue;
                }
                let msg = match event {
                    ArrivalEvent::Worker(spec) => ClientMsg::worker(WorkerMsg {
                        spec: *spec,
                        history: instance.histories.get(&spec.id).cloned(),
                    }),
                    ArrivalEvent::Request(spec) => ClientMsg::request(*spec),
                };
                clients[lane.conn].queue_for(lane.sid, msg);
                states[l].pending.push_back(Pending {
                    request: request_platform.is_some(),
                    sent: None,
                });
                in_flight.push_back(lane.conn);
                if in_flight.len() >= window {
                    // Window full: flush the batched sends, then drain
                    // half so sends and receives stay interleaved.
                    flush_all(&mut clients, lanes, &mut states)?;
                    while in_flight.len() > window / 2 {
                        drain_one(
                            &mut clients,
                            &mut in_flight,
                            lanes,
                            &lane_of,
                            &mut states,
                            &mut request_rtt_ns,
                        )?;
                    }
                }
            }
        }
    }
    flush_all(&mut clients, lanes, &mut states)?;
    while !in_flight.is_empty() {
        drain_one(
            &mut clients,
            &mut in_flight,
            lanes,
            &lane_of,
            &mut states,
            &mut request_rtt_ns,
        )?;
    }
    // Stop the throughput clock here: every event has been sent *and*
    // answered. Teardown below grows with run size but is not per-event
    // serving work.
    let wall_secs = started.elapsed().as_secs_f64();

    let mut outcomes = Vec::with_capacity(lanes.len());
    for (lane, state) in lanes.iter().zip(states) {
        let (deep_stats, bye) = close(&mut clients[lane.conn], lane, &mut busy)?;
        outcomes.push(LaneOutcome {
            sid: lane.sid,
            conn: lane.conn,
            seed: lane.hello.seed,
            assigned: state.assigned,
            rejected: state.rejected,
            refused: state.refused,
            decisions: state.decisions,
            deep_stats,
            bye,
        });
    }
    Ok(DriveReport {
        lanes: outcomes,
        events: instance.stream.len() * lanes.len(),
        busy,
        wall_secs,
        request_rtt_ns,
    })
}

/// Read one response on the connection of the oldest message in flight
/// and tally it against its lane.
fn drain_one(
    clients: &mut [Client],
    in_flight: &mut VecDeque<usize>,
    lanes: &[Lane],
    lane_of: &HashMap<(usize, Option<u64>), usize>,
    states: &mut [LaneState],
    request_rtt_ns: &mut Histogram,
) -> std::io::Result<()> {
    let conn = in_flight
        .pop_front()
        .expect("drain_one called with nothing in flight");
    let frame = clients[conn].recv_frame()?;
    let Some(&l) = lane_of.get(&(conn, frame.sid)) else {
        return Err(bad_data(format!(
            "response on connection {conn} for no open lane: {frame:?}"
        )));
    };
    classify(&lanes[l], &mut states[l], frame.msg, request_rtt_ns)
}
