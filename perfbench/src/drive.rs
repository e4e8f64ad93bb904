//! The load generator: one thread drives every connection, open or
//! closed loop.
//!
//! Every pass sends each connection's pre-encoded messages in wire
//! order. Message `k` of a connection carrying sessions `sids` is event
//! `k / sids.len()` of session `sids[k % sids.len()]`, so consecutive
//! messages address different sessions, as independent users would.
//!
//! * **Open loop**: message `k` is due `due[k]` ns after the pass starts
//!   and is sent as soon as it is due, whatever is still in flight
//!   (up to a cap far below the server's ingress queue). Responses are
//!   read as they arrive; latency is measured from the *due* time, so a
//!   stall is charged to every message queued behind it.
//! * **Closed loop**: at most `window` messages in flight; the next is
//!   sent when a response frees a slot. Latency runs from the send.

use std::collections::VecDeque;
use std::io;
use std::time::{Duration, Instant};

use com_serve::{ByeMsg, ClientMsg, DeepStatsMsg, ServerMsg, WireFormat};

use crate::host::StealLog;
use crate::spans::SpanLog;
use crate::wire::{bad_data, encode_into, wait_any, Conn};

/// In-flight cap for the open loop, per connection: far below the
/// server's per-shard ingress queue (1024), so the server never drops.
pub const OPEN_MAX_IN_FLIGHT: usize = 256;
/// How far overdue the oldest outstanding message may fall before an
/// open-loop pass gives up its schedule: far beyond any host stall,
/// reached quickly under real overload.
pub const ABORT_NS: u64 = 500_000_000;

/// One connection's messages, encoded once per run in wire order.
#[derive(Debug, Clone)]
pub struct Wire {
    pub sids: Vec<Option<u64>>,
    pub bytes: Vec<u8>,
    /// End offset of message `k` in `bytes`.
    pub ends: Vec<usize>,
}

impl Wire {
    /// Interleave `events` across `sids` (every session gets every
    /// event) and encode in `format`.
    pub fn encode(sids: &[Option<u64>], events: &[ClientMsg], format: WireFormat) -> Wire {
        let mut bytes = Vec::new();
        let mut ends = Vec::with_capacity(events.len() * sids.len());
        for msg in events {
            for &sid in sids {
                encode_into(&mut bytes, sid, msg, format);
                ends.push(bytes.len());
            }
        }
        Wire {
            sids: sids.to_vec(),
            bytes,
            ends,
        }
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn range(&self, from: usize, to: usize) -> &[u8] {
        let start = if from == 0 { 0 } else { self.ends[from - 1] };
        &self.bytes[start..self.ends[to - 1]]
    }
}

/// How a pass paces its sends.
#[derive(Debug, Clone, Copy)]
pub enum Pace<'a> {
    Closed {
        window: usize,
    },
    /// Message `k` is due `due[k]` ns after the start. Once the oldest
    /// outstanding message is [`ABORT_NS`] overdue the schedule is given
    /// up and the stream finishes closed-loop (the sessions must still
    /// complete for the correctness gate).
    Open {
        due: &'a [u64],
    },
}

/// What one connection's pass measured. Times are ns after its start.
#[derive(Debug, Clone, Default)]
pub struct ConnPass {
    pub due_ns: Vec<u64>,
    pub sent_ns: Vec<u64>,
    pub done_ns: Vec<u64>,
    /// Messages sent on schedule before an abort (all, when none).
    pub open_until: usize,
    pub aborted: bool,
    /// Responses that were a refusal (`timeout`) or an `error`.
    pub failed: u64,
    pub wall_ns: u64,
}

impl ConnPass {
    /// Latency of message `k`, from its due time.
    pub fn latency_ns(&self, k: usize) -> u64 {
        self.done_ns[k].saturating_sub(self.due_ns[k])
    }

    /// How late the generator sent message `k`.
    pub fn lag_ns(&self, k: usize) -> u64 {
        self.sent_ns[k].saturating_sub(self.due_ns[k])
    }
}

/// Where the generator's own time went during a pass, and when the host
/// took time from it.
#[derive(Debug, Clone, Default)]
pub struct DriverTime {
    /// Inside socket writes.
    pub send_ns: u64,
    /// Waiting for responses with nothing due to send.
    pub recv_wait_ns: u64,
    pub steal: StealLog,
}

/// One connection's progress through a pass.
struct Lane<'a> {
    conn: &'a mut Conn,
    wire: &'a Wire,
    pace: Pace<'a>,
    p: ConnPass,
    outstanding: Vec<VecDeque<usize>>,
    next: usize,
    acked: usize,
}

impl Lane<'_> {
    fn done(&self) -> bool {
        self.acked == self.wire.len()
    }

    /// When the next scheduled message falls due (a connection at its
    /// in-flight cap waits for responses instead).
    fn next_due(&self) -> Option<u64> {
        match self.pace {
            Pace::Open { due, .. }
                if !self.p.aborted
                    && self.next < self.wire.len()
                    && self.next - self.acked < OPEN_MAX_IN_FLIGHT =>
            {
                Some(due[self.next])
            }
            _ => None,
        }
    }

    /// Send everything the pace allows now, in one write.
    fn send(
        &mut self,
        start: Instant,
        time: &mut DriverTime,
        spans: &mut SpanLog,
    ) -> io::Result<()> {
        let n = self.wire.len();
        let now = start.elapsed().as_nanos() as u64;
        let first = self.next;
        if let Pace::Open { due } = self.pace {
            if !self.p.aborted {
                let oldest = self
                    .outstanding
                    .iter()
                    .filter_map(|q| q.front())
                    .map(|&k| due[k])
                    .min();
                if oldest.is_some_and(|d| now.saturating_sub(d) > ABORT_NS) {
                    self.p.aborted = true;
                    self.p.open_until = self.next;
                } else {
                    while self.next < n
                        && due[self.next] <= now
                        && self.next - self.acked < OPEN_MAX_IN_FLIGHT
                    {
                        self.next += 1;
                    }
                }
            }
        }
        let window = match self.pace {
            Pace::Closed { window } => Some(window.max(1)),
            Pace::Open { .. } if self.p.aborted => Some(64),
            Pace::Open { .. } => None,
        };
        if let Some(window) = window {
            while self.next < n && self.next - self.acked < window {
                self.next += 1;
            }
        }
        if self.next == first {
            return Ok(());
        }
        self.conn.queue_bytes(self.wire.range(first, self.next));
        let t = Instant::now();
        self.conn.flush()?;
        let sent = t.duration_since(start).as_nanos() as u64;
        time.send_ns += t.elapsed().as_nanos() as u64;
        let s = self.wire.sids.len();
        for k in first..self.next {
            self.p.sent_ns[k] = sent;
            self.p.due_ns[k] = match self.pace {
                Pace::Open { due, .. } if window.is_none() => due[k],
                _ => sent,
            };
            self.outstanding[k % s].push_back(k);
        }
        spans.record(
            "send",
            self.wire.sids[first % s].unwrap_or(0),
            (first / s) as u64,
            t,
        );
        Ok(())
    }

    /// Take every response that has arrived, reading without blocking.
    fn receive(&mut self, start: Instant, spans: &mut SpanLog) -> io::Result<bool> {
        let mut got = self.take(start)?;
        if got == 0 {
            let t = Instant::now();
            if self.conn.try_fill()? {
                spans.record("recv", 0, self.acked as u64, t);
                got = self.take(start)?;
            }
        }
        Ok(got > 0)
    }

    fn take(&mut self, start: Instant) -> io::Result<usize> {
        let now = start.elapsed().as_nanos() as u64;
        let got = take_responses(
            self.conn,
            self.wire,
            &mut self.outstanding,
            &mut self.p,
            now,
        )?;
        self.acked += got;
        if self.done() && self.p.wall_ns == 0 {
            self.p.wall_ns = now;
        }
        Ok(got)
    }
}

/// Drive every connection through its wire at its pace, from this one
/// thread: send what is due, take what has arrived, then sleep until the
/// next message falls due or a response arrives.
pub fn drive(
    conns: &mut [Conn],
    wires: &[Wire],
    paces: &[Pace],
    spans: &mut SpanLog,
) -> io::Result<(Vec<ConnPass>, DriverTime)> {
    let mut lanes: Vec<Lane> = conns
        .iter_mut()
        .zip(wires)
        .zip(paces)
        .map(|((conn, wire), &pace)| {
            let n = wire.len();
            Lane {
                conn,
                wire,
                pace,
                p: ConnPass {
                    due_ns: vec![0; n],
                    sent_ns: vec![0; n],
                    done_ns: vec![0; n],
                    open_until: n,
                    ..ConnPass::default()
                },
                outstanding: vec![VecDeque::new(); wire.sids.len()],
                next: 0,
                acked: 0,
            }
        })
        .collect();
    let mut time = DriverTime::default();
    let start = Instant::now();
    loop {
        time.steal.sample(start.elapsed().as_nanos() as u64);
        let mut progressed = false;
        for lane in lanes.iter_mut().filter(|l| !l.done()) {
            lane.send(start, &mut time, spans)?;
            progressed |= lane.receive(start, spans)?;
        }
        if lanes.iter().all(Lane::done) {
            break;
        }
        if progressed {
            continue;
        }
        let now = start.elapsed().as_nanos() as u64;
        let timeout = lanes
            .iter()
            .filter_map(Lane::next_due)
            .min()
            .map(|due| Duration::from_nanos(due.saturating_sub(now)));
        if timeout.is_some_and(|t| t.is_zero()) {
            continue;
        }
        let t = Instant::now();
        let fds: Vec<&Conn> = lanes
            .iter()
            .filter(|l| !l.done())
            .map(|l| &*l.conn)
            .collect();
        wait_any(&fds, timeout)?;
        time.recv_wait_ns += t.elapsed().as_nanos() as u64;
    }
    Ok((lanes.into_iter().map(|l| l.p).collect(), time))
}

fn take_responses(
    conn: &mut Conn,
    wire: &Wire,
    outstanding: &mut [VecDeque<usize>],
    p: &mut ConnPass,
    now: u64,
) -> io::Result<usize> {
    let mut got = 0;
    while let Some(frame) = conn.parse_one()? {
        let slot = wire
            .sids
            .iter()
            .position(|&s| s == frame.sid)
            .ok_or_else(|| bad_data(format!("response for unknown session {:?}", frame.sid)))?;
        let failed = match frame.msg {
            ServerMsg::ok | ServerMsg::assign(_) | ServerMsg::reject(_) => false,
            ServerMsg::timeout { .. } | ServerMsg::error(_) => true,
            ServerMsg::busy => return Err(bad_data("server answered busy: a message was dropped")),
            other => return Err(bad_data(format!("unexpected response {other:?}"))),
        };
        let k = outstanding[slot]
            .pop_front()
            .ok_or_else(|| bad_data("response with nothing outstanding"))?;
        // A refused or failed message counts as beyond any latency limit.
        p.done_ns[k] = if failed { u64::MAX } else { now };
        p.failed += u64::from(failed);
        got += 1;
    }
    Ok(got)
}

/// Ask each session for `stats_deep` (when `deep`) and to shut down.
/// Requests go out on every connection before any reply is awaited, so
/// the shards finish their sessions in parallel.
pub fn request_close(conn: &mut Conn, sids: &[Option<u64>], deep: bool) -> io::Result<()> {
    if deep {
        for &sid in sids {
            conn.queue(sid, &ClientMsg::stats_deep);
        }
    }
    for &sid in sids {
        conn.queue(sid, &ClientMsg::shutdown);
    }
    conn.flush()
}

/// Collect what [`request_close`] asked for: the byes in `sids` order
/// and the deep snapshots.
pub fn collect_close(
    conn: &mut Conn,
    sids: &[Option<u64>],
) -> io::Result<(Vec<ByeMsg>, Vec<DeepStatsMsg>)> {
    let mut byes: Vec<Option<ByeMsg>> = vec![None; sids.len()];
    let mut snapshots = Vec::new();
    while byes.iter().any(Option::is_none) {
        let frame = conn.recv()?;
        let slot = sids
            .iter()
            .position(|&s| s == frame.sid)
            .ok_or_else(|| bad_data(format!("reply for unknown session {:?}", frame.sid)))?;
        match frame.msg {
            ServerMsg::stats_deep(d) => snapshots.push(*d),
            ServerMsg::bye(b) => byes[slot] = Some(b),
            other => return Err(bad_data(format!("unexpected teardown reply {other:?}"))),
        }
    }
    Ok((byes.into_iter().flatten().collect(), snapshots))
}
