//! A protocol connection that never blocks longer than asked.
//!
//! `com_serve::Client` reads with blocking calls, which an open-loop
//! load generator cannot use: it must send each message when it is due
//! while still reading responses as they arrive, on one thread. This
//! connection keeps its own read buffer, waits for input with `ppoll`
//! (a socket read timeout is rounded up to a scheduler tick, which would
//! make the generator milliseconds late), and cuts complete messages out
//! of the buffer with the program's own framing functions
//! (`split_frame`, `decode_payload`, `server_frame_from_content`,
//! `decode_server_frame`).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

use com_serve::framing::{split_frame, FrameSplit, FRAME_HEADER_LEN};
use com_serve::{
    decode_payload, decode_server_frame, encode, server_frame_from_content, write_frame,
    ClientFrame, ClientMsg, Hello, ServerFrame, ServerMsg, WireFormat, FRAME_MAGIC,
};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Let this thread's timed waits (`ppoll`, `sleep`) wake within a
/// microsecond of their deadline instead of the default 50 µs slack.
pub fn precise_timers() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only changes
    // the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000u64);
    }
}

/// Wait until `fd` is ready for `events` or `timeout` passes (`None`:
/// no limit). True when ready.
fn wait_ready(fd: i32, events: i16, timeout: Option<Duration>) -> io::Result<bool> {
    poll(
        &mut [PollFd {
            fd,
            events,
            revents: 0,
        }],
        timeout,
    )
}

/// Block until any of `conns` has input or `timeout` passes.
pub fn wait_any(conns: &[&Conn], timeout: Option<Duration>) -> io::Result<bool> {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    poll(&mut fds, timeout)
}

fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<bool> {
    let ts = timeout.map(|t| Timespec {
        tv_sec: t.as_secs() as i64,
        tv_nsec: i64::from(t.subsec_nanos()),
    });
    let tp = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: valid pollfds, a valid or null timespec, no signal mask.
    let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, tp, std::ptr::null()) };
    match n {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// Append one client message in `format`: bare when `sid` is `None`, in
/// the mux envelope otherwise.
pub fn encode_into(out: &mut Vec<u8>, sid: Option<u64>, msg: &ClientMsg, format: WireFormat) {
    match (sid, format) {
        (None, WireFormat::Ndjson) => {
            out.extend_from_slice(encode(msg).as_bytes());
            out.push(b'\n');
        }
        (None, WireFormat::Binary) => write_frame(msg, out),
        (Some(_), _) => {
            let frame = ClientFrame {
                sid,
                msg: msg.clone(),
            };
            match format {
                WireFormat::Ndjson => {
                    out.extend_from_slice(encode(&frame).as_bytes());
                    out.push(b'\n');
                }
                WireFormat::Binary => write_frame(&frame, out),
            }
        }
    }
}

pub fn bad_data(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

pub struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    rpos: usize,
    wbuf: Vec<u8>,
    format: WireFormat,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            rbuf: Vec::with_capacity(1 << 16),
            rpos: 0,
            wbuf: Vec::with_capacity(1 << 14),
            format: WireFormat::Ndjson,
        })
    }

    /// Encode one message into the write buffer (see [`encode_into`]).
    pub fn queue(&mut self, sid: Option<u64>, msg: &ClientMsg) {
        encode_into(&mut self.wbuf, sid, msg, self.format);
    }

    /// Queue bytes that are already one or more encoded messages.
    pub fn queue_bytes(&mut self, bytes: &[u8]) {
        self.wbuf.extend_from_slice(bytes);
    }

    pub fn flush(&mut self) -> io::Result<()> {
        let mut at = 0;
        while at < self.wbuf.len() {
            match self.stream.write(&self.wbuf[at..]) {
                Ok(n) => at += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    wait_ready(self.stream.as_raw_fd(), POLLOUT, None)?;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        Ok(())
    }

    /// Cut one complete server message off the read buffer, if there is
    /// one.
    pub fn parse_one(&mut self) -> io::Result<Option<ServerFrame>> {
        loop {
            let buf = &self.rbuf[self.rpos..];
            if buf.is_empty() {
                return Ok(None);
            }
            if buf[0] == FRAME_MAGIC {
                return match split_frame(buf) {
                    FrameSplit::Incomplete => Ok(None),
                    FrameSplit::Oversized { len, .. } => {
                        Err(bad_data(format!("oversized frame of {len} bytes")))
                    }
                    FrameSplit::Complete { consumed } => {
                        let content = decode_payload(&buf[FRAME_HEADER_LEN..consumed])
                            .map_err(|e| bad_data(e.to_string()))?;
                        self.rpos += consumed;
                        server_frame_from_content(&content)
                            .map(Some)
                            .map_err(|e| bad_data(e.to_string()))
                    }
                };
            }
            let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
                return Ok(None);
            };
            let text = std::str::from_utf8(&buf[..nl]).map_err(|e| bad_data(e.to_string()))?;
            let text = text.trim();
            let parsed = if text.is_empty() {
                None
            } else {
                Some(decode_server_frame(text).map_err(|e| bad_data(e.to_string()))?)
            };
            self.rpos += nl + 1;
            if parsed.is_some() {
                return Ok(parsed);
            }
        }
    }

    /// Wait up to `timeout` (`None` = indefinitely) for more input and
    /// append it to the read buffer. `Ok(false)` when nothing arrived.
    pub fn fill(&mut self, timeout: Option<Duration>) -> io::Result<bool> {
        if !wait_ready(self.stream.as_raw_fd(), POLLIN, timeout)? {
            return Ok(false);
        }
        self.try_fill()
    }

    /// Append whatever input has already arrived, without waiting.
    /// `Ok(false)` when there was none.
    pub fn try_fill(&mut self) -> io::Result<bool> {
        if self.rpos > 0 && self.rpos * 2 >= self.rbuf.len() {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        let old = self.rbuf.len();
        self.rbuf.resize(old + (1 << 16), 0);
        let got = self.stream.read(&mut self.rbuf[old..]);
        match got {
            Ok(0) => {
                self.rbuf.truncate(old);
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Ok(n) => {
                self.rbuf.truncate(old + n);
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                self.rbuf.truncate(old);
                Ok(false)
            }
            Err(e) => {
                self.rbuf.truncate(old);
                Err(e)
            }
        }
    }

    /// Block until the next complete server message.
    pub fn recv(&mut self) -> io::Result<ServerFrame> {
        loop {
            if let Some(frame) = self.parse_one()? {
                return Ok(frame);
            }
            self.fill(None)?;
        }
    }

    /// Open one logical session per entry of `sids` (bare when `None`)
    /// with the hello `hello_for` builds, and switch to binary framing
    /// when every session asked for it and the server echoed it.
    pub fn open_sessions(
        &mut self,
        sids: &[Option<u64>],
        hello_for: impl Fn(Option<u64>) -> Hello,
    ) -> io::Result<()> {
        let mut binary = true;
        for &sid in sids {
            let hello = hello_for(sid);
            binary &= hello.frame.as_deref() == Some("binary");
            self.queue(sid, &ClientMsg::hello(hello));
        }
        self.flush()?;
        let mut awaiting: Vec<Option<u64>> = sids.to_vec();
        while !awaiting.is_empty() {
            let frame = self.recv()?;
            let Some(at) = awaiting.iter().position(|s| *s == frame.sid) else {
                return Err(bad_data(format!(
                    "welcome for unexpected session: {frame:?}"
                )));
            };
            awaiting.swap_remove(at);
            match frame.msg {
                ServerMsg::welcome { frame: echoed, .. } => {
                    binary &= echoed.as_deref() == Some("binary");
                }
                other => return Err(bad_data(format!("hello refused: {other:?}"))),
            }
        }
        if binary {
            self.format = WireFormat::Binary;
        }
        Ok(())
    }
}
