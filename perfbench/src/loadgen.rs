//! `loadgen`, the benchmark's own traffic generator.
//!
//! One generator thread drives every connection through `ppoll(2)`: it
//! writes each request when it is due and reads responses as they arrive,
//! so no thread blocks the schedule. In an open loop a request is due at
//! its scheduled time whatever the server is doing, and its latency runs
//! from that time, so a stall is charged to every request it delays. In a
//! windowed loop a request is due as soon as fewer than `window` requests
//! are in flight on its connection.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use strudel_rdf::rng::StdRng;
use strudel_server::protocol::{self, FrameKind, Framing};

/// The largest response frame accepted.
const MAX_FRAME: usize = 64 * 1024 * 1024;

/// The framing a connection speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    Json,
    Bin1,
}

impl Wire {
    pub fn name(self) -> &'static str {
        match self {
            Wire::Json => "json",
            Wire::Bin1 => "bin1",
        }
    }
}

/// One request on the wire: a single element or a batch envelope.
#[derive(Clone, Debug)]
pub struct Send {
    /// Scheduled send time, from the phase's origin (open loop only).
    pub due: Duration,
    /// The encoded request: a JSON line or a `bin1` frame.
    pub bytes: Vec<u8>,
    /// Instance index of each element.
    pub elements: Vec<usize>,
    /// Whether the elements travel in a batch envelope.
    pub batch: bool,
}

/// What happened to one send.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// When the send was due, from the phase's origin.
    pub due: Duration,
    /// When its last byte was written.
    pub sent: Option<Duration>,
    /// When its response had fully arrived.
    pub done: Option<Duration>,
}

/// How sends are paced.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Each send at its `due` time.
    Open,
    /// Up to this many sends in flight per connection until the stop time
    /// (from the origin), cycling through the lane's sends: send `i` is
    /// `sends[i % sends.len()]`.
    Window(usize, Duration),
}

/// Seeded Poisson arrivals: `count` exponential gaps at `rate` per second.
pub fn poisson_schedule(rng: &mut StdRng, rate: f64, count: usize) -> Vec<Duration> {
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            at += -(1.0 - rng.next_f64()).ln() / rate;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// Encodes one request payload for a connection's framing: JSON text gets
/// its newline, a `bin1` payload its frame header.
pub fn frame(
    wire: Wire,
    json_line: impl FnOnce() -> String,
    bin_payload: impl FnOnce() -> Vec<u8>,
) -> Vec<u8> {
    match wire {
        Wire::Json => {
            let mut line = json_line().into_bytes();
            line.push(b'\n');
            line
        }
        Wire::Bin1 => {
            let payload = bin_payload();
            let mut out = Vec::with_capacity(payload.len() + 16);
            protocol::encode_frame_into(&mut out, FrameKind::Request, "", &payload);
            out
        }
    }
}

/// The payload of a request as the server decodes it: the line without
/// its newline, or the frame's payload.
pub fn payload(wire: Wire, bytes: &[u8]) -> &[u8] {
    match wire {
        Wire::Json => bytes.strip_suffix(b"\n").unwrap_or(bytes),
        Wire::Bin1 => match protocol::try_decode_frame(bytes, MAX_FRAME) {
            Ok(Some(view)) => view.payload,
            _ => bytes,
        },
    }
}

/// Opens a connection and negotiates its framing.
pub fn connect(addr: SocketAddr, wire: Wire) -> std::io::Result<TcpStream> {
    let mut stream = loop {
        match TcpStream::connect(addr) {
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            other => break other?,
        }
    };
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    if wire == Wire::Bin1 {
        stream.write_all(protocol::encode_hello(Framing::Bin1).as_bytes())?;
        stream.write_all(b"\n")?;
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((ack, _)) = next_response(Wire::Bin1, &buf)? {
                if !std::str::from_utf8(ack).is_ok_and(|a| a.contains("\"ok\":true")) {
                    return Err(std::io::Error::other("bin1 hello was refused"));
                }
                break;
            }
            match stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
    stream.set_read_timeout(None)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// The next complete response at the front of `buf`: its payload and the
/// bytes it occupies.
fn next_response(wire: Wire, buf: &[u8]) -> std::io::Result<Option<(&[u8], usize)>> {
    match wire {
        Wire::Json => Ok(buf
            .iter()
            .position(|&b| b == b'\n')
            .map(|at| (&buf[..at], at + 1))),
        Wire::Bin1 => match protocol::try_decode_frame(buf, MAX_FRAME) {
            Ok(Some(view)) if view.kind == FrameKind::Response => {
                Ok(Some((view.payload, view.consumed)))
            }
            Ok(Some(_)) => Err(std::io::Error::other("expected a response frame")),
            Ok(None) => Ok(None),
            Err(err) => Err(std::io::Error::other(err)),
        },
    }
}

/// One connection's side of a phase.
pub struct Lane<'a> {
    pub stream: &'a mut TcpStream,
    pub wire: Wire,
    pub sends: &'a [Send],
}

struct LaneState {
    next: usize,
    out: Vec<u8>,
    /// Bytes of `out` already written.
    written: usize,
    /// (send index, end offset in `out`) of sends not yet fully written.
    queued: std::collections::VecDeque<(usize, usize)>,
    inbuf: Vec<u8>,
    answered: usize,
    timings: Vec<Timing>,
}

/// Drives every lane until each send is answered or `drain` has passed
/// after the last send was due. `on_response(lane, send, payload)` sees
/// each response as it arrives. Returns the timings of each lane's sends.
pub fn drive(
    origin: Instant,
    lanes: &mut [Lane<'_>],
    pace: Pace,
    drain: Duration,
    on_response: &mut dyn FnMut(usize, usize, &[u8]),
) -> std::io::Result<Vec<Vec<Timing>>> {
    let mut states: Vec<LaneState> = lanes
        .iter()
        .map(|lane| LaneState {
            next: 0,
            out: Vec::new(),
            written: 0,
            queued: Default::default(),
            inbuf: Vec::new(),
            answered: 0,
            timings: Vec::with_capacity(lane.sends.len()),
        })
        .collect();
    let last_due = lanes
        .iter()
        .filter_map(|l| l.sends.last().map(|s| s.due))
        .max()
        .unwrap_or_default();
    let give_up = match pace {
        Pace::Open => last_due + drain,
        Pace::Window(_, stop) => stop + drain,
    };
    let mut chunk = vec![0u8; 256 * 1024];
    loop {
        let now = origin.elapsed();
        let mut next_due: Option<Duration> = None;
        let mut finished = true;
        for (li, (lane, st)) in lanes.iter_mut().zip(states.iter_mut()).enumerate() {
            // Queue every send that is due.
            let cycles = matches!(pace, Pace::Window(..)) && !lane.sends.is_empty();
            while cycles || st.next < lane.sends.len() {
                let send = &lane.sends[st.next % lane.sends.len()];
                let due = match pace {
                    Pace::Open => send.due,
                    Pace::Window(window, stop) => {
                        if now >= stop || st.next - st.answered >= window {
                            break;
                        }
                        now
                    }
                };
                if due > now {
                    next_due = Some(next_due.map_or(due, |d: Duration| d.min(due)));
                    break;
                }
                st.timings.push(Timing {
                    due,
                    ..Timing::default()
                });
                st.out.extend_from_slice(&send.bytes);
                st.queued.push_back((st.next, st.out.len()));
                st.next += 1;
            }
            // Write what is queued.
            while st.written < st.out.len() {
                match lane.stream.write(&st.out[st.written..]) {
                    Ok(0) => return Err(ErrorKind::WriteZero.into()),
                    Ok(n) => st.written += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            let sent_at = origin.elapsed();
            while let Some(&(idx, end)) = st.queued.front() {
                if end > st.written {
                    break;
                }
                st.timings[idx].sent = Some(sent_at);
                st.queued.pop_front();
            }
            if st.written == st.out.len() {
                st.out.clear();
                st.written = 0;
            }
            // Read what has arrived.
            loop {
                match lane.stream.read(&mut chunk) {
                    Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                    Ok(n) => st.inbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            let done_at = origin.elapsed();
            let mut consumed = 0;
            while let Some((body, used)) = next_response(lane.wire, &st.inbuf[consumed..])? {
                if st.answered >= st.next {
                    return Err(std::io::Error::other("a response arrived for no request"));
                }
                st.timings[st.answered].done = Some(done_at);
                on_response(li, st.answered, body);
                st.answered += 1;
                consumed += used;
            }
            st.inbuf.drain(..consumed);
            let issued_all = match pace {
                Pace::Open => st.next == lane.sends.len(),
                Pace::Window(_, stop) => lane.sends.is_empty() || now >= stop,
            };
            if !(issued_all && st.answered == st.next) {
                finished = false;
            }
        }
        if finished || origin.elapsed() > give_up {
            break;
        }
        // Sleep until a socket is ready or the next send is due.
        let wait = match pace {
            Pace::Open => next_due.map(|d| d.saturating_sub(origin.elapsed())),
            Pace::Window(..) => None,
        }
        .unwrap_or(Duration::from_millis(5))
        .min(Duration::from_millis(5));
        let fds: Vec<(i32, bool)> = lanes
            .iter()
            .zip(&states)
            .map(|(lane, st)| (lane.stream.as_raw_fd(), st.written < st.out.len()))
            .collect();
        wait_ready(&fds, wait)?;
    }
    Ok(states.into_iter().map(|st| st.timings).collect())
}

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

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits until a descriptor is readable (or writable, when it has bytes
/// pending) or `timeout` passes.
fn wait_ready(fds: &[(i32, bool)], timeout: Duration) -> std::io::Result<()> {
    let mut polled: Vec<PollFd> = fds
        .iter()
        .map(|&(fd, want_write)| PollFd {
            fd,
            events: POLLIN | if want_write { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let spec = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `polled` is a live, exclusively borrowed array of
    // `polled.len()` `struct pollfd`-layout records; `spec` is a valid
    // `struct timespec` that outlives the call; a null signal mask leaves
    // the mask unchanged. ppoll writes only the `revents` fields.
    let rc = unsafe {
        ppoll(
            polled.as_mut_ptr(),
            polled.len() as u64,
            &spec,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() != ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_replay_from_their_seed() {
        let a = poisson_schedule(&mut StdRng::seed_from_u64(42), 1000.0, 500);
        let b = poisson_schedule(&mut StdRng::seed_from_u64(42), 1000.0, 500);
        let c = poisson_schedule(&mut StdRng::seed_from_u64(43), 1000.0, 500);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 500 arrivals at 1000/s span about half a second.
        let span = a.last().expect("non-empty").as_secs_f64();
        assert!((0.35..0.65).contains(&span), "span {span}");
    }
}
