//! The one framed connection. Every socket in the system — a [`NetServer`]
//! worker serving a client, a [`RemoteSeabedClient`] or metrics scraper, a
//! `seabed-dist` coordinator talking to a worker — reads and writes frames
//! through [`FrameConn`]: one receive rule, one poison flag, one byte
//! counter, one connect.
//!
//! A receive yields a **frame**, or is **idle** (the caller's deadline or
//! stop flag fired before the first byte of the next frame: the stream is
//! still aligned, the connection healthy), **closed** (clean EOF on a frame
//! boundary), or **broken** — the `Err` arm: an I/O error, EOF or deadline
//! mid-frame, bad magic or version, a length over the limit (checked before
//! the payload is allocated), an undecodable payload. A broken receive or a
//! failed write **poisons** the connection: the stream can no longer be
//! assumed frame-aligned nor empty of stale replies, so the socket is shut
//! and every later send or receive is refused.
//!
//! Once a frame's first byte has arrived, header *and* payload share one
//! total budget that arriving bytes never extend, so a peer trickling a byte
//! per almost-timeout cannot hold a connection (or the thread serving it).
//! Callers differ only in the [`Wait`] they pass:
//!
//! | caller | before the first byte | after the first byte |
//! |---|---|---|
//! | `NetServer` | no limit; *idle* once the shutdown flag is set | whole frame within `read_timeout` of its first byte |
//! | client, `scrape_metrics` | reply starts within `read_timeout` of the request | whole reply within that same budget |
//! | coordinator | by the caller's deadline (`hedge_after` or `read_timeout`) | by that same deadline |
//!
//! [`NetServer`]: crate::NetServer
//! [`RemoteSeabedClient`]: crate::RemoteSeabedClient

use crate::wire::{self, Frame, HEADER_LEN};
use seabed_error::SeabedError;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The longest a blocked read goes without re-checking its deadline or stop
/// flag. The socket's read timeout stays armed at this value — re-armed only
/// when a deadline is nearer than one tick — so the healthy path never pays
/// a `setsockopt`.
const POLL_TICK: Duration = Duration::from_millis(50);

/// How long a receive may wait.
#[derive(Clone, Copy, Debug)]
pub enum Wait<'a> {
    /// The whole frame — first byte included — by this instant.
    Until(Instant),
    /// The first byte whenever it comes — or *idle*, promptly, once `stop` is
    /// set; from the first byte, the whole frame within `budget`.
    Serve {
        /// Checked while no byte of the next frame has arrived.
        stop: &'a AtomicBool,
        /// Total time a started frame may take.
        budget: Duration,
    },
}

/// The healthy outcomes of a receive (a broken one is the `Err` arm).
#[derive(Debug, PartialEq)]
pub enum Received<T> {
    /// One whole frame.
    Frame(T),
    /// The wait ran out on a frame boundary; nothing was consumed.
    Idle,
    /// The peer closed the connection on a frame boundary.
    Closed,
}

/// Byte and frame accounting of one connection, counted off the socket. The
/// totals survive poisoning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames sent — on a client's connection, its requests (including the
    /// schema handshake).
    pub requests: u64,
    /// Total bytes written to the socket.
    pub bytes_sent: u64,
    /// Total bytes read from the socket, partial frames included.
    pub bytes_received: u64,
    /// Size of the most recent frame sent (header + payload).
    pub last_request_bytes: u64,
    /// Size of the most recent whole frame received (header + payload).
    pub last_response_bytes: u64,
}

/// A framed TCP connection; the module docs state the rules it enforces.
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
    /// The read timeout currently set on the socket.
    armed: Duration,
    poisoned: bool,
    stats: WireStats,
}

impl FrameConn {
    /// Resolves `addr`, connects, and wraps the stream.
    pub fn connect(addr: impl ToSocketAddrs, write_timeout: Duration) -> Result<FrameConn, SeabedError> {
        let peer = addr
            .to_socket_addrs()
            .map_err(|e| SeabedError::net(format!("resolve: {e}")))?
            .next()
            .ok_or_else(|| SeabedError::net("address resolved to nothing"))?;
        let stream = TcpStream::connect(peer).map_err(|e| SeabedError::net(format!("connect {peer}: {e}")))?;
        FrameConn::from_stream(stream, write_timeout)
    }

    /// Wraps a connected stream (the accepting side's entry point). Fails if
    /// the socket timeouts cannot be set: without them a stalled peer would
    /// block its thread for good.
    pub fn from_stream(stream: TcpStream, write_timeout: Duration) -> Result<FrameConn, SeabedError> {
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(POLL_TICK))
            .and_then(|()| stream.set_write_timeout(Some(write_timeout)))
            .map_err(|e| SeabedError::net(format!("set socket timeouts: {e}")))?;
        Ok(FrameConn {
            stream,
            armed: POLL_TICK,
            poisoned: false,
            stats: WireStats::default(),
        })
    }

    /// The address of the other end.
    pub fn peer_addr(&self) -> Result<SocketAddr, SeabedError> {
        self.stream
            .peer_addr()
            .map_err(|e| SeabedError::net(format!("peer_addr: {e}")))
    }

    /// A snapshot of the connection's byte and frame accounting.
    pub fn stats(&self) -> WireStats {
        self.stats
    }

    /// True once a failure made the stream unusable.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Poisons the connection and shuts the socket, handing `why` back for
    /// the caller to return. Called here on every broken receive and failed
    /// write, and by callers on a violation only they can see (a reply that
    /// pairs with no request).
    pub fn poison(&mut self, why: SeabedError) -> SeabedError {
        self.poisoned = true;
        let _ = self.stream.shutdown(Shutdown::Both);
        why
    }

    fn refuse_if_poisoned(&self) -> Result<(), SeabedError> {
        if self.poisoned {
            return Err(SeabedError::net(
                "connection poisoned by an earlier failure; reconnect to continue",
            ));
        }
        Ok(())
    }

    /// Encodes and writes one frame. A frame that does not fit
    /// `max_frame_len` is a deterministic local error: nothing was written
    /// and the connection stays healthy.
    pub fn send(&mut self, frame: &Frame, max_frame_len: u32) -> Result<(), SeabedError> {
        self.send_encoded(&wire::encode_frame(frame, max_frame_len)?)
    }

    /// Writes one frame encoded by [`wire::encode_frame`]; a failed write
    /// poisons.
    pub fn send_encoded(&mut self, bytes: &[u8]) -> Result<(), SeabedError> {
        self.refuse_if_poisoned()?;
        if let Err(e) = self.stream.write_all(bytes) {
            return Err(self.poison(SeabedError::net(format!("send: {e}"))));
        }
        self.stats.requests += 1;
        self.stats.bytes_sent += bytes.len() as u64;
        self.stats.last_request_bytes = bytes.len() as u64;
        Ok(())
    }

    /// Receives one frame and decodes it; an undecodable payload is broken.
    pub fn recv(&mut self, max_frame_len: u32, wait: Wait<'_>) -> Result<Received<Frame>, SeabedError> {
        Ok(match self.recv_raw(max_frame_len, wait)? {
            Received::Frame((kind, payload)) => {
                Received::Frame(wire::decode_payload(kind, &payload).map_err(|e| self.poison(e))?)
            }
            Received::Idle => Received::Idle,
            Received::Closed => Received::Closed,
        })
    }

    /// Receives one frame as `(kind byte, payload)` without decoding it, for
    /// the caller that answers a malformed payload on an intact frame
    /// boundary with a typed error instead of dropping the connection.
    pub fn recv_raw(&mut self, max_frame_len: u32, wait: Wait<'_>) -> Result<Received<(u8, Vec<u8>)>, SeabedError> {
        self.refuse_if_poisoned()?;
        self.read_frame(max_frame_len, wait).map_err(|err| self.poison(err))
    }

    /// The framing loop proper; every error out of here poisons.
    fn read_frame(&mut self, max_frame_len: u32, wait: Wait<'_>) -> Result<Received<(u8, Vec<u8>)>, SeabedError> {
        // `Serve` fixes the deadline when the first byte arrives.
        let mut deadline = match wait {
            Wait::Until(at) => Some(at),
            Wait::Serve { .. } => None,
        };
        let mut header = [0u8; HEADER_LEN];
        match self.fill(&mut header, false, wait, &mut deadline)? {
            Received::Frame(()) => {}
            Received::Idle => return Ok(Received::Idle),
            Received::Closed => return Ok(Received::Closed),
        }
        let header = wire::decode_header(&header, max_frame_len).inspect_err(|err| {
            // Not this protocol, not this version, or a length over the
            // limit: tell the peer why (best effort) before dropping it.
            if let Ok(bytes) = wire::encode_frame(&Frame::Error(err.clone()), max_frame_len) {
                if self.stream.write_all(&bytes).is_ok() {
                    self.stats.bytes_sent += bytes.len() as u64;
                }
            }
        })?;
        let mut payload = vec![0u8; header.payload_len as usize];
        // A started frame only completes or breaks.
        self.fill(&mut payload, true, wait, &mut deadline)?;
        self.stats.last_response_bytes = (HEADER_LEN + payload.len()) as u64;
        Ok(Received::Frame((header.kind, payload)))
    }

    /// Fills `buf` from the socket. `started` says whether a byte of the
    /// current frame has already been consumed: before that, running out of
    /// time is *idle* and EOF is *closed*; after it, both are errors.
    fn fill(
        &mut self,
        buf: &mut [u8],
        mut started: bool,
        wait: Wait<'_>,
        deadline: &mut Option<Instant>,
    ) -> Result<Received<()>, SeabedError> {
        let mut filled = 0;
        while filled < buf.len() {
            let tick = match (*deadline, wait) {
                (Some(deadline), _) => match deadline.saturating_duration_since(Instant::now()) {
                    Duration::ZERO if started => {
                        return Err(SeabedError::net("peer stalled mid-frame past the read timeout"))
                    }
                    Duration::ZERO => return Ok(Received::Idle),
                    left => left.min(POLL_TICK),
                },
                (None, Wait::Serve { stop, .. }) if stop.load(Ordering::SeqCst) => return Ok(Received::Idle),
                (None, _) => POLL_TICK,
            };
            if tick != self.armed {
                self.stream
                    .set_read_timeout(Some(tick))
                    .map_err(|e| SeabedError::net(format!("set_read_timeout: {e}")))?;
                self.armed = tick;
            }
            match self.stream.read(&mut buf[filled..]) {
                Ok(0) if started => return Err(SeabedError::net("peer closed the connection mid-frame")),
                Ok(0) => return Ok(Received::Closed),
                Ok(n) => {
                    filled += n;
                    started = true;
                    self.stats.bytes_received += n as u64;
                    if let (None, Wait::Serve { budget, .. }) = (*deadline, wait) {
                        *deadline = Some(Instant::now() + budget);
                    }
                }
                // A tick passed (or a signal landed): re-check the clock.
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(SeabedError::net(format!("receive: {e}"))),
            }
        }
        Ok(Received::Frame(()))
    }

    /// Receives the reply to an outstanding request, all of it by `deadline`.
    /// A reply that does not come (closed, idle) is as broken as one that
    /// comes mangled — except that with `hedge` idleness is `Ok(None)` and
    /// the connection stays healthy, for the caller that will ask elsewhere
    /// and discard the late reply by its sequence number.
    pub fn recv_reply(
        &mut self,
        max_frame_len: u32,
        deadline: Instant,
        hedge: bool,
    ) -> Result<Option<Frame>, SeabedError> {
        match self.recv(max_frame_len, Wait::Until(deadline))? {
            Received::Frame(reply) => Ok(Some(reply)),
            Received::Idle if hedge => Ok(None),
            Received::Idle => Err(self.poison(SeabedError::net("peer stalled past the read timeout"))),
            Received::Closed => Err(self.poison(SeabedError::net("peer closed the connection"))),
        }
    }

    /// One request/response exchange: sends `frame`, then receives the whole
    /// reply within `timeout` of the request being written.
    pub fn round_trip(&mut self, frame: &Frame, max_frame_len: u32, timeout: Duration) -> Result<Frame, SeabedError> {
        self.send(frame, max_frame_len)?;
        let reply = self.recv_reply(max_frame_len, Instant::now() + timeout, false)?;
        Ok(reply.expect("only a hedged receive returns without a reply"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::DEFAULT_MAX_FRAME_LEN as MAX;
    use std::net::TcpListener;

    const PATIENCE: Duration = Duration::from_secs(10);

    /// A connection under test plus the raw socket of its scripted peer.
    fn pair() -> (FrameConn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let conn = FrameConn::connect(listener.local_addr().expect("addr"), PATIENCE).expect("connect");
        let (peer, _) = listener.accept().expect("accept");
        (conn, peer)
    }

    fn within(budget: Duration) -> Wait<'static> {
        Wait::Until(Instant::now() + budget)
    }

    /// A valid header promising `payload_len` bytes of a `ShardPartial`.
    fn header(payload_len: u32) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&wire::MAGIC);
        bytes.extend_from_slice(&wire::PROTOCOL_VERSION.to_le_bytes());
        bytes.push(11);
        bytes.extend_from_slice(&payload_len.to_le_bytes());
        bytes
    }

    fn assert_poisoned(conn: &mut FrameConn) {
        assert!(conn.is_poisoned());
        for refused in [
            conn.send(&Frame::SchemaRequest, MAX),
            conn.recv(MAX, within(PATIENCE)).map(|_| ()),
        ] {
            match refused {
                Err(SeabedError::Net(msg)) => assert!(msg.contains("poisoned"), "{msg}"),
                other => panic!("a poisoned connection must refuse traffic, got {other:?}"),
            }
        }
    }

    #[test]
    fn idle_expiry_leaves_the_stream_aligned() {
        let (mut conn, mut peer) = pair();
        let started = Instant::now();
        let idle = conn
            .recv(MAX, within(Duration::from_millis(80)))
            .expect("idle is healthy");
        assert_eq!(idle, Received::Idle);
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "{:?}",
            started.elapsed()
        );
        assert!(!conn.is_poisoned());
        // An already-expired deadline is idle too, without touching the socket.
        assert_eq!(conn.recv(MAX, within(Duration::ZERO)).expect("idle"), Received::Idle);
        // The late frame arrives intact on the next receive.
        let late = Frame::WorkerReady { epoch: 9, shards: 3 };
        peer.write_all(&wire::encode_frame(&late, MAX).expect("encode"))
            .expect("write");
        assert_eq!(conn.recv(MAX, within(PATIENCE)).expect("frame"), Received::Frame(late));
    }

    #[test]
    fn a_stall_after_the_header_is_broken_and_poisons() {
        let (mut conn, mut peer) = pair();
        peer.write_all(&header(64)).expect("header");
        let started = Instant::now();
        let broken = conn.recv(MAX, within(Duration::from_millis(120)));
        assert!(matches!(broken, Err(SeabedError::Net(_))), "{broken:?}");
        assert!(
            started.elapsed() < Duration::from_millis(600),
            "{:?}",
            started.elapsed()
        );
        assert_poisoned(&mut conn);
    }

    /// Bytes arriving never extend a started frame's budget — in either wait
    /// mode — and a stop flag raised mid-frame does not cut the frame short.
    #[test]
    fn a_trickled_frame_runs_out_of_one_total_budget() {
        for serve in [false, true] {
            let (mut conn, mut peer) = pair();
            let trickler = std::thread::spawn(move || {
                let mut bytes = header(1_000);
                bytes.resize(1_000, 0);
                for byte in bytes {
                    if peer.write_all(&[byte]).is_err() {
                        return; // the poisoned connection was shut
                    }
                    std::thread::sleep(Duration::from_millis(40));
                }
            });
            let stop = AtomicBool::new(false);
            let budget = Duration::from_millis(200);
            let wait = if serve {
                Wait::Serve { stop: &stop, budget }
            } else {
                within(budget)
            };
            let started = Instant::now();
            let broken = conn.recv(MAX, wait);
            assert!(matches!(broken, Err(SeabedError::Net(_))), "serve={serve}: {broken:?}");
            assert!(started.elapsed() < budget * 3, "serve={serve}: {:?}", started.elapsed());
            assert_poisoned(&mut conn);
            trickler.join().expect("trickler");
        }
    }

    #[test]
    fn serve_waits_without_limit_until_stopped() {
        let (mut conn, mut peer) = pair();
        let stop = AtomicBool::new(false);
        let wait = Wait::Serve {
            stop: &stop,
            budget: Duration::from_millis(100),
        };
        std::thread::scope(|scope| {
            // Idle far longer than the frame budget, then a frame: served.
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(250));
                peer.write_all(&wire::encode_frame(&Frame::SchemaRequest, MAX).expect("encode"))
                    .expect("write");
            });
            let frame = conn.recv(MAX, wait).expect("frame");
            assert_eq!(frame, Received::Frame(Frame::SchemaRequest));
        });
        // Stopped while idle: promptly idle, and healthy.
        stop.store(true, Ordering::SeqCst);
        let started = Instant::now();
        assert_eq!(conn.recv(MAX, wait).expect("idle"), Received::Idle);
        assert!(started.elapsed() < POLL_TICK * 4, "{:?}", started.elapsed());
        assert!(!conn.is_poisoned());
    }

    #[test]
    fn eof_on_a_boundary_is_closed_and_mid_frame_is_broken() {
        let (mut conn, peer) = pair();
        drop(peer);
        assert_eq!(conn.recv(MAX, within(PATIENCE)).expect("closed"), Received::Closed);
        assert!(!conn.is_poisoned());

        let (mut conn, mut peer) = pair();
        peer.write_all(&header(64)[..5]).expect("half a header");
        drop(peer);
        let broken = conn.recv(MAX, within(PATIENCE));
        assert!(matches!(broken, Err(SeabedError::Net(_))), "{broken:?}");
        assert_poisoned(&mut conn);
    }

    /// A forged length and a bad magic are typed `Wire` errors raised off the
    /// 11 header bytes alone — nothing is allocated or read for the payload
    /// the header promised — and the peer is told why before the close.
    #[test]
    fn forged_length_and_bad_magic_are_typed_errors_before_any_payload() {
        let mut bad_magic = header(0);
        bad_magic[0] = b'X';
        for forged in [header(u32::MAX), bad_magic] {
            let (mut conn, mut peer) = pair();
            peer.write_all(&forged).expect("forged header");
            let broken = conn.recv(MAX, within(PATIENCE));
            assert!(matches!(broken, Err(SeabedError::Wire(_))), "{broken:?}");
            assert_eq!(conn.stats().bytes_received, HEADER_LEN as u64);
            assert_poisoned(&mut conn);
            let mut parting = Vec::new();
            peer.read_to_end(&mut parting).expect("parting frame, then EOF");
            assert!(
                matches!(
                    wire::decode_frame(&parting, MAX),
                    Ok(Frame::Error(SeabedError::Wire(_)))
                ),
                "{parting:?}"
            );
        }
    }

    #[test]
    fn an_undecodable_payload_breaks_recv_but_recv_raw_hands_it_back() {
        let mut garbage = header(4);
        garbage.extend_from_slice(&[0xff; 4]);

        let (mut conn, mut peer) = pair();
        peer.write_all(&garbage).expect("write");
        let broken = conn.recv(MAX, within(PATIENCE));
        assert!(matches!(broken, Err(SeabedError::Wire(_))), "{broken:?}");
        assert_poisoned(&mut conn);

        let (mut conn, mut peer) = pair();
        peer.write_all(&garbage).expect("write");
        let raw = conn.recv_raw(MAX, within(PATIENCE)).expect("an intact frame boundary");
        assert_eq!(raw, Received::Frame((11, vec![0xff; 4])));
        assert!(!conn.is_poisoned());
    }

    #[test]
    fn an_over_limit_frame_fails_send_without_poisoning() {
        let (mut conn, mut peer) = pair();
        let big = Frame::Error(SeabedError::wire("x".repeat(100)));
        assert!(matches!(conn.send(&big, 16), Err(SeabedError::Wire(_))));
        assert!(!conn.is_poisoned());
        assert_eq!(conn.stats().bytes_sent, 0);
        conn.send(&Frame::SchemaRequest, 16)
            .expect("the connection still works");
        let mut seen = [0u8; HEADER_LEN];
        peer.read_exact(&mut seen).expect("the small frame");
    }

    #[test]
    fn counters_equal_the_bytes_the_peer_saw_and_survive_poisoning() {
        let (mut conn, mut peer) = pair();
        conn.send(&Frame::SchemaRequest, MAX).expect("send");
        conn.send(&Frame::WorkerHandshake { epoch: 77 }, MAX).expect("send");
        let reply = wire::encode_frame(&Frame::WorkerReady { epoch: 77, shards: 0 }, MAX).expect("encode");
        peer.write_all(&reply).expect("reply");
        peer.write_all(&header(64)[..7]).expect("then part of a header");
        assert!(matches!(conn.recv(MAX, within(PATIENCE)), Ok(Received::Frame(_))));
        peer.shutdown(Shutdown::Write).expect("half-close");
        assert!(conn.recv(MAX, within(PATIENCE)).is_err(), "EOF mid-header is broken");
        assert!(conn.is_poisoned());
        assert_eq!(conn.stats().bytes_received, reply.len() as u64 + 7);
        let mut seen = Vec::new();
        peer.read_to_end(&mut seen).expect("everything the connection wrote");
        assert_eq!(conn.stats().bytes_sent, seen.len() as u64);
    }
}
