//! Is worker *w* alive: the coordinator's end of one worker connection — the
//! only file in this crate that names the socket type.
//!
//! A [`WorkerLink`] keeps the framed connection behind its own mutex — the
//! one lock in the coordinator that *is* held across I/O, one exchange at a
//! time per worker — and **publishes** the connection's byte totals and its
//! state to atomics as that lock is released ([`LockedLink`]'s drop). Health
//! reads (`alive()`, the worker summaries, the live-workers gauge, every
//! placement rule's liveness predicate) read the atomics and never queue
//! behind an exchange. The state only moves forward, `Live → Poisoned →
//! Left` (or straight `Live → Left`):
//!
//! * `→ Poisoned`, by the guard that saw it: an exchange broke, or a reply
//!   failed the coordinator's shape check. The connection is kept, not
//!   dropped: it refuses all traffic while the summary still reports the
//!   bytes it really shipped.
//! * `→ Left`, by [`WorkerLink::retire`]: `leave_worker` committed the
//!   leaver's re-homing. Nothing moves a link back; a worker that returns
//!   does so through `join_worker`, as a new slot.
//!
//! A link sends **bytes**: [`WorkerLink::encode`] (or, for a shard load or a
//! shard query, the coordinator's borrowed encoders) makes the frame,
//! [`LockedLink::send`] writes it and [`LockedLink::receive`] runs the one
//! receive loop; [`LockedLink::exchange`] is the two back to back. Split, they
//! let the coordinator's scatter write a query on every link before it reads
//! any reply, so the workers overlap without a thread per link; it locks the
//! links in ascending worker order.
//!
//! A reply must echo the `(epoch, shard, seq)` of the request in flight — the
//! `seabed-net` rule that a response can never be paired with the wrong
//! request. The merge algebra is *not* idempotent, so discarding stale
//! sequence numbers here is all that stands between a duplicated partial and
//! a silently doubled sum.

use crate::coordinator::DistConfig;
use seabed_error::SeabedError;
use seabed_net::wire::{self, Frame};
use seabed_net::FrameConn;
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Where a link stands; the discriminant order is the only direction it
/// moves.
#[derive(Clone, Copy)]
#[repr(u8)]
enum LinkState {
    Live,
    Poisoned,
    Left,
}

/// What one query did on the links it used: filled by [`LockedLink::receive`]
/// and the hedge path of that query alone, and reported as its own.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Tally {
    /// Hedged reads launched (slow primaries raced against a replica).
    pub(crate) hedged: u64,
    /// Stale (duplicate, hedge-loser, or late) partials drained and thrown
    /// away.
    pub(crate) discarded: u64,
}

/// One worker as the coordinator sees it.
pub(crate) struct WorkerLink {
    /// Resolved address of the worker.
    pub(crate) label: String,
    /// Guarded per worker, so requests to *different* workers never contend.
    conn: Mutex<FrameConn>,
    /// The coordinator's shard epoch, frame limit and round-trip budget,
    /// fixed for the link.
    epoch: u64,
    max_frame_len: u32,
    read_timeout: Duration,
    /// A [`LinkState`], advanced with `fetch_max` and read with `Acquire`:
    /// whoever sees a link past `Live` also sees it refuse traffic.
    state: AtomicU8,
    /// Shard queries answered by this worker.
    pub(crate) queries: AtomicU64,
    /// The connection's byte totals as of the last released guard: with no
    /// exchange in flight, exactly the connection's own.
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) bytes_received: AtomicU64,
}

/// A [`WorkerLink`] with its connection lock held. Dropping it publishes the
/// connection's byte totals and, if the connection broke meanwhile, moves
/// the link to `Poisoned`.
pub(crate) struct LockedLink<'a> {
    link: &'a WorkerLink,
    conn: MutexGuard<'a, FrameConn>,
}

impl Drop for LockedLink<'_> {
    fn drop(&mut self) {
        let totals = self.conn.stats();
        self.link.bytes_sent.store(totals.bytes_sent, Ordering::Relaxed);
        self.link.bytes_received.store(totals.bytes_received, Ordering::Relaxed);
        if self.conn.is_poisoned() {
            self.link.advance(LinkState::Poisoned);
        }
    }
}

impl WorkerLink {
    /// Takes this worker's connection lock. A caller that numbers its
    /// request draws the number *under* the lock, so sequence numbers reach
    /// the worker in the order they were drawn.
    pub(crate) fn lock(&self) -> LockedLink<'_> {
        LockedLink {
            link: self,
            conn: crate::lock(&self.conn),
        }
    }

    fn advance(&self, to: LinkState) {
        self.state.fetch_max(to as u8, Ordering::AcqRel);
    }

    /// True while the link is `Live`. Wait-free.
    pub(crate) fn alive(&self) -> bool {
        self.state.load(Ordering::Acquire) == LinkState::Live as u8
    }

    /// True once the worker left the cluster. Wait-free.
    pub(crate) fn has_left(&self) -> bool {
        self.state.load(Ordering::Acquire) == LinkState::Left as u8
    }

    /// Poisons the connection over a violation only the caller can see (a
    /// well-framed reply of the wrong shape), handing `why` back.
    pub(crate) fn poison(&self, why: SeabedError) -> SeabedError {
        self.lock().poison(why)
    }

    /// Encodes `frame` under this link's frame limit. One too large is a
    /// local failure: nothing is written and the worker is not condemned.
    pub(crate) fn encode(&self, frame: &Frame) -> Result<Vec<u8>, SeabedError> {
        wire::encode_frame(frame, self.max_frame_len)
    }

    /// An un-hedged, already encoded command outside any query — handshake,
    /// load, unload — that `is_ack` recognises the acknowledgement of. A
    /// stale partial (say a hedge-abandoned reply landing between requests)
    /// is drained, not mistaken for a bad ack, and belongs to no query's
    /// tally.
    pub(crate) fn command(&self, command: &[u8], is_ack: impl Fn(&Frame) -> bool) -> Result<(), SeabedError> {
        let mut locked = self.lock();
        let ack = locked.exchange(command, None, u64::MAX, &mut Tally::default(), is_ack);
        ack.map(|_| ())
    }

    /// Shuts the connection and moves the link to `Left`, for good.
    pub(crate) fn retire(&self) {
        let _ = self.poison(SeabedError::dist(&self.label, "worker left the cluster"));
        self.advance(LinkState::Left);
    }
}

impl<'a> LockedLink<'a> {
    /// Writes `request`, one encoded frame ([`WorkerLink::encode`]), on this
    /// worker's connection; a failed write poisons it.
    pub(crate) fn send(&mut self, request: &[u8]) -> Result<(), SeabedError> {
        self.conn.send_encoded(request)
    }

    /// Receives the reply to `request`, the frame last [`send`](Self::send)
    /// wrote, all of it by `deadline`: receives until a frame `is_echo` and
    /// returns it. A partial of this epoch with a sequence number below
    /// `stale_below` — a duplicate, a hedge loser, a late answer — is drained
    /// and counted in `tally`, never mistaken for the reply.
    ///
    /// The two failure levels of the coordinator's module docs are told
    /// apart here: the exchange itself breaking (transport failure, desync,
    /// a stall past the deadline, a frame neither echo nor stale) **poisons**
    /// the connection; a well-framed error frame from the worker is returned
    /// as the error it carries and leaves the healthy connection alone. With
    /// `hedge`, running dry before any byte of the reply is `Ok(None)`,
    /// connection healthy — at once, without a read, when the deadline has
    /// already passed; a mid-frame stall always poisons.
    pub(crate) fn receive(
        &mut self,
        request: &[u8],
        deadline: Instant,
        hedge: bool,
        stale_below: u64,
        tally: &mut Tally,
        is_echo: impl Fn(&Frame) -> bool,
    ) -> Result<Option<Frame>, SeabedError> {
        let link = self.link;
        loop {
            let reply = self.conn.recv_reply(link.max_frame_len, deadline, hedge)?;
            match reply {
                None => return Ok(None),
                Some(echo) if is_echo(&echo) => return Ok(Some(echo)),
                Some(Frame::ShardPartial { epoch, seq, .. }) if epoch == link.epoch && seq < stale_below => {
                    tally.discarded += 1;
                }
                Some(Frame::Error(reported)) => return Err(reported),
                Some(other) => {
                    let asked = wire::encoded_kind(request);
                    let violation = format!("expected the reply to {asked:?}, got {:?}", other.kind());
                    return Err(self.poison(SeabedError::dist(&link.label, violation)));
                }
            }
        }
    }

    /// One request/reply exchange: [`send`](Self::send), then
    /// [`receive`](Self::receive) under one budget — the link's
    /// `read_timeout`, unless `hedge_after` undercuts it and arms the hedge.
    pub(crate) fn exchange(
        &mut self,
        request: &[u8],
        hedge_after: Option<Duration>,
        stale_below: u64,
        tally: &mut Tally,
        is_echo: impl Fn(&Frame) -> bool,
    ) -> Result<Option<Frame>, SeabedError> {
        self.send(request)?;
        let deadline = Instant::now() + hedge_after.unwrap_or(self.link.read_timeout);
        self.receive(request, deadline, hedge_after.is_some(), stale_below, tally, is_echo)
    }

    /// Poisons the held connection over a violation only the caller can see
    /// (a well-framed reply of the wrong shape), handing `why` back.
    pub(crate) fn poison(&mut self, why: SeabedError) -> SeabedError {
        self.conn.poison(why)
    }

    /// The link whose connection is held.
    pub(crate) fn link(&self) -> &'a WorkerLink {
        self.link
    }
}

/// Unwraps the reply of an un-hedged [`LockedLink::receive`], which runs to a
/// reply or an error: only a hedged one abandons its wait.
pub(crate) fn answered<T>(reply: Option<T>) -> T {
    reply.expect("only a hedged receive abandons the wait")
}

/// Liveness by worker index over a snapshot of the pool (an index outside it
/// is not alive): the predicate every placement rule takes.
pub(crate) fn live(pool: &[Arc<WorkerLink>]) -> impl Fn(usize) -> bool + '_ {
    move |w| pool.get(w).is_some_and(|link| link.alive())
}

/// Connects to one worker and performs the epoch handshake under the
/// configured round-trip budget.
pub(crate) fn connect_worker<A: ToSocketAddrs>(
    addr: &A,
    epoch: u64,
    config: &DistConfig,
) -> Result<WorkerLink, SeabedError> {
    let conn = FrameConn::connect(addr, config.read_timeout)?;
    let link = WorkerLink {
        label: conn.peer_addr()?.to_string(),
        conn: Mutex::new(conn),
        epoch,
        max_frame_len: config.max_frame_len,
        read_timeout: config.read_timeout,
        state: AtomicU8::new(LinkState::Live as u8),
        queries: AtomicU64::new(0),
        bytes_sent: AtomicU64::new(0),
        bytes_received: AtomicU64::new(0),
    };
    let ready = |frame: &Frame| matches!(frame, Frame::WorkerReady { epoch: e, .. } if *e == epoch);
    link.command(&link.encode(&Frame::WorkerHandshake { epoch })?, ready)?;
    Ok(link)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seabed_core::PartialResponse;
    use seabed_engine::merge::PartialGroups;
    use seabed_engine::ExecStats;
    use seabed_net::wire;
    use seabed_net::{Received, Wait};
    use std::net::TcpListener;

    const MAX: u32 = wire::DEFAULT_MAX_FRAME_LEN;
    const EPOCH: u64 = 7;

    fn next(conn: &mut FrameConn) -> Frame {
        match conn.recv(MAX, Wait::Until(Instant::now() + Duration::from_secs(10))) {
            Ok(Received::Frame(frame)) => frame,
            other => panic!("the coordinator went quiet: {other:?}"),
        }
    }

    /// A scripted worker: acks the handshake, answers one unload with a
    /// stale partial followed by the ack, then hangs up.
    fn scripted_peer(listener: TcpListener) {
        let (stream, _) = listener.accept().expect("accept");
        let mut conn = FrameConn::from_stream(stream, Duration::from_secs(10)).expect("wrap");
        assert!(matches!(next(&mut conn), Frame::WorkerHandshake { epoch: EPOCH }));
        let ready = Frame::WorkerReady {
            epoch: EPOCH,
            shards: 0,
        };
        conn.send(&ready, MAX).expect("ready");
        assert!(matches!(next(&mut conn), Frame::UnloadShard { .. }));
        let stale = Frame::ShardPartial {
            epoch: EPOCH,
            table_id: 0,
            shard: 0,
            seq: 3,
            partial: PartialResponse {
                groups: PartialGroups::new(),
                stats: ExecStats::default(),
            },
        };
        conn.send(&stale, MAX).expect("stale partial");
        let ack = Frame::ShardUnloaded {
            epoch: EPOCH,
            table_id: 0,
            shard: 0,
            remaining: 0,
        };
        conn.send(&ack, MAX).expect("ack");
    }

    /// A command that does not fit the link's frame limit fails where it is
    /// encoded — a typed `Wire` error, before the connection is touched:
    /// nothing is written, the link stays `Live`, and the next command goes
    /// through.
    #[test]
    fn an_over_limit_command_fails_at_encode_and_leaves_the_link_healthy() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut conn = FrameConn::from_stream(stream, Duration::from_secs(10)).expect("wrap");
            for shards in 0..2 {
                assert!(matches!(next(&mut conn), Frame::WorkerHandshake { epoch: EPOCH }));
                let ready = Frame::WorkerReady { epoch: EPOCH, shards };
                conn.send(&ready, MAX).expect("ready");
            }
        });
        let mut config = DistConfig::default().read_timeout(Duration::from_secs(5));
        config.max_frame_len = 32;
        let link = connect_worker(&addr, EPOCH, &config).expect("handshake");
        let sent = link.bytes_sent.load(Ordering::Relaxed);

        let big = Frame::Error(SeabedError::wire("x".repeat(100)));
        assert!(matches!(link.encode(&big), Err(SeabedError::Wire(_))));
        assert!(link.alive());
        assert_eq!(link.lock().conn.stats().bytes_sent, sent, "nothing was written");

        let again = link.encode(&Frame::WorkerHandshake { epoch: EPOCH }).expect("fits");
        let ready = |frame: &Frame| matches!(frame, Frame::WorkerReady { shards: 1, .. });
        link.command(&again, ready).expect("the link still works");
        peer.join().expect("peer");
    }

    /// An unload through the bare exchange, so the test owns the tally.
    fn unload(link: &WorkerLink, tally: &mut Tally) -> Result<(), SeabedError> {
        let frame = Frame::UnloadShard {
            epoch: EPOCH,
            table_id: 0,
            shard: 0,
        };
        let is_ack = |frame: &Frame| matches!(frame, Frame::ShardUnloaded { remaining: 0, .. });
        let ack = link
            .lock()
            .exchange(&link.encode(&frame)?, None, u64::MAX, tally, is_ack)?;
        assert!(ack.is_some(), "an un-hedged exchange runs to a reply or an error");
        Ok(())
    }

    /// The published totals are the connection's own once a guard is
    /// released, a health read never takes the connection lock, the caller's
    /// tally (and nothing shared) counts a drained partial, and the state
    /// moves `Live → Poisoned → Left` and never back.
    #[test]
    fn a_link_publishes_on_release_and_only_moves_forward() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || scripted_peer(listener));
        let config = DistConfig::default().read_timeout(Duration::from_secs(5));
        let link = connect_worker(&addr, EPOCH, &config).expect("handshake");

        let published_equals_the_connection = |link: &WorkerLink| {
            let totals = link.lock().conn.stats();
            assert_eq!(link.bytes_sent.load(Ordering::Relaxed), totals.bytes_sent);
            assert_eq!(link.bytes_received.load(Ordering::Relaxed), totals.bytes_received);
            totals
        };
        let after_handshake = published_equals_the_connection(&link);
        assert!(after_handshake.bytes_sent > 0 && after_handshake.bytes_received > 0);

        // With the connection lock held by this very thread, a health read
        // that took it would never return.
        let held = link.lock();
        assert!(link.alive() && !link.has_left());
        assert_eq!(link.bytes_sent.load(Ordering::Relaxed), after_handshake.bytes_sent);
        drop(held);

        let mut tally = Tally::default();
        unload(&link, &mut tally).expect("unload");
        assert_eq!((tally.discarded, tally.hedged), (1, 0));
        assert!(published_equals_the_connection(&link).bytes_received > after_handshake.bytes_received);
        assert!(link.alive());

        // The peer has hung up: the next exchange breaks, and the guard that
        // saw it publishes `Poisoned` as it is released.
        peer.join().expect("peer");
        assert!(unload(&link, &mut tally).is_err());
        assert!(!link.alive() && !link.has_left());
        published_equals_the_connection(&link);

        link.retire();
        assert!(link.has_left() && !link.alive());
        // Another broken guard release does not pull it back to `Poisoned`.
        assert!(unload(&link, &mut tally).is_err());
        assert!(link.has_left());
    }
}
