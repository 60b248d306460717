//! Slow-peer regressions for the one framing rule (`seabed_net::FrameConn`):
//! once a frame's first byte has arrived, the whole frame shares one total
//! budget that arriving bytes never extend. A peer that stalls after a
//! header, or trickles a frame one byte per almost-timeout, is cut off within
//! that budget — on the server (where it would otherwise pin a worker thread
//! and starve the connections queued behind it) and on the client (where it
//! would otherwise hang a query for `interval × frame length`).

use seabed_core::{
    EncryptedAggregate, GroupResult, QueryTarget, SeabedClient, SeabedServer, SeabedSession, ServerResponse,
};
use seabed_engine::{Cluster, ClusterConfig, ColumnData, ColumnType, ExecStats, Schema, Table};
use seabed_error::SeabedError;
use seabed_net::wire::{self, Frame};
use seabed_net::{FrameConn, NetServer, Received, RemoteSeabedClient, ServiceConfig, Wait};
use seabed_query::{parse, ColumnSpec, PlannerConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const MAX: u32 = wire::DEFAULT_MAX_FRAME_LEN;

fn tiny_server() -> SeabedServer {
    let table = Table::from_columns(
        Schema::new([("x".to_string(), ColumnType::UInt64)]),
        vec![ColumnData::UInt64((0..10).collect())],
        1,
    );
    SeabedServer::new(table, Cluster::new(ClusterConfig::default().local_threads(1)))
}

/// A single-worker service; peer A sends a valid header promising 1 000
/// payload bytes and then either goes silent or trickles one byte per
/// ⅔·`read_timeout`. A must be disconnected within ~2× `read_timeout` of its
/// first byte, and peer B's `SchemaRequest`, queued behind A for the one
/// worker thread, must then be answered.
fn slow_peer_is_cut_off_and_the_queue_moves(trickle: bool) {
    let read_timeout = Duration::from_millis(300);
    let config = ServiceConfig {
        read_timeout,
        ..ServiceConfig::default().worker_threads(1)
    };
    let net = NetServer::serve(tiny_server(), "127.0.0.1:0", config).expect("serve");

    let mut a = TcpStream::connect(net.local_addr()).expect("connect A");
    let mut header = Vec::new();
    header.extend_from_slice(&wire::MAGIC);
    header.extend_from_slice(&wire::PROTOCOL_VERSION.to_le_bytes());
    header.push(1); // request kind
    header.extend_from_slice(&1_000u32.to_le_bytes());
    a.write_all(&header).expect("header");
    let first_byte = Instant::now();

    // A watches for the server hanging up, one trickle interval per look.
    let peer_a = std::thread::spawn(move || {
        a.set_read_timeout(Some(read_timeout * 2 / 3)).expect("timeout");
        let mut probe = [0u8; 1];
        while first_byte.elapsed() < read_timeout * 10 {
            match a.read(&mut probe) {
                // EOF or a reset: disconnected.
                Ok(0) => return Some(first_byte.elapsed()),
                Err(e) if !matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {
                    return Some(first_byte.elapsed())
                }
                _ => {}
            }
            if trickle && a.write_all(&[0]).is_err() {
                return Some(first_byte.elapsed());
            }
        }
        None
    });

    // B queues behind A: the only worker thread is A's until A is dropped.
    let mut b = FrameConn::connect(net.local_addr(), read_timeout * 10).expect("connect B");
    let reply = b.round_trip(&Frame::SchemaRequest, MAX, read_timeout * 10);
    assert!(
        matches!(reply, Ok(Frame::Schema(_))),
        "the connection queued behind the slow peer was never served: {reply:?}"
    );

    let cut_off = peer_a
        .join()
        .expect("peer A")
        .expect("the slow peer was never disconnected");
    assert!(
        cut_off < read_timeout * 2,
        "the slow peer held its worker for {cut_off:?}, past 2x the {read_timeout:?} read timeout"
    );
    net.shutdown();
}

#[test]
fn server_drops_a_peer_that_stalls_after_the_header() {
    slow_peer_is_cut_off_and_the_queue_moves(false);
}

#[test]
fn server_drops_a_peer_that_trickles_a_frame() {
    slow_peer_is_cut_off_and_the_queue_moves(true);
}

/// A server that answers a request by trickling a valid `Response` one byte
/// per interval shorter than the client's read timeout: the call must fail
/// with a `Net` error within ~2× `read_timeout` (not after `interval × frame
/// length`), and the connection must refuse the next call as poisoned.
#[test]
fn client_fails_a_trickled_reply_within_the_budget_and_poisons() {
    let read_timeout = Duration::from_millis(300);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake_server = std::thread::spawn(move || {
        let (mut raw, _) = listener.accept().expect("accept");
        let patience = Duration::from_secs(10);
        let mut conn = FrameConn::from_stream(raw.try_clone().expect("clone"), patience).expect("wrap");
        // The schema handshake is answered properly.
        let request = conn.recv(MAX, Wait::Until(Instant::now() + patience));
        assert!(
            matches!(request, Ok(Received::Frame(Frame::SchemaRequest))),
            "{request:?}"
        );
        let schema = Frame::Schema(Schema::new([("x".to_string(), ColumnType::UInt64)]));
        conn.send(&schema, MAX).expect("schema");
        // The request is answered one byte at a time, written raw to the same
        // socket; the client hanging up fails a write and ends the trickle.
        let request = conn.recv(MAX, Wait::Until(Instant::now() + patience));
        assert!(
            matches!(request, Ok(Received::Frame(Frame::Request { .. }))),
            "{request:?}"
        );
        let response = Frame::Response(ServerResponse {
            groups: vec![GroupResult {
                key: vec![],
                ids: None,
                aggregates: vec![EncryptedAggregate::Count { rows: 7 }],
            }],
            stats: ExecStats::default(),
        });
        for byte in wire::encode_frame(&response, MAX).expect("encode") {
            if raw.write_all(&[byte]).is_err() {
                return;
            }
            std::thread::sleep(read_timeout / 3);
        }
    });

    let columns = vec![ColumnSpec::public("x")];
    let samples = vec![parse("SELECT COUNT(*) FROM t").expect("sample")];
    let client = SeabedClient::create_plan(b"trickle", &columns, &samples, &PlannerConfig::default());
    let remote = RemoteSeabedClient::connect_with(addr, client, MAX, read_timeout).expect("connect");
    let prepared = SeabedSession::single("t", remote.client().clone(), &remote)
        .prepare("SELECT COUNT(*) FROM t")
        .expect("prepare");

    let started = Instant::now();
    let outcome = remote.execute_query(prepared.translated(), &[]);
    let elapsed = started.elapsed();
    assert!(matches!(outcome, Err(SeabedError::Net(_))), "{outcome:?}");
    assert!(
        elapsed < read_timeout * 2,
        "a trickled reply held the call for {elapsed:?}, past 2x the {read_timeout:?} read timeout"
    );
    match remote.execute_query(prepared.translated(), &[]) {
        Err(SeabedError::Net(msg)) => assert!(msg.contains("poisoned"), "{msg}"),
        other => panic!("expected a poisoned-connection error, got {other:?}"),
    }
    drop(remote);
    fake_server.join().expect("fake server");
}

/// Protocol versions 4 to 7 are not kept beside version 8: a peer whose
/// frame header says 4 is told why — the typed version error naming both
/// versions, under a header it cannot misread as its own — and dropped, by
/// `decode_frame` and by both ends of a real `FrameConn`; the next version-8
/// peer is served. A version-5, -6 or -7 frame meets the same error.
#[test]
fn a_version_four_peer_is_refused_with_the_typed_version_error() {
    assert_eq!(wire::PROTOCOL_VERSION, 8);
    let refusal = "unsupported protocol version 4 (this side speaks 8)";
    let mut version_4 = wire::encode_frame(&Frame::SchemaRequest, MAX).expect("encode");
    version_4[4..6].copy_from_slice(&4u16.to_le_bytes());
    let outcome = wire::decode_frame(&version_4, MAX);
    assert!(
        matches!(&outcome, Err(SeabedError::Wire(message)) if message == refusal),
        "{outcome:?}"
    );
    for old in [5u16, 6, 7] {
        let mut stamped = version_4.clone();
        stamped[4..6].copy_from_slice(&old.to_le_bytes());
        let outcome = wire::decode_frame(&stamped, MAX);
        let expected = format!("unsupported protocol version {old} (this side speaks 8)");
        assert!(
            matches!(&outcome, Err(SeabedError::Wire(message)) if *message == expected),
            "{outcome:?}"
        );
    }

    // A service receiving it: an error frame comes back, then the hang-up.
    let net = NetServer::serve(tiny_server(), "127.0.0.1:0", ServiceConfig::default()).expect("serve");
    let mut old_client = TcpStream::connect(net.local_addr()).expect("connect");
    old_client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    old_client.write_all(&version_4).expect("send");
    let mut reply = Vec::new();
    old_client
        .read_to_end(&mut reply)
        .expect("the service hangs up after answering");
    let reply = wire::decode_frame(&reply, MAX);
    assert!(
        matches!(&reply, Ok(Frame::Error(SeabedError::Wire(message))) if message == refusal),
        "{reply:?}"
    );
    let mut current = FrameConn::connect(net.local_addr(), Duration::from_secs(10)).expect("connect");
    let served = current.round_trip(&Frame::SchemaRequest, MAX, Duration::from_secs(10));
    assert!(matches!(served, Ok(Frame::Schema(_))), "{served:?}");
    net.shutdown();

    // A client receiving it from an old server: the call fails with the same
    // typed error.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let old_server = std::thread::spawn(move || {
        let (mut raw, _) = listener.accept().expect("accept");
        let mut request = [0u8; wire::HEADER_LEN];
        raw.read_exact(&mut request).expect("the schema request");
        let mut schema = wire::encode_frame(&Frame::Schema(Schema::new([])), MAX).expect("encode");
        schema[4..6].copy_from_slice(&4u16.to_le_bytes());
        raw.write_all(&schema).expect("reply");
    });
    let mut conn = FrameConn::connect(addr, Duration::from_secs(10)).expect("connect");
    let outcome = conn.round_trip(&Frame::SchemaRequest, MAX, Duration::from_secs(10));
    assert!(
        matches!(&outcome, Err(SeabedError::Wire(message)) if message == refusal),
        "{outcome:?}"
    );
    old_server.join().expect("old server");
}

const PATIENCE: Duration = Duration::from_secs(10);

/// The service's `net_connection_threads` gauge.
fn connection_threads(net: &NetServer) -> Option<u64> {
    net.registry().snapshot().gauge("net_connection_threads")
}

/// One schema request on a fresh connection, whose sending half is then
/// closed, read until the service hangs up. The thread that served it counts
/// itself free before the hang-up, so once this returns it is idle.
fn one_request_then_hang_up(net: &NetServer) {
    let mut raw = TcpStream::connect(net.local_addr()).expect("connect");
    raw.set_read_timeout(Some(PATIENCE)).expect("timeout");
    let request = wire::encode_frame(&Frame::SchemaRequest, MAX).expect("encode");
    raw.write_all(&request).expect("send");
    raw.shutdown(Shutdown::Write).expect("half-close");
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("the service answers, then hangs up");
    let reply = wire::decode_frame(&reply, MAX);
    assert!(matches!(reply, Ok(Frame::Schema(_))), "{reply:?}");
}

/// Connection threads start with connections, not with the service: none
/// after `serve`, one for a first peer, and that same one for a peer that
/// connects after the first has gone.
#[test]
fn a_connection_thread_starts_with_a_connection_and_serves_the_next() {
    let net = NetServer::serve(tiny_server(), "127.0.0.1:0", ServiceConfig::default()).expect("serve");
    assert_eq!(connection_threads(&net), Some(0));
    one_request_then_hang_up(&net);
    assert_eq!(connection_threads(&net), Some(1));
    one_request_then_hang_up(&net);
    assert_eq!(
        connection_threads(&net),
        Some(1),
        "a peer that reconnects reuses the idle thread"
    );
    net.shutdown();
}

/// Peers served at once hold a thread each, up to `worker_threads`; a peer
/// past the cap waits in the queue for a thread to free up instead of getting
/// one of its own.
#[test]
fn concurrent_peers_get_a_thread_each_up_to_the_cap() {
    const CAP: usize = 3;
    let config = ServiceConfig::default().worker_threads(CAP);
    let net = NetServer::serve(tiny_server(), "127.0.0.1:0", config).expect("serve");
    let mut peers = Vec::new();
    for served in 1..=CAP as u64 {
        let mut peer = FrameConn::connect(net.local_addr(), PATIENCE).expect("connect");
        let reply = peer.round_trip(&Frame::SchemaRequest, MAX, PATIENCE);
        assert!(matches!(reply, Ok(Frame::Schema(_))), "{reply:?}");
        peers.push(peer);
        assert_eq!(connection_threads(&net), Some(served));
    }
    let mut late = FrameConn::connect(net.local_addr(), PATIENCE).expect("connect");
    late.send(&Frame::SchemaRequest, MAX).expect("send");
    let waiting = late.recv(MAX, Wait::Until(Instant::now() + Duration::from_millis(200)));
    assert!(
        matches!(waiting, Ok(Received::Idle)),
        "a peer past the cap was served: {waiting:?}"
    );
    drop(peers.remove(0));
    let reply = late.recv_reply(MAX, Instant::now() + PATIENCE, false);
    assert!(matches!(reply, Ok(Some(Frame::Schema(_)))), "{reply:?}");
    assert_eq!(connection_threads(&net), Some(CAP as u64));
    net.shutdown();
}

/// `shutdown` does not wait for a connected peer to leave: the thread
/// serving an idle connection notices the stop within a poll tick, and
/// `shutdown` joins it.
#[test]
fn shutdown_returns_with_an_idle_peer_still_connected() {
    let net = NetServer::serve(tiny_server(), "127.0.0.1:0", ServiceConfig::default()).expect("serve");
    let mut idle = FrameConn::connect(net.local_addr(), PATIENCE).expect("connect");
    let reply = idle.round_trip(&Frame::SchemaRequest, MAX, PATIENCE);
    assert!(matches!(reply, Ok(Frame::Schema(_))), "{reply:?}");
    assert_eq!(connection_threads(&net), Some(1));
    let started = Instant::now();
    net.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown waited {:?} on an idle peer",
        started.elapsed()
    );
    let after = idle.recv(MAX, Wait::Until(Instant::now() + PATIENCE));
    assert!(matches!(after, Ok(Received::Closed)), "{after:?}");
}
