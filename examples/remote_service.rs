//! The encrypted server as a real networked service: spin up a
//! [`seabed_net::NetServer`] on an ephemeral port, connect several
//! [`seabed_net::RemoteSeabedClient`]s concurrently, and run queries through
//! real encryption end to end — only ciphertexts cross the socket.
//!
//! Run with: `cargo run --release --example remote_service`

use seabed_core::{PlainDataset, SeabedClient, SeabedServer, SeabedSession};
use seabed_engine::{Cluster, ClusterConfig};
use seabed_net::{NetServer, RemoteSeabedClient, ServiceConfig};
use seabed_query::{parse, ColumnSpec, PlannerConfig};

fn main() {
    // 1. The data collector's plaintext table, planned and encrypted exactly
    //    as in the quickstart.
    let n = 10_000usize;
    let countries = ["USA", "USA", "Canada", "India", "USA", "Canada", "Chile", "India"];
    let data = PlainDataset::new("sales")
        .with_text_column(
            "country",
            (0..n).map(|i| countries[i % countries.len()].to_string()).collect(),
        )
        .with_uint_column("revenue", (0..n as u64).map(|i| (i * 13) % 500).collect())
        .with_uint_column("year", (0..n as u64).map(|i| 2014 + i % 3).collect());
    let columns = vec![
        ColumnSpec::sensitive_with_distribution("country", data.distribution("country").expect("column exists")),
        ColumnSpec::sensitive("revenue"),
        ColumnSpec::sensitive("year"),
    ];
    let samples = vec![
        parse("SELECT SUM(revenue) FROM sales WHERE country = 'USA'").expect("sample"),
        parse("SELECT SUM(revenue) FROM sales WHERE year >= 2015").expect("sample"),
        parse("SELECT AVG(revenue) FROM sales").expect("sample"),
    ];
    let mut client = SeabedClient::create_plan(b"tenant-master-key", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&data, 8, &mut rand::rng());

    // 2. Host the untrusted server behind a TCP socket. Port 0 picks an
    //    ephemeral port; a connection thread starts with each connection
    //    that finds none idle, and worker_threads caps how many run at once.
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    let net = NetServer::serve(server, "127.0.0.1:0", ServiceConfig::default().worker_threads(8)).expect("serve");
    println!("Seabed service listening on {}", net.local_addr());

    // 3. N concurrent analyst proxies, each with its own connection, each
    //    running the full pipeline: translate, encrypt literals, ship the
    //    request frame, decrypt the response frame.
    let queries = [
        "SELECT SUM(revenue) FROM sales",
        "SELECT SUM(revenue) FROM sales WHERE country = 'USA'",
        "SELECT COUNT(*) FROM sales WHERE year >= 2016",
        "SELECT AVG(revenue) FROM sales",
    ];
    let addr = net.local_addr();
    std::thread::scope(|scope| {
        for worker in 0..4 {
            let proxy = client.clone();
            scope.spawn(move || {
                let remote = RemoteSeabedClient::connect(addr, proxy.clone()).expect("connect");
                let session = SeabedSession::single("sales", proxy, &remote);
                for (i, sql) in queries.iter().enumerate() {
                    let result = session.query(sql, &[]).expect("remote query");
                    if worker == 0 {
                        println!("\n{sql}\n  -> {:?}", result.rows);
                    }
                    let _ = i;
                }
                let wire = remote.wire_stats();
                println!(
                    "client {worker}: {} requests, {} B sent, {} B received",
                    wire.requests, wire.bytes_sent, wire.bytes_received
                );
            });
        }
    });

    // 4. Graceful shutdown returns the service registry's final counters.
    let totals = net.shutdown();
    let count = |name: &str| totals.counter(name).unwrap_or(0);
    println!(
        "\nservice totals: {} connections, {} requests, {} B in, {} B out",
        count("net_connections"),
        count("net_requests_served"),
        count("net_bytes_in"),
        count("net_bytes_out")
    );
}
