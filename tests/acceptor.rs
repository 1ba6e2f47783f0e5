//! The workspace's one TCP acceptor (`imageproof_obs::serve`) runs both the
//! shard's RPC server and its scrape endpoint: either must shut down
//! promptly while a client holds an idle connection open, and idle
//! connections must not pin more than `MAX_CONNECTIONS` threads.

mod rpc_util;

use imageproof_core::rpc::ShardServer;
use imageproof_core::{Scheme, ShardedSp};
use imageproof_obs::{Stopwatch, MAX_CONNECTIONS};
use std::io::Read;
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn idle_connections_do_not_hold_up_shutdown() {
    let system = rpc_util::build_system(Scheme::ImageProof, 1);
    let engine = ShardedSp::new(system.shards).into_shards().remove(0);
    let (rpc, scrape) = ShardServer::new(engine, 0, 1)
        .launch_observed("127.0.0.1:0")
        .expect("launch observed shard server");
    let idle: Vec<TcpStream> = [rpc.addr(), scrape.addr()]
        .iter()
        .map(|addr| TcpStream::connect(addr).expect("dial"))
        .collect();
    let tracked = || (rpc.tracked_connections(), scrape.tracked_connections());
    let settle = Stopwatch::start();
    while tracked() != (1, 1) && settle.elapsed_seconds() < 5.0 {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(tracked(), (1, 1), "each server tracks its idle connection");

    let sw = Stopwatch::start();
    rpc.shutdown();
    scrape.shutdown();
    let seconds = sw.elapsed_seconds();
    assert!(seconds < 1.0, "shutdown took {seconds:.3}s");
    // Each connection thread was joined: the server closed its end.
    for mut client in idle {
        client
            .set_read_timeout(Some(Duration::from_secs(1)))
            .expect("read timeout");
        assert!(
            matches!(client.read(&mut [0u8; 1]), Ok(0)),
            "connection closed"
        );
    }
}

#[test]
fn a_connection_past_the_cap_is_closed_at_once() {
    let system = rpc_util::build_system(Scheme::ImageProof, 1);
    let engine = ShardedSp::new(system.shards).into_shards().remove(0);
    let rpc = ShardServer::new(engine, 0, 1)
        .launch()
        .expect("launch shard server");
    // Idle peers: the shard keeps polling each until it hangs up.
    let _held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(rpc.addr()).expect("dial"))
        .collect();
    let settle = Stopwatch::start();
    while rpc.tracked_connections() < MAX_CONNECTIONS && settle.elapsed_seconds() < 5.0 {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(rpc.tracked_connections(), MAX_CONNECTIONS);

    let mut extra = TcpStream::connect(rpc.addr()).expect("dial past the cap");
    extra
        .set_read_timeout(Some(Duration::from_secs(1)))
        .expect("read timeout");
    assert!(
        matches!(extra.read(&mut [0u8; 1]), Ok(0)),
        "a connection past the cap reads EOF within 1 s"
    );
    assert_eq!(rpc.tracked_connections(), MAX_CONNECTIONS);
    rpc.shutdown();
}
