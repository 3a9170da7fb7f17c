//! Wake-path tests of the TCP front end. Its readers block in `poll(2)`
//! with no timeout while no connection is parked, so every event they
//! cannot poll for must ring their doorbell: shutdown, a newly accepted
//! stream, a completed reply — and a parked connection must be probed.
//! Each test below hangs if its wake is missing; the generous watchdogs
//! turn a hang into a failure and assert nothing about timing.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

use smm_gemm::check_gemm_bound;
use smm_gemm::matrix::{Mat, MatRef};
use smm_serve::wire::{self, FrameRead, WireMsg};
use smm_serve::{GemmRequest, Server, TcpClient, TcpServer};

/// How long a wake may take before the test calls it lost.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Time for the readers to finish their sweep and block in `poll(2)`,
/// or for a connection to stay quiet long enough to park (4 ms).
const SETTLE: Duration = Duration::from_millis(50);

fn random_request(m: usize, n: usize, k: usize, seed: u64) -> GemmRequest<f32> {
    let a = Mat::<f32>::random(m, k, seed);
    let b = Mat::<f32>::random(k, n, seed.wrapping_add(1));
    let c = Mat::<f32>::random(m, n, seed.wrapping_add(2));
    let mut req = GemmRequest::new(m, n, k, a.data().to_vec(), b.data().to_vec());
    req.alpha = 1.25;
    req.beta = -0.5;
    req.c = c.data().to_vec();
    req
}

/// `got` is `req`'s result within the derived GEMM error bound.
fn assert_answers(req: &GemmRequest<f32>, got: &[f32]) {
    let (m, n, k) = (req.m, req.n, req.k);
    assert_eq!(got.len(), m * n, "reply has the wrong length");
    check_gemm_bound(
        req.alpha,
        MatRef::from_slice(&req.a, m, k, m),
        MatRef::from_slice(&req.b, k, n, k),
        req.beta,
        MatRef::from_slice(&req.c, m, n, m),
        MatRef::from_slice(got, m, n, m),
    )
    .unwrap_or_else(|v| panic!("reply outside the GEMM error bound: {v}"));
}

fn tcp_server() -> TcpServer {
    let server = Server::<f32>::builder().threads(1).build();
    TcpServer::bind(server, ("127.0.0.1", 0)).unwrap()
}

/// A client whose reads give up after [`WATCHDOG`], so a lost wake
/// fails the call instead of hanging the test.
fn client(tcp: &TcpServer) -> TcpClient {
    let stream = TcpStream::connect(tcp.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(WATCHDOG)).unwrap();
    TcpClient::from_stream(stream)
}

fn call(client: &mut TcpClient, seed: u64) {
    let req = random_request(5, 4, 3, seed);
    let got = client
        .call(&req)
        .unwrap_or_else(|e| panic!("no reply (seed {seed}): {e}"));
    assert_answers(&req, &got);
}

#[test]
fn shutdown_returns_while_readers_block_beside_idle_connections() {
    let tcp = tcp_server();
    let mut active = client(&tcp);
    call(&mut active, 1);
    let idle: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(tcp.local_addr()).unwrap())
        .collect();
    std::thread::sleep(SETTLE);
    // Without the shutdown ring the readers never see the stop flag.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let stats = tcp.shutdown();
        let _ = tx.send(stats);
    });
    let stats = rx
        .recv_timeout(WATCHDOG)
        .expect("shutdown hung: a blocked reader was not rung");
    assert_eq!(stats.completed, 1);
    drop(idle);
}

#[test]
fn a_connection_accepted_after_the_readers_blocked_is_answered() {
    let tcp = tcp_server();
    std::thread::sleep(SETTLE);
    // The stream lands in a blocked reader's inbox; only the
    // acceptor's ring makes the reader adopt it.
    call(&mut client(&tcp), 2);
    tcp.shutdown();
}

#[test]
fn a_parked_connection_is_answered_when_it_sends_again() {
    let tcp = tcp_server();
    let mut quiet = client(&tcp);
    call(&mut quiet, 3);
    let idle: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(tcp.local_addr()).unwrap())
        .collect();
    // Two connections accepted back to back land on both readers.
    let mut wakers = [client(&tcp), client(&tcp)];
    std::thread::sleep(SETTLE);
    // Waking both readers after the quiet spell parks every quiet
    // connection, `quiet` and the idle ones included.
    for (i, waker) in wakers.iter_mut().enumerate() {
        call(waker, 10 + i as u64);
    }
    std::thread::sleep(SETTLE);
    // Only a parked probe can notice this request.
    call(&mut quiet, 4);
    tcp.shutdown();
    drop(idle);
}

#[test]
fn a_pipelined_burst_gets_every_reply_in_order() {
    const BURST: u64 = 600;
    let tcp = tcp_server();
    let stream = TcpStream::connect(tcp.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(WATCHDOG)).unwrap();
    let reqs: Vec<GemmRequest<f32>> = (0..BURST)
        .map(|i| random_request(1 + (i % 7) as usize, 3, 2 + (i % 5) as usize, 100 + i))
        .collect();
    let mut burst = Vec::new();
    for req in &reqs {
        wire::write_frame(&mut burst, &wire::encode_request(req)).unwrap();
    }
    std::thread::scope(|s| {
        let mut writer = stream.try_clone().unwrap();
        s.spawn(move || writer.write_all(&burst).unwrap());
        let mut reader = &stream;
        for (i, req) in reqs.iter().enumerate() {
            let payload = match wire::read_frame(&mut reader) {
                Ok(FrameRead::Frame(p)) => p,
                other => panic!("reply {i} of {BURST} missing: {other:?}"),
            };
            match wire::decode_payload(&payload) {
                Ok(WireMsg::ReplyOk { c, .. }) => assert_answers(req, &c),
                other => panic!("reply {i}: expected a result, got {other:?}"),
            }
        }
    });
    let stats = tcp.shutdown();
    assert_eq!(stats.completed, BURST);
}
