//! End-to-end tests of the serving layer: correctness under concurrent
//! mixed-shape load, exactly-once replies, backpressure, deadlines,
//! graceful drain, coalescing, and the TCP front end.

use std::sync::Arc;
use std::time::Duration;

use smm_core::Smm;
use smm_gemm::gemm_naive;
use smm_gemm::matrix::{Mat, MatMut, MatRef};
use smm_serve::{GemmRequest, Rejected, Server, TcpClient, TcpServer};

/// The expected result of `req` per the naive oracle.
fn oracle(req: &GemmRequest<f32>) -> Vec<f32> {
    let (m, n, k) = (req.m, req.n, req.k);
    let mut c = req.c.clone();
    if m == 0 || n == 0 {
        return c;
    }
    gemm_naive(
        req.alpha,
        MatRef::from_slice(&req.a, m, k, m.max(1)),
        MatRef::from_slice(&req.b, k, n, k.max(1)),
        req.beta,
        MatMut::from_slice(&mut c, m, n, m),
    );
    c
}

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

fn assert_close(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= 1e-3 * w.abs().max(1.0),
            "{what}: C[{i}] = {g}, oracle says {w}"
        );
    }
}

#[test]
fn concurrent_mixed_shapes_match_naive_exactly_once() {
    let server = Server::<f32>::builder()
        .threads(2)
        .coalesce_window(Duration::from_micros(200))
        .build();
    let client = server.client();
    let shapes = [(4, 4, 4), (8, 8, 8), (3, 17, 5), (16, 2, 32), (1, 1, 1)];
    let per_thread = 10;
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let client = client.clone();
            s.spawn(move || {
                for i in 0..per_thread {
                    let (m, n, k) = shapes[(t as usize + i) % shapes.len()];
                    let req = random_request(m, n, k, t * 1000 + i as u64);
                    let want = oracle(&req);
                    let got = client.submit(req).unwrap().wait().unwrap();
                    assert_close(&got, &want, "concurrent serve");
                }
            });
        }
    });
    let stats = server.shutdown();
    // Exactly-once accounting: everything admitted was answered with a
    // result, nothing was dropped or rejected.
    assert_eq!(stats.submitted, 4 * per_thread as u64);
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.rejected_queue_full, 0);
    assert_eq!(stats.queue_depth, 0);
}

#[test]
fn prewarm_builds_hot_plans_before_first_request() {
    use smm_core::{PlanDb, PlanEntry, VectorIsa};
    // A plan database with two swept shapes carrying serving traffic —
    // what a restarted server loads from its previous run.
    let mut db = PlanDb::new(VectorIsa::neon128());
    for &(m, n, k) in &[(8u32, 8u32, 8u32), (12, 6, 10)] {
        db.upsert(PlanEntry {
            m,
            n,
            k,
            mr: 8,
            nr: 4,
            pack_a: false,
            pack_b: true,
            refined: false,
            elem_bytes: 4,
            cycles: 100,
            heuristic_cycles: 120,
            traffic: 0,
        });
    }
    assert!(db.add_traffic(8, 8, 8, 500));
    assert!(db.add_traffic(12, 6, 10, 50));
    let smm = Arc::new(
        Smm::<f32>::builder()
            .threads(2)
            .isa(VectorIsa::neon128())
            .plan_db_handle(db)
            .unwrap()
            .build(),
    );
    let server = Server::<f32>::builder()
        .smm(Arc::clone(&smm))
        .prewarm(8)
        .build();
    // Pre-warming runs asynchronously on the dispatcher thread; wait
    // for it rather than racing it.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().prewarmed < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "prewarm never completed: {:?}",
            server.stats()
        );
        std::thread::yield_now();
    }
    assert_eq!(server.stats().prewarmed, 2);
    assert_eq!(smm.cached_plans(), 2, "hot plans resident before traffic");
    let hits_before = smm.stats().plan_hits;
    let misses_after_prewarm = smm.stats().plan_misses;
    // A request for a pre-warmed shape must hit the plan cache.
    let req = random_request(8, 8, 8, 7);
    let want = oracle(&req);
    let got = server.client().submit(req).unwrap().wait().unwrap();
    assert_close(&got, &want, "prewarmed serve");
    assert!(smm.stats().plan_hits > hits_before);
    assert_eq!(
        smm.stats().plan_misses,
        misses_after_prewarm,
        "no plan built on demand"
    );
    let stats = server.shutdown();
    assert_eq!(stats.completed, 1);
    assert!(format!("{stats}").contains("prewarmed"));
}

#[test]
fn queue_full_is_typed_backpressure() {
    // A long window parks the dispatcher on the first request's shape,
    // so differently-shaped submissions accumulate in the queue and the
    // capacity bound becomes observable deterministically.
    let server = Server::<f32>::builder()
        .threads(1)
        .queue_capacity(3)
        .coalesce_window(Duration::from_secs(2))
        .build();
    let client = server.client();
    let head = client
        .submit(random_request(2, 2, 2, 7))
        .expect("head admitted");
    // Give the dispatcher time to pop the head and enter its window.
    std::thread::sleep(Duration::from_millis(100));
    let queued: Vec<_> = (0..3)
        .map(|i| client.submit(random_request(5, 5, 5, i)).expect("queued"))
        .collect();
    match client.submit(random_request(5, 5, 5, 99)) {
        Err(Rejected::QueueFull { capacity: 3 }) => {}
        other => panic!("expected QueueFull {{ capacity: 3 }}, got {other:?}"),
    }
    let stats = client.stats();
    assert_eq!(stats.rejected_queue_full, 1);
    // Shutdown short-circuits the window and drains: every admitted
    // request is still answered with a real result.
    server.shutdown();
    assert!(head.wait().is_ok());
    for t in queued {
        assert!(t.wait().is_ok());
    }
}

#[test]
fn deadlines_expire_before_dispatch() {
    let server = Server::<f32>::builder().threads(1).build();
    let client = server.client();
    // An already-expired deadline must be answered DeadlineExceeded
    // without computing anything.
    let req = random_request(6, 6, 6, 11).with_deadline(Duration::ZERO);
    let ticket = client.submit(req).unwrap();
    assert_eq!(ticket.wait(), Err(Rejected::DeadlineExceeded));
    // A generous deadline sails through.
    let req = random_request(6, 6, 6, 12).with_deadline(Duration::from_secs(60));
    let want = oracle(&req);
    let got = client.submit(req).unwrap().wait().unwrap();
    assert_close(&got, &want, "deadline ok");
    let stats = server.shutdown();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn shutdown_drains_everything_then_rejects() {
    let server = Server::<f32>::builder()
        .threads(2)
        .coalesce_window(Duration::from_millis(200))
        .build();
    let client = server.client();
    let pairs: Vec<_> = (0..24)
        .map(|i| {
            let req = random_request(4 + (i % 3), 4, 4, 400 + i as u64);
            let want = oracle(&req);
            (client.submit(req).unwrap(), want)
        })
        .collect();
    // Shutdown races the dispatcher's first pops on purpose: whatever
    // is still queued must be drained, not dropped.
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 24);
    assert_eq!(stats.completed, 24);
    assert_eq!(stats.queue_depth, 0);
    for (ticket, want) in pairs {
        let got = ticket.wait().expect("drained request answered Ok");
        assert_close(&got, &want, "drained");
    }
    // The surviving client handle now gets a typed rejection.
    match client.submit(random_request(4, 4, 4, 1)) {
        Err(Rejected::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

#[test]
fn same_shape_requests_coalesce_into_batches() {
    let server = Server::<f32>::builder()
        .threads(2)
        .coalesce_window(Duration::from_secs(2))
        .build();
    let client = server.client();
    // Park the dispatcher in the window on a decoy shape...
    let decoy = client.submit(random_request(2, 3, 4, 1)).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // ...then queue one same-shape cohort behind it.
    let cohort: Vec<_> = (0..8)
        .map(|i| {
            let req = random_request(6, 6, 6, 600 + i);
            let want = oracle(&req);
            (client.submit(req).unwrap(), want)
        })
        .collect();
    // Drain: the cohort is already queued, so it dispatches as one
    // gemm_batch group.
    let stats = server.shutdown();
    assert!(decoy.wait().is_ok());
    for (ticket, want) in cohort {
        assert_close(&ticket.wait().unwrap(), &want, "coalesced");
    }
    assert_eq!(stats.completed, 9);
    assert!(
        stats.batches < stats.completed,
        "expected coalescing: {} batches for {} requests",
        stats.batches,
        stats.completed
    );
    assert!(
        stats.coalesced_max >= 8,
        "cohort should dispatch together, max was {}",
        stats.coalesced_max
    );
    assert!(stats.coalescing_factor() > 1.0);
}

#[test]
fn coalesced_results_match_per_request_results() {
    // Same workload served twice — once with coalescing disabled, once
    // with an aggressive window — must agree bit-for-bit with the
    // oracle either way.
    for window in [Duration::ZERO, Duration::from_millis(5)] {
        let server = Server::<f32>::builder()
            .threads(2)
            .coalesce_window(window)
            .build();
        let client = server.client();
        std::thread::scope(|s| {
            for t in 0..6u64 {
                let client = client.clone();
                s.spawn(move || {
                    for i in 0..5u64 {
                        let req = random_request(7, 7, 7, t * 100 + i);
                        let want = oracle(&req);
                        let got = client.submit(req).unwrap().wait().unwrap();
                        assert_close(&got, &want, "window sweep");
                    }
                });
            }
        });
        server.shutdown();
    }
}

#[test]
fn serve_telemetry_lands_in_the_report() {
    let smm = Arc::new(Smm::<f32>::builder().threads(2).telemetry(true).build());
    let server = Server::<f32>::builder()
        .smm(Arc::clone(&smm))
        .coalesce_window(Duration::from_millis(2))
        .build();
    let client = server.client();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let client = client.clone();
            s.spawn(move || {
                for i in 0..8u64 {
                    let req = random_request(8, 8, 8, t * 50 + i);
                    client.submit(req).unwrap().wait().unwrap();
                }
            });
        }
    });
    server.shutdown();
    let report = smm.stats_report();
    let json = report.to_json();
    assert!(json.contains("\"serve\""), "serve site missing: {json}");
    let rendered = report.to_string();
    assert!(
        rendered.contains("serve"),
        "serve site missing from display: {rendered}"
    );
}

#[test]
fn shutdown_never_loses_the_wakeup() {
    // Regression stress for a lost-wakeup race: shutdown's store +
    // notify must serialize with the dispatcher's check-then-wait
    // (both under the queue mutex), otherwise an immediate shutdown
    // can fire the notification between the dispatcher's shutdown
    // check and its untimed wait, and the join hangs forever. Many
    // quick build/shutdown cycles give a racy implementation its
    // chances to deadlock.
    for i in 0..100u64 {
        let server = Server::<f32>::builder().threads(1).build();
        if i % 2 == 0 {
            let ticket = server.client().submit(random_request(3, 3, 3, i)).unwrap();
            server.shutdown();
            assert!(ticket.wait().is_ok());
        } else {
            server.shutdown();
        }
    }
}

#[test]
fn tcp_connection_limit_is_typed_backpressure() {
    let server = Server::<f32>::builder().threads(1).build();
    let tcp = TcpServer::bind_with_max_conns(server, ("127.0.0.1", 0), 1).unwrap();
    let addr = tcp.local_addr();
    let req = random_request(3, 3, 3, 5);
    let want = oracle(&req);

    // The first connection occupies the single slot (the round-trip
    // guarantees its handler is registered)...
    let mut first = TcpClient::connect(addr).unwrap();
    assert_close(&first.call(&req).unwrap(), &want, "first conn");

    // ...so the next accept is refused with a typed busy reply.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    assert_eq!(read_reply(&mut raw), Rejected::Busy { max_connections: 1 });

    // Closing the first connection frees the slot again. The handler
    // deregisters asynchronously, so poll; a refused retry may also
    // surface as a transport error when the server closes mid-call.
    drop(first);
    let mut answered = None;
    for _ in 0..200 {
        let mut c = TcpClient::connect(addr).unwrap();
        match c.call(&req) {
            Ok(got) => {
                answered = Some(got);
                break;
            }
            Err(Rejected::Busy { .. } | Rejected::Protocol(_)) => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(other) => panic!("unexpected rejection: {other:?}"),
        }
    }
    let got = answered.expect("slot frees once the first connection closes");
    assert_close(&got, &want, "after release");
    tcp.shutdown();
}

#[test]
fn tcp_roundtrip_and_protocol_errors() {
    let server = Server::<f32>::builder()
        .threads(2)
        .coalesce_window(Duration::from_micros(100))
        .build();
    let tcp = TcpServer::bind(server, ("127.0.0.1", 0)).unwrap();
    let addr = tcp.local_addr();

    // Plain request/reply over the wire.
    let mut client = TcpClient::connect(addr).unwrap();
    let req = random_request(5, 9, 3, 77);
    let want = oracle(&req);
    let got = client.call(&req).unwrap();
    assert_close(&got, &want, "tcp");

    // A garbage payload inside a well-formed frame gets a protocol
    // error and the connection keeps working.
    {
        use std::io::Write as _;
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        let garbage = [0xAAu8; 16];
        raw.write_all(&(garbage.len() as u32).to_le_bytes())
            .unwrap();
        raw.write_all(&garbage).unwrap();
        let reply = read_reply(&mut raw);
        assert!(
            matches!(reply, Rejected::Protocol(_)),
            "garbage frame should yield a protocol error, got {reply:?}"
        );
        // Same connection, now a valid request.
        let req2 = random_request(4, 4, 4, 78);
        let want2 = oracle(&req2);
        let mut wrapped = TcpClient::from_stream(raw);
        let got2 = wrapped.call(&req2).unwrap();
        assert_close(&got2, &want2, "tcp after garbage");
    }

    // Concurrent TCP clients all get correct answers.
    std::thread::scope(|s| {
        for t in 0..8u64 {
            s.spawn(move || {
                let mut c = TcpClient::connect(addr).unwrap();
                for i in 0..4u64 {
                    let req = random_request(6, 6, 6, t * 10 + i);
                    let want = oracle(&req);
                    assert_close(&c.call(&req).unwrap(), &want, "tcp concurrent");
                }
            });
        }
    });

    let stats = tcp.shutdown();
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(stats.queue_depth, 0);
}

/// Read one error-reply frame off a raw stream.
fn read_reply(stream: &mut std::net::TcpStream) -> Rejected {
    use smm_serve::wire::{decode_payload, read_frame, FrameRead, WireMsg};
    match read_frame(stream).unwrap() {
        FrameRead::Frame(p) => match decode_payload(&p).unwrap() {
            WireMsg::ReplyErr { code, detail, msg } => {
                smm_serve::wire::rejection_from_wire(code, detail, &msg)
            }
            other => panic!("expected error reply, got {other:?}"),
        },
        other => panic!("expected frame, got {other:?}"),
    }
}

#[test]
fn traced_serve_links_member_spans_under_one_coalesced_batch() {
    let smm = Arc::new(
        Smm::<f32>::builder()
            .threads(2)
            .telemetry(true)
            .tracing(true)
            .build(),
    );
    let server = Server::<f32>::builder()
        .smm(Arc::clone(&smm))
        .coalesce_window(Duration::from_millis(20))
        .max_batch(16)
        .build();
    let client = server.client();
    // Same shape from several threads inside one wide coalesce window
    // so the dispatcher folds them into one gemm_batch call.
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let client = client.clone();
            s.spawn(move || {
                let req = random_request(8, 8, 8, 900 + t);
                let want = oracle(&req);
                let got = client.submit(req).unwrap().wait().unwrap();
                assert_close(&got, &want, "traced coalesced");
            });
        }
    });
    server.shutdown();
    let spans = smm.drain_trace();
    assert!(!spans.is_empty(), "traced serve run produced no spans");

    use smm_core::SpanName;
    // Every request got its own Request span with a distinct trace id.
    let request_traces: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == SpanName::Request)
        .map(|s| s.trace)
        .collect();
    assert_eq!(request_traces.len(), 4, "one trace per request: {spans:#?}");

    // At least one coalesced-batch span has >= 2 member children from
    // distinct request traces (the acceptance criterion).
    let best = spans
        .iter()
        .filter(|s| s.name == SpanName::CoalescedBatch)
        .map(|batch| {
            spans
                .iter()
                .filter(|s| s.name == SpanName::Member && s.parent == batch.span)
                .map(|s| s.trace)
                .collect::<std::collections::HashSet<u64>>()
        })
        .map(|traces| traces.len())
        .max()
        .unwrap_or(0);
    assert!(
        best >= 2,
        "no coalesced batch with >= 2 distinct-trace members: {spans:#?}"
    );

    // The admission span nests inside its request's trace.
    assert!(
        spans
            .iter()
            .any(|s| s.name == SpanName::Admission && request_traces.contains(&s.trace)),
        "no admission span inside a request trace"
    );
}

#[test]
fn stats_opcode_matches_in_process_report() {
    use smm_serve::wire::{STATS_JSON, STATS_PROMETHEUS, STATS_TEXT};

    let smm = Arc::new(Smm::<f32>::builder().threads(1).telemetry(true).build());
    let server = Server::<f32>::builder()
        .smm(Arc::clone(&smm))
        .coalesce_window(Duration::ZERO)
        .build();
    let tcp = TcpServer::bind(server, ("127.0.0.1", 0)).unwrap();
    let mut client = TcpClient::connect(tcp.local_addr()).unwrap();
    for i in 0..6u64 {
        let req = random_request(8, 8, 8, 700 + i);
        let want = oracle(&req);
        assert_close(&client.call(&req).unwrap(), &want, "pre-stats traffic");
    }
    // The dispatcher records its Reply phase just after fulfilling the
    // ticket, so give it a beat before comparing snapshots.
    std::thread::sleep(Duration::from_millis(100));

    // The scraped JSON must equal the in-process report except for the
    // rate window, whose numbers move with the scrape time itself.
    let strip_rate = |json: &str| -> String {
        let start = json.find("\"rate\":").expect("rate object present");
        let end = start + json[start..].find('}').expect("rate object closes") + 1;
        format!("{}{}", &json[..start], &json[end..])
    };
    let scraped = client.stats(STATS_JSON).unwrap();
    let local = smm.stats_report().to_json();
    assert_eq!(
        strip_rate(&scraped),
        strip_rate(&local),
        "STATS scrape diverged from Smm::stats_report"
    );

    let text = client.stats(STATS_TEXT).unwrap();
    assert!(text.contains("rate window"), "text scrape: {text}");
    assert!(text.contains("serve"), "text scrape misses serve: {text}");
    let prom = client.stats(STATS_PROMETHEUS).unwrap();
    assert!(
        prom.contains("smm_phase_latency_ns_bucket"),
        "prometheus scrape: {prom}"
    );
    assert!(prom.contains("smm_rate_req_per_sec"), "prometheus: {prom}");

    tcp.shutdown();
}

#[test]
fn slow_exemplars_from_serve_surface_in_the_report() {
    let smm = Arc::new(
        Smm::<f32>::builder()
            .threads(1)
            .telemetry(true)
            .tracing(true)
            // Every request breaches a 1 ns threshold, so the
            // coalesce-window wait alone makes each one an exemplar.
            .slow_trace_threshold(Duration::from_nanos(1))
            .build(),
    );
    let server = Server::<f32>::builder()
        .smm(Arc::clone(&smm))
        .coalesce_window(Duration::from_millis(5))
        .build();
    let client = server.client();
    for i in 0..4u64 {
        let req = random_request(6, 6, 6, 300 + i);
        client.submit(req).unwrap().wait().unwrap();
    }
    server.shutdown();

    let report = smm.stats_report();
    assert!(!report.slow.is_empty(), "no slow exemplars pinned");
    let ex = &report.slow[0];
    assert!(ex.total_ns >= 1, "exemplar latency: {}", ex.total_ns);
    assert!(
        ex.label.contains("serve 6x6x6"),
        "exemplar label: {}",
        ex.label
    );
    use smm_core::SpanName;
    assert!(
        ex.spans.iter().any(|s| s.name == SpanName::Request),
        "exemplar lost its request span: {ex:#?}"
    );
    // The span tree rides along in both renderings.
    assert!(report.to_string().contains("slow-request exemplars"));
    let json = report.to_json();
    assert!(json.contains("\"slow\": ["), "{json}");
    assert!(json.contains("\"total_ns\":"), "{json}");
}
