//! A one-shard `STATS` scrape renders exactly what the in-process
//! `Smm::stats_report` renders, in all three formats.
//!
//! This test has a binary of its own: the packing-arena counters in the
//! report are process-global, so a GEMM that another test in the same
//! binary ran between the scrape and the local report would change the
//! `arena` section of one side only.

use std::sync::Arc;
use std::time::{Duration, Instant};

use smm_core::{Phase, Smm};
use smm_gemm::gemm_naive;
use smm_gemm::matrix::{Mat, MatMut, MatRef};
use smm_serve::wire::{STATS_JSON, STATS_PROMETHEUS, STATS_TEXT};
use smm_serve::{GemmRequest, Server, TcpClient, TcpServer};

fn request(seed: u64) -> GemmRequest<f32> {
    let a = Mat::<f32>::random(8, 8, seed);
    let b = Mat::<f32>::random(8, 8, seed + 1);
    GemmRequest::new(8, 8, 8, a.data().to_vec(), b.data().to_vec())
}

fn oracle(req: &GemmRequest<f32>) -> Vec<f32> {
    let mut c = req.c.clone();
    gemm_naive(
        req.alpha,
        MatRef::from_slice(&req.a, 8, 8, 8),
        MatRef::from_slice(&req.b, 8, 8, 8),
        req.beta,
        MatMut::from_slice(&mut c, 8, 8, 8),
    );
    c
}

/// `s` without the rate window, whose numbers move with the time of
/// the snapshot itself: the JSON `"rate"` object, the text `rate
/// window` line, and the `smm_rate_*` Prometheus families.
fn without_rate(s: &str) -> String {
    let s = match s.find("\"rate\":") {
        Some(start) => {
            let end = start + s[start..].find('}').expect("rate object closes") + 1;
            format!("{}{}", &s[..start], &s[end..])
        }
        None => s.to_string(),
    };
    let rate_line = |l: &&str| {
        l.trim_start().starts_with("rate window")
            || l.starts_with("smm_rate_")
            || l.starts_with("# TYPE smm_rate_")
    };
    let lines: Vec<&str> = s.lines().filter(|l| !rate_line(l)).collect();
    lines.join("\n")
}

#[test]
fn stats_opcode_matches_in_process_report() {
    let smm = Arc::new(Smm::<f32>::builder().threads(1).telemetry(true).build());
    let server = Server::<f32>::builder()
        .smm(Arc::clone(&smm))
        .coalesce_window(Duration::ZERO)
        .build();
    let tcp = TcpServer::bind(server, ("127.0.0.1", 0)).unwrap();
    let mut client = TcpClient::connect(tcp.local_addr()).unwrap();
    for i in 0..6u64 {
        let req = request(700 + 3 * i);
        let want = oracle(&req);
        let got = client.call(&req).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert!(
                (g - w).abs() <= 1e-3 * w.abs().max(1.0),
                "C = {g}, oracle {w}"
            );
        }
    }
    // The dispatcher records a group's Reply span after it has answered
    // the group, and last: once six are in, the report stops moving.
    let deadline = Instant::now() + Duration::from_secs(10);
    while smm.stats_report().phase_count(Phase::Reply) < 6 {
        assert!(Instant::now() < deadline, "Reply spans never reached 6");
        std::thread::sleep(Duration::from_millis(1));
    }

    for format in [STATS_JSON, STATS_TEXT, STATS_PROMETHEUS] {
        let scraped = client.stats(format).unwrap();
        let report = smm.stats_report();
        let local = match format {
            STATS_JSON => report.to_json(),
            STATS_PROMETHEUS => report.to_prometheus(),
            _ => report.to_string(),
        };
        assert_eq!(
            without_rate(&scraped),
            without_rate(&local),
            "STATS scrape (format {format}) diverged from Smm::stats_report"
        );
    }
    tcp.shutdown();
}
