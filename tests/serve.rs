//! Serving-layer integration tests: the batched predict path must be
//! **bitwise identical** to the serial per-row `nearest` scan for every
//! kernel knob and every algorithm's normalization, one registry model
//! must survive being hammered from many client threads, and the TCP
//! server must route, order and isolate requests over real sockets.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use knor::mpi::LineConn;
use knor::prelude::*;
use knor::serve::tcp::{Client, TcpServer};
use knor::serve::{predict_serial, ManualClock};
use knor_core::{KernelKind, Normalization};
use proptest::prelude::*;

fn test_handle(threads: usize) -> ServeHandle {
    ServeHandle::start(
        ServeConfig::default().with_threads(threads).with_clock(Arc::new(ManualClock::new())),
    )
}

fn arb_case() -> impl Strategy<Value = ((usize, usize), Vec<f64>, Vec<f64>)> {
    // (k, d, m) with centroid and query payloads; m spans several chunks
    // sometimes, and d % 4 != 0 exercises kernel remainders.
    (1usize..12, 1usize..9, 1usize..300).prop_flat_map(|(k, d, m)| {
        (
            Just((k, d)),
            proptest::collection::vec(-50.0f64..50.0, k * d),
            proptest::collection::vec(-50.0f64..50.0, m * d),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batched predict through knor-serve == per-row `nearest`, bit for
    /// bit, for every `KernelKind` and every `Algorithm` normalization
    /// (spherical queries renormalize exactly like training rows did).
    #[test]
    fn batched_predict_is_bitwise_serial(((k, d), cents, queries) in arb_case()) {
        let h = test_handle(3);
        for algo in [
            Algorithm::Lloyd,
            Algorithm::Spherical,
            Algorithm::Fuzzy { m: 2.0 },
            Algorithm::MiniBatch { batch: 8 },
        ] {
            let name = algo.name();
            h.register_model(name, algo.clone(), DMatrix::from_vec(cents.clone(), k, d));
            let entry = h.registry().get(name).expect("model missing");
            prop_assert_eq!(
                entry.model.normalization,
                if matches!(algo, Algorithm::Spherical) {
                    Normalization::UnitRow
                } else {
                    Normalization::None
                }
            );
            let reference = predict_serial(&entry.model, &queries, d);
            for kernel in [
                KernelKind::Auto,
                KernelKind::Scalar,
                KernelKind::Tiled,
                KernelKind::NormTrick,
            ] {
                let out = h
                    .predict_rows_with(name, &queries, d, kernel)
                    .expect("predict failed");
                prop_assert_eq!(&out.assignments, &reference.assignments);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&out.distances), bits(&reference.distances));
            }
        }
    }
}

#[test]
fn eight_threads_hammering_one_model_agree_with_serial() {
    let h = test_handle(4);
    let data = MixtureSpec::friendster_like(4_000, 6, 17).generate().data;
    let id = h.submit_train(TrainSpec {
        threads: Some(2),
        ..TrainSpec::new("shared", 8, TrainSource::Matrix(data.clone()))
    });
    match h.wait_job(id) {
        Some(knor::serve::JobStatus::Done { version: 1 }) => {}
        other => panic!("train failed: {other:?}"),
    }
    let entry = h.registry().get("shared").expect("model missing");
    let reference = Arc::new(predict_serial(&entry.model, data.as_slice(), 6));

    let clients = 8;
    let rounds = 20;
    let stride = 250; // 4000 rows / 16 distinct offsets

    // Batches on both sides of the one-chunk rule: 250 rows fan out to the
    // pool, 50 rows are scanned on the client's own thread.
    let batch_of = |round: usize| if round.is_multiple_of(2) { stride } else { 50 };
    std::thread::scope(|s| {
        for t in 0..clients {
            let h = h.clone();
            let data = &data;
            let reference = Arc::clone(&reference);
            s.spawn(move || {
                for r in 0..rounds {
                    // Each client walks the data at its own offset.
                    let (lo, batch) = (((t * 7 + r * 3) % 16) * stride, batch_of(r));
                    let q = &data.as_slice()[lo * 6..(lo + batch) * 6];
                    let out = h.predict_rows("shared", q, 6).expect("predict failed");
                    assert_eq!(
                        out.assignments,
                        reference.assignments[lo..lo + batch],
                        "client {t} round {r}"
                    );
                    for (i, dist) in out.distances.iter().enumerate() {
                        assert_eq!(
                            dist.to_bits(),
                            reference.distances[lo + i].to_bits(),
                            "client {t} round {r} row {i}"
                        );
                    }
                }
            });
        }
    });

    // Every batch must be accounted for exactly once.
    let s = h.stats("shared").unwrap();
    assert_eq!(s.batches, (clients * rounds) as u64);
    assert_eq!(s.queries, (clients * (0..rounds).map(batch_of).sum::<usize>()) as u64);
    assert_eq!(h.inline_calls(), (clients * rounds / 2) as u64);
    assert_eq!(h.caught_panics(), 0);
}

#[test]
fn trained_spherical_model_serves_renormalized_queries() {
    // End-to-end across layers: spherical training (dot-product kernel)
    // → registry (UnitRow metadata) → batched predict (exact kernel on
    // renormalized queries) — all bitwise against the serial reference.
    let h = test_handle(2);
    let data = MixtureSpec::friendster_like(1_000, 5, 23).generate().data;
    let id = h.submit_train(TrainSpec {
        algo: Algorithm::Spherical,
        threads: Some(2),
        ..TrainSpec::new("sph", 6, TrainSource::Matrix(data.clone()))
    });
    assert!(matches!(h.wait_job(id), Some(knor::serve::JobStatus::Done { .. })));
    let entry = h.registry().get("sph").expect("model missing");
    assert_eq!(entry.model.normalization, Normalization::UnitRow);
    let out = h.predict("sph", &data).unwrap();
    let reference = predict_serial(&entry.model, data.as_slice(), 5);
    assert_eq!(out.assignments, reference.assignments);
    // Trained spherical centroids are unit-norm, so every served distance
    // lies in [0, 2] for unit queries.
    assert!(out.distances.iter().all(|&x| (0.0..=2.0 + 1e-9).contains(&x)));
}

/// Deterministic centroids and queries, no proptest machinery.
fn centroids(k: usize, d: usize, salt: u64) -> DMatrix {
    let vals: Vec<f64> =
        (0..k * d).map(|i| ((i as u64 * 2654435761 + salt) % 97) as f64 - 48.0).collect();
    DMatrix::from_vec(vals, k, d)
}

fn queries(m: usize, d: usize, salt: u64) -> Vec<f64> {
    (0..m * d).map(|i| ((i as u64 * 40503 + salt) % 101) as f64 * 0.5 - 25.0).collect()
}

fn query_line(model: &str, q: &[f64], d: usize) -> String {
    let mut line = format!("QUERY {model} {} {d}", q.len() / d);
    for x in q {
        line.push_str(&format!(" {x:?}"));
    }
    line
}

/// The reply line the server must send for `p`: `{:?}` distances, so
/// equal lines are equal bits.
fn reply(p: &Prediction) -> String {
    let mut line = format!("OK {}", p.assignments.len());
    for (a, dist) in p.assignments.iter().zip(&p.distances) {
        line.push_str(&format!(" {a}:{dist:?}"));
    }
    line
}

/// New queries follow the served version: a newly trained one, a
/// ROLLBACK, an explicit SWAP and `SWAP latest`, each answered with that
/// version's centroids, bit for bit.
#[test]
fn swap_and_rollback_pin_the_served_version_over_a_socket() {
    let h = test_handle(2);
    h.register_model("m", Algorithm::Lloyd, centroids(2, 2, 11));
    let server = TcpServer::bind(h.clone(), "127.0.0.1:0").unwrap();
    let q = queries(3, 2, 9);
    let v1 = h.registry().get("m").unwrap();
    let v1_reply = reply(&predict_serial(&v1.model, &q, 2));
    let mut conn = LineConn::connect(server.addr()).unwrap();
    let mut ask = || {
        conn.send_line(&query_line("m", &q, 2)).unwrap();
        conn.recv_line().unwrap().expect("reply")
    };
    assert_eq!(ask(), v1_reply);

    // v2's centroids are offset, so the same rows get other distances.
    let c2: Vec<f64> = v1.model.centroids.means.as_slice().iter().map(|x| x + 1000.0).collect();
    assert_eq!(h.register_model("m", Algorithm::Lloyd, DMatrix::from_vec(c2, 2, 2)), 2);
    let v2_reply = reply(&predict_serial(&h.registry().get("m").unwrap().model, &q, 2));
    assert_ne!(v1_reply, v2_reply);
    assert_eq!(ask(), v2_reply, "new queries route to v2");

    let mut ctl = Client::connect(server.addr()).unwrap();
    assert_eq!(ctl.rollback("m").unwrap(), "serving m v1");
    assert_eq!(ask(), v1_reply, "rollback must restore v1");
    assert_eq!(ctl.swap("m", Some(2)).unwrap(), "serving m v2");
    assert_eq!(ask(), v2_reply);
    assert_eq!(ctl.swap("m", None).unwrap(), "serving m v2");
    assert!(ctl.swap("m", Some(9)).is_err(), "pinning a missing version must fail");
    assert!(ctl.swap("ghost", Some(1)).is_err());
    server.stop();
}

/// Requests pipelined on one connection are answered in request order:
/// each LIST shows the queries answered before it, and no more.
#[test]
fn pipelined_replies_stay_in_request_order() {
    let h = test_handle(2);
    h.register_model("m", Algorithm::Lloyd, centroids(2, 2, 2));
    let server = TcpServer::bind(h.clone(), "127.0.0.1:0").unwrap();
    let model = h.registry().get("m").unwrap().model.clone();
    let (a, b) = ([1.0, 1.0], [-3.0, 7.5]);

    let mut conn = LineConn::connect(server.addr()).unwrap();
    for line in [query_line("m", &a, 2), "LIST".into(), query_line("m", &b, 2), "LIST".into()] {
        conn.send_line(&line).unwrap();
    }
    let mut next = || conn.recv_line().unwrap().expect("reply");
    assert_eq!(next(), reply(&predict_serial(&model, &a, 2)));
    assert_eq!(next(), "OK m:v1:1");
    assert_eq!(next(), reply(&predict_serial(&model, &b, 2)));
    assert_eq!(next(), "OK m:v1:2");
    server.stop();
}

/// A client that sends a flood of queries and reads none of the replies
/// stalls only its own connection: another keeps round-tripping, and
/// when the first starts reading it gets every reply, in order.
#[test]
fn slow_client_does_not_stall_other_connections() {
    let h = test_handle(2);
    // Thirds and sevenths: every distance prints with ~17 digits, so the
    // replies (~8 MB) outgrow the socket buffers while the requests stay
    // small, and the slow connection's thread blocks in its write.
    let cents: Vec<f64> = (0..4).map(|c| c as f64 / 3.0 + 1.0 / 7.0).collect();
    h.register_model("m", Algorithm::Lloyd, DMatrix::from_vec(cents, 4, 1));
    let model = h.registry().get("m").unwrap().model.clone();
    let server = TcpServer::bind(h.clone(), "127.0.0.1:0").unwrap();
    let (rounds, rows) = (180usize, 2048usize);
    let block = move |i: usize| vec![i as f64 * 0.25; rows];

    let slow = TcpStream::connect(server.addr()).unwrap();
    let mut slow_tx = slow.try_clone().unwrap();
    let writer = std::thread::spawn(move || {
        for i in 0..rounds {
            slow_tx.write_all(format!("{}\n", query_line("m", &block(i), 1)).as_bytes()).unwrap();
        }
    });
    // Wait until the server stops answering the flood: stuck in a write
    // to the slow client, or done.
    let answered = || h.stats("m").map_or(0, |s| s.queries);
    let mut seen = (answered(), 0);
    while seen.1 < 5 {
        std::thread::sleep(Duration::from_millis(20));
        let now = answered();
        seen = if now == seen.0 { (now, seen.1 + 1) } else { (now, 0) };
    }

    let fast = TcpStream::connect(server.addr()).unwrap();
    fast.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut fast = LineConn::new(fast).unwrap();
    for i in 0..20 {
        let q = [i as f64, -(i as f64)];
        fast.send_line(&query_line("m", &q[..1], 1)).unwrap();
        let got = fast.recv_line().expect("the fast client stalled").expect("reply");
        assert_eq!(got, reply(&predict_serial(&model, &q[..1], 1)));
    }

    let mut slow_rx = BufReader::new(slow);
    for i in 0..rounds {
        let mut got = String::new();
        slow_rx.read_line(&mut got).unwrap();
        let want = reply(&predict_serial(&model, &block(i), 1));
        assert!(got.trim_end() == want, "slow reply {i} out of order or wrong");
    }
    writer.join().unwrap();
    server.stop();
}
