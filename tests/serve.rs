//! Serving-layer integration tests: the batched predict path must be
//! **bitwise identical** to the serial per-row `nearest` scan on both
//! kernels and for every algorithm's normalization, one registry model
//! must survive being hammered from many client threads, and the TCP
//! server must route, order and isolate requests over real sockets.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use knor::mpi::LineConn;
use knor::prelude::*;
use knor::serve::payload::parse_query_values;
use knor::serve::tcp::{dispatch, Client, TcpServer};
use knor::serve::{predict_serial, ManualClock};
use knor_core::{Normalization, ResolvedKind};
use proptest::prelude::*;

fn test_handle() -> ServeHandle {
    ServeHandle::start(ServeConfig::default().with_clock(Arc::new(ManualClock::new())))
}

fn arb_case() -> impl Strategy<Value = ((usize, usize), Vec<f64>, Vec<f64>)> {
    // (k, d, m) with centroid and query payloads; m spans several kernel
    // blocks sometimes, and d % 4 != 0 exercises kernel remainders. Small
    // shapes scan with the scalar kernel; `k·d > 64` (a third of the
    // cases) with gemm.
    (1usize..24, 1usize..9, 1usize..300).prop_flat_map(|(k, d, m)| {
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
    /// bit, on the kernel the model's shape picks, for every `Algorithm`
    /// normalization (spherical queries renormalize exactly like training
    /// rows did).
    #[test]
    fn batched_predict_is_bitwise_serial(((k, d), cents, queries) in arb_case()) {
        let h = test_handle();
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
            let gemm = k * d > 64;
            prop_assert_eq!(entry.model.kernel().kind == ResolvedKind::Gemm, gemm);
            let reference = predict_serial(&entry.model, &queries, d);
            let out = h.predict_rows(name, &queries, d).expect("predict failed");
            prop_assert_eq!(&out.assignments, &reference.assignments);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&out.distances), bits(&reference.distances));
        }
    }
}

#[test]
fn eight_threads_hammering_one_model_agree_with_serial() {
    let h = test_handle();
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

    // Two batch sizes, each scanned on its client's own thread.
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
    assert_eq!(h.caught_panics(), 0);
}

#[test]
fn trained_spherical_model_serves_renormalized_queries() {
    // End-to-end across layers: spherical training (dot-product kernel)
    // → registry (UnitRow metadata) → batched predict (exact kernel on
    // renormalized queries) — all bitwise against the serial reference.
    let h = test_handle();
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
    let h = test_handle();
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
    let h = test_handle();
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
    let h = test_handle();
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

/// The QUERY payload parser this crate had before the one-pass parser:
/// `split_ascii_whitespace` + `str::parse`, kept as the oracle the new
/// one must match bit for bit and error for error.
fn oracle_query_values(payload: &str, total: usize) -> Result<Vec<f64>, String> {
    let mut tokens = payload.split_ascii_whitespace();
    let mut q = Vec::with_capacity(total.min(64 * 1024));
    for i in 0..total {
        let tok = tokens.next().ok_or_else(|| format!("QUERY: missing value {i}"))?;
        q.push(tok.parse::<f64>().map_err(|e| format!("QUERY: value {i}: {e}"))?);
    }
    Ok(q)
}

/// Tokens at the fast path's edges and outside it.
const EDGE_TOKENS: &[&str] = &[
    "1e999",
    "-1e999",
    "1e-999",
    "-0",
    "-0.0",
    "0e999",
    "0.0e-999",
    "inf",
    "-inf",
    "infinity",
    "NaN",
    "nan",
    "+0.5",
    ".5",
    "-.5",
    "5.",
    "1.e5",
    "1e+5",
    "1E5",
    "1e05",
    "-",
    "+",
    "e5",
    "1e",
    "1e-",
    "1e+",
    "0x10",
    "1_0",
    "1.2.3",
    "--1",
    "1e5.5",
    "\u{661}\u{662}",
    "1\u{b}2",
    "\u{b}",
    "é",
    "1é",
    "9007199254740993",
    "9007199254740995",
    "9007199254740992.5",
    "18446744073709551615",
    "18446744073709551616",
    "12345678901234567890",
    "1234567890123456789",
    "1234567890123456789e-27",
    "1234567890123456789e55",
    "1234567890123456789e56",
    "1e-27",
    "1e-28",
    "1e55",
    "1e56",
    "0.000000000000000000000000001",
    "0.0000000000000000000000000001",
    "00000000000000000000001.5",
    "0.00000000000000000000000000000000001234",
    "4.9406564584124654e-324",
    "2.2250738585072011e-308",
    "2.2250738585072014e-308",
    "1.7976931348623157e308",
    "1.7976931348623159e308",
    "123456789012345678.5e-3",
    "123456789012345678901e",
    "123456789012345678901x5",
    "12345678901234567890.5é",
    "0.1",
    "0.3",
    "-12.345678901234567",
    "99999999999999999999",
    "1e99999999999999999999",
];

/// One random payload token: a float printed with `{}`, `{:?}` or `{:e}`
/// (from random bits, a realistic magnitude or a subnormal), an edge
/// token, a round-to-even halfway case, a run of 18–21 digits, or a
/// jumble of bytes.
fn random_token(rng: &mut TestRng) -> String {
    let show = |x: f64, rng: &mut TestRng| match rng.below(3) {
        0 => format!("{x}"),
        1 => format!("{x:?}"),
        _ => format!("{x:e}"),
    };
    match rng.below(7) {
        0 => show(f64::from_bits(rng.next_u64()), rng),
        1 => {
            let scale = 10f64.powi(rng.below(61) as i32 - 30);
            show((rng.unit_f64() * 2000.0 - 1000.0) * scale, rng)
        }
        2 => show(
            f64::from_bits(rng.below(1 << 52)) * if rng.below(2) == 0 { 1.0 } else { -1.0 },
            rng,
        ),
        3 => EDGE_TOKENS[rng.below(EDGE_TOKENS.len() as u64) as usize].to_string(),
        4 => {
            // Exactly halfway between two adjacent f64: (2m + 1)·2^(e−1)
            // for a 53-bit m, as an integer or as a decimal with 1–4
            // fraction digits (×5^k, then the point k places in).
            let m = (1 << 52) | rng.below(1 << 52);
            let odd = 2 * m + 1;
            if rng.below(2) == 0 {
                (odd << rng.below(10)).to_string()
            } else {
                let k = 1 + rng.below(4) as usize;
                let digits = (odd * 5u64.pow(k as u32)).to_string();
                format!("{}.{}", &digits[..digits.len() - k], &digits[digits.len() - k..])
            }
        }
        5 => {
            let n = 18 + rng.below(4) as usize;
            let mut t: String = (0..n).map(|_| char::from(b'0' + rng.below(10) as u8)).collect();
            if rng.below(2) == 0 {
                t.insert(1 + rng.below(n as u64 - 1) as usize, '.');
            }
            if rng.below(2) == 0 {
                t.push_str(&format!("e{}", rng.below(80) as i64 - 40));
            }
            t
        }
        _ => {
            const ALPHABET: &[char] = &[
                '0', '1', '5', '9', '.', 'e', 'E', '-', '+', 'n', 'i', '\u{b}', 'é', '\u{2003}',
                '٣',
            ];
            let n = 1 + rng.below(6) as usize;
            (0..n).map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize]).collect()
        }
    }
}

/// A payload of random tokens between runs of mixed ASCII whitespace,
/// and a value count that is sometimes short of the tokens (the rest are
/// ignored) and sometimes past them (truncated).
fn random_payload(seed: u64) -> (String, usize) {
    const SEPARATORS: &[char] = &[' ', '\t', '\n', '\r', '\u{c}'];
    let mut rng = TestRng::new(seed);
    let n = rng.below(40) as usize;
    let mut payload = String::new();
    for i in 0..n {
        if i > 0 || rng.below(2) == 0 {
            for _ in 0..1 + rng.below(3) {
                payload.push(SEPARATORS[rng.below(SEPARATORS.len() as u64) as usize]);
            }
        }
        payload.push_str(&random_token(&mut rng));
    }
    if rng.below(4) == 0 {
        payload.push(' ');
    }
    let total = match rng.below(4) {
        0 => n.saturating_sub(1 + rng.below(3) as usize),
        1 => n + 1 + rng.below(3) as usize,
        _ => n,
    };
    (payload, total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// The one-pass QUERY payload parser returns the oracle's values bit
    /// for bit, or the oracle's exact error text.
    #[test]
    fn query_payload_parse_is_str_parse_bit_for_bit(seed in 0u64..u64::MAX) {
        let (payload, total) = random_payload(seed);
        let got = parse_query_values(&payload, total).map(|v| bits(&v));
        let want = oracle_query_values(&payload, total).map(|v| bits(&v));
        prop_assert!(got == want, "payload {payload:?}, {total} values: {got:?} != {want:?}");
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every QUERY `ERR` that docs/PROTOCOL.md lists, through `dispatch`.
#[test]
fn dispatch_answers_every_documented_query_error() {
    let h = test_handle();
    h.register_model("m", Algorithm::Lloyd, centroids(3, 2, 5));
    for (line, want) in [
        ("QUERY", "ERR QUERY: missing model"),
        ("QUERY m", "ERR QUERY: m: missing"),
        ("QUERY m x 2", "ERR QUERY: m: invalid digit found in string"),
        ("QUERY m 1", "ERR QUERY: d: missing"),
        ("QUERY m 1 -2", "ERR QUERY: d: invalid digit found in string"),
        ("QUERY m 9223372036854775807 3", "ERR QUERY: m*d overflows"),
        ("QUERY m 2 2 0.5 1.5 2.5", "ERR QUERY: missing value 3"),
        ("QUERY m 1 2 0.5 0,5", "ERR QUERY: value 1: invalid float literal"),
        ("QUERY m 1 2 0.5\u{b}1 7", "ERR QUERY: value 0: invalid float literal"),
        ("QUERY m 1 2 0.5 ", "ERR QUERY: missing value 1"),
        ("QUERY m 1 2 \t", "ERR QUERY: missing value 0"),
        ("QUERY ghost 1 2 0.5 1.5", "ERR unknown model `ghost`"),
        ("QUERY ghost 1 2 0.5 x", "ERR QUERY: value 1: invalid float literal"),
        ("QUERY m 1 3 0.5 1.5 2.5", "ERR query dimensionality 3 does not match model d=2"),
    ] {
        assert_eq!(dispatch(&h, line), want, "{line:?}");
    }
    // Tokens past the m·d-th are not read, and every fallback form is
    // answered like any other float.
    let ok = dispatch(&h, "QUERY m 1 2 0.5 1.5 junk");
    assert_eq!(ok, dispatch(&h, "QUERY m 1 2 0.5 1.5"));
    assert!(ok.starts_with("OK 1 "), "{ok}");
    assert!(dispatch(&h, "QUERY m 2 2 1e2 +0.5 .5 -0.0").starts_with("OK 2 "));
}
