//! Serving-layer integration tests: the batched predict path must be
//! **bitwise identical** to the serial per-row `nearest` scan for every
//! kernel knob and every algorithm's normalization, and one registry
//! model must survive being hammered from many client threads.

use std::sync::Arc;

use knor::prelude::*;
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
