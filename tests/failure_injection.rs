//! Failure injection: corrupted inputs and degenerate configurations must
//! fail loudly and cleanly, never silently mis-cluster.

use knor::matrix::io::TempFile;
use knor::prelude::*;
use knor_safs::RowStore;
use std::io::Write;

fn tmp(name: &str) -> TempFile {
    TempFile::new(format!("knor-failinj-{}-{name}", std::process::id()))
}

#[test]
fn corrupt_magic_is_rejected() {
    let p = tmp("magic.knor");
    std::fs::write(&p, b"NOTAKNORFILE____________________").unwrap();
    assert!(RowStore::open(&p, 4096).is_err());
    assert!(SemKmeans::new(SemConfig::new(2)).fit(&p).is_err());
}

#[test]
fn truncated_payload_errors_on_read() {
    // Valid header claiming 1000 rows, but payload cut short.
    let data = MixtureSpec::friendster_like(1000, 4, 1).generate().data;
    let p = tmp("trunc.knor");
    matrix_io::write_matrix(&p, &data).unwrap();
    let full = std::fs::read(&p).unwrap();
    let mut f = std::fs::File::create(&p).unwrap();
    f.write_all(&full[..full.len() / 2]).unwrap();
    drop(f);
    // Open succeeds (header intact); reading the missing tail must error.
    let store = RowStore::open(&p, 256).unwrap();
    let mut buf = vec![0u8; 256];
    let last_page = store.npages() - 1;
    assert!(store.read_page(last_page, &mut buf).is_err());
    // And a full SEM run surfaces the failure rather than mis-clustering.
    let result = std::panic::catch_unwind(|| {
        SemKmeans::new(SemConfig::new(2).with_threads(1).with_page_size(256)).fit(&p)
    });
    // Anything but a clean Ok(Ok) is acceptable: io error or engine panic,
    // both loud.
    if let Ok(Ok(_)) = result {
        panic!("truncated file must not cluster successfully");
    }
}

#[test]
fn missing_file_is_an_error() {
    let p = tmp("missing.knor");
    assert!(SemKmeans::new(SemConfig::new(2)).fit(&p).is_err());
    assert!(matrix_io::read_matrix(&p).is_err());
}

#[test]
#[should_panic(expected = "exceeds n")]
fn k_larger_than_n_panics() {
    let data = DMatrix::zeros(3, 2);
    let _ = Kmeans::new(KmeansConfig::new(5)).fit(&data);
}

#[test]
#[should_panic]
fn given_init_with_wrong_shape_panics() {
    let data = MixtureSpec::friendster_like(100, 4, 2).generate().data;
    let bad = DMatrix::zeros(3, 7); // wrong d
    let _ = Kmeans::new(KmeansConfig::new(3).with_init(InitMethod::Given(bad))).fit(&data);
}

#[test]
fn zero_rows_of_noise_only_data_still_terminates() {
    // Pathological: all points identical. Must converge, not spin.
    let data = DMatrix::from_vec(vec![1.0; 50 * 4], 50, 4);
    let r = Kmeans::new(KmeansConfig::new(3).with_seed(1).with_max_iters(10)).fit(&data);
    assert!(r.niters <= 10);
    assert!(r.centroids.as_slice().iter().all(|x| x.is_finite()));
    assert!(r.sse.unwrap() < 1e-18);
}

#[test]
fn dist_with_more_ranks_than_rows_is_clean() {
    let data = MixtureSpec::friendster_like(6, 3, 3).generate().data;
    let r = DistKmeans::new(DistConfig::new(2, 4, 1).with_seed(2).with_max_iters(20)).fit(&data);
    assert_eq!(r.assignments.len(), 6);
    assert!(r.converged);
}

#[test]
fn sem_read_failure_mid_run_is_an_error_not_a_hang() {
    // The file shrinks *after* the plane opened it, so the length check at
    // open cannot help: the first fetches past the new end fail inside the
    // worker loop. With two workers the failing one used to die at an
    // `expect` and leave its peer at barrier B forever; now it walks the
    // barriers, the coordinator stops the run and the error comes back. A
    // watchdog turns a regression into a failure rather than a hung suite.
    use knor::core::algo::LloydAlgo;
    use knor::core::driver::{run_mm, DriverConfig, NoReduce};
    use knor::numa::{Placement, Topology};
    use knor::sched::TaskQueue;
    use knor::sem::SemPlane;

    let (n, d, k, threads) = (2000usize, 4usize, 3usize, 2usize);
    let data = MixtureSpec::friendster_like(n, d, 5).generate().data;
    let p = tmp("shrink.knor");
    matrix_io::write_matrix(&p, &data).unwrap();
    let plane_cfg = SemPlaneConfig::default().with_page_size(256).with_row_cache_bytes(0);
    let plane = SemPlane::open_all(&p, &plane_cfg, threads).unwrap();
    let full = std::fs::metadata(&p).unwrap().len();
    std::fs::OpenOptions::new().write(true).open(&p).unwrap().set_len(full / 2).unwrap();

    let init = InitMethod::Forgy.initialize(&data, k, 1);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let cfg = DriverConfig {
            k,
            d,
            n,
            nthreads: threads,
            max_iters: 20,
            tol: 0.0,
            pruning: Pruning::Mti,
            task_size: 64,
            kernel: KernelKind::Auto,
            row_offset: 0,
            trace: None,
        };
        let placement = Placement::new(&Topology::flat(threads), n, threads);
        let queue = TaskQueue::new(SchedulerKind::Static, &placement);
        let out = run_mm(&cfg, init, &placement, &queue, &plane, &NoReduce, &LloydAlgo);
        let _ = tx.send(out.map(|o| o.iters.len()));
    });
    let result = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("a failed SEM read must end the run, not hang it");
    let err = result.expect_err("half the file is gone");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
}

#[test]
fn sem_file_that_shrinks_between_two_tasks_fails_every_later_fit_through_the_same_plane() {
    // One task is staged from the whole file; then the file loses its
    // second half; the next task, past the cut, fails. The plane must come
    // out of that usable: an earlier task still stages bit for bit (the
    // reader's request scratch went back to its pool, nothing of the failed
    // read entered the page cache), and each of two fits through the very
    // same plane ends with the read error — at one worker and at two, under
    // a watchdog, never a hang or a panic.
    use knor::core::algo::LloydAlgo;
    use knor::core::driver::{run_mm, DriverConfig, NoReduce};
    use knor::core::plane::{DrainScratch, RowSource};
    use knor::numa::{Placement, Topology};
    use knor::sched::TaskQueue;
    use knor::sem::SemPlane;
    use std::sync::Arc;

    let (n, d, k) = (2000usize, 4usize, 3usize);
    let data = MixtureSpec::friendster_like(n, d, 5).generate().data;
    for threads in [1usize, 2] {
        let p = tmp(&format!("shrink-between-tasks-{threads}.knor"));
        matrix_io::write_matrix(&p, &data).unwrap();
        let plane_cfg = SemPlaneConfig::default().with_page_size(256).with_row_cache_bytes(0);
        let plane = Arc::new(SemPlane::open_all(&p, &plane_cfg, threads).unwrap());

        let mut scratch = DrainScratch::default();
        let (early, late): (Vec<usize>, Vec<usize>) = ((0..64).collect(), (1500..1564).collect());
        let stage = |rows: &[usize], scratch: &mut DrainScratch| {
            let staged = plane.source().stage(rows, scratch, None);
            staged.map(|_| scratch.data[..rows.len() * d].to_vec())
        };
        let whole = stage(&early, &mut scratch).unwrap();
        assert_eq!(whole, data.as_slice()[..64 * d]);
        let full = std::fs::metadata(&p).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&p).unwrap().set_len(full / 2).unwrap();
        let err = stage(&late, &mut scratch).expect_err("the task lies past the cut");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "T={threads}: {err}");
        assert_eq!(stage(&early, &mut scratch).unwrap(), whole, "T={threads}");

        for fit in 0..2 {
            let (plane, init) = (Arc::clone(&plane), InitMethod::Forgy.initialize(&data, k, 1));
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let cfg = DriverConfig {
                    k,
                    d,
                    n,
                    nthreads: threads,
                    max_iters: 20,
                    tol: 0.0,
                    pruning: Pruning::Mti,
                    task_size: 64,
                    kernel: KernelKind::Auto,
                    row_offset: 0,
                    trace: None,
                };
                let placement = Placement::new(&Topology::flat(threads), n, threads);
                let queue = TaskQueue::new(SchedulerKind::Static, &placement);
                let out = run_mm(&cfg, init, &placement, &queue, &*plane, &NoReduce, &LloydAlgo);
                let _ = tx.send(out.map(|o| o.iters.len()));
            });
            let err = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("a failed SEM read must end the run, not hang it")
                .expect_err("half the file is gone");
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "T={threads} fit {fit}");
            assert!(!err.to_string().contains('\n'), "one line: {err}");
        }
    }
}

#[test]
fn file_that_shrinks_under_the_loader_is_an_error_and_the_server_keeps_serving() {
    // As above, for the in-memory loader: the length check passed at open,
    // then the file lost its second half. Every loader thread is joined
    // and the first failed read comes back — never zeros clustered as data.
    use knor::matrix::io::MatrixFile;
    use knor::serve::JobStatus;

    let data = MixtureSpec::friendster_like(2000, 4, 6).generate().data;
    let p = tmp("load-shrink.knor");
    matrix_io::write_matrix(&p, &data).unwrap();
    let file = MatrixFile::open(&p).unwrap();
    let full = std::fs::metadata(&p).unwrap().len();
    std::fs::OpenOptions::new().write(true).open(&p).unwrap().set_len(full / 2).unwrap();
    for threads in [1, 2, 5] {
        let km = Kmeans::new(KmeansConfig::new(3).with_threads(threads).with_max_iters(5));
        let err = km.fit_open(&file).expect_err("half the file is gone");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "T={threads}: {err}");
    }

    // A TRAIN job on the short file fails with the read error, and the
    // server goes on to train from a good source and answer queries.
    let h = ServeHandle::start(ServeConfig::default().with_threads(2));
    let bad = h.submit_train(TrainSpec::new("short", 3, TrainSource::File(p.to_path_buf())));
    match h.wait_job(bad).unwrap() {
        JobStatus::Failed { message } => {
            assert!(
                message.starts_with("read ") && message.contains("header declares"),
                "{message}"
            )
        }
        other => panic!("{other:?}"),
    }
    matrix_io::write_matrix(&p, &data).unwrap();
    let good = h.submit_train(TrainSpec::new("whole", 3, TrainSource::File(p.to_path_buf())));
    assert_eq!(h.wait_job(good).unwrap(), JobStatus::Done { version: 1 });
    assert_eq!(h.predict("whole", &data).unwrap().assignments.len(), 2000);
    assert!(h.registry().get("short").is_none());
}
