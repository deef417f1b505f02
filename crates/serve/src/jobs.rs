//! Asynchronous training jobs: submit a workload against any engine, poll
//! (or wait for) its status, and find the trained model in the registry.
//!
//! One background runner thread executes jobs in submission order — the
//! engines are internally parallel, so serializing jobs keeps training
//! from oversubscribing the machine the predict pool is serving on. A job
//! that fails (I/O error, engine panic on a degenerate spec) is reported
//! as [`JobStatus::Failed`] with the message; it never takes the runner
//! down.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};

use crossbeam_channel::{unbounded, Receiver, Sender};
use knor_core::{Algorithm, Centroids, Kmeans, KmeansConfig, Pruning};
use knor_dist::{DistConfig, DistKmeans, RankPlane};
use knor_matrix::{io as matrix_io, DMatrix};
use knor_sem::{SemConfig, SemKmeans};

use crate::registry::{ModelRegistry, TrainDiag};

/// Which engine a training job runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// In-memory (knori).
    Im,
    /// Semi-external-memory (knors) — requires a file source.
    Sem,
    /// Simulated-distributed (knord).
    Dist,
}

impl EngineKind {
    /// Stable name (CLI, wire protocol).
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Im => "im",
            EngineKind::Sem => "sem",
            EngineKind::Dist => "dist",
        }
    }

    /// Inverse of [`EngineKind::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "im" => Some(EngineKind::Im),
            "sem" => Some(EngineKind::Sem),
            "dist" => Some(EngineKind::Dist),
            _ => None,
        }
    }
}

/// Where a job's training data comes from.
#[derive(Debug, Clone)]
pub enum TrainSource {
    /// A knor binary matrix on disk (the only source knors accepts).
    File(PathBuf),
    /// An in-memory matrix (in-process API).
    Matrix(DMatrix),
}

/// A training job specification.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// Registry name the trained model is published under.
    pub model: String,
    /// Engine to train on.
    pub engine: EngineKind,
    /// Clustering algorithm.
    pub algo: Algorithm,
    /// Number of clusters.
    pub k: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Seed for initialization.
    pub seed: u64,
    /// Pruning scheme the engines run under (`none|mti|yinyang`).
    pub pruning: Pruning,
    /// Worker threads (None = engine default).
    pub threads: Option<usize>,
    /// Simulated ranks for the dist engine.
    pub ranks: usize,
    /// Per-rank data plane for the dist engine (`Sem` streams each rank's
    /// byte range from the file — requires a [`TrainSource::File`]).
    pub plane: RankPlane,
    /// Training data.
    pub source: TrainSource,
}

impl TrainSpec {
    /// A spec with the common defaults (im engine, Lloyd, 30 iterations).
    pub fn new(model: &str, k: usize, source: TrainSource) -> Self {
        Self {
            model: model.to_string(),
            engine: EngineKind::Im,
            algo: Algorithm::Lloyd,
            k,
            max_iters: 30,
            seed: 1,
            pruning: Pruning::default(),
            threads: None,
            ranks: 2,
            plane: RankPlane::InMemory,
            source,
        }
    }
}

/// Handle to a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Lifecycle of a training job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Submitted, not started.
    Queued,
    /// Training now.
    Running,
    /// Model registered under the job's name at this version.
    Done {
        /// Registry version assigned to the trained model.
        version: u32,
    },
    /// Training failed; the message explains why.
    Failed {
        /// Failure description.
        message: String,
    },
}

impl JobStatus {
    /// True once the job can make no further progress.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobStatus::Done { .. } | JobStatus::Failed { .. })
    }

    /// One-line wire form (`STATUS` response payload).
    pub fn render(&self) -> String {
        match self {
            JobStatus::Queued => "queued".into(),
            JobStatus::Running => "running".into(),
            JobStatus::Done { version } => format!("done {version}"),
            JobStatus::Failed { message } => format!("failed {message}"),
        }
    }
}

struct JobState {
    jobs: Mutex<HashMap<JobId, JobStatus>>,
    changed: Condvar,
}

impl JobState {
    fn set(&self, id: JobId, status: JobStatus) {
        self.jobs.lock().expect("job table poisoned").insert(id, status);
        self.changed.notify_all();
    }
}

/// The job queue + runner thread.
pub struct JobRunner {
    tx: Sender<Option<(JobId, TrainSpec)>>,
    state: Arc<JobState>,
    next_id: Mutex<u64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl JobRunner {
    /// Start the runner, publishing trained models into `registry`.
    pub fn start(registry: Arc<ModelRegistry>) -> Self {
        let (tx, rx): (Sender<Option<(JobId, TrainSpec)>>, Receiver<_>) = unbounded();
        let state =
            Arc::new(JobState { jobs: Mutex::new(HashMap::new()), changed: Condvar::new() });
        let st = Arc::clone(&state);
        let handle = std::thread::spawn(move || {
            while let Ok(Some((id, spec))) = rx.recv() {
                st.set(id, JobStatus::Running);
                let status = match run_job(&registry, &spec) {
                    Ok(version) => JobStatus::Done { version },
                    Err(message) => JobStatus::Failed { message },
                };
                st.set(id, status);
            }
        });
        Self { tx, state, next_id: Mutex::new(1), handle: Some(handle) }
    }

    /// Enqueue a job.
    pub fn submit(&self, spec: TrainSpec) -> JobId {
        let id = {
            let mut next = self.next_id.lock().expect("job id counter poisoned");
            let id = JobId(*next);
            *next += 1;
            id
        };
        self.state.set(id, JobStatus::Queued);
        self.tx.send(Some((id, spec))).expect("job runner gone");
        id
    }

    /// Current status, `None` for unknown ids.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.state.jobs.lock().expect("job table poisoned").get(&id).cloned()
    }

    /// Block until `id` reaches a terminal status.
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        let mut jobs = self.state.jobs.lock().expect("job table poisoned");
        loop {
            match jobs.get(&id) {
                None => return None,
                Some(s) if s.is_terminal() => return Some(s.clone()),
                Some(_) => jobs = self.state.changed.wait(jobs).expect("job table poisoned"),
            }
        }
    }

    fn stop(&mut self) {
        let _ = self.tx.send(None);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for JobRunner {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Execute one job; returns the registered version or a failure message.
/// Engine panics (degenerate specs trip `assert!`s, e.g. `k > n`) are
/// caught and reported like errors.
fn run_job(registry: &ModelRegistry, spec: &TrainSpec) -> Result<u32, String> {
    let (centroids, diag) = catch_unwind(AssertUnwindSafe(|| train(spec))).map_err(|p| {
        match p.downcast_ref::<String>() {
            Some(s) => format!("engine panicked: {s}"),
            None => match p.downcast_ref::<&str>() {
                Some(s) => format!("engine panicked: {s}"),
                None => "engine panicked".to_string(),
            },
        }
    })??;
    Ok(registry.register_model_trained(
        &spec.model,
        spec.algo.clone(),
        Centroids::from_matrix(&centroids),
        None,
        diag,
    ))
}

/// Run the configured engine; returns the trained centroid matrix plus
/// the run's health diagnostics (surfaced by the `STATS` reply).
fn train(spec: &TrainSpec) -> Result<(DMatrix, TrainDiag), String> {
    let read_err = |p: &PathBuf, e: std::io::Error| format!("read {p:?}: {e}");
    match spec.engine {
        EngineKind::Im => {
            let mut cfg = KmeansConfig::new(spec.k)
                .with_seed(spec.seed)
                .with_pruning(spec.pruning)
                .with_algo(spec.algo.clone())
                .with_max_iters(spec.max_iters)
                .with_sse(false);
            if let Some(t) = spec.threads {
                cfg = cfg.with_threads(t);
            }
            let km = Kmeans::new(cfg);
            let r = match &spec.source {
                // Loaded straight into the placed layout: held once.
                TrainSource::File(p) => km.fit_file(p).map_err(|e| read_err(p, e))?,
                TrainSource::Matrix(m) => km.fit(m),
            };
            let diag = TrainDiag {
                panicked_io_threads: 0,
                publish_bytes: r.total_publish_bytes(),
                io_skip_rows: r.total_prune().io_skip_rows,
            };
            Ok((r.centroids, diag))
        }
        EngineKind::Sem => {
            let path = match &spec.source {
                TrainSource::File(p) => p.clone(),
                TrainSource::Matrix(_) => return Err("sem engine trains from a file source".into()),
            };
            let mut cfg = SemConfig::new(spec.k)
                .with_seed(spec.seed)
                .with_pruning(spec.pruning)
                .with_algo(spec.algo.clone())
                .with_max_iters(spec.max_iters);
            if let Some(t) = spec.threads {
                cfg = cfg.with_threads(t);
            }
            let r = SemKmeans::new(cfg).fit(&path).map_err(|e| format!("sem run: {e}"))?;
            let diag = TrainDiag {
                panicked_io_threads: r.panicked_io_threads,
                publish_bytes: r.kmeans.total_publish_bytes(),
                io_skip_rows: r.kmeans.total_prune().io_skip_rows,
            };
            Ok((r.kmeans.centroids, diag))
        }
        EngineKind::Dist => {
            let cfg = DistConfig::new(spec.k, spec.ranks.max(1), spec.threads.unwrap_or(2))
                .with_seed(spec.seed)
                .with_pruning(spec.pruning)
                .with_algo(spec.algo.clone())
                .with_plane(spec.plane.clone())
                .with_max_iters(spec.max_iters);
            let dist_diag = |r: &knor_dist::DistResult| TrainDiag {
                panicked_io_threads: r.rank_io.iter().map(|io| io.panicked_io_threads).sum(),
                publish_bytes: r.iters.iter().map(|i| i.publish_bytes).sum(),
                io_skip_rows: r.total_prune().io_skip_rows,
            };
            if matches!(spec.plane, RankPlane::Sem(_)) {
                // SEM ranks stream their byte ranges, so the job needs a
                // file and never materializes the matrix in this process.
                let path = match &spec.source {
                    TrainSource::File(p) => p.clone(),
                    TrainSource::Matrix(_) => {
                        return Err("dist engine with a sem plane trains from a file source".into())
                    }
                };
                // File-based init cannot run a full D² pass.
                let cfg = cfg.with_init(knor_core::InitMethod::Forgy);
                let r = DistKmeans::new(cfg)
                    .fit_file(&path)
                    .map_err(|e| format!("dist+sem run: {e}"))?;
                let diag = dist_diag(&r);
                return Ok((r.centroids, diag));
            }
            let loaded;
            let data = match &spec.source {
                TrainSource::File(p) => {
                    loaded = matrix_io::read_matrix(p).map_err(|e| read_err(p, e))?;
                    &loaded
                }
                TrainSource::Matrix(m) => m,
            };
            let r = DistKmeans::new(cfg).fit(data);
            let diag = dist_diag(&r);
            Ok((r.centroids, diag))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knor_workloads::MixtureSpec;

    fn tiny_data(n: usize, d: usize) -> DMatrix {
        MixtureSpec::friendster_like(n, d, 11).generate().data
    }

    #[test]
    fn jobs_run_register_and_report() {
        let registry = Arc::new(ModelRegistry::new());
        let runner = JobRunner::start(Arc::clone(&registry));
        let data = tiny_data(300, 4);
        let id = runner.submit(TrainSpec {
            threads: Some(2),
            ..TrainSpec::new("gmm", 5, TrainSource::Matrix(data))
        });
        let status = runner.wait(id).unwrap();
        assert_eq!(status, JobStatus::Done { version: 1 });
        let entry = registry.get("gmm").unwrap();
        assert_eq!(entry.model.k(), 5);
        assert_eq!(entry.model.d(), 4);
        assert!(runner.status(JobId(999)).is_none());
    }

    #[test]
    fn all_engines_train_from_a_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("knor-serve-jobs-{}.knor", std::process::id()));
        matrix_io::write_matrix(&path, &tiny_data(400, 3)).unwrap();
        let registry = Arc::new(ModelRegistry::new());
        let runner = JobRunner::start(Arc::clone(&registry));
        for engine in [EngineKind::Im, EngineKind::Sem, EngineKind::Dist] {
            let id = runner.submit(TrainSpec {
                engine,
                threads: Some(2),
                ..TrainSpec::new(engine.name(), 4, TrainSource::File(path.clone()))
            });
            match runner.wait(id).unwrap() {
                JobStatus::Done { version: 1 } => {}
                other => panic!("{}: {other:?}", engine.name()),
            }
            assert_eq!(registry.get(engine.name()).unwrap().model.k(), 4);
        }
        // dist with SEM ranks: trains straight off the file, never
        // loading the full matrix into this process.
        let id = runner.submit(TrainSpec {
            engine: EngineKind::Dist,
            plane: RankPlane::sem_default(),
            threads: Some(2),
            ..TrainSpec::new("dist-sem", 4, TrainSource::File(path.clone()))
        });
        match runner.wait(id).unwrap() {
            JobStatus::Done { version: 1 } => {}
            other => panic!("dist-sem: {other:?}"),
        }
        assert_eq!(registry.get("dist-sem").unwrap().model.k(), 4);
        // ...and refuses an in-memory source with a clear message.
        let id = runner.submit(TrainSpec {
            engine: EngineKind::Dist,
            plane: RankPlane::sem_default(),
            ..TrainSpec::new("dist-sem-mem", 4, TrainSource::Matrix(tiny_data(100, 3)))
        });
        match runner.wait(id).unwrap() {
            JobStatus::Failed { message } => assert!(message.contains("file source"), "{message}"),
            other => panic!("{other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failures_are_reported_not_fatal() {
        let registry = Arc::new(ModelRegistry::new());
        let runner = JobRunner::start(Arc::clone(&registry));
        // Missing file → error; k > n → engine assert caught as panic.
        let bad_file = runner.submit(TrainSpec::new(
            "nope",
            3,
            TrainSource::File(PathBuf::from("/nonexistent/x.knor")),
        ));
        match runner.wait(bad_file).unwrap() {
            JobStatus::Failed { message } => assert!(message.contains("read")),
            other => panic!("{other:?}"),
        }
        let degenerate =
            runner.submit(TrainSpec::new("nope2", 50, TrainSource::Matrix(tiny_data(10, 2))));
        match runner.wait(degenerate).unwrap() {
            JobStatus::Failed { message } => {
                assert!(message.contains("panicked"), "{message}")
            }
            other => panic!("{other:?}"),
        }
        // The runner survives: a good job still completes.
        let ok = runner.submit(TrainSpec::new("fine", 3, TrainSource::Matrix(tiny_data(100, 2))));
        assert_eq!(runner.wait(ok).unwrap(), JobStatus::Done { version: 1 });
        assert!(registry.get("nope").is_none());
    }

    #[test]
    fn engine_kind_round_trip() {
        for e in [EngineKind::Im, EngineKind::Sem, EngineKind::Dist] {
            assert_eq!(EngineKind::parse(e.name()), Some(e));
        }
        assert_eq!(EngineKind::parse("gpu"), None);
    }
}
