//! Asynchronous training jobs: submit a workload against any engine, poll
//! (or wait for) its status, and find the trained model in the registry.
//!
//! One background runner thread executes jobs in submission order — the
//! engines are internally parallel, so serializing jobs keeps training
//! from oversubscribing the machine whose connection threads are scanning
//! queries. A job
//! that fails (I/O error, engine panic on a degenerate spec) is reported
//! as [`JobStatus::Failed`] with the message; it never takes the runner
//! down.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

use crossbeam_channel::{unbounded, Receiver, Sender};
use knor_core::spec::{Job, RunSpec, Source};
use knor_core::Centroids;
use knor_dist::launch;
use knor_matrix::DMatrix;

use crate::registry::{ModelRegistry, TrainDiag};

/// Where a job's training data comes from.
pub type TrainSource = Source;

/// A training job specification: the run's description plus the [`Job`]
/// around it — model name, engine, source (see `knor_core::spec`).
pub type TrainSpec = RunSpec<Job>;

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
        &spec.ext.model,
        spec.algo.clone(),
        Centroids::from_matrix(&centroids),
        diag,
    ))
}

/// Run the job's engine; returns the trained centroid matrix plus the
/// run's health diagnostics (surfaced by the `STATS` reply).
fn train(spec: &TrainSpec) -> Result<(DMatrix, TrainDiag), String> {
    let Job { engine, source, .. } = &spec.ext;
    let fitted = launch(engine, spec, source).map_err(|e| match source {
        Source::File(p) => format!("read {p:?}: {e}"),
        Source::Matrix(_) => e.to_string(),
    })?;
    let km = fitted.kmeans();
    Ok((km.centroids.clone(), TrainDiag { io_skip_rows: km.total_prune().io_skip_rows }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use knor_core::spec::{Engine, Entry};
    use knor_matrix::io as matrix_io;
    use knor_workloads::MixtureSpec;
    use std::path::PathBuf;

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
        let on = |token: &str, source: TrainSource| {
            let mut spec = TrainSpec { threads: Some(2), ..TrainSpec::new(token, 4, source) };
            spec.ext.engine = Engine::parse(token, Entry::Train).unwrap();
            runner.wait(runner.submit(spec)).unwrap()
        };
        // dist-sem: knord with SEM ranks trains straight off the file,
        // never loading the full matrix into this process.
        for token in Engine::TOKENS {
            match on(token, TrainSource::File(path.clone())) {
                JobStatus::Done { version: 1 } => {}
                other => panic!("{token}: {other:?}"),
            }
            assert_eq!(registry.get(token).unwrap().model.k(), 4);
        }
        // ...and the streaming engines refuse an in-memory source with a
        // clear message.
        for token in ["sem", "dist-sem"] {
            match on(token, TrainSource::Matrix(tiny_data(100, 3))) {
                JobStatus::Failed { message } => {
                    assert!(message.contains("file source"), "{message}")
                }
                other => panic!("{other:?}"),
            }
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
}
