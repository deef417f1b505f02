//! `knor-serve` — the serving half of knor: hold trained models, answer
//! nearest-centroid queries at batch throughput, and train new models in
//! the background, all from one long-lived process.
//!
//! # Architecture (DESIGN.md §9)
//!
//! ```text
//!  knor query / knor train (CLI)        in-process callers
//!            │ line-delimited TCP                │
//!            ▼                                   ▼
//!      [tcp front end]  ──────────────▶  [ServeHandle]
//!                                        │        │
//!                              [JobRunner]        [ModelRegistry]
//!                              train on any        name → versioned
//!                              engine, publish     models + ServeStats
//!                                        │        │
//!                                        ▼        ▼
//!                                      [WorkerPool]
//!                              persistent NUMA-bound threads,
//!                              batched gemm-scan predict
//! ```
//!
//! The predict path is the training kernel layer verbatim: query blocks
//! are chunked and pushed through [`knor_core::kernel::assign_rows_packed`]
//! against the centroid panel each model packs once at registration, so
//! serving throughput inherits every training-kernel optimization and
//! every answer is **bitwise identical** to the serial per-row
//! [`knor_core::distance::nearest`] scan: the gemm scan certifies each
//! winner, or re-scans the row with `nearest` (served distances are a
//! contract). Spherical models exercise the dot-product scan at *training*
//! time; at serving time their queries are renormalized exactly like
//! training rows were ([`knor_core::Normalization`]) and scanned like any
//! other model's.
//!
//! # Quick start
//!
//! ```
//! use knor_serve::{ServeConfig, ServeHandle};
//! use knor_core::Algorithm;
//! use knor_matrix::DMatrix;
//!
//! let handle = ServeHandle::start(ServeConfig::default().with_threads(2));
//! let cents = DMatrix::from_vec(vec![0.0, 0.0, 10.0, 10.0], 2, 2);
//! handle.register_model("demo", Algorithm::Lloyd, cents);
//! let queries = DMatrix::from_vec(vec![1.0, 1.0, 9.0, 9.5], 2, 2);
//! let out = handle.predict("demo", &queries).unwrap();
//! assert_eq!(out.assignments, vec![0, 1]);
//! ```

pub mod jobs;
pub mod metrics;
pub mod pool;
pub mod registry;
pub mod stats;
pub mod tcp;

use std::path::Path;
use std::sync::Arc;

use knor_core::distance::nearest;
use knor_core::{Algorithm, KernelKind};
use knor_matrix::DMatrix;
use knor_numa::Topology;

pub use jobs::{JobId, JobStatus, TrainSource, TrainSpec};
pub use metrics::render_prometheus;
pub use pool::{PredictError, PredictTiming};
pub use registry::{Model, ModelEntry, ModelRegistry, TrainDiag};
pub use stats::{
    Clock, LatencyHistogram, ManualClock, MonotonicClock, ServeStats, StatsSnapshot, REQUEST_PHASES,
};
#[doc(hidden)]
pub use tcp::{MuxConfig, MuxServer};

use jobs::JobRunner;
use pool::WorkerPool;

/// Serving-layer errors.
#[derive(Debug)]
pub enum ServeError {
    /// No model registered under this name (or version).
    UnknownModel(String),
    /// The predict call itself failed.
    Predict(PredictError),
    /// Registry persistence failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel(name) => write!(f, "unknown model `{name}`"),
            ServeError::Predict(e) => write!(f, "{e}"),
            ServeError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PredictError> for ServeError {
    fn from(e: PredictError) -> Self {
        ServeError::Predict(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Configuration for a serving instance.
pub struct ServeConfig {
    /// Predict worker threads (default: all available CPUs).
    pub threads: Option<usize>,
    /// Machine topology for NUMA binding (default: detect).
    pub topology: Option<Topology>,
    /// Default kernel knob for predict scans (resolved in exact mode).
    pub kernel: KernelKind,
    /// Upper bound on rows per predict chunk.
    pub chunk_cap: usize,
    /// Time source for serving stats (inject [`ManualClock`] in tests).
    pub clock: Arc<dyn Clock>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: None,
            topology: None,
            kernel: KernelKind::Auto,
            chunk_cap: 8192,
            clock: Arc::new(MonotonicClock::new()),
        }
    }
}

impl ServeConfig {
    /// Set the predict worker count.
    pub fn with_threads(mut self, v: usize) -> Self {
        self.threads = Some(v.max(1));
        self
    }

    /// Supply a topology (synthetic topologies skip real binding).
    pub fn with_topology(mut self, v: Topology) -> Self {
        self.topology = Some(v);
        self
    }

    /// Choose the default predict kernel knob.
    pub fn with_kernel(mut self, v: KernelKind) -> Self {
        self.kernel = v;
        self
    }

    /// Inject a clock (tests).
    pub fn with_clock(mut self, v: Arc<dyn Clock>) -> Self {
        self.clock = v;
        self
    }
}

struct ServeInner {
    registry: Arc<ModelRegistry>,
    pool: WorkerPool,
    jobs: JobRunner,
    clock: Arc<dyn Clock>,
    kernel: KernelKind,
}

/// A handle to a running serving instance. Cheaply cloneable; the
/// instance (worker pool, job runner, registry) lives until the last
/// handle drops.
#[derive(Clone)]
pub struct ServeHandle {
    inner: Arc<ServeInner>,
}

/// One answered predict batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Winning centroid per query row.
    pub assignments: Vec<u32>,
    /// Exact distance to the winner per query row (after the model's
    /// normalization was applied to the query).
    pub distances: Vec<f64>,
}

impl ServeHandle {
    /// Start a serving instance.
    pub fn start(cfg: ServeConfig) -> Self {
        let topo = cfg.topology.unwrap_or_else(Topology::detect);
        let hw = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(2);
        let threads = cfg.threads.unwrap_or(hw).max(1);
        let registry = Arc::new(ModelRegistry::new());
        let pool = WorkerPool::spawn(threads, &topo, cfg.chunk_cap.max(1));
        let jobs = JobRunner::start(Arc::clone(&registry));
        Self {
            inner: Arc::new(ServeInner {
                registry,
                pool,
                jobs,
                clock: cfg.clock,
                kernel: cfg.kernel,
            }),
        }
    }

    /// The model registry (read access for callers that want more than
    /// the convenience methods below).
    pub fn registry(&self) -> &ModelRegistry {
        &self.inner.registry
    }

    /// The instance's injected time source (the TCP dispatch times its
    /// parse and format phases with it, on the same clock as the kernel
    /// phases).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.inner.clock
    }

    /// Register a trained `k × d` centroid matrix; returns the version.
    pub fn register_model(&self, name: &str, algo: Algorithm, centroids: DMatrix) -> u32 {
        self.inner.registry.register(name, algo, centroids)
    }

    /// Predict with the instance's default kernel knob.
    pub fn predict(&self, model: &str, queries: &DMatrix) -> Result<Prediction, ServeError> {
        self.predict_rows(model, queries.as_slice(), queries.ncol())
    }

    /// Predict over a flat row-major `m × d` block.
    pub fn predict_rows(
        &self,
        model: &str,
        queries: &[f64],
        d: usize,
    ) -> Result<Prediction, ServeError> {
        self.predict_rows_with(model, queries, d, self.inner.kernel)
    }

    /// Predict with an explicit kernel knob (resolved in exact mode, so
    /// every choice is bitwise identical to the serial reference).
    pub fn predict_rows_with(
        &self,
        model: &str,
        queries: &[f64],
        d: usize,
        kernel: KernelKind,
    ) -> Result<Prediction, ServeError> {
        let entry = self
            .inner
            .registry
            .get(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        self.predict_entry_with(&entry, queries, d, kernel)
    }

    /// Predict against a specific, already-resolved model entry with the
    /// instance's default kernel knob, so a request runs against the
    /// exact version it resolved, regardless of swaps in between.
    pub fn predict_entry(
        &self,
        entry: &Arc<ModelEntry>,
        queries: &[f64],
        d: usize,
    ) -> Result<Prediction, ServeError> {
        self.predict_entry_with(entry, queries, d, self.inner.kernel)
    }

    fn predict_entry_with(
        &self,
        entry: &Arc<ModelEntry>,
        queries: &[f64],
        d: usize,
        kernel: KernelKind,
    ) -> Result<Prediction, ServeError> {
        let t_req = self.inner.clock.now_ns();
        let rk = kernel.resolve(entry.model.k(), entry.model.d(), false);
        let t0 = self.inner.clock.now_ns();
        let (assignments, distances, timing) =
            self.inner.pool.predict_timed(entry, rk, queries, d, Some(&*self.inner.clock))?;
        let t1 = self.inner.clock.now_ns();
        entry.stats.record_batch(assignments.len() as u64, t0, t1);
        entry.stats.record_phases([
            t0.saturating_sub(t_req),
            timing.dispatch_ns,
            timing.kernel_ns,
            timing.reply_ns,
            0,
            0,
        ]);
        Ok(Prediction { assignments, distances })
    }

    /// Submit a training job; the trained model lands in the registry
    /// under `spec.model`.
    pub fn submit_train(&self, spec: TrainSpec) -> JobId {
        self.inner.jobs.submit(spec)
    }

    /// Poll a job.
    pub fn job_status(&self, id: JobId) -> Option<JobStatus> {
        self.inner.jobs.status(id)
    }

    /// Block until a job finishes.
    pub fn wait_job(&self, id: JobId) -> Option<JobStatus> {
        self.inner.jobs.wait(id)
    }

    /// Serving stats of a model (latest version).
    pub fn stats(&self, model: &str) -> Option<StatsSnapshot> {
        self.inner.registry.get(model).map(|e| e.stats.snapshot())
    }

    /// `(name, latest version, queries)` for every model.
    pub fn list(&self) -> Vec<(String, u32, u64)> {
        self.inner.registry.list()
    }

    /// Persist a model (latest version) under `dir`; returns the meta path.
    pub fn save_model(&self, name: &str, dir: &Path) -> Result<std::path::PathBuf, ServeError> {
        Ok(self.inner.registry.save(name, dir)?)
    }

    /// Load a saved model from its meta path.
    pub fn load_model(&self, meta: &Path) -> Result<(String, u32), ServeError> {
        Ok(self.inner.registry.load(meta)?)
    }

    /// Scan panics caught by the predict pool (diagnostics).
    pub fn caught_panics(&self) -> u64 {
        self.inner.pool.caught_panics()
    }

    /// Predict calls answered on the calling thread, without a pool
    /// hand-off (diagnostics; see [`pool`]).
    pub fn inline_calls(&self) -> u64 {
        self.inner.pool.inline_calls()
    }
}

/// The serial reference for predict: apply the model's normalization to
/// each row, then the per-row [`nearest`] scan. The batched pool path must
/// be bitwise identical to this.
pub fn predict_serial(model: &Model, queries: &[f64], d: usize) -> Prediction {
    assert_eq!(d, model.d(), "query dimensionality mismatch");
    let mut buf = vec![0.0; d];
    let mut assignments = Vec::with_capacity(queries.len() / d.max(1));
    let mut distances = Vec::with_capacity(assignments.capacity());
    for row in queries.chunks_exact(d.max(1)) {
        model.normalization.apply(row, &mut buf);
        let (a, dist) = nearest(&buf, &model.centroids.means, model.k());
        assignments.push(a as u32);
        distances.push(dist);
    }
    Prediction { assignments, distances }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knor_workloads::MixtureSpec;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn handle() -> ServeHandle {
        ServeHandle::start(
            ServeConfig::default()
                .with_threads(4)
                .with_topology(Topology::synthetic(2, 2))
                .with_clock(Arc::new(ManualClock::new())),
        )
    }

    fn random_cents(k: usize, d: usize, seed: u64) -> DMatrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        DMatrix::from_vec((0..k * d).map(|_| rng.gen_range(-3.0..3.0)).collect(), k, d)
    }

    #[test]
    fn end_to_end_train_then_predict() {
        let h = handle();
        let data = MixtureSpec::friendster_like(600, 5, 3).generate().data;
        let id = h.submit_train(TrainSpec {
            threads: Some(2),
            ..TrainSpec::new("mix", 6, TrainSource::Matrix(data.clone()))
        });
        assert_eq!(h.wait_job(id), Some(JobStatus::Done { version: 1 }));
        let out = h.predict("mix", &data).unwrap();
        assert_eq!(out.assignments.len(), 600);
        let reference = predict_serial(&h.registry().get("mix").unwrap().model, data.as_slice(), 5);
        assert_eq!(out, reference);
        let s = h.stats("mix").unwrap();
        assert_eq!(s.queries, 600);
        assert_eq!(s.batches, 1);
        assert_eq!(h.list(), vec![("mix".into(), 1, 600)]);
    }

    #[test]
    fn every_kernel_knob_is_bitwise_exact() {
        let h = handle();
        h.register_model("m", Algorithm::Lloyd, random_cents(17, 9, 5));
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let q: Vec<f64> = (0..333 * 9).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let reference = predict_serial(&h.registry().get("m").unwrap().model, &q, 9);
        for kernel in [KernelKind::Auto, KernelKind::Scalar, KernelKind::Gemm] {
            let out = h.predict_rows_with("m", &q, 9, kernel).unwrap();
            assert_eq!(out.assignments, reference.assignments, "{kernel:?}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out.distances), bits(&reference.distances), "{kernel:?}");
        }
    }

    #[test]
    fn spherical_queries_renormalize_like_training() {
        let h = handle();
        // Unit-norm centroids, as spherical training maintains.
        let mut cents = random_cents(8, 6, 7);
        for r in 0..8 {
            let row = &mut cents.as_mut_slice()[r * 6..(r + 1) * 6];
            let n = row.iter().map(|x| x * x).sum::<f64>().sqrt();
            row.iter_mut().for_each(|x| *x /= n);
        }
        h.register_model("sph", Algorithm::Spherical, cents);
        let entry = h.registry().get("sph").unwrap();
        assert_eq!(entry.model.normalization, knor_core::Normalization::UnitRow);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let q: Vec<f64> = (0..97 * 6).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let out = h.predict_rows("sph", &q, 6).unwrap();
        assert_eq!(out, predict_serial(&entry.model, &q, 6));
        // Against unit centroids, the renormalized Euclidean argmin must
        // agree with the cosine (dot) argmax spherical training uses.
        for (i, row) in q.chunks_exact(6).enumerate() {
            let algo = Algorithm::Spherical.resolve(8, 97, 0);
            let dot_argmax = algo.map(row, &entry.model.centroids).cluster;
            assert_eq!(out.assignments[i], dot_argmax, "row {i}");
        }
    }

    #[test]
    fn unknown_model_and_dim_mismatch() {
        let h = handle();
        assert!(matches!(h.predict_rows("ghost", &[0.0], 1), Err(ServeError::UnknownModel(_))));
        h.register_model("m", Algorithm::Lloyd, random_cents(2, 3, 9));
        assert!(matches!(
            h.predict_rows("m", &[0.0, 0.0], 2),
            Err(ServeError::Predict(PredictError::DimMismatch { expected: 3, got: 2 }))
        ));
    }

    #[test]
    fn save_load_and_reserve() {
        let h = handle();
        h.register_model("keep", Algorithm::Lloyd, random_cents(4, 3, 10));
        let dir = std::env::temp_dir().join(format!("knor-serve-lib-{}", std::process::id()));
        let meta = h.save_model("keep", &dir).unwrap();
        let h2 = handle();
        assert_eq!(h2.load_model(&meta).unwrap(), ("keep".into(), 1));
        let q = [0.1, 0.2, 0.3];
        let a = h.predict_rows("keep", &q, 3).unwrap();
        let b = h2.predict_rows("keep", &q, 3).unwrap();
        assert_eq!(a, b, "a reloaded model answers identically");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
