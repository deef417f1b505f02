//! The model registry: named, versioned trained models plus their serving
//! stats, with save/load through the knor binary matrix format.
//!
//! A model is the durable output of a training run: the centroid set, the
//! algorithm that produced it, and the normalization its queries must
//! undergo ([`knor_core::Normalization`]) — querying a spherical model
//! without renormalizing answers a different question than the model was
//! fitted to, so the normalization travels *with* the model, not with the
//! caller.
//!
//! On disk a model is two files next to each other: `<name>-v<V>.knor`
//! (the `k × d` centroid matrix, in the same self-describing binary format
//! the engines train from) and `<name>-v<V>.meta` (a small key=value text
//! sidecar carrying name/version/algorithm/normalization).

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

use knor_core::kernel::CentroidPanel;
use knor_core::{Algorithm, Centroids, Normalization, ResolvedKernel};
use knor_matrix::{io as matrix_io, DMatrix};

use crate::stats::ServeStats;

/// A named, versioned, servable model.
#[derive(Debug, Clone)]
pub struct Model {
    /// Registry name.
    pub name: String,
    /// Version within the name (1-based, assigned at registration).
    pub version: u32,
    /// Algorithm that trained the centroids (metadata; drives
    /// normalization and is recorded on save).
    pub algo: Algorithm,
    /// Query-row normalization contract.
    pub normalization: Normalization,
    /// The trained `k × d` centroid set.
    pub centroids: Centroids,
    /// `centroids` packed for the gemm scan, norms included, once at
    /// registration: a query packs nothing.
    pub(crate) panel: CentroidPanel,
    /// The kernel the model's shape picks, resolved once at registration:
    /// a query resolves nothing.
    pub(crate) kernel: ResolvedKernel,
}

impl Model {
    /// A model over `centroids`, packed for the gemm scan, with the kernel
    /// its shape picks.
    fn new(
        name: &str,
        version: u32,
        algo: Algorithm,
        normalization: Normalization,
        centroids: Centroids,
    ) -> Self {
        let mut panel = CentroidPanel::default();
        panel.pack(&centroids);
        let kernel = ResolvedKernel::for_shape(centroids.k(), centroids.d);
        Model { name: name.to_string(), version, algo, normalization, centroids, panel, kernel }
    }

    /// The kernel every query against this model scans with.
    pub fn kernel(&self) -> ResolvedKernel {
        self.kernel
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.k()
    }

    /// Dimensionality queries must have.
    pub fn d(&self) -> usize {
        self.centroids.d
    }
}

/// Health/accounting diagnostics of the training run that produced a
/// model (all zero for models that were loaded from disk or registered
/// directly rather than trained in-process).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainDiag {
    /// Rows whose *fetch* the staged (SEM) plane skipped because bound
    /// pruning eliminated them before their data was needed (always 0 on
    /// direct planes — distance-pruning there saves compute, not I/O).
    pub io_skip_rows: u64,
}

/// A registered model plus its live serving stats.
pub struct ModelEntry {
    /// The immutable model.
    pub model: Model,
    /// Mutating serving counters.
    pub stats: ServeStats,
    /// Diagnostics of the training run that produced the model.
    pub train: TrainDiag,
}

/// All versions registered under one name plus the serve pin.
#[derive(Default)]
struct Versions {
    entries: Vec<Arc<ModelEntry>>,
    /// Pinned served version. `None` = serve the latest (new registrations
    /// auto-flip); `Some(v)` = hold at `v` (SWAP / ROLLBACK).
    pin: Option<u32>,
}

impl Versions {
    fn served(&self) -> Option<Arc<ModelEntry>> {
        match self.pin {
            Some(v) => self.entries.iter().find(|e| e.model.version == v).cloned(),
            None => self.entries.last().cloned(),
        }
    }
}

/// Thread-safe name → versions map. Reads (the predict hot path) take a
/// shared lock and clone one `Arc`.
pub struct ModelRegistry {
    inner: RwLock<HashMap<String, Versions>>,
}

impl ModelRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self { inner: RwLock::new(HashMap::new()) }
    }

    /// Register a trained centroid matrix under `name`; the normalization
    /// is derived from `algo`. Returns the assigned version (previous
    /// versions stay queryable via [`ModelRegistry::get_version`]).
    pub fn register(&self, name: &str, algo: Algorithm, centroids: DMatrix) -> u32 {
        self.register_model(name, algo, Centroids::from_matrix(&centroids))
    }

    /// [`ModelRegistry::register`] for an already-built [`Centroids`].
    pub fn register_model(&self, name: &str, algo: Algorithm, centroids: Centroids) -> u32 {
        self.register_model_trained(name, algo, centroids, TrainDiag::default())
    }

    /// [`ModelRegistry::register_model`] with the training run's
    /// diagnostics attached (the job runner's registration path).
    pub fn register_model_trained(
        &self,
        name: &str,
        algo: Algorithm,
        centroids: Centroids,
        train: TrainDiag,
    ) -> u32 {
        let mut map = self.inner.write().expect("registry poisoned");
        let versions = map.entry(name.to_string()).or_default();
        let version = versions.entries.last().map(|e| e.model.version).unwrap_or(0) + 1;
        let normalization = algo.normalization();
        versions.entries.push(Arc::new(ModelEntry {
            model: Model::new(name, version, algo, normalization, centroids),
            stats: ServeStats::new(),
            train,
        }));
        version
    }

    /// The **served** version of `name`: the pinned version if a SWAP /
    /// ROLLBACK set one, otherwise the latest (so a fresh registration
    /// atomically flips what this returns).
    pub fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.inner.read().expect("registry poisoned").get(name)?.served()
    }

    /// A specific version of `name`.
    pub fn get_version(&self, name: &str, version: u32) -> Option<Arc<ModelEntry>> {
        self.inner
            .read()
            .expect("registry poisoned")
            .get(name)?
            .entries
            .iter()
            .find(|e| e.model.version == version)
            .cloned()
    }

    /// Pin (or unpin) the served version of `name`: `Some(v)` holds serving
    /// at `v`, `None` restores serve-the-latest (auto-flip on training).
    /// Returns the version now being served.
    pub fn serve_pin(&self, name: &str, pin: Option<u32>) -> Result<u32, String> {
        let mut map = self.inner.write().expect("registry poisoned");
        let versions = map.get_mut(name).ok_or_else(|| format!("unknown model `{name}`"))?;
        if let Some(v) = pin {
            if !versions.entries.iter().any(|e| e.model.version == v) {
                return Err(format!("{name}: no version v{v}"));
            }
        }
        versions.pin = pin;
        Ok(versions.served().map(|e| e.model.version).unwrap_or(0))
    }

    /// Roll the served version of `name` back one step (to the version
    /// registered just before the one currently served) and pin it there.
    /// Returns the version now being served.
    pub fn rollback(&self, name: &str) -> Result<u32, String> {
        let mut map = self.inner.write().expect("registry poisoned");
        let versions = map.get_mut(name).ok_or_else(|| format!("unknown model `{name}`"))?;
        let cur = versions.served().ok_or_else(|| format!("{name}: no versions"))?.model.version;
        let idx = versions
            .entries
            .iter()
            .position(|e| e.model.version == cur)
            .expect("served version must be registered");
        if idx == 0 {
            return Err(format!("{name}: no version earlier than v{cur} to roll back to"));
        }
        let prev = versions.entries[idx - 1].model.version;
        versions.pin = Some(prev);
        Ok(prev)
    }

    /// The version of `name` currently served, if any.
    pub fn served_version(&self, name: &str) -> Option<u32> {
        self.inner.read().expect("registry poisoned").get(name)?.served().map(|e| e.model.version)
    }

    /// `(name, latest version, total queries across versions)` per model,
    /// sorted by name.
    pub fn list(&self) -> Vec<(String, u32, u64)> {
        let map = self.inner.read().expect("registry poisoned");
        let mut out: Vec<(String, u32, u64)> = map
            .iter()
            .map(|(name, vs)| {
                let latest = vs.entries.last().map(|e| e.model.version).unwrap_or(0);
                let queries = vs.entries.iter().map(|e| e.stats.queries()).sum();
                (name.clone(), latest, queries)
            })
            .collect();
        out.sort();
        out
    }

    /// Save the latest version of `name` under `dir` as
    /// `<name>-v<V>.knor` + `<name>-v<V>.meta`. Returns the meta path.
    pub fn save(&self, name: &str, dir: &Path) -> io::Result<PathBuf> {
        let entry = self
            .get(name)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no model {name}")))?;
        std::fs::create_dir_all(dir)?;
        let m = &entry.model;
        let stem = format!("{}-v{}", m.name, m.version);
        matrix_io::write_matrix(&dir.join(format!("{stem}.knor")), &m.centroids.to_matrix())?;
        let meta = format!(
            "knor-serve-model v1\nname={}\nversion={}\nalgo={}\nnormalization={}\nk={}\nd={}\n",
            m.name,
            m.version,
            m.algo.spec_string(),
            m.normalization.name(),
            m.k(),
            m.d(),
        );
        let meta_path = dir.join(format!("{stem}.meta"));
        std::fs::write(&meta_path, meta)?;
        Ok(meta_path)
    }

    /// Load a model from its `.meta` path (the `.knor` must sit next to
    /// it) and register it. The stored name/version are kept when the name
    /// is free; a name collision appends as the next version instead of
    /// clobbering. Keys it does not read are ignored: older sidecars carry
    /// autotuned `row_tile`/`cent_tile` keys, which no scan reads any more.
    pub fn load(&self, meta_path: &Path) -> io::Result<(String, u32)> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let text = std::fs::read_to_string(meta_path)?;
        let mut lines = text.lines();
        match lines.next() {
            Some("knor-serve-model v1") => {}
            other => return Err(bad(format!("bad meta header {other:?}"))),
        }
        let mut fields: HashMap<&str, &str> = HashMap::new();
        for line in lines {
            if let Some((key, value)) = line.split_once('=') {
                fields.insert(key, value);
            }
        }
        let field = |key: &str| {
            fields.get(key).copied().ok_or_else(|| bad(format!("meta missing `{key}`")))
        };
        let name = field("name")?.to_string();
        let version: u32 = field("version")?.parse().map_err(|e| bad(format!("version: {e}")))?;
        let algo = Algorithm::parse_spec(field("algo")?)
            .ok_or_else(|| bad(format!("bad algo spec {:?}", fields["algo"])))?;
        let normalization = Normalization::parse(field("normalization")?)
            .ok_or_else(|| bad(format!("bad normalization {:?}", fields["normalization"])))?;
        let matrix_path = meta_path.with_extension("knor");
        let cents = Centroids::from_matrix(&matrix_io::read_matrix(&matrix_path)?);
        let (k, d): (usize, usize) = (field("k")?.parse().map_err(|e| bad(format!("k: {e}")))?, {
            field("d")?.parse().map_err(|e| bad(format!("d: {e}")))?
        });
        if cents.k() != k || cents.d != d {
            return Err(bad(format!("meta says {k}x{d} but matrix is {}x{}", cents.k(), cents.d)));
        }
        let mut map = self.inner.write().expect("registry poisoned");
        let versions = map.entry(name.clone()).or_default();
        let version =
            versions.entries.last().map(|e| e.model.version + 1).unwrap_or(version).max(1);
        versions.entries.push(Arc::new(ModelEntry {
            model: Model::new(&name, version, algo, normalization, cents),
            stats: ServeStats::new(),
            train: TrainDiag::default(),
        }));
        Ok((name, version))
    }

    /// The latest version of every model, sorted by name.
    pub fn latest_entries(&self) -> Vec<Arc<ModelEntry>> {
        let map = self.inner.read().expect("registry poisoned");
        let mut out: Vec<Arc<ModelEntry>> =
            map.values().filter_map(|vs| vs.entries.last().cloned()).collect();
        out.sort_by(|a, b| a.model.name.cmp(&b.model.name));
        out
    }

    /// The **served** version of every model, sorted by name (the metrics
    /// export walks this so dashboards reflect what queries actually hit).
    pub fn served_entries(&self) -> Vec<Arc<ModelEntry>> {
        let map = self.inner.read().expect("registry poisoned");
        let mut out: Vec<Arc<ModelEntry>> = map.values().filter_map(|vs| vs.served()).collect();
        out.sort_by(|a, b| a.model.name.cmp(&b.model.name));
        out
    }
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cents(k: usize, d: usize, scale: f64) -> DMatrix {
        DMatrix::from_vec((0..k * d).map(|x| x as f64 * scale).collect(), k, d)
    }

    #[test]
    fn register_versions_and_lookup() {
        let r = ModelRegistry::new();
        assert_eq!(r.register("m", Algorithm::Lloyd, cents(3, 2, 1.0)), 1);
        assert_eq!(r.register("m", Algorithm::Lloyd, cents(3, 2, 2.0)), 2);
        assert_eq!(r.register("other", Algorithm::Spherical, cents(2, 2, 1.0)), 1);
        let latest = r.get("m").unwrap();
        assert_eq!(latest.model.version, 2);
        assert_eq!(latest.model.centroids.mean(1), &[4.0, 6.0]);
        let v1 = r.get_version("m", 1).unwrap();
        assert_eq!(v1.model.centroids.mean(1), &[2.0, 3.0]);
        assert!(r.get("missing").is_none());
        assert_eq!(
            r.get("other").unwrap().model.normalization,
            Normalization::UnitRow,
            "normalization must follow the algorithm"
        );
        let list = r.list();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0], ("m".into(), 2, 0));
    }

    #[test]
    fn swap_rollback_and_auto_flip() {
        let r = ModelRegistry::new();
        r.register("m", Algorithm::Lloyd, cents(3, 2, 1.0));
        assert_eq!(r.served_version("m"), Some(1));

        // Unpinned: a fresh registration atomically flips the served version.
        r.register("m", Algorithm::Lloyd, cents(3, 2, 2.0));
        assert_eq!(r.served_version("m"), Some(2));
        assert_eq!(r.get("m").unwrap().model.version, 2);

        // Rollback pins to the previous version; v2 stays queryable.
        assert_eq!(r.rollback("m"), Ok(1));
        assert_eq!(r.get("m").unwrap().model.version, 1);
        assert_eq!(r.get_version("m", 2).unwrap().model.version, 2);
        assert_eq!(r.served_entries()[0].model.version, 1);
        assert_eq!(r.latest_entries()[0].model.version, 2);

        // While pinned, new training does NOT flip.
        r.register("m", Algorithm::Lloyd, cents(3, 2, 3.0));
        assert_eq!(r.served_version("m"), Some(1));
        assert_eq!(r.rollback("m"), Err("m: no version earlier than v1 to roll back to".into()));

        // Explicit swap to a version, then unpin back to latest.
        assert_eq!(r.serve_pin("m", Some(2)), Ok(2));
        assert_eq!(r.get("m").unwrap().model.version, 2);
        assert_eq!(r.serve_pin("m", None), Ok(3));
        assert_eq!(r.get("m").unwrap().model.version, 3);

        assert_eq!(r.serve_pin("m", Some(9)), Err("m: no version v9".into()));
        assert_eq!(r.serve_pin("nope", None), Err("unknown model `nope`".into()));
        assert_eq!(r.rollback("nope"), Err("unknown model `nope`".into()));
        assert_eq!(r.served_version("nope"), None);
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("knor-serve-reg-{}", std::process::id()));
        let r = ModelRegistry::new();
        r.register("trip", Algorithm::Fuzzy { m: 1.5 }, cents(4, 3, 0.25));
        let meta = r.save("trip", &dir).unwrap();
        assert!(meta.ends_with("trip-v1.meta"));

        let fresh = ModelRegistry::new();
        let (name, version) = fresh.load(&meta).unwrap();
        assert_eq!((name.as_str(), version), ("trip", 1));
        let e = fresh.get("trip").unwrap();
        assert_eq!(e.model.algo, Algorithm::Fuzzy { m: 1.5 });
        assert_eq!(e.model.normalization, Normalization::None);
        assert_eq!(e.model.centroids, Centroids::from_matrix(&cents(4, 3, 0.25)));

        // Loading into an occupied name appends a new version.
        let (_, v2) = fresh.load(&meta).unwrap();
        assert_eq!(v2, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A v1 sidecar written while the tile autotuner existed carries
    /// `row_tile`/`cent_tile`. It loads — with both keys or only one — and
    /// answers bit for bit what the same centroids answer without them;
    /// `save` writes neither.
    #[test]
    fn legacy_tile_keys_load_and_change_nothing() {
        use crate::{ServeConfig, ServeHandle};
        let dir = std::env::temp_dir().join(format!("knor-serve-legacy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = cents(6, 3, 0.37);
        let head = "knor-serve-model v1\nname=old\nversion=1\nalgo=lloyd\nnormalization=none\n";
        let h = ServeHandle::start(ServeConfig::default());
        h.register_model("plain", Algorithm::Lloyd, m.clone());
        let q: Vec<f64> = (0..200 * 3).map(|x| (x as f64 * 0.61).sin() * 9.0).collect();
        let want = h.predict_rows("plain", &q, 3).unwrap();
        for (i, keys) in ["row_tile=64\ncent_tile=16\n", "cent_tile=16\n"].iter().enumerate() {
            let meta = dir.join(format!("old{i}.meta"));
            std::fs::write(&meta, format!("{head}k=6\nd=3\n{keys}")).unwrap();
            matrix_io::write_matrix(&meta.with_extension("knor"), &m).unwrap();
            let (name, version) = h.load_model(&meta).unwrap();
            let got = h.registry().get_version(&name, version).unwrap();
            let legacy = h.predict_entry(&got, &q, 3).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(legacy.assignments, want.assignments, "{keys:?}");
            assert_eq!(bits(&legacy.distances), bits(&want.distances), "{keys:?}");
        }
        let saved = std::fs::read_to_string(h.save_model("plain", &dir).unwrap()).unwrap();
        assert!(!saved.contains("row_tile") && !saved.contains("cent_tile"), "{saved}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_corrupt_meta() {
        let dir = std::env::temp_dir().join(format!("knor-serve-regbad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("x.meta");
        std::fs::write(&p, "not a model\n").unwrap();
        assert!(ModelRegistry::new().load(&p).is_err());
        std::fs::write(&p, "knor-serve-model v1\nname=x\nversion=1\nalgo=wat\n").unwrap();
        assert!(ModelRegistry::new().load(&p).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
