//! The kernel autotuner.
//!
//! PR2's bench sweeps showed the best `(row_tile, cent_tile)` differs per
//! `(n, k, d)` shape — 64×64 at k=64,d=32 but 128×16 at k=16,d=16 — yet
//! the resolve-time heuristic hard-picks one shape from `d` alone. This
//! module probes a small candidate grid on a synthetic subsample at
//! startup and remembers the winner in a [`TuneTable`], which engines
//! carry on their configs so knori/knors/knord and serve's worker pool
//! all scan with the tuned tiles ([`DriverConfig::tiles`] ends up set
//! from here).
//!
//! Determinism contract: a probe is keyed only by `(kind, k, d, n-bucket,
//! seed)` — never by thread count (the probe itself is single-threaded)
//! — and candidates are swept in a fixed order with a strict-`<` winner
//! rule, so the pick is a pure function of the per-candidate cost
//! sequence. The default prober measures wall-clock over
//! seed-deterministic synthetic data; tests inject a deterministic cost
//! model through [`TuneTable::with_prober`].
//!
//! [`DriverConfig::tiles`]: crate::driver::DriverConfig

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::centroids::Centroids;
use crate::kernel::{assign_rows, centroid_sqnorms, KernelKind, ResolvedKernel, ResolvedKind};

/// The tuning policy knob (CLI `--tune on|off|cache`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TunePolicy {
    /// No tuning: resolve-time heuristic tiles (the pre-tuner behaviour).
    #[default]
    Off,
    /// Probe at startup, remember in-process only.
    On,
    /// Probe at startup, persist fresh decisions to (and seed the table
    /// from) a cache file, so repeat runs skip the probe.
    Cache,
}

impl TunePolicy {
    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "off" => TunePolicy::Off,
            "on" => TunePolicy::On,
            "cache" => TunePolicy::Cache,
            _ => return None,
        })
    }

    /// The CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            TunePolicy::Off => "off",
            TunePolicy::On => "on",
            TunePolicy::Cache => "cache",
        }
    }
}

/// The shape a tuning decision is keyed by: the resolved kernel path,
/// exact `(k, d)`, and the magnitude (log₂ bucket) of `n` — a 1M-row run
/// reuses the decision of a 900k-row run, but not a 10k-row one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TuneKey {
    /// Resolved kernel path the decision was probed for.
    pub kind: ResolvedKind,
    /// Number of clusters.
    pub k: usize,
    /// Dimensionality.
    pub d: usize,
    /// `⌊log₂ n⌋` of the row count.
    pub n_bucket: u32,
}

impl TuneKey {
    /// Key for a concrete shape.
    pub fn new(kind: ResolvedKind, n: usize, k: usize, d: usize) -> Self {
        Self { kind, k, d, n_bucket: n.max(1).ilog2() }
    }
}

/// One tuning decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileChoice {
    /// Rows staged per block.
    pub row_tile: usize,
    /// Centroids per inner tile.
    pub cent_tile: usize,
}

/// One probe request: evaluate the cost (lower is better) of scanning the
/// shape with the candidate tiles.
#[derive(Debug, Clone, Copy)]
pub struct ProbeCase {
    /// Resolved kernel path under test.
    pub kind: ResolvedKind,
    /// Row count of the real run (the probe subsamples this).
    pub n: usize,
    /// Number of clusters.
    pub k: usize,
    /// Dimensionality.
    pub d: usize,
    /// Probe seed (mixed into the synthetic data).
    pub seed: u64,
    /// Candidate rows per block.
    pub row_tile: usize,
    /// Candidate centroids per inner tile.
    pub cent_tile: usize,
}

/// Cost function the sweep minimizes. A plain `fn` pointer keeps
/// [`TuneTable`] trivially `Send + Sync` and lets tests swap in a
/// deterministic model.
pub type Prober = fn(&ProbeCase) -> f64;

/// Rows the wall-clock probe stages (capped by the real `n`).
const PROBE_ROWS: usize = 2048;

/// Timed repetitions per candidate (after one warm-up); min is taken.
const PROBE_REPS: usize = 2;

/// The candidate `(row_tile, cent_tile)` grid for a `(k, d)` shape: the
/// resolve-time heuristic first (ties keep it), then the sweep lattice
/// with centroid tiles capped at `k`, deduplicated in order.
pub fn candidate_grid(k: usize, d: usize) -> Vec<(usize, usize)> {
    let heuristic = KernelKind::Tiled.resolve(k, d, false);
    let mut out = vec![(heuristic.row_tile, heuristic.cent_tile)];
    for rt in [32usize, 64, 128] {
        for ct in [8usize, 16, 32, 64] {
            let cand = (rt, ct.min(k.max(1)));
            if !out.contains(&cand) {
                out.push(cand);
            }
        }
    }
    out
}

/// SplitMix64 step (the probe's seed-deterministic generator).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` doubles in `[-1, 1)`, fully determined by `seed`.
fn synth(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..len).map(|_| (splitmix64(&mut state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0).collect()
}

/// The default prober: time [`assign_rows`] over a seed-deterministic
/// synthetic block (so every engine — including SEM, whose real rows live
/// on disk — probes identical work), one warm-up then best-of-`PROBE_REPS`.
fn wall_clock_prober(case: &ProbeCase) -> f64 {
    let d = case.d.max(1);
    let m = case.n.clamp(4, PROBE_ROWS);
    let base = case
        .seed
        .wrapping_add((case.k as u64) << 40)
        .wrapping_add((case.d as u64) << 20)
        .wrapping_add(m as u64);
    let block = synth(m * d, base ^ 0xA076_1D64_78BD_642F);
    let mut cents = Centroids::zeros(case.k, d);
    let means = synth(case.k * d, base ^ 0xE703_7ED1_A0B4_28DB);
    cents.means.copy_from_slice(&means);
    let mut cnorms = Vec::new();
    if case.kind.needs_cnorms() {
        cnorms.resize(case.k, 0.0);
        centroid_sqnorms(&cents, &mut cnorms);
    }
    let rk = ResolvedKernel { kind: case.kind, row_tile: 1, cent_tile: 1 }.with_tiles(
        case.row_tile,
        case.cent_tile,
        case.k,
    );
    let (mut best, mut dist) = (Vec::new(), Vec::new());
    let pass = |best: &mut Vec<u32>, dist: &mut Vec<f64>| {
        assign_rows(&block, d, &cents, &rk, &cnorms, best, dist, false)
    };
    pass(&mut best, &mut dist); // warm-up: page in, train the branch paths
    let mut ns = f64::INFINITY;
    for _ in 0..PROBE_REPS {
        let t = std::time::Instant::now();
        pass(&mut best, &mut dist);
        ns = ns.min(t.elapsed().as_nanos() as f64);
    }
    ns
}

/// The shared tuning decision table: shape key → tile choice, probed on
/// first demand and remembered. Cheap to share (`Arc`) across engines,
/// ranks and the serve pool.
#[derive(Debug)]
pub struct TuneTable {
    entries: Mutex<HashMap<TuneKey, TileChoice>>,
    prober: Prober,
}

impl TuneTable {
    /// Empty table with the wall-clock prober.
    pub fn new() -> Self {
        Self::with_prober(wall_clock_prober)
    }

    /// Empty table with an injected cost function (tests).
    pub fn with_prober(prober: Prober) -> Self {
        Self { entries: Mutex::new(HashMap::new()), prober }
    }

    /// The cached decision for a key, if any.
    pub fn lookup(&self, key: &TuneKey) -> Option<TileChoice> {
        self.entries.lock().expect("tune table poisoned").get(key).copied()
    }

    /// Record a decision (cache loads, tests).
    pub fn insert(&self, key: TuneKey, choice: TileChoice) {
        self.entries.lock().expect("tune table poisoned").insert(key, choice);
    }

    /// Number of remembered decisions.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("tune table poisoned").len()
    }

    /// Whether the table holds no decisions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tiles for a shape: the cached decision when present, else sweep the
    /// candidate grid with the prober and remember the winner. The flag is
    /// true when this call ran the probe (a fresh decision the caller may
    /// want to persist). The winner rule is strict `<` over the fixed
    /// candidate order, so equal costs keep the earliest candidate.
    pub fn choose(
        &self,
        kind: ResolvedKind,
        n: usize,
        k: usize,
        d: usize,
        seed: u64,
    ) -> (TileChoice, bool) {
        let key = TuneKey::new(kind, n, k, d);
        if let Some(c) = self.lookup(&key) {
            return (c, false);
        }
        let mut best: Option<(f64, TileChoice)> = None;
        for (row_tile, cent_tile) in candidate_grid(k, d) {
            let cost = (self.prober)(&ProbeCase { kind, n, k, d, seed, row_tile, cent_tile });
            if best.is_none() || cost < best.expect("just checked").0 {
                best = Some((cost, TileChoice { row_tile, cent_tile }));
            }
        }
        let choice = best.expect("candidate grid is never empty").1;
        self.insert(key, choice);
        (choice, true)
    }

    /// Serialize every decision as the `knor-tune v1` text format, sorted
    /// for byte-stable output.
    pub fn to_text(&self) -> String {
        let map = self.entries.lock().expect("tune table poisoned");
        let mut lines: Vec<String> = map
            .iter()
            .map(|(key, c)| {
                format!(
                    "{} {} {} {} {} {}",
                    key.kind.name(),
                    key.k,
                    key.d,
                    key.n_bucket,
                    c.row_tile,
                    c.cent_tile
                )
            })
            .collect();
        lines.sort();
        let mut out = String::from("knor-tune v1\n");
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
        out
    }

    /// Merge decisions from serialized text into this table; returns how
    /// many entries were read. Malformed lines are a hard error — a
    /// corrupt cache should be deleted, not half-trusted.
    pub fn merge_text(&self, text: &str) -> io::Result<usize> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut lines = text.lines();
        match lines.next() {
            Some("knor-tune v1") => {}
            other => return Err(bad(format!("bad tune-cache header {other:?}"))),
        }
        let mut count = 0usize;
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 6 {
                return Err(bad(format!("bad tune-cache line {line:?}")));
            }
            let kind = ResolvedKind::parse(fields[0])
                .ok_or_else(|| bad(format!("bad kernel kind {:?}", fields[0])))?;
            let num = |s: &str| s.parse::<usize>().map_err(|e| bad(format!("{s:?}: {e}")));
            let key = TuneKey {
                kind,
                k: num(fields[1])?,
                d: num(fields[2])?,
                n_bucket: num(fields[3])? as u32,
            };
            let choice = TileChoice { row_tile: num(fields[4])?, cent_tile: num(fields[5])? };
            self.insert(key, choice);
            count += 1;
        }
        Ok(count)
    }

    /// Write the table to a cache file (atomic enough for a cache: full
    /// rewrite through a temp name in the same directory).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tune.tmp");
        std::fs::write(&tmp, self.to_text())?;
        std::fs::rename(&tmp, path)
    }

    /// Merge a cache file into this table; a missing file is an empty
    /// cache (returns 0), a malformed one an error.
    pub fn load_into(&self, path: &Path) -> io::Result<usize> {
        match std::fs::read_to_string(path) {
            Ok(text) => self.merge_text(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }
}

impl Default for TuneTable {
    fn default() -> Self {
        Self::new()
    }
}

/// The tuning knob engines carry on their configs: a policy plus the
/// shared table (and the cache path under [`TunePolicy::Cache`]).
#[derive(Debug, Clone)]
pub struct Tuning {
    /// Whether (and how persistently) to tune.
    pub policy: TunePolicy,
    /// The shared decision table.
    pub table: Arc<TuneTable>,
    /// Cache file under [`TunePolicy::Cache`].
    pub cache_path: Option<PathBuf>,
    /// Probe seed (flows into the synthetic probe data).
    pub seed: u64,
}

impl Default for Tuning {
    fn default() -> Self {
        Self::off()
    }
}

impl Tuning {
    /// No tuning (the default): heuristic tiles everywhere.
    pub fn off() -> Self {
        Self {
            policy: TunePolicy::Off,
            table: Arc::new(TuneTable::new()),
            cache_path: None,
            seed: 0,
        }
    }

    /// Probe at startup, remember in-process.
    pub fn on() -> Self {
        Self { policy: TunePolicy::On, ..Self::off() }
    }

    /// Probe at startup, seeded from (and persisting to) `path`. A
    /// missing or unreadable cache file degrades to a cold table.
    pub fn cached(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let table = TuneTable::new();
        let _ = table.load_into(&path);
        Self { policy: TunePolicy::Cache, table: Arc::new(table), cache_path: Some(path), seed: 0 }
    }

    /// Replace the table (tests inject a deterministic prober this way).
    pub fn with_table(mut self, table: Arc<TuneTable>) -> Self {
        self.table = table;
        self
    }

    /// Set the probe seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Tuned `(row_tile, cent_tile)` for a shape, or `None` when tuning is
    /// off or the kernel takes no tiles (scalar). Fresh decisions are
    /// persisted under [`TunePolicy::Cache`] (best-effort: a read-only
    /// cache path loses persistence, not correctness).
    pub fn tiles_for(
        &self,
        kind: ResolvedKind,
        n: usize,
        k: usize,
        d: usize,
    ) -> Option<(usize, usize)> {
        if self.policy == TunePolicy::Off || kind == ResolvedKind::Scalar {
            return None;
        }
        let (choice, fresh) = self.table.choose(kind, n, k, d, self.seed);
        if fresh && self.policy == TunePolicy::Cache {
            if let Some(path) = &self.cache_path {
                let _ = self.table.save(path);
            }
        }
        Some((choice.row_tile, choice.cent_tile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic cost model: prefers 64×16 for every shape, with a
    /// gradient so the winner is unique.
    fn model_prober(case: &ProbeCase) -> f64 {
        (case.row_tile as f64 - 64.0).abs() + (case.cent_tile as f64 - 16.0).abs()
    }

    #[test]
    fn grid_starts_with_heuristic_and_respects_k() {
        let grid = candidate_grid(64, 32);
        assert_eq!(grid[0], {
            let rk = KernelKind::Tiled.resolve(64, 32, false);
            (rk.row_tile, rk.cent_tile)
        });
        assert!(grid.iter().all(|&(_, ct)| ct <= 64));
        let tiny = candidate_grid(3, 8);
        assert!(tiny.iter().all(|&(_, ct)| ct <= 3));
        // Dedup: the capped lattice must not repeat candidates.
        for (i, a) in tiny.iter().enumerate() {
            assert!(!tiny[i + 1..].contains(a), "duplicate candidate {a:?}");
        }
    }

    #[test]
    fn choose_is_deterministic_and_cached() {
        let t = TuneTable::with_prober(model_prober);
        let (c1, fresh1) = t.choose(ResolvedKind::Gemm, 100_000, 64, 32, 7);
        let (c2, fresh2) = t.choose(ResolvedKind::Gemm, 100_000, 64, 32, 7);
        assert!(fresh1 && !fresh2, "second call must hit the cache");
        assert_eq!(c1, c2);
        assert_eq!((c1.row_tile, c1.cent_tile), (64, 16), "model optimum");
        // Same n-bucket shares the decision; a different bucket reprobes.
        let (c3, fresh3) = t.choose(ResolvedKind::Gemm, 90_000, 64, 32, 7);
        assert!(!fresh3);
        assert_eq!(c1, c3);
        let (_, fresh4) = t.choose(ResolvedKind::Gemm, 1000, 64, 32, 7);
        assert!(fresh4);
    }

    #[test]
    fn wall_clock_prober_runs_every_kind() {
        for kind in
            [ResolvedKind::Tiled, ResolvedKind::Fma, ResolvedKind::NormTrick, ResolvedKind::Gemm]
        {
            let ns = wall_clock_prober(&ProbeCase {
                kind,
                n: 500,
                k: 8,
                d: 5,
                seed: 3,
                row_tile: 32,
                cent_tile: 8,
            });
            assert!(ns.is_finite() && ns > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn text_round_trip_and_rejects_corrupt() {
        let t = TuneTable::with_prober(model_prober);
        t.choose(ResolvedKind::Gemm, 100_000, 64, 32, 0);
        t.choose(ResolvedKind::Tiled, 4096, 16, 16, 0);
        let text = t.to_text();
        let fresh = TuneTable::with_prober(model_prober);
        assert_eq!(fresh.merge_text(&text).unwrap(), 2);
        assert_eq!(fresh.to_text(), text);
        assert_eq!(
            fresh.lookup(&TuneKey::new(ResolvedKind::Gemm, 100_000, 64, 32)),
            t.lookup(&TuneKey::new(ResolvedKind::Gemm, 100_000, 64, 32))
        );
        assert!(fresh.merge_text("not a cache\n").is_err());
        assert!(fresh.merge_text("knor-tune v1\ngemm 64\n").is_err());
        assert!(fresh.merge_text("knor-tune v1\nwarp 64 32 16 64 16\n").is_err());
    }

    #[test]
    fn cache_file_round_trip() {
        let dir = std::env::temp_dir().join(format!("knor-tune-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shapes.tune");
        let t = TuneTable::with_prober(model_prober);
        t.choose(ResolvedKind::Gemm, 20_000, 32, 16, 0);
        t.save(&path).unwrap();
        let fresh = TuneTable::with_prober(model_prober);
        assert_eq!(fresh.load_into(&path).unwrap(), 1);
        let (choice, fresh_probe) = fresh.choose(ResolvedKind::Gemm, 20_000, 32, 16, 0);
        assert!(!fresh_probe, "cached entry must skip the probe");
        assert_eq!((choice.row_tile, choice.cent_tile), (64, 16));
        // A missing file is an empty cache, not an error.
        assert_eq!(fresh.load_into(&dir.join("absent.tune")).unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tuning_policy_gates_and_persists() {
        let dir = std::env::temp_dir().join(format!("knor-tuning-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("auto.tune");

        assert_eq!(Tuning::off().tiles_for(ResolvedKind::Gemm, 1000, 16, 8), None);
        let on = Tuning::on().with_table(Arc::new(TuneTable::with_prober(model_prober)));
        assert_eq!(on.tiles_for(ResolvedKind::Scalar, 1000, 16, 8), None);
        assert_eq!(on.tiles_for(ResolvedKind::Gemm, 1000, 16, 8), Some((64, 16)));

        let cached = Tuning {
            policy: TunePolicy::Cache,
            table: Arc::new(TuneTable::with_prober(model_prober)),
            cache_path: Some(path.clone()),
            seed: 0,
        };
        assert_eq!(cached.tiles_for(ResolvedKind::Gemm, 1000, 16, 8), Some((64, 16)));
        // The fresh decision must have been persisted for the next process.
        let reread = Tuning::cached(&path);
        assert_eq!(reread.table.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The satellite determinism contract: thread count is not an input to
    /// the tuner. The key takes only (kind, k, d, n-bucket), the probe only
    /// the case plus the seed, and the sweep is a strict-`<` argmin over a
    /// fixed candidate order — so two tables fed the same per-candidate
    /// costs make the same pick, no matter how many worker threads the
    /// surrounding runs used. (Asserted with an injected cost model; the
    /// wall-clock prober feeds the same machinery.)
    #[test]
    fn same_seed_same_shape_same_pick() {
        let a = TuneTable::with_prober(model_prober);
        let b = TuneTable::with_prober(model_prober);
        for (n, k, d) in [(400, 2, 3), (100_000, 64, 32), (5_000, 7, 11)] {
            let (ca, _) = a.choose(ResolvedKind::Tiled, n, k, d, 42);
            let (cb, _) = b.choose(ResolvedKind::Tiled, n, k, d, 42);
            assert_eq!(ca, cb, "({n},{k},{d})");
            assert!(ca.cent_tile <= k);
        }
    }
}
