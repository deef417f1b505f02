//! Machine topology: NUMA nodes and the CPUs attached to them.

use std::fmt;
use std::path::Path;

/// Identifier of a NUMA node (memory bank + attached CPUs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A machine topology: which logical CPUs belong to which NUMA node.
///
/// `Topology` is either *detected* from the running host (`/sys`) or
/// *synthetic* — e.g. `Topology::synthetic(4, 12)`, the shape of the
/// paper's four-socket, 12-core-per-socket Xeon E7-4860. Synthetic
/// topologies split placement and scheduling into logical nodes (binding
/// is a no-op on them); detected ones drive real thread binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// `cpus[node]` lists the logical CPU ids on that node.
    cpus: Vec<Vec<usize>>,
    /// Whether node/cpu ids correspond to the running host.
    detected: bool,
}

impl Topology {
    /// Build a synthetic topology of `nodes` NUMA nodes with
    /// `cpus_per_node` logical CPUs each, numbered contiguously.
    pub fn synthetic(nodes: usize, cpus_per_node: usize) -> Self {
        assert!(nodes > 0 && cpus_per_node > 0);
        let cpus =
            (0..nodes).map(|n| (n * cpus_per_node..(n + 1) * cpus_per_node).collect()).collect();
        Self { cpus, detected: false }
    }

    /// A single-node topology covering `ncpus` CPUs.
    pub fn flat(ncpus: usize) -> Self {
        Self::synthetic(1, ncpus.max(1))
    }

    /// Detect the host topology from `/sys/devices/system/node`.
    ///
    /// A `KNOR_SYNTH_NODES=N` environment override takes precedence and
    /// yields an `N`-node *synthetic* topology spanning the host's CPUs
    /// (`is_detected()` = false, so thread binds are simulated) — this is
    /// how multi-node placement paths are exercised on single-node
    /// containers and in CI.
    ///
    /// Otherwise falls back to a single flat node covering
    /// `std::thread::available_parallelism()` CPUs when sysfs is missing
    /// (non-Linux, containers with masked sysfs).
    pub fn detect() -> Self {
        if let Some(t) = Self::synth_override() {
            return t;
        }
        match Self::detect_from_sysfs(Path::new("/sys/devices/system/node")) {
            Some(t) => t,
            None => {
                let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
                let mut t = Self::flat(n);
                t.detected = true;
                t
            }
        }
    }

    /// Topology for an engine that owns `nthreads` local workers and does
    /// not model the host (knord's per-rank driver): a single flat node,
    /// unless `KNOR_SYNTH_NODES` asks for a synthetic multi-node split of
    /// those workers.
    pub fn for_local_workers(nthreads: usize) -> Self {
        let nthreads = nthreads.max(1);
        match synth_nodes_env() {
            Some(nodes) => Self::synthetic(nodes, nthreads.div_ceil(nodes).max(1)),
            None => Self::flat(nthreads),
        }
    }

    /// The `KNOR_SYNTH_NODES` override, when set and valid.
    fn synth_override() -> Option<Self> {
        let nodes = synth_nodes_env()?;
        let ncpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Some(Self::synthetic(nodes, ncpus.div_ceil(nodes).max(1)))
    }

    fn detect_from_sysfs(base: &Path) -> Option<Self> {
        let mut nodes: Vec<(usize, Vec<usize>)> = Vec::new();
        // Tolerant walk: a single unreadable or malformed node entry
        // (masked sysfs, hot-unplugged node) skips that entry rather than
        // aborting the whole detection.
        for entry in std::fs::read_dir(base).ok()? {
            let Ok(entry) = entry else { continue };
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(idx) = name.strip_prefix("node").and_then(|s| s.parse::<usize>().ok()) else {
                continue;
            };
            let Ok(list) = std::fs::read_to_string(entry.path().join("cpulist")) else { continue };
            let Some(cpus) = parse_cpulist(list.trim()) else { continue };
            if !cpus.is_empty() {
                nodes.push((idx, cpus));
            }
        }
        if nodes.is_empty() {
            return None;
        }
        nodes.sort_by_key(|(idx, _)| *idx);
        Some(Self { cpus: nodes.into_iter().map(|(_, c)| c).collect(), detected: true })
    }

    /// Number of NUMA nodes, `N`.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.cpus.len()
    }

    /// Total logical CPUs, `P`.
    #[inline]
    pub fn ncpus(&self) -> usize {
        self.cpus.iter().map(Vec::len).sum()
    }

    /// CPUs attached to `node`.
    pub fn cpus_of(&self, node: NodeId) -> &[usize] {
        &self.cpus[node.0]
    }

    /// Whether this topology reflects the running host.
    pub fn is_detected(&self) -> bool {
        self.detected
    }

    /// Iterate node ids.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.nodes()).map(NodeId)
    }
}

/// The validated `KNOR_SYNTH_NODES` node count, when the variable is set
/// to a positive integer (anything else — unset, empty, garbage, zero —
/// is ignored).
fn synth_nodes_env() -> Option<usize> {
    parse_synth_nodes(std::env::var("KNOR_SYNTH_NODES").ok()?.as_str())
}

/// Parse a `KNOR_SYNTH_NODES` value (split out so tests need not mutate
/// process environment).
fn parse_synth_nodes(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// Parse a Linux `cpulist` string such as `"0-3,8,10-11"`.
pub fn parse_cpulist(s: &str) -> Option<Vec<usize>> {
    let mut out = Vec::new();
    if s.is_empty() {
        return Some(out);
    }
    for part in s.split(',') {
        let part = part.trim();
        if let Some((a, b)) = part.split_once('-') {
            let a: usize = a.trim().parse().ok()?;
            let b: usize = b.trim().parse().ok()?;
            if b < a {
                return None;
            }
            out.extend(a..=b);
        } else {
            out.push(part.parse().ok()?);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_shapes() {
        let t = Topology::synthetic(4, 12);
        assert_eq!(t.nodes(), 4);
        assert_eq!(t.ncpus(), 48);
        assert_eq!(t.cpus_of(NodeId(1)), &(12..24).collect::<Vec<_>>()[..]);
        assert!(!t.is_detected());
    }

    #[test]
    fn cpulist_parses() {
        assert_eq!(parse_cpulist("0-3"), Some(vec![0, 1, 2, 3]));
        assert_eq!(parse_cpulist("0,2,4"), Some(vec![0, 2, 4]));
        assert_eq!(parse_cpulist("0-1,4-5"), Some(vec![0, 1, 4, 5]));
        assert_eq!(parse_cpulist(""), Some(vec![]));
        assert_eq!(parse_cpulist("3-1"), None);
        assert_eq!(parse_cpulist("x"), None);
    }

    #[test]
    fn detect_never_panics_and_has_cpus() {
        let t = Topology::detect();
        assert!(t.nodes() >= 1);
        assert!(t.ncpus() >= 1);
        match parse_synth_nodes(&std::env::var("KNOR_SYNTH_NODES").unwrap_or_default()) {
            // Under the synthetic override the topology does not describe
            // the host (binds are simulated) and has exactly N nodes.
            Some(n) => {
                assert!(!t.is_detected());
                assert_eq!(t.nodes(), n);
            }
            None => assert!(t.is_detected()),
        }
    }

    #[test]
    fn synth_nodes_value_parsing() {
        assert_eq!(parse_synth_nodes("4"), Some(4));
        assert_eq!(parse_synth_nodes(" 2 "), Some(2));
        assert_eq!(parse_synth_nodes("0"), None);
        assert_eq!(parse_synth_nodes(""), None);
        assert_eq!(parse_synth_nodes("many"), None);
    }

    #[test]
    fn for_local_workers_splits_threads() {
        // Without the env override: one flat node over the workers.
        // With it: the same worker count split over N nodes. Both shapes
        // are asserted via the underlying constructors to stay env-free.
        let flat = Topology::for_local_workers(8);
        if std::env::var("KNOR_SYNTH_NODES").is_err() {
            assert_eq!(flat.nodes(), 1);
            assert_eq!(flat.ncpus(), 8);
        } else {
            assert!(flat.nodes() >= 1);
            assert!(flat.ncpus() >= 8);
        }
        let synth = Topology::synthetic(4, 2);
        assert_eq!(synth.nodes(), 4);
        assert!(!synth.is_detected());
    }

    #[test]
    fn tolerant_sysfs_parse_skips_bad_entries() {
        // A directory with one valid node and several malformed entries
        // must yield the valid node rather than failing detection.
        let dir = std::env::temp_dir().join(format!("knor-topo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("node0")).unwrap();
        std::fs::write(dir.join("node0").join("cpulist"), "0-3\n").unwrap();
        std::fs::create_dir_all(dir.join("node1")).unwrap(); // no cpulist at all
        std::fs::create_dir_all(dir.join("node2")).unwrap();
        std::fs::write(dir.join("node2").join("cpulist"), "not-a-list\n").unwrap();
        std::fs::create_dir_all(dir.join("notanode")).unwrap();
        let t = Topology::detect_from_sysfs(&dir).expect("valid node must survive");
        assert_eq!(t.nodes(), 1);
        assert_eq!(t.cpus_of(NodeId(0)), &[0, 1, 2, 3]);
        assert!(t.is_detected());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
