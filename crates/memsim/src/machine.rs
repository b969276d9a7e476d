//! A simulated machine: topology + timing + firmware tables.

use crate::timing::{MemSideCacheTiming, NodeTiming};
use hetmem_bitmap::Bitmap;
use hetmem_hmat::{
    DataType, Hmat, MemProximityAttrs, MemorySideCacheInfo, Srat, SratMemoryAffinity,
    SratProcessorAffinity, SystemLocalityLatencyBandwidth,
};
use hetmem_topology::{platforms, MemoryKind, NodeId, ObjectType, Topology, GIB};
use std::collections::BTreeMap;

/// Latency/bandwidth adjustment for non-local accesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessAdjust {
    /// Extra latency added per access, ns.
    pub extra_lat_ns: f64,
    /// Multiplier on the achievable bandwidth (0 < f ≤ 1).
    pub bw_factor: f64,
}

impl AccessAdjust {
    /// No adjustment: a local access.
    pub const LOCAL: AccessAdjust = AccessAdjust { extra_lat_ns: 0.0, bw_factor: 1.0 };
}

/// A complete simulated machine.
///
/// Owns the structural topology, the behavioural timing of every NUMA
/// node, optional memory-side cache timings, and per-node OS
/// reservations (memory the benchmark cannot allocate: kernel, runtime,
/// page tables — this is what makes the paper's Table III "blank"
/// cells reproducible as allocation failures).
///
/// The per-node and per-cache facts the simulator asks for on every
/// phase and commit are derived from the immutable topology once, at
/// construction: one row per NUMA node in OS-index order (its *slot*),
/// and the deepest CPU cache level as a table.
#[derive(Debug, Clone)]
pub struct Machine {
    name: String,
    topology: Topology,
    nodes: Vec<NodeRow>,
    llc: Vec<LlcCache>,
}

/// A built-in platform: its command-line name and its constructor.
type Platform = (&'static str, fn() -> Machine);

/// One NUMA node's facts, in the machine's slot order.
#[derive(Debug, Clone)]
pub(crate) struct NodeRow {
    pub(crate) id: NodeId,
    pub(crate) timing: NodeTiming,
    pub(crate) cache: Option<MemSideCacheTiming>,
    capacity: u64,
    os_reserved: u64,
    /// The node's locality cpuset.
    locality: Bitmap,
    /// The cpuset of the package holding the node, if any.
    package: Option<Bitmap>,
}

impl NodeRow {
    /// Capacity available to applications.
    pub(crate) fn usable(&self) -> u64 {
        self.capacity.saturating_sub(self.os_reserved)
    }

    /// See [`Machine::access_adjust`].
    pub(crate) fn adjust(&self, initiator: &Bitmap) -> AccessAdjust {
        if self.locality.intersects(initiator)
            || self.locality.includes(initiator)
            || self.locality.is_zero()
        {
            return AccessAdjust::LOCAL;
        }
        // Machine-attached memory (e.g. NAM) has the whole machine as
        // locality and is caught above. Here the node belongs to some
        // package/cluster the initiator is not in.
        match &self.package {
            Some(pkg) if pkg.intersects(initiator) => {
                AccessAdjust { extra_lat_ns: 20.0, bw_factor: 0.85 }
            }
            _ => AccessAdjust { extra_lat_ns: 70.0, bw_factor: 0.45 },
        }
    }
}

/// One cache of the deepest CPU cache level.
#[derive(Debug, Clone)]
struct LlcCache {
    cpuset: Bitmap,
    /// PUs under the cache (at least 1).
    pus: usize,
    bytes: u64,
}

impl Machine {
    /// Builds a machine from parts. Every NUMA node in `topology` must
    /// have a timing entry, and every entry must name a node of
    /// `topology`.
    pub fn new(
        name: &str,
        topology: Topology,
        timings: BTreeMap<NodeId, NodeTiming>,
        cache_timings: BTreeMap<NodeId, MemSideCacheTiming>,
        os_reserved: BTreeMap<NodeId, u64>,
    ) -> Result<Self, String> {
        for node in topology.node_ids() {
            if !timings.contains_key(&node) {
                return Err(format!("missing timing for {node}"));
            }
        }
        let known = |node: &NodeId| topology.numa_by_os_index(*node).is_some();
        if let Some(node) =
            timings.keys().chain(cache_timings.keys()).chain(os_reserved.keys()).find(|n| !known(n))
        {
            return Err(format!("entry for unknown {node}"));
        }
        let mut m = Machine::assemble(name, topology, |n, _| timings[&n].clone());
        for row in &mut m.nodes {
            row.cache = cache_timings.get(&row.id).cloned();
            row.os_reserved = os_reserved.get(&row.id).copied().unwrap_or(0);
        }
        Ok(m)
    }

    /// Builds a machine by assigning one timing per memory kind, with no
    /// OS reservations — convenient for synthetic platforms.
    pub fn from_kinds(
        name: &str,
        topology: Topology,
        f: impl Fn(MemoryKind) -> NodeTiming,
    ) -> Self {
        Machine::assemble(name, topology, |_, kind| f(kind))
    }

    /// The one constructor: derives the node rows (in OS-index order,
    /// with no cache and no reservation) and the last-level cache table
    /// from `topology`.
    fn assemble(
        name: &str,
        topology: Topology,
        timing: impl Fn(NodeId, MemoryKind) -> NodeTiming,
    ) -> Self {
        let nodes = topology
            .node_ids()
            .into_iter()
            .map(|id| {
                let obj = topology.numa_by_os_index(id).expect("node exists");
                let kind = obj.attrs.as_numa().expect("NUMA node attributes").kind;
                NodeRow {
                    id,
                    timing: timing(id, kind),
                    cache: None,
                    capacity: obj.local_memory(),
                    os_reserved: 0,
                    locality: obj.cpuset.clone(),
                    package: topology
                        .ancestor_of_type(obj.id, ObjectType::Package)
                        .map(|p| p.cpuset.clone()),
                }
            })
            .collect();
        let level = if topology.count(ObjectType::L3Cache) > 0 {
            ObjectType::L3Cache
        } else {
            ObjectType::L2Cache
        };
        let llc = topology
            .objects_of_type(level)
            .map(|cache| LlcCache {
                cpuset: cache.cpuset.clone(),
                pus: cache.cpuset.weight().unwrap_or(1).max(1),
                bytes: cache.attrs.as_cache().map_or(0, |c| c.size),
            })
            .collect();
        Machine { name: name.to_string(), topology, nodes, llc }
    }

    /// The row of `node`; presets only name nodes they just built.
    fn row_mut(&mut self, node: NodeId) -> &mut NodeRow {
        let slot = self.slot(node).expect("preset names its own nodes");
        &mut self.nodes[slot]
    }

    /// Reserves `bytes` of `node` for the OS (presets only).
    fn reserve(&mut self, node: NodeId, bytes: u64) {
        self.row_mut(node).os_reserved = bytes;
    }

    /// Puts a memory-side cache in front of `node` (presets only).
    fn front_with_cache(&mut self, node: NodeId, cache: MemSideCacheTiming) {
        self.row_mut(node).cache = Some(cache);
    }

    /// The paper's Xeon server (§VI): dual Cascade Lake 6230, SNC off,
    /// 192 GB DRAM + 768 GB NVDIMM per socket, 1-Level-Memory.
    pub fn xeon_1lm_no_snc() -> Self {
        let topo = platforms::xeon_1lm_no_snc();
        let mut m = Machine::from_kinds("xeon-6230-1lm", topo, |k| match k {
            MemoryKind::Dram => NodeTiming::xeon_dram(),
            MemoryKind::Nvdimm => NodeTiming::xeon_nvdimm(),
            other => unreachable!("no {other} on the Xeon platform"),
        });
        // Kernel + runtime keep ~8 GiB per DRAM node; DAX-kmem NVDIMM
        // nodes start empty.
        m.reserve(NodeId(0), 8 * GIB);
        m.reserve(NodeId(1), 8 * GIB);
        m
    }

    /// The Fig. 2 / Fig. 5 machine: same Xeon but with Sub-NUMA
    /// Clustering enabled (DRAM split in 96 GB halves).
    pub fn xeon_1lm_snc() -> Self {
        let topo = platforms::xeon_1lm();
        let mut m = Machine::from_kinds("xeon-6230-1lm-snc2", topo, |k| match k {
            MemoryKind::Dram => {
                // Half the channels per SNC: half the bandwidth.
                let mut t = NodeTiming::xeon_dram();
                t.peak_read_bw_mbps /= 2.0;
                t.peak_write_bw_mbps /= 2.0;
                t
            }
            MemoryKind::Nvdimm => NodeTiming::xeon_nvdimm(),
            other => unreachable!("no {other} on the Xeon platform"),
        });
        for n in [0u32, 1, 3, 4] {
            m.reserve(NodeId(n), 4 * GIB);
        }
        m
    }

    /// The Xeon in 2-Level-Memory mode: DRAM is a memory-side cache.
    pub fn xeon_2lm() -> Self {
        let topo = platforms::xeon_2lm();
        let mut m = Machine::from_kinds("xeon-6230-2lm", topo, |k| match k {
            MemoryKind::Nvdimm => NodeTiming::xeon_nvdimm(),
            other => unreachable!("no {other} in 2LM mode"),
        });
        m.front_with_cache(NodeId(0), MemSideCacheTiming::xeon_2lm());
        m.front_with_cache(NodeId(1), MemSideCacheTiming::xeon_2lm());
        m.reserve(NodeId(0), 8 * GIB);
        m
    }

    /// The paper's KNL server (§VI): Xeon Phi 7230 in SNC-4 Flat mode.
    ///
    /// The OS, MPI runtime and filesystem caches occupy a sizeable part
    /// of each 24 GB cluster DRAM node; we reserve 6.5 GiB, which makes
    /// the 17.9 GiB STREAM run fail on DRAM exactly as the blank cell
    /// in Table IIIb reports (see EXPERIMENTS.md).
    pub fn knl_snc4_flat() -> Self {
        let topo = platforms::knl_snc4_flat();
        let mut m = Machine::from_kinds("knl-7230-snc4-flat", topo, |k| match k {
            MemoryKind::Dram => NodeTiming::knl_dram(),
            MemoryKind::Hbm => NodeTiming::knl_mcdram(),
            other => unreachable!("no {other} on KNL"),
        });
        for n in 0..4u32 {
            m.reserve(NodeId(n), 6 * GIB + 512 * 1024 * 1024);
            m.reserve(NodeId(4 + n), 200 * 1024 * 1024);
        }
        m
    }

    /// KNL in Quadrant/Cache mode: MCDRAM as memory-side cache.
    pub fn knl_quadrant_cache() -> Self {
        let topo = platforms::knl_quadrant_cache();
        let mut m = Machine::from_kinds("knl-7230-cache", topo, |k| match k {
            MemoryKind::Dram => {
                let mut t = NodeTiming::knl_dram();
                // Quadrant mode: all 4 clusters' channels behind one node.
                t.peak_read_bw_mbps *= 4.0;
                t.peak_write_bw_mbps *= 4.0;
                t
            }
            other => unreachable!("no {other} on KNL cache mode"),
        });
        m.front_with_cache(NodeId(0), MemSideCacheTiming::knl_cache_mode());
        m.reserve(NodeId(0), 4 * GIB);
        m
    }

    /// The §VIII four-socket machine: 8 DRAM + 4 NVDIMM nodes.
    pub fn xeon_4s_snc() -> Self {
        let topo = platforms::xeon_4s_snc();
        let mut m = Machine::from_kinds("xeon-4s-snc2-1lm", topo, |k| match k {
            MemoryKind::Dram => {
                let mut t = NodeTiming::xeon_dram();
                t.peak_read_bw_mbps /= 2.0;
                t.peak_write_bw_mbps /= 2.0;
                t
            }
            MemoryKind::Nvdimm => NodeTiming::xeon_nvdimm(),
            other => unreachable!("no {other} on the 4-socket Xeon"),
        });
        for p in 0..4u32 {
            m.reserve(NodeId(p * 3), 4 * GIB);
            m.reserve(NodeId(p * 3 + 1), 4 * GIB);
        }
        m
    }

    /// The fictitious Fig. 3 platform with four kinds of memory.
    pub fn fictitious() -> Self {
        Machine::from_kinds("fictitious", platforms::fictitious(), |k| match k {
            MemoryKind::Dram => NodeTiming::xeon_dram(),
            MemoryKind::Hbm => NodeTiming::hbm2(),
            MemoryKind::Nvdimm => NodeTiming::xeon_nvdimm(),
            MemoryKind::NetworkAttached => NodeTiming::network_attached(),
            MemoryKind::GpuMemory => NodeTiming::gpu_over_nvlink(),
        })
    }

    /// A homogeneous NUMA machine (remote nodes share the same device
    /// timing; remoteness shows up in HMAT entries, not in the device).
    pub fn homogeneous(packages: u32, cores: u32, mem: u64) -> Self {
        Machine::from_kinds("homogeneous", platforms::homogeneous(packages, cores, mem), |_| {
            NodeTiming::xeon_dram()
        })
    }

    /// POWER9-style machine with GPU memory as host NUMA nodes.
    pub fn power9_gpu() -> Self {
        Machine::from_kinds("power9-gpu", platforms::power9_gpu(), |k| match k {
            MemoryKind::Dram => NodeTiming::xeon_dram(),
            MemoryKind::GpuMemory => NodeTiming::gpu_over_nvlink(),
            other => unreachable!("no {other} on POWER9"),
        })
    }

    /// A64FX/Fugaku-style HBM-only node.
    pub fn fugaku_like() -> Self {
        Machine::from_kinds("fugaku-like", platforms::fugaku_like(), |k| match k {
            MemoryKind::Hbm => NodeTiming::hbm2(),
            other => unreachable!("no {other} on A64FX"),
        })
    }

    /// The built-in platforms, each with the name the command-line
    /// tools and the scenario DSL's `machine` statement take.
    pub const PLATFORMS: &'static [Platform] = &[
        ("knl-flat", Machine::knl_snc4_flat),
        ("knl-cache", Machine::knl_quadrant_cache),
        ("xeon", Machine::xeon_1lm_no_snc),
        ("xeon-snc", Machine::xeon_1lm_snc),
        ("xeon-2lm", Machine::xeon_2lm),
        ("xeon-4s", Machine::xeon_4s_snc),
        ("fictitious", Machine::fictitious),
        ("power9", Machine::power9_gpu),
        ("fugaku", Machine::fugaku_like),
    ];

    /// The built-in platform called `name` in [`Machine::PLATFORMS`].
    pub fn by_name(name: &str) -> Option<Machine> {
        Machine::PLATFORMS.iter().find(|&&(n, _)| n == name).map(|(_, build)| build())
    }

    /// The names of [`Machine::PLATFORMS`], comma-separated, for usage
    /// texts.
    pub fn platform_names() -> String {
        Machine::PLATFORMS.iter().map(|&(name, _)| name).collect::<Vec<_>>().join(", ")
    }

    /// Machine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The structural topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The slot of `node`: its position in the node rows (OS-index
    /// order), `None` for a node the machine does not have.
    pub(crate) fn slot(&self, node: NodeId) -> Option<usize> {
        let dense = node.0 as usize;
        if self.nodes.get(dense).is_some_and(|r| r.id == node) {
            return Some(dense);
        }
        self.nodes.binary_search_by_key(&node, |r| r.id).ok()
    }

    /// Every node's row, indexed by slot.
    pub(crate) fn node_rows(&self) -> &[NodeRow] {
        &self.nodes
    }

    fn row(&self, node: NodeId) -> Option<&NodeRow> {
        self.slot(node).map(|s| &self.nodes[s])
    }

    /// Timing of one node. Panics for a node the machine does not have.
    pub fn timing(&self, node: NodeId) -> &NodeTiming {
        &self.row(node).unwrap_or_else(|| panic!("no timing for {node}")).timing
    }

    /// Memory-side cache fronting `node`, if any.
    pub fn cache_timing(&self, node: NodeId) -> Option<&MemSideCacheTiming> {
        self.row(node)?.cache.as_ref()
    }

    /// Bytes reserved by OS/runtime on `node`.
    pub fn os_reserved(&self, node: NodeId) -> u64 {
        self.row(node).map_or(0, |r| r.os_reserved)
    }

    /// Capacity available to applications on `node`.
    pub fn usable_capacity(&self, node: NodeId) -> u64 {
        self.row(node).map_or(0, NodeRow::usable)
    }

    /// Last-level CPU cache capacity covering an initiator cpuset: sums
    /// the deepest cache level present (L3 if any, else L2), scaled by
    /// the fraction of each cache's PUs that the initiator covers.
    pub fn llc_bytes(&self, initiator: &Bitmap) -> u64 {
        let mut total = 0.0f64;
        for cache in &self.llc {
            if !cache.cpuset.intersects(initiator) {
                continue;
            }
            let covered = cache.cpuset.and_weight(initiator).unwrap_or(0) as f64;
            let all = cache.pus as f64;
            let size = cache.bytes as f64;
            total += size * covered / all;
        }
        total as u64
    }

    /// How an access from `initiator` to `node` deviates from the
    /// node's local timing.
    ///
    /// * local (the node's locality covers, or overlaps, the
    ///   initiator): no adjustment;
    /// * intra-package remote (another SNC cluster of the same
    ///   package): small mesh penalty;
    /// * cross-package remote: UPI/XGMI-style penalty — latency up,
    ///   bandwidth capped by the link.
    ///
    /// This is what lets benchmarks measure the *full*
    /// initiator×target matrix that the paper notes Linux cannot
    /// expose (§VIII: "hwloc is still able to expose them thanks to
    /// benchmarking").
    pub fn access_adjust(&self, initiator: &Bitmap, node: NodeId) -> AccessAdjust {
        self.row(node).map_or(AccessAdjust::LOCAL, |r| r.adjust(initiator))
    }

    /// Initiator proximity domains: one per distinct locality cpuset
    /// that contains processors, identified by the lowest-index NUMA
    /// node having exactly that locality.
    fn initiator_pds(&self) -> Vec<(u32, Bitmap)> {
        let mut pds: Vec<(u32, Bitmap)> = Vec::new();
        for node in self.topology.node_ids() {
            let obj = self.topology.numa_by_os_index(node).expect("node exists");
            if obj.cpuset.is_zero() {
                continue;
            }
            if !pds.iter().any(|(_, cs)| cs == &obj.cpuset) {
                pds.push((node.0, obj.cpuset.clone()));
            }
        }
        pds
    }

    /// Generates a classic ACPI SLIT-style distances matrix (10 =
    /// local), derived from the access-adjustment model plus a device
    /// class offset for slow memory. This is what pre-HMAT systems
    /// exposed — and why it is insufficient: a single scalar cannot
    /// carry both bandwidth and latency (the motivation for the
    /// attributes API).
    pub fn slit(&self) -> hetmem_topology::DistancesMatrix {
        let nodes = self.topology.node_ids();
        let one_way = |from: NodeId, to: NodeId| -> u64 {
            let src_cpus =
                self.topology.numa_by_os_index(from).map(|o| o.cpuset.clone()).unwrap_or_default();
            let adjust = self.access_adjust(&src_cpus, to);
            let device = match self.topology.node_kind(to) {
                Some(MemoryKind::Nvdimm) => 7,
                Some(MemoryKind::NetworkAttached) => 21,
                Some(MemoryKind::GpuMemory) => 12,
                _ => 0,
            };
            let hop = if adjust == AccessAdjust::LOCAL {
                0
            } else if adjust.extra_lat_ns < 40.0 {
                2
            } else {
                11
            };
            10 + device + hop
        };
        hetmem_topology::DistancesMatrix::from_fn(
            hetmem_topology::distance_kind_latency(),
            nodes,
            // SLIT matrices are symmetric by convention; a slow device
            // dominates the pair in either direction, except the
            // self-distance which is always 10.
            |from, to| {
                if from == to {
                    10
                } else {
                    one_way(from, to).max(one_way(to, from))
                }
            },
        )
    }

    /// Generates the firmware SRAT for this machine.
    pub fn srat(&self) -> Srat {
        let mut processors = Vec::new();
        let mut memory = Vec::new();
        let pds = self.initiator_pds();
        for node in self.topology.node_ids() {
            let obj = self.topology.numa_by_os_index(node).expect("node exists");
            memory.push(SratMemoryAffinity {
                pd: node.0,
                bytes: obj.local_memory(),
                hotplug: self.topology.node_kind(node) == Some(MemoryKind::Nvdimm),
            });
        }
        // Assign each CPU to the smallest-locality initiator PD that
        // contains it (its nearest NUMA node's PD).
        let machine_cpus: Vec<usize> = self.topology.machine_cpuset().iter().collect();
        for cpu in machine_cpus {
            let best = pds
                .iter()
                .filter(|(_, cs)| cs.is_set(cpu))
                .min_by_key(|(_, cs)| cs.weight().unwrap_or(usize::MAX));
            if let Some((pd, _)) = best {
                processors.push(SratProcessorAffinity { pd: *pd, cpu: cpu as u32 });
            }
        }
        Srat { processors, memory }
    }

    /// Generates the firmware HMAT from the datasheet values.
    ///
    /// `local_only` mirrors today's platforms (and the paper's Fig. 5):
    /// only entries where the initiator lies within the target's
    /// locality are provided. With `local_only = false` the full matrix
    /// is emitted, with remote penalties applied — the "future
    /// platforms" the paper anticipates.
    pub fn hmat(&self, local_only: bool) -> Hmat {
        self.hmat_with_options(local_only, false)
    }

    /// [`Self::hmat`] plus optional separate Read/Write matrices — the
    /// "on some platforms" row of the paper's Table I ("Latencies and
    /// bandwidths may optionally be specified independently for read
    /// and write accesses but current platforms rarely expose these
    /// yet", SIV-A1). Datasheet R/W values derive from the device's
    /// behavioural asymmetry.
    pub fn hmat_with_options(&self, local_only: bool, rw_variants: bool) -> Hmat {
        let pds = self.initiator_pds();
        let initiators: Vec<u32> = pds.iter().map(|(pd, _)| *pd).collect();
        let targets: Vec<u32> = self.topology.node_ids().iter().map(|n| n.0).collect();
        let mut lat = SystemLocalityLatencyBandwidth::new(
            DataType::AccessLatency,
            initiators.clone(),
            targets.clone(),
        );
        let mut bw = SystemLocalityLatencyBandwidth::new(
            DataType::AccessBandwidth,
            initiators.clone(),
            targets.clone(),
        );
        let mut extra: Vec<SystemLocalityLatencyBandwidth> = if rw_variants {
            [
                DataType::ReadLatency,
                DataType::WriteLatency,
                DataType::ReadBandwidth,
                DataType::WriteBandwidth,
            ]
            .into_iter()
            .map(|dt| SystemLocalityLatencyBandwidth::new(dt, initiators.clone(), targets.clone()))
            .collect()
        } else {
            Vec::new()
        };
        let mut proximity = Vec::new();
        for node in self.topology.node_ids() {
            let obj = self.topology.numa_by_os_index(node).expect("node exists");
            let timing = self.timing(node);
            let mut attached = None;
            for (pd, cs) in &pds {
                let local = obj.cpuset.includes(cs) && !obj.cpuset.is_zero();
                let (lat_v, bw_v) = if local {
                    (timing.hmat_latency_ns, timing.hmat_bandwidth_mbps)
                } else if !local_only {
                    // Remote access: +1 hop worth of latency, reduced BW.
                    (timing.hmat_latency_ns + 50, (timing.hmat_bandwidth_mbps as f64 * 0.4) as u32)
                } else {
                    continue;
                };
                lat.set(*pd, node.0, lat_v);
                bw.set(*pd, node.0, bw_v);
                if local && attached.is_none() {
                    attached = Some(*pd);
                }
                if rw_variants {
                    // Derive datasheet R/W from the device's measured
                    // asymmetry (write bandwidth share, write latency
                    // ratio).
                    let w_bw_frac = timing.peak_write_bw_mbps / timing.peak_read_bw_mbps;
                    let w_lat_frac = timing.idle_write_lat_ns / timing.idle_read_lat_ns;
                    extra[0].set(*pd, node.0, lat_v); // read latency
                    extra[1].set(*pd, node.0, (lat_v as f64 * w_lat_frac).round() as u32);
                    extra[2].set(*pd, node.0, bw_v); // read bandwidth
                    extra[3].set(*pd, node.0, (bw_v as f64 * w_bw_frac) as u32);
                }
            }
            proximity.push(MemProximityAttrs { initiator_pd: attached, memory_pd: node.0 });
        }
        let mut localities = vec![lat, bw];
        localities.extend(extra);
        let caches = self
            .nodes
            .iter()
            .filter_map(|row| {
                row.cache.as_ref().map(|ct| MemorySideCacheInfo {
                    memory_pd: row.id.0,
                    size: ct.capacity,
                    line_size: 64,
                    level: 1,
                })
            })
            .collect();
        Hmat { proximity, localities, caches }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_paper_machines_build() {
        for m in [
            Machine::xeon_1lm_no_snc(),
            Machine::xeon_1lm_snc(),
            Machine::xeon_2lm(),
            Machine::knl_snc4_flat(),
            Machine::knl_quadrant_cache(),
            Machine::fictitious(),
            Machine::homogeneous(2, 8, 32 * GIB),
            Machine::power9_gpu(),
            Machine::fugaku_like(),
        ] {
            for node in m.topology().node_ids() {
                // Every node has a timing, and usable ≤ total capacity.
                let _ = m.timing(node);
                assert!(m.usable_capacity(node) <= m.topology().node_capacity(node).unwrap());
            }
        }
    }

    #[test]
    fn knl_dram_reserve_blocks_17_9_gib() {
        let m = Machine::knl_snc4_flat();
        let usable = m.usable_capacity(NodeId(0));
        let stream_17_9 = (17.9 * GIB as f64) as u64;
        assert!(usable < stream_17_9, "17.9GiB must not fit ({usable} available)");
        let stream_3_4 = (3.4 * GIB as f64) as u64;
        assert!(usable > stream_3_4);
        // MCDRAM can hold ~3.8 GiB.
        assert!(m.usable_capacity(NodeId(4)) > 3 * GIB);
    }

    #[test]
    fn xeon_dram_reserve_blocks_223_gib() {
        let m = Machine::xeon_1lm_no_snc();
        let usable = m.usable_capacity(NodeId(0));
        assert!(usable < (223.5 * GIB as f64) as u64);
        assert!(usable > (89.4 * GIB as f64) as u64);
        // NVDIMM holds all three sizes.
        assert!(m.usable_capacity(NodeId(2)) > (223.5 * GIB as f64) as u64);
    }

    #[test]
    fn llc_scales_with_initiator() {
        let m = Machine::xeon_1lm_no_snc();
        let all20: Bitmap = "0-19".parse().unwrap();
        let ten: Bitmap = "0-9".parse().unwrap();
        let full = m.llc_bytes(&all20);
        let half = m.llc_bytes(&ten);
        assert_eq!(full, 27904 * 1024);
        assert_eq!(half, full / 2);
    }

    #[test]
    fn knl_llc_is_l2_aggregate() {
        let m = Machine::knl_snc4_flat();
        let cluster: Bitmap = "0-15".parse().unwrap();
        // 8 tiles × 1 MiB.
        assert_eq!(m.llc_bytes(&cluster), 8 * 1024 * 1024);
    }

    #[test]
    fn srat_covers_all_cpus_and_nodes() {
        let m = Machine::xeon_1lm_snc();
        let srat = m.srat();
        assert_eq!(srat.processors.len(), 40);
        assert_eq!(srat.memory.len(), 6);
        // CPUs land in the SNC-group DRAM PDs (0,1,3,4), not NVDIMM PDs.
        assert_eq!(srat.initiator_domains(), vec![0, 1, 3, 4]);
        // NVDIMM nodes are hotplug (DAX-kmem).
        assert!(srat.memory.iter().any(|e| e.pd == 2 && e.hotplug));
    }

    #[test]
    fn hmat_local_only_matches_fig5() {
        let m = Machine::xeon_1lm_snc();
        let hmat = m.hmat(true);
        // DRAM node 0 from its own group: 131072/2 (SNC halves BW
        // datasheet? no — datasheet stays the Fig. 5 value).
        let bw = hmat.value(DataType::AccessBandwidth, 0, 0).unwrap();
        assert_eq!(bw, 131_072);
        let lat = hmat.value(DataType::AccessLatency, 0, 0).unwrap();
        assert_eq!(lat, 26);
        // NVDIMM node 2 is local to both groups of package 0.
        assert_eq!(hmat.value(DataType::AccessBandwidth, 0, 2), Some(78_644));
        assert_eq!(hmat.value(DataType::AccessBandwidth, 1, 2), Some(78_644));
        assert_eq!(hmat.value(DataType::AccessLatency, 0, 2), Some(77));
        // No cross-package entries in local-only mode (the paper's
        // "impossible to compare local DRAM with remote HBM").
        assert_eq!(hmat.value(DataType::AccessBandwidth, 0, 3), None);
        assert_eq!(hmat.value(DataType::AccessLatency, 3, 2), None);
    }

    #[test]
    fn hmat_full_matrix_has_remote_penalties() {
        let m = Machine::xeon_1lm_snc();
        let hmat = m.hmat(false);
        let local = hmat.value(DataType::AccessLatency, 0, 0).unwrap();
        let remote = hmat.value(DataType::AccessLatency, 3, 0).unwrap();
        assert!(remote > local);
        let local_bw = hmat.value(DataType::AccessBandwidth, 0, 0).unwrap();
        let remote_bw = hmat.value(DataType::AccessBandwidth, 3, 0).unwrap();
        assert!(remote_bw < local_bw);
    }

    #[test]
    fn hmat_rw_variants_follow_device_asymmetry() {
        let m = Machine::xeon_1lm_no_snc();
        let hmat = m.hmat_with_options(true, true);
        // NVDIMM node 2: write bandwidth well below read bandwidth.
        let r = hmat.value(DataType::ReadBandwidth, 0, 2).unwrap();
        let w = hmat.value(DataType::WriteBandwidth, 0, 2).unwrap();
        assert!(w < r / 2 + 1, "write {w} vs read {r}");
        // DRAM write latency slightly above read latency.
        let rl = hmat.value(DataType::ReadLatency, 0, 0).unwrap();
        let wl = hmat.value(DataType::WriteLatency, 0, 0).unwrap();
        assert!(wl >= rl);
        // Default generation omits them.
        assert!(m.hmat(true).locality(DataType::ReadBandwidth).is_none());
    }

    #[test]
    fn hmat_encodes_memory_side_caches() {
        let m = Machine::xeon_2lm();
        let hmat = m.hmat(true);
        assert_eq!(hmat.caches.len(), 2);
        assert_eq!(hmat.cache_of(0).unwrap().size, 192 * GIB);
    }

    #[test]
    fn hmat_binary_roundtrip_through_firmware_path() {
        let m = Machine::knl_snc4_flat();
        let hmat = m.hmat(true);
        let bin = hetmem_hmat::encode_hmat(&hmat);
        assert_eq!(hetmem_hmat::decode_hmat(&bin).unwrap(), hmat);
        let srat = m.srat();
        let bin = hetmem_hmat::encode_srat(&srat);
        assert_eq!(hetmem_hmat::decode_srat(&bin).unwrap(), srat);
    }

    #[test]
    fn remote_access_adjustments() {
        let m = Machine::xeon_1lm_snc();
        let g0: Bitmap = "0-9".parse().unwrap();
        // Local DRAM: no penalty.
        assert_eq!(m.access_adjust(&g0, NodeId(0)), AccessAdjust::LOCAL);
        // Package-local NVDIMM (locality covers the group): no penalty.
        assert_eq!(m.access_adjust(&g0, NodeId(2)), AccessAdjust::LOCAL);
        // Sibling SNC group's DRAM: mesh penalty.
        let sibling = m.access_adjust(&g0, NodeId(1));
        assert!(sibling.extra_lat_ns > 0.0 && sibling.extra_lat_ns < 50.0);
        // Other package's DRAM: UPI penalty, bigger.
        let cross = m.access_adjust(&g0, NodeId(3));
        assert!(cross.extra_lat_ns > sibling.extra_lat_ns);
        assert!(cross.bw_factor < sibling.bw_factor);
    }

    #[test]
    fn machine_attached_memory_is_local_to_everyone() {
        let m = Machine::fictitious();
        let g0: Bitmap = "0-3".parse().unwrap();
        // NAM (node 8) hangs off the machine root.
        assert_eq!(m.access_adjust(&g0, NodeId(8)), AccessAdjust::LOCAL);
    }

    #[test]
    fn slit_matches_classic_shape() {
        let m = Machine::xeon_1lm_no_snc();
        let d = m.slit();
        assert!(d.is_symmetric());
        // Local DRAM = 10; local NVDIMM = 17 (as real Optane systems
        // expose); cross-socket DRAM = 21.
        assert_eq!(d.value(NodeId(0), NodeId(0)), Some(10));
        assert_eq!(d.value(NodeId(0), NodeId(2)), Some(17));
        assert_eq!(d.value(NodeId(0), NodeId(1)), Some(21));
        assert_eq!(d.value(NodeId(0), NodeId(3)), Some(28));
        // Nearest other node from node 0 is... its local NVDIMM — a
        // scalar distance cannot say that NVDIMM is *slower per access*
        // but *closer per hop*, which is the paper's point.
        assert_eq!(d.nearest(NodeId(0)), Some(NodeId(2)));
    }

    #[test]
    fn missing_timing_rejected() {
        let topo = platforms::homogeneous(1, 2, GIB);
        let err = Machine::new("x", topo, BTreeMap::new(), BTreeMap::new(), BTreeMap::new());
        assert!(err.is_err());
    }

    #[test]
    fn entries_for_unknown_nodes_rejected() {
        let topo = platforms::homogeneous(1, 2, GIB);
        let timings: BTreeMap<NodeId, NodeTiming> =
            topo.node_ids().into_iter().map(|n| (n, NodeTiming::xeon_dram())).collect();
        let reserved = BTreeMap::from([(NodeId(7), GIB)]);
        let err = Machine::new("x", topo.clone(), timings.clone(), BTreeMap::new(), reserved);
        assert!(err.unwrap_err().contains("unknown"));
        let m = Machine::new("x", topo, timings, BTreeMap::new(), BTreeMap::from([(NodeId(0), 1)]))
            .unwrap();
        assert_eq!(m.usable_capacity(NodeId(0)), GIB - 1);
        assert_eq!(m.os_reserved(NodeId(0)), 1);
    }

    #[test]
    fn derived_tables_match_an_arena_scan() {
        use crate::reference;
        for m in reference::presets() {
            let topo = m.topology();
            let name = m.name();
            let mut numa: Vec<_> =
                topo.objects().filter(|o| o.obj_type == ObjectType::NumaNode).collect();
            numa.sort_by_key(|o| o.os_index);
            assert_eq!(m.nodes.len(), numa.len(), "{name}");
            for (slot, (row, obj)) in m.nodes.iter().zip(&numa).enumerate() {
                assert_eq!(row.id, NodeId(obj.os_index), "{name}");
                assert_eq!(m.slot(row.id), Some(slot), "{name}");
                assert_eq!(row.locality, obj.cpuset, "{name}: locality of {}", row.id);
                let mut parent = obj.parent;
                let package = std::iter::from_fn(|| {
                    let p = topo.object(parent?);
                    parent = p.parent;
                    Some(p)
                })
                .find(|p| p.obj_type == ObjectType::Package);
                assert_eq!(row.package, package.map(|p| p.cpuset.clone()), "{name}: {}", row.id);
                assert_eq!(row.capacity, obj.local_memory(), "{name}: {}", row.id);
                assert!(row.usable() <= row.capacity, "{name}: {}", row.id);
            }
            let last = numa.last().map_or(0, |o| o.os_index);
            for node in (0..=last + 2).map(NodeId).chain([NodeId(u32::MAX)]) {
                let scanned = numa.iter().position(|o| o.os_index == node.0);
                assert_eq!(m.slot(node), scanned, "{name}: slot of {node}");
            }

            let level = if topo.objects().any(|o| o.obj_type == ObjectType::L3Cache) {
                ObjectType::L3Cache
            } else {
                ObjectType::L2Cache
            };
            let mut caches: Vec<_> = topo.objects().filter(|o| o.obj_type == level).collect();
            caches.sort_by_key(|o| o.logical_index);
            assert_eq!(m.llc.len(), caches.len(), "{name}");
            for (entry, cache) in m.llc.iter().zip(&caches) {
                assert_eq!(entry.cpuset, cache.cpuset, "{name}");
                assert_eq!(entry.pus, cache.cpuset.weight().unwrap().max(1), "{name}");
                assert_eq!(entry.bytes, cache.attrs.as_cache().unwrap().size, "{name}");
            }

            let unknown = NodeId(last + 1);
            for kind in 0..7 {
                for k in 0..8 {
                    let initiator = reference::initiator(&m, kind, k);
                    assert_eq!(
                        m.llc_bytes(&initiator),
                        reference::llc_bytes(&m, &initiator),
                        "{name}: llc_bytes({initiator})"
                    );
                    for node in m.nodes.iter().map(|r| r.id).chain([unknown]) {
                        assert_eq!(
                            m.access_adjust(&initiator, node),
                            reference::access_adjust(&m, &initiator, node),
                            "{name}: access_adjust({initiator}, {node})"
                        );
                    }
                }
            }
        }
    }
}
