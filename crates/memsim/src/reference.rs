//! Reference implementations the derived tables replaced, kept to pin
//! the table-driven code to them bit for bit.
//!
//! * [`llc_bytes`] and [`access_adjust`] scan the topology's object
//!   arena on every call, as `Machine` did before it derived its node
//!   rows and last-level cache table;
//! * [`run_phase`] costs a phase over per-node `BTreeMap`s, as
//!   `AccessEngine::run_phase` did before its slot array;
//! * [`RefManager`] commits `AllocPolicy::Exact` splits and frees over
//!   per-node `BTreeMap`s, as `MemoryManager` did before its per-slot
//!   tables.
//!
//! [`presets`] and [`initiator`] draw the machines and initiators the
//! comparisons run over.

use crate::engine::{AccessPattern, BufferStats, NodeTraffic, Phase, PhaseReport, LINE};
use crate::machine::{AccessAdjust, Machine};
use crate::memory::{AllocError, MemoryManager, Region, RegionId};
use crate::{ns_for_bytes, PAGE_SIZE};
use hetmem_bitmap::Bitmap;
use hetmem_telemetry as telemetry;
use hetmem_telemetry::TelemetrySink;
use hetmem_topology::{NodeId, ObjectType, GIB};
use std::collections::BTreeMap;

/// `Machine::llc_bytes` as an arena scan.
pub(crate) fn llc_bytes(machine: &Machine, initiator: &Bitmap) -> u64 {
    let topology = machine.topology();
    let level = if topology.count(ObjectType::L3Cache) > 0 {
        ObjectType::L3Cache
    } else {
        ObjectType::L2Cache
    };
    let mut total = 0.0f64;
    for cache in topology.objects_of_type(level) {
        if !cache.cpuset.intersects(initiator) {
            continue;
        }
        let covered = cache.cpuset.and(initiator).weight().unwrap_or(0) as f64;
        let all = cache.cpuset.weight().unwrap_or(1).max(1) as f64;
        let size = cache.attrs.as_cache().map_or(0, |c| c.size) as f64;
        total += size * covered / all;
    }
    total as u64
}

/// `Machine::access_adjust` over the topology objects.
pub(crate) fn access_adjust(machine: &Machine, initiator: &Bitmap, node: NodeId) -> AccessAdjust {
    let topology = machine.topology();
    let Some(obj) = topology.numa_by_os_index(node) else {
        return AccessAdjust::LOCAL;
    };
    if obj.cpuset.intersects(initiator) || obj.cpuset.includes(initiator) || obj.cpuset.is_zero() {
        return AccessAdjust::LOCAL;
    }
    let node_pkg = topology.ancestor_of_type(obj.id, ObjectType::Package).map(|p| p.cpuset.clone());
    match node_pkg {
        Some(pkg) if pkg.intersects(initiator) => {
            AccessAdjust { extra_lat_ns: 20.0, bw_factor: 0.85 }
        }
        _ => AccessAdjust { extra_lat_ns: 70.0, bw_factor: 0.45 },
    }
}

/// `AccessEngine::run_phase` over per-node maps, without telemetry.
pub(crate) fn run_phase(machine: &Machine, mm: &MemoryManager, phase: &Phase) -> PhaseReport {
    let llc = llc_bytes(machine, &phase.initiator);
    let threads = phase.threads.max(1);

    struct Resolved {
        region: RegionId,
        pattern: AccessPattern,
        ws: u64,
        miss_ratio: f64,
        split: Vec<(NodeId, u64, u64)>,
        loads: u64,
        stores: u64,
        misses: u64,
    }
    let mut resolved = Vec::with_capacity(phase.accesses.len());
    let mut node_read: BTreeMap<NodeId, u64> = BTreeMap::new();
    let mut node_write: BTreeMap<NodeId, u64> = BTreeMap::new();
    let mut node_footprint: BTreeMap<NodeId, u64> = BTreeMap::new();

    for acc in &phase.accesses {
        let region = mm
            .region(acc.region)
            .unwrap_or_else(|| panic!("access to freed region {:?}", acc.region));
        let ws = (region.size as f64 * acc.hot_fraction.clamp(0.0, 1.0)) as u64;
        let m = acc.pattern.llc_miss_ratio(ws, llc);
        let mem_read = (acc.bytes_read as f64 * m) as u64;
        let mem_write = (acc.bytes_written as f64 * m) as u64;
        let mut split = Vec::with_capacity(region.placement.len());
        for (node, bytes) in &region.placement {
            let frac = *bytes as f64 / region.size.max(1) as f64;
            split.push((*node, (mem_read as f64 * frac) as u64, (mem_write as f64 * frac) as u64));
            *node_read.entry(*node).or_insert(0) += (mem_read as f64 * frac) as u64;
            *node_write.entry(*node).or_insert(0) += (mem_write as f64 * frac) as u64;
            *node_footprint.entry(*node).or_insert(0) += (*bytes as f64 * acc.hot_fraction) as u64;
        }
        resolved.push(Resolved {
            region: acc.region,
            pattern: acc.pattern,
            ws,
            miss_ratio: m,
            split,
            loads: acc.bytes_read / LINE,
            stores: acc.bytes_written / LINE,
            misses: mem_read / LINE,
        });
    }

    let mut node_busy: BTreeMap<NodeId, f64> = BTreeMap::new();
    for (&node, &r) in &node_read {
        let w = node_write.get(&node).copied().unwrap_or(0);
        let fp = node_footprint.get(&node).copied().unwrap_or(0);
        let adjust = access_adjust(machine, &phase.initiator, node);
        node_busy.insert(node, node_busy_ns(machine, node, r, w, fp, threads, adjust));
    }
    let bw_floor = node_busy.values().copied().fold(0.0f64, f64::max);

    let mut phase_time = bw_floor.max(phase.compute_ns).max(1.0);
    let mut stall_total = 0.0;
    let mut buffer_stats: Vec<BufferStats> = Vec::new();
    for _ in 0..2 {
        stall_total = 0.0;
        buffer_stats.clear();
        for res in &resolved {
            let mut stall_by_node = Vec::new();
            let mut lat_weighted = 0.0;
            let mut traffic_total = 0.0;
            for &(node, r, w) in &res.split {
                let fp = node_footprint.get(&node).copied().unwrap_or(0);
                let busy = node_busy.get(&node).copied().unwrap_or(0.0);
                let util = (busy / phase_time).clamp(0.0, 1.0);
                let adjust = access_adjust(machine, &phase.initiator, node);
                let lat = node_latency_ns(machine, node, util, fp)
                    + adjust.extra_lat_ns
                    + res.pattern.tlb_walk_ns(res.ws);
                let misses_here = (r / LINE) as f64;
                let chain = misses_here * lat / (threads as f64 * res.pattern.mlp());
                stall_by_node.push((node, chain));
                lat_weighted += lat * (r + w) as f64;
                traffic_total += (r + w) as f64;
            }
            let stall: f64 = stall_by_node.iter().map(|(_, s)| s).sum();
            stall_total += stall;
            buffer_stats.push(BufferStats {
                region: res.region,
                loads: res.loads,
                stores: res.stores,
                llc_misses: res.misses,
                llc_miss_ratio: res.miss_ratio,
                pattern: res.pattern,
                avg_latency_ns: if traffic_total > 0.0 {
                    lat_weighted / traffic_total
                } else {
                    0.0
                },
                stall_ns: stall,
                stall_by_node,
            });
        }
        phase_time = bw_floor.max(phase.compute_ns + stall_total).max(1.0);
    }

    let mut per_node = BTreeMap::new();
    for (&node, &busy) in &node_busy {
        let r = node_read.get(&node).copied().unwrap_or(0);
        let w = node_write.get(&node).copied().unwrap_or(0);
        per_node.insert(
            node,
            NodeTraffic {
                bytes_read: r,
                bytes_written: w,
                busy_ns: busy,
                utilization: (busy / phase_time).clamp(0.0, 1.0),
                achieved_bw_mbps: (r + w) as f64 / (phase_time / 1e9) / (1024.0 * 1024.0),
            },
        );
    }

    PhaseReport {
        name: phase.name.clone(),
        time_ns: phase_time,
        threads,
        compute_ns: phase.compute_ns,
        stall_ns: stall_total,
        per_node,
        buffers: buffer_stats,
    }
}

fn node_busy_ns(
    machine: &Machine,
    node: NodeId,
    r: u64,
    w: u64,
    footprint: u64,
    threads: usize,
    adjust: AccessAdjust,
) -> f64 {
    let t = machine.timing(node);
    let f = adjust.bw_factor;
    match machine.cache_timing(node) {
        None => {
            ns_for_bytes(r as f64, t.effective_read_bw(threads, footprint) * f)
                + ns_for_bytes(w as f64, t.effective_write_bw(threads, footprint) * f)
        }
        Some(cache) => {
            let h = cache.hit_ratio(footprint);
            let hit_bytes = (r + w) as f64 * h;
            let miss_r = r as f64 * (1.0 - h);
            let miss_w = w as f64 * (1.0 - h);
            ns_for_bytes(hit_bytes, cache.hit_bw_mbps * f)
                + ns_for_bytes(miss_r, t.effective_read_bw(threads, footprint) * f)
                + ns_for_bytes(miss_w, t.effective_write_bw(threads, footprint) * f)
        }
    }
}

fn node_latency_ns(machine: &Machine, node: NodeId, utilization: f64, footprint: u64) -> f64 {
    let t = machine.timing(node);
    let base = t.read_latency_at(utilization) + t.ait_latency_penalty(footprint);
    match machine.cache_timing(node) {
        None => base,
        Some(cache) => {
            let h = cache.hit_ratio(footprint);
            h * cache.hit_lat_ns + (1.0 - h) * (base + cache.miss_penalty_ns)
        }
    }
}

/// `MemoryManager`'s `Exact` commit, `free` and occupancy gauges over
/// per-node maps.
pub(crate) struct RefManager<'m> {
    machine: &'m Machine,
    pub(crate) free: BTreeMap<NodeId, u64>,
    regions: BTreeMap<RegionId, Region>,
    next_id: u64,
    pub(crate) high_water: BTreeMap<NodeId, u64>,
    sink: TelemetrySink,
}

impl<'m> RefManager<'m> {
    pub(crate) fn new(machine: &'m Machine, sink: TelemetrySink) -> Self {
        let free = machine
            .topology()
            .node_ids()
            .into_iter()
            .map(|n| (n, machine.usable_capacity(n)))
            .collect();
        RefManager {
            machine,
            free,
            regions: BTreeMap::new(),
            next_id: 0,
            high_water: BTreeMap::new(),
            sink,
        }
    }

    fn available(&self, node: NodeId) -> u64 {
        self.free.get(&node).copied().unwrap_or(0)
    }

    fn gauge(&mut self, touched: impl IntoIterator<Item = NodeId>) {
        let mut nodes: Vec<NodeId> = touched.into_iter().collect();
        nodes.sort_unstable();
        nodes.dedup();
        for node in nodes {
            let used = self.machine.usable_capacity(node) - self.available(node);
            let hw = self.high_water.entry(node).or_insert(0);
            *hw = (*hw).max(used);
            let hw = *hw;
            if self.sink.enabled() {
                self.sink.emit(telemetry::Event::OccupancyGauge(telemetry::OccupancyGauge {
                    node,
                    used,
                    high_water: hw,
                    total: self.machine.usable_capacity(node),
                }));
            }
        }
    }

    /// `MemoryManager::alloc(_, AllocPolicy::Exact(chunks))`.
    pub(crate) fn alloc_exact(&mut self, chunks: &[(NodeId, u64)]) -> Result<RegionId, AllocError> {
        if chunks.is_empty() {
            return Err(AllocError::EmptyNodeList);
        }
        for &(n, _) in chunks {
            if !self.free.contains_key(&n) {
                return Err(AllocError::InvalidNode(n));
            }
        }
        let mut need: BTreeMap<NodeId, u64> = BTreeMap::new();
        let mut placement = Vec::new();
        for &(node, bytes) in chunks {
            let bytes = bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE;
            if bytes == 0 {
                continue;
            }
            *need.entry(node).or_insert(0) += bytes;
            placement.push((node, bytes));
        }
        for (&node, &bytes) in &need {
            let avail = self.available(node);
            if avail < bytes {
                return Err(AllocError::InsufficientCapacity {
                    node,
                    requested: bytes,
                    available: avail,
                });
            }
        }
        let size = placement.iter().map(|&(_, b)| b).sum();
        for (node, bytes) in &placement {
            *self.free.get_mut(node).expect("validated node") -= bytes;
        }
        let id = RegionId(self.next_id);
        self.next_id += 1;
        let touched: Vec<NodeId> = placement.iter().map(|&(n, _)| n).collect();
        let policy = crate::AllocPolicy::Exact(chunks.to_vec());
        self.regions.insert(id, Region { id, size, placement, policy });
        self.gauge(touched);
        Ok(id)
    }

    /// `MemoryManager::free`.
    pub(crate) fn free(&mut self, id: RegionId) -> bool {
        match self.regions.remove(&id) {
            Some(region) => {
                for &(node, bytes) in &region.placement {
                    *self.free.get_mut(&node).expect("placement node exists") += bytes;
                }
                if self.sink.enabled() {
                    self.sink.emit(telemetry::Event::Free(telemetry::FreeEvent {
                        region: id.0,
                        placement: region.placement.clone(),
                    }));
                }
                self.gauge(region.placement.iter().map(|&(n, _)| n));
                true
            }
            None => false,
        }
    }
}

/// Every machine preset: memory-side caches (`xeon_2lm`,
/// `knl_quadrant_cache`), cross-package nodes (`xeon_4s_snc`) and
/// machine-wide locality (`fictitious`) among them.
pub(crate) fn presets() -> Vec<Machine> {
    vec![
        Machine::xeon_1lm_no_snc(),
        Machine::xeon_1lm_snc(),
        Machine::xeon_2lm(),
        Machine::knl_snc4_flat(),
        Machine::knl_quadrant_cache(),
        Machine::xeon_4s_snc(),
        Machine::fictitious(),
        Machine::homogeneous(2, 4, 8 * GIB),
        Machine::power9_gpu(),
        Machine::fugaku_like(),
    ]
}

/// An initiator of kind `kind`, picked by `k`: one PU, one cluster
/// (a node's locality), a set spanning two packages, the whole
/// machine, an arbitrary PU subset, the empty set, or the full
/// (infinite) set.
pub(crate) fn initiator(machine: &Machine, kind: u8, k: usize) -> Bitmap {
    let topo = machine.topology();
    let pus: Vec<usize> = topo.machine_cpuset().iter().collect();
    match kind {
        0 => Bitmap::only(pus[k % pus.len()]),
        1 => {
            let localities: Vec<&Bitmap> = topo
                .objects()
                .filter(|o| o.obj_type == ObjectType::NumaNode && !o.cpuset.is_zero())
                .map(|o| &o.cpuset)
                .collect();
            localities[k % localities.len()].clone()
        }
        2 => {
            let firsts: Vec<usize> = topo
                .objects_of_type(ObjectType::Package)
                .filter_map(|p| p.cpuset.first())
                .collect();
            let a = firsts.first().copied().unwrap_or(pus[0]);
            let b = firsts.get(1 + k % firsts.len().max(2).saturating_sub(1)).copied();
            Bitmap::from_indices([a, b.unwrap_or(*pus.last().expect("a PU"))])
        }
        3 => topo.machine_cpuset().clone(),
        4 => Bitmap::from_indices(
            pus.iter().copied().filter(|p| (p.wrapping_mul(31) ^ k).is_multiple_of(3)),
        ),
        5 => Bitmap::new(),
        _ => Bitmap::full(),
    }
}

mod tests {
    use super::*;
    use crate::{AccessEngine, AllocPolicy, BufferAccess};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Every number of a report, each `f64` as its bits.
    fn bits(r: &PhaseReport) -> (String, Vec<u64>) {
        let mut v = vec![r.time_ns.to_bits(), r.threads as u64];
        v.extend([r.compute_ns.to_bits(), r.stall_ns.to_bits(), r.per_node.len() as u64]);
        for (node, t) in &r.per_node {
            v.extend([node.0 as u64, t.bytes_read, t.bytes_written, t.busy_ns.to_bits()]);
            v.extend([t.utilization.to_bits(), t.achieved_bw_mbps.to_bits()]);
        }
        for b in &r.buffers {
            v.extend([b.region.0, b.loads, b.stores, b.llc_misses, b.llc_miss_ratio.to_bits()]);
            v.extend([b.pattern as u64, b.avg_latency_ns.to_bits(), b.stall_ns.to_bits()]);
            v.push(b.stall_by_node.len() as u64);
            for &(node, s) in &b.stall_by_node {
                v.extend([node.0 as u64, s.to_bits()]);
            }
        }
        (r.name.clone(), v)
    }

    const PATTERNS: [AccessPattern; 4] = [
        AccessPattern::Sequential,
        AccessPattern::Strided,
        AccessPattern::Random,
        AccessPattern::PointerChase,
    ];

    /// One buffer: its `Exact` chunks as (node pick, pages), pattern,
    /// hot fraction, bytes read and bytes written.
    type BufferDraw = (Vec<(usize, u64)>, usize, f64, u64, u64);

    fn buffer() -> impl Strategy<Value = BufferDraw> {
        (
            // Up to 1 GiB, or up to 32 GiB per chunk: footprints then
            // cross the NVDIMM AIT windows and the memory-side caches.
            prop::collection::vec(
                (0usize..16, prop_oneof![Just(0u64), 1u64..=262_144, 1u64..=8_388_608]),
                1..4,
            ),
            0usize..4,
            // Past 1.0 the working set clamps but the footprint does not.
            prop_oneof![Just(1.0f64), 0.0f64..1.0, 1.0f64..1.5],
            0u64..=64 * GIB,
            0u64..=16 * GIB,
        )
    }

    /// A step of a commit sequence: an `Exact` split as (node pick,
    /// bytes), a pick past the machine's nodes naming an unknown node;
    /// or a free of the k-th committed region.
    #[derive(Debug, Clone)]
    enum Op {
        Commit(Vec<(usize, u64)>),
        Free(usize),
    }

    fn commit() -> impl Strategy<Value = Op> {
        let bytes =
            prop_oneof![Just(0u64), 1u64..=4 * PAGE_SIZE, 0u64..=8 * GIB, 0u64..=2048 * GIB,];
        prop::collection::vec((0usize..17, bytes), 0..5).prop_map(Op::Commit)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        #[test]
        fn run_phase_matches_the_map_reference(
            preset in 0usize..10,
            kind in 0u8..7,
            k in 0usize..64,
            buffers in prop::collection::vec(buffer(), 1..5),
            threads in 0usize..=72,
            compute_ns in prop_oneof![Just(0.0f64), 0.0f64..1e9],
        ) {
            let machine = Arc::new(presets().swap_remove(preset));
            let ids = machine.topology().node_ids();
            let mut mm = MemoryManager::new(machine.clone());
            let mut accesses = Vec::new();
            for (chunks, pattern, hot_fraction, read, written) in buffers {
                let chunks: Vec<(NodeId, u64)> =
                    chunks.iter().map(|&(n, pages)| (ids[n % ids.len()], pages * PAGE_SIZE)).collect();
                let Ok(region) = mm.alloc(0, AllocPolicy::Exact(chunks)) else { continue };
                let mut access = BufferAccess::new(region, read, written, PATTERNS[pattern]);
                access.hot_fraction = hot_fraction;
                accesses.push(access);
            }
            let phase = Phase {
                name: "phase".into(),
                accesses,
                threads,
                initiator: initiator(&machine, kind, k),
                compute_ns,
            };
            let engine = AccessEngine::new(machine.clone());
            prop_assert_eq!(bits(&engine.run_phase(&mm, &phase)), bits(&run_phase(&machine, &mm, &phase)));
        }

        #[test]
        fn exact_commits_and_frees_match_the_map_reference(
            preset in 0usize..10,
            ops in prop::collection::vec(
                prop_oneof![commit(), commit(), commit(), (0usize..32).prop_map(Op::Free)],
                1..24,
            ),
        ) {
            let machine = Arc::new(presets().swap_remove(preset));
            let ids = machine.topology().node_ids();
            let unknown = NodeId(9999);
            let (new_sink, ref_sink) = (TelemetrySink::new(), TelemetrySink::new());
            let mut mm = MemoryManager::new(machine.clone());
            mm.set_sink(new_sink.clone());
            let mut reference = RefManager::new(&machine, ref_sink.clone());
            let mut committed = Vec::new();
            for op in ops {
                match op {
                    Op::Commit(chunks) => {
                        let chunks: Vec<(NodeId, u64)> = chunks
                            .iter()
                            .map(|&(n, b)| (ids.get(n).copied().unwrap_or(unknown), b))
                            .collect();
                        let got = mm.alloc(0, AllocPolicy::Exact(chunks.clone()));
                        prop_assert_eq!(&got, &reference.alloc_exact(&chunks));
                        committed.extend(got.ok());
                    }
                    Op::Free(k) => {
                        let Some(&id) = committed.get(k % committed.len().max(1)) else { continue };
                        prop_assert_eq!(mm.free(id), reference.free(id));
                    }
                }
                for &node in ids.iter().chain([&unknown]) {
                    prop_assert_eq!(mm.available(node), reference.available(node));
                    let hw = reference.high_water.get(&node).copied().unwrap_or(0);
                    prop_assert_eq!(mm.high_water(node), hw);
                }
            }
            let high_water: Vec<(NodeId, u64)> =
                reference.high_water.iter().map(|(&n, &hw)| (n, hw)).collect();
            prop_assert_eq!(mm.capture().high_water, high_water);
            let events = |sink: &TelemetrySink| -> Vec<telemetry::Event> {
                sink.collector().drain_sorted().into_iter().map(|e| e.event).collect()
            };
            prop_assert_eq!(events(&new_sink), events(&ref_sink));
        }
    }

    #[test]
    fn a_phase_over_an_empty_region_matches_the_reference() {
        // An `Exact` commit of zero-byte chunks leaves a region with no
        // placement; its stall sums over nothing.
        for machine in presets() {
            let machine = Arc::new(machine);
            let mut mm = MemoryManager::new(machine.clone());
            let node = machine.topology().node_ids()[0];
            let empty = mm.alloc(0, AllocPolicy::Exact(vec![(node, 0)])).unwrap();
            let full = mm.alloc(GIB, AllocPolicy::Bind(node)).unwrap();
            let phase = Phase {
                name: "empty".into(),
                accesses: vec![
                    BufferAccess::new(empty, GIB, GIB, AccessPattern::Random),
                    BufferAccess::new(full, GIB, 0, AccessPattern::PointerChase),
                ],
                threads: 4,
                initiator: machine.topology().machine_cpuset().clone(),
                compute_ns: 0.0,
            };
            let got = AccessEngine::new(machine.clone()).run_phase(&mm, &phase);
            assert_eq!(bits(&got), bits(&run_phase(&machine, &mm, &phase)), "{}", machine.name());
        }
    }
}
