//! The phase cost engine.
//!
//! Applications are modelled as sequences of *kernel phases*: each
//! phase describes, per buffer, how many bytes are read/written and
//! with what pattern, plus thread count and pure-compute time. The
//! engine turns a phase into a deterministic time and a set of
//! counters:
//!
//! * a **bandwidth term** per NUMA node — traffic that lands on a node
//!   shares its (thread-capped, AIT-degraded, cache-filtered)
//!   bandwidth; nodes serve in parallel, so the phase's bandwidth
//!   floor is the busiest node;
//! * a **latency term** per buffer — demand misses divided by the
//!   memory-level parallelism the pattern allows (64-wide for
//!   prefetched streams, 1 for pointer chasing), at the node's
//!   *loaded* latency;
//! * a **TLB term** — random accesses to working sets far beyond TLB
//!   reach pay growing page-walk costs (this reproduces the gentle
//!   Graph500 TEPS decline at large scales in Table IIa).
//!
//! Phase time = max(bandwidth floor, compute + latency stalls): stalls
//! serialize with computation on the cores, streaming overlaps with it.

use crate::machine::{AccessAdjust, Machine, NodeRow};
use crate::memory::{MemoryManager, RegionId};
use crate::ns_for_bytes;
use hetmem_bitmap::Bitmap;
use hetmem_telemetry as telemetry;
use hetmem_telemetry::TelemetrySink;
use hetmem_topology::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Cache line size used for miss accounting.
pub const LINE: u64 = 64;

/// TLB reach with transparent huge pages (entries × 2 MiB).
const TLB_REACH_BYTES: f64 = 8.0 * 1024.0 * 1024.0 * 1024.0;
/// Page-walk cost factor (ns per doubling beyond reach).
const TLB_WALK_NS_PER_DOUBLING: f64 = 16.0;

/// How a buffer is accessed during a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Streaming, prefetch-friendly (STREAM kernels).
    Sequential,
    /// Regular but non-unit stride; prefetch partially effective.
    Strided,
    /// Independent random accesses (hash tables, BFS frontiers).
    Random,
    /// Dependent random accesses — each load's address comes from the
    /// previous one (lmbench/multichase, linked structures).
    PointerChase,
}

impl AccessPattern {
    /// Memory-level parallelism per thread.
    pub fn mlp(self) -> f64 {
        match self {
            AccessPattern::Sequential => 64.0,
            AccessPattern::Strided => 16.0,
            AccessPattern::Random => 6.0,
            AccessPattern::PointerChase => 1.0,
        }
    }

    /// LLC miss ratio for a working set `ws` against `llc` bytes of
    /// last-level cache.
    pub fn llc_miss_ratio(self, ws: u64, llc: u64) -> f64 {
        if ws == 0 {
            return 0.0;
        }
        match self {
            AccessPattern::Sequential | AccessPattern::Strided => {
                // Streams have no reuse unless the whole set fits.
                if ws <= llc {
                    0.02
                } else {
                    1.0
                }
            }
            AccessPattern::Random | AccessPattern::PointerChase => {
                (1.0 - llc as f64 / ws as f64).clamp(0.02, 1.0)
            }
        }
    }

    /// Extra per-miss page-walk latency from TLB pressure.
    pub fn tlb_walk_ns(self, ws: u64) -> f64 {
        match self {
            // Streams are TLB-friendly (next-page prefetch).
            AccessPattern::Sequential | AccessPattern::Strided => 0.0,
            AccessPattern::Random | AccessPattern::PointerChase => {
                let ratio = ws as f64 / TLB_REACH_BYTES;
                if ratio <= 1.0 {
                    0.0
                } else {
                    TLB_WALK_NS_PER_DOUBLING * ratio.log2()
                }
            }
        }
    }
}

/// Access description for one buffer within a phase.
#[derive(Debug, Clone)]
pub struct BufferAccess {
    /// The region being accessed.
    pub region: RegionId,
    /// Line-granular bytes read by the kernel from this buffer.
    pub bytes_read: u64,
    /// Line-granular bytes written.
    pub bytes_written: u64,
    /// The access pattern.
    pub pattern: AccessPattern,
    /// Fraction of the region that is actually hot (working set =
    /// `region.size × hot_fraction`). 1.0 for whole-buffer kernels.
    pub hot_fraction: f64,
}

impl BufferAccess {
    /// Whole-buffer access with the given traffic.
    pub fn new(
        region: RegionId,
        bytes_read: u64,
        bytes_written: u64,
        pattern: AccessPattern,
    ) -> Self {
        BufferAccess { region, bytes_read, bytes_written, pattern, hot_fraction: 1.0 }
    }
}

/// One kernel phase.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Display name (shows up in profiler reports).
    pub name: String,
    /// Per-buffer accesses.
    pub accesses: Vec<BufferAccess>,
    /// Worker thread count.
    pub threads: usize,
    /// The cpuset the threads run on (determines LLC share).
    pub initiator: Bitmap,
    /// Pure compute time on the critical path, ns.
    pub compute_ns: f64,
}

impl Phase {
    /// The `idx`-th of `n` equal time slices of this phase.
    ///
    /// Traffic and compute are divided evenly, with byte remainders
    /// spread so the slices sum exactly to the whole phase. Working
    /// sets (`hot_fraction`), thread count and initiator are
    /// unchanged — slicing splits *time*, not the data. Slice names
    /// get a `#idx` suffix so per-slice reports stay tellable apart.
    pub fn interval_slice(&self, idx: usize, n: usize) -> Phase {
        assert!(n > 0, "cannot slice a phase into 0 intervals");
        assert!(idx < n, "slice index {idx} out of range for {n} intervals");
        let part = |total: u64| -> u64 {
            let (i, n) = (idx as u64, n as u64);
            total * (i + 1) / n - total * i / n
        };
        Phase {
            name: if n == 1 { self.name.clone() } else { format!("{}#{idx}", self.name) },
            accesses: self
                .accesses
                .iter()
                .map(|a| BufferAccess {
                    region: a.region,
                    bytes_read: part(a.bytes_read),
                    bytes_written: part(a.bytes_written),
                    pattern: a.pattern,
                    hot_fraction: a.hot_fraction,
                })
                .collect(),
            threads: self.threads,
            initiator: self.initiator.clone(),
            compute_ns: self.compute_ns / n as f64,
        }
    }
}

/// Traffic and utilization of one node during a phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeTraffic {
    /// Bytes read from the node's devices (post-LLC).
    pub bytes_read: u64,
    /// Bytes written to the node's devices.
    pub bytes_written: u64,
    /// Time the node's memory controller was busy, ns.
    pub busy_ns: f64,
    /// busy / phase time (0..=1).
    pub utilization: f64,
    /// Achieved bandwidth over the phase, MiB/s.
    pub achieved_bw_mbps: f64,
}

/// Per-buffer counters for a phase (feeds the profiler).
#[derive(Debug, Clone)]
pub struct BufferStats {
    /// The region.
    pub region: RegionId,
    /// Demand loads issued (line granular).
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// LLC miss ratio applied to this buffer's traffic.
    pub llc_miss_ratio: f64,
    /// The access pattern the kernel used on this buffer.
    pub pattern: AccessPattern,
    /// Average memory latency seen by this buffer's misses, ns.
    pub avg_latency_ns: f64,
    /// Core stall time attributable to this buffer, ns.
    pub stall_ns: f64,
    /// Stall time split per node backing the buffer.
    pub stall_by_node: Vec<(NodeId, f64)>,
}

/// The outcome of costing one phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name.
    pub name: String,
    /// Total phase time, ns.
    pub time_ns: f64,
    /// Thread count it ran with.
    pub threads: usize,
    /// Pure compute on the critical path, ns.
    pub compute_ns: f64,
    /// Total latency stalls on the critical path, ns.
    pub stall_ns: f64,
    /// Per-node traffic.
    pub per_node: BTreeMap<NodeId, NodeTraffic>,
    /// Per-buffer counters.
    pub buffers: Vec<BufferStats>,
}

impl PhaseReport {
    /// Aggregate achieved bandwidth (all nodes), MiB/s.
    pub fn total_bw_mbps(&self) -> f64 {
        self.per_node.values().map(|t| t.achieved_bw_mbps).sum()
    }

    /// Total bytes moved to/from memory.
    pub fn total_bytes(&self) -> u64 {
        self.per_node.values().map(|t| t.bytes_read + t.bytes_written).sum()
    }
}

/// The phase cost engine for one machine.
#[derive(Clone)]
pub struct AccessEngine {
    machine: Arc<Machine>,
    sink: TelemetrySink,
}

impl std::fmt::Debug for AccessEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessEngine").field("machine", &self.machine).finish_non_exhaustive()
    }
}

impl AccessEngine {
    /// Creates an engine for `machine`.
    pub fn new(machine: Arc<Machine>) -> Self {
        AccessEngine { machine, sink: TelemetrySink::disabled() }
    }

    /// The machine being simulated.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Routes phase spans into `sink` (default: discard).
    pub fn set_sink(&mut self, sink: TelemetrySink) {
        self.sink = sink;
    }

    /// Costs one phase against the current placements in `mm`.
    ///
    /// The phase resolves onto one slot per NUMA node (the machine's
    /// node rows), so each node's traffic, adjustment and latency are
    /// computed once per pass rather than once per buffer.
    ///
    /// Panics if a `BufferAccess` references a freed region — that is a
    /// use-after-free in the simulated application.
    pub fn run_phase(&self, mm: &MemoryManager, phase: &Phase) -> PhaseReport {
        let machine = &*self.machine;
        let rows = machine.node_rows();
        let llc = machine.llc_bytes(&phase.initiator);
        let threads = phase.threads.max(1);

        // Pass 1: post-LLC traffic per node slot and per buffer.
        struct Resolved {
            region: RegionId,
            pattern: AccessPattern,
            ws: u64,
            miss_ratio: f64,
            // This buffer's entries in `split`.
            chunks: std::ops::Range<usize>,
            loads: u64,
            stores: u64,
            misses: u64,
        }
        let mut slots = vec![Slot::default(); rows.len()];
        // (slot, read bytes, write bytes) post-LLC, per placement chunk.
        let mut split: Vec<(usize, u64, u64)> = Vec::new();
        let mut resolved = Vec::with_capacity(phase.accesses.len());
        for acc in &phase.accesses {
            let region = mm
                .region(acc.region)
                .unwrap_or_else(|| panic!("access to freed region {:?}", acc.region));
            let ws = (region.size as f64 * acc.hot_fraction.clamp(0.0, 1.0)) as u64;
            let m = acc.pattern.llc_miss_ratio(ws, llc);
            let mem_read = (acc.bytes_read as f64 * m) as u64;
            let mem_write = (acc.bytes_written as f64 * m) as u64;
            let first = split.len();
            for &(node, bytes) in &region.placement {
                let frac = bytes as f64 / region.size.max(1) as f64;
                let r = (mem_read as f64 * frac) as u64;
                let w = (mem_write as f64 * frac) as u64;
                let at = machine.slot(node).expect("placement node exists");
                let slot = &mut slots[at];
                slot.touched = true;
                slot.read += r;
                slot.write += w;
                slot.footprint += (bytes as f64 * acc.hot_fraction) as u64;
                split.push((at, r, w));
            }
            resolved.push(Resolved {
                region: acc.region,
                pattern: acc.pattern,
                ws,
                miss_ratio: m,
                chunks: first..split.len(),
                loads: acc.bytes_read / LINE,
                stores: acc.bytes_written / LINE,
                misses: mem_read / LINE,
            });
        }

        // Pass 2: per-node busy time (bandwidth term), with memory-side
        // cache filtering and remote-access penalties.
        for (slot, row) in slots.iter_mut().zip(rows).filter(|(s, _)| s.touched) {
            slot.adjust = row.adjust(&phase.initiator);
            slot.busy =
                node_busy_ns(row, slot.read, slot.write, slot.footprint, threads, slot.adjust);
        }
        let bw_floor = slots.iter().filter(|s| s.touched).map(|s| s.busy).fold(0.0f64, f64::max);

        // Pass 3: latency stalls, iterated twice so loaded latency uses
        // a consistent utilization estimate. The first estimate feeds
        // only the stall total; the second also yields the counters.
        // Stall of `r` post-LLC read bytes at `lat` ns per miss.
        let chain = |res: &Resolved, lat: f64, r: u64| -> f64 {
            let misses_here = (r / LINE) as f64;
            misses_here * lat / (threads as f64 * res.pattern.mlp())
        };
        let mut phase_time = bw_floor.max(phase.compute_ns).max(1.0);
        set_latencies(&mut slots, rows, phase_time);
        let mut stall_total = 0.0;
        for res in &resolved {
            let tlb = res.pattern.tlb_walk_ns(res.ws);
            let stall: f64 = split[res.chunks.clone()]
                .iter()
                .map(|&(at, r, _)| chain(res, slots[at].lat + tlb, r))
                .sum();
            stall_total += stall;
        }
        phase_time = bw_floor.max(phase.compute_ns + stall_total).max(1.0);

        set_latencies(&mut slots, rows, phase_time);
        stall_total = 0.0;
        let mut buffer_stats = Vec::with_capacity(resolved.len());
        for res in &resolved {
            let tlb = res.pattern.tlb_walk_ns(res.ws);
            let mut stall_by_node = Vec::with_capacity(res.chunks.len());
            let mut lat_weighted = 0.0;
            let mut traffic_total = 0.0;
            for &(at, r, w) in &split[res.chunks.clone()] {
                let lat = slots[at].lat + tlb;
                stall_by_node.push((rows[at].id, chain(res, lat, r)));
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

        // Final per-node traffic summary.
        let per_node = slots
            .iter()
            .zip(rows)
            .filter(|(s, _)| s.touched)
            .map(|(s, row)| {
                let traffic = NodeTraffic {
                    bytes_read: s.read,
                    bytes_written: s.write,
                    busy_ns: s.busy,
                    utilization: (s.busy / phase_time).clamp(0.0, 1.0),
                    achieved_bw_mbps: (s.read + s.write) as f64
                        / (phase_time / 1e9)
                        / (1024.0 * 1024.0),
                };
                (row.id, traffic)
            })
            .collect();

        let report = PhaseReport {
            name: phase.name.clone(),
            time_ns: phase_time,
            threads,
            compute_ns: phase.compute_ns,
            stall_ns: stall_total,
            per_node,
            buffers: buffer_stats,
        };
        if self.sink.enabled() {
            self.sink.emit(telemetry::Event::PhaseSpan(telemetry::PhaseSpan {
                name: report.name.clone(),
                time_ns: report.time_ns,
                threads: report.threads as u64,
                per_node: report
                    .per_node
                    .iter()
                    .map(|(&node, t)| telemetry::NodeTrafficSample {
                        node,
                        bytes_read: t.bytes_read,
                        bytes_written: t.bytes_written,
                        achieved_bw_mbps: t.achieved_bw_mbps,
                    })
                    .collect(),
            }));
        }
        report
    }

    /// Costs `phase` in `n` equal slices, invoking `between` after
    /// each slice with mutable access to the memory manager — the hook
    /// an online guidance policy uses to migrate regions *mid-phase*,
    /// so later slices are costed against the new placement.
    ///
    /// Returns the per-slice reports, in order. With `n == 1` (or 0,
    /// clamped) this degenerates to [`AccessEngine::run_phase`] plus
    /// one callback at the phase boundary.
    pub fn run_phase_sliced<F>(
        &self,
        mm: &mut MemoryManager,
        phase: &Phase,
        n: usize,
        mut between: F,
    ) -> Vec<PhaseReport>
    where
        F: FnMut(&mut MemoryManager, &PhaseReport, usize),
    {
        let n = n.max(1);
        let mut reports = Vec::with_capacity(n);
        for idx in 0..n {
            let slice = phase.interval_slice(idx, n);
            let report = self.run_phase(mm, &slice);
            between(mm, &report, idx);
            reports.push(report);
        }
        reports
    }
}

/// One node's share of a phase: its post-LLC traffic, then its busy
/// time and adjustment (pass 2), then its current latency (pass 3).
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Some buffer of the phase has a placement chunk on the node.
    touched: bool,
    read: u64,
    write: u64,
    footprint: u64,
    busy: f64,
    adjust: AccessAdjust,
    /// Loaded demand latency plus the remote-access penalty, ns.
    lat: f64,
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            touched: false,
            read: 0,
            write: 0,
            footprint: 0,
            busy: 0.0,
            adjust: AccessAdjust::LOCAL,
            lat: 0.0,
        }
    }
}

/// Sets every touched slot's latency for the utilization implied by
/// `phase_time`.
fn set_latencies(slots: &mut [Slot], rows: &[NodeRow], phase_time: f64) {
    for (slot, row) in slots.iter_mut().zip(rows).filter(|(s, _)| s.touched) {
        let util = (slot.busy / phase_time).clamp(0.0, 1.0);
        slot.lat = node_latency_ns(row, util, slot.footprint) + slot.adjust.extra_lat_ns;
    }
}

/// Controller busy time for (r, w) bytes on a node, including
/// memory-side cache filtering and the remote-access bandwidth cap.
fn node_busy_ns(
    row: &NodeRow,
    r: u64,
    w: u64,
    footprint: u64,
    threads: usize,
    adjust: AccessAdjust,
) -> f64 {
    let t = &row.timing;
    let f = adjust.bw_factor;
    match &row.cache {
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

/// Demand-read latency on a node at a utilization level, including
/// memory-side cache effects.
fn node_latency_ns(row: &NodeRow, utilization: f64, footprint: u64) -> f64 {
    let t = &row.timing;
    let base = t.read_latency_at(utilization) + t.ait_latency_penalty(footprint);
    match &row.cache {
        None => base,
        Some(cache) => {
            let h = cache.hit_ratio(footprint);
            h * cache.hit_lat_ns + (1.0 - h) * (base + cache.miss_penalty_ns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::AllocPolicy;
    use hetmem_topology::GIB;

    fn setup() -> (AccessEngine, MemoryManager) {
        let machine = Arc::new(Machine::xeon_1lm_no_snc());
        (AccessEngine::new(machine.clone()), MemoryManager::new(machine))
    }

    fn knl_setup() -> (AccessEngine, MemoryManager) {
        let machine = Arc::new(Machine::knl_snc4_flat());
        (AccessEngine::new(machine.clone()), MemoryManager::new(machine))
    }

    fn stream_phase(region: RegionId, bytes: u64, threads: usize) -> Phase {
        Phase {
            name: "triad".into(),
            accesses: vec![BufferAccess::new(
                region,
                bytes * 2 / 3,
                bytes / 3,
                AccessPattern::Sequential,
            )],
            threads,
            initiator: "0-19".parse().unwrap(),
            compute_ns: 0.0,
        }
    }

    #[test]
    fn stream_dram_hits_calibrated_triad() {
        let (engine, mut mm) = setup();
        let size = 16 * GIB;
        let r = mm.alloc(size, AllocPolicy::Bind(NodeId(0))).unwrap();
        let report = engine.run_phase(&mm, &stream_phase(r, size, 20));
        // Triad throughput = bytes / time; calibrated ≈ 75 GiB/s.
        let gibps = size as f64 / (report.time_ns / 1e9) / GIB as f64;
        assert!((70.0..80.0).contains(&gibps), "Xeon DRAM triad {gibps:.1} GiB/s");
    }

    #[test]
    fn stream_nvdimm_slower_and_footprint_sensitive() {
        let (engine, mut mm) = setup();
        let small = 20 * GIB;
        let r1 = mm.alloc(small, AllocPolicy::Bind(NodeId(2))).unwrap();
        let rep1 = engine.run_phase(&mm, &stream_phase(r1, small, 20));
        let small_gibps = small as f64 / (rep1.time_ns / 1e9) / GIB as f64;
        mm.free(r1);
        let large = 200 * GIB;
        let r2 = mm.alloc(large, AllocPolicy::Bind(NodeId(2))).unwrap();
        let rep2 = engine.run_phase(&mm, &stream_phase(r2, large, 20));
        let large_gibps = large as f64 / (rep2.time_ns / 1e9) / GIB as f64;
        // Paper Table IIIa: ~31.6 small, ~9.5 large.
        assert!((25.0..38.0).contains(&small_gibps), "NVDIMM small triad {small_gibps:.1}");
        assert!((7.0..14.0).contains(&large_gibps), "NVDIMM large triad {large_gibps:.1}");
        assert!(small_gibps > 2.0 * large_gibps);
    }

    #[test]
    fn knl_mcdram_beats_dram_on_bandwidth_only() {
        let (engine, mut mm) = knl_setup();
        let size = 3 * GIB;
        let cluster: Bitmap = "0-15".parse().unwrap();
        let mk_phase = |r| Phase {
            name: "triad".into(),
            accesses: vec![BufferAccess::new(r, size * 2 / 3, size / 3, AccessPattern::Sequential)],
            threads: 16,
            initiator: cluster.clone(),
            compute_ns: 0.0,
        };
        let dram = mm.alloc(size, AllocPolicy::Bind(NodeId(0))).unwrap();
        let hbm = mm.alloc(size, AllocPolicy::Bind(NodeId(4))).unwrap();
        let t_dram = engine.run_phase(&mm, &mk_phase(dram)).time_ns;
        let t_hbm = engine.run_phase(&mm, &mk_phase(hbm)).time_ns;
        let sp = t_dram / t_hbm;
        assert!(sp > 2.5, "MCDRAM triad speedup {sp:.2} should be ~3x");

        // But for pointer chasing, DRAM is no worse (similar latency).
        let mk_chase = |r| Phase {
            name: "chase".into(),
            accesses: vec![BufferAccess::new(r, GIB, 0, AccessPattern::PointerChase)],
            threads: 16,
            initiator: cluster.clone(),
            compute_ns: 0.0,
        };
        let c_dram = engine.run_phase(&mm, &mk_chase(dram)).time_ns;
        let c_hbm = engine.run_phase(&mm, &mk_chase(hbm)).time_ns;
        let ratio = c_hbm / c_dram;
        assert!((0.9..1.3).contains(&ratio), "chase HBM/DRAM ratio {ratio:.2} ≈ 1");
    }

    #[test]
    fn pointer_chase_sees_idle_latency() {
        let (engine, mut mm) = setup();
        let size = GIB;
        let r = mm.alloc(size, AllocPolicy::Bind(NodeId(0))).unwrap();
        let phase = Phase {
            name: "chase".into(),
            accesses: vec![BufferAccess::new(r, size, 0, AccessPattern::PointerChase)],
            threads: 1,
            initiator: "0".parse().unwrap(),
            compute_ns: 0.0,
        };
        let report = engine.run_phase(&mm, &phase);
        // 1 GiB / 64 B = 16M dependent misses; miss ratio ≈ 0.97 at
        // 1 GiB vs 27.5 MB LLC. Per-miss time ≈ idle latency (device
        // not bandwidth-stressed).
        let misses = report.buffers[0].llc_misses as f64;
        let per_miss = report.time_ns / misses;
        assert!((75.0..110.0).contains(&per_miss), "per-miss {per_miss:.0} ns ≈ idle DRAM latency");
    }

    #[test]
    fn nvdimm_chase_much_slower_than_dram() {
        let (engine, mut mm) = setup();
        let size = GIB;
        let d = mm.alloc(size, AllocPolicy::Bind(NodeId(0))).unwrap();
        let n = mm.alloc(size, AllocPolicy::Bind(NodeId(2))).unwrap();
        let mk = |r| Phase {
            name: "chase".into(),
            accesses: vec![BufferAccess::new(r, size, 0, AccessPattern::PointerChase)],
            threads: 1,
            initiator: "0".parse().unwrap(),
            compute_ns: 0.0,
        };
        let td = engine.run_phase(&mm, &mk(d)).time_ns;
        let tn = engine.run_phase(&mm, &mk(n)).time_ns;
        let ratio = tn / td;
        assert!(ratio > 2.5, "NVDIMM/DRAM chase ratio {ratio:.2}");
    }

    #[test]
    fn split_region_bounded_by_slower_node() {
        let (engine, mut mm) = setup();
        // Half DRAM, half NVDIMM.
        let size = 32 * GIB;
        let id = mm.alloc(size, AllocPolicy::Interleave(vec![NodeId(0), NodeId(2)])).unwrap();
        let report = engine.run_phase(&mm, &stream_phase(id, size, 20));
        let gibps = size as f64 / (report.time_ns / 1e9) / GIB as f64;
        // Faster than pure NVDIMM (~31), slower than pure DRAM (~75).
        assert!((32.0..75.0).contains(&gibps), "hybrid triad {gibps:.1}");
        assert_eq!(report.per_node.len(), 2);
    }

    #[test]
    fn compute_overlaps_bandwidth_but_not_stalls() {
        let (engine, mut mm) = setup();
        let size = 8 * GIB;
        let r = mm.alloc(size, AllocPolicy::Bind(NodeId(0))).unwrap();
        let mut phase = stream_phase(r, size, 20);
        let t0 = engine.run_phase(&mm, &phase).time_ns;
        phase.compute_ns = t0 * 0.5; // small compute hides under streaming
        let t1 = engine.run_phase(&mm, &phase).time_ns;
        assert!((t1 - t0).abs() / t0 < 1e-6, "hidden compute should not extend phase");
        phase.compute_ns = t0 * 3.0;
        let t2 = engine.run_phase(&mm, &phase).time_ns;
        assert!(t2 >= 2.9 * t0, "dominant compute should set the pace");
    }

    #[test]
    fn memory_side_cache_accelerates_fitting_sets() {
        let machine = Arc::new(Machine::knl_quadrant_cache());
        let engine = AccessEngine::new(machine.clone());
        let mut mm = MemoryManager::new(machine);
        let all: Bitmap = "0-63".parse().unwrap();
        let mk = |r, bytes| Phase {
            name: "triad".into(),
            accesses: vec![BufferAccess::new(
                r,
                bytes * 2 / 3,
                bytes / 3,
                AccessPattern::Sequential,
            )],
            threads: 64,
            initiator: all.clone(),
            compute_ns: 0.0,
        };
        let small = 8 * GIB; // fits the 16 GiB MCDRAM cache
        let r1 = mm.alloc(small, AllocPolicy::Bind(NodeId(0))).unwrap();
        let g_small =
            small as f64 / (engine.run_phase(&mm, &mk(r1, small)).time_ns / 1e9) / GIB as f64;
        mm.free(r1);
        let big = 64 * GIB; // 4× the cache
        let r2 = mm.alloc(big, AllocPolicy::Bind(NodeId(0))).unwrap();
        let g_big = big as f64 / (engine.run_phase(&mm, &mk(r2, big)).time_ns / 1e9) / GIB as f64;
        assert!(
            g_small > 1.5 * g_big,
            "cache-mode triad should degrade beyond cache capacity: {g_small:.1} vs {g_big:.1}"
        );
    }

    #[test]
    fn counters_are_consistent() {
        let (engine, mut mm) = setup();
        let size = 4 * GIB;
        let r = mm.alloc(size, AllocPolicy::Bind(NodeId(0))).unwrap();
        let phase = Phase {
            name: "scan".into(),
            accesses: vec![BufferAccess::new(r, size, 0, AccessPattern::Sequential)],
            threads: 20,
            initiator: "0-19".parse().unwrap(),
            compute_ns: 0.0,
        };
        let rep = engine.run_phase(&mm, &phase);
        let b = &rep.buffers[0];
        assert_eq!(b.loads, size / LINE);
        assert_eq!(b.stores, 0);
        assert_eq!(b.llc_misses, size / LINE); // ws ≫ LLC ⇒ all miss
        let t = &rep.per_node[&NodeId(0)];
        assert_eq!(t.bytes_read, size);
        assert_eq!(t.bytes_written, 0);
        assert!(t.utilization > 0.9, "streaming should saturate the node");
    }

    #[test]
    fn small_working_set_stays_in_llc() {
        let (engine, mut mm) = setup();
        let size = 8 * 1024 * 1024; // 8 MiB < 27.5 MiB LLC
        let r = mm.alloc(size, AllocPolicy::Bind(NodeId(0))).unwrap();
        let phase = Phase {
            name: "resident".into(),
            accesses: vec![BufferAccess::new(r, 100 * size, 0, AccessPattern::Random)],
            threads: 20,
            initiator: "0-19".parse().unwrap(),
            compute_ns: 0.0,
        };
        let rep = engine.run_phase(&mm, &phase);
        let b = &rep.buffers[0];
        assert!(
            (b.llc_misses as f64) < 0.05 * b.loads as f64,
            "resident set should mostly hit: {} misses / {} loads",
            b.llc_misses,
            b.loads
        );
    }

    #[test]
    fn tlb_pressure_grows_with_working_set() {
        let p = AccessPattern::Random;
        assert_eq!(p.tlb_walk_ns(GIB), 0.0);
        let w17 = p.tlb_walk_ns(17 * GIB);
        let w34 = p.tlb_walk_ns(34 * GIB);
        assert!(w17 > 0.0 && w34 > w17);
        assert_eq!(AccessPattern::Sequential.tlb_walk_ns(100 * GIB), 0.0);
    }

    #[test]
    fn slices_preserve_traffic_and_time() {
        let (engine, mut mm) = setup();
        let size = 8 * GIB;
        let r = mm.alloc(size, AllocPolicy::Bind(NodeId(0))).unwrap();
        let mut phase = stream_phase(r, size + 12345 * LINE, 20);
        phase.compute_ns = 1e6;
        let whole = engine.run_phase(&mm, &phase);
        for n in [1usize, 3, 7, 16] {
            let slices = engine.run_phase_sliced(&mut mm, &phase, n, |_, _, _| {});
            assert_eq!(slices.len(), n);
            let bytes: u64 = slices.iter().map(|s| s.total_bytes()).sum();
            assert_eq!(bytes, whole.total_bytes(), "traffic lost slicing into {n}");
            let time: f64 = slices.iter().map(|s| s.time_ns).sum();
            let rel = (time - whole.time_ns).abs() / whole.time_ns;
            assert!(rel < 0.01, "sliced time drifted {rel:.4} at n={n}");
        }
    }

    #[test]
    fn slice_names_and_bounds() {
        let (_, mut mm) = setup();
        let r = mm.alloc(GIB, AllocPolicy::Bind(NodeId(0))).unwrap();
        let phase = stream_phase(r, GIB, 20);
        assert_eq!(phase.interval_slice(0, 1).name, "triad");
        assert_eq!(phase.interval_slice(2, 4).name, "triad#2");
        assert!((phase.interval_slice(1, 4).compute_ns - phase.compute_ns / 4.0).abs() < 1e-12);
    }

    #[test]
    fn callback_migration_speeds_up_later_slices() {
        let (engine, mut mm) = knl_setup();
        let size = 3 * GIB;
        let r = mm.alloc(size, AllocPolicy::Bind(NodeId(0))).unwrap();
        let cluster: Bitmap = "0-15".parse().unwrap();
        let phase = Phase {
            name: "triad".into(),
            accesses: vec![BufferAccess::new(r, size * 2 / 3, size / 3, AccessPattern::Sequential)],
            threads: 16,
            initiator: cluster,
            compute_ns: 0.0,
        };
        let dram_only = engine.run_phase(&mm, &phase).time_ns;
        let slices = engine.run_phase_sliced(&mut mm, &phase, 4, |mm, _, idx| {
            if idx == 0 {
                mm.migrate(r, NodeId(4)).expect("fits MCDRAM");
            }
        });
        let total: f64 = slices.iter().map(|s| s.time_ns).sum();
        assert!(
            total < dram_only * 0.6,
            "mid-phase promotion should pay: sliced {total:.0} vs DRAM {dram_only:.0}"
        );
        assert!(slices[0].time_ns > 2.0 * slices[1].time_ns);
    }

    #[test]
    #[should_panic(expected = "freed region")]
    fn access_to_freed_region_panics() {
        let (engine, mut mm) = setup();
        let r = mm.alloc(GIB, AllocPolicy::Bind(NodeId(0))).unwrap();
        mm.free(r);
        let phase = Phase {
            name: "uaf".into(),
            accesses: vec![BufferAccess::new(r, GIB, 0, AccessPattern::Sequential)],
            threads: 1,
            initiator: "0".parse().unwrap(),
            compute_ns: 0.0,
        };
        let _ = engine.run_phase(&mm, &phase);
    }
}
