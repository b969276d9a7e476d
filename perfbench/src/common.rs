//! Shared pieces: the seeded generator, percentile statistics, process
//! gauges, machine contexts and the result type every workload fills.

use hetmem_alloc::HetAllocator;
use hetmem_core::{attr, discovery, MemAttrs, NodeId};
use hetmem_memsim::{AccessEngine, Machine, MemoryManager};
use hetmem_topology::MemoryKind;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Whether this is the traced run (per-layer metrics, spans file).
    pub trace: bool,
    /// Where spans and sockets go (inside the checkout).
    pub out_dir: PathBuf,
}

/// SplitMix64: the benchmark's own input generator. The program under
/// test only ever receives what this produces.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// An independent stream for worker `k`.
    pub fn fork(&self, k: u64) -> Rng {
        let mut r = Rng(self.0.wrapping_add(k.wrapping_mul(0xd1b5_4a32_d192_ed03)));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Latency samples in microseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push_us(&mut self, us: f64) {
        self.0.push(us);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile, `p` in 0..=100; 0 for no samples.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

/// Sub-buckets per power of two in a [`Histogram`]: values are kept
/// to within 1/128 of themselves.
const SUB_BITS: u32 = 7;

/// A log-linear latency histogram in nanoseconds. Its size depends on
/// the largest value seen, not on the number of samples, so a faster
/// program does not grow the benchmark's own memory.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Histogram {
    fn bucket(ns: u64) -> usize {
        if ns < 1 << SUB_BITS {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        (((shift + 1) as usize) << SUB_BITS) + (ns >> shift) as usize - (1 << SUB_BITS)
    }

    /// The lowest value and the width of bucket `b`.
    fn range(b: usize) -> (f64, f64) {
        if b < 1 << SUB_BITS {
            return (b as f64, 1.0);
        }
        let shift = (b >> SUB_BITS) - 1;
        let mantissa = (b & ((1 << SUB_BITS) - 1)) + (1 << SUB_BITS);
        (((mantissa as u64) << shift) as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, d: Duration) {
        let b = Histogram::bucket(d.as_nanos().min(u64::MAX as u128) as u64);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
    }

    pub fn absorb(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile `p` (0..=100) in microseconds,
    /// interpolated within its bucket; 0 when empty.
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut below = 0u64;
        for (b, &n) in self.counts.iter().enumerate() {
            let n = n as u64;
            if below + n >= rank {
                let (lo, width) = Histogram::range(b);
                let within = (rank - below) as f64 / n as f64;
                return (lo + width * within) / 1e3;
            }
            below += n;
        }
        unreachable!("rank {rank} within {} samples", self.total)
    }
}

/// Slices a measured window is cut into.
const SLICES: usize = 60;

/// How often each measuring thread times the reference kernel.
const REFERENCE_EVERY: Duration = Duration::from_millis(50);

/// Nominal time of [`reference_ns`]: figures are scaled to a host that
/// runs the kernel in this long.
const REFERENCE_NS: f64 = 30_000.0;

/// A fixed computation that runs none of the program's code: 512
/// inserts and removes on a standard-library `BTreeMap`, the best of
/// five repetitions. Its time tracks the speed the host gives the
/// calling thread at that moment.
fn reference_ns() -> f64 {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut map = BTreeMap::new();
            let mut rng = Rng::new(0x5eed);
            for i in 0..512u64 {
                map.insert(rng.next_u64() % 1024, i);
                if i % 2 == 1 {
                    map.remove(&(rng.next_u64() % 1024));
                }
            }
            std::hint::black_box(&map);
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// How many times slower than nominal the host runs the calling thread
/// right now.
fn host_slowdown() -> f64 {
    reference_ns() / REFERENCE_NS
}

/// A set-up time scaled to the nominal host speed, measured right
/// after the set-up on the same thread.
pub fn scaled(took: Duration) -> Duration {
    took.div_f64(host_slowdown())
}

/// Throughput and latency of a measured window, per slice.
///
/// On a shared host the speed the machine gives a thread drifts by tens
/// of percent, in episodes from seconds to minutes, often without any
/// steal being reported. So every measuring thread times a fixed
/// reference kernel ([`reference_ns`]) every [`REFERENCE_EVERY`], and
/// each slice's figures are scaled by its median kernel time to a
/// nominal host ([`REFERENCE_NS`]). Each reported figure is then the
/// median over [`SLICES`] equal slices, which holds still while fewer
/// than half of the slices are disturbed and moves in full when a
/// change slows every slice. Slices in which the hypervisor stole more
/// CPU time than in the median slice (`steal` in `/proc/stat`) are set
/// aside first. Events outside the window are ignored; the default
/// window ignores everything (warm-up).
#[derive(Debug, Clone, Default)]
pub struct Window {
    start: Option<Instant>,
    slice: Duration,
    ops: Vec<u64>,
    latency: Vec<Histogram>,
    /// CPU steal per slice, clock ticks (all zero when unknown).
    steal: Vec<u64>,
    /// Reference kernel times per slice, ns.
    reference: Vec<Samples>,
    last_reference: Option<Instant>,
}

impl Window {
    pub fn new(start: Instant, len: Duration) -> Window {
        Window {
            start: Some(start),
            slice: len / SLICES as u32,
            ops: vec![0; SLICES],
            latency: vec![Histogram::default(); SLICES],
            steal: vec![0; SLICES],
            reference: vec![Samples::default(); SLICES],
            last_reference: None,
        }
    }

    /// Reads the host's CPU steal at every slice boundary, from a
    /// thread that sleeps in between. Join it and pass the readings to
    /// [`Window::set_steal`].
    pub fn sample_steal(&self) -> std::thread::JoinHandle<Vec<u64>> {
        let (start, slice) = (self.start.expect("a measured window"), self.slice);
        std::thread::spawn(move || {
            (0..=SLICES as u32)
                .map(|i| {
                    let at = start + slice * i;
                    if let Some(wait) = at.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    steal_ticks()
                })
                .collect()
        })
    }

    /// Per-slice steal from the readings of [`Window::sample_steal`].
    pub fn set_steal(&mut self, readings: Vec<u64>) {
        self.steal = readings.windows(2).map(|w| w[1].saturating_sub(w[0])).collect();
        self.steal.resize(SLICES, 0);
    }

    fn slot(&self, at: Instant) -> Option<usize> {
        let since = at.checked_duration_since(self.start?)?;
        let i = (since.as_nanos() / self.slice.as_nanos().max(1)) as usize;
        (i < SLICES).then_some(i)
    }

    /// One operation completed at `at`; times the reference kernel when
    /// it is due.
    pub fn op(&mut self, at: Instant) {
        let Some(i) = self.slot(at) else { return };
        self.ops[i] += 1;
        if self.last_reference.map_or(true, |t| at.duration_since(t) >= REFERENCE_EVERY) {
            self.reference[i].push_us(reference_ns());
            self.last_reference = Some(Instant::now());
        }
    }

    /// One timed allocation that completed at `at`.
    pub fn latency(&mut self, at: Instant, took: Duration) {
        if let Some(i) = self.slot(at) {
            self.latency[i].record(took);
        }
    }

    pub fn absorb(&mut self, other: Window) {
        if self.start.is_none() {
            *self = other;
            return;
        }
        for (i, n) in other.ops.into_iter().enumerate() {
            self.ops[i] += n;
        }
        for (mine, theirs) in self.latency.iter_mut().zip(&other.latency) {
            mine.absorb(theirs);
        }
        for (mine, theirs) in self.reference.iter_mut().zip(other.reference) {
            mine.extend(theirs);
        }
    }

    /// Median of a per-slice figure, given each slice's host slowdown,
    /// over the slices with a kernel timing whose steal is at most the
    /// median steal.
    fn over_slices(&self, f: impl Fn(usize, f64) -> f64) -> f64 {
        let mut steal = self.steal.clone();
        steal.sort_unstable();
        let calm = steal.get(steal.len() / 2).copied().unwrap_or(0);
        let mut s = Samples::default();
        for i in 0..self.ops.len() {
            if self.steal[i] <= calm && self.reference[i].len() > 0 {
                s.push_us(f(i, self.reference[i].median() / REFERENCE_NS));
            }
        }
        s.median()
    }

    /// Operations per second at the nominal host speed.
    pub fn ops_per_s(&self) -> f64 {
        let secs = self.slice.as_secs_f64();
        self.over_slices(|i, slowdown| self.ops[i] as f64 / secs * slowdown)
    }

    /// Latency percentile `p` at the nominal host speed, us.
    pub fn latency_us(&self, p: f64) -> f64 {
        self.over_slices(|i, slowdown| self.latency[i].percentile_us(p) / slowdown)
    }

    /// The same figures without the host-speed scaling, for the report.
    pub fn unscaled(&self) -> String {
        let secs = self.slice.as_secs_f64();
        let ops = self.over_slices(|i, _| self.ops[i] as f64 / secs);
        let p50 = self.over_slices(|i, _| self.latency[i].percentile_us(50.0));
        let p99 = self.over_slices(|i, _| self.latency[i].percentile_us(99.0));
        format!("ops/s {ops:.0}, alloc p50 {p50:.2} us, p99 {p99:.2} us")
    }

    /// Latency samples in the whole window.
    pub fn samples(&self) -> u64 {
        self.latency.iter().map(Histogram::len).sum()
    }

    /// Operations, p99 latency, steal and reference kernel time per
    /// slice, for the report.
    pub fn slices(&self) -> String {
        let cells: Vec<String> = (0..self.ops.len())
            .map(|i| {
                let p99 = self.latency[i].percentile_us(99.0);
                let kernel = self.reference[i].median() / 1e3;
                format!("{}/{p99:.0}/{}/{kernel:.0}", self.ops[i], self.steal[i])
            })
            .collect();
        format!("ops/p99us/steal/kernel-us per slice: {}", cells.join(" "))
    }
}

/// Total CPU steal of the host so far, clock ticks (0 when unknown).
fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Median of a few durations, in seconds.
pub fn median_secs(durations: &[Duration]) -> f64 {
    let mut s = Samples::default();
    for d in durations {
        s.push_us(d.as_secs_f64());
    }
    s.median()
}

/// Open file descriptors of this process.
pub fn open_fds() -> u64 {
    std::fs::read_dir("/proc/self/fd").map(|d| d.count() as u64).unwrap_or(0)
}

/// Peak resident set size (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One simulated machine with its discovered attributes.
pub struct Ctx {
    pub machine: Arc<Machine>,
    pub attrs: Arc<MemAttrs>,
    pub engine: AccessEngine,
    /// The kind the bandwidth ranking puts first (the "fast tier").
    pub fast_kind: MemoryKind,
    /// When firmware discovery started and ended.
    pub discovery: (Instant, Instant),
}

impl Ctx {
    pub fn new(machine: Machine) -> Ctx {
        let machine = Arc::new(machine);
        let t0 = Instant::now();
        let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("firmware discovery"));
        let discovery = (t0, Instant::now());
        let fast_kind = attrs
            .rank_targets(attr::BANDWIDTH, machine.topology().machine_cpuset())
            .ok()
            .and_then(|ranked| ranked.first().and_then(|tv| machine.topology().node_kind(tv.node)))
            .unwrap_or(MemoryKind::Dram);
        let engine = AccessEngine::new(machine.clone());
        Ctx { machine, attrs, engine, fast_kind, discovery }
    }

    pub fn knl() -> Ctx {
        Ctx::new(Machine::knl_snc4_flat())
    }

    pub fn xeon() -> Ctx {
        Ctx::new(Machine::xeon_1lm_no_snc())
    }

    /// A fresh allocator with the machine's full capacity.
    pub fn allocator(&self) -> HetAllocator {
        HetAllocator::new(self.attrs.clone(), MemoryManager::new(self.machine.clone()))
    }

    /// Bytes of `placement` that sit on the fast tier.
    pub fn fast_bytes(&self, placement: &[(NodeId, u64)]) -> u64 {
        placement
            .iter()
            .filter(|(n, _)| self.machine.topology().node_kind(*n) == Some(self.fast_kind))
            .map(|&(_, b)| b)
            .sum()
    }
}

/// A named value with its unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// One correctness check and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
        Check { name: name.into(), ok, detail: detail.into() }
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed (transport errors, panics, unexpected
    /// error codes, wrong outputs). Admission refusals are outcomes.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Figures that are not in BENCHMARK.json's metric lists (printed
    /// for people, never in the JSON line).
    pub extra: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    pub fn note(&mut self, name: &str, value: impl std::fmt::Display) {
        self.extra.push((name.to_string(), value.to_string()));
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check::new(name, ok, detail));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Failed operations plus failed checks, capped at `attempted`.
    pub fn failed_total(&self) -> u64 {
        let bad_checks = self.checks.iter().filter(|c| !c.ok).count() as u64;
        (self.failed + bad_checks).min(self.attempted.max(1))
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
