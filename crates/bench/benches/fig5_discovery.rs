//! Criterion bench for Fig. 5 / Table I: attribute discovery.
//!
//! Measures the native firmware path (HMAT/SRAT binary encode +
//! decode + sysfs reduction + registry fill), the benchmark path, and
//! the hot query functions of the memattrs API (Fig. 4), with the
//! ranking both memoized and cold.

use criterion::{criterion_group, criterion_main, Criterion};
use hetmem_bench::Ctx;
use hetmem_core::{attr, discovery, render_fig5};
use hetmem_membench::{feed_attrs, BenchOptions};
use hetmem_memsim::Machine;
use std::sync::Arc;

fn firmware_discovery(c: &mut Criterion) {
    let machine = Arc::new(Machine::xeon_1lm_snc());
    c.bench_function("fig5_firmware_discovery_local_only", |b| {
        b.iter(|| discovery::from_firmware(&machine, true).expect("discovery").node_count())
    });
    c.bench_function("fig5_firmware_discovery_full_matrix", |b| {
        b.iter(|| discovery::from_firmware(&machine, false).expect("discovery").node_count())
    });
    c.bench_function("fig5_hmat_encode_decode", |b| {
        let hmat = machine.hmat(true);
        b.iter(|| {
            let bin = hetmem_hmat::encode_hmat(&hmat);
            hetmem_hmat::decode_hmat(&bin).expect("roundtrip").localities.len()
        })
    });
    c.bench_function("fig5_render_memattrs", |b| {
        let attrs = discovery::from_firmware(&machine, true).expect("discovery");
        b.iter(|| render_fig5(&attrs).len())
    });
}

fn benchmark_discovery(c: &mut Criterion) {
    let machine = Arc::new(Machine::knl_snc4_flat());
    c.bench_function("table1_benchmark_discovery_knl", |b| {
        b.iter(|| feed_attrs(&machine, &BenchOptions::default()).expect("bench").node_count())
    });
}

fn query_api(c: &mut Criterion) {
    let ctx = Ctx::knl();
    let cluster = "0-15".parse().unwrap();
    c.bench_function("fig4_get_best_target", |b| {
        b.iter(|| ctx.attrs.get_best_target(attr::BANDWIDTH, &cluster).expect("target").0)
    });
    c.bench_function("fig4_get_value", |b| {
        b.iter(|| {
            ctx.attrs
                .get_value(attr::LATENCY, hetmem_topology::NodeId(0), Some(&cluster))
                .expect("known attr")
        })
    });
    // A memo hit: the registry keeps each ranking after its first query.
    c.bench_function("fig4_rank_local_targets", |b| {
        b.iter(|| ctx.attrs.rank_local_targets(attr::CAPACITY, &cluster).expect("rank").len())
    });
    // The ranking walk itself: a clone starts with an empty memo, so
    // each iteration clones the registry and ranks uncached.
    c.bench_function("fig4_rank_local_targets_cold", |b| {
        b.iter(|| {
            let cold = ctx.attrs.as_ref().clone();
            cold.rank_local_targets(attr::CAPACITY, &cluster).expect("rank").len()
        })
    });
    c.bench_function("fig4_local_numanode_objs", |b| {
        b.iter(|| {
            ctx.machine
                .topology()
                .local_numa_nodes(&cluster, hetmem_topology::LocalityFlags::branch())
                .len()
        })
    });
}

criterion_group!(benches, firmware_discovery, benchmark_discovery, query_api);
criterion_main!(benches);
