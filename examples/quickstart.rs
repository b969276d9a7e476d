//! Quickstart: discover a machine's memory attributes and allocate by
//! *requirement*, not by technology name.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use hetmem::alloc::{AllocRequest, Fallback, HetAllocator};
use hetmem::core::{attr, discovery};
use hetmem::memsim::{Machine, MemoryManager};
use hetmem::telemetry::TelemetrySink;
use hetmem::Bitmap;
use std::sync::Arc;

fn main() {
    // A simulated KNL in SNC-4 Flat mode: 4 clusters, each with 24 GB
    // of DRAM and 4 GB of MCDRAM.
    let machine = Arc::new(Machine::knl_snc4_flat());
    println!("{}", machine.topology().render_numa_summary());

    // 1. Discover attributes from the (simulated) firmware tables.
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("firmware discovery"));

    // 2. Our threads run on cluster 0.
    let cluster0: Bitmap = "0-15".parse().expect("cpuset");

    // 3. Ask questions instead of hardcoding memory kinds.
    let (bw_node, bw) = attrs.get_best_target(attr::BANDWIDTH, &cluster0).expect("values");
    let (lat_node, lat) = attrs.get_best_target(attr::LATENCY, &cluster0).expect("values");
    let (cap_node, cap) = attrs.get_best_target(attr::CAPACITY, &cluster0).expect("values");
    println!("best bandwidth target: {bw_node} ({bw} MB/s)");
    println!("best latency target:   {lat_node} ({lat} ns)");
    println!("best capacity target:  {cap_node} ({} GiB)", cap >> 30);

    // 4. Allocate through the heterogeneous allocator: one request
    //    builder, one criterion, ranked fallback when the best target
    //    is full — with every decision recorded.
    let mut allocator = HetAllocator::new(attrs, MemoryManager::new(machine.clone()));
    let sink = TelemetrySink::new();
    allocator.set_sink(sink.clone());
    let hot = allocator
        .alloc(
            &AllocRequest::new(1 << 30)
                .criterion(attr::BANDWIDTH)
                .initiator(&cluster0)
                .fallback(Fallback::NextTarget)
                .label("hot"),
        )
        .expect("1 GiB fits MCDRAM");
    let big = allocator
        .alloc(
            &AllocRequest::new(10 << 30)
                .criterion(attr::CAPACITY)
                .initiator(&cluster0)
                .fallback(Fallback::NextTarget)
                .label("big"),
        )
        .expect("10 GiB fits DRAM");
    for (label, id) in [("hot (bandwidth)", hot), ("big (capacity)", big)] {
        let region = allocator.memory().region(id).expect("live");
        let node = region.single_node().expect("single node");
        println!(
            "{label:<18} -> {node} [{}]",
            machine.topology().node_kind(node).expect("known").subtype()
        );
    }

    // 5. The telemetry subsystem saw every decision — drained from
    //    the per-thread buffers, with exact loss accounting.
    println!();
    let (_events, summary) = sink.collector().summarize();
    print!("{}", summary.render());
}
