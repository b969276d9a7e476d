//! A small `lstopo`-like CLI over the simulated platforms.
//!
//! ```text
//! lstopo [PLATFORM] [--memattrs] [--summary] [--export] [--input FILE]
//! ```
//!
//! Platforms: the simulated ones (`Machine::PLATFORMS`, default
//! knl-flat), plus knl-hybrid, which has a topology for Fig. 1 but no
//! timing calibration.
//!
//! An unknown option, a second platform name or `--input` without a
//! file exits 2 with a usage hint; an unknown platform name exits 1.

use hetmem_core::{discovery, render_memattrs};
use hetmem_memsim::Machine;
use hetmem_topology::Topology;
use std::sync::Arc;

fn topology_by_name(name: &str) -> Option<Topology> {
    if name == "knl-hybrid" {
        return Some(hetmem_topology::platforms::knl_snc4_hybrid50());
    }
    Machine::by_name(name).map(|m| m.topology().clone())
}

/// Refuses the command line: exit 2 with `why` and a usage hint.
fn refuse(why: &str) -> ! {
    eprintln!("lstopo: {why} (try --help)");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut platform: Option<String> = None;
    let mut memattrs = false;
    let mut summary = false;
    let mut export = false;
    let mut input: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--memattrs" => memattrs = true,
            "--summary" => summary = true,
            "--export" => export = true,
            "--input" => match it.next() {
                Some(path) => input = Some(path.clone()),
                None => refuse("--input needs a file argument"),
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: lstopo [PLATFORM] [--memattrs] [--summary] [--export] [--input FILE]"
                );
                eprintln!("platforms: {}, knl-hybrid", Machine::platform_names());
                return;
            }
            other if other.starts_with('-') => refuse(&format!("unknown option {other:?}")),
            other => {
                if let Some(first) = platform.replace(other.to_string()) {
                    refuse(&format!("one platform, not both {first:?} and {other:?}"));
                }
            }
        }
    }
    let platform = platform.unwrap_or_else(|| "knl-flat".to_string());

    let topo = match input {
        Some(path) => {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("lstopo: cannot read {path}: {e}");
                std::process::exit(1);
            });
            Topology::import(&text).unwrap_or_else(|e| {
                eprintln!("lstopo: cannot import {path}: {e}");
                std::process::exit(1);
            })
        }
        None => topology_by_name(&platform).unwrap_or_else(|| {
            eprintln!("lstopo: unknown platform {platform:?} (try --help)");
            std::process::exit(1);
        }),
    };

    if export {
        print!("{}", topo.export());
        return;
    }
    if summary {
        print!("{}", topo.render_numa_summary());
    } else {
        print!("{}", topo.render());
    }
    if memattrs {
        match Machine::by_name(&platform) {
            Some(machine) => {
                let machine = Arc::new(machine);
                let attrs = discovery::from_firmware(&machine, true).expect("firmware discovery");
                println!();
                print!("{}", render_memattrs(&attrs));
            }
            None => eprintln!("lstopo: --memattrs needs a calibrated platform (not {platform})"),
        }
    }
}
