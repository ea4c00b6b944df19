//! Quickstart for the resource topology of a `MachineConfig`: chain the
//! memory-controller queue behind the bus (`ngmp_two_level`), watch
//! both contention points in the per-resource counters, and derive a
//! bound whose per-resource contributions sum to the total.
//!
//! ```sh
//! cargo run --release --example topology_two_level
//! ```
//!
//! The reference NGMP has *two* arbitrated contention points on the
//! request path (§5.1: "contention only happens on the bus and the
//! memory controller"). `MachineConfig::ngmp_ref()` models only the bus;
//! this example builds the two-level topology, where every L2 miss
//! arbitrates twice: once for the bus, once for controller admission.

use rrb::methodology::{derive_ubd, MethodologyConfig};
use rrb::report;
use rrb_sim::{CoreId, Instr, Machine, MachineConfig, McQueueConfig, Program, ResourceId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The ngmp_ref bus with the memory controller's FIFO admission
    //    queue chained behind it (`topology.mc`).
    let mut machine = Machine::new(MachineConfig::ngmp_two_level())?;

    println!("request-path topology and its Eq. 1 decomposition:");
    for term in machine.config().ubd_breakdown() {
        println!("  {:<4} ubd contribution = {} cycles", term.resource, term.ubd);
    }
    println!("  total ubd            = {} cycles\n", machine.config().ubd());

    // 2. Drive two cores through working sets larger than their L2
    //    partitions, so every load misses and exercises *both* resources.
    let miss_body = |core: usize| -> Vec<Instr> {
        let base = 0x4000_0000 + 0x0400_0000 * core as u64;
        (0..64).map(|i| Instr::load(base + i * 4096)).collect()
    };
    for i in 0..2 {
        machine.load_program(CoreId::new(i), Program::endless(miss_body(i)));
    }
    let summary = machine.run_for(30_000);

    // 3. Each resource owns its own counters, so the two contention
    //    points are observable independently.
    println!("after 30k cycles of two L2-missing streams:");
    println!("  bus utilisation      = {:.3}", summary.bus_utilization);
    println!("  mc  utilisation      = {:.3}", summary.mc_utilization.unwrap_or(0.0));
    for i in 0..2 {
        let pmc = machine.pmc().core(CoreId::new(i));
        println!(
            "  core {i}: max gamma bus = {:?}, max gamma mc = {:?}",
            pmc.max_gamma(),
            pmc.max_gamma_at(ResourceId::MEMORY_CONTROLLER)
        );
    }

    // 4. The measurement-based methodology reports per-resource
    //    contributions that sum to the total it derives.
    let mut platform = MachineConfig::toy(4, 2);
    platform.topology.mc =
        Some(McQueueConfig { service_occupancy: 2, arbiter: rrb_sim::ArbiterKind::Fifo });
    println!("\nderiving the bound on a two-level toy platform...\n");
    let derivation = derive_ubd(&platform, &MethodologyConfig::fast())?;
    print!("{}", report::render_derivation(&derivation));
    assert_eq!(
        derivation.resource_contributions.iter().map(|c| c.ubd_m).sum::<u64>(),
        derivation.total_ubd_m(),
        "per-resource contributions must sum to the reported total"
    );
    Ok(())
}
