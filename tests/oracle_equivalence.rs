//! The central invariant: the out-of-order simulator's committed
//! architectural state is bit-exact against the in-order oracle — on every
//! machine model, for every synthetic benchmark and kernel.

use ftsim::core::{MachineConfig, OracleMode, Processor, SimResult, Simulator};
use ftsim::faults::FaultInjector;
use ftsim::isa::{Emulator, Program};
use ftsim::mem::SparseMemory;
use ftsim::workloads::{dot_product, fibonacci, pointer_chase, spec_profiles};
use std::sync::Arc;

fn run_checked(config: MachineConfig, program: &Program, name: &str) -> SimResult {
    Simulator::builder()
        .config(config)
        .program(program)
        .oracle(OracleMode::Final)
        .run()
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn all_benchmarks_match_oracle_on_all_models() {
    for p in spec_profiles() {
        let program = p.program(4); // ~1200 dynamic instructions, halts
        for config in [
            MachineConfig::ss1(),
            MachineConfig::ss2(),
            MachineConfig::static2(),
        ] {
            let name = format!("{} on {}", p.name, config.name);
            let r = run_checked(config, &program, &name);
            assert!(r.halted, "{name} did not halt");
        }
    }
}

#[test]
fn shared_image_machines_equal_load_data_memory() {
    // gcc's 512 KB image: the processor and the oracle start from the
    // program's shared pages, which must hold exactly what loading the
    // data byte for byte produces, and digest the same.
    let gcc = spec_profiles()
        .into_iter()
        .find(|p| p.name == "gcc")
        .expect("gcc profile");
    let program = Arc::new(gcc.program_for_instructions(1_000));
    let mut loaded = SparseMemory::new();
    program.load_data(&mut loaded);
    let proc = Processor::with_shared_program(
        MachineConfig::ss2(),
        Arc::clone(&program),
        FaultInjector::none(),
    );
    let emu = Emulator::with_shared_program(Arc::clone(&program));
    for mem in [proc.mem(), emu.mem()] {
        assert_eq!(mem.page_count(), loaded.page_count());
        assert!(mem.diff(&loaded, 4).is_empty());
        for hash in [0, 0xcbf2_9ce4_8422_2325] {
            assert_eq!(mem.content_digest(hash), loaded.content_digest(hash));
            assert_eq!(
                mem.content_digest_with(hash, program.image()),
                loaded.content_digest(hash)
            );
        }
    }
}

#[test]
fn r3_models_match_oracle() {
    for p in spec_profiles().into_iter().take(4) {
        let program = p.program(3);
        for config in [MachineConfig::ss3(), MachineConfig::ss3_majority()] {
            let name = format!("{} on {}", p.name, config.name);
            run_checked(config, &program, &name);
        }
    }
}

#[test]
fn kernels_match_oracle_on_every_model() {
    let kernels = [
        ("dot_product", dot_product(48)),
        ("fibonacci", fibonacci(60)),
        ("pointer_chase", pointer_chase(64, 500)),
    ];
    for (kname, program) in &kernels {
        for config in [
            MachineConfig::ss1(),
            MachineConfig::ss2(),
            MachineConfig::ss3_majority(),
            MachineConfig::static2(),
        ] {
            let name = format!("{kname} on {}", config.name);
            run_checked(config, program, &name);
        }
    }
}

#[test]
fn equivalence_holds_under_resource_scaling() {
    use ftsim::core::Scale;
    let p = &spec_profiles()[4]; // ijpeg
    let program = p.program(3);
    for scale in [Scale::Half, Scale::Two, Scale::Infinite] {
        for config in [
            MachineConfig::ss1().with_fu_scale(scale),
            MachineConfig::ss1().with_ruu_scale(scale),
            MachineConfig::ss2().with_ruu_scale(scale),
        ] {
            run_checked(config, &program, &format!("scale {scale:?}"));
        }
    }
}

#[test]
fn retired_counts_are_model_independent() {
    let p = &spec_profiles()[2]; // go
    let program = p.program(3);
    let mut counts = Vec::new();
    for config in [
        MachineConfig::ss1(),
        MachineConfig::ss2(),
        MachineConfig::ss3(),
        MachineConfig::static2(),
    ] {
        let name = config.name.clone();
        let r = run_checked(config, &program, &name);
        counts.push(r.retired_instructions);
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "architectural instruction counts diverged: {counts:?}"
    );
}
