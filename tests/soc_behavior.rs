//! SoC-level behavioural tests: interrupt-driven waits, the standard
//! NVDLA validation traces on real firmware, and bus-level properties
//! observable from the top.

use rvnv_compiler::codegen::{CodegenOptions, WaitMode};
use rvnv_compiler::traces;
use rvnv_compiler::{compile, CompileOptions};
use rvnv_nn::{zoo, Tensor};
use rvnv_soc::firmware::Firmware;
use rvnv_soc::soc::{Soc, SocConfig};

fn wfi_options() -> CodegenOptions {
    CodegenOptions {
        wait_mode: WaitMode::Wfi,
        ..CodegenOptions::default()
    }
}

#[test]
fn wfi_firmware_produces_identical_results_with_fewer_instructions() {
    let net = zoo::lenet5(4);
    let artifacts = compile(&net, &CompileOptions::int8()).expect("compile");
    let input = Tensor::random(net.input_shape(), 9);
    let input_bytes = artifacts.quantize_input(&input);

    let mut soc = Soc::new(SocConfig::zcu102_nv_small());
    let poll_fw = Firmware::build(&artifacts).expect("poll fw");
    let poll = soc
        .run_firmware(&artifacts, &input_bytes, &poll_fw)
        .expect("poll run");

    let wfi_fw = Firmware::build_with(&artifacts, wfi_options()).expect("wfi fw");
    let wfi = soc
        .run_firmware(&artifacts, &input_bytes, &wfi_fw)
        .expect("wfi run");

    assert_eq!(poll.raw_output, wfi.raw_output, "same functional result");
    assert!(
        wfi.instructions * 5 < poll.instructions,
        "wfi retires far fewer instructions: {} vs {}",
        wfi.instructions,
        poll.instructions
    );
    // Total latency is dominated by the accelerator either way.
    let ratio = wfi.cycles as f64 / poll.cycles as f64;
    assert!(
        (0.8..1.2).contains(&ratio),
        "latency comparable: wfi {} vs poll {}",
        wfi.cycles,
        poll.cycles
    );
}

#[test]
fn wfi_with_nothing_outstanding_is_a_deadlock_error() {
    // Firmware that sleeps with no NVDLA operation in flight.
    let asm = "wfi\nebreak";
    let image = rvnv_riscv::assemble(asm).expect("asm");
    let net = zoo::lenet5(1);
    let artifacts = compile(&net, &CompileOptions::int8()).expect("compile");
    let fw = Firmware {
        assembly: asm.to_string(),
        image,
    };
    let mut soc = Soc::new(SocConfig::zcu102_nv_small());
    let input = vec![0u8; artifacts.input_len];
    let e = soc.run_firmware(&artifacts, &input, &fw).unwrap_err();
    assert!(e.to_string().contains("wfi"), "{e}");
}

/// Run a standard validation trace as bare-metal firmware on the SoC.
fn run_trace_on_soc(trace: &traces::TestTrace) {
    let asm = rvnv_compiler::codegen::generate_assembly(&trace.commands);
    let image = rvnv_riscv::assemble(&asm)
        .unwrap_or_else(|e| panic!("{}: assembly failed: {e}", trace.name));
    let fw = Firmware {
        assembly: asm,
        image,
    };
    let mut soc = Soc::new(SocConfig::zcu102_nv_small());
    let result = soc
        .run_firmware(&trace.artifacts(), &[], &fw)
        .unwrap_or_else(|e| panic!("{}: {e}", trace.name));
    for (addr, bytes) in &trace.expect {
        let got = soc.dram_peek(*addr, bytes.len());
        assert_eq!(&got, bytes, "{}: dram at {addr:#x}", trace.name);
    }
    assert!(result.cycles > 0);
}

#[test]
fn sanity_trace_runs_as_firmware() {
    run_trace_on_soc(&traces::sanity());
}

#[test]
fn convolution_trace_runs_as_firmware() {
    run_trace_on_soc(&traces::convolution());
}

#[test]
fn memory_trace_runs_as_firmware() {
    run_trace_on_soc(&traces::memory());
}

#[test]
fn per_op_timeline_is_ordered_and_complete() {
    let net = zoo::lenet5(2);
    let artifacts = compile(&net, &CompileOptions::int8()).expect("compile");
    let mut soc = Soc::new(SocConfig::zcu102_nv_small());
    let input = Tensor::random(net.input_shape(), 3);
    let result = soc.run_inference(&artifacts, &input).expect("run");
    assert_eq!(result.timeline.len(), artifacts.ops.len());
    let mut prev_done = 0;
    for op in &result.timeline {
        assert!(op.done > op.start, "{op:?}");
        assert!(op.start >= prev_done, "ops execute serially: {op:?}");
        prev_done = op.done;
    }
    assert!(result.timeline.last().expect("ops").done <= result.cycles);
}

#[test]
fn higher_clock_ratio_increases_memory_stalls() {
    // Fig. 4: the SoC can run at 300 MHz against 100 MHz DDR4; memory
    // stalls (in SoC cycles) grow with the ratio.
    let net = zoo::lenet5(1);
    let artifacts = compile(&net, &CompileOptions::int8()).expect("compile");
    let input = Tensor::random(net.input_shape(), 2);
    let run_at = |soc_hz: u64| {
        let mut cfg = SocConfig::zcu102_timing_only();
        cfg.soc_hz = soc_hz;
        let mut soc = Soc::new(cfg);
        soc.run_inference(&artifacts, &input).expect("run").cycles
    };
    let cycles_100 = run_at(100_000_000);
    let cycles_300 = run_at(300_000_000);
    assert!(
        cycles_300 > cycles_100 * 2,
        "at 3x clock the same inference takes >2x the cycles \
         (memory-bound): {cycles_300} vs {cycles_100}"
    );
    // But wall-clock latency still improves (or at least does not
    // degrade much) with the faster clock.
    let ms_100 = cycles_100 as f64 / 100e3;
    let ms_300 = cycles_300 as f64 / 300e3;
    assert!(ms_300 < ms_100 * 1.4, "{ms_300:.2} vs {ms_100:.2}");
}
