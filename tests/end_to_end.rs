//! Cross-crate integration tests: the complete bare-metal flow from a
//! layer graph to verified SoC output.

use rvnv_bus::MasterId;
use rvnv_compiler::codegen::{generate_machine_code, CodegenOptions, WaitMode};
use rvnv_compiler::trace::{parse_config_file, write_config_file};
use rvnv_compiler::{compile, CompileOptions, VirtualPlatform};
use rvnv_nn::exec::Executor;
use rvnv_nn::graph::{Network, Op, PoolKind};
use rvnv_nn::tensor::{Shape, WeightTensor};
use rvnv_nn::{zoo, Tensor};
use rvnv_nvdla::regs::Block;
use rvnv_soc::firmware::Firmware;
use rvnv_soc::paper::{self, Table, Unit};
use rvnv_soc::soc::{Soc, SocConfig};

/// A network exercising every NVDLA engine and compiler path: fused
/// conv+BN+ReLU, a residual eltwise, max pooling, concat with both
/// redirection and a RUBIK copy, LRN (CDP), average pooling, a fully
/// connected layer and a CPU-side softmax.
fn kitchen_sink() -> Network {
    let mut net = Network::new("kitchen-sink", Shape::new(4, 8, 8));
    let x = net.input();
    let conv = |o: usize, i: usize, k: usize, pad: usize, seed: u64| {
        Op::Conv2d(rvnv_nn::graph::ConvParams {
            weights: WeightTensor::random(o, i, k, k, seed),
            bias: vec![0.01; o],
            stride: 1,
            pad,
            groups: 1,
        })
    };
    let c1 = net.add("c1", conv(8, 4, 3, 1, 1), &[x]).unwrap();
    let bn1 = net
        .add(
            "bn1",
            Op::BatchNorm {
                scale: vec![0.9; 8],
                shift: vec![0.05; 8],
            },
            &[c1],
        )
        .unwrap();
    let r1 = net.add("r1", Op::Relu, &[bn1]).unwrap();
    // Residual block on r1.
    let c2 = net.add("c2", conv(8, 8, 3, 1, 2), &[r1]).unwrap();
    let add = net.add("add", Op::EltwiseAdd, &[c2, r1]).unwrap();
    let r2 = net.add("r2", Op::Relu, &[add]).unwrap();
    // Branches into a concat; r1 has other consumers, forcing a copy.
    let pa = net.add("pa", conv(4, 8, 1, 0, 3), &[r2]).unwrap();
    let pool_b = net
        .add(
            "pool_b",
            Op::Pool {
                kind: PoolKind::Max,
                k: 3,
                stride: 1,
                pad: 1,
            },
            &[r2],
        )
        .unwrap();
    let pb = net.add("pb", conv(4, 8, 1, 0, 4), &[pool_b]).unwrap();
    let cat = net.add("cat", Op::Concat, &[pa, pb, r1]).unwrap();
    let lrn = net
        .add(
            "lrn",
            Op::Lrn {
                local_size: 5,
                alpha: 1e-4,
                beta: 0.75,
                k: 1.0,
            },
            &[cat],
        )
        .unwrap();
    let ap = net
        .add(
            "ap",
            Op::Pool {
                kind: PoolKind::Avg,
                k: 2,
                stride: 2,
                pad: 0,
            },
            &[lrn],
        )
        .unwrap();
    let fc = net
        .add(
            "fc",
            Op::FullyConnected {
                weights: WeightTensor::random(10, 16 * 4 * 4, 1, 1, 5)
                    .data()
                    .to_vec(),
                out: 10,
                input: 16 * 4 * 4,
                bias: vec![0.0; 10],
            },
            &[ap],
        )
        .unwrap();
    net.add("prob", Op::Softmax, &[fc]).unwrap();
    net
}

#[test]
fn kitchen_sink_fp16_on_nv_full_soc_matches_golden() {
    let net = kitchen_sink();
    let artifacts = compile(&net, &CompileOptions::fp16()).expect("compile");
    // All engines appear.
    let engines: std::collections::BTreeSet<&str> =
        artifacts.ops.iter().map(|o| o.engine).collect();
    for e in ["conv", "pdp", "cdp", "rubik"] {
        assert!(engines.contains(e), "missing engine {e}: {engines:?}");
    }

    let mut soc = Soc::new(SocConfig::zcu102_nv_full());
    let input = Tensor::random(net.input_shape(), 77);
    let result = soc.run_inference(&artifacts, &input).expect("inference");

    // Compare pre-softmax logits against the golden executor.
    let all = Executor::new(&net).run_all(&input).expect("golden");
    let logits = &all[all.len() - 2];
    for (i, (a, b)) in result.output.data().iter().zip(logits.data()).enumerate() {
        assert!((a - b).abs() < 0.05, "logit {i}: nvdla {a} vs golden {b}");
    }
}

#[test]
fn kitchen_sink_int8_argmax_agrees() {
    let net = kitchen_sink();
    let artifacts = compile(&net, &CompileOptions::int8()).expect("compile");
    let mut soc = Soc::new(SocConfig::zcu102_nv_small());
    let input = Tensor::random(net.input_shape(), 123);
    let result = soc.run_inference(&artifacts, &input).expect("inference");
    let all = Executor::new(&net).run_all(&input).expect("golden");
    let logits = &all[all.len() - 2];
    assert_eq!(result.output.argmax(), logits.argmax());
}

#[test]
fn config_file_text_round_trip_runs_identically() {
    let net = zoo::lenet5(9);
    let artifacts = compile(&net, &CompileOptions::int8()).expect("compile");
    // Serialize the configuration file to text and parse it back — the
    // paper's on-disk artifact.
    let text = write_config_file(&artifacts.commands);
    let parsed = parse_config_file(&text).expect("parse");
    assert_eq!(parsed, artifacts.commands);

    // Build firmware from the parsed file and run it.
    let image = generate_machine_code(&parsed, CodegenOptions::default()).expect("assemble");
    let asm = rvnv_compiler::codegen::generate_assembly(&parsed);
    let fw = Firmware {
        assembly: asm,
        image,
    };
    let input = Tensor::random(net.input_shape(), 4);
    let input_bytes = artifacts.quantize_input(&input);
    let mut soc = Soc::new(SocConfig::zcu102_nv_small());
    let via_file = soc
        .run_firmware(&artifacts, &input_bytes, &fw)
        .expect("file path");
    let direct = soc.run_inference(&artifacts, &input).expect("direct path");
    assert_eq!(via_file.cycles, direct.cycles);
    assert_eq!(via_file.raw_output, direct.raw_output);
}

#[test]
fn repeated_runs_are_deterministic() {
    let net = zoo::lenet5(1);
    let artifacts = compile(&net, &CompileOptions::int8()).expect("compile");
    let input = Tensor::random(net.input_shape(), 5);
    let mut soc = Soc::new(SocConfig::zcu102_nv_small());
    let a = soc.run_inference(&artifacts, &input).expect("run 1");
    let b = soc.run_inference(&artifacts, &input).expect("run 2");
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.raw_output, b.raw_output);
}

#[test]
fn fused_and_unfused_agree_functionally() {
    let net = zoo::lenet5(33);
    let input = Tensor::random(net.input_shape(), 6);
    let fused = compile(&net, &CompileOptions::int8()).expect("fused");
    let unfused = compile(&net, &CompileOptions::int8().unfused()).expect("unfused");
    assert!(unfused.ops.len() >= fused.ops.len());
    let mut soc = Soc::new(SocConfig::zcu102_nv_small());
    let a = soc.run_inference(&fused, &input).expect("fused run");
    let b = soc.run_inference(&unfused, &input).expect("unfused run");
    assert_eq!(a.output.argmax(), b.output.argmax());
    assert!(
        b.cycles >= a.cycles,
        "per-layer replay ({}) is never faster than fusion ({})",
        b.cycles,
        a.cycles
    );
}

/// The paper pins of the small networks, read from `rvnv_soc::paper` on
/// its set-ups: Table II's "Layers" column is the unfused hardware-op
/// count (the paper's 9 / 86 / 228), not the DAG node count, and Table
/// II's SoC and Table III's VP cycles are exactly `ours`. The paper
/// printer asserts the other rows.
#[test]
fn table2_layers_are_unfused_hardware_ops() {
    let ours = |table, model, unit| {
        paper::row(table, model, unit)
            .expect("paper::ROWS covers the small networks")
            .ours
    };
    for model in [zoo::Model::LeNet5, zoo::Model::ResNet18] {
        let net = model.build(1);
        let artifacts = compile(&net, &paper::table2_compile_options()).expect("compile");
        let mut soc = Soc::new(paper::table2_soc());
        let input = Tensor::random(net.input_shape(), 7);
        let result = soc.run_inference(&artifacts, &input).expect("inference");
        let name = model.name();
        assert_eq!(
            result.nvdla.total_ops(),
            ours(Table::II, model, Unit::HwOps),
            "{name}"
        );
        assert_eq!(
            result.cycles,
            ours(Table::II, model, Unit::SocCycles),
            "{name}"
        );

        let fp16 = compile(&net, &paper::table3_compile_options()).expect("fp16 compile");
        let cycles = paper::vp_cycles(&mut paper::table3_vp(), &fp16).expect("vp run");
        assert_eq!(cycles, ours(Table::III, model, Unit::SocCycles), "{name}");
    }
}

/// The SoC and the VP drive one accelerator: for the same artifacts, a
/// timing-only SoC frame (CSB writes from the core's firmware) and a
/// timing-only VP replay (from the command list) book equal statistics
/// for every engine block — ops, compute cycles, DMA bytes and MACs —
/// and the SoC's DBB port carries exactly the booked bytes.
#[test]
fn soc_and_vp_book_the_same_engine_work() {
    let nv_small = (CompileOptions::int8(), SocConfig::zcu102_timing_only());
    let nv_full = (
        CompileOptions::fp16(),
        SocConfig::zcu102_nv_full_timing_only(),
    );
    let cases = [
        (zoo::Model::LeNet5, nv_small.clone()),
        (zoo::Model::ResNet18, nv_small),
        (zoo::Model::LeNet5, nv_full),
    ];
    for (model, (mut options, config)) in cases {
        options.calib_inputs = 1;
        let net = model.build(11);
        let artifacts = compile(&net, &options).expect("compile");
        let input = artifacts.quantize_input(&Tensor::random(net.input_shape(), 5));
        let fw = Firmware::build(&artifacts).expect("firmware assembles");
        let mut soc = Soc::new(config.clone());
        let frame = soc
            .run_firmware(&artifacts, &input, &fw)
            .expect("SoC frame");
        let mut vp = VirtualPlatform::new(config.hw, 256 << 20);
        vp.set_functional(false);
        vp.run(&artifacts, &input, false).expect("VP replay");
        let (name, vp) = (model.name(), vp.nvdla().stats());
        assert!(frame.nvdla.total_ops() > 0);
        for block in Block::ALL {
            assert_eq!(
                frame.nvdla.engine(block),
                vp.engine(block),
                "{name} {block:?}"
            );
        }
        // What the engines booked is what crossed the DBB port.
        let port = soc.dram_path().lock().port_stats(MasterId::NvdlaDbb);
        assert_eq!(frame.nvdla.total_dma_bytes(), port.bytes, "{name}");
    }
}

/// The firmware images of the small networks, pinned by content: the
/// assembler must turn the same generated source into the same bytes.
/// Rows: LeNet-5 then ResNet-18, each INT8 (Table II) then FP16 (Table
/// III), each poll then `wfi`.
#[test]
fn firmware_images_are_pinned() {
    const PINS: [u64; 8] = [
        0x58ed_ca5d_e51a_5fe4,
        0xbcf5_6d35_5735_6efc,
        0x044c_a4c3_a82e_9fa8,
        0xd09b_f3fd_1593_d943,
        0x366d_a110_f16a_481a,
        0xe1b5_0925_5297_fa5c,
        0xf6c9_6ae4_1428_9629,
        0xac4e_f4f7_55c6_4258,
    ];
    let mut got = Vec::new();
    for model in [zoo::Model::LeNet5, zoo::Model::ResNet18] {
        let net = model.build(1);
        for options in [
            paper::table2_compile_options(),
            paper::table3_compile_options(),
        ] {
            let artifacts = compile(&net, &options).expect("compile");
            for wait_mode in [WaitMode::Poll, WaitMode::Wfi] {
                let codegen = CodegenOptions {
                    wait_mode,
                    ..CodegenOptions::default()
                };
                let fw = Firmware::build_with(&artifacts, codegen).expect("firmware assembles");
                got.push(fw.image.fingerprint());
            }
        }
    }
    assert_eq!(got, PINS, "{got:#x?}");
}

/// A value too wide for its register field is a compile error naming
/// the field, never a corrupted word: a 65,536-wide surface overflows
/// the 16-bit width, a 300×300 window the 8-bit pool kernel.
#[test]
fn values_wider_than_their_register_fields_do_not_compile() {
    let compile_one = |input: Shape, op: Op| {
        let mut net = Network::new("wide", input);
        let x = net.input();
        net.add("op", op, &[x]).unwrap();
        compile(&net, &CompileOptions::fp16())
            .unwrap_err()
            .to_string()
    };
    let e = compile_one(Shape::new(1, 1, 1 << 16), Op::Relu);
    assert!(e.contains("`op`: SdpDesc.w = 65536"), "{e}");
    let (kind, k, stride, pad) = (PoolKind::Max, 300, 1, 0);
    let e = compile_one(
        Shape::new(1, 300, 300),
        Op::Pool {
            kind,
            k,
            stride,
            pad,
        },
    );
    assert!(e.contains("`op`: PdpDesc.k = 300"), "{e}");
}

#[test]
fn resnet18_int8_runs_functionally_on_the_soc() {
    let net = zoo::resnet18_cifar(3);
    let mut opt = CompileOptions::int8();
    opt.calib_inputs = 2;
    let artifacts = compile(&net, &opt).expect("compile");
    let mut soc = Soc::new(SocConfig::zcu102_nv_small());
    let input = Tensor::random(net.input_shape(), 8);
    let result = soc.run_inference(&artifacts, &input).expect("inference");
    assert_eq!(result.output.shape().c, 10);
    // Deep INT8 chains drift on synthetic weights; require sane output,
    // not bit-exact classification.
    assert!(result.output.data().iter().all(|v| v.is_finite()));
    assert!(result.cycles > 100_000);
}
