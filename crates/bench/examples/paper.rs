//! Every artifact of the paper, printed in one run.
//!
//! `cargo run --release -p rvnv_bench --example paper` regenerates the
//! bare-metal ablations (1–4), Fig. 1/3's toolflow stage outputs,
//! Fig. 2's per-hop interconnect latencies, Fig. 4's Zynq sessions and
//! SmartConnect exclusion, Table I's resource model with the `nv_full`
//! fit line, Table II's `nv_small` evaluation, Table III's `nv_full`
//! FP16 cycle counts and the `nv_small` vs `nv_full` VP speedups. Paper
//! values are in parentheses where the paper has them, with each row's
//! signed error and each table's mean absolute error; set-ups and paper
//! values come from `rvnv_soc::paper`. Everything printed is modeled
//! (cycles, bytes, LUTs), so the output is identical on every host; host
//! wall-clock lives in the benchmark ledger (`BENCHMARK.json`,
//! `examples/benchmark/`).
//!
//! Three claims are asserted, not just printed: the scraped
//! configuration file equals the compiled command list (Fig. 1),
//! `nv_full` does not fit the ZCU102 (Table I), and every number of
//! Tables II and III is the `ours` of its `rvnv_soc::paper::ROWS` row.
//! No flags, no environment.

use rvnv_bus::ahb::AhbPort;
use rvnv_bus::arbiter::Arbiter;
use rvnv_bus::axi::AxiConfig;
use rvnv_bus::bridge::{AhbToApb, AhbToAxi};
use rvnv_bus::dram::{Dram, DramTiming};
use rvnv_bus::smartconnect::Side;
use rvnv_bus::sram::Sram;
use rvnv_bus::width::WidthConverter;
use rvnv_bus::{AccessSize, MasterId, Request, Target};
use rvnv_compiler::codegen::{generate_assembly, generate_machine_code, CodegenOptions};
use rvnv_compiler::trace::write_config_file;
use rvnv_compiler::vplog::{extract_config, extract_weights};
use rvnv_compiler::{compile, Artifacts, CompileOptions, VirtualPlatform};
use rvnv_nn::stats::{ModelStats, Precision as NnPrecision};
use rvnv_nn::zoo::Model;
use rvnv_nn::Tensor;
use rvnv_nvdla::HwConfig;
use rvnv_soc::baseline::LinuxRuntimeModel;
use rvnv_soc::firmware::{Firmware, StorageFootprint};
use rvnv_soc::paper::{self, Row, Table, Unit};
use rvnv_soc::resources::{self, fits_zcu102, table1, ZCU102};
use rvnv_soc::soc::Soc;
use rvnv_soc::zynq::ZynqTestbench;

/// Pretty-print a table with a title and aligned columns.
fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let cols: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("| {} |", cols.join(" | "));
    };
    fmt_row(&header.iter().map(|s| (*s).to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        fmt_row(row);
    }
}

/// Format a cycle count at `hz` the way the paper prints times
/// (ms below a second, seconds above).
fn format_time(cycles: u64, hz: u64) -> String {
    let ms = cycles as f64 * 1000.0 / hz as f64;
    if ms >= 1000.0 {
        format!("{:.1} s", ms / 1000.0)
    } else if ms >= 10.0 {
        format!("{ms:.0} ms")
    } else {
        format!("{ms:.1} ms")
    }
}

/// `table`'s row for `model` counting `unit`, with `ours` checked
/// against what this run measured.
fn pinned(table: Table, model: Model, unit: Unit, measured: u64) -> &'static Row {
    let row = paper::row(table, model, unit).expect("paper::ROWS has every printed cell");
    assert_eq!(
        measured,
        row.ours,
        "Table {table:?} {} {unit:?} moved: update rvnv_soc::paper::ROWS",
        model.name()
    );
    row
}

/// A paper time as the paper prints it: ms below a second, s above, to
/// the digits it gives; "NA" where it has none.
fn paper_time(row: &Row) -> String {
    let (Some(cycles), Some(hz)) = (row.paper, row.unit.hz()) else {
        return "NA".to_string();
    };
    let ms = cycles as f64 * 1000.0 / hz as f64;
    if ms >= 1000.0 {
        format!("{} s", ms / 1000.0)
    } else {
        format!("{ms} ms")
    }
}

/// A row's signed error against the paper, in percent.
fn signed_error(row: &Row) -> String {
    row.error()
        .map_or("NA".to_string(), |e| format!("{:+.1} %", 100.0 * e))
}

/// The mean-absolute-error line under a results table.
fn print_mean_abs_error(table: Table) {
    println!(
        "\nTable {table:?} mean absolute error of the processing time: {:.1} %",
        100.0 * paper::mean_abs_error(table)
    );
}

/// The Table II/III "Model Size" column (fp32 Caffe file).
fn model_size_string(model: Model) -> String {
    ModelStats::of(&model.build(1)).model_size_string(NnPrecision::Fp32)
}

/// Input-size column, e.g. `3x224x224`.
fn input_string(model: Model) -> String {
    model.build(1).input_shape().to_string()
}

/// Ablation 1: the speedup collapses from tens of × on tiny models to
/// ~2× on large ones because the Linux overhead is roughly fixed per
/// inference. Table II's two time columns, as `paper::ROWS` pins them
/// (Table II asserts the pins).
fn ablation_baremetal_vs_linux() {
    let mut rows = Vec::new();
    for model in Model::NV_SMALL {
        let ms = |unit: Unit| {
            let row = paper::row(Table::II, model, unit).expect("Table II times");
            row.ours as f64 * 1000.0 / unit.hz().expect("a time") as f64
        };
        let (bm_ms, lx_ms) = (ms(Unit::SocCycles), ms(Unit::LinuxCycles));
        rows.push(vec![
            model.name().to_string(),
            format!("{bm_ms:.1} ms"),
            format!("{lx_ms:.0} ms"),
            format!("{:.1}x", lx_ms / bm_ms),
        ]);
    }
    print_table(
        "Ablation 1: bare-metal @100MHz vs Linux stack @50MHz",
        &["Model", "Bare-metal", "Linux runtime", "Speedup"],
        &rows,
    );
}

/// Ablation 2: the paper's per-layer trace replay vs our fused compiler.
fn ablation_fusion() {
    let mut rows = Vec::new();
    for model in [Model::LeNet5, Model::ResNet18] {
        let net = model.build(1);
        let input = Tensor::random(net.input_shape(), 5);
        let mut cells = vec![model.name().to_string()];
        for fuse in [false, true] {
            let opt = CompileOptions {
                fuse,
                ..paper::table2_compile_options()
            };
            let artifacts = compile(&net, &opt).expect("compile");
            let mut soc = Soc::new(paper::table2_soc());
            let r = soc.run_inference(&artifacts, &input).expect("run");
            cells.push(format!(
                "{} ({} ops)",
                format_time(r.cycles, 100_000_000),
                artifacts.ops.len()
            ));
        }
        rows.push(cells);
    }
    print_table(
        "Ablation 2: per-layer trace replay (paper flow) vs fused compiler",
        &["Model", "Unfused (trace replay)", "Fused"],
        &rows,
    );
}

/// Ablation 3: Table II's LeNet-5 at 50/100/200 MHz system clocks.
fn ablation_clock_sweep(lenet5: &Artifacts) {
    let input = Tensor::random(Model::LeNet5.build(1).input_shape(), 5);
    let mut rows = Vec::new();
    for mhz in [50u64, 100, 200] {
        // The DDR4 stays at 100 MHz on the board.
        let mut cfg = paper::table2_soc();
        cfg.soc_hz = mhz * 1_000_000;
        let mut soc = Soc::new(cfg);
        let r = soc.run_inference(lenet5, &input).expect("run");
        rows.push(vec![
            format!("{mhz} MHz"),
            r.cycles.to_string(),
            format_time(r.cycles, mhz * 1_000_000),
        ]);
    }
    print_table(
        "Ablation 3: LeNet-5 vs system clock (DDR4 fixed at 100 MHz)",
        &["SoC clock", "Cycles", "Latency"],
        &rows,
    );
}

/// Ablation 4: bare-metal firmware vs kernel + rootfs.
fn ablation_storage(nv_small: &[(Model, Artifacts)]) {
    let mut rows = Vec::new();
    for (model, artifacts) in nv_small {
        let fw = Firmware::build(artifacts).expect("firmware");
        let bm = StorageFootprint::bare_metal(&fw, artifacts);
        let lx = StorageFootprint::linux(artifacts);
        rows.push(vec![
            model.name().to_string(),
            format!("{} B", bm.software_bytes),
            format!("{:.1} MB", lx.software_bytes as f64 / 1e6),
            format!("{:.1} MB", bm.weight_bytes as f64 / 1e6),
            format!(
                "{:.0}x",
                lx.software_bytes as f64 / bm.software_bytes as f64
            ),
        ]);
    }
    print_table(
        "Ablation 4: software storage, bare-metal vs Linux stack",
        &[
            "Model",
            "Firmware",
            "Kernel+rootfs",
            "Weights (both)",
            "Software saving",
        ],
        &rows,
    );
}

/// Fig. 1 / Fig. 3: every stage of the software generation flow on
/// LeNet-5 — compile, VP run with CSB/DBB logging, config-file scrape,
/// deduplicated weight extraction, RISC-V codegen, assembly.
fn fig1_toolflow() {
    let net = Model::LeNet5.build(1);
    let artifacts = compile(&net, &CompileOptions::int8()).expect("compile");
    let input_bytes = artifacts.quantize_input(&Tensor::random(net.input_shape(), 42));

    let mut vp = VirtualPlatform::new(HwConfig::nv_small(), 16 << 20);
    let run = vp.run(&artifacts, &input_bytes, true).expect("vp run");

    let config = extract_config(&run.log);
    let config_text = write_config_file(&config);
    let weights = extract_weights(&run.log);
    let asm = generate_assembly(&config);
    let image = generate_machine_code(&config, CodegenOptions::default()).expect("assemble");

    assert_eq!(
        config, artifacts.commands,
        "scraped config == compiled config"
    );

    let rows = vec![
        vec!["Caffe model (layers)".into(), net.layer_count().to_string()],
        vec!["HW operations".into(), artifacts.ops.len().to_string()],
        vec!["VP log lines".into(), run.log.entries().len().to_string()],
        vec!["Config file commands".into(), config.len().to_string()],
        vec!["Config file bytes".into(), config_text.len().to_string()],
        vec!["Weight beats (deduped)".into(), weights.len().to_string()],
        vec![
            "Weight file bytes".into(),
            artifacts.weights.total_bytes().to_string(),
        ],
        vec!["Assembly lines".into(), asm.lines().count().to_string()],
        vec!["Machine code bytes".into(), image.len().to_string()],
        vec!["VP cycles".into(), run.cycles.to_string()],
    ];
    print_table(
        "Fig. 1/3: software generation flow on LeNet-5 (stage outputs)",
        &["Stage output", "Value"],
        &rows,
    );
}

fn latency_of(target: &mut dyn Target, req: &Request) -> u64 {
    target.access(req, 0).expect("access").done_at
}

/// Fig. 2: the architecture figure has no numbers in the paper; this
/// is the latency of every hop it draws, plus arbiter contention
/// between the core and the NVDLA DBB.
fn fig2_interconnect() {
    let mut rows = Vec::new();

    let mut sram = Sram::new(4096);
    rows.push(vec![
        "Program memory (BRAM) read".to_string(),
        latency_of(&mut sram, &Request::read32(0)).to_string(),
    ]);

    let mut ahb = AhbPort::new(Sram::new(4096));
    rows.push(vec![
        "AHB-Lite NONSEQ transfer".to_string(),
        latency_of(&mut ahb, &Request::read32(0)).to_string(),
    ]);

    let mut csb_path = AhbToApb::new(Sram::new(4096));
    rows.push(vec![
        "CSB register write (AHB->APB->CSB)".to_string(),
        latency_of(&mut csb_path, &Request::write32(0, 1)).to_string(),
    ]);

    let mut dram_path = AhbToAxi::new(Dram::new(64 << 10, Default::default()), AxiConfig::axi32());
    rows.push(vec![
        "DRAM word read (AHB->AXI->MIG, row miss)".to_string(),
        latency_of(&mut dram_path, &Request::read32(0)).to_string(),
    ]);
    rows.push(vec!["DRAM word read (row hit)".to_string(), {
        let t0 = latency_of(&mut dram_path, &Request::read32(4));
        let r = dram_path.access(&Request::read32(8), t0).expect("read");
        (r.done_at - t0).to_string()
    }]);

    let mut wc = WidthConverter::dbb64_to_mem32(Sram::new(4096));
    rows.push(vec![
        "DBB 64-bit beat through width converter".to_string(),
        latency_of(
            &mut wc,
            &Request::read(0, AccessSize::Double).with_master(MasterId::NvdlaDbb),
        )
        .to_string(),
    ]);

    // Arbiter contention: CPU poll colliding with a DBB burst.
    let mut arb = Arbiter::new(Dram::new(64 << 10, Default::default()));
    let mut buf = vec![0u8; 4096];
    let dma_done = arb.read_block(0, &mut buf, 0).expect("dma");
    arb.access(&Request::read32(0), 1).expect("cpu");
    rows.push(vec![
        "DBB 4 KiB burst (cycles)".to_string(),
        dma_done.to_string(),
    ]);
    rows.push(vec![
        "CPU read arriving during that burst (wait)".to_string(),
        arb.port_stats(MasterId::Cpu).wait_cycles.to_string(),
    ]);

    print_table(
        "Fig. 2: per-hop latencies of the SoC interconnect (cycles)",
        &["Path", "Latency"],
        &rows,
    );
}

/// Fig. 4: the Zynq PS preloads DRAM through the AXI SmartConnect,
/// ownership switches to the SoC, and the SoC runs; while the PS owns
/// the DRAM the SoC is locked out.
fn fig4_setup(nv_small: &[(Model, Artifacts)]) {
    let mut rows = Vec::new();
    for (model, artifacts) in &nv_small[..2] {
        let mut tb = ZynqTestbench::new(Soc::new(paper::table2_soc()));
        let input = Tensor::random(model.build(1).input_shape(), 3);
        let session = tb.run(artifacts, &input).expect("session");
        rows.push(vec![
            model.name().to_string(),
            session.preload_bytes.to_string(),
            format_time(session.preload_cycles, 100_000_000),
            format_time(session.inference.cycles, 100_000_000),
            session.inference.firmware_bytes.to_string(),
        ]);
    }
    print_table(
        "Fig. 4: Zynq preload + SoC inference sessions @100MHz",
        &[
            "Model",
            "Preload bytes",
            "Preload time",
            "Inference time",
            "Firmware bytes",
        ],
        &rows,
    );

    let soc = Soc::new(paper::table2_soc());
    soc.switch_dram_to(Side::ZynqPs);
    let denied = soc.dram_path().access(&Request::read32(0), 0);
    println!(
        "\nSmartConnect exclusion: SoC-side read while PS owns DRAM -> {:?}",
        denied.err().map(|e| e.to_string())
    );
}

/// Table I: every row of the utilization table from the analytical
/// resource model, then the paper's `nv_full` finding.
fn table1_resources() {
    // 232 BRAM tiles of program memory, as in the paper.
    let rows = table1(&HwConfig::nv_small(), 928 << 10);
    let header = [
        "Major Components",
        "CLB LUTs",
        "CLB Regs",
        "CARRY8",
        "F7 Muxes",
        "F8 Muxes",
        "CLBs",
        "BRAM Tiles",
        "DSPs",
    ];
    let mut out = vec![vec![
        "(FPGA capacity)".into(),
        ZCU102.lut.to_string(),
        ZCU102.regs.to_string(),
        ZCU102.carry8.to_string(),
        ZCU102.f7_mux.to_string(),
        ZCU102.f8_mux.to_string(),
        ZCU102.clb.to_string(),
        ZCU102.bram.to_string(),
        ZCU102.dsp.to_string(),
    ]];
    for r in &rows {
        out.push(vec![
            r.name.to_string(),
            r.util.lut.to_string(),
            r.util.regs.to_string(),
            r.util.carry8.to_string(),
            r.util.f7_mux.to_string(),
            r.util.f8_mux.to_string(),
            r.util.clb.to_string(),
            r.util.bram.to_string(),
            r.util.dsp.to_string(),
        ]);
    }
    print_table("Table I: FPGA resource utilization (model)", &header, &out);

    let full = resources::nvdla(&HwConfig::nv_full());
    println!(
        "\nnv_full NVDLA estimate: {} LUTs vs {} available -> fits ZCU102: {}",
        full.lut,
        ZCU102.lut,
        fits_zcu102(&full)
    );
    assert!(!fits_zcu102(&full), "paper: nv_full must not fit");
}

/// Table II: `nv_small` on the SoC — hardware ops, input and model
/// size, bare-metal time at 100 MHz, and the Linux-stack baseline at
/// 50 MHz (the paper's ref. [8]: same hardware cycles plus the runtime).
fn table2_nv_small(nv_small: &[(Model, Artifacts)]) {
    let baseline = LinuxRuntimeModel::esp_ariane_50mhz();
    let mut rows = Vec::new();
    for (model, artifacts) in nv_small {
        let mut soc = Soc::new(paper::table2_soc());
        let input = Tensor::random(model.build(1).input_shape(), 7);
        let result = soc
            .run_inference(artifacts, &input)
            .expect("table2 inference");
        let hz = soc.config().soc_hz;
        let data_bytes = artifacts.weights.total_bytes() as u64 + artifacts.input_len as u64;
        let base_cycles =
            baseline.total_cycles(result.cycles, artifacts.ops.len() as u64, data_bytes);
        let model = *model;
        // The paper's "Layers" column counts unfused hardware ops.
        let ops = result.nvdla.total_ops();
        let layers = pinned(Table::II, model, Unit::HwOps, ops);
        let time = pinned(Table::II, model, Unit::SocCycles, result.cycles);
        let linux = pinned(Table::II, model, Unit::LinuxCycles, base_cycles);
        rows.push(vec![
            model.name().to_string(),
            format!("{ops} ({})", layers.paper.expect("the paper counts layers")),
            input_string(model),
            model_size_string(model),
            format!("{} ({})", format_time(result.cycles, hz), paper_time(time)),
            format!(
                "{} ({})",
                format_time(base_cycles, baseline.clock_hz),
                paper_time(linux)
            ),
            signed_error(time),
        ]);
    }
    print_table(
        "Table II: nv_small SoC evaluation — measured (paper)",
        &[
            "Model",
            "Layers",
            "Input",
            "Model Size",
            "Proc. Time @100MHz",
            "Proc. Time @50MHz [8]",
            "Error @100MHz",
        ],
        &rows,
    );
    print_mean_abs_error(Table::II);
}

/// Table III: all six models in FP16 on the `nv_full` virtual platform
/// with the official VP's memory timing, timing-only. Returns each
/// model's cycles.
fn table3_nv_full() -> Vec<u64> {
    let hz = 100_000_000;
    let mut cycles_of = Vec::new();
    let mut rows = Vec::new();
    for model in Model::ALL {
        let opt = paper::table3_compile_options();
        let artifacts = compile(&model.build(1), &opt).expect("fp16 compile");
        let cycles = paper::vp_cycles(&mut paper::table3_vp(), &artifacts).expect("vp run");
        let row = pinned(Table::III, model, Unit::SocCycles, cycles);
        let paper = row.paper.expect("Table III has every cycle count");
        rows.push(vec![
            model.name().to_string(),
            input_string(model),
            model_size_string(model),
            format!("{cycles} ({paper})"),
            format!("{} ({})", format_time(cycles, hz), format_time(paper, hz)),
            signed_error(row),
        ]);
        cycles_of.push(cycles);
    }
    print_table(
        "Table III: nv_full simulation, FP16 — measured (paper)",
        &[
            "Model",
            "Input size",
            "Model size",
            "Clock cycles",
            "Proc. time @100MHz",
            "Error",
        ],
        &rows,
    );
    print_mean_abs_error(Table::III);
    cycles_of
}

/// The configuration step the paper's conclusion anticipates: the
/// `nv_small` models in INT8 on an `nv_small` VP with Table III's memory
/// timing, against Table III's `nv_full` FP16 cycles (`Model::ALL` order).
fn nv_small_vs_nv_full(nv_full: &[u64]) {
    let mut opt = CompileOptions::int8();
    opt.calib_inputs = 1;
    let mut rows = Vec::new();
    for (model, &full) in Model::ALL.into_iter().zip(nv_full) {
        let small = Model::NV_SMALL.contains(&model).then(|| {
            let artifacts = compile(&model.build(1), &opt).expect("int8 compile");
            let timing = DramTiming::nvdla_vp();
            let mut vp = VirtualPlatform::with_timing(HwConfig::nv_small(), 512 << 20, timing);
            vp.set_functional(false);
            paper::vp_cycles(&mut vp, &artifacts).expect("vp run")
        });
        let dash = || "-".to_string();
        rows.push(vec![
            model.name().to_string(),
            small.map_or_else(dash, |c| c.to_string()),
            full.to_string(),
            small.map_or_else(dash, |c| format!("{:.1}x", c as f64 / full as f64)),
        ]);
    }
    print_table(
        "nv_small INT8 vs nv_full FP16 on the VP (Table III memory timing), cycles",
        &["Model", "nv_small INT8", "nv_full FP16", "Speedup"],
        &rows,
    );
}

fn main() {
    // Table II's configuration, compiled once for every section on it.
    let opt = paper::table2_compile_options();
    let nv_small: Vec<(Model, Artifacts)> = Model::NV_SMALL
        .into_iter()
        .map(|m| {
            (
                m,
                compile(&m.build(1), &opt).expect("nv_small models compile"),
            )
        })
        .collect();
    ablation_baremetal_vs_linux();
    ablation_fusion();
    ablation_clock_sweep(&nv_small[0].1);
    ablation_storage(&nv_small);
    fig1_toolflow();
    fig2_interconnect();
    fig4_setup(&nv_small);
    table1_resources();
    table2_nv_small(&nv_small);
    let nv_full = table3_nv_full();
    nv_small_vs_nv_full(&nv_full);
}
