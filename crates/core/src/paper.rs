//! The paper's results as data: the set-ups of Tables II and III as
//! constructors, and one table of every number those tables report
//! beside the number this model produces today.
//!
//! [`ROWS`] is the only copy of the paper's values. Its `ours` column
//! is a pin: `tests/end_to_end.rs` asserts the LeNet-5 and ResNet-18
//! rows exactly, and the paper printer (`crates/bench/examples/paper.rs`)
//! asserts every row. A model change edits `ours` here, and the diff
//! shows each row's error move.
//!
//! ```
//! use rvnv_soc::paper::{self, Table, Unit};
//! use rvnv_nn::zoo::Model;
//!
//! let lenet = paper::row(Table::II, Model::LeNet5, Unit::SocCycles).unwrap();
//! assert_eq!(lenet.paper, Some(480_000)); // 4.8 ms at 100 MHz
//! assert!(lenet.error().unwrap() < 0.0); // we model it faster
//! let na = paper::row(Table::II, Model::ResNet18, Unit::LinuxCycles).unwrap();
//! assert_eq!(na.error(), None); // the paper prints "NA"
//! ```

use rvnv_bus::dram::DramTiming;
use rvnv_compiler::vp::VpError;
use rvnv_compiler::{Artifacts, CompileOptions, VirtualPlatform};
use rvnv_nn::zoo::Model;
use rvnv_nvdla::{HwConfig, Precision};

use crate::soc::SocConfig;

/// One of the paper's two results tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// Table II: `nv_small` on the FPGA SoC, INT8, against the Linux
    /// stack of ref.\[8\].
    II,
    /// Table III: `nv_full` on the virtual platform, FP16.
    III,
}

/// What a row's two numbers count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Hardware operations (Table II's "Layers" column).
    HwOps,
    /// Cycles of the 100 MHz SoC clock at which both tables quote time.
    SocCycles,
    /// Cycles of the 50 MHz Linux-stack baseline (Table II's last
    /// column, ref.\[8\]).
    LinuxCycles,
}

impl Unit {
    /// The clock a cycle count runs at, in Hz; `None` for op counts.
    #[must_use]
    pub const fn hz(self) -> Option<u64> {
        match self {
            Unit::HwOps => None,
            Unit::SocCycles => Some(100_000_000),
            Unit::LinuxCycles => Some(50_000_000),
        }
    }
}

/// One number of the paper beside ours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// The table the number is printed in.
    pub table: Table,
    /// The network.
    pub model: Model,
    /// The precision the network runs in.
    pub precision: Precision,
    /// What both numbers count.
    pub unit: Unit,
    /// The paper's value; `None` where the paper prints "NA".
    pub paper: Option<u64>,
    /// What this repository models today.
    pub ours: u64,
}

impl Row {
    /// Signed relative error of ours against the paper (`0.5` is 50 %
    /// over the paper, `-0.25` a quarter under); `None` without a paper
    /// value.
    #[must_use]
    pub fn error(&self) -> Option<f64> {
        self.paper
            .map(|paper| (self.ours as f64 - paper as f64) / paper as f64)
    }
}

const fn row2(model: Model, unit: Unit, paper: Option<u64>, ours: u64) -> Row {
    Row {
        table: Table::II,
        model,
        precision: Precision::Int8,
        unit,
        paper,
        ours,
    }
}

const fn row3(model: Model, paper: u64, ours: u64) -> Row {
    Row {
        table: Table::III,
        model,
        precision: Precision::Fp16,
        unit: Unit::SocCycles,
        paper: Some(paper),
        ours,
    }
}

/// Every number of Tables II and III. Table II's times are in cycles of
/// their clock: the paper's 4.8 ms at 100 MHz is 480,000 cycles.
#[rustfmt::skip]
pub static ROWS: [Row; 15] = [
    //   model             unit               paper              ours
    row2(Model::LeNet5,   Unit::HwOps,       Some(9),           11),
    row2(Model::ResNet18, Unit::HwOps,       Some(86),          88),
    row2(Model::ResNet50, Unit::HwOps,       Some(228),         228),
    row2(Model::LeNet5,   Unit::SocCycles,   Some(480_000),     361_666),
    row2(Model::ResNet18, Unit::SocCycles,   Some(1_620_000),   965_669),
    row2(Model::ResNet50, Unit::SocCycles,   Some(110_000_000), 169_258_512),
    row2(Model::LeNet5,   Unit::LinuxCycles, Some(13_150_000),  12_724_743),
    row2(Model::ResNet18, Unit::LinuxCycles, None,              16_321_307),
    row2(Model::ResNet50, Unit::LinuxCycles, Some(125_000_000), 190_741_104),
    //   model              paper       ours
    row3(Model::LeNet5,    143_188,    312_190),
    row3(Model::ResNet18,  324_387,    437_395),
    row3(Model::ResNet50,  26_565_315, 40_116_923),
    row3(Model::MobileNet, 22_525_704, 26_524_167),
    row3(Model::GoogLeNet, 40_889_646, 19_006_212),
    row3(Model::AlexNet,   35_535_582, 37_847_850),
];

/// The row of `table` for `model` counting `unit`, if the table has one.
#[must_use]
pub fn row(table: Table, model: Model, unit: Unit) -> Option<&'static Row> {
    ROWS.iter()
        .find(|r| r.table == table && r.model == model && r.unit == unit)
}

/// Mean absolute relative error of `table`'s processing times (its
/// [`Unit::SocCycles`] rows) against the paper.
#[must_use]
pub fn mean_abs_error(table: Table) -> f64 {
    let errors: Vec<f64> = ROWS
        .iter()
        .filter(|r| r.table == table && r.unit == Unit::SocCycles)
        .filter_map(Row::error)
        .collect();
    errors.iter().map(|e| e.abs()).sum::<f64>() / errors.len() as f64
}

/// Table II's SoC: the ZCU102 set-up with `nv_small`, SoC and DDR4 at
/// 100 MHz, timing-only.
#[must_use]
pub fn table2_soc() -> SocConfig {
    SocConfig::zcu102_timing_only()
}

/// Table II's compilation, the paper's `nv_small` trace-replay flow:
/// INT8, unfused, one calibration input.
#[must_use]
pub fn table2_compile_options() -> CompileOptions {
    let mut opt = CompileOptions::int8().unfused();
    opt.calib_inputs = 1;
    opt
}

/// Table III's compilation: FP16 on `nv_full`.
#[must_use]
pub fn table3_compile_options() -> CompileOptions {
    CompileOptions::fp16()
}

/// Table III's platform: a timing-only `nv_full` VP with 512 MB of
/// memory at the official VP's timing ([`DramTiming::nvdla_vp`]).
#[must_use]
pub fn table3_vp() -> VirtualPlatform {
    let mut vp =
        VirtualPlatform::with_timing(HwConfig::nv_full(), 512 << 20, DramTiming::nvdla_vp());
    vp.set_functional(false);
    vp
}

/// Modeled cycles of one unlogged replay of `artifacts` on `vp`, from an
/// all-zero input: what Table III counts, on [`table3_vp`].
///
/// # Errors
///
/// Whatever the replay fails with ([`VpError`]).
pub fn vp_cycles(vp: &mut VirtualPlatform, artifacts: &Artifacts) -> Result<u64, VpError> {
    let input = vec![0u8; artifacts.input_len];
    Ok(vp.run(artifacts, &input, false)?.cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_row_shadows_another() {
        for r in &ROWS {
            assert_eq!(row(r.table, r.model, r.unit), Some(r));
        }
    }
}
