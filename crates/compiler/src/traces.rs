//! Standard NVDLA test traces (paper §V).
//!
//! "Initial functional validation was performed via behavioral
//! simulation using standard NVDLA test traces such as sanity,
//! convolution and memory tests … translated into RISC-V assembly and
//! used to verify the correctness of the integrated SoC design."
//!
//! Each [`TestTrace`] bundles a register-command stream, the DRAM
//! preload it needs, and the DRAM contents it must produce — so it can
//! be replayed on the VP or compiled to bare-metal firmware for the SoC.

use rvnv_nn::Shape;
use rvnv_nvdla::descriptor::{ConvDesc, CopyDesc, Descriptor, SdpDesc};
use rvnv_nvdla::regs::{self, Block, SDP_FLAG_BIAS};
use rvnv_nvdla::Precision;

use crate::layout::WeightImage;
use crate::trace::{push_launch, ConfigCmd};
use crate::Artifacts;

/// A self-checking register trace.
#[derive(Debug, Clone)]
pub struct TestTrace {
    /// Trace name (matches the official trace-set naming).
    pub name: &'static str,
    /// The register commands.
    pub commands: Vec<ConfigCmd>,
    /// DRAM contents to preload before replay.
    pub preload: WeightImage,
    /// Expected DRAM contents after replay: `(addr, bytes)`.
    pub expect: Vec<(u32, Vec<u8>)>,
}

impl TestTrace {
    /// The trace as artifacts to run on the VP or the SoC: its commands
    /// and preload, with no input and no output.
    #[must_use]
    pub fn artifacts(&self) -> Artifacts {
        let ends = self
            .preload
            .segments()
            .iter()
            .map(|s| (s.addr, s.bytes.len()));
        let ends = ends.chain(self.expect.iter().map(|(a, b)| (*a, b.len())));
        Artifacts {
            model: self.name.to_string(),
            precision: Precision::Int8,
            commands: self.commands.clone(),
            weights: self.preload.clone(),
            input_addr: 0,
            input_len: 0,
            input_scale: 1.0,
            output_addr: 0,
            output_len: 0,
            output_scale: 1.0,
            output_shape: Shape::new(0, 0, 0),
            ops: Vec::new(),
            dram_base: 0,
            dram_used: ends.map(|(a, len)| a + len as u32).max().unwrap_or(0),
            cpu_layers: Vec::new(),
        }
    }
}

/// The sanity trace: version register, scratch write/read-back on every
/// engine block, interrupt set/clear round trip. It writes raw
/// registers, since the registers themselves are under test.
#[must_use]
pub fn sanity() -> TestTrace {
    let read = |addr, mask, expect| ConfigCmd::ReadReg { addr, mask, expect };
    let write = |addr, value| ConfigCmd::WriteReg { addr, value };
    // HW version must read back the expected ID.
    let mut cmds = vec![read(regs::GLB_HW_VERSION, u32::MAX, regs::HW_VERSION_VALUE)];
    // Scratch write/read-verify on each engine's first `D_*` register.
    let engines = [
        Block::Cdma,
        Block::Csc,
        Block::Cmac,
        Block::Sdp,
        Block::Pdp,
        Block::Cdp,
        Block::Rubik,
        Block::Bdma,
    ];
    for (i, block) in engines.into_iter().enumerate() {
        let pattern = 0xA5A5_0000 | (i as u32);
        cmds.push(write(block.base() + 0x14, pattern));
        cmds.push(read(block.base() + 0x14, u32::MAX, pattern));
    }
    // Interrupt set (test hook), then poll, write-1-to-clear, and check.
    cmds.extend([
        write(regs::GLB_INTR_SET, 0b10_0000),
        read(regs::GLB_INTR_STATUS, 0b10_0000, 0b10_0000),
        write(regs::GLB_INTR_STATUS, 0b10_0000),
        read(regs::GLB_INTR_STATUS, u32::MAX, 0),
    ]);
    TestTrace {
        name: "sanity",
        commands: cmds,
        preload: WeightImage::new(),
        expect: Vec::new(),
    }
}

/// The memory test: BDMA copies a pattern between DRAM regions; the
/// destination must equal the source.
#[must_use]
pub fn memory() -> TestTrace {
    let src = 0x1000u32;
    let dst = 0x2000u32;
    let pattern: Vec<u8> = (0..256u32)
        .map(|i| (i.wrapping_mul(37) & 0xFF) as u8)
        .collect();
    let mut preload = WeightImage::new();
    preload.push(src, pattern.clone());
    let copy = CopyDesc {
        src,
        dst,
        len: pattern.len() as u32,
    };
    let mut cmds = Vec::new();
    push_launch(
        &mut cmds,
        copy.encode_on(Block::Bdma).expect("copy fits its fields"),
        &[Block::Bdma],
    );
    TestTrace {
        name: "memory",
        commands: cmds,
        preload,
        expect: vec![(dst, pattern)],
    }
}

/// The convolution test: a 3×3 ones-kernel over a 4×4 ramp, INT8,
/// bias 0, no activation — expected output computed by definition.
#[must_use]
pub fn convolution() -> TestTrace {
    let feat_addr = 0x1000u32;
    let wt_addr = 0x1100u32;
    let bs_addr = 0x1200u32;
    let out_addr = 0x2000u32;
    // 1x4x4 input ramp 0..16, 1 kernel 3x3 of ones, pad 1, stride 1.
    let feature: Vec<i8> = (0..16).collect();
    let weights = [1i8; 9];
    // Expected: sum of the 3x3 neighbourhood with zero padding.
    let mut expect = [0i8; 16];
    for y in 0..4i32 {
        for x in 0..4i32 {
            let mut acc = 0i32;
            for ky in -1..=1 {
                for kx in -1..=1 {
                    let (iy, ix) = (y + ky, x + kx);
                    if (0..4).contains(&iy) && (0..4).contains(&ix) {
                        acc += i32::from(feature[(iy * 4 + ix) as usize]);
                    }
                }
            }
            expect[(y * 4 + x) as usize] = acc as i8;
        }
    }
    let mut preload = WeightImage::new();
    preload.push(feat_addr, feature.iter().map(|&v| v as u8).collect());
    preload.push(wt_addr, weights.iter().map(|&v| v as u8).collect());
    // Identity bias table (scale 1.0, shift 0.0).
    let mut bs = Vec::new();
    bs.extend_from_slice(&1.0f32.to_le_bytes());
    bs.extend_from_slice(&0.0f32.to_le_bytes());
    preload.push(bs_addr, bs);

    let conv = ConvDesc {
        src: feat_addr,
        in_w: 4,
        in_h: 4,
        in_c: 1,
        wt_addr,
        wt_bytes: 9,
        stride: 1,
        pad: 1,
        in_scale: 1.0,
        wt_scale: 1.0,
        out_w: 4,
        out_h: 4,
        out_c: 1,
        kw: 3,
        kh: 3,
        groups: 1,
        ..ConvDesc::default()
    };
    let sdp = SdpDesc {
        dst: out_addr,
        w: 4,
        h: 4,
        c: 1,
        bs_addr,
        flags: SDP_FLAG_BIAS,
        out_scale: 1.0,
        ..SdpDesc::default()
    };
    let mut writes = conv.encode().expect("conv fits its fields");
    writes.extend(sdp.encode().expect("sdp fits its fields"));
    let mut cmds = Vec::new();
    push_launch(&mut cmds, writes, ConvDesc::LAUNCH);
    TestTrace {
        name: "convolution",
        commands: cmds,
        preload,
        expect: vec![(out_addr, expect.iter().map(|&v| v as u8).collect())],
    }
}

/// All standard traces in the order the paper lists them.
#[must_use]
pub fn all() -> Vec<TestTrace> {
    vec![sanity(), convolution(), memory()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VirtualPlatform;
    use rvnv_nvdla::HwConfig;

    /// Replay a trace on the VP and check the DRAM it leaves.
    fn replay(trace: &TestTrace) {
        let mut vp = VirtualPlatform::new(HwConfig::nv_small(), 1 << 20);
        let run = vp.run(&trace.artifacts(), &[], false);
        run.unwrap_or_else(|e| panic!("{}: {e}", trace.name));
        for (addr, bytes) in &trace.expect {
            let got = vp.nvdla().dbb().inner().peek(*addr as usize, bytes.len());
            assert_eq!(got, &bytes[..], "{}: dram at {addr:#x}", trace.name);
        }
    }

    #[test]
    fn sanity_trace_passes() {
        replay(&sanity());
    }

    #[test]
    fn memory_trace_passes() {
        replay(&memory());
    }

    #[test]
    fn convolution_trace_passes() {
        replay(&convolution());
    }

    #[test]
    fn convolution_expected_values_are_neighbourhood_sums() {
        let t = convolution();
        let (_, out) = &t.expect[0];
        // Corner (0,0): 0+1+4+5 = 10; center (1,1): sum of 0..=2,4..=6,8..=10.
        assert_eq!(out[0] as i8, 10);
        assert_eq!(out[5] as i8, 45);
    }

    #[test]
    fn all_traces_have_unique_names() {
        let names: Vec<_> = all().iter().map(|t| t.name).collect();
        assert_eq!(names, vec!["sanity", "convolution", "memory"]);
    }
}
