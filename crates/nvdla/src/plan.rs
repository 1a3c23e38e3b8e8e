//! What an operation moves and costs.
//!
//! [`plan`] turns a decoded [`Launch`] into an [`OpPlan`]: the steps the
//! accelerator ([`crate::Nvdla`]) issues on the DBB, in order — each
//! engine's reads, then its compute, and last the write-back. A plan is
//! pure data and allocates nothing.
//!
//! Compute cycles follow the MAC-array dataflow: every cycle the CMAC
//! array consumes `atomic_c` input channels for `atomic_k` kernels at
//! one kernel tap, so a convolution needs
//! `out_h × out_w × kh × kw × ceil(in_c/atomic_c) × ceil(out_c/atomic_k)`
//! cycles per group. This is what makes shallow-channel layers (LeNet's
//! 1-channel input, depthwise convolutions) far less efficient than the
//! raw MAC count suggests — the behaviour responsible for the shape of
//! the paper's Tables II/III. The post-processors take `pp_throughput`
//! elements per cycle; every operation pays `op_latency`. Sizes are
//! checked `u64` products: a transfer past the 32-bit address space is
//! a slave error, never a wrapped length.

use crate::config::{HwConfig, Precision};
use crate::descriptor::{ConvDesc, Launch, SdpDesc, SdpSrc};
use crate::regs::{self, Block};

/// A launch at a precision the configuration lacks.
pub const UNSUPPORTED: &str = "precision not implemented in this config";
/// A conv whose SDP is not an armed flying one.
pub const UNARMED: &str = "conv launched without armed flying SDP";
const OVERFLOW: &str = "operation cycles or MACs overflow 64 bits";

/// What a transfer carries. The purposes a kernel reads come first:
/// they index the operands of [`crate::engines::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Purpose {
    /// A conv's feature, or an SDP, PDP, CDP or copy source.
    Feature,
    /// Convolution weights.
    Weight,
    /// The SDP's per-channel bias/scale table.
    BiasTable,
    /// The SDP's element-wise second source.
    Eltwise,
    /// The feature again, once per extra CBUF weight pass.
    Refetch,
    /// The result, written back.
    Output,
}

/// `repeat` DMA trains of `len` bytes at `addr`, issued back to back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// The engine whose statistics the bytes land in.
    pub block: Block,
    /// DBB address.
    pub addr: u32,
    /// Bytes per train; `addr + len` is at most 2³².
    pub len: u64,
    /// What the bytes are.
    pub purpose: Purpose,
    /// Trains.
    pub repeat: u32,
}

/// One step of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A read, or the write-back ([`Purpose::Output`]).
    Transfer(Transfer),
    /// `block` computes for `cycles`, and books `compute_cycles` (a
    /// copy's are 0) and `macs`.
    Compute {
        block: Block,
        cycles: u64,
        compute_cycles: u64,
        macs: u64,
    },
}

/// Everything one operation moves and costs, in order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpPlan {
    steps: [Option<Step>; 8],
    len: usize,
    /// The engines of the `Compute` steps.
    blocks: [Option<Block>; 2],
}

impl OpPlan {
    /// The steps in issue order.
    pub fn steps(&self) -> impl Iterator<Item = &Step> {
        self.steps[..self.len].iter().flatten()
    }

    /// The engines the operation occupies, in order: CACC then SDP for
    /// a conv, one otherwise.
    pub fn blocks(&self) -> impl Iterator<Item = Block> + '_ {
        self.blocks.iter().flatten().copied()
    }

    fn push(&mut self, step: Step) {
        self.steps[self.len] = Some(step);
        self.len += 1;
    }

    /// Append one train of `product(factors)` bytes at `addr`, if it
    /// ends within the 32-bit address space.
    fn transfer<const N: usize>(
        &mut self,
        block: Block,
        addr: u32,
        factors: [u32; N],
        purpose: Purpose,
    ) -> Result<Transfer, &'static str> {
        let len = product(factors)
            .filter(|&len| len <= (1 << 32) - u64::from(addr))
            .ok_or("DMA transfer passes the 32-bit address space")?;
        let repeat = 1;
        let transfer = Transfer {
            block,
            addr,
            len,
            purpose,
            repeat,
        };
        self.push(Step::Transfer(transfer));
        Ok(transfer)
    }

    /// Append `block`'s compute; a copy books none of its `cycles`.
    fn compute(
        &mut self,
        block: Block,
        cycles: Option<u64>,
        macs: u64,
    ) -> Result<(), &'static str> {
        let cycles = cycles.ok_or(OVERFLOW)?;
        let engine = self.blocks.iter_mut().find(|b| b.is_none());
        *engine.expect("an operation occupies at most two engines") = Some(block);
        let copy = matches!(block, Block::Rubik | Block::Bdma);
        let compute_cycles = if copy { 0 } else { cycles };
        self.push(Step::Compute {
            block,
            cycles,
            compute_cycles,
            macs,
        });
        Ok(())
    }

    /// Append an SDP: its memory source, bias table and eltwise source
    /// reads, its compute and its write.
    fn sdp(&mut self, cfg: &HwConfig, sd: &SdpDesc) -> Result<(), &'static str> {
        let (sdp, surface) = (Block::Sdp, [sd.c, sd.h, sd.w, sd.precision.bytes()]);
        if sd.src_mode == SdpSrc::Memory {
            self.transfer(sdp, sd.src, surface, Purpose::Feature)?;
        }
        if sd.has(regs::SDP_FLAG_BIAS) {
            self.transfer(sdp, sd.bs_addr, [sd.c, 8], Purpose::BiasTable)?;
        }
        if sd.has(regs::SDP_FLAG_ELTWISE) {
            self.transfer(sdp, sd.src2, surface, Purpose::Eltwise)?;
        }
        self.compute(sdp, pp_cycles(cfg, [sd.c, sd.h, sd.w]), 0)?;
        self.transfer(sdp, sd.dst, surface, Purpose::Output)?;
        Ok(())
    }
}

/// Plan `launch` on `cfg`.
///
/// # Errors
///
/// The slave-error reason: a precision `cfg` lacks, a conv without a
/// flying SDP or whose surface is not the SDP's, a flying SDP alone, a
/// transfer past 2³², or cycles or MACs past `u64`.
pub fn plan(launch: &Launch, cfg: &HwConfig) -> Result<OpPlan, &'static str> {
    use Purpose::{Feature, Output};
    let bytes = |p: Precision| cfg.supports(p).then_some(p.bytes()).ok_or(UNSUPPORTED);
    let mut op = OpPlan::default();
    match launch {
        Launch::Conv(cd, sd) => {
            let feature = [cd.in_c, cd.in_h, cd.in_w, bytes(cd.precision)?];
            if sd.src_mode != SdpSrc::Flying {
                return Err(UNARMED);
            }
            if product([cd.out_c, cd.out_h, cd.out_w]) != product([sd.c, sd.h, sd.w]) {
                return Err("SDP surface does not match conv output");
            }
            let mut refetch = op.transfer(Block::Cacc, cd.src, feature, Feature)?;
            op.transfer(Block::Cacc, cd.wt_addr, [cd.wt_bytes], Purpose::Weight)?;
            refetch.purpose = Purpose::Refetch;
            refetch.repeat = cbuf_passes(cfg, cd.wt_bytes) - 1;
            if refetch.repeat > 0 {
                op.push(Step::Transfer(refetch));
            }
            let in_per_group = cd.in_c / cd.groups;
            let macs = product([cd.out_c, cd.out_h, cd.out_w, in_per_group, cd.kh, cd.kw])
                .ok_or(OVERFLOW)?;
            op.compute(Block::Cacc, conv_cycles(cfg, cd), macs)?;
            op.sdp(cfg, sd)?;
        }
        Launch::Sdp(sd) if sd.src_mode == SdpSrc::Flying => {
            return Err("flying SDP runs with a conv")
        }
        Launch::Sdp(sd) => bytes(sd.precision).and_then(|_| op.sdp(cfg, sd))?,
        Launch::Pdp(d) => {
            let b = bytes(d.precision)?;
            op.transfer(Block::Pdp, d.src, [d.c, d.in_h, d.in_w, b], Feature)?;
            let work = [d.c, d.out_h, d.out_w, d.k, d.k];
            op.compute(Block::Pdp, pp_cycles(cfg, work), 0)?;
            op.transfer(Block::Pdp, d.dst, [d.c, d.out_h, d.out_w, b], Output)?;
        }
        Launch::Cdp(d) => {
            let surface = [d.c, d.h, d.w, bytes(d.precision)?];
            op.transfer(Block::Cdp, d.src, surface, Feature)?;
            let work = [d.c, d.h, d.w, d.local_size];
            op.compute(Block::Cdp, pp_cycles(cfg, work), 0)?;
            op.transfer(Block::Cdp, d.dst, surface, Output)?;
        }
        // A copy waits out the fixed latency.
        Launch::Copy(block, d) => {
            op.transfer(*block, d.src, [d.len], Feature)?;
            op.compute(*block, Some(cfg.op_latency), 0)?;
            op.transfer(*block, d.dst, [d.len], Output)?;
        }
    }
    Ok(op)
}

/// The product of `factors`, if it fits `u64`.
fn product<const N: usize>(factors: [u32; N]) -> Option<u64> {
    factors
        .into_iter()
        .try_fold(1u64, |n, x| n.checked_mul(u64::from(x)))
}

/// Compute cycles for one convolution.
fn conv_cycles(cfg: &HwConfig, d: &ConvDesc) -> Option<u64> {
    let c_steps = (d.in_c / d.groups).max(1).div_ceil(cfg.atomic_c);
    let k_steps = (d.out_c / d.groups).max(1).div_ceil(cfg.atomic_k);
    let per_group = product([d.out_h, d.out_w, d.kh, d.kw, c_steps, k_steps])?;
    let cycles = per_group.checked_mul(d.groups.into())?;
    cycles.checked_add(cfg.op_latency)
}

/// Weight passes forced by the convolution buffer: weights stream
/// through half of CBUF (the other half holds feature data), so each
/// pass after the first re-fetches the feature tile.
fn cbuf_passes(cfg: &HwConfig, weight_bytes: u32) -> u32 {
    let half = cfg.cbuf_kib * 1024 / 2;
    weight_bytes.div_ceil(half).max(1)
}

/// Compute cycles for `product(work)` post-processor elements.
fn pp_cycles<const N: usize>(cfg: &HwConfig, work: [u32; N]) -> Option<u64> {
    let cycles = product(work)?.div_ceil(u64::from(cfg.pp_throughput));
    cycles.checked_add(cfg.op_latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::{CdpDesc, CopyDesc, Descriptor, Field, PdpDesc};
    use rvnv_util::SplitMix64;
    use std::collections::HashMap;

    fn conv_desc(in_c: u32, out_c: u32, hw: u32, k: u32, groups: u32) -> ConvDesc {
        ConvDesc {
            in_w: hw,
            in_h: hw,
            in_c,
            wt_bytes: out_c * (in_c / groups) * k * k,
            stride: 1,
            out_w: hw - k + 1,
            out_h: hw - k + 1,
            out_c,
            kw: k,
            kh: k,
            groups,
            ..ConvDesc::default()
        }
    }

    /// Conv cycles past the fixed latency.
    fn mac_cycles(cfg: &HwConfig, d: &ConvDesc) -> u64 {
        conv_cycles(cfg, d).unwrap() - cfg.op_latency
    }

    #[test]
    fn full_channels_hit_peak_rate() {
        let cfg = HwConfig::nv_small();
        // 8 in, 8 out exactly fills the 8x8 array: 1 MAC-cycle per tap.
        let d = conv_desc(8, 8, 10, 3, 1);
        let cycles = mac_cycles(&cfg, &d);
        assert_eq!(cycles, 8 * 8 * 9);
        // Equals MACs / peak MACs.
        assert_eq!(cycles, d.macs() / u64::from(cfg.atomic_c * cfg.atomic_k));
    }

    #[test]
    fn shallow_input_wastes_lanes() {
        let cfg = HwConfig::nv_small();
        // 1 input channel still occupies a full atomic-C slot.
        let d = conv_desc(1, 8, 10, 3, 1);
        let cycles = mac_cycles(&cfg, &d);
        let ideal = d.macs() / u64::from(cfg.atomic_c * cfg.atomic_k);
        assert_eq!(cycles, 8 * 8 * 9);
        assert_eq!(cycles, ideal * 8, "1/8 utilization on 1-channel input");
    }

    #[test]
    fn depthwise_is_inefficient() {
        let cfg = HwConfig::nv_full();
        // Depthwise 64 channels: each group uses 1 of 64 lanes.
        let dw = conv_desc(64, 64, 16, 3, 64);
        let dense = conv_desc(64, 64, 16, 3, 1);
        // Per-group utilization is 1/(atomic_c) on the C axis and
        // 1/atomic_k on the K axis; expect a >25x penalty on the MAC
        // time itself (the fixed op latency is common to both).
        let (dw_macs, dense_macs) = (mac_cycles(&cfg, &dw), mac_cycles(&cfg, &dense));
        assert!(dw_macs > dense_macs * 25, "{dw_macs} vs {dense_macs}");
    }

    #[test]
    fn nv_full_is_faster_than_nv_small() {
        let d = conv_desc(64, 64, 32, 3, 1);
        let t_small = conv_cycles(&HwConfig::nv_small(), &d).unwrap();
        let t_full = conv_cycles(&HwConfig::nv_full(), &d).unwrap();
        assert!(
            t_small > t_full * 10,
            "small {t_small} vs full {t_full}: expect >10x"
        );
    }

    #[test]
    fn cbuf_passes_scale_with_weight_size() {
        let cfg = HwConfig::nv_small(); // 64 KiB half-buffer
        assert_eq!(cbuf_passes(&cfg, 0), 1);
        assert_eq!(cbuf_passes(&cfg, 64 * 1024), 1);
        assert_eq!(cbuf_passes(&cfg, 64 * 1024 + 1), 2);
        assert_eq!(cbuf_passes(&cfg, 400 * 1024), 7);
    }

    #[test]
    fn post_processor_throughput_divides() {
        let d = SdpDesc {
            src_mode: SdpSrc::Memory,
            w: 32,
            h: 32,
            c: 16,
            ..SdpDesc::default()
        };
        let cycles = |cfg: &HwConfig| pp_cycles(cfg, [d.c, d.h, d.w]).unwrap() - cfg.op_latency;
        assert_eq!(cycles(&HwConfig::nv_small()), 16 * 32 * 32);
        assert_eq!(cycles(&HwConfig::nv_full()), 16 * 32 * 32 / 16);
    }

    /// A register value for `field`: its minimum, a small value, its
    /// maximum or random bits.
    fn draw(rng: &mut SplitMix64, field: &Field) -> u32 {
        let v = match rng.below(8) {
            0 => field.min,
            1..=4 => field.min + rng.next_u32() % 8,
            5 => field.max(),
            _ => rng.next_u32(),
        };
        v & field.max()
    }

    /// Random in-range register files, until 10⁴ per launching block
    /// decode, plan on both configurations without a panic, and every
    /// plan keeps its transfers inside the 32-bit address space. Half
    /// the conv files give the SDP the conv's output surface, so convs
    /// plan too.
    #[test]
    fn random_register_files_plan_without_panicking() {
        let mut rng = SplitMix64::new(0x41);
        let launching: [(Block, &[&[Field]]); 6] = [
            (Block::Cacc, &[ConvDesc::FIELDS, SdpDesc::FIELDS]),
            (Block::Sdp, &[SdpDesc::FIELDS]),
            (Block::Pdp, &[PdpDesc::FIELDS]),
            (Block::Cdp, &[CdpDesc::FIELDS]),
            (Block::Rubik, &[CopyDesc::FIELDS]),
            (Block::Bdma, &[CopyDesc::FIELDS]),
        ];
        let (sdp, csc) = (Block::Sdp.base(), Block::Csc.base());
        for (block, tables) in launching {
            let (mut decoded, mut planned) = (0, 0);
            while decoded < 10_000 {
                let mut file = HashMap::new();
                for field in tables.iter().copied().flatten() {
                    // The copy table sits in RUBIK; BDMA has the same layout.
                    let at = if field.block == Block::Rubik {
                        block
                    } else {
                        field.block
                    };
                    let addr = at.base() + field.offset;
                    *file.entry(addr).or_insert(0) |= draw(&mut rng, field) << field.lo;
                }
                if block == Block::Cacc && rng.chance(1, 2) {
                    file.insert(sdp + 0x24, file[&(csc + 0x14)]);
                    file.insert(sdp + 0x28, file[&(csc + 0x18)]);
                }
                let read = |a| file.get(&a).copied().unwrap_or(0);
                let Ok(Some(launch)) = Launch::decode(block, read) else {
                    continue;
                };
                decoded += 1;
                for cfg in [HwConfig::nv_small(), HwConfig::nv_full()] {
                    let Ok(op) = plan(&launch, &cfg) else {
                        continue;
                    };
                    planned += 1;
                    for step in op.steps() {
                        if let Step::Transfer(t) = step {
                            assert!(u64::from(t.addr) + t.len <= 1 << 32, "{launch:?}");
                        }
                    }
                }
            }
            assert!(
                planned >= 500,
                "{block:?}: {decoded} decoded, {planned} planned"
            );
        }
    }
}
