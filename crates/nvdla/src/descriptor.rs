//! Hardware operation descriptors and the CSB register table they are
//! written in.
//!
//! When firmware writes `OP_ENABLE`, the engine latches its `D_*`
//! registers into one of these descriptors — the software-visible
//! contract between the compiler-generated traces and the hardware
//! model. Each descriptor's register layout is written once, as the
//! field table of its declaration below (block, offset, bit range,
//! lowest legal value), in address order. [`Descriptor::encode`] (the
//! compiler's and the test traces' register writes) and
//! [`Descriptor::decode`] (the accelerator's latch) both derive from it:
//! encoding rejects a value wider than its field, decoding rejects one
//! below its field's minimum, and neither clamps. A descriptor's
//! `Default` is what an all-zero (power-on) register file holds.

use std::error::Error;
use std::fmt;

use crate::config::Precision;
use crate::regs::Block;
use rvnv_nn::conv::ConvGeom;

/// One descriptor field's place in the CSB map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    /// `Descriptor.field`.
    pub name: &'static str,
    /// Register block.
    pub block: Block,
    /// Register offset within the block.
    pub offset: u32,
    /// Lowest bit of the field in its register.
    pub lo: u32,
    /// Width in bits.
    pub bits: u32,
    /// Smallest value the hardware accepts.
    pub min: u32,
    /// Slave-error reason for a decoded value below `min`.
    below_min: &'static str,
}

impl Field {
    /// CSB byte address of the field's register.
    #[must_use]
    pub fn addr(&self) -> u32 {
        self.block.base() + self.offset
    }

    /// Largest value the field holds.
    #[must_use]
    pub fn max(&self) -> u32 {
        u32::MAX >> (32 - self.bits)
    }
}

/// A descriptor value its register field cannot hold (encoding) or the
/// hardware rejects (decoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DescError {
    /// Encoding: `value` is wider than `field`.
    TooWide { field: &'static Field, value: u32 },
    /// Decoding: `value` is below `field`'s minimum — for a conv's
    /// weight bytes, the bytes its geometry reads.
    BelowMin { field: &'static Field, value: u32 },
}

impl DescError {
    /// The reason the accelerator reports in its slave error.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self {
            DescError::TooWide { .. } => "descriptor value wider than its register field",
            DescError::BelowMin { field, .. } => field.below_min,
        }
    }
}

impl fmt::Display for DescError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DescError::TooWide { field, value } => {
                let (name, bits) = (field.name, field.bits);
                write!(f, "{name} = {value} does not fit its {bits} bits")
            }
            DescError::BelowMin { field, value } => write!(f, "{}: {value}", field.below_min),
        }
    }
}

impl Error for DescError {}

/// A field value as register bits.
pub trait FieldValue: Copy {
    /// The value's bits.
    fn to_bits(self) -> u32;
    /// The value of `bits`, already cut to the field's width.
    fn from_bits(bits: u32) -> Self;
}

impl FieldValue for u32 {
    fn to_bits(self) -> u32 {
        self
    }
    fn from_bits(bits: u32) -> Self {
        bits
    }
}

impl FieldValue for f32 {
    fn to_bits(self) -> u32 {
        f32::to_bits(self)
    }
    fn from_bits(bits: u32) -> Self {
        f32::from_bits(bits)
    }
}

/// A one-bit field: `$zero` is 0, `$one` is 1.
macro_rules! bit_value {
    ($ty:ident: $zero:ident, $one:ident) => {
        impl FieldValue for $ty {
            fn to_bits(self) -> u32 {
                u32::from(self == $ty::$one)
            }
            fn from_bits(bits: u32) -> Self {
                [$ty::$zero, $ty::$one][(bits & 1) as usize]
            }
        }
    };
}

bit_value!(Precision: Int8, Fp16);
bit_value!(SdpSrc: Flying, Memory);
bit_value!(PoolKind: Max, Avg);

/// An operation descriptor and its register table.
pub trait Descriptor: Sized {
    /// The register table: one row per struct field, in address order.
    const FIELDS: &'static [Field];
    /// Engine blocks whose `OP_ENABLE` launches the operation, in order.
    const LAUNCH: &'static [Block];

    /// The register writes that program the descriptor: `(CSB address,
    /// value)`, one per register, in address order.
    ///
    /// # Errors
    ///
    /// [`DescError::TooWide`] when a value does not fit its field.
    fn encode(&self) -> Result<Vec<(u32, u32)>, DescError>;

    /// Latch the descriptor from a register file (`read` maps a CSB
    /// address to its value), reading each register once.
    ///
    /// # Errors
    ///
    /// [`DescError::BelowMin`] when the hardware rejects the operation.
    fn decode(read: impl FnMut(u32) -> u32) -> Result<Self, DescError>;

    /// Whether [`Descriptor::encode`] writes `field`: all of them, unless
    /// the operation's mode leaves a register unused.
    fn writes(&self, _field: &Field) -> bool {
        true
    }

    /// Rules across fields, applied by [`Descriptor::decode`] after each
    /// field's own minimum.
    ///
    /// # Errors
    ///
    /// The [`DescError`] the hardware reports.
    fn check(&self) -> Result<(), DescError> {
        Ok(())
    }
}

/// Pack `values` (one per row of `fields`) into register writes, leaving
/// out the rows `writes` declines.
fn encode_fields(
    fields: &'static [Field],
    values: &[u32],
    addr: impl Fn(&Field) -> u32,
    writes: impl Fn(&Field) -> bool,
) -> Result<Vec<(u32, u32)>, DescError> {
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(fields.len());
    for (field, &value) in fields.iter().zip(values).filter(|(f, _)| writes(f)) {
        if value > field.max() {
            return Err(DescError::TooWide { field, value });
        }
        let (a, bits) = (addr(field), value << field.lo);
        match out.last_mut() {
            Some((last, word)) if *last == a => *word |= bits,
            _ => out.push((a, bits)),
        }
    }
    Ok(out)
}

/// Unpack `fields` into `values`, reading each register once and
/// checking each field's minimum.
fn decode_fields(
    fields: &'static [Field],
    values: &mut [u32],
    addr: impl Fn(&Field) -> u32,
    mut read: impl FnMut(u32) -> u32,
) -> Result<(), DescError> {
    let mut reg = (u32::MAX, 0);
    for (field, value) in fields.iter().zip(values) {
        let a = addr(field);
        if reg.0 != a {
            reg = (a, read(a));
        }
        *value = (reg.1 >> field.lo) & field.max();
        if *value < field.min {
            return Err(DescError::BelowMin {
                field,
                value: *value,
            });
        }
    }
    Ok(())
}

/// Declare a descriptor struct with its register table: each row reads
/// `field: type = (block, offset, lo..hi, min) "doc"`, and `launch`
/// lists the blocks whose `OP_ENABLE` starts the operation. Methods
/// after the table override [`Descriptor::writes`] or
/// [`Descriptor::check`].
macro_rules! descriptor {
    (
        $(#[$meta:meta])*
        pub struct $name:ident launch [$($launch:ident),*] {
            $(
                $field:ident: $ty:ty =
                    ($block:ident, $offset:literal, $lo:literal..$hi:literal, $min:literal) $doc:literal,
            )*
        }
        $($hooks:tt)*
    ) => {
        $(#[$meta])*
        pub struct $name {
            $(#[doc = $doc] pub $field: $ty,)*
        }

        impl $name {
            const ROWS: usize = [$(stringify!($field)),*].len();

            fn values(&self) -> [u32; $name::ROWS] {
                [$(FieldValue::to_bits(self.$field)),*]
            }

            fn from_values([$($field),*]: [u32; $name::ROWS]) -> Self {
                $name { $($field: FieldValue::from_bits($field)),* }
            }

            fn encode_at(&self, addr: impl Fn(&Field) -> u32) -> Result<Vec<(u32, u32)>, DescError> {
                encode_fields(Self::FIELDS, &self.values(), addr, |f| self.writes(f))
            }

            fn decode_at(addr: impl Fn(&Field) -> u32, read: impl FnMut(u32) -> u32) -> Result<Self, DescError> {
                let mut values = [0; $name::ROWS];
                decode_fields(Self::FIELDS, &mut values, addr, read)?;
                let desc = $name::from_values(values);
                desc.check().map(|()| desc)
            }
        }

        impl Descriptor for $name {
            const FIELDS: &'static [Field] = &[$(Field {
                name: concat!(stringify!($name), ".", stringify!($field)),
                block: Block::$block,
                offset: $offset,
                lo: $lo,
                bits: $hi - $lo,
                min: $min,
                below_min: concat!(stringify!($name), ".", stringify!($field), " below its minimum"),
            }),*];
            const LAUNCH: &'static [Block] = &[$(Block::$launch),*];

            fn encode(&self) -> Result<Vec<(u32, u32)>, DescError> {
                self.encode_at(Field::addr)
            }

            fn decode(read: impl FnMut(u32) -> u32) -> Result<Self, DescError> {
                Self::decode_at(Field::addr, read)
            }

            $($hooks)*
        }
    };
}

descriptor! {
    /// A convolution through CDMA/CSC/CMAC/CACC. It writes out through
    /// its flying SDP, so the SDP is enabled (armed) first.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct ConvDesc launch [Sdp, Cacc] {
        src: u32 = (Cdma, 0x14, 0..32, 0) "Input feature DRAM address.",
        in_w: u32 = (Cdma, 0x18, 0..16, 1) "Input width.",
        in_h: u32 = (Cdma, 0x18, 16..32, 1) "Input height.",
        in_c: u32 = (Cdma, 0x1C, 0..32, 1) "Input channels (total).",
        wt_addr: u32 = (Cdma, 0x20, 0..32, 0) "Weight DRAM address.",
        wt_bytes: u32 = (Cdma, 0x24, 0..32, 0) "Weight bytes (at least the geometry's).",
        stride: u32 = (Cdma, 0x28, 0..32, 1) "Stride.",
        pad: u32 = (Cdma, 0x2C, 0..32, 0) "Zero padding.",
        in_scale: f32 = (Cdma, 0x30, 0..32, 0) "Input activation scale (INT8).",
        wt_scale: f32 = (Cdma, 0x34, 0..32, 0) "Weight scale (INT8).",
        out_w: u32 = (Csc, 0x14, 0..16, 1) "Output width.",
        out_h: u32 = (Csc, 0x14, 16..32, 1) "Output height.",
        out_c: u32 = (Csc, 0x18, 0..32, 1) "Output channels (total).",
        kw: u32 = (Csc, 0x1C, 0..16, 1) "Kernel width.",
        kh: u32 = (Csc, 0x1C, 16..32, 1) "Kernel height.",
        groups: u32 = (Csc, 0x20, 0..32, 1) "Group count.",
        precision: Precision = (Cmac, 0x14, 0..1, 0) "Operating precision.",
    }

    /// The weight bytes cover `out_c × in_c/groups × kh × kw` weights.
    fn check(&self) -> Result<(), DescError> {
        let need = [self.out_c, self.in_c / self.groups, self.kh, self.kw, self.precision.bytes()]
            .into_iter()
            .fold(1u128, |n, x| n * u128::from(x));
        if u128::from(self.wt_bytes) < need {
            let field = &Self::FIELDS[5]; // wt_bytes
            return Err(DescError::BelowMin { field, value: self.wt_bytes });
        }
        Ok(())
    }
}

impl ConvDesc {
    /// The convolution's shape, as the kernels take it.
    #[must_use]
    pub fn geom(&self) -> ConvGeom {
        ConvGeom {
            in_c: self.in_c as usize,
            in_h: self.in_h as usize,
            in_w: self.in_w as usize,
            out_c: self.out_c as usize,
            out_h: self.out_h as usize,
            out_w: self.out_w as usize,
            kh: self.kh as usize,
            kw: self.kw as usize,
            stride: self.stride as usize,
            pad: self.pad as usize,
            groups: self.groups as usize,
        }
    }

    /// Multiply-accumulates for the whole operation.
    #[must_use]
    pub fn macs(&self) -> u64 {
        let in_per_group = u64::from(self.in_c / self.groups);
        u64::from(self.out_c)
            * u64::from(self.out_h)
            * u64::from(self.out_w)
            * in_per_group
            * u64::from(self.kh)
            * u64::from(self.kw)
    }
}

/// SDP source selection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SdpSrc {
    /// On-the-fly from the convolution accumulator.
    #[default]
    Flying,
    /// From memory.
    Memory,
}

descriptor! {
    /// A single-point (bias/BN/ReLU/eltwise) operation.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct SdpDesc launch [Sdp] {
        src_mode: SdpSrc = (Sdp, 0x14, 0..1, 0) "Data source.",
        src: u32 = (Sdp, 0x18, 0..32, 0) "Source address (memory mode).",
        src2: u32 = (Sdp, 0x1C, 0..32, 0) "Second source (eltwise).",
        dst: u32 = (Sdp, 0x20, 0..32, 0) "Destination address.",
        w: u32 = (Sdp, 0x24, 0..16, 1) "Width.",
        h: u32 = (Sdp, 0x24, 16..32, 1) "Height.",
        c: u32 = (Sdp, 0x28, 0..32, 1) "Channels.",
        bs_addr: u32 = (Sdp, 0x2C, 0..32, 0) "Bias/scale table: per channel, f32 scale then f32 shift.",
        flags: u32 = (Sdp, 0x30, 0..3, 0) "Flags: `regs::SDP_FLAG_*` bits.",
        out_scale: f32 = (Sdp, 0x34, 0..32, 0) "Output scale (INT8).",
        in_scale: f32 = (Sdp, 0x38, 0..32, 0) "Input scale (INT8 memory mode).",
        in2_scale: f32 = (Sdp, 0x3C, 0..32, 0) "Second-input scale (INT8 eltwise).",
        precision: Precision = (Sdp, 0x40, 0..1, 0) "Operating precision.",
    }

    /// A flying SDP takes its input from the accumulator, so its source
    /// address and input scale are memory mode's alone.
    fn writes(&self, field: &Field) -> bool {
        self.src_mode == SdpSrc::Memory
            || !matches!(field.name, "SdpDesc.src" | "SdpDesc.in_scale")
    }
}

impl SdpDesc {
    /// Surface elements.
    #[must_use]
    pub fn elems(&self) -> usize {
        self.c as usize * self.h as usize * self.w as usize
    }

    /// Whether flag `bit` is set.
    #[must_use]
    pub fn has(&self, bit: u32) -> bool {
        self.flags & bit != 0
    }
}

/// Pooling kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PoolKind {
    /// Maximum.
    #[default]
    Max,
    /// Average (Caffe semantics: divide by k², padding included).
    Avg,
}

descriptor! {
    /// A planar (pooling) operation.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct PdpDesc launch [Pdp] {
        src: u32 = (Pdp, 0x14, 0..32, 0) "Source address.",
        dst: u32 = (Pdp, 0x18, 0..32, 0) "Destination address.",
        in_w: u32 = (Pdp, 0x1C, 0..16, 1) "Input width.",
        in_h: u32 = (Pdp, 0x1C, 16..32, 1) "Input height.",
        c: u32 = (Pdp, 0x20, 0..32, 1) "Channels.",
        kind: PoolKind = (Pdp, 0x24, 0..1, 0) "Pooling kind.",
        k: u32 = (Pdp, 0x24, 8..16, 1) "Kernel size.",
        stride: u32 = (Pdp, 0x24, 16..24, 1) "Stride.",
        pad: u32 = (Pdp, 0x24, 24..32, 0) "Padding.",
        out_w: u32 = (Pdp, 0x28, 0..16, 1) "Output width.",
        out_h: u32 = (Pdp, 0x28, 16..32, 1) "Output height.",
        precision: Precision = (Pdp, 0x2C, 0..1, 0) "Operating precision.",
    }
}

impl PdpDesc {
    /// Output elements.
    #[must_use]
    pub fn out_elems(&self) -> usize {
        self.c as usize * self.out_h as usize * self.out_w as usize
    }
}

descriptor! {
    /// A channel (LRN) operation.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct CdpDesc launch [Cdp] {
        src: u32 = (Cdp, 0x14, 0..32, 0) "Source address.",
        dst: u32 = (Cdp, 0x18, 0..32, 0) "Destination address.",
        w: u32 = (Cdp, 0x1C, 0..16, 1) "Width.",
        h: u32 = (Cdp, 0x1C, 16..32, 1) "Height.",
        c: u32 = (Cdp, 0x20, 0..32, 1) "Channels.",
        local_size: u32 = (Cdp, 0x24, 0..32, 1) "LRN window (odd).",
        alpha: f32 = (Cdp, 0x28, 0..32, 0) "Alpha.",
        beta: f32 = (Cdp, 0x2C, 0..32, 0) "Beta.",
        k: f32 = (Cdp, 0x30, 0..32, 0) "K.",
        precision: Precision = (Cdp, 0x34, 0..1, 0) "Operating precision.",
        in_scale: f32 = (Cdp, 0x38, 0..32, 0) "Input scale (INT8).",
        out_scale: f32 = (Cdp, 0x3C, 0..32, 0) "Output scale (INT8).",
    }
}

impl CdpDesc {
    /// Surface elements.
    #[must_use]
    pub fn elems(&self) -> usize {
        self.c as usize * self.h as usize * self.w as usize
    }
}

descriptor! {
    /// A contiguous copy. RUBIK and BDMA share this layout; the table
    /// places it in RUBIK, and [`CopyDesc::encode_on`] /
    /// [`CopyDesc::decode_on`] move it to either engine.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CopyDesc launch [Rubik] {
        src: u32 = (Rubik, 0x14, 0..32, 0) "Source address.",
        dst: u32 = (Rubik, 0x18, 0..32, 0) "Destination address.",
        len: u32 = (Rubik, 0x1C, 0..32, 0) "Bytes to move.",
    }
}

impl CopyDesc {
    /// [`Descriptor::encode`] into the copy engine `block`.
    ///
    /// # Errors
    ///
    /// As [`Descriptor::encode`].
    pub fn encode_on(&self, block: Block) -> Result<Vec<(u32, u32)>, DescError> {
        self.encode_at(|f| block.base() + f.offset)
    }

    /// [`Descriptor::decode`] from the copy engine `block`.
    ///
    /// # Errors
    ///
    /// As [`Descriptor::decode`].
    pub fn decode_on(block: Block, read: impl FnMut(u32) -> u32) -> Result<Self, DescError> {
        Self::decode_at(|f| block.base() + f.offset, read)
    }
}

/// The operation an `OP_ENABLE` write starts, latched from the
/// registers.
#[derive(Debug, Clone, PartialEq)]
pub enum Launch {
    /// CACC: a convolution and the flying SDP it writes through.
    Conv(ConvDesc, SdpDesc),
    /// SDP: arms a flying SDP, or runs a memory-sourced one.
    Sdp(SdpDesc),
    /// PDP pooling.
    Pdp(PdpDesc),
    /// CDP LRN.
    Cdp(CdpDesc),
    /// RUBIK or BDMA copy.
    Copy(Block, CopyDesc),
}

impl Launch {
    /// Decode what enabling `block` launches; `None` for blocks that
    /// take an enable but start nothing (GLB, and CDMA/CSC/CMAC, which
    /// start with CACC).
    ///
    /// # Errors
    ///
    /// The [`DescError`] of the first descriptor the hardware rejects.
    pub fn decode(
        block: Block,
        mut read: impl FnMut(u32) -> u32,
    ) -> Result<Option<Self>, DescError> {
        Ok(Some(match block {
            Block::Cacc => Launch::Conv(ConvDesc::decode(&mut read)?, SdpDesc::decode(read)?),
            Block::Sdp => Launch::Sdp(SdpDesc::decode(read)?),
            Block::Pdp => Launch::Pdp(PdpDesc::decode(read)?),
            Block::Cdp => Launch::Cdp(CdpDesc::decode(read)?),
            Block::Rubik | Block::Bdma => Launch::Copy(block, CopyDesc::decode_on(block, read)?),
            Block::Glb | Block::Cdma | Block::Csc | Block::Cmac => return Ok(None),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::{self, SDP_FLAG_BIAS, SDP_FLAG_RELU};
    use std::collections::BTreeMap;

    const TABLES: [&[Field]; 5] = [
        ConvDesc::FIELDS,
        SdpDesc::FIELDS,
        PdpDesc::FIELDS,
        CdpDesc::FIELDS,
        CopyDesc::FIELDS,
    ];

    #[test]
    fn table_is_well_formed() {
        let mut used: BTreeMap<u32, u32> = BTreeMap::new();
        for table in TABLES {
            for pair in table.windows(2) {
                let key = |f: &Field| (f.addr(), f.lo);
                assert!(
                    key(&pair[0]) < key(&pair[1]),
                    "{} after {}",
                    pair[0].name,
                    pair[1].name
                );
            }
            for f in table {
                assert!(f.bits >= 1 && f.lo + f.bits <= 32, "{} bits", f.name);
                assert!(f.min <= f.max(), "{} bounds", f.name);
                assert_ne!(f.block, Block::Glb, "{}", f.name);
                assert!(
                    f.offset != regs::REG_STATUS && f.offset != regs::REG_OP_ENABLE,
                    "{} sits on a shared engine register",
                    f.name
                );
                let bits = used.entry(f.addr()).or_default();
                assert_eq!(
                    *bits & f.max() << f.lo,
                    0,
                    "{} overlaps another field",
                    f.name
                );
                *bits |= f.max() << f.lo;
            }
        }
    }

    /// `decode ∘ encode` is the identity on every field a base writes,
    /// with each field in turn at its minimum, its maximum and a mid
    /// value; where that breaks a rule across fields, decoding fails as
    /// `check` does. `bases` maps a descriptor with every field at 9 (or
    /// its maximum) to the bases. Registers start all-ones, so a field
    /// encode forgets to write decodes as all-ones, never as a
    /// plausible zero.
    macro_rules! assert_round_trips {
        ($ty:ident, $bases:expr) => {{
            let small = $ty::from_values(std::array::from_fn(|i| $ty::FIELDS[i].max().min(9)));
            for base in $bases(small) {
                for (i, field) in $ty::FIELDS.iter().enumerate() {
                    let mid = field.min.max(0xA5A5_A5A5 & field.max());
                    for v in [field.min, field.max(), mid] {
                        let mut values = base.values();
                        values[i] = v;
                        let d = $ty::from_values(values);
                        let file: BTreeMap<u32, u32> = d.encode().unwrap().into_iter().collect();
                        let back = $ty::decode(|a| file.get(&a).copied().unwrap_or(u32::MAX));
                        let Ok(back) = back else {
                            assert_eq!(back.err(), d.check().err(), "{} = {v:#x}", field.name);
                            continue;
                        };
                        for ((f, got), want) in $ty::FIELDS.iter().zip(back.values()).zip(values) {
                            let want = if d.writes(f) { want } else { f.max() };
                            assert_eq!(got, want, "{} with {} = {v:#x}", f.name, field.name);
                        }
                    }
                }
            }
        }};
    }

    #[test]
    fn every_descriptor_round_trips_through_its_registers() {
        assert_round_trips!(ConvDesc, |s| [ConvDesc {
            wt_bytes: u32::MAX,
            ..s
        }]);
        let flags = SDP_FLAG_RELU | SDP_FLAG_BIAS;
        assert_round_trips!(SdpDesc, |s: SdpDesc| [
            SdpDesc {
                src_mode: SdpSrc::Memory,
                flags,
                ..s.clone()
            },
            SdpDesc {
                src_mode: SdpSrc::Flying,
                ..s
            },
        ]);
        let (kind, k, stride, pad) = (PoolKind::Avg, 3, 2, 1);
        assert_round_trips!(PdpDesc, |s| [PdpDesc {
            kind,
            k,
            stride,
            pad,
            ..s
        }]);
        assert_round_trips!(CdpDesc, |s| [s]);
        assert_round_trips!(CopyDesc, |s| [s]);
    }

    #[test]
    fn writes_are_one_per_register_in_address_order() {
        let memory = SdpDesc::from_values([1; SdpDesc::ROWS]);
        let flying = SdpDesc {
            src_mode: SdpSrc::Flying,
            ..memory.clone()
        };
        let conv = ConvDesc::from_values([1; ConvDesc::ROWS]);
        let addrs = |writes: Vec<(u32, u32)>| writes.into_iter().map(|w| w.0).collect::<Vec<_>>();
        let (conv, memory) = (
            addrs(conv.encode().unwrap()),
            addrs(memory.encode().unwrap()),
        );
        let flying = addrs(flying.encode().unwrap());
        for addrs in [&conv, &memory, &flying] {
            assert!(addrs.windows(2).all(|p| p[0] < p[1]), "{addrs:x?}");
        }
        assert_eq!((conv.len(), memory.len(), flying.len()), (14, 12, 10));
        // A flying SDP writes neither the memory source nor its scale.
        assert!(!flying.contains(&(Block::Sdp.base() + 0x18)));
        assert!(!flying.contains(&(Block::Sdp.base() + 0x38)));
        let copy = CopyDesc {
            src: 1,
            dst: 2,
            len: 3,
        };
        let writes = copy.encode_on(Block::Bdma).unwrap();
        let bdma = Block::Bdma.base();
        assert_eq!(
            writes,
            [(bdma + 0x14, 1), (bdma + 0x18, 2), (bdma + 0x1C, 3)]
        );
        let file: BTreeMap<u32, u32> = writes.into_iter().collect();
        assert_eq!(CopyDesc::decode_on(Block::Bdma, |a| file[&a]), Ok(copy));
    }

    #[test]
    fn values_wider_than_their_fields_do_not_encode() {
        let pool = PdpDesc {
            k: 256,
            ..PdpDesc::from_values([1; PdpDesc::ROWS])
        };
        let e = pool.encode().unwrap_err();
        assert!(matches!(e, DescError::TooWide { field, value: 256 } if field.name == "PdpDesc.k"));
        let wide = ConvDesc {
            in_w: 1 << 16,
            ..ConvDesc::from_values([1; ConvDesc::ROWS])
        };
        let e = wide.encode().unwrap_err().to_string();
        assert!(e.starts_with("ConvDesc.in_w = 65536"), "{e}");
    }

    /// The packed words unpack field by field, and a zero stride or
    /// group count is an error (it once decoded as 1).
    #[test]
    fn conv_desc_decodes_packed_fields() {
        let at = |name: &str| {
            ConvDesc::FIELDS
                .iter()
                .find(|f| f.name == name)
                .unwrap()
                .addr()
        };
        let mut file: BTreeMap<u32, u32> = [
            ("ConvDesc.in_w", 28 | (14 << 16)),
            ("ConvDesc.in_c", 3),
            ("ConvDesc.wt_bytes", 20 * 3 * 25 * 2),
            ("ConvDesc.in_scale", 1.5f32.to_bits()),
            ("ConvDesc.out_w", 13 | (6 << 16)),
            ("ConvDesc.out_c", 20),
            ("ConvDesc.kw", 5 | (5 << 16)),
            ("ConvDesc.precision", 1),
        ]
        .into_iter()
        .map(|(name, v)| (at(name), v))
        .collect();
        let decode =
            |file: &BTreeMap<u32, u32>| ConvDesc::decode(|a| file.get(&a).copied().unwrap_or(0));
        let below = |e: DescError| match e {
            DescError::BelowMin { field, .. } => field.name,
            other => panic!("{other}"),
        };
        assert_eq!(below(decode(&file).unwrap_err()), "ConvDesc.stride");
        file.insert(at("ConvDesc.stride"), 1);
        assert_eq!(below(decode(&file).unwrap_err()), "ConvDesc.groups");
        file.insert(at("ConvDesc.groups"), 1);
        let d = decode(&file).unwrap();
        assert_eq!((d.in_w, d.in_h, d.in_c), (28, 14, 3));
        assert_eq!((d.out_w, d.out_h, d.out_c), (13, 6, 20));
        assert_eq!((d.kw, d.kh), (5, 5));
        assert_eq!(d.precision, Precision::Fp16);
        assert_eq!(d.in_scale, 1.5);
        assert_eq!(d.macs(), 20 * 6 * 13 * 3 * 25);
        file.insert(at("ConvDesc.wt_bytes"), 20 * 3 * 25 * 2 - 1);
        assert_eq!(below(decode(&file).unwrap_err()), "ConvDesc.wt_bytes");
    }
}
