//! DRAM memory layout: bump allocator and the weight-file image.
//!
//! Addresses are NVDLA-local DRAM offsets (the CPU reaches the same
//! bytes at `0x10_0000 + offset` through the system-bus DRAM window).

use std::fmt;

use rvnv_nn::hash::Fnv;

/// Alignment of every allocation (one DBB burst).
pub const ALLOC_ALIGN: u32 = 64;

/// A bump allocator over the DRAM data region.
#[derive(Debug, Clone)]
pub struct Allocator {
    next: u32,
    limit: u32,
}

/// Error: the model does not fit in DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested.
    pub requested: u32,
    /// Bytes remaining.
    pub remaining: u32,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DRAM exhausted: requested {} bytes, {} remaining",
            self.requested, self.remaining
        )
    }
}

impl std::error::Error for OutOfMemory {}

impl Allocator {
    /// An allocator over `[base, base + size)`.
    #[must_use]
    pub fn new(base: u32, size: u32) -> Self {
        Allocator {
            next: base,
            limit: base.saturating_add(size),
        }
    }

    /// Allocate `bytes`, aligned to [`ALLOC_ALIGN`].
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when the region is exhausted.
    pub fn alloc(&mut self, bytes: u32) -> Result<u32, OutOfMemory> {
        let base = self.next.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        let end = base.checked_add(bytes).ok_or(OutOfMemory {
            requested: bytes,
            remaining: self.limit - self.next,
        })?;
        if end > self.limit {
            return Err(OutOfMemory {
                requested: bytes,
                remaining: self.limit - self.next,
            });
        }
        self.next = end;
        Ok(base)
    }

    /// High-water mark (total bytes used from the region base).
    #[must_use]
    pub fn used(&self) -> u32 {
        self.next
    }
}

/// One contiguous segment of the weight file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// DRAM offset.
    pub addr: u32,
    /// Contents.
    pub bytes: Vec<u8>,
}

/// The deduplicated weight file: everything that must be preloaded into
/// DRAM before inference (quantized weights and bias/scale tables).
///
/// Append-only: [`WeightImage::push`] is the one mutator and `segments`
/// is private with no mutable accessor, which is what lets the image
/// carry its own content fingerprint instead of rehashing on demand.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WeightImage {
    segments: Vec<Segment>,
    /// Running fold of every pushed segment ([`WeightImage::fingerprint`]).
    hash: Fnv,
}

impl WeightImage {
    /// An empty image.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a segment, folding it into the content fingerprint.
    pub fn push(&mut self, addr: u32, bytes: Vec<u8>) {
        self.hash.mix(u64::from(addr));
        self.hash.bytes(&bytes);
        self.segments.push(Segment { addr, bytes });
    }

    /// All segments in emission order.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total payload bytes.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.bytes.len()).sum()
    }

    /// Content fingerprint over every segment's address, length **and
    /// payload bytes** ([`rvnv_nn::hash::Fnv`], folded 8 bytes per
    /// step). Two images with the same layout but different weight
    /// values — e.g. the same model compiled from different seeds — get
    /// different fingerprints; the SoC's resident-weights check keys on
    /// this. O(1): the fold happened in [`WeightImage::push`].
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.hash.finish()
    }

    /// Serialize as the on-disk `.bin` format: for each segment an
    /// 8-byte header (u32 addr, u32 len, little-endian) then payload.
    #[must_use]
    pub fn to_bin(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_bytes() + 8 * self.segments.len());
        for s in &self.segments {
            out.extend_from_slice(&s.addr.to_le_bytes());
            out.extend_from_slice(&(s.bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&s.bytes);
        }
        out
    }

    /// Parse the `.bin` format produced by [`WeightImage::to_bin`].
    ///
    /// # Errors
    ///
    /// Returns a description of the corruption on malformed input.
    pub fn from_bin(data: &[u8]) -> Result<Self, String> {
        let mut image = WeightImage::new();
        let mut pos = 0usize;
        while pos < data.len() {
            if pos + 8 > data.len() {
                return Err(format!("truncated segment header at {pos}"));
            }
            let addr = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes"));
            let len =
                u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes")) as usize;
            pos += 8;
            if pos + len > data.len() {
                return Err(format!("truncated segment payload at {pos}"));
            }
            image.push(addr, data[pos..pos + len].to_vec());
            pos += len;
        }
        Ok(image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_aligned_and_disjoint() {
        let mut a = Allocator::new(0x100, 0x1000);
        let x = a.alloc(10).unwrap();
        let y = a.alloc(100).unwrap();
        let z = a.alloc(1).unwrap();
        assert_eq!(x % ALLOC_ALIGN, 0);
        assert_eq!(y % ALLOC_ALIGN, 0);
        assert!(x + 10 <= y && y + 100 <= z);
    }

    #[test]
    fn out_of_memory_detected() {
        let mut a = Allocator::new(0, 128);
        a.alloc(64).unwrap();
        let e = a.alloc(128).unwrap_err();
        assert!(e.to_string().contains("exhausted"));
    }

    #[test]
    fn zero_sized_alloc_ok() {
        let mut a = Allocator::new(0, 64);
        let x = a.alloc(0).unwrap();
        let y = a.alloc(0).unwrap();
        assert_eq!(x, y, "zero-size allocations may share an address");
    }

    #[test]
    fn weight_image_bin_round_trip() {
        let mut img = WeightImage::new();
        img.push(0x40, vec![1, 2, 3]);
        img.push(0x1000, vec![9; 100]);
        let bin = img.to_bin();
        let back = WeightImage::from_bin(&bin).unwrap();
        assert_eq!(back, img);
        assert_eq!(back.total_bytes(), 103);
    }

    /// The from-scratch fold `fingerprint()` performed before the image
    /// carried a running hash; the incremental value must equal it.
    fn refold(img: &WeightImage) -> u64 {
        let mut h = Fnv::new();
        for s in img.segments() {
            h.mix(u64::from(s.addr));
            h.bytes(&s.bytes);
        }
        h.finish()
    }

    #[test]
    fn incremental_fingerprint_is_the_from_scratch_fold() {
        use crate::compile::{compile, CompileOptions};
        use rvnv_nn::zoo;
        assert_eq!(
            WeightImage::new().fingerprint(),
            refold(&WeightImage::new())
        );
        for net in [zoo::lenet5(1), zoo::resnet18_cifar(1)] {
            for mut opt in [CompileOptions::int8(), CompileOptions::fp16()] {
                opt.calib_inputs = 1;
                let mut img = compile(&net, &opt).expect("compile").weights;
                assert!(img.segments().len() > 1);
                assert_eq!(img.fingerprint(), refold(&img), "{}", net.name());
                let back = WeightImage::from_bin(&img.to_bin()).expect("parse");
                assert_eq!(back.fingerprint(), img.fingerprint(), "bin round trip");
                let before = img.fingerprint();
                img.push(0x7000_0000, vec![0]);
                assert_ne!(img.fingerprint(), before, "one more push moves it");
                assert_eq!(img.fingerprint(), refold(&img));
            }
        }
        let mut opt = CompileOptions::int8();
        opt.calib_inputs = 1;
        let seed1 = compile(&zoo::lenet5(1), &opt).expect("seed 1").weights;
        let seed2 = compile(&zoo::lenet5(2), &opt).expect("seed 2").weights;
        let layout = |w: &WeightImage| -> Vec<(u32, usize)> {
            (w.segments().iter().map(|s| (s.addr, s.bytes.len()))).collect()
        };
        assert_eq!(layout(&seed1), layout(&seed2), "same layout");
        assert_ne!(seed1.fingerprint(), seed2.fingerprint(), "other bytes");
    }

    #[test]
    fn corrupt_bin_rejected() {
        assert!(WeightImage::from_bin(&[1, 2, 3]).is_err());
        let mut img = WeightImage::new();
        img.push(0, vec![5; 16]);
        let mut bin = img.to_bin();
        bin.truncate(bin.len() - 1);
        assert!(WeightImage::from_bin(&bin).is_err());
    }
}
