//! System-bus address decoder.
//!
//! The paper's system bus assigns two address spaces (Section IV-A):
//!
//! * NVDLA configuration registers: `0x0000_0000 ..= 0x000F_FFFF`
//! * DRAM data memory:              `0x0010_0000 ..= 0x200F_FFFF` (512 MB)
//!
//! This decoder is generic: any number of non-overlapping regions, each
//! backed by a boxed [`Target`]. Slaves see region-local addresses (the
//! decoder subtracts the base), matching how the RTL decoder strips the
//! upper bits.

use crate::{BusError, Cycle, Payload, Request, Response, Target};

/// The paper's NVDLA CSB window base address.
pub const NVDLA_BASE: u32 = 0x0000_0000;
/// The paper's NVDLA CSB window size (1 MB covers all registers).
pub const NVDLA_SIZE: u32 = 0x0010_0000;
/// The paper's DRAM window base address.
pub const DRAM_BASE: u32 = 0x0010_0000;
/// The paper's DRAM window size (512 MB).
pub const DRAM_SIZE: u32 = 0x2000_0000;

/// One decoded address region.
struct Region {
    name: String,
    base: u32,
    size: u32,
    target: Box<dyn Target + Send>,
}

impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Region")
            .field("name", &self.name)
            .field("base", &format_args!("{:#010x}", self.base))
            .field("size", &format_args!("{:#x}", self.size))
            .finish_non_exhaustive()
    }
}

impl Region {
    fn contains(&self, addr: u32) -> bool {
        addr >= self.base && (addr - self.base) < self.size
    }

    fn overlaps(&self, base: u32, size: u32) -> bool {
        let a_end = u64::from(self.base) + u64::from(self.size);
        let b_end = u64::from(base) + u64::from(size);
        u64::from(self.base) < b_end && u64::from(base) < a_end
    }
}

/// Address decoder routing requests to region targets.
#[derive(Debug, Default)]
pub struct SystemBus {
    regions: Vec<Region>,
    decode_errors: u64,
}

impl SystemBus {
    /// An empty decoder.
    #[must_use]
    pub fn new() -> Self {
        SystemBus::default()
    }

    /// Add a region; fails if it overlaps an existing one or wraps the
    /// 32-bit address space.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::SlaveError`] on overlap and
    /// [`BusError::OutOfRange`] on wrap-around.
    pub fn add_region(
        &mut self,
        name: impl Into<String>,
        base: u32,
        size: u32,
        target: Box<dyn Target + Send>,
    ) -> Result<(), BusError> {
        if size == 0 || u64::from(base) + u64::from(size) > (1 << 32) {
            return Err(BusError::OutOfRange {
                addr: base,
                len: size as usize,
                size: usize::MAX,
            });
        }
        if self.regions.iter().any(|r| r.overlaps(base, size)) {
            return Err(BusError::SlaveError {
                addr: base,
                reason: "region overlaps an existing region",
            });
        }
        self.regions.push(Region {
            name: name.into(),
            base,
            size,
            target,
        });
        Ok(())
    }

    /// Name of the region decoding `addr`, if any.
    #[must_use]
    pub fn region_name(&self, addr: u32) -> Option<&str> {
        self.regions
            .iter()
            .find(|r| r.contains(addr))
            .map(|r| r.name.as_str())
    }

    /// Number of requests that decoded to no region.
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    fn route(&mut self, addr: u32, len: usize) -> Result<(&mut Region, u32), BusError> {
        let end = u64::from(addr) + len.max(1) as u64 - 1;
        let idx = self
            .regions
            .iter()
            .position(|r| r.contains(addr) && r.contains(end.min(u64::from(u32::MAX)) as u32));
        match idx {
            Some(i) => {
                let region = &mut self.regions[i];
                let local = addr - region.base;
                Ok((region, local))
            }
            None => {
                self.decode_errors += 1;
                Err(BusError::DecodeError { addr })
            }
        }
    }
}

impl Target for SystemBus {
    fn access(&mut self, req: &Request, now: Cycle) -> Result<Response, BusError> {
        let (region, local) = self.route(req.addr, req.size.bytes() as usize)?;
        let mut local_req = *req;
        local_req.addr = local;
        region.target.access(&local_req, now)
    }

    fn read_lease(&self, addr: u32, now: Cycle) -> Option<Cycle> {
        // Decode adds no cycles, so the lease passes through unshifted.
        let region = self.regions.iter().find(|r| r.contains(addr))?;
        region.target.read_lease(addr - region.base, now)
    }

    fn burst(&mut self, addr: u32, payload: Payload<'_>, now: Cycle) -> Result<Cycle, BusError> {
        // Each constituent burst decodes on its own, as a walk would.
        payload.walk(addr, now, |a, p, t| {
            let (region, local) = self.route(a, p.len())?;
            region.target.burst(local, p, t)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sram::Sram;

    fn paper_map() -> SystemBus {
        let mut bus = SystemBus::new();
        bus.add_region(
            "nvdla",
            NVDLA_BASE,
            NVDLA_SIZE,
            Box::new(Sram::new(NVDLA_SIZE as usize)),
        )
        .unwrap();
        bus.add_region("dram", DRAM_BASE, 0x1000, Box::new(Sram::new(0x1000)))
            .unwrap();
        bus
    }

    #[test]
    fn routes_by_region_with_local_addresses() {
        let mut bus = paper_map();
        // Write through the DRAM window; the slave sees a local address.
        bus.access(&Request::write32(DRAM_BASE + 8, 77), 0).unwrap();
        assert_eq!(
            bus.access(&Request::read32(DRAM_BASE + 8), 0)
                .unwrap()
                .data32(),
            77
        );
        // The same local offset in the NVDLA window is distinct.
        assert_eq!(bus.access(&Request::read32(8), 0).unwrap().data32(), 0);
    }

    #[test]
    fn region_names() {
        let bus = paper_map();
        assert_eq!(bus.region_name(0x42), Some("nvdla"));
        assert_eq!(bus.region_name(DRAM_BASE), Some("dram"));
        assert_eq!(bus.region_name(0xFFFF_FFFF), None);
    }

    #[test]
    fn unmapped_address_is_decode_error() {
        let mut bus = paper_map();
        let e = bus.access(&Request::read32(0x5000_0000), 0).unwrap_err();
        assert!(matches!(e, BusError::DecodeError { .. }));
        assert_eq!(bus.decode_errors(), 1);
    }

    #[test]
    fn overlapping_region_rejected() {
        let mut bus = paper_map();
        let e = bus
            .add_region("bad", NVDLA_SIZE - 4, 64, Box::new(Sram::new(64)))
            .unwrap_err();
        assert!(matches!(e, BusError::SlaveError { .. }));
    }

    #[test]
    fn wrapping_region_rejected() {
        let mut bus = SystemBus::new();
        let e = bus
            .add_region("wrap", 0xFFFF_FFF0, 0x20, Box::new(Sram::new(0x20)))
            .unwrap_err();
        assert!(matches!(e, BusError::OutOfRange { .. }));
    }

    #[test]
    fn access_straddling_region_end_rejected() {
        let mut bus = paper_map();
        // Double word starting 4 bytes before the end of the nvdla window.
        let e = bus
            .access(&Request::read(NVDLA_SIZE - 4, crate::AccessSize::Double), 0)
            .unwrap_err();
        assert!(matches!(e, BusError::DecodeError { .. }));
    }

    #[test]
    fn block_ops_route() {
        let mut bus = paper_map();
        let data = [9u8; 32];
        bus.write_block(DRAM_BASE + 64, &data, 0).unwrap();
        let mut out = [0u8; 32];
        bus.read_block(DRAM_BASE + 64, &mut out, 0).unwrap();
        assert_eq!(out, data);
    }
}
