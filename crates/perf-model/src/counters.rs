//! Operation counters emitted by instrumented implementations.
//!
//! Counters are plain additive totals; they are accumulated analytically at
//! kernel-launch granularity (cost descriptors × element counts) rather than
//! incremented per element, so instrumentation adds no measurable overhead
//! and is fully deterministic.

use std::ops::{Add, AddAssign};

/// Direction of a host↔device transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferDirection {
    /// Host to device.
    H2D,
    /// Device to host.
    D2H,
}

/// Global-memory access pattern of a kernel, which determines the fraction
/// of peak DRAM bandwidth it can use.
///
/// This is the architectural mechanism behind the paper's Table 3: FastPSO's
/// element-wise thread mapping makes consecutive threads touch consecutive
/// addresses (fully coalesced), while particle-per-thread designs make a
/// warp's threads stride by `d` floats and waste most of each 32-byte DRAM
/// sector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoryPattern {
    /// Consecutive threads access consecutive elements.
    Coalesced,
    /// Consecutive threads access elements `stride` apart (in elements).
    Strided(u32),
    /// Effectively random access (e.g. histogram scatter).
    Random,
}

impl MemoryPattern {
    /// Fraction of useful bytes per DRAM sector fetched under this pattern,
    /// assuming 4-byte elements and 32-byte sectors.
    pub fn efficiency(self) -> f64 {
        match self {
            MemoryPattern::Coalesced => 1.0,
            MemoryPattern::Strided(s) => {
                let s = s.max(1) as f64;
                // Each 32-byte sector yields one useful 4-byte element once
                // the stride exceeds 8 elements; shorter strides fetch
                // proportionally more useful data.
                (1.0 / s).max(0.125)
            }
            MemoryPattern::Random => 0.125,
        }
    }
}

/// Additive totals of all modeled operation classes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// FP32 operations executed on CUDA cores or the CPU.
    pub flops: u64,
    /// FP16/FP32 mixed-precision operations executed on tensor cores.
    pub tensor_flops: u64,
    /// Bytes read from GPU global memory (useful bytes; pattern efficiency
    /// is applied at time-modeling, not here).
    pub dram_read_bytes: u64,
    /// Bytes written to GPU global memory.
    pub dram_write_bytes: u64,
    /// Bytes moved through GPU shared memory (reads + writes).
    pub shared_bytes: u64,
    /// Bytes read/written from host main memory by CPU code.
    pub host_bytes: u64,
    /// Number of kernel launches.
    pub kernel_launches: u64,
    /// Number of device memory allocations performed (cudaMalloc analogue).
    pub device_allocs: u64,
    /// Number of device allocations served from the caching allocator
    /// without touching the driver.
    pub device_alloc_cache_hits: u64,
    /// Number of host heap allocations attributed to the algorithm
    /// (temporary matrices etc.).
    pub host_allocs: u64,
    /// Bytes transferred host→device.
    pub h2d_bytes: u64,
    /// Bytes transferred device→host.
    pub d2h_bytes: u64,
    /// Number of host↔device transfers.
    pub transfers: u64,
    /// Vectorized interpreter library calls (numpy ufunc dispatches).
    pub interp_ops: u64,
    /// Elements processed by pure-Python scalar code.
    pub interp_python_elems: u64,
    /// Elements written to interpreter temporary arrays.
    pub interp_temp_elems: u64,
    /// Parallel regions entered (OpenMP scope analogue).
    pub parallel_regions: u64,
}

impl Counters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a host↔device transfer.
    pub fn record_transfer(&mut self, dir: TransferDirection, bytes: u64) {
        self.transfers += 1;
        match dir {
            TransferDirection::H2D => self.h2d_bytes += bytes,
            TransferDirection::D2H => self.d2h_bytes += bytes,
        }
    }

    /// Total bytes that crossed the DRAM interface (reads + writes).
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &Counters) {
        *self += *other;
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, o: Self) {
        self.flops += o.flops;
        self.tensor_flops += o.tensor_flops;
        self.dram_read_bytes += o.dram_read_bytes;
        self.dram_write_bytes += o.dram_write_bytes;
        self.shared_bytes += o.shared_bytes;
        self.host_bytes += o.host_bytes;
        self.kernel_launches += o.kernel_launches;
        self.device_allocs += o.device_allocs;
        self.device_alloc_cache_hits += o.device_alloc_cache_hits;
        self.host_allocs += o.host_allocs;
        self.h2d_bytes += o.h2d_bytes;
        self.d2h_bytes += o.d2h_bytes;
        self.transfers += o.transfers;
        self.interp_ops += o.interp_ops;
        self.interp_python_elems += o.interp_python_elems;
        self.interp_temp_elems += o.interp_temp_elems;
        self.parallel_regions += o.parallel_regions;
    }
}

impl Add for Counters {
    type Output = Counters;
    fn add(mut self, o: Self) -> Self {
        self += o;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_zero() {
        let c = Counters::new();
        assert_eq!(c.flops, 0);
        assert_eq!(c.dram_bytes(), 0);
        assert_eq!(c.transfers, 0);
    }

    #[test]
    fn add_assign_accumulates_every_field() {
        let mut a = Counters::new();
        let mut b = Counters::new();
        b.flops = 1;
        b.tensor_flops = 2;
        b.dram_read_bytes = 3;
        b.dram_write_bytes = 4;
        b.shared_bytes = 5;
        b.host_bytes = 6;
        b.kernel_launches = 7;
        b.device_allocs = 8;
        b.device_alloc_cache_hits = 9;
        b.host_allocs = 10;
        b.h2d_bytes = 11;
        b.d2h_bytes = 12;
        b.transfers = 13;
        b.interp_ops = 14;
        b.interp_python_elems = 15;
        b.interp_temp_elems = 16;
        b.parallel_regions = 17;
        a += b;
        a += b;
        assert_eq!(a.flops, 2);
        assert_eq!(a.parallel_regions, 34);
        assert_eq!(a.dram_bytes(), 2 * (3 + 4));
        assert_eq!(a, b + b);
    }

    #[test]
    fn transfer_recording_tracks_direction() {
        let mut c = Counters::new();
        c.record_transfer(TransferDirection::H2D, 100);
        c.record_transfer(TransferDirection::D2H, 40);
        c.record_transfer(TransferDirection::D2H, 2);
        assert_eq!(c.h2d_bytes, 100);
        assert_eq!(c.d2h_bytes, 42);
        assert_eq!(c.transfers, 3);
    }

    #[test]
    fn coalesced_pattern_is_fully_efficient() {
        assert_eq!(MemoryPattern::Coalesced.efficiency(), 1.0);
    }

    #[test]
    fn strided_pattern_degrades_with_stride_and_floors() {
        assert!(MemoryPattern::Strided(2).efficiency() > MemoryPattern::Strided(4).efficiency());
        assert_eq!(MemoryPattern::Strided(200).efficiency(), 0.125);
        assert_eq!(MemoryPattern::Strided(0).efficiency(), 1.0); // clamped
        assert_eq!(MemoryPattern::Random.efficiency(), 0.125);
    }
}
