//! Cooperative block-level kernels with explicit barrier phases.
//!
//! CUDA kernels that use `__syncthreads()` alternate between per-thread
//! compute regions and block-wide barriers. The simulator models this with
//! a *phased block* API: the kernel body receives a [`BlockCtx`] and
//! executes any number of [`BlockCtx::for_each_thread`] passes over the
//! block's threads; each pass ends at an implicit barrier, so writes to
//! block-shared state made in pass `p` are visible to every thread in pass
//! `p + 1`. This is exactly the legal data-flow of a barrier-synchronized
//! CUDA block (and it is deterministic, which the `tests/` suite relies
//! on).
//!
//! The classic use is a block-level tree reduction, provided here as
//! [`Device::launch_block_reduce`] and used by tests as a second,
//! structurally different implementation to check the flat reduction
//! against.
//!
//! The same phased model extends from block scope to **grid scope** for
//! persistent (cooperative-groups) kernels: a [`GridCtx`] pass ends at a
//! grid-wide barrier (`grid_group::sync()`), so writes made anywhere in
//! the grid are visible to *every* thread in the next pass — the data-flow
//! block-scope shared memory cannot express. Grid-wide barriers require
//! the whole grid to be co-resident, so [`Device::launch_grid_cooperative`]
//! rejects grids larger than the profile's resident-thread capacity, and
//! each barrier costs a device-internal rendezvous instead of a host
//! round-trip. This is the execution model a persistent region
//! ([`Device::begin_persistent`]) runs its iteration loop on.

use crate::device::{Device, GRID_SYNC_OVERHEAD_S};
use crate::error::GpuError;
use crate::launch::{KernelCost, KernelDesc, LaunchConfig};
use perf_model::{MemoryPattern, Phase};

/// Execution context of one thread block in a cooperative kernel.
pub struct BlockCtx<'a> {
    /// Index of this block in the grid.
    pub block_idx: usize,
    /// Number of threads in the block.
    pub block_dim: usize,
    /// First global element this block covers.
    pub block_start: usize,
    /// Elements this block covers (may be short for the last block).
    pub elems: usize,
    /// Block-shared scratch ("shared memory"), sized by the launch.
    pub shared: &'a mut [f32],
    barriers: usize,
}

impl BlockCtx<'_> {
    /// Run `f` once per thread of the block, then hit an implicit barrier.
    /// `f` receives the thread index within the block; shared-memory writes
    /// become visible to the next phase.
    ///
    /// Within one phase, each logical thread must only write shared slots
    /// it owns (as in real CUDA, intra-phase races are a bug); the
    /// sequential execution order inside a phase is unspecified-but-
    /// deterministic.
    pub fn for_each_thread(&mut self, mut f: impl FnMut(usize, &mut [f32])) {
        for tid in 0..self.block_dim {
            f(tid, self.shared);
        }
        self.barriers += 1;
    }

    /// Barriers executed so far (diagnostics).
    pub fn barriers(&self) -> usize {
        self.barriers
    }
}

/// Execution context of the whole co-resident grid in a persistent
/// cooperative kernel: the grid-scope analogue of [`BlockCtx`].
pub struct GridCtx<'a> {
    /// Resident threads in the grid (one per covered element).
    pub grid_threads: usize,
    /// Global elements the grid covers.
    pub elems: usize,
    /// Grid-shared scratch in device-global memory, visible to every
    /// thread of every block after each barrier.
    pub scratch: &'a mut [f32],
    barriers: usize,
}

impl GridCtx<'_> {
    /// Run `f` once per thread of the grid, then hit an implicit
    /// grid-wide barrier (`grid_group::sync()`): scratch writes made by
    /// any thread — in any block — become visible to all threads in the
    /// next pass. As with [`BlockCtx::for_each_thread`], intra-pass
    /// writes must stay on slots the thread owns.
    pub fn for_each_thread(&mut self, mut f: impl FnMut(usize, &mut [f32])) {
        for tid in 0..self.grid_threads {
            f(tid, self.scratch);
        }
        self.barriers += 1;
    }

    /// Grid-wide barriers executed so far (diagnostics).
    pub fn barriers(&self) -> usize {
        self.barriers
    }
}

impl Device {
    /// Launch a cooperative kernel: the grid is `ceil(elems / block_dim)`
    /// blocks, each given `shared_elems` floats of shared memory and run
    /// through `body`. Returns one `f32` per block (whatever `body`
    /// returns — typically the block's partial result).
    #[allow(clippy::too_many_arguments)]
    pub fn launch_cooperative<F>(
        &self,
        name: &'static str,
        phase: Phase,
        flops_per_elem: u64,
        elems: usize,
        block_dim: usize,
        shared_elems: usize,
        body: F,
    ) -> Result<Vec<f32>, GpuError>
    where
        F: Fn(&mut BlockCtx<'_>) -> f32 + Sync,
    {
        self.begin_launch()?;
        if block_dim == 0 {
            return Err(GpuError::InvalidLaunch("zero block_dim".into()));
        }
        let profile = self.profile();
        if shared_elems * 4 > profile.shared_mem_per_sm {
            return Err(GpuError::InvalidLaunch(format!(
                "shared request {} B exceeds {} B per SM",
                shared_elems * 4,
                profile.shared_mem_per_sm
            )));
        }
        if elems == 0 {
            return Err(GpuError::Empty("launch_cooperative"));
        }
        let blocks = elems.div_ceil(block_dim);
        let desc = KernelDesc {
            name,
            phase,
            cost: KernelCost {
                flops: flops_per_elem,
                tensor_flops: 0,
                dram_read: 4,
                dram_write: 0,
                shared: 8, // one shared store + load per element
            },
            elems: elems as u64,
            threads: (blocks * block_dim) as u64,
            config: Some(LaunchConfig::one_per_element(
                (blocks * block_dim) as u64,
                block_dim as u32,
            )),
            pattern: MemoryPattern::Coalesced,
        };
        self.charge_kernel(&desc);
        // Per-block output write.
        let out_desc = KernelDesc::simple("coop_block_out", phase, 0, 0, 4, blocks as u64);
        self.charge_kernel(&out_desc);

        let results: Vec<f32> = (0..blocks)
            .map(|block_idx| {
                let block_start = block_idx * block_dim;
                let mut shared = vec![0.0f32; shared_elems];
                let mut ctx = BlockCtx {
                    block_idx,
                    block_dim,
                    block_start,
                    elems: block_dim.min(elems - block_start),
                    shared: &mut shared,
                    barriers: 0,
                };
                body(&mut ctx)
            })
            .collect();
        Ok(results)
    }

    /// Block-level tree sum over `data`: the canonical `__syncthreads()`
    /// reduction, returning the total. Structurally different from
    /// [`Device::reduce_sum`] (which folds flat), so the two cross-check
    /// each other in tests.
    pub fn launch_block_reduce(
        &self,
        phase: Phase,
        data: &[f32],
        block_dim: usize,
    ) -> Result<f64, GpuError> {
        if data.is_empty() {
            return Err(GpuError::Empty("launch_block_reduce"));
        }
        if !block_dim.is_power_of_two() {
            return Err(GpuError::InvalidLaunch(format!(
                "tree reduction needs a power-of-two block, got {block_dim}"
            )));
        }
        let partials = self.launch_cooperative(
            "block_reduce",
            phase,
            1,
            data.len(),
            block_dim,
            block_dim,
            |ctx| {
                let start = ctx.block_start;
                let n = ctx.elems;
                // Phase 0: load global -> shared (zero-pad the tail).
                ctx.for_each_thread(|tid, shared| {
                    shared[tid] = if tid < n { data[start + tid] } else { 0.0 };
                });
                // log2 tree phases, each ending at a barrier.
                let mut stride = ctx.block_dim / 2;
                while stride > 0 {
                    ctx.for_each_thread(|tid, shared| {
                        if tid < stride {
                            shared[tid] += shared[tid + stride];
                        }
                    });
                    stride /= 2;
                }
                ctx.shared[0]
            },
        )?;
        // Host-side (or next-kernel) combine of the per-block partials.
        Ok(partials.iter().map(|&x| x as f64).sum())
    }

    /// Launch a grid-scope cooperative kernel: one kernel whose whole grid
    /// stays co-resident so it may barrier grid-wide between passes. The
    /// grid is one thread per element; `scratch_elems` floats of
    /// device-global scratch are shared across the *entire* grid. Each
    /// [`GridCtx::for_each_thread`] pass ends at a grid-wide barrier,
    /// charged at the on-device rendezvous rate (no host round-trip).
    ///
    /// Rejects grids that exceed the profile's resident-thread capacity —
    /// a grid-wide barrier deadlocks unless every block is resident, which
    /// is exactly the constraint `cudaLaunchCooperativeKernel` enforces.
    pub fn launch_grid_cooperative<F>(
        &self,
        name: &'static str,
        phase: Phase,
        flops_per_elem: u64,
        elems: usize,
        scratch_elems: usize,
        body: F,
    ) -> Result<f32, GpuError>
    where
        F: FnOnce(&mut GridCtx<'_>) -> f32,
    {
        self.begin_launch()?;
        if elems == 0 {
            return Err(GpuError::Empty("launch_grid_cooperative"));
        }
        let max_resident = self.profile().max_resident_threads();
        if elems as u64 > max_resident {
            return Err(GpuError::InvalidLaunch(format!(
                "grid-wide sync needs all {elems} threads co-resident, \
                 device holds {max_resident}"
            )));
        }
        let desc = KernelDesc {
            name,
            phase,
            cost: KernelCost {
                flops: flops_per_elem,
                tensor_flops: 0,
                // Grid scratch lives in global memory: one load + one
                // store per element per kernel.
                dram_read: 4,
                dram_write: 4,
                shared: 0,
            },
            elems: elems as u64,
            threads: elems as u64,
            config: Some(LaunchConfig::one_per_element(elems as u64, 256)),
            pattern: MemoryPattern::Coalesced,
        };
        self.charge_kernel(&desc);
        let mut scratch = vec![0.0f32; scratch_elems];
        let mut ctx = GridCtx {
            grid_threads: elems,
            elems,
            scratch: &mut scratch,
            barriers: 0,
        };
        let out = body(&mut ctx);
        if ctx.barriers > 0 {
            self.charge_raw(
                phase,
                ctx.barriers as f64 * GRID_SYNC_OVERHEAD_S,
                perf_model::Counters::new(),
            );
        }
        Ok(out)
    }

    /// Grid-scope tree sum over `data`: the persistent-kernel reduction.
    /// Where [`Device::launch_block_reduce`] needs a second kernel (or the
    /// host) to combine per-block partials, the grid-wide barrier lets one
    /// launch carry the whole `log2(n)` tree — the launch-amortization
    /// trick persistent mode is built on.
    pub fn launch_grid_reduce(&self, phase: Phase, data: &[f32]) -> Result<f64, GpuError> {
        if data.is_empty() {
            return Err(GpuError::Empty("launch_grid_reduce"));
        }
        let n = data.len();
        let width = n.next_power_of_two();
        let total = self.launch_grid_cooperative("grid_reduce", phase, 1, width, width, |ctx| {
            // Pass 0: load global -> grid scratch (zero-pad the tail).
            ctx.for_each_thread(|tid, scratch| {
                scratch[tid] = if tid < n { data[tid] } else { 0.0 };
            });
            // log2 tree passes, each ending at a grid-wide barrier.
            let mut stride = width / 2;
            while stride > 0 {
                ctx.for_each_thread(|tid, scratch| {
                    if tid < stride {
                        scratch[tid] += scratch[tid + stride];
                    }
                });
                stride /= 2;
            }
            ctx.scratch[0]
        })?;
        Ok(total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_reduce_matches_flat_sum_for_pow2_blocks() {
        let dev = Device::v100();
        let data: Vec<f32> = (1..=1000).map(|i| i as f32).collect();
        let tree = dev.launch_block_reduce(Phase::Eval, &data, 128).unwrap();
        assert_eq!(tree, 500_500.0);
        let flat = dev.reduce_sum(Phase::Eval, &data).unwrap();
        assert_eq!(tree, flat);
    }

    #[test]
    fn block_reduce_handles_short_tail_blocks() {
        let dev = Device::v100();
        // 130 elements with 64-wide blocks: last block has 2 live threads.
        let data = vec![1.0f32; 130];
        let s = dev.launch_block_reduce(Phase::Eval, &data, 64).unwrap();
        assert_eq!(s, 130.0);
    }

    #[test]
    fn barrier_phases_expose_prior_writes() {
        let dev = Device::v100();
        // Each block: phase 1 writes tid, phase 2 reads neighbor (tid+1).
        // Correct barrier semantics give sum of neighbor values.
        let results = dev
            .launch_cooperative("barrier", Phase::Other, 1, 8, 8, 8, |ctx| {
                ctx.for_each_thread(|tid, shared| shared[tid] = tid as f32);
                let mut total = 0.0;
                ctx.for_each_thread(|tid, shared| {
                    total += shared[(tid + 1) % 8];
                });
                assert_eq!(ctx.barriers(), 2);
                total
            })
            .unwrap();
        assert_eq!(results, vec![28.0]); // 0+1+..+7
    }

    #[test]
    fn block_reduce_rejects_non_power_of_two_blocks() {
        let dev = Device::v100();
        let err = dev
            .launch_block_reduce(Phase::Eval, &[1.0; 8], 96)
            .unwrap_err();
        assert!(matches!(err, GpuError::InvalidLaunch(_)));
    }

    #[test]
    fn rejects_bad_launches() {
        let dev = Device::v100();
        assert!(dev
            .launch_cooperative("x", Phase::Other, 1, 8, 0, 8, |_| 0.0)
            .is_err());
        assert!(dev
            .launch_cooperative("x", Phase::Other, 1, 0, 8, 8, |_| 0.0)
            .is_err());
        let huge = dev.profile().shared_mem_per_sm; // floats -> 4x too big
        assert!(dev
            .launch_cooperative("x", Phase::Other, 1, 8, 8, huge, |_| 0.0)
            .is_err());
    }

    #[test]
    fn grid_reduce_matches_flat_sum_in_one_launch() {
        let dev = Device::v100();
        let data: Vec<f32> = (1..=1000).map(|i| i as f32).collect();
        let grid = dev.launch_grid_reduce(Phase::Eval, &data).unwrap();
        assert_eq!(grid, 500_500.0);
        let flat = dev.reduce_sum(Phase::Eval, &data).unwrap();
        assert_eq!(grid, flat);
        // One cooperative launch carried the whole tree; the block-scope
        // version needs a second kernel for the partials.
        assert_eq!(dev.profiler().launches_of("grid_reduce"), 1);
    }

    #[test]
    fn grid_barriers_expose_cross_block_writes() {
        let dev = Device::v100();
        // 512 threads = at least two 256-wide blocks. Pass 1: each thread
        // writes its own slot. Pass 2: every thread reads the *mirror*
        // slot — owned by a different block for at least half the grid —
        // which only a grid-wide barrier makes legal.
        let n = 512usize;
        let out = dev
            .launch_grid_cooperative("mirror", Phase::Other, 1, n, n, |ctx| {
                ctx.for_each_thread(|tid, scratch| scratch[tid] = tid as f32);
                let mut total = 0.0;
                ctx.for_each_thread(|tid, scratch| total += scratch[n - 1 - tid]);
                assert_eq!(ctx.barriers(), 2);
                total
            })
            .unwrap();
        assert_eq!(out, (0..512).sum::<i32>() as f32);
    }

    #[test]
    fn grid_launch_rejects_over_residency_and_empty() {
        let dev = Device::v100();
        let max = dev.profile().max_resident_threads() as usize;
        let err = dev
            .launch_grid_cooperative("too_big", Phase::Other, 1, max + 1, 1, |_| 0.0)
            .unwrap_err();
        assert!(matches!(err, GpuError::InvalidLaunch(_)));
        assert!(dev
            .launch_grid_cooperative("empty", Phase::Other, 1, 0, 1, |_| 0.0)
            .is_err());
    }

    #[test]
    fn grid_barriers_are_cheaper_than_host_syncs() {
        let time_of = |grid: bool| {
            let dev = Device::v100();
            for _ in 0..8 {
                if grid {
                    dev.launch_grid_cooperative("g", Phase::Other, 1, 256, 1, |ctx| {
                        ctx.for_each_thread(|_, _| {});
                        0.0
                    })
                    .unwrap();
                } else {
                    dev.begin_launch().unwrap();
                    dev.charge_kernel(&KernelDesc::simple("k", Phase::Other, 1, 4, 4, 256));
                    dev.synchronize(Phase::Other);
                }
            }
            dev.timeline().total_seconds()
        };
        assert!(time_of(true) < time_of(false));
    }

    #[test]
    fn cooperative_launch_charges_shared_traffic() {
        let dev = Device::v100();
        dev.launch_block_reduce(Phase::Eval, &[1.0; 256], 64)
            .unwrap();
        let c = dev.counters();
        assert!(c.shared_bytes > 0);
        assert!(c.kernel_launches >= 2);
    }
}
