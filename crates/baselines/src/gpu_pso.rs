//! gpu-pso baseline — Hussain, Hattori & Fujimoto, "A CUDA implementation
//! of the standard particle swarm optimization" (SYNASC 2016), the paper's
//! state-of-the-art GPU comparator.
//!
//! The design FastPSO improves upon: **one CUDA thread per particle**, the
//! thread owning the particle's whole life-cycle (evaluation, best update,
//! velocity and position update). Two architectural consequences, both
//! modeled here:
//!
//! * with `n` particles the kernel has only `n` threads — at the paper's
//!   default `n = 5000` that is under two resident warps per V100 SM, far
//!   below the latency-hiding threshold, so the kernel runs latency-bound;
//! * each thread walks its own row of the `n × d` matrices, so a warp's
//!   lanes touch addresses `d` elements apart — an uncoalesced (strided)
//!   access pattern that wastes most of each DRAM sector.
//!
//! The `gbest` update is a separate reduction kernel, as in the original.

use fastpso::config::BoundSchedule;
use fastpso::math::{position_update_elem, velocity_update_elem};
use fastpso::{PsoBackend, PsoConfig, PsoError, RunResult};
use fastpso_functions::Objective;
use fastpso_prng::Philox;
use gpu_sim::{Device, KernelCost, KernelDesc, MemoryPattern, Phase};

/// Columns of a particle's row whose `L` and `G` weights are drawn together.
const WEIGHT_BATCH: usize = 64;

/// The particle-per-thread CUDA PSO model.
pub struct GpuPsoBaseline {
    device: Device,
}

impl Default for GpuPsoBaseline {
    fn default() -> Self {
        Self::new()
    }
}

impl GpuPsoBaseline {
    /// On a Tesla V100 (the paper's testbed).
    pub fn new() -> Self {
        GpuPsoBaseline {
            device: Device::v100(),
        }
    }

    /// On an explicit device.
    pub fn with_device(device: Device) -> Self {
        GpuPsoBaseline { device }
    }

    /// The backing device.
    pub fn device(&self) -> &Device {
        &self.device
    }
}

impl PsoBackend for GpuPsoBaseline {
    fn name(&self) -> &'static str {
        "gpu-pso"
    }

    fn run(&self, cfg: &PsoConfig, obj: &dyn Objective) -> Result<RunResult, PsoError> {
        let dev = &self.device;
        dev.reset_timeline();
        let (n, d) = (cfg.n_particles, cfg.dim);
        let domain = obj.domain();
        let (lo, hi) = domain;
        let mut sched = BoundSchedule::new(cfg, domain);
        let vscale = cfg.init_velocity_scale * (hi - lo);
        // Decorrelated stream: this is a different program from FastPSO.
        let rng = Philox::new(cfg.seed ^ 0x6b55_0b50);

        let mut pos = dev.alloc::<f32>(n * d)?;
        let mut vel = dev.alloc::<f32>(n * d)?;
        let mut pbest_err = dev.alloc::<f32>(n)?;
        let mut pbest_pos = dev.alloc::<f32>(n * d)?;
        let mut gbest_pos = dev.alloc::<f32>(d)?;
        let mut gbest_err = f32::INFINITY;

        // Init kernel: one thread per particle initializes its whole row
        // (strided writes — faithful to the original's layout).
        let init_desc = KernelDesc {
            name: "gpu_pso_init",
            phase: Phase::Init,
            cost: KernelCost::elementwise(d as u64 * 32, 0, d as u64 * 8),
            elems: n as u64,
            threads: n as u64,
            config: None,
            pattern: MemoryPattern::Strided(d as u32),
        };
        {
            let vel = vel.as_mut_slice();
            dev.launch_chunks2(
                &init_desc,
                pos.as_mut_slice(),
                d,
                vel,
                d,
                |i, prow, vrow| {
                    let first = (i * d) as u64;
                    rng.fill_uniform(prow, 0, first, lo, hi);
                    rng.fill_uniform(vrow, 1, first, -vscale, vscale);
                },
            )?;
        }
        dev.launch_map(
            &KernelDesc::simple("gpu_pso_init_best", Phase::Init, 0, 0, 4, n as u64),
            pbest_err.as_mut_slice(),
            |_| f32::INFINITY,
        )?;

        let mut history = cfg.record_history.then(|| Vec::with_capacity(cfg.max_iter));

        // Per-particle fused kernel cost. The original is a monolithic
        // per-thread loop that re-reads its row of the position/velocity/
        // pbest matrices several times across the evaluate + update
        // expression (no operand reuse in registers), with only partially
        // coalesced accesses — the paper's own Table 3 implies ~150 MB of
        // DRAM traffic per iteration at 62 GB/s for this design, which the
        // per-particle costs below reproduce at the default n, d.
        let fused_cost = KernelCost {
            flops: d as u64 * (obj.flops_per_dim() + 2 * 15 + 12),
            tensor_flops: 0,
            dram_read: d as u64 * 110 + 8,
            dram_write: d as u64 * 40 + 4,
            shared: 0,
        };

        for t in 0..cfg.max_iter {
            let fused = KernelDesc {
                name: "gpu_pso_iterate",
                phase: Phase::SwarmUpdate,
                cost: fused_cost,
                elems: n as u64,
                threads: n as u64,
                config: None, // no resource-aware launch in the original
                pattern: MemoryPattern::Strided(3), // partial coalescing
            };
            let (ld, gd) = (2 + 2 * t as u64, 3 + 2 * t as u64);
            let gb_err = gbest_err;
            let bound = sched.current();
            let omega_t = cfg.omega_at(t);
            {
                let gbp = gbest_pos.as_slice();
                // One logical thread per particle does everything.
                dev.launch_chunks4(
                    &fused,
                    pos.as_mut_slice(),
                    d,
                    vel.as_mut_slice(),
                    d,
                    pbest_err.as_mut_slice(),
                    1,
                    pbest_pos.as_mut_slice(),
                    d,
                    |i, row, vrow, pbe_i, pb_row| {
                        // Evaluate at the current position.
                        let e = obj.eval(row);
                        if e < pbe_i[0] {
                            pbe_i[0] = e;
                            pb_row.copy_from_slice(row);
                        }
                        // Velocity + position update against the *previous*
                        // iteration's gbest (the original publishes gbest
                        // after the fused kernel).
                        let (mut l, mut g) = ([0.0f32; WEIGHT_BATCH], [0.0f32; WEIGHT_BATCH]);
                        for c0 in (0..d).step_by(WEIGHT_BATCH) {
                            let w = WEIGHT_BATCH.min(d - c0);
                            let idx = (i * d + c0) as u64;
                            rng.fill_uniform(&mut l[..w], ld, idx, 0.0, 1.0);
                            rng.fill_uniform(&mut g[..w], gd, idx, 0.0, 1.0);
                            for (k, c) in (c0..c0 + w).enumerate() {
                                let gb = if gb_err.is_finite() { gbp[c] } else { row[c] };
                                let v2 = velocity_update_elem(
                                    vrow[c], row[c], l[k], g[k], pb_row[c], gb, omega_t, cfg.c1,
                                    cfg.c2, bound,
                                );
                                vrow[c] = v2;
                                row[c] = position_update_elem(row[c], v2);
                            }
                        }
                    },
                )?;
            }

            // Separate gbest reduction kernel, as in the original.
            let best = dev.reduce_min_index(Phase::GBest, pbest_err.as_slice())?;
            sched.note_iteration(best.value < gbest_err);
            if best.value < gbest_err {
                gbest_err = best.value;
                let src = pbest_pos.as_slice()[best.index * d..(best.index + 1) * d].to_vec();
                dev.launch_map(
                    &KernelDesc::simple("gpu_pso_gbest_copy", Phase::GBest, 0, 4, 4, d as u64),
                    gbest_pos.as_mut_slice(),
                    |c| src[c],
                )?;
            }
            dev.synchronize(Phase::SwarmUpdate);

            if let Some(h) = history.as_mut() {
                h.push(gbest_err);
            }
        }

        let best_position = gbest_pos.download_in(Phase::Other);
        Ok(RunResult {
            best_value: gbest_err as f64,
            best_position,
            iterations: cfg.max_iter,
            evaluations: (n * cfg.max_iter) as u64,
            timeline: dev.timeline(),
            history,
            migrations: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastpso::{GpuBackend, PsoBackend};
    use fastpso_functions::builtins::Sphere;

    fn cfg(n: usize, d: usize, iters: usize) -> PsoConfig {
        PsoConfig::builder(n, d)
            .max_iter(iters)
            .seed(6)
            .build()
            .unwrap()
    }

    #[test]
    fn converges_on_sphere() {
        let r = GpuPsoBaseline::new()
            .run(&cfg(64, 8, 200), &Sphere)
            .unwrap();
        assert!(r.best_value < 5.0, "best = {}", r.best_value);
    }

    #[test]
    fn fastpso_is_severalfold_faster_at_paper_scale_shape() {
        // Table 1's headline: FastPSO transcends gpu-pso by 5-7x. Use a
        // scaled-down workload; the ratio comes from occupancy + coalescing,
        // which are scale-dependent, so just assert a clear win here.
        let c = cfg(2000, 50, 10);
        let slow = GpuPsoBaseline::new()
            .run(&c, &Sphere)
            .unwrap()
            .elapsed_seconds();
        let fast = GpuBackend::new()
            .run(&c, &Sphere)
            .unwrap()
            .elapsed_seconds();
        assert!(
            slow / fast > 2.0,
            "gpu-pso {slow} should clearly trail fastpso {fast}"
        );
    }

    #[test]
    fn quality_is_comparable_to_fastpso() {
        // Table 2: gpu-pso reaches errors in the same range as fastpso.
        let c = cfg(128, 8, 300);
        let a = GpuPsoBaseline::new().run(&c, &Sphere).unwrap();
        let b = GpuBackend::new().run(&c, &Sphere).unwrap();
        assert!(a.best_value < 10.0 && b.best_value < 10.0);
        assert!((a.best_value - b.best_value).abs() < 10.0);
    }

    #[test]
    fn uses_strided_memory_pattern_and_low_thread_count() {
        let c = cfg(256, 16, 5);
        let backend = GpuPsoBaseline::new();
        backend.run(&c, &Sphere).unwrap();
        let m = backend.device().metrics();
        assert!(m.kernel_launches > 0);
    }
}
