//! Multi-GPU FastPSO (paper §3.5, "Supporting multiple GPUs").
//!
//! Two strategies, as sketched in the paper:
//!
//! * **Particle splitting** — the swarm is split into per-device sub-swarms,
//!   each maintaining its *own* local-global best; bests are exchanged
//!   (asynchronously in the paper; here every `sync_every` iterations).
//!   Trajectories differ from the single-GPU run because attraction is
//!   local between exchanges.
//! * **Tile matrix** — the element-wise update is sharded across devices,
//!   but a single global best is reduced every iteration, so the
//!   trajectory is **bit-identical** to the single-GPU run (the tests rely
//!   on this).
//!
//! Modeled wall-clock for a group is the per-device maximum — devices run
//! concurrently — plus the charged exchange traffic.
//!
//! A `MultiGpuBackend` is a [`GpuBackend`] on a named device group: one
//! shard per device, with a [`BestReduce::Exchange`] reduction node standing
//! in for the local adopt. The plan executor (see [`crate::plan`]) owns the
//! run loop, resilience and stream scheduling.

use crate::backend::PsoBackend;
use crate::config::PsoConfig;
use crate::error::PsoError;
use crate::plan::BestReduce;
use crate::resilience::ResilienceConfig;
use crate::result::RunResult;
use fastpso_functions::Objective;
use gpu_sim::DeviceGroup;

use super::GpuBackend;

/// Multi-GPU work decomposition (paper §3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiGpuStrategy {
    /// Independent sub-swarms with periodic best exchange.
    ParticleSplit {
        /// Exchange the global best every this many iterations.
        sync_every: usize,
    },
    /// Sharded element-wise update with a global reduction per iteration.
    TileMatrix,
}

/// FastPSO across a device group.
pub struct MultiGpuBackend {
    gpu: GpuBackend,
    strategy: MultiGpuStrategy,
}

impl MultiGpuBackend {
    /// FastPSO on `n_devices` V100s with the given decomposition.
    pub fn new(n_devices: usize, strategy: MultiGpuStrategy) -> Self {
        let sync_every = match strategy {
            MultiGpuStrategy::TileMatrix => 1,
            MultiGpuStrategy::ParticleSplit { sync_every } => sync_every,
        };
        MultiGpuBackend {
            gpu: GpuBackend {
                group: DeviceGroup::v100s(n_devices.max(1)),
                reduce: BestReduce::Exchange { sync_every },
                ..GpuBackend::new()
            },
            strategy,
        }
    }

    /// Enable the resilient execution layer: per-device bounded retry,
    /// synchronized group checkpoints with restore-and-replay, NaN/Inf
    /// quarantine, strategy degradation, and — unique to the multi-GPU
    /// path — re-homing a lost device's sub-swarm onto a survivor.
    pub fn resilient(mut self, r: ResilienceConfig) -> Self {
        self.gpu = self.gpu.resilient(r);
        self
    }

    /// Enable the kernel-fusion rewrite pass on every shard's update pair
    /// (see [`GpuBackend::fused`]).
    pub fn fused(mut self, on: bool) -> Self {
        self.gpu = self.gpu.fused(on);
        self
    }

    /// The backing device group.
    pub fn group(&self) -> &DeviceGroup {
        &self.gpu.group
    }
}

impl PsoBackend for MultiGpuBackend {
    fn name(&self) -> &'static str {
        match self.strategy {
            MultiGpuStrategy::ParticleSplit { .. } => "fastpso-multi-split",
            MultiGpuStrategy::TileMatrix => "fastpso-multi-tile",
        }
    }

    fn run(&self, cfg: &PsoConfig, obj: &dyn Objective) -> Result<RunResult, PsoError> {
        self.gpu.run(cfg, obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastpso_functions::builtins::{Rastrigin, Sphere};

    fn cfg(n: usize, d: usize, iters: usize) -> PsoConfig {
        PsoConfig::builder(n, d)
            .max_iter(iters)
            .seed(33)
            .build()
            .unwrap()
    }

    #[test]
    fn tile_matrix_matches_single_gpu_bitwise() {
        let c = cfg(48, 6, 50);
        let single = GpuBackend::new().run(&c, &Sphere).unwrap();
        for devices in [2, 3, 5] {
            let multi = MultiGpuBackend::new(devices, MultiGpuStrategy::TileMatrix)
                .run(&c, &Sphere)
                .unwrap();
            assert_eq!(single.best_value, multi.best_value, "devices={devices}");
            assert_eq!(single.best_position, multi.best_position);
        }
    }

    #[test]
    fn particle_split_still_converges() {
        let c = cfg(64, 6, 120);
        let r = MultiGpuBackend::new(4, MultiGpuStrategy::ParticleSplit { sync_every: 10 })
            .run(&c, &Sphere)
            .unwrap();
        assert!(r.best_value < 1.0, "best = {}", r.best_value);
    }

    #[test]
    fn particle_split_differs_from_tile_matrix() {
        let c = cfg(64, 6, 60);
        let a = MultiGpuBackend::new(4, MultiGpuStrategy::ParticleSplit { sync_every: 25 })
            .run(&c, &Rastrigin)
            .unwrap();
        let b = MultiGpuBackend::new(4, MultiGpuStrategy::TileMatrix)
            .run(&c, &Rastrigin)
            .unwrap();
        assert_ne!(a.best_position, b.best_position);
    }

    #[test]
    fn more_devices_reduce_modeled_time_on_large_swarms() {
        let c = cfg(4096, 64, 10);
        let t1 = MultiGpuBackend::new(1, MultiGpuStrategy::TileMatrix)
            .run(&c, &Sphere)
            .unwrap()
            .elapsed_seconds();
        let t4 = MultiGpuBackend::new(4, MultiGpuStrategy::TileMatrix)
            .run(&c, &Sphere)
            .unwrap()
            .elapsed_seconds();
        assert!(t4 < t1, "t4={t4} not faster than t1={t1}");
    }

    #[test]
    fn rejects_more_devices_than_particles() {
        let c = cfg(2, 4, 5);
        let err = MultiGpuBackend::new(4, MultiGpuStrategy::TileMatrix)
            .run(&c, &Sphere)
            .unwrap_err();
        assert!(matches!(err, PsoError::InvalidConfig(_)));
    }

    #[test]
    fn fused_multi_matches_split_multi_bitwise() {
        let c = cfg(48, 6, 40);
        let plain = MultiGpuBackend::new(3, MultiGpuStrategy::TileMatrix)
            .run(&c, &Sphere)
            .unwrap();
        let fused = MultiGpuBackend::new(3, MultiGpuStrategy::TileMatrix)
            .fused(true)
            .run(&c, &Sphere)
            .unwrap();
        assert_eq!(plain.best_value, fused.best_value);
        assert_eq!(plain.best_position, fused.best_position);
    }
}
