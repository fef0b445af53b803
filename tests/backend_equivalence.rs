//! Cross-backend equivalence: the workspace's strongest correctness
//! property. All deterministic backends draw randomness from the same
//! counter-addressed Philox streams and evaluate the same element-wise
//! formula in the same operation order, so their trajectories must be
//! **bit-identical** — sequential, OpenMP-priced CPU, GPU global-memory, GPU
//! shared-memory and multi-GPU tile-matrix. The tensor-core strategy is
//! the one documented exception (f16 operand rounding).

use fastpso_suite::fastpso::{
    GpuBackend, MultiGpuBackend, MultiGpuStrategy, ParBackend, PsoBackend, PsoConfig, SeqBackend,
    UpdateStrategy,
};
use fastpso_suite::functions::builtins::{Ackley, Griewank, Rastrigin, Sphere};
use fastpso_suite::functions::Objective;

fn cfg(n: usize, d: usize, iters: usize, seed: u64) -> PsoConfig {
    PsoConfig::builder(n, d)
        .max_iter(iters)
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn all_deterministic_backends_agree_bitwise() {
    let objectives: Vec<&dyn Objective> = vec![&Sphere, &Griewank, &Rastrigin, &Ackley];
    for (i, obj) in objectives.into_iter().enumerate() {
        let c = cfg(48, 10, 40, 100 + i as u64);
        let reference = SeqBackend.run(&c, obj).unwrap();

        let backends: Vec<(&str, Box<dyn PsoBackend>)> = vec![
            ("par", Box::new(ParBackend)),
            ("gpu-global", Box::new(GpuBackend::new())),
            (
                "gpu-smem",
                Box::new(GpuBackend::new().strategy(UpdateStrategy::SharedMem)),
            ),
            (
                "multi-tile-3",
                Box::new(MultiGpuBackend::new(3, MultiGpuStrategy::TileMatrix)),
            ),
        ];
        for (name, b) in backends {
            let r = b.run(&c, obj).unwrap();
            assert_eq!(
                r.best_value,
                reference.best_value,
                "{name} diverged from seq on {}",
                obj.name()
            );
            assert_eq!(
                r.best_position,
                reference.best_position,
                "{name} position diverged on {}",
                obj.name()
            );
        }
    }
}

#[test]
fn histories_are_identical_not_just_endpoints() {
    let c = PsoConfig::builder(32, 6)
        .max_iter(60)
        .seed(7)
        .record_history(true)
        .build()
        .unwrap();
    let a = SeqBackend.run(&c, &Sphere).unwrap().history.unwrap();
    let b = GpuBackend::new().run(&c, &Sphere).unwrap().history.unwrap();
    assert_eq!(
        a, b,
        "whole gbest trajectory must match iteration by iteration"
    );
}

#[test]
fn tensor_core_strategy_differs_only_within_f16_tolerance() {
    let c = cfg(64, 8, 80, 3);
    let exact = GpuBackend::new().run(&c, &Sphere).unwrap();
    let tensor = GpuBackend::new()
        .strategy(UpdateStrategy::TensorCore)
        .run(&c, &Sphere)
        .unwrap();
    assert_ne!(
        exact.best_value, tensor.best_value,
        "f16 rounding must be observable"
    );
    // Both converge to the same basin: small absolute errors on Sphere.
    assert!(exact.best_value < 5.0);
    assert!(tensor.best_value < 10.0);
}

#[test]
fn seed_controls_the_whole_trajectory() {
    let a = SeqBackend.run(&cfg(32, 6, 30, 1), &Sphere).unwrap();
    let b = SeqBackend.run(&cfg(32, 6, 30, 1), &Sphere).unwrap();
    let c = SeqBackend.run(&cfg(32, 6, 30, 2), &Sphere).unwrap();
    assert_eq!(a.best_position, b.best_position);
    assert_ne!(a.best_position, c.best_position);
}

#[test]
fn particle_split_multi_gpu_converges_but_may_diverge_from_single() {
    let c = cfg(96, 8, 120, 5);
    let split = MultiGpuBackend::new(4, MultiGpuStrategy::ParticleSplit { sync_every: 10 })
        .run(&c, &Sphere)
        .unwrap();
    assert!(split.best_value < 5.0, "split best = {}", split.best_value);
}

/// The multi-GPU backend names the `pso` CLI and the experiment tables
/// print stay distinct although `MultiGpuBackend` runs through `GpuBackend`.
#[test]
fn multi_gpu_backend_names_are_stable() {
    let tile = MultiGpuBackend::new(2, MultiGpuStrategy::TileMatrix);
    assert_eq!(tile.name(), "fastpso-multi-tile");
    let split = MultiGpuBackend::new(2, MultiGpuStrategy::ParticleSplit { sync_every: 4 });
    assert_eq!(split.name(), "fastpso-multi-split");
}
