//! Criterion micro-benchmarks of the substrate primitives (host
//! wall-clock): Philox generation (single draws and block-granular fills),
//! the element-wise swarm-update kernel, the shared-memory tiled path, the
//! tensor-core path and the reduction.
//! These guard the *simulator's own* performance so that paper-scale
//! harness runs stay tractable.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fastpso::{GpuBackend, PsoBackend, PsoConfig, SeqBackend, UpdateStrategy};
use fastpso_functions::builtins::Sphere;
use fastpso_prng::Philox;
use gpu_sim::{Device, KernelDesc, Phase};
use std::hint::black_box;

fn bench_philox(c: &mut Criterion) {
    let mut g = c.benchmark_group("philox");
    for n in [1_000u64, 100_000] {
        g.throughput(Throughput::Elements(n));
        g.bench_with_input(BenchmarkId::new("uniform_at", n), &n, |b, &n| {
            let rng = Philox::new(7);
            b.iter(|| {
                let mut acc = 0.0f32;
                for i in 0..n {
                    acc += rng.uniform_at(black_box(i), 3);
                }
                black_box(acc)
            })
        });
        g.bench_with_input(BenchmarkId::new("fill_uniform", n), &n, |b, &n| {
            let rng = Philox::new(7);
            let mut out = vec![0.0f32; n as usize];
            b.iter(|| {
                rng.fill_uniform(&mut out, 3, black_box(0), 0.0, 1.0);
                black_box(out[0])
            })
        });
    }
    g.finish();
}

fn bench_device_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("device_kernels");
    g.sample_size(20);
    let n = 1 << 16;
    let dev = Device::v100();
    let a: Vec<f32> = (0..n).map(|i| i as f32).collect();

    g.bench_function("launch_update_64k", |b| {
        let mut out = vec![0.0f32; n];
        let desc = KernelDesc::simple("bench", Phase::Other, 2, 8, 4, n as u64);
        b.iter(|| {
            dev.launch_update(&desc, &mut out, |i, v| v + a[i] * 0.5)
                .unwrap();
            black_box(out[0])
        })
    });

    g.bench_function("launch_tiled_64k", |b| {
        let mut out = vec![0.0f32; n];
        b.iter(|| {
            dev.launch_tiled(
                "bench",
                Phase::Other,
                2,
                1024,
                &[&a],
                &mut out,
                |_, l, ctx| ctx.out_old[l] + ctx.inputs[0][l] * 0.5,
            )
            .unwrap();
            black_box(out[0])
        })
    });

    g.bench_function("tensor_elementwise_64k", |b| {
        let mut out = vec![0.0f32; n];
        b.iter(|| {
            dev.launch_tensor_elementwise(
                "bench",
                Phase::Other,
                2,
                &[&a],
                &mut out,
                |_, ins, old| old + ins[0] * 0.5,
            )
            .unwrap();
            black_box(out[0])
        })
    });

    g.bench_function("reduce_min_index_64k", |b| {
        b.iter(|| black_box(dev.reduce_min_index(Phase::GBest, &a).unwrap()))
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("pso_iterations");
    g.sample_size(10);
    let cfg = PsoConfig::builder(512, 32)
        .max_iter(10)
        .seed(5)
        .build()
        .unwrap();

    g.bench_function("seq_512x32x10", |b| {
        b.iter(|| black_box(SeqBackend.run(&cfg, &Sphere).unwrap().best_value))
    });
    g.bench_function("gpu_global_512x32x10", |b| {
        b.iter(|| black_box(GpuBackend::new().run(&cfg, &Sphere).unwrap().best_value))
    });
    g.bench_function("gpu_tensor_512x32x10", |b| {
        b.iter(|| {
            black_box(
                GpuBackend::new()
                    .strategy(UpdateStrategy::TensorCore)
                    .run(&cfg, &Sphere)
                    .unwrap()
                    .best_value,
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_philox,
    bench_device_kernels,
    bench_end_to_end
);
criterion_main!(benches);
