//! Per-layer host-time probes at a workload's own shapes.
//!
//! Each probe calls one layer's public entry point in isolation and reports
//! host nanoseconds per unit of work (draw, element, evaluation, plan node,
//! prediction). Used two ways: as per-layer throughput metrics, and to
//! attribute a workload's host time from outside — profiler work counts
//! times probe cost per unit.

use crate::trace::Tracer;
use crate::util::{describe, median};
use fastpso::{GpuBackend, PsoBackend, PsoConfig};
use fastpso_functions::builtins::Sphere;
use fastpso_functions::Objective;
use fastpso_prng::Philox;
use gpu_sim::{Device, KernelDesc, Phase};
use perf_model::{CostPredictor, JobShape};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall time each probe sample covers.
const SAMPLE_TIME: Duration = Duration::from_millis(25);
/// Samples per probe; the median is reported.
const SAMPLES: usize = 9;
/// Iterations of the degenerate solve that measures plan-node overhead.
const NODE_PROBE_ITERS: usize = 200;

/// The shapes a workload's probes run at.
pub struct ProbeShape {
    /// Particles and dimensions of the workload's representative job.
    pub n: usize,
    pub d: usize,
    /// Objectives the workload evaluates.
    pub objectives: Vec<Arc<dyn Objective>>,
    /// Job shapes the workload's admission prices.
    pub shapes: Vec<JobShape>,
}

impl ProbeShape {
    /// A shape with no job shapes yet; objectives are deduplicated by name.
    pub fn new(
        n: usize,
        d: usize,
        objectives: impl IntoIterator<Item = Arc<dyn Objective>>,
    ) -> Self {
        let mut uniq: Vec<Arc<dyn Objective>> = Vec::new();
        for o in objectives {
            if !uniq.iter().any(|u| u.name() == o.name()) {
                uniq.push(o);
            }
        }
        ProbeShape {
            n,
            d,
            objectives: uniq,
            shapes: Vec::new(),
        }
    }
}

/// Per-sample host cost of one unit of work, in nanoseconds.
#[derive(Default)]
pub struct Probes {
    pub draw_ns: Vec<f64>,
    pub update_ns: Vec<f64>,
    pub tiled_ns: Vec<f64>,
    pub tensor_ns: Vec<f64>,
    pub reduce_ns: Vec<f64>,
    pub eval_ns: Vec<f64>,
    pub node_ns: Vec<f64>,
    pub predict_ns: Vec<f64>,
}

impl Probes {
    pub fn print(&self) {
        for (name, xs) in [
            ("prng ns/draw", &self.draw_ns),
            ("gpu_sim update ns/elem", &self.update_ns),
            ("gpu_sim tiled ns/elem", &self.tiled_ns),
            ("gpu_sim tensor ns/elem", &self.tensor_ns),
            ("gpu_sim reduce ns/elem", &self.reduce_ns),
            ("functions ns/eval", &self.eval_ns),
            ("plan ns/node", &self.node_ns),
            ("perf_model ns/prediction", &self.predict_ns),
        ] {
            println!("probe {name}: {}", describe(xs));
        }
    }

    pub fn per_s(xs: &[f64]) -> f64 {
        1e9 / median(xs)
    }
}

/// Time `op` (which does `units` units of work per call) in `SAMPLES`
/// samples of about `SAMPLE_TIME` each; returns ns per unit per sample.
fn sample(units: u64, mut op: impl FnMut()) -> Vec<f64> {
    let t = Instant::now();
    op();
    let once = t.elapsed().max(Duration::from_nanos(50));
    let reps = (SAMPLE_TIME.as_nanos() / once.as_nanos()).max(1) as u64;
    (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                op();
            }
            t.elapsed().as_nanos() as f64 / (reps * units) as f64
        })
        .collect()
}

pub fn run(shape: &ProbeShape, tr: &mut Tracer) -> Probes {
    let elems = shape.n * shape.d;
    let a: Vec<f32> = (0..elems).map(|i| (i % 977) as f32 * 0.25).collect();
    let mut out = vec![0.0f32; elems];
    let mut p = Probes::default();

    let s = tr.begin("probe", "prng", None);
    let rng = Philox::new(7);
    let mut draws = vec![0.0f32; 2 * elems];
    p.draw_ns = sample(draws.len() as u64, || {
        rng.fill_uniform(&mut draws, 3, 0, 0.0, 1.0);
        black_box(&draws);
    });
    tr.end(s);

    let s = tr.begin("probe", "gpu_sim", None);
    let dev = Device::v100();
    let desc = KernelDesc::simple("probe_update", Phase::Other, 2, 8, 4, elems as u64);
    p.update_ns = sample(elems as u64, || {
        dev.launch_update(&desc, &mut out, |i, v| v + a[i] * 0.5)
            .expect("probe launch");
        black_box(&out);
    });
    let dev = Device::v100();
    p.tiled_ns = sample(elems as u64, || {
        dev.launch_tiled(
            "probe_tiled",
            Phase::Other,
            2,
            1024,
            &[&a],
            &mut out,
            |_, l, ctx| ctx.out_old[l] + ctx.inputs[0][l] * 0.5,
        )
        .expect("probe launch");
        black_box(&out);
    });
    let dev = Device::v100();
    p.tensor_ns = sample(elems as u64, || {
        dev.launch_tensor_elementwise(
            "probe_tensor",
            Phase::Other,
            2,
            &[&a],
            &mut out,
            |_, ins, old| old + ins[0] * 0.5,
        )
        .expect("probe launch");
        black_box(&out);
    });
    let dev = Device::v100();
    p.reduce_ns = sample(elems as u64, || {
        black_box(
            dev.reduce_min_index(Phase::GBest, &a)
                .expect("probe reduce"),
        );
    });
    tr.end(s);

    let s = tr.begin("probe", "functions", None);
    let mut errs = vec![0.0f32; shape.n];
    let evals = (shape.n * shape.objectives.len()) as u64;
    p.eval_ns = sample(evals, || {
        for obj in &shape.objectives {
            obj.eval_batch(&a, shape.d, &mut errs);
            black_box(&errs);
        }
    });
    tr.end(s);

    let s = tr.begin("probe", "plan", None);
    let cfg = PsoConfig::builder(2, 1)
        .max_iter(NODE_PROBE_ITERS)
        .seed(11)
        .build()
        .expect("degenerate probe config");
    let backend = GpuBackend::new();
    let nodes = backend.plan(&cfg).iteration_nodes().len().max(1);
    p.node_ns = sample((nodes * NODE_PROBE_ITERS) as u64, || {
        black_box(backend.run(&cfg, &Sphere).expect("probe solve"));
    });
    tr.end(s);

    let s = tr.begin("probe", "perf_model", None);
    let predictor = CostPredictor::v100();
    p.predict_ns = sample(shape.shapes.len().max(1) as u64, || {
        for js in &shape.shapes {
            black_box(predictor.predict_s(js));
        }
    });
    tr.end(s);
    p
}
