//! `solve-dense`: a closed loop with one caller running the paper's library
//! usage at the Table 3 shape, one solve at a time.
//!
//! Host time here is Philox weight draws and gpu-sim element kernels (plus
//! the tensor-core f16 emulation); the executor and the scheduler are
//! negligible. So this workload shows RNG, kernel and tensor-emulation
//! work, and an executor or scheduler change should not move it.

use crate::probes::ProbeShape;
use crate::serve::{self, Arrival, ServeWorkload};
use crate::trace::Tracer;
use crate::util::{fingerprint, mix, quantile};
use crate::workload::{profiler_counts, Layers, Summary, Workload};
use fastpso::serve::{OptimizeRequest, ServeConfig};
use fastpso::{
    GpuBackend, MultiGpuBackend, MultiGpuStrategy, PsoBackend, PsoConfig, PsoError, RunResult,
    UpdateStrategy,
};
use fastpso_functions::builtins::{Griewank, Rastrigin, Sphere};
use fastpso_functions::Objective;
use perf_model::{JobShape, ProfilerLog};
use std::sync::Arc;

/// Dimensions of every solve (the paper's Table 3 shape).
const DIM: usize = 64;
/// Particles of every solve before the seeded jitter.
const PARTICLES: usize = 2048;
/// Iterations per solve.
const ITERS: usize = 20;
/// Latency limit of one solve on the modeled clock.
const SLO_S: f64 = 0.005;
/// Iterations between best exchanges of the particle-split solve.
const SPLIT_SYNC_EVERY: usize = 5;

/// The four ways the workload runs a solve.
const KINDS: [(&str, Kind); 4] = [
    ("global-fused", Kind::Single(UpdateStrategy::GlobalMem)),
    ("shared", Kind::Single(UpdateStrategy::SharedMem)),
    ("tensor", Kind::Single(UpdateStrategy::TensorCore)),
    ("split2", Kind::Split),
];

#[derive(Clone, Copy)]
enum Kind {
    Single(UpdateStrategy),
    Split,
}

struct Solve {
    label: String,
    kind: usize,
    obj: Arc<dyn Objective>,
    cfg: PsoConfig,
}

enum Backend {
    Single(GpuBackend),
    Split(MultiGpuBackend),
}

impl Backend {
    fn new(kind: Kind) -> Backend {
        match kind {
            Kind::Single(s) => Backend::Single(GpuBackend::new().strategy(s).fused(true)),
            Kind::Split => Backend::Split(
                MultiGpuBackend::new(
                    2,
                    MultiGpuStrategy::ParticleSplit {
                        sync_every: SPLIT_SYNC_EVERY,
                    },
                )
                .fused(true),
            ),
        }
    }

    fn run(&self, cfg: &PsoConfig, obj: &dyn Objective) -> Result<RunResult, PsoError> {
        match self {
            Backend::Single(b) => b.run(cfg, obj),
            Backend::Split(b) => b.run(cfg, obj),
        }
    }

    /// Records of the latest run (every run resets the profiler).
    fn profile(&self) -> ProfilerLog {
        match self {
            Backend::Single(b) => b.profile(),
            Backend::Split(b) => b.group().merged_profiler(),
        }
    }

    fn devices(&self) -> usize {
        match self {
            Backend::Single(_) => 1,
            Backend::Split(b) => b.group().len(),
        }
    }
}

pub struct SolveDense {
    n: usize,
    solves: Vec<Solve>,
}

pub struct Ready {
    backends: Vec<Backend>,
}

pub struct Done {
    ready: Ready,
    results: Vec<Result<RunResult, PsoError>>,
    profiles: Vec<ProfilerLog>,
}

impl SolveDense {
    /// The seed sets each solve's swarm seed and jitters the swarm size by
    /// up to ±16 particles, so modeled times differ from seed to seed.
    pub fn new(seed: u64) -> SolveDense {
        let n = PARTICLES + 8 * (mix(seed, 0) % 5) as usize - 16;
        let objectives: [Arc<dyn Objective>; 3] =
            [Arc::new(Rastrigin), Arc::new(Griewank), Arc::new(Sphere)];
        let mut solves = Vec::new();
        for (o, obj) in objectives.into_iter().enumerate() {
            // Every kind solves one objective from the same swarm seed, so
            // the kinds that promise identical trajectories can be compared.
            let swarm_seed = mix(seed, 100 + o as u64);
            for (kind, (label, _)) in KINDS.iter().enumerate() {
                let i = solves.len();
                let cfg = PsoConfig::builder(n, DIM)
                    .max_iter(ITERS)
                    .seed(swarm_seed)
                    .build()
                    .expect("valid dense config");
                solves.push(Solve {
                    label: format!("solve={i} {label} {}", obj.name()),
                    kind,
                    obj: Arc::clone(&obj),
                    cfg,
                });
            }
        }
        SolveDense { n, solves }
    }

    /// The same solves served through a 2-device service: measures the
    /// serve layer at the dense shape (solve-dense never calls it).
    fn serve_probe(&self) -> ServeWorkload {
        let arrivals = self
            .solves
            .iter()
            .map(|s| {
                let strategy = match KINDS[s.kind].1 {
                    Kind::Single(st) => st,
                    Kind::Split => UpdateStrategy::GlobalMem,
                };
                Arrival {
                    due_s: 0.0,
                    req: OptimizeRequest::new("dense", Arc::clone(&s.obj), s.cfg.clone())
                        .strategy(strategy)
                        .fused(true),
                }
            })
            .collect();
        ServeWorkload {
            name: "solve-dense/serve",
            devices: 2,
            cfg: ServeConfig {
                slots_per_device: 4,
                slice_iters: 10,
                predictive_admission: true,
                ..ServeConfig::default()
            },
            warmup: Vec::new(),
            arrivals,
            loss: None,
            slo_s: SLO_S,
            probe_n: self.n,
            probe_d: DIM,
        }
    }
}

impl Workload for SolveDense {
    type Ready = Ready;
    type Done = Done;

    fn name(&self) -> &'static str {
        "solve-dense"
    }

    /// Build one backend per kind and warm each with a one-iteration solve
    /// at the dense shape (device pools and first-touch pages).
    fn setup(&self) -> Ready {
        let warm = PsoConfig::builder(self.n, DIM)
            .max_iter(1)
            .seed(1)
            .build()
            .expect("valid warm-up config");
        let backends = KINDS
            .iter()
            .map(|&(_, kind)| {
                let b = Backend::new(kind);
                b.run(&warm, &Sphere).expect("warm-up solve");
                b
            })
            .collect();
        Ready { backends }
    }

    fn run(&self, ready: Ready, tr: &mut Tracer, verify: bool) -> Done {
        let mut results = Vec::with_capacity(self.solves.len());
        let mut profiles = Vec::new();
        for (i, s) in self.solves.iter().enumerate() {
            let b = &ready.backends[s.kind];
            let span = tr.begin("run", "plan", Some(i as u64));
            results.push(b.run(&s.cfg, s.obj.as_ref()));
            tr.end(span);
            if verify {
                profiles.push(b.profile());
            }
        }
        Done {
            ready,
            results,
            profiles,
        }
    }

    /// A closed-loop solve has no journal: its durable record is the
    /// request. Restoring end states means re-executing solves from their
    /// requests and checking the results byte-equal; this restores the
    /// first objective's solves, one of each kind.
    fn restore(&self, done: &Done, tr: &mut Tracer) -> Result<(), String> {
        for (i, s) in self.solves.iter().enumerate().take(KINDS.len()) {
            let span = tr.begin("restore", "plan", Some(i as u64));
            let replay = done.ready.backends[s.kind].run(&s.cfg, s.obj.as_ref());
            tr.end(span);
            let fp =
                |r: &RunResult| fingerprint(&s.label, r.best_value, &r.best_position, r.migrations);
            match (replay, &done.results[i]) {
                (Ok(a), Ok(b)) if fp(&a) == fp(b) => {}
                (Ok(_), Ok(_)) => return Err(format!("{}: replayed result differs", s.label)),
                _ => return Err(format!("{}: solve failed", s.label)),
            }
        }
        Ok(())
    }

    fn summarize(&self, done: &Done, verify: bool) -> Summary {
        let mut sum = Summary {
            attempted: self.solves.len() as u64,
            ..Summary::default()
        };
        let mut latencies = Vec::new();
        let mut goodput = 0.0;
        for (s, r) in self.solves.iter().zip(&done.results) {
            match r {
                Ok(r) if r.best_value.is_finite() => {
                    sum.fingerprints.push(fingerprint(
                        &s.label,
                        r.best_value,
                        &r.best_position,
                        r.migrations,
                    ));
                    let t = r.elapsed_seconds();
                    latencies.push(t);
                    if t <= SLO_S {
                        goodput += t * done.ready.backends[s.kind].devices() as f64;
                    }
                }
                Ok(_) => sum
                    .failures
                    .push(format!("{}: non-finite best value", s.label)),
                Err(e) => sum.failures.push(format!("{}: {e}", s.label)),
            }
        }
        let total: f64 = latencies.iter().sum();
        let met = latencies.iter().filter(|&&t| t <= SLO_S).count();
        let m = &mut sum.modeled;
        m.insert("modeled_solve_s", total);
        m.insert("latency_p50_ms", quantile(&latencies, 0.5) * 1e3);
        m.insert("latency_p95_ms", quantile(&latencies, 0.95) * 1e3);
        m.insert("slo_met_frac", met as f64 / self.solves.len() as f64);
        m.insert("goodput_s", goodput);
        m.insert("accept_frac", 1.0);
        m.insert("modeled_jobs_per_s", latencies.len() as f64 / total);
        if verify {
            for log in &done.profiles {
                sum.work.add_profile(log);
                profiler_counts(log, &mut sum.counts);
            }
            // GlobalMem (fused) and SharedMem promise bit-identical
            // trajectories; TensorCore rounds through f16 and the split
            // solve attracts to per-device bests, so they are exempt.
            for pair in sum.fingerprints.chunks(KINDS.len()) {
                let fnv = |f: &str| f.rsplit(' ').next().map(str::to_string);
                if pair.len() == KINDS.len() && fnv(&pair[0]) != fnv(&pair[1]) {
                    sum.failures.push(format!(
                        "GlobalMem and SharedMem diverged: {} vs {}",
                        pair[0], pair[1]
                    ));
                }
            }
        }
        sum.notes.push((
            "solve latency limit (modeled ms)",
            format!("{}", SLO_S * 1e3),
        ));
        sum.notes.push(("particles", self.n.to_string()));
        sum
    }

    fn probe_shape(&self) -> ProbeShape {
        let mut shape =
            ProbeShape::new(self.n, DIM, self.solves.iter().map(|s| Arc::clone(&s.obj)));
        for s in &self.solves {
            let (strategy, shards) = match KINDS[s.kind].1 {
                Kind::Single(st) => (st, 1),
                Kind::Split => (UpdateStrategy::GlobalMem, 2),
            };
            shape.shapes.push(
                JobShape::new(
                    self.n as u64,
                    DIM as u64,
                    ITERS as u64,
                    &strategy.to_string(),
                )
                .shards(shards)
                .flops_per_dim(s.obj.flops_per_dim()),
            );
        }
        shape
    }

    /// The serve layer's numbers at the dense shape come from serving the
    /// same solves once; the remaining serve-free metrics keep their
    /// solve-dense values.
    fn traced_layers(&self, tr: &mut Tracer, _first_traced_span: usize) -> (Layers, Vec<String>) {
        let probe = self.serve_probe();
        let from = tr.len();
        let ready = probe.setup();
        let done = probe.run(ready, tr, true);
        let restored = probe.restore(&done, tr);
        let mut sum = probe.summarize(&done, false);
        sum.failures.extend(restored.err());
        let mut out = serve::span_layers(tr, from);
        for (k, v) in sum.counts {
            if k.starts_with("serve.")
                || k.starts_with("perf_model.pred_err")
                || k == "gpu_sim.lease_peak"
            {
                out.insert(k, v);
            }
        }
        (out, sum.failures)
    }
}
