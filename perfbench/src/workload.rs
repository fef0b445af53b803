//! What every workload provides, and the work counts used to attribute
//! host time to layers.

use crate::probes::{ProbeShape, Probes};
use crate::trace::Tracer;
use perf_model::ProfilerLog;
use std::collections::BTreeMap;

/// One workload: set-up (timed as `setup_s`), the measured phase (timed as
/// `host_s`), the restore check (timed as `restore_s`) and the untimed
/// summary of what the phase produced.
pub trait Workload {
    type Ready;
    type Done;
    fn name(&self) -> &'static str;
    fn setup(&self) -> Self::Ready;
    /// The measured phase. `verify` also records what the untimed checks
    /// need (per-solve profiles, admission decisions).
    fn run(&self, ready: Self::Ready, tr: &mut Tracer, verify: bool) -> Self::Done;
    /// Rebuild the end state from its durable record and check it
    /// byte-equal.
    fn restore(&self, done: &Self::Done, tr: &mut Tracer) -> Result<(), String>;
    /// Outputs, modeled metrics and counts. `verify` also runs the
    /// expensive checks (direct reference solves, invariants).
    fn summarize(&self, done: &Self::Done, verify: bool) -> Summary;
    fn probe_shape(&self) -> ProbeShape;
    /// Per-layer metrics only a traced run measures, beyond the probes,
    /// and any failures found while measuring them.
    fn traced_layers(&self, tr: &mut Tracer, first_traced_span: usize) -> (Layers, Vec<String>);
}

pub type Layers = BTreeMap<&'static str, f64>;

/// What one pass over a workload produced.
#[derive(Default, Clone)]
pub struct Summary {
    /// One fingerprint per job or solve, in submission order.
    pub fingerprints: Vec<String>,
    /// Operations attempted (solves, submissions) and the failures found.
    pub attempted: u64,
    pub failures: Vec<String>,
    /// End-to-end metrics on the modeled clock (deterministic per seed).
    pub modeled: Layers,
    /// Per-layer counts from the pass (deterministic per seed).
    pub counts: Layers,
    /// Kernel work, for attributing host time.
    pub work: Work,
    /// Extra figures that are printed but are not metrics.
    pub notes: Vec<(&'static str, String)>,
}

/// Work done per kernel family, from profiler records.
#[derive(Default, Clone, Copy, Debug)]
pub struct Work {
    /// Philox draws by the RNG kernels (swarm init and weight generation).
    pub draws: f64,
    /// Elements of the element-wise kernels (map/update family).
    pub update_elems: f64,
    /// Elements of the shared-memory tiled kernels.
    pub tiled_elems: f64,
    /// Elements of the tensor-core kernels.
    pub tensor_elems: f64,
    /// Elements of the reduction kernels' first pass.
    pub reduce_elems: f64,
    /// Objective evaluations.
    pub evals: f64,
}

impl Work {
    /// Classify every kernel record by name into a family. The RNG kernels
    /// run inside an element-wise map, so their elements count towards the
    /// map family as well as to the draws. `*_traffic` records only charge
    /// modeled cost and do no host work of their own.
    pub fn add_profile(&mut self, log: &ProfilerLog) {
        for k in &log.kernels {
            let t = k.threads as f64;
            let name = k.name;
            if name.starts_with("gen_")
                || name.starts_with("init_pos")
                || name.starts_with("init_vel")
            {
                self.draws += t;
                self.update_elems += t;
            } else if name.starts_with("evaluate") {
                self.evals += t;
            } else if name.contains("smem") {
                self.tiled_elems += t;
            } else if name.contains("wmma") {
                self.tensor_elems += t;
            } else if name.starts_with("reduce_pass0") {
                self.reduce_elems += t;
            } else if !name.starts_with("reduce") && !name.ends_with("_traffic") {
                self.update_elems += t;
            }
        }
    }

    /// Host seconds attributed to (prng, gpu_sim, functions) at the probed
    /// per-unit costs.
    pub fn attribute(&self, p: &Probes) -> (f64, f64, f64) {
        use crate::util::median;
        let prng = self.draws * median(&p.draw_ns) / 1e9;
        let gpu = (self.update_elems * median(&p.update_ns)
            + self.tiled_elems * median(&p.tiled_ns)
            + self.tensor_elems * median(&p.tensor_ns)
            + self.reduce_elems * median(&p.reduce_ns))
            / 1e9;
        let functions = self.evals * median(&p.eval_ns) / 1e9;
        (prng, gpu, functions)
    }
}

/// Profiler-derived per-layer counts of the `gpu_sim` layer.
pub fn profiler_counts(log: &ProfilerLog, out: &mut Layers) {
    let c = log.total_counters();
    *out.entry("gpu_sim.kernel_launches").or_insert(0.0) += c.kernel_launches as f64;
    *out.entry("gpu_sim.dram_bytes").or_insert(0.0) +=
        (c.dram_read_bytes + c.dram_write_bytes) as f64;
    *out.entry("gpu_sim.flops").or_insert(0.0) += (c.flops + c.tensor_flops) as f64;
    *out.entry("perf_model.profiler_records").or_insert(0.0) += log.len() as f64;
}
