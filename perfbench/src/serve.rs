//! The serve workloads: an open loop on the modeled clock through
//! `fastpso::serve::Service`.
//!
//! Arrivals are due at fixed modeled times after the warm-up ends. The
//! modeled clock only advances while the service works, so before each tick
//! every arrival that is due is submitted (those due during the previous
//! tick are late by at most one tick, and counted), and when the service is
//! idle the next arrival is submitted at once (counted as an idle submit).
//! Latency is timed from each job's due time.

use crate::probes::ProbeShape;
use crate::trace::Tracer;
use crate::util::{fingerprint, median, mix, quantile};
use crate::workload::{profiler_counts, Layers, Summary, Workload};
use fastpso::serve::{
    BatchPolicy, JobId, JobStatus, OptimizeRequest, Priority, ServeConfig, ServeError, ServeEvent,
    Service,
};
use fastpso::{
    Algorithm, GpuBackend, Migration, MigrationKind, PsoBackend, PsoConfig, Topology,
    UpdateStrategy,
};
use fastpso_functions::builtins::{Griewank, Qap, Rastrigin, Sphere};
use fastpso_functions::Objective;
use gpu_sim::{DeviceGroup, FaultPlan, Phase};
use perf_model::{JobOutcome, JobRecord, JobShape};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One open-loop arrival: due `due_s` modeled seconds after the warm-up.
pub struct Arrival {
    pub due_s: f64,
    pub req: OptimizeRequest,
}

pub struct ServeWorkload {
    pub name: &'static str,
    pub devices: usize,
    pub cfg: ServeConfig,
    /// Deadline-free jobs run to idle during set-up (predictor calibration).
    pub warmup: Vec<OptimizeRequest>,
    pub arrivals: Vec<Arrival>,
    /// `(device, launch)`: the device is lost at its `launch`-th kernel
    /// launch after the warm-up.
    pub loss: Option<(usize, u64)>,
    /// Latency limit for jobs without a deadline, modeled seconds.
    pub slo_s: f64,
    /// Shape of the workload's representative job, for the probes.
    pub probe_n: usize,
    pub probe_d: usize,
}

pub struct Ready {
    svc: Service,
    t0: f64,
    warm_goodput: f64,
    /// Launch ordinal (since device creation) at which the lost device dies.
    loss_ordinal: Option<u64>,
    /// Each device's modeled clock when the measured phase starts.
    dev_t0: Vec<f64>,
    launches0: u64,
    recovery0: f64,
    submits0: usize,
}

enum Outcome {
    Accepted(JobId),
    Rejected(ServeError),
}

pub struct Done {
    ready: Ready,
    outcomes: Vec<Outcome>,
    /// Warm-up and accepted requests in submission order (the client's
    /// durable request store, which restore replays).
    accepted: Vec<OptimizeRequest>,
    /// Admission decision quoted just before each submit (verify pass only).
    plans: Vec<Option<(UpdateStrategy, f64)>>,
    ticks: u64,
    late: u64,
    max_late_s: f64,
    idle_submits: u64,
    stalled: bool,
}

impl ServeWorkload {
    fn group(&self, loss_ordinal: Option<u64>) -> DeviceGroup {
        let group = DeviceGroup::v100s(self.devices);
        if let (Some((dev, _)), Some(ord)) = (self.loss, loss_ordinal) {
            group
                .device(dev)
                .expect("loss device in range")
                .set_fault_plan(FaultPlan::new().with_device_loss_at_launch(ord));
        }
        group
    }
}

impl Workload for ServeWorkload {
    type Ready = Ready;
    type Done = Done;

    fn name(&self) -> &'static str {
        self.name
    }

    /// A fresh service, calibrated by running the warm-up jobs to idle; the
    /// device loss is armed once the warm-up is over.
    fn setup(&self) -> Ready {
        let mut svc = Service::new(self.group(None), self.cfg.clone());
        for req in &self.warmup {
            svc.submit(req.clone())
                .expect("warm-up jobs are admissible");
        }
        svc.run_until_idle();
        let loss_ordinal = self.loss.map(|(dev, k)| {
            let d = svc.group().device(dev).expect("loss device in range");
            let before = d.fault_stats().launches;
            d.set_fault_plan(FaultPlan::new().with_device_loss_at_launch(k));
            before + k
        });
        Ready {
            t0: svc.now(),
            warm_goodput: svc.goodput_s(),
            dev_t0: svc
                .group()
                .iter()
                .map(|d| d.timeline().total_seconds())
                .collect(),
            launches0: svc.group().merged_counters().kernel_launches,
            recovery0: svc.group().merged_timeline().seconds(Phase::Recovery),
            submits0: self.warmup.len(),
            loss_ordinal,
            svc,
        }
    }

    fn run(&self, mut ready: Ready, tr: &mut Tracer, verify: bool) -> Done {
        let n = self.arrivals.len();
        let mut outcomes = Vec::with_capacity(n);
        let mut accepted = self.warmup.clone();
        let mut plans = Vec::new();
        let (mut ticks, mut late, mut idle_submits) = (0u64, 0u64, 0u64);
        let mut max_late_s: f64 = 0.0;
        let mut stalled = false;
        let mut next = 0;
        let t0 = ready.t0;
        let svc = &mut ready.svc;
        let mut submit = |svc: &mut Service, i: usize, tr: &mut Tracer| {
            let a = &self.arrivals[i];
            let lateness = svc.now() - (t0 + a.due_s);
            if lateness > 0.0 {
                late += 1;
                max_late_s = max_late_s.max(lateness);
            }
            if verify {
                plans.push(svc.admission_plan(&a.req).ok());
            }
            let span = tr.begin("submit", "serve", Some(i as u64));
            let r = svc.submit(a.req.clone());
            tr.end(span);
            outcomes.push(match r {
                Ok(id) => {
                    accepted.push(a.req.clone());
                    Outcome::Accepted(id)
                }
                Err(e) => Outcome::Rejected(e),
            });
        };
        loop {
            let now = svc.now();
            while next < n && t0 + self.arrivals[next].due_s <= now {
                submit(svc, next, tr);
                next += 1;
            }
            if svc.queue_depth() > 0 || svc.n_running() > 0 {
                let span = tr.begin("tick", "serve", None);
                let events = svc.tick();
                tr.end(span);
                ticks += 1;
                if events == 0 {
                    stalled = true;
                    break;
                }
            } else if next < n {
                idle_submits += 1;
                submit(svc, next, tr);
                next += 1;
            } else {
                break;
            }
        }
        Done {
            ready,
            outcomes,
            accepted,
            plans,
            ticks,
            late,
            max_late_s,
            idle_submits,
            stalled,
        }
    }

    fn restore(&self, done: &Done, tr: &mut Tracer) -> Result<(), String> {
        let span = tr.begin("snapshot", "serve", None);
        let snap = done.ready.svc.snapshot();
        tr.end(span);
        let group = self.group(done.ready.loss_ordinal);
        let span = tr.begin("restore", "serve", None);
        let restored = Service::restore(group, self.cfg.clone(), &snap, done.accepted.clone());
        tr.end(span);
        match restored {
            Ok(svc) if svc.snapshot() == snap => Ok(()),
            Ok(_) => Err("restored journal is not byte-equal to the snapshot".into()),
            Err(e) => Err(format!("restore failed: {e}")),
        }
    }

    fn summarize(&self, done: &Done, verify: bool) -> Summary {
        let r = &done.ready;
        let svc = &r.svc;
        let offered = self.arrivals.len();
        let mut sum = Summary {
            attempted: offered as u64,
            ..Summary::default()
        };
        if done.stalled {
            sum.failures
                .push("a tick made no progress with work left".into());
        }
        let records: BTreeMap<u64, &JobRecord> = svc.records().iter().map(|r| (r.job, r)).collect();
        let (mut n_acc, mut n_infeasible, mut n_full) = (0usize, 0usize, 0usize);
        let (mut latencies, mut waits, mut errs) = (Vec::new(), Vec::new(), Vec::new());
        let (mut met, mut completed, mut device_s) = (0usize, 0usize, 0.0);
        for (i, (a, out)) in self.arrivals.iter().zip(&done.outcomes).enumerate() {
            let id = match out {
                Outcome::Accepted(id) => *id,
                Outcome::Rejected(e) => {
                    // Infeasible and QueueFull are designed outcomes, not
                    // failures; any other submit error is.
                    let kind = match e {
                        ServeError::Infeasible { .. } => {
                            n_infeasible += 1;
                            "infeasible"
                        }
                        ServeError::QueueFull { .. } => {
                            n_full += 1;
                            "queue-full"
                        }
                        other => {
                            sum.failures
                                .push(format!("arrival {i}: submit failed: {other}"));
                            "error"
                        }
                    };
                    sum.fingerprints
                        .push(format!("arrival={i} rejected={kind}"));
                    continue;
                }
            };
            n_acc += 1;
            let status = svc.status(id).unwrap_or(JobStatus::Failed);
            let Some(rec) = records.get(&id.0).copied() else {
                sum.failures
                    .push(format!("arrival {i}: {id} has no record ({status:?})"));
                continue;
            };
            device_s += rec.device_seconds;
            match (status, rec.outcome) {
                (JobStatus::Completed, JobOutcome::Completed) => {}
                (JobStatus::Shed, JobOutcome::Shed) => {
                    sum.fingerprints.push(format!("arrival={i} shed"));
                    continue;
                }
                (s, o) => {
                    sum.failures
                        .push(format!("arrival {i}: {id} ended {s:?}/{o:?}"));
                    continue;
                }
            }
            let Ok(res) = svc.result(id) else {
                sum.failures
                    .push(format!("arrival {i}: completed without a result"));
                continue;
            };
            let fp = fingerprint(
                &format!("arrival={i}"),
                res.best_value,
                &res.best_position,
                res.migrations,
            );
            completed += 1;
            let due = r.t0 + a.due_s;
            let latency = rec.finished_s - due.min(rec.submitted_s);
            latencies.push(latency);
            waits.push(rec.started_s - rec.submitted_s);
            let ok = match a.req.deadline_s {
                Some(d) => rec.finished_s - rec.submitted_s <= d,
                None => latency <= self.slo_s,
            };
            met += usize::from(ok);
            if let Some(Some((strategy, predicted))) = done.plans.get(i) {
                if *predicted > 0.0 && rec.device_seconds > 0.0 {
                    errs.push((predicted - rec.device_seconds).abs() / rec.device_seconds);
                }
                if verify {
                    match GpuBackend::new()
                        .strategy(*strategy)
                        .algorithm(a.req.algorithm)
                        .fused(a.req.fused)
                        .run(&a.req.cfg, a.req.objective.as_ref())
                    {
                        Ok(direct) => {
                            let want = fingerprint(
                                &format!("arrival={i}"),
                                direct.best_value,
                                &direct.best_position,
                                direct.migrations,
                            );
                            if want != fp {
                                sum.failures
                                    .push(format!("arrival {i}: served {fp} != direct {want}"));
                            }
                        }
                        Err(e) => sum.failures.push(format!("arrival {i}: direct run: {e}")),
                    }
                }
            }
            sum.fingerprints.push(fp);
        }

        let span_s = svc.now() - r.t0;
        let goodput = svc.goodput_s() - r.warm_goodput;
        let m = &mut sum.modeled;
        m.insert("modeled_solve_s", span_s);
        m.insert("latency_p50_ms", quantile(&latencies, 0.5) * 1e3);
        m.insert("latency_p95_ms", quantile(&latencies, 0.95) * 1e3);
        m.insert("slo_met_frac", met as f64 / offered as f64);
        m.insert("goodput_s", goodput);
        m.insert("accept_frac", n_acc as f64 / offered as f64);
        m.insert("modeled_jobs_per_s", completed as f64 / span_s);

        let journal = svc.journal().events();
        let count = |f: fn(&ServeEvent) -> bool| journal.iter().filter(|e| f(e)).count() as f64;
        let c = &mut sum.counts;
        c.insert("serve.ticks", done.ticks as f64);
        c.insert("serve.queue_wait_p95_ms", quantile(&waits, 0.95) * 1e3);
        let launches = svc.group().merged_counters().kernel_launches - r.launches0;
        c.insert(
            "serve.launches_per_job",
            launches as f64 / completed.max(1) as f64,
        );
        c.insert(
            "serve.preempts",
            count(|e| matches!(e, ServeEvent::Preempt { .. })),
        );
        c.insert(
            "serve.rehomes",
            count(|e| matches!(e, ServeEvent::Rehome { .. })),
        );
        c.insert(
            "serve.sheds",
            count(|e| matches!(e, ServeEvent::Shed { .. })),
        );
        c.insert("serve.downgrades", svc.admission_downgrades() as f64);
        c.insert(
            "serve.recovery_s",
            svc.group().merged_timeline().seconds(Phase::Recovery) - r.recovery0,
        );
        c.insert(
            "serve.useful_frac",
            goodput / device_s.max(f64::MIN_POSITIVE),
        );
        c.insert("serve.journal_bytes", svc.snapshot().len() as f64);
        c.insert("gpu_sim.lease_peak", svc.occupancy().1 as f64);
        c.insert("perf_model.pred_err_p50", quantile(&errs, 0.5));
        c.insert("perf_model.pred_err_p95", quantile(&errs, 0.95));

        if verify {
            // Work of the measured phase only: records that started on each
            // device's clock after the warm-up ended there.
            let mut log = svc.merged_profiler();
            log.kernels.retain(|k| k.start_s >= r.dev_t0[k.device]);
            sum.work.add_profile(&log);
            profiler_counts(&log, &mut sum.counts);
            sum.counts.insert(
                "perf_model.profiler_records",
                svc.merged_profiler().len() as f64,
            );
            let (in_use, _) = svc.occupancy();
            if in_use != 0 {
                sum.failures.push(format!("{in_use} leases held at idle"));
            }
            let bytes: usize = svc.group().iter().map(|d| d.bytes_in_use()).sum();
            if bytes != 0 {
                sum.failures
                    .push(format!("{bytes} device bytes held at idle"));
            }
            let journaled = count(|e| matches!(e, ServeEvent::Submit { .. })) as usize;
            if journaled != r.submits0 + n_acc {
                sum.failures.push(format!(
                    "journal holds {journaled} submits, expected {}",
                    r.submits0 + n_acc
                ));
            }
            if n_acc + n_infeasible + n_full != offered
                || svc.rejected_infeasible() != n_infeasible as u64
            {
                sum.failures.push(format!(
                    "accepted {n_acc} + rejected {} != offered {offered}",
                    n_infeasible + n_full
                ));
            }
        }
        let notes = &mut sum.notes;
        notes.push(("offered", offered.to_string()));
        notes.push(("accepted", n_acc.to_string()));
        notes.push(("rejected infeasible", n_infeasible.to_string()));
        notes.push(("rejected queue-full", n_full.to_string()));
        notes.push(("completed", completed.to_string()));
        notes.push((
            "reject_frac",
            format!("{}", (offered - n_acc) as f64 / offered as f64),
        ));
        notes.push(("late arrivals", done.late.to_string()));
        notes.push((
            "max lateness (modeled ms)",
            format!("{}", done.max_late_s * 1e3),
        ));
        notes.push(("idle submits", done.idle_submits.to_string()));
        notes.push((
            "latency limit (modeled ms)",
            format!("{}", self.slo_s * 1e3),
        ));
        sum
    }

    fn probe_shape(&self) -> ProbeShape {
        let mut shape = ProbeShape::new(
            self.probe_n,
            self.probe_d,
            self.arrivals.iter().map(|a| Arc::clone(&a.req.objective)),
        );
        for a in &self.arrivals {
            let c = &a.req.cfg;
            shape.shapes.push(
                JobShape::new(
                    c.n_particles as u64,
                    c.dim as u64,
                    c.max_iter as u64,
                    &a.req.strategy.to_string(),
                )
                .algorithm(&a.req.algorithm.to_string())
                .flops_per_dim(a.req.objective.flops_per_dim()),
            );
        }
        shape
    }

    fn traced_layers(&self, tr: &mut Tracer, first_traced_span: usize) -> (Layers, Vec<String>) {
        (span_layers(tr, first_traced_span), Vec::new())
    }
}

/// Host-time statistics of the serve calls traced since span `from`.
pub fn span_layers(tr: &Tracer, from: usize) -> Layers {
    let ticks = tr.durations_us(from, "tick");
    let submits = tr.durations_us(from, "submit");
    let snaps = tr.durations_us(from, "snapshot");
    let mut out = Layers::new();
    out.insert("serve.tick_p50_us", quantile(&ticks, 0.5));
    out.insert("serve.tick_p95_us", quantile(&ticks, 0.95));
    out.insert("serve.submit_p95_us", quantile(&submits, 0.95));
    out.insert("serve.snapshot_us", median(&snaps));
    out
}

// ---- the two serve workloads ---------------------------------------------

const TENANTS: [&str; 3] = ["acme", "globex", "initech"];

fn objective(k: usize) -> Arc<dyn Objective> {
    match k % 3 {
        0 => Arc::new(Sphere),
        1 => Arc::new(Rastrigin),
        _ => Arc::new(Griewank),
    }
}

/// Jobs in the `serve-tiny` trace.
const TINY_JOBS: usize = 576;
/// Distinct job types in the `serve-tiny` mix (size × dims × algorithm ×
/// iterations); arrivals cycle through them.
const TINY_TYPES: usize = 144;
/// Arrivals per modeled second in `serve-tiny`: about half the 2-device
/// group's batched capacity.
const TINY_RATE: f64 = 1000.0;

fn tiny_request(k: usize, cfg_seed: u64) -> OptimizeRequest {
    let n = 16 + 16 * (k % 4);
    let d = 5 + (k / 4) % 4;
    let algo = [Algorithm::Pso, Algorithm::Sso, Algorithm::Gfwa][(k / 16) % 3];
    let mut cfg = PsoConfig::builder(n, d)
        .max_iter(40 + 10 * ((k / 48) % 3))
        .seed(cfg_seed)
        .build()
        .expect("valid tiny config");
    if k.is_multiple_of(5) {
        cfg.topology = Topology::Islands {
            islands: 2,
            migration: Migration {
                kind: MigrationKind::Ring,
                every_k: 5,
                elites: 1,
            },
        };
    }
    let obj: Arc<dyn Objective> = if algo == Algorithm::Sso {
        Arc::new(Qap)
    } else {
        objective(k)
    };
    OptimizeRequest::new(TENANTS[k % 3], obj, cfg).algorithm(algo)
}

/// `serve-tiny`: tiny, launch-bound jobs (16–64 particles, 5–8 dims, 40–60
/// iterations; pso, sso on QAP and gfwa; one in five islands) arriving at
/// a fixed rate below capacity on a 2-device group with micro-batching on.
/// Host time is the scheduler tick, batch forming, per-node executor
/// overhead and profiler bookkeeping, not kernel math.
///
/// The job mix and its cyclic order are the same for every seed, so the
/// modeled figures stay steady; the seed picks where in the cycle the trace
/// starts and seeds each job's swarm.
pub fn tiny(seed: u64) -> ServeWorkload {
    let offset = (mix(seed, 1) % TINY_TYPES as u64) as usize;
    let arrivals = (0..TINY_JOBS)
        .map(|i| Arrival {
            due_s: i as f64 / TINY_RATE,
            req: tiny_request((offset + i) % TINY_TYPES, mix(seed, 1000 + i as u64)),
        })
        .collect();
    // Calibration: one deadline-free job per algorithm, with and without
    // islands.
    let warmup = [0, 1, 16, 20, 32, 35]
        .iter()
        .map(|&k| {
            let mut req = tiny_request(k, 7_000 + k as u64);
            req.tenant = "warmup".into();
            req
        })
        .collect();
    ServeWorkload {
        name: "serve-tiny",
        devices: 2,
        cfg: ServeConfig {
            slots_per_device: 4,
            slice_iters: 10,
            predictive_admission: true,
            batching: Some(BatchPolicy::default()),
            ..ServeConfig::default()
        },
        warmup,
        arrivals,
        loss: None,
        slo_s: 0.05,
        probe_n: 40,
        probe_d: 6,
    }
}

/// Arrivals in the `serve-overload-loss` trace.
const OVERLOAD_JOBS: usize = 768;
/// Distinct job types in the overload mix; arrivals cycle through them.
const OVERLOAD_TYPES: usize = 96;
/// Arrivals per modeled second (about twice the 4-device group's capacity).
const OVERLOAD_RATE: f64 = 260.0;
/// Deadline carried by half the arrivals, modeled seconds after submit.
const OVERLOAD_DEADLINE_S: f64 = 0.01;
/// Launches on the lost device, after the warm-up, before it dies.
const LOSS_LAUNCH: u64 = 40_000;

fn overload_request(k: usize, cfg_seed: u64) -> OptimizeRequest {
    let n = [32, 64, 128, 256][k % 4];
    let d = [8, 16][(k / 4) % 2];
    let iters = [40, 60, 80][(k / 8) % 3];
    let algo = if n == 256 {
        Algorithm::Pso
    } else {
        [
            Algorithm::Pso,
            Algorithm::Pso,
            Algorithm::Sso,
            Algorithm::Gfwa,
        ][(k / 24) % 4]
    };
    let cfg = PsoConfig::builder(n, d)
        .max_iter(iters)
        .seed(cfg_seed)
        .build()
        .expect("valid overload config");
    let obj: Arc<dyn Objective> = if algo == Algorithm::Sso {
        Arc::new(Qap)
    } else {
        objective(k)
    };
    OptimizeRequest::new(TENANTS[k % 3], obj, cfg)
        .algorithm(algo)
        .priority([Priority::Low, Priority::Normal, Priority::High][(k / 2) % 3])
}

/// `serve-overload-loss`: an open loop at about twice capacity on 4
/// devices, with predictive admission (headroom 1.2), tight deadlines on
/// half the jobs, three priorities (so preemption happens), a checkpoint
/// every slice, 256-particle jobs that shard, and device 3 lost mid-run.
/// Like `serve-tiny`, the seed picks the start of a fixed cyclic mix and
/// seeds each job's swarm.
pub fn overload(seed: u64) -> ServeWorkload {
    let offset = (mix(seed, 2) % OVERLOAD_TYPES as u64) as usize;
    // Calibration: one deadline-free job of each algorithm and size.
    let warmup = (0..24)
        .map(|k| {
            let mut req = overload_request(k, 7_000 + k as u64);
            req.tenant = "warmup".into();
            req.priority = Priority::Normal;
            req
        })
        .collect();
    let arrivals = (0..OVERLOAD_JOBS)
        .map(|i| {
            let k = (offset + i) % OVERLOAD_TYPES;
            let mut req = overload_request(k, mix(seed, 2000 + i as u64));
            if k.is_multiple_of(2) {
                req = req.deadline_s(OVERLOAD_DEADLINE_S);
            }
            Arrival {
                due_s: i as f64 / OVERLOAD_RATE,
                req,
            }
        })
        .collect();
    ServeWorkload {
        name: "serve-overload-loss",
        devices: 4,
        cfg: ServeConfig {
            slots_per_device: 4,
            slice_iters: 10,
            shard_threshold_particles: 256,
            checkpoint_slices: 1,
            priority_preemption: true,
            predictive_admission: true,
            admission_headroom: 1.2,
            ..ServeConfig::default()
        },
        warmup,
        arrivals,
        loss: Some((3, LOSS_LAUNCH)),
        slo_s: 0.05,
        probe_n: 128,
        probe_d: 12,
    }
}
