//! `fastpso-seq` — the paper's sequential C++ port of FastPSO.

use crate::backend::PsoBackend;
use crate::config::PsoConfig;
use crate::cost::CpuCharger;
use crate::error::PsoError;
use crate::result::RunResult;
use fastpso_functions::Objective;

/// Single-threaded CPU backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeqBackend;

impl PsoBackend for SeqBackend {
    fn name(&self) -> &'static str {
        "fastpso-seq"
    }

    fn run(&self, cfg: &PsoConfig, obj: &dyn Objective) -> Result<RunResult, PsoError> {
        crate::cpu::run_cpu(cfg, obj, CpuCharger::serial())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastpso_functions::builtins::{Rastrigin, Sphere};
    use perf_model::Phase;

    fn cfg(n: usize, d: usize, iters: usize) -> PsoConfig {
        PsoConfig::builder(n, d)
            .max_iter(iters)
            .seed(1)
            .build()
            .unwrap()
    }

    #[test]
    fn converges_on_sphere() {
        let r = SeqBackend.run(&cfg(64, 8, 200), &Sphere).unwrap();
        assert!(r.best_value < 5.0, "best = {}", r.best_value);
        assert_eq!(r.iterations, 200);
        assert_eq!(r.evaluations, 64 * 200);
        assert_eq!(r.best_position.len(), 8);
    }

    #[test]
    fn improves_on_rastrigin() {
        let r = SeqBackend.run(&cfg(128, 6, 300), &Rastrigin).unwrap();
        assert!(r.best_value < 30.0, "best = {}", r.best_value);
    }

    #[test]
    fn history_is_monotone_when_recorded() {
        let c = PsoConfig::builder(32, 4)
            .max_iter(100)
            .record_history(true)
            .build()
            .unwrap();
        let r = SeqBackend.run(&c, &Sphere).unwrap();
        let h = r.history.as_ref().unwrap();
        assert_eq!(h.len(), 100);
        assert_eq!(r.history_is_monotone(), Some(true));
        assert_eq!(*h.last().unwrap() as f64, r.best_value);
    }

    #[test]
    fn deterministic_across_runs() {
        let c = cfg(32, 4, 50);
        let a = SeqBackend.run(&c, &Sphere).unwrap();
        let b = SeqBackend.run(&c, &Sphere).unwrap();
        assert_eq!(a.best_value, b.best_value);
        assert_eq!(a.best_position, b.best_position);
    }

    #[test]
    fn different_seeds_give_different_results() {
        let a = SeqBackend.run(&cfg(32, 4, 30), &Sphere).unwrap();
        let c2 = PsoConfig::builder(32, 4)
            .max_iter(30)
            .seed(2)
            .build()
            .unwrap();
        let b = SeqBackend.run(&c2, &Sphere).unwrap();
        assert_ne!(a.best_position, b.best_position);
    }

    #[test]
    fn swarm_update_dominates_modeled_time() {
        // Figure 5: >80% of CPU-FastPSO time is the swarm update.
        let r = SeqBackend.run(&cfg(256, 64, 50), &Sphere).unwrap();
        let frac = r.timeline.fraction(Phase::SwarmUpdate);
        assert!(frac > 0.6, "swarm-update fraction = {frac}");
    }

    #[test]
    fn phases_are_all_charged() {
        let r = SeqBackend.run(&cfg(16, 4, 10), &Sphere).unwrap();
        for p in [
            Phase::Init,
            Phase::Eval,
            Phase::PBest,
            Phase::GBest,
            Phase::SwarmUpdate,
        ] {
            assert!(r.phase_seconds(p) > 0.0, "phase {p:?} uncharged");
        }
    }
}
