//! Algorithm-pluggable swarm ops: the abstraction that turns the plan IR
//! from "a PSO" into a swarm-intelligence platform.
//!
//! Every algorithm the repo serves shares one iteration skeleton — evaluate
//! the population, update per-particle bests, reduce the swarm best — and
//! differs only in its *update tail*: the kernels that move the population.
//! [`SwarmAlgorithm`] captures exactly that seam. An implementation emits
//! its per-shard update ops into the [`crate::plan::ExecutionPlan`] node
//! list, declares whether the fusion rewrite is legal for it, names its
//! persistent-kernel region and says whether shards carry extra
//! per-particle state. Its two strategy ladders — admission downgrade and
//! fault fallback — are rows of one table, [`cheaper_strategy_for`] and
//! [`fallback_strategy_for`] read it. The single `PlanRun`
//! executor, the resilience hooks, checkpoint/suspend/resume, the serving
//! layer and the cost predictor all operate on the generic op set and never
//! branch on "is this PSO".
//!
//! Three algorithms are registered:
//!
//! * [`Algorithm::Pso`] — FastPSO's velocity/position pair (the paper's
//!   step (iv)); the first implementation, emitting the exact legacy node
//!   sequence so every pre-existing PSO golden stays byte-identical.
//! * [`Algorithm::Sso`] — discrete Simplified Swarm Optimization after
//!   Yeh et al. (arXiv:2110.01470): a single per-element index-sampling
//!   kernel replaces the velocity arithmetic entirely.
//! * [`Algorithm::Gfwa`] — guided fireworks after Meng & Tan
//!   (arXiv:2501.03944): explosion sparks, a multi-guiding spark built from
//!   the spark ranking, and a selection/amplitude-adaptation step, mapped
//!   onto the existing reduce/argmin machinery.
//!
//! See `ARCHITECTURE.md` ("plugging in an algorithm") for the full contract
//! a new implementation must satisfy.

use crate::gpu::UpdateStrategy;
use crate::grammar;
use crate::plan::{PlanNode, PlanOp};
use gpu_sim::Phase;
use std::fmt;
use std::str::FromStr;

/// Which swarm-intelligence algorithm a plan runs. This is the serializable
/// key every layer shares: the plan builder, the backend registry
/// (`fastpso-sso`, `fastpso-gfwa`), the serve scheduler's admission ladder,
/// the micro-batching compat key and the cost predictor's calibration key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Particle Swarm Optimization — the paper's FastPSO (the default).
    #[default]
    Pso,
    /// Discrete Simplified Swarm Optimization (Yeh et al.,
    /// arXiv:2110.01470): per-element index sampling against thresholds
    /// `Cg < Cp < Cw`, no velocity state.
    Sso,
    /// Guided Fireworks (GFWA-style, Meng & Tan, arXiv:2501.03944):
    /// explosion sparks within a per-firework amplitude plus a guiding
    /// spark from the top/bottom spark ranking.
    Gfwa,
}

impl Algorithm {
    /// All registered algorithms, PSO first.
    pub const ALL: [Algorithm; 3] = [Algorithm::Pso, Algorithm::Sso, Algorithm::Gfwa];
}

/// Every algorithm with its one spelling.
const ALGORITHM_KEYS: &grammar::Table<Algorithm> = &[
    (Algorithm::Pso, &["pso"]),
    (Algorithm::Sso, &["sso"]),
    (Algorithm::Gfwa, &["gfwa"]),
];

/// Canonical lowercase keys, `FromStr`-round-trippable.
impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(grammar::key(ALGORITHM_KEYS, *self))
    }
}

/// Parses the canonical keys case-insensitively, ignoring surrounding
/// whitespace; anything else — including plausible-looking future
/// algorithm names — is rejected, so a typo in a CLI flag or a serve
/// request surfaces immediately instead of silently running PSO.
///
/// ```
/// use fastpso::Algorithm;
/// assert_eq!("SSO".parse::<Algorithm>().unwrap(), Algorithm::Sso);
/// assert_eq!(Algorithm::Gfwa.to_string().parse::<Algorithm>().unwrap(), Algorithm::Gfwa);
/// assert!("cmaes".parse::<Algorithm>().is_err());
/// ```
impl FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        grammar::parse(ALGORITHM_KEYS, "algorithm", s)
    }
}

/// The pluggable per-algorithm surface of the plan layer. Implementations
/// are stateless unit structs reached through [`algorithm_impl`]; all
/// mutable state lives in the shards and the executor.
pub trait SwarmAlgorithm: Sync {
    /// The serializable key of this implementation.
    fn key(&self) -> Algorithm;

    /// Emit one shard's per-iteration update tail (everything between the
    /// shared eval→pbest→argmin→reduce prefix and the end of the
    /// iteration, *including* the trailing [`PlanOp::DeviceSync`]) into
    /// `nodes`. `barrier` is the node index the tail's first data-dependent
    /// op must depend on — the reduce/adopt node, or the ring gather when
    /// one was inserted.
    fn emit_update(&self, nodes: &mut Vec<PlanNode>, shard: usize, barrier: usize);

    /// Whether the kernel-fusion rewrite pass is legal for this algorithm
    /// under `strategy`. Fusion collapses a `Velocity`/`Position` pair, so
    /// only algorithms that emit that pair (and only the untiled
    /// strategies) ever fuse.
    fn fusible(&self, strategy: UpdateStrategy) -> bool;

    /// Name of the persistent-kernel region [`crate::plan`]'s executor
    /// opens when a plan of this algorithm is lowered persistent.
    fn persistent_region(&self) -> &'static str;

    /// Whether shards of this algorithm carry the optional extra
    /// per-particle state buffer (`Shard::extra` — GFWA's explosion
    /// amplitudes). Algorithms without extra state keep the buffer `None`,
    /// so their allocation and checkpoint traffic is unchanged.
    fn extra_state(&self) -> bool;
}

fn push(
    nodes: &mut Vec<PlanNode>,
    op: PlanOp,
    shard: usize,
    phase: Phase,
    deps: Vec<usize>,
) -> usize {
    nodes.push(PlanNode {
        op,
        shard,
        phase,
        deps,
        stream: 0,
        wait: Vec::new(),
    });
    nodes.len() - 1
}

/// FastPSO proper: the paper's velocity/position update pair.
pub struct Pso;

impl SwarmAlgorithm for Pso {
    fn key(&self) -> Algorithm {
        Algorithm::Pso
    }

    fn emit_update(&self, nodes: &mut Vec<PlanNode>, shard: usize, barrier: usize) {
        // GenWeights has no in-iteration deps: its RNG is counter-based
        // on (seed, t, element), independent of every other step.
        let g = push(nodes, PlanOp::GenWeights, shard, Phase::Init, vec![]);
        let v = push(
            nodes,
            PlanOp::Velocity,
            shard,
            Phase::SwarmUpdate,
            vec![barrier, g],
        );
        let p = push(nodes, PlanOp::Position, shard, Phase::SwarmUpdate, vec![v]);
        push(
            nodes,
            PlanOp::DeviceSync,
            shard,
            Phase::SwarmUpdate,
            vec![p],
        );
    }

    fn fusible(&self, strategy: UpdateStrategy) -> bool {
        matches!(
            strategy,
            UpdateStrategy::GlobalMem | UpdateStrategy::ForLoop
        )
    }

    fn persistent_region(&self) -> &'static str {
        "persistent_pso"
    }

    fn extra_state(&self) -> bool {
        false
    }
}

/// Discrete Simplified Swarm Optimization: one index-sampling kernel.
pub struct Sso;

impl SwarmAlgorithm for Sso {
    fn key(&self) -> Algorithm {
        Algorithm::Sso
    }

    fn emit_update(&self, nodes: &mut Vec<PlanNode>, shard: usize, barrier: usize) {
        let u = push(
            nodes,
            PlanOp::SsoUpdate,
            shard,
            Phase::SwarmUpdate,
            vec![barrier],
        );
        push(
            nodes,
            PlanOp::DeviceSync,
            shard,
            Phase::SwarmUpdate,
            vec![u],
        );
    }

    fn fusible(&self, _strategy: UpdateStrategy) -> bool {
        // There is no Velocity/Position pair to collapse: the update is
        // already a single launch.
        false
    }

    fn persistent_region(&self) -> &'static str {
        "persistent_sso"
    }

    fn extra_state(&self) -> bool {
        false
    }
}

/// GFWA-style guided fireworks: explosion → guiding spark → selection.
pub struct Gfwa;

impl SwarmAlgorithm for Gfwa {
    fn key(&self) -> Algorithm {
        Algorithm::Gfwa
    }

    fn emit_update(&self, nodes: &mut Vec<PlanNode>, shard: usize, barrier: usize) {
        let e = push(
            nodes,
            PlanOp::Explosion,
            shard,
            Phase::SwarmUpdate,
            vec![barrier],
        );
        let g = push(
            nodes,
            PlanOp::GuidingSpark,
            shard,
            Phase::SwarmUpdate,
            vec![e],
        );
        let s = push(nodes, PlanOp::Selection, shard, Phase::SwarmUpdate, vec![g]);
        push(
            nodes,
            PlanOp::DeviceSync,
            shard,
            Phase::SwarmUpdate,
            vec![s],
        );
    }

    fn fusible(&self, _strategy: UpdateStrategy) -> bool {
        // The three stages exchange spark populations host-side; collapsing
        // them would change the modeled traffic, so fusion is illegal.
        false
    }

    fn persistent_region(&self) -> &'static str {
        "persistent_gfwa"
    }

    fn extra_state(&self) -> bool {
        true
    }
}

/// Look up the registered implementation of `a`. The registry is the only
/// place a new algorithm must be added for the plan builder, the executor,
/// the backends and the serving layer to pick it up.
pub fn algorithm_impl(a: Algorithm) -> &'static dyn SwarmAlgorithm {
    match a {
        Algorithm::Pso => &Pso,
        Algorithm::Sso => &Sso,
        Algorithm::Gfwa => &Gfwa,
    }
}

/// One row of [`LADDERS`]: `(algorithm, strategy, admission downgrade,
/// fault fallback)`.
type Rung = (
    Algorithm,
    UpdateStrategy,
    Option<UpdateStrategy>,
    Option<UpdateStrategy>,
);

/// Both strategy ladders, one [`Rung`] per `(algorithm, strategy)`. An
/// algorithm or strategy with no row has no rung on either ladder — SSO's
/// index-sampling kernel and GFWA's spark kernels each have one
/// implementation, so the memory strategy never changes their cost or
/// their failure modes.
///
/// The **admission downgrade** column is the knob `fastpso::serve` turns
/// when a job's requested strategy cannot meet its deadline; each step
/// strictly reduces modeled cost:
///
/// * `ForLoop → GlobalMem → SharedMem → LowComplexity` — fewer
///   latency-bound threads, then staged broadcast traffic, then `d`-fold
///   fewer RNG draws.
/// * `TensorCore` is never *entered* by a downgrade: its f16 rounding is an
///   opt-in numeric contract. A job that requested it steps straight to the
///   reduced-work rung.
/// * `LowComplexity` is the last rung: it changes the trajectory
///   (documented reduced-work numerics), which is exactly the trade a
///   deadline-pressed job accepts instead of being shed.
///
/// The **fault fallback** column is what [`crate::resilience`] walks after
/// a permanent launch failure in the swarm update, toward the most
/// *conservative* rung: `TensorCore → SharedMem → GlobalMem → ForLoop`, all
/// bitwise-equal math. `LowComplexity` never degrades: switching numerics
/// mid-run would silently change a trajectory the caller opted into, so
/// faults that exhaust its retries fail the run instead.
#[rustfmt::skip]
const LADDERS: [Rung; 5] = {
    use UpdateStrategy::*;
    [
        // algorithm     strategy       downgrade            fallback
        (Algorithm::Pso, ForLoop,       Some(GlobalMem),     None),
        (Algorithm::Pso, GlobalMem,     Some(SharedMem),     Some(ForLoop)),
        (Algorithm::Pso, SharedMem,     Some(LowComplexity), Some(GlobalMem)),
        (Algorithm::Pso, TensorCore,    Some(LowComplexity), Some(SharedMem)),
        (Algorithm::Pso, LowComplexity, None,                None),
    ]
};

fn rung(algo: Algorithm, s: UpdateStrategy) -> Option<&'static Rung> {
    LADDERS.iter().find(|r| r.0 == algo && r.1 == s)
}

/// The next cheaper rung below `s` in `algo`'s admission downgrade ladder
/// (the ladder table's third column), or `None` when there is nothing
/// cheaper; the per-algorithm entry point the serve admission controller
/// walks.
pub fn cheaper_strategy_for(algo: Algorithm, s: UpdateStrategy) -> Option<UpdateStrategy> {
    rung(algo, s).and_then(|r| r.2)
}

/// The next more conservative rung below `s` in `algo`'s fault fallback
/// ladder (the ladder table's fourth column), or `None` if `s` is already the
/// last resort.
pub fn fallback_strategy_for(algo: Algorithm, s: UpdateStrategy) -> Option<UpdateStrategy> {
    rung(algo, s).and_then(|r| r.3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_display_round_trips_and_rejects_unknown_keys() {
        for a in Algorithm::ALL {
            let s = a.to_string();
            assert_eq!(s.parse::<Algorithm>().unwrap(), a, "{s}");
            assert_eq!(s.to_uppercase().parse::<Algorithm>().unwrap(), a);
        }
        for bad in ["cmaes", "pso2", "fireworks", "", "sso "] {
            // (trailing-space case trims, so exclude it from rejection)
            if bad.trim() == "sso" {
                assert!(bad.parse::<Algorithm>().is_ok());
            } else {
                assert!(bad.parse::<Algorithm>().is_err(), "{bad:?}");
            }
        }
    }

    #[test]
    fn registry_keys_match_and_only_pso_fuses() {
        for a in Algorithm::ALL {
            let imp = algorithm_impl(a);
            assert_eq!(imp.key(), a);
            for s in UpdateStrategy::ALL {
                let fusible = imp.fusible(s);
                if a == Algorithm::Pso {
                    assert_eq!(
                        fusible,
                        matches!(s, UpdateStrategy::GlobalMem | UpdateStrategy::ForLoop)
                    );
                } else {
                    assert!(!fusible, "{a} must not fuse under {s}");
                }
            }
        }
    }

    #[test]
    fn per_algorithm_ladders_match_design_table() {
        // PSO walks the full cheaper-strategy ladder…
        assert_eq!(
            cheaper_strategy_for(Algorithm::Pso, UpdateStrategy::GlobalMem),
            Some(UpdateStrategy::SharedMem)
        );
        assert_eq!(
            cheaper_strategy_for(Algorithm::Pso, UpdateStrategy::LowComplexity),
            None
        );
        // …while the single-kernel algorithms have no rungs at all.
        for a in [Algorithm::Sso, Algorithm::Gfwa] {
            for s in UpdateStrategy::ALL {
                assert_eq!(cheaper_strategy_for(a, s), None, "{a}/{s}");
            }
        }
    }

    #[test]
    fn fallback_chain_ends_at_forloop() {
        let mut s = UpdateStrategy::TensorCore;
        let mut seen = vec![s];
        while let Some(next) = fallback_strategy_for(Algorithm::Pso, s) {
            s = next;
            seen.push(s);
        }
        assert_eq!(
            seen,
            vec![
                UpdateStrategy::TensorCore,
                UpdateStrategy::SharedMem,
                UpdateStrategy::GlobalMem,
                UpdateStrategy::ForLoop,
            ]
        );
    }

    #[test]
    fn persistent_regions_are_distinct_per_algorithm() {
        let names: std::collections::HashSet<_> = Algorithm::ALL
            .iter()
            .map(|&a| algorithm_impl(a).persistent_region())
            .collect();
        assert_eq!(names.len(), Algorithm::ALL.len());
        assert_eq!(
            algorithm_impl(Algorithm::Pso).persistent_region(),
            "persistent_pso"
        );
    }
}
