//! GPU-style parallel reductions.
//!
//! The paper implements the `gbest` update as "a process of finding the
//! minimum and its corresponding index in all the `pbest` of the particles
//! ... using a GPU-based parallel reduction" (§3.3). The simulator models a
//! standard two-level tree reduction: one pass through global memory plus a
//! logarithmic number of tiny follow-up launches, priced accordingly.

use crate::device::Device;
use crate::error::GpuError;
use crate::launch::{KernelCost, KernelDesc, LaunchConfig, DEFAULT_BLOCK};
use perf_model::{MemoryPattern, Phase};

/// Result of an argmin reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinResult {
    /// Minimum value found.
    pub value: f32,
    /// Index of the minimum. Ties resolve to the smallest index, matching
    /// a deterministic sequential scan.
    pub index: usize,
}

impl Device {
    /// Find the minimum value and its index (`gbest` update).
    pub fn reduce_min_index(&self, phase: Phase, data: &[f32]) -> Result<MinResult, GpuError> {
        self.begin_launch()?;
        if data.is_empty() {
            return Err(GpuError::Empty("reduce_min_index"));
        }
        self.charge_reduction(phase, data.len(), 8);
        // A sequential scan. NaN never wins, so a swarm with NaN errors
        // keeps its previous best; the strict `<` keeps the earliest index
        // on ties. An all-NaN input falls back to index 0.
        let mut best: Option<MinResult> = None;
        for (index, &value) in data.iter().enumerate() {
            if !value.is_nan() && best.is_none_or(|b| value < b.value) {
                best = Some(MinResult { value, index });
            }
        }
        Ok(best.unwrap_or(MinResult {
            value: data[0],
            index: 0,
        }))
    }

    /// Sum of all elements (used by evaluation kernels and `tgbm`).
    pub fn reduce_sum(&self, phase: Phase, data: &[f32]) -> Result<f64, GpuError> {
        self.begin_launch()?;
        if data.is_empty() {
            return Err(GpuError::Empty("reduce_sum"));
        }
        self.charge_reduction(phase, data.len(), 4);
        // A sequential left fold in f64: f64 addition is not associative,
        // so any other order (a split across threads, a tree) could round
        // differently. `-0.0` is the additive identity `Iterator::sum`
        // starts from, so an all-`-0.0` input keeps its sign.
        Ok(data.iter().fold(-0.0, |acc, &x| acc + f64::from(x)))
    }

    /// Charge the modeled cost of a tree reduction over `n` elements, where
    /// each element carries `elem_bytes` of payload (value or value+index).
    fn charge_reduction(&self, phase: Phase, n: usize, elem_bytes: u64) {
        let profile = self.profile();
        let first = KernelDesc {
            name: "reduce_pass0",
            phase,
            cost: KernelCost::elementwise(1, elem_bytes, 0),
            elems: n as u64,
            threads: n as u64,
            config: Some(LaunchConfig::resource_aware(&profile, n as u64)),
            pattern: MemoryPattern::Coalesced,
        };
        self.charge_kernel(&first);
        // Follow-up passes over one partial per block.
        let mut remaining = (n as u64).div_ceil(DEFAULT_BLOCK as u64);
        while remaining > 1 {
            let d = KernelDesc::simple("reduce_passN", phase, 1, elem_bytes, elem_bytes, remaining);
            self.charge_kernel(&d);
            remaining = remaining.div_ceil(DEFAULT_BLOCK as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_index_matches_sequential_scan() {
        let dev = Device::v100();
        let data = vec![5.0, 3.0, 9.0, 3.0, 7.0];
        let r = dev.reduce_min_index(Phase::GBest, &data).unwrap();
        assert_eq!(r.value, 3.0);
        assert_eq!(r.index, 1, "ties resolve to the smallest index");
    }

    #[test]
    fn min_of_single_element() {
        let dev = Device::v100();
        let r = dev.reduce_min_index(Phase::GBest, &[42.0]).unwrap();
        assert_eq!(r.index, 0);
        assert_eq!(r.value, 42.0);
    }

    #[test]
    fn empty_input_errors() {
        let dev = Device::v100();
        assert!(dev.reduce_min_index(Phase::GBest, &[]).is_err());
        assert!(dev.reduce_sum(Phase::GBest, &[]).is_err());
    }

    #[test]
    fn nan_never_wins() {
        let dev = Device::v100();
        let data = vec![f32::NAN, 2.0, f32::NAN];
        let r = dev.reduce_min_index(Phase::GBest, &data).unwrap();
        assert_eq!(r.index, 1);
        assert_eq!(r.value, 2.0);
    }

    #[test]
    fn all_nan_falls_back_to_first() {
        let dev = Device::v100();
        let r = dev
            .reduce_min_index(Phase::GBest, &[f32::NAN, f32::NAN])
            .unwrap();
        assert_eq!(r.index, 0);
        assert!(r.value.is_nan());
    }

    #[test]
    fn sum_is_exact_for_integers() {
        let dev = Device::v100();
        let data: Vec<f32> = (1..=1000).map(|i| i as f32).collect();
        let s = dev.reduce_sum(Phase::Eval, &data).unwrap();
        assert_eq!(s, 500_500.0);
    }

    #[test]
    fn sum_is_a_left_fold() {
        // Left to right, 2^60 absorbs the 1.0; any order that adds
        // 2^60 and -2^60 first would return 1.0.
        let big = 2.0f32.powi(60);
        let dev = Device::v100();
        let s = dev.reduce_sum(Phase::Eval, &[big, 1.0, -big]).unwrap();
        assert_eq!(s, 0.0);
        assert_eq!((f64::from(big) + f64::from(-big)) + 1.0, 1.0);
        let s = dev.reduce_sum(Phase::Eval, &[-0.0, -0.0]).unwrap();
        assert_eq!(s.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn reduction_charges_multiple_passes_for_large_inputs() {
        let dev = Device::v100();
        let data = vec![1.0f32; 100_000];
        dev.reduce_min_index(Phase::GBest, &data).unwrap();
        let c = dev.counters();
        // 100k elems → pass0 + 391-partials pass + 2-partials pass.
        assert!(c.kernel_launches >= 3, "launches = {}", c.kernel_launches);
    }
}
