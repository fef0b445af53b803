//! Statistical and structural tests of the RNG substrate beyond the
//! known-answer vectors: uniformity (chi-square), serial correlation,
//! avalanche behaviour of the Philox bijection, and cross-generator
//! independence.

use fastpso_prng::{Philox, SplitMix64, Xoshiro256pp};
use proptest::prelude::*;

/// Chi-square statistic of `samples` over `bins` equiprobable bins.
fn chi_square(samples: &[f32], bins: usize) -> f64 {
    let mut counts = vec![0u64; bins];
    for &s in samples {
        let b = ((s * bins as f32) as usize).min(bins - 1);
        counts[b] += 1;
    }
    let expected = samples.len() as f64 / bins as f64;
    counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum()
}

#[test]
fn philox_uniformity_chi_square() {
    let p = Philox::new(123);
    let samples: Vec<f32> = (0..200_000).map(|i| p.uniform_at(i, 0)).collect();
    // 100 bins → 99 dof; the 0.999 quantile is ~148. Fail far above it.
    let chi = chi_square(&samples, 100);
    assert!(chi < 160.0, "chi-square = {chi}");
}

#[test]
fn xoshiro_uniformity_chi_square() {
    let mut g = Xoshiro256pp::new(9);
    let samples: Vec<f32> = (0..200_000).map(|_| g.next_f32()).collect();
    let chi = chi_square(&samples, 100);
    assert!(chi < 160.0, "chi-square = {chi}");
}

#[test]
fn philox_serial_correlation_is_negligible() {
    let p = Philox::new(31);
    let n = 100_000u64;
    let xs: Vec<f64> = (0..n).map(|i| p.uniform_at(i, 7) as f64 - 0.5).collect();
    let var: f64 = xs.iter().map(|x| x * x).sum::<f64>() / n as f64;
    let cov: f64 = xs.windows(2).map(|w| w[0] * w[1]).sum::<f64>() / (n - 1) as f64;
    let rho = cov / var;
    assert!(rho.abs() < 0.01, "lag-1 autocorrelation = {rho}");
}

#[test]
fn philox_avalanche_single_bit_counter_flip() {
    // Flipping one counter bit should flip ~half of the 128 output bits.
    let p = Philox::new(5);
    let mut total_flips = 0u32;
    let trials = 256u32;
    for t in 0..trials {
        let base = p.block([t, 0, 0, 0]);
        let flipped = p.block([t ^ 0x8000_0000, 0, 0, 0]);
        for lane in 0..4 {
            total_flips += (base[lane] ^ flipped[lane]).count_ones();
        }
    }
    let mean = total_flips as f64 / trials as f64;
    assert!(
        (mean - 64.0).abs() < 4.0,
        "avalanche mean {mean} bits (expect ~64 of 128)"
    );
}

#[test]
fn splitmix_feeds_distinct_xoshiro_states() {
    // Nearby seeds must produce unrelated streams (SplitMix expansion).
    let mut a = Xoshiro256pp::new(1);
    let mut b = Xoshiro256pp::new(2);
    let matches = (0..10_000).filter(|_| a.next_u64() == b.next_u64()).count();
    assert_eq!(matches, 0);
}

#[test]
fn splitmix_derive_is_prefix_stable() {
    let long = SplitMix64::derive(77, 64);
    let short = SplitMix64::derive(77, 16);
    assert_eq!(&long[..16], &short[..]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The Philox bijection never maps two distinct counters to the same
    /// block under one key (injectivity spot-check).
    #[test]
    fn philox_blocks_injective(seed in any::<u64>(), a in any::<u32>(), b in any::<u32>()) {
        prop_assume!(a != b);
        let p = Philox::new(seed);
        prop_assert_ne!(p.block([a, 1, 2, 3]), p.block([b, 1, 2, 3]));
    }

    /// fill_uniform agrees with per-element addressing for arbitrary
    /// offsets — the property the GPU kernels rely on when sharding.
    #[test]
    fn fill_matches_pointwise_addressing(
        seed in any::<u64>(),
        domain in any::<u64>(),
        offset in 0u64..1_000_000,
        len in 1usize..200,
    ) {
        let p = Philox::new(seed);
        let mut buf = vec![0.0f32; len];
        p.fill_uniform(&mut buf, domain, offset, 0.0, 1.0);
        for (i, &v) in buf.iter().enumerate() {
            prop_assert_eq!(v, p.uniform_at(offset + i as u64, domain));
        }
    }

    /// The block visitor equals pointwise `u32_at`, in order, for every
    /// head alignment (`offset % 4` in 0..4), short and long runs, domains
    /// with a non-zero high word, and runs whose block index crosses 2^32.
    #[test]
    fn for_each_word_matches_pointwise_u32_at(
        seed in any::<u64>(),
        domain_lo in any::<u32>(),
        domain_hi in 1u32..u32::MAX,
        block in 0u64..1_000_000,
        cross_2_32 in any::<bool>(),
        lane in 0u64..4,
        short in 0usize..10,
        long in 0usize..201,
    ) {
        let p = Philox::new(seed);
        let domain = (u64::from(domain_hi) << 32) | u64::from(domain_lo);
        // Crossing runs start up to 40 blocks below block 2^32.
        let block = if cross_2_32 { (1u64 << 32) - 1 - block % 40 } else { block };
        let offset = (block << 2) | lane;
        for len in [short, long] {
            let mut got = Vec::new();
            p.for_each_word(domain, offset, len, |i, w| got.push((i, w)));
            let want: Vec<(usize, u32)> =
                (0..len).map(|i| (i, p.u32_at(offset + i as u64, domain))).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// Range mapping respects bounds for arbitrary finite ranges.
    #[test]
    fn range_mapping_respects_bounds(
        seed in any::<u64>(),
        idx in any::<u64>(),
        lo in -1.0e6f32..1.0e6,
        width in 1.0e-3f32..1.0e6,
    ) {
        let hi = lo + width;
        let v = Philox::new(seed).uniform_range_at(idx, 0, lo, hi);
        prop_assert!(v >= lo && v < hi, "v={v} not in [{lo}, {hi})");
    }
}
