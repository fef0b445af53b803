//! Philox4x32-10 counter-based generator (Salmon, Moraes, Dror & Shaw,
//! "Parallel random numbers: as easy as 1, 2, 3", SC'11).
//!
//! Philox is the generator cuRAND uses for massively parallel streams. It
//! is a keyed bijection on 128-bit counters: `block(key, counter)` yields
//! four statistically independent 32-bit words, and distinct counters give
//! independent outputs. There is no sequential state, so a GPU thread can
//! compute "random element `i` of iteration `t`" directly.

const M0: u32 = 0xD251_1F53;
const M1: u32 = 0xCD9E_8D57;
const W0: u32 = 0x9E37_79B9; // golden ratio
const W1: u32 = 0xBB67_AE85; // sqrt(3) - 1

#[inline]
fn mulhilo(a: u32, b: u32) -> (u32, u32) {
    let p = a as u64 * b as u64;
    (p as u32, (p >> 32) as u32)
}

#[inline]
fn round(ctr: [u32; 4], key: [u32; 2]) -> [u32; 4] {
    let (lo0, hi0) = mulhilo(M0, ctr[0]);
    let (lo1, hi1) = mulhilo(M1, ctr[2]);
    [hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0]
}

/// The raw Philox4x32-10 block function.
#[inline]
pub fn philox4x32_10(ctr: [u32; 4], key: [u32; 2]) -> [u32; 4] {
    Philox::new(u64::from(key[0]) | u64::from(key[1]) << 32).block(ctr)
}

/// A keyed Philox4x32-10 generator.
///
/// The convenience accessors address values by `(index, domain)`: `domain`
/// separates logical streams (e.g. `L`-matrix of iteration `t` vs
/// `G`-matrix of iteration `t` vs initial positions), and `index` addresses
/// an element within the stream. Four consecutive indices share one block
/// computation, matching how a CUDA thread would consume all four lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Philox {
    /// The key of each of the ten rounds (the seed, bumped by the Weyl
    /// constants once per round), computed once per generator.
    round_keys: [[u32; 2]; 10],
}

impl Philox {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut key = [seed as u32, (seed >> 32) as u32];
        let mut round_keys = [[0; 2]; 10];
        for rk in &mut round_keys {
            *rk = key;
            key = [key[0].wrapping_add(W0), key[1].wrapping_add(W1)];
        }
        Philox { round_keys }
    }

    /// The raw block function under this generator's key.
    #[inline]
    pub fn block(&self, mut ctr: [u32; 4]) -> [u32; 4] {
        for &key in &self.round_keys {
            ctr = round(ctr, key);
        }
        ctr
    }

    /// Blocks `block` and `block + 1` of stream `domain`, computed in
    /// lockstep so their independent rounds overlap in the pipeline.
    /// Element indices wrap like `u64`, so block indices wrap at 2^62.
    #[inline]
    fn block_pair(&self, block: u64, domain: u64) -> [u32; 8] {
        let next = (block + 1) & (u64::MAX >> 2);
        let (mut a, mut b) = (counter(block, domain), counter(next, domain));
        for &key in &self.round_keys {
            a = round(a, key);
            b = round(b, key);
        }
        [a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3]]
    }

    /// The `idx`-th 32-bit word of stream `domain`.
    ///
    /// For a single draw. Consecutive words share a block, so runs of them
    /// come from [`Self::for_each_word`], which computes each block once.
    #[inline]
    pub fn u32_at(&self, idx: u64, domain: u64) -> u32 {
        self.block(counter(idx >> 2, domain))[(idx & 3) as usize]
    }

    /// The `idx`-th uniform `f32` in `[0, 1)` of stream `domain`.
    #[inline]
    pub fn uniform_at(&self, idx: u64, domain: u64) -> f32 {
        crate::dist::uniform_f32_from_u32(self.u32_at(idx, domain))
    }

    /// The `idx`-th uniform `f32` in `[lo, hi)` of stream `domain`.
    #[inline]
    pub fn uniform_range_at(&self, idx: u64, domain: u64, lo: f32, hi: f32) -> f32 {
        crate::dist::uniform_in_range(self.u32_at(idx, domain), lo, hi)
    }

    /// Visit `len` consecutive words of stream `domain` from element
    /// `offset` on: `f(i, w)` with `w == u32_at(offset + i, domain)`, in
    /// order of `i`. Computes one block per four words, two blocks at a
    /// time; an unaligned `offset` starts mid-block.
    #[inline]
    pub fn for_each_word(
        &self,
        domain: u64,
        offset: u64,
        len: usize,
        mut f: impl FnMut(usize, u32),
    ) {
        let mut i = 0;
        while i < len {
            let idx = offset.wrapping_add(i as u64);
            let lane = (idx & 3) as usize;
            if lane == 0 && len - i >= 8 {
                for (k, &w) in self.block_pair(idx >> 2, domain).iter().enumerate() {
                    f(i + k, w);
                }
                i += 8;
            } else {
                let take = (4 - lane).min(len - i);
                let words = self.block(counter(idx >> 2, domain));
                for (k, &w) in words[lane..lane + take].iter().enumerate() {
                    f(i + k, w);
                }
                i += take;
            }
        }
    }

    /// Fill `out` with stream `domain`'s words mapped to `[lo, hi)`,
    /// starting at stream element `offset`: `out[i]` equals
    /// `uniform_range_at(offset + i, domain, lo, hi)`. Device kernels fill
    /// their whole output slice through this, one block per four draws.
    pub fn fill_uniform(&self, out: &mut [f32], domain: u64, offset: u64, lo: f32, hi: f32) {
        self.for_each_word(domain, offset, out.len(), |i, w| {
            out[i] = crate::dist::uniform_in_range(w, lo, hi);
        });
    }
}

/// The Philox counter of block `block` in stream `domain`.
#[inline]
fn counter(block: u64, domain: u64) -> [u32; 4] {
    [
        block as u32,
        (block >> 32) as u32,
        domain as u32,
        (domain >> 32) as u32,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Known-answer tests from the Random123 distribution
    /// (`kat_vectors`, philox4x32x10 entries).
    #[test]
    fn kat_zero_input() {
        let out = philox4x32_10([0; 4], [0; 2]);
        assert_eq!(out, [0x6627_e8d5, 0xe169_c58d, 0xbc57_ac4c, 0x9b00_dbd8]);
    }

    #[test]
    fn kat_all_ones() {
        let out = philox4x32_10([u32::MAX; 4], [u32::MAX; 2]);
        assert_eq!(out, [0x408f_276d, 0x41c8_3b0e, 0xa20b_c7c6, 0x6d54_51fd]);
    }

    #[test]
    fn kat_pi_digits() {
        let ctr = [0x243f_6a88, 0x85a3_08d3, 0x1319_8a2e, 0x0370_7344];
        let key = [0xa409_3822, 0x299f_31d0];
        let out = philox4x32_10(ctr, key);
        assert_eq!(out, [0xd16c_fe09, 0x94fd_cceb, 0x5001_e420, 0x2412_6ea1]);
    }

    #[test]
    fn distinct_counters_give_distinct_blocks() {
        let p = Philox::new(7);
        let mut seen = HashSet::new();
        for i in 0..1000u32 {
            let b = p.block([i, 0, 0, 0]);
            assert!(seen.insert(b), "collision at {i}");
        }
    }

    #[test]
    fn streams_are_disjoint_across_domains() {
        let p = Philox::new(1);
        let a: Vec<u32> = (0..64).map(|i| p.u32_at(i, 0)).collect();
        let b: Vec<u32> = (0..64).map(|i| p.u32_at(i, 1)).collect();
        assert_ne!(a, b);
        // No element-wise equality either (overwhelmingly likely).
        let equal = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert!(equal <= 1);
    }

    #[test]
    fn lanes_within_a_block_differ() {
        let p = Philox::new(3);
        let vals: Vec<u32> = (0..4).map(|i| p.u32_at(i, 0)).collect();
        let set: HashSet<_> = vals.iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn uniform_is_in_unit_interval_and_reproducible() {
        let p = Philox::new(99);
        for i in 0..10_000 {
            let u = p.uniform_at(i, 5);
            assert!((0.0..1.0).contains(&u), "u={u} at {i}");
        }
        assert_eq!(p.uniform_at(123, 5), Philox::new(99).uniform_at(123, 5));
    }

    #[test]
    fn uniform_mean_is_near_half() {
        let p = Philox::new(2024);
        let n = 100_000u64;
        let mean: f64 = (0..n).map(|i| p.uniform_at(i, 0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean={mean}");
    }

    #[test]
    fn uniform_variance_matches_uniform_law() {
        let p = Philox::new(11);
        let n = 100_000u64;
        let (mut s, mut s2) = (0.0f64, 0.0f64);
        for i in 0..n {
            let u = p.uniform_at(i, 0) as f64;
            s += u;
            s2 += u * u;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!((var - 1.0 / 12.0).abs() < 0.002, "var={var}");
    }

    #[test]
    fn fill_uniform_respects_range_and_offset() {
        let p = Philox::new(5);
        let mut buf = vec![0.0f32; 128];
        p.fill_uniform(&mut buf, 9, 1000, -2.0, 3.0);
        assert!(buf.iter().all(|&x| (-2.0..3.0).contains(&x)));
        assert_eq!(buf[0], p.uniform_range_at(1000, 9, -2.0, 3.0));
        assert_eq!(buf[127], p.uniform_range_at(1127, 9, -2.0, 3.0));
    }

    #[test]
    fn for_each_word_wraps_like_u64_element_indices() {
        let p = Philox::new(13);
        let start = u64::MAX - 5;
        let mut got = Vec::new();
        p.for_each_word(2, start, 12, |i, w| {
            assert_eq!(i, got.len());
            got.push(w);
        });
        let want: Vec<u32> = (0..12)
            .map(|i| p.u32_at(start.wrapping_add(i), 2))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a = Philox::new(1);
        let b = Philox::new(2);
        let same = (0..1000)
            .filter(|&i| a.u32_at(i, 0) == b.u32_at(i, 0))
            .count();
        assert_eq!(same, 0);
    }
}
