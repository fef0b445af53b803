//! Tensor-core emulation (paper §3.5, "Supporting tensor cores").
//!
//! Volta tensor cores execute warp-level 16×16 matrix multiply-accumulate
//! on f16 inputs with f32 accumulation. The paper maps the element-wise
//! swarm update onto them by treating the matrices as warp-level fragments:
//! operands are loaded into fragments (rounding through f16), the
//! element-wise combination runs fragment-by-fragment, and results are
//! copied back to global memory after tensor-core synchronization.
//!
//! The simulator reproduces both the *numerics* (inputs really are rounded
//! through IEEE binary16, so results differ from the f32 path exactly the
//! way they would on hardware) and the *cost* (the work is charged at
//! tensor-core throughput).

use crate::device::Device;
use crate::error::GpuError;
use crate::launch::{KernelCost, KernelDesc, LaunchConfig};
use crate::split::{host_ways, split_slice};
use perf_model::{MemoryPattern, Phase};

/// Edge length of a tensor-core fragment (16×16 on Volta).
pub const FRAGMENT_DIM: usize = 16;

/// Number of elements in one fragment.
pub const FRAGMENT_ELEMS: usize = FRAGMENT_DIM * FRAGMENT_DIM;

/// `|x|` bit patterns in `[2^-14, 2^16)`: inputs whose binary16 rounding
/// is a normal f16 or, from 65520 up, overflows to infinity.
const F16_NORMAL_ABS: std::ops::Range<u32> = 0x3880_0000..0x4780_0000;

/// `|x|` bit patterns whose binary16 rounding is a normal f16 (below 65520,
/// the midpoint between 65504 and the overflow to infinity).
const F16_FINITE_NORMAL_ABS: std::ops::Range<u32> = 0x3880_0000..0x477f_f000;

/// Round the low 13 mantissa bits of a positive f32 bit pattern to nearest,
/// ties to even, leaving them zero. A carry moves into the exponent, which
/// is the correct rounding at a binade edge.
#[inline]
fn round_off_13_bits(abs: u32) -> u32 {
    (abs + 0x0fff + ((abs >> 13) & 1)) & !0x1fff
}

/// Convert an `f32` to IEEE 754 binary16 bits, round-to-nearest-even.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7fff_ffff;
    if F16_NORMAL_ABS.contains(&abs) {
        // Normal f16: round off 13 mantissa bits, re-bias the exponent
        // from 127 to 15.
        return sign | ((round_off_13_bits(abs) - 0x3800_0000) >> 13) as u16;
    }
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN: preserve NaN-ness with a quiet mantissa bit.
        return sign | 0x7c00 | if mant != 0 { 0x0200 } else { 0 };
    }
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow → ±inf
    }
    if unbiased >= -24 {
        // Subnormal f16: value = m16 · 2⁻²⁴ with m16 = round(f · 2^(e+24)),
        // i.e. drop k = -e-1 bits of the 24-bit significand (k ∈ [14, 23]).
        let full_mant = mant | 0x0080_0000; // implicit leading 1
        let k = (-unbiased - 1) as u32;
        let mant16 = full_mant >> k;
        let rest = full_mant & ((1u32 << k) - 1);
        let half = 1u32 << (k - 1);
        let mut out = sign as u32 | mant16;
        if rest > half || (rest == half && (mant16 & 1) == 1) {
            out += 1;
        }
        return out as u16;
    }
    sign // underflow → ±0
}

/// Convert IEEE 754 binary16 bits to `f32` (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x03ff) as u32;
    let bits = match (exp, mant) {
        (0, 0) => sign,
        (0, m) => {
            // Subnormal: value = m · 2⁻²⁴. Normalize: with p the position of
            // m's top bit, value = 2^(p-24) · (1 + frac).
            let p = 31 - m.leading_zeros();
            let e = p + 127 - 24;
            let frac = (m << (23 - p)) & 0x007f_ffff;
            sign | (e << 23) | frac
        }
        (0x1f, 0) => sign | 0x7f80_0000,
        (0x1f, m) => sign | 0x7f80_0000 | (m << 13) | 0x0040_0000,
        (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
    };
    f32::from_bits(bits)
}

/// Round an `f32` through binary16 and back — the precision a value has
/// after being loaded into a tensor-core input fragment.
#[inline]
pub fn through_f16(x: f32) -> f32 {
    let bits = x.to_bits();
    let abs = bits & 0x7fff_ffff;
    if F16_FINITE_NORMAL_ABS.contains(&abs) {
        // A normal f16 widens back exactly, so the round trip is the f32
        // with its low 13 mantissa bits rounded off.
        return f32::from_bits((bits & 0x8000_0000) | round_off_13_bits(abs));
    }
    f16_bits_to_f32(f32_to_f16_bits(x))
}

/// A 16×16 warp-level matrix fragment with f32 storage and f16 input
/// semantics, mirroring `nvcuda::wmma::fragment`.
#[derive(Clone, Debug, PartialEq)]
pub struct Fragment {
    data: [f32; FRAGMENT_ELEMS],
}

impl Default for Fragment {
    fn default() -> Self {
        Fragment {
            data: [0.0; FRAGMENT_ELEMS],
        }
    }
}

impl Fragment {
    /// Zero-filled accumulator fragment (`wmma::fill_fragment(frag, 0)`).
    pub fn zeroed() -> Self {
        Self::default()
    }

    /// Load a fragment from a row-major matrix slice with the given leading
    /// dimension, rounding every element through f16
    /// (`wmma::load_matrix_sync` on a `half` operand). Rows/cols outside
    /// the matrix load as zero, which is how ragged edges are padded.
    pub fn load(
        src: &[f32],
        rows: usize,
        cols: usize,
        row0: usize,
        col0: usize,
        ld: usize,
    ) -> Self {
        let mut f = Fragment::zeroed();
        for r in 0..FRAGMENT_DIM {
            for c in 0..FRAGMENT_DIM {
                let (gr, gc) = (row0 + r, col0 + c);
                if gr < rows && gc < cols {
                    f.data[r * FRAGMENT_DIM + c] = through_f16(src[gr * ld + gc]);
                }
            }
        }
        f
    }

    /// Store the fragment into a row-major matrix slice
    /// (`wmma::store_matrix_sync`); out-of-range elements are dropped.
    pub fn store(
        &self,
        dst: &mut [f32],
        rows: usize,
        cols: usize,
        row0: usize,
        col0: usize,
        ld: usize,
    ) {
        for r in 0..FRAGMENT_DIM {
            for c in 0..FRAGMENT_DIM {
                let (gr, gc) = (row0 + r, col0 + c);
                if gr < rows && gc < cols {
                    dst[gr * ld + gc] = self.data[r * FRAGMENT_DIM + c];
                }
            }
        }
    }

    /// Element access (row-major within the fragment).
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * FRAGMENT_DIM + c]
    }

    /// Mutable element access.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * FRAGMENT_DIM + c] = v;
    }

    /// `d = a ⊙ b · scale + c` element-wise with f32 accumulation — the
    /// Hadamard-product MMA the swarm update maps onto tensor cores.
    pub fn hadamard_fma(a: &Fragment, b: &Fragment, c: &Fragment, scale: f32) -> Fragment {
        let mut d = Fragment::zeroed();
        for i in 0..FRAGMENT_ELEMS {
            d.data[i] = a.data[i] * b.data[i] * scale + c.data[i];
        }
        d
    }

    /// Classic `d = a × b + c` matrix multiply-accumulate
    /// (`wmma::mma_sync`), f32 accumulation.
    pub fn mma(a: &Fragment, b: &Fragment, c: &Fragment) -> Fragment {
        let mut d = c.clone();
        for r in 0..FRAGMENT_DIM {
            for k in 0..FRAGMENT_DIM {
                let av = a.data[r * FRAGMENT_DIM + k];
                if av == 0.0 {
                    continue;
                }
                for cc in 0..FRAGMENT_DIM {
                    d.data[r * FRAGMENT_DIM + cc] += av * b.data[k * FRAGMENT_DIM + cc];
                }
            }
        }
        d
    }
}

impl Device {
    /// Tensor-core element-wise update: `out[i] = f(i, rounded_inputs, old)`
    /// where every input value and the old output value have been rounded
    /// through f16 (fragment-load semantics) and the work is charged at
    /// tensor-core throughput.
    ///
    /// `f` receives the global element index, a slice of the f16-rounded
    /// input values at that element (caller order) and the f16-rounded old
    /// output value; it must return the new f32 value.
    pub fn launch_tensor_elementwise<F>(
        &self,
        name: &'static str,
        phase: Phase,
        tensor_flops_per_elem: u64,
        inputs: &[&[f32]],
        out: &mut [f32],
        f: F,
    ) -> Result<(), GpuError>
    where
        F: Fn(usize, &[f32], f32) -> f32 + Sync,
    {
        self.begin_launch()?;
        for input in inputs {
            if input.len() != out.len() {
                return Err(GpuError::ShapeMismatch {
                    expected: out.len(),
                    actual: input.len(),
                    what: "launch_tensor_elementwise",
                });
            }
        }
        let elems = out.len() as u64;
        let profile = self.profile();
        let per_elem_read = (inputs.len() as u64 + 1) * 4;
        let desc = KernelDesc {
            name,
            phase,
            cost: KernelCost {
                flops: 0,
                tensor_flops: tensor_flops_per_elem,
                dram_read: per_elem_read,
                dram_write: 4,
                // Fragments stage through shared memory/register files.
                shared: per_elem_read + 4,
            },
            elems,
            threads: elems,
            config: Some(LaunchConfig::resource_aware(&profile, elems)),
            pattern: MemoryPattern::Coalesced,
        };
        self.charge_kernel(&desc);

        // Each part holds whole fragments and one row of rounded input
        // values, reused across its elements.
        let fragments = |off: usize, part: &mut [f32]| {
            let mut vals = vec![0.0f32; inputs.len()];
            for (local, slot) in part.iter_mut().enumerate() {
                let g = off + local;
                for (v, input) in vals.iter_mut().zip(inputs) {
                    *v = through_f16(input[g]);
                }
                let old = through_f16(*slot);
                *slot = f(g, &vals, old);
            }
        };
        let ways = host_ways(&desc);
        if ways == 1 {
            fragments(0, out);
        } else {
            split_slice(out, FRAGMENT_ELEMS, ways, fragments);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The converter before the normal-range fast path, kept verbatim as
    /// the oracle the fast paths must match bit for bit.
    fn f32_to_f16_bits_oracle(x: f32) -> u16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xff) as i32;
        let mant = bits & 0x007f_ffff;

        if exp == 0xff {
            // Inf / NaN: preserve NaN-ness with a quiet mantissa bit.
            return sign | 0x7c00 | if mant != 0 { 0x0200 } else { 0 };
        }
        // Re-bias from 127 to 15.
        let unbiased = exp - 127;
        if unbiased > 15 {
            return sign | 0x7c00; // overflow → ±inf
        }
        if unbiased >= -14 {
            // Normal f16. Keep 10 mantissa bits, round to nearest even.
            let mant16 = mant >> 13;
            let rest = mant & 0x1fff;
            let half = 0x1000u32;
            let exp16 = ((unbiased + 15) as u32) << 10;
            let mut out = sign as u32 | exp16 | mant16;
            if rest > half || (rest == half && (mant16 & 1) == 1) {
                out += 1; // may carry into the exponent — that is correct
            }
            return out as u16;
        }
        if unbiased >= -24 {
            // Subnormal f16: value = m16 · 2⁻²⁴ with m16 = round(f · 2^(e+24)),
            // i.e. drop k = -e-1 bits of the 24-bit significand (k ∈ [14, 23]).
            let full_mant = mant | 0x0080_0000; // implicit leading 1
            let k = (-unbiased - 1) as u32;
            let mant16 = full_mant >> k;
            let rest = full_mant & ((1u32 << k) - 1);
            let half = 1u32 << (k - 1);
            let mut out = sign as u32 | mant16;
            if rest > half || (rest == half && (mant16 & 1) == 1) {
                out += 1;
            }
            return out as u16;
        }
        sign // underflow → ±0
    }

    /// Both fast paths agree with the oracle at `x`.
    fn check_against_oracle(x: f32) {
        let want = f32_to_f16_bits_oracle(x);
        assert_eq!(
            f32_to_f16_bits(x),
            want,
            "f32_to_f16_bits({:#010x})",
            x.to_bits()
        );
        assert_eq!(
            through_f16(x).to_bits(),
            f16_bits_to_f32(want).to_bits(),
            "through_f16({:#010x})",
            x.to_bits()
        );
    }

    #[test]
    fn fast_paths_match_oracle_at_every_f16_and_rounding_midpoint() {
        // Every positive finite f16 value `lo`, the midpoint to the next
        // one up (65520 above 65504, where rounding overflows), and one
        // f32 ulp either side of both; then the same for negatives.
        for h in 0u16..0x7c00 {
            let lo = f16_bits_to_f32(h);
            let hi = if h == 0x7bff {
                65536.0
            } else {
                f16_bits_to_f32(h + 1)
            };
            let mid = ((f64::from(lo) + f64::from(hi)) / 2.0) as f32;
            for v in [lo, mid] {
                let b = v.to_bits();
                for bits in [b.saturating_sub(1), b, b + 1] {
                    check_against_oracle(f32::from_bits(bits));
                    check_against_oracle(-f32::from_bits(bits));
                }
            }
        }
        // Infinities, NaNs and everything past the overflow edge.
        for h in 0x7c00u16..=0xffff {
            check_against_oracle(f16_bits_to_f32(h));
        }
        for bits in [
            0x477f_f000u32,
            0x4780_0000,
            0x7f7f_ffff,
            0x7f80_0000,
            0x7fc0_0001,
        ] {
            check_against_oracle(f32::from_bits(bits));
            check_against_oracle(-f32::from_bits(bits));
        }
    }

    /// Every f32 input; about 40 s in release mode
    /// (`cargo test --release -p gpu-sim -- --ignored`).
    #[test]
    #[ignore]
    fn fast_paths_match_oracle_on_all_f32_inputs() {
        for bits in 0..=u32::MAX {
            let x = f32::from_bits(bits);
            let want = f32_to_f16_bits_oracle(x);
            if f32_to_f16_bits(x) != want
                || through_f16(x).to_bits() != f16_bits_to_f32(want).to_bits()
            {
                check_against_oracle(x);
            }
        }
    }

    #[test]
    fn f16_roundtrip_exact_values() {
        for &v in &[0.0f32, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.099975586] {
            assert_eq!(through_f16(v), v, "{v} should be exactly representable");
        }
    }

    #[test]
    fn f16_handles_specials() {
        assert!(through_f16(f32::NAN).is_nan());
        assert_eq!(through_f16(f32::INFINITY), f32::INFINITY);
        assert_eq!(through_f16(f32::NEG_INFINITY), f32::NEG_INFINITY);
        assert_eq!(
            through_f16(1e10),
            f32::INFINITY,
            "overflow saturates to inf"
        );
        assert_eq!(through_f16(1e-30), 0.0, "deep underflow flushes to zero");
        assert_eq!(through_f16(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn f16_rounding_error_is_bounded() {
        // Relative error of binary16 rounding is at most 2^-11 for normals.
        let mut x = 0.0001f32;
        while x < 60000.0 {
            let r = through_f16(x);
            let rel = ((r - x) / x).abs();
            assert!(rel <= 1.0 / 2048.0 + 1e-7, "x={x}, r={r}, rel={rel}");
            x *= 1.7;
        }
    }

    #[test]
    fn f16_subnormals_roundtrip() {
        // Smallest positive f16 subnormal is 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(through_f16(tiny), tiny);
        assert_eq!(through_f16(tiny * 3.0), tiny * 3.0);
        // Smallest normal.
        let min_norm = 2.0f32.powi(-14);
        assert_eq!(through_f16(min_norm), min_norm);
    }

    #[test]
    fn fragment_load_store_roundtrip_with_padding() {
        let rows = 20;
        let cols = 20;
        let src: Vec<f32> = (0..rows * cols).map(|i| (i % 7) as f32).collect();
        let frag = Fragment::load(&src, rows, cols, 16, 16, cols);
        // Only a 4×4 corner is in range; the rest must be zero padding.
        assert_eq!(frag.get(0, 0), src[16 * cols + 16]);
        assert_eq!(frag.get(4, 0), 0.0);
        assert_eq!(frag.get(0, 4), 0.0);
        let mut dst = vec![0.0f32; rows * cols];
        frag.store(&mut dst, rows, cols, 16, 16, cols);
        assert_eq!(dst[17 * cols + 18], src[17 * cols + 18]);
        assert_eq!(dst[0], 0.0, "out-of-fragment region untouched");
    }

    #[test]
    fn hadamard_fma_is_elementwise() {
        let mut a = Fragment::zeroed();
        let mut b = Fragment::zeroed();
        let mut c = Fragment::zeroed();
        a.set(1, 2, 3.0);
        b.set(1, 2, 4.0);
        c.set(1, 2, 1.0);
        c.set(0, 0, 5.0);
        let d = Fragment::hadamard_fma(&a, &b, &c, 0.5);
        assert_eq!(d.get(1, 2), 3.0 * 4.0 * 0.5 + 1.0);
        assert_eq!(d.get(0, 0), 5.0);
    }

    #[test]
    fn mma_matches_reference_matmul() {
        let mut a = Fragment::zeroed();
        let mut b = Fragment::zeroed();
        // a = row-index matrix on the diagonal, b = dense small values.
        for i in 0..FRAGMENT_DIM {
            a.set(i, i, (i + 1) as f32);
            for j in 0..FRAGMENT_DIM {
                b.set(i, j, (i + j) as f32);
            }
        }
        let d = Fragment::mma(&a, &b, &Fragment::zeroed());
        // d[r][c] = (r+1) * b[r][c]
        for r in 0..FRAGMENT_DIM {
            for c in 0..FRAGMENT_DIM {
                assert_eq!(d.get(r, c), (r + 1) as f32 * (r + c) as f32);
            }
        }
    }

    #[test]
    fn tensor_elementwise_applies_f16_rounding() {
        let dev = Device::v100();
        let x = vec![0.1f32; 64]; // 0.1 is inexact in f16
        let mut out = vec![0.0f32; 64];
        dev.launch_tensor_elementwise("t", Phase::SwarmUpdate, 1, &[&x], &mut out, |_, ins, _| {
            ins[0]
        })
        .unwrap();
        assert_ne!(out[0], 0.1, "value must show f16 rounding");
        assert!((out[0] - 0.1).abs() < 1e-4);
        let c = dev.counters();
        assert_eq!(c.tensor_flops, 64);
        assert_eq!(c.flops, 0);
    }

    #[test]
    fn split_tensor_launch_equals_a_sequential_loop() {
        let dev = Device::v100();
        let n = FRAGMENT_ELEMS * 300 + 5;
        let flops = crate::split::SPLIT_MIN_FLOPS.div_ceil(n as u64);
        let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.618).sin() * 70.0).collect();
        let b: Vec<f32> = (0..n).map(|i| i as f32 * 0.3).collect();
        let mut out: Vec<f32> = (0..n).map(|i| 1.0 / (i + 1) as f32).collect();
        let body = |g: usize, x: f32, y: f32, old: f32| x * y - old + g as f32;
        let want: Vec<f32> = (0..n)
            .map(|g| body(g, through_f16(a[g]), through_f16(b[g]), through_f16(out[g])))
            .collect();
        dev.launch_tensor_elementwise(
            "heavy",
            Phase::SwarmUpdate,
            flops,
            &[&a, &b],
            &mut out,
            |g, ins, old| body(g, ins[0], ins[1], old),
        )
        .unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&want));
    }

    #[test]
    fn tensor_elementwise_rejects_shape_mismatch() {
        let dev = Device::v100();
        let x = vec![0.0f32; 3];
        let mut out = vec![0.0f32; 4];
        assert!(dev
            .launch_tensor_elementwise("t", Phase::Other, 1, &[&x], &mut out, |_, _, _| 0.0)
            .is_err());
    }
}
