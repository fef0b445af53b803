//! Mappings from raw generator words to distributions.

/// Map a `u32` to a uniform `f32` in `[0, 1)` using the top 24 bits, which
/// is exact in single precision.
#[inline]
pub fn uniform_f32_from_u32(x: u32) -> f32 {
    (x >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// Map a `u32` to a uniform `f32` in `[lo, hi)`.
#[inline]
pub fn uniform_in_range(x: u32, lo: f32, hi: f32) -> f32 {
    lo + (hi - lo) * uniform_f32_from_u32(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_interval_bounds_are_tight() {
        assert_eq!(uniform_f32_from_u32(0), 0.0);
        let max = uniform_f32_from_u32(u32::MAX);
        assert!(max < 1.0);
        assert!(max > 0.9999);
    }

    #[test]
    fn range_endpoints_map_correctly() {
        assert_eq!(uniform_in_range(0, -3.0, 5.0), -3.0);
        assert!(uniform_in_range(u32::MAX, -3.0, 5.0) < 5.0);
    }
}
