//! Small helpers shared by the workloads: quantiles, fingerprints, seeded
//! input generation, process memory and the run's provenance.

use std::path::{Path, PathBuf};

/// Linear-interpolation quantile of `xs` (`q` in `[0, 1]`), as numpy's
/// default. Returns `0.0` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median and quartiles of a sample, for printing.
pub fn describe(xs: &[f64]) -> String {
    format!(
        "median {:.6e} [q1 {:.6e}, q3 {:.6e}] n={}",
        median(xs),
        quantile(xs, 0.25),
        quantile(xs, 0.75),
        xs.len()
    )
}

/// FNV-1a over the exact bits of a result: the gbest value, every byte of
/// the gbest position and the migrations rollup. Any single-bit divergence
/// changes it.
pub fn fingerprint(label: &str, value: f64, position: &[f32], migrations: u64) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&value.to_bits().to_le_bytes());
    for p in position {
        eat(&p.to_bits().to_le_bytes());
    }
    eat(&migrations.to_le_bytes());
    format!("{label} value={:016x} fnv={h:016x}", value.to_bits())
}

/// SplitMix64: derives independent per-input seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The benchmark package's directory (reference files, trace output).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The checked-out commit, read from `.git` at the repository root without
/// running git; `unknown` outside a git checkout.
pub fn git_sha() -> String {
    let git = bench_dir().join("..").join(".git");
    read_sha(&git).unwrap_or_else(|| "unknown".into())
}

fn read_sha(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
