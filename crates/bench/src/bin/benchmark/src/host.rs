//! Host facts and the roofline measured on the same host in the same
//! run: STREAM-triad bandwidth and the per-core FMA-chain peak. Nothing
//! here calls the library, so a probe never warms its process-wide
//! state before a workload's set-up is timed.

use crate::stats::median;
use crate::Metric;
use hstencil_core::{Dispatch, Dtype};
use hstencil_testkit::Json;
use std::time::Instant;

/// What the numbers of a run depend on.
pub struct Host {
    pub nproc: usize,
    pub avx2: bool,
    pub fma: bool,
    pub avx512f: bool,
    pub l3_bytes: Option<u64>,
    pub model: String,
}

pub fn facts() -> Host {
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma, avx512f) = (
        is_x86_feature_detected!("avx2"),
        is_x86_feature_detected!("fma"),
        is_x86_feature_detected!("avx512f"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma, avx512f) = (false, false, false);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        avx2,
        fma,
        avx512f,
        l3_bytes: std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
            .ok()
            .and_then(|t| parse_cache_size(&t)),
        model,
    }
}

/// Parses a sysfs cache size such as `307200K` or `32M`.
fn parse_cache_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, scale) = match t.as_bytes().last()? {
        b'K' => (&t[..t.len() - 1], 1 << 10),
        b'M' => (&t[..t.len() - 1], 1 << 20),
        b'G' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

impl Host {
    pub fn to_json(&self) -> Json {
        Json::object([
            ("nproc", Json::UInt(self.nproc as u64)),
            ("avx2", Json::Bool(self.avx2)),
            ("fma", Json::Bool(self.fma)),
            ("avx512f", Json::Bool(self.avx512f)),
            ("l3_bytes", self.l3_bytes.map_or(Json::Null, Json::UInt)),
            ("model", Json::Str(self.model.clone())),
        ])
    }

    pub fn describe(&self) -> String {
        format!(
            "host: nproc={} avx2={} fma={} avx512f={} l3={} model={:?}",
            self.nproc,
            self.avx2,
            self.fma,
            self.avx512f,
            self.l3_bytes
                .map_or("unknown".into(), |b| format!("{} MiB", b >> 20)),
            self.model
        )
    }
}

/// The host's roofline, measured before a traced workload builds its
/// inputs (the triad arrays and the inputs are never resident
/// together).
pub struct Roofline {
    pub triad_t1: f64,
    pub triad_t2: f64,
    pub fma_avx2: Option<f64>,
    pub fma_avx512: Option<f64>,
}

impl Roofline {
    pub fn measure(triad_bytes: usize) -> Roofline {
        let roof = Roofline {
            triad_t1: triad_gbs(triad_bytes, 1, 5),
            triad_t2: triad_gbs(triad_bytes, 2, 5),
            fma_avx2: fma_gflops_avx2(),
            fma_avx512: fma_gflops_avx512(),
        };
        println!("roofline: triad over 3 x {} MiB arrays", triad_bytes >> 20);
        for (isa, peak) in [("avx2", roof.fma_avx2), ("avx512", roof.fma_avx512)] {
            if peak.is_none() {
                println!("roofline: skipped the {isa} FMA peak: this host lacks the ISA");
            }
        }
        roof
    }

    /// Per-core FMA peak for a kernel on dispatch `d` over `dtype`
    /// elements: the zmm peak for the AVX-512 instances (and tempvec,
    /// which runs its widest body), the ymm peak otherwise; f32 doubles
    /// the lanes.
    pub fn peak_gflops(&self, d: Dispatch, dtype: Dtype) -> f64 {
        let wide = matches!(d, Dispatch::Avx512 | Dispatch::Avx512Reuse)
            || (d == Dispatch::TempVec && self.fma_avx512.is_some());
        let f64_peak = if wide { self.fma_avx512 } else { self.fma_avx2 };
        f64_peak.or(self.fma_avx2).unwrap_or(f64::NAN) * (8 / dtype.size()) as f64
    }

    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("host.triad_gbs_t1", self.triad_t1, "GB/s"),
            Metric::new("host.triad_gbs_t2", self.triad_t2, "GB/s"),
            Metric::new(
                "host.fma_gflops_avx2",
                self.fma_avx2.unwrap_or(0.0),
                "GFLOP/s",
            ),
            Metric::new(
                "host.fma_gflops_avx512",
                self.fma_avx512.unwrap_or(0.0),
                "GFLOP/s",
            ),
        ]
    }
}

/// Empty storage with room for `cap` items, written once now so that a
/// VmRSS read afterwards already counts it: the benchmark's own samples
/// must not read as the library's memory (a faster kernel takes more).
pub fn touched<T: Clone>(cap: usize, fill: T) -> Vec<T> {
    // Not `vec![fill; cap]`: a zero fill is allocated as untouched
    // zero pages.
    let mut v = Vec::with_capacity(cap);
    v.resize(cap, fill);
    std::hint::black_box(&mut v);
    v.clear();
    v
}

/// MiB between a VmRSS and a later VmHWM reading (KiB).
pub fn mem_mib(rss0: Option<u64>, hwm: Option<u64>) -> f64 {
    match (rss0, hwm) {
        (Some(r), Some(h)) => h.saturating_sub(r) as f64 / 1024.0,
        _ => f64::NAN,
    }
}

/// One `Vm*` field of `/proc/self/status`, in KiB.
pub fn vm_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// STREAM triad `a = b + 3c` over three arrays of `bytes` each, split
/// over `threads` scoped threads; the best GB/s of `reps` passes, as
/// STREAM reports it, counting 3 × `bytes` per pass (write-allocate
/// traffic not counted).
pub fn triad_gbs(bytes: usize, threads: usize, reps: usize) -> f64 {
    let n = bytes / 8;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let chunk = n.div_ceil(threads);
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..=reps {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + 3.0 * z;
                    }
                });
            }
        });
        std::hint::black_box(&mut a);
        rates.push(3.0 * (n * 8) as f64 / t0.elapsed().as_secs_f64() / 1e9);
    }
    // The first pass pays the page faults of `a`.
    rates[1..].iter().copied().fold(0.0, f64::max)
}

/// Per-core f64 FMA peak in GFLOP/s on 256-bit vectors, `None` without
/// AVX2+FMA.
pub fn fma_gflops_avx2() -> Option<f64> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        return Some(peak(|iters| {
            // SAFETY: the features the function enables were detected
            // on this CPU just above.
            unsafe { fma_chains_avx2(iters) }
        }));
    }
    None
}

/// Per-core f64 FMA peak in GFLOP/s on 512-bit vectors, `None` without
/// AVX-512F.
pub fn fma_gflops_avx512() -> Option<f64> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") {
        return Some(peak(|iters| {
            // SAFETY: avx512f was detected on this CPU just above.
            unsafe { fma_chains_avx512(iters) }
        }));
    }
    None
}

/// Median GFLOP/s of five timed runs of `kernel`, which returns the
/// flops it performed.
fn peak(kernel: impl Fn(u64) -> f64) -> f64 {
    let iters = 2_000_000;
    kernel(iters / 10);
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let flops = kernel(iters);
            flops / t0.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}

/// Twelve independent FMA chains, enough to cover the FMA latency on
/// two ports; returns the flops performed.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(iters: u64) -> f64 {
    use std::arch::x86_64::*;
    let mut acc = [_mm256_set1_pd(1.0); 12];
    let (m, a) = (_mm256_set1_pd(0.999_999), _mm256_set1_pd(1e-7));
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = _mm256_fmadd_pd(*x, m, a);
        }
    }
    std::hint::black_box(&acc);
    (iters * 12 * 4 * 2) as f64
}

/// [`fma_chains_avx2`] on zmm registers.
///
/// # Safety
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fma_chains_avx512(iters: u64) -> f64 {
    use std::arch::x86_64::*;
    let mut acc = [_mm512_set1_pd(1.0); 12];
    let (m, a) = (_mm512_set1_pd(0.999_999), _mm512_set1_pd(1e-7));
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = _mm512_fmadd_pd(*x, m, a);
        }
    }
    std::hint::black_box(&acc);
    (iters * 12 * 8 * 2) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_with_suffixes() {
        assert_eq!(parse_cache_size("307200K\n"), Some(300 << 20));
        assert_eq!(parse_cache_size("32M"), Some(32 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("lots"), None);
    }
}
