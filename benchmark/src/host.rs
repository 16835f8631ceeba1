//! Facts about, and probes of, the host the benchmark runs on: cache
//! sizes from sysfs, a STREAM-triad bandwidth and a register-resident FMA
//! rate. The last two are the denominators of the roofline fractions, so
//! they are measured in the same run as the sweeps they are compared with.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// What two result files must agree on to be comparable.
#[derive(Clone, Debug)]
pub struct HostFacts {
    pub nproc: usize,
    /// Largest unified/data cache level, MiB (0 when sysfs has none).
    pub llc_mib: f64,
    pub l2_mib: f64,
    /// Transparent-huge-page mode, e.g. `madvise`.
    pub thp: String,
    pub mem_available_mib: f64,
}

fn read(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// `48K` / `2048K` / `260M` → MiB.
fn parse_size_mib(text: &str) -> Option<f64> {
    let (digits, unit) = text.split_at(text.find(|c: char| !c.is_ascii_digit())?);
    let v: f64 = digits.parse().ok()?;
    match unit {
        "K" => Some(v / 1024.0),
        "M" => Some(v),
        "G" => Some(v * 1024.0),
        _ => None,
    }
}

/// The bracketed word of `always [madvise] never`.
fn parse_thp(text: &str) -> String {
    text.split_whitespace()
        .find_map(|w| w.strip_prefix('[')?.strip_suffix(']'))
        .unwrap_or("unknown")
        .to_string()
}

/// The `kB` value of one `/proc` status line such as `VmHWM:  1234 kB`.
fn parse_kb_line(text: &str, key: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB")?.trim().parse().ok())
}

impl HostFacts {
    pub fn detect() -> Self {
        let mut levels = [0.0f64; 4];
        for index in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
            let (Some(level), Some(kind), Some(size)) = (
                read(&format!("{dir}/level")).and_then(|l| l.parse::<usize>().ok()),
                read(&format!("{dir}/type")),
                read(&format!("{dir}/size")).and_then(|s| parse_size_mib(&s)),
            ) else {
                continue;
            };
            if kind != "Instruction" && level < levels.len() {
                levels[level] = size;
            }
        }
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |c| c.get()),
            llc_mib: levels
                .iter()
                .rev()
                .copied()
                .find(|&s| s > 0.0)
                .unwrap_or(0.0),
            l2_mib: levels[2],
            thp: read("/sys/kernel/mm/transparent_hugepage/enabled")
                .map_or("unknown".into(), |t| parse_thp(&t)),
            mem_available_mib: read("/proc/meminfo")
                .and_then(|t| parse_kb_line(&t, "MemAvailable"))
                .map_or(0.0, |kb| kb / 1024.0),
        }
    }
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .and_then(|t| parse_kb_line(&t, "VmHWM"))
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout the benchmark runs in, when it is one.
pub fn git_commit() -> String {
    let head = read(".git/HEAD").unwrap_or_default();
    match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
        None if !head.is_empty() => head,
        None => "unknown".into(),
    }
}

/// STREAM triad `a = b + s·c` over three f64 arrays.
pub struct Triad {
    /// Size of each of the three arrays.
    pub array_mib: f64,
    pub gbs_1t: f64,
    pub gbs_nt: f64,
}

/// Each array is four times the last-level cache (so no part of it is
/// served from cache), capped so that the three together stay within a
/// quarter of the available memory. Bytes are counted the STREAM way
/// (two reads and one write per element, write-allocate not counted), and
/// each figure is the best of three passes.
pub fn triad(facts: &HostFacts, threads: usize) -> Triad {
    let want = 4.0 * facts.llc_mib.max(8.0);
    let cap = (facts.mem_available_mib / 4.0 / 3.0).max(16.0);
    let len = ((want.min(cap) * MIB) as usize / 8) & !7;
    let mut a = vec![0.0f64; len];
    let b = vec![1.5f64; len];
    let c = vec![0.25f64; len];
    let pass = |a: &mut [f64], threads: usize| {
        let chunk = len.div_ceil(threads);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = *b + 3.0 * *c;
                    }
                });
            }
        });
        black_box(&a[len / 2]);
        (3 * 8 * len) as f64 / t0.elapsed().as_secs_f64() / 1e9
    };
    // One untimed pass faults the destination in.
    pass(&mut a, threads);
    let best = |a: &mut [f64], threads: usize| (0..3).map(|_| pass(a, threads)).fold(0.0, f64::max);
    Triad {
        array_mib: len as f64 * 8.0 / MIB,
        gbs_1t: best(&mut a, 1),
        gbs_nt: best(&mut a, threads),
    }
}

/// Chains of independent f32 FMAs held in registers; returns GFLOP/s of
/// one thread (two flops per lane per FMA) at the widest vector width the
/// CPU reports at run time.
pub fn fma_gflops_1t() -> f64 {
    const ITERS: u64 = 20_000_000;
    let t0 = Instant::now();
    let lanes = fma_kernel(ITERS);
    (2 * CHAINS as u64 * lanes * ITERS) as f64 / t0.elapsed().as_secs_f64() / 1e9
}

/// Independent accumulators: two FMA ports × four cycles of latency need
/// eight in flight; ten leaves slack.
const CHAINS: usize = 10;

/// Runs `iters` rounds of [`CHAINS`] FMAs and returns the lanes per FMA.
fn fma_kernel(iters: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU reports AVX-512F, the only feature the
            // function is compiled for.
            unsafe { x86::fma_avx512(iters) };
            return 16;
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: the CPU reports AVX2 and FMA, the features the
            // function is compiled for.
            unsafe { x86::fma_avx2(iters) };
            return 8;
        }
    }
    let mut acc = [1.0f32; CHAINS];
    let (m, a) = (black_box(0.999_999f32), black_box(1e-7f32));
    for _ in 0..iters {
        for v in &mut acc {
            *v = v.mul_add(m, a);
        }
    }
    black_box(acc);
    1
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::CHAINS;
    use std::arch::x86_64::*;
    use std::hint::black_box;

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn fma_avx512(iters: u64) {
        let (m, a) = (
            _mm512_set1_ps(black_box(0.999_999)),
            _mm512_set1_ps(black_box(1e-7)),
        );
        let mut acc = [_mm512_set1_ps(1.0); CHAINS];
        for _ in 0..iters {
            for v in &mut acc {
                *v = _mm512_fmadd_ps(*v, m, a);
            }
        }
        black_box(acc);
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fma_avx2(iters: u64) {
        let (m, a) = (
            _mm256_set1_ps(black_box(0.999_999)),
            _mm256_set1_ps(black_box(1e-7)),
        );
        let mut acc = [_mm256_set1_ps(1.0); CHAINS];
        for _ in 0..iters {
            for v in &mut acc {
                *v = _mm256_fmadd_ps(*v, m, a);
            }
        }
        black_box(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_and_procfs_text_is_parsed() {
        assert_eq!(parse_size_mib("2048K"), Some(2.0));
        assert_eq!(parse_size_mib("260M"), Some(260.0));
        assert_eq!(parse_size_mib("bogus"), None);
        assert_eq!(parse_thp("always [madvise] never"), "madvise");
        assert_eq!(parse_thp(""), "unknown");
        let status = "Name:\tx\nVmHWM:\t  884736 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_kb_line(status, "VmHWM"), Some(884_736.0));
        assert_eq!(parse_kb_line(status, "VmSwap"), None);
    }

    #[test]
    fn fma_loop_time_grows_with_iterations() {
        // black_box is a hint: confirm the loop was not deleted. Best of
        // three, because other tests run beside this one.
        let once = |n| {
            let t = Instant::now();
            fma_kernel(n);
            t.elapsed().as_secs_f64()
        };
        let time = |n| (0..3).map(|_| once(n)).fold(f64::INFINITY, f64::min);
        let (short, long) = (time(200_000), time(4_000_000));
        assert!(long > 5.0 * short, "{short} vs {long}");
    }
}
