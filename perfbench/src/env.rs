//! The environment record: core count, cache sizes and peak memory.

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The L2 and L3 sizes of cpu0 as sysfs reports them, as one line.
pub fn cache_line() -> String {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |dir: &std::path::Path, f: &str| {
        std::fs::read_to_string(dir.join(f))
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    };
    let caches: Vec<String> = (0..8)
        .map(|i| base.join(format!("index{i}")))
        .filter(|dir| {
            matches!(read(dir, "level").as_str(), "2" | "3") && read(dir, "type") != "Instruction"
        })
        .map(|dir| format!("L{}={}", read(&dir, "level"), read(&dir, "size")))
        .collect();
    if caches.is_empty() {
        "caches=unknown".to_string()
    } else {
        caches.join(" ")
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// splitmix64: the benchmark's seeded generator, so inputs depend only on
/// `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut b = Rng::new(7, 1);
        assert!(a.iter().all(|&x| x == b.next_u64()));
        assert_ne!(Rng::new(7, 2).next_u64(), Rng::new(7, 1).next_u64());
        let mut r = Rng::new(1, 0);
        assert!((0..1000).all(|_| r.below(10) < 10 && (0.0..1.0).contains(&r.unit())));
    }
}
