//! Order statistics over latency samples.

/// Nearest-rank quantile of an ascending-sorted, non-empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and returns their median (0 for an empty sample).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// Samples strictly above the nearest-rank `q` quantile: the guide's
/// "at least ten samples beyond the reported percentile" check.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// Mean of a sample (0 for an empty one).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// SplitMix64: the benchmark's only randomness source, so that keys and
/// document seeds derive from `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `struct rusage` of 64-bit Linux: two `timeval`s (user, system), then
/// fourteen `long` counters this benchmark does not read.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    _counters: [i64; 14],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// CPU seconds (user + system) this process has used so far, all threads
/// together. Time the hypervisor steals from the guest is not counted,
/// which is what makes CPU per statement steadier than wall-clock rates
/// on a shared virtual machine.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        _counters: [0; 14],
    };
    // SAFETY: `RUsage` has the size and layout of `struct rusage` on
    // 64-bit Linux (the cfg above), `u` is a valid exclusive pointer for
    // the call, and getrusage writes nothing beyond that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    (u.utime[0] + u.stime[0]) as f64 + (u.utime[1] + u.stime[1]) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }
}
