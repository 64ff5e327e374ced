//! Host-drift context: two fixed kernels timed right before and right
//! after each run, and the share of the machine's CPU time the hypervisor
//! stole in between. They are printed beside the metrics so a slow host
//! can be told from a slow program; they are never gated.

use std::hint::black_box;
use std::time::Instant;

/// Dependent xorshift steps of the ALU kernel (~100 ms on a 2020s core).
const ALU_STEPS: u64 = 30_000_000;
/// Entries of the pointer-chase table: 64 MiB, beyond the private caches.
/// A last-level cache shared with other guests may hold part of it, so the
/// chase also shows how much of that cache the neighbours leave free.
const CHASE_ENTRIES: usize = 1 << 24;
/// Dependent loads of the pointer chase (~100 ms at memory latency).
const CHASE_STEPS: usize = 600_000;

/// The kernels' inputs, built once per process.
pub struct Kernels {
    /// A single random cycle through every entry (Sattolo's algorithm), so
    /// every load depends on the previous one and misses the caches.
    chain: Vec<u32>,
}

/// Milliseconds taken by each kernel, and the machine's CPU ticks when
/// they started.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    pub alu_ms: f64,
    pub chase_ms: f64,
    pub ticks: Option<HostTicks>,
}

/// The machine's cumulative CPU ticks, from the first line of
/// `/proc/stat`: all of them, and those stolen by the hypervisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostTicks {
    pub total: u64,
    pub steal: u64,
}

impl HostTicks {
    pub fn read() -> Option<HostTicks> {
        HostTicks::parse(&std::fs::read_to_string("/proc/stat").ok()?)
    }

    /// `cpu user nice system idle iowait irq softirq steal guest ...`;
    /// guest time is already counted in user time.
    fn parse(stat: &str) -> Option<HostTicks> {
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(|field| field.parse().ok())
            .collect::<Option<_>>()?;
        Some(HostTicks {
            total: fields.iter().take(8).sum(),
            steal: *fields.get(7)?,
        })
    }
}

/// Percent of the machine's CPU time stolen from `before` to `after`.
pub fn steal_pct(before: Option<HostTicks>, after: Option<HostTicks>) -> Option<f64> {
    let (before, after) = (before?, after?);
    let total = after.total.checked_sub(before.total).filter(|&t| t > 0)?;
    Some(100.0 * after.steal.saturating_sub(before.steal) as f64 / total as f64)
}

impl Kernels {
    pub fn new() -> Kernels {
        let mut chain: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        let mut rng = crate::workload::Rng::new(0xca11_b8a7e);
        for i in (1..chain.len()).rev() {
            let j = rng.below(i as u64) as usize;
            chain.swap(i, j);
        }
        Kernels { chain }
    }

    pub fn measure(&self) -> Calibration {
        let ticks = HostTicks::read();
        let start = Instant::now();
        let mut x = black_box(0x2545_f491_4f6c_dd1du64);
        for step in 0..ALU_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(step);
        }
        black_box(x);
        let alu_ms = start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        let mut at = black_box(0u32);
        for _ in 0..CHASE_STEPS {
            at = self.chain[at as usize];
        }
        black_box(at);
        let chase_ms = start.elapsed().as_secs_f64() * 1e3;
        Calibration {
            alu_ms,
            chase_ms,
            ticks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_read_from_the_first_line_of_proc_stat() {
        let before = HostTicks::parse("cpu  700 5 20 2000 3 0 2 100 40 0\ncpu0 1 2\n").unwrap();
        assert_eq!(
            before,
            HostTicks {
                total: 2830,
                steal: 100
            }
        );
        let after = HostTicks::parse("cpu  1300 5 20 2300 3 0 2 200 90 0\n").unwrap();
        assert_eq!(steal_pct(Some(before), Some(after)), Some(10.0));
        assert_eq!(steal_pct(Some(after), Some(before)), None);
        assert_eq!(steal_pct(None, Some(after)), None);
        assert_eq!(HostTicks::parse("intr 1 2 3\n"), None);
    }
}
