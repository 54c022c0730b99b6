//! How fast the host is right now, read between the rounds of a run.
//!
//! The benchmark runs on a few virtual processors of a shared machine whose
//! speed drifts by tens of percent over minutes (NOISE.md); no estimator
//! inside a half-minute run removes that. So every round is bracketed by two
//! readings of a fixed reference kernel, and the round's times are scaled to
//! what they would have been with the reference at its nominal reading
//! ([`Reading::factor`]). The kernel is a dependent-load chase, which is what
//! a tree operation is made of: over 1 MiB every hop hits the core's own
//! cache and follows the core's clock and what its sibling thread is doing;
//! over 64 MiB every hop misses cache and TLB and follows the memory system
//! the neighbours share.
//!
//! The probe is a child process, so that its 65 MiB are not in the
//! benchmark's own peak resident set (`rss_peak_mb`).

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use crate::sched::pin_current_thread;
use crate::workload::median;

/// What the reference host reads on a good day (ns per hop; over two days of
/// calibration it read 6.4 to 10.4 and 115 to 165). Scaled values are in
/// nanoseconds of a host that reads exactly this.
pub const NOMINAL: Reading = Reading {
    core_ns: 7.0,
    memory_ns: 125.0,
};

const CORE_SLOTS: usize = 1 << 18;
const MEMORY_SLOTS: usize = 1 << 24;
/// A reading is the median of this many bursts of each chase, so that a
/// preempted millisecond moves one burst and not the reading.
const BURSTS: usize = 7;
const CORE_HOPS: u64 = 2_000_000;
const MEMORY_HOPS: u64 = 150_000;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub core_ns: f64,
    pub memory_ns: f64,
}

impl Reading {
    /// The mean of the readings before and after a round.
    pub fn between(a: Reading, b: Reading) -> Reading {
        Reading {
            core_ns: (a.core_ns + b.core_ns) / 2.0,
            memory_ns: (a.memory_ns + b.memory_ns) / 2.0,
        }
    }

    /// How much slower than nominal the host is for a workload whose times
    /// go with the two readings to the powers `exponents` (core, memory);
    /// 1.0 = nominal. Times are divided by it, rates multiplied.
    pub fn factor(self, exponents: [f64; 2]) -> f64 {
        (self.core_ns / NOMINAL.core_ns).powf(exponents[0])
            * (self.memory_ns / NOMINAL.memory_ns).powf(exponents[1])
    }
}

/// A single cycle through `slots` (a power of two) 4-byte slots: slot `i`
/// holds `A*i + C mod slots`, a full-period linear congruential step, so the
/// fill is sequential and the walk is not.
struct Chase {
    next: Vec<u32>,
}

impl Chase {
    fn new(slots: usize) -> Chase {
        assert!(slots.is_power_of_two() && slots <= 1 << 32);
        let mask = slots as u64 - 1;
        // A = 1 mod 4 and C odd: every slot is on the one cycle.
        let next = (0..slots as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B5).wrapping_add(0x7F4A_7C15) & mask) as u32)
            .collect();
        Chase { next }
    }

    /// Nanoseconds per hop over `hops` hops from `start`.
    fn run(&self, start: u32, hops: u64) -> (f64, u32) {
        let started = Instant::now();
        let mut at = start;
        for _ in 0..hops {
            at = self.next[at as usize];
        }
        let ns = started.elapsed().as_nanos() as f64 / hops as f64;
        (ns, std::hint::black_box(at))
    }
}

/// `sf-benchmark host-probe`: one reading per line read from standard input,
/// until it closes. One thread per processor the mutators use, each pinned,
/// all at once, as the mutators run; the reading is their mean.
pub fn serve(threads: usize) {
    let (core, memory) = (Chase::new(CORE_SLOTS), Chase::new(MEMORY_SLOTS));
    let mut line = String::new();
    let stdin = std::io::stdin();
    while matches!(stdin.lock().read_line(&mut line), Ok(n) if n > 0) {
        let readings: Vec<Reading> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|index| {
                    let (core, memory) = (&core, &memory);
                    scope.spawn(move || {
                        pin_current_thread(index);
                        let (mut at_core, mut at_memory) = (index as u32, index as u32);
                        let (mut cores, mut memories) = (Vec::new(), Vec::new());
                        for _ in 0..BURSTS {
                            let (ns, at) = core.run(at_core, CORE_HOPS);
                            cores.push(ns);
                            at_core = at;
                            let (ns, at) = memory.run(at_memory, MEMORY_HOPS);
                            memories.push(ns);
                            at_memory = at;
                        }
                        Reading {
                            core_ns: median(&cores),
                            memory_ns: median(&memories),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a probe thread panicked"))
                .collect()
        });
        let mean = |of: fn(&Reading) -> f64| readings.iter().map(of).sum::<f64>() / threads as f64;
        println!("{} {}", mean(|r| r.core_ns), mean(|r| r.memory_ns));
        line.clear();
    }
}

/// The probe process. Dropping it closes its input, which ends it, and waits.
#[derive(Debug)]
pub struct Probe {
    child: Child,
    input: Option<ChildStdin>,
    output: BufReader<ChildStdout>,
}

impl Probe {
    pub fn start(threads: usize) -> Result<Probe, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(["host-probe", &threads.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the host probe: {e}"))?;
        let input = child.stdin.take();
        let output = BufReader::new(child.stdout.take().expect("piped"));
        Ok(Probe {
            child,
            input,
            output,
        })
    }

    pub fn read(&mut self) -> Result<Reading, String> {
        let failed = |what: &str| format!("host probe: {what}");
        let input = self.input.as_mut().expect("open until dropped");
        input.write_all(b"\n").map_err(|e| failed(&e.to_string()))?;
        let mut line = String::new();
        self.output
            .read_line(&mut line)
            .map_err(|e| failed(&e.to_string()))?;
        let mut numbers = line.split_whitespace().map(str::parse::<f64>);
        match (numbers.next(), numbers.next()) {
            (Some(Ok(core_ns)), Some(Ok(memory_ns))) => Ok(Reading { core_ns, memory_ns }),
            _ => Err(failed(&format!("answered {line:?}"))),
        }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.input = None;
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_is_one_cycle() {
        let chase = Chase::new(1 << 10);
        let mut seen = vec![false; 1 << 10];
        let mut at = 0u32;
        for _ in 0..1 << 10 {
            assert!(!std::mem::replace(&mut seen[at as usize], true));
            at = chase.next[at as usize];
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn the_factor_follows_each_chase_to_its_power() {
        assert_eq!(NOMINAL.factor([1.0, 0.0]), 1.0);
        assert_eq!(NOMINAL.factor([1.0, 1.0]), 1.0);
        let slow = Reading {
            core_ns: NOMINAL.core_ns * 2.0,
            memory_ns: NOMINAL.memory_ns * 4.0,
        };
        assert!((slow.factor([1.0, 0.0]) - 2.0).abs() < 1e-12);
        assert!((slow.factor([0.0, 0.5]) - 2.0).abs() < 1e-12);
        assert!((slow.factor([1.0, 1.0]) - 8.0).abs() < 1e-12);
    }
}
