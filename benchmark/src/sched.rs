//! Where the benchmark's own threads run. Used only by a workload whose
//! mutators block (`Spec::mutators_block`): there the scheduler's placement
//! of every wake-up, and whether the virtual processor halted meanwhile,
//! decided the latencies more than the program did (NOISE.md).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Linux's `SCHED_IDLE`: runs only when nothing else wants the processor
/// and yields it at once to any waking thread. Needs no privilege.
const SCHED_IDLE: i32 = 5;

/// Pin the calling thread to the `index`-th processor it may run on (counted
/// round and round). False when the kernel refuses.
pub fn pin_current_thread(index: usize) -> bool {
    // A `cpu_set_t`: 1024 bits.
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: pid 0 names the calling thread, and the kernel writes at most
    // the `size` bytes `allowed` has.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return false;
    }
    let cpus: Vec<usize> = (0..allowed.len() * 64)
        .filter(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        return false;
    }
    let cpu = cpus[index % cpus.len()];
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads the `size` bytes of `mask`.
    unsafe { sched_setaffinity(0, size, mask.as_ptr()) == 0 }
}

/// One idle-priority thread beside each pinned mutator that spins while the
/// mutator sleeps, so the virtual processor never halts: a halted one is
/// given away by the host, and waking it costs an exit whose length is the
/// host's. The guest-side equivalent of booting with `idle=poll`. Dropping
/// the guard stops the threads.
#[derive(Debug)]
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start(processors: usize) -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..processors)
            .map(|index| {
                let stop = Arc::clone(&stop);
                // Its frames are a few words; the default 2 MiB stack would
                // be counted in `rss_peak_mb` page by page as it is touched.
                let thread = std::thread::Builder::new().stack_size(64 << 10);
                let spawned = thread.spawn(move || {
                    let priority = 0i32;
                    // SAFETY: pid 0 names the calling thread; `priority` is
                    // the one `int` a `sched_param` holds and outlives the
                    // call.
                    let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } == 0;
                    // At normal priority it would take the processor from
                    // the program.
                    if !(idle && pin_current_thread(index)) {
                        eprintln!("keep-awake thread {index}: not started");
                        return;
                    }
                    let mut spins = 0u64;
                    // No PAUSE in the loop: a hypervisor takes a tight PAUSE
                    // loop for a lock spin and exits to reschedule.
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..1024 {
                            spins = std::hint::black_box(spins + 1);
                        }
                    }
                });
                spawned.expect("spawning a keep-awake thread")
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}
