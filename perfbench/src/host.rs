//! The host speed index that every round's times are scaled by, and
//! the pinning of the benchmark to one CPU.
//!
//! On a shared host the speed of a CPU second drifts: between runs of
//! this benchmark on one 2-vCPU guest, its CPU times moved by up to 40%
//! together, with no change to the program. Two small kernels that
//! share no code with the program under test track that drift: integer
//! work in a table that fits the L1 cache, and a byte ping-pong between
//! two threads over a Unix socket pair (the syscall and hand-off path a
//! socket call takes). Each kernel's speed is divided by its speed on
//! the calibration host; the index is the geometric mean of the two
//! ratios. Multiplying a round's times by the index (and dividing its
//! rates by it) gives the times on a host running the kernels at the
//! calibration speeds. Wall times are scaled too, so the work inside
//! them is compared at one host speed; a wait inside a call is scaled
//! with it, by the index the report prints.
//!
//! Dependent loads through a table that misses the caches make no
//! kernel: through a 4 MiB table their speed moved threefold between
//! rounds on a quiet host, and in the index they added more spread to
//! the metrics than the index took away.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;

use crate::common::cpu_ns;

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// Time the hypervisor has stolen from this guest's virtual CPUs, all
/// of them together, in `/proc/stat` ticks; 0 where it is not exposed.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The share of the virtual CPUs' time over the last `secs` seconds
/// that was stolen, from a [`steal_ticks`] reading at their start.
pub fn steal_share(since: u64, secs: f64) -> f64 {
    // Every CPU `/proc/stat` counts steal over, whatever this process
    // is pinned to.
    let cpus = std::fs::read_to_string("/proc/stat").map_or(1, |s| {
        s.lines()
            .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
            .count()
            .max(1)
    });
    let stolen = steal_ticks().saturating_sub(since) as f64 / TICKS_PER_S;
    stolen / (secs * cpus as f64).max(1e-9)
}

/// Kernel speeds on the calibration host (a 2-vCPU shared VM, the
/// process pinned to one CPU as `main` pins it): million table updates
/// per CPU second and round trips per CPU millisecond, each the median
/// over 19 rounds.
const CALIBRATION: [f64; 2] = [433.0, 206.0];

/// The host speed index: 1.0 on the calibration host, above 1.0 on a
/// faster one.
pub fn speed_index() -> f64 {
    let speeds = [table_updates(), round_trips()];
    let product: f64 = speeds.iter().zip(CALIBRATION).map(|(s, c)| s / c).product();
    product.sqrt()
}

/// Median of three timings of `f`, each giving a speed.
fn median_of_three(mut f: impl FnMut() -> f64) -> f64 {
    let mut speeds = [f(), f(), f()];
    speeds.sort_by(f64::total_cmp);
    speeds[1]
}

/// Million xorshift updates into a 64 KiB table per CPU second (each
/// kernel reports the median of three timings).
fn table_updates() -> f64 {
    const UPDATES: u64 = 2_000_000;
    let mut table = vec![0u64; 8192];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    median_of_three(|| {
        let c0 = cpu_ns();
        for _ in 0..UPDATES {
            x = xorshift(x);
            let i = (x as usize) & 8191;
            table[i] = table[i].wrapping_add(x);
        }
        std::hint::black_box(&table);
        UPDATES as f64 * 1e3 / (cpu_ns() - c0).max(1) as f64
    })
}

/// 64-byte round trips per CPU millisecond between this thread and an
/// echo thread over a Unix socket pair.
fn round_trips() -> f64 {
    const TRIPS: u64 = 2000;
    median_of_three(|| {
        let (mut near, mut far) = UnixStream::pair().expect("a Unix socket pair");
        let c0 = cpu_ns();
        let echo = std::thread::spawn(move || {
            let mut buf = [0u8; 64];
            for _ in 0..TRIPS {
                far.read_exact(&mut buf).expect("echo read");
                far.write_all(&buf).expect("echo write");
            }
        });
        let mut buf = [7u8; 64];
        for _ in 0..TRIPS {
            near.write_all(&buf).expect("ping write");
            near.read_exact(&mut buf).expect("pong read");
        }
        echo.join().expect("echo thread panicked");
        TRIPS as f64 * 1e6 / (cpu_ns() - c0).max(1) as f64
    })
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Pins this thread, and so every thread it starts later, to the
/// lowest-numbered CPU it may run on, and returns that CPU.
///
/// Every workload is a closed loop with one call outstanding, so its
/// threads (client, event loop, engine worker) take turns and one CPU
/// serves them all. Left free, each hand-off between them may wake an
/// idle virtual CPU, whose cost on a shared host depends on what the
/// neighbours are doing: with one busy loop beside the benchmark,
/// socket_reads' wall-clock hover median fell by a third.
pub fn pin_to_one_cpu() -> Option<usize> {
    // A `cpu_set_t` of 1024 CPUs.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes that outlives
    // the call; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes that outlives
    // the call, naming a CPU the thread may already run on.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}
