//! What the harness reads from the host: peak memory, processor time,
//! core count and the checked-out revision.

use std::path::Path;

/// Peak resident set size (`VmHWM`) of this process in MB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system processor seconds this process has used, from
/// `/proc/self/stat`. The tick length is taken as 10 ms (`CLK_TCK` =
/// 100, which every Linux this runs on uses; reading it needs libc).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are fixed.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so utime/stime (14/15) sit at 11/12.
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Nanoseconds of processor time the calling thread has used
/// (`CLOCK_THREAD_CPUTIME_ID`). The single-threaded workloads time their
/// calls on this clock: it stops while the hypervisor or another process
/// has the core, so on an undisturbed host it reads what the wall clock
/// reads, and on this shared one it still reads that.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` of the layout 64-bit
    // Linux defines, and the clock id is a constant the kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is unavailable");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// How fast the host is right now, against how fast it was when the
/// benchmark was written.
///
/// The physical core under a virtual one is shared with other tenants:
/// for seconds or minutes at a time the same instructions take a third
/// longer, wide out-of-order code nearly twice as long, and no statistic
/// over a 22 s run removes that. So whatever is bound by the processor
/// is timed between two passes of a fixed reference loop and reported
/// multiplied by the speed they read: in seconds of the reference host,
/// not of whatever the host is at the moment. A change to the program
/// does not change the reference loop, so it moves the reported time as
/// it would on a quiet host.
pub struct HostSpeed {
    table: Vec<u32>,
    latest: f64,
    /// [`thread_cpu_ns`] when `latest` was sampled.
    sampled_at: u64,
    samples: Vec<f64>,
}

impl HostSpeed {
    /// What the reference loop took, in nanoseconds of thread processor
    /// time, on the undisturbed host this was written on (Xeon at
    /// 2.1 GHz; 590 µs for the first half, 240 µs for the second):
    /// speed 1.0.
    const REFERENCE_NS: f64 = 830_000.0;
    /// A sample this fresh (in thread processor time) is not repeated.
    const FRESH_NS: u64 = 2_000_000;

    pub fn new() -> Self {
        let table = (0..16_384u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let mut speed = HostSpeed { table, latest: 1.0, sampled_at: 0, samples: Vec::new() };
        speed.sample();
        speed
    }

    /// First half (71 % of the loop on a quiet host): three dependent
    /// integer chains, a 64 KiB table they index and an unpredictable
    /// branch — code that waits on itself, which a busy sibling thread
    /// slows by a quarter.
    fn branchy_pass(&self) -> u64 {
        let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
        let mut acc = 0u64;
        for _ in 0..100_000 {
            a ^= a << 13;
            a ^= a >> 7;
            a ^= a << 17;
            b ^= b << 13;
            b ^= b >> 7;
            b ^= b << 17;
            c = c.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            d = d.wrapping_add(u64::from(self.table[(a as usize >> 3) & 16_383]));
            if (b ^ c) & 64 != 0 {
                acc = acc.wrapping_add(u64::from(self.table[(c as usize >> 40) & 16_383]));
            } else {
                acc ^= d;
            }
        }
        acc ^ a ^ b ^ c ^ d
    }

    /// Second half: eight independent chains with a load each and no
    /// branch — code that fills the core, which a busy sibling thread
    /// slows to nearly half. In this proportion the loop slows as the
    /// cache's requests and the simulator's jobs do (README, "The host").
    fn wide_pass(&self) -> u64 {
        let mut x = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for i in 0..60_000u64 {
            for (j, v) in x.iter_mut().enumerate() {
                let loaded = self.table[((*v >> 5) as usize) & 4_095];
                *v = (v.rotate_left(7) ^ (i + j as u64)).wrapping_add(u64::from(loaded));
            }
        }
        x.iter().fold(0, |a, b| a ^ b)
    }

    /// One pass of the reference loop, about 1 ms: the host's speed now,
    /// 1.0 on the reference host, 0.7 when the same instructions take
    /// 1.4 times as long.
    pub fn sample(&mut self) -> f64 {
        let t0 = thread_cpu_ns();
        std::hint::black_box(self.branchy_pass());
        std::hint::black_box(self.wide_pass());
        let t1 = thread_cpu_ns();
        self.latest = Self::REFERENCE_NS / ((t1 - t0).max(1) as f64);
        self.sampled_at = t1;
        self.samples.push(self.latest);
        self.latest
    }

    /// Runs `f` on this thread between two samples and returns what it
    /// returned with the processor time it took, in seconds of the
    /// reference host.
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = if thread_cpu_ns() - self.sampled_at <= Self::FRESH_NS {
            self.latest
        } else {
            self.sample()
        };
        let t0 = thread_cpu_ns();
        let out = f();
        let seconds = (thread_cpu_ns() - t0) as f64 / 1e9;
        let after = self.sample();
        (out, seconds * (before + after) / 2.0)
    }

    /// The median of every sample so far.
    pub fn typical(&self) -> f64 {
        crate::stats::median(&self.samples)
    }
}

/// Processor seconds the hypervisor gave to someone else while this
/// guest wanted them (the `steal` column of `/proc/stat`, all cores).
/// A run during which this moves was measured on a slower machine.
pub fn steal_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else { return 0.0 };
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The revision of the checkout the benchmark runs in, read from
/// `.git` without starting a process; `"unknown"` outside a git
/// checkout (the driver's copy is not one).
pub fn git_rev() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        if let Some(rev) = rev_in(&d.join(".git")) {
            return rev;
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".to_string()
}

fn rev_in(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let full = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => match std::fs::read_to_string(git.join(reference)) {
            Ok(rev) => rev.trim().to_string(),
            Err(_) => std::fs::read_to_string(git.join("packed-refs"))
                .ok()?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))?,
        },
    };
    Some(full.chars().take(12).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_the_result_and_a_scaled_processor_time() {
        let mut speed = HostSpeed::new();
        let now = speed.sample();
        assert!(now > 0.02 && now < 50.0, "host speed {now}");
        let (out, seconds) = speed.timed(|| {
            let mut x = 1u64;
            for i in 0..2_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
            }
            x
        });
        assert_ne!(out, 0);
        // Two million dependent multiply-adds take a millisecond or more
        // on any host, and far less than a second on the reference one.
        assert!(seconds > 1e-4 && seconds < 1.0, "{seconds} s");
        assert!(speed.typical() > 0.0);
    }
}
