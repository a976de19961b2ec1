//! What the benchmark reads from the host — core count, peak resident
//! memory, where its own directory is — and the one thing it asks of it:
//! a single CPU for everything a serving workload runs.

use std::path::PathBuf;
use std::sync::OnceLock;

/// Cores the host offers this process (before [`pin_to_one_cpu`]).
pub fn nproc() -> usize {
    HOST_CPUS.get().copied().unwrap_or_else(available_cpus)
}

/// Confines this process — every thread it starts later and every
/// child it spawns, the process backend's shard worker included — to
/// one CPU: the highest-numbered one it may run on (device interrupts
/// tend to land on CPU 0). Call once, before any thread starts. A host
/// that refuses is left as it was: the numbers are then noisier, not
/// wrong.
///
/// Why one CPU. Every engine runs one `Parallelism::Sequential` shard,
/// so a served request is a chain of hand-offs between threads of which
/// one runs at a time (client → admitter → shard → client; the worker
/// process and its socket on `serve_remote`). Spread over two vCPUs of a
/// shared host, each hand-off wakes a halted vCPU or interrupts a
/// running one, and what that costs is the hypervisor's business: with
/// identical code `serve_decode` (three hand-offs per 0.9 ms round) read
/// anywhere from 4.0 k to 7.4 k tokens/s, and keeping both vCPUs awake
/// with a yielding thread each still left it and the unloaded latency
/// of `serve_remote` spreading by 24–33 % between runs where the
/// benchmark is checked. On one CPU a hand-off is a context switch
/// inside the guest, the CPU never idles while a request is in flight,
/// and no thread waits for a vCPU the host has descheduled. The program
/// loses nothing it could use: the mix workloads' capacity throughput
/// is the same pinned and unpinned, `serve_decode` gives up at most a
/// few percent.
pub fn pin_to_one_cpu() {
    // The core count the load generator is checked against is the
    // host's, not the one CPU left after pinning.
    HOST_CPUS.get_or_init(available_cpus);
    affinity::pin_to_last_allowed_cpu();
}

static HOST_CPUS: OnceLock<usize> = OnceLock::new();

fn available_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t`: 1024 CPUs, one bit each.
    type CpuSet = [u64; 16];

    extern "C" {
        // From the C library std already links.
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    #[allow(unsafe_code)]
    pub fn pin_to_last_allowed_cpu() {
        let mut allowed: CpuSet = [0; 16];
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: `allowed` is a live, writable buffer of exactly `size`
        // bytes, which is what the call fills; pid 0 is the caller.
        if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
            return;
        }
        let Some(word) = allowed.iter().rposition(|w| *w != 0) else {
            return;
        };
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << (63 - allowed[word].leading_zeros());
        // SAFETY: `one` is a live buffer of exactly `size` bytes that the
        // call only reads. A refusal (non-zero) leaves the process as it
        // was, which the caller accepts.
        let _ = unsafe { sched_setaffinity(0, size, &one) };
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn pin_to_last_allowed_cpu() {}
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, read from
/// `/proc`; `None` when the process is gone or the field is missing.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The benchmark package's directory, as a path relative to the current
/// directory when it lies beneath it (the normal case: runs start at
/// the repository root). Relative matters: the Unix-socket paths the
/// process backend builds under [`scratch_dir`] must stay inside the
/// 108-byte `sun_path` limit however deep the checkout sits.
pub fn benchmark_dir() -> PathBuf {
    let abs = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    match std::env::current_dir() {
        Ok(cwd) => match abs.strip_prefix(&cwd) {
            Ok(rel) if !rel.as_os_str().is_empty() => rel.to_path_buf(),
            _ => abs,
        },
        Err(_) => abs,
    }
}

/// `benchmark/out`: trace files, result sets and socket files — the only
/// place a run writes.
pub fn out_dir() -> PathBuf {
    benchmark_dir().join("out")
}

/// Points `TMPDIR` at `benchmark/out/tmp` (created) so the process
/// backend's Unix sockets — which `onesa_core::net` places in
/// `std::env::temp_dir()` — stay inside the checkout. Call once, before
/// any thread starts.
///
/// # Errors
///
/// The directory could not be created.
pub fn confine_temp_dir() -> std::io::Result<()> {
    let tmp = out_dir().join("tmp");
    std::fs::create_dir_all(&tmp)?;
    std::env::set_var("TMPDIR", &tmp);
    Ok(())
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_one_cpu_and_remembers_the_hosts_count() {
        // Affinity belongs to the calling thread, so this confines the
        // test's own thread and nothing else in the test process.
        let host = nproc();
        pin_to_one_cpu();
        assert_eq!(available_cpus(), 1);
        assert_eq!(nproc(), host, "the generator check still sees the host");
        let inherited = std::thread::spawn(available_cpus).join();
        assert_eq!(inherited.ok(), Some(1), "threads started later inherit");
    }
}
