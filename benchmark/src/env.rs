//! What the harness needs from the operating system: a scratch
//! directory under `benchmark/out/` that is removed on exit, file sizes
//! for the journal byte counts, and peak resident memory of this
//! process and the `dla-node` children it spawned.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// `benchmark/out/`: journals and traces live here and nowhere else.
pub fn out_root() -> PathBuf {
    std::env::var_os("DLA_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")))
}

/// A per-process scratch directory for journals, removed when dropped
/// (on success, failure and unwinding alike).
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    pub fn new() -> std::io::Result<Scratch> {
        // Unique per instance: the package's tests hold several at once.
        static INSTANCES: AtomicU32 = AtomicU32::new(0);
        let instance = INSTANCES.fetch_add(1, Ordering::Relaxed);
        let dir = out_root().join(format!("run-{}-{instance}", std::process::id()));
        // A stale directory from a killed run with a recycled pid would
        // be replayed as somebody else's journal.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch {
            dir,
            next: std::cell::Cell::new(0),
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A fresh, not yet created, journal directory.
    pub fn journal_dir(&self, label: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.dir.join(format!("{label}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A `kB` field of a `/proc/<pid>/status` text.
fn status_kib(status: &str, field: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn own_peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_kib(&status, "VmHWM:") as f64 / 1024.0
}

/// Summed peak resident set of this process's live children in MiB
/// (the `dla-node` processes; `dla_deploy::ChildNode` keeps their pids
/// to itself, so they are found by parent pid).
pub fn children_peak_rss_mib() -> f64 {
    let me = std::process::id().to_string();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return 0.0;
    };
    let kib: u64 = entries
        .flatten()
        .filter(|entry| {
            entry
                .file_name()
                .as_encoded_bytes()
                .iter()
                .all(u8::is_ascii_digit)
        })
        .filter_map(|entry| std::fs::read_to_string(entry.path().join("status")).ok())
        .filter(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("PPid:"))
                .is_some_and(|parent| parent.trim() == me)
        })
        .map(|status| status_kib(&status, "VmHWM:"))
        .sum();
    kib as f64 / 1024.0
}

/// Words of a CPU affinity mask (1024 CPUs, glibc's `cpu_set_t`).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines the calling thread — and every thread and process it
/// starts from now on — to one CPU until dropped.
///
/// Every workload has one closed-loop client, so one thread is runnable
/// at a time (a query's concurrent subqueries aside) and every hop is a
/// thread wake-up. Left to the scheduler of this two-CPU machine, a
/// whole run lands in one of two modes. On the mesh the waker and the
/// woken either share a CPU (a store ack takes ~30 us, a session
/// ~0.45 ms) or each wake-up crosses to an idle virtual CPU (~130 us,
/// ~1.6 ms). In process, a query's subquery threads either spread over
/// both CPUs (the four-clause query ~190 ms) or stay on their waker's
/// (~270 ms). That is a lottery per run that no bound can hold. On one
/// CPU every run is the same mode; what the second CPU could add to a
/// query is outside what this benchmark can resolve.
#[derive(Debug)]
pub struct CpuPin {
    previous: [u64; MASK_WORDS],
}

impl CpuPin {
    /// Pins to the allowed CPU on which appending to a file in `dir`
    /// and syncing it is cheapest. `None` (and no change) when the
    /// affinity calls are refused.
    ///
    /// Which CPU matters to a journal append: the disk's completion
    /// interrupt arrives on one CPU, and a thread sleeping in `fsync`
    /// on the other pays a cross-CPU wake-up of an idle virtual CPU per
    /// sync — durable deposits ran at 400/s on one CPU of this machine
    /// and 650/s on the other. Timing a few syncs per CPU finds the
    /// near one on any machine; for work that never syncs, any one CPU
    /// is as good as another.
    pub fn cheapest_sync_cpu(dir: &Path) -> Option<CpuPin> {
        let mut previous = [0u64; MASK_WORDS];
        // SAFETY: the pointer is to a live, writable array of exactly
        // the byte length passed; pid 0 names the calling thread.
        let got = unsafe {
            sched_getaffinity(0, std::mem::size_of_val(&previous), previous.as_mut_ptr())
        };
        if got != 0 {
            return None;
        }
        let pin = CpuPin { previous };
        let allowed = (0..MASK_WORDS * 64).filter(|cpu| previous[cpu / 64] >> (cpu % 64) & 1 == 1);
        let (_, best) = allowed
            .take(MAX_CANDIDATE_CPUS)
            .filter(|&cpu| set_affinity_to(cpu))
            .map(|cpu| (sync_cost(dir), cpu))
            .min_by(|a, b| a.0.total_cmp(&b.0))?;
        set_affinity_to(best).then_some(pin)
    }
}

/// CPUs `cheapest_sync_cpu` tries (each costs some tens of syncs).
const MAX_CANDIDATE_CPUS: usize = 8;

fn set_affinity_to(cpu: usize) -> bool {
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: a live array of exactly the byte length passed, only
    // read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

/// Median seconds of a small append-and-sync to a scratch file in
/// `dir`, from the CPU the caller is on (infinite when `dir` refuses).
fn sync_cost(dir: &Path) -> f64 {
    use std::io::Write;
    let path = dir.join("sync-probe");
    let timed = std::fs::File::create(&path).and_then(|mut file| {
        (0..96)
            .map(|_| {
                let started = std::time::Instant::now();
                file.write_all(&[0x5A; 600])?;
                file.sync_data()?;
                Ok(started.elapsed().as_secs_f64())
            })
            .collect::<std::io::Result<Vec<f64>>>()
    });
    let _ = std::fs::remove_file(&path);
    timed.map_or(f64::INFINITY, |samples| crate::stats::median(&samples))
}

impl Drop for CpuPin {
    fn drop(&mut self) {
        // SAFETY: as in `cheapest_sync_cpu`; the mask is the one the
        // kernel handed out before. A refusal leaves the thread pinned,
        // which only costs parallelism, so the result is ignored.
        unsafe {
            sched_setaffinity(
                0,
                std::mem::size_of_val(&self.previous),
                self.previous.as_ptr(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allowed_cpus() -> u32 {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: a live, writable array of the byte length passed.
        let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        assert_eq!(got, 0);
        mask.iter().map(|w| w.count_ones()).sum()
    }

    #[test]
    fn pin_confines_to_one_cpu_and_drop_restores() {
        let before = allowed_cpus();
        let pin = CpuPin::cheapest_sync_cpu(&std::env::temp_dir()).expect("affinity is allowed");
        assert_eq!(allowed_cpus(), 1);
        let inherited = std::thread::spawn(allowed_cpus)
            .join()
            .expect("thread runs");
        assert_eq!(inherited, 1, "threads started while pinned are pinned");
        drop(pin);
        assert_eq!(allowed_cpus(), before);
    }
}
