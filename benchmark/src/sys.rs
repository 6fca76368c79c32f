//! What the benchmark asks the kernel: CPU time from `/proc`, and where
//! the open loop's threads run. The container has no libc crate, so the
//! three scheduler calls are declared here; they are in the C library
//! `std` already links. Peak RSS comes from `cdn_sim::peak_rss_bytes`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Kernel clock ticks per second behind the `utime`/`stime` fields of
/// `/proc/self/stat`. `USER_HZ` is 100 on every Linux ABI the toolchain
/// image targets.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds this process has consumed so far, all
/// threads, including threads that have already exited.
pub fn process_cpu_seconds() -> Option<f64> {
    cpu_seconds_in(Path::new("/proc/self/stat"))
}

/// User + system CPU seconds in a `/proc/.../stat` file of a process or
/// of one of its threads.
fn cpu_seconds_in(stat_file: &Path) -> Option<f64> {
    let stat = std::fs::read_to_string(stat_file).ok()?;
    // Field 2 (comm) is parenthesised and may itself contain spaces or
    // parentheses; the numeric fields start after the *last* ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is field 14, stime 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_SEC)
}

/// A `cpu_set_t`: one bit per CPU, 1024 of them.
type CpuSet = [u64; 16];
/// `SCHED_IDLE`: runs only when nothing else wants the CPU, and is
/// preempted the moment anything else wakes on it.
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    /// `param` points at a `struct sched_param`, which is one `int`.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// CPUs the calling thread may run on.
fn allowed_cpus() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

/// Restrict the calling thread (and every thread it spawns from now on)
/// to `set`.
fn run_on(set: &CpuSet) -> bool {
    // SAFETY: `set` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
}

fn only(cpu: usize) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    set
}

/// CPUs in `set`, ascending.
fn cpus_in(set: CpuSet) -> impl Iterator<Item = usize> {
    (0..1024).filter(move |&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
}

/// Keeps the daemon workloads from measuring the host: `SCHED_IDLE`
/// threads that spin on the cores where the daemon's threads sleep, and
/// for the open loop a core for the load generator alone.
///
/// Why: the daemon's worker sleeps whenever its ring is empty (and the
/// closed loop's feeder whenever it is full), and on this virtual
/// machine an idle core executes `HLT`, which hands the core back to the
/// host. How fast the host gives it back depends on the host's adaptive
/// halt-polling, not on the program: open-loop burst latency read p50
/// 36 µs / p90 55 µs in one state and 46 / 83 in the other, and the
/// closed loop 10 Mreq/s or 7, for whole runs at a time. A spinner keeps
/// a core out of `HLT` — what `idle=poll` does on a machine one can
/// reboot — so a wake costs the futex call and the scheduler's preemption
/// of an idle-class task, which *are* the program's.
///
/// Dropping the guard stops the spinners and restores the affinity.
#[derive(Default)]
pub struct Placement {
    restore: Option<CpuSet>,
    spinners: Vec<Spinner>,
}

struct Spinner {
    stop: Arc<AtomicBool>,
    stat_file: PathBuf,
    handle: JoinHandle<()>,
}

impl Placement {
    /// The closed loop's: a spinner on every CPU this process may use;
    /// feeder and worker both sleep, and run where the scheduler puts
    /// them. Where the kernel refuses `SCHED_IDLE` there are no spinners
    /// and the run proceeds as it would have.
    pub fn awake() -> Placement {
        Placement {
            restore: None,
            spinners: allowed_cpus()
                .into_iter()
                .flat_map(cpus_in)
                .filter_map(Spinner::start_on)
                .collect(),
        }
    }

    /// The open loop's: run `spawn` (which starts the daemon's threads)
    /// pinned to the first CPU this process may use, put a spinner there,
    /// then pin the calling thread — the load generator — to the second.
    /// The generator never sleeps, so nothing would ever wake on its core
    /// to preempt a spinner there; and it stays off CPU 0, which takes the
    /// device interrupts (on CPU 0 its bursts' p50 read 37–47 µs, on CPU 1
    /// 36–38). With fewer than two CPUs the run proceeds unplaced.
    pub fn split<T>(spawn: impl FnOnce() -> T) -> (T, Placement) {
        let Some(allowed) = allowed_cpus() else {
            return (spawn(), Placement::default());
        };
        let mut cpus = cpus_in(allowed);
        let (Some(worker_cpu), Some(generator_cpu)) = (cpus.next(), cpus.next()) else {
            return (spawn(), Placement::default());
        };
        if !run_on(&only(worker_cpu)) {
            return (spawn(), Placement::default());
        }
        let spawned = spawn();
        run_on(&only(generator_cpu));
        let placement = Placement {
            restore: Some(allowed),
            spinners: Spinner::start_on(worker_cpu).into_iter().collect(),
        };
        (spawned, placement)
    }

    /// CPU seconds the spinners have burnt so far: the benchmark's own,
    /// to be taken out of the process's.
    pub fn spinner_cpu_seconds(&self) -> f64 {
        self.spinners
            .iter()
            .filter_map(|s| cpu_seconds_in(&s.stat_file))
            .sum()
    }
}

impl Drop for Placement {
    fn drop(&mut self) {
        for s in &self.spinners {
            s.stop.store(true, Ordering::Relaxed);
        }
        for s in self.spinners.drain(..) {
            let _ = s.handle.join();
        }
        if let Some(set) = self.restore {
            run_on(&set);
        }
    }
}

impl Spinner {
    /// Start a thread that pins itself to `cpu`, drops to `SCHED_IDLE`
    /// and spins until told to stop. `None` (and no thread left behind)
    /// if the kernel refused either: a spinner at normal priority, or on
    /// another core, would take time from the program.
    fn start_on(cpu: usize) -> Option<Spinner> {
        let stop = Arc::new(AtomicBool::new(false));
        let (ready, is_ready) = mpsc::channel();
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let priority = 0i32;
                // SAFETY: `priority` is a live `int`, all `sched_param` holds.
                let idle = run_on(&only(cpu))
                    && unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 };
                // "<pid>/task/<tid>": this thread's own directory in /proc.
                let me = std::fs::read_link("/proc/thread-self")
                    .ok()
                    .filter(|_| idle);
                let spin = me.is_some();
                let _ = ready.send(me);
                if spin {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        match is_ready.recv().ok().flatten() {
            Some(me) => Some(Spinner {
                stop,
                stat_file: Path::new("/proc").join(me).join("stat"),
                handle,
            }),
            None => {
                let _ = handle.join();
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burn(ms: u128) {
        let mut x = 1u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < ms {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
    }

    #[test]
    fn cpu_time_advances() {
        let before = process_cpu_seconds().expect("/proc/self/stat readable");
        burn(60);
        let after = process_cpu_seconds().unwrap();
        assert!(
            after > before,
            "cpu time did not advance: {before} -> {after}"
        );
    }

    #[test]
    fn placement_restores_affinity_and_stops_its_spinner() {
        let before = allowed_cpus().expect("sched_getaffinity");
        let (spawned_on, placement) = Placement::split(|| allowed_cpus().unwrap());
        let during = allowed_cpus().unwrap();
        if placement.restore.is_some() {
            // Two single-CPU sets, and not the same CPU.
            assert_eq!(spawned_on.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(during.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_ne!(spawned_on, during);
        } else {
            assert_eq!(during, before);
        }
        for s in &placement.spinners {
            // Its own thread's accounting, not the process's.
            assert!(s.stat_file.to_string_lossy().contains("/task/"));
            assert!(cpu_seconds_in(&s.stat_file).is_some());
        }
        drop(placement);
        assert_eq!(allowed_cpus().unwrap(), before);
    }

    #[test]
    fn awake_puts_at_most_one_spinner_on_each_cpu_and_pins_nobody_else() {
        let before = allowed_cpus().expect("sched_getaffinity");
        let placement = Placement::awake();
        assert!(placement.spinners.len() <= cpus_in(before).count());
        assert_eq!(allowed_cpus().unwrap(), before);
        assert!(placement.spinner_cpu_seconds() >= 0.0);
        drop(placement);
        assert_eq!(allowed_cpus().unwrap(), before);
    }
}
