//! The host-speed index: a reference sample that calls nothing of the
//! repo, so no change to the program can move it, and the `/proc`
//! readers behind `granted`, CPU per operation, peak RSS and the
//! `proc.*` counters.
//!
//! On a shared 2-vCPU box the same binary runs the same workload at
//! rates 2x apart within an afternoon. Steal time explains part of it
//! (`granted`), the rest shows only as "everything is slower": so the
//! benchmark measures how fast the host is *while it runs* and reports
//! every timed figure per unit of that speed.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Barrier, Condvar, Mutex};
use std::time::Instant;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sysconf(name: i32) -> i64;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Words in the kernel's `cpu_set_t` (1024 bits).
const CPU_SET_WORDS: usize = 16;

/// CPUs this process may run on, in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return vec![0];
    }
    let cpus: Vec<usize> =
        (0..CPU_SET_WORDS * 64).filter(|c| mask[c / 64] >> (c % 64) & 1 == 1).collect();
    if cpus.is_empty() {
        vec![0]
    } else {
        cpus
    }
}

/// Pin the calling thread to one CPU. Unpinned, the kernel sometimes
/// stacks both sample threads on one vCPU and the sample flips between
/// two modes.
fn pin_to(cpu: usize) {
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread. A refusal leaves the thread
    // unpinned, which only makes the sample noisier.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Part names, in the order of [`Sample::parts_ms`].
pub const PART_NAMES: [&str; 6] = ["chains", "l1", "conv", "walk", "token", "socket"];

/// What each part took on a calm host (ms). They only set the scale of
/// the index: 1.0 is "as fast as the box this was written on, idle".
pub const NOMINAL_MS: [f64; 6] = [7.3, 6.3, 6.4, 10.8, 13.8, 12.6];

const CHAIN_STEPS: usize = 2_000_000;
const L1_FLOATS: usize = 4096; // 16 KiB
const L1_PASSES: usize = 14_000;
const CONV_FLOATS: usize = 128 * 1024; // 512 KiB
const CONV_PASSES: usize = 27;
const WALK_SLOTS: usize = 1024 * 1024; // 4 MiB of u32
const WALK_STEPS: usize = 230_000;
const TOKEN_PASSES: usize = 400;
const SOCKET_MESSAGES: usize = 300;

/// One reference sample: the six part times, in ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub parts_ms: [f64; 6],
}

impl Sample {
    /// Half the mean slow-down of the four computing parts plus half
    /// that of the two hand-off parts. Above 1 the host is slower than
    /// nominal.
    pub fn index(&self) -> f64 {
        let ratio = |i: usize| self.parts_ms[i] / NOMINAL_MS[i];
        0.5 * (ratio(0) + ratio(1) + ratio(2) + ratio(3)) / 4.0 + 0.5 * (ratio(4) + ratio(5)) / 2.0
    }
}

/// The reference samples of one run, and what the host took away while
/// they ran.
#[derive(Default)]
pub struct Sampling {
    pub samples: Vec<Sample>,
    /// CPU seconds the process used, and seconds stolen from the
    /// machine, during the samples only.
    used_s: f64,
    stolen_s: Option<f64>,
}

impl Sampling {
    /// Take one sample on a thread of its own, so that the pinning never
    /// sticks to a thread that goes on to do other work.
    pub fn take(&mut self, probe: &mut HostProbe) {
        let before = Usage::now();
        let sample = std::thread::scope(|s| {
            s.spawn(|| probe.sample()).join().expect("sample thread does not panic")
        });
        let after = Usage::now();
        self.used_s += after.cpu_since(&before);
        if let Some(stolen) = after.stolen_since(&before) {
            *self.stolen_s.get_or_insert(0.0) += stolen;
        }
        self.samples.push(sample);
    }

    /// `granted` over the samples: steal is counted in ticks of 10 ms, too
    /// coarse for one sample of 75 ms and fine for a run's worth.
    pub fn granted(&self) -> f64 {
        self.stolen_s.map_or(1.0, |stolen| granted(self.used_s, stolen))
    }

    /// The run's index: the median of its samples' indices, times what
    /// the host granted the samples. A segment's figures are corrected
    /// for steal through its own `granted`; so are the samples here, or a
    /// stolen millisecond would be corrected for twice (uncorrected, the
    /// median over-corrected 1.4-1.6x in heavy-steal runs). See the README
    /// for the median against the lower quartile.
    pub fn index(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let indices: Vec<f64> = self.samples.iter().map(Sample::index).collect();
        crate::stats::median(&indices) * self.granted()
    }
}

/// A table where following `next = table[next]` visits every slot once
/// before returning (Sattolo's algorithm), so the walk cannot settle
/// into a short, cache-resident loop.
pub fn sattolo_cycle(slots: usize, seed: u64) -> Vec<u32> {
    let mut table: Vec<u32> = (0..slots as u32).collect();
    let mut state = seed | 1;
    for i in (1..slots).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % i as u64) as usize;
        table.swap(i, j);
    }
    table
}

struct Lane {
    l1: Vec<f32>,
    l1_add: Vec<f32>,
    conv_in: Vec<f32>,
    conv_out: Vec<f32>,
}

impl Lane {
    fn new() -> Lane {
        let ramp = |n: usize| (0..n).map(|i| (i % 97) as f32 * 0.01).collect::<Vec<f32>>();
        Lane {
            l1: ramp(L1_FLOATS),
            l1_add: ramp(L1_FLOATS),
            conv_in: ramp(CONV_FLOATS + 6),
            conv_out: vec![0.0; CONV_FLOATS],
        }
    }

    /// The four computing parts, each timed on its own.
    fn compute(&mut self, walk: &[u32], start: u32) -> [f64; 4] {
        let mut out = [0.0; 4];
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;

        // Eight independent xorshift chains: issue width.
        let t = Instant::now();
        let mut s = [1u64, 2, 3, 4, 5, 6, 7, 8].map(|k| k * 0x9E37_79B9_7F4A_7C15);
        for _ in 0..CHAIN_STEPS {
            for x in &mut s {
                *x ^= *x << 13;
                *x ^= *x >> 7;
                *x ^= *x << 17;
            }
        }
        black_box(s);
        out[0] = ms(t);

        // A float recurrence over 16 KiB: L1 and the vector units.
        let t = Instant::now();
        for _ in 0..L1_PASSES {
            for (a, b) in self.l1.iter_mut().zip(&self.l1_add) {
                *a = *a * 0.999 + *b;
            }
            black_box(&mut self.l1);
        }
        out[1] = ms(t);

        // A 7-tap float convolution over 512 KiB: L2, and what the
        // resize filters and the DCT look like.
        const TAPS: [f32; 7] = [0.03, 0.11, 0.22, 0.28, 0.22, 0.11, 0.03];
        let t = Instant::now();
        for _ in 0..CONV_PASSES {
            for (i, o) in self.conv_out.iter_mut().enumerate() {
                let w = &self.conv_in[i..i + 7];
                *o = w.iter().zip(&TAPS).map(|(x, k)| x * k).sum();
            }
            self.conv_in[..CONV_FLOATS].copy_from_slice(&self.conv_out);
            black_box(&mut self.conv_in);
        }
        out[2] = ms(t);

        // A dependent walk through a 4 MiB cycle: the last-level cache.
        let t = Instant::now();
        let mut at = start;
        for _ in 0..WALK_STEPS {
            at = walk[at as usize];
        }
        black_box(at);
        out[3] = ms(t);
        out
    }
}

/// Buffers and sockets of the reference sample, allocated and touched
/// once so that a sample times work only.
pub struct HostProbe {
    cpus: [usize; 2],
    walk: Vec<u32>,
    lanes: [Lane; 2],
    token: Mutex<u64>,
    token_cv: Condvar,
    sockets: [TcpStream; 2],
}

impl HostProbe {
    pub fn new() -> std::io::Result<HostProbe> {
        let allowed = allowed_cpus();
        let cpus = [allowed[0], allowed[allowed.len() - 1]];
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let a = TcpStream::connect(listener.local_addr()?)?;
        let (b, _) = listener.accept()?;
        a.set_nodelay(true)?;
        b.set_nodelay(true)?;
        Ok(HostProbe {
            cpus,
            walk: sattolo_cycle(WALK_SLOTS, 0x5EED),
            lanes: [Lane::new(), Lane::new()],
            token: Mutex::new(0),
            token_cv: Condvar::new(),
            sockets: [a, b],
        })
    }

    /// The two CPUs the sample threads are pinned to.
    pub fn cpus(&self) -> [usize; 2] {
        self.cpus
    }

    /// Take one sample (~70 ms). Nothing else of this process should be
    /// running.
    pub fn sample(&mut self) -> Sample {
        *self.token.lock().expect("token mutex never poisoned: holders cannot panic") = 0;
        let HostProbe { cpus, walk, lanes, token, token_cv, sockets } = self;
        let (walk, token, token_cv) = (&*walk, &*token, &*token_cv);
        let start = Barrier::new(2);
        let handoff = Barrier::new(2);
        let [lane_a, lane_b] = lanes;
        let [sock_a, sock_b] = sockets;
        let (cpu_a, cpu_b) = (cpus[0], cpus[1]);
        // One pass of the token: wait for my turn, take it, wake the peer.
        let pass = |parity: u64| {
            let mut turn = token.lock().expect("token mutex never poisoned");
            while *turn % 2 != parity {
                turn = token_cv.wait(turn).expect("token mutex never poisoned");
            }
            *turn += 1;
            token_cv.notify_one();
        };
        std::thread::scope(|s| {
            let peer = s.spawn(|| {
                pin_to(cpu_b);
                start.wait();
                let compute = lane_b.compute(walk, WALK_SLOTS as u32 / 2);
                handoff.wait();
                for _ in 0..TOKEN_PASSES {
                    pass(1);
                }
                handoff.wait();
                let mut msg = [0u8; 64];
                for _ in 0..SOCKET_MESSAGES {
                    if sock_b.read_exact(&mut msg).is_err() || sock_b.write_all(&msg).is_err() {
                        break;
                    }
                }
                compute
            });
            pin_to(cpu_a);
            start.wait();
            let mine = lane_a.compute(walk, 0);
            handoff.wait();
            let t = Instant::now();
            for _ in 0..TOKEN_PASSES {
                pass(0);
            }
            // The peer's last increment is what ends the last pass.
            {
                let mut turn = token.lock().expect("token mutex never poisoned");
                while *turn < 2 * TOKEN_PASSES as u64 {
                    turn = token_cv.wait(turn).expect("token mutex never poisoned");
                }
            }
            let token_ms = t.elapsed().as_secs_f64() * 1e3;
            handoff.wait();
            let t = Instant::now();
            let mut msg = [7u8; 64];
            for _ in 0..SOCKET_MESSAGES {
                if sock_a.write_all(&msg).is_err() || sock_a.read_exact(&mut msg).is_err() {
                    break;
                }
            }
            let socket_ms = t.elapsed().as_secs_f64() * 1e3;
            let theirs = peer.join().expect("sample thread does not panic");
            let mut parts_ms = [0.0; 6];
            for i in 0..4 {
                parts_ms[i] = (mine[i] + theirs[i]) / 2.0;
            }
            parts_ms[4] = token_ms;
            parts_ms[5] = socket_ms;
            Sample { parts_ms }
        })
    }
}

// ---------------------------------------------------------------------
// /proc readers
// ---------------------------------------------------------------------

/// The fields of `/proc/self/stat` the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelfStat {
    pub minflt: u64,
    pub utime_ticks: u64,
    pub stime_ticks: u64,
}

/// Parse `/proc/self/stat`. The command name may hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_self_stat(text: &str) -> Option<SelfStat> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): minflt is field 10, utime 14, stime 15.
    let at = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(SelfStat { minflt: at(10)?, utime_ticks: at(14)?, stime_ticks: at(15)? })
}

/// `VmHWM` of `/proc/self/status`, in KiB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The `steal` column of `/proc/stat`, summed over the per-CPU lines, in
/// ticks.
pub fn parse_stat_steal(stat: &str) -> Option<u64> {
    let mut sum = None;
    for line in stat.lines() {
        let mut fields = line.split_whitespace();
        let Some(label) = fields.next() else { continue };
        if label.len() > 3 && label.starts_with("cpu") {
            // user nice system idle iowait irq softirq steal
            let steal: u64 = fields.nth(7)?.parse().ok()?;
            *sum.get_or_insert(0) += steal;
        }
    }
    sum
}

/// `syscr + syscw` of `/proc/self/io`: read and write system calls.
pub fn parse_self_io(io: &str) -> Option<u64> {
    let field = |name: &str| -> Option<u64> {
        io.lines().find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
    };
    Some(field("syscr:")? + field("syscw:")?)
}

/// Share of the CPU time the process asked for that the host granted:
/// `used / (used + stolen)`, 1.0 when there is nothing to divide.
pub fn granted(used_s: f64, stolen_s: f64) -> f64 {
    if used_s > 0.0 && stolen_s >= 0.0 {
        used_s / (used_s + stolen_s)
    } else {
        1.0
    }
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    /// maxrss ixrss idrss isrss minflt majflt nswap inblock oublock
    /// msgsnd msgrcv nsignals nvcsw nivcsw
    longs: [i64; 14],
}

/// A reading of the process's clocks and counters.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub at: Instant,
    /// User + system CPU seconds of the whole process.
    pub cpu_s: f64,
    /// Seconds stolen from the machine's CPUs; `None` when unreadable.
    pub steal_s: Option<f64>,
    pub minflt: u64,
    pub rw_syscalls: u64,
    pub ctx_switches: u64,
}

fn ticks_per_second() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes a plain integer and returns one.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

impl Usage {
    pub fn now() -> Usage {
        let hz = ticks_per_second();
        let read = |p: &str| std::fs::read_to_string(p).ok();
        let stat = read("/proc/self/stat").and_then(|t| parse_self_stat(&t));
        let mut ru = Rusage::default();
        const RUSAGE_SELF: i32 = 0;
        // SAFETY: `ru` is a writable `struct rusage` (x86-64 and aarch64
        // Linux: two timevals and fourteen longs).
        let ctx = if unsafe { getrusage(RUSAGE_SELF, &mut ru) } == 0 {
            (ru.longs[12] + ru.longs[13]) as u64
        } else {
            0
        };
        Usage {
            at: Instant::now(),
            cpu_s: stat.map_or(0.0, |s| (s.utime_ticks + s.stime_ticks) as f64 / hz),
            steal_s: read("/proc/stat").and_then(|t| parse_stat_steal(&t)).map(|t| t as f64 / hz),
            minflt: stat.map_or(0, |s| s.minflt),
            rw_syscalls: read("/proc/self/io").and_then(|t| parse_self_io(&t)).unwrap_or(0),
            ctx_switches: ctx,
        }
    }

    /// CPU seconds used since `earlier`.
    pub fn cpu_since(&self, earlier: &Usage) -> f64 {
        self.cpu_s - earlier.cpu_s
    }

    /// Seconds stolen since `earlier`; `None` when unreadable.
    pub fn stolen_since(&self, earlier: &Usage) -> Option<f64> {
        Some(self.steal_s? - earlier.steal_s?)
    }

    /// `granted` over the interval since `earlier`.
    pub fn granted_since(&self, earlier: &Usage) -> f64 {
        self.stolen_since(earlier).map_or(1.0, |stolen| granted(self.cpu_since(earlier), stolen))
    }

    /// Stolen seconds over wall seconds times CPUs, since `earlier`.
    pub fn steal_ratio_since(&self, earlier: &Usage, cpus: usize) -> f64 {
        let wall = self.at.duration_since(earlier.at).as_secs_f64() * cpus.max(1) as f64;
        match self.stolen_since(earlier) {
            Some(stolen) if wall > 0.0 => stolen / wall,
            _ => 0.0,
        }
    }
}

/// Peak resident set of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_vm_hwm_kb(&t))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sattolo_table_is_one_cycle() {
        let n = 4096;
        let table = sattolo_cycle(n, 99);
        let mut at = 0u32;
        let mut seen = vec![false; n];
        for _ in 0..n {
            assert!(!seen[at as usize], "returned early: not a single cycle");
            seen[at as usize] = true;
            at = table[at as usize];
        }
        assert_eq!(at, 0, "n steps return to the start");
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sample_index_weighs_compute_and_handoff_equally() {
        let nominal = Sample { parts_ms: NOMINAL_MS };
        assert!((nominal.index() - 1.0).abs() < 1e-12);
        let mut slow_compute = NOMINAL_MS;
        for p in &mut slow_compute[..4] {
            *p *= 2.0;
        }
        assert!((Sample { parts_ms: slow_compute }.index() - 1.5).abs() < 1e-12);
        let mut slow_handoff = NOMINAL_MS;
        slow_handoff[4] *= 3.0;
        assert!((Sample { parts_ms: slow_handoff }.index() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn run_index_is_the_median_sample_times_what_the_samples_were_granted() {
        let at = |k: f64| Sample { parts_ms: NOMINAL_MS.map(|n| n * k) };
        let samples: Vec<Sample> = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 9.9].map(at).to_vec();
        let calm = Sampling { samples: samples.clone(), used_s: 1.0, stolen_s: Some(0.0) };
        assert!((calm.index() - 1.3).abs() < 1e-9, "one wild sample moves nothing");
        // A quarter of the samples' time stolen: they read 4/3 slow for
        // that alone, and the segments' own `granted` corrects for it.
        let stolen = Sampling { samples, used_s: 1.5, stolen_s: Some(0.5) };
        assert!((stolen.index() - 1.3 * 0.75).abs() < 1e-9);
        assert_eq!(Sampling::default().index(), 1.0);
        let unreadable = Sampling { samples: vec![at(1.7)], used_s: 0.1, stolen_s: None };
        assert!((unreadable.index() - 1.7).abs() < 1e-12);
    }

    #[test]
    fn granted_is_used_over_used_plus_stolen() {
        assert_eq!(granted(1.5, 0.5), 0.75);
        assert_eq!(granted(2.0, 0.0), 1.0);
        assert_eq!(granted(0.0, 0.3), 1.0, "nothing used: nothing to scale");
    }

    #[test]
    fn self_stat_survives_a_hostile_command_name() {
        let text = "4242 (p3 (perf) bench) S 1 4242 4242 0 -1 4194560 1234 0 5 0 \
                    250 75 0 0 20 0 3 0 100 1000000 500 18446744073709551615";
        let s = parse_self_stat(text).unwrap();
        assert_eq!(s, SelfStat { minflt: 1234, utime_ticks: 250, stime_ticks: 75 });
        assert!(parse_self_stat("garbage").is_none());
        let live = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(parse_self_stat(&live).is_some());
    }

    #[test]
    fn vm_hwm_steal_and_io_parsers() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1848 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1848));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);

        let stat = "cpu  10 0 10 100 5 0 2 30 0 0\n\
                    cpu0 5 0 5 50 2 0 1 10 0 0\n\
                    cpu1 5 0 5 50 3 0 1 20 0 0\n\
                    intr 12345\n";
        assert_eq!(parse_stat_steal(stat), Some(30), "per-CPU lines, not the total line");
        assert_eq!(parse_stat_steal("intr 1\n"), None);

        let io = "rchar: 3980\nwchar: 0\nsyscr: 9\nsyscw: 4\nread_bytes: 0\n";
        assert_eq!(parse_self_io(io), Some(13));
        assert_eq!(parse_self_io("rchar: 1\n"), None);
    }
}
