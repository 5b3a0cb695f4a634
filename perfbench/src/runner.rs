//! The measuring window: closed-loop generators, one-second segments,
//! a reference sample between segments.

use crate::host::{HostProbe, Sampling, Usage};
use crate::stats::{nearest_rank, Segment, Timed};
use crate::trace::TraceCtx;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How an operation ended.
pub enum Outcome {
    /// Answered and verified.
    Verified,
    /// Refused, errored or timed out: counts in `failed`.
    Failed(String),
    /// Looked like success and was wrong: counts in `failed` and makes
    /// the run incorrect.
    Wrong(String),
}

/// One operation as the driver saw it.
pub struct Step {
    pub outcome: Outcome,
    /// Send to last byte received, without the verification.
    pub request: Duration,
}

/// One closed-loop client: draws its next operation, sends it, verifies
/// the answer. With a `TraceCtx` it also replays the operation's layers.
pub trait Driver: Send {
    fn step(&mut self, trace: Option<&mut TraceCtx>) -> Step;

    /// Untimed work between segments.
    fn housekeeping(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// What the generators' rest between two segments is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pause {
    /// The segment is over; a reference sample follows.
    Rest,
    /// The sample is taken; the next segment follows.
    Resume,
}

/// A reference sample costs about this much of the window.
const SAMPLE_COST_S: f64 = 0.09;

/// What one generator saw in one segment.
struct Lap {
    latencies_ms: Vec<f64>,
    wall_s: f64,
}

#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// The first few reasons, for the log.
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn count(&mut self, outcome: &Outcome) {
        self.attempted += 1;
        let (wrong, reason) = match outcome {
            Outcome::Verified => return,
            Outcome::Failed(reason) => (false, reason),
            Outcome::Wrong(reason) => (true, reason),
        };
        self.failed += 1;
        self.wrong += u64::from(wrong);
        if self.reasons.len() < 5 {
            self.reasons.push(format!("{}: {reason}", if wrong { "WRONG" } else { "failed" }));
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.reasons.extend(other.reasons);
        self.reasons.truncate(5);
    }
}

pub struct Window {
    /// Timed segments, in time order (warm-up segments left out).
    pub segments: Vec<Segment>,
    pub sampling: Sampling,
    pub tally: Tally,
    /// The four figures as the clock read them: pooled over the timed
    /// segments, unscaled. Information, not metrics.
    pub pooled: Timed,
    /// Pooled p95 and p99, for the log only.
    pub tail_ms: (f64, f64),
    pub usage_start: Usage,
    pub usage_end: Usage,
}

/// Run `drivers` in a closed loop for `seconds`, cut into segments of
/// `segment_s`; the first `warmup` segments are not timed. `pause` runs
/// on the coordinator between segments, while the generators rest:
/// before the reference sample and after it.
pub fn run_window(
    drivers: &mut [Box<dyn Driver>],
    seconds: f64,
    segment_s: f64,
    warmup: usize,
    probe: &mut HostProbe,
    pause: &dyn Fn(Pause),
) -> Result<Window, String> {
    let gate = Barrier::new(drivers.len() + 1);
    let stop = AtomicBool::new(false);
    let base = Instant::now();
    let deadline_ns = AtomicU64::new(0);
    let usage_start = Usage::now();

    let (laps, tally, marks, sampling) = std::thread::scope(|s| {
        let handles: Vec<_> = drivers
            .iter_mut()
            .map(|driver| {
                let (gate, stop, deadline_ns) = (&gate, &stop, &deadline_ns);
                s.spawn(move || {
                    let mut laps: Vec<Lap> = Vec::new();
                    let mut tally = Tally::default();
                    loop {
                        gate.wait();
                        if stop.load(Ordering::SeqCst) {
                            return (laps, tally);
                        }
                        let deadline =
                            base + Duration::from_nanos(deadline_ns.load(Ordering::SeqCst));
                        let start = Instant::now();
                        let mut lap = Lap { latencies_ms: Vec::new(), wall_s: 0.0 };
                        // A request in flight at the segment's end
                        // finishes and counts in it.
                        while Instant::now() < deadline {
                            let sent = Instant::now();
                            let step = driver.step(None);
                            lap.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                            tally.count(&step.outcome);
                        }
                        lap.wall_s = start.elapsed().as_secs_f64();
                        laps.push(lap);
                        gate.wait();
                        if let Err(e) = driver.housekeeping() {
                            tally.count(&Outcome::Failed(format!("housekeeping: {e}")));
                        }
                        gate.wait();
                    }
                })
            })
            .collect();

        let mut marks: Vec<(Usage, Usage)> = Vec::new();
        let mut sampling = Sampling::default();
        pause(Pause::Rest);
        sampling.take(probe);
        pause(Pause::Resume);
        while base.elapsed().as_secs_f64() + segment_s + SAMPLE_COST_S <= seconds {
            let deadline = base.elapsed() + Duration::from_secs_f64(segment_s);
            deadline_ns.store(deadline.as_nanos() as u64, Ordering::SeqCst);
            let before = Usage::now();
            gate.wait();
            gate.wait();
            marks.push((before, Usage::now()));
            pause(Pause::Rest);
            gate.wait();
            sampling.take(probe);
            pause(Pause::Resume);
        }
        stop.store(true, Ordering::SeqCst);
        gate.wait();
        let mut laps = Vec::new();
        let mut tally = Tally::default();
        for handle in handles {
            match handle.join() {
                Ok((l, t)) => {
                    laps.push(l);
                    tally.merge(t);
                }
                Err(_) => tally.count(&Outcome::Failed("a generator thread panicked".into())),
            }
        }
        (laps, tally, marks, sampling)
    });

    if marks.len() <= warmup {
        return Err(format!(
            "--seconds {seconds} leaves no timed segment after {warmup} warm-up segments"
        ));
    }
    let mut segments = Vec::new();
    let mut all_ms: Vec<f64> = Vec::new();
    let (mut total_ops, mut total_wall, mut total_cpu) = (0usize, 0.0, 0.0);
    for (i, (before, after)) in marks.iter().enumerate().skip(warmup) {
        let mut ms: Vec<f64> = Vec::new();
        let mut rate = 0.0;
        for generator in &laps {
            let Some(lap) = generator.get(i) else { continue };
            ms.extend_from_slice(&lap.latencies_ms);
            if lap.wall_s > 0.0 {
                rate += lap.latencies_ms.len() as f64 / lap.wall_s;
            }
        }
        let cpu_s = after.cpu_since(before);
        let wall = after.at.duration_since(before.at).as_secs_f64();
        total_ops += ms.len();
        total_wall += wall;
        total_cpu += cpu_s;
        segments.push(Segment {
            ops: ms.len(),
            rate,
            p50_ms: nearest_rank(&ms, 50.0),
            p90_ms: nearest_rank(&ms, 90.0),
            cpu_ms_per_op: if ms.is_empty() { 0.0 } else { cpu_s * 1e3 / ms.len() as f64 },
            granted: after.granted_since(before),
        });
        all_ms.extend(ms);
    }
    let pooled = Timed {
        ops_per_s: if total_wall > 0.0 { total_ops as f64 / total_wall } else { 0.0 },
        p50_ms: nearest_rank(&all_ms, 50.0),
        p90_ms: nearest_rank(&all_ms, 90.0),
        cpu_ms_per_op: if total_ops > 0 { total_cpu * 1e3 / total_ops as f64 } else { 0.0 },
    };
    let tail_ms = (nearest_rank(&all_ms, 95.0), nearest_rank(&all_ms, 99.0));
    Ok(Window { segments, sampling, tally, pooled, tail_ms, usage_start, usage_end: Usage::now() })
}
