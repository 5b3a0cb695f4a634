//! Hashed timer wheel: O(1) set/cancel, timers fired as a cursor sweeps
//! slots. Deadlines are quantized to a coarse tick (16 ms) — ample for
//! connection idle timeouts and I/O deadlines, and it keeps the wheel
//! small. The `active` map is authoritative: slot entries are only hints,
//! garbage-collected as the cursor passes them, so `cancel` never has to
//! find the slot entry.
//!
//! Re-arming a token at the tick it is already armed at files nothing,
//! so a keep-alive connection re-armed after every reply costs one hint
//! per tick, not one per request; a hint left stale by a move is dropped
//! the first time the sweep reaches its slot, within one lap.

use std::collections::HashMap;
use std::time::{Duration, Instant};

const SLOTS: usize = 512;
const TICK_MS: u64 = 16;

/// A coarse-grained timer wheel keyed by opaque `u64` tokens. One timer
/// per token: setting again reschedules, cancelling forgets.
pub struct TimerWheel {
    start: Instant,
    slots: Vec<Vec<(u64, u64)>>, // (token, tick)
    /// token -> tick currently armed for it (authoritative).
    active: HashMap<u64, u64>,
    /// Next tick the sweep will process.
    cursor: u64,
    /// Lower bound on the earliest active tick; `None` means "recompute".
    min_tick: Option<u64>,
}

impl TimerWheel {
    /// An empty wheel anchored at `now`.
    pub fn new(now: Instant) -> TimerWheel {
        TimerWheel {
            start: now,
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            active: HashMap::new(),
            cursor: 0,
            min_tick: None,
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        (at.saturating_duration_since(self.start).as_millis() as u64) / TICK_MS
    }

    /// Arm (or re-arm) the timer for `token` at `deadline`. Deadlines in
    /// the past fire on the next sweep.
    pub fn set(&mut self, token: u64, deadline: Instant) {
        let ms = deadline.saturating_duration_since(self.start).as_millis() as u64;
        let tick = ms.div_ceil(TICK_MS).max(self.cursor);
        if self.active.insert(token, tick) == Some(tick) {
            return; // the hint filed for this tick is still live
        }
        self.slots[(tick % SLOTS as u64) as usize].push((token, tick));
        self.min_tick = Some(self.min_tick.map_or(tick, |m| m.min(tick)));
    }

    /// Slot entries held, live and stale: what the wheel costs in memory.
    pub fn hints(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// Disarm the timer for `token`, if any. The stale slot entry is
    /// dropped when the sweep reaches it.
    pub fn cancel(&mut self, token: u64) {
        self.active.remove(&token);
    }

    /// How long until the earliest armed timer, or `None` if the wheel is
    /// empty. A cancelled front-runner can cost one early (empty) wakeup
    /// before the bound is recomputed.
    pub fn next_timeout(&mut self, now: Instant) -> Option<Duration> {
        if self.active.is_empty() {
            self.min_tick = None;
            return None;
        }
        if self.min_tick.is_some_and(|m| m < self.cursor) {
            self.min_tick = None;
        }
        let min = match self.min_tick {
            Some(m) => m,
            None => {
                let m = *self.active.values().min().expect("active non-empty");
                self.min_tick = Some(m);
                m
            }
        };
        let due = self.start + Duration::from_millis(min * TICK_MS);
        Some(due.saturating_duration_since(now))
    }

    /// Sweep all ticks up to `now`, appending fired tokens to `out`.
    pub fn expire(&mut self, now: Instant, out: &mut Vec<u64>) {
        let target = self.tick_of(now);
        while self.cursor <= target {
            let slot = &mut self.slots[(self.cursor % SLOTS as u64) as usize];
            let mut keep = Vec::new();
            for (token, tick) in slot.drain(..) {
                if self.active.get(&token) != Some(&tick) {
                    continue; // cancelled or rescheduled: GC the hint
                }
                if tick == self.cursor {
                    self.active.remove(&token);
                    out.push(token);
                } else {
                    keep.push((token, tick)); // a later lap of the wheel
                }
            }
            *slot = keep;
            self.cursor += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn fires_in_deadline_order() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        w.set(1, at(base, 100));
        w.set(2, at(base, 40));
        let mut fired = Vec::new();
        w.expire(at(base, 60), &mut fired);
        assert_eq!(fired, vec![2]);
        w.expire(at(base, 200), &mut fired);
        assert_eq!(fired, vec![2, 1]);
        assert_eq!(w.next_timeout(at(base, 200)), None);
    }

    #[test]
    fn cancel_prevents_firing() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        w.set(1, at(base, 50));
        w.cancel(1);
        let mut fired = Vec::new();
        w.expire(at(base, 500), &mut fired);
        assert!(fired.is_empty());
        assert_eq!(w.next_timeout(at(base, 500)), None);
    }

    #[test]
    fn rearm_moves_the_deadline() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        w.set(1, at(base, 50));
        w.set(1, at(base, 5_000));
        let mut fired = Vec::new();
        w.expire(at(base, 1_000), &mut fired);
        assert!(fired.is_empty(), "old deadline must not fire");
        w.expire(at(base, 6_000), &mut fired);
        assert_eq!(fired, vec![1]);
    }

    #[test]
    fn next_timeout_never_undershoots_the_deadline() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        w.set(1, at(base, 100));
        let wait = w.next_timeout(at(base, 0)).unwrap();
        assert!(wait >= Duration::from_millis(100), "wait {wait:?}");
        // After a cancelled front-runner, the bound self-heals via sweep.
        w.set(2, at(base, 30));
        w.cancel(2);
        let early = w.next_timeout(at(base, 0)).unwrap();
        let mut fired = Vec::new();
        w.expire(at(base, 0) + early, &mut fired);
        assert!(fired.is_empty());
        let wait = w.next_timeout(at(base, 0)).unwrap();
        assert!(wait >= Duration::from_millis(100 - TICK_MS), "wait {wait:?}");
    }

    #[test]
    fn rearming_inside_one_tick_leaves_one_hint() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        for _ in 0..1_000 {
            w.set(1, at(base, 60_000));
        }
        assert_eq!(w.hints(), 1);
    }

    #[test]
    fn rearming_later_files_one_hint_per_tick_and_fires_at_the_last_deadline() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        let mut fired = Vec::new();
        // A keep-alive connection: re-armed one idle window ahead every
        // 5 ms while the sweep runs, across several laps of the wheel.
        // Each hint goes stale a tick after it is filed and is dropped
        // when the sweep reaches it, one window later.
        let window = 1_000;
        for ms in (0..20_000).step_by(5) {
            w.set(1, at(base, ms + window));
            w.expire(at(base, ms), &mut fired);
            let bound = (window / TICK_MS + 2) as usize;
            assert!(w.hints() <= bound, "{} hints at {ms} ms", w.hints());
        }
        assert!(fired.is_empty(), "a re-armed deadline fired early");
        w.expire(at(base, 20_990), &mut fired);
        assert!(fired.is_empty(), "fired before the last deadline");
        w.expire(at(base, 21_000 + TICK_MS), &mut fired);
        assert_eq!(fired, vec![1]);
        assert_eq!(w.hints(), 0);
    }

    #[test]
    fn alternating_deadlines_leave_no_hint_older_than_one_lap() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        let mut fired = Vec::new();
        // A request whose head arrives before its body: the I/O deadline
        // (earlier) then the idle one (later), every 5 ms for five laps.
        // Each move files a hint; none outlives one lap of the sweep.
        let step = 5;
        let lap = SLOTS as u64 * TICK_MS;
        let bound = (2 * (lap / step + 1) + 1) as usize;
        w.set(1, at(base, 60_000));
        for ms in (0..5 * lap).step_by(step as usize) {
            w.set(1, at(base, ms + 10_000));
            w.set(1, at(base, ms + 60_000));
            w.expire(at(base, ms), &mut fired);
            assert!(w.hints() <= bound, "{} hints at {ms} ms", w.hints());
        }
        assert!(fired.is_empty(), "a superseded deadline fired");
        let last = 5 * lap - step + 60_000;
        w.expire(at(base, last + 2 * TICK_MS), &mut fired);
        assert_eq!(fired, vec![1]);
        assert_eq!(w.hints(), 0);
    }

    #[test]
    fn rearming_earlier_fires_at_the_earlier_deadline_once() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        w.set(1, at(base, 1_000));
        w.set(1, at(base, 100));
        w.set(1, at(base, 500));
        let mut fired = Vec::new();
        w.expire(at(base, 400), &mut fired);
        assert!(fired.is_empty());
        w.expire(at(base, 500 + TICK_MS), &mut fired);
        assert_eq!(fired, vec![1]);
        w.expire(at(base, 2_000), &mut fired);
        assert_eq!(fired, vec![1], "a stale hint fired the token twice");
        assert_eq!(w.hints(), 0);
    }

    #[test]
    fn distant_deadlines_survive_full_wheel_laps() {
        let base = Instant::now();
        let mut w = TimerWheel::new(base);
        // Far beyond SLOTS * TICK_MS = 8192 ms: needs a second lap.
        w.set(1, at(base, 20_000));
        let mut fired = Vec::new();
        w.expire(at(base, 10_000), &mut fired);
        assert!(fired.is_empty());
        w.expire(at(base, 21_000), &mut fired);
        assert_eq!(fired, vec![1]);
    }
}
