//! The open-loop generator's schedule and latency accounting, written
//! against a [`Clock`] so the arithmetic is testable without sleeping.
//!
//! Independent users do not wait for each other, so requests are *due* on a
//! fixed schedule (`i / rate`). A connection that is still busy when its
//! next request falls due sends it late; the request's latency is counted
//! from its due time, which charges the stall to every request it delayed,
//! and the lateness itself is reported so a slow generator cannot pass for
//! a slow server.

use std::time::{Duration, Instant};

pub trait Clock {
    /// Time since the phase began.
    fn now(&self) -> Duration;
    /// Blocks until `now() >= t` (returns at once when already past).
    fn sleep_until(&self, t: Duration);
}

#[derive(Debug, Clone, Copy)]
pub struct RealClock {
    origin: Instant,
}

impl RealClock {
    pub fn starting_at(origin: Instant) -> Self {
        RealClock { origin }
    }
}

impl Clock for RealClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        let now = self.now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// Due times of `count` requests at `rate_qps`, evenly spaced from zero.
pub fn due_times(rate_qps: f64, count: usize) -> Vec<Duration> {
    (0..count)
        .map(|i| Duration::from_secs_f64(i as f64 / rate_qps))
        .collect()
}

/// Request indices for connection `conn` of `conns`: round-robin, so every
/// connection sees the same rate and (by the seeded class draw) the same
/// mix.
pub fn assigned(count: usize, conn: usize, conns: usize) -> Vec<usize> {
    (conn..count).step_by(conns.max(1)).collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Index into the phase's request sequence.
    pub index: usize,
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    /// Whether the reply was a complete, correct 200.
    pub ok: bool,
}

impl Sample {
    /// Latency from the due time — what an independent user waited.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// Drives one connection: for each assigned request, wait for its due
/// time, send (blocking until the reply is read), record.
pub fn drive<C: Clock>(
    clock: &C,
    dues: &[Duration],
    mine: &[usize],
    mut send: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    mine.iter()
        .map(|&index| {
            let due = dues[index];
            clock.sleep_until(due);
            let sent = clock.now();
            let ok = send(index);
            Sample {
                index,
                due,
                sent,
                done: clock.now(),
                ok,
            }
        })
        .collect()
}

/// Whether the generator fell further behind as the phase went on: mean
/// lateness of the last third of requests (by due time) exceeds that of the
/// first third by more than `slack_ms`. A stable queue shows no trend; a
/// rate past capacity shows lateness rising with every request.
pub fn lateness_grows(samples: &[Sample], slack_ms: f64) -> bool {
    let mut by_due: Vec<&Sample> = samples.iter().collect();
    by_due.sort_by_key(|s| s.due);
    let third = by_due.len() / 3;
    if third == 0 {
        return false;
    }
    let mean = |part: &[&Sample]| part.iter().map(|s| s.late_ms()).sum::<f64>() / part.len() as f64;
    mean(&by_due[by_due.len() - third..]) - mean(&by_due[..third]) > slack_ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to: `sleep_until` jumps forward,
    /// `advance` models time spent waiting for a reply.
    struct FakeClock(Cell<Duration>);

    impl FakeClock {
        fn advance(&self, by: Duration) {
            self.0.set(self.0.get() + by);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, t: Duration) {
            self.0.set(self.0.get().max(t));
        }
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn schedule_is_evenly_spaced_and_split_round_robin() {
        let dues = due_times(10.0, 5);
        assert_eq!(dues, [ms(0), ms(100), ms(200), ms(300), ms(400)]);
        assert_eq!(assigned(5, 0, 2), [0, 2, 4]);
        assert_eq!(assigned(5, 1, 2), [1, 3]);
        assert_eq!(assigned(3, 0, 1), [0, 1, 2]);
    }

    #[test]
    fn latency_counts_from_the_due_time_and_lateness_is_kept_apart() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let dues = due_times(10.0, 4);
        let service = [ms(50), ms(250), ms(50), ms(50)];
        let samples = drive(&clock, &dues, &[0, 1, 2, 3], |i| {
            clock.advance(service[i]);
            i != 2
        });
        // Request 0: on time, 50 ms.
        assert_eq!((samples[0].late_ms(), samples[0].latency_ms()), (0.0, 50.0));
        // Request 1: due 100, sent 100, slow reply at 350.
        assert_eq!(
            (samples[1].late_ms(), samples[1].latency_ms()),
            (0.0, 250.0)
        );
        // Request 2: due 200 but the connection was busy until 350 — sent
        // 150 ms late; its user waited 200 ms although service took 50.
        assert_eq!(
            (samples[2].late_ms(), samples[2].latency_ms()),
            (150.0, 200.0)
        );
        assert!(!samples[2].ok && samples[3].ok);
        // Request 3: due 300, sent 400, done 450.
        assert_eq!(
            (samples[3].late_ms(), samples[3].latency_ms()),
            (100.0, 150.0)
        );
    }

    #[test]
    fn a_growing_backlog_is_told_from_a_steady_one() {
        let run = |service_ms: u64| {
            let clock = FakeClock(Cell::new(Duration::ZERO));
            let dues = due_times(100.0, 90); // one every 10 ms
            let all: Vec<usize> = (0..90).collect();
            drive(&clock, &dues, &all, |_| {
                clock.advance(ms(service_ms));
                true
            })
        };
        assert!(!lateness_grows(&run(8), 5.0), "8 ms service keeps up");
        assert!(lateness_grows(&run(12), 5.0), "12 ms service falls behind");
        assert!(!lateness_grows(&[], 5.0));
    }
}
