//! Load generators: a closed loop (each client sends its next request
//! when the previous one returns) and an open loop (requests are due on
//! a seeded Poisson schedule, whether or not earlier ones returned).

use crate::report::Report;
use crate::stats::Samples;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seu_metasearch::CacheTier;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What one generator step did: a read or a write, with its latency.
#[derive(Debug, Default)]
pub struct Op {
    pub read_ms: Option<f64>,
    pub write_ms: Option<f64>,
    pub failed: bool,
    pub mismatch: bool,
    pub tier: Option<CacheTier>,
}

#[derive(Debug, Default)]
pub struct Stream {
    /// Read latency, ms.
    pub reads: Samples,
    /// Write latency, ms.
    pub writes: Samples,
    /// How late each request was issued, ms: behind its due time (open
    /// loop) or after the previous reply on its client (closed loop).
    pub lateness: Samples,
    /// Lateness of the first and the last quarter of the schedule (open
    /// loop only), to see whether a backlog grew.
    pub lateness_head: Samples,
    pub lateness_tail: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    /// Reads served from the analysis, plan and results cache tiers.
    pub tiers: [u64; 3],
    pub elapsed_s: f64,
    /// Stream positions handed out (closed loop): the next unused one.
    pub issued: usize,
}

impl Stream {
    fn record(&mut self, op: Op) {
        if let Some(ms) = op.read_ms {
            self.reads.push(ms);
            self.attempted += 1;
        }
        if let Some(ms) = op.write_ms {
            self.writes.push(ms);
        }
        self.failed += u64::from(op.failed || op.mismatch);
        self.mismatches += u64::from(op.mismatch);
        match op.tier {
            Some(CacheTier::Analysis) => self.tiers[0] += 1,
            Some(CacheTier::Plan) => self.tiers[1] += 1,
            Some(CacheTier::Results) => self.tiers[2] += 1,
            None => {}
        }
    }

    /// Pools another stream's samples and counts into this one.
    pub fn merge(&mut self, other: Stream) {
        self.elapsed_s += other.elapsed_s;
        self.issued += other.issued;
        self.reads.extend(&other.reads);
        self.writes.extend(&other.writes);
        self.lateness.extend(&other.lateness);
        self.lateness_head.extend(&other.lateness_head);
        self.lateness_tail.extend(&other.lateness_tail);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        for (a, b) in self.tiers.iter_mut().zip(other.tiers) {
            *a += b;
        }
    }

    /// Completed reads per second.
    pub fn qps(&self) -> f64 {
        crate::stats::ratio(self.reads.len() as f64, self.elapsed_s)
    }

    /// Whether lateness rose over the run: the last quarter of the
    /// schedule was issued later than the first by more than `slack_ms`.
    pub fn backlog_grew(&self, slack_ms: f64) -> bool {
        self.lateness_tail.p50() - self.lateness_head.p50() > slack_ms
    }

    pub fn count_into(&self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
        report.mismatches += self.mismatches;
    }
}

/// Sub-windows of a closed-loop measurement. A run reports the median
/// over them of each one's throughput and latency percentiles, so a
/// stall on the host that covers less than half of the window moves the
/// run's figures little.
pub const SEGMENTS: usize = 10;

/// Runs the closed loop for `window` as `SEGMENTS` consecutive
/// sub-windows; `step(offset)` makes the step function for stream
/// positions from `offset`, and each sub-window starts where the last
/// one stopped.
pub fn closed_loop_segments<S, F>(
    clients: usize,
    window: Duration,
    offset: usize,
    step: S,
) -> Vec<Stream>
where
    S: Fn(usize) -> F,
    F: Fn(usize) -> Option<Op> + Sync,
{
    let mut next = offset;
    (0..SEGMENTS)
        .map(|_| {
            let s = closed_loop(clients, window / SEGMENTS as u32, step(next));
            next += s.issued;
            s
        })
        .collect()
}

/// Adds `qps`, `p50_ms` and `p99_ms` of a segmented run (medians over
/// its segments) and its counts; returns the segments pooled.
pub fn report_segments(segments: Vec<Stream>, report: &mut Report) -> Stream {
    let (mut qps, mut p50, mut p99) = (Samples::new(), Samples::new(), Samples::new());
    let mut total = Stream::default();
    for s in segments {
        qps.push(s.qps());
        p50.push(s.reads.p50());
        p99.push(s.reads.p99());
        total.merge(s);
    }
    let n = Some(total.reads.len());
    report.add_counted("qps", qps.p50(), "req/s", n);
    report.add_counted("p50_ms", p50.p50(), "ms", n);
    report.add_counted("p99_ms", p99.p50(), "ms", n);
    total.count_into(report);
    total
}

/// Runs `clients` closed-loop clients for `window`. `step(n)` performs
/// the `n`-th request of the stream (numbered across clients) and
/// returns `None` when the input stream is exhausted.
pub fn closed_loop<F>(clients: usize, window: Duration, step: F) -> Stream
where
    F: Fn(usize) -> Option<Op> + Sync,
{
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + window;
    let mut total = Stream::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let (next, step) = (&next, &step);
                scope.spawn(move || {
                    let mut mine = Stream::default();
                    let mut last_done = Instant::now();
                    while Instant::now() < deadline {
                        let issued = Instant::now();
                        mine.lateness.push((issued - last_done).as_secs_f64() * 1e3);
                        let Some(op) = step(next.fetch_add(1, Ordering::Relaxed)) else {
                            break;
                        };
                        mine.record(op);
                        last_done = Instant::now();
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("closed-loop client panicked"));
        }
    });
    total.elapsed_s = start.elapsed().as_secs_f64();
    total.issued = next.load(Ordering::Relaxed);
    total
}

/// Due times of a Poisson arrival process at `rate` per second over
/// `window`, as offsets from its start.
pub fn poisson_schedule(seed: u64, rate: f64, window: Duration) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut due = Vec::new();
    loop {
        let u: f64 = rng.gen::<f64>();
        t += -(1.0 - u).ln() / rate;
        if t >= window.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// Sends the requests of `schedule` from `senders` threads, each request
/// at its due time or as soon as a sender is free after it. `step(n)`
/// performs request `n` and reports its outcome; its latency is counted
/// from the due time, so a stall also delays every request queued
/// behind it.
pub fn open_loop<F>(senders: usize, schedule: &[Duration], step: F) -> Stream
where
    F: Fn(usize) -> Op + Sync,
{
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let quarter = schedule.len() / 4;
    let mut total = Stream::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|_| {
                let (next, step) = (&next, &step);
                scope.spawn(move || {
                    let mut mine = Stream::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&offset) = schedule.get(i) else {
                            break;
                        };
                        let due = start + offset;
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let late_ms = due.elapsed().as_secs_f64() * 1e3;
                        mine.lateness.push(late_ms);
                        if i < quarter {
                            mine.lateness_head.push(late_ms);
                        } else if i >= schedule.len() - quarter {
                            mine.lateness_tail.push(late_ms);
                        }
                        let mut op = step(i);
                        // Latency from the due time, not the send time; a
                        // failed request misses the latency limit.
                        let ms = due.elapsed().as_secs_f64() * 1e3;
                        op.read_ms = Some(if op.failed {
                            ms.max(2.0 * crate::LIMIT_MS)
                        } else {
                            ms
                        });
                        mine.record(op);
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("open-loop sender panicked"));
        }
    });
    total.elapsed_s = start.elapsed().as_secs_f64();
    total
}
