//! The benchmark's own actuation endpoint: it timestamps each window as
//! the actuate stage hands it over and records the events that follow.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use affect_core::controller::ControlEvent;
use affect_core::policy::VideoPowerMode;
use affect_rt::Actuator;

/// The benchmark's monotonic time base; every timestamp is nanoseconds
/// since `epoch`.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// A clock whose zero is now.
    pub fn start() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sleeps until `at` (no-op when already past).
    pub fn sleep_until(&self, at: u64) {
        let now = self.now();
        if at > now {
            std::thread::sleep(std::time::Duration::from_nanos(at - now));
        }
    }
}

/// What one session's actuator saw, in actuation order.
#[derive(Debug)]
pub struct Log {
    /// `(seq, t_ns)` for every window handed to `on_window`.
    pub seen: Vec<(u64, u64)>,
    /// The video mode in force when each window of `seen` arrived, i.e.
    /// after every earlier window's events.
    pub mode_before: Vec<VideoPowerMode>,
    /// `(seq, event)` for every event, tagged with its window.
    pub events: Vec<(u64, ControlEvent)>,
    /// The video mode after the latest event.
    pub mode: VideoPowerMode,
}

/// One session's log, shared between its actuator (writer, on the
/// runtime's actuate thread) and the benchmark (reader).
#[derive(Debug)]
pub struct SessionLog(Mutex<Log>);

impl SessionLog {
    fn new() -> Self {
        Self(Mutex::new(Log {
            seen: Vec::new(),
            mode_before: Vec::new(),
            events: Vec::new(),
            mode: VideoPowerMode::Standard,
        }))
    }

    /// Locks the log.
    pub fn lock(&self) -> MutexGuard<'_, Log> {
        self.0.lock().expect("probe log poisoned")
    }

    /// The video mode in force after window `seq`. A later window's
    /// `mode_before` answers exactly; without one, the current mode
    /// answers once the caller knows `seq`'s events were all applied
    /// (`settled`). `None` while that is still open.
    pub fn mode_after(&self, seq: u64, settled: bool) -> Option<VideoPowerMode> {
        let log = self.lock();
        let later = log.seen.partition_point(|&(s, _)| s <= seq);
        match log.mode_before.get(later) {
            Some(&mode) => Some(mode),
            None if settled => Some(log.mode),
            None => None,
        }
    }
}

/// Windows actuated so far, per shard (the capacity phase's backlog and
/// completion count).
#[derive(Debug)]
pub struct Completions(Vec<AtomicU64>);

impl Completions {
    /// Zeroed counters for `shards` shards.
    pub fn new(shards: usize) -> Self {
        Self((0..shards).map(|_| AtomicU64::new(0)).collect())
    }

    /// Number of shards counted.
    pub fn shards(&self) -> usize {
        self.0.len()
    }

    /// Windows actuated on one shard.
    pub fn shard(&self, shard: usize) -> u64 {
        self.0[shard].load(Ordering::Relaxed)
    }

    /// Windows actuated on every shard.
    pub fn total(&self) -> u64 {
        self.0.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// The actuator given to the runtime for one session.
pub struct Probe {
    clock: Clock,
    log: Arc<SessionLog>,
    done: Arc<Completions>,
    shard: usize,
    seq: u64,
}

impl Probe {
    /// A probe for a session on `shard`, plus the handle its log is read
    /// through.
    pub fn new(clock: Clock, done: Arc<Completions>, shard: usize) -> (Self, Arc<SessionLog>) {
        let log = Arc::new(SessionLog::new());
        let probe = Self {
            clock,
            log: Arc::clone(&log),
            done,
            shard,
            seq: 0,
        };
        (probe, log)
    }
}

impl Actuator for Probe {
    fn on_window(&mut self, seq: u64) {
        let t = self.clock.now();
        self.seq = seq;
        {
            let mut log = self.log.lock();
            let mode = log.mode;
            log.seen.push((seq, t));
            log.mode_before.push(mode);
        }
        self.done.0[self.shard].fetch_add(1, Ordering::Relaxed);
    }

    fn actuate(&mut self, event: ControlEvent, _now_nanos: u64) {
        let mut log = self.log.lock();
        if let ControlEvent::VideoMode(mode) = event {
            log.mode = mode;
        }
        log.events.push((self.seq, event));
    }
}
