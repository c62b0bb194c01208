//! One untraced run of a workload: repeated set-up, an open-loop warm-up
//! and latency phase at the workload's fixed rate, a capacity phase with a
//! standing backlog and, for playback, paced segment decode beside the
//! affect loop plus an unpaced decode-capacity phase.

use std::sync::Arc;
use std::time::Duration;

use affect_core::policy::VideoPowerMode;
use affect_rt::{WireConfig, WireSession};
use h264::adaptive::ModeSwitchDriver;
use h264::decoder::Activity;

use crate::inputs::{hash_frames, SegmentPool, VoicePool};
use crate::plan::{Final, Kind, Live, Plan, SEGMENT_POOL, SETUPS, TIERS};
use crate::probe::{Clock, SessionLog};

const SECOND: u64 = 1_000_000_000;
/// How often the generator samples memory and runs the fleet governor.
const HOUSEKEEPING_NS: u64 = 100_000_000;
/// The simulated transport MTU of the playback wire.
const MTU: usize = 1500;

/// Which part of the run a window belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The first window of a set-up.
    Setup,
    /// Open-loop windows excluded from latency.
    Warmup,
    /// Open-loop windows the latency metrics are taken over.
    Latency,
    /// Backlog-driven windows of the capacity phase.
    Capacity,
}

/// One produced window: when it was due and what it carried.
#[derive(Debug, Clone, Copy)]
pub struct Sub {
    /// Due time, ns on the benchmark clock.
    pub due: u64,
    /// Pool index of its samples.
    pub pool: u32,
    /// Phase it was offered in.
    pub phase: Phase,
}

/// The generator's ledger.
pub struct Gen {
    /// Per session, indexed by runtime sequence number.
    pub subs: Vec<Vec<Sub>>,
    next_j: Vec<u64>,
    /// Windows offered per phase (produced or not).
    pub offered: [u64; 4],
    /// Offers whose submit returned `false`, per phase.
    pub refused: [u64; 4],
    /// Windows offered per QoS tier index (fleet ledger check).
    pub offered_by_tier: [u64; 3],
    /// Windows produced per shard.
    pub produced_by_shard: Vec<u64>,
    /// Latency phase: how late the generator submitted, ns.
    pub late_ns: Vec<f64>,
    /// Latency phase: time spent inside `submit`, ns.
    pub submit_ns: Vec<f64>,
}

impl Gen {
    fn new(sessions: usize, shards: usize) -> Self {
        Self {
            subs: vec![Vec::new(); sessions],
            next_j: vec![0; sessions],
            offered: [0; 4],
            refused: [0; 4],
            offered_by_tier: [0; 3],
            produced_by_shard: vec![0; shards],
            late_ns: Vec::new(),
            submit_ns: Vec::new(),
        }
    }

    /// The pool index session `s` offers next.
    fn next_pool(&self, ctx: &Ctx, s: usize) -> usize {
        ctx.plan
            .pool_index(ctx.seed, s, self.next_j[s], ctx.voice.len())
    }

    /// Offers session `s`'s next window, due at `due`.
    fn offer(&mut self, ctx: &Ctx, live: &Live, s: usize, due: u64, phase: Phase) {
        let pool = self.next_pool(ctx, s);
        let window = ctx.voice.windows[pool].clone();
        if phase != Phase::Capacity {
            ctx.clock.sleep_until(due);
        }
        let t0 = ctx.clock.now();
        let offer = live.submit(s, window);
        let t1 = ctx.clock.now();
        self.next_j[s] += 1;
        self.offered[phase as usize] += 1;
        if ctx.plan.kind == Kind::Fleet {
            self.offered_by_tier[TIERS[s % 3].index()] += 1;
        }
        if !offer.accepted {
            self.refused[phase as usize] += 1;
        }
        if offer.produced {
            let due = if phase == Phase::Capacity { t0 } else { due };
            self.subs[s].push(Sub {
                due,
                pool: pool as u32,
                phase,
            });
            self.produced_by_shard[live.shard_of[s]] += 1;
        }
        if phase == Phase::Latency {
            self.late_ns.push(t0.saturating_sub(due) as f64);
            self.submit_ns.push((t1 - t0) as f64);
        }
    }
}

/// Everything a run needs that is fixed before the clock starts.
pub struct Ctx<'a> {
    /// The workload.
    pub plan: &'a Plan,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Cores.
    pub nproc: usize,
    /// Voice windows.
    pub voice: &'a VoicePool,
    /// Playback segments (playback only).
    pub segments: Option<&'a SegmentPool>,
    /// Time base.
    pub clock: Clock,
}

/// One decoded playback segment.
#[derive(Debug, Clone)]
pub struct SegRecord {
    /// Segment pool index.
    pub pool: usize,
    /// Mode it decoded under.
    pub mode: VideoPowerMode,
    /// Latency from due to decoded, ns.
    pub latency_ns: u64,
    /// Decode service time, ns.
    pub decode_ns: u64,
    /// `true` when due inside the latency phase.
    pub measured: bool,
    /// Frame hash, or `None` when the wire ingest failed.
    pub hash: Option<u64>,
    /// Decoder activity.
    pub activity: Activity,
    /// NAL units deleted.
    pub deleted: usize,
    /// Bytes pushed down the wire.
    pub wire_bytes: u64,
}

/// The result of one untraced run.
pub struct RunOutput {
    /// `setup_s` of every repetition.
    pub setups_s: Vec<f64>,
    /// Ledgers of the discarded set-ups balanced.
    pub setups_accounted: bool,
    /// Generator ledger of the measured system.
    pub gen: Gen,
    /// Actuator logs of the measured system.
    pub logs: Vec<Arc<SessionLog>>,
    /// Final reports.
    pub fin: Final,
    /// Sustained completions/s with a standing backlog.
    pub capacity_wps: f64,
    /// Peak bytes charged to the memory budgets (sampled).
    pub mem_peak_bytes: u64,
    /// Worst pressure band seen.
    pub mem_band_max: u8,
    /// Playback segments, set-up decodes included.
    pub segments: Vec<SegRecord>,
    /// Playback decode capacity, frames/s.
    pub decode_fps: Option<f64>,
}

struct MemWatch {
    peak: u64,
    band: u8,
    last: u64,
}

impl MemWatch {
    fn tick(&mut self, live: &Live, now: u64, force: bool) {
        if !force && now < self.last + HOUSEKEEPING_NS {
            return;
        }
        self.last = now;
        live.govern();
        let budgets = live.budgets();
        self.peak = self
            .peak
            .max(budgets.iter().map(|b| b.used_bytes()).sum::<u64>());
        self.band = budgets
            .iter()
            .map(|b| b.band() as u8)
            .fold(self.band, u8::max);
    }
}

/// The mode segment decode uses for viewer `v`'s window `seq`: the one in
/// force once that window's events are applied, independent of timing.
fn settled_mode(live: &Live, v: usize, seq: u64) -> VideoPowerMode {
    loop {
        if let Some(mode) = live.logs[v].mode_after(seq, false) {
            return mode;
        }
        if live.accounted(v) > seq {
            return live.logs[v]
                .mode_after(seq, true)
                .expect("settled windows always have a mode");
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn wire_for(live: &Live) -> WireSession {
    WireSession::new(WireConfig {
        chunk_bytes: MTU,
        ..WireConfig::default()
    })
    .with_memory_budget(Arc::clone(live.budgets()[0]))
}

/// Streams one segment through `wire` under `mode` and records it.
fn decode_segment(
    wire: &mut WireSession,
    driver: &mut ModeSwitchDriver,
    pool: &SegmentPool,
    index: usize,
    mode: VideoPowerMode,
    due: u64,
    clock: Clock,
) -> (SegRecord, usize) {
    driver.set_mode(mode);
    let start = clock.now();
    let outcome = wire.ingest_segment(driver, &pool.segments[index].bytes, |_, _| {});
    let done = clock.now();
    let mut record = SegRecord {
        pool: index,
        mode,
        latency_ns: done.saturating_sub(due),
        decode_ns: done - start,
        measured: false,
        hash: None,
        activity: Activity::default(),
        deleted: 0,
        wire_bytes: 0,
    };
    let mut frames = 0;
    if let Ok((out, report)) = outcome {
        frames = out.frames.len();
        record.hash = Some(hash_frames(&out.frames));
        record.activity = out.activity;
        record.deleted = out.selection.deleted_units;
        record.wire_bytes = report.wire_bytes;
    }
    (record, frames)
}

/// The paced playback thread: segment `i` of viewer `v` is due one second
/// (plus half a generator slot) after that viewer's `i`-th open-loop
/// window, its last chunk having just arrived on the wire. It decodes
/// under the mode in force after that window.
fn play(
    ctx: &Ctx,
    live: &Live,
    seq_base: &[u64],
    start: u64,
    lat_start: u64,
    lat_end: u64,
) -> Vec<SegRecord> {
    let pool = ctx.segments.expect("playback has segments");
    let viewers = ctx.plan.sessions;
    let period = SECOND / viewers as u64;
    let mut wires: Vec<WireSession> = (0..viewers).map(|_| wire_for(live)).collect();
    let mut drivers: Vec<ModeSwitchDriver> = (0..viewers)
        .map(|_| ModeSwitchDriver::new(VideoPowerMode::Standard))
        .collect();
    let mut out = Vec::new();
    for i in 0u64.. {
        for v in 0..viewers {
            let due = start + (i + 1) * SECOND + v as u64 * period + period / 2;
            if due >= lat_end {
                return out;
            }
            ctx.clock.sleep_until(due);
            let seq = seq_base[v] + i;
            let mode = settled_mode(live, v, seq);
            let index = (v + i as usize) % SEGMENT_POOL;
            let (mut record, _) = decode_segment(
                &mut wires[v],
                &mut drivers[v],
                pool,
                index,
                mode,
                due,
                ctx.clock,
            );
            record.measured = due >= lat_start;
            out.push(record);
        }
    }
    out
}

/// Interleaved latency and capacity rounds (wearer and fleet runs): the
/// host's FP throughput drifts on a scale of seconds, and capacity has to
/// sample that drift as evenly as the latency phase does.
const ROUNDS: u64 = 8;
/// Consecutive capacity slices at the end of a playback run.
const SLICES: u64 = 4;

/// The capacity phase: a standing backlog of `plan.backlog` windows in
/// flight per shard, sessions taken round-robin within each shard.
struct Backlog {
    by_shard: Vec<Vec<usize>>,
    cursor: Vec<usize>,
    /// Completions/s of each slice held so far.
    rates: Vec<f64>,
}

impl Backlog {
    fn new(live: &Live, plan: &Plan) -> Self {
        let shards = live.done.shards();
        Self {
            by_shard: (0..shards)
                .map(|sh| {
                    (0..plan.sessions)
                        .filter(|&s| live.shard_of[s] == sh)
                        .collect()
                })
                .collect(),
            cursor: vec![0; shards],
            rates: Vec::new(),
        }
    }

    /// Holds the backlog for `duration`, counting completions once the
    /// first tenth has let it form.
    fn hold(&mut self, ctx: &Ctx, live: &Live, gen: &mut Gen, mem: &mut MemWatch, duration: u64) {
        let backlog = ctx.plan.backlog;
        let begin = ctx.clock.now();
        let count_from = begin + duration / 10;
        let end = begin + duration;
        let mut first: Option<(u64, u64)> = None;
        loop {
            let now = ctx.clock.now();
            if first.is_none() && now >= count_from {
                first = Some((now, live.done.total()));
            }
            if now >= end {
                break;
            }
            let mut fed = false;
            for (sh, sessions) in self.by_shard.iter().enumerate() {
                if sessions.is_empty() {
                    continue;
                }
                for _ in 0..backlog {
                    if gen.produced_by_shard[sh] - live.done.shard(sh) >= backlog {
                        break;
                    }
                    let s = sessions[self.cursor[sh]];
                    self.cursor[sh] = (self.cursor[sh] + 1) % sessions.len();
                    gen.offer(ctx, live, s, 0, Phase::Capacity);
                    fed = true;
                }
            }
            if !fed {
                std::thread::sleep(Duration::from_micros(100));
            }
            mem.tick(live, now, false);
        }
        let (t_a, c_a) = first.expect("set on the last pass at the latest");
        let seconds = (ctx.clock.now() - t_a) as f64 / SECOND as f64;
        self.rates.push((live.done.total() - c_a) as f64 / seconds);
    }
}

/// Runs one workload once, untraced.
pub fn run(ctx: &Ctx) -> RunOutput {
    let plan = ctx.plan;
    let clock = ctx.clock;
    let shards = plan.shards(ctx.nproc);
    let mut segments = Vec::new();

    // Set-up, repeated: builder → first window actuated (→ first segment
    // decoded). Every set-up but the last is drained and discarded.
    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut setups_accounted = true;
    let (live, mut gen) = loop {
        let mut gen = Gen::new(plan.sessions, shards);
        let t0 = clock.now();
        let live = Live::start(plan, clock, ctx.nproc);
        gen.offer(ctx, &live, 0, t0, Phase::Setup);
        while live.done.total() == 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
        if let Some(pool) = ctx.segments {
            let mode = settled_mode(&live, 0, 0);
            let mut driver = ModeSwitchDriver::new(VideoPowerMode::Standard);
            let (record, _) =
                decode_segment(&mut wire_for(&live), &mut driver, pool, 0, mode, t0, clock);
            segments.push(record);
        }
        setups_s.push((clock.now() - t0) as f64 / SECOND as f64);
        if setups_s.len() == SETUPS {
            break (live, gen);
        }
        live.wait_idle();
        setups_accounted &= live.shutdown().merged.all_accounted();
    };

    let span = (ctx.seconds * SECOND as f64) as u64;
    // Most of the run is latency: a p99 needs 1 000 windows at a rate far
    // enough below the knee that queueing does not amplify the host's
    // service-time drift. Wearer and fleet runs interleave the capacity
    // phase with the latency phase in ROUNDS rounds, so capacity samples
    // the same stretch of host time as latency; playback keeps one
    // unbroken stream of segments and measures window and then decode
    // capacity at the end, each in SLICES consecutive slices. Capacities
    // are median slices, so a slice the host starved of CPU does not set
    // them.
    let (rounds, slices) = match plan.kind {
        Kind::Playback => (1, SLICES),
        _ => (ROUNDS, 1),
    };
    let warm = span * 3 / 100;
    let latency = span * 87 / 100 / rounds;
    let capacity = match plan.kind {
        Kind::Playback => span * 5 / 100 / slices,
        _ => span * 10 / 100 / rounds,
    };
    let mut mem = MemWatch {
        peak: 0,
        band: 0,
        last: 0,
    };
    let seq_base: Vec<u64> = gen.subs.iter().map(|s| s.len() as u64).collect();
    let mut backlog = Backlog::new(&live, plan);
    let mut k = 0u64;
    for round in 0..rounds {
        let from = clock.now() + 10_000_000;
        let lat_start = if round == 0 { from + warm } else { from };
        let lat_end = lat_start + latency;
        std::thread::scope(|scope| {
            let player = (plan.kind == Kind::Playback)
                .then(|| scope.spawn(|| play(ctx, &live, &seq_base, from, lat_start, lat_end)));
            // Open loop: the k-th window is due `period` after the one
            // before, for session k mod n, so each session offers one
            // window per second.
            let n = plan.sessions as u64;
            let period = SECOND / n;
            for i in 0u64.. {
                let due = from + i * period;
                if due >= lat_end {
                    break;
                }
                let phase = if due < lat_start {
                    Phase::Warmup
                } else {
                    Phase::Latency
                };
                gen.offer(ctx, &live, (k % n) as usize, due, phase);
                k += 1;
                mem.tick(&live, clock.now(), false);
            }
            if let Some(player) = player {
                segments.extend(player.join().expect("playback thread panicked"));
            }
        });
        for _ in 0..slices {
            backlog.hold(ctx, &live, &mut gen, &mut mem, capacity);
        }
        live.wait_idle();
    }
    let capacity_wps = crate::stats::median(&backlog.rates).expect("at least one slice");

    // Decode capacity: the run's own segments, back to back, each under its
    // recorded mode (and hash-checked like the rest).
    let decode_fps = ctx.segments.map(|pool| {
        let list: Vec<(usize, VideoPowerMode)> =
            segments.iter().map(|r| (r.pool, r.mode)).collect();
        let mut wire = wire_for(&live);
        let mut driver = ModeSwitchDriver::new(VideoPowerMode::Standard);
        let mut next = list.iter().cycle();
        let mut rates = Vec::with_capacity(slices as usize);
        for _ in 0..slices {
            let begin = clock.now();
            let mut frames = 0usize;
            while clock.now() < begin + capacity {
                let &(index, mode) = next.next().expect("a cycle never ends");
                let (record, decoded) =
                    decode_segment(&mut wire, &mut driver, pool, index, mode, 0, clock);
                frames += decoded;
                segments.push(record);
            }
            rates.push(frames as f64 / ((clock.now() - begin) as f64 / SECOND as f64));
        }
        crate::stats::median(&rates).expect("at least one slice")
    });

    live.wait_idle();
    mem.tick(&live, clock.now(), true);
    let logs = live.logs.clone();
    let fin = live.shutdown();
    RunOutput {
        setups_s,
        setups_accounted,
        gen,
        logs,
        fin,
        capacity_wps,
        mem_peak_bytes: mem.peak,
        mem_band_max: mem.band,
        segments,
        decode_fps,
    }
}
