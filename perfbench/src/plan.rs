//! The three workloads and the runtime each drives. Every constant here
//! is part of the benchmark's definition: offered rates are fixed, never
//! derived from the host, so a slower or faster commit sees the same load.

use affect_core::classifier::ClassifierKind;
use affect_core::emotion::Emotion;
use affect_core::pipeline::FeatureConfig;
use affect_fleet::{
    AdmissionConfig, Fleet, FleetBuilder, FleetConfig, FleetSessionId, QosTier, SubmitOutcome,
};
use affect_rt::{
    MemoryBudget, OverflowPolicy, Runtime, RuntimeBuilder, RuntimeConfig, RuntimeReport, SessionId,
    StageConfig,
};
use nn::Precision;
use std::sync::Arc;

use crate::probe::{Clock, Completions, Probe, SessionLog};

/// Which system a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `affect-rt` runtime, 1 s default-config windows.
    Wearer,
    /// An `affect-fleet` across the QoS tiers, int8.
    Fleet,
    /// One runtime whose sessions also watch video.
    Playback,
}

/// A workload's fixed shape.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload name on the command line.
    pub name: &'static str,
    /// System driven.
    pub kind: Kind,
    /// Sessions (wearers, fleet sessions or viewers); each offers one
    /// window per second, so this is also the offered rate in windows/s.
    pub sessions: usize,
    /// Samples per window (16 kHz audio).
    pub window_samples: usize,
    /// Emotions the voice pool covers, in schedule order.
    pub emotions: &'static [Emotion],
    /// Pool windows synthesized per emotion.
    pub per_emotion: u32,
    /// Windows in flight per shard during the capacity phase: enough to
    /// keep every stage busy, below the fleet's shedding thresholds.
    pub backlog: u64,
}

/// The paper's Fig. 6 session, as emotions whose policy modes match its
/// cognitive states: distracted 14 min (Sad → Combined), concentrated
/// 6 min (Happy → NAL deletion), tense 9 min (Angry → Standard), relaxed
/// 11 min (Calm → deblock off). One window stands for one minute.
pub const FIG6: [(Emotion, u64); 4] = [
    (Emotion::Sad, 14),
    (Emotion::Happy, 6),
    (Emotion::Angry, 9),
    (Emotion::Calm, 11),
];

const FIG6_EMOTIONS: [Emotion; 4] = [Emotion::Sad, Emotion::Happy, Emotion::Angry, Emotion::Calm];

/// Segments in the playback pool.
pub const SEGMENT_POOL: usize = 6;

/// Repeated set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 11;

/// Fleet sessions cycle through the tiers in this order.
pub const TIERS: [QosTier; 3] = [QosTier::Critical, QosTier::Standard, QosTier::BestEffort];

impl Plan {
    /// The workload named `name`.
    pub fn named(name: &str) -> Option<Plan> {
        let plan = match name {
            "wearer_1s" => Plan {
                name: "wearer_1s",
                kind: Kind::Wearer,
                sessions: 34,
                window_samples: 16_000,
                emotions: &Emotion::ALL,
                per_emotion: 8,
                backlog: 12,
            },
            "fleet_int8" => Plan {
                name: "fleet_int8",
                kind: Kind::Fleet,
                sessions: 1024,
                window_samples: 1024,
                emotions: &Emotion::ALL,
                per_emotion: 16,
                backlog: 64,
            },
            "playback" => Plan {
                name: "playback",
                kind: Kind::Playback,
                sessions: 48,
                window_samples: 1024,
                emotions: &FIG6_EMOTIONS,
                per_emotion: 16,
                backlog: 24,
            },
            _ => return None,
        };
        Some(plan)
    }

    /// Every workload, in `BENCHMARK.json` order.
    pub fn all() -> Vec<Plan> {
        ["wearer_1s", "fleet_int8", "playback"]
            .into_iter()
            .map(|n| Plan::named(n).expect("listed workload"))
            .collect()
    }

    /// The same workload with `1/factor` of its sessions (at least three,
    /// one per fleet tier), for smoke runs.
    pub fn shrunk(mut self, factor: usize) -> Plan {
        self.sessions = (self.sessions / factor.max(1)).max(3);
        self
    }

    /// The runtime configuration (the fleet's per-shard template).
    pub fn runtime_config(&self) -> RuntimeConfig {
        let reduced = FeatureConfig {
            frame_len: 256,
            hop: 128,
            n_mfcc: 8,
            n_mels: 20,
            ..FeatureConfig::default()
        };
        match self.kind {
            // The paper defaults: 1 s windows, default features, LSTM-f32,
            // governor off.
            Kind::Wearer => RuntimeConfig {
                workers: 1,
                ..RuntimeConfig::default()
            },
            Kind::Fleet => RuntimeConfig {
                feature: reduced,
                window_samples: self.window_samples,
                workers: 1,
                precision: Precision::Int8,
                // Deep enough that the open-loop rate never reaches the
                // best-effort shedding fill (75 %).
                ingest: StageConfig::new(256, OverflowPolicy::Block),
                memory_budget_bytes: GREEN_BUDGET,
                ..RuntimeConfig::default()
            },
            // Viewers start on the HDC floor, the rung a phone that is
            // also decoding video would run. With the runtime's untrained
            // models it is also the rung whose decisions vary across the
            // Fig. 6 emotions, so the decoder sees a mode mix.
            Kind::Playback => RuntimeConfig {
                feature: reduced,
                initial_family: ClassifierKind::Hdc,
                window_samples: self.window_samples,
                workers: 1,
                memory_budget_bytes: GREEN_BUDGET,
                ..RuntimeConfig::default()
            },
        }
    }

    /// Shards: one per core for the fleet, one runtime otherwise.
    pub fn shards(&self, nproc: usize) -> usize {
        match self.kind {
            Kind::Fleet => nproc.max(1),
            _ => 1,
        }
    }

    /// The family and precision a session starts in.
    pub fn start_rung(&self, session: usize) -> (ClassifierKind, Precision) {
        let config = self.runtime_config();
        match self.kind {
            Kind::Fleet => (TIERS[session % 3].initial_family(), config.precision),
            _ => (config.initial_family, config.precision),
        }
    }

    /// Pool index of session `s`'s `j`-th offered window. Playback
    /// viewers follow the Fig. 6 emotion order from a per-viewer offset;
    /// other sessions walk the pool from a seeded offset.
    pub fn pool_index(&self, seed: u64, s: usize, j: u64, pool_len: usize) -> usize {
        let offset = crate::inputs::splitmix(seed ^ (s as u64).wrapping_mul(0xA24B_AED4)) as usize;
        match self.kind {
            Kind::Playback => {
                let cycle: u64 = FIG6.iter().map(|&(_, n)| n).sum();
                let mut at = (j + offset as u64) % cycle;
                let mut block = 0;
                for (i, &(_, n)) in FIG6.iter().enumerate() {
                    if at < n {
                        block = i;
                        break;
                    }
                    at -= n;
                }
                let per = self.per_emotion as usize;
                block * per + (offset / 7 + j as usize) % per
            }
            _ => (offset + j as usize) % pool_len,
        }
    }
}

/// A budget far above what the runtime charges, so the governor runs but
/// its band stays Green.
const GREEN_BUDGET: u64 = 1 << 30;

/// The live system under test plus the benchmark's view of it.
pub struct Live {
    system: System,
    /// Per-session actuator logs.
    pub logs: Vec<Arc<SessionLog>>,
    /// Per-shard completion counters.
    pub done: Arc<Completions>,
    /// Shard of each session.
    pub shard_of: Vec<usize>,
}

enum System {
    Runtime(Runtime, Vec<SessionId>),
    Fleet(Fleet, Vec<FleetSessionId>),
}

/// What the system made of one offered window.
#[derive(Debug, Clone, Copy)]
pub struct Offer {
    /// The window took a runtime sequence number (it was produced).
    pub produced: bool,
    /// The submit call returned success; `false` is a miss.
    pub accepted: bool,
}

/// A finished system's reports.
pub struct Final {
    /// All sessions, indexed by the benchmark's session index.
    pub merged: RuntimeReport,
    /// One report per started shard.
    pub shards: Vec<RuntimeReport>,
    /// The fleet's admission ledger, for the fleet workload.
    pub admission: Option<affect_fleet::AdmissionReport>,
}

impl Live {
    /// Builds and starts the system: the span `setup_s` begins with.
    pub fn start(plan: &Plan, clock: Clock, nproc: usize) -> Live {
        let shards = plan.shards(nproc);
        let done = Arc::new(Completions::new(shards));
        let mut logs = Vec::with_capacity(plan.sessions);
        let mut shard_of = Vec::with_capacity(plan.sessions);
        let system = match plan.kind {
            Kind::Fleet => {
                // Room for every session on one shard, above the reserves.
                let defaults = AdmissionConfig::default();
                let mut builder = FleetBuilder::new(FleetConfig {
                    shards,
                    replicas: 64,
                    runtime: plan.runtime_config(),
                    admission: AdmissionConfig {
                        max_sessions_per_shard: plan.sessions
                            + defaults.critical_reserve
                            + defaults.standard_reserve,
                        ..defaults
                    },
                })
                .expect("valid fleet config");
                let mut ids = Vec::with_capacity(plan.sessions);
                for s in 0..plan.sessions {
                    let key = s as u64;
                    let shard = builder.shard_of(key).index();
                    let (probe, log) = Probe::new(clock, Arc::clone(&done), shard);
                    let id = builder
                        .add_session(key, TIERS[s % 3], Box::new(probe))
                        .expect("admission sized for every session");
                    ids.push(id);
                    logs.push(log);
                    shard_of.push(shard);
                }
                System::Fleet(builder.start().expect("fleet starts"), ids)
            }
            _ => {
                let mut builder =
                    RuntimeBuilder::new(plan.runtime_config()).expect("valid runtime config");
                let mut ids = Vec::with_capacity(plan.sessions);
                for _ in 0..plan.sessions {
                    let (probe, log) = Probe::new(clock, Arc::clone(&done), 0);
                    ids.push(builder.add_session(Box::new(probe)));
                    logs.push(log);
                    shard_of.push(0);
                }
                System::Runtime(builder.start().expect("runtime starts"), ids)
            }
        };
        Live {
            system,
            logs,
            done,
            shard_of,
        }
    }

    /// Offers one window for session `s`.
    pub fn submit(&self, s: usize, window: Vec<f32>) -> Offer {
        match &self.system {
            System::Runtime(rt, ids) => Offer {
                produced: true,
                accepted: rt.submit(ids[s], window),
            },
            System::Fleet(fleet, ids) => {
                let submitted = fleet.submit(ids[s], window) == SubmitOutcome::Submitted;
                Offer {
                    produced: submitted,
                    accepted: submitted,
                }
            }
        }
    }

    /// Windows of session `s` fully handled (actuated or dropped).
    pub fn accounted(&self, s: usize) -> u64 {
        match &self.system {
            System::Runtime(rt, _) => {
                let r = &rt.report().sessions[s];
                r.processed + r.dropped
            }
            System::Fleet(..) => unreachable!("only playback asks, and it runs one runtime"),
        }
    }

    /// Each started shard's memory budget.
    pub fn budgets(&self) -> Vec<&Arc<MemoryBudget>> {
        match &self.system {
            System::Runtime(rt, _) => vec![rt.memory_budget()],
            System::Fleet(fleet, _) => (0..fleet.shard_count())
                .filter_map(|i| fleet.shard_budget(i))
                .collect(),
        }
    }

    /// One pass of the fleet's eviction governor (no-op for a runtime).
    pub fn govern(&self) {
        if let System::Fleet(fleet, _) = &self.system {
            fleet.enforce_pressure();
        }
    }

    /// Blocks until every produced window is accounted.
    pub fn wait_idle(&self) {
        match &self.system {
            System::Runtime(rt, _) => rt.wait_idle(),
            System::Fleet(fleet, _) => fleet.wait_idle(),
        }
    }

    /// Drains, joins every worker and returns the reports.
    pub fn shutdown(self) -> Final {
        match self.system {
            System::Runtime(rt, _) => {
                let report = rt.shutdown().report;
                Final {
                    shards: vec![report.clone()],
                    merged: report,
                    admission: None,
                }
            }
            System::Fleet(fleet, _) => {
                let report = fleet.shutdown();
                let mut merged = report.merged;
                merged.sessions.sort_by_key(|s| s.session);
                Final {
                    merged,
                    shards: report.shards.into_iter().map(|(_, r)| r).collect(),
                    admission: Some(report.admission),
                }
            }
        }
    }
}
