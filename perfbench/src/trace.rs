//! The traced run: the workload's own inputs replayed single-threaded
//! through each layer's public entry points, with a span around every
//! call, plus the counters the runtime, fleet, memory governor, decoder
//! and wire report for the untraced run that preceded it.

use std::collections::HashMap;
use std::time::Instant;

use affect_core::controller::{ControlEvent, SystemController};
use affect_core::policy::VideoPowerMode;
use affect_fleet::QosTier;
use h264::adaptive::options_for_mode;
use h264::decoder::Decoder;

use crate::check::Oracle;
use crate::layers::{feature_kind, pool_rung, FeatureKind, Layers, Rung, RUNGS};
use crate::metrics::{timed_windows, Values};
use crate::run::{Ctx, RunOutput};
use crate::stats::{median, percentile};

/// Span durations, ns, keyed by what was called on which pool window.
struct Spans {
    features: HashMap<(FeatureKind, usize), f64>,
    classify: HashMap<(Rung, usize), f64>,
}

fn span<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64)
}

/// Times every feature call on every pool window, then every rung on the
/// features it consumes. Each call runs once untimed first, so caches
/// and scratch arenas are warm, as in a long-running worker.
fn replay_layers(ctx: &Ctx) -> Spans {
    let mut layers = Layers::new(&ctx.plan.runtime_config());
    let mut spans = Spans {
        features: HashMap::new(),
        classify: HashMap::new(),
    };
    for kind in [FeatureKind::Sequence, FeatureKind::Strip, FeatureKind::Flat] {
        for (i, window) in ctx.voice.windows.iter().enumerate() {
            let features = layers.features(kind, window);
            let (_, ns) = span(|| layers.features(kind, window));
            spans.features.insert((kind, i), ns);
            for &(rung, _) in RUNGS.iter().filter(|(r, _)| feature_kind(r.0) == kind) {
                layers.classify(rung, &features);
                let (_, ns) = span(|| layers.classify(rung, &features));
                spans.classify.insert((rung, i), ns);
            }
        }
    }
    spans
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<_>>()).unwrap_or(0.0)
}

/// The per-layer metrics of a traced run. `e2e` holds the untraced
/// run's end-to-end metrics; `calib` the FP calibration at start and end.
pub fn per_layer(
    ctx: &Ctx,
    out: &RunOutput,
    e2e: &Values,
    oracle: &mut Oracle,
    calib: (f64, f64),
) -> Values {
    let plan = ctx.plan;
    let mut v = Values::new();
    for name in [
        "window_p99_ms",
        "segment_p50_ms",
        "segment_p99_ms",
        "segment_on_time_ratio",
        "decode_capacity_fps",
        "video_energy_ratio",
    ] {
        v.insert(name, e2e.get(name).copied().unwrap_or(0.0));
    }

    // dsp and nn: isolated service per call.
    let spans = replay_layers(ctx);
    for (kind, name) in [
        (FeatureKind::Sequence, "dsp.extract_seq_us"),
        (FeatureKind::Strip, "dsp.extract_strip_us"),
        (FeatureKind::Flat, "dsp.extract_flat_us"),
    ] {
        let us = median_of(
            spans
                .features
                .iter()
                .filter(|(k, _)| k.0 == kind)
                .map(|(_, &ns)| ns / 1e3),
        );
        v.insert(name, us);
    }
    for &(rung, name) in &RUNGS {
        let us = median_of(
            spans
                .classify
                .iter()
                .filter(|(k, _)| k.0 == rung)
                .map(|(_, &ns)| ns / 1e3),
        );
        v.insert(name, us);
    }

    // control: each session's latency-phase decisions replayed through a
    // fresh controller.
    let config = plan.runtime_config();
    let timed = timed_windows(out);
    let mut observe = Vec::with_capacity(timed.len());
    let mut session = usize::MAX;
    let mut controller = SystemController::new(config.policy.clone(), config.smoothing_window);
    for t in &timed {
        if t.session != session {
            session = t.session;
            controller = SystemController::new(config.policy.clone(), config.smoothing_window);
        }
        let pool = out.gen.subs[t.session][t.seq as usize].pool as usize;
        if let Some(emotion) = oracle.emotion(ctx, plan.start_rung(t.session), pool) {
            let (_, ns) = span(|| controller.observe_emotion(emotion));
            observe.push(ns);
        }
    }
    let observe_ns = median(&observe).unwrap_or(0.0);
    v.insert("control.observe_us", observe_ns / 1e3);
    let switches: usize = out
        .logs
        .iter()
        .map(|log| {
            log.lock()
                .events
                .iter()
                .filter(|(_, e)| matches!(e, ControlEvent::VideoMode(_)))
                .count()
        })
        .sum();
    v.insert("control.mode_switches", switches as f64);

    // Per window of the latency phase: isolated service of the calls the
    // runtime made for it, against its measured latency.
    let window_p50_ns = e2e["window_p50_ms"] * 1e6;
    let mut service = Vec::with_capacity(timed.len());
    let mut dsp = Vec::with_capacity(timed.len());
    let mut queue_wait = Vec::with_capacity(timed.len());
    for t in &timed {
        let (family, precision) = plan.start_rung(t.session);
        let pool = out.gen.subs[t.session][t.seq as usize].pool as usize;
        let f = spans.features[&(feature_kind(family), pool)];
        let c = spans.classify[&(pool_rung(family, precision), pool)];
        let total = f + c + observe_ns;
        dsp.push(f);
        service.push(total);
        queue_wait.push(t.latency_ns as f64 - total);
    }
    let traced_p50 = median(&service).unwrap_or(0.0);
    v.insert("trace.overhead_ratio", traced_p50 / window_p50_ns);
    v.insert("rt.queue_wait_ms", median(&queue_wait).unwrap_or(0.0) / 1e6);
    v.insert(
        "split.dsp_share",
        median(&dsp).unwrap_or(0.0) / window_p50_ns,
    );

    // Runtime counters.
    let report = &out.fin.merged;
    v.insert("nn.mean_batch", report.classify.mean_batch());
    v.insert("nn.scratch_reuse_ratio", report.classify.reuse_rate());
    let fw = report.classify.family_windows;
    let total: u64 = fw.iter().sum::<u64>().max(1);
    for (i, name) in [
        "nn.family_share.hdc",
        "nn.family_share.mlp",
        "nn.family_share.cnn",
        "nn.family_share.lstm",
    ]
    .into_iter()
    .enumerate()
    {
        v.insert(name, fw[i] as f64 / total as f64);
    }
    v.insert(
        "rt.submit_us_p99",
        percentile(&out.gen.submit_ns, 990).unwrap_or(0.0) / 1e3,
    );
    v.insert(
        "gen.late_p99_ms",
        percentile(&out.gen.late_ns, 990).unwrap_or(0.0) / 1e6,
    );
    for (stage, name) in [
        ("ingest", "rt.depth_hw.ingest"),
        ("classify", "rt.depth_hw.classify"),
        ("control", "rt.depth_hw.control"),
        ("actuate", "rt.depth_hw.actuate"),
    ] {
        let hw = out
            .fin
            .shards
            .iter()
            .flat_map(|r| r.stages.iter())
            .filter(|st| st.stage == stage)
            .map(|st| st.depth_high_water)
            .max()
            .unwrap_or(0);
        v.insert(name, hw as f64);
    }
    v.insert(
        "rt.dropped_ratio",
        report.total_dropped() as f64 / report.total_produced().max(1) as f64,
    );
    let degradations: u64 = report.sessions.iter().map(|s| s.degradations).sum();
    let recoveries: u64 = report.sessions.iter().map(|s| s.recoveries).sum();
    v.insert("rt.degradations", degradations as f64);
    v.insert("rt.recoveries", recoveries as f64);

    // Fleet admission and sharding (0 without a fleet).
    let admission = out.fin.admission.as_ref();
    for (tier, name) in [
        (QosTier::Critical, "fleet.shed_ratio.critical"),
        (QosTier::Standard, "fleet.shed_ratio.standard"),
        (QosTier::BestEffort, "fleet.shed_ratio.best_effort"),
    ] {
        v.insert(name, admission.map_or(0.0, |a| a.shed_rate(tier)));
    }
    let per_shard: Vec<f64> = out
        .fin
        .shards
        .iter()
        .map(|r| r.total_processed() as f64)
        .collect();
    let skew = match admission {
        Some(_) => {
            let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
            per_shard.iter().copied().fold(0.0, f64::max) / mean
        }
        None => 0.0,
    };
    v.insert("fleet.shard_skew", skew);
    v.insert("mem.peak_bytes", out.mem_peak_bytes as f64);
    v.insert("mem.band_max", f64::from(out.mem_band_max));

    // Decoder and wire (0 without playback).
    video_layers(ctx, out, &service, &mut v);

    v.insert("gen.pool_windows", ctx.voice.len() as f64);
    v.insert("host.fp_calib_ms", calib.0);
    v.insert("host.fp_calib_end_ms", calib.1);
    v
}

/// Per-mode metric names, in [`VideoPowerMode::ALL`] order.
const DECODE_MS: [&str; 4] = [
    "h264.segment_decode_ms.standard",
    "h264.segment_decode_ms.nal_deletion",
    "h264.segment_decode_ms.deblock_off",
    "h264.segment_decode_ms.combined",
];
const MODE_SHARE: [&str; 4] = [
    "h264.mode_share.standard",
    "h264.mode_share.nal_deletion",
    "h264.mode_share.deblock_off",
    "h264.mode_share.combined",
];

fn video_layers(ctx: &Ctx, out: &RunOutput, window_service: &[f64], v: &mut Values) {
    let measured: Vec<_> = out.segments.iter().filter(|r| r.measured).collect();
    let Some(pool) = ctx.segments else {
        for name in DECODE_MS.into_iter().chain(MODE_SHARE).chain([
            "h264.mb_per_s",
            "h264.macroblocks",
            "h264.deblock_filtered",
            "h264.nal_deleted",
            "wire.mb_s",
            "wire.failures",
            "split.h264_share",
        ]) {
            v.insert(name, 0.0);
        }
        return;
    };
    // Isolated decodes of every pool segment in every mode.
    let (mut mbs, mut seconds) = (0u64, 0.0f64);
    for (i, mode) in VideoPowerMode::ALL.into_iter().enumerate() {
        let mut times = Vec::new();
        for segment in &pool.segments {
            for _ in 0..3 {
                let mut decoder = Decoder::new(options_for_mode(mode));
                let (decoded, ns) = span(|| decoder.decode(&segment.bytes));
                let decoded = decoded.expect("pool segments decode");
                mbs += decoded.activity.macroblocks;
                seconds += ns / 1e9;
                times.push(ns / 1e6);
            }
        }
        v.insert(DECODE_MS[i], median(&times).unwrap_or(0.0));
        let share = measured.iter().filter(|r| r.mode == mode).count();
        v.insert(MODE_SHARE[i], share as f64 / measured.len().max(1) as f64);
    }
    v.insert("h264.mb_per_s", mbs as f64 / seconds);
    v.insert(
        "h264.macroblocks",
        measured.iter().map(|r| r.activity.macroblocks).sum::<u64>() as f64,
    );
    v.insert(
        "h264.deblock_filtered",
        measured
            .iter()
            .map(|r| r.activity.deblock_filtered)
            .sum::<u64>() as f64,
    );
    v.insert(
        "h264.nal_deleted",
        measured.iter().map(|r| r.deleted as u64).sum::<u64>() as f64,
    );
    let decode_ns: f64 = measured.iter().map(|r| r.decode_ns as f64).sum();
    let wire_bytes: u64 = measured.iter().map(|r| r.wire_bytes).sum();
    v.insert("wire.mb_s", wire_bytes as f64 / 1e6 / (decode_ns / 1e9));
    v.insert(
        "wire.failures",
        out.segments.iter().filter(|r| r.hash.is_none()).count() as f64,
    );
    let busy_windows: f64 = window_service.iter().sum();
    v.insert("split.h264_share", decode_ns / (decode_ns + busy_windows));
}
