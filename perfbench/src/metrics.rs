//! The metric catalogue, the end-to-end metrics of an untraced run, and
//! the result line.

use std::collections::BTreeMap;

use crate::inputs::mode_index;
use crate::run::{Ctx, Phase, RunOutput};
use crate::stats::percentile_sorted;

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[Metric] = &[
    m("window_p50_ms", "ms", "lower"),
    m("on_time_ratio", "ratio", "higher"),
    m("capacity_wps", "windows/s", "higher"),
    m("rung_mean", "rung", "higher"),
    m("peak_rss_mb", "MiB", "lower"),
    m("setup_s", "s", "lower"),
];

/// Per-layer metrics of the traced run. The first six are user-visible
/// but cannot carry a bound: `window_p99_ms` spreads far wider between
/// runs than any bound allows on a host with CPU steal (see README.md),
/// and the playback workload's video metrics exist on no other workload,
/// while every workload reports the same set (absent layers read 0).
pub const PER_LAYER: &[Metric] = &[
    m("window_p99_ms", "ms", "lower"),
    m("segment_p50_ms", "ms", "lower"),
    m("segment_p99_ms", "ms", "lower"),
    m("segment_on_time_ratio", "ratio", "higher"),
    m("decode_capacity_fps", "frames/s", "higher"),
    m("video_energy_ratio", "ratio", "lower"),
    m("dsp.extract_seq_us", "us", "lower"),
    m("dsp.extract_strip_us", "us", "lower"),
    m("dsp.extract_flat_us", "us", "lower"),
    m("nn.classify_us.lstm-f32", "us", "lower"),
    m("nn.classify_us.lstm-i8", "us", "lower"),
    m("nn.classify_us.cnn-f32", "us", "lower"),
    m("nn.classify_us.cnn-i8", "us", "lower"),
    m("nn.classify_us.mlp-f32", "us", "lower"),
    m("nn.classify_us.mlp-i8", "us", "lower"),
    m("nn.classify_us.hdc", "us", "lower"),
    m("nn.mean_batch", "windows", "higher"),
    m("nn.scratch_reuse_ratio", "ratio", "higher"),
    m("nn.family_share.hdc", "ratio", "lower"),
    m("nn.family_share.mlp", "ratio", "lower"),
    m("nn.family_share.cnn", "ratio", "lower"),
    m("nn.family_share.lstm", "ratio", "higher"),
    m("control.observe_us", "us", "lower"),
    m("control.mode_switches", "count", "lower"),
    m("rt.queue_wait_ms", "ms", "lower"),
    m("rt.submit_us_p99", "us", "lower"),
    m("rt.depth_hw.ingest", "windows", "lower"),
    m("rt.depth_hw.classify", "windows", "lower"),
    m("rt.depth_hw.control", "windows", "lower"),
    m("rt.depth_hw.actuate", "windows", "lower"),
    m("rt.dropped_ratio", "ratio", "lower"),
    m("rt.degradations", "count", "lower"),
    m("rt.recoveries", "count", "lower"),
    m("fleet.shed_ratio.critical", "ratio", "lower"),
    m("fleet.shed_ratio.standard", "ratio", "lower"),
    m("fleet.shed_ratio.best_effort", "ratio", "lower"),
    m("fleet.shard_skew", "ratio", "lower"),
    m("mem.peak_bytes", "bytes", "lower"),
    m("mem.band_max", "band", "lower"),
    m("h264.segment_decode_ms.standard", "ms", "lower"),
    m("h264.segment_decode_ms.nal_deletion", "ms", "lower"),
    m("h264.segment_decode_ms.deblock_off", "ms", "lower"),
    m("h264.segment_decode_ms.combined", "ms", "lower"),
    m("h264.mb_per_s", "mb/s", "higher"),
    m("h264.macroblocks", "count", "lower"),
    m("h264.deblock_filtered", "count", "lower"),
    m("h264.nal_deleted", "count", "higher"),
    m("h264.mode_share.standard", "ratio", "lower"),
    m("h264.mode_share.nal_deletion", "ratio", "higher"),
    m("h264.mode_share.deblock_off", "ratio", "higher"),
    m("h264.mode_share.combined", "ratio", "higher"),
    m("wire.mb_s", "MB/s", "higher"),
    m("wire.failures", "count", "lower"),
    m("gen.late_p99_ms", "ms", "lower"),
    m("gen.pool_windows", "windows", "higher"),
    m("trace.overhead_ratio", "ratio", "lower"),
    m("split.dsp_share", "ratio", "lower"),
    m("split.h264_share", "ratio", "lower"),
    m("host.fp_calib_ms", "ms", "lower"),
    m("host.fp_calib_end_ms", "ms", "lower"),
];

/// How many leading [`PER_LAYER`] metrics are user-visible ones, which
/// every untraced run prints too.
pub const USER_VISIBLE: usize = 6;

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// A window that reached the actuator in the latency phase.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Session index.
    pub session: usize,
    /// Runtime sequence number.
    pub seq: u64,
    /// Due → `on_window`, ns.
    pub latency_ns: u64,
}

/// Latency-phase windows that reached the actuator, in session order.
pub fn timed_windows(out: &RunOutput) -> Vec<Timed> {
    let mut timed = Vec::new();
    for (s, log) in out.logs.iter().enumerate() {
        let subs = &out.gen.subs[s];
        for &(seq, t) in &log.lock().seen {
            let sub = subs[seq as usize];
            if sub.phase == Phase::Latency {
                timed.push(Timed {
                    session: s,
                    seq,
                    latency_ns: t.saturating_sub(sub.due),
                });
            }
        }
    }
    timed
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn require(value: Option<f64>, what: &str) -> Result<f64, String> {
    value.ok_or_else(|| format!("too few samples for {what}"))
}

/// The end-to-end metrics of an untraced run, plus the playback
/// workload's video metrics.
pub fn end_to_end(ctx: &Ctx, out: &RunOutput) -> Result<Values, String> {
    let mut v = Values::new();
    let mut lat: Vec<f64> = timed_windows(out)
        .iter()
        .map(|t| t.latency_ns as f64)
        .collect();
    lat.sort_by(f64::total_cmp);
    v.insert(
        "window_p50_ms",
        ms(require(percentile_sorted(&lat, 500), "window p50")?),
    );
    v.insert(
        "window_p90_ms",
        ms(require(percentile_sorted(&lat, 900), "window p90")?),
    );
    v.insert(
        "window_p95_ms",
        ms(require(percentile_sorted(&lat, 950), "window p95")?),
    );
    v.insert(
        "window_p99_ms",
        ms(require(percentile_sorted(&lat, 990), "window p99")?),
    );
    v.insert("window_samples", lat.len() as f64);
    let offered = out.gen.offered[Phase::Latency as usize];
    let on_time = lat.iter().filter(|&&l| l <= 1e9).count();
    v.insert("on_time_ratio", on_time as f64 / offered.max(1) as f64);
    v.insert("capacity_wps", out.capacity_wps);
    let fw = out.fin.merged.classify.family_windows;
    let classified: u64 = fw.iter().sum();
    let rungs: u64 = fw
        .iter()
        .enumerate()
        .map(|(i, &w)| (i as u64 + 1) * w)
        .sum();
    v.insert("rung_mean", rungs as f64 / classified.max(1) as f64);
    v.insert(
        "peak_rss_mb",
        crate::host::peak_rss_mb().ok_or("VmHWM unavailable")?,
    );
    v.insert(
        "setup_s",
        crate::stats::median(&out.setups_s).ok_or("no set-up")?,
    );

    if let Some(pool) = ctx.segments {
        let measured: Vec<_> = out.segments.iter().filter(|r| r.measured).collect();
        let mut seg: Vec<f64> = measured.iter().map(|r| r.latency_ns as f64).collect();
        seg.sort_by(f64::total_cmp);
        v.insert(
            "segment_p50_ms",
            ms(require(percentile_sorted(&seg, 500), "segment p50")?),
        );
        v.insert(
            "segment_p99_ms",
            ms(require(percentile_sorted(&seg, 990), "segment p99")?),
        );
        let on_time = seg.iter().filter(|&&l| l <= 1e9).count();
        v.insert(
            "segment_on_time_ratio",
            on_time as f64 / seg.len().max(1) as f64,
        );
        v.insert(
            "decode_capacity_fps",
            out.decode_fps.expect("playback decodes"),
        );
        let (mut energy, mut standard) = (0.0, 0.0);
        for r in &measured {
            let reference = &pool.segments[r.pool].reference;
            energy += pool.model.energy(&reference[mode_index(r.mode)].activity);
            standard += pool.model.energy(&reference[0].activity);
        }
        v.insert("video_energy_ratio", energy / standard);
    }
    Ok(v)
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of `catalogue` in order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[Metric],
    values: &Values,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(catalogue.len());
    for metric in catalogue {
        let value = *values
            .get(metric.name)
            .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", metric.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "bad metric name {}", metric.name);
            assert!(seen.insert(metric.name), "duplicate metric {}", metric.name);
            assert!(matches!(metric.better, "higher" | "lower"));
            assert!(metric.unit.len() <= 16);
        }
        assert!(!valid_name("window p50"));
        assert!(!valid_name("lat{ms}"));
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let json = include_str!("../../BENCHMARK.json");
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                metric.name, metric.unit, metric.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_has_every_metric_with_its_unit() {
        let values: Values = END_TO_END.iter().map(|m| (m.name, 1.25)).collect();
        let line = result_line(true, 3, 0, END_TO_END, &values).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        let mut missing = values.clone();
        missing.remove("setup_s");
        assert!(result_line(true, 3, 0, END_TO_END, &missing).is_err());
        missing.insert("setup_s", f64::NAN);
        assert!(result_line(true, 3, 0, END_TO_END, &missing).is_err());
    }
}
