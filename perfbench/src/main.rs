//! `perfbench`: the repository's benchmark. It drives the real
//! `affect-rt` / `affect-fleet` runtime on the system clock from a
//! single-threaded open-loop generator, times every window from when it
//! was due to when the benchmark's own actuator sees it, checks every
//! output, and prints each metric with its unit. The last line of
//! standard output is the JSON result.
//!
//! ```text
//! perfbench --workload <wearer_1s|fleet_int8|playback> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke [--seed <n>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload, then replays its inputs through each layer with spans and
//! prints the per-layer metrics. `--smoke` runs every workload briefly at
//! reduced size with every output check on. See `README.md`.

mod check;
mod host;
mod inputs;
mod layers;
mod metrics;
mod plan;
mod probe;
mod run;
mod stats;
mod trace;

use std::process::ExitCode;

use check::{check, Oracle, Verdict};
use inputs::{SegmentPool, VoicePool};
use metrics::{end_to_end, result_line, END_TO_END, PER_LAYER, USER_VISIBLE};
use plan::{Kind, Plan, SEGMENT_POOL};
use probe::Clock;
use run::{run, Ctx, RunOutput};

const USAGE: &str = "usage: perfbench --workload <wearer_1s|fleet_int8|playback> --seed <n> \
                     --seconds <s> --trace <0|1>\n       perfbench --smoke [--seed <n>]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 36.0,
        trace: false,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad)?;
                if !(parsed.seconds >= 1.0 && parsed.seconds <= 600.0) {
                    return Err(format!("--seconds must lie in [1, 600], got {value}"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !parsed.smoke && parsed.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// Inputs, run and checks of one workload.
struct Measured {
    out: RunOutput,
    verdict: Verdict,
    attempted: u64,
}

fn measure<'a>(
    plan: &'a Plan,
    seed: u64,
    seconds: f64,
    nproc: usize,
    voice: &'a VoicePool,
    segments: Option<&'a SegmentPool>,
) -> (Ctx<'a>, Measured, Oracle) {
    let ctx = Ctx {
        plan,
        seed,
        seconds,
        nproc,
        voice,
        segments,
        clock: Clock::start(),
    };
    let out = run(&ctx);
    let mut oracle = Oracle::new(&ctx);
    let verdict = check(&ctx, &out, &mut oracle);
    let attempted = out.gen.offered.iter().sum::<u64>() + out.segments.len() as u64;
    println!(
        "checks: ledgers {} sessions, reference pass {} sessions checked, {} skipped \
         (left their starting rung), {} segments hash-checked, {} failed operations",
        verdict.ledgers_checked,
        verdict.reference_checked,
        verdict.reference_skipped,
        verdict.segments_checked,
        verdict.failed
    );
    for note in &verdict.notes {
        println!("check failed: {note}");
    }
    (
        ctx,
        Measured {
            out,
            verdict,
            attempted,
        },
        oracle,
    )
}

fn inputs(plan: &Plan, seed: u64) -> (VoicePool, Option<SegmentPool>) {
    let voice = VoicePool::synthesize(plan.emotions, plan.per_emotion, plan.window_samples, seed);
    let segments = (plan.kind == Kind::Playback).then(|| SegmentPool::encode(SEGMENT_POOL, seed));
    println!(
        "inputs: {} sessions at 1 window/s, pool of {} windows of {} samples, {} segments",
        plan.sessions,
        voice.len(),
        plan.window_samples,
        segments.as_ref().map_or(0, |s| s.segments.len())
    );
    (voice, segments)
}

fn benchmark(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().expect("checked by parse");
    let plan = Plan::named(name).ok_or(format!("unknown workload {name}"))?;
    let host = host::Host::probe();
    let calib_start = host::fp_calib_ms();
    let (voice, segments) = inputs(&plan, args.seed);
    let (ctx, measured, mut oracle) = measure(
        &plan,
        args.seed,
        args.seconds,
        host.nproc,
        &voice,
        segments.as_ref(),
    );
    let e2e = end_to_end(&ctx, &measured.out)?;
    let calib_end = host::fp_calib_ms();
    println!(
        "host: nproc={} h264_backend={} profile={} rev={} fp_calib_ms start={calib_start:.4} end={calib_end:.4}",
        host.nproc, host.backend, host.profile, host.rev
    );
    let gen = &measured.out.gen;
    println!(
        "windows: {} timed, p50 {:.4} p90 {:.4} p95 {:.4} p99 {:.4} ms; generator late p99 {:.4} ms; \
         {} of {} offers refused",
        e2e["window_samples"],
        e2e["window_p50_ms"],
        e2e["window_p90_ms"],
        e2e["window_p95_ms"],
        e2e["window_p99_ms"],
        stats::percentile(&gen.late_ns, 990).unwrap_or(0.0) / 1e6,
        gen.refused.iter().sum::<u64>(),
        gen.offered.iter().sum::<u64>()
    );
    for metric in END_TO_END.iter().chain(&PER_LAYER[..USER_VISIBLE]) {
        if let Some(value) = e2e.get(metric.name) {
            println!(
                "{} {value:.6} {} ({} is better)",
                metric.name, metric.unit, metric.better
            );
        }
    }
    let (catalogue, values) = if args.trace {
        let values = trace::per_layer(
            &ctx,
            &measured.out,
            &e2e,
            &mut oracle,
            (calib_start, calib_end),
        );
        for metric in &PER_LAYER[USER_VISIBLE..] {
            let value = values[metric.name];
            println!(
                "{} {value:.6} {} ({} is better)",
                metric.name, metric.unit, metric.better
            );
        }
        (PER_LAYER, values)
    } else {
        (END_TO_END, e2e)
    };
    let failed = measured.verdict.failed;
    println!(
        "{}",
        result_line(failed == 0, measured.attempted, failed, catalogue, &values)?
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One workload's smoke outcome.
struct Smoke {
    name: &'static str,
    attempted: u64,
    verdict: Verdict,
}

impl Smoke {
    /// Something was offered, every check ran on something, none failed.
    fn ok(&self) -> bool {
        self.attempted > 0
            && self.verdict.failed == 0
            && self.verdict.reference_checked > 0
            && (self.name != "playback" || self.verdict.segments_checked > 0)
    }
}

/// Runs every workload briefly at `1/shrink` of its sessions with every
/// output check on.
fn smoke(seed: u64, seconds: f64, shrink: usize) -> Vec<Smoke> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Plan::all()
        .into_iter()
        .map(|plan| {
            let plan = plan.shrunk(shrink);
            let (voice, segments) = inputs(&plan, seed);
            let (_, measured, _) = measure(&plan, seed, seconds, nproc, &voice, segments.as_ref());
            Smoke {
                name: plan.name,
                attempted: measured.attempted,
                verdict: measured.verdict,
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        let mut ok = true;
        for result in smoke(args.seed, 3.0, 4) {
            println!(
                "smoke {}: attempted {}, failed {}: {}",
                result.name,
                result.attempted,
                result.verdict.failed,
                if result.ok() { "ok" } else { "FAILED" }
            );
            ok &= result.ok();
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    match benchmark(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "playback",
            "--seed",
            "7",
            "--seconds",
            "36",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("playback"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 36.0, true, false)
        );
        assert!(args(&["--seed", "7"]).is_err(), "workload is required");
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "x", "--bogus", "1"]).is_err());
        assert!(args(&["--smoke"]).unwrap().smoke);
    }

    #[test]
    fn every_workload_is_named() {
        for plan in Plan::all() {
            assert_eq!(Plan::named(plan.name).unwrap().name, plan.name);
        }
        assert!(Plan::named("nope").is_none());
    }

    #[test]
    fn smoke_runs_every_workload_with_every_check() {
        for result in smoke(3, 1.0, 16) {
            assert!(result.ok(), "{}: {:?}", result.name, result.verdict);
        }
    }
}
