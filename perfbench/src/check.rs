//! Output checks run on every run. Any failure fails the run: the failed
//! windows and segments are counted as failed operations.

use std::collections::HashMap;

use affect_core::controller::SystemController;
use affect_core::emotion::Emotion;

use crate::inputs::mode_index;
use crate::layers::{feature_kind, pool_rung, Layers, Rung};
use crate::run::{Ctx, RunOutput};

/// What the checks found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations (windows or segments) that failed a check.
    pub failed: u64,
    /// Sessions whose events were compared against the reference pass.
    pub reference_checked: usize,
    /// Sessions skipped by the reference pass: they left their starting
    /// rung, so the runtime's rung history is not reproducible offline.
    pub reference_skipped: usize,
    /// Sessions whose ledger was checked.
    pub ledgers_checked: usize,
    /// Decoded segments hash-checked.
    pub segments_checked: usize,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, ops: u64, note: String) {
        self.failed += ops.max(1);
        self.notes.push(note);
    }
}

/// Reference classifications, memoized per rung and pool window.
pub struct Oracle {
    layers: Layers,
    memo: HashMap<(Rung, usize), Option<Emotion>>,
}

impl Oracle {
    /// An oracle for the workload's runtime configuration.
    pub fn new(ctx: &Ctx) -> Self {
        Self {
            layers: Layers::new(&ctx.plan.runtime_config()),
            memo: HashMap::new(),
        }
    }

    /// What the runtime's feature and classify stages must make of pool
    /// window `pool` on `rung`.
    pub fn emotion(&mut self, ctx: &Ctx, rung: Rung, pool: usize) -> Option<Emotion> {
        let rung = pool_rung(rung.0, rung.1);
        if let Some(&e) = self.memo.get(&(rung, pool)) {
            return e;
        }
        let features = self
            .layers
            .features(feature_kind(rung.0), &ctx.voice.windows[pool]);
        let e = self.layers.classify(rung, &features);
        self.memo.insert((rung, pool), e);
        e
    }
}

/// Checks the ledgers, the actuated event sequences and the decoded
/// segments of one run.
pub fn check(ctx: &Ctx, out: &RunOutput, oracle: &mut Oracle) -> Verdict {
    let mut v = Verdict::default();
    let plan = ctx.plan;
    let config = plan.runtime_config();
    if !out.setups_accounted {
        v.fail(1, "a discarded set-up left its ledger unbalanced".into());
    }
    let sessions = &out.fin.merged.sessions;
    if sessions.len() != plan.sessions {
        v.fail(
            plan.sessions as u64,
            format!(
                "{} session reports for {} sessions",
                sessions.len(),
                plan.sessions
            ),
        );
        return v;
    }

    for (s, rep) in sessions.iter().enumerate() {
        v.ledgers_checked += 1;
        let subs = &out.gen.subs[s];
        let log = out.logs[s].lock();
        if !rep.accounted() {
            v.fail(
                rep.produced,
                format!(
                    "session {s}: produced {} != processed {} + dropped {}",
                    rep.produced, rep.processed, rep.dropped
                ),
            );
        }
        if rep.produced != subs.len() as u64 || log.seen.len() as u64 != rep.processed {
            v.fail(
                rep.produced,
                format!(
                    "session {s}: generator produced {}, runtime {}; actuated {}, processed {}",
                    subs.len(),
                    rep.produced,
                    log.seen.len(),
                    rep.processed
                ),
            );
        }
        if log.seen.windows(2).any(|w| w[0].0 >= w[1].0)
            || log
                .seen
                .last()
                .is_some_and(|&(seq, _)| seq as usize >= subs.len())
        {
            v.fail(
                rep.produced,
                format!("session {s}: windows actuated out of order"),
            );
            continue;
        }

        let rung = plan.start_rung(s);
        if rep.degradations > 0 || rep.family != rung.0 {
            v.reference_skipped += 1;
            continue;
        }
        v.reference_checked += 1;
        let mut controller = SystemController::new(config.policy.clone(), config.smoothing_window);
        let mut expected = Vec::with_capacity(log.events.len());
        for &(seq, _) in &log.seen {
            let pool = subs[seq as usize].pool as usize;
            if let Some(emotion) = oracle.emotion(ctx, rung, pool) {
                let events = controller
                    .observe_emotion(emotion)
                    .expect("observe_emotion is infallible");
                expected.extend(events.into_iter().map(|e| (seq, e)));
            }
        }
        if expected != log.events {
            v.fail(
                log.seen.len() as u64,
                format!(
                    "session {s}: {} actuated events differ from the reference pass's {}",
                    log.events.len(),
                    expected.len()
                ),
            );
        }
    }

    if let Some(admission) = &out.fin.admission {
        if !admission.accounted() || admission.offered.by_tier != out.gen.offered_by_tier {
            v.fail(
                1,
                format!(
                    "tier ledger: offered {:?} (generator {:?}), submitted {:?}, shed {:?}, evicted {:?}",
                    admission.offered.by_tier,
                    out.gen.offered_by_tier,
                    admission.submitted.by_tier,
                    admission.shed.by_tier,
                    admission.evicted.by_tier
                ),
            );
        }
    }

    if let Some(pool) = ctx.segments {
        for (i, record) in out.segments.iter().enumerate() {
            v.segments_checked += 1;
            let reference = &pool.segments[record.pool].reference[mode_index(record.mode)];
            if record.hash != Some(reference.hash) {
                v.fail(
                    1,
                    format!(
                        "segment {i} (pool {}, {:?}): frames differ from the reference decode",
                        record.pool, record.mode
                    ),
                );
            }
        }
    }
    v
}
