//! Bounded, pre-synthesized input pools. Everything the program sees is
//! drawn from these, so program memory, not input data, dominates RSS.

use affect_core::emotion::Emotion;
use affect_core::policy::VideoPowerMode;
use biosignal::VoiceWindowStream;
use h264::adaptive::{options_for_mode, paper_reference, ModeProfile};
use h264::decoder::{Activity, Decoder};
use h264::encoder::{Encoder, EncoderConfig, GopPattern};
use h264::power::PowerModel;
use h264::Frame;

/// Voice windows, grouped by the emotion they were synthesized under.
pub struct VoicePool {
    /// Raw samples, one window each.
    pub windows: Vec<Vec<f32>>,
}

impl VoicePool {
    /// `per_emotion` windows of each emotion in `emotions`, grouped by
    /// emotion in that order.
    pub fn synthesize(emotions: &[Emotion], per_emotion: u32, samples: usize, seed: u64) -> Self {
        let schedule = emotions.iter().map(|&e| (e, per_emotion)).collect();
        let stream = VoiceWindowStream::new(schedule, samples, 16_000.0, seed)
            .expect("pool schedule is non-empty with non-zero counts");
        Self {
            windows: stream.map(|w| w.samples).collect(),
        }
    }

    /// Number of windows in the pool.
    pub fn len(&self) -> usize {
        self.windows.len()
    }
}

/// What a reference decode of one segment in one mode produced.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Hash of the decoded frames.
    pub hash: u64,
    /// Decoder activity.
    pub activity: Activity,
}

/// One encoded one-second segment and its reference decodes.
pub struct Segment {
    /// Annex-B bytes.
    pub bytes: Vec<u8>,
    /// Reference decode per mode, in [`VideoPowerMode::ALL`] order.
    pub reference: Vec<Reference>,
}

/// Encoded 30 fps QCIF segments plus the energy model they are scored by.
pub struct SegmentPool {
    /// The segments.
    pub segments: Vec<Segment>,
    /// `h264::power` model calibrated on the paper's reference clip.
    pub model: PowerModel,
}

/// QCIF, 30 frames: one second of video per segment.
const WIDTH: usize = 176;
const HEIGHT: usize = 144;
const FPS: usize = 30;

impl SegmentPool {
    /// Encodes `count` distinct segments. Segments alternate between
    /// continuous motion and a motion pause, so some P/B slices are small
    /// enough for the NAL-deletion modes to drop.
    pub fn encode(count: usize, seed: u64) -> Self {
        let encoder = Encoder::new(EncoderConfig {
            qp: 30,
            gop: GopPattern {
                intra_period: 8,
                b_between: 1,
            },
            search_range: 4,
            skip_threshold: 2000,
        })
        .expect("valid encoder config");
        let segments = (0..count)
            .map(|i| {
                let pause = if i % 2 == 0 { 0..0 } else { 6 + i..18 + i };
                let frames = h264::video::synthetic_clip_with_pause(
                    WIDTH,
                    HEIGHT,
                    FPS,
                    seed.wrapping_add(i as u64),
                    pause,
                )
                .expect("valid clip dimensions");
                let bytes = encoder.encode(&frames).expect("encodable clip");
                let reference = VideoPowerMode::ALL
                    .iter()
                    .map(|&mode| {
                        let out = Decoder::new(options_for_mode(mode))
                            .decode(&bytes)
                            .expect("reference decode of an intact segment");
                        Reference {
                            hash: hash_frames(&out.frames),
                            activity: out.activity,
                        }
                    })
                    .collect();
                Segment { bytes, reference }
            })
            .collect();
        let (source, stream) = paper_reference(seed).expect("reference clip");
        let model = ModeProfile::measure(&stream, &source)
            .expect("power model calibration")
            .model;
        Self { segments, model }
    }
}

/// Index of a mode in [`VideoPowerMode::ALL`].
pub fn mode_index(mode: VideoPowerMode) -> usize {
    VideoPowerMode::ALL
        .iter()
        .position(|&m| m == mode)
        .expect("every mode is listed")
}

/// A fast 64-bit hash of decoded frames, for equality checks only.
pub fn hash_frames(frames: &[Frame]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ frames.len() as u64;
    let mut mix = |word: u64| {
        h = (h ^ word).wrapping_mul(0x0100_0000_01B3).rotate_left(29);
    };
    for frame in frames {
        mix(((frame.width() as u64) << 32) | frame.height() as u64);
        let data = frame.data();
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            mix(u64::from(b));
        }
    }
    h
}

/// A small deterministic mixer for seed-derived offsets.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
