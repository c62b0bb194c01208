//! Single-threaded access to the layers the runtime is built from, set up
//! exactly as the runtime's workers set them up: the reference pass of
//! the output checks and the traced replay both call through here.

use std::collections::HashMap;

use affect_core::classifier::{AffectClassifier, ClassifierKind, Decision, ModelConfig};
use affect_core::emotion::Emotion;
use affect_core::pipeline::FeaturePipeline;
use affect_rt::RuntimeConfig;
use nn::{Precision, Scratch, Tensor};

/// Classifier family × precision, as the runtime pools them: HDC is
/// integer-only, so it has one entry whatever the session's precision.
pub type Rung = (ClassifierKind, Precision);

/// Normalizes a rung the way the runtime's classifier pool does.
pub fn pool_rung(family: ClassifierKind, precision: Precision) -> Rung {
    match family {
        ClassifierKind::Hdc => (family, Precision::Int8),
        _ => (family, precision),
    }
}

/// The seven distinct rungs with the per-layer metric timing each.
pub const RUNGS: [(Rung, &str); 7] = [
    (
        (ClassifierKind::Lstm, Precision::F32),
        "nn.classify_us.lstm-f32",
    ),
    (
        (ClassifierKind::Lstm, Precision::Int8),
        "nn.classify_us.lstm-i8",
    ),
    (
        (ClassifierKind::Cnn, Precision::F32),
        "nn.classify_us.cnn-f32",
    ),
    (
        (ClassifierKind::Cnn, Precision::Int8),
        "nn.classify_us.cnn-i8",
    ),
    (
        (ClassifierKind::Mlp, Precision::F32),
        "nn.classify_us.mlp-f32",
    ),
    (
        (ClassifierKind::Mlp, Precision::Int8),
        "nn.classify_us.mlp-i8",
    ),
    ((ClassifierKind::Hdc, Precision::Int8), "nn.classify_us.hdc"),
];

/// Which features a family consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureKind {
    /// `extract_sequence` (LSTM).
    Sequence,
    /// `extract_strip` (CNN).
    Strip,
    /// `extract_flat` (MLP, HDC).
    Flat,
}

/// The feature call the runtime's feature stage makes for a family.
pub fn feature_kind(family: ClassifierKind) -> FeatureKind {
    match family {
        ClassifierKind::Lstm => FeatureKind::Sequence,
        ClassifierKind::Cnn => FeatureKind::Strip,
        ClassifierKind::Mlp | ClassifierKind::Hdc => FeatureKind::Flat,
    }
}

/// A feature pipeline and lazily built classifiers for one runtime
/// configuration.
pub struct Layers {
    pipeline: FeaturePipeline,
    window_samples: usize,
    seed: u64,
    classifiers: HashMap<Rung, AffectClassifier>,
    /// Warm inference arena shared by every rung, as in a worker.
    pub scratch: Scratch,
    /// Reused decision buffer.
    pub decision: Decision,
}

impl Layers {
    /// Layers for `config`.
    pub fn new(config: &RuntimeConfig) -> Self {
        Self {
            pipeline: FeaturePipeline::new(config.feature.clone()).expect("validated config"),
            window_samples: config.window_samples,
            seed: config.model_seed,
            classifiers: HashMap::new(),
            scratch: Scratch::new(),
            decision: Decision::default(),
        }
    }

    /// Extracts one window's features.
    pub fn features(&mut self, kind: FeatureKind, window: &[f32]) -> Tensor {
        match kind {
            FeatureKind::Sequence => self.pipeline.extract_sequence(window),
            FeatureKind::Strip => self.pipeline.extract_strip(window),
            FeatureKind::Flat => self.pipeline.extract_flat(window),
        }
        .expect("pool windows have the configured length")
    }

    /// Classifies features on `rung`, leaving the result in `decision`.
    pub fn classify(&mut self, rung: Rung, features: &Tensor) -> Option<Emotion> {
        let rung = pool_rung(rung.0, rung.1);
        if !self.classifiers.contains_key(&rung) {
            let built = self.build(rung);
            self.classifiers.insert(rung, built);
        }
        let clf = self.classifiers.get_mut(&rung).expect("built above");
        clf.classify_with(
            features.data(),
            features.shape(),
            &mut self.scratch,
            &mut self.decision,
        )
        .expect("features match the model");
        self.decision.emotion()
    }

    fn build(&self, (family, precision): Rung) -> AffectClassifier {
        let labels: Vec<String> = Emotion::ALL.iter().map(|e| e.name().to_string()).collect();
        let classes = labels.len();
        let fpf = self.pipeline.features_per_frame();
        let frames = self.pipeline.frames_for(self.window_samples);
        let config = match family {
            ClassifierKind::Hdc => {
                return AffectClassifier::hdc(self.pipeline.flat_dim(), labels, self.seed)
                    .expect("HDC rung builds");
            }
            ClassifierKind::Mlp => ModelConfig::scaled_mlp(self.pipeline.flat_dim(), classes),
            ClassifierKind::Cnn => ModelConfig::scaled_cnn(frames * fpf, classes),
            ClassifierKind::Lstm => ModelConfig::scaled_lstm(fpf, classes),
        };
        let mut clf =
            AffectClassifier::from_config(&config, labels, self.seed).expect("model builds");
        if precision == Precision::Int8 {
            clf.set_precision(Precision::Int8)
                .expect("fresh models quantize");
        }
        clf
    }
}
