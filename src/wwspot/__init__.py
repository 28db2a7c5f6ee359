"""Desk-scale wake word spotting toolkit."""

from .audio import AudioClip, read_wav, rms_power, write_wav
from .augment import (
    CorruptionSpec,
    MixRecipe,
    RirFilter,
    RoomSpec,
    build_mixed_dataset,
    corrupt,
    reverberate,
    synthesize_rir,
)
from .decode import DecodeConfig, Detection, detect_peaks, posterior_trace, smooth
from .evaluate import EvalResult, det_curve, score
from .features import compute_lfbe
from .lexicon import ConfusableSet, Lexicon, build_confusable_set, levenshtein, load_lexicon
from .mining import (
    MinedExample,
    UtteranceHypothesis,
    balance_examples,
    make_frame_targets,
    mine_examples,
)
from .model import (
    FrameDataset,
    SpotterConfig,
    SpotterModel,
    TrainConfig,
    gradient,
    load_model,
    posteriors,
    save_model,
    ssl_loss,
    train,
)

__version__ = "0.1.0"
