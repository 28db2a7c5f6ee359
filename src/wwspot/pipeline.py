"""The stages that the CLI subcommands and the demo share.

Each stage function is the one place that maps its config keys to the
library's arguments, and both callers run it: the wake word, the RIR
rooms, the confusable scan, mining, the multi-condition mix, the model
settings and the DET sweep. The dataset builds turn mined examples, or
an augmented manifest, into frame-labelled training sets.
"""

from __future__ import annotations

import os

import numpy as np

from .audio import AudioClip, read_wav, wav_samples
from .augment import CorruptionSpec, ManifestRow, MixRecipe, RirFilter, RoomSpec, build_mixed_dataset
from .augment import write_manifest
from .config import ConfigError, PipelineConfig
from .decode import DecodeConfig
from .evaluate import EvalResult, det_curve
from .features import NUM_MEL_BINS, compute_lfbe, num_frames
from .lexicon import ConfusableSet, Lexicon, build_confusable_set
from .mining import POSITIVE, Hypotheses, MinedExample, balance_examples, make_frame_targets
from .mining import mine_examples
from .model import FrameDataset, SpotterConfig, TrainConfig
from .synth import make_room_pool
from .tsv import DataError


def wake_word(cfg: PipelineConfig) -> str:
    """`lexicon.wake_word`, which must be set."""
    wake = cfg.get("lexicon", "wake_word")
    if not wake:
        raise ConfigError("lexicon.wake_word: missing wake word")
    return wake


def rooms(cfg: PipelineConfig, count: int, rng: np.random.Generator) -> list[RoomSpec]:
    """`count` random rooms of `rir`'s reflection order and coefficient bounds."""
    return make_room_pool(count, rng, *(cfg.get("rir", k) for k in ("max_order", "beta_min", "beta_max")))


def confusables(cfg: PipelineConfig, lexicon: Lexicon, wake: str) -> ConfusableSet:
    """The words within `lexicon.d_max` edits of `wake` among the `top_n_frequent` most frequent."""
    return build_confusable_set(
        lexicon, wake, cfg.get("lexicon", "d_max"), cfg.get("lexicon", "top_n_frequent")
    )


def mine(
    cfg: PipelineConfig, hyps: Hypotheses, wake: str, confusable_set: ConfusableSet, seed: int,
    balance: bool = True,
) -> list[MinedExample]:
    """The examples that pass `mining`'s confidence gates, balanced to
    `mining.target_ratio` with `seed` unless `balance` is off."""
    examples = mine_examples(
        hyps, wake, confusable_set, cfg.get("mining", "pos_threshold"), cfg.get("mining", "neg_threshold")
    )
    if balance:
        examples = balance_examples(examples, cfg.get("mining", "target_ratio"), rng_seed=seed)
    return examples


def augment(
    cfg: PipelineConfig, clean: list[AudioClip], rirs: list[RirFilter], noises: list[AudioClip],
    musics: list[AudioClip], recipe: MixRecipe, seed: int, out_dir: str, jobs: int,
) -> list[ManifestRow]:
    """The multi-condition mix of `recipe` at `augment`'s SNR draw and
    noise/music split, written under `out_dir` with its manifest.tsv."""
    spec = CorruptionSpec(
        cfg.get("augment", "snr_mean_db"), cfg.get("augment", "snr_std_db"),
        cfg.get("augment", "noise_music_split"), rng_seed=seed,
    )
    rows = build_mixed_dataset(clean, rirs, noises, musics, recipe, spec, out_dir, jobs=jobs)
    write_manifest(rows, os.path.join(out_dir, "manifest.tsv"))
    return rows


def model_configs(cfg: PipelineConfig, section: str, seed: int) -> tuple[TrainConfig, SpotterConfig]:
    """The trainer and the network from `section`, "training" or the
    demo's "demo"; the minibatch size is always `training`'s."""
    return (
        TrainConfig(cfg.get(section, "learning_rate"), cfg.get("training", "minibatch_size"),
                    cfg.get(section, "epochs"), seed),
        SpotterConfig(bottleneck=cfg.get(section, "bottleneck"), hidden=cfg.get(section, "hidden")),
    )


def det(
    cfg: PipelineConfig, traces: dict[str, np.ndarray], references: dict[str, list[tuple[int, int]]],
    smooth_window: int,
) -> list[EvalResult]:
    """The DET curve over `decoding.thresholds`, each scored with
    `decoding`'s peak gap and matching tolerance."""
    sweep = cfg.get("decoding", "thresholds")
    decode_cfg = DecodeConfig(smooth_window, sweep[0], cfg.get("decoding", "min_gap_frames"))
    return det_curve(traces, references, decode_cfg, sweep, cfg.get("decoding", "tolerance_frames"))


def _dataset(pairs: list[tuple[str, MinedExample]]) -> FrameDataset:
    """Featurize each WAV straight into its rows of the dataset, with
    frame targets from its example's trigger span.

    A first pass reads only the headers, so every frame count is known,
    and a clip too short for one window is named, before the arrays are
    allocated at their final size; the second reads each WAV in turn and
    writes its LFBE into its rows. The build holds the dataset and one
    utterance, never a second copy of the features."""
    samples = [wav_samples(path) for path, _ in pairs]
    lengths = []
    for (path, _), n in zip(pairs, samples):
        try:
            lengths.append(num_frames(n))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None

    def featurize(i, rows):
        path, ex = pairs[i]
        clip = read_wav(path)
        if clip.samples.size != samples[i]:
            raise DataError(
                f"{path}: {clip.samples.size} samples, {samples[i]} when its header "
                "was read; the file changed while the dataset was built"
            )
        compute_lfbe(clip, out=rows)
        return make_frame_targets(ex, len(rows)), ex.polarity == POSITIVE

    return FrameDataset.build(lengths, NUM_MEL_BINS, featurize)


def dataset_from_examples(
    examples: list[MinedExample], wav_dir: str | os.PathLike
) -> FrameDataset:
    """Each example's utterance is <utt_id>.wav under wav_dir."""
    wav_dir = os.fspath(wav_dir)
    return _dataset([(os.path.join(wav_dir, f"{ex.utt_id}.wav"), ex) for ex in examples])


def dataset_from_manifest(
    rows: list[ManifestRow],
    by_source: dict[str, MinedExample],
    root: str | os.PathLike,
) -> FrameDataset:
    """Augmented utterances inherit targets from their source example;
    the convolution keeps lengths, so spans stay aligned. Every row's
    source is resolved before any WAV is read."""
    root = os.fspath(root)
    pairs = []
    for row in rows:
        ex = by_source.get(row.source_id)
        if ex is None:
            raise DataError(
                f"{row.utt_id}: source {row.source_id!r} has no mined example; "
                "augment from the mined utterances only"
            )
        pairs.append((os.path.join(root, row.wav_path), ex))
    return _dataset(pairs)
