"""Glue between mined examples, audio, features, and training sets."""

from __future__ import annotations

import os

from .audio import read_wav, wav_samples
from .augment import ManifestRow
from .features import NUM_MEL_BINS, compute_lfbe, num_frames
from .mining import POSITIVE, MinedExample, make_frame_targets
from .model import FrameDataset
from .tsv import DataError


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
