"""Glue between mined examples, audio, features, and training sets."""

from __future__ import annotations

import os

from .audio import read_wav
from .augment import ManifestRow
from .features import compute_lfbe
from .mining import POSITIVE, MinedExample, make_frame_targets
from .model import FrameDataset
from .tsv import DataError


def _dataset(pairs: list[tuple[str, MinedExample]]) -> FrameDataset:
    """Featurize each WAV and derive its frame targets from its example's
    trigger span."""
    utts = []
    for path, ex in pairs:
        lfbe = compute_lfbe(read_wav(path))
        targets = make_frame_targets(ex, lfbe.shape[0])
        utts.append((lfbe, targets, ex.polarity == POSITIVE))
    return FrameDataset.from_utterances(utts)


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
