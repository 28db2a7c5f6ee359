import numpy as np
import pytest

from wwspot.augment import ManifestRow
from wwspot.mining import NEGATIVE, POSITIVE, MinedExample
from wwspot.pipeline import dataset_from_examples, dataset_from_manifest
from wwspot.synth import WAKE_WORD, generate_utterances, write_corpus
from wwspot.tsv import DataError


@pytest.fixture()
def mined_clips(tmp_path):
    rng = np.random.default_rng(3)
    utts = generate_utterances("utt", 4, 0.5, rng)
    wav_dir = tmp_path / "wav"
    write_corpus(utts, wav_dir, tmp_path / "hypotheses.jsonl", rng)
    examples = []
    for utt in utts:
        spans = utt.wake_spans()
        if spans:
            examples.append(MinedExample(utt.utt_id, POSITIVE, WAKE_WORD, spans[0], 0.9))
        else:
            word, start, end = utt.words[0]
            examples.append(MinedExample(utt.utt_id, NEGATIVE, word, (start, end), 0.9))
    assert {e.polarity for e in examples} == {POSITIVE, NEGATIVE}
    return examples, wav_dir


def test_ctm_manifest_builds_the_same_dataset_as_the_examples(mined_clips):
    examples, wav_dir = mined_clips
    rows = [
        ManifestRow(f"ctm-{i:06d}", "CTM", e.utt_id, f"{e.utt_id}.wav", None, None)
        for i, e in enumerate(examples)
    ]
    by_source = {e.utt_id: e for e in examples}
    direct = dataset_from_examples(examples, wav_dir)
    via_manifest = dataset_from_manifest(rows, by_source, wav_dir)
    for name in ("base", "gather", "targets", "is_positive"):
        np.testing.assert_array_equal(getattr(via_manifest, name), getattr(direct, name))
    assert direct.targets.any()


def test_manifest_sources_are_resolved_before_any_wav_is_read(mined_clips):
    examples, wav_dir = mined_clips
    rows = [
        ManifestRow("ctm-000000", "CTM", examples[0].utt_id, "missing.wav", None, None),
        ManifestRow("ctm-000001", "CTM", "unknown", f"{examples[1].utt_id}.wav", None, None),
    ]
    with pytest.raises(DataError, match="ctm-000001: source 'unknown'"):
        dataset_from_manifest(rows, {e.utt_id: e for e in examples}, wav_dir)
