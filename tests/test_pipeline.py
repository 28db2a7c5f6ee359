import tracemalloc

import numpy as np
import pytest
from scipy.io import wavfile

from wwspot import pipeline
from wwspot.audio import SAMPLE_RATE, read_wav
from wwspot.augment import ManifestRow
from wwspot.features import CONTEXT_WIDTH, NUM_MEL_BINS, WINDOW_SAMPLES, compute_lfbe, num_frames
from wwspot.mining import NEGATIVE, POSITIVE, MinedExample, make_frame_targets
from wwspot.model import FrameDataset
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
    for name in ("base", "bounds", "targets", "is_positive"):
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


def _oracle(pairs):
    """The dataset from whole-clip LFBE matrices, built by from_utterances."""
    utts = []
    for path, ex in pairs:
        lfbe = compute_lfbe(read_wav(path))
        utts.append((lfbe, make_frame_targets(ex, len(lfbe)), ex.polarity == POSITIVE))
    return FrameDataset.from_utterances(utts)


def _assert_same_bytes(got, want):
    for name in ("base", "bounds", "targets", "is_positive"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@pytest.fixture()
def encoded_clips(tmp_path):
    """One WAV per encoding the reader accepts, and a one-frame WAV."""
    rng = np.random.default_rng(5)
    wav_dir = tmp_path / "wav"
    wav_dir.mkdir()
    clips = {
        "int16": (rng.standard_normal(12345) * 3000).astype(np.int16),
        "float32": (rng.standard_normal(9000) * 0.1).astype(np.float32),
        "stereo": (rng.standard_normal((7777, 2)) * 0.1).astype(np.float32),
        "one-frame": (rng.standard_normal(WINDOW_SAMPLES) * 3000).astype(np.int16),
    }
    examples = []
    for utt_id, data in clips.items():
        wavfile.write(wav_dir / f"{utt_id}.wav", SAMPLE_RATE, data)
        if utt_id == "one-frame":
            examples.append(MinedExample(utt_id, NEGATIVE, "caly", (0.0, 0.01), 0.9))
        else:
            examples.append(MinedExample(utt_id, POSITIVE, WAKE_WORD, (0.1, 0.3), 0.9))
    return examples, wav_dir


def test_both_builds_match_the_from_utterances_oracle_byte_for_byte(encoded_clips):
    examples, wav_dir = encoded_clips
    pairs = [(str(wav_dir / f"{e.utt_id}.wav"), e) for e in examples]
    oracle = _oracle(pairs)
    assert len(oracle) == 1 + sum(
        num_frames(read_wav(path).samples.size) for path, _ in pairs[:-1]
    )
    _assert_same_bytes(dataset_from_examples(examples, wav_dir), oracle)
    rows = [
        ManifestRow(f"ctm-{i:06d}", "CTM", e.utt_id, f"wav/{e.utt_id}.wav", None, None)
        for i, e in enumerate(examples)
    ]
    via_manifest = dataset_from_manifest(rows, {e.utt_id: e for e in examples}, wav_dir.parent)
    _assert_same_bytes(via_manifest, oracle)


@pytest.mark.parametrize("samples", [300, 20000], ids=["shorter", "longer"])
def test_a_wav_rewritten_between_the_two_passes_is_refused(encoded_clips, monkeypatch, samples):
    examples, wav_dir = encoded_clips
    path = wav_dir / "float32.wav"
    read = pipeline.read_wav

    def rewrite_then_read(p):
        if str(p) == str(path):
            wavfile.write(path, SAMPLE_RATE, np.zeros(samples, np.float32))
        return read(p)

    monkeypatch.setattr(pipeline, "read_wav", rewrite_then_read)
    with pytest.raises(
        DataError, match=f"{path}: {samples} samples, 9000 when its header was read"
    ):
        dataset_from_examples(examples, wav_dir)


def test_a_wav_shorter_than_one_window_is_named_before_any_wav_is_read(
    encoded_clips, monkeypatch
):
    examples, wav_dir = encoded_clips
    short = wav_dir / "int16.wav"
    wavfile.write(short, SAMPLE_RATE, np.zeros(WINDOW_SAMPLES - 1, np.int16))
    monkeypatch.setattr(pipeline, "read_wav", None)  # any full read would fail differently
    with pytest.raises(
        DataError, match=f"{short}: clip of 399 samples is shorter than one 400-sample window"
    ):
        dataset_from_examples(examples, wav_dir)


def test_the_build_holds_the_final_arrays_and_one_utterance(tmp_path):
    # a build that keeps every utterance's LFBE until the arrays are filled
    # holds another NUM_MEL_BINS float64 values (160 B) per frame: 2.4 MB
    # here, ten times the slack
    rng = np.random.default_rng(9)
    lengths = rng.integers(16000, 24000, 120)
    examples = []
    for i, n in enumerate(lengths):
        samples = (rng.standard_normal(n) * 3000).astype(np.int16)
        wavfile.write(tmp_path / f"u{i}.wav", SAMPLE_RATE, samples)
        examples.append(MinedExample(f"u{i}", NEGATIVE, "caly", (0.1, 0.3), 0.9))
    longest = tmp_path / f"u{int(np.argmax(lengths))}.wav"
    frames = sum(num_frames(int(n)) for n in lengths)
    compute_lfbe(read_wav(longest))  # the filterbank and window caches, outside the trace
    tracemalloc.start()
    try:
        lfbe = compute_lfbe(read_wav(longest))
        make_frame_targets(examples[0], len(lfbe))
        del lfbe
        one_utterance = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        dataset = dataset_from_examples(examples, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dataset) == frames
    per_frame = NUM_MEL_BINS * 8 + CONTEXT_WIDTH * 4 + 2  # 286 B
    assert peak < per_frame * frames + one_utterance + 2**18
