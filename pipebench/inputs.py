"""Seeded input generation for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` derived from the
workload seed, so one seed always yields the same inputs. The program
under test only ever sees what these functions produce: audio clips,
WAV files, a lexicon with word frequencies, and a JSONL hypothesis file.
"""

from __future__ import annotations

import json

import numpy as np

from wwspot import augment, features, mining, model, synth
from wwspot.audio import SAMPLE_RATE, AudioClip

WAKE_WORD = synth.WAKE_WORD
_OTHER_WORDS = [w for w in synth.WORDS if w != WAKE_WORD]
_CONDITIONS = {
    "CTM": (False, False),
    "CTM+R": (True, False),
    "CTM+N": (False, True),
    "CTM+RN": (True, True),
}
# ARPAbet-like symbols plus the synthetic corpus' syllable names, so the
# random vocabulary shares phonemes with the demo words.
PHONEMES = tuple(sorted(set(synth.SYLLABLES) | {
    "AE", "AH", "AO", "AW", "AY", "B", "CH", "D", "DH", "EY", "F", "G",
    "HH", "IH", "JH", "K", "L", "M", "N", "NG", "OY", "P", "R", "S", "SH",
    "T", "TH", "UH", "V", "W", "Y", "Z", "ZH",
}))


def example_for(utt: synth.SynthUtterance) -> mining.MinedExample:
    """The mined example the generator's ground truth implies."""
    spans = utt.wake_spans()
    if spans:
        return mining.MinedExample(utt.utt_id, mining.POSITIVE, WAKE_WORD, spans[0], 0.9)
    token, start, end = utt.words[0]
    return mining.MinedExample(utt.utt_id, mining.NEGATIVE, token, (start, end), 0.9)


def interference(rng: np.random.Generator, rooms: int, noises: int, musics: int):
    """RIR, noise and music pools for far-field renditions."""
    rirs = [
        augment.synthesize_rir(room, id=f"rir-{i:03d}")
        for i, room in enumerate(synth.make_room_pool(rooms, rng))
    ]
    return rirs, synth.make_noise_pool(noises, 2.5, rng), synth.make_music_pool(musics, 2.5, rng)


def multi_condition_dataset(
    rng: np.random.Generator, n_utts: int, n_records: int | None = None
) -> model.FrameDataset:
    """A FrameDataset over synthetic utterances cycled through the four
    recipe conditions, trimmed to exactly ``n_records`` records when
    given so every seed trains on the same amount of work."""
    utts = synth.generate_utterances("mct", n_utts, 0.5, rng)
    rirs, noises, musics = interference(rng, 6, 4, 2)
    spec = augment.CorruptionSpec(10.0, 3.0, 0.5)
    triples = []
    for i, utt in enumerate(utts):
        reverb, noisy = _CONDITIONS[augment.CONDITIONS[i % len(augment.CONDITIONS)]]
        clip = utt.clip
        if reverb:
            clip = augment.reverberate(clip, rirs[int(rng.integers(len(rirs)))])
        if noisy:
            noise = noises[int(rng.integers(len(noises)))]
            music = musics[int(rng.integers(len(musics)))]
            clip, _ = augment.corrupt(clip, noise, music, spec, rng)
        lfbe = features.compute_lfbe(clip)
        example = example_for(utt)
        targets = mining.make_frame_targets(example, lfbe.shape[0])
        triples.append((lfbe, targets, example.polarity == mining.POSITIVE))
    dataset = model.FrameDataset.from_utterances(triples)
    if n_records is None:
        return dataset
    if len(dataset) < n_records:
        raise ValueError(f"{n_utts} utterances give {len(dataset)} < {n_records} records")
    return model.FrameDataset(
        dataset.base,
        dataset.gather[:n_records],
        dataset.targets[:n_records],
        dataset.is_positive[:n_records],
    )


def _tokens(rng: np.random.Generator, with_wake: bool, max_count: int = 3) -> list[str]:
    count = 1 + int(rng.integers(max_count))
    tokens = [_OTHER_WORDS[int(rng.integers(len(_OTHER_WORDS)))] for _ in range(count)]
    if with_wake:
        tokens[int(rng.integers(count))] = WAKE_WORD
    return tokens


def far_field_recording(
    rng: np.random.Generator,
    rec_id: str,
    seconds: float,
    rir: augment.RirFilter,
    noise: AudioClip,
    music: AudioClip,
) -> tuple[AudioClip, list[tuple[int, int]]]:
    """A reverberant, noisy recording of exactly ``seconds`` seconds with
    utterances separated by pauses; returns it with the wake-word spans
    in 10 ms frames."""
    n = int(seconds * SAMPLE_RATE)
    samples = np.zeros(n)
    refs = []
    pos = int(rng.uniform(0.3, 1.5) * SAMPLE_RATE)
    while True:
        utt = synth.make_utterance(f"{rec_id}-{len(refs)}", _tokens(rng, rng.random() < 0.3), rng)
        size = utt.clip.samples.size
        if pos + size > n:
            break
        samples[pos : pos + size] = utt.clip.samples
        offset = pos / SAMPLE_RATE
        refs.extend(
            (int(round((offset + s) * 100)), int(round((offset + e) * 100)))
            for s, e in utt.wake_spans()
        )
        pos += size + int(rng.uniform(0.5, 2.5) * SAMPLE_RATE)
    clip = augment.reverberate(AudioClip(samples, id=rec_id), rir)
    spec = augment.CorruptionSpec(10.0, 0.0, 0.5)
    clip, _ = augment.corrupt(clip, noise, music, spec, rng)
    return clip, refs


def write_lexicon(
    rng: np.random.Generator, lexicon_path: str, frequency_path: str, vocab: int, top_n: int
) -> set[str]:
    """A lexicon of the demo words plus ``vocab`` random words, some with
    alternate pronunciations and about one in ten a one- or two-edit
    mutation of the wake word. Frequencies rank the demo words first and
    leave a few words without a count. Returns the words the confusable
    scan considers: frequency rank within ``top_n``, wake word excluded."""
    wake = synth.WORDS[WAKE_WORD]
    lines = [f"{w}\t{' '.join(p)}" for w, p in synth.WORDS.items()]
    counts = {w: 10**7 + c for w, c in synth.WORD_COUNTS.items()}
    for i in range(vocab):
        word = f"w{i:06d}"
        for _ in range(1 + (rng.random() < 0.05)):
            if rng.random() < 0.1:
                pron = list(wake)
                for _ in range(1 + int(rng.integers(2))):
                    k = int(rng.integers(len(pron) + 1))
                    if rng.random() < 0.5 and len(pron) > 1 and k < len(pron):
                        del pron[k]
                    else:
                        pron.insert(k, PHONEMES[int(rng.integers(len(PHONEMES)))])
            else:
                pron = [PHONEMES[j] for j in rng.integers(len(PHONEMES), size=int(rng.integers(2, 9)))]
            lines.append(f"{word}\t{' '.join(pron)}")
        if rng.random() < 0.98:
            counts[word] = int(rng.integers(1, 10**6))
    with open(lexicon_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(frequency_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{w}\t{c}\n" for w, c in counts.items())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]
    return {w for w, _ in ranked if w != WAKE_WORD}


def write_hypotheses(
    rng: np.random.Generator, path: str, records: int, vocab: int, malformed_every: int = 997
) -> tuple[set[str], int]:
    """A JSONL file of ``records`` automatic transcripts over the demo
    words and the random vocabulary. About 30% of utterances truly hold
    the wake word; 5% of the others carry a wake-word recognition error
    whose confidence stays below 0.5. Every ``malformed_every``-th line is
    broken. Returns the ids that truly hold the wake word and the number
    of malformed lines."""
    truth: set[str] = set()
    malformed = 0
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(records):
            utt_id = f"hyp-{i:06d}"
            if i % malformed_every == malformed_every - 1:
                fh.write('{"utt_id": "%s", "words": [\n' % utt_id)
                malformed += 1
                continue
            has_wake = rng.random() < 0.3
            tokens = _tokens(rng, has_wake) + [
                f"w{int(j):06d}" for j in rng.integers(vocab, size=int(rng.integers(3)))
            ]
            if not has_wake and rng.random() < 0.05:
                tokens.insert(int(rng.integers(len(tokens) + 1)), "#error")
            rng.shuffle(tokens)
            words, t = [], float(rng.uniform(0.1, 0.5))
            for tok in tokens:
                dur = float(rng.uniform(0.3, 0.7))
                if tok == "#error":
                    tok, conf = WAKE_WORD, float(rng.uniform(0.05, 0.45))
                elif rng.random() < 0.15:
                    conf = float(rng.uniform(0.25, 0.6))
                else:
                    conf = float(rng.uniform(0.6, 0.98))
                words.append({"w": tok, "conf": round(conf, 4), "start": round(t, 3), "end": round(t + dur, 3)})
                t += dur + float(rng.uniform(0.05, 0.3))
            if has_wake:
                truth.add(utt_id)
            record = {"utt_id": utt_id, "audio_path": f"audio/{utt_id}.wav", "words": words}
            fh.write(json.dumps(record) + "\n")
    return truth, malformed


def clean_pool(rng: np.random.Generator, count: int, seconds: float = 2.1):
    """Clean close-talk clips of one or two words, each with the mined
    example it stands for. Clips are padded with trailing silence to
    exactly ``seconds`` (two synthetic words with their pauses last under
    2.1 s), so the augmentation and featurization work is the same for
    every seed."""
    utts = [
        synth.make_utterance(f"clean-{i:05d}", _tokens(rng, rng.random() < 0.5, 2), rng)
        for i in range(count)
    ]
    n = int(seconds * SAMPLE_RATE)
    clips = [AudioClip(np.pad(u.clip.samples, (0, n - u.clip.samples.size)), id=u.utt_id) for u in utts]
    return clips, {u.utt_id: example_for(u) for u in utts}

