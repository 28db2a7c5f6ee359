"""The three benchmark workloads: set-up, one timed pass, output checks.

Each pass calls, in-process and with ``jobs=1``, the public wwspot
functions that the matching CLI subcommands run, looked up through their
modules at call time so the tracer's wrappers are seen. Input sizes are
fixed per workload and do not depend on the seed, so every seed does the
same amount of work. The model is always the paper-size
``SpotterConfig()`` (the CLI's 87/400), and other hyper-parameters come
from the CLI defaults (``wwspot.config.DEFAULTS``) unless a constant
below says otherwise.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from wwspot import audio, augment, decode, evaluate, features, lexicon, mining, model, pipeline, synth
from wwspot.config import load_config

from . import inputs

CLI = load_config(None)
TRAIN_EPOCHS = 3
DECODE_TRAIN_UTTERANCES = 60  # the decode set-up trains briefly on these
DECODE_TRAIN_EPOCHS = 2
SCAN_TOP_N = 12000  # frequency rank the confusable scan considers
RIR_MAX_ORDER = 10
CHECK_SAMPLE = 200  # scanned words re-checked against per-pair distances
SEPARATION_SAMPLE = 4096  # training frames re-scored by the train check


def _frames(n_samples: int) -> int:
    # compute_lfbe's frame count for a 25 ms window and 10 ms hop at 16 kHz
    return 1 + (n_samples - 400) // 160


def _train_config(seed: int, epochs: int) -> model.TrainConfig:
    return model.TrainConfig(
        learning_rate=CLI.getfloat("training", "learning_rate"),
        minibatch_size=CLI.getint("training", "minibatch_size"),
        epochs=epochs,
        rng_seed=seed,
    )


class Workload:
    """Set-up builds a state; ``run`` makes one pass over it and returns
    the wall time of each timed part (their sum is the pass time) and the
    outputs; ``check`` maps each
    operation of the pass to its list of failures (empty when correct),
    comparing against a reference pass where outputs must repeat."""

    name = ""
    why = ""

    def __init__(self, sizes):
        self.sizes = sizes

    def setup(self, seed: int, workdir: str):
        raise NotImplementedError

    def operations(self, state) -> list[str]:
        raise NotImplementedError

    def run(self, state) -> tuple[dict[str, float], object]:
        raise NotImplementedError

    def check(self, state, out, reference) -> dict[str, list[str]]:
        raise NotImplementedError

    def rates(self, state, parts: dict[str, float]) -> dict[str, tuple[float, str]]:
        """The workload's own end-to-end rates from median part times."""
        raise NotImplementedError

    def memory_report(self, state) -> dict[str, tuple[float, str]]:
        """Extra memory figures, measured outside the timed passes."""
        return {}


# --- train -------------------------------------------------------------------


@dataclass(frozen=True)
class TrainSizes:
    records: int = 8000
    utterances: int = 100


@dataclass
class TrainState:
    dataset: model.FrameDataset
    train_cfg: model.TrainConfig
    model_cfg: model.SpotterConfig


def params_digest(spotter: model.SpotterModel) -> str:
    h = hashlib.sha256()
    for name in sorted(spotter.params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(spotter.params[name]).tobytes())
    h.update(spotter.scaler.mean.tobytes())
    h.update(spotter.scaler.std.tobytes())
    return h.hexdigest()


class TrainWorkload(Workload):
    name = "train"
    why = (
        "the training step dominates demo wall time; paper-size spotter "
        "(87/400, minibatch 256) on multi-condition frames, data layers idle"
    )

    def setup(self, seed, workdir):
        s = self.sizes
        rng = np.random.default_rng([seed, 1])
        dataset = inputs.multi_condition_dataset(rng, s.utterances, s.records)
        return TrainState(dataset, _train_config(seed, TRAIN_EPOCHS), model.SpotterConfig())

    def operations(self, state):
        return ["train"]

    def run(self, state):
        start = time.perf_counter()
        trained, log = model.train(state.dataset, state.train_cfg, state.model_cfg)
        return {"train": time.perf_counter() - start}, (log, params_digest(trained), trained)

    def check(self, state, out, reference):
        log, digest, trained = out
        failures = []
        if len(log) != state.train_cfg.epochs or not all(math.isfinite(v) for v in log):
            failures.append(f"epoch losses not all finite: {log}")
        elif not log[-1] < log[0]:
            failures.append(f"last epoch loss {log[-1]} not below first {log[0]}")
        if digest != reference[1]:
            failures.append("parameters differ from the reference pass with the same seed")
        # ground truth from the generator: the trained model must score
        # the wake-word frames of positive utterances above the rest
        idx = np.arange(min(len(state.dataset), SEPARATION_SAMPLE))
        x, _, _ = state.dataset.batch(idx)
        q = model.posteriors(trained, x)[:, 1]
        target = state.dataset.effective_targets()[idx].astype(bool)
        if not target.any() or target.all():
            failures.append("the checked frames hold only one class")
        elif not q[target].mean() > q[~target].mean():
            failures.append(
                f"mean posterior {q[target].mean():.4f} on wake-word frames is not above "
                f"{q[~target].mean():.4f} on the others"
            )
        return {"train": failures}

    def rates(self, state, parts):
        frames = len(state.dataset) * state.train_cfg.epochs
        return {"train_frames_per_s": (frames / parts["train"], "frames/s")}


# --- decode ------------------------------------------------------------------


@dataclass(frozen=True)
class DecodeSizes:
    # unequal lengths, so memory can be seen against audio length
    recording_s: tuple[float, ...] = (60.0, 120.0, 180.0)


@dataclass
class DecodeState:
    wavs: list[str]
    samples: dict[str, int]
    references: dict[str, list[tuple[int, int]]]
    spotter: model.SpotterModel
    decode_cfg: decode.DecodeConfig
    thresholds: list[float]
    tolerance: int

    @property
    def audio_s(self) -> float:
        return sum(self.samples.values()) / audio.SAMPLE_RATE


class DecodeWorkload(Workload):
    name = "decode"
    why = (
        "det over 1-3 minute far-field WAVs: whole-utterance LFBE and "
        "large-batch inference, memory against audio length, 19-threshold sweep"
    )

    def setup(self, seed, workdir):
        s = self.sizes
        rng = np.random.default_rng([seed, 2])
        rirs, noises, musics = inputs.interference(rng, len(s.recording_s), 2, 2)
        wavs, samples, references = [], {}, {}
        for i, seconds in enumerate(s.recording_s):
            rec_id = f"rec-{i:02d}"
            clip, refs = inputs.far_field_recording(
                rng, rec_id, seconds, rirs[i], noises[i % 2], musics[i % 2]
            )
            path = os.path.join(workdir, f"{rec_id}.wav")
            audio.write_wav(clip, path)
            wavs.append(path)
            samples[rec_id] = clip.samples.size
            references[rec_id] = refs
        dataset = inputs.multi_condition_dataset(rng, DECODE_TRAIN_UTTERANCES)
        spotter, _ = model.train(dataset, _train_config(seed, DECODE_TRAIN_EPOCHS), model.SpotterConfig())
        decode_cfg = decode.DecodeConfig(
            CLI.getint("decoding", "smooth_window_frames"),
            CLI.getfloat("decoding", "threshold"),
            CLI.getint("decoding", "min_gap_frames"),
        )
        return DecodeState(
            wavs, samples, references, spotter, decode_cfg,
            CLI.thresholds(), CLI.getint("decoding", "tolerance_frames"),
        )

    def operations(self, state):
        return [f"trace:{u}" for u in state.samples] + ["det"]

    def run(self, state):
        start = time.perf_counter()
        traces = {}
        for path in state.wavs:
            clip = audio.read_wav(path)
            traces[clip.id] = decode.posterior_trace(state.spotter, features.compute_lfbe(clip))
        mid = time.perf_counter()
        results = evaluate.det_curve(
            traces, state.references, state.decode_cfg, state.thresholds, state.tolerance
        )
        end = time.perf_counter()
        rows = [
            (r.threshold, r.true_positives, r.false_rejects, r.false_accepts, r.total_audio_hours)
            for r in results
        ]
        return {"decode": mid - start, "det": end - mid}, (traces, rows)

    def check(self, state, out, reference):
        traces, rows = out
        report = {}
        for utt_id, n in state.samples.items():
            trace = traces.get(utt_id)
            failures = []
            if trace is None:
                failures.append("no trace")
            elif trace.shape != (_frames(n),):
                failures.append(f"trace has shape {trace.shape}, expected ({_frames(n)},)")
            elif not (np.isfinite(trace).all() and trace.min() >= 0.0 and trace.max() <= 1.0):
                failures.append("trace values outside [0, 1]")
            report[f"trace:{utt_id}"] = failures
        det = []
        if len(rows) != len(state.thresholds):
            det.append(f"{len(rows)} DET rows for {len(state.thresholds)} thresholds")
        if rows != reference[1]:
            det.append("DET rows differ from the reference pass")
        # ground truth from the generator: every reference span is either
        # found or rejected, the hours are the recordings' frames, and the
        # lowest threshold finds at least one wake word
        spans = sum(len(r) for r in state.references.values())
        hours = sum(_frames(n) for n in state.samples.values()) / evaluate.FRAMES_PER_HOUR
        for th, tp, fr, _, h in rows:
            if tp + fr != spans:
                det.append(f"threshold {th}: {tp} found + {fr} rejected != {spans} reference spans")
            if not math.isclose(h, hours, rel_tol=1e-12):
                det.append(f"threshold {th}: {h} audio hours, the recordings hold {hours}")
        if rows and not min(rows)[1] > 0:
            det.append(f"no wake word found at the lowest threshold {min(rows)[0]}")
        report["det"] = det
        return report

    def rates(self, state, parts):
        return {"decode_rtf": (state.audio_s / (parts["decode"] + parts["det"]), "audio_s/s")}

    def memory_report(self, state):
        """Peak traced memory of read -> LFBE -> posteriors for each
        recording on its own, one figure per recording length."""
        report = {}
        for path in state.wavs:
            tracemalloc.start()
            try:
                clip = audio.read_wav(path)
                decode.posterior_trace(state.spotter, features.compute_lfbe(clip))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            seconds = state.samples[clip.id] / audio.SAMPLE_RATE
            report[f"peak_mb.recording_{seconds:g}s"] = (peak / 2**20, "MB")
        return report


# --- prep --------------------------------------------------------------------


@dataclass(frozen=True)
class PrepSizes:
    vocabulary: int = 20000
    hypotheses: int = 10000
    rirs: int = 20
    clean_clips: int = 60
    recipe_scale: float = 0.0015


@dataclass
class PrepState:
    seed: int
    lexicon_path: str
    frequency_path: str
    scanned: set[str]
    hypotheses_path: str
    truth: set[str]
    malformed: int
    clean: list[audio.AudioClip]
    by_source: dict[str, mining.MinedExample]
    rooms: list[augment.RoomSpec]
    noises: list[audio.AudioClip]
    musics: list[audio.AudioClip]
    recipe: augment.MixRecipe
    spec: augment.CorruptionSpec
    workdir: str
    passes: int = 0


class PrepWorkload(Workload):
    name = "prep"
    why = (
        "the data half of the recipe at scale: confusable scan, mining, "
        "RIR synthesis, augmentation and dataset build; the model is idle"
    )

    def setup(self, seed, workdir):
        s = self.sizes
        rng = np.random.default_rng([seed, 3])
        lexicon_path = os.path.join(workdir, "lexicon.txt")
        frequency_path = os.path.join(workdir, "frequencies.txt")
        scanned = inputs.write_lexicon(rng, lexicon_path, frequency_path, s.vocabulary, SCAN_TOP_N)
        hypotheses_path = os.path.join(workdir, "hypotheses.jsonl")
        truth, malformed = inputs.write_hypotheses(rng, hypotheses_path, s.hypotheses, s.vocabulary)
        clean, by_source = inputs.clean_pool(rng, s.clean_clips)
        # rir-gen: room geometry from the pool, reflection drawn per room
        rooms = []
        for room in synth.make_room_pool(s.rirs, rng, max_order=RIR_MAX_ORDER):
            beta = float(rng.uniform(CLI.getfloat("rir", "beta_min"), CLI.getfloat("rir", "beta_max")))
            rooms.append(augment.RoomSpec(room.dimensions, room.source_pos, room.mic_pos, beta, RIR_MAX_ORDER))
        spec = augment.CorruptionSpec(
            CLI.getfloat("augment", "snr_mean_db"),
            CLI.getfloat("augment", "snr_std_db"),
            CLI.getfloat("augment", "noise_music_split"),
            rng_seed=seed,
        )
        return PrepState(
            seed, lexicon_path, frequency_path, scanned, hypotheses_path, truth, malformed,
            clean, by_source, rooms, synth.make_noise_pool(4, 2.5, rng),
            synth.make_music_pool(2, 2.5, rng),
            augment.MixRecipe.from_table_row(CLI.getstr("augment", "table_row"), s.recipe_scale),
            spec, workdir,
        )

    def operations(self, state):
        return ["confusables", "mining", "augment", "featurize"]

    def run(self, state):
        # a fresh output directory per pass, as each CLI run gets one
        if state.passes:
            shutil.rmtree(os.path.join(state.workdir, f"augment-{state.passes - 1}"))
        out_dir = os.path.join(state.workdir, f"augment-{state.passes}")
        state.passes += 1
        t0 = time.perf_counter()
        lex = lexicon.load_lexicon(state.lexicon_path, state.frequency_path)
        confusables = lexicon.build_confusable_set(
            lex, inputs.WAKE_WORD, CLI.getint("lexicon", "d_max"), SCAN_TOP_N
        )
        t1 = time.perf_counter()
        hyps, skipped = mining.load_hypotheses(state.hypotheses_path)
        mined = mining.mine_examples(
            hyps, inputs.WAKE_WORD, confusables,
            CLI.getfloat("mining", "pos_threshold"), CLI.getfloat("mining", "neg_threshold"),
        )
        balanced = mining.balance_examples(
            mined, CLI.getfloat("mining", "target_ratio"), rng_seed=state.seed
        )
        t2 = time.perf_counter()
        rirs = [augment.synthesize_rir(room, id=f"rir-{i:04d}") for i, room in enumerate(state.rooms)]
        rows = augment.build_mixed_dataset(
            state.clean, rirs, state.noises, state.musics, state.recipe, state.spec, out_dir, jobs=1
        )
        t3 = time.perf_counter()
        dataset = pipeline.dataset_from_manifest(rows, state.by_source, out_dir)
        t4 = time.perf_counter()
        parts = {"confusables": t1 - t0, "mining": t2 - t1, "augment": t3 - t2, "featurize": t4 - t3}
        return parts, (lex, confusables, skipped, mined, balanced, rows, len(dataset))

    def check(self, state, out, reference):
        lex, confusables, skipped, mined, balanced, rows, records = out
        return {
            "confusables": self._check_confusables(state, lex, confusables),
            "mining": self._check_mining(state, confusables, skipped, mined, balanced),
            "augment": self._check_augment(state, rows),
            "featurize": self._check_featurize(state, rows, records),
        }

    def _check_confusables(self, state, lex, confusables):
        wake = lex.pronunciations(inputs.WAKE_WORD)
        d_max = CLI.getint("lexicon", "d_max")
        failures = []
        stray = set(confusables.members) - state.scanned
        if stray:
            failures.append(f"members outside the scanned vocabulary: {sorted(stray)[:3]}")
        rng = np.random.default_rng([state.seed, 4])
        pool = sorted(state.scanned)
        sample = {pool[i] for i in rng.choice(len(pool), min(CHECK_SAMPLE, len(pool)), replace=False)}
        for word in sorted(sample | set(confusables.members)):
            dist = min(lexicon.levenshtein(p, w) for p in lex.pronunciations(word) for w in wake)
            expected = dist if 1 <= dist <= d_max else None
            if confusables.members.get(word) != expected:
                failures.append(f"{word}: set says {confusables.members.get(word)}, per-pair distance {dist}")
        return failures

    def _check_mining(self, state, confusables, skipped, mined, balanced):
        failures = []
        if skipped != state.malformed:
            failures.append(f"skipped {skipped} records, {state.malformed} are malformed")
        false_pos = [
            e.utt_id for e in mined if e.polarity == mining.POSITIVE and e.utt_id not in state.truth
        ]
        if false_pos:
            failures.append(f"mined positives without the wake word: {false_pos[:3]}")
        if any(e.trigger_word not in confusables for e in mined if e.polarity == mining.NEGATIVE):
            failures.append("a mined negative's trigger is not a confusable word")
        if not set(balanced) <= set(mined):
            failures.append("balancing produced examples that were not mined")
        n_pos = sum(e.polarity == mining.POSITIVE for e in balanced)
        if not n_pos or abs(2 * n_pos - len(balanced)) > 1:
            failures.append(f"unbalanced: {n_pos} positives of {len(balanced)}")
        return failures

    def _check_augment(self, state, rows):
        failures = []
        counts = tuple(sum(r.condition == c for r in rows) for c in augment.CONDITIONS)
        if counts != state.recipe.counts:
            failures.append(f"manifest counts {counts} differ from recipe {state.recipe.counts}")
        lo, hi = augment.SNR_CLAMP_DB
        for r in rows:
            noisy = r.condition in ("CTM+N", "CTM+RN")
            if not noisy and r.snr_db is not None:
                failures.append(f"{r.utt_id}: SNR on a condition without noise")
            elif noisy and not (
                r.snr_db is not None and math.isfinite(r.snr_db) and lo - 1e-9 <= r.snr_db <= hi + 1e-9
            ):
                failures.append(f"{r.utt_id}: realized SNR {r.snr_db} outside [{lo}, {hi}] dB")
        return failures

    def _check_featurize(self, state, rows, records):
        lengths = {c.id: c.samples.size for c in state.clean}
        expected = sum(_frames(lengths[r.source_id]) for r in rows)
        if records != expected:
            return [f"dataset has {records} records, the manifest clips hold {expected} frames"]
        return []

    def rates(self, state, parts):
        total = state.recipe.total
        return {
            "confusables_words_per_s": (len(state.scanned) / parts["confusables"], "words/s"),
            "mine_records_per_s": (self.sizes.hypotheses / parts["mining"], "records/s"),
            "augment_utts_per_s": (total / parts["augment"], "utts/s"),
            "featurize_utts_per_s": (total / parts["featurize"], "utts/s"),
        }


WORKLOADS = {w.name: w for w in (TrainWorkload, DecodeWorkload, PrepWorkload)}
FULL_SIZES = {"train": TrainSizes(), "decode": DecodeSizes(), "prep": PrepSizes()}
# Smoke-test sizes: every code path, a few seconds per workload.
TINY_SIZES = {
    "train": TrainSizes(records=600, utterances=12),
    "decode": DecodeSizes(recording_s=(10.0, 20.0)),
    "prep": PrepSizes(vocabulary=300, hypotheses=300, rirs=2, clean_clips=6, recipe_scale=0.0001),
}
