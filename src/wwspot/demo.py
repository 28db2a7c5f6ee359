"""End-to-end demo: clean-only vs multi-condition training.

Generates the synthetic corpus, mines balanced examples from its
hypotheses, trains one model on clean audio and one on the
four-condition augmented mix built from the same clips, then scores both
on a held-out test set that is reverberated and corrupted. Everything is
driven by one integer seed and is bit-reproducible.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from . import config as conf
from .audio import read_wav
from .augment import (
    CorruptionSpec,
    MixRecipe,
    build_mixed_dataset,
    corrupt,
    reverberate,
    synthesize_rir,
    write_manifest,
)
from .config import PipelineConfig
from .decode import DecodeConfig, average_duration_frames, posterior_trace
from .evaluate import EvalResult, det_curve, det_svg, write_det_csv
from .features import FRAMES_PER_S, compute_lfbe
from .lexicon import build_confusable_set, load_lexicon
from .mining import balance_examples, load_hypotheses, mine_examples
from .model import train
from .pipeline import dataset_from_examples, dataset_from_manifest
from .synth import (
    WAKE_WORD,
    generate_utterances,
    make_music_pool,
    make_noise_pool,
    make_room_pool,
    stream_utterances,
    write_corpus,
    write_lexicon_files,
)


# share of training utterances that contain the wake word
WAKE_FRACTION = 0.55


def frr_at_far(results: list[EvalResult], far_value: float) -> float:
    """FRR linearly interpolated at a FAR value on the curve's lower
    envelope (several thresholds can share one FAR; an operator would
    pick the best of them). Clamps outside the swept range."""
    envelope: dict[float, float] = {}
    for r in results:
        far = r.far_per_hour
        envelope[far] = min(envelope.get(far, 1.0), r.frr)
    pts = sorted(envelope.items())
    fars = np.array([p[0] for p in pts])
    frrs = np.array([p[1] for p in pts])
    return float(np.interp(far_value, fars, frrs))


def median_operating_far(*curves: list[EvalResult]) -> float:
    """Median of the positive FAR values across the given curves; the
    all-zero degenerate case falls back to the overall median."""
    fars = [r.far_per_hour for results in curves for r in results]
    positive = [f for f in fars if f > 0]
    return float(np.median(positive if positive else fars))


def _pools(prefix: str, rooms: int, noises: int, musics: int, rng, room_settings=()) -> tuple:
    """RIRs of random rooms, then 2.5 s noise and music clips, drawn in that
    order; `room_settings` is `rir`'s (max_order, beta_min, beta_max), and
    without it the rooms are the test set's fixed ones."""
    rirs = [
        synthesize_rir(room, id=f"{prefix}-rir-{i}")
        for i, room in enumerate(make_room_pool(rooms, rng, *room_settings))
    ]
    return rirs, make_noise_pool(noises, 2.5, rng), make_music_pool(musics, 2.5, rng)


def _test_set(seed: int, n_test: int, snr_db: float) -> tuple[dict, dict]:
    """The held-out test set, reverberated and corrupted at `snr_db` with a
    0.5 noise/music split, kept only as each utterance's LFBE and its
    reference wake-word spans in frames."""
    spec = CorruptionSpec(snr_db, 0.0, 0.5)
    test_rng = np.random.default_rng([seed, 2])
    utts = generate_utterances("test", n_test, 0.5, test_rng)
    rirs, noises, musics = _pools("test", 8, 6, 4, test_rng)
    lfbes, references = {}, {}
    for utt in utts:
        rir, noise, music = (p[int(test_rng.integers(len(p)))] for p in (rirs, noises, musics))
        clip, _ = corrupt(reverberate(utt.clip, rir), noise, music, spec, test_rng)
        lfbes[utt.utt_id] = compute_lfbe(clip)
        references[utt.utt_id] = [
            (int(round(s * FRAMES_PER_S)), int(round(e * FRAMES_PER_S)))
            for s, e in utt.wake_spans()
        ]
    return lfbes, references


def run_demo(
    out_dir: str | os.PathLike, seed: int, cfg: PipelineConfig, jobs: int = 1
) -> dict:
    """One clean-vs-multi-condition comparison; returns the summary, also
    written to summary.json. `demo` sizes the corpus, test set and model, and
    the other stages read the subcommands' sections, except that the recipe
    row is scaled to the mined examples and the smoothing window is their
    average duration. The test set, the yardstick, depends only on the seed,
    `demo.n_test` and `demo.test_snr_db`. The arms run one at a time, each
    dropping its training set and model before the next starts."""
    t0 = time.monotonic()
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)

    # 1. corpus
    corpus_rng = np.random.default_rng([seed, 1])
    train_wav = os.path.join(out_dir, "train_wav")
    hyp_path = os.path.join(out_dir, "hypotheses.jsonl")
    write_corpus(
        stream_utterances("train", cfg.get("demo", "n_train"), WAKE_FRACTION, corpus_rng),
        train_wav, hyp_path, corpus_rng,
    )
    lex_path = os.path.join(out_dir, "lexicon.txt")
    freq_path = os.path.join(out_dir, "frequencies.txt")
    write_lexicon_files(lex_path, freq_path)

    # 2. held-out test set
    test_lfbes, references = _test_set(seed, cfg.get("demo", "n_test"), cfg.get("demo", "test_snr_db"))

    # 3. confusables and mining
    lexicon = load_lexicon(lex_path, freq_path)
    confusables = build_confusable_set(
        lexicon, WAKE_WORD, cfg.get("lexicon", "d_max"), cfg.get("lexicon", "top_n_frequent")
    )
    hyps, _ = load_hypotheses(hyp_path)
    mined = mine_examples(
        hyps, WAKE_WORD, confusables, cfg.get("mining", "pos_threshold"), cfg.get("mining", "neg_threshold")
    )
    balanced = balance_examples(mined, cfg.get("mining", "target_ratio"), rng_seed=seed)
    by_id = {ex.utt_id: ex for ex in balanced}

    # 4. multi-condition mix of the same clips; the clean pool goes once the mix is written.
    # With both polarities kept, every augmented condition gets at least one utterance.
    row = cfg.get("augment", "table_row")
    recipe = MixRecipe.from_table_row(row, len(balanced) / MixRecipe.from_table_row(row, 1.0).total)
    room_settings = [cfg.get("rir", key) for key in ("max_order", "beta_min", "beta_max")]
    mct_dir = os.path.join(out_dir, "mct")
    rows = build_mixed_dataset(
        [read_wav(os.path.join(train_wav, f"{ex.utt_id}.wav")) for ex in balanced],
        *_pools("mct", 12, 8, 5, np.random.default_rng([seed, 3]), room_settings),
        recipe, conf.corruption_spec(cfg, seed), mct_dir, jobs=jobs,
    )
    write_manifest(rows, os.path.join(mct_dir, "manifest.tsv"))

    # 5. each arm trains identically, then decodes the test set and sweeps
    train_cfg, model_cfg = conf.model_configs(cfg, "demo", seed)
    sweep, tolerance = cfg.get("decoding", "thresholds"), cfg.get("decoding", "tolerance_frames")
    decode_cfg = DecodeConfig(
        average_duration_frames(balanced), sweep[0], cfg.get("decoding", "min_gap_frames")
    )
    arms = (
        ("clean", "clean-only", lambda: dataset_from_examples(balanced, train_wav)),
        ("mct", "multi-condition", lambda: dataset_from_manifest(rows, by_id, mct_dir)),
    )
    curves, losses = {}, {}
    for arm, _, build in arms:
        model, log = train(build(), train_cfg, model_cfg)
        traces = {u: posterior_trace(model, lfbe) for u, lfbe in test_lfbes.items()}
        curves[arm] = det_curve(traces, references, decode_cfg, sweep, tolerance)
        write_det_csv(curves[arm], os.path.join(out_dir, f"det_{arm}.csv"))
        losses[arm] = log[-1] if log else None
        del model, traces
    det_svg(
        [(label, curves[arm]) for arm, label, _ in arms],
        os.path.join(out_dir, "det_compare.svg"),
        title="clean-only vs multi-condition training",
    )

    operating_far = median_operating_far(*curves.values())
    frr_clean = frr_at_far(curves["clean"], operating_far)
    frr_mct = frr_at_far(curves["mct"], operating_far)
    summary = {
        "seed": seed,
        "mined_examples": len(balanced),
        "mct_counts": recipe.counts,
        "smooth_window_frames": decode_cfg.smooth_window_frames,
        "operating_far_per_hour": operating_far,
        "frr_clean": frr_clean,
        "frr_mct": frr_mct,
        "relative_frr_reduction": (frr_clean - frr_mct) / frr_clean if frr_clean else 0.0,
        **{f"final_train_loss_{arm}": loss for arm, loss in losses.items()},
        "wall_seconds": round(time.monotonic() - t0, 2),
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def run_demo_suite(
    out_dir: str | os.PathLike, seeds: list[int], cfg: PipelineConfig, jobs: int = 1
) -> dict:
    """Run the demo once per seed and aggregate the comparison."""
    out_dir = os.fspath(out_dir)
    runs = []
    for seed in seeds:
        runs.append(run_demo(os.path.join(out_dir, f"seed-{seed}"), seed, cfg, jobs))
    mean_clean = float(np.mean([r["frr_clean"] for r in runs]))
    mean_mct = float(np.mean([r["frr_mct"] for r in runs]))
    suite = {
        "seeds": seeds,
        "runs": runs,
        "mean_frr_clean": mean_clean,
        "mean_frr_mct": mean_mct,
        "relative_frr_reduction": (mean_clean - mean_mct) / mean_clean
        if mean_clean
        else 0.0,
    }
    with open(os.path.join(out_dir, "suite_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(suite, fh, indent=2)
    return suite
