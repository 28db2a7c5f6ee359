"""Command-line entry point wiring the pipeline stages.

Every setting, the seed and wake word too, is a key of the shared config
(overridable with repeated --set section.key=value flags) but for mine's
--no-balance; other flags name only inputs, outputs and worker count. The
config is parsed and checked whole before any subcommand starts, so a bad
value fails every subcommand alike; subcommands only look values up. Each
run's directory is named after the config hash and its stage flags
(inputs, --no-balance), so identical runs land on identical bytes. A
subcommand writes into a staging directory and returns its main file;
`main` alone renames that directory into place, replacing any earlier run
of the key whole, and prints the file's path. A failed stage leaves none.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime
failure (an output that cannot be written included).
"""

from __future__ import annotations

import argparse
import errno
import glob
import hashlib
import os
import shutil
import sys
import traceback

import numpy as np

from . import augment as aug
from . import decode as dec
from . import demo as demo_mod
from . import evaluate as ev
from . import lexicon as lex
from . import mining, pipeline
from .audio import read_wav
from .config import ConfigError, PipelineConfig, load_config
from .features import compute_lfbe
from .model import TrainingDiverged, load_model, save_model, train
from .tsv import DataError, read_tsv, write_tsv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


# --config and --set reach the run-dir key through the config hash;
# --jobs and --out never change output bytes
_NOT_IN_RUN_KEY = {"func", "command", "config", "set", "jobs", "out"}


def _run_paths(args, cfg: PipelineConfig) -> tuple[str, str]:
    """`<out>/<command>-<key>`, where the key hashes the config and the stage's
    own flags (input paths, --no-balance), and the staging directory beside it."""
    stage = sorted((k, v) for k, v in vars(args).items() if k not in _NOT_IN_RUN_KEY)
    key = f"{cfg.hash8()}\n{stage!r}"
    name = f"{args.command}-{hashlib.sha256(key.encode()).hexdigest()[:8]}"
    # the dot keeps a staging directory out of `<command>-*`
    return os.path.join(args.out, name), os.path.join(args.out, f".{name}.{os.getpid()}")


def _run_dir(args, cfg: PipelineConfig) -> str:
    """Create and return the staging directory that `main` commits."""
    path, staging = _run_paths(args, cfg)
    # named with our own pid, it belongs to no live run: a killed run of the key left it
    shutil.rmtree(staging, ignore_errors=True)
    try:
        os.makedirs(staging)
    except OSError as exc:
        raise ConfigError(f"--out: cannot create {path}: {exc.strerror}") from None
    return staging


def _commit(staging: str, path: str) -> None:
    """Rename `staging` to `path`, setting aside and removing what is there:
    an earlier run of the key, or, once, one that finished meanwhile."""
    old = f"{staging}.old"
    for retry in (False, True):
        shutil.rmtree(old, ignore_errors=True)
        try:
            os.rename(path, old)
        except FileNotFoundError:
            pass
        try:
            os.rename(staging, path)
            break
        except OSError as exc:
            if retry or exc.errno not in (errno.ENOTEMPTY, errno.EEXIST):
                raise
    shutil.rmtree(old, ignore_errors=True)


def _list_wavs(wav_dir: str) -> list[str]:
    if not os.path.isdir(wav_dir):
        raise DataError(f"{wav_dir}: not a directory")
    return sorted(glob.glob(os.path.join(wav_dir, "*.wav")))


def _load_clips(wav_dir: str, ids: set[str] | None = None):
    """The WAVs under wav_dir, or only those whose file stem (the clip id) is in ids."""
    paths = _list_wavs(wav_dir)
    if ids is not None:
        paths = [p for p in paths if os.path.splitext(os.path.basename(p))[0] in ids]
    if not paths:
        raise DataError(f"{wav_dir}: no wav files" + ("" if ids is None else " for the listed ids"))
    return [read_wav(p) for p in paths]


def _jobs(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _read_references(path: str) -> dict[str, list[tuple[int, int]]]:
    """Inclusive frame spans per utterance; spans of one utterance may not
    overlap (closed intervals). `evaluate.score` relies on this check."""
    refs: dict[str, list[tuple[int, int]]] = {}

    def add(utt_id: str, start: int, end: int) -> None:
        if not 0 <= start <= end:
            raise ValueError(f"reference span needs 0 <= start <= end, got {start}, {end}")
        spans = refs.setdefault(utt_id, [])
        for s, e in spans:
            if start <= e and s <= end:
                raise ValueError(f"{utt_id}: span {start}-{end} overlaps span {s}-{e}")
        spans.append((start, end))

    read_tsv(path, (str, int, int), add)
    return refs


def _read_utt_frames(path: str) -> dict[str, int]:
    frames: dict[str, int] = {}

    def add(utt_id: str, count: int) -> None:
        if count < 1:
            raise ValueError(f"frame count {count} is below 1")
        if utt_id in frames:
            raise ValueError(f"duplicate utt_id {utt_id!r}")
        frames[utt_id] = count

    read_tsv(path, (str, int), add)
    return frames


# --- subcommands ---------------------------------------------------------------


def cmd_rir_gen(args, cfg: PipelineConfig) -> str:
    # the rooms the demo's training mix draws from the same `rir` settings
    rooms = pipeline.rooms(cfg, cfg.get("rir", "count"), np.random.default_rng(cfg.get("run", "seed")))
    # every room is valid before the run directory exists
    out = _run_dir(args, cfg)
    rows = []
    for i, room in enumerate(rooms):
        rir = aug.synthesize_rir(room, id=f"rir-{i:04d}")
        aug.rir_to_wav(rir, os.path.join(out, f"{rir.id}.wav"))
        # relative to rirs.tsv, so the file moves with its directory
        rows.append((rir.id, f"{rir.id}.wav"))
    path = os.path.join(out, "rirs.tsv")
    write_tsv(path, rows)
    return path


def cmd_augment(args, cfg: PipelineConfig) -> str:
    # load_config built this recipe once to check it, so it cannot fail here
    row, scale = cfg.get("augment", "table_row"), cfg.get("augment", "recipe_scale")
    recipe = aug.MixRecipe.from_table_row(row, scale)
    # --mined reads only utterances with mined examples, so the augmented
    # set inherits frame targets cleanly at training time
    wanted = {e.utt_id for e in mining.read_mined(args.mined)} if args.mined else None
    clean = _load_clips(args.clean_dir, wanted)
    rirs = (
        [aug.rir_from_wav(p) for p in _list_wavs(args.rir_dir)] if args.rir_dir else []
    )
    noises = _load_clips(args.noise_dir) if args.noise_dir else []
    musics = _load_clips(args.music_dir) if args.music_dir else []
    out = _run_dir(args, cfg)
    pipeline.augment(cfg, clean, rirs, noises, musics, recipe, cfg.get("run", "seed"), out, args.jobs)
    return os.path.join(out, "manifest.tsv")


def cmd_confusables(args, cfg: PipelineConfig) -> str:
    wake = pipeline.wake_word(cfg)
    lexicon = lex.load_lexicon(args.lexicon, args.frequencies)
    confusables = pipeline.confusables(cfg, lexicon, wake)
    out = _run_dir(args, cfg)
    path = os.path.join(out, "confusables.tsv")
    lex.write_confusables(confusables, path)
    return path


def cmd_mine(args, cfg: PipelineConfig) -> str:
    wake = pipeline.wake_word(cfg)
    confusables = lex.read_confusables(args.confusables, wake)
    hyps, _ = mining.load_hypotheses(args.hypotheses)
    if not hyps:
        raise DataError(f"{args.hypotheses}: no usable hypotheses")
    examples = pipeline.mine(cfg, hyps, wake, confusables, cfg.get("run", "seed"), args.balance)
    out = _run_dir(args, cfg)
    path = os.path.join(out, "mined.tsv")
    mining.write_mined(examples, path)
    return path


def cmd_train(args, cfg: PipelineConfig) -> str:
    train_cfg, model_cfg = pipeline.model_configs(cfg, "training", cfg.get("run", "seed"))
    examples = mining.read_mined(args.mined)
    if not examples:
        raise DataError(f"{args.mined}: no mined examples")
    if args.augment_manifest:
        rows = aug.read_manifest(args.augment_manifest)
        by_id = {e.utt_id: e for e in examples}
        dataset = pipeline.dataset_from_manifest(rows, by_id, os.path.dirname(args.augment_manifest))
    else:
        dataset = pipeline.dataset_from_examples(examples, args.audio_dir)
    model, log = train(dataset, train_cfg, model_cfg)
    out = _run_dir(args, cfg)
    ckpt = os.path.join(out, "model.ckpt")
    save_model(model, ckpt)
    write_tsv(
        os.path.join(out, "train_log.txt"),
        [(str(epoch), f"{loss:.6f}") for epoch, loss in enumerate(log, 1)],
    )
    return ckpt


def _decode_traces(args):
    """Each WAV's trace by clip id, one after another, each on over_blocks' threads."""
    paths = _list_wavs(args.wav_dir)
    if not paths:
        raise DataError("no evaluation inputs")
    model = load_model(args.model)
    traces = {}
    for path in paths:
        clip = read_wav(path)
        try:
            lfbe = compute_lfbe(clip)
        except DataError as exc:  # a clip shorter than one window
            raise DataError(f"{path}: {exc}") from None
        traces[clip.id] = dec.posterior_trace(model, lfbe)
    return traces


def cmd_decode(args, cfg: PipelineConfig) -> str:
    decode_cfg = dec.DecodeConfig(
        cfg.get("decoding", "smooth_window_frames"),
        cfg.get("decoding", "threshold"),
        cfg.get("decoding", "min_gap_frames"),
    )
    traces = _decode_traces(args)
    out = _run_dir(args, cfg)
    detections = []
    frames_rows = []
    for utt_id in sorted(traces):
        smoothed = dec.smooth(traces[utt_id], decode_cfg.smooth_window_frames)
        detections.extend(dec.detect_peaks(smoothed, decode_cfg, utt_id))
        frames_rows.append((utt_id, str(len(traces[utt_id]))))
    dec.write_detections(detections, os.path.join(out, "detections.tsv"))
    write_tsv(os.path.join(out, "utt_frames.tsv"), frames_rows)
    return os.path.join(out, "detections.tsv")


def cmd_eval(args, cfg: PipelineConfig) -> str:
    detections = dec.read_detections(args.detections)
    utt_frames = _read_utt_frames(args.utt_frames)
    # the evaluated set is what was decoded; ignore references outside it
    all_refs = _read_references(args.references)
    references = {u: all_refs.get(u, []) for u in utt_frames}
    by_utt: dict[str, list] = {}
    for d in detections:
        by_utt.setdefault(d.utt_id, []).append(d)
    result = ev.score(by_utt, references, utt_frames, cfg.get("decoding", "tolerance_frames"))
    out = _run_dir(args, cfg)
    line = (
        f"frr={result.frr:.6f} far_per_hour={result.far_per_hour:.6f} "
        f"tp={result.true_positives} fr={result.false_rejects} "
        f"fa={result.false_accepts} hours={result.total_audio_hours:.6f}"
    )
    path = os.path.join(out, "eval.txt")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(line + "\n")
    return path


def cmd_det(args, cfg: PipelineConfig) -> str:
    all_refs = _read_references(args.references)
    traces = _decode_traces(args)
    references = {u: all_refs.get(u, []) for u in traces}
    results = pipeline.det(cfg, traces, references, cfg.get("decoding", "smooth_window_frames"))
    out = _run_dir(args, cfg)
    ev.write_det_csv(results, os.path.join(out, "det.csv"))
    ev.det_svg([("model", results)], os.path.join(out, "det.svg"))
    return os.path.join(out, "det.csv")


def cmd_e2e_demo(args, cfg: PipelineConfig) -> str:
    out = _run_dir(args, cfg)
    demo_mod.run_demo_suite(out, cfg.get("demo", "seeds"), cfg, args.jobs)
    return os.path.join(out, "suite_summary.json")


# --- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wwspot", description="wake word spotting pipeline"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="sectioned key-value config file")
    common.add_argument(
        "--set",
        dest="set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config value (repeatable)",
    )
    common.add_argument("--out", default="runs")
    # only the subcommands that fan work out over a process pool
    fans_out = argparse.ArgumentParser(add_help=False)
    fans_out.add_argument("--jobs", type=_jobs, default=1, help="worker processes (>= 1, one per core at most)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rir-gen", parents=[common], help="synthesize an RIR pool")
    p.set_defaults(func=cmd_rir_gen)

    p = sub.add_parser("augment", parents=[common, fans_out], help="build the mixed-condition set")
    p.add_argument("--clean-dir", required=True)
    p.add_argument("--rir-dir")
    p.add_argument("--noise-dir")
    p.add_argument("--music-dir")
    p.add_argument("--mined", help="restrict the clean pool to these mined utterances")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("confusables", parents=[common], help="build the confusable-word set")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--frequencies")
    p.set_defaults(func=cmd_confusables)

    p = sub.add_parser("mine", parents=[common], help="mine examples from hypotheses")
    p.add_argument("--hypotheses", required=True)
    p.add_argument("--confusables", required=True)
    p.add_argument("--no-balance", dest="balance", action="store_false")
    p.set_defaults(func=cmd_mine, balance=True)

    p = sub.add_parser("train", parents=[common], help="train the spotter")
    p.add_argument("--mined", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--audio-dir")
    source.add_argument("--augment-manifest")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decode", parents=[common], help="detect wake words")
    p.add_argument("--model", required=True)
    p.add_argument("--wav-dir", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", parents=[common], help="score detections")
    p.add_argument("--detections", required=True)
    p.add_argument("--utt-frames", required=True)
    p.add_argument("--references", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("det", parents=[common], help="sweep thresholds into a DET curve")
    p.add_argument("--model", required=True)
    p.add_argument("--wav-dir", required=True)
    p.add_argument("--references", required=True)
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("e2e-demo", parents=[common, fans_out], help="full synthetic-corpus comparison")
    p.set_defaults(func=cmd_e2e_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    path = staging = None
    try:
        cfg = load_config(args.config, args.set)
        path, staging = _run_paths(args, cfg)
        main_file = args.func(args, cfg)
        _commit(staging, path)
        # stdout is written after the commit, so a failed write is the one exit 4 that keeps a run
        print(os.path.join(path, os.path.relpath(main_file, staging)))
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDiverged as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:  # an output that cannot be written; inputs raise DataError
        print(f"runtime failure: {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception:
        traceback.print_exc()
        return EXIT_RUNTIME
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
