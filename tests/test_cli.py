import argparse
import glob
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from oracles import handwritten_checkpoint, limit_file_size, riff, unscaled_model, wav_fmt

from wwspot import tsv
from wwspot.audio import SAMPLE_RATE
from wwspot.augment import read_manifest
from wwspot.cli import _read_references, _read_utt_frames, build_parser, main
from wwspot.config import SCHEMA
from wwspot.decode import read_detections
from wwspot.features import FRAMES_PER_S
from wwspot.lexicon import load_lexicon, read_confusables
from wwspot.mining import NEGATIVE, POSITIVE, MinedExample, read_mined, write_mined
from wwspot.synth import (
    WAKE_WORD,
    generate_utterances,
    make_noise_pool,
    write_corpus,
    write_lexicon_files,
)
from wwspot.tsv import DataError


@pytest.fixture()
def corpus(tmp_path):
    rng = np.random.default_rng(0)
    utts = generate_utterances("utt", 24, 0.5, rng)
    wav_dir = tmp_path / "wav"
    hyp = tmp_path / "hypotheses.jsonl"
    write_corpus(utts, wav_dir, hyp, rng)
    lexicon = tmp_path / "lexicon.txt"
    freqs = tmp_path / "frequencies.txt"
    write_lexicon_files(lexicon, freqs)
    noise_dir = tmp_path / "noise"
    noise_dir.mkdir()
    for clip in make_noise_pool(3, 1.5, rng):
        from wwspot.audio import AudioClip, write_wav

        write_wav(AudioClip(clip.samples, id=clip.id), noise_dir / f"{clip.id}.wav")
    rir_dir = tmp_path / "rirs"
    rir_dir.mkdir()
    from wwspot.augment import rir_to_wav, synthesize_rir
    from wwspot.synth import make_room_pool

    for i, room in enumerate(make_room_pool(2, rng, max_order=2)):
        rir_to_wav(synthesize_rir(room, id=f"rir{i}"), rir_dir / f"rir{i}.wav")
    return {
        "wav": str(wav_dir),
        "hyp": str(hyp),
        "lexicon": str(lexicon),
        "freqs": str(freqs),
        "noise": str(noise_dir),
        "rirs": str(rir_dir),
        "utts": utts,
    }


def _single_run_dir(out, prefix):
    dirs = glob.glob(os.path.join(out, f"{prefix}-*"))
    assert len(dirs) == 1
    return dirs[0]


def test_unknown_config_key_exits_2(tmp_path):
    rc = main(
        ["confusables", "--lexicon", "x", "--set", "nosuch.key=1", "--out", str(tmp_path)]
    )
    assert rc == 2


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(
            ["mine", "--hypotheses", "{hyp}", "--confusables", "unused.tsv",
             "--set", f"lexicon.wake_word={WAKE_WORD}", "--set", "mining.pos_threshold=1.01"],
            id="mine",
        ),
        # --model and --wav-dir do not exist: the threshold must fail first
        pytest.param(
            ["det", "--model", "missing.ckpt", "--wav-dir", "missing", "--references",
             "missing.tsv", "--set", "decoding.thresholds=1.5,0.5"],
            id="det",
        ),
        pytest.param(
            ["det", "--model", "missing.ckpt", "--wav-dir", "missing", "--references",
             "missing.tsv", "--set", "decoding.thresholds=0.5,nan"],
            id="det-nan",
        ),
        pytest.param(
            ["det", "--model", "missing.ckpt", "--wav-dir", "missing", "--references",
             "missing.tsv", "--set", "decoding.thresholds=0.5"],
            id="det-one",
        ),
    ],
)
def test_mine_threshold_out_of_range_exits_2(tmp_path, corpus, command):
    argv = [arg.format(hyp=corpus["hyp"]) for arg in command]
    assert main(argv + ["--out", str(tmp_path / "runs")]) == 2


def test_det_without_inputs_exits_3(tmp_path, corpus, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    refs = tmp_path / "refs.tsv"
    refs.write_text("")
    # train a throwaway checkpoint first
    rc_conf = main(
        [
            "confusables",
            "--lexicon", corpus["lexicon"],
            "--frequencies", corpus["freqs"],
            "--set", f"lexicon.wake_word={WAKE_WORD}",
            "--out", str(tmp_path / "runs"),
        ]
    )
    assert rc_conf == 0
    conf_path = os.path.join(_single_run_dir(str(tmp_path / "runs"), "confusables"), "confusables.tsv")
    rc_mine = main(
        [
            "mine",
            "--hypotheses", corpus["hyp"],
            "--confusables", conf_path,
            "--set", f"lexicon.wake_word={WAKE_WORD}",
            "--out", str(tmp_path / "runs"),
        ]
    )
    assert rc_mine == 0
    mined = os.path.join(_single_run_dir(str(tmp_path / "runs"), "mine"), "mined.tsv")
    rc_train = main(
        [
            "train",
            "--mined", mined,
            "--audio-dir", corpus["wav"],
            "--set", "training.epochs=1",
            "--set", "training.bottleneck=8",
            "--set", "training.hidden=16",
            "--set", "training.minibatch_size=512",
            "--out", str(tmp_path / "runs"),
        ]
    )
    assert rc_train == 0
    ckpt = os.path.join(_single_run_dir(str(tmp_path / "runs"), "train"), "model.ckpt")
    rc = main(
        [
            "det",
            "--model", ckpt,
            "--wav-dir", str(empty),
            "--references", str(refs),
            "--out", str(tmp_path / "runs"),
        ]
    )
    assert rc == 3
    assert "no evaluation inputs" in capsys.readouterr().err


CHAIN_SCRIPT = """
import contextlib, io, json, os, sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name}: the runtime must need numpy alone")


sys.meta_path.insert(0, NoScipy())
from wwspot.cli import main

dirs = []
for argv in json.loads(sys.argv[1]):
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main([arg.format(*dirs) for arg in argv]) == 0, argv
    lines = printed.getvalue().splitlines()
    assert len(lines) == 1 and os.path.isfile(lines[0]), (argv, lines)
    dirs.append(os.path.dirname(lines[0]))
print(json.dumps(dirs))
"""


def test_full_cli_pipeline(tmp_path, corpus):
    # confusables -> mine -> augment --mined -> train (from the manifest
    # and from the WAVs) -> decode -> eval -> det; past the corpus, each
    # stage reads only what the stages before it wrote. The chain runs
    # where importing scipy fails, as on a numpy-only install, and each
    # stage prints one line, the path of its main file; "{i}" is that file's directory
    runs, again = str(tmp_path / "runs"), str(tmp_path / "again")
    hyp = tmp_path / "hypotheses.jsonl"
    hyp.write_text(open(corpus["hyp"]).read() + '{"utt_id": "u-bad", "audio_path": "x.wav", "words": [\n')
    refs = tmp_path / "refs.tsv"
    rows = []
    for utt in corpus["utts"]:
        for s, e in utt.wake_spans():
            rows.append(f"{utt.utt_id}\t{round(s * FRAMES_PER_S)}\t{round(e * FRAMES_PER_S)}")
    refs.write_text("\n".join(rows) + "\n")
    wake = ["--set", f"lexicon.wake_word={WAKE_WORD}"]
    small = ["--set", "training.epochs=2", "--set", "training.bottleneck=8", "--set", "training.hidden=16"]
    from_manifest = ["train", "--mined", "{1}/mined.tsv", "--augment-manifest", "{2}/manifest.tsv", *small]
    stages = [
        ["confusables", "--lexicon", corpus["lexicon"], "--frequencies", corpus["freqs"], *wake, "--out", runs],
        ["mine", "--hypotheses", str(hyp), "--confusables", "{0}/confusables.tsv", *wake,
         "--set", "run.seed=1", "--out", runs],
        ["augment", "--clean-dir", corpus["wav"], "--mined", "{1}/mined.tsv", "--rir-dir", corpus["rirs"],
         "--noise-dir", corpus["noise"], "--set", "augment.table_row=50K",
         "--set", "augment.recipe_scale=0.0005", "--set", "augment.noise_music_split=1.0", "--out", runs],
        from_manifest + ["--out", runs],
        # the manifest names its WAVs relative to itself, so any --out root trains the same bytes
        from_manifest + ["--out", again],
        ["train", "--mined", "{1}/mined.tsv", "--audio-dir", corpus["wav"], *small, "--out", runs],
        ["decode", "--model", "{3}/model.ckpt", "--wav-dir", corpus["wav"], "--out", runs],
        ["eval", "--detections", "{6}/detections.tsv", "--utt-frames", "{6}/utt_frames.tsv",
         "--references", str(refs), "--out", runs],
        ["det", "--model", "{5}/model.ckpt", "--wav-dir", corpus["wav"], "--references", str(refs),
         "--set", "decoding.thresholds=lin:0.9:0.1:9", "--out", runs],
    ]
    proc = subprocess.run([sys.executable, "-c", CHAIN_SCRIPT, json.dumps(stages)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert f"{hyp}: skipped 1 malformed hypothesis records" in proc.stderr
    conf, mined, augmented, trained, retrained, _, decoded, _, det_dir = json.loads(proc.stdout)
    assert os.path.getsize(os.path.join(conf, "confusables.tsv")) > 0
    mined_ids = {e.utt_id for e in read_mined(os.path.join(mined, "mined.tsv"))}
    assert {r.source_id for r in read_manifest(os.path.join(augmented, "manifest.tsv"))} <= mined_ids
    assert retrained.startswith(again)
    ckpts = [open(os.path.join(d, "model.ckpt"), "rb").read() for d in (trained, retrained)]
    assert ckpts[0] == ckpts[1]
    assert os.path.isfile(os.path.join(decoded, "detections.tsv"))
    csv = open(os.path.join(det_dir, "det.csv")).read().splitlines()
    assert csv[0] == "threshold,far_per_hour,frr"
    assert len(csv) == 10
    assert os.path.isfile(os.path.join(det_dir, "det.svg"))


def test_augment_cli_table_row_scaled_counts(tmp_path, corpus):
    runs_a = str(tmp_path / "runs-a")
    runs_b = str(tmp_path / "runs-b")
    args = [
        "augment",
        "--clean-dir", corpus["wav"],
        "--rir-dir", corpus["rirs"],
        "--noise-dir", corpus["noise"],
        "--set", "augment.table_row=200K",
        "--set", "augment.recipe_scale=0.001",
        "--set", "augment.noise_music_split=1.0",
        "--set", "run.seed=5",
    ]
    assert main(args + ["--out", runs_a]) == 0
    manifest_a = os.path.join(_single_run_dir(runs_a, "augment"), "manifest.tsv")
    rows = read_manifest(manifest_a)
    counts = {c: 0 for c in ("CTM", "CTM+R", "CTM+N", "CTM+RN")}
    for r in rows:
        counts[r.condition] += 1
    assert counts == {"CTM": 20, "CTM+R": 60, "CTM+N": 60, "CTM+RN": 60}

    # same seed and config reproduce the same bytes
    assert main(args + ["--out", runs_b]) == 0
    manifest_b = os.path.join(_single_run_dir(runs_b, "augment"), "manifest.tsv")
    assert open(manifest_a, "rb").read() == open(manifest_b, "rb").read()


def test_augment_mined_reads_only_the_mined_wavs(tmp_path, corpus):
    clean = tmp_path / "clean"
    shutil.copytree(corpus["wav"], clean)
    (clean / "x.wav").write_bytes(b"not a wav")
    mined_ids = [u.utt_id for u in corpus["utts"][:6]]
    mined = tmp_path / "mined.tsv"
    write_mined(
        [MinedExample(u, POSITIVE, WAKE_WORD, (0.1, 0.2), 0.9) for u in mined_ids], mined
    )
    args = [
        "augment",
        "--clean-dir", str(clean),
        "--rir-dir", corpus["rirs"],
        "--noise-dir", corpus["noise"],
        "--set", "augment.table_row=50K",
        "--set", "augment.recipe_scale=0.0005",
        "--set", "augment.noise_music_split=1.0",
    ]
    # the unmined x.wav is unreadable, so reading the whole directory fails
    assert main(args + ["--out", str(tmp_path / "all")]) == 3
    assert main(args + ["--mined", str(mined), "--out", str(tmp_path / "runs")]) == 0
    manifest = os.path.join(_single_run_dir(str(tmp_path / "runs"), "augment"), "manifest.tsv")
    rows = read_manifest(manifest)
    assert rows and {r.source_id for r in rows} <= set(mined_ids)


def test_augment_cli_needs_rir_pool_when_reverb_requested(tmp_path, corpus):
    rc = main(
        [
            "augment",
            "--clean-dir", corpus["wav"],
            "--noise-dir", corpus["noise"],
            "--set", "augment.table_row=50K",
            "--set", "augment.recipe_scale=0.001",
            "--out", str(tmp_path / "runs"),
        ]
    )
    assert rc == 3


def test_train_checkpoints_byte_identical_across_runs(tmp_path, corpus):
    runs = str(tmp_path / "runs")
    assert main(
        [
            "confusables",
            "--lexicon", corpus["lexicon"],
            "--frequencies", corpus["freqs"],
            "--set", f"lexicon.wake_word={WAKE_WORD}",
            "--out", runs,
        ]
    ) == 0
    conf = os.path.join(_single_run_dir(runs, "confusables"), "confusables.tsv")
    assert main(
        [
            "mine",
            "--hypotheses", corpus["hyp"],
            "--confusables", conf,
            "--set", f"lexicon.wake_word={WAKE_WORD}",
            "--out", runs,
        ]
    ) == 0
    mined = os.path.join(_single_run_dir(runs, "mine"), "mined.tsv")
    ckpts = []
    for attempt in ("x", "y"):
        out = str(tmp_path / attempt)
        assert main(
            [
                "train",
                "--mined", mined,
                "--audio-dir", corpus["wav"],
                "--set", "training.epochs=1",
                "--set", "training.bottleneck=8",
                "--set", "training.hidden=16",
                "--set", "run.seed=4",
                "--out", out,
            ]
        ) == 0
        ckpts.append(os.path.join(_single_run_dir(out, "train"), "model.ckpt"))
    assert open(ckpts[0], "rb").read() == open(ckpts[1], "rb").read()


def test_jobs_flag_is_bit_reproducible(tmp_path, corpus):
    base = [
        "augment",
        "--clean-dir", corpus["wav"],
        "--rir-dir", corpus["rirs"],
        "--noise-dir", corpus["noise"],
        "--set", "augment.table_row=50K",
        "--set", "augment.recipe_scale=0.0005",
        "--set", "augment.noise_music_split=1.0",
        "--set", "run.seed=6",
    ]
    assert main(base + ["--jobs", "1", "--out", str(tmp_path / "j1")]) == 0
    assert main(base + ["--jobs", "2", "--out", str(tmp_path / "j2")]) == 0
    # --jobs stays out of the run key
    aug_dirs = [_single_run_dir(str(tmp_path / out), "augment") for out in ("j1", "j2")]
    assert os.path.basename(aug_dirs[0]) == os.path.basename(aug_dirs[1])
    m1, m2 = (os.path.join(d, "manifest.tsv") for d in aug_dirs)
    assert open(m1, "rb").read() == open(m2, "rb").read()
    for row_line in open(m1).read().splitlines():
        rel = row_line.split("\t")[3]
        a, b = (open(os.path.join(d, rel), "rb").read() for d in aug_dirs)
        assert a == b


START_METHOD_SCRIPT = """
import json, multiprocessing, sys
from wwspot.cli import main

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    for argv in json.loads(sys.argv[2]):
        assert main(argv) == 0, argv
"""


def _tree_bytes(root):
    files = {}
    for path in glob.glob(os.path.join(root, "**", "*"), recursive=True):
        if os.path.isfile(path):
            files[os.path.relpath(path, root)] = open(path, "rb").read()
    return files


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_jobs_bytes_hold_under_the_forkserver_and_spawn_start_methods(tmp_path, corpus, method):
    # Python 3.14 starts pools on Linux with forkserver and macOS with spawn,
    # not fork: workers then get the context by pickle
    augment = ["augment", "--clean-dir", corpus["wav"], "--rir-dir", corpus["rirs"],
               "--noise-dir", corpus["noise"], "--set", "augment.table_row=50K",
               "--set", "augment.recipe_scale=0.0005",
               "--set", "augment.noise_music_split=1.0"]
    runs = [augment + ["--jobs", jobs, "--out", str(tmp_path / f"j{jobs}")] for jobs in ("1", "2")]
    script = tmp_path / "start_method_cli.py"
    script.write_text(START_METHOD_SCRIPT)
    proc = subprocess.run([sys.executable, str(script), method, json.dumps(runs)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    one, two = _tree_bytes(str(tmp_path / "j1")), _tree_bytes(str(tmp_path / "j2"))
    assert one == two
    assert sum(k.endswith("manifest.tsv") for k in one) == 1


def test_rir_gen(tmp_path):
    runs = str(tmp_path / "runs")
    assert main(["rir-gen", "--set", "rir.count=3", "--set", "run.seed=2", "--out", runs]) == 0
    rir_dir = _single_run_dir(runs, "rir-gen")
    wavs = glob.glob(os.path.join(rir_dir, "*.wav"))
    assert len(wavs) == 3

    with pytest.raises(SystemExit) as exc:
        main(["featurize", "--wav-dir", rir_dir, "--out", runs])
    assert exc.value.code == 2


def test_rir_gen_writes_the_rooms_the_demo_draws(tmp_path):
    # one make_room_pool call on the `rir` settings, as the demo's training mix makes
    from wwspot.augment import rir_to_wav, synthesize_rir
    from wwspot.synth import make_room_pool

    settings = {"run.seed": 3, "rir.count": 2, "rir.max_order": 2, "rir.beta_min": 0.2, "rir.beta_max": 0.3}
    argv = ["rir-gen", *(f"--set={k}={v}" for k, v in settings.items()), "--out", str(tmp_path / "runs")]
    assert main(argv) == 0
    rir_dir = _single_run_dir(str(tmp_path / "runs"), "rir-gen")
    for i, room in enumerate(make_room_pool(2, np.random.default_rng(3), 2, 0.2, 0.3)):
        rir_to_wav(synthesize_rir(room), tmp_path / "expected.wav")
        with open(os.path.join(rir_dir, f"rir-{i:04d}.wav"), "rb") as fh:
            assert fh.read() == (tmp_path / "expected.wav").read_bytes()


def test_rir_gen_lists_paths_relative_to_rirs_tsv(tmp_path):
    tables = []
    for out in ("a", "b/c"):
        runs = str(tmp_path / out)
        assert main(["rir-gen", "--set", "rir.count=2", "--out", runs]) == 0
        with open(os.path.join(_single_run_dir(runs, "rir-gen"), "rirs.tsv"), "rb") as fh:
            tables.append(fh.read())
    assert tables[0] == tables[1] == b"rir-0000\trir-0000.wav\nrir-0001\trir-0001.wav\n"


@pytest.mark.parametrize(
    "name, reason",
    [
        pytest.param("a\tb.wav", "contains a tab or line break", id="tab"),
        # the file name is the bytes b"a\xffb.wav", not valid UTF-8
        pytest.param("a\udcffb.wav", "is not valid UTF-8", id="non-utf8"),
    ],
)
def test_decode_refuses_a_tab_in_a_wav_name_with_exit_3(tmp_path, capsys, name, reason):
    from wwspot.audio import AudioClip, write_wav
    from wwspot.model import SpotterConfig, save_model

    wav_dir = tmp_path / "wav"
    wav_dir.mkdir()
    samples = np.random.default_rng(0).standard_normal(SAMPLE_RATE) * 0.1
    write_wav(AudioClip(samples), wav_dir / name)
    ckpt = tmp_path / "model.ckpt"
    save_model(unscaled_model(SpotterConfig(bottleneck=4, hidden=8)), ckpt)
    runs = str(tmp_path / "runs")
    rc = main(
        [
            "decode", "--model", str(ckpt), "--wav-dir", str(wav_dir),
            "--set", "decoding.threshold=0.000001", "--out", runs,
        ]
    )
    err = capsys.readouterr().err
    assert rc == 3
    assert f"detections.tsv: row 1: field 1 {reason}" in err
    assert not glob.glob(os.path.join(runs, "decode-*", "*.tsv"))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decode_rejects_a_float_wav_with_a_non_finite_sample(tmp_path, capsys, bad):
    from wwspot.model import SpotterConfig, save_model

    wav_dir = tmp_path / "wav"
    wav_dir.mkdir()
    samples = (np.random.default_rng(0).standard_normal(32000) * 0.1).astype("<f4")
    samples[16000] = bad
    wav = wav_dir / "u0.wav"
    wav.write_bytes(riff((b"fmt ", wav_fmt(3, 1, 32)), (b"data", samples.tobytes())))
    ckpt = tmp_path / "model.ckpt"
    save_model(unscaled_model(SpotterConfig(bottleneck=4, hidden=8)), ckpt)
    rc = main(
        [
            "decode", "--model", str(ckpt), "--wav-dir", str(wav_dir),
            "--out", str(tmp_path / "runs"),
        ]
    )
    assert rc == 3
    assert f"{wav}: non-finite samples" in capsys.readouterr().err


def test_a_pcm16_wav_and_its_float32_twin_decode_to_the_same_detections(tmp_path, capsys):
    from wwspot.audio import AudioClip, read_wav, write_wav
    from wwspot.model import SpotterConfig, save_model

    pcm16, float32 = tmp_path / "pcm16", tmp_path / "float32"
    pcm16.mkdir()
    float32.mkdir()
    write_wav(AudioClip(np.random.default_rng(0).standard_normal(SAMPLE_RATE) * 0.1), pcm16 / "u0.wav")
    samples = read_wav(pcm16 / "u0.wav").samples.astype("<f4")
    (float32 / "u0.wav").write_bytes(riff((b"fmt ", wav_fmt(3, 1, 32)), (b"data", samples.tobytes())))
    ckpt = tmp_path / "model.ckpt"
    save_model(unscaled_model(SpotterConfig(bottleneck=4, hidden=8)), ckpt)
    printed = []
    for wav_dir in (pcm16, float32):
        argv = ["decode", "--model", str(ckpt), "--wav-dir", str(wav_dir),
                "--set", "decoding.threshold=0.000001", "--out", str(tmp_path / "runs")]
        assert main(argv) == 0
        printed.append(capsys.readouterr().out.strip())
    assert printed[0] != printed[1]
    detections = [open(path, "rb").read() for path in printed]
    assert detections[0] and detections[0] == detections[1]


def test_decode_rejects_a_float_layer_size_in_the_checkpoint_with_exit_3(tmp_path, capsys):
    from wwspot.audio import AudioClip, write_wav
    from wwspot.model import SpotterConfig, save_model

    wav_dir = tmp_path / "wav"
    wav_dir.mkdir()
    write_wav(AudioClip(np.zeros(SAMPLE_RATE)), wav_dir / "u0.wav")
    ckpt = tmp_path / "model.ckpt"
    save_model(unscaled_model(SpotterConfig(bottleneck=4, hidden=8)), ckpt)
    ckpt.write_bytes(ckpt.read_bytes().replace(b'"hidden": 8,', b'"hidden": 8.0,', 1))
    rc = main(
        [
            "decode", "--model", str(ckpt), "--wav-dir", str(wav_dir),
            "--out", str(tmp_path / "runs"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 3
    assert f"{ckpt}: hidden must be an integer, got 8.0" in err
    assert "Traceback" not in err


def test_decode_refuses_a_checkpoint_of_another_input_width_with_exit_3(tmp_path, capsys):
    from wwspot.audio import AudioClip, write_wav

    wav_dir = tmp_path / "wav"
    wav_dir.mkdir()
    write_wav(AudioClip(np.zeros(SAMPLE_RATE)), wav_dir / "u0.wav")
    ckpt = tmp_path / "model.ckpt"
    handwritten_checkpoint(ckpt, 600)
    runs = tmp_path / "runs"
    rc = main(["decode", "--model", str(ckpt), "--wav-dir", str(wav_dir), "--out", str(runs)])
    out, err = capsys.readouterr()
    assert rc == 3
    assert f"data error: {ckpt}: unsupported input_dim 600" in err
    assert "Traceback" not in err
    assert out == ""
    assert not runs.exists()


def test_eval_rejects_duplicate_utt_ids(tmp_path, capsys):
    det_file = tmp_path / "dets.tsv"
    det_file.write_text("u0\t10\t20\t15\t0.8\n")
    frames = tmp_path / "frames.tsv"
    frames.write_text("u0\t100\nu0\t100\n")
    refs = tmp_path / "refs.tsv"
    refs.write_text("u0\t10\t20\n")
    rc = main(
        [
            "eval",
            "--detections", str(det_file),
            "--utt-frames", str(frames),
            "--references", str(refs),
            "--out", str(tmp_path / "runs"),
        ]
    )
    assert rc == 3
    assert "duplicate utt_id" in capsys.readouterr().err


_GOOD_TSV = {
    "detections": "u0\t10\t20\t15\t0.8\n",
    "utt_frames": "u0\t100\n",
    "refs": "u0\t10\t20\n",
    "mined": f"u0\t{POSITIVE}\tww\t0.1\t0.2\t0.9\n",
    "confusables": "word\t1\n",
    "manifest": "ctm-000000\tCTM\tu0\twav/ctm-000000.wav\tNA\tNA\n",
    "lexicon": "ww\tW W\n",
    "frequencies": "ww\t10\n",
}


# a second line with one field that does not parse or is out of range
_BAD_TSV_ROWS = [
    pytest.param("refs", "u1\tten\t20", id="refs"),
    pytest.param("refs", "u\udcff\t10\t20", id="refs-not-utf8"),  # byte 0xff
    pytest.param("refs", "u1\t20\t10", id="refs-end-before-start"),
    pytest.param("refs", "u0\t20\t30", id="refs-overlapping-span"),  # shares frame 20
    pytest.param("utt_frames", "u1\tmany", id="utt_frames"),
    pytest.param("utt_frames", "u1\t-100", id="utt_frames-negative-frames"),
    pytest.param("utt_frames", "u0\t100", id="utt_frames-duplicate-utt-id"),
    pytest.param("detections", "u1\t10\t20\t15\thigh", id="detections"),
    pytest.param("detections", "u0\t10\t20\t15\tnan", id="detections-nan-score"),
    pytest.param("detections", "u0\t10\t20\t15\t1.5", id="detections-score-above-1"),
    pytest.param("detections", "u0\t30\t20\t15\t0.9", id="detections-start-after-end"),
    pytest.param("detections", "u0\t10\t20\t25\t0.9", id="detections-peak-outside-span"),
    pytest.param("mined", f"u1\t{POSITIVE}\tww\tstart\t0.2\t0.9", id="mined"),
    pytest.param("mined", f"u1\t{POSITIVE}\tww\tnan\t0.2\t0.9", id="mined-nan-start"),
    pytest.param("mined", f"u1\t{POSITIVE}\tww\t0.3\t0.2\t0.9", id="mined-start-after-end"),
    pytest.param("mined", f"u1\t{POSITIVE}\tww\t0.1\t0.2\t7.5", id="mined-confidence-7.5"),
    pytest.param("mined", f"u0\t{NEGATIVE}\tww\t0.1\t0.2\t0.9", id="mined-duplicate-utt-id"),
    pytest.param("confusables", "other\tone", id="confusables"),
    pytest.param("confusables", "other\t-1", id="confusables-distance-below-1"),
    pytest.param("confusables", "WW\t1", id="confusables-wake-word"),
    pytest.param("confusables", "word\t2", id="confusables-duplicate-word"),
    pytest.param("frequencies", "ww\t90", id="frequencies-duplicate-word"),
    pytest.param(
        "manifest", "rev-000000\tCTM+R\tu0\twav/rev-000000.wav\tloud\tr0", id="manifest"
    ),
]


@pytest.mark.parametrize("bad, row", _BAD_TSV_ROWS)
def test_non_numeric_tsv_field_exits_3_with_file_and_line(tmp_path, capsys, bad, row):
    files = {}
    for name, text in _GOOD_TSV.items():
        path = tmp_path / f"{name}.tsv"
        text = text + row + "\n" if name == bad else text
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        files[name] = str(path)
    hypotheses = tmp_path / "hypotheses.jsonl"
    hypotheses.write_text("")
    argv = {
        "eval": ["eval", "--detections", files["detections"],
                 "--utt-frames", files["utt_frames"], "--references", files["refs"]],
        "train": ["train", "--mined", files["mined"], "--augment-manifest", files["manifest"]],
        "mine": ["mine", "--hypotheses", str(hypotheses),
                 "--confusables", files["confusables"], "--set", "lexicon.wake_word=ww"],
        "confusables": ["confusables", "--lexicon", files["lexicon"],
                        "--frequencies", files["frequencies"], "--set", "lexicon.wake_word=ww"],
    }
    command = {
        "mined": "train", "manifest": "train", "confusables": "mine", "frequencies": "confusables"
    }.get(bad, "eval")
    rc = main(argv[command] + ["--out", str(tmp_path / "runs")])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"{files[bad]}:2:" in err
    assert "Traceback" not in err


def test_mine_refuses_a_confusables_file_that_lists_the_wake_word(tmp_path, capsys):
    # a wake-word hit below the positive gate would otherwise be mined as a negative
    conf = tmp_path / "conf.tsv"
    conf.write_text(f"{WAKE_WORD}\t1\ncaly\t1\n")
    hyp = tmp_path / "hyp.jsonl"
    words = [{"w": WAKE_WORD, "conf": 0.6, "start": 0.1, "end": 0.5}]
    hyp.write_text(json.dumps({"utt_id": "u0", "audio_path": "u0.wav", "words": words}) + "\n")
    runs = tmp_path / "runs"
    rc = main(["mine", "--hypotheses", str(hyp), "--confusables", str(conf),
               "--set", f"lexicon.wake_word={WAKE_WORD}", "--set", "mining.pos_threshold=0.7",
               "--out", str(runs)])
    out, err = capsys.readouterr()
    assert rc == 3
    assert f"{conf}:1:" in err
    assert out == ""
    assert not runs.exists()


def test_mine_refuses_a_ratio_that_balances_one_polarity_away(tmp_path, capsys):
    # 3 positives and 5 negatives at 0.1 would keep round(0.5) = 0 positives
    conf = tmp_path / "conf.tsv"
    conf.write_text("caly\t1\n")
    hyp = tmp_path / "hyp.jsonl"
    with open(hyp, "w") as fh:
        for i, word in enumerate([WAKE_WORD] * 3 + ["caly"] * 5):
            words = [{"w": word, "conf": 0.9, "start": 0.1, "end": 0.5}]
            fh.write(json.dumps({"utt_id": f"u{i}", "audio_path": "a.wav", "words": words}) + "\n")
    runs = tmp_path / "runs"
    rc = main(["mine", "--hypotheses", str(hyp), "--confusables", str(conf),
               "--set", f"lexicon.wake_word={WAKE_WORD}", "--set", "mining.target_ratio=0.1",
               "--out", str(runs)])
    out, err = capsys.readouterr()
    assert rc == 3
    assert "target_ratio 0.1 keeps no positive example of 3 positive and 5 negative" in err
    assert out == ""
    assert not runs.exists()


def test_mine_without_a_usable_hypothesis_exits_3(tmp_path, capsys):
    conf = tmp_path / "conf.tsv"
    conf.write_text("caly\t1\n")
    hyp = tmp_path / "hyp.jsonl"
    hyp.write_text('{"utt_id": "u1", "words": []}\n')  # no audio_path: malformed
    runs = tmp_path / "runs"
    rc = main(["mine", "--hypotheses", str(hyp), "--confusables", str(conf),
               "--set", f"lexicon.wake_word={WAKE_WORD}", "--out", str(runs)])
    out, err = capsys.readouterr()
    assert rc == 3
    assert f"data error: {hyp}: no usable hypotheses" in err
    assert "Traceback" not in err
    assert out == ""
    assert not runs.exists()


def test_confusables_on_a_mixed_case_lexicon_ranks_a_frequency_word_missing_from_it(tmp_path, capsys):
    # Calypso and COLLAPSE fold to the wake word and to collapse; zzz takes
    # the first of the two ranks scanned, so calypsos (rank 3) is not scanned
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("Calypso\tK AH L IH P S OW\ncollapse\tK AH L AE P S\n"
                       "calypsos\tK AH L IH P S OW Z\nCOLLAPSE\tK AH L AE P S\n")
    freqs = tmp_path / "freq.tsv"
    freqs.write_text("zzz\t100\ncollapse\t50\ncalypsos\t10\ncalypso\t5\n")
    assert main(["confusables", "--lexicon", str(lexicon), "--frequencies", str(freqs),
                 "--set", "lexicon.wake_word=calypso", "--set", "lexicon.top_n_frequent=2",
                 "--out", str(tmp_path / "runs")]) == 0
    [path] = capsys.readouterr().out.splitlines()
    assert open(path, "rb").read() == b"collapse\t2\n"


def test_augment_without_a_clean_wav_exits_3(tmp_path, capsys):
    # the check that keeps build_mixed_dataset's clean pool non-empty
    clean = tmp_path / "clean"
    clean.mkdir()
    rc = main(["augment", "--clean-dir", str(clean), "--out", str(tmp_path / "runs")])
    out, err = capsys.readouterr()
    assert rc == 3
    assert f"data error: {clean}: no wav files" in err
    assert out == ""
    assert not (tmp_path / "runs").exists()


def test_det_reads_references_before_it_decodes(tmp_path, capsys):
    refs = tmp_path / "refs.tsv"
    refs.write_text("u0\t10\t30\nu0\t25\t40\n")
    runs = tmp_path / "runs"
    # neither --model nor --wav-dir exists: the references must fail first
    rc = main(["det", "--model", str(tmp_path / "missing.ckpt"), "--wav-dir",
               str(tmp_path / "missing"), "--references", str(refs), "--out", str(runs)])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"{refs}:2: u0: span 25-40 overlaps span 10-30" in err
    assert not runs.exists()


_READERS = {
    "refs": _read_references,
    "utt_frames": _read_utt_frames,
    "detections": read_detections,
    "mined": read_mined,
    "confusables": lambda path: read_confusables(path, "ww"),
    "manifest": read_manifest,
    "lexicon": load_lexicon,
    "frequencies": lambda path: load_lexicon(path.with_name("lexicon.tsv"), path),
}


@pytest.mark.parametrize("name", sorted(_READERS))
def test_every_reader_skips_blank_lines(tmp_path, name):
    read = []
    for tail in ("", "\n   \n"):
        folder = tmp_path / f"tail-{len(tail)}"
        folder.mkdir()
        for file, text in _GOOD_TSV.items():
            (folder / f"{file}.tsv").write_text(text + tail)
        read.append(_READERS[name](folder / f"{name}.tsv"))
    assert read[0] == read[1]


@pytest.mark.parametrize("name", sorted(_READERS))
def test_every_reader_rejects_a_line_that_is_not_utf8(tmp_path, name):
    for file, text in _GOOD_TSV.items():
        (tmp_path / f"{file}.tsv").write_text(text)
    path = tmp_path / f"{name}.tsv"
    path.write_bytes(path.read_bytes() + b"u\xff\t1\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: 'utf-8' codec can't decode byte 0xff")):
        _READERS[name](path)


_TINY_DEMO = [
    "--set", "demo.n_train=40", "--set", "demo.n_test=10", "--set", "demo.epochs=1",
    "--set", "demo.bottleneck=8", "--set", "demo.hidden=16",
]


def test_e2e_demo_reads_the_stage_sections(tmp_path, capsys):
    demo = ["e2e-demo", *_TINY_DEMO, "--out", str(tmp_path / "runs")]
    assert main(demo + ["--set", "decoding.thresholds=0.9,0.5,0.1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert os.path.basename(lines[0]) == "suite_summary.json" and os.path.isfile(lines[0])
    run_dir = os.path.dirname(lines[0])
    with open(os.path.join(run_dir, "seed-0", "det_mct.csv")) as fh:
        assert len(fh.read().splitlines()) == 1 + 3
    # no word is a confusable at distance 0, so no negative is mined
    assert main(demo + ["--set", "lexicon.d_max=0"]) == 3
    capsys.readouterr()
    # demo.epochs has training.epochs' bound: 0 trains nothing and logs no loss
    assert main(demo + ["--set", "demo.epochs=0"]) == 0
    run_dir = os.path.dirname(capsys.readouterr().out.strip())
    with open(os.path.join(run_dir, "seed-0", "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["final_train_loss_clean"] is None
    assert summary["final_train_loss_mct"] is None


_MISSING = "missing"
# every subcommand, with inputs that do not exist, so only a setting can fail
_COMMANDS = [
    ["rir-gen"],
    ["augment", "--clean-dir", _MISSING],
    ["confusables", "--lexicon", _MISSING, "--set", f"lexicon.wake_word={WAKE_WORD}"],
    ["mine", "--hypotheses", _MISSING, "--confusables", _MISSING,
     "--set", f"lexicon.wake_word={WAKE_WORD}"],
    ["train", "--mined", _MISSING, "--audio-dir", _MISSING],
    ["decode", "--model", _MISSING, "--wav-dir", _MISSING],
    ["eval", "--detections", _MISSING, "--utt-frames", _MISSING, "--references", _MISSING],
    ["det", "--model", _MISSING, "--wav-dir", _MISSING, "--references", _MISSING],
    ["e2e-demo"],
]


# one out-of-range value per bounded key, and its message
_BAD_SETTINGS = {
    "run.seed=-1": "run.seed: -1 is below the minimum 0",
    "lexicon.d_max=-1": "lexicon.d_max: -1 is below the minimum 0",
    "lexicon.top_n_frequent=0": "lexicon.top_n_frequent: 0 is below the minimum 1",
    "mining.pos_threshold=2": "mining.pos_threshold: 2.0 is above the maximum 1.0",
    "mining.neg_threshold=-0.1": "mining.neg_threshold: -0.1 is below the minimum 0.0",
    "mining.target_ratio=0": "mining.target_ratio: 0.0 is below the minimum 1e-09",
    "augment.table_row=1K": "augment.table_row: unknown recipe row '1K'",
    "augment.recipe_scale=-1": "augment.recipe_scale: -1.0 is below the minimum 0.0",
    "augment.recipe_scale=0": "augment.recipe_scale: recipe is empty",
    # refused before augment would queue 2e304 mixing jobs
    "augment.recipe_scale=1e300":
        "augment.recipe_scale: 1e+300 scales row 200K above the maximum 10000000 utterances",
    "augment.snr_mean_db=nan": "augment.snr_mean_db: 'nan' is not a finite number",
    "augment.snr_std_db=-1": "augment.snr_std_db: -1.0 is below the minimum 0.0",
    "augment.noise_music_split=2": "augment.noise_music_split: 2.0 is above the maximum 1.0",
    "training.learning_rate=0": "training.learning_rate: 0.0 is below the minimum 1e-12",
    "training.minibatch_size=0": "training.minibatch_size: 0 is below the minimum 1",
    "training.epochs=-1": "training.epochs: -1 is below the minimum 0",
    "training.bottleneck=0": "training.bottleneck: 0 is below the minimum 1",
    "training.hidden=x": "training.hidden: 'x' is not an integer",
    # the widths and the smoothing window size allocations, so each has a maximum
    "training.bottleneck=4097": "training.bottleneck: 4097 is above the maximum 4096",
    "training.hidden=4097": "training.hidden: 4097 is above the maximum 4096",
    "decoding.smooth_window_frames=0": "decoding.smooth_window_frames: 0 is below the minimum 1",
    "decoding.smooth_window_frames=10001":
        "decoding.smooth_window_frames: 10001 is above the maximum 10000",
    "decoding.threshold=1": "decoding.threshold: 1.0 is above the maximum 0.999999999",
    "decoding.min_gap_frames=-1": "decoding.min_gap_frames: -1 is below the minimum 0",
    "decoding.tolerance_frames=-1": "decoding.tolerance_frames: -1 is below the minimum 0",
    "decoding.thresholds=0.5": "decoding.thresholds: need at least 2 thresholds",
    # refused before linspace would try to allocate 80 TB
    "decoding.thresholds=lin:0.9:0.1:10000000000000":
        "decoding.thresholds: 10000000000000 is above the maximum 10000",
    "rir.max_order=11": "rir.max_order: 11 is above the maximum 10",
    "rir.beta_min=-0.1": "rir.beta_min: -0.1 is below the minimum 0.0",
    "rir.beta_max=0.5": "rir.beta_max: 0.5 is below the minimum 0.55",
    "rir.count=0": "rir.count: 0 is below the minimum 1",
    # rir-gen draws every room before it writes one
    "rir.count=10001": "rir.count: 10001 is above the maximum 10000",
    "demo.n_train=9": "demo.n_train: 9 is below the minimum 10",
    "demo.n_test=9": "demo.n_test: 9 is below the minimum 10",
    "demo.epochs=-1": "demo.epochs: -1 is below the minimum 0",
    "demo.learning_rate=inf": "demo.learning_rate: 'inf' is not a finite number",
    "demo.bottleneck=0": "demo.bottleneck: 0 is below the minimum 1",
    "demo.bottleneck=4097": "demo.bottleneck: 4097 is above the maximum 4096",
    "demo.hidden=1.5": "demo.hidden: '1.5' is not an integer",
    "demo.hidden=4097": "demo.hidden: 4097 is above the maximum 4096",
    "demo.test_snr_db=x": "demo.test_snr_db: 'x' is not a number",
    "demo.seeds=0,x": "demo.seeds: '0,x' is not a comma-separated integer list",
}


@pytest.mark.parametrize("setting", list(_BAD_SETTINGS))
def test_demo_and_subcommand_reject_a_stage_setting_alike(tmp_path, capsys, setting):
    # the config is checked whole at load, so a command refuses even a key it never reads
    for argv in _COMMANDS:
        out_dir = tmp_path / argv[0]
        assert main(argv + ["--set", setting, "--out", str(out_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: {_BAD_SETTINGS[setting]}")
        assert not out_dir.exists()


@pytest.mark.parametrize(
    "sources",
    [pytest.param([], id="neither"),
     pytest.param(["--audio-dir", _MISSING, "--augment-manifest", _MISSING], id="both")],
)
def test_train_takes_exactly_one_input_flag(tmp_path, capsys, sources):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--mined", _MISSING, *sources, "--out", str(tmp_path / "runs")])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--audio-dir" in err and "--augment-manifest" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "command, message",
    [
        pytest.param(["rir-gen", "--set", "run.seed=-2"], "run.seed: -2 is below", id="run-seed"),
        pytest.param(
            ["e2e-demo", *_TINY_DEMO, "--set", "demo.seeds=0,-1"],
            "demo.seeds: -1 is below",
            id="demo-seeds",
        ),
        # two runs of one seed would share a seed-<n> directory
        pytest.param(
            ["e2e-demo", *_TINY_DEMO, "--set", "demo.seeds=1,0,1"],
            "demo.seeds: seed 1 is listed more than once",
            id="demo-seeds-repeated",
        ),
    ],
)
def test_negative_seed_exits_2(tmp_path, capsys, command, message):
    assert main(command + ["--out", str(tmp_path / "runs")]) == 2
    out, err = capsys.readouterr()
    assert message in err
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "command, key",
    [
        pytest.param(["augment", "--clean-dir", "missing"], "augment.snr_mean_db", id="augment"),
        pytest.param(
            ["mine", "--hypotheses", "missing", "--confusables", "missing",
             "--set", "lexicon.wake_word=x"],
            "mining.pos_threshold",
            id="mine",
        ),
        pytest.param(
            ["train", "--mined", "missing", "--audio-dir", "missing"],
            "training.learning_rate",
            id="train",
        ),
    ],
)
def test_non_finite_float_setting_exits_2(tmp_path, capsys, command, key, value):
    # the inputs do not exist: the setting must fail first
    argv = command + ["--set", f"{key}={value}", "--out", str(tmp_path / "runs")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{key}: '{value}' is not a finite number" in err
    assert "Traceback" not in err


def test_rir_gen_reflection_coefficient_of_one_exits_2(tmp_path, capsys):
    argv = ["rir-gen", "--set", "rir.beta_min=1", "--set", "rir.beta_max=1"]
    assert main(argv + ["--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert "config error: rir: reflection_coeff must be in [0, 1)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def test_e2e_demo_reflection_coefficient_of_one_exits_2(tmp_path, capsys):
    argv = ["e2e-demo", *_TINY_DEMO, "--set", "rir.beta_min=1", "--set", "rir.beta_max=1"]
    assert main(argv + ["--out", str(tmp_path / "runs")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error: rir: reflection_coeff must be in [0, 1)")
    assert out == ""
    assert not (tmp_path / "runs").exists()


_SHORT = "clip of 300 samples is shorter than one 400-sample window"


def _short_wav_dir(tmp_path):
    """A directory whose u1.wav holds 300 samples, less than one 400-sample window."""
    wav_dir = tmp_path / "a"
    wav_dir.mkdir()
    (wav_dir / "u1.wav").write_bytes(riff((b"fmt ", wav_fmt(1, 1, 16)), (b"data", bytes(600))))
    return wav_dir


def test_train_names_a_wav_shorter_than_one_window(tmp_path, capsys):
    wav_dir = _short_wav_dir(tmp_path)
    mined = tmp_path / "m.tsv"
    write_mined([MinedExample("u1", NEGATIVE, "caly", (0.0, 0.01), 0.9)], mined)
    runs = tmp_path / "runs"
    rc = main(["train", "--mined", str(mined), "--audio-dir", str(wav_dir), "--out", str(runs)])
    out, err = capsys.readouterr()
    assert rc == 3
    assert f"data error: {wav_dir / 'u1.wav'}: {_SHORT}" in err
    assert out == ""
    assert not runs.exists()


def test_det_names_a_wav_shorter_than_one_window(tmp_path, capsys):
    from wwspot.model import SpotterConfig, save_model

    wav_dir = _short_wav_dir(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    save_model(unscaled_model(SpotterConfig(bottleneck=4, hidden=8)), ckpt)
    refs = tmp_path / "refs.tsv"
    refs.write_text("u1\t0\t1\n")
    runs = tmp_path / "runs"
    rc = main(["det", "--model", str(ckpt), "--wav-dir", str(wav_dir), "--references", str(refs),
               "--out", str(runs)])
    out, err = capsys.readouterr()
    assert rc == 3
    assert f"data error: {wav_dir / 'u1.wav'}: {_SHORT}" in err
    assert out == ""
    assert not runs.exists()


def test_different_seeds_and_inputs_get_different_run_dirs(tmp_path):
    runs = str(tmp_path / "runs")
    for seed in ("1", "2", "1"):
        argv = ["rir-gen", "--set", "rir.count=1", "--set", f"run.seed={seed}"]
        assert main(argv + ["--out", runs]) == 0
    assert len(glob.glob(os.path.join(runs, "rir-gen-*"))) == 2

    lexicons = []
    for name in ("a", "b"):
        lexicon = tmp_path / f"lexicon-{name}.txt"
        write_lexicon_files(lexicon, tmp_path / f"frequencies-{name}.txt")
        lexicons.append(str(lexicon))
    for lexicon in lexicons:
        assert main(
            ["confusables", "--lexicon", lexicon, "--set", f"lexicon.wake_word={WAKE_WORD}",
             "--out", runs]
        ) == 0
    assert len(glob.glob(os.path.join(runs, "confusables-*"))) == 2


@pytest.mark.parametrize("jobs", ["0", "-5", "two"])
def test_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["e2e-demo", "--jobs", jobs, "--out", str(tmp_path / "runs")])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"--jobs: expected an integer >= 1, got '{jobs}'" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["rir-gen"],
        ["confusables", "--lexicon", "l"],
        ["mine", "--hypotheses", "h", "--confusables", "c"],
        ["train", "--mined", "m", "--audio-dir", "a"],
        ["eval", "--detections", "d", "--utt-frames", "u", "--references", "r"],
        # decoding spreads each recording over the cores, not recordings over processes
        ["decode", "--model", "m", "--wav-dir", "w"],
        ["det", "--model", "m", "--wav-dir", "w", "--references", "r"],
    ],
    ids=lambda argv: argv[0],
)
def test_jobs_is_refused_where_nothing_fans_out(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", "2", "--out", str(tmp_path / "runs")])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --jobs 2" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("under", ["", "/sub"], ids=["a-file", "under-a-file"])
def test_an_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, under):
    (tmp_path / "afile").write_text("")
    out_dir = f"{tmp_path / 'afile'}{under}"
    assert main(["rir-gen", "--out", out_dir]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: --out: cannot create {out_dir}{os.sep}rir-gen-")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, limit",
    [
        # rir-0000.wav is about 3130 bytes
        pytest.param(["rir-gen", "--set", "rir.count=3"], 2500, id="rir-gen"),
        pytest.param(["confusables", "--lexicon", "{lexicon}", "--frequencies", "{freqs}",
                      "--set", f"lexicon.wake_word={WAKE_WORD}"], 10, id="confusables"),
        pytest.param(["augment", "--clean-dir", "{wav}", "--rir-dir", "{rirs}", "--noise-dir", "{noise}",
                      "--set", "augment.table_row=50K", "--set", "augment.recipe_scale=0.0005",
                      "--set", "augment.noise_music_split=1.0"], 2500, id="augment"),
        pytest.param(["train", "--mined", "{mined}", "--audio-dir", "{wav}", "--set", "training.epochs=1",
                      "--set", "training.bottleneck=8", "--set", "training.hidden=16"], 100, id="train"),
    ],
)
def test_an_output_that_cannot_be_written_exits_4_and_leaves_no_run_directory(tmp_path, corpus, argv, limit):
    inputs = str(tmp_path / "inputs")
    wake = ["--set", f"lexicon.wake_word={WAKE_WORD}", "--out", inputs]
    assert main(["confusables", "--lexicon", corpus["lexicon"], *wake]) == 0
    conf = os.path.join(_single_run_dir(inputs, "confusables"), "confusables.tsv")
    assert main(["mine", "--hypotheses", corpus["hyp"], "--confusables", conf, *wake]) == 0
    paths = {**corpus, "mined": os.path.join(_single_run_dir(inputs, "mine"), "mined.tsv")}
    runs = tmp_path / "runs"
    # the child alone runs under the cap
    proc = subprocess.run(
        [sys.executable, "-m", "wwspot.cli", *(arg.format(**paths) for arg in argv), "--out", str(runs)],
        preexec_fn=limit_file_size(limit), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert re.fullmatch(rf"runtime failure: {re.escape(os.path.join(runs, argv[0]))}-[0-9a-f]{{8}}: File too large\n",
                        proc.stderr), proc.stderr
    assert os.listdir(runs) == []


def test_a_stage_that_fails_after_creating_its_run_directory_leaves_none(tmp_path, capsys, monkeypatch):
    def fail(path, rows):
        raise RuntimeError("writer failed")

    # rir-gen writes its WAVs, then rirs.tsv
    monkeypatch.setattr("wwspot.cli.write_tsv", fail)
    runs = tmp_path / "runs"
    assert main(["rir-gen", "--set", "rir.count=2", "--out", str(runs)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "RuntimeError: writer failed" in err
    assert os.listdir(runs) == []


def test_a_rerun_replaces_its_run_directory_whole(tmp_path, capsys):
    runs = str(tmp_path / "runs")
    argv = ["rir-gen", "--set", "rir.count=2", "--out", runs]
    assert main(argv) == 0
    run_dir = _single_run_dir(runs, "rir-gen")
    assert capsys.readouterr().out == os.path.join(run_dir, "rirs.tsv") + "\n"
    files = _tree_bytes(run_dir)
    with open(os.path.join(run_dir, "stray.wav"), "wb") as fh:
        fh.write(b"left by another run")
    assert main(argv) == 0
    assert capsys.readouterr().out == os.path.join(run_dir, "rirs.tsv") + "\n"
    assert os.listdir(runs) == [os.path.basename(run_dir)]
    assert _tree_bytes(run_dir) == files


def test_a_run_clears_what_a_killed_run_of_its_key_and_pid_left(tmp_path, capsys):
    runs = str(tmp_path / "runs")
    argv = ["rir-gen", "--set", "rir.count=2", "--out", runs]
    assert main(argv) == 0
    run_dir = _single_run_dir(runs, "rir-gen")
    files = _tree_bytes(run_dir)
    # a run killed mid-stage or mid-commit leaves both; no live run owns our pid
    staging = os.path.join(runs, f".{os.path.basename(run_dir)}.{os.getpid()}")
    for leftover in (staging, f"{staging}.old"):
        os.makedirs(leftover)
        with open(os.path.join(leftover, "rir-0000.wav"), "wb") as fh:
            fh.write(b"cut short")
    capsys.readouterr()
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (os.path.join(run_dir, "rirs.tsv") + "\n", "")
    assert os.listdir(runs) == [os.path.basename(run_dir)]
    assert _tree_bytes(run_dir) == files


def test_a_run_of_the_key_committed_meanwhile_is_replaced(tmp_path, capsys, monkeypatch):
    runs = str(tmp_path / "runs")
    argv = ["rir-gen", "--set", "rir.count=2", "--out", runs]
    assert main(argv) == 0
    run_dir = _single_run_dir(runs, "rir-gen")
    files = _tree_bytes(run_dir)
    shutil.rmtree(run_dir)
    rename, raced = os.rename, []

    def another_run_commits_first(src, dst):
        # another process of the key renames its run into place just before ours
        if dst == run_dir and not raced:
            raced.append(dst)
            os.makedirs(run_dir)
            with open(os.path.join(run_dir, "stray.wav"), "wb") as fh:
                fh.write(b"left by another run")
        rename(src, dst)

    monkeypatch.setattr(os, "rename", another_run_commits_first)
    capsys.readouterr()
    assert main(argv) == 0
    assert raced
    assert capsys.readouterr().out == os.path.join(run_dir, "rirs.tsv") + "\n"
    assert os.listdir(runs) == [os.path.basename(run_dir)]
    assert _tree_bytes(run_dir) == files


def test_flags_name_only_inputs_outputs_and_workers():
    # every value that changes output bytes but mine's --no-balance is a
    # config key, so it is set one way
    keys = {key for section in SCHEMA.values() for key in section}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {name: {a.dest for a in p._actions} - {"help"} for name, p in sub.choices.items()}
    assert set.intersection(*dests.values()) == {"config", "set", "out"}
    assert {name for name, options in dests.items() if "jobs" in options} == {"augment", "e2e-demo"}
    for name, options in dests.items():
        assert not options & keys, name


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0


@pytest.mark.parametrize(
    "argv, path, reason",
    [
        pytest.param(
            ["confusables", "--lexicon", "{d}", "--set", "lexicon.wake_word=alexa"],
            "{d}", "is a directory",
            id="lexicon-dir",
        ),
        pytest.param(
            ["mine", "--hypotheses", "{d}/f", "--confusables", "{d}/f/x.tsv",
             "--set", "lexicon.wake_word=alexa"],
            "{d}/f/x.tsv", "not a directory", id="confusables-through-a-file",
        ),
        pytest.param(
            ["decode", "--model", "{d}", "--wav-dir", "{d}/a"], "{d}", "is a directory", id="model-dir"
        ),
        # a mined utt_id names its WAV, and open refuses a path with a NUL byte
        pytest.param(
            ["train", "--mined", "{d}/n", "--audio-dir", "{d}/a"], "{d}/a/u\0.wav", "embedded null byte",
            id="nul-in-mined-utt-id",
        ),
        # root opens any file whatever its mode, so `open` refuses {d}/denied below
        pytest.param(
            ["mine", "--hypotheses", "{d}/denied", "--confusables", "{d}/f",
             "--set", "lexicon.wake_word=alexa"],
            "{d}/denied", "permission denied", id="permission-denied",
        ),
    ],
)
def test_an_input_path_that_cannot_be_opened_exits_3(tmp_path, capsys, monkeypatch, argv, path, reason):
    def refusing_open(file, *args, **kwargs):
        if file == str(tmp_path / "denied"):
            raise PermissionError(13, "Permission denied")
        return open(file, *args, **kwargs)

    monkeypatch.setattr(tsv, "open", refusing_open, raising=False)
    (tmp_path / "f").write_text("u\t1\n")
    (tmp_path / "denied").write_text("")
    (tmp_path / "n").write_text("u\0\tnegative\tcaly\t0.1\t0.2\t0.9\n")
    _patched_wav_dir(tmp_path, lambda raw: raw)  # decode lists its WAVs before it loads the model
    rc = main([a.format(d=tmp_path) for a in argv] + ["--out", str(tmp_path / "runs")])
    out, err = capsys.readouterr()
    assert rc == 3
    assert f"data error: {path.format(d=tmp_path)}: {reason}" in err
    assert "Traceback" not in err
    assert out == ""


def _patched_wav_dir(tmp_path, patch):
    """A directory whose u1.wav is a 1 s write_wav file passed through `patch`."""
    from wwspot.audio import AudioClip, write_wav

    wav_dir = tmp_path / "a"
    wav_dir.mkdir()
    wav = wav_dir / "u1.wav"
    write_wav(AudioClip(np.random.default_rng(3).uniform(-0.5, 0.5, SAMPLE_RATE)), wav)
    wav.write_bytes(patch(wav.read_bytes()))
    return wav_dir, wav


def _wav_argv(command, tmp_path, wav_dir):
    from wwspot.model import SpotterConfig, save_model

    if command == "augment":
        return ["augment", "--clean-dir", str(wav_dir)]
    if command == "decode":
        ckpt = tmp_path / "model.ckpt"
        save_model(unscaled_model(SpotterConfig(bottleneck=4, hidden=8)), ckpt)
        return ["decode", "--model", str(ckpt), "--wav-dir", str(wav_dir)]
    mined = tmp_path / "m.tsv"
    write_mined([MinedExample("u1", NEGATIVE, "caly", (0.0, 0.01), 0.9)], mined)
    return ["train", "--mined", str(mined), "--audio-dir", str(wav_dir)]


@pytest.mark.parametrize("command", ["augment", "decode", "train"])
@pytest.mark.parametrize(
    "patch, reason",
    [
        pytest.param(lambda raw: raw[:22] + b"\0\0" + raw[24:], "not a readable PCM WAV (0 channels", id="zero-channels"),
        pytest.param(lambda raw: raw[:-101], "truncated WAV", id="truncated"),
    ],
)
def test_a_malformed_wav_exits_3_naming_it(tmp_path, capsys, command, patch, reason):
    wav_dir, wav = _patched_wav_dir(tmp_path, patch)
    runs = tmp_path / "runs"
    rc = main(_wav_argv(command, tmp_path, wav_dir) + ["--out", str(runs)])
    out, err = capsys.readouterr()
    assert rc == 3
    assert f"data error: {wav}: {reason}" in err
    assert "Traceback" not in err
    assert out == ""
    assert not runs.exists()


def test_decode_reads_a_wav_whose_riff_size_field_is_4(tmp_path, capsys):
    wav_dir, _ = _patched_wav_dir(tmp_path, lambda raw: raw[:4] + b"\4\0\0\0" + raw[8:])
    rc = main(_wav_argv("decode", tmp_path, wav_dir) + ["--out", str(tmp_path / "runs")])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert out.strip().endswith("detections.tsv")


def test_the_cli_imports_no_scipy():
    code = "import sys, wwspot.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
