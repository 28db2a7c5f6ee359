import glob
import json
import os
import re
import shutil

import numpy as np
import pytest

from wwspot.audio import SAMPLE_RATE
from wwspot.augment import read_manifest
from wwspot.cli import _read_references, _read_utt_frames, main
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
             "--wake-word", WAKE_WORD, "--set", "mining.pos_threshold=1.01"],
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
            "--wake-word", WAKE_WORD,
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
            "--wake-word", WAKE_WORD,
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


def test_full_cli_pipeline(tmp_path, corpus):
    # confusables -> mine -> augment --mined -> train --augment-manifest ->
    # decode -> eval -> det; past the corpus, each stage reads only what
    # the stages before it wrote
    runs = str(tmp_path / "runs")
    assert main(
        [
            "confusables",
            "--lexicon", corpus["lexicon"],
            "--frequencies", corpus["freqs"],
            "--wake-word", WAKE_WORD,
            "--out", runs,
        ]
    ) == 0
    conf = os.path.join(_single_run_dir(runs, "confusables"), "confusables.tsv")
    assert os.path.getsize(conf) > 0

    assert main(
        [
            "mine",
            "--hypotheses", corpus["hyp"],
            "--confusables", conf,
            "--wake-word", WAKE_WORD,
            "--seed", "1",
            "--out", runs,
        ]
    ) == 0
    mined = os.path.join(_single_run_dir(runs, "mine"), "mined.tsv")

    assert main(
        [
            "augment",
            "--clean-dir", corpus["wav"],
            "--mined", mined,
            "--rir-dir", corpus["rirs"],
            "--noise-dir", corpus["noise"],
            "--set", "augment.table_row=50K",
            "--set", "augment.recipe_scale=0.0005",
            "--set", "augment.noise_music_split=1.0",
            "--out", runs,
        ]
    ) == 0
    manifest = os.path.join(_single_run_dir(runs, "augment"), "manifest.tsv")
    mined_ids = {e.utt_id for e in read_mined(mined)}
    assert {r.source_id for r in read_manifest(manifest)} <= mined_ids

    assert main(
        [
            "train",
            "--mined", mined,
            "--augment-manifest", manifest,
            "--set", "training.epochs=2",
            "--set", "training.bottleneck=8",
            "--set", "training.hidden=16",
            "--out", runs,
        ]
    ) == 0
    ckpt = os.path.join(_single_run_dir(runs, "train"), "model.ckpt")

    assert main(["decode", "--model", ckpt, "--wav-dir", corpus["wav"], "--out", runs]) == 0
    decode_dir = _single_run_dir(runs, "decode")
    assert os.path.isfile(os.path.join(decode_dir, "detections.tsv"))

    refs = tmp_path / "refs.tsv"
    rows = []
    for utt in corpus["utts"]:
        for s, e in utt.wake_spans():
            rows.append(f"{utt.utt_id}\t{round(s * FRAMES_PER_S)}\t{round(e * FRAMES_PER_S)}")
    refs.write_text("\n".join(rows) + "\n")
    assert main(
        [
            "eval",
            "--detections", os.path.join(decode_dir, "detections.tsv"),
            "--utt-frames", os.path.join(decode_dir, "utt_frames.tsv"),
            "--references", str(refs),
            "--out", runs,
        ]
    ) == 0

    assert main(
        [
            "det",
            "--model", ckpt,
            "--wav-dir", corpus["wav"],
            "--references", str(refs),
            "--set", "decoding.thresholds=lin:0.9:0.1:9",
            "--out", runs,
        ]
    ) == 0
    det_dir = _single_run_dir(runs, "det")
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
        "--seed", "5",
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
            "--wake-word", WAKE_WORD,
            "--out", runs,
        ]
    ) == 0
    conf = os.path.join(_single_run_dir(runs, "confusables"), "confusables.tsv")
    assert main(
        [
            "mine",
            "--hypotheses", corpus["hyp"],
            "--confusables", conf,
            "--wake-word", WAKE_WORD,
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
                "--seed", "4",
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
        "--seed", "6",
    ]
    assert main(base + ["--jobs", "1", "--out", str(tmp_path / "j1")]) == 0
    assert main(base + ["--jobs", "2", "--out", str(tmp_path / "j2")]) == 0
    m1 = os.path.join(_single_run_dir(str(tmp_path / "j1"), "augment"), "manifest.tsv")
    m2 = os.path.join(_single_run_dir(str(tmp_path / "j2"), "augment"), "manifest.tsv")
    assert open(m1, "rb").read() == open(m2, "rb").read()
    for row_line in open(m1).read().splitlines():
        rel = row_line.split("\t")[3]
        a = open(os.path.join(_single_run_dir(str(tmp_path / "j1"), "augment"), rel), "rb").read()
        b = open(os.path.join(_single_run_dir(str(tmp_path / "j2"), "augment"), rel), "rb").read()
        assert a == b

    from wwspot.model import SpotterConfig, init_model, save_model

    ckpt = tmp_path / "model.ckpt"
    save_model(init_model(SpotterConfig(bottleneck=4, hidden=8)), ckpt)
    decode = ["decode", "--model", str(ckpt), "--wav-dir", corpus["wav"],
              "--set", "decoding.threshold=0.000001"]
    outs = []
    for jobs, out in (("1", "j1"), ("2", "j2")):
        assert main(decode + ["--jobs", jobs, "--out", str(tmp_path / out)]) == 0
        dec_dir = _single_run_dir(str(tmp_path / out), "decode")
        outs.append([open(os.path.join(dec_dir, f), "rb").read()
                     for f in ("detections.tsv", "utt_frames.tsv")])
    assert outs[0] == outs[1]
    assert outs[0][0]


def test_rir_gen(tmp_path):
    runs = str(tmp_path / "runs")
    assert main(["rir-gen", "--set", "rir.count=3", "--seed", "2", "--out", runs]) == 0
    rir_dir = _single_run_dir(runs, "rir-gen")
    wavs = glob.glob(os.path.join(rir_dir, "*.wav"))
    assert len(wavs) == 3

    with pytest.raises(SystemExit) as exc:
        main(["featurize", "--wav-dir", rir_dir, "--out", runs])
    assert exc.value.code == 2


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
    from wwspot.model import SpotterConfig, init_model, save_model

    wav_dir = tmp_path / "wav"
    wav_dir.mkdir()
    samples = np.random.default_rng(0).standard_normal(SAMPLE_RATE) * 0.1
    write_wav(AudioClip(samples), wav_dir / name)
    ckpt = tmp_path / "model.ckpt"
    save_model(init_model(SpotterConfig(bottleneck=4, hidden=8)), ckpt)
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
    from scipy.io import wavfile

    from wwspot.model import SpotterConfig, init_model, save_model

    wav_dir = tmp_path / "wav"
    wav_dir.mkdir()
    samples = (np.random.default_rng(0).standard_normal(32000) * 0.1).astype(np.float32)
    samples[16000] = bad
    wav = wav_dir / "u0.wav"
    wavfile.write(wav, 16000, samples)
    ckpt = tmp_path / "model.ckpt"
    save_model(init_model(SpotterConfig(bottleneck=4, hidden=8)), ckpt)
    rc = main(
        [
            "decode", "--model", str(ckpt), "--wav-dir", str(wav_dir),
            "--out", str(tmp_path / "runs"),
        ]
    )
    assert rc == 3
    assert f"{wav}: non-finite samples" in capsys.readouterr().err


def test_train_on_augment_manifest(tmp_path, corpus):
    runs = str(tmp_path / "runs")
    assert main(
        [
            "confusables",
            "--lexicon", corpus["lexicon"],
            "--frequencies", corpus["freqs"],
            "--wake-word", WAKE_WORD,
            "--out", runs,
        ]
    ) == 0
    conf = os.path.join(_single_run_dir(runs, "confusables"), "confusables.tsv")
    assert main(
        [
            "mine",
            "--hypotheses", corpus["hyp"],
            "--confusables", conf,
            "--wake-word", WAKE_WORD,
            "--out", runs,
        ]
    ) == 0
    mined = os.path.join(_single_run_dir(runs, "mine"), "mined.tsv")
    assert main(
        [
            "augment",
            "--clean-dir", corpus["wav"],
            "--mined", mined,
            "--rir-dir", corpus["rirs"],
            "--noise-dir", corpus["noise"],
            "--set", "augment.table_row=50K",
            "--set", "augment.recipe_scale=0.0005",
            "--set", "augment.noise_music_split=1.0",
            "--out", runs,
        ]
    ) == 0
    manifest = os.path.join(_single_run_dir(runs, "augment"), "manifest.tsv")
    assert main(
        [
            "train",
            "--mined", mined,
            "--augment-manifest", manifest,
            "--set", "training.epochs=1",
            "--set", "training.bottleneck=8",
            "--set", "training.hidden=16",
            "--out", runs,
        ]
    ) == 0
    assert os.path.isfile(os.path.join(_single_run_dir(runs, "train"), "model.ckpt"))


def test_decode_rejects_a_float_layer_size_in_the_checkpoint_with_exit_3(tmp_path, capsys):
    from wwspot.audio import AudioClip, write_wav
    from wwspot.model import SpotterConfig, init_model, save_model

    wav_dir = tmp_path / "wav"
    wav_dir.mkdir()
    write_wav(AudioClip(np.zeros(SAMPLE_RATE)), wav_dir / "u0.wav")
    ckpt = tmp_path / "model.ckpt"
    save_model(init_model(SpotterConfig(bottleneck=4, hidden=8)), ckpt)
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
                 "--confusables", files["confusables"], "--wake-word", "ww"],
    }
    command = {"mined": "train", "manifest": "train", "confusables": "mine"}.get(bad, "eval")
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
    rc = main(["mine", "--hypotheses", str(hyp), "--confusables", str(conf), "--wake-word",
               WAKE_WORD, "--set", "mining.pos_threshold=0.7", "--out", str(runs)])
    out, err = capsys.readouterr()
    assert rc == 3
    assert f"{conf}:1:" in err
    assert out == ""
    assert not runs.exists()


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
    run_dir = lines[0].split("\t")[0]
    assert os.path.isfile(os.path.join(run_dir, "suite_summary.json"))
    with open(os.path.join(run_dir, "seed-0", "det_mct.csv")) as fh:
        assert len(fh.read().splitlines()) == 1 + 3
    # no word is a confusable at distance 0, so no negative is mined
    assert main(demo + ["--set", "lexicon.d_max=0"]) == 3
    capsys.readouterr()
    # demo.epochs has training.epochs' bound: 0 trains nothing and logs no loss
    assert main(demo + ["--set", "demo.epochs=0"]) == 0
    run_dir = capsys.readouterr().out.split("\t")[0]
    with open(os.path.join(run_dir, "seed-0", "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["final_train_loss_clean"] is None
    assert summary["final_train_loss_mct"] is None


_MISSING = "missing"
# each subcommand with inputs that do not exist, so only a setting can fail
_STAGE_COMMANDS = {
    "lexicon": ["confusables", "--lexicon", _MISSING, "--wake-word", WAKE_WORD],
    "mining": ["mine", "--hypotheses", _MISSING, "--confusables", _MISSING,
               "--wake-word", WAKE_WORD],
    "augment": ["augment", "--clean-dir", _MISSING],
    "training": ["train", "--mined", _MISSING, "--audio-dir", _MISSING],
    "decoding": ["det", "--model", _MISSING, "--wav-dir", _MISSING, "--references", _MISSING],
}


# one out-of-range value per stage key that the demo shares, and its message
_BAD_SETTINGS = {
    "lexicon.d_max=-1": "lexicon.d_max: -1 is below the minimum 0",
    "lexicon.top_n_frequent=0": "lexicon.top_n_frequent: 0 is below the minimum 1",
    "mining.pos_threshold=2": "mining.pos_threshold: 2.0 is above the maximum 1.0",
    "mining.neg_threshold=-0.1": "mining.neg_threshold: -0.1 is below the minimum 0.0",
    "mining.target_ratio=0": "mining.target_ratio: 0.0 is below the minimum 1e-09",
    "augment.table_row=1K": "augment: unknown recipe row '1K'",
    "augment.snr_mean_db=nan": "augment.snr_mean_db: 'nan' is not a finite number",
    "augment.snr_std_db=-1": "augment.snr_std_db: -1.0 is below the minimum 0.0",
    "augment.noise_music_split=2": "augment.noise_music_split: 2.0 is above the maximum 1.0",
    "training.minibatch_size=0": "training.minibatch_size: 0 is below the minimum 1",
    "decoding.min_gap_frames=-1": "decoding.min_gap_frames: -1 is below the minimum 0",
    "decoding.tolerance_frames=-1": "decoding.tolerance_frames: -1 is below the minimum 0",
    "decoding.thresholds=0.5": "decoding.thresholds: need at least 2 thresholds",
}


@pytest.mark.parametrize("setting", list(_BAD_SETTINGS))
def test_demo_and_subcommand_reject_a_stage_setting_alike(tmp_path, capsys, setting):
    stage = _STAGE_COMMANDS[setting.split(".")[0]]
    for argv in (stage, ["e2e-demo"]):
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
        pytest.param(["rir-gen", "--seed", "-1"], "--seed: -1 is below", id="flag"),
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
            ["mine", "--hypotheses", "missing", "--confusables", "missing", "--wake-word", "x"],
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


def test_different_seeds_and_inputs_get_different_run_dirs(tmp_path):
    runs = str(tmp_path / "runs")
    for extra in (["--seed", "1"], ["--seed", "2"], ["--seed", "1", "--jobs", "2"]):
        assert main(["rir-gen", "--set", "rir.count=1", "--out", runs] + extra) == 0
    assert len(glob.glob(os.path.join(runs, "rir-gen-*"))) == 2

    lexicons = []
    for name in ("a", "b"):
        lexicon = tmp_path / f"lexicon-{name}.txt"
        write_lexicon_files(lexicon, tmp_path / f"frequencies-{name}.txt")
        lexicons.append(str(lexicon))
    for lexicon in lexicons:
        assert main(
            ["confusables", "--lexicon", lexicon, "--wake-word", WAKE_WORD, "--out", runs]
        ) == 0
    assert len(glob.glob(os.path.join(runs, "confusables-*"))) == 2


@pytest.mark.parametrize("jobs", ["0", "-5", "two"])
def test_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["rir-gen", "--jobs", jobs, "--out", str(tmp_path / "runs")])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"--jobs: expected an integer >= 1, got '{jobs}'" in err
    assert not (tmp_path / "runs").exists()


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0
