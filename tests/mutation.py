"""Seeded mutations of every input format, each run through the CLI.

One case copies a valid input file, mutates it once (flipped bytes, a
truncation, inserted bytes, a repeated or dropped line, or one field set
to a hostile value such as nan, inf, -1, 1e309 or nothing) and runs the
subcommand that reads it, in process, with a tiny training config. The
contract: exit 0, 2 or 3, and no traceback on stderr. `test_mutation.py`
runs a few dozen cases per format; a longer run is

    PYTHONPATH=src python tests/mutation.py --seed 1 --cases 300

which prints the exit counts per format and exits 1 if any case broke the
contract.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import shutil
import sys
import tempfile

import numpy as np

from wwspot.audio import write_wav
from wwspot.cli import main as cli_main
from wwspot.features import FRAMES_PER_S
from wwspot.synth import WAKE_WORD, generate_utterances, make_noise_pool, write_corpus, write_lexicon_files

ALLOWED_EXITS = (0, 2, 3)
_HOSTILE = (b"nan", b"inf", b"-1", b"1e309", b"", b"0", b"\xff")
# a tiny network and the wake word, given to every command
_SETTINGS = [
    "--set", "training.epochs=1", "--set", "training.bottleneck=4", "--set", "training.hidden=8",
    "--set", f"lexicon.wake_word={WAKE_WORD}",
]
_CONFIG = f"""[training]
epochs = 1
bottleneck = 4
hidden = 8
[lexicon]
wake_word = {WAKE_WORD}
[decoding]
tolerance_frames = 40
thresholds = 0.9,0.5,0.1
"""


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """`data` with one seeded mutation."""
    kind = int(rng.integers(6)) if data else 2
    at = int(rng.integers(len(data) + 1))
    if kind == 0:
        buf = np.frombuffer(data, dtype=np.uint8).copy()
        idx = rng.integers(len(buf), size=int(rng.integers(1, 5)))
        buf[idx] ^= rng.integers(1, 256, size=idx.size).astype(np.uint8)
        return buf.tobytes()
    if kind == 1:
        return data[:at]
    if kind == 2:
        return data[:at] + rng.integers(256, size=int(rng.integers(1, 9))).astype(np.uint8).tobytes() + data[at:]
    lines = data.split(b"\n")
    i = int(rng.integers(len(lines)))
    if kind == 3:
        lines.insert(i, lines[i])
    elif kind == 4:
        del lines[i]
    else:
        fields = re.split(rb"([\t,=:\s]+)", lines[i])  # values at even indices
        fields[2 * int(rng.integers((len(fields) + 1) // 2))] = _HOSTILE[int(rng.integers(len(_HOSTILE)))]
        lines[i] = b"".join(fields)
    return b"\n".join(lines)


def _cli(argv: list[str]) -> tuple[int, str, str]:
    """cli.main run in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _made(argv: list[str]) -> str:
    """The path a successful command prints."""
    code, out, err = _cli(argv + _SETTINGS)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited {code}: {err}")
    return out.strip()


def build_inputs(root: str) -> dict[str, str]:
    """A valid file of every format under `root`, most of them written by
    the CLI stages themselves, and the directories the commands read."""
    rng = np.random.default_rng(0)
    p = {name: os.path.join(root, name) for name in (
        "wav", "noise", "runs", "hypotheses.jsonl", "lexicon.txt", "frequencies.txt",
        "references.tsv", "config.ini",
    )}
    utts = generate_utterances("utt", 12, 0.5, rng)
    write_corpus(utts, p["wav"], p["hypotheses.jsonl"], rng)
    write_lexicon_files(p["lexicon.txt"], p["frequencies.txt"])
    os.makedirs(p["noise"])
    for clip in make_noise_pool(2, 1.0, rng):
        write_wav(clip, os.path.join(p["noise"], f"{clip.id}.wav"))
    with open(p["references.tsv"], "w", encoding="utf-8") as fh:
        for utt in utts:
            for s, e in utt.wake_spans():
                fh.write(f"{utt.utt_id}\t{round(s * FRAMES_PER_S)}\t{round(e * FRAMES_PER_S)}\n")
    with open(p["config.ini"], "w", encoding="utf-8") as fh:
        fh.write(_CONFIG)
    p["u.wav"] = os.path.join(p["wav"], f"{utts[0].utt_id}.wav")
    out = ["--out", p["runs"]]
    rirs = os.path.dirname(_made(["rir-gen", "--set", "rir.count=2", "--set", "rir.max_order=2", *out]))
    p["confusables.tsv"] = _made(
        ["confusables", "--lexicon", p["lexicon.txt"], "--frequencies", p["frequencies.txt"], *out]
    )
    p["mined.tsv"] = _made(
        ["mine", "--hypotheses", p["hypotheses.jsonl"], "--confusables", p["confusables.tsv"], *out]
    )
    p["manifest.tsv"] = _made([
        "augment", "--clean-dir", p["wav"], "--rir-dir", rirs, "--noise-dir", p["noise"],
        "--mined", p["mined.tsv"], "--set", "augment.table_row=50K",
        "--set", "augment.recipe_scale=0.0003", "--set", "augment.noise_music_split=1.0", *out,
    ])
    p["model.ckpt"] = _made(["train", "--mined", p["mined.tsv"], "--audio-dir", p["wav"], *out])
    # the once-trained model scores low: a low threshold gives it detections
    p["detections.tsv"] = _made(
        ["decode", "--model", p["model.ckpt"], "--wav-dir", p["wav"], "--set", "decoding.threshold=0.001", *out]
    )
    p["utt_frames.tsv"] = os.path.join(os.path.dirname(p["detections.tsv"]), "utt_frames.tsv")
    return p


# per format: the input that is mutated, and the command that reads it; an
# argument in braces is that input's path, and the mutated input's is the mutant's
_CONFUSABLES = ["confusables", "--lexicon", "{lexicon.txt}", "--frequencies", "{frequencies.txt}"]
_MINE = ["mine", "--hypotheses", "{hypotheses.jsonl}", "--confusables", "{confusables.tsv}"]
_EVAL = ["eval", "--detections", "{detections.tsv}", "--utt-frames", "{utt_frames.tsv}",
         "--references", "{references.tsv}"]
_DECODE = ["decode", "--model", "{model.ckpt}", "--wav-dir", "{wav}"]
READERS = {
    "lexicon": ("lexicon.txt", _CONFUSABLES),
    "frequencies": ("frequencies.txt", _CONFUSABLES),
    "confusables": ("confusables.tsv", _MINE),
    "hypotheses": ("hypotheses.jsonl", _MINE),
    "mined": ("mined.tsv", ["train", "--mined", "{mined.tsv}", "--audio-dir", "{wav}"]),
    "manifest": ("manifest.tsv", ["train", "--mined", "{mined.tsv}", "--augment-manifest", "{manifest.tsv}"]),
    "references": ("references.tsv", _EVAL),
    "utt_frames": ("utt_frames.tsv", _EVAL),
    "detections": ("detections.tsv", _EVAL),
    "checkpoint": ("model.ckpt", _DECODE),
    "wav": ("wav", _DECODE),  # a directory holding one mutated WAV
    "config": ("config.ini", _EVAL + ["--config", "{config.ini}"]),
}
FORMATS = tuple(READERS)


def run_case(p: dict[str, str], fmt: str, rng: np.random.Generator, work: str) -> tuple[int, str]:
    """Mutate `fmt`'s file once and run its command on the mutant, writing
    under `work`; returns the exit code and stderr."""
    name, argv = READERS[fmt]
    if fmt == "wav":
        # half the cases mutate only the RIFF header and the chunk headers after it
        with open(p["u.wav"], "rb") as fh:
            data = fh.read()
        data = mutate(data[:64], rng) + data[64:] if rng.random() < 0.5 else mutate(data, rng)
        mutant = os.path.join(work, "wav")
        os.makedirs(mutant, exist_ok=True)
        target = os.path.join(mutant, "u.wav")
    else:
        with open(p[name], "rb") as fh:
            data = mutate(fh.read(), rng)
        # beside its source, so a manifest's relative WAV paths still resolve
        mutant = target = os.path.join(os.path.dirname(p[name]), f"mutant-{os.path.basename(p[name])}")
    with open(target, "wb") as fh:
        fh.write(data)
    argv = [mutant if arg == f"{{{name}}}" else p[arg[1:-1]] if arg[0] == "{" else arg for arg in argv]
    settings = [] if fmt == "config" else _SETTINGS
    code, _, err = _cli(argv + settings + ["--out", os.path.join(work, "runs")])
    shutil.rmtree(os.path.join(work, "runs"), ignore_errors=True)
    return code, err


def broken(code: int, err: str) -> bool:
    return code not in ALLOWED_EXITS or "Traceback" in err


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cases", type=int, default=300, help="cases per format")
    args = parser.parse_args(argv)
    failed = 0
    with tempfile.TemporaryDirectory() as root:
        p = build_inputs(os.path.join(root, "inputs"))
        for fmt in FORMATS:
            rng = np.random.default_rng([args.seed, FORMATS.index(fmt)])
            counts: dict[int, int] = {}
            for case in range(args.cases):
                code, err = run_case(p, fmt, rng, os.path.join(root, "work"))
                counts[code] = counts.get(code, 0) + 1
                if broken(code, err):
                    failed += 1
                    print(f"{fmt} case {case}: exit {code}\n{err}", file=sys.stderr)
            print(f"{fmt}\t" + "\t".join(f"exit {c}: {n}" for c, n in sorted(counts.items())))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
