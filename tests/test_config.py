import os
import re

import pytest

from wwspot.cli import main
from wwspot.config import SCHEMA, load_config

_README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_lists_every_key_with_its_default():
    with open(_README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Configuration", 1)[1].split("```", 2)[1]
    listed: dict[str, dict[str, str]] = {}
    for line in block.splitlines():
        line = line.split(";", 1)[0].strip()
        if re.fullmatch(r"\[\w+\]", line):
            section = listed.setdefault(line[1:-1], {})
        elif line:
            key, value = (part.strip() for part in line.split("=", 1))
            section[key] = value
    assert listed == {s: {k: default for k, (default, _) in keys.items()} for s, keys in SCHEMA.items()}


@pytest.mark.parametrize("value", ["50%", "%(epochs)s"])
def test_config_file_values_are_literal(tmp_path, value):
    # a parser that interpolates raised on both
    path = tmp_path / "c.ini"
    path.write_text(f"[lexicon]\nwake_word = {value}\n", encoding="utf-8")
    assert load_config(path).get("lexicon", "wake_word") == value


@pytest.mark.parametrize(
    "content, reason",
    [
        pytest.param(b"[lexicon]\nwake_word = \xff\n", "'utf-8' codec can't decode byte 0xff", id="not-utf-8"),
        # configparser would give its keys to every section, and so drop them here
        pytest.param(b"[DEFAULT]\nepochs = -5\n", "DEFAULT: unknown configuration section", id="default"),
        pytest.param(None, "is a directory", id="unreadable"),
    ],
)
def test_a_bad_config_file_exits_2_naming_it(tmp_path, capsys, content, reason):
    path = tmp_path / "c.ini"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["rir-gen", "--config", str(path), "--out", str(tmp_path / "runs")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"config error: {path}: {reason}")
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "runs").exists()


def test_a_set_value_that_is_not_utf8_keys_its_own_run_directory(tmp_path):
    # argv decodes such bytes to surrogates, which the key's hash once refused (exit 4)
    runs = tmp_path / "runs"
    for value in ("\udcff", "\udcfe"):
        argv = ["rir-gen", "--set", "rir.count=1", "--set", f"lexicon.wake_word={value}"]
        assert main(argv + ["--out", str(runs)]) == 0
    assert len(os.listdir(runs)) == 2
