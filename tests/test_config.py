import os
import re

from wwspot.config import SCHEMA

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
