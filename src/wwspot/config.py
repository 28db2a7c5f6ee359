"""Sectioned key-value pipeline configuration.

The file format is INI-style: flat sections of key = value pairs. Every
key can be overridden on the command line with --set section.key=value.
`SCHEMA` is the one table of every key's default and parser (its type
and bounds). `load_config` parses every key once and runs the checks
that span keys, so a bad value fails every subcommand, whether or not
it reads that key, before any input is read or directory made. The
hash of the raw text names the run directory, so identical
configurations land in identical places.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os

import numpy as np

from .augment import CorruptionSpec, MixRecipe
from .model import SpotterConfig, TrainConfig
from .tsv import DataError

# a scaled recipe holds one job per utterance, so a larger one is a typo
# that would fill memory before the first mix is written
MAX_RECIPE_UTTERANCES = 10_000_000


class ConfigError(Exception):
    pass


def _number(kind, lo=None, hi=None):
    """A parser of one `kind` (int or float) value within [lo, hi]."""
    noun = "an integer" if kind is int else "a number"

    def parse(name: str, raw: str):
        try:
            value = kind(raw)
        except ValueError:
            raise ConfigError(f"{name}: {raw!r} is not {noun}") from None
        # nan passes every range check, and inf is no usable setting either
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{name}: {raw!r} is not a finite number")
        if lo is not None and value < lo:
            raise ConfigError(f"{name}: {value} is below the minimum {lo}")
        if hi is not None and value > hi:
            raise ConfigError(f"{name}: {value} is above the maximum {hi}")
        return value

    return parse


def _text(name: str, raw: str) -> str:
    return raw


def _recipe_row(name: str, raw: str) -> str:
    """A row name of `augment.TABLE_ROWS`."""
    try:
        MixRecipe.from_table_row(raw, 1.0)
    except DataError as exc:
        raise ConfigError(f"{name}: {exc}") from None
    return raw


def _seeds(name: str, raw: str) -> list[int]:
    """A comma list of distinct seeds >= 0: two runs of one seed would
    share its seed-<n> directory."""
    try:
        seeds = [int(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{name}: {raw!r} is not a comma-separated integer list") from None
    for seed in seeds:
        if seed < 0:
            raise ConfigError(f"{name}: {seed} is below the minimum 0")
    repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]]
    if repeated:
        raise ConfigError(f"{name}: seed {repeated[0]} is listed more than once")
    if not seeds:
        raise ConfigError(f"{name}: need at least one seed")
    return seeds


def _thresholds(name: str, raw: str) -> list[float]:
    """Either a comma list or lin:<start>:<stop>:<count> of 2 to 10000
    values (a sweep); every value must lie in (0, 1), the range a decoder
    threshold takes."""
    try:
        if raw.startswith("lin:"):
            _, start, stop, count = raw.split(":")
            if int(count) > 10_000:  # a longer sweep is a typo that linspace would allocate
                raise ConfigError(f"{name}: {count} is above the maximum 10000")
            values = [round(float(v), 6) for v in np.linspace(float(start), float(stop), int(count))]
        else:
            values = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{name}: cannot parse threshold spec {raw!r}") from None
    if len(values) < 2:
        raise ConfigError(f"{name}: need at least 2 thresholds")
    for value in values:
        if not 0.0 < value < 1.0:
            raise ConfigError(f"{name}: threshold {value} is outside (0, 1)")
    return values


# every key: its default text and the parser that checks and converts it
SCHEMA = {
    "run": {"seed": ("0", _number(int, lo=0))},
    "rir": {
        "count": ("10", _number(int, lo=1)),
        "max_order": ("5", _number(int, lo=0, hi=10)),
        "beta_min": ("0.55", _number(float, lo=0.0, hi=1.0)),
        "beta_max": ("0.8", _number(float, hi=1.0)),  # and >= beta_min
    },
    "augment": {
        "table_row": ("200K", _recipe_row),
        "recipe_scale": ("1.0", _number(float, lo=0.0)),
        "snr_mean_db": ("10.0", _number(float)),
        "snr_std_db": ("3.0", _number(float, lo=0.0)),
        "noise_music_split": ("0.5", _number(float, lo=0.0, hi=1.0)),
    },
    "lexicon": {
        "wake_word": ("", _text),
        "d_max": ("2", _number(int, lo=0)),
        "top_n_frequent": ("10000", _number(int, lo=1)),
    },
    "mining": {
        "pos_threshold": ("0.5", _number(float, lo=0.0, hi=1.0)),
        "neg_threshold": ("0.5", _number(float, lo=0.0, hi=1.0)),
        "target_ratio": ("1.0", _number(float, lo=1e-9)),
    },
    "training": {
        "learning_rate": ("0.5", _number(float, lo=1e-12)),
        "minibatch_size": ("256", _number(int, lo=1)),
        "epochs": ("10", _number(int, lo=0)),
        "bottleneck": ("87", _number(int, lo=1)),
        "hidden": ("400", _number(int, lo=1)),
    },
    "decoding": {
        "smooth_window_frames": ("50", _number(int, lo=1)),
        "threshold": ("0.5", _number(float, lo=1e-9, hi=1 - 1e-9)),
        "min_gap_frames": ("30", _number(int, lo=0)),
        "tolerance_frames": ("50", _number(int, lo=0)),
        "thresholds": ("lin:0.95:0.05:19", _thresholds),
    },
    "demo": {
        "n_train": ("500", _number(int, lo=10)),
        "n_test": ("200", _number(int, lo=10)),
        "epochs": ("10", _number(int, lo=0)),
        "learning_rate": ("0.4", _number(float, lo=1e-12)),
        "bottleneck": ("48", _number(int, lo=1)),
        "hidden": ("96", _number(int, lo=1)),
        "seeds": ("0", _seeds),
        "test_snr_db": ("10.0", _number(float)),
    },
}


def _check_across_keys(parsed: dict[str, dict]) -> None:
    """The bounds that one key's value sets on another's."""
    rir, aug = parsed["rir"], parsed["augment"]
    if rir["beta_max"] < rir["beta_min"]:
        raise ConfigError(f"rir.beta_max: {rir['beta_max']} is below the minimum {rir['beta_min']}")
    # a coefficient of 1 is the only draw the bounds allow that a room refuses
    if rir["beta_min"] == 1.0:
        raise ConfigError("rir: reflection_coeff must be in [0, 1), and rir.beta_min is 1")
    scale = aug["recipe_scale"]
    if MixRecipe.from_table_row(aug["table_row"], 1.0).total * scale > MAX_RECIPE_UTTERANCES:
        raise ConfigError(
            f"augment.recipe_scale: {scale} scales row {aug['table_row']} above "
            f"the maximum {MAX_RECIPE_UTTERANCES} utterances"
        )
    try:
        MixRecipe.from_table_row(aug["table_row"], scale)
    except DataError as exc:
        raise ConfigError(f"augment.recipe_scale: {exc}") from None


class PipelineConfig:
    """Every key's raw text, which `hash8` hashes, and its parsed value,
    which `get` returns; building one checks every key."""

    def __init__(self, values: dict[str, dict[str, str]]):
        self.values = values
        self._parsed = {
            section: {key: parse(f"{section}.{key}", values[section][key])
                      for key, (_, parse) in keys.items()}
            for section, keys in SCHEMA.items()
        }
        _check_across_keys(self._parsed)

    def get(self, section: str, key: str):
        try:
            return self._parsed[section][key]
        except KeyError:
            raise ConfigError(f"{section}.{key}: unknown configuration key") from None

    # the typed names the benchmark reads; each is the parsed value
    getstr = getint = getfloat = get

    def thresholds(self) -> list[float]:
        return self.get("decoding", "thresholds")

    def hash8(self) -> str:
        lines = [
            f"{s}.{k}={v}"
            for s in sorted(self.values)
            for k, v in sorted(self.values[s].items())
        ]
        # surrogateescape: a --set argument that is not UTF-8 hashes as the bytes typed
        return hashlib.sha256("\n".join(lines).encode("utf-8", "surrogateescape")).hexdigest()[:8]


def load_config(
    path: str | os.PathLike | None, overrides: list[str] | None = None
) -> PipelineConfig:
    values = {s: {k: default for k, (default, _) in keys.items()} for s, keys in SCHEMA.items()}
    if path is not None:
        # literal values, and no special section: [DEFAULT] is refused like any unknown one
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"{path}: {(exc.strerror or str(exc)).lower()}") from None
        except (UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError(f"{path}: {exc}") from None
        for section in parser.sections():
            if section not in values:
                raise ConfigError(f"{path}: {section}: unknown configuration section")
            for key, value in parser.items(section):
                if key not in values[section]:
                    raise ConfigError(f"{path}: {section}.{key}: unknown configuration key")
                values[section][key] = value
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        dotted, value = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in values or key not in values[section]:
            raise ConfigError(f"{dotted}: unknown configuration key")
        values[section][key] = value
    return PipelineConfig(values)


# --- readers that build the library objects several commands share


def wake_word(cfg: PipelineConfig) -> str:
    """`lexicon.wake_word`, which must be set."""
    wake = cfg.get("lexicon", "wake_word")
    if not wake:
        raise ConfigError("lexicon.wake_word: missing wake word")
    return wake


def corruption_spec(cfg: PipelineConfig, seed: int) -> CorruptionSpec:
    """The multi-condition SNR draw and noise/music split, seeded."""
    return CorruptionSpec(
        cfg.get("augment", "snr_mean_db"),
        cfg.get("augment", "snr_std_db"),
        cfg.get("augment", "noise_music_split"),
        rng_seed=seed,
    )


def model_configs(cfg: PipelineConfig, section: str, seed: int) -> tuple[TrainConfig, SpotterConfig]:
    """The trainer and the network from `section`, "training" or the
    demo's "demo"; the minibatch size is always `training`'s."""
    return (
        TrainConfig(
            cfg.get(section, "learning_rate"),
            cfg.get("training", "minibatch_size"),
            cfg.get(section, "epochs"),
            seed,
        ),
        SpotterConfig(bottleneck=cfg.get(section, "bottleneck"), hidden=cfg.get(section, "hidden")),
    )
