"""Sectioned key-value pipeline configuration.

The file format is INI-style: flat sections of key = value pairs. Every
key can be overridden on the command line with --set section.key=value,
and the content hash names the run directory so identical configurations
land in identical places.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os

import numpy as np

from .augment import CorruptionSpec, MixRecipe
from .decode import DecodeConfig
from .model import SpotterConfig, TrainConfig
from .tsv import DataError

DEFAULTS: dict[str, dict[str, str]] = {
    "run": {"seed": "0"},
    "rir": {
        "count": "10",
        "max_order": "5",
        "beta_min": "0.55",
        "beta_max": "0.8",
    },
    "augment": {
        "table_row": "200K",
        "recipe_scale": "1.0",
        "snr_mean_db": "10.0",
        "snr_std_db": "3.0",
        "noise_music_split": "0.5",
    },
    "lexicon": {
        "wake_word": "",
        "d_max": "2",
        "top_n_frequent": "10000",
    },
    "mining": {
        "pos_threshold": "0.5",
        "neg_threshold": "0.5",
        "target_ratio": "1.0",
    },
    "training": {
        "learning_rate": "0.5",
        "minibatch_size": "256",
        "epochs": "10",
        "bottleneck": "87",
        "hidden": "400",
    },
    "decoding": {
        "smooth_window_frames": "50",
        "threshold": "0.5",
        "min_gap_frames": "30",
        "tolerance_frames": "50",
        "thresholds": "lin:0.95:0.05:19",
    },
    "demo": {
        "n_train": "500",
        "n_test": "200",
        "epochs": "10",
        "learning_rate": "0.4",
        "bottleneck": "48",
        "hidden": "96",
        "seeds": "0",
        "test_snr_db": "10.0",
    },
}


class ConfigError(Exception):
    pass


class PipelineConfig:
    def __init__(self, values: dict[str, dict[str, str]]):
        self.values = values

    def getstr(self, section: str, key: str) -> str:
        try:
            return self.values[section][key]
        except KeyError:
            raise ConfigError(f"{section}.{key}: unknown configuration key") from None

    def getint(
        self, section: str, key: str, lo: int | None = None, hi: int | None = None
    ) -> int:
        raw = self.getstr(section, key)
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key}: {raw!r} is not an integer") from None
        self._check_range(section, key, value, lo, hi)
        return value

    def getfloat(
        self, section: str, key: str, lo: float | None = None, hi: float | None = None
    ) -> float:
        raw = self.getstr(section, key)
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key}: {raw!r} is not a number") from None
        # nan passes every range check, and inf is no usable setting either
        if not math.isfinite(value):
            raise ConfigError(f"{section}.{key}: {raw!r} is not a finite number")
        self._check_range(section, key, value, lo, hi)
        return value

    def getints(self, section: str, key: str, lo: int | None = None) -> list[int]:
        raw = self.getstr(section, key)
        try:
            values = [int(v) for v in raw.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(
                f"{section}.{key}: {raw!r} is not a comma-separated integer list"
            ) from None
        for value in values:
            self._check_range(section, key, value, lo, None)
        return values

    def thresholds(self) -> list[float]:
        """`decoding.thresholds`: either a comma list or
        lin:<start>:<stop>:<count> of 2 to 10000 values (a sweep); every value
        must lie in (0, 1), the range a decoder threshold takes."""
        raw = self.getstr("decoding", "thresholds")
        try:
            if raw.startswith("lin:"):
                _, start, stop, count = raw.split(":")
                if int(count) > 10_000:  # a longer sweep is a typo that linspace would allocate
                    raise ConfigError(f"decoding.thresholds: {count} is above the maximum 10000")
                values = [round(float(v), 6) for v in np.linspace(float(start), float(stop), int(count))]
            else:
                values = [float(v) for v in raw.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"decoding.thresholds: cannot parse threshold spec {raw!r}") from None
        if len(values) < 2:
            raise ConfigError("decoding.thresholds: need at least 2 thresholds")
        for value in values:
            if not 0.0 < value < 1.0:
                raise ConfigError(f"decoding.thresholds: threshold {value} is outside (0, 1)")
        return values

    @staticmethod
    def _check_range(section, key, value, lo, hi):
        if lo is not None and value < lo:
            raise ConfigError(f"{section}.{key}: {value} is below the minimum {lo}")
        if hi is not None and value > hi:
            raise ConfigError(f"{section}.{key}: {value} is above the maximum {hi}")

    def hash8(self) -> str:
        lines = [
            f"{s}.{k}={v}"
            for s in sorted(self.values)
            for k, v in sorted(self.values[s].items())
        ]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:8]


def load_config(
    path: str | os.PathLike | None, overrides: list[str] | None = None
) -> PipelineConfig:
    values = {s: dict(kv) for s, kv in DEFAULTS.items()}
    if path is not None:
        if not os.path.isfile(path):
            raise ConfigError(f"config file {path!r} does not exist")
        parser = configparser.ConfigParser()
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        for section in parser.sections():
            if section not in values:
                raise ConfigError(f"{section}: unknown configuration section")
            for key, value in parser.items(section):
                if key not in values[section]:
                    raise ConfigError(f"{section}.{key}: unknown configuration key")
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


# --- stage readers: the one place that reads the rir, lexicon, mining, augment,
# training and decoding sections and their bounds, for the subcommands and the demo


def room_settings(cfg: PipelineConfig) -> tuple[int, float, float]:
    """`rir`: the image-source order cap and the range each room's
    reflection coefficient is drawn from. A coefficient of 1, the only
    draw the range's bounds allow that a room refuses, fails here."""
    max_order = cfg.getint("rir", "max_order", lo=0, hi=10)
    beta_min = cfg.getfloat("rir", "beta_min", lo=0.0, hi=1.0)
    beta_max = cfg.getfloat("rir", "beta_max", lo=beta_min, hi=1.0)
    if beta_min == 1.0:
        raise ConfigError("rir: reflection_coeff must be in [0, 1), and rir.beta_min is 1")
    return max_order, beta_min, beta_max


def run_seed(cfg: PipelineConfig) -> int:
    """`run.seed`, the subcommands' seed; numpy seeds are >= 0."""
    return cfg.getint("run", "seed", lo=0)


def wake_word(cfg: PipelineConfig) -> str:
    """`lexicon.wake_word`, which must be set."""
    wake = cfg.getstr("lexicon", "wake_word")
    if not wake:
        raise ConfigError("lexicon.wake_word: missing wake word")
    return wake


def confusable_limits(cfg: PipelineConfig) -> tuple[int, int]:
    """The confusable scan's edit-distance bound and vocabulary cap."""
    return cfg.getint("lexicon", "d_max", lo=0), cfg.getint("lexicon", "top_n_frequent", lo=1)


def mining_gates(cfg: PipelineConfig) -> tuple[float, float, float]:
    """The positive and negative confidence gates and the balancing ratio."""
    pos_th = cfg.getfloat("mining", "pos_threshold", lo=0.0, hi=1.0)
    neg_th = cfg.getfloat("mining", "neg_threshold", lo=0.0, hi=1.0)
    return pos_th, neg_th, cfg.getfloat("mining", "target_ratio", lo=1e-9)


def mix_recipe(cfg: PipelineConfig, scale: float | None = None) -> MixRecipe:
    """`augment.table_row` scaled by `scale`, else by `augment.recipe_scale`."""
    if scale is None:
        scale = cfg.getfloat("augment", "recipe_scale", lo=0.0)
    try:
        return MixRecipe.from_table_row(cfg.getstr("augment", "table_row"), scale)
    except DataError as exc:
        raise ConfigError(f"augment: {exc}") from exc


def corruption_spec(cfg: PipelineConfig, seed: int) -> CorruptionSpec:
    """The multi-condition SNR draw and noise/music split, seeded."""
    return CorruptionSpec(
        cfg.getfloat("augment", "snr_mean_db"),
        cfg.getfloat("augment", "snr_std_db", lo=0.0),
        cfg.getfloat("augment", "noise_music_split", lo=0.0, hi=1.0),
        rng_seed=seed,
    )


def model_configs(cfg: PipelineConfig, section: str, seed: int) -> tuple[TrainConfig, SpotterConfig]:
    """The trainer and the network from `section`, "training" or the
    demo's "demo"; the minibatch size is always `training`'s."""
    learning_rate = cfg.getfloat(section, "learning_rate", lo=1e-12)
    minibatch_size = cfg.getint("training", "minibatch_size", lo=1)
    epochs = cfg.getint(section, "epochs", lo=0)
    bottleneck = cfg.getint(section, "bottleneck", lo=1)
    hidden = cfg.getint(section, "hidden", lo=1)
    return (
        TrainConfig(learning_rate, minibatch_size, epochs, seed),
        SpotterConfig(bottleneck=bottleneck, hidden=hidden),
    )


def smooth_window_frames(cfg: PipelineConfig) -> int:
    """The moving-average width of `decode` and `det`; not the demo's."""
    return cfg.getint("decoding", "smooth_window_frames", lo=1)


def min_gap_frames(cfg: PipelineConfig) -> int:
    """How close two supra-threshold regions may be before they merge."""
    return cfg.getint("decoding", "min_gap_frames", lo=0)


def decode_config(cfg: PipelineConfig) -> DecodeConfig:
    """`decode`'s smoother and peak picker."""
    window = smooth_window_frames(cfg)
    threshold = cfg.getfloat("decoding", "threshold", lo=1e-9, hi=1 - 1e-9)
    return DecodeConfig(window, threshold, min_gap_frames(cfg))


def tolerance_frames(cfg: PipelineConfig) -> int:
    """How many frames a matching detection's peak may lie outside its span."""
    return cfg.getint("decoding", "tolerance_frames", lo=0)


def det_settings(cfg: PipelineConfig) -> tuple[list[float], int, int]:
    """A DET sweep's thresholds, merge gap and tolerance; not its window."""
    return cfg.thresholds(), min_gap_frames(cfg), tolerance_frames(cfg)
