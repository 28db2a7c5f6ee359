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

    def get(self, section: str, key: str) -> str:
        try:
            return self.values[section][key]
        except KeyError:
            raise ConfigError(f"{section}.{key}: unknown configuration key") from None

    def getstr(self, section: str, key: str) -> str:
        return self.get(section, key)

    def getint(
        self, section: str, key: str, lo: int | None = None, hi: int | None = None
    ) -> int:
        raw = self.get(section, key)
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key}: {raw!r} is not an integer") from None
        self._check_range(section, key, value, lo, hi)
        return value

    def getfloat(
        self, section: str, key: str, lo: float | None = None, hi: float | None = None
    ) -> float:
        raw = self.get(section, key)
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
        raw = self.get(section, key)
        try:
            values = [int(v) for v in raw.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(
                f"{section}.{key}: {raw!r} is not a comma-separated integer list"
            ) from None
        for value in values:
            self._check_range(section, key, value, lo, None)
        return values

    def thresholds(self, section: str = "decoding", key: str = "thresholds") -> list[float]:
        """Either a comma list or lin:<start>:<stop>:<count> of at least 2
        values (a sweep); every value must lie in (0, 1), the range a
        decoder threshold takes."""
        raw = self.get(section, key)
        try:
            if raw.startswith("lin:"):
                _, start, stop, count = raw.split(":")
                import numpy as np

                values = [round(float(v), 6) for v in np.linspace(float(start), float(stop), int(count))]
            else:
                values = [float(v) for v in raw.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"{section}.{key}: cannot parse threshold spec {raw!r}") from None
        if len(values) < 2:
            raise ConfigError(f"{section}.{key}: need at least 2 thresholds")
        for value in values:
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{section}.{key}: threshold {value} is outside (0, 1)")
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
