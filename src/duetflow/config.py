"""Run configuration: one JSON file, overridable flag by flag."""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .flow import FlowParams
from .grid import GridSpec


# The types each annotation of Config admits, and how an error names them.
_TYPES = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
    "bool": (bool, "true or false"),
}


@dataclass(frozen=True, slots=True)
class Config:
    resolution: int = 12
    max_beat: int = 1024
    max_duration: int = 96
    k: int = 4
    lam: float = 1.0
    context_len: int = 64
    burn_in: int = 16
    mode: str = "nll"
    xy_norm: str = "per_pair"
    seed: int = 0
    workers: int = 1
    split_shared_programs: bool = False
    include_drums: bool = False

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kinds, noun = _TYPES[f.type]
            # bool is an int to Python, but true is no k and no seed.
            if not isinstance(value, kinds) or (f.type != "bool" and isinstance(value, bool)):
                raise ValueError(f"config key {f.name!r} must be {noun}, got {value!r}")
        object.__setattr__(self, "lam", float(self.lam))

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.resolution, self.max_beat, self.max_duration)

    @property
    def flow_params(self) -> FlowParams:
        return FlowParams(
            context_len=self.context_len,
            burn_in=self.burn_in,
            mode=self.mode,
            xy_norm=self.xy_norm,
            split_shared_programs=self.split_shared_programs,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELD_NAMES = {f.name for f in dataclasses.fields(Config)}


def load_config(path: str | Path | None, overrides: dict | None = None) -> Config:
    """Defaults, then the config file, then explicit overrides."""
    values: dict = {}
    if path is not None:
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        unknown = set(raw) - _FIELD_NAMES
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
        values.update(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            if key not in _FIELD_NAMES:
                raise ValueError(f"unknown config override {key!r}")
            values[key] = value
    return Config(**values)
