"""Run configuration: one JSON file, overridable flag by flag."""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .flow import FlowParams
from .grid import GridSpec
from .model import _check_params


# The types each annotation of Config admits, and how an error names them.
_TYPES = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
    "bool": (bool, "true or false"),
}

_GRID = GridSpec()
_FLOW = FlowParams()


@dataclass(frozen=True)
class Config:
    """Every setting of a run. Construction checks each value's type, then
    its range, and builds ``grid`` and ``flow_params`` from it."""

    resolution: int = _GRID.resolution
    max_beat: int = _GRID.max_beat
    max_duration: int = _GRID.max_duration
    k: int = 4
    lam: float = 1.0
    context_len: int = _FLOW.context_len
    burn_in: int = _FLOW.burn_in
    mode: str = _FLOW.mode
    xy_norm: str = _FLOW.xy_norm
    seed: int = 0
    split_shared_programs: bool = _FLOW.split_shared_programs
    include_drums: bool = False

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kinds, noun = _TYPES[f.type]
            # bool is an int to Python, but true is no k and no seed.
            if not isinstance(value, kinds) or (f.type != "bool" and isinstance(value, bool)):
                raise ValueError(f"config key {f.name!r} must be {noun}, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"config key 'seed' must be >= 0, got {self.seed}")
        _check_params(self.k, self.lam)
        object.__setattr__(self, "lam", float(self.lam))
        grid = GridSpec(self.resolution, self.max_beat, self.max_duration)
        flow = FlowParams(
            self.context_len, self.burn_in, self.mode, self.xy_norm, self.split_shared_programs
        )
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "flow_params", flow)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELD_NAMES = {f.name for f in dataclasses.fields(Config)}


def load_config(path: str | Path | None, overrides: dict | None = None) -> Config:
    """Defaults, then the config file, then explicit overrides."""
    values: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
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
