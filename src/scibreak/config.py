"""Pipeline configuration: plain key=value files, validation, hashing.

The config file is line-oriented text: ``key = value`` pairs, ``#`` starts a
comment, blank lines are ignored.  Lists are comma-separated.  Keys mirror
the CLI flags; see the README for the full schema.
"""

from __future__ import annotations

import hashlib
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .analysis import check_positive_finite
from .corpus import FieldMap
from .impact import COCITED_SEMANTICS, GAMMA_CONVENTIONS


class ConfigError(ValueError):
    """Raised when a config file cannot be parsed or fails validation."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a full pipeline run needs.

    ``leiden_seed`` has no default on purpose: reproducible clustering needs
    an explicit seed in the config.
    """

    corpus_path: str = ""
    out_root: str = "runs"
    year_min: int = 1900
    year_max: int = 2023
    horizon: int = 10
    top_fraction: float = 0.05
    analysis_start: int = 1950
    analysis_end: int = 2013
    window_width: int = 10
    subfield_allowlist: tuple[int, ...] | None = None
    sigma: float | None = None  # None = off-diagonal std of the DTW matrix
    leiden_seed: int | None = None
    leiden_resolution: float = 1.0
    rca_threshold: float = 1.0
    eigen_count: int = 2
    cocited_semantics: str = "multiset"
    gamma_convention: str = "own_age"
    dtw_per_component: bool = False
    map_id: str = FieldMap.work_id
    map_year: str = FieldMap.pub_year
    map_references: str = FieldMap.references
    map_subfield: str = FieldMap.subfield
    map_countries: str = FieldMap.countries
    comparator_rank_path: str | None = None
    rd_share_path: str | None = None
    gdp_path: str | None = None
    gerd_window: tuple[int, int] = (2000, 2009)

    # excluded from the config hash: where outputs land, not what they are
    _NON_HASH_KEYS = ("out_root",)

    def field_map(self) -> FieldMap:
        return FieldMap(
            work_id=self.map_id,
            pub_year=self.map_year,
            references=self.map_references,
            subfield=self.map_subfield,
            countries=self.map_countries,
        )

    def validate(self) -> None:
        if not self.corpus_path:
            raise ConfigError("corpus_path is required")
        if not Path(self.corpus_path).exists():
            raise ConfigError(f"corpus_path does not exist: {self.corpus_path}")
        if self.horizon < 0:
            raise ConfigError(f"horizon must be >= 0, got {self.horizon}")
        if not (0.0 < self.top_fraction < 1.0):
            raise ConfigError(
                f"top_fraction must be in (0, 1), got {self.top_fraction}"
            )
        if self.year_min > self.year_max:
            raise ConfigError("year_min exceeds year_max")
        if self.analysis_start > self.analysis_end:
            raise ConfigError("analysis_start exceeds analysis_end")
        if self.window_width < 1:
            raise ConfigError("window_width must be >= 1")
        for key in ("sigma", "leiden_resolution", "rca_threshold"):
            value = getattr(self, key)
            if value is None:  # an unset sigma is picked from the distances
                continue
            try:
                check_positive_finite(key, value)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if self.leiden_seed is None:
            raise ConfigError("leiden_seed is required")
        if self.eigen_count < 1:
            raise ConfigError("eigen_count must be >= 1")
        for key, allowed in (
            ("cocited_semantics", COCITED_SEMANTICS),
            ("gamma_convention", GAMMA_CONVENTIONS),
        ):
            value = getattr(self, key)
            if value not in allowed:
                raise ConfigError(f"{key} must be {'|'.join(allowed)}, got {value!r}")
        lo, hi = self.gerd_window
        if lo > hi:
            raise ConfigError(f"empty gerd_window {self.gerd_window}")
        for key in ("comparator_rank_path", "rd_share_path", "gdp_path"):
            path = getattr(self, key)
            if path and not Path(path).exists():
                raise ConfigError(f"{key} does not exist: {path}")

    def canonical_items(self) -> list[tuple[str, str]]:
        return sorted(
            (field_def.name, _render(getattr(self, field_def.name)))
            for field_def in fields(self)
            if field_def.name not in self._NON_HASH_KEYS
        )

    def config_hash(self) -> str:
        payload = "\n".join(f"{k}={v}" for k, v in self.canonical_items())
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        values: dict[str, object] = {}
        for lineno, raw in enumerate(
            Path(path).read_text(encoding="utf-8-sig").splitlines(), start=1
        ):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in _KEY_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: key {key!r} given twice")
            values[key] = _coerce(key, text, f"{path}:{lineno}")
        return cls(**values)  # type: ignore[arg-type]


# each key's annotation is its parsing rule
_KEY_TYPES = typing.get_type_hints(PipelineConfig)


def _render(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _coerce(key: str, text: str, where: str) -> object:
    """Parse ``text`` by the annotation of ``key``: a blank optional value is
    unset, ``tuple[int, ...]`` a comma list, ``tuple[int, int]`` exactly two
    ints, ``bool`` a yes/no word, anything else its type's constructor."""
    target = _KEY_TYPES[key]
    options = typing.get_args(target)
    if type(None) in options:
        if not text:
            return None
        (target,) = (option for option in options if option is not type(None))
    if typing.get_origin(target) is tuple:
        try:
            parts = tuple(int(part) for part in text.split(",") if part.strip())
        except ValueError as exc:
            raise ConfigError(f"{where}: bad integer list for {key}") from exc
        if typing.get_args(target)[-1] is Ellipsis:
            return parts or None
        if len(parts) != 2:
            raise ConfigError(f"{where}: {key} needs two comma-separated years")
        return parts
    if target is bool:
        lowered = text.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{where}: bad boolean for {key}: {text!r}")
    try:
        return target(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad {target.__name__} for {key}") from exc


def with_overrides(config: PipelineConfig, **overrides) -> PipelineConfig:
    """Functional update helper used by the CLI."""
    clean = {k: v for k, v in overrides.items() if v is not None}
    return replace(config, **clean)
