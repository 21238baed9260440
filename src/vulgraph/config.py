"""Run settings: each config-file key's default and range, written once.

Every key but k and min_support belongs to the group of the layer that reads
it: EncoderConfig, TrainConfig, SplitSpec or ExplainConfig. A group checks
its ranges when built, with a ConfigError naming the config-file key.
RunConfig, the flat config file, reads each default from its group and is
checked by building the groups, so a command checks its whole config before
it reads any input. No numpy and no model module is loaded here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .util import decode_json, is_int, is_number

TOP_K = 5  # k: the edges an explanation keeps and the statements evaluate scores
MIN_SUPPORT = 2  # min_support's default and least value: a pattern seen in two graphs


def _at_least(low, **values) -> None:
    for key, value in values.items():
        if not value >= low:  # NaN fails too
            raise ConfigError(f"{key} must be at least {low}, not {value!r}")


def _positive(**values) -> None:
    for key, value in values.items():
        if not value > 0:
            raise ConfigError(f"{key} must be positive, not {value!r}")


@dataclass(frozen=True)
class EncoderConfig:
    embed_dim: int = 32
    gru_hidden: int = 32  # also the Tree-LSTM's width, so attention reads equal widths
    stmt_dim: int = 64

    def __post_init__(self):
        _at_least(2, embed_dim=self.embed_dim, gru_hidden=self.gru_hidden, stmt_dim=self.stmt_dim)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    lr: float = 1e-3
    batch_size: int = 8
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        # at least one epoch: the threshold is fit on an epoch's tuning scores
        _at_least(1, epochs=self.epochs, batch_size=self.batch_size, patience=self.patience)
        _positive(lr=self.lr)


@dataclass(frozen=True)
class SplitSpec:
    fractions: tuple = (0.8, 0.1, 0.1)
    seed: int = 0
    real_ratio: float = 1.0

    def __post_init__(self):
        f = self.fractions
        if not (len(f) == 3 and all(x > 0 for x in f) and abs(sum(f) - 1.0) <= 1e-9):
            raise ConfigError(f"fractions must be three positive numbers summing to 1, not {list(f)}")
        _at_least(0, real_ratio=self.real_ratio)


@dataclass(frozen=True)
class ExplainConfig:
    iterations: int = 300  # the config file's explain_iterations
    lr: float = 0.05  # and explain_lr
    sparsity_weight: float = 0.005
    entropy_weight: float = 0.1

    def __post_init__(self):
        _at_least(1, explain_iterations=self.iterations)
        _positive(explain_lr=self.lr)
        _at_least(0, sparsity_weight=self.sparsity_weight, entropy_weight=self.entropy_weight)


@dataclass(frozen=True)
class RunConfig:
    """The config file's keys, each default read from its group. Building
    one checks that every value has its default's type, then builds the
    groups, which check the ranges."""

    seed: int = TrainConfig.seed
    embed_dim: int = EncoderConfig.embed_dim
    gru_hidden: int = EncoderConfig.gru_hidden
    stmt_dim: int = EncoderConfig.stmt_dim
    epochs: int = TrainConfig.epochs
    lr: float = TrainConfig.lr
    batch_size: int = TrainConfig.batch_size
    patience: int = TrainConfig.patience
    fractions: tuple = SplitSpec.fractions
    real_ratio: float = SplitSpec.real_ratio
    explain_iterations: int = ExplainConfig.iterations
    explain_lr: float = ExplainConfig.lr
    sparsity_weight: float = ExplainConfig.sparsity_weight
    entropy_weight: float = ExplainConfig.entropy_weight
    k: int = TOP_K
    min_support: int = MIN_SUPPORT

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, tuple):
                ok, want = isinstance(value, tuple) and all(is_number(v) for v in value), "a list of numbers"
            elif isinstance(f.default, int):
                ok, want = is_int(value), "an integer"
            else:
                ok, want = is_number(value), "a number"
            if not ok:
                raise ConfigError(f"{f.name} must be {want}, not {value!r}")
        self.encoder_config()
        self.train_config()
        self.split_spec()
        self.explain_settings()
        _at_least(1, k=self.k)
        _at_least(MIN_SUPPORT, min_support=self.min_support)

    # Each group's fields in their order.
    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(self.embed_dim, self.gru_hidden, self.stmt_dim)

    def train_config(self) -> TrainConfig:
        return TrainConfig(self.epochs, self.lr, self.batch_size, self.patience, self.seed)

    def split_spec(self) -> SplitSpec:
        return SplitSpec(self.fractions, self.seed, self.real_ratio)

    def explain_settings(self) -> ExplainConfig:
        return ExplainConfig(self.explain_iterations, self.explain_lr, self.sparsity_weight, self.entropy_weight)


def load_run_config(path: str | None, overrides: dict) -> RunConfig:
    """Defaults < the JSON object in the file at `path` < each override that
    is not None, checked whole."""
    merged = {}
    if path is not None:
        merged = decode_json(Path(path).read_bytes(), ConfigError, path)
        if not isinstance(merged, dict):
            raise ConfigError(f"{path}: config file must hold a JSON object")
        unknown = set(merged) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged.update((key, value) for key, value in overrides.items() if value is not None)
    if isinstance(merged.get("fractions"), list):
        merged["fractions"] = tuple(merged["fractions"])
    return RunConfig(**merged)
