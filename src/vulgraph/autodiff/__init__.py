"""fp64 reverse-mode autodiff: the tape, parameters, an optimizer, checkpoints."""

from .checkpoint import load_checkpoint, save_checkpoint
from .params import Adam, ParamStore, glorot, init_params
from .tensor import Tensor

__all__ = [
    "Adam",
    "ParamStore",
    "Tensor",
    "glorot",
    "init_params",
    "load_checkpoint",
    "save_checkpoint",
]
