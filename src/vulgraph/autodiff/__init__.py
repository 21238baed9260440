"""fp64 reverse-mode autodiff: tensors, parameters, optimizers, checkpoints."""

from .checkpoint import load_checkpoint, save_checkpoint
from .params import Adam, ParamStore, glorot, init_params
from .tensor import Tensor, concat, gru_sequence, rows

__all__ = [
    "Adam",
    "ParamStore",
    "Tensor",
    "concat",
    "glorot",
    "gru_sequence",
    "init_params",
    "load_checkpoint",
    "rows",
    "save_checkpoint",
]
