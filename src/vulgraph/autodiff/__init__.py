"""fp64 reverse-mode autodiff: tensors, parameters, optimizers, checkpoints."""

from .checkpoint import load_checkpoint, save_checkpoint
from .params import Adam, ParamStore, add_params, glorot
from .tensor import Tensor, concat, gru_sequence, rows

__all__ = [
    "Adam",
    "ParamStore",
    "Tensor",
    "add_params",
    "concat",
    "glorot",
    "gru_sequence",
    "load_checkpoint",
    "rows",
    "save_checkpoint",
]
