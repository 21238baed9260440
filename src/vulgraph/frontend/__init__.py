"""Mini-C frontend: tokenizer, parser, CFG, dependence analyses, PDG."""

from .cfg import Cfg, build_cfg
from .deps import control_dependences, data_dependences, reaching_definitions
from .lexer import Token, tokenize
from .parser import MethodAst, StmtNode, parse_method, parse_source
from .pdg import (
    Pdg,
    PdgEdge,
    build_pdg,
    pdg_from_dict,
    pdg_from_source,
    pdg_to_dict,
    pdg_to_dot,
    pdg_to_json,
    recover_decl_types,
)

__all__ = [
    "Cfg",
    "MethodAst",
    "Pdg",
    "PdgEdge",
    "StmtNode",
    "Token",
    "build_cfg",
    "build_pdg",
    "control_dependences",
    "data_dependences",
    "parse_method",
    "parse_source",
    "pdg_from_dict",
    "pdg_from_source",
    "pdg_to_dict",
    "pdg_to_dot",
    "pdg_to_json",
    "reaching_definitions",
    "recover_decl_types",
    "tokenize",
]
