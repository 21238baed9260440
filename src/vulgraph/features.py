"""Statement-level feature extraction.

Each statement yields five raw views that the encoders consume:

  1. sub-tokens of its identifiers (variables, called methods, type names),
  2. its AST subtree,
  3. names and declared types of the variables it touches,
  4. the statements it shares a data dependence with, and
  5. the statements it shares a control dependence with.

Identifiers are split at case changes, letter/digit boundaries and
underscores, lowercased, with single-character pieces dropped.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import EmptyTree, VocabularyError
from .frontend.lexer import KEYWORDS
from .frontend.pdg import EDGE_KINDS, Pdg, recover_decl_types

PAD_ID = 0
UNK_ID = 1
CONTEXT_CAP = 8  # nearest-by-index statements kept per dependence direction pair

_CAMEL = re.compile(
    r"[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+|[0-9]+"
)
_NON_ALNUM = re.compile(r"[^0-9A-Za-z]+")


def split_identifier(name: str) -> list[str]:
    """Sub-token split: case/digit/underscore boundaries, lowercased,
    single-character pieces dropped."""
    return list(_split(name))


@functools.lru_cache(maxsize=1 << 14)  # identifiers repeat across methods
def _split(name: str) -> tuple[str, ...]:
    pieces: list[str] = []
    for chunk in _NON_ALNUM.split(name):
        if chunk:
            pieces.extend(_CAMEL.findall(chunk))
    return tuple(p.lower() for p in pieces if len(p) > 1)


class FlatTree(NamedTuple):
    """A syntax tree in post-order: children before parents, the root last."""

    labels: list[str]  # each node's label, normalized for the vocabulary
    heights: list[int]  # 0 for a leaf, else 1 + the highest child's
    parents: list[int]  # (parent, child) node pairs, parent by parent
    children: list[int]


def flatten_ast(ast) -> FlatTree:
    """The tree `ast` ([label, [child, ...]]) in post-order."""
    if not ast:
        raise EmptyTree("cannot encode an empty syntax tree")
    labels: list[str] = []
    heights: list[int] = []
    parents: list[int] = []
    children: list[int] = []

    def visit(node) -> int:
        kids = node[1]
        if kids:
            kids = [visit(c) for c in kids]
            heights.append(1 + max([heights[k] for k in kids]))
            parents.extend([len(labels)] * len(kids))
            children.extend(kids)
        else:
            heights.append(0)
        labels.append(normalize_ast_label(node[0]))
        return len(labels) - 1

    visit(ast)
    return FlatTree(labels, heights, parents, children)


@dataclass
class StatementFeatureBundle:
    index: int
    subtokens: list[str]
    ast: list
    var_names: list[list[str]]
    var_types: list[list[str]]
    data_ctx: list[int]
    ctrl_ctx: list[int]

    @functools.cached_property
    def tree(self) -> FlatTree:
        """The statement's syntax tree flattened, once per bundle: the
        Tree-LSTM reads it in every batch of every epoch."""
        return flatten_ast(self.ast)


def _type_words(type_text: str) -> list[str]:
    return [w for w in type_text.replace("*", " ").split() if w]


def statement_identifiers(kind: str, ast) -> list[str]:
    """Identifier tokens of a statement in source order: variable names,
    called method names, and non-keyword type names. Literals, jump labels
    and keywords contribute nothing."""
    out: list[str] = []

    def walk(node):
        label, children = node[0], node[1]
        if label.startswith("id:"):
            out.append(label[3:])
        elif label.startswith("call:"):
            out.append(label[5:])
        elif label.startswith(("arrow:", "dot:")):
            walk(children[0])
            out.append(label.split(":", 1)[1])
            return
        elif label.startswith("type:"):
            out.extend(w for w in _type_words(label[5:]) if w not in KEYWORDS)
        for child in children:
            walk(child)

    if kind not in ("goto", "label", "block-enter"):
        walk(ast)
    return out


def normalize_ast_label(label: str) -> str:
    """Collapse literal values to their literal class; keep other labels."""
    if label.startswith("int:"):
        return "intlit"
    if label.startswith("str:"):
        return "strlit"
    if label.startswith("char:"):
        return "charlit"
    return label


def _capped_context(neighbors: set[int], center: int) -> list[int]:
    if len(neighbors) <= CONTEXT_CAP:
        return sorted(neighbors)
    nearest = sorted(neighbors, key=lambda j: (abs(j - center), j))[:CONTEXT_CAP]
    return sorted(nearest)


def extract_method_features(pdg: Pdg) -> list[StatementFeatureBundle]:
    decl_types = pdg.decl_types or recover_decl_types(pdg.nodes)
    # each statement's data and control neighbours, either direction, from
    # one pass over the edges (Pdg.neighbors for every statement at once)
    context = {kind: [set() for _ in pdg.nodes] for kind in EDGE_KINDS}
    for e in pdg.edges:
        if e.src != e.dst:
            near = context[e.kind]
            near[e.src].add(e.dst)
            near[e.dst].add(e.src)
    data, ctrl = context["data"], context["control"]
    bundles = []
    for node in pdg.nodes:
        variables = sorted(set(node.defs) | set(node.uses))
        var_names = [split_identifier(v) for v in variables]
        var_types = [_type_words(decl_types.get(v, "UNK")) for v in variables]
        subtokens = []
        for ident in statement_identifiers(node.kind, node.ast):
            subtokens.extend(_split(ident))
        i = node.index
        bundles.append(
            StatementFeatureBundle(
                index=i,
                subtokens=subtokens,
                ast=node.ast,
                var_names=var_names,
                var_types=var_types,
                data_ctx=_capped_context(data[i], i),
                ctrl_ctx=_capped_context(ctrl[i], i),
            )
        )
    return bundles


class Vocabulary:
    """Token table with reserved PAD=0 and UNK=1.

    Ids are assigned by descending count, ties broken lexicographically, so
    the table is a pure function of the training corpus.
    """

    def __init__(self, token_to_id: dict[str, int]):
        self.token_to_id = token_to_id

    def __len__(self) -> int:
        return len(self.token_to_id) + 2

    def to_dict(self) -> dict:
        return {"tokens": self.token_to_id}

    @classmethod
    def from_dict(cls, data: dict) -> "Vocabulary":
        tokens = data["tokens"]
        ids = sorted(tokens.values())
        if ids != list(range(2, 2 + len(ids))):
            raise VocabularyError("token ids must be dense starting at 2")
        return cls(dict(tokens))


def bundle_tokens(bundle: StatementFeatureBundle) -> list[str]:
    """Every vocabulary-relevant token of a bundle; its syntax tree's labels
    come from the flattened tree the Tree-LSTM reads."""
    tokens = list(bundle.subtokens)
    for seq in bundle.var_names:
        tokens.extend(seq)
    for seq in bundle.var_types:
        tokens.extend(seq)
    tokens.extend(bundle.tree.labels)
    return tokens


def build_vocabulary(bundle_lists: list[list[StatementFeatureBundle]]) -> Vocabulary:
    counts: dict[str, int] = {}
    for bundles in bundle_lists:
        for bundle in bundles:
            for token in bundle_tokens(bundle):
                counts[token] = counts.get(token, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary({tok: i + 2 for i, (tok, _) in enumerate(ordered)})
