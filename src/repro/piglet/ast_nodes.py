"""AST node definitions for Piglet."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


# -- expressions --------------------------------------------------------------


@dataclass(frozen=True)
class NumberLit:
    value: float

    @property
    def is_integral(self) -> bool:
        return float(self.value).is_integer()


@dataclass(frozen=True)
class StringLit:
    value: str


@dataclass(frozen=True)
class FieldRef:
    """A named field of the current row."""

    name: str


@dataclass(frozen=True)
class PositionalRef:
    """``$N``: the N-th field of the current row."""

    index: int


@dataclass(frozen=True)
class DottedRef:
    """``bag.field``: a column projected out of a grouped bag."""

    bag: str
    field: str


@dataclass(frozen=True)
class FuncCall:
    name: str  # upper-cased
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / % == != < <= > >= AND OR
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class UnaryOp:
    op: str  # - NOT
    operand: "Expr"


Expr = Union[NumberLit, StringLit, FieldRef, PositionalRef, DottedRef, FuncCall, BinOp, UnaryOp]


# -- statements ----------------------------------------------------------------


@dataclass(frozen=True)
class SchemaField:
    name: str
    type: str = "bytearray"  # int | long | float | double | chararray | bytearray


@dataclass(frozen=True)
class Load:
    path: str
    using: Optional[str] = None  # e.g. "EventStorage"
    using_args: tuple[str, ...] = ()
    schema: tuple[SchemaField, ...] = ()


@dataclass(frozen=True)
class GenerateItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class Foreach:
    rel: str
    items: tuple[GenerateItem, ...]


@dataclass(frozen=True)
class Filter:
    rel: str
    condition: Expr


@dataclass(frozen=True)
class Group:
    rel: str
    keys: tuple[Expr, ...]


@dataclass(frozen=True)
class EquiJoin:
    left: str
    left_key: Expr
    right: str
    right_key: Expr


@dataclass(frozen=True)
class SpatialJoin:
    left: str
    left_key: Expr
    right: str
    right_key: Expr
    predicate: str  # INTERSECTS | CONTAINS | CONTAINEDBY | WITHINDISTANCE
    predicate_args: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class SpatialPartition:
    rel: str
    key: Expr
    method: str  # GRID | BSP
    args: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class LiveIndex:
    rel: str
    key: Expr
    order: int = 10


@dataclass(frozen=True)
class Cluster:
    rel: str
    key: Expr
    eps: Expr
    min_pts: Expr
    label_alias: str = "cluster_id"


@dataclass(frozen=True)
class Knn:
    rel: str
    key: Expr
    query: Expr
    k: Expr


@dataclass(frozen=True)
class Distinct:
    rel: str


@dataclass(frozen=True)
class Limit:
    rel: str
    count: int


@dataclass(frozen=True)
class OrderBy:
    rel: str
    key: Expr
    descending: bool = False


@dataclass(frozen=True)
class UnionOp:
    left: str
    right: str


@dataclass(frozen=True)
class Sample:
    rel: str
    fraction: float
    seed: int = 17


@dataclass(frozen=True)
class CrossOp:
    left: str
    right: str


RelationOp = Union[
    Load, Foreach, Filter, Group, EquiJoin, SpatialJoin, SpatialPartition,
    LiveIndex, Cluster, Knn, Distinct, Limit, OrderBy, UnionOp, Sample, CrossOp,
]


@dataclass(frozen=True)
class Assign:
    alias: str
    op: RelationOp


@dataclass(frozen=True)
class Dump:
    rel: str


@dataclass(frozen=True)
class Store:
    rel: str
    path: str


@dataclass(frozen=True)
class Describe:
    rel: str


@dataclass(frozen=True)
class Explain:
    rel: str


Statement = Union[Assign, Dump, Store, Describe, Explain]


@dataclass(frozen=True)
class Program:
    statements: tuple[Statement, ...] = field(default_factory=tuple)
