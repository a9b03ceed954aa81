"""The Piglet interpreter: statements to RDD programs.

A :class:`PigletRuntime` holds the alias environment.  Relations carry
their schema (field names) and, after ``SPATIAL_PARTITION`` or
``LIVEINDEX``, a spatially keyed twin RDD that the planner's fast
filter path and ``SPATIAL_JOIN`` operate on.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from repro.core import filter as filter_ops
from repro.core import join as join_ops
from repro.core import knn as knn_ops
from repro.core.clustering.mr_dbscan import dbscan
from repro.core.predicates import (
    CONTAINED_BY,
    CONTAINS,
    INTERSECTS,
    within_distance_predicate,
)
from repro.core.stobject import STObject
from repro.io.readers import parse_event_line
from repro.partitioners.bsp import BSPartitioner
from repro.partitioners.grid import GridPartitioner
from repro.piglet import ast_nodes as ast
from repro.piglet import planner
from repro.piglet.builtins import (
    AGGREGATE_FUNCTIONS,
    SCALAR_FUNCTIONS,
    PigletRuntimeError,
)
from repro.piglet.parser import parse
from repro.spark.context import SparkContext
from repro.spark.rdd import RDD

_TYPE_CASTS: dict[str, Callable[[str], Any]] = {
    "int": int,
    "long": int,
    "float": float,
    "double": float,
    "chararray": str,
    "bytearray": str,
}


@dataclass
class Relation:
    """A named dataset: rows (tuples) plus field names.

    ``keyed`` mirrors the rows as ``(STObject, row)`` pairs, spatially
    partitioned; ``spatial_key`` names the field that is the key;
    ``index_order`` marks a live-indexed relation.  ``bags`` maps
    bag-valued fields (from GROUP) to their inner schemas.
    """

    rdd: RDD
    schema: tuple[str, ...]
    keyed: Optional[RDD] = None
    spatial_key: Optional[str] = None
    index_order: Optional[int] = None
    bags: dict[str, tuple[str, ...]] = field(default_factory=dict)


class _Evaluator:
    """Row-expression evaluation against a relation's schema."""

    def __init__(self, relation: Relation) -> None:
        self._schema = relation.schema
        self._indices = {name: i for i, name in enumerate(relation.schema)}
        self._bags = relation.bags

    def __call__(self, expr: ast.Expr, row: tuple) -> Any:
        return self._eval(expr, row)

    def _eval(self, expr: ast.Expr, row: tuple) -> Any:
        if isinstance(expr, ast.NumberLit):
            return int(expr.value) if expr.is_integral else expr.value
        if isinstance(expr, ast.StringLit):
            return expr.value
        if isinstance(expr, ast.FieldRef):
            index = self._indices.get(expr.name)
            if index is None:
                raise PigletRuntimeError(
                    f"unknown field {expr.name!r}; schema is {list(self._schema)}"
                )
            return row[index]
        if isinstance(expr, ast.PositionalRef):
            if expr.index >= len(row):
                raise PigletRuntimeError(
                    f"positional field ${expr.index} out of range for {len(row)}-tuple"
                )
            return row[expr.index]
        if isinstance(expr, ast.DottedRef):
            bag = self._eval(ast.FieldRef(expr.bag), row)
            inner = self._bags.get(expr.bag)
            if inner is None:
                raise PigletRuntimeError(f"{expr.bag!r} is not a grouped bag")
            try:
                column = inner.index(expr.field)
            except ValueError:
                raise PigletRuntimeError(
                    f"bag {expr.bag!r} has no field {expr.field!r}"
                ) from None
            return [inner_row[column] for inner_row in bag]
        if isinstance(expr, ast.FuncCall):
            return self._call(expr, row)
        if isinstance(expr, ast.BinOp):
            return self._binop(expr, row)
        if isinstance(expr, ast.UnaryOp):
            if expr.op == "-":
                return -self._eval(expr.operand, row)
            return not _truthy(self._eval(expr.operand, row))
        raise PigletRuntimeError(f"cannot evaluate {expr!r}")

    def _call(self, expr: ast.FuncCall, row: tuple) -> Any:
        if expr.name in AGGREGATE_FUNCTIONS:
            if len(expr.args) != 1:
                raise PigletRuntimeError(f"{expr.name} takes exactly one argument")
            values = self._eval(expr.args[0], row)
            if not isinstance(values, list):
                raise PigletRuntimeError(
                    f"{expr.name} applies to grouped bags; got {type(values).__name__}"
                )
            return AGGREGATE_FUNCTIONS[expr.name](values)
        fn = SCALAR_FUNCTIONS.get(expr.name)
        if fn is None:
            raise PigletRuntimeError(f"unknown function {expr.name!r}")
        return fn(*(self._eval(a, row) for a in expr.args))

    def _binop(self, expr: ast.BinOp, row: tuple) -> Any:
        if expr.op == "AND":
            return _truthy(self._eval(expr.left, row)) and _truthy(
                self._eval(expr.right, row)
            )
        if expr.op == "OR":
            return _truthy(self._eval(expr.left, row)) or _truthy(
                self._eval(expr.right, row)
            )
        left = self._eval(expr.left, row)
        right = self._eval(expr.right, row)
        ops: dict[str, Callable[[Any, Any], Any]] = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "/": lambda a, b: a / b,
            "%": lambda a, b: a % b,
            "==": lambda a, b: a == b,
            "!=": lambda a, b: a != b,
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b,
        }
        return ops[expr.op](left, right)


def _truthy(value: Any) -> bool:
    return bool(value)


_EMPTY_EVALUATOR_RELATION = Relation(rdd=None, schema=())  # type: ignore[arg-type]


def eval_constant(expr: ast.Expr) -> Any:
    """Evaluate an expression that references no fields."""
    return _Evaluator(_EMPTY_EVALUATOR_RELATION)(expr, ())


class PigletRuntime:
    """Executes Piglet programs against a :class:`SparkContext`.

    A spatial filter on a keyed relation runs through the live index
    when the script built one (``LIVEINDEX``) and as a pruned scan
    otherwise: the script, not a cost model, picks the route.
    """

    def __init__(self, context: SparkContext, output=None) -> None:
        self.context = context
        self.relations: dict[str, Relation] = {}
        self._output = output  # file-like sink for DUMP/DESCRIBE; None = stdout

    # -- public API ----------------------------------------------------------

    def run(self, script: str) -> dict[str, Relation]:
        """Parse and execute a script; returns the alias environment."""
        program = parse(script)
        for statement in program.statements:
            self.execute(statement)
        return self.relations

    def dump_to_string(self, script: str) -> str:
        """Run a script capturing DUMP/DESCRIBE output (for tests/demos)."""
        sink = io.StringIO()
        previous = self._output
        self._output = sink
        try:
            self.run(script)
        finally:
            self._output = previous
        return sink.getvalue()

    def relation(self, alias: str) -> Relation:
        rel = self.relations.get(alias)
        if rel is None:
            raise PigletRuntimeError(f"unknown relation {alias!r}")
        return rel

    # -- statements ----------------------------------------------------------

    def execute(self, statement: ast.Statement) -> None:
        if isinstance(statement, ast.Assign):
            self.relations[statement.alias] = self._relation_op(
                statement.alias, statement.op
            )
            return
        if isinstance(statement, ast.Dump):
            rel = self.relation(statement.rel)
            for row in rel.rdd.collect():
                self._print(_render_row(row))
            return
        if isinstance(statement, ast.Describe):
            rel = self.relation(statement.rel)
            self._print(f"{statement.rel}: ({', '.join(rel.schema)})")
            return
        if isinstance(statement, ast.Store):
            rel = self.relation(statement.rel)
            rel.rdd.map(_render_row).save_as_text_file(statement.path)
            return
        if isinstance(statement, ast.Explain):
            self._explain(statement.rel)
            return
        raise PigletRuntimeError(f"unknown statement {statement!r}")

    def _explain(self, alias: str) -> None:
        """Print the execution-relevant facts about a relation."""
        rel = self.relation(alias)
        self._print(f"{alias}: ({', '.join(rel.schema)})")
        if rel.spatial_key is not None:
            partitioner = rel.keyed.partitioner if rel.keyed is not None else None
            kind = type(partitioner).__name__ if partitioner else "unpartitioned"
            self._print(f"  spatial key: {rel.spatial_key} [{kind}]")
            if rel.index_order is not None:
                self._print(f"  live index: order {rel.index_order}")
            self._print(
                "  FILTER with a constant spatio-temporal predicate on the "
                "key uses the pruned/indexed path"
            )
        else:
            self._print("  no spatial metadata: filters evaluate row-by-row")
        self._print("  lineage:")
        for line in rel.rdd.to_debug_string().splitlines():
            self._print(f"    {line}")

    def _print(self, text: str) -> None:
        if self._output is None:
            print(text)
        else:
            self._output.write(text + "\n")

    # -- relation operators ---------------------------------------------------

    def _relation_op(self, alias: str, op: ast.RelationOp) -> Relation:
        handler = getattr(self, f"_op_{type(op).__name__.lower()}", None)
        if handler is None:
            raise PigletRuntimeError(f"unsupported operator {type(op).__name__}")
        return handler(alias, op)

    def _op_load(self, alias: str, op: ast.Load) -> Relation:
        lines = self.context.text_file(op.path)
        if op.using in ("EventStorage", "EVENTSTORAGE"):
            delimiter = op.using_args[0] if op.using_args else ";"

            def parse_line(line: str) -> tuple:
                return parse_event_line(line, delimiter)

            rdd = lines.filter(lambda l: l.strip()).map(parse_line)
            return Relation(rdd, ("id", "category", "time", "wkt"))

        if op.using not in (None, "PigStorage", "PIGSTORAGE"):
            raise PigletRuntimeError(f"unknown loader {op.using!r}")
        delimiter = op.using_args[0] if op.using_args else ","
        schema = op.schema
        if not schema:
            return Relation(
                lines.filter(lambda l: l.strip()).map(lambda l: (l,)), ("line",)
            )
        casts = [_TYPE_CASTS.get(f.type, str) for f in schema]
        names = tuple(f.name for f in schema)

        def parse_row(line: str) -> tuple:
            parts = line.split(delimiter)
            if len(parts) != len(casts):
                raise PigletRuntimeError(
                    f"expected {len(casts)} fields, got {len(parts)}: {line!r}"
                )
            return tuple(cast(part.strip()) for cast, part in zip(casts, parts))

        return Relation(lines.filter(lambda l: l.strip()).map(parse_row), names)

    def _op_foreach(self, alias: str, op: ast.Foreach) -> Relation:
        source = self.relation(op.rel)
        evaluate = _Evaluator(source)
        names = []
        for i, item in enumerate(op.items):
            if item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, ast.FieldRef):
                names.append(item.expr.name)
            else:
                names.append(f"f{i}")
        items = op.items

        def generate(row: tuple) -> tuple:
            return tuple(evaluate(item.expr, row) for item in items)

        return Relation(source.rdd.map(generate), tuple(names))

    def _op_filter(self, alias: str, op: ast.Filter) -> Relation:
        source = self.relation(op.rel)
        plan = planner.match_spatial_filter(
            op.condition, source.spatial_key, eval_constant
        )
        if plan is not None and source.keyed is not None:
            if source.index_order is not None:
                filtered = filter_ops.filter_live_index(
                    source.keyed, plan.query, plan.predicate, source.index_order
                )
            else:
                filtered = filter_ops.filter_no_index(
                    source.keyed, plan.query, plan.predicate
                )
            return replace(source, rdd=filtered.values(), keyed=filtered)
        evaluate = _Evaluator(source)
        condition = op.condition
        return replace(
            source,
            rdd=source.rdd.filter(lambda row: _truthy(evaluate(condition, row))),
            keyed=None,
            spatial_key=None,
            index_order=None,
        )

    def _op_group(self, alias: str, op: ast.Group) -> Relation:
        source = self.relation(op.rel)
        evaluate = _Evaluator(source)
        keys = op.keys

        def key_of(row: tuple) -> Any:
            if len(keys) == 1:
                return evaluate(keys[0], row)
            return tuple(evaluate(k, row) for k in keys)

        grouped = source.rdd.group_by(key_of).map(lambda kv: (kv[0], kv[1]))
        return Relation(
            grouped,
            ("group", op.rel),
            bags={op.rel: source.schema},
        )

    def _op_equijoin(self, alias: str, op: ast.EquiJoin) -> Relation:
        left = self.relation(op.left)
        right = self.relation(op.right)
        eval_left = _Evaluator(left)
        eval_right = _Evaluator(right)
        lk, rk = op.left_key, op.right_key
        joined = (
            left.rdd.key_by(lambda row: eval_left(lk, row))
            .join(right.rdd.key_by(lambda row: eval_right(rk, row)))
            .map(lambda kv: kv[1][0] + kv[1][1])
        )
        return Relation(joined, _merge_schemas(op.left, left, op.right, right))

    def _op_spatialjoin(self, alias: str, op: ast.SpatialJoin) -> Relation:
        left = self.relation(op.left)
        right = self.relation(op.right)
        predicate = self._resolve_join_predicate(op)
        left_keyed = self._keyed_for(left, op.left_key)
        right_keyed = (
            left_keyed
            if op.right == op.left and op.right_key == op.left_key
            else self._keyed_for(right, op.right_key)
        )
        pairs = join_ops.spatial_join(left_keyed, right_keyed, predicate)
        rows = pairs.map(lambda pair: pair[0][1] + pair[1][1])
        return Relation(rows, _merge_schemas(op.left, left, op.right, right))

    def _resolve_join_predicate(self, op: ast.SpatialJoin):
        if op.predicate == "INTERSECTS":
            return INTERSECTS
        if op.predicate == "CONTAINS":
            return CONTAINS
        if op.predicate == "CONTAINEDBY":
            return CONTAINED_BY
        if op.predicate == "WITHINDISTANCE":
            if len(op.predicate_args) != 1:
                raise PigletRuntimeError(
                    "WITHINDISTANCE join needs one argument: the distance"
                )
            return within_distance_predicate(
                float(eval_constant(op.predicate_args[0]))
            )
        raise PigletRuntimeError(f"unknown join predicate {op.predicate!r}")

    def _keyed_for(self, relation: Relation, key: ast.Expr) -> RDD:
        """The (STObject, row) twin, reusing a partitioned one if the key matches."""
        if (
            relation.keyed is not None
            and isinstance(key, ast.FieldRef)
            and key.name == relation.spatial_key
        ):
            return relation.keyed
        evaluate = _Evaluator(relation)
        return relation.rdd.map(lambda row: (_to_stobject(evaluate(key, row)), row))

    def _op_spatialpartition(self, alias: str, op: ast.SpatialPartition) -> Relation:
        source = self.relation(op.rel)
        keyed = self._keyed_for(source, op.key)
        args = [eval_constant(a) for a in op.args]
        if op.method == "GRID":
            ppd = int(args[0]) if args else 4
            partitioner = GridPartitioner.from_rdd(keyed, ppd)
        else:  # BSP
            max_cost = int(args[0]) if args else 1000
            side = float(args[1]) if len(args) > 1 else None
            partitioner = BSPartitioner.from_rdd(keyed, max_cost, side)
        partitioned = keyed.partition_by(partitioner)
        spatial_key = op.key.name if isinstance(op.key, ast.FieldRef) else None
        return replace(
            source,
            rdd=partitioned.values(),
            keyed=partitioned,
            spatial_key=spatial_key,
            index_order=None,
        )

    def _op_liveindex(self, alias: str, op: ast.LiveIndex) -> Relation:
        source = self.relation(op.rel)
        keyed = self._keyed_for(source, op.key)
        spatial_key = op.key.name if isinstance(op.key, ast.FieldRef) else None
        return replace(
            source,
            keyed=keyed,
            spatial_key=spatial_key,
            index_order=op.order,
        )

    def _op_cluster(self, alias: str, op: ast.Cluster) -> Relation:
        source = self.relation(op.rel)
        keyed = self._keyed_for(source, op.key)
        eps = float(eval_constant(op.eps))
        min_pts = int(eval_constant(op.min_pts))
        clustered = dbscan(keyed, eps, min_pts)
        rows = clustered.map(lambda kv: kv[1][0] + (kv[1][1],))
        return Relation(rows, source.schema + (op.label_alias,))

    def _op_knn(self, alias: str, op: ast.Knn) -> Relation:
        source = self.relation(op.rel)
        keyed = self._keyed_for(source, op.key)
        query = _to_stobject(eval_constant(op.query))
        k = int(eval_constant(op.k))
        nearest = knn_ops.knn(keyed, query, k)
        rows = [kv[1] + (distance,) for distance, kv in nearest]
        return Relation(
            self.context.parallelize(rows, max(1, min(len(rows), 4))),
            source.schema + ("knn_distance",),
        )

    def _op_distinct(self, alias: str, op: ast.Distinct) -> Relation:
        source = self.relation(op.rel)
        return replace(
            source, rdd=source.rdd.distinct(), keyed=None, spatial_key=None
        )

    def _op_limit(self, alias: str, op: ast.Limit) -> Relation:
        source = self.relation(op.rel)
        rows = source.rdd.take(op.count)
        return replace(
            source,
            rdd=self.context.parallelize(rows, max(1, min(len(rows), 4))),
            keyed=None,
            spatial_key=None,
        )

    def _op_orderby(self, alias: str, op: ast.OrderBy) -> Relation:
        source = self.relation(op.rel)
        evaluate = _Evaluator(source)
        key = op.key
        return replace(
            source,
            rdd=source.rdd.sort_by(
                lambda row: evaluate(key, row), ascending=not op.descending
            ),
            keyed=None,
            spatial_key=None,
        )

    def _op_unionop(self, alias: str, op: ast.UnionOp) -> Relation:
        left = self.relation(op.left)
        right = self.relation(op.right)
        if len(left.schema) != len(right.schema):
            raise PigletRuntimeError(
                f"UNION schema mismatch: {list(left.schema)} vs {list(right.schema)}"
            )
        return Relation(left.rdd.union(right.rdd), left.schema)

    def _op_sample(self, alias: str, op: ast.Sample) -> Relation:
        source = self.relation(op.rel)
        return replace(
            source,
            rdd=source.rdd.sample(op.fraction, seed=op.seed),
            keyed=None,
            spatial_key=None,
        )

    def _op_crossop(self, alias: str, op: ast.CrossOp) -> Relation:
        left = self.relation(op.left)
        right = self.relation(op.right)
        crossed = left.rdd.cartesian(right.rdd).map(lambda pair: pair[0] + pair[1])
        return Relation(crossed, _merge_schemas(op.left, left, op.right, right))


def _to_stobject(value: Any) -> STObject:
    if isinstance(value, STObject):
        return value
    return STObject(value)


def _merge_schemas(
    left_name: str, left: Relation, right_name: str, right: Relation
) -> tuple[str, ...]:
    """Concatenate schemas, disambiguating collisions.

    Pig uses ``rel::field``; our expression grammar has no ``::`` token,
    so collisions become ``rel_field`` -- referenceable as plain names.
    """
    collisions = set(left.schema) & set(right.schema)
    left_fields = [
        f"{left_name}_{f}" if f in collisions else f for f in left.schema
    ]
    right_fields = [
        f"{right_name}_{f}" if f in collisions else f for f in right.schema
    ]
    return tuple(left_fields + right_fields)


def _render_row(row: tuple) -> str:
    return "(" + ",".join(str(v) for v in row) + ")"


def run_script(
    context: SparkContext, script: str, output=None
) -> dict[str, Relation]:
    """One-shot convenience: run a Piglet script, return its relations."""
    return PigletRuntime(context, output).run(script)
