"""The Piglet parser: statement shapes and the expression grammar."""

import pytest

from repro.piglet import ast_nodes as ast
from repro.piglet.lexer import PigletSyntaxError
from repro.piglet.parser import parse


def only_statement(text):
    program = parse(text)
    assert len(program.statements) == 1
    return program.statements[0]


class TestStatements:
    def test_load_with_loader(self):
        stmt = only_statement("ev = LOAD 'data.csv' USING EventStorage(';');")
        assert stmt.alias == "ev"
        assert stmt.op == ast.Load("data.csv", "EventStorage", (";",))

    def test_load_with_schema(self):
        stmt = only_statement("r = LOAD 'f' AS (id:int, name:chararray, score:double);")
        assert stmt.op.schema == (
            ast.SchemaField("id", "int"),
            ast.SchemaField("name", "chararray"),
            ast.SchemaField("score", "double"),
        )

    def test_load_schema_default_type(self):
        stmt = only_statement("r = LOAD 'f' AS (a, b);")
        assert stmt.op.schema[0].type == "bytearray"

    def test_foreach_generate(self):
        stmt = only_statement("o = FOREACH r GENERATE id, name AS n, id + 1;")
        items = stmt.op.items
        assert items[0] == ast.GenerateItem(ast.FieldRef("id"), None)
        assert items[1] == ast.GenerateItem(ast.FieldRef("name"), "n")
        assert isinstance(items[2].expr, ast.BinOp)

    def test_filter(self):
        stmt = only_statement("f = FILTER r BY score >= 10 AND NOT bad;")
        assert isinstance(stmt.op.condition, ast.BinOp)
        assert stmt.op.condition.op == "AND"

    def test_group(self):
        stmt = only_statement("g = GROUP r BY category;")
        assert stmt.op == ast.Group("r", (ast.FieldRef("category"),))

    def test_group_multiple_keys(self):
        stmt = only_statement("g = GROUP r BY a, b;")
        assert len(stmt.op.keys) == 2

    def test_equijoin(self):
        stmt = only_statement("j = JOIN a BY id, b BY ref;")
        assert stmt.op == ast.EquiJoin(
            "a", ast.FieldRef("id"), "b", ast.FieldRef("ref")
        )

    def test_spatial_join(self):
        stmt = only_statement("j = SPATIAL_JOIN a BY obj, b BY loc ON INTERSECTS;")
        assert stmt.op.predicate == "INTERSECTS"

    def test_spatial_join_with_distance(self):
        stmt = only_statement(
            "j = SPATIAL_JOIN a BY obj, b BY loc ON WITHINDISTANCE(5.0);"
        )
        assert stmt.op.predicate == "WITHINDISTANCE"
        assert stmt.op.predicate_args == (ast.NumberLit(5.0),)

    def test_spatial_join_unknown_predicate(self):
        with pytest.raises(PigletSyntaxError, match="predicate"):
            parse("j = SPATIAL_JOIN a BY x, b BY y ON TOUCHES;")

    def test_spatial_partition(self):
        stmt = only_statement("p = SPATIAL_PARTITION r BY obj USING BSP(100, 2.5);")
        assert stmt.op.method == "BSP"
        assert stmt.op.args == (ast.NumberLit(100), ast.NumberLit(2.5))

    def test_spatial_partition_unknown_method(self):
        with pytest.raises(PigletSyntaxError):
            parse("p = SPATIAL_PARTITION r BY obj USING KDTREE(3);")

    def test_liveindex(self):
        stmt = only_statement("i = LIVEINDEX r BY obj ORDER 5;")
        assert stmt.op == ast.LiveIndex("r", ast.FieldRef("obj"), 5)

    def test_liveindex_default_order(self):
        assert only_statement("i = LIVEINDEX r BY obj;").op.order == 10

    def test_cluster(self):
        stmt = only_statement("c = CLUSTER r BY obj USING DBSCAN(2.5, 5) AS label;")
        assert stmt.op.label_alias == "label"
        assert stmt.op.eps == ast.NumberLit(2.5)

    def test_knn(self):
        stmt = only_statement("n = KNN r BY obj QUERY STOBJECT('POINT (1 2)') K 5;")
        assert isinstance(stmt.op.query, ast.FuncCall)
        assert stmt.op.k == ast.NumberLit(5)

    def test_dump_store_describe(self):
        program = parse("DUMP r; STORE r INTO 'out'; DESCRIBE r;")
        assert program.statements == (
            ast.Dump("r"), ast.Store("r", "out"), ast.Describe("r"),
        )

    def test_limit_order_distinct_union(self):
        program = parse(
            "a = LIMIT r 5; b = ORDER r BY x DESC; c = DISTINCT r; d = UNION a, b;"
        )
        ops = [s.op for s in program.statements]
        assert ops[0] == ast.Limit("r", 5)
        assert ops[1] == ast.OrderBy("r", ast.FieldRef("x"), True)
        assert ops[2] == ast.Distinct("r")
        assert ops[3] == ast.UnionOp("a", "b")

    def test_missing_semicolon(self):
        with pytest.raises(PigletSyntaxError):
            parse("DUMP r")

    def test_unknown_operator(self):
        with pytest.raises(PigletSyntaxError):
            parse("x = EXPLODE r;")

    def test_skyline_is_not_a_statement(self):
        with pytest.raises(PigletSyntaxError, match="relational operator"):
            parse("s = SKYLINE r BY obj QUERY STOBJECT('POINT (0 0)');")


class TestExpressions:
    def parse_expr(self, text):
        return only_statement(f"x = FILTER r BY {text};").op.condition

    def test_precedence_mul_over_add(self):
        expr = self.parse_expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_and_over_or(self):
        expr = self.parse_expr("a OR b AND c")
        assert expr.op == "OR"
        assert expr.right.op == "AND"

    def test_comparison_binds_tighter_than_and(self):
        expr = self.parse_expr("x > 1 AND y < 2")
        assert expr.op == "AND"
        assert expr.left.op == ">"

    def test_parentheses(self):
        expr = self.parse_expr("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_unary_minus_and_not(self):
        assert self.parse_expr("-x") == ast.UnaryOp("-", ast.FieldRef("x"))
        assert self.parse_expr("NOT a") == ast.UnaryOp("NOT", ast.FieldRef("a"))

    def test_function_call(self):
        expr = self.parse_expr("DISTANCE(a, b) < 5")
        assert expr.left == ast.FuncCall(
            "DISTANCE", (ast.FieldRef("a"), ast.FieldRef("b"))
        )

    def test_nested_function_call(self):
        expr = self.parse_expr("CONTAINEDBY(obj, STOBJECT('POINT (1 2)', 0, 10))")
        assert expr.name == "CONTAINEDBY"
        inner = expr.args[1]
        assert inner.name == "STOBJECT"
        assert len(inner.args) == 3

    def test_zero_arg_call(self):
        assert self.parse_expr("FOO()") == ast.FuncCall("FOO", ())

    def test_function_names_uppercased(self):
        assert self.parse_expr("count(x)").name == "COUNT"

    def test_dotted_ref(self):
        assert self.parse_expr("bag.field") == ast.DottedRef("bag", "field")

    def test_positional_ref(self):
        assert self.parse_expr("$2 == 1").left == ast.PositionalRef(2)

    def test_group_keyword_as_field(self):
        assert self.parse_expr("group == 'x'").left == ast.FieldRef("group")

    def test_string_literal(self):
        assert self.parse_expr("'abc'") == ast.StringLit("abc")
