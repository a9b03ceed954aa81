"""Recursive-descent parser for Piglet scripts."""

from __future__ import annotations

from repro.piglet import ast_nodes as ast
from repro.piglet.lexer import PigletSyntaxError, Token, tokenize

_SPATIAL_PREDICATES = {"INTERSECTS", "CONTAINS", "CONTAINEDBY", "WITHINDISTANCE"}


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- cursor helpers -----------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def _error(self, message: str) -> PigletSyntaxError:
        tok = self._peek()
        return PigletSyntaxError(f"{message}, found {tok.value!r}", tok.line, tok.column)

    def _expect(self, kind: str, value: str | None = None) -> Token:
        tok = self._peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value or kind
            raise self._error(f"expected {want}")
        return self._next()

    def _accept(self, kind: str, value: str | None = None) -> Token | None:
        tok = self._peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self._next()
        return None

    def _keyword(self, word: str) -> Token:
        return self._expect("KEYWORD", word)

    def _accept_keyword(self, word: str) -> bool:
        return self._accept("KEYWORD", word) is not None

    # -- program ----------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        statements: list[ast.Statement] = []
        while self._peek().kind != "EOF":
            statements.append(self._statement())
            self._expect("OP", ";")
        return ast.Program(tuple(statements))

    def _statement(self) -> ast.Statement:
        tok = self._peek()
        if tok.kind == "KEYWORD" and tok.value == "DUMP":
            self._next()
            return ast.Dump(self._expect("NAME").value)
        if tok.kind == "KEYWORD" and tok.value == "DESCRIBE":
            self._next()
            return ast.Describe(self._expect("NAME").value)
        if tok.kind == "KEYWORD" and tok.value == "EXPLAIN":
            self._next()
            return ast.Explain(self._expect("NAME").value)
        if tok.kind == "KEYWORD" and tok.value == "STORE":
            self._next()
            rel = self._expect("NAME").value
            self._keyword("INTO")
            path = self._expect("STRING").value
            return ast.Store(rel, path)
        if tok.kind == "NAME":
            alias = self._next().value
            self._expect("OP", "=")
            return ast.Assign(alias, self._relation_op())
        raise self._error("expected a statement")

    # -- relation operators ------------------------------------------------------

    def _relation_op(self) -> ast.RelationOp:
        tok = self._peek()
        if tok.kind != "KEYWORD":
            raise self._error("expected a relational operator")
        handlers = {
            "LOAD": self._load,
            "FOREACH": self._foreach,
            "FILTER": self._filter,
            "GROUP": self._group,
            "JOIN": self._join,
            "SPATIAL_JOIN": self._spatial_join,
            "SPATIAL_PARTITION": self._spatial_partition,
            "LIVEINDEX": self._liveindex,
            "CLUSTER": self._cluster,
            "KNN": self._knn,
            "DISTINCT": self._distinct,
            "LIMIT": self._limit,
            "ORDER": self._order,
            "UNION": self._union,
            "SAMPLE": self._sample,
            "CROSS": self._cross,
        }
        handler = handlers.get(tok.value)
        if handler is None:
            raise self._error("expected a relational operator")
        self._next()
        return handler()

    def _load(self) -> ast.Load:
        path = self._expect("STRING").value
        using = None
        using_args: tuple[str, ...] = ()
        if self._accept_keyword("USING"):
            using = self._expect("NAME").value
            self._expect("OP", "(")
            args = []
            while not self._accept("OP", ")"):
                args.append(self._expect("STRING").value)
                self._accept("OP", ",")
            using_args = tuple(args)
        schema: tuple[ast.SchemaField, ...] = ()
        if self._accept_keyword("AS"):
            schema = self._schema()
        return ast.Load(path, using, using_args, schema)

    def _schema(self) -> tuple[ast.SchemaField, ...]:
        self._expect("OP", "(")
        fields = []
        while True:
            name = self._expect("NAME").value
            type_name = "bytearray"
            if self._accept("OP", ":"):
                type_name = self._expect("NAME").value.lower()
            fields.append(ast.SchemaField(name, type_name))
            if self._accept("OP", ")"):
                break
            self._expect("OP", ",")
        return tuple(fields)

    def _foreach(self) -> ast.Foreach:
        rel = self._expect("NAME").value
        self._keyword("GENERATE")
        items = [self._generate_item()]
        while self._accept("OP", ","):
            items.append(self._generate_item())
        return ast.Foreach(rel, tuple(items))

    def _generate_item(self) -> ast.GenerateItem:
        expr = self.expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect("NAME").value
        return ast.GenerateItem(expr, alias)

    def _filter(self) -> ast.Filter:
        rel = self._expect("NAME").value
        self._keyword("BY")
        return ast.Filter(rel, self.expression())

    def _group(self) -> ast.Group:
        rel = self._expect("NAME").value
        self._keyword("BY")
        keys = [self.expression()]
        while self._accept("OP", ","):
            keys.append(self.expression())
        return ast.Group(rel, tuple(keys))

    def _join(self) -> ast.EquiJoin:
        left = self._expect("NAME").value
        self._keyword("BY")
        left_key = self.expression()
        self._expect("OP", ",")
        right = self._expect("NAME").value
        self._keyword("BY")
        right_key = self.expression()
        return ast.EquiJoin(left, left_key, right, right_key)

    def _spatial_join(self) -> ast.SpatialJoin:
        left = self._expect("NAME").value
        self._keyword("BY")
        left_key = self.expression()
        self._expect("OP", ",")
        right = self._expect("NAME").value
        self._keyword("BY")
        right_key = self.expression()
        self._keyword("ON")
        predicate = self._expect("NAME").value.upper()
        if predicate not in _SPATIAL_PREDICATES:
            raise self._error(
                f"unknown spatial predicate {predicate!r}; "
                f"known: {sorted(_SPATIAL_PREDICATES)}"
            )
        args: tuple[ast.Expr, ...] = ()
        if self._accept("OP", "("):
            arg_list = []
            while not self._accept("OP", ")"):
                arg_list.append(self.expression())
                self._accept("OP", ",")
            args = tuple(arg_list)
        return ast.SpatialJoin(left, left_key, right, right_key, predicate, args)

    def _spatial_partition(self) -> ast.SpatialPartition:
        rel = self._expect("NAME").value
        self._keyword("BY")
        key = self.expression()
        self._keyword("USING")
        method = self._expect("NAME").value.upper()
        if method not in ("GRID", "BSP"):
            raise self._error(f"unknown partitioner {method!r}; known: GRID, BSP")
        args: list[ast.Expr] = []
        self._expect("OP", "(")
        while not self._accept("OP", ")"):
            args.append(self.expression())
            self._accept("OP", ",")
        return ast.SpatialPartition(rel, key, method, tuple(args))

    def _liveindex(self) -> ast.LiveIndex:
        rel = self._expect("NAME").value
        self._keyword("BY")
        key = self.expression()
        order = 10
        if self._accept_keyword("ORDER"):
            order = int(self._expect("NUMBER").value)
        return ast.LiveIndex(rel, key, order)

    def _cluster(self) -> ast.Cluster:
        rel = self._expect("NAME").value
        self._keyword("BY")
        key = self.expression()
        self._keyword("USING")
        name = self._expect("NAME").value.upper()
        if name != "DBSCAN":
            raise self._error(f"unknown clustering algorithm {name!r}; known: DBSCAN")
        self._expect("OP", "(")
        eps = self.expression()
        self._expect("OP", ",")
        min_pts = self.expression()
        self._expect("OP", ")")
        label = "cluster_id"
        if self._accept_keyword("AS"):
            label = self._expect("NAME").value
        return ast.Cluster(rel, key, eps, min_pts, label)

    def _knn(self) -> ast.Knn:
        rel = self._expect("NAME").value
        self._keyword("BY")
        key = self.expression()
        self._keyword("QUERY")
        query = self.expression()
        self._keyword("K")
        k = self.expression()
        return ast.Knn(rel, key, query, k)

    def _distinct(self) -> ast.Distinct:
        return ast.Distinct(self._expect("NAME").value)

    def _limit(self) -> ast.Limit:
        rel = self._expect("NAME").value
        count = int(self._expect("NUMBER").value)
        return ast.Limit(rel, count)

    def _order(self) -> ast.OrderBy:
        rel = self._expect("NAME").value
        self._keyword("BY")
        key = self.expression()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return ast.OrderBy(rel, key, descending)

    def _union(self) -> ast.UnionOp:
        left = self._expect("NAME").value
        self._expect("OP", ",")
        right = self._expect("NAME").value
        return ast.UnionOp(left, right)

    def _sample(self) -> ast.Sample:
        rel = self._expect("NAME").value
        fraction = float(self._expect("NUMBER").value)
        return ast.Sample(rel, fraction)

    def _cross(self) -> ast.CrossOp:
        left = self._expect("NAME").value
        self._expect("OP", ",")
        right = self._expect("NAME").value
        return ast.CrossOp(left, right)

    # -- expressions ---------------------------------------------------------------

    def expression(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        expr = self._and_expr()
        while self._accept_keyword("OR"):
            expr = ast.BinOp("OR", expr, self._and_expr())
        return expr

    def _and_expr(self) -> ast.Expr:
        expr = self._not_expr()
        while self._accept_keyword("AND"):
            expr = ast.BinOp("AND", expr, self._not_expr())
        return expr

    def _not_expr(self) -> ast.Expr:
        if self._accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._not_expr())
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        expr = self._additive()
        tok = self._peek()
        if tok.kind == "OP" and tok.value in ("==", "!=", "<", "<=", ">", ">="):
            op = self._next().value
            return ast.BinOp(op, expr, self._additive())
        return expr

    def _additive(self) -> ast.Expr:
        expr = self._multiplicative()
        while True:
            tok = self._peek()
            if tok.kind == "OP" and tok.value in ("+", "-"):
                op = self._next().value
                expr = ast.BinOp(op, expr, self._multiplicative())
            else:
                return expr

    def _multiplicative(self) -> ast.Expr:
        expr = self._unary()
        while True:
            tok = self._peek()
            if tok.kind == "OP" and tok.value in ("*", "/", "%"):
                op = self._next().value
                expr = ast.BinOp(op, expr, self._unary())
            else:
                return expr

    def _unary(self) -> ast.Expr:
        if self._accept("OP", "-"):
            return ast.UnaryOp("-", self._unary())
        return self._primary()

    def _primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind == "NUMBER":
            self._next()
            return ast.NumberLit(float(tok.value))
        if tok.kind == "STRING":
            self._next()
            return ast.StringLit(tok.value)
        if tok.kind == "DOLLAR":
            self._next()
            return ast.PositionalRef(int(tok.value))
        if tok.kind == "KEYWORD" and tok.value == "K":
            # allow K as a field name outside the KNN clause context
            self._next()
            return ast.FieldRef("K")
        if tok.kind == "KEYWORD" and tok.value == "GROUP":
            # "group" is the implicit key field of a grouped relation
            self._next()
            return ast.FieldRef("group")
        if tok.kind == "NAME":
            self._next()
            name = tok.value
            if self._accept("OP", "("):
                args = []
                while not self._accept("OP", ")"):
                    args.append(self.expression())
                    if not self._accept("OP", ","):
                        self._expect("OP", ")")
                        break
                return ast.FuncCall(name.upper(), tuple(args))
            if self._accept("OP", "."):
                field = self._expect("NAME").value
                return ast.DottedRef(name, field)
            return ast.FieldRef(name)
        if self._accept("OP", "("):
            expr = self.expression()
            self._expect("OP", ")")
            return expr
        raise self._error("expected an expression")


def parse(text: str) -> ast.Program:
    """Parse a Piglet script into its AST."""
    return _Parser(tokenize(text)).parse_program()
