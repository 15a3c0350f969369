"""Classify failed predictions into an eleven-leaf error taxonomy.

The decision cascade runs from the most specific evidence to the least:
syntax failures, references to absent tables or columns, JOIN mistakes,
nesting/set-operation mismatches, wrong FROM tables, wrong SELECT columns,
GROUP BY differences, and finally wrong-WHERE as the residual class.
Identifier comparison is case-insensitive with aliases expanded to their
base tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .evaluate import EvalOutcome
from .schema import DatabaseCatalog
from .skeleton import SqlToken, UnterminatedComment, UnterminatedString, tokenize

TABLES_NOT_EXIST = "schema_linking/tables_not_exist"
COLUMNS_NOT_EXIST = "schema_linking/columns_not_exist"
WRONG_TABLES = "schema_linking/wrong_tables"
WRONG_COLUMNS = "schema_linking/wrong_columns"
WRONG_WHERE = "schema_linking/wrong_where"
JOIN_WRONG_TABLES = "join/wrong_tables"
JOIN_WRONG_COLUMNS = "join/wrong_columns"
NESTED_SET_OPERATION = "nested/set_operation"
NESTED_WRONG_SUBQUERY = "nested/wrong_subquery"
SYNTAX_ERROR = "other/syntax_error"
GROUP_BY_ERROR = "other/group_by"

# (group, row, leaf) in report order.
TAXONOMY_ROWS = (
    ("Wrong schema linking", "Tables not exist", TABLES_NOT_EXIST),
    ("Wrong schema linking", "Columns not exist", COLUMNS_NOT_EXIST),
    ("Wrong schema linking", "Wrong tables", WRONG_TABLES),
    ("Wrong schema linking", "Wrong columns", WRONG_COLUMNS),
    ("Wrong schema linking", "Wrong where statement", WRONG_WHERE),
    ("Incorrect JOIN operation", "Wrong tables", JOIN_WRONG_TABLES),
    ("Incorrect JOIN operation", "Wrong columns", JOIN_WRONG_COLUMNS),
    ("Inaccurate nested structure", "Set operation", NESTED_SET_OPERATION),
    ("Inaccurate nested structure", "Wrong sub-query", NESTED_WRONG_SUBQUERY),
    ("Other", "Syntax error", SYNTAX_ERROR),
    ("Other", "Group-by error", GROUP_BY_ERROR),
)
LEAF_LABELS = tuple(row[2] for row in TAXONOMY_ROWS)


@dataclass(frozen=True)
class ErrorLabel:
    category: str
    detail: str = ""


_SYNTAX_MARKERS = (
    "syntax error",
    "unrecognized token",
    "incomplete input",
    "no tables specified",
    "one statement at a time",
)


def _is_syntax_error(message: str) -> bool:
    lowered = message.lower()
    return any(marker in lowered for marker in _SYNTAX_MARKERS)


_SET_OPS = {"UNION", "INTERSECT", "EXCEPT"}


def _strip_quotes(text: str) -> str:
    if text and text[0] in "\"`[":
        return text[1:-1]
    return text


@dataclass
class QueryShape:
    tables: set[str]
    aliases: dict[str, str]
    referenced_columns: list[tuple[Optional[str], str]]  # (base table or None, column)
    select_columns: set[str]
    join_count: int
    join_columns: set[str]
    group_by: tuple[str, ...]
    select_count: int
    set_ops: tuple[str, ...]

    @property
    def has_join(self) -> bool:
        return self.join_count > 0


def analyze_sql(sql: str) -> QueryShape:
    """Extract the clause-level shape used by the classification cascade."""
    tokens = tokenize(sql)
    n = len(tokens)

    def kw(token: SqlToken, *names: str) -> bool:
        return token.kind == "keyword" and token.text.upper() in names

    def is_function_call(index: int) -> bool:
        return index + 1 < n and tokens[index + 1].text == "("

    tables: set[str] = set()
    aliases: dict[str, str] = {}
    join_count = 0
    join_columns: set[str] = set()
    select_columns: set[str] = set()
    group_by: list[str] = []
    set_ops: list[str] = []
    select_count = 0
    referenced: list[tuple[Optional[str], str]] = []

    # Pass 1: FROM/JOIN table references and aliases.
    i = 0
    while i < n:
        token = tokens[i]
        if kw(token, "FROM", "JOIN"):
            if kw(token, "JOIN"):
                join_count += 1
            j = i + 1
            # Comma-separated references run until a clause keyword.
            while j < n:
                if tokens[j].text == "(":
                    depth = 1
                    j += 1
                    while j < n and depth:
                        depth += {"(": 1, ")": -1}.get(tokens[j].text, 0)
                        j += 1
                    continue
                if tokens[j].kind == "identifier":
                    base = _strip_quotes(tokens[j].text).lower()
                    tables.add(base)
                    j += 1
                    if j < n and kw(tokens[j], "AS"):
                        j += 1
                    if j < n and tokens[j].kind == "identifier" and tokens[j - 1].text != ".":
                        alias = _strip_quotes(tokens[j].text).lower()
                        if alias != base:
                            aliases[alias] = base
                        j += 1
                if j < n and tokens[j].text == ",":
                    j += 1
                    continue
                break
            i = j
            continue
        i += 1

    def resolve(prefix: str) -> str:
        return aliases.get(prefix, prefix)

    # AS-introduced names (column or table aliases) are never column refs.
    as_names = {
        _strip_quotes(tokens[i + 1].text).lower()
        for i in range(n - 1)
        if kw(tokens[i], "AS") and tokens[i + 1].kind == "identifier"
    }

    # Pass 2: column references, clause by clause.
    depth = 0
    clause = None
    i = 0
    while i < n:
        token = tokens[i]
        text = token.text
        if text == "(":
            depth += 1
        elif text == ")":
            depth -= 1

        if token.kind == "keyword":
            upper = text.upper()
            if upper == "SELECT":
                select_count += 1
                if depth == 0:
                    clause = "select"
            elif upper in _SET_OPS:
                set_ops.append(upper)
            elif upper == "FROM":
                if depth == 0 and clause == "select":
                    clause = "from"
                elif depth == 0:
                    clause = "from"
            elif upper == "ON":
                clause = "on"
            elif upper == "GROUP":
                if depth == 0:
                    clause = "group"
            elif upper in ("WHERE", "HAVING", "ORDER", "LIMIT"):
                if depth == 0:
                    clause = upper.lower()
            i += 1
            continue

        if token.kind == "identifier":
            name = _strip_quotes(text).lower()
            if name == "*" or is_function_call(i):
                i += 1
                continue
            if i > 0 and tokens[i - 1].kind == "keyword" and tokens[i - 1].text.upper() == "AS":
                i += 1
                continue
            qualifier: Optional[str] = None
            if i + 1 < n and tokens[i + 1].text == ".":
                # Table or alias prefix of a qualified reference.
                i += 1
                continue
            if i > 0 and tokens[i - 1].text == "." and i > 1 and tokens[i - 2].kind == "identifier":
                qualifier = resolve(_strip_quotes(tokens[i - 2].text).lower())
            if qualifier is None and (name in tables or name in aliases or name in as_names):
                i += 1
                continue
            referenced.append((qualifier, name))
            if clause == "select" and depth == 0:
                select_columns.add(name)
            if clause == "on":
                join_columns.add(name)
            if clause == "group" and depth == 0:
                group_by.append(name)
        i += 1

    return QueryShape(
        tables=tables,
        aliases=aliases,
        referenced_columns=referenced,
        select_columns=select_columns,
        join_count=join_count,
        join_columns=join_columns,
        group_by=tuple(group_by),
        select_count=select_count,
        set_ops=tuple(sorted(set(set_ops))),
    )


def _unknown_tables(shape: QueryShape, catalog: DatabaseCatalog) -> list[str]:
    known = {t.name.lower() for t in catalog.tables}
    return sorted(t for t in shape.tables if t not in known)


def _unknown_columns(shape: QueryShape, catalog: DatabaseCatalog) -> list[str]:
    by_table = {
        t.name.lower(): {c.name.lower() for c in t.columns} for t in catalog.tables
    }
    all_columns = {c for cols in by_table.values() for c in cols}
    missing = []
    for qualifier, column in shape.referenced_columns:
        if qualifier is not None and qualifier in by_table:
            if column not in by_table[qualifier]:
                missing.append(f"{qualifier}.{column}")
        elif column not in all_columns:
            missing.append(column)
    return sorted(set(missing))


def classify(
    predicted: str,
    gold: str,
    catalog: DatabaseCatalog,
    outcome: EvalOutcome,
) -> ErrorLabel:
    """Assign exactly one leaf label to a failed outcome."""
    if outcome.matched:
        raise ValueError("classify expects a failed outcome")

    if outcome.predicted_error and _is_syntax_error(outcome.predicted_error):
        return ErrorLabel(SYNTAX_ERROR, outcome.predicted_error)
    try:
        pred = analyze_sql(predicted)
    except (UnterminatedString, UnterminatedComment, ValueError) as exc:
        return ErrorLabel(SYNTAX_ERROR, str(exc))
    try:
        gold_shape = analyze_sql(gold)
    except (UnterminatedString, UnterminatedComment, ValueError) as exc:
        return ErrorLabel(WRONG_WHERE, f"gold query unparseable: {exc}")

    unknown_tables = _unknown_tables(pred, catalog)
    if unknown_tables:
        return ErrorLabel(TABLES_NOT_EXIST, ", ".join(unknown_tables))

    unknown_columns = _unknown_columns(pred, catalog)
    if unknown_columns:
        return ErrorLabel(COLUMNS_NOT_EXIST, ", ".join(unknown_columns))

    tables_differ = pred.tables != gold_shape.tables
    if (pred.has_join or gold_shape.has_join) and tables_differ:
        return ErrorLabel(
            JOIN_WRONG_TABLES,
            f"predicted {sorted(pred.tables)} vs gold {sorted(gold_shape.tables)}")

    if pred.has_join and gold_shape.has_join and pred.join_columns != gold_shape.join_columns:
        return ErrorLabel(
            JOIN_WRONG_COLUMNS,
            f"predicted {sorted(pred.join_columns)} vs gold {sorted(gold_shape.join_columns)}")

    if gold_shape.set_ops and pred.set_ops != gold_shape.set_ops:
        return ErrorLabel(
            NESTED_SET_OPERATION,
            f"predicted {pred.set_ops} vs gold {gold_shape.set_ops}")
    if gold_shape.select_count > 1 and pred.select_count != gold_shape.select_count:
        return ErrorLabel(
            NESTED_WRONG_SUBQUERY,
            f"{pred.select_count} SELECTs vs gold {gold_shape.select_count}")

    if tables_differ:
        return ErrorLabel(
            WRONG_TABLES,
            f"predicted {sorted(pred.tables)} vs gold {sorted(gold_shape.tables)}")

    if pred.select_columns != gold_shape.select_columns:
        return ErrorLabel(
            WRONG_COLUMNS,
            f"predicted {sorted(pred.select_columns)} vs gold {sorted(gold_shape.select_columns)}")

    if pred.group_by != gold_shape.group_by:
        return ErrorLabel(
            GROUP_BY_ERROR,
            f"predicted {pred.group_by} vs gold {gold_shape.group_by}")

    return ErrorLabel(WRONG_WHERE, "residual mismatch")


def tabulate(labels: Sequence[ErrorLabel], total_queries: int) -> list[dict]:
    """Per-leaf counts and proportions over the stated denominator."""
    counts = {leaf: 0 for leaf in LEAF_LABELS}
    for label in labels:
        if label.category not in counts:
            raise ValueError(f"unknown label {label.category!r}")
        counts[label.category] += 1
    rows = []
    for group, row_name, leaf in TAXONOMY_ROWS:
        count = counts[leaf]
        proportion = 100.0 * count / total_queries if total_queries else 0.0
        rows.append({
            "group": group,
            "label": row_name,
            "leaf": leaf,
            "count": count,
            "percent": round(proportion, 2),
        })
    return rows
