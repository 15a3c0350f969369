"""Database catalog model, commented-schema rendering and the token counter.

The rendered text is an external contract: golden files under tests/golden
pin the exact bytes of all nine column-definition variants on the fixture
catalog. Column lines are indented "#   " (one pound sign, three spaces);
format-header lines use the plain "# " prefix. Each (catalog, variant) is
compiled once into its lines and their `count_tokens` costs, from which
both the rendered block and its token count under any keep filter follow.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import AbstractSet, Callable, Hashable, Iterable, Mapping, Optional, TypeVar

TYPE_NAMES = ("text", "int", "date", "datetime", "real", "varchar")

MAX_SAMPLE_VALUES = 5


class UnknownColumnInFilter(ValueError):
    pass


class SchemaVariant(str, Enum):
    """The nine column-definition variants, named by their optional elements."""

    C_N = "C_N"
    C_T = "C_T"
    C_D = "C_D"
    C_V = "C_V"
    C_P = "C_P"
    C_VD = "C_VD"
    C_VDT = "C_VDT"
    C_VDP = "C_VDP"
    C_A = "C_A"


# Optional elements carried by each variant, in canonical line order:
# TYPE, DESCRIPTION, VALUES, PRIMARY_KEY.
_VARIANT_ELEMENTS: dict[SchemaVariant, frozenset[str]] = {
    SchemaVariant.C_N: frozenset(),
    SchemaVariant.C_T: frozenset({"type"}),
    SchemaVariant.C_D: frozenset({"description"}),
    SchemaVariant.C_V: frozenset({"values"}),
    SchemaVariant.C_P: frozenset({"primary_key"}),
    SchemaVariant.C_VD: frozenset({"description", "values"}),
    SchemaVariant.C_VDT: frozenset({"type", "description", "values"}),
    SchemaVariant.C_VDP: frozenset({"description", "values", "primary_key"}),
    SchemaVariant.C_A: frozenset({"type", "description", "values", "primary_key"}),
}


_T = TypeVar("_T")

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def count_tokens(text: str) -> int:
    """The token counter: a frozen, dependency-free segmentation in which
    each alphanumeric run is one token and every other non-space character
    is its own. No token spans whitespace, so a text joined by newlines
    counts as the sum of its lines; every budget relies on this."""
    return len(_TOKEN_RE.findall(text))


def _collapse_line(text: str) -> str:
    return " ".join(text.split())


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    type_name: str = "text"
    description: Optional[str] = None
    values: Optional[tuple[str, ...]] = None
    is_primary_key: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("column name must be non-empty")
        if self.type_name not in TYPE_NAMES:
            raise ValueError(f"unknown type name {self.type_name!r}")
        if self.description is not None:
            object.__setattr__(self, "description", _collapse_line(self.description))
        if self.values is not None:
            values = tuple(self.values)
            if not 1 <= len(values) <= MAX_SAMPLE_VALUES:
                raise ValueError(f"values must hold 1..{MAX_SAMPLE_VALUES} entries")
            object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class TableSpec:
    name: str
    columns: tuple[ColumnSpec, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("table name must be non-empty")
        object.__setattr__(self, "columns", tuple(self.columns))
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in table {self.name!r}")


@dataclass(frozen=True)
class ForeignKey:
    table: str
    column: str
    ref_table: str
    ref_column: str


@dataclass(frozen=True)
class DatabaseCatalog:
    database_id: str
    tables: tuple[TableSpec, ...]
    foreign_keys: tuple[ForeignKey, ...] = field(default_factory=tuple)
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tables", tuple(self.tables))
        object.__setattr__(self, "foreign_keys", tuple(self.foreign_keys))
        names = [t.name for t in self.tables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate table names in catalog")
        columns = self.column_set()
        for fk in self.foreign_keys:
            if (fk.table, fk.column) not in columns or (fk.ref_table, fk.ref_column) not in columns:
                raise ValueError(f"foreign key references unknown column: {fk}")

    def table_map(self) -> dict[str, TableSpec]:
        return {t.name: t for t in self.tables}

    def column_set(self) -> set[tuple[str, str]]:
        """Every (table, column) of the catalog; the pairs are built once per
        catalog and shared by every set and partition made from them."""
        return set(_column_pairs(self))

    def key_columns(self, columns: Optional[set[tuple[str, str]]] = None) -> set[tuple[str, str]]:
        """Primary keys among `columns` (all by default) plus both endpoints
        of every foreign key whose two endpoints are among them."""
        columns = self.column_set() if columns is None else columns
        keys = {(t.name, c.name) for t in self.tables for c in t.columns
                if c.is_primary_key and (t.name, c.name) in columns}
        for fk in self.foreign_keys:
            ends = {(fk.table, fk.column), (fk.ref_table, fk.ref_column)}
            if ends <= columns:
                keys |= ends
        return keys

    def derived(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """Value derived from this (immutable) catalog, built on first use.

        Compiled schemas (one per variant) and word indexes are computed
        once per catalog and shared by every later call. Two workers that
        build the same key at once both produce equal values; the first one
        stored wins, so the race is harmless.
        """
        value = self._derived.get(key)
        if value is None:
            value = self._derived.setdefault(key, build())
        return value


# A keep filter, {table: columns kept}: a table absent from it keeps every
# column and a table mapped to an empty set is dropped.
ColumnFilter = Mapping[str, Iterable[str]]


def _column_pairs(catalog: DatabaseCatalog) -> frozenset[tuple[str, str]]:
    """Every (table, column) of the catalog, built once per catalog."""
    return catalog.derived("column_set", lambda: frozenset(
        (t.name, c.name) for t in catalog.tables for c in t.columns))


def _column_names(catalog: DatabaseCatalog) -> Mapping[str, frozenset[str]]:
    """{table: its column names} in catalog order, built once per catalog."""
    return catalog.derived("column_names", lambda: MappingProxyType({
        table.name: frozenset(column.name for column in table.columns)
        for table in catalog.tables}))


def _validate_filter(catalog: DatabaseCatalog, keep: ColumnFilter) -> dict[str, set[str]]:
    """`keep` as {table: set of columns}, checked against the catalog's
    table and column names (`_column_names`).

    Raises UnknownColumnInFilter for a table or column the catalog lacks.
    """
    names = _column_names(catalog)
    resolved: dict[str, set[str]] = {}
    for table_name, columns in keep.items():
        known = names.get(table_name)
        if known is None:
            raise UnknownColumnInFilter(f"unknown table in filter: {table_name!r}")
        wanted = set(columns)
        unknown = wanted - known
        if unknown:
            raise UnknownColumnInFilter(
                f"unknown columns in filter for {table_name!r}: {sorted(unknown)}")
        resolved[table_name] = wanted
    return resolved


def _format_value(value: str) -> str:
    # Values containing a comma are double-quoted so the list stays parseable.
    if "," in value:
        return f'"{value}"'
    return value


def _column_line(column: ColumnSpec, variant: SchemaVariant) -> str:
    if variant is SchemaVariant.C_N:
        return f"#   {column.name}"
    elements = _VARIANT_ELEMENTS[variant]
    parts: list[str] = []
    if "type" in elements:
        parts.append(column.type_name)
    if "description" in elements and column.description:
        parts.append(f"({column.description})")
    if "values" in elements and column.values:
        parts.append("(" + ", ".join(_format_value(v) for v in column.values) + ")")
    if "primary_key" in elements and column.is_primary_key:
        parts.append("PRIMARY_KEY")
    body = ", ".join(parts)
    if body:
        return f"#   {column.name}: {body}"
    return f"#   {column.name}:"


_FOOTER_LINE = "# )"
_FK_HEADER_LINE = "# FOREIGN KEYS:"


def _header_line(table_name: str) -> str:
    return f"# {table_name} ("


def _fk_line(fk: ForeignKey) -> str:
    return f"# {fk.table}.{fk.column}={fk.ref_table}.{fk.ref_column}"


# A rendered line and its token count.
_Line = tuple[str, int]


def _counted(line: str) -> _Line:
    return line, count_tokens(line)


_FOOTER = _counted(_FOOTER_LINE)
_FK_HEADER = _counted(_FK_HEADER_LINE)


@dataclass(frozen=True)
class CompiledSchema:
    """One catalog's schema block in one variant, line by line with costs.

    `tables` holds per table, in catalog order, its name, its header line
    and its (column name, line) pairs; `foreign_keys` holds per key its two
    (table, column) endpoints and its line. Every line carries its
    `count_tokens` cost. `column_costs` maps each (table, column) to its
    line's cost, and `key_ends` holds every foreign-key endpoint.
    """

    tables: tuple[tuple[str, _Line, tuple[tuple[str, _Line], ...]], ...]
    foreign_keys: tuple[tuple[tuple[str, str], tuple[str, str], _Line], ...]
    column_costs: Mapping[tuple[str, str], int]
    key_ends: frozenset[tuple[str, str]]

    def shown(self, keep: Optional[ColumnFilter]) -> list[_Line]:
        """The lines of the block `keep` shows, in render order.

        A table absent from `keep` (or every table, without one) shows every
        column; a table left without columns drops its header and footer,
        and a foreign key shows only while both its endpoints do. `keep`'s
        values are only tested for membership, so pass sets.
        """
        lines: list[_Line] = []
        wanted_of: dict[str, Optional[AbstractSet[str]]] = {}
        for name, header, columns in self.tables:
            wanted = None if keep is None else keep.get(name)
            if wanted is not None and not wanted:
                continue  # an emptied table: no column to look at
            kept = [line for column, line in columns if wanted is None or column in wanted]
            if kept:
                wanted_of[name] = wanted
                lines.append(header)
                lines += kept
                lines.append(_FOOTER)

        def shows(end: tuple[str, str]) -> bool:
            table, column = end
            return table in wanted_of and (wanted_of[table] is None
                                           or column in wanted_of[table])

        fk_lines = [line for source, target, line in self.foreign_keys
                    if shows(source) and shows(target)]
        if fk_lines:
            lines.append(_FK_HEADER)
            lines.extend(fk_lines)
        return lines

    def tokens(self, keep: Optional[ColumnFilter]) -> int:
        """count_tokens(render_schema(catalog, variant, keep)), without rendering;
        `keep` holds sets, as for `shown`."""
        return sum(cost for _, cost in self.shown(keep))


def _compile(catalog: DatabaseCatalog, variant: SchemaVariant) -> CompiledSchema:
    tables = tuple(
        (table.name, _counted(_header_line(table.name)),
         tuple((c.name, _counted(_column_line(c, variant))) for c in table.columns))
        for table in catalog.tables)
    foreign_keys = tuple(
        ((fk.table, fk.column), (fk.ref_table, fk.ref_column), _counted(_fk_line(fk)))
        for fk in catalog.foreign_keys)
    return CompiledSchema(
        tables, foreign_keys,
        MappingProxyType({(table, column): cost for table, _, columns in tables
                          for column, (_, cost) in columns}),
        frozenset(end for source, target, _ in foreign_keys for end in (source, target)))


def compiled_schema(catalog: DatabaseCatalog, variant: SchemaVariant) -> CompiledSchema:
    """The catalog's schema in `variant`, compiled on first use and then
    shared read-only by every render and count of it."""
    variant = SchemaVariant(variant)
    return catalog.derived(("schema", variant), lambda: _compile(catalog, variant))


def render_schema(
    catalog: DatabaseCatalog,
    variant: SchemaVariant,
    keep: Optional[ColumnFilter] = None,
) -> str:
    """Render the concrete commented schema block for one variant.

    Returns one "# TABLE (" ... "# )" group per retained table, then a
    "# FOREIGN KEYS:" section listing every key whose endpoints survive the
    filter. Ends with exactly one newline; an empty catalog renders "".
    """
    resolved = _validate_filter(catalog, keep) if keep is not None else None
    lines = [line for line, _ in compiled_schema(catalog, variant).shown(resolved)]
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


_HEADER_COLUMN_LINES: dict[SchemaVariant, tuple[str, ...]] = {
    SchemaVariant.C_N: ("# COLUMN_NAME",),
    SchemaVariant.C_T: ("# COLUMN_NAME: TYPE",),
    SchemaVariant.C_D: ("# COLUMN_NAME: DESCRIPTION",),
    SchemaVariant.C_V: ("# COLUMN_NAME: (ENUM_VALUE, ENUM_VALUE2, ...)",),
    SchemaVariant.C_P: (
        "# COLUMN_NAME: PRIMARY_KEY",
        "# COLUMN_NAME:",
    ),
    SchemaVariant.C_VD: ("# COLUMN_NAME: (DESCRIPTION), (ENUM_VALUE, ENUM_VALUE2, ...)",),
    SchemaVariant.C_VDT: ("# COLUMN_NAME: TYPE, (DESCRIPTION), (ENUM_VALUE, ENUM_VALUE2, ...)",),
    SchemaVariant.C_VDP: (
        "# COLUMN_NAME: (DESCRIPTION), (ENUM_VALUE, ENUM_VALUE2, ...), PRIMARY_KEY",
        "# COLUMN_NAME: (DESCRIPTION), (ENUM_VALUE, ENUM_VALUE2, ...)",
    ),
    SchemaVariant.C_A: (
        "# COLUMN_NAME: TYPE, (DESCRIPTION), (ENUM_VALUE, ENUM_VALUE2, ...), PRIMARY_KEY",
        "# COLUMN_NAME: TYPE, (DESCRIPTION), (ENUM_VALUE, ENUM_VALUE2, ...)",
    ),
}


def column_line_costs(
    catalog: DatabaseCatalog,
    variant: SchemaVariant,
) -> Mapping[tuple[str, str], int]:
    """Token cost of each column's rendered line.

    Rendered lines are newline-separated, so removing a column frees exactly
    its line's cost. Shared read-only with the compiled schema.
    """
    return compiled_schema(catalog, variant).column_costs


def schema_token_fn(catalog: DatabaseCatalog, variant: SchemaVariant):
    """Keep filter -> count_tokens(render_schema(catalog, variant, keep)),
    computed from the compiled per-line costs without rendering."""
    return compiled_schema(catalog, variant).tokens


def render_schema_format_header(variant: SchemaVariant) -> str:
    """Render the generic format block describing one variant's column lines."""
    variant = SchemaVariant(variant)
    lines = ["# TABLE_NAME ("]
    lines.extend(_HEADER_COLUMN_LINES[variant])
    lines.append("# )")
    lines.append("# FOREIGN KEYS:")
    lines.append("# TABLE_NAME1.COLUMN_NAME1 = TABLE_NAME2.COLUMN_NAME2")
    return "\n".join(lines) + "\n"
