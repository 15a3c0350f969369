"""Multi-step chain-of-thought inference.

Two orchestrations: tables -> columns -> SQL, and tables -> columns ->
skeleton -> SQL. `read_tables` and `read_columns` read the first two
answers against the catalog in one pass each, dropping with a warning
every name it lacks. In PRED mode every step after the first sees only the
schema elements read from the previous step's response (failing open
to the full schema when a read yields nothing usable); FULL mode keeps
the complete definition in every step. Steps within a trace run strictly
in sequence; distinct instances may run concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .bench import TaskInstance
from .budget import PromptSection, TokenBudget, derive_seed
from .gateway import extract_sql
from .prompts import (
    FEW_SHOT_FORMAT_LINE,
    PROPERTIES_LINE,
    PromptBundle,
    fit_prompt,
    question_lines,
    question_section,
)
from .schema import DatabaseCatalog, SchemaVariant, render_schema_format_header
from .skeleton import extract_skeleton

MODE_NONE = "none"
MODE_COT_SP_PRED = "cot-sp-pred"
MODE_COT_SP_FULL = "cot-sp-full"
MODE_COT_SK_PRED = "cot-sk-pred"
MODE_COT_SK_FULL = "cot-sk-full"
COT_MODES = (MODE_COT_SP_PRED, MODE_COT_SP_FULL, MODE_COT_SK_PRED, MODE_COT_SK_FULL)
ALL_MODES = (MODE_NONE,) + COT_MODES


class SkeletonParseFailure(RuntimeError):
    pass


_LATER_HEADER = (
    "# TABLE_NAME (\n"
    "# COLUMN_NAME: TYPE, (DESCRIPTION), (VALUE1, VALUE2, ...)\n"
    "# )\n"
    "# FOREIGN KEYS:\n"
    "# TABLE_NAME1.COLUMN_NAME1 = TABLE_NAME2.COLUMN_NAME2"
)
_LATER_PROPERTIES = "### Here are SQLite SQL tables that will be used, with their properties:"
_STEP_BY_STEP = "Please generate the SQL script STEP BY STEP."

_STEP1_TAIL = (
    "Find the required tables based on the QUESTION.\n"
    "\n"
    "Tables: (table\n"
    "         table)"
)
_STEP2_TAIL_TEMPLATE = (
    "Given the tables:\n"
    "{tables}.\n"
    "From the given tables, find the required columns based on the QUESTION.\n"
    "\n"
    "Columns: table: (column\n"
    "                column)"
)
_SP_FINAL_TAIL_TEMPLATE = (
    "Given the tables and columns used in the SQL query:\n"
    "{columns}.\n"
    "### Complete sqlite SQL query based on the given tables and columns\n"
    "SELECT"
)
_SK_SKELETON_TAIL_TEMPLATE = (
    "Given the tables and columns:\n"
    "{columns}.\n"
    "Based on the given the tables and columns, write the skeleton of the SQL "
    "query corresponding to the question."
)
_SK_FINAL_TAIL_TEMPLATE = (
    "Given the tables and columns:\n"
    "{columns},\n"
    "and sql skeleton:\n"
    "{skeleton}.\n"
    "### Complete sqlite SQL query based on the given tables, columns and sql_skeleton\n"
    "SELECT"
)

_STEP1_VARIANT = SchemaVariant.C_D
_LATER_VARIANT = SchemaVariant.C_VDT
# The variants the steps render their schema blocks in.
STEP_VARIANTS = (_STEP1_VARIANT, _LATER_VARIANT)
_STEP1_HEADER = render_schema_format_header(_STEP1_VARIANT).rstrip("\n")


@dataclass
class CotTrace:
    mode: str
    predicted_tables: list[str] = field(default_factory=list)
    predicted_columns: dict[str, list[str]] = field(default_factory=dict)
    skeleton: Optional[str] = None
    step_prompts: list[PromptBundle] = field(default_factory=list)
    step_responses: list[str] = field(default_factory=list)
    final_sql: str = ""
    warnings: list[str] = field(default_factory=list)


def read_tables(response: str, catalog: DatabaseCatalog, warnings: list[str]) -> list[str]:
    """The catalog tables a step-1 answer names, each once, as the catalog
    spells it.

    Reads the parenthesized block after "Tables:", in order, warning about
    each name there the catalog lacks. Without a block, scans the free text
    for catalog table names, in catalog order.
    """
    lookup = {t.name.lower(): t.name for t in catalog.tables}
    match = re.search(r"Tables?\s*:\s*\(([^)]*)\)", response, re.IGNORECASE)
    if match:
        names = dict.fromkeys(filter(None, (
            raw.strip("\"'`") for raw in re.split(r"[,\s]+", match.group(1)))))
    else:
        words = {w.lower() for w in re.findall(r"\w+", response)}
        names = [t.name for t in catalog.tables if t.name.lower() in words]
    tables: list[str] = []
    for name in names:
        resolved = lookup.get(name.lower())
        if resolved is None:
            warnings.append(f"predicted table {name!r} not in catalog; dropped")
        elif resolved not in tables:
            tables.append(resolved)
    return tables


def read_columns(
    response: str,
    catalog: DatabaseCatalog,
    tables: Sequence[str],
    restrict: bool,
    warnings: list[str],
) -> dict[str, list[str]]:
    """The {table: columns} a step-2 answer names, as the catalog spells them.

    Reads each "table: (column ...)" block after "Columns:"; a qualified
    "table.column" counts as its column. When no block names a catalog
    table, `tables`' catalog columns the free text names are added. Then
    each table the catalog lacks, each unknown column and, when `restrict`
    is set, each table outside `tables` is dropped with a warning.
    """
    table_map = catalog.table_map()
    lookup = {name.lower(): name for name in table_map}
    named: dict[str, list[str]] = {}
    anchor = re.search(r"Columns?\s*:", response, re.IGNORECASE)
    if anchor:
        for table, block in re.findall(r"([\w.]+)\s*:\s*\(([^)]*)\)", response[anchor.end():]):
            names = [name for raw in re.split(r"[,\s]+", block)
                     if (name := raw.strip("\"'`").rsplit(".", 1)[-1])]
            if names:
                named.setdefault(lookup.get(table.lower(), table), []).extend(names)
    if not any(table in table_map for table in named):
        words = {w.lower() for w in re.findall(r"\w+", response)}
        for table in tables:
            present = [c.name for c in table_map[table].columns if c.name.lower() in words]
            if present:
                named[table] = present

    columns: dict[str, list[str]] = {}
    for table, names in named.items():
        if table not in table_map:
            warnings.append(f"predicted columns for unknown table {table!r}; dropped")
            continue
        known = {c.name.lower(): c.name for c in table_map[table].columns}
        kept: list[str] = []
        for name in dict.fromkeys(names):
            resolved = known.get(name.lower())
            if resolved is None:
                warnings.append(f"predicted column {table}.{name} not in catalog; dropped")
            elif resolved not in kept:
                kept.append(resolved)
        if kept:
            columns[table] = kept
    if restrict:
        # Later-step schemas may only narrow what step 1 predicted.
        for extra in [table for table in columns if table not in tables]:
            warnings.append(
                f"predicted columns for table {extra!r} outside step-1 tables; dropped")
            del columns[extra]
    return columns


def _all_columns(catalog: DatabaseCatalog, tables: Sequence[str]) -> dict[str, list[str]]:
    table_map = catalog.table_map()
    return {name: [c.name for c in table_map[name].columns] for name in tables}


def _section_of(instance: TaskInstance, catalog: DatabaseCatalog,
                columns: Mapping[str, Sequence[str]]) -> PromptSection:
    """The section of the schema showing only `columns`; other tables are hidden."""
    keep = {t.name: set(columns.get(t.name, ())) for t in catalog.tables}
    return question_section(instance, catalog, keep)


def _build_step_prompt(
    instance: TaskInstance,
    step_index: int,
    tail: str,
    budget: TokenBudget,
    seed: int,
    section: PromptSection,
) -> PromptBundle:
    """One step's prompt over `section`'s catalog, truncated within `section`;
    its template holds the schema block in slot 0."""
    if step_index == 1:
        header, properties_line, variant = _STEP1_HEADER, PROPERTIES_LINE, _STEP1_VARIANT
    else:
        header, properties_line, variant = _LATER_HEADER, _LATER_PROPERTIES, _LATER_VARIANT

    return fit_prompt(
        [FEW_SHOT_FORMAT_LINE, header, properties_line, 0,
         *question_lines(instance), _STEP_BY_STEP, tail],
        [section], budget.available,
        derive_seed(seed, instance.question_id, "step", step_index), variant=variant)


def _normalize_skeleton(step_response: str) -> str:
    """The skeleton of the statement `extract_sql` reads, which starts with
    SELECT, so the skeleton is never empty."""
    try:
        return extract_skeleton(extract_sql(step_response))
    except ValueError as exc:  # no text, or an unterminated string or comment
        raise SkeletonParseFailure(f"cannot derive a skeleton: {exc}") from exc


def run_cot(
    instance: TaskInstance,
    catalog: DatabaseCatalog,
    client,
    mode: str,
    *,
    budget: Optional[TokenBudget] = None,
    seed: int = 0,
) -> CotTrace:
    """Run one chain-of-thought mode; "none" is rejected (use the zero-shot path).

    cot-sp-* asks for tables, columns, then SQL; cot-sk-* adds a skeleton
    step before the SQL step.
    """
    if mode not in COT_MODES:
        raise ValueError(f"mode {mode!r} is not a chain-of-thought mode")
    budget = budget or TokenBudget()
    restrict = mode.endswith("-pred")
    trace = CotTrace(mode=mode)

    def run_step(section: PromptSection, step_index: int, tail: str) -> str:
        bundle = _build_step_prompt(instance, step_index, tail, budget, seed, section)
        trace.step_prompts.append(bundle)
        response = client.complete(bundle)
        trace.step_responses.append(response)
        return response

    # Steps that show the same schema share its section and its sizes.
    full = question_section(instance, catalog)

    # Step 1: find tables over the description-only schema.
    tables = read_tables(run_step(full, 1, _STEP1_TAIL), catalog, trace.warnings)
    if not tables:
        trace.warnings.append("no usable tables parsed from step 1; using full schema")
        tables = [t.name for t in catalog.tables]
        restrict = False
    trace.predicted_tables = tables

    # Step 2: find columns within the predicted tables.
    step2 = _section_of(instance, catalog, _all_columns(catalog, tables)) if restrict else full
    response = run_step(step2, 2, _STEP2_TAIL_TEMPLATE.format(tables=", ".join(tables)))
    columns = read_columns(response, catalog, tables, restrict, trace.warnings)
    if not columns:
        trace.warnings.append("no usable columns parsed from step 2; using full schema")
        columns = _all_columns(catalog, tables)
        restrict = False
    trace.predicted_columns = columns

    later = _section_of(instance, catalog, columns) if restrict else full
    columns_related = ", ".join(
        f"{table}.{column}" for table, cols in columns.items() for column in cols)

    if mode in (MODE_COT_SK_PRED, MODE_COT_SK_FULL):
        response = run_step(
            later, 3, _SK_SKELETON_TAIL_TEMPLATE.format(columns=columns_related))
        trace.skeleton = _normalize_skeleton(response)
        response = run_step(later, 4, _SK_FINAL_TAIL_TEMPLATE.format(
            columns=columns_related, skeleton=trace.skeleton))
    else:
        response = run_step(
            later, 3, _SP_FINAL_TAIL_TEMPLATE.format(columns=columns_related))
    trace.final_sql = extract_sql(response)
    return trace
