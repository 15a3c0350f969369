"""Multi-step chain-of-thought inference.

Two orchestrations: tables -> columns -> SQL, and tables -> columns ->
skeleton -> SQL. In PRED mode every step after the first sees only the
schema elements parsed out of the previous step's response (failing open
to the full schema when a parse yields nothing usable); FULL mode keeps
the complete definition in every step. Steps within a trace run strictly
in sequence; distinct instances may run concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .bench import TaskInstance
from .budget import PromptSection, TokenBudget, derive_seed
from .gateway import EmptyResponse, extract_sql
from .prompts import (
    FEW_SHOT_FORMAT_LINE,
    PROPERTIES_LINE,
    PromptBundle,
    fit_prompt,
    question_lines,
    question_section,
)
from .schema import DatabaseCatalog, SchemaVariant, render_schema_format_header
from .skeleton import UnterminatedComment, UnterminatedString, extract_skeleton

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


def parse_table_list(step_response: str, catalog: DatabaseCatalog) -> list[str]:
    """Extract table names from a step-1 response.

    Prefers the parenthesized block after "Tables:"; names there are kept
    verbatim (deduplicated, appearance order) so the caller can validate
    and warn. Without a block, falls back to scanning the free text for
    catalog table names, returned in catalog order.
    """
    match = re.search(r"Tables?\s*:\s*\(([^)]*)\)", step_response, re.IGNORECASE)
    if match:
        names: list[str] = []
        for raw in re.split(r"[,\s]+", match.group(1)):
            name = raw.strip().strip("\"'`")
            if name and name not in names:
                names.append(name)
        return names
    lowered = {w.lower() for w in re.findall(r"\w+", step_response)}
    return [t.name for t in catalog.tables if t.name.lower() in lowered]


def parse_column_list(
    step_response: str,
    catalog: DatabaseCatalog,
    tables: Sequence[str],
) -> dict[str, list[str]]:
    """Extract a {table: columns} map from a step-2 response.

    Mirrors table parsing on the "Columns: table: (column ...)" shape, with
    a free-text fallback against the given tables' catalog columns.
    """
    table_map = catalog.table_map()
    lookup = {name.lower(): name for name in table_map}

    columns: dict[str, list[str]] = {}
    anchor = re.search(r"Columns?\s*:", step_response, re.IGNORECASE)
    if anchor:
        tail = step_response[anchor.end():]
        for table_raw, block in re.findall(r"([\w.]+)\s*:\s*\(([^)]*)\)", tail):
            table = lookup.get(table_raw.strip().strip("\"'`").lower())
            if table is None:
                continue
            for raw in re.split(r"[,\s]+", block):
                name = raw.strip().strip("\"'`")
                if "." in name:
                    name = name.rsplit(".", 1)[1]
                if name:
                    columns.setdefault(table, [])
                    if name not in columns[table]:
                        columns[table].append(name)
    if columns:
        return columns

    lowered = {w.lower() for w in re.findall(r"\w+", step_response)}
    for table_name in tables:
        table = table_map.get(table_name)
        if table is None:
            continue
        present = [c.name for c in table.columns if c.name.lower() in lowered]
        if present:
            columns[table_name] = present
    return columns


def _validate_tables(names: Sequence[str], catalog: DatabaseCatalog, trace: CotTrace) -> list[str]:
    lookup = {t.name.lower(): t.name for t in catalog.tables}
    valid: list[str] = []
    for name in names:
        resolved = lookup.get(name.lower())
        if resolved is None:
            trace.warnings.append(f"predicted table {name!r} not in catalog; dropped")
        elif resolved not in valid:
            valid.append(resolved)
    return valid


def _validate_columns(
    columns: Mapping[str, Sequence[str]],
    catalog: DatabaseCatalog,
    trace: CotTrace,
) -> dict[str, list[str]]:
    table_map = catalog.table_map()
    valid: dict[str, list[str]] = {}
    for table_name, names in columns.items():
        table = table_map.get(table_name)
        if table is None:
            trace.warnings.append(f"predicted columns for unknown table {table_name!r}; dropped")
            continue
        known = {c.name.lower(): c.name for c in table.columns}
        kept = []
        for name in names:
            resolved = known.get(name.lower())
            if resolved is None:
                trace.warnings.append(
                    f"predicted column {table_name}.{name} not in catalog; dropped")
            elif resolved not in kept:
                kept.append(resolved)
        if kept:
            valid[table_name] = kept
    return valid


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
        "cot_step", [FEW_SHOT_FORMAT_LINE, header, properties_line, 0,
                     *question_lines(instance), _STEP_BY_STEP, tail],
        [section], budget.available,
        derive_seed(seed, instance.question_id, "step", step_index),
        variant=variant, step_index=step_index)


def _normalize_skeleton(step_response: str) -> str:
    try:
        statement = extract_sql(step_response)
        skeleton = extract_skeleton(statement)
    except (EmptyResponse, UnterminatedString, UnterminatedComment, ValueError) as exc:
        raise SkeletonParseFailure(f"cannot derive a skeleton: {exc}") from exc
    if not skeleton.text:
        raise SkeletonParseFailure("step response yielded an empty skeleton")
    return skeleton.text


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
    response = run_step(full, 1, _STEP1_TAIL)
    tables = _validate_tables(parse_table_list(response, catalog), catalog, trace)
    if not tables:
        trace.warnings.append("no usable tables parsed from step 1; using full schema")
        tables = [t.name for t in catalog.tables]
        restrict = False
    trace.predicted_tables = tables

    # Step 2: find columns within the predicted tables.
    step2 = _section_of(instance, catalog, _all_columns(catalog, tables)) if restrict else full
    response = run_step(step2, 2, _STEP2_TAIL_TEMPLATE.format(tables=", ".join(tables)))
    columns = _validate_columns(
        parse_column_list(response, catalog, tables), catalog, trace)
    if restrict:
        # Later-step schemas may only narrow what step 1 predicted.
        for extra in [name for name in columns if name not in set(tables)]:
            trace.warnings.append(
                f"predicted columns for table {extra!r} outside step-1 tables; dropped")
            del columns[extra]
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
