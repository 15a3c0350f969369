from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlbench.bench import TaskInstance
from sqlbench.budget import (
    PromptSection,
    TokenBudget,
    count_tokens,
    plan_example_truncation,
    truncate_examples,
    truncate_target,
)
from sqlbench.cot import _build_step_prompt
from sqlbench.prompts import FewShotBlock, few_shot_text, open_prompt_text, open_prompt_token_fn
from sqlbench.schema import (
    TYPE_NAMES,
    ColumnSpec,
    DatabaseCatalog,
    ForeignKey,
    SchemaVariant,
    TableSpec,
    UnknownColumnInFilter,
    column_line_costs,
    render_schema,
    render_schema_format_header,
    schema_token_fn,
)

GOLDEN_DIR = Path(__file__).parent / "golden" / "schema"


@pytest.mark.parametrize("variant", list(SchemaVariant))
def test_rendering_matches_golden_bytes(movie_catalog, variant):
    expected = (GOLDEN_DIR / f"{variant.value}.txt").read_text(encoding="utf-8")
    assert render_schema(movie_catalog, variant) == expected


@pytest.mark.parametrize("variant", list(SchemaVariant))
def test_format_header_matches_golden_bytes(variant):
    expected = (GOLDEN_DIR / f"header_{variant.value}.txt").read_text(encoding="utf-8")
    assert render_schema_format_header(variant) == expected


def test_cvdt_line_for_column_without_values(movie_catalog):
    text = render_schema(movie_catalog, SchemaVariant.C_VDT)
    assert "#   movie_release_year: int, (year of release)\n" in text


def test_cn_lines_are_bare_names(movie_catalog):
    text = render_schema(movie_catalog, SchemaVariant.C_N)
    for line in text.splitlines():
        if line.startswith("#   "):
            assert "(" not in line and ")" not in line and ":" not in line
            for type_name in ("text", "int", "date", "datetime", "real", "varchar"):
                assert f" {type_name}" not in line


def test_empty_catalog_renders_empty_string():
    catalog = DatabaseCatalog("empty", ())
    assert render_schema(catalog, SchemaVariant.C_A) == ""


def test_header_variant_element_lines():
    assert ("# COLUMN_NAME: TYPE, (DESCRIPTION), (ENUM_VALUE, ENUM_VALUE2, ...), PRIMARY_KEY"
            in render_schema_format_header(SchemaVariant.C_A))
    header_p = render_schema_format_header(SchemaVariant.C_P)
    assert "# COLUMN_NAME: PRIMARY_KEY\n" in header_p
    assert "# COLUMN_NAME:\n" in header_p
    assert ("# COLUMN_NAME: (ENUM_VALUE, ENUM_VALUE2, ...)"
            in render_schema_format_header(SchemaVariant.C_V))


def test_monotone_information(movie_catalog):
    """Per-column fragments under C_VD are a superset of C_D's and C_V's."""

    def fragments(variant):
        out = set()
        for line in render_schema(movie_catalog, variant).splitlines():
            if line.startswith("#   ") and ":" in line:
                name, _, rest = line[4:].partition(":")
                for part in rest.split("), ("):
                    part = part.strip().strip("()")
                    if part:
                        out.add((name, part))
        return out

    combined = fragments(SchemaVariant.C_VD)
    assert fragments(SchemaVariant.C_D) <= combined
    assert fragments(SchemaVariant.C_V) <= combined


def test_rendering_is_pure(movie_catalog):
    first = render_schema(movie_catalog, SchemaVariant.C_A)
    second = render_schema(movie_catalog, SchemaVariant.C_A)
    assert first == second


@pytest.mark.parametrize("variant", list(SchemaVariant))
def test_primary_key_token_iff_pk_and_variant(movie_catalog, variant):
    pk_variants = {SchemaVariant.C_P, SchemaVariant.C_VDP, SchemaVariant.C_A}
    pk_columns = {"movie_id", "rating_id"}
    current_table = None
    for line in render_schema(movie_catalog, variant).splitlines():
        if line.startswith("# ") and line.endswith("("):
            current_table = line[2:-2].strip()
        if not line.startswith("#   "):
            continue
        name = line[4:].split(":")[0].strip()
        has_token = "PRIMARY_KEY" in line
        is_pk = name in pk_columns and not (current_table == "ratings" and name == "movie_id")
        assert has_token == (variant in pk_variants and is_pk)


def test_foreign_keys_header_omitted_when_no_fk_survives(movie_catalog):
    keep = {"movies": {"movie_title"}, "ratings": {"rating_score"}}
    text = render_schema(movie_catalog, SchemaVariant.C_N, keep)
    assert "FOREIGN KEYS" not in text
    assert "movie_title" in text


def test_filter_keeps_named_subset(movie_catalog):
    keep = {"movies": {"movie_id", "movie_title"}}
    text = render_schema(movie_catalog, SchemaVariant.C_N, keep)
    assert "movie_release_year" not in text
    assert "rating_score" in text  # unfiltered table keeps everything


def test_unknown_column_in_filter(movie_catalog):
    with pytest.raises(UnknownColumnInFilter):
        render_schema(movie_catalog, SchemaVariant.C_N, {"movies": {"nope"}})
    with pytest.raises(UnknownColumnInFilter):
        render_schema(movie_catalog, SchemaVariant.C_N, {"ghost": set()})


def test_keep_filter_drops_empty_tables_and_dangling_fks(movie_catalog):
    text = render_schema(movie_catalog, SchemaVariant.C_N, {"ratings": set()})
    assert [line for line in text.splitlines() if line.endswith(" (")] == ["# movies ("]
    assert "FOREIGN KEYS" not in text


def test_values_with_commas_are_quoted(movie_catalog):
    text = render_schema(movie_catalog, SchemaVariant.C_V)
    assert '("good, solid", bad)' in text


def test_trailing_newline_exactly_one(movie_catalog):
    text = render_schema(movie_catalog, SchemaVariant.C_A)
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_catalog_invariants_enforced():
    with pytest.raises(ValueError):
        TableSpec("t", (ColumnSpec("a"), ColumnSpec("a")))
    with pytest.raises(ValueError):
        DatabaseCatalog("d", (TableSpec("t", (ColumnSpec("a"),)),
                              TableSpec("t", (ColumnSpec("b"),))))
    with pytest.raises(ValueError):
        DatabaseCatalog("d", (TableSpec("t", (ColumnSpec("a"),)),),
                        (ForeignKey("t", "a", "ghost", "x"),))
    with pytest.raises(ValueError):
        ColumnSpec("c", values=tuple(str(i) for i in range(6)))


def test_description_newlines_collapse():
    column = ColumnSpec("c", "text", "line one\nline two")
    assert column.description == "line one line two"


def test_schema_token_fn_matches_rendered_count(movie_catalog):
    import random

    from sqlbench.budget import count_tokens
    from sqlbench.schema import schema_token_fn

    rng = random.Random(6)
    all_columns = sorted(movie_catalog.column_set())
    for variant in SchemaVariant:
        tokens = schema_token_fn(movie_catalog, variant)
        assert tokens(None) == count_tokens(render_schema(movie_catalog, variant))
        for _ in range(25):
            keep = {t.name: set() for t in movie_catalog.tables}
            for table, column in all_columns:
                if rng.random() < 0.6:
                    keep[table].add(column)
            rendered = render_schema(movie_catalog, variant, keep)
            assert tokens(keep) == count_tokens(rendered), (variant, keep)


_TEXT = st.text(alphabet="ab Z9,.()#:_-'\"\n", max_size=12)


@st.composite
def _catalog_and_keep(draw):
    tables = []
    for t in range(draw(st.integers(1, 4))):
        columns = tuple(
            ColumnSpec(
                f"c{c}",
                draw(st.sampled_from(TYPE_NAMES)),
                draw(st.none() | _TEXT),
                draw(st.none() | st.lists(_TEXT, min_size=1, max_size=5).map(tuple)),
                draw(st.booleans()),
            )
            for c in range(draw(st.integers(1, 5))))
        tables.append(TableSpec(f"t{t}", columns))
    columns = [(t.name, c.name) for t in tables for c in t.columns]
    ends = st.sampled_from(columns)
    fks = tuple(ForeignKey(a, b, c, d)
                for (a, b), (c, d) in draw(st.lists(st.tuples(ends, ends), max_size=4)))
    # Tables the filter names keep a random subset, possibly none (the table
    # and its foreign keys drop out); unnamed tables keep every column.
    keep = {t.name: {c.name for c in t.columns if draw(st.booleans())}
            for t in tables if draw(st.booleans())}
    return DatabaseCatalog("db", tuple(tables), fks), keep


@settings(max_examples=150, deadline=None)
@given(_catalog_and_keep())
def test_compiled_accounting_equals_rendered_count(catalog_and_keep):
    catalog, keep = catalog_and_keep
    instance = TaskInstance(1, "How many, in total?", "note: a.b", "SELECT 1", "db")
    for variant in SchemaVariant:
        for kept in (None, keep):
            expected = count_tokens(render_schema(catalog, variant, kept))
            assert schema_token_fn(catalog, variant)(kept) == expected
            prompt_tokens = open_prompt_token_fn(instance, catalog, variant)
            assert prompt_tokens(kept) == count_tokens(
                open_prompt_text(instance, catalog, variant, kept))


def _all_removable(catalog):
    return PromptSection(catalog, frozenset(), catalog.column_set())


@settings(max_examples=100, deadline=None)
@given(st.lists(_catalog_and_keep(), min_size=1, max_size=3), _TEXT, _TEXT,
       st.sampled_from(list(SchemaVariant)))
def test_truncation_counts_whole_prompts_from_their_frames(
        catalogs_and_keeps, question, note, variant):
    """tokens_before, the frame's count plus the compiled schema sizes,
    equals the count of the rendered untruncated prompt: zero-shot,
    few-shot and chain-of-thought step alike."""
    catalogs = [catalog for catalog, _ in catalogs_and_keeps]
    instance = TaskInstance(1, question + "?", note, "SELECT 1", "db")
    examples = [TaskInstance(2 + i, f"{question} {i}", note, f"SELECT c0 FROM t{i}", "db")
                for i in range(len(catalogs) - 1)]
    engine = {"variant": variant}

    def zero_shot(keep):
        return open_prompt_text(instance, catalogs[0], variant, keep)

    def few_shot(keeps):
        blocks = [FewShotBlock(example, catalog, keep)
                  for example, catalog, keep in zip(examples, catalogs[1:], keeps[1:])]
        return few_shot_text(instance, catalogs[0], blocks, variant, keeps[0])

    catalog = catalogs[0]
    section = _all_removable(catalog)
    frame = {table: set() for table in section.keep}
    _, record = truncate_target(section, count_tokens(zero_shot(frame)), 10**6, 0, **engine)
    assert record.tokens_before == count_tokens(zero_shot(None))

    sections = [_all_removable(c) for c in catalogs]
    rates = plan_example_truncation([0.5] * len(examples))
    frames = [{table: set() for table in section.keep} for section in sections]
    _, record = truncate_examples(
        sections, rates, count_tokens(few_shot(frames)), 10**6, 0, **engine)
    assert record.tokens_before == count_tokens(few_shot([s.keep for s in sections]))

    for step_index in (1, 2):
        bundle = _build_step_prompt(instance, step_index, "Tables:", TokenBudget(10**6, 200),
                                    0, _all_removable(catalog))
        assert bundle.truncation.tokens_before == count_tokens(bundle.text)


def test_concurrent_first_use_of_a_catalog_is_harmless():
    def catalog():
        return DatabaseCatalog("db", tuple(
            TableSpec(f"t{t}", tuple(ColumnSpec(f"c{c}", "int", f"column {c} of {t}")
                                     for c in range(30)))
            for t in range(4)))

    def work(target, start):
        start.wait(timeout=10)
        return [(render_schema(target, variant),
                 schema_token_fn(target, variant)(None))
                for variant in SchemaVariant]

    expected = work(catalog(), threading.Barrier(1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            shared, start = catalog(), threading.Barrier(8)
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, shared, start) for _ in range(8)]
                assert [f.result(timeout=60) for f in futures] == [expected] * 8
            for variant in SchemaVariant:
                assert column_line_costs(shared, variant) is column_line_costs(shared, variant)
    finally:
        sys.setswitchinterval(interval)
