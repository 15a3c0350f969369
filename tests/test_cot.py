from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedTransport
from sqlbench.bench import TaskInstance
from sqlbench.budget import TokenBudget, UnsatisfiableBudget
from sqlbench.cot import (
    MODE_COT_SK_FULL,
    MODE_COT_SK_PRED,
    MODE_COT_SP_FULL,
    MODE_COT_SP_PRED,
    _build_step_prompt,
    read_columns,
    read_tables,
    run_cot,
)
from sqlbench.gateway import LlmClient, LlmEndpoint, ReplayStore
from sqlbench.prompts import question_section
from sqlbench.schema import (
    TYPE_NAMES,
    ColumnSpec,
    DatabaseCatalog,
    ForeignKey,
    SchemaVariant,
    TableSpec,
    render_schema,
)


@pytest.fixture()
def movie_instance(movie_catalog):
    return TaskInstance(
        0, "What is the title of the movie released in 1945?", "",
        "SELECT movie_title FROM movies WHERE movie_release_year = 1945",
        movie_catalog.database_id)


def step_scripted(step1="Tables: (movies)",
                  step2="Columns: movies: (movie_title\n                movie_release_year)",
                  skeleton_resp="SELECT movie_title FROM movies WHERE movie_release_year = 1945",
                  final=" movie_title FROM movies WHERE movie_release_year = 1945"):
    def complete(prompt):
        tail = prompt.rstrip()
        if tail.endswith("Tables: (table\n         table)"):
            return step1
        if tail.endswith("Columns: table: (column\n                column)"):
            return step2
        if tail.endswith("corresponding to the question."):
            return skeleton_resp
        assert prompt.endswith("SELECT")
        return final
    return complete


def make_client(complete_fn, store=None, mode="live"):
    transport = ScriptedTransport(completion_fn=complete_fn)
    return LlmClient(LlmEndpoint("http://fake", "m"), mode=mode, store=store,
                     transport=transport), transport


def test_cot_sp_has_three_steps(movie_catalog, movie_instance):
    client, _ = make_client(step_scripted())
    trace = run_cot(movie_instance, movie_catalog, client, MODE_COT_SP_FULL, seed=0)
    assert len(trace.step_prompts) == 3
    assert len(trace.step_responses) == 3
    assert trace.skeleton is None
    assert trace.final_sql.startswith("SELECT movie_title")


def test_cot_sk_has_four_steps_and_skeleton(movie_catalog, movie_instance):
    client, _ = make_client(step_scripted())
    trace = run_cot(movie_instance, movie_catalog, client, MODE_COT_SK_FULL, seed=0)
    assert len(trace.step_prompts) == 4
    assert trace.skeleton == "SELECT _ FROM _ WHERE _"


def test_unknown_parsed_table_falls_back_to_full(movie_catalog, movie_instance):
    client, _ = make_client(step_scripted(step1="Tables: (badges)"))
    # "badges" is not in the catalog: dropped with warning, falls back to full
    trace = run_cot(movie_instance, movie_catalog, client, MODE_COT_SP_PRED, seed=0)
    assert trace.predicted_tables == ["movies", "ratings"]
    assert any("badges" in w for w in trace.warnings)


def test_pred_mode_restricts_later_schemas(movie_catalog, movie_instance):
    client, _ = make_client(step_scripted())
    trace = run_cot(movie_instance, movie_catalog, client, MODE_COT_SP_PRED, seed=0)
    assert trace.predicted_tables == ["movies"]
    step2 = trace.step_prompts[1].text
    assert "# movies (" in step2
    assert "# ratings (" not in step2
    step3 = trace.step_prompts[2].text
    assert "movie_title" in step3
    assert "movie_popularity" not in step3


def test_full_mode_keeps_whole_schema_in_final_step(movie_catalog, movie_instance):
    client, _ = make_client(step_scripted())
    trace = run_cot(movie_instance, movie_catalog, client, MODE_COT_SP_FULL, seed=0)
    full_schema = render_schema(movie_catalog, SchemaVariant.C_VDT).rstrip("\n")
    assert full_schema in trace.step_prompts[2].text


def test_skeleton_normalized_before_step_four(movie_catalog, movie_instance):
    # model answers step 3 with a full SQL statement, not a skeleton
    client, _ = make_client(step_scripted(
        skeleton_resp="SELECT movie_title FROM movies WHERE movie_release_year = 1945"))
    trace = run_cot(movie_instance, movie_catalog, client, MODE_COT_SK_FULL, seed=0)
    assert trace.skeleton == "SELECT _ FROM _ WHERE _"
    step4 = trace.step_prompts[3].text
    assert "and sql skeleton:\nSELECT _ FROM _ WHERE _." in step4


def test_raw_skeleton_response_embedded_verbatim(movie_catalog, movie_instance):
    client, _ = make_client(step_scripted(skeleton_resp="SELECT _ FROM _ WHERE _"))
    trace = run_cot(movie_instance, movie_catalog, client, MODE_COT_SK_PRED, seed=0)
    assert trace.skeleton == "SELECT _ FROM _ WHERE _"
    assert "and sql skeleton:\nSELECT _ FROM _ WHERE _." in trace.step_prompts[3].text


@pytest.mark.parametrize("mode", [
    MODE_COT_SP_PRED, MODE_COT_SP_FULL, MODE_COT_SK_PRED, MODE_COT_SK_FULL])
def test_run_cot_modes(movie_catalog, movie_instance, mode):
    client, transport = make_client(step_scripted())
    trace = run_cot(movie_instance, movie_catalog, client, mode, seed=0)
    steps = 4 if mode.startswith("cot-sk") else 3
    assert len(trace.step_prompts) == len(trace.step_responses) == steps
    assert len(transport.requests) == steps
    # A step's index is its position: each prompt asks its own step's question.
    asks = ["find the required tables", "find the required columns",
            *(["write the skeleton", "given tables, columns and sql_skeleton"] if steps == 4
              else ["based on the given tables and columns"])]
    assert all(ask in b.text.lower() for b, ask in zip(trace.step_prompts, asks, strict=True))
    if steps == 3:
        assert trace.skeleton is None
    else:
        assert trace.skeleton == "SELECT _ FROM _ WHERE _"
    assert trace.mode == mode
    assert trace.final_sql.startswith("SELECT movie_title")

    # Step 1 always sees the whole description-only schema.
    assert render_schema(movie_catalog, SchemaVariant.C_D).rstrip("\n") in \
        trace.step_prompts[0].text
    full_schema = render_schema(movie_catalog, SchemaVariant.C_VDT).rstrip("\n")
    later = [b.text for b in trace.step_prompts[1:]]
    if mode.endswith("-pred"):
        assert "# ratings (" not in later[0]
        assert "# movies (" in later[0]
        for text in later[1:]:
            assert full_schema not in text
            assert "movie_title" in text
            assert "movie_popularity" not in text
    else:
        assert all(full_schema in text for text in later)


def test_mode_none_rejected(movie_catalog, movie_instance):
    client, _ = make_client(step_scripted())
    with pytest.raises(ValueError):
        run_cot(movie_instance, movie_catalog, client, "none")
    with pytest.raises(ValueError, match="not a chain-of-thought mode"):
        run_cot(movie_instance, movie_catalog, client, "cot-xx-pred")


@pytest.fixture()
def wide_fixture():
    from sqlbench.schema import ColumnSpec, DatabaseCatalog, TableSpec

    columns = [ColumnSpec("id", "int", None, None, True)]
    columns += [ColumnSpec(f"fluff_{i:02d}", "text", f"description of attribute {i}")
                for i in range(30)]
    catalog = DatabaseCatalog("wide", (TableSpec("wide", tuple(columns)),))
    instance = TaskInstance(0, "Count everything, please.", "",
                            "SELECT COUNT(*) FROM wide", "wide")
    return catalog, instance


def wide_scripted():
    return step_scripted(
        step1="Tables: (wide)",
        step2="Columns: wide: (id)",
        skeleton_resp="SELECT COUNT(*) FROM wide",
        final=" COUNT(*) FROM wide")


def test_step_prompts_satisfy_budget(wide_fixture):
    catalog, instance = wide_fixture
    client, _ = make_client(wide_scripted())
    untruncated = run_cot(instance, catalog, client, MODE_COT_SK_FULL,
                          budget=TokenBudget(100_000, 200), seed=1)
    widest = max(b.token_count for b in untruncated.step_prompts)

    budget = TokenBudget(max_context=widest + 150, response_reserve=200)
    trace = run_cot(instance, catalog, client, MODE_COT_SK_FULL,
                    budget=budget, seed=1)
    for bundle in trace.step_prompts:
        assert bundle.token_count <= budget.available
    assert any(b.truncation and b.truncation.total_removed for b in trace.step_prompts)


def test_budget_never_removes_target_columns(wide_fixture):
    catalog, instance = wide_fixture
    client, _ = make_client(wide_scripted())
    untruncated = run_cot(instance, catalog, client, MODE_COT_SK_FULL,
                          budget=TokenBudget(100_000, 200), seed=1)
    widest = max(b.token_count for b in untruncated.step_prompts)

    trace = run_cot(instance, catalog, client, MODE_COT_SK_FULL,
                    budget=TokenBudget(widest + 150, 200), seed=1)
    keys = catalog.key_columns()
    removed_any = False
    for bundle in trace.step_prompts:
        if bundle.truncation:
            for removed in bundle.truncation.removed_columns[0]:
                removed_any = True
                assert removed not in keys
    assert removed_any


def test_replayed_trace_is_identical(tmp_path, movie_catalog, movie_instance):
    store_path = tmp_path / "store.jsonl"
    record_client, transport = make_client(
        step_scripted(), store=ReplayStore(store_path), mode="record")
    recorded = run_cot(movie_instance, movie_catalog, record_client,
                       MODE_COT_SK_FULL, seed=7)
    wire_calls = len(transport.requests)

    replay_client = LlmClient(
        LlmEndpoint("http://fake", "m"), mode="replay", store=ReplayStore(store_path))
    replayed = run_cot(movie_instance, movie_catalog, replay_client,
                       MODE_COT_SK_FULL, seed=7)
    assert wire_calls == 4
    assert [b.text for b in recorded.step_prompts] == [b.text for b in replayed.step_prompts]
    assert recorded.step_responses == replayed.step_responses
    assert recorded.final_sql == replayed.final_sql
    assert recorded.skeleton == replayed.skeleton


def _tables(response, catalog):
    warnings = []
    return read_tables(response, catalog, warnings), warnings


def _columns(response, catalog, tables, restrict=False):
    warnings = []
    return read_columns(response, catalog, tables, restrict, warnings), warnings


def test_parse_table_list_parenthesized_block(movie_catalog):
    assert _tables("Tables: (movies\n ratings)", movie_catalog) == (["movies", "ratings"], [])


def test_parse_table_list_free_text_fallback(movie_catalog):
    assert _tables("We need the movies table.", movie_catalog) == (["movies"], [])


def test_parse_table_list_gibberish(movie_catalog):
    assert _tables("no idea, sorry!", movie_catalog) == ([], [])


def test_parse_table_list_preserves_unknown_names_for_validation(movie_catalog):
    assert _tables("Tables: (badges, `Movies` badges BADGES movies)", movie_catalog) == (
        ["movies"], ["predicted table 'badges' not in catalog; dropped",
                     "predicted table 'BADGES' not in catalog; dropped"])


def test_parse_column_list_parenthesized_block(movie_catalog):
    assert _columns(
        "Columns: movies: (movie_title\n                movie_release_year)",
        movie_catalog, ["movies"]) == ({"movies": ["movie_title", "movie_release_year"]}, [])


def test_parse_column_list_multiple_tables(movie_catalog):
    assert _columns(
        "Columns: movies: (movie_id)\nratings: (rating_score, movie_id)",
        movie_catalog, ["movies", "ratings"]) == (
        {"movies": ["movie_id"], "ratings": ["rating_score", "movie_id"]}, [])


def test_parse_column_list_free_text_fallback(movie_catalog):
    assert _columns(
        "You should use the movie_title and movie_release_year fields.",
        movie_catalog, ["movies"]) == ({"movies": ["movie_title", "movie_release_year"]}, [])


@pytest.mark.parametrize("mode", [MODE_COT_SP_PRED, MODE_COT_SK_FULL])
def test_an_unknown_step_2_table_is_warned_about_and_dropped(movie_catalog, movie_instance,
                                                             mode):
    probe = "Columns: directors: (name) movies: (movie_title, Bogus)"
    client, _ = make_client(step_scripted(step2=probe))
    trace = run_cot(movie_instance, movie_catalog, client, mode, seed=0)
    client, _ = make_client(step_scripted(step2="Columns: movies: (movie_title, Bogus)"))
    known_only = run_cot(movie_instance, movie_catalog, client, mode, seed=0)
    assert trace.warnings == [
        "predicted columns for unknown table 'directors'; dropped", *known_only.warnings]
    assert any("Bogus" in warning for warning in known_only.warnings)
    assert trace.predicted_columns == known_only.predicted_columns == {
        "movies": ["movie_title"]}
    assert trace.final_sql == known_only.final_sql


def test_a_block_of_unknown_tables_still_falls_back_to_free_text(movie_catalog):
    assert _columns("Columns: directors: (name) so use movie_title",
                    movie_catalog, ["movies"]) == (
        {"movies": ["movie_title"]},
        ["predicted columns for unknown table 'directors'; dropped"])


def test_unusable_skeleton_step_raises(movie_catalog, movie_instance):
    from sqlbench.cot import SkeletonParseFailure

    client, _ = make_client(step_scripted(skeleton_resp="   "))
    with pytest.raises(SkeletonParseFailure):
        run_cot(movie_instance, movie_catalog, client, MODE_COT_SK_FULL, seed=0)
    client, _ = make_client(step_scripted(skeleton_resp="I can't do that"))
    with pytest.raises(SkeletonParseFailure):
        run_cot(movie_instance, movie_catalog, client, MODE_COT_SK_FULL, seed=0)


def test_empty_column_parse_falls_back_to_full(movie_catalog, movie_instance):
    client, _ = make_client(step_scripted(step2="I cannot answer that."))
    trace = run_cot(movie_instance, movie_catalog, client, MODE_COT_SP_PRED, seed=0)
    assert any("step 2" in w for w in trace.warnings)
    # fallback keeps the pipeline total and the final step sees the full tables
    assert trace.final_sql.startswith("SELECT")


def filter_catalog(catalog, keep):
    """Reference: a narrowed step's schema as a catalog of its own.

    Tables absent from `keep` retain all columns; a table mapped to an
    empty set is dropped. Foreign keys survive only if both endpoints do.
    """
    tables = []
    for table in catalog.tables:
        if table.name not in keep:
            tables.append(table)
            continue
        columns = tuple(c for c in table.columns if c.name in keep[table.name])
        if columns:
            tables.append(TableSpec(table.name, columns))
    kept = {(t.name, c.name) for t in tables for c in t.columns}
    fks = tuple(fk for fk in catalog.foreign_keys
                if (fk.table, fk.column) in kept and (fk.ref_table, fk.ref_column) in kept)
    return DatabaseCatalog(catalog.database_id, tuple(tables), fks)


_WORDS = ("year", "title", "score", "city", "name", "count")


@st.composite
def _narrowed_steps(draw):
    """A catalog with random foreign keys and the keep of a narrowed CoT
    step over it: every table maps to a random subset, possibly empty."""
    words = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join)
    tables = []
    for t in range(draw(st.integers(1, 4))):
        columns = tuple(
            ColumnSpec(f"{draw(st.sampled_from(_WORDS))}_{c}",
                       draw(st.sampled_from(TYPE_NAMES)),
                       draw(st.none() | words),
                       draw(st.none() | st.lists(words, min_size=1, max_size=3).map(tuple)),
                       draw(st.integers(0, 3)) == 0)
            for c in range(draw(st.integers(1, 6))))
        tables.append(TableSpec(f"t{t}", columns))
    ends = st.sampled_from([(t.name, c.name) for t in tables for c in t.columns])
    fks = tuple(ForeignKey(a, b, c, d)
                for (a, b), (c, d) in draw(st.lists(st.tuples(ends, ends), max_size=4)))
    keep = {t.name: {c.name for c in t.columns if draw(st.booleans())} for t in tables}
    instance = TaskInstance(draw(st.integers(0, 99)), draw(words) + "?", draw(words),
                            "SELECT 1", "db")
    return DatabaseCatalog("db", tuple(tables), fks), keep, instance


def _step_prompt(instance, catalog, step_index, tail, budget, seed, keep=None):
    """The step prompt over the schema `keep` shows, partitioned as run_cot does."""
    return _build_step_prompt(
        instance, step_index, tail, budget, seed, question_section(instance, catalog, keep))


def _step_outcome(*args):
    try:
        return _step_prompt(*args)
    except UnsatisfiableBudget as exc:
        return str(exc)


def test_keep_based_step_prompts_equal_filtered_catalog_prompts():
    """A narrowed step prompt built from a keep over the base catalog equals
    the one built from the catalog filtered down to that keep: text, token
    count and truncation record, or the same UnsatisfiableBudget message."""
    seen = {"truncated": 0, "unsatisfiable": 0, "fk_end_dropped": 0}

    @settings(max_examples=300, deadline=None)
    @given(_narrowed_steps(), st.sampled_from([1, 2, 3]), st.integers(-60, 5),
           st.integers(0, 2**32))
    def check(narrowed, step_index, slack, seed):
        catalog, keep, instance = narrowed
        filtered = filter_catalog(catalog, keep)
        full = _step_prompt(instance, filtered, step_index, "Tables:",
                            TokenBudget(10**6, 200), seed).token_count
        budget = TokenBudget(max(1, full + slack) + 200, 200)
        expected = _step_outcome(
            instance, filtered, step_index, "Tables:", budget, seed)
        assert _step_outcome(instance, catalog, step_index, "Tables:", budget, seed,
                             keep) == expected
        if isinstance(expected, str):
            seen["unsatisfiable"] += 1
        elif expected.truncation.total_removed:
            seen["truncated"] += 1
        kept = {(table, column) for table, columns in keep.items() for column in columns}
        if any(((fk.table, fk.column) in kept) != ((fk.ref_table, fk.ref_column) in kept)
               for fk in catalog.foreign_keys):
            seen["fk_end_dropped"] += 1

    check()
    assert all(seen.values()), seen


def test_a_pred_step_2_table_outside_step_1_is_warned_about_and_dropped(
        movie_catalog, movie_instance):
    client, _ = make_client(step_scripted(
        step2="Columns: movies: (movie_title) ratings: (rating_score)"))
    trace = run_cot(movie_instance, movie_catalog, client, MODE_COT_SK_PRED, seed=0)
    assert trace.predicted_tables == ["movies"]
    assert trace.warnings == [
        "predicted columns for table 'ratings' outside step-1 tables; dropped"]
    assert trace.predicted_columns == {"movies": ["movie_title"]}
    assert all("rating_score" not in bundle.text for bundle in trace.step_prompts[2:])


def test_a_qualified_step_2_column_is_read_as_its_column(movie_catalog, movie_instance):
    client, _ = make_client(step_scripted(
        step2="Columns: movies: (movies.movie_title, `movie_release_year`)"))
    trace = run_cot(movie_instance, movie_catalog, client, MODE_COT_SP_PRED, seed=0)
    assert trace.warnings == []
    assert trace.predicted_columns == {"movies": ["movie_title", "movie_release_year"]}
    assert "movies.movie_title, movies.movie_release_year." in trace.step_prompts[2].text
