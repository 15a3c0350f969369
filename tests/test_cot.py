from __future__ import annotations

import pytest

from conftest import ScriptedTransport
from sqlbench.bench import TaskInstance
from sqlbench.budget import TokenBudget
from sqlbench.cot import (
    MODE_COT_SK_FULL,
    MODE_COT_SK_PRED,
    MODE_COT_SP_FULL,
    MODE_COT_SP_PRED,
    parse_column_list,
    parse_table_list,
    run_cot,
)
from sqlbench.gateway import LlmClient, LlmEndpoint, ReplayStore
from sqlbench.schema import SchemaVariant, render_schema


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
    assert [b.step_index for b in trace.step_prompts] == list(range(1, steps + 1))
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


def test_parse_table_list_parenthesized_block(movie_catalog):
    assert parse_table_list("Tables: (movies\n ratings)", movie_catalog) == \
        ["movies", "ratings"]


def test_parse_table_list_free_text_fallback(movie_catalog):
    assert parse_table_list("We need the movies table.", movie_catalog) == ["movies"]


def test_parse_table_list_gibberish(movie_catalog):
    assert parse_table_list("no idea, sorry!", movie_catalog) == []


def test_parse_table_list_preserves_unknown_names_for_validation(movie_catalog):
    assert parse_table_list("Tables: (badges)", movie_catalog) == ["badges"]


def test_parse_column_list_parenthesized_block(movie_catalog):
    columns = parse_column_list(
        "Columns: movies: (movie_title\n                movie_release_year)",
        movie_catalog, ["movies"])
    assert columns == {"movies": ["movie_title", "movie_release_year"]}


def test_parse_column_list_multiple_tables(movie_catalog):
    columns = parse_column_list(
        "Columns: movies: (movie_id)\nratings: (rating_score, movie_id)",
        movie_catalog, ["movies", "ratings"])
    assert columns == {"movies": ["movie_id"], "ratings": ["rating_score", "movie_id"]}


def test_parse_column_list_free_text_fallback(movie_catalog):
    columns = parse_column_list(
        "You should use the movie_title and movie_release_year fields.",
        movie_catalog, ["movies"])
    assert columns == {"movies": ["movie_title", "movie_release_year"]}


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
