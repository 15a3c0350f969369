from __future__ import annotations

import math
import random

import pytest

from sqlbench.budget import (
    ColumnPartition,
    NonpositiveSimilarity,
    PromptSection,
    TokenBudget,
    UnsatisfiableBudget,
    clamp_similarity,
    count_tokens,
    derive_seed,
    full_keep,
    partition_columns,
    plan_example_truncation,
    truncate_examples,
    truncate_target,
)
from sqlbench.schema import (
    ColumnSpec,
    DatabaseCatalog,
    SchemaVariant,
    TableSpec,
    column_line_costs,
    render_schema,
)


def softmax_oracle(values, temperature=1.0):
    weights = [math.exp(v / temperature) for v in values]
    total = sum(weights)
    return [w / total for w in weights]


def test_count_tokens_empty():
    assert count_tokens("") == 0


def test_count_tokens_frozen_segmentation():
    # hand-applied rule: words and single punctuation marks
    assert count_tokens("SELECT 1") == 2
    assert count_tokens("a,b") == 3
    assert count_tokens("movie_title") == 1
    assert count_tokens("#   movie_id: int") == 4


def test_count_tokens_monotone_under_concatenation():
    rng = random.Random(7)
    alphabet = "ab c,.()#:\n"
    for _ in range(200):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
        assert count_tokens(a + b) >= max(count_tokens(a), count_tokens(b))


def test_token_budget_invariants():
    budget = TokenBudget()
    assert budget.max_context == 2048
    assert budget.response_reserve == 200
    assert budget.available == 1848
    with pytest.raises(ValueError):
        TokenBudget(100, 100)
    with pytest.raises(ValueError):
        TokenBudget(100, 0)


def test_partition_disjoint_and_covering(movie_catalog):
    partition = partition_columns(movie_catalog, question="Which movie was released in 1945?")
    assert not partition.target & partition.non_target
    assert partition.target | partition.non_target == movie_catalog.column_set()


def test_partition_with_reference_sql(movie_catalog):
    partition = partition_columns(
        movie_catalog, reference_sql="SELECT movie_title FROM movies")
    keys = movie_catalog.key_columns()
    assert ("movies", "movie_title") in partition.target
    assert keys <= partition.target
    assert ("movies", "movie_popularity") in partition.non_target
    # brute-force oracle over the SQL token texts
    sql_words = {"select", "movie_title", "from", "movies"}
    for table in movie_catalog.tables:
        for column in table.columns:
            expected = column.name.lower() in sql_words or (table.name, column.name) in keys
            assert ((table.name, column.name) in partition.target) == expected


def test_partition_question_word_overlap(movie_catalog):
    catalog = DatabaseCatalog("schools_db", (TableSpec("schools", (
        ColumnSpec("CDSCode", "text", "unique school code", None, True),
        ColumnSpec("Phone", "text", "phone number of school"),
        ColumnSpec("Website", "text", "school homepage"),
        ColumnSpec("Budget", "real"),
    )),))
    partition = partition_columns(
        catalog, question="Please list the phone numbers of the schools")
    assert ("schools", "Phone") in partition.target
    assert ("schools", "Budget") in partition.non_target


def test_partition_reference_touching_everything(movie_catalog):
    sql = ("SELECT movie_id, movie_title, movie_release_year, movie_popularity, "
           "rating_id, rating_score, rating_label FROM movies, ratings")
    partition = partition_columns(movie_catalog, reference_sql=sql)
    assert partition.non_target == frozenset()


def test_partition_overlap_rejected():
    with pytest.raises(ValueError):
        ColumnPartition(frozenset({("t", "a")}), frozenset({("t", "a")}))


def _tokens_via_render(catalog, variant=SchemaVariant.C_A):
    def tokens(keep):
        return count_tokens(render_schema(catalog, variant, keep))
    return tokens


def test_truncate_target_noop_under_budget(movie_catalog):
    partition = partition_columns(movie_catalog, question="anything")
    tokens = _tokens_via_render(movie_catalog)
    keep, record = truncate_target(movie_catalog, partition, tokens, 10_000, seed=1)
    assert record.total_removed == 0
    assert record.tokens_before == record.tokens_after
    assert keep == full_keep(movie_catalog)


def wide_catalog(columns=40, description=True):
    cols = [ColumnSpec("id", "int", None, None, True)]
    cols += [
        ColumnSpec(f"col_{i:02d}", "text",
                   f"long description of column number {i}" if description else None)
        for i in range(columns)
    ]
    return DatabaseCatalog("wide", (TableSpec("wide", tuple(cols)),))


def test_truncate_target_fits_and_removes_only_non_target():
    catalog = wide_catalog()
    partition = partition_columns(catalog, question="nothing relevant here")
    tokens = _tokens_via_render(catalog)
    start = tokens(full_keep(catalog))
    limit = start - 150
    keep, record = truncate_target(catalog, partition, tokens, limit, seed=3)
    assert tokens(keep) <= limit
    assert record.tokens_after <= limit
    assert set(record.removed_columns[0]) <= partition.non_target


def test_truncate_target_deterministic():
    catalog = wide_catalog()
    partition = partition_columns(catalog, question="x")
    tokens = _tokens_via_render(catalog)
    limit = tokens(full_keep(catalog)) - 100
    _, first = truncate_target(catalog, partition, tokens, limit, seed=11)
    _, second = truncate_target(catalog, partition, tokens, limit, seed=11)
    assert first.removed_columns == second.removed_columns
    _, third = truncate_target(catalog, partition, tokens, limit, seed=12)
    assert first.removed_columns != third.removed_columns


def test_truncate_target_unsatisfiable():
    catalog = wide_catalog(columns=5)
    partition = partition_columns(catalog, question="x")
    tokens = _tokens_via_render(catalog)
    with pytest.raises(UnsatisfiableBudget):
        truncate_target(catalog, partition, tokens, 1, seed=0)


def test_plan_symmetric_for_identical_similarities():
    plan = plan_example_truncation([1.0], temperature=1.0)
    assert plan.rates == pytest.approx((0.5, 0.5))


def test_plan_worked_softmax_case():
    plan = plan_example_truncation([0.5, 0.25], temperature=1.0)
    # softmax over 1/gamma = (1, 2, 4), computed independently
    expected = softmax_oracle([1.0, 2.0, 4.0])
    assert expected == pytest.approx([0.0420, 0.1142, 0.8438], abs=1e-3)
    assert list(plan.rates) == pytest.approx(expected, abs=1e-12)


def test_plan_rates_sum_to_one_and_monotone():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randrange(1, 8)
        gammas = sorted(rng.uniform(0.05, 1.0) for _ in range(k))
        plan = plan_example_truncation(gammas, temperature=rng.uniform(0.25, 5.0))
        assert abs(sum(plan.rates) - 1.0) < 1e-9
        assert all(r > 0 for r in plan.rates)
        # gammas ascending -> example rates descending
        example_rates = plan.rates[1:]
        for earlier, later in zip(example_rates, example_rates[1:]):
            assert earlier > later


def test_plan_approaches_uniform_at_high_temperature():
    plan = plan_example_truncation([0.5, 0.25, 0.9], temperature=1e6)
    assert all(abs(r - 1 / 4) < 1e-3 for r in plan.rates)


def test_plan_rejects_bad_inputs():
    with pytest.raises(NonpositiveSimilarity):
        plan_example_truncation([0.5, 0.0])
    with pytest.raises(NonpositiveSimilarity):
        plan_example_truncation([-0.2])
    with pytest.raises(ValueError):
        plan_example_truncation([0.5], temperature=0.0)


def test_clamp_similarity():
    assert clamp_similarity(0.7) == 0.7
    assert clamp_similarity(-0.3) == 1e-6
    assert clamp_similarity(0.0) == 1e-6


def test_plan_extreme_similarity_does_not_overflow():
    plan = plan_example_truncation([clamp_similarity(-1.0)], temperature=1.0)
    assert abs(sum(plan.rates) - 1.0) < 1e-9


def _example_sections(n_examples, columns=25):
    sections = [PromptSection(
        wide_catalog(columns), partition_columns(wide_catalog(columns), question="x"))]
    for i in range(n_examples):
        catalog = wide_catalog(columns)
        sections.append(PromptSection(
            catalog, partition_columns(catalog, reference_sql="SELECT id FROM wide")))
    return sections


def _render_sections(sections):
    def render(keeps):
        parts = [
            render_schema(section.catalog, SchemaVariant.C_A, keep)
            for section, keep in zip(sections, keeps)
        ]
        return "\n".join(parts)
    return render


def test_truncate_examples_noop_under_budget():
    sections = _example_sections(2)
    plan = plan_example_truncation([0.9, 0.5])
    render = _render_sections(sections)
    keeps, record = truncate_examples(sections, plan, render, 10_000, seed=1)
    assert record.total_removed == 0
    assert record.tokens_before == record.tokens_after


def test_truncate_examples_fits_and_least_similar_loses_most():
    sections = _example_sections(3, columns=30)
    render = _render_sections(sections)
    full = count_tokens(render([s.keep for s in sections]))
    limit = int(full * 0.6)  # roughly 40% over budget
    plan = plan_example_truncation([0.9, 0.5, 0.25])
    keeps, record = truncate_examples(sections, plan, render, limit, seed=2)
    assert count_tokens(render(keeps)) <= limit
    removed_counts = [len(section) for section in record.removed_columns]
    # per-section removals follow the rate ordering
    assert removed_counts[3] >= removed_counts[2] >= removed_counts[1] >= removed_counts[0]
    for section, removed in zip(sections, record.removed_columns):
        assert set(removed) <= section.partition.non_target


def test_truncate_examples_reapportions_on_exhaustion():
    sections = _example_sections(2, columns=20)
    # most-similar example has nothing removable: every column is target
    full_cols = sections[2].catalog.column_set()
    sections[2] = PromptSection(
        sections[2].catalog,
        ColumnPartition(frozenset(full_cols), frozenset()))
    render = _render_sections(sections)
    full = count_tokens(render([s.keep for s in sections]))
    limit = int(full * 0.7)
    plan = plan_example_truncation([0.5, 0.9])
    keeps, record = truncate_examples(sections, plan, render, limit, seed=3)
    assert count_tokens(render(keeps)) <= limit
    assert record.removed_columns[2] == ()


def test_truncate_examples_unsatisfiable():
    sections = _example_sections(1, columns=5)
    render = _render_sections(sections)
    plan = plan_example_truncation([0.5])
    with pytest.raises(UnsatisfiableBudget):
        truncate_examples(sections, plan, render, 1, seed=4)


def test_truncate_examples_deterministic():
    def run(seed):
        sections = _example_sections(2, columns=25)
        render = _render_sections(sections)
        full = count_tokens(render([s.keep for s in sections]))
        plan = plan_example_truncation([0.8, 0.4])
        keeps, record = truncate_examples(
            sections, plan, render, int(full * 0.7), seed=seed)
        return render(keeps), record.removed_columns

    assert run(9) == run(9)
    assert run(9) != run(10)


def _with_costs(sections, counter=count_tokens):
    return [PromptSection(s.catalog, s.partition,
                          column_line_costs(s.catalog, SchemaVariant.C_A, counter))
            for s in sections]


@pytest.mark.parametrize("with_costs", [False, True])
def test_truncate_examples_leaves_sections_unchanged(with_costs):
    sections = _example_sections(2, columns=31)
    if with_costs:
        sections = _with_costs(sections)
    render = _render_sections(sections)
    limit = int(count_tokens(render([s.keep for s in sections])) * 0.6)
    plan = plan_example_truncation([0.8, 0.4])
    first = truncate_examples(sections, plan, render, limit, seed=5)
    second = truncate_examples(sections, plan, render, limit, seed=5)
    assert first[1].total_removed > 0
    assert first == second
    for section in sections:
        assert section.keep == full_keep(section.catalog)


def test_truncate_examples_accounting_matches_rerendering():
    sections = _example_sections(3, columns=30)
    render = _render_sections(sections)
    limit = int(count_tokens(render([s.keep for s in sections])) * 0.6)
    plan = plan_example_truncation([0.9, 0.5, 0.25])
    rerendered = truncate_examples(sections, plan, render, limit, seed=2)
    accounted = truncate_examples(_with_costs(sections), plan, render, limit, seed=2)
    assert accounted == rerendered


def test_truncate_examples_fits_under_a_counter_that_is_not_line_additive():
    # Each count carries a fixed extra token, so per-line costs overstate
    # what a removal frees and the accounted count undershoots the truth.
    def counter(text):
        return count_tokens(text) + 1

    sections = _with_costs(_example_sections(2, columns=30), counter)
    render = _render_sections(sections)
    limit = int(counter(render([s.keep for s in sections])) * 0.6)
    plan = plan_example_truncation([0.8, 0.4])
    keeps, record = truncate_examples(sections, plan, render, limit, seed=7, counter=counter)
    assert record.tokens_after == counter(render(keeps)) <= limit


def test_derive_seed_stable():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
