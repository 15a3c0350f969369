from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqlbench import cot, prompts
from sqlbench.bench import TaskInstance
from sqlbench.budget import (
    ColumnPartition,
    NonpositiveSimilarity,
    PromptSection,
    TokenBudget,
    TruncationRecord,
    UnsatisfiableBudget,
    clamp_similarity,
    count_tokens,
    derive_seed,
    partition_columns,
    plan_example_truncation,
    prepare_catalog,
    truncate_examples,
    truncate_target,
)
from sqlbench.prompts import (
    FewShotBlock,
    build_sft_pair,
    few_shot_template,
    few_shot_text,
    fit_prompt,
    open_prompt_text,
    open_template,
)
from sqlbench.schema import (
    TYPE_NAMES,
    ColumnSpec,
    DatabaseCatalog,
    ForeignKey,
    SchemaVariant,
    TableSpec,
    UnknownColumnInFilter,
    render_schema,
)
from sqlbench.skeleton import UnterminatedComment, UnterminatedString


def full_keep(catalog):
    return {t.name: {c.name for c in t.columns} for t in catalog.tables}


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


# Lines of any characters but surrogates, weighted towards the Unicode
# whitespace that str.split() breaks on and punctuation.
_LINE = st.text(st.characters(blacklist_categories=("Cs",))
                | st.sampled_from(["\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000",
                                   "\t", " ", ",", "(", ")", "#", ":", "."]),
                max_size=12)


@settings(max_examples=500, deadline=None)
@given(st.lists(_LINE, max_size=8))
def test_count_tokens_adds_up_line_by_line(lines):
    # Every budgeted prompt's fit rests on this: its size is never counted
    # whole, only as the sum of its lines' costs.
    assert count_tokens("\n".join(lines)) == sum(map(count_tokens, lines))


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


def test_partition_of_a_keep_frees_a_foreign_key_column_whose_partner_is_out(movie_catalog):
    # ratings.movie_id references movies.movie_id; with movies.movie_id
    # outside the keep the foreign key is not shown, so ratings.movie_id is
    # no longer a key column and may be removed.
    keep = {"movies": {"movie_title"}, "ratings": {"rating_id", "movie_id", "rating_score"}}
    partition = partition_columns(movie_catalog, question="anything", keep=keep)
    assert partition.target == {("ratings", "rating_id")}
    assert partition.non_target == {
        ("movies", "movie_title"), ("ratings", "movie_id"), ("ratings", "rating_score")}
    assert movie_catalog.key_columns(partition.target | partition.non_target) == \
        partition.target
    # With both endpoints kept, both stay target.
    keep["movies"].add("movie_id")
    partition = partition_columns(movie_catalog, question="anything", keep=keep)
    assert {("movies", "movie_id"), ("ratings", "movie_id")} <= partition.target
    # A table left out of the keep shows every column, as render_schema does.
    partition = partition_columns(movie_catalog, question="anything", keep={"movies": set()})
    assert partition.target | partition.non_target == {
        (t, c) for t, c in movie_catalog.column_set() if t == "ratings"}
    with pytest.raises(UnknownColumnInFilter):
        partition_columns(movie_catalog, question="anything", keep={"movies": {"nope"}})


def test_a_prepared_catalog_holds_what_its_first_sections_would_build(movie_catalog):
    fresh = DatabaseCatalog(
        movie_catalog.database_id, movie_catalog.tables, movie_catalog.foreign_keys)
    variants = (SchemaVariant.C_A, SchemaVariant.C_D)
    prepare_catalog(movie_catalog, variants, by_question=True, by_sql=True)
    keys, sizes = set(movie_catalog._derived), dict(movie_catalog._derived["full_view_sizes"])
    built = []
    for catalog in (movie_catalog, fresh):
        sections = [PromptSection(catalog, partition_columns(catalog, question=question))
                    for question in ("Which movie was released in 1945?", "rating score")]
        sections.append(PromptSection(catalog, partition_columns(
            catalog, reference_sql="SELECT movie_title FROM movies")))
        built.append([(section.keep, section.removables,
                       [section.size(variant) for variant in variants])
                      for section in sections])
    assert built[0] == built[1]
    assert set(movie_catalog._derived) == keys == set(fresh._derived)
    assert movie_catalog._derived["full_view_sizes"] == sizes == fresh._derived["full_view_sizes"]


def test_partition_overlap_rejected():
    with pytest.raises(ValueError):
        ColumnPartition(frozenset({("t", "a")}), frozenset({("t", "a")}))


# Every truncation call in this file renders C_A schemas unless it says otherwise.
ENGINE = {"variant": SchemaVariant.C_A}


def _emptied(keep):
    return {table: set() for table in keep}


def target_scaffold(section, render):
    """The engine's scaffold for a prompt `render` renders under one keep:
    the count of its frame, every table's keep emptied."""
    return count_tokens(render(_emptied(section.keep)))


def examples_scaffold(sections, render):
    """The scaffold for a prompt `render` renders under one keep per section."""
    return count_tokens(render([_emptied(section.keep) for section in sections]))


def _render_target(catalog, variant=SchemaVariant.C_A):
    def render(keep):
        return render_schema(catalog, variant, keep)
    return render


def test_truncate_target_noop_under_budget(movie_catalog):
    partition = partition_columns(movie_catalog, question="anything")
    render = _render_target(movie_catalog)
    section = PromptSection(movie_catalog, partition)
    keep, record = truncate_target(
        section, target_scaffold(section, render), 10_000, seed=1, **ENGINE)
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
    render = _render_target(catalog)
    limit = count_tokens(render(full_keep(catalog))) - 150
    section = PromptSection(catalog, partition)
    keep, record = truncate_target(
        section, target_scaffold(section, render), limit, seed=3, **ENGINE)
    assert count_tokens(render(keep)) <= limit
    assert record.tokens_after <= limit
    assert set(record.removed_columns[0]) <= partition.non_target


def test_truncate_target_deterministic():
    catalog = wide_catalog()
    partition = partition_columns(catalog, question="x")
    render = _render_target(catalog)
    limit = count_tokens(render(full_keep(catalog))) - 100
    section = PromptSection(catalog, partition)
    scaffold = target_scaffold(section, render)
    _, first = truncate_target(section, scaffold, limit, seed=11, **ENGINE)
    _, second = truncate_target(section, scaffold, limit, seed=11, **ENGINE)
    assert first.removed_columns == second.removed_columns
    _, third = truncate_target(section, scaffold, limit, seed=12, **ENGINE)
    assert first.removed_columns != third.removed_columns


def test_seeded_removals_are_pinned():
    # Reports are byte-identical across runs and Python versions only while
    # random.Random(seed).randrange draws the same; CI runs each version.
    sections = _example_sections(2, columns=8)
    render = _render_sections(sections)
    limit = int(count_tokens(render([s.keep for s in sections])) * 0.7)
    _, record = truncate_examples(sections, plan_example_truncation([0.8, 0.4]),
                                  examples_scaffold(sections, render), limit, seed=2024,
                                  **ENGINE)
    assert record == TruncationRecord((
        (("wide", "col_07"), ("wide", "col_01")),
        (("wide", "col_04"), ("wide", "col_01")),
        (("wide", "col_06"), ("wide", "col_07"), ("wide", "col_05"), ("wide", "col_02"),
         ("wide", "col_01"), ("wide", "col_04")),
    ), 345, 215)


def test_truncate_target_unsatisfiable():
    catalog = wide_catalog(columns=5)
    partition = partition_columns(catalog, question="x")
    render = _render_target(catalog)
    section = PromptSection(catalog, partition)
    with pytest.raises(UnsatisfiableBudget):
        truncate_target(section, target_scaffold(section, render), 1, seed=0, **ENGINE)


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


def _render_sections(sections, variant=SchemaVariant.C_A):
    def render(keeps):
        parts = [
            render_schema(section.catalog, variant, keep)
            for section, keep in zip(sections, keeps)
        ]
        return "\n".join(parts)
    return render


def rerender_reference(sections, plan, render_prompt, limit, seed, *, variant):
    """Example truncation that re-renders the prompt after every removal.

    A removal frees exactly what the re-rendered prompt loses, so this is
    the engine's semantics without its accounting; `variant` is unused.
    """
    keeps = [{table: set(columns) for table, columns in section.keep.items()}
             for section in sections]
    removables = [sorted(section.partition.non_target) for section in sections]
    rng = random.Random(seed)
    removed = [[] for _ in sections]
    tokens_before = tokens = count_tokens(render_prompt(keeps))
    active = [i for i in range(len(sections)) if removables[i]]
    while tokens > limit:
        if not active:
            raise UnsatisfiableBudget(f"{tokens} tokens (limit {limit})")
        excess = tokens - limit
        rates = [plan.rates[i] for i in active]
        if sum(rates) == 0:
            rates = [1.0] * len(active)
        total_rate = sum(rates)
        for i, rate in zip(list(active), rates):
            quota = excess * rate / total_rate
            freed = 0
            while freed < quota and removables[i]:
                table, column = removables[i].pop(rng.randrange(len(removables[i])))
                keeps[i][table].discard(column)
                removed[i].append((table, column))
                new_tokens = count_tokens(render_prompt(keeps))
                freed += tokens - new_tokens
                tokens = new_tokens
            if not removables[i]:
                active.remove(i)
    record = TruncationRecord(tuple(tuple(r) for r in removed), tokens_before, tokens)
    return keeps, record


def first_fit_reference(catalog, partition, render_prompt, limit, seed):
    """Target truncation by brute force: pop, re-render, stop at the first fit."""
    keep = full_keep(catalog)
    removable = sorted(partition.non_target)
    rng = random.Random(seed)
    removed = []
    tokens_before = tokens = count_tokens(render_prompt(keep))
    while tokens > limit:
        if not removable:
            raise UnsatisfiableBudget(f"{tokens} tokens (limit {limit})")
        table, column = removable.pop(rng.randrange(len(removable)))
        keep[table].discard(column)
        removed.append((table, column))
        tokens = count_tokens(render_prompt(keep))
    return keep, TruncationRecord((tuple(removed),), tokens_before, tokens)


def test_truncate_examples_noop_under_budget():
    sections = _example_sections(2)
    plan = plan_example_truncation([0.9, 0.5])
    render = _render_sections(sections)
    keeps, record = truncate_examples(
        sections, plan, examples_scaffold(sections, render), 10_000, seed=1, **ENGINE)
    assert record.total_removed == 0
    assert record.tokens_before == record.tokens_after


def test_truncate_examples_fits_and_least_similar_loses_most():
    sections = _example_sections(3, columns=30)
    render = _render_sections(sections)
    full = count_tokens(render([s.keep for s in sections]))
    limit = int(full * 0.6)  # roughly 40% over budget
    plan = plan_example_truncation([0.9, 0.5, 0.25])
    keeps, record = truncate_examples(
        sections, plan, examples_scaffold(sections, render), limit, seed=2, **ENGINE)
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
    keeps, record = truncate_examples(
        sections, plan, examples_scaffold(sections, render), limit, seed=3, **ENGINE)
    assert count_tokens(render(keeps)) <= limit
    assert record.removed_columns[2] == ()


def test_truncate_examples_shares_the_excess_evenly_once_active_rates_are_zero():
    # A similarity clamped to 1e-6 takes the whole rate: the other two
    # sections underflow to 0, and they must still shed columns once the
    # first example has none left.
    plan = plan_example_truncation([1e-6, 0.5])
    assert plan.rates == (0.0, 1.0, 0.0)
    sections = _example_sections(2, columns=30)
    few = sorted(sections[1].partition.non_target)[:3]
    sections[1] = PromptSection(sections[1].catalog, ColumnPartition(
        sections[1].catalog.column_set() - set(few), frozenset(few)))
    render = _render_sections(sections)
    limit = int(count_tokens(render([s.keep for s in sections])) * 0.7)
    keeps, record = truncate_examples(
        sections, plan, examples_scaffold(sections, render), limit, seed=8, **ENGINE)
    assert record.tokens_after == count_tokens(render(keeps)) <= limit
    assert set(record.removed_columns[1]) == set(few)
    assert record.removed_columns[0] and record.removed_columns[2]
    assert (keeps, record) == rerender_reference(sections, plan, render, limit, seed=8, **ENGINE)


def test_truncate_examples_unsatisfiable():
    sections = _example_sections(1, columns=5)
    render = _render_sections(sections)
    plan = plan_example_truncation([0.5])
    with pytest.raises(UnsatisfiableBudget):
        truncate_examples(sections, plan, examples_scaffold(sections, render), 1, seed=4,
                          **ENGINE)


def test_truncate_examples_deterministic():
    def run(seed):
        sections = _example_sections(2, columns=25)
        render = _render_sections(sections)
        full = count_tokens(render([s.keep for s in sections]))
        plan = plan_example_truncation([0.8, 0.4])
        keeps, record = truncate_examples(
            sections, plan, examples_scaffold(sections, render), int(full * 0.7), seed=seed,
            **ENGINE)
        return render(keeps), record.removed_columns

    assert run(9) == run(9)
    assert run(9) != run(10)


@pytest.mark.parametrize("accounted", [False, True])
def test_truncate_examples_leaves_sections_unchanged(accounted):
    truncate = truncate_examples if accounted else rerender_reference
    sections = _example_sections(2, columns=31)
    render = _render_sections(sections)
    limit = int(count_tokens(render([s.keep for s in sections])) * 0.6)
    plan = plan_example_truncation([0.8, 0.4])
    prompt = examples_scaffold(sections, render) if accounted else render
    first = truncate(sections, plan, prompt, limit, seed=5, **ENGINE)
    second = truncate(sections, plan, prompt, limit, seed=5, **ENGINE)
    assert first[1].total_removed > 0
    assert first == second
    for section in sections:
        assert section.keep == full_keep(section.catalog)


def test_truncate_examples_accounting_matches_rerendering():
    sections = _example_sections(3, columns=30)
    render = _render_sections(sections)
    limit = int(count_tokens(render([s.keep for s in sections])) * 0.6)
    plan = plan_example_truncation([0.9, 0.5, 0.25])
    rerendered = rerender_reference(sections, plan, render, limit, seed=2, **ENGINE)
    accounted = truncate_examples(
        sections, plan, examples_scaffold(sections, render), limit, seed=2, **ENGINE)
    assert accounted == rerendered


_WORD = st.text(alphabet="abcxyz", min_size=1, max_size=6)


@st.composite
def _catalogs(draw):
    """Small catalogs: some tables without a primary key, random foreign keys."""
    tables = []
    for t in range(draw(st.integers(1, 4))):
        columns = tuple(
            ColumnSpec(f"c{c}", "text", draw(st.none() | _WORD), None, draw(st.booleans()))
            for c in range(draw(st.integers(1, 6))))
        tables.append(TableSpec(f"t{t}", columns))
    ends = st.sampled_from([(t.name, c.name) for t in tables for c in t.columns])
    fks = tuple(ForeignKey(a, b, c, d)
                for (a, b), (c, d) in draw(st.lists(st.tuples(ends, ends), max_size=4)))
    return DatabaseCatalog("db", tuple(tables), fks)


@st.composite
def _sections(draw):
    """A catalog with a random partition; foreign-key endpoints may be removable."""
    catalog = draw(_catalogs())
    columns = sorted(catalog.column_set())
    non_target = frozenset(column for column in columns if draw(st.booleans()))
    return PromptSection(catalog, ColumnPartition(
        frozenset(columns) - non_target, non_target))


def _outcome(truncate, *args, **kwargs):
    try:
        return truncate(*args, **kwargs)
    except UnsatisfiableBudget:
        return "unsatisfiable"


@settings(max_examples=200, deadline=None)
@given(_sections(), st.sampled_from(list(SchemaVariant)), st.floats(0, 1),
       st.integers(0, 2**32))
def test_truncate_target_equals_first_fit(section, variant, fraction, seed):
    catalog, partition = section.catalog, section.partition

    def render(keep):
        return "### rule\n" + render_schema(catalog, variant, keep) + "SELECT"

    limit = int(count_tokens(render(None)) * fraction)
    assert _outcome(truncate_target, section, target_scaffold(section, render), limit, seed,
                    variant=variant) == \
        _outcome(first_fit_reference, catalog, partition, render, limit, seed)


@settings(max_examples=200, deadline=None)
@given(st.lists(_sections(), min_size=1, max_size=4), st.sampled_from(list(SchemaVariant)),
       st.data(), st.floats(0, 1), st.integers(0, 2**32))
def test_truncate_examples_equals_rerendering(sections, variant, data, fraction, seed):
    similarities = data.draw(st.lists(
        st.sampled_from([1e-6, 0.05, 0.3, 0.5, 0.9, 1.0]),
        min_size=len(sections) - 1, max_size=len(sections) - 1))
    plan = plan_example_truncation(similarities, data.draw(st.sampled_from([0.5, 1.0, 3.0])))
    render = _render_sections(sections, variant)
    limit = int(count_tokens(render([s.keep for s in sections])) * fraction)
    assert _outcome(truncate_examples, sections, plan, examples_scaffold(sections, render),
                    limit, seed, variant=variant) == \
        _outcome(rerender_reference, sections, plan, render, limit, seed, variant=variant)


def _wide_section(tables=4, columns=160):
    """A section of `tables` x `columns` removable columns, a key column in
    every table but the last, which may empty, and two foreign keys between
    removable columns, so that the draws run from lists longer than 512
    down and both recounts happen."""
    catalog = DatabaseCatalog("wide", tuple(
        TableSpec(f"t{t}", (ColumnSpec("id", "int", None, None, True), *(
            ColumnSpec(f"c{c:03d}", "text", f"note {c}" if c % 3 else None)
            for c in range(columns))))
        for t in range(tables)),
        (ForeignKey("t0", "c001", "t1", "c002"), ForeignKey("t1", "c003", "t0", "c004")))
    target = frozenset((f"t{t}", "id") for t in range(tables - 1))
    return PromptSection(catalog, ColumnPartition(target, catalog.column_set() - target))


@pytest.mark.parametrize("seed", [0, 7, 2**32])
@pytest.mark.parametrize("fraction", [0.6, 0.2, 0.02])
def test_truncate_target_equals_first_fit_at_wide_sizes(seed, fraction):
    section = _wide_section()
    assert len(section.removables) >= 600
    catalog, variant = section.catalog, SchemaVariant.C_VD

    def render(keep):
        return "### rule\n" + render_schema(catalog, variant, keep) + "SELECT"

    limit = int(count_tokens(render(None)) * fraction)
    outcome = truncate_target(section, target_scaffold(section, render), limit, seed,
                              variant=variant)
    assert outcome == first_fit_reference(catalog, section.partition, render, limit, seed)
    assert outcome[1].total_removed > (len(section.removables) - 256 if fraction < 0.5 else 0)


def test_truncate_examples_equals_rerendering_at_wide_sizes():
    sections = [_wide_section(), _wide_section(3, 200), _wide_section(2, 300)]
    plan = plan_example_truncation([0.6, 0.3])
    render = _render_sections(sections, SchemaVariant.C_VD)
    limit = int(count_tokens(render([s.keep for s in sections])) * 0.3)
    outcome = truncate_examples(sections, plan, examples_scaffold(sections, render), limit, 2024,
                                variant=SchemaVariant.C_VD)
    assert outcome == rerender_reference(
        sections, plan, render, limit, 2024, variant=SchemaVariant.C_VD)
    assert min(len(removed) for removed in outcome[1].removed_columns) > 0


def test_removal_records_hold_the_sections_own_keys():
    # A record holds the section's own removable tuples, not copies: fewshot3
    # records ~81k removals a pass, and every copy would stay alive with it.
    sections = _example_sections(3, columns=30)
    render = _render_sections(sections)
    limit = int(count_tokens(render([s.keep for s in sections])) * 0.6)
    _, record = truncate_examples(sections, plan_example_truncation([0.9, 0.5, 0.25]),
                                  examples_scaffold(sections, render), limit, seed=5, **ENGINE)
    assert record.total_removed > 0
    for section, removed in zip(sections, record.removed_columns):
        own = {id(key) for key in section.removables}
        assert all(id(key) in own for key in removed)


def _fresh(section):
    """A section built anew from a copy of `section`'s partition."""
    partition = section.partition
    return PromptSection(section.catalog, ColumnPartition(partition.target, partition.non_target))


def test_shared_sections_are_left_as_built():
    sections = _example_sections(3, columns=30)
    variant = SchemaVariant.C_A
    render = _render_sections(sections, variant)
    limit = int(count_tokens(render([s.keep for s in sections])) * 0.6)
    plan = plan_example_truncation([0.9, 0.5, 0.25])
    template = list(range(len(sections)))
    first = fit_prompt("few_shot", template, sections, limit, 7, variant=variant, plan=plan)
    second = fit_prompt("few_shot", template, sections, limit, 7, variant=variant, plan=plan)
    assert first.truncation.total_removed > 0
    assert first == second
    for section in sections:
        fresh = _fresh(section)
        assert section.keep == fresh.keep == full_keep(section.catalog)
        assert section.removables == fresh.removables
        assert section.size(variant) == fresh.size(variant)


@settings(max_examples=200, deadline=None)
@given(st.lists(_sections(), min_size=1, max_size=4), st.data(),
       st.sampled_from(list(SchemaVariant)), st.sampled_from(list(SchemaVariant)),
       st.floats(0, 1), st.integers(0, 2**32), st.integers(0, 2**32))
def test_truncate_examples_over_reused_sections_equals_fresh_ones(
        sections, data, warm_variant, variant, fraction, warm_seed, seed):
    """Sections that earlier prompts already truncated, in any variant and
    with any seed, truncate as freshly built ones do."""
    plan = plan_example_truncation(data.draw(st.lists(
        st.sampled_from([1e-6, 0.05, 0.3, 0.5, 0.9, 1.0]),
        min_size=len(sections) - 1, max_size=len(sections) - 1)))
    for used_variant, used_seed in ((warm_variant, warm_seed), (variant, seed)):
        render = _render_sections(sections, used_variant)
        limit = int(count_tokens(render([s.keep for s in sections])) * fraction)
        reused = _outcome(truncate_examples, sections, plan, examples_scaffold(sections, render),
                          limit, used_seed, variant=used_variant)
    fresh = [_fresh(section) for section in sections]
    assert reused == _outcome(
        truncate_examples, fresh, plan,
        examples_scaffold(fresh, _render_sections(fresh, variant)), limit, seed, variant=variant)


# Any characters but surrogates, whitespace and punctuation included.
_ANY_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_NAMES = st.lists(_ANY_TEXT.filter(bool), min_size=1, max_size=4, unique=True)


@st.composite
def _wild_sections(draw):
    """A catalog of arbitrary names, descriptions and values with a random
    partition, and a question over it."""
    tables = []
    for table in draw(_NAMES):
        tables.append(TableSpec(table, tuple(
            ColumnSpec(column, draw(st.sampled_from(TYPE_NAMES)), draw(st.none() | _ANY_TEXT),
                       draw(st.none() | st.lists(_ANY_TEXT, min_size=1, max_size=3).map(tuple)),
                       draw(st.booleans()))
            for column in draw(_NAMES))))
    ends = st.sampled_from([(t.name, c.name) for t in tables for c in t.columns])
    fks = tuple(ForeignKey(a, b, c, d)
                for (a, b), (c, d) in draw(st.lists(st.tuples(ends, ends), max_size=3)))
    catalog = DatabaseCatalog("db", tuple(tables), fks)
    columns = sorted(catalog.column_set())
    non_target = frozenset(column for column in columns if draw(st.booleans()))
    instance = TaskInstance(
        draw(st.integers(0, 99)), draw(_ANY_TEXT.filter(str.strip)), draw(_ANY_TEXT),
        draw(_ANY_TEXT.filter(str.strip)), "db")
    return PromptSection(catalog, ColumnPartition(frozenset(columns) - non_target, non_target)), \
        instance


def _open_path(sections, variant, limit, seed):
    (section, instance), = sections[:1]
    bundle = fit_prompt("zero_shot", open_template(instance, section.catalog, variant),
                        [section], limit, seed, variant=variant)
    return bundle.token_count, bundle.text


def _few_shot_path(sections, variant, limit, seed):
    (target, instance), examples = sections[0], sections[1:]
    plan = plan_example_truncation([0.3 + 0.2 * i for i in range(len(examples))])
    bundle = fit_prompt(
        "few_shot", few_shot_template(instance, [example for _, example in examples], variant),
        [section for section, _ in sections], limit, seed, variant=variant, plan=plan)
    return bundle.token_count, bundle.text


def _cot_step_path(sections, variant, limit, seed):
    (section, instance), = sections[:1]
    bundle = cot._build_step_prompt(
        instance, 1 + seed % 2, "SELECT", TokenBudget(limit + 1, 1), seed, section)
    return bundle.token_count, bundle.text


def _sft_path(sections, variant, limit, seed):
    (section, instance), = sections[:1]
    pair, record = build_sft_pair(instance, section.catalog, variant, TokenBudget(limit, 1),
                                  seed=seed)
    return record.tokens_after, pair.prompt + pair.completion


@pytest.mark.parametrize("build", [_open_path, _few_shot_path, _cot_step_path, _sft_path],
                         ids=["open", "few-shot", "cot-step", "sft"])
@settings(max_examples=100, deadline=None)
@given(sections=st.lists(_wild_sections(), min_size=1, max_size=4),
       variant=st.sampled_from(list(SchemaVariant)), fraction=st.floats(0.2, 1.0),
       seed=st.integers(0, 2**32))
def test_the_accounted_size_is_the_count_of_each_real_render(build, sections, variant,
                                                               fraction, seed):
    """Under count_tokens the engine counts no full render; what it accounts
    is what the final text counts, whatever the names, values and question."""
    try:
        full, text = build(sections, variant, 10**9, seed)
        assert full == count_tokens(text)
        limit = max(2, int(full * fraction))
        accounted, text = build(sections, variant, limit, seed)
    except (UnsatisfiableBudget, UnterminatedString, UnterminatedComment):
        return  # no fit, or an SFT gold query the partition cannot read
    assert accounted == count_tokens(text) <= limit


def _kept(section, removed):
    """`section`'s keep without the columns a record removed from it."""
    keep = {table: set(columns) for table, columns in section.keep.items()}
    for table, column in removed:
        keep[table].discard(column)
    return keep


def _rendered_by_render_schema(template, catalogs, keeps, variant):
    """render_template's reference: each slot is the block render_schema
    renders, its end stripped, and a block that shows no table is no line."""
    lines = []
    for line in template:
        if isinstance(line, str):
            lines.append(line)
            continue
        block = render_schema(catalogs[line], variant, keeps[line]).rstrip("\n")
        if block:
            lines.append(block)
    return "\n".join(lines)


# A foreign key whose referenced column's name ends in a newline: joined
# as is, the schema block would keep it.
_NEWLINE_NAMED = DatabaseCatalog("db", (TableSpec("t", (
    ColumnSpec("a", "int", None, None, True), ColumnSpec("b\n", "text", "note"),
    ColumnSpec("c", "text"))),), (ForeignKey("t", "a", "t", "b\n"),))


@settings(max_examples=100, deadline=None)
@given(sections=st.lists(_wild_sections(), min_size=1, max_size=4),
       variant=st.sampled_from(list(SchemaVariant)), fraction=st.floats(0.2, 1.0),
       seed=st.integers(0, 2**32))
@example(sections=[(PromptSection(_NEWLINE_NAMED, ColumnPartition(
             frozenset({("t", "a"), ("t", "b\n")}), frozenset({("t", "c")}))),
                    TaskInstance(0, "q", "", "SELECT a FROM t", "db"))] * 2,
         variant=SchemaVariant.C_N, fraction=1.0, seed=0)
def test_a_fit_is_the_public_builders_text_at_its_keeps(sections, variant, fraction, seed):
    """fit_prompt's one render equals open_prompt_text and few_shot_text
    under the keeps its record implies, and a render through render_schema."""
    (target, instance), examples = sections[0], sections[1:]
    fits = [("zero_shot", open_template(instance, target.catalog, variant), [target], None),
            ("few_shot", few_shot_template(instance, [example for _, example in examples],
                                           variant),
             [section for section, _ in sections],
             plan_example_truncation([0.3 + 0.2 * i for i in range(len(examples))]))]
    for role, template, fitted, plan in fits:
        catalogs = [section.catalog for section in fitted]

        def builders_text(keeps):
            if plan is None:
                return open_prompt_text(instance, target.catalog, variant, keeps[0])
            return few_shot_text(instance, target.catalog, [
                FewShotBlock(example, section.catalog, keep)
                for (section, example), keep in zip(examples, keeps[1:])], variant, keeps[0])

        full = count_tokens(builders_text([section.keep for section in fitted]))
        try:
            bundle = fit_prompt(role, template, fitted, int(full * fraction), seed,
                                variant=variant, plan=plan)
        except UnsatisfiableBudget:
            continue
        keeps = [_kept(section, removed)
                 for section, removed in zip(fitted, bundle.truncation.removed_columns)]
        assert bundle.text == builders_text(keeps) == \
            _rendered_by_render_schema(template, catalogs, keeps, variant)
        assert bundle.token_count == count_tokens(bundle.text)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINE, max_size=4).map("\n".join))
def test_the_cached_line_count_is_count_tokens(line):
    assert prompts._line_tokens(line) == count_tokens(line)
    assert prompts._line_tokens(line) == count_tokens(line)  # now a hit


def test_the_line_cache_is_bounded():
    assert prompts._line_tokens.cache_info().maxsize == prompts.LINE_CACHE_SIZE
    assert 0 < prompts.LINE_CACHE_SIZE <= 65_536


def test_derive_seed_stable():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
