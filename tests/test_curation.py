from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hash_embedding
from sqlbench.bench import TaskInstance
from sqlbench.curation import (
    DimensionMismatch,
    ExamplePool,
    PoolCandidate,
    SimilarityTriple,
    ZeroVector,
    build_pool,
    cosine,
    curate_top_k,
    score_candidates,
    select_top_k,
)
from sqlbench.schema import ColumnSpec, DatabaseCatalog, SchemaVariant, TableSpec, render_schema


def cosine_oracle(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


def test_cosine_identical_vectors():
    assert cosine([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)


def test_cosine_orthogonal_unit_vectors():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)


def test_cosine_hand_arithmetic_case():
    # 32 / (sqrt(14) * sqrt(77)) computed by hand
    assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(0.9746, abs=1e-4)
    assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(cosine_oracle([1, 2, 3], [4, 5, 6]))


def test_cosine_symmetry_and_range():
    rng = random.Random(3)
    for _ in range(50):
        a = [rng.uniform(-1, 1) for _ in range(6)]
        b = [rng.uniform(-1, 1) for _ in range(6)]
        assert cosine(a, b) == pytest.approx(cosine(b, a))
        assert -1.0 <= cosine(a, b) <= 1.0


def test_cosine_errors():
    with pytest.raises(DimensionMismatch):
        cosine([1, 2], [1, 2, 3])
    with pytest.raises(ZeroVector):
        cosine([0.0, 0.0], [1.0, 2.0])


def test_triple_average_is_exact_mean():
    triple = SimilarityTriple(0, 0.9, 0.6, 0.3)
    assert triple.gamma_a == pytest.approx(0.6, abs=1e-15)
    assert triple.gamma_a == (0.9 + 0.6 + 0.3) / 3


def _tiny_catalog(db_id, column="x"):
    return DatabaseCatalog(db_id, (TableSpec("t", (ColumnSpec(column, "int"),)),))


def _candidate(i, db_id, question, sql):
    return TaskInstance(i, question, "", sql, db_id)


def _dict_embedder(mapping, dim=8):
    def embed(texts):
        return [mapping.get(t, hash_embedding(t, dim)) for t in texts]
    return embed


def test_identical_candidate_scores_one():
    target_catalog = _tiny_catalog("target_db")
    cand_catalog = _tiny_catalog("cand_db")
    target = _candidate(0, "target_db", "How many?", "")
    cand = _candidate(1, "cand_db", "How many?", "SELECT COUNT(*) FROM t")
    # make everything textually identical so all three cosines are 1
    from sqlbench.schema import render_schema

    target_texts = {
        target.question: hash_embedding(cand.question),
        render_schema(target_catalog, SchemaVariant.C_N):
            hash_embedding(render_schema(cand_catalog, SchemaVariant.C_N)),
        "SELECT COUNT(*) FROM t": hash_embedding(cand.gold_sql),
    }
    pool = build_pool([(cand, cand_catalog)], SchemaVariant.C_N, _dict_embedder(target_texts))
    triples = score_candidates(target, target_catalog, "SELECT COUNT(*) FROM t", pool)
    assert len(triples) == 1
    assert triples[0].gamma_a == pytest.approx(1.0)


def test_cross_domain_filter_drops_same_database():
    catalog = _tiny_catalog("shared_db")
    target = _candidate(0, "shared_db", "q?", "")
    same = _candidate(1, "shared_db", "same db", "SELECT 1")
    other = _candidate(2, "other_db", "other db", "SELECT 2")
    pool = build_pool(
        [(same, catalog), (other, _tiny_catalog("other_db"))],
        SchemaVariant.C_N, _dict_embedder({}))
    triples = score_candidates(target, catalog, "SELECT 3", pool)
    assert [t.candidate_index for t in triples] == [1]


def brute_force_select(triples, k):
    """Independent full-sort oracle with the frozen tie rule."""
    ranked = sorted(triples, key=lambda t: (-t.gamma_a, t.candidate_index))
    chosen = ranked[:k]
    return sorted(chosen, key=lambda t: (t.gamma_a, t.candidate_index))


def test_select_top_k_zero():
    assert select_top_k([SimilarityTriple(0, 1, 1, 1)], 0) == ()


def test_select_top_k_orders_ascending():
    triples = [
        SimilarityTriple(0, 0.2, 0.2, 0.2),
        SimilarityTriple(1, 0.9, 0.9, 0.9),
        SimilarityTriple(2, 0.5, 0.5, 0.5),
    ]
    curated = select_top_k(triples, 2)
    assert [t.candidate_index for t in curated] == [2, 1]
    assert tuple(t.gamma_a for t in curated) == pytest.approx((0.5, 0.9))


def test_select_top_k_tie_breaks_on_lower_index():
    triples = [
        SimilarityTriple(0, 0.5, 0.5, 0.5),
        SimilarityTriple(1, 0.5, 0.5, 0.5),
        SimilarityTriple(2, 0.5, 0.5, 0.5),
    ]
    curated = select_top_k(triples, 2)
    assert sorted(t.candidate_index for t in curated) == [0, 1]


def test_select_top_k_larger_than_pool():
    triples = [SimilarityTriple(0, 0.4, 0.4, 0.4)]
    curated = select_top_k(triples, 10)
    assert len(curated) == 1


def test_select_matches_brute_force_on_random_pools():
    rng = random.Random(11)
    for _ in range(100):
        size = rng.randrange(0, 60)
        triples = [
            SimilarityTriple(i, rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            for i in range(size)
        ]
        k = rng.randrange(0, 8)
        expected = brute_force_select(triples, k)
        actual = select_top_k(triples, k)
        assert [t.candidate_index for t in actual] == [t.candidate_index for t in expected]


def test_select_matches_brute_force_on_ten_thousand_triples():
    rng = random.Random(17)
    triples = [
        SimilarityTriple(i, rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        for i in range(10_000)
    ]
    for k in (0, 1, 5, 100, 10_000):
        expected = brute_force_select(triples, k)
        actual = select_top_k(triples, k)
        assert [t.candidate_index for t in actual] == [t.candidate_index for t in expected]


def test_scaling_embeddings_keeps_selection():
    rng = random.Random(13)
    questions = [f"question {i}" for i in range(20)]
    vectors = {q: [rng.uniform(-1, 1) for _ in range(8)] for q in questions}

    def triples_for(scale):
        out = []
        target_vec = vectors["question 0"]
        for i, q in enumerate(questions[1:], start=1):
            vec = [x * scale for x in vectors[q]]
            value = cosine(target_vec, vec)
            out.append(SimilarityTriple(i, value, value, value))
        return out

    base = select_top_k(triples_for(1.0), 5)
    scaled = select_top_k(triples_for(37.5), 5)
    assert [t.candidate_index for t in base] == [t.candidate_index for t in scaled]


def test_pool_rejects_ragged_dimensions():
    inst = _candidate(0, "db", "q?", "SELECT 1")
    cat = _tiny_catalog("db")
    with pytest.raises(DimensionMismatch):
        ExamplePool((PoolCandidate(inst, cat),), [(1.0, 2.0), (1.0, 2.0), (1.0, 2.0, 3.0)],
                    SchemaVariant.C_VDT, _dict_embedder({}))


def _texts(candidate, pool):
    """A pool candidate's question, rendered schema and gold SQL."""
    instance = candidate.instance
    return instance.question, render_schema(candidate.catalog, pool.variant), instance.gold_sql


def _pooled(pool, index):
    """The question, schema and SQL vectors the pool holds for candidate
    `index`."""
    questions, schemas, sqls = pool._matrices
    return questions[index], schemas[pool._schema_rows[index]], sqls[index]


def _embedded(candidate, pool, vectors):
    """The question, schema and SQL vectors embedded for a pool candidate,
    from the embedding function's text -> vector table."""
    return tuple(vectors[text] for text in _texts(candidate, pool))


@pytest.mark.parametrize("extra", [-3, 3], ids=["short", "long"])
def test_a_pool_takes_two_vectors_per_candidate_and_one_per_schema(extra):
    # An embedding function that returns too few or too many vectors names
    # both counts, instead of failing on a row index or dropping vectors.
    candidates = [(_candidate(i, f"db_{i}", f"question {i}?", f"SELECT {i}"),
                   _tiny_catalog(f"db_{i}", column=f"c{i % 2}")) for i in range(4)]

    def embed(texts):
        return [hash_embedding(str(i), 8) for i in range(len(texts) + extra)]

    with pytest.raises(ValueError) as raised:
        build_pool(candidates, SchemaVariant.C_N, embed)
    assert str(raised.value) == (
        f"4 pool candidates over 2 schemas need 10 vectors, got {10 + extra}")


def test_a_pool_keeps_each_distinct_schema_once():
    # Six candidates over two rendered schemas: one embedding call of the
    # questions, the SQLs and the two schema texts, and a schema matrix of
    # two rows that each candidate reaches through its index.
    sent = []

    def embed(texts):
        sent.append(list(texts))
        return np.array([hash_embedding(text, 8) for text in texts])

    candidates = [(_candidate(i, f"db_{i}", f"question {i}?", f"SELECT {i}"),
                   _tiny_catalog(f"db_{i}", column=f"c{i % 2}")) for i in range(6)]
    pool = build_pool(candidates, SchemaVariant.C_N, embed)
    schemas = [render_schema(_tiny_catalog("db", column=f"c{i}"), SchemaVariant.C_N)
               for i in range(2)]
    assert sent == [[f"question {i}?" for i in range(6)] + [f"SELECT {i}" for i in range(6)]
                    + schemas]
    questions, schema_matrix, sqls = pool._matrices
    assert (questions.shape, schema_matrix.shape, sqls.shape) == ((6, 8), (2, 8), (6, 8))
    assert pool._schema_rows.tolist() == [0, 1, 0, 1, 0, 1]
    for i, candidate in enumerate(pool.candidates):
        assert [vector.tolist() for vector in _pooled(pool, i)] == [
            hash_embedding(text, 8) for text in _texts(candidate, pool)]


def test_score_candidates_matches_brute_force_recompute():
    rng = np.random.default_rng(7)
    n = 50
    dim = 16
    catalogs = [_tiny_catalog(f"db_{i}") for i in range(n)]
    instances = [_candidate(i, f"db_{i}", f"question {i}?", f"SELECT {i}") for i in range(n)]
    vec_table = {}

    def embed(texts):
        out = []
        for text in texts:
            if text not in vec_table:
                vec_table[text] = rng.uniform(-1, 1, dim).tolist()
            out.append(vec_table[text])
        return out

    pool = build_pool(list(zip(instances, catalogs)), SchemaVariant.C_N, embed)
    target = _candidate(999, "db_target", "the target question?", "")
    target_catalog = _tiny_catalog("db_target")
    triples = score_candidates(target, target_catalog, "SELECT 42", pool)

    from sqlbench.schema import render_schema

    tq = vec_table[target.question]
    td = vec_table[render_schema(target_catalog, SchemaVariant.C_N)]
    ts = vec_table["SELECT 42"]
    assert len(triples) == n
    for triple in triples:
        cand = pool.candidates[triple.candidate_index]
        cq, cd, cs = _embedded(cand, pool, vec_table)
        assert triple.gamma_q == pytest.approx(cosine_oracle(tq, cq), abs=1e-12)
        assert triple.gamma_d == pytest.approx(cosine_oracle(td, cd), abs=1e-12)
        assert triple.gamma_s == pytest.approx(cosine_oracle(ts, cs), abs=1e-12)
        expected_avg = (triple.gamma_q + triple.gamma_d + triple.gamma_s) / 3
        assert triple.gamma_a == expected_avg


def _random_pool(rng, dim, n, target_db=None):
    vectors = {}

    def embed(texts):
        return [vectors.setdefault(t, tuple(rng.uniform(-1, 1, dim).tolist())) for t in texts]

    candidates = [(_candidate(i, target_db if i % 5 == 0 else f"db_{i}", f"question {i}?",
                              f"SELECT {i}"), _tiny_catalog(f"db_{i}")) for i in range(n)]
    return build_pool(candidates, SchemaVariant.C_N, embed), vectors


@pytest.mark.parametrize("dim", [7, 384, 385])
def test_score_candidates_equals_cosine_exactly(dim):
    rng = np.random.default_rng(dim)
    pool, vectors = _random_pool(rng, dim, 40, target_db="db_target")
    target = _candidate(999, "db_target", "the target question?", "")
    target_catalog = _tiny_catalog("db_target")
    triples = score_candidates(target, target_catalog, "SELECT 42", pool)

    tq = vectors[target.question]
    td = vectors[render_schema(target_catalog, SchemaVariant.C_N)]
    ts = vectors["SELECT 42"]
    assert len(triples) == 32  # every fifth candidate shares the target's database
    for triple in triples:
        cq, cd, cs = _embedded(pool.candidates[triple.candidate_index], pool, vectors)
        assert triple.gamma_q == cosine(tq, cq)
        assert triple.gamma_d == cosine(td, cd)
        assert triple.gamma_s == cosine(ts, cs)


def test_scoring_errors_fire_for_scored_candidates_only():
    zero, unit = (0.0, 0.0, 0.0), (1.0, 0.0, 0.0)
    target = _candidate(0, "db_target", "q?", "")
    target_catalog = _tiny_catalog("db_target")

    def pool_of(*candidates, target_vec=unit):
        """A pool of (index, database id, vector) candidates, each with a
        schema of its own, whose three vectors are that vector, and whose
        embedding function gives every target text `target_vec`."""
        return ExamplePool(
            [PoolCandidate(_candidate(index, db_id, f"q{index}?", f"SELECT {index}"),
                           _tiny_catalog(db_id, column=f"c{index}"))
             for index, db_id, _ in candidates],
            [vec for *_, vec in candidates] * 3, SchemaVariant.C_VDT,
            lambda texts: [target_vec for _ in texts])

    def score(pool):
        return score_candidates(target, target_catalog, "SELECT 3", pool)

    # A zero vector is legal in the pool; it fails only once it is scored.
    mixed = ((1, "db_target", zero), (2, "db_other", unit))
    assert [t.candidate_index for t in score(pool_of(*mixed))] == [1]
    with pytest.raises(ZeroVector):
        score(pool_of((1, "db_other", zero), (2, "db_other", unit)))
    with pytest.raises(DimensionMismatch):
        score(pool_of(*mixed, target_vec=(1.0, 0.0)))


def _outcome(fn, *args):
    """A curated set as (index, gamma bits) rows, or the error it raised."""
    try:
        curated = fn(*args)
    except (ZeroVector, DimensionMismatch) as exc:
        return type(exc), str(exc)
    return [(t.candidate_index, t.gamma_q.hex(), t.gamma_d.hex(), t.gamma_s.hex(),
             t.gamma_a.hex()) for t in curated]


_ENTRY = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0, 3.0, 1e-160, math.inf]) | st.floats(
    -10, 10, allow_nan=False, allow_infinity=False)


@st.composite
def _screening_cases(draw):
    """A pool drawn from a small palette of vectors, so duplicates and exact
    ties are common; some entries are moved one ulp (from 0.0 that is a
    subnormal), some candidates share the target's database, and zero
    vectors occur in and out of the scored set. Infinite and tiny entries
    make cosines the screen cannot bound (NaN, which the exact cosine
    clamps to 1.0, or norms whose product underflows). Candidates render
    one of three schemas, one of them the target's, and the pool holds one
    vector per distinct schema, and its embedding function gives the
    target's three texts their drawn vectors."""
    dim = draw(st.integers(1, 5))
    palette = draw(st.lists(st.lists(_ENTRY, min_size=dim, max_size=dim),
                            min_size=1, max_size=5))

    def vector():
        values = list(draw(st.sampled_from(palette)))
        if draw(st.booleans()):
            j = draw(st.integers(0, dim - 1))
            values[j] = math.nextafter(values[j], draw(st.sampled_from([-math.inf, math.inf])))
        if draw(st.integers(0, 9)) == 0:
            values = [0.0] * dim
        return tuple(values)

    candidates, questions, sqls, schemas = [], [], [], {}
    for i in range(draw(st.integers(0, 12))):
        db_id = "db_target" if draw(st.integers(0, 3)) == 0 else f"db_{i}"
        column = draw(st.sampled_from(["x", "y", "z"]))
        candidates.append(PoolCandidate(
            _candidate(i, db_id, f"q{i}?", f"SELECT {i}"), _tiny_catalog(db_id, column)))
        questions.append(vector())
        sqls.append(vector())
        if column not in schemas:
            schemas[column] = vector()
    target_texts = ("target?", render_schema(_tiny_catalog("db_target"), SchemaVariant.C_VDT),
                    "SELECT 1")
    by_text = dict(zip(target_texts, [vector(), vector(), vector()]))
    k = draw(st.integers(0, len(candidates) + 2))
    with np.errstate(all="ignore"):
        return ExamplePool(candidates, questions + sqls + list(schemas.values()),
                           SchemaVariant.C_VDT, lambda texts: [by_text[t] for t in texts]), k


@settings(max_examples=400, deadline=None)
@given(_screening_cases())
def test_screened_top_k_equals_full_scoring(case):
    pool, k = case
    target = _candidate(99, "db_target", "target?", "")
    args = (target, _tiny_catalog("db_target"), "SELECT 1", pool)
    with np.errstate(all="ignore"):
        assert _outcome(curate_top_k, *args, k) == _outcome(
            lambda: select_top_k(score_candidates(*args), k))


@pytest.mark.parametrize("dim", [8, 384])
def test_screened_top_k_on_random_pools_with_near_ties(dim):
    rng = np.random.default_rng(dim)
    pool, _ = _random_pool(rng, dim, 200, target_db="db_target")
    target = _candidate(999, "db_target", "the target question?", "")
    target_catalog = _tiny_catalog("db_target")
    best = max(score_candidates(target, target_catalog, "SELECT 42", pool),
               key=lambda t: t.gamma_a)
    # Copies of the best candidate, every other one's question moved one
    # ulp, so the top places hold exact and near ties across every small k.
    # The copies share the best candidate's catalog, and so its schema row.
    questions, schemas, sqls = pool._matrices
    question, sql = questions[best.candidate_index], sqls[best.candidate_index]
    twins = tuple(PoolCandidate(_candidate(200 + i, f"db_twin{i}", "twin?", "SELECT 1"),
                                pool.candidates[best.candidate_index].catalog) for i in range(6))
    pool = ExamplePool(pool.candidates + twins, np.concatenate(
        [questions] + [np.nextafter(question, 2.0)[None] if i % 2 else question[None]
                       for i in range(6)] + [sqls] + [sql[None]] * 6 + [schemas]),
        pool.variant, pool.embed)
    args = (target, target_catalog, "SELECT 42", pool)
    for k in (1, 2, 3, 4, 5, 6, 7, 8, 50, 166, 167, 300):
        assert _outcome(curate_top_k, *args, k) == _outcome(
            lambda: select_top_k(score_candidates(*args), k))


def test_each_distinct_schema_is_embedded_once_per_pool():
    sent = []

    def embed(texts):
        sent.extend(texts)
        return [hash_embedding(text, 8) for text in texts]

    candidates = [(_candidate(i, f"db_{i % 2}", f"question {i}?", f"SELECT {i}"),
                   _tiny_catalog(f"db_{i % 2}", column=f"c{i % 2}")) for i in range(6)]
    pool = build_pool(candidates, SchemaVariant.C_VDT, embed)
    pooled = {render_schema(catalog, SchemaVariant.C_VDT) for _, catalog in candidates}
    targets = [(_candidate(90 + i, db_id, f"target {i}?", ""), _tiny_catalog(db_id, column))
               for i, (db_id, column) in enumerate([("db_new", "y"), ("db_new", "y"),
                                                    ("db_0", "c0"), ("db_1", "c1")])]
    sent.clear()
    curated = [curate_top_k(target, catalog, "SELECT 1", pool, 2)
               for target, catalog in targets]
    new_schema = render_schema(targets[0][1], SchemaVariant.C_VDT)
    assert sent.count(new_schema) == 1 and not pooled & set(sent)

    # Every target scored against a pool that has seen no schema: the same bits.
    fresh = build_pool(candidates, SchemaVariant.C_VDT, embed)
    for (target, catalog), kept in zip(targets, curated):
        fresh._schema_vectors.clear()
        assert curate_top_k(target, catalog, "SELECT 1", fresh, 2) == kept
