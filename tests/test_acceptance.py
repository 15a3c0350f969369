"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything runs offline against constructed fixtures, seeded randomness and
replay stores; no network and no model weights.
"""

from __future__ import annotations

import json
import math
import random
import re
import sqlite3
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    MINI_QUESTIONS,
    MINI_RESPONSES,
    ScriptedTransport,
    completion_by_question,
    question_of,
    write_benchmark,
    make_cinema_db,
)
from sqlbench.bench import TaskInstance, load_split
from sqlbench.budget import (
    PromptSection,
    TokenBudget,
    count_tokens,
    derive_seed,
    partition_columns,
    plan_example_truncation,
    truncate_examples,
    truncate_target,
)
from sqlbench.cli import RunConfig, build_client, cmd_prep_sft, cmd_run
from sqlbench.cot import MODE_COT_SK_FULL, run_cot
from sqlbench.curation import PoolCandidate, ExamplePool, score_candidates, select_top_k
from sqlbench.evaluate import EvalOutcome, aggregate, execute_and_compare
from sqlbench.gateway import LlmClient, LlmEndpoint
from sqlbench.prompts import (
    FewShotBlock,
    build_open_prompt,
    build_sft_pair,
    few_shot_text,
    open_prompt_token_fn,
)
from sqlbench.schema import (
    ColumnSpec,
    DatabaseCatalog,
    SchemaVariant,
    TableSpec,
    column_line_costs,
    render_schema,
)
from sqlbench.skeleton import extract_skeleton, tokenize
from sqlbench.taxonomy import classify
from test_taxonomy import CASES as TAXONOMY_CASES

GOLDEN_DIR = Path(__file__).parent / "golden" / "schema"


class Criterion:
    def __init__(self, number: int, title: str, budget_s: float):
        self.number = number
        self.title = title
        self.budget_s = budget_s
        self.started = time.monotonic()

    def done(self) -> None:
        elapsed = time.monotonic() - self.started
        assert elapsed < self.budget_s, (
            f"criterion {self.number} took {elapsed:.2f}s (budget {self.budget_s}s)")
        print(f"PASS criterion {self.number}: {self.title} ({elapsed:.2f}s)")


# --- 1. schema rendering golden files ---------------------------------------

def test_criterion_1_schema_golden_files(movie_catalog):
    crit = Criterion(1, "nine schema variants match frozen golden bytes", 1.0)
    for variant in SchemaVariant:
        expected = (GOLDEN_DIR / f"{variant.value}.txt").read_text(encoding="utf-8")
        assert render_schema(movie_catalog, variant) == expected, variant
    crit.done()


# --- 2. skeleton -------------------------------------------------------------

GOLD_QUERIES = [
    "SELECT movie_title FROM movies WHERE movie_release_year = 1945 ORDER BY movie_popularity DESC LIMIT 1",
    "SELECT COUNT(*) FROM badges WHERE Name = 'commentator'",
    "SELECT Phone FROM schools WHERE County = 'Alameda'",
    "SELECT MAX(rating_score) FROM ratings",
    "SELECT AVG(Score) FROM comments WHERE UserId = 4",
    "SELECT DISTINCT County FROM schools",
    "SELECT Name, Date FROM badges ORDER BY Date ASC",
    "SELECT T1.School FROM schools AS T1 JOIN satscores AS T2 ON T1.CDSCode = T2.cds",
    "SELECT COUNT(DISTINCT UserId) FROM comments",
    "SELECT Title FROM posts WHERE Score > 100 AND OwnerUserId = 5",
    "SELECT movie_title FROM movies WHERE movie_id IN (SELECT movie_id FROM ratings WHERE rating_score = 5)",
    "SELECT UserId FROM badges UNION SELECT UserId FROM comments",
    "SELECT UserId FROM badges INTERSECT SELECT UserId FROM comments",
    "SELECT UserId FROM badges EXCEPT SELECT UserId FROM comments",
    "SELECT County, COUNT(*) FROM schools GROUP BY County",
    "SELECT County, COUNT(*) FROM schools GROUP BY County HAVING COUNT(*) > 2",
    "SELECT CASE WHEN Score > 0 THEN 'pos' ELSE 'neg' END FROM comments",
    "SELECT CAST(NumGE1500 AS REAL) / NumTstTakr FROM satscores",
    "SELECT Name FROM badges WHERE Date BETWEEN '2014-01-01' AND '2014-12-31'",
    "SELECT School FROM schools WHERE School LIKE 'A%'",
    "SELECT Title FROM posts WHERE OwnerUserId IS NULL",
    "SELECT Title FROM posts WHERE OwnerUserId IS NOT NULL",
    "SELECT SUM(NumTstTakr) FROM satscores WHERE cds LIKE '01%'",
    "SELECT MIN(movie_release_year), MAX(movie_release_year) FROM movies",
    "SELECT T1.Name FROM badges T1 LEFT JOIN comments T2 ON T1.UserId = T2.UserId WHERE T2.Score IS NULL",
    "SELECT rating_score, COUNT(*) FROM ratings GROUP BY rating_score ORDER BY COUNT(*) DESC",
    "SELECT movie_title FROM movies WHERE NOT movie_release_year = 1945",
    "SELECT * FROM movies WHERE movie_popularity > (SELECT AVG(movie_popularity) FROM movies)",
    "SELECT EXISTS (SELECT 1 FROM ratings WHERE rating_score = 5)",
    "SELECT School FROM schools WHERE County = 'Alameda' OR County = 'Fresno'",
    "SELECT COUNT(*) FROM posts WHERE Title LIKE '%sql%' AND Score >= 10",
    "SELECT OwnerUserId FROM posts GROUP BY OwnerUserId HAVING SUM(Score) > 50",
    "SELECT movie_title FROM movies ORDER BY movie_release_year DESC, movie_title ASC LIMIT 5",
    "SELECT DISTINCT T2.Name FROM comments T1 INNER JOIN badges T2 ON T1.UserId = T2.UserId",
    "SELECT Title, Score FROM posts WHERE Score IN (1, 2, 3)",
    "SELECT COUNT(*) FROM movies WHERE movie_release_year IS NULL",
    "SELECT AVG(rating_score) FROM ratings WHERE movie_id = 1",
    "SELECT School, Phone FROM schools WHERE CDSCode = '01'",
    "SELECT T1.movie_title, T2.rating_score FROM movies T1 JOIN ratings T2 ON T1.movie_id = T2.movie_id WHERE T2.rating_score > 3",
    "SELECT Name FROM badges WHERE UserId = (SELECT UserId FROM comments ORDER BY Score DESC LIMIT 1)",
    "SELECT COUNT(*) FROM (SELECT UserId FROM comments GROUP BY UserId)",
    "SELECT movie_title FROM movies WHERE movie_release_year = 1945 OR movie_release_year = 1946",
    "SELECT SUM(CASE WHEN Score > 0 THEN 1 ELSE 0 END) FROM comments",
    "SELECT NumGE1500 * 100.0 / NumTstTakr FROM satscores WHERE NumTstTakr > 0",
    "SELECT School FROM schools ORDER BY School LIMIT 10",
    "SELECT COUNT(*), AVG(Score), MIN(Score), MAX(Score) FROM comments",
    "SELECT UserId FROM comments WHERE Text LIKE '%thanks%'",
    "SELECT b.Name FROM badges b WHERE b.Date > '2014-06-01' ORDER BY b.Date",
    "SELECT movie_id FROM ratings GROUP BY movie_id HAVING AVG(rating_score) >= 4",
    "SELECT DISTINCT rating_label FROM ratings WHERE rating_label IS NOT NULL",
]


def _keyword_multiset(sql):
    counts = {}
    for token in tokenize(sql):
        if token.kind == "keyword":
            counts[token.text.upper()] = counts.get(token.text.upper(), 0) + 1
    return counts


def test_criterion_2_skeleton():
    crit = Criterion(2, "worked skeleton exact; 50 queries idempotent, keywords kept", 1.0)
    worked = extract_skeleton(
        "SELECT movie_title FROM movies WHERE movie_release_year = 1945 "
        "ORDER BY movie_popularity DESC LIMIT 1")
    assert worked.text == "SELECT _ FROM _ WHERE _ ORDER BY _ DESC LIMIT _"

    assert len(GOLD_QUERIES) == 50
    for sql in GOLD_QUERIES:
        skeleton = extract_skeleton(sql)
        assert extract_skeleton(skeleton.text).text == skeleton.text, sql
        assert _keyword_multiset(sql) == _keyword_multiset(skeleton.text), sql
        parts = skeleton.text.split(" ")
        assert all(p == "_" or p.isupper() for p in parts)
        for earlier, later in zip(parts, parts[1:]):
            assert not (earlier == "_" and later == "_"), sql
    crit.done()


# --- 3. curation oracle ------------------------------------------------------

def test_criterion_3_curation_oracle():
    crit = Criterion(3, "1,000 random pools match the brute-force selection oracle", 10.0)
    rng = np.random.default_rng(2024)
    py_rng = random.Random(2024)
    catalog_cache = {}

    def catalog_for(db_id):
        if db_id not in catalog_cache:
            catalog_cache[db_id] = DatabaseCatalog(
                db_id, (TableSpec("t", (ColumnSpec("x", "int"),)),))
        return catalog_cache[db_id]

    def embed_from(vectors):
        queue = list(vectors)

        def embed(texts):
            return [queue.pop(0) for _ in texts]
        return embed

    for trial in range(1000):
        size = py_rng.randint(1, 200) if trial % 20 == 0 else py_rng.randint(1, 24)
        k = py_rng.randint(0, 6)
        dim = 16
        matrix = rng.uniform(-1.0, 1.0, size=(size + 1, 3, dim))
        matrix[np.abs(matrix).sum(axis=2) < 1e-9] += 0.5  # no zero vectors

        candidates = tuple(
            PoolCandidate(
                TaskInstance(i, f"q {i}?", "", f"SELECT {i}", f"db_{i}"),
                catalog_for(f"db_{i}"),
                tuple(matrix[i, 0]), tuple(matrix[i, 1]), tuple(matrix[i, 2]))
            for i in range(size)
        )
        pool = ExamplePool(candidates, SchemaVariant.C_N)
        target = TaskInstance(10_000, "target?", "", "", "db_target")
        target_vectors = [matrix[size, 0], matrix[size, 1], matrix[size, 2]]

        triples = score_candidates(
            target, catalog_for("db_target"), "SELECT 0", pool,
            embed_from(target_vectors))
        assert len(triples) == size

        # independent recomputation of the averages
        for triple in triples:
            direct = (triple.gamma_q + triple.gamma_d + triple.gamma_s) / 3
            assert abs(triple.gamma_a - direct) <= 1e-12

        curated = select_top_k(triples, k, pool)
        ranked = sorted(triples, key=lambda t: (-t.gamma_a, t.candidate_index))
        expected = sorted(ranked[:k], key=lambda t: (t.gamma_a, t.candidate_index))
        assert [t.candidate_index for t in curated.triples] == \
            [t.candidate_index for t in expected]

        if trial % 25 == 0 and size > 1:
            # positive per-vector rescaling must not change the selection
            scales = rng.uniform(0.1, 40.0, size=size + 1)
            scaled_candidates = tuple(
                PoolCandidate(
                    c.instance, c.catalog,
                    tuple(np.asarray(c.question_vec) * scales[i]),
                    tuple(np.asarray(c.schema_vec) * scales[i]),
                    tuple(np.asarray(c.sql_vec) * scales[i]))
                for i, c in enumerate(candidates)
            )
            scaled_pool = ExamplePool(scaled_candidates, SchemaVariant.C_N)
            scaled_triples = score_candidates(
                target, catalog_for("db_target"), "SELECT 0", scaled_pool,
                embed_from([v * scales[size] for v in target_vectors]))
            scaled_curated = select_top_k(scaled_triples, k, scaled_pool)
            assert {t.candidate_index for t in scaled_curated.triples} == \
                {t.candidate_index for t in curated.triples}
    crit.done()


# --- 4. truncation plan ------------------------------------------------------

def test_criterion_4_truncation_plan():
    crit = Criterion(4, "softmax truncation rates: sum, monotonicity, limits", 5.0)
    plan = plan_example_truncation([0.5, 0.25], temperature=1.0)
    # direct softmax arithmetic over (1, 2, 4)
    weights = [math.exp(1.0), math.exp(2.0), math.exp(4.0)]
    oracle = [w / sum(weights) for w in weights]
    assert oracle == pytest.approx([0.0420, 0.1142, 0.8438], abs=1e-3)
    assert list(plan.rates) == pytest.approx(oracle, abs=1e-12)

    # similarity range of real clamped cosines; keeps exp() clear of
    # float64 underflow so strict positivity is observable
    rng = random.Random(99)
    for _ in range(1000):
        k = rng.randint(1, 10)
        gammas = [rng.uniform(0.02, 1.0) for _ in range(k)]
        plan = plan_example_truncation(gammas, temperature=rng.uniform(0.2, 10.0))
        assert abs(sum(plan.rates) - 1.0) <= 1e-9
        assert all(r > 0 for r in plan.rates)
        full = [1.0] + gammas
        for i in range(len(full)):
            for j in range(len(full)):
                if full[i] < full[j]:
                    assert plan.rates[i] > plan.rates[j]

        uniform = plan_example_truncation(gammas, temperature=1e6)
        assert all(abs(r - 1 / (k + 1)) < 1e-3 for r in uniform.rates)
    crit.done()


# --- 5. budget property ------------------------------------------------------

def _random_catalog(rng: random.Random, db_id: str, n_columns: int) -> DatabaseCatalog:
    columns = [ColumnSpec("id", "int", None, None, True)]
    for i in range(n_columns):
        description = f"attribute {i} holding miscellaneous record data" \
            if rng.random() < 0.8 else None
        values = tuple(f"v{j}" for j in range(rng.randint(1, 4))) \
            if rng.random() < 0.25 else None
        columns.append(ColumnSpec(f"field_{i:03d}", "text", description, values))
    return DatabaseCatalog(db_id, (TableSpec("records", tuple(columns)),))


def test_criterion_5_budget_property():
    crit = Criterion(5, "500 wide fixtures: every prompt within budget, "
                        "targets intact, seeds reproducible", 30.0)
    budget = TokenBudget(2048, 200)
    limit = budget.available
    assert limit == 2048 - 200
    rng = random.Random(41)
    variant = SchemaVariant.C_VDT
    breached = 0

    def scripted(prompt):
        tail = prompt.rstrip()
        if tail.endswith("Tables: (table\n         table)"):
            return "Tables: (records)"
        if tail.endswith("Columns: table: (column\n                column)"):
            return "Columns: records: (id)"
        if tail.endswith("corresponding to the question."):
            return "SELECT COUNT(*) FROM records"
        return " COUNT(*) FROM records"

    client = LlmClient(LlmEndpoint("http://fake", "m"),
                       transport=ScriptedTransport(completion_fn=scripted))

    for trial in range(500):
        seed = 1_000 + trial
        target_catalog = _random_catalog(rng, "target_db", rng.randint(110, 190))
        instance = TaskInstance(trial, "How many records are stored in total?", "",
                                "SELECT COUNT(*) FROM records", "target_db")
        partition = partition_columns(target_catalog, question=instance.question)
        prompt_tokens = open_prompt_token_fn(instance, target_catalog, variant)

        keep, record = truncate_target(target_catalog, partition, prompt_tokens, limit, seed)
        bundle = build_open_prompt(instance, target_catalog, variant,
                                   keep=keep, truncation=record)
        assert bundle.token_count <= limit
        assert not set(record.removed_columns[0]) & partition.target
        if record.total_removed:
            breached += 1
            keep_again, record_again = truncate_target(
                target_catalog, partition, prompt_tokens, limit, seed)
            assert build_open_prompt(
                instance, target_catalog, variant, keep=keep_again).text == bundle.text
            assert record_again.removed_columns == record.removed_columns

        # few-shot: 1-shot and 3-shot with example column truncation
        target_costs = column_line_costs(target_catalog, variant, count_tokens)
        for shots in (1, 3):
            blocks = []
            sections = [PromptSection(target_catalog, partition, target_costs)]
            for s in range(shots):
                ex_catalog = _random_catalog(rng, f"pool_db_{s}", rng.randint(35, 55))
                ex_instance = TaskInstance(
                    9_000 + s, f"Example question {s}?", "",
                    "SELECT id FROM records", f"pool_db_{s}")
                blocks.append((ex_instance, ex_catalog))
                sections.append(PromptSection(
                    ex_catalog,
                    partition_columns(ex_catalog, reference_sql=ex_instance.gold_sql),
                    column_line_costs(ex_catalog, variant, count_tokens)))
            similarities = sorted(rng.uniform(0.2, 0.95) for _ in range(shots))
            plan = plan_example_truncation(similarities)

            def render(keeps):
                example_blocks = [
                    FewShotBlock(inst, cat, keeps[i + 1])
                    for i, (inst, cat) in enumerate(blocks)
                ]
                return few_shot_text(
                    instance, target_catalog, example_blocks, variant, keeps[0])

            keeps, few_record = truncate_examples(sections, plan, render, limit, seed)
            text = render(keeps)
            assert count_tokens(text) <= limit
            for section, removed in zip(sections, few_record.removed_columns):
                assert not set(removed) & section.partition.target
            if few_record.total_removed:
                breached += 1
                keeps2, _ = truncate_examples(sections, plan, render, limit, seed)
                assert render(keeps2) == text

        # chain-of-thought: every step prompt individually within budget
        if trial % 10 == 0:
            trace = run_cot(instance, target_catalog, client, MODE_COT_SK_FULL,
                            budget=budget, seed=seed)
            assert len(trace.step_prompts) == 4
            for step in trace.step_prompts:
                assert step.token_count <= limit
                if step.truncation:
                    assert not set(step.truncation.removed_columns[0]) & \
                        partition_columns(target_catalog,
                                          question=f"{instance.question} ").target
            trace2 = run_cot(instance, target_catalog, client, MODE_COT_SK_FULL,
                             budget=budget, seed=seed)
            assert [b.text for b in trace.step_prompts] == \
                [b.text for b in trace2.step_prompts]

    assert breached > 150  # the sweep genuinely exercised truncation
    crit.done()


# --- 6. execution accuracy ---------------------------------------------------

def test_criterion_6_execution_accuracy(tmp_path):
    crit = Criterion(6, "20-query execution suite + per-difficulty aggregation", 5.0)
    db = tmp_path / "suite.sqlite"
    conn = sqlite3.connect(db)
    conn.executescript("""
        CREATE TABLE t (a INTEGER, b TEXT, c REAL);
        INSERT INTO t VALUES (1, 'x', 1.5), (2, 'y', 2.5), (2, 'y', 2.5), (3, NULL, NULL);
    """)
    conn.commit()
    conn.close()

    # (predicted, gold, expected_match) decided by executing both by hand
    suite = [
        ("SELECT a FROM t", "SELECT a FROM t", True),
        ("SELECT a FROM t ORDER BY a", "SELECT a FROM t ORDER BY a DESC", True),
        ("SELECT a FROM t", "SELECT DISTINCT a FROM t", True),  # set semantics
        ("SELECT 1", "SELECT 2", False),
        ("SELECT a, b FROM t", "SELECT b, a FROM t", False),  # column order matters
        ("SELECT COUNT(*) FROM t", "SELECT 4", True),
        ("SELECT COUNT(*) FROM t", "SELECT 3", False),
        ("SELECT b FROM t WHERE a = 3", "SELECT NULL", True),  # NULL equals NULL
        ("SELECT b FROM t WHERE a = 3", "SELECT 'z'", False),
        ("SELECT c FROM t WHERE a = 1", "SELECT 1.5001", False),
        ("SELECT c FROM t WHERE a = 1", "SELECT 1.49999999999", True),  # 6-decimal rounding
        ("SELECT a + 0.0 FROM t WHERE a = 2", "SELECT 2", True),  # int/float equivalence
        ("DELETE FROM t", "SELECT a FROM t", False),  # write rejected read-only
        ("UPDATE t SET a = 9", "SELECT a FROM t", False),
        ("SELEC a FROM t", "SELECT a FROM t", False),  # syntax error
        ("SELECT a FROM missing", "SELECT a FROM t", False),
        ("SELECT a FROM t WHERE b = 'x'", "SELECT 1", True),
        ("SELECT a FROM t WHERE b = 'x'", "SELECT a FROM t WHERE b = 'y'", False),
        ("SELECT MAX(a) FROM t", "SELECT 3", True),
        ("SELECT a FROM t WHERE 1 = 0", "SELECT a FROM t WHERE 2 = 1", True),  # both empty
    ]
    assert len(suite) == 20
    for predicted, gold, expected in suite:
        outcome = execute_and_compare(predicted, gold, db, question_id=0)
        assert outcome.matched == expected, (predicted, gold)

    # write rejection leaves the table intact
    conn = sqlite3.connect(db)
    assert conn.execute("SELECT COUNT(*) FROM t").fetchone()[0] == 4
    conn.close()

    instances = [
        TaskInstance(i, f"question {i}?", "", "SELECT 1", "db", difficulty)
        for i, difficulty in enumerate(
            ["simple"] * 4 + ["moderate"] * 4 + ["challenging"] * 2)
    ]
    outcomes = [
        EvalOutcome(i, matched) for i, matched in enumerate(
            [True, True, True, False, True, False, False, False, False, False])
    ]
    report = aggregate(outcomes, instances)
    assert report.ex_by_split == {
        "simple": 75.0, "moderate": 25.0, "challenging": 0.0, "sum": 40.0}
    crit.done()


# --- 7. error taxonomy -------------------------------------------------------

def test_criterion_7_error_taxonomy(forum_catalog_acceptance=None):
    crit = Criterion(7, "22+ constructed cases classify onto the expected leaves", 5.0)
    catalog = DatabaseCatalog("forum", (
        TableSpec("badges", (
            ColumnSpec("Id", "int", None, None, True),
            ColumnSpec("UserId", "int"),
            ColumnSpec("Name", "text"),
            ColumnSpec("Date", "datetime"),
        )),
        TableSpec("comments", (
            ColumnSpec("CommentId", "int", None, None, True),
            ColumnSpec("UserId", "int"),
            ColumnSpec("Score", "int"),
            ColumnSpec("Text", "text"),
        )),
        TableSpec("posts", (
            ColumnSpec("PostId", "int", None, None, True),
            ColumnSpec("OwnerUserId", "int"),
            ColumnSpec("Title", "text"),
            ColumnSpec("Score", "int"),
        )),
    ))
    assert len(TAXONOMY_CASES) >= 22
    for predicted, gold, error, expected in TAXONOMY_CASES:
        outcome = EvalOutcome(0, False, predicted_error=error)
        label = classify(predicted, gold, catalog, outcome)
        assert label.category == expected, (predicted, expected, label)

    # the non-existent users table scenario labels tables-not-exist
    users_case = classify(
        "SELECT COUNT(*) FROM users WHERE Date LIKE '2014%'",
        "SELECT COUNT(*) FROM badges WHERE Date LIKE '2014%' AND Name = 'commentator'",
        catalog, EvalOutcome(0, False, predicted_error="no such table: users"))
    assert users_case.category == "schema_linking/tables_not_exist"
    crit.done()


# --- 8. end-to-end replay ----------------------------------------------------

def _cot_scripted(questions):
    gold_by_text = {q["question"].rstrip("?. ").strip(): q["SQL"] for q in questions}

    def complete(prompt):
        tail = prompt.rstrip()
        if tail.endswith("Tables: (table\n         table)"):
            tables = re.findall(r"(?m)^# (\w+) \($", prompt)
            return "Tables: (" + "\n ".join(tables) + ")"
        if tail.endswith("Columns: table: (column\n                column)"):
            names = re.findall(r"(?m)^#   (\w+):", prompt)
            return "The needed columns are: " + ", ".join(sorted(set(names)))
        gold = gold_by_text[question_of(prompt).rstrip("?. ").strip()]
        if tail.endswith("corresponding to the question."):
            return gold
        return gold[len("SELECT"):]
    return complete


def test_criterion_8_end_to_end_replay(mini_bench, tmp_path):
    crit = Criterion(8, "replayed runs byte-identical at 60.0 EX; "
                        "COT-SK embeds normalized skeletons", 10.0)
    store = tmp_path / "store.jsonl"
    record_cfg = RunConfig(benchmark_root=mini_bench, split="dev",
                           output_dir=tmp_path / "record",
                           replay_store=store, replay_mode="record")
    transport = ScriptedTransport(
        completion_fn=completion_by_question(MINI_QUESTIONS, MINI_RESPONSES))
    cmd_run(record_cfg, client=build_client(record_cfg, transport=transport))

    reports = []
    for name in ("a", "b"):
        cfg = RunConfig(benchmark_root=mini_bench, split="dev",
                        output_dir=tmp_path / f"replay_{name}",
                        replay_store=store, replay_mode="replay")
        path = cmd_run(cfg, client=build_client(cfg))
        reports.append((path.read_bytes(),
                        (cfg.output_dir / "traces.jsonl").read_bytes()))
    assert reports[0] == reports[1]
    payload = json.loads(reports[0][0])
    assert payload["ex_by_split"]["sum"] == 60.0

    # COT-SK: the step-3 skeleton is normalized and embedded in step 4
    cot_store = tmp_path / "cot_store.jsonl"
    cot_record = RunConfig(benchmark_root=mini_bench, split="dev",
                           mode=MODE_COT_SK_FULL, output_dir=tmp_path / "cot_record",
                           replay_store=cot_store, replay_mode="record")
    cot_transport = ScriptedTransport(completion_fn=_cot_scripted(MINI_QUESTIONS))
    cmd_run(cot_record, client=build_client(cot_record, transport=cot_transport))

    cot_replay = RunConfig(benchmark_root=mini_bench, split="dev",
                           mode=MODE_COT_SK_FULL, output_dir=tmp_path / "cot_replay",
                           replay_store=cot_store, replay_mode="replay")
    cmd_run(cot_replay, client=build_client(cot_replay))

    gold_by_id = {q["question_id"]: q["SQL"] for q in MINI_QUESTIONS}
    trace_lines = (cot_replay.output_dir / "traces.jsonl").read_text(
        encoding="utf-8").splitlines()
    assert len(trace_lines) == 10
    for line in trace_lines:
        trace = json.loads(line)
        assert len(trace["step_prompts"]) == 4
        expected_skeleton = extract_skeleton(gold_by_id[trace["question_id"]]).text
        assert trace["skeleton"] == expected_skeleton
        assert f"and sql skeleton:\n{expected_skeleton}." in trace["step_prompts"][3]
    crit.done()


# --- 9. SFT preparation ------------------------------------------------------

def test_criterion_9_sft_prep(tmp_path, capsys):
    crit = Criterion(9, "SFT JSONL valid; printed truncation stats equal recount", 5.0)

    def make_wide_db(path):
        conn = sqlite3.connect(path)
        columns = ", ".join(f"col_{i:03d} TEXT" for i in range(250))
        conn.execute(f"CREATE TABLE wide (id INTEGER PRIMARY KEY, {columns})")
        conn.commit()
        conn.close()
        return path

    questions = [
        {"question_id": 0, "question": "How many rows does the wide table hold?",
         "evidence": "", "SQL": "SELECT COUNT(id) FROM wide", "db_id": "wide",
         "difficulty": "simple"},
        {"question_id": 1, "question": "List every identifier.", "evidence": "",
         "SQL": "SELECT id FROM wide", "db_id": "wide", "difficulty": "simple"},
        {"question_id": 2, "question": "Short one?", "evidence": "",
         "SQL": "SELECT 1", "db_id": "cinema", "difficulty": "simple"},
    ]
    root = write_benchmark(tmp_path / "bench", questions,
                           {"wide": make_wide_db, "cinema": make_cinema_db})
    cfg = RunConfig(benchmark_root=root, split="dev", output_dir=tmp_path / "out",
                    max_context=900, response_reserve=100, truncation_seed=5)
    out_path = cmd_prep_sft(cfg)
    printed = capsys.readouterr().out

    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    for line in lines:
        row = json.loads(line)
        assert set(row) == {"prompt", "completion"}
        assert count_tokens(row["prompt"] + row["completion"]) <= cfg.max_context

    # recount from the TruncationRecords produced by the same seeded pipeline
    split = load_split(root, "dev")
    records = []
    for instance in split.instances:
        catalog = split.databases[instance.database_id]
        _, record = build_sft_pair(
            instance, catalog, cfg.variant, cfg.budget,
            seed=derive_seed(cfg.truncation_seed, instance.question_id, "sft"))
        records.append(record)
    truncated = [r for r in records if r.total_removed > 0]
    assert truncated, "fixture must include an over-budget instance"
    expected_pct = round(100.0 * len(truncated) / len(records), 2)
    expected_avg = round(sum(r.total_removed for r in truncated) / len(truncated), 2)
    assert (f"Queries with column truncation/Total queries: {expected_pct:.2f}% "
            f"({len(truncated)}/{len(records)})") in printed
    assert f"Average truncated columns: {expected_avg}" in printed
    crit.done()
