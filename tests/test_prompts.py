from __future__ import annotations

import json
from pathlib import Path

import pytest

from sqlbench.bench import TaskInstance
from sqlbench.budget import TokenBudget, count_tokens
from sqlbench.prompts import (
    EmptyExampleSql,
    FewShotBlock,
    build_few_shot_prompt,
    build_open_prompt,
    build_sft_pair,
    completion_for,
    emit_sft_dataset,
    write_sft_jsonl,
)
from sqlbench.schema import ColumnSpec, DatabaseCatalog, SchemaVariant, TableSpec
from sqlbench.skeleton import tokenize

GOLDEN_DIR = Path(__file__).parent / "golden" / "prompts"


@pytest.fixture()
def school_instance(movie_catalog):
    return TaskInstance(
        6,
        "Please list the phone numbers of the schools with the top 1 SAT excellence rate",
        "Excellence rate = NumGE1500 / NumTstTakr.",
        "SELECT 1",
        movie_catalog.database_id,
        "moderate",
    )


@pytest.fixture()
def example_instance(movie_catalog):
    return TaskInstance(
        1, "How many movies are there?", "", "SELECT COUNT(*) FROM movies",
        movie_catalog.database_id)


def test_open_prompt_matches_golden(movie_catalog, school_instance):
    bundle = build_open_prompt(school_instance, movie_catalog, SchemaVariant.C_VDT)
    expected = (GOLDEN_DIR / "open_cvdt.txt").read_text(encoding="utf-8")
    assert bundle.text == expected


def test_open_prompt_section_order(movie_catalog, school_instance):
    text = build_open_prompt(school_instance, movie_catalog, SchemaVariant.C_VDT).text
    markers = [
        "### Complete sqlite SQL query only and with no explanation",
        "### SQLite SQL tables are requested to be represented in the following schema.",
        "# TABLE_NAME (",
        "### Here are SQLite SQL tables, with their properties:",
        "# movies (",
        "### Question:",
        "### Note that:",
        "SELECT",
    ]
    positions = [text.index(m) for m in markers]
    assert positions == sorted(positions)


def test_open_prompt_contains_knowledge_sentence(movie_catalog, school_instance):
    text = build_open_prompt(school_instance, movie_catalog, SchemaVariant.C_VDT).text
    assert "### Note that: Excellence rate = NumGE1500 / NumTstTakr." in text


def test_open_prompt_omits_note_when_knowledge_empty(movie_catalog, example_instance):
    text = build_open_prompt(example_instance, movie_catalog, SchemaVariant.C_VDT).text
    assert "Note that" not in text


def test_open_prompt_ends_with_bare_cue(movie_catalog, school_instance):
    text = build_open_prompt(school_instance, movie_catalog, SchemaVariant.C_VDT).text
    assert text.endswith("SELECT")
    assert not text.endswith("SELECT\n")


def test_token_count_is_definitional(movie_catalog, school_instance):
    bundle = build_open_prompt(school_instance, movie_catalog, SchemaVariant.C_VDT)
    assert bundle.token_count == count_tokens(bundle.text)


def test_database_id_mismatch_rejected(movie_catalog):
    stranger = TaskInstance(0, "q?", "", "SELECT 1", "other_db")
    with pytest.raises(ValueError):
        build_open_prompt(stranger, movie_catalog, SchemaVariant.C_N)


def test_few_shot_matches_golden(movie_catalog, school_instance, example_instance):
    bundle = build_few_shot_prompt(
        school_instance, movie_catalog,
        [FewShotBlock(example_instance, movie_catalog)], SchemaVariant.C_VDT)
    expected = (GOLDEN_DIR / "few_shot_1ex_cvdt.txt").read_text(encoding="utf-8")
    assert bundle.text == expected


def test_few_shot_zero_examples_matches_open_sections(movie_catalog, school_instance):
    open_text = build_open_prompt(school_instance, movie_catalog, SchemaVariant.C_VDT).text
    few_text = build_few_shot_prompt(
        school_instance, movie_catalog, [], SchemaVariant.C_VDT).text
    open_lines = set(open_text.splitlines())
    few_lines = set(few_text.splitlines())
    for line in open_lines:
        if line.startswith("# ") or line.startswith("### Question") \
                or line.startswith("### Note that") or line == "SELECT":
            assert line in few_lines
    extra = few_lines - open_lines
    assert extra <= {
        "", "### Using valid SQLite , answer the following questions for the tables provided above.",
        "### SQLite SQL tables are requested to be represented in the following format.",
    }


def test_few_shot_three_example_blocks_in_order(movie_catalog, school_instance):
    blocks = [
        FewShotBlock(TaskInstance(i, f"Question number {i}?", "",
                                  f"SELECT {i} FROM movies", movie_catalog.database_id),
                     movie_catalog)
        for i in range(3)
    ]
    text = build_few_shot_prompt(
        school_instance, movie_catalog, blocks, SchemaVariant.C_VDT).text
    assert text.count("### Using valid SQLite, answer") == 3
    assert text.count("### Using valid SQLite , answer") == 1
    pos = [text.index(f"Question number {i}?") for i in range(3)]
    assert pos == sorted(pos)
    assert text.index("Question number 2?") < text.index("### Question: Please list")


def test_few_shot_example_with_empty_knowledge_omits_note(
        movie_catalog, school_instance, example_instance):
    text = build_few_shot_prompt(
        school_instance, movie_catalog,
        [FewShotBlock(example_instance, movie_catalog)], SchemaVariant.C_VDT).text
    head, _, target = text.partition("### Using valid SQLite ,")
    assert "Note that" not in head
    assert "Note that" in target


def test_few_shot_empty_example_sql_rejected(movie_catalog, school_instance):
    bad = TaskInstance(9, "valid question?", "", "   ", movie_catalog.database_id)
    with pytest.raises(EmptyExampleSql):
        build_few_shot_prompt(
            school_instance, movie_catalog,
            [FewShotBlock(bad, movie_catalog)], SchemaVariant.C_VDT)


def test_completion_strips_duplicated_cue():
    assert completion_for("SELECT a FROM t") == " a FROM t"
    assert completion_for("select a from t") == " a from t"
    assert completion_for("WITH x AS (SELECT 1) SELECT * FROM x") == \
        " WITH x AS (SELECT 1) SELECT * FROM x"


def test_sft_pair_concatenates_to_one_statement(movie_catalog, example_instance):
    pair, record = build_sft_pair(
        example_instance, movie_catalog, SchemaVariant.C_VDT, TokenBudget(), seed=0)
    assert pair.prompt.endswith("SELECT")
    combined = pair.prompt.splitlines()[-1] + pair.completion
    tokens = tokenize(combined)
    assert tokens[0].text == "SELECT"
    assert ";" not in [t.text for t in tokens]
    assert record.total_removed == 0


def wide_benchmark_split(columns=250):
    from sqlbench.bench import BenchmarkSplit

    cols = [ColumnSpec("id", "int", None, None, True)]
    cols += [ColumnSpec(f"col_{i:03d}", "text", f"very wordy description for column {i}")
             for i in range(columns)]
    catalog = DatabaseCatalog("wide", (TableSpec("wide", tuple(cols)),))
    instances = tuple(
        TaskInstance(i, f"Question {i} about nothing in particular?", "",
                     "SELECT id FROM wide", "wide")
        for i in range(3)
    )
    return BenchmarkSplit("train", instances, {"wide": catalog})


def test_sft_over_budget_instance_truncated():
    split = wide_benchmark_split()
    budget = TokenBudget(max_context=1024, response_reserve=200)
    pairs = list(emit_sft_dataset(split, SchemaVariant.C_VDT, budget, seed=5))
    assert len(pairs) == 3
    for pair, record in pairs:
        total = count_tokens(pair.prompt + pair.completion)
        assert total <= budget.max_context
        assert record.total_removed > 0
        assert ("wide", "id") not in record.removed_columns[0]


@pytest.mark.parametrize("question, gold_sql, error", [
    (" ".join(f"word{i}" for i in range(400)) + "?",  # immovable text
     "SELECT id FROM wide", "UnsatisfiableBudget"),
    ("Which ids?", "SELECT 'abc FROM wide", "UnterminatedString"),
    ("Which ids?", "SELECT id /* FROM wide", "UnterminatedComment"),
], ids=["UnsatisfiableBudget", "UnterminatedString", "UnterminatedComment"])
def test_sft_skips_an_instance_it_cannot_build(caplog, question, gold_sql, error):
    from sqlbench.bench import BenchmarkSplit

    catalog = DatabaseCatalog("wide", (TableSpec("wide", (
        ColumnSpec("id", "int", None, None, True),
        ColumnSpec("fluff", "text", "removable"),
    )),))
    split = BenchmarkSplit("train", (
        TaskInstance(0, question, "", gold_sql, "wide"),
        TaskInstance(1, "Which ids?", "", "SELECT id FROM wide", "wide"),
    ), {"wide": catalog})
    with caplog.at_level("WARNING", logger="sqlbench.prompts"):
        pairs = list(emit_sft_dataset(split, SchemaVariant.C_VDT,
                                      TokenBudget(max_context=300, response_reserve=10), seed=0))
    assert [pair.completion for pair, _ in pairs] == [" id FROM wide"]
    (warning,) = caplog.messages
    assert "question 0" in warning and error in warning


def test_sft_one_pair_per_instance_in_split_order(mini_bench):
    from sqlbench.bench import load_split

    split = load_split(mini_bench, "dev")
    pairs = list(emit_sft_dataset(split, SchemaVariant.C_VDT, TokenBudget(), seed=1))
    assert len(pairs) == 10
    for (pair, _), instance in zip(pairs, split.instances):
        assert instance.question.rstrip("?.") .split()[0] in pair.prompt


def test_sft_jsonl_round_trip(tmp_path, movie_catalog, example_instance):
    pair, _ = build_sft_pair(
        example_instance, movie_catalog, SchemaVariant.C_VDT, TokenBudget(), seed=0)
    out = tmp_path / "sft.jsonl"
    write_sft_jsonl([pair], out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    loaded = json.loads(lines[0])
    assert set(loaded) == {"prompt", "completion"}
    assert loaded["completion"] == pair.completion


def test_prompt_building_deterministic(movie_catalog, school_instance):
    first = build_open_prompt(school_instance, movie_catalog, SchemaVariant.C_A).text
    second = build_open_prompt(school_instance, movie_catalog, SchemaVariant.C_A).text
    assert first == second


def _fitted_prompts(root: Path, tmp_path: Path) -> dict[str, str]:
    """mini_bench question 6's budgeted prompts, each at a context that
    truncates it, by golden file name: the zero-shot prompt `build-prompt`
    writes, the 2-shot prompt a run sends, the four `cot-sk-pred` steps and
    one SFT pair as `prep-sft` writes it."""
    from conftest import (
        MINI_QUESTIONS,
        MINI_RESPONSES,
        POOL_QUESTIONS,
        ScriptedTransport,
        completion_by_question,
        hash_embedding,
        question_of,
    )
    from test_acceptance import _cot_scripted
    from sqlbench.bench import load_split
    from sqlbench.cli import RunConfig, build_client, build_embed_client, cmd_build_prompt, cmd_run
    from sqlbench.cot import run_cot

    question = MINI_QUESTIONS[6]
    split = load_split(root, "dev")
    (instance,) = [i for i in split.instances if i.question_id == question["question_id"]]
    catalog = split.databases[instance.database_id]
    prompts: dict[str, str] = {}

    cfg = RunConfig(benchmark_root=root, split="dev", output_dir=tmp_path / "out",
                    max_context=300, response_reserve=50)
    prompts["open_truncated_q6.txt"] = cmd_build_prompt(
        cfg, instance.question_id, tmp_path / "prompt.txt")
    assert count_tokens(prompts["open_truncated_q6.txt"]) < build_open_prompt(
        instance, catalog, cfg.variant).token_count

    cfg = RunConfig(benchmark_root=root, split="dev", output_dir=tmp_path / "two_shot",
                    shots=2, pool_split="train", max_context=700, response_reserve=50)
    transport = ScriptedTransport(
        completion_fn=completion_by_question(MINI_QUESTIONS + POOL_QUESTIONS, MINI_RESPONSES),
        embed_fn=hash_embedding)
    cmd_run(cfg, client=build_client(cfg, transport=transport),
            embed_client=build_embed_client(cfg, transport=transport))
    report = json.loads((cfg.output_dir / "report.json").read_text(encoding="utf-8"))
    assert report["truncation"]["queries_with_truncation"] == len(MINI_QUESTIONS)
    (prompts["few_shot_2ex_truncated_q6.txt"],) = [
        r["payload"]["prompt"] for r in transport.requests
        if "prompt" in r["payload"] and "following format." in r["payload"]["prompt"]
        and question_of(r["payload"]["prompt"]) == question_of(prompts["open_truncated_q6.txt"])]

    client = build_client(cfg, transport=ScriptedTransport(
        completion_fn=_cot_scripted(MINI_QUESTIONS)))
    trace = run_cot(instance, catalog, client, "cot-sk-pred", budget=TokenBudget(365, 50), seed=0)
    assert any(bundle.truncation.total_removed for bundle in trace.step_prompts)
    for step, bundle in enumerate(trace.step_prompts, 1):
        prompts[f"cot_sk_pred_q6_step{step}.txt"] = bundle.text

    pair, record = build_sft_pair(instance, catalog, SchemaVariant.C_VDT, TokenBudget(300, 50),
                                  seed=0)
    assert record.total_removed > 0
    write_sft_jsonl([pair], tmp_path / "sft.jsonl")
    prompts["sft_pair_truncated_q6.jsonl"] = (tmp_path / "sft.jsonl").read_text(encoding="utf-8")
    return prompts


def test_fitted_prompts_match_golden(mini_bench, tmp_path):
    prompts = _fitted_prompts(mini_bench, tmp_path)
    assert len(prompts) == 7
    for name, text in prompts.items():
        assert text == (GOLDEN_DIR / name).read_text(encoding="utf-8"), name
