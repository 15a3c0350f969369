"""Work-count guards for the prompt paths.

A 2-shot run partitions each question's target once and each distinct
example candidate once, and `truncate_target` truncates the section it is
given, building none of its own. It compiles each (catalog, variant) schema
once, so it renders and counts each column line once, scores the example
pool without a per-pair call of the public `cosine`, rescores with the exact
cosine only the screened top k and the candidates tied with it, and renders
each budgeted prompt once, at its fit: the truncation engine takes the count
of the prompt template's fixed lines and renders nothing, however many
columns it removes. No text that holds a schema line is counted: the fixed
lines' counts plus the compiled line costs are a prompt's size, and the
count its bundle carries. A chain-of-thought question partitions each distinct schema its steps show once and builds one
section for it, shared by the steps that show it, and a command introspects
each database once, also when it loads a pool split. A run keeps one
database connection per worker thread and database and closes them when it
ends. A live run keeps one HTTP connection per worker thread, closes them
when it ends, sends each distinct embedding text of a call once and embeds
each distinct schema once; a replay run opens no HTTP connection.
Zero-shot, chain-of-thought and live runs start without loading numpy or
requests. A replay run never loads the network modules (`http.client`,
`ssl`, `urllib.request`, `netrc`); a client that can send loads them when
it is built. An example pool built from replayed embeddings retains little
more than its three vector matrices. A run builds each catalog's
word indexes, column order and full-view size, and opens each worker's
database connections, before the first question and never inside one;
`curate` builds the same catalog state at its set-up.
These counts repeat exactly, so a regression shows here without timing
anything. Every function the benchmark's tracer
wraps by name still resolves.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import importlib
import importlib.util
import sqlite3
import http.client
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import sqlbench.bench as bench
import sqlbench.budget as budget
import sqlbench.cli as cli
import sqlbench.cot as cot
import sqlbench.curation as curation
import sqlbench.evaluate as evaluate
import sqlbench.prompts as prompts
import sqlbench.schema as schema
from conftest import (
    MINI_QUESTIONS,
    MINI_RESPONSES,
    POOL_QUESTIONS,
    ScriptedTransport,
    completion_by_question,
    counting_server,
    hash_embedding,
)
from test_acceptance import _cot_scripted
from test_curation import _candidate, _random_pool, _tiny_catalog
from sqlbench.bench import load_split
from sqlbench.budget import TokenBudget, count_tokens
from sqlbench.cli import RunConfig, build_client, build_embed_client, cmd_curate, cmd_run
from sqlbench.gateway import (
    LlmClient,
    LlmEndpoint,
    PooledTransport,
    ReplayStore,
)
from sqlbench.schema import SchemaVariant


def _counting(counts: Counter, name: str, fn, key=None):
    def wrapper(*args, **kwargs):
        counts[key(*args) if key else name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _counting_curation(calls: Counter, rescored: list):
    """Wrap curate_top_k to log, per question, its exact cosine calls and
    the number of scored candidates within twice the screen margin of the
    k-th best exact gamma_a (the top k and the candidates tied with it)."""
    def curate(target, target_catalog, draft_sql, pool, k):
        before = calls["_cosine"]
        curated = curation.curate_top_k(target, target_catalog, draft_sql, pool, k)
        used = calls["_cosine"] - before
        gammas = sorted((t.gamma_a for t in curation.score_candidates(
            target, target_catalog, draft_sql, pool)), reverse=True)
        near = (len(gammas) if len(gammas) <= k else
                sum(g >= gammas[k - 1] - 2 * curation.SCREEN_MARGIN for g in gammas))
        rescored.append((used, near))
        return curated
    return curate


def test_two_shot_run_work_counts(mini_bench, tmp_path, monkeypatch):
    # A 700-token context truncates every mini_bench 2-shot prompt.
    cfg = RunConfig(benchmark_root=mini_bench, split="dev", output_dir=tmp_path / "out",
                    shots=2, pool_split="train", max_context=700, response_reserve=50)
    calls: Counter = Counter()
    lines: Counter = Counter()
    rescored: list[tuple[int, int]] = []
    monkeypatch.setattr(curation, "cosine", _counting(calls, "cosine", curation.cosine))
    monkeypatch.setattr(curation, "_cosine", _counting(calls, "_cosine", curation._cosine))
    monkeypatch.setattr(cli, "curate_top_k", _counting_curation(calls, rescored))
    monkeypatch.setattr(prompts, "few_shot_text",
                        _counting(calls, "few_shot_text", prompts.few_shot_text))
    monkeypatch.setattr(prompts, "render_template",
                        _counting(calls, "render_template", prompts.render_template))
    monkeypatch.setattr(schema, "_column_line", _counting(
        lines, "", schema._column_line, key=lambda column, variant: (id(column), variant)))
    compiles: Counter = Counter()
    columns: dict = {}
    compile_ = schema._compile

    def compile_schema(catalog, variant):
        compiles[(id(catalog), variant)] += 1
        columns[(id(catalog), variant)] = len(catalog.column_set())
        return compile_(catalog, variant)

    monkeypatch.setattr(schema, "_compile", compile_schema)
    counted = _LoggingPattern(schema._TOKEN_RE)
    monkeypatch.setattr(schema, "_TOKEN_RE", counted)
    # Partitions: the target's through prompts, the examples' through the pool.
    for module in (prompts, curation):
        monkeypatch.setattr(module, "partition_columns", _counting(
            calls, "partition_columns", module.partition_columns))
    shown: list[int] = []
    pool_section = curation.ExamplePool.section

    def section(pool, index):
        shown.append(index)
        return pool_section(pool, index)

    monkeypatch.setattr(curation.ExamplePool, "section", section)
    truncating = [False]
    section_init = budget.PromptSection.__init__

    def init_section(section, *args):
        calls["sections built in truncate_target"] += truncating[0]
        section_init(section, *args)

    def truncate_target(*args, **kwargs):
        truncating[0] = True
        try:
            return budget.truncate_target(*args, **kwargs)
        finally:
            truncating[0] = False

    monkeypatch.setattr(budget.PromptSection, "__init__", init_section)
    monkeypatch.setattr(prompts, "truncate_target", truncate_target)

    transport = ScriptedTransport(
        completion_fn=completion_by_question(MINI_QUESTIONS + POOL_QUESTIONS, MINI_RESPONSES),
        embed_fn=hash_embedding)
    cmd_run(cfg, client=build_client(cfg, transport=transport),
            embed_client=build_embed_client(cfg, transport=transport))

    report = json.loads((cfg.output_dir / "report.json").read_text(encoding="utf-8"))
    questions = len(MINI_QUESTIONS)
    # One target partition per question, one per distinct example shown,
    # and each example section is shared by the prompts that show it.
    assert len(shown) == 2 * questions > len(set(shown))
    assert calls["partition_columns"] == questions + len(set(shown))
    assert calls["sections built in truncate_target"] == 0
    assert not any("pipeline error" in (o["predicted_error"] or "") for o in report["outcomes"])
    assert report["truncation"]["queries_with_truncation"] == questions
    assert calls["cosine"] == 0
    # One render per fit, the draft's and the 2-shot prompt's; the public
    # builder is not on the run's path.
    assert calls["render_template"] == 2 * questions
    assert calls["few_shot_text"] == 0
    assert len(rescored) == questions
    assert all(used <= 3 * near for used, near in rescored)
    assert lines and max(lines.values()) == 1
    assert compiles and set(compiles.values()) == {1}
    column_lines = [text for text in counted.texts if text.startswith("#   ") and "\n" not in text]
    assert len(column_lines) == sum(columns.values())


def test_curation_rescores_only_the_screened_top_k(monkeypatch):
    calls: Counter = Counter()
    rescored: list[tuple[int, int]] = []
    monkeypatch.setattr(curation, "_cosine", _counting(calls, "_cosine", curation._cosine))
    pool, _ = _random_pool(np.random.default_rng(5), 384, 200, target_db="db_target")
    curate = _counting_curation(calls, rescored)
    for k in (1, 3, 5):
        curate(_candidate(999, "db_target", "the target question?", ""),
               _tiny_catalog("db_target"), "SELECT 42", pool, k)
    # 160 of the 200 candidates are scored; each question rescores its top k.
    assert rescored == [(3, 1), (9, 3), (15, 5)]


def _counting_fits(fits: list, truncate):
    """Wrap truncate_target to log, per call, its scaffold and the number of
    removed columns."""
    def wrapper(section, scaffold, *args, **kwargs):
        keep, record = truncate(section, scaffold, *args, **kwargs)
        fits.append((scaffold, record.total_removed))
        return keep, record
    return wrapper


def _has_schema_line(text: str, catalog) -> bool:
    headers = {f"# {table.name} (" for table in catalog.tables}
    return any(line.startswith("#   ") or line in headers for line in text.splitlines())


# Each context is small enough that every mini_bench question truncates.
@pytest.mark.parametrize("mode, max_context", [("none", 300), ("cot-sk-pred", 365)])
def test_target_truncation_renders_once(mini_bench, tmp_path, monkeypatch, mode, max_context):
    cfg = RunConfig(benchmark_root=mini_bench, split="dev", output_dir=tmp_path / "out",
                    mode=mode, max_context=max_context, response_reserve=50)
    fits: list = []
    rendered: list[str] = []
    render = prompts.render_template

    def render_template(*args, **kwargs):
        rendered.append(render(*args, **kwargs))
        return rendered[-1]

    monkeypatch.setattr(prompts, "truncate_target",
                        _counting_fits(fits, prompts.truncate_target))
    monkeypatch.setattr(prompts, "render_template", render_template)
    counted = _LoggingPattern(schema._TOKEN_RE)
    monkeypatch.setattr(schema, "_TOKEN_RE", counted)

    scripted = (completion_by_question(MINI_QUESTIONS, MINI_RESPONSES) if mode == "none"
                else _cot_scripted(MINI_QUESTIONS))
    transport = ScriptedTransport(completion_fn=scripted)
    cmd_run(cfg, client=build_client(cfg, transport=transport))

    report = json.loads((cfg.output_dir / "report.json").read_text(encoding="utf-8"))
    assert not any("pipeline error" in (o["predicted_error"] or "") for o in report["outcomes"])
    assert report["truncation"]["queries_with_truncation"] == len(MINI_QUESTIONS)
    assert max(removed for _, removed in fits) >= 2
    assert all(isinstance(scaffold, int) for scaffold, _ in fits)
    # Each fit renders once, and what it renders is the prompt sent.
    assert rendered == [r["payload"]["prompt"] for r in transport.requests]
    assert len(rendered) == len(fits) == len(MINI_QUESTIONS) * (1 if mode == "none" else 4)
    catalogs = load_split(mini_bench, "dev").databases.values()
    assert not any("\n" in text and _has_schema_line(text, catalog)
                   for text in counted.texts for catalog in catalogs)


class _LoggingPattern:
    """The token pattern of `count_tokens`, logging every text it splits."""

    def __init__(self, pattern):
        self._pattern = pattern
        self.texts: list[str] = []

    def findall(self, text: str) -> list:
        self.texts.append(text)
        return self._pattern.findall(text)

    def prompt_counts(self) -> tuple[list[str], list[str]]:
        """(full, other) counts of texts that span lines. Compiled costs
        count single lines; a full prompt spans lines and has column lines,
        and a template's fixed lines, such as format headers, have none."""
        renders = [text for text in self.texts if "\n" in text]
        full = [text for text in renders if re.search(r"(?m)^#   ", text)]
        return full, [text for text in renders if text not in full]


def test_the_default_counter_counts_no_full_prompt(mini_bench, tmp_path, monkeypatch):
    counted = _LoggingPattern(schema._TOKEN_RE)
    monkeypatch.setattr(schema, "_TOKEN_RE", counted)

    # Zero-shot drafts and 3-shot prompts, truncated, through the run command.
    cfg = RunConfig(benchmark_root=mini_bench, split="dev", output_dir=tmp_path / "out",
                    shots=3, pool_split="train", max_context=700, response_reserve=50)
    transport = ScriptedTransport(
        completion_fn=completion_by_question(MINI_QUESTIONS + POOL_QUESTIONS, MINI_RESPONSES),
        embed_fn=hash_embedding)
    cmd_run(cfg, client=build_client(cfg, transport=transport),
            embed_client=build_embed_client(cfg, transport=transport))
    report = json.loads((cfg.output_dir / "report.json").read_text(encoding="utf-8"))
    assert report["truncation"]["queries_with_truncation"] == len(MINI_QUESTIONS)
    built = [r["payload"]["prompt"] for r in transport.requests if "prompt" in r["payload"]]
    full, fixed = counted.prompt_counts()
    catalogs = load_split(mini_bench, "dev").databases.values()
    assert len(built) == 2 * len(MINI_QUESTIONS)
    assert full == []
    assert not any(_has_schema_line(text, catalog) for text in fixed for catalog in catalogs)
    traces = [json.loads(line) for line in
              (cfg.output_dir / "traces.jsonl").read_text(encoding="utf-8").splitlines()]

    # Chain-of-thought steps and SFT pairs, each with a context that truncates.
    split = load_split(mini_bench, "dev")
    client = build_client(cfg, transport=ScriptedTransport(
        completion_fn=_cot_scripted(MINI_QUESTIONS)))
    bundles, pairs = [], []
    for instance in split.instances:
        catalog = split.databases[instance.database_id]
        counted.texts.clear()
        trace = cot.run_cot(instance, catalog, client, "cot-sk-pred",
                            budget=TokenBudget(365, 50), seed=0)
        pair, record = prompts.build_sft_pair(
            instance, catalog, cfg.variant, TokenBudget(300, 50), seed=instance.question_id)
        full, fixed = counted.prompt_counts()
        assert full == [] and len(trace.step_prompts) == 4
        assert not any(_has_schema_line(text, catalog) for text in fixed)
        bundles.extend(trace.step_prompts)
        pairs.append((pair, record))

    monkeypatch.undo()
    assert all(counts == [count_tokens(text) for text in prompts_]
               for counts, prompts_ in ((t["step_token_counts"], t["step_prompts"])
                                        for t in traces))
    assert all(b.token_count == count_tokens(b.text) for b in bundles)
    assert any(b.truncation.total_removed for b in bundles)
    assert all(record.tokens_after == count_tokens(pair.prompt + pair.completion)
               for pair, record in pairs)
    assert any(record.total_removed for _, record in pairs)


@pytest.mark.parametrize("mode, partitions", [("cot-sk-pred", 3), ("cot-sk-full", 1)])
def test_chain_of_thought_partitions_each_distinct_schema_once(mini_bench, monkeypatch,
                                                               mode, partitions):
    # cot-sk-pred: the full schema (step 1), the predicted tables (step 2)
    # and the predicted columns (steps 3 and 4); cot-sk-full: the full one.
    # Each is partitioned once and gets one section, shared by its steps.
    calls: Counter = Counter()
    monkeypatch.setattr(prompts, "partition_columns",
                        _counting(calls, "partition_columns", prompts.partition_columns))
    monkeypatch.setattr(budget.PromptSection, "__init__", _counting(
        calls, "sections", budget.PromptSection.__init__))
    split = load_split(mini_bench, "dev")
    client = build_client(RunConfig(), transport=ScriptedTransport(
        completion_fn=_cot_scripted(MINI_QUESTIONS)))
    for instance in split.instances:
        calls.clear()
        trace = cot.run_cot(instance, split.databases[instance.database_id], client, mode)
        assert len(trace.step_prompts) == 4
        assert not any("using full schema" in warning for warning in trace.warnings)
        assert calls["partition_columns"] == calls["sections"] == partitions


@pytest.mark.parametrize("command", [cmd_run, cmd_curate])
def test_each_database_is_introspected_once_per_command(mini_bench, tmp_path, monkeypatch,
                                                        command):
    calls: Counter = Counter()
    monkeypatch.setattr(bench, "introspect_database", _counting(
        calls, "", bench.introspect_database, key=lambda sqlite_file, *args: sqlite_file.stem))
    cfg = RunConfig(benchmark_root=mini_bench, split="dev", output_dir=tmp_path / "out",
                    shots=2, pool_split="train")
    transport = ScriptedTransport(
        completion_fn=completion_by_question(MINI_QUESTIONS + POOL_QUESTIONS, MINI_RESPONSES),
        embed_fn=hash_embedding)
    command(cfg, client=build_client(cfg, transport=transport),
            embed_client=build_embed_client(cfg, transport=transport))
    databases = sorted(p.name for p in (mini_bench / "databases").iterdir())
    assert sorted(calls) == databases and set(calls.values()) == {1}


def test_live_run_keeps_one_connection_per_worker(mini_bench, tmp_path, monkeypatch):
    closes: Counter = Counter()
    monkeypatch.setattr(PooledTransport, "close",
                        _counting(closes, "close", PooledTransport.close))
    scripted = ScriptedTransport(completion_fn=_cot_scripted(MINI_QUESTIONS))
    with counting_server(scripted) as server:
        cfg = RunConfig(benchmark_root=mini_bench, split="dev", output_dir=tmp_path / "live",
                        mode="cot-sk-pred", workers=2, base_url=server.base_url)
        cmd_run(cfg)
        assert closes["close"] == 1 and server.all_closed()
    assert server.requests == len(scripted.requests) == 4 * len(MINI_QUESTIONS)
    assert server.connections <= cfg.workers

    reference = dataclasses.replace(cfg, output_dir=tmp_path / "scripted")
    cmd_run(reference, client=build_client(reference, transport=ScriptedTransport(
        completion_fn=_cot_scripted(MINI_QUESTIONS))))
    for name in ("report.json", "traces.jsonl"):
        assert (cfg.output_dir / name).read_bytes() == (reference.output_dir / name).read_bytes()


def test_a_run_keeps_one_database_connection_per_worker_and_database(mini_bench, tmp_path,
                                                                    monkeypatch):
    opened = []
    connect = evaluate.connect_read_only

    def spy(*args, **kwargs):
        opened.append(connect(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(evaluate, "connect_read_only", spy)
    cfg = RunConfig(benchmark_root=mini_bench, split="dev", output_dir=tmp_path / "out",
                    workers=2)
    cmd_run(cfg, client=build_client(cfg, transport=ScriptedTransport(
        completion_fn=completion_by_question(MINI_QUESTIONS, MINI_RESPONSES))))
    databases = len(load_split(mini_bench, "dev").databases)
    assert databases <= len(opened) <= cfg.workers * databases
    for conn in opened:
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            conn.execute("SELECT 1")


@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_prepares_each_database_before_its_first_question(mini_bench, tmp_path,
                                                               monkeypatch, workers):
    # Set-up builds each catalog's word indexes, column order and full-view
    # size, and each worker opens its database connections before its first
    # question, so no question builds or opens any of them.
    inside = threading.local()
    events: list[tuple[str, bool]] = []
    seen: list = []  # the split, and what its catalogs had derived, at the first question
    process_instance = cli.process_instance

    def derived(split) -> dict:
        return {db: (set(catalog._derived), dict(catalog._derived.get("full_view_sizes", {})))
                for db, catalog in split.databases.items()}

    def process(cfg, instance, split, *args):
        if not seen:
            seen.extend((split, derived(split)))
        inside.active = True
        try:
            return process_instance(cfg, instance, split, *args)
        finally:
            inside.active = False

    def spying(kind, fn):
        def spy(*args, **kwargs):
            events.append((kind, getattr(inside, "active", False)))
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(cli, "process_instance", process)
    monkeypatch.setattr(budget, "_columns_by_word", spying("index", budget._columns_by_word))
    monkeypatch.setattr(evaluate, "connect_read_only",
                        spying("connect", evaluate.connect_read_only))
    cfg = RunConfig(benchmark_root=mini_bench, split="dev", output_dir=tmp_path / "out",
                    shots=2, pool_split="train", workers=workers)
    transport = ScriptedTransport(
        completion_fn=completion_by_question(MINI_QUESTIONS + POOL_QUESTIONS, MINI_RESPONSES),
        embed_fn=hash_embedding)
    cmd_run(cfg, client=build_client(cfg, transport=transport),
            embed_client=build_embed_client(cfg, transport=transport))

    report = json.loads((cfg.output_dir / "report.json").read_text(encoding="utf-8"))
    assert not any("pipeline error" in (o["predicted_error"] or "") for o in report["outcomes"])
    split, at_first_question = seen
    kinds = Counter(kind for kind, _ in events)
    # A question index and a gold-SQL index per catalog, and one connection
    # per worker thread and database, none of them inside a question.
    assert kinds["index"] == 2 * len(split.databases)
    assert len(split.databases) <= kinds["connect"] <= workers * len(split.databases)
    assert not any(during for _, during in events)
    # The catalogs derive nothing after the first question starts.
    assert all(cfg.variant in sizes for _, sizes in at_first_question.values())
    assert derived(split) == at_first_question


def test_curate_prepares_each_database_before_its_first_question(mini_bench, tmp_path,
                                                                 monkeypatch):
    # `curate` shares `run`'s set-up, so no question's draft and scoring
    # builds a word index or derives anything from a catalog.
    inside = threading.local()
    indexes: list[bool] = []
    late: list[str] = []  # catalog-derived values first built inside `_curate`
    curate = cli._curate

    def derived(catalog) -> set:
        return set(catalog._derived) | {
            ("size", variant) for variant in catalog._derived.get("full_view_sizes", {})}

    def spy_curate(cfg, instance, target, *args):
        before = derived(target.catalog)
        inside.active = True
        try:
            return curate(cfg, instance, target, *args)
        finally:
            inside.active = False
            late.extend(map(str, derived(target.catalog) - before))

    def spy_index(*args, **kwargs):
        indexes.append(getattr(inside, "active", False))
        return columns_by_word(*args, **kwargs)

    columns_by_word = budget._columns_by_word
    monkeypatch.setattr(cli, "_curate", spy_curate)
    monkeypatch.setattr(budget, "_columns_by_word", spy_index)
    cfg = RunConfig(benchmark_root=mini_bench, split="dev", output_dir=tmp_path / "out",
                    shots=2, pool_split="train")
    transport = ScriptedTransport(
        completion_fn=completion_by_question(MINI_QUESTIONS + POOL_QUESTIONS, MINI_RESPONSES),
        embed_fn=hash_embedding)
    cmd_curate(cfg, client=build_client(cfg, transport=transport),
               embed_client=build_embed_client(cfg, transport=transport))

    rows = json.loads((cfg.output_dir / "curation.json").read_text(encoding="utf-8"))
    assert len(rows) == len(MINI_QUESTIONS)
    # A question index and a gold-SQL index per catalog, all at set-up.
    assert len(indexes) == 2 * len(load_split(mini_bench, "dev").databases)
    assert not any(indexes)
    assert late == []


@pytest.mark.parametrize("mode, texts", [("live", 30), ("record", 29)])
def test_few_shot_run_embeds_each_distinct_text_once_per_call(mini_bench, tmp_path, mode, texts):
    # 42 and 31 texts when every occurrence of a call is sent, and 40 live
    # when each question embeds its database's schema again; the whole run
    # has 29 distinct texts. Live, one draft SQL that equals a pool
    # question's gold SQL is sent again: only a store remembers every text.
    cfg = RunConfig(benchmark_root=mini_bench, split="dev", output_dir=tmp_path / mode,
                    shots=2, pool_split="train", replay_mode=mode,
                    replay_store=tmp_path / "store.jsonl" if mode == "record" else None)
    transport = ScriptedTransport(
        completion_fn=completion_by_question(MINI_QUESTIONS + POOL_QUESTIONS, MINI_RESPONSES),
        embed_fn=hash_embedding)
    client = build_client(cfg, transport=transport)
    cmd_run(cfg, client=client,
            embed_client=build_embed_client(cfg, transport=transport, store=client.store))
    sent = [r["payload"]["input"] for r in transport.requests if "embeddings" in r["url"]]
    assert sum(map(len, sent)) == texts
    assert all(len(batch) == len(set(batch)) for batch in sent)
    assert len({text for batch in sent for text in batch}) == 29

    # Each text embedded on its own, every occurrence, as the reference.
    reference = dataclasses.replace(cfg, output_dir=tmp_path / "reference", replay_mode="live",
                                    replay_store=None)
    cmd_run(reference, client=build_client(reference, transport=transport),
            embed_client=SimpleNamespace(embed=lambda texts: [hash_embedding(t) for t in texts]))
    (report, traces), (reference_report, reference_traces) = (
        (json.loads((c.output_dir / "report.json").read_bytes()),
         (c.output_dir / "traces.jsonl").read_bytes()) for c in (cfg, reference))
    assert report.pop("config")["replay_mode"] == mode
    reference_report.pop("config")
    assert (report, traces) == (reference_report, reference_traces)


def test_replay_run_opens_no_connection(mini_bench, tmp_path, monkeypatch):
    store = tmp_path / "store.jsonl"
    record = RunConfig(benchmark_root=mini_bench, split="dev", output_dir=tmp_path / "record",
                       shots=2, pool_split="train", replay_store=store, replay_mode="record")
    transport = ScriptedTransport(
        completion_fn=completion_by_question(MINI_QUESTIONS + POOL_QUESTIONS, MINI_RESPONSES),
        embed_fn=hash_embedding)
    cmd_run(record, client=build_client(record, transport=transport),
            embed_client=build_embed_client(record, transport=transport))

    connects: Counter = Counter()
    connect = http.client.HTTPConnection.connect
    monkeypatch.setattr(http.client.HTTPConnection, "connect",
                        _counting(connects, "connect", connect))
    replay = dataclasses.replace(record, output_dir=tmp_path / "replay", replay_mode="replay",
                                 workers=2)
    cmd_run(replay)
    assert connects["connect"] == 0
    assert ((replay.output_dir / "report.json").read_bytes()
            .replace(b'"replay_mode": "replay"', b'"replay_mode": "record"')
            == (record.output_dir / "report.json").read_bytes())


_COLD_START = """
import json, sys
modules = json.loads(sys.argv[1])
import sqlbench.cli as cli
status = cli.main(sys.argv[2:])
print(json.dumps({"status": status, "loaded": sorted(
    name for name in modules if name in sys.modules)}))
"""

# What a client that sends loads: http.client loads email.parser.
_NETWORK = ("email.parser", "http.client", "netrc", "ssl", "urllib.request")


def _fresh_interpreter(source: str, *args: str) -> dict:
    """The JSON last printed by `source`, run with `args` in a new
    interpreter that imports sqlbench from this checkout."""
    path = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [path, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", source, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cold_run(argv: list[str],
              modules: tuple[str, ...] = ("numpy", "requests", "sqlbench.curation")) -> dict:
    """`sqlbench <argv>` in a new interpreter: its exit status and which of
    `modules` it loaded."""
    return _fresh_interpreter(_COLD_START, json.dumps(modules), *argv)


@pytest.mark.parametrize("run", ["zero-shot", "cot-sk-pred", "live", "two-shot"])
def test_only_a_curating_run_loads_numpy(mini_bench, tmp_path, run):
    cfg = RunConfig(benchmark_root=mini_bench, split="dev", output_dir=tmp_path / "record",
                    replay_store=tmp_path / "store.jsonl", replay_mode="record",
                    mode="cot-sk-pred" if run == "cot-sk-pred" else "none",
                    shots=2 if run == "two-shot" else 0,
                    pool_split="train" if run == "two-shot" else None)
    scripted = ScriptedTransport(
        completion_fn=(_cot_scripted(MINI_QUESTIONS) if run == "cot-sk-pred" else
                       completion_by_question(MINI_QUESTIONS + POOL_QUESTIONS, MINI_RESPONSES)),
        embed_fn=hash_embedding)
    argv = ["run", "--benchmark-root", str(mini_bench), "--split", "dev",
            "--output-dir", str(tmp_path / "out"), "--mode", cfg.mode]
    if run == "live":
        with counting_server(scripted) as server:
            result = _cold_run(argv + ["--base-url", server.base_url])
        assert server.requests == len(MINI_QUESTIONS)
    else:
        cmd_run(cfg, client=build_client(cfg, transport=scripted),
                embed_client=build_embed_client(cfg, transport=scripted))
        argv += ["--replay-store", str(cfg.replay_store), "--replay-mode", "replay"]
        if cfg.shots:
            argv += ["--shots", "2", "--pool-split", "train"]
        result = _cold_run(argv)
    curating = ["numpy"] if run == "two-shot" else []
    assert result == {"status": 0, "loaded": curating + ["sqlbench.curation"]}
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert not any("pipeline error" in (o["predicted_error"] or "") for o in report["outcomes"])


@pytest.mark.parametrize("run", ["zero-shot", "two-shot", "live"])
def test_only_a_run_that_can_send_loads_the_network_stack(mini_bench, tmp_path, run):
    argv = ["run", "--benchmark-root", str(mini_bench), "--split", "dev",
            "--output-dir", str(tmp_path / "out")]
    scripted = ScriptedTransport(
        completion_fn=completion_by_question(MINI_QUESTIONS + POOL_QUESTIONS, MINI_RESPONSES),
        embed_fn=hash_embedding)
    if run == "live":
        with counting_server(scripted) as server:
            result = _cold_run(argv + ["--base-url", server.base_url], _NETWORK)
        assert result == {"status": 0, "loaded": sorted(_NETWORK)}
        return
    shots = ["--shots", "2", "--pool-split", "train"] if run == "two-shot" else []
    cfg = RunConfig(benchmark_root=mini_bench, split="dev", output_dir=tmp_path / "record",
                    replay_store=tmp_path / "store.jsonl", replay_mode="record",
                    shots=2 if shots else 0, pool_split="train" if shots else None)
    cmd_run(cfg, client=build_client(cfg, transport=scripted),
            embed_client=build_embed_client(cfg, transport=scripted))
    result = _cold_run(argv + shots + ["--replay-store", str(cfg.replay_store),
                                       "--replay-mode", "replay"], _NETWORK)
    assert result == {"status": 0, "loaded": []}
    assert ((tmp_path / "out" / "report.json").read_bytes()
            .replace(b'"replay_mode": "replay"', b'"replay_mode": "record"')
            == (tmp_path / "record" / "report.json").read_bytes())


_BUILD_CLIENT = """
import json, sys
modules = json.loads(sys.argv[1])
import sqlbench.cli as cli
loaded = lambda: sorted(name for name in modules if name in sys.modules)
imported = loaded()
cfg = cli.RunConfig(replay_mode=sys.argv[2], replay_store=sys.argv[3] or None)
client = cli.build_client(cfg)
print(json.dumps({"imported": imported, "built": loaded(),
                  "transport": type(client.transport).__name__}))
"""


@pytest.mark.parametrize("mode", ["live", "record", "replay"])
def test_a_client_loads_the_network_stack_when_built_only_if_it_can_send(tmp_path, mode):
    # A live run takes no store.
    result = _fresh_interpreter(_BUILD_CLIENT, json.dumps(_NETWORK), mode,
                                "" if mode == "live" else str(tmp_path / "store.jsonl"))
    sends = mode != "replay"
    assert result == {"imported": [], "built": sorted(_NETWORK) if sends else [],
                      "transport": "PooledTransport" if sends else "NoneType"}


def test_every_traced_name_resolves_to_a_callable():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for name, (module_name, attribute) in tracing.TRACED.items():
        owner = importlib.import_module(module_name)
        target = functools.reduce(getattr, attribute.split("."), owner)
        assert callable(target), name


def test_a_replayed_pool_retains_only_its_matrices(tmp_path):
    # 200 candidates over 10 databases: the pool holds a question and an SQL
    # row per candidate and one schema row per database.
    count, dim = 200, 384
    candidates = [(_candidate(i, f"db_{i % 10}", f"question {i}?", f"SELECT {i}"),
                   _tiny_catalog(f"db_{i % 10}", column=f"c{i % 10}")) for i in range(count)]
    endpoint = LlmEndpoint("http://fake", "embed-model")
    recorder = LlmClient(endpoint, mode="record", store=ReplayStore(tmp_path / "store.jsonl"),
                         transport=ScriptedTransport(embed_fn=lambda t: hash_embedding(t, dim)))
    # Also renders the schemas, before the count starts.
    recorded = curation.build_pool(candidates, SchemaVariant.C_N, recorder.embed)
    replay = LlmClient(endpoint, mode="replay", store=ReplayStore(tmp_path / "store.jsonl"))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pool = curation.build_pool(candidates, SchemaVariant.C_N, replay.embed)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    matrix_bytes = sum(matrix.nbytes for matrix in pool._matrices)
    assert matrix_bytes == (2 * count + 10) * dim * 8
    assert retained < 1.5 * matrix_bytes, (retained, matrix_bytes)
    for matrix, recorded_matrix in zip(pool._matrices, recorded._matrices):
        assert matrix.tobytes() == recorded_matrix.tobytes()


def test_example_sections_retain_little_more_than_their_removable_columns():
    # 200 sections of a 300-column catalog, as a pool caches its examples'
    # sections: each keeps its sorted removable columns and a small target
    # set, and no second set of the columns it may remove.
    catalog = schema.DatabaseCatalog("wide", tuple(
        schema.TableSpec(f"t{t}", tuple(schema.ColumnSpec(f"c{t}_{c}", "int")
                                        for c in range(30))) for t in range(10)))
    sqls = [f"SELECT c{i % 10}_{i % 30} FROM t{i % 10} WHERE c{i % 10}_{i * 7 % 30} > 0"
            for i in range(200)]
    budget.partition_columns(catalog, reference_sql=sqls[0])  # the catalog's shared data
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sections = [budget.partition_columns(catalog, reference_sql=sql) for sql in sqls]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    removables = sum(sys.getsizeof(section.removables) for section in sections)
    assert all(len(section.removables) >= 298 for section in sections)
    assert retained < removables + 200 * 1024, (retained, removables)
