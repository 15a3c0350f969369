"""Work-count guards for the few-shot path.

A 2-shot run renders each catalog's column lines once per variant, scores
the example pool without a per-pair call of the public `cosine`, and
renders each few-shot prompt at most three times per question. These
counts repeat exactly, so a regression shows here without timing anything.
"""

from __future__ import annotations

import json
from collections import Counter

import sqlbench.cli as cli
import sqlbench.curation as curation
import sqlbench.prompts as prompts
import sqlbench.schema as schema
from conftest import (
    MINI_QUESTIONS,
    MINI_RESPONSES,
    POOL_QUESTIONS,
    ScriptedTransport,
    completion_by_question,
    hash_embedding,
)
from sqlbench.cli import RunConfig, build_client, build_embed_client, cmd_run


def _counting(counts: Counter, name: str, fn, key=None):
    def wrapper(*args, **kwargs):
        counts[key(*args) if key else name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_two_shot_run_work_counts(mini_bench, tmp_path, monkeypatch):
    # A 700-token context truncates every mini_bench 2-shot prompt.
    cfg = RunConfig(benchmark_root=mini_bench, split="dev", output_dir=tmp_path / "out",
                    shots=2, pool_split="train", max_context=700, response_reserve=50)
    calls: Counter = Counter()
    lines: Counter = Counter()
    monkeypatch.setattr(curation, "cosine", _counting(calls, "cosine", curation.cosine))
    few_shot_text = _counting(calls, "few_shot_text", prompts.few_shot_text)
    monkeypatch.setattr(cli, "few_shot_text", few_shot_text)
    monkeypatch.setattr(prompts, "few_shot_text", few_shot_text)
    monkeypatch.setattr(schema, "_column_line", _counting(
        lines, "", schema._column_line, key=lambda column, variant: (id(column), variant)))

    transport = ScriptedTransport(
        completion_fn=completion_by_question(MINI_QUESTIONS + POOL_QUESTIONS, MINI_RESPONSES),
        embed_fn=hash_embedding)
    cmd_run(cfg, client=build_client(cfg, transport=transport),
            embed_client=build_embed_client(cfg, transport=transport))

    report = json.loads((cfg.output_dir / "report.json").read_text(encoding="utf-8"))
    questions = len(MINI_QUESTIONS)
    assert not any("pipeline error" in (o["predicted_error"] or "") for o in report["outcomes"])
    assert report["truncation"]["queries_with_truncation"] == questions
    assert calls["cosine"] == 0
    assert 0 < calls["few_shot_text"] <= 3 * questions
    assert lines and max(lines.values()) == 1
