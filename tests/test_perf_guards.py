"""Work-count guards for the prompt paths.

A 2-shot run renders each catalog's column lines once per variant, scores
the example pool without a per-pair call of the public `cosine`, and
renders each few-shot prompt at most three times per question. Target
truncation, on the zero-shot and chain-of-thought paths, renders its
prompt once to count it and once more to confirm a truncated fit, however
many columns it removes. These counts repeat exactly, so a regression
shows here without timing anything.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

import sqlbench.cli as cli
import sqlbench.cot as cot
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
from test_acceptance import _cot_scripted
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


def _counting_renders(calls: list, truncate):
    """Wrap truncate_target to log (renders, removed columns) per call."""
    def wrapper(catalog, partition, render_prompt, *args, **kwargs):
        renders = 0

        def counted(keep):
            nonlocal renders
            renders += 1
            return render_prompt(keep)

        keep, record = truncate(catalog, partition, counted, *args, **kwargs)
        calls.append((renders, record.total_removed))
        return keep, record
    return wrapper


# Each context is small enough that every mini_bench question truncates.
@pytest.mark.parametrize("mode, max_context", [("none", 300), ("cot-sk-pred", 365)])
def test_target_truncation_renders_twice_at_most(mini_bench, tmp_path, monkeypatch,
                                                 mode, max_context):
    cfg = RunConfig(benchmark_root=mini_bench, split="dev", output_dir=tmp_path / "out",
                    mode=mode, max_context=max_context, response_reserve=50)
    calls: list[tuple[int, int]] = []
    for module in (cli, cot):
        monkeypatch.setattr(module, "truncate_target",
                            _counting_renders(calls, module.truncate_target))

    scripted = (completion_by_question(MINI_QUESTIONS, MINI_RESPONSES) if mode == "none"
                else _cot_scripted(MINI_QUESTIONS))
    cmd_run(cfg, client=build_client(cfg, transport=ScriptedTransport(completion_fn=scripted)))

    report = json.loads((cfg.output_dir / "report.json").read_text(encoding="utf-8"))
    assert not any("pipeline error" in (o["predicted_error"] or "") for o in report["outcomes"])
    assert report["truncation"]["queries_with_truncation"] == len(MINI_QUESTIONS)
    assert max(removed for _, removed in calls) >= 2
    for renders, removed in calls:
        assert renders == (2 if removed else 1)
