"""The README's library surface: its import block runs, and the signatures
it quotes for the truncation API are the ones the code has, so a public
name that is renamed or re-signed fails here."""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

from sqlbench import budget, curation, prompts

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_the_import_block_runs():
    (block,) = re.findall(r"```python\n(from sqlbench import \(.*?\))\n```", README, re.DOTALL)
    exec(block, {})


def _bare(signature: inspect.Signature) -> inspect.Signature:
    return signature.replace(
        parameters=[p.replace(annotation=inspect.Parameter.empty)
                    for p in signature.parameters.values()],
        return_annotation=inspect.Signature.empty)


@pytest.mark.parametrize("function", [
    budget.truncate_target, budget.truncate_examples, prompts.fit_prompt,
    budget.partition_columns, budget.prepare_catalog, budget.plan_example_truncation,
    curation.curate_top_k, curation.ExamplePool,
], ids=lambda function: function.__name__)
def test_quoted_signatures_match_the_code(function):
    quoted = re.findall(rf"`(?:prompts\.)?{function.__name__}\(([^`]*)\)`", README)
    assert quoted, f"README quotes no signature of {function.__name__}"
    for parameters in quoted:
        namespace: dict = {}
        exec(f"def quoted({' '.join(parameters.split())}): pass", namespace)
        assert inspect.signature(namespace["quoted"]) == _bare(inspect.signature(function))
