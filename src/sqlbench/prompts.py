"""Prompt assembly: zero-shot, few-shot and SFT training pairs.

Every SQL-producing prompt ends with the bare completion cue "SELECT" and
no trailing newline, so model completions begin mid-statement. Golden
prompt tests pin the exact template bytes.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .bench import BenchmarkSplit, TaskInstance
from .budget import (
    TokenBudget,
    TokenCounter,
    TruncationRecord,
    count_tokens,
    derive_seed,
    partition_columns,
    truncate_target,
)
from .schema import (
    DatabaseCatalog,
    SchemaVariant,
    render_schema,
    render_schema_format_header,
    schema_token_fn,
)

logger = logging.getLogger(__name__)

CUE = "SELECT"

RULE_LINE = "### Complete sqlite SQL query only and with no explanation"
OPEN_FORMAT_LINE = (
    "### SQLite SQL tables are requested to be represented in the following schema.")
FEW_SHOT_FORMAT_LINE = (
    "### SQLite SQL tables are requested to be represented in the following format.")
PROPERTIES_LINE = "### Here are SQLite SQL tables, with their properties:"
EXAMPLE_ANSWER_LINE = (
    "### Using valid SQLite, answer the following questions for the tables provided above.")
TARGET_ANSWER_LINE = (
    "### Using valid SQLite , answer the following questions for the tables provided above.")


class EmptyExampleSql(ValueError):
    pass


@dataclass(frozen=True)
class PromptBundle:
    text: str
    token_count: int
    role: str  # zero_shot | few_shot | cot_step | sft_pair
    step_index: Optional[int] = None
    truncation: Optional[TruncationRecord] = None


@dataclass(frozen=True)
class SftPair:
    prompt: str
    completion: str


def _sentence(text: str) -> str:
    """Collapse to a single line and close with terminal punctuation."""
    flat = " ".join(text.split())
    if flat and flat[-1] not in ".?!":
        flat += "."
    return flat


def question_line(question: str) -> str:
    return f"### Question: {_sentence(question)}"


def note_line(knowledge: str) -> Optional[str]:
    if not knowledge.strip():
        return None
    return f"### Note that: {_sentence(knowledge)}"


def open_prompt_text(
    instance: TaskInstance,
    catalog: DatabaseCatalog,
    variant: SchemaVariant,
    keep=None,
) -> str:
    if instance.database_id != catalog.database_id:
        raise ValueError(
            f"instance database {instance.database_id!r} does not match "
            f"catalog {catalog.database_id!r}")
    lines = [RULE_LINE, OPEN_FORMAT_LINE]
    lines.append(render_schema_format_header(variant).rstrip("\n"))
    lines.append(PROPERTIES_LINE)
    schema_text = render_schema(catalog, variant, keep).rstrip("\n")
    if schema_text:
        lines.append(schema_text)
    lines.append(question_line(instance.question))
    note = note_line(instance.external_knowledge)
    if note:
        lines.append(note)
    lines.append(CUE)
    return "\n".join(lines)


def build_open_prompt(
    instance: TaskInstance,
    catalog: DatabaseCatalog,
    variant: SchemaVariant,
    *,
    keep=None,
    counter: TokenCounter = count_tokens,
    truncation: Optional[TruncationRecord] = None,
) -> PromptBundle:
    """Assemble the zero-shot prompt: rule, format header, schema, question,
    optional knowledge note, trailing cue."""
    text = open_prompt_text(instance, catalog, variant, keep)
    return PromptBundle(text, counter(text), "zero_shot", truncation=truncation)


def open_prompt_token_fn(
    instance: TaskInstance,
    catalog: DatabaseCatalog,
    variant: SchemaVariant,
    *,
    counter: TokenCounter = count_tokens,
    suffix: str = "",
):
    """Token-count closure for truncation loops.

    Prompt lines are newline-separated, so under a line-additive counter
    (the default one is) the full count decomposes into a fixed scaffold
    plus the schema block, which is tallied from per-line costs.
    """
    schema_tokens = schema_token_fn(catalog, variant, counter)
    scaffold = (counter(open_prompt_text(instance, catalog, variant) + suffix)
                - schema_tokens(None))

    def tokens(keep) -> int:
        return scaffold + schema_tokens(keep)

    return tokens


@dataclass(frozen=True)
class FewShotBlock:
    """One rendered example slot of a few-shot prompt."""

    instance: TaskInstance
    catalog: DatabaseCatalog
    keep: Optional[dict] = None


def _example_block(block: FewShotBlock, variant: SchemaVariant) -> list[str]:
    sql = " ".join(block.instance.gold_sql.split())
    if not sql:
        raise EmptyExampleSql(
            f"example question {block.instance.question_id} has empty gold SQL")
    lines = [PROPERTIES_LINE]
    schema_text = render_schema(block.catalog, variant, block.keep).rstrip("\n")
    if schema_text:
        lines.append(schema_text)
    lines.append(question_line(block.instance.question))
    note = note_line(block.instance.external_knowledge)
    if note:
        lines.append(note)
    lines.append(EXAMPLE_ANSWER_LINE)
    lines.append(sql)
    return lines


def few_shot_text(
    instance: TaskInstance,
    catalog: DatabaseCatalog,
    examples: Sequence[FewShotBlock],
    variant: SchemaVariant,
    keep=None,
) -> str:
    lines = [RULE_LINE, FEW_SHOT_FORMAT_LINE]
    lines.append(render_schema_format_header(variant).rstrip("\n"))
    lines.append("")
    for block in examples:
        lines.extend(_example_block(block, variant))
        lines.append("")
    lines.append(PROPERTIES_LINE)
    schema_text = render_schema(catalog, variant, keep).rstrip("\n")
    if schema_text:
        lines.append(schema_text)
    lines.append(TARGET_ANSWER_LINE)
    lines.append(question_line(instance.question))
    note = note_line(instance.external_knowledge)
    if note:
        lines.append(note)
    lines.append(CUE)
    return "\n".join(lines)


def build_few_shot_prompt(
    instance: TaskInstance,
    catalog: DatabaseCatalog,
    examples: Sequence[FewShotBlock],
    variant: SchemaVariant,
    *,
    keep=None,
    counter: TokenCounter = count_tokens,
    truncation: Optional[TruncationRecord] = None,
) -> PromptBundle:
    """Assemble the few-shot prompt with fully rendered example blocks.

    Callers pass examples already truncated and ordered (ascending by
    similarity, most similar last). With no examples the result reduces to
    the zero-shot prompt modulo the answer-instruction line.
    """
    text = few_shot_text(instance, catalog, examples, variant, keep)
    return PromptBundle(text, counter(text), "few_shot", truncation=truncation)


def completion_for(gold_sql: str, cue: str = CUE) -> str:
    """Strip the duplicated leading cue so prompt+completion reads as one
    statement (the prompt already ends with the cue)."""
    stripped = gold_sql.lstrip()
    if stripped[:len(cue)].upper() == cue.upper():
        return stripped[len(cue):]
    return " " + stripped


def sft_seed(seed: int, question_id: int) -> int:
    """Truncation seed of one instance's SFT pair, derived from the run seed."""
    return derive_seed(seed, question_id, "sft")


def build_sft_pair(
    instance: TaskInstance,
    catalog: DatabaseCatalog,
    variant: SchemaVariant,
    budget: TokenBudget,
    *,
    seed: int,
    counter: TokenCounter = count_tokens,
) -> tuple[SftPair, TruncationRecord]:
    """Emit one training pair, truncating target columns until the combined
    prompt+completion fits the full context window."""
    completion = completion_for(instance.gold_sql)
    partition = partition_columns(catalog, reference_sql=instance.gold_sql)
    pair_tokens = open_prompt_token_fn(
        instance, catalog, variant, counter=counter, suffix=completion)
    keep, record = truncate_target(
        catalog, partition, pair_tokens, budget.max_context, seed)
    bundle = build_open_prompt(
        instance, catalog, variant, keep=keep, counter=counter, truncation=record)
    return SftPair(bundle.text, completion), record


def emit_sft_dataset(
    split: BenchmarkSplit,
    variant: SchemaVariant,
    budget: TokenBudget,
    *,
    seed: int = 0,
    counter: TokenCounter = count_tokens,
) -> Iterator[tuple[SftPair, TruncationRecord]]:
    """Yield one (pair, truncation record) per instance, in split order.

    Each instance truncates with `sft_seed(seed, question_id)`, as
    `sqlbench prep-sft` does.
    """
    if budget.max_context < 256:
        raise ValueError("SFT budget needs max_context >= 256")
    for instance in split.instances:
        catalog = split.databases[instance.database_id]
        yield build_sft_pair(
            instance, catalog, variant, budget,
            seed=sft_seed(seed, instance.question_id), counter=counter)


def write_sft_jsonl(
    pairs: Sequence[SftPair],
    path: Path,
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for pair in pairs:
            handle.write(json.dumps(
                {"prompt": pair.prompt, "completion": pair.completion},
                ensure_ascii=False) + "\n")
