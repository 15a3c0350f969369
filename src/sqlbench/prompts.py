"""Prompt assembly: zero-shot, few-shot and SFT training pairs.

Every SQL-producing prompt ends with the bare completion cue "SELECT" and
no trailing newline, so model completions begin mid-statement. Golden
prompt tests pin the exact template bytes. `fit_prompt` builds every
budgeted prompt, chain-of-thought steps included; prompt sizes are always
`count_tokens` counts.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .bench import BenchmarkSplit, TaskInstance
from .budget import (
    KeepFilter,
    PromptSection,
    TokenBudget,
    TruncationPlan,
    TruncationRecord,
    UnsatisfiableBudget,
    count_tokens,
    derive_seed,
    partition_columns,
    truncate_examples,
    truncate_target,
)
from .schema import (
    DatabaseCatalog,
    SchemaVariant,
    render_schema,
    render_schema_format_header,
    schema_token_fn,
)
from .skeleton import UnterminatedComment, UnterminatedString

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


def schema_lines(properties_line: str, catalog: DatabaseCatalog, variant: SchemaVariant,
                 keep=None) -> list[str]:
    """The properties line, then the schema block unless `keep` shows no table."""
    schema_text = render_schema(catalog, variant, keep).rstrip("\n")
    return [properties_line, schema_text] if schema_text else [properties_line]


def question_lines(instance: TaskInstance) -> list[str]:
    """The question line, then the knowledge note unless it is blank."""
    lines = [question_line(instance.question)]
    if instance.external_knowledge.strip():
        lines.append(f"### Note that: {_sentence(instance.external_knowledge)}")
    return lines


def question_section(instance: TaskInstance, catalog: DatabaseCatalog,
                     keep=None) -> PromptSection:
    """The target section of the columns `keep` shows, partitioned by their
    link to the question and note. Build it once per question and view and
    share it among the prompts that show that view."""
    return PromptSection(catalog, partition_columns(
        catalog, question=f"{instance.question} {instance.external_knowledge}", keep=keep))


def fit_prompt(
    role: str,
    render: Callable[[Sequence[KeepFilter]], str],
    sections: Sequence[PromptSection],
    limit: int,
    seed: int,
    *,
    variant: SchemaVariant,
    plan: Optional[TruncationPlan] = None,
    step_index: Optional[int] = None,
) -> PromptBundle:
    """The one budgeted prompt builder: truncate until `render` fits `limit`.

    `render` renders the whole prompt, schema blocks in `variant`, from one
    keep filter per section. Without a plan the one section is passed
    straight to `truncate_target`; with one, `truncate_examples` shares the
    excess by its rates. The engine's last render is the fit, so the bundle
    is that text and the record's `tokens_after`, its `count_tokens` count,
    with no second render or count.
    """
    text = ""

    def kept(keeps: Sequence[KeepFilter]) -> str:
        nonlocal text
        text = render(keeps)
        return text

    if plan is None:
        (section,) = sections
        _, record = truncate_target(
            section, lambda keep: kept([keep]), limit, seed, variant=variant)
    else:
        _, record = truncate_examples(sections, plan, kept, limit, seed, variant=variant)
    return PromptBundle(text, record.tokens_after, role, step_index, record)


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
    return "\n".join([
        RULE_LINE, OPEN_FORMAT_LINE, render_schema_format_header(variant).rstrip("\n"),
        *schema_lines(PROPERTIES_LINE, catalog, variant, keep),
        *question_lines(instance), CUE])


def build_open_prompt(
    instance: TaskInstance,
    catalog: DatabaseCatalog,
    variant: SchemaVariant,
    *,
    keep=None,
    truncation: Optional[TruncationRecord] = None,
) -> PromptBundle:
    """Assemble the zero-shot prompt: rule, format header, schema, question,
    optional knowledge note, trailing cue."""
    text = open_prompt_text(instance, catalog, variant, keep)
    return PromptBundle(text, count_tokens(text), "zero_shot", truncation=truncation)


def open_prompt_token_fn(
    instance: TaskInstance,
    catalog: DatabaseCatalog,
    variant: SchemaVariant,
):
    """Keep filter -> token count of the open prompt under it.

    Prompt lines are newline-separated and `count_tokens` is line-additive,
    so the count is a fixed scaffold plus the schema block, which is
    tallied from the compiled per-line costs.
    """
    schema_tokens = schema_token_fn(catalog, variant)
    scaffold = count_tokens(open_prompt_text(instance, catalog, variant)) - schema_tokens(None)

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
    return [*schema_lines(PROPERTIES_LINE, block.catalog, variant, block.keep),
            *question_lines(block.instance), EXAMPLE_ANSWER_LINE, sql]


def few_shot_text(
    instance: TaskInstance,
    catalog: DatabaseCatalog,
    examples: Sequence[FewShotBlock],
    variant: SchemaVariant,
    keep=None,
) -> str:
    lines = [RULE_LINE, FEW_SHOT_FORMAT_LINE,
             render_schema_format_header(variant).rstrip("\n"), ""]
    for block in examples:
        lines.extend(_example_block(block, variant))
        lines.append("")
    return "\n".join([*lines, *schema_lines(PROPERTIES_LINE, catalog, variant, keep),
                      TARGET_ANSWER_LINE, *question_lines(instance), CUE])


def build_few_shot_prompt(
    instance: TaskInstance,
    catalog: DatabaseCatalog,
    examples: Sequence[FewShotBlock],
    variant: SchemaVariant,
    *,
    keep=None,
    truncation: Optional[TruncationRecord] = None,
) -> PromptBundle:
    """Assemble the few-shot prompt with fully rendered example blocks.

    Callers pass examples already truncated and ordered (ascending by
    similarity, most similar last). With no examples the result reduces to
    the zero-shot prompt modulo the answer-instruction line.
    """
    text = few_shot_text(instance, catalog, examples, variant, keep)
    return PromptBundle(text, count_tokens(text), "few_shot", truncation=truncation)


def completion_for(gold_sql: str) -> str:
    """Strip the duplicated leading cue so prompt+completion reads as one
    statement (the prompt already ends with the cue)."""
    stripped = gold_sql.lstrip()
    if stripped[:len(CUE)].upper() == CUE:
        return stripped[len(CUE):]
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
) -> tuple[SftPair, TruncationRecord]:
    """Emit one training pair, truncating target columns until the combined
    prompt+completion fits the full context window. The target columns are
    those the gold SQL names; the pair splits the fitting render."""
    completion = completion_for(instance.gold_sql)
    bundle = fit_prompt(
        "sft_pair",
        lambda keeps: open_prompt_text(instance, catalog, variant, keeps[0]) + completion,
        [PromptSection(catalog, partition_columns(catalog, reference_sql=instance.gold_sql))],
        budget.max_context, seed, variant=variant)
    return SftPair(bundle.text.removesuffix(completion), completion), bundle.truncation


def require_sft_budget(budget: TokenBudget) -> None:
    """Reject a context too short for SFT pairs, before any pair is built."""
    if budget.max_context < 256:
        raise ValueError("SFT budget needs max_context >= 256")


def emit_sft_dataset(
    split: BenchmarkSplit,
    variant: SchemaVariant,
    budget: TokenBudget,
    *,
    seed: int = 0,
) -> Iterator[tuple[SftPair, TruncationRecord]]:
    """Yield one (pair, truncation record) per instance, in split order.

    Each instance truncates with `sft_seed(seed, question_id)`, as `prep-sft`
    does. An instance whose budget cannot be met or whose gold SQL has an
    unterminated string or comment is skipped with a warning.
    """
    require_sft_budget(budget)
    for instance in split.instances:
        catalog = split.databases[instance.database_id]
        try:
            built = build_sft_pair(
                instance, catalog, variant, budget,
                seed=sft_seed(seed, instance.question_id))
        except (UnsatisfiableBudget, UnterminatedString, UnterminatedComment) as exc:
            logger.warning("skipping question %s: %r", instance.question_id, exc)
            continue
        yield built


def write_sft_jsonl(
    pairs: Iterable[SftPair],
    path: Path,
) -> None:
    """Write the pairs to a temporary file beside `path` and move it into
    place after the last one, so a failure leaves a previous file whole."""
    path = Path(path)
    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", encoding="utf-8") as handle:
            for pair in pairs:
                handle.write(json.dumps(
                    {"prompt": pair.prompt, "completion": pair.completion},
                    ensure_ascii=False) + "\n")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
