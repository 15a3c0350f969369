"""Prompt assembly: zero-shot, few-shot and SFT training pairs.

Every SQL-producing prompt ends with the bare completion cue "SELECT" and
no trailing newline, so model completions begin mid-statement. Golden
prompt tests pin the exact template bytes. Each prompt kind has one line
template, a list of its fixed lines with a section's index in place of
each schema block; `fit_prompt` builds every budgeted prompt from one,
chain-of-thought steps included, and renders it once, at the fit. Prompt
sizes are always `count_tokens` counts.
"""

from __future__ import annotations

import functools
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

from .bench import BenchmarkSplit, TaskInstance
from .budget import (
    PromptSection,
    TokenBudget,
    TruncationRecord,
    UnsatisfiableBudget,
    count_tokens,
    derive_seed,
    partition_columns,
    truncate_examples,
    truncate_target,
)
from .schema import (
    ColumnFilter,
    DatabaseCatalog,
    SchemaVariant,
    _validate_filter,
    compiled_schema,
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


# A prompt's lines in order: a str is a fixed line (it may hold newlines),
# and an int i stands for the schema block of sections[i], which adds no line
# when its keep shows no table.
PromptTemplate = Sequence[Union[str, int]]

# Fixed lines recur from prompt to prompt: format lines, and the questions
# and SQL of the pool examples that many questions show.
LINE_CACHE_SIZE = 4096
_line_tokens = functools.lru_cache(maxsize=LINE_CACHE_SIZE)(count_tokens)


class EmptyExampleSql(ValueError):
    pass


@dataclass(frozen=True)
class PromptBundle:
    text: str
    token_count: int
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
    return partition_columns(
        catalog, question=f"{instance.question} {instance.external_knowledge}", keep=keep)


def render_template(template: PromptTemplate, catalogs: Sequence[DatabaseCatalog],
                    keeps: Sequence[Optional[ColumnFilter]], variant: SchemaVariant) -> str:
    """The prompt `template` gives, slot i showing the schema block of
    `catalogs[i]` in `variant` under `keeps[i]`, whose values are sets, as
    `CompiledSchema.shown` reads them."""
    lines: list[str] = []
    for line in template:
        if isinstance(line, str):
            lines.append(line)
            continue
        block = compiled_schema(catalogs[line], variant).shown(keeps[line])
        if block:
            lines += [text for text, _ in block]
            # The block is stripped at its end, as render_schema's text was:
            # a name ending in newlines loses them on the block's last line.
            lines[-1] = lines[-1].rstrip("\n")
    return "\n".join(lines)


def _resolved(catalog: DatabaseCatalog, keep: Optional[ColumnFilter]):
    return None if keep is None else _validate_filter(catalog, keep)


def fit_prompt(
    template: PromptTemplate,
    sections: Sequence[PromptSection],
    limit: int,
    seed: int,
    *,
    variant: SchemaVariant,
    rates: Optional[Sequence[float]] = None,
) -> PromptBundle:
    """The one budgeted prompt builder: truncate until `template` fits `limit`.

    Slot i of `template` shows `sections[i]`'s schema block in `variant`.
    The fixed lines' counts, read through a cache of recent lines, are the
    scaffold the engine sizes the prompt from. Without rates the one
    section is passed straight to `truncate_target`; with them,
    `truncate_examples` shares the excess by those rates. The template is
    rendered once, under the returned keeps, and the bundle carries the
    record's `tokens_after`, that text's `count_tokens` count.
    """
    scaffold = sum(_line_tokens(line) for line in template if isinstance(line, str))
    if rates is None:
        (section,) = sections
        keep, record = truncate_target(section, scaffold, limit, seed, variant=variant)
        keeps = [keep]
    else:
        keeps, record = truncate_examples(sections, rates, scaffold, limit, seed, variant=variant)
    text = render_template(template, [section.catalog for section in sections], keeps, variant)
    return PromptBundle(text, record.tokens_after, record)


def open_template(
    instance: TaskInstance,
    catalog: DatabaseCatalog,
    variant: SchemaVariant,
) -> list[Union[str, int]]:
    """The zero-shot prompt's template, its schema block in slot 0: rule,
    format header, schema, question, optional knowledge note, trailing cue."""
    if instance.database_id != catalog.database_id:
        raise ValueError(
            f"instance database {instance.database_id!r} does not match "
            f"catalog {catalog.database_id!r}")
    return [RULE_LINE, OPEN_FORMAT_LINE, render_schema_format_header(variant).rstrip("\n"),
            PROPERTIES_LINE, 0, *question_lines(instance), CUE]


def open_prompt_text(
    instance: TaskInstance,
    catalog: DatabaseCatalog,
    variant: SchemaVariant,
    keep=None,
) -> str:
    return render_template(open_template(instance, catalog, variant), [catalog],
                           [_resolved(catalog, keep)], variant)


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
    return PromptBundle(text, count_tokens(text), truncation)


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


def few_shot_template(
    instance: TaskInstance,
    examples: Sequence[TaskInstance],
    variant: SchemaVariant,
) -> list[Union[str, int]]:
    """The few-shot prompt's template: example i's schema block in slot
    i + 1, each example followed by its gold SQL, and the target's in slot 0."""
    lines: list[Union[str, int]] = [
        RULE_LINE, FEW_SHOT_FORMAT_LINE, render_schema_format_header(variant).rstrip("\n"), ""]
    for slot, example in enumerate(examples, 1):
        sql = " ".join(example.gold_sql.split())
        if not sql:
            raise EmptyExampleSql(
                f"example question {example.question_id} has empty gold SQL")
        lines.extend([PROPERTIES_LINE, slot, *question_lines(example),
                      EXAMPLE_ANSWER_LINE, sql, ""])
    return [*lines, PROPERTIES_LINE, 0, TARGET_ANSWER_LINE, *question_lines(instance), CUE]


def few_shot_text(
    instance: TaskInstance,
    catalog: DatabaseCatalog,
    examples: Sequence[FewShotBlock],
    variant: SchemaVariant,
    keep=None,
) -> str:
    return render_template(
        few_shot_template(instance, [block.instance for block in examples], variant),
        [catalog, *(block.catalog for block in examples)],
        [_resolved(catalog, keep), *(_resolved(block.catalog, block.keep) for block in examples)],
        variant)


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
    return PromptBundle(text, count_tokens(text), truncation)


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
    those the gold SQL names; the pair splits the fitting render. The
    completion continues the cue line, so its count is that line's."""
    completion = completion_for(instance.gold_sql)
    template = open_template(instance, catalog, variant)
    template[-1] += completion
    section = partition_columns(catalog, reference_sql=instance.gold_sql)
    bundle = fit_prompt(template, [section], budget.max_context, seed, variant=variant)
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
    place after the last one, so a failure leaves a previous file whole.
    A lone surrogate, which a question's JSON `\\ud800` escape yields, is
    written as that escape."""
    path = Path(path)
    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", encoding="utf-8", errors="backslashreplace") as handle:
            for pair in pairs:
                handle.write(json.dumps(
                    {"prompt": pair.prompt, "completion": pair.completion},
                    ensure_ascii=False) + "\n")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
