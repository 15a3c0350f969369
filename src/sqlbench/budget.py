"""Prompt sections and the one column-truncation engine.

`partition_columns` builds a `PromptSection`: a catalog view split into
target columns, which truncation keeps, and non-target ones it may remove.

Every budget is counted with `count_tokens` (defined in `schema`, re-exported
here). Its tokens never span whitespace, so a prompt's count is the sum of
its lines' counts: the engine takes the count of a prompt's fixed lines, its
scaffold, and adds the compiled schema's line costs, without rendering or
counting the prompt itself.
"""

from __future__ import annotations

import hashlib
import logging
import math
import random
import re
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Iterable, Mapping, Optional, Sequence

from .schema import (
    ColumnFilter,
    ColumnSpec,
    DatabaseCatalog,
    SchemaVariant,
    _column_names,
    _column_pairs,
    _validate_filter,
    compiled_schema,
    count_tokens,
)
from .skeleton import strip_quotes, tokenize

logger = logging.getLogger(__name__)

DEFAULT_MAX_CONTEXT = 2048
DEFAULT_RESPONSE_RESERVE = 200

# Similarities at or below zero are clamped to this before inversion.
SIMILARITY_FLOOR = 1e-6


class UnsatisfiableBudget(RuntimeError):
    pass


def derive_seed(*parts) -> int:
    """Fold run seed + per-instance identifiers into one stable child seed."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class TokenBudget:
    max_context: int = DEFAULT_MAX_CONTEXT
    response_reserve: int = DEFAULT_RESPONSE_RESERVE

    def __post_init__(self) -> None:
        if not self.max_context > self.response_reserve > 0:
            raise ValueError("require max_context > response_reserve > 0")

    @property
    def available(self) -> int:
        """Prompt-side allowance: context length minus the response reserve."""
        return self.max_context - self.response_reserve


@dataclass(frozen=True)
class TruncationRecord:
    removed_columns: tuple[tuple[tuple[str, str], ...], ...]
    tokens_before: int
    tokens_after: int

    @property
    def total_removed(self) -> int:
        return sum(len(section) for section in self.removed_columns)

    @property
    def target_removed(self) -> int:
        return len(self.removed_columns[0]) if self.removed_columns else 0

    @property
    def example_removed(self) -> int:
        return sum(len(section) for section in self.removed_columns[1:])


_STOPWORDS = frozenset({
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "how",
    "in", "is", "it", "of", "on", "or", "that", "the", "to", "was", "were",
    "what", "which", "who", "with",
})


def _link_words(text: str) -> set[str]:
    words = {w.lower() for w in re.findall(r"[A-Za-z0-9]{2,}", text)}
    return words - _STOPWORDS


def _sql_identifiers(sql: str) -> set[str]:
    return {strip_quotes(token.text).lower() for token in tokenize(sql)
            if token.kind == "identifier"}


def _columns_by_word(
    catalog: DatabaseCatalog,
    words_of: Callable[[ColumnSpec], Iterable[str]],
) -> dict[str, tuple[tuple[str, str], ...]]:
    index: dict[str, list[tuple[str, str]]] = {}
    for table in catalog.tables:
        for column in table.columns:
            key = (table.name, column.name)
            for word in words_of(column):
                index.setdefault(word, []).append(key)
    return {word: tuple(columns) for word, columns in index.items()}


def _column_link_words(column: ColumnSpec) -> set[str]:
    words = _link_words(column.name)
    if column.description:
        words |= _link_words(column.description)
    return words


# Word -> columns indexes, built once per catalog, answer each partition
# with one lookup per mentioned word instead of a pass over all columns.
def _name_index(catalog: DatabaseCatalog) -> dict[str, tuple[tuple[str, str], ...]]:
    """Lower-cased column name -> the columns of that name."""
    return catalog.derived("columns_by_name", lambda: _columns_by_word(
        catalog, lambda column: (column.name.lower(),)))


def _link_word_index(catalog: DatabaseCatalog) -> dict[str, tuple[tuple[str, str], ...]]:
    """Link word of a column's name or description -> the columns it links."""
    return catalog.derived("columns_by_link_word", lambda: _columns_by_word(
        catalog, _column_link_words))


def _sorted_columns(catalog: DatabaseCatalog) -> tuple[tuple[str, str], ...]:
    """Every (table, column) of the catalog, sorted: the full view's order."""
    return catalog.derived("sorted_columns", lambda: tuple(sorted(_column_pairs(catalog))))


def _full_view_sizes(catalog: DatabaseCatalog) -> dict:
    """Variant -> size of the full view's schema block, filled as sized."""
    return catalog.derived("full_view_sizes", dict)


def prepare_catalog(catalog: DatabaseCatalog, variants: Iterable[SchemaVariant]) -> None:
    """Build ahead of time what the sections of `catalog` read on first use.

    That is the two word indexes `partition_columns` reads, for a question
    and for a reference SQL, the catalog's compiled schema and the full
    view's sorted columns and size in each of `variants`. A run prepares
    each catalog its questions and examples use at set-up, so that the
    first question on a database builds none of them. Every value is the
    one a first use would build.
    """
    _link_word_index(catalog)
    _name_index(catalog)
    _sorted_columns(catalog)
    names, sizes = _column_names(catalog), _full_view_sizes(catalog)
    for variant in variants:
        if variant not in sizes:
            sizes.setdefault(variant, compiled_schema(catalog, variant).tokens(names))


def partition_columns(
    catalog: DatabaseCatalog,
    reference_sql: Optional[str] = None,
    question: str = "",
    keep: Optional[ColumnFilter] = None,
) -> PromptSection:
    """The section of the columns a keep filter shows, split into crucial
    (target) and removable (non-target) sets.

    With a reference SQL (training path) the target set holds every column
    the SQL mentions by name. Without one (inference path) it holds columns
    whose name or description shares a normalized word with the question
    text. The key columns of the shown view are always target.
    """
    columns = catalog.column_set()
    if keep is not None:
        resolved = _validate_filter(catalog, keep)
        columns = {(table, column) for table, column in columns
                   if table not in resolved or column in resolved[table]}
    target = catalog.key_columns(columns)
    if reference_sql:
        words, index = _sql_identifiers(reference_sql), _name_index(catalog)
    else:
        words, index = _link_words(question), _link_word_index(catalog)
    for word in words:
        target.update(column for column in index.get(word, ()) if column in columns)
    return PromptSection(catalog, target, columns - target)


KeepFilter = dict[str, set[str]]


def plan_example_truncation(
    similarities: Sequence[float],
    temperature: float = 1.0,
) -> tuple[float, ...]:
    """Compute softmax truncation rates over inverted similarities.

    The target section's self-similarity of 1 is prepended, so k example
    similarities yield k+1 rates. A similarity at or below zero is clamped,
    with a warning, to SIMILARITY_FLOOR. Lower similarity means a strictly
    higher rate; rates always sum to 1.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    inverted = [1.0]  # the target's self-similarity, inverted
    for value in similarities:
        if value <= 0:
            logger.warning("nonpositive similarity %.4f clamped to %g", value, SIMILARITY_FLOOR)
            value = SIMILARITY_FLOOR
        inverted.append(1.0 / value)
    scaled = [x / temperature for x in inverted]
    peak = max(scaled)
    weights = [math.exp(x - peak) for x in scaled]
    total = sum(weights)
    return tuple(w / total for w in weights)


@dataclass(frozen=True, eq=False, init=False)
class PromptSection:
    """One truncatable schema section of a prompt (target or example).

    Read-only once built, so one section may be shared by any number of
    prompts, calls and threads. It is built from two disjoint sets of
    (table, column) pairs: `target`, the columns truncation keeps, and
    `non_target`, those it may remove. `keep` maps every catalog table to
    the section's columns in it (an empty set hides the table), so a section
    of a narrowed view shows only that view; `removables` is `non_target`,
    sorted, the list truncation draws from, and the section keeps only that
    list: `non_target` is read back from it as a set.
    `size(variant)` is the token count of the schema block `keep` shows.
    Truncation copies what it changes and leaves the section as built.
    A section of the full view, as every question and pool section is,
    takes its keep, column order and sizes from its catalog, which computes
    them once for all such sections, at `prepare_catalog` or on first use.
    """

    catalog: DatabaseCatalog
    target: frozenset[tuple[str, str]]
    keep: Mapping[str, frozenset[str]]
    removables: tuple[tuple[str, str], ...]
    _sizes: dict = field(repr=False)

    def __init__(self, catalog: DatabaseCatalog, target: AbstractSet[tuple[str, str]],
                 non_target: AbstractSet[tuple[str, str]]) -> None:
        target = frozenset(target)
        if not target.isdisjoint(non_target):
            raise ValueError("target and non_target overlap")
        names = _column_names(catalog)
        pairs = _column_pairs(catalog)
        if (len(target) + len(non_target) == len(pairs)
                and target <= pairs and non_target <= pairs):
            keep = names
            removables = tuple([key for key in _sorted_columns(catalog) if key in non_target])
            sizes = _full_view_sizes(catalog)
        else:
            shown: dict[str, set[str]] = {table: set() for table in names}
            for table, column in target | non_target:
                shown[table].add(column)
            # A table shown whole shares the catalog's name set, so that the
            # sections a run caches stay small.
            keep = {table: names[table] if columns == names[table] else frozenset(columns)
                    for table, columns in shown.items()}
            removables, sizes = tuple(sorted(non_target)), {}
        for name, value in (("catalog", catalog), ("target", target), ("keep", keep),
                            ("removables", removables), ("_sizes", sizes)):
            object.__setattr__(self, name, value)

    @property
    def non_target(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.removables)

    def size(self, variant: SchemaVariant) -> int:
        """count_tokens of the schema block in `variant` under `keep`,
        computed once per variant (per catalog and variant for the full
        view)."""
        size = self._sizes.get(variant)
        if size is None:
            size = self._sizes.setdefault(
                variant, compiled_schema(self.catalog, variant).tokens(self.keep))
        return size


def _truncate(
    sections: Sequence[PromptSection],
    rates: Sequence[float],
    scaffold: int,
    limit: int,
    seed: int,
    variant: SchemaVariant,
) -> tuple[list[KeepFilter], TruncationRecord]:
    """The truncation engine behind truncate_target and truncate_examples.

    Each section's keep, sorted removables and schema size in `variant`
    are read from the section, which computed them once; the engine copies
    the keeps and removables it changes, so the sections stay as built and
    may be shared. Each removal pops a sorted list at an index drawn from
    one `random.Random(seed)`: the sequence `randrange(len(list))` draws,
    inlined, which tests/test_budget.py pins with
    `test_seeded_removals_are_pinned` and the `*_at_wide_sizes` equalities
    with its `randrange` references. The record holds the popped tuples
    themselves. The prompt's size is `scaffold`, the count of its lines
    outside the schema blocks, plus the sections' schema sizes; that sum is
    `tokens_before`. Each section's schema size is then kept exact as
    columns go: a removal frees its line's cost, and one that empties a
    table or touches a foreign-key endpoint recounts the section from its
    compiled costs. Each round splits the excess over the sections that
    still have removable columns by their rates (evenly when those rates
    sum to 0), and a section stops at the first removal whose freed tokens
    reach its share. The accounted size is the full prompt's count, because
    `count_tokens` never counts a token across whitespace and every schema
    block starts with "# " and ends at a newline, so the engine renders and
    counts no text. Once the size is within `limit`, before any removal as
    after one, the loop is done and `tokens_after` is that size. If no
    removable column is left first, the call fails.
    """
    keeps = [{table: set(columns) for table, columns in section.keep.items()}
             for section in sections]
    removables = [list(section.removables) for section in sections]
    schemas = [compiled_schema(section.catalog, variant) for section in sections]
    sizes = [section.size(variant) for section in sections]
    getrandbits = random.Random(seed).getrandbits
    removed: list[list[tuple[str, str]]] = [[] for _ in sections]

    tokens_before = tokens = scaffold + sum(sizes)
    active = [i for i in range(len(sections)) if removables[i]]

    while tokens > limit:
        if not active:
            raise UnsatisfiableBudget(
                f"prompt needs {tokens} tokens with all removable columns gone "
                f"(limit {limit})")
        excess = tokens - limit
        shares = [rates[i] for i in active]
        total_share = sum(shares)
        if total_share == 0:  # every active rate underflowed
            shares, total_share = [1.0] * len(active), float(len(active))
        for i, share in zip(list(active), shares):
            quota = excess * share / total_share
            pool, keep, taken = removables[i], keeps[i], removed[i]
            costs, key_ends = schemas[i].column_costs, schemas[i].key_ends
            size = start = sizes[i]
            while start - size < quota and pool:
                # random.Random._randbelow_with_getrandbits(n), as randrange(n) draws.
                n = len(pool)
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                key = pool.pop(r)
                columns = keep[key[0]]
                columns.discard(key[1])
                taken.append(key)
                if columns and key not in key_ends:
                    size -= costs[key]
                else:
                    size = schemas[i].tokens(keep)
            sizes[i] = size
            if not pool:
                active.remove(i)
        tokens = scaffold + sum(sizes)

    record = TruncationRecord(
        tuple(tuple(section) for section in removed), tokens_before, tokens)
    return keeps, record


def truncate_target(
    section: PromptSection,
    scaffold: int,
    limit: int,
    seed: int,
    *,
    variant: SchemaVariant,
) -> tuple[KeepFilter, TruncationRecord]:
    """Randomly drop `section`'s non-target columns until the prompt fits.

    The one-section case of truncate_examples, at rate 1: truncation starts
    from `section`'s keep, removables and sizes and leaves `section` as
    built. `scaffold` is the token count of the prompt's lines outside the
    schema block, which is rendered in `variant`; the loop stops at the
    first removal after which the scaffold plus the block's size is within
    `limit`. Nothing is rendered: the caller renders the returned keep.
    """
    keeps, record = _truncate([section], (1.0,), scaffold, limit, seed, variant)
    return keeps[0], record


def truncate_examples(
    sections: Sequence[PromptSection],
    rates: Sequence[float],
    scaffold: int,
    limit: int,
    seed: int,
    *,
    variant: SchemaVariant,
) -> tuple[list[KeepFilter], TruncationRecord]:
    """Apportion the token excess across sections proportionally to rates.

    sections[0] is the target, the rest are examples in prompt order; rates
    align by index, and `scaffold` is the token count of the prompt's lines
    outside its schema blocks, which are rendered in `variant`. Each
    section sheds random non-target columns until its token quota is met or
    its removable set is exhausted, with leftover excess re-apportioned
    over the remaining sections by renormalized rates (evenly once those
    sum to 0). The sections themselves are left unchanged, and nothing is
    rendered: the caller renders the returned keeps.
    """
    if len(sections) != len(rates):
        raise ValueError(f"{len(sections)} sections but {len(rates)} truncation rates")
    return _truncate(sections, rates, scaffold, limit, seed, variant)
