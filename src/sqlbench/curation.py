"""Few-shot example curation.

Each pool candidate is scored by the average of three cosine similarities
against the target: question vs question, rendered schema vs rendered
schema, and the target's draft SQL vs the candidate's gold SQL. The top-k
by average similarity are kept and emitted in ascending order, so the most
similar example sits last, nearest the target block.

An embedding is a float64 array from the moment it is parsed. An
`ExamplePool` is built from its N candidates and 2N + D vectors, as
`build_pool`'s one embedding call returns them: the N questions, the N gold
SQLs, then the D distinct rendered schemas in order of first use. It alone
keeps those vectors, as (N, d) question and SQL matrices and a (D, d)
schema matrix with an (N,) index of each candidate's schema row, so a
schema shared by many candidates is held once, and it keeps the function
that embedded them, which embeds every target into the same space.

`curate_top_k` finds that top-k in two passes: a screen of the whole pool
with three matrix-vector products over those matrices, the schema's D
products broadcast through the index, then an exact rescoring, with the
scalar cosine that `score_candidates` uses, of only the candidates the
screen cannot rule out. The selection is the one full exact scoring gives,
bit for bit.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .bench import TaskInstance
from .budget import PromptSection, partition_columns
from .schema import DatabaseCatalog, SchemaVariant, render_schema

if TYPE_CHECKING:
    import numpy as np

    # A float64 array with its L2 norm, the operands of _cosine.
    Vector = tuple[np.ndarray, float]

# numpy is imported by the functions that build vectors and pools, so that a
# run that does not curate never loads it.


class ZeroVector(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


# texts -> one vector per text, in order: an (n, d) float64 array, as
# LlmClient.embed returns, or equal-length float sequences.
EmbeddingFn = Callable[[Sequence[str]], "np.ndarray | Sequence[Sequence[float]]"]


def _vector(values: Sequence[float]) -> Vector:
    """A float64 array with its L2 norm, the operands of _cosine."""
    import numpy as np

    array = np.asarray(values, dtype=float)
    return array, float(np.linalg.norm(array))


def _cosine(a: Vector, b: Vector) -> float:
    (va, na), (vb, nb) = a, b
    if va.shape != vb.shape or va.ndim != 1:
        raise DimensionMismatch(f"vector shapes differ: {va.shape} vs {vb.shape}")
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine undefined for a zero vector")
    value = float(va.dot(vb) / (na * nb))
    return max(-1.0, min(1.0, value))


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    return _cosine(_vector(a), _vector(b))


@dataclass(frozen=True)
class SimilarityTriple:
    candidate_index: int
    gamma_q: float
    gamma_d: float
    gamma_s: float

    @property
    def gamma_a(self) -> float:
        return (self.gamma_q + self.gamma_d + self.gamma_s) / 3


@dataclass(frozen=True)
class PoolCandidate:
    """A pool example: its question and gold SQL, and its database's catalog."""

    instance: TaskInstance
    catalog: DatabaseCatalog


class ExamplePool:
    """The embedded example candidates of a run.

    `vectors` holds 2N + D rows, as `build_pool`'s embedding call returns
    them: each candidate's question, then each candidate's gold SQL, then
    the D distinct schema texts of `_schema_texts` in order. The pool keeps
    them once: as (N, d) question and SQL matrices and a (D, d) schema
    matrix (views of `vectors` itself when it is a (2N + D, d) float64
    array), each with its rows' L2 norms, and `_schema_rows`, the (N,) index
    of each candidate's schema row. `embed` is the function that embedded
    `vectors`; every target is embedded through it.

    Beside `_schema_vectors`, the pool keeps two caches that questions fill
    on first use, not `build_pool`: `_scored`, the candidates scored for a
    target of each database id, and `_sections`, each candidate's example
    `PromptSection` (see `section`), shared read-only by every prompt that
    shows it. A value is the same whichever worker builds it, so when two
    workers race, either store may win.
    """

    def __init__(self, candidates: Sequence[PoolCandidate],
                 vectors: np.ndarray | Sequence[Sequence[float]],
                 variant: SchemaVariant, embed: EmbeddingFn) -> None:
        import numpy as np

        self.candidates = tuple(candidates)
        self.variant = variant
        self.embed = embed
        count = len(self.candidates)
        schemas = _schema_texts([c.catalog for c in self.candidates], variant)
        if len(vectors) != 2 * count + len(schemas):
            raise ValueError(f"{count} pool candidates over {len(schemas)} schemas need "
                             f"{2 * count + len(schemas)} vectors, got {len(vectors)}")
        dims = {len(vector) for vector in vectors}
        if len(dims) > 1:
            raise DimensionMismatch(f"pool embeddings have mixed dimensions: {sorted(dims)}")
        stacked = np.asarray(vectors, dtype=float).reshape(len(vectors), dims.pop() if dims else 0)
        # Question, schema and SQL matrices, in the order of a SimilarityTriple.
        self._matrices = stacked[:count], stacked[2 * count:], stacked[count:2 * count]
        # Row by row, as _vector computes each norm, so the bits agree.
        self._norms = tuple(np.array([np.linalg.norm(row) for row in matrix], dtype=float)
                            for matrix in self._matrices)
        self._schema_rows = np.array(
            [schemas[_schema_text(c.catalog, variant)] for c in self.candidates], dtype=np.intp)
        # Rendered schema text -> its vector, filled here and by each target
        # schema embedded, so a run embeds each distinct schema once.
        self._schema_vectors: dict[str, Vector] = {
            text: (self._matrices[1][row], float(self._norms[1][row]))
            for text, row in schemas.items()}
        self._scored: dict[str, tuple[int, ...]] = {}
        self._sections: dict[int, PromptSection] = {}

    def section(self, index: int) -> PromptSection:
        """Candidate `index`'s example section, its catalog partitioned by
        its gold SQL: built on first use, then shared read-only by every
        prompt that shows the candidate."""
        section = self._sections.get(index)
        if section is None:
            candidate = self.candidates[index]
            section = self._sections.setdefault(index, partition_columns(
                candidate.catalog, reference_sql=candidate.instance.gold_sql))
        return section


def _schema_text(catalog: DatabaseCatalog, variant: SchemaVariant) -> str:
    """The catalog's full schema block in `variant`, rendered once per catalog."""
    return catalog.derived(("schema_text", variant), lambda: render_schema(catalog, variant))


def _schema_texts(catalogs: Sequence[DatabaseCatalog], variant: SchemaVariant) -> dict[str, int]:
    """Each distinct schema text of `catalogs` -> its row, in order of first use."""
    rows: dict[str, int] = {}
    for catalog in catalogs:
        rows.setdefault(_schema_text(catalog, variant), len(rows))
    return rows


def build_pool(
    candidates: Sequence[tuple[TaskInstance, DatabaseCatalog]],
    variant: SchemaVariant,
    embed: EmbeddingFn,
) -> ExamplePool:
    """Embed every candidate's question and gold SQL and each distinct
    rendered schema, in one call whose result and function the pool keeps."""
    texts = [instance.question for instance, _ in candidates]
    texts += [instance.gold_sql for instance, _ in candidates]
    texts += _schema_texts([catalog for _, catalog in candidates], variant)
    return ExamplePool([PoolCandidate(instance, catalog) for instance, catalog in candidates],
                       embed(texts), variant, embed)


def _target_vectors(
    target: TaskInstance,
    target_catalog: DatabaseCatalog,
    draft_sql: str,
    pool: ExamplePool,
) -> tuple[Vector, Vector, Vector]:
    """The target's question, schema and draft SQL vectors, by `pool.embed`.
    Its schema is embedded only when the pool has not seen that rendered
    text; two workers that miss it at once both embed it, to the same vector."""
    schema = _schema_text(target_catalog, pool.variant)
    target_d = pool._schema_vectors.get(schema)
    if target_d is None:
        target_q, target_d, target_s = (
            _vector(v) for v in pool.embed([target.question, schema, draft_sql]))
        pool._schema_vectors[schema] = target_d
    else:
        target_q, target_s = (_vector(v) for v in pool.embed([target.question, draft_sql]))
    return target_q, target_d, target_s


def _scored_indexes(target: TaskInstance, pool: ExamplePool) -> tuple[int, ...]:
    """Indexes of the candidates from another database than the target's,
    listed once per database id."""
    database_id = target.database_id
    indexes = pool._scored.get(database_id)
    if indexes is None:
        indexes = pool._scored.setdefault(database_id, tuple(
            index for index, candidate in enumerate(pool.candidates)
            if candidate.instance.database_id != database_id))
    return indexes


def _triple(targets: tuple[Vector, Vector, Vector], pool: ExamplePool,
            index: int) -> SimilarityTriple:
    rows = index, pool._schema_rows[index], index
    (target_q, target_d, target_s), (cand_q, cand_d, cand_s) = targets, (
        (matrix[row], float(norms[row]))
        for matrix, norms, row in zip(pool._matrices, pool._norms, rows))
    return SimilarityTriple(
        candidate_index=index,
        gamma_q=_cosine(target_q, cand_q),
        gamma_d=_cosine(target_d, cand_d),
        gamma_s=_cosine(target_s, cand_s),
    )


def score_candidates(
    target: TaskInstance,
    target_catalog: DatabaseCatalog,
    draft_sql: str,
    pool: ExamplePool,
) -> list[SimilarityTriple]:
    """Score every cross-domain pool candidate against the target.

    Candidates sharing the target's database id are filtered out before
    scoring. The draft SQL is the model's zero-shot prediction for the
    target question.
    """
    targets = _target_vectors(target, target_catalog, draft_sql, pool)
    return [_triple(targets, pool, index) for index in _scored_indexes(target, pool)]


def select_top_k(triples: Sequence[SimilarityTriple], k: int) -> tuple[SimilarityTriple, ...]:
    """Keep the k highest-average candidates, emitted ascending.

    Ties on the average break toward the lower candidate index. A k larger
    than the pool returns everything; k=0 reverts to zero-shot.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    ranked = sorted(triples, key=lambda t: (-t.gamma_a, t.candidate_index))
    return tuple(sorted(ranked[:k], key=lambda t: (t.gamma_a, t.candidate_index)))


# Far above the error of a screened cosine, which is within a few d * 2**-53
# of the exact one (about 1e-13 at d = 384).
SCREEN_MARGIN = 1e-9
_NORMAL = sys.float_info.min  # np.finfo(float).tiny


def _screen(targets: tuple[Vector, Vector, Vector],
            pool: ExamplePool) -> tuple[list[float], list[bool]]:
    """Each candidate's screened gamma_a, and whether the error bound covers
    it: the screen is finite and the norms multiply to a normal float.
    Clamping to [-1, 1] moves a cosine by less than its error, so the
    screen skips it. The D schema cosines reach the N candidates through
    the pool's schema index."""
    import numpy as np

    total = 0
    sure = True
    with np.errstate(all="ignore"):
        for (vector, norm), matrix, norms, rows in zip(
                targets, pool._matrices, pool._norms, (None, pool._schema_rows, None)):
            scale = norms * norm
            value = matrix @ vector / scale
            covered = (scale >= _NORMAL) & np.isfinite(value)
            if rows is not None:
                value, covered = value[rows], covered[rows]
            sure = sure & covered
            total = total + value
    return (total / 3).tolist(), sure.tolist()


def curate_top_k(
    target: TaskInstance,
    target_catalog: DatabaseCatalog,
    draft_sql: str,
    pool: ExamplePool,
    k: int,
) -> tuple[SimilarityTriple, ...]:
    """select_top_k(score_candidates(...), k), scoring exactly only
    the candidates a screen cannot rule out.

    The screen puts every scored candidate's gamma_a within far less than
    SCREEN_MARGIN of its exact value. A candidate screened more than the
    margin below the k-th largest screened value has k candidates whose
    exact gamma_a is above its own, so it cannot be selected. Every other
    candidate, and every one the screen is unsure of, is rescored in index
    order with the exact cosine and ranked by select_top_k: set, order,
    bits and index tie-breaks equal full scoring. A candidate with a zero
    vector is always rescored, so ZeroVector and DimensionMismatch fire as
    in score_candidates, for scored candidates only.
    """
    targets = _target_vectors(target, target_catalog, draft_sql, pool)
    rows = _scored_indexes(target, pool)
    if 0 < k < len(rows) and all(
            vector.shape == pool._matrices[0].shape[1:] for vector, _ in targets):
        screened, sure = _screen(targets, pool)
        kth = heapq.nlargest(k, (screened[i] if sure[i] else -math.inf for i in rows))[-1]
        rows = [i for i in rows if not sure[i] or screened[i] >= kth - SCREEN_MARGIN]
    return select_top_k([_triple(targets, pool, index) for index in rows], k)
