"""Few-shot example curation.

Each pool candidate is scored by the average of three cosine similarities
against the target: question vs question, rendered schema vs rendered
schema, and the target's draft SQL vs the candidate's gold SQL. The top-k
by average similarity are kept and emitted in ascending order, so the most
similar example sits last, nearest the target block.

An embedding is a float64 array from the moment it is parsed: `build_pool`
takes the embedding function's one (3N, d) result and keeps the pool's
question, schema and SQL vectors as three (N, d) matrices, whose rows every
`PoolCandidate` holds as views.

`curate_top_k` finds that top-k in two passes: a screen of the whole pool
with three matrix-vector products over those matrices, then an exact
rescoring, with the scalar cosine that `score_candidates` uses, of only the
candidates the screen cannot rule out. The selection is the one full exact
scoring gives, bit for bit.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import InitVar, dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Optional, Sequence

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
# LlmClient.embed returns, or equal-length float sequences, such as the
# tuples EmbeddingCache returns.
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
    """A pool example and its question, schema and SQL vectors. In a pool,
    the vectors are row views of the pool's matrices. They take no part in
    comparison or hashing, which arrays do not support."""

    instance: TaskInstance
    catalog: DatabaseCatalog
    question_vec: np.ndarray | Sequence[float] = field(compare=False)
    schema_vec: np.ndarray | Sequence[float] = field(compare=False)
    sql_vec: np.ndarray | Sequence[float] = field(compare=False)


_VECTOR_FIELDS = ("question_vec", "schema_vec", "sql_vec")


def _split_matrices(vectors: np.ndarray | Sequence[Sequence[float]],
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interleaved question, schema and SQL vectors, 3N of them, as the
    three (N, d) float64 matrices of their every third row from 0, 1 and 2:
    views of `vectors` itself when it is a (3N, d) float64 array."""
    import numpy as np

    dims = {len(vector) for vector in vectors}
    if len(dims) > 1:
        raise DimensionMismatch(f"pool embeddings have mixed dimensions: {sorted(dims)}")
    stacked = np.asarray(vectors, dtype=float).reshape(len(vectors), dims.pop() if dims else 0)
    return stacked[0::3], stacked[1::3], stacked[2::3]


@dataclass(frozen=True)
class ExamplePool:
    """The embedded example candidates of a run.

    Beside `_schema_vectors`, the pool keeps two caches that questions fill
    on first use, not `build_pool`: `_scored`, the candidates scored for a
    target of each database id, and `_sections`, each candidate's example
    `PromptSection` (see `section`), shared read-only by every prompt that
    shows it. A value is the same whichever worker builds it, so when two
    workers race, either store may win.
    """

    candidates: tuple[PoolCandidate, ...]
    variant: SchemaVariant = SchemaVariant.C_VDT
    # The (N, d) float64 matrices whose rows are the candidates' question,
    # schema and SQL vectors, as build_pool passes them. Without them the
    # pool stacks its candidates' vectors, as for a pool built by hand.
    matrices: InitVar[Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]] = None
    # Those matrices, and their rows' L2 norms as one (3, N) array.
    _matrices: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False)
    _norms: np.ndarray = field(init=False, repr=False, compare=False)
    # Per candidate, its (question, schema, SQL) vectors as _cosine consumes
    # them: row views of _matrices with their norms, not copies.
    _vectors: tuple[tuple[Vector, Vector, Vector], ...] = field(
        init=False, repr=False, compare=False)
    # Rendered schema text -> its vector, filled by build_pool and by each
    # target schema embedded, so a run embeds each distinct schema once.
    _schema_vectors: dict[str, Vector] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _scored: dict[str, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _sections: dict[int, PromptSection] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self, matrices) -> None:
        import numpy as np

        candidates = tuple(self.candidates)
        if matrices is None:
            matrices = _split_matrices(
                [getattr(cand, name) for cand in candidates for name in _VECTOR_FIELDS])
            candidates = tuple(
                replace(cand, **{name: matrix[i] for name, matrix in zip(_VECTOR_FIELDS, matrices)})
                for i, cand in enumerate(candidates))
        # Row by row, as _vector computes each norm, so the bits agree.
        norms = np.array([[np.linalg.norm(row) for row in matrix] for matrix in matrices],
                         dtype=float).reshape(3, len(candidates))
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "_matrices", matrices)
        object.__setattr__(self, "_norms", norms)
        object.__setattr__(self, "_vectors", tuple(
            tuple((getattr(cand, name), float(norms[j, i]))
                  for j, name in enumerate(_VECTOR_FIELDS))
            for i, cand in enumerate(candidates)))

    def section(self, index: int) -> PromptSection:
        """Candidate `index`'s example section, its catalog partitioned by
        its gold SQL: built on first use, then shared read-only by every
        prompt that shows the candidate."""
        section = self._sections.get(index)
        if section is None:
            candidate = self.candidates[index]
            section = self._sections.setdefault(index, PromptSection(
                candidate.catalog, partition_columns(
                    candidate.catalog, reference_sql=candidate.instance.gold_sql)))
        return section


def _schema_text(catalog: DatabaseCatalog, variant: SchemaVariant) -> str:
    """The catalog's full schema block in `variant`, rendered once per catalog."""
    return catalog.derived(("schema_text", variant), lambda: render_schema(catalog, variant))


def build_pool(
    candidates: Sequence[tuple[TaskInstance, DatabaseCatalog]],
    variant: SchemaVariant,
    embed: EmbeddingFn,
) -> ExamplePool:
    """Embed question, rendered schema and gold SQL for every candidate.
    The pool's matrices are views of the one (3N, d) array `embed` returns."""
    texts: list[str] = []
    for instance, catalog in candidates:
        texts.extend((
            instance.question,
            _schema_text(catalog, variant),
            instance.gold_sql,
        ))
    matrices = _split_matrices(embed(texts))
    pool = ExamplePool(tuple(
        PoolCandidate(instance, catalog, *(matrix[i] for matrix in matrices))
        for i, (instance, catalog) in enumerate(candidates)), variant, matrices)
    for i, (_, schema_vector, _) in enumerate(pool._vectors):
        pool._schema_vectors.setdefault(texts[3 * i + 1], schema_vector)
    return pool


def _target_vectors(
    target: TaskInstance,
    target_catalog: DatabaseCatalog,
    draft_sql: str,
    pool: ExamplePool,
    embed: EmbeddingFn,
) -> tuple[Vector, Vector, Vector]:
    """The target's question, schema and draft SQL vectors. Its schema is
    embedded only when the pool has not seen that rendered text; two workers
    that miss it at once both embed it, to the same vector."""
    schema = _schema_text(target_catalog, pool.variant)
    target_d = pool._schema_vectors.get(schema)
    if target_d is None:
        target_q, target_d, target_s = (
            _vector(v) for v in embed([target.question, schema, draft_sql]))
        pool._schema_vectors[schema] = target_d
    else:
        target_q, target_s = (_vector(v) for v in embed([target.question, draft_sql]))
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
    (target_q, target_d, target_s), (cand_q, cand_d, cand_s) = targets, pool._vectors[index]
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
    embed: EmbeddingFn,
) -> list[SimilarityTriple]:
    """Score every cross-domain pool candidate against the target.

    Candidates sharing the target's database id are filtered out before
    scoring. The draft SQL is the model's zero-shot prediction for the
    target question.
    """
    targets = _target_vectors(target, target_catalog, draft_sql, pool, embed)
    return [_triple(targets, pool, index) for index in _scored_indexes(target, pool)]


@dataclass(frozen=True)
class CuratedSet:
    examples: tuple[tuple[Optional[TaskInstance], SimilarityTriple], ...]
    k: int

    @property
    def triples(self) -> tuple[SimilarityTriple, ...]:
        return tuple(triple for _, triple in self.examples)

    @property
    def similarities(self) -> tuple[float, ...]:
        return tuple(triple.gamma_a for _, triple in self.examples)


def select_top_k(
    triples: Sequence[SimilarityTriple],
    k: int,
    pool: Optional[ExamplePool] = None,
) -> CuratedSet:
    """Keep the k highest-average candidates, emitted ascending.

    Ties on the average break toward the lower candidate index. A k larger
    than the pool returns everything; k=0 reverts to zero-shot.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    ranked = sorted(triples, key=lambda t: (-t.gamma_a, t.candidate_index))
    selected = sorted(ranked[:k], key=lambda t: (t.gamma_a, t.candidate_index))
    examples = tuple(
        (pool.candidates[t.candidate_index].instance if pool is not None else None, t)
        for t in selected
    )
    return CuratedSet(examples, k)


# Far above the error of a screened cosine, which is within a few d * 2**-53
# of the exact one (about 1e-13 at d = 384).
SCREEN_MARGIN = 1e-9
_NORMAL = sys.float_info.min  # np.finfo(float).tiny


def _screen(targets: tuple[Vector, Vector, Vector],
            pool: ExamplePool) -> tuple[list[float], list[bool]]:
    """Each candidate's screened gamma_a, and whether the error bound covers
    it: the screen is finite and the norms multiply to a normal float.
    Clamping to [-1, 1] moves a cosine by less than its error, so the
    screen skips it."""
    import numpy as np

    total = 0
    sure = True
    with np.errstate(all="ignore"):
        for (vector, norm), matrix, norms in zip(targets, pool._matrices, pool._norms):
            scale = norms * norm
            value = matrix @ vector / scale
            sure = sure & (scale >= _NORMAL) & np.isfinite(value)
            total = total + value
    return (total / 3).tolist(), sure.tolist()


def curate_top_k(
    target: TaskInstance,
    target_catalog: DatabaseCatalog,
    draft_sql: str,
    pool: ExamplePool,
    k: int,
    embed: EmbeddingFn,
) -> CuratedSet:
    """select_top_k(score_candidates(...), k, pool), scoring exactly only
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
    targets = _target_vectors(target, target_catalog, draft_sql, pool, embed)
    rows = _scored_indexes(target, pool)
    if 0 < k < len(rows) and all(
            vector.shape == pool._matrices[0].shape[1:] for vector, _ in targets):
        screened, sure = _screen(targets, pool)
        kth = heapq.nlargest(k, (screened[i] if sure[i] else -math.inf for i in rows))[-1]
        rows = [i for i in rows if not sure[i] or screened[i] >= kth - SCREEN_MARGIN]
    return select_top_k([_triple(targets, pool, index) for index in rows], k, pool)
