"""Command-line interface.

Subcommands: ingest-check, serialize-schema, build-prompt, curate, run,
prep-sft, report. Configuration comes from an optional JSON config file
with flag overrides (flags win over environment, environment over file);
every run writes a config snapshot sufficient to reproduce it bit-for-bit
in replay mode. All randomness flows from the single truncation seed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import Field, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Optional, Sequence, get_args, get_type_hints

from .bench import BenchmarkSplit, TaskInstance, database_path, load_questions, load_split
from .budget import (
    PromptSection,
    TokenBudget,
    TruncationRecord,
    clamp_similarity,
    derive_seed,
    plan_example_truncation,
    prepare_catalog,
)
from .cot import ALL_MODES, MODE_NONE, STEP_VARIANTS, CotTrace, run_cot
from .curation import CuratedSet, EmbeddingFn, ExamplePool, build_pool, curate_top_k
from .evaluate import DatabaseConnections, EvalOutcome, aggregate, execute_and_compare
from .gateway import (
    REPLAY_MODES,
    EmbeddingCache,
    LlmClient,
    LlmEndpoint,
    PooledTransport,
    ReplayMiss,
    ReplayStore,
    extract_sql,
)
from .prompts import (
    PromptBundle,
    emit_sft_dataset,
    few_shot_template,
    fit_prompt,
    open_template,
    question_section,
    require_sft_budget,
    write_sft_jsonl,
)
from .schema import SchemaVariant, render_schema
from .taxonomy import ErrorLabel, classify, tabulate

logger = logging.getLogger(__name__)


def _setting(default, **metadata):
    """A RunConfig field. Optional metadata: `flag` (default `--` + name with
    dashes; None: none), `env` (its environment variable), `snapshot` (the
    attribute `snapshot()` records, under its name; default the field, None:
    not recorded), `choices` and `help` (the flag's help)."""
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """Each run setting, declared once: flags, environment map, snapshot and
    checks derive from these fields. Path fields take a str, float an int."""

    benchmark_root: Path = Path(".")
    split: str = "dev"
    variant: SchemaVariant = SchemaVariant.C_VDT
    mode: str = _setting(MODE_NONE, choices=ALL_MODES)
    shots: int = 0
    pool_split: Optional[str] = None
    max_context: int = 2048
    response_reserve: int = 200
    temperature: float = _setting(1.0, help="softmax temperature for example truncation rates")
    truncation_seed: int = _setting(0, flag="--seed")
    base_url: str = _setting("http://localhost:8000", env="SQLBENCH_BASE_URL", snapshot=None)
    model_id: str = _setting("local-model", flag="--model")
    sampling_temperature: float = 0.001
    max_response_tokens: int = 200
    chat_style: bool = _setting(False, snapshot=None)
    api_key: Optional[str] = _setting(None, flag=None, env="SQLBENCH_API_KEY", snapshot=None)
    embed_base_url: Optional[str] = _setting(None, env="SQLBENCH_EMBED_BASE_URL", snapshot=None)
    embed_model_id: Optional[str] = _setting(
        None, flag="--embed-model", snapshot="embedding_model_id")
    embed_api_key: Optional[str] = _setting(
        None, flag=None, env="SQLBENCH_EMBED_API_KEY", snapshot=None)
    replay_store: Optional[Path] = None
    replay_mode: str = _setting("live", choices=REPLAY_MODES)
    embedding_cache: Optional[Path] = _setting(None, snapshot=None)
    output_dir: Path = _setting(Path("out"), snapshot=None)
    workers: int = _setting(1, snapshot=None)
    query_timeout: float = 30.0

    def __post_init__(self) -> None:
        for setting, kind, optional, choices in _SETTINGS:
            name, value = setting.name, getattr(self, setting.name)
            if value is None and optional:
                continue
            if choices and value not in choices:
                raise ValueError(f"{name}: expected one of {choices}, got {value!r}")
            if isinstance(value, str) and issubclass(kind, (Path, Enum)):
                value = kind(value)
                setattr(self, name, value)
            accepted = (int, float) if kind is float else kind
            if not isinstance(value, accepted) or isinstance(value, bool) != (kind is bool):
                raise ValueError(f"{name}: expected {kind.__name__}, got {value!r}")
        for name, low in (("shots", 0), ("workers", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        for name in ("temperature", "query_timeout"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        self.budget = TokenBudget(self.max_context, self.response_reserve)
        # Each endpoint checks its base URL; the completion one also checks
        # sampling_temperature and max_response_tokens.
        self.endpoint()
        self.embed_endpoint()
        if self.shots > 0 and not self.pool_split:
            raise ValueError("shots > 0 requires a pool split")
        if self.shots > 0 and self.mode != MODE_NONE:
            raise ValueError("few-shot examples apply to single-prompt runs only "
                             "(mode must be 'none' when shots > 0)")
        if self.replay_mode in ("record", "replay") and not self.replay_store:
            raise ValueError(f"replay_mode {self.replay_mode!r} requires a replay store path")

    @property
    def embedding_model_id(self) -> str:
        return self.embed_model_id or self.model_id

    def endpoint(self) -> LlmEndpoint:
        return LlmEndpoint(
            base_url=self.base_url,
            model_id=self.model_id,
            sampling_temperature=self.sampling_temperature,
            max_response_tokens=self.max_response_tokens,
            api_key=self.api_key,
            chat_style=self.chat_style,
        )

    def embed_endpoint(self) -> LlmEndpoint:
        return LlmEndpoint(
            base_url=self.embed_base_url or self.base_url,
            model_id=self.embedding_model_id,
            api_key=self.embed_api_key or self.api_key,
        )

    def snapshot(self) -> dict:
        """Reproducibility snapshot; credentials never land in reports."""
        recorded = {key: getattr(self, key) for key in _SNAPSHOT_KEYS}
        return {key: value.value if isinstance(value, Enum)
                else str(value) if isinstance(value, Path) else value
                for key, value in recorded.items()}


def _settings() -> list[tuple[Field, type, bool, Optional[list]]]:
    """(field, type, whether None is allowed, accepted values) per setting;
    an enum setting accepts its members' values."""
    hints = get_type_hints(RunConfig)
    settings = []
    for setting in fields(RunConfig):
        kind, *none = get_args(hints[setting.name]) or (hints[setting.name],)
        choices = ([member.value for member in kind] if issubclass(kind, Enum)
                   else setting.metadata.get("choices"))
        settings.append((setting, kind, bool(none), list(choices) if choices else None))
    return settings


_SETTINGS = _settings()
_CONFIG_FIELDS = {setting.name for setting, *_ in _SETTINGS}
_ENV = {s.name: s.metadata["env"] for s, *_ in _SETTINGS if "env" in s.metadata}
_SNAPSHOT_KEYS = [key for key in (s.metadata.get("snapshot", s.name) for s, *_ in _SETTINGS)
                  if key is not None]


def load_config(
    config_file: Optional[Path],
    overrides: Optional[dict] = None,
) -> RunConfig:
    """Merge defaults <- config file <- environment <- explicit overrides."""
    values: dict = {}
    if config_file:
        raw = json.loads(Path(config_file).read_text(encoding="utf-8"))
        unknown = set(raw) - _CONFIG_FIELDS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update(raw)
    values.update({name: os.environ[env] for name, env in _ENV.items() if os.environ.get(env)})
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)


def _client(cfg: RunConfig, endpoint: LlmEndpoint, transport,
            store: Optional[ReplayStore]) -> LlmClient:
    """A client over `transport`, else over a new PooledTransport unless it
    only replays: a replay client sends nothing, so it gets no transport
    and its run never loads the network modules."""
    if store is None and cfg.replay_store:
        store = ReplayStore(cfg.replay_store)
    if transport is None and cfg.replay_mode != "replay":
        transport = PooledTransport()
    return LlmClient(endpoint, mode=cfg.replay_mode, store=store, transport=transport)


def build_client(cfg: RunConfig, *, transport=None) -> LlmClient:
    return _client(cfg, cfg.endpoint(), transport, None)


def build_embed_client(cfg: RunConfig, *, transport=None,
                       store: Optional[ReplayStore] = None) -> LlmClient:
    """Embedding client; pass the completion client's `store` and
    `transport` to share them, so the store file is read once and appended
    to under one lock, and each thread keeps one connection."""
    return _client(cfg, cfg.embed_endpoint(), transport, store)


def _zero_shot_bundle(
    cfg: RunConfig,
    instance: TaskInstance,
    target: PromptSection,
) -> PromptBundle:
    """Open prompt with target column truncation against the budget."""
    return fit_prompt(
        "zero_shot", open_template(instance, target.catalog, cfg.variant),
        [target], cfg.budget.available,
        derive_seed(cfg.truncation_seed, instance.question_id, "target"),
        variant=cfg.variant)


def _load_pool(
    cfg: RunConfig,
    split: BenchmarkSplit,
    embed_client: LlmClient,
) -> tuple[ExamplePool, EmbeddingFn]:
    """Embed the pool split's candidates over `split`'s catalogs. Returns the
    pool and the embedding function, the client's or the cache over it."""
    pool_split = BenchmarkSplit(
        cfg.pool_split, load_questions(cfg.benchmark_root, cfg.pool_split), split.databases)
    embed = embed_client.embed
    if cfg.embedding_cache:
        embed = EmbeddingCache(cfg.embedding_cache, cfg.embedding_model_id, embed)
    pool = build_pool(
        [(inst, pool_split.databases[inst.database_id]) for inst in pool_split.instances],
        cfg.variant, embed)
    return pool, embed


def _prepare_catalogs(cfg: RunConfig, split: BenchmarkSplit,
                      pool: Optional[ExamplePool]) -> None:
    """Prepare each catalog the questions and the pool's candidates use,
    in the variants the run's prompts render (`prepare_catalog`)."""
    variants = (cfg.variant,) if cfg.mode == MODE_NONE else STEP_VARIANTS
    questions = {i.database_id: split.databases[i.database_id] for i in split.instances}
    examples = {c.instance.database_id: c.catalog for c in pool.candidates} if pool else {}
    for database_id, catalog in {**questions, **examples}.items():
        prepare_catalog(catalog, variants, by_question=database_id in questions,
                        by_sql=database_id in examples)


def _curate(
    cfg: RunConfig,
    instance: TaskInstance,
    target: PromptSection,
    pool: ExamplePool,
    client: LlmClient,
    embed: EmbeddingFn,
) -> tuple[str, CuratedSet]:
    """Draft a zero-shot query, score the pool against it, keep the top k.

    k is `cfg.shots`; `curate` without --shots keeps one example.
    """
    draft_sql = extract_sql(client.complete(_zero_shot_bundle(cfg, instance, target)))
    return draft_sql, curate_top_k(
        instance, target.catalog, draft_sql, pool, cfg.shots or 1, embed)


def _few_shot_bundle(
    cfg: RunConfig,
    instance: TaskInstance,
    catalog,
    pool: ExamplePool,
    client: LlmClient,
    embed: EmbeddingFn,
) -> PromptBundle:
    """Curate, truncate and assemble the k-shot prompt for one instance."""
    target = question_section(instance, catalog)
    _, curated = _curate(cfg, instance, target, pool, client, embed)
    indexes = [triple.candidate_index for _, triple in curated.examples]
    examples = [pool.candidates[index] for index in indexes]
    similarities = [clamp_similarity(triple.gamma_a) for _, triple in curated.examples]
    plan = plan_example_truncation(similarities, cfg.temperature)

    return fit_prompt(
        "few_shot", few_shot_template(
            instance, [example.instance for example in examples], cfg.variant),
        [target, *(pool.section(index) for index in indexes)], cfg.budget.available,
        derive_seed(cfg.truncation_seed, instance.question_id, "examples"),
        variant=cfg.variant, plan=plan)


def _instance_truncation(trace: CotTrace) -> TruncationRecord:
    """Fold the per-step records of a trace into one per-instance record."""
    removed: list[tuple[str, str]] = []
    examples_removed: list[tuple[tuple[str, str], ...]] = []
    before = after = 0
    for record in (bundle.truncation for bundle in trace.step_prompts):
        removed.extend(record.removed_columns[0])
        examples_removed.extend(record.removed_columns[1:])
        before += record.tokens_before
        after += record.tokens_after
    return TruncationRecord((tuple(removed), *examples_removed), before, after)


def process_instance(
    cfg: RunConfig,
    instance: TaskInstance,
    split: BenchmarkSplit,
    client: LlmClient,
    embed: Optional[EmbeddingFn] = None,
    pool: Optional[ExamplePool] = None,
    connections: Optional[DatabaseConnections] = None,
) -> tuple[CotTrace, EvalOutcome, Optional[dict]]:
    """Prompt -> complete -> extract -> execute -> classify, error-isolated.

    A replay miss is not isolated: it raises, because the run can no longer
    reproduce the recorded one. The queries run on `connections` (see
    `execute_and_compare`)."""
    catalog = split.databases[instance.database_id]
    db_path = database_path(cfg.benchmark_root, instance.database_id)
    try:
        if cfg.mode == MODE_NONE:
            if cfg.shots > 0:
                bundle = _few_shot_bundle(cfg, instance, catalog, pool, client, embed)
            else:
                bundle = _zero_shot_bundle(cfg, instance, question_section(instance, catalog))
            response = client.complete(bundle)
            final_sql = extract_sql(response)
            trace = CotTrace(
                mode=cfg.mode, step_prompts=[bundle],
                step_responses=[response], final_sql=final_sql)
        else:
            trace = run_cot(
                instance, catalog, client, cfg.mode,
                budget=cfg.budget, seed=cfg.truncation_seed)
    except ReplayMiss:
        raise
    except Exception as exc:  # per-instance isolation; the run must continue
        logger.warning("question %s failed: %s", instance.question_id, exc)
        trace = CotTrace(mode=cfg.mode, final_sql="", warnings=[str(exc)])
        outcome = EvalOutcome(
            question_id=instance.question_id, matched=False,
            predicted_error=f"pipeline error: {exc}")
        label = {"category": "other/syntax_error", "detail": str(exc)}
        return trace, outcome, label

    outcome = execute_and_compare(
        trace.final_sql, instance.gold_sql, db_path,
        timeout=cfg.query_timeout, question_id=instance.question_id,
        connections=connections)
    label_payload = None
    if not outcome.matched:
        label = classify(trace.final_sql, instance.gold_sql, catalog, outcome)
        label_payload = {"category": label.category, "detail": label.detail}
    return trace, outcome, label_payload


def _truncation_stats(records: Sequence[TruncationRecord]) -> dict:
    total = len(records)
    truncated = [r for r in records if r.total_removed > 0]

    def mean(values) -> float:
        values = list(values)
        return round(sum(values) / len(values), 2) if values else 0.0

    return {
        "total_queries": total,
        "queries_with_truncation": len(truncated),
        "queries_with_truncation_pct": round(100.0 * len(truncated) / total, 2) if total else 0.0,
        "average_truncated_columns": mean(r.total_removed for r in truncated),
        "average_truncated_target_columns": mean(r.target_removed for r in truncated),
        "average_truncated_example_columns": mean(r.example_removed for r in truncated),
    }


def _print_truncation_stats(stats: dict, *, few_shot: bool) -> None:
    print(
        "Queries with column truncation/Total queries: "
        f"{stats['queries_with_truncation_pct']:.2f}% "
        f"({stats['queries_with_truncation']}/{stats['total_queries']})")
    if few_shot:
        print(f"Average truncated target columns: {stats['average_truncated_target_columns']}")
        print(f"Average truncated example columns: {stats['average_truncated_example_columns']}")
    else:
        print(f"Average truncated columns: {stats['average_truncated_columns']}")


def cmd_run(cfg: RunConfig, *, client: Optional[LlmClient] = None,
            embed_client: Optional[LlmClient] = None) -> Path:
    """Evaluate one split end to end and write report + trace dumps.

    Set-up prepares every catalog the questions and the pool use (see
    `_prepare_catalogs`), and each thread that runs questions opens its
    connection to each question database before its first question.
    A replay miss stops the run before anything is written: pending
    questions are cancelled and the miss is raised."""
    split = load_split(cfg.benchmark_root, cfg.split)
    owned = client is None
    client = client or build_client(cfg)
    connections = DatabaseConnections()
    try:
        pool = embed = None
        if cfg.shots > 0:
            embed_client = embed_client or build_embed_client(
                cfg, store=client.store, transport=client.transport)
            pool, embed = _load_pool(cfg, split, embed_client)
        _prepare_catalogs(cfg, split, pool)
        databases = sorted({database_path(cfg.benchmark_root, i.database_id)
                            for i in split.instances})

        def process(instance: TaskInstance):
            return process_instance(cfg, instance, split, client, embed, pool, connections)

        if cfg.workers > 1:
            executor = ThreadPoolExecutor(max_workers=cfg.workers,
                                          initializer=connections.prepare,
                                          initargs=(databases,))
            try:
                results = list(executor.map(process, split.instances))
            finally:
                executor.shutdown(cancel_futures=True)
        else:
            connections.prepare(databases)
            results = [process(instance) for instance in split.instances]
    finally:
        connections.close()
        if owned and client.transport is not None:
            client.transport.close()

    traces = [trace for trace, _, _ in results]
    outcomes = [outcome for _, outcome, _ in results]
    labels = [label for _, _, label in results]
    report = aggregate(outcomes, split.instances)

    records = [_instance_truncation(trace) for trace in traces]
    stats = _truncation_stats(records)
    taxonomy_rows = tabulate(
        [ErrorLabel(payload["category"], payload.get("detail", ""))
         for payload in labels if payload is not None],
        len(split.instances))

    difficulty_of = {i.question_id: i.difficulty for i in split.instances}
    payload = {
        "config": cfg.snapshot(),
        "instance_count": len(split.instances),
        "ex_by_split": report.ex_by_split,
        "outcomes": [
            {
                "question_id": outcome.question_id,
                "difficulty": difficulty_of[outcome.question_id],
                "matched": outcome.matched,
                "predicted_sql": trace.final_sql,
                "predicted_error": outcome.predicted_error,
                "gold_error": outcome.gold_error,
                "error_label": label,
                "truncation": {
                    "removed_columns": record.total_removed,
                    "target_removed": record.target_removed,
                    "example_removed": record.example_removed,
                },
            }
            for (trace, outcome, label), record in zip(results, records)
        ],
        "error_taxonomy": taxonomy_rows,
        "truncation": stats,
        "notes": {
            "null_comparison": "NULL compares as a sentinel equal only to itself",
            "row_comparison": "unordered set of tuples, floats rounded to 6 decimals",
        },
    }

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    report_path = cfg.output_dir / "report.json"
    report_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    traces_path = cfg.output_dir / "traces.jsonl"
    with open(traces_path, "w", encoding="utf-8") as handle:
        for instance, trace in zip(split.instances, traces):
            handle.write(json.dumps({
                "question_id": instance.question_id,
                "mode": trace.mode,
                "step_prompts": [b.text for b in trace.step_prompts],
                "step_token_counts": [b.token_count for b in trace.step_prompts],
                "step_responses": trace.step_responses,
                "predicted_tables": trace.predicted_tables,
                "predicted_columns": trace.predicted_columns,
                "skeleton": trace.skeleton,
                "final_sql": trace.final_sql,
                "warnings": trace.warnings,
            }, ensure_ascii=False, sort_keys=True) + "\n")

    print(f"EX: {report.ex_by_split}")
    _print_truncation_stats(stats, few_shot=cfg.shots > 0)
    print(f"report written to {report_path}")
    return report_path


def cmd_prep_sft(cfg: RunConfig) -> Path:
    """Emit the SFT JSONL plus truncation statistics, through `emit_sft_dataset`."""
    require_sft_budget(cfg.budget)
    split = load_split(cfg.benchmark_root, cfg.split)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.output_dir / f"sft_{cfg.split}.jsonl"
    records: list[TruncationRecord] = []

    def pairs():
        for pair, record in emit_sft_dataset(
                split, cfg.variant, cfg.budget, seed=cfg.truncation_seed):
            records.append(record)
            yield pair

    write_sft_jsonl(pairs(), out_path)
    stats = _truncation_stats(records)
    _print_truncation_stats(stats, few_shot=False)
    skipped = len(split.instances) - len(records)
    if skipped:
        print(f"skipped {skipped} instances")
    print(f"wrote {len(records)} pairs to {out_path}")
    return out_path


def cmd_serialize_schema(cfg: RunConfig) -> int:
    """Write every (database, variant) rendering under the output dir."""
    split = load_split(cfg.benchmark_root, cfg.split)
    written = 0
    for db_id, catalog in sorted(split.databases.items()):
        db_dir = cfg.output_dir / db_id
        db_dir.mkdir(parents=True, exist_ok=True)
        for variant in SchemaVariant:
            text = render_schema(catalog, variant)
            (db_dir / f"{variant.value}.txt").write_text(text, encoding="utf-8")
            written += 1
    print(f"wrote {written} schema files to {cfg.output_dir}")
    return written


def cmd_ingest_check(cfg: RunConfig) -> None:
    split = load_split(cfg.benchmark_root, cfg.split)
    by_difficulty: dict[str, int] = {}
    for instance in split.instances:
        by_difficulty[instance.difficulty] = by_difficulty.get(instance.difficulty, 0) + 1
    print(f"{split.name}: {len(split.instances)} instances, "
          f"{len(split.databases)} databases, difficulties {by_difficulty}")
    for db_id, catalog in sorted(split.databases.items()):
        columns = sum(len(t.columns) for t in catalog.tables)
        print(f"  {db_id}: {len(catalog.tables)} tables, {columns} columns, "
              f"{len(catalog.foreign_keys)} foreign keys")


def cmd_build_prompt(cfg: RunConfig, question_id: int, out: Optional[Path] = None) -> str:
    """Print, or write to `out`, the question's budgeted zero-shot prompt."""
    unused = []
    if cfg.shots > 0:
        unused.append(f"--shots {cfg.shots}")
    if cfg.mode != MODE_NONE:
        unused.append(f"--mode {cfg.mode}")
    if unused:
        raise SystemExit(
            f"build-prompt prints the zero-shot prompt; it cannot apply {' or '.join(unused)}")
    split = load_split(cfg.benchmark_root, cfg.split)
    instance = next(
        (i for i in split.instances if i.question_id == question_id), None)
    if instance is None:
        raise SystemExit(f"question_id {question_id} not in split {cfg.split!r}")
    catalog = split.databases[instance.database_id]
    bundle = _zero_shot_bundle(cfg, instance, question_section(instance, catalog))
    if out:
        out.write_text(bundle.text, encoding="utf-8")
        print(f"wrote {bundle.token_count}-token prompt to {out}")
    else:
        print(bundle.text)
    return bundle.text


def cmd_curate(cfg: RunConfig, *, client: Optional[LlmClient] = None,
               embed_client: Optional[LlmClient] = None) -> Path:
    """Write per-instance curated example selections as JSON."""
    if not cfg.pool_split:
        raise SystemExit("curate requires --pool-split")
    if cfg.mode != MODE_NONE:
        raise SystemExit(
            f"curate scores the pool against a zero-shot draft; it cannot apply --mode {cfg.mode}")
    split = load_split(cfg.benchmark_root, cfg.split)
    owned = client is None
    client = client or build_client(cfg)
    try:
        embed_client = embed_client or build_embed_client(
            cfg, store=client.store, transport=client.transport)
        pool, embed = _load_pool(cfg, split, embed_client)
        rows = []
        for instance in split.instances:
            catalog = split.databases[instance.database_id]
            draft_sql, curated = _curate(
                cfg, instance, question_section(instance, catalog), pool, client, embed)
            rows.append({
                "question_id": instance.question_id,
                "draft_sql": draft_sql,
                "selected": [
                    {
                        "candidate_question_id": ex.question_id if ex else None,
                        "gamma_q": round(t.gamma_q, 6),
                        "gamma_d": round(t.gamma_d, 6),
                        "gamma_s": round(t.gamma_s, 6),
                        "gamma_a": round(t.gamma_a, 6),
                    }
                    for ex, t in curated.examples
                ],
            })
    finally:
        if owned and client.transport is not None:
            client.transport.close()
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.output_dir / "curation.json"
    out_path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote curation for {len(rows)} instances to {out_path}")
    return out_path


def cmd_report(report_file: Path) -> None:
    payload = json.loads(Path(report_file).read_text(encoding="utf-8"))
    ex = payload["ex_by_split"]
    print(f"{'':<12}{'simple':>10}{'moderate':>10}{'challenging':>12}{'sum':>10}")
    print(f"{'EX (%)':<12}{ex['simple']:>10}{ex['moderate']:>10}"
          f"{ex['challenging']:>12}{ex['sum']:>10}")
    rows = payload.get("error_taxonomy", [])
    if rows:
        print("\nError taxonomy:")
        for row in rows:
            print(f"  {row['group']:<28}{row['label']:<22}"
                  f"{row['count']:>5}  {row['percent']:>6.2f}%")
    stats = payload.get("truncation")
    if stats:
        print("\nTruncation:")
        _print_truncation_stats(stats, few_shot=payload["config"]["shots"] > 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqlbench",
        description="Text-to-SQL prompting and execution-accuracy evaluation")
    parser.add_argument("--config", type=Path, help="JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, default=argparse.SUPPRESS,
                       help="JSON config file")
        for setting, kind, _, choices in _SETTINGS:
            flag = setting.metadata.get("flag", "--" + setting.name.replace("_", "-"))
            if flag is None:
                continue
            if kind is bool:
                p.add_argument(flag, action="store_const", const=True,
                               dest=setting.name, default=None)
            else:
                p.add_argument(flag, dest=setting.name, choices=choices,
                               type=None if issubclass(kind, str) else kind,
                               help=setting.metadata.get("help"))

    for name in ("ingest-check", "serialize-schema", "curate", "run", "prep-sft"):
        add_common(sub.add_parser(name))

    build_prompt = sub.add_parser("build-prompt")
    add_common(build_prompt)
    build_prompt.add_argument("--question-id", type=int, required=True)
    build_prompt.add_argument("--out", type=Path)

    report = sub.add_parser("report")
    report.add_argument("report_file", type=Path)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            cmd_report(args.report_file)
            return 0
        cfg = load_config(args.config, {k: v for k, v in vars(args).items()
                                        if k in _CONFIG_FIELDS})
        if args.command == "ingest-check":
            cmd_ingest_check(cfg)
        elif args.command == "serialize-schema":
            cmd_serialize_schema(cfg)
        elif args.command == "build-prompt":
            cmd_build_prompt(cfg, args.question_id, args.out)
        elif args.command == "curate":
            cmd_curate(cfg)
        elif args.command == "run":
            cmd_run(cfg)
        elif args.command == "prep-sft":
            cmd_prep_sft(cfg)
        return 0
    except SystemExit:
        raise
    except Exception as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
