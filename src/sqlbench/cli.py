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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .bench import BenchmarkSplit, TaskInstance, database_path, load_split
from .budget import (
    PromptSection,
    TokenBudget,
    TruncationRecord,
    clamp_similarity,
    count_tokens,
    derive_seed,
    partition_columns,
    plan_example_truncation,
    truncate_examples,
    truncate_target,
)
from .cot import ALL_MODES, MODE_NONE, CotTrace, run_cot
from .curation import (
    CuratedSet,
    EmbeddingCache,
    ExamplePool,
    build_pool,
    score_candidates,
    select_top_k,
)
from .evaluate import EvalOutcome, aggregate, execute_and_compare
from .gateway import LlmClient, LlmEndpoint, ReplayStore, extract_sql
from .prompts import (
    FewShotBlock,
    PromptBundle,
    build_few_shot_prompt,
    build_open_prompt,
    build_sft_pair,
    few_shot_text,
    open_prompt_token_fn,
    sft_seed,
)
from .schema import SchemaVariant, column_line_costs, render_schema
from .taxonomy import ErrorLabel, classify, tabulate

logger = logging.getLogger(__name__)

ENV_BASE_URL = "SQLBENCH_BASE_URL"
ENV_API_KEY = "SQLBENCH_API_KEY"
ENV_EMBED_BASE_URL = "SQLBENCH_EMBED_BASE_URL"
ENV_EMBED_API_KEY = "SQLBENCH_EMBED_API_KEY"


@dataclass
class RunConfig:
    benchmark_root: Path = Path(".")
    split: str = "dev"
    variant: SchemaVariant = SchemaVariant.C_VDT
    mode: str = MODE_NONE
    shots: int = 0
    pool_split: Optional[str] = None
    max_context: int = 2048
    response_reserve: int = 200
    temperature: float = 1.0
    truncation_seed: int = 0
    base_url: str = "http://localhost:8000"
    model_id: str = "local-model"
    sampling_temperature: float = 0.001
    max_response_tokens: int = 200
    chat_style: bool = False
    api_key: Optional[str] = None
    embed_base_url: Optional[str] = None
    embed_model_id: Optional[str] = None
    embed_api_key: Optional[str] = None
    replay_store: Optional[Path] = None
    replay_mode: str = "live"
    embedding_cache: Optional[Path] = None
    output_dir: Path = Path("out")
    workers: int = 1
    query_timeout: float = 30.0

    def __post_init__(self) -> None:
        self.variant = SchemaVariant(self.variant)
        if self.mode not in ALL_MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {ALL_MODES}")
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        if self.shots > 0 and not self.pool_split:
            raise ValueError("shots > 0 requires a pool split")
        if self.shots > 0 and self.mode != MODE_NONE:
            raise ValueError("few-shot examples apply to single-prompt runs only "
                             "(mode must be 'none' when shots > 0)")
        if self.replay_mode in ("record", "replay") and not self.replay_store:
            raise ValueError(f"replay_mode {self.replay_mode!r} requires a replay store path")

    @property
    def budget(self) -> TokenBudget:
        return TokenBudget(self.max_context, self.response_reserve)

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
            model_id=self.embed_model_id or self.model_id,
            api_key=self.embed_api_key or self.api_key,
        )

    def snapshot(self) -> dict:
        """Reproducibility snapshot; credentials never land in reports."""
        return {
            "benchmark_root": str(self.benchmark_root),
            "split": self.split,
            "variant": self.variant.value,
            "mode": self.mode,
            "shots": self.shots,
            "pool_split": self.pool_split,
            "max_context": self.max_context,
            "response_reserve": self.response_reserve,
            "temperature": self.temperature,
            "truncation_seed": self.truncation_seed,
            "model_id": self.model_id,
            "sampling_temperature": self.sampling_temperature,
            "max_response_tokens": self.max_response_tokens,
            "embedding_model_id": self.embed_model_id or self.model_id,
            "replay_store": str(self.replay_store) if self.replay_store else None,
            "replay_mode": self.replay_mode,
            "query_timeout": self.query_timeout,
        }


_CONFIG_FIELDS = {f.name for f in RunConfig.__dataclass_fields__.values()}
_PATH_FIELDS = {"benchmark_root", "replay_store", "embedding_cache", "output_dir"}


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
    env_map = {
        "base_url": os.environ.get(ENV_BASE_URL),
        "api_key": os.environ.get(ENV_API_KEY),
        "embed_base_url": os.environ.get(ENV_EMBED_BASE_URL),
        "embed_api_key": os.environ.get(ENV_EMBED_API_KEY),
    }
    values.update({k: v for k, v in env_map.items() if v})
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    for key in _PATH_FIELDS & set(values):
        if values[key] is not None:
            values[key] = Path(values[key])
    return RunConfig(**values)


def build_client(cfg: RunConfig, *, transport=None) -> LlmClient:
    store = ReplayStore(cfg.replay_store) if cfg.replay_store else None
    kwargs = {"mode": cfg.replay_mode, "store": store}
    if transport is not None:
        kwargs["transport"] = transport
    return LlmClient(cfg.endpoint(), **kwargs)


def build_embed_client(cfg: RunConfig, *, transport=None) -> LlmClient:
    store = ReplayStore(cfg.replay_store) if cfg.replay_store else None
    kwargs = {"mode": cfg.replay_mode, "store": store}
    if transport is not None:
        kwargs["transport"] = transport
    return LlmClient(cfg.embed_endpoint(), **kwargs)


def _zero_shot_bundle(
    cfg: RunConfig,
    instance: TaskInstance,
    catalog,
) -> PromptBundle:
    """Open prompt with target column truncation against the budget."""
    link_text = f"{instance.question} {instance.external_knowledge}"
    partition = partition_columns(catalog, question=link_text)
    tokens = open_prompt_token_fn(instance, catalog, cfg.variant)
    keep, record = truncate_target(
        catalog, partition, tokens, cfg.budget.available,
        derive_seed(cfg.truncation_seed, instance.question_id, "target"))
    return build_open_prompt(
        instance, catalog, cfg.variant, keep=keep, truncation=record)


def _load_pool(
    cfg: RunConfig,
    embed_client: LlmClient,
) -> tuple[ExamplePool, Optional[EmbeddingCache]]:
    """Embed the pool split's candidates, through the embedding cache if set."""
    pool_split = load_split(cfg.benchmark_root, cfg.pool_split)
    cache = (EmbeddingCache(cfg.embedding_cache, cfg.embed_endpoint().model_id)
             if cfg.embedding_cache else None)
    pool = build_pool(
        [(inst, pool_split.databases[inst.database_id]) for inst in pool_split.instances],
        cfg.variant, embed_client.embed, cache)
    return pool, cache


def _curate(
    cfg: RunConfig,
    instance: TaskInstance,
    catalog,
    pool: ExamplePool,
    client: LlmClient,
    embed_client: LlmClient,
    cache: Optional[EmbeddingCache],
) -> tuple[str, CuratedSet]:
    """Draft a zero-shot query, score the pool against it, keep the top k.

    k is `cfg.shots`; `curate` without --shots keeps one example.
    """
    draft_sql = extract_sql(client.complete(_zero_shot_bundle(cfg, instance, catalog)))
    triples = score_candidates(
        instance, catalog, draft_sql, pool, embed_client.embed, cache)
    return draft_sql, select_top_k(triples, cfg.shots or 1, pool)


def _few_shot_bundle(
    cfg: RunConfig,
    instance: TaskInstance,
    catalog,
    pool: ExamplePool,
    client: LlmClient,
    embed_client: LlmClient,
    cache: Optional[EmbeddingCache],
) -> PromptBundle:
    """Curate, truncate and assemble the k-shot prompt for one instance."""
    _, curated = _curate(cfg, instance, catalog, pool, client, embed_client, cache)
    examples = [pool.candidates[triple.candidate_index] for _, triple in curated.examples]
    similarities = [clamp_similarity(triple.gamma_a) for _, triple in curated.examples]
    plan = plan_example_truncation(similarities, cfg.temperature)

    target_link = f"{instance.question} {instance.external_knowledge}"
    sections = [PromptSection(
        catalog, partition_columns(catalog, question=target_link),
        column_line_costs(catalog, cfg.variant, count_tokens))]
    for example in examples:
        sections.append(PromptSection(
            example.catalog,
            partition_columns(example.catalog, reference_sql=example.instance.gold_sql),
            column_line_costs(example.catalog, cfg.variant, count_tokens)))

    def example_blocks(keeps) -> list[FewShotBlock]:
        return [FewShotBlock(example.instance, example.catalog, keep)
                for example, keep in zip(examples, keeps[1:])]

    def render(keeps) -> str:
        return few_shot_text(
            instance, catalog, example_blocks(keeps), cfg.variant, keeps[0])

    keeps, record = truncate_examples(
        sections, plan, render, cfg.budget.available,
        derive_seed(cfg.truncation_seed, instance.question_id, "examples"))
    return build_few_shot_prompt(
        instance, catalog, example_blocks(keeps), cfg.variant,
        keep=keeps[0], truncation=record)


def _instance_truncation(trace: CotTrace) -> TruncationRecord:
    """Fold the per-step records of a trace into one per-instance record."""
    removed: list[tuple[str, str]] = []
    examples_removed: list[tuple[tuple[str, str], ...]] = []
    before = after = 0
    for bundle in trace.step_prompts:
        record = bundle.truncation
        if record is None:
            continue
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
    embed_client: Optional[LlmClient] = None,
    pool: Optional[ExamplePool] = None,
    cache: Optional[EmbeddingCache] = None,
) -> tuple[CotTrace, EvalOutcome, Optional[dict]]:
    """Prompt -> complete -> extract -> execute -> classify, error-isolated."""
    catalog = split.databases[instance.database_id]
    db_path = database_path(cfg.benchmark_root, instance.database_id)
    try:
        if cfg.mode == MODE_NONE:
            if cfg.shots > 0:
                bundle = _few_shot_bundle(
                    cfg, instance, catalog, pool, client, embed_client, cache)
            else:
                bundle = _zero_shot_bundle(cfg, instance, catalog)
            response = client.complete(bundle)
            final_sql = extract_sql(response)
            trace = CotTrace(
                mode=cfg.mode, step_prompts=[bundle],
                step_responses=[response], final_sql=final_sql)
        else:
            trace = run_cot(
                instance, catalog, client, cfg.mode,
                budget=cfg.budget, seed=cfg.truncation_seed)
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
        timeout=cfg.query_timeout, question_id=instance.question_id)
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
    """Evaluate one split end to end and write report + trace dumps."""
    split = load_split(cfg.benchmark_root, cfg.split)
    client = client or build_client(cfg)

    pool = None
    cache = None
    if cfg.shots > 0:
        embed_client = embed_client or build_embed_client(cfg)
        pool, cache = _load_pool(cfg, embed_client)

    def process(instance: TaskInstance):
        return process_instance(cfg, instance, split, client, embed_client, pool, cache)

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as executor:
            results = list(executor.map(process, split.instances))
    else:
        results = [process(instance) for instance in split.instances]

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
    """Emit the SFT JSONL plus truncation statistics."""
    split = load_split(cfg.benchmark_root, cfg.split)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.output_dir / f"sft_{cfg.split}.jsonl"
    records: list[TruncationRecord] = []
    skipped = 0
    with open(out_path, "w", encoding="utf-8") as handle:
        for instance in split.instances:
            catalog = split.databases[instance.database_id]
            try:
                pair, record = build_sft_pair(
                    instance, catalog, cfg.variant, cfg.budget,
                    seed=sft_seed(cfg.truncation_seed, instance.question_id))
            except Exception as exc:
                logger.warning("skipping question %s: %s", instance.question_id, exc)
                skipped += 1
                continue
            records.append(record)
            handle.write(json.dumps(
                {"prompt": pair.prompt, "completion": pair.completion},
                ensure_ascii=False) + "\n")
    stats = _truncation_stats(records)
    _print_truncation_stats(stats, few_shot=False)
    if skipped:
        print(f"skipped {skipped} instances with unsatisfiable budgets")
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
    split = load_split(cfg.benchmark_root, cfg.split)
    instance = next(
        (i for i in split.instances if i.question_id == question_id), None)
    if instance is None:
        raise SystemExit(f"question_id {question_id} not in split {cfg.split!r}")
    bundle = _zero_shot_bundle(cfg, instance, split.databases[instance.database_id])
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
    split = load_split(cfg.benchmark_root, cfg.split)
    client = client or build_client(cfg)
    embed_client = embed_client or build_embed_client(cfg)
    pool, cache = _load_pool(cfg, embed_client)

    rows = []
    for instance in split.instances:
        draft_sql, curated = _curate(
            cfg, instance, split.databases[instance.database_id],
            pool, client, embed_client, cache)
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
        p.add_argument("--benchmark-root", type=Path, dest="benchmark_root")
        p.add_argument("--split", dest="split")
        p.add_argument("--variant", dest="variant",
                       choices=[v.value for v in SchemaVariant])
        p.add_argument("--mode", dest="mode", choices=list(ALL_MODES))
        p.add_argument("--shots", type=int, dest="shots")
        p.add_argument("--pool-split", dest="pool_split")
        p.add_argument("--max-context", type=int, dest="max_context")
        p.add_argument("--response-reserve", type=int, dest="response_reserve")
        p.add_argument("--temperature", type=float, dest="temperature",
                       help="softmax temperature for example truncation rates")
        p.add_argument("--seed", type=int, dest="truncation_seed")
        p.add_argument("--base-url", dest="base_url")
        p.add_argument("--model", dest="model_id")
        p.add_argument("--sampling-temperature", type=float, dest="sampling_temperature")
        p.add_argument("--max-response-tokens", type=int, dest="max_response_tokens")
        p.add_argument("--chat-style", action="store_const", const=True,
                       dest="chat_style", default=None)
        p.add_argument("--embed-base-url", dest="embed_base_url")
        p.add_argument("--embed-model", dest="embed_model_id")
        p.add_argument("--replay-store", type=Path, dest="replay_store")
        p.add_argument("--replay-mode", dest="replay_mode",
                       choices=["live", "record", "replay"])
        p.add_argument("--embedding-cache", type=Path, dest="embedding_cache")
        p.add_argument("--output-dir", type=Path, dest="output_dir")
        p.add_argument("--workers", type=int, dest="workers")
        p.add_argument("--query-timeout", type=float, dest="query_timeout")

    for name in ("ingest-check", "serialize-schema", "curate", "run", "prep-sft"):
        add_common(sub.add_parser(name))

    build_prompt = sub.add_parser("build-prompt")
    add_common(build_prompt)
    build_prompt.add_argument("--question-id", type=int, required=True)
    build_prompt.add_argument("--out", type=Path)

    report = sub.add_parser("report")
    report.add_argument("report_file", type=Path)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {
        key: value for key, value in vars(args).items()
        if key in _CONFIG_FIELDS and value is not None
    }
    return load_config(args.config, overrides)


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            cmd_report(args.report_file)
            return 0
        cfg = _config_from_args(args)
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
