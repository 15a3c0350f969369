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
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import Field, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, get_args, get_type_hints

from .bench import BenchmarkSplit, TaskInstance, database_path, load_questions, load_split
from .budget import (
    DEFAULT_MAX_CONTEXT,
    DEFAULT_RESPONSE_RESERVE,
    PromptSection,
    TokenBudget,
    TruncationRecord,
    derive_seed,
    plan_example_truncation,
    prepare_catalog,
)
from .cot import ALL_MODES, MODE_NONE, STEP_VARIANTS, CotTrace, run_cot
from .curation import ExamplePool, SimilarityTriple, build_pool, curate_top_k
from .evaluate import (
    DEFAULT_QUERY_TIMEOUT,
    DatabaseConnections,
    EvalOutcome,
    aggregate,
    execute_and_compare,
)
from .gateway import (
    REPLAY_MODES,
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
    max_context: int = DEFAULT_MAX_CONTEXT
    response_reserve: int = DEFAULT_RESPONSE_RESERVE
    temperature: float = _setting(1.0, help="softmax temperature for example truncation rates")
    truncation_seed: int = _setting(0, flag="--seed")
    base_url: str = _setting("http://localhost:8000", env="SQLBENCH_BASE_URL", snapshot=None)
    model_id: str = _setting("local-model", flag="--model")
    sampling_temperature: float = LlmEndpoint.sampling_temperature
    chat_style: bool = _setting(False, snapshot=None)
    api_key: Optional[str] = _setting(None, flag=None, env="SQLBENCH_API_KEY", snapshot=None)
    embed_base_url: Optional[str] = _setting(None, env="SQLBENCH_EMBED_BASE_URL", snapshot=None)
    embed_model_id: Optional[str] = _setting(
        None, flag="--embed-model", snapshot="embedding_model_id")
    embed_api_key: Optional[str] = _setting(
        None, flag=None, env="SQLBENCH_EMBED_API_KEY", snapshot=None)
    replay_store: Optional[Path] = None
    replay_mode: str = _setting("live", choices=REPLAY_MODES)
    output_dir: Path = _setting(Path("out"), snapshot=None)
    workers: int = _setting(1, snapshot=None)
    query_timeout: float = DEFAULT_QUERY_TIMEOUT

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
        # sampling_temperature.
        self.endpoint()
        self.embed_endpoint()
        if self.shots > 0 and not self.pool_split:
            raise ValueError("shots > 0 requires a pool split")
        if self.shots > 0 and self.mode != MODE_NONE:
            raise ValueError("few-shot examples apply to single-prompt runs only "
                             "(mode must be 'none' when shots > 0)")
        if self.replay_mode in ("record", "replay") and not self.replay_store:
            raise ValueError(f"replay_mode {self.replay_mode!r} requires a replay store path")
        if self.replay_mode == "live" and self.replay_store:
            raise ValueError("replay_mode 'live' reads no replay store")

    @property
    def embedding_model_id(self) -> str:
        return self.embed_model_id or self.model_id

    def endpoint(self) -> LlmEndpoint:
        """The completion endpoint; its max_tokens is the response reserve."""
        return LlmEndpoint(
            base_url=self.base_url,
            model_id=self.model_id,
            sampling_temperature=self.sampling_temperature,
            max_response_tokens=self.response_reserve,
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
        return {key: _plain(getattr(self, key)) for key in _SNAPSHOT_KEYS}


def _plain(value):
    return (value.value if isinstance(value, Enum)
            else str(value) if isinstance(value, Path) else value)


def _flag(setting: Field) -> Optional[str]:
    return setting.metadata.get("flag", "--" + setting.name.replace("_", "-"))


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


def _check_reads(cfg: RunConfig, command: str) -> None:
    """Reject each setting the snapshot records that `command` does not read
    and that differs from its default, whatever its source. Deployment
    settings (not recorded) pass for every command. A run that does not
    curate (no shots) reads none of the settings only curation reads."""
    summary, reads, _ = _COMMANDS[command]
    if command == "run" and cfg.shots == 0:
        reads = reads - _CURATION
    unread = [f"{_flag(s)} {_plain(getattr(cfg, s.name))}" for s, *_ in _SETTINGS
              if s.name not in reads and s.metadata.get("snapshot", s.name) is not None
              and getattr(cfg, s.name) != s.default]
    if unread:
        raise SystemExit(f"{command} ({summary}) cannot apply {' or '.join(unread)}")


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
        open_template(instance, target.catalog, cfg.variant), [target], cfg.budget.available,
        derive_seed(cfg.truncation_seed, instance.question_id, "target"),
        variant=cfg.variant)


@contextmanager
def _model_setup(cfg: RunConfig, split: BenchmarkSplit, client: Optional[LlmClient],
                 embed_client: Optional[LlmClient]
                 ) -> Iterator[tuple[LlmClient, Optional[ExamplePool]]]:
    """The set-up of `run` and `curate`: (completion client, example pool),
    the pool None without a pool split.

    The client is `client`, else one built from `cfg`. The pool split's
    candidates are embedded over `split`'s catalogs by `embed_client`, else
    by a client sharing the first one's store and transport, so the store
    is read once and each thread keeps one connection. Every catalog the
    questions and candidates use is then prepared (`prepare_catalog`) in
    the variants the prompts render, so no question builds its indexes or
    sizes. A transport built here is closed on every exit path."""
    owned = client is None
    client = client or build_client(cfg)
    try:
        pool = None
        catalogs = {i.database_id: split.databases[i.database_id] for i in split.instances}
        if cfg.pool_split:
            embed_client = embed_client or build_embed_client(
                cfg, store=client.store, transport=client.transport)
            candidates = BenchmarkSplit(cfg.pool_split, load_questions(
                cfg.benchmark_root, cfg.pool_split), split.databases).instances
            pool = build_pool([(inst, split.databases[inst.database_id]) for inst in candidates],
                              cfg.variant, embed_client.embed)
            catalogs.update((c.instance.database_id, c.catalog) for c in pool.candidates)
        for catalog in catalogs.values():
            prepare_catalog(catalog, (cfg.variant,) if cfg.mode == MODE_NONE else STEP_VARIANTS)
        yield client, pool
    finally:
        if owned and client.transport is not None:
            client.transport.close()


def _curate(
    cfg: RunConfig,
    instance: TaskInstance,
    target: PromptSection,
    pool: ExamplePool,
    client: LlmClient,
) -> tuple[str, tuple[SimilarityTriple, ...]]:
    """Draft a zero-shot query, score the pool against it, keep the top k.

    k is `cfg.shots`; `curate` without --shots keeps one example.
    """
    draft_sql = extract_sql(client.complete(_zero_shot_bundle(cfg, instance, target)))
    return draft_sql, curate_top_k(
        instance, target.catalog, draft_sql, pool, cfg.shots or 1)


def _few_shot_bundle(
    cfg: RunConfig,
    instance: TaskInstance,
    catalog,
    pool: ExamplePool,
    client: LlmClient,
) -> PromptBundle:
    """Curate, truncate and assemble the k-shot prompt for one instance."""
    target = question_section(instance, catalog)
    _, curated = _curate(cfg, instance, target, pool, client)
    indexes = [triple.candidate_index for triple in curated]
    rates = plan_example_truncation([triple.gamma_a for triple in curated], cfg.temperature)

    return fit_prompt(
        few_shot_template(
            instance, [pool.candidates[index].instance for index in indexes], cfg.variant),
        [target, *(pool.section(index) for index in indexes)], cfg.budget.available,
        derive_seed(cfg.truncation_seed, instance.question_id, "examples"),
        variant=cfg.variant, rates=rates)


def _removed(records: Iterable[TruncationRecord]) -> tuple[int, int, int]:
    """(total, target, example) columns that `records` removed, summed."""
    total = target = example = 0
    for record in records:
        total += record.total_removed
        target += record.target_removed
        example += record.example_removed
    return total, target, example


def _trace_line(question_id: int, trace: CotTrace) -> bytes:
    """One question's `traces.jsonl` line, UTF-8 encoded; a lone surrogate,
    which a model's JSON `\\ud800` escape yields, is written as that escape."""
    return json.dumps({
        "question_id": question_id,
        "mode": trace.mode,
        "step_prompts": [b.text for b in trace.step_prompts],
        "step_token_counts": [b.token_count for b in trace.step_prompts],
        "step_responses": trace.step_responses,
        "predicted_tables": trace.predicted_tables,
        "predicted_columns": trace.predicted_columns,
        "skeleton": trace.skeleton,
        "final_sql": trace.final_sql,
        "warnings": trace.warnings,
    }, ensure_ascii=False, sort_keys=True).encode("utf-8", "backslashreplace") + b"\n"


def process_instance(
    cfg: RunConfig,
    instance: TaskInstance,
    split: BenchmarkSplit,
    client: LlmClient,
    pool: Optional[ExamplePool] = None,
    connections: Optional[DatabaseConnections] = None,
) -> tuple[CotTrace, EvalOutcome, Optional[ErrorLabel]]:
    """Prompt -> complete -> extract -> execute -> classify, error-isolated.

    A replay miss is not isolated: it raises, because the run can no longer
    reproduce the recorded one. The queries run on `connections` (see
    `execute_and_compare`)."""
    catalog = split.databases[instance.database_id]
    db_path = database_path(cfg.benchmark_root, instance.database_id)
    try:
        if cfg.mode == MODE_NONE:
            if cfg.shots > 0:
                bundle = _few_shot_bundle(cfg, instance, catalog, pool, client)
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
        return trace, outcome, ErrorLabel("other/syntax_error", str(exc))

    outcome = execute_and_compare(
        trace.final_sql, instance.gold_sql, db_path,
        timeout=cfg.query_timeout, question_id=instance.question_id,
        connections=connections)
    label = None
    if not outcome.matched:
        label = classify(trace.final_sql, instance.gold_sql, catalog, outcome)
    return trace, outcome, label


def _truncation_stats(removed: Sequence[tuple[int, int, int]]) -> dict:
    """Statistics over each query's (total, target, example) removed columns."""
    total = len(removed)
    truncated = [counts for counts in removed if counts[0] > 0]

    def mean(values) -> float:
        values = list(values)
        return round(sum(values) / len(values), 2) if values else 0.0

    return {
        "total_queries": total,
        "queries_with_truncation": len(truncated),
        "queries_with_truncation_pct": round(100.0 * len(truncated) / total, 2) if total else 0.0,
        "average_truncated_columns": mean(counts[0] for counts in truncated),
        "average_truncated_target_columns": mean(counts[1] for counts in truncated),
        "average_truncated_example_columns": mean(counts[2] for counts in truncated),
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

    After `_model_setup`, each thread that runs questions connects to each
    question database before its first question. Each finished question's
    trace line goes at once, in split order, to an anonymous spool file,
    and only what the report reads is kept (final SQL, outcome, label,
    removed-column counts), so memory does not grow with the traces; the
    spool is copied into `traces.jsonl` after the report is written. A
    replay miss cancels the pending questions and is raised before
    anything is written to the output directory."""
    _check_reads(cfg, "run")
    split = load_split(cfg.benchmark_root, cfg.split)
    with tempfile.TemporaryFile() as spool:
        setup = _model_setup(cfg, split, client, embed_client)
        with setup as (client, pool), closing(DatabaseConnections()) as connections:
            databases = sorted({database_path(cfg.benchmark_root, i.database_id)
                                for i in split.instances})

            def process(instance: TaskInstance):
                return process_instance(cfg, instance, split, client, pool, connections)

            def keep(instance: TaskInstance, result) -> tuple:
                trace, outcome, label = result
                spool.write(_trace_line(instance.question_id, trace))
                return (trace.final_sql, outcome, label,
                        _removed(bundle.truncation for bundle in trace.step_prompts))

            if cfg.workers > 1:
                executor = ThreadPoolExecutor(max_workers=cfg.workers,
                                              initializer=connections.prepare,
                                              initargs=(databases,))
                try:
                    rows = [keep(instance, result) for instance, result in
                            zip(split.instances, executor.map(process, split.instances))]
                finally:
                    executor.shutdown(cancel_futures=True)
            else:
                connections.prepare(databases)
                rows = [keep(instance, process(instance)) for instance in split.instances]

        ex_by_split = aggregate([outcome for _, outcome, _, _ in rows], split.instances)
        stats = _truncation_stats([removed for *_, removed in rows])
        taxonomy_rows = tabulate(
            [label for _, _, label, _ in rows if label is not None], len(split.instances))

        difficulty_of = {i.question_id: i.difficulty for i in split.instances}
        payload = {
            "config": cfg.snapshot(),
            "instance_count": len(split.instances),
            "ex_by_split": ex_by_split,
            "outcomes": [
                {
                    "question_id": outcome.question_id,
                    "difficulty": difficulty_of[outcome.question_id],
                    "matched": outcome.matched,
                    "predicted_sql": final_sql,
                    "predicted_error": outcome.predicted_error,
                    "gold_error": outcome.gold_error,
                    "error_label": None if label is None else {
                        "category": label.category, "detail": label.detail},
                    "truncation": {
                        "removed_columns": total,
                        "target_removed": target,
                        "example_removed": example,
                    },
                }
                for final_sql, outcome, label, (total, target, example) in rows
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

        spool.seek(0)
        with open(cfg.output_dir / "traces.jsonl", "wb") as handle:
            shutil.copyfileobj(spool, handle)

    print(f"EX: {ex_by_split}")
    _print_truncation_stats(stats, few_shot=cfg.shots > 0)
    print(f"report written to {report_path}")
    return report_path


def cmd_prep_sft(cfg: RunConfig) -> Path:
    """Emit the SFT JSONL plus truncation statistics, through `emit_sft_dataset`."""
    _check_reads(cfg, "prep-sft")
    require_sft_budget(cfg.budget)
    split = load_split(cfg.benchmark_root, cfg.split)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.output_dir / f"sft_{cfg.split}.jsonl"
    removed: list[tuple[int, int, int]] = []

    def pairs():
        for pair, record in emit_sft_dataset(
                split, cfg.variant, cfg.budget, seed=cfg.truncation_seed):
            removed.append(_removed([record]))
            yield pair

    write_sft_jsonl(pairs(), out_path)
    stats = _truncation_stats(removed)
    _print_truncation_stats(stats, few_shot=False)
    skipped = len(split.instances) - len(removed)
    if skipped:
        print(f"skipped {skipped} instances")
    print(f"wrote {len(removed)} pairs to {out_path}")
    return out_path


def cmd_serialize_schema(cfg: RunConfig) -> int:
    """Write every (database, variant) rendering under the output dir."""
    _check_reads(cfg, "serialize-schema")
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
    _check_reads(cfg, "ingest-check")
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
    """Print, or write to `out`, the question's budgeted zero-shot prompt;
    a lone surrogate, which a question's JSON `\\ud800` escape yields, is
    written as that escape."""
    _check_reads(cfg, "build-prompt")
    split = load_split(cfg.benchmark_root, cfg.split)
    instance = next(
        (i for i in split.instances if i.question_id == question_id), None)
    if instance is None:
        raise SystemExit(f"question_id {question_id} not in split {cfg.split!r}")
    catalog = split.databases[instance.database_id]
    bundle = _zero_shot_bundle(cfg, instance, question_section(instance, catalog))
    text = bundle.text.encode("utf-8", "backslashreplace").decode("utf-8")
    if out:
        out.write_text(text, encoding="utf-8")
        print(f"wrote {bundle.token_count}-token prompt to {out}")
    else:
        print(text)
    return bundle.text


def cmd_curate(cfg: RunConfig, *, client: Optional[LlmClient] = None,
               embed_client: Optional[LlmClient] = None) -> Path:
    """Write per-instance curated example selections as JSON."""
    _check_reads(cfg, "curate")
    if not cfg.pool_split:
        raise SystemExit("curate requires --pool-split")
    split = load_split(cfg.benchmark_root, cfg.split)
    with _model_setup(cfg, split, client, embed_client) as (client, pool):
        rows = []
        for instance in split.instances:
            catalog = split.databases[instance.database_id]
            draft_sql, curated = _curate(
                cfg, instance, question_section(instance, catalog), pool, client)
            rows.append({
                "question_id": instance.question_id,
                "draft_sql": draft_sql,
                "selected": [
                    {
                        "candidate_question_id":
                            pool.candidates[t.candidate_index].instance.question_id,
                        "gamma_q": round(t.gamma_q, 6),
                        "gamma_d": round(t.gamma_d, 6),
                        "gamma_s": round(t.gamma_s, 6),
                        "gamma_a": round(t.gamma_a, 6),
                    }
                    for t in curated
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


_WHERE = {"benchmark_root", "split"}
_CURATION = {"pool_split", "temperature", "embed_model_id"}  # read only to curate
_PROMPT = _WHERE | {"variant", "max_context", "response_reserve", "truncation_seed"}

# Each subcommand: (summary, the settings it reads, function). Its parser has
# only its reads' flags, and `_check_reads` rejects the others from any source.
_COMMANDS = {
    "ingest-check": ("print a split's question, table and column counts",
                     _WHERE, cmd_ingest_check),
    "serialize-schema": ("write every schema variant of each database",
                         _WHERE | {"output_dir"}, cmd_serialize_schema),
    "curate": ("select each question's examples against its zero-shot draft",
               _CONFIG_FIELDS - {"mode", "temperature", "workers", "query_timeout"},
               cmd_curate),
    "run": ("evaluate a split end to end", _CONFIG_FIELDS, cmd_run),
    "prep-sft": ("write a split's SFT prompt/completion pairs",
                 _PROMPT | {"output_dir"}, cmd_prep_sft),
    "build-prompt": ("print one question's budgeted zero-shot prompt", _PROMPT,
                     cmd_build_prompt),
    "report": ("print a report's tables", set(), cmd_report),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqlbench",
        description="Text-to-SQL prompting and execution-accuracy evaluation")
    parser.add_argument("--config", type=Path, help="JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (summary, reads, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, description=summary)
        p.set_defaults(command_parser=p)  # for `main` to report errors with its usage
        if not reads:
            continue
        p.add_argument("--config", type=Path, default=argparse.SUPPRESS,
                       help="JSON config file")
        for setting, kind, _, choices in _SETTINGS:
            flag = _flag(setting)
            if flag is None or setting.name not in reads:
                continue
            if kind is bool:
                p.add_argument(flag, action="store_const", const=True,
                               dest=setting.name, default=None)
            else:
                p.add_argument(flag, dest=setting.name, choices=choices,
                               type=None if issubclass(kind, str) else kind,
                               help=setting.metadata.get("help"))

    sub.choices["build-prompt"].add_argument("--question-id", type=int, required=True)
    sub.choices["build-prompt"].add_argument("--out", type=Path)
    sub.choices["report"].add_argument("report_file", type=Path)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args, unread = build_parser().parse_known_args(argv)
    args = vars(args)
    command, config_file = args.pop("command"), args.pop("config")
    parser = args.pop("command_parser")
    summary, reads, cmd = _COMMANDS[command]
    if unread:
        parser.error(f"unrecognized arguments: {' '.join(unread)}")
    if config_file and not reads:
        parser.error(f"{command} ({summary}) reads no setting; it cannot apply --config")
    overrides = {name: args.pop(name) for name in reads if name in args}
    try:
        cmd(*([load_config(config_file, overrides)] if reads else []), **args)
        return 0
    except SystemExit:
        raise
    except Exception as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
