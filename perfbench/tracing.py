"""Spans around the public functions of each sqlbench layer.

`install(tracer)` replaces each listed function at every sqlbench module
attribute that holds it (for example both `sqlbench.cli.truncate_target`
and `sqlbench.cot.truncate_target`), and each listed method on its class.
Spans (id, parent id, root id, name, start, end) are kept per thread in
memory and tagged with their thread when collected; `write_spans` dumps them and `layer_metrics` derives counts,
total and self time (span time minus the time of its child spans).

`budget.count_tokens` is bound as a default argument in its callers, so it
cannot be wrapped from outside; its cost stays in its callers' self time.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional

# span name -> (module, attribute); "Class.method" attributes are patched on
# the class, plain functions at every sqlbench module that binds them.
TRACED = {
    "bench.load_split": ("sqlbench.bench", "load_split"),
    "bench.introspect_database": ("sqlbench.bench", "introspect_database"),
    "gateway.replay_store_load": ("sqlbench.gateway", "ReplayStore.__init__"),
    "gateway.store_put": ("sqlbench.gateway", "ReplayStore.put"),
    "gateway.complete": ("sqlbench.gateway", "LlmClient.complete"),
    "gateway.embed": ("sqlbench.gateway", "LlmClient.embed"),
    "gateway.extract_sql": ("sqlbench.gateway", "extract_sql"),
    "curation.build_pool": ("sqlbench.curation", "build_pool"),
    "curation.score_candidates": ("sqlbench.curation", "score_candidates"),
    "curation.cosine": ("sqlbench.curation", "cosine"),
    "curation.select_top_k": ("sqlbench.curation", "select_top_k"),
    "schema.render_schema": ("sqlbench.schema", "render_schema"),
    "schema.column_line_costs": ("sqlbench.schema", "column_line_costs"),
    "schema.schema_token_fn": ("sqlbench.schema", "schema_token_fn"),
    "budget.partition_columns": ("sqlbench.budget", "partition_columns"),
    "budget.truncate_target": ("sqlbench.budget", "truncate_target"),
    "budget.truncate_examples": ("sqlbench.budget", "truncate_examples"),
    "prompts.build_open_prompt": ("sqlbench.prompts", "build_open_prompt"),
    "prompts.build_few_shot_prompt": ("sqlbench.prompts", "build_few_shot_prompt"),
    "prompts.few_shot_text": ("sqlbench.prompts", "few_shot_text"),
    "prompts.open_prompt_token_fn": ("sqlbench.prompts", "open_prompt_token_fn"),
    "cot.run_cot": ("sqlbench.cot", "run_cot"),
    "evaluate.execute_and_compare": ("sqlbench.evaluate", "execute_and_compare"),
    "taxonomy.classify": ("sqlbench.taxonomy", "classify"),
    "skeleton.tokenize": ("sqlbench.skeleton", "tokenize"),
    "skeleton.extract_skeleton": ("sqlbench.skeleton", "extract_skeleton"),
    "cli.process_instance": ("sqlbench.cli", "process_instance"),
}


class Tracer:
    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_spans: list[list[tuple]] = []
        self.counters: Counter = Counter()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self._thread_spans.append(local.spans)
        return local.spans, local.stack

    def wrap(self, name: str, fn: Callable, before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """Record a span per call; hooks run outside the span's interval."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            spans, stack = self._state()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            root = stack[0] if stack else span_id
            stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, root, name, start, end))
                if after:
                    after(self, state, None if error else return_value, error)
            return return_value

        return traced

    def spans(self) -> list[tuple]:
        """(id, parent, root, name, start, end, thread) for every closed span."""
        with self._lock:
            return [span + (thread,) for thread, spans in enumerate(self._thread_spans)
                    for span in spans]


def _store_hits(client, digests) -> tuple[int, int]:
    if client.store is None or client.mode == "live":
        return 0, len(digests)
    found = sum(client.store.get(d) is not None for d in digests)
    return found, len(digests) - found


def _hooks(gateway) -> dict:
    """Counters read from arguments and results at the traced boundaries."""

    def complete_before(client, prompt, *args, **kwargs):
        text = getattr(prompt, "text", prompt)
        return _store_hits(client, [gateway.prompt_digest(text, client.endpoint.model_id)])

    def embed_before(client, texts, *args, **kwargs):
        model = client.endpoint.model_id
        return _store_hits(client, [gateway.prompt_digest("embed:" + t, model) for t in texts])

    def lookups_after(tracer, state, result, error):
        hits, absent = state
        tracer.count("gateway.replay_hits", hits)
        if isinstance(error, gateway.ReplayMiss):
            tracer.count("gateway.replay_misses", absent)

    def store_after(tracer, state, result, error):
        store = state
        if len(store):
            tracer.count("gateway.replay_store.loads")

    def truncation_after(examples: bool):
        def after(tracer, state, result, error):
            if result is not None:
                removed = result[1].total_removed
                tracer.count("budget.columns_removed", removed)
                if examples:  # the base of renders_per_removed_column
                    tracer.count("budget.truncate_examples.removed", removed)
        return after

    def cot_after(tracer, state, result, error):
        if result is not None:
            tracer.count("cot.steps", len(result.step_prompts))

    def evaluate_after(tracer, state, result, error):
        if result is None:
            return
        for message in (result.predicted_error, result.gold_error):
            if message == "timeout":
                tracer.count("evaluate.timeouts")
            elif message:
                tracer.count("evaluate.query_errors")

    return {
        "gateway.complete": (complete_before, lookups_after),
        "gateway.embed": (embed_before, lookups_after),
        "gateway.replay_store_load": (lambda store, *a, **k: store, store_after),
        "budget.truncate_target": (None, truncation_after(False)),
        "budget.truncate_examples": (None, truncation_after(True)),
        "cot.run_cot": (None, cot_after),
        "evaluate.execute_and_compare": (None, evaluate_after),
    }


def install(tracer: Tracer) -> None:
    """Patch every traced function and method of the imported sqlbench."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "sqlbench" or n.startswith("sqlbench."))]
    hooks = _hooks(sys.modules["sqlbench.gateway"])
    for name, (module_name, attribute) in TRACED.items():
        before, after = hooks.get(name, (None, None))
        owner = sys.modules[module_name]
        if "." in attribute:
            class_name, method = attribute.split(".")
            cls = getattr(owner, class_name)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method), before, after))
            continue
        original = getattr(owner, attribute)
        wrapper = tracer.wrap(name, original, before, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def write_spans(spans: list[tuple], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, parent, root, name, start, end, thread in sorted(spans, key=lambda s: s[4]):
            handle.write(json.dumps({"id": span_id, "parent": parent, "root": root,
                                     "name": name, "start": start, "end": end,
                                     "thread": thread}) + "\n")


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def layer_metrics(spans: list[tuple], counters: Counter, names) -> dict[str, float]:
    """Per-layer metric values for `names`, derived from spans and counters.

    `<span>.calls`, `<span>.s` and `<span>.self_s` come from spans of that
    name; the remaining names are counters or the derived values below.
    """
    child_time: dict[int, float] = defaultdict(float)
    name_of: dict[int, str] = {}
    parent_of: dict[int, int] = {}
    for span_id, parent, _, name, start, end, _ in spans:
        name_of[span_id] = name
        parent_of[span_id] = parent
        if parent:
            child_time[parent] += end - start
    calls: Counter = Counter()
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    complete_ms: list[float] = []
    renders_in_truncation = 0
    for span_id, parent, _, name, start, end, _ in spans:
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[span_id]
        if name == "gateway.complete":
            complete_ms.append((end - start) * 1000)
        elif name == "prompts.few_shot_text":
            ancestor = parent
            while ancestor and name_of.get(ancestor) != "budget.truncate_examples":
                ancestor = parent_of.get(ancestor, 0)
            renders_in_truncation += bool(ancestor)

    removed_by_examples = counters["budget.truncate_examples.removed"]
    derived = {
        "gateway.complete_ms.p50": percentile(complete_ms, 50),
        "gateway.complete_ms.p99": percentile(complete_ms, 99),
        "budget.renders_per_removed_column": (
            renders_in_truncation / removed_by_examples if removed_by_examples else 0.0),
    }
    values: dict[str, float] = {}
    for metric in names:
        span, _, stat = metric.rpartition(".")
        if metric in derived:
            values[metric] = derived[metric]
        elif stat == "calls" and span in TRACED:
            values[metric] = calls[span]
        elif stat == "s" and span in TRACED:
            values[metric] = total[span]
        elif stat == "self_s" and span in TRACED:
            values[metric] = self_time[span]
        else:
            values[metric] = counters[metric]
    return values
