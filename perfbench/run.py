"""sqlbench benchmark: generate a workload, run it, check it, print metrics.

    python3 perfbench/run.py --workload fewshot3 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the program under test is imported from
its src/ directory. Each run writes its inputs, the replay store, every
pass's report and spans under .perfbench_work/<workload>/ in the checkout.

A run generates the workload's inputs from the seed, records the replay
store in an untimed pass where the workload replays its model, then runs
`sqlbench run` in a fresh process per pass until --seconds have elapsed
(at least two passes). A live workload runs one untimed warm-up pass
first. With --trace 1, passes alternate untraced and
traced; the traced ones give the per-layer metrics and the difference in
wall time is the tracing overhead. Every pass is checked: the per-question
matches and ex_by_split.sum equal the answer key, no replay lookup misses,
no pipeline errors, and report.json and traces.jsonl are byte-identical
across passes. Questions of a failed check count as failed.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics, or per-layer
metrics with --trace 1); the lines above it print every metric with its
unit, including error_rate and, for cot_live, requests_per_question.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from endpoint import EndpointProcess  # noqa: E402
from generate import WORKLOADS, generate  # noqa: E402
from tracing import percentile  # noqa: E402

SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
END_TO_END = [m for m in SPEC["end_to_end"] if m.get("in_benchmark_json", True)]
PER_LAYER = SPEC["per_layer"]
# Layer metrics the child derives from its own spans and counters.
CHILD_LAYER_METRICS = [m["name"] for m in PER_LAYER
                       if not m["name"].startswith(("endpoint.", "trace.", "cli.finalize"))]
_REPLAY_MISS_MARKERS = ("no recorded response", "missing from store")
TIME_LIMIT_S = 150


class RunFailed(RuntimeError):
    pass


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


class WorkloadRun:
    def __init__(self, checkout: Path, workload: str, seed: int):
        self.started = time.monotonic()
        self.checkout = checkout
        self.workload = workload
        self.seed = seed
        self.spec = SPEC["workloads"][workload]
        self.work = checkout / ".perfbench_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        self.key = generate(workload, seed, self.work / "data")
        self.store = self.work / "store.jsonl"
        self.env = dict(os.environ, SQLITE_TMPDIR=str(self.work / "tmp"),
                        TMPDIR=str(self.work / "tmp"))
        self.endpoint: EndpointProcess | None = None

    def argv(self, output_dir: Path, replay_mode: str) -> list[str]:
        def rel(path: Path) -> str:
            return str(path.relative_to(self.checkout))

        argv = ["run", "--benchmark-root", rel(self.work / "data" / "root"), "--split", "dev",
                "--seed", str(self.seed), "--output-dir", rel(output_dir),
                "--replay-store", rel(self.store), "--replay-mode", replay_mode,
                *self.spec["args"]]
        if self.endpoint is not None:
            argv += ["--base-url", self.endpoint.base_url]
        return argv

    def child(self, name: str, kind: str, argv: list[str], trace: bool) -> dict:
        out = self.work / name
        out.mkdir(exist_ok=True)
        request = {
            "checkout": str(self.checkout), "kind": kind, "argv": argv, "trace": trace,
            "script": str(self.work / "data" / "script.json"),
            "result": str(out / "result.json"), "spans": str(out / "spans.jsonl"),
            "layer_metrics": CHILD_LAYER_METRICS,
        }
        (out / "request.json").write_text(json.dumps(request, indent=1), encoding="utf-8")
        remaining = TIME_LIMIT_S + 20 - (time.monotonic() - self.started)
        with open(out / "log.txt", "wb") as log:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), "--request", str(out / "request.json")],
                cwd=self.checkout, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                timeout=max(remaining, 5))
        if proc.returncode != 0:
            raise RunFailed(f"{name}: child exited with {proc.returncode}; see {out / 'log.txt'}")
        return json.loads((out / "result.json").read_text(encoding="utf-8"))

    def record(self) -> None:
        """Untimed pass that records the replay store with the scripted model."""
        self.child("record", "record", self.argv(self.work / "record", "record"), False)
        if not self.store.is_file():
            raise RunFailed("record pass wrote no replay store")

    def measured_pass(self, name: str, trace: bool) -> dict:
        live = self.spec["model"] == "live"
        if live:
            self.store.unlink(missing_ok=True)
        before = self.endpoint.stats() if self.endpoint else None
        result = self.child(name, "run", self.argv(self.work / name, "record" if live else "replay"),
                            trace)
        if self.endpoint:
            after = self.endpoint.stats()
            result["requests"] = after["requests"] - before["requests"]
            result["connections"] = after["connections"] - before["connections"]
        result["trace"] = trace
        result.update(self.check(self.work / name, result["status"]))
        return result

    def check(self, out: Path, status: int) -> dict:
        """Per-question and per-pass output checks against the answer key."""
        problems: list[str] = []
        failed: set[int] = set()
        misses = 0
        expected = self.key["matched"]
        report_path, traces_path = out / "report.json", out / "traces.jsonl"
        if status != 0:
            problems.append(f"sqlbench run returned {status}")
        if not report_path.is_file() or not traces_path.is_file():
            problems.append("report.json or traces.jsonl missing")
            return {"problems": problems, "failed": self.key["questions"], "digest": None}
        report = json.loads(report_path.read_text(encoding="utf-8"))
        for row in report["outcomes"]:
            error = row["predicted_error"] or ""
            if any(marker in error for marker in _REPLAY_MISS_MARKERS):
                misses += 1
            if error.startswith("pipeline error") or row["matched"] != expected.get(
                    str(row["question_id"])):
                failed.add(row["question_id"])
        if len(report["outcomes"]) != self.key["questions"]:
            problems.append(f"{len(report['outcomes'])} outcomes for "
                            f"{self.key['questions']} questions")
        key_sum = round(100.0 * sum(expected.values()) / self.key["questions"], 2)
        if report["ex_by_split"]["sum"] != key_sum:
            problems.append(f"ex_by_split.sum {report['ex_by_split']['sum']} != key {key_sum}")
        if misses:
            problems.append(f"{misses} replay misses")
        if failed:
            problems.append(f"{len(failed)} questions failed (pipeline error or wrong match)")
        return {"problems": problems,
                "failed": self.key["questions"] if problems and not failed else len(failed),
                "digest": _digest(report_path, traces_path)}

    def run(self, seconds: float, trace: bool) -> list[dict]:
        delay = self.spec.get("endpoint_delay_ms")
        if delay is not None:
            self.endpoint = EndpointProcess(self.work / "data" / "script.json", delay, self.work)
        try:
            # One untimed pass first: it records the store the replay
            # workloads read, and warms caches for all of them.
            if self.spec["model"] == "replay":
                self.record()
            else:
                self.measured_pass("warmup", False)
            passes: list[dict] = []
            deadline = time.monotonic() + seconds
            while True:
                passes.append(self.measured_pass(f"pass{len(passes)}",
                                                 trace and len(passes) % 2 == 1))
                enough = len(passes) >= 2
                if enough and (time.monotonic() >= deadline
                               or time.monotonic() - self.started > TIME_LIMIT_S):
                    break
        finally:
            if self.endpoint is not None:
                self.endpoint.stop()
        first = passes[0]["digest"]
        for p in passes[1:]:
            if p["digest"] != first:
                p["problems"].append("report.json/traces.jsonl differ from the first pass")
                p["failed"] = self.key["questions"]
        return passes


BLOCK = 10  # questions per throughput segment


def _block_walls(p: dict) -> list[float]:
    """Wall time of each run of BLOCK consecutive question completions."""
    ends = sorted(end for _, _, end in p["timeline"])
    marks = [0.0] + ends[BLOCK - 1::BLOCK]
    if len(ends) % BLOCK:
        marks.append(ends[-1])
    return [b - a for a, b in zip(marks, marks[1:])]


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """Aggregate the passes of a run.

    The host's cores are shared: a busy neighbour slows the program by
    1.5-2x in spells of seconds to minutes. Every pass runs the same
    questions in the same order, so the median question time is taken
    over each question's best time over the passes, and the time of a pass
    is the sum of the best wall time of each segment of BLOCK consecutive
    completions plus the best finalize time. Both estimate the program's
    own cost from the fast moments the spells leave. The tail, which the
    spells also set, is the median pass's p95; set-up time and memory are
    medians over passes.
    """
    best: dict[int, float] = {}
    for p in passes:
        for qid, start, end in p["timeline"]:
            best[qid] = min(best.get(qid, end - start), end - start)
    blocks = [min(walls) for walls in zip(*(_block_walls(p) for p in passes))]
    run_s = sum(blocks) + min(p["finalize_s"] for p in passes)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "questions_per_s": passes[0]["questions"] / run_s,
        "question_ms.p50": percentile([s * 1000 for s in best.values()], 50),
        "question_ms.p95": statistics.median(
            percentile([(end - start) * 1000 for _, start, end in p["timeline"]], 95)
            for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    values: dict[str, float] = {}
    for name in CHILD_LAYER_METRICS:
        values[name] = statistics.median(p["layers"][name] for p in traced)
    requests = statistics.median(p.get("requests", 0) for p in traced)
    values["endpoint.requests"] = requests
    values["endpoint.connections"] = statistics.median(p.get("connections", 0) for p in traced)
    values["endpoint.retries"] = (requests - values["gateway.complete.calls"]
                                  if requests else 0)
    values["endpoint.requests_per_question"] = statistics.median(
        p.get("requests", 0) / p["questions"] for p in traced)
    values["cli.finalize.s"] = statistics.median(p["finalize_s"] for p in traced)
    values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in untraced))
    return {m["name"]: values[m["name"]] for m in PER_LAYER}


def run_workload(checkout: Path, workload: str, seed: int, seconds: float, trace: bool):
    """Returns (correct, attempted, failed, metrics) and prints every metric."""
    runner = WorkloadRun(checkout, workload, seed)
    passes = runner.run(seconds, trace)
    untraced = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    attempted = sum(p["questions"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for i, p in enumerate(passes):
        for problem in p["problems"]:
            print(f"CHECK FAILED {workload} pass{i}: {problem}")

    samples = sum(len(p["timeline"]) for p in untraced)
    print(f"== {workload} seed={seed}: {len(untraced)} untraced, {len(traced)} traced passes, "
          f"{samples} question samples, checks {'passed' if not failed else 'FAILED'}")
    e2e = end_to_end(untraced)
    e2e["error_rate"] = failed / attempted
    if runner.endpoint is not None:
        e2e["requests_per_question"] = statistics.median(
            p["requests"] / p["questions"] for p in untraced)
    for m in SPEC["end_to_end"]:
        if m["name"] in e2e:
            print(f"  {m['name']:<28} {e2e[m['name']]:>14.6g} {m['unit']}")
    if trace:
        layers = per_layer(traced, untraced)
        for m in PER_LAYER:
            print(f"  {m['name']:<40} {layers[m['name']]:>14.6g} {m['unit']}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in PER_LAYER}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in END_TO_END}
    return failed == 0, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sqlbench benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    if not (checkout / "src" / "sqlbench" / "cli.py").is_file():
        print(f"no sqlbench sources under {checkout / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        ok, tried, bad, values = run_workload(checkout, workload, args.seed, args.seconds,
                                              bool(args.trace))
        correct, attempted, failed = correct and ok, attempted + tried, failed + bad
        prefix = f"{workload}/" if args.workload == "all" else ""
        metrics.update({prefix + name: value for name, value in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
