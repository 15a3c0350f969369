"""One pass of `sqlbench run`, in a fresh process, timed from outside src/.

    python3 perfbench/child.py --request request.json

The request names the `sqlbench run` arguments, the pass kind and where to
write results. Kinds:

  run     call `sqlbench.cli.main`, the entry point a user runs;
  record  call `cli.cmd_run` with the scripted model passed through
          `build_client(cfg, transport=...)` (and `build_embed_client`),
          recording the replay store the measured passes read.

`cli.process_instance` is wrapped to time each question, which also marks
the end of set-up (the first question's start). The result lists each
question's id, start and end (seconds after the first start) in the order
the questions finished. With `trace`, every layer
is wrapped as well (see tracing.py), spans go to a separate file and
per-layer metrics go into the result.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak resident set of this process image (VmHWM), in MiB.

    Unlike ru_maxrss, VmHWM starts afresh at exec, so the parent's size at
    fork never counts."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--request", type=Path, required=True)
    request = json.loads(parser.parse_args().request.read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(request["checkout"]) / "src"))

    import sqlbench.cli as cli

    tracer = None
    if request["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    intervals: list[tuple[int, float, float]] = []
    lock = threading.Lock()
    process_instance = cli.process_instance

    def timed_process_instance(config, instance, *args, **kwargs):
        start = time.perf_counter()
        try:
            return process_instance(config, instance, *args, **kwargs)
        finally:
            end = time.perf_counter()
            with lock:
                intervals.append((instance.question_id, start, end))

    cli.process_instance = timed_process_instance

    argv = request["argv"]
    if request["kind"] == "record":
        from scripted import Script, ScriptedTransport
        args = cli.build_parser().parse_args(argv)
        fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
        cfg = cli.load_config(None, {k: v for k, v in vars(args).items()
                                     if k in fields and v is not None})
        transport = ScriptedTransport(Script(Path(request["script"])))
        cli.cmd_run(
            cfg, client=cli.build_client(cfg, transport=transport),
            embed_client=cli.build_embed_client(cfg, transport=transport) if cfg.shots else None)
        status = 0
    else:
        status = cli.main(argv)
    finished = time.perf_counter()

    result = {
        "status": status,
        "wall_s": finished - STARTED,
        "questions": len(intervals),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if intervals:
        first = min(start for _, start, _ in intervals)
        last = max(end for _, _, end in intervals)
        result.update({
            "setup_s": first - STARTED,
            "finalize_s": finished - last,
            "timeline": [[qid, start - first, end - first] for qid, start, end in intervals],
        })
    if tracer is not None:
        spans = tracer.spans()
        tracing.write_spans(spans, Path(request["spans"]))
        result["layers"] = tracing.layer_metrics(spans, tracer.counters, request["layer_metrics"])
    Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
