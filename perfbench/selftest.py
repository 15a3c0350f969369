"""Tests of the benchmark's own parts.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's default test collection: the keep-alive
check is a timing comparison against a local server.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest
import requests

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from endpoint import EndpointProcess  # noqa: E402
from generate import generate  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

from sqlbench.gateway import LlmClient, LlmEndpoint  # noqa: E402

QUESTION = "How many entries of t_kamoru come at or before number 7?"


@pytest.fixture()
def endpoint(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({QUESTION: {
        "final": " COUNT(*) FROM t_kamoru WHERE id <= 7", "tables": "Tables: (t_kamoru)",
        "columns": "Columns: t_kamoru: (id)", "skeleton": "SELECT COUNT(*) FROM t_kamoru"}}))
    with EndpointProcess(script, 0, tmp_path) as server:
        yield server


def test_endpoint_answers_string_and_list_prompts(endpoint):
    prompt = f"### Question: {QUESTION}\nSELECT"
    url = endpoint.base_url + "/v1/completions"
    single = requests.post(url, json={"model": "m", "prompt": prompt}).json()
    batch = requests.post(url, json={"model": "m", "prompt": [prompt, prompt + " "]}).json()
    assert [c["text"] for c in single["choices"]] == [" COUNT(*) FROM t_kamoru WHERE id <= 7"]
    assert [c["index"] for c in batch["choices"]] == [0, 1]
    vectors = requests.post(endpoint.base_url + "/v1/embeddings",
                            json={"model": "m", "input": ["a", "b"]}).json()["data"]
    assert [len(v["embedding"]) for v in vectors] == [384, 384]
    assert endpoint.stats() == {"requests": 3, "connections": 3}


def test_keep_alive_session_is_not_slower(endpoint):
    """A connection-reusing transport must not be penalised by the server."""
    session = requests.Session()

    def session_transport(url, payload, headers, timeout):
        response = session.post(url, json=payload, headers=headers, timeout=timeout)
        return response.status_code, response.json()

    config = LlmEndpoint(endpoint.base_url, "m")
    default, reused = LlmClient(config), LlmClient(config, transport=session_transport)
    prompt = f"### Question: {QUESTION}\nSELECT"
    timings: dict[LlmClient, list[float]] = {default: [], reused: []}
    before = endpoint.stats()
    for _ in range(8):  # interleaved rounds, so drifts in machine speed hit both
        for client, samples in timings.items():
            for _ in range(10):
                started = time.perf_counter()
                client.complete(prompt)
                samples.append(time.perf_counter() - started)
    after = endpoint.stats()
    session.close()
    assert after["requests"] - before["requests"] == 160
    assert after["connections"] - before["connections"] == 81
    assert statistics.median(timings[reused]) <= statistics.median(timings[default])


def test_generator_is_deterministic(tmp_path):
    digests = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        generate("cot_live", seed, tmp_path / name)
        digests.append([p.read_bytes() for p in sorted((tmp_path / name).rglob("*"))
                        if p.is_file()])
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("skeleton.tokenize", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        inner()
        time.sleep(0.01)

    outer = tracer.wrap("taxonomy.classify", outer_body)
    outer()
    values = layer_metrics(tracer.spans(), tracer.counters, [
        "taxonomy.classify.calls", "taxonomy.classify.s", "taxonomy.classify.self_s",
        "skeleton.tokenize.calls"])
    assert values["taxonomy.classify.calls"] == 1
    assert values["skeleton.tokenize.calls"] == 2
    assert values["taxonomy.classify.s"] >= 0.05
    assert 0.01 <= values["taxonomy.classify.self_s"] < 0.02


def test_run_fails_without_sources(tmp_path):
    """In a directory holding only the benchmark, run.py exits non-zero, printing no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cot_live", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
