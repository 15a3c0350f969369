"""The scripted model: answers for every prompt shape, and embeddings.

Both the in-process record transport and the fake HTTP endpoint answer
through `Script`, so a recorded store and a live run see the same text.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

EMBED_DIM = 384
_QUESTION_PREFIX = "### Question: "


class Script:
    """Answers keyed by the prompt's last question line (the target's)."""

    def __init__(self, path: Path):
        self.answers: dict[str, dict] = json.loads(Path(path).read_text(encoding="utf-8"))

    def complete(self, prompt: str) -> str:
        question = next(line for line in reversed(prompt.splitlines())
                        if line.startswith(_QUESTION_PREFIX))[len(_QUESTION_PREFIX):]
        entry = self.answers[question]
        tail = prompt.rstrip()
        if tail.endswith("Tables: (table\n         table)"):
            return entry["tables"]
        if tail.endswith("Columns: table: (column\n                column)"):
            return entry["columns"]
        if tail.endswith("corresponding to the question."):
            return entry["skeleton"]
        return entry["final"]


def embed(text: str) -> list[float]:
    """Deterministic unit-scale pseudo-embedding of a text."""
    seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
    vector = np.random.default_rng(seed).standard_normal(EMBED_DIM)
    return [round(float(x), 5) for x in vector]


def completion_body(script: Script, prompt) -> dict:
    """An OpenAI-style completion body; `prompt` may be a string or a list."""
    prompts = [prompt] if isinstance(prompt, str) else list(prompt)
    return {
        "choices": [{"index": i, "text": script.complete(p)} for i, p in enumerate(prompts)],
        "usage": {"prompt_tokens": sum(len(p.split()) for p in prompts),
                  "completion_tokens": len(prompts)},
    }


def embedding_body(texts) -> dict:
    texts = [texts] if isinstance(texts, str) else list(texts)
    return {"data": [{"index": i, "embedding": embed(t)} for i, t in enumerate(texts)]}


class ScriptedTransport:
    """In-process transport with the signature `LlmClient` expects."""

    def __init__(self, script: Script):
        self.script = script

    def __call__(self, url: str, payload: dict, headers: dict, timeout: float):
        if url.endswith("/embeddings"):
            return 200, embedding_body(payload["input"])
        return 200, completion_body(self.script, payload["prompt"])
