"""Chat-completion and embedding client with deterministic record/replay.

The wire format is plain-completion JSON ({model, prompt, temperature,
max_tokens}) against an open-model-server style route, because prompts end
mid-statement on a cue; chat-message wrapping is available behind a flag
for servers without a raw completion route.

Replay stores are append-only JSONL files mapping a prompt digest to the
recorded response, which makes whole pipeline runs bit-deterministic and
testable offline.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import requests

from .curation import DimensionMismatch, end_last_line, load_jsonl


class EndpointUnreachable(ConnectionError):
    pass


class HttpStatusError(RuntimeError):
    def __init__(self, status: int, body: str):
        super().__init__(f"HTTP {status}: {body[:500]}")
        self.status = status
        self.body = body


class ReplayMiss(KeyError):
    pass


class EmptyResponse(ValueError):
    pass


@dataclass(frozen=True)
class LlmEndpoint:
    base_url: str
    model_id: str
    sampling_temperature: float = 0.001
    max_response_tokens: int = 200
    timeout: float = 60.0
    api_key: Optional[str] = None
    chat_style: bool = False
    completion_path: str = "/v1/completions"
    chat_path: str = "/v1/chat/completions"
    embedding_path: str = "/v1/embeddings"
    embed_batch_size: int = 64

    def __post_init__(self) -> None:
        if self.sampling_temperature < 0:
            raise ValueError("sampling_temperature must be >= 0")
        if self.max_response_tokens <= 0:
            raise ValueError("max_response_tokens must be positive")


@dataclass(frozen=True)
class CompletionRecord:
    digest: str
    model: str
    response: str
    prompt_tokens: int = 0
    completion_tokens: int = 0


def prompt_digest(prompt_text: str, model_id: str) -> str:
    payload = prompt_text.encode("utf-8") + b"\x00" + model_id.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class ReplayStore:
    """Append-only JSONL store of completion records, keyed by digest.

    Reads are lock-free against an in-memory index; writes are serialized
    and flushed line by line so concurrent runs never corrupt the file.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._records: dict[str, CompletionRecord] = {}
        self._lock = threading.Lock()

        def add(raw: dict) -> None:
            self._records.setdefault(raw["hash"], CompletionRecord(
                digest=raw["hash"],
                model=raw["model"],
                response=raw["response"],
                prompt_tokens=raw.get("prompt_tokens", 0),
                completion_tokens=raw.get("completion_tokens", 0),
            ))

        self._tail = load_jsonl(self.path, add)

    def get(self, digest: str) -> Optional[CompletionRecord]:
        return self._records.get(digest)

    def put(self, record: CompletionRecord) -> None:
        with self._lock:
            if record.digest in self._records:
                return
            self._records[record.digest] = record
            self.path.parent.mkdir(parents=True, exist_ok=True)
            end_last_line(self.path, self._tail)
            self._tail = None
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({
                    "hash": record.digest,
                    "model": record.model,
                    "response": record.response,
                    "prompt_tokens": record.prompt_tokens,
                    "completion_tokens": record.completion_tokens,
                }, ensure_ascii=False) + "\n")

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, digest: str) -> bool:
        return digest in self._records


# transport(url, payload, headers, timeout) -> (status_code, parsed_json)
Transport = Callable[[str, dict, dict, float], tuple[int, dict]]


def _http_transport(url: str, payload: dict, headers: dict, timeout: float) -> tuple[int, dict]:
    response = requests.post(url, json=payload, headers=headers, timeout=timeout)
    try:
        body = response.json()
    except ValueError:
        body = {"error": response.text}
    return response.status_code, body


_RETRYABLE_STATUSES = {429, 500, 502, 503, 504}
REPLAY_MODES = ("live", "record", "replay")


class LlmClient:
    """Completion/embedding client over an injectable transport.

    mode "live" always hits the wire; "record" serves store hits and
    records misses; "replay" never touches the wire and raises ReplayMiss
    on unknown digests.
    """

    def __init__(
        self,
        endpoint: LlmEndpoint,
        *,
        mode: str = "live",
        store: Optional[ReplayStore] = None,
        transport: Transport = _http_transport,
        max_retries: int = 3,
        backoff: float = 0.5,
    ):
        if mode not in REPLAY_MODES:
            raise ValueError(f"unknown client mode {mode!r}")
        if mode in ("record", "replay") and store is None:
            raise ValueError(f"{mode} mode requires a replay store")
        self.endpoint = endpoint
        self.mode = mode
        self.store = store
        self.transport = transport
        self.max_retries = max_retries
        self.backoff = backoff

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.endpoint.api_key:
            headers["Authorization"] = f"Bearer {self.endpoint.api_key}"
        return headers

    def _post(self, path: str, payload: dict) -> dict:
        url = self.endpoint.base_url.rstrip("/") + path
        last_error: Optional[Exception] = None
        for attempt in range(self.max_retries):
            try:
                status, body = self.transport(
                    url, payload, self._headers(), self.endpoint.timeout)
            except (requests.ConnectionError, requests.Timeout, ConnectionError, OSError) as exc:
                last_error = exc
                if attempt < self.max_retries - 1 and self.backoff:
                    time.sleep(self.backoff * 2 ** attempt)
                continue
            if 200 <= status < 300:
                return body
            if status in _RETRYABLE_STATUSES and attempt < self.max_retries - 1:
                last_error = HttpStatusError(status, json.dumps(body))
                if self.backoff:
                    time.sleep(self.backoff * 2 ** attempt)
                continue
            raise HttpStatusError(status, json.dumps(body))
        if isinstance(last_error, HttpStatusError):
            raise last_error
        raise EndpointUnreachable(
            f"{url} unreachable after {self.max_retries} attempts: {last_error}")

    def complete(self, prompt) -> str:
        """Return the raw model text for a prompt (str or PromptBundle)."""
        text = getattr(prompt, "text", prompt)
        digest = prompt_digest(text, self.endpoint.model_id)
        if self.store is not None and self.mode != "live":
            record = self.store.get(digest)
            if record is not None:
                return record.response
        if self.mode == "replay":
            raise ReplayMiss(f"no recorded response for prompt digest {digest[:16]}")

        if self.endpoint.chat_style:
            payload = {
                "model": self.endpoint.model_id,
                "messages": [{"role": "user", "content": text}],
                "temperature": self.endpoint.sampling_temperature,
                "max_tokens": self.endpoint.max_response_tokens,
            }
            body = self._post(self.endpoint.chat_path, payload)
            response_text = body["choices"][0]["message"]["content"]
        else:
            payload = {
                "model": self.endpoint.model_id,
                "prompt": text,
                "temperature": self.endpoint.sampling_temperature,
                "max_tokens": self.endpoint.max_response_tokens,
            }
            body = self._post(self.endpoint.completion_path, payload)
            response_text = body["choices"][0]["text"]

        usage = body.get("usage") or {}
        if self.mode == "record" and self.store is not None:
            self.store.put(CompletionRecord(
                digest=digest,
                model=self.endpoint.model_id,
                response=response_text,
                prompt_tokens=int(usage.get("prompt_tokens", 0)),
                completion_tokens=int(usage.get("completion_tokens", 0)),
            ))
        return response_text

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        """Embed texts, preserving order and chunking to the batch limit."""
        if not texts:
            raise ValueError("embed requires at least one text")
        vectors: list[Optional[list[float]]] = [None] * len(texts)
        pending: list[int] = []

        for i, text in enumerate(texts):
            digest = prompt_digest("embed:" + text, self.endpoint.model_id)
            if self.store is not None and self.mode != "live":
                record = self.store.get(digest)
                if record is not None:
                    vectors[i] = json.loads(record.response)
                    continue
            pending.append(i)

        if pending and self.mode == "replay":
            raise ReplayMiss(f"{len(pending)} embedding texts missing from store")

        batch = self.endpoint.embed_batch_size
        for start in range(0, len(pending), batch):
            chunk = pending[start:start + batch]
            payload = {
                "model": self.endpoint.model_id,
                "input": [texts[i] for i in chunk],
            }
            body = self._post(self.endpoint.embedding_path, payload)
            rows = sorted(body["data"], key=lambda row: row.get("index", 0))
            if len(rows) != len(chunk):
                raise DimensionMismatch(
                    f"server returned {len(rows)} vectors for {len(chunk)} inputs")
            for offset, row in zip(chunk, rows):
                vectors[offset] = list(row["embedding"])
                if self.mode == "record" and self.store is not None:
                    self.store.put(CompletionRecord(
                        digest=prompt_digest("embed:" + texts[offset], self.endpoint.model_id),
                        model=self.endpoint.model_id,
                        response=json.dumps(vectors[offset]),
                    ))

        dims = {len(v) for v in vectors if v is not None}
        if len(dims) > 1:
            raise DimensionMismatch(f"ragged embedding dimensions: {sorted(dims)}")
        return [v for v in vectors if v is not None]


_TERMINATOR_RE = re.compile(r";|\n\s*\n|```")


def extract_sql(raw_response: str, cue: str = "SELECT") -> str:
    """Pull the first cue-anchored SQL statement out of a model response.

    The statement runs from the cue (prepended when the response continues
    the prompt mid-statement) to the first semicolon, blank line or code
    fence close. Whitespace is normalized to single spaces, so the result
    never contains a newline.
    """
    if raw_response is None or not raw_response.strip():
        raise EmptyResponse("model returned no text")

    anchored = re.search(
        rf"(?im)^[ \t>*`]*({re.escape(cue)})\b", raw_response)
    if anchored:
        body = raw_response[anchored.end(1):]
    else:
        body = raw_response

    cut = _TERMINATOR_RE.search(body)
    if cut:
        body = body[:cut.start()]

    statement = " ".join((cue + " " + body).split())
    return statement
