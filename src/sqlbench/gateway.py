"""Chat-completion and embedding client with deterministic record/replay.

The wire format is plain-completion JSON ({model, prompt, temperature,
max_tokens}) against an open-model-server style route, because prompts end
mid-statement on a cue; chat-message wrapping is available behind a flag
for servers without a raw completion route.

Every stored model call goes through one append-only JSONL digest store:
the replay store maps a prompt digest to the recorded response, which makes
whole pipeline runs bit-deterministic and testable offline, and the
embedding cache maps a text digest to its vector across runs.

The network modules (`http.client`, `ssl`, `urllib.request`, `netrc`,
`base64`, and with them `email` and `socket`) are imported where a request
is sent, and all at once when a `PooledTransport` is built, so a run that
builds one loads them during its set-up and a replay run, which builds
none, never loads them. The code looks their names up on the modules at
call time.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, Sequence
from urllib.parse import unquote, urlsplit

from .curation import DimensionMismatch, EmbeddingFn

if TYPE_CHECKING:
    import http.client
    import ssl

    import numpy as np

logger = logging.getLogger(__name__)

COMPLETION_PATH = "/v1/completions"
CHAT_PATH = "/v1/chat/completions"
EMBEDDING_PATH = "/v1/embeddings"
MAX_RETRIES = 3


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
    embed_batch_size: int = 64

    def __post_init__(self) -> None:
        if self.sampling_temperature < 0:
            raise ValueError("sampling_temperature must be >= 0")
        if self.max_response_tokens <= 0:
            raise ValueError("max_response_tokens must be positive")
        url = urlsplit(self.base_url)
        try:
            url.port  # raises on a port that is not a number in 0..65535
        except ValueError:
            valid = False
        else:
            valid = url.scheme in ("http", "https") and bool(url.hostname)
        if not valid:
            raise ValueError(f"base_url must be an http:// or https:// URL with a host "
                             f"and a valid port, got {self.base_url!r}")


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


class DigestStore:
    """Append-only JSONL file of records keyed by their "hash" digest.

    Subclasses define `_decode(line dict) -> value` and `_encode(digest,
    value) -> line dict`. Reads are lock-free against the in-memory index;
    appends are serialized under one lock, so a run's threads never
    interleave their lines. A last line without its newline is an append
    that a crash cut short: loading skips it with a warning when it does not
    parse, and the first append cuts it off, or ends it with its newline
    when it parsed. A line that does not parse anywhere else fails the load.
    Loading holds a shared `flock` on the file and an append an exclusive
    one, so processes that record into one store never read a half-written
    line, interleave their lines or mend each other's.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._records: dict[str, Any] = {}
        self._lock = threading.Lock()
        # (where a torn last line starts, or the end when it parsed; the
        # file's length) while the file does not end with a newline.
        self._tail: Optional[tuple[int, int]] = None
        if not self.path.is_file():
            return
        offset = 0
        line = b"\n"
        cut = None
        with open(self.path, "rb") as handle:
            fcntl.flock(handle, fcntl.LOCK_SH)  # no other process is mid-append
            for line in handle:
                start, offset = offset, offset + len(line)
                if not line.strip():
                    continue
                try:
                    raw = json.loads(line)  # UTF-8; a cut character raises too
                except ValueError:
                    if line.endswith(b"\n"):
                        raise
                    logger.warning("%s: skipping a torn last line of %d bytes",
                                   self.path, len(line))
                    cut = start
                    continue
                self._records.setdefault(raw["hash"], self._decode(raw))
        if not line.endswith(b"\n"):
            self._tail = (offset if cut is None else cut), offset

    def _append(self, items: Iterable[tuple[str, Any]]) -> None:
        """Index each (digest, value) whose digest is new and append them in
        one write. The tail found at load is mended unless the file has grown
        since, because its last line is then no longer last."""
        with self._lock:
            lines = []
            for digest, value in items:
                if digest not in self._records:
                    self._records[digest] = value
                    lines.append(json.dumps(self._encode(digest, value), ensure_ascii=False))
            if not lines:
                return
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "ab") as handle:
                fcntl.flock(handle, fcntl.LOCK_EX)  # released when the handle closes
                if self._tail is not None and handle.seek(0, os.SEEK_END) == self._tail[1]:
                    cut, end = self._tail
                    handle.truncate(cut)
                    if cut == end:
                        lines.insert(0, "")
                self._tail = None
                handle.write(("\n".join(lines) + "\n").encode("utf-8"))

    def get(self, digest: str) -> Any:
        return self._records.get(digest)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, digest: str) -> bool:
        return digest in self._records


class ReplayStore(DigestStore):
    """Completion records, one {hash, model, response, prompt_tokens,
    completion_tokens} line each."""

    def _decode(self, raw: dict) -> CompletionRecord:
        return CompletionRecord(raw["hash"], raw["model"], raw["response"],
                                raw.get("prompt_tokens", 0), raw.get("completion_tokens", 0))

    def _encode(self, digest: str, record: CompletionRecord) -> dict:
        return {"hash": digest, "model": record.model, "response": record.response,
                "prompt_tokens": record.prompt_tokens,
                "completion_tokens": record.completion_tokens}

    def put(self, record: CompletionRecord) -> None:
        self._append([(record.digest, record)])


class EmbeddingCache(DigestStore):
    """An EmbeddingFn that calls `embed` only for texts it has not seen.

    Vectors are kept on disk keyed by (text, embedding model id), one
    {hash, dim, vector} line each, so reruns do not re-bill the embedding
    endpoint, and in memory as 1-D float64 arrays. A call returns one
    (n, d) float64 array, as `LlmClient.embed` does, and each vector it
    loaded or embedded is kept from then on as a row of that array, so a
    caller that keeps the array, as `build_pool` does, shares its memory
    with the cache. The array is read-only, so that no caller can change
    what the cache holds.
    """

    def __init__(self, path: Path, model_id: str, embed: EmbeddingFn):
        self.model_id = model_id
        self.embed = embed
        super().__init__(path)

    def _decode(self, raw: dict) -> np.ndarray:
        import numpy as np

        return np.array(raw["vector"], dtype=float)

    def _encode(self, digest: str, vector: np.ndarray) -> dict:
        return {"hash": digest, "dim": len(vector), "vector": vector.tolist()}

    def __call__(self, texts: Sequence[str]) -> np.ndarray:
        import numpy as np

        keys = [prompt_digest(text, self.model_id) for text in texts]
        missing = [i for i, key in enumerate(keys) if key not in self._records]
        if missing:
            fresh = self.embed([texts[i] for i in missing])
            if len(fresh) != len(missing):
                raise DimensionMismatch(
                    f"embedder returned {len(fresh)} vectors for {len(missing)} texts")
            self._append((keys[i], np.array(vector, dtype=float))
                         for i, vector in zip(missing, fresh))
        vectors = [self._records[key] for key in keys]
        dims = {len(vector) for vector in vectors}
        if len(dims) > 1:
            raise DimensionMismatch(f"ragged embedding dimensions: {sorted(dims)}")
        matrix = np.array(vectors, dtype=float)
        matrix.flags.writeable = False
        for key, vector, row in zip(keys, vectors, matrix):
            if vector.base is None:  # the record's own copy, not a row of an earlier result
                self._records[key] = row
        return matrix


# transport(url, payload, headers, timeout) -> (status_code, parsed_json)
Transport = Callable[[str, dict, dict, float], tuple[int, dict]]


def _json_body(data: bytes) -> dict:
    try:
        return json.loads(data)
    except ValueError:
        return {"error": data.decode("utf-8", "replace")}


def _http_transport(url: str, payload: dict, headers: dict, timeout: float) -> tuple[int, dict]:
    """One new connection, and one read of the proxy environment, per request."""
    import requests

    response = requests.post(url, json=payload, headers=headers, timeout=timeout)
    return response.status_code, _json_body(response.content)


def _basic_auth(user: str, password: str) -> str:
    import base64

    return "Basic " + base64.b64encode(f"{user}:{password}".encode("latin-1")).decode("ascii")


def _netrc_auth(host: str) -> Optional[str]:
    """The Basic credentials for `host` in $NETRC, else ~/.netrc or ~/_netrc,
    found as `requests.utils.get_netrc_auth` finds them."""
    import netrc

    path = os.environ.get("NETRC")
    for candidate in [path] if path is not None else ["~/.netrc", "~/_netrc"]:
        candidate = os.path.expanduser(candidate)
        if os.path.exists(candidate):
            break
    else:
        return None
    try:
        entry = netrc.netrc(candidate).authenticators(host)
    except (netrc.NetrcParseError, OSError):
        return None
    if not entry or not any(entry):
        return None
    login, account, password = entry
    return _basic_auth(login or account or "", password or "")


@dataclass(frozen=True)
class _Route:
    """How requests to one endpoint origin leave this process: straight to
    the endpoint; through a plain HTTP proxy, with absolute-form request
    targets; or, for HTTPS behind a proxy, through a CONNECT tunnel."""

    address: tuple[str, int]  # what connections connect to: the endpoint or its proxy
    absolute: bool
    headers: dict  # added to every request
    context: Optional[ssl.SSLContext] = None  # HTTPS only
    tunnel: Optional[tuple[str, int]] = None  # the endpoint, behind the proxy
    tunnel_headers: Optional[dict] = None

    def connection(self, timeout: float) -> http.client.HTTPConnection:
        import http.client

        if self.context is None:
            return http.client.HTTPConnection(*self.address, timeout=timeout)
        connection = http.client.HTTPSConnection(*self.address, timeout=timeout,
                                                 context=self.context)
        if self.tunnel is not None:
            connection.set_tunnel(*self.tunnel, headers=self.tunnel_headers)
        return connection


def _route(url: str) -> _Route:
    """Read what `requests.post` reads from the environment for `url`: the
    proxy and its bypass list (`urllib.request.getproxies` and
    `proxy_bypass`), Basic credentials from netrc, else from the URL, and
    for HTTPS the CA bundle in REQUESTS_CA_BUNDLE or CURL_CA_BUNDLE (a file
    or a directory; the system store when neither is set)."""
    import ssl
    import urllib.request

    parts = urlsplit(url)
    https = parts.scheme == "https"
    endpoint = (parts.hostname, parts.port or (443 if https else 80))
    proxy = None
    if not urllib.request.proxy_bypass(f"{endpoint[0]}:{endpoint[1]}"):
        proxies = urllib.request.getproxies()
        proxy = proxies.get(parts.scheme) or proxies.get("all")
    auth = _netrc_auth(parts.hostname) or (
        parts.username and _basic_auth(unquote(parts.username), unquote(parts.password or "")))
    headers = {"Authorization": auth} if auth else {}
    address, proxy_headers = endpoint, {}
    if proxy:
        proxy = urlsplit(proxy if "://" in proxy else "http://" + proxy)
        address = (proxy.hostname, proxy.port or 80)
        if proxy.username:
            proxy_headers["Proxy-Authorization"] = _basic_auth(
                unquote(proxy.username), unquote(proxy.password or ""))
    if not https:
        return _Route(address, bool(proxy), {**headers, **proxy_headers})
    bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    context = (ssl.create_default_context() if not bundle
               else ssl.create_default_context(capath=bundle) if os.path.isdir(bundle)
               else ssl.create_default_context(cafile=bundle))
    return _Route(address, False, headers, context,
                  endpoint if proxy else None, proxy_headers)


def _exchange(connection: http.client.HTTPConnection, target: str, body: bytes,
              headers: dict) -> tuple[int, bytes]:
    """One request and its whole response. A connection that fails part-way
    is closed, so it is never reused in an unknown state."""
    try:
        connection.request("POST", target, body, headers)
        response = connection.getresponse()
        return response.status, response.read()
    except BaseException:
        connection.close()
        raise


class PooledTransport:
    """A Transport that keeps one kept-alive connection per thread and origin.

    Each calling thread opens its own `http.client` connection on its first
    request to an endpoint origin, because a connection carries one request
    at a time. The proxy, CA-bundle and netrc environment is read once per
    origin (see `_route`). `http.client` writes the headers and the body
    separately on a TCP_NODELAY socket, so neither waits for an ACK. A
    server may close a kept-alive connection between two requests: a request
    that fails on a connection that already carried one is sent once more,
    right away, on a new connection, so a dropped connection costs no
    backoff.

    Building one imports the network modules, so that a run loads them in
    its set-up and not in its first request.
    """

    def __init__(self) -> None:
        # Bound only here: each function that uses them imports them again.
        import base64  # noqa: F401
        import http.client  # noqa: F401
        import netrc  # noqa: F401
        import ssl  # noqa: F401
        import urllib.request  # noqa: F401

        self._local = threading.local()
        self._lock = threading.Lock()
        self._routes: dict[tuple[str, str], _Route] = {}
        self._opened: list[http.client.HTTPConnection] = []

    def _connection(self, url: str, timeout: float) -> tuple[_Route, http.client.HTTPConnection]:
        """This thread's route and connection for `url`'s origin."""
        origin = urlsplit(url)[:2]
        connections = self._local.__dict__.setdefault("connections", {})
        if origin not in connections:
            with self._lock:
                route = self._routes.get(origin)
                if route is None:
                    route = self._routes[origin] = _route(url)
                connections[origin] = route, route.connection(timeout)
                self._opened.append(connections[origin][1])
        return connections[origin]

    def __call__(self, url: str, payload: dict, headers: dict,
                 timeout: float) -> tuple[int, dict]:
        import http.client

        route, connection = self._connection(url, timeout)
        kept = connection.sock is not None  # left open by this thread's last request
        connection.timeout = timeout
        if kept:
            connection.sock.settimeout(timeout)
        target = url if route.absolute else urlsplit(url)._replace(scheme="", netloc="").geturl()
        args = (target or "/", json.dumps(payload).encode("utf-8"), {**headers, **route.headers})
        try:
            status, data = _exchange(connection, *args)
        except (ConnectionError, http.client.HTTPException):
            if not kept:
                raise
            # The server closed the kept-alive connection; this opens a new one.
            status, data = _exchange(connection, *args)
        return status, _json_body(data)

    def close(self) -> None:
        """Close every connection this transport opened, on any thread."""
        with self._lock:
            for connection in self._opened:
                connection.close()


_RETRYABLE_STATUSES = {429, 500, 502, 503, 504}
REPLAY_MODES = ("live", "record", "replay")


class LlmClient:
    """Completion/embedding client over an injectable transport.

    mode "live" always hits the wire; "record" serves store hits and
    records misses; "replay" never touches the wire and raises ReplayMiss
    on unknown digests. A replay client may have no transport (None).
    """

    def __init__(
        self,
        endpoint: LlmEndpoint,
        *,
        mode: str = "live",
        store: Optional[ReplayStore] = None,
        transport: Optional[Transport] = _http_transport,
        backoff: float = 0.5,
    ):
        if mode not in REPLAY_MODES:
            raise ValueError(f"unknown client mode {mode!r}")
        if mode in ("record", "replay") and store is None:
            raise ValueError(f"{mode} mode requires a replay store")
        if mode != "replay" and transport is None:
            raise ValueError(f"{mode} mode requires a transport")
        self.endpoint = endpoint
        self.mode = mode
        self.store = store
        self.transport = transport
        self.backoff = backoff

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.endpoint.api_key:
            headers["Authorization"] = f"Bearer {self.endpoint.api_key}"
        return headers

    def _post(self, path: str, payload: dict) -> dict:
        import http.client

        url = self.endpoint.base_url.rstrip("/") + path
        last_error: Optional[Exception] = None
        for attempt in range(MAX_RETRIES):
            try:
                status, body = self.transport(
                    url, payload, self._headers(), self.endpoint.timeout)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                if attempt < MAX_RETRIES - 1 and self.backoff:
                    time.sleep(self.backoff * 2 ** attempt)
                continue
            if 200 <= status < 300:
                return body
            if status in _RETRYABLE_STATUSES and attempt < MAX_RETRIES - 1:
                last_error = HttpStatusError(status, json.dumps(body))
                if self.backoff:
                    time.sleep(self.backoff * 2 ** attempt)
                continue
            raise HttpStatusError(status, json.dumps(body))
        if isinstance(last_error, HttpStatusError):
            raise last_error
        raise EndpointUnreachable(
            f"{url} unreachable after {MAX_RETRIES} attempts: {last_error}")

    def _recorded(
        self,
        keys: Sequence[str],
        call: Callable[[list[int]], Iterator[tuple[str, dict]]],
        miss: Callable[[list[str]], str],
    ) -> list[str]:
        """The response text for each of the distinct `keys` (the texts their
        digests are taken of).

        The store serves what it holds unless the mode is live. Replay mode
        raises ReplayMiss(miss(missing digests)) for the rest; otherwise
        `call(indexes)` is given the missing indexes and yields a (response,
        usage) per index in order, and record mode stores each as it
        arrives.
        """
        model = self.endpoint.model_id
        digests = [prompt_digest(key, model) for key in keys]
        found = [self.store.get(digest) if self.store is not None and self.mode != "live"
                 else None for digest in digests]
        responses = [record and record.response for record in found]
        pending = [i for i, record in enumerate(found) if record is None]
        if pending and self.mode == "replay":
            raise ReplayMiss(miss([digests[i] for i in pending]))
        for i, (response, usage) in zip(pending, call(pending)):
            responses[i] = response
            if self.mode == "record":
                self.store.put(CompletionRecord(
                    digests[i], model, response, int(usage.get("prompt_tokens", 0)),
                    int(usage.get("completion_tokens", 0))))
        return responses

    def complete(self, prompt) -> str:
        """Return the raw model text for a prompt (str or PromptBundle)."""
        text = getattr(prompt, "text", prompt)
        chat = self.endpoint.chat_style

        def call(pending: list[int]) -> Iterator[tuple[str, dict]]:
            body = self._post(CHAT_PATH if chat else COMPLETION_PATH, {
                "model": self.endpoint.model_id,
                **({"messages": [{"role": "user", "content": text}]} if chat
                   else {"prompt": text}),
                "temperature": self.endpoint.sampling_temperature,
                "max_tokens": self.endpoint.max_response_tokens,
            })
            choice = body["choices"][0]
            response = choice["message"]["content"] if chat else choice["text"]
            yield response, body.get("usage") or {}

        [response] = self._recorded([text], call, lambda missing: (
            f"no recorded response for prompt digest {missing[0][:16]}"))
        return response

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        """Embed texts, preserving order and chunking to the batch limit.

        Returns one (len(texts), d) float64 array. Each distinct text is
        digested, looked up or sent, and parsed once per call, straight into
        the rows of its occurrences, so at most one parsed vector is alive
        at a time and a repeated text costs one row copy.
        """
        import numpy as np

        if not texts:
            raise ValueError("embed requires at least one text")
        rows_of: dict[str, list[int]] = {}
        for i, text in enumerate(texts):
            rows_of.setdefault(text, []).append(i)
        distinct = list(rows_of)

        def call(pending: list[int]) -> Iterator[tuple[str, dict]]:
            batch = self.endpoint.embed_batch_size
            for start in range(0, len(pending), batch):
                chunk = pending[start:start + batch]
                body = self._post(EMBEDDING_PATH, {
                    "model": self.endpoint.model_id,
                    "input": [distinct[i] for i in chunk],
                })
                rows = sorted(body["data"], key=lambda row: row.get("index", 0))
                if len(rows) != len(chunk):
                    raise DimensionMismatch(
                        f"server returned {len(rows)} vectors for {len(chunk)} inputs")
                for row in rows:
                    yield json.dumps(list(row["embedding"])), {}

        responses = self._recorded(
            ["embed:" + text for text in distinct], call,
            lambda missing: f"{len(missing)} embedding texts missing from store")
        matrix = None
        for rows, response in zip(rows_of.values(), responses):
            vector = json.loads(response)
            if matrix is None:
                matrix = np.empty((len(texts), len(vector)))
            elif len(vector) != matrix.shape[1]:
                dims = {len(json.loads(response)) for response in responses}
                raise DimensionMismatch(f"ragged embedding dimensions: {sorted(dims)}")
            matrix[rows] = vector
        return matrix


# A line opening on the prompts' completion cue "SELECT", after any quote or
# markdown marks.
_CUE_RE = re.compile(r"(?im)^[ \t>*`]*(SELECT)\b")
_BREAK_RE = re.compile(r"\n\s*\n|```")
# A closed '...' or "..." literal (doubled quotes escape) is skipped whole,
# so the first bare match is the statement's terminating semicolon.
_SEMICOLON_RE = re.compile(r"'[^']*(?:''[^']*)*'|\"[^\"]*(?:\"\"[^\"]*)*\"|;")


def extract_sql(raw_response: str) -> str:
    """Pull the first cue-anchored SQL statement out of a model response.

    The statement runs from the cue (prepended when the response continues
    the prompt mid-statement) to the first blank line or code fence close,
    and within that to the first semicolon outside a closed string literal.
    Whitespace is normalized to single spaces, so the result never contains
    a newline.
    """
    if raw_response is None or not raw_response.strip():
        raise EmptyResponse("model returned no text")

    anchored = _CUE_RE.search(raw_response)
    if anchored:
        body = raw_response[anchored.end(1):]
    else:
        body = raw_response

    cut = _BREAK_RE.search(body)
    if cut:
        body = body[:cut.start()]
    for match in _SEMICOLON_RE.finditer(body):
        if match.group() == ";":
            body = body[:match.start()]
            break

    statement = " ".join(("SELECT " + body).split())
    return statement
