from __future__ import annotations

import json

import pytest

from conftest import ScriptedTransport, hash_embedding
from sqlbench.curation import DimensionMismatch
from sqlbench.gateway import (
    CompletionRecord,
    EmptyResponse,
    EndpointUnreachable,
    HttpStatusError,
    LlmClient,
    LlmEndpoint,
    ReplayMiss,
    ReplayStore,
    extract_sql,
    prompt_digest,
)


@pytest.fixture()
def endpoint():
    return LlmEndpoint(base_url="http://fake:8000", model_id="test-model")


def test_endpoint_defaults_match_run_settings(endpoint):
    assert endpoint.sampling_temperature == 0.001
    assert endpoint.max_response_tokens == 200


def test_endpoint_validation():
    with pytest.raises(ValueError):
        LlmEndpoint("u", "m", sampling_temperature=-0.5)
    with pytest.raises(ValueError):
        LlmEndpoint("u", "m", max_response_tokens=0)


def test_live_completion_carries_exact_sampling_config(endpoint):
    transport = ScriptedTransport(completion_fn=lambda p: " 1 FROM t")
    client = LlmClient(endpoint, transport=transport)
    text = client.complete("SELECT")
    assert text == " 1 FROM t"
    payload = transport.requests[0]["payload"]
    assert payload["temperature"] == 0.001
    assert payload["max_tokens"] == 200
    assert payload["model"] == "test-model"
    assert payload["prompt"] == "SELECT"
    assert transport.requests[0]["url"] == "http://fake:8000/v1/completions"


def test_chat_style_wraps_messages(endpoint):
    transport = ScriptedTransport(completion_fn=lambda p: "SELECT 1")
    chat_endpoint = LlmEndpoint("http://fake:8000", "m", chat_style=True)
    client = LlmClient(chat_endpoint, transport=transport)
    assert client.complete("prompt text") == "SELECT 1"
    assert "chat" in transport.requests[0]["url"]
    assert transport.requests[0]["payload"]["messages"][0]["content"] == "prompt text"


def test_api_key_header(endpoint):
    transport = ScriptedTransport(completion_fn=lambda p: "x")
    keyed = LlmEndpoint("http://fake:8000", "m", api_key="sk-secret")
    LlmClient(keyed, transport=transport).complete("p")
    assert transport.requests[0]["headers"]["Authorization"] == "Bearer sk-secret"


def test_replay_returns_recorded_response(tmp_path, endpoint):
    store = ReplayStore(tmp_path / "store.jsonl")
    digest = prompt_digest("the prompt", endpoint.model_id)
    store.put(CompletionRecord(digest, endpoint.model_id, "movie_title FROM movies"))
    client = LlmClient(endpoint, mode="replay", store=store)
    assert client.complete("the prompt") == "movie_title FROM movies"


def test_replay_miss_raises(tmp_path, endpoint):
    store = ReplayStore(tmp_path / "store.jsonl")
    client = LlmClient(endpoint, mode="replay", store=store)
    with pytest.raises(ReplayMiss):
        client.complete("never seen")


def test_record_mode_serves_second_call_from_store(tmp_path, endpoint):
    transport = ScriptedTransport(completion_fn=lambda p: "answer")
    store = ReplayStore(tmp_path / "store.jsonl")
    client = LlmClient(endpoint, mode="record", store=store, transport=transport)
    assert client.complete("same prompt") == "answer"
    assert client.complete("same prompt") == "answer"
    assert len(transport.requests) == 1  # one wire call total


def test_store_round_trips_jsonl(tmp_path, endpoint):
    path = tmp_path / "store.jsonl"
    store = ReplayStore(path)
    record = CompletionRecord("abc123", "m", "resp", 10, 5)
    store.put(record)
    store.put(record)  # at most one row per digest
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert set(row) == {"hash", "model", "response", "prompt_tokens", "completion_tokens"}
    reloaded = ReplayStore(path)
    assert reloaded.get("abc123").response == "resp"


@pytest.mark.parametrize("tail", [
    b'{"hash": "def456", "model": "m", "resp',
    # cut in the middle of a two-byte character
    '{"hash": "def456", "model": "m", "response": "caf\u00e9'.encode("utf-8")[:-1],
])
def test_store_skips_a_torn_last_line(tmp_path, caplog, tail):
    path = tmp_path / "store.jsonl"
    ReplayStore(path).put(CompletionRecord("abc123", "m", "resp", 10, 5))
    with open(path, "ab") as handle:
        handle.write(tail)
    with caplog.at_level("WARNING"):
        store = ReplayStore(path)
    assert "torn last line" in caplog.text
    assert len(store) == 1 and store.get("abc123").response == "resp"
    store.put(CompletionRecord("def456", "m", "second"))  # starts a fresh line
    reloaded = ReplayStore(path)
    assert reloaded.get("def456").response == "second"
    assert len(reloaded) == 2


def test_store_keeps_a_whole_last_line_without_newline(tmp_path):
    path = tmp_path / "store.jsonl"
    ReplayStore(path).put(CompletionRecord("abc123", "m", "resp"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"hash": "def456", "model": "m", "response": "whole"}')
    store = ReplayStore(path)
    assert store.get("def456").response == "whole"
    store.put(CompletionRecord("0a1b", "m", "third"))  # ends the whole line first
    reloaded = ReplayStore(path)
    assert [reloaded.get(d).response for d in ("abc123", "def456", "0a1b")] == \
        ["resp", "whole", "third"]


def test_store_leaves_a_tail_that_another_writer_has_since_ended(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_text('{"hash": "abc123", "model": "m", "response": "whole"}', encoding="utf-8")
    store = ReplayStore(path)
    with open(path, "a", encoding="utf-8") as handle:  # another process appends
        handle.write('\n{"hash": "def456", "model": "m", "response": "theirs"}\n')
    store.put(CompletionRecord("0a1b", "m", "ours"))
    reloaded = ReplayStore(path)
    assert [reloaded.get(d).response for d in ("abc123", "def456", "0a1b")] == \
        ["whole", "theirs", "ours"]


def test_replay_miss_messages(tmp_path, endpoint):
    client = LlmClient(endpoint, mode="replay", store=ReplayStore(tmp_path / "store.jsonl"))
    digest = prompt_digest("never seen", endpoint.model_id)
    with pytest.raises(ReplayMiss, match=f"no recorded response for prompt digest {digest[:16]}"):
        client.complete("never seen")
    with pytest.raises(ReplayMiss, match="2 embedding texts missing from store"):
        client.embed(["a", "b"])


@pytest.mark.parametrize("corrupt", [
    '{"hash": "def456", "mod\n{"hash": "0a1b", "model": "m", "response": "r"}\n',
    '{"hash": "def456", "mod\n',  # a whole, newline-terminated line is not torn
])
def test_store_rejects_a_corrupt_line_elsewhere(tmp_path, corrupt):
    path = tmp_path / "store.jsonl"
    ReplayStore(path).put(CompletionRecord("abc123", "m", "resp"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(corrupt)
    with pytest.raises(ValueError):
        ReplayStore(path)


def test_unreachable_after_retries(endpoint):
    def transport(url, payload, headers, timeout):
        raise ConnectionError("down")

    client = LlmClient(endpoint, transport=transport, backoff=0.0)
    with pytest.raises(EndpointUnreachable):
        client.complete("p")


def test_http_error_surfaces_status(endpoint):
    transport = ScriptedTransport(completion_fn=lambda p: "x", status=404)
    client = LlmClient(endpoint, transport=transport, backoff=0.0)
    with pytest.raises(HttpStatusError) as err:
        client.complete("p")
    assert err.value.status == 404


def test_retryable_status_then_success(endpoint):
    attempts = []

    def transport(url, payload, headers, timeout):
        attempts.append(1)
        if len(attempts) < 3:
            return 503, {"error": "busy"}
        return 200, {"choices": [{"text": "done"}], "usage": {}}

    client = LlmClient(endpoint, transport=transport, backoff=0.0)
    assert client.complete("p") == "done"
    assert len(attempts) == 3


def test_embed_preserves_order_and_replays(tmp_path, endpoint):
    transport = ScriptedTransport(embed_fn=lambda t: hash_embedding(t, 4))
    store = ReplayStore(tmp_path / "store.jsonl")
    client = LlmClient(endpoint, mode="record", store=store, transport=transport)
    vectors = client.embed(["alpha", "beta"])
    assert len(vectors) == 2
    assert vectors[0] == hash_embedding("alpha", 4)

    replay = LlmClient(endpoint, mode="replay", store=ReplayStore(tmp_path / "store.jsonl"))
    assert replay.embed(["alpha", "beta"]) == vectors
    with pytest.raises(ReplayMiss):
        replay.embed(["gamma"])


def test_embed_rejects_empty_input(endpoint):
    client = LlmClient(endpoint, transport=ScriptedTransport(embed_fn=lambda t: [0.1]))
    with pytest.raises(ValueError):
        client.embed([])


def test_embed_chunks_to_batch_limit():
    chunk_sizes = []

    def transport(url, payload, headers, timeout):
        chunk_sizes.append(len(payload["input"]))
        return 200, {"data": [
            {"index": i, "embedding": [0.1, 0.2]} for i in range(len(payload["input"]))
        ]}

    endpoint = LlmEndpoint("http://fake", "m", embed_batch_size=16)
    client = LlmClient(endpoint, transport=transport)
    vectors = client.embed([f"text {i}" for i in range(100)])
    assert len(vectors) == 100
    assert chunk_sizes == [16, 16, 16, 16, 16, 16, 4]


def test_embed_ragged_vectors_rejected(endpoint):
    def transport(url, payload, headers, timeout):
        return 200, {"data": [
            {"index": 0, "embedding": [0.1, 0.2]},
            {"index": 1, "embedding": [0.1, 0.2, 0.3]},
        ]}

    client = LlmClient(endpoint, transport=transport)
    with pytest.raises(DimensionMismatch):
        client.embed(["a", "b"])


def test_client_mode_validation(tmp_path, endpoint):
    with pytest.raises(ValueError):
        LlmClient(endpoint, mode="replay")
    with pytest.raises(ValueError):
        LlmClient(endpoint, mode="sideways")


# --- extract_sql -----------------------------------------------------------

def test_extract_continuation_with_terminator():
    assert extract_sql(" movie_title FROM movies;") == "SELECT movie_title FROM movies"


def test_extract_drops_explanation_after_blank_line():
    raw = " movie_title FROM movies\n\nThis query finds the movie title."
    assert extract_sql(raw) == "SELECT movie_title FROM movies"


def test_extract_fenced_block():
    assert extract_sql("```sql\nSELECT 1;\n```") == "SELECT 1"


def test_extract_fenced_block_without_semicolon():
    assert extract_sql("```sql\nSELECT a FROM t\n```") == "SELECT a FROM t"


def test_extract_anchors_on_line_start_cue():
    raw = "Sure, here is the query:\nSELECT x FROM t;\nHope that helps!"
    assert extract_sql(raw) == "SELECT x FROM t"


def test_extract_subquery_continuation_not_reanchored():
    raw = " name FROM t WHERE id IN (SELECT id FROM u);"
    assert extract_sql(raw) == "SELECT name FROM t WHERE id IN (SELECT id FROM u)"


def test_extract_normalizes_whitespace_and_case_of_cue():
    raw = "select  a,\n       b\nfrom t;"
    out = extract_sql(raw)
    assert out == "SELECT a, b from t"
    assert "\n" not in out


def test_extract_always_starts_with_cue():
    for raw in (" 1", "SELECT 1", "```\nSELECT 1\n```", "x FROM y;"):
        assert extract_sql(raw).startswith("SELECT")


def test_extract_empty_response_rejected():
    with pytest.raises(EmptyResponse):
        extract_sql("   \n  ")
