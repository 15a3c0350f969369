from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import pytest

from conftest import (
    MINI_QUESTIONS,
    MINI_RESPONSES,
    POOL_QUESTIONS,
    ScriptedTransport,
    completion_by_question,
    hash_embedding,
    make_cinema_db,
    write_benchmark,
)
import sqlbench.cli as cli
from sqlbench.cli import (
    RunConfig,
    build_client,
    build_parser,
    build_embed_client,
    cmd_build_prompt,
    cmd_curate,
    cmd_ingest_check,
    cmd_prep_sft,
    cmd_report,
    cmd_run,
    cmd_serialize_schema,
    load_config,
    main,
)
from sqlbench.schema import SchemaVariant, render_schema
from sqlbench.bench import database_path, load_split


def run_config(mini_bench, tmp_path, **overrides) -> RunConfig:
    values = {
        "benchmark_root": mini_bench,
        "split": "dev",
        "output_dir": tmp_path / "out",
    }
    values.update(overrides)
    return RunConfig(**values)


def test_config_file_env_flag_precedence(tmp_path, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "model_id": "from-file", "base_url": "http://file", "shots": 0,
    }), encoding="utf-8")
    monkeypatch.setenv("SQLBENCH_BASE_URL", "http://env")
    cfg = load_config(config, {"split": "dev"})
    assert cfg.model_id == "from-file"
    assert cfg.base_url == "http://env"  # env beats file
    cfg = load_config(config, {"base_url": "http://flag"})
    assert cfg.base_url == "http://flag"  # flag beats env


def test_config_rejects_unknown_keys(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"no_such_option": 1}), encoding="utf-8")
    with pytest.raises(ValueError):
        load_config(config)


def test_config_validation_rules(tmp_path):
    with pytest.raises(ValueError):
        RunConfig(shots=2)  # pool split required
    with pytest.raises(ValueError):
        RunConfig(shots=1, pool_split="train", mode="cot-sk-full")
    with pytest.raises(ValueError):
        RunConfig(replay_mode="replay")  # store required
    with pytest.raises(ValueError):
        RunConfig(mode="sideways")


# The flags every subcommand but `report` takes: option strings, dest, type,
# choices, const and help, as the hand-written parser declared them.
_VARIANTS = ["C_N", "C_T", "C_D", "C_V", "C_P", "C_VD", "C_VDT", "C_VDP", "C_A"]
_MODES = ["none", "cot-sp-pred", "cot-sp-full", "cot-sk-pred", "cot-sk-full"]
_COMMON_FLAGS = [
    (["--config"], "config", Path, None, None, "JSON config file"),
    (["--benchmark-root"], "benchmark_root", Path, None, None, None),
    (["--split"], "split", None, None, None, None),
    (["--variant"], "variant", None, _VARIANTS, None, None),
    (["--mode"], "mode", None, _MODES, None, None),
    (["--shots"], "shots", int, None, None, None),
    (["--pool-split"], "pool_split", None, None, None, None),
    (["--max-context"], "max_context", int, None, None, None),
    (["--response-reserve"], "response_reserve", int, None, None, None),
    (["--temperature"], "temperature", float, None, None,
     "softmax temperature for example truncation rates"),
    (["--seed"], "truncation_seed", int, None, None, None),
    (["--base-url"], "base_url", None, None, None, None),
    (["--model"], "model_id", None, None, None, None),
    (["--sampling-temperature"], "sampling_temperature", float, None, None, None),
    (["--max-response-tokens"], "max_response_tokens", int, None, None, None),
    (["--chat-style"], "chat_style", None, None, True, None),
    (["--embed-base-url"], "embed_base_url", None, None, None, None),
    (["--embed-model"], "embed_model_id", None, None, None, None),
    (["--replay-store"], "replay_store", Path, None, None, None),
    (["--replay-mode"], "replay_mode", None, ["live", "record", "replay"], None, None),
    (["--embedding-cache"], "embedding_cache", Path, None, None, None),
    (["--output-dir"], "output_dir", Path, None, None, None),
    (["--workers"], "workers", int, None, None, None),
    (["--query-timeout"], "query_timeout", float, None, None, None),
]
_PARSER_FLAGS = {
    **{name: _COMMON_FLAGS for name in
       ("ingest-check", "serialize-schema", "curate", "run", "prep-sft")},
    "build-prompt": _COMMON_FLAGS + [
        (["--question-id"], "question_id", int, None, None, None),
        (["--out"], "out", Path, None, None, None),
    ],
    "report": [([], "report_file", Path, None, None, None)],
}


def test_parser_flags_are_those_of_the_hand_written_parser():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(_PARSER_FLAGS)
    for name, expected in _PARSER_FLAGS.items():
        actions = [a for a in subparsers.choices[name]._actions
                   if not isinstance(a, argparse._HelpAction)]
        assert [(a.option_strings, a.dest, a.type, a.choices, a.const, a.help)
                for a in actions] == expected, name
        assert all(a.default in (None, argparse.SUPPRESS) for a in actions), name
        assert all(isinstance(a, argparse._StoreConstAction) == (a.const is not None)
                   for a in actions), name


def test_snapshot_records_the_reproducible_settings_only():
    cfg = RunConfig(base_url="http://completion.example", api_key="completion-secret",
                    embed_base_url="http://embedding.example", embed_api_key="embed-secret",
                    embed_model_id="embedder", replay_store="store.jsonl",
                    replay_mode="replay", temperature=1)
    snapshot = cfg.snapshot()
    assert snapshot == {
        "benchmark_root": ".", "split": "dev", "variant": "C_VDT", "mode": "none",
        "shots": 0, "pool_split": None, "max_context": 2048, "response_reserve": 200,
        "temperature": 1, "truncation_seed": 0, "model_id": "local-model",
        "sampling_temperature": 0.001, "max_response_tokens": 200,
        "embedding_model_id": "embedder", "replay_store": "store.jsonl",
        "replay_mode": "replay", "query_timeout": 30.0,
    }
    assert isinstance(snapshot["temperature"], int)
    written = json.dumps(snapshot)
    for value in ("secret", "example"):
        assert value not in written
    assert RunConfig(model_id="m").snapshot()["embedding_model_id"] == "m"


@pytest.mark.parametrize("key, value", [
    ("max_context", "2048"),   # a string for an int
    ("workers", 2.0),          # a float for an int
    ("chat_style", "false"),   # a string for a bool
    ("max_response_tokens", True),  # a bool for an int
    ("split", None),           # None for a setting that is not Optional
    ("replay_mode", "replya"),  # outside the choices
    ("variant", "C_X"),
])
def test_config_file_values_are_checked_by_type_and_choices(tmp_path, key, value):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    with pytest.raises(ValueError, match=key):
        load_config(config)


@pytest.mark.parametrize("key, value", [
    ("temperature", 0.0),
    ("workers", 0),
    ("query_timeout", 0.0),
    ("max_response_tokens", 0),
    ("sampling_temperature", -0.1),
    ("response_reserve", 0),  # TokenBudget's check, at config time
])
def test_config_rejects_out_of_range_values(key, value):
    with pytest.raises(ValueError, match=key):
        RunConfig(**{key: value})


@pytest.mark.parametrize("key", ["base_url", "embed_base_url"])
@pytest.mark.parametrize("url", ["localhost:8000", "ftp://x:1", "http://", "https:///v1",
                                 "http://x:abc", "http://x:99999"])
def test_config_rejects_a_base_url_without_http_scheme_and_host(key, url):
    with pytest.raises(ValueError, match="base_url"):
        RunConfig(**{key: url})


@pytest.mark.parametrize("flag", ["--base-url", "--embed-base-url"])
def test_a_base_url_without_http_scheme_fails_the_command(mini_bench, tmp_path, flag):
    out = tmp_path / "out"
    assert main(["run", "--benchmark-root", str(mini_bench), "--split", "dev",
                 flag, "localhost:8000", "--output-dir", str(out)]) == 1
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("flag", ["--base-url", "--embed-base-url"])
def test_a_base_url_with_a_bad_port_fails_the_command(mini_bench, tmp_path, flag):
    # Accepted, such a URL would fail every request inside the transport, and
    # each question would be charged to the model.
    out = tmp_path / "out"
    assert main(["run", "--benchmark-root", str(mini_bench), "--split", "dev",
                 flag, "http://localhost:abc", "--output-dir", str(out)]) == 1
    assert not (out / "report.json").exists()


def test_zero_truncation_temperature_fails_the_command(mini_bench, tmp_path):
    _record_few_shot_store(mini_bench, tmp_path)
    assert main(["run", "--benchmark-root", str(mini_bench), "--split", "dev",
                 "--shots", "2", "--pool-split", "train", "--temperature", "0",
                 "--replay-store", str(tmp_path / "store.jsonl"), "--replay-mode", "replay",
                 "--output-dir", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_ingest_check_prints_summary(mini_bench, tmp_path, capsys):
    cmd_ingest_check(run_config(mini_bench, tmp_path))
    out = capsys.readouterr().out
    assert "dev: 10 instances, 2 databases" in out
    assert "cinema" in out and "schools" in out


def test_serialize_schema_writes_nine_files_per_database(mini_bench, tmp_path, capsys):
    cfg = run_config(mini_bench, tmp_path)
    written = cmd_serialize_schema(cfg)
    assert written == 18
    split = load_split(mini_bench, "dev")
    for db_id, catalog in split.databases.items():
        for variant in SchemaVariant:
            path = cfg.output_dir / db_id / f"{variant.value}.txt"
            assert path.read_text(encoding="utf-8") == render_schema(catalog, variant)


def test_serialize_schema_empty_benchmark(tmp_path, capsys):
    root = write_benchmark(tmp_path / "empty", [], {})
    cfg = RunConfig(benchmark_root=root, output_dir=tmp_path / "out")
    assert cmd_serialize_schema(cfg) == 0


def test_build_prompt_outputs_prompt(mini_bench, tmp_path, capsys):
    cfg = run_config(mini_bench, tmp_path)
    text = cmd_build_prompt(cfg, question_id=6)
    out = capsys.readouterr().out
    assert text.endswith("SELECT")
    assert "Excellence rate = NumGE1500 / NumTstTakr." in out
    target = tmp_path / "prompt.txt"
    cmd_build_prompt(cfg, question_id=6, out=target)
    assert target.read_text(encoding="utf-8") == text


def test_build_prompt_unknown_question(mini_bench, tmp_path):
    with pytest.raises(SystemExit):
        cmd_build_prompt(run_config(mini_bench, tmp_path), question_id=999)


@pytest.mark.parametrize("flags, named", [
    (["--shots", "3", "--pool-split", "train"], "--shots 3"),
    (["--mode", "cot-sk-pred"], "--mode cot-sk-pred"),
], ids=["shots", "mode"])
def test_build_prompt_rejects_the_settings_it_cannot_apply(mini_bench, tmp_path, capsys,
                                                            flags, named):
    # It prints the zero-shot prompt only; a few-shot or chain-of-thought
    # setting must not pass silently for that prompt.
    out = tmp_path / "prompt.txt"
    argv = ["build-prompt", "--benchmark-root", str(mini_bench), "--split", "dev",
            "--question-id", "6", "--out", str(out), *flags]
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert named in str(exited.value.code) and "zero-shot" in str(exited.value.code)
    assert not out.exists()


def zero_shot_client(cfg):
    transport = ScriptedTransport(
        completion_fn=completion_by_question(MINI_QUESTIONS + POOL_QUESTIONS, MINI_RESPONSES),
        embed_fn=hash_embedding)
    return build_client(cfg, transport=transport), transport


def test_cmd_run_zero_shot_report(mini_bench, tmp_path):
    store = tmp_path / "store.jsonl"
    cfg = run_config(mini_bench, tmp_path, replay_store=store, replay_mode="record")
    client, _ = zero_shot_client(cfg)
    report_path = cmd_run(cfg, client=client)
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["ex_by_split"]["sum"] == 60.0
    assert payload["ex_by_split"]["simple"] == 75.0
    assert payload["ex_by_split"]["challenging"] == 0.0
    assert payload["instance_count"] == 10
    assert len(payload["outcomes"]) == 10
    matched = [o for o in payload["outcomes"] if o["matched"]]
    assert len(matched) == 6
    for outcome in payload["outcomes"]:
        if not outcome["matched"]:
            assert outcome["error_label"] is not None


def test_cmd_run_replay_is_byte_identical(mini_bench, tmp_path):
    store = tmp_path / "store.jsonl"
    record_cfg = run_config(mini_bench, tmp_path, replay_store=store,
                            replay_mode="record", output_dir=tmp_path / "rec")
    client, transport = zero_shot_client(record_cfg)
    cmd_run(record_cfg, client=client)
    wire_calls = len(transport.requests)
    assert wire_calls == 10

    outputs = []
    for name in ("replay_a", "replay_b"):
        cfg = run_config(mini_bench, tmp_path, replay_store=store,
                         replay_mode="replay", output_dir=tmp_path / name)
        path = cmd_run(cfg, client=build_client(cfg))
        outputs.append(path.read_bytes())
        traces = (cfg.output_dir / "traces.jsonl").read_bytes()
        outputs.append(traces)
    assert outputs[0] == outputs[2]
    assert outputs[1] == outputs[3]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_replay_miss_stops_the_run_before_any_report(mini_bench, tmp_path, workers):
    store = tmp_path / "store.jsonl"
    store.touch()
    out = tmp_path / "out"
    assert main(["run", "--benchmark-root", str(mini_bench), "--split", "dev",
                 "--replay-store", str(store), "--replay-mode", "replay",
                 "--workers", str(workers), "--output-dir", str(out)]) == 1
    assert not out.exists()


def test_cmd_run_isolates_per_instance_failures(mini_bench, tmp_path):
    responses = dict(MINI_RESPONSES)

    def complete(prompt):
        base = completion_by_question(MINI_QUESTIONS, responses)
        if "How many movies are there" in prompt:
            raise ValueError("scripted breakdown")
        return base(prompt)

    cfg = run_config(mini_bench, tmp_path)
    client = build_client(cfg, transport=ScriptedTransport(completion_fn=complete))
    report_path = cmd_run(cfg, client=client)
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["instance_count"] == 10
    broken = next(o for o in payload["outcomes"] if o["question_id"] == 1)
    assert not broken["matched"]
    assert "pipeline error" in broken["predicted_error"]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_database_that_is_not_sqlite_fails_only_its_own_questions(mini_bench, tmp_path,
                                                                   monkeypatch, workers):
    def scripted(cfg):
        return build_client(cfg, transport=ScriptedTransport(
            completion_fn=completion_by_question(MINI_QUESTIONS, MINI_RESPONSES)))

    reference = run_config(mini_bench, tmp_path, output_dir=tmp_path / "reference")
    expected = json.loads(cmd_run(reference, client=scripted(reference)).read_text("utf-8"))
    load = cli.load_split

    def load_then_overwrite(root, name):
        split = load(root, name)
        database_path(root, "schools").write_bytes(b"not a database. " * 64)
        return split

    monkeypatch.setattr(cli, "load_split", load_then_overwrite)
    cfg = run_config(mini_bench, tmp_path, workers=workers)
    report = json.loads(cmd_run(cfg, client=scripted(cfg)).read_text("utf-8"))
    database_of = {q["question_id"]: q["db_id"] for q in MINI_QUESTIONS}
    assert len(report["outcomes"]) == len(MINI_QUESTIONS)
    for row, before in zip(report["outcomes"], expected["outcomes"]):
        if database_of[row["question_id"]] == "schools":
            assert not row["matched"]
            assert row["predicted_error"] == row["gold_error"] == "file is not a database"
        else:
            assert row == before


def test_cmd_run_few_shot_uses_cross_domain_examples(mini_bench, tmp_path):
    store = tmp_path / "store.jsonl"
    cfg = run_config(mini_bench, tmp_path, shots=1, pool_split="train",
                     replay_store=store, replay_mode="record")
    transport = ScriptedTransport(
        completion_fn=completion_by_question(MINI_QUESTIONS + POOL_QUESTIONS, MINI_RESPONSES),
        embed_fn=hash_embedding)
    client = build_client(cfg, transport=transport)
    embed_client = build_embed_client(cfg, transport=transport)
    report_path = cmd_run(cfg, client=client, embed_client=embed_client)
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["instance_count"] == 10

    traces = [json.loads(line) for line in
              (cfg.output_dir / "traces.jsonl").read_text(encoding="utf-8").splitlines()]
    dev_by_id = {q["question_id"]: q for q in MINI_QUESTIONS}
    pool_cinema = {q["question"] for q in POOL_QUESTIONS if q["db_id"] == "cinema"}
    pool_schools = {q["question"] for q in POOL_QUESTIONS if q["db_id"] == "schools"}
    for trace in traces:
        prompt = trace["step_prompts"][0]
        target_db = dev_by_id[trace["question_id"]]["db_id"]
        foreign = pool_schools if target_db == "cinema" else pool_cinema
        own = pool_cinema if target_db == "cinema" else pool_schools
        assert any(q.rstrip("?.") in prompt for q in foreign)
        assert not any(q.rstrip("?.") in prompt for q in own)


def test_cmd_run_few_shot_replay_deterministic(mini_bench, tmp_path):
    store = tmp_path / "store.jsonl"
    record_cfg = run_config(mini_bench, tmp_path, shots=1, pool_split="train",
                            replay_store=store, replay_mode="record",
                            output_dir=tmp_path / "rec")
    transport = ScriptedTransport(
        completion_fn=completion_by_question(MINI_QUESTIONS + POOL_QUESTIONS, MINI_RESPONSES),
        embed_fn=hash_embedding)
    cmd_run(record_cfg,
            client=build_client(record_cfg, transport=transport),
            embed_client=build_embed_client(record_cfg, transport=transport))

    payloads = []
    for name in ("fs_a", "fs_b"):
        cfg = run_config(mini_bench, tmp_path, shots=1, pool_split="train",
                         replay_store=store, replay_mode="replay",
                         output_dir=tmp_path / name)
        path = cmd_run(cfg, client=build_client(cfg),
                       embed_client=build_embed_client(cfg))
        payloads.append(path.read_bytes())
    assert payloads[0] == payloads[1]


def test_cmd_run_worker_pool_preserves_output(mini_bench, tmp_path):
    store = tmp_path / "store.jsonl"
    record_cfg = run_config(mini_bench, tmp_path, replay_store=store,
                            replay_mode="record", output_dir=tmp_path / "rec")
    client, _ = zero_shot_client(record_cfg)
    cmd_run(record_cfg, client=client)

    serial_cfg = run_config(mini_bench, tmp_path, replay_store=store,
                            replay_mode="replay", output_dir=tmp_path / "serial")
    parallel_cfg = run_config(mini_bench, tmp_path, replay_store=store,
                              replay_mode="replay", output_dir=tmp_path / "parallel",
                              workers=4)
    serial = cmd_run(serial_cfg, client=build_client(serial_cfg)).read_text(encoding="utf-8")
    parallel = cmd_run(parallel_cfg, client=build_client(parallel_cfg)).read_text(encoding="utf-8")
    assert json.loads(serial)["outcomes"] == json.loads(parallel)["outcomes"]
    assert json.loads(serial)["ex_by_split"] == json.loads(parallel)["ex_by_split"]


def _record_few_shot_store(mini_bench, tmp_path, **overrides):
    """Record a 2-shot run's replay store; return the config to replay it."""
    store = tmp_path / "store.jsonl"
    values = dict(shots=2, pool_split="train", replay_store=store, **overrides)
    record_cfg = run_config(mini_bench, tmp_path, replay_mode="record",
                            output_dir=tmp_path / "rec", **values)
    transport = ScriptedTransport(
        completion_fn=completion_by_question(MINI_QUESTIONS + POOL_QUESTIONS, MINI_RESPONSES),
        embed_fn=hash_embedding)
    cmd_run(record_cfg, client=build_client(record_cfg, transport=transport),
            embed_client=build_embed_client(record_cfg, transport=transport))
    return lambda name, **more: run_config(
        mini_bench, tmp_path, replay_mode="replay", output_dir=tmp_path / name,
        **values, **more)


def test_few_shot_worker_pool_output_is_byte_identical(mini_bench, tmp_path):
    # A 700-token context makes every question truncate its examples.
    replay_config = _record_few_shot_store(
        mini_bench, tmp_path, max_context=700, response_reserve=50)
    outputs = []
    for workers in (1, 4):
        cfg = replay_config(f"workers_{workers}", workers=workers)
        report = cmd_run(cfg).read_bytes()
        outputs.append((report, (cfg.output_dir / "traces.jsonl").read_bytes()))
    assert b'"queries_with_truncation": 10' in outputs[0][0]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", [cmd_run, cmd_curate])
def test_few_shot_commands_share_one_replay_store(mini_bench, tmp_path, monkeypatch, command):
    import sqlbench.cli as cli

    replay_config = _record_few_shot_store(mini_bench, tmp_path)
    opened = []

    class CountingStore(cli.ReplayStore):
        def __init__(self, path):
            opened.append(path)
            super().__init__(path)

    clients = []

    def capture(build):
        def wrapper(*args, **kwargs):
            clients.append(build(*args, **kwargs))
            return clients[-1]
        return wrapper

    monkeypatch.setattr(cli, "ReplayStore", CountingStore)
    monkeypatch.setattr(cli, "build_client", capture(cli.build_client))
    monkeypatch.setattr(cli, "build_embed_client", capture(cli.build_embed_client))
    command(replay_config("shared"))
    assert len(opened) == 1
    completion, embedding = clients
    assert completion.store is embedding.store is not None


def test_report_carries_per_outcome_truncation_rows(mini_bench, tmp_path):
    cfg = run_config(mini_bench, tmp_path)
    client, _ = zero_shot_client(cfg)
    payload = json.loads(cmd_run(cfg, client=client).read_text(encoding="utf-8"))
    for outcome in payload["outcomes"]:
        row = outcome["truncation"]
        assert set(row) == {"removed_columns", "target_removed", "example_removed"}
        assert row["removed_columns"] == row["target_removed"] + row["example_removed"]


def test_cmd_prep_sft_writes_jsonl_and_stats(mini_bench, tmp_path, capsys):
    cfg = run_config(mini_bench, tmp_path)
    out_path = cmd_prep_sft(cfg)
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 10
    for line in lines:
        row = json.loads(line)
        assert set(row) == {"prompt", "completion"}
        assert row["prompt"].endswith("SELECT")
    out = capsys.readouterr().out
    assert "Queries with column truncation/Total queries: 0.00% (0/10)" in out
    assert "Average truncated columns: 0" in out


def test_prep_sft_skips_malformed_gold_sql_and_propagates_other_errors(
        tmp_path, capsys, monkeypatch):
    import sqlbench.prompts as prompts

    questions = [
        {"question_id": i, "question": f"Which movie is number {i}?", "evidence": "",
         "SQL": sql, "db_id": "cinema", "difficulty": "simple"}
        for i, sql in enumerate(["SELECT movie_title FROM movies", "SELECT 'abc FROM movies"])
    ]
    root = write_benchmark(tmp_path / "bench", questions, {"cinema": make_cinema_db})
    cfg = RunConfig(benchmark_root=root, split="dev", output_dir=tmp_path / "out")
    lines = cmd_prep_sft(cfg).read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["completion"] for line in lines] == [" movie_title FROM movies"]
    out = capsys.readouterr().out
    assert "skipped 1 instances\n" in out and "wrote 1 pairs" in out

    def broken(*args, **kwargs):
        raise KeyError("not a skip")

    monkeypatch.setattr(prompts, "build_sft_pair", broken)
    with pytest.raises(KeyError):
        cmd_prep_sft(cfg)


def test_cmd_prep_sft_truncation_stats_match_recount(tmp_path, capsys):
    import sqlite3

    def make_wide_db(path):
        conn = sqlite3.connect(path)
        columns = ", ".join(f"col_{i:03d} TEXT" for i in range(250))
        conn.execute(f"CREATE TABLE wide (id INTEGER PRIMARY KEY, {columns})")
        conn.commit()
        conn.close()
        return path

    questions = [
        {"question_id": i, "question": f"Broad question number {i}?", "evidence": "",
         "SQL": "SELECT id FROM wide", "db_id": "wide", "difficulty": "simple"}
        for i in range(4)
    ]
    root = write_benchmark(tmp_path / "widebench", questions, {"wide": make_wide_db})
    cfg = RunConfig(benchmark_root=root, split="dev", output_dir=tmp_path / "out",
                    max_context=700, response_reserve=100)
    out_path = cmd_prep_sft(cfg)
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    out = capsys.readouterr().out
    assert "Queries with column truncation/Total queries: 100.00% (4/4)" in out

    # recount the average from the emitted prompts themselves
    split = load_split(root, "dev")
    total_columns = len(split.databases["wide"].tables[0].columns)
    removed_counts = []
    for line in lines:
        prompt = json.loads(line)["prompt"]
        kept = sum(1 for text_line in prompt.splitlines() if text_line.startswith("#   "))
        removed_counts.append(total_columns - kept)
    expected_avg = round(sum(removed_counts) / len(removed_counts), 2)
    assert f"Average truncated columns: {expected_avg}" in out


def test_cmd_curate_writes_selection(mini_bench, tmp_path):
    cfg = run_config(mini_bench, tmp_path, shots=2, pool_split="train")
    transport = ScriptedTransport(
        completion_fn=completion_by_question(MINI_QUESTIONS + POOL_QUESTIONS, MINI_RESPONSES),
        embed_fn=hash_embedding)
    out_path = cmd_curate(
        cfg,
        client=build_client(cfg, transport=transport),
        embed_client=build_embed_client(cfg, transport=transport))
    rows = json.loads(out_path.read_text(encoding="utf-8"))
    assert len(rows) == 10
    for row in rows:
        assert len(row["selected"]) == 2
        gammas = [s["gamma_a"] for s in row["selected"]]
        assert gammas == sorted(gammas)  # ascending, most similar last


def test_curate_rejects_a_mode_it_cannot_apply(mini_bench, tmp_path):
    # The draft that curation scores against is always zero-shot; a
    # chain-of-thought mode must not pass silently.
    cfg = run_config(mini_bench, tmp_path, mode="cot-sk-pred", pool_split="train")
    transport = ScriptedTransport(
        completion_fn=completion_by_question(MINI_QUESTIONS + POOL_QUESTIONS, MINI_RESPONSES),
        embed_fn=hash_embedding)
    with pytest.raises(SystemExit) as exited:
        cmd_curate(cfg, client=build_client(cfg, transport=transport),
                   embed_client=build_embed_client(cfg, transport=transport))
    assert "--mode cot-sk-pred" in str(exited.value.code)
    assert "zero-shot" in str(exited.value.code)
    assert not (cfg.output_dir / "curation.json").exists()
    assert not transport.requests


def test_cmd_report_renders_tables(mini_bench, tmp_path, capsys):
    cfg = run_config(mini_bench, tmp_path)
    client, _ = zero_shot_client(cfg)
    report_path = cmd_run(cfg, client=client)
    capsys.readouterr()
    cmd_report(report_path)
    out = capsys.readouterr().out
    assert "EX (%)" in out
    assert "60.0" in out
    assert "Error taxonomy:" in out


def test_main_exit_codes(mini_bench, tmp_path):
    assert main(["ingest-check", "--benchmark-root", str(mini_bench), "--split", "dev"]) == 0
    assert main(["ingest-check", "--benchmark-root", str(tmp_path / "nope"),
                 "--split", "dev"]) == 1


def test_main_serialize_schema_subcommand(mini_bench, tmp_path):
    out_dir = tmp_path / "schemas"
    code = main(["serialize-schema", "--benchmark-root", str(mini_bench),
                 "--split", "dev", "--output-dir", str(out_dir)])
    assert code == 0
    assert len(list(out_dir.rglob("*.txt"))) == 18


def test_curate_selects_the_examples_of_the_few_shot_run(mini_bench, tmp_path):
    from sqlbench.prompts import question_line

    def transport():
        return ScriptedTransport(
            completion_fn=completion_by_question(
                MINI_QUESTIONS + POOL_QUESTIONS, MINI_RESPONSES),
            embed_fn=hash_embedding)

    run_cfg = run_config(mini_bench, tmp_path, shots=2, pool_split="train",
                         output_dir=tmp_path / "run")
    run_transport = transport()
    cmd_run(run_cfg, client=build_client(run_cfg, transport=run_transport),
            embed_client=build_embed_client(run_cfg, transport=run_transport))
    curate_cfg = run_config(mini_bench, tmp_path, shots=2, pool_split="train",
                            output_dir=tmp_path / "curate")
    curate_transport = transport()
    curation = json.loads(cmd_curate(
        curate_cfg,
        client=build_client(curate_cfg, transport=curate_transport),
        embed_client=build_embed_client(curate_cfg, transport=curate_transport),
    ).read_text(encoding="utf-8"))

    pool_id_of = {question_line(q["question"]): q["question_id"] for q in POOL_QUESTIONS}
    traces = [json.loads(line) for line in
              (tmp_path / "run" / "traces.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [t["question_id"] for t in traces] == [row["question_id"] for row in curation]
    for trace, row in zip(traces, curation):
        (prompt,) = trace["step_prompts"]
        asked = [line for line in prompt.splitlines() if line.startswith("### Question: ")]
        shown = [pool_id_of[line] for line in asked[:-1]]  # the last one is the target
        selected = [s["candidate_question_id"] for s in row["selected"]]
        assert len(selected) == 2
        assert shown == selected


def test_emit_sft_dataset_matches_prep_sft(tmp_path):
    import sqlite3

    from sqlbench.prompts import emit_sft_dataset

    def make_wide_db(path):
        conn = sqlite3.connect(path)
        columns = ", ".join(f"col_{i:03d} TEXT" for i in range(250))
        conn.execute(f"CREATE TABLE wide (id INTEGER PRIMARY KEY, {columns})")
        conn.commit()
        conn.close()
        return path

    questions = [
        {"question_id": i, "question": f"Broad question number {i}?", "evidence": "",
         "SQL": "SELECT id FROM wide", "db_id": "wide", "difficulty": "simple"}
        for i in range(4)
    ]
    root = write_benchmark(tmp_path / "widebench", questions, {"wide": make_wide_db})
    cfg = RunConfig(benchmark_root=root, split="dev", output_dir=tmp_path / "out",
                    max_context=700, response_reserve=100, truncation_seed=7)
    lines = cmd_prep_sft(cfg).read_text(encoding="utf-8").splitlines()

    pairs = list(emit_sft_dataset(load_split(root, "dev"), cfg.variant, cfg.budget,
                                  seed=cfg.truncation_seed))
    assert all(record.total_removed > 0 for _, record in pairs)
    assert [json.loads(line) for line in lines] == [
        {"prompt": pair.prompt, "completion": pair.completion} for pair, _ in pairs]


@pytest.mark.parametrize("max_context, written", [(255, False), (256, True)])
def test_prep_sft_checks_the_context_before_writing(mini_bench, tmp_path, max_context,
                                                    written):
    out_dir = tmp_path / "out"
    code = main(["prep-sft", "--benchmark-root", str(mini_bench), "--split", "dev",
                 "--max-context", str(max_context), "--response-reserve", "50",
                 "--output-dir", str(out_dir)])
    assert code == (0 if written else 1)
    assert (out_dir / "sft_dev.jsonl").exists() == written
    assert out_dir.exists() == written


def test_failed_prep_sft_keeps_the_previous_file(mini_bench, tmp_path, monkeypatch):
    import sqlbench.prompts as prompts

    cfg = run_config(mini_bench, tmp_path)
    out_path = cmd_prep_sft(cfg)
    previous = out_path.read_bytes()
    built = []

    def breaks_at_the_sixth(*args, **kwargs):
        built.append(1)
        if len(built) == 6:
            raise KeyError("scripted breakdown")
        return build_sft_pair(*args, **kwargs)

    build_sft_pair = prompts.build_sft_pair
    monkeypatch.setattr(prompts, "build_sft_pair", breaks_at_the_sixth)
    with pytest.raises(KeyError):
        cmd_prep_sft(cfg)
    assert out_path.read_bytes() == previous
    assert [path.name for path in cfg.output_dir.iterdir()] == [out_path.name]


# sha256 of the embedding cache a cached curate or 2-shot run over mini_bench
# writes: the on-disk {hash, dim, vector} format must not change.
EMBEDDING_CACHE_SHA256 = "7f734f487c8cc31c8a3368795549ab6637108d486eb1c12c55c1938867d873ea"


@pytest.mark.parametrize("command, output", [(cmd_curate, "curation.json"),
                                             (cmd_run, "report.json")])
def test_embedding_cache_serves_a_rerun(mini_bench, tmp_path, command, output):
    cache = tmp_path / "embeddings.jsonl"

    def run(name, **settings):
        cfg = run_config(mini_bench, tmp_path, shots=2, pool_split="train",
                         output_dir=tmp_path / name, **settings)
        transport = ScriptedTransport(
            completion_fn=completion_by_question(
                MINI_QUESTIONS + POOL_QUESTIONS, MINI_RESPONSES),
            embed_fn=hash_embedding)
        out_path = command(cfg, client=build_client(cfg, transport=transport),
                           embed_client=build_embed_client(cfg, transport=transport))
        assert out_path.name == output
        embed_calls = sum("embeddings" in request["url"] for request in transport.requests)
        return out_path.read_bytes(), embed_calls

    uncached, uncached_calls = run("uncached")
    first, first_calls = run("first", embedding_cache=cache)
    written = cache.read_bytes()
    second, second_calls = run("second", embedding_cache=cache)
    assert first_calls == uncached_calls > 0
    assert second_calls == 0
    assert uncached == first == second
    assert cache.read_bytes() == written
    assert hashlib.sha256(written).hexdigest() == EMBEDDING_CACHE_SHA256


def test_few_shot_run_survives_underflowed_truncation_rates(mini_bench, tmp_path):
    # With hash embeddings some examples score a similarity at or below 0,
    # clamped to 1e-6: that example takes the whole truncation rate and
    # the other sections' rates underflow to 0.
    replay_config = _record_few_shot_store(
        mini_bench, tmp_path, max_context=500, response_reserve=50)
    cfg = replay_config("replayed")
    payload = json.loads(cmd_run(cfg).read_text(encoding="utf-8"))
    errors = [o["predicted_error"] for o in payload["outcomes"]
              if "pipeline error" in (o["predicted_error"] or "")]
    assert not any("division" in error for error in errors), errors
