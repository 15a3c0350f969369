from __future__ import annotations

import json

import pytest

from conftest import (
    MINI_QUESTIONS,
    MINI_RESPONSES,
    POOL_QUESTIONS,
    ScriptedTransport,
    completion_by_question,
    hash_embedding,
    write_benchmark,
)
from sqlbench.cli import (
    RunConfig,
    build_client,
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
from sqlbench.bench import load_split


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
