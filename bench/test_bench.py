"""Tests of the benchmark itself: python -m pytest bench -q"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def _small_rounds(workload: str, tmp_path: Path) -> list[list[workloads.Op]]:
    if workload == "invariant":
        ops = [
            workloads.invariant_op("sl2", 2, [(1, 1), (1, -1), (1, 1)], (1, 0)),
            workloads.invariant_op("sl2", 3, [(1, 1), (2, -1)], (0, 0, -1)),
        ]
    elif workload == "markov":
        ops = [workloads.markov_op("sl2", 2, [(1, 1)] * 3, seed=5)]
    else:
        docs = workloads.write_documents(tmp_path)
        ops = [workloads.check_op("abelian1", "Q"), workloads.reject_op(docs["sl2-mutant"])]
    return [ops]


def test_every_metric_printed_with_its_unit(tmp_path, capsys):
    want_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in workloads.WORKLOADS:
        rounds = _small_rounds(workload, tmp_path)
        for trace, want in ((False, want_e2e), (True, want_layer)):
            run.run_benchmark(workload, seed=1, seconds=0, trace=trace, rounds=rounds)
            result = _last_json(capsys)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert _units(result["metrics"]) == want, (workload, trace)
            if not trace:
                assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_wrong_expected_value_raises_failed_ratio(capsys):
    good = workloads.invariant_op("sl2", 2, [(1, 1)], (0, 0))
    wrong = workloads.Op(good.kind, good.label, good.field, good.argv, "17", good.columns)
    assert good.expect == "16"
    run.run_benchmark("invariant", seed=1, seconds=0, trace=False, rounds=[[good, wrong]])
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    assert "# failed_ratio = 0.5 (1/2 ops)" in out


def test_accepted_mutant_counts_as_failed(tmp_path):
    docs = workloads.write_documents(tmp_path)
    cli = run._import_cli()
    assert run.run_op(cli, workloads.reject_op(docs["sl2-mutant"]))["ok"]
    assert not run.run_op(cli, workloads.reject_op(docs["sl2"]))["ok"]


def test_rounds_end_within_seconds():
    assert run.another_round(0.0, 0, 0)  # the first round always runs
    assert run.another_round(10.0, 1, 20) and not run.another_round(10.1, 1, 20)
    assert run.another_round(30.0, 3, 40) and not run.another_round(31.0, 3, 40)


def test_times_scale_to_reference_speed():
    speed = run.Speed()
    p = run.PROBE_S
    # probes 1.5 times as long as the reference around a step: the machine ran slow
    speed.probes = [(0.0, 1.5 * p), (1.0, 1.0 + 1.5 * p), (10.0, 10.0 + 3 * p)]
    assert abs(speed.scaled(1.5 * p, 1.0 - 1e-6) - (1.0 - 1e-6 - 1.5 * p) / 1.5) < 1e-12
    # a step 4 s long counts the probes within 4 s of it on both sides: 1.5 p and 3 p
    assert abs(speed.scaled(5.0, 9.0) - 4.0 / 2.25) < 1e-12
    speed.take()
    assert speed.probes[-1][1] > speed.probes[-1][0]


def test_same_seed_same_ops(tmp_path):
    digest = {
        seed: workloads.ops_digest(workloads.generate("invariant", seed, tmp_path), tmp_path) for seed in (1, 1, 2)
    }
    assert len(digest) == 2
    check = [workloads.generate("check", 3, tmp_path / d) for d in ("a", "b")]
    assert workloads.ops_digest(check[0], tmp_path / "a") == workloads.ops_digest(check[1], tmp_path / "b")


def test_spans_nest_with_nonnegative_self_time(tmp_path):
    cli = run._import_cli()
    docs = workloads.write_documents(tmp_path)
    original = cli.make_braiding_kit
    tracer = spans.Tracer()
    argvs = [
        ["invariant", "sl2", "--strands", "2", "--word", "s1 s1", "--framings", "1,0"],
        ["markov", "sl2", "--strands", "2", "--word", "s1", "--trials", "2"],
        ["check", str(docs["sl2"]), "--property", "all"],
    ]
    with tracer.installed():
        assert cli.make_braiding_kit is not original
        assert sys.modules["tsdlink"].make_braiding_kit is not original
        for op, argv in enumerate(argvs):
            tracer.op = op
            assert cli.run_cli(argv, out=io.StringIO()) == 0
    assert cli.make_braiding_kit is original
    names = {s.name for s in tracer.spans}
    assert {f"{module}.{name}" for module, name, _ in spans.TARGETS} <= names
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        assert s.self_time >= 0
        if s.parent is None:
            assert s.name == "cli.run_cli"
            continue
        parent = by_id[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end
        assert parent.op == s.op
    metrics = spans.layer_metrics(tracer.spans, len(argvs))
    assert metrics["braiding.forward_builds"] == 2
    assert metrics["invariant.traces"] == 4 / 3  # one invariant, a markov base and two trials
    assert metrics["tensor.trace_ms"] > 0 and metrics["tensor.diff_ms"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "check", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
