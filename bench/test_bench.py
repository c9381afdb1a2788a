"""Self-tests of the benchmark: tiny runs of every workload, and checks
that the oracle and the decode check catch corrupted input.

    python3 -m pytest bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import workloads
from recipe import decoder
from recipe.distributions import shifted_soliton_sequence
from recipe.evaluation import RecipeDScheme, derive_seed, run_trials
from recipe.feasibility import derive_apa

SPEC = run.load_spec()


def tiny(name: str):
    if name == "eval-narrow":
        return workloads.EvalWorkload(name, 3, K=8, ks=range(1, 9), schemes=["recipe-d"],
                                      trials=3, oracle_points=2, oracle_trials=2,
                                      threads_check=True)
    if name == "eval-wide":
        return workloads.EvalWorkload(name, 3, K=66, ks=[65, 66],
                                      schemes=["recipe-t", "pint"], trials=2,
                                      oracle_points=1, oracle_trials=1, threads_check=False)
    if name == "search":
        return workloads.SearchWorkload(name, 3, hrs_K=6, candidates=2, trials=4,
                                        qps_runs=[(8, 1)])
    return workloads.DecodeWorkload(name, 3, K=6, flows_per_point=1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_is_correct_and_reports_every_metric(name, trace, tmp_path):
    record = run.measure(tiny(name), 0, trace, tmp_path)
    assert record["correct"], record["notes"]
    assert record["failed"] == 0 and record["attempted"] > 0
    metrics = record["metrics"]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]] > 0, m["name"]
    if trace:
        listed = {m["name"] for m in SPEC["per_layer"]}
        assert listed <= set(metrics)
        assert metrics["trace.rounds"] == 1


def test_oracle_catches_one_flipped_codeword_bit(monkeypatch):
    scheme = RecipeDScheme(apa=derive_apa(shifted_soliton_sequence(8)), seed=5)
    k, trials = 8, 4
    used, _ = run_trials(scheme, k, [derive_seed(5, k, t) for t in range(trials)])
    mean = repr(float(used.mean()))
    assert oracle.check_point(scheme, k, trials, 5, mean, range(trials)) == (5, 0)

    honest = oracle.encode
    calls = []

    def flip_first(mode, pid, ids):
        calls.append(pid)
        cw = honest(mode, pid, ids)
        return cw ^ 1 if len(calls) == 1 else cw

    monkeypatch.setattr(oracle, "encode", flip_first)
    attempted, failed = oracle.check_point(scheme, k, trials, 5, mean, [0])
    assert (attempted, failed) == (2, 1)


def _decode_round(wl):
    wall, raw = wl.run_round(None, None)
    return wl.check_round(wall, raw)


def test_decode_check_catches_flipped_bit_and_wrong_k(tmp_path, monkeypatch):
    wl = tiny("decode")
    wl.setup(tmp_path)
    wl.prepare(tmp_path)
    assert _decode_round(wl).failed == 0

    flow = wl.flows[-1]
    (pid, cw), *rest = flow.packets
    wl.flows[-1] = dataclasses.replace(flow, packets=[(pid, cw ^ 1)] + rest)
    assert _decode_round(wl).failed == 1
    wl.flows[-1] = flow

    honest = decoder.replay_xor_mask
    monkeypatch.setattr(decoder, "replay_xor_mask",
                        lambda pid, k, mode: honest(pid, k + 1, mode))
    assert _decode_round(wl).failed > len(wl.flows) // 2


def test_diff_labels():
    assert run.verdict([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], "lower", 0.1)[1] == "worse"
    assert run.verdict([1.0, 1.01, 0.99, 1.0], [1.02, 1.0, 1.01, 1.0], "lower", 0.1)[1] == "unchanged"
    assert run.verdict([1.0, 1.01, 0.99, 1.0], [0.5, 0.51, 0.49, 0.5], "lower", 0.1)[1] == "improved"
    assert run.verdict([1.0, 2.0, 0.5, 1.5], [1.1, 1.9, 0.6, 1.4], "lower", 0.1)[1] == "unresolved"
    assert run.verdict([10.0, 10.1], [8.0, 8.1], "higher", 0.1)[1] == "worse"


def test_diff_mode_reads_run_records(tmp_path, capsys):
    def record(seed, wall):
        return {"workload": "decode", "seed": seed, "digests": {"job": {"x": "1"}},
                "metrics": {"wall_ref_s": {"value": wall, "unit": "s", "better": "lower"}}}

    base, change = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    base.write_text("".join(json.dumps(record(s, 1.0 + s / 100)) + "\n" for s in range(4)))
    change.write_text("".join(json.dumps(record(s, 2.0 + s / 100)) + "\n" for s in range(4)))
    assert run.run_diff(str(base), str(change), SPEC) == 1
    assert "worse" in capsys.readouterr().out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "decode", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
