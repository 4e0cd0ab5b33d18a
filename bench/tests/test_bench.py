"""Tests of the benchmark itself: exact counts repeat, corrupted expected
values are counted as failures, and the output follows BENCHMARK.json.

    python3 -m pytest bench/tests -q
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_cases(workload, n):
    return list(itertools.islice(workload.cases(), n))


def traced_counts(name, seed, n):
    workload = workloads.WORKLOADS[name](seed)
    tally = harness.Tally()
    tracer, _, _ = harness.traced_pass(workload, first_cases(workload, n), workload.run, tally)
    assert tally.failed == 0
    stats = tracer.layer_stats()
    return {span: (row[0], row[3]) for span, row in stats.items()}


def test_exact_counts_repeat_for_a_seed():
    first = traced_counts("quintic", 7, 2)
    second = traced_counts("quintic", 7, 2)
    assert first == second
    assert first["poly.mul"][0] > 0 and first["poly.mul"][1] > 0
    assert first["linalg.det_pencil"] == (2, first["linalg.det_pencil"][1])
    assert first["linalg.det_pencil"][1] > 0


def test_low_degree_counts_repeat_for_a_seed():
    assert traced_counts("low_degree", 3, 2) == traced_counts("low_degree", 3, 2)


def test_tracer_restores_every_binding():
    import genus1
    import genus1.linalg
    from genus1.poly import Poly
    before = (genus1.invariants, sys.modules["genus1.invariants"].determinant,
              genus1.linalg.determinant, Poly.__mul__, Poly.__rmul__)
    traced_counts("quintic", 1, 1)
    after = (genus1.invariants, sys.modules["genus1.invariants"].determinant,
             genus1.linalg.determinant, Poly.__mul__, Poly.__rmul__)
    assert before == after


def _corrupt_quintic(workload, case):
    model, (c4, c6) = case
    return model, (c4 + 1, c6)


def _corrupt_quintic_big(workload, case):
    model, transform, character, (c4, c6, delta) = case
    return model, transform, character, (c4 + 1, c6, delta)


def _corrupt_low_degree(workload, case):
    models, transforms, (curve, point, (c4, c6, delta)) = case
    return models, transforms, (curve, point, (c4 + 1, c6, delta))


def _corrupt_cli_cold(workload, case):
    argv, stdin, expected = case
    return argv, stdin, expected.replace("c4 = ", "c4 = 1")


CORRUPT = {"quintic": _corrupt_quintic, "quintic_big": _corrupt_quintic_big,
           "low_degree": _corrupt_low_degree, "cli_cold": _corrupt_cli_cold}


@pytest.mark.parametrize("name", sorted(CORRUPT))
def test_corrupted_expected_value_lands_in_failed(name):
    workload = workloads.WORKLOADS[name](5)
    case = first_cases(workload, 1)[0]
    tally = harness.Tally()
    cases = [case, CORRUPT[name](workload, case)]
    _, results = harness.run_pass(workload.run, cases)
    harness.record(workload, cases, results, tally)
    assert (tally.attempted, tally.failed) == (2, 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    def shape(case):
        return repr(case) if name != "cli_cold" else case
    one = [shape(c) for c in first_cases(workloads.WORKLOADS[name](11), 3)]
    two = [shape(c) for c in first_cases(workloads.WORKLOADS[name](11), 3)]
    other = [shape(c) for c in first_cases(workloads.WORKLOADS[name](12), 3)]
    assert one == two != other


def test_tail_has_ten_samples_beyond():
    value, pct, n = harness.tail(list(range(100)))
    assert (value, pct, n) == (89, 90.0, 100)
    assert sum(x > value for x in range(100)) == 10


def _run(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    return result


def test_end_to_end_output_matches_spec():
    result = _result(_run(["--workload", "low_degree", "--seed", "2", "--seconds", "0.5",
                           "--trace", "0"], ROOT))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_output_matches_spec():
    result = _result(_run(["--workload", "low_degree", "--seed", "2", "--seconds", "0.5",
                           "--trace", "1"], ROOT))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["linalg.det_pencil.calls"]["value"] == 0
    assert result["metrics"]["invariants.deg4_auxiliary_quadrics.total_s"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"))
    done = _run(["--workload", "quintic", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
