"""The benchmark's own tests: the oracle, the smoke mode, the metric
catalogue in BENCHMARK.json, and the refusals."""

import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from querybench import harness
from querybench.workloads import interval_join_oracle, workloads

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "querybench" / "run.py"


def _brute_force(xs, ys, predicate):
    out = Counter()
    for x_ts, x_te, x_seq in xs:
        for y_ts, y_te, y_seq in ys:
            if predicate == "during":
                match = y_ts < x_ts and x_te < y_te
            else:
                match = x_ts < y_te and y_ts < x_te
            if match:
                out[(x_seq, y_seq)] += 1
    return out


def _intervals(rng, count):
    out = []
    for seq in range(count):
        start = rng.randrange(60)
        out.append((start, start + rng.randint(1, 12), seq % 7))
    return out


@pytest.mark.parametrize("predicate", ["during", "overlap"])
def test_oracle_matches_brute_force(predicate):
    rng = random.Random(3)
    for _ in range(30):
        xs, ys = _intervals(rng, 40), _intervals(rng, 40)
        assert interval_join_oracle(xs, ys, predicate) == _brute_force(
            xs, ys, predicate
        )


def _run(*args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "querybench/run.py", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=170,
    )


def test_smoke_mode_checks_every_workload_and_metric():
    from repro.streams import BACKENDS

    done = _run("--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    expected = set()
    for name in workloads():
        expected |= {f"{name}/untraced/{m}" for m in harness.END_TO_END}
        expected |= {
            f"{name}/traced/{m}" for m in harness.per_layer_names(BACKENDS)
        }
    assert set(result["metrics"]) == expected
    for name in workloads():
        for metric in ("streams.sweep_s.default", "parallel.wall_s.par2"):
            value = result["metrics"][f"{name}/traced/{metric}"]["value"]
            assert (value == 0) == (name == "fig8-superstar")


def test_benchmark_json_names_what_the_harness_reports():
    from repro.streams import BACKENDS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        harness.END_TO_END
    )
    assert [m["name"] for m in spec["per_layer"]] == harness.per_layer_names(
        BACKENDS
    )
    assert len(spec["per_layer"]) <= 128


@pytest.mark.parametrize("variable", harness.PINNED_ENV)
def test_refuses_pinned_environment(variable):
    env = dict(os.environ, **{variable: "1"})
    done = _run("--workload", "fig8-superstar", env=env)
    assert done.returncode == 2
    assert variable in done.stderr and done.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "querybench",
        tmp_path / "querybench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(
        "--workload", "fig8-superstar", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_importing_the_entry_point_does_nothing(capsys):
    # What a spawn worker does with the parent's main module.
    spec = importlib.util.spec_from_file_location("__mp_main__", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert capsys.readouterr() == ("", "")


def test_host_probe_times_a_fixed_kernel_without_touching_the_collector():
    import gc

    assert gc.isenabled()
    seconds = harness.host_probe()
    assert gc.isenabled()
    assert 0 < seconds < 60
