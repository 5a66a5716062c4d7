"""Self-test of the benchmark harness at a tiny problem size (a few seconds).

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import blocksc.deq  # noqa: E402
import blocksc.denoiser  # noqa: E402
import blocksc.tensor  # noqa: E402
from blocksc.anderson import DivergenceError  # noqa: E402
from perfbench import harness, tracer  # noqa: E402
from perfbench.workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text(
    encoding="utf-8"))
RUNS = [(name, trace) for name in WORKLOADS for trace in (0, 1)]


def run(tmp_path, name, trace, seconds=0.0, reference=None):
    return harness.run_workload(name, 5, seconds, trace, size=TINY,
                                reference=reference, root=tmp_path)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    return {key: run(root, *key) for key in RUNS}


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == tracer.PER_LAYER
    mapped = [m for layer in LAYERS["layers"].values() for m in layer["metrics"]]
    assert sorted(mapped) == sorted(tracer.PER_LAYER)
    assert set(LAYERS["zero_on"]) <= set(tracer.PER_LAYER)


@pytest.mark.parametrize("name,trace", RUNS)
def test_every_metric_is_emitted_with_its_unit(runs, name, trace):
    result, record = runs[(name, trace)]
    assert result["correct"], record["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert not record["missing"]
    named = record["named"]
    wl = WORKLOADS[name]
    assert {"setup_s", "peak_rss_mb", "failed_frac", wl.rate_name,
            wl.p50_name, wl.quality_name} == set(named)
    assert all(m["better"] in ("lower", "higher") and m["unit"]
               for m in named.values())
    text = "\n".join(harness.report_lines(result, record))
    assert all(k in text for k in result["metrics"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_predicted_zeros(runs, name):
    values = {k: v["value"] for k, v in runs[(name, 1)][0]["metrics"].items()}
    zero = {k for k, on in LAYERS["zero_on"].items() if name in on}
    assert {k: values[k] for k in zero if values[k] != 0} == {}
    silent = [k for k in values
              if k.endswith(".calls") and k not in zero and values[k] == 0]
    assert silent == []


def test_wrappers_are_restored(runs):
    assert tracer.still_wrapped() == []
    assert blocksc.denoiser.conv2d is blocksc.tensor.conv2d
    with pytest.raises(RuntimeError):
        with tracer.tracing():
            assert blocksc.denoiser.conv2d is not blocksc.tensor.conv2d
            raise RuntimeError("fail inside the traced block")
    assert tracer.still_wrapped() == []


@pytest.mark.parametrize("trace", [0, 1])
def test_untraced_units_run_unwrapped(tmp_path, monkeypatch, trace):
    wl = WORKLOADS["denoise"]
    seen = []
    unit = type(wl).unit

    def spy(self, size, state):
        seen.append(bool(tracer.still_wrapped()))
        return unit(self, size, state)

    monkeypatch.setattr(type(wl), "unit", spy)
    run(tmp_path, "denoise", trace)
    # warm-up, one plain unit, and in the traced run one traced unit
    assert seen == [False, False, True][:2 + trace]


def test_a_raising_unit_counts_per_block(tmp_path, monkeypatch):
    wl = WORKLOADS["train_deq"]
    calls = []
    unit = type(wl).unit

    def every_other_diverges(self, size, state):
        calls.append(1)
        if len(calls) % 2 == 0:
            raise DivergenceError("adjoint solve diverged", iteration=3)
        return unit(self, size, state)

    monkeypatch.setattr(type(wl), "unit", every_other_diverges)
    result, record = run(tmp_path, "train_deq", 0, seconds=0.3)
    blocks = wl.items(TINY)
    assert result["correct"]
    assert result["failed"] > 0 and result["failed"] % blocks == 0
    assert result["attempted"] > result["failed"]
    assert record["errors"][0].startswith("DivergenceError")
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_skipped_blocks_count_as_failed(tmp_path, monkeypatch):
    backward = blocksc.deq.deq_backward
    calls = []

    def first_block_of_each_epoch_overflows(*args, **kwargs):
        calls.append(1)
        if len(calls) % WORKLOADS["train_deq"].items(TINY) == 1:
            raise FloatingPointError("overflow")
        return backward(*args, **kwargs)

    monkeypatch.setattr(blocksc.deq, "deq_backward",
                        first_block_of_each_epoch_overflows)
    result, _ = run(tmp_path, "train_deq", 0)
    assert result["correct"]
    assert result["failed"] == 1


def test_reference_check():
    wl = WORKLOADS["ksvd"]
    ref = {"ksvd": {"1": 0.5, "2": 1.0}}
    assert harness.reference_problems(ref, wl, 1, 0.5) == []
    assert harness.reference_problems(ref, wl, 1, 0.5001)
    assert "not recorded" in harness.reference_problems(ref, wl, 7, 1.0)[0]
    assert harness.reference_problems({}, wl, 1, 0.5)


def test_every_input_set_is_recorded():
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(
        encoding="utf-8"))
    sets = {str(s) for s in range(harness.INPUT_SETS)}
    assert {name: set(reference[name]) for name in WORKLOADS} \
        == dict.fromkeys(WORKLOADS, sets)


def test_a_wrong_output_fails_the_run(tmp_path, monkeypatch):
    wl = WORKLOADS["denoise"]
    unit = type(wl).unit
    calls = []

    def drifts(self, size, state):
        calls.append(1)
        out = unit(self, size, state)
        out.data[0, 0, 0] += 1e-3 * len(calls)
        return out

    monkeypatch.setattr(type(wl), "unit", drifts)
    result, record = run(tmp_path, "denoise", 0)
    assert not result["correct"]
    assert "differs from the warm-up" in record["problems"][0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "denoise",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
