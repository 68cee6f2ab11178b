"""Fast tests of the benchmark harness itself; they run no full workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import CORPUS, WORKLOADS, Workload, corpus_sweep  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = {"check_s", "reload_s", "states_per_s", "peak_rss_mb", "setup_s"}


def small_corpus(tmp_path, labels) -> Workload:
    checks = {c.label: c for c in corpus_sweep(0, tmp_path).checks}
    return Workload("small", tuple(checks[label] for label in labels))


def verdicts(workload: Workload, workdir: Path) -> list[str]:
    return [json.loads(harness.report_path(workdir, i).read_text())["verdict"]
            for i in range(len(workload.checks))]


def test_metric_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"]), m
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
    assert {m["name"] for m in SPEC["end_to_end"]} == END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_every_corpus_expectation_holds(tmp_path):
    workload = corpus_sweep(0, tmp_path)
    assert len(workload.checks) == 43
    assert harness.run_op(workload, tmp_path).problems == []
    assert harness.gate(workload, tmp_path) == []


@pytest.mark.parametrize("field, value", [
    ("states", 79), ("normal_forms", 3), ("verdict", "unsafe"), ("forkfor_max", 3),
])
def test_gate_trips_on_a_wrong_expectation(tmp_path, field, value):
    (good,) = small_corpus(tmp_path, ["forkfor_pointer:oracle"]).checks
    bad = Workload("bad", (dataclasses.replace(good, **{field: value}),))
    assert harness.run_op(bad, tmp_path).problems


def test_gate_trips_on_a_wrong_witness_length(tmp_path):
    (good,) = small_corpus(tmp_path, ["oracle_predicate:oracle"]).checks
    bad = Workload("bad", (dataclasses.replace(good, witness_steps=14),))
    assert harness.run_op(bad, tmp_path).problems
    assert harness.gate(bad, tmp_path)  # the tree route disagrees too


def test_gate_trips_on_a_witness_that_does_not_replay(tmp_path):
    workload = small_corpus(tmp_path, ["close_twice:cursor"])
    assert harness.run_op(workload, tmp_path).problems == []
    report = harness.report_path(tmp_path, 0)
    obj = json.loads(report.read_text())
    obj["witness"]["steps"].pop(1)
    report.write_text(json.dumps(obj))
    assert harness.gate(workload, tmp_path)


def test_traced_and_untraced_ops_agree(tmp_path):
    workload = small_corpus(
        tmp_path, ["fork_race:cursor", "oracle_predicate:oracle", "safe_read:safe"],
    )
    assert harness.run_op(workload, tmp_path).problems == []
    untraced = verdicts(workload, tmp_path)
    results, layers = harness.measure_traced(workload, tmp_path, 0.0, Tracer())
    assert [r.problems for r in results] == [[]] * 4  # two untraced, two traced
    assert verdicts(workload, tmp_path) == untraced == ["safe", "unsafe", "safe"]
    assert set(layers) == set(PER_LAYER)
    assert layers["syntax.parse_program.calls"] == 3
    # explore keys its start state and every successor it generates.
    assert layers["machine.canonical_key.calls"] == layers["semantics.step.successors"] + 3


def test_seed_renames_and_permutes_but_keeps_expectations(tmp_path):
    def expectations(workload):
        return sorted((c.label, c.verdict, c.states, c.normal_forms, c.witness_steps,
                       c.exit_code) for c in workload.checks)

    for name, make in WORKLOADS.items():
        (tmp_path / "a").mkdir(exist_ok=True)
        (tmp_path / "b").mkdir(exist_ok=True)
        first, second = make(1, tmp_path / "a"), make(2, tmp_path / "b")
        assert expectations(first) == expectations(second), name
        assert first == make(1, tmp_path / "a"), name
        if name == "corpus_sweep":
            assert [c.label for c in first.checks] != [c.label for c in second.checks]
        else:
            texts = [w.checks[0].program.read_text() for w in (first, second)]
            assert texts[0] != texts[1] and len(texts[0]) == len(texts[1]), name


def test_renamed_fork_program_keeps_the_corpus_answers(tmp_path):
    (check,) = WORKLOADS["fork_fanout"](7, tmp_path).checks
    small = dataclasses.replace(check, forkfor_max=2, states=33, normal_forms=3)
    assert harness.run_op(Workload("small", (small,)), tmp_path).problems == []


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert CORPUS.exists()  # the real checkout is untouched
