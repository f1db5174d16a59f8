"""Tests of the benchmark itself: every workload runs and reports every
metric by name with its unit, and the comparators fail forged answers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from bigstop import BigStopResult, Derivation, parse_expr  # noqa: E402

TINY = {  # module constants that make each workload's inputs small
    "enum-sweep": {"ENUM_SIZE": 4},
    "imp-sweep": {"STMT_SIZE": 3},
    "gen-pool": {"GEN_SIZE": 12},
    "long-run": {"LADDER": (("omega", (10, 20)), ("countdown", (2, 4)),
                            ("alloc", (10, 20)), ("omega-json", (6, 12)))},
}


def _run(monkeypatch, capsys, tmp_path, name, trace):
    for attr, value in TINY[name].items():
        monkeypatch.setattr(workloads, attr, value)
    monkeypatch.setattr(run, "cap_memory", lambda: None)  # keep pytest uncapped
    monkeypatch.setattr(run, "SETUP_SAMPLES_MAX", 1)  # children would not see TINY
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.001",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(monkeypatch, capsys, tmp_path, name):
    detail, result = _run(monkeypatch, capsys, tmp_path, name, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_VERDICTS - 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["provenance"]["src_lines"] > 0
    assert detail["provenance"]["recursionlimit_after_import"] >= 1000


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_traced_run_prints_every_per_layer_metric(monkeypatch, capsys, tmp_path, name):
    detail, result = _run(monkeypatch, capsys, tmp_path, name, 1)
    assert result["correct"] is True
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == dict(run.per_layer_metrics(workloads.TRACED))
    assert result["metrics"]["trace_overhead"]["value"] > 0
    assert (tmp_path / f"{name}.spans.tsv.gz").is_file()
    if name == "long-run":
        m = result["metrics"]
        assert m["bigstop.check_derivation.exponent"]["value"] != 0
        assert m["bigstop.json.bytes"]["value"] > 0
        assert m["kmachine.transitions_per_contraction"]["value"] >= 3


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics(
        workloads.TRACED
    )


### forged answers


API = workloads.make_api()
E = parse_expr("(fun f(x) => eff[a] s(x)) z")


def _honest(budget=3):
    m = API.multi_step(E, budget)
    return m, API.bigstop_eval(E, budget)


def test_honest_answer_passes():
    m, s = _honest()
    assert workloads.judge_stop(API, "bigstop_eval", E, m.final, m.trace, s) == []


def test_forged_trace_fails():
    m, s = _honest()
    forged = dataclasses.replace(s, trace=s.trace + ("a",))
    assert workloads.judge_stop(API, "bigstop_eval", E, m.final, m.trace, forged)


def test_forged_term_fails():
    m, s = _honest()
    forged = dataclasses.replace(s, stopped=parse_expr("s(s(z))"))
    assert workloads.judge_stop(API, "bigstop_eval", E, m.final, m.trace, forged)


def test_derivation_the_checker_rejects_fails():
    # the answer and the conclusion are right; only the checker can tell
    m, s = _honest()
    d = s.derivation
    forged = BigStopResult(s.stopped, s.trace, Derivation("StE-Bogus", d.lhs, d.rhs,
                                                          d.trace, d.premises))
    bad = workloads.judge_stop(API, "bigstop_eval", E, m.final, m.trace, forged)
    assert bad and "rejected" in bad[0]


def test_forged_machine_trace_fails():
    m, _ = _honest()
    r = API.k_run(workloads.k_compile(E), 100)
    forged = dataclasses.replace(r, trace=("b",))
    assert workloads.judge_machine(r, r.status, m.final, m.trace, r.state.expr) == []
    assert workloads.judge_machine(forged, r.status, m.final, m.trace, r.state.expr)


def test_a_missed_pinned_answer_fails_the_verdict():
    p = workloads._pinned(API, "countdown", 5)
    assert workloads.long_verdict(API, p) == []
    assert workloads.long_verdict(API, dataclasses.replace(p, trace=("t",) * 4))
    assert workloads.long_verdict(API, dataclasses.replace(p, final=parse_expr("s(z)")))


def test_the_machine_may_stop_anywhere_on_the_loop():
    # however k_run counts its budget, a machine that ran out of it on the
    # loop, with one label per turn, is right
    for program in ("omega", "alloc"):
        p = workloads._pinned(API, program, 10)
        for fuel in (p.machine_fuel, p.machine_fuel + 1, 3 * p.machine_fuel):
            assert workloads.long_verdict(API, dataclasses.replace(p, machine_fuel=fuel)) == []


def test_a_machine_off_the_loop_fails():
    p = workloads._pinned(API, "omega", 10)
    r = API.k_run(workloads.k_compile(p.term), p.machine_fuel)
    assert workloads.judge_looping_machine(API, p, r) == []
    for forged in (dataclasses.replace(r, trace=r.trace + ("u",)),
                   dataclasses.replace(r, trace=()),
                   dataclasses.replace(r, state=workloads.k_compile(parse_expr("s(z)")))):
        assert workloads.judge_looping_machine(API, p, forged)


def test_long_run_never_judges_a_budget_twice():
    items = workloads.long_setup(API, 5, 3 * 14)
    assert len({(p.program, p.budget) for p in items}) == len(items) == 3 * 14
    assert len({workloads.long_group(p) for p in items}) == 14


def test_a_child_sets_up_and_retimes_what_it_is_sent():
    rung = workloads._pinned(API, "omega", 10)
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "long-run", "--seed", "1",
         "--seconds", "0.001", "--child"],
        input=pickle.dumps(([rung], [rung, rung])), capture_output=True, timeout=120,
        check=True,
    )
    out = json.loads(done.stdout.decode().splitlines()[-1])
    assert out["setup_s"] > 0 and len(out["retimed"]) == 2
    assert all(t > 0 for t in out["retimed"])


def test_a_verdict_that_raises_counts_as_failed():
    def verdict(api, item):
        raise MemoryError("forged")

    w = workloads.Workload("raises", 1.0, None, verdict)
    raw, _, failures, _ = run.run_verdicts(w, API, [1, 2, 3])
    assert len(raw) == 3 and [i for i, _ in failures] == [0, 1, 2]
    assert "MemoryError" in failures[0][1][0]


def test_tail_is_the_highest_percentile_with_ten_verdicts_beyond():
    assert run.tail_rank(28) == (14, 50.0)
    assert run.tail_rank(1900) == (1881, 99.0)
    assert run.tail_rank(160_000) == (159_984, 99.99)
