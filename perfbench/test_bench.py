"""Tests of the benchmark itself: inputs, output check, tracing arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for p in (str(ROOT / "src"), str(BENCH_DIR)):
    if p not in sys.path:
        sys.path.insert(0, p)

import bench_check  # noqa: E402
import bench_inputs  # noqa: E402
import bench_trace  # noqa: E402
from run import Loop, SpeedMonitor, tail_percentile  # noqa: E402

CORPUS = ROOT / "corpus"


# Every minor of the generated integer rows is far below 2^61 - 1 (Hadamard's
# bound), so ranks modulo this prime are ranks over Q.
BIG_PRIME = 2**61 - 1


def _rank(rows, p: int = BIG_PRIME) -> int:
    work = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], -1, p)
        for i in range(rank + 1, len(work)):
            if work[i][col]:
                f = work[i][col] * inv
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def _whitney(case, p: int = BIG_PRIME) -> list[int]:
    """chi(t) = sum over subsets S of (-1)^|S| t^(nvars - rank S)."""
    coeffs = [0] * (case.nvars + 1)
    rows = case.rows
    for k in range(len(rows) + 1):
        for subset in combinations(rows, k):
            coeffs[case.nvars - _rank(subset, p)] += (-1) ** k
    return coeffs


def _num_flats(case) -> int:
    """Distinct closures {i : row i in span(S)}; |S| <= nvars suffices."""
    rows = case.rows
    flats = set()
    for k in range(case.nvars + 1):
        for subset in combinations(range(len(rows)), k):
            r = _rank([rows[i] for i in subset])
            flats.add(frozenset(
                i for i in range(len(rows)) if _rank([rows[j] for j in subset] + [rows[i]]) == r
            ))
    return len(flats)


def _all_cases(seed: int):
    for workload in bench_inputs.WORKLOADS:
        for rep in range(2):
            for job in bench_inputs.jobs(workload, seed, CORPUS, rep):
                yield workload, job


def test_generator_is_deterministic_per_seed():
    for workload in bench_inputs.WORKLOADS:
        a = bench_inputs.jobs(workload, 7, CORPUS, 1)
        b = bench_inputs.jobs(workload, 7, CORPUS, 1)
        assert a == b
        other = bench_inputs.jobs(workload, 8, CORPUS, 1)
        assert [j.case.name for j in a] == [j.case.name for j in other]
        assert any(x.case.rows != y.case.rows for x, y in zip(a, other))


def test_closed_form_invariants_hold_independently_of_arrcsm():
    seen = set()
    for workload, job in _all_cases(3):
        case = job.case
        if case.rows in seen or len(case.rows) > 10:
            continue
        seen.add(case.rows)
        assert _whitney(case) == list(case.charpoly), case.name
        assert _num_flats(case) == case.num_flats, case.name
        for p in job.primes:
            # same matroid mod p, so the point count equals chi-bar(p)
            assert _whitney(case, p) == list(case.charpoly), (case.name, p)
            assert all(max(abs(c) for c in row) < p for row in case.rows)


@pytest.mark.parametrize("workload", bench_inputs.WORKLOADS)
def test_every_generated_input_passes_the_check(workload, tmp_path):
    from arrcsm import cli

    for job in bench_inputs.jobs(workload, 1, CORPUS):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(job.argv(job.case.write(tmp_path)))
        assert bench_check.check_output(job, code, out.getvalue()) == [], job.label


def test_check_rejects_wrong_outputs(tmp_path):
    from arrcsm import cli

    job = bench_inputs.jobs("report", 1, CORPUS)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(job.argv(job.case.write(tmp_path)))
    good = json.loads(out.getvalue())
    assert bench_check.check_output(job, code, out.getvalue()) == []
    assert bench_check.check_output(job, 1, out.getvalue())
    assert bench_check.check_output(job, 0, out.getvalue()[:-20])
    for path in (("charpoly", "ascending_coeffs"), ("freeness", "exponents"),
                 ("csm", "vector"), ("lattice", "flats")):
        bad = json.loads(out.getvalue())
        value = bad["result"][path[0]][path[1]]
        bad["result"][path[0]][path[1]] = value[:-1] if value else [1]
        assert bench_check.check_output(job, 0, json.dumps(bad)), path
    bad = json.loads(out.getvalue())
    bad["result"]["oracle"]["checks"][0]["count"] += 1
    assert bench_check.check_output(job, 0, json.dumps(bad))
    assert good["result"]["oracle"]["all_match"] is True


def test_expected_csm_matches_known_classes():
    cases = {c: bench_inputs.corpus_case(CORPUS / f"{c}.arr") for c in bench_inputs.CORPUS}
    assert bench_check.expected_csm(cases["three_concurrent"]) == [1, 0, -1]
    assert bench_check.expected_csm(cases["boolean_triangle"]) == [1, 0, 0]
    assert bench_check.expected_csm(cases["tetrahedron_p3"]) == [1, 0, 0, 0]


def test_self_time_arithmetic_on_a_synthetic_tree():
    S = bench_trace.Span
    spans = [
        S("root", 0.0, 10.0, -1),
        S("a", 1.0, 4.0, 0),
        S("b", 5.0, 9.0, 0),
        S("c", 6.0, 7.0, 2),
        S("b", 7.5, 8.0, 2),  # b nested in b
    ]
    assert bench_trace.self_times(spans) == [3.0, 3.0, 2.5, 1.0, 0.5]
    assert sum(bench_trace.self_times(spans)) == 10.0
    assert bench_trace.inclusive_time(spans, {"b"}) == 4.0
    assert bench_trace.inclusive_time(spans, {"a", "c"}) == 4.0
    assert bench_trace.covered([(0, 2), (1, 3), (5, 6)]) == 4


def test_tracer_wraps_and_restores(tmp_path):
    import arrcsm
    from arrcsm import cli, lattice, linalg

    originals = (cli.build_lattice, lattice.build_lattice, arrcsm.build_lattice,
                 linalg.QMatrix.kernel_basis)
    job = bench_inputs.jobs("search", 1, CORPUS)[0]
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        assert cli.build_lattice is lattice.build_lattice is arrcsm.build_lattice
        assert cli.build_lattice is not originals[0]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(job.argv(job.case.write(tmp_path)))
        spans, counters = tracer.take()
    finally:
        tracer.uninstall()
    assert (cli.build_lattice, lattice.build_lattice, arrcsm.build_lattice,
            linalg.QMatrix.kernel_basis) == originals
    roots = [sp for sp in spans if sp.parent < 0]
    assert [sp.name for sp in roots] == ["cli.run"]
    assert sum(bench_trace.self_times(spans)) == pytest.approx(roots[0].end - roots[0].start)
    totals = bench_trace.LayerTotals()
    totals.add_job(spans, counters, roots[0].end - roots[0].start + 1e-4)
    per_job = totals.per_job()
    assert per_job["lattice.build_calls"][0] == 2
    assert per_job["logder.search_calls"][0] == 1
    assert per_job["lattice.flats"][0] == 2 * job.case.num_flats
    assert 0 < per_job["linalg.span_useful_ratio"][0] <= 1
    assert per_job["trace.uncovered_ms"][0] == pytest.approx(0.1)
    names = {name for name, *_ in bench_trace.LAYER_METRICS}
    assert names | {"linalg.span_useful_ratio", "trace.uncovered_ms"} == set(per_job)


def test_failed_jobs_are_counted_and_the_run_goes_on(tmp_path):
    class FailingCli:
        outcomes = [RuntimeError("crash"), SystemExit(2), 1]

        def run(self, argv):
            outcome = self.outcomes.pop(0)
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome

    job = bench_inputs.jobs("report", 1, CORPUS)[0]
    loop = Loop(FailingCli(), [[(job, tmp_path / "x.arr")] * 3], bench_check.check_output,
                SpeedMonitor(sample=False))
    assert loop.run() == 1
    assert len(loop.latencies) == 3
    assert len(loop.failures) == 3


def test_benchmark_json_lists_what_the_runs_report():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(bench_inputs.WORKLOADS)
    per_layer = {name for name, *_ in bench_trace.LAYER_METRICS}
    per_layer |= {"linalg.span_useful_ratio", "trace.uncovered_ms", "trace.untraced_jobs_per_s",
                  "trace.traced_jobs_per_s", "trace.slowdown_ratio"}
    assert {m["name"] for m in doc["per_layer"]} == per_layer
    assert [m["name"] for m in doc["end_to_end"]] == [
        "jobs_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb"]


def test_tail_percentile_rule():
    assert tail_percentile(list(range(1, 41))) == (75.0, 30)
    assert tail_percentile(list(range(100, 0, -1))) == (90.0, 90)
    pct, value = tail_percentile(list(range(11)))
    assert value == 0 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        tail_percentile(list(range(10)))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
