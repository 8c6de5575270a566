"""Tests for the benchmark's own code; run with `python3 -m pytest perfbench`."""

import json
import os
import shutil
import signal
import subprocess
import sys
from array import array

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import polys  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _passes(workload, seed, count):
    gen = workloads.generate(workload, seed)
    return [next(gen) for _ in range(count)]


def test_generator_is_deterministic():
    for wl in workloads.WORKLOADS:
        assert _passes(wl, 7, 2) == _passes(wl, 7, 2)
    assert _passes("coordinate_changes", 7, 1) != _passes("coordinate_changes", 8, 1)
    assert _passes("fixture_table", 7, 1) != _passes("fixture_table", 8, 1)
    assert len(_passes("fixture_table", 7, 1)[0]) == 74


def test_moved_fixtures_keep_their_shape():
    for op_key in _passes("coordinate_changes", 3, 1)[0]:
        _kind, text, p, _mld = op_key
        f = polys.parse(text, p)
        assert f and all(c % p for c in f.values())
        assert polys.parse(polys.to_text(f), p) == f


def _roots_mod(coeffs, p):
    """Number of roots in F_p of sum coeffs[i] t^i, by exhaustion."""
    return sum(1 for t in range(p) if sum(c * pow(t, i, p) for i, c in enumerate(coeffs)) % p == 0)


def test_residue_test_matches_root_counts():
    for p in range(11, 300):
        if not workloads.is_prime(p):
            continue
        inv = lambda a: pow(a, -1, p)  # noqa: E731
        assert workloads.needs_extension(0, p) == (_roots_mod([-inv(45), 0, 0, 0, 1], p) == 0)
        assert workloads.needs_extension(1, p) == (_roots_mod([3, 0, 1], p) == 0)
        assert workloads.needs_extension(2, p) == (_roots_mod([1, 0, -inv(4), 0, 1], p) < 4)


def test_every_stress_pair_needs_an_extension_for_two_seeds():
    for seed in (1, 2):
        batch = next(workloads.generate("large_char_extensions", seed))
        assert batch
        for op in batch:
            shape = workloads.STRESS_SHAPES.index(op.text)
            assert 100 <= op.p < 1000 and workloads.needs_extension(shape, op.p)


def test_self_times_on_hand_built_tree():
    # op [0, 10] > a [1, 4] > b [2, 3];  op > c [5, 9]
    names = ["op", "a", "b", "c"]
    name_id = array("H", [0, 1, 2, 3])
    start = array("d", [0.0, 1.0, 2.0, 5.0])
    end = array("d", [10.0, 4.0, 3.0, 9.0])
    parent = array("i", [-1, 0, 1, 0])
    calls, selfs = tracing.self_times(names, name_id, start, end, parent)
    assert dict(calls) == {"op": 1, "a": 1, "b": 1, "c": 1}
    assert dict(selfs) == {"op": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert sum(selfs.values()) == 10.0


def test_calibration_scales_by_nearby_samples():
    cal = speed.Calibrator()
    n = speed.MIN_SAMPLES
    # kernel samples at t = 0, 1, ... s; the machine is twice as slow from t = 2n
    cal.at = [float(t) for t in range(4 * n)]
    cal.took = [speed.REFERENCE_S] * (2 * n) + [2 * speed.REFERENCE_S] * (2 * n)
    # a long operation uses the samples inside it
    assert cal.kernel_time(2 * n, 3 * n) == pytest.approx(2 * speed.REFERENCE_S)
    # a short one borrows the MIN_SAMPLES nearest, here t = 0 .. n - 1
    assert cal.kernel_time(1.9, 2.1) == pytest.approx(speed.REFERENCE_S)
    # and t = 3n .. 4n - 1 at the end of the run
    assert cal.kernel_time(4 * n + 0.5, 4 * n + 0.6) == pytest.approx(2 * speed.REFERENCE_S)
    # n s of wall time, half of it in samples, at half the reference speed
    assert cal.normalise(2 * n, 3 * n, n / 2) == pytest.approx(n / 4)
    # half the time fast, half at half speed: 3/4 of the reference speed,
    # so the kernel time is 4/3 of the reference, not a median of either
    assert cal.kernel_time(n, 3 * n - 1) == pytest.approx(4 / 3 * speed.REFERENCE_S)


def test_calibrated_run_reports_every_operation():
    with speed.Calibrator() as cal:
        latencies, failures, passes = worker.run("fixture_table", 2, ops=74, calibrate=cal)
    assert len(latencies) == 74 and not failures and passes[0][0] == 74
    assert all(lat > 0 for lat in latencies) and cal.took
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _slchyp_namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "slchyp" or name.startswith("slchyp."))}


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    import slchyp.classifier
    import slchyp.fields
    import slchyp.normalize.auto
    import slchyp.normalize.cubiccone

    mul = slchyp.fields.FieldElement.__dict__["__mul__"]
    find_roots = slchyp.normalize.auto.find_roots
    stage_w2 = slchyp.classifier.stage_w2
    groebner = slchyp.normalize.cubiccone.groebner_basis
    before = _slchyp_namespaces()
    classes = {(m, a): tracing._resolve(m, a)[2]
               for m, a, *_ in tracing.SPANS + tracing.COUNTERS if "." in a}

    trace = tracing.Tracer()
    trace.install()
    try:
        assert slchyp.fields.FieldElement.__dict__["__mul__"] is not mul
        assert slchyp.normalize.auto.find_roots is not find_roots
        assert slchyp.classifier.stage_w2 is not stage_w2
        assert slchyp.normalize.cubiccone.groebner_basis is not groebner
    finally:
        trace.uninstall()

    trace = tracing.Tracer()
    latencies, failures, passes = worker.run("fixture_table", 1, ops=74, trace=trace)
    assert len(passes) == 1 and passes[0][0] == 74
    assert len(latencies) == 74 and not failures
    assert trace.counts["fields.mul_prime"] > 0 and "normalize.w2" in trace.names
    trace.dump(tmp_path / "spans.bin")
    names, arrays = tracing.load_spans(tmp_path / "spans.bin")
    assert names == trace.names and list(arrays["end"]) == list(trace.end)

    assert slchyp.fields.FieldElement.__dict__["__mul__"] is mul
    assert slchyp.normalize.auto.find_roots is find_roots
    assert slchyp.classifier.stage_w2 is stage_w2
    assert slchyp.normalize.cubiccone.groebner_basis is groebner
    assert _slchyp_namespaces() == before
    for (module, attr), original in classes.items():
        assert tracing._resolve(module, attr)[2] is original


def _copy_checkout(dest, with_sources=True):
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_wrong_expected_verdict_fails_the_command(tmp_path):
    _copy_checkout(tmp_path)
    path = tmp_path / "perfbench" / "workloads.py"
    text = path.read_text()
    right = '("x^2+y^2*z^2", 5, 0, (2, 1, 1), True),'
    assert right in text
    path.write_text(text.replace(right, '("x^2+y^2*z^2", 5, 1, (2, 1, 1), True),'))
    proc = _bench(tmp_path, "--workload", "fixture_table", "--seed", "1",
                  "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_command_refuses_to_run_without_sources(tmp_path):
    _copy_checkout(tmp_path, with_sources=False)
    proc = _bench(tmp_path, "--workload", "fixture_table", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""
