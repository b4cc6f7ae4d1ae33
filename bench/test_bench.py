"""Tests of the benchmark itself: a smoke run of every workload and mode, the
tracer's self-time arithmetic and binding coverage, the host-speed scaling,
and a planted failure."""
import json
import signal
import sys
import time
import types

import pytest
import scipy.sparse as sp

import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_one_case(workload, trace, capsys):
    # --seconds 0 runs exactly one timed case (two calls of it when traced).
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)])
    result = _last_json(capsys)
    assert code == 0 and result["correct"]
    assert result["attempted"] == 1 + trace and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in spec)
    if trace:
        # The top-level wrapped call accounts for the traced case time.
        assert result["metrics"]["trace.coverage_frac"]["value"] == pytest.approx(1, abs=0.01)
    else:
        assert result["metrics"]["cases_passed_frac"]["value"] == 1.0


def test_same_seed_same_inputs():
    w = workloads.WORKLOADS["graph-suite"]
    assert w.plan(5, 8) == w.plan(5, 8)
    assert w.plan(5, 8) != w.plan(6, 8)
    assert min(w.plan(5, 8)) >= workloads.SEED_FLOOR


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.mod defines inner/outer/fact; fakepkg.other re-binds inner."""
    clock = _Clock()
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    other = types.ModuleType("fakepkg.other")

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        mod.inner()
        other.inner()  # the same function through a from-import binding
        clock.now += 3.0

    def fact(k):
        clock.now += 1.0
        return 1 if k <= 1 else k * mod.fact(k - 1)

    mod.inner, mod.outer, mod.fact = inner, outer, fact
    other.inner = inner
    for name, m in (("fakepkg", pkg), ("fakepkg.mod", mod), ("fakepkg.other", other)):
        monkeypatch.setitem(sys.modules, name, m)
    return clock, mod, other


def test_self_time_is_inclusive_minus_children(fake_package):
    clock, mod, other = fake_package
    original = mod.inner
    tr = tracer.Tracer("fakepkg", ("mod.outer", "mod.inner", "mod.fact"), (), clock)
    with tr:
        assert other.inner is not original
        mod.outer()
        mod.fact(3)
    assert mod.inner is original and other.inner is original
    outer, inner, fact = (tr.stats[f"mod.{n}"] for n in ("outer", "inner", "fact"))
    assert (inner.calls, inner.incl_s, inner.self_s) == (2, 4.0, 4.0)
    assert (outer.calls, outer.incl_s) == (1, 8.0)
    assert outer.self_s == outer.incl_s - inner.incl_s == 4.0
    # Recursion: inclusive time counts the outermost call only.
    assert (fact.calls, fact.incl_s, fact.self_s) == (3, 3.0, 3.0)
    assert tr.top_s == 11.0


def test_tracer_patches_every_binding_and_restores(capsys):
    import skewprod
    from skewprod import duality, graphalg

    original = graphalg.ck_representation
    tr = tracer.Tracer()
    with tr:
        assert duality.ck_representation is not original
        assert skewprod.ck_representation is duality.ck_representation
        sp.csr_matrix((2, 2))
    assert duality.ck_representation is original
    assert skewprod.ck_representation is original
    assert "__init__" not in vars(sp.csr_matrix)
    assert tr.csr_new == 1


def test_planted_failure_is_counted(monkeypatch, capsys):
    from skewprod import duality

    certify = duality.certify_eqvt_iso

    def planted(*args, **kwargs):
        cert = certify(*args, **kwargs)
        cert.equivariance_error = 0.5 * cert.tolerance  # passes, but not exactly
        return cert

    monkeypatch.setattr(duality, "certify_eqvt_iso", planted)
    code = run.main(["--workload", "eqvt-single", "--seed", "7", "--seconds", "0"])
    result = _last_json(capsys)
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert result["metrics"]["cases_passed_frac"]["value"] == 0.0


def test_host_speed_takes_out_samples_and_scales(monkeypatch):
    speed = run.HostSpeed()
    # A host at half the reference speed; the fake kernel takes no time.
    monkeypatch.setattr(speed, "_kernel", lambda: 2 * run.REF_KERNEL_S)
    outer = run.Stopwatch()
    with outer, speed:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    n = len(speed._samples)
    assert n >= 5 and speed.factors == [0.5]
    assert speed.wall == pytest.approx((outer.wall - n * 2 * run.REF_KERNEL_S) / 2, rel=0.02)


def test_bin_weighted_median():
    assert run.weighted_quantile([3.0, 1.0, 2.0], [1, 1, 1], 50) == pytest.approx(2.0)
    # Ten cases over four bins: bins 0 and 1 ran three times, so they weigh less.
    assert run.bin_weights(10, 4) == [1 / 3, 1 / 3, 1 / 2, 1 / 2] * 2 + [1 / 3, 1 / 3]
    # Bins 0, 1, 2 take 1, 2, 3 s; four cases ran bin 0 twice.  The equal mix
    # has median 2 s, where the plain median of the four cases is 1.5 s.
    walls = [1.0, 2.0, 3.0, 1.0]
    assert run.weighted_quantile(walls, run.bin_weights(4, 3), 50) == pytest.approx(2.0)
