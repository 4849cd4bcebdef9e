import pytest

from lcplearn.verify import (
    CheckResult,
    run_suites,
    suite_noise,
    suite_synth,
    suite_transpile,
)


def test_check_result_lines():
    assert CheckResult("thing", True, "info").line() == "PASS  thing  [info]"
    assert CheckResult("thing", False).line() == "FAIL  thing"


def test_synth_suite_all_green():
    rows = suite_synth()
    assert rows and all(r.passed for r in rows)


def test_transpile_suite_all_green():
    rows = suite_transpile()
    assert rows and all(r.passed for r in rows)
    budget = next(r for r in rows if "budget" in r.name)
    assert "delta" in budget.detail
    routing = next(r for r in rows if r.name.startswith("routed CX on every pair"))
    assert routing.detail == "62 ordered pairs, both expansion orders"


def test_noise_suite_all_green():
    rows = suite_noise()
    assert rows and all(r.passed for r in rows)
    assert any("exact density matrix" in r.name for r in rows)
    assert any(r.name == "quito asp 5x8192 (seed 0) within |z| <= 4.0 of exact_asp" for r in rows)
    assert any(r.name == "exact asp strictly decreasing in each error family" for r in rows)
    assert any(r.name == "shot streams equal numpy default_rng" for r in rows)
    gapped = next(r for r in rows if r.name == "gapped stream columns equal numpy default_rng")
    assert gapped.detail.startswith("5 column sets x 5 scattered shots")


def test_run_suites_respects_selection():
    rows = run_suites(("synth",))
    assert all("diagonal" in r.name or "oracle" in r.name for r in rows)



def test_run_suites_takes_max_n_literally():
    """max_n=0 is a size (no exhaustive rows), not a request for the default."""
    rows = run_suites(("classical", "quantum"), max_n=0)
    sized = [r.name for r in rows if r.name.startswith(("classical n=", "quantum n="))]
    assert not [name for name in sized if name.endswith("exhaustive")]
