"""Tests for the self-check registry."""

import numpy as np
import pytest

from waveprop import verify


def test_registry_lists_twenty_named_checks():
    checks = verify.list_checks()
    assert len(checks) == 20
    names = [name for name, _ in checks]
    assert len(set(names)) == 20
    for name, description in checks:
        assert name == name.lower()
        assert description


def test_run_checks_subset_structure():
    report = verify.run_checks(names=["scalar-ascent", "rule-symmetry"], seed=0)
    assert report["passed"] is True
    assert report["failures"] == []
    # results come back in registry order regardless of request order
    assert [c["name"] for c in report["checks"]] == ["rule-symmetry", "scalar-ascent"]
    for check in report["checks"]:
        assert check["passed"] is True
        assert set(check["gaps"]) == set(check["tolerances"])
        for key, gap in check["gaps"].items():
            assert gap <= check["tolerances"][key]


def test_run_checks_unknown_name():
    with pytest.raises(KeyError):
        verify.run_checks(names=["nonsense"])


def test_check_results_expose_formula_slug():
    report = verify.run_checks(names=["scalar-ascent"], seed=0)
    assert report["checks"][0]["formula"]


@pytest.mark.parametrize("level, passed", [(1, False), (2, True)])
def test_moment_gate_rejects_a_rule_below_the_probe_degree(monkeypatch, level, passed):
    # the probes reach w^(2b) with |b| = 3.  A level-L rule has L//2+1 Gauss
    # nodes per stick and is exact to u-degree 2(L//2)+1, so level 2 is exact
    # on them and level 1 is not
    build = verify.quadrature.build_ball_rule
    monkeypatch.setattr(verify.quadrature, "build_ball_rule",
                        lambda d, _level, **kw: build(d, level, **kw))
    report = verify.run_checks(["moments"])
    assert report["passed"] is passed
    assert (report["checks"][0]["gaps"]["closed_form_rel_d4"] <= 1e-8) is passed


def test_moment_check_batches_every_probe(monkeypatch):
    quadrature = verify.quadrature
    ranks, kernel_calls = [], []
    stable_sum, kernel = quadrature.stable_sum, quadrature._monomial_moments

    def counted_sum(values):
        ranks.append(np.ndim(values))
        return stable_sum(values)

    def counted_kernel(nodes, weights, exponents):
        kernel_calls.append(len(weights))
        return kernel(nodes, weights, exponents)

    monkeypatch.setattr(quadrature, "stable_sum", counted_sum)
    monkeypatch.setattr(quadrature, "_monomial_moments", counted_kernel)
    assert verify._check_moments(0)["passed"]
    # one check call for each of the d=2 and d=4 rules (their self-tests read
    # stick moments); stable_sum only takes the rules' 2-D first moments, never one probe
    assert len(kernel_calls) == 2
    assert ranks and 1 not in ranks
