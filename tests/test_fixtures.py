import dataclasses

import pytest

from prefmax import Cone, GroundSet, UnknownFixture, fixture_names, get_fixture, pt
from prefmax import fixtures
from prefmax.fixtures import self_test_fixture


def test_registry_names_are_stable():
    assert fixture_names() == sorted(fixture_names())
    assert "vee-peak" in fixture_names()
    assert "segment-line" in fixture_names()


def test_unknown_fixture_lists_available():
    with pytest.raises(UnknownFixture) as err:
        get_fixture("nosuch")
    message = str(err.value)
    assert "nosuch" in message
    for name in fixture_names():
        assert name in message


def test_self_test_every_fixture():
    for name in fixture_names():
        self_test_fixture(get_fixture(name))


def test_a_failing_self_test_names_its_probe_in_plain_floats():
    # the zero cone misses (-2,), the first lattice probe, which every
    # left-hand base's sampled normal cone holds
    wrong = dataclasses.replace(get_fixture("vee-peak"), cone_oracle=lambda p: Cone.zero(1))
    with pytest.raises(AssertionError, match=r"probe \(-2\.0,\)$"):
        self_test_fixture(wrong)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the box sample of 0.702 is empty: the sampler's fine points 0.697 "
                          "and 0.707 straddle its strictly-better interval (0.698, 0.702)")
def test_vee_peaks_self_test_holds_at_base_0_702(vee):
    # a base of vee-peak's 0:1:0.013 grid that the evenly spaced bases
    # miss; samples refined where the decider lists (ROADMAP S) flip this
    self_test_fixture(vee, ground=GroundSet.explicit([pt(0.702)]))


def test_favored_one_cones(favored):
    assert favored.cone_oracle(pt(0.5)).tag == "full"
    assert favored.cone_oracle(pt(1.0)).tag == "zero"


def test_kinked_cones(kinked):
    assert kinked.cone_oracle(pt(0.0)).tag == "full"
    cone = kinked.cone_oracle(pt(0.3))
    assert cone.tag == "generated"
    assert cone.generators == (pt(-1.0),)


def test_line_fixture_cones(halfline):
    assert halfline.cone_oracle(pt(0.5, 0.25)).tag == "full"
    on_line = halfline.cone_oracle(pt(0.5, 0.0))
    assert on_line.contains((-2.0, 5.0))
    assert on_line.contains((0.0, -3.0))
    assert not on_line.contains((0.5, 0.5))


def test_descent_capability_requires_gap(favored):
    with pytest.raises(ValueError):
        favored.descent_oracle()


def test_descent_oracle_norm_bound(vee, radial):
    for fx, points in ((vee, [pt(0.1), pt(0.9)]), (radial, [pt(0.0, 0.0), pt(2.0, 3.0)])):
        oracle = fx.descent_oracle()
        for x in points:
            out = oracle(x)
            assert sum(c * c for c in out) <= fx.gap.lipschitz ** 2 * (1 + 1e-12)


def test_me_ground_extension_only_for_unbounded(kinked, vee):
    assert len(kinked.me_ground()) > len(kinked.default_ground)
    assert vee.me_ground() is vee.default_ground


@pytest.mark.parametrize("name", fixture_names())
def test_me_ground_extends_the_given_window(name):
    fx = get_fixture(name)
    assert fx.me_ground() == fx.me_ground(fx.default_ground)
    # a window other than the default, at twice the step
    window = GroundSet.grid([(lo, hi, 2 * step) for lo, hi, step in fx.default_ground.axes])
    got = fx.me_ground(window)
    assert got == (window.extended(fx.me_margin) if fx.me_margin > 0 else window)
    assert set(window) <= set(got)


def test_get_fixture_does_not_run_the_self_test(monkeypatch):
    calls = []
    monkeypatch.setattr(fixtures, "_REGISTRY", None)
    monkeypatch.setattr(fixtures, "_SELF_TEST_DONE", False)
    monkeypatch.setattr(fixtures, "self_test_fixture", lambda fx: calls.append(fx.name))
    get_fixture("vee-peak")
    fixture_names()
    assert calls == []
    fixtures.registry()
    assert calls == list(fixtures.registry(self_test=False))


def test_contour_sampler_sees_beyond_the_window(kinked):
    # the window's top edge is dominated only by off-window points
    sample = kinked.contour_sampler(pt(1.0))
    assert not sample.is_empty
    assert all(y[0] > 1.0 for y in sample.points)
