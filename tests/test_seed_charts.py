"""The catalog's ruled charts are seeds of one ``SeedRuledChart``.

The reference charts below keep the jets that were written by hand for each
surface before it became a seed, in the (s, a) coordinates of the seed chart.
"""

import inspect
import math

import numpy as np
import pytest

from h1geom import verify
from h1geom.surfaces import (CatenoidChart, CatenoidRulingChart, Chart, HelicoidChart,
                             ParaboloidChart, RuledChart, SeedRuledChart, VerticalPlaneChart,
                             surface_frame, surface_frames)

N_POINTS = 1000


class _HandWritten(Chart):
    def __init__(self, parts):
        self._parts = parts

    def _jet_parts(self, u1, u2, m):
        return self._parts(u1, u2, m)


def _vertical_plane(s, a, m):
    zero = (0.0, 0.0, 0.0)
    return (0.0, s, a), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), zero, zero, zero


def _paraboloid(s, a, m):
    zero = (0.0, 0.0, 0.0)
    return (s, a, s * a), (1.0, 0.0, a), (0.0, 1.0, s), zero, (0.0, 0.0, 1.0), zero


def _helicoid(R):
    def parts(s, eps, m):
        si, co = m.sin(R * eps), m.cos(R * eps)
        return ((s * si, s * co, eps / R),
                (si, co, 0.0),
                (R * s * co, -R * s * si, 1.0 / R),
                (0.0, 0.0, 0.0),
                (R * co, -R * si, 0.0),
                (-R * R * s * si, -R * R * s * co, 0.0))
    return parts


def _catenoid_ruling(lam):
    def parts(s, a, m):
        co, si = m.cos(a), m.sin(a)
        return ((lam * co - s * si, lam * si + s * co, -lam * s),
                (-si, co, -lam),
                (-lam * si - s * co, lam * co - s * si, 0.0),
                (0.0, 0.0, 0.0),
                (-co, -si, 0.0),
                (-lam * co + s * si, -lam * si - s * co, 0.0))
    return parts


def _cases():
    """name -> (seed chart, hand-written reference, sampling rectangle)."""
    cases = {"vertical_plane": (VerticalPlaneChart(), _vertical_plane, ((-1, 1), (-1, 1))),
             "paraboloid": (ParaboloidChart(), _paraboloid, ((-1, 1), (-1, 1)))}
    for R in (2.0, 0.7, 3.5):
        chart = HelicoidChart(R)
        cases[f"helicoid R={R}"] = (chart, _helicoid(R), chart.domain)
    for lam in (1.0, -2.5, 0.3):
        cases[f"catenoid_ruling lam={lam}"] = (CatenoidRulingChart(lam), _catenoid_ruling(lam),
                                               ((-3 * abs(lam), 3 * abs(lam)), (-math.pi, math.pi)))
    return cases


def _close(got, ref, rel):
    got, ref = np.broadcast_arrays(np.asarray(got, dtype=float), np.asarray(ref, dtype=float))
    return np.abs(got - ref) <= rel * np.maximum(1.0, np.abs(ref))


@pytest.mark.parametrize("name", list(_cases()))
def test_seed_chart_matches_the_hand_written_jets(name):
    chart, parts, ((a1, b1), (a2, b2)) = _cases()[name]
    ref = _HandWritten(parts)
    rng = np.random.default_rng(20261018)
    U1 = rng.uniform(a1, b1, N_POINTS)
    U2 = rng.uniform(a2, b2, N_POINTS)
    got, want = chart.jets(U1, U2), ref.jets(U1, U2)
    for k, field in enumerate(("p", "f1", "f2", "f11", "f12", "f22")):
        for c in range(3):
            ok = _close(getattr(got, field)[c], getattr(want, field)[c], 1e-14)
            assert ok.all(), (field, c, U1[~ok][:3], U2[~ok][:3])
    # the scalar view of the seed chart is its array view at one point
    for u in zip(U1[:50].tolist(), U2[:50].tolist()):
        j, r = chart.jet(*u), ref.jet(*u)
        for g, w in zip((j.p, j.f1, j.f2, j.f11, j.f12, j.f22),
                        (r.p, r.f1, r.f2, r.f11, r.f12, r.f22)):
            assert _close(g, w, 1e-14).all(), u
    fr = surface_frames(chart, U1, U2, singular_ok=True)
    fw = surface_frames(ref, U1, U2, singular_ok=True)
    assert (fr.regular == fw.regular).all()
    assert _close(fr.Nh_norm, fw.Nh_norm, 1e-12).all()
    for field in ("H", "q"):
        a, b = getattr(fr, field)[fw.regular], getattr(fw, field)[fw.regular]
        assert _close(a, b, 1e-12).all(), field


@pytest.mark.parametrize("cls", [VerticalPlaneChart, ParaboloidChart, HelicoidChart,
                                 CatenoidRulingChart])
def test_ruled_catalog_charts_are_seeds(cls):
    assert issubclass(cls, SeedRuledChart)
    assert cls._jet_parts is SeedRuledChart._jet_parts
    assert vars(cls)["uniform_rulings"] is True  # a class flag: the same on every ruling


def test_seed_charts_keep_their_constructors():
    params = {cls: list(inspect.signature(cls).parameters)
              for cls in (VerticalPlaneChart, ParaboloidChart, HelicoidChart,
                          CatenoidRulingChart)}
    assert params == {VerticalPlaneChart: ["domain"], ParaboloidChart: ["domain"],
                      HelicoidChart: ["R"], CatenoidRulingChart: ["lam"]}


@pytest.mark.parametrize("R", [0.0, -1.0, math.nan, math.inf, -math.inf, 1e-320, 5e-324])
def test_helicoid_chart_rejects_pitch(R):
    # pi/R must be finite: the domain is (-2/R, 2/R) x (-pi/R, pi/R)
    with pytest.raises(ValueError):
        HelicoidChart(R)


@pytest.mark.parametrize("lam", [0.0, math.nan, math.inf, -math.inf, 1e200, -1e200,
                                 1e-170, -1e-170])
def test_catenoid_charts_reject_lam(lam):
    # lam^2 must be a positive finite float, on either chart of the catenoid
    for chart in (CatenoidChart, CatenoidRulingChart):
        with pytest.raises(ValueError):
            chart(lam)


def test_helicoid_chart_accepts_tiny_and_huge_pitch():
    for R in (1e-300, 1e300):
        chart = HelicoidChart(R)
        assert all(math.isfinite(v) for side in chart.domain for v in side)


@pytest.mark.parametrize("name", list(_cases()))
def test_ruling_coefficients_match_the_seed(name):
    # uniform_rulings: the coefficients at 200 random a, read on arrays, are those at a = 0
    chart = _cases()[name][0]
    a = np.random.default_rng(7).uniform(*chart.domain[1], 200)
    for got, want in zip(chart.ruling_coefficients(a, np), chart.ruling_coefficients(0.0, math)):
        assert _close(got, want, 1e-14).all(), name


def test_ruling_coefficients_at_a_0_keep_the_bits_of_the_tuples_once_written_by_hand():
    # the (th', b, c0) the catalog classes once declared, as literals; zero signs count
    rng = np.random.default_rng(20261019)
    radii = (10.0 ** rng.uniform(-3.0, 3.0, 200)).tolist()
    radii += [1e300, 1e-300, 1e-150, 5e-300, 2.0, 0.7]
    lams = (rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-3.0, 3.0, 200)).tolist()
    lams += [1e-160, -1e-160, 1e154, -1e154, 1.0, -2.5, 1e3]
    cases = [(VerticalPlaneChart(), (0.0, 0.0, 1.0)), (ParaboloidChart(), (0.0, 1.0, 0.0))]
    cases += [(HelicoidChart(R), (-R, 0.0, 1.0 / R)) for R in radii]
    cases += [(CatenoidRulingChart(lam), (1.0, 0.0, lam * lam)) for lam in lams]
    for chart, written in cases:
        got = chart.ruling_coefficients(0.0, math)
        assert list(map(float.hex, got)) == list(map(float.hex, written)), chart


def test_ruling_coefficients_through_an_s_curve():
    # any regular chart is a seed through its S-curve (RuledChart): W = 1 at
    # s = 0, so c0 = -|N_h| and b = -<N,T> off the base frame, and
    # Delta = th' c0 - b^2 is the frame invariant <B(Z),S> - 1 + <N,T>^2
    deltas = []
    for chart in verify._ruled_charts():
        for a in np.linspace(-0.5, 0.5, 11).tolist():
            tp, b, c0 = chart.ruling_coefficients(a, math)
            fr = surface_frame(chart.base, chart.curve_chart_point(a))
            assert abs(c0 + fr.Nh_norm) <= 4e-16 and abs(b + fr.NT) <= 4e-16, (chart.base, a)
            delta = tp * c0 - b * b
            assert abs(delta - (fr.BZS - 1.0 + fr.NT * fr.NT)) <= 1e-11, (chart.base, a)
            deltas.append(delta)
    plane, catenoid, helicoid = np.reshape(deltas, (3, 11))
    assert set(plane) == {0.0}
    assert 0.13 < min(catenoid) and max(catenoid) < 0.34
    assert all(abs(d + 3.698) < 1e-3 for d in helicoid)


def test_ruling_coefficients_of_ruled_charts_on_arrays_of_a():
    # one scalar seed per a: the array values are the per-a values, bit for bit
    a = np.linspace(-0.5, 0.5, 5)
    deltas = []
    for rc, one in zip(verify._ruled_charts(), verify._ruled_charts()):
        got = rc.ruling_coefficients(a, np)
        want = [one.ruling_coefficients(ai, math) for ai in a.tolist()]
        assert [[c.hex() for c in col.tolist()] for col in got] == \
            [[c.hex() for c in col] for col in zip(*want)], rc.base
        tp, b, c0 = got
        deltas.append(tp * c0 - b * b)
    plane, catenoid, helicoid = deltas
    assert plane.tolist() == [0.0] * 5
    assert np.round([catenoid.min(), catenoid.max()], 3).tolist() == [0.135, 0.335]
    assert np.round(helicoid, 3).tolist() == [-3.698] * 5


def test_the_base_seed_chart_and_ruled_chart_have_no_uniform_rulings():
    # RuledChart's coefficients vary with a; each catalog seed sets the flag on its class
    assert SeedRuledChart.uniform_rulings is False and RuledChart.uniform_rulings is False
