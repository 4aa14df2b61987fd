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
                             ParaboloidChart, SeedRuledChart, VerticalPlaneChart,
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
    # written for the order (a, s); swapped into (s, a) below
    def parts(s, a, m):
        co, si = m.cos(a), m.sin(a)
        p, fa, fs, faa, fas, fss = (
            (lam * co - s * si, lam * si + s * co, -lam * s),
            (-lam * si - s * co, lam * co - s * si, 0.0),
            (-si, co, -lam),
            (-lam * co + s * si, -lam * si - s * co, 0.0),
            (-co, -si, 0.0),
            (0.0, 0.0, 0.0))
        return p, fs, fa, fss, fas, faa
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
        for g, w in zip((j.p.coords(), j.f1, j.f2, j.f11, j.f12, j.f22),
                        (r.p.coords(), r.f1, r.f2, r.f11, r.f12, r.f22)):
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
    # (th', b, c0) = (e x e', Gamma'_y e_x - Gamma'_x e_y,
    # Gamma'_t - Gamma_y Gamma'_x + Gamma_x Gamma'_y), the same on every ruling
    chart = _cases()[name][0]
    a = np.random.default_rng(7).uniform(*chart.domain[1], 200)
    (gx, gy, _), (gx1, gy1, gt1), _, (co, si), (co1, si1), _ = chart._seed(a, np)
    from_seed = (co * si1 - si * co1, gy1 * co - gx1 * si, gt1 - gy * gx1 + gx * gy1)
    for got, want in zip(chart.ruling_coefficients, from_seed):
        assert _close(got, want, 1e-14).all(), name


def test_ruling_coefficients_through_an_s_curve():
    # any regular chart is a seed through its S-curve (RuledChart): W = 1 at
    # s = 0, so c0 = -|N_h| and b = -<N,T> off the base frame, and
    # Delta = th' c0 - b^2 is the frame invariant <B(Z),S> - 1 + <N,T>^2
    deltas = []
    for chart in verify._ruled_charts():
        out = []
        for a in np.linspace(-0.5, 0.5, 11).tolist():
            (gx, gy, _), (gx1, gy1, gt1), _, (co, si), (co1, si1), _ = chart._seed(a, math)
            tp, b, c0 = co * si1 - si * co1, gy1 * co - gx1 * si, gt1 - gy * gx1 + gx * gy1
            fr = surface_frame(chart.base, chart.curve_chart_point(a))
            assert abs(c0 + fr.Nh_norm) <= 4e-16 and abs(b + fr.NT) <= 4e-16, (chart.base, a)
            delta = tp * c0 - b * b
            assert abs(delta - (fr.BZS - 1.0 + fr.NT * fr.NT)) <= 1e-11, (chart.base, a)
            out.append(delta)
        deltas.append(out)
    plane, catenoid, helicoid = deltas
    assert set(plane) == {0.0}
    assert 0.13 < min(catenoid) and max(catenoid) < 0.34
    assert all(abs(d + 3.698) < 1e-3 for d in helicoid)


def test_the_base_seed_chart_declares_no_ruling_coefficients():
    assert SeedRuledChart.ruling_coefficients is None
