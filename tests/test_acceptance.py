"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with the measured quantity next to its tolerance."""

import math
import time

from h1geom.numerics import QuadratureSpec, Taylor, gauss_legendre_1d, taylor_derivatives
from h1geom.stability import (boundary_flux, bracket_integral,
                              bracket_integral_quadrature, certify_instability_h2,
                              certify_instability_nosing, cosine_bump, first_variation_direct,
                              h2_certificate_test_function, index_form_I, l_nh_closed, operator_L,
                              q_form, separable, second_variation_direct, Profile,
                              vertical_variation_area, zero_function)
from h1geom.surfaces import CatenoidChart, HelicoidChart
from h1geom import verify as V

CAT = CatenoidChart(1.0)
HEL2 = HelicoidChart(2.0)


def report(num, label, value, bound, ok):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:>2}: {label:55s} {value:12.3e} <= {bound:9.1e}  {status}")
    assert ok


def test_criterion_01_tensor_tables():
    t0 = time.time()
    worst = max(V.check_connection_table().residual,
                V.check_curvature_table().residual,
                V.check_ricci_table().residual)
    elapsed = time.time() - t0
    report(1, "connection/curvature/Ricci tables", worst, 1e-12,
           worst <= 1e-12 and elapsed < 1.0)
    print(f"             table suite runtime {elapsed:.3f}s < 1s")


def test_criterion_02_geodesics():
    worst_line = V.check_horgeo().residual
    lam_res, speed_res = V.check_conserved()
    semi = V.check_semigroup().residual
    ok = (worst_line <= 1e-12 and lam_res.residual <= 1e-10
          and speed_res.residual <= 1e-10 and semi <= 1e-9)
    report(2, "straight lines exact; momentum/speed; semigroup",
           max(worst_line, lam_res.residual, speed_res.residual, semi), 1e-9, ok)


def test_criterion_03_jacobi():
    eq_check, _, fit = V.check_jacobi_helicoid()
    disc = V.check_discriminant()
    ok = fit.residual <= 1e-8 and disc.residual <= 1e-8 and eq_check.residual <= 1e-5
    report(3, "quadratic <V,T>; discriminant; reduced Jacobi eq",
           max(fit.residual, disc.residual, eq_check.residual), 1e-5, ok)


def test_criterion_04_minimality():
    mini = V.check_minimality().residual
    plane = V.check_vertical_plane().residual
    ok = mini <= 1e-8 and plane <= 1e-8
    report(4, "|H|=0 on the catalog; vertical-plane frame",
           max(mini, plane), 1e-8, ok)


def test_criterion_05_stability_operator_closed_form():
    worst_gap = 0.0
    pts_cat = V._random_regular_points(CAT, 100, 201, ((0.0, 2 * math.pi), (-1.4, 1.4)))
    pts_hel = V._random_regular_points(HEL2, 100, 202, ((-1.3, 1.3), (-1.5, 1.5)),
                                       min_nh=0.2)
    for chart, pts in ((CAT, pts_cat), (HEL2, pts_hel)):
        for u in pts:
            lc = l_nh_closed(chart, u)
            ld = operator_L(chart, lambda fr: fr.Nh_norm, u)
            worst_gap = max(worst_gap, abs(ld - lc) / max(1.0, abs(lc)))
    low_cat = min(l_nh_closed(CAT, u) for u in pts_cat)
    ok = worst_gap <= 1e-4 and low_cat >= -1e-8
    report(5, "L(|N_h|) closed vs direct; sign in its scope",
           worst_gap, 1e-4, ok)
    print(f"             catenoid min L(|N_h|) = {low_cat:.3e} >= -1e-8 "
          "(nonnegativity holds on empty-singular-set surfaces)")
    # On the pitch-2 helicoid the same closed form is strictly negative
    # (-16 on the axis); see the decisions ledger for the discrepancy with
    # the stated expectation, which contradicts the source derivation.
    vals = [l_nh_closed(HEL2, u) for u in pts_hel]
    print(f"             helicoid L(|N_h|) in [{min(vals):.3e}, {max(vals):.3e}] < 0 "
          "(documented deviation: positivity does not extend there)")
    assert max(vals) < 0.0


def test_criterion_06_helicoid_closed_forms():
    frame_res = V.check_helicoid_closed_forms()
    q2, q1 = V.check_helicoid_q_closed_forms()
    ok = frame_res.residual <= 1e-8 and q2.residual <= 1e-8 and q1.residual <= 1e-6
    report(6, "helicoid frame closed forms; q at R=2 and R=1",
           max(frame_res.residual, q2.residual, q1.residual), 1e-6, ok)


def test_criterion_07_area_scaling():
    t0 = time.time()
    dil, rot = V.check_area_scaling()
    elapsed = time.time() - t0
    ok = dil.residual <= 1e-6 and rot.residual <= 1e-10 and elapsed < 5.0
    report(7, "dilation area law e^{3 lam}; rotation invariance",
           max(dil.residual, rot.residual), 1e-6, ok)
    print(f"             area suite runtime {elapsed:.3f}s < 5s")


def test_criterion_08_second_variation():
    v = separable(cosine_bump(1.5, 0.7), cosine_bump(0.3, 0.5))
    quad = QuadratureSpec(16, (4, 4))
    iform = index_form_I(CAT, v, v, quad)
    a2 = second_variation_direct(CAT, v, zero_function(), quad)
    rel = abs(a2 - iform) / abs(iform)
    a1, a0 = first_variation_direct(CAT, v, zero_function(), quad)
    ok = rel <= 1e-2 and abs(a1) <= 1e-6 * a0
    report(8, "A''(0) vs index form; stationarity A'(0)", rel, 1e-2, ok)
    print(f"             |A'(0)|/A(0) = {abs(a1) / a0:.3e} <= 1e-6")


def test_criterion_09_h2_certificate():
    t0 = time.time()
    closed = bracket_integral(0.6, 2.2)
    quad_val = bracket_integral_quadrature(0.6, 2.2, QuadratureSpec(16, (64, 1)))
    agreement = abs(closed - quad_val)
    cert = certify_instability_h2()
    u = h2_certificate_test_function(cert.k, cert.delta, cert.eps0)
    confirm = q_form(2.0, u, cert.quad.doubled())
    elapsed = time.time() - t0
    ok = (closed < 8.0 and agreement <= 1e-10 and cert.Q_value < 0.0
          and confirm < 0.0 and elapsed < 60.0)
    report(9, "C(0.6,2.2)<8 dual eval; Q(u)<0 at doubled res", agreement, 1e-10, ok)
    print(f"             certificate k={cert.k:g} delta={cert.delta:g} "
          f"eps0={cert.eps0:g} C={cert.C:.6f} Q={cert.Q_value:.6f} "
          f"Q_doubled={confirm:.6f} ({elapsed:.1f}s < 60s)")


def test_criterion_10_catenoid_certificate():
    t0 = time.time()
    cert = certify_instability_nosing()
    confirm = cert.Q_value_doubled
    elapsed = time.time() - t0
    ok = cert.Q_value < 0.0 and confirm < 0.0 and elapsed < 120.0
    report(10, "ruling-chart index form < 0 on the catenoid",
           cert.Q_value, 0.0, ok)
    print(f"             k={cert.k:g} value={cert.Q_value:.6f} "
          f"doubled={confirm:.6f} ({elapsed:.1f}s < 120s)")


def test_criterion_11_vertical_variation():
    quad = QuadratureSpec(16, (16, 1))
    w = cosine_bump(0.0, 1.0)
    _, d1, d2 = taylor_derivatives(vertical_variation_area(2.0, w, Taylor(0.0, 1.0), quad))
    exact = gauss_legendre_1d(lambda e: w.deriv(e) ** 2, -1.0, 1.0, quad)
    rel = abs(d2 - exact) / exact
    ok = rel <= 1e-3 and abs(d1) <= 1e-6
    report(11, "vertical tube: d2A/dr2 = int wdot^2; dA/dr = 0", rel, 1e-3, ok)
    print(f"             first difference {abs(d1):.3e} <= 1e-6")


def test_criterion_12_boundary_flux():
    phi = cosine_bump(0.0, 1.0)
    ones = Profile(lambda s: 1.0, lambda s: 0.0, (-10.0, 10.0))
    v = separable(phi, ones)
    quad = QuadratureSpec(16, (32, 1))
    target = 8.0 * gauss_legendre_1d(lambda e: phi.value(e) ** 2, -1.0, 1.0, quad)
    flux = boundary_flux(2.0, v, quad)
    rel = abs(flux - target) / target
    report(12, "divergence-term flux -> 4 int v^2 dl", rel, 1e-2, rel <= 1e-2)
