"""Test functions that only the tests read: referees of the library's
integrals, not part of it."""

import numpy as np

from h1geom import stability
from h1geom.stability import Jet, TestFunction, _axis_cuts, _support_union


def combined_normal_component(chart, v: TestFunction, w: TestFunction) -> TestFunction:
    """u = v + <N,T> w: the normal component of the deformation v N + w T,
    the u whose index form ``direct_variations(chart, v, w, quad)`` meets.

    On the given frames of ``chart`` its jet reads every point off them.
    Otherwise the frames are computed on ``chart`` only where w or a partial
    of w is nonzero, and the jet is v's elsewhere: no frame is read there, so
    a singular point raises nothing.
    """

    def formula(fr, vj, wj) -> Jet:
        (v0, v1, v2), (w0, w1, w2) = vj, wj
        nt, dnt = fr.NT, fr.dNT
        return v0 + nt * w0, v1 + dnt[0] * w0 + nt * w1, v2 + dnt[1] * w0 + nt * w2

    def jet(U1, U2, frames=None) -> Jet:
        vj = v.jet(U1, U2, frames)
        wj = w.jet(U1, U2, frames)
        if frames is not None and frames[0] is chart:
            return formula(frames[1], vj, wj)
        live = (wj[0] != 0.0) | (wj[1] != 0.0) | (wj[2] != 0.0)
        out = tuple(np.broadcast_to(c, live.shape).copy() for c in vj)
        if live.any():
            fr = stability.surface_frames(chart, U1[live], U2[live])
            for o, x in zip(out, formula(fr, [c[live] for c in vj], [c[live] for c in wj])):
                o[live] = x
        return out

    # the sum may kink on the support edges of v and w as well as on theirs
    kinks = tuple(tuple(sorted(set(_axis_cuts((v, w), i)))) for i in (0, 1))
    return TestFunction(jet, _support_union((v, w)), kinks)
