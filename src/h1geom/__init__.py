"""Sub-Riemannian geometry of the first Heisenberg group.

Group structure and left-invariant metric, closed-form geodesics and
Jacobi fields, surface invariants (horizontal Gauss map, characteristic
field, shape operator, mean curvatures, sub-Riemannian area), the
second-variation index form and stability operator, and numerical
instability certificates for the minimal helicoids and catenoids.

The public names below resolve on first access (PEP 562): ``import h1geom``
loads no submodule, and ``h1geom.Point`` or ``from h1geom import Point``
imports the submodule that defines the name, with what that submodule
imports, and nothing else.  Each access reads the submodule's current
binding.
"""

from importlib import import_module as _import_module

# submodule -> the public names it defines
_EXPORTS = {
    "core": ("FrameField", "FrameVector", "ORIGIN", "Point", "covariant_derivative", "cross",
             "curvature_R", "dilate", "dot", "euclidean_to_frame", "frame_at",
             "frame_to_euclidean", "group_inverse", "group_mul", "jop", "ricci", "rotate_z"),
    "errors": ("CertificateNotFound", "ConfigError", "GeometryError", "NonFiniteValue",
               "SingularPoint", "StoppedAtSingular", "SupportOutsideDomain",
               "TubeConditionViolated", "TubeTooSmall"),
    "geodesics": ("GeodesicArc", "JacobiFields", "JacobiSample", "exp_geodesic",
                  "exp_geodesics", "helpers_fgh", "jacobi_field", "jacobi_fields",
                  "jacobi_residual"),
    "numerics": ("QuadratureSpec", "gauss_legendre_1d", "gauss_nodes", "integrate_2d"),
    "stability": ("InstabilityCertificate", "Profile", "RulingFrame", "TestFunction",
                  "boundary_flux", "bracket_integral", "certify_instability_h2",
                  "certify_instability_nosing", "direct_variations", "index_form_I",
                  "jacobi_vertical_quadratic", "l_nh_closed", "operator_L", "q_form",
                  "ruling_form", "second_variation_direct", "separable",
                  "tangent_derivative", "vertical_variation_area"),
    "surfaces": ("CatenoidChart", "CatenoidRulingChart", "Chart", "ChartJets", "HelicoidChart",
                 "ParaboloidChart", "PlaneChart", "SurfaceFrames", "VerticalPlaneChart", "area",
                 "catalog_surface", "characteristic_ray", "ruled_coordinates",
                 "singular_locus", "surface_frame", "surface_frames"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:  # a submodule not yet imported lands here too
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE})
