"""Sub-Riemannian geometry of the first Heisenberg group.

Group structure and left-invariant metric, closed-form geodesics and
Jacobi fields, surface invariants (horizontal Gauss map, characteristic
field, shape operator, mean curvatures, sub-Riemannian area), the
second-variation index form and stability operator, and numerical
instability certificates for the minimal helicoids and catenoids.
"""

from .core import (FrameField, FrameVector, ORIGIN, Point, covariant_derivative,
                   cross, curvature_R, dilate, dot, euclidean_to_frame,
                   frame_at, frame_to_euclidean, group_inverse, group_mul,
                   jop, ricci, rotate_z)
from .errors import (CertificateNotFound, ConfigError, GeometryError,
                     NonFiniteValue, SingularPoint, StoppedAtSingular,
                     SupportOutsideDomain, TubeConditionViolated, TubeTooSmall)
from .geodesics import (GeodesicArc, JacobiFields, JacobiSample, exp_geodesic, exp_geodesics,
                        helpers_fgh, jacobi_field, jacobi_fields, jacobi_residual)
from .numerics import QuadratureSpec, gauss_legendre_1d, gauss_nodes, integrate_2d
from .stability import (InstabilityCertificate, Profile, RulingFrame,
                        TestFunction, boundary_flux, bracket_integral,
                        certify_instability_h2, certify_instability_nosing,
                        direct_variations, index_form_I, jacobi_vertical_quadratic,
                        l_nh_closed, operator_L, q_form, ruling_form, second_variation_direct,
                        separable, tangent_derivative, vertical_variation_area)
from .surfaces import (CatenoidChart, CatenoidRulingChart, Chart, ChartJets, HelicoidChart,
                       ParaboloidChart, PlaneChart, SurfaceFrames, VerticalPlaneChart, area,
                       catalog_surface, characteristic_ray, ruled_coordinates,
                       singular_locus, surface_frame, surface_frames)

__version__ = "0.1.0"
