"""Graph-theoretic derived invariants of gentle bound quivers."""

from .errors import (BoundTooLarge, InfiniteGlobalDimension, InternalMismatch,
                     TrivialInput)
from .exact_linalg import (IntMatrix, IntPolynomial, char_poly, det,
                           qform_eval, rank_corank, short_vectors)
from .quiver import (BoundQuiver, GentleQuiver, GentlenessViolation,
                     NotAdmissible, QuiverStructureError, QuiverSyntaxError,
                     Thread, cartan_matrix, load_gentle, parse_quiver,
                     render_quiver, string_functions, validate_gentle)
from .ribbon import (ForbiddenRibbon, RibbonGraph, dot_export,
                     forbidden_ribbon, from_ribbon, incidence_matrix,
                     is_balanced, is_bipartite, quiver_canonical_form,
                     random_marked_ribbon_graph, ribbon_canonical_form,
                     ribbon_from_json, ribbon_to_json, to_ribbon)
from .walks import (Face, NotConcatenable, NotReduced, UnknownEdge, Walk,
                    anti_walk, classify_walk, connecting_path, deg_step,
                    degree, enumerate_belts, enumerate_reduced_walks, faces,
                    incidence_vector, is_belt, parse_walk, plus_ops,
                    reduced_concat, to_walk, trivial_walk)
from .invariants import (AAGInvariant, EulerAnalysis, Fingerprint,
                         aag_invariant, compare, coxeter, euler_analysis,
                         fingerprint, multi_clock)
from .derived import (ARTriangle, BandComplex, PerfectClasses, StringComplex,
                      ar_translate, build_string_complex,
                      enumerate_perfect_classes, k0_class, root_classify)
from .brauer import (BrauerGraph, brauer_cartan, brauer_classify,
                     brauer_from_json)

__version__ = "0.1.0"
