"""Exact convexity analysis of (twisted) Weyl group elements, good-position
geometry, convex representatives in conjugacy classes, and the GL_n
cross-section realization with its explicit section."""

__version__ = "0.1.0"

from .roots import (  # noqa: F401
    CartanType,
    DiagramAutomorphism,
    RootSystem,
    build_root_system,
    diagram_automorphisms,
    is_closed,
    root_sum,
)
from .weyl import (  # noqa: F401
    ConjugacyClass,
    TwistedElement,
    act,
    conjugacy_classes,
    cyclic_shift_reachable,
    fixed_roots,
    from_one_line,
    from_word,
    is_elliptic,
    longest_element,
    min_length_set,
)
from .convexity import (  # noqa: F401
    INFINITY,
    ConvexityReport,
    analyze,
    level_filtration,
    n_of,
    phi_of,
)
from .geometry import (  # noqa: F401
    GoodPositionCertificate,
    good_position_length,
    is_admissible,
    is_good_position,
    regular_point,
    separation_witness,
)
from .construction import (  # noqa: F401
    RepresentativeResult,
    elliptic_min_convex,
    find_convex_representative,
    find_good_position_conjugate,
)
from .coxeter import (  # noqa: F401
    CoxeterReport,
    ReflectionOrdering,
    check_w0_condition,
    coxeter_elements,
    coxeter_levels,
    reflection_ordering,
    verify_conjecture,
)
from .matrixgroup import (  # noqa: F401
    CellPoint,
    CrossSectionData,
    MatrixGroupContext,
    build_cross_section,
    collision_search,
    lift,
    matrix_context,
    sigma,
    transversality_check,
    unipotent_coordinates,
    xi,
)
