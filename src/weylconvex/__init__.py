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
)
from .weyl import (  # noqa: F401
    ConjugacyClass,
    TwistedElement,
    conjugacy_classes,
    fixed_roots,
    from_one_line,
    from_word,
    is_elliptic,
    longest_element,
)
from .convexity import (  # noqa: F401
    INFINITY,
    ConvexityReport,
    analyze,
    n_of,
    phi_of,
)
from .geometry import (  # noqa: F401
    GoodPositionCertificate,
    good_position_length,
    is_admissible,
    is_good_position,
    regular_point,
)
from .construction import (  # noqa: F401
    RepresentativeResult,
    find_convex_representative,
    find_good_position_conjugate,
)
from .coxeter import (  # noqa: F401
    CoxeterReport,
    coxeter_elements,
    verify_conjecture,
)
from .matrixgroup import (  # noqa: F401
    CellPoint,
    CrossSectionData,
    MatrixGroupContext,
    build_cross_section,
    matrix_context,
    sigma,
    transversality_check,
    xi,
)
