"""Finite-field toolkit and exhaustive verifier for permutation-polynomial families.

Layers:

- :mod:`permpoly.field` -- GF(p^k) contexts, elements, sparse polynomials;
- :mod:`permpoly.solvers` -- root/bijectivity decision procedures;
- :mod:`permpoly.families` -- the F1..F12 construction registry;
- :mod:`permpoly.oracle` -- exhaustive permutation verification and splitting;
- :mod:`permpoly.cli` -- the ``permpoly`` command.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BadDegrees,
    BadSubset,
    BadSubfieldConstant,
    CtxMismatch,
    DegreeMismatch,
    DivisionByZero,
    EnumerationTooLarge,
    FieldShapeMismatch,
    HypothesisUnmet,
    ImageOutOfRange,
    NotADivisor,
    NotFactorable,
    NotPrime,
    PermpolyError,
    ReducibleModulus,
    SchemaMismatch,
    SizeLimitExceeded,
    ZeroCoefficient,
)
from .field import FieldCtx, FieldElem, SparsePoly, make_field  # noqa: F401
from .oracle import (  # noqa: F401
    VerifyReport,
    is_permutation,
    permutes_subset,
    zieve_split,
    zieve_verdict,
)
from .solvers import (  # noqa: F401
    RootKind,
    RootReport,
    affine_frobenius_roots,
    linearized_bijective,
    quad_char2_roots,
    unit_circle_quad,
)
from .families import (  # noqa: F401
    REGISTRY,
    Clause,
    ConditionReport,
    FamilySpec,
    ParamSpec,
    build,
    check,
    enumerate_instances,
    evaluator,
    family,
    family_ctx,
    transform_pair,
)
