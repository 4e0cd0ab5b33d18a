"""Exact invariants and Jacobians of genus one models of degree 1 to 5.

The public surface re-exported here covers the model types, the
transformation groups, the Weierstrass family maps, projection, and all
the invariant computations.  Everything is exact rational arithmetic.
"""

from .errors import (DegenerateModelError, Genus1Error, InputError,
                     InternalCheckError, SingularModelError)
from .invariants import (Deg5Covariants, InvariantTriple, TateQuantities,
                         a1_char2, contract_quintics, deg4_auxiliary_quadrics,
                         deg4_omega_quadric, deg5_covariants,
                         deg5_omega_quadric, discriminant_deg3_matrix,
                         discriminant_deg4_matrix, discriminant_deg5_matrix,
                         DISC_MATRIX_FACTOR, DISC_MATRIX_SIGN, hessian,
                         invariants, invariants_deg1, invariants_deg2,
                         invariants_deg3, invariants_deg4, invariants_deg5,
                         j_invariant, jacobian, matrix_discriminant,
                         tate_quantities)
from .linalg import (determinant, kernel_basis, pivot_columns, scalar_det,
                     scalar_rank, solve_linear)
from .models import (Deg1Model, Deg2Model, Deg3Model, Deg4Model, Deg5Model,
                     GenusOneModel, dumps_model, equations, loads_model,
                     model_from_dict, model_to_dict, project_from_point,
                     weierstrass_model)
from .poly import (Poly, Scalar, as_scalar, exact_divide, format_scalar,
                   generators, monomials)
from .transforms import (Deg1Transform, Deg2Transform, Deg3Transform,
                         Deg4Transform, Deg5Transform, Transformation, apply,
                         compose, det_character, gamma, identity_transform,
                         transformation_from_dict, transformation_to_dict)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
