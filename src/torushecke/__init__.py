"""Exact-arithmetic toolkit for cohomology of narrow ray class tori.

The package computes, for a totally real or mixed-signature number field,
the finite groups and exact invariants attached to a congruence modulus:
totally positive units congruent to 1, narrow ray class groups, unit
functionals at primes with residue characteristic conditions, and the
derived (degree-raising) Hecke operators acting on the cohomology of the
associated torus.  Every accepted value is produced by integer or rational
arithmetic; no floating point enters any result path.
"""

__version__ = "0.1.0"

from .classnumber import real_quadratic_field
from .congruence import residue_sign_group
from .cli import FieldStages, ModulusStages, SweepConfig, moduli_upto, run_invariants, run_verify
from .eigen import EigenReport, eigensystem_report
from .errors import (
    BudgetShortfall,
    CapExceeded,
    CharacterUndefined,
    GeneratorError,
    RamifiedOrIndexPrime,
    TorsionObstruction,
    ValidationError,
)
from .field import FieldDescriptor, load_descriptor, validate_descriptor
from .forms import hplus_form_cycles
from .hecke import (
    CohomologyClass,
    HeckeElement,
    PsiReport,
    SpanningScan,
    TpScan,
    compute_tp,
    degree_two_pullback,
    hecke_apply,
    hecke_multiply,
    psi_report,
    scan_t1,
    spanning_set,
    unit_functional,
)
from .ideals import IdealHNF, ideal_from_generators, principal_ideal, rational_ideal, unit_ideal
from .primes import PrimeIdeal, factor_prime, residue_field, residue_image
from .principal import principal_generator
from .rayclass import RayClassGroup, narrow_class_number, ray_class_group
from .units import compute_rp, e_units, unit_generators, unit_image_in_modulus

__all__ = [
    "BudgetShortfall",
    "CapExceeded",
    "CharacterUndefined",
    "CohomologyClass",
    "EigenReport",
    "FieldDescriptor",
    "FieldStages",
    "GeneratorError",
    "HeckeElement",
    "IdealHNF",
    "ModulusStages",
    "PrimeIdeal",
    "PsiReport",
    "RamifiedOrIndexPrime",
    "RayClassGroup",
    "SpanningScan",
    "SweepConfig",
    "TorsionObstruction",
    "TpScan",
    "ValidationError",
    "compute_rp",
    "compute_tp",
    "degree_two_pullback",
    "e_units",
    "eigensystem_report",
    "factor_prime",
    "hecke_apply",
    "hecke_multiply",
    "hplus_form_cycles",
    "ideal_from_generators",
    "load_descriptor",
    "moduli_upto",
    "narrow_class_number",
    "principal_generator",
    "principal_ideal",
    "psi_report",
    "rational_ideal",
    "ray_class_group",
    "real_quadratic_field",
    "residue_field",
    "residue_image",
    "residue_sign_group",
    "run_invariants",
    "run_verify",
    "scan_t1",
    "spanning_set",
    "unit_functional",
    "unit_generators",
    "unit_ideal",
    "unit_image_in_modulus",
    "validate_descriptor",
]
