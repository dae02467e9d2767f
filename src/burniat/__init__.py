"""Exact-arithmetic Picard-group computations for Burniat surfaces.

Modules:
  linalg       exact linear algebra over Z, one GF(2) elimination routine
  lattice      Picard lattices of blowups of the plane, subgroup indices
               in Z^r x (Z/2)^m from integer rows
  delpezzo     effective/nef semigroups on the degree-6 del Pezzo surface
  config       six branch configurations (five values of K^2), blowups
  picard       the coordinate model of the Picard group and its torsion
  effective    the effective-semigroup decision procedures
  degeneration the exceptional-collection check; the degenerate-fibre
               report relabels the smooth evidence under imported facts
  verify       the acceptance suite
  cli          command-line front end
"""
from .lattice import (SurfaceLattice, YClass, canonical_class,
                      arithmetic_genus, negative_curves, subgroup_index,
                      DimensionError)
from .delpezzo import (ExceptionalType, symmetric_coords, eff_decompose,
                       nef_decompose, classify_exceptional, enumerate_nef,
                       NotInLattice)
from .config import (BurniatConfig, standard_config, all_standard_configs,
                     make_config, validate_building_data, minus_two_curves,
                     ramification_span_index, config_from_text,
                     InvalidBuildingData)
from .picard import (XClass, GeneratorTable, build_generator_table,
                     torsion_subgroup, picard_image_index,
                     parse_xclass, xclass_to_text,
                     NotARepresentableClass, TableInconsistent)
from .effective import (KX, InS, NonEffective, Unresolved, ReductionTrace,
                        InvalidEvidence, minimal_form, is_minimal, s_membership,
                        prove_non_effective, decide, scan, step3_tables,
                        exceptional_induction)
from .degeneration import (FiberContext, SMOOTH, DEGENERATE,
                           exceptional_collection_check)
