"""Choquet integration over capacities, layered uncertainty, and its laws."""

from .core import (Act, Capacity, FiniteSpace, PointMap, Subset,
                   additive_capacity, constant_act, distort, identity_map,
                   indicator, make_space, precompose_act, pushforward,
                   validate_capacity)
from .choquet import (ChainDecomposition, are_comonotonic, choquet_integral,
                      common_chain, decompose, upper_level_distribution)
from .uncertainty import (GTransform, UncertaintySpace, check_separated,
                          epsilon, xi, xi_g)
from .hierarchy import (TERMINAL, FamilyLevel, USequence, UtilityFunction,
                        conditional_act, integrate_family, terminal_space,
                        value_function, xi_chain)
from .ellsberg import (EllsbergReport, UrnParams, build_sequence,
                       build_urn_space, ellsberg_report, paradox_demo)
from .category import (MapWitness, dirac, emb_dirac_conditions,
                       embedding_condition, is_mp_unc_map, is_ug_map,
                       is_unc_map, monad_counterexample, mu,
                       substitution_check)
from .tower import (GridTower, ProjectiveVector, build_tower, iota,
                    projective_consistency)

__version__ = "0.1.0"
