"""Edge-colored multigraph encodings of closed manifolds.

A gem is an (n+1)-regular, properly edge-colored multigraph.  It encodes a
colored triangulation of a closed n-manifold: one top simplex per vertex,
one facet gluing per edge, colors marking which facet.  The package builds
a catalogue of such graphs (two explicit 3-manifold crystallizations, two
scripted 4-manifold crystallizations, seven small covers, and the n-torus
family), measures regular genus and related invariants, applies dipole and
gluing moves, and compares graphs up to colored isomorphism.
"""

from .constructions import (g1_prime, g1_prime_result, g2_prime,
                            g2_prime_result, order_two_gem, product_gem,
                            s2xs1_standard, t3_standard)
from .core import ColoredGraph, Components, LabeledGem, new_graph
from .errors import (AuditFailed, BaseNotCrystallization, BudgetExceeded,
                     ColorCountMismatch, ColorOutOfRange, DimensionUnsupported,
                     DuplicateVertexInColor, GemError, GraphValidationError,
                     InvalidCharacteristicFunction, LoopEdge,
                     MissingIColoredMatching, MoveError, NotADipole,
                     OddVertexCount, ParseError, PermutationColorMismatch,
                     PhiNotIsomorphism, PreconditionFailed, ResultInvalid,
                     SameComponentInIHat, UnknownLabel,
                     UnwritableLabel, VertexCountMismatch)
from .gemfile import export_dot, export_gluings, parse_gem, render_gem
from .invariants import (GenusReport, all_genus_reports, bicolored_cycles,
                         check_cyclic_permutation, cyclic_permutations,
                         genus_for, genus_lower_bound, is_weak_semi_simple,
                         pair_cycles, regular_genus, weak_semi_simple_triples)
from .iso import canonical_signature, isomorphic
from .moves import (CombinedSpec, DipoleSpec, GlueSpec, MoveResult,
                    ScriptResult, ScriptStep, add_dipole, cancel_dipole,
                    check_dipole, combined_move, find_dipoles,
                    parse_move_script, polyhedral_glue, render_move_script,
                    run_script, run_script_text)
from .small_covers import (CompactForm, classify_covers, compact_form,
                           dj_equivalent, enumerate_characteristic_functions,
                           facet_vertex_labels, infer_characteristic_function,
                           mask_word, middle_subgraph,
                           reduce_to_crystallization, reduced_cover,
                           small_cover_gem, validate_characteristic_function,
                           word_mask)
from .torus_cube import (audit_cycle_lengths, expected_genus,
                         stated_permutation, torus_gem)

__version__ = "0.1.0"
