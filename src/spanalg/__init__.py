"""Executable span calculus: quotient categories of spans by stable
morphism systems, allegory-law verification, and the conjugate-closure
repair that makes the quotient a unitary tabular allegory."""

from .allegory import (AllegoryView, MapWitness, Tabulation, UnitWitness,
                       allegory_suite, check_allegorical_criterion,
                       check_allegorical_relation, check_gamma_pullback_preservation,
                       check_modular_law, check_order, check_special_modular_law,
                       counit, counit_check, find_unit, is_cover, is_map,
                       is_mono_map, map_category, tabulate)
from .category import Category, ProductResult, PullbackResult, check_associativity
from .classes import (Carrier, MorClass, builtin_class, carrier_class,
                      check_splitepi_mono_agreement, composition_closure, conjugates,
                      e_bullet, e_circ, m_star, validate_stable_system)
from .errors import (ConfigError, DomainMismatch, EnumerationUnavailable,
                     LimitUnavailable, NoTerminal, NotParallel, ParseError,
                     SpanalgError, TabulationFailed)
from .fincat import FinCatCategory, Functor, enumerate_categories, make_functor
from .finset import FinMor, FinSetCategory, fin, span_pairs
from .spans import (Span, approx, enumerate_hom_classes, functor_round_trip,
                    functoriality_of_R, graph, identity_span, involution,
                    make_equivalence, rel_compose, relation_span, span_compose,
                    span_meet, vertically_isomorphic)
from .systems import FactSystem, default_carrier, named_system, validate_system
from .tablecat import TableCategory, load_table_json, make_table
from .thin import ThinCategory, ThinMor
from .verdict import FAILS, HOLDS, UNKNOWN, Verdict, combine

__version__ = "0.1.0"
