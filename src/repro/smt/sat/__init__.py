"""CDCL SAT solver core.

Two implementations live here, with the same API (``new_var``/
``add_clause``/``solve``/``solve_with``/``value``/``model``/``stats``/
``iter_problem_clauses``):

* :class:`ArenaSolver` — flat clause arena, flat watch lists, indexed
  VSIDS heap, cone-restricted search and proof logging; the only core
  the solver frontend and the bit-blaster use.
* :class:`SatSolver` — the reference implementation with per-clause
  Python lists; kept as the semantic oracle that the SAT tests and the
  ``sat_stress.py`` DIMACS corpus check the arena core against.
"""

from .arena import ArenaSolver
from .solver import SAT, SatSolver, UNKNOWN, UNSAT, luby, to_dimacs

__all__ = [
    "ArenaSolver",
    "SatSolver",
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "luby",
    "to_dimacs",
]
