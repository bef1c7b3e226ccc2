"""reprolint — AST checks for this repo's oracle discipline.

Every performance change here is trusted only after it has been checked
against a reference: vectorised kernels keep ``*_ref`` oracles with
equivalence tests, and compiled backends declare which numpy oracle each
of their kernels must match.  This package checks that discipline
mechanically (cf. PyCECT's approach of turning "is the port still
correct?" into an automated gate):

==== ===================== =============================================
id   name                  invariant
==== ===================== =============================================
R000 (engine)              every module parses; every ``# lint:`` pragma
                           token is one a rule below reads
R001 oracle-pairing        every public ``*_ref`` has a fast twin and
                           both are exercised by tests
R006 compiled-declarations compiled-backend modules declare their numpy
                           oracle map and fallback contract
==== ===================== =============================================

The missing ids R002–R005, R007 and R008 belong to rules deleted
because a mutation campaign found nothing they alone caught
(EXPERIMENTS.md, "Guard code by mutation").

Run ``python -m repro.lint src/`` (see ``--help``); annotate deliberate
exceptions with ``# lint:`` pragmas (:mod:`repro.lint.model`); register
new rules in :mod:`repro.lint.rules`.
"""

from repro.lint.engine import (collect_test_names, discover_files,
                               run_lint)
from repro.lint.model import Finding, ModuleInfo, parse_module
from repro.lint.registry import (ProjectInfo, Rule, all_rules,
                                 known_rule_ids, rule)

__all__ = [
    "Finding", "ModuleInfo", "ProjectInfo", "Rule",
    "all_rules", "collect_test_names", "discover_files", "known_rule_ids",
    "parse_module", "rule", "run_lint",
]
