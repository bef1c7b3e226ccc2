"""reprolint — AST-based invariant checks for this repo's kernel
contracts.

The paper's performance argument rests on disciplined memory behaviour,
and PRs 1-3 turned that discipline into conventions: vectorised kernels
keep ``*_ref`` oracles with equivalence tests, SPMD kernels honour the
input dtype, hot paths use ``np.bincount`` segment sums rather than
``np.add.at``, and telemetry defaults to the no-op recorder.  This
package checks those conventions mechanically (cf. PyCECT's approach of
turning "is the port still correct?" into an automated gate):

== =================== ===============================================
id name                invariant
== =================== ===============================================
R001 oracle-pairing      every public ``*_ref`` has a fast twin and
                         both are exercised by tests
R002 dtype-discipline    kernel-module array constructors state their
                         dtype; no float64-scalar promotion
R003 hot-loop            no Python for/while on kernel hot paths
R004 scatter-add         ``np.<ufunc>.at`` only in setup-only code
R005 telemetry           ``recorder`` defaults to NULL_RECORDER; no
                         direct clocks in kernels; seeded RNG only
R006 compiled-decls      compiled-backend modules declare their numpy
                         oracle map and fallback contract
R007 shm-header-schema   ``_H_*`` slots have unique offsets; the
                         coordinator-written set matches the
                         worker-read set
R008 worker-purity       functions reachable from worker entry points
                         do not write module state, open fork-unsafe
                         resources, or use unseeded RNG/clocks
== =================== ===============================================

R007/R008 are *interprocedural*: per-module facts
(:mod:`repro.lint.facts`) feed a project call graph
(:mod:`repro.lint.callgraph`) whose worker-entry reachability decides
which code runs inside forked workers.

Run ``python -m repro.lint src/`` (see ``--help``); annotate deliberate
exceptions with ``# lint:`` pragmas (:mod:`repro.lint.model`); register
new rules in :mod:`repro.lint.rules`.
"""

from repro.lint.baseline import (filter_findings, load_baseline,
                                 write_baseline)
from repro.lint.engine import (collect_test_names, discover_files,
                               run_lint)
from repro.lint.model import Finding, ModuleInfo, parse_module
from repro.lint.registry import (ProjectInfo, Rule, all_rules,
                                 known_rule_ids, rule)

__all__ = [
    "Finding", "ModuleInfo", "ProjectInfo", "Rule",
    "all_rules", "collect_test_names", "discover_files", "filter_findings",
    "known_rule_ids", "load_baseline", "parse_module", "rule", "run_lint",
    "write_baseline",
]
