"""Project-specific static analysis: the invariants, enforced mechanically.

Every headline property of this reproduction — byte-identical sharded
Loc-RIBs/FIBs, reproducible topologies, lossless MRT round-trips —
rests on conventions a normal linter cannot see: no per-process-salted
``hash()`` near placement or wire formats, no unseeded randomness
outside :class:`~repro.utils.rand.DeterministicRng`, module-level
picklable worker entry points, shard workers that never write shared
state, and frozen value objects whose cached hashes only move through
the sanctioned setter.  :mod:`repro.analysis` is the AST lint engine
that fails CI the moment one of those conventions is broken.

On top of the single-statement rules sits a dataflow layer
(:mod:`repro.analysis.dataflow`) that verifies the resident-shard
**sync protocol** itself — unrecorded holder-state mutations (RPR030),
router-config attributes missing from the epoch fingerprint (RPR031),
and module state aliased across the fork boundary (RPR032) — plus an
opt-in runtime twin (:mod:`repro.analysis.sanitizer`,
``REPRO_SANITIZE=1``) that checks the same protocol live at the pool's
dispatch points.

Entry points:

* ``repro-bgp lint [PATHS] [--json] [--format github]
  [--select/--ignore CODES]`` — the CLI subcommand;
* ``python -m repro.analysis`` — the same engine standalone;
* :func:`lint_paths` / :func:`lint_source` — the library API.

Rule codes: RPR001/002/003 (determinism), RPR010/011 (multiprocessing
safety), RPR020/021 (immutability discipline), RPR030/031/032 (sync
protocol dataflow), RPR000 (lint integrity).  ``repro-bgp lint
--list-rules`` describes each.  The one way to accept a finding is an
inline ``# repro: noqa[RPR0xx]: reason`` on its line (see the README
"Static analysis" section).
"""

from repro.analysis.callgraph import PROJECT_RULES, WORKER_ENTRY_POINTS, ShardPurityRule
from repro.analysis.dataflow import (
    DATAFLOW_RULES,
    PARENT_ENTRY_POINTS,
    ConfigCoherenceRule,
    ControlFlowGraph,
    ForkAliasRule,
    ResidentStateRecordRule,
)
from repro.analysis.engine import (
    ALL_PROJECT_RULES,
    INTEGRITY_CODE,
    LintConfigError,
    LintReport,
    add_lint_arguments,
    all_rules,
    lint_paths,
    lint_source,
    main,
    run_lint,
)
from repro.analysis.model import ModuleInfo, Suppression, Violation
from repro.analysis.rules import MODULE_RULES, Rule
from repro.analysis.sanitizer import SANITIZE_ENV, ProtocolViolationError

__all__ = [
    "ALL_PROJECT_RULES",
    "ConfigCoherenceRule",
    "ControlFlowGraph",
    "DATAFLOW_RULES",
    "ForkAliasRule",
    "INTEGRITY_CODE",
    "LintConfigError",
    "LintReport",
    "MODULE_RULES",
    "ModuleInfo",
    "PARENT_ENTRY_POINTS",
    "PROJECT_RULES",
    "ProtocolViolationError",
    "ResidentStateRecordRule",
    "Rule",
    "SANITIZE_ENV",
    "ShardPurityRule",
    "Suppression",
    "Violation",
    "WORKER_ENTRY_POINTS",
    "add_lint_arguments",
    "all_rules",
    "lint_paths",
    "lint_source",
    "main",
    "run_lint",
]
