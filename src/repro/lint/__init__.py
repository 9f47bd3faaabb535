"""``repro.lint`` — determinism & resource-lifecycle static analysis.

The repo's headline guarantee — bit-identical results across
``(device_model x tabulated step x executor x sink x batch composition
x engine reuse)``, with the fused kernel pinned to recorded golden
digests (``tests/engine/goldens/``) — is enforced dynamically by the
differential fuzz suites.  This package enforces the same contract *statically*: an
AST-based analyzer (``repro-lint``) whose rules encode the invariants
ARCHITECTURE.md states in prose, so a violation fails in milliseconds
at commit time instead of hours later when a fuzzed scenario happens to
hit it.

Rules (see ``repro-lint --list-rules`` and ARCHITECTURE.md "Static
analysis"):

* RL001 — unseeded / global-state randomness,
* RL002 — order-sensitive float reductions over per-die/shard data,
* RL003 — unsorted container iteration feeding a reduction/hash/merge,
* RL004 — shared-memory & fleet-engine lifecycle,
* RL005 — procfleet wire-protocol (send/ack) discipline.

Findings are suppressed per line with ``# repro: allow[RLxxx] reason``;
the reason is mandatory, so every suppression is executable
documentation of a determinism decision.
"""

from repro.lint.core import (
    Finding,
    FileReport,
    Rule,
    all_rules,
    lint_source,
    register,
)
from repro.lint.cli import lint_paths

__all__ = [
    "Finding",
    "FileReport",
    "Rule",
    "all_rules",
    "lint_source",
    "lint_paths",
    "register",
]
