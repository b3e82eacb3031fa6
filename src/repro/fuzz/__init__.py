"""repro.fuzz — differential fuzzing and repro minimization.

The reproduction carries four redundant implementations of its core math
(exact Eq.-3 model, object-model incremental cost, NumPy array kernel,
``repro.verify``'s from-scratch re-derivation) plus redundant execution
paths (serial vs pooled vs cached engine runs).  This package turns that
redundancy into a bug-finding machine, Csmith-style:

``gen``
    Seeded adversarial :class:`FuzzCase` generation over package-shape
    edge cases (single-net sides, all-power/all-signal quadrants, 1–8
    tiers, ψ-group remainders, extreme aspect ratios, duplicate pitches).
``oracles``
    Pluggable differential oracles (:data:`ORACLES`): IFA/DFA density
    parity, monotonic routability of every emitted assignment,
    array-kernel vs object-model exchange trace + cost parity, and engine
    serial/parallel/cached value equality.
``shrink``
    Greedy delta-debugging minimization of failing (case, oracle) pairs.
``runner``
    The campaign loop, obs instrumentation, and the JSON corpus under
    ``tests/data/fuzz_corpus/`` (written on failure, replayed by tier-1).
``jobs``
    The ``fuzz_probe`` engine job type (lazy-loaded via the ``fuzz_``
    prefix hook in the job-type registry).

CLI: ``python -m repro fuzz [run|replay] --cases N --seed S --oracle ...``
(see docs/fuzzing.md).
"""

from .gen import CASE_FORMAT, CaseGenerator, FuzzCase, generate_cases
from .oracles import ORACLES, ORACLE_STRIDES, SkippedCase
from .runner import (
    DEFAULT_CORPUS,
    FuzzFailure,
    FuzzReport,
    load_corpus,
    replay_corpus,
    run_fuzz,
    save_corpus_entry,
)
from .shrink import failure_predicate, shrink_case

__all__ = [
    "CASE_FORMAT",
    "DEFAULT_CORPUS",
    "CaseGenerator",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "ORACLES",
    "ORACLE_STRIDES",
    "SkippedCase",
    "failure_predicate",
    "generate_cases",
    "load_corpus",
    "replay_corpus",
    "run_fuzz",
    "save_corpus_entry",
    "shrink_case",
]
