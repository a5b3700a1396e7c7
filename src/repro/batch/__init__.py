"""repro.batch: plan many measurements onto few runs.

Requested measurements — lanes of (workload × params × machine ×
budget × seed) — that differ only in budget fuse into one cohort,
which runs once and is captured at every lane's boundary
(:meth:`repro.osim.executive.Executive.run` with a tuple of budgets).
Results are bit-identical to independent runs lane for lane.  See
:mod:`repro.batch.lanes` for the fusion rule and
:mod:`repro.batch.engine` for the runner.

The ``engine`` name (``--engine`` on the CLI, ``engine=`` on the
facade) is validated here so every entry point rejects a bad name the
same way, before any simulation runs.  It no longer selects a code
path: scalar, batch and auto are aliases with bit-identical results,
kept because result documents and serve request keys carry the field.
"""

from __future__ import annotations

from repro.batch.engine import BatchRunner, LaneResult, run_lanes
from repro.batch.lanes import Cohort, LaneSpec, plan_cohorts

__all__ = ["ENGINES", "EngineError", "validate_engine",
           "BatchRunner", "Cohort", "LaneResult", "LaneSpec",
           "plan_cohorts", "run_lanes"]

#: Legal values everywhere an engine can be chosen.
ENGINES = ("scalar", "batch", "auto")


class EngineError(ValueError):
    """An engine name outside the accepted set."""


def validate_engine(name, choices=ENGINES) -> str:
    """Normalize and validate an engine name (None means scalar).

    Raises :class:`EngineError` — a ``ValueError`` — listing the valid
    engines, so callers can reject bad input before simulating,
    consistent with the ``--table``/axis pre-validation pattern.
    """
    if name is None:
        return "scalar"
    if name not in choices:
        raise EngineError(f"unknown engine {name!r}; choose from "
                          f"{', '.join(choices)}")
    return name
