"""Workload generation: registry, mix profiles, codegen, traces.

The registry (:mod:`repro.workloads.registry`) is the front door:
every workload — the paper's five, the synthetic zoo
(:mod:`repro.workloads.zoo`), and recorded traces
(:mod:`repro.workloads.trace`) — resolves by name through it.
"""

from repro.workloads.codegen import GeneratedProgram, ProgramGenerator
from repro.workloads.rte import ScriptedTerminalMux, ScriptedUser
from repro.workloads.profiles import (COMMERCIAL, EDUCATIONAL, MixProfile,
                                      SCIENTIFIC, STANDARD_PROFILES,
                                      TIMESHARING_CPU_DEV,
                                      TIMESHARING_RESEARCH)
from repro.workloads.registry import (DEFAULT_WORKLOAD, WORKLOADS,
                                      WorkloadError, WorkloadSpec,
                                      find_workload, get_workload,
                                      paper_workload_names,
                                      paper_workloads, register,
                                      unregister, validate_workload,
                                      workload_names)
from repro.workloads.zoo import ZOO_PROFILES
from repro.workloads.trace import (TraceError, TraceHandle, load_trace,
                                   record_trace, register_trace, replay)

__all__ = ["GeneratedProgram", "ProgramGenerator", "COMMERCIAL",
           "EDUCATIONAL", "MixProfile", "SCIENTIFIC", "STANDARD_PROFILES",
           "TIMESHARING_CPU_DEV", "TIMESHARING_RESEARCH",
           "ScriptedTerminalMux", "ScriptedUser",
           "DEFAULT_WORKLOAD", "WORKLOADS", "WorkloadError",
           "WorkloadSpec", "find_workload", "get_workload",
           "paper_workload_names", "paper_workloads", "register",
           "unregister", "validate_workload", "workload_names",
           "ZOO_PROFILES",
           "TraceError", "TraceHandle", "load_trace", "record_trace",
           "register_trace", "replay"]
