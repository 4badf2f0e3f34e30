"""The benchmark's workloads: fixed bundled fixtures and fixed solver calls.

Data only, so the parent process can list workloads without importing the
package under test. README.md says why each workload exists.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str
    # None runs the cold-started adaptive loop; otherwise the two-stage
    # pipeline with this target source.
    ref_source: str | None
    options: dict


WORKLOADS = {w.name: w for w in (
    Workload("h6_adapt", "h6_3.0", None, {"eps": 1e-8, "max_ops": 30}),
    Workload("h6_cipsi_pipeline", "h6_3.0", "cipsi",
             {"p_overlap": 20, "p_total": 30, "cipsi_max_dets": 50}),
    Workload("beh2_fci_pipeline", "beh2_3.0", "fci", {"p_overlap": 10, "p_total": 20}),
)}
