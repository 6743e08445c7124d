"""The paper's contribution: exponentially shifted graph decompositions."""

from repro.core.decomposition import Decomposition, PartitionTrace
from repro.core.engine import (
    BatchResult,
    BatchRun,
    PartitionResult,
    decompose,
    decompose_many,
)
from repro.core.ldd_bfs import partition_bfs, partition_bfs_with_shifts
from repro.core.ldd_blelloch import partition_blelloch
from repro.core.ldd_exact import partition_exact, partition_exact_with_shifts
from repro.core.ldd_sequential import partition_sequential
from repro.core.ldd_uniform import partition_uniform
from repro.core.registry import (
    MethodSpec,
    OptionSpec,
    get_method,
    iter_methods,
    method_names,
    register_method,
)
from repro.core.shifts import ShiftAssignment, sample_shifts, shifts_from_values
from repro.core.theory import (
    blockdecomp_iteration_bound,
    cut_probability_bound,
    diameter_bound,
    expected_cut_edges_bound,
    expected_delta_max,
    failure_probability,
    theorem12_depth_bound,
    theorem12_work_bound,
    whp_radius_bound,
)
from repro.core.verify import (
    VerificationReport,
    strong_diameters,
    verify_decomposition,
)
from repro.core.weighted import WeightedDecomposition, partition_weighted

__all__ = [
    "Decomposition",
    "PartitionTrace",
    "PartitionResult",
    "BatchResult",
    "BatchRun",
    "MethodSpec",
    "OptionSpec",
    "decompose",
    "decompose_many",
    "get_method",
    "iter_methods",
    "method_names",
    "register_method",
    "partition_bfs",
    "partition_bfs_with_shifts",
    "partition_exact",
    "partition_exact_with_shifts",
    "partition_sequential",
    "partition_blelloch",
    "partition_uniform",
    "partition_weighted",
    "WeightedDecomposition",
    "ShiftAssignment",
    "sample_shifts",
    "shifts_from_values",
    "VerificationReport",
    "strong_diameters",
    "verify_decomposition",
    "blockdecomp_iteration_bound",
    "cut_probability_bound",
    "diameter_bound",
    "expected_cut_edges_bound",
    "expected_delta_max",
    "failure_probability",
    "theorem12_depth_bound",
    "theorem12_work_bound",
    "whp_radius_bound",
]
