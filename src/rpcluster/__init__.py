"""Subspace clustering (SSC and TSC) on randomly projected data.

Synthetic union-of-subspaces generation, Johnson-Lindenstrauss projection
operators (dense Gaussian and fast Fourier/Hadamard transforms), sparse
self-representation and nearest-neighbor adjacency construction, normalized
spectral clustering, and the evaluation metrics and success-condition
checkers that go with them.
"""

from .synth import (
    SubspaceBasis,
    UnionModel,
    DataSet,
    random_orthonormal_basis,
    intersecting_pair,
    generate,
    principal_angle_cosines,
    affinity,
)
from .project import (
    KINDS,
    Projector,
    ProjectorCalibration,
    make_projector,
    explicit_projector,
    project_columns,
    apply,
    is_identity,
    jl_distortion_survey,
)
from .graph import Adjacency, adjacency_from_coefficients
from .ssc import SscConfig, SscColumnInfo, ssc_coefficients, ssc_adjacency
from .tsc import TscConfig, tsc_neighbors, tsc_adjacency
from .spectral import (
    ClusteringResult,
    laplacian_eigenvalues,
    eigengap_estimate,
    kmeans,
    spectral_cluster,
    connected_components,
)
from .metrics import (
    FalseConnectionReport,
    TheoremReport,
    clustering_error,
    false_connections,
    projected_affinity,
    pseudoinverse_affinity,
    perturbation_norm,
    theorem_report,
)
from . import io

__version__ = "0.1.0"

__all__ = [
    "SubspaceBasis",
    "UnionModel",
    "DataSet",
    "random_orthonormal_basis",
    "intersecting_pair",
    "generate",
    "principal_angle_cosines",
    "affinity",
    "KINDS",
    "Projector",
    "ProjectorCalibration",
    "make_projector",
    "explicit_projector",
    "project_columns",
    "apply",
    "is_identity",
    "jl_distortion_survey",
    "SscConfig",
    "Adjacency",
    "SscColumnInfo",
    "ssc_coefficients",
    "ssc_adjacency",
    "adjacency_from_coefficients",
    "TscConfig",
    "tsc_neighbors",
    "tsc_adjacency",
    "ClusteringResult",
    "laplacian_eigenvalues",
    "eigengap_estimate",
    "kmeans",
    "spectral_cluster",
    "connected_components",
    "FalseConnectionReport",
    "TheoremReport",
    "clustering_error",
    "false_connections",
    "projected_affinity",
    "pseudoinverse_affinity",
    "perturbation_norm",
    "theorem_report",
    "io",
]
