"""Exact symbolic toolkit for graph-algebra cores, transfer operators,
frame modules over them, lattice dilations, and the resulting K-theory."""

from .scalar import ONE, ZERO, Radical, parse_radical
from .graph import Graph, Path, bouquet, cycle, load_graph
from .star_algebra import (
    ElementFormatError,
    MixedDegreeError,
    NormResult,
    SingularVertexError,
    StarElement,
    UndecidableEqualityError,
    edge_isometry,
    matrix_unit,
    op_norm,
    parse_element,
    path_isometry,
    unit,
    vertex_projection,
)
from .exel_path import DepthFunction, alpha_shift, transfer_L, transfer_identity_check
from .core_endo import CoreEndo
from .uhf_cuntz import TensorElement, UhfSystem, uhf_L, uhf_alpha
from .hilbert_module import (
    CompactOp,
    GraphFrameSystem,
    ModuleElement,
    TruncationDepthError,
    UhfFrameSystem,
    beta_crosscheck,
    build_U,
    canonical_frame,
    frame_rep_psi,
    gram_psd_check,
    reconstruct_check,
)
from .util import CheckReport, SplitMix64

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "CompactOp",
    "CoreEndo",
    "DepthFunction",
    "ElementFormatError",
    "Graph",
    "GraphFrameSystem",
    "MixedDegreeError",
    "ModuleElement",
    "NormResult",
    "ONE",
    "Path",
    "Radical",
    "SingularVertexError",
    "SplitMix64",
    "StarElement",
    "TensorElement",
    "TruncationDepthError",
    "UhfFrameSystem",
    "UhfSystem",
    "UndecidableEqualityError",
    "ZERO",
    "alpha_shift",
    "beta_crosscheck",
    "bouquet",
    "build_U",
    "canonical_frame",
    "cycle",
    "edge_isometry",
    "frame_rep_psi",
    "gram_psd_check",
    "load_graph",
    "matrix_unit",
    "op_norm",
    "parse_element",
    "parse_radical",
    "path_isometry",
    "reconstruct_check",
    "transfer_L",
    "transfer_identity_check",
    "uhf_L",
    "uhf_alpha",
    "unit",
    "vertex_projection",
]
