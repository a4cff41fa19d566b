"""rankwarp: block-ranked sparse correspondence with differentiable top-k retrieval.

Feature grids are partitioned into blocks; each query block retrieves its
top-k exemplar blocks through the exact dual of an entropy-regularized
transport problem, whose gradient has a closed form (``dual_gamma_vjp``);
dense attention runs inside the retrieved blocks only, and the resulting
row-stochastic correspondence warps the exemplar.
Semantic position encoding, confidence-weighted fusion, alignment metrics,
and a memory benchmark round out the pipeline.
"""

from .correspondence import (
    BlockFeatures,
    BlockPartition,
    BlockRanking,
    SparseCorrespondence,
    block_attention,
    partition_blocks,
    rank_blocks,
    warp,
)
from .fusion import ConfidenceMap, confidence_map, fuse, fuse_multichannel
from .metrics import (
    BenchRecord,
    cycle_loss,
    dense_correspondence_baseline,
    dense_warp,
    render_csv,
    run_bench,
)
from .posenc import PositionChannels, append_position, semantic_pe, vanilla_pe
from .tensors import (
    FeatureGrid,
    LabelMask,
    TensorFormatError,
    ValidationError,
    l2_normalize_features,
    read_tensor,
    write_tensor,
)
from .topk import (
    SoftSelection,
    TopKProblem,
    dual_gamma,
    dual_gamma_vjp,
    finite_difference_gradient,
    hard_topk_oracle,
    soft_topk,
)

__version__ = "0.1.0"
