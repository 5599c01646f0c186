"""Reversible graph-to-token-sequence serialization via Eulerian walks,
with subgraph sampling, node identity encoding, and pre-training /
fine-tuning example construction."""

from .graph import (
    AttributedGraph,
    GraphFormatError,
    SubgraphSample,
    adjacency,
    connected_components,
    load_graph,
)
from .euler import (
    EulerPath,
    EulerizedMultigraph,
    add_jump_edges,
    build_multigraph,
    eulerize,
    extract_path,
)
from .vocab import Vocabulary, build_vocab, digits
from .tokenizer import ReindexConfig, TokenGrid, reindex, sequence_length, tokenize
from .detokenizer import ReconstructionReport, detokenize, grid_from_prolonged_tokens
from .sampler import SamplerConfig, draw_roots, sample
from .identity import (
    NodeIdentityCodebook,
    build_codebook,
    codebook_from_partition,
    decode_node,
    encode_node,
    load_partition,
    with_identity_attrs,
)
from .pretrain import (
    PackedBatch,
    PretrainExample,
    build_ntp,
    build_smtp,
    draw_mask_fraction,
    pack,
)
from .taskfmt import TaskSequence, format_edge_task, format_graph_task, format_node_task
from .pipeline import derive_seed, fit_sample, roundtrip_report, serialize_graph

__version__ = "0.1.0"
