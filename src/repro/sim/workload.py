"""Operation and byte accounting for the streaming video LLM workload.

The performance-plane experiments run Llama-3-8B + SigLIP-ViT-L-384
dimensions through analytical models; this module turns model configuration
and sequence lengths into FLOPs, DRAM bytes and KV cache bytes — the raw
quantities the latency pipelines in :mod:`repro.sim.pipeline` consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ModelConfig, VisionConfig, llama3_8b_config
from repro.hw.compute import KernelCost, _as_float, _at_least_one

GiB = 1024**3


def siglip_vit_l_384() -> VisionConfig:
    """SigLIP-ViT-L-384 dimensions (the paper's vision encoder)."""
    return VisionConfig(
        name="siglip-vit-l-384",
        image_size=384,
        patch_size=14,
        embed_dim=1024,
        num_layers=24,
        output_tokens=10,
    )


@dataclass
class TransformerWorkload:
    """FLOP/byte accounting for the LLM backbone."""

    model: ModelConfig

    # ------------------------------------------------------------------ #
    # static sizes
    # ------------------------------------------------------------------ #
    @property
    def kv_dim(self) -> int:
        return self.model.num_kv_heads * self.model.head_dim

    def weight_bytes_per_layer(self) -> float:
        """Parameter bytes read when executing one decoder layer."""
        cfg = self.model
        params = (
            cfg.hidden_dim * cfg.hidden_dim  # W_q
            + 2 * cfg.hidden_dim * self.kv_dim  # W_k, W_v
            + cfg.hidden_dim * cfg.hidden_dim  # W_o
            + 3 * cfg.hidden_dim * cfg.ffn_dim  # SwiGLU
        )
        return params * cfg.dtype_bytes

    def model_bytes(self) -> float:
        """Total parameter bytes (decoder layers + embeddings + head)."""
        cfg = self.model
        return (
            cfg.num_layers * self.weight_bytes_per_layer()
            + 2 * cfg.vocab_size * cfg.hidden_dim * cfg.dtype_bytes
        )

    def kv_bytes_per_token_per_layer(self) -> float:
        """KV cache bytes one token occupies in one layer."""
        return 2 * self.kv_dim * self.model.dtype_bytes

    def kv_bytes_per_token(self) -> float:
        """KV cache bytes one token occupies across all layers."""
        return self.kv_bytes_per_token_per_layer() * self.model.num_layers

    def kv_cache_bytes(self, kv_len: int, batch: int = 1) -> float:
        """Total KV cache footprint for ``kv_len`` tokens per batch element."""
        return self.kv_bytes_per_token() * kv_len * batch

    # ------------------------------------------------------------------ #
    # per-layer kernel costs
    # ------------------------------------------------------------------ #
    def qkv_flops(self, q_len: int) -> float:
        """QKV generation FLOPs for a chunk of ``q_len`` tokens (one layer)."""
        cfg = self.model
        return 2.0 * q_len * cfg.hidden_dim * (cfg.hidden_dim + 2 * self.kv_dim)

    def output_proj_flops(self, q_len: int) -> float:
        """Attention output projection FLOPs (one layer)."""
        return 2.0 * q_len * self.model.hidden_dim * self.model.hidden_dim

    def attention_flops(self, q_len: int, attended_tokens: int) -> float:
        """Score + weighted-sum FLOPs of attention over ``attended_tokens``."""
        return 2.0 * 2.0 * q_len * attended_tokens * self.model.hidden_dim

    def ffn_flops(self, q_len: int) -> float:
        """SwiGLU feed-forward FLOPs (one layer)."""
        return 2.0 * 3.0 * q_len * self.model.hidden_dim * self.model.ffn_dim

    def layer_cost(self, q_len: int, attended_tokens: int, batch: int = 1) -> KernelCost:
        """Dense compute cost of one decoder layer for one chunk."""
        flops = (
            self.qkv_flops(q_len)
            + self.output_proj_flops(q_len)
            + self.attention_flops(q_len, attended_tokens + q_len)
            + self.ffn_flops(q_len)
        ) * batch
        activation_bytes = 8.0 * q_len * self.model.hidden_dim * self.model.dtype_bytes * batch
        kv_read_bytes = (
            attended_tokens * self.kv_bytes_per_token_per_layer() * batch
        )
        dram_bytes = self.weight_bytes_per_layer() + kv_read_bytes + activation_bytes
        return KernelCost(flops=flops, dram_bytes=dram_bytes)

    # ------------------------------------------------------------------ #
    # KV prediction costs (the retrieval algorithms' selection work)
    # ------------------------------------------------------------------ #
    def topk_prediction_flops(self, q_len: int, kv_len: int, frame_level: bool = False,
                              tokens_per_frame: int | None = None) -> float:
        """Per-layer scoring FLOPs of fixed top-k selection.

        Token-level selection (InfiniGen/InfiniGenP) scores every cached
        key against every query token; frame-level selection (ReKV) scores
        one representative per frame.  ``kv_len`` may be an int64 column.
        """
        candidates = kv_len
        if frame_level:
            tokens_per_frame = tokens_per_frame or self.model.tokens_per_frame
            candidates = _at_least_one(kv_len // max(tokens_per_frame, 1))
        return 2.0 * q_len * candidates * self.model.hidden_dim

    def topk_sort_elements(self, q_len: int, kv_len: int, frame_level: bool = False,
                           tokens_per_frame: int | None = None) -> float:
        """Per-layer number of elements the top-k sort handles (``kv_len`` may be a column)."""
        candidates = kv_len
        if frame_level:
            tokens_per_frame = tokens_per_frame or self.model.tokens_per_frame
            candidates = _at_least_one(kv_len // max(tokens_per_frame, 1))
        return _as_float(q_len * self.model.num_kv_heads * candidates)

    def resv_hashbit_flops(self, new_tokens: int, n_hyperplanes: int) -> float:
        """Per-layer hyperplane-projection FLOPs of hash-bit generation (on LXE)."""
        return 2.0 * new_tokens * self.model.num_kv_heads * self.model.head_dim * n_hyperplanes

    def resv_score_flops(self, q_len: int, num_clusters: int) -> float:
        """Per-layer Q x K_cluster^T FLOPs (on LXE)."""
        return 2.0 * q_len * num_clusters * self.model.hidden_dim

    # ------------------------------------------------------------------ #
    # memory footprint (Fig. 4a)
    # ------------------------------------------------------------------ #
    def memory_footprint_bytes(self, kv_len: int, batch: int = 1) -> dict[str, float]:
        """Model-parameter and KV-cache memory footprint."""
        return {
            "model_parameters": self.model_bytes(),
            "kv_cache": self.kv_cache_bytes(kv_len, batch),
        }


@dataclass
class VisionWorkload:
    """FLOP accounting for the vision tower and MLP projector."""

    vision: VisionConfig
    llm_hidden_dim: int = 4096

    def vit_flops_per_frame(self) -> float:
        """ViT encoder FLOPs for a single frame."""
        cfg = self.vision
        n = cfg.num_patches
        d = cfg.embed_dim
        per_layer = 2.0 * n * (4.0 * d * d) + 2.0 * 2.0 * n * n * d + 2.0 * n * (8.0 * d * d)
        return per_layer * cfg.num_layers

    def projector_flops_per_frame(self) -> float:
        """MLP projector FLOPs for a single frame's output tokens."""
        mid = max(self.vision.embed_dim, self.llm_hidden_dim)
        return 2.0 * self.vision.output_tokens * (
            self.vision.embed_dim * mid + mid * self.llm_hidden_dim
        )

    def vit_weight_bytes(self) -> float:
        """Vision tower parameter bytes (read per frame when memory-bound)."""
        d = self.vision.embed_dim
        per_layer = 4.0 * d * d + 8.0 * d * d
        return per_layer * self.vision.num_layers * 2.0

    def frame_cost(self, batch: int = 1) -> KernelCost:
        """Compute cost of encoding + projecting one frame per batch element."""
        flops = (self.vit_flops_per_frame() + self.projector_flops_per_frame()) * batch
        dram_bytes = self.vit_weight_bytes() + 2.0 * self.vision.num_patches * self.vision.embed_dim * 2.0 * batch
        return KernelCost(flops=flops, dram_bytes=dram_bytes)


def default_llm_workload() -> TransformerWorkload:
    """Llama-3-8B workload used throughout the performance experiments."""
    return TransformerWorkload(llama3_8b_config())


def default_vision_workload() -> VisionWorkload:
    """SigLIP-ViT-L-384 workload used throughout the performance experiments."""
    return VisionWorkload(siglip_vit_l_384(), llm_hidden_dim=4096)
