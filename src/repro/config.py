"""Configuration objects shared across the V-Rex reproduction.

The reproduction is split into a *functional plane* (a real, small numpy
transformer running ReSV and the baseline retrieval algorithms) and a
*performance plane* (an analytical/event hardware simulator parameterised
with production model dimensions).  Both planes read their shapes from the
dataclasses defined here so that an experiment can switch between a toy
model (fast, used by tests) and Llama-3-8B dimensions (used by the latency
and energy experiments) without touching any other code.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass


def require_number(
    name: str,
    value,
    minimum: float = 0,
    *,
    maximum: float | None = None,
    exclusive: bool = False,
    finite: bool = False,
    integer: bool = False,
):
    """Return ``value``, or raise a ``ValueError`` naming the argument.

    The one range check behind the simulator's configuration objects.
    ``value`` must be ``>= minimum`` (``> minimum`` when ``exclusive``)
    and, when ``maximum`` is given, ``<= maximum`` (a ratio lies in
    ``[0, 1]``); NaN satisfies no comparison, so it is rejected
    everywhere.  ``inf`` passes unless ``finite`` — several knobs give it
    a meaning (a quantum of ``inf`` is FCFS, a backlog patience of ``inf``
    never migrates).
    ``integer`` additionally demands a true integer (a count of 2.5
    devices is a caller bug, not something to truncate), never a ``bool``.
    """
    if integer:
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    in_range = value > minimum if exclusive else value >= minimum
    if maximum is not None:
        in_range = in_range and value <= maximum
    if not in_range or (finite and not math.isfinite(value)):
        if maximum is not None:
            bound = f"in {'(' if exclusive else '['}{minimum}, {maximum}]"
        elif minimum == 0:
            bound = "positive" if exclusive else "non-negative"
        else:
            bound = f"{'greater than' if exclusive else 'at least'} {minimum}"
        raise ValueError(
            f"{name} must be {'finite and ' if finite else ''}{bound}, got {value}"
        )
    return value


def require_choice(name: str, value, choices: tuple):
    """Return ``value``, or raise a ``ValueError`` listing the ``choices``.

    The one membership check behind the simulator's named policies, modes
    and engines.
    """
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}; expected one of {choices}")
    return value


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions of the streaming video LLM backbone.

    Attributes mirror a decoder-only transformer with optional grouped-query
    attention.  ``tokens_per_frame`` is the number of visual tokens produced
    by the vision tower + MLP projector for one video frame (VideoLLM-Online
    uses a small per-frame token budget; the paper's COIN working scenario
    averages 26 frames with 25 question and 39 answer tokens).
    """

    name: str = "toy"
    num_layers: int = 4
    hidden_dim: int = 64
    num_heads: int = 4
    num_kv_heads: int = 4
    ffn_dim: int = 256
    vocab_size: int = 512
    tokens_per_frame: int = 16
    max_position: int = 262_144
    rope_base: float = 10_000.0
    use_rope: bool = True
    dtype_bytes: int = 2  # BF16 storage for weights and KV cache

    def __post_init__(self) -> None:
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                f"hidden_dim ({self.hidden_dim}) must be divisible by "
                f"num_heads ({self.num_heads})"
            )
        if self.num_heads % self.num_kv_heads != 0:
            raise ValueError(
                f"num_heads ({self.num_heads}) must be divisible by "
                f"num_kv_heads ({self.num_kv_heads})"
            )

    @property
    def head_dim(self) -> int:
        """Per-head embedding dimension."""
        return self.hidden_dim // self.num_heads

    def kv_bytes_per_token(self) -> int:
        """Bytes of KV cache stored for a single token across all layers."""
        per_layer = 2 * self.num_kv_heads * self.head_dim * self.dtype_bytes
        return per_layer * self.num_layers


def toy_model_config(**overrides) -> ModelConfig:
    """Small model used by unit tests and functional experiments."""
    return dataclasses.replace(ModelConfig(name="toy"), **overrides)


def llama3_8b_config() -> ModelConfig:
    """Llama-3-8B dimensions used by the performance-plane experiments."""
    return ModelConfig(
        name="llama3-8b",
        num_layers=32,
        hidden_dim=4096,
        num_heads=32,
        num_kv_heads=8,
        ffn_dim=14336,
        vocab_size=128_256,
        tokens_per_frame=10,
        rope_base=500_000.0,
    )


@dataclass(frozen=True)
class VisionConfig:
    """Vision tower (SigLIP-ViT-L-384-like) dimensions for the substrate."""

    name: str = "siglip-vit-l-384"
    image_size: int = 384
    patch_size: int = 14
    embed_dim: int = 1024
    num_layers: int = 24
    output_tokens: int = 10

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2


def toy_vision_config() -> VisionConfig:
    """Tiny vision tower used by tests."""
    return VisionConfig(
        name="toy-vit", image_size=32, patch_size=8, embed_dim=32, num_layers=2, output_tokens=4
    )


@dataclass(frozen=True)
class ReSVConfig:
    """Hyperparameters of the ReSV retrieval algorithm (paper Sec. IV).

    ``n_hyperplanes`` is :math:`N_{hp}` (paper uses 32), ``hamming_threshold``
    is :math:`Th_{hd}` (paper uses 7) and ``wicsum_ratio`` is
    :math:`Th_{r-wics}` (paper uses 0.3 for the accuracy study and mentions
    80% in the dataflow figure; it is a free knob that trades retrieval ratio
    for accuracy).
    """

    n_hyperplanes: int = 32
    hamming_threshold: int = 7
    wicsum_ratio: float = 0.3
    enable_clustering: bool = True
    enable_wicsum: bool = True
    recent_window: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_hyperplanes <= 0:
            raise ValueError("n_hyperplanes must be positive")
        if self.hamming_threshold < 0:
            raise ValueError("hamming_threshold must be non-negative")
        if not 0.0 < self.wicsum_ratio <= 1.0:
            raise ValueError("wicsum_ratio must lie in (0, 1]")
        if self.recent_window < 0:
            raise ValueError("recent_window must be non-negative")


@dataclass(frozen=True)
class TopKConfig:
    """Configuration for fixed top-k baselines (FlexGen/InfiniGen/ReKV).

    ``prefill_ratio`` / ``generation_ratio`` are the fraction of cached
    tokens fetched during frame processing and text generation respectively.
    The paper calibrates baselines to 50% prefill selection for InfiniGenP
    and frame-level selection for ReKV.
    """

    prefill_ratio: float = 0.5
    generation_ratio: float = 0.07
    frame_level: bool = False
    retrieve_in_prefill: bool = True
    retrieve_in_generation: bool = True

    def __post_init__(self) -> None:
        for name in ("prefill_ratio", "generation_ratio"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")


@dataclass(frozen=True)
class StreamingConfig:
    """Parameters of a streaming session (COIN working scenario defaults)."""

    frames_per_query: int = 26
    question_tokens: int = 25
    answer_tokens: int = 39
    video_fps: float = 10.0
    batch_size: int = 1
