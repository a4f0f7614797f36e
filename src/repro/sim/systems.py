"""System configurations compared in the paper's evaluation.

A *system* is a device (GPU or V-Rex instance) plus a KV cache management
policy (which retrieval algorithm runs, at what selection ratios, where the
cache lives, and which hardware assists are available).  The factory
functions below build the exact line-up of Fig. 13–16: FlexGen, InfiniGen,
InfiniGenP and ReKV on the AGX Orin and A100, V-Rex8 / V-Rex48, the Fig. 15
no-offload and Oaken baselines, and the Fig. 16 ablation points.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import require_number
from repro.hw.specs import A100, AGX_ORIN, VREX8, VREX48, DeviceSpec

GiB = 1024**3

#: Average retrieval ratios measured on the functional plane (Table II);
#: these parameterise the performance plane so both planes stay consistent.
RESV_PREFILL_RATIO = 0.327
RESV_GENERATION_RATIO = 0.025
INFINIGEN_GENERATION_RATIO = 0.068
INFINIGEN_P_PREFILL_RATIO = 0.508
REKV_PREFILL_RATIO = 0.584
REKV_GENERATION_RATIO = 0.312

#: Mean cluster occupancy observed by ReSV (paper: ~32 tokens per cluster).
AVG_TOKENS_PER_CLUSTER = 32
#: Fraction of score elements the WTU actually sorts thanks to early exit.
EARLY_EXIT_SORT_FRACTION = 0.16

#: Fixed per-layer overhead of token-granular top-k selection on a GPU
#: (kernel launches, index gather/scatter, host synchronisation), in seconds.
GPU_TOKEN_SELECTION_OVERHEAD_S = {"gpu_edge": 3.0e-3, "gpu_server": 0.5e-3}
#: Same for frame-granular selection (far fewer candidates to manage).
GPU_FRAME_SELECTION_OVERHEAD_S = {"gpu_edge": 0.5e-3, "gpu_server": 0.1e-3}
#: Sorting throughput of top-k selection kernels (elements per second).
GPU_SORT_RATE = {"gpu_edge": 2.0e9, "gpu_server": 1.0e10}


def selection_overhead_s(device_class: str, frame_level: bool = False) -> float:
    """Fixed per-invocation GPU selection overhead for a device class.

    This constant is paid once per prediction invocation regardless of how
    many streams are batched into it — the batched performance plane counts
    it once per aggregated step but once *per stream* under contention,
    where every stream launches its own selection kernels.
    """
    table = GPU_FRAME_SELECTION_OVERHEAD_S if frame_level else GPU_TOKEN_SELECTION_OVERHEAD_S
    return table[device_class]


@dataclass(frozen=True)
class RetrievalPolicy:
    """KV cache retrieval behaviour of a system."""

    name: str
    prefill_ratio: float
    generation_ratio: float
    prediction: str  # "none", "topk_token", "topk_frame", "resv"
    prediction_in_prefill: bool = True
    prediction_on_dre: bool = False
    cluster_mapping: bool = False
    overlap_fetch: bool = True
    avg_tokens_per_cluster: int = AVG_TOKENS_PER_CLUSTER

    def __post_init__(self) -> None:
        if not 0.0 < self.prefill_ratio <= 1.0:
            raise ValueError("prefill_ratio must lie in (0, 1]")
        if not 0.0 < self.generation_ratio <= 1.0:
            raise ValueError("generation_ratio must lie in (0, 1]")
        if self.prediction not in {"none", "topk_token", "topk_frame", "resv"}:
            raise ValueError(f"unknown prediction kind: {self.prediction}")
        if not self.avg_tokens_per_cluster >= 1:
            raise ValueError("avg_tokens_per_cluster must be at least 1")

    def ratio(self, stage: str) -> float:
        """Selection ratio for ``"frame"`` or ``"generation"``."""
        return self.prefill_ratio if stage == "frame" else self.generation_ratio


@dataclass(frozen=True)
class SystemConfig:
    """A device plus its KV cache management policy."""

    name: str
    device: DeviceSpec
    policy: RetrievalPolicy
    kv_offloaded: bool = True
    kv_device_budget_bytes: float = 0.0
    kv_quant_bits: int = 16
    activation_reserve_bytes: float = 2.0 * GiB

    @property
    def device_class(self) -> str:
        """Coarse class used to look up GPU overhead constants."""
        if self.device.kind == "vrex":
            return "vrex"
        return "gpu_edge" if self.device.pcie_bandwidth_gbps <= 8.0 else "gpu_server"

    @property
    def kv_bytes_scale(self) -> float:
        """KV storage scale factor relative to BF16 (Oaken stores int4)."""
        return self.kv_quant_bits / 16.0


# ---------------------------------------------------------------------- #
# retrieval policies
# ---------------------------------------------------------------------- #
def flexgen_policy() -> RetrievalPolicy:
    """FlexGen: offload everything, fetch everything, no selection."""
    return RetrievalPolicy(
        name="FlexGen",
        prefill_ratio=1.0,
        generation_ratio=1.0,
        prediction="none",
        overlap_fetch=False,
    )


def infinigen_policy() -> RetrievalPolicy:
    """InfiniGen: top-k retrieval during generation only.

    InfiniGen's speculative prediction machinery still runs at every layer
    during the iterative prefill (it is baked into its execution flow), but
    because it performs no prefill-stage selection the full cache is fetched
    anyway — prediction cost without fetch savings, which is why the paper
    finds AGX+InfiniGen slower than plain FlexGen on frame processing.
    """
    return RetrievalPolicy(
        name="InfiniGen",
        prefill_ratio=1.0,
        generation_ratio=INFINIGEN_GENERATION_RATIO,
        prediction="topk_token",
        prediction_in_prefill=True,
    )


def infinigen_p_policy() -> RetrievalPolicy:
    """InfiniGenP: top-k retrieval extended to the iterative prefill stage."""
    return RetrievalPolicy(
        name="InfiniGenP",
        prefill_ratio=INFINIGEN_P_PREFILL_RATIO,
        generation_ratio=INFINIGEN_GENERATION_RATIO,
        prediction="topk_token",
    )


def rekv_policy() -> RetrievalPolicy:
    """ReKV: frame-level top-k retrieval."""
    return RetrievalPolicy(
        name="ReKV",
        prefill_ratio=REKV_PREFILL_RATIO,
        generation_ratio=REKV_GENERATION_RATIO,
        prediction="topk_frame",
    )


def resv_policy(
    on_dre: bool = True,
    cluster_mapping: bool = True,
    enable_clustering: bool = True,
    prefill_ratio: float = RESV_PREFILL_RATIO,
    generation_ratio: float = RESV_GENERATION_RATIO,
) -> RetrievalPolicy:
    """ReSV: clustering + WiCSum, optionally with the DRE and KVMU assists.

    ``enable_clustering=False`` models the Fig. 19 ablation where WiCSum
    thresholding runs over individual tokens instead of cluster
    representatives (every token is its own cluster).
    """
    return RetrievalPolicy(
        name="ReSV" if enable_clustering else "ReSV w/o clustering",
        prefill_ratio=prefill_ratio,
        generation_ratio=generation_ratio,
        prediction="resv",
        prediction_on_dre=on_dre,
        cluster_mapping=cluster_mapping,
        avg_tokens_per_cluster=AVG_TOKENS_PER_CLUSTER if enable_clustering else 1,
    )


def no_retrieval_policy() -> RetrievalPolicy:
    """Plain full attention on a resident cache (no offload, no selection)."""
    return RetrievalPolicy(
        name="NoRetrieval",
        prefill_ratio=1.0,
        generation_ratio=1.0,
        prediction="none",
    )


# ---------------------------------------------------------------------- #
# device KV budgets (hierarchical memory management)
# ---------------------------------------------------------------------- #
def vrex_kv_budget_bytes(device: DeviceSpec, model_bytes: float, max_batch: int) -> float:
    """Per-stream resident KV budget of the hierarchical memory manager.

    The device keeps the model weights and an activation reserve resident
    and splits what is left across the maximum number of concurrent streams
    the deployment targets (batch 4 on the edge, batch 8 on the server).
    """
    require_number("max_batch", max_batch, 1, integer=True)
    require_number("model_bytes", model_bytes, finite=True)
    reserve = 4.0 * GiB if device.pcie_bandwidth_gbps <= 8.0 else 8.0 * GiB
    available = max(device.memory_capacity_bytes - model_bytes - reserve, 0.0)
    return available / max_batch


# ---------------------------------------------------------------------- #
# system factories
# ---------------------------------------------------------------------- #
def gpu_system(device: DeviceSpec, policy: RetrievalPolicy, name: str | None = None) -> SystemConfig:
    """A GPU whose KV cache is fully offloaded to CPU memory / SSD."""
    label = name or f"{device.name} + {policy.name}"
    return SystemConfig(
        name=label,
        device=device,
        policy=policy,
        kv_offloaded=True,
        kv_device_budget_bytes=0.0,
    )


def vrex_system(
    device: DeviceSpec,
    model_bytes: float,
    max_batch: int,
    on_dre: bool = True,
    cluster_mapping: bool = True,
    name: str | None = None,
) -> SystemConfig:
    """A V-Rex instance running ReSV with hierarchical KV management."""
    label = name or device.name
    return SystemConfig(
        name=label,
        device=device,
        policy=resv_policy(on_dre=on_dre, cluster_mapping=cluster_mapping),
        kv_offloaded=True,
        kv_device_budget_bytes=vrex_kv_budget_bytes(device, model_bytes, max_batch),
    )


def resident_cache_system(device: DeviceSpec, quant_bits: int = 16, name: str | None = None) -> SystemConfig:
    """Fig. 15 baselines: the cache stays on-device (FP16 or Oaken's int4)."""
    label = name or (f"{device.name} (no offload)" if quant_bits == 16 else f"{device.name} + Oaken")
    return SystemConfig(
        name=label,
        device=device,
        policy=no_retrieval_policy(),
        kv_offloaded=False,
        kv_device_budget_bytes=device.memory_capacity_bytes,
        kv_quant_bits=quant_bits,
    )


#: KV cache sequence lengths the Fig. 13-15 line-ups are swept over.
DEFAULT_KV_LENGTHS = (1_000, 5_000, 10_000, 20_000, 40_000)


def edge_systems(model_bytes: float) -> dict[str, SystemConfig]:
    """The Fig. 13(a) edge line-up."""
    return {
        "AGX + FlexGen": gpu_system(AGX_ORIN, flexgen_policy(), name="AGX + FlexGen"),
        "AGX + InfiniGen": gpu_system(AGX_ORIN, infinigen_policy(), name="AGX + InfiniGen"),
        "AGX + InfiniGenP": gpu_system(AGX_ORIN, infinigen_p_policy(), name="AGX + InfiniGenP"),
        "AGX + ReKV": gpu_system(AGX_ORIN, rekv_policy(), name="AGX + ReKV"),
        "V-Rex8": vrex_system(VREX8, model_bytes, max_batch=4, name="V-Rex8"),
    }


def server_systems(model_bytes: float) -> dict[str, SystemConfig]:
    """The Fig. 13(b) server line-up.

    The server V-Rex48 deployment follows Table I: the full KV cache lives
    in DDR4 CPU memory and the accelerator keeps only a small recent window
    resident per stream (the deployment targets one stream per core, so the
    per-stream budget is capacity divided by 48 streams).
    """
    return {
        "A100 + FlexGen": gpu_system(A100, flexgen_policy(), name="A100 + FlexGen"),
        "A100 + InfiniGen": gpu_system(A100, infinigen_policy(), name="A100 + InfiniGen"),
        "A100 + InfiniGenP": gpu_system(A100, infinigen_p_policy(), name="A100 + InfiniGenP"),
        "A100 + ReKV": gpu_system(A100, rekv_policy(), name="A100 + ReKV"),
        "V-Rex48": vrex_system(VREX48, model_bytes, max_batch=48, name="V-Rex48"),
    }


def ablation_systems(model_bytes: float) -> dict[str, SystemConfig]:
    """The Fig. 16 ablation points (all at the edge, 40K cache, batch 1)."""
    return {
        "AGX + FlexGen": gpu_system(AGX_ORIN, flexgen_policy()),
        "AGX + ReSV": gpu_system(
            AGX_ORIN, resv_policy(on_dre=False, cluster_mapping=False), name="AGX + ReSV"
        ),
        "V-Rex8 KVPU": vrex_system(
            VREX8, model_bytes, max_batch=4, on_dre=True, cluster_mapping=False, name="V-Rex8 KVPU"
        ),
        "V-Rex8 All": vrex_system(
            VREX8, model_bytes, max_batch=4, on_dre=True, cluster_mapping=True, name="V-Rex8 All"
        ),
    }


def throughput_systems(model_bytes: float) -> dict[str, SystemConfig]:
    """The Fig. 15 line-up: resident-cache AGX, Oaken, and V-Rex8."""
    return {
        "AGX Orin": resident_cache_system(AGX_ORIN, quant_bits=16, name="AGX Orin"),
        "Oaken": resident_cache_system(AGX_ORIN, quant_bits=4, name="Oaken"),
        "V-Rex8": vrex_system(VREX8, model_bytes, max_batch=16, name="V-Rex8"),
    }
