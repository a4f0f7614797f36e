"""System-level latency pipelines for the streaming video LLM.

This is the reproduction's stand-in for the paper's custom cycle-level
simulator: for a given :class:`repro.sim.systems.SystemConfig`, KV cache
length and batch size it assembles the per-layer timeline of

* dense LLM compute (QKV generation, attention over the retrieved tokens,
  FFN) on the GPU or the LXE,
* KV prediction (the retrieval algorithm's selection work) on the GPU or
  the DRE,
* KV fetch of the selected-but-offloaded entries over PCIe (and through the
  SSD on the edge platform),

into per-frame latency, time-per-output-token, end-to-end scenario latency
and the associated energy — the quantities behind Fig. 4, 13, 14, 15, 16,
17 and 18.  A layer's three demands are derived in one place,
:meth:`LatencyModel._layer_demands`, over a column of cache lengths: the
steps and the Fig. 17 layer timeline read a column of one, the batched
plane's demand table (:mod:`repro.sim.batched`) one column per group of
misses.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.config import StreamingConfig, require_number
from repro.hw.accelerator import VRexAccelerator
from repro.hw.compute import KernelCost
from repro.hw.dre.hcu import HCUWork
from repro.hw.dre.kvmu import KVFetchWork
from repro.hw.dre.wtu import WTUWork
from repro.hw.energy import EnergyModel
from repro.hw.event import Timeline
from repro.hw.gpu import GPUDevice
from repro.sim.systems import (
    AVG_TOKENS_PER_CLUSTER,
    EARLY_EXIT_SORT_FRACTION,
    GPU_SORT_RATE,
    SystemConfig,
    selection_overhead_s,
)
from repro.sim.workload import TransformerWorkload, VisionWorkload, default_llm_workload, default_vision_workload

FRAME_STAGE = "frame"
GENERATION_STAGE = "generation"

#: Largest cache length, question length and batch a pricer accepts: every
#: :class:`LatencyModel` step, a :class:`~repro.sim.batched.StreamProfile`
#: and a scheduler run check them (``LatencyModel._layer_demands`` says why
#: they keep its int64 demand columns exact).
MAX_KV_LEN = 2**32
MAX_Q_LEN = 2**20
MAX_BATCH = 2**16


def _require_sizes(kv_len: int, batch: int) -> None:
    """Raise a ``ValueError`` naming ``kv_len`` or ``batch`` unless both are valid sizes."""
    require_number("kv_len", kv_len, integer=True, maximum=MAX_KV_LEN)
    require_number("batch", batch, 1, integer=True, maximum=MAX_BATCH)


def _selected_tokens(kv_lens, ratio: float):
    """Tokens a ratio selects per cache length (``np.rint`` rounds half to even, as ``round``)."""
    return np.rint(np.multiply(kv_lens, ratio)).astype(np.int64)


#: Rate (bit-operations per second) at which a GPU executes the
#: data-dependent Hamming-distance clustering loop of ReSV; the sequential,
#: conditional structure keeps it far below the GPU's arithmetic peak
#: (this is the inefficiency the HCU removes).
GPU_CLUSTERING_RATE = {"gpu_edge": 3.0e8, "gpu_server": 1.5e9}


def gpu_sequential_fraction(ratio: float) -> float:
    """Contiguity of a GPU fetch at a selection ratio.

    A full-cache fetch (FlexGen) streams sequentially; token-granular
    selections scatter across the offloaded layout.
    """
    return 0.95 if ratio >= 0.999 else 0.5


def overlap_latency(
    is_vrex: bool, overlaps: bool, compute: float, prediction: float, fetch: float
) -> float:
    """Latency of compute, KV prediction and KV fetch under one overlap rule.

    The pure core of :func:`overlap_rules`, shared with the scheduler's
    no-queueing estimate, which applies it to whole-stage totals rather
    than per-layer values.
    """
    if is_vrex:
        return max(compute, prediction + fetch)
    if overlaps:
        return prediction + max(compute, fetch)
    return prediction + compute + fetch


def overlap_rules(
    system: SystemConfig,
    stage: str,
    compute_layer: float,
    prediction_layer: float,
    fetch_layer: float,
) -> tuple[float, float, float]:
    """Per-layer latency and exposed prediction/fetch under a system's overlap.

    The single source of the overlap semantics shared by ``LatencyModel``
    and the batched plane:

    * V-Rex — prediction and prefetch for the next layer overlap with this
      layer's compute (Fig. 5 iii); only the excess is exposed.
    * overlapping GPU — the prefetch overlaps compute but the prediction
      kernels compete with the LLM kernels for the same SMs (Fig. 5 ii).
    * serial — FlexGen's load-then-compute iterative prefill (Fig. 5 i);
      its generation pipeline overlaps I/O with compute as designed, so the
      serial rule applies to the frame stage only.
    """
    overlaps = system.policy.overlap_fetch or stage == GENERATION_STAGE
    is_vrex = system.device.kind == "vrex"
    layer_latency = overlap_latency(is_vrex, overlaps, compute_layer, prediction_layer, fetch_layer)
    if is_vrex:
        hidden = prediction_layer + fetch_layer
        exposed_prediction = max(0.0, min(prediction_layer, hidden - compute_layer))
        exposed_fetch = max(0.0, hidden - compute_layer - exposed_prediction)
    elif overlaps:
        exposed_prediction = prediction_layer
        exposed_fetch = max(0.0, fetch_layer - compute_layer)
    else:
        exposed_prediction = prediction_layer
        exposed_fetch = fetch_layer
    return layer_latency, exposed_prediction, exposed_fetch


@dataclass
class MeasuredRetrieval:
    """Functional-plane measurements that calibrate the performance plane.

    Defaults are the paper's published averages; a measured session (via
    :meth:`from_session_report`) replaces them
    with the stream's actual WiCSum sort fraction and cluster occupancy, so
    per-session latency estimates track what that stream really did instead
    of the single-stream ``last_*`` attributes the old API exposed.
    """

    sort_fraction: float = EARLY_EXIT_SORT_FRACTION
    avg_tokens_per_cluster: float = float(AVG_TOKENS_PER_CLUSTER)

    def __post_init__(self) -> None:
        require_number("sort_fraction", self.sort_fraction, maximum=1)
        require_number(
            "avg_tokens_per_cluster", self.avg_tokens_per_cluster, exclusive=True, finite=True
        )

    @classmethod
    def from_session_report(cls, report) -> "MeasuredRetrieval":
        """Build from a :class:`repro.model.streaming.SessionReport`.

        Published averages are used only where the session genuinely has no
        data (no WiCSum scoring performed / no clusters formed); a measured
        value of zero from real work is kept as-is.
        """
        has_sort_data = getattr(report, "wicsum_score_elements", 0) > 0
        has_clusters = report.num_clusters > 0
        return cls(
            sort_fraction=report.sort_fraction if has_sort_data else EARLY_EXIT_SORT_FRACTION,
            avg_tokens_per_cluster=report.mean_tokens_per_cluster
            if has_clusters
            else float(AVG_TOKENS_PER_CLUSTER),
        )


@dataclass(frozen=True)
class PredictionParts:
    """One stream's per-layer KV-prediction demand, split for batched pricing.

    ``dense_flops`` run on the dense engine (LXE) or the GPU's irregular
    engine and aggregate across streams at the kernel-cost level;
    ``serial_s`` is the stream's data-dependent work (DRE HCU+WTU time, or
    the GPU's clustering loop + threshold sort) which is linear in the
    stream's demand; ``overhead_s`` is the fixed kernel-launch/sync cost
    paid once per prediction invocation.
    """

    engine: str  # "dense" (LXE / GPU dense kernels) or "irregular" (GPU top-k scoring)
    dense_flops: float
    serial_s: float
    overhead_s: float
    on_dre: bool


def _channel_fetch_time_s(device, locality: float, num_bytes: float, from_ssd: bool) -> float:
    """Single-channel fetch time: the KVMU on V-Rex, a plain DMA on a GPU."""
    if isinstance(device, VRexAccelerator):
        return device.fetch_time_s(KVFetchWork(num_bytes, locality, from_ssd=from_ssd))
    return device.fetch_time_s(num_bytes, from_ssd=from_ssd, sequential_fraction=locality)


@dataclass(frozen=True, slots=True)
class _DemandEntry:
    """One layer's compute, prediction and fetch demand: a row of ``_layer_demands``.

    Derived for ``batch`` identical streams (``parts`` stays one stream's);
    the batched plane's demand table holds the batch-1 rows, one immutable
    row per stream: the part of its demand that does not depend on the
    memory plane's live residency, and nothing of the profile it was
    derived from.
    """

    compute_cost: KernelCost
    parts: PredictionParts | None
    compute_layer_s: float  # device.dense_time_s(compute_cost)
    prediction_layer_s: float  # parts priced on their engine, plus serial and overhead
    fetch_bytes: float = 0.0
    fetch_service_s: float = 0.0  # single-channel fetch (incl. link/SSD latency)
    pcie_occupancy_s: float = 0.0  # bytes-on-the-wire time, no request latency
    ssd_occupancy_s: float = 0.0  # SSD media time, no access latency
    # the one-channel fetch pricer behind warm_time_s/cold_time_s (None when
    # the stream fetches nothing): KVMU chunk bytes on V-Rex, the sequential
    # fraction on a GPU
    fetch_device: object = None
    fetch_locality: float = 0.0
    from_ssd: bool = False

    @property
    def on_dre(self) -> bool:
        return self.parts is not None and self.parts.on_dre

    def warm_time_s(self, num_bytes: float) -> float:
        """One channel's fetch of ``num_bytes`` from the offload target."""
        return _channel_fetch_time_s(
            self.fetch_device, self.fetch_locality, num_bytes, self.from_ssd
        )

    def cold_time_s(self, num_bytes: float) -> float:
        """One channel's fetch of ``num_bytes`` demoted to the SSD tier."""
        return _channel_fetch_time_s(self.fetch_device, self.fetch_locality, num_bytes, True)


@dataclass
class StepResult:
    """Latency and accounting of one pipeline step (one frame or one token)."""

    system: str
    stage: str
    kv_len: int
    batch: int
    total_s: float
    breakdown: dict[str, float] = field(default_factory=dict)
    dense_flops: float = 0.0
    dram_bytes: float = 0.0
    pcie_bytes: float = 0.0
    pcie_busy_s: float = 0.0
    oom: bool = False

    @property
    def total_ms(self) -> float:
        return self.total_s * 1e3

    @property
    def fps(self) -> float:
        """Frames per second across the whole batch."""
        if self.total_s <= 0 or self.oom:
            return 0.0
        return self.batch / self.total_s


@dataclass
class ScenarioResult:
    """End-to-end latency of the COIN working scenario at a given cache size."""

    system: str
    kv_len: int
    batch: int
    total_s: float
    vision_s: float
    prefill_s: float
    generation_s: float
    oom: bool = False

    def breakdown_fractions(self) -> dict[str, float]:
        """Share of each stage in the end-to-end latency."""
        if self.total_s <= 0:
            return {"vision": 0.0, "prefill": 0.0, "generation": 0.0}
        return {
            "vision": self.vision_s / self.total_s,
            "prefill": self.prefill_s / self.total_s,
            "generation": self.generation_s / self.total_s,
        }


class LatencyModel:
    """Assembles per-step latencies for any configured system."""

    def __init__(
        self,
        llm: TransformerWorkload | None = None,
        vision: VisionWorkload | None = None,
        streaming: StreamingConfig | None = None,
        measured: MeasuredRetrieval | None = None,
    ):
        self.llm = llm or default_llm_workload()
        self.vision = vision or default_vision_workload()
        self.streaming = streaming or StreamingConfig()
        self.measured = measured or MeasuredRetrieval()
        self.energy = EnergyModel()
        self._devices: dict[str, object] = {}
        model = self.llm.model
        query = max(MAX_Q_LEN, model.tokens_per_frame, self.streaming.question_tokens)
        per_token = max(
            self.llm.kv_bytes_per_token(), self.llm.kv_bytes_per_token_per_layer() * MAX_BATCH
        )
        if (  # the int64 bounds of _layer_demands' columns
            query * MAX_KV_LEN * max(32 * model.num_kv_heads, model.num_heads) >= 2**63
            or self.llm.weight_bytes_per_layer() + MAX_KV_LEN * per_token >= 2**63
        ):
            raise ValueError(
                f"model {model.name!r} is too large to price exactly: see MAX_KV_LEN"
            )

    # ------------------------------------------------------------------ #
    # device construction
    # ------------------------------------------------------------------ #
    def device_for(self, system: SystemConfig):
        """Instantiate (and cache) the device model backing a system."""
        key = f"{system.name}|{system.policy.cluster_mapping}"
        if key not in self._devices:
            if system.device.kind == "vrex":
                self._devices[key] = VRexAccelerator(
                    system.device, cluster_mapping=system.policy.cluster_mapping
                )
            else:
                self._devices[key] = GPUDevice(system.device)
        return self._devices[key]

    # ------------------------------------------------------------------ #
    # memory accounting
    # ------------------------------------------------------------------ #
    def resident_bytes(self, system: SystemConfig, kv_len: int, batch: int) -> float:
        """Device-memory working set (weights + resident KV + reserve)."""
        _require_sizes(kv_len, batch)
        cache_bytes = self.llm.kv_cache_bytes(kv_len, batch) * system.kv_bytes_scale
        if system.kv_offloaded:
            resident_cache = min(cache_bytes, system.kv_device_budget_bytes * batch)
        else:
            resident_cache = cache_bytes
        return self.llm.model_bytes() + resident_cache + system.activation_reserve_bytes

    def is_oom(self, system: SystemConfig, kv_len: int, batch: int) -> bool:
        """Whether the working set exceeds device memory (Fig. 15)."""
        return self.resident_bytes(system, kv_len, batch) > system.device.memory_capacity_bytes

    def offloaded_fraction(self, system: SystemConfig, kv_len, batch: int):
        """Fraction of the (per-stream) KV cache that lives off-device.

        ``kv_len`` is a cache length, or the demand derivation's int64 column
        of them (bounded there), priced element by element.
        """
        column = isinstance(kv_len, np.ndarray)
        if not column:
            _require_sizes(kv_len, batch)
        kv = kv_len if column else np.array([kv_len], dtype=np.int64)
        del batch  # the budget is already expressed per stream
        shares = np.zeros(kv.size)
        if system.kv_offloaded:
            per_stream_bytes = self.llm.kv_cache_bytes(kv, 1) * system.kv_bytes_scale
            with np.errstate(divide="ignore", invalid="ignore"):
                shares = np.maximum(0.0, 1.0 - system.kv_device_budget_bytes / per_stream_bytes)
            shares = np.where(per_stream_bytes <= 0, 0.0, shares)
        return shares if column else shares.item()

    # ------------------------------------------------------------------ #
    # pipeline components
    # ------------------------------------------------------------------ #
    def _avg_tokens_per_cluster(
        self, system: SystemConfig, measured: MeasuredRetrieval | None = None
    ) -> float:
        """Cluster occupancy for a system's retrieval policy.

        An explicitly configured ``RetrievalPolicy.avg_tokens_per_cluster``
        (occupancy sweeps, the clustering-disabled ablation's 1) always
        wins; only policies left at the published default are calibrated by
        the functional-plane measurement — either this model's global
        ``self.measured`` or a per-stream override from the batched plane.
        """
        policy_avg = system.policy.avg_tokens_per_cluster
        if policy_avg != AVG_TOKENS_PER_CLUSTER:
            return float(policy_avg)
        if measured is None:
            measured = self.measured
        return measured.avg_tokens_per_cluster

    def _contiguous_bytes(
        self, system: SystemConfig, measured: MeasuredRetrieval | None = None
    ) -> float:
        """Mean contiguous chunk a KVMU fetch sees under the current mapping."""
        if system.policy.cluster_mapping:
            return (
                self._avg_tokens_per_cluster(system, measured)
                * self.llm.kv_bytes_per_token_per_layer()
            )
        return self.llm.kv_bytes_per_token_per_layer()

    # Why every int64 value of :meth:`_layer_demands` is exact under the
    # pricers' MAX_KV_LEN, MAX_Q_LEN and MAX_BATCH: a query is q <=
    # max(MAX_Q_LEN, tokens_per_frame, the default question length) and a
    # cluster or top-k candidate count is <= MAX_KV_LEN (a policy occupancy
    # is >= 1 and a profile bounds kv_len // its measured one), so each int64
    # value is at most q * MAX_KV_LEN * max(32 * kv_heads, heads) (the HCU,
    # WTU and top-k element counts), MAX_KV_LEN * KV bytes per token (a
    # stream's cache bytes) or weight bytes per layer + MAX_KV_LEN * KV bytes
    # per token per layer * MAX_BATCH (``layer_cost``'s DRAM bytes: its KV
    # read is the one int product with ``batch``; every other ``* batch``
    # multiplies a float).  ``__init__`` rejects a model for which one
    # reaches 2**63 (Llama-3-8B: 2**60, 2**49 and 2**60), and below 2**63 the
    # int64 -> float64 cast rounds half to even, as ``float(int)`` does.
    def _layer_demands(
        self,
        system: SystemConfig,
        kv_lens: Sequence[int],
        q_len: int,
        stage: str,
        batch: int = 1,
        measured: MeasuredRetrieval | None = None,
        ratio: float | None = None,
    ) -> list[_DemandEntry]:
        """One layer's compute, prediction and fetch demand of ``batch`` streams, per cache length.

        The one derivation every pricer reads: :meth:`_step` and
        :meth:`layer_timeline` take the row of a column of one, the batched
        plane's demand table one column per group of keys that differ only
        in ``kv_len``.  ``measured`` and ``ratio`` override the model's
        calibration and the policy's retrieval ratio.  Every other input is
        shared, so each term is a constant or one numpy column and a row
        depends on its own cache length only: ``int(round(x))`` is
        ``np.rint``, ``//`` is ``np.floor_divide``, ``max`` is
        ``np.maximum``, integer products stay int64 and are cast once as
        ``float(...)`` casts them.  The workload, roofline and DRE formulas
        are called on the columns; the link and SSD prices, scalar in
        ``hw/``, are inlined and equal ``fetch_device``'s bit for bit.
        """
        llm, model, policy = self.llm, self.llm.model, system.policy
        if measured is None:
            measured = self.measured
        device = self.device_for(system)
        is_vrex = isinstance(device, VRexAccelerator)
        dense = device.lxe if is_vrex else device.dense_engine
        if max(kv_lens) > MAX_KV_LEN:  # a profile edited in place past its check
            raise ValueError(f"kv_len must be at most {MAX_KV_LEN}, got {max(kv_lens)}")
        kv = np.array(kv_lens, dtype=np.int64)
        effective_ratio = policy.ratio(stage) if ratio is None else ratio
        selected = _selected_tokens(kv, effective_ratio)
        cost = llm.layer_cost(q_len, selected, batch)
        compute_layer_s = np.maximum(dense.compute_time_s(cost), dense.memory_time_s(cost))

        # the prediction parts: engine, dense FLOPs, serial seconds, overhead, on_dre
        prediction = None
        if (
            policy.prediction != "none"
            and q_len > 0
            and (stage != FRAME_STAGE or policy.prediction_in_prefill)
        ):
            device_class = system.device_class
            if policy.prediction == "resv":
                avg = self._avg_tokens_per_cluster(system, measured)
                clusters = np.maximum(np.floor_divide(kv, avg).astype(np.int64), 1)
                dense_flops = llm.resv_hashbit_flops(q_len, 32) + llm.resv_score_flops(
                    q_len, clusters
                )
                rows = q_len * model.num_heads
                if policy.prediction_on_dre and is_vrex:
                    serial_s = device.prediction_time_s(
                        HCUWork(q_len, clusters, n_bits=32, kv_heads=model.num_kv_heads),
                        WTUWork(rows, clusters, sort_fraction=measured.sort_fraction),
                    )
                    prediction = ("dense", dense_flops, serial_s, 0.0, True)
                else:
                    # ReSV executed entirely on a GPU (the Fig. 16 AGX+ReSV
                    # point): the matrix pieces run as dense kernels, but the
                    # conditional clustering loop and the per-row threshold
                    # sort crawl.  With clustering disabled (Fig. 19 ablation)
                    # there is no Hamming clustering loop at all.
                    bit_ops = q_len * clusters * 32 * model.num_kv_heads
                    clustering = (
                        bit_ops / GPU_CLUSTERING_RATE[device_class]
                        if policy.avg_tokens_per_cluster > 1
                        else 0.0
                    )
                    sorting = rows * clusters / GPU_SORT_RATE[device_class]
                    overhead_s = selection_overhead_s(device_class)
                    prediction = ("dense", dense_flops, clustering + sorting, overhead_s, False)
            else:
                frame_level = policy.prediction == "topk_frame"
                dense_flops = llm.topk_prediction_flops(q_len, kv, frame_level=frame_level)
                sort_elements = llm.topk_sort_elements(q_len, kv, frame_level=frame_level)
                serial_s = sort_elements / GPU_SORT_RATE[device_class]
                overhead_s = selection_overhead_s(device_class, frame_level)
                prediction = ("irregular", dense_flops, serial_s, overhead_s, False)
        if prediction is not None:
            engine, dense_flops, serial_s, overhead_s, on_dre = prediction
            matrix = dense if engine == "dense" else device.irregular_engine
            flops = KernelCost(dense_flops * batch)
            prediction_layer_s = (
                np.maximum(matrix.compute_time_s(flops), matrix.memory_time_s(flops))
                + serial_s * batch
            ) + overhead_s
            dense_flops, serial_s = dense_flops.tolist(), serial_s.tolist()
            prediction_layer_s = prediction_layer_s.tolist()

        # the selected-but-offloaded tokens' bytes and the one-channel fetch's prices
        fetch_bytes = (
            selected
            * self.offloaded_fraction(system, kv, batch)
            * llm.kv_bytes_per_token_per_layer()
            * system.kv_bytes_scale
            * batch
        )
        if (fetch_bytes > 0).any():
            from_ssd = system.device.offload_target == "ssd"
            if is_vrex:
                locality = self._contiguous_bytes(system, measured)
                # the link efficiency reads the fetch's contiguity only
                efficiency = device.kvmu.link_efficiency(KVFetchWork(0.0, locality, from_ssd))
                ssd_sequential = device.kvmu.ssd_sequential_fraction()
            else:
                locality = ssd_sequential = gpu_sequential_fraction(effective_ratio)
                efficiency = system.device.pcie_efficiency
            # PCIeLink.occupancy_s / transfer_time_s and SSDModel.read_occupancy_s
            link, ssd = device.link.config, device.ssd.config
            pcie_occupancy = fetch_bytes / (link.bandwidth_gbps * 1e9 * efficiency)
            service_s = np.where(
                pcie_occupancy == 0.0,  # simlint: exact — transfer_time_s's zero-byte sentinel
                0.0,
                link.latency_us * 1e-6 + pcie_occupancy,
            )
            ssd_occupancy = np.zeros(kv.size)
            if from_ssd:
                sequential_bytes = fetch_bytes * ssd_sequential
                ssd_occupancy = sequential_bytes / (ssd.sequential_read_gbps * 1e9) + (
                    fetch_bytes - sequential_bytes
                ) / (ssd.random_read_gbps * 1e9)
                service_s = np.maximum(service_s, ssd.read_latency_us * 1e-6 + ssd_occupancy)
            service_s, pcie_occupancy = service_s.tolist(), pcie_occupancy.tolist()
            ssd_occupancy = ssd_occupancy.tolist()

        entries = []
        for row, (kv_len, flops, dram_bytes, compute_s, per_layer_bytes) in enumerate(
            zip(
                kv_lens,
                cost.flops.tolist(),
                cost.dram_bytes.tolist(),
                compute_layer_s.tolist(),
                fetch_bytes.tolist(),
                strict=True,
            )
        ):
            parts, prediction_s = None, 0.0
            if prediction is not None and kv_len != 0:
                parts = PredictionParts(engine, dense_flops[row], serial_s[row], overhead_s, on_dre)
                prediction_s = prediction_layer_s[row]
            compute_cost = KernelCost(flops, dram_bytes)
            if per_layer_bytes <= 0:
                entries.append(_DemandEntry(compute_cost, parts, compute_s, prediction_s))
                continue
            entries.append(
                _DemandEntry(
                    compute_cost,
                    parts,
                    compute_s,
                    prediction_s,
                    fetch_bytes=per_layer_bytes,
                    fetch_service_s=service_s[row],
                    pcie_occupancy_s=pcie_occupancy[row],
                    ssd_occupancy_s=ssd_occupancy[row],
                    fetch_device=device,
                    fetch_locality=locality,
                    from_ssd=from_ssd,
                )
            )
        return entries

    def _vision_time(self, system: SystemConfig, batch: int) -> tuple[float, KernelCost]:
        cost = self.vision.frame_cost(batch)
        device = self.device_for(system)
        return device.dense_time_s(cost), cost

    # ------------------------------------------------------------------ #
    # pipeline steps
    # ------------------------------------------------------------------ #
    def _step(
        self,
        system: SystemConfig,
        kv_len: int,
        batch: int,
        q_len: int,
        stage: str,
        include_vision: bool,
    ) -> StepResult:
        require_number("question_tokens", q_len, integer=True, maximum=MAX_Q_LEN)
        policy = system.policy
        oom = self.is_oom(system, kv_len, batch)  # checks kv_len and batch first
        if q_len <= 0:
            # An empty stage (e.g. ``question_tokens=0``) prefills no tokens,
            # triggers no prediction and fetches nothing.
            vision_time = self._vision_time(system, batch)[0] if include_vision else 0.0
            return StepResult(
                system=system.name,
                stage=stage,
                kv_len=kv_len,
                batch=batch,
                total_s=vision_time,
                breakdown={
                    "vision": vision_time,
                    "llm_compute": 0.0,
                    "kv_prediction": 0.0,
                    "kv_fetch": 0.0,
                    "kv_prediction_raw": 0.0,
                    "kv_fetch_raw": 0.0,
                    "prediction_on_dre": 0.0,
                },
                oom=oom,
            )
        (demand,) = self._layer_demands(system, [kv_len], q_len, stage, batch)
        layer_cost = demand.compute_cost
        compute_layer = demand.compute_layer_s
        prediction_layer = demand.prediction_layer_s
        fetch_layer = demand.fetch_service_s

        layer_latency, exposed_prediction, exposed_fetch = overlap_rules(
            system, stage, compute_layer, prediction_layer, fetch_layer
        )

        num_layers = self.llm.model.num_layers
        compute_total = compute_layer * num_layers
        prediction_total = exposed_prediction * num_layers
        fetch_total = exposed_fetch * num_layers
        llm_total = layer_latency * num_layers

        vision_time = 0.0
        vision_cost = KernelCost(0.0, 0.0)
        if include_vision:
            vision_time, vision_cost = self._vision_time(system, batch)

        total = llm_total + vision_time
        breakdown = {
            "vision": vision_time,
            "llm_compute": compute_total,
            "kv_prediction": prediction_total,
            "kv_fetch": fetch_total,
            "kv_prediction_raw": prediction_layer * num_layers,
            "kv_fetch_raw": fetch_layer * num_layers,
            "prediction_on_dre": float(demand.on_dre),
        }
        dense_flops = layer_cost.flops * num_layers + vision_cost.flops
        dram_bytes = layer_cost.dram_bytes * num_layers + vision_cost.dram_bytes
        pcie_bytes = demand.fetch_bytes * num_layers
        pcie_busy = fetch_layer * num_layers
        return StepResult(
            system=system.name,
            stage=stage,
            kv_len=kv_len,
            batch=batch,
            total_s=total,
            breakdown=breakdown,
            dense_flops=dense_flops,
            dram_bytes=dram_bytes,
            pcie_bytes=pcie_bytes,
            pcie_busy_s=min(pcie_busy, total),
            oom=oom,
        )

    def frame_step(self, system: SystemConfig, kv_len: int, batch: int = 1) -> StepResult:
        """Latency of processing one incoming video frame (iterative prefill)."""
        return self._step(
            system,
            kv_len,
            batch,
            q_len=self.llm.model.tokens_per_frame,
            stage=FRAME_STAGE,
            include_vision=True,
        )

    def question_step(
        self, system: SystemConfig, kv_len: int, batch: int = 1, question_tokens: int | None = None
    ) -> StepResult:
        """Latency of prefilling the user's question tokens.

        An explicit ``question_tokens=0`` prices an empty prefill (no work),
        not the published default.
        """
        q_len = self.streaming.question_tokens if question_tokens is None else question_tokens
        return self._step(
            system, kv_len, batch, q_len=q_len, stage=FRAME_STAGE, include_vision=False
        )

    def generation_step(self, system: SystemConfig, kv_len: int, batch: int = 1) -> StepResult:
        """Time per output token (TPOT) during answer generation."""
        return self._step(
            system, kv_len, batch, q_len=1, stage=GENERATION_STAGE, include_vision=False
        )

    # ------------------------------------------------------------------ #
    # composite results
    # ------------------------------------------------------------------ #
    def e2e_scenario(
        self,
        system: SystemConfig,
        kv_len: int,
        batch: int = 1,
        frames: int | None = None,
        answer_tokens: int | None = None,
    ) -> ScenarioResult:
        """End-to-end COIN working scenario (26 frames, 25+39 text tokens).

        Explicit zeros are honoured: ``frames=0`` prices a scenario with no
        video prefill and ``answer_tokens=0`` one with no generation, rather
        than silently falling back to the published defaults.
        """
        frames = self.streaming.frames_per_query if frames is None else frames
        answer_tokens = self.streaming.answer_tokens if answer_tokens is None else answer_tokens
        require_number("frames", frames, integer=True)
        require_number("answer_tokens", answer_tokens, integer=True)
        frame = self.frame_step(system, kv_len, batch)
        question = self.question_step(system, kv_len, batch)
        generation = self.generation_step(system, kv_len, batch)
        vision_s = frame.breakdown["vision"] * frames
        prefill_s = (frame.total_s - frame.breakdown["vision"]) * frames + question.total_s
        generation_s = generation.total_s * answer_tokens
        return ScenarioResult(
            system=system.name,
            kv_len=kv_len,
            batch=batch,
            total_s=vision_s + prefill_s + generation_s,
            vision_s=vision_s,
            prefill_s=prefill_s,
            generation_s=generation_s,
            oom=frame.oom,
        )

    def step_energy_j(self, system: SystemConfig, step: StepResult) -> float:
        """Energy of one pipeline step."""
        return self.energy.inference_energy_j(
            system.device,
            latency_s=step.total_s,
            pcie_busy_s=step.pcie_busy_s,
            dram_bytes=step.dram_bytes,
        )

    def step_efficiency_gops_w(self, system: SystemConfig, step: StepResult) -> float:
        """Energy efficiency (effective GOPS/W) of one pipeline step."""
        energy = self.step_energy_j(system, step)
        return self.energy.efficiency_gops_per_w(step.dense_flops, energy)

    # ------------------------------------------------------------------ #
    # timelines (Fig. 17)
    # ------------------------------------------------------------------ #
    def layer_timeline(self, system: SystemConfig, kv_len: int, batch: int = 1) -> Timeline:
        """Activity timeline of one decoder layer during frame processing."""
        _require_sizes(kv_len, batch)
        q_len = self.llm.model.tokens_per_frame
        selected = int(_selected_tokens(kv_len, system.policy.ratio(FRAME_STAGE)))
        device = self.device_for(system)
        qkv_cost = KernelCost(
            (self.llm.qkv_flops(q_len)) * batch,
            self.llm.weight_bytes_per_layer() * 0.35,
        )
        attn_cost = KernelCost(
            (self.llm.attention_flops(q_len, selected + q_len) + self.llm.output_proj_flops(q_len)) * batch,
            selected * self.llm.kv_bytes_per_token_per_layer() * batch
            + self.llm.weight_bytes_per_layer() * 0.3,
        )
        ffn_cost = KernelCost(
            self.llm.ffn_flops(q_len) * batch, self.llm.weight_bytes_per_layer() * 0.35
        )
        qkv_t = device.dense_time_s(qkv_cost)
        attn_t = device.dense_time_s(attn_cost)
        ffn_t = device.dense_time_s(ffn_cost)
        (demand,) = self._layer_demands(system, [kv_len], q_len, FRAME_STAGE, batch)
        prediction_t = demand.prediction_layer_s
        fetch_bytes, fetch_t = demand.fetch_bytes, demand.fetch_service_s

        timeline = Timeline()
        bandwidth = system.device.memory_bandwidth_gbps

        def bw(cost: KernelCost, duration: float) -> float:
            if duration <= 0:
                return 0.0
            return min(cost.dram_bytes / duration / 1e9, bandwidth)

        timeline.add("QKV Gen", "compute", 0.0, qkv_t, bw(qkv_cost, qkv_t))
        timeline.add("Attention", "compute", qkv_t, attn_t, bw(attn_cost, attn_t))
        timeline.add("FFN", "compute", qkv_t + attn_t, ffn_t, bw(ffn_cost, ffn_t))
        # KV prediction for the next layer runs concurrently with attention.
        timeline.add("KV Prediction", "dre", qkv_t, prediction_t, bandwidth * 0.3)
        # KV retrieval trickles in over most of the layer at PCIe rate.
        fetch_bw = 0.0
        if fetch_t > 0:
            fetch_bw = min(fetch_bytes / fetch_t / 1e9, system.device.pcie_bandwidth_gbps)
        timeline.add("KV Retrieval", "pcie", 0.0, max(fetch_t, 0.0), fetch_bw)
        return timeline
