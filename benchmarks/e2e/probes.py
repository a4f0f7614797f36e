"""Micro-probes: per-layer ceilings and machine-speed references.

Each probe drives one public primitive in isolation, so the rate it reports
is an upper bound on what the layer built on that primitive can reach (the
roofline idiom: attainable = min over the primitives a layer leans on).
``reference_kernel_s`` is the machine-speed reference the harness interleaves
with the timed passes to normalise host time on a box whose speed drifts.
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import ReSVConfig
from repro.core.clustering import HashClusterTable
from repro.core.hashbit import HashBitEncoder
from repro.core.wicsum import importance_scores, wicsum_select
from repro.hw.dre.kvmu import KVFetchWork, KVMUModel
from repro.hw.event import ArrayEventQueue, EventLoop, IndexRing, PreemptiveResource, pack_subkey
from repro.hw.interconnect import PCIE5_SWITCH, InterconnectLink
from repro.hw.memory.pcie import PCIE4_X16, PCIeLink
from repro.hw.memory.sharding import ShardedKVHierarchy
from repro.sim.arrivals import PoissonArrivals, rate_for_load
from repro.sim.batched import BatchLatencyModel, StreamProfile
from repro.sim.scheduler import SchedulerConfig, ServingScheduler
from repro.sim.systems import edge_systems
from repro.sim.workload import default_llm_workload

PYLOOP_ITERATIONS = 1_000_000

_RNG = np.random.default_rng(0)
_STREAM = _RNG.normal(size=200_000)
_GATHER = _RNG.integers(0, _STREAM.size, size=_STREAM.size)
_LEFT, _RIGHT = _RNG.normal(size=(16, 64)), _RNG.normal(size=(64, 64))


def pyloop_s(iterations: int = PYLOOP_ITERATIONS) -> float:
    """Host seconds of a fixed pure-Python integer loop."""
    start = time.perf_counter()
    total = 0
    for index in range(iterations):
        total += index
    return time.perf_counter() - start


def reference_kernel_s() -> float:
    """Host seconds of a fixed machine-speed reference, about 80 ms.

    Four equal parts that lean on what the simulator leans on, and on
    nothing under ``src/`` (a change to the program cannot move it): the
    interpreter loop, object allocation in a dict of tuples, memory-bound
    numpy passes over large arrays, and many small numpy calls.  On the
    2-core sandbox host speed wanders by +-10% over minutes and the four
    mixes do not wander alike; dividing a pass's wall time by the kernel
    run right before and after it removes most of that (see README).
    """
    start = time.perf_counter()
    pyloop_s(PYLOOP_ITERATIONS // 2)
    table = {}
    for index in range(75_000):
        table[index] = (index, float(index))
    total = 0.0
    for value in table.values():
        total += value[1]
    for _ in range(4):
        gathered = _STREAM[_GATHER]
        gathered.sort()
        (gathered * 1.0001).cumsum()
    for _ in range(1_250):
        hidden = _LEFT @ _RIGHT
        weights = np.exp(hidden - hidden.max(axis=-1, keepdims=True))
        np.argsort((weights / weights.sum(axis=-1, keepdims=True))[0])
    return time.perf_counter() - start


def _rate(count: int, start: float) -> float:
    return count / (time.perf_counter() - start)


def clustering(table_tokens: int) -> dict[str, float]:
    """Steady-state HC-table update and WiCSum select rates at one table size."""
    head_dim, n_bits, chunk = 128, 32, 64
    config = ReSVConfig(hamming_threshold=7, wicsum_ratio=0.3)
    encoder = HashBitEncoder(head_dim, n_bits, seed=0)
    table = HashClusterTable(head_dim, n_bits, config.hamming_threshold)
    rng = np.random.default_rng(1)
    base = rng.normal(size=(chunk, head_dim))

    def stream_tokens(position: int, count: int) -> int:
        nonlocal base
        for _ in range(count // chunk):
            if position % 2048 == 0:  # scene cut: keeps cluster counts realistic
                base = rng.normal(size=(chunk, head_dim))
            keys = base + 0.05 * rng.normal(size=base.shape)
            table.update(keys, encoder.encode(keys), np.arange(position, position + chunk))
            position += chunk
        return position

    position = stream_tokens(0, table_tokens)
    measured = max(chunk, table_tokens // 10)
    start = time.perf_counter()
    stream_tokens(position, measured)
    update_rate = _rate(measured // chunk * chunk, start)

    queries = rng.normal(size=(8, head_dim))
    rounds = 10
    start = time.perf_counter()
    for _ in range(rounds):
        scores = importance_scores(queries @ table.key_clusters().T, head_dim)
        picked = wicsum_select(scores, table.token_counts(), config.wicsum_ratio)
        table.tokens_of(picked.selected_clusters)
    return {
        "core.clustering.update_tokens_per_s": update_rate,
        "core.clustering.select_rounds_per_s": _rate(rounds, start),
    }


def sharded_fetch_prices_per_s(count: int, banks: int = 4) -> float:
    kvmu = KVMUModel(PCIeLink(PCIE4_X16))
    hierarchy = ShardedKVHierarchy(num_banks=banks)
    hierarchy.register(0, 4.0 * 1024.0**3, num_clusters=1_250)
    split = hierarchy.fetch_split(0)
    work = KVFetchWork(17_797_840.0, 131_072.0)
    start = time.perf_counter()
    for _ in range(count):
        kvmu.sharded_fetch_time_s(work, split)
    return _rate(count, start)


def index_ring_cycles_per_s(count: int) -> float:
    ring = IndexRing(capacity=2, lanes=1)
    start = time.perf_counter()
    for _ in range(count):
        ring.push(0, 1)
        ring.pop(0)
    return _rate(count, start)


def array_queue_ops_per_s(count: int, depth: int = 256) -> float:
    """Push+pop pairs through the engine's heap policy at a scheduler-like depth."""
    queue = ArrayEventQueue("heap")
    for seq in range(depth):
        queue.push(float(seq), pack_subkey(1, seq, seq), seq)
    start = time.perf_counter()
    for seq in range(depth, depth + count):
        time_s, _sub, _payload = queue.pop()
        queue.push(time_s + depth, pack_subkey(1, seq % depth, seq), seq)
    return _rate(count, start)


def preemptive_jobs_per_s(count: int) -> float:
    """Jobs/s through the round-robin server, each job two quanta long."""
    loop = EventLoop()
    server = PreemptiveResource(loop, "probe", quantum_s=1e-3, record=False)
    for index in range(count):
        loop.schedule(
            float(index) * 1.5e-3,
            lambda index=index: server.submit(2e-3, key=(index, 0)),
        )
    start = time.perf_counter()
    loop.run()
    return _rate(count, start)


def interconnect_ships_per_s(count: int) -> float:
    link = InterconnectLink(PCIE5_SWITCH, record=False)
    start = time.perf_counter()
    for index in range(count):
        link.ship(float(index), 1.0e9, session_id=index, src_device=0, dst_device=1)
    return _rate(count, start)


def reference_engine_events_per_s(streams: int = 64, frames: int = 40) -> float:
    """The repo's machine normaliser: the reference event loop, 64 x 40 private."""
    system = edge_systems(default_llm_workload().model_bytes())["V-Rex8"]
    plane = BatchLatencyModel()
    profiles = [StreamProfile(kv_len=40_000, session_id=index) for index in range(streams)]
    solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
    scheduler = ServingScheduler(
        plane, SchedulerConfig(deadline_s=2.0 * solo, max_queue_depth=8), engine="reference"
    )
    traces = PoissonArrivals(rate_hz=rate_for_load(0.7, solo, streams)).generate(
        streams, frames, seed=0
    )
    start = time.perf_counter()
    result = scheduler.run(system, profiles, traces)
    return _rate(result.events_processed, start)


def run_all(scale: float = 1.0) -> dict[str, float]:
    """Every ceiling and machine reference; ``scale`` shrinks the op counts."""

    def n(count: int) -> int:
        return max(64, int(count * scale))

    return {
        **clustering(n(10_000)),
        "hw.kvmu.sharded_fetch_prices_per_s_b4": sharded_fetch_prices_per_s(n(5_000)),
        "hw.event.index_ring_cycles_per_s": index_ring_cycles_per_s(n(200_000)),
        "hw.event.array_queue_ops_per_s": array_queue_ops_per_s(n(100_000)),
        "hw.event.preemptive_jobs_per_s": preemptive_jobs_per_s(n(20_000)),
        "hw.interconnect.ships_per_s": interconnect_ships_per_s(n(50_000)),
        "machine.ref_events_per_s": reference_engine_events_per_s(frames=max(4, int(40 * scale))),
        "machine.pyloop_mops": PYLOOP_ITERATIONS / pyloop_s() / 1e6,
    }
