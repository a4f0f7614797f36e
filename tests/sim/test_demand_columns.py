"""The demand table, pinned bit for bit.

Every field of every :class:`~repro.sim.pipeline._DemandEntry` the batched
plane derives — for the ten Fig. 13 systems plus variants that reach every
derivation branch, three job kinds and a cache-length set that covers the
``edge_overload`` benchmark population and the table's edges — is hashed
as ``float.hex`` / ``repr`` in key order.  A change to *how* misses are
derived (the whole chain from selected tokens to the fetch occupancies)
must leave the digest unmoved.  Two laws hold beside it: the plane's entry
for a stream is ``LatencyModel._layer_demands`` over that stream's cache
length alone (a hypothesis property over random profile columns), and every
fetching entry prices its fetch as ``hw/``'s link and SSD models do.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.hw.accelerator import VRexAccelerator
from repro.hw.dre.kvmu import KVFetchWork
from repro.sim.batched import BatchLatencyModel, StreamProfile
from repro.sim.pipeline import FRAME_STAGE, GENERATION_STAGE, MeasuredRetrieval
from repro.sim.systems import (
    ablation_systems,
    edge_systems,
    server_systems,
    throughput_systems,
)
from repro.sim.workload import default_llm_workload

#: the largest cache length a StreamProfile accepts
KV_LEN_BOUND = 2**32

MODEL_BYTES = default_llm_workload().model_bytes()


def _variant(system, name, **policy_changes):
    return dataclasses.replace(
        system, name=name, policy=dataclasses.replace(system.policy, **policy_changes)
    )


def _systems():
    """The ten Fig. 13 systems, then one variant per branch they leave out."""
    edge = edge_systems(MODEL_BYTES)
    systems = {**edge, **server_systems(MODEL_BYTES)}
    ablation = ablation_systems(MODEL_BYTES)
    systems["AGX + ReSV"] = ablation["AGX + ReSV"]  # ReSV on a GPU
    systems["V-Rex8 KVPU"] = ablation["V-Rex8 KVPU"]  # no cluster-wise mapping
    systems["Oaken"] = throughput_systems(MODEL_BYTES)["Oaken"]  # resident int4 cache
    systems["V-Rex8 resident"] = dataclasses.replace(
        edge["V-Rex8"], name="V-Rex8 resident", kv_offloaded=False
    )
    # a policy avg_tokens_per_cluster of 1 (clustering disabled), on the DRE and a GPU
    systems["V-Rex8 w/o clustering"] = _variant(
        edge["V-Rex8"], "V-Rex8 w/o clustering", avg_tokens_per_cluster=1
    )
    systems["AGX + ReSV w/o clustering"] = _variant(
        ablation["AGX + ReSV"], "AGX + ReSV w/o clustering", avg_tokens_per_cluster=1
    )
    systems["AGX + InfiniGen, no prefill prediction"] = _variant(
        edge["AGX + InfiniGen"],
        "AGX + InfiniGen, no prefill prediction",
        prediction_in_prefill=False,
    )
    return systems


SYSTEMS = _systems()
FIG13 = list(SYSTEMS)[:10]


def _population(seed: int) -> list[int]:
    """``edge_overload``'s 1 024 session cache lengths on ``seed``.

    The harness's generator, replayed: one video seed and one 5 x 64
    question draw precede the population's draw in [10 000, 60 000].
    """
    rng = np.random.default_rng((seed, 0xE2E))
    rng.integers(1 << 31)
    rng.normal(size=(5, 64))
    return [int(k) for k in rng.integers(10_000, 60_001, size=1024)]


def _edges() -> list[int]:
    """Cache lengths at the table's edges, for every system's budget."""
    llm = default_llm_workload()
    per_token = llm.kv_bytes_per_token()
    values = {0, 1, llm.model.tokens_per_frame - 1, KV_LEN_BOUND - 1, KV_LEN_BOUND}
    for system in SYSTEMS.values():
        if system.kv_offloaded and system.kv_device_budget_bytes > 0:
            # offloaded_fraction reaches 0 at budget / bytes-per-token tokens
            zero = int(system.kv_device_budget_bytes // (per_token * system.kv_bytes_scale))
            values.update({zero - 1, zero, zero + 1})
    return sorted(values)


KV_LENS = sorted(set(_population(0)) | set(_population(1)) | set(_edges()))
#: the variant systems price a sample of the population plus every edge
SAMPLE = sorted(set(KV_LENS[::37]) | set(_edges()))

MEASURED = {
    "policy": {},
    "measured": {
        "measured": MeasuredRetrieval(sort_fraction=0.21, avg_tokens_per_cluster=16.5),
        "frame_ratio": 0.45,
        "generation_ratio": 0.06,
    },
}


def _jobs(plane):
    """The three job kinds: frame, question and generation ``(q_len, stage)``."""
    return (
        (plane.base.llm.model.tokens_per_frame, FRAME_STAGE),
        (25, FRAME_STAGE),
        (1, GENERATION_STAGE),
    )


def _canonical(value, device) -> str:
    """One field as text: floats as ``float.hex``, types named, the device by role."""
    if value is device:
        return "device"
    if dataclasses.is_dataclass(value):
        inner = ",".join(
            f"{f.name}={_canonical(getattr(value, f.name), device)}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({inner})"
    if isinstance(value, float):
        return f"{type(value).__name__}:{value.hex()}"
    return f"{type(value).__name__}:{value!r}"


def _digest(names, kv_lens) -> tuple[str, int]:
    digest = hashlib.sha256()
    entries = 0
    for name in names:
        system = SYSTEMS[name]
        for variant, fields in MEASURED.items():
            plane = BatchLatencyModel()
            device = plane.base.device_for(system)
            profiles = [
                StreamProfile(kv_len=k, session_id=i, **fields) for i, k in enumerate(kv_lens)
            ]
            for q_len, stage in _jobs(plane):
                demands = plane._stream_demands(
                    system, profiles, [q_len] * len(profiles), stage, None
                )
                for kv_len, (entry, fetch_layer_s) in zip(kv_lens, demands, strict=True):
                    key = (name, variant, q_len, stage, kv_len)
                    digest.update(repr(key).encode())
                    digest.update(_canonical(entry, device).encode())
                    digest.update(fetch_layer_s.hex().encode())
                    entries += 1
    return digest.hexdigest(), entries


class TestDemandTablePinned:
    """sha256 of every demand-table entry; never re-pin to make a change pass."""

    def test_fig13_systems_over_the_population(self):
        assert _digest(FIG13, KV_LENS) == (
            "0d859d9ed6fae72d38d346310eaa60f5dd0833e7d511e5e193f24083b2f3d2c6",
            10 * 2 * 3 * len(KV_LENS),
        )

    def test_branch_variants_over_a_sample(self):
        variants = [name for name in SYSTEMS if name not in FIG13]
        assert _digest(variants, SAMPLE) == (
            "b8e15adeeea7f5f6c635cfc1514d3c2d5bdb40fac1dc58f4047edd08ad527f42",
            len(variants) * 2 * 3 * len(SAMPLE),
        )


#: cache lengths the fetch law runs over: the empty and one-token caches,
#: the edge_overload population's range and the int32/int64 boundary
FETCH_LAW_KV_LENS = [
    0, 1, 2, 1_000, 10_000, 25_000, 40_000, 60_000, 120_000, 2**20, 2**24, 2**31, 2**32,
]


def _link_prices(device, system, entry) -> tuple[float, float]:
    """The link efficiency and SSD sequential fraction an entry's fetch runs at."""
    if isinstance(device, VRexAccelerator):
        work = KVFetchWork(entry.fetch_bytes, entry.fetch_locality, entry.from_ssd)
        return device.kvmu.link_efficiency(work), device.kvmu.ssd_sequential_fraction()
    return system.device.pcie_efficiency, entry.fetch_locality


def test_fetching_entries_price_their_fetch_as_hw_does():
    """The fetch law: a fetching entry's prices are hw/'s one-channel prices.

    The column pass prices the link and the SSD inline; this ties every
    fetching entry's service time to its own ``warm_time_s`` (the pricer the
    sharded fetch re-prices with) and its occupancies to ``PCIeLink`` /
    ``SSDModel`` at the entry's efficiency and sequential fraction.
    """
    fetching = 0
    for system in SYSTEMS.values():
        plane = BatchLatencyModel()
        device = plane.base.device_for(system)
        profiles = [StreamProfile(kv_len=k, session_id=i) for i, k in enumerate(FETCH_LAW_KV_LENS)]
        for q_len, stage in _jobs(plane):
            demands = plane._stream_demands(system, profiles, [q_len] * len(profiles), stage, None)
            for entry, fetch_layer_s in demands:
                if entry.fetch_bytes <= 0:
                    continue
                fetching += 1
                assert fetch_layer_s == entry.fetch_service_s
                efficiency, sequential = _link_prices(device, system, entry)
                assert entry.fetch_service_s == entry.warm_time_s(entry.fetch_bytes)
                assert entry.pcie_occupancy_s == device.link.occupancy_s(
                    entry.fetch_bytes, efficiency
                )
                ssd_occupancy_s = 0.0
                if entry.from_ssd:
                    ssd_occupancy_s = device.ssd.read_occupancy_s(entry.fetch_bytes, sequential)
                assert entry.ssd_occupancy_s == ssd_occupancy_s
    assert fetching == 466  # 17 systems x 3 jobs x 13 lengths, minus those fetching nothing


@given(
    name=st.sampled_from(sorted(SYSTEMS)),
    variant=st.sampled_from(sorted(MEASURED)),
    job=st.integers(0, 2),
    kv_lens=st.lists(
        st.one_of(st.integers(0, 120_000), st.integers(0, KV_LEN_BOUND)), min_size=1, max_size=24
    ),
)
def test_a_row_depends_on_its_own_cache_length_only(name, variant, job, kv_lens):
    """Row independence: the plane's entry for a stream is the column of its ``kv_len`` alone."""
    system = SYSTEMS[name]
    plane = BatchLatencyModel()
    q_len, stage = _jobs(plane)[job]
    profiles = [
        StreamProfile(kv_len=k, session_id=i, **MEASURED[variant]) for i, k in enumerate(kv_lens)
    ]
    demands = plane._stream_demands(system, profiles, [q_len] * len(profiles), stage, None)
    for profile, (entry, fetch_layer_s) in zip(profiles, demands, strict=True):
        (alone,) = plane.base._layer_demands(
            system,
            [profile.kv_len],
            q_len,
            stage,
            measured=profile.measured,
            ratio=profile.ratio_override(stage),
        )
        assert entry == alone
        assert fetch_layer_s == entry.fetch_service_s
        assert [type(getattr(entry, f.name)) for f in dataclasses.fields(entry)] == [
            type(getattr(alone, f.name)) for f in dataclasses.fields(alone)
        ]
