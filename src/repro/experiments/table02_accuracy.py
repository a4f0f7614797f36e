"""Table II — accuracy and retrieval ratio of retrieval methods on COIN.

Evaluates VideoLLM-Online (no retrieval), InfiniGen, InfiniGenP, ReKV and
ReSV on the five synthetic COIN task variants, reporting top-1 accuracy and
the frame-processing / text-generation retrieval ratios.  The paper's
headline outcomes to reproduce: ReSV has the smallest retrieval ratio of
all retrieval methods while its accuracy stays within about a point of the
vanilla model, and fixed-ratio baselines pay either accuracy (InfiniGenP)
or efficiency (ReKV, InfiniGen's full-fetch prefill).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ReSVConfig
from repro.core.baselines import make_infinigen, make_infinigen_p, make_rekv
from repro.core.resv import ReSVRetriever
from repro.video.coin import ALL_TASKS, CoinTask
from repro.video.qa import MethodResult, evaluate_method


@dataclass
class Table02Result:
    """Per-method, per-task accuracy and retrieval ratios."""

    methods: list[str] = field(default_factory=list)
    tasks: list[CoinTask] = field(default_factory=list)
    cells: dict[tuple[str, CoinTask], MethodResult] = field(default_factory=dict)

    def accuracy(self, method: str, task: CoinTask) -> float:
        return self.cells[(method, task)].accuracy

    def average_accuracy(self, method: str) -> float:
        return float(np.mean([self.accuracy(method, task) for task in self.tasks]))

    def average_frame_ratio(self, method: str) -> float:
        return float(
            np.mean([self.cells[(method, task)].frame_retrieval_ratio for task in self.tasks])
        )

    def average_generation_ratio(self, method: str) -> float:
        return float(
            np.mean([self.cells[(method, task)].generation_retrieval_ratio for task in self.tasks])
        )


def method_factories() -> dict[str, object]:
    """The Table II method line-up (name -> retriever factory or None)."""

    def resv_factory(model_config):
        return ReSVRetriever(
            model_config.num_layers,
            model_config.num_kv_heads,
            model_config.head_dim,
            ReSVConfig(wicsum_ratio=0.3, n_hyperplanes=32, hamming_threshold=7),
        )

    return {
        "VideoLLM-Online": None,
        "InfiniGen": lambda _cfg: make_infinigen(),
        "InfiniGenP": lambda _cfg: make_infinigen_p(),
        "ReKV": lambda _cfg: make_rekv(),
        "ReSV": resv_factory,
    }


def run(
    num_episodes: int = 4,
    tasks: tuple[CoinTask, ...] = ALL_TASKS,
    answer_tokens: int = 2,
    seed: int = 0,
) -> Table02Result:
    """Evaluate every method on every task."""
    factories = method_factories()
    result = Table02Result(methods=list(factories), tasks=list(tasks))
    for method, factory in factories.items():
        for task in tasks:
            result.cells[(method, task)] = evaluate_method(
                method,
                factory,
                task,
                num_episodes=num_episodes,
                answer_tokens=answer_tokens,
                seed=seed,
            )
    return result


def main(num_episodes: int = 4) -> Table02Result:
    """Print the accuracy and retrieval-ratio tables."""
    result = run(num_episodes=num_episodes)
    header = ["method"] + [task.value for task in result.tasks] + ["avg"]
    print("Table II (top) — COIN top-1 accuracy (%)")
    print("  " + "  ".join(header))
    for method in result.methods:
        cells = [f"{100 * result.accuracy(method, task):5.1f}" for task in result.tasks]
        print(f"  {method:16s} " + "  ".join(cells) + f"  {100 * result.average_accuracy(method):5.1f}")
    print()
    print("Table II (bottom) — retrieval ratio [frame % / generation %]")
    for method in result.methods:
        if method == "VideoLLM-Online":
            continue
        cells = []
        for task in result.tasks:
            cell = result.cells[(method, task)]
            cells.append(f"{100 * cell.frame_retrieval_ratio:.1f}/{100 * cell.generation_retrieval_ratio:.1f}")
        avg = (
            f"{100 * result.average_frame_ratio(method):.1f}/"
            f"{100 * result.average_generation_ratio(method):.1f}"
        )
        print(f"  {method:16s} " + "  ".join(cells) + f"  avg {avg}")
    return result


if __name__ == "__main__":
    main()
