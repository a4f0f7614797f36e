"""V-Rex reproduction library.

Reproduces "V-Rex: Real-Time Streaming Video LLM Acceleration via Dynamic
KV Cache Retrieval" (HPCA 2026): the ReSV retrieval algorithm, the baseline
retrieval methods it is compared against, a streaming video LLM substrate,
a hardware performance/energy simulator of the V-Rex accelerator and its
GPU baselines, and the experiment drivers that regenerate every table and
figure of the paper's evaluation.
"""

from repro.config import (
    ModelConfig,
    ReSVConfig,
    StreamingConfig,
    TopKConfig,
    VisionConfig,
    llama3_8b_config,
    toy_model_config,
    toy_vision_config,
)

__version__ = "1.0.0"

__all__ = [
    "ModelConfig",
    "ReSVConfig",
    "StreamingConfig",
    "TopKConfig",
    "VisionConfig",
    "llama3_8b_config",
    "toy_model_config",
    "toy_vision_config",
    "__version__",
]
