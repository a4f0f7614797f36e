"""The streaming video LLM backbone (numpy functional substrate).

The model separates **weights** (shared, read-only after construction) from
**session state** (KV cache, position counter, retriever state): a single
:class:`StreamingVideoLLM` can therefore serve many concurrent streams,
each represented by a :class:`LLMSessionState` created via
:meth:`StreamingVideoLLM.new_session_state`.  Every forward method accepts
an optional ``state``; omitting it uses the model's built-in default
session, which keeps the original single-stream API working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ModelConfig
from repro.model.attention import AttentionStats
from repro.model.decoder import DecoderLayer, RMSNorm
from repro.model.kvcache import KVCache, TokenKind
from repro.model.rope import RotaryEmbedding


@dataclass
class LLMSessionState:
    """Mutable per-stream state threaded through the shared model weights."""

    cache: KVCache
    retriever: object | None = None
    next_position: int = 0

    def reset(self, config: ModelConfig) -> None:
        """Clear the KV cache and position counter; reset the retriever."""
        self.cache = KVCache(
            config.num_layers, config.num_kv_heads, config.head_dim, config.dtype_bytes
        )
        self.next_position = 0
        if self.retriever is not None:
            self.retriever.reset()


class StreamingVideoLLM:
    """Decoder-only transformer processing interleaved visual and text tokens.

    The model follows the paper's workflow (Fig. 3): each arriving video
    frame is run through an *iterative prefill* that attends to the whole
    accumulated KV cache and appends the frame's keys/values; question
    tokens are prefethed the same way; answer tokens are generated one at a
    time in the generation stage.

    Parameters
    ----------
    config:
        Model dimensions.
    seed:
        Seed for weight initialisation (weights are random but fixed).
    identity_bias:
        Strength of the identity component mixed into the attention
        projections.  A non-zero value makes content injected into token
        embeddings linearly recoverable at the output, which the synthetic
        COIN QA task relies on; zero gives a fully random transformer.
    retriever:
        Optional KV cache retrieval algorithm applied to every layer (see
        :mod:`repro.core`).  ``None`` means full attention over the cache.
        The retriever is attached to the model's *default* session; extra
        sessions get their own via :meth:`new_session_state`.
    """

    def __init__(
        self,
        config: ModelConfig,
        seed: int = 0,
        identity_bias: float = 1.0,
        retriever=None,
        attn_mix: float = 0.5,
        ffn_mix: float = 0.5,
        query_transform: np.ndarray | None = None,
    ):
        self.config = config
        rng = np.random.default_rng(seed)
        rope = (
            RotaryEmbedding(config.head_dim, base=config.rope_base)
            if config.use_rope
            else None
        )
        self.rope = rope
        self.embedding = rng.normal(0.0, 1.0, size=(config.vocab_size, config.hidden_dim))
        self.layers = [
            DecoderLayer(
                config.hidden_dim,
                config.num_heads,
                config.num_kv_heads,
                config.ffn_dim,
                rope,
                rng,
                identity_bias=identity_bias,
                attn_mix=attn_mix,
                ffn_mix=ffn_mix,
                query_transform=query_transform,
            )
            for _ in range(config.num_layers)
        ]
        self.final_norm = RMSNorm(config.hidden_dim)
        self.lm_head = rng.normal(
            0.0, 1.0 / np.sqrt(config.hidden_dim), size=(config.hidden_dim, config.vocab_size)
        )
        self._default_state = self.new_session_state(retriever)

    # ------------------------------------------------------------------ #
    # state management
    # ------------------------------------------------------------------ #
    def new_session_state(self, retriever=None) -> LLMSessionState:
        """Create fresh per-stream state (empty KV cache, position 0)."""
        cache = KVCache(
            self.config.num_layers,
            self.config.num_kv_heads,
            self.config.head_dim,
            self.config.dtype_bytes,
        )
        return LLMSessionState(cache=cache, retriever=retriever)

    def _resolve_state(self, state: LLMSessionState | None) -> LLMSessionState:
        return state if state is not None else self._default_state

    @property
    def default_state(self) -> LLMSessionState:
        """The model's built-in single-stream session state."""
        return self._default_state

    @property
    def cache(self) -> KVCache:
        """KV cache of the default session."""
        return self._default_state.cache

    @property
    def cache_length(self) -> int:
        """Number of tokens currently held in the default session's KV cache."""
        return len(self._default_state.cache)

    def reset(self, state: LLMSessionState | None = None) -> None:
        """Clear a session's KV cache and position counter (weights are kept)."""
        self._resolve_state(state).reset(self.config)

    def attach_retriever(self, retriever, state: LLMSessionState | None = None) -> None:
        """Attach (or detach, with ``None``) a KV cache retrieval algorithm."""
        self._resolve_state(state).retriever = retriever

    # ------------------------------------------------------------------ #
    # forward passes
    # ------------------------------------------------------------------ #
    def embed_tokens(self, token_ids: np.ndarray) -> np.ndarray:
        """Look up text-token embeddings."""
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= self.config.vocab_size):
            raise ValueError("token id out of vocabulary range")
        return self.embedding[token_ids]

    def forward_chunk(
        self,
        embeddings: np.ndarray,
        kind: TokenKind = TokenKind.TEXT,
        frame_id: int = -1,
        state: LLMSessionState | None = None,
    ) -> tuple[np.ndarray, list[AttentionStats]]:
        """Run one chunk of already-embedded tokens through all layers.

        This is the primitive both the iterative prefill stage (visual
        tokens of one frame, or the question tokens) and the generation
        stage (a single token) are built from.

        Returns the final hidden states ``(chunk, hidden_dim)`` and the
        per-layer attention statistics.
        """
        session = self._resolve_state(state)
        hidden = np.asarray(embeddings, dtype=np.float64)
        if hidden.ndim != 2 or hidden.shape[1] != self.config.hidden_dim:
            raise ValueError(
                f"expected embeddings of shape (chunk, {self.config.hidden_dim}), "
                f"got {hidden.shape}"
            )
        chunk = hidden.shape[0]
        positions = np.arange(session.next_position, session.next_position + chunk)
        stats: list[AttentionStats] = []
        for layer_index, layer in enumerate(self.layers):
            hidden, layer_stats = layer.forward(
                hidden,
                session.cache.layer(layer_index),
                positions,
                layer_index,
                retriever=session.retriever,
                frame_id=frame_id,
            )
            stats.append(layer_stats)
        session.cache.record_block(frame_id, kind, session.next_position, chunk)
        session.next_position += chunk
        return hidden, stats

    def prefill_frame(
        self,
        frame_embeddings: np.ndarray,
        frame_id: int,
        state: LLMSessionState | None = None,
    ) -> tuple[np.ndarray, list[AttentionStats]]:
        """Iterative-prefill one video frame's visual tokens."""
        return self.forward_chunk(
            frame_embeddings, kind=TokenKind.VISUAL, frame_id=frame_id, state=state
        )

    def prefill_text(
        self, token_embeddings: np.ndarray, state: LLMSessionState | None = None
    ) -> tuple[np.ndarray, list[AttentionStats]]:
        """Prefill question (or other text) tokens."""
        return self.forward_chunk(token_embeddings, kind=TokenKind.TEXT, frame_id=-1, state=state)

    def decode_step(
        self, token_embedding: np.ndarray, state: LLMSessionState | None = None
    ) -> tuple[np.ndarray, list[AttentionStats]]:
        """Generation-stage step for a single token embedding."""
        token_embedding = np.asarray(token_embedding, dtype=np.float64)
        if token_embedding.ndim == 1:
            token_embedding = token_embedding[None, :]
        if token_embedding.shape[0] != 1:
            raise ValueError("decode_step processes exactly one token")
        return self.forward_chunk(token_embedding, kind=TokenKind.TEXT, frame_id=-1, state=state)

    def logits(self, hidden: np.ndarray) -> np.ndarray:
        """Project (normalised) hidden states to vocabulary logits."""
        return self.final_norm(np.asarray(hidden, dtype=np.float64)) @ self.lm_head

    # ------------------------------------------------------------------ #
    # memory accounting
    # ------------------------------------------------------------------ #
    def kv_cache_bytes(self, state: LLMSessionState | None = None) -> int:
        """Current KV cache size of a session in model-precision bytes."""
        return self._resolve_state(state).cache.memory_bytes()
