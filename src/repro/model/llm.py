"""The streaming video LLM backbone (numpy functional substrate).

A :class:`StreamingVideoLLM` holds **weights** only (read-only after
construction), so one model serves any number of concurrent streams.  A
stream's mutable state (KV cache, position counter, retriever) is an
:class:`LLMSessionState` from :meth:`StreamingVideoLLM.new_session_state`;
every forward method takes it as a required ``state`` argument.  The
:class:`repro.model.streaming.StreamingSession` that owns a stream builds
its state and threads it through.
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
    """

    def __init__(
        self,
        config: ModelConfig,
        seed: int = 0,
        identity_bias: float = 1.0,
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

    def new_session_state(self, retriever=None) -> LLMSessionState:
        """Create fresh per-stream state (empty KV cache, position 0).

        ``retriever`` is the KV cache retrieval algorithm applied to every
        layer of this stream (see :mod:`repro.core`); ``None`` means full
        attention over the cache.
        """
        cache = KVCache(
            self.config.num_layers,
            self.config.num_kv_heads,
            self.config.head_dim,
            self.config.dtype_bytes,
        )
        return LLMSessionState(cache=cache, retriever=retriever)

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
        state: LLMSessionState,
        kind: TokenKind = TokenKind.TEXT,
        frame_id: int = -1,
    ) -> tuple[np.ndarray, list[AttentionStats]]:
        """Run one chunk of already-embedded tokens through all layers.

        This is the primitive both the iterative prefill stage (visual
        tokens of one frame, or the question tokens) and the generation
        stage (a single token) are built from.

        Returns the final hidden states ``(chunk, hidden_dim)`` and the
        per-layer attention statistics; ``state`` is the stream's cache,
        position counter and retriever, advanced in place.
        """
        hidden = np.asarray(embeddings, dtype=np.float64)
        if hidden.ndim != 2 or hidden.shape[1] != self.config.hidden_dim:
            raise ValueError(
                f"expected embeddings of shape (chunk, {self.config.hidden_dim}), "
                f"got {hidden.shape}"
            )
        chunk = hidden.shape[0]
        positions = np.arange(state.next_position, state.next_position + chunk)
        stats: list[AttentionStats] = []
        for layer_index, layer in enumerate(self.layers):
            hidden, layer_stats = layer.forward(
                hidden,
                state.cache.layer(layer_index),
                positions,
                layer_index,
                retriever=state.retriever,
                frame_id=frame_id,
            )
            stats.append(layer_stats)
        state.cache.record_block(frame_id, kind, state.next_position, chunk)
        state.next_position += chunk
        return hidden, stats

    def prefill_frame(
        self,
        frame_embeddings: np.ndarray,
        frame_id: int,
        state: LLMSessionState,
    ) -> tuple[np.ndarray, list[AttentionStats]]:
        """Iterative-prefill one video frame's visual tokens."""
        return self.forward_chunk(
            frame_embeddings, state, kind=TokenKind.VISUAL, frame_id=frame_id
        )

    def prefill_text(
        self, token_embeddings: np.ndarray, state: LLMSessionState
    ) -> tuple[np.ndarray, list[AttentionStats]]:
        """Prefill question (or other text) tokens."""
        return self.forward_chunk(token_embeddings, state)

    def decode_step(
        self, token_embedding: np.ndarray, state: LLMSessionState
    ) -> tuple[np.ndarray, list[AttentionStats]]:
        """Generation-stage step for a single token embedding."""
        token_embedding = np.asarray(token_embedding, dtype=np.float64)
        if token_embedding.ndim == 1:
            token_embedding = token_embedding[None, :]
        if token_embedding.shape[0] != 1:
            raise ValueError("decode_step processes exactly one token")
        return self.forward_chunk(token_embedding, state)

    def logits(self, hidden: np.ndarray) -> np.ndarray:
        """Project (normalised) hidden states to vocabulary logits."""
        return self.final_norm(np.asarray(hidden, dtype=np.float64)) @ self.lm_head
