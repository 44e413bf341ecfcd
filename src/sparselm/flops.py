"""Analytic training-FLOPs accountant for dense and sparse configurations.

Accounting convention (fixed, every constant is part of the contract):

  per token, summed over layers L with width d, heads h, sequence length
  seq (= context window), feed-forward width d_ff, vocab V:

    input embedding        2*V*d
    QKV projections        6*d^2           per layer
    attention logits       2*seq*d         per layer
    softmax                3*h*seq         per layer
    attention * values     2*seq*d         per layer
    output projection      2*d^2           per layer
    feed-forward           4*d*d_ff        per layer  (16*d^2 when d_ff = 4d)
    final logits           2*V*d

  training = 3 x forward (backward counts as 2x forward). Uniform weight
  sparsity s scales only the QKV, output-projection and feed-forward
  terms: sparse total = dense total - s * sparsifiable subtotal.

Embedding matrices are charged at both input and logits. Component shares
under this taxonomy are the kit's own; published per-component percentages
computed under an unprinted taxonomy can differ by a few points even when
the totals agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import csv_text
from .errors import check_ranges
from .model import PRESETS, ModelConfig, sparse_matrix_params

COMPONENT_ORDER = (
    "input_embedding",
    "qkv",
    "attention_logits",
    "softmax",
    "attention_values",
    "output_projection",
    "ffn",
    "final_logits",
)

SPARSIFIABLE_COMPONENTS = ("qkv", "output_projection", "ffn")

# Full-scale pre-training token budget: 200k steps x batch 512 x 1024 tokens.
FULL_SCALE_TOKEN_BUDGET = 512 * 1024 * 200_000

BACKWARD_MULTIPLIER = 3  # forward + 2x-forward backward


@dataclass(frozen=True)
class FlopsReport:
    """Per-token forward FLOPs breakdown for one (config, sparsity) point."""

    config: ModelConfig
    sparsity: float
    components: dict[str, float]          # already scaled by (1 - s) where applicable
    sparsifiable_subtotal: float          # dense-valued subtotal of the scalable terms
    forward_per_token: float
    dense_forward_per_token: float

    def train_total(self, token_budget: float) -> float:
        check_ranges({"tokens": token_budget})
        return BACKWARD_MULTIPLIER * self.forward_per_token * token_budget

    @property
    def ratio_vs_dense(self) -> float:
        return self.forward_per_token / self.dense_forward_per_token


def forward_flops_per_token(config: ModelConfig, sparsity: float = 0.0) -> FlopsReport:
    check_ranges({"sparsity": sparsity})
    L, d, h = config.n_layers, config.d_model, config.n_heads
    seq, v, d_ff = config.context_window, config.vocab_size, config.d_ff
    dense = {
        "input_embedding": 2.0 * v * d,
        "qkv": L * 6.0 * d * d,
        "attention_logits": L * 2.0 * seq * d,
        "softmax": L * 3.0 * h * seq,
        "attention_values": L * 2.0 * seq * d,
        "output_projection": L * 2.0 * d * d,
        "ffn": L * 4.0 * d * d_ff,
        "final_logits": 2.0 * v * d,
    }
    subtotal = sum(dense[c] for c in SPARSIFIABLE_COMPONENTS)
    components = {
        name: value * (1.0 - sparsity) if name in SPARSIFIABLE_COMPONENTS else value
        for name, value in dense.items()
    }
    dense_total = sum(dense.values())
    return FlopsReport(
        config=config,
        sparsity=sparsity,
        components=components,
        sparsifiable_subtotal=subtotal,
        forward_per_token=dense_total - sparsity * subtotal,
        dense_forward_per_token=dense_total,
    )


@dataclass(frozen=True)
class TableRow:
    model: str
    size: int            # active matrix parameters at this sparsity
    sparsity: float
    train_flops: float
    ratio: float


def ratio_table() -> list[TableRow]:
    """One row per (model, sparsity) of the paper's table: training FLOPs
    over the full-scale token budget and ratio vs dense."""
    rows = []
    for name in ("med", "large", "xl"):
        for s in (0.0, 0.5, 0.75):
            report = forward_flops_per_token(PRESETS[name], s)
            rows.append(TableRow(
                model=name,
                size=sparse_matrix_params(PRESETS[name], s),
                sparsity=s,
                train_flops=report.train_total(FULL_SCALE_TOKEN_BUDGET),
                ratio=report.ratio_vs_dense,
            ))
    return rows


def human_size(n: int) -> str:
    if n >= 1_000_000_000:
        return f"{n / 1e9:.2f}B"
    if n >= 1_000_000:
        return f"{n / 1e6:.0f}M"
    return str(n)


def table_to_csv(rows: list[TableRow]) -> str:
    return csv_text(("model", "size", "sparsity", "flops", "ratio"),
                    [(r.model, r.size, r.sparsity, r.train_flops, r.ratio) for r in rows])


def format_table(rows: list[TableRow]) -> str:
    lines = [f"{'model':<8}{'size':>8}{'sparsity':>10}{'train FLOPs (x1e20)':>22}{'ratio':>8}"]
    for r in rows:
        lines.append(
            f"{r.model:<8}{human_size(r.size):>8}{r.sparsity * 100:>9.0f}%"
            f"{r.train_flops / 1e20:>22.3f}{r.ratio:>7.2f}x"
        )
    return "\n".join(lines)
