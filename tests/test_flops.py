import pytest

from sparselm.errors import ContractError
from sparselm import flops as F
from sparselm.model import PRESETS, ModelConfig

# Published nine-entry training-cost table (x 1e20 FLOPs) and savings ratios
# for the med/large/xl presets at 0 / 50% / 75% uniform sparsity.
REFERENCE = {
    ("med", 0.0): (2.677, 1.00),
    ("med", 0.5): (1.727, 0.64),
    ("med", 0.75): (1.252, 0.46),
    ("large", 0.0): (4.248, 1.00),
    ("large", 0.5): (2.645, 0.62),
    ("large", 0.75): (1.840, 0.43),
    ("xl", 0.0): (9.148, 1.00),
    ("xl", 0.5): (5.348, 0.58),
    ("xl", 0.75): (3.448, 0.38),
}

TOKENS = 104.86e9


def toy_config():
    return ModelConfig(n_layers=1, d_model=2, n_heads=1, d_head=2,
                       vocab_size=4, context_window=2, d_ff=8)


def test_toy_config_hand_component_values():
    # hand-evaluated: emb 16, qkv 24, logits 8, softmax 6, av 8, proj 8,
    # ffn 64, final logits 16 -> 150 per token
    report = F.forward_flops_per_token(toy_config())
    assert report.components == {
        "input_embedding": 16.0,
        "qkv": 24.0,
        "attention_logits": 8.0,
        "softmax": 6.0,
        "attention_values": 8.0,
        "output_projection": 8.0,
        "ffn": 64.0,
        "final_logits": 16.0,
    }
    assert report.forward_per_token == 150.0
    assert report.train_total(2) == 900.0  # 300 per 2-token sequence, x3 for backward


def test_toy_config_half_sparse():
    report = F.forward_flops_per_token(toy_config(), 0.5)
    assert report.sparsifiable_subtotal == 96.0
    assert report.forward_per_token == 102.0  # 150 - 0.5 * 96


def test_dense_ratio_is_one():
    for cfg in PRESETS.values():
        assert F.forward_flops_per_token(cfg, 0.0).ratio_vs_dense == 1.0


def test_zero_token_budget():
    assert F.forward_flops_per_token(PRESETS["med"], 0.5).train_total(0) == 0.0


def test_components_sum_to_total():
    for s in (0.0, 0.3, 0.75):
        report = F.forward_flops_per_token(PRESETS["large"], s)
        assert sum(report.components.values()) == pytest.approx(report.forward_per_token, rel=1e-12)


@pytest.mark.parametrize("preset,s", list(REFERENCE))
def test_reference_table_reproduced(preset, s):
    expected_flops, expected_ratio = REFERENCE[(preset, s)]
    report = F.forward_flops_per_token(PRESETS[preset], s)
    total = report.train_total(TOKENS) / 1e20
    assert abs(total - expected_flops) / expected_flops <= 0.10
    assert abs(report.ratio_vs_dense - expected_ratio) <= 0.05


def test_monotonic_in_sparsity():
    prev = float("inf")
    for s in (0.0, 0.25, 0.5, 0.75, 0.9):
        total = F.forward_flops_per_token(PRESETS["xl"], s).train_total(TOKENS)
        assert total < prev
        prev = total


def test_savings_improve_with_scale():
    # at fixed sparsity the ratio decreases from med to xl
    for s in (0.5, 0.75):
        med = F.forward_flops_per_token(PRESETS["med"], s).ratio_vs_dense
        large = F.forward_flops_per_token(PRESETS["large"], s).ratio_vs_dense
        xl = F.forward_flops_per_token(PRESETS["xl"], s).ratio_vs_dense
        assert med > large > xl


def test_ratio_table_nine_rows():
    rows = F.ratio_table()
    assert len(rows) == 9
    dense_rows = [r for r in rows if r.sparsity == 0.0]
    assert all(r.ratio == 1.0 for r in dense_rows)
    by_key = {(r.model, r.sparsity): r for r in rows}
    assert by_key[("xl", 0.75)].size == 301_989_888


def test_table_csv_roundtrip():
    rows = F.ratio_table()
    csv_text = F.table_to_csv(rows)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "model,size,sparsity,flops,ratio"
    assert len(lines) == 10
    first = lines[1].split(",")
    assert first[0] == rows[0].model
    assert float(first[3]) == rows[0].train_flops


def test_table_csv_golden_bytes():
    rows = [F.TableRow("med", 402_653_184, 0.0, 1.5e21, 1.0),
            F.TableRow("custom", 9676, 0.3, 2.529467301888e16, 0.9064935064935066)]
    assert F.table_to_csv(rows) == ("model,size,sparsity,flops,ratio\n"
                                    "med,402653184,0.0,1.5e+21,1.0\n"
                                    "custom,9676,0.3,2.529467301888e+16,0.9064935064935066\n")


def test_format_table_mentions_sizes():
    text = F.format_table(F.ratio_table())
    assert "302M" in text and "1.21B" in text and "510M" in text


def test_sparsity_bounds():
    with pytest.raises(ContractError):
        F.forward_flops_per_token(toy_config(), 1.0)
    with pytest.raises(ContractError):
        F.forward_flops_per_token(toy_config(), -0.1)
