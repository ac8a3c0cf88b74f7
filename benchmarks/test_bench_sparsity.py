"""Figs 1 and 2: value/term sparsity and the ideal speedup potential."""

from conftest import show

from repro.harness import run_fig1_sparsity, run_fig2_potential


def test_fig1_value_and_term_sparsity():
    table = run_fig1_sparsity()
    show(
        table,
        "Fig 1: image classifiers' activations exceed 35% value sparsity "
        "(ReLU); weight sparsity is low except ResNet50-S2; NLP models "
        "have near-zero value sparsity; term sparsity is high for every "
        "tensor of every model.",
    )
    for row in table.rows:
        model = row[0]
        value = dict(A=row[1], W=row[2], G=row[3])
        term = dict(A=row[4], W=row[5], G=row[6])
        # Term sparsity is universally higher than value sparsity.
        for tensor in ("A", "W", "G"):
            assert term[tensor] > value[tensor]
        if model in ("SqueezeNet 1.1", "VGG16", "ResNet50-S2", "Detectron2"):
            assert value["A"] > 0.25  # ReLU networks
        if model in ("SNLI", "Bert", "NCF"):
            assert value["W"] < 0.1


def test_fig2_potential_speedup():
    table = run_fig2_potential()
    show(
        table,
        "Fig 2: potential up to ~59x for NCF's gradient phases; several "
        "models in the 4-16x range.",
    )
    by_model = {row[0]: row for row in table.rows}
    # NCF's AxG towers over everything (sparse embedding gradients).
    ncf_axg = by_model["NCF"][1]
    assert ncf_axg > 20
    for model, row in by_model.items():
        if model != "NCF":
            assert max(row[1:]) < ncf_axg
