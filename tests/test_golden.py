"""Pinned report digests of small fixed-seed runs.

Byte-identity across worker counts is checked elsewhere; these digests also
catch a change to what a seed draws, or to how reports are written, between
versions of the engine.  Between them the cases cover every report file
(sweep CSV/JSON, histogram CSV, margin CSV/JSON and the ``sample`` JSON),
every connection kind, k = 1 to 5 (k >= 4 on every connection kind), raw
counts with pair-class counts, quadrature columns, non-default bracket
orders, and rows of 8200 replications, past numpy's 8192-element reduction
buffer.  A change that alters the draws on purpose must update the digests
and say so.  The digests were computed with numpy 2.4 and scipy 1.17 on
x86-64.
"""
import hashlib
import os

import pytest

from rcmpaths.cli import main as cli_main
from rcmpaths.experiments import (
    ExperimentConfig,
    preset_config,
    run_experiment,
    validate_margin,
    write_margin_csv,
    write_margin_json,
)
from rcmpaths.model import ConnectionSpec, ModelParams

RAY1 = ConnectionSpec.rayleigh(beta=1.0)

DIGESTS = {
    "fig-mean-var": "14189c0c9bb566bf1ddf769bea9f5931df5338444e06aa5c25d60309cbf04ea7",
    "fig-existence": "dbd0a9f52da9b582638250862ef8d75678c3d86c05262797ec15ef52fc5c1b10",
    "small-k": "87a267d86788d3e2ebca582447d1a972225be53c773477257694a35415645255",
    "margin": "365ff54b58610bb440333dcb18b2148d7237a56e6ce92a30557d9cb6c42f07f1",
    "mixed": "1d6a7fd59ed3ff3efb003bd90b730b91845044268c73d8a468a1af7c34cff9ff",
    "mixed-margin": "bdd30cd53022ada2ca71efc6a305e09c5cedabfec24da86d2e159d78823fab0a",
    "fig-distribution": "643fee04c047ad16e1fe76b2d55ab25ad42d412b4239b72a6880fb1acd50d3de",
    "sample-rayleigh": "2e3ed5ee8129690cb6e442e9247693e25853381857615100d4df9577eb5a099f",
    "sample-tabulated": "27f83b6ae5c2100ae8b9f111243ce6115a79ea84feb39a0a6c3c9289299c2d29",
    "khop": "2fbbf9767cc9bc457f9cb76dfa591e056e31a0f1b58e379ace2936d4025c0228",
    "khop-margin": "4467cb4e410d0a2e9dc213324de39d6942273035a049ebf45afd214574af6ab0",
    "long-rows": "69a1577260bafcc21daaa945428b02c706f7c93fa113495f24239148cc1435cd",
}

# one point per connection kind, k = 1 to 4, every report flag on
MIXED_GRID = (
    ModelParams(rho=0.5, connection=RAY1, anchor_distance=0.5, k=1),
    ModelParams(rho=1.0, connection=ConnectionSpec.rayleigh(beta=1.5, eta=3.0), anchor_distance=1.0, k=3),
    ModelParams(rho=1.0, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=1.5, k=3),
    ModelParams(
        rho=1.0, connection=ConnectionSpec.tabulated([(0.25, 0.9), (1.5, 0.2)]), anchor_distance=1.0, k=2
    ),
    ModelParams(rho=0.8, connection=RAY1, anchor_distance=1.0, k=4, margin=3.0),
)

# k >= 4 on every connection kind, with a five-hop point on each side of the
# half-path split (two hops from each anchor)
KHOP_GRID = (
    ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=5),
    ModelParams(rho=1.5, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=1.5, k=5),
    ModelParams(
        rho=1.0, connection=ConnectionSpec.tabulated([(0.25, 0.9), (1.5, 0.2)]), anchor_distance=1.0, k=4
    ),
)

SAMPLE_ARGS = {
    "sample-rayleigh": ["--kind", "rayleigh", "--beta", "1.5", "--eta", "3", "--k", "3", "--rho", "1.5"],
    "sample-tabulated": ["--kind", "tabulated", "--table", "[[0.25, 0.9], [1.5, 0.2]]", "--k", "2"],
}


def _digest(directory) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _small_k_config(outputs) -> ExperimentConfig:
    grid = (
        ModelParams(rho=0.5, connection=RAY1, anchor_distance=0.5, k=1),
        ModelParams(rho=0.5, connection=RAY1, anchor_distance=1.0, k=4),
    )
    return ExperimentConfig(name="small-k", params_grid=grid, replications=10, seed=13, outputs=outputs)


def _margin_config(outputs) -> ExperimentConfig:
    grid = (
        ModelParams(rho=0.5, connection=RAY1, anchor_distance=0.5, k=1),
        ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=2),
        ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3),
        ModelParams(rho=1.0, connection=RAY1, anchor_distance=1.0, k=3, margin=0.5),
        ModelParams(rho=1.0, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=1.5, k=3),
        ModelParams(rho=0.3, connection=RAY1, anchor_distance=1.0, k=4),
    )
    return ExperimentConfig(name="margin", params_grid=grid, replications=30, seed=14, outputs=outputs)


def _mixed_config(outputs) -> ExperimentConfig:
    return ExperimentConfig(
        name="mixed",
        params_grid=MIXED_GRID,
        replications=20,
        seed=15,
        outputs=outputs,
        strict_numerics=True,
        collect_pair_structures=True,
        bracket_orders=(0, 1, 2, 7),
        emit_histograms=True,
        dump_raw_counts=True,
        attach_numeric=True,
    )


def _khop_config(outputs) -> ExperimentConfig:
    return ExperimentConfig(
        name="khop", params_grid=KHOP_GRID, replications=20, seed=18, outputs=outputs, dump_raw_counts=True
    )


def _long_rows_config(outputs) -> ExperimentConfig:
    # three fig-mean-var points at rho = 5, each summarized over rows longer
    # than numpy's 8192-element reduction buffer; the counts reach past 80
    grid = tuple(ModelParams(rho=5.0, connection=RAY1, anchor_distance=i / 4, k=3) for i in (0, 4, 8))
    return ExperimentConfig(
        name="long-rows",
        params_grid=grid,
        replications=8200,
        seed=19,
        outputs=outputs,
        bracket_orders=(0, 1, 2, 80),
        dump_raw_counts=True,
    )


def _run(name, outputs) -> None:
    if name in ("fig-mean-var", "fig-existence"):
        run_experiment(preset_config(name, outputs=outputs, seed=11, replications=30))
    elif name == "fig-distribution":
        run_experiment(preset_config(name, outputs=outputs, seed=16, replications=40))
    elif name == "small-k":
        run_experiment(_small_k_config(outputs))
    elif name == "mixed":
        run_experiment(_mixed_config(outputs))
    elif name == "khop":
        run_experiment(_khop_config(outputs))
    elif name == "long-rows":
        run_experiment(_long_rows_config(outputs))
    elif name in SAMPLE_ARGS:
        argv = ["sample", *SAMPLE_ARGS[name], "--seed", "17", "--replication", "3"]
        assert cli_main(argv + ["--out", os.path.join(outputs, "sample.json")]) == 0
    else:
        if name == "mixed-margin":
            config = _mixed_config(outputs)
        elif name == "khop-margin":
            config = _khop_config(outputs)
        else:
            config = _margin_config(outputs)
        checks = validate_margin(config, replications=30)
        base = os.path.join(outputs, config.name + "_margin")
        write_margin_csv(base + ".csv", config, checks)
        write_margin_json(base + ".json", config, checks)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_digest(name, tmp_path, monkeypatch):
    # the JSON reports echo the output directory, so it must be the same path
    monkeypatch.chdir(tmp_path)
    os.mkdir("out")
    _run(name, "out")
    assert _digest("out") == DIGESTS[name]
