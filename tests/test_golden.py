"""Pinned report digests of small fixed-seed runs.

Byte-identity across worker counts is checked elsewhere; these digests also
catch a change to what a seed draws, or to how reports are written, between
versions of the engine.  Between them the cases cover every report file
(sweep CSV/JSON, histogram CSV, margin CSV/JSON and the ``sample`` JSON),
every connection kind, k = 1 to 5 (k >= 4 on every connection kind), raw
counts with pair-class counts, quadrature columns and non-default bracket
orders.  A change that alters the draws on purpose must update the digests
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
    "fig-mean-var": "358719ca5e28574b4054f90d8e32f11e4f0ac9a251c8fb69cd340809c6301e59",
    "fig-existence": "1f8f003b7538b7d99335253db08b4231fac4a4a6dc83bcdb70912d9e972d55a4",
    "small-k": "4f63b24f30c034185a8dc005bf79c96f7657c15f5e3e1527c6033d0b5050d6d7",
    "margin": "49d1a146cc7d9a21172be08184f23758018a674e880abfe36b3da1369563cbe2",
    "mixed": "78d6545da27b7ca3069c02e510f5e1ffcae92543f1b7a556b0b65a0f4b36a7e3",
    "mixed-margin": "d727c15f1ca51ba7c5fb4d47294fa11214116d8af93b5537d9dd83469b917b22",
    "fig-distribution": "bcc774a7f14309c633ccf04c45dd8b30c22f56a6f712841e4c02d0945c6faef3",
    "sample-rayleigh": "b53b478501064945baa2a7371f409db483187c851168a265fe0e79e95615ca0a",
    "sample-tabulated": "4dab3d9b99d5cac38a9debc48dbff4a1af5e1b5f8cedd870d7b451df79cc6217",
    "khop": "e1bad453c14ce868cc54d93c2abb95bbe327d08bd4ecfb9357bd436304a6baa0",
    "khop-margin": "96595b49b53dafc16ba141fc60f7387e447aa199717cfde32742b10ed5d11dd0",
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
