"""Pinned report digests of small fixed-seed runs.

Byte-identity across worker counts is checked elsewhere; these digests also
catch a change to what a seed draws, or to how reports are written, between
versions of the engine.  A change that alters the draws on purpose must
update the digests and say so.  The digests were computed with numpy 2.4
and scipy 1.17 on x86-64.
"""
import hashlib
import os

import pytest

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
    "fig-mean-var": "b37493850227bb4597d4b3cd866ec4a4e810499ed17a1909eeebbca08be0826c",
    "fig-existence": "dc07da089889722ea0acf61e33d8998ffd9ea27576fee04e18c4bfcfd8b25377",
    "small-k": "4f63b24f30c034185a8dc005bf79c96f7657c15f5e3e1527c6033d0b5050d6d7",
    "margin": "d9fca14c0fdb73ebde248236b8d97644d463de8777370056a7e9dba63707620c",
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


def _run(name, outputs) -> None:
    if name in ("fig-mean-var", "fig-existence"):
        run_experiment(preset_config(name, outputs=outputs, seed=11, replications=30))
    elif name == "small-k":
        run_experiment(_small_k_config(outputs))
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
