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
    "fig-mean-var": "b37493850227bb4597d4b3cd866ec4a4e810499ed17a1909eeebbca08be0826c",
    "fig-existence": "dc07da089889722ea0acf61e33d8998ffd9ea27576fee04e18c4bfcfd8b25377",
    "small-k": "4f63b24f30c034185a8dc005bf79c96f7657c15f5e3e1527c6033d0b5050d6d7",
    "margin": "d9fca14c0fdb73ebde248236b8d97644d463de8777370056a7e9dba63707620c",
    "mixed": "1b21128b875480a51ce3fba549ba759b99f3270d15d865ee70038321d36279a6",
    "mixed-margin": "a2d351a0310d8802bfb817b09ef98a777501ef54dd949baefc9a103d570a769d",
    "fig-distribution": "384a122198edd425495faba7cfcead49299abc84d5ad0200fe5deb18079d795b",
    "sample-rayleigh": "5a8a2bedac0402d69c6e621478008c364dcddec9217e3ed61ee645903e8a631b",
    "sample-tabulated": "616f19c3b46423643c00c71409d05e0ff79a557b1facd890d6779ae0edc0d6d4",
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
