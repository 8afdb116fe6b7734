"""Pinned outputs: no change of the program may alter a result silently.

The test runs the benchmark's search experiment (``perfbench/search.json``
at ``jobs=1`` on ``enas demo-data --seed 7`` data) and trains a small
``nn.train_folds`` panel, then compares SHA-256 digests of every output
file, and of every panel network's parameters and loss history, with
``pinned_outputs.json``. An output file can stay the same under an
arithmetic change that flips no prediction; the parameters cannot.

Wall times are left out: ``events.jsonl`` is digested as its bytes with each
``wall_time`` value masked, and ``efficiency.csv`` as its bytes with the
three wall cells of each data line masked, so that the whitespace, escaping
and line breaks of both stay pinned.

Floating-point results depend on numpy and on the BLAS kernels, which
OpenBLAS picks per CPU core, so the pin file records the environment it
was taken on. On another environment the test skips and names both.

A change that alters a result on purpose rewrites the pin file with

    PYTHONPATH=src python -m tests.test_pinned_outputs

and names each changed digest as a declared output change.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from enas import cli, nn
from enas.synthetic import make_threshold_dataset

ROOT = Path(__file__).resolve().parent.parent
SEARCH_CONFIG = ROOT / "perfbench" / "search.json"
PIN_FILE = Path(__file__).resolve().parent / "pinned_outputs.json"
WALL_TIME = re.compile(rb'"wall_time": [-+.0-9eE]+')
WALL_COLUMNS = (b"mean_wall_static", b"mean_wall_adaptive", b"wall_delta_pct")
PANEL_OPTIMIZERS = ("sgd", "adam", "adamax", "rmsprop")
PANEL_BATCH_SIZES = (1, 3, 32)


def _blas_core() -> str:
    """The CPU core whose kernels the loaded OpenBLAS uses, or "unknown"."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_core": _blas_core(),
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str:
    if path.name == "events.jsonl":
        return _sha(WALL_TIME.sub(rb'"wall_time": _', path.read_bytes()))
    if path.name == "efficiency.csv":
        lines = [line.split(b",") for line in path.read_bytes().split(b"\n")]
        wall = [i for i, column in enumerate(lines[0]) if column in WALL_COLUMNS]
        for cells in lines[1:-1]:  # each data line; the last entry follows the final LF
            for i in wall:
                cells[i] = b"_"
        return _sha(b"\n".join(b",".join(cells) for cells in lines))
    return _sha(path.read_bytes())


def search_digests(workdir: Path) -> dict[str, str]:
    """Digest of each output file of the search experiment, by file name."""
    data, out = workdir / "data", workdir / "out"
    config = json.loads(SEARCH_CONFIG.read_text(encoding="utf-8"))
    for entry in config["datasets"]:
        entry["path"] = str(data / f"{entry['name']}.csv")
    config_path = workdir / "search.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["demo-data", "--out", str(data), "--seed", "7"]) == 0
        assert cli.main(["run", "--config", str(config_path), "--out", str(out), "--jobs", "1"]) == 0
    return {path.name: _file_digest(path) for path in sorted(out.iterdir())}


def panel_digests() -> dict[str, str]:
    """Digest of the parameters and loss histories of each panel config's fold networks."""
    dataset = make_threshold_dataset(70, 4, seed=3, name="pin")
    folds = np.array_split(np.random.default_rng(4).permutation(70), 3)
    train_sets = [np.concatenate(folds[:f] + folds[f + 1 :]) for f in range(3)]
    digests = {}
    for optimizer, batch_size in itertools.product(PANEL_OPTIMIZERS, PANEL_BATCH_SIZES):
        config = nn.MLPConfig(
            hidden_layers=2,
            nodes_per_hidden=6,
            activations=("tanh", "relu", "sigmoid", "sigmoid"),
            optimizer=optimizer,
            epochs=4,
            batch_size=batch_size,
        )
        models = nn.train_folds(config, dataset.features, dataset.labels, train_sets, [5, 6, 7])
        h = hashlib.sha256()
        for model in models:
            h.update(model.params.tobytes())
            h.update(json.dumps([float(loss).hex() for loss in model.loss_history]).encode())
        digests[f"{optimizer}/batch{batch_size}"] = h.hexdigest()
    return digests


def _pins() -> dict:
    pins = json.loads(PIN_FILE.read_text(encoding="utf-8"))
    if pins["environment"] != environment():
        pytest.skip(f"digests pinned on {pins['environment']}, running on {environment()}")
    return pins


def test_search_outputs_match_the_pin(tmp_path):
    assert search_digests(tmp_path) == _pins()["search"]


def test_trained_panel_matches_the_pin():
    assert panel_digests() == _pins()["panel"]


def test_one_ulp_learning_rate_change_breaks_the_pin(monkeypatch):
    pinned = _pins()["panel"]
    rate = nn.DEFAULT_LEARNING_RATES["adam"]
    monkeypatch.setitem(nn.DEFAULT_LEARNING_RATES, "adam", np.nextafter(rate, 1.0))
    moved = {key for key, digest in panel_digests().items() if digest != pinned[key]}
    assert moved == {f"adam/batch{batch}" for batch in PANEL_BATCH_SIZES}


def test_efficiency_digest_pins_line_format_but_not_wall_times(tmp_path):
    path = tmp_path / "efficiency.csv"

    def digest(walls, newline="\n", last_newline=True):
        rows = ["dataset,pairs,mean_wall_static,mean_wall_adaptive,wall_delta_pct,fraction"]
        rows += [f"{name},2,{w},{w},{w},0.5" for name, w in zip(("a", "overall"), walls)]
        path.write_bytes((newline.join(rows) + (newline if last_newline else "")).encode())
        return _file_digest(path)

    pinned = digest(["1.5", "2.5"])
    assert digest(["0.25", "9.0"]) == pinned
    assert digest(["1.5", "2.5"], newline="\r\n") != pinned
    assert digest(["1.5", "2.5"], last_newline=False) != pinned

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        pins = {
            "environment": environment(),
            "search": search_digests(Path(workdir)),
            "panel": panel_digests(),
        }
    PIN_FILE.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {PIN_FILE}\n")
