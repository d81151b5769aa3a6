"""Tests for the paper-claims table and its ``campaign status`` section."""

from __future__ import annotations

import json

import pytest

from repro.analysis.claims import CLAIMS, claim_rows
from repro.campaign import ArtifactStore, RunSpec
from repro.experiments import figure8
from repro.experiments.cli import campaign_main


def _fig7_latencies(high_bias, adaptive):
    return {
        "series": {
            "inter-groups/HighBias": {"latencies": high_bias},
            "inter-groups/Adaptive": {"latencies": adaptive},
        }
    }


def _fig10(cp2k_app_aware):
    return {
        "cp2k.Default": 1.0, "cp2k.HighBias": 0.9, "cp2k.AppAware": cp2k_app_aware,
        "fft.Default": 1.0, "fft.HighBias": 1.2, "fft.AppAware": 1.05,
    }


#: One passing and one failing stored source per claim row, in CLAIMS order.
SAMPLES = [
    ({"median.inter-groups": 120.0, "median.inter-nodes": 100.0},
     {"median.inter-groups": 100.0, "median.inter-nodes": 100.0}),
    ({"qcd.inter-groups": 0.0, "qcd.inter-nodes": 0.0},
     {"qcd.inter-groups": 0.037, "qcd.inter-nodes": 0.381}),
    ({"qcd.256": 0.0, "qcd.1024": 0.2}, {"qcd.256": 0.0, "qcd.1024": 0.0}),
    ({"flit_ratio": 2.8}, {"flit_ratio": 1.1}),
    ({"normalized_ratio": 0.5}, {"normalized_ratio": 1.6}),
    ({"correlation": 0.79}, {"correlation": 0.5}),
    ({"median.intra-group.Adaptive": 115.0, "median.intra-group.HighBias": 100.0},
     {"median.intra-group.Adaptive": 116.0, "median.intra-group.HighBias": 100.0}),
    (_fig7_latencies([90, 115, 200], [80, 100, 120]), _fig7_latencies([120], [100])),
    ({"pingpong.16B.Default": 1.0, "pingpong.16B.HighBias": 1.0,
      "halo3d.small.HighBias": 0.85},
     {"pingpong.16B.HighBias": 1.05, "halo3d.small.HighBias": 0.95}),
    ({"app_aware_win_rate": 1.0}, {"app_aware_win_rate": 0.538}),
    ({"app_aware_win_rate": 1.0}, {"app_aware_win_rate": 0.692}),
    (_fig10(0.99), _fig10(1.0)),
]


def test_every_claim_row_has_samples():
    assert len(SAMPLES) == len(CLAIMS)


@pytest.mark.parametrize(
    "claim,passing,failing",
    [(claim, *sample) for claim, sample in zip(CLAIMS, SAMPLES)],
    ids=[f"{index}-{claim.scenario}" for index, claim in enumerate(CLAIMS)],
)
def test_claim_row_passes_and_fails(claim, passing, failing):
    assert claim.passes(claim.value(passing))
    assert not claim.passes(claim.value(failing))


def _save_figure3(store, seed, backend, inter_groups_qcd):
    metrics = {
        "median.inter-groups": 150.0, "median.inter-nodes": 100.0,
        "qcd.inter-groups": inter_groups_qcd, "qcd.inter-nodes": 0.2,
    }
    spec = RunSpec.make("figure3", seed=seed, backend=backend)
    store.save(spec, {"figure": "figure3", "metrics": metrics})


def test_rows_count_passing_seeds_per_backend_and_scale(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    for backend in ("flit", "flow"):
        _save_figure3(store, seed=1, backend=backend, inter_groups_qcd=0.4)
        _save_figure3(store, seed=2, backend=backend, inter_groups_qcd=0.1)
    rows = claim_rows(store)
    assert [(row["claim"], row["backend"]) for row in rows] == [
        (CLAIMS[0], "flit"), (CLAIMS[0], "flow"), (CLAIMS[1], "flit"), (CLAIMS[1], "flow"),
    ]
    for row in rows:
        assert row["scale"] == "smoke" and row["cells"] == 2
    slower, noisier = rows[0], rows[2]
    assert (slower["passed"], slower["low"], slower["high"]) == (2, 1.5, 1.5)
    assert (noisier["passed"], noisier["low"], noisier["high"]) == (1, 0.5, 2.0)


def test_status_prints_claims_only_for_figure_cells(tmp_path, capsys):
    figures = ArtifactStore(tmp_path / "figures")
    _save_figure3(figures, seed=1, backend="flow", inter_groups_qcd=0.3)
    assert campaign_main(["status", "--store", str(figures.root)]) == 0
    out = capsys.readouterr().out
    assert "paper claims" in out
    assert "median.inter-groups / median.inter-nodes > 1" in out

    sweep = ArtifactStore(tmp_path / "sweep")
    spec = RunSpec.make("pingpong-placement", {"placement": "inter-groups"})
    sweep.save(spec, {"metrics": {"median": 1.0}})
    assert campaign_main(["status", "--store", str(sweep.root)]) == 0
    assert "paper claims" not in capsys.readouterr().out


#: Claim rows that pass on flow smoke at the default seed.  This pin may
#: only grow: a row leaving it is a regression of the reproduction.
PASSING_ON_FLOW_SMOKE = {
    ("figure3", "median.inter-groups / median.inter-nodes"),
    ("figure4", "max qcd.<size>"),
    ("table1", "flit_ratio"),
    ("table1", "normalized_ratio"),
    ("model_validation", "correlation"),
    ("figure7", "median.intra-group.Adaptive / median.intra-group.HighBias"),
    ("figure7", "median latency inter-groups/HighBias / inter-groups/Adaptive"),
    ("figure8", "max |<bench>.<input>.HighBias - 1|"),
}


def test_flow_smoke_claims_ratchet(tmp_path, capsys):
    store_dir = tmp_path / "store"
    scenarios = ["figure3", "figure4", "figure7", "figure8", "table1", "model_validation"]
    code = campaign_main(["run", *scenarios, "--backend", "flow", "--store", str(store_dir)])
    assert code == 0
    capsys.readouterr()
    store = ArtifactStore(store_dir)
    passing = {
        (row["claim"].scenario, row["claim"].quantity)
        for row in claim_rows(store)
        if row["passed"] == row["cells"]
    }
    assert PASSING_ON_FLOW_SMOKE <= passing
    # The Figure 8 payload holds one row per entry of the benchmark matrix.
    (entry,) = [e for e in store.index().values() if e["scenario"] == "figure8"]
    payload = json.loads((store.root / entry["result"]).read_text(encoding="utf-8"))
    assert len(payload["data"]["rows"]) == len(figure8.benchmark_matrix())
