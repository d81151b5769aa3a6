"""The paper's measured claims, checked against stored figure cells.

Each :class:`Claim` row names the figure scenario it reads, the stored
field (the index entry's ``metrics``, or the result payload's ``data``),
the comparison and the paper section it comes from.  ``repro campaign
status`` evaluates every row on every stored cell of its scenario and
prints one line per claim x backend x scale: how many seeds pass (k/n)
and the range of the compared value.  The bounds are the paper's; a claim
this simulator does not reproduce is reported as failing, never retuned.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

from repro.analysis.reporting import Table
from repro.analysis.stats import median

_OPS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


@dataclass(frozen=True)
class Claim:
    """One row of the claims table: ``value(source) <op> bound``."""

    scenario: str
    #: ``"metrics"`` (the index entry's metrics) or ``"data"`` (the payload's).
    field: str
    #: The compared quantity, written in the stored field's keys.
    quantity: str
    #: ``">"``, ``">="`` or ``"<="`` a number, or ``"in"`` a closed range.
    op: str
    bound: object
    section: str
    value: Callable[[Mapping], float]

    def passes(self, value: float) -> bool:
        """Whether one cell's value satisfies the claim."""
        if self.op == "in":
            low, high = self.bound
            return low <= value <= high
        return _OPS[self.op](value, self.bound)

    def comparison(self) -> str:
        """The claim as text, e.g. ``correlation > 0.5``."""
        if self.op == "in":
            return f"{self.quantity} in [{self.bound[0]}, {self.bound[1]}]"
        return f"{self.quantity} {self.op} {self.bound}"


def _ratio(a: float, b: float) -> float:
    """``a / b`` for non-negative quantities; ``0 / 0`` compares as equal."""
    if b:
        return a / b
    return math.inf if a else 1.0


def _app_aware_win_rate(metrics: Mapping[str, float]) -> float:
    """Share of ``<config>.<policy>`` configurations where AppAware is
    within 10% of the best policy (the rule of Figs. 8 and 9's stored
    ``app_aware_win_rate``)."""
    configs: Dict[str, Dict[str, float]] = {}
    for key, value in metrics.items():
        config, _, policy = key.rpartition(".")
        configs.setdefault(config, {})[policy] = value
    wins = [p["AppAware"] <= min(p.values()) * 1.10 for p in configs.values()]
    return sum(wins) / len(wins)


def _latency_ratio(data: Mapping) -> float:
    series = data["series"]
    return _ratio(
        median(series["inter-groups/HighBias"]["latencies"]),
        median(series["inter-groups/Adaptive"]["latencies"]),
    )


CLAIMS: Tuple[Claim, ...] = (
    Claim("figure3", "metrics", "median.inter-groups / median.inter-nodes", ">", 1,
          "Fig. 3", lambda m: _ratio(m["median.inter-groups"], m["median.inter-nodes"])),
    Claim("figure3", "metrics", "qcd.inter-groups / qcd.inter-nodes", ">=", 1,
          "Fig. 3", lambda m: _ratio(m["qcd.inter-groups"], m["qcd.inter-nodes"])),
    Claim("figure4", "metrics", "max qcd.<size>", ">", 0,
          "Fig. 4", lambda m: max(v for k, v in m.items() if k.startswith("qcd."))),
    Claim("table1", "metrics", "flit_ratio", "in", (1.2, 2.8),
          "Table 1", lambda m: m["flit_ratio"]),
    Claim("table1", "metrics", "normalized_ratio", "in", (0.5, 1.5),
          "Table 1, §3.2", lambda m: m["normalized_ratio"]),
    Claim("model_validation", "metrics", "correlation", ">", 0.5,
          "§2.4 (paper: 0.79)", lambda m: m["correlation"]),
    Claim("figure7", "metrics",
          "median.intra-group.Adaptive / median.intra-group.HighBias", "<=", 1.15,
          "Fig. 7", lambda m: _ratio(m["median.intra-group.Adaptive"],
                                     m["median.intra-group.HighBias"])),
    Claim("figure7", "data",
          "median latency inter-groups/HighBias / inter-groups/Adaptive", "<=", 1.15,
          "Fig. 7", _latency_ratio),
    Claim("figure8", "metrics", "max |<bench>.<input>.HighBias - 1|", ">", 0.10,
          "Fig. 8", lambda m: max(abs(v - 1) for k, v in m.items() if k.endswith(".HighBias"))),
    Claim("figure8", "metrics", "app_aware_win_rate", ">=", 1,
          "Fig. 8", lambda m: m["app_aware_win_rate"]),
    Claim("figure9", "metrics", "app_aware_win_rate", ">=", 1,
          "Fig. 9", lambda m: m["app_aware_win_rate"]),
    Claim("figure10", "metrics", "share of <app> with <app>.AppAware <= 1.10 x best", ">=", 1,
          "Fig. 10", _app_aware_win_rate),
)


def claim_rows(store) -> List[Dict[str, object]]:
    """One row per claim x backend x scale over the store's cells.

    ``passed`` of ``cells`` stored seeds satisfy the claim; ``low`` and
    ``high`` bound the compared value.  Claims whose scenario has no stored
    cell yield no row.
    """
    index = store.index()
    rows: List[Dict[str, object]] = []
    for claim in CLAIMS:
        groups: Dict[Tuple[str, str], List[float]] = {}
        for spec_hash in sorted(index):
            entry = index[spec_hash]
            if entry.get("scenario") != claim.scenario:
                continue
            if claim.field == "data":
                path = store.root / str(entry["result"])
                source = json.loads(path.read_text(encoding="utf-8"))["data"]
            else:
                source = entry.get("metrics") or {}
            key = (str(entry.get("backend", "")), str(entry.get("scale", "")))
            groups.setdefault(key, []).append(claim.value(source))
        for (backend, scale), values in sorted(groups.items()):
            rows.append({
                "claim": claim, "backend": backend, "scale": scale,
                "passed": sum(claim.passes(v) for v in values), "cells": len(values),
                "low": min(values), "high": max(values),
            })
    return rows


def render_claims(rows: List[Dict[str, object]]) -> str:
    """The ``paper claims`` section of ``repro campaign status``."""
    table = Table(
        title="paper claims (k/n: stored seeds passing; value: range over them)",
        columns=["scenario", "claim", "section", "backend", "scale", "k/n", "value"],
    )
    for row in rows:
        claim = row["claim"]
        value = f"{row['low']:.3g}"
        if row["high"] != row["low"]:
            value += f"–{row['high']:.3g}"
        table.add_row(
            claim.scenario, claim.comparison(), claim.section, row["backend"],
            row["scale"], f"{row['passed']}/{row['cells']}", value,
        )
    return table.render()
