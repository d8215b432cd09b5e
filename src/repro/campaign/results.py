"""Result records for campaign runs, with JSON/CSV export.

A :class:`ScenarioRecord` is the flat, JSON-serializable outcome of one
scenario evaluation — exactly what the content-addressed store persists,
so a cached record and a freshly evaluated one are indistinguishable
(apart from the runtime-only ``cached`` flag).  A :class:`CampaignResult`
holds the records of one run of either campaign flavour: these, or the
serving layer's :class:`~repro.serve.scenario.ServingRecord`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Mapping


@dataclass(frozen=True)
class ScenarioRecord:
    """Evaluation outcome of one scenario (see ``Scenario.describe``).

    ``eval_seconds`` is the leaf's host wall time.  Within one run, the
    first scenario evaluated on a graph also carries that graph's
    generation and partition time; later scenarios on the same graph
    reuse the build (:class:`repro.campaign.executor.GraphMemo`).
    """

    label: str
    key: str
    scenario: dict[str, Any]
    epoch_seconds: float
    epoch_energy_joules: float
    peak_celsius: float
    thermally_feasible: bool
    worst_compute_seconds: float
    worst_communication_seconds: float
    energy_per_input_joules: float
    num_inputs: int
    eval_seconds: float
    cached: bool = False

    @property
    def edp(self) -> float:
        return self.epoch_seconds * self.epoch_energy_joules

    def metrics(self) -> dict[str, float]:
        """The physical outcome alone — invariant under caching/timing."""
        return {
            "epoch_seconds": self.epoch_seconds,
            "epoch_energy_joules": self.epoch_energy_joules,
            "peak_celsius": self.peak_celsius,
            "thermally_feasible": self.thermally_feasible,
            "worst_compute_seconds": self.worst_compute_seconds,
            "worst_communication_seconds": self.worst_communication_seconds,
            "energy_per_input_joules": self.energy_per_input_joules,
            "num_inputs": self.num_inputs,
            "edp": self.edp,
        }

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], cached: bool = False) -> "ScenarioRecord":
        payload = {k: v for k, v in dict(data).items() if k in cls.__dataclass_fields__}
        payload["cached"] = cached
        return cls(**payload)


@dataclass
class CampaignResult:
    """Everything one campaign run produced, in scenario order.

    ``records`` are :class:`ScenarioRecord` or
    :class:`~repro.serve.scenario.ServingRecord` rows; export needs only
    their shared ``label``/``key``/``scenario``/``cached`` fields and
    ``metrics()``/``to_dict()``.
    """

    name: str
    records: list[Any]
    hits: int = 0
    misses: int = 0
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_json(self, path: str | Path) -> Path:
        """Write the full campaign (records + cache stats) as JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "campaign": self.name,
            "num_scenarios": len(self.records),
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "elapsed_seconds": self.elapsed_seconds,
            "records": [r.to_dict() for r in self.records],
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return path

    def to_csv(self, path: str | Path) -> Path:
        """Write one flat row per scenario (knobs + metrics)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = []
        for record in self.records:
            row: dict[str, Any] = {"label": record.label, "key": record.key}
            row.update((k, v) for k, v in record.scenario.items() if k != "label")
            row.update(record.metrics())
            row["cached"] = record.cached
            rows.append(row)
        columns = list(dict.fromkeys(name for row in rows for name in row))
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns)
            writer.writeheader()
            writer.writerows(rows)
        return path

    @classmethod
    def from_json(cls, path: str | Path) -> "CampaignResult":
        """Reload an architecture campaign written by :meth:`to_json`."""
        data = json.loads(Path(path).read_text())
        return cls(
            name=data["campaign"],
            records=[ScenarioRecord.from_dict(r, cached=r.get("cached", False))
                     for r in data["records"]],
            hits=data.get("cache_hits", 0),
            misses=data.get("cache_misses", 0),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
        )
