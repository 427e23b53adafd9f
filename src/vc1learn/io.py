"""File formats: concept-class JSON and dataset CSV.

Both round-trip losslessly: load then save then load yields equal values.
A class is saved as given, canonical or not. Malformed input raises
``ValueError`` rather than being cast or cut short.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .concepts import ConceptClass, Dataset


def class_to_json(cls: ConceptClass) -> dict:
    return {
        "name": cls.name,
        "domain_size": cls.domain_size,
        "concepts": [
            {"id": c.id if c.id is not None else f"c{i}", "ones": sorted(c.ones)}
            for i, c in enumerate(cls.concepts)
        ],
    }


def class_from_json(data: dict) -> ConceptClass:
    if not isinstance(data, dict):
        raise ValueError("class JSON must be an object")
    entries, size = data["concepts"], data["domain_size"]
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and isinstance(e.get("ones"), list) for e in entries
    ):
        raise ValueError("class JSON needs list-valued 'ones'")
    return ConceptClass.from_ones(
        size,
        [entry["ones"] for entry in entries],
        [str(entry["id"]) for entry in entries],
        name=data.get("name"),
    )


def save_class(cls: ConceptClass, path: str | Path) -> None:
    Path(path).write_text(json.dumps(class_to_json(cls), indent=2) + "\n")


def load_class(path: str | Path) -> ConceptClass:
    return class_from_json(json.loads(Path(path).read_text()))


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["point", "label"])
        for p, l in zip(dataset.points, dataset.labels):
            writer.writerow([int(p), int(l)])


def load_dataset(path: str | Path) -> Dataset:
    points: list[int] = []
    labels: list[int] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["point", "label"]:
            raise ValueError("dataset CSV must start with header 'point,label'")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"dataset CSV line {reader.line_num} needs two fields")
            points.append(int(row[0]))
            labels.append(int(row[1]))
    # no casts here: Dataset checks the values before it casts them
    return Dataset(np.array(points), np.array(labels))
