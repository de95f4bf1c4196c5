"""Files the tests write as input for the code under test."""

import csv


def save_csv(ds, path) -> None:
    """Write a LabeledDataset in the load_csv dialect (floats via repr, no header)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row, label in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
