import json

from compare_outputs import compare_trees


def _write(root, rel, doc):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc, indent=2, sort_keys=True))


def test_compare_trees_reports_each_kind_of_difference(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    report = {"config": {"out": "runs/a", "seeds": [1]}, "mean": {"accuracy": 90.0, "ece": 2.5},
              "run_info": {"runtime_seconds": 1.0}}
    _write(a, "ood/report.json", report)
    # run_info and config.out are left out of the comparison
    _write(b, "ood/report.json", {**report, "config": {"out": "runs/b", "seeds": [1]},
                                  "run_info": {"runtime_seconds": 2.0}})
    _write(a, "ood/sweep.csv", "lambda,accuracy\n0.0,90.0\n0.002,91.0\n")
    _write(b, "ood/sweep.csv", "lambda,accuracy\n0.0,90.0\n0.002,91.0000091\n")
    _write(a, "probe/report.json", {"mean": {"accuracy": 90.0, "ece": 2.5}})
    _write(b, "probe/report.json", {"mean": {"accuracy": 90.0}})
    _write(a, "verify/stdout.txt", "exit code 0\n[PASS] closed_form_vs_grid  (max gap 4.0e-03)\n")
    _write(b, "verify/stdout.txt", "exit code 0\n[PASS] closed_form_vs_grid  (max gap 5.0e-03)\n")
    _write(a, "train/history.csv", "epoch,loss\n0,1.5\n")
    # a key removed early in the file hides no number after it
    _write(a, "sweep/report.json", {"config": {"model": {"epochs": 3, "optimizer": "adam"}},
                                    "mean": {"accuracy": 90.0, "kind": "ood"}})
    _write(b, "sweep/report.json", {"config": {"model": {"epochs": 3}},
                                    "mean": {"accuracy": 99.0, "kind": "id", "n": 4}})

    verdicts = compare_trees(a, b)

    assert verdicts == {
        "ood/report.json": "identical",
        "ood/sweep.csv": "max relative difference 1.000e-07",
        "probe/report.json": "mean.ece only in the first; max relative difference 0.000e+00",
        "verify/stdout.txt": "max relative difference 2.000e-01",
        "train/history.csv": "only in the first",
        "sweep/report.json": ("config.model.optimizer only in the first; "
                              "mean.n only in the second; mean.kind differs: 'ood' vs 'id'; "
                              "max relative difference 9.091e-02"),
    }
