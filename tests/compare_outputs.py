"""Compare what every runner writes at a git revision and in this checkout.

    python tests/compare_outputs.py REV

REV is extracted with ``git archive REV | tar -x`` into a temporary
directory, so nothing under .git changes.  In that tree and in this
checkout (working files, uncommitted edits included) the script runs, each
with its own configs and with the same relative output paths:

* ``ood``, ``scaling``, ``longtail`` and ``sweep`` on configs/standard.json,
* ``probe`` on configs/probe.json,
* ``train`` and then ``eval`` on configs/moons.json,
* ``verify``.

Every command's exit code and stdout are kept next to the files it writes.
Then for each file it prints "identical", or its differences: every field
found in one file only, every field whose non-numeric value differs, and
the largest relative difference of the numeric fields both files have.
Reports are compared without ``run_info`` and ``config.out``.  The script
bounds nothing: it reports and exits 0, and judging a difference is up to
the reader.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]

# (output directory, CLI arguments); paths are relative to the output root
# and the tree, so reports of both trees name the same paths
COMMANDS = [
    *[(name, [name, "--config", "{tree}/configs/standard.json", "--out", name])
      for name in ("ood", "scaling", "longtail", "sweep")],
    ("probe", ["probe", "--config", "{tree}/configs/probe.json", "--out", "probe"]),
    ("train", ["train", "--config", "{tree}/configs/moons.json", "--out", "train"]),
    ("eval", ["eval", "--config", "{tree}/configs/moons.json", "--out", "eval",
              "--checkpoint", "train/checkpoint.json"]),
    ("verify", ["verify"]),
]

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def run_all(tree: Path, root: Path) -> None:
    """Run every command with tree's sources, writing under root."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for name, args in COMMANDS:
        args = [a.format(tree=tree) for a in args]
        done = subprocess.run([sys.executable, "-m", "dappr.cli", *args], cwd=root,
                              env=env, capture_output=True, text=True)
        (root / name).mkdir(exist_ok=True)
        (root / name / "stdout.txt").write_text(f"exit code {done.returncode}\n{done.stdout}")


def _parse(path: Path):
    """A file's content as nested lists and dicts of numbers and strings."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        doc = json.loads(text)
        if isinstance(doc, dict):
            doc.pop("run_info", None)
            if isinstance(doc.get("config"), dict):
                doc["config"].pop("out", None)
        return doc
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(text)))
        return [[_number_or_text(cell) for cell in row] for row in rows]
    return [[_number_or_text(tok) for tok in _NUMBER.split(line)] for line in text.splitlines()]


def _number_or_text(token: str):
    try:
        return float(token)
    except ValueError:
        return token


def _leaves(value, path: str = "") -> list[tuple[str, object]]:
    if isinstance(value, dict) and value:
        return [leaf for key in sorted(value)
                for leaf in _leaves(value[key], f"{path}.{key}" if path else key)]
    if isinstance(value, list) and value:
        return [leaf for i, item in enumerate(value) for leaf in _leaves(item, f"{path}[{i}]")]
    return [(path, value)]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _relative_difference(x: float, y: float) -> float:
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare_files(a: Path, b: Path) -> str:
    """The verdict on two output files: "identical", or their differences.

    Fields are paired by path, so a field one file lacks hides nothing
    after it: each such path is listed, then each shared path whose values
    differ but are not both numbers, then the largest relative difference
    over the shared numeric fields, all joined by "; ".
    """
    va, vb = _parse(a), _parse(b)
    if json.dumps(va, sort_keys=True) == json.dumps(vb, sort_keys=True):
        return "identical"
    la, lb = dict(_leaves(va)), dict(_leaves(vb))
    notes = [f"{path or '(root)'} only in the {side}"
             for side, only in (("first", la.keys() - lb.keys()),
                                ("second", lb.keys() - la.keys()))
             for path in sorted(only)]
    worst = 0.0
    for path in sorted(la.keys() & lb.keys()):
        xa, xb = la[path], lb[path]
        if _is_number(xa) and _is_number(xb):
            worst = max(worst, _relative_difference(float(xa), float(xb)))
        elif xa != xb:
            notes.append(f"{path or '(root)'} differs: {xa!r} vs {xb!r}")
    return "; ".join(notes + [f"max relative difference {worst:.3e}"])


def compare_trees(a: Path, b: Path) -> dict[str, str]:
    """Verdict per relative file path over two output roots."""
    files_a = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    verdicts = {}
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            verdicts[rel] = "only in the first"
        elif rel not in files_a:
            verdicts[rel] = "only in the second"
        else:
            verdicts[rel] = compare_files(a / rel, b / rel)
    return verdicts


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/compare_outputs.py REV", file=sys.stderr)
        return 1
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        base = tmp / "tree"
        base.mkdir()
        archive = subprocess.run(["git", "-C", str(CHECKOUT), "archive", rev],
                                 capture_output=True)
        if archive.returncode:
            print(f"error: {archive.stderr.decode().strip()}", file=sys.stderr)
            return 1
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        for tree, out in ((base, tmp / "rev"), (CHECKOUT, tmp / "checkout")):
            out.mkdir()
            run_all(tree, out)
        print(f"first: {rev}, second: this checkout")
        for rel, verdict in compare_trees(tmp / "rev", tmp / "checkout").items():
            print(f"{rel}: {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
