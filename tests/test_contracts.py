"""Contracts that hold across refactors: report bodies, the catalog listing
and benchmark hooks.

The exact golden bodies are three `verify` runs restricted to the exact
checks, so no float leaf can drift; each is compared byte for byte, as
`--out` serializes it, together with its exit code.

The float golden bodies are two `verify` runs at the default checks.  Their
exit codes and every non-float leaf are always compared.  Their float leaves
are compared exactly only on the Python version recorded in
`golden/float-versions.json` (the float layer uses only the standard
library); on any other version that one test skips and names both.

The catalog goldens are the `families` listing in text and JSON; they pin
every row's name, class, params, mean domain, V(m) and closed-forms flag,
and are compared byte for byte.

A perturbation test checks that the comparisons can fail: one Gram entry,
one verdict and the probe points, each changed alone, must make a body
differ from its golden.

After a change meant to alter these bodies, regenerate them with

    PYTHONPATH=src python tests/test_contracts.py

which prints every JSON path whose leaf changed, and update the exit codes
below if they changed.
"""

import dataclasses
import importlib.util
import json
import platform
from pathlib import Path

import pytest

import nefpoly.report
from nefpoly.cli import main
from nefpoly.ortho import GramMatrix

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
FLOAT_VERSIONS = GOLDEN / "float-versions.json"

EXACT = ["--checks", "two-ortho,full-ortho,bruno,recover"]

# golden file stem -> (verify arguments, exit code)
CASES = {
    "verify-all": (["--all", *EXACT], 0),
    "verify-ig-typo": (["ig", "--m0=1", "--inject-typo", "table1-p2", *EXACT], 1),
    "verify-anchor-7-9": (["ig", "gamma", "poisson", "takacs", "--m0=7/9", *EXACT], 0),
}
FLOAT_CASES = {
    "verify-all-float": (["--all"], 0),
    "verify-anchor-2-9-float": (["ig", "gamma", "poisson", "takacs", "--m0=2/9"], 0),
}
# golden file name -> `families` arguments
LISTINGS = {
    "families.txt": [],
    "families.json": ["--format", "json"],
}


def run_body(args: list[str], path: Path) -> tuple[int, str]:
    """(exit code, report body as --out serializes it) of one verify run."""
    code = main(["verify", *args, "--out", str(path)])
    body = json.loads(path.read_text(encoding="utf-8"))["body"]
    return code, json.dumps(body, indent=2, sort_keys=True) + "\n"


def run_listing(args: list[str], path: Path) -> str:
    """The catalog listing as `families --out` writes it."""
    assert main(["families", *args, "--out", str(path)]) == 0
    return path.read_text(encoding="utf-8")


def golden(name: str) -> str:
    return (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def versions() -> dict:
    return {"python": platform.python_version()}


def changed_paths(old, new, path: str = "$"):
    """Paths of the JSON leaves that differ between two trees; an added or
    removed key or list item is one changed path."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from changed_paths(old.get(key, _ABSENT), new.get(key, _ABSENT), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from changed_paths(
                old[i] if i < len(old) else _ABSENT, new[i] if i < len(new) else _ABSENT,
                f"{path}[{i}]",
            )
    elif type(old) is not type(new) or old != new:
        yield path


_ABSENT = object()


def without_floats(node):
    """The JSON tree with every float leaf replaced by a placeholder."""
    if isinstance(node, dict):
        return {k: without_floats(v) for k, v in node.items()}
    if isinstance(node, list):
        return [without_floats(v) for v in node]
    return "<float>" if isinstance(node, float) else node


@pytest.mark.parametrize("name", CASES)
def test_golden_body(name, tmp_path):
    args, want_code = CASES[name]
    code, body = run_body(args, tmp_path / "report.json")
    assert code == want_code
    assert body == golden(name)


@pytest.mark.parametrize("name", LISTINGS)
def test_golden_listing(name, tmp_path):
    assert run_listing(LISTINGS[name], tmp_path / name) == (GOLDEN / name).read_text(
        encoding="utf-8"
    )


@pytest.fixture(scope="module")
def float_runs(tmp_path_factory):
    path = tmp_path_factory.mktemp("float") / "report.json"
    return {name: run_body(args, path) for name, (args, _) in FLOAT_CASES.items()}


@pytest.mark.parametrize("name", FLOAT_CASES)
def test_float_golden_non_float_leaves(name, float_runs):
    code, body = float_runs[name]
    assert code == FLOAT_CASES[name][1]
    assert without_floats(json.loads(body)) == without_floats(json.loads(golden(name)))


def skip_unless_float_versions() -> None:
    """Skip the calling test unless this is where the float goldens were recorded."""
    recorded, here = json.loads(FLOAT_VERSIONS.read_text(encoding="utf-8")), versions()
    if recorded != here:
        pytest.skip(
            f"float leaves not compared: goldens recorded on Python {recorded['python']}, "
            f"running Python {here['python']}"
        )


def test_float_golden_float_leaves(float_runs):
    skip_unless_float_versions()
    for name in FLOAT_CASES:
        assert float_runs[name][1] == golden(name), name


# Perturbations the golden comparisons must notice, one at a time: each
# wraps a name `nefpoly.report` calls and changes one thing in its result.


def _gram_entry_plus_1(monkeypatch):
    orig = nefpoly.report.gram

    def perturbed(seq, moments):
        rows = [list(row) for row in orig(seq, moments).entries]
        rows[2][2] += 1
        return GramMatrix(entries=tuple(map(tuple, rows)))

    monkeypatch.setattr(nefpoly.report, "gram", perturbed)


def _full_ortho_verdict_flipped(monkeypatch):
    orig = nefpoly.report.check_full_orthogonality

    def perturbed(g):
        rep = orig(g)
        flipped = "neither" if rep.verdict == "fully_orthogonal" else "fully_orthogonal"
        return dataclasses.replace(rep, verdict=flipped)

    monkeypatch.setattr(nefpoly.report, "check_full_orthogonality", perturbed)


def _probe_point_shifted(monkeypatch):
    orig = nefpoly.report.partial_sum_density

    def perturbed(seq, forms, x, **kwargs):
        return orig(seq, forms, x=x + 1e-3, **kwargs)

    monkeypatch.setattr(nefpoly.report, "partial_sum_density", perturbed)


@pytest.mark.parametrize(
    "perturb, name",
    (
        (_gram_entry_plus_1, "verify-anchor-7-9"),
        (_full_ortho_verdict_flipped, "verify-anchor-7-9"),
        (_probe_point_shifted, "verify-anchor-2-9-float"),
    ),
    ids=("gram-entry+1", "full-ortho-verdict-flipped", "probe-x+1e-3"),
)
def test_golden_comparison_sees_a_perturbation(monkeypatch, tmp_path, perturb, name):
    if name in FLOAT_CASES:
        skip_unless_float_versions()
    args, _ = {**CASES, **FLOAT_CASES}[name]
    perturb(monkeypatch)
    _, body = run_body(args, tmp_path / "report.json")
    assert body != golden(name)


def test_changed_paths_names_every_changed_leaf():
    old = {"a": [1, {"b": 2.0, "c": "x"}], "d": None, "gone": 1}
    new = {"a": [1, {"b": 2, "c": "x"}, 3], "d": None, "new": {"e": 1}}
    assert list(changed_paths(old, new)) == ["$.a[1].b", "$.a[2]", "$.gone", "$.new"]
    assert list(changed_paths(old, old)) == []


def test_tracer_finds_every_name_it_wraps():
    # perfbench/tracer.py swaps each (owner, attr) through owner.__dict__, so
    # every wrapped name must stay bound where the tracer looks for it.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{owner.__name__}.{attr}"
        for table in (tracer.SPANNED, tracer.COUNTED)
        for _, sites in table
        for owner, attr in sites
        if attr not in owner.__dict__
    ]
    assert missing == []


def regenerate(path: Path, text: str) -> list[str]:
    """Write a golden file; returns its changed JSON paths (a text file: its name)."""
    old = path.read_text(encoding="utf-8") if path.exists() else None
    path.write_text(text, encoding="utf-8")
    if old == text:
        return []
    if old is None or path.suffix != ".json":
        return [path.name]
    return list(changed_paths(json.loads(old), json.loads(text)))


if __name__ == "__main__":
    import tempfile

    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (args, _) in {**CASES, **FLOAT_CASES}.items():
            code, outputs[f"{name}.json"] = run_body(args, Path(tmp) / "report.json")
            print(f"{name}: exit {code}")
        for name, args in LISTINGS.items():
            outputs[name] = run_listing(args, Path(tmp) / name)
    for name, text in outputs.items():
        for path in regenerate(GOLDEN / name, text):
            print(f"changed {name}: {path}")
    FLOAT_VERSIONS.write_text(json.dumps(versions(), indent=2) + "\n", encoding="utf-8")
