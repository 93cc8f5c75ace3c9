"""Contracts that hold across refactors: report bodies and benchmark hooks.

The golden bodies are three `verify` runs restricted to the exact checks, so
no float leaf can drift; each is compared byte for byte, as `--out`
serializes it, together with its exit code.  After a change meant to alter
these bodies, regenerate them with

    PYTHONPATH=src python tests/test_contracts.py

and update the exit codes below if they changed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from nefpoly.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
EXACT_CHECKS = "two-ortho,full-ortho,bruno,recover"

# golden file stem -> (verify arguments, exit code)
CASES = {
    "verify-all": (["--all"], 0),
    "verify-ig-typo": (["ig", "--m0=1", "--inject-typo", "table1-p2"], 1),
    "verify-anchor-7-9": (["ig", "gamma", "poisson", "takacs", "--m0=7/9"], 0),
}


def run_body(args: list[str], path: Path) -> tuple[int, str]:
    """(exit code, report body as --out serializes it) of one verify run."""
    code = main(["verify", *args, "--checks", EXACT_CHECKS, "--out", str(path)])
    body = json.loads(path.read_text(encoding="utf-8"))["body"]
    return code, json.dumps(body, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", CASES)
def test_golden_body(name, tmp_path):
    args, want_code = CASES[name]
    code, body = run_body(args, tmp_path / "report.json")
    assert code == want_code
    assert body == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, (args, _) in CASES.items():
            code, body = run_body(args, Path(tmp) / "report.json")
            (GOLDEN / f"{name}.json").write_text(body, encoding="utf-8")
            print(f"{name}: exit {code}")
