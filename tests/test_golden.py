"""Byte-for-byte JSON output of the command line, against committed documents.

Each case runs `wallcross.cli.main(argv + ["--format", "json"])` in-process
and compares standard output with `tests/golden/<name>.json`.  The documents
may change only together with a deliberate `SCHEMA_VERSION` bump; rewrite
them then with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from wallcross import cli

GOLDEN = Path(__file__).parent / "golden"

FIRST_U = ("--surface", "blowup:3", "--u", "8,5/6,2/3,4/9")
FIRST_PAIR = FIRST_U + ("--v", "12,34/9,13/9,1")
PRODUCT_PAIR = ("--surface", "product", "--u", "5/2,1", "--v", "7/2,1")
STRATA = ("strata", "--surface", "blowup:4", "--u", "10,4,3,2,1", "--level", "6")
SETS_A = GOLDEN / "sets_floor3_a.json"
SETS_B = GOLDEN / "sets_floor3_b.json"

# Argument lists without "--format json"; the set files come before the
# diff that reads them, so rewriting the documents in order is consistent.
CASES = {
    "sets_product": ["sets", "--surface", "product", "--u", "5/2,1"],
    "sets_product_certified": [
        "sets", "--surface", "product", "--u", "5/2,1",
        "--tier", "cremona_certified",
    ],
    "sets_blowup3": ["sets", "--surface", "blowup:3", "--u", "10,4,3,2"],
    "diff_product": ["diff", *PRODUCT_PAIR],
    "stability_product": ["stability", *PRODUCT_PAIR],
    "stability_product_near": [
        "stability", "--surface", "product", "--u", "5/2,1", "--v", "27/10,1",
    ],
    "certify_product_far": [
        "certify", "--surface", "product", "--u", "5/2,1", "--v", "9/2,1",
    ],
    "certify_product": ["certify", *PRODUCT_PAIR],
    "capacities_plane": ["capacities", "--surface", "blowup:0", "--u", "1", "--balls", "2"],
    "capacities_plane_walls": [
        "capacities", "--surface", "blowup:0", "--u", "1", "--balls", "2",
        "--emit-walls",
    ],
    "sets_first": ["sets", *FIRST_U],
    "sets_first_certified": ["sets", *FIRST_U, "--tier", "cremona_certified"],
    "diff_first": ["diff", *FIRST_PAIR],
    "stability_first": ["stability", *FIRST_PAIR],
    "certify_first": ["certify", *FIRST_PAIR],
    "surface_blowup8": ["surface", "--surface", "blowup:8"],
    "enumerate_blowup6": ["enumerate", "--surface", "blowup:6", "--square", "-1"],
    "enumerate_blowup9_box": [
        "enumerate", "--surface", "blowup:9", "--square", "-2", "--box", "2",
    ],
    "certify_perturbed": [
        "certify", "--surface", "blowup:3", "--u", "10,4,3,2", "--v", "10,2,3,4",
    ],
    "strata_index": [*STRATA],
    "strata_compare": [*STRATA, "--v", "10,3,3,2,1"],
    "capacities_product_flagged": [
        "capacities", "--surface", "product", "--u", "1,1", "--balls", "1",
    ],
    "capacities_fixed": [
        "capacities", "--surface", "blowup:2", "--u", "4,1,1",
        "--capacities", "1,1/2",
    ],
    "sets_floor3_a": [
        "sets", "--surface", "blowup:3", "--u", "10,4,3,2", "--floor", "3",
        "--tier", "cremona_certified",
    ],
    "sets_floor3_b": [
        "sets", "--surface", "blowup:3", "--u", "10,2,3,4", "--floor", "3",
        "--tier", "cremona_certified",
    ],
    "diff_files": ["diff", "--sets-a", str(SETS_A), "--sets-b", str(SETS_B)],
}


def json_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--format", "json"])
    assert code == 0, f"exit {code}"
    return out.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_golden(name):
    assert json_output(CASES[name]) == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.json").write_bytes(json_output(argv))
