"""CLI reports pinned byte for byte.

The files under golden/ are reports of `monomial verify thm27` and
`monomial extend run`; the extend runs use value functions that extend
(Delta = F o phi with F trivial on permutation characters), so the
reports list F(chi_i) in the irreducible order.
"""

import os

import pytest
from click.testing import CliRunner

from monomial.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

REPORTS = [
    ("thm27_S3.txt", ["verify", "thm27", "S3"]),
    ("thm27_D4.txt", ["verify", "thm27", "D4"]),
    ("thm27_C12.txt", ["verify", "thm27", "C12"]),
    ("thm27_Heisenberg27.txt", ["verify", "thm27", "Heisenberg27"]),
    ("extend_S3.txt", ["extend", "run", "S3", "s3.delta", "--n", "derived"]),
    ("extend_Q8.txt", ["extend", "run", "Q8", "q8.delta", "--n", "center"]),
    ("extend_C6.txt", ["extend", "run", "C6", "c6.delta", "--n", "trivial"]),
]


@pytest.mark.parametrize("report, args", REPORTS, ids=[r for r, _ in REPORTS])
def test_report_is_byte_identical(report, args):
    args = [os.path.join(GOLDEN, a) if a.endswith(".delta") else a for a in args]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0
    with open(os.path.join(GOLDEN, report), "rb") as handle:
        assert result.stdout_bytes == handle.read()
