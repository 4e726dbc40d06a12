"""CLI reports pinned byte for byte.

The files under golden/ are reports of `monomial verify thm27`,
`monomial extend run`, `monomial campaign run` and `monomial tame` (the
sweeps, and the Galois models, whose root numbers print as exact Cyc(...)
coefficients).  The extend runs use value functions that extend
(Delta = F o phi with F trivial on permutation characters), so the
reports list F(chi_i) in the irreducible order.  Two thm27 reports read their group from a table file
(S3xS3.grp, Q8xC3.grp: direct products in the `dump_group` format).
The campaign report runs the extend, towers and type3 checks on five
catalog groups at N trivial, center and derived.
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
    ("tame_galois_kummer_q7_ell3.txt",
     ["tame", "galois-model", "--model", "kummer", "--q", "7", "--ell", "3"]),
    ("tame_galois_bikummer_q7_ell3.txt",
     ["tame", "galois-model", "--model", "bikummer", "--q", "7", "--ell", "3"]),
    ("tame_galois_unramified_q2_deg3.txt",
     ["tame", "galois-model", "--model", "unramified", "--q", "2", "--degree", "3"]),
    ("tame_galois_s3_q2_ell3.txt",
     ["tame", "galois-model", "--model", "s3", "--q", "2", "--ell", "3"]),
    ("tame_dh1_q7_ell3_ramified.txt", ["tame", "dh1", "--q", "7", "--ell", "3", "--ramified"]),
    ("tame_dh1_q4_ell3.txt", ["tame", "dh1", "--q", "4", "--ell", "3"]),
    ("tame_dh1_q11_ell3.txt", ["tame", "dh1", "--q", "11", "--ell", "3"]),
    ("tame_dh1_q16_ell3.txt", ["tame", "dh1", "--q", "16", "--ell", "3"]),
    ("tame_dh3_q2_ell3.txt", ["tame", "dh3", "--q", "2", "--ell", "3"]),
    ("thm27_S3xS3.txt", ["verify", "thm27", "S3xS3.grp"]),
    ("thm27_Q8xC3.txt", ["verify", "thm27", "Q8xC3.grp"]),
    ("campaign_catalog.txt", ["campaign", "run", "campaign_catalog.camp"]),
]


@pytest.mark.parametrize("report, args", REPORTS, ids=[r for r, _ in REPORTS])
def test_report_is_byte_identical(report, args):
    args = [
        os.path.join(GOLDEN, a) if a.endswith((".delta", ".camp", ".grp")) else a
        for a in args
    ]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0
    with open(os.path.join(GOLDEN, report), "rb") as handle:
        assert result.stdout_bytes == handle.read()



@pytest.mark.parametrize("args", [["verify", "thm27"], ["type3", "scan"]])
def test_group_file_label_is_the_file_name(args, monkeypatch):
    # the bare name, ./name and the absolute path give one report, whose
    # lines are labelled with the file name
    monkeypatch.chdir(GOLDEN)
    paths = ("S3xS3.grp", "./S3xS3.grp", os.path.join(GOLDEN, "S3xS3.grp"))
    reports = {CliRunner().invoke(main, args + [path]).stdout_bytes for path in paths}
    assert len(reports) == 1
    assert reports.pop().startswith(b"S3xS3.grp ")
