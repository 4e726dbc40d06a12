import os

from click.testing import CliRunner

from monomial import type3
from monomial.catalog import catalog_group
from monomial.cli import main
from monomial.errors import CertificateFailed
from monomial.groups import dump_group


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_catalog_list_and_group_info():
    result = run("catalog", "list")
    assert result.exit_code == 0
    assert "S3 6 False False" in result.output
    assert "C8 8 True True" in result.output
    result = run("group", "info", "S3")
    assert result.exit_code == 0
    assert "order 6" in result.output
    assert "normal-subgroups 3" in result.output


def test_group_info_from_file(tmp_path):
    path = tmp_path / "c6.grp"
    path.write_text(dump_group(catalog_group("C6")))
    result = run("group", "info", str(path))
    assert result.exit_code == 0
    assert "order 6" in result.output
    assert "abelian True" in result.output


def test_relations_gens_kind_filter():
    everything = run("relations", "gens", "S3")
    only_one = run("relations", "gens", "S3", "--kinds", "I")
    assert everything.exit_code == only_one.exit_code == 0
    assert "kind III" in everything.output
    assert "kind III" not in only_one.output


def test_verify_thm27_single_group_and_bad_selector():
    result = run("verify", "thm27", "D4")
    assert result.exit_code == 0
    assert result.output.strip().endswith("RESULT pass")
    bad = run("relations", "gens", "S3", "--n", "3,4")
    assert bad.exit_code != 0
    assert "not a subgroup" in bad.output
    not_normal = run("relations", "gens", "S3", "--n", "0,3")
    assert not_normal.exit_code != 0
    assert "NotNormal" in not_normal.output


def test_type3_scan_reports_census():
    result = run("type3", "scan", "S3")
    assert result.exit_code == 0
    assert "census_ok=True h1_trivial=True" in result.output
    assert "refused HNormal" in result.output


def test_failed_type3_certificate_turns_red(tmp_path, monkeypatch):
    # a failed structure check is a failure, not a neutral refusal
    def fail(q, qh):
        raise CertificateFailed("C is not self-centralizing", witness=qh)

    monkeypatch.setattr(type3, "_check_structure", fail)
    camp = tmp_path / "c.txt"
    camp.write_text("target S3 N=trivial\ncheck type3\n")
    campaign, scan = run("campaign", "run", str(camp)), run("type3", "scan", "S3")
    for result in (campaign, scan):
        assert result.exit_code == 1
        assert "refused HNormal" in result.output
        # one line for each of the three non-normal C2s
        failed = "failed CertificateFailed: C is not self-centralizing"
        assert result.output.count(failed) == 3
    assert campaign.output.endswith("RESULT fail\n")


def test_extend_run_round_trip(tmp_path):
    grp = tmp_path / "c2.grp"
    grp.write_text(dump_group(catalog_group("C2")))
    delta = tmp_path / "c2.delta"
    delta.write_text("0 | 0 | 1\n0 1 | 0 0 | 1\n0 1 | 0 1 | s\n")
    result = run("extend", "run", str(grp), str(delta))
    assert result.exit_code == 0
    assert "conditions pass" in result.output
    assert "unique True" in result.output
    assert "= s" in result.output
    assert "RESULT extended" in result.output


def test_extend_run_refuses_bad_function(tmp_path):
    grp = tmp_path / "c4.grp"
    grp.write_text(dump_group(catalog_group("C4")))
    delta = tmp_path / "c4.delta"
    # distinct free symbols violate the compatibility identities
    delta.write_text(
        "0 | 0 | 1\n"
        "0 2 | 0 0 | 1\n0 2 | 0 1 | a\n"
        "0 1 2 3 | 0 0 0 0 | 1\n0 1 2 3 | 0 1 2 3 | b\n"
        "0 1 2 3 | 0 2 0 2 | c\n0 1 2 3 | 0 3 2 1 | d\n"
    )
    result = run("extend", "run", str(grp), str(delta))
    assert result.exit_code == 1
    assert "conditions fail" in result.output
    assert "RESULT refused" in result.output


def test_tame_commands_and_refusal():
    ok = run("tame", "dh1", "--q", "3", "--ell", "2", "--ramified")
    assert ok.exit_code == 0 and "verdict=pass" in ok.output
    ok = run("tame", "dh3", "--q", "2", "--ell", "3")
    assert ok.exit_code == 0 and "m=2" in ok.output
    refused = run("tame", "dh3", "--q", "3", "--ell", "3")
    assert refused.exit_code != 0
    assert "NotTame" in refused.output
    bad_q = run("tame", "dh1", "--q", "12", "--ell", "2")
    assert bad_q.exit_code != 0
    assert "prime power" in bad_q.output


def test_tame_galois_model_output():
    result = run("tame", "galois-model", "--model", "s3", "--q", "2", "--ell", "3")
    assert result.exit_code == 0
    assert "group S3" in result.output
    assert "-> (Cyc(1), 0)" in result.output
    assert "RESULT extended" in result.output


def test_campaign_run_pass_fail_and_atomic(tmp_path):
    camp = tmp_path / "c.txt"
    camp.write_text(
        "# a small batch\n"
        "target S3 N=trivial\n"
        "check thm2.7\n"
        "check dh3 q=2 ell=3\n"
    )
    out = tmp_path / "report.txt"
    result = run("campaign", "run", str(camp), "--out", str(out))
    assert result.exit_code == 0
    text = out.read_text()
    assert text.endswith("RESULT pass\n")
    # no stray temp files left behind
    assert [p for p in os.listdir(tmp_path) if p.startswith(".report-")] == []
    # byte-determinism across runs
    again = tmp_path / "report2.txt"
    assert run("campaign", "run", str(camp), "--out", str(again)).exit_code == 0
    assert again.read_text() == text
    # an unsupported instance turns the campaign red
    camp.write_text("check dh3 q=3 ell=3\n")
    result = run("campaign", "run", str(camp))
    assert result.exit_code == 1
    assert "error NotTame" in result.output
    assert "RESULT fail" in result.output


def test_input_errors_name_the_bad_token(tmp_path):
    results = [(run("relations", "gens", "S3", "--n", "foo"), "'foo'")]
    for text, token in (
        ("check dh1 q=4\n", "ell"),
        ("check dh3 q=two ell=3\n", "'two'"),
        ("target S3 N\n", "'N'"),
        ("target\n", "'target'"),
    ):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        results.append((run("campaign", "run", str(path)), token))
    for result, token in results:
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit)  # no raw traceback
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error:"), result.output
        assert token in lines[0]


def test_campaign_empty_passes(tmp_path):
    camp = tmp_path / "empty.txt"
    camp.write_text("# nothing to do\n\n")
    result = run("campaign", "run", str(camp))
    assert result.exit_code == 0
    assert result.output == "RESULT pass\n"
