import os
from collections import Counter

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monomial import cli, type3
from monomial import extend as extend_module
from monomial.brauer import pair_classes
from monomial.catalog import catalog_group
from monomial.cli import main
from monomial.errors import CertificateFailed
from monomial.groups import dump_group, full_subgroup, trivial_subgroup


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


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
    # the Delta function refuses the N that relation generation refused
    # later, with the same one-line error
    refused = run(
        "extend", "run", "S3", os.path.join(GOLDEN, "s3.delta"), "--n", "0,3"
    )
    assert refused.exit_code == 1
    assert refused.output == "Error: NotNormal: Subgroup(0, 3) is not normal\n"


def test_type3_scan_reports_census():
    result = run("type3", "scan", "S3")
    assert result.exit_code == 0
    assert "census_ok=True h1_trivial=True" in result.output
    assert "refused HNormal" in result.output


def _fail_type3_structure(monkeypatch, request):
    """Patch the structure check to fail.  Cached verdicts would skip the
    patched check, and the ones built with it must not outlive the test."""

    def fail(q, qh):
        raise CertificateFailed("C is not self-centralizing", witness=qh)

    monkeypatch.setattr(type3, "_check_structure", fail)
    type3.type3_verdict.cache_clear()
    request.addfinalizer(type3.type3_verdict.cache_clear)


def test_failed_type3_certificate_turns_red(tmp_path, monkeypatch, request):
    # a failed structure check is a failure, not a neutral refusal
    _fail_type3_structure(monkeypatch, request)
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


def test_cached_type3_verdict_stays_failed_on_every_target(
    tmp_path, monkeypatch, request
):
    # the second target reads the first one's cached verdicts: each of the
    # three non-normal C2s fails again, never turning into a pass
    _fail_type3_structure(monkeypatch, request)
    camp = tmp_path / "c.txt"
    camp.write_text("target S3 N=trivial\ntarget S3 N=center\ncheck type3\n")
    result = run("campaign", "run", str(camp))
    assert result.exit_code == 1
    failed = "failed CertificateFailed: C is not self-centralizing"
    assert result.output.count(failed) == 6
    assert "ok=True" not in result.output
    assert result.output.endswith("RESULT fail\n")


def _clear_campaign_caches(request):
    """Start from cold extend and towers verdicts, and leave none built
    under a patch behind."""
    for fn in (cli._extend_refusal, cli._tower_issues):
        fn.cache_clear()
        request.addfinalizer(fn.cache_clear)


# S3's center and C6's derived subgroup are trivial: two targets repeat a (G, N)
REPEATS = ("S3 N=trivial", "S3 N=center", "S3 N=derived", "C6 N=trivial", "C6 N=derived")


def test_repeated_targets_print_the_lines_of_a_fresh_run(tmp_path, request):
    camp = tmp_path / "c.txt"
    checks = "check extend\ncheck towers\n"
    alone = {}
    for target in REPEATS:
        _clear_campaign_caches(request)
        camp.write_text(f"target {target}\n{checks}")
        alone[target] = run("campaign", "run", str(camp)).output.splitlines()
    _clear_campaign_caches(request)
    camp.write_text("".join(f"target {t}\n" for t in REPEATS) + checks)
    together = run("campaign", "run", str(camp)).output.splitlines()
    assert together == [alone[t][k] for k in (0, 1) for t in REPEATS] + ["RESULT pass"]
    # one verdict per distinct (G, N)
    for fn in (cli._extend_refusal, cli._tower_issues):
        assert fn.cache_info().misses == 3 and fn.cache_info().hits == 2


def test_failed_extend_turns_every_target_of_its_pair_red(
    tmp_path, monkeypatch, request
):
    real = cli.extend

    def extend(delta, **kwargs):
        if delta.ambient.parent.name == "S3" and delta.lower.order == 1:
            raise CertificateFailed("witness is not in the kernel")
        return real(delta, **kwargs)

    monkeypatch.setattr(cli, "extend", extend)
    _clear_campaign_caches(request)
    camp = tmp_path / "c.txt"
    camp.write_text(
        "target S3 N=trivial\ntarget S3 N=derived\ntarget S3 N=center\n"
        "target S3 N=0\ncheck extend\n"
    )
    result = run("campaign", "run", str(camp))
    assert result.exit_code == 1
    refused = "extend S3 refused CertificateFailed"
    assert result.output.splitlines() == [
        refused, "extend S3 extended", refused, refused, "RESULT fail"
    ]


def test_unknown_relation_kind_is_refused(tmp_path):
    # a typo in a kind is an error naming it, never a verdict
    camp = tmp_path / "c.txt"
    camp.write_text("target S3 N=trivial\ncheck thm2.7 kinds=IV\n")
    result = run("campaign", "run", str(camp))
    assert result.exit_code == 1
    assert result.output == (
        "thm2.7 error ParseError: relation kind 'IV' is not I, II or III\n"
        "RESULT fail\n"
    )
    for args in (["verify", "thm27", "S3", "--kinds", "I,IV"],
                 ["relations", "gens", "S3", "--kinds", "IV"]):
        assert "ParseError: relation kind 'IV'" in _one_error_line(run(*args))


# An empty kind is a typo too: each path ends in one ParseError line, with
# and without `python -O`, where it once printed no relations or a failed
# Theorem 2.7 verdict.
_EMPTY_KINDS = """
import os, sys, tempfile
from click.testing import CliRunner
from monomial.cli import main

camp = os.path.join(tempfile.mkdtemp(), "c.camp")
with open(camp, "w") as handle:
    handle.write("target S3 N=trivial\\ncheck thm2.7 kinds=,\\n")
print("optimize", sys.flags.optimize)
for args in (["relations", "gens", "S3", "--kinds", ""],
             ["verify", "thm27", "S3", "--kinds", ","],
             ["verify", "thm27", "S3", "--kinds", "I,,II"],
             ["campaign", "run", camp]):
    result = CliRunner().invoke(main, args)
    print(result.exit_code, " | ".join(result.output.splitlines()))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_empty_relation_kind_is_refused(flags, run_python):
    refusal = "ParseError: relation kind '' is not I, II or III"
    assert run_python(flags, _EMPTY_KINDS)[:5] == [
        f"optimize {len(flags)}",
        f"1 Error: {refusal}",
        f"1 Error: {refusal}",
        f"1 Error: {refusal}",
        f"1 thm2.7 error {refusal} | RESULT fail",
    ]


def test_unknown_check_is_refused_before_any_check_runs(tmp_path, monkeypatch):
    # running thm2.7 would raise TypeError, a traceback, not an Error: line
    monkeypatch.setattr(cli, "verify_theorem_2_7", None)
    camp = tmp_path / "c.txt"
    camp.write_text("target S3 N=trivial\ncheck thm2.7\ncheck nope\n")
    assert "'nope'" in _one_error_line(run("campaign", "run", str(camp)))


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize(
    "args",
    [
        ["extend", "run", "S3", os.path.join(GOLDEN, "s3.delta"), "--n", "derived"],
        ["tame", "galois-model", "--model", "s3", "--q", "2", "--ell", "3"],
    ],
    ids=["extend-run", "galois-model"],
)
def test_each_command_builds_one_extension(args, monkeypatch):
    # the report's own condition check, then `extend` (which checks them
    # once more); uniqueness compares two presentations on that extension
    calls = Counter()
    monkeypatch.setattr(cli, "extend", _counting(calls, "extend", cli.extend))
    check = _counting(calls, "check_conditions", extend_module.check_conditions)
    monkeypatch.setattr(cli, "check_conditions", check)
    monkeypatch.setattr(extend_module, "check_conditions", check)
    result = run(*args)
    assert result.exit_code == 0, result.output
    assert "unique True" in result.output
    assert calls == {"extend": 1, "check_conditions": 2}


@pytest.mark.parametrize(
    "group, delta, n",
    [("S3", "s3.delta", "derived"), ("Q8", "q8.delta", "center"),
     ("C6", "c6.delta", "trivial")],
    ids=["S3", "Q8", "C6"],
)
def test_full_kernel_report_equals_the_generator_report(group, delta, n, monkeypatch):
    # certifying on the whole kernel basis, not only on the basic
    # relations, changes nothing in the report
    calls = Counter()
    monkeypatch.setattr(
        extend_module, "kernel_basis",
        _counting(calls, "kernel_basis", extend_module.kernel_basis),
    )
    args = ["extend", "run", group, os.path.join(GOLDEN, delta), "--n", n]
    plain = run(*args)
    assert calls["kernel_basis"] == 0
    full = run(*args, "--full-kernel")
    assert calls["kernel_basis"] == 1
    assert plain.exit_code == full.exit_code == 0
    assert "RESULT extended" in full.output
    assert full.output == plain.output


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
        ("target S3 N=\n", "'N='"),
        ("target S3 N=trivial N=center\n", "'N=center'"),
        ("target S3 M=center\n", "'M=center'"),
        ("check dh1 q=5 ell=2 ramfied=true\n", "'ramfied=true'"),
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


def test_campaign_flag_takes_only_boolean_spellings(tmp_path):
    # a malformed flag is refused by name, never read as false
    path = tmp_path / "c.txt"
    path.write_text("check dh1 q=5 ell=2 ramified=maybe\n")
    line = _one_error_line(run("campaign", "run", str(path)))
    assert "'ramified=maybe'" in line
    for value, read in (("TRUE", True), ("Yes", True), ("1", True),
                        ("false", False), ("NO", False), ("0", False)):
        path.write_text(f"check dh1 q=5 ell=2 ramified={value}\n")
        result = run("campaign", "run", str(path))
        assert result.exit_code == 0, result.output
        assert result.output.startswith(f"dh1 q=5 ell=2 ramified={read} ok=True")


def test_campaign_empty_passes(tmp_path):
    camp = tmp_path / "empty.txt"
    camp.write_text("# nothing to do\n\n")
    result = run("campaign", "run", str(camp))
    assert result.exit_code == 0
    assert result.output == "RESULT pass\n"


NOT_A_GROUP = "2\n0 1\n1 1\n"


def _delta(group, text):
    return ["extend", "run", group, "d.delta"], {"d.delta": text}


MALFORMED = {
    # the command and the files written beside the run
    "group-info-not-a-group": (["group", "info", "bad.grp"], {"bad.grp": NOT_A_GROUP}),
    "relations-not-a-group": (["relations", "gens", "bad.grp"], {"bad.grp": NOT_A_GROUP}),
    "thm27-not-a-group": (["verify", "thm27", "bad.grp"], {"bad.grp": NOT_A_GROUP}),
    "type3-not-a-group": (["type3", "scan", "bad.grp"], {"bad.grp": NOT_A_GROUP}),
    "group-bad-token": (["group", "info", "bad.grp"], {"bad.grp": "2\n0 x\n1 0\n"}),
    "delta-non-subgroup": _delta("C4", "0 1 | 0 0 | 1\n"),
    "delta-bad-element": _delta("C2", "0 x | 0 | a\n"),
    "delta-element-range": _delta("C2", "0 7 | 0 0 | 1\n"),
    "delta-bad-exponent": _delta("C2", "0 1 | 0 y | a\n"),
    "delta-not-a-character": _delta("C2", "0 1 | 0 1 1 | a\n"),
    "delta-bad-value-exponent": _delta("C2", "0 1 | 0 1 | a^b\n"),
    "campaign-missing-file": (["campaign", "run", "missing.camp"], {}),
    "campaign-malformed-target": (
        ["campaign", "run", "c.camp"],
        {"c.camp": "target bad.grp\ncheck thm2.7\n", "bad.grp": NOT_A_GROUP},
    ),
}
# what the Error: line names, where it is not NotAGroup
NAMED = {
    "group-bad-token": "'x'", "delta-non-subgroup": "NotASubgroup",
    "delta-bad-element": "'x'", "delta-element-range": "element 7",
    "delta-bad-exponent": "'y'", "delta-not-a-character": "'0 1 1'",
    "delta-bad-value-exponent": "'b'", "campaign-missing-file": "'missing.camp'",
}


def _one_error_line(result):
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit), result.exception  # no traceback
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1, result.output
    return errors[0]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_ends_in_one_error_line(case, tmp_path, monkeypatch):
    args, files = MALFORMED[case]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert NAMED.get(case, "NotAGroup") in _one_error_line(run(*args))


def _mutated(text, edits):
    """text with each (line, token, replacement) edit applied."""
    lines = [line.split() for line in text.splitlines()]
    for i, j, new in edits:
        if lines:
            row = lines[i % len(lines)]
            if row:
                row[j % len(row)] = new
            else:
                row.append(new)
    return "".join(" ".join(row) + "\n" for row in lines)


_TOKENS = st.sampled_from(["0", "1", "2", "3", "5", "-1", "x", "1.5", "^", "*", "|", "a^b"])
_EDITS = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), _TOKENS), max_size=3)
_GROUP = st.sampled_from(["C2", "C3", "S3"])
_VALUE = st.sampled_from(["1", "a", "a^2", "a^-1", "a*b", "b^3*a"])
_INTS = st.lists(st.integers(-1, 6), max_size=4).map(lambda xs: " ".join(map(str, xs)))
_DELTA_LINE = st.builds("{} | {} | {}".format, _INTS, _INTS, _VALUE)


def _full_delta(group, values):
    """One delta line per pair class of the group; the i-th takes values[i],
    or 1 past the end of values."""
    g = catalog_group(group)
    lines = []
    for i, c in enumerate(pair_classes(full_subgroup(g), trivial_subgroup(g))):
        elements = " ".join(map(str, c.subgroup.elements))
        exponents = " ".join(map(str, c.char.exponents))
        lines.append(f"{elements} | {exponents} | {values[i] if i < len(values) else 1}\n")
    return "".join(lines)


_CAMPAIGN_LINE = st.one_of(
    st.builds("target {} N={}".format, st.sampled_from(["C2", "C3", "S3", "X9", "g.grp"]),
              st.sampled_from(["trivial", "center", "derived", "full", "0", "0,1", "9", "x"])),
    st.builds("check {} {}".format,
              st.sampled_from(["thm2.7", "type3", "extend", "towers", "dh1", "dh3", "nope"]),
              st.sampled_from(["", "q=2 ell=3", "q=4 ell=3", "q=12 ell=2", "q=x ell=3",
                               "kinds=I"])),
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    group=_GROUP,
    group_edits=_EDITS,
    values=st.lists(_VALUE, max_size=6),
    delta=st.lists(_DELTA_LINE, max_size=2),
    delta_edits=_EDITS,
    campaign=st.lists(_CAMPAIGN_LINE, max_size=3),
    campaign_edits=_EDITS,
)
def test_parsers_refuse_or_report(tmp_path, monkeypatch, group, group_edits, values,
                                  delta, delta_edits, campaign, campaign_edits):
    # mutated group, delta and campaign files end in a report or in one
    # Error: line, never in a traceback
    monkeypatch.chdir(tmp_path)
    files = {
        "g.grp": _mutated(dump_group(catalog_group(group)), group_edits),
        "d.delta": _mutated(_full_delta(group, values) + "\n".join(delta), delta_edits),
        "c.camp": _mutated("\n".join(campaign), campaign_edits),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for args in (["group", "info", "g.grp"], ["extend", "run", group, "d.delta"],
                 ["campaign", "run", "c.camp"]):
        result = run(*args)
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            args, files, result.exception)
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 or (not errors and result.output), (args, files, result.output)
