import hashlib
import io
import json
import pathlib
import subprocess
import sys
import time

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"

GOLDEN_INVOCATIONS = {
    "slc_fedder_p2.json": ["slc", "--char", "2", "--poly", "x^2+y^3+x*y*z"],
    "mld_cusp_chain_q.json": ["mld", "--char", "0", "--poly", "x^2+y^3"],
    "mld_e8_p7.json": ["mld", "--char", "7", "--poly", "x^2+y^3+z^5"],
    "slc_false_y4_q.json": ["slc", "--char", "0", "--poly", "x^2+y^4"],
    "mld_nodal_cone_p2.json": ["mld", "--char", "2", "--poly", "x^3+y^3+x*y*z"],
    "slc_triangle_p5.json": ["slc", "--char", "5", "--poly", "x*y*z"],
    "mld_nonreduced_q.json": ["mld", "--char", "0", "--poly", "x^2"],
    "slc_unit_square_q.json": ["slc", "--char", "0", "--poly", "x*y*z*(1+y)*(1+y)"],
}


def run_cli(*args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "slchyp", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )
    return proc


def test_classify_is_an_alias_of_slc():
    a = run_cli("classify", "--char", "2", "--poly", "x*y*z")
    b = run_cli("slc", "--char", "2", "--poly", "x*y*z")
    assert a.returncode == b.returncode == 0
    assert json.loads(a.stdout)["verdict"] == json.loads(b.stdout)["verdict"]


def test_verify_roundtrip_through_field_extension(tmp_path):
    # the nodal cone over F_2 extends to F_4; verify reconstructs the
    # canonical modulus from the report and replays there
    proc = run_cli("mld", "--char", "2", "--poly", "x^3+y^3+x*y*z")
    report = tmp_path / "ext.json"
    report.write_text(proc.stdout)
    data = json.loads(proc.stdout)
    assert data["verdict"]["final_field"]["extension_degree"] == 2
    assert run_cli("verify", str(report)).returncode == 0


def test_slc_example_step_611():
    proc = run_cli("slc", "--char", "2", "--poly", "x^2+y^3+x*y*z")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    v = data["verdict"]
    assert v["slc"] is True and v["mld"] == 0
    assert any(c["kind"] == "fedder" for c in v["certificates"])


def test_mld_example_step_7():
    proc = run_cli("mld", "--char", "0", "--poly", "x^2+y^3")
    assert proc.returncode == 0
    v = json.loads(proc.stdout)["verdict"]
    assert v["mld"] == "-inf"
    assert v["witness"]["weight"] == [21, 14, 6]


def test_jet_profile_example():
    proc = run_cli("jet-profile", "--char", "7", "--poly", "x*y", "--m", "3")
    assert proc.returncode == 0
    v = json.loads(proc.stdout)["verdict"]
    assert v["entries"] == [[1, 2], [2, 1], [3, 1]]


def test_fpure_command():
    proc = run_cli("fpure", "--char", "3", "--poly", "x^2+y^2*z^2")
    v = json.loads(proc.stdout)["verdict"]
    assert v["is_fpure"] and v["witness_monomial"] == [2, 2, 2]


def test_bounds_command():
    proc = run_cli("bounds", "--char", "0", "--poly", "x^2+y^3")
    v = json.loads(proc.stdout)["verdict"]
    assert v["k_E"] == 40 and v["k_E_le_40"] and v["blowup_bound"] == 38


def test_exit_code_syntax_error():
    proc = run_cli("mld", "--char", "0", "--poly", "2x")
    assert proc.returncode == 2
    assert "grammar" in json.loads(proc.stdout)


@pytest.mark.parametrize("text", ["x^\u0663+y^2", "\u0662*x^2", "x^\u00b2",
                                  "(" * 101 + "x" + ")" * 101, "(" * 10000 + "x" + ")" * 10000])
def test_malformed_input_is_an_input_error(capsys, text):
    # non-ASCII digits, and nesting past the parser's bound, which once ran
    # into the recursion limit
    import slchyp.cli as cli_mod

    start = time.perf_counter()
    code = cli_mod.run(["mld", "--char", "0", "--poly", text])
    assert time.perf_counter() - start < 1
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and set(out) == {"error", "grammar"} and out["error"].startswith("at position ")


def test_exit_code_zero_polynomial():
    proc = run_cli("mld", "--char", "2", "--poly", "2*x")
    assert proc.returncode == 2


@pytest.mark.parametrize("command", ["fpure", "jet-profile"])
def test_zero_polynomial_is_an_input_error(command):
    # f parses, so the report carries no grammar
    proc = run_cli(command, "--char", "7", "--poly", "0")
    assert proc.returncode == 2
    assert set(json.loads(proc.stdout)) == {"error"} and "nonzero" in json.loads(proc.stdout)["error"]


def test_exit_code_char_not_prime():
    proc = run_cli("mld", "--char", "6", "--poly", "x")
    assert proc.returncode == 2
    assert "grammar" not in json.loads(proc.stdout)


def test_only_errors_in_the_polynomial_carry_the_grammar(capsys):
    # a syntax error and a denominator divisible by p come from reading
    # --poly; Fedder's nonzero check and the zero polynomial do not
    import slchyp.cli as cli_mod

    for argv, grammar in [(["mld", "--char", "0", "--poly", "x^"], True),
                          (["mld", "--char", "5", "--poly", "1/5*x"], True),
                          (["fpure", "--char", "7", "--poly", "0"], False),
                          (["mld", "--char", "7", "--poly", "0"], False),
                          (["slc", "--char", "0", "--poly", "x-x"], False)]:
        code = cli_mod.run(argv)
        out = json.loads(capsys.readouterr().out)
        assert code == 2 and ("grammar" in out) == grammar, argv
        if grammar:
            assert out["grammar"] == cli_mod.GRAMMAR


@pytest.mark.parametrize("char, error", [
    (318665857834031151167461, "is not prime"),  # psi_12, a strong pseudoprime to 2..37
    (3317044064679887385961981, "only below 3317044064679887385961981"),  # psi_13
])
def test_characteristic_at_the_primality_bound_is_refused(capsys, tmp_path, char, error):
    import slchyp.cli as cli_mod

    assert cli_mod.run(["mld", "--char", str(char), "--poly", "x^2+y^3+z^5"]) == 2
    assert error in json.loads(capsys.readouterr().out)["error"]
    report = _report(capsys, "mld", 2**61 - 1, "x^2+y^3+z^5")
    report["field"]["characteristic"] = report["verdict"]["final_field"]["characteristic"] = char
    code, out = _verify_in_process(capsys, report, tmp_path)
    assert code == 1 and error in out["error"]


def test_exit_code_needs_extension():
    proc = run_cli("mld", "--char", "0", "--poly", "x^2+y^3+z^6")
    assert proc.returncode == 3
    data = json.loads(proc.stdout)
    assert data["kind"] == "needs_algebraic_extension"


def test_exit_code_oracle_overflow(monkeypatch):
    import slchyp.cli as cli_mod
    from slchyp import OracleOverflow

    def boom(*args, **kwargs):
        raise OracleOverflow("basis exceeded 20000 elements")

    monkeypatch.setattr(cli_mod, "mld_profile", boom)
    code = cli_mod.run(["jet-profile", "--char", "5", "--poly", "x^2+y^2*z", "--m", "2"])
    assert code == 4


def test_byte_identical_repeated_invocations():
    a = run_cli("slc", "--char", "3", "--poly", "x*y*z").stdout
    b = run_cli("slc", "--char", "3", "--poly", "x*y*z").stdout
    assert a == b
    assert json.loads(a)["timing_ms"] == 0  # canonical output pins timing


def test_pretty_mode_reports_timing():
    proc = run_cli("mld", "--char", "0", "--poly", "x^2+y^2", "--pretty")
    data = json.loads(proc.stdout)
    assert isinstance(data["timing_ms"], int)


def test_golden_reports_are_current_and_verify():
    for name, argv in GOLDEN_INVOCATIONS.items():
        path = GOLDEN / name
        recorded = path.read_text()
        fresh = run_cli(*argv).stdout
        assert fresh == recorded, f"golden report {name} is stale"
        check = run_cli("verify", str(path))
        assert check.returncode == 0
        assert json.loads(check.stdout)["verified"] is True


def test_verify_detects_tampering(tmp_path):
    data = json.loads((GOLDEN / "mld_e8_p7.json").read_text())
    data["verdict"]["witness"]["a"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    proc = run_cli("verify", str(bad))
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["verified"] is False


def test_verify_reads_stdin():
    report = (GOLDEN / "slc_triangle_p5.json").read_text()
    proc = run_cli("verify", "-", stdin=report)
    assert proc.returncode == 0


def _verify_in_process(capsys, report, tmp_path):
    import slchyp.cli as cli_mod

    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code = cli_mod.run(["verify", str(path)])
    return code, json.loads(capsys.readouterr().out)


def _report(capsys, command, char, poly):
    import slchyp.cli as cli_mod

    assert cli_mod.run([command, "--char", str(char), "--poly", poly]) == 0
    return json.loads(capsys.readouterr().out)


def test_verify_rejects_tampered_mld(capsys, tmp_path):
    # x^2+y^2*z^2 over F_5 has mld 0, computed by the witness (2,1,1) with a = 0
    report = _report(capsys, "mld", 5, "x^2+y^2*z^2")
    assert _verify_in_process(capsys, report, tmp_path) == (0, {"verified": True})
    # 3 differs from the witness that computes the mld, -1 is a negative
    # finite mld, "1" is neither -inf nor an integer
    for value in (3, -1, "1"):
        bad = json.loads(json.dumps(report))
        bad["verdict"]["mld"] = value
        code, out = _verify_in_process(capsys, bad, tmp_path)
        assert code == 1 and out["verified"] is False, value
    # computes_mld is fixed by the table entry of the branch (q:y2z2)
    loose = json.loads(json.dumps(report))
    loose["verdict"]["witness"]["computes_mld"] = False
    for value in (0, 3):
        loose["verdict"]["mld"] = value
        assert _verify_in_process(capsys, loose, tmp_path)[0] == 1, value


def test_verify_rejects_slc_with_negative_mld(capsys, tmp_path):
    report = _report(capsys, "slc", 0, "x^2+y^4")
    assert report["verdict"]["mld"] == "-inf" and report["verdict"]["slc"] is False
    assert _verify_in_process(capsys, report, tmp_path)[0] == 0
    report["verdict"]["slc"] = True
    code, out = _verify_in_process(capsys, report, tmp_path)
    assert code == 1 and out["verified"] is False


def test_verify_recomputes_bounds_block(capsys, tmp_path):
    report = _report(capsys, "mld", 0, "x^2+y^3")
    assert report["verdict"]["bounds"] == {
        "weight": [21, 14, 6], "k_E": 40, "blowup_bound": 38, "k_E_le_40": True,
    }
    for key, value in [("k_E", 39), ("blowup_bound", 40), ("k_E_le_40", False),
                       ("weight", [1, 1, 1])]:
        bad = json.loads(json.dumps(report))
        bad["verdict"]["bounds"][key] = value
        code, out = _verify_in_process(capsys, bad, tmp_path)
        assert code == 1 and out["verified"] is False, key


def test_verify_recomputes_slc(capsys, tmp_path):
    # x*y*z over F_5 is slc, so its report verifies with no other slc value
    report = json.loads((GOLDEN / "slc_triangle_p5.json").read_text())
    assert report["verdict"]["slc"] is True
    for value in (False, "not_applicable", 1):
        bad = json.loads(json.dumps(report))
        bad["verdict"]["slc"] = value
        code, out = _verify_in_process(capsys, bad, tmp_path)
        assert code == 1 and out["verified"] is False, value
    # a non-reduced f is not_applicable, whatever its mld
    nonreduced = _report(capsys, "slc", 0, "x^2")
    assert nonreduced["verdict"]["slc"] == "not_applicable"
    assert _verify_in_process(capsys, nonreduced, tmp_path)[0] == 0
    for value in (True, False):
        nonreduced["verdict"]["slc"] = value
        assert _verify_in_process(capsys, nonreduced, tmp_path)[0] == 1, value


def test_verify_checks_fedder_certificates(capsys, tmp_path):
    report = json.loads((GOLDEN / "slc_fedder_p2.json").read_text())
    assert report["verdict"]["certificates"][0]["fedder"] == {
        "is_fpure": True, "p": 2, "witness_monomial": [1, 1, 1],
    }
    # [0, 0, 9] is no witness at p = 2: its exponent 9 exceeds p - 1
    for key, value in [("witness_monomial", [0, 0, 9]), ("witness_monomial", None),
                       ("is_fpure", False), ("p", 3), ("witness_monomial", [1, 1])]:
        bad = json.loads(json.dumps(report))
        bad["verdict"]["certificates"][0]["fedder"][key] = value
        code, out = _verify_in_process(capsys, bad, tmp_path)
        assert code == 1 and out["verified"] is False, (key, value)
    # malformed certificate lists are rejected, not crashed on
    for certs in (5, [5], [{"kind": "fedder", "fedder": 5}]):
        bad = json.loads(json.dumps(report))
        bad["verdict"]["certificates"] = certs
        code, out = _verify_in_process(capsys, bad, tmp_path)
        assert code == 1 and out["verified"] is False, certs


def test_parser_is_built_once_on_first_use(capsys):
    probe = ("import slchyp.cli as c; n = c._parser.cache_info().currsize; "
             "c.run(['mld', '--char', '2', '--poly', 'x*y']); "
             "print(n, c._parser.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.stdout.split("\n")[-2] == "0 1"
    import slchyp.cli as cli_mod

    # repeated runs through the shared parser give the same help and exit codes
    for _ in range(2):
        assert cli_mod.run(["--help"]) == 0
        help_text = capsys.readouterr().out
        assert help_text.startswith("usage: slchyp")
        assert cli_mod.run(["mld", "--char", "7"]) == 2
        assert cli_mod.run(["mld", "--char", "5", "--poly", "x*y*z"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"]["mld"] == 0
    assert cli_mod.run(["--help"]) == 0
    assert capsys.readouterr().out == help_text


def _edited(name, path, value):
    report = json.loads((GOLDEN / name).read_text())
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return report


# golden reports with one leaf edited; each one verified before verify
# checked reports against the terminal-branch table, or crashed it
EDITED_REPORTS = [
    # the Fedder certificate that backs slc in characteristic 2 is gone
    ("slc_fedder_p2.json", ["certificates"], []),
    ("mld_e8_p7.json", ["certificates", 0, "kind"], "toric_witness"),
    ("mld_e8_p7.json", ["branch_trace", -1], "w5:pass"),
    # a valid-looking witness that is not the monomial Fedder's test finds
    ("slc_fedder_p2.json", ["certificates", 0, "fedder", "witness_monomial"], [1, 1, 0]),
    ("mld_cusp_chain_q.json", ["witness", "computes_mld"], False),
    ("mld_e8_p7.json", ["initial_form"], "x^2"),
    # wrong JSON types give a rejection, not a traceback
    ("slc_fedder_p2.json", ["witness", "weight"], 5),
    ("slc_fedder_p2.json", ["certificates", 0, "fedder", "p"], "2"),
    ("mld_e8_p7.json", ["initial_weight"], 7),
]


@pytest.mark.parametrize("name,path,value", EDITED_REPORTS)
def test_verify_rejects_edited_reports(capsys, tmp_path, name, path, value):
    code, out = _verify_in_process(capsys, _edited(name, ["verdict", *path], value), tmp_path)
    assert code == 1 and out["verified"] is False


# golden reports with the envelope edited; each one verified before verify
# checked the command, the input field and the extension degree
ENVELOPE_EDITS = [
    ("mld_nodal_cone_p2.json", ["verdict", "field_extension_used"], 7),
    ("mld_e8_p7.json", ["command"], "slc"),
    ("mld_e8_p7.json", ["command"], "fpure"),
    ("mld_e8_p7.json", ["field", "extension_degree"], 3),
    # slc is null exactly in an mld report
    ("mld_e8_p7.json", ["verdict", "slc"], True),
    ("slc_triangle_p5.json", ["verdict", "slc"], None),
]


@pytest.mark.parametrize("name,path,value", ENVELOPE_EDITS)
def test_verify_checks_the_envelope(capsys, tmp_path, name, path, value):
    report = json.loads((GOLDEN / name).read_text())
    assert _verify_in_process(capsys, report, tmp_path)[0] == 0
    code, out = _verify_in_process(capsys, _edited(name, path, value), tmp_path)
    assert code == 1 and out["verified"] is False


# golden reports whose branch trace is not the path the tree walks; each
# one verified while verify read only the terminal label
CHAIN = ["multiplicity=2", "quadric:rank1", "w2:y3", "w3:pass", "w4:pass"]
QUARTIC = CHAIN[:2] + ["w2:quartic"]
TRACE_EDITS = {
    "cut-to-terminal": ("mld_e8_p7.json", ["w5:rdp-z5"]),
    "double-point-as-triple": (
        "mld_cusp_chain_q.json", ["multiplicity=3"] + CHAIN[1:] + ["w5:pass", "w6:pass"]),
    "w4-skipped": ("mld_e8_p7.json", CHAIN[:4] + ["w5:rdp-z5"]),
    "w5-twice": ("mld_e8_p7.json", CHAIN + ["w5:pass", "w5:rdp-z5"]),
    "w3-after-quartic": ("slc_false_y4_q.json", QUARTIC + ["w3:pass", "q:y4"]),
    "quartic-stage-after-w2-y3": ("slc_false_y4_q.json", CHAIN[:3] + ["q:y4"]),
    "terminal-label-mid-chain": (
        "mld_e8_p7.json", CHAIN[:2] + ["w2:y2z"] + CHAIN[3:] + ["w5:rdp-z5"]),
    "non-reduced-on-a-reduced-f": ("slc_false_y4_q.json", QUARTIC + ["q:y4", "non-reduced"]),
    # the multiplicity labels are NEXT_STAGE keys like the pass labels
    "cone-after-multiplicity-2": ("mld_nodal_cone_p2.json", ["multiplicity=2", "cone:nodal"]),
    "multiplicity-2-twice": ("mld_e8_p7.json", CHAIN[:1] + CHAIN + ["w5:rdp-z5"]),
}


@pytest.mark.parametrize("edit", sorted(TRACE_EDITS))
def test_verify_replays_the_branch_trace_path(capsys, tmp_path, edit):
    name, trace = TRACE_EDITS[edit]
    report = json.loads((GOLDEN / name).read_text())
    assert _verify_in_process(capsys, report, tmp_path)[0] == 0
    code, out = _verify_in_process(capsys, _edited(name, ["verdict", "branch_trace"], trace),
                                   tmp_path)
    assert code == 1 and out["verified"] is False


def _leaves(node, path=()):
    """(path, value) of every scalar in a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for idx, value in enumerate(node):
            yield from _leaves(value, path + (idx,))
    else:
        yield path, node


def _perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    assert value is None, value
    return 0


def _semantic(path):
    """Every leaf is a claim verify checks, except the measured timing and the
    prose details of certificates."""
    return path != ("timing_ms",) and not (
        path[:2] == ("verdict", "certificates") and path[-1] == "detail")


def _accepted_perturbations(capsys, tmp_path, report):
    """The semantic leaves of report whose perturbation verify accepts."""
    leaves = [path for path, _ in _leaves(report) if _semantic(path)]
    assert len(leaves) > 20
    accepted = []
    for path in leaves:
        edited = json.loads(json.dumps(report))
        node = edited
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = _perturbed(node[path[-1]])
        code, out = _verify_in_process(capsys, edited, tmp_path)
        if code != 1 or out["verified"] is not False:
            accepted.append(path)
    return accepted


@pytest.mark.parametrize("name", sorted(GOLDEN_INVOCATIONS))
def test_verify_rejects_every_perturbed_leaf(capsys, tmp_path, name):
    # a bool flipped, an int +1, a string suffixed or a null made 0 anywhere
    # in a golden report is a false claim, so verify must exit 1
    report = json.loads((GOLDEN / name).read_text())
    assert _accepted_perturbations(capsys, tmp_path, report) == []


# fresh reports through field extensions, scale and rescale steps, the char-2
# quadric cleanup, a cubic cone over Q and a non-reduced slc verdict
FRESH_REPORTS = [
    ("mld", 7, "3*x^2+y^3+2*z^5"),  # F_{7^3}
    ("mld", 5, "x^2+y^3+x*z^3"),  # F_{5^4}
    ("mld", 3, "x^2+y^3+y*z^4+2*x*z^3"),  # F_{3^2}
    ("mld", 0, "y^2*z+x^3"),
    ("slc", 2, "x^2+x*z^2+x*y^2+y^3*z"),
    ("slc", 0, "x^2*y"),
]


@pytest.mark.parametrize("command,char,poly", FRESH_REPORTS)
def test_verify_rejects_perturbed_leaves_of_fresh_reports(capsys, tmp_path, command, char,
                                                          poly):
    # automorphism leaves are exempt: a perturbed unit, matrix entry or shift
    # coefficient can be another invertible automorphism that gives the same
    # initial form, which is a true certificate (one such leaf over F_{5^4},
    # three over F_{3^2} and two in the char-2 report); every other leaf is
    # a claim verify rebuilds
    report = _report(capsys, command, char, poly)
    assert _verify_in_process(capsys, report, tmp_path) == (0, {"verified": True})
    accepted = _accepted_perturbations(capsys, tmp_path, report)
    assert [path for path in accepted if path[:2] != ("verdict", "automorphism")] == []


def test_verify_rejects_an_unknown_verdict_key(capsys, tmp_path):
    report = _report(capsys, "mld", 7, "3*x^2+y^3+2*z^5")
    report["verdict"]["note"] = 1
    code, out = _verify_in_process(capsys, report, tmp_path)
    assert code == 1 and out["verified"] is False
    assert out["error"].startswith("verdict.note ")


def test_verify_rejects_a_non_canonical_field_element(capsys, tmp_path):
    # 12 is 5 in F_7, so the rescale unit [12, 0, 0] names the same element of
    # F_{7^3} as the canonical [5, 0, 0], but it is not how a report writes it
    report = _report(capsys, "mld", 7, "3*x^2+y^3+2*z^5")
    steps = report["verdict"]["automorphism"]
    assert steps[0] == {"kind": "unit_rescale", "unit": [5, 0, 0]}
    steps[0]["unit"] = [12, 0, 0]
    code, out = _verify_in_process(capsys, report, tmp_path)
    assert code == 1 and out["verified"] is False
    assert out["error"].startswith("verdict.automorphism ")


@pytest.mark.parametrize("bound", ["100000", "0", "-3"])
def test_max_weight_outside_its_range_fails_fast(capsys, bound):
    import slchyp.cli as cli_mod

    start = time.perf_counter()
    code = cli_mod.run(["bounds", "--char", "7", "--poly", "x^2+y^3+z^5", "--max-weight", bound])
    assert time.perf_counter() - start < 1
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and "--max-weight" in out["error"] and "grammar" not in out


def test_max_weight_at_its_bound_still_answers(capsys):
    import slchyp.cli as cli_mod

    code = cli_mod.run(["bounds", "--char", "7", "--poly", "x^2+y^3+z^5", "--max-weight", "64"])
    assert code == 0 and json.loads(capsys.readouterr().out)["verdict"]["mld"] == 1



@pytest.mark.parametrize("level", ["8", "100000", "0"])
def test_jet_level_outside_its_range_fails_fast(capsys, level):
    import slchyp.cli as cli_mod

    start = time.perf_counter()
    code = cli_mod.run(["jet-profile", "--char", "7", "--poly", "x^2+y^3+z^5", "--m", level])
    assert time.perf_counter() - start < 1
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and "--m" in out["error"] and "grammar" not in out


@pytest.mark.parametrize("poly,level", [("x^2+y^3+z^5", "3"), ("x", "7")])
def test_jet_level_in_its_range_still_answers(capsys, poly, level):
    import slchyp.cli as cli_mod

    code = cli_mod.run(["jet-profile", "--char", "7", "--poly", poly, "--m", level])
    entries = json.loads(capsys.readouterr().out)["verdict"]["entries"]
    assert code == 0 and len(entries) == int(level)


def test_jet_profile_does_not_grow_with_an_exponent(capsys):
    import slchyp.cli as cli_mod

    start = time.perf_counter()
    code = cli_mod.run(["jet-profile", "--char", "7", "--poly", "x^2+y^3+z^1000000000", "--m", "3"])
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(capsys.readouterr().out)["verdict"]["entries"] == [[1, 2], [2, 1], [3, 1]]


# Fedder's certificate once expanded f^(p-1) in full, about p^4 work: mld
# took 62 s on x^2+y^3+x*y*z at p = 211, and did not finish on the first
# input at p = 65537; verify rebuilt the same certificate
@pytest.mark.parametrize("char,poly", [(65537, "x^2+y^2*z^2+3*z^7+y^5"),
                                       (211, "x^2+y^3+x*y*z"), (1009, "x^2+y^3+x*y*z")])
def test_large_characteristic_report_verifies_fast(capsys, monkeypatch, char, poly):
    import slchyp.cli as cli_mod

    start = time.perf_counter()
    assert cli_mod.run(["mld", "--char", str(char), "--poly", poly]) == 0
    assert time.perf_counter() - start < 1
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    start = time.perf_counter()
    code = cli_mod.run(["verify", "-"])
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(capsys.readouterr().out) == {"verified": True}


def test_fpure_at_a_huge_prime_answers_at_once(capsys):
    import slchyp.cli as cli_mod

    p = 1000000007
    start = time.perf_counter()
    code = cli_mod.run(["fpure", "--char", str(p), "--poly", "x^2+y^2*z^2"])
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(capsys.readouterr().out)["verdict"] == {
        "is_fpure": True, "p": p, "witness_monomial": [p - 1] * 3}


@pytest.mark.parametrize("degree", [0, -1])
def test_verify_rejects_a_nonpositive_extension_degree(capsys, tmp_path, degree):
    report = _edited("mld_e8_p7.json", ["verdict", "final_field", "extension_degree"], degree)
    report["verdict"]["field_extension_used"] = degree
    start = time.perf_counter()
    code, out = _verify_in_process(capsys, report, tmp_path)
    assert time.perf_counter() - start < 1
    assert code == 1 and out["verified"] is False


def test_verify_rejects_a_degree_above_the_bound_fast(capsys, tmp_path):
    # extension_field(7, 5000) used to search for a modulus before any check
    report = _edited("mld_e8_p7.json", ["verdict", "final_field", "extension_degree"], 5000)
    report["verdict"]["field_extension_used"] = 5000
    start = time.perf_counter()
    code, out = _verify_in_process(capsys, report, tmp_path)
    assert time.perf_counter() - start < 1
    assert code == 1 and out["verified"] is False


def test_verify_rejects_without_a_traceback():
    report = _edited("slc_fedder_p2.json", ["verdict", "witness", "weight"], 5)
    proc = run_cli("verify", "-", stdin=json.dumps(report))
    assert proc.returncode == 1 and proc.stderr == ""
    assert json.loads(proc.stdout)["verified"] is False


# Rational roots came from enumerating the divisors of the extreme
# coefficients, Theta(sqrt|C|) time: with C = 10^29 + 7 these ran for
# longer than 20 s each (nth_root in the quadric and w2 stages,
# factor_binary on the cubic).
RATIONAL_ROOT_SHAPES = ["x^2+y^2+{C}*z^2", "x^2+{C}*y^3+z^5", "x^2+y*z*(y+{C}*z)"]
# (exit code, first 16 hex digits of the sha256 of stdout) of the mld and
# slc reports, recorded with divisor enumeration
RATIONAL_ROOT_REPORTS = {
    7: [(0, "207f0504d9516465", "29abc3f2b7e4640d"),
        (3, "3ec6366931bfb07a", "3ec6366931bfb07a"),
        (0, "97f56d31804660b9", "551ea1851868bdc4")],
    1000003: [(0, "7037b83cb330ce79", "827708d58d833f67"),
              (3, "4eaabf98b390888b", "4eaabf98b390888b"),
              (0, "90a84d834aa40508", "8562bfe93b18e934")],
    1000000000039: [(0, "7394c1ea5baa74cd", "893852193383a817"),
                    (3, "b70acc46e282935a", "b70acc46e282935a"),
                    (0, "1e31af61db28206e", "c5545e6eadc45f29")],
}


def _timed_report(capsys, command, poly):
    import slchyp.cli as cli_mod

    start = time.perf_counter()
    code = cli_mod.run([command, "--char", "0", "--poly", poly])
    return code, capsys.readouterr().out, time.perf_counter() - start


@pytest.mark.parametrize("shape", RATIONAL_ROOT_SHAPES)
def test_rational_roots_of_a_huge_coefficient_are_fast(capsys, shape):
    code, out, seconds = _timed_report(capsys, "mld", shape.format(C=10**29 + 7))
    assert seconds < 2
    assert code == (3 if "y^3" in shape else 0)
    if code == 0:
        assert json.loads(out)["verdict"]["mld"] == 1


@pytest.mark.parametrize("C", sorted(RATIONAL_ROOT_REPORTS))
def test_rational_root_reports_are_unchanged(capsys, C):
    for shape, (code, mld_digest, slc_digest) in zip(RATIONAL_ROOT_SHAPES, RATIONAL_ROOT_REPORTS[C]):
        for command, digest in (("mld", mld_digest), ("slc", slc_digest)):
            got, out, _ = _timed_report(capsys, command, shape.format(C=C))
            assert (got, hashlib.sha256(out.encode()).hexdigest()[:16]) == (code, digest)
