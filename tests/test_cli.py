"""Command line contract: report schema, exit codes, determinism, examples.

The three pinned invocations (windowed A1 roots, the n = 6 pairing matrix,
the multinomial suite at max 4) are checked against hand counts and the
case split rule; plumbing tests cover config merging, fraction rendering,
and the 0/1/2 exit code split.
"""

import dataclasses
import json
import re
from fractions import Fraction as F

import pytest

from affinekit.cli import main


def run_cli(tmp_path, *args, name="report.json"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else None


def load(text):
    return json.loads(text)


# ------------------------------------------------------------- examples


def test_roots_example_counts(tmp_path):
    code, text = run_cli(tmp_path, "roots", "--algebra", "A1x1", "--window=-2:2")
    assert code == 0
    doc = load(text)
    assert doc["schema_version"] == 1
    assert doc["command"] == "roots"
    recs = {r["name"]: r for r in doc["records"]}
    assert recs["real_count"]["actual"] == 10
    assert recs["imaginary_count"]["actual"] == 4
    listed = [n for n in recs if n.startswith("root ")]
    assert len(listed) == 14


def test_roots_csv_table(tmp_path):
    code, text = run_cli(tmp_path, "roots", "--format", "csv", name="roots.csv")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0].startswith("# affinekit-report roots generated ")
    assert lines[1] == "# table roots"
    assert lines[2] == "kind,fin0,n,mult"
    assert len(lines) == 3 + 14


def test_prop42_example_case_split(tmp_path):
    code, text = run_cli(tmp_path, "prop42", "--n", "6", "--lambda", "1", name="m.csv")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[1] == "# table pairing_matrix"
    body = [line.split(",") for line in lines[3:]]
    assert len(body) == 5
    n, lam = 6, F(1)
    for row in body:
        k = int(row[0])
        for l, cell in enumerate(row[1:], start=1):
            if l > k and n < k + l:
                want = 4 * lam
            elif l <= k and n >= k + l:
                want = -4 * lam
            else:
                want = F(0)
            assert F(cell) == want, (k, l)


def test_prop42_case_split_catches_a_wrong_entry(tmp_path, monkeypatch):
    from affinekit import cli

    real = cli.prop42_matrix

    def tampered(n, lam):
        mat = [list(row) for row in real(n, lam)]
        mat[0][0] += 1
        return mat

    monkeypatch.setattr(cli, "prop42_matrix", tampered)
    code, text = run_cli(tmp_path, "prop42", "--n", "5", "--format", "json")
    assert code == 2
    recs = {r["name"]: r for r in load(text)["records"]}
    assert (recs["case_split"]["status"], recs["case_split"]["actual"]) == ("fail", 1)


def test_prop42_json_records(tmp_path):
    code, text = run_cli(tmp_path, "prop42", "--n", "5", "--format", "json")
    assert code == 0
    recs = {r["name"]: r for r in load(text)["records"]}
    assert recs["case_split"]["status"] == "pass"
    assert recs["corner_submatrix_invertible"]["status"] == "pass"
    assert recs["weight_dim_lower_bound"]["actual"] == 2


def test_identities_multinomial_all_pass(tmp_path):
    code, text = run_cli(tmp_path, "identities", "--suite", "multinomial", "--max", "4")
    assert code == 0
    recs = load(text)["records"]
    # N in 0..4, K in 0..5, k in 1..3
    assert len(recs) == 5 * 6 * 3
    assert all(r["status"] == "pass" for r in recs)


def test_identities_localization_dense(tmp_path):
    code, text = run_cli(tmp_path, "identities", "--suite", "localization",
                         "--samples", "4", "--seed", "11")
    assert code == 0
    recs = {r["name"]: r for r in load(text)["records"]}
    for name in ("twist_composition", "integer_twist_is_conjugation",
                 "inverse_power_law", "twist_respects_brackets"):
        assert recs[name]["status"] == "pass", name


def test_identities_localization_loop(tmp_path):
    code, text = run_cli(tmp_path, "identities", "--suite", "localization",
                         "--target", "loop", "--samples", "2", "--seed", "5")
    assert code == 0
    assert all(r["status"] != "fail" for r in load(text)["records"])


def test_identities_localization_skips_vacuous_samples(tmp_path):
    # in one of these six samples (m = -1) every sampled label is masked in
    # the integer twist, so that law compares no pair there: the sample is
    # left out of the law's count instead of counting as a failure
    code, text = run_cli(tmp_path, "identities", "--suite", "localization",
                         "--target", "loop", "--samples", "6", "--seed", "3")
    assert code == 0
    recs = {r["name"]: r for r in load(text)["records"]}
    assert recs["integer_twist_is_conjugation"]["expected"] == 5
    assert recs["integer_twist_is_conjugation"]["actual"] == 5
    assert recs["twist_composition"]["expected"] == 6


def test_identities_localization_law_never_compared_fails(tmp_path):
    # the one sample of seed 21 masks every sampled label in the integer
    # twist: that law verified nothing, so it is a failure, not a 0/0 pass
    code, text = run_cli(tmp_path, "identities", "--suite", "localization",
                         "--target", "loop", "--samples", "1", "--seed", "21")
    assert code == 2
    recs = {r["name"]: r for r in load(text)["records"]}
    law = recs["integer_twist_is_conjugation"]
    assert (law["status"], law["expected"], law["actual"]) == ("fail", 0, 0)
    assert recs["twist_composition"]["status"] == "pass"


def test_identities_efloc(tmp_path):
    code, text = run_cli(tmp_path, "identities", "--suite", "efloc",
                         "--samples", "4", "--seed", "2")
    assert code == 0
    recs = {r["name"]: r for r in load(text)["records"]}
    assert recs["lowering_product_walk"]["status"] == "pass"


def test_identities_efloc_catches_a_wrong_product(tmp_path, monkeypatch):
    from affinekit import cli

    real = cli.efloc_product
    monkeypatch.setattr(cli, "efloc_product", lambda lam, x, k: real(lam, x + 1, k))
    code, text = run_cli(tmp_path, "identities", "--suite", "efloc",
                         "--samples", "4", "--seed", "2")
    assert code == 2
    recs = {r["name"]: r for r in load(text)["records"]}
    assert recs["lowering_product_walk"]["status"] == "fail"


# ------------------------------------------------------------ exit codes


def test_unknown_command_is_input_error(tmp_path, capsys):
    assert main(["no-such-command"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_malformed_values_are_input_errors(tmp_path):
    assert main(["roots", "--window", "junk", "--out", str(tmp_path / "x")]) == 1
    assert main(["prop42", "--n", "1", "--out", str(tmp_path / "y")]) == 1
    assert main(["localize-demo", "--x", "a/b", "--out", str(tmp_path / "z")]) == 1
    # loop data the loop module rejects: one factor for the two default
    # scalars, and a zero evaluation point
    assert main(["probe-bounded", "--factors=fin:1", "--out", str(tmp_path / "p")]) == 1
    assert main(["probe-bounded", "--scalars=1,0", "--out", str(tmp_path / "q")]) == 1
    # shadow directions that are not roots of A1: too many coordinates, a
    # weight that is not a root, the zero direction
    for fin in ("2,3", "1", "0"):
        assert main(["shadow", f"--fin={fin}", "--out", str(tmp_path / "s")]) == 1


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--factors=fin:1"], "need matching nonempty factors and scalars"),
        (["--scalars=1,2,3"], "need matching nonempty factors and scalars"),
        (["--scalars=1,0"], "evaluation points must be nonzero"),
    ],
)
def test_probe_bounded_rejects_the_loop_data_loop_module_rejects(tmp_path, capsys, flags, message):
    # the probe keeps every input check of the loop module, with its message
    out = tmp_path / "x"
    assert main(["probe-bounded", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: loop module: {message}\n"
    assert not out.exists()


def test_a_bracket_check_that_compares_nothing_is_an_input_error(tmp_path, capsys):
    # imverma-mult at depth 1 masks every label: no pass on nothing
    out = tmp_path / "x"
    assert main(["imverma-mult", "--lambda=3", "--depth=1", "--out", str(out)]) == 1
    assert "(4 labels, 4 masked)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["parabolic-classify", "--samples=-3"],
        ["cone-certificate", "--samples=-2"],
        ["identities", "--suite=localization", "--samples=-1"],
        ["identities", "--suite=efloc", "--samples=-1"],
        ["identities", "--suite=multinomial", "--max=-1"],
        ["imverma-mult", "--depth=-1"],
        ["imverma-mult", "--length-cap=-1"],
        ["imverma-mult", "--mode-cap=-1"],
        ["shadow", "--module=imverma", "--depth=-1"],
        ["loop-mult", "--factors=fin:-1", "--scalars=1"],
        ["probe-bounded", "--factors=fin:-1", "--scalars=1"],
    ],
)
def test_negative_counts_are_input_errors(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 1
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["parabolic-classify", "--samples=0"],
        ["cone-certificate", "--samples=0"],
        ["identities", "--suite=localization", "--samples=0"],
        ["identities", "--suite=efloc", "--samples=0"],
    ],
)
def test_zero_samples_are_input_errors(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 1
    assert "at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_untabulated_generator_is_input_error(tmp_path, capsys, monkeypatch):
    from affinekit import cli
    from affinekit.modrep import UntabulatedGenerator

    def handler(cfg):
        raise UntabulatedGenerator("generator ('t', 'E12', 3) is not tabulated")

    roots = dataclasses.replace(cli._COMMANDS["roots"], handler=handler)
    monkeypatch.setitem(cli._COMMANDS, "roots", roots)
    assert main(["roots", "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: roots: generator ('t', 'E12', 3) is not tabulated")
    assert "Traceback" not in err


def test_csv_needs_a_table(tmp_path):
    assert main(["identities", "--format", "csv", "--out", str(tmp_path / "x")]) == 1


def test_verification_failure_exits_two(tmp_path):
    # two dense factors grow without bound, so expecting bounded must fail
    code, text = run_cli(
        tmp_path, "probe-bounded",
        "--factors", "dense:1/2:3,dense:1/3:2", "--expect", "bounded",
    )
    assert code == 2
    recs = {r["name"]: r for r in load(text)["records"]}
    assert recs["dichotomy"]["status"] == "fail"
    assert recs["bounded"]["actual"] is False


def test_dichotomy_passes_when_expected(tmp_path):
    code, text = run_cli(
        tmp_path, "probe-bounded",
        "--factors", "dense:1/2:3,dense:1/3:2", "--expect", "increasing",
    )
    assert code == 0
    code, _ = run_cli(tmp_path, "probe-bounded", "--expect", "bounded", name="b.json")
    assert code == 0


def test_band_exhaustion_is_input_error(tmp_path, capsys):
    # a window too small for the requested twist surfaces as exit 1 with the
    # offending parameters, never a traceback
    code = main(["localize-demo", "--x", "1/2", "--jwindow=0:0",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "localize-demo" in err


# ------------------------------------------------------------ determinism


def test_rerun_byte_identical_modulo_stamp(tmp_path):
    _, a = run_cli(tmp_path, "cone-certificate", "--seed", "3", name="a.json")
    _, b = run_cli(tmp_path, "cone-certificate", "--seed", "3", name="b.json")
    strip = lambda t: [l for l in t.split("\n") if '"generated"' not in l]
    assert strip(a) == strip(b)


_SUPPORT_ONLY_RUNS = [
    ["probe-bounded", f"--factors={factors}", "--sizes=1,2,3", "--format=csv"]
    for factors in ("fin:1,fin:2", "dense:1/2:3,fin:1", "dense:1/2:3,dense:1/3:2", "natural,adjoint")
] + [
    ["probe-bounded", "--factors=dense:1/2:3,fin:1", "--expect=increasing"],
] + [
    ["shadow", f"--module={module}", f"--window={w}", f"--fin={fin}", f"--n={n}"]
    for module in ("loop-fin", "loop-dense")
    for w in ("-1:1", "-3:3")
    for fin in ("2", "-2")
    for n in (-1, 0, 1)
] + [
    ["pm-build", f"--module={module}", f"--window={w}"]
    for module in ("loop-fin", "loop-dense")
    for w in ("-1:1", "-2:2", "-3:3")
] + [
    ["shadow", "--module=imverma", f"--lambda={lam}", f"--fin={fin}", f"--n={n}"]
    for lam in ("3", "1/2")
    for fin in ("2", "0")
    for n in (-1, 1)
] + [
    ["pm-build", "--module=imverma", f"--lambda={lam}", f"--depth={depth}", f"--window={w}"]
    for lam in ("3", "0")
    for depth in ("2", "4")
    for w in ("-1:1", "-2:2", "-3:3")
]


def test_support_only_commands_match_the_row_building_path(tmp_path, capsys, monkeypatch):
    # probe-bounded, shadow and pm-build read only a module's weights and
    # mask; with the eager oracles of loop_module and imaginary_verma behind
    # them every report is byte-identical
    from affinekit import cli
    from test_modrep import _eager_imaginary_verma, _eager_loop_module

    def run(argv, name):
        out = tmp_path / name
        code = main(argv + ["--out", str(out)])
        text = out.read_text() if out.exists() else ""
        body = [line for line in text.split("\n") if "generated" not in line]
        return code, body, capsys.readouterr().err

    codes = set()
    for argv in _SUPPORT_ONLY_RUNS:
        got = run(argv, "lazy")
        with monkeypatch.context() as mp:
            mp.setattr(cli, "loop_module", _eager_loop_module)
            mp.setattr(cli, "imaginary_verma", _eager_imaginary_verma)
            want = run(argv, "eager")
        assert got == want, argv
        codes.add(got[0])
    assert codes == {0, 1, 2}


def _spy_on_lazy_rows(monkeypatch):
    """Lists that collect each lazy row mapping built and each row it fills."""
    from affinekit import modrep

    built, filled = [], []
    init = modrep._LazyRows.__init__

    def spy(self, labels, gens, fill):
        def counted(gk, lab):
            filled.append((gk, lab))
            return fill(gk, lab)

        built.append(self)
        init(self, labels, gens, counted)

    monkeypatch.setattr(modrep._LazyRows, "__init__", spy)
    return built, filled


@pytest.mark.parametrize("module", ["imverma", "loop-fin", "loop-dense"])
@pytest.mark.parametrize("command", ["shadow", "pm-build"])
def test_shadow_and_pm_build_read_a_support(tmp_path, monkeypatch, command, module):
    # they read only the module's weights and mask: a report, and no row filled
    from affinekit import cli

    built, filled = _spy_on_lazy_rows(monkeypatch)
    argv = [command, f"--module={module}"]
    A, M = cli._support_module(cli._resolve(cli._build_parser().parse_args(argv)))
    assert M.algebra is A and len(built) == 1
    assert main(argv + ["--out", str(tmp_path / "x")]) in (0, 2)
    assert len(built) == 2 and filled == []


def test_probe_bounded_fills_no_row(tmp_path, monkeypatch):
    built, filled = _spy_on_lazy_rows(monkeypatch)
    assert main(["probe-bounded", "--out", str(tmp_path / "x")]) == 0
    assert len(built) == 3 and filled == []


def test_lazy_vacuum_shadows_equal_the_eager_vacuum():
    from affinekit.affine import DegreeWindow, build_affine, roots_window
    from affinekit.finlie import build_simple
    from affinekit.modrep import imaginary_verma, shadow_detect
    from test_modrep import _eager_imaginary_verma

    roots = roots_window(build_affine(build_simple("A1")), DegreeWindow(-2, 2))
    assert {r.n for r in roots if not any(r.fin)} == {-2, -1, 1, 2}
    for lam in range(1, 6):
        M, want = imaginary_verma(lam, 3, 3), _eager_imaginary_verma(lam, 3, 3)
        for r in roots:
            assert shadow_detect(M, r.fin, r.n) == shadow_detect(want, r.fin, r.n), (lam, r)


def test_rerun_csv_byte_identical_modulo_stamp(tmp_path):
    _, a = run_cli(tmp_path, "prop42", name="a.csv")
    _, b = run_cli(tmp_path, "prop42", name="b.csv")
    assert a.split("\n")[1:] == b.split("\n")[1:]
    assert a.split("\n")[0].startswith("# affinekit-report prop42 generated ")


def test_seed_changes_are_echoed(tmp_path):
    _, a = run_cli(tmp_path, "parabolic-classify", "--samples", "5", "--seed", "7")
    doc = load(a)
    assert doc["config_echo"]["seed"] == 7
    _, b = run_cli(tmp_path, "parabolic-classify", "--samples", "5", "--seed", "7",
                   name="b.json")
    assert load(b)["records"] == doc["records"]


# ----------------------------------------------------------- config file


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algebra": "A1x1", "window": "-1:1"}))
    code, text = run_cli(tmp_path, "roots", "--config", str(cfg))
    assert code == 0
    recs = {r["name"]: r for r in load(text)["records"]}
    assert recs["real_count"]["actual"] == 6
    assert recs["imaginary_count"]["actual"] == 2


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window": "-1:1", "lambda": "2"}))
    code, text = run_cli(tmp_path, "roots", "--config", str(cfg), "--window=-2:2")
    assert code == 1  # lambda is not a roots key
    cfg.write_text(json.dumps({"window": "-1:1"}))
    code, text = run_cli(tmp_path, "roots", "--config", str(cfg), "--window=-2:2")
    assert code == 0
    assert load(text)["config_echo"]["window"] == "-2:2"


def test_config_lambda_spelling(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "lambda": "2"}))
    code, text = run_cli(tmp_path, "prop42", "--config", str(cfg), "--format", "json")
    assert code == 0
    echo = load(text)["config_echo"]
    assert echo["n"] == 5
    assert echo["lam"] == "2"


def test_config_dashed_and_format_spellings(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"length-cap": 1, "depth": "2"}))
    code, text = run_cli(tmp_path, "imverma-mult", "--config", str(cfg))
    assert code == 0
    assert load(text)["config_echo"]["length_cap"] == 1
    # prop42 reports CSV by default, so a JSON report shows the key took
    cfg.write_text(json.dumps({"format": "json"}))
    code, text = run_cli(tmp_path, "prop42", "--config", str(cfg), name="p.json")
    assert code == 0
    assert load(text)["config_echo"]["format"] == "json"


def test_config_rejects_another_commands_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 3}))
    assert main(["roots", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "has an unknown key 'samples'" in capsys.readouterr().err


# ------------------------------------------------------- command table

# every command's config echo at its defaults, in report order; prop42's
# echo is read from a --format json run because its default report is CSV
_DEFAULT_ECHO = {
    "algebra-info": [("algebra", "A1x1"), ("window", "-2:2"), ("seed", 0), ("format", "json")],
    "roots": [("algebra", "A1x1"), ("window", "-2:2"), ("seed", 0), ("format", "json")],
    "parabolic-classify": [
        ("algebra", "A1x1"), ("window", "-3:3"), ("phi1", None), ("phi2", None),
        ("samples", "25"), ("seed", 0), ("format", "json"),
    ],
    "cone-certificate": [
        ("algebra", "A2x1"), ("window", "-3:3"), ("phi1", "0,0,1"), ("phi2", None),
        ("samples", "50"), ("seed", 0), ("format", "json"),
    ],
    "loop-mult": [
        ("algebra", "A1x1"), ("window", "-3:3"), ("factors", "fin:1,fin:2"),
        ("jwindow", "-4:4"), ("scalars", "1,2"), ("seed", 0), ("format", "json"),
    ],
    "imverma-mult": [
        ("depth", "3"), ("lam", "3"), ("length_cap", None), ("mode_cap", None),
        ("seed", 0), ("format", "json"),
    ],
    "prop42": [("lam", "1"), ("n", "6"), ("seed", 0), ("format", "json")],
    "localize-demo": [
        ("b", "1/2"), ("c", "3"), ("jwindow", "-6:6"), ("x", "1/2"),
        ("seed", 0), ("format", "json"),
    ],
    "shadow": [
        ("window", "-6:6"), ("depth", "3"), ("expect", None), ("fin", "2"), ("lam", "3"),
        ("module", "loop-fin"), ("n", "0"), ("seed", 0), ("format", "json"),
    ],
    "pm-build": [
        ("window", "-2:2"), ("depth", "4"), ("lam", "3"), ("module", "imverma"),
        ("seed", 0), ("format", "json"),
    ],
    "identities": [
        ("max", "4"), ("samples", "8"), ("suite", "multinomial"), ("target", "dense"),
        ("seed", 0), ("format", "json"),
    ],
    "probe-bounded": [
        ("expect", None), ("factors", "dense:1/2:3,fin:1"), ("scalars", "1,2"),
        ("sizes", "3,6,9"), ("seed", 0), ("format", "json"),
    ],
}

_UNTABLED = {"algebra-info", "parabolic-classify", "shadow", "identities"}


@pytest.mark.parametrize("command", sorted(_DEFAULT_ECHO))
def test_command_defaults_format_and_csv(tmp_path, capsys, command):
    code, text = run_cli(tmp_path, command)
    assert code == 0
    if command == "prop42":
        assert text.startswith("# affinekit-report prop42 generated ")
        code, text = run_cli(tmp_path, command, "--format", "json", name="j.json")
        assert code == 0
    assert list(load(text)["config_echo"].items()) == _DEFAULT_ECHO[command]
    capsys.readouterr()
    code, text = run_cli(tmp_path, command, "--format", "csv", name="t.csv")
    if command in _UNTABLED:
        assert code == 1 and text is None
        err = capsys.readouterr().err
        assert err == f"error: {command} has no tabular payload; use --format json\n"
    else:
        assert code == 0
        assert text.startswith(f"# affinekit-report {command} generated ")


# ------------------------------------------------------------- rendering


def test_fractions_rendered_exactly(tmp_path):
    code, text = run_cli(tmp_path, "localize-demo", "--x", "1/3", "--b", "1/2")
    assert code == 0
    doc = load(text)
    assert doc["config_echo"]["x"] == "1/3"
    # no decimal anywhere in the report
    assert re.search(r"\d+\.\d+", text) is None


def test_csv_fractions(tmp_path):
    code, text = run_cli(tmp_path, "localize-demo", "--x", "1/2", "--format", "csv",
                         name="d.csv")
    assert code == 0
    assert "/" in text.split("# table after")[1]
    assert re.search(r"\d+\.\d+", text) is None


# ------------------------------------------------------------- commands


def test_algebra_info_twisted(tmp_path):
    code, text = run_cli(tmp_path, "algebra-info", "--algebra", "A2x2")
    assert code == 0
    recs = {r["name"]: r for r in load(text)["records"]}
    assert recs["twist_order"]["actual"] == 2
    assert recs["heisenberg_window"]["status"] == "pass"


def test_cone_certificate_defaults(tmp_path):
    code, text = run_cli(tmp_path, "cone-certificate")
    assert code == 0
    recs = {r["name"]: r for r in load(text)["records"]}
    assert recs["coefficients_positive"]["status"] == "pass"
    assert recs["delta_decomposition"]["status"] == "pass"
    assert recs["scaled_lattice_membership"]["status"] == "pass"


def test_cone_certificate_rejects_non_standard(tmp_path, capsys):
    code = main(["cone-certificate", "--algebra", "A1x1", "--phi1", "1,0",
                 "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "standard" in capsys.readouterr().err


def test_parabolic_classify_single_flag(tmp_path):
    code, text = run_cli(tmp_path, "parabolic-classify", "--algebra", "A1x1",
                         "--phi1", "1,3")
    assert code == 0
    recs = {r["name"]: r for r in load(text)["records"]}
    assert recs["tag"]["actual"] == "standard"
    assert recs["window_doubling_stable"]["status"] == "pass"


def test_parabolic_classify_redraws_improper_samples(tmp_path, capsys):
    # on the degree-0 window seed 0 draws phi1 = (0, -1), which cuts no root
    # (P = Delta); the sampler redraws it and reports every requested sample
    code, text = run_cli(tmp_path, "parabolic-classify", "--window=0:0",
                         "--samples=40", "--seed=0")
    assert code == 0
    recs = {r["name"]: r for r in load(text)["records"]}
    assert sum(recs["tags"]["actual"].values()) == 40
    assert recs["axioms_all_pass"]["status"] == "pass"
    # the same flag given explicitly is still an input error
    code, _ = run_cli(tmp_path, "parabolic-classify", "--window=0:0",
                      "--phi1=0,-1", name="explicit.json")
    assert code == 1
    assert "improper parabolic set" in capsys.readouterr().err


def test_shadow_expectations(tmp_path):
    code, text = run_cli(tmp_path, "shadow", "--module", "loop-dense",
                         "--fin", "2", "--n", "0", "--window=-3:3",
                         "--expect", "i")
    assert code == 0
    code, _ = run_cli(tmp_path, "shadow", "--module", "loop-dense",
                      "--fin", "2", "--n", "0", "--window=-3:3",
                      "--expect", "f", name="f.json")
    assert code == 2


@pytest.mark.parametrize(
    "module,tag", [("imverma", "f"), ("loop-fin", "i"), ("loop-dense", "i")]
)
def test_shadow_tags_imaginary_directions(tmp_path, module, tag):
    # the vacuum's h t^n act freely; a loop module's reach the window's edge
    code, text = run_cli(tmp_path, "shadow", f"--module={module}", "--fin=0", "--n=1")
    assert code == 0
    recs = {r["name"]: r for r in load(text)["records"]}
    assert recs["tag"]["actual"] == tag


@pytest.mark.parametrize(
    "argv",
    [
        ["pm-build", "--module=imverma", "--depth=4", "--window=-3:3"],
        ["pm-build", "--module=loop-fin", "--window=-3:3"],
    ],
)
def test_pm_build_refuses_roots_past_the_generator_window(tmp_path, capsys, argv):
    # the modules tabulate generators of degree |m| <= 2, so their mask says
    # nothing about a degree-3 root
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "no tabulated generator moves along (-2)+-3d" in err
    assert "not convex" not in err
    assert not out.exists()


def test_pm_build_imverma(tmp_path):
    code, text = run_cli(tmp_path, "pm-build")
    assert code == 0
    recs = {r["name"]: r for r in load(text)["records"]}
    assert recs["tag"]["actual"] == "imaginary"
    assert recs["axioms"]["status"] == "pass"


def test_loop_mult_natural_a2(tmp_path):
    code, text = run_cli(tmp_path, "loop-mult", "--algebra", "A2x1",
                         "--factors", "natural", "--scalars", "2",
                         "--window=-2:2")
    assert code == 0
    recs = {r["name"]: r for r in load(text)["records"]}
    assert recs["bracket_compat"]["status"] == "pass"
    assert recs["labels"]["actual"] == 3 * 5


def test_loop_mult_twisted_a2(tmp_path):
    code, text = run_cli(tmp_path, "loop-mult", "--algebra", "A2x2",
                         "--factors", "natural,adjoint", "--scalars", "2,3",
                         "--window=-2:2")
    assert code == 0
    recs = {r["name"]: r for r in load(text)["records"]}
    assert recs["labels"]["actual"] == 3 * 8 * 5
    for name in ("bracket_compat", "weight_additivity", "level_zero", "degree_reader"):
        assert recs[name]["status"] == "pass"
    # fin:m factors are sl2 modules, not modules over the finite part of A2
    code, _ = run_cli(tmp_path, "loop-mult", "--algebra", "A2x2", "--factors", "fin:1",
                      "--scalars", "2", name="fin.json")
    assert code == 1


def test_imverma_mult_vacuum_line(tmp_path):
    code, text = run_cli(tmp_path, "imverma-mult", "--lambda", "3", "--depth", "2")
    assert code == 0
    recs = {r["name"]: r for r in load(text)["records"]}
    assert recs["vacuum_line"]["status"] == "pass"
