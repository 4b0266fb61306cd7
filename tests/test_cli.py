import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bottcher.cli import build_parser, main
from bottcher.io_json import series_from_json, series_to_json
from bottcher.keys import Key
from bottcher.normalize import normalize, verify_normalization
from bottcher.parser import parse
from bottcher.series import TruncationGrid, add, monomial


DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_normalize_json(capsys):
    code, out = run(capsys, "normalize", "z^2 + z^3", "--z-cap", "10", "--json")
    assert code == 0
    data = json.loads(out)
    phi_terms = {(t["z"], tuple(t["l"])): t["re"] for t in data["phi"]["terms"]}
    assert phi_terms[("2", ())] == "1/2"
    assert data["verification"]["conjugation_exact_below_frontier"] is True


def test_normalize_text(capsys):
    code, out = run(capsys, "normalize", "z^2 + z^3", "--z-cap", "8")
    assert code == 0
    assert "phi = z + 1/2*z^2" in out


def test_prenormalize(capsys):
    code, out = run(capsys, "prenormalize", "z^2 + z^2*l1", "--z-cap", "5", "--json")
    assert code == 0
    data = json.loads(out)
    terms = {(t["z"], tuple(t["l"])): t["re"] for t in data["terms"]}
    assert terms[("1", (1,))] == "2/3"


def test_zero_base_power_normalizes(capsys):
    code, out = run(capsys, "normalize", "0^2 + z^2 + z^3", "--z-cap", "5")
    _, ref = run(capsys, "normalize", "z^2 + z^3", "--z-cap", "5")
    assert code == 0
    assert out.splitlines()[0] == ref.splitlines()[0] == "phi = z + 1/2*z^2 + 1/8*z^3"


@pytest.mark.parametrize("coeff", [(2**60 + 12345) ** 2, 10**400])
def test_huge_perfect_square_coefficient_normalizes(capsys, coeff):
    # lambda-reduction takes the square root of the leading coefficient
    code = main(["normalize", f"{coeff}*z^(3/2) + z^2", "--z-cap", "4"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out.startswith("phi = z + ") and "Traceback" not in err


def test_parse_error_exit_code(capsys):
    code, _ = run(capsys, "normalize", "z^^")
    assert code == 4
    for depth in ([], ["--depth", "2"]):  # l0 is no logarithm at any depth
        assert main(["normalize", "z^2 + l0", *depth]) == 4
        assert capsys.readouterr().err.startswith("parse error: l0 ")


def test_zero_denominator_is_parse_error(capsys):
    code = main(["normalize", "z^(1/0)"])
    err = capsys.readouterr().err
    assert code == 4
    assert "Traceback" not in err and "zero denominator" in err


def test_unexpected_error_is_one_line_exit_2(capsys, monkeypatch):
    import bottcher.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "normalize", boom)
    code = main(["normalize", "z^2 + z^3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: RuntimeError: boom\n"


def test_shape_error_exit_code(capsys):
    code, _ = run(capsys, "normalize", "2*z + z^2")  # hyperbolic: out of scope
    assert code == 2


def test_leading_coefficient_error_names_the_cli_remedy(capsys):
    code = main(["prenormalize", "4*z^2 + z^2*l1", "--z-cap", "4", "--depth", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "reduce_lambda" not in err
    assert "rescale z" in err and "`normalize`" in err
    assert main(["normalize", "4*z^2 + z^2*l1", "--z-cap", "4", "--depth", "1"]) == 0


def test_bottcher_seq(capsys):
    code, out = run(capsys, "bottcher-seq", "z^2 + z^3", "--n", "1", "--z-cap", "6")
    assert code == 0
    assert "z + 1/2*z^2 - 1/8*z^3" in out
    code = main(["bottcher-seq", "z^2 + z^3", "--n", "-1", "--z-cap", "6"])
    assert code == 2
    assert capsys.readouterr().err == "error: ValueError: n must be >= 0\n"


def test_support(capsys):
    code, out = run(capsys, "support", "z^2 + z^3*l1", "--z-cap", "12", "--json")
    assert code == 0
    data = json.loads(out)
    zs = {g["z"] for g in data["generators"]}
    assert {"1", "2", "4", "8", "0"} <= zs


def test_support_enumerate(capsys):
    # the README command
    code, out = run(capsys, "support", "z^2 + z^3*l1", "--enumerate", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("enumeration: (0,[1]), (0,[2])")
    assert "(3,[6])" in lines[1] and "(0,[7])" not in lines[1]
    code, out = run(capsys, "support", "z^2 + z^3*l1", "--enumerate", "6", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["enumeration"]) == lines[1].count("(")


def test_verify_pass_and_fail(capsys, tmp_path):
    code, out = run(capsys, "normalize", "z^2 + z^3", "--z-cap", "8", "--json")
    phi = json.loads(out)["phi"]
    p = tmp_path / "phi.json"
    p.write_text(json.dumps(phi))
    code, out = run(capsys, "verify", "--f", "z^2 + z^3", "--phi-file", str(p), "--z-cap", "8")
    assert code == 0
    code, out = run(capsys, "verify", "--f", "z^2 + z^3", "--phi", "z + z^2", "--z-cap", "8")
    assert code == 3


@pytest.mark.parametrize("corrupt", [False, True])
def test_verify_cli_matches_library(capsys, tmp_path, corrupt):
    # `bottcher verify` and verify_normalization run the same conjugation check
    f = parse("z^2 + z^2*l1", grid=TruncationGrid(Fraction(5), 8, 1, 16))
    res = normalize(f, verify=False)
    if corrupt:
        res.phi = add(res.phi, monomial(Key(1, (2,)), f.grid))  # below phi's frontier
    lib = verify_normalization(f, res)
    p = tmp_path / "phi.json"
    p.write_text(json.dumps(series_to_json(res.phi)))
    code, out = run(
        capsys, "verify", "--f", "z^2 + z^2*l1", "--phi-file", str(p),
        "--z-cap", "5", "--block-cap", "8", "--json",
    )
    data = json.loads(out)
    assert data["pass"] is lib["conjugation_exact_below_frontier"] is (not corrupt)
    assert code == (3 if corrupt else 0)
    assert data["checked_below"]["z"] == lib["checked_below"][0]
    if corrupt:
        bad = data["first_bad_key"]
        assert (bad["z"], bad["l"]) == lib["first_bad_key"]
    else:
        assert "first_bad_key" not in data and "first_bad_key" not in lib


def test_verify_non_parabolic_phi_is_one_line_exit_2(capsys):
    code = main(["verify", "--f", "z^2 + z^3", "--phi", "2*z"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: conjugating change of variables must be parabolic\n"


def test_huge_integer_power_is_fast(capsys):
    # z^(10^7) lies above z_cap; its coefficient power must not take 10^7 steps
    t0 = time.monotonic()
    code, _ = run(capsys, "normalize", "z^2 + z^(10000000)", "--z-cap", "4")
    assert code == 0
    assert time.monotonic() - t0 < 1.0


def test_log_of_a_huge_leading_coefficient_exits_2_quickly(capsys):
    # log(lambda) needs the prime factors of lambda = 10^300 + 1
    t0 = time.monotonic()
    code = main(["normalize", f"{10**300}*z^(3/2) + (z + z^2)^(3/2) + z^2*l1",
                 "--z-cap", "4", "--depth", "1"])
    err = capsys.readouterr().err
    assert code == 2 and "use float mode" in err
    assert time.monotonic() - t0 < 5.0


def test_alpha_below_one_with_an_empty_inverse_exits_2(capsys):
    # the inverse z^3 - ... of z^(1/3) + ... lies at z_cap = 3 and above
    code = main(["normalize", "z^(1/3) + z^2*l1", "--z-cap", "3", "--depth", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: grid too small: f^(-1) has no term below z_cap = 3\n"


def _fuzz_expr(rng) -> str:
    """A normalize input: alpha < 1 or > 1, lambda != 1, huge coefficients, logs."""
    big = rng.choice([str(10 ** rng.randint(20, 400)), str((2**60 + rng.randint(1, 99)) ** 2)])
    lam = rng.choice(["", "", "2*", "4*", "-1*", "(1+1i)*", "1/9*", f"{big}*", f"1/{big}*"])
    alpha = rng.choice(["2", "3", "3/2", "5/2", "1/2", "2/3", "1", "-1"])
    rest = ["z^3", "z^(7/2)", "z^2*l1", "z^3*l1^-1", f"{big}*z^4", "(z + z^2)^(3/2)", "z^(1/3)"]
    terms = [f"{lam}z^({alpha})"] + rng.sample(rest, rng.randint(0, 2))
    return " + ".join(terms)


def _mutate(rng, text: str) -> str:
    """One to three character edits: delete, insert or replace."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(chars) + 1)
        op = rng.choice(["del", "ins", "rep"]) if chars else "ins"
        new = rng.choice("^*()+-/zl0123456789 i.x")
        if op == "del" and at < len(chars):
            del chars[at]
        elif op == "rep" and at < len(chars):
            chars[at] = new
        else:
            chars.insert(at, new)
    return "".join(chars)


def test_cli_exit_codes_fuzz(capsys):
    """Seeded inputs through `main`: malformed, huge coefficients, alpha < 1 and
    lambda != 1.  Every run exits 0/2/3/4 and prints no traceback."""
    rng = random.Random(1317)
    seen = set()
    for _ in range(300):
        text = _fuzz_expr(rng)
        if rng.random() < 0.4:
            text = _mutate(rng, text)
        argv = [rng.choice(["normalize", "normalize", "prenormalize"]), text]
        argv += ["--z-cap", rng.choice(["3", "4", "4", "4", "5", "0", "x"])]
        if "l1" in text or rng.random() < 0.2:
            argv += ["--depth", rng.choice(["1", "1", "0"]), "--block-cap", "3"]
        if rng.random() < 0.3:
            argv.append("--float")
        if rng.random() < 0.3:
            argv.append("--json")
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejects a malformed option value
            code = e.code
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        seen.add(code)
    assert {0, 2, 4} <= seen, seen


def test_analytic_domain_check(capsys):
    code, out = run(
        capsys, "analytic", "domain-check", "--alpha", "2", "--eps", "1", "--k", "1",
        "--sqd-C", "1", "--json",
    )
    assert code == 0
    assert json.loads(out)["R"] < 16


def test_analytic_domain_check_failure(capsys):
    code, _ = run(
        capsys, "analytic", "domain-check", "--alpha", "2", "--term", "1,1,0",
        "--r-ceiling", "30",
    )
    assert code == 3


def test_ell_stop_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["normalize", "z^2 + z^2*l1", "--ell-stop", "4"])
    assert exit_.value.code == 2


@pytest.mark.parametrize("alpha", ["1", "0.5", "-2", "nan", "inf"])
@pytest.mark.parametrize("cmd", ["domain-check", "koenigs"])
def test_analytic_alpha_at_most_one_exits_2(capsys, cmd, alpha):
    code = main(["analytic", cmd, "--alpha", alpha, "--term", "1,0,1"])
    assert code == 2
    assert "alpha must be finite and > 1" in capsys.readouterr().err


@pytest.mark.parametrize("C,expected", [("1e300", 3), ("nan", 2), ("inf", 2)])
def test_domain_check_with_no_sample_in_the_domain_fails(capsys, C, expected):
    # a tip far right of [R, R + 8] used to leave nothing to check, and certify
    code, _ = run(capsys, "analytic", "domain-check", "--alpha", "2", "--term", "1,0,1",
                  "--sqd-C", C)
    assert code == expected


def test_analytic_koenigs(capsys):
    code, out = run(
        capsys, "analytic", "koenigs", "--alpha", "2", "--term", "1,0,1",
        "--samples", "4:8:12", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert max(r["residual"] for r in data["samples"]) < 1e-9


def test_analytic_precision_is_scoped_to_the_command(capsys):
    mpmath = pytest.importorskip("mpmath")
    argv = [
        "analytic", "koenigs", "--alpha", "2", "--term", "1,0,1",
        "--samples", "4:8:6", "--precision", "30", "--json",
    ]
    with mpmath.workdps(15):  # these samples print differently at 15 and 30 digits
        code, out = run(capsys, *argv)
        assert code == 0
        assert mpmath.mp.dps == 15
    with mpmath.workdps(30):
        _, want = run(capsys, *argv)
    assert out == want


@pytest.mark.parametrize(
    "argv",
    [
        ["koenigs", "--term=-0.25,2,1.5", "--samples", "6:10:25"],
        ["homological", "--f-term=-0.25,2,1.5", "--g-term=-0.5,0,1", "--samples", "6:10:25"],
    ],
)
def test_negative_term_coefficient_in_the_equals_form(capsys, argv):
    """With a space, argparse takes `-0.25,2,1.5` for an option and `--term`
    lacks its value; the `=` form passes it."""
    code, _ = run(capsys, "analytic", argv[0], "--alpha", "2", *argv[1:])
    assert code == 0


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["koenigs", "homological"])
def test_a_tolerance_no_tail_can_certify_exits_2(capsys, command, tol):
    # unchecked, tol 0, -1 and nan run to the 10,000-step budget (exit 3), and
    # inf certifies phi = zeta at the first step (exit 0)
    term = "--term" if command == "koenigs" else "--g-term"
    code = main(["analytic", command, "--alpha", "2", term, "1,0,1", "--samples", "3:10:3",
                 "--tol", tol])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: tol must be finite and positive")


def test_negative_k_exits_2(capsys):
    # unchecked, k = -1 gives the k = 0 result (R = 1.5000015) with exit 0
    code = main(["analytic", "koenigs", "--alpha", "2", "--term", "1,0,1", "--k", "-1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: k counts iterated logs")


@pytest.mark.parametrize(
    "argv, message",
    [
        # M grows, so the tail bound no longer bounds the tail (exit 0 unchecked)
        (["koenigs", "--term", "1,0,1", "--eps", "-1"], "error: eps must be finite and >= 0"),
        # q > 1 makes the majorant negative: phi_g = 0 at n = 0 (exit 0 unchecked)
        (["homological", "--g-term", "1,0,1", "--nu", "-1"], "error: nu must be finite and >= 0"),
    ],
    ids=["eps", "nu"],
)
def test_a_negative_decay_exponent_exits_2(capsys, argv, message):
    code = main(["analytic", argv[0], "--alpha", "2", *argv[1:], "--samples", "3:10:3", "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(message)


def test_homological_sample_left_of_the_threshold_exits_2(capsys):
    # R = 2.25; unchecked, the homological sum ran at 0.2 to 0.5 with exit 0
    code = main(["analytic", "homological", "--alpha", "2", "--f-term", "1,0,1", "--g-term",
                 "1,0,1", "--samples", "0.2:0.5:3", "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: Re(zeta) = 0.2 < R = 2.25")


def test_analytic_homological(capsys):
    code, out = run(
        capsys, "analytic", "homological", "--alpha", "2", "--nu", "1",
        "--g-term", "1,0,1", "--samples", "4:8:10", "--json",
    )
    assert code == 0
    assert json.loads(out)["worst_residual"] < 1e-10


def test_bridge_to_zeta_and_back(capsys):
    code, out = run(capsys, "bridge", "to-zeta", "z^2 - z^3*l1^-1", "--e-cap", "3")
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == "2"
    assert data["ladder"][0]["beta"] == "1"


def test_bridge_to_z_roundtrip(capsys, tmp_path):
    code, out = run(capsys, "bridge", "to-zeta", "z^2 - z^3*l1^-1", "--e-cap", "3")
    p = tmp_path / "fhat.json"
    p.write_text(out)
    code, out = run(capsys, "bridge", "to-z", "--infile", str(p))
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == "2"
    # the input was z^2 - z^3*l1^-1 = z^2 + z^3 * P(-log z) with P(v) = -v
    assert data["ladder"][0] == {"exp": "3", "P": [{"re": "0", "im": "0"}, {"re": "-1", "im": "0"}]}


def test_bridge_round_trip_gives_the_same_rungs_in_both_modes(capsys, tmp_path):
    # float-mode rung exponents are exact inside, so 5/3 + 1 stays below
    # e_cap = 8/3 and 13/3 is float(13/3); JSON numbers are their floats
    rungs = {}
    for mode in ("exact", "float"):
        flags = ("--float",) if mode == "float" else ()
        code, out = run(capsys, "bridge", "to-zeta", "z^2 - z^3 + 1/3*z^(7/3)", "--z-cap", "6", *flags)
        assert code == 0
        p = tmp_path / f"{mode}.json"
        p.write_text(out)
        code, out = run(capsys, "bridge", "to-z", "--infile", str(p))
        assert code == 0
        rungs[mode] = [r["exp"] for r in json.loads(out)["ladder"]]
    assert rungs["exact"] == ["7/3", "3", "4", "13/3"]
    assert rungs["float"] == [float(Fraction(e)) for e in rungs["exact"]]


def test_bridge_compare(capsys, tmp_path):
    csv_path = tmp_path / "cmp.csv"
    code, out = run(
        capsys, "bridge", "compare", "z^2 - z^3 + 1/2*z^4 - 1/6*z^5",
        "--n", "3", "--z-cap", "7", "--ray-span", "8", "--csv", str(csv_path), "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert all(data["reports"][n]["pass"] for n in "123")
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "re_zeta,n1,n2,n3"
    assert len(lines) == 65


def test_bridge_compare_third_rung(capsys):
    code, _ = run(capsys, "bridge", "compare", "z^2 - z^3 + 1/2*z^4", "--n", "3", "--sqd-C", "1")
    assert code == 0


def test_bridge_compare_lambda_not_one(capsys):
    code, _ = run(capsys, "bridge", "compare", "2*z^2 - z^3", "--n", "2", "--sqd-C", "1")
    assert code == 0


def test_bridge_compare_without_mpmath_exits_2(capsys, monkeypatch):
    """Each rung is compared in mpmath: without it the command says so in one line."""
    import sys

    monkeypatch.setitem(sys.modules, "mpmath", None)
    code = main(["bridge", "compare", "z^2 - z^3 + 1/2*z^4", "--n", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "mpmath" in err and "Traceback" not in err


@pytest.mark.parametrize("n", ["0", "-2"])
def test_bridge_compare_n_below_one_exits_2(capsys, monkeypatch, n):
    """A comparison of no rung would certify nothing: argparse rejects it."""
    import bottcher.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("the comparison ran with --n below 1")

    monkeypatch.setattr(cli, "dulac_normalize_full", no_run)
    with pytest.raises(SystemExit) as exc:
        main(["bridge", "compare", "z^2 - z^3 + 1/2*z^4", "--n", n, "--sqd-C", "1", "--json"])
    assert exc.value.code == 2
    assert "argument --n" in capsys.readouterr().err


def test_bridge_compare_more_rungs_than_phi_has_exits_2(capsys, monkeypatch):
    """At z_cap 4 phi has one rung: --n 5 cannot be certified, and the
    command says so before it searches for a threshold."""
    import bottcher.cli as cli

    def no_search(*args, **kwargs):
        raise AssertionError("the threshold search ran")

    monkeypatch.setattr(cli, "invariant_threshold", no_search)
    code = main(["bridge", "compare", "z^2 - z^3 + 1/2*z^4", "--n", "5", "--z-cap", "4", "--sqd-C", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "phi has 1 rung(s) at --z-cap 4, fewer than --n 5" in err


FLOAT_GRID = ["--float", "--z-cap", "10", "--block-cap", "8", "--depth", "0"]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known bug: float verification tests residuals against an absolute "
    "1e-9; phi's coefficients reach 1.6e19 and the z^9 residual is 1.8e4",
)
def test_float_verification_scales_with_large_coefficients(capsys):
    code, _ = run(capsys, "normalize", "z^2 + 1000*z^3", *FLOAT_GRID)
    assert code == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known bug: float verification tests residuals against an absolute "
    "1e-9; fails at z^(7/2) with a residual of 1.1e15 among coefficients near 2.5e29",
)
def test_float_verification_scales_with_large_fractional_coefficients(capsys):
    code, _ = run(capsys, "normalize", "z^(3/2) + 100*z^2", *FLOAT_GRID)
    assert code == 0


def test_analytic_koenigs_output_is_pinned(capsys):
    # the README's `analytic koenigs` line as JSON, byte for byte; it reads
    # each point's tail before its residual, and neither order moves a bit
    code, out = run(
        capsys, "analytic", "koenigs", "--alpha", "2", "--term", "1,0,1",
        "--samples", "3:10:50", "--json",
    )
    assert code == 0
    assert out == (DATA / "analytic_koenigs_3_10_50.json").read_text()


def test_selftest(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert "PASS" in out


def test_config_file_defaults(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg"
    cfg.write_text("z_cap = 6\nblock_cap = 4\n")
    monkeypatch.setenv("BOTTCHER_CONFIG", str(cfg))
    code, out = run(capsys, "normalize", "z^2 + z^3", "--json")
    assert code == 0
    assert json.loads(out)["phi"]["grid"]["z_cap"] == "6"


KOENIGS = ["analytic", "koenigs", "--alpha", "2", "--term", "1,0,1"]


def test_config_r_ceiling_acts_like_the_flag(capsys, tmp_path, monkeypatch):
    code, _ = run(capsys, *KOENIGS, "--r-ceiling", "2")
    assert code == 3
    cfg = tmp_path / "cfg"
    cfg.write_text("r_ceiling = 2\n")
    monkeypatch.setenv("BOTTCHER_CONFIG", str(cfg))
    code, _ = run(capsys, *KOENIGS)
    assert code == 3
    code, _ = run(capsys, *KOENIGS, "--r-ceiling", "64")  # a flag overrides the file
    assert code == 0


def test_config_tol_reaches_the_koenigs_tail(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg"
    cfg.write_text("# loose tolerance\ntol = 1e-3\nsamples = 4:8:3\n")
    monkeypatch.setenv("BOTTCHER_CONFIG", str(cfg))
    code, out = run(capsys, *KOENIGS, "--json")
    assert code == 0
    tails = [r["tail_bound"] for r in json.loads(out)["samples"]]
    assert len(tails) == 3 and min(tails) > 1e-11 and max(tails) < 1e-3


def cli_subprocess(*argv, python_flags=(), **env):
    """Run `python -m bottcher.cli` in a fresh interpreter with extra env vars."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import bottcher

    env = dict(os.environ, PYTHONPATH=str(Path(bottcher.__file__).parents[1]), **env)
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "bottcher.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_malformed_config_value_exits_2_without_traceback(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("z_cap = abc\n")
    done = cli_subprocess("normalize", "z^2 + z^3", BOTTCHER_CONFIG=str(cfg))
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr and "invalid Fraction value: 'abc'" in done.stderr


def test_input_files_are_closed(capsys, tmp_path):
    _, out = run(capsys, "normalize", "z^2 + z^3", "--z-cap", "8", "--json")
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(json.loads(out)["phi"]))
    _, out = run(capsys, "bridge", "to-zeta", "z^2 - z^3*l1^-1", "--e-cap", "3")
    fhat = tmp_path / "fhat.json"
    fhat.write_text(out)
    for argv in (
        ["verify", "--f", "z^2 + z^3", "--phi-file", str(phi), "--z-cap", "8"],
        ["bridge", "to-z", "--infile", str(fhat)],
    ):
        done = cli_subprocess(*argv, python_flags=("-X", "dev"))
        assert done.returncode == 0, done.stderr
        assert "ResourceWarning" not in done.stderr, argv


@pytest.mark.parametrize(
    "samples, command",
    [("3:10:0", "koenigs"), ("3:10", "koenigs"), ("3:10:0", "homological")],
)
def test_bad_samples_spec_exits_2_naming_the_option(capsys, monkeypatch, samples, command):
    import bottcher.cli as cli

    def no_setup(*args, **kwargs):
        raise AssertionError("the analytic set-up ran on a bad --samples")

    monkeypatch.setattr(cli, "invariant_threshold", no_setup)
    with pytest.raises(SystemExit) as exc:
        main(["analytic", command, "--alpha", "2", "--samples", samples])
    assert exc.value.code == 2
    assert "argument --samples" in capsys.readouterr().err


def test_bad_samples_in_config_exits_2(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("samples = 3:10:0\n")
    done = cli_subprocess(*KOENIGS, BOTTCHER_CONFIG=str(cfg))
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "argument --samples" in done.stderr


def test_options_no_command_reads_are_rejected(capsys):
    for argv in (
        ["bridge", "to-zeta", "z^2", "--alpha", "2"],
        ["selftest", "--z-cap", "6"],
        ["bridge", "to-zeta", "z^2 - z^3*l1^-1", "--e-cap", "3", "--n", "5", "--tol", "7",
         "--ray-span", "1", "--sqd-C", "9"],
        ["analytic", "domain-check", "--alpha", "2", "--samples", "1:1:1", "--precision", "40"],
        ["bridge", "to-z", "z^2", "--infile", "fhat.json"],
        ["bridge", "compare", "z^2 - z^3 + 1/2*z^4", "--tol", "1e-9"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["verify", "--f", "z^2 + z^3"], "--phi"),
        (["verify", "--f", "z^2 + z^3", "--phi", "z", "--phi-file", "phi.json"], "--phi"),
        (["bridge", "to-zeta"], "required: expr"),
        (["bridge", "compare"], "required: expr"),
    ],
)
def test_missing_argument_is_a_usage_error(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert named in err and "NoneType" not in err


@pytest.mark.parametrize("command", ["homological", "domain-check"])
def test_csv_is_rejected_where_nothing_writes_it(capsys, tmp_path, command):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["analytic", command, "--alpha", "2", "--g-term", "1,0,1", "--csv", str(out)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "unrecognized arguments" in err and "--csv" in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["z^2 + z^2*l1^-1", "z^2 + z^2*l1^-1*l2^3"])
def test_prenormalize_lex_negative_alpha_block_exits_2(capsys, text):
    code = main(["prenormalize", text])
    assert code == 2
    assert "leading term contains logarithms" in capsys.readouterr().err


def test_series_json_roundtrip():
    f = parse("z^2 - 1/3*z^3*l1^-1 + (1+2i)*z^4")
    g = series_from_json(series_to_json(f))
    assert g == f
    assert g.frontier == f.frontier


def test_series_json_roundtrip_float_and_log_coeffs():
    from crosschecks import compose_ell
    from bottcher.series import TruncationGrid, embed

    e2 = compose_ell(2, parse("z^3", depth=2, z_cap=6))  # carries log(3) symbols
    g = series_from_json(series_to_json(e2))
    assert g == e2
    fl = embed(e2, e2.grid, mode="float")
    g2 = series_from_json(series_to_json(fl))
    assert g2 == fl


def test_readme_cli_lines_parse():
    # every README line that starts with "bottcher " is accepted by the parser
    import shlex
    from pathlib import Path

    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [ln for ln in readme.read_text().splitlines() if ln.startswith("bottcher ")]
    assert lines
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit as exc:
            pytest.fail(f"README line does not parse ({exc.code}): {line}")


def test_readme_config_keys_are_option_dests():
    # the README's $BOTTCHER_CONFIG key list is the parser's, and each key sets an option
    import re
    from pathlib import Path

    from bottcher.cli import CONFIG_KEYS, _subcommands

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("`$BOTTCHER_CONFIG`", 1)[1].split(")", 1)[0]
    keys = re.findall(r"`(\w+)`", listed)
    assert keys == list(CONFIG_KEYS)
    dests = {a.dest for p in _subcommands(build_parser()).values() for a in p._actions}
    assert set(keys) <= dests, set(keys) - dests
