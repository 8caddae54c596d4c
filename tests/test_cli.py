import contextlib
import json
import os
import subprocess
import sys

import pytest

import latticecf
from latticecf import cf, cli, lattice
from latticecf.cli import main
from latticecf.errors import InternalError


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(**overrides):
    """The parent's environment with `overrides`, and the package under
    test first on PYTHONPATH, so that a child `python -m latticecf`
    runs the same code this suite imported."""
    package_root = os.path.dirname(os.path.dirname(latticecf.__file__))
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def digit_limit():
    """CPython's int/str digit limit, or None on interpreters without one."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


@contextlib.contextmanager
def no_digit_limit():
    """Lift the int/str digit limit, where there is one, for one block."""
    limit = digit_limit()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


class TestCF:
    def test_expand_hj(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "expand", "--kind", "hj", "11/7")
        assert (code, out) == (0, "[2,3,2,2]\n")

    def test_expand_e_one(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "expand", "--kind", "e", "1/1")
        assert (code, out) == (0, "[1]\n")

    def test_convert(self, capsys):
        assert run_cli(capsys, "cf", "convert", "--to", "hj", "1,1,1,3")[1] == "[2,3,2,2]\n"
        assert run_cli(capsys, "cf", "convert", "--to", "e", "3,4")[1] == "[2,1,3]\n"

    def test_involute(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "involute", "11/7", "--terms")
        assert code == 0
        assert out == "11/4\ne: [2,1,3]\nhj: [3,4]\n"

    def test_staircase(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "staircase", "2,3,2,2")
        assert code == 0
        assert out == "*\n**\n *\n *\ndual: [3,4]\n"


    @pytest.mark.parametrize("text", ["1e10000000", "1e5", "0.5"])
    def test_decimals_and_exponents_are_usage_errors(self, capsys, text):
        # Fraction reads both, and would spend seconds building 10^10000000
        code, out, err = run_cli(capsys, "cf", "expand", "--kind", "e", text)
        assert (code, out) == (1, "")
        assert err == f"error: cannot parse rational {text!r}; use P/Q or an integer\n"


class TestCone:
    def test_type(self, capsys):
        code, out, _ = run_cli(capsys, "cone", "type", "1", "0", "4", "11")
        assert code == 0
        assert out == "11/7\nmap: [[1,-1],[0,1]]\n"

    def test_polygon_json(self, capsys):
        code, out, _ = run_cli(capsys, "cone", "polygon", "11/7", "--oracle")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "lattice-cf/1"
        assert doc["weights"] == [2, 3, 2, 2]
        assert doc["points"][0] == [1, 0] and doc["points"][-1] == [-7, 11]
        assert doc["vertices"] == [0, 2, 5]

    def test_dual(self, capsys):
        assert run_cli(capsys, "cone", "dual", "11/7")[1] == "11/4\n"

    def test_duality_report(self, capsys):
        code, out, _ = run_cli(capsys, "cone", "duality-report", "11/4")
        doc = json.loads(out)
        assert code == 0
        assert doc["vertices_covered"] and doc["images_on_dual"]
        assert [e["is_vertex"] for e in doc["exceptional"]] == [False, False]
        assert doc["exceptional_rule_ok"]

    def test_regular_cone_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "cone", "polygon", "1/0")
        # 1/0 does not even parse as a rational
        assert code == 1
        code, _, err = run_cli(capsys, "cone", "polygon", "1")
        assert code == 2 and "error" in err


class TestZigzag:
    def test_reads(self, capsys):
        assert run_cli(capsys, "zigzag", "11/7", "--read", "e-dual")[1] == "[2,1,3]\n"
        assert run_cli(capsys, "zigzag", "11/7", "--read", "hj")[1] == "[2,3,2,2]\n"
        assert run_cli(capsys, "zigzag", "11/7", "--read", "hj-dual")[1] == "[3,4]\n"
        assert run_cli(capsys, "zigzag", "11/7", "--read", "e")[1] == "[1,1,1,3]\n"

    def test_ascii_header(self, capsys):
        code, out, _ = run_cli(capsys, "zigzag", "11/7")
        assert code == 0 and out.startswith("ZZ(11/7)\n")

    def test_json(self, capsys):
        doc = json.loads(run_cli(capsys, "zigzag", "11/4", "--format", "json")[1])
        assert doc["lambda"] == "11/4"
        assert doc["extreme_is_vertex"] == [False, False]

    def test_svg(self, capsys):
        code, out, _ = run_cli(capsys, "zigzag", "11/4", "--format", "svg")
        assert code == 0 and out.startswith("<?xml") and "</svg>" in out

    def test_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "zigzag", "1/2")
        assert code == 2 and "error" in err


class TestSing:
    def test_resolve_json(self, capsys):
        doc = json.loads(run_cli(capsys, "sing", "resolve", "11/7")[1])
        assert [v["weight"] for v in doc["vertices"]] == [-2, -3, -2, -2]

    def test_resolve_dot(self, capsys):
        code, out, _ = run_cli(capsys, "sing", "resolve", "11/7", "--format", "dot")
        assert code == 0 and out.startswith("graph dual {") and out.count("--") == 3

    def test_embdim(self, capsys):
        assert run_cli(capsys, "sing", "embdim", "11/4", "--oracle") == (0, "6\n", "")

    def test_blowup(self, capsys):
        assert run_cli(capsys, "sing", "blowup", "11/7")[1] == "smooth\nA_1\n"
        assert run_cli(capsys, "sing", "blowup", "2/1")[1] == ""


class TestLensCuspCurve:
    def test_lens_compare(self, capsys):
        assert run_cli(capsys, "lens", "compare", "11", "7", "11", "8")[1] == "oriented-diffeomorphic\n"
        assert run_cli(capsys, "lens", "compare", "11", "7", "11", "4")[1] == "not-oriented-diffeomorphic\n"
        out = run_cli(capsys, "lens", "compare", "11", "7", "11", "4", "--reverse")[1]
        assert out == "orientation-reversing-diffeomorphic\n"

    def test_lens_reverse(self, capsys):
        assert run_cli(capsys, "lens", "reverse", "11", "7")[1] == "L(11,4)\n"

    def test_cusp(self, capsys):
        assert run_cli(capsys, "cusp", "monodromy", "4")[1] == "[[0,-1],[1,4]]\n"
        assert run_cli(capsys, "cusp", "trace", "2,3,2,2")[1] == "6\n"
        assert run_cli(capsys, "cusp", "dual", "2,3,2,2")[1] == "(6)\n"
        assert run_cli(capsys, "cusp", "dual", "4")[1] == "(2,3)\n"

    def test_cusp_invalid_cycle(self, capsys):
        code, _, err = run_cli(capsys, "cusp", "trace", "2,2")
        assert code == 2 and "error" in err

    def test_curve_resolve(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "resolve", "11", "4", "--oracle")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["vertices"]) == 6
        assert doc["arrows"] == ["v5"]
        labels = {v["label"] for v in doc["vertices"]}
        assert labels == {f"E_{k}" for k in range(1, 7)}


class TestHarness:
    def test_usage_error_exit_code(self, capsys):
        assert run_cli(capsys, "cf", "expand", "--kind", "x", "3/2")[0] == 1
        assert run_cli(capsys, "nonsense")[0] == 1
        assert run_cli(capsys, "cf", "expand", "--kind", "e", "a/b")[0] == 1

    def test_domain_error_exit_code(self, capsys):
        assert run_cli(capsys, "cf", "involute", "1/2")[0] == 2
        assert run_cli(capsys, "curve", "resolve", "5", "1")[0] == 2

    def test_byte_determinism(self, capsys):
        first = run_cli(capsys, "cone", "duality-report", "97/35")
        second = run_cli(capsys, "cone", "duality-report", "97/35")
        assert first == second
        a = run_cli(capsys, "zigzag", "97/35", "--format", "svg")
        b = run_cli(capsys, "zigzag", "97/35", "--format", "svg")
        assert a == b

    def test_parser_reused_across_calls(self, capsys):
        # one parser serves a command, a usage error and another command
        # exactly as a parser built afresh for each call would
        from latticecf.cli import _build_parser

        commands = [
            ("zigzag", "11/7", "--read", "hj-dual"),
            ("cf", "expand", "--kind", "x", "3/2"),
            ("sing", "blowup", "11/7"),
        ]
        fresh = []
        for argv in commands:
            _build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        reused = [run_cli(capsys, *argv) for argv in commands]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 1, 0]
        assert reused[1][2].startswith("usage: latticecf cf expand")
        assert _build_parser() is _build_parser()

    @pytest.mark.parametrize(
        "module, oracle, wrong, argv, what",
        [
            pytest.param(
                "lattice", "hull_oracle", lambda c: lattice.polygon(lattice.ConeNF(3, 2)),
                ("cone", "polygon", "11/7"), "hull differs from the recursion chain",
                id="cone-polygon",
            ),
            pytest.param(
                "sing", "embdim_oracle", lambda t: 0,
                ("sing", "embdim", "11/7"), "semigroup count differs from the formula",
                id="sing-embdim",
            ),
            pytest.param(
                "sing", "blowup_oracle", lambda p, q: None,
                ("curve", "resolve", "11", "4"), "blow-up simulation differs from the diagram",
                id="curve-resolve",
            ),
        ],
    )
    def test_oracle_mismatch_exits_3(self, capsys, monkeypatch, module, oracle, wrong, argv, what):
        assert run_cli(capsys, *argv, "--oracle")[0] == 0
        monkeypatch.setattr(getattr(cli, module), oracle, wrong)
        assert run_cli(capsys, *argv, "--oracle") == (3, "", f"oracle mismatch: {what}\n")

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        # weights of the wrong cone: the hull chain misses its end point (-q, p)
        monkeypatch.setattr(lattice, "hj_terms", lambda p, q: cf.hj_terms(p + q, q))
        with pytest.raises(InternalError):
            lattice.polygon(lattice.ConeNF(11, 7))
        code, out, err = run_cli(capsys, "cone", "polygon", "11/7")
        assert (code, out) == (3, "")
        assert err.startswith("internal error: chain for") and "Traceback" not in err

    def test_unexpected_exception_exits_3_on_one_line(self, capsys, monkeypatch):
        def fault(t):
            raise ZeroDivisionError("integer division\nor modulo by zero")

        monkeypatch.setattr(cli.sing, "embdim", fault)
        code, out, err = run_cli(capsys, "sing", "embdim", "11/7")
        assert (code, out) == (3, "")
        assert err == "internal error: ZeroDivisionError: integer division or modulo by zero\n"
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "latticecf", "cf", "expand", "--kind", "hj", "11/7"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[2,3,2,2]\n"

    def test_cold_start_imports_no_code_generation(self):
        # dataclasses (and the inspect it pulls in) cost ~30 ms of every CLI process
        probe = (
            "import sys; bare = set(sys.modules); import latticecf.cli; "
            "print(' '.join(sorted(set(sys.modules) - bare)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        added = set(proc.stdout.split())
        assert "latticecf.cli" in added
        assert {"dataclasses", "inspect"}.isdisjoint(added), sorted(added)

    def test_cross_process_determinism(self):
        # separate interpreters get different hash seeds; output must not care
        commands = [
            ["cone", "duality-report", "89/34"],
            ["zigzag", "89/34", "--format", "svg"],
            ["curve", "resolve", "13", "5", "--format", "dot"],
        ]
        for args in commands:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "latticecf", *args],
                    capture_output=True,
                    env=child_env(PYTHONHASHSEED=seed),
                )
                for seed in ("1", "77")
            ]
            for run in runs:
                assert run.returncode == 0, run.stderr.decode()
            assert runs[0].stdout == runs[1].stdout


class TestBeyondDigitLimit:
    """Integers of 10^4 digits, past CPython's default 4300-digit str limit."""

    def test_expand_ten_thousand_digit_numerator(self, capsys):
        limit = digit_limit()
        code, out, err = run_cli(capsys, "cf", "expand", "--kind", "e", "1" + "0" * 10_000 + "/7")
        assert (code, err) == (0, "")
        # 10^10000 = 7*a + 4 with a = 142857142857..., then 7/4 = [1,1,3]
        assert out == "[" + ("142857" * 1667)[:10_000] + ",1,1,3]\n"
        assert digit_limit() == limit

    def test_cusp_trace_with_ten_thousand_digits(self, capsys):
        limit = digit_limit()
        n = 24_000
        code, out, err = run_cli(capsys, "cusp", "trace", ",".join(["3"] * n))
        assert (code, err) == (0, "")
        assert digit_limit() == limit
        # the trace of [[0,-1],[1,3]]^n is the Lucas number L_2n
        a, b = 2, 1
        for _ in range(2 * n):
            a, b = b, a + b
        with no_digit_limit():
            expected = f"{a}\n"
        assert len(out) > 10_001 and out == expected

    def test_limit_restored_after_usage_error(self, capsys):
        limit = digit_limit()
        code, _, err = run_cli(capsys, "cf", "expand", "--kind", "e", "1" + "0" * 5000 + "/x")
        assert code == 1 and "cannot parse rational" in err
        assert digit_limit() == limit
