"""Command-line driver tests."""

import io

import pytest

from repro.cli import run


FIG1_BPL = """
var Freed: [int]int;
procedure Foo(c: int, buf: int, cmd: int) modifies Freed;
{
  if (*) {
    A1: assert Freed[c] == 0;  Freed[c] := 1;
    A2: assert Freed[buf] == 0; Freed[buf] := 1;
    return;
  }
  if (cmd == 0) {
    if (*) {
      A3: assert Freed[c] == 0;  Freed[c] := 1;
      A4: assert Freed[buf] == 0; Freed[buf] := 1;
    }
  }
  A5: assert Freed[c] == 0;  Freed[c] := 1;
  A6: assert Freed[buf] == 0; Freed[buf] := 1;
}
"""

FIG2_C = """
struct twoints { int a; int b; };
int static_returns_t(void);
void Bar(void) {
  struct twoints *data = NULL;
  data = (struct twoints *)calloc(100, sizeof(struct twoints));
  if (static_returns_t()) { data[0].a = 1; }
  else { if (data != NULL) { data[0].a = 1; } else { } }
}
"""


@pytest.fixture()
def fig1_file(tmp_path):
    p = tmp_path / "fig1.bpl"
    p.write_text(FIG1_BPL)
    return str(p)


@pytest.fixture()
def fig2_file(tmp_path):
    p = tmp_path / "fig2.c"
    p.write_text(FIG2_C)
    return str(p)


class TestCli:
    def test_boogie_mode_finds_bug(self, fig1_file):
        out = io.StringIO()
        code = run([fig1_file], out=out)
        text = out.getvalue()
        assert code == 1  # warnings found
        assert "Foo [Conc]: SIB" in text
        assert "WARNING A5" in text
        assert "A6" not in text.replace("A6]", "")  # only A5 warned

    def test_show_cons(self, fig1_file):
        out = io.StringIO()
        run(["--show-cons", fig1_file], out=out)
        assert "conservative warnings: A1, A2, A3, A4, A5, A6" in out.getvalue()

    def test_c_mode_with_configs(self, fig2_file):
        out = io.StringIO()
        code = run(["--c", "--config", "Conc", "--config", "A1", fig2_file],
                   out=out)
        text = out.getvalue()
        assert code == 1
        assert "Bar [Conc]: MAYBUG" in text
        assert "Bar [A1]: SIB" in text
        assert "WARNING deref$1" in text

    def test_prune_k_flag(self, fig2_file):
        out = io.StringIO()
        code = run(["--c", "--prune-k", "1", fig2_file], out=out)
        assert code == 1
        assert "k=1" in out.getvalue()

    def test_clean_program_exits_zero(self, tmp_path):
        p = tmp_path / "ok.bpl"
        p.write_text("procedure P(x: int) { assume x > 0; assert x > 0; }")
        out = io.StringIO()
        assert run([str(p)], out=out) == 0
        assert "CORRECT" in out.getvalue()

    def test_proc_filter(self, fig1_file):
        out = io.StringIO()
        assert run(["--proc", "Foo", fig1_file], out=out) == 1
        out2 = io.StringIO()
        assert run(["--proc", "Nope", fig1_file], out=out2) == 2

    def test_missing_file(self):
        assert run(["/nonexistent/x.bpl"]) == 2

    def test_parse_error_reported(self, tmp_path):
        p = tmp_path / "bad.bpl"
        p.write_text("procedure {")
        assert run([str(p)]) == 2

    @pytest.mark.parametrize("mode,src", [
        ([], "procedure P() returns (r: int)\n{\n  r := ٣;\n}\n"),
        (["--c"], "int f() {\n  int r;\n  r = 2²;\n  return r;\n}\n"),
    ])
    def test_non_ascii_digit_literal_exits_2(self, tmp_path, capsys, mode,
                                             src):
        p = tmp_path / "lit.src"
        p.write_text(src)
        out = io.StringIO()
        assert run([*mode, str(p)], out=out) == 2
        assert out.getvalue() == ""
        err = capsys.readouterr().err
        assert "ASCII digits at line 3" in err

    def test_procedure_defined_twice_exits_2(self, tmp_path, capsys):
        # the second definition used to replace the failing first one
        p = tmp_path / "twice.bpl"
        p.write_text("procedure f()\n{\n  A1: assert 1 == 2;\n}\n"
                     "procedure f()\n{\n  A2: assert 1 == 1;\n}\n")
        out = io.StringIO()
        assert run([str(p)], out=out) == 2
        assert out.getvalue() == ""
        assert "procedure 'f' declared twice, again at line 5" in \
            capsys.readouterr().err
        assert run(["ci", str(tmp_path), "--manifest",
                    str(tmp_path / "m.json")], out=out) == 2
        assert "procedure 'f' declared twice, again at line 5" in \
            capsys.readouterr().err

    def test_c_prototype_after_definition_keeps_it(self, tmp_path):
        p = tmp_path / "f.c"
        for src in ("void f(int *p) { *p = 1; }\n",
                    "void f(int *p) { *p = 1; }\nvoid f(int *p);\n"):
            p.write_text(src)
            out = io.StringIO()
            run(["--c", "--show-cons", str(p)], out=out)
            assert "conservative warnings: deref$1" in out.getvalue()

    def test_bad_config_rejected(self, fig1_file):
        with pytest.raises(SystemExit):
            run(["--config", "Zmax", fig1_file])

    def test_triage_mode(self, tmp_path):
        p = tmp_path / "t.c"
        p.write_text("""
            void doomedfn(int *p) { p = NULL; *p = 1; }
            void inconsistent(int *r) { *r = 1; if (r != NULL) { *r = 2; } }
        """)
        out = io.StringIO()
        code = run(["--c", "--triage", str(p)], out=out)
        text = out.getvalue()
        assert code == 1
        assert "[DOOMED]" in text and "[HIGH" in text
        assert text.index("DOOMED") < text.index("HIGH")
