"""The mayac command-line front end."""

import pytest

from repro.mayac import cli, main


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.maya"
    path.write_text("""
        import java.util.*;
        class Demo {
            static void main() {
                use maya.util.ForEach;
                Vector v = new Vector();
                v.addElement("cli");
                v.elements().foreach(String s) {
                    System.out.println(s);
                }
            }
        }
    """)
    return str(path)


class TestCli:
    def test_compile_only(self, demo_file):
        assert main([demo_file]) == 0

    def test_expand_prints_source(self, demo_file, capsys):
        assert main([demo_file, "--expand"]) == 0
        out = capsys.readouterr().out
        assert "hasMoreElements" in out

    def test_run(self, demo_file, capsys):
        assert main([demo_file, "--run", "Demo"]) == 0
        assert "cli" in capsys.readouterr().out

    def test_compile_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.maya"
        bad.write_text("class Broken { int f() { return \"no\"; } }")
        assert main([str(bad)]) == 1
        assert "mayac:" in capsys.readouterr().err

    def test_diagnostics_rendered_with_carets(self, tmp_path, capsys):
        bad = tmp_path / "bad.maya"
        bad.write_text("""class Broken {
    int a() { int x = true; return x; }
    int b() { return "nope"; }
}""")
        assert main([str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"{bad}:2:15: [check] error:" in err
        assert f"{bad}:3:15: [check] error:" in err
        assert "  |     int a() { int x = true; return x; }" in err
        assert "^" in err
        assert "mayac: 2 errors" in err

    def test_max_errors_flag(self, tmp_path, capsys):
        bad = tmp_path / "bad.maya"
        bad.write_text("""class Broken {
    int a() { int x = true; return x; }
    int b() { return "nope"; }
    void c() { nosuch(); }
}""")
        assert main([str(bad), "--max-errors", "1"]) == 1
        err = capsys.readouterr().err
        assert "mayac: 1 error" in err
        assert ":3:" not in err

    def test_fuel_flag(self, tmp_path, capsys):
        # --fuel is plumbed into the engine's expansion depth budget;
        # an absurdly low budget trips even the macro library's modest
        # expansions... but a plain class uses none, so it compiles.
        good = tmp_path / "ok.maya"
        good.write_text("class Ok { }")
        assert main([str(good), "--fuel", "1"]) == 0

    def test_use_option(self, tmp_path, capsys):
        source = tmp_path / "app.maya"
        source.write_text("""
            import java.util.*;
            class Demo {
                static void main() {
                    Vector v = new Vector();
                    v.addElement("via --use");
                    v.elements().foreach(String s) {
                        System.out.println(s);
                    }
                }
            }
        """)
        assert main([str(source), "--use", "maya.util.ForEach",
                     "--run", "Demo"]) == 0
        assert "via --use" in capsys.readouterr().out

    @pytest.mark.parametrize("files", [1, 2], ids=["single", "modules"])
    def test_unknown_use_is_a_diagnostic(self, tmp_path, capsys, files):
        # Two files put mayac in module mode.
        paths = []
        for index in range(files):
            path = tmp_path / f"m{index}.maya"
            path.write_text(f"class M{index} {{ }}")
            paths.append(str(path))
        assert main(paths + ["--use", "no.Such"]) == 1
        err = capsys.readouterr().err
        assert "unknown metaprogram 'no.Such'" in err
        assert "mayac: 1 error" in err

    def test_multiple_files_accumulate(self, tmp_path, capsys):
        lib = tmp_path / "lib.maya"
        lib.write_text("class Lib { static int seven() { return 7; } }")
        app = tmp_path / "app.maya"
        app.write_text("""
            class App {
                static void main() { System.out.println(Lib.seven()); }
            }
        """)
        assert main([str(lib), str(app), "--run", "App"]) == 0
        assert "7" in capsys.readouterr().out

    def test_multijava_flag(self, tmp_path, capsys):
        source = tmp_path / "mj.maya"
        source.write_text("""
            use multijava.MultiJava;
            class C { }
            class D extends C { }
            class H {
                String f(C c) { return "c"; }
                String f(C@D c) { return "d"; }
            }
            class Demo {
                static void main() {
                    System.out.println(new H().f(new D()));
                }
            }
        """)
        assert main([str(source), "--multijava", "--run", "Demo"]) == 0
        assert "d" in capsys.readouterr().out


class TestDumpCodegen:
    @pytest.fixture
    def calc_file(self, tmp_path):
        path = tmp_path / "calc.maya"
        path.write_text("""
            class Calc {
                int twice(int n) { return n * 2; }
            }
            class Demo {
                static void main() {
                    System.out.println(new Calc().twice(21));
                }
            }
        """)
        return str(path)

    def test_dump_all_methods(self, calc_file, capsys):
        assert main([calc_file, "--dump-codegen"]) == 0
        out = capsys.readouterr().out
        assert "# === Demo.main() ===" in out
        assert "# === Calc.twice(int) ===" in out
        assert "def _m(interp, v_this" in out

    def test_dump_filtered_to_one_method(self, calc_file, capsys):
        assert main([calc_file, "--dump-codegen", "Calc.twice"]) == 0
        out = capsys.readouterr().out
        assert "Calc.twice(int)" in out
        assert "Demo.main" not in out

    def test_dump_unknown_method_fails(self, calc_file, capsys):
        assert main([calc_file, "--dump-codegen", "NoSuch.method"]) == 1
        captured = capsys.readouterr()
        assert "no method matches 'NoSuch.method'" in captured.err

    def test_dump_source_is_valid_python(self, calc_file, capsys):
        assert main([calc_file, "--dump-codegen", "Demo.main"]) == 0
        out = capsys.readouterr().out
        body = out.split("===\n", 1)[1]
        compile(body, "<dump>", "exec")

    def test_dump_composes_with_run(self, calc_file, capsys):
        assert main([calc_file, "--run", "Demo", "--backend", "pycode",
                     "--dump-codegen", "Demo.main"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("42\n")
        assert "# === Demo.main() ===" in out


class TestUnixExitConventions:
    """``cli`` is ``main`` plus signal/pipe hygiene: Ctrl-C exits 130
    and a vanished reader exits 0 — never with a Python traceback."""

    def test_sigint_exits_130(self, demo_file, capsys, monkeypatch):
        from repro.core.compiler import MayaCompiler

        def interrupted(self, source, filename="<string>"):
            raise KeyboardInterrupt

        monkeypatch.setattr(MayaCompiler, "compile", interrupted)
        assert cli([demo_file]) == 130
        err = capsys.readouterr().err
        assert "mayac: interrupted" in err
        assert "Traceback" not in err

    def test_broken_pipe_exits_0(self, demo_file, capsys, monkeypatch):
        import sys

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError

            def flush(self):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert cli([demo_file, "--expand"]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_normal_exit_codes_pass_through(self, demo_file, tmp_path,
                                            capsys):
        assert cli([demo_file]) == 0
        bad = tmp_path / "bad.maya"
        bad.write_text('class Broken { int f() { return "no"; } }')
        assert cli([str(bad)]) == 1
        capsys.readouterr()


class TestDaemonFrontEnd:
    """``mayac --daemon ADDR`` delegates to a running mayad."""

    @pytest.fixture
    def daemon(self):
        from repro.server import DaemonConfig, MayaDaemon

        server = MayaDaemon(DaemonConfig(workers=1,
                                         prewarm=False)).start()
        yield server
        server.stop()

    def test_expand_via_daemon(self, daemon, demo_file, capsys):
        assert main(["--daemon", daemon.address, demo_file,
                     "--expand"]) == 0
        assert "hasMoreElements" in capsys.readouterr().out

    def test_compile_error_via_daemon(self, daemon, tmp_path, capsys):
        bad = tmp_path / "bad.maya"
        bad.write_text('class Broken { int f() { return "no"; } }')
        assert main(["--daemon", daemon.address, str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error" in err
        assert "mayac: 1 error" in err

    def test_run_is_rejected_with_daemon(self, daemon, demo_file,
                                         capsys):
        assert main(["--daemon", daemon.address, demo_file,
                     "--run", "Demo"]) == 2
        assert "--run" in capsys.readouterr().err

    def test_unreachable_daemon_exits_3(self, demo_file, capsys,
                                        monkeypatch):
        import socket

        from repro.server.client import MayaClient

        victim = socket.socket()
        victim.bind(("127.0.0.1", 0))
        port = victim.getsockname()[1]
        victim.close()
        original = MayaClient.__init__

        def quick(self, address, **kwargs):
            kwargs.update(retries=1, backoff_s=0.001)
            original(self, address, **kwargs)

        monkeypatch.setattr(MayaClient, "__init__", quick)
        assert main(["--daemon", f"127.0.0.1:{port}", demo_file]) == 3
        assert "mayac:" in capsys.readouterr().err
