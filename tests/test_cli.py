from __future__ import annotations

import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import impact_fixtures as fx
from conftest import write_module, write_tree
from semverdiff.cli import main

FIG2_MODULE = "github.com/pinpoint-apm/pinpoint-go-agent"


def run_cli(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    out, err = capsys.readouterr()
    code = exc.value.code
    return (code if code is not None else 0), out, err


@pytest.fixture()
def fig2_pair(tmp_path):
    def agent(param):
        return {
            "protobuf/agent.go": (
                "package protobuf\n\n"
                'import "google.golang.org/grpc"\n\n'
                "type AgentClient interface{}\n\n"
                f"func NewAgentClient(cc {param}) AgentClient {{ return nil }}\n"
            )
        }

    old = write_module(tmp_path / "v1.1.3", FIG2_MODULE, agent("grpc.ClientConnInterface"))
    new = write_module(tmp_path / "v1.2.0", FIG2_MODULE, agent("*grpc.ClientConn"))
    return old, new


@pytest.fixture()
def identical_pair(tmp_path):
    files = {"lib.go": "package lib\n\nfunc Keep() {}\n"}
    old = write_module(tmp_path / "old", "example.com/lib", files)
    new = write_module(tmp_path / "new", "example.com/lib", files)
    return old, new


class TestExtract:
    def test_emits_surface_document(self, identical_pair, capsys):
        old, _ = identical_pair
        code, out, _ = run_cli(["extract", str(old), "--module-version", "v1.0.0"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["module"] == "example.com/lib"
        assert doc["version"] == "v1.0.0"

    def test_output_file(self, identical_pair, capsys, tmp_path):
        old, _ = identical_pair
        target = tmp_path / "surface.json"
        code, out, _ = run_cli(["extract", str(old), "-o", str(target)], capsys)
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["module"] == "example.com/lib"

    def test_missing_directory_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(["extract", str(tmp_path / "nope")], capsys)
        assert code == 2

    def test_module_without_manifest_is_usage_error(self, capsys, tmp_path):
        (tmp_path / "x.go").write_text("package x\n")
        code, _, err = run_cli(["extract", str(tmp_path)], capsys)
        assert code == 2

    @pytest.mark.parametrize("command", ["extract", "diff", "check", "impact"])
    def test_non_utf8_manifest_is_input_error(self, tmp_path, capsys, command):
        lib = tmp_path / "lib"
        for version in ("v1.0.0", "v1.1.0"):
            write_tree(lib / version, {"lib.go": "package lib\n\nfunc F() {}\n"})
            (lib / version / "go.mod").write_bytes(b"module example.com/lib\xff\n\ngo 1.19\n")
        old, new = lib / "v1.0.0", lib / "v1.1.0"
        args = {
            "extract": ["extract", str(old)],
            "diff": ["diff", str(old), str(new)],
            "check": ["check", str(old), str(new), "--from", "v1.0.0", "--to", "v1.1.0"],
            "impact": ["impact", "--library", str(lib), "--upgrade", "v1.0.0..v1.1.0", "--clients", str(tmp_path)],
        }[command]
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(old / "go.mod") in err

    @pytest.mark.parametrize("command", ["diff", "check", "impact"])
    def test_module_path_change_is_input_error(self, tmp_path, capsys, command):
        lib = tmp_path / "lib"
        write_module(lib / "v1.0.0", "example.com/lib", {"lib.go": "package lib\n\nfunc F() {}\n"})
        write_module(lib / "v1.1.0", "example.com/lib/v2", {"lib.go": "package lib\n\nfunc F() {}\n"})
        old, new = lib / "v1.0.0", lib / "v1.1.0"
        args = {
            "diff": ["diff", str(old), str(new)],
            "check": ["check", str(old), str(new), "--from", "v1.0.0", "--to", "v1.1.0"],
            "impact": ["impact", "--library", str(lib), "--upgrade", "v1.0.0..v1.1.0", "--clients", str(tmp_path)],
        }[command]
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert err == "error: module paths differ: example.com/lib vs example.com/lib/v2\n"

    def test_method_receiver_and_type_params(self, tmp_path, capsys):
        root = write_module(
            tmp_path / "g",
            "example.com/g",
            {"g.go": "package g\n\ntype Box[T any] struct{ v T }\n\nfunc (b *Box[T]) Get() T { return b.v }\n"},
        )
        code, out, _ = run_cli(["extract", str(root)], capsys)
        assert code == 0
        (package,) = json.loads(out)["packages"]
        box, get = package["objects"]
        assert (box["key"], box["type_params"], "receiver" in box) == ("Box", "[T any]", False)
        assert (get["key"], get["receiver"], "type_params" in get) == ("Box.Get", "Box", False)

    def test_deeply_nested_type_is_a_parse_failure(self, tmp_path, capsys):
        root = write_module(
            tmp_path / "m",
            "example.com/m",
            {"deep.go": "package m\n\ntype Deep " + "*" * 5000 + "int\n", "ok.go": "package m\n\nfunc Keep() {}\n"},
        )
        code, out, _ = run_cli(["extract", str(root)], capsys)
        assert code == 0
        keys = [o["key"] for p in json.loads(out)["packages"] for o in p["objects"]]
        assert keys == ["Keep"]


class TestDiff:
    def test_identical_checkouts_exit_zero(self, identical_pair, capsys):
        old, new = identical_pair
        code, out, _ = run_cli(["diff", str(old), str(new)], capsys)
        assert code == 0
        assert out == ""

    def test_breaking_change_exits_one(self, fig2_pair, capsys):
        old, new = fig2_pair
        code, out, _ = run_cli(
            ["diff", str(old), str(new), "--from", "v1.1.3", "--to", "v1.2.0", "--format", "json"],
            capsys,
        )
        assert code == 1
        (line,) = out.strip().splitlines()
        record = json.loads(line)
        assert record["condition"] == "Param Change"
        assert record["breaking"] is True

    def test_text_and_json_describe_same_records(self, fig2_pair, capsys):
        old, new = fig2_pair
        args = ["diff", str(old), str(new), "--from", "v1.1.3", "--to", "v1.2.0"]
        _, text_out, _ = run_cli(args, capsys)
        _, json_out, _ = run_cli(args + ["--format", "json"], capsys)
        records = [json.loads(line) for line in json_out.strip().splitlines()]
        blocks = [b for b in text_out.strip().split("\n\n") if b]
        assert len(records) == len(blocks) == 1
        assert f"Change Message: {records[0]['message']}" in blocks[0]

    def test_output_is_deterministic(self, fig2_pair, capsys):
        old, new = fig2_pair
        args = ["diff", str(old), str(new), "--format", "json"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first and first == second

    def test_descending_versions_give_no_upgrade_line(self, fig2_pair, capsys):
        old, new = fig2_pair
        code, out, _ = run_cli(["diff", str(old), str(new), "--from", "v2.0.0", "--to", "v1.0.0"], capsys)
        assert code == 1
        assert out.startswith("Module: github.com/pinpoint-apm/pinpoint-go-agent\nPackage: ")
        assert "Library Upgrade" not in out

    def test_exclude_dir_extends_filter(self, tmp_path, capsys):
        mod = "example.com/lib"
        old = write_module(
            tmp_path / "old", mod, {"gen/g.go": "package gen\n\nfunc Old() {}\n", "lib.go": "package lib\n"}
        )
        new = write_module(
            tmp_path / "new", mod, {"gen/g.go": "package gen\n", "lib.go": "package lib\n"}
        )
        code, _, _ = run_cli(["diff", str(old), str(new)], capsys)
        assert code == 1
        code, out, _ = run_cli(["diff", str(old), str(new), "--exclude-dir", "gen"], capsys)
        assert code == 0 and out == ""


class TestCheck:
    def test_fig2_block_and_exit_code(self, fig2_pair, capsys):
        old, new = fig2_pair
        code, out, _ = run_cli(
            ["check", str(old), str(new), "--from", "v1.1.3", "--to", "v1.2.0"], capsys
        )
        assert code == 1
        assert "Library Upgrade: v1.1.3 -> v1.2.0, Minor Upgrade" in out
        assert "Change Condition: Param Change" in out
        assert "Verdict: non-compliant (Minor Upgrade, 1 breaking changes)" in out

    def test_compliant_addition_exits_zero(self, tmp_path, capsys):
        mod = "example.com/lib"
        old = write_module(tmp_path / "old", mod, {"lib.go": "package lib\n\nfunc A() {}\n"})
        new = write_module(
            tmp_path / "new", mod, {"lib.go": "package lib\n\nfunc A() {}\n\nfunc B() {}\n"}
        )
        code, out, _ = run_cli(
            ["check", str(old), str(new), "--from", "v1.0.0", "--to", "v1.0.1"], capsys
        )
        assert code == 0
        assert "Verdict: compliant" in out

    def test_development_upgrade_may_break(self, fig2_pair, capsys):
        old, new = fig2_pair
        code, out, _ = run_cli(["check", str(old), str(new), "--from", "v0.1.0", "--to", "v0.2.0"], capsys)
        assert code == 1  # a breaking change, compliant or not
        assert "Library Upgrade: v0.1.0 -> v0.2.0, Development\n" in out
        assert out.endswith("Verdict: compliant (Development, 1 breaking changes)\n")

    def test_requires_version_flags(self, identical_pair, capsys):
        old, new = identical_pair
        code, _, _ = run_cli(["check", str(old), str(new)], capsys)
        assert code == 2

    def test_not_an_upgrade_is_input_error(self, identical_pair, capsys):
        old, new = identical_pair
        code, _, _ = run_cli(
            ["check", str(old), str(new), "--from", "v2.0.0", "--to", "v1.0.0"], capsys
        )
        assert code == 2

    def test_json_format(self, fig2_pair, capsys):
        old, new = fig2_pair
        code, out, _ = run_cli(
            ["check", str(old), str(new), "--from", "v1.1.3", "--to", "v1.2.0", "--format", "json"],
            capsys,
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["level"] == "Minor"
        assert doc["compliant"] is False
        assert len(doc["records"]) == 1


class TestGraph:
    def test_builds_and_persists(self, planted_root, tmp_path, capsys):
        target = tmp_path / "graph.json"
        code, out, _ = run_cli(["graph", str(planted_root), "-o", str(target)], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["path"] == str(target)
        doc = json.loads(target.read_text())
        assert summary["nodes"] == len(doc["nodes"])
        assert summary["edges"] == len(doc["edges"]) > 0


@pytest.fixture()
def impact_layout(tmp_path):
    lib_root = tmp_path / "brklib"
    write_module(lib_root / "v1.0.0", fx.LIBRARY_MODULE, fx.LIBRARY_OLD)
    write_module(lib_root / "v1.1.0", fx.LIBRARY_MODULE, fx.LIBRARY_NEW)
    clients = {}
    for name, files in fx.CLIENTS.items():
        clients[name] = write_tree(tmp_path / "clients" / name, files)
    return lib_root, clients


class TestImpact:
    def test_usages_found_exit_one(self, impact_layout, capsys):
        lib_root, clients = impact_layout
        args = ["impact", "--library", str(lib_root), "--upgrade", "v1.0.0..v1.1.0"]
        for name in sorted(clients):
            args += ["--clients", str(clients[name])]
        code, out, _ = run_cli(args, capsys)
        assert code == 1
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert {(l["client"], l["name"]) for l in lines} == {
            ("example.com/client-default", "brklib.OldThing"),
            ("example.com/client-aliased", "bl.DoWork"),
            ("example.com/client-dot", "OldThing"),
        }
        assert all(set(l) == {"client", "file", "line", "name", "package", "condition"} for l in lines)

    def test_no_usages_exit_zero(self, impact_layout, capsys):
        lib_root, clients = impact_layout
        code, out, _ = run_cli(
            [
                "impact",
                "--library",
                str(lib_root),
                "--upgrade",
                "v1.0.0..v1.1.0",
                "--clients",
                str(clients["client-unaffected"]),
            ],
            capsys,
        )
        assert code == 0 and out == ""

    def test_csv_format_has_condition_table(self, impact_layout, capsys):
        lib_root, clients = impact_layout
        code, out, _ = run_cli(
            [
                "impact",
                "--library",
                str(lib_root),
                "--upgrade",
                "v1.0.0..v1.1.0",
                "--clients",
                str(clients["client-default"]),
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 1
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:3] == ["Index", "Category", "Condition"]
        assert len(rows) == 42  # header + 40 conditions + total

    def test_text_format_lists_each_usage(self, impact_layout, capsys):
        lib_root, clients = impact_layout
        args = ["impact", "--library", str(lib_root), "--upgrade", "v1.0.0..v1.1.0", "--format", "text"]
        code, out, _ = run_cli(args + ["--clients", str(clients["client-default"])], capsys)
        assert code == 1
        assert out == "example.com/client-default main.go:6 brklib.OldThing (Function/Remove)\n"

    def test_missing_version_checkout_is_usage_error(self, impact_layout, capsys):
        lib_root, clients = impact_layout
        args = ["impact", "--library", str(lib_root), "--upgrade", "v1.0.0..v1.2.0"]
        code, out, err = run_cli(args + ["--clients", str(clients["client-default"])], capsys)
        assert code == 2 and out == ""
        assert f"missing version checkout: {lib_root / 'v1.2.0'}" in err

    def test_bad_upgrade_spec(self, impact_layout, capsys):
        lib_root, clients = impact_layout
        code, _, _ = run_cli(
            [
                "impact",
                "--library",
                str(lib_root),
                "--upgrade",
                "v1.0.0",
                "--clients",
                str(clients["client-default"]),
            ],
            capsys,
        )
        assert code == 2


class TestReport:
    def test_emits_three_csvs(self, planted_root, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        code, out, _ = run_cli(["report", str(planted_root), "-o", str(out_dir)], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["upgrades"] == 40
        assert summary["breaking_upgrades"] == 15
        names = {p.split("/")[-1] for p in summary["files"]}
        assert names == {"upgrade_stats.csv", "condition_stats.csv", "time_series.csv"}
        stats_rows = list(csv.reader((out_dir / "upgrade_stats.csv").open()))
        assert stats_rows[0] == ["Level", "Total Count", "Total %", "Breaking Count", "Breaking %"]
        minor = next(r for r in stats_rows if r[0] == "Minor")
        assert minor == ["Minor", "10", "25.0", "3", "30.0"]
        ts_rows = list(csv.reader((out_dir / "time_series.csv").open()))
        assert ts_rows[0] == ["Month", "Level", "Total", "Breaking", "Rate"]


    def test_include_prerelease_adds_upgrade(self, planted_root, tmp_path, capsys):
        code, out, _ = run_cli(
            ["report", str(planted_root), "-o", str(tmp_path / "r"), "--include-prerelease"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["upgrades"] == 41
        stats_rows = list(csv.reader((tmp_path / "r" / "upgrade_stats.csv").open()))
        assert any(r[0] == "Pre-release/Build" for r in stats_rows)


def test_outputs_do_not_depend_on_the_hash_seed(impact_layout, planted_root, tmp_path):
    """`impact` on the fixture clients and `report` on the planted corpus,
    each in a fresh process under two string hash seeds, print the same
    bytes and write the same files."""
    import semverdiff

    lib_root, clients = impact_layout
    impact = ["impact", "--library", str(lib_root), "--upgrade", "v1.0.0..v1.1.0", "--format", "json"]
    for name in sorted(clients):
        impact += ["--clients", str(clients[name])]
    report = ["report", str(planted_root), "-o", "reports"]
    package_root = str(Path(semverdiff.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        cwd = tmp_path / f"seed{seed}"
        cwd.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        runs = []
        for args in (impact, report):
            command = [sys.executable, "-c", "import sys; from semverdiff.cli import main; sys.exit(main())", *args]
            proc = subprocess.run(command, cwd=cwd, capture_output=True, env=env, check=False)
            runs.append((proc.returncode, proc.stdout))
        written = {path.relative_to(cwd).as_posix(): path.read_bytes() for path in sorted(cwd.rglob("*")) if path.is_file()}
        outputs.append((runs, written))
    (impact_run, report_run), written = outputs[0]
    assert impact_run[0] == 1 and impact_run[1].count(b"\n") == 3
    assert report_run[0] == 0 and len(written) == 3
    assert outputs[0] == outputs[1]


def test_console_script_help():
    """The declared ``semverdiff`` console script answers ``--help``.

    The entry point is read from ``[project.scripts]`` in ``pyproject.toml``
    and launched in a fresh process the way a console-script wrapper does,
    so no install is needed. An installed ``semverdiff`` on PATH is run too.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")

    import semverdiff

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "semverdiff" in scripts
    entry = EntryPoint("semverdiff", scripts["semverdiff"], group="console_scripts")
    assert callable(entry.load())

    wrapper = (
        f"import sys; from {entry.module} import {entry.attr}; "
        f"sys.exit({entry.attr}())"
    )
    package_root = str(Path(semverdiff.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    runs = [([sys.executable, "-c", wrapper, "--help"], env)]
    installed = shutil.which("semverdiff")
    if installed:
        runs.append(([installed, "--help"], None))

    for command, run_env in runs:
        proc = subprocess.run(command, capture_output=True, text=True, env=run_env, check=False)
        assert proc.returncode == 0, proc.stderr
        listed = re.findall(r"^  (\S+)", proc.stdout.partition("Commands:")[2], re.M)
        for name in ("extract", "diff", "check", "graph", "impact", "report"):
            assert name in listed


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == 2

    def test_bad_format_choice(self, identical_pair, capsys):
        old, new = identical_pair
        code, _, _ = run_cli(["diff", str(old), str(new), "--format", "yaml"], capsys)
        assert code == 2

    def test_removed_jobs_option(self, tmp_path, capsys):
        code, out, err = run_cli(["report", str(tmp_path), "--jobs", "2"], capsys)
        assert code == 2 and out == ""
        assert "No such option" in err and "--jobs" in err

    def test_invalid_version_flag(self, identical_pair, capsys):
        old, new = identical_pair
        code, _, _ = run_cli(
            ["check", str(old), str(new), "--from", "bananas", "--to", "v1.0.0"], capsys
        )
        assert code == 2
