import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fstchar import cli
from fstchar.cli import _worker_count, main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCharacter:
    def test_oracle_json_vacuum(self, capsys):
        code, out, _ = run(
            capsys, "character", "--method", "oracle", "--l", "2",
            "--weight", "1,0,0", "--zmax", "4", "--qmax", "10",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["l"] == 2
        constant = dict((tuple(n), s) for n, s in payload["terms"])[(0, 0)]
        assert constant["terms"] == [[0, "1"]]

    def test_fermionic_byte_identical_to_oracle(self, capsys):
        code, oracle_out, _ = run(
            capsys, "character", "--method", "oracle", "--l", "2",
            "--weight", "1,0,0", "--zmax", "4", "--qmax", "10",
        )
        assert code == 0
        code, fermionic_out, _ = run(
            capsys, "character", "--method", "fermionic", "--l", "2",
            "--weight", "1,0,0", "--zmax", "4", "--qmax", "10",
        )
        assert code == 0
        assert fermionic_out == oracle_out

    def test_wrong_weight_arity_exits_2(self, capsys):
        code, _, err = run(
            capsys, "character", "--method", "oracle", "--l", "2",
            "--weight", "0,0", "--zmax", "2", "--qmax", "4",
        )
        assert code == 2
        assert "weight" in err

    def test_fermionic_requires_l2(self, capsys):
        code, _, _ = run(
            capsys, "character", "--method", "fermionic", "--l", "3",
            "--weight", "1,0,0,0", "--zmax", "2", "--qmax", "4",
        )
        assert code == 2

    def test_jobs_do_not_change_output(self, capsys):
        argv = [
            "character", "--method", "fermionic", "--l", "2",
            "--weight", "1,1,0", "--zmax", "3", "--qmax", "8",
        ]
        code, serial, _ = run(capsys, *argv, "--jobs", "1")
        assert code == 0
        code, parallel, _ = run(capsys, *argv, "--jobs", "3")
        assert code == 0
        assert serial == parallel

    def test_fjmmt_method(self, capsys):
        code, out, _ = run(
            capsys, "character", "--method", "fjmmt",
            "--weight", "2,0,0", "--zmax", "3", "--qmax", "10",
        )
        assert code == 0
        assert json.loads(out)["kind"] == "graded"

    def test_fjmmt_rejects_nonzero_k2(self, capsys):
        code, _, _ = run(
            capsys, "character", "--method", "fjmmt",
            "--weight", "1,0,1", "--zmax", "3", "--qmax", "10",
        )
        assert code == 2

    def test_fjmmt2_sites(self, capsys):
        base = [
            "character", "--method", "fjmmt2", "--ab", "1,0",
            "--level", "1", "--qmax", "10",
        ]
        code, inf_out, _ = run(capsys, *base, "--sites", "inf")
        assert code == 0
        code, default_out, _ = run(capsys, *base)
        assert default_out == inf_out
        code, _, _ = run(capsys, *base, "--sites", "nonsense")
        assert code == 2

    @pytest.mark.parametrize("ab", ["1,2,3", "1"])
    def test_fjmmt2_malformed_ab_exits_2(self, capsys, ab):
        code, _, err = run(
            capsys, "character", "--method", "fjmmt2", "--ab", ab,
            "--level", "3", "--qmax", "10",
        )
        assert code == 2
        assert "--ab must be a pair" in err

    def test_fjmmt2_level_zero_exits_2(self, capsys):
        code, out, err = run(
            capsys, "character", "--method", "fjmmt2", "--ab", "0,0",
            "--level", "0", "--qmax", "5",
        )
        assert code == 2 and out == ""
        assert "need level >= 1" in err

    def test_fjmmt2_negative_sites_exits_2(self, capsys):
        code, out, err = run(
            capsys, "character", "--method", "fjmmt2", "--ab", "1,0",
            "--level", "1", "--qmax", "10", "--sites=-5",
        )
        assert code == 2 and out == ""
        assert "--sites must be >= 0" in err

    # every subcommand path that reads --weight, with its l
    WEIGHT_PATHS = [
        ("character", "--method", "oracle", "--l", "2"),
        ("character", "--method", "fermionic", "--l", "2"),
        ("character", "--method", "fjmmt", "--l", "2"),
        ("list-admissible", "--l", "2"),
    ]

    @pytest.mark.parametrize("path", WEIGHT_PATHS)
    @pytest.mark.parametrize("weight", ["1,-1,0", "0,0,0"])
    def test_weight_sign_and_level_rejected(self, capsys, path, weight):
        code, out, err = run(
            capsys, *path, f"--weight={weight}", "--zmax", "2", "--qmax", "4",
        )
        assert code == 2 and out == ""
        assert "weight entries must be >= 0 with level >= 1" in err

    @pytest.mark.parametrize("path", WEIGHT_PATHS)
    @pytest.mark.parametrize("weight", ["1,0", "1,0,0,0"])
    def test_weight_length_rejected(self, capsys, path, weight):
        code, out, err = run(
            capsys, *path, f"--weight={weight}", "--zmax", "2", "--qmax", "4",
        )
        assert code == 2 and out == ""
        if "fjmmt" in path:
            assert "method fjmmt is defined for weights k0,k1,0" in err
        else:
            assert "weight must have 3 entries for l=2" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "char.json"
        code, out, _ = run(
            capsys, "character", "--method", "oracle", "--l", "2",
            "--weight", "1,0,0", "--zmax", "2", "--qmax", "5",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["l"] == 2

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "character", "--method", "oracle", "--l", "2",
            "--weight", "1,0,0", "--zmax", "2", "--qmax", "5",
            "--format", "text",
        )
        assert code == 0
        assert out.startswith("# l=2")

    # stdout sha256 prefixes of `character` runs, recorded at 67e1c2f; no
    # benchmark workload runs `character`, so only this pins their output
    PINNED = [
        ("character --method fjmmt --weight 2,0,0 --zmax 6 --qmax 20",
         "59028fa7ccc2af10"),
        ("character --method fjmmt --weight 2,0,0 --zmax 6 --qmax 20"
         " --format text", "6549c2c71381afa1"),
        ("character --method fjmmt2 --ab 1,0 --level 2 --sites inf --qmax 16",
         "a844704a3af51345"),
        ("character --method fjmmt2 --ab 1,1 --level 3 --sites 4 --qmax 24"
         " --format text", "590523dc5d4bf7fd"),
    ]

    @pytest.mark.parametrize("command, prefix", PINNED)
    def test_output_pinned(self, capsys, command, prefix):
        code, out, _ = run(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest().startswith(prefix)


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n+```sh\n(.*?)```", readme, re.S).group(1)
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines() if line.startswith("fstchar ")
    ]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_example_runs(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 0, err


class TestVerify:
    def test_system_suite_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "system", "--l", "2", "--level", "2",
            "--zmax", "4", "--qmax", "10",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        names = [r["name"] for r in payload["reports"]]
        assert any(n.startswith("recurrence-golden") for n in names)

    def test_corrupted_golden_exits_1(self, capsys, monkeypatch):
        golden = cli._golden_system()
        lines = golden.splitlines(True)
        assert len(lines) == 6
        changed = golden.replace("A[0,2,0](n1-2,n2)", "A[0,2,0](n1-1,n2)")
        # a changed first line, a file that ends one line early, and one
        # that lacks its final newline
        for bad, line, expected in ((changed, 1, changed.splitlines()[0]),
                                    ("".join(lines[:-1]), 6, "<eof>"),
                                    (golden[:-1], 6, lines[-1][:-1])):
            monkeypatch.setattr(cli, "_golden_system", lambda text=bad: text)
            code, out, _ = run(
                capsys, "verify", "--suite", "system", "--l", "2",
                "--level", "2", "--zmax", "3", "--qmax", "8",
            )
            assert code == 1
            payload = json.loads(out)
            failing = [r for r in payload["reports"] if not r["ok"]]
            violation = failing[0]["violations"][0]
            assert violation["where"]["line"] == line
            assert violation["expected"] == expected

    def test_lemma_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemmas", "--level", "2")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_fjmmt_suite_level1(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "fjmmt", "--level", "1",
            "--zmax", "4", "--qmax", "10",
        )
        assert code == 0

    def test_fjmmt2_suite_level1(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "fjmmt2", "--level", "1", "--qmax", "10",
        )
        assert code == 0

    def test_jobs_do_not_change_output(self, capsys):
        # --suite all reaches every pooled call site of verify
        for suite in ("system", "all"):
            argv = [
                "verify", "--suite", suite, "--l", "2", "--level", "2",
                "--zmax", "3", "--qmax", "8",
            ]
            code, serial, _ = run(capsys, *argv, "--jobs", "1")
            assert code == 0
            code, parallel, _ = run(capsys, *argv, "--jobs", "2")
            assert serial == parallel

    @pytest.mark.parametrize("l, level, zmax, qmax", [
        ("3", "2", "4", "10"), ("1", "3", "6", "12")])
    def test_system_suite_at_other_ranks(self, capsys, l, level, zmax, qmax):
        argv = ["verify", "--suite", "system", "--l", l, "--level", level,
                "--zmax", zmax, "--qmax", qmax, "--format", "text"]
        code, serial, _ = run(capsys, *argv, "--jobs", "1")
        assert code == 0
        assert serial.endswith("suite system: ok\n")
        assert f"[recurrence-system[k={level},l={l}]] ok; " in serial
        code, parallel, _ = run(capsys, *argv, "--jobs", "2")
        assert code == 0
        assert parallel == serial

    def test_worker_count_bounded_by_tasks_and_cpus(self):
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        assert _worker_count(64, 3) == min(3, cpus)
        assert _worker_count(64, 1000) == min(64, cpus)
        assert _worker_count(2, 0) == 1
        assert _worker_count(1, 10) == 1

    def test_worker_count_follows_cpu_affinity(self, monkeypatch):
        # a process pinned to one CPU gets no pool however many os.cpu_count()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert _worker_count(8, 8) == 1

    def test_import_loads_no_process_pool(self):
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", "import sys, fstchar.cli; "
             "print('concurrent.futures' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_benchmark_tracer_finds_every_traced_name(self):
        # perfbench/traced_cli.py reports null for a metric whose function or
        # method the package no longer has; the benchmark refuses such a run
        root = Path(__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "perfbench/traced_cli.py", "verify", "--suite", "all",
             "--level", "1", "--zmax", "2", "--qmax", "4", "--jobs", "1",
             "--format", "json"],
            cwd=root, env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout)
        assert result["exit"] == 0
        assert result["missing"] == []
        assert [name for name, value in result["metrics"].items()
                if value is None] == []
        assert None not in result["digests"].values()

    def test_text_format_summary(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "system", "--l", "2", "--level", "1",
            "--zmax", "3", "--qmax", "8", "--format", "text",
        )
        assert code == 0
        assert "suite system: ok" in out


class TestListAdmissible:
    def test_level1_stream(self, capsys):
        code, out, _ = run(
            capsys, "list-admissible", "--l", "2", "--weight", "1,0,0",
            "--qmax", "3", "--zmax", "1",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        configs = [tuple(r[0]) for r in rows]
        assert (1,) in configs and (0, 0, 1) in configs and (0, 0, 0, 0, 1) in configs
        for config, degree, weight in rows:
            assert degree <= 3

    def test_q_zero_only_vacuum(self, capsys):
        code, out, _ = run(
            capsys, "list-admissible", "--l", "2", "--weight", "1,0,0",
            "--qmax", "0",
        )
        assert code == 0
        assert [json.loads(line) for line in out.splitlines()] == [[[], 0, [0, 0]]]

    def test_init_prefix_pins_start(self, capsys):
        code, out, _ = run(
            capsys, "list-admissible", "--l", "2", "--weight", "2,0,0",
            "--qmax", "2", "--init", "0,0",
        )
        assert code == 0
        for line in out.splitlines():
            config = json.loads(line)[0]
            assert config[:2] in ([], [0], [0, 0]) or (
                len(config) >= 2 and config[0] == 0 and config[1] == 0
            )

    def test_energy_bound_mode(self, capsys):
        code, out, _ = run(
            capsys, "list-admissible", "--l", "2", "--weight", "1,0,0",
            "--init", "0,0", "--energy-max", "5",
        )
        assert code == 0
        for line in out.splitlines():
            config, degree, weight = json.loads(line)
            assert sum(i * a for i, a in enumerate(config)) <= 5

    def test_missing_weight_exits_2(self, capsys):
        code, _, _ = run(capsys, "list-admissible", "--l", "2", "--qmax", "2")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_empty_listing_prints_nothing(self, capsys, fmt):
        # a_0 = 2 exceeds the level 1, so the window holds no configuration
        code, out, err = run(
            capsys, "list-admissible", "--weight", "1,0,0", "--init", "2,0",
            "--energy-max", "4", "--format", fmt,
        )
        assert (code, out, err) == (0, "", "")

    def test_config_jobs_not_read(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs=0\n")
        code, out, _ = run(
            capsys, "--config", str(cfg), "list-admissible", "--weight",
            "1,0,0", "--qmax", "0",
        )
        assert code == 0
        assert [json.loads(line) for line in out.splitlines()] == [[[], 0, [0, 0]]]

    def test_config_zmax_caps_listing(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("zmax=0\n")
        code, out, _ = run(
            capsys, "--config", str(cfg), "list-admissible", "--l", "2",
            "--weight", "1,0,0", "--qmax", "3",
        )
        assert code == 0
        assert [json.loads(line) for line in out.splitlines()] == [[[], 0, [0, 0]]]

    def test_bad_config_window_exits_2(self, capsys, tmp_path):
        for line in ("zmax=abc\n", "qmax=abc\n"):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(line)
            for argv in (["list-admissible", "--weight", "1,0,0"],
                         ["verify", "--suite", "system", "--level", "1"]):
                code, _, err = run(capsys, "--config", str(cfg), *argv)
                assert code == 2, (line, argv)
                assert "not valid" in err


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("l=2\nzmax=2\nqmax=6\n")
        code, from_cfg, _ = run(
            capsys, "--config", str(cfg), "character", "--method", "oracle",
            "--weight", "1,0,0",
        )
        assert code == 0
        assert json.loads(from_cfg)["q_order"] == 6
        code, overridden, _ = run(
            capsys, "--config", str(cfg), "character", "--method", "oracle",
            "--weight", "1,0,0", "--qmax", "4",
        )
        assert json.loads(overridden)["q_order"] == 4

    def test_bad_config_line_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("zmax 2\n")
        code, _, err = run(
            capsys, "--config", str(cfg), "character", "--method", "oracle",
            "--weight", "1,0,0",
        )
        assert code == 2

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        # a misspelt key would otherwise leave its default silently in force
        cfg = tmp_path / "run.cfg"
        cfg.write_text("level=1\nqmx=5\n")
        code, out, err = run(
            capsys, "--config", str(cfg), "verify", "--suite", "system",
            "--format", "text",
        )
        assert code == 2 and out == ""
        assert "unknown config key 'qmx'" in err


class TestSettingsCheck:
    """Every subcommand rejects a bad window, l or worker count with exit 2."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "system", "--level", "1", "--zmax", "2",
         "--qmax", "4"],
        ["character", "--method", "oracle", "--weight", "1,0,0", "--zmax", "2",
         "--qmax", "4"],
    ], ids=["verify", "character"])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.json"
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == 2 and out == ""
        assert "cannot write output file" in err

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--suite", "system", "--zmax", "-1"], "--zmax must be >= 0"),
        (["verify", "--suite", "system", "--level", "1", "--qmax", "-1"],
         "--qmax must be >= 0"),
        (["list-admissible", "--weight", "1,0,0", "--energy-max", "-1"],
         "--energy-max must be >= 0"),
        (["list-admissible", "--weight", "1,0,0", "--zmax", "-1", "--qmax", "3"],
         "--zmax must be >= 0"),
        (["list-admissible", "--weight", "1,0,0", "--qmax", "-1"],
         "--qmax must be >= 0"),
        (["character", "--method", "oracle", "--weight", "1,0,0", "--zmax", "-1"],
         "--zmax must be >= 0"),
        (["verify", "--suite", "fjmmt", "--l", "3"], "suite fjmmt requires --l 2"),
        (["verify", "--suite", "fjmmt2", "--l", "3"],
         "suite fjmmt2 requires --l 2"),
        (["verify", "--suite", "system", "--l", "0"], "--l must be >= 1"),
        (["character", "--method", "oracle", "--l", "0", "--weight", "1"],
         "--l must be >= 1"),
        (["list-admissible", "--l", "0", "--weight", "1"], "--l must be >= 1"),
        (["verify", "--suite", "lemmas", "--level", "1", "--jobs", "0"],
         "--jobs must be >= 1"),
        (["verify", "--suite", "lemmas", "--level", "1", "--jobs", "-3"],
         "--jobs must be >= 1"),
        (["character", "--method", "fermionic", "--weight", "1,0,0",
          "--jobs", "0"], "--jobs must be >= 1"),
        (["list-admissible", "--weight", "1,0,0", "--jobs", "2"],
         "unrecognized arguments: --jobs 2"),
        (["list-admissible", "--l", "3", "--weight", "1,0,0,0", "--init", "0,0"],
         "--init requires --l 2"),
        (["verify", "--suite", "all", "--l", "3"], "suite all requires --l 2"),
        (["verify", "--suite", "lemmas", "--l", "3"],
         "suite lemmas requires --l 2"),
        (["verify", "--suite", "system", "--level", "0"], "need level >= 1"),
        # window flags are checked for every suite, also those it does not read
        (["verify", "--suite", "lemmas", "--level", "1", "--qmax", "-1"],
         "--qmax must be >= 0"),
        (["verify", "--suite", "fjmmt2", "--level", "1", "--qmax", "4",
          "--zmax", "-1"], "--zmax must be >= 0"),
        # character checks every flag given, also those its method ignores
        (["character", "--method", "oracle", "--weight", "1,0,0",
          "--level", "-3"], "need level >= 1"),
        (["character", "--method", "oracle", "--weight", "1,0,0",
          "--sites=-5"], "--sites must be >= 0"),
        (["character", "--method", "fermionic", "--weight", "1,0,0",
          "--sites=abc"], "--sites must be an integer or 'inf'"),
        (["character", "--method", "fjmmt", "--weight", "1,0,0",
          "--ab", "9,9,9"], "--ab must be a pair"),
        (["character", "--method", "fjmmt2", "--ab", "0,0", "--level", "1",
          "--weight=-1,0"], "weight must have 3 entries for l=2"),
        (["character", "--method", "fjmmt2", "--ab", "0,0", "--level", "1",
          "--weight=-1,0,0"], "weight entries must be >= 0 with level >= 1"),
        (["character", "--method", "oracle", "--weight", "1,0,0",
          "--ab=-1,0"], "--ab must be a pair a,b of entries >= 0"),
        (["character", "--method", "fjmmt"], "method fjmmt needs --weight"),
        (["character", "--method", "fjmmt2", "--weight", "1,0,0"],
         "method fjmmt2 needs --ab a,b"),
        (["list-admissible", "--qmax", "3"],
         "the following arguments are required: --weight"),
    ])
    def test_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_config_window_checked_too(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qmax=-2\n")
        code, _, err = run(
            capsys, "--config", str(cfg), "list-admissible", "--weight", "1,0,0",
        )
        assert code == 2
        assert "--qmax must be >= 0" in err


class TestTraceback:
    ARGV = ["character", "--method", "oracle", "--weight", "1,0,0",
            "--zmax", "1", "--qmax", "2"]

    @pytest.fixture(autouse=True)
    def broken_oracle(self, monkeypatch):
        from fstchar import cli

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli.admissible, "character_oracle", boom)

    def test_one_line_by_default(self, capsys):
        code, out, err = run(capsys, *self.ARGV)
        assert (code, out, err) == (1, "", "internal error: boom\n")

    def test_flag_prints_the_traceback(self, capsys):
        code, out, err = run(capsys, "--traceback", *self.ARGV)
        assert (code, out) == (1, "")
        assert err.startswith("Traceback (most recent call last):\n")
        assert "RuntimeError: boom\n" in err
        assert err.endswith("internal error: boom\n")

    def test_flag_leaves_a_good_run_alone(self, capsys, monkeypatch):
        monkeypatch.undo()
        plain = run(capsys, *self.ARGV)
        flagged = run(capsys, "--traceback", *self.ARGV)
        assert plain == flagged
        assert plain[0] == 0 and plain[2] == ""
