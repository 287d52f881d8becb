"""The process entry, qnogo.cli.run.

Every launcher reaches it; it delivers the whole report, flushes and ends the
process with os._exit, skipping the interpreter's teardown, except under a
tracer or profiler; and output that cannot be written exits 4 with one
`qnogo:` line, never a traceback.  Python buffers stdout unless
PYTHONUNBUFFERED is set; buffered, a failed write shows at run's flush rather
than at the write, so the stdout cases run both ways.
"""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from qnogo.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "schemas" / "report.json").read_text())
INVALID = str(ROOT / "machines" / "invalid_syntax.qmachine")
RUN = ("-c", "from qnogo.cli import run; run()")
LAUNCHERS = {"-m qnogo": ("-m", "qnogo"), "-m qnogo.cli": ("-m", "qnogo.cli"), "run()": RUN}
CIRCLE = ("circle-check", "--grid-n", "8")
# 251 records, about 72 KB of JSON: more than a 64 KiB pipe buffer holds
BIG = ("fidelity-sweep", "--lambda", "0:1:0.004", "--restarts", "1", "--max-evals", "1",
       "--format", "json")

needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


def _env(buffered: bool = True) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "QNOGO_SEED")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env if buffered else {**env, "PYTHONUNBUFFERED": "1"}


def qnogo(*argv, launcher=("-m", "qnogo"), buffered=True, **kw) -> subprocess.CompletedProcess:
    kw.setdefault("stdout", subprocess.PIPE)
    kw.setdefault("stderr", subprocess.PIPE)
    kw.setdefault("env", _env(buffered))
    return subprocess.run([sys.executable, *launcher, *argv], cwd=ROOT, **kw)


def closed(redirect: str, *argv) -> subprocess.CompletedProcess:
    """`python -m qnogo` started with stdout (`>&-`) or stderr (`2>&-`) closed."""
    return subprocess.run(["sh", "-c", f'exec "$0" "$@" {redirect}', sys.executable, "-m",
                           "qnogo", *argv], cwd=ROOT, env=_env(), capture_output=True, text=True)


def in_process(argv, capsys) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv,expected", [
    (CIRCLE, 0),
    (("gate-verify", "--gate", "H", "--target", "hadamard9", "--grid-n", "16"), 2),
    (("dsl-check", INVALID), 3),
])
def test_every_launcher_gives_the_same_code_and_output(argv, expected):
    runs = {name: qnogo(*argv, launcher=launcher) for name, launcher in LAUNCHERS.items()}
    first = runs["-m qnogo"]
    assert first.returncode == expected
    assert first.stdout or first.stderr
    for proc in runs.values():
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (first.returncode, first.stdout, first.stderr)


def test_the_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"qnogo": "qnogo.cli:run"}


def test_run_skips_teardown_unless_a_tracer_is_set():
    # atexit handlers run in teardown: os._exit skips them, sys.exit runs them
    hook = "import atexit, sys; atexit.register(lambda: sys.stderr.write('teardown'))"
    tracer = "; sys.settrace(lambda *a: None)"
    fast = qnogo(*CIRCLE, launcher=("-c", f"{hook}; {RUN[1]}"), text=True)
    slow = qnogo(*CIRCLE, launcher=("-c", f"{hook}{tracer}; {RUN[1]}"), text=True)
    assert (fast.returncode, fast.stderr) == (0, "")
    assert (slow.returncode, slow.stderr) == (0, "teardown")
    assert fast.stdout == slow.stdout != ""


def test_cprofile_writes_its_file(tmp_path, capsys):
    import pstats
    stats = tmp_path / "qnogo.prof"
    proc = qnogo(*CIRCLE, launcher=("-m", "cProfile", "-o", str(stats), "-m", "qnogo"),
                 text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == in_process(CIRCLE, capsys)[1]
    assert any(func[2] == "main" for func in pstats.Stats(str(stats)).stats)


HELPS = [("--help",), ("witness", "--help")]


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", HELPS, ids=["qnogo", "subcommand"])
def test_help_to_a_working_stdout_exits_0_with_the_parsers_text(argv, buffered, capsys,
                                                               monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps its help to the terminal's width
    with pytest.raises(SystemExit) as ei:
        main(list(argv))
    assert ei.value.code == 0
    expected = capsys.readouterr().out
    proc = qnogo(*argv, buffered=buffered, text=True, env={**_env(buffered), "COLUMNS": "80"})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")
    assert expected.startswith(" ".join(("usage: qnogo",) + argv[:-1]))


@needs_dev_full
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", HELPS, ids=["qnogo", "subcommand"])
def test_help_to_a_full_stdout_exits_4_with_one_line(argv, buffered):
    # argparse dropped the write error: exit 0 with the help lost unbuffered, and 120 with
    # an "Exception ignored" message from the teardown flush buffered
    with open("/dev/full", "w") as full:
        _one_io_line(qnogo(*argv, buffered=buffered, stdout=full, text=True), errno.ENOSPC)


def test_help_exits_0_and_a_bad_flag_exits_1():
    help_ = qnogo("--help", text=True)
    assert help_.returncode == 0 and help_.stdout.startswith("usage: qnogo")
    bad = qnogo("circle-check", "--no-such-flag", text=True)
    assert bad.returncode == 1 and bad.stdout == ""
    assert bad.stderr.splitlines()[-1].startswith("qnogo circle-check: error: ")


def test_a_report_larger_than_a_pipe_buffer_arrives_whole(tmp_path, capsys):
    code, expected = in_process(BIG, capsys)
    assert code == 0 and len(expected.encode()) > 65536
    piped = qnogo(*BIG, text=True)
    target = tmp_path / "sweep.json"
    written = qnogo(*BIG, "--output", str(target), text=True)
    assert (piped.returncode, piped.stderr) == (written.returncode, written.stderr) == (0, "")
    assert written.stdout == ""
    for text in (piped.stdout, target.read_text(encoding="utf-8")):
        assert text == expected
        jsonschema.validate(json.loads(text), SCHEMA)


def _closed_pipe():
    """The write end of a pipe whose read end is already closed: a write fails with EPIPE."""
    read, write = os.pipe()
    os.close(read)
    return write


def _one_io_line(proc, err: int) -> None:
    assert proc.returncode == 4
    assert proc.stderr == f"qnogo: cannot write to stdout: {os.strerror(err)}\n"


@needs_dev_full
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [CIRCLE, BIG], ids=["small", "big"])
def test_a_full_stdout_exits_4_with_one_line(argv, buffered):
    with open("/dev/full", "w") as full:
        _one_io_line(qnogo(*argv, buffered=buffered, stdout=full, text=True), errno.ENOSPC)


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("launcher", [("-m", "qnogo"), ("-c", "import sys; sys.settrace("
                                                         "lambda *a: None); " + RUN[1])],
                         ids=["fast", "traced"])
def test_a_broken_pipe_exits_4_with_one_line(launcher, buffered):
    # traced, the exit goes through teardown, which flushes stdout once more
    write = _closed_pipe()
    try:
        proc = qnogo(*CIRCLE, "--format", "json", launcher=launcher, buffered=buffered,
                     stdout=write, text=True)
    finally:
        os.close(write)
    _one_io_line(proc, errno.EPIPE)


def test_a_closed_stdout_exits_4_with_one_line():
    proc = closed(">&-", *CIRCLE)
    assert proc.returncode == 4
    assert proc.stderr == "qnogo: cannot write to stdout: it is closed\n"


@pytest.mark.parametrize("argv", [("dsl-check", INVALID),
                                  ("circle-check", "--tolerance", "-1"),
                                  ("witness", "--bogus")],
                         ids=["diagnostics", "usage-message", "argparse-usage"])
@pytest.mark.parametrize("how", ["full", "closed"])
def test_an_unwritable_stderr_exits_4(how, argv):
    # the message cannot reach stderr, so only the exit code tells
    if how == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            proc = qnogo(*argv, stderr=full)
    else:
        proc = closed("2>&-", *argv)
    assert proc.returncode == 4
    assert not proc.stdout
