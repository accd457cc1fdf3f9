import os
import shutil
import signal
import stat

import pytest

from gcanon.generate import all_nonisomorphic
from gcanon.graph6 import encode_graph6
from gcanon.gtools import (
    ToolError,
    ToolSpec,
    ToolUnavailable,
    exec_stream,
    find_binary,
)


def fake_tool(directory, name, body):
    """An executable shell script directory/name running body."""
    fake = directory / name
    fake.write_text("#!/bin/sh\n" + body)
    fake.chmod(fake.stat().st_mode | stat.S_IXUSR)
    return fake


def drain(lines):
    """list(lines), failing instead of hanging past 10 s."""
    def expire(signum, frame):
        raise TimeoutError("still blocked after 10 s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        return list(lines)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def gtool_or_skip(command, *args):
    spec = ToolSpec(command, args)
    try:
        find_binary(spec)
    except ToolUnavailable:
        pytest.skip(f"{command} not installed")
    return spec


class TestToolSpec:
    def test_rejects_empty_command(self):
        with pytest.raises(ValueError):
            ToolSpec("")

    def test_rejects_newline_in_args(self):
        with pytest.raises(ValueError):
            ToolSpec("echo", ("a\nb",))


class TestFindBinary:
    def test_missing_binary(self):
        with pytest.raises(ToolUnavailable):
            find_binary(ToolSpec("no-such-binary-zz"))

    def test_path_lookup(self):
        assert os.path.isabs(find_binary(ToolSpec("sh")))

    def test_env_dir_takes_precedence_over_path(self, tmp_path, monkeypatch):
        fake = fake_tool(tmp_path, "sh", "exit 0\n")
        monkeypatch.setenv("GTOOLS_DIR", str(tmp_path))
        assert shutil.which("sh") != str(fake)
        assert find_binary(ToolSpec("sh")) == str(fake)

    def test_env_dir(self, tmp_path, monkeypatch):
        fake = fake_tool(tmp_path, "envtool-zz", "exit 0\n")
        monkeypatch.setenv("GTOOLS_DIR", str(tmp_path))
        assert find_binary(ToolSpec("envtool-zz")) == str(fake)


class TestPlumbing:
    def test_stream_collects_lines(self):
        spec = ToolSpec("sh", ("-c", "printf 'a\\nb\\n'"))
        assert list(exec_stream(spec)) == ["a", "b"]

    def test_stream_nonzero_exit_raises_with_stderr(self):
        spec = ToolSpec("sh", ("-c", "echo oops >&2; exit 3"))
        with pytest.raises(ToolError) as exc:
            list(exec_stream(spec))
        assert "oops" in exc.value.stderr

    def test_stream_early_close_kills_child(self):
        spec = ToolSpec("sh", ("-c", "yes"))
        it = exec_stream(spec)
        assert next(it) == "y"
        it.close()

    def test_stream_survives_full_stderr(self):
        # 200,000 bytes is past any pipe buffer: a stderr pipe left unread
        # while stdout is read to EOF would block the child and the parent
        noisy = "head -c 200000 /dev/zero | tr '\\0' x >&2; "
        done = ToolSpec("sh", ("-c", noisy + "echo done"))
        assert drain(exec_stream(done)) == ["done"]
        with pytest.raises(ToolError) as exc:
            drain(exec_stream(ToolSpec("sh", ("-c", noisy + "exit 4"))))
        assert exc.value.stderr == "x" * 200000

    def test_stream_feeds_input_lines(self):
        lines = [f"line {i}" for i in range(1000)]
        assert drain(exec_stream(ToolSpec("cat"), lines)) == lines

    def test_stream_without_input_reads_empty_stdin(self):
        assert drain(exec_stream(ToolSpec("cat"))) == []

    def test_stream_early_close_kills_fed_child(self, tmp_path, monkeypatch):
        # a cat that prints its pid, then becomes the real cat; 100,000
        # lines overfill the stdout pipe, so it is still running at close
        fake_tool(tmp_path, "cat", f"echo $$\nexec {shutil.which('cat')}\n")
        monkeypatch.setenv("GTOOLS_DIR", str(tmp_path))
        it = exec_stream(ToolSpec("cat"), [str(i) for i in range(100000)])
        pid = int(next(it))
        assert next(it) == "0"
        it.close()
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_bidi_round_trip(self):
        spec = ToolSpec("sort", ())
        assert list(exec_stream(spec, ["b", "a", "c"])) == ["a", "b", "c"]

    def test_bidi_splits_at_newlines_only(self):
        spec = ToolSpec("sh", ("-c", "printf 'a\\fb\\n'"))
        assert list(exec_stream(spec, [])) == ["a\fb"]

    def test_bidi_nonzero_exit(self):
        spec = ToolSpec("sh", ("-c", "cat > /dev/null; exit 2"))
        with pytest.raises(ToolError):
            list(exec_stream(spec, ["x"]))


class TestAgainstInstalledGtools:
    """Cross-validation against nauty's geng and shortg, skipped when the
    binaries are not installed."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_geng_counts(self, n):
        spec = gtool_or_skip("geng", "-q", str(n))
        theirs = sorted(exec_stream(spec))
        assert len(theirs) == len(all_nonisomorphic(n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_shortg_classes_match(self, n):
        spec = gtool_or_skip("shortg", "-q")
        ours = [encode_graph6(g) for g in all_nonisomorphic(n)]
        theirs = list(exec_stream(spec, ours))
        # same class count: shortg must not merge any of our representatives
        assert len(theirs) == len(ours)
