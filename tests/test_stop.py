"""Stop gate: ``fuzzytrust serve`` runs in its own process, answers three
/decide calls and one feedback post, and is then stopped by SIGTERM (what
``kill``, systemd and ``docker stop`` send) or by SIGINT (Ctrl-C).  Either
way it exits 0 and checkpoints both logs, so each snapshot covers every byte
of its log and the next start replays nothing.

Nothing sleeps: the port comes from the service's first line of output, and
every request has been answered before the signal is sent."""

import http.client
import json
import os
import select
import signal
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SERVE = "import sys; from fuzzytrust.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_a_stopped_service_checkpoints_both_logs(tmp_path, signum):
    path = tmp_path / "store.jsonl"
    logs = [path, tmp_path / "store.jsonl.feedback"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-c", SERVE, "serve", "--store", str(path), "--port", "0"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            assert select.select([proc.stdout], [], [], 30)[0], "no port line within 30 s"
            line = proc.stdout.readline()
            assert "listening on" in line, line
            conn = http.client.HTTPConnection("127.0.0.1", int(line.rsplit(":", 1)[1]), timeout=30)
            requests = [("/decide", {"user_id": f"u{i}", "counters": {"bad": i, "bogus": 0, "unauthorized": 0,
                                                                       "total": 10}}) for i in range(3)]
            requests.append(("/feedback/provider/p1", {"feedback": "negative"}))
            for route, body in requests:
                conn.request("POST", route, json.dumps(body))
                response = conn.getresponse()
                assert response.status == 200, response.read()
                response.read()
            conn.close()
            proc.send_signal(signum)
            assert proc.wait(timeout=30) == 0, proc.stderr.read()
        finally:  # also when a check above fails, so that the exit's wait returns
            proc.kill()
            proc.wait(timeout=30)
    for log in logs:
        header = json.loads(log.with_name(log.name + ".snapshot").read_text().splitlines()[0])
        assert (header["log_bytes"], header["records"]) == (log.stat().st_size, 3 if log == path else 1)
