"""Fake completion and embedding endpoint, run as its own process.

    python3 perfbench/endpoint.py --script script.json --delay-ms 5 --port-file port

Serves POST /v1/completions (`prompt` a string or a list: one choice, with
its index, per prompt) and POST /v1/embeddings, each after a fixed delay,
and GET /stats with the number of requests and of connections that carried
at least one request. It speaks HTTP/1.1 with keep-alive, sets TCP_NODELAY
and writes each response in a single send: a handler that writes headers
and body separately makes a keep-alive client wait for the peer's delayed
ACK on every request, which would penalise connection reuse.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from scripted import Script, completion_body, embedding_body  # noqa: E402


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, script: Script, delay: float):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.script = script
        self.delay = delay
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: _Server

    def setup(self) -> None:
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.carried_request = False
        super().setup()

    def log_message(self, format, *args) -> None:
        pass

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._send(404, {"error": f"no route {self.path}"})
            return
        with self.server.lock:
            stats = {"requests": self.server.requests,
                     "connections": self.server.connections}
        self._send(200, stats)

    def do_POST(self) -> None:
        payload = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        with self.server.lock:
            self.server.requests += 1
            if not self.carried_request:
                self.server.connections += 1
        self.carried_request = True
        time.sleep(self.server.delay)
        if self.path == "/v1/completions":
            self._send(200, completion_body(self.server.script, payload["prompt"]))
        elif self.path == "/v1/embeddings":
            self._send(200, embedding_body(payload["input"]))
        else:
            self._send(404, {"error": f"no route {self.path}"})


class EndpointProcess:
    """Start the endpoint as a child process; stop it on exit."""

    def __init__(self, script_path: Path, delay_ms: float, work_dir: Path):
        self.port_file = work_dir / "endpoint.port"
        self.port_file.unlink(missing_ok=True)
        self.log = open(work_dir / "endpoint.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--script", str(script_path),
             "--delay-ms", str(delay_ms), "--port-file", str(self.port_file)],
            stdout=self.log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 20
        while not self.port_file.is_file():
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("fake endpoint did not start")
            time.sleep(0.02)
        self.port = int(self.port_file.read_text())
        self.base_url = f"http://127.0.0.1:{self.port}"

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()

    def __enter__(self) -> "EndpointProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--script", type=Path, required=True)
    parser.add_argument("--delay-ms", type=float, required=True)
    parser.add_argument("--port-file", type=Path, required=True)
    args = parser.parse_args()
    server = _Server(Script(args.script), args.delay_ms / 1000)
    partial = args.port_file.with_suffix(".partial")
    partial.write_text(str(server.server_address[1]))
    os.replace(partial, args.port_file)
    server.serve_forever()


if __name__ == "__main__":
    main()
