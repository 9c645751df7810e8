#!/usr/bin/env python3
"""Minimal hattd test client: pipe request frames in, get responses out.

Usage:
    hattd_client.py HOST PORT [< requests.jsonl] > responses.jsonl

Opens ONE connection to a running hattd, sends every line read from
stdin as a frame (newline-delimited JSON — see docs/PROTOCOL.md), and
prints exactly one response line per request line, in order (the
protocol's pipelining contract). Blank input lines are skipped. The
connection closes when stdin is exhausted; if one of the requests was
{"op": "shutdown"}, the daemon's close races our own and both are fine.

It is meant for poking a running daemon by hand (README); it
deliberately has no retries, no concurrency and no cleverness, so a
hang or a mismatched response count is the daemon's bug, not the
client's feature.

Exit codes: 0 all requests answered, 1 protocol failure (EOF before
all responses arrived, unparseable response), 64 usage error.
"""

import json
import socket
import sys

RECV_TIMEOUT_SECONDS = 120.0


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 64
    host, port = argv[1], int(argv[2])

    requests = [line.strip() for line in sys.stdin]
    requests = [line for line in requests if line]
    if not requests:
        print("hattd_client: no request lines on stdin", file=sys.stderr)
        return 64
    for line in requests:
        try:
            json.loads(line)
        except json.JSONDecodeError as exc:
            # Still legal to send (the daemon answers with a status
            # frame) but almost certainly a test-script typo: flag it.
            print(f"hattd_client: note: request is not JSON ({exc}): "
                  f"{line[:80]}", file=sys.stderr)

    with socket.create_connection((host, port),
                                  timeout=RECV_TIMEOUT_SECONDS) as sock:
        sock.sendall(("\n".join(requests) + "\n").encode())
        buf = b""
        got = 0
        while got < len(requests):
            while b"\n" not in buf:
                chunk = sock.recv(65536)
                if not chunk:
                    print(f"hattd_client: connection closed after "
                          f"{got}/{len(requests)} responses",
                          file=sys.stderr)
                    return 1
                buf += chunk
            line, _, buf = buf.partition(b"\n")
            text = line.decode()
            try:
                json.loads(text)
            except json.JSONDecodeError as exc:
                print(f"hattd_client: unparseable response ({exc}): "
                      f"{text[:120]}", file=sys.stderr)
                return 1
            print(text)
            got += 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
